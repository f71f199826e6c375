//! End-to-end benchmark of the secure XML server over HTTP.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload warm_read|cold_read|read_write --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` drives a live epoll server from this process and prints
//! the end-to-end metrics; `--trace 1` replays requests through each
//! layer's public functions and prints the per-layer metrics. Both run
//! the output checks and print one JSON object as the last stdout line;
//! a failed check makes the exit code non-zero. See `perfbench/README.md`.

mod check;
mod client;
mod load;
mod replay;
mod sys;
mod world;

use check::{check_log, check_read, Oracle};
use client::HttpClient;
use load::{Outcome, ReadTable};
use replay::{Replay, Tracer};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use world::{Expect, Rng, Workload, World, WriteGen, WriteOp};
use xmlsec_core::CancelToken;
use xmlsec_server::{
    parse_update_ops, AnyDemo, ConditionalOutcome, HttpConfig, SecureServer, Transport,
};
use xmlsec_telemetry as telemetry;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Share of `warm_read` requests that revalidate with `If-None-Match`.
const REVALIDATE: f64 = 0.25;
/// Timed write batches of the probe of a read-only workload.
const PROBE_WRITES: usize = 2000;
/// Untimed (but checked) batches that open each probe slice: the first
/// writes after a read slice find the caches full of read-path data.
const PROBE_WARM: usize = 5;
/// The timed window is cut into this many slices, and each end-to-end
/// metric is the median of its per-slice values: on a shared host the
/// vCPUs' speed changes every few seconds. On a read-only workload each
/// slice is followed by its share of the write probe, so the probe
/// samples many scheduler placements instead of one, and the reads never
/// wait behind a probe commit.
const SLICES: u32 = 20;
/// `read_write` open-loop rates (requests per second).
const READ_RATE: f64 = 600.0;
const WRITE_RATE: f64 = 60.0;
/// Traced and untraced requests alternate in chunks of this size.
const TRACE_CHUNK: u64 = 32;

/// Layer spans of the replay, in pipeline order.
const LAYERS: &[&str] = &[
    "authz.applicable",
    "server.fingerprint",
    "server.cache",
    "server.etag",
    "xml.parse",
    "dtd.parse",
    "dtd.normalize",
    "dtd.validate",
    "core.compile",
    "core.label",
    "core.prune",
    "dtd.loosen",
    "xml.serialize",
    "core.preflight",
    "core.write_label",
    "core.apply",
    "xml.clone",
    "server.commit",
    "core.patch",
];

struct Args {
    workload: Workload,
    name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut map = HashMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(k) = it.next() {
        let key = k.strip_prefix("--").ok_or(format!("unexpected argument {k:?}"))?.to_string();
        map.insert(key, it.next().ok_or(format!("{k} needs a value"))?);
    }
    let get = |k: &str| map.get(k).cloned().ok_or(format!("missing --{k}"));
    let name = get("workload")?;
    let workload = Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?;
    let seed = get("seed")?.parse().map_err(|_| "bad --seed")?;
    let seconds: f64 = get("seconds")?.parse().map_err(|_| "bad --seconds")?;
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        t => return Err(format!("bad --trace {t:?}")),
    };
    if seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args { workload, name, seed, seconds, trace })
}

/// One request of a sequential script (warm-up, replay phase).
#[derive(Debug, Clone)]
enum Op {
    Read { doc: usize, reader: usize, etag: Option<String> },
    Write(WriteOp),
}

/// The warm-up script: every view once, one write per written document
/// (so the one-time parse of the update path happens here), and on
/// `read_write` every view again.
fn warm_plan(world: &World) -> Vec<Op> {
    let reads = || world.catalog.iter().map(|&(doc, reader)| Op::Read { doc, reader, etag: None });
    let mut plan: Vec<Op> = reads().collect();
    let mut written: Vec<usize> = world.catalog.iter().map(|&(d, _)| d).collect();
    written.dedup();
    if let Some(p) = world.probe_doc {
        written = vec![p];
    }
    for doc in written {
        let body = "settext /laboratory/project[1]/paper[2]/title\tWarm-up title\n".to_string();
        plan.push(Op::Write(WriteOp { doc, intruder: false, body, expect: Expect::Commit }));
    }
    if world.workload == Workload::ReadWrite {
        plan.extend(reads());
    }
    plan
}

/// Sends one scripted op; returns the round trip's start and end.
fn send(client: &mut HttpClient, world: &World, op: &Op, out: &mut Outcome) -> (Instant, Instant) {
    let t0 = Instant::now();
    match op {
        Op::Read { doc, reader, etag } => {
            load::send_read(client, world, (*doc, *reader), etag.as_deref(), t0, out)
        }
        Op::Write(w) => load::send_write(client, world, w.clone(), t0, out),
    }
    (t0, Instant::now())
}

struct Live {
    world: World,
    demo: AnyDemo,
    warm: Outcome,
}

fn start(args: &Args, nproc: usize) -> std::io::Result<Live> {
    let world = World::new(args.workload, args.seed);
    let cfg = HttpConfig { workers: nproc, ..Default::default() };
    let demo = AnyDemo::start_with(Transport::Epoll, world.server(true), "127.0.0.1:0", cfg)?;
    let mut client = HttpClient::new(demo.addr());
    let mut warm = Outcome::default();
    for op in warm_plan(&world) {
        send(&mut client, &world, &op, &mut warm);
    }
    Ok(Live { world, demo, warm })
}

/// One slice of a measured phase.
struct Slice {
    /// Wall time and CPU time of the slice's load (the probe excluded).
    wall: Duration,
    cpu: Duration,
    /// Operations completed in the slice's load.
    ops: usize,
    /// Latencies (ns) of the slice's reads and writes, probe included.
    read_lat: Vec<u32>,
    write_lat: Vec<u32>,
}

/// What one measured phase produced: every request for the checks, and
/// the timings of each slice.
struct Phase {
    out: Outcome,
    slices: Vec<Slice>,
}

/// Runs the timed window as `SLICES` consecutive slices of load. A
/// read-only workload follows each slice with its share of the write
/// probe; `read_write` runs its open loop in every slice.
fn run_phase(
    live: &Live,
    spin: &sys::Spinners,
    table: Option<&ReadTable>,
    gen: &mut WriteGen,
    seed: u64,
    nproc: usize,
    duration: Duration,
) -> Phase {
    let addr = live.demo.addr();
    let revalidate = if live.world.workload == Workload::WarmRead { REVALIDATE } else { 0.0 };
    let mut phase = Phase { out: Outcome::default(), slices: Vec::new() };
    for slice in 0..SLICES {
        let slice_seed = seed ^ (u64::from(slice) << 20);
        let (cpu0, spin0, t0) = (sys::cpu_time(), spin.cpu(), Instant::now());
        let mut out = match table {
            Some(table) => {
                load::closed_reads(addr, table, slice_seed, nproc, duration / SLICES, revalidate)
            }
            None => load::open_loop(
                addr,
                &live.world,
                gen,
                slice_seed,
                duration / SLICES,
                READ_RATE,
                WRITE_RATE,
            ),
        };
        let wall = t0.elapsed();
        let cpu = (sys::cpu_time() - cpu0).saturating_sub(spin.cpu() - spin0);
        let ops = out.completed;
        if table.is_some() {
            let mut probe = load::write_burst(
                addr,
                &live.world,
                gen,
                PROBE_WARM + PROBE_WRITES / SLICES as usize,
            );
            let warm = probe.write_lat.len().min(PROBE_WARM);
            probe.write_lat.drain(..warm);
            out.merge(probe);
        }
        let (read_lat, write_lat) =
            (std::mem::take(&mut out.read_lat), std::mem::take(&mut out.write_lat));
        phase.slices.push(Slice { wall, cpu, ops, read_lat, write_lat });
        phase.out.merge(out);
    }
    phase
}

/// Nearest-rank percentile of nanosecond samples, in ms; sorts in place.
fn percentile_ms(v: &mut [u32], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_unstable();
    let i = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len()) - 1;
    v[i] as f64 / 1e6
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n.is_multiple_of(2) {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    } else {
        v[n / 2]
    }
}

/// Counter and histogram-count values of the global registry, keyed
/// `name{label=value,…}`.
fn counters() -> HashMap<String, f64> {
    telemetry::global()
        .snapshot()
        .into_iter()
        .map(|s| {
            let labels: Vec<String> = s.labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
            let key = if labels.is_empty() {
                s.name
            } else {
                format!("{}{{{}}}", s.name, labels.join(","))
            };
            (key, s.value)
        })
        .collect()
}

/// The end state: every written document's stored bytes (read through
/// the auditor's full view) and, on `read_write`, every reader's view
/// must equal the oracle's after the same committed batches.
fn final_checks(live: &Live, oracle: &Oracle, written: &[usize], out: &mut Outcome) {
    let world = &live.world;
    let mut client = HttpClient::new(live.demo.addr());
    for &doc in written {
        let uri = &world.docs[doc].uri;
        out.attempted += 1;
        let stored = oracle.stored(doc);
        match client.roundtrip(&world.auditor.get(uri, None)) {
            Ok(())
                if client.status == 200
                    && client.body.split(|&b| b == b'\n').next() == Some(stored.as_bytes()) => {}
            Ok(()) => {
                out.fail(format!("final state of {uri}: stored bytes differ from the oracle's"))
            }
            Err(e) => out.fail(format!("final state of {uri}: {e}")),
        }
        if world.workload != Workload::ReadWrite {
            continue;
        }
        for &(d, r) in world.catalog.iter().filter(|&&(d, _)| d == doc) {
            out.attempted += 1;
            let verdict = oracle.expected(d, &world.readers[r]).and_then(|exp| {
                client.roundtrip(&world.readers[r].get(uri, None)).map_err(|e| e.to_string())?;
                check_read(&exp, client.status, client.etag.as_deref(), &client.body, false)
            });
            if let Err(e) = verdict {
                out.fail(format!("final view of {uri} for reader {r}: {e}"));
            }
        }
    }
}

/// Latencies of the replay phase, split by op type and tracing.
#[derive(Default)]
struct ReplayTimes {
    traced: [Vec<u32>; 2],
    untraced: [Vec<u32>; 2],
}

/// The traced phase: a sequential script sent to the live server, each
/// request then run on a twin server in the same state (timing the
/// in-process call) and replayed layer by layer.
#[allow(clippy::too_many_arguments)]
fn replay_phase(
    live: &Live,
    twin: &SecureServer,
    replay: &mut Replay,
    tracer: &mut Tracer,
    table: Option<&ReadTable>,
    gen: &mut WriteGen,
    seed: u64,
    duration: Duration,
    out: &mut Outcome,
) -> ReplayTimes {
    let world = &live.world;
    let mut rng = Rng::new(seed, 3000);
    let mut client = HttpClient::new(live.demo.addr());
    let mut times = ReplayTimes::default();
    let write_share = if table.is_some() { 0.125 } else { WRITE_RATE / (READ_RATE + WRITE_RATE) };
    let end = Instant::now() + duration;
    let mut k = 0u64;
    while Instant::now() < end || !k.is_multiple_of(2 * TRACE_CHUNK) {
        tracer.req = k;
        tracer.on = (k / TRACE_CHUNK) % 2 == 1;
        k += 1;
        let op = if rng.unit() < write_share {
            Op::Write(gen.next_op())
        } else {
            let i = rng.below(world.catalog.len());
            let (doc, reader) = world.catalog[i];
            let revalidate = world.workload == Workload::WarmRead && rng.unit() < REVALIDATE;
            let etag = table.filter(|_| revalidate).map(|t| t.expected[i].etag.clone());
            Op::Read { doc, reader, etag }
        };
        let failed = out.failed;
        let (h0, h1) = send(&mut client, world, &op, out);
        let write = matches!(op, Op::Write(_));
        if out.failed == failed {
            let list = if tracer.on { &mut times.traced } else { &mut times.untraced };
            list[write as usize].push(load::ns(h1 - h0));
        }
        let root = tracer.record(if write { "http.write" } else { "http.read" }, h0, h1, None);
        twin_and_replay(world, twin, replay, tracer, &op, root);
    }
    times
}

/// Runs `op` on the twin server (timed as `server.handle` /
/// `server.update`) and then through the layer replay.
fn twin_and_replay(
    world: &World,
    twin: &SecureServer,
    replay: &mut Replay,
    tracer: &mut Tracer,
    op: &Op,
    root: Option<usize>,
) {
    let cancel = CancelToken::with_timeout(Duration::from_secs(10));
    match op {
        Op::Read { doc, reader, etag } => {
            let client = &world.readers[*reader];
            let req = client.request(&world.docs[*doc].uri);
            let t0 = Instant::now();
            // The epoll loop's cache-only probe, then the worker's full path.
            let (hit, outcome) = match twin.handle_cache_only(&req, etag.as_deref()) {
                Ok(Some(o)) => (true, Some(o)),
                _ => (false, twin.handle_cancellable(&req, etag.as_deref(), Some(&cancel)).ok()),
            };
            tracer.parent = tracer.record("server.handle", t0, Instant::now(), root);
            let twin_etag = outcome.as_ref().map(|o| match o {
                ConditionalOutcome::NotModified { etag } => etag.as_str(),
                ConditionalOutcome::Full(r) => r.etag.as_str(),
            });
            replay.read(tracer, client, *doc, hit, twin_etag);
        }
        Op::Write(w) => {
            let client = if w.intruder { &world.intruder } else { &world.editor };
            let ops = parse_update_ops(&w.body).expect("generated batches parse");
            let req = client.request(&world.docs[w.doc].uri);
            let t0 = Instant::now();
            let committed = twin.update_cancellable(&req, &ops, Some(&cancel)).is_ok();
            tracer.parent = tracer.record("server.update", t0, Instant::now(), root);
            replay.write(tracer, client, w.doc, &ops, committed);
        }
    }
    tracer.parent = None;
}

struct Report {
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }
}

fn json_result(correct: bool, attempted: usize, failed: usize, report: &Report) -> String {
    let mut s = format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{");
    for (i, (name, value, unit)) in report.metrics.iter().enumerate() {
        let v = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            s,
            "{}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}",
            if i > 0 { ", " } else { "" }
        );
    }
    s.push_str("}}");
    s
}

/// Per-op-type breakdown table of the traced requests.
fn trace_summary(bd: &BTreeMap<&'static str, replay::Breakdown>) -> String {
    let mut s = String::new();
    for (op, b) in bd {
        let n = b.ops.max(1) as f64;
        let per = |d: Duration| d.as_secs_f64() * 1e3 / n;
        let _ = writeln!(s, "{op}: {} traced ops, mean ms per op", b.ops);
        let _ = writeln!(s, "  {:<22}{:>10.4}", "e2e", per(b.e2e));
        let _ = writeln!(s, "  {:<22}{:>10.4}", "server.transport", b.transport_ms() / n);
        for (name, d) in &b.layers {
            let _ = writeln!(s, "  {:<22}{:>10.4}", name, per(*d));
        }
        let _ = writeln!(s, "  {:<22}{:>10.4}", "unattributed", b.unattributed_ms() / n);
        let sum = b.transport_ms()
            + b.layers.values().map(|d| d.as_secs_f64() * 1e3).sum::<f64>()
            + b.unattributed_ms();
        let _ = writeln!(s, "  {:<22}{:>10.4}  (= e2e)", "sum", sum / n);
    }
    s
}

/// The per-layer metrics of a traced run: layer self times per traced
/// operation from the spans, and server counts per operation of the
/// counts half.
fn trace_metrics(
    report: &mut Report,
    bd: &BTreeMap<&'static str, replay::Breakdown>,
    st: replay::ReplayStats,
    times: &mut ReplayTimes,
    phase: &Phase,
    before: &HashMap<String, f64>,
    after: &HashMap<String, f64>,
) {
    let (r, w) = (bd.get("http.read"), bd.get("http.write"));
    let n = |b: Option<&replay::Breakdown>| b.map_or(0, |b| b.ops) as f64;
    let total = (n(r) + n(w)).max(1.0);
    let sum = |f: &dyn Fn(&replay::Breakdown) -> f64| r.map_or(0.0, f) + w.map_or(0.0, f);
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    report.add("e2e_ms", sum(&|b| ms(b.e2e)) / total, "ms");
    report.add("e2e_ms.read", r.map_or(0.0, |b| ms(b.e2e)) / n(r).max(1.0), "ms");
    report.add("e2e_ms.write", w.map_or(0.0, |b| ms(b.e2e)) / n(w).max(1.0), "ms");
    report.add("server.transport_ms", sum(&|b| b.transport_ms()) / total, "ms");
    report.add("server.handle_ms", r.map_or(0.0, |b| ms(b.inner)) / total, "ms");
    report.add("server.update_ms", w.map_or(0.0, |b| ms(b.inner)) / total, "ms");
    for layer in LAYERS {
        let v = sum(&|b| b.layers.get(layer).map_or(0.0, |d| ms(*d))) / total;
        report.add(format!("{layer}_ms"), v, "ms");
    }
    report.add("unattributed_ms", sum(&|b| b.unattributed_ms()) / total, "ms");
    report.add(
        "unattributed_ms.read",
        r.map_or(0.0, |b| b.unattributed_ms()) / n(r).max(1.0),
        "ms",
    );
    report.add(
        "unattributed_ms.write",
        w.map_or(0.0, |b| b.unattributed_ms()) / n(w).max(1.0),
        "ms",
    );
    report.add("xml.parse_bytes_per_op", st.parse_bytes as f64 / total, "B/op");
    report.add("core.granted_ratio", st.granted as f64 / (st.labeled.max(1)) as f64, "ratio");

    let delta =
        |k: &str| after.get(k).copied().unwrap_or(0.0) - before.get(k).copied().unwrap_or(0.0);
    let ops = phase.out.completed.max(1) as f64;
    let (hits, misses) =
        (delta("xmlsec_view_cache_hits_total"), delta("xmlsec_view_cache_misses_total"));
    report.add("server.cache_hit_ratio", hits / (hits + misses).max(1.0), "ratio");
    report.add("server.cache_evictions", delta("xmlsec_view_cache_evictions_total") / ops, "1/op");
    report.add(
        "server.views_patched",
        delta("xmlsec_view_patches_total{result=patched}") / ops,
        "1/op",
    );
    report.add(
        "server.views_dropped",
        delta("xmlsec_view_patches_total{result=dropped}") / ops,
        "1/op",
    );
    for v in ["allow", "deny", "dynamic"] {
        let d = delta(&format!("xmlsec_update_static_verdicts_total{{verdict={v}}}"));
        report.add(format!("server.static_verdicts.{v}"), d / ops, "1/op");
    }
    for stage in xmlsec_core::stages::STAGES {
        let d = delta(&format!("xmlsec_pipeline_stage_duration_seconds{{stage={stage}}}"));
        report.add(format!("core.stage_samples.{stage}"), d / ops, "1/op");
    }
    let mut lags = phase.out.lag.clone();
    report.add("loadgen.lag_p99_ms", percentile_ms(&mut lags, 0.99), "ms");
    let mut overhead = |i: usize| {
        let (t, u) = (&mut times.traced[i], &mut times.untraced[i]);
        if t.is_empty() || u.is_empty() {
            0.0
        } else {
            percentile_ms(t, 0.5) / percentile_ms(u, 0.5)
        }
    };
    report.add("trace.overhead_read", overhead(0), "ratio");
    report.add("trace.overhead_write", overhead(1), "ratio");
    report.add("replay.divergent_ops", st.divergent as f64, "count");
}

fn write_trace(args: &Args, tracer: &Tracer, summary: &str) -> std::io::Result<()> {
    let dir = std::path::Path::new(".bench_out");
    std::fs::create_dir_all(dir)?;
    let Some(epoch) = tracer.spans.first().map(|s| s.start) else { return Ok(()) };
    let us = |t: Instant| t.saturating_duration_since(epoch).as_secs_f64() * 1e6;
    let mut tsv = String::from("req\tspan\tparent\tname\tstart_us\tend_us\n");
    for (i, s) in tracer.spans.iter().enumerate() {
        let parent = s.parent.map(|p| p.to_string()).unwrap_or_else(|| "-".into());
        let _ = writeln!(
            tsv,
            "{}\t{i}\t{parent}\t{}\t{:.3}\t{:.3}",
            s.req,
            s.name,
            us(s.start),
            us(s.end)
        );
    }
    let stem = format!("trace-{}-{}", args.name, args.seed);
    std::fs::write(dir.join(format!("{stem}.tsv")), tsv)?;
    std::fs::write(dir.join(format!("{stem}-summary.txt")), summary)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload warm_read|cold_read|read_write --seed N --seconds S --trace 0|1");
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(2);
    let seconds = Duration::from_secs_f64(args.seconds);
    let spin = sys::Spinners::start(nproc);

    // Set-up, repeated; each server is shut down and dropped before the
    // next starts, and the last one stays up for the measurement.
    let mut setup = Vec::new();
    let mut live: Option<Live> = None;
    let mut peak_rss = 0.0;
    for rep in 0..SETUP_REPS {
        if let Some(mut old) = live.take() {
            old.demo.shutdown();
        }
        let t = Instant::now();
        match start(&args, nproc) {
            Ok(l) => live = Some(l),
            Err(e) => {
                eprintln!("perfbench: cannot start the server: {e}");
                std::process::exit(1);
            }
        }
        setup.push(t.elapsed().as_secs_f64());
        if rep == 0 {
            // The footprint of one set-up in a fresh process (corpora,
            // repository, server, views warmed by the fixed warm-up
            // script). Read before the timed window, it does not follow
            // the request rate; read before a second set-up, it does not
            // include the allocator's leftovers of the first.
            peak_rss = sys::peak_rss_mb();
        }
    }
    let mut live = live.expect("at least one set-up");
    let world = &live.world;

    let mut oracle = Oracle::new(world);
    let table = match world.workload {
        Workload::ReadWrite => None,
        _ => {
            let expected: Result<Vec<_>, String> = world
                .catalog
                .iter()
                .map(|&(d, r)| oracle.expected(d, &world.readers[r]))
                .collect();
            match expected {
                Ok(e) => Some(ReadTable::new(world, e)),
                Err(e) => {
                    eprintln!("perfbench: oracle failed: {e}");
                    std::process::exit(1);
                }
            }
        }
    };
    let mut gen = match world.probe_doc {
        Some(_) => WriteGen::probe(world, args.seed),
        None => WriteGen::workload(world, args.seed),
    };

    let mut report = Report { metrics: Vec::new() };
    let mut checks = Outcome::default();
    // Warm-up requests are checked like the rest but not timed.
    let mut log = std::mem::take(&mut live.warm);
    log.read_lat.clear();
    log.write_lat.clear();
    log.lag.clear();
    let phase;
    if !args.trace {
        phase = run_phase(&live, &spin, table.as_ref(), &mut gen, args.seed, nproc, seconds);
    } else {
        let world = &live.world;
        let twin = world.server(true);
        let mut replay = Replay::new(world);
        let mut tracer = Tracer::default();
        for op in warm_plan(world) {
            twin_and_replay(world, &twin, &mut replay, &mut tracer, &op, None);
        }
        let mut times = replay_phase(
            &live,
            &twin,
            &mut replay,
            &mut tracer,
            table.as_ref(),
            &mut gen,
            args.seed,
            seconds / 2,
            &mut log,
        );
        let before = counters();
        phase =
            run_phase(&live, &spin, table.as_ref(), &mut gen, args.seed ^ 0xC0, nproc, seconds / 2);
        let after = counters();
        let bd = replay::breakdown(&tracer.spans);
        let summary = trace_summary(&bd);
        eprint!("{summary}");
        if let Err(e) = write_trace(&args, &tracer, &summary) {
            eprintln!("perfbench: cannot write the trace: {e}");
        }
        trace_metrics(&mut report, &bd, replay.stats, &mut times, &phase, &before, &after);
        // A replay that left the server's path attributes nothing: each
        // divergent request counts as a failed operation.
        let divergent = replay.stats.divergent;
        for _ in 0..divergent {
            log.fail(format!("the layer replay diverged from the twin server on {divergent} ops"));
        }
    }

    // Output checks: the oracle replays every committed batch in order.
    let world = &live.world;
    let Phase { out, mut slices } = phase;
    log.merge(out);
    let (read_fail, write_fail, err) = check_log(&mut oracle, &log.writes, &log.reads);
    for _ in 0..read_fail + write_fail {
        log.fail(err.clone().unwrap_or_default());
    }
    let mut written: Vec<usize> = log.writes.iter().map(|w| w.op.doc).collect();
    written.sort_unstable();
    written.dedup();
    final_checks(&live, &oracle, &written, &mut checks);
    let attempted = log.attempted + checks.attempted;
    let failed = log.failed + checks.failed;
    let correct = failed == 0;

    if !args.trace {
        // Each metric is the median over the slices of its per-slice
        // value, so a few slow or fast slices do not move it.
        let mut per_slice =
            |f: &dyn Fn(&mut Slice) -> f64| median(slices.iter_mut().map(f).collect());
        report.add("throughput_rps", per_slice(&|s| s.ops as f64 / s.wall.as_secs_f64()), "1/s");
        report.add("read_p50_ms", per_slice(&|s| percentile_ms(&mut s.read_lat, 0.5)), "ms");
        report.add("read_p99_ms", per_slice(&|s| percentile_ms(&mut s.read_lat, 0.99)), "ms");
        report.add("write_p50_ms", per_slice(&|s| percentile_ms(&mut s.write_lat, 0.5)), "ms");
        report.add("write_p90_ms", per_slice(&|s| percentile_ms(&mut s.write_lat, 0.9)), "ms");
        report.add(
            "cpu_ms_per_op",
            per_slice(&|s| s.cpu.as_secs_f64() * 1e3 / s.ops.max(1) as f64),
            "ms",
        );
        report.add("setup_s", median(setup.clone()), "s");
    } else {
        report.add("loadgen.error_frac", failed as f64 / attempted.max(1) as f64, "ratio");
    }
    if !args.trace {
        report.add("peak_rss_mb", peak_rss, "MB");
    }
    live.demo.shutdown();
    spin.stop();

    eprintln!(
        "perfbench {} seed {}: sent {attempted}, succeeded {}, failed {failed} ({} reads, {} writes timed); docs {}",
        args.name,
        args.seed,
        attempted - failed,
        slices.iter().map(|s| s.read_lat.len()).sum::<usize>(),
        slices.iter().map(|s| s.write_lat.len()).sum::<usize>(),
        world.docs.len(),
    );
    for msg in [log.first_err.as_ref(), checks.first_err.as_ref()].into_iter().flatten() {
        eprintln!("perfbench: check failed: {msg}");
    }
    for (name, value, unit) in &report.metrics {
        eprintln!("  {name:<36} {value:>14.6} {unit}");
    }
    println!("{}", json_result(correct, attempted, failed, &report));
    if !correct {
        std::process::exit(1);
    }
}
