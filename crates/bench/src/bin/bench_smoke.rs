//! `bench_smoke` — the CI perf-trajectory harness.
//!
//! Runs quick wall-time measurements of the tracked benches — B1 (view
//! computation), B10 (pipeline with telemetry live), B11 (pipeline with
//! the default resource limits enforced), B12 (parallel labeling,
//! sequential vs 4 threads on the hospital corpus), and B13
//! (content-addressed cache churn, and the ETag/If-None-Match 304
//! revalidation path that skips the pipeline), B14 (whole-policy
//! static analysis over the hospital corpus), B15 (compiled vs
//! interpreted labeling on guaranteed-heavy corpora), and B16
//! (cancellation responsiveness: p99 latency from `cancel()` to the
//! pipeline unwinding, and the deadline-check overhead an armed token
//! adds to the uncancelled hot path), B17 (serving-tier concurrency:
//! how many of 64 slow clients the event loop sustains with 2 workers
//! and 2 backlog slots, plus open-loop p50/p99/p999 latency), B18 (incremental secure updates: single-op
//! commit latency, the post-commit read as a patched warm hit vs a
//! cache-less full recompute, and the commit-time patch cost at 1, 4,
//! and 16 warm views), and B19 (the static write pre-flight: a
//! guaranteed-denied batch refused from the compiled write table vs the
//! same denial paid through dynamic write labeling), and B20 (the
//! authorization-object evaluation a served request starts its labeling
//! with), and B21 (the DOM arena: parse, clone and drop of the four
//! `cold_read` document sizes, with allocations counted by this
//! binary's allocator), and B22 (a server view miss on a warm revision
//! of the same four documents: its XPath node visits and allocations)
//! — and writes them as
//! flat JSON at
//! the repo root (`BENCH_<n+1>.json` by default, one past the highest
//! checked-in point, so the series extends without workflow edits) —
//! every PR leaves a perf record the next PR is judged against. The
//! JSON records `available_cores` so conditional gates (B12) are
//! auditable from the artifact alone.
//!
//! Gates (exit non-zero):
//!
//! - any tracked `*_ms` time regresses > 15% against the
//!   highest-numbered `BENCH_*.json` already checked in (skipped when no
//!   baseline exists, and under `XMLSEC_BENCH_NO_GATE=1`, which the
//!   nightly drift job uses to report without failing); the JSON records
//!   whether this gate actually ran (`regression_gated`), so a
//!   baseline-less or opted-out run is visible, not silent;
//! - B12's 4-thread speedup falls below 1.5x — enforced only on
//!   machines with ≥ 4 cores, since 4 workers on one core timeshare it
//!   and the honest measurement there is ~1.0x. The JSON records the
//!   measured speedup, the core count, and whether the gate applied
//!   (`b12_gated`), so a gated-off run is visible, not silent;
//! - B15's compiled-over-interpreted labeling speedup falls below 1.2x
//!   on either corpus (the acceptance target is 2x; the gate is set
//!   conservatively so shared-runner noise does not flake CI);
//! - B16's cancellation p99 latency exceeds 10 ms, or an armed deadline
//!   token slows the uncancelled pipeline by more than 5%;
//! - B17's event loop fails to sustain every one of its 64 concurrent
//!   slow clients — more than `workers + backlog`, the most a server
//!   that pins a worker or a queue slot per connection could hold — or
//!   any open-loop client observes a malformed or untyped-5xx response.
//!   B17's latency keys are *excluded* from the 15% drift gate — they
//!   are tail latencies over real sockets and far too noisy for it; the
//!   sustained count is the stable, gated signal;
//! - B18's post-update warm read (the patched cached view) is less than
//!   3x faster than the cache-less full recompute. B18's in-process
//!   latency keys — including the commit latencies at 1/4/16 warm views,
//!   which bound the per-view patch cost — are folded into the 15% drift
//!   gate like B1/B13;
//! - B20's object-evaluation time is a `*_ms` key in the 15% drift gate;
//! - B19's guaranteed-deny rejection (answered from the compiled write
//!   table, before any parsing or labeling) is less than 5x faster than
//!   the same denial paid through full dynamic write labeling;
//! - B21's parse of any `cold_read` document makes more than 16
//!   allocations, or its DOM holds more than 64 heap bytes per node.
//!   Both are counts, not times, so the gate fires the same on any
//!   runner; B21's times are `_us` keys, outside the drift gate;
//! - B22's view miss on a warm revision makes any XPath node visit (the
//!   revision keeps every object's node set, so a miss evaluates none),
//!   or more than 300 allocations. Counts again; `b22_*_miss_us` is
//!   reported only.
//!
//! Usage: `bench_smoke [--quick] [--out BENCH_3.json]`

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};
use xmlsec_authz::{Action, AuthType, Authorization, ObjectSpec, Sign};
use xmlsec_bench::{
    financial_compiled_scenario, hospital_compiled_scenario, hospital_scenario, lab_scenario,
    run_label_compiled, run_label_interpreted, run_view, run_view_parallel,
};
use xmlsec_core::par::available_cores;
use xmlsec_core::update::UpdateOp;
use xmlsec_core::{
    analyze_policy, closure_subjects, AccessRequest, CancelToken, DocumentSource, PolicyConfig,
    ProcessorOptions, ResourceLimits, SecurityProcessor,
};
use xmlsec_dtd::parse_dtd;
use xmlsec_server::{
    ClientRequest, ConditionalOutcome, HttpConfig, HttpDemo, SecureServer, ServerError,
};
use xmlsec_subjects::Subject;
use xmlsec_workload::hospital::{
    hospital_authorization_base, hospital_authorizations, hospital_directory, hospital_scaled,
    HOSPITAL_DTD, HOSPITAL_DTD_URI, WARD_URI,
};
use xmlsec_workload::laboratory::{
    example1_authorizations, lab_authorization_base, lab_directory, tom, CSLAB_URI, LAB_DTD,
    LAB_DTD_URI,
};
use xmlsec_workload::{run_open_loop, OpenLoopConfig};
use xmlsec_xml::{parse, serialize, SerializeOptions};
use xmlsec_xpath::{eval_path_shared, EvalLimits, SharedBudget};

/// Allowed slowdown vs the checked-in baseline before the gate trips.
const REGRESSION_BUDGET: f64 = 1.15;
/// Required 4-thread speedup on the hospital corpus (machines ≥ 4 cores).
const SPEEDUP_GATE: f64 = 1.5;
/// Required compiled-over-interpreted labeling speedup (B15).
const COMPILE_SPEEDUP_GATE: f64 = 1.2;
/// Ceiling on p99 cancel-to-unwind latency (B16), milliseconds.
const CANCEL_P99_GATE_MS: f64 = 10.0;
/// Ceiling on the slowdown an armed deadline token may add to the
/// uncancelled pipeline (B16), percent.
const DEADLINE_OVERHEAD_GATE_PCT: f64 = 5.0;
/// Required speedup of the post-update warm read (patched cached view)
/// over the cache-less full recompute (B18).
const UPDATE_READ_SPEEDUP_GATE: f64 = 3.0;
/// Required speedup of the static guaranteed-deny rejection over the
/// dynamic write-labeling denial of the same batch (B19).
const DENY_SPEEDUP_GATE: f64 = 5.0;
/// Most allocations one parse of a `cold_read` document may make (B21).
const PARSE_ALLOCS_GATE: u64 = 16;
/// Most heap bytes a parsed `cold_read` document may hold per node (B21).
const BYTES_PER_NODE_GATE: f64 = 64.0;
/// Most XPath node visits a view miss on a warm revision may make (B22).
const WARM_MISS_VISITS_GATE: u64 = 0;
/// Most allocations a view miss on a warm revision may make (B22).
const WARM_MISS_ALLOCS_GATE: u64 = 300;

/// Counts this thread's allocations and the bytes they hold, for B21
/// and B22.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static HELD_BYTES: Cell<i64> = const { Cell::new(0) };
}

fn note(allocations: u64, bytes: i64) {
    // `try_with` fails only while the thread is being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + allocations));
    let _ = HELD_BYTES.try_with(|n| n.set(n.get() + bytes));
}

// SAFETY: every call is forwarded unchanged to the system allocator;
// counting touches only thread-local `Cell`s, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(1, layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(0, -(layout.size() as i64));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(1, new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

struct Config {
    batches: usize,
    iters: usize,
    projects: usize,
    patients: usize,
}

fn median_ms(mut xs: Vec<Duration>) -> f64 {
    xs.sort_unstable();
    xs[xs.len() / 2].as_secs_f64() * 1e3
}

/// Median wall-time (ms) of `iters` runs of `f`, over `batches` batches.
fn time_ms(cfg: &Config, mut f: impl FnMut()) -> f64 {
    for _ in 0..2 {
        f(); // warmup
    }
    let mut batches = Vec::with_capacity(cfg.batches);
    for _ in 0..cfg.batches {
        let t = Instant::now();
        for _ in 0..cfg.iters {
            f();
        }
        batches.push(t.elapsed() / cfg.iters as u32);
    }
    median_ms(batches)
}

fn pipeline_processor(limits: ResourceLimits) -> SecurityProcessor {
    let mut p = SecurityProcessor::new(lab_directory(), lab_authorization_base());
    p.options = ProcessorOptions { limits, ..p.options };
    p
}

fn run_pipeline(
    processor: &SecurityProcessor,
    xml: &str,
    request: &AccessRequest,
    cancel: Option<&CancelToken>,
) -> usize {
    let source = DocumentSource {
        xml,
        dtd: Some(LAB_DTD),
        dtd_uri: Some(LAB_DTD_URI),
        ..Default::default()
    };
    processor
        .process_cancellable(request, &source, cancel)
        .expect("pipeline")
        .xml
        .len()
}

/// A fresh lab-corpus server for the B17 serving-tier measurements
/// (each measurement consumes its own instance).
fn b17_server(projects: usize) -> SecureServer {
    let mut server = SecureServer::new(lab_directory(), lab_authorization_base());
    server.register_credentials("Tom", "pw");
    server.repository_mut().put_dtd(LAB_DTD_URI, LAB_DTD);
    let xml = serialize(
        &xmlsec_workload::laboratory_scaled(projects, 11),
        &SerializeOptions::canonical(),
    );
    server.repository_mut().put_document(CSLAB_URI, &xml, Some(LAB_DTD_URI));
    server
}

/// One warm-up GET so the view cache is hot before measurement.
fn b17_warm(addr: SocketAddr, target: &str) {
    let Ok(mut conn) = TcpStream::connect(addr) else { return };
    let _ = conn.write_all(format!("GET {target} HTTP/1.0\r\nHost: w\r\n\r\n").as_bytes());
    let mut buf = String::new();
    let _ = conn.read_to_string(&mut buf);
}

/// How many of `clients` concurrent *slow* clients (each dribbles its
/// request over ~300 ms) complete with a 200. A server that pinned a
/// worker or a queue slot per in-flight connection would hold at most
/// `workers + backlog` of them and shed the rest; the event loop holds
/// them all.
fn b17_sustained(addr: SocketAddr, clients: usize, target: &str) -> usize {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(move || {
                    let Ok(mut conn) = TcpStream::connect(addr) else { return false };
                    let _ = conn.set_read_timeout(Some(Duration::from_secs(10)));
                    let req = format!("GET {target} HTTP/1.0\r\nHost: b\r\n\r\n");
                    let (head, tail) = req.split_at(10);
                    if conn.write_all(head.as_bytes()).is_err() {
                        return false;
                    }
                    let _ = conn.flush();
                    std::thread::sleep(Duration::from_millis(300));
                    // A shed client's socket may already be closed; the
                    // failed write is its answer.
                    let _ = conn.write_all(tail.as_bytes());
                    let mut buf = String::new();
                    if conn.read_to_string(&mut buf).is_err() {
                        return false;
                    }
                    buf.starts_with("HTTP/1.0 200")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap_or(false)).filter(|&ok| ok).count()
    })
}

/// A lab-corpus server for the B18 incremental-update measurements:
/// Alice holds a recursive write grant on the whole document, Tom reads
/// his usual pruned view. `cached` picks the serving mode under test —
/// patched warm views vs full recomputes.
fn b18_server(projects: usize, cached: bool) -> SecureServer {
    let mut base = lab_authorization_base();
    base.add(
        Authorization::new(
            Subject::new("Alice", "*", "*").expect("subject"),
            ObjectSpec::with_path(CSLAB_URI, "/laboratory").expect("object"),
            Sign::Plus,
            AuthType::Recursive,
        )
        .with_action(Action::Write),
    );
    let mut server = SecureServer::new(lab_directory(), base);
    if !cached {
        server = server.without_cache();
    }
    server.register_credentials("Tom", "pw");
    server.register_credentials("Alice", "pw");
    server.repository_mut().put_dtd(LAB_DTD_URI, LAB_DTD);
    let xml = serialize(
        &xmlsec_workload::laboratory_scaled(projects, 11),
        &SerializeOptions::canonical(),
    );
    server.repository_mut().put_document(CSLAB_URI, &xml, Some(LAB_DTD_URI));
    server
}

fn b18_client(user: &str) -> ClientRequest {
    ClientRequest {
        user: Some((user.to_string(), "pw".to_string())),
        ip: "130.100.50.8".to_string(),
        sym: "infosys.bld1.it".to_string(),
        uri: CSLAB_URI.to_string(),
    }
}

/// Medians over `rounds` commit/read pairs: single-op update latency
/// and the latency of the read that follows each commit. Every op
/// writes a fresh amount so each round genuinely dirties the tree;
/// `salt` keeps the two serving modes from reusing values.
fn b18_measure(server: &SecureServer, salt: usize, rounds: usize, cached: bool) -> (f64, f64) {
    let editor = b18_client("Alice");
    let reader = b18_client("Tom");
    server.handle(&reader).expect("warm the reader's view");
    let mut updates = Vec::with_capacity(rounds);
    let mut reads = Vec::with_capacity(rounds);
    for i in 0..rounds {
        let ops = [UpdateOp::SetText {
            target: "/laboratory/project[1]/fund/amount".to_string(),
            text: format!("{}", 50_000 + salt + i),
        }];
        let t = Instant::now();
        let touched = server.update(&editor, &ops).expect("commit");
        updates.push(t.elapsed());
        assert_eq!(touched, 1, "the single op touches exactly its target");
        let t = Instant::now();
        let view = black_box(server.handle(&reader).expect("post-commit read"));
        reads.push(t.elapsed());
        assert_eq!(view.cached, cached, "serving mode under test");
    }
    (median_ms(updates), median_ms(reads))
}

/// The B18 server plus `readers` extra users, each holding their own
/// instance-level recursive read grant on the lab document. Distinct
/// grants give each reader a distinct applicable-authorization
/// fingerprint — i.e. a distinct warm cached view the commit-time
/// patcher must update in place.
fn b18_patch_server(projects: usize, readers: usize) -> SecureServer {
    let mut dir = lab_directory();
    let mut base = lab_authorization_base();
    base.add(
        Authorization::new(
            Subject::new("Alice", "*", "*").expect("subject"),
            ObjectSpec::with_path(CSLAB_URI, "/laboratory").expect("object"),
            Sign::Plus,
            AuthType::Recursive,
        )
        .with_action(Action::Write),
    );
    for i in 0..readers {
        let name = format!("r{i}");
        dir.add_user(&name).expect("add reader");
        base.add(Authorization::new(
            Subject::new(&name, "*", "*").expect("subject"),
            ObjectSpec::with_path(CSLAB_URI, "/laboratory").expect("object"),
            Sign::Plus,
            AuthType::Recursive,
        ));
    }
    let mut server = SecureServer::new(dir, base);
    server.register_credentials("Alice", "pw");
    for i in 0..readers {
        server.register_credentials(&format!("r{i}"), "pw");
    }
    server.repository_mut().put_dtd(LAB_DTD_URI, LAB_DTD);
    let xml = serialize(
        &xmlsec_workload::laboratory_scaled(projects, 11),
        &SerializeOptions::canonical(),
    );
    server.repository_mut().put_document(CSLAB_URI, &xml, Some(LAB_DTD_URI));
    server
}

/// Median single-op commit latency (ms) with `readers` distinct warm
/// cached views; the commit patches every one of them in place, so the
/// delta across reader counts bounds the per-view patch cost. Asserts
/// the views really were patched (still warm), not evicted.
fn b18_patch_ms(projects: usize, readers: usize, rounds: usize) -> f64 {
    let server = b18_patch_server(projects, readers);
    let editor = b18_client("Alice");
    for i in 0..readers {
        server.handle(&b18_client(&format!("r{i}"))).expect("warm a reader view");
    }
    let mut times = Vec::with_capacity(rounds);
    for i in 0..rounds + 2 {
        let ops = [UpdateOp::SetText {
            target: "/laboratory/project[1]/fund/amount".to_string(),
            text: format!("{}", 90_000 + readers * 1_000_000 + i),
        }];
        let t = Instant::now();
        server.update(&editor, &ops).expect("commit");
        if i >= 2 {
            times.push(t.elapsed()); // first two rounds are warmup
        }
    }
    for i in 0..readers {
        let view = server.handle(&b18_client(&format!("r{i}"))).expect("post-commit read");
        assert!(view.cached, "reader {i}'s view should have been patched in place");
    }
    median_ms(times)
}

/// Median latency (ms) of `rounds` denied single-op batches from a
/// requester holding no write authorization. `expect_static` asserts
/// which denial machinery actually answered, so the bench measures what
/// it claims: the compiled-table pre-flight vs full dynamic labeling.
fn b19_deny_ms(server: &SecureServer, rounds: usize, expect_static: bool) -> f64 {
    let intruder = b18_client("Tom");
    let ops = [UpdateOp::SetText {
        target: "/laboratory/project[1]/fund/amount".to_string(),
        text: "stolen".to_string(),
    }];
    let mut times = Vec::with_capacity(rounds);
    for i in 0..rounds + 2 {
        let t = Instant::now();
        let err = server.update(&intruder, &ops).expect_err("Tom holds no write grant");
        let elapsed = t.elapsed();
        match (&err, expect_static) {
            (ServerError::UpdateDeniedStatic { .. }, true) => {}
            (ServerError::UpdateDenied(_), false) => {}
            _ => panic!("unexpected denial path (expect_static={expect_static}): {err:?}"),
        }
        if i >= 2 {
            times.push(elapsed); // first two rounds are warmup
        }
    }
    median_ms(times)
}

/// Parses the flat one-level JSON this tool writes: string and numeric
/// fields only, no nesting, no escapes beyond what we emit. Returns the
/// numeric fields.
fn parse_flat_json(text: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let body = text.trim().trim_start_matches('{').trim_end_matches('}');
    for field in body.split(',') {
        let Some((key, value)) = field.split_once(':') else { continue };
        let key = key.trim().trim_matches('"').to_string();
        if let Ok(v) = value.trim().parse::<f64>() {
            out.push((key, v));
        }
    }
    out
}

/// Every `BENCH_<n>.json` in the working directory.
fn bench_files() -> Vec<(u64, std::path::PathBuf)> {
    let Ok(dir) = std::fs::read_dir(".") else { return Vec::new() };
    let mut out = Vec::new();
    for entry in dir.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        let Some(n) = name.strip_prefix("BENCH_").and_then(|s| s.strip_suffix(".json")) else {
            continue;
        };
        if let Ok(n) = n.parse::<u64>() {
            out.push((n, entry.path()));
        }
    }
    out.sort();
    out
}

/// The checked-in `BENCH_<n>.json` with the highest `n`, excluding the
/// file this run writes.
fn baseline_path(out: &str) -> Option<std::path::PathBuf> {
    bench_files()
        .into_iter()
        .filter(|(_, p)| p.file_name().map(|f| f.to_string_lossy() != out).unwrap_or(true))
        .max_by_key(|(n, _)| *n)
        .map(|(_, p)| p)
}

/// Default output name: one past the highest checked-in trajectory
/// point, so CI keeps extending the series without workflow edits.
fn next_out() -> String {
    let next = bench_files().last().map(|(n, _)| n + 1).unwrap_or(1);
    format!("BENCH_{next}.json")
}

/// B20 — every object of the Example 1 laboratory policy and of the
/// hospital policy, evaluated with `eval_path_shared` over 192-unit
/// documents. Each document's objects draw from one pool polling an armed
/// 10 s token, as a served request's labeling does.
fn b20_object_eval_ms(cfg: &Config) -> f64 {
    let corpora = [
        (xmlsec_workload::laboratory_scaled(192, 5), example1_authorizations()),
        (hospital_scaled(192, 0xB12), hospital_authorizations()),
    ];
    let limits = EvalLimits::default();
    time_ms(cfg, || {
        for (doc, auths) in &corpora {
            let token = CancelToken::with_timeout(Duration::from_secs(10));
            let pool = SharedBudget::with_cancel(limits.max_node_visits, token);
            for path in auths.iter().filter_map(|a| a.object.path.as_ref()) {
                let nodes = eval_path_shared(doc, doc.root(), path, &limits, &pool);
                black_box(nodes.expect("objects evaluate within the default budget"));
            }
        }
    })
}

/// B21 measurements of one `cold_read` document.
struct DomStages {
    name: &'static str,
    nodes: usize,
    parse_us: f64,
    clone_us: f64,
    drop_us: f64,
    parse_allocs: u64,
    bytes_per_node: f64,
}

/// B21 — the DOM arena on the four `cold_read` document sizes (48- and
/// 192-unit laboratory and ward documents): median µs per parse, clone
/// and drop, plus the allocations one parse makes and the heap bytes
/// its document holds per node, from this binary's counting allocator.
fn b21_dom(cfg: &Config) -> Vec<DomStages> {
    let docs = [
        ("lab48", xmlsec_workload::laboratory_scaled(48, 21)),
        ("lab192", xmlsec_workload::laboratory_scaled(192, 21)),
        ("ward48", hospital_scaled(48, 21)),
        ("ward192", hospital_scaled(192, 21)),
    ];
    let us = |ms: f64| ms * 1e3;
    docs.iter()
        .map(|(name, doc)| {
            let xml = serialize(doc, &SerializeOptions::canonical());
            let parse_us = us(time_ms(cfg, || {
                black_box(parse(&xml).expect("generated XML parses"));
            }));
            let (a0, b0) = (ALLOCATIONS.with(Cell::get), HELD_BYTES.with(Cell::get));
            let parsed = parse(&xml).expect("generated XML parses");
            let (a1, b1) = (ALLOCATIONS.with(Cell::get), HELD_BYTES.with(Cell::get));
            // Clone and drop timed apart, each copy freed before the next
            // is made, as a commit frees the revision it replaces.
            let (mut clones, mut drops) = (Vec::new(), Vec::new());
            for _ in 0..cfg.batches {
                let (mut clone, mut dropped) = (Duration::ZERO, Duration::ZERO);
                for _ in 0..cfg.iters {
                    let t = Instant::now();
                    let copy = black_box(parsed.clone());
                    let t1 = Instant::now();
                    drop(copy);
                    dropped += t1.elapsed();
                    clone += t1 - t;
                }
                clones.push(clone / cfg.iters as u32);
                drops.push(dropped / cfg.iters as u32);
            }
            DomStages {
                name,
                nodes: parsed.arena_len(),
                parse_us,
                clone_us: us(median_ms(clones)),
                drop_us: us(median_ms(drops)),
                parse_allocs: a1 - a0,
                bytes_per_node: (b1 - b0) as f64 / parsed.arena_len() as f64,
            }
        })
        .collect()
}

/// B22 measurements of one `cold_read` document.
struct WarmMiss {
    name: &'static str,
    visits: u64,
    allocs: u64,
    miss_us: f64,
}

/// B22 — a view miss on a warm revision of each `cold_read` document
/// size: a cache-less server has parsed the revision and served one
/// miss on it, so the revision keeps its DOM and every object's node
/// set. Counts the XPath node visits (from the telemetry counter) and
/// the allocations (from this binary's counting allocator) of the worst
/// of several further misses, and times one.
fn b22_warm_miss(cfg: &Config) -> Vec<WarmMiss> {
    let lab = |units: usize| {
        let mut s = SecureServer::new(lab_directory(), lab_authorization_base()).without_cache();
        s.repository_mut().put_dtd(LAB_DTD_URI, LAB_DTD);
        let xml = serialize(
            &xmlsec_workload::laboratory_scaled(units, 21),
            &SerializeOptions::canonical(),
        );
        s.repository_mut().put_document(CSLAB_URI, &xml, Some(LAB_DTD_URI));
        (s, "Tom", CSLAB_URI)
    };
    let ward = |units: usize| {
        let mut s =
            SecureServer::new(hospital_directory(), hospital_authorization_base()).without_cache();
        s.repository_mut().put_dtd(HOSPITAL_DTD_URI, HOSPITAL_DTD);
        let xml = serialize(&hospital_scaled(units, 21), &SerializeOptions::canonical());
        s.repository_mut().put_document(WARD_URI, &xml, Some(HOSPITAL_DTD_URI));
        (s, "hale", WARD_URI)
    };
    let visits = xmlsec_telemetry::global().counter(
        "xmlsec_xpath_node_visits_total",
        "Context nodes expanded across all evaluation steps.",
        &[],
    );
    let servers =
        [("lab48", lab(48)), ("lab192", lab(192)), ("ward48", ward(48)), ("ward192", ward(192))];
    servers
        .into_iter()
        .map(|(name, (mut server, user, uri))| {
            server.register_credentials(user, "pw");
            let client = ClientRequest {
                user: Some((user.to_string(), "pw".to_string())),
                ip: "130.100.50.8".to_string(),
                sym: "infosys.bld1.it".to_string(),
                uri: uri.to_string(),
            };
            let miss = || {
                let view = server.handle(&client).expect("view");
                assert!(!view.cached, "a cache-less server misses");
                black_box(view);
            };
            miss();
            let (mut worst_visits, mut worst_allocs) = (0, 0);
            for _ in 0..5 {
                let (v0, a0) = (visits.get(), ALLOCATIONS.with(Cell::get));
                miss();
                let (v1, a1) = (visits.get(), ALLOCATIONS.with(Cell::get));
                worst_visits = worst_visits.max(v1 - v0);
                worst_allocs = worst_allocs.max(a1 - a0);
            }
            let miss_us = time_ms(cfg, miss) * 1e3;
            WarmMiss { name, visits: worst_visits, allocs: worst_allocs, miss_us }
        })
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(next_out);
    let no_gate = std::env::var_os("XMLSEC_BENCH_NO_GATE").is_some();
    let cfg = if quick {
        Config { batches: 3, iters: 5, projects: 32, patients: 300 }
    } else {
        Config { batches: 7, iters: 15, projects: 64, patients: 1200 }
    };
    let cores = available_cores();
    eprintln!(
        "bench_smoke: {} batches x {} iters, {} cores, quick={quick} -> {out}",
        cfg.batches, cfg.iters, cores
    );

    // B1 — core view computation on the scaled laboratory.
    let lab = lab_scenario(cfg.projects);
    let b1_view_ms = time_ms(&cfg, || {
        black_box(run_view(&lab));
    });
    eprintln!("  b1_view_ms = {b1_view_ms:.3}");

    // B10 — full pipeline with telemetry recording live (the default).
    let doc = xmlsec_workload::laboratory_scaled(cfg.projects, 5);
    let xml = serialize(&doc, &SerializeOptions::canonical());
    let request = AccessRequest { requester: tom(), uri: CSLAB_URI.to_string() };
    let unlimited = pipeline_processor(ResourceLimits::unlimited());
    let b10_pipeline_ms = time_ms(&cfg, || {
        black_box(run_pipeline(&unlimited, &xml, &request, None));
    });
    eprintln!("  b10_pipeline_ms = {b10_pipeline_ms:.3}");

    // B11 — the same pipeline with every default resource cap enforced.
    let limited = pipeline_processor(ResourceLimits::default_limits());
    let b11_limits_ms = time_ms(&cfg, || {
        black_box(run_pipeline(&limited, &xml, &request, None));
    });
    eprintln!("  b11_limits_ms = {b11_limits_ms:.3}");

    // B12 — parallel labeling on the hospital corpus, 1 vs 4 threads.
    let hospital = hospital_scenario(cfg.patients);
    let want = run_view_parallel(&hospital, 1);
    let b12_seq_ms = time_ms(&cfg, || {
        assert_eq!(black_box(run_view_parallel(&hospital, 1)), want);
    });
    let b12_par4_ms = time_ms(&cfg, || {
        assert_eq!(black_box(run_view_parallel(&hospital, 4)), want);
    });
    let b12_speedup_4t = b12_seq_ms / b12_par4_ms.max(1e-9);
    let b12_gated = cores >= 4 && !no_gate;
    eprintln!(
        "  b12_seq_ms = {b12_seq_ms:.3}  b12_par4_ms = {b12_par4_ms:.3}  speedup {b12_speedup_4t:.2}x (gate {})",
        if b12_gated { "live" } else { "off" }
    );

    // B13 — content-addressed cache churn and conditional revalidation
    // through the full secure server.
    let mut server = SecureServer::new(lab_directory(), lab_authorization_base());
    server.register_credentials("Tom", "pw");
    server.repository_mut().put_dtd(LAB_DTD_URI, LAB_DTD);
    let variants = [
        serialize(
            &xmlsec_workload::laboratory_scaled(cfg.projects, 11),
            &SerializeOptions::canonical(),
        ),
        serialize(
            &xmlsec_workload::laboratory_scaled(cfg.projects, 12),
            &SerializeOptions::canonical(),
        ),
    ];
    let client = ClientRequest {
        user: Some(("Tom".to_string(), "pw".to_string())),
        ip: "130.100.50.8".to_string(),
        sym: "infosys.bld1.it".to_string(),
        uri: CSLAB_URI.to_string(),
    };
    // Churn: mutate stored content (rehash), miss on the moved key
    // (sweeping the stale twin), re-render, then hit the fresh entry.
    let mut flip = 0usize;
    let b13_churn_ms = time_ms(&cfg, || {
        flip ^= 1;
        server
            .repository_mut()
            .put_document(CSLAB_URI, &variants[flip], Some(LAB_DTD_URI));
        let miss = server.handle(&client).expect("serve after mutation");
        assert!(!miss.cached, "content change must miss");
        let hit = server.handle(&client).expect("serve warm");
        assert!(hit.cached, "second request must hit");
    });
    eprintln!("  b13_churn_ms = {b13_churn_ms:.3}");
    // 304 path: a matching If-None-Match answers from the warm cache
    // without touching the pipeline or rendering a body.
    let etag = server.handle(&client).expect("warm").etag;
    let inm = format!("\"{etag}\"");
    let b13_not_modified_ms = time_ms(&cfg, || {
        match server.handle_conditional(&client, Some(&inm)).expect("revalidate") {
            ConditionalOutcome::NotModified { .. } => {}
            ConditionalOutcome::Full(_) => panic!("expected 304"),
        }
    });
    eprintln!("  b13_not_modified_ms = {b13_not_modified_ms:.5}");

    // B14 — whole-policy static analysis on the hospital corpus: the
    // schema-level abstract interpretation over every closure subject.
    let hospital_dtd = parse_dtd(xmlsec_workload::hospital::HOSPITAL_DTD).expect("hospital DTD");
    let hospital_auths = xmlsec_workload::hospital::hospital_authorizations();
    let hospital_dir = xmlsec_workload::hospital::hospital_directory();
    let b14_analyze_ms = time_ms(&cfg, || {
        let subjects = closure_subjects(&hospital_auths, &hospital_dir);
        black_box(analyze_policy(
            &hospital_dtd,
            "ward",
            xmlsec_workload::hospital::HOSPITAL_DTD_URI,
            &hospital_auths,
            &hospital_dir,
            PolicyConfig::paper_default(),
            &subjects,
        ));
    });
    eprintln!("  b14_analyze_ms = {b14_analyze_ms:.3}");

    // B15 — compiled vs interpreted labeling on the guaranteed-heavy
    // corpora (omar's ward view, tina's branch statements view). The
    // policy is compiled once, outside the timing loop — the table is
    // cached across requests in production — and both constructors
    // assert the whole-document fast path, so the compiled runner
    // measures table-driven labeling, not a partial fallback.
    let hosp = hospital_compiled_scenario(cfg.patients);
    let fin = financial_compiled_scenario(cfg.patients);
    let hosp_want = run_label_interpreted(&hosp.scenario);
    let fin_want = run_label_interpreted(&fin.scenario);
    let b15_hosp_interp_ms = time_ms(&cfg, || {
        assert_eq!(black_box(run_label_interpreted(&hosp.scenario)), hosp_want);
    });
    let b15_hosp_compiled_ms = time_ms(&cfg, || {
        assert_eq!(black_box(run_label_compiled(&hosp)), hosp_want);
    });
    let b15_fin_interp_ms = time_ms(&cfg, || {
        assert_eq!(black_box(run_label_interpreted(&fin.scenario)), fin_want);
    });
    let b15_fin_compiled_ms = time_ms(&cfg, || {
        assert_eq!(black_box(run_label_compiled(&fin)), fin_want);
    });
    let b15_hosp_speedup = b15_hosp_interp_ms / b15_hosp_compiled_ms.max(1e-9);
    let b15_fin_speedup = b15_fin_interp_ms / b15_fin_compiled_ms.max(1e-9);
    eprintln!(
        "  b15 hospital: {b15_hosp_interp_ms:.3}ms interpreted vs {b15_hosp_compiled_ms:.3}ms \
         compiled ({b15_hosp_speedup:.2}x)"
    );
    eprintln!(
        "  b15 financial: {b15_fin_interp_ms:.3}ms interpreted vs {b15_fin_compiled_ms:.3}ms \
         compiled ({b15_fin_speedup:.2}x)"
    );

    // B16 — cancellation responsiveness. Start the full pipeline on a
    // worker thread, trip the token partway through the (known) median
    // runtime, and measure cancel() → unwind. p99 over the samples must
    // land under the gate: cancellation is only useful if it frees the
    // worker promptly.
    let b16_samples = if quick { 20 } else { 50 };
    let cancel_delay = Duration::from_secs_f64((b10_pipeline_ms * 0.4 / 1e3).max(2e-4));
    let mut cancel_latencies: Vec<Duration> = Vec::with_capacity(b16_samples);
    for _ in 0..b16_samples {
        let p = pipeline_processor(ResourceLimits::unlimited());
        let token = CancelToken::never();
        let token_ref = &token;
        let (xml_ref, request_ref) = (&xml, &request);
        std::thread::scope(|scope| {
            let worker = scope.spawn(move || {
                let source = DocumentSource {
                    xml: xml_ref,
                    dtd: Some(LAB_DTD),
                    dtd_uri: Some(LAB_DTD_URI),
                    ..Default::default()
                };
                let out = p.process_cancellable(request_ref, &source, Some(token_ref));
                matches!(out, Err(e) if e.is_cancelled())
            });
            std::thread::sleep(cancel_delay);
            let t = Instant::now();
            token.cancel();
            let was_cancelled = worker.join().expect("B16 worker");
            // Runs that beat the cancel to the finish line measure
            // nothing; only genuinely interrupted runs count.
            if was_cancelled {
                cancel_latencies.push(t.elapsed());
            }
        });
    }
    cancel_latencies.sort_unstable();
    let b16_cancelled_runs = cancel_latencies.len();
    let b16_cancel_p99_ms = cancel_latencies
        .get((b16_cancelled_runs * 99 / 100).min(b16_cancelled_runs.saturating_sub(1)))
        .map(|d| d.as_secs_f64() * 1e3)
        .unwrap_or(0.0);
    // Overhead of an armed-but-unmet deadline on the hot path: the same
    // pipeline as B10, but every request mints a real wall-clock token
    // (the production server pattern).
    let deadline_proc = pipeline_processor(ResourceLimits::unlimited());
    let b16_deadline_pipeline_ms = time_ms(&cfg, || {
        let token = CancelToken::with_timeout(Duration::from_secs(300));
        black_box(run_pipeline(&deadline_proc, &xml, &request, Some(&token)));
    });
    let b16_overhead_pct = (b16_deadline_pipeline_ms / b10_pipeline_ms.max(1e-9) - 1.0) * 100.0;
    eprintln!(
        "  b16 cancel p99 = {b16_cancel_p99_ms:.3}ms over {b16_cancelled_runs}/{b16_samples} \
         interrupted runs; armed-deadline pipeline {b16_deadline_pipeline_ms:.3}ms \
         ({b16_overhead_pct:+.2}% vs B10)"
    );

    // B17 — serving-tier concurrency and open-loop tail latency over
    // real sockets.
    //
    // (a) Concurrent-connection capacity: 64 slow clients dribble their
    // requests against workers=2/backlog=2. A server that pinned a
    // worker or a queue slot per in-flight connection would complete
    // only workers+backlog of them; the event loop must hold all.
    let b17_target = format!("/{CSLAB_URI}?user=Tom&pass=pw&ip=130.100.50.8&host=infosys.bld1.it");
    let b17_clients = 64usize;
    let cap_cfg = HttpConfig { workers: 2, backlog: 2, ..Default::default() };
    let b17_pinned_ceiling = cap_cfg.workers + cap_cfg.backlog;
    let mut demo = HttpDemo::start_with(b17_server(cfg.projects), "127.0.0.1:0", cap_cfg)
        .expect("bind B17 capacity server");
    b17_warm(demo.addr(), &b17_target);
    let b17_epoll_sustained = b17_sustained(demo.addr(), b17_clients, &b17_target);
    demo.shutdown();
    eprintln!(
        "  b17 sustained slow clients: {b17_epoll_sustained}/{b17_clients} \
         (a per-connection ceiling would hold {b17_pinned_ceiling})"
    );

    // (b) Open-loop tail latency: a fixed arrival schedule (not
    // closed-loop) of warm hits, 304 revalidations, cache-miss queries
    // and slow clients. Departures do not wait for completions, so
    // queueing behind a backlogged server is measured instead of hidden
    // (no coordinated omission).
    let ol_cfg = OpenLoopConfig {
        seed: 0xB17,
        requests: if quick { 150 } else { 400 },
        rate: 250.0,
        ..Default::default()
    };
    let mut demo =
        HttpDemo::start_with(b17_server(cfg.projects), "127.0.0.1:0", HttpConfig::default())
            .expect("bind B17 open-loop server");
    let ol_report =
        run_open_loop(demo.addr(), &OpenLoopConfig { view_target: b17_target, ..ol_cfg });
    demo.shutdown();
    eprintln!(
        "  b17: {} answered at {:.0} rps, p50 {:.3}ms p99 {:.3}ms p999 {:.3}ms \
         (shed {}, aborted {}, malformed {})",
        ol_report.answered(),
        ol_report.throughput(),
        ol_report.percentile(0.5).as_secs_f64() * 1e3,
        ol_report.percentile(0.99).as_secs_f64() * 1e3,
        ol_report.percentile(0.999).as_secs_f64() * 1e3,
        ol_report.shed,
        ol_report.aborted,
        ol_report.malformed,
    );
    let p_ms = |q: f64| ol_report.percentile(q).as_secs_f64() * 1e3;
    let (b17_epoll_p50_ms, b17_epoll_p99_ms, b17_epoll_p999_ms) =
        (p_ms(0.5), p_ms(0.99), p_ms(0.999));
    let b17_epoll_rps = ol_report.throughput();

    // B18 — incremental secure updates. Single-op commit latency
    // (incremental relabel + in-place view patching), and the read that
    // follows each commit: a patched warm hit on the caching server vs
    // a full recompute on the cache-less one. The speedup of that
    // post-update read is the point of the incremental machinery.
    let b18_rounds = cfg.batches * cfg.iters;
    let warm_server = b18_server(cfg.projects, true);
    let (b18_update_ms, b18_warm_read_ms) = b18_measure(&warm_server, 0, b18_rounds, true);
    let cold_server = b18_server(cfg.projects, false);
    let (_, b18_recompute_read_ms) = b18_measure(&cold_server, 1_000_000, b18_rounds, false);
    let b18_read_speedup = b18_recompute_read_ms / b18_warm_read_ms.max(1e-9);
    eprintln!(
        "  b18_update_ms = {b18_update_ms:.4}  warm read {b18_warm_read_ms:.4}ms vs recompute \
         {b18_recompute_read_ms:.4}ms ({b18_read_speedup:.1}x)"
    );
    // Commit latency as the warm-view population grows: the commit
    // patches every warm view for the URI in place, so these medians
    // bound the per-view patch cost.
    let b18_patch_1_ms = b18_patch_ms(cfg.projects, 1, b18_rounds);
    let b18_patch_4_ms = b18_patch_ms(cfg.projects, 4, b18_rounds);
    let b18_patch_16_ms = b18_patch_ms(cfg.projects, 16, b18_rounds);
    eprintln!(
        "  b18 patch cost: commit at 1 warm view {b18_patch_1_ms:.4}ms, 4 views \
         {b18_patch_4_ms:.4}ms, 16 views {b18_patch_16_ms:.4}ms"
    );

    // B19 — static write pre-flight. Tom holds no write authorization,
    // so his compiled write table is unwritable and the pre-flight
    // refuses the batch in O(ops) before parsing or labeling anything;
    // the same server with the pre-flight disabled pays full dynamic
    // write labeling to reach the identical 403.
    let b19_static_server = b18_server(cfg.projects, true);
    let b19_static_deny_ms = b19_deny_ms(&b19_static_server, b18_rounds, true);
    let b19_dynamic_server = b18_server(cfg.projects, true).without_static_preflight();
    let b19_dynamic_deny_ms = b19_deny_ms(&b19_dynamic_server, b18_rounds, false);
    let b19_deny_speedup = b19_dynamic_deny_ms / b19_static_deny_ms.max(1e-9);
    eprintln!(
        "  b19 guaranteed-deny: static {b19_static_deny_ms:.4}ms vs dynamic \
         {b19_dynamic_deny_ms:.4}ms ({b19_deny_speedup:.1}x)"
    );

    // B20 — authorization-object evaluation, the first stage of labeling.
    let b20_object_eval_ms = b20_object_eval_ms(&cfg);
    eprintln!("  b20_object_eval_ms = {b20_object_eval_ms:.4}");

    // B21 — the DOM arena: parse, clone and drop per document size.
    let b21 = b21_dom(&cfg);
    for d in &b21 {
        let per_node = |us: f64| us * 1e3 / d.nodes as f64;
        eprintln!(
            "  b21 {}: {} nodes, parse {:.1}us ({:.0}ns/node, {} allocs), clone {:.1}us \
             ({:.1}ns/node), drop {:.2}us, {:.1} B/node",
            d.name,
            d.nodes,
            d.parse_us,
            per_node(d.parse_us),
            d.parse_allocs,
            d.clone_us,
            per_node(d.clone_us),
            d.drop_us,
            d.bytes_per_node,
        );
    }
    let b21_json: String = b21
        .iter()
        .map(|d| {
            format!(
                "  \"b21_{n}_parse_us\": {:.2},\n  \"b21_{n}_clone_us\": {:.2},\n  \
                 \"b21_{n}_drop_us\": {:.3},\n  \"b21_{n}_parse_allocs\": {},\n  \
                 \"b21_{n}_bytes_per_node\": {:.2},\n",
                d.parse_us,
                d.clone_us,
                d.drop_us,
                d.parse_allocs,
                d.bytes_per_node,
                n = d.name,
            )
        })
        .collect();

    // B22 — a view miss on a warm revision, per document size.
    let b22 = b22_warm_miss(&cfg);
    for m in &b22 {
        eprintln!(
            "  b22 {}: warm miss {:.1}us, {} XPath node visits, {} allocations",
            m.name, m.miss_us, m.visits, m.allocs
        );
    }
    let b22_json: String = b22
        .iter()
        .map(|m| {
            format!(
                "  \"b22_{n}_miss_us\": {:.2},\n  \"b22_{n}_miss_visits\": {},\n  \
                 \"b22_{n}_miss_allocs\": {},\n",
                m.miss_us,
                m.visits,
                m.allocs,
                n = m.name,
            )
        })
        .collect();

    let regression_gated = !no_gate && baseline_path(&out).is_some();

    let json = format!(
        "{{\n  \"bench\": \"bench_smoke\",\n  \"quick\": {quick},\n  \"cores\": {cores},\n  \
         \"available_cores\": {cores},\n  \
         \"b1_view_ms\": {b1_view_ms:.4},\n  \"b10_pipeline_ms\": {b10_pipeline_ms:.4},\n  \
         \"b11_limits_ms\": {b11_limits_ms:.4},\n  \"b12_seq_ms\": {b12_seq_ms:.4},\n  \
         \"b12_par4_ms\": {b12_par4_ms:.4},\n  \"b12_speedup_4t\": {b12_speedup_4t:.4},\n  \
         \"b12_gated\": {},\n  \"b13_churn_ms\": {b13_churn_ms:.4},\n  \
         \"b13_not_modified_ms\": {b13_not_modified_ms:.5},\n  \
         \"b14_analyze_ms\": {b14_analyze_ms:.4},\n  \
         \"b15_hosp_interp_ms\": {b15_hosp_interp_ms:.4},\n  \
         \"b15_hosp_compiled_ms\": {b15_hosp_compiled_ms:.4},\n  \
         \"b15_hosp_speedup\": {b15_hosp_speedup:.4},\n  \
         \"b15_fin_interp_ms\": {b15_fin_interp_ms:.4},\n  \
         \"b15_fin_compiled_ms\": {b15_fin_compiled_ms:.4},\n  \
         \"b15_fin_speedup\": {b15_fin_speedup:.4},\n  \
         \"b16_cancel_p99_ms\": {b16_cancel_p99_ms:.4},\n  \
         \"b16_cancelled_runs\": {b16_cancelled_runs},\n  \
         \"b16_deadline_pipeline_ms\": {b16_deadline_pipeline_ms:.4},\n  \
         \"b16_overhead_pct\": {b16_overhead_pct:.4},\n  \
         \"b17_clients\": {b17_clients},\n  \
         \"b17_pinned_ceiling\": {b17_pinned_ceiling},\n  \
         \"b17_epoll_sustained\": {b17_epoll_sustained},\n  \
         \"b17_epoll_p50_ms\": {b17_epoll_p50_ms:.4},\n  \
         \"b17_epoll_p99_ms\": {b17_epoll_p99_ms:.4},\n  \
         \"b17_epoll_p999_ms\": {b17_epoll_p999_ms:.4},\n  \
         \"b17_epoll_rps\": {b17_epoll_rps:.2},\n  \
         \"b18_update_ms\": {b18_update_ms:.4},\n  \
         \"b18_warm_read_ms\": {b18_warm_read_ms:.5},\n  \
         \"b18_recompute_read_ms\": {b18_recompute_read_ms:.4},\n  \
         \"b18_read_speedup\": {b18_read_speedup:.4},\n  \
         \"b18_patch_1_ms\": {b18_patch_1_ms:.4},\n  \
         \"b18_patch_4_ms\": {b18_patch_4_ms:.4},\n  \
         \"b18_patch_16_ms\": {b18_patch_16_ms:.4},\n  \
         \"b19_static_deny_ms\": {b19_static_deny_ms:.5},\n  \
         \"b20_object_eval_ms\": {b20_object_eval_ms:.4},\n  \
         \"b19_dynamic_deny_ms\": {b19_dynamic_deny_ms:.4},\n  \
         \"b19_deny_speedup\": {b19_deny_speedup:.4},\n\
         {b21_json}{b22_json}  \
         \"regression_gated\": {}\n}}\n",
        if b12_gated { 1 } else { 0 },
        if regression_gated { 1 } else { 0 },
    );
    std::fs::write(&out, &json).expect("write bench JSON");
    eprintln!("wrote {out}");

    let mut failures: Vec<String> = Vec::new();

    // Regression gate vs the previously checked-in trajectory point.
    match baseline_path(&out) {
        Some(path) if !no_gate => {
            let text = std::fs::read_to_string(&path).expect("read baseline");
            let old = parse_flat_json(&text);
            let new = parse_flat_json(&json);
            for (key, new_v) in &new {
                // B17's open-loop latencies are tails over real sockets
                // — far too noisy for a 15% drift gate; B17 is gated on
                // the sustained slow-client count below instead.
                if !key.ends_with("_ms") || key.starts_with("b17_") {
                    continue;
                }
                let Some((_, old_v)) = old.iter().find(|(k, _)| k == key) else { continue };
                let ratio = new_v / old_v.max(1e-9);
                if ratio > REGRESSION_BUDGET {
                    failures.push(format!(
                        "{key} regressed {:.1}% vs {} ({old_v:.3}ms -> {new_v:.3}ms)",
                        (ratio - 1.0) * 100.0,
                        path.display()
                    ));
                } else {
                    eprintln!("  {key}: {ratio:.3}x vs baseline (ok)");
                }
            }
        }
        Some(path) => eprintln!("baseline {} present but gating disabled", path.display()),
        None => eprintln!("no earlier BENCH_*.json baseline; regression gate skipped"),
    }

    if b12_gated && b12_speedup_4t < SPEEDUP_GATE {
        failures.push(format!(
            "B12 4-thread speedup {b12_speedup_4t:.2}x is below the {SPEEDUP_GATE}x gate \
             ({cores} cores)"
        ));
    }

    if !no_gate {
        for (corpus, speedup) in [("hospital", b15_hosp_speedup), ("financial", b15_fin_speedup)] {
            if speedup < COMPILE_SPEEDUP_GATE {
                failures.push(format!(
                    "B15 compiled labeling speedup on {corpus} is {speedup:.2}x, below the \
                     {COMPILE_SPEEDUP_GATE}x gate"
                ));
            }
        }
    }

    if !no_gate {
        if b16_cancelled_runs > 0 && b16_cancel_p99_ms > CANCEL_P99_GATE_MS {
            failures.push(format!(
                "B16 cancellation p99 latency {b16_cancel_p99_ms:.2}ms exceeds the \
                 {CANCEL_P99_GATE_MS}ms gate"
            ));
        }
        if b16_overhead_pct > DEADLINE_OVERHEAD_GATE_PCT {
            failures.push(format!(
                "B16 armed-deadline overhead {b16_overhead_pct:.2}% exceeds the \
                 {DEADLINE_OVERHEAD_GATE_PCT}% gate"
            ));
        }
    }

    if !no_gate {
        if b17_epoll_sustained < b17_clients {
            failures.push(format!(
                "B17 event loop sustained only {b17_epoll_sustained} of {b17_clients} concurrent \
                 slow clients (workers + backlog = {b17_pinned_ceiling}); the gate is all of them"
            ));
        }
        if ol_report.malformed > 0 || ol_report.server_error > 0 {
            failures.push(format!(
                "B17 open-loop clients saw {} malformed and {} untyped-5xx responses",
                ol_report.malformed, ol_report.server_error
            ));
        }
    }

    if !no_gate && b18_read_speedup < UPDATE_READ_SPEEDUP_GATE {
        failures.push(format!(
            "B18 post-update warm read is only {b18_read_speedup:.1}x faster than the full \
             recompute ({b18_warm_read_ms:.3}ms vs {b18_recompute_read_ms:.3}ms); the gate is \
             {UPDATE_READ_SPEEDUP_GATE}x"
        ));
    }

    if !no_gate && b19_deny_speedup < DENY_SPEEDUP_GATE {
        failures.push(format!(
            "B19 static guaranteed-deny rejection is only {b19_deny_speedup:.1}x faster than \
             the dynamic denial ({b19_static_deny_ms:.4}ms vs {b19_dynamic_deny_ms:.4}ms); the \
             gate is {DENY_SPEEDUP_GATE}x"
        ));
    }

    if !no_gate {
        for d in &b21 {
            if d.parse_allocs > PARSE_ALLOCS_GATE {
                failures.push(format!(
                    "B21 parse of {} made {} allocations; the gate is {PARSE_ALLOCS_GATE}",
                    d.name, d.parse_allocs
                ));
            }
            if d.bytes_per_node > BYTES_PER_NODE_GATE {
                failures.push(format!(
                    "B21 parsed {} holds {:.1} heap bytes per node; the gate is \
                     {BYTES_PER_NODE_GATE}",
                    d.name, d.bytes_per_node
                ));
            }
        }
    }

    if !no_gate {
        for m in &b22 {
            if m.visits > WARM_MISS_VISITS_GATE {
                failures.push(format!(
                    "B22 view miss on a warm revision of {} made {} XPath node visits; the gate \
                     is {WARM_MISS_VISITS_GATE}",
                    m.name, m.visits
                ));
            }
            if m.allocs > WARM_MISS_ALLOCS_GATE {
                failures.push(format!(
                    "B22 view miss on a warm revision of {} made {} allocations; the gate is \
                     {WARM_MISS_ALLOCS_GATE}",
                    m.name, m.allocs
                ));
            }
        }
    }

    if failures.is_empty() {
        eprintln!("bench_smoke: PASS");
    } else {
        for f in &failures {
            eprintln!("bench_smoke: FAIL: {f}");
        }
        std::process::exit(1);
    }
}
