//! The load generator: closed loops and fixed-rate open loops over
//! keep-alive connections, one connection per thread, never more than
//! `nproc` of either.

use crate::check::{check_read, hash, Expected, ReadRecord, WriteRecord};
use crate::client::HttpClient;
use crate::world::{Rng, World, WriteGen, WriteOp};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

pub fn ns(d: Duration) -> u32 {
    d.as_nanos().min(u32::MAX as u128) as u32
}

/// What a phase of load produced. Latencies (ns) run to the last
/// response byte from the send (closed loop) or from the due time (open
/// loop); `lag` (ns) is how late each open-loop send was.
#[derive(Debug, Default)]
pub struct Outcome {
    pub read_lat: Vec<u32>,
    pub write_lat: Vec<u32>,
    pub lag: Vec<u32>,
    /// Operations that completed and passed their inline checks,
    /// counted on every passing response.
    pub completed: usize,
    pub attempted: usize,
    pub failed: usize,
    pub first_err: Option<String>,
    /// Reads and writes kept for the version-window check.
    pub reads: Vec<ReadRecord>,
    pub writes: Vec<WriteRecord>,
}

impl Outcome {
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        self.first_err.get_or_insert(msg);
    }

    fn record(&mut self, write: bool, lat: Duration, lag: Option<Duration>) {
        self.completed += 1;
        let v = if write { &mut self.write_lat } else { &mut self.read_lat };
        v.push(ns(lat));
        if let Some(lag) = lag {
            self.lag.push(ns(lag));
        }
    }

    pub fn merge(&mut self, other: Outcome) {
        self.read_lat.extend(other.read_lat);
        self.write_lat.extend(other.write_lat);
        self.lag.extend(other.lag);
        self.completed += other.completed;
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_err.is_none() {
            self.first_err = other.first_err;
        }
        self.reads.extend(other.reads);
        self.writes.extend(other.writes);
    }
}

/// Pre-rendered requests and oracle views for every catalog entry of a
/// read-only workload (documents never change there).
pub struct ReadTable {
    pub get: Vec<Vec<u8>>,
    pub revalidate: Vec<Vec<u8>>,
    pub expected: Vec<Expected>,
}

impl ReadTable {
    pub fn new(world: &World, expected: Vec<Expected>) -> ReadTable {
        let get = world
            .catalog
            .iter()
            .map(|&(d, r)| world.readers[r].get(&world.docs[d].uri, None))
            .collect();
        let revalidate = world
            .catalog
            .iter()
            .zip(&expected)
            .map(|(&(d, r), e)| world.readers[r].get(&world.docs[d].uri, Some(&e.etag)))
            .collect();
        ReadTable { get, revalidate, expected }
    }
}

/// Closed loop of reads on `threads` connections for `duration`. A
/// `revalidate` share of requests carries the current ETag. Every
/// response is checked inline against the oracle's bytes.
pub fn closed_reads(
    addr: SocketAddr,
    table: &ReadTable,
    seed: u64,
    threads: usize,
    duration: Duration,
    revalidate: f64,
) -> Outcome {
    let end = Instant::now() + duration;
    let parts: Vec<Outcome> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                s.spawn(move || {
                    let mut rng = Rng::new(seed, 1000 + t as u64);
                    let mut client = HttpClient::new(addr);
                    let mut out = Outcome::default();
                    while Instant::now() < end {
                        let i = rng.below(table.get.len());
                        let inm = rng.unit() < revalidate;
                        let req = if inm { &table.revalidate[i] } else { &table.get[i] };
                        out.attempted += 1;
                        let t0 = Instant::now();
                        let r = client.roundtrip(req);
                        let lat = t0.elapsed();
                        let verdict = r.map_err(|e| format!("read: {e}")).and_then(|()| {
                            check_read(
                                &table.expected[i],
                                client.status,
                                client.etag.as_deref(),
                                &client.body,
                                inm,
                            )
                        });
                        match verdict {
                            Ok(()) => out.record(false, lat, None),
                            Err(e) => out.fail(e),
                        }
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("load thread")).collect()
    });
    let mut all = Outcome::default();
    for p in parts {
        all.merge(p);
    }
    all
}

/// Sends one batch and records it for the oracle.
pub fn send_write(
    client: &mut HttpClient,
    world: &World,
    op: WriteOp,
    due: Instant,
    out: &mut Outcome,
) {
    let who = if op.intruder { &world.intruder } else { &world.editor };
    let req = who.post(&world.docs[op.doc].uri, &op.body);
    out.attempted += 1;
    let sent = Instant::now();
    let r = client.roundtrip(&req);
    let done = Instant::now();
    let status = r.is_ok().then_some(client.status);
    let body = String::from_utf8_lossy(&client.body).into_owned();
    match r {
        // Outcomes are judged against the oracle afterwards.
        Ok(()) => out.record(true, done - due, Some(sent - due)),
        Err(e) => out.fail(format!("write: {e}")),
    }
    out.writes.push(WriteRecord { op, sent, done, status, body });
}

/// Sends one read and records it for the version-window check.
pub fn send_read(
    client: &mut HttpClient,
    world: &World,
    (doc, reader): (usize, usize),
    etag: Option<&str>,
    due: Instant,
    out: &mut Outcome,
) {
    let req = world.readers[reader].get(&world.docs[doc].uri, etag);
    out.attempted += 1;
    let sent = Instant::now();
    let r = client.roundtrip(&req);
    let done = Instant::now();
    match r {
        Ok(()) => {
            out.record(false, done - due, Some(sent - due));
            out.reads.push(ReadRecord {
                doc,
                reader,
                sent,
                done,
                status: client.status,
                body_hash: hash(&client.body),
                etag: client.etag.clone(),
                revalidated: etag.is_some(),
            });
        }
        Err(e) => out.fail(format!("read: {e}")),
    }
}

/// Sequential closed loop of `n` write batches on one connection.
pub fn write_burst(addr: SocketAddr, world: &World, gen: &mut WriteGen, n: usize) -> Outcome {
    let mut client = HttpClient::new(addr);
    let mut out = Outcome::default();
    for _ in 0..n {
        send_write(&mut client, world, gen.next_op(), Instant::now(), &mut out);
    }
    out
}

fn sleep_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// Fixed-rate open loop: one reader connection at `read_rate` and one
/// writer connection at `write_rate`, each request due at its slot in
/// the schedule whether or not the previous one has returned.
pub fn open_loop(
    addr: SocketAddr,
    world: &World,
    gen: &mut WriteGen,
    seed: u64,
    duration: Duration,
    read_rate: f64,
    write_rate: f64,
) -> Outcome {
    let start = Instant::now() + Duration::from_millis(5);
    let end = start + duration;
    let (reads, writes) = std::thread::scope(|s| {
        let reader = s.spawn(move || {
            let mut rng = Rng::new(seed, 2000);
            let mut client = HttpClient::new(addr);
            let mut out = Outcome::default();
            for k in 0u64.. {
                let due = start + Duration::from_secs_f64(k as f64 / read_rate);
                // Past the window, stop: a backlog is not replayed late.
                if due >= end || Instant::now() >= end {
                    break;
                }
                sleep_until(due);
                let pair = world.catalog[rng.below(world.catalog.len())];
                send_read(&mut client, world, pair, None, due, &mut out);
            }
            out
        });
        let writer = s.spawn(move || {
            let mut client = HttpClient::new(addr);
            let mut out = Outcome::default();
            for k in 0u64.. {
                let due = start + Duration::from_secs_f64(k as f64 / write_rate);
                // Past the window, stop: a backlog is not replayed late.
                if due >= end || Instant::now() >= end {
                    break;
                }
                sleep_until(due);
                send_write(&mut client, world, gen.next_op(), due, &mut out);
            }
            out
        });
        (reader.join().expect("reader thread"), writer.join().expect("writer thread"))
    });
    let mut all = reads;
    all.merge(writes);
    all
}
