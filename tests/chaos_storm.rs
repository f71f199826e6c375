//! Randomized chaos soak over real sockets.
//!
//! A seeded [`xmlsec::workload::storm`] population — well-behaved
//! clients, conditional revalidators, impossible deadlines, mid-compute
//! hangups, slow lorises — hammers a live demo server whose request
//! path is additionally salted with probabilistic latency jitter from
//! the fault registry. Afterwards the server-side invariants must hold:
//!
//! - every answered response was well-formed HTTP (no partial/corrupt
//!   bytes ever reach a client);
//! - no worker is stuck and no panic was caught;
//! - the queue-depth gauge and the core-lease gauge drain back to zero
//!   (nothing leaked across hundreds of cancelled/abandoned requests);
//! - the cache stays coherent: a revalidation against the post-storm
//!   entity tag still answers 304, and fresh requests serve the right
//!   bytes.
//!
//! This test owns its binary: fault arming and the telemetry registry
//! are process-global, so the tight equality assertions below are only
//! safe because nothing else runs alongside.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};
use xmlsec::server::faults::{arm_probabilistic, clear, FaultAction};
use xmlsec::server::{HttpConfig, HttpDemo, SecureServer};
use xmlsec::workload::{run_storm, StormConfig};
use xmlsec_authz::{AuthType, Authorization, AuthorizationBase, ObjectSpec, Sign};
use xmlsec_subjects::{Directory, Subject};

const OK_TARGET: &str = "/doc.xml?user=tom&pass=pw&ip=1.2.3.4&host=h.x.org";

fn storm_server() -> SecureServer {
    let mut dir = Directory::new();
    dir.add_user("tom").expect("add user");
    let mut base = AuthorizationBase::new();
    for uri in ["doc.xml", "beta.xml"] {
        base.add(Authorization::new(
            Subject::new("tom", "*", "*").expect("subject"),
            ObjectSpec::with_path(uri, "/d").expect("object"),
            Sign::Plus,
            AuthType::Recursive,
        ));
    }
    let mut s = SecureServer::new(dir, base);
    s.register_credentials("tom", "pw");
    s.repository_mut().put_document("doc.xml", "<d><pub>hello</pub></d>", None);
    s.repository_mut().put_document("beta.xml", "<d><pub>beta-body</pub></d>", None);
    s
}

/// Raw request returning the whole response buffer.
fn raw_get(demo: &HttpDemo, target: &str, extra_header: Option<&str>) -> String {
    let mut conn = TcpStream::connect(demo.addr()).expect("connect");
    let extra = extra_header.map(|h| format!("{h}\r\n")).unwrap_or_default();
    write!(conn, "GET {target} HTTP/1.0\r\nHost: t\r\n{extra}\r\n").expect("write");
    let mut buf = String::new();
    conn.read_to_string(&mut buf).expect("read");
    buf
}

/// First sample of a metric line starting with `name` (labels allowed
/// in `name`); -1 when the series was never registered.
fn value(metrics: &str, name: &str) -> i64 {
    metrics
        .lines()
        .find(|l| l.starts_with(name) && !l.starts_with('#'))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(-1)
}

#[test]
fn chaos_storm_preserves_server_invariants() {
    clear();
    // The CI soak matrix overrides the seed; the default replays the
    // checked-in scenario. Fault arming derives from the same seed so
    // one number pins the whole run.
    let seed: u64 = std::env::var("XMLSEC_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xDEAD_BEEF);
    let cfg = HttpConfig {
        workers: 4,
        read_timeout: Duration::from_millis(250),
        request_deadline: Some(Duration::from_secs(5)),
        ..Default::default()
    };
    let demo = HttpDemo::start_with(storm_server(), "127.0.0.1:0", cfg).expect("bind");

    // Salt the pipeline with seeded latency jitter (~35% of requests
    // sleep 0-12 ms right before processing) so deadline races, sojourn
    // spikes and client-gone windows actually occur.
    arm_probabilistic("process.request", FaultAction::JitterMs(0, 12), 350_000, seed ^ 0xC0FF_EE00);

    let storm = StormConfig {
        seed,
        requests: 160,
        concurrency: 4,
        targets: vec![
            OK_TARGET.to_string(),
            "/beta.xml?user=tom&pass=pw&ip=1.2.3.4&host=h.x.org".to_string(),
            format!("{OK_TARGET}&q=%2Fd"),
            // Typed client faults stay typed under chaos too.
            "/missing.xml?user=tom&pass=pw&ip=1.2.3.4&host=h.x.org".to_string(),
        ],
        tiny_deadline: 0.20,
        disconnect: 0.12,
        loris: 0.06,
        conditional: 0.25,
    };
    let report = run_storm(demo.addr(), &storm);
    clear();

    // Written BEFORE the assertions, so a failing CI soak uploads the
    // replay seed and the raw client observations as its artifact.
    if let Ok(path) = std::env::var("XMLSEC_CHAOS_REPORT") {
        let json = format!(
            "{{\n  \"seed\": {seed},\n  \"sent\": {},\n  \"ok\": {},\n  \
             \"not_modified\": {},\n  \"shed\": {},\n  \"client_error\": {},\n  \
             \"server_error\": {},\n  \"aborted\": {},\n  \"malformed\": {}\n}}\n",
            report.sent,
            report.ok,
            report.not_modified,
            report.shed,
            report.client_error,
            report.server_error,
            report.aborted,
            report.malformed,
        );
        std::fs::write(&path, json).expect("write chaos report");
    }

    // Client-side invariants: everything accounted for, nothing corrupt,
    // no untyped 5xx (503 shed/cancel responses are the only 5xx armed).
    assert_eq!(report.sent, storm.requests, "{report:?}");
    assert_eq!(report.malformed, 0, "corrupt response reached a client: {report:?}");
    assert_eq!(report.answered() + report.aborted, report.sent, "{report:?}");
    assert_eq!(report.server_error, 0, "untyped 5xx under chaos: {report:?}");
    assert!(report.ok > 0, "storm never got a successful response: {report:?}");
    assert!(report.client_error > 0, "404 target never answered 4xx: {report:?}");

    // Server-side invariants, once the tail of reaped/abandoned
    // connections drains: gauges back to baseline, nothing leaked.
    let deadline = Instant::now() + Duration::from_secs(5);
    let metrics = loop {
        let m = raw_get(&demo, "/metrics", None);
        let drained = value(&m, "xmlsec_server_queue_depth") == 0
            && value(&m, "xmlsec_par_cores_leased") <= 0;
        if drained || Instant::now() > deadline {
            break m;
        }
        std::thread::sleep(Duration::from_millis(50));
    };
    assert_eq!(value(&metrics, "xmlsec_server_queue_depth"), 0, "{metrics}");
    assert!(value(&metrics, "xmlsec_par_cores_leased") <= 0, "leaked core lease: {metrics}");
    assert!(value(&metrics, "xmlsec_server_panics_caught_total") <= 0, "{metrics}");
    // ~20% of requests declared an unmeetable deadline; at least one
    // must have been cancelled and counted by reason.
    assert!(
        value(&metrics, "xmlsec_server_cancelled_total{reason=\"deadline\"}") >= 1,
        "{metrics}"
    );

    // No stuck worker: a fresh request is served promptly and correctly.
    let fresh = raw_get(&demo, OK_TARGET, None);
    assert!(fresh.starts_with("HTTP/1.0 200"), "{fresh}");
    assert!(fresh.contains("hello"), "{fresh}");

    // Cache coherence survived the storm: the entity tag a client holds
    // now still revalidates, and a mismatched one re-serves full bytes.
    let etag = fresh
        .lines()
        .find_map(|l| l.strip_prefix("ETag: "))
        .expect("200 must carry an entity tag")
        .trim()
        .to_string();
    let revalidated = raw_get(&demo, OK_TARGET, Some(&format!("If-None-Match: {etag}")));
    assert!(revalidated.starts_with("HTTP/1.0 304"), "{revalidated}");
    let mismatched = raw_get(&demo, OK_TARGET, Some("If-None-Match: \"bogus\""));
    assert!(mismatched.starts_with("HTTP/1.0 200"), "{mismatched}");
    assert!(mismatched.contains("hello"), "{mismatched}");
}
