//! Injected faults against the demo server over real sockets: panics,
//! stalls and disconnects at the request core's fault points must each
//! be isolated (the next request is served) and observable (counted in
//! `/metrics`).
//!
//! This test owns its binary. Fault arming is process-global: a sibling
//! test sending requests in the same process could take an armed fault
//! and fail both tests.

use std::io::{Read, Write};
use std::net::SocketAddr;
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use xmlsec::server::{ClientRequest, HttpConfig, HttpDemo, SecureServer};
use xmlsec_authz::{Action, AuthType, Authorization, AuthorizationBase, ObjectSpec, Sign};
use xmlsec_subjects::{Directory, Subject};

/// A server with one public document, one user (tom/pw) who may read
/// and write all of it, and one (ann/pw) who may read `/d/pub`.
fn base_server() -> SecureServer {
    let mut dir = Directory::new();
    dir.add_user("tom").expect("add user");
    dir.add_user("ann").expect("add user");
    let mut base = AuthorizationBase::new();
    let grant = |user: &str, path: &str| {
        Authorization::new(
            Subject::new(user, "*", "*").expect("subject"),
            ObjectSpec::with_path("doc.xml", path).expect("object"),
            Sign::Plus,
            AuthType::Recursive,
        )
    };
    base.add(grant("tom", "/d").with_action(Action::Write));
    base.add(grant("tom", "/d"));
    base.add(grant("ann", "/d/pub"));
    let mut s = SecureServer::new(dir, base);
    s.register_credentials("tom", "pw");
    s.register_credentials("ann", "pw");
    s.repository_mut().put_document("doc.xml", "<d><pub>hello</pub></d>", None);
    s
}

/// Tom's view of `doc.xml` holding `xml`, from a fresh cache-less
/// server, as `view` reports it: `(status, ETag, body)`.
fn cacheless_view(xml: &str) -> (u16, String, String) {
    let mut s = base_server().without_cache();
    s.repository_mut().put_document("doc.xml", xml, None);
    let request = ClientRequest {
        user: Some(("tom".into(), "pw".into())),
        ip: "1.2.3.4".into(),
        sym: "h.x.org".into(),
        uri: "doc.xml".into(),
    };
    let resp = s.handle(&request).expect("fresh view");
    (200, format!("\"{}\"", resp.etag), format!("{}\n", resp.xml))
}

fn get(demo: &HttpDemo, target: &str) -> (u16, String) {
    let mut conn = TcpStream::connect(demo.addr()).expect("connect");
    write!(conn, "GET {target} HTTP/1.0\r\nHost: t\r\n\r\n").expect("write");
    let mut buf = String::new();
    conn.read_to_string(&mut buf).expect("read");
    let code = buf.split_whitespace().nth(1).and_then(|c| c.parse().ok()).unwrap_or(0);
    let body = buf.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    (code, body)
}

const OK_TARGET: &str = "/doc.xml?user=tom&pass=pw&ip=1.2.3.4&host=h.x.org";
/// A secure query: queries always miss the cache, so each one is
/// computed by a worker (a warm view is answered by the loop itself).
const QUERY_TARGET: &str = "/doc.xml?user=tom&pass=pw&ip=1.2.3.4&host=h.x.org&q=%2Fd%2Fpub";

/// `xmlsec_server_cancelled_total{reason="client_gone"}`, read from the
/// process-wide registry through `demo`'s `/metrics`.
fn client_gone(demo: &HttpDemo) -> u64 {
    let mut conn = TcpStream::connect(demo.addr()).expect("connect");
    write!(conn, "GET /metrics HTTP/1.0\r\n\r\n").expect("write");
    let mut metrics = String::new();
    conn.read_to_string(&mut metrics).expect("read");
    metrics
        .lines()
        .find_map(|l| l.strip_prefix("xmlsec_server_cancelled_total{reason=\"client_gone\"} "))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0)
}

/// Sends one raw request and returns `(status, head, body)`.
fn exchange(addr: SocketAddr, request: &str) -> (u16, String, String) {
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.write_all(request.as_bytes()).expect("write");
    let mut buf = String::new();
    conn.read_to_string(&mut buf).expect("read");
    let code = buf.split_whitespace().nth(1).and_then(|c| c.parse().ok()).unwrap_or(0);
    let (head, body) = buf.split_once("\r\n\r\n").unwrap_or((&buf, ""));
    (code, head.to_string(), body.to_string())
}

/// Tom's view of `doc.xml`: `(status, ETag, body)`.
fn view(addr: SocketAddr) -> (u16, String, String) {
    view_at(addr, OK_TARGET)
}

/// The view at `target`: `(status, ETag, body)`.
fn view_at(addr: SocketAddr, target: &str) -> (u16, String, String) {
    let (code, head, body) = exchange(addr, &format!("GET {target} HTTP/1.0\r\n\r\n"));
    let etag = head.lines().find_map(|l| l.strip_prefix("ETag: ")).unwrap_or("").to_string();
    (code, etag, body)
}

const ANN_TARGET: &str = "/doc.xml?user=ann&pass=pw&ip=1.2.3.4&host=h.x.org";

/// Commits `settext /d/pub <text>` to `doc.xml`; returns the status.
fn set_pub(addr: SocketAddr, text: &str) -> u16 {
    let body = format!("settext /d/pub\t{text}");
    let request = format!(
        "POST /update?doc=doc.xml&user=tom&pass=pw HTTP/1.0\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    exchange(addr, &request).0
}

/// Views served from the cache so far, process-wide.
fn served_cached(addr: SocketAddr) -> u64 {
    let (_, _, metrics) = exchange(addr, "GET /metrics HTTP/1.0\r\n\r\n");
    metrics
        .lines()
        .find_map(|l| l.strip_prefix("xmlsec_requests_total{outcome=\"served_cached\"} "))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0)
}

/// All fault-injection scenarios live in ONE sequential test: arming is
/// process-global, so concurrent tests would race on the registry.
#[test]
fn injected_faults_are_isolated_and_observable() {
    use xmlsec::server::faults::{arm, clear, FaultAction};

    clear();
    // A tiny pool makes queue behavior deterministic: one worker, one
    // backlog slot.
    let cfg = HttpConfig { workers: 1, backlog: 1, ..Default::default() };
    let demo = HttpDemo::start_with(base_server(), "127.0.0.1:0", cfg).expect("bind");

    // --- 1. A panic inside request processing answers 500; the worker
    // (the only one!) survives to serve the next request.
    arm("process.request", FaultAction::Panic, 1);
    let (code, body) = get(&demo, OK_TARGET);
    assert_eq!(code, 500, "{body}");
    assert!(body.contains("panic"), "{body}");
    let (code2, _) = get(&demo, OK_TARGET);
    assert_eq!(code2, 200, "worker died with the panic");

    // --- 2. A mid-stream disconnect before the response write: the
    // client sees a clean close with no bytes, the server moves on.
    arm("respond.write", FaultAction::Disconnect, 1);
    let mut conn = TcpStream::connect(demo.addr()).expect("connect");
    write!(conn, "GET {QUERY_TARGET} HTTP/1.0\r\n\r\n").expect("write");
    let mut buf = String::new();
    let _ = conn.read_to_string(&mut buf);
    assert!(buf.is_empty(), "disconnect should write nothing: {buf}");
    let (code3, _) = get(&demo, QUERY_TARGET);
    assert_eq!(code3, 200);

    // --- 3. Load shedding: stall the single worker, fill the single
    // backlog slot, and the next arrivals bounce with 503 + Retry-After,
    // rendered inline by the loop when the queue refuses the job.
    arm("handle.start", FaultAction::SleepMs(400), 2);
    let mut held: Vec<TcpStream> = Vec::new();
    let mut shed_seen = 0;
    for _ in 0..5 {
        let mut c = TcpStream::connect(demo.addr()).expect("connect");
        write!(c, "GET {QUERY_TARGET} HTTP/1.0\r\n\r\n").expect("write");
        // Give the worker a moment to pull the first job so the later
        // ones deterministically find it busy and the queue full.
        std::thread::sleep(Duration::from_millis(50));
        c.set_read_timeout(Some(Duration::from_millis(100))).expect("timeout");
        let mut peek = [0u8; 512];
        match c.read(&mut peek) {
            Ok(n) if n > 0 => {
                let head = String::from_utf8_lossy(&peek[..n]).into_owned();
                if head.starts_with("HTTP/1.0 503") {
                    // The hint must be a well-formed integer-seconds
                    // value a client can feed straight to a backoff
                    // timer, priced within the advertised clamp.
                    let secs: u64 = head
                        .lines()
                        .find_map(|l| l.strip_prefix("Retry-After: "))
                        .expect("503 must carry Retry-After")
                        .trim()
                        .parse()
                        .expect("Retry-After must be integer seconds");
                    assert!((1..=30).contains(&secs), "{head}");
                    shed_seen += 1;
                }
            }
            _ => held.push(c), // still queued or in flight
        }
    }
    assert!(shed_seen >= 1, "expected at least one 503 from a full queue");
    drop(held);
    // Let the stalled requests finish so the worker is idle again.
    std::thread::sleep(Duration::from_millis(900));
    let (code4, _) = get(&demo, OK_TARGET);
    assert_eq!(code4, 200);

    // --- 4. A panic at the very start of compute, before admission or
    // any pipeline stage, is answered 500 and the worker stays alive.
    arm("handle.start", FaultAction::Panic, 1);
    let (code5, body5) = get(&demo, QUERY_TARGET);
    assert_eq!(code5, 500, "{body5}");
    let (code6, _) = get(&demo, QUERY_TARGET);
    assert_eq!(code6, 200, "worker did not survive the panic");

    // --- 5. Everything above is observable: panics and sheds are
    // counted, and the queue gauge is registered (and back to zero).
    let (mcode, metrics) = get(&demo, "/metrics");
    assert_eq!(mcode, 200);
    let value = |name: &str| -> i64 {
        metrics
            .lines()
            .find(|l| l.starts_with(name) && !l.starts_with('#'))
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|v| v.parse().ok())
            .unwrap_or(-1)
    };
    assert!(value("xmlsec_server_panics_caught_total") >= 2, "{metrics}");
    assert!(value("xmlsec_server_shed_total") >= 1, "{metrics}");
    // The gauge is process-global and other tests in this binary run
    // concurrently, so assert registration and sanity, not emptiness.
    assert!(value("xmlsec_server_queue_depth") >= 0, "{metrics}");

    // --- 6. A client that hangs up while its request computes cancels
    // it: the event loop notices through readiness. Nothing is written,
    // the cancellation is counted `client_gone`, and the next request is
    // served.
    {
        let mut demo = HttpDemo::start(base_server(), "127.0.0.1:0").expect("bind");
        let before = client_gone(&demo);
        arm("process.request", FaultAction::SleepMs(300), 1);
        // A fresh server: the view is cold, so the request needs compute.
        let mut c = TcpStream::connect(demo.addr()).expect("connect");
        write!(c, "GET {OK_TARGET} HTTP/1.0\r\n\r\n").expect("write");
        c.shutdown(Shutdown::Write).expect("hang up");
        let mut buf = Vec::new();
        c.read_to_end(&mut buf).expect("read");
        assert!(buf.is_empty(), "a hung-up client got {:?}", String::from_utf8_lossy(&buf));
        assert!(client_gone(&demo) > before, "cancellation not counted");
        let mut conn = TcpStream::connect(demo.addr()).expect("connect");
        write!(conn, "GET {OK_TARGET} HTTP/1.0\r\n\r\n").expect("write");
        let mut next = String::new();
        conn.read_to_string(&mut next).expect("read");
        assert!(next.starts_with("HTTP/1.0 200"), "not served after: {next}");
        demo.shutdown();
    }

    // --- 7. A commit publishes its revision and patched views only at
    // the end. While it is stalled just before the publish, readers are
    // served the old revision's warm view at once; the next read after
    // the POST is a hit on the new bytes. A panic at the same point
    // leaves the document, its tag and its warm view as they were, and
    // the next batch commits.
    {
        let mut demo = HttpDemo::start(base_server(), "127.0.0.1:0").expect("bind");
        let addr = demo.addr();
        let (code, old_tag, old_body) = view(addr);
        assert_eq!(code, 200, "{old_body}");

        arm("update.publish", FaultAction::SleepMs(300), 1);
        let post = std::thread::spawn(move || set_pub(addr, "bye"));
        std::thread::sleep(Duration::from_millis(100));
        let start = Instant::now();
        let (code, tag, body) = view(addr);
        let waited = start.elapsed();
        assert_eq!(code, 200, "{body}");
        assert!(waited < Duration::from_millis(100), "a hit waited {waited:?}");
        assert_eq!(tag, old_tag, "a read during the commit sees the old revision");
        assert_eq!(body, old_body);
        assert_eq!(post.join().expect("post thread"), 200, "the commit lands");
        let hits = served_cached(addr);
        let (code, new_tag, new_body) = view(addr);
        assert_eq!(code, 200);
        assert!(new_body.contains("bye"), "{new_body}");
        assert_ne!(new_tag, old_tag);
        assert_eq!(served_cached(addr), hits + 1, "the patched view is a hit");

        arm("update.publish", FaultAction::Panic, 1);
        assert_eq!(set_pub(addr, "lost"), 500, "a panic before publish is a 500");
        let hits = served_cached(addr);
        assert_eq!(view(addr), (200, new_tag.clone(), new_body.clone()));
        assert_eq!(served_cached(addr), hits + 1, "the warm view survives");
        assert_eq!(set_pub(addr, "again"), 200, "the next batch commits");
        let (_, tag, body) = view(addr);
        assert!(body.contains("again"), "{body}");
        assert_ne!(tag, new_tag);
        demo.shutdown();
    }

    // --- 8. A miss labels and renders the revision its probe keyed with
    // no repository guard held. While a cold read is stalled inside its
    // compute, a commit to the same document lands and a warm view of it
    // is answered; the stalled read's flag, set when it returns, is
    // still clear after both. It then returns the view of the
    // revision it keyed — a cache-less server's view of the pre-commit
    // text — and the same requester's next read is the post-commit view.
    use xmlsec::server::faults::armed;
    {
        let mut demo = HttpDemo::start(base_server(), "127.0.0.1:0").expect("bind");
        let addr = demo.addr();
        assert_eq!(view_at(addr, ANN_TARGET).0, 200, "warm ann's view");

        arm("view.compute", FaultAction::SleepMs(1000), 1);
        let returned = Arc::new(AtomicBool::new(false));
        let stalled = {
            let returned = Arc::clone(&returned);
            std::thread::spawn(move || {
                let answer = view(addr);
                returned.store(true, Ordering::SeqCst);
                answer
            })
        };
        while armed("view.compute") {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(set_pub(addr, "later"), 200, "the commit lands");
        let hits = served_cached(addr);
        let (code, _, body) = view_at(addr, ANN_TARGET);
        assert_eq!(code, 200, "{body}");
        assert!(body.contains("later"), "the warm view is patched: {body}");
        assert_eq!(served_cached(addr), hits + 1, "and answered as a hit");
        assert!(
            !returned.load(Ordering::SeqCst),
            "the commit and the hit waited for the stalled miss"
        );
        let pre_commit = cacheless_view("<d><pub>hello</pub></d>");
        assert_eq!(stalled.join().expect("reader"), pre_commit);
        let post_commit = cacheless_view("<d><pub>later</pub></d>");
        assert_eq!(view(addr), post_commit, "the next read is the new revision");

        // --- 9. A panic inside the exclusive section, after the write
        // side is taken and before the swap, answers 500 and installs
        // nothing: the stored text, every warm view and every tag stay
        // as they were, and the next batch commits and patches.
        let ann = view_at(addr, ANN_TARGET);
        assert!(ann.2.contains("later"), "{}", ann.2);
        arm("update.install", FaultAction::Panic, 1);
        assert_eq!(set_pub(addr, "lost"), 500, "a panic at install is a 500");
        let hits = served_cached(addr);
        assert_eq!(view(addr), post_commit, "tom's view and tag are unchanged");
        assert_eq!(view_at(addr, ANN_TARGET), ann, "ann's view and tag too");
        assert_eq!(served_cached(addr), hits + 2, "both are warm hits");
        assert_eq!(set_pub(addr, "again"), 200, "the next batch commits");
        let hits = served_cached(addr);
        let (_, tag, body) = view_at(addr, ANN_TARGET);
        assert!(body.contains("again"), "{body}");
        assert_ne!(tag, ann.1);
        assert_eq!(served_cached(addr), hits + 1, "the view was patched");
        demo.shutdown();
    }
    clear();
}
