//! End-to-end robustness: the malicious corpus — depth bombs, entity
//! bombs, oversized request lines, slow-loris clients, hostile queries,
//! shutdown drain, and concurrent readers and writers — must each
//! produce a *typed* 4xx/5xx answer, and the server must keep serving
//! afterwards.
//!
//! These tests talk to the demo server over real sockets, exactly as a
//! hostile client would. Injected faults live in their own binary
//! (`tests/server_faults.rs`): their arming is process-global.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};
use xmlsec::core::ResourceLimits;
use xmlsec::server::{ClientRequest, HttpConfig, HttpDemo, SecureServer};
use xmlsec::xml::Limits;
use xmlsec::xpath::EvalLimits;
use xmlsec_authz::{AuthType, Authorization, AuthorizationBase, ObjectSpec, Sign};
use xmlsec_subjects::{Directory, Subject};

/// A server with one public document and one user (tom/pw).
fn base_server() -> SecureServer {
    let mut dir = Directory::new();
    dir.add_user("tom").expect("add user");
    let mut base = AuthorizationBase::new();
    base.add(Authorization::new(
        Subject::new("tom", "*", "*").expect("subject"),
        ObjectSpec::with_path("doc.xml", "/d").expect("object"),
        Sign::Plus,
        AuthType::Recursive,
    ));
    let mut s = SecureServer::new(dir, base);
    s.register_credentials("tom", "pw");
    s.repository_mut().put_document("doc.xml", "<d><pub>hello</pub></d>", None);
    s
}

fn start(server: SecureServer, cfg: HttpConfig) -> HttpDemo {
    HttpDemo::start_with(server, "127.0.0.1:0", cfg).expect("bind")
}

fn get(addr: SocketAddr, target: &str) -> (u16, String) {
    let mut conn = TcpStream::connect(addr).expect("connect");
    write!(conn, "GET {target} HTTP/1.0\r\nHost: t\r\n\r\n").expect("write");
    let mut buf = String::new();
    conn.read_to_string(&mut buf).expect("read");
    let code = buf.split_whitespace().nth(1).and_then(|c| c.parse().ok()).unwrap_or(0);
    let body = buf.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    (code, body)
}

const OK_TARGET: &str = "/doc.xml?user=tom&pass=pw&ip=1.2.3.4&host=h.x.org";

fn nested(depth: usize) -> String {
    let mut s = String::with_capacity(depth * 7);
    for _ in 0..depth {
        s.push_str("<d>");
    }
    for _ in 0..depth {
        s.push_str("</d>");
    }
    s
}

#[test]
fn depth_bomb_document_is_422_and_server_keeps_serving() {
    let mut s = base_server();
    // 2000 levels exceeds the default 1024-level parse cap.
    s.repository_mut().put_document("bomb.xml", &nested(2000), None);
    let demo = start(s, HttpConfig::default());

    let (code, body) = get(demo.addr(), "/bomb.xml?user=tom&pass=pw&ip=1.2.3.4&host=h.x.org");
    assert_eq!(code, 422, "{body}");
    assert!(body.contains("resource limit exceeded"), "{body}");

    // The rejection is recoverable: the same server still answers.
    let (code2, body2) = get(demo.addr(), OK_TARGET);
    assert_eq!(code2, 200, "{body2}");
    assert!(body2.contains("hello"), "{body2}");

    // The rejection shows up in the shared limits counter family.
    let (mcode, metrics) = get(demo.addr(), "/metrics");
    assert_eq!(mcode, 200);
    assert!(metrics.contains(r#"xmlsec_limits_rejected_total{kind="depth"}"#), "{metrics}");
}

#[test]
fn entity_bomb_document_is_422() {
    let limits = ResourceLimits {
        xml: Limits { max_entity_expansion: 16, ..Limits::default() },
        ..ResourceLimits::default()
    };
    let mut s = base_server().with_limits(limits);
    let mut bomb = String::from("<d>");
    for _ in 0..64 {
        bomb.push_str("&amp;");
    }
    bomb.push_str("</d>");
    s.repository_mut().put_document("entities.xml", &bomb, None);
    let demo = start(s, HttpConfig::default());

    let (code, body) = get(demo.addr(), "/entities.xml?user=tom&pass=pw&ip=1.2.3.4&host=h.x.org");
    assert_eq!(code, 422, "{body}");
    // Documents under the cap are untouched by the tightened limit.
    let (code2, _) = get(demo.addr(), OK_TARGET);
    assert_eq!(code2, 200);
}

#[test]
fn hostile_query_is_422_under_a_small_eval_budget() {
    // A budget that comfortably covers labeling this document (the
    // authorization object path is a short absolute path) but not a
    // quadratic double-descendant scan over a few hundred nodes.
    let limits = ResourceLimits {
        xpath: EvalLimits { max_node_visits: 500, ..EvalLimits::default() },
        ..ResourceLimits::default()
    };
    let mut s = base_server().with_limits(limits);
    let mut wide = String::from("<d>");
    for i in 0..200 {
        wide.push_str(&format!("<item n=\"{i}\"/>"));
    }
    wide.push_str("</d>");
    s.repository_mut().put_document("doc.xml", &wide, None);
    let demo = start(s, HttpConfig::default());
    // The whole-view path is fine under the budget...
    let (code2, body2) = get(demo.addr(), OK_TARGET);
    assert_eq!(code2, 200, "{body2}");
    // ...but the hostile requester-supplied query is a typed 422.
    let (code, body) = get(demo.addr(), &format!("{OK_TARGET}&q=%2F%2F*%2F%2F*"));
    assert_eq!(code, 422, "{body}");
    // And the server still serves afterwards.
    let (code3, _) = get(demo.addr(), OK_TARGET);
    assert_eq!(code3, 200);
}

/// Cache churn under adversarial conditions: content mutated every
/// round with **no invalidation call at all**, on both an unbounded and
/// a capacity-bounded cache. The content-addressed key plus the lazy
/// stale sweep must keep the cache (and its insertion-order list)
/// bounded by live entries while every response stays fresh.
#[test]
fn cache_churn_stays_bounded_without_explicit_invalidation() {
    let req = ClientRequest {
        user: Some(("tom".into(), "pw".into())),
        ip: "1.2.3.4".into(),
        sym: "h.x.org".into(),
        uri: "doc.xml".into(),
    };
    let mut s = base_server();
    for round in 0..200 {
        // Mutate the stored bytes directly — the hostile-operator path
        // that bypasses every invalidation hook.
        s.repository_mut()
            .put_document("doc.xml", &format!("<d><pub>v{round}</pub></d>"), None);
        let fresh = s.handle(&req).expect("serve");
        assert!(!fresh.cached, "round {round}: stale hit");
        assert!(fresh.xml.contains(&format!("v{round}")), "round {round}: {}", fresh.xml);
        assert!(s.handle(&req).expect("serve").cached, "round {round}: rewarm");
        assert!(s.cache_len() <= 1, "round {round}: stale twins accumulate: {}", s.cache_len());
    }
    assert!(s.cache_stale_rejected() >= 199, "sweeps: {}", s.cache_stale_rejected());

    // Same churn against a bounded cache across several documents, with
    // grant/revoke mixed in: capacity holds and the server keeps serving.
    let mut s = base_server().with_cache_capacity(4);
    for uri in ["a.xml", "b.xml", "c.xml", "d.xml", "e.xml", "f.xml"] {
        s.grant(Authorization::new(
            Subject::new("tom", "*", "*").expect("subject"),
            ObjectSpec::with_path(uri, "/d").expect("object"),
            Sign::Plus,
            AuthType::Recursive,
        ));
    }
    for round in 0..50 {
        for uri in ["a.xml", "b.xml", "c.xml", "d.xml", "e.xml", "f.xml"] {
            s.repository_mut()
                .put_document(uri, &format!("<d><pub>{uri}-{round}</pub></d>"), None);
            let mut r = req.clone();
            r.uri = uri.into();
            let resp = s.handle(&r).expect("serve");
            assert!(resp.xml.contains(&format!("{uri}-{round}")));
            assert!(s.cache_len() <= 4, "round {round}: capacity breached: {}", s.cache_len());
        }
    }
}

/// A configured request-line cap is honoured even before the client
/// sends a newline: a line still streaming past the cap is answered
/// 431 at once, not held open waiting for its end.
#[test]
fn oversized_request_line_is_431() {
    let cfg = HttpConfig { max_request_line: 256, ..Default::default() };
    let demo = start(base_server(), cfg);
    let mut conn = TcpStream::connect(demo.addr()).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
    write!(conn, "GET /doc.xml?user={}", "x".repeat(1024)).expect("write");
    conn.flush().expect("flush");
    let mut buf = String::new();
    let _ = conn.read_to_string(&mut buf);
    assert!(buf.starts_with("HTTP/1.0 431"), "{buf}");

    // Well under the cap still serves.
    let (code, body) = get(demo.addr(), "/doc.xml?user=tom&pass=pw");
    assert_eq!(code, 200, "{body}");
}

/// A loris that sends its request line and then stalls inside the
/// header block is reaped by the read timeout, and a well-behaved
/// client connecting while it stalls is served without waiting.
#[test]
fn slow_loris_is_reaped_by_the_read_timeout() {
    let cfg = HttpConfig { read_timeout: Duration::from_secs(1), ..Default::default() };
    let demo = start(base_server(), cfg);

    let mut loris = TcpStream::connect(demo.addr()).expect("connect");
    write!(loris, "GET {OK_TARGET} HTTP/1.0\r\nHost: t\r\nX-Slow: ").expect("write");
    loris.flush().expect("flush");
    let t = Instant::now();

    let (code, body) = get(demo.addr(), OK_TARGET);
    assert_eq!(code, 200, "{body}");
    assert!(t.elapsed() < Duration::from_secs(1), "served only after the loris was reaped");

    let mut buf = String::new();
    let _ = loris.read_to_string(&mut buf);
    assert!(t.elapsed() < Duration::from_secs(4), "stalled connection kept");
    assert!(buf.is_empty() || buf.starts_with("HTTP/1.0 408"), "{buf}");
}

// ---------------------------------------------------------------------
// The event loop's connection handling: the framing caps, the read
// deadline, and keep-alive. That the loop writes exactly the bytes the
// request core renders is checked in the server crate, where the core
// is visible (`epoll::tests`).
// ---------------------------------------------------------------------

mod epoll_transport {
    use super::*;

    /// An over-long request line is 431 and the loop keeps serving.
    #[test]
    fn oversized_request_line_is_431_and_loop_keeps_serving() {
        let demo = start(base_server(), HttpConfig::default());
        let long = "x".repeat(16 * 1024);
        let (code, _) = get(demo.addr(), &format!("/doc.xml?user={long}"));
        assert_eq!(code, 431);
        let (code2, body2) = get(demo.addr(), OK_TARGET);
        assert_eq!(code2, 200, "{body2}");
        assert!(body2.contains("hello"), "{body2}");
    }

    /// A stalled connection is reaped by the read deadline, and the
    /// server still serves.
    #[test]
    fn slow_loris_is_reaped_by_the_read_deadline() {
        let cfg = HttpConfig { read_timeout: Duration::from_millis(300), ..Default::default() };
        let demo = start(base_server(), cfg);

        // Hold a connection open, dribbling no further bytes.
        let mut conn = TcpStream::connect(demo.addr()).expect("connect");
        write!(conn, "GET /doc").expect("write");
        conn.flush().expect("flush");
        let t = Instant::now();
        let mut buf = String::new();
        let _ = conn.read_to_string(&mut buf);
        assert!(t.elapsed() < Duration::from_secs(3), "stalled connection kept");
        assert!(buf.is_empty() || buf.starts_with("HTTP/1.0 408"), "{buf}");

        let (code, _) = get(demo.addr(), OK_TARGET);
        assert_eq!(code, 200);
    }

    /// A keep-alive request with a pipelined follow-up gets BOTH
    /// responses on the one connection, in order.
    #[test]
    fn keep_alive_pipelining_answers_both_requests() {
        let demo = start(base_server(), HttpConfig::default());
        let mut conn = TcpStream::connect(demo.addr()).expect("connect");
        write!(
            conn,
            "GET {OK_TARGET} HTTP/1.0\r\nHost: t\r\nConnection: keep-alive\r\n\r\n\
             GET {OK_TARGET} HTTP/1.0\r\nHost: t\r\n\r\n"
        )
        .expect("write");
        let mut buf = String::new();
        conn.read_to_string(&mut buf).expect("read");
        assert_eq!(buf.matches("HTTP/1.0 200").count(), 2, "{buf}");
        // First response keeps the connection, the second (HTTP/1.0, no
        // Connection header) closes it.
        assert!(buf.contains("Connection: keep-alive"), "{buf}");
        assert!(buf.contains("Connection: close"), "{buf}");
    }
}

/// Graceful shutdown drains queued work before returning.
#[test]
fn shutdown_drains_in_flight_requests() {
    let cfg = HttpConfig { drain_timeout: Duration::from_secs(5), ..Default::default() };
    let mut demo = start(base_server(), cfg);
    let addr = demo.addr();
    let client = std::thread::spawn(move || {
        let mut conn = TcpStream::connect(addr).expect("connect");
        write!(conn, "GET {OK_TARGET} HTTP/1.0\r\n\r\n").expect("write");
        let mut buf = String::new();
        let _ = conn.read_to_string(&mut buf);
        buf
    });
    // Make it likely the request is accepted before the stop flag
    // flips; drain must then finish it rather than abandon it.
    std::thread::sleep(Duration::from_millis(100));
    demo.shutdown();
    let buf = client.join().expect("client thread");
    assert!(buf.starts_with("HTTP/1.0 200"), "{buf}");
}

#[test]
fn concurrent_readers_and_writers_interleave_without_torn_views() {
    // Readers hammer the view path while writers commit update batches
    // over real sockets. Every reader must see a *committed* revision —
    // the seed text or some writer's value, never a torn mix, never a
    // 5xx — and every write must commit (the repository write lock
    // serializes them; the server queues them, it does not fail them).
    let mut dir = Directory::new();
    dir.add_user("tom").expect("add user");
    dir.add_user("ed").expect("add user");
    let mut base = AuthorizationBase::new();
    for user in ["tom", "ed"] {
        base.add(Authorization::new(
            Subject::new(user, "*", "*").expect("subject"),
            ObjectSpec::with_path("doc.xml", "/d").expect("object"),
            Sign::Plus,
            AuthType::Recursive,
        ));
    }
    base.add(
        Authorization::new(
            Subject::new("ed", "*", "*").expect("subject"),
            ObjectSpec::with_path("doc.xml", "/d").expect("object"),
            Sign::Plus,
            AuthType::Recursive,
        )
        .with_action(xmlsec::authz::Action::Write),
    );
    let mut s = SecureServer::new(dir, base);
    s.register_credentials("tom", "pw");
    s.register_credentials("ed", "pw");
    s.repository_mut().put_document("doc.xml", "<d><pub>seed</pub></d>", None);
    // Generous shed target so the burst below is never load-shed; the
    // test is about interleaving, not overload.
    let cfg = HttpConfig { shed_target: Duration::from_secs(5), ..Default::default() };
    let mut demo = start(s, cfg);
    let addr = demo.addr();

    const WRITERS: usize = 2;
    const WRITES_EACH: usize = 8;
    const READERS: usize = 4;
    const READS_EACH: usize = 25;

    let reader_bodies = std::thread::scope(|scope| {
        let mut writer_handles = Vec::new();
        for w in 0..WRITERS {
            writer_handles.push(scope.spawn(move || {
                let mut answers = Vec::new();
                for i in 0..WRITES_EACH {
                    let body = format!("settext /d/pub\tw{w}-{i}\n");
                    let mut conn = TcpStream::connect(addr).expect("connect");
                    write!(
                        conn,
                        "POST /update?doc=doc.xml&user=ed&pass=pw&ip=1.2.3.4&host=h.x.org \
                         HTTP/1.0\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
                        body.len()
                    )
                    .expect("write");
                    let mut buf = String::new();
                    conn.read_to_string(&mut buf).expect("read");
                    answers.push(buf);
                }
                answers
            }));
        }
        let mut reader_handles = Vec::new();
        for _ in 0..READERS {
            reader_handles.push(scope.spawn(move || {
                let mut bodies = Vec::new();
                for _ in 0..READS_EACH {
                    let mut conn = TcpStream::connect(addr).expect("connect");
                    write!(conn, "GET {OK_TARGET} HTTP/1.0\r\nHost: t\r\n\r\n").expect("write");
                    let mut buf = String::new();
                    conn.read_to_string(&mut buf).expect("read");
                    bodies.push(buf);
                }
                bodies
            }));
        }
        for h in writer_handles {
            for resp in h.join().expect("writer thread") {
                assert!(resp.starts_with("HTTP/1.0 200"), "every write commits: {resp}");
                assert!(resp.contains("updated 1"), "{resp}");
            }
        }
        let mut all = Vec::new();
        for h in reader_handles {
            all.extend(h.join().expect("reader thread"));
        }
        all
    });

    for resp in &reader_bodies {
        assert!(resp.starts_with("HTTP/1.0 200"), "readers never see an error: {resp}");
        let body = resp.split_once("\r\n\r\n").map(|(_, b)| b).unwrap_or("");
        // A committed revision is exactly one <pub> holding the seed
        // text or one writer value — anything else is a torn view.
        let inner = body
            .split_once("<pub>")
            .and_then(|(_, rest)| rest.split_once("</pub>"))
            .map(|(v, _)| v)
            .unwrap_or_else(|| panic!("view shape: {body}"));
        let committed =
            inner == "seed" || (inner.starts_with('w') && inner.contains('-') && inner.len() <= 8);
        assert!(committed, "torn or invented revision {inner:?} in {body}");
    }

    // The last committed revision is one of the writers' final values,
    // and the server is still healthy afterwards.
    let mut conn = TcpStream::connect(addr).expect("connect");
    write!(conn, "GET {OK_TARGET} HTTP/1.0\r\nHost: t\r\n\r\n").expect("write");
    let mut last = String::new();
    conn.read_to_string(&mut last).expect("read");
    assert!(last.starts_with("HTTP/1.0 200"), "{last}");
    let final_i = format!("-{}", WRITES_EACH - 1);
    assert!(last.contains(&final_i), "the final revision is some writer's last value: {last}");
    demo.shutdown();
}
