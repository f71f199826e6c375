//! End-to-end robustness: the malicious corpus — depth bombs, entity
//! bombs, oversized request lines, slow-loris clients, hostile queries,
//! shutdown drain, and concurrent readers and writers — must each
//! produce a *typed* 4xx/5xx answer, and the server must keep serving
//! afterwards.
//!
//! These tests talk to the demo server over real sockets, exactly as a
//! hostile client would, and run the whole corpus against both
//! transports. Injected faults live in their own binary
//! (`tests/server_faults.rs`): their arming is process-global.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::{Duration, Instant};
use xmlsec::core::ResourceLimits;
use xmlsec::server::{AnyDemo, ClientRequest, HttpConfig, HttpDemo, SecureServer, Transport};
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

/// Every transport this platform serves: the corpus runs on each.
fn transports() -> Vec<Transport> {
    if cfg!(target_os = "linux") {
        vec![Transport::Pool, Transport::Epoll]
    } else {
        vec![Transport::Pool]
    }
}

fn start(transport: Transport, server: SecureServer, cfg: HttpConfig) -> AnyDemo {
    AnyDemo::start_with(transport, server, "127.0.0.1:0", cfg).expect("bind")
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
    for transport in transports() {
        let mut s = base_server();
        // 2000 levels exceeds the default 1024-level parse cap.
        s.repository_mut().put_document("bomb.xml", &nested(2000), None);
        let demo = start(transport, s, HttpConfig::default());

        let (code, body) = get(demo.addr(), "/bomb.xml?user=tom&pass=pw&ip=1.2.3.4&host=h.x.org");
        assert_eq!(code, 422, "{transport}: {body}");
        assert!(body.contains("resource limit exceeded"), "{transport}: {body}");

        // The rejection is recoverable: the same server still answers.
        let (code2, body2) = get(demo.addr(), OK_TARGET);
        assert_eq!(code2, 200, "{transport}: {body2}");
        assert!(body2.contains("hello"), "{transport}: {body2}");

        // The rejection shows up in the shared limits counter family.
        let (mcode, metrics) = get(demo.addr(), "/metrics");
        assert_eq!(mcode, 200);
        assert!(metrics.contains(r#"xmlsec_limits_rejected_total{kind="depth"}"#), "{metrics}");
    }
}

#[test]
fn entity_bomb_document_is_422() {
    for transport in transports() {
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
        let demo = start(transport, s, HttpConfig::default());

        let (code, body) =
            get(demo.addr(), "/entities.xml?user=tom&pass=pw&ip=1.2.3.4&host=h.x.org");
        assert_eq!(code, 422, "{transport}: {body}");
        // Documents under the cap are untouched by the tightened limit.
        let (code2, _) = get(demo.addr(), OK_TARGET);
        assert_eq!(code2, 200, "{transport}");
    }
}

#[test]
fn hostile_query_is_422_under_a_small_eval_budget() {
    for transport in transports() {
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
        let demo = start(transport, s, HttpConfig::default());
        // The whole-view path is fine under the budget...
        let (code2, body2) = get(demo.addr(), OK_TARGET);
        assert_eq!(code2, 200, "{transport}: {body2}");
        // ...but the hostile requester-supplied query is a typed 422.
        let (code, body) = get(demo.addr(), &format!("{OK_TARGET}&q=%2F%2F*%2F%2F*"));
        assert_eq!(code, 422, "{transport}: {body}");
        // And the server still serves afterwards.
        let (code3, _) = get(demo.addr(), OK_TARGET);
        assert_eq!(code3, 200, "{transport}");
    }
}

/// An over-long request line is 431 and the transport keeps serving.
/// Shared by the pool test here and its event-loop twin below.
fn assert_oversized_request_line_is_431(transport: Transport) {
    let demo = start(transport, base_server(), HttpConfig::default());
    let long = "x".repeat(16 * 1024);
    let (code, _) = get(demo.addr(), &format!("/doc.xml?user={long}"));
    assert_eq!(code, 431, "{transport}");
    let (code2, body2) = get(demo.addr(), OK_TARGET);
    assert_eq!(code2, 200, "{transport}: {body2}");
    assert!(body2.contains("hello"), "{transport}: {body2}");
}

/// A stalled connection is reaped by the read timeout and the worker
/// (or loop slot) it occupied is free again. Shared like the above.
fn assert_slow_loris_is_reaped(transport: Transport) {
    let cfg = HttpConfig { read_timeout: Duration::from_millis(300), ..Default::default() };
    let demo = start(transport, base_server(), cfg);

    // Hold a connection open, dribbling no further bytes.
    let mut conn = TcpStream::connect(demo.addr()).expect("connect");
    write!(conn, "GET /doc").expect("write");
    conn.flush().expect("flush");
    let t = Instant::now();
    let mut buf = String::new();
    let _ = conn.read_to_string(&mut buf);
    assert!(t.elapsed() < Duration::from_secs(3), "{transport}: stalled connection kept");
    assert!(buf.is_empty() || buf.starts_with("HTTP/1.0 408"), "{transport}: {buf}");

    let (code, _) = get(demo.addr(), OK_TARGET);
    assert_eq!(code, 200, "{transport}");
}

#[test]
fn oversized_request_line_is_431() {
    assert_oversized_request_line_is_431(Transport::Pool);
}

#[test]
fn slow_loris_is_reaped_by_the_read_timeout() {
    assert_slow_loris_is_reaped(Transport::Pool);
}

/// Keep-alive + slow-loris interaction on a single-worker pool. A
/// client that asks for keep-alive and pipelines a second request gets
/// exactly one response (the pool speaks strict one-shot HTTP/1.0: the
/// pipelined leftovers are read with the first request and discarded),
/// and a loris reaped mid-request right after it must leave the worker
/// clean: the next request on that same worker is served untainted.
#[test]
fn keepalive_pipelining_and_loris_do_not_poison_the_worker() {
    let cfg =
        HttpConfig { workers: 1, read_timeout: Duration::from_millis(300), ..Default::default() };
    let demo = HttpDemo::start_with(base_server(), "127.0.0.1:0", cfg).expect("bind");

    // 1. Keep-alive request with a pipelined follow-up in the same
    // segment: exactly one response, then a clean close. The trailing
    // bytes must be discarded, never parsed as a second request.
    let mut conn = TcpStream::connect(demo.addr()).expect("connect");
    write!(
        conn,
        "GET {OK_TARGET} HTTP/1.0\r\nHost: t\r\nConnection: keep-alive\r\n\r\n\
         GET {OK_TARGET} HTTP/1.0\r\nHost: t\r\n\r\n"
    )
    .expect("write");
    let mut buf = String::new();
    conn.read_to_string(&mut buf).expect("read");
    assert!(buf.starts_with("HTTP/1.0 200"), "{buf}");
    assert!(buf.contains("hello"), "{buf}");
    assert_eq!(
        buf.matches("HTTP/1.0 ").count(),
        1,
        "pipelined bytes must be discarded, not answered: {buf}"
    );

    // 2. A slow loris on the same (only) worker, reaped by the read
    // timeout mid-request-line.
    let mut loris = TcpStream::connect(demo.addr()).expect("connect");
    write!(loris, "GET /doc.xml?user=to").expect("write");
    loris.flush().expect("flush");
    let t = Instant::now();
    let mut lbuf = String::new();
    let _ = loris.read_to_string(&mut lbuf);
    assert!(t.elapsed() < Duration::from_secs(3), "loris was not reaped");
    assert!(lbuf.is_empty() || lbuf.starts_with("HTTP/1.0 408"), "{lbuf}");

    // 3. The worker that just serviced both misbehaving connections
    // serves a fresh request with no leftover state.
    let (code, body) = get(demo.addr(), OK_TARGET);
    assert_eq!(code, 200, "{body}");
    assert!(body.contains("hello"), "{body}");
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

// ---------------------------------------------------------------------
// The two transports side by side. The corpus above already runs on
// both; these tests pin the one sanctioned behavioral difference (the
// event loop answers pipelined keep-alive requests instead of
// discarding them) and hold the transports byte-identical on a fixed
// script.
// ---------------------------------------------------------------------

#[cfg(target_os = "linux")]
mod epoll_transport {
    use super::*;
    use xmlsec::authz::Action;
    use xmlsec::server::EpollDemo;

    #[test]
    fn oversized_request_line_is_431_and_loop_keeps_serving() {
        assert_oversized_request_line_is_431(Transport::Epoll);
    }

    #[test]
    fn slow_loris_is_reaped_by_the_read_deadline() {
        assert_slow_loris_is_reaped(Transport::Epoll);
    }

    /// Where the pool discards pipelined bytes after its one-shot
    /// response, the event loop parses and answers them in order: a
    /// keep-alive request with a pipelined follow-up gets BOTH
    /// responses on the one connection.
    #[test]
    fn keep_alive_pipelining_answers_both_requests() {
        let demo = EpollDemo::start(base_server(), "127.0.0.1:0").expect("bind");
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

    /// [`base_server`] plus a DTD-backed `w.xml` that `ed` may write.
    /// `tom` holds no write authorization at all, so the static
    /// pre-flight refuses his batches before touching the document.
    fn script_server() -> SecureServer {
        let mut dir = Directory::new();
        dir.add_user("tom").expect("add user");
        dir.add_user("ed").expect("add user");
        let mut base = AuthorizationBase::new();
        base.add(Authorization::new(
            Subject::new("tom", "*", "*").expect("subject"),
            ObjectSpec::with_path("doc.xml", "/d").expect("object"),
            Sign::Plus,
            AuthType::Recursive,
        ));
        for action in [Action::Read, Action::Write] {
            base.add(
                Authorization::new(
                    Subject::new("ed", "*", "*").expect("subject"),
                    ObjectSpec::whole("w.dtd"),
                    Sign::Plus,
                    AuthType::Recursive,
                )
                .with_action(action),
            );
        }
        let mut s = SecureServer::new(dir, base);
        s.register_credentials("tom", "pw");
        s.register_credentials("ed", "pw");
        s.repository_mut().put_document("doc.xml", "<d><pub>hello</pub></d>", None);
        s.repository_mut()
            .put_dtd("w.dtd", "<!ELEMENT w (pub)>\n<!ELEMENT pub (#PCDATA)>");
        s.repository_mut().put_document("w.xml", "<w><pub>v1</pub></w>", Some("w.dtd"));
        s
    }

    /// Differential oracle: a fixed request script must produce
    /// byte-identical responses on both transports. Every response the
    /// demo renders is deterministic (no Date header; the ETag is a
    /// content hash), and with plain HTTP/1.0 requests both transports
    /// resolve keep-alive to `close`, so even the Connection header
    /// agrees. Both transports route through one request core, so this
    /// is structural now; it stays as the guard on the drivers.
    #[test]
    fn transports_agree_byte_for_byte_on_a_fixed_script() {
        fn exchange(addr: SocketAddr, request: &str, half_close: bool) -> Vec<u8> {
            let mut conn = TcpStream::connect(addr).expect("connect");
            conn.write_all(request.as_bytes()).expect("write");
            if half_close {
                conn.shutdown(Shutdown::Write).expect("half-close");
            }
            let mut buf = Vec::new();
            conn.read_to_end(&mut buf).expect("read");
            buf
        }
        let raw = |addr, request: &str| exchange(addr, request, false);

        let script: Vec<String> = vec![
            // Cold view, then the warm cache hit.
            format!("GET {OK_TARGET} HTTP/1.0\r\nHost: t\r\n\r\n"),
            format!("GET {OK_TARGET} HTTP/1.0\r\nHost: t\r\n\r\n"),
            // Wrong password, missing document, malformed request line.
            "GET /doc.xml?user=tom&pass=nope&ip=1.2.3.4&host=h.x.org HTTP/1.0\r\n\r\n".to_string(),
            "GET /missing.xml?user=tom&pass=pw&ip=1.2.3.4&host=h.x.org HTTP/1.0\r\n\r\n"
                .to_string(),
            "NONSENSE\r\n\r\n".to_string(),
            // A secure query (%2Fd%2Fpub = /d/pub).
            format!("GET {OK_TARGET}&q=%2Fd%2Fpub HTTP/1.0\r\nHost: t\r\n\r\n"),
        ];

        let pool = HttpDemo::start(script_server(), "127.0.0.1:0").expect("bind pool");
        let epoll = EpollDemo::start(script_server(), "127.0.0.1:0").expect("bind epoll");
        let agree = |step: &str, a: &[u8], b: &[u8]| {
            assert_eq!(
                a,
                b,
                "script step {step} diverged:\n--- pool ---\n{}\n--- epoll ---\n{}",
                String::from_utf8_lossy(a),
                String::from_utf8_lossy(b)
            );
        };

        let mut etag = None;
        for (i, req) in script.iter().enumerate() {
            let a = raw(pool.addr(), req);
            let b = raw(epoll.addr(), req);
            agree(&i.to_string(), &a, &b);
            if etag.is_none() {
                let text = String::from_utf8_lossy(&a).into_owned();
                etag = text.lines().find_map(|l| l.strip_prefix("ETag: ").map(str::to_string));
            }
        }

        // Conditional revalidation with the (identical) captured tag:
        // both transports answer 304 with the same bytes.
        let tag = etag.expect("view response carries an ETag");
        let cond = format!("GET {OK_TARGET} HTTP/1.0\r\nHost: t\r\nIf-None-Match: {tag}\r\n\r\n");
        let a = raw(pool.addr(), &cond);
        let b = raw(epoll.addr(), &cond);
        assert!(String::from_utf8_lossy(&a).starts_with("HTTP/1.0 304"), "{a:?}");
        assert_eq!(a, b, "304 revalidation diverged");

        // Writes. One check order on both: the request line, then the
        // declared length, then the body, then the ops.
        const ED: &str = "/update?doc=w.xml&user=ed&pass=pw&ip=1.2.3.4&host=h.x.org";
        const TOM: &str = "/update?doc=w.xml&user=tom&pass=pw&ip=1.2.3.4&host=h.x.org";
        // One byte over the 256 KiB update-body cap.
        const OVER_CAP: usize = 256 * 1024 + 1;
        let post = |target: &str, body: &str| {
            format!(
                "POST {target} HTTP/1.0\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
        };
        let posts: Vec<(&str, String, u16)> = vec![
            ("successful batch", post(ED, "settext /w/pub\tv2\n"), 200),
            (
                "batch larger than the head caps",
                post(ED, &format!("#{}\nsettext /w/pub\tv3\n", "x".repeat(48 * 1024))),
                200,
            ),
            ("malformed /update line", post("/update?user=ed&pass=pw", "settext /w/pub\tx\n"), 400),
            ("bad op", post(ED, "# first\nfrobnicate /w\n"), 400),
            ("static denial", post(TOM, "# first\nsettext /w/pub\tstolen\n"), 403),
            ("no length", format!("POST {ED} HTTP/1.0\r\nHost: t\r\n\r\n"), 411),
            (
                "declared length over the cap",
                format!("POST {ED} HTTP/1.0\r\nHost: t\r\nContent-Length: {OVER_CAP}\r\n\r\n"),
                413,
            ),
            (
                "oversized body on another path",
                "POST /nope HTTP/1.0\r\nContent-Length: 999999999\r\n\r\n".to_string(),
                400,
            ),
        ];
        for (step, req, code) in &posts {
            let a = raw(pool.addr(), req);
            let b = raw(epoll.addr(), req);
            agree(step, &a, &b);
            let text = String::from_utf8_lossy(&a);
            assert!(text.starts_with(&format!("HTTP/1.0 {code} ")), "{step}: {text}");
        }
        let denied = String::from_utf8_lossy(&raw(pool.addr(), &posts[4].1)).into_owned();
        assert!(denied.contains("update denied: line 2:"), "the 403 names its line: {denied}");
        let bad_op = String::from_utf8_lossy(&raw(pool.addr(), &posts[3].1)).into_owned();
        assert!(bad_op.contains("line 2"), "the 400 names its line: {bad_op}");

        // Requests that arrive together with the client's half-close are
        // answered like any other; a head the half-close cuts off before
        // its blank line is closed without an answer.
        let half: Vec<(&str, String, Option<u16>)> = vec![
            (
                "half-closed 404",
                "GET /missing.xml?user=tom&pass=pw&ip=1.2.3.4&host=h.x.org HTTP/1.0\r\n\r\n".into(),
                Some(404),
            ),
            (
                "half-closed 401",
                "GET /doc.xml?user=tom&pass=nope&ip=1.2.3.4&host=h.x.org HTTP/1.0\r\n\r\n".into(),
                Some(401),
            ),
            (
                "half-closed 413",
                format!("POST {ED} HTTP/1.0\r\nContent-Length: {OVER_CAP}\r\n\r\n"),
                Some(413),
            ),
            ("half-closed warm hit", format!("GET {OK_TARGET} HTTP/1.0\r\n\r\n"), Some(200)),
            ("truncated head", "GET /missing.xml HTTP/1.0\r\n".into(), None),
        ];
        for (step, req, code) in &half {
            let a = exchange(pool.addr(), req, true);
            let b = exchange(epoll.addr(), req, true);
            agree(step, &a, &b);
            let text = String::from_utf8_lossy(&a);
            match code {
                Some(code) => {
                    assert!(text.starts_with(&format!("HTTP/1.0 {code} ")), "{step}: {text}")
                }
                None => assert!(a.is_empty(), "{step}: {text}"),
            }
        }
    }
}

/// Graceful shutdown drains queued work before returning.
#[test]
fn shutdown_drains_in_flight_requests() {
    for transport in transports() {
        let cfg = HttpConfig { drain_timeout: Duration::from_secs(5), ..Default::default() };
        let mut demo = start(transport, base_server(), cfg);
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
        assert!(buf.starts_with("HTTP/1.0 200"), "{transport}: {buf}");
    }
}

#[test]
fn concurrent_readers_and_writers_interleave_without_torn_views() {
    for transport in transports() {
        // Readers hammer the view path while writers commit update batches
        // over real sockets. Every reader must see a *committed* revision —
        // the seed text or some writer's value, never a torn mix, never a
        // 5xx — and every write must commit (the repository write lock
        // serializes them; the transports queue, they do not fail).
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
        let mut demo = start(transport, s, cfg);
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
                    assert!(
                        resp.starts_with("HTTP/1.0 200"),
                        "{transport}: every write commits: {resp}"
                    );
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
            assert!(
                resp.starts_with("HTTP/1.0 200"),
                "{transport}: readers never see an error: {resp}"
            );
            let body = resp.split_once("\r\n\r\n").map(|(_, b)| b).unwrap_or("");
            // A committed revision is exactly one <pub> holding the seed
            // text or one writer value — anything else is a torn view.
            let inner = body
                .split_once("<pub>")
                .and_then(|(_, rest)| rest.split_once("</pub>"))
                .map(|(v, _)| v)
                .unwrap_or_else(|| panic!("view shape: {body}"));
            let committed = inner == "seed"
                || (inner.starts_with('w') && inner.contains('-') && inner.len() <= 8);
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
}
