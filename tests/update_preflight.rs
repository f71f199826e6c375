//! End-to-end tests for the static write pre-flight on `POST /update`:
//! guaranteed-denied batches answer a fast 403 that points at the
//! offending op's source line, strict op-grammar violations answer 400
//! with their line, and guaranteed-allow batches commit byte-identically
//! with and without the pre-flight.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use xmlsec::server::{HttpDemo, SecureServer};
use xmlsec_authz::{Action, AuthType, Authorization, AuthorizationBase, ObjectSpec, Sign};
use xmlsec_subjects::{Directory, Subject};

const DTD: &str = "<!ELEMENT d (pub)>\n<!ELEMENT pub (#PCDATA)>";

/// A server with one DTD-backed document; `tom` can read, `ed` holds a
/// whole-schema recursive write grant (the blanket-allow shape).
fn server() -> SecureServer {
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
            ObjectSpec::whole("d.dtd"),
            Sign::Plus,
            AuthType::Recursive,
        )
        .with_action(Action::Write),
    );
    let mut s = SecureServer::new(dir, base);
    s.register_credentials("tom", "pw");
    s.register_credentials("ed", "pw");
    s.repository_mut().put_dtd("d.dtd", DTD);
    s.repository_mut()
        .put_document("doc.xml", "<d><pub>hello</pub></d>", Some("d.dtd"));
    s
}

fn post_update(addr: SocketAddr, user: &str, body: &str) -> (u16, String) {
    let mut conn = TcpStream::connect(addr).expect("connect");
    write!(
        conn,
        "POST /update?doc=doc.xml&user={user}&pass=pw&ip=1.2.3.4&host=h.x.org HTTP/1.0\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("write");
    let mut buf = String::new();
    conn.read_to_string(&mut buf).expect("read");
    let code = buf.split_whitespace().nth(1).and_then(|c| c.parse().ok()).unwrap_or(0);
    let resp = buf.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    (code, resp)
}

fn get_view(addr: SocketAddr, user: &str) -> String {
    let mut conn = TcpStream::connect(addr).expect("connect");
    write!(conn, "GET /doc.xml?user={user}&pass=pw&ip=1.2.3.4&host=h.x.org HTTP/1.0\r\n\r\n")
        .expect("write");
    let mut buf = String::new();
    conn.read_to_string(&mut buf).expect("read");
    buf.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default()
}

/// `tom` holds no write authorization at all, so his write table is
/// unwritable: the pre-flight refuses the batch before parsing or
/// labeling anything, and the 403 names the op's line in the batch the
/// client sent (line 1 is a comment).
#[test]
fn guaranteed_denied_batch_is_403_with_line_number_on_both_transports() {
    let demo = HttpDemo::start(server(), "127.0.0.1:0").expect("bind");
    let body = "# harmless comment\nsettext /d/pub\tstolen\n";
    let (code, resp) = post_update(demo.addr(), "tom", body);
    assert_eq!(code, 403, "{resp}");
    assert!(resp.starts_with("update denied: line 2:"), "{resp}");
}

/// Strict op arity: trailing tab-separated garbage on `setattr`,
/// `insert`, and `delete` is a 400 naming the offending line, not a
/// silently mangled op.
#[test]
fn trailing_garbage_in_op_batch_is_400_with_line_number_on_both_transports() {
    let demo = HttpDemo::start(server(), "127.0.0.1:0").expect("bind");
    for (lineno, body) in [
        (2, "settext /d/pub\tok\nsetattr /d\ta\tb\textra\n"),
        (1, "insert /d\tpub\tmore\n"),
        (3, "# c\n\ndelete /d/pub\tjunk\n"),
    ] {
        let (code, resp) = post_update(demo.addr(), "ed", body);
        assert_eq!(code, 400, "{resp}");
        assert!(
            resp.starts_with(&format!("line {lineno}:")) && resp.contains("trailing fields"),
            "{resp}"
        );
    }
}

/// `ed`'s whole-schema recursive write grant makes every batch
/// guaranteed-allow: the pre-flight skips write-labeling, and the
/// committed document and response are byte-identical to a server with
/// the pre-flight disabled.
#[test]
fn guaranteed_allowed_batch_commits_identically_with_and_without_preflight() {
    let fast = HttpDemo::start(server(), "127.0.0.1:0").expect("bind fast");
    let slow =
        HttpDemo::start(server().without_static_preflight(), "127.0.0.1:0").expect("bind slow");
    let body = "settext /d/pub\tpatched\n";
    let (fc, fb) = post_update(fast.addr(), "ed", body);
    let (sc, sb) = post_update(slow.addr(), "ed", body);
    assert_eq!(fc, 200, "{fb}");
    assert_eq!((fc, fb), (sc, sb), "pre-flight changed the update response");
    let fv = get_view(fast.addr(), "tom");
    let sv = get_view(slow.addr(), "tom");
    assert!(fv.contains("patched"), "{fv}");
    assert_eq!(fv, sv, "pre-flight changed the committed document");
}

/// The pre-flight's verdicts are observable in `/metrics`.
#[test]
fn static_verdicts_are_counted() {
    let demo = HttpDemo::start(server(), "127.0.0.1:0").expect("bind");
    let (dc, _) = post_update(demo.addr(), "tom", "delete /d/pub\n");
    assert_eq!(dc, 403);
    let (ac, _) = post_update(demo.addr(), "ed", "settext /d/pub\tnew\n");
    assert_eq!(ac, 200);
    let metrics = get_view(demo.addr(), "tom"); // warm-up read, ignored
    drop(metrics);
    let mut conn = TcpStream::connect(demo.addr()).expect("connect");
    write!(conn, "GET /metrics HTTP/1.0\r\n\r\n").expect("write");
    let mut buf = String::new();
    conn.read_to_string(&mut buf).expect("read");
    assert!(buf.contains(r#"xmlsec_update_static_verdicts_total{verdict="deny"}"#), "{buf}");
    assert!(buf.contains(r#"xmlsec_update_static_verdicts_total{verdict="allow"}"#), "{buf}");
}
