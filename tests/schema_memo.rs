//! The per-revision memos on the server's cache-miss path.
//!
//! A stored DTD is parsed and loosened once, when it is stored. A stored
//! revision is parsed and normalized once, and validated against its DTD
//! at most once, by whichever path — read or update pre-flight — gets
//! there first; a commit's DOM is the next revision's, so it is never
//! parsed. These tests pin that the validity memo resets whenever the
//! revision or its DTD changes, that views stay byte-identical to a
//! fresh cache-less server's, that a parse error is kept like a DOM and
//! a cancelled parse is not, and, by counting pipeline stage samples,
//! that repeated misses on one revision neither reparse, parse the DTD,
//! nor revalidate.
//!
//! The stage counts are process-global telemetry, so every test here
//! holds [`LOCK`] while it issues requests.

use std::sync::Mutex;
use xmlsec::prelude::*;
use xmlsec::server::parse_update_ops;
use xmlsec::telemetry;
use xmlsec_authz::{Action, AuthType, AuthorizationBase, ObjectSpec, Sign};

static LOCK: Mutex<()> = Mutex::new(());

const DTD: &str = "<!ELEMENT d (pub, note?)>\n<!ELEMENT pub (#PCDATA)>\n<!ELEMENT note (#PCDATA)>";
/// Makes the stored document invalid: `note` becomes required.
const STRICT_DTD: &str =
    "<!ELEMENT d (pub, note)>\n<!ELEMENT pub (#PCDATA)>\n<!ELEMENT note (#PCDATA)>";
const DOC: &str = "<d><pub>hello</pub></d>";

/// Builds a server holding `doc` under `dtd`: `tom` reads `/d/pub`,
/// `ed` reads everything and may write the whole schema, `pat` may
/// write only `/d/pub`.
fn server(dtd: &str, doc: &str) -> SecureServer {
    let mut dir = Directory::new();
    for user in ["tom", "ed", "pat"] {
        dir.add_user(user).expect("add user");
    }
    let mut base = AuthorizationBase::new();
    let read = |user: &str, path: &str| {
        Authorization::new(
            Subject::new(user, "*", "*").expect("subject"),
            ObjectSpec::with_path("doc.xml", path).expect("object"),
            Sign::Plus,
            AuthType::Recursive,
        )
    };
    base.add(read("tom", "/d/pub"));
    base.add(read("ed", "/d"));
    let write = |user: &str, object: ObjectSpec| {
        Authorization::new(
            Subject::new(user, "*", "*").expect("subject"),
            object,
            Sign::Plus,
            AuthType::Recursive,
        )
        .with_action(Action::Write)
    };
    base.add(write("ed", ObjectSpec::whole("d.dtd")));
    base.add(write("pat", ObjectSpec::with_path("d.dtd", "/d/pub").expect("object")));
    let mut s = SecureServer::new(dir, base);
    for user in ["tom", "ed", "pat"] {
        s.register_credentials(user, "pw");
    }
    s.repository_mut().put_dtd("d.dtd", dtd);
    s.repository_mut().put_document("doc.xml", doc, Some("d.dtd"));
    s
}

fn request(user: &str) -> ClientRequest {
    ClientRequest {
        user: Some((user.into(), "pw".into())),
        ip: "1.2.3.4".into(),
        sym: "h.x.org".into(),
        uri: "doc.xml".into(),
    }
}

fn memo(s: &SecureServer) -> Option<bool> {
    s.repository()
        .document("doc.xml")
        .expect("stored")
        .schema_valid()
        .get()
        .copied()
}

/// Asserts that every user's view from `s` is byte-identical (body,
/// loosened DTD, entity tag) to a fresh cache-less server's holding the
/// same stored bytes.
fn assert_views_match_fresh(s: &SecureServer) {
    let (dtd, doc) = {
        let repo = s.repository();
        (
            repo.dtd("d.dtd").expect("dtd").to_string(),
            repo.document("doc.xml").expect("doc").xml.clone(),
        )
    };
    let fresh = server(&dtd, &doc).without_cache();
    for user in ["tom", "ed"] {
        let got = s.handle(&request(user)).expect("view");
        let want = fresh.handle(&request(user)).expect("fresh view");
        assert_eq!(got.xml, want.xml, "{user}");
        assert_eq!(got.loosened_dtd, want.loosened_dtd, "{user}");
        assert_eq!(got.etag, want.etag, "{user}");
    }
}

#[test]
fn the_validity_memo_resets_with_every_revision_and_views_stay_identical() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut s = server(DTD, DOC);
    assert_eq!(memo(&s), None, "a stored revision starts unchecked");
    assert_views_match_fresh(&s);
    assert_eq!(memo(&s), Some(true), "the first miss records the validity");

    // A DTD under which the stored document is invalid.
    s.repository_mut().put_dtd("d.dtd", STRICT_DTD);
    assert_eq!(memo(&s), None, "put_dtd resets the memo");
    assert_views_match_fresh(&s);
    assert_eq!(memo(&s), Some(false));

    // A committed update that makes the document valid again. The memo
    // held `false`, so it reads `true` only because the commit started
    // a new revision and recorded its own post-validation.
    let ops = parse_update_ops("insertsub /d\t<note>n</note>").expect("ops");
    s.update(&request("ed"), &ops).expect("commit");
    assert_eq!(memo(&s), Some(true), "the commit resets the memo");
    assert_views_match_fresh(&s);

    // A committed update that keeps it valid.
    let ops = parse_update_ops("settext /d/pub\tnew text").expect("ops");
    s.update(&request("ed"), &ops).expect("commit");
    assert_eq!(memo(&s), Some(true));
    assert_views_match_fresh(&s);

    // put_document starts a new, unchecked revision; this one is
    // invalid again (no `note`).
    s.repository_mut().put_document("doc.xml", DOC, Some("d.dtd"));
    assert_eq!(memo(&s), None, "put_document resets the memo");
    assert_views_match_fresh(&s);
    assert_eq!(memo(&s), Some(false));
}

#[test]
fn the_update_preflight_and_the_read_path_share_one_memo() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let s = server(DTD, DOC).without_cache();
    // `pat`'s grant is not schema-wide, so the pre-flight needs the
    // revision's validity; the batch then fails (no such element), so
    // nothing is committed.
    let ops = parse_update_ops("settext /d/nothing\tx").expect("ops");
    assert!(s.update(&request("pat"), &ops).is_err());
    assert_eq!(memo(&s), Some(true), "the pre-flight recorded the validity");
    let validations = stage_samples("validate");
    s.handle(&request("tom")).expect("view");
    assert_eq!(stage_samples("validate"), validations, "the read path used the same memo");
}

#[test]
fn a_dtd_that_does_not_parse_gives_the_same_error_on_every_request() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let s = server("<!ELEMENT d (pub", DOC);
    let parse_error = xmlsec::dtd::parse_dtd("<!ELEMENT d (pub").unwrap_err();
    let read_error = ServerError::Processing(format!("DTD parsing failed: {parse_error}"));
    for _ in 0..3 {
        assert_eq!(s.handle(&request("tom")).unwrap_err(), read_error);
    }
    let ops = parse_update_ops("settext /d/pub\tx").expect("ops");
    for _ in 0..2 {
        let err = s.update(&request("ed"), &ops).unwrap_err();
        assert_eq!(err, ServerError::Processing(parse_error.to_string()));
    }
}

/// Observation count of the `stage` series of the pipeline stage
/// histogram.
fn stage_samples(stage: &str) -> u64 {
    let prefix = format!("xmlsec_pipeline_stage_duration_seconds_count{{stage=\"{stage}\"}}");
    telemetry::global()
        .render_prometheus()
        .lines()
        .find(|l| l.starts_with(&prefix))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

#[test]
fn misses_on_one_revision_validate_once_and_never_parse_the_dtd() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    const MISSES: u64 = 6;
    const STAGES: [&str; 5] = ["parse", "normalize", "prune", "dtd_parse", "validate"];
    let s = server(DTD, DOC).without_cache();
    let samples = || STAGES.map(stage_samples);
    let misses = || {
        for i in 0..MISSES {
            let user = if i % 2 == 0 { "tom" } else { "ed" };
            assert!(!s.handle(&request(user)).expect("view").cached);
        }
    };
    let before = samples();
    misses();
    let after = samples();
    let delta: Vec<u64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
    assert_eq!(delta[0], 1, "one parse per revision, not one per miss");
    assert_eq!(delta[1], 1, "one normalization per revision");
    assert_eq!(delta[2], 0, "views are rendered from the shared DOM, never pruned");
    assert_eq!(delta[3], 0, "the stored DTD is never parsed on a miss");
    assert_eq!(delta[4], 1, "one compile-gate validation per revision");

    // A commit's DOM is the next revision's: neither the commit nor the
    // misses on the committed revision parse or normalize anything.
    let ops = parse_update_ops("settext /d/pub\tnew text").expect("ops");
    s.update(&request("ed"), &ops).expect("commit");
    misses();
    let delta: Vec<u64> = samples().iter().zip(after).map(|(a, b)| a - b).collect();
    assert_eq!(delta[..4], [0, 0, 0, 0], "parse, normalize, prune, dtd_parse");
    assert_eq!(delta[4], 0, "the commit recorded its post-validation");
    assert_views_match_fresh(&s);
}

/// A process-wide counter, read from the global registry.
fn counter(name: &str) -> u64 {
    telemetry::global()
        .render_prometheus()
        .lines()
        .find(|l| l.starts_with(name) && !l.starts_with('#'))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

#[test]
fn a_stored_depth_bomb_gets_the_same_422_without_being_reparsed() {
    use std::io::{Read, Write};
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut bomb = "<d>".repeat(2000);
    bomb.push_str(&"</d>".repeat(2000));
    let mut s = server(DTD, DOC);
    s.repository_mut().put_document("bomb.xml", &bomb, None);
    let demo = xmlsec::server::HttpDemo::start(s, "127.0.0.1:0").expect("bind");
    let errors = counter("xmlsec_xml_parse_errors_total");
    let answers: Vec<String> = (0..3)
        .map(|_| {
            let mut conn = std::net::TcpStream::connect(demo.addr()).expect("connect");
            let target = "/bomb.xml?user=tom&pass=pw&ip=1.2.3.4&host=h.x.org";
            write!(conn, "GET {target} HTTP/1.0\r\n\r\n").expect("write");
            let mut buf = String::new();
            conn.read_to_string(&mut buf).expect("read");
            buf
        })
        .collect();
    assert!(answers[0].starts_with("HTTP/1.0 422"), "{}", answers[0]);
    assert!(answers[0].contains("resource limit exceeded"), "{}", answers[0]);
    let body = |a: &str| a.split_once("\r\n\r\n").map(|(_, b)| b.to_string());
    for a in &answers[1..] {
        assert!(a.starts_with("HTTP/1.0 422"), "{a}");
        assert_eq!(body(a), body(&answers[0]), "the same typed error every time");
    }
    assert_eq!(
        counter("xmlsec_xml_parse_errors_total"),
        errors + 1,
        "the revision's parse error is kept, not reproduced per request"
    );
}

#[test]
fn a_cancelled_first_parse_is_not_kept() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let s = server(DTD, DOC);
    let token = xmlsec::core::CancelToken::never();
    token.cancel();
    let parses = stage_samples("parse");
    let err = s.handle_cancellable(&request("tom"), None, Some(&token)).unwrap_err();
    assert!(matches!(err, ServerError::Cancelled(_)), "{err:?}");
    assert_eq!(stage_samples("parse"), parses, "the cancelled request parsed nothing");
    assert!(s.repository().parsed_document("doc.xml").is_none(), "and kept nothing");

    let view = s.handle(&request("tom")).expect("the next request parses and serves");
    assert_eq!(stage_samples("parse"), parses + 1);
    let fresh = server(DTD, DOC).without_cache().handle(&request("tom")).expect("fresh view");
    assert_eq!((view.xml, view.etag), (fresh.xml, fresh.etag));
}
