//! HTTP demonstrator protocol details: loosened-DTD delivery, encoded
//! queries, and location parameters feeding the subject hierarchy.

use std::io::{Read, Write};
use std::net::TcpStream;
use xmlsec::prelude::*;
use xmlsec::workload::laboratory::*;

fn demo() -> xmlsec::server::HttpDemo {
    let mut s = SecureServer::new(lab_directory(), lab_authorization_base());
    s.register_credentials("Tom", "pw");
    s.repository_mut().put_dtd(LAB_DTD_URI, LAB_DTD);
    s.repository_mut().put_document(CSLAB_URI, CSLAB_XML, Some(LAB_DTD_URI));
    xmlsec::server::HttpDemo::start(s, "127.0.0.1:0").expect("bind")
}

fn get(demo: &xmlsec::server::HttpDemo, target: &str) -> (u16, String) {
    let mut conn = TcpStream::connect(demo.addr()).expect("connect");
    write!(conn, "GET {target} HTTP/1.0\r\nHost: t\r\n\r\n").expect("write");
    let mut buf = String::new();
    conn.read_to_string(&mut buf).expect("read");
    let code = buf.split_whitespace().nth(1).and_then(|c| c.parse().ok()).unwrap_or(0);
    let body = buf.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    (code, body)
}

#[test]
fn loosened_dtd_travels_with_the_view() {
    let demo = demo();
    let (code, body) =
        get(&demo, "/CSlab.xml?user=Tom&pass=pw&ip=130.100.50.8&host=infosys.bld1.it");
    assert_eq!(code, 200);
    let (view_part, dtd_part) =
        body.split_once("<!-- loosened DTD -->").expect("DTD marker present");
    let view = parse(view_part.trim()).expect("view is well-formed");
    let loosened = parse_dtd(dtd_part).expect("loosened DTD parses");
    assert_eq!(xmlsec::dtd::validate(&loosened, &view), vec![]);
    assert!(!dtd_part.contains("#REQUIRED"));
}

#[test]
fn location_parameters_drive_the_subject_hierarchy() {
    let demo = demo();
    // Same credentials, different declared host: the *.it grant flips.
    let (_, from_it) =
        get(&demo, "/CSlab.xml?user=Tom&pass=pw&ip=130.100.50.8&host=infosys.bld1.it");
    let (_, from_com) = get(&demo, "/CSlab.xml?user=Tom&pass=pw&ip=130.100.50.8&host=pc.lab.com");
    assert!(from_it.contains("Bob Keen"));
    assert!(!from_com.contains("Bob Keen"));
}

#[test]
fn percent_encoded_queries_with_conditions() {
    let demo = demo();
    // q = //paper[./@category="public"]/title
    let q = "%2F%2Fpaper%5B.%2F%40category%3D%22public%22%5D%2Ftitle";
    let (code, body) = get(
        &demo,
        &format!("/CSlab.xml?user=Tom&pass=pw&ip=130.100.50.8&host=infosys.bld1.it&q={q}"),
    );
    assert_eq!(code, 200);
    assert!(body.contains("<title>An Access Control Model for XML</title>"), "{body}");
    assert!(body.contains("<title>Querying XML</title>"), "{body}");
    assert!(!body.contains("Engine Internals"), "{body}");
}

#[test]
fn conditional_revalidation_over_the_wire() {
    let demo = demo();
    let target = "/CSlab.xml?user=Tom&pass=pw&ip=130.100.50.8&host=infosys.bld1.it";

    // First GET: 200 with a strong ETag and revalidation directives.
    let mut conn = TcpStream::connect(demo.addr()).expect("connect");
    write!(conn, "GET {target} HTTP/1.0\r\nHost: t\r\n\r\n").expect("write");
    let mut buf = String::new();
    conn.read_to_string(&mut buf).expect("read");
    assert!(buf.starts_with("HTTP/1.0 200"), "{buf}");
    let (head, body) = buf.split_once("\r\n\r\n").expect("header block");
    assert!(head.contains("Cache-Control: private, no-cache"), "{head}");
    let etag = head
        .lines()
        .find_map(|l| l.strip_prefix("ETag: "))
        .expect("view response carries an ETag")
        .trim()
        .to_string();
    assert!(etag.starts_with('"') && etag.ends_with('"'), "{etag}");
    assert!(body.contains("<!-- loosened DTD -->"), "{body}");

    // Replay with If-None-Match: 304, empty body, tag restated.
    let mut conn = TcpStream::connect(demo.addr()).expect("connect");
    write!(conn, "GET {target} HTTP/1.0\r\nHost: t\r\nIf-None-Match: {etag}\r\n\r\n")
        .expect("write");
    let mut buf = String::new();
    conn.read_to_string(&mut buf).expect("read");
    assert!(buf.starts_with("HTTP/1.0 304"), "{buf}");
    let (head304, body304) = buf.split_once("\r\n\r\n").expect("header block");
    assert!(body304.is_empty(), "a 304 carries no body: {body304:?}");
    assert!(head304.contains(&format!("ETag: {etag}")), "{head304}");

    // A different requester class gets a different view, hence a
    // different tag — the old tag must NOT revalidate for it.
    let anon = "/CSlab.xml?ip=130.100.50.8&host=pc.lab.com";
    let mut conn = TcpStream::connect(demo.addr()).expect("connect");
    write!(conn, "GET {anon} HTTP/1.0\r\nHost: t\r\nIf-None-Match: {etag}\r\n\r\n").expect("write");
    let mut buf = String::new();
    conn.read_to_string(&mut buf).expect("read");
    assert!(buf.starts_with("HTTP/1.0 200"), "another class must re-render: {buf}");
}

#[test]
fn malformed_ip_parameter_is_bad_request() {
    let demo = demo();
    let (code, _) = get(&demo, "/CSlab.xml?user=Tom&pass=pw&ip=not-an-ip&host=a.b.it");
    assert_eq!(code, 400);
}

#[test]
fn metrics_endpoint_exposes_pipeline_cache_and_request_series() {
    let demo = demo();
    // Two identical requests: the second is served from the view cache,
    // so both the full pipeline and the cache-hit path have run.
    let target = "/CSlab.xml?user=Tom&pass=pw&ip=130.100.50.8&host=infosys.bld1.it";
    let (code1, _) = get(&demo, target);
    let (code2, _) = get(&demo, target);
    assert_eq!((code1, code2), (200, 200));

    let mut conn = TcpStream::connect(demo.addr()).expect("connect");
    write!(conn, "GET /metrics HTTP/1.0\r\nHost: t\r\n\r\n").expect("write");
    let mut buf = String::new();
    conn.read_to_string(&mut buf).expect("read");
    assert!(buf.starts_with("HTTP/1.0 200"), "{buf}");
    assert!(buf.contains("Content-Type: text/plain; version=0.0.4"), "{buf}");
    let body = buf.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();

    // Prometheus exposition structure.
    assert!(body.contains("# HELP xmlsec_requests_total"), "{body}");
    assert!(body.contains("# TYPE xmlsec_requests_total counter"), "{body}");
    assert!(body.contains("# TYPE xmlsec_pipeline_stage_duration_seconds histogram"), "{body}");

    let counter = |name: &str| -> u64 {
        body.lines()
            .find(|l| l.starts_with(name) && !l.starts_with('#'))
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|v| v.parse().ok())
            .unwrap_or(0)
    };
    // Request counters by outcome: one full serve, one cached serve.
    assert!(counter(r#"xmlsec_requests_total{outcome="served"}"#) >= 1, "{body}");
    assert!(counter(r#"xmlsec_requests_total{outcome="served_cached"}"#) >= 1, "{body}");
    // Per-stage pipeline histograms, with le-bucket series in seconds.
    // The server renders views from the revision's DOM and never prunes
    // a copy, so `prune` is a text-path stage only.
    for stage in ["parse", "normalize", "label", "loosen", "serialize"] {
        assert!(
            counter(&format!(r#"xmlsec_pipeline_stage_duration_seconds_count{{stage="{stage}"}}"#))
                >= 1,
            "stage {stage} missing from:\n{body}"
        );
    }
    assert!(
        body.contains(r#"xmlsec_pipeline_stage_duration_seconds_bucket{stage="parse",le="+Inf"}"#),
        "{body}"
    );
    // Cache hit/miss counters.
    assert!(counter("xmlsec_view_cache_hits_total") >= 1, "{body}");
    assert!(counter("xmlsec_view_cache_misses_total") >= 1, "{body}");
    // Content-hash lifecycle: registrations rehash, pipelines are counted.
    assert!(counter(r#"xmlsec_repo_rehash_total{kind="document"}"#) >= 1, "{body}");
    assert!(counter(r#"xmlsec_repo_rehash_total{kind="dtd"}"#) >= 1, "{body}");
    assert!(counter("xmlsec_pipeline_runs_total") >= 1, "{body}");
    // Parser and XPath substrate counters fed by the same requests.
    assert!(counter("xmlsec_xml_parse_documents_total") >= 1, "{body}");
    assert!(counter("xmlsec_xpath_evaluations_total") >= 1, "{body}");
}
