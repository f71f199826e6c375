//! Processor integration: DOCTYPE internal-subset schemas and
//! attribute-default normalization interacting with conditions.

use xmlsec::prelude::*;

#[test]
fn internal_subset_serves_as_schema() {
    // No external DTD: the DOCTYPE's internal subset is the schema, so
    // the loosened DTD still ships and validation still applies.
    let xml = r#"<!DOCTYPE memo [
        <!ELEMENT memo (body)>
        <!ELEMENT body (#PCDATA)>
        <!ATTLIST memo class CDATA "public">
    ]><memo><body>hi</body></memo>"#;

    let mut dir = Directory::new();
    dir.add_user("u").unwrap();
    let mut base = AuthorizationBase::new();
    base.add(Authorization::new(
        Subject::new("u", "*", "*").unwrap(),
        ObjectSpec::with_path("memo.xml", r#"/memo[./@class="public"]"#).unwrap(),
        Sign::Plus,
        AuthType::Recursive,
    ));
    let mut processor = SecurityProcessor::new(dir, base);
    processor.options.validate_input = true;

    let out = processor
        .process(
            &AccessRequest {
                requester: Requester::new("u", "1.2.3.4", "h.x.org").unwrap(),
                uri: "memo.xml".to_string(),
            },
            &DocumentSource { xml, dtd: None, dtd_uri: None, ..Default::default() },
        )
        .unwrap();

    // The defaulted @class was injected, so the condition matched and the
    // memo is visible — including the now-materialized attribute.
    assert!(out.xml.contains("hi"), "{}", out.xml);
    assert!(out.xml.contains(r#"class="public""#), "{}", out.xml);
    // The loosened internal-subset DTD ships with the view.
    let loosened = parse_dtd(out.loosened_dtd.as_deref().unwrap()).unwrap();
    assert!(loosened.element("memo").is_some());
}

#[test]
fn conditions_on_defaulted_attributes_match_uniformly() {
    // Two projects: one spells status="active" out, one relies on the
    // DTD default. An authorization conditioned on @status must treat
    // them identically.
    let dtd_text = r#"<!ELEMENT lab (project*)>
        <!ELEMENT project (#PCDATA)>
        <!ATTLIST project status CDATA "active">"#;
    let xml = r#"<lab><project status="active">a</project><project>b</project><project status="done">c</project></lab>"#;

    let mut dir = Directory::new();
    dir.add_user("u").unwrap();
    let mut base = AuthorizationBase::new();
    base.add(Authorization::new(
        Subject::new("u", "*", "*").unwrap(),
        ObjectSpec::with_path("lab.xml", r#"/lab/project[./@status="active"]"#).unwrap(),
        Sign::Plus,
        AuthType::Recursive,
    ));
    let processor = SecurityProcessor::new(dir, base);
    let out = processor
        .process(
            &AccessRequest {
                requester: Requester::new("u", "1.2.3.4", "h.x.org").unwrap(),
                uri: "lab.xml".to_string(),
            },
            &DocumentSource {
                xml,
                dtd: Some(dtd_text),
                dtd_uri: Some("lab.dtd"),
                ..Default::default()
            },
        )
        .unwrap();
    assert!(out.xml.contains(">a<"), "{}", out.xml);
    assert!(out.xml.contains(">b<"), "explicit and defaulted must match: {}", out.xml);
    assert!(!out.xml.contains(">c<"), "{}", out.xml);
}

#[test]
fn external_dtd_takes_precedence_over_internal_subset() {
    let xml = r#"<!DOCTYPE a [<!ELEMENT a (#PCDATA)>]><a>t</a>"#;
    // External DTD disagrees (a must be EMPTY): validation follows it.
    let mut processor = SecurityProcessor::default();
    processor.options.validate_input = true;
    let req = AccessRequest {
        requester: Requester::new("u", "1.2.3.4", "h.x.org").unwrap(),
        uri: "a.xml".to_string(),
    };
    let err = processor
        .process(
            &req,
            &DocumentSource {
                xml,
                dtd: Some("<!ELEMENT a EMPTY>"),
                dtd_uri: None,
                ..Default::default()
            },
        )
        .unwrap_err();
    assert!(matches!(err, xmlsec::core::ProcessError::Invalid(_)));
    // With only the internal subset, the document is fine.
    assert!(processor
        .process(&req, &DocumentSource { xml, dtd: None, dtd_uri: None, ..Default::default() })
        .is_ok());
}
