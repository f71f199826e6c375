//! End-to-end reproductions of the paper's figures and worked examples.
//!
//! - **F1** (Figure 1): the laboratory DTD parses and its tree
//!   representation has the figure's shape;
//! - **F3** (Figure 3 + Examples 1–2): Tom's view of CSlab.xml computed
//!   through the full security processor matches the expected document;
//! - **E1** (§3): the worked subject/location-pattern examples;
//! - **E2** (§6.2): loosening makes the pruned view valid.

use xmlsec::prelude::*;
use xmlsec::workload::laboratory::*;

#[test]
fn f1_laboratory_dtd_parses_and_has_figure_shape() {
    let dtd = parse_dtd(LAB_DTD).expect("Figure 1(a) DTD parses");
    // The figure's tree: laboratory → project+ → {@name, @type, manager,
    // member*, fund*, paper*}.
    assert_eq!(dtd.element("laboratory").unwrap().content.to_string(), "(project+)");
    assert_eq!(
        dtd.element("project").unwrap().content.to_string(),
        "(manager,member*,fund*,paper*)"
    );
    let tree = xmlsec::dtd::dtd_tree(&dtd, "laboratory").expect("root declared");
    let drawn = xmlsec::dtd::render_dtd_tree(&tree);
    for marker in ["(laboratory)", "(project)+", "[name]", "[type]", "(manager)", "(paper)*"] {
        assert!(drawn.contains(marker), "missing {marker} in:\n{drawn}");
    }
    // root detection
    assert_eq!(dtd.root_candidates(), vec!["laboratory"]);
}

#[test]
fn f3_toms_view_matches_expected_document() {
    let processor = SecurityProcessor::new(lab_directory(), lab_authorization_base());
    let request = AccessRequest { requester: tom(), uri: CSLAB_URI.to_string() };
    let source = DocumentSource {
        xml: CSLAB_XML,
        dtd: Some(LAB_DTD),
        dtd_uri: Some(LAB_DTD_URI),
        ..Default::default()
    };
    let out = processor.process(&request, &source).expect("pipeline runs");

    let expected = parse(TOM_VIEW_XML).unwrap();
    assert!(
        out.view.structurally_equal(&expected),
        "view mismatch:\n got: {}\n want: {}",
        out.xml,
        TOM_VIEW_XML
    );

    // The narrative checks from Example 2: private papers hidden
    // (Foreign denial at the schema level), public papers and the public
    // project's manager visible.
    assert!(!out.xml.contains("Security Processor Design"));
    assert!(!out.xml.contains("Engine Internals"));
    assert!(out.xml.contains("An Access Control Model for XML"));
    assert!(out.xml.contains("Querying XML"));
    assert!(out.xml.contains("Bob Keen"));
    // Sam Marlow manages the *internal* project: not granted to Tom.
    assert!(!out.xml.contains("Sam Marlow"));
    // Funds and members were never granted.
    assert!(!out.xml.contains("MURST"));
    assert!(!out.xml.contains("Ann Eager"));
}

#[test]
fn f3_view_is_valid_against_loosened_dtd_only() {
    let processor = SecurityProcessor::new(lab_directory(), lab_authorization_base());
    let request = AccessRequest { requester: tom(), uri: CSLAB_URI.to_string() };
    let source = DocumentSource {
        xml: CSLAB_XML,
        dtd: Some(LAB_DTD),
        dtd_uri: Some(LAB_DTD_URI),
        ..Default::default()
    };
    let out = processor.process(&request, &source).unwrap();

    let original = parse_dtd(LAB_DTD).unwrap();
    // The view dropped required attributes (e.g. project/@name): invalid
    // against the original DTD...
    assert!(!xmlsec::dtd::validate(&original, &out.view).is_empty());
    // ... but valid against the loosened DTD the processor shipped.
    let loosened = parse_dtd(out.loosened_dtd.as_deref().unwrap()).unwrap();
    assert_eq!(xmlsec::dtd::validate(&loosened, &out.view), vec![]);
}

#[test]
fn f3_admin_from_authorized_host_sees_internal_projects() {
    // The third Example 1 authorization: Alice ∈ Admin from 130.89.56.8.
    let processor = SecurityProcessor::new(lab_directory(), lab_authorization_base());
    let request = AccessRequest {
        requester: Requester::new("Alice", "130.89.56.8", "admin.lab.com").unwrap(),
        uri: CSLAB_URI.to_string(),
    };
    let source = DocumentSource {
        xml: CSLAB_XML,
        dtd: Some(LAB_DTD),
        dtd_uri: Some(LAB_DTD_URI),
        ..Default::default()
    };
    let out = processor.process(&request, &source).unwrap();
    // Internal project fully visible (including its private paper: Alice
    // is not in Foreign, so the schema denial does not apply).
    assert!(out.xml.contains("Sam Marlow"), "{}", out.xml);
    assert!(out.xml.contains("Security Processor Design"), "{}", out.xml);
    assert!(out.xml.contains("MURST"), "{}", out.xml);
    // The public project's paper is granted via the Public weak grant.
    assert!(out.xml.contains("Querying XML"), "{}", out.xml);

    // Same user from a different host loses the Admin grant.
    let request2 = AccessRequest {
        requester: Requester::new("Alice", "130.89.56.9", "admin.lab.com").unwrap(),
        uri: CSLAB_URI.to_string(),
    };
    let out2 = processor.process(&request2, &source).unwrap();
    assert!(!out2.xml.contains("Sam Marlow"), "{}", out2.xml);
    assert!(!out2.xml.contains("MURST"), "{}", out2.xml);
}

#[test]
fn e1_section3_location_pattern_examples() {
    use xmlsec::subjects::{IpPattern, SymPattern};
    // "151.100.*.*, or equivalently 151.100.*, denotes all the machines
    // belonging to network 151.100"
    let a: IpPattern = "151.100.*.*".parse().unwrap();
    let b: IpPattern = "151.100.*".parse().unwrap();
    assert_eq!(a, b);
    assert!(a.matches(&"151.100.7.9".parse().unwrap()));
    // "*.mil, *.com, and *.it denote all the machines in the Military,
    // Company, and Italy domains"
    for (pat, host) in
        [("*.mil", "x.army.mil"), ("*.com", "tweety.lab.com"), ("*.it", "infosys.bld1.it")]
    {
        let p: SymPattern = pat.parse().unwrap();
        assert!(p.matches(&host.parse().unwrap()), "{pat} should match {host}");
    }
    // Interleaved wildcards are rejected.
    assert!("151.*.30".parse::<IpPattern>().is_err());
    assert!("lab.*.com".parse::<SymPattern>().is_err());
}

#[test]
fn e1_section3_subject_hierarchy_examples() {
    // ⟨Alice, *, *⟩, ⟨Public, 150.100.30.8, *⟩, ⟨Sam, *, *.lab.com⟩
    let dir = lab_directory();
    let alice_any = Subject::new("Alice", "*", "*").unwrap();
    let public_host = Subject::new("Public", "150.100.30.8", "*").unwrap();
    let sam_lab = Subject::new("Sam", "*", "*.lab.com").unwrap();

    let alice_here = Requester::new("Alice", "150.100.30.8", "pc1.lab.com").unwrap();
    assert!(alice_here.is_covered_by(&alice_any, &dir));
    assert!(alice_here.is_covered_by(&public_host, &dir));
    assert!(!alice_here.is_covered_by(&sam_lab, &dir));

    let sam_here = Requester::new("Sam", "1.2.3.4", "pc2.lab.com").unwrap();
    assert!(sam_here.is_covered_by(&sam_lab, &dir));
    let sam_elsewhere = Requester::new("Sam", "1.2.3.4", "pc.other.org").unwrap();
    assert!(!sam_elsewhere.is_covered_by(&sam_lab, &dir));
}

#[test]
fn e2_loosening_of_the_laboratory_dtd() {
    let dtd = parse_dtd(LAB_DTD).unwrap();
    let loosened = loosen(&dtd);
    // required markers gone
    let text = serialize_dtd(&loosened);
    assert!(!text.contains("#REQUIRED"), "{text}");
    // cardinalities optionalized
    assert_eq!(loosened.element("laboratory").unwrap().content.to_string(), "(project*)");
    assert_eq!(
        loosened.element("project").unwrap().content.to_string(),
        "(manager?,member*,fund*,paper*)?"
    );
    // An empty laboratory is now valid — requesters cannot tell pruning
    // from absence.
    let empty = parse("<laboratory/>").unwrap();
    assert_eq!(xmlsec::dtd::validate(&loosened, &empty), vec![]);
    assert!(!xmlsec::dtd::validate(&dtd, &empty).is_empty());
}

#[test]
fn figure2_algorithm_signs_on_the_example() {
    // Check individual label signs on the CSlab tree for Tom (the values
    // the paper's Figure 3(b) visualizes).
    let dir = lab_directory();
    let base = lab_authorization_base();
    let doc = parse(CSLAB_XML).unwrap();
    let axml = base.applicable(CSLAB_URI, &tom(), &dir);
    let adtd = base.applicable(LAB_DTD_URI, &tom(), &dir);
    let labeling =
        xmlsec::core::label_document(&doc, &axml, &adtd, &dir, PolicyConfig::paper_default());

    let private_papers = select(&doc, &parse_path(r#"//paper[./@category="private"]"#).unwrap());
    for p in private_papers {
        assert_eq!(labeling.final_sign(p), Sign3::Minus);
    }
    let public_papers = select(&doc, &parse_path(r#"//paper[./@category="public"]"#).unwrap());
    for p in public_papers {
        assert_eq!(labeling.final_sign(p), Sign3::Plus);
    }
    let root = doc.root();
    assert_eq!(labeling.final_sign(root), Sign3::Eps);
    let managers = select(&doc, &parse_path(r#"project[./@type="public"]/manager"#).unwrap());
    assert_eq!(managers.len(), 1);
    assert_eq!(labeling.final_sign(managers[0]), Sign3::Plus);
}
