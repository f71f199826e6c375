//! The paper's running example, end to end: Figure 1's DTD, Figure 3's
//! CSlab document, Example 1's authorizations, and Example 2's requester
//! Tom — printing each artifact the way the paper draws it.
//!
//! Run with: `cargo run --example laboratory`

use xmlsec::prelude::*;
use xmlsec::workload::laboratory::*;

fn main() {
    // --- Figure 1: the DTD and its tree --------------------------------
    let dtd = parse_dtd(LAB_DTD).expect("Figure 1(a) DTD");
    println!("== Figure 1(a): laboratory DTD ==\n{}", serialize_dtd(&dtd));
    let tree = xmlsec::dtd::dtd_tree(&dtd, "laboratory").expect("declared root");
    println!("== Figure 1(b): DTD tree ==\n{}", xmlsec::dtd::render_dtd_tree(&tree));

    // --- Figure 3(a): the document --------------------------------------
    let doc = parse(CSLAB_XML).expect("CSlab.xml");
    println!("== Figure 3(a): CSlab.xml tree ==\n{}", render_tree(&doc));

    // --- Example 1: the authorizations ----------------------------------
    println!("== Example 1: access authorizations ==");
    for a in example1_authorizations() {
        println!("  {a}");
    }

    // --- Example 2: Tom's request ---------------------------------------
    let requester = tom();
    println!("\n== Example 2: requester {requester} ==");

    let dir = lab_directory();
    let base = lab_authorization_base();
    let axml = base.applicable(CSLAB_URI, &requester, &dir);
    let adtd = base.applicable(LAB_DTD_URI, &requester, &dir);
    println!("applicable: {} instance-level, {} schema-level", axml.len(), adtd.len());

    // The labeling (the signs Figure 3(b) visualizes)…
    let labeling =
        xmlsec::core::label_document(&doc, &axml, &adtd, &dir, PolicyConfig::paper_default());
    println!(
        "\n== labeled tree (final signs) ==\n{}",
        xmlsec::core::render_labeled(&doc, &labeling)
    );

    // …and the full processor pipeline.
    let processor = SecurityProcessor::new(dir, base);
    let out = processor
        .process(
            &AccessRequest { requester, uri: CSLAB_URI.to_string() },
            &DocumentSource {
                xml: CSLAB_XML,
                dtd: Some(LAB_DTD),
                dtd_uri: Some(LAB_DTD_URI),
                ..Default::default()
            },
        )
        .expect("pipeline");

    println!("== Figure 3(b): Tom's view ==\n{}", render_tree(&out.view));
    println!("== unparsed view ==\n{}", out.xml);
    println!("== loosened DTD shipped with it ==\n{}", out.loosened_dtd.as_deref().unwrap());

    let expected = parse(TOM_VIEW_XML).unwrap();
    assert!(out.view.structurally_equal(&expected), "must match the reproduced Figure 3(b)");
    println!("view matches the reproduced Figure 3(b) ✓");
}
