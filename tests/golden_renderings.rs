//! Golden tests pinning the figure renderings — the exact text the
//! `figures` binary and the `laboratory` example print for the paper's
//! Figure 1(b) and Figure 3. If a rendering change is intentional,
//! update the goldens deliberately.

use xmlsec::prelude::*;
use xmlsec::workload::laboratory::*;

#[test]
fn golden_figure1_dtd_tree() {
    let dtd = parse_dtd(LAB_DTD).unwrap();
    let tree = xmlsec::dtd::dtd_tree(&dtd, "laboratory").unwrap();
    let got = xmlsec::dtd::render_dtd_tree(&tree);
    let want = "\
(laboratory)
  |-- [name]
  `-- (project)+
      |-- [name]
      |-- [type]
      |-- (manager)
      |   |-- (flname)
      |   |   `-- #PCDATA
      |   `-- (email)?
      |       `-- #PCDATA
      |-- (member)*
      |   |-- (flname)
      |   |   `-- #PCDATA
      |   `-- (email)?
      |       `-- #PCDATA
      |-- (fund)*
      |   |-- [type]?
      |   |-- (sponsor)
      |   |   `-- #PCDATA
      |   `-- (amount)?
      |       `-- #PCDATA
      `-- (paper)*
          |-- [category]
          |-- [type]?
          |-- (title)
          |   `-- #PCDATA
          `-- (authors)?
              `-- #PCDATA
";
    assert_eq!(got, want, "got:\n{got}");
}

#[test]
fn golden_toms_view_xml() {
    let processor = SecurityProcessor::new(lab_directory(), lab_authorization_base());
    let out = processor
        .process(
            &AccessRequest { requester: tom(), uri: CSLAB_URI.to_string() },
            &DocumentSource {
                xml: CSLAB_XML,
                dtd: Some(LAB_DTD),
                dtd_uri: Some(LAB_DTD_URI),
                ..Default::default()
            },
        )
        .unwrap();
    assert_eq!(out.xml, TOM_VIEW_XML);
}

#[test]
fn golden_loosened_laboratory_dtd() {
    let dtd = parse_dtd(LAB_DTD).unwrap();
    let got = serialize_dtd(&loosen(&dtd));
    let want = "\
<!ELEMENT laboratory (project*)>
<!ATTLIST laboratory
    name CDATA #IMPLIED>
<!ELEMENT project (manager?,member*,fund*,paper*)?>
<!ATTLIST project
    name CDATA #IMPLIED
    type (internal|public) #IMPLIED>
<!ELEMENT manager (flname?,email?)?>
<!ELEMENT member (flname?,email?)?>
<!ELEMENT flname (#PCDATA)>
<!ELEMENT email (#PCDATA)>
<!ELEMENT fund (sponsor?,amount?)?>
<!ATTLIST fund
    type CDATA #IMPLIED>
<!ELEMENT sponsor (#PCDATA)>
<!ELEMENT amount (#PCDATA)>
<!ELEMENT paper (title?,authors?)?>
<!ATTLIST paper
    category (private|public) #IMPLIED
    type CDATA #IMPLIED>
<!ELEMENT title (#PCDATA)>
<!ELEMENT authors (#PCDATA)>
";
    assert_eq!(got, want, "got:\n{got}");
}

#[test]
fn golden_labeled_tree_excerpt() {
    let dir = lab_directory();
    let base = lab_authorization_base();
    let doc = parse(CSLAB_XML).unwrap();
    let axml = base.applicable(CSLAB_URI, &tom(), &dir);
    let adtd = base.applicable(LAB_DTD_URI, &tom(), &dir);
    let labeling =
        xmlsec::core::label_document(&doc, &axml, &adtd, &dir, PolicyConfig::paper_default());
    let rendered = xmlsec::core::render_labeled(&doc, &labeling);
    // Signs the paper's Figure 3(b) encodes: root undefined, private
    // papers minus, public papers plus, public-project manager plus.
    for needle in [
        "(laboratory) [ε]",
        "(paper) [-]",
        "(paper) [+]",
        "(manager) [+]",
        "(manager) [ε]",
        "(fund) [ε]",
    ] {
        assert!(rendered.contains(needle), "missing {needle:?} in:\n{rendered}");
    }
}
