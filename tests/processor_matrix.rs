//! Processor-option matrix and statistics accounting: the §7 pipeline's
//! switches (input validation, view verification) across document shapes,
//! and the bookkeeping invariants of `ViewStats`.

use proptest::prelude::*;
use xmlsec::authz::Authorization;
use xmlsec::core::{AccessRequest, DocumentSource, ProcessorOptions, SecurityProcessor};
use xmlsec::prelude::*;
use xmlsec::workload::{laboratory_scaled, random_auths, AuthConfig};

fn processor(validate_input: bool, verify_view: bool) -> SecurityProcessor {
    use xmlsec::workload::laboratory::*;
    SecurityProcessor {
        directory: lab_directory(),
        authorizations: lab_authorization_base(),
        options: ProcessorOptions {
            policy: PolicyConfig::paper_default(),
            validate_input,
            verify_view,
            ..Default::default()
        },
        decisions: None,
        compiled: None,
    }
}

fn request() -> AccessRequest {
    AccessRequest {
        requester: xmlsec::workload::laboratory::tom(),
        uri: xmlsec::workload::laboratory::CSLAB_URI.to_string(),
    }
}

#[test]
fn all_option_combinations_agree_on_the_view() {
    use xmlsec::workload::laboratory::*;
    let source = DocumentSource {
        xml: CSLAB_XML,
        dtd: Some(LAB_DTD),
        dtd_uri: Some(LAB_DTD_URI),
        ..Default::default()
    };
    let mut views = Vec::new();
    for validate_input in [false, true] {
        for verify_view in [false, true] {
            let out = processor(validate_input, verify_view)
                .process(&request(), &source)
                .expect("valid input passes under every option combination");
            views.push(out.xml);
        }
    }
    assert!(views.windows(2).all(|w| w[0] == w[1]), "options must not change the view");
}

#[test]
fn validation_gates_only_when_enabled() {
    use xmlsec::workload::laboratory::*;
    // A document missing required attributes.
    let invalid = r#"<laboratory><project type="public"><manager><flname>X</flname></manager></project></laboratory>"#;
    let source = DocumentSource {
        xml: invalid,
        dtd: Some(LAB_DTD),
        dtd_uri: Some(LAB_DTD_URI),
        ..Default::default()
    };
    assert!(processor(true, false).process(&request(), &source).is_err());
    assert!(processor(false, false).process(&request(), &source).is_ok());
}

#[test]
fn stats_identities_on_the_laboratory_corpus() {
    use xmlsec::workload::laboratory::*;
    for projects in [1usize, 5, 25] {
        let doc = laboratory_scaled(projects, 17);
        let xml = serialize(&doc, &SerializeOptions::canonical());
        let source = DocumentSource {
            xml: &xml,
            dtd: Some(LAB_DTD),
            dtd_uri: Some(LAB_DTD_URI),
            ..Default::default()
        };
        let out = processor(true, true).process(&request(), &source).unwrap();
        let s = out.stats;
        // labeled = every element + attribute of the source.
        let relabeled: usize = doc.preorder(doc.root()).count();
        assert_eq!(s.labeled_nodes, relabeled);
        assert!(s.granted_nodes <= s.labeled_nodes);
        // reachable(view) + pruned = reachable(source), counting text too.
        assert_eq!(out.view.count_reachable() + s.pruned_nodes, doc.count_reachable());
        // Tom's applicable sets are constant for this corpus.
        assert_eq!(s.instance_auths, 2);
        assert_eq!(s.schema_auths, 1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Stats identities hold for random authorization sets over random
    /// laboratory documents, under both completeness policies.
    #[test]
    fn stats_identities_hold_generally(
        projects in 1usize..12,
        doc_seed in 0u64..100_000,
        auth_seed in 0u64..100_000,
        count in 0usize..12,
        open in any::<bool>(),
    ) {
        let doc = laboratory_scaled(projects, doc_seed);
        let dir = xmlsec::workload::random_directory(4, 3, auth_seed);
        let (inst, _) = random_auths(
            &AuthConfig { count, ..Default::default() }, "d.xml", "d.dtd", auth_seed);
        // Rewrite generated paths onto the laboratory vocabulary where
        // possible; unmatched paths simply select nothing (still a valid
        // stats scenario).
        let ax: Vec<&Authorization> = inst.iter().collect();
        let policy = PolicyConfig {
            completeness: if open { CompletenessPolicy::Open } else { CompletenessPolicy::Closed },
            ..Default::default()
        };
        let (view, stats) = compute_view(&doc, &ax, &[], &dir, policy);
        prop_assert_eq!(stats.labeled_nodes, doc.preorder(doc.root()).count());
        prop_assert!(stats.granted_nodes <= stats.labeled_nodes);
        prop_assert_eq!(
            view.count_reachable() + stats.pruned_nodes,
            doc.count_reachable()
        );
        prop_assert_eq!(stats.instance_auths, ax.len());
        prop_assert_eq!(stats.schema_auths, 0);
    }
}

#[test]
fn verify_view_accepts_every_policy() {
    use xmlsec::workload::laboratory::*;
    // verify_view re-validates the pruned view against the loosened DTD
    // (debug assertion); exercise it across the full policy matrix.
    let source = DocumentSource {
        xml: CSLAB_XML,
        dtd: Some(LAB_DTD),
        dtd_uri: Some(LAB_DTD_URI),
        ..Default::default()
    };
    for conflict in [
        ConflictResolution::MostSpecificThenDenials,
        ConflictResolution::MostSpecificThenPermissions,
        ConflictResolution::DenialsTakePrecedence,
        ConflictResolution::PermissionsTakePrecedence,
        ConflictResolution::NothingTakesPrecedence,
        ConflictResolution::MajoritySign,
    ] {
        for completeness in [CompletenessPolicy::Closed, CompletenessPolicy::Open] {
            let mut p = processor(true, true);
            p.options.policy = PolicyConfig { conflict, completeness };
            let out = p.process(&request(), &source).expect("pipeline");
            let loosened = parse_dtd(out.loosened_dtd.as_deref().unwrap()).unwrap();
            assert_eq!(
                xmlsec::dtd::validate(&loosened, &out.view),
                vec![],
                "policy {conflict:?}/{completeness:?}"
            );
        }
    }
}
