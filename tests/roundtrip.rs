//! Substrate round-trip and cross-crate consistency properties.

use proptest::prelude::*;
use xmlsec::prelude::*;
use xmlsec::workload::{laboratory_scaled, random_tree, TreeConfig};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// serialize ∘ parse = identity (structurally) on generated documents.
    #[test]
    fn xml_round_trip(seed in 0u64..1_000_000, elements in 1usize..120) {
        let doc = random_tree(&TreeConfig { elements, ..Default::default() }, seed);
        let text = serialize(&doc, &SerializeOptions::canonical());
        let re = parse(&text).unwrap();
        prop_assert!(doc.structurally_equal(&re), "{text}");
        // And pretty-printing parses back to the same document (whitespace
        // dropped by default parse options).
        let pretty = serialize(&doc, &SerializeOptions::pretty());
        let re2 = parse(&pretty).unwrap();
        prop_assert!(doc.structurally_equal(&re2), "{pretty}");
    }

    /// DTD serialize ∘ parse = identity on the loosened laboratory DTD
    /// and scaled instances stay valid.
    #[test]
    fn scaled_laboratory_valid_and_loosenable(projects in 1usize..40, seed in 0u64..100_000) {
        let dtd = parse_dtd(xmlsec::workload::laboratory::LAB_DTD).unwrap();
        let doc = laboratory_scaled(projects, seed);
        prop_assert_eq!(xmlsec::dtd::validate(&dtd, &doc), vec![]);
        let loosened = loosen(&dtd);
        prop_assert_eq!(xmlsec::dtd::validate(&loosened, &doc), vec![]);
        // loosened DTD round-trips through text
        let text = serialize_dtd(&loosened);
        let re = parse_dtd(&text).unwrap();
        prop_assert_eq!(loosened, re);
    }

    /// XACL round-trip on generated authorization sets.
    #[test]
    fn xacl_round_trip(seed in 0u64..1_000_000, count in 0usize..32) {
        let (mut auths, mut schema) = xmlsec::workload::random_auths(
            &xmlsec::workload::AuthConfig { count, ..Default::default() },
            "d.xml", "d.dtd", seed);
        auths.append(&mut schema);
        let text = serialize_xacl(&auths);
        let parsed = parse_xacl(&text).unwrap();
        prop_assert_eq!(parsed.len(), auths.len());
        for (a, b) in auths.iter().zip(&parsed) {
            prop_assert_eq!(&a.subject, &b.subject);
            prop_assert_eq!(&a.object.uri, &b.object.uri);
            prop_assert_eq!(&a.object.path_text, &b.object.path_text);
            prop_assert_eq!(a.sign, b.sign);
            prop_assert_eq!(a.ty, b.ty);
        }
    }

    /// Any view of any scaled laboratory validates against the loosened
    /// DTD (the paper's §6.2 guarantee), for random requesters.
    #[test]
    fn views_validate_against_loosened_dtd(
        projects in 1usize..20,
        doc_seed in 0u64..100_000,
        auth_seed in 0u64..100_000,
    ) {
        use xmlsec::workload::laboratory::*;
        let doc = laboratory_scaled(projects, doc_seed);
        let xml = serialize(&doc, &SerializeOptions::canonical());
        let dir = lab_directory();
        let base = lab_authorization_base();
        let users = ["Tom", "Alice", "Sam", "anonymous"];
        let user = users[(auth_seed as usize) % users.len()];
        let requester = Requester::new(user, "130.89.56.8", "x.bld1.it").unwrap();
        let processor = SecurityProcessor::new(dir, base);
        let out = processor
            .process(
                &AccessRequest { requester, uri: CSLAB_URI.to_string() },
                &DocumentSource { xml: &xml, dtd: Some(LAB_DTD), dtd_uri: Some(LAB_DTD_URI), ..Default::default() },
            )
            .unwrap();
        let loosened = parse_dtd(out.loosened_dtd.as_deref().unwrap()).unwrap();
        prop_assert_eq!(xmlsec::dtd::validate(&loosened, &out.view), vec![]);
    }

    /// Subject-hierarchy laws: reflexivity and transitivity of ≤ on
    /// generated subjects.
    #[test]
    fn ash_partial_order_laws(seed in 0u64..1_000_000) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let dir = xmlsec::workload::random_directory(6, 4, seed);
        let mut subjects = Vec::new();
        for _ in 0..6 {
            let ug = if rng.gen_bool(0.5) {
                format!("g{}", rng.gen_range(0..4))
            } else {
                format!("u{}", rng.gen_range(0..6))
            };
            let ip = ["*", "10.*", "10.1.*", "10.1.2.3"][rng.gen_range(0..4)];
            let sym = ["*", "*.org", "*.dom1.org", "h1.dom1.org"][rng.gen_range(0..4)];
            subjects.push(Subject::new(&ug, ip, sym).unwrap());
        }
        for a in &subjects {
            prop_assert!(a.leq(a, &dir), "reflexivity: {a}");
        }
        for a in &subjects {
            for b in &subjects {
                for c in &subjects {
                    if a.leq(b, &dir) && b.leq(c, &dir) {
                        prop_assert!(a.leq(c, &dir), "transitivity: {a} ≤ {b} ≤ {c}");
                    }
                }
            }
        }
    }
}
