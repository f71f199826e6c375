//! Differential property tests for the incremental secure-update path.
//!
//! Random op batches over random DTD-conforming documents, committed
//! through [`SecureServer::update`]. The server patches warm cached
//! views in place (incremental relabel + re-prune + new ETag) instead
//! of recomputing them from the stored bytes — so the property that
//! keeps it honest is *byte identity with the cold path*: for every
//! committed batch, the patched view a warm reader is served must equal,
//! byte for byte, the view a fresh cache-less server computes from the
//! committed document. Denied batches must leave document, cache, and
//! entity tags exactly as they were.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use xmlsec::authz::Action;
use xmlsec::core::update::UpdateOp;
use xmlsec::prelude::*;
use xmlsec::workload::{conforming_doc, random_dtd, DtdConfig, GEN_ROOT};
use xmlsec::xml::serialize_node;

const DOC_URI: &str = "doc.xml";
const DTD_URI: &str = "doc.dtd";

/// Builds a positional path (`/e0/e3[2]/e1[1]`) for a concrete element,
/// so an op targets exactly the node the generator chose regardless of
/// same-name siblings.
fn concrete_path(doc: &Document, node: xmlsec::xml::NodeId) -> String {
    let mut segments = Vec::new();
    let mut cur = node;
    loop {
        let name = doc.element_name(cur).expect("path nodes are elements");
        match doc.parent(cur) {
            None => {
                segments.push(format!("/{name}"));
                break;
            }
            Some(p) => {
                let position = doc
                    .child_elements(p)
                    .filter(|&sib| doc.element_name(sib) == Some(name))
                    .position(|sib| sib == cur)
                    .expect("node is among its parent's children")
                    + 1;
                segments.push(format!("/{name}[{position}]"));
                cur = p;
            }
        }
    }
    segments.reverse();
    segments.concat()
}

/// Draws a random batch of 1–4 ops against concrete nodes of `doc`.
/// Some batches will be denied (DTD-invalid result, unauthorized
/// target): that is part of the property — denial must change nothing.
fn random_ops(doc: &Document, seed: u64) -> Vec<UpdateOp> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let elements: Vec<_> = doc.preorder(doc.root()).filter(|&n| doc.is_element(n)).collect();
    let count = rng.gen_range(1usize..=4);
    (0..count)
        .map(|_| {
            let node = elements[rng.gen_range(0..elements.len())];
            let path = concrete_path(doc, node);
            match rng.gen_range(0u32..6) {
                0 => {
                    UpdateOp::SetText { target: path, text: format!("t{}", rng.gen_range(0..100)) }
                }
                1 => UpdateOp::SetAttribute {
                    target: path,
                    name: format!("a{}", rng.gen_range(0..3)),
                    value: format!("v{}", rng.gen_range(0..100)),
                },
                2 => {
                    // Append a copy of an existing child element, which
                    // conforms whenever the content model is starred.
                    let child = doc.child_elements(node).next();
                    match child {
                        Some(c) => {
                            UpdateOp::InsertSubtree { parent: path, xml: serialize_node(doc, c) }
                        }
                        None => UpdateOp::SetText { target: path, text: "leaf".into() },
                    }
                }
                3 => {
                    // Replace a subtree with its own serialization: a
                    // structurally identical, always-conforming rewrite.
                    UpdateOp::ReplaceSubtree {
                        target: path.clone(),
                        xml: serialize_node(doc, node),
                    }
                }
                4 => UpdateOp::InsertElement {
                    parent: path,
                    name: format!("e{}", rng.gen_range(0..6)),
                },
                _ => UpdateOp::Delete { target: path },
            }
        })
        .collect()
}

struct Fixture {
    server: SecureServer,
    dtd_text: String,
    doc_text: String,
    deny_seed: u64,
}

/// The principal directory and authorization base, deterministic in
/// `deny_seed` so the warm server and its cold twin share one policy.
fn build_world(deny_seed: u64) -> (Directory, AuthorizationBase) {
    let mut dir = Directory::new();
    dir.add_user("editor").unwrap();
    dir.add_user("reader").unwrap();
    let mut base = AuthorizationBase::new();
    for user in ["editor", "reader"] {
        base.add(Authorization::new(
            Subject::new(user, "*", "*").unwrap(),
            ObjectSpec::with_path(DOC_URI, &format!("/{GEN_ROOT}")).unwrap(),
            Sign::Plus,
            AuthType::Recursive,
        ));
    }
    base.add(
        Authorization::new(
            Subject::new("editor", "*", "*").unwrap(),
            ObjectSpec::with_path(DOC_URI, &format!("/{GEN_ROOT}")).unwrap(),
            Sign::Plus,
            AuthType::Recursive,
        )
        .with_action(Action::Write),
    );
    // Seeded denials over the generated tag space prune the reader's
    // view below the document.
    let mut rng = SmallRng::seed_from_u64(deny_seed);
    for _ in 0..rng.gen_range(0usize..3) {
        let tag = format!("e{}", rng.gen_range(1..6));
        if let Ok(obj) = ObjectSpec::with_path(DOC_URI, &format!("//{tag}")) {
            base.add(Authorization::new(
                Subject::new("reader", "*", "*").unwrap(),
                obj,
                Sign::Minus,
                AuthType::Recursive,
            ));
        }
    }
    (dir, base)
}

/// A server with an all-powerful editor, a reader whose view is pruned
/// by a couple of seeded denials, a DTD-typed document, and the cache
/// on. The denials make the patched view a *strict* subset of the
/// document in most runs, so byte identity is not vacuous.
fn fixture(dtd_seed: u64, doc_seed: u64, deny_seed: u64, elements: usize) -> Fixture {
    let dtd = random_dtd(&DtdConfig { elements, ..Default::default() }, dtd_seed);
    let mut doc = conforming_doc(&dtd, doc_seed);
    xmlsec::dtd::normalize(&dtd, &mut doc);
    let dtd_text = serialize_dtd(&dtd);
    let doc_text = serialize(&doc, &SerializeOptions::default());

    let (dir, base) = build_world(deny_seed);
    let mut server = SecureServer::new(dir, base);
    server.register_credentials("editor", "pw");
    server.register_credentials("reader", "pw");
    server.repository_mut().put_dtd(DTD_URI, &dtd_text);
    server.repository_mut().put_document(DOC_URI, &doc_text, Some(DTD_URI));
    Fixture { server, dtd_text, doc_text, deny_seed }
}

fn request(user: &str) -> ClientRequest {
    ClientRequest {
        user: Some((user.to_string(), "pw".to_string())),
        ip: "10.0.0.1".into(),
        sym: "ws.lab.org".into(),
        uri: DOC_URI.into(),
    }
}

/// A cache-less twin of the fixture, loaded with whatever bytes the
/// warm server currently stores: its views are always full recomputes.
fn cold_twin(f: &Fixture) -> SecureServer {
    let warm_repo = f.server.repository();
    let committed = warm_repo.document(DOC_URI).expect("document exists").xml.clone();
    drop(warm_repo);
    let (dir, base) = build_world(f.deny_seed);
    let mut cold = SecureServer::new(dir, base).without_cache();
    cold.register_credentials("reader", "pw");
    cold.repository_mut().put_dtd(DTD_URI, &f.dtd_text);
    cold.repository_mut().put_document(DOC_URI, &committed, Some(DTD_URI));
    cold
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// For every committed batch the patched warm view equals the cold
    /// full recompute byte for byte (xml, loosened DTD, and entity
    /// tag); for every denied batch nothing changes at all.
    #[test]
    fn patched_views_are_byte_identical_to_full_recomputes(
        dtd_seed in 0u64..100_000,
        doc_seed in 0u64..100_000,
        deny_seed in 0u64..100_000,
        ops_seed in 0u64..100_000,
        elements in 2usize..10,
    ) {
        let f = fixture(dtd_seed, doc_seed, deny_seed, elements);
        let s = &f.server;

        // Warm the reader's view so there is an entry to patch.
        let before = s.handle(&request("reader")).expect("reader view");
        prop_assert!(s.handle(&request("reader")).expect("warm").cached);
        let entries_before = s.cache_len();

        let parsed = parse(&f.doc_text).expect("stored doc parses");
        let ops = random_ops(&parsed, ops_seed);
        match s.update(&request("editor"), &ops) {
            Ok(touched) => {
                prop_assert!(touched >= 1, "a committed batch touches at least one node");
                // Patch-in-place: the next read is a warm hit already
                // carrying the committed content.
                let after = s.handle(&request("reader")).expect("post-commit view");
                prop_assert!(after.cached, "the reader's warm view was patched, not dropped");
                prop_assert_eq!(
                    s.cache_len(), entries_before,
                    "patching replaces entries; it must not grow or shrink the cache"
                );
                // Byte identity against the cold full recompute.
                let cold = cold_twin(&f);
                let recomputed = cold.handle(&request("reader")).expect("cold view");
                prop_assert_eq!(&after.xml, &recomputed.xml, "patched view != full recompute");
                prop_assert_eq!(&after.loosened_dtd, &recomputed.loosened_dtd);
                prop_assert_eq!(
                    &after.etag, &recomputed.etag,
                    "the entity tag is content-derived and must match the cold path"
                );
                // The patched entry keeps serving stable bytes.
                let again = s.handle(&request("reader")).expect("steady view");
                prop_assert!(again.cached);
                prop_assert_eq!(&again.xml, &after.xml);
                prop_assert_eq!(&again.etag, &after.etag);
            }
            Err(ServerError::UpdateDenied(_))
            | Err(ServerError::UpdateDeniedStatic { .. })
            | Err(ServerError::LimitExceeded(_)) => {
                // Denied: document bytes, warm entry, and tag unchanged.
                {
                    let repo = s.repository();
                    prop_assert_eq!(
                        &repo.document(DOC_URI).expect("doc").xml, &f.doc_text,
                        "a denied batch must not commit"
                    );
                }
                let after = s.handle(&request("reader")).expect("view after denial");
                prop_assert!(after.cached, "denial must not disturb the warm view");
                prop_assert_eq!(&after.xml, &before.xml);
                prop_assert_eq!(&after.etag, &before.etag);
                prop_assert_eq!(s.cache_len(), entries_before);
            }
            Err(e) => prop_assert!(false, "unexpected update error: {e}"),
        }
    }

    /// A chain of committed batches stays byte-identical to the cold
    /// path at every step — patched state never drifts, even when each
    /// patch builds on the previous incremental labeling.
    #[test]
    fn successive_batches_never_drift(
        dtd_seed in 0u64..100_000,
        doc_seed in 0u64..100_000,
        ops_seed in 0u64..100_000,
        elements in 2usize..8,
    ) {
        let f = fixture(dtd_seed, doc_seed, doc_seed, elements);
        let s = &f.server;
        let _ = s.handle(&request("reader")).expect("warm");
        let mut committed = 0;
        for round in 0..4u64 {
            let current = {
                let repo = s.repository();
                repo.document(DOC_URI).expect("doc").xml.clone()
            };
            let parsed = parse(&current).expect("committed bytes parse");
            let ops = random_ops(&parsed, ops_seed.wrapping_add(round));
            if s.update(&request("editor"), &ops).is_ok() {
                committed += 1;
                let warm = s.handle(&request("reader")).expect("warm view");
                let cold = cold_twin(&f);
                let recomputed = cold.handle(&request("reader")).expect("cold view");
                prop_assert_eq!(&warm.xml, &recomputed.xml, "drift after {} commits", committed);
                prop_assert_eq!(&warm.etag, &recomputed.etag);
            }
        }
    }
}
