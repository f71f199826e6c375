//! Differential tests for the direct view renderer.
//!
//! `render_view` writes a view's bytes straight from the labeled
//! document, skipping the nodes the view hides; the update path patches
//! warm cached views with it. Its oracle is the read path's own
//! pipeline: prune a copy in place, then serialize it. The two must agree
//! byte for byte on the paper's corpora, on random documents under
//! random authorization sets, and on the edge cases of the visibility
//! rule (an empty root, structure-only ancestors, text under a denied
//! element), under both completeness policies.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use xmlsec::authz::{AuthType, Authorization, ObjectSpec, Sign};
use xmlsec::core::view::{label_document, prune_document, render_view, Labeling};
use xmlsec::prelude::*;
use xmlsec::workload::hospital::{
    hospital_authorizations, hospital_directory, HOSPITAL_DTD_URI, WARD_URI, WARD_XML,
};
use xmlsec::workload::laboratory::{
    example1_authorizations, lab_directory, CSLAB_URI, CSLAB_XML, LAB_DTD_URI,
};
use xmlsec::workload::{
    hospital_scaled, random_auths, random_directory, random_requester, random_tree, AuthConfig,
    TreeConfig,
};

fn completeness_policies() -> [PolicyConfig; 2] {
    [
        PolicyConfig::paper_default(),
        PolicyConfig { completeness: CompletenessPolicy::Open, ..PolicyConfig::paper_default() },
    ]
}

/// Renders `doc` under `labeling` and checks the bytes against pruning
/// a copy and serializing it, in every serializer style. Returns the
/// canonical rendering.
fn rendered(doc: &Document, labeling: &Labeling, policy: PolicyConfig) -> String {
    let mut pruned = doc.clone();
    prune_document(&mut pruned, labeling, policy);
    let styles =
        [SerializeOptions::canonical(), SerializeOptions::default(), SerializeOptions::pretty()];
    for opts in &styles {
        assert_eq!(
            render_view(doc, labeling, policy, opts),
            serialize(&pruned, opts),
            "renderer and prune + serialize disagree ({opts:?}, {policy:?})"
        );
    }
    render_view(doc, labeling, policy, &SerializeOptions::canonical())
}

/// The applicable `(instance, schema)` sets of `requester`.
fn applicable<'a>(
    auths: &'a [Authorization],
    requester: &Requester,
    dir: &Directory,
    doc_uri: &str,
    dtd_uri: &str,
) -> (Vec<&'a Authorization>, Vec<&'a Authorization>) {
    let covered = |a: &&Authorization| requester.is_covered_by(&a.subject, dir);
    let of = |uri: &str| auths.iter().filter(|a| a.object.uri == uri).filter(covered).collect();
    (of(doc_uri), of(dtd_uri))
}

fn check_corpus(
    doc: &Document,
    auths: &[Authorization],
    dir: &Directory,
    users: &[&str],
    uris: (&str, &str),
) {
    for user in users {
        let requester = Requester::new(user, "130.100.50.8", "infosys.bld1.it").unwrap();
        let (axml, adtd) = applicable(auths, &requester, dir, uris.0, uris.1);
        for policy in completeness_policies() {
            let labeling = label_document(doc, &axml, &adtd, dir, policy);
            rendered(doc, &labeling, policy);
        }
    }
}

#[test]
fn lab_corpus_renders_like_prune_and_serialize() {
    let doc = parse(CSLAB_XML).unwrap();
    let users = ["Tom", "Alice", "Sam", "anonymous"];
    let uris = (CSLAB_URI, LAB_DTD_URI);
    check_corpus(&doc, &example1_authorizations(), &lab_directory(), &users, uris);
}

#[test]
fn hospital_corpus_renders_like_prune_and_serialize() {
    let users = ["nina", "hale", "weiss", "omar"];
    let uris = (WARD_URI, HOSPITAL_DTD_URI);
    let (auths, dir) = (hospital_authorizations(), hospital_directory());
    check_corpus(&parse(WARD_XML).unwrap(), &auths, &dir, &users, uris);
    check_corpus(&hospital_scaled(30, 5), &auths, &dir, &users, uris);
}

/// Paths over the two corpora, for random authorization sets on them.
const LAB_PATHS: [&str; 10] = [
    "/laboratory",
    "/laboratory/@name",
    "/laboratory/project",
    "//project/@name",
    "//project[@type=\"public\"]",
    "//manager",
    "//flname",
    "//fund",
    "//paper[@category=\"private\"]",
    "//paper/title",
];
const WARD_PATHS: [&str; 9] = [
    "/ward",
    "/ward/@id",
    "//patient",
    "//patient/@status",
    "//patient/name",
    "//entry[@kind=\"psychiatric\"]",
    "//entry/note",
    "//billing",
    "//item/@amount",
];

/// `count` random authorizations for the user `u` on `uri` over `paths`.
fn random_corpus_auths(uri: &str, paths: &[&str], count: usize, seed: u64) -> Vec<Authorization> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let path = paths[rng.gen_range(0..paths.len())];
            let sign = if rng.gen_bool(0.5) { Sign::Plus } else { Sign::Minus };
            let ty = [
                AuthType::Local,
                AuthType::Recursive,
                AuthType::LocalWeak,
                AuthType::RecursiveWeak,
            ][rng.gen_range(0..4)];
            let subject = Subject::new("u", "*", "*").unwrap();
            Authorization::new(subject, ObjectSpec::with_path(uri, path).unwrap(), sign, ty)
        })
        .collect()
}

fn single_user() -> Directory {
    let mut dir = Directory::new();
    dir.add_user("u").unwrap();
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random authorization sets on both corpora.
    #[test]
    fn corpora_under_random_authorizations(seed in 0u64..1_000_000, count in 0usize..8) {
        let dir = single_user();
        let lab = parse(CSLAB_XML).unwrap();
        let ward = hospital_scaled(6, seed);
        for (doc, uri, paths) in [(&lab, CSLAB_URI, &LAB_PATHS[..]), (&ward, WARD_URI, &WARD_PATHS[..])] {
            let auths = random_corpus_auths(uri, paths, count, seed);
            let axml: Vec<&Authorization> = auths.iter().collect();
            for policy in completeness_policies() {
                let labeling = label_document(doc, &axml, &[], &dir, policy);
                rendered(doc, &labeling, policy);
            }
        }
    }

    /// Random documents under random instance and schema authorizations
    /// for a random requester.
    #[test]
    fn random_documents_under_random_authorizations(
        doc_seed in 0u64..1_000_000,
        auth_seed in 0u64..1_000_000,
        elements in 1usize..60,
        count in 0usize..16,
    ) {
        let doc = random_tree(&TreeConfig { elements, ..Default::default() }, doc_seed);
        let dir = random_directory(6, 4, auth_seed);
        let requester = random_requester(6, auth_seed);
        let (axml, adtd) = random_auths(
            &AuthConfig { count, ..Default::default() },
            "d.xml",
            "d.dtd",
            auth_seed,
        );
        let covered = |set: &[Authorization]| -> Vec<Authorization> {
            set.iter().filter(|a| requester.is_covered_by(&a.subject, &dir)).cloned().collect()
        };
        let (axml, adtd) = (covered(&axml), covered(&adtd));
        let (axml, adtd): (Vec<_>, Vec<_>) = (axml.iter().collect(), adtd.iter().collect());
        for policy in completeness_policies() {
            let labeling = label_document(&doc, &axml, &adtd, &dir, policy);
            rendered(&doc, &labeling, policy);
        }
    }
}

/// Renders `xml` for the single user `u` holding `grants` (`(path,
/// sign, type)` on `d.xml`) under the closed policy.
fn view_of(xml: &str, grants: &[(&str, Sign, AuthType)]) -> String {
    let doc = parse(xml).unwrap();
    let subject = Subject::new("u", "*", "*").unwrap();
    let auths: Vec<Authorization> = grants
        .iter()
        .map(|&(path, sign, ty)| {
            Authorization::new(
                subject.clone(),
                ObjectSpec::with_path("d.xml", path).unwrap(),
                sign,
                ty,
            )
        })
        .collect();
    let axml: Vec<&Authorization> = auths.iter().collect();
    let policy = PolicyConfig::paper_default();
    let labeling = label_document(&doc, &axml, &[], &single_user(), policy);
    rendered(&doc, &labeling, policy)
}

#[test]
fn a_root_with_nothing_visible_renders_as_an_empty_element() {
    assert_eq!(view_of(r#"<a x="1">t<b y="2">u</b><!--c--></a>"#, &[]), "<a/>");
    let denied = [("/a", Sign::Minus, AuthType::Recursive)];
    assert_eq!(view_of("<a><b>u</b></a>", &denied), "<a/>");
}

#[test]
fn structure_only_ancestors_keep_their_tags_but_not_their_content() {
    // `b` and `d` are not granted, but each has a visible descendant:
    // their tags stay, their own text, comments, PIs and attributes go.
    let xml = r#"<a><b k="v">hidden<!--note--><c>seen</c><?pi x?></b><d><e z="1"/></d></a>"#;
    let grants =
        [("//c", Sign::Plus, AuthType::Recursive), ("//e/@z", Sign::Plus, AuthType::Local)];
    assert_eq!(view_of(xml, &grants), r#"<a><b><c>seen</c></b><d><e z="1"/></d></a>"#);
}

#[test]
fn text_under_a_denied_element_is_hidden() {
    let grants =
        [("/a", Sign::Plus, AuthType::Recursive), ("/a/b", Sign::Minus, AuthType::Recursive)];
    assert_eq!(
        view_of("<a>top<b>secret</b><c>ok &amp; fine</c></a>", &grants),
        "<a>top<c>ok &amp; fine</c></a>"
    );
}
