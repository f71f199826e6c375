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
//!
//! A server renders every miss on a revision from that revision's
//! parsed document, and reuses what labeling learned there regardless of
//! the requester: the node set of each authorization object and each
//! node's type. The last tests hold the views and ETags such a server
//! serves, requester after requester, to a fresh server's first miss and
//! to a fresh `process()`: on the compiled, interpreted and fast paths,
//! and across a commit that flips an object's predicate.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use xmlsec::authz::{Action, AuthType, Authorization, AuthorizationBase, ObjectSpec, Sign};
use xmlsec::core::view::{label_document, prune_document, render_view, Labeling};
use xmlsec::prelude::*;
use xmlsec::server::parse_update_ops;
use xmlsec::workload::hospital::{
    hospital_authorizations, hospital_directory, HOSPITAL_DTD, HOSPITAL_DTD_URI, WARD_URI, WARD_XML,
};
use xmlsec::workload::laboratory::{
    example1_authorizations, lab_directory, CSLAB_URI, CSLAB_XML, LAB_DTD, LAB_DTD_URI,
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

/// The readers of the served-revision tests: `u0` and `u1` are in group
/// `G`, `u2` is not. `ed` may write the whole document.
const READERS: [&str; 3] = ["u0", "u1", "u2"];

fn served_directory() -> Directory {
    let mut dir = Directory::new();
    dir.add_group("G").unwrap();
    for user in ["u0", "u1", "u2", "ed"] {
        dir.add_user(user).unwrap();
    }
    dir.add_member("u0", "G").unwrap();
    dir.add_member("u1", "G").unwrap();
    dir
}

/// `count` random read authorizations on `uri` over `paths`, each for
/// one reader or for `G`.
fn random_served_auths(uri: &str, paths: &[&str], count: usize, seed: u64) -> Vec<Authorization> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5e4);
    random_corpus_auths(uri, paths, count, seed)
        .into_iter()
        .map(|a| {
            let who = ["u0", "u1", "u2", "G"][rng.gen_range(0..4)];
            Authorization { subject: Subject::new(who, "*", "*").unwrap(), ..a }
        })
        .collect()
}

/// One stored document of the served-revision tests.
#[derive(Clone, Copy)]
struct Stored<'a> {
    uri: &'a str,
    xml: &'a str,
    dtd_uri: &'a str,
    dtd: &'a str,
}

/// A cache-less server holding `doc` under `auths`, plus `ed`'s right
/// to write it, so every request is a miss on the current revision.
fn served(auths: &[Authorization], doc: Stored<'_>, compile: bool) -> SecureServer {
    let mut base = AuthorizationBase::new();
    for a in auths {
        base.add(a.clone());
    }
    let editor = Subject::new("ed", "*", "*").unwrap();
    let write = ObjectSpec::whole(doc.dtd_uri);
    base.add(
        Authorization::new(editor, write, Sign::Plus, AuthType::Recursive)
            .with_action(Action::Write),
    );
    let mut s = SecureServer::new(served_directory(), base)
        .without_cache()
        .with_compile(compile);
    for user in READERS.iter().chain(&["ed"]) {
        s.register_credentials(user, "pw");
    }
    s.repository_mut().put_dtd(doc.dtd_uri, doc.dtd);
    s.repository_mut().put_document(doc.uri, doc.xml, Some(doc.dtd_uri));
    s
}

fn client(user: &str, uri: &str) -> ClientRequest {
    ClientRequest {
        user: Some((user.into(), "pw".into())),
        ip: "130.100.50.8".into(),
        sym: "infosys.bld1.it".into(),
        uri: uri.into(),
    }
}

/// Serves every reader twice in a row from `s`'s current revision of
/// `doc.uri`, and holds each view (bytes, loosened DTD, ETag) to a fresh
/// server's first miss on the same bytes, and its bytes to a fresh
/// interpreted `process()`.
fn assert_served_like_fresh(
    s: &SecureServer,
    auths: &[Authorization],
    doc: Stored<'_>,
    compile: bool,
) {
    let xml = s.repository().document(doc.uri).expect("stored").xml.clone();
    let current = Stored { xml: &xml, ..doc };
    let mut base = AuthorizationBase::new();
    for a in auths {
        base.add(a.clone());
    }
    let process = SecurityProcessor::new(served_directory(), base);
    for round in 0..2 {
        for user in READERS {
            let got = s.handle(&client(user, doc.uri)).expect("view");
            let fresh =
                served(auths, current, compile).handle(&client(user, doc.uri)).expect("fresh");
            let what = format!("{user}, round {round}, compile {compile}");
            assert_eq!(got.xml, fresh.xml, "{what}");
            assert_eq!(got.loosened_dtd, fresh.loosened_dtd, "{what}");
            assert_eq!(got.etag, fresh.etag, "{what}");
            let request = AccessRequest {
                requester: Requester::new(user, "130.100.50.8", "infosys.bld1.it").unwrap(),
                uri: doc.uri.to_string(),
            };
            let source = DocumentSource {
                xml: &xml,
                dtd: Some(doc.dtd),
                dtd_uri: Some(doc.dtd_uri),
                ..Default::default()
            };
            let out = process.process(&request, &source).expect("process");
            assert_eq!(got.xml, out.xml, "{what}: process()");
            assert_eq!(got.loosened_dtd, out.loosened_dtd, "{what}: process()");
        }
    }
}

/// The laboratory document with an element its DTD does not declare:
/// it does not validate, so the compiled path is never taken on it.
fn nonconforming_lab() -> String {
    CSLAB_XML.replacen("<member>", "<note>undeclared</note><member>", 1)
}

/// Commits `flip`, an update by `ed` that flips the outcome of a
/// predicate the corpus paths test. `None` when it is refused: nothing
/// matched, or the document does not conform to its DTD (a commit must
/// leave it valid).
fn commit_flip(s: &SecureServer, uri: &str, flip: &str) -> Option<usize> {
    let ops = parse_update_ops(flip).expect("ops");
    s.update(&client("ed", uri), &ops).ok()
}

const LAB_FLIP: &str = "setattr //paper[@category=\"private\"]\tcategory\tpublic";
const WARD_FLIP: &str = "setattr //entry[@kind=\"psychiatric\"]\tkind\tgeneral";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random policies for three readers on both corpora: every miss on
    /// one revision, the memoized ones included, serves a fresh view,
    /// before and after a commit that flips a predicate the objects test.
    #[test]
    fn views_served_from_one_revision_match_a_fresh_process(
        seed in 0u64..1_000_000,
        count in 1usize..10,
    ) {
        let ward = serialize(&hospital_scaled(6, seed), &SerializeOptions::canonical());
        let bad_lab = nonconforming_lab();
        let corpora = [
            (Stored { uri: CSLAB_URI, xml: CSLAB_XML, dtd_uri: LAB_DTD_URI, dtd: LAB_DTD }, &LAB_PATHS[..], LAB_FLIP),
            (Stored { uri: CSLAB_URI, xml: &bad_lab, dtd_uri: LAB_DTD_URI, dtd: LAB_DTD }, &LAB_PATHS[..], LAB_FLIP),
            (Stored { uri: WARD_URI, xml: &ward, dtd_uri: HOSPITAL_DTD_URI, dtd: HOSPITAL_DTD }, &WARD_PATHS[..], WARD_FLIP),
        ];
        for (doc, paths, flip) in corpora {
            let auths = random_served_auths(doc.uri, paths, count, seed);
            for compile in [true, false] {
                let s = served(&auths, doc, compile);
                assert_served_like_fresh(&s, &auths, doc, compile);
                let committed = commit_flip(&s, doc.uri, flip);
                if doc.xml == CSLAB_XML {
                    prop_assert!(committed.is_some(), "the lab flip commits");
                }
                assert_served_like_fresh(&s, &auths, doc, compile);
            }
        }
    }
}

#[test]
fn fast_path_and_predicate_flips_serve_fresh_views() {
    // Predicate-free objects: every compiled cell is exact, so a
    // conforming document is labeled by the whole-document fast path.
    let grant = |who: &str, path: &str, sign: Sign, ty: AuthType| {
        let object = ObjectSpec::with_path(CSLAB_URI, path).unwrap();
        Authorization::new(Subject::new(who, "*", "*").unwrap(), object, sign, ty)
    };
    let fast = vec![
        grant("G", "/laboratory", Sign::Plus, AuthType::Recursive),
        grant("G", "//fund", Sign::Minus, AuthType::Recursive),
        grant("u2", "//paper", Sign::Plus, AuthType::Recursive),
    ];
    let dtd = parse_dtd(LAB_DTD).unwrap();
    let dir = served_directory();
    for user in READERS {
        let requester = Requester::new(user, "130.100.50.8", "infosys.bld1.it").unwrap();
        let (axml, adtd) = applicable(&fast, &requester, &dir, CSLAB_URI, LAB_DTD_URI);
        let cp = xmlsec::core::compile(
            &dtd,
            "laboratory",
            &axml,
            &adtd,
            &dir,
            PolicyConfig::paper_default(),
        )
        .unwrap();
        assert!(cp.fast_path, "{user}: the fast path applies");
    }
    // A predicate whose outcome the commit flips, for every reader.
    let mut flipping = fast.clone();
    flipping.push(grant("G", "//paper[@category=\"private\"]", Sign::Minus, AuthType::Recursive));
    flipping.push(grant("u2", "//paper[@category=\"public\"]", Sign::Minus, AuthType::Local));
    let bad_lab = nonconforming_lab();
    for xml in [CSLAB_XML, &bad_lab] {
        let doc = Stored { uri: CSLAB_URI, xml, dtd_uri: LAB_DTD_URI, dtd: LAB_DTD };
        for auths in [&fast, &flipping] {
            for compile in [true, false] {
                let s = served(auths, doc, compile);
                assert_served_like_fresh(&s, auths, doc, compile);
                if xml != CSLAB_XML {
                    assert!(commit_flip(&s, CSLAB_URI, LAB_FLIP).is_none(), "it stays invalid");
                    continue;
                }
                let before = s.handle(&client("u0", CSLAB_URI)).expect("view").xml;
                assert!(commit_flip(&s, CSLAB_URI, LAB_FLIP).is_some());
                assert_served_like_fresh(&s, auths, doc, compile);
                let after = s.handle(&client("u0", CSLAB_URI)).expect("view").xml;
                if std::ptr::eq(auths, &flipping) {
                    assert_ne!(before, after, "the flip changes u0's view");
                }
            }
        }
    }
}
