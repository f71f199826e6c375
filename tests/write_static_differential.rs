//! Differential tests for the static write-effect analyzer.
//!
//! The pre-flight's contract is soundness, in both directions:
//!
//! - a **guaranteed-deny** batch verdict means the dynamic write path
//!   ([`apply_updates`]) refuses the batch on *every* DTD-valid
//!   instance — a static 403 never rejects a batch that could commit;
//! - a **guaranteed-allow** verdict means every per-op grant check is
//!   guaranteed to pass, so skipping write-labeling entirely
//!   ([`apply_updates_preauthorized`]) is *byte-identical*: the same
//!   outcome, the same committed document, or the same structural
//!   error — in intra-batch order.
//!
//! These properties generate random authorization sets (read and write
//! actions mixed, instance and schema level, all four types, predicates
//! included) over a non-recursive and a recursive DTD, random
//! conforming instances, and random op batches (good targets, dead
//! paths, wrong-kind targets, undeclared names, bad fragments).

use proptest::prelude::*;
use xmlsec::authz::{Action, AuthType, Authorization, ObjectSpec, Sign};
use xmlsec::core::{
    apply_updates, apply_updates_preauthorized, classify_batch, compile, BatchVerdict,
    EngineOptions, Parallelism, ResourceLimits, UpdateOp, WriteContext,
};
use xmlsec::prelude::*;

/// Subject pool: comparable and incomparable pairs, one location-bound.
const SUBJECTS: [(&str, &str, &str); 5] = [
    ("Staff", "*", "*"),
    ("Public", "*", "*"),
    ("tom", "*", "*"),
    ("All", "*", "*"),
    ("Staff", "10.0.*", "*"),
];

fn directory() -> Directory {
    let mut d = Directory::new();
    for u in ["tom", "ann"] {
        d.add_user(u).expect("fresh user");
    }
    for g in ["Staff", "Public", "All"] {
        d.add_group(g).expect("fresh group");
    }
    d.add_member("tom", "Staff").expect("edge");
    d.add_member("ann", "Public").expect("edge");
    d.add_member("Staff", "All").expect("edge");
    d.add_member("Public", "All").expect("edge");
    d
}

fn requesters() -> Vec<Requester> {
    vec![
        Requester::new("tom", "10.0.1.2", "a.lab.com").expect("requester"),
        Requester::new("ann", "93.10.2.7", "b.pub.org").expect("requester"),
    ]
}

fn policies() -> [PolicyConfig; 3] {
    [
        PolicyConfig::paper_default(),
        PolicyConfig { completeness: CompletenessPolicy::Open, ..Default::default() },
        PolicyConfig {
            conflict: ConflictResolution::PermissionsTakePrecedence,
            ..Default::default()
        },
    ]
}

/// Non-recursive DTD: optional child, starred lists, attributes.
const DOC_DTD: &str = r#"<!ELEMENT doc (meta?, sec*)>
<!ATTLIST doc id CDATA #IMPLIED>
<!ELEMENT meta (#PCDATA)>
<!ELEMENT sec (title, note*)>
<!ATTLIST sec level CDATA #IMPLIED>
<!ELEMENT title (#PCDATA)>
<!ELEMENT note (#PCDATA)>"#;

const DOC_PATHS: [Option<&str>; 10] = [
    None,
    Some("/doc"),
    Some("//sec"),
    Some("//sec/title"),
    Some("//note"),
    Some("/doc/meta"),
    Some(r#"//sec[./@level="1"]"#),
    Some("//sec/@level"),
    Some("//sec/@level/.."),
    Some("/doc/@id/."),
];

/// Op-target pool for `doc`: live paths, attribute paths, a step past
/// an attribute, a predicate, and a dead path.
const DOC_TARGETS: [&str; 10] = [
    "/doc",
    "/doc/meta",
    "//sec",
    "//sec/title",
    "//note",
    "//sec/@level",
    "/doc/@id",
    "//sec/@level/..",
    r#"//sec[./@level="1"]"#,
    "/nothing/here",
];

const DOC_NAMES: [&str; 5] = ["meta", "note", "sec", "level", "bogus"];

const DOC_FRAGMENTS: [&str; 4] =
    ["<note>n</note>", "<sec><title>t</title></sec>", "<bogus/>", "not xml <"];

/// Recursive DTD: `part` nests under itself without bound.
const PART_DTD: &str = r#"<!ELEMENT part (label, part*)>
<!ATTLIST part id CDATA #IMPLIED>
<!ELEMENT label (#PCDATA)>"#;

const PART_PATHS: [Option<&str>; 8] = [
    None,
    Some("/part"),
    Some("//part"),
    Some("//label"),
    Some("/part/part"),
    Some(r#"//part[./@id="p"]"#),
    Some("//part/label"),
    Some("/part/@id/.."),
];

const PART_TARGETS: [&str; 8] = [
    "/part",
    "//part",
    "//label",
    "/part/part",
    "//part/@id",
    "/part/@id/..",
    r#"//part[./@id="p"]"#,
    "/nope",
];

const PART_NAMES: [&str; 4] = ["part", "label", "id", "bogus"];

const PART_FRAGMENTS: [&str; 3] = ["<part><label>l</label></part>", "<label>l</label>", "bad<"];

/// One generated authorization: indices into the pools plus sign, type,
/// and action picks.
type AuthSpec = (usize, usize, usize, bool, usize, bool);

fn build_auths(specs: &[AuthSpec], paths: &[Option<&str>]) -> Vec<Authorization> {
    specs
        .iter()
        .map(|&(si, uri_pick, pi, plus, ti, write)| {
            let (ug, ip, sym) = SUBJECTS[si % SUBJECTS.len()];
            let uri = if uri_pick % 2 == 0 { "d.xml" } else { "d.dtd" };
            let object = match paths[pi % paths.len()] {
                Some(p) => ObjectSpec::with_path(uri, p).expect("pool path parses"),
                None => ObjectSpec::whole(uri),
            };
            let ty = [
                AuthType::Local,
                AuthType::Recursive,
                AuthType::LocalWeak,
                AuthType::RecursiveWeak,
            ][ti % 4];
            let auth = Authorization::new(
                Subject::new(ug, ip, sym).expect("pool subject"),
                object,
                if plus { Sign::Plus } else { Sign::Minus },
                ty,
            );
            if write {
                auth.with_action(Action::Write)
            } else {
                auth
            }
        })
        .collect()
}

/// One generated op: kind plus indices into the target/name/fragment
/// pools.
type OpSpec = (usize, usize, usize, usize);

fn build_ops(
    specs: &[OpSpec],
    targets: &[&str],
    names: &[&str],
    fragments: &[&str],
) -> Vec<UpdateOp> {
    specs
        .iter()
        .map(|&(kind, ti, ni, fi)| {
            let target = targets[ti % targets.len()].to_string();
            let name = names[ni % names.len()].to_string();
            let xml = fragments[fi % fragments.len()].to_string();
            match kind % 6 {
                0 => UpdateOp::SetText { target, text: "w".to_string() },
                1 => UpdateOp::SetAttribute { target, name, value: "v".to_string() },
                2 => UpdateOp::InsertElement { parent: target, name },
                3 => UpdateOp::InsertSubtree { parent: target, xml },
                4 => UpdateOp::ReplaceSubtree { target, xml },
                _ => UpdateOp::Delete { target },
            }
        })
        .collect()
}

/// Builds a DTD-valid `doc` instance from shape bytes.
fn doc_instance(shape: &[u8]) -> String {
    let first = shape.first().copied().unwrap_or(0);
    let mut s = String::from(if first & 2 != 0 { r#"<doc id="d1">"# } else { "<doc>" });
    if first & 1 != 0 {
        s.push_str("<meta>m</meta>");
    }
    for b in shape.iter().skip(1).take(3) {
        match b % 3 {
            1 => s.push_str(r#"<sec level="1">"#),
            2 => s.push_str(r#"<sec level="2">"#),
            _ => s.push_str("<sec>"),
        }
        s.push_str("<title>t</title>");
        for _ in 0..((b >> 2) % 3) {
            s.push_str("<note>n</note>");
        }
        s.push_str("</sec>");
    }
    s.push_str("</doc>");
    s
}

/// Builds a DTD-valid recursive `part` instance from shape bytes.
fn part_instance(shape: &[u8]) -> String {
    fn build(shape: &[u8], pos: &mut usize, depth: usize, out: &mut String) {
        let b = shape.get(*pos).copied().unwrap_or(0);
        *pos += 1;
        out.push_str(if b & 1 != 0 { r#"<part id="p">"# } else { "<part>" });
        out.push_str("<label>x</label>");
        let kids = if depth >= 3 { 0 } else { (b >> 1) % 3 };
        for _ in 0..kids {
            build(shape, pos, depth + 1, out);
        }
        out.push_str("</part>");
    }
    let mut out = String::new();
    build(shape, &mut 0, 0, &mut out);
    out
}

/// Checks one scenario: classify the batch from the compiled write
/// table exactly as the server's pre-flight would, then hold the static
/// verdict against the dynamic write path.
fn check_case(dtd_text: &str, root: &str, xml: &str, auths: &[Authorization], ops: &[UpdateOp]) {
    let dtd = parse_dtd(dtd_text).expect("test DTD parses");
    let doc = parse(xml).expect("generated instance parses");
    let violations = xmlsec::dtd::Validator::new(&dtd).validate(&doc);
    assert!(violations.is_empty(), "generator must emit valid instances: {violations:?}");
    let dir = directory();
    for policy in policies() {
        for requester in requesters() {
            // The server resolves applicability per action; the write
            // path only ever sees the write-action subset.
            let wxml: Vec<&Authorization> = auths
                .iter()
                .filter(|a| {
                    a.object.uri == "d.xml"
                        && a.action == Action::Write
                        && requester.is_covered_by(&a.subject, &dir)
                })
                .collect();
            let wdtd: Vec<&Authorization> = auths
                .iter()
                .filter(|a| {
                    a.object.uri == "d.dtd"
                        && a.action == Action::Write
                        && requester.is_covered_by(&a.subject, &dir)
                })
                .collect();
            let cp = compile(&dtd, root, &wxml, &wdtd, &dir, policy).expect("root is declared");
            let verdict = classify_batch(&dtd, &cp.writes, ops);

            let ctx = WriteContext {
                axml: &wxml,
                adtd: &wdtd,
                dir: &dir,
                policy,
                opts: EngineOptions {
                    limits: ResourceLimits::default_limits().xpath,
                    parallelism: Parallelism::sequential(),
                    decisions: None,
                    compiled: None,
                    cancel: None,
                },
            };
            let mut dynamic_doc = doc.clone();
            let dynamic = apply_updates(&mut dynamic_doc, ops, &ctx);

            match &verdict {
                BatchVerdict::Deny { op, reason } => assert!(
                    dynamic.is_err(),
                    "static deny (op {op}: {reason}) but the dynamic path committed \
                     for {requester} (policy {policy:?}, doc {xml}, ops {ops:?}, auths {})",
                    auths.iter().map(|a| a.to_string()).collect::<Vec<_>>().join("; ")
                ),
                BatchVerdict::Allow => {
                    let mut pre_doc = doc.clone();
                    let pre = apply_updates_preauthorized(&mut pre_doc, ops, None);
                    assert_eq!(
                        dynamic, pre,
                        "static allow: fast path diverges from dynamic outcome \
                         for {requester} (policy {policy:?}, doc {xml}, ops {ops:?})"
                    );
                    assert_eq!(
                        serialize(&dynamic_doc, &SerializeOptions::canonical()),
                        serialize(&pre_doc, &SerializeOptions::canonical()),
                        "static allow: fast path committed different bytes \
                         for {requester} (policy {policy:?}, doc {xml}, ops {ops:?})"
                    );
                }
                BatchVerdict::Dynamic => {}
            }
        }
    }
}

/// Pins the two guaranteed verdicts on deterministic policies so the
/// property above cannot silently degenerate into all-`Dynamic` runs.
#[test]
fn deterministic_guaranteed_verdicts() {
    let dtd = parse_dtd(DOC_DTD).expect("test DTD parses");
    let dir = directory();
    let policy = PolicyConfig::paper_default();
    let ops = [UpdateOp::SetText { target: "/doc/meta".to_string(), text: "w".to_string() }];

    // No write authorization at all: the table is unwritable, every
    // batch is guaranteed-denied.
    let cp = compile(&dtd, "doc", &[], &[], &dir, policy).expect("root declared");
    assert!(cp.writes.unwritable);
    assert!(matches!(classify_batch(&dtd, &cp.writes, &ops), BatchVerdict::Deny { op: 0, .. }));

    // A whole-document recursive write grant: blanket allow, every
    // batch is guaranteed-allow.
    let blanket = Authorization::new(
        Subject::new("Staff", "*", "*").expect("subject"),
        ObjectSpec::whole("d.dtd"),
        Sign::Plus,
        AuthType::Recursive,
    )
    .with_action(Action::Write);
    let adtd = [&blanket];
    let cp = compile(&dtd, "doc", &[], &adtd, &dir, policy).expect("root declared");
    assert!(cp.writes.blanket_allow);
    assert!(matches!(classify_batch(&dtd, &cp.writes, &ops), BatchVerdict::Allow));

    // And both ends hold against the dynamic path on a concrete doc.
    check_case(DOC_DTD, "doc", "<doc><meta>m</meta></doc>", &[], &ops);
    check_case(DOC_DTD, "doc", "<doc><meta>m</meta></doc>", &[blanket], &ops);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Non-recursive DTD: the static batch verdict is sound against the
    /// dynamic write path on every generated instance, under three
    /// policy configurations.
    #[test]
    fn write_preflight_sound_on_nonrecursive_dtd(
        specs in prop::collection::vec(
            (0..5usize, 0..2usize, 0..DOC_PATHS.len(), any::<bool>(), 0..4usize, any::<bool>()),
            2..=8),
        op_specs in prop::collection::vec(
            (0..6usize, 0..DOC_TARGETS.len(), 0..DOC_NAMES.len(), 0..DOC_FRAGMENTS.len()),
            1..=4),
        shape in prop::collection::vec(0u8..64, 1..=4),
    ) {
        let auths = build_auths(&specs, &DOC_PATHS);
        let ops = build_ops(&op_specs, &DOC_TARGETS, &DOC_NAMES, &DOC_FRAGMENTS);
        check_case(DOC_DTD, "doc", &doc_instance(&shape), &auths, &ops);
    }

    /// Recursive DTD: same property where the write table comes out of a
    /// fixpoint over the cyclic schema graph (and subtree-closure cells
    /// out of a greatest fixpoint).
    #[test]
    fn write_preflight_sound_on_recursive_dtd(
        specs in prop::collection::vec(
            (0..5usize, 0..2usize, 0..PART_PATHS.len(), any::<bool>(), 0..4usize, any::<bool>()),
            2..=8),
        op_specs in prop::collection::vec(
            (0..6usize, 0..PART_TARGETS.len(), 0..PART_NAMES.len(), 0..PART_FRAGMENTS.len()),
            1..=4),
        shape in prop::collection::vec(0u8..64, 1..=8),
    ) {
        let auths = build_auths(&specs, &PART_PATHS);
        let ops = build_ops(&op_specs, &PART_TARGETS, &PART_NAMES, &PART_FRAGMENTS);
        check_case(PART_DTD, "part", &part_instance(&shape), &auths, &ops);
    }
}

/// A case a 1,500-case run of the recursive property found: the root
/// type `part` nests, so `/part/part` is an ordinary `part`, and the
/// pre-flight must not deny its replacement or deletion as if it were
/// the document element. Here the one write grant reaches it through
/// the root's `id`, so the dynamic path commits.
#[test]
fn nested_nodes_of_the_root_type_are_not_the_document_element() {
    let grant = Authorization::new(
        Subject::new("Staff", "10.0.*", "*").expect("subject"),
        ObjectSpec::with_path("d.xml", r#"//part[./@id="p"]"#).expect("path"),
        Sign::Plus,
        AuthType::Recursive,
    )
    .with_action(Action::Write);
    let xml = r#"<part id="p"><label>x</label><part><label>x</label></part></part>"#;
    for op in [
        UpdateOp::ReplaceSubtree { target: "/part/part".into(), xml: "<label>l</label>".into() },
        UpdateOp::Delete { target: "/part/part".into() },
    ] {
        let dtd = parse_dtd(PART_DTD).expect("test DTD parses");
        let dir = directory();
        let cp = compile(&dtd, "part", &[&grant], &[], &dir, PolicyConfig::paper_default())
            .expect("root is declared");
        let verdict = classify_batch(&dtd, &cp.writes, std::slice::from_ref(&op));
        assert_eq!(verdict, BatchVerdict::Dynamic, "{op:?}");
        check_case(PART_DTD, "part", xml, std::slice::from_ref(&grant), &[op]);
    }
}
