//! Differential tests for the whole-policy static analyzer.
//!
//! The analyzer's contract is soundness: a *guaranteed* decision-table
//! cell (allow/deny, or any singleton sign set) must agree with the
//! concrete `label_document` run on **every** DTD-valid instance. These
//! properties generate random authorization sets (2–8 rules, instance
//! and schema level, all four types, predicates included) over a
//! non-recursive and a recursive DTD, random conforming instances, and
//! check every element and attribute of every instance against the
//! analyzer's cells for the concrete requester's subject.

use proptest::prelude::*;
use std::collections::BTreeMap;
use xmlsec::authz::{AuthType, Authorization, ObjectSpec, Sign};
use xmlsec::core::{
    analyze_policy, compile, compute_view_engine, label_document, schema_coverage, Cell,
    EngineOptions, Parallelism, ResourceLimits, SchemaNode, Verdict,
};
use xmlsec::prelude::*;
use xmlsec::xml::NodeData;

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

const DOC_PATHS: [Option<&str>; 13] = [
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
    // A name test on a non-attribute axis never passes an attribute.
    Some("/doc/@id/self::id"),
    Some("//sec/@level/ancestor-or-self::level"),
    Some("//sec/@level/descendant-or-self::node()"),
];

/// Recursive DTD: `part` nests under itself without bound.
const PART_DTD: &str = r#"<!ELEMENT part (label, part*)>
<!ATTLIST part id CDATA #IMPLIED>
<!ELEMENT label (#PCDATA)>"#;

const PART_PATHS: [Option<&str>; 10] = [
    None,
    Some("/part"),
    Some("//part"),
    Some("//label"),
    Some("/part/part"),
    Some(r#"//part[./@id="p"]"#),
    Some("//part/label"),
    Some("/part/@id/.."),
    Some("//part/@id/descendant-or-self::id"),
    Some("//part/@id/ancestor-or-self::part"),
];

/// One generated authorization: indices into the pools.
type AuthSpec = (usize, usize, usize, bool, usize);

fn build_auths(specs: &[AuthSpec], paths: &[Option<&str>]) -> Vec<Authorization> {
    specs
        .iter()
        .map(|&(si, uri_pick, pi, plus, ti)| {
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
            Authorization::new(
                Subject::new(ug, ip, sym).expect("pool subject"),
                object,
                if plus { Sign::Plus } else { Sign::Minus },
                ty,
            )
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

/// Every declared name of `DOC_DTD`, elements and attributes, for the
/// coverage oracle's node tests.
const DOC_NAMES: [&str; 7] = ["doc", "meta", "sec", "title", "note", "id", "level"];

/// Every declared name of `PART_DTD`.
const PART_NAMES: [&str; 3] = ["part", "label", "id"];

const AXES: [&str; 10] = [
    "child",
    "descendant",
    "descendant-or-self",
    "parent",
    "ancestor",
    "ancestor-or-self",
    "self",
    "attribute",
    "following-sibling",
    "preceding-sibling",
];

/// One generated path: a prefix pick (`/`, relative, `//`) and its
/// steps as (axis, node test, predicate) picks.
type PathSpec = (usize, Vec<(usize, usize, usize)>);

fn build_path(&(prefix, ref steps): &PathSpec, names: &[&str]) -> String {
    let steps: Vec<String> = steps
        .iter()
        .map(|&(axis, test, pred)| {
            let test = match test % (names.len() + 3) {
                i if i < names.len() => names[i],
                i if i == names.len() => "*",
                i if i == names.len() + 1 => "node()",
                _ => "text()",
            };
            let pred = ["", "[1]", "[last()]"][pred % 3];
            format!("{}::{test}{pred}", AXES[axis % AXES.len()])
        })
        .collect();
    format!("{}{}", ["/", "", "//"][prefix % 3], steps.join("/"))
}

/// The coverage oracle: every element or attribute the concrete XPath
/// evaluator selects on a valid instance must have its declaration in
/// `schema_coverage`, which is independent of the labeling engine the
/// other properties compare against.
fn check_coverage(dtd_text: &str, root: &str, xml: &str, paths: &[String]) {
    let dtd = parse_dtd(dtd_text).expect("test DTD parses");
    let doc = parse(xml).expect("generated instance parses");
    let violations = xmlsec::dtd::Validator::new(&dtd).validate(&doc);
    assert!(violations.is_empty(), "generator must emit valid instances: {violations:?}");
    for path in paths {
        let parsed = xmlsec::xpath::parse_path(path).expect("generated path parses");
        let covers = schema_coverage(&dtd, root, &parsed);
        for n in xmlsec::xpath::select(&doc, &parsed) {
            let node = match doc.node(n).data {
                NodeData::Element { name, .. } => SchemaNode::Element(name.to_string()),
                NodeData::Attr { name, .. } => SchemaNode::Attribute {
                    element: doc
                        .parent(n)
                        .and_then(|p| doc.element_name(p))
                        .expect("an attribute has an owner element")
                        .to_string(),
                    attribute: name.to_string(),
                },
                _ => continue,
            };
            assert!(covers.contains(&node), "{path} selects {node} on {xml}, coverage {covers:?}");
        }
    }
}

/// The completeness rule the engine's prune step applies.
fn allowed(policy: PolicyConfig, s: Sign3) -> bool {
    s == Sign3::Plus || (policy.completeness == CompletenessPolicy::Open && s == Sign3::Eps)
}

/// Checks one scenario: every guaranteed cell must agree with the
/// concrete labeling, and every concrete final sign must be inside its
/// cell's possible-sign set (soundness of the abstraction itself).
fn check_case(dtd_text: &str, root: &str, xml: &str, auths: &[Authorization]) {
    let dtd = parse_dtd(dtd_text).expect("test DTD parses");
    let doc = parse(xml).expect("generated instance parses");
    let violations = xmlsec::dtd::Validator::new(&dtd).validate(&doc);
    assert!(violations.is_empty(), "generator must emit valid instances: {violations:?}");
    let dir = directory();
    for policy in policies() {
        for requester in requesters() {
            let subject = requester.as_subject();
            let report = analyze_policy(
                &dtd,
                root,
                "d.dtd",
                auths,
                &dir,
                policy,
                std::slice::from_ref(&subject),
            );
            let cells: BTreeMap<&SchemaNode, &Cell> =
                report.subjects[0].cells.iter().map(|c| (&c.node, c)).collect();
            let axml: Vec<&Authorization> = auths
                .iter()
                .filter(|a| a.object.uri == "d.xml" && requester.is_covered_by(&a.subject, &dir))
                .collect();
            let adtd: Vec<&Authorization> = auths
                .iter()
                .filter(|a| a.object.uri == "d.dtd" && requester.is_covered_by(&a.subject, &dir))
                .collect();
            let labeling = label_document(&doc, &axml, &adtd, &dir, policy);

            let mut stack = vec![doc.root()];
            while let Some(n) = stack.pop() {
                let Some(name) = doc.element_name(n) else { continue };
                let check = |node: SchemaNode, id| {
                    let concrete = labeling.final_sign(id);
                    let cell = cells
                        .get(&node)
                        .unwrap_or_else(|| panic!("no cell for reachable node {node}"));
                    assert!(
                        cell.signs.contains(concrete.symbol()),
                        "{node} for {subject}: concrete sign {} outside abstract set {} \
                         (policy {policy:?}, doc {xml})",
                        concrete.symbol(),
                        cell.signs,
                    );
                    match &cell.verdict {
                        Verdict::Allow => assert!(
                            allowed(policy, concrete),
                            "{node} for {subject}: guaranteed-allow but concrete sign {} denies \
                             (policy {policy:?}, doc {xml})",
                            concrete.symbol(),
                        ),
                        Verdict::Deny => assert!(
                            !allowed(policy, concrete),
                            "{node} for {subject}: guaranteed-deny but concrete sign {} allows \
                             (policy {policy:?}, doc {xml})",
                            concrete.symbol(),
                        ),
                        Verdict::Instance { .. } => {}
                    }
                };
                check(SchemaNode::Element(name.to_string()), n);
                for &a in doc.attributes(n) {
                    if let NodeData::Attr { name: attr, .. } = doc.node(a).data {
                        check(
                            SchemaNode::Attribute {
                                element: name.to_string(),
                                attribute: attr.to_string(),
                            },
                            a,
                        );
                    }
                }
                stack.extend(doc.children(n));
            }
        }
    }
}

/// Compiled-vs-interpreted: compiling the applicable policy and handing
/// the table to the engine must not change a single byte of any view,
/// nor any stat, on any conforming instance — and a tight node budget
/// must classify identically, except on the whole-document fast path,
/// which skips authorization evaluation entirely and therefore can only
/// turn budget failures into successes (never the reverse).
fn check_compiled_case(dtd_text: &str, root: &str, xml: &str, auths: &[Authorization]) {
    let dtd = parse_dtd(dtd_text).expect("test DTD parses");
    let doc = parse(xml).expect("generated instance parses");
    let violations = xmlsec::dtd::Validator::new(&dtd).validate(&doc);
    assert!(violations.is_empty(), "generator must emit valid instances: {violations:?}");
    let dir = directory();
    for policy in policies() {
        for requester in requesters() {
            let axml: Vec<&Authorization> = auths
                .iter()
                .filter(|a| a.object.uri == "d.xml" && requester.is_covered_by(&a.subject, &dir))
                .collect();
            let adtd: Vec<&Authorization> = auths
                .iter()
                .filter(|a| a.object.uri == "d.dtd" && requester.is_covered_by(&a.subject, &dir))
                .collect();
            let cp = compile(&dtd, root, &axml, &adtd, &dir, policy).expect("root is declared");

            let interpreted = EngineOptions {
                limits: ResourceLimits::default_limits().xpath,
                parallelism: Parallelism::sequential(),
                decisions: None,
                compiled: None,
                cancel: None,
            };
            let compiled = EngineOptions {
                limits: ResourceLimits::default_limits().xpath,
                parallelism: Parallelism::sequential(),
                decisions: None,
                compiled: Some(&cp),
                cancel: None,
            };
            let (vi, si) =
                compute_view_engine(doc.clone(), &axml, &adtd, &dir, policy, &interpreted)
                    .expect("default limits fit the generated instances");
            let (vc, sc) = compute_view_engine(doc.clone(), &axml, &adtd, &dir, policy, &compiled)
                .expect("default limits fit the generated instances");
            assert_eq!(
                serialize(&vi, &SerializeOptions::canonical()),
                serialize(&vc, &SerializeOptions::canonical()),
                "compiled view diverges for {requester} (policy {policy:?}, doc {xml}, \
                 fast_path {})",
                cp.fast_path,
            );
            assert_eq!(
                si, sc,
                "compiled stats diverge for {requester} (policy {policy:?}, doc {xml})"
            );

            // Budget classification. 12 visits is small enough that
            // multi-authorization cases trip it on these instances.
            let mut tight = ResourceLimits::default_limits().xpath;
            tight.max_node_visits = 12;
            let tight_interp = EngineOptions {
                limits: tight,
                parallelism: Parallelism::sequential(),
                decisions: None,
                compiled: None,
                cancel: None,
            };
            let tight_comp = EngineOptions {
                limits: tight,
                parallelism: Parallelism::sequential(),
                decisions: None,
                compiled: Some(&cp),
                cancel: None,
            };
            let ti = compute_view_engine(doc.clone(), &axml, &adtd, &dir, policy, &tight_interp);
            let tc = compute_view_engine(doc.clone(), &axml, &adtd, &dir, policy, &tight_comp);
            if cp.fast_path {
                // The table answers without evaluating a single object
                // expression, so no budget can trip it.
                let (v, s) = tc.expect("fast path must not consume the node budget");
                assert_eq!(
                    serialize(&v, &SerializeOptions::canonical()),
                    serialize(&vi, &SerializeOptions::canonical())
                );
                assert_eq!(s, si);
            } else {
                // Residual cells mean the engine evaluates the same
                // authorization set either way: identical classification.
                match (ti, tc) {
                    (Ok((va, sa)), Ok((vb, sb))) => {
                        assert_eq!(
                            serialize(&va, &SerializeOptions::canonical()),
                            serialize(&vb, &SerializeOptions::canonical())
                        );
                        assert_eq!(sa, sb);
                    }
                    (Err(ea), Err(eb)) => assert_eq!(
                        ea, eb,
                        "budget errors diverge for {requester} (policy {policy:?}, doc {xml})"
                    ),
                    (a, b) => panic!(
                        "budget classification diverges for {requester}: interpreted {a:?} vs \
                         compiled {b:?} (policy {policy:?}, doc {xml})"
                    ),
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Non-recursive DTD: guaranteed cells match the engine on every
    /// generated instance, under three policy configurations.
    #[test]
    fn analyzer_sound_on_nonrecursive_dtd(
        specs in prop::collection::vec(
            (0..5usize, 0..2usize, 0..DOC_PATHS.len(), any::<bool>(), 0..4usize), 2..=8),
        shape in prop::collection::vec(0u8..64, 1..=4),
    ) {
        let auths = build_auths(&specs, &DOC_PATHS);
        check_case(DOC_DTD, "doc", &doc_instance(&shape), &auths);
    }

    /// Recursive DTD: same property where propagation must reach a
    /// fixpoint over the cyclic schema graph.
    #[test]
    fn analyzer_sound_on_recursive_dtd(
        specs in prop::collection::vec(
            (0..5usize, 0..2usize, 0..PART_PATHS.len(), any::<bool>(), 0..4usize), 2..=8),
        shape in prop::collection::vec(0u8..64, 1..=8),
    ) {
        let auths = build_auths(&specs, &PART_PATHS);
        check_case(PART_DTD, "part", &part_instance(&shape), &auths);
    }

    /// Non-recursive DTD: the compiled verdict table is invisible in the
    /// output — byte-identical views, identical stats, and identical
    /// node-budget classification (one-sided on the fast path).
    #[test]
    fn compiled_matches_interpreted_on_nonrecursive_dtd(
        specs in prop::collection::vec(
            (0..5usize, 0..2usize, 0..DOC_PATHS.len(), any::<bool>(), 0..4usize), 2..=8),
        shape in prop::collection::vec(0u8..64, 1..=4),
    ) {
        let auths = build_auths(&specs, &DOC_PATHS);
        check_compiled_case(DOC_DTD, "doc", &doc_instance(&shape), &auths);
    }

    /// Recursive DTD: same property where the verdict table comes out of
    /// a fixpoint over the cyclic schema graph.
    #[test]
    fn compiled_matches_interpreted_on_recursive_dtd(
        specs in prop::collection::vec(
            (0..5usize, 0..2usize, 0..PART_PATHS.len(), any::<bool>(), 0..4usize), 2..=8),
        shape in prop::collection::vec(0u8..64, 1..=8),
    ) {
        let auths = build_auths(&specs, &PART_PATHS);
        check_compiled_case(PART_DTD, "part", &part_instance(&shape), &auths);
    }

    /// Non-recursive DTD: schema coverage contains every declaration
    /// the concrete evaluator selects, for paths over every axis and
    /// node test, steps past attributes and character data included.
    #[test]
    fn coverage_contains_concrete_selection_on_nonrecursive_dtd(
        specs in prop::collection::vec(
            (0..3usize, prop::collection::vec((0..10usize, 0..10usize, 0..3usize), 1..=4)),
            1..=24),
        shape in prop::collection::vec(0u8..64, 1..=4),
    ) {
        let paths: Vec<String> = specs.iter().map(|p| build_path(p, &DOC_NAMES)).collect();
        check_coverage(DOC_DTD, "doc", &doc_instance(&shape), &paths);
    }

    /// Recursive DTD: the same oracle over the cyclic schema graph.
    #[test]
    fn coverage_contains_concrete_selection_on_recursive_dtd(
        specs in prop::collection::vec(
            (0..3usize, prop::collection::vec((0..10usize, 0..6usize, 0..3usize), 1..=4)),
            1..=24),
        shape in prop::collection::vec(0u8..64, 1..=8),
    ) {
        let paths: Vec<String> = specs.iter().map(|p| build_path(p, &PART_NAMES)).collect();
        check_coverage(PART_DTD, "part", &part_instance(&shape), &paths);
    }
}
