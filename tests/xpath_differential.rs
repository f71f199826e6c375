//! Differential test of the path evaluator against an independent oracle.
//!
//! The oracle below evaluates its own path syntax tree straight from the
//! XPath 1.0 step definitions: each step maps every context node to its
//! axis nodes in axis order, filters them through the step's predicates
//! with positions counted per context node, and unions the survivors into
//! a `BTreeSet`. It shares no code with the evaluator or the path parser:
//! the test prints each random path as text, and `select_limited` parses
//! and evaluates that text.
//!
//! The grammar covers `/`, `//`, `*`, names, `@a`, `text()`, `.`, `..`,
//! `self::`, `ancestor-or-self::` and `descendant-or-self::` name tests
//! (which pass only elements, even from an attribute context),
//! `=` and `!=` against literals (attributes that may be missing
//! included), `and`, `or`, `not()`, and inner relative paths, plus the
//! position-dependent predicates `[1]`, `[last()]`, `[position()=2]` and
//! `[count(x)]`, which must keep `//name[p]` from being walked as one
//! `descendant::name[p]`.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::fmt;
use xmlsec::xml::{parse, Document, NodeData, NodeId};
use xmlsec::xpath::{parse_path, select_limited, EvalLimits};

const NAMES: [&str; 3] = ["a", "b", "c"];
const ATTRS: [&str; 2] = ["x", "y"];
const VALUES: [&str; 3] = ["1", "2", "p"];

// ---------------------------------------------------------------------
// Syntax
// ---------------------------------------------------------------------

/// One location step of the test grammar.
#[derive(Debug, Clone)]
enum Test {
    /// `name` (child axis).
    Name(&'static str),
    /// `*` (child axis, elements).
    Star,
    /// `text()` (child axis).
    Text,
    /// `@name` (attribute axis).
    Attr(&'static str),
    /// `..` (parent::node()).
    Parent,
    /// `.` (self::node()).
    Dot,
    /// `self::name`.
    SelfName(&'static str),
    /// `ancestor-or-self::name`.
    AncestorOrSelf(&'static str),
    /// `descendant-or-self::name`.
    DescendantOrSelf(&'static str),
}

#[derive(Debug, Clone)]
struct Step {
    /// Preceded by `//` rather than `/`.
    deep: bool,
    test: Test,
    preds: Vec<Pred>,
}

#[derive(Debug, Clone)]
struct Path {
    absolute: bool,
    steps: Vec<Step>,
}

#[derive(Debug, Clone)]
enum Pred {
    Exists(Path),
    Cmp(Path, bool, &'static str),
    And(Box<Pred>, Box<Pred>),
    Or(Box<Pred>, Box<Pred>),
    Not(Box<Pred>),
    /// `[n]`.
    Nth(usize),
    /// `[last()]`.
    Last,
    /// `[position()=n]`.
    PositionIs(usize),
    /// `[count(path)]`.
    Count(Path),
}

impl fmt::Display for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, s) in self.steps.iter().enumerate() {
            match (i, self.absolute, s.deep) {
                (0, false, false) => {}
                // A relative path cannot open with `//`.
                (0, false, true) => f.write_str(".//")?,
                (_, _, true) => f.write_str("//")?,
                (_, _, false) => f.write_str("/")?,
            }
            match &s.test {
                Test::Name(n) => f.write_str(n)?,
                Test::Star => f.write_str("*")?,
                Test::Text => f.write_str("text()")?,
                Test::Attr(a) => write!(f, "@{a}")?,
                Test::Parent => f.write_str("..")?,
                Test::Dot => f.write_str(".")?,
                Test::SelfName(n) => write!(f, "self::{n}")?,
                Test::AncestorOrSelf(n) => write!(f, "ancestor-or-self::{n}")?,
                Test::DescendantOrSelf(n) => write!(f, "descendant-or-self::{n}")?,
            }
            for p in &s.preds {
                write!(f, "[{p}]")?;
            }
        }
        Ok(())
    }
}

impl fmt::Display for Pred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Pred::Exists(p) => write!(f, "{p}"),
            Pred::Cmp(p, eq, lit) => write!(f, "{p} {} \"{lit}\"", if *eq { "=" } else { "!=" }),
            Pred::And(a, b) => write!(f, "({a}) and ({b})"),
            Pred::Or(a, b) => write!(f, "({a}) or ({b})"),
            Pred::Not(a) => write!(f, "not({a})"),
            Pred::Nth(n) => write!(f, "{n}"),
            Pred::Last => f.write_str("last()"),
            Pred::PositionIs(n) => write!(f, "position() = {n}"),
            Pred::Count(p) => write!(f, "count({p})"),
        }
    }
}

// ---------------------------------------------------------------------
// Random trees and paths
// ---------------------------------------------------------------------

fn random_element(rng: &mut SmallRng, depth: usize, out: &mut String) {
    let name = NAMES[rng.gen_range(0..NAMES.len())];
    out.push('<');
    out.push_str(name);
    for a in ATTRS {
        if rng.gen_range(0..3) == 0 {
            out.push_str(&format!(" {a}=\"{}\"", VALUES[rng.gen_range(0..VALUES.len())]));
        }
    }
    out.push('>');
    let children = if depth >= 4 { 0 } else { rng.gen_range(0..5) };
    for _ in 0..children {
        if rng.gen_range(0..4) == 0 {
            out.push_str(VALUES[rng.gen_range(0..VALUES.len())]);
        } else {
            random_element(rng, depth + 1, out);
        }
    }
    out.push_str("</");
    out.push_str(name);
    out.push('>');
}

fn random_doc(rng: &mut SmallRng) -> (String, Document) {
    let mut xml = String::new();
    random_element(rng, 0, &mut xml);
    let doc = parse(&xml).expect("generated XML parses");
    (xml, doc)
}

fn random_test(rng: &mut SmallRng) -> Test {
    // Either kind of name: an attribute's name on a non-attribute axis
    // must still select nothing.
    let any_name = |rng: &mut SmallRng| match rng.gen_range(0..NAMES.len() + ATTRS.len()) {
        i if i < NAMES.len() => NAMES[i],
        i => ATTRS[i - NAMES.len()],
    };
    match rng.gen_range(0..13) {
        0..=2 => Test::Name(NAMES[rng.gen_range(0..NAMES.len())]),
        3 => Test::Star,
        4 => Test::Text,
        5..=7 => Test::Attr(ATTRS[rng.gen_range(0..ATTRS.len())]),
        8 => Test::Parent,
        9 => Test::Dot,
        10 => Test::SelfName(any_name(rng)),
        11 => Test::AncestorOrSelf(any_name(rng)),
        _ => Test::DescendantOrSelf(any_name(rng)),
    }
}

/// A relative path of one or two steps for use inside a predicate.
fn random_inner(rng: &mut SmallRng, nest: usize) -> Path {
    let len = rng.gen_range(1..3);
    let steps = (0..len)
        .map(|_| {
            let deep = rng.gen_range(0..4) == 0;
            random_step(rng, nest + 1, deep)
        })
        .collect();
    Path { absolute: false, steps }
}

fn random_step(rng: &mut SmallRng, nest: usize, deep: bool) -> Step {
    let test = random_test(rng);
    // `..` and `.` carry no predicates: the evaluator never tests one on
    // the virtual root, which `..` and `.` can reach. Nor do the named
    // self axes, whose positions this oracle does not model.
    let takes_preds = matches!(test, Test::Name(_) | Test::Star | Test::Text | Test::Attr(_));
    let mut preds = Vec::new();
    if takes_preds && nest < 2 {
        // Positional predicates after `//` are the fusion's edge cases,
        // so deep steps get more of them.
        let n = rng.gen_range(0..if deep { 3 } else { 2 });
        for _ in 0..n {
            preds.push(random_pred(rng, nest, true));
        }
    }
    Step { deep, test, preds }
}

fn random_pred(rng: &mut SmallRng, nest: usize, top: bool) -> Pred {
    let choice = rng.gen_range(0..if top { 12 } else { 7 });
    match choice {
        0 | 1 => Pred::Exists(random_inner(rng, nest)),
        2..=4 => Pred::Cmp(
            random_inner(rng, nest),
            rng.gen_range(0..2) == 0,
            VALUES[rng.gen_range(0..VALUES.len())],
        ),
        5 => {
            let a = random_pred(rng, nest, false);
            let b = random_pred(rng, nest, false);
            if rng.gen_range(0..2) == 0 {
                Pred::And(Box::new(a), Box::new(b))
            } else {
                Pred::Or(Box::new(a), Box::new(b))
            }
        }
        6 => Pred::Not(Box::new(random_pred(rng, nest, false))),
        7 | 8 => Pred::Nth(rng.gen_range(1..4)),
        9 => Pred::Last,
        10 => Pred::PositionIs(rng.gen_range(1..4)),
        _ => Pred::Count(random_inner(rng, nest)),
    }
}

fn random_path(rng: &mut SmallRng) -> Path {
    let absolute = rng.gen_range(0..3) != 0;
    let len = rng.gen_range(1..4);
    let steps = (0..len)
        .map(|i| {
            // A relative top-level path starts at the document element.
            let deep = (absolute || i > 0) && rng.gen_range(0..2) == 0;
            random_step(rng, 0, deep)
        })
        .collect();
    Path { absolute, steps }
}

// ---------------------------------------------------------------------
// The oracle
// ---------------------------------------------------------------------

/// A context node: the virtual root or a node of the arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Ctx {
    Root,
    Node(NodeId),
}

fn string_value(doc: &Document, n: NodeId) -> String {
    match doc.node(n).data {
        NodeData::Attr { value, .. } => value.to_string(),
        NodeData::Text(t) => t.to_string(),
        NodeData::Element { children, .. } => {
            children.iter().map(|&c| string_value(doc, c)).collect::<Vec<_>>().concat()
        }
        NodeData::Comment(_) | NodeData::Pi { .. } => String::new(),
    }
}

/// `self` followed by its descendants in document order (the
/// descendant-or-self axis; attributes are not on it).
fn descendant_or_self(doc: &Document, c: Ctx, out: &mut Vec<Ctx>) {
    out.push(c);
    let kids: Vec<NodeId> = match c {
        Ctx::Root => vec![doc.root()],
        Ctx::Node(n) => match doc.node(n).data {
            NodeData::Element { children, .. } => children.to_vec(),
            _ => Vec::new(),
        },
    };
    for k in kids {
        descendant_or_self(doc, Ctx::Node(k), out);
    }
}

/// The nodes of one step's axis from `c` that pass its node test, in
/// axis order.
fn axis_nodes(doc: &Document, c: Ctx, test: &Test) -> Vec<Ctx> {
    let children = |c: Ctx| -> Vec<NodeId> {
        match c {
            Ctx::Root => vec![doc.root()],
            Ctx::Node(n) => match doc.node(n).data {
                NodeData::Element { children, .. } => children.to_vec(),
                _ => Vec::new(),
            },
        }
    };
    let data = |n: NodeId| doc.node(n).data;
    match test {
        Test::Name(want) => children(c)
            .into_iter()
            .filter(|&k| matches!(data(k), NodeData::Element { name, .. } if name == *want))
            .map(Ctx::Node)
            .collect(),
        Test::Star => children(c)
            .into_iter()
            .filter(|&k| matches!(data(k), NodeData::Element { .. }))
            .map(Ctx::Node)
            .collect(),
        Test::Text => children(c)
            .into_iter()
            .filter(|&k| matches!(data(k), NodeData::Text(_)))
            .map(Ctx::Node)
            .collect(),
        Test::Attr(want) => match c {
            Ctx::Root => Vec::new(),
            Ctx::Node(n) => match data(n) {
                NodeData::Element { attrs, .. } => attrs
                    .iter()
                    .copied()
                    .filter(|&a| matches!(data(a), NodeData::Attr { name, .. } if name == *want))
                    .map(Ctx::Node)
                    .collect(),
                _ => Vec::new(),
            },
        },
        Test::Parent => match c {
            Ctx::Root => Vec::new(),
            Ctx::Node(n) => vec![doc.node(n).parent.map_or(Ctx::Root, Ctx::Node)],
        },
        Test::Dot => vec![c],
        // The principal node type of the self, ancestor and descendant
        // axes is element: a name test there admits only elements of
        // that name, never an attribute or text node, and never the
        // virtual root.
        Test::SelfName(want) => {
            vec![c].into_iter().filter(|&k| is_element_named(doc, k, want)).collect()
        }
        Test::AncestorOrSelf(want) => std::iter::successors(Some(c), |&k| match k {
            Ctx::Root => None,
            Ctx::Node(n) => Some(doc.node(n).parent.map_or(Ctx::Root, Ctx::Node)),
        })
        .filter(|&k| is_element_named(doc, k, want))
        .collect(),
        Test::DescendantOrSelf(want) => {
            let mut all = Vec::new();
            descendant_or_self(doc, c, &mut all);
            all.into_iter().filter(|&k| is_element_named(doc, k, want)).collect()
        }
    }
}

fn is_element_named(doc: &Document, c: Ctx, want: &str) -> bool {
    matches!(c, Ctx::Node(n) if matches!(doc.node(n).data, NodeData::Element { name, .. } if name == want))
}

fn eval_path(doc: &Document, start: Ctx, path: &Path) -> BTreeSet<Ctx> {
    let mut set: BTreeSet<Ctx> =
        [if path.absolute { Ctx::Root } else { start }].into_iter().collect();
    for step in &path.steps {
        if step.deep {
            let mut expanded = Vec::new();
            for &c in &set {
                descendant_or_self(doc, c, &mut expanded);
            }
            set = expanded.into_iter().collect();
        }
        let mut next = BTreeSet::new();
        for &c in &set {
            let mut cands = axis_nodes(doc, c, &step.test);
            for p in &step.preds {
                let size = cands.len();
                cands = cands
                    .iter()
                    .enumerate()
                    .filter(|&(i, &k)| match k {
                        Ctx::Node(n) => match eval_pred(doc, n, i + 1, size, p) {
                            Val::Num(want) => (i + 1) as f64 == want,
                            Val::Bool(b) => b,
                        },
                        Ctx::Root => false,
                    })
                    .map(|(_, &k)| k)
                    .collect();
            }
            next.extend(cands);
        }
        set = next;
    }
    set
}

enum Val {
    Bool(bool),
    Num(f64),
}

impl Val {
    fn truthy(&self) -> bool {
        match self {
            Val::Bool(b) => *b,
            Val::Num(n) => *n != 0.0 && !n.is_nan(),
        }
    }
}

fn nodes_of(doc: &Document, n: NodeId, p: &Path) -> Vec<NodeId> {
    eval_path(doc, Ctx::Node(n), p)
        .into_iter()
        .filter_map(|c| match c {
            Ctx::Node(n) => Some(n),
            Ctx::Root => None,
        })
        .collect()
}

fn eval_pred(doc: &Document, n: NodeId, position: usize, size: usize, p: &Pred) -> Val {
    match p {
        Pred::Exists(path) => Val::Bool(!nodes_of(doc, n, path).is_empty()),
        Pred::Cmp(path, eq, lit) => {
            Val::Bool(nodes_of(doc, n, path).iter().any(|&m| (string_value(doc, m) == *lit) == *eq))
        }
        Pred::And(a, b) => Val::Bool(
            eval_pred(doc, n, position, size, a).truthy()
                && eval_pred(doc, n, position, size, b).truthy(),
        ),
        Pred::Or(a, b) => Val::Bool(
            eval_pred(doc, n, position, size, a).truthy()
                || eval_pred(doc, n, position, size, b).truthy(),
        ),
        Pred::Not(a) => Val::Bool(!eval_pred(doc, n, position, size, a).truthy()),
        Pred::Nth(k) => Val::Num(*k as f64),
        Pred::Last => Val::Num(size as f64),
        Pred::PositionIs(k) => Val::Bool(position == *k),
        Pred::Count(path) => Val::Num(nodes_of(doc, n, path).len() as f64),
    }
}

/// The oracle's node-set for a top-level path: relative paths start at
/// the document element; the virtual root is never in a result.
fn oracle(doc: &Document, path: &Path) -> BTreeSet<NodeId> {
    eval_path(doc, Ctx::Node(doc.root()), path)
        .into_iter()
        .filter_map(|c| match c {
            Ctx::Node(n) => Some(n),
            Ctx::Root => None,
        })
        .collect()
}

/// Evaluates `path` both ways on `doc` and returns a description of the
/// first disagreement.
fn check(xml: &str, doc: &Document, path: &Path) -> Result<(), String> {
    let text = path.to_string();
    let parsed = parse_path(&text).map_err(|e| format!("`{text}` does not parse: {e}"))?;
    let got = select_limited(doc, &parsed, &EvalLimits::default())
        .map_err(|e| format!("`{text}` failed: {e}"))?;
    if got
        .windows(2)
        .any(|w| doc.document_order(w[0], w[1]) != std::cmp::Ordering::Less)
    {
        return Err(format!("`{text}` on {xml}: result not in strict document order"));
    }
    let got_set: BTreeSet<NodeId> = got.iter().copied().collect();
    let want = oracle(doc, path);
    if got_set != want {
        return Err(format!("`{text}` on {xml}: evaluator {got_set:?}, oracle {want:?}"));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn evaluator_matches_the_step_by_step_oracle(seed in 0u64..u64::MAX) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let (xml, doc) = random_doc(&mut rng);
        for _ in 0..16 {
            let path = random_path(&mut rng);
            if let Err(e) = check(&xml, &doc, &path) {
                prop_assert!(false, "{}", e);
            }
        }
    }
}

/// The position-dependent predicates after `//` on a document where
/// walking `//b[p]` as `descendant::b[p]` gives a different answer for
/// each of them.
#[test]
fn positional_predicates_after_double_slash() {
    let xml = r#"<a><b x="1"><c/></b><a><b><c/><c/></b><b x="2"><c/></b></a><b/></a>"#;
    let doc = parse(xml).unwrap();
    let step = |preds: Vec<Pred>| Path {
        absolute: true,
        steps: vec![Step { deep: true, test: Test::Name("b"), preds }],
    };
    let c = Path {
        absolute: false,
        steps: vec![Step { deep: false, test: Test::Name("c"), preds: Vec::new() }],
    };
    let x_is_1 = Path {
        absolute: false,
        steps: vec![Step { deep: false, test: Test::Attr("x"), preds: Vec::new() }],
    };
    for (preds, expect) in [
        (vec![Pred::Nth(1)], 2),
        (vec![Pred::Last], 2),
        (vec![Pred::PositionIs(2)], 2),
        (vec![Pred::Count(c.clone())], 1),
        (vec![Pred::Cmp(x_is_1, false, "1"), Pred::Nth(1)], 1),
        (vec![Pred::Not(Box::new(Pred::Exists(c)))], 1),
    ] {
        let path = step(preds);
        check(xml, &doc, &path).unwrap();
        assert_eq!(oracle(&doc, &path).len(), expect, "{path}");
    }
}
