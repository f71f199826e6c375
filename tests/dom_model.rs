//! The flat DOM arena checked against an independent owned-tree model.
//!
//! The model keeps every node as its own record with owned `String`s and
//! `Vec`s, keyed by the id the arena issued for it, and applies each
//! mutation by the plain tree semantics the arena documents: append,
//! `set_attribute` (new or replacing), `detach`, `remove_subtree`,
//! `import_subtree`, `replace_with_subtree`, and `clone`. After every
//! step the arena must serialize to the model's own serialization, agree
//! on `parent`/`children`/`attributes` and on `contains` for every id it
//! ever issued, and may claim `ids_preordered` only while its ids really
//! enumerate the reachable tree in document order.
//!
//! A second test commits 10k text replacements to one document and
//! checks that compaction keeps its buffers within twice those of a
//! fresh parse of its bytes.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use xmlsec::core::{apply_updates_in_place, UpdateOp};
use xmlsec::workload::laboratory_scaled;
use xmlsec::xml::{parse, serialize, Document, NodeId, SerializeOptions};

const NAMES: [&str; 4] = ["a", "b", "c", "dd"];
const VALUES: [&str; 6] = ["", "1", "x y", "a&b<c>\"q\"", "tab\there\nnl", "é€😀"];

#[derive(Debug, Clone, PartialEq)]
enum Kind {
    Element(String),
    Attr(String, String),
    Text(String),
    Comment(String),
    Pi(String, String),
}

#[derive(Debug, Clone)]
struct MNode {
    kind: Kind,
    parent: Option<NodeId>,
    attrs: Vec<NodeId>,
    children: Vec<NodeId>,
}

/// An owned tree for a fragment to import, built without the arena.
#[derive(Debug, Clone)]
struct Frag {
    kind: Kind,
    attrs: Vec<(String, String)>,
    children: Vec<Frag>,
}

#[derive(Debug, Clone)]
struct Model {
    nodes: BTreeMap<NodeId, MNode>,
    root: NodeId,
}

fn escape(s: &str, attr: bool) -> String {
    let mut out = String::new();
    for c in s.chars() {
        match c {
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '&' => out.push_str("&amp;"),
            '"' if attr => out.push_str("&quot;"),
            '\n' if attr => out.push_str("&#10;"),
            '\t' if attr => out.push_str("&#9;"),
            '\r' if attr => out.push_str("&#13;"),
            c => out.push(c),
        }
    }
    out
}

impl Model {
    fn node(&self, id: NodeId) -> &MNode {
        &self.nodes[&id]
    }

    fn is_element(&self, id: NodeId) -> bool {
        matches!(self.node(id).kind, Kind::Element(_))
    }

    /// Registers a freshly issued id: it must be new to this model.
    fn insert(&mut self, id: NodeId, kind: Kind, parent: NodeId) {
        assert!(!self.nodes.contains_key(&id), "arena reissued live id {id}");
        self.nodes
            .insert(id, MNode { kind, parent: Some(parent), attrs: vec![], children: vec![] });
    }

    fn serialize(&self, id: NodeId, out: &mut String) {
        let n = self.node(id);
        match &n.kind {
            Kind::Element(name) => {
                out.push('<');
                out.push_str(name);
                for &a in &n.attrs {
                    let Kind::Attr(an, av) = &self.node(a).kind else { panic!("non-attribute") };
                    out.push_str(&format!(" {an}=\"{}\"", escape(av, true)));
                }
                if n.children.is_empty() {
                    out.push_str("/>");
                    return;
                }
                out.push('>');
                for &c in &n.children {
                    self.serialize(c, out);
                }
                out.push_str(&format!("</{name}>"));
            }
            Kind::Text(t) => out.push_str(&escape(t, false)),
            Kind::Comment(t) => out.push_str(&format!("<!--{t}-->")),
            Kind::Pi(t, d) if d.is_empty() => out.push_str(&format!("<?{t}?>")),
            Kind::Pi(t, d) => out.push_str(&format!("<?{t} {d}?>")),
            Kind::Attr(..) => unreachable!("attributes are written by their element"),
        }
    }

    /// Reachable ids in document order: each element, then its
    /// attributes, then its children.
    fn document_order(&self, id: NodeId, out: &mut Vec<NodeId>) {
        out.push(id);
        let n = self.node(id);
        out.extend(&n.attrs);
        for &c in &n.children {
            self.document_order(c, out);
        }
    }

    fn detach(&mut self, id: NodeId) -> bool {
        let Some(p) = self.node(id).parent else { return false };
        let pn = self.nodes.get_mut(&p).expect("live parent");
        pn.attrs.retain(|&x| x != id);
        pn.children.retain(|&x| x != id);
        self.nodes.get_mut(&id).expect("live").parent = None;
        true
    }

    fn remove_subtree(&mut self, id: NodeId) -> usize {
        if id == self.root {
            return 0;
        }
        self.detach(id);
        let mut stack = vec![id];
        let mut freed = 0;
        while let Some(n) = stack.pop() {
            let node = self.nodes.remove(&n).expect("live");
            stack.extend(node.attrs);
            stack.extend(node.children);
            freed += 1;
        }
        freed
    }

    /// Adopts the arena's copy `id` of `frag` (appended under `parent`),
    /// checking its shape against the fragment as it goes.
    fn bind(&mut self, doc: &Document, id: NodeId, parent: NodeId, frag: &Frag) {
        self.insert(id, frag.kind.clone(), parent);
        let attrs = doc.attributes(id).to_vec();
        let children = doc.children(id).to_vec();
        assert_eq!(attrs.len(), frag.attrs.len(), "imported attribute count");
        assert_eq!(children.len(), frag.children.len(), "imported child count");
        for (&a, (n, v)) in attrs.iter().zip(&frag.attrs) {
            self.insert(a, Kind::Attr(n.clone(), v.clone()), id);
        }
        for (&c, f) in children.iter().zip(&frag.children) {
            self.bind(doc, c, id, f);
        }
        let node = self.nodes.get_mut(&id).expect("bound");
        node.attrs = attrs;
        node.children = children;
    }
}

fn frag_xml(f: &Frag) -> String {
    let mut m = Model { nodes: BTreeMap::new(), root: NodeId::new(0, 0) };
    fn build(m: &mut Model, f: &Frag, next: &mut u32, parent: Option<NodeId>) -> NodeId {
        let id = NodeId::new(*next, 0);
        *next += 1;
        m.nodes
            .insert(id, MNode { kind: f.kind.clone(), parent, attrs: vec![], children: vec![] });
        for (n, v) in &f.attrs {
            let a = NodeId::new(*next, 0);
            *next += 1;
            m.nodes.insert(
                a,
                MNode {
                    kind: Kind::Attr(n.clone(), v.clone()),
                    parent: Some(id),
                    attrs: vec![],
                    children: vec![],
                },
            );
            m.nodes.get_mut(&id).unwrap().attrs.push(a);
        }
        for c in &f.children {
            let k = build(m, c, next, Some(id));
            m.nodes.get_mut(&id).unwrap().children.push(k);
        }
        id
    }
    m.root = build(&mut m, f, &mut 0, None);
    let mut out = String::new();
    m.serialize(m.root, &mut out);
    out
}

fn pick<'a>(rng: &mut SmallRng, pool: &[&'a str]) -> &'a str {
    pool[rng.gen_range(0..pool.len())]
}

fn random_frag(rng: &mut SmallRng, depth: usize) -> Frag {
    let mut attrs: Vec<(String, String)> = Vec::new();
    for n in NAMES {
        if rng.gen_range(0..3) == 0 {
            attrs.push((n.to_string(), pick(rng, &VALUES).to_string()));
        }
    }
    let mut children = Vec::new();
    let mut last_text = false;
    for _ in 0..if depth >= 2 { 0 } else { rng.gen_range(0..4) } {
        // Adjacent text would merge in a parse; keep one between others.
        match rng.gen_range(0..4) {
            0 if !last_text => {
                let t = ["t", "x&y", "é"][rng.gen_range(0..3)].to_string();
                children.push(Frag { kind: Kind::Text(t), attrs: vec![], children: vec![] });
                last_text = true;
            }
            1 => {
                children.push(Frag {
                    kind: Kind::Comment("c".into()),
                    attrs: vec![],
                    children: vec![],
                });
                last_text = false;
            }
            _ => {
                children.push(random_frag(rng, depth + 1));
                last_text = false;
            }
        }
    }
    Frag { kind: Kind::Element(pick(rng, &NAMES).to_string()), attrs, children }
}

/// Checks every claim the arena makes against the model.
fn compare(doc: &Document, model: &Model, issued: &[NodeId], step: &str) {
    let mut want = String::new();
    model.serialize(model.root, &mut want);
    assert_eq!(serialize(doc, &SerializeOptions::canonical()), want, "after {step}");
    for &id in issued {
        let live = model.nodes.contains_key(&id);
        assert_eq!(doc.contains(id), live, "contains({id}) after {step}");
        if live {
            let n = model.node(id);
            assert_eq!(doc.parent(id), n.parent, "parent({id}) after {step}");
            assert_eq!(doc.attributes(id), &n.attrs[..], "attributes({id}) after {step}");
            assert_eq!(doc.children(id), &n.children[..], "children({id}) after {step}");
        }
    }
    if doc.ids_preordered() {
        let mut order = Vec::new();
        model.document_order(model.root, &mut order);
        assert!(order.windows(2).all(|w| w[0] < w[1]), "false preorder claim after {step}");
    }
}

fn run(seed: u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut doc = Document::new("r");
    let root = doc.root();
    let mut model = Model { nodes: BTreeMap::new(), root };
    model.nodes.insert(
        root,
        MNode { kind: Kind::Element("r".into()), parent: None, attrs: vec![], children: vec![] },
    );
    let mut issued = vec![root];
    for i in 0..60 {
        let live: Vec<NodeId> = model.nodes.keys().copied().collect();
        let elements: Vec<NodeId> = live.iter().copied().filter(|&n| model.is_element(n)).collect();
        let el = elements[rng.gen_range(0..elements.len())];
        let any = live[rng.gen_range(0..live.len())];
        let step = match rng.gen_range(0..11) {
            0 | 1 => {
                let name = pick(&mut rng, &NAMES);
                let id = doc.append_element(el, name);
                model.insert(id, Kind::Element(name.into()), el);
                model.nodes.get_mut(&el).unwrap().children.push(id);
                issued.push(id);
                format!("append_element({el})")
            }
            2 => {
                let t = pick(&mut rng, &VALUES);
                let (id, kind) = match rng.gen_range(0..3) {
                    0 => (doc.append_text(el, t), Kind::Text(t.into())),
                    1 => (doc.append_comment(el, "note"), Kind::Comment("note".into())),
                    _ => {
                        (doc.append_pi(el, "pi", t.trim()), Kind::Pi("pi".into(), t.trim().into()))
                    }
                };
                model.insert(id, kind, el);
                model.nodes.get_mut(&el).unwrap().children.push(id);
                issued.push(id);
                format!("append leaf({el})")
            }
            3 | 4 => {
                let (name, value) = (pick(&mut rng, &NAMES), pick(&mut rng, &VALUES));
                let id = doc.set_attribute(el, name, value).expect("an element");
                let existing = model
                    .node(el)
                    .attrs
                    .iter()
                    .copied()
                    .find(|&a| matches!(&model.node(a).kind, Kind::Attr(n, _) if n == name));
                match existing {
                    Some(a) => {
                        assert_eq!(id, a, "replacing keeps the attribute's id");
                        model.nodes.get_mut(&a).unwrap().kind =
                            Kind::Attr(name.into(), value.into());
                    }
                    None => {
                        model.insert(id, Kind::Attr(name.into(), value.into()), el);
                        model.nodes.get_mut(&el).unwrap().attrs.push(id);
                        issued.push(id);
                    }
                }
                format!("set_attribute({el}, {name})")
            }
            5 => {
                assert_eq!(doc.detach(any), model.detach(any), "detach({any})");
                format!("detach({any})")
            }
            6 | 7 => {
                let want = model.remove_subtree(any);
                assert_eq!(doc.remove_subtree(any), want, "remove_subtree({any})");
                format!("remove_subtree({any})")
            }
            8 | 9 => {
                let frag = random_frag(&mut rng, 0);
                let src = parse(&frag_xml(&frag)).expect("fragment parses");
                let target = el;
                if rng.gen_range(0..2) == 0 {
                    let id = doc.import_subtree(target, &src, src.root());
                    model.nodes.get_mut(&target).unwrap().children.push(id);
                    model.bind(&doc, id, target, &frag);
                    format!("import_subtree({target})")
                } else {
                    let Some(parent) = model.node(target).parent else {
                        assert_eq!(doc.replace_with_subtree(target, &src, src.root()), None);
                        continue;
                    };
                    let pos = model.node(parent).children.iter().position(|&c| c == target);
                    let got = doc.replace_with_subtree(target, &src, src.root());
                    let Some(pos) = pos else {
                        assert_eq!(got, None, "a detached node has no position");
                        continue;
                    };
                    let id = got.expect("a child is replaced");
                    model.remove_subtree(target);
                    model.nodes.get_mut(&parent).unwrap().children.insert(pos, id);
                    model.bind(&doc, id, parent, &frag);
                    format!("replace_with_subtree({target})")
                }
            }
            _ => {
                let copy = doc.clone();
                compare(&doc, &model, &issued, "clone (original)");
                doc = copy;
                "clone".to_string()
            }
        };
        let mut fresh: Vec<NodeId> = model.nodes.keys().copied().collect();
        fresh.retain(|id| !issued.contains(id));
        issued.extend(fresh);
        compare(&doc, &model, &issued, &format!("step {i}: {step}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn arena_matches_the_owned_tree_model(seed in 0u64..u64::MAX) {
        run(seed);
    }
}

/// 10k commits of a new text to one element, each on a clone of the
/// last revision as the server commits: the buffers stay within twice
/// a fresh parse of the document's bytes.
#[test]
fn ten_thousand_set_text_commits_stay_bounded() {
    let mut doc = laboratory_scaled(8, 7);
    let target = "/laboratory/project[1]/paper[1]/title".to_string();
    for i in 0..10_000 {
        let mut work = doc.clone();
        let text = "t".repeat(1 + i % 97);
        let op = UpdateOp::SetText { target: target.clone(), text };
        apply_updates_in_place(&mut work, &[op], None, None).expect("commits");
        doc = work;
        if i % 1000 == 999 {
            let fresh = parse(&serialize(&doc, &SerializeOptions::canonical())).unwrap();
            assert!(
                doc.buffer_bytes() <= 2 * fresh.buffer_bytes(),
                "commit {i}: {} bytes against {} fresh",
                doc.buffer_bytes(),
                fresh.buffer_bytes()
            );
        }
    }
}
