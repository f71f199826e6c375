//! The schema-level path evaluator: must/may selection of schema nodes
//! by authorization object paths.
//!
//! `select` is the one place a path is evaluated over the DTD graph.
//! Its **may** side answers *which declarations can this path select on
//! some instance*; [`schema_coverage`](crate::analysis::schema_coverage)
//! and the dead-path findings read exactly that. The decision tables,
//! compiled read policies and the static write pre-flight additionally
//! need the **must** direction: which declarations are selected *in
//! every conforming instance, at every node of that type*. Precisely,
//! `must(d)` here means: on every instance, **every** existing node of
//! declaration `d` is selected by the path. (This quantifies over
//! existing nodes — it is vacuously true on instances with no `d` node,
//! which is exactly the strength the decision table needs, since table
//! cells also quantify over existing nodes.)
//!
//! Contexts mirror the concrete evaluator's nodes: the virtual document
//! root, elements, attributes, and character data (text, comments,
//! processing instructions). An attribute or character-data context has
//! no children, attributes or siblings of its own, but a later step can
//! keep it (`.`, `descendant-or-self::node()`) or climb to its owner
//! element and beyond (`..`, `ancestor::`), so `@id/..` selects the
//! element carrying `id`. Elements reached by climbing are mays.
//!
//! May stays an over-approximation, must an under-approximation; both
//! err toward the middle verdict "instance-dependent", never toward a
//! false guarantee.

use crate::analysis::{name_matches, SchemaGraph};
use std::collections::{BTreeMap, BTreeSet};
use xmlsec_dtd::ContentSpec;
use xmlsec_xpath::{Axis, NodeTest, PathExpr};

/// Why a path's may and must sets differ (the instance-dependence
/// source named in decision-table cells).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DependencySource {
    /// A step carries a predicate — selection depends on instance data.
    Predicate,
    /// Selection depends on instance structure: optional or branching
    /// content, upward (`..`/`ancestor::`) or sibling axes.
    Structure,
}

impl DependencySource {
    /// Human phrase used in cell reasons.
    pub fn describe(self) -> &'static str {
        match self {
            DependencySource::Predicate => "a predicate on its object path",
            DependencySource::Structure => {
                "instance structure (optional content or an upward/sibling axis)"
            }
        }
    }
}

/// The selection of one object path over the schema graph.
#[derive(Debug, Clone, Default)]
pub struct Selection {
    /// Element declarations the path may select → whether it must select
    /// every node of that type.
    pub elements: BTreeMap<String, bool>,
    /// Attribute declarations `(element, attribute)` the path may select
    /// → must flag.
    pub attributes: BTreeMap<(String, String), bool>,
    /// Why some may-selected node is not must-selected (`None` when
    /// every may is a must).
    pub dependency: Option<DependencySource>,
}

impl Selection {
    /// `true` when the path selects no declaration on any instance.
    pub fn is_dead(&self) -> bool {
        self.elements.is_empty() && self.attributes.is_empty()
    }
}

/// Evaluation context: the virtual document root, element types and
/// attribute declarations, each with a must flag, and the element types
/// whose character-data children (text, comments, processing
/// instructions) are selected. Character data is no declaration, so it
/// never reaches the result and carries no must flag, but a later step
/// can climb out of it.
#[derive(Debug, Clone, Default)]
struct CtxSet<'d> {
    els: BTreeMap<&'d str, bool>,
    attrs: BTreeMap<(&'d str, &'d str), bool>,
    chars: BTreeSet<&'d str>,
    root_may: bool,
    root_must: bool,
}

impl<'d> CtxSet<'d> {
    fn add_el(&mut self, e: &'d str, must: bool) {
        let m = self.els.entry(e).or_insert(false);
        *m = *m || must;
    }

    fn add_attr(&mut self, e: &'d str, a: &'d str, must: bool) {
        let m = self.attrs.entry((e, a)).or_insert(false);
        *m = *m || must;
    }

    fn add_root(&mut self, must: bool) {
        self.root_may = true;
        self.root_must = self.root_must || must;
    }

    fn must_els(&self) -> BTreeSet<&'d str> {
        self.els.iter().filter(|(_, &m)| m).map(|(&e, _)| e).collect()
    }

    fn is_empty(&self) -> bool {
        self.els.is_empty() && self.attrs.is_empty() && self.chars.is_empty() && !self.root_may
    }

    fn clear_musts(&mut self) {
        for m in self.els.values_mut().chain(self.attrs.values_mut()) {
            *m = false;
        }
        self.root_must = false;
    }
}

/// Whether a test passes character data: `text()` passes text nodes,
/// `node()` every node.
fn passes_chars(test: &NodeTest) -> bool {
    matches!(test, NodeTest::Text | NodeTest::AnyNode)
}

/// Whether a test on a non-attribute axis (`self`, the or-self axes)
/// passes an attribute. The principal node type of those axes is
/// element, so a name test or `*` never does; only `node()` does.
fn passes_attribute(test: &NodeTest) -> bool {
    matches!(test, NodeTest::AnyNode)
}

/// Whether nodes of element type `e` can have character-data children.
/// Any content but `EMPTY` admits comments and processing instructions.
fn may_hold_chars(g: &SchemaGraph<'_>, e: &str) -> bool {
    !g.dtd.element(e).is_some_and(|d| matches!(d.content, ContentSpec::Empty))
}

/// Must-selection for a `descendant::` step: every `d`-node is a proper
/// descendant of a must-selected node iff every schema path from the
/// root to `d` passes through one of `must_sources` strictly before
/// first reaching `d` — a vertex-cut check.
fn descendant_must(g: &SchemaGraph<'_>, d: &str, must_sources: &BTreeSet<&str>) -> bool {
    let mut avoid = must_sources.clone();
    avoid.remove(d);
    !g.reachable_avoiding(d, &avoid)
}

/// Evaluates `path` (or the whole-document object when `None`) over the
/// schema graph, returning may/must selection. Mirrors the concrete
/// evaluator: absolute paths start at the virtual document root,
/// relative paths at the document element.
pub(crate) fn select(g: &SchemaGraph<'_>, path: Option<&PathExpr>) -> Selection {
    let mut sel = Selection::default();
    let Some(path) = path else {
        // Whole-document object: exactly the document element node. All
        // root-typed nodes are selected only when the type cannot nest.
        let must = g.pars(g.root).next().is_none();
        sel.elements.insert(g.root.to_string(), must);
        if !must {
            sel.dependency = Some(DependencySource::Structure);
        }
        return sel;
    };

    let mut current = CtxSet::default();
    if path.absolute {
        current.add_root(true);
    } else {
        // The context is the document element; every root-typed node is
        // that element only when the type cannot nest.
        current.add_el(g.root, g.pars(g.root).next().is_none());
    }
    let mut dependency: Option<DependencySource> = None;
    let note = |d: DependencySource, dep: &mut Option<DependencySource>| {
        if *dep != Some(DependencySource::Predicate) {
            *dep = Some(d);
        }
    };

    for step in &path.steps {
        let mut next = CtxSet::default();
        let cur_must = current.must_els();

        match step.axis {
            Axis::Child => {
                let mut may: BTreeSet<&str> = BTreeSet::new();
                if current.root_may && name_matches(&step.test, g.root) {
                    may.insert(g.root);
                }
                for &e in current.els.keys() {
                    for k in g.kids(e) {
                        if name_matches(&step.test, k) {
                            may.insert(k);
                        }
                    }
                    if passes_chars(&step.test) && may_hold_chars(g, e) {
                        next.chars.insert(e);
                    }
                }
                for k in may {
                    // Every k-node's parent must be selected: all element
                    // parents of k, and the document root when k is the
                    // root type (the document element's parent).
                    let el_parents_must = g.pars(k).all(|p| cur_must.contains(p));
                    let root_parent_must = k != g.root || current.root_must;
                    next.add_el(k, el_parents_must && root_parent_must);
                }
            }
            Axis::Descendant | Axis::DescendantOrSelf => {
                let mut may: BTreeSet<&str> = BTreeSet::new();
                if current.root_may {
                    may.extend(g.descendants(g.root));
                    may.insert(g.root);
                    if matches!(step.test, NodeTest::AnyNode) {
                        // Over-approximation: the root context survives
                        // `descendant::node()` too, as a may; only the
                        // or-self reading makes it a must.
                        next.add_root(step.axis == Axis::DescendantOrSelf && current.root_must);
                    }
                }
                for &e in current.els.keys() {
                    may.extend(g.descendants(e));
                    if step.axis == Axis::DescendantOrSelf {
                        may.insert(e);
                    }
                }
                if passes_chars(&step.test) {
                    // Character data below a context sits in the context
                    // element itself or in a descendant element.
                    let holders = may.iter().chain(current.els.keys()).copied();
                    next.chars.extend(holders.filter(|&h| may_hold_chars(g, h)));
                }
                for d in may {
                    if !name_matches(&step.test, d) {
                        continue;
                    }
                    let must = if current.root_must {
                        // Every element node descends from the document
                        // root; or-self needs no extra care for elements.
                        true
                    } else {
                        (step.axis == Axis::DescendantOrSelf && cur_must.contains(d))
                            || descendant_must(g, d, &cur_must)
                    };
                    next.add_el(d, must);
                }
            }
            Axis::Parent => {
                for &e in current.els.keys() {
                    if e == g.root && matches!(step.test, NodeTest::AnyNode) {
                        // The document element's parent is the document
                        // root — selected for sure when every root-typed
                        // node is (the document element always exists).
                        next.add_root(cur_must.contains(g.root));
                    }
                    for p in g.pars(e) {
                        if name_matches(&step.test, p) {
                            // Only p-nodes that *have* an e-child are
                            // selected: never a must.
                            next.add_el(p, false);
                        }
                    }
                }
            }
            Axis::Ancestor | Axis::AncestorOrSelf => {
                if current.root_may
                    && step.axis == Axis::AncestorOrSelf
                    && matches!(step.test, NodeTest::AnyNode)
                {
                    next.add_root(current.root_must);
                }
                for &e in current.els.keys() {
                    let mut set = g.ancestors(e);
                    if step.axis == Axis::AncestorOrSelf {
                        set.insert(e);
                    }
                    for a in set {
                        if name_matches(&step.test, a) {
                            // Ancestors of selected nodes: a must only
                            // for the or-self part (selection of all
                            // a-nodes is otherwise existential).
                            let must =
                                step.axis == Axis::AncestorOrSelf && a == e && cur_must.contains(e);
                            next.add_el(a, must);
                        }
                    }
                    if matches!(step.test, NodeTest::AnyNode) {
                        // The document root is an ancestor of every
                        // element; never a must (the source node may not
                        // exist on a given instance).
                        next.add_root(false);
                    }
                }
            }
            Axis::SelfAxis => {
                if current.root_may && matches!(step.test, NodeTest::AnyNode) {
                    next.add_root(current.root_must);
                }
                for (&e, &m) in &current.els {
                    if name_matches(&step.test, e) {
                        next.add_el(e, m);
                    }
                }
            }
            Axis::FollowingSibling | Axis::PrecedingSibling => {
                // Approximation: siblings = the children of any parent
                // of a context node, character data included.
                let parents = current.els.keys().flat_map(|&e| g.pars(e));
                for p in parents.chain(current.chars.iter().copied()) {
                    for s in g.kids(p) {
                        if name_matches(&step.test, s) {
                            next.add_el(s, false);
                        }
                    }
                    if passes_chars(&step.test) && may_hold_chars(g, p) {
                        next.chars.insert(p);
                    }
                }
            }
            Axis::Attribute => {
                for (&e, &m) in &current.els {
                    for def in g.dtd.attributes(e) {
                        if name_matches(&step.test, &def.name) {
                            // Attribute nodes of must-selected elements
                            // are all selected (quantifying over the
                            // attributes that exist).
                            next.add_attr(e, &def.name, m);
                        }
                    }
                }
            }
        }

        // Attributes and character data have no children, attributes or
        // siblings: only the self and upward directions leave them. A
        // self step keeps a node its test passes; climbing reaches the
        // owner element first, then (on the ancestor axes) the owner's
        // ancestors and the document root. Climbed-to elements are never
        // musts: only owners that hold such a node are selected.
        let keeps_self =
            matches!(step.axis, Axis::SelfAxis | Axis::DescendantOrSelf | Axis::AncestorOrSelf);
        let mut owners: BTreeSet<&str> = BTreeSet::new();
        for (&(e, a), &m) in &current.attrs {
            if keeps_self && passes_attribute(&step.test) {
                next.add_attr(e, a, m);
            }
            owners.insert(e);
        }
        for &e in &current.chars {
            if keeps_self && passes_chars(&step.test) {
                next.chars.insert(e);
            }
            owners.insert(e);
        }
        if matches!(step.axis, Axis::Parent | Axis::Ancestor | Axis::AncestorOrSelf) {
            for e in owners {
                let mut up = BTreeSet::from([e]);
                if step.axis != Axis::Parent {
                    up.extend(g.ancestors(e));
                    if matches!(step.test, NodeTest::AnyNode) {
                        next.add_root(false);
                    }
                }
                for a in up.into_iter().filter(|a| name_matches(&step.test, a)) {
                    next.add_el(a, false);
                }
            }
        }

        if !step.predicates.is_empty() {
            // A predicate can drop any subset of the selected nodes.
            next.clear_musts();
            note(DependencySource::Predicate, &mut dependency);
        }

        current = next;
        if current.is_empty() {
            break;
        }
    }

    for (e, m) in &current.els {
        sel.elements.insert((*e).to_string(), *m);
        if !*m {
            note(DependencySource::Structure, &mut dependency);
        }
    }
    for ((e, a), m) in &current.attrs {
        sel.attributes.insert(((*e).to_string(), (*a).to_string()), *m);
        if !*m {
            note(DependencySource::Structure, &mut dependency);
        }
    }
    sel.dependency = dependency;
    sel
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmlsec_dtd::parse_dtd;
    use xmlsec_xpath::parse_path;

    fn selection(dtd_src: &str, root: &str, path: &str) -> Selection {
        let dtd = parse_dtd(dtd_src).unwrap();
        let g = SchemaGraph::new(&dtd, root).unwrap();
        select(&g, Some(&parse_path(path).unwrap()))
    }

    const LAB: &str = r#"
        <!ELEMENT laboratory (project+)>
        <!ELEMENT project (manager, member*, paper*)>
        <!ELEMENT manager (#PCDATA)>
        <!ELEMENT member (#PCDATA)>
        <!ELEMENT paper (title)>
        <!ATTLIST paper category CDATA #REQUIRED>
        <!ELEMENT title (#PCDATA)>
    "#;

    #[test]
    fn rooted_chains_are_musts() {
        let s = selection(LAB, "laboratory", "/laboratory/project/paper");
        assert_eq!(s.elements.get("paper"), Some(&true));
        assert!(s.dependency.is_none());
        // Descendant from the absolute root: every node of the type.
        let s2 = selection(LAB, "laboratory", "//paper");
        assert_eq!(s2.elements.get("paper"), Some(&true));
        let s3 = selection(LAB, "laboratory", "//paper/@category");
        assert_eq!(s3.attributes.get(&("paper".into(), "category".into())), Some(&true));
    }

    #[test]
    fn predicates_demote_to_may() {
        let s = selection(LAB, "laboratory", r#"//paper[./@category="public"]"#);
        assert_eq!(s.elements.get("paper"), Some(&false));
        assert_eq!(s.dependency, Some(DependencySource::Predicate));
    }

    #[test]
    fn relative_start_and_parent_axis() {
        // Relative paths start at the document element, which is every
        // laboratory node (the type cannot nest).
        let s = selection(LAB, "laboratory", "project");
        assert_eq!(s.elements.get("project"), Some(&true));
        // Parent axis: only projects *with* a paper are selected.
        let s2 = selection(LAB, "laboratory", "//paper/..");
        assert_eq!(s2.elements.get("project"), Some(&false));
        assert_eq!(s2.dependency, Some(DependencySource::Structure));
    }

    #[test]
    fn descendant_must_uses_vertex_cut() {
        // Two routes to <shared>: via a and via b. Selecting all <a>
        // does not guarantee selecting all <shared>.
        let dtd = r#"
            <!ELEMENT doc (a, b)>
            <!ELEMENT a (shared?)>
            <!ELEMENT b (shared?)>
            <!ELEMENT shared (#PCDATA)>
        "#;
        let s = selection(dtd, "doc", "/doc/a//shared");
        assert_eq!(s.elements.get("shared"), Some(&false));
        // But every route to <only> passes through <a>.
        let dtd2 = r#"
            <!ELEMENT doc (a, b)>
            <!ELEMENT a (only?)>
            <!ELEMENT b (#PCDATA)>
            <!ELEMENT only (#PCDATA)>
        "#;
        let s2 = selection(dtd2, "doc", "/doc/a//only");
        assert_eq!(s2.elements.get("only"), Some(&true));
    }

    #[test]
    fn recursive_types_are_never_blanket_musts_from_one_level() {
        let dtd = "<!ELEMENT part (part*, label?)><!ELEMENT label (#PCDATA)>";
        // /part selects only the document element, not nested parts.
        let s = selection(dtd, "part", "/part");
        assert_eq!(s.elements.get("part"), Some(&false));
        // //part selects every part node.
        let s2 = selection(dtd, "part", "//part");
        assert_eq!(s2.elements.get("part"), Some(&true));
        // //label is every label (all routes pass through part... but the
        // absolute root guarantees it directly).
        let s3 = selection(dtd, "part", "//label");
        assert_eq!(s3.elements.get("label"), Some(&true));
    }

    #[test]
    fn whole_document_objects_select_the_document_element() {
        let dtd = parse_dtd(LAB).unwrap();
        let g = SchemaGraph::new(&dtd, "laboratory").unwrap();
        let s = select(&g, None);
        assert_eq!(s.elements.get("laboratory"), Some(&true));
        let rec = parse_dtd("<!ELEMENT part (part*)>").unwrap();
        let g2 = SchemaGraph::new(&rec, "part").unwrap();
        let s2 = select(&g2, None);
        assert_eq!(s2.elements.get("part"), Some(&false), "nested parts are not the document");
    }

    #[test]
    fn upward_axes_and_siblings_stay_may() {
        let s = selection(LAB, "laboratory", "//title/ancestor::paper");
        assert_eq!(s.elements.get("paper"), Some(&false));
        let s2 = selection(LAB, "laboratory", "//manager/following-sibling::member");
        assert_eq!(s2.elements.get("member"), Some(&false));
        // ancestor-or-self keeps the self part's must.
        let s3 = selection(LAB, "laboratory", "//paper/ancestor-or-self::paper");
        assert_eq!(s3.elements.get("paper"), Some(&true));
    }

    #[test]
    fn steps_after_an_attribute_climb_to_its_owner() {
        let els = |s: &Selection| s.elements.clone().into_iter().collect::<Vec<_>>();
        // `..` and `parent::` reach the owner element, as a may (only
        // owners holding the attribute are selected).
        let s = selection(LAB, "laboratory", "//paper/@category/..");
        assert_eq!(els(&s), vec![("paper".to_string(), false)]);
        assert!(s.attributes.is_empty());
        assert_eq!(s.dependency, Some(DependencySource::Structure));
        let s = selection(LAB, "laboratory", "//paper/@category/parent::paper");
        assert_eq!(els(&s), vec![("paper".to_string(), false)]);
        assert!(selection(LAB, "laboratory", "//paper/@category/parent::title").is_dead());
        // The ancestor axes continue past the owner to the document root.
        let s = selection(LAB, "laboratory", "//paper/@category/ancestor::*");
        let names: Vec<String> = s.elements.into_keys().collect();
        assert_eq!(names, ["laboratory", "paper", "project"]);
        let s = selection(LAB, "laboratory", "//paper/@category/ancestor::node()/laboratory");
        assert_eq!(s.elements.get("laboratory"), Some(&false));
    }

    #[test]
    fn self_steps_keep_an_attribute_and_other_axes_drop_it() {
        let category = ("paper".to_string(), "category".to_string());
        // `.`, `descendant-or-self::node()` and `self::node()` keep it,
        // must flag included.
        for path in [
            "//paper/@category/.",
            "//paper/@category/descendant-or-self::node()",
            "//paper/@category/ancestor-or-self::node()/self::node()",
        ] {
            let s = selection(LAB, "laboratory", path);
            assert_eq!(s.attributes.get(&category), Some(&true), "{path}");
        }
        // Attributes have no children, attributes or siblings, and a name
        // test or `*` on a non-attribute axis tests for elements (the
        // axis's principal node type), so it never passes an attribute.
        for path in [
            "//paper/@category/self::category",
            "//paper/@category/ancestor-or-self::category",
            "//paper/@category/descendant-or-self::category",
            "//paper/@category/*",
            "//paper/@category/node()",
            "//paper/@category//title",
            "//paper/@category/@category",
            "//paper/@category/following-sibling::node()",
            "//paper/@category/self::*",
            "//paper/@category/descendant::node()",
        ] {
            assert!(selection(LAB, "laboratory", path).is_dead(), "{path}");
        }
    }

    #[test]
    fn steps_after_character_data_climb_to_its_element() {
        // `title` holds only text, so only a character-data context can
        // lead back to it.
        let s = selection(LAB, "laboratory", "//title/text()/..");
        assert_eq!(s.elements.get("title"), Some(&false));
        let s = selection(LAB, "laboratory", "//paper/title/node()/parent::*");
        assert_eq!(s.elements.get("title"), Some(&false));
        let s = selection(LAB, "laboratory", "//title/node()/ancestor::paper");
        assert_eq!(s.elements.get("paper"), Some(&false));
        // Character data is a sibling of its element siblings.
        let s = selection(LAB, "laboratory", "//project/text()/following-sibling::paper");
        assert_eq!(s.elements.get("paper"), Some(&false));
        // An EMPTY element has no character data to climb out of.
        let empty = "<!ELEMENT doc (br)><!ELEMENT br EMPTY>";
        assert!(selection(empty, "doc", "//br/node()/..").is_dead());
        assert_eq!(selection(empty, "doc", "/doc/node()/..").elements.get("doc"), Some(&false));
    }
}
