//! Static analysis of authorizations against a DTD.
//!
//! The paper's objects are path expressions; at the schema level they are
//! meant to range over *every instance* of a DTD. Administrators
//! therefore want to know, before any instance exists: *which element and
//! attribute declarations can this authorization ever cover?* This module
//! holds the DTD graph (the tree of Figure 1(b), with recursion folded
//! into a graph) and answers that question with the may side of the one
//! schema-level path evaluator, [`select`](mod@crate::static_analysis::select),
//! so coverage is a sound over-approximation of what the path selects on
//! some instance. An authorization whose coverage is empty is *dead*: no
//! instance of the DTD has a node it could ever select (usually a typo in
//! the path).

use crate::static_analysis::select::{select, Selection};
use std::collections::{BTreeMap, BTreeSet};
use xmlsec_authz::Authorization;
use xmlsec_dtd::{ContentSpec, Dtd};
use xmlsec_xpath::{NodeTest, PathExpr};

/// A schema-level node a path can select.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum SchemaNode {
    /// An element declaration.
    Element(String),
    /// An attribute declaration, qualified by its element.
    Attribute {
        /// Owning element name.
        element: String,
        /// Attribute name.
        attribute: String,
    },
}

impl std::fmt::Display for SchemaNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchemaNode::Element(e) => write!(f, "<{e}>"),
            SchemaNode::Attribute { element, attribute } => write!(f, "<{element}>/@{attribute}"),
        }
    }
}

/// The element-containment graph of a DTD.
pub(crate) struct SchemaGraph<'d> {
    pub(crate) dtd: &'d Dtd,
    /// element → child element names (from its content model).
    pub(crate) children: BTreeMap<&'d str, BTreeSet<&'d str>>,
    /// element → parent element names.
    pub(crate) parents: BTreeMap<&'d str, BTreeSet<&'d str>>,
    pub(crate) root: &'d str,
}

impl<'d> SchemaGraph<'d> {
    /// The graph of `dtd` rooted at `root_element`, or `None` when the DTD
    /// does not declare that element.
    pub(crate) fn new(dtd: &'d Dtd, root_element: &str) -> Option<Self> {
        let root = dtd.elements.get_key_value(root_element)?.0.as_str();
        let mut children: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
        let mut parents: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
        for (name, decl) in &dtd.elements {
            let kids: BTreeSet<&str> = match &decl.content {
                ContentSpec::Children(p) => p.names().into_iter().collect(),
                ContentSpec::Mixed(ns) => ns.iter().map(String::as_str).collect(),
                _ => BTreeSet::new(),
            };
            for k in &kids {
                parents.entry(k).or_default().insert(name.as_str());
            }
            children.insert(name.as_str(), kids);
        }
        Some(SchemaGraph { dtd, children, parents, root })
    }

    /// The element declarations reachable from the root, root included,
    /// in name order.
    pub(crate) fn reachable(&self) -> Vec<&'d str> {
        let mut set = self.descendants(self.root);
        set.insert(self.root);
        set.into_iter().collect()
    }

    pub(crate) fn kids(&self, e: &str) -> impl Iterator<Item = &'d str> + '_ {
        self.children.get(e).into_iter().flatten().copied()
    }

    pub(crate) fn pars(&self, e: &str) -> impl Iterator<Item = &'d str> + '_ {
        self.parents.get(e).into_iter().flatten().copied()
    }

    pub(crate) fn descendants(&self, e: &str) -> BTreeSet<&'d str> {
        closure(&self.children, e)
    }

    pub(crate) fn ancestors(&self, e: &str) -> BTreeSet<&'d str> {
        closure(&self.parents, e)
    }

    /// `true` when `target` is reachable from the graph root walking child
    /// edges while avoiding the vertices in `avoid` (the root itself
    /// included: if the root is avoided and is not the target, nothing is
    /// reachable).
    pub(crate) fn reachable_avoiding(&self, target: &str, avoid: &BTreeSet<&str>) -> bool {
        if avoid.contains(self.root) {
            return self.root == target;
        }
        let mut seen: BTreeSet<&str> = [self.root].into();
        let mut stack = vec![self.root];
        while let Some(x) = stack.pop() {
            if x == target {
                return true;
            }
            for k in self.kids(x) {
                if !avoid.contains(k) && seen.insert(k) {
                    stack.push(k);
                }
            }
        }
        false
    }
}

/// Everything reachable from `e` over one or more `edges`.
fn closure<'d>(edges: &BTreeMap<&'d str, BTreeSet<&'d str>>, e: &str) -> BTreeSet<&'d str> {
    let mut out = BTreeSet::new();
    let mut stack = vec![e];
    while let Some(x) = stack.pop() {
        for &y in edges.get(x).into_iter().flatten() {
            if out.insert(y) {
                stack.push(y);
            }
        }
    }
    out
}

/// Computes the set of schema nodes `path` can select on instances of
/// `dtd` rooted at `root_element`: the may side of the schema-level
/// [`select`](mod@crate::static_analysis::select), so a sound
/// over-approximation. Empty when the DTD does not declare the root.
pub fn schema_coverage(dtd: &Dtd, root_element: &str, path: &PathExpr) -> BTreeSet<SchemaNode> {
    SchemaGraph::new(dtd, root_element)
        .map(|g| may_nodes(&select(&g, Some(path))))
        .unwrap_or_default()
}

/// The declarations a selection may select.
fn may_nodes(sel: &Selection) -> BTreeSet<SchemaNode> {
    let elements = sel.elements.keys().map(|e| SchemaNode::Element(e.clone()));
    let attributes = sel.attributes.keys().map(|(element, attribute)| SchemaNode::Attribute {
        element: element.clone(),
        attribute: attribute.clone(),
    });
    elements.chain(attributes).collect()
}

/// Whether a node test passes an element (or, on the attribute axis, an
/// attribute) named `name`.
pub(crate) fn name_matches(test: &NodeTest, name: &str) -> bool {
    match test {
        NodeTest::Name(n) => n == name,
        NodeTest::Wildcard | NodeTest::AnyNode => true,
        NodeTest::Text => false,
    }
}

/// One authorization's analysis result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuthCoverage {
    /// Display form of the authorization.
    pub authorization: String,
    /// Declarations the object path can select (empty = dead path).
    pub covers: BTreeSet<SchemaNode>,
}

/// Analyzes a set of (typically schema-level) authorizations against a
/// DTD: which declarations each can cover, flagging dead paths (every
/// path is dead when the DTD does not declare `root_element`).
pub fn analyze_against_schema(
    dtd: &Dtd,
    root_element: &str,
    auths: &[Authorization],
) -> Vec<AuthCoverage> {
    let g = SchemaGraph::new(dtd, root_element);
    auths
        .iter()
        .map(|a| AuthCoverage {
            authorization: a.to_string(),
            covers: g
                .as_ref()
                .map(|g| may_nodes(&select(g, a.object.path.as_ref())))
                .unwrap_or_default(),
        })
        .collect()
}

/// Schema-coverage findings on the shared [`xmlsec_authz::Finding`] model: one
/// `dead-path` error per authorization whose object can never select a
/// declaration of the DTD.
pub fn coverage_findings(
    dtd: &Dtd,
    root_element: &str,
    auths: &[Authorization],
) -> Vec<xmlsec_authz::Finding> {
    analyze_against_schema(dtd, root_element, auths)
        .iter()
        .enumerate()
        .filter(|(_, c)| c.covers.is_empty())
        .map(|(i, c)| {
            xmlsec_authz::Finding::new(
                xmlsec_authz::Severity::Error,
                "dead-path",
                format!(
                    "object path of `{}` selects nothing on any instance of the DTD",
                    c.authorization
                ),
            )
            .with_auth(i)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmlsec_dtd::parse_dtd;
    use xmlsec_xpath::parse_path;

    const LAB: &str = r#"
        <!ELEMENT laboratory (project+)>
        <!ATTLIST laboratory name CDATA #REQUIRED>
        <!ELEMENT project (manager, member*, fund*, paper*)>
        <!ATTLIST project name CDATA #REQUIRED type (internal|public) #REQUIRED>
        <!ELEMENT manager (flname, email?)>
        <!ELEMENT member (flname, email?)>
        <!ELEMENT flname (#PCDATA)>
        <!ELEMENT email (#PCDATA)>
        <!ELEMENT fund (sponsor, amount?)>
        <!ELEMENT sponsor (#PCDATA)>
        <!ELEMENT amount (#PCDATA)>
        <!ELEMENT paper (title, authors?)>
        <!ATTLIST paper category (private|public) #REQUIRED>
        <!ELEMENT title (#PCDATA)>
        <!ELEMENT authors (#PCDATA)>
    "#;

    fn cover(path: &str) -> Vec<String> {
        let dtd = parse_dtd(LAB).unwrap();
        let p = parse_path(path).unwrap();
        schema_coverage(&dtd, "laboratory", &p)
            .into_iter()
            .map(|n| n.to_string())
            .collect()
    }

    #[test]
    fn rooted_paths() {
        assert_eq!(cover("/laboratory/project"), vec!["<project>"]);
        assert_eq!(cover("/laboratory/project/manager"), vec!["<manager>"]);
        assert_eq!(cover("/wrongroot/project"), Vec::<String>::new());
    }

    #[test]
    fn descendant_paths() {
        assert_eq!(cover("//flname"), vec!["<flname>"]);
        // predicates are ignored: coverage is the paper element
        assert_eq!(cover(r#"//paper[./@category="private"]"#), vec!["<paper>"]);
    }

    #[test]
    fn attribute_paths() {
        assert_eq!(cover("/laboratory/project/@name"), vec!["<project>/@name"]);
        let all = cover("//@*");
        assert!(all.contains(&"<project>/@type".to_string()), "{all:?}");
        assert!(all.contains(&"<laboratory>/@name".to_string()), "{all:?}");
        assert!(all.contains(&"<paper>/@category".to_string()), "{all:?}");
    }

    #[test]
    fn relative_paths_start_at_root_element() {
        assert_eq!(cover(r#"project"#), vec!["<project>"]);
        assert_eq!(cover("project/manager"), vec!["<manager>"]);
    }

    #[test]
    fn ancestor_and_parent() {
        assert_eq!(cover("//fund/ancestor::project"), vec!["<project>"]);
        assert_eq!(cover("//flname/.."), vec!["<manager>", "<member>"]);
    }

    #[test]
    fn wildcard_and_multi_coverage() {
        let c = cover("/laboratory/project/*");
        assert_eq!(c, vec!["<fund>", "<manager>", "<member>", "<paper>"]);
    }

    #[test]
    fn dead_paths_detected() {
        assert_eq!(cover("//budget"), Vec::<String>::new());
        assert_eq!(cover("/laboratory/manager"), Vec::<String>::new()); // manager is not a child of laboratory
        assert_eq!(cover("//paper/@nosuch"), Vec::<String>::new());
    }

    #[test]
    fn recursive_dtds_terminate() {
        let dtd = parse_dtd("<!ELEMENT part (part*, label?)><!ELEMENT label (#PCDATA)>").unwrap();
        let p = parse_path("//label").unwrap();
        let c = schema_coverage(&dtd, "part", &p);
        assert_eq!(c.len(), 1);
        let p2 = parse_path("//part/part/part").unwrap();
        assert_eq!(schema_coverage(&dtd, "part", &p2).len(), 1);
    }

    #[test]
    fn ancestor_axis_reaches_document_root() {
        // Regression: `ancestor::node()` dropped the document root, so a
        // downstream step naming the root element was falsely dead —
        // concretely, `//label/ancestor::node()/doc` selects <doc> on
        // every instance that has a label.
        let dtd = parse_dtd(
            "<!ELEMENT doc (sec)><!ELEMENT sec (sec*, label?)><!ELEMENT label (#PCDATA)>",
        )
        .unwrap();
        let p = parse_path("//label/ancestor::node()/doc").unwrap();
        let c = schema_coverage(&dtd, "doc", &p);
        assert_eq!(c.into_iter().map(|n| n.to_string()).collect::<Vec<_>>(), vec!["<doc>"]);
        // ancestor-or-self keeps the root context too.
        let p2 =
            parse_path("//label/ancestor-or-self::node()/ancestor-or-self::node()/doc").unwrap();
        assert_eq!(schema_coverage(&dtd, "doc", &p2).len(), 1);
        // A named ancestor test must NOT smuggle in the virtual root.
        let p3 = parse_path("//label/ancestor::doc/doc").unwrap();
        assert!(schema_coverage(&dtd, "doc", &p3).is_empty());
    }

    #[test]
    fn recursive_cycles_terminate_on_upward_axes() {
        // Self-recursive content model: ancestor/`..` chains cycle in the
        // schema graph; the visited sets must terminate and the coverage
        // stays exact.
        let dtd = parse_dtd("<!ELEMENT part (part*, label?)><!ELEMENT label (#PCDATA)>").unwrap();
        for path in ["//label/ancestor::part", "//label/../../..", "//part/ancestor-or-self::part"]
        {
            let p = parse_path(path).unwrap();
            let c = schema_coverage(&dtd, "part", &p);
            assert_eq!(
                c.into_iter().map(|n| n.to_string()).collect::<Vec<_>>(),
                vec!["<part>"],
                "{path}"
            );
        }
        // Round trip through the cycle and back down.
        let p = parse_path("//label/ancestor::node()/part/label").unwrap();
        assert_eq!(schema_coverage(&dtd, "part", &p).len(), 1);
    }

    #[test]
    fn steps_after_an_attribute_are_not_dead() {
        assert_eq!(cover("/laboratory/@name/.."), vec!["<laboratory>"]);
        assert_eq!(cover("//paper/@category/."), vec!["<paper>/@category"]);
        assert_eq!(cover("//paper/@category/ancestor::project"), vec!["<project>"]);
        assert_eq!(cover("//paper/@category/title"), Vec::<String>::new());
    }

    #[test]
    fn coverage_findings_flag_dead_paths_only() {
        use xmlsec_authz::{AuthType, ObjectSpec, Severity, Sign};
        use xmlsec_subjects::Subject;
        let dtd = parse_dtd(LAB).unwrap();
        let auths = vec![
            Authorization::new(
                Subject::new("Public", "*", "*").unwrap(),
                ObjectSpec::with_path("lab.dtd", "//paper").unwrap(),
                Sign::Plus,
                AuthType::Recursive,
            ),
            Authorization::new(
                Subject::new("Public", "*", "*").unwrap(),
                ObjectSpec::with_path("lab.dtd", "//papre").unwrap(),
                Sign::Plus,
                AuthType::Recursive,
            ),
        ];
        let fs = coverage_findings(&dtd, "laboratory", &auths);
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].kind, "dead-path");
        assert_eq!(fs[0].severity, Severity::Error);
        assert_eq!(fs[0].span.auth, Some(1));
    }

    #[test]
    fn analyze_example1_against_laboratory() {
        use xmlsec_authz::{AuthType, ObjectSpec, Sign};
        use xmlsec_subjects::Subject;
        let dtd = parse_dtd(LAB).unwrap();
        let auths = vec![
            Authorization::new(
                Subject::new("Foreign", "*", "*").unwrap(),
                ObjectSpec::with_path("lab.dtd", r#"/laboratory//paper[./@category="private"]"#)
                    .unwrap(),
                Sign::Minus,
                AuthType::Recursive,
            ),
            Authorization::new(
                Subject::new("Public", "*", "*").unwrap(),
                ObjectSpec::with_path("lab.dtd", "//typo-element").unwrap(),
                Sign::Plus,
                AuthType::Recursive,
            ),
        ];
        let report = analyze_against_schema(&dtd, "laboratory", &auths);
        assert_eq!(report[0].covers.len(), 1);
        assert!(report[1].covers.is_empty(), "dead path must be flagged");
    }
}
