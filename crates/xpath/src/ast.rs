//! Abstract syntax for the paper's XPath subset (its §4, Definition 2 and
//! the surrounding discussion of conditions, axes, and functions).

use std::fmt;
use std::hash::{Hash, Hasher};

/// A parsed path expression: `l1/l2/.../ln`, optionally absolute, each
/// step carrying an axis, a node test, and predicates.
///
/// `Hash` agrees with the structural `==`, so a parsed path can key a
/// memo of what it selects.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct PathExpr {
    /// `true` when the expression starts with `/` (from the document root).
    pub absolute: bool,
    /// The steps, left to right.
    pub steps: Vec<Step>,
}

impl PathExpr {
    /// A relative path with the given steps.
    pub fn relative(steps: Vec<Step>) -> Self {
        PathExpr { absolute: false, steps }
    }

    /// An absolute path with the given steps.
    pub fn absolute(steps: Vec<Step>) -> Self {
        PathExpr { absolute: true, steps }
    }
}

/// One location step.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct Step {
    /// Navigation axis.
    pub axis: Axis,
    /// Which nodes along the axis qualify.
    pub test: NodeTest,
    /// Zero or more bracketed predicates, applied in order.
    pub predicates: Vec<Expr>,
}

impl Step {
    /// A `child::name` step with no predicates.
    pub fn child(name: &str) -> Step {
        Step { axis: Axis::Child, test: NodeTest::Name(name.to_string()), predicates: Vec::new() }
    }

    /// An `attribute::name` step with no predicates.
    pub fn attribute(name: &str) -> Step {
        Step {
            axis: Axis::Attribute,
            test: NodeTest::Name(name.to_string()),
            predicates: Vec::new(),
        }
    }
}

/// The axes the paper uses: `child`, `descendant`, `ancestor` (named in
/// §4), plus the abbreviation support set (`.` = self, `..` = parent,
/// `//` = descendant-or-self, `@` = attribute).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Axis {
    /// `child::` (the default axis).
    Child,
    /// `descendant::`.
    Descendant,
    /// `descendant-or-self::` (expansion of `//`).
    DescendantOrSelf,
    /// `parent::` (`..`).
    Parent,
    /// `ancestor::`.
    Ancestor,
    /// `ancestor-or-self::`.
    AncestorOrSelf,
    /// `self::` (`.`).
    SelfAxis,
    /// `attribute::` (`@`).
    Attribute,
    /// `following-sibling::`.
    FollowingSibling,
    /// `preceding-sibling::`.
    PrecedingSibling,
}

impl Axis {
    /// The axis keyword as written in expressions.
    pub fn keyword(self) -> &'static str {
        match self {
            Axis::Child => "child",
            Axis::Descendant => "descendant",
            Axis::DescendantOrSelf => "descendant-or-self",
            Axis::Parent => "parent",
            Axis::Ancestor => "ancestor",
            Axis::AncestorOrSelf => "ancestor-or-self",
            Axis::SelfAxis => "self",
            Axis::Attribute => "attribute",
            Axis::FollowingSibling => "following-sibling",
            Axis::PrecedingSibling => "preceding-sibling",
        }
    }

    /// Parses an axis keyword.
    pub fn from_keyword(s: &str) -> Option<Axis> {
        Some(match s {
            "child" => Axis::Child,
            "descendant" => Axis::Descendant,
            "descendant-or-self" => Axis::DescendantOrSelf,
            "parent" => Axis::Parent,
            "ancestor" => Axis::Ancestor,
            "ancestor-or-self" => Axis::AncestorOrSelf,
            "self" => Axis::SelfAxis,
            "attribute" => Axis::Attribute,
            "following-sibling" => Axis::FollowingSibling,
            "preceding-sibling" => Axis::PrecedingSibling,
            _ => return None,
        })
    }
}

/// Node test within a step.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum NodeTest {
    /// A specific element/attribute name.
    Name(String),
    /// `*` — any element (or any attribute on the attribute axis).
    Wildcard,
    /// `text()` — text children.
    Text,
    /// `node()` — any node.
    AnyNode,
}

/// Comparison operators usable in conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        })
    }
}

/// Built-in functions (the paper names `child`, `descendant`, `ancestor`
/// as axes/functions; the rest are the standard condition helpers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Func {
    /// `position()` — 1-based position in the evaluation context.
    Position,
    /// `last()` — context size.
    Last,
    /// `count(path)`.
    Count,
    /// `contains(a, b)`.
    Contains,
    /// `starts-with(a, b)`.
    StartsWith,
    /// `name()` — the context node's name.
    Name,
    /// `string(x)` — string conversion.
    StringFn,
    /// `number(x)` — numeric conversion.
    NumberFn,
    /// `not(x)` — boolean negation.
    Not,
    /// `true()`.
    True,
    /// `false()`.
    False,
    /// `normalize-space(x?)`.
    NormalizeSpace,
    /// `concat(a, b, ...)`.
    Concat,
    /// `substring(s, start, len?)` — 1-based, XPath rounding rules
    /// simplified to truncation.
    Substring,
    /// `substring-before(a, b)`.
    SubstringBefore,
    /// `substring-after(a, b)`.
    SubstringAfter,
    /// `string-length(s?)`.
    StringLength,
    /// `translate(s, from, to)`.
    Translate,
    /// `boolean(x)`.
    BooleanFn,
    /// `floor(n)`.
    Floor,
    /// `ceiling(n)`.
    Ceiling,
    /// `round(n)`.
    Round,
    /// `sum(nodeset)`.
    Sum,
}

impl Func {
    /// Parses a function name.
    pub fn from_name(s: &str) -> Option<Func> {
        Some(match s {
            "position" => Func::Position,
            "last" => Func::Last,
            "count" => Func::Count,
            "contains" => Func::Contains,
            "starts-with" => Func::StartsWith,
            "name" => Func::Name,
            "string" => Func::StringFn,
            "number" => Func::NumberFn,
            "not" => Func::Not,
            "true" => Func::True,
            "false" => Func::False,
            "normalize-space" => Func::NormalizeSpace,
            "concat" => Func::Concat,
            "substring" => Func::Substring,
            "substring-before" => Func::SubstringBefore,
            "substring-after" => Func::SubstringAfter,
            "string-length" => Func::StringLength,
            "translate" => Func::Translate,
            "boolean" => Func::BooleanFn,
            "floor" => Func::Floor,
            "ceiling" => Func::Ceiling,
            "round" => Func::Round,
            "sum" => Func::Sum,
            _ => return None,
        })
    }
}

/// Arithmetic operators (XPath 1.0 §3.5; `*` multiplication is not
/// supported because `*` is taken by the wildcard node test — use
/// `div`/`mod`/`+`/`-`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArithOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `div`
    Div,
    /// `mod`
    Mod,
}

/// An expression usable in predicates.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// `a or b`.
    Or(Box<Expr>, Box<Expr>),
    /// `a and b`.
    And(Box<Expr>, Box<Expr>),
    /// `a OP b`.
    Compare(CmpOp, Box<Expr>, Box<Expr>),
    /// `a | b` — node-set union.
    Union(Box<Expr>, Box<Expr>),
    /// `a + b`, `a - b`, `a div b`, `a mod b`.
    Arith(ArithOp, Box<Expr>, Box<Expr>),
    /// `- a`.
    Neg(Box<Expr>),
    /// A (usually relative) path evaluated from the context node.
    Path(PathExpr),
    /// A string literal.
    Literal(String),
    /// A numeric literal.
    Number(f64),
    /// A function call.
    Call(Func, Vec<Expr>),
}

impl Hash for Expr {
    /// Hashes the structure `==` compares. A number hashes by its bits,
    /// with `-0.0` as `0.0` since the two compare equal.
    fn hash<H: Hasher>(&self, h: &mut H) {
        std::mem::discriminant(self).hash(h);
        match self {
            Expr::Or(a, b) | Expr::And(a, b) | Expr::Union(a, b) => (a, b).hash(h),
            Expr::Compare(op, a, b) => (op, a, b).hash(h),
            Expr::Arith(op, a, b) => (op, a, b).hash(h),
            Expr::Neg(a) => a.hash(h),
            Expr::Path(p) => p.hash(h),
            Expr::Literal(s) => s.hash(h),
            Expr::Number(n) => (if *n == 0.0 { 0.0f64 } else { *n }).to_bits().hash(h),
            Expr::Call(f, args) => (f, args).hash(h),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axis_keyword_round_trip() {
        for a in [
            Axis::Child,
            Axis::Descendant,
            Axis::DescendantOrSelf,
            Axis::Parent,
            Axis::Ancestor,
            Axis::AncestorOrSelf,
            Axis::SelfAxis,
            Axis::Attribute,
        ] {
            assert_eq!(Axis::from_keyword(a.keyword()), Some(a));
        }
        assert_eq!(Axis::from_keyword("following"), None);
    }

    #[test]
    fn func_lookup() {
        assert_eq!(Func::from_name("position"), Some(Func::Position));
        assert_eq!(Func::from_name("starts-with"), Some(Func::StartsWith));
        assert_eq!(Func::from_name("id"), None);
    }

    #[test]
    fn cmp_display() {
        assert_eq!(CmpOp::Le.to_string(), "<=");
        assert_eq!(CmpOp::Ne.to_string(), "!=");
    }

    #[test]
    fn structurally_equal_paths_hash_equally() {
        use std::collections::hash_map::DefaultHasher;
        fn hash_of(x: &impl Hash) -> u64 {
            let mut h = DefaultHasher::new();
            x.hash(&mut h);
            h.finish()
        }
        let hash = |text: &str| hash_of(&crate::parse_path(text).unwrap());
        let same = ["//a[@n = 0]", "//a[@n=0]", "//child::a[attribute::n = 0.0]"];
        for text in same {
            assert_eq!(crate::parse_path(text).unwrap(), crate::parse_path(same[0]).unwrap());
            assert_eq!(hash(text), hash(same[0]), "{text}");
        }
        assert_ne!(hash("//a[@n = 1]"), hash(same[0]));
        assert_ne!(hash("/a"), hash("a"));
        assert_eq!(Expr::Number(-0.0), Expr::Number(0.0));
        assert_eq!(hash_of(&Expr::Number(-0.0)), hash_of(&Expr::Number(0.0)));
    }

    #[test]
    fn step_constructors() {
        let s = Step::child("project");
        assert_eq!(s.axis, Axis::Child);
        assert_eq!(s.test, NodeTest::Name("project".into()));
        let a = Step::attribute("name");
        assert_eq!(a.axis, Axis::Attribute);
    }
}
