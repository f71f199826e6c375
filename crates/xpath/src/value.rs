//! XPath 1.0 value model: node-sets, strings, numbers, booleans, with the
//! standard coercions and comparison semantics.

use xmlsec_xml::{Document, NodeId};

/// The result of evaluating an expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A set of nodes, sorted in document order, without duplicates.
    NodeSet(Vec<NodeId>),
    /// A string.
    Str(String),
    /// A number (IEEE double, per XPath 1.0).
    Num(f64),
    /// A boolean.
    Bool(bool),
}

impl Value {
    /// Boolean coercion (XPath 1.0 `boolean()`).
    pub fn to_bool(&self) -> bool {
        match self {
            Value::NodeSet(ns) => !ns.is_empty(),
            Value::Str(s) => !s.is_empty(),
            Value::Num(n) => *n != 0.0 && !n.is_nan(),
            Value::Bool(b) => *b,
        }
    }

    /// Numeric coercion (XPath 1.0 `number()`).
    pub fn to_number(&self, doc: &Document) -> f64 {
        match self {
            Value::NodeSet(_) => str_to_number(&self.to_string_value(doc)),
            Value::Str(s) => str_to_number(s),
            Value::Num(n) => *n,
            Value::Bool(b) => {
                if *b {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }

    /// String coercion (XPath 1.0 `string()`): a node-set converts to the
    /// string-value of its first node in document order.
    pub fn to_string_value(&self, doc: &Document) -> String {
        match self {
            Value::NodeSet(ns) => ns.first().map(|&n| doc.text_value(n)).unwrap_or_default(),
            Value::Str(s) => s.clone(),
            Value::Num(n) => number_to_string(*n),
            Value::Bool(b) => b.to_string(),
        }
    }
}

/// XPath 1.0 number formatting: integers print without a decimal point.
pub fn number_to_string(n: f64) -> String {
    if n.is_nan() {
        "NaN".to_string()
    } else if n.is_infinite() {
        if n > 0.0 {
            "Infinity".to_string()
        } else {
            "-Infinity".to_string()
        }
    } else if n == n.trunc() && n.abs() < 1e15 {
        format!("{}", n as i64)
    } else {
        format!("{n}")
    }
}

/// XPath 1.0 string-to-number: trimmed decimal, else NaN.
pub fn str_to_number(s: &str) -> f64 {
    let t = s.trim();
    if t.is_empty() {
        return f64::NAN;
    }
    t.parse::<f64>().unwrap_or(f64::NAN)
}

/// Comparison dispatch implementing XPath 1.0 §3.4.
///
/// Node-sets compare existentially: the result is `true` if *some* node
/// makes the comparison true. Relational operators always compare numbers
/// unless both operands are node-sets.
pub fn compare(doc: &Document, op: crate::ast::CmpOp, left: &Value, right: &Value) -> bool {
    use Value::*;
    match (left, right) {
        (NodeSet(a), NodeSet(b)) => {
            // exists (x, y) with string(x) op string(y)
            a.iter().any(|&x| {
                let sx = doc.text_value(x);
                b.iter().any(|&y| {
                    let sy = doc.text_value(y);
                    cmp_strings(op, &sx, &sy)
                })
            })
        }
        (NodeSet(a), other) | (other, NodeSet(a)) => {
            let flipped = matches!(right, NodeSet(_)) && !matches!(left, NodeSet(_));
            a.iter().any(|&x| {
                let node_val = Str(doc.text_value(x));
                if flipped {
                    compare_scalars(doc, op, other, &node_val)
                } else {
                    compare_scalars(doc, op, &node_val, other)
                }
            })
        }
        _ => compare_scalars(doc, op, left, right),
    }
}

fn compare_scalars(doc: &Document, op: crate::ast::CmpOp, l: &Value, r: &Value) -> bool {
    use crate::ast::CmpOp::*;
    match op {
        Eq | Ne => {
            let eq = match (l, r) {
                (Value::Bool(_), _) | (_, Value::Bool(_)) => l.to_bool() == r.to_bool(),
                (Value::Num(_), _) | (_, Value::Num(_)) => l.to_number(doc) == r.to_number(doc),
                _ => l.to_string_value(doc) == r.to_string_value(doc),
            };
            if matches!(op, Eq) {
                eq
            } else {
                !eq
            }
        }
        _ => {
            let (a, b) = (l.to_number(doc), r.to_number(doc));
            match op {
                Lt => a < b,
                Le => a <= b,
                Gt => a > b,
                Ge => a >= b,
                Eq | Ne => unreachable!(),
            }
        }
    }
}

fn cmp_strings(op: crate::ast::CmpOp, a: &str, b: &str) -> bool {
    use crate::ast::CmpOp::*;
    match op {
        Eq => a == b,
        Ne => a != b,
        Lt => str_to_number(a) < str_to_number(b),
        Le => str_to_number(a) <= str_to_number(b),
        Gt => str_to_number(a) > str_to_number(b),
        Ge => str_to_number(a) >= str_to_number(b),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::CmpOp;
    use xmlsec_xml::parse;

    #[test]
    fn bool_coercions() {
        assert!(Value::Str("x".into()).to_bool());
        assert!(!Value::Str(String::new()).to_bool());
        assert!(Value::Num(1.5).to_bool());
        assert!(!Value::Num(0.0).to_bool());
        assert!(!Value::Num(f64::NAN).to_bool());
        assert!(!Value::NodeSet(vec![]).to_bool());
        assert!(Value::NodeSet(vec![NodeId::new(0, 0)]).to_bool());
    }

    #[test]
    fn number_formatting() {
        assert_eq!(number_to_string(3.0), "3");
        assert_eq!(number_to_string(-2.0), "-2");
        assert_eq!(number_to_string(3.5), "3.5");
        assert_eq!(number_to_string(f64::NAN), "NaN");
        assert_eq!(number_to_string(f64::INFINITY), "Infinity");
    }

    #[test]
    fn string_to_number_rules() {
        assert_eq!(str_to_number(" 42 "), 42.0);
        assert_eq!(str_to_number("3.5"), 3.5);
        assert!(str_to_number("abc").is_nan());
        assert!(str_to_number("").is_nan());
    }

    #[test]
    fn nodeset_to_string_is_first_node() {
        let d = parse("<a><b>one</b><b>two</b></a>").unwrap();
        let bs: Vec<_> = d.child_elements(d.root()).collect();
        let v = Value::NodeSet(bs.clone());
        assert_eq!(v.to_string_value(&d), "one");
    }

    #[test]
    fn existential_nodeset_comparison() {
        let d = parse("<a><b>1</b><b>2</b></a>").unwrap();
        let bs: Vec<_> = d.child_elements(d.root()).collect();
        let set = Value::NodeSet(bs);
        // some b equals "2"
        assert!(compare(&d, CmpOp::Eq, &set, &Value::Str("2".into())));
        // no b equals "3"
        assert!(!compare(&d, CmpOp::Eq, &set, &Value::Str("3".into())));
        // some b != "1" (namely "2")
        assert!(compare(&d, CmpOp::Ne, &set, &Value::Str("1".into())));
        // numeric relational
        assert!(compare(&d, CmpOp::Gt, &set, &Value::Num(1.0)));
        assert!(!compare(&d, CmpOp::Gt, &set, &Value::Num(2.0)));
        // flipped operand order
        assert!(compare(&d, CmpOp::Lt, &Value::Num(1.0), &set));
    }

    #[test]
    fn scalar_comparison_type_rules() {
        let d = parse("<a/>").unwrap();
        // bool dominates
        assert!(compare(&d, CmpOp::Eq, &Value::Bool(true), &Value::Str("x".into())));
        // number next
        assert!(compare(&d, CmpOp::Eq, &Value::Num(1.0), &Value::Str("1".into())));
        // strings otherwise
        assert!(compare(&d, CmpOp::Eq, &Value::Str("a".into()), &Value::Str("a".into())));
        assert!(compare(&d, CmpOp::Ne, &Value::Str("a".into()), &Value::Str("b".into())));
    }

    #[test]
    fn empty_nodeset_never_compares_true() {
        let d = parse("<a/>").unwrap();
        let empty = Value::NodeSet(vec![]);
        assert!(!compare(&d, CmpOp::Eq, &empty, &Value::Str(String::new())));
        assert!(!compare(&d, CmpOp::Ne, &empty, &Value::Str("x".into())));
    }
}
