//! # xmlsec-xpath — path expressions for authorization objects
//!
//! The paper (§4) identifies protected objects as `URI:PE` where `PE` is
//! an XPath path expression on the document tree. This crate implements
//! the needed XPath 1.0 subset from scratch:
//!
//! - navigation: `/`, `//`, `.`, `..`, `@attr`, `*`, explicit axes
//!   (`child::`, `descendant::`, `ancestor::`, `parent::`, `self::`,
//!   `attribute::`, `descendant-or-self::`, `ancestor-or-self::`);
//! - conditions: comparisons over attribute values and element text,
//!   `and`/`or`, positional predicates (`[1]`, `position()`, `last()`),
//!   `count`, `contains`, `starts-with`, `not`, `string`, `number`,
//!   `normalize-space`, `name`;
//! - XPath 1.0 coercion and existential node-set comparison semantics.
//!
//! ```
//! use xmlsec_xpath::{parse_path, select};
//!
//! let doc = xmlsec_xml::parse(r#"<laboratory>
//!     <project name="Access Models" type="internal"/>
//!     <project name="Query Engines" type="public"/>
//! </laboratory>"#).unwrap();
//! let path = parse_path(r#"/laboratory/project[./@type="internal"]"#).unwrap();
//! let hits = select(&doc, &path);
//! assert_eq!(hits.len(), 1);
//! assert_eq!(doc.attribute(hits[0], "name"), Some("Access Models"));
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod eval;
pub mod lexer;
pub mod limits;
pub mod parser;
pub mod value;

pub use ast::{Axis, CmpOp, Expr, Func, NodeTest, PathExpr, Step};
pub use eval::{
    describe_node, eval_condition, eval_path, eval_path_counted, eval_path_limited,
    eval_path_shared, select, select_limited, select_shared, select_str, CtxNode, Evaluation,
};
pub use lexer::{Result, XPathError};
pub use limits::{EvalError, EvalLimits, SharedBudget};
pub use parser::{parse_expr, parse_path};
pub use value::Value;
