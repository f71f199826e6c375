//! # xmlsec-xml — XML substrate for the *Securing XML Documents* system
//!
//! A from-scratch XML 1.0 processor covering exactly what the paper's
//! security processor needs (its §7 pipeline):
//!
//! - a [`tokenizer`] producing a lexical event stream with entity and
//!   character-reference resolution;
//! - a well-formedness [`parser`] building an arena [`dom::Document`]
//!   (DOM Level 1-style object tree: elements, attributes-as-nodes, text,
//!   comments, PIs, captured DOCTYPE);
//! - a [`mod@serialize`] module ("unparsing") with canonical and pretty modes;
//! - a [`render`] module drawing trees in the style of the paper's figures.
//!
//! DTD parsing/validation lives in `xmlsec-dtd`; path expressions in
//! `xmlsec-xpath`.
//!
//! ```
//! use xmlsec_xml::{parse, serialize, SerializeOptions};
//!
//! let doc = parse(r#"<laboratory><project name="Access Models"/></laboratory>"#).unwrap();
//! let project = doc.child_elements(doc.root()).next().unwrap();
//! assert_eq!(doc.attribute(project, "name"), Some("Access Models"));
//! assert_eq!(
//!     serialize(&doc, &SerializeOptions::canonical()),
//!     r#"<laboratory><project name="Access Models"/></laboratory>"#
//! );
//! ```

#![warn(missing_docs)]

pub mod cancel;
pub mod dom;
pub mod error;
pub mod escape;
pub mod limits;
pub mod name;
pub mod parser;
pub mod render;
pub mod serialize;
pub mod tokenizer;

pub use cancel::{CancelReason, CancelToken, Cancelled};
pub use dom::{Doctype, Document, Node, NodeData, NodeId};
pub use error::{Pos, XmlError, XmlErrorKind};
pub use limits::{LimitKind, Limits};
pub use parser::{parse, parse_cancellable, parse_with, parse_with_limits, ParseOptions};
pub use render::render_tree;
pub use serialize::{serialize, serialize_filtered, serialize_node, SerializeOptions};

/// Bumps the shared `xmlsec_limits_rejected_total{kind=...}` counter.
///
/// One metric family spans every layer that enforces a resource cap (XML
/// parsing here, path evaluation in `xmlsec-xpath`, request framing in
/// `xmlsec-server`); each layer reports its violations under its own
/// `kind` label. The registry deduplicates by name+labels, so calling
/// this on the (cold) rejection path is fine.
pub fn limit_rejected(kind: &'static str) {
    xmlsec_telemetry::global()
        .counter(
            "xmlsec_limits_rejected_total",
            "Inputs rejected because a resource limit was exceeded, by limit kind.",
            &[("kind", kind)],
        )
        .inc();
}
