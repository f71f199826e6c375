//! Tree-building parser (the "parsing" step of the paper's §7 pipeline).
//!
//! Consumes the token stream and enforces well-formedness: properly nested
//! tags, a single document element, no content outside it. Whitespace-only
//! text between elements is preserved or dropped according to
//! [`ParseOptions::keep_whitespace_text`] — the security processor drops it
//! so that pruned documents serialize cleanly, tests that need exact
//! round-trips keep it.
//!
//! The tree is built strictly in document order into the arena's three
//! flat buffers (see [`crate::dom`]), reserved up front from the input
//! length: every node goes into a fresh slot right after the nodes before
//! it (see `Document::alloc`), and each element's attribute and child ids
//! collect on one reused stack until its end tag copies them to the link
//! buffer as one range. Strings the tokenizer built to resolve references
//! go back to it once copied. So a parse makes a constant number of
//! allocations, whatever the document size, and no per-node preorder or
//! duplicate-attribute check is needed — the tokenizer has already
//! rejected duplicate attributes.

use crate::cancel::CancelToken;
use crate::dom::{Document, NodeData, NodeId};
use crate::error::{Pos, Result, XmlError, XmlErrorKind};
use crate::limits::{LimitKind, Limits};
use crate::tokenizer::{Token, Tokenizer};
use std::borrow::Cow;
use std::sync::{Arc, OnceLock};
use xmlsec_telemetry as telemetry;

struct ParserMetrics {
    documents: Arc<telemetry::Counter>,
    bytes: Arc<telemetry::Counter>,
    nodes: Arc<telemetry::Counter>,
    errors: Arc<telemetry::Counter>,
}

fn parser_metrics() -> &'static ParserMetrics {
    static METRICS: OnceLock<ParserMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = telemetry::global();
        ParserMetrics {
            documents: reg.counter(
                "xmlsec_xml_parse_documents_total",
                "Documents parsed successfully.",
                &[],
            ),
            bytes: reg.counter(
                "xmlsec_xml_parse_bytes_total",
                "Input bytes consumed by successful parses.",
                &[],
            ),
            nodes: reg.counter(
                "xmlsec_xml_parse_nodes_total",
                "DOM nodes produced by successful parses.",
                &[],
            ),
            errors: reg.counter(
                "xmlsec_xml_parse_errors_total",
                "Parses rejected as not well-formed.",
                &[],
            ),
        }
    })
}

/// Parser configuration.
#[derive(Debug, Clone, Copy)]
pub struct ParseOptions {
    /// Keep text nodes that consist only of whitespace. Default `false`.
    pub keep_whitespace_text: bool,
    /// Keep comment nodes. Default `true`.
    pub keep_comments: bool,
}

impl Default for ParseOptions {
    fn default() -> Self {
        ParseOptions { keep_whitespace_text: false, keep_comments: true }
    }
}

/// Parses `input` with default options and the default [`Limits`].
pub fn parse(input: &str) -> Result<Document> {
    parse_with(input, ParseOptions::default())
}

/// Parses `input` with explicit options and the default [`Limits`].
pub fn parse_with(input: &str, opts: ParseOptions) -> Result<Document> {
    parse_with_limits(input, opts, &Limits::default())
}

/// Parses `input` with explicit options and resource limits. Limit
/// violations surface as [`XmlErrorKind::LimitExceeded`] — typed and
/// recoverable, never a panic or unbounded allocation.
pub fn parse_with_limits(input: &str, opts: ParseOptions, limits: &Limits) -> Result<Document> {
    parse_cancellable(input, opts, limits, None)
}

/// Like [`parse_with_limits`], but also polls a request-scoped
/// [`CancelToken`] once per token in the node loop: a cancelled request
/// (deadline passed, client gone) unwinds with
/// [`XmlErrorKind::Cancelled`] instead of finishing a parse nobody will
/// consume. The poll amortizes its wall-clock check, so the uncancelled
/// path costs one relaxed atomic load per token.
pub fn parse_cancellable(
    input: &str,
    opts: ParseOptions,
    limits: &Limits,
    cancel: Option<&CancelToken>,
) -> Result<Document> {
    let result = parse_inner(input, opts, limits, cancel);
    let m = parser_metrics();
    match &result {
        Ok(d) => {
            m.documents.inc();
            m.bytes.add(input.len() as u64);
            m.nodes.add(d.arena_len() as u64);
        }
        Err(e) => {
            m.errors.inc();
            if let XmlErrorKind::LimitExceeded(kind) = e.kind {
                crate::limit_rejected(kind.as_str());
            }
        }
    }
    result
}

/// Arena slots and links to reserve before parsing `input`: one per `<`
/// (a start tag, or the end tag that follows a text child) and one per
/// `=` (an attribute), capped by the node limit. Over-counts `=` in text
/// and end tags of element-only content; never under-reserves by much.
fn reserve_estimate(input: &str, limits: &Limits) -> usize {
    // Counted in `u8` runs of at most 255 bytes, which the compiler
    // vectorizes: about 8x faster than a filtered count.
    let marks: usize = input
        .as_bytes()
        .chunks(255)
        .map(|run| run.iter().fold(0u8, |n, &b| n + (u8::from(b == b'<') | u8::from(b == b'='))))
        .map(usize::from)
        .sum();
    marks.min(limits.max_nodes.saturating_add(1))
}

/// One open element: its id, name, the offset of its `<`, where its
/// links start on the link stack, and how many of them are attributes.
struct Open<'a> {
    id: NodeId,
    name: &'a str,
    at: usize,
    mark: usize,
    attrs: usize,
}

fn parse_inner(
    input: &str,
    opts: ParseOptions,
    limits: &Limits,
    cancel: Option<&CancelToken>,
) -> Result<Document> {
    // Every span, range and index of the arena is a `u32`, and none can
    // outgrow the input it was parsed from.
    if input.len() > limits.max_input_bytes || input.len() > u32::MAX as usize {
        return Err(XmlError::new(XmlErrorKind::LimitExceeded(LimitKind::InputBytes), Pos::START));
    }
    let err = |kind: XmlErrorKind, at: usize| XmlError::new(kind, Pos::at(input, at));
    let over_nodes = |d: &Document| d.arena_len() > limits.max_nodes;
    let mut tk = Tokenizer::with_limits(input, limits);
    let mut doc: Option<Document> = None;
    let mut doctype = None;
    let estimate = reserve_estimate(input, limits);
    // Open elements, empty both before the root opens and after it
    // closes; the attribute and child ids of every open element, each
    // element's run above its parent's; a start tag's attributes.
    let mut stack: Vec<Open<'_>> = Vec::new();
    let mut links: Vec<NodeId> = Vec::with_capacity(estimate);
    let mut attrs: Vec<(&str, Cow<'_, str>)> = Vec::new();

    while let Some(tok) = tk.next_token_into(&mut attrs)? {
        if let Some(t) = cancel {
            if let Err(c) = t.poll() {
                return Err(err(XmlErrorKind::Cancelled(c.reason), tok.offset()));
            }
        }
        match tok {
            Token::XmlDecl { .. } => {}
            Token::Doctype { decl, at } => {
                if doc.is_some() {
                    return Err(err(XmlErrorKind::MalformedDoctype, at));
                }
                doctype = Some(decl);
            }
            Token::StartTag { name, self_closing, at, .. } => {
                let (d, el) = match (doc.as_mut(), stack.last()) {
                    (Some(d), Some(parent)) => {
                        let data = NodeData::Element { name, attrs: &[], children: &[] };
                        let el = d.alloc(Some(parent.id), data);
                        links.push(el);
                        (d, el)
                    }
                    (Some(_), None) => return Err(err(XmlErrorKind::MultipleRootElements, at)),
                    (None, _) => {
                        let d =
                            doc.insert(Document::with_root(name, estimate, input.len(), estimate));
                        let root = d.root();
                        (d, root)
                    }
                };
                let mark = links.len();
                for (an, av) in attrs.drain(..) {
                    links.push(d.alloc(Some(el), NodeData::Attr { name: an, value: &av }));
                    tk.recycle(av);
                }
                if over_nodes(d) {
                    return Err(err(XmlErrorKind::LimitExceeded(LimitKind::Nodes), at));
                }
                let attrs = links.len() - mark;
                if self_closing {
                    d.close_in_order(el, &links[mark..], attrs);
                    links.truncate(mark);
                } else {
                    if stack.len() >= limits.max_depth {
                        return Err(err(XmlErrorKind::LimitExceeded(LimitKind::Depth), at));
                    }
                    stack.push(Open { id: el, name, at, mark, attrs });
                }
            }
            Token::EndTag { name, at } => match stack.pop() {
                Some(open) if open.name == name => {
                    let d = doc.as_mut().expect("an open element implies a document");
                    d.close_in_order(open.id, &links[open.mark..], open.attrs);
                    links.truncate(open.mark);
                }
                Some(open) => {
                    let kind = XmlErrorKind::MismatchedTag {
                        expected: open.name.to_string(),
                        found: name.to_string(),
                    };
                    return Err(err(kind, at));
                }
                None => return Err(err(XmlErrorKind::UnbalancedEndTag(name.to_string()), at)),
            },
            Token::Text { value, at } => {
                let blank = value.chars().all(|c| c.is_whitespace());
                match (doc.as_mut(), stack.last()) {
                    (Some(d), Some(parent)) => {
                        if !blank || opts.keep_whitespace_text {
                            links.push(d.alloc(Some(parent.id), NodeData::Text(&value)));
                            if over_nodes(d) {
                                return Err(err(XmlErrorKind::LimitExceeded(LimitKind::Nodes), at));
                            }
                        }
                        tk.recycle(value);
                    }
                    _ => {
                        if !blank {
                            return Err(err(XmlErrorKind::ContentOutsideRoot, at));
                        }
                    }
                }
            }
            Token::Comment { value, at } => {
                // Comments outside the root are legal and dropped.
                if let (Some(d), Some(parent)) = (doc.as_mut(), stack.last()) {
                    if opts.keep_comments {
                        links.push(d.alloc(Some(parent.id), NodeData::Comment(value)));
                        if over_nodes(d) {
                            return Err(err(XmlErrorKind::LimitExceeded(LimitKind::Nodes), at));
                        }
                    }
                }
            }
            Token::Pi { target, data, at } => {
                // PIs outside the root are legal and dropped.
                if let (Some(d), Some(parent)) = (doc.as_mut(), stack.last()) {
                    links.push(d.alloc(Some(parent.id), NodeData::Pi { target, data }));
                    if over_nodes(d) {
                        return Err(err(XmlErrorKind::LimitExceeded(LimitKind::Nodes), at));
                    }
                }
            }
        }
    }

    if let Some(open) = stack.pop() {
        return Err(err(XmlErrorKind::UnclosedElement(open.name.to_string()), open.at));
    }
    match doc {
        Some(mut d) => {
            d.shrink_to_fit();
            d.doctype = doctype;
            Ok(d)
        }
        None => Err(XmlError::new(XmlErrorKind::NoRootElement, Pos::START)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_nested() {
        let d = parse("<lab><project name=\"p\"><paper/>text</project></lab>").unwrap();
        assert_eq!(d.element_name(d.root()), Some("lab"));
        let p = d.child_elements(d.root()).next().unwrap();
        assert_eq!(d.attribute(p, "name"), Some("p"));
        assert_eq!(d.text_value(p), "text");
    }

    #[test]
    fn mismatched_tags() {
        let e = parse("<a><b></a></b>").unwrap_err();
        assert!(matches!(e.kind, XmlErrorKind::MismatchedTag { .. }));
    }

    #[test]
    fn unclosed_element() {
        let e = parse("<a><b>").unwrap_err();
        assert!(matches!(e.kind, XmlErrorKind::UnclosedElement(ref n) if n == "b"));
    }

    #[test]
    fn unbalanced_end_tag() {
        let e = parse("<a/></a>").unwrap_err();
        assert!(matches!(e.kind, XmlErrorKind::UnbalancedEndTag(_)));
    }

    #[test]
    fn multiple_roots_rejected() {
        let e = parse("<a/><b/>").unwrap_err();
        assert!(matches!(e.kind, XmlErrorKind::MultipleRootElements));
    }

    #[test]
    fn empty_input_rejected() {
        let e = parse("   ").unwrap_err();
        assert!(matches!(e.kind, XmlErrorKind::NoRootElement));
    }

    #[test]
    fn text_outside_root_rejected() {
        let e = parse("<a/>junk").unwrap_err();
        assert!(matches!(e.kind, XmlErrorKind::ContentOutsideRoot));
    }

    #[test]
    fn whitespace_between_elements_dropped_by_default() {
        let d = parse("<a>\n  <b/>\n</a>").unwrap();
        assert_eq!(d.children(d.root()).len(), 1);
        let d2 = parse_with(
            "<a>\n  <b/>\n</a>",
            ParseOptions { keep_whitespace_text: true, ..Default::default() },
        )
        .unwrap();
        assert_eq!(d2.children(d2.root()).len(), 3);
    }

    #[test]
    fn doctype_captured() {
        let d = parse("<!DOCTYPE lab SYSTEM \"lab.dtd\"><lab/>").unwrap();
        let dt = d.doctype.as_ref().unwrap();
        assert_eq!(dt.name, "lab");
        assert_eq!(dt.system_id.as_deref(), Some("lab.dtd"));
    }

    #[test]
    fn doctype_after_root_rejected() {
        assert!(parse("<lab/><!DOCTYPE lab>").is_err());
    }

    #[test]
    fn comments_kept_and_droppable() {
        let d = parse("<a><!--x--></a>").unwrap();
        assert_eq!(d.children(d.root()).len(), 1);
        assert!(matches!(d.node(d.children(d.root())[0]).data, NodeData::Comment("x")));
        let d2 = parse_with(
            "<a><!--x--></a>",
            ParseOptions { keep_comments: false, ..Default::default() },
        )
        .unwrap();
        assert_eq!(d2.children(d2.root()).len(), 0);
    }

    #[test]
    fn prolog_comment_and_pi_allowed() {
        let d = parse("<?xml version=\"1.0\"?><!--hdr--><?style x?><a/>").unwrap();
        assert_eq!(d.element_name(d.root()), Some("a"));
    }

    #[test]
    fn deep_nesting() {
        let mut s = String::new();
        for i in 0..200 {
            s.push_str(&format!("<n{i}>"));
        }
        for i in (0..200).rev() {
            s.push_str(&format!("</n{i}>"));
        }
        let d = parse(&s).unwrap();
        assert_eq!(d.count_reachable(), 200);
    }

    fn nested(depth: usize) -> String {
        let mut s = String::with_capacity(depth * 7);
        for _ in 0..depth {
            s.push_str("<n>");
        }
        for _ in 0..depth {
            s.push_str("</n>");
        }
        s
    }

    #[test]
    fn depth_limit_is_typed_error() {
        let limits = Limits { max_depth: 16, ..Limits::default() };
        let e = parse_with_limits(&nested(17), ParseOptions::default(), &limits).unwrap_err();
        assert_eq!(e.kind, XmlErrorKind::LimitExceeded(LimitKind::Depth));
        // Exactly at the cap still parses.
        assert!(parse_with_limits(&nested(16), ParseOptions::default(), &limits).is_ok());
    }

    #[test]
    fn depth_bomb_rejected_by_default_limits() {
        let e = parse(&nested(Limits::default().max_depth + 1)).unwrap_err();
        assert_eq!(e.kind, XmlErrorKind::LimitExceeded(LimitKind::Depth));
    }

    #[test]
    fn node_limit_is_typed_error() {
        let mut s = String::from("<r>");
        for _ in 0..50 {
            s.push_str("<x/>");
        }
        s.push_str("</r>");
        let limits = Limits { max_nodes: 20, ..Limits::default() };
        let e = parse_with_limits(&s, ParseOptions::default(), &limits).unwrap_err();
        assert_eq!(e.kind, XmlErrorKind::LimitExceeded(LimitKind::Nodes));
        assert!(parse(&s).is_ok());
    }

    #[test]
    fn attribute_flood_counts_toward_node_limit() {
        let mut s = String::from("<r");
        for i in 0..50 {
            s.push_str(&format!(" a{i}=\"v\""));
        }
        s.push_str("/>");
        let limits = Limits { max_nodes: 10, ..Limits::default() };
        let e = parse_with_limits(&s, ParseOptions::default(), &limits).unwrap_err();
        assert_eq!(e.kind, XmlErrorKind::LimitExceeded(LimitKind::Nodes));
    }

    #[test]
    fn input_size_limit_is_typed_error() {
        let limits = Limits { max_input_bytes: 8, ..Limits::default() };
        let e = parse_with_limits("<a>123456</a>", ParseOptions::default(), &limits).unwrap_err();
        assert_eq!(e.kind, XmlErrorKind::LimitExceeded(LimitKind::InputBytes));
    }

    #[test]
    fn cancelled_token_aborts_the_node_loop_with_a_typed_error() {
        use crate::cancel::{CancelReason, CancelToken};
        let mut s = String::from("<r>");
        for _ in 0..500 {
            s.push_str("<x/>");
        }
        s.push_str("</r>");
        // A pre-tripped token stops at the first loop checkpoint.
        let t = CancelToken::never();
        t.cancel();
        let e = parse_cancellable(&s, ParseOptions::default(), &Limits::default(), Some(&t))
            .unwrap_err();
        assert_eq!(e.kind, XmlErrorKind::Cancelled(CancelReason::Explicit));
        // Tripping mid-stream aborts partway (poll k lands inside the loop).
        let mid = CancelToken::cancel_after_polls(100);
        let e2 = parse_cancellable(&s, ParseOptions::default(), &Limits::default(), Some(&mid))
            .unwrap_err();
        assert!(matches!(e2.kind, XmlErrorKind::Cancelled(_)));
        assert!(e2.pos.offset > 0, "cancellation surfaced mid-document: {:?}", e2.pos);
        // An untripped token changes nothing.
        let ok = parse_cancellable(
            &s,
            ParseOptions::default(),
            &Limits::default(),
            Some(&CancelToken::never()),
        )
        .unwrap();
        assert_eq!(ok.count_reachable(), 501);
    }

    #[test]
    fn unlimited_parses_very_deep_documents_iteratively() {
        // The parser keeps its own stack (no recursion), so even absurd
        // depth must not overflow when the caller opts out of limits.
        let d = parse_with_limits(&nested(50_000), ParseOptions::default(), &Limits::unlimited())
            .unwrap();
        assert_eq!(d.count_reachable(), 50_000);
    }
}
