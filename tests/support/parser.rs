//! Reference oracle: the tree-building parser `xmlsec-xml` shipped before
//! its byte-cursor rewrite, kept verbatim apart from imports and the
//! telemetry counters (and
//! sharing `ParseOptions` with the crate).
//!
//! Tree-building parser (the "parsing" step of the paper's §7 pipeline).
//!
//! Consumes the token stream and enforces well-formedness: properly nested
//! tags, a single document element, no content outside it. Whitespace-only
//! text between elements is preserved or dropped according to
//! [`ParseOptions::keep_whitespace_text`] — the security processor drops it
//! so that pruned documents serialize cleanly, tests that need exact
//! round-trips keep it.

use super::tokenizer::{Token, Tokenizer};
use xmlsec_xml::cancel::CancelToken;
use xmlsec_xml::dom::{Document, NodeId};
use xmlsec_xml::error::{Pos, Result, XmlError, XmlErrorKind};
use xmlsec_xml::limits::{LimitKind, Limits};

pub use xmlsec_xml::ParseOptions;

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
    parse_inner(input, opts, limits, cancel)
}

/// Source position of any token (every variant carries one).
fn tok_pos(t: &Token) -> Pos {
    match t {
        Token::XmlDecl { pos, .. }
        | Token::Doctype { pos, .. }
        | Token::StartTag { pos, .. }
        | Token::EndTag { pos, .. }
        | Token::Text { pos, .. }
        | Token::Comment { pos, .. }
        | Token::Pi { pos, .. } => *pos,
    }
}

fn parse_inner(
    input: &str,
    opts: ParseOptions,
    limits: &Limits,
    cancel: Option<&CancelToken>,
) -> Result<Document> {
    if input.len() > limits.max_input_bytes {
        return Err(XmlError::new(XmlErrorKind::LimitExceeded(LimitKind::InputBytes), Pos::START));
    }
    let mut tk = Tokenizer::with_limits(input, limits);
    let mut doc: Option<Document> = None;
    let mut doctype = None;
    // Stack of open elements; empty both before the root opens and after
    // it closes.
    let mut stack: Vec<(NodeId, String, Pos)> = Vec::new();
    let mut root_seen = false;

    while let Some(tok) = tk.next_token()? {
        if let Some(t) = cancel {
            if let Err(c) = t.poll() {
                let pos = tok_pos(&tok);
                return Err(XmlError::new(XmlErrorKind::Cancelled(c.reason), pos));
            }
        }
        match tok {
            Token::XmlDecl { .. } => {}
            Token::Doctype { decl, pos } => {
                if root_seen || doc.is_some() {
                    return Err(XmlError::new(XmlErrorKind::MalformedDoctype, pos));
                }
                doctype = Some(decl);
            }
            Token::StartTag { name, attrs, self_closing, pos } => {
                let el = if let Some(d) = doc.as_mut() {
                    match stack.last() {
                        Some(&(parent, ..)) => d.append_element(parent, &name),
                        None => return Err(XmlError::new(XmlErrorKind::MultipleRootElements, pos)),
                    }
                } else {
                    if root_seen {
                        return Err(XmlError::new(XmlErrorKind::MultipleRootElements, pos));
                    }
                    root_seen = true;
                    let d = Document::new(&name);
                    let r = d.root();
                    doc = Some(d);
                    r
                };
                let d = doc.as_mut().expect("document exists after root open");
                for (an, av) in attrs {
                    d.set_attribute(el, &an, &av)?;
                }
                if d.arena_len() > limits.max_nodes {
                    return Err(XmlError::new(XmlErrorKind::LimitExceeded(LimitKind::Nodes), pos));
                }
                if !self_closing {
                    if stack.len() >= limits.max_depth {
                        return Err(XmlError::new(
                            XmlErrorKind::LimitExceeded(LimitKind::Depth),
                            pos,
                        ));
                    }
                    stack.push((el, name, pos));
                }
            }
            Token::EndTag { name, pos } => match stack.pop() {
                Some((_, open_name, _)) if open_name == name => {}
                Some((_, open_name, _)) => {
                    return Err(XmlError::new(
                        XmlErrorKind::MismatchedTag { expected: open_name, found: name },
                        pos,
                    ));
                }
                None => return Err(XmlError::new(XmlErrorKind::UnbalancedEndTag(name), pos)),
            },
            Token::Text { value, pos } => {
                let blank = value.chars().all(|c| c.is_whitespace());
                match stack.last() {
                    Some(&(parent, ..)) => {
                        if !blank || opts.keep_whitespace_text {
                            let d = doc.as_mut().expect("open element implies document");
                            d.append_text(parent, &value);
                            if d.arena_len() > limits.max_nodes {
                                return Err(XmlError::new(
                                    XmlErrorKind::LimitExceeded(LimitKind::Nodes),
                                    pos,
                                ));
                            }
                        }
                    }
                    None => {
                        if !blank {
                            return Err(XmlError::new(XmlErrorKind::ContentOutsideRoot, pos));
                        }
                    }
                }
            }
            Token::Comment { value, pos } => {
                if let Some(&(parent, ..)) = stack.last() {
                    if opts.keep_comments {
                        let d = doc.as_mut().expect("open element implies document");
                        d.append_comment(parent, &value);
                        if d.arena_len() > limits.max_nodes {
                            return Err(XmlError::new(
                                XmlErrorKind::LimitExceeded(LimitKind::Nodes),
                                pos,
                            ));
                        }
                    }
                }
                // Comments outside the root are legal and dropped.
            }
            Token::Pi { target, data, pos } => {
                if let Some(&(parent, ..)) = stack.last() {
                    let d = doc.as_mut().expect("open element implies document");
                    d.append_pi(parent, &target, &data);
                    if d.arena_len() > limits.max_nodes {
                        return Err(XmlError::new(
                            XmlErrorKind::LimitExceeded(LimitKind::Nodes),
                            pos,
                        ));
                    }
                }
                // PIs outside the root are legal and dropped.
            }
        }
    }

    if let Some((_, name, pos)) = stack.pop() {
        return Err(XmlError::new(XmlErrorKind::UnclosedElement(name), pos));
    }
    match doc {
        Some(mut d) => {
            d.doctype = doctype;
            Ok(d)
        }
        None => Err(XmlError::new(XmlErrorKind::NoRootElement, Pos::START)),
    }
}
