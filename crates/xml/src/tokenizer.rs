//! Pull tokenizer for XML 1.0 documents.
//!
//! Produces a flat token stream (start tags with attributes, end tags,
//! character data with references resolved, comments, PIs, DOCTYPE) that
//! the tree-building parser consumes. Entity references are resolved here
//! so downstream code only ever sees plain text.
//!
//! The tokenizer is a byte cursor over the input. It tracks only the
//! byte offset: every token carries the offset of its first byte, and a
//! line/column [`Pos`] is computed from an offset only when an error is
//! built ([`Pos::at`]). Names, comments, PI data and reference-free text
//! and attribute values are borrowed slices of the input; a value is
//! copied (as [`Cow::Owned`]) only when a character or entity reference
//! in it is resolved, and then in bulk runs between the references.

use crate::dom::Doctype;
use crate::error::{Pos, Result, XmlError, XmlErrorKind};
use crate::escape::resolve_reference;
use crate::limits::{LimitKind, Limits};
use crate::name::{is_name_char, is_name_start_char};
use std::borrow::Cow;

/// One lexical event in the document, borrowing from the input.
///
/// `at` is the byte offset of the token's first byte (the `<` of markup,
/// the first character of text); turn it into a line/column with
/// [`Pos::at`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Token<'a> {
    /// XML declaration `<?xml version=... ?>` (captured, not interpreted).
    XmlDecl {
        /// Raw content between `<?xml` and `?>`.
        raw: &'a str,
        /// Offset of `<`.
        at: usize,
    },
    /// `<!DOCTYPE ...>`.
    Doctype {
        /// Parsed declaration.
        decl: Doctype,
        /// Offset of `<`.
        at: usize,
    },
    /// `<name a="v" ...>` or `<name ... />`.
    StartTag {
        /// Element name.
        name: &'a str,
        /// Attributes, in source order, values unescaped. Names are
        /// unique (a duplicate is a tokenizer error).
        attrs: Vec<(&'a str, Cow<'a, str>)>,
        /// Whether the tag ended with `/>`.
        self_closing: bool,
        /// Offset of `<`.
        at: usize,
    },
    /// `</name>`.
    EndTag {
        /// Element name.
        name: &'a str,
        /// Offset of `<`.
        at: usize,
    },
    /// Character data (including CDATA sections), references resolved.
    Text {
        /// The text.
        value: Cow<'a, str>,
        /// Offset of the first character (of `<` for CDATA).
        at: usize,
    },
    /// `<!-- ... -->`.
    Comment {
        /// Comment body.
        value: &'a str,
        /// Offset of `<`.
        at: usize,
    },
    /// `<?target data?>`.
    Pi {
        /// PI target (not `xml`).
        target: &'a str,
        /// PI data, possibly empty.
        data: &'a str,
        /// Offset of `<`.
        at: usize,
    },
}

impl Token<'_> {
    /// Byte offset of the token's first byte.
    pub fn offset(&self) -> usize {
        match self {
            Token::XmlDecl { at, .. }
            | Token::Doctype { at, .. }
            | Token::StartTag { at, .. }
            | Token::EndTag { at, .. }
            | Token::Text { at, .. }
            | Token::Comment { at, .. }
            | Token::Pi { at, .. } => *at,
        }
    }
}

/// ASCII bytes that may start an XML Name (non-ASCII goes through
/// [`is_name_start_char`]).
#[inline]
fn is_ascii_name_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b == b':'
}

/// ASCII bytes that may continue an XML Name.
#[inline]
fn is_ascii_name_byte(b: u8) -> bool {
    is_ascii_name_start(b) || b.is_ascii_digit() || b == b'-' || b == b'.'
}

/// The tokenizer: call [`Tokenizer::next_token`] until it returns `None`.
pub struct Tokenizer<'a> {
    input: &'a str,
    bytes: &'a [u8],
    /// Byte offset of the next unread byte; always a char boundary.
    at: usize,
    /// Characters produced by reference resolution so far.
    expanded: usize,
    /// Cap on `expanded` (the billion-laughs guard).
    max_expansion: usize,
    /// Strings handed back through [`Tokenizer::recycle`], reused for the
    /// next values with references to resolve.
    spare: Vec<String>,
}

impl<'a> Tokenizer<'a> {
    /// Creates a tokenizer over `input` with the default [`Limits`].
    pub fn new(input: &'a str) -> Self {
        Tokenizer::with_limits(input, &Limits::default())
    }

    /// Creates a tokenizer enforcing the reference-expansion cap from
    /// `limits` (the structural caps — depth, node count — live in the
    /// parser, which owns the tree).
    pub fn with_limits(input: &'a str, limits: &Limits) -> Self {
        Tokenizer {
            input,
            bytes: input.as_bytes(),
            at: 0,
            expanded: 0,
            max_expansion: limits.max_entity_expansion,
            spare: Vec::new(),
        }
    }

    /// Returns the next token, or `Ok(None)` at end of input.
    pub fn next_token(&mut self) -> Result<Option<Token<'a>>> {
        let mut attrs = Vec::new();
        let mut tok = self.next_token_into(&mut attrs)?;
        if let Some(Token::StartTag { attrs: a, .. }) = &mut tok {
            *a = attrs;
        }
        Ok(tok)
    }

    /// Like [`Tokenizer::next_token`], but a start tag's attributes are
    /// written into the caller's reused `attrs` (cleared first) and its
    /// token carries none, so the tree builder makes no allocation per
    /// tag.
    #[inline]
    pub(crate) fn next_token_into(
        &mut self,
        attrs: &mut Vec<(&'a str, Cow<'a, str>)>,
    ) -> Result<Option<Token<'a>>> {
        match self.bytes.get(self.at) {
            None => Ok(None),
            Some(b'<') => self.read_markup(attrs).map(Some),
            Some(_) => {
                let at = self.at;
                let value = self.read_text_until(b'<', false)?;
                Ok(Some(Token::Text { value, at }))
            }
        }
    }

    /// Takes back a resolved value's `String` once the caller has copied
    /// it, so resolving references costs no allocation per value.
    pub(crate) fn recycle(&mut self, value: Cow<'a, str>) {
        if let Cow::Owned(mut s) = value {
            s.clear();
            self.spare.push(s);
        }
    }

    /// Collects all tokens (convenience for tests and the DTD scanner).
    pub fn tokenize_all(mut self) -> Result<Vec<Token<'a>>> {
        let mut out = Vec::new();
        while let Some(t) = self.next_token()? {
            out.push(t);
        }
        Ok(out)
    }

    #[cold]
    #[inline(never)]
    fn err(&self, kind: XmlErrorKind, at: usize) -> XmlError {
        XmlError::new(kind, Pos::at(self.input, at))
    }

    /// The character at the cursor.
    #[inline]
    fn peek(&self) -> Option<char> {
        match self.bytes.get(self.at) {
            Some(&b) if b.is_ascii() => Some(b as char),
            Some(_) => self.input[self.at..].chars().next(),
            None => None,
        }
    }

    #[inline]
    fn starts_with(&self, s: &[u8]) -> bool {
        self.bytes[self.at..].starts_with(s)
    }

    /// Consumes `s` if the input continues with it.
    #[inline]
    fn eat(&mut self, s: &[u8]) -> bool {
        let hit = self.starts_with(s);
        if hit {
            self.at += s.len();
        }
        hit
    }

    #[inline]
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.at), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.at += 1;
        }
    }

    /// Offset of the first occurrence of `pat` at or after the cursor.
    fn find(&self, pat: &str) -> Option<usize> {
        self.input[self.at..].find(pat).map(|i| self.at + i)
    }

    fn read_name(&mut self) -> Result<&'a str> {
        let begin = self.at;
        match self.peek() {
            Some(c) if is_name_start_char(c) => self.at += c.len_utf8(),
            Some(c) => return Err(self.err(XmlErrorKind::UnexpectedChar(c), begin)),
            None => return Err(self.err(XmlErrorKind::UnexpectedEof, begin)),
        }
        while let Some(&b) = self.bytes.get(self.at) {
            if b.is_ascii() {
                if !is_ascii_name_byte(b) {
                    break;
                }
                self.at += 1;
            } else {
                match self.peek() {
                    Some(c) if is_name_char(c) => self.at += c.len_utf8(),
                    _ => break,
                }
            }
        }
        Ok(&self.input[begin..self.at])
    }

    /// Reads text until the ASCII byte `stop` (not consumed) or end of
    /// input, resolving `&...;` references. When `forbid_lt` is set, a
    /// raw `<` is a well-formedness error (attribute-value context).
    /// Borrows the input unless a reference was resolved.
    fn read_text_until(&mut self, stop: u8, forbid_lt: bool) -> Result<Cow<'a, str>> {
        let begin = self.at;
        // Resolved text so far, and the start of the run not yet copied.
        let mut owned: Option<String> = None;
        let mut run = begin;
        loop {
            let rest = &self.bytes[self.at..];
            let Some(i) =
                rest.iter().position(|&b| b == stop || b == b'&' || (forbid_lt && b == b'<'))
            else {
                self.at = self.bytes.len();
                break;
            };
            self.at += i;
            match self.bytes[self.at] {
                b if b == stop => break,
                b'<' => return Err(self.err(XmlErrorKind::UnexpectedChar('<'), self.at)),
                _ => {
                    let amp = self.at;
                    let c = self.read_reference()?;
                    let s = owned.get_or_insert_with(|| {
                        self.spare
                            .pop()
                            .unwrap_or_else(|| String::with_capacity(rest.len().min(64)))
                    });
                    s.push_str(&self.input[run..amp]);
                    s.push(c);
                    run = self.at;
                }
            }
        }
        Ok(match owned {
            None => Cow::Borrowed(&self.input[begin..self.at]),
            Some(mut s) => {
                s.push_str(&self.input[run..self.at]);
                Cow::Owned(s)
            }
        })
    }

    /// Resolves the reference whose `&` is at the cursor and consumes it
    /// through the `;`. The body may hold any character; a body still
    /// unterminated after 16 bytes is an unknown entity.
    fn read_reference(&mut self) -> Result<char> {
        let amp = self.at;
        let body_start = amp + 1;
        self.at = body_start;
        let body = loop {
            match self.peek() {
                Some(';') => {
                    let body = &self.input[body_start..self.at];
                    self.at += 1;
                    break body;
                }
                Some(c) if self.at - body_start < 16 => self.at += c.len_utf8(),
                _ => {
                    let body = self.input[body_start..self.at].to_string();
                    return Err(self.err(XmlErrorKind::UnknownEntity(body), amp));
                }
            }
        };
        let c = resolve_reference(body, Pos::START).map_err(|e| self.err(e.kind, amp))?;
        self.expanded += 1;
        if self.expanded > self.max_expansion {
            return Err(self.err(XmlErrorKind::LimitExceeded(LimitKind::EntityExpansion), amp));
        }
        Ok(c)
    }

    fn read_markup(&mut self, attrs: &mut Vec<(&'a str, Cow<'a, str>)>) -> Result<Token<'a>> {
        let at = self.at;
        debug_assert_eq!(self.bytes[at], b'<');
        if self.starts_with(b"<!--") {
            return self.read_comment(at);
        }
        if self.starts_with(b"<![CDATA[") {
            return self.read_cdata(at);
        }
        if self.starts_with(b"<!DOCTYPE") {
            return self.read_doctype(at);
        }
        if self.starts_with(b"<?") {
            return self.read_pi(at);
        }
        if self.eat(b"</") {
            let name = self.read_name()?;
            self.skip_ws();
            if !self.eat(b">") {
                return Err(self.err(XmlErrorKind::UnexpectedEof, self.at));
            }
            return Ok(Token::EndTag { name, at });
        }
        // Start tag.
        self.at += 1; // consume '<'
        let name = self.read_name()?;
        attrs.clear();
        loop {
            self.skip_ws();
            match self.peek() {
                Some('>') => {
                    self.at += 1;
                    return Ok(Token::StartTag {
                        name,
                        attrs: Vec::new(),
                        self_closing: false,
                        at,
                    });
                }
                Some('/') => {
                    self.at += 1;
                    if !self.eat(b">") {
                        return Err(self.err(XmlErrorKind::UnexpectedChar('/'), self.at));
                    }
                    return Ok(Token::StartTag { name, attrs: Vec::new(), self_closing: true, at });
                }
                Some(c) if is_name_start_char(c) => {
                    let (an, av) = self.read_attribute()?;
                    if attrs.iter().any(|&(n, _)| n == an) {
                        let kind = XmlErrorKind::DuplicateAttribute(an.to_string());
                        return Err(self.err(kind, self.at));
                    }
                    attrs.push((an, av));
                }
                Some(c) => return Err(self.err(XmlErrorKind::UnexpectedChar(c), self.at)),
                None => return Err(self.err(XmlErrorKind::UnexpectedEof, self.at)),
            }
        }
    }

    fn read_attribute(&mut self) -> Result<(&'a str, Cow<'a, str>)> {
        let name = self.read_name()?;
        let malformed = |t: &Self| t.err(XmlErrorKind::MalformedAttribute(name.to_string()), t.at);
        self.skip_ws();
        if !self.eat(b"=") {
            return Err(malformed(self));
        }
        self.skip_ws();
        let quote = match self.peek() {
            Some(q @ ('"' | '\'')) => q as u8,
            Some(c) => {
                // The offending character is consumed, so the error
                // points just past it.
                self.at += c.len_utf8();
                return Err(malformed(self));
            }
            None => return Err(malformed(self)),
        };
        self.at += 1;
        let value = self.read_text_until(quote, true)?;
        if !self.eat(&[quote]) {
            return Err(malformed(self));
        }
        Ok((name, value))
    }

    fn read_comment(&mut self, at: usize) -> Result<Token<'a>> {
        self.at += 4; // <!--
        let begin = self.at;
        let Some(end) = self.find("--") else {
            return Err(self.err(XmlErrorKind::MalformedComment, at));
        };
        self.at = end + 2;
        if !self.eat(b">") {
            // '--' inside comment body is forbidden by XML 1.0.
            return Err(self.err(XmlErrorKind::MalformedComment, at));
        }
        Ok(Token::Comment { value: &self.input[begin..end], at })
    }

    fn read_cdata(&mut self, at: usize) -> Result<Token<'a>> {
        self.at += 9; // <![CDATA[
        let begin = self.at;
        let Some(end) = self.find("]]>") else {
            return Err(self.err(XmlErrorKind::MalformedCdata, at));
        };
        self.at = end + 3;
        Ok(Token::Text { value: Cow::Borrowed(&self.input[begin..end]), at })
    }

    fn read_pi(&mut self, at: usize) -> Result<Token<'a>> {
        self.at += 2; // <?
        let target = self.read_name()?;
        self.skip_ws();
        let begin = self.at;
        let Some(end) = self.find("?>") else {
            return Err(self.err(XmlErrorKind::MalformedPi, at));
        };
        let data = self.input[begin..end].trim_end();
        self.at = end + 2;
        if target.eq_ignore_ascii_case("xml") {
            if target == "xml" {
                return Ok(Token::XmlDecl { raw: data, at });
            }
            return Err(self.err(XmlErrorKind::MalformedPi, at));
        }
        Ok(Token::Pi { target, data, at })
    }

    fn read_doctype(&mut self, at: usize) -> Result<Token<'a>> {
        let malformed = |t: &Self| t.err(XmlErrorKind::MalformedDoctype, at);
        self.at += 9; // <!DOCTYPE
        self.skip_ws();
        let name = self.read_name()?.to_string();
        let mut decl = Doctype { name, ..Doctype::default() };
        self.skip_ws();
        if self.eat(b"SYSTEM") {
            self.skip_ws();
            decl.system_id = Some(self.read_quoted().ok_or_else(|| malformed(self))?);
        } else if self.eat(b"PUBLIC") {
            self.skip_ws();
            decl.public_id = Some(self.read_quoted().ok_or_else(|| malformed(self))?);
            self.skip_ws();
            decl.system_id = Some(self.read_quoted().ok_or_else(|| malformed(self))?);
        }
        self.skip_ws();
        if self.eat(b"[") {
            let begin = self.at;
            // The internal subset may contain quoted strings with ']'.
            // Every delimiter is ASCII, so a byte scan cannot stop inside
            // a multibyte character.
            let mut depth = 1usize;
            loop {
                match self.bytes.get(self.at) {
                    None => return Err(malformed(self)),
                    Some(b'[') => depth += 1,
                    Some(b']') => {
                        depth -= 1;
                        if depth == 0 {
                            decl.internal_subset = Some(self.input[begin..self.at].to_string());
                            self.at += 1;
                            break;
                        }
                    }
                    Some(&q @ (b'"' | b'\'')) => {
                        let close = self.bytes[self.at + 1..].iter().position(|&b| b == q);
                        let Some(i) = close else { return Err(malformed(self)) };
                        self.at += 1 + i;
                    }
                    Some(_) => {}
                }
                self.at += 1;
            }
        }
        self.skip_ws();
        if !self.eat(b">") {
            return Err(malformed(self));
        }
        Ok(Token::Doctype { decl, at })
    }

    /// A quoted external identifier; `None` when it is unquoted or
    /// unterminated.
    fn read_quoted(&mut self) -> Option<String> {
        let quote = *self.bytes.get(self.at).filter(|&&b| b == b'"' || b == b'\'')?;
        let begin = self.at + 1;
        let end = begin + self.bytes[begin..].iter().position(|&b| b == quote)?;
        self.at = end + 1;
        Some(self.input[begin..end].to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &str) -> Vec<Token<'_>> {
        Tokenizer::new(s).tokenize_all().unwrap()
    }

    #[test]
    fn simple_element() {
        let t = toks("<a>hi</a>");
        assert_eq!(t.len(), 3);
        assert!(matches!(&t[0], Token::StartTag { name: "a", self_closing: false, .. }));
        assert!(matches!(&t[1], Token::Text { value, .. } if value == "hi"));
        assert!(matches!(&t[2], Token::EndTag { name: "a", .. }));
    }

    #[test]
    fn self_closing_with_attrs() {
        let t = toks(r#"<paper type="internal" n='5'/>"#);
        match &t[0] {
            Token::StartTag { name, attrs, self_closing, .. } => {
                assert_eq!(*name, "paper");
                assert!(*self_closing);
                assert_eq!(attrs[0], ("type", Cow::Borrowed("internal")));
                assert_eq!(attrs[1], ("n", Cow::Borrowed("5")));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn attribute_refs_resolved() {
        let t = toks(r#"<a t="x &amp; y &#33;"/>"#);
        match &t[0] {
            Token::StartTag { attrs, .. } => assert_eq!(attrs[0].1, "x & y !"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn values_are_borrowed_unless_a_reference_is_resolved() {
        let t = toks(r#"<a x="plain" y="a&lt;b">text<![CDATA[raw]]>&amp;tail</a>"#);
        match &t[0] {
            Token::StartTag { attrs, .. } => {
                assert!(matches!(attrs[0].1, Cow::Borrowed("plain")));
                assert!(matches!(&attrs[1].1, Cow::Owned(v) if v == "a<b"));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(&t[1], Token::Text { value: Cow::Borrowed("text"), .. }));
        assert!(matches!(&t[2], Token::Text { value: Cow::Borrowed("raw"), .. }));
        assert!(matches!(&t[3], Token::Text { value: Cow::Owned(v), .. } if v == "&tail"));
    }

    #[test]
    fn duplicate_attribute_rejected() {
        let e = Tokenizer::new(r#"<a x="1" x="2"/>"#).tokenize_all().unwrap_err();
        assert!(matches!(e.kind, XmlErrorKind::DuplicateAttribute(ref n) if n == "x"));
    }

    #[test]
    fn text_entity_resolution() {
        let t = toks("<a>&lt;tag&gt; &amp; &#65;</a>");
        assert!(matches!(&t[1], Token::Text { value, .. } if value == "<tag> & A"));
    }

    #[test]
    fn comments_and_pis() {
        let t = toks("<a><!-- note --><?app do it?></a>");
        assert!(matches!(&t[1], Token::Comment { value: " note ", .. }));
        assert!(matches!(&t[2], Token::Pi { target: "app", data: "do it", .. }));
    }

    #[test]
    fn double_hyphen_in_comment_rejected() {
        assert!(Tokenizer::new("<a><!-- a -- b --></a>").tokenize_all().is_err());
    }

    #[test]
    fn cdata_is_text() {
        let t = toks("<a><![CDATA[<raw> & stuff]]></a>");
        assert!(matches!(&t[1], Token::Text { value, .. } if value == "<raw> & stuff"));
    }

    #[test]
    fn xml_decl_captured() {
        let t = toks("<?xml version=\"1.0\"?><a/>");
        assert!(matches!(&t[0], Token::XmlDecl { raw, .. } if raw.contains("version")));
    }

    #[test]
    fn doctype_system_and_subset() {
        let t = toks(
            r#"<!DOCTYPE laboratory SYSTEM "laboratory.dtd" [<!ELEMENT x (#PCDATA)>]><laboratory/>"#,
        );
        match &t[0] {
            Token::Doctype { decl, .. } => {
                assert_eq!(decl.name, "laboratory");
                assert_eq!(decl.system_id.as_deref(), Some("laboratory.dtd"));
                assert!(decl.internal_subset.as_deref().unwrap().contains("<!ELEMENT x"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn doctype_subset_with_quoted_bracket() {
        let t = toks(r#"<!DOCTYPE a [<!ATTLIST a x CDATA "]">]><a/>"#);
        match &t[0] {
            Token::Doctype { decl, .. } => {
                assert_eq!(decl.internal_subset.as_deref(), Some(r#"<!ATTLIST a x CDATA "]">"#));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn doctype_public() {
        let t = toks(r#"<!DOCTYPE html PUBLIC "-//W3C//DTD" "http://x/dtd"><html/>"#);
        match &t[0] {
            Token::Doctype { decl, .. } => {
                assert_eq!(decl.public_id.as_deref(), Some("-//W3C//DTD"));
                assert_eq!(decl.system_id.as_deref(), Some("http://x/dtd"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn position_tracking() {
        let src = "<a>\n  <b/>\n</a>";
        let mut tk = Tokenizer::new(src);
        tk.next_token().unwrap(); // <a>
        tk.next_token().unwrap(); // text
        let tok = tk.next_token().unwrap().unwrap();
        assert!(matches!(tok, Token::StartTag { .. }));
        let pos = Pos::at(src, tok.offset());
        assert_eq!((pos.line, pos.col, pos.offset), (2, 3, 6));
    }

    #[test]
    fn error_columns_count_characters_not_bytes() {
        // "é" and "日" are 2 and 3 bytes; the column counts them as one
        // character each, while the offset stays in bytes.
        let e = Tokenizer::new("<a>\nxé日<</a>").tokenize_all().unwrap_err();
        assert_eq!(e.kind, XmlErrorKind::UnexpectedChar('<'));
        assert_eq!((e.pos.line, e.pos.col, e.pos.offset), (2, 5, 11));
        let e = Tokenizer::new("<é x='1' x='2'/>").tokenize_all().unwrap_err();
        assert!(matches!(e.kind, XmlErrorKind::DuplicateAttribute(_)));
        assert_eq!((e.pos.line, e.pos.col, e.pos.offset), (1, 15, 15));
    }

    #[test]
    fn raw_lt_in_attribute_rejected() {
        assert!(Tokenizer::new("<a x=\"a<b\"/>").tokenize_all().is_err());
    }

    #[test]
    fn unterminated_tag_is_eof_error() {
        let e = Tokenizer::new("<a ").tokenize_all().unwrap_err();
        assert_eq!(e.kind, XmlErrorKind::UnexpectedEof);
    }

    #[test]
    fn entity_expansion_cap_enforced() {
        let doc = format!("<a>{}</a>", "&amp;".repeat(50));
        let small = Limits { max_entity_expansion: 10, ..Limits::default() };
        let e = Tokenizer::with_limits(&doc, &small).tokenize_all().unwrap_err();
        assert_eq!(e.kind, XmlErrorKind::LimitExceeded(LimitKind::EntityExpansion));
        // The default cap is far above 50 characters.
        assert!(Tokenizer::new(&doc).tokenize_all().is_ok());
    }

    #[test]
    fn expansion_cap_counts_attribute_values_too() {
        let doc = format!("<a x=\"{}\"/>", "&#65;".repeat(20));
        let small = Limits { max_entity_expansion: 5, ..Limits::default() };
        let e = Tokenizer::with_limits(&doc, &small).tokenize_all().unwrap_err();
        assert_eq!(e.kind, XmlErrorKind::LimitExceeded(LimitKind::EntityExpansion));
    }
}
