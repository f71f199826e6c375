//! Reference oracle: the character-cursor tokenizer `xmlsec-xml` shipped
//! before its byte-cursor rewrite, kept verbatim (imports aside) so the
//! parser differential can compare the two.
//!
//! Pull tokenizer for XML 1.0 documents.
//!
//! Produces a flat token stream (start tags with attributes, end tags,
//! character data with references resolved, comments, PIs, DOCTYPE) that
//! the tree-building parser consumes. Entity references are resolved here
//! so downstream code only ever sees plain text.

use xmlsec_xml::dom::Doctype;
use xmlsec_xml::error::{Pos, Result, XmlError, XmlErrorKind};
use xmlsec_xml::escape::resolve_reference;
use xmlsec_xml::limits::{LimitKind, Limits};
use xmlsec_xml::name::{is_name_char, is_name_start_char, is_xml_whitespace};

/// One lexical event in the document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Token {
    /// XML declaration `<?xml version=... ?>` (captured, not interpreted).
    XmlDecl {
        /// Raw content between `<?xml` and `?>`.
        raw: String,
        /// Position of `<`.
        pos: Pos,
    },
    /// `<!DOCTYPE ...>`.
    Doctype {
        /// Parsed declaration.
        decl: Doctype,
        /// Position of `<`.
        pos: Pos,
    },
    /// `<name a="v" ...>` or `<name ... />`.
    StartTag {
        /// Element name.
        name: String,
        /// Attributes, in source order, values unescaped.
        attrs: Vec<(String, String)>,
        /// Whether the tag ended with `/>`.
        self_closing: bool,
        /// Position of `<`.
        pos: Pos,
    },
    /// `</name>`.
    EndTag {
        /// Element name.
        name: String,
        /// Position of `<`.
        pos: Pos,
    },
    /// Character data (including CDATA sections), references resolved.
    Text {
        /// The text.
        value: String,
        /// Position of the first character.
        pos: Pos,
    },
    /// `<!-- ... -->`.
    Comment {
        /// Comment body.
        value: String,
        /// Position of `<`.
        pos: Pos,
    },
    /// `<?target data?>`.
    Pi {
        /// PI target (not `xml`).
        target: String,
        /// PI data, possibly empty.
        data: String,
        /// Position of `<`.
        pos: Pos,
    },
}

/// Character cursor with line/column tracking.
struct Cursor<'a> {
    input: &'a str,
    /// Byte offset of the next char.
    offset: usize,
    line: u32,
    col: u32,
    /// Characters produced by reference resolution so far.
    expanded: usize,
    /// Cap on `expanded` (the billion-laughs guard).
    max_expansion: usize,
}

impl<'a> Cursor<'a> {
    fn new(input: &'a str, max_expansion: usize) -> Self {
        Cursor { input, offset: 0, line: 1, col: 1, expanded: 0, max_expansion }
    }

    fn pos(&self) -> Pos {
        Pos { line: self.line, col: self.col, offset: self.offset }
    }

    fn peek(&self) -> Option<char> {
        self.input[self.offset..].chars().next()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.input[self.offset..].starts_with(s)
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.offset += c.len_utf8();
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn bump_n(&mut self, n: usize) {
        for _ in 0..n {
            self.bump();
        }
    }

    fn eat(&mut self, s: &str) -> bool {
        if self.starts_with(s) {
            self.bump_n(s.chars().count());
            true
        } else {
            false
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(c) if is_xml_whitespace(c)) {
            self.bump();
        }
    }

    fn at_eof(&self) -> bool {
        self.offset >= self.input.len()
    }

    fn err(&self, kind: XmlErrorKind) -> XmlError {
        XmlError::new(kind, self.pos())
    }

    fn read_name(&mut self) -> Result<String> {
        let start = self.pos();
        match self.peek() {
            Some(c) if is_name_start_char(c) => {}
            Some(c) => return Err(XmlError::new(XmlErrorKind::UnexpectedChar(c), start)),
            None => return Err(XmlError::new(XmlErrorKind::UnexpectedEof, start)),
        }
        let begin = self.offset;
        while matches!(self.peek(), Some(c) if is_name_char(c)) {
            self.bump();
        }
        Ok(self.input[begin..self.offset].to_string())
    }

    /// Reads text until `stop`, resolving `&...;` references. `stop` chars
    /// terminate without being consumed. When `forbid_lt` is set, a raw `<`
    /// is a well-formedness error (attribute-value context).
    fn read_text_until(&mut self, stop: char, forbid_lt: bool) -> Result<String> {
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Ok(out),
                Some(c) if c == stop => return Ok(out),
                Some('<') if forbid_lt => {
                    return Err(self.err(XmlErrorKind::UnexpectedChar('<')));
                }
                Some('&') => {
                    let pos = self.pos();
                    self.bump();
                    let mut body = String::new();
                    loop {
                        match self.bump() {
                            Some(';') => break,
                            Some(c) if body.len() < 16 => body.push(c),
                            _ => return Err(XmlError::new(XmlErrorKind::UnknownEntity(body), pos)),
                        }
                    }
                    let c = resolve_reference(&body, pos)?;
                    self.expanded += 1;
                    if self.expanded > self.max_expansion {
                        return Err(XmlError::new(
                            XmlErrorKind::LimitExceeded(LimitKind::EntityExpansion),
                            pos,
                        ));
                    }
                    out.push(c);
                }
                Some(_) => out.push(self.bump().unwrap()),
            }
        }
    }
}

/// The tokenizer: call [`Tokenizer::next_token`] until it returns `None`.
pub struct Tokenizer<'a> {
    cur: Cursor<'a>,
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
        Tokenizer { cur: Cursor::new(input, limits.max_entity_expansion) }
    }

    /// Returns the next token, or `Ok(None)` at end of input.
    pub fn next_token(&mut self) -> Result<Option<Token>> {
        if self.cur.at_eof() {
            return Ok(None);
        }
        if self.cur.peek() == Some('<') {
            self.read_markup().map(Some)
        } else {
            let pos = self.cur.pos();
            let value = self.cur.read_text_until('<', false)?;
            Ok(Some(Token::Text { value, pos }))
        }
    }

    /// Collects all tokens (convenience for tests and the DTD scanner).
    pub fn tokenize_all(mut self) -> Result<Vec<Token>> {
        let mut out = Vec::new();
        while let Some(t) = self.next_token()? {
            out.push(t);
        }
        Ok(out)
    }

    fn read_markup(&mut self) -> Result<Token> {
        let pos = self.cur.pos();
        debug_assert_eq!(self.cur.peek(), Some('<'));
        if self.cur.starts_with("<!--") {
            return self.read_comment(pos);
        }
        if self.cur.starts_with("<![CDATA[") {
            return self.read_cdata(pos);
        }
        if self.cur.starts_with("<!DOCTYPE") {
            return self.read_doctype(pos);
        }
        if self.cur.starts_with("<?") {
            return self.read_pi(pos);
        }
        if self.cur.starts_with("</") {
            self.cur.bump_n(2);
            let name = self.cur.read_name()?;
            self.cur.skip_ws();
            if !self.cur.eat(">") {
                return Err(self.cur.err(XmlErrorKind::UnexpectedEof));
            }
            return Ok(Token::EndTag { name, pos });
        }
        // Start tag.
        self.cur.bump(); // consume '<'
        let name = self.cur.read_name()?;
        let mut attrs = Vec::new();
        loop {
            self.cur.skip_ws();
            match self.cur.peek() {
                Some('>') => {
                    self.cur.bump();
                    return Ok(Token::StartTag { name, attrs, self_closing: false, pos });
                }
                Some('/') => {
                    self.cur.bump();
                    if !self.cur.eat(">") {
                        return Err(self.cur.err(XmlErrorKind::UnexpectedChar('/')));
                    }
                    return Ok(Token::StartTag { name, attrs, self_closing: true, pos });
                }
                Some(c) if is_name_start_char(c) => {
                    let (an, av) = self.read_attribute()?;
                    if attrs.iter().any(|(n, _)| *n == an) {
                        return Err(self.cur.err(XmlErrorKind::DuplicateAttribute(an)));
                    }
                    attrs.push((an, av));
                }
                Some(c) => return Err(self.cur.err(XmlErrorKind::UnexpectedChar(c))),
                None => return Err(self.cur.err(XmlErrorKind::UnexpectedEof)),
            }
        }
    }

    fn read_attribute(&mut self) -> Result<(String, String)> {
        let name = self.cur.read_name()?;
        self.cur.skip_ws();
        if !self.cur.eat("=") {
            return Err(self.cur.err(XmlErrorKind::MalformedAttribute(name)));
        }
        self.cur.skip_ws();
        let quote = match self.cur.bump() {
            Some(q @ ('"' | '\'')) => q,
            _ => return Err(self.cur.err(XmlErrorKind::MalformedAttribute(name))),
        };
        let value = self.cur.read_text_until(quote, true)?;
        if !self.cur.eat(&quote.to_string()) {
            return Err(self.cur.err(XmlErrorKind::MalformedAttribute(name)));
        }
        Ok((name, value))
    }

    fn read_comment(&mut self, pos: Pos) -> Result<Token> {
        self.cur.bump_n(4); // <!--
        let begin = self.cur.offset;
        loop {
            if self.cur.at_eof() {
                return Err(XmlError::new(XmlErrorKind::MalformedComment, pos));
            }
            if self.cur.starts_with("--") {
                let value = self.cur.input[begin..self.cur.offset].to_string();
                self.cur.bump_n(2);
                if !self.cur.eat(">") {
                    // '--' inside comment body is forbidden by XML 1.0.
                    return Err(XmlError::new(XmlErrorKind::MalformedComment, pos));
                }
                return Ok(Token::Comment { value, pos });
            }
            self.cur.bump();
        }
    }

    fn read_cdata(&mut self, pos: Pos) -> Result<Token> {
        self.cur.bump_n(9); // <![CDATA[
        let begin = self.cur.offset;
        loop {
            if self.cur.at_eof() {
                return Err(XmlError::new(XmlErrorKind::MalformedCdata, pos));
            }
            if self.cur.starts_with("]]>") {
                let value = self.cur.input[begin..self.cur.offset].to_string();
                self.cur.bump_n(3);
                return Ok(Token::Text { value, pos });
            }
            self.cur.bump();
        }
    }

    fn read_pi(&mut self, pos: Pos) -> Result<Token> {
        self.cur.bump_n(2); // <?
        let target = self.cur.read_name()?;
        self.cur.skip_ws();
        let begin = self.cur.offset;
        loop {
            if self.cur.at_eof() {
                return Err(XmlError::new(XmlErrorKind::MalformedPi, pos));
            }
            if self.cur.starts_with("?>") {
                let data = self.cur.input[begin..self.cur.offset].trim_end().to_string();
                self.cur.bump_n(2);
                if target.eq_ignore_ascii_case("xml") {
                    if target == "xml" {
                        return Ok(Token::XmlDecl { raw: data, pos });
                    }
                    return Err(XmlError::new(XmlErrorKind::MalformedPi, pos));
                }
                return Ok(Token::Pi { target, data, pos });
            }
            self.cur.bump();
        }
    }

    fn read_doctype(&mut self, pos: Pos) -> Result<Token> {
        self.cur.bump_n(9); // <!DOCTYPE
        self.cur.skip_ws();
        let name = self.cur.read_name()?;
        let mut decl = Doctype { name, ..Doctype::default() };
        self.cur.skip_ws();
        if self.cur.eat("SYSTEM") {
            self.cur.skip_ws();
            decl.system_id = Some(self.read_quoted(pos)?);
        } else if self.cur.eat("PUBLIC") {
            self.cur.skip_ws();
            decl.public_id = Some(self.read_quoted(pos)?);
            self.cur.skip_ws();
            decl.system_id = Some(self.read_quoted(pos)?);
        }
        self.cur.skip_ws();
        if self.cur.peek() == Some('[') {
            self.cur.bump();
            let begin = self.cur.offset;
            // The internal subset may contain quoted strings with ']'.
            let mut depth = 1usize;
            loop {
                match self.cur.peek() {
                    None => return Err(XmlError::new(XmlErrorKind::MalformedDoctype, pos)),
                    Some('[') => {
                        depth += 1;
                        self.cur.bump();
                    }
                    Some(']') => {
                        depth -= 1;
                        if depth == 0 {
                            decl.internal_subset =
                                Some(self.cur.input[begin..self.cur.offset].to_string());
                            self.cur.bump();
                            break;
                        }
                        self.cur.bump();
                    }
                    Some(q @ ('"' | '\'')) => {
                        self.cur.bump();
                        loop {
                            match self.cur.bump() {
                                None => {
                                    return Err(XmlError::new(XmlErrorKind::MalformedDoctype, pos))
                                }
                                Some(c) if c == q => break,
                                Some(_) => {}
                            }
                        }
                    }
                    Some(_) => {
                        self.cur.bump();
                    }
                }
            }
        }
        self.cur.skip_ws();
        if !self.cur.eat(">") {
            return Err(XmlError::new(XmlErrorKind::MalformedDoctype, pos));
        }
        Ok(Token::Doctype { decl, pos })
    }

    fn read_quoted(&mut self, pos: Pos) -> Result<String> {
        let quote = match self.cur.bump() {
            Some(q @ ('"' | '\'')) => q,
            _ => return Err(XmlError::new(XmlErrorKind::MalformedDoctype, pos)),
        };
        let begin = self.cur.offset;
        loop {
            match self.cur.peek() {
                None => return Err(XmlError::new(XmlErrorKind::MalformedDoctype, pos)),
                Some(c) if c == quote => {
                    let s = self.cur.input[begin..self.cur.offset].to_string();
                    self.cur.bump();
                    return Ok(s);
                }
                Some(_) => {
                    self.cur.bump();
                }
            }
        }
    }
}
