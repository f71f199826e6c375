//! Error types for XML lexing and parsing.
//!
//! Every error carries a [`Pos`] (line/column, 1-based) pointing at the
//! offending input so that callers can produce actionable diagnostics.

use crate::limits::LimitKind;
use std::fmt;

/// A position in the source text.
///
/// Lines and columns are 1-based; `offset` is the 0-based byte offset.
/// The tokenizer tracks only offsets and derives the line and column
/// with [`Pos::at`] when it builds an error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pos {
    /// 1-based line number.
    pub line: u32,
    /// 1-based column number, counted in characters (Unicode scalar
    /// values, not bytes) from the start of the line: a line break is
    /// a `\n`, and a `\r` counts as a character.
    pub col: u32,
    /// 0-based byte offset from the start of the input.
    pub offset: usize,
}

impl Pos {
    /// The start-of-input position.
    pub const START: Pos = Pos { line: 1, col: 1, offset: 0 };

    /// The position of byte `offset` in `input`.
    ///
    /// # Panics
    /// Panics if `offset` is past the end of `input`.
    pub fn at(input: &str, offset: usize) -> Pos {
        let before = &input.as_bytes()[..offset];
        let line_start = before.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
        let line = 1 + before.iter().filter(|&&b| b == b'\n').count();
        // One character per byte that is not a UTF-8 continuation byte.
        let col = 1 + before[line_start..].iter().filter(|&&b| b & 0xC0 != 0x80).count();
        let saturate = |n: usize| u32::try_from(n).unwrap_or(u32::MAX);
        Pos { line: saturate(line), col: saturate(col), offset }
    }
}

impl fmt::Display for Pos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// The kinds of well-formedness violation the parser reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XmlErrorKind {
    /// Input ended in the middle of a construct.
    UnexpectedEof,
    /// A character that cannot start or continue the current construct.
    UnexpectedChar(char),
    /// A tag, attribute, PI target, or entity name that is not a valid XML Name.
    InvalidName(String),
    /// `</b>` closing `<a>`.
    MismatchedTag {
        /// The open element's name.
        expected: String,
        /// The end tag actually found.
        found: String,
    },
    /// An end tag with no corresponding open element.
    UnbalancedEndTag(String),
    /// An element left open at end of input.
    UnclosedElement(String),
    /// The same attribute appears twice on one start tag.
    DuplicateAttribute(String),
    /// A reference to an entity the processor does not know.
    UnknownEntity(String),
    /// A numeric character reference that is not a legal XML character.
    InvalidCharRef(String),
    /// Text or markup outside the single document element.
    ContentOutsideRoot,
    /// The document has no element at all.
    NoRootElement,
    /// More than one top-level element.
    MultipleRootElements,
    /// `--` inside a comment, or a comment left unterminated.
    MalformedComment,
    /// A processing instruction that is unterminated or targets `xml`.
    MalformedPi,
    /// A malformed `<!DOCTYPE ...>` declaration.
    MalformedDoctype,
    /// A malformed CDATA section.
    MalformedCdata,
    /// A raw `<` in attribute value, or an unterminated attribute value.
    MalformedAttribute(String),
    /// A configured resource limit was exceeded (see
    /// [`crate::limits::Limits`]); recoverable, never a panic.
    LimitExceeded(LimitKind),
    /// The request's cancellation token tripped mid-parse (deadline
    /// passed, client gone, or explicit cancel — see [`crate::cancel`]);
    /// recoverable, partial work discarded.
    Cancelled(crate::cancel::CancelReason),
}

impl fmt::Display for XmlErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use XmlErrorKind::*;
        match self {
            UnexpectedEof => write!(f, "unexpected end of input"),
            UnexpectedChar(c) => write!(f, "unexpected character {c:?}"),
            InvalidName(n) => write!(f, "invalid XML name {n:?}"),
            MismatchedTag { expected, found } => {
                write!(f, "mismatched end tag: expected </{expected}>, found </{found}>")
            }
            UnbalancedEndTag(n) => write!(f, "end tag </{n}> with no open element"),
            UnclosedElement(n) => write!(f, "element <{n}> is never closed"),
            DuplicateAttribute(n) => write!(f, "duplicate attribute {n:?}"),
            UnknownEntity(n) => write!(f, "reference to unknown entity &{n};"),
            InvalidCharRef(s) => write!(f, "invalid character reference &#{s};"),
            ContentOutsideRoot => write!(f, "content outside the document element"),
            NoRootElement => write!(f, "document has no root element"),
            MultipleRootElements => write!(f, "document has more than one root element"),
            MalformedComment => write!(f, "malformed comment"),
            MalformedPi => write!(f, "malformed processing instruction"),
            MalformedDoctype => write!(f, "malformed DOCTYPE declaration"),
            MalformedCdata => write!(f, "malformed CDATA section"),
            MalformedAttribute(n) => write!(f, "malformed attribute {n:?}"),
            LimitExceeded(k) => write!(f, "resource limit exceeded: {k}"),
            Cancelled(r) => write!(f, "parse cancelled: {r}"),
        }
    }
}

/// A well-formedness error with its source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmlError {
    /// What went wrong.
    pub kind: XmlErrorKind,
    /// Where it went wrong.
    pub pos: Pos,
}

impl XmlError {
    /// Builds an error at `pos`.
    pub fn new(kind: XmlErrorKind, pos: Pos) -> Self {
        XmlError { kind, pos }
    }
}

impl fmt::Display for XmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "XML error at {}: {}", self.pos, self.kind)
    }
}

impl std::error::Error for XmlError {}

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, XmlError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pos_display() {
        let p = Pos { line: 3, col: 17, offset: 40 };
        assert_eq!(p.to_string(), "3:17");
    }

    #[test]
    fn error_display_mentions_position_and_kind() {
        let e = XmlError::new(
            XmlErrorKind::MismatchedTag { expected: "a".into(), found: "b".into() },
            Pos { line: 2, col: 5, offset: 10 },
        );
        let s = e.to_string();
        assert!(s.contains("2:5"), "{s}");
        assert!(s.contains("</a>"), "{s}");
        assert!(s.contains("</b>"), "{s}");
    }

    #[test]
    fn pos_at_counts_lines_and_characters() {
        let s = "ab\nxé日z";
        assert_eq!(Pos::at(s, 0), Pos::START);
        assert_eq!(Pos::at(s, 3), Pos { line: 2, col: 1, offset: 3 });
        // "é" (2 bytes) and "日" (3 bytes) are one column each.
        assert_eq!(Pos::at(s, 9), Pos { line: 2, col: 4, offset: 9 });
        assert_eq!(Pos::at(s, s.len()), Pos { line: 2, col: 5, offset: 10 });
        assert_eq!(Pos::at("a\r\nb", 3), Pos { line: 2, col: 1, offset: 3 });
    }

    #[test]
    fn start_pos_is_line1_col1() {
        assert_eq!(Pos::START.line, 1);
        assert_eq!(Pos::START.col, 1);
        assert_eq!(Pos::START.offset, 0);
    }
}
