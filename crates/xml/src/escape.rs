//! Escaping and entity/character-reference resolution.
//!
//! The processor resolves the five predefined entities (`&lt;`, `&gt;`,
//! `&amp;`, `&apos;`, `&quot;`) and decimal/hexadecimal character
//! references. General entities declared in a DTD are outside the scope of
//! the paper (its §2 explicitly restricts the model to the logical
//! structure) and are reported as [`XmlErrorKind::UnknownEntity`].

use crate::error::{Pos, Result, XmlError, XmlErrorKind};
use crate::name::is_xml_char;

/// Escapes `s` for use as element character data.
///
/// `<`, `&` must be escaped; we also escape `>` for symmetry with common
/// serializers (and to protect `]]>`).
pub fn escape_text(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_text_into(s, &mut out);
    out
}

/// Escapes `s` for use inside a double-quoted attribute value.
pub fn escape_attr(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_attr_into(s, &mut out);
    out
}

/// [`escape_text`], appending to `out` instead of allocating.
pub fn escape_text_into(s: &str, out: &mut String) {
    escape_into(s, out, |b| match b {
        b'<' => Some("&lt;"),
        b'>' => Some("&gt;"),
        b'&' => Some("&amp;"),
        _ => None,
    });
}

/// [`escape_attr`], appending to `out` instead of allocating.
pub fn escape_attr_into(s: &str, out: &mut String) {
    escape_into(s, out, |b| match b {
        b'<' => Some("&lt;"),
        b'>' => Some("&gt;"),
        b'&' => Some("&amp;"),
        b'"' => Some("&quot;"),
        b'\n' => Some("&#10;"),
        b'\t' => Some("&#9;"),
        b'\r' => Some("&#13;"),
        _ => None,
    });
}

/// Appends `s` to `out`, replacing each byte `escape` maps. Every
/// escaped character is ASCII, so runs between them are copied whole
/// and always end on a character boundary.
fn escape_into(s: &str, out: &mut String, escape: impl Fn(u8) -> Option<&'static str>) {
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        if let Some(entity) = escape(b) {
            out.push_str(&s[run..i]);
            out.push_str(entity);
            run = i + 1;
        }
    }
    out.push_str(&s[run..]);
}

/// Resolves a single entity or character reference body (the text between
/// `&` and `;`). Returns the replacement character(s).
pub fn resolve_reference(body: &str, pos: Pos) -> Result<char> {
    match body {
        "lt" => Ok('<'),
        "gt" => Ok('>'),
        "amp" => Ok('&'),
        "apos" => Ok('\''),
        "quot" => Ok('"'),
        _ => {
            if let Some(num) = body.strip_prefix('#') {
                let code =
                    if let Some(hex) = num.strip_prefix('x').or_else(|| num.strip_prefix('X')) {
                        u32::from_str_radix(hex, 16)
                    } else {
                        num.parse::<u32>()
                    };
                let code = code.map_err(|_| {
                    XmlError::new(XmlErrorKind::InvalidCharRef(num.to_string()), pos)
                })?;
                let c = char::from_u32(code).ok_or_else(|| {
                    XmlError::new(XmlErrorKind::InvalidCharRef(num.to_string()), pos)
                })?;
                if !is_xml_char(c) {
                    return Err(XmlError::new(XmlErrorKind::InvalidCharRef(num.to_string()), pos));
                }
                Ok(c)
            } else {
                Err(XmlError::new(XmlErrorKind::UnknownEntity(body.to_string()), pos))
            }
        }
    }
}

/// Unescapes a string that may contain entity and character references.
///
/// Used for attribute values captured by the tokenizer and by the DTD
/// parser for default values.
pub fn unescape(s: &str, pos: Pos) -> Result<String> {
    if !s.contains('&') {
        return Ok(s.to_string());
    }
    let mut out = String::with_capacity(s.len());
    let mut chars = s.char_indices();
    while let Some((_, c)) = chars.next() {
        if c != '&' {
            out.push(c);
            continue;
        }
        let mut body = String::new();
        let mut terminated = false;
        for (_, c2) in chars.by_ref() {
            if c2 == ';' {
                terminated = true;
                break;
            }
            body.push(c2);
        }
        if !terminated {
            return Err(XmlError::new(XmlErrorKind::UnknownEntity(body), pos));
        }
        out.push(resolve_reference(&body, pos)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_escaping_round_trip() {
        let raw = "a < b && c > d";
        let esc = escape_text(raw);
        assert_eq!(esc, "a &lt; b &amp;&amp; c &gt; d");
        assert_eq!(unescape(&esc, Pos::START).unwrap(), raw);
    }

    #[test]
    fn attr_escaping_quotes_and_newlines() {
        assert_eq!(escape_attr("say \"hi\"\n"), "say &quot;hi&quot;&#10;");
    }

    #[test]
    fn escaping_appends_and_keeps_multibyte_runs_whole() {
        let mut out = String::from("x=");
        escape_text_into("é<ü>&ß", &mut out);
        escape_attr_into("\t\"€\r", &mut out);
        assert_eq!(out, "x=é&lt;ü&gt;&amp;ß&#9;&quot;€&#13;");
        let mut plain = String::new();
        escape_attr_into("no specials", &mut plain);
        assert_eq!(plain, "no specials");
    }

    #[test]
    fn char_refs_decimal_and_hex() {
        assert_eq!(unescape("&#65;&#x42;&#x63;", Pos::START).unwrap(), "ABc");
    }

    #[test]
    fn predefined_entities() {
        assert_eq!(unescape("&lt;&gt;&amp;&apos;&quot;", Pos::START).unwrap(), "<>&'\"");
    }

    #[test]
    fn unknown_entity_is_error() {
        let e = unescape("&nbsp;", Pos::START).unwrap_err();
        assert!(matches!(e.kind, XmlErrorKind::UnknownEntity(ref n) if n == "nbsp"));
    }

    #[test]
    fn unterminated_reference_is_error() {
        assert!(unescape("&lt", Pos::START).is_err());
    }

    #[test]
    fn invalid_char_ref_rejected() {
        assert!(unescape("&#0;", Pos::START).is_err());
        assert!(unescape("&#x110000;", Pos::START).is_err());
        assert!(unescape("&#xZZ;", Pos::START).is_err());
    }
}
