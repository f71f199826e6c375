//! Serialization — the "unparsing" step of the paper's §7 pipeline.
//!
//! Turns a (possibly pruned) DOM tree back into XML text. Two styles:
//! compact (canonical, no inserted whitespace — used by tests that compare
//! documents textually) and pretty-printed (indented — used by the
//! `figures` binary and examples).
//!
//! [`serialize_filtered`] writes only the nodes a keep-filter admits, so
//! a caller holding a per-node visibility verdict (an access-control
//! view) can render that view without first copying and pruning the
//! tree: the bytes are those [`serialize`] would produce after the
//! rejected nodes had been detached.

use crate::dom::{Doctype, Document, NodeData, NodeId};
use crate::escape::{escape_attr_into, escape_text_into};

/// Serializer configuration.
#[derive(Debug, Clone)]
pub struct SerializeOptions {
    /// Indent width; `None` means compact output.
    pub indent: Option<usize>,
    /// Emit `<?xml version="1.0"?>`.
    pub xml_decl: bool,
    /// Emit the document's `<!DOCTYPE ...>` if present.
    pub doctype: bool,
}

impl Default for SerializeOptions {
    fn default() -> Self {
        SerializeOptions { indent: None, xml_decl: false, doctype: true }
    }
}

impl SerializeOptions {
    /// Pretty-printing with 2-space indent, declaration and doctype.
    pub fn pretty() -> Self {
        SerializeOptions { indent: Some(2), xml_decl: true, doctype: true }
    }

    /// Compact output without prolog, for textual comparisons.
    pub fn canonical() -> Self {
        SerializeOptions { indent: None, xml_decl: false, doctype: false }
    }
}

/// Serializes the whole document with `opts`.
pub fn serialize(doc: &Document, opts: &SerializeOptions) -> String {
    serialize_filtered(doc, opts, &|_| true)
}

/// Serializes the document with `opts`, writing only the attributes and
/// children for which `keep` holds (a rejected element drops its whole
/// subtree). The document element is always written. The output is
/// byte-identical to [`serialize`] on a copy from which every rejected
/// node had been detached.
pub fn serialize_filtered(
    doc: &Document,
    opts: &SerializeOptions,
    keep: &impl Fn(NodeId) -> bool,
) -> String {
    let mut out = String::new();
    if opts.xml_decl {
        out.push_str("<?xml version=\"1.0\" encoding=\"UTF-8\"?>");
        if opts.indent.is_some() {
            out.push('\n');
        }
    }
    if opts.doctype {
        if let Some(dt) = &doc.doctype {
            write_doctype(dt, &mut out);
            if opts.indent.is_some() {
                out.push('\n');
            }
        }
    }
    write_node(doc, doc.root(), opts, keep, 0, &mut out);
    if opts.indent.is_some() {
        out.push('\n');
    }
    out
}

/// Serializes a single subtree compactly (no prolog).
pub fn serialize_node(doc: &Document, id: NodeId) -> String {
    let mut out = String::new();
    write_node(doc, id, &SerializeOptions::canonical(), &|_| true, 0, &mut out);
    out
}

fn write_doctype(dt: &Doctype, out: &mut String) {
    out.push_str("<!DOCTYPE ");
    out.push_str(&dt.name);
    match (&dt.public_id, &dt.system_id) {
        (Some(p), Some(s)) => {
            out.push_str(&format!(" PUBLIC \"{p}\" \"{s}\""));
        }
        (None, Some(s)) => {
            out.push_str(&format!(" SYSTEM \"{s}\""));
        }
        _ => {}
    }
    if let Some(subset) = &dt.internal_subset {
        out.push_str(" [");
        out.push_str(subset);
        out.push(']');
    }
    out.push('>');
}

fn write_node(
    doc: &Document,
    id: NodeId,
    opts: &SerializeOptions,
    keep: &impl Fn(NodeId) -> bool,
    depth: usize,
    out: &mut String,
) {
    match doc.node(id).data {
        NodeData::Element { name, attrs, children } => {
            indent(opts, depth, out);
            out.push('<');
            out.push_str(name);
            for &a in attrs {
                if !keep(a) {
                    continue;
                }
                if let NodeData::Attr { name, value } = doc.node(a).data {
                    out.push(' ');
                    out.push_str(name);
                    out.push_str("=\"");
                    escape_attr_into(value, out);
                    out.push('"');
                }
            }
            let mut kept = children.iter().copied().filter(|&c| keep(c)).peekable();
            if kept.peek().is_none() {
                out.push_str("/>");
                return;
            }
            out.push('>');
            // Mixed content (any text child) is serialized inline to keep
            // the text exact; element-only content may be indented.
            let inline =
                opts.indent.is_none() || children.iter().any(|&c| doc.is_text(c) && keep(c));
            if inline {
                let canonical = SerializeOptions::canonical();
                for c in kept {
                    write_node(doc, c, &canonical, keep, 0, out);
                }
            } else {
                for c in kept {
                    newline(opts, out);
                    write_node(doc, c, opts, keep, depth + 1, out);
                }
                newline(opts, out);
                indent(opts, depth, out);
            }
            out.push_str("</");
            out.push_str(name);
            out.push('>');
        }
        NodeData::Text(t) => escape_text_into(t, out),
        NodeData::Comment(t) => {
            out.push_str("<!--");
            out.push_str(t);
            out.push_str("-->");
        }
        NodeData::Pi { target, data } => {
            out.push_str("<?");
            out.push_str(target);
            if !data.is_empty() {
                out.push(' ');
                out.push_str(data);
            }
            out.push_str("?>");
        }
        NodeData::Attr { .. } => {}
    }
}

fn indent(opts: &SerializeOptions, depth: usize, out: &mut String) {
    if let Some(w) = opts.indent {
        for _ in 0..depth * w {
            out.push(' ');
        }
    }
}

fn newline(opts: &SerializeOptions, out: &mut String) {
    if opts.indent.is_some() {
        out.push('\n');
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn compact_round_trip() {
        let src = r#"<lab><project name="p &amp; q"><paper/>text &lt;here&gt;</project></lab>"#;
        let d = parse(src).unwrap();
        let out = serialize(&d, &SerializeOptions::canonical());
        assert_eq!(out, src);
    }

    #[test]
    fn empty_element_self_closes() {
        let d = parse("<a><b></b></a>").unwrap();
        assert_eq!(serialize(&d, &SerializeOptions::canonical()), "<a><b/></a>");
    }

    #[test]
    fn pretty_print_indents_element_content() {
        let d = parse("<a><b><c/></b></a>").unwrap();
        let out = serialize(&d, &SerializeOptions::pretty());
        assert!(out.contains("<?xml"), "{out}");
        assert!(out.contains("\n  <b>"), "{out}");
        assert!(out.contains("\n    <c/>"), "{out}");
    }

    #[test]
    fn mixed_content_stays_inline() {
        let src = "<p>hello <b>world</b> again</p>";
        let d = parse(src).unwrap();
        let pretty = serialize(&d, &SerializeOptions::pretty());
        assert!(pretty.contains("hello <b>world</b> again"), "{pretty}");
    }

    #[test]
    fn doctype_emitted() {
        let d = parse("<!DOCTYPE lab SYSTEM \"lab.dtd\"><lab/>").unwrap();
        let out = serialize(&d, &SerializeOptions::default());
        assert_eq!(out, "<!DOCTYPE lab SYSTEM \"lab.dtd\"><lab/>");
    }

    #[test]
    fn attribute_escaping() {
        let mut d = Document::new("a");
        d.set_attribute(d.root(), "t", "a\"b<c>&d").unwrap();
        let out = serialize(&d, &SerializeOptions::canonical());
        assert_eq!(out, "<a t=\"a&quot;b&lt;c&gt;&amp;d\"/>");
        // And it parses back to the same value.
        let d2 = parse(&out).unwrap();
        assert_eq!(d2.attribute(d2.root(), "t"), Some("a\"b<c>&d"));
    }

    #[test]
    fn serialize_single_node() {
        let d = parse("<a><b x=\"1\">t</b><c/></a>").unwrap();
        let b = d.child_elements(d.root()).next().unwrap();
        assert_eq!(serialize_node(&d, b), "<b x=\"1\">t</b>");
    }

    #[test]
    fn filtered_output_matches_serializing_a_detached_copy() {
        let src = r#"<a k="1" h="2"><b>x<c/></b><d>y</d><!--n--></a>"#;
        let d = parse(src).unwrap();
        let hidden: Vec<NodeId> = d
            .preorder(d.root())
            .filter(|&n| matches!(d.node_name(n), Some("h" | "c" | "d")))
            .collect();
        let mut pruned = d.clone();
        for &n in hidden.iter().rev() {
            pruned.detach(n);
        }
        for opts in [SerializeOptions::canonical(), SerializeOptions::pretty()] {
            let got = serialize_filtered(&d, &opts, &|n| !hidden.contains(&n));
            assert_eq!(got, serialize(&pruned, &opts));
        }
        assert_eq!(
            serialize_filtered(&d, &SerializeOptions::canonical(), &|n| n == d.root()),
            "<a/>",
            "the document element is written even when nothing below it is kept"
        );
    }

    #[test]
    fn comments_and_pis_round_trip() {
        let src = "<a><!--note--><?app data?></a>";
        let d = parse(src).unwrap();
        assert_eq!(serialize(&d, &SerializeOptions::canonical()), src);
    }
}
