//! Differential test of the XML parser against a reference oracle.
//!
//! `tests/support/` holds the character-cursor tokenizer and parser that
//! `xmlsec-xml` used before its byte-cursor rewrite. Every input here is
//! parsed by both, under several option and limit settings, and the two
//! must agree: either both succeed with the same canonical serialization,
//! the same DOCTYPE and the same `ids_preordered()`, or both fail with the
//! same error kind at the same full position (line, column and offset).
//!
//! Inputs are the scaled corpora, random trees, instances of random DTDs,
//! seeded byte-level mutations of all of those, a hand corpus of edge
//! cases, and every resource cap at its limit and one past it.

mod support;

use xmlsec::workload::{
    conforming_doc, financial_scaled, hospital_scaled, laboratory_scaled, random_dtd, random_tree,
    DtdConfig, TreeConfig,
};
use xmlsec::xml::{
    parse_cancellable, serialize, CancelToken, Limits, ParseOptions, SerializeOptions,
};

/// Option settings every input is parsed under.
fn option_sets() -> [ParseOptions; 3] {
    [
        ParseOptions::default(),
        ParseOptions { keep_whitespace_text: true, keep_comments: true },
        ParseOptions { keep_whitespace_text: false, keep_comments: false },
    ]
}

/// Parses `input` with both parsers and asserts they agree.
fn agree_with(input: &str, opts: ParseOptions, limits: &Limits, polls: Option<u64>) {
    let token = |n: u64| CancelToken::cancel_after_polls(n);
    let (t1, t2) = (polls.map(token), polls.map(token));
    let got = parse_cancellable(input, opts, limits, t1.as_ref());
    let want = support::parser::parse_cancellable(input, opts, limits, t2.as_ref());
    match (got, want) {
        (Ok(g), Ok(w)) => {
            let canon = SerializeOptions::canonical();
            assert_eq!(serialize(&g, &canon), serialize(&w, &canon), "output differs on {input:?}");
            assert!(g.structurally_equal(&w), "tree differs on {input:?}");
            assert_eq!(g.doctype, w.doctype, "doctype differs on {input:?}");
            assert_eq!(g.ids_preordered(), w.ids_preordered(), "preorder differs on {input:?}");
            assert_eq!(g.arena_len(), w.arena_len(), "arena size differs on {input:?}");
        }
        (Err(g), Err(w)) => {
            assert_eq!(g.kind, w.kind, "error kind differs on {input:?}");
            assert_eq!(g.pos, w.pos, "error position differs on {input:?} ({:?})", g.kind);
        }
        (g, w) => panic!("outcome differs on {input:?}:\n  got  {g:?}\n  want {w:?}"),
    }
}

/// Parses `input` under every option set with default limits.
fn agree(input: &str) {
    for opts in option_sets() {
        agree_with(input, opts, &Limits::default(), None);
    }
}

/// The generated corpora, serialized both compactly and indented.
fn generated_corpus() -> Vec<String> {
    let mut docs = vec![
        laboratory_scaled(12, 1),
        laboratory_scaled(40, 2),
        hospital_scaled(10, 3),
        hospital_scaled(30, 4),
        financial_scaled(8, 5),
        financial_scaled(25, 6),
    ];
    for seed in 0..6 {
        docs.push(random_tree(&TreeConfig { elements: 60, ..Default::default() }, seed));
        let dtd = random_dtd(&DtdConfig::default(), seed);
        docs.push(conforming_doc(&dtd, seed));
    }
    let mut out = Vec::new();
    for d in &docs {
        out.push(serialize(d, &SerializeOptions::canonical()));
        out.push(serialize(d, &SerializeOptions::pretty()));
    }
    out
}

#[test]
fn generated_corpora_match_the_oracle() {
    for doc in generated_corpus() {
        agree(&doc);
    }
}

/// A small seeded generator (xorshift64*), so mutations are reproducible.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// Byte strings spliced into documents by [`mutate`].
const SPLICES: &[&[u8]] = &[
    b"<",
    b">",
    b"&",
    b";",
    b"\"",
    b"'",
    b"=",
    b"/",
    b"!",
    b"?",
    b"]]>",
    b"--",
    b"<!--",
    b"<![CDATA[",
    b"<?",
    b"&amp;",
    b"&#x41;",
    b"&#0;",
    b"&bogus;",
    b"\r\n",
    b"\n",
    b" ",
    "é".as_bytes(),
    "日本".as_bytes(),
    b"\xff",
    b"\xc3",
];

/// One seeded byte-level mutation: delete a range, splice in a token,
/// duplicate a range, overwrite a byte, or truncate. Invalid UTF-8 is
/// replaced lossily, since the parser takes `&str`.
fn mutate(src: &str, rng: &mut Rng) -> String {
    let mut b = src.as_bytes().to_vec();
    let at = rng.below(b.len() + 1);
    match rng.below(5) {
        0 => {
            let end = (at + 1 + rng.below(8)).min(b.len());
            b.drain(at.min(end)..end);
        }
        1 => {
            let s = SPLICES[rng.below(SPLICES.len())];
            b.splice(at..at, s.iter().copied());
        }
        2 => {
            let end = (at + 1 + rng.below(24)).min(b.len());
            let dup: Vec<u8> = b[at.min(end)..end].to_vec();
            b.splice(at..at, dup);
        }
        3 => {
            if at < b.len() {
                b[at] = b"<>&;\"'=/ a\n"[rng.below(11)];
            }
        }
        _ => b.truncate(at),
    }
    String::from_utf8_lossy(&b).into_owned()
}

#[test]
fn mutated_corpora_match_the_oracle() {
    let mut rng = Rng(0x5eed_0f0d_dba1_1234);
    for (i, doc) in generated_corpus().iter().enumerate() {
        // Small documents get more mutations; big ones fewer.
        let rounds = if doc.len() > 20_000 { 40 } else { 120 };
        for _ in 0..rounds {
            let mut m = mutate(doc, &mut rng);
            if rng.below(3) == 0 {
                m = mutate(&m, &mut rng);
            }
            agree_with(&m, option_sets()[i % 3], &Limits::default(), None);
        }
    }
}

/// Hand-written edge cases: well-formed and not.
const HAND_CORPUS: &[&str] = &[
    // references, CDATA, comments, PIs
    "<a>&lt;&gt;&amp;&apos;&quot;&#65;&#x42;&#X43;</a>",
    "<a x='&lt;&#x9;&quot;'>t&amp;u</a>",
    "<a>&#0;</a>",
    "<a>&#x110000;</a>",
    "<a>&#xZZ;</a>",
    "<a>&nbsp;</a>",
    "<a>&abcdefghijklmnopqrstuvwxyz;</a>",
    "<a>&abcdefghijklmnop;</a>",
    "<a>&abcdefghijklmnopq;</a>",
    "<a>&é日本語é日本語é;</a>",
    "<a>&amp</a>",
    "<a>&",
    "<a x=\"&amp\"/>",
    "<a x=\"a&b\"c;\"/>",
    "<a><![CDATA[<raw> & ]] > stuff]]></a>",
    "<a>x<![CDATA[]]>y</a>",
    "<a><![CDATA[unterminated</a>",
    "<a><!-- c --><!----></a>",
    "<a><!-- a -- b --></a>",
    "<a><!--->",
    "<a><!-- unterminated </a>",
    "<!-- before --><a/><!-- after -->",
    "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<a/>",
    "<a><?pi  data with  spaces   ?><?p?></a>",
    "<a><?XML bad?></a>",
    "<a><?xml in body?></a>",
    "<a><?pi unterminated</a>",
    "<?pi outside?><a/><?pi after?>",
    // DOCTYPE, including an internal subset with a quoted ']'
    "<!DOCTYPE a><a/>",
    "<!DOCTYPE a SYSTEM \"a.dtd\"><a/>",
    "<!DOCTYPE a PUBLIC '-//X//Y' 'a.dtd'><a/>",
    "<!DOCTYPE a [<!ELEMENT a (#PCDATA)><!ATTLIST a x CDATA \"]\">]><a x='1'/>",
    "<!DOCTYPE a [<!ATTLIST a x CDATA ']]'> [nested] ]><a/>",
    "<!DOCTYPE a [<!ATTLIST a x CDATA \"unterminated]><a/>",
    "<!DOCTYPE a [<!ELEMENT a EMPTY>",
    "<!DOCTYPE a SYSTEM unquoted><a/>",
    "<!DOCTYPE a SYSTEM \"x.dtd\" junk><a/>",
    "<!DOCTYPE><a/>",
    "<!DOCTYPEa><a/>",
    "<a/><!DOCTYPE a>",
    "<!DOCTYPE a><!DOCTYPE b><a/>",
    // multibyte names and text, CRLF
    "<é日 ü='ö'>日本語テキスト</é日>",
    "<a>\r\n  <b>x\r\ny</b>\r\n</a>",
    "<a>\r\n日本</b>",
    "<a>\n\u{a0}\n</a>",
    "<a>\u{a0}</a>",
    "<é>\n  ö <日/>\n</ü>",
    "<a\u{2028}/>",
    "<a x='é'\u{2028}y='1'/>",
    // '<' in attribute values, duplicate attributes, malformed attributes
    "<a x=\"a<b\"/>",
    "<a x='<'/>",
    "<a x=\"1\" x=\"2\"/>",
    "<a x='1' y='2' x='3'></a>",
    "<a x=\"1\"y=\"2\"/>",
    "<a x/>",
    "<a x=1/>",
    "<a x=\n1/>",
    "<a x=é/>",
    "<a x = '1' />",
    "<a x='1'",
    "<a x='1",
    "<a x=",
    "<a x",
    // every unterminated or malformed construct
    "",
    "   ",
    "<",
    "<a",
    "<a ",
    "<a/",
    "<a/ >",
    "<a>",
    "<a><b>",
    "<a></a",
    "<a></a ",
    "<a></a x>",
    "<a></b>",
    "</a>",
    "<a/></a>",
    "<a/><b/>",
    "<a/>junk",
    "junk<a/>",
    "<1a/>",
    "<-a/>",
    "<a>< b/></a>",
    "<!a/>",
    "<![CDATA[x]]><a/>",
    "<a>text",
    "<a>]]></a>",
    "<a>></a>",
];

#[test]
fn hand_corpus_matches_the_oracle() {
    for input in HAND_CORPUS {
        agree(input);
        // Every prefix, too: each cut is an unterminated construct.
        for cut in (0..input.len()).filter(|&i| input.is_char_boundary(i)) {
            agree_with(&input[..cut], ParseOptions::default(), &Limits::default(), None);
        }
    }
}

fn nested(depth: usize) -> String {
    "<n>".repeat(depth) + &"</n>".repeat(depth)
}

#[test]
fn caps_at_and_one_past_the_limit_match_the_oracle() {
    let base = Limits::default();
    for cap in [1usize, 2, 7, 16] {
        // Depth: `cap` open elements fit, `cap + 1` do not.
        let depth = Limits { max_depth: cap, ..base };
        agree_with(&nested(cap), ParseOptions::default(), &depth, None);
        agree_with(&nested(cap + 1), ParseOptions::default(), &depth, None);

        // Entity expansion, in text and in attribute values.
        let refs = Limits { max_entity_expansion: cap, ..base };
        for n in [cap, cap + 1] {
            let text = format!("<a>{}</a>", "&amp;".repeat(n));
            let attr = format!("<a x=\"{}\"/>", "&#65;".repeat(n));
            agree_with(&text, ParseOptions::default(), &refs, None);
            agree_with(&attr, ParseOptions::default(), &refs, None);
        }

        // Nodes: the root plus `cap - 1` children fit; one more does not.
        // Attributes, text, comments and PIs all count.
        let nodes = Limits { max_nodes: cap, ..base };
        for n in [cap - 1, cap] {
            for child in ["<x/>", "t<x/>", "<!--c-->", "<?p d?>"] {
                let doc = format!("<r>{}</r>", child.repeat(n));
                for opts in option_sets() {
                    agree_with(&doc, opts, &nodes, None);
                }
            }
            let attrs: String = (0..n).map(|i| format!(" a{i}=\"v\"")).collect();
            agree_with(&format!("<r{attrs}/>"), ParseOptions::default(), &nodes, None);
        }

        // Input bytes: a document of exactly `len` bytes, then one more.
        let doc = format!("<a>{}</a>", "x".repeat(cap));
        let bytes = Limits { max_input_bytes: doc.len(), ..base };
        agree_with(&doc, ParseOptions::default(), &bytes, None);
        agree_with(&format!("{doc} "), ParseOptions::default(), &bytes, None);
    }
}

#[test]
fn cancellation_points_match_the_oracle() {
    let doc = serialize(&laboratory_scaled(6, 7), &SerializeOptions::pretty());
    for polls in [0u64, 1, 2, 5, 17, 60, 250, 10_000] {
        for opts in option_sets() {
            agree_with(&doc, opts, &Limits::default(), Some(polls));
        }
    }
}
