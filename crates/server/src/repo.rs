//! In-memory document repository: the server-side store of XML documents,
//! their DTDs, and the URI association between them (paper §7's usage
//! scenario: "a user requesting a set of XML documents from a remote
//! site").
//!
//! Each document URI maps to its current **revision**: an
//! `Arc<StoredDocument>` that is never mutated once published. A revision
//! holds the document text, its content hash, the DTD it is an instance
//! of, and two memos filled by whichever request gets there first:
//!
//! - the **parse memo** ([`StoredDocument::parsed`]): the DOM, parsed
//!   under the server's XML limits and DTD-normalized, or the typed error
//!   the text failed with. The first read or update of a revision parses
//!   it; every later request on the revision borrows the same DOM, and a
//!   document that does not parse gets the same error on every request. A
//!   cancelled parse is never kept;
//! - the **validity memo** ([`StoredDocument::schema_valid`]): whether
//!   the revision conforms to its DTD, checked at most once.
//!
//! A reader clones the revision's `Arc` under a short guard and does all
//! its work — parse on first use, label, render — with no guard held. A
//! commit builds the next revision from its one copy of the current DOM
//! ([`StoredDocument::next`], which keeps that DOM as the new parse memo,
//! so a committed revision is never parsed) and publishes it by swapping
//! the `Arc` ([`Repository::install`]). The last holder of the old
//! revision frees it.
//!
//! Every stored document and DTD carries a **content hash**, computed
//! once on registration, replacement or commit — never per request. The
//! view cache folds a revision's [`StoredDocument::identity`] (its own
//! hash and its DTD's) into its key, so a content change *necessarily*
//! repoints every cache lookup for that document: explicit invalidation
//! becomes hygiene (it reclaims space early) rather than a correctness
//! requirement. Registrations are counted in the
//! `xmlsec_repo_rehash_total{kind}` telemetry series.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use xmlsec_core::{
    CancelToken, DocumentSource, ParsedSource, PreparedSchema, ProcessError, SecurityProcessor,
};
use xmlsec_dtd::DtdError;
use xmlsec_telemetry as telemetry;
use xmlsec_xml::{Document, NodeId};

/// 64-bit FNV-1a over a byte string: stable across processes (unlike
/// `DefaultHasher`, whose seed is unspecified), cheap, and good enough
/// for content identity of trusted server-side documents. This is a
/// cache-freshness fingerprint, not a cryptographic commitment.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn rehash_counter(kind: &'static str) -> Arc<telemetry::Counter> {
    telemetry::global().counter(
        "xmlsec_repo_rehash_total",
        "Content-hash computations on document or DTD registration.",
        &[("kind", kind)],
    )
}

fn document_rehashes() -> &'static Arc<telemetry::Counter> {
    static C: OnceLock<Arc<telemetry::Counter>> = OnceLock::new();
    C.get_or_init(|| rehash_counter("document"))
}

fn dtd_rehashes() -> &'static Arc<telemetry::Counter> {
    static C: OnceLock<Arc<telemetry::Counter>> = OnceLock::new();
    C.get_or_init(|| rehash_counter("dtd"))
}

/// One revision of a stored document: the record the repository keeps
/// per URI, shared behind an `Arc` and never mutated once published.
#[derive(Debug, Clone)]
pub struct StoredDocument {
    /// The document text as served.
    pub xml: String,
    /// URI of the DTD this document is an instance of, if any.
    pub dtd_uri: Option<String>,
    /// FNV-1a hash of `xml`, computed when the revision was stored.
    pub content_hash: u64,
    /// The stored DTD `dtd_uri` named when this revision was stored.
    dtd: Option<Arc<StoredDtd>>,
    /// Memoized validity of this revision against its DTD.
    schema_valid: OnceLock<bool>,
    /// This revision parsed and normalized, or the error it failed with.
    parsed: OnceLock<Result<ParsedDocument, ProcessError>>,
}

impl StoredDocument {
    fn new(xml: String, dtd_uri: Option<String>, dtd: Option<Arc<StoredDtd>>) -> StoredDocument {
        let content_hash = fnv1a64(xml.as_bytes());
        let (schema_valid, parsed) = (OnceLock::new(), OnceLock::new());
        StoredDocument { xml, dtd_uri, content_hash, dtd, schema_valid, parsed }
    }

    /// The memoized validity of this revision against its DTD, empty
    /// until first checked. Readers fill it in (through the processor's
    /// [`xmlsec_core::DocumentSource::schema_valid`]) as well as the
    /// update pre-flight, so the document is validated at most once per
    /// revision. Every new revision — a [`Repository::put_document`], a
    /// [`Repository::put_dtd`] of its DTD, a commit — starts with an
    /// empty memo.
    pub fn schema_valid(&self) -> &OnceLock<bool> {
        &self.schema_valid
    }

    /// The revision's combined content identity: its own bytes plus the
    /// bytes of the DTD it is an instance of. Folding this into the
    /// view-cache key makes a stale view structurally unreachable — any
    /// `put_document`/`put_dtd`/commit that changes served content moves
    /// it and with it every cache key. Only registration-time hashes are
    /// combined; no document bytes are touched per request.
    pub fn identity(&self) -> u64 {
        let Some(dtd_uri) = &self.dtd_uri else { return self.content_hash };
        // Mix with a distinct tag per case so "DTD registered",
        // "DTD referenced but missing", and "no DTD" all differ.
        let (tag, dtd_hash) = match &self.dtd {
            Some(d) => (0x01u8, d.content_hash),
            None => (0x02u8, fnv1a64(dtd_uri.as_bytes())),
        };
        let mut bytes = [0u8; 17];
        bytes[..8].copy_from_slice(&self.content_hash.to_le_bytes());
        bytes[8] = tag;
        bytes[9..].copy_from_slice(&dtd_hash.to_le_bytes());
        fnv1a64(&bytes)
    }

    /// The prepared form of this revision's DTD, or the error its text
    /// failed to parse with; `None` when the document names no DTD or
    /// one that is not registered.
    pub fn schema(&self) -> Option<&Result<Arc<PreparedSchema>, DtdError>> {
        self.dtd.as_deref().map(|d| &d.schema)
    }

    /// The processor's view of this revision: its text, its DTD as
    /// prepared when it was stored, and its validity memo. A DTD that
    /// failed to parse goes in as text, so the processor reports the
    /// same parse error every time.
    pub fn source(&self) -> DocumentSource<'_> {
        let dtd = self.dtd.as_deref();
        DocumentSource {
            xml: &self.xml,
            dtd: dtd.filter(|d| d.schema.is_err()).map(|d| d.text.as_str()),
            dtd_uri: self.dtd_uri.as_deref(),
            schema: dtd.and_then(|d| d.schema.as_deref().ok()),
            schema_valid: Some(&self.schema_valid),
        }
    }

    /// This revision parsed under `processor`'s XML limits and
    /// normalized against its DTD ([`SecurityProcessor::parse_source`]).
    /// The first caller parses and keeps the DOM, or the typed error the
    /// text failed with, for every later request on the revision; a
    /// cancelled parse is not kept, so the next request parses again.
    pub fn parsed(
        &self,
        processor: &SecurityProcessor,
        cancel: Option<&CancelToken>,
    ) -> Result<&ParsedDocument, ProcessError> {
        let memo = match self.parsed.get() {
            Some(memo) => memo,
            None => match processor.parse_source(&self.source(), cancel) {
                Err(e) if e.is_cancelled() => return Err(e),
                // A concurrent first request may have won; either parse
                // of the same text is the same.
                parsed => self.parsed.get_or_init(|| {
                    parsed.map(|source| ParsedDocument { source, schema_valid: None })
                }),
            },
        };
        memo.as_ref().map_err(Clone::clone)
    }

    /// The parsed form, when a request has parsed this revision or a
    /// commit created it.
    pub fn parsed_document(&self) -> Option<&ParsedDocument> {
        self.parsed.get()?.as_ref().ok()
    }

    /// The next revision of this document: `doc` — the committed DOM,
    /// already normalized — with its canonical bytes and their hash,
    /// bound to the same DTD. `doc` becomes the new revision's parse
    /// memo, so a committed revision is never parsed; its validity memo
    /// starts empty.
    ///
    /// The content hash is **byte-derived** — the same scheme
    /// [`Repository::put_document`] uses — so an updated document and a
    /// fresh server loading the committed bytes agree on the content
    /// identity (and therefore on entity tags: a client can revalidate
    /// against a restarted or replicated instance).
    pub fn next(&self, doc: Document) -> StoredDocument {
        let xml = xmlsec_xml::serialize(&doc, &xmlsec_xml::SerializeOptions::canonical());
        let next = StoredDocument::new(xml, self.dtd_uri.clone(), self.dtd.clone());
        let _ = next.parsed.set(Ok(ParsedDocument::new(doc)));
        next
    }
}

/// A stored DTD text with its registration-time content hash and its
/// prepared form (or the error it failed to parse with).
#[derive(Debug)]
struct StoredDtd {
    text: String,
    content_hash: u64,
    schema: Result<Arc<PreparedSchema>, DtdError>,
}

/// A document in parsed (and DTD-normalized) form: the parse memo of a
/// [`StoredDocument`] revision.
#[derive(Debug, Clone)]
pub struct ParsedDocument {
    source: ParsedSource,
    /// A validity flag for holders of a parsed form outside a
    /// repository; the server keeps its memo on the stored revision
    /// ([`StoredDocument::schema_valid`]).
    schema_valid: Option<bool>,
}

impl ParsedDocument {
    /// Wraps a freshly parsed (and normalized) document.
    pub fn new(doc: Document) -> ParsedDocument {
        ParsedDocument { source: ParsedSource::new(doc, None), schema_valid: None }
    }

    /// The parsed document.
    pub fn doc(&self) -> &Document {
        self.source.doc()
    }

    /// The document with the schema parsed along with it, as the
    /// processor renders from it.
    pub fn source(&self) -> &ParsedSource {
        &self.source
    }

    /// The recorded DTD-validity of this parsed form, if any.
    pub fn schema_valid(&self) -> Option<bool> {
        self.schema_valid
    }

    /// Records the DTD-validity of this parsed form.
    pub fn set_schema_valid(&mut self, valid: bool) {
        self.schema_valid = Some(valid);
    }
}

/// The repository: the current revision of every document and the DTD
/// texts, each keyed by URI.
#[derive(Debug, Clone, Default)]
pub struct Repository {
    documents: HashMap<String, Arc<StoredDocument>>,
    dtds: HashMap<String, Arc<StoredDtd>>,
}

impl Repository {
    /// An empty repository.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stores (or replaces) a document, rehashing its content. The new
    /// revision is parsed by the first request that needs its DOM.
    pub fn put_document(&mut self, uri: &str, xml: &str, dtd_uri: Option<&str>) {
        document_rehashes().inc();
        let dtd = dtd_uri.and_then(|u| self.dtds.get(u)).cloned();
        let stored = StoredDocument::new(xml.to_string(), dtd_uri.map(str::to_string), dtd);
        self.documents.insert(uri.to_string(), Arc::new(stored));
    }

    /// Stores (or replaces) a DTD text, rehashing its content and
    /// preparing it once for every request that will use it (see
    /// [`Repository::schema`]). Every instance document starts a new
    /// revision bound to it, with empty memos — normalization (attribute
    /// defaulting) bakes the DTD into the DOM, so it must be rebuilt
    /// against the new schema.
    pub fn put_dtd(&mut self, uri: &str, dtd: &str) {
        dtd_rehashes().inc();
        let schema = PreparedSchema::parse(dtd).map(Arc::new);
        let stored = Arc::new(StoredDtd {
            text: dtd.to_string(),
            content_hash: fnv1a64(dtd.as_bytes()),
            schema,
        });
        for d in self.documents.values_mut() {
            if d.dtd_uri.as_deref() == Some(uri) {
                let (xml, dtd_uri) = (d.xml.clone(), d.dtd_uri.clone());
                *d = Arc::new(StoredDocument::new(xml, dtd_uri, Some(Arc::clone(&stored))));
            }
        }
        self.dtds.insert(uri.to_string(), stored);
    }

    /// The current revision of `uri`, shared: it stays readable, and
    /// unchanged, however long the caller keeps it.
    pub fn revision(&self, uri: &str) -> Option<Arc<StoredDocument>> {
        self.documents.get(uri).cloned()
    }

    /// Publishes `next` as `uri`'s current revision by swapping the
    /// record's `Arc`. Returns `false`, installing nothing, when `uri`
    /// has no stored document.
    pub fn install(&mut self, uri: &str, next: Arc<StoredDocument>) -> bool {
        self.documents.get_mut(uri).map(|current| *current = next).is_some()
    }

    /// The parsed form of `uri`'s current revision, once a request has
    /// parsed it or a commit created it.
    pub fn parsed_document(&self, uri: &str) -> Option<&ParsedDocument> {
        self.documents.get(uri)?.parsed_document()
    }

    /// Mutable access to the parsed form of `uri` (for recording its
    /// validity); copies the revision first if anyone else holds it.
    pub fn parsed_document_mut(&mut self, uri: &str) -> Option<&mut ParsedDocument> {
        let revision = Arc::make_mut(self.documents.get_mut(uri)?);
        revision.parsed.get_mut()?.as_mut().ok()
    }

    /// Sets the parse memo of `uri`'s current revision to an
    /// already-parsed (normalized) form of its text; a no-op when `uri`
    /// has no stored document. No effect on the bytes, their hash or the
    /// validity memo.
    pub fn store_parsed(&mut self, uri: &str, parsed: ParsedDocument) {
        if let Some(d) = self.documents.get_mut(uri) {
            Arc::make_mut(d).parsed = OnceLock::from(Ok(parsed));
        }
    }

    /// Commits `doc` as the next revision of `uri`
    /// ([`StoredDocument::next`], then [`Repository::install`]): new
    /// bytes, a content hash recomputed from them so every cache key for
    /// the old revision is structurally unreachable, `doc` as the parsed
    /// form and an empty validity memo. `_dirty` (the batch's mutated
    /// subtree roots) is not read.
    ///
    /// Returns `false`, committing nothing, when `uri` has no stored
    /// document or its revision was never parsed (callers establish both
    /// first).
    pub fn commit_update(&mut self, uri: &str, doc: Document, _dirty: &[NodeId]) -> bool {
        let current = self.documents.get(uri).filter(|d| d.parsed_document().is_some());
        let next = current.map(|d| Arc::new(d.next(doc)));
        next.is_some_and(|next| self.install(uri, next))
    }

    /// Fetches a document's current revision.
    pub fn document(&self, uri: &str) -> Option<&StoredDocument> {
        self.documents.get(uri).map(|d| &**d)
    }

    /// Fetches a DTD text.
    pub fn dtd(&self, uri: &str) -> Option<&str> {
        self.dtds.get(uri).map(|d| d.text.as_str())
    }

    /// The prepared form of a stored DTD, or the error its text failed
    /// to parse with when it was stored.
    pub fn schema(&self, uri: &str) -> Option<&Result<Arc<PreparedSchema>, DtdError>> {
        self.dtds.get(uri).map(|d| &d.schema)
    }

    /// The combined content identity of a document's current revision
    /// ([`StoredDocument::identity`]).
    pub fn content_hash(&self, uri: &str) -> Option<u64> {
        self.documents.get(uri).map(|d| d.identity())
    }

    /// URIs of every document that is an instance of `dtd_uri` — the
    /// sweep set for schema-level invalidation.
    pub fn documents_with_dtd(&self, dtd_uri: &str) -> Vec<String> {
        self.documents
            .iter()
            .filter(|(_, d)| d.dtd_uri.as_deref() == Some(dtd_uri))
            .map(|(uri, _)| uri.clone())
            .collect()
    }

    /// Number of stored documents.
    pub fn len(&self) -> usize {
        self.documents.len()
    }

    /// `true` when no documents are stored.
    pub fn is_empty(&self) -> bool {
        self.documents.is_empty()
    }

    /// All document URIs.
    pub fn document_uris(&self) -> impl Iterator<Item = &str> {
        self.documents.keys().map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_and_get() {
        let mut r = Repository::new();
        r.put_dtd("lab.dtd", "<!ELEMENT lab EMPTY>");
        r.put_document("lab.xml", "<lab/>", Some("lab.dtd"));
        assert_eq!(r.len(), 1);
        let d = r.document("lab.xml").unwrap();
        assert_eq!(d.xml, "<lab/>");
        assert_eq!(d.dtd_uri.as_deref(), Some("lab.dtd"));
        assert_eq!(r.dtd("lab.dtd"), Some("<!ELEMENT lab EMPTY>"));
        assert!(r.document("other.xml").is_none());
        assert!(r.dtd("other.dtd").is_none());
    }

    #[test]
    fn replace_overwrites() {
        let mut r = Repository::new();
        r.put_document("a.xml", "<a/>", None);
        r.put_document("a.xml", "<a>v2</a>", None);
        assert_eq!(r.document("a.xml").unwrap().xml, "<a>v2</a>");
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn uris_enumerable() {
        let mut r = Repository::new();
        r.put_document("a.xml", "<a/>", None);
        r.put_document("b.xml", "<b/>", None);
        let mut uris: Vec<_> = r.document_uris().collect();
        uris.sort_unstable();
        assert_eq!(uris, vec!["a.xml", "b.xml"]);
    }

    #[test]
    fn content_hash_tracks_document_bytes() {
        let mut r = Repository::new();
        r.put_document("a.xml", "<a/>", None);
        let h1 = r.content_hash("a.xml").unwrap();
        assert_eq!(h1, r.content_hash("a.xml").unwrap(), "hash is stable");
        r.put_document("a.xml", "<a>v2</a>", None);
        assert_ne!(h1, r.content_hash("a.xml").unwrap(), "new bytes, new hash");
        r.put_document("a.xml", "<a/>", None);
        assert_eq!(h1, r.content_hash("a.xml").unwrap(), "same bytes, same hash");
        assert!(r.content_hash("missing.xml").is_none());
    }

    #[test]
    fn content_hash_folds_in_the_dtd() {
        let mut r = Repository::new();
        r.put_dtd("d.dtd", "<!ELEMENT d EMPTY>");
        r.put_document("plain.xml", "<d/>", None);
        r.put_document("typed.xml", "<d/>", Some("d.dtd"));
        let plain = r.content_hash("plain.xml").unwrap();
        let typed = r.content_hash("typed.xml").unwrap();
        assert_ne!(plain, typed, "DTD association is part of the identity");
        // Replacing the DTD repoints every conforming document's hash.
        r.put_dtd("d.dtd", "<!ELEMENT d (#PCDATA)>");
        assert_ne!(typed, r.content_hash("typed.xml").unwrap());
        assert_eq!(plain, r.content_hash("plain.xml").unwrap(), "unrelated doc untouched");
        // A referenced-but-unregistered DTD is distinct from both.
        r.put_document("dangling.xml", "<d/>", Some("ghost.dtd"));
        let dangling = r.content_hash("dangling.xml").unwrap();
        assert_ne!(dangling, plain);
    }

    #[test]
    fn documents_with_dtd_resolves_the_sweep_set() {
        let mut r = Repository::new();
        r.put_dtd("d.dtd", "<!ELEMENT d EMPTY>");
        r.put_document("a.xml", "<d/>", Some("d.dtd"));
        r.put_document("b.xml", "<d/>", Some("d.dtd"));
        r.put_document("c.xml", "<c/>", None);
        let mut hit = r.documents_with_dtd("d.dtd");
        hit.sort_unstable();
        assert_eq!(hit, vec!["a.xml", "b.xml"]);
        assert!(r.documents_with_dtd("other.dtd").is_empty());
    }

    #[test]
    fn commit_update_repoints_bytes_and_hash() {
        let mut r = Repository::new();
        r.put_document("a.xml", "<doc><a>old</a></doc>", None);
        let h0 = r.content_hash("a.xml").unwrap();
        let doc = xmlsec_xml::parse(&r.document("a.xml").unwrap().xml).unwrap();
        r.store_parsed("a.xml", ParsedDocument::new(doc.clone()));

        let mut updated = doc;
        let a = updated.child_elements(updated.root()).next().unwrap();
        let t = updated.children(a)[0];
        updated.remove_subtree(t);
        updated.append_text(a, "new");
        assert!(r.commit_update("a.xml", updated, &[a]));
        assert_eq!(r.document("a.xml").unwrap().xml, "<doc><a>new</a></doc>");
        assert_ne!(r.content_hash("a.xml").unwrap(), h0);
        // The published identity is the one a fresh load of the bytes gets.
        let mut fresh = Repository::new();
        fresh.put_document("a.xml", "<doc><a>new</a></doc>", None);
        assert_eq!(r.content_hash("a.xml"), fresh.content_hash("a.xml"));
        // The committed DOM stays as the parsed form for the next update.
        let parsed = r.parsed_document("a.xml").unwrap().doc();
        let canonical = xmlsec_xml::SerializeOptions::canonical();
        assert_eq!(xmlsec_xml::serialize(parsed, &canonical), "<doc><a>new</a></doc>");
    }

    #[test]
    fn a_held_revision_is_unchanged_by_a_commit() {
        let mut r = Repository::new();
        r.put_dtd("d.dtd", "<!ELEMENT doc (#PCDATA)>");
        r.put_document("a.xml", "<doc>x</doc>", Some("d.dtd"));
        let p = SecurityProcessor::default();
        let held = r.revision("a.xml").unwrap();
        let doc = held.parsed(&p, None).unwrap().doc().clone();
        held.schema_valid().set(true).unwrap();

        let mut updated = doc;
        let root = updated.root();
        let t = updated.children(root)[0];
        updated.remove_subtree(t);
        updated.append_text(root, "y");
        let next = held.next(updated);
        assert_eq!(next.xml, "<doc>y</doc>");
        assert_eq!(next.schema_valid().get(), None, "a new revision starts unchecked");
        let canonical = xmlsec_xml::SerializeOptions::canonical();
        let dom = next.parsed_document().expect("the commit's DOM is the parse memo").doc();
        assert_eq!(xmlsec_xml::serialize(dom, &canonical), "<doc>y</doc>");
        assert_eq!(r.document("a.xml").unwrap().xml, "<doc>x</doc>", "nothing installed yet");

        let promised = next.identity();
        assert!(r.install("a.xml", Arc::new(next)));
        assert_eq!(r.document("a.xml").unwrap().xml, "<doc>y</doc>");
        assert_eq!(r.content_hash("a.xml"), Some(promised), "the identity is the one promised");
        // The reader's revision is the one it took, memos and all.
        assert_eq!(held.xml, "<doc>x</doc>");
        assert_eq!(held.schema_valid().get(), Some(&true));
        assert_eq!(
            xmlsec_xml::serialize(held.parsed(&p, None).unwrap().doc(), &canonical),
            "<doc>x</doc>"
        );
        assert!(!r.install("ghost.xml", held), "no record to swap");
    }

    #[test]
    fn the_parse_memo_keeps_the_dom_or_the_error_but_never_a_cancellation() {
        let mut r = Repository::new();
        r.put_dtd("d.dtd", "<!ELEMENT doc EMPTY>\n<!ATTLIST doc v CDATA 'dflt'>");
        r.put_document("a.xml", "<doc/>", Some("d.dtd"));
        r.put_document("bad.xml", "<doc><open>", Some("d.dtd"));
        let p = SecurityProcessor::default();
        let a = r.revision("a.xml").unwrap();

        let token = CancelToken::never();
        token.cancel();
        let err = a.parsed(&p, Some(&token)).unwrap_err();
        assert!(err.is_cancelled(), "{err:?}");
        assert!(a.parsed_document().is_none(), "a cancelled parse is not kept");

        let first = a.parsed(&p, None).unwrap() as *const ParsedDocument;
        assert!(std::ptr::eq(first, a.parsed(&p, None).unwrap()), "parsed once, then shared");
        let doc = a.parsed_document().unwrap().doc();
        assert_eq!(doc.attribute(doc.root(), "v"), Some("dflt"), "normalized against the DTD");

        let bad = r.revision("bad.xml").unwrap();
        let err = bad.parsed(&p, None).unwrap_err();
        assert!(matches!(err, ProcessError::Xml(_)), "{err:?}");
        assert_eq!(bad.parsed(&p, None).unwrap_err(), err, "the same typed error every time");
        assert!(bad.parsed_document().is_none());
    }

    #[test]
    fn byte_level_puts_invalidate_the_parsed_form() {
        let mut r = Repository::new();
        r.put_dtd("d.dtd", "<!ELEMENT doc EMPTY>");
        r.put_document("a.xml", "<doc/>", Some("d.dtd"));
        r.put_document("b.xml", "<doc/>", None);
        let pa = ParsedDocument::new(xmlsec_xml::parse("<doc/>").unwrap());
        let pb = ParsedDocument::new(xmlsec_xml::parse("<doc/>").unwrap());
        r.store_parsed("a.xml", pa);
        r.store_parsed("b.xml", pb);

        // put_document drops only that document's parsed form.
        r.put_document("b.xml", "<doc>v2</doc>", None);
        assert!(r.parsed_document("b.xml").is_none());
        assert!(r.parsed_document("a.xml").is_some());
        // put_dtd drops the parsed form of every instance document.
        r.put_dtd("d.dtd", "<!ELEMENT doc (#PCDATA)>");
        assert!(r.parsed_document("a.xml").is_none());
        // commit_update without a parsed form is refused.
        assert!(!r.commit_update("a.xml", xmlsec_xml::parse("<doc/>").unwrap(), &[]));
        // A parsed form needs a stored record to live in.
        r.store_parsed("ghost.xml", ParsedDocument::new(xmlsec_xml::parse("<doc/>").unwrap()));
        assert!(r.parsed_document("ghost.xml").is_none());
        assert!(r.document("ghost.xml").is_none());
        assert!(!r.commit_update("ghost.xml", xmlsec_xml::parse("<doc/>").unwrap(), &[]));
    }

    #[test]
    fn validity_memo_resets_on_every_new_revision() {
        let mut r = Repository::new();
        r.put_dtd("d.dtd", "<!ELEMENT doc (#PCDATA)>");
        r.put_document("a.xml", "<doc>x</doc>", Some("d.dtd"));
        r.put_document("b.xml", "<doc>y</doc>", None);
        let memo =
            |r: &Repository, uri: &str| r.document(uri).unwrap().schema_valid().get().copied();
        let fill = |r: &Repository| {
            for uri in ["a.xml", "b.xml"] {
                r.document(uri).unwrap().schema_valid().set(true).unwrap();
            }
        };
        assert_eq!(memo(&r, "a.xml"), None, "a new revision starts unchecked");

        fill(&r);
        r.put_dtd("d.dtd", "<!ELEMENT doc EMPTY>");
        assert_eq!(memo(&r, "a.xml"), None, "put_dtd resets its instance documents");
        assert_eq!(memo(&r, "b.xml"), Some(true), "and no other document");

        r.put_document("b.xml", "<doc>z</doc>", None);
        assert_eq!(memo(&r, "b.xml"), None, "put_document starts a new revision");

        fill(&r);
        let doc = xmlsec_xml::parse("<doc>x</doc>").unwrap();
        r.store_parsed("a.xml", ParsedDocument::new(doc.clone()));
        assert_eq!(memo(&r, "a.xml"), Some(true), "caching a parsed form changes nothing");
        assert!(r.commit_update("a.xml", doc, &[]));
        assert_eq!(memo(&r, "a.xml"), None, "a commit starts a new revision");
    }

    #[test]
    fn dtds_are_prepared_once_when_stored() {
        let mut r = Repository::new();
        r.put_dtd("d.dtd", "<!ELEMENT doc (#PCDATA)>");
        r.put_dtd("bad.dtd", "<!ELEMENT");
        let good = r.schema("d.dtd").unwrap().as_ref().unwrap();
        assert_eq!(good.dtd(), &xmlsec_dtd::parse_dtd("<!ELEMENT doc (#PCDATA)>").unwrap());
        let err = r.schema("bad.dtd").unwrap().as_ref().unwrap_err();
        assert_eq!(err, &xmlsec_dtd::parse_dtd("<!ELEMENT").unwrap_err());
        assert_eq!(r.dtd("bad.dtd"), Some("<!ELEMENT"), "the text is kept as stored");
        assert!(r.schema("missing.dtd").is_none());
    }

    #[test]
    fn fnv1a64_is_the_published_function() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }
}
