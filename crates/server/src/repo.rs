//! In-memory document repository: the server-side store of XML documents,
//! their DTDs, and the URI association between them (paper §7's usage
//! scenario: "a user requesting a set of XML documents from a remote
//! site").
//!
//! Each document is one [`StoredDocument`] record: its bytes, their
//! content hash, the validity memo of the current revision and, once the
//! update path has parsed it, its parsed form. Every stored document and
//! DTD carries a **content hash**, computed once on registration,
//! replacement or commit — never per request. The view cache folds
//! [`Repository::content_hash`] into its key, so a content change
//! *necessarily* repoints every cache lookup for that document:
//! explicit invalidation becomes hygiene (it reclaims space early)
//! rather than a correctness requirement. Registrations are counted in
//! the `xmlsec_repo_rehash_total{kind}` telemetry series.
//!
//! A commit has two halves. [`Repository::prepare_commit`] serializes
//! and hashes the updated DOM into a [`Revision`] under a shared borrow;
//! [`Repository::publish`] only moves that revision into the record. A
//! server can therefore keep its readers on the current revision for all
//! of a commit's work and exclude them only for the install.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use xmlsec_core::PreparedSchema;
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

/// A stored XML document: the one record the repository keeps per URI.
#[derive(Debug, Clone)]
pub struct StoredDocument {
    /// The document text as served.
    pub xml: String,
    /// URI of the DTD this document is an instance of, if any.
    pub dtd_uri: Option<String>,
    /// FNV-1a hash of `xml`, computed when the document was stored.
    pub content_hash: u64,
    /// Memoized validity of this revision against its DTD.
    schema_valid: OnceLock<bool>,
    /// The parsed, normalized form of this revision, once the update
    /// path has built it (see [`Repository::store_parsed`]).
    parsed: Option<ParsedDocument>,
}

impl StoredDocument {
    /// The memoized validity of this revision against its DTD, empty
    /// until first checked. Readers fill it in (through the processor's
    /// [`xmlsec_core::DocumentSource::schema_valid`]) as well as the
    /// update pre-flight, so the document is validated at most once per
    /// revision. [`Repository::put_document`], a [`Repository::put_dtd`]
    /// of its DTD and [`Repository::commit_update`] reset it.
    pub fn schema_valid(&self) -> &OnceLock<bool> {
        &self.schema_valid
    }
}

/// A stored DTD text with its registration-time content hash and its
/// prepared form (or the error it failed to parse with).
#[derive(Debug, Clone)]
struct StoredDtd {
    text: String,
    content_hash: u64,
    schema: Result<Arc<PreparedSchema>, DtdError>,
}

/// A document in parsed (and DTD-normalized) form, kept in its
/// [`StoredDocument`] record so the update path never reparses: writes
/// apply to a clone of this DOM and [`Repository::commit_update`]
/// installs the result.
#[derive(Debug, Clone)]
pub struct ParsedDocument {
    doc: Document,
    /// A validity flag for holders of a parsed form outside a
    /// repository; the server keeps its memo on the stored revision
    /// ([`StoredDocument::schema_valid`]).
    schema_valid: Option<bool>,
}

impl ParsedDocument {
    /// Wraps a freshly parsed (and normalized) document.
    pub fn new(doc: Document) -> ParsedDocument {
        ParsedDocument { doc, schema_valid: None }
    }

    /// The parsed document.
    pub fn doc(&self) -> &Document {
        &self.doc
    }

    /// The recorded DTD-validity of this parsed form, if any (a commit
    /// installs a new parsed form with none recorded).
    pub fn schema_valid(&self) -> Option<bool> {
        self.schema_valid
    }

    /// Records the DTD-validity of this parsed form.
    pub fn set_schema_valid(&mut self, valid: bool) {
        self.schema_valid = Some(valid);
    }
}

/// The bytes and DOM of a revision that [`Repository::publish`]
/// replaced. Dropping it frees thousands of allocations, so a caller
/// holding the repository's lock drops it after releasing the lock.
#[derive(Debug)]
#[must_use = "drop the replaced revision once no lock is held"]
pub struct Replaced {
    _xml: String,
    _parsed: Option<ParsedDocument>,
}

/// The next revision of a stored document, built by
/// [`Repository::prepare_commit`] and installed by
/// [`Repository::publish`]: the updated DOM, its canonical bytes, their
/// hash, and a validity memo the committer may fill in before
/// publishing.
#[derive(Debug)]
pub struct Revision {
    doc: Document,
    xml: String,
    hash: u64,
    content: u64,
    schema_valid: OnceLock<bool>,
}

impl Revision {
    /// The updated DOM the revision was built from.
    pub fn doc(&self) -> &Document {
        &self.doc
    }

    /// The revision's combined content identity: what
    /// [`Repository::content_hash`] answers once it is published.
    pub fn content_hash(&self) -> u64 {
        self.content
    }

    /// The revision's validity memo, carried into the record on publish
    /// (see [`StoredDocument::schema_valid`]).
    pub fn schema_valid(&self) -> &OnceLock<bool> {
        &self.schema_valid
    }
}

/// The repository: one record per document and the DTD texts, each
/// keyed by URI.
#[derive(Debug, Clone, Default)]
pub struct Repository {
    documents: HashMap<String, StoredDocument>,
    dtds: HashMap<String, StoredDtd>,
}

impl Repository {
    /// An empty repository.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stores (or replaces) a document, rehashing its content. The new
    /// record has no parsed form — the bytes are the source of truth and
    /// the next update reparses them.
    pub fn put_document(&mut self, uri: &str, xml: &str, dtd_uri: Option<&str>) {
        document_rehashes().inc();
        self.documents.insert(
            uri.to_string(),
            StoredDocument {
                xml: xml.to_string(),
                dtd_uri: dtd_uri.map(str::to_string),
                content_hash: fnv1a64(xml.as_bytes()),
                schema_valid: OnceLock::new(),
                parsed: None,
            },
        );
    }

    /// Stores (or replaces) a DTD text, rehashing its content and
    /// preparing it once for every request that will use it (see
    /// [`Repository::schema`]). Parsed forms of every instance document
    /// are dropped — normalization (attribute defaulting) bakes the DTD
    /// into the DOM, so they must be rebuilt against the new schema —
    /// and so are their validity memos.
    pub fn put_dtd(&mut self, uri: &str, dtd: &str) {
        dtd_rehashes().inc();
        for d in self.documents.values_mut() {
            if d.dtd_uri.as_deref() == Some(uri) {
                d.parsed = None;
                d.schema_valid = OnceLock::new();
            }
        }
        let schema = PreparedSchema::parse(dtd).map(Arc::new);
        self.dtds.insert(
            uri.to_string(),
            StoredDtd { text: dtd.to_string(), content_hash: fnv1a64(dtd.as_bytes()), schema },
        );
    }

    /// The parsed form of `uri`, when one is held (populated by the
    /// update path via [`Repository::store_parsed`]).
    pub fn parsed_document(&self, uri: &str) -> Option<&ParsedDocument> {
        self.documents.get(uri)?.parsed.as_ref()
    }

    /// Mutable access to the parsed form of `uri` (for memoizing the
    /// validity of the current revision).
    pub fn parsed_document_mut(&mut self, uri: &str) -> Option<&mut ParsedDocument> {
        self.documents.get_mut(uri)?.parsed.as_mut()
    }

    /// Caches the parsed (normalized) form of an already-stored
    /// document; a no-op when `uri` has no stored document. No effect on
    /// the byte form, its hash or its validity memo: the parsed form
    /// only becomes the content authority once
    /// [`Repository::commit_update`] runs.
    pub fn store_parsed(&mut self, uri: &str, parsed: ParsedDocument) {
        if let Some(d) = self.documents.get_mut(uri) {
            d.parsed = Some(parsed);
        }
    }

    /// Commits an updated revision of `uri`'s parsed document:
    /// [`Repository::prepare_commit`] then [`Repository::publish`]. It
    /// installs `doc` as the record's parsed form, refreshes the served
    /// bytes from it, recomputes the content hash from those bytes so
    /// every cache key for the old revision is structurally unreachable,
    /// and resets the revision's validity memo. `_dirty` (the batch's
    /// mutated subtree roots) is not read.
    ///
    /// Returns `false`, committing nothing, when `uri` has no stored
    /// document or no parsed form (callers establish both first).
    pub fn commit_update(&mut self, uri: &str, doc: Document, _dirty: &[NodeId]) -> bool {
        match self.prepare_commit(uri, doc) {
            Some(revision) => self.publish(uri, revision).is_some(),
            None => false,
        }
    }

    /// Builds the next revision of `uri` from its updated parsed form
    /// without changing the repository: serializes `doc` canonically and
    /// hashes those bytes. This is the expensive half of a commit, and it
    /// needs only a shared borrow, so readers keep serving the current
    /// revision while it runs.
    ///
    /// The content hash is **byte-derived** — the same scheme
    /// [`Repository::put_document`] uses — so an updated document and a
    /// fresh server loading the committed bytes agree on the content
    /// identity (and therefore on entity tags: a client can revalidate
    /// against a restarted or replicated instance).
    ///
    /// Returns `None` when `uri` has no stored document or no parsed
    /// form.
    pub fn prepare_commit(&self, uri: &str, doc: Document) -> Option<Revision> {
        let stored = self.documents.get(uri).filter(|d| d.parsed.is_some())?;
        let xml = xmlsec_xml::serialize(&doc, &xmlsec_xml::SerializeOptions::canonical());
        let hash = fnv1a64(xml.as_bytes());
        let content = self.identity(hash, stored.dtd_uri.as_deref());
        Some(Revision { doc, xml, hash, content, schema_valid: OnceLock::new() })
    }

    /// Installs a revision built by [`Repository::prepare_commit`] as
    /// `uri`'s record: its DOM, bytes, hash and validity memo. Nothing is
    /// recomputed, so the record must not have changed since the
    /// revision was prepared. Returns the replaced bytes and DOM, or
    /// `None`, installing nothing, when `uri` has no stored document or
    /// no parsed form.
    pub fn publish(&mut self, uri: &str, revision: Revision) -> Option<Replaced> {
        let stored = self.documents.get_mut(uri).filter(|d| d.parsed.is_some())?;
        let Revision { doc, xml, hash, schema_valid, .. } = revision;
        stored.content_hash = hash;
        stored.schema_valid = schema_valid;
        Some(Replaced {
            _xml: std::mem::replace(&mut stored.xml, xml),
            _parsed: stored.parsed.replace(ParsedDocument::new(doc)),
        })
    }

    /// Fetches a document.
    pub fn document(&self, uri: &str) -> Option<&StoredDocument> {
        self.documents.get(uri)
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

    /// The registration-time content hash of a stored DTD.
    pub fn dtd_hash(&self, uri: &str) -> Option<u64> {
        self.dtds.get(uri).map(|d| d.content_hash)
    }

    /// The combined content identity of a document: its own bytes plus
    /// the bytes of the DTD it is an instance of. Folding this into the
    /// view-cache key makes a stale view structurally unreachable — any
    /// `put_document`/`put_dtd` that changes served content moves the
    /// hash and with it every cache key. Only registration-time hashes
    /// are combined here; no document bytes are touched per request.
    pub fn content_hash(&self, uri: &str) -> Option<u64> {
        let doc = self.documents.get(uri)?;
        Some(self.identity(doc.content_hash, doc.dtd_uri.as_deref()))
    }

    /// Folds a document's byte hash with the hash of the DTD it names.
    fn identity(&self, doc_hash: u64, dtd_uri: Option<&str>) -> u64 {
        let Some(dtd_uri) = dtd_uri else { return doc_hash };
        // Mix with a distinct tag per case so "DTD registered",
        // "DTD referenced but missing", and "no DTD" all differ.
        let (tag, dtd_hash) = match self.dtds.get(dtd_uri) {
            Some(d) => (0x01u8, d.content_hash),
            None => (0x02u8, fnv1a64(dtd_uri.as_bytes())),
        };
        let mut bytes = [0u8; 17];
        bytes[..8].copy_from_slice(&doc_hash.to_le_bytes());
        bytes[8] = tag;
        bytes[9..].copy_from_slice(&dtd_hash.to_le_bytes());
        fnv1a64(&bytes)
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
    fn prepared_revisions_change_nothing_until_published() {
        let mut r = Repository::new();
        r.put_dtd("d.dtd", "<!ELEMENT doc (#PCDATA)>");
        r.put_document("a.xml", "<doc>x</doc>", Some("d.dtd"));
        let doc = xmlsec_xml::parse("<doc>x</doc>").unwrap();
        assert!(r.prepare_commit("a.xml", doc.clone()).is_none(), "no parsed form yet");
        r.store_parsed("a.xml", ParsedDocument::new(doc));
        let h0 = r.content_hash("a.xml");

        let revision = r.prepare_commit("a.xml", xmlsec_xml::parse("<doc>y</doc>").unwrap());
        let revision = revision.unwrap();
        revision.schema_valid().set(true).unwrap();
        assert_eq!(r.document("a.xml").unwrap().xml, "<doc>x</doc>");
        assert_eq!(r.content_hash("a.xml"), h0, "readers still see the old revision");

        let promised = revision.content_hash();
        assert!(r.publish("a.xml", revision).is_some());
        assert_eq!(r.document("a.xml").unwrap().xml, "<doc>y</doc>");
        assert_eq!(r.content_hash("a.xml"), Some(promised), "the identity is the one promised");
        assert_eq!(r.document("a.xml").unwrap().schema_valid().get(), Some(&true));
        assert_eq!(
            xmlsec_xml::serialize(
                r.parsed_document("a.xml").unwrap().doc(),
                &xmlsec_xml::SerializeOptions::canonical()
            ),
            "<doc>y</doc>"
        );
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
