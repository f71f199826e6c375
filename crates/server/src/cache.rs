//! View cache.
//!
//! The processor's output depends only on `(document, DTD, policy,
//! applicable authorization sets)` — not on the requester identity
//! itself. Requesters covered by the same authorizations therefore share
//! a view, and caching by *authorization fingerprint* collapses, e.g.,
//! every anonymous `Public` reader of a popular document into one entry.
//! This is the server-side optimization the paper's on-line scenario
//! invites; the `server` bench measures its effect.
//!
//! Keys are **content-addressed**: alongside the authorization
//! fingerprint, [`ViewKey`] carries the repository's content hash of the
//! document and its DTD ([`crate::repo::Repository::content_hash`]).
//! Any content change — an update batch, a direct `put_document`, a DTD
//! replacement — moves the hash, so lookups for the new content miss
//! *structurally*, whether or not anyone remembered to call
//! [`ViewCache::invalidate_uri`]. Explicit invalidation remains useful
//! as hygiene: it reclaims the space early. Entries left behind by a
//! content change are additionally swept lazily: a miss drops any entry
//! with the same `(uri, fingerprint)` but an outdated content hash and
//! counts it in `xmlsec_view_cache_stale_rejected_total`.
//!
//! Cache traffic is mirrored into the global telemetry registry
//! (`xmlsec_view_cache_{hits,misses,evictions,stale_rejected}_total`
//! and the `xmlsec_view_cache_entries` gauge) so `/metrics` and the CLI
//! `stats` command see it without asking the server for its internal
//! counters. The gauge is maintained by *deltas*, so several live
//! caches sum into it instead of clobbering each other's `set` calls.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, OnceLock};
use xmlsec_authz::Authorization;
use xmlsec_telemetry as telemetry;

/// Key ingredients for one cached view.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ViewKey {
    /// Document URI.
    pub uri: String,
    /// Content fingerprint of the applicable instance + schema
    /// authorization sets and the policy (see [`fingerprint`]).
    pub fingerprint: u64,
    /// Content hash of the document and its DTD as registered in the
    /// repository (see `Repository::content_hash`). Computed on
    /// registration/update — never per request — and folded in here so
    /// a content change can never be answered with a stale view.
    pub content: u64,
}

/// Builds the fingerprint from the applicable authorizations'
/// **content** (sorted, so list order is irrelevant) and the policy tag.
///
/// Hashing content rather than indices into the per-URI lists means an
/// in-place mutation of an authorization — its sign, type, subject, or
/// object — necessarily changes the fingerprint: a stale view can never
/// be served after a policy edit, even one that bypasses the
/// grant/revoke invalidation hooks.
pub fn fingerprint(instance: &[&Authorization], schema: &[&Authorization], policy_tag: u8) -> u64 {
    fn feed(h: &mut DefaultHasher, set: &[&Authorization]) {
        let mut rendered: Vec<String> = set.iter().map(|a| a.to_string()).collect();
        rendered.sort();
        rendered.hash(h);
    }
    let mut h = DefaultHasher::new();
    policy_tag.hash(&mut h);
    feed(&mut h, instance);
    0xffff_usize.hash(&mut h); // separator
    feed(&mut h, schema);
    h.finish()
}

/// A cached processor output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CachedView {
    /// The unparsed view.
    pub xml: String,
    /// The loosened DTD, when the document has one.
    pub loosened_dtd: Option<String>,
    /// Strong entity tag over `(key, view bytes)`, precomputed so cache
    /// hits (and 304 short-circuits) never rehash the view.
    pub etag: String,
}

struct CacheMetrics {
    hits: Arc<telemetry::Counter>,
    misses: Arc<telemetry::Counter>,
    evictions: Arc<telemetry::Counter>,
    stale_rejected: Arc<telemetry::Counter>,
    entries: Arc<telemetry::Gauge>,
}

fn cache_metrics() -> &'static CacheMetrics {
    static METRICS: OnceLock<CacheMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = telemetry::global();
        CacheMetrics {
            hits: reg.counter(
                "xmlsec_view_cache_hits_total",
                "View-cache lookups answered from a cached view.",
                &[],
            ),
            misses: reg.counter(
                "xmlsec_view_cache_misses_total",
                "View-cache lookups that required a full pipeline run.",
                &[],
            ),
            evictions: reg.counter(
                "xmlsec_view_cache_evictions_total",
                "Cached views dropped to stay within capacity.",
                &[],
            ),
            stale_rejected: reg.counter(
                "xmlsec_view_cache_stale_rejected_total",
                "Cached views dropped because their content hash no longer \
                 matches the repository (lazily swept on a miss).",
                &[],
            ),
            entries: reg.gauge(
                "xmlsec_view_cache_entries",
                "Views currently held across all live caches.",
                &[],
            ),
        }
    })
}

/// Thread-safe view cache with hit/miss counters.
#[derive(Debug, Default)]
pub struct ViewCache {
    inner: Mutex<CacheInner>,
    /// Maximum entries before insertion evicts (None = unbounded).
    capacity: Option<usize>,
}

#[derive(Debug, Default)]
struct CacheInner {
    map: HashMap<ViewKey, CachedView>,
    /// Insertion order, oldest first, for FIFO eviction. Every removal
    /// path (invalidation, stale sweep, eviction, clear) also drops the
    /// key here, so `order.len() == map.len()` is an invariant — churn
    /// cannot grow it without bound.
    order: Vec<ViewKey>,
    hits: u64,
    misses: u64,
    evictions: u64,
    stale_rejected: u64,
}

impl ViewCache {
    /// An empty, unbounded cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache that evicts oldest-inserted views past `capacity`.
    pub fn with_capacity(capacity: usize) -> Self {
        ViewCache { inner: Mutex::new(CacheInner::default()), capacity: Some(capacity) }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, CacheInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Looks up a view, counting the hit/miss. A miss also sweeps
    /// entries for the same `(uri, fingerprint)` whose content hash
    /// differs — those are views of bytes the repository no longer
    /// holds, unreachable by any future lookup.
    pub fn get(&self, key: &ViewKey) -> Option<CachedView> {
        let mut inner = self.lock();
        match inner.map.get(key).cloned() {
            Some(v) => {
                inner.hits += 1;
                cache_metrics().hits.inc();
                Some(v)
            }
            None => {
                inner.misses += 1;
                cache_metrics().misses.inc();
                let before = inner.map.len();
                inner.map.retain(|k, _| {
                    !(k.uri == key.uri
                        && k.fingerprint == key.fingerprint
                        && k.content != key.content)
                });
                let stale = before - inner.map.len();
                if stale > 0 {
                    inner.stale_rejected += stale as u64;
                    let m = cache_metrics();
                    m.stale_rejected.add(stale as u64);
                    m.entries.add(-(stale as i64));
                    let CacheInner { map, order, .. } = &mut *inner;
                    order.retain(|k| map.contains_key(k));
                }
                None
            }
        }
    }

    /// Looks up a view for a caller that will not compute it on a miss
    /// (every request's probe): a hit is counted, a miss is neither
    /// counted nor swept, so a request that goes on to compute counts
    /// its miss once, in [`ViewCache::get`].
    pub(crate) fn get_cached(&self, key: &ViewKey) -> Option<CachedView> {
        let mut inner = self.lock();
        let view = inner.map.get(key).cloned()?;
        inner.hits += 1;
        cache_metrics().hits.inc();
        Some(view)
    }

    /// Stores a view, evicting the oldest entries if over capacity.
    pub fn put(&self, key: ViewKey, view: CachedView) {
        let mut inner = self.lock();
        if inner.map.insert(key.clone(), view).is_none() {
            inner.order.push(key);
            cache_metrics().entries.add(1);
        }
        if let Some(cap) = self.capacity {
            let mut cursor = 0;
            while inner.map.len() > cap && cursor < inner.order.len() {
                let victim = inner.order[cursor].clone();
                cursor += 1;
                if inner.map.remove(&victim).is_some() {
                    inner.evictions += 1;
                    let m = cache_metrics();
                    m.evictions.inc();
                    m.entries.add(-1);
                }
            }
            inner.order.drain(..cursor);
        }
    }

    /// Snapshot of every key currently cached for `uri`, oldest first.
    ///
    /// The update path uses this to enumerate the warm views it must
    /// patch in place after a commit moves the content hash.
    pub fn keys_for_uri(&self, uri: &str) -> Vec<ViewKey> {
        let inner = self.lock();
        inner.order.iter().filter(|k| k.uri == uri).cloned().collect()
    }

    /// `true` when `key` is currently cached. No hit/miss accounting.
    pub fn contains_key(&self, key: &ViewKey) -> bool {
        self.lock().map.contains_key(key)
    }

    /// Replaces the entry at `old` with `(new, view)` **in place**: the
    /// new entry inherits the old one's position in the FIFO eviction
    /// order, so patching a warm view does not reset its age. Returns
    /// `false` (and stores nothing) when `old` is not cached — the
    /// caller should fall back to [`ViewCache::put`] or drop the view.
    pub fn replace(&self, old: &ViewKey, new: ViewKey, view: CachedView) -> bool {
        let mut inner = self.lock();
        if inner.map.remove(old).is_none() {
            return false;
        }
        // Rewrite the key in its existing order slot; entry count is
        // unchanged, so the shared gauge is untouched.
        if let Some(slot) = inner.order.iter_mut().find(|k| *k == old) {
            *slot = new.clone();
        }
        if inner.map.insert(new.clone(), view).is_some() {
            // `new` was independently cached: we just clobbered it, so
            // one of its two order slots must go.
            let mut seen = false;
            inner.order.retain(|k| {
                if *k == new {
                    if seen {
                        return false;
                    }
                    seen = true;
                }
                true
            });
            cache_metrics().entries.add(-1);
        }
        true
    }

    /// Drops one entry. Returns `true` when it was present.
    pub fn remove(&self, key: &ViewKey) -> bool {
        let mut inner = self.lock();
        if inner.map.remove(key).is_some() {
            inner.order.retain(|k| k != key);
            cache_metrics().entries.add(-1);
            true
        } else {
            false
        }
    }

    /// Drops every entry for `uri` (call when a document or its XACL
    /// changes). Returns how many entries were removed.
    pub fn invalidate_uri(&self, uri: &str) -> usize {
        let mut inner = self.lock();
        let before = inner.map.len();
        inner.map.retain(|k, _| k.uri != uri);
        inner.order.retain(|k| k.uri != uri);
        let removed = before - inner.map.len();
        if removed > 0 {
            cache_metrics().entries.add(-(removed as i64));
        }
        removed
    }

    /// Clears the cache entirely.
    pub fn clear(&self) {
        let mut inner = self.lock();
        let removed = inner.map.len();
        inner.map.clear();
        inner.order.clear();
        if removed > 0 {
            cache_metrics().entries.add(-(removed as i64));
        }
    }

    /// `(hits, misses)` so far.
    pub fn stats(&self) -> (u64, u64) {
        let inner = self.lock();
        (inner.hits, inner.misses)
    }

    /// Views evicted for capacity so far.
    pub fn evictions(&self) -> u64 {
        self.lock().evictions
    }

    /// Stale (content-hash-mismatched) views swept on misses so far.
    pub fn stale_rejected(&self) -> u64 {
        self.lock().stale_rejected
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// Length of the internal insertion-order list — bounded by
    /// [`ViewCache::len`] at all times; exposed so churn tests can pin
    /// the invariant.
    pub fn order_len(&self) -> usize {
        self.lock().order.len()
    }

    /// `true` when the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Drop for ViewCache {
    /// Returns this cache's entries to the shared gauge so two live
    /// caches (tests, per-shard splits) account independently.
    fn drop(&mut self) {
        let inner = self.inner.get_mut().unwrap_or_else(|e| e.into_inner());
        if !inner.map.is_empty() {
            cache_metrics().entries.add(-(inner.map.len() as i64));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(uri: &str, fp: u64) -> ViewKey {
        key_v(uri, fp, 0)
    }

    fn key_v(uri: &str, fp: u64, content: u64) -> ViewKey {
        ViewKey { uri: uri.to_string(), fingerprint: fp, content }
    }

    fn view(x: &str) -> CachedView {
        CachedView { xml: x.to_string(), loosened_dtd: None, etag: format!("t-{x}") }
    }

    #[test]
    fn hit_and_miss_accounting() {
        let c = ViewCache::new();
        assert!(c.get(&key("a", 1)).is_none());
        c.put(key("a", 1), view("<a/>"));
        assert_eq!(c.get(&key("a", 1)).unwrap().xml, "<a/>");
        assert!(c.get(&key("a", 2)).is_none());
        assert_eq!(c.stats(), (1, 2));
        assert_eq!(c.len(), 1);
    }

    fn auth(spec: &str, sign: xmlsec_authz::Sign) -> Authorization {
        Authorization::new(
            xmlsec_subjects::Subject::new("u", "*", "*").unwrap(),
            xmlsec_authz::ObjectSpec::parse(spec).unwrap(),
            sign,
            xmlsec_authz::AuthType::Recursive,
        )
    }

    #[test]
    fn fingerprint_sensitivity() {
        use xmlsec_authz::Sign;
        let a = auth("d.xml:/a", Sign::Plus);
        let b = auth("d.xml:/a/b", Sign::Minus);
        let c = auth("d.xml:/a/c", Sign::Plus);
        let base = fingerprint(&[&a, &c], &[&b], 0);
        assert_eq!(base, fingerprint(&[&a, &c], &[&b], 0));
        assert_eq!(base, fingerprint(&[&c, &a], &[&b], 0), "set order is not identity");
        assert_ne!(base, fingerprint(&[&a, &b], &[&c], 0)); // split matters
        assert_ne!(base, fingerprint(&[&a, &c], &[&b], 1)); // policy matters
        assert_ne!(base, fingerprint(&[&a], &[&b], 0)); // membership matters
    }

    #[test]
    fn mutating_one_authorization_changes_the_fingerprint() {
        use xmlsec_authz::Sign;
        let a = auth("d.xml:/a", Sign::Plus);
        let b = auth("d.xml:/a/b", Sign::Minus);
        let before = fingerprint(&[&a, &b], &[], 0);
        // Flip the sign of one authorization in place — the content hash
        // must move, so any cached view keyed on `before` misses.
        let mut b2 = b.clone();
        b2.sign = Sign::Plus;
        assert_ne!(before, fingerprint(&[&a, &b2], &[], 0));
        // And so must a changed object path.
        let b3 = auth("d.xml:/a/b2", Sign::Minus);
        assert_ne!(before, fingerprint(&[&a, &b3], &[], 0));
    }

    #[test]
    fn content_hash_is_part_of_the_key() {
        let c = ViewCache::new();
        c.put(key_v("a", 1, 100), view("<a v1/>"));
        // Same URI and fingerprint, new content: structural miss.
        assert!(c.get(&key_v("a", 1, 200)).is_none());
        // The old-content entry is unreachable and was swept on the miss.
        assert_eq!(c.len(), 0);
        assert_eq!(c.stale_rejected(), 1);
        c.put(key_v("a", 1, 200), view("<a v2/>"));
        assert_eq!(c.get(&key_v("a", 1, 200)).unwrap().xml, "<a v2/>");
    }

    #[test]
    fn stale_sweep_spares_other_fingerprints_and_uris() {
        let c = ViewCache::new();
        c.put(key_v("a", 1, 100), view("<a/>"));
        c.put(key_v("a", 2, 100), view("<a2/>"));
        c.put(key_v("b", 1, 100), view("<b/>"));
        // Miss on (a, 1) at new content sweeps only the (a, 1) twin:
        // (a, 2) is a different requester class and is swept on *its*
        // first miss; (b, 1) is a different document.
        assert!(c.get(&key_v("a", 1, 999)).is_none());
        assert_eq!(c.len(), 2);
        assert_eq!(c.stale_rejected(), 1);
        assert!(c.get(&key_v("b", 1, 100)).is_some());
    }

    #[test]
    fn invalidation() {
        let c = ViewCache::new();
        c.put(key("a", 1), view("<a/>"));
        c.put(key("a", 2), view("<a2/>"));
        c.put(key("b", 1), view("<b/>"));
        assert_eq!(c.invalidate_uri("a"), 2);
        assert_eq!(c.len(), 1);
        assert!(c.get(&key("b", 1)).is_some());
        c.clear();
        assert!(c.is_empty());
    }

    #[test]
    fn capacity_evicts_oldest_first() {
        let c = ViewCache::with_capacity(2);
        c.put(key("a", 1), view("<a/>"));
        c.put(key("b", 1), view("<b/>"));
        c.put(key("c", 1), view("<c/>"));
        assert_eq!(c.len(), 2);
        assert_eq!(c.evictions(), 1);
        assert!(c.get(&key("a", 1)).is_none(), "oldest entry should be evicted");
        assert!(c.get(&key("b", 1)).is_some());
        assert!(c.get(&key("c", 1)).is_some());
    }

    #[test]
    fn reinsert_does_not_double_count_order() {
        let c = ViewCache::with_capacity(2);
        c.put(key("a", 1), view("<a/>"));
        c.put(key("a", 1), view("<a v2/>"));
        c.put(key("b", 1), view("<b/>"));
        // Still within capacity: nothing evicted despite two puts of "a".
        assert_eq!(c.len(), 2);
        assert_eq!(c.evictions(), 0);
        assert_eq!(c.get(&key("a", 1)).unwrap().xml, "<a v2/>");
    }

    #[test]
    fn eviction_after_invalidation_stays_consistent() {
        let c = ViewCache::with_capacity(2);
        c.put(key("a", 1), view("<a/>"));
        c.put(key("b", 1), view("<b/>"));
        c.invalidate_uri("a");
        c.put(key("c", 1), view("<c/>"));
        // "a" is already gone; capacity holds without a real eviction.
        assert_eq!(c.len(), 2);
        assert_eq!(c.evictions(), 0);
        assert!(c.get(&key("b", 1)).is_some());
    }

    #[test]
    fn replace_preserves_eviction_position() {
        let c = ViewCache::with_capacity(2);
        c.put(key_v("a", 1, 100), view("<a/>"));
        c.put(key_v("b", 1, 100), view("<b/>"));
        // Patch "a" in place: new content hash, same age.
        assert!(c.replace(&key_v("a", 1, 100), key_v("a", 1, 200), view("<a v2/>")));
        assert_eq!(c.len(), 2);
        // A third insert still evicts the patched "a" — it kept the
        // oldest slot rather than being treated as freshly inserted.
        c.put(key_v("c", 1, 100), view("<c/>"));
        assert!(c.get(&key_v("a", 1, 200)).is_none(), "patched entry keeps its age");
        assert!(c.get(&key_v("b", 1, 100)).is_some());
        assert_eq!(c.order_len(), c.len());
    }

    #[test]
    fn replace_of_absent_key_is_a_noop() {
        let c = ViewCache::new();
        assert!(!c.replace(&key_v("a", 1, 100), key_v("a", 1, 200), view("<a/>")));
        assert!(c.is_empty());
        assert_eq!(c.order_len(), 0);
    }

    #[test]
    fn replace_onto_existing_key_collapses_to_one_entry() {
        let c = ViewCache::new();
        c.put(key_v("a", 1, 100), view("<old/>"));
        c.put(key_v("a", 1, 200), view("<already-new/>"));
        assert!(c.replace(&key_v("a", 1, 100), key_v("a", 1, 200), view("<patched/>")));
        assert_eq!(c.len(), 1);
        assert_eq!(c.order_len(), 1);
        assert_eq!(c.get(&key_v("a", 1, 200)).unwrap().xml, "<patched/>");
    }

    #[test]
    fn keys_for_uri_and_remove() {
        let c = ViewCache::new();
        c.put(key_v("a", 1, 100), view("<a/>"));
        c.put(key_v("a", 2, 100), view("<a2/>"));
        c.put(key_v("b", 1, 100), view("<b/>"));
        let keys = c.keys_for_uri("a");
        assert_eq!(keys.len(), 2);
        assert!(keys.iter().all(|k| k.uri == "a"));
        assert!(c.contains_key(&keys[0]));
        assert!(c.remove(&keys[0]));
        assert!(!c.remove(&keys[0]));
        assert!(!c.contains_key(&keys[0]));
        assert_eq!(c.len(), 2);
        assert_eq!(c.order_len(), 2);
    }

    #[test]
    fn churn_keeps_order_bounded_by_live_entries() {
        // The regression this pins: invalidate/put churn on an
        // unbounded cache used to leave dead keys in `order` forever.
        let c = ViewCache::new();
        for round in 0..100u64 {
            for fp in 0..10u64 {
                c.put(key_v("doc.xml", fp, round), view("<v/>"));
            }
            c.put(key_v("other.xml", 0, round), view("<o/>"));
            c.invalidate_uri("doc.xml");
            assert!(
                c.order_len() <= c.len(),
                "round {round}: order {} > live {}",
                c.order_len(),
                c.len()
            );
        }
        // Only the per-round "other.xml" entries remain.
        assert_eq!(c.len(), 100);
        assert_eq!(c.order_len(), c.len());

        // Content-hash churn (no invalidate calls at all): stale sweep
        // keeps both the map and the order list bounded.
        let c = ViewCache::new();
        for round in 0..100u64 {
            c.put(key_v("d.xml", 7, round), view("<v/>"));
            assert!(c.get(&key_v("d.xml", 7, round + 1)).is_none());
            assert!(c.len() <= 1, "stale twins must not accumulate");
            assert!(c.order_len() <= c.len());
        }
        assert_eq!(c.stale_rejected(), 100);
    }
}
