//! Label-decision cache for the compute-view engine.
//!
//! Mahfoud & Imine observe that per-(subject, element-type) access
//! decisions can be precomputed and reused across queries. The same holds
//! here at a finer grain: during labeling, the expensive step per node is
//! the "most specific subject takes precedence, then denials" resolution
//! ([`xmlsec_authz::policy::resolve_sign`]) over the authorizations whose
//! objects select the node. Two nodes selected by the *same subset* of
//! applicable authorizations get the *same* initial label, so the engine
//! keys decisions by the match bitmask plus a **policy fingerprint** and
//! memoizes the resolved [`Label`] — within one run (a per-worker memo)
//! and across requests (a shared [`DecisionCache`] owned by the server).
//!
//! The fingerprint hashes the *content* of the applicable authorizations
//! (sorted, so list order is irrelevant), the policy configuration, and
//! the directory's membership relation — everything `resolve_sign`
//! reads. Because the fingerprint is order-independent while the mask
//! assigns bit `i` to the `i`-th applicable authorization, the engine
//! **canonicalizes** the applicable sets (sorts them by their rendered
//! form) before building either whenever a cache is attached — so bit
//! `i` refers to the same authorization no matter what order a request
//! presents the set in. Mutating any authorization, policy knob, or
//! group edge changes the fingerprint, so stale entries can never be
//! returned; they simply age out of the FIFO. Traffic is mirrored to the telemetry registry as
//! `xmlsec_decision_cache_{hits,misses}_total` and the
//! `xmlsec_decision_cache_entries` gauge.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, OnceLock};
use xmlsec_authz::{Authorization, PolicyConfig};
use xmlsec_subjects::Directory;
use xmlsec_telemetry as telemetry;

use crate::label::Label;

/// One memoized decision's key: which policy universe, whether the node
/// is an attribute (recursive classes fold into local on leaves), and
/// which applicable authorizations matched the node (instance auths in
/// the low bits, schema auths above them).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DecisionKey {
    /// [`policy_fingerprint`] of the applicable sets + policy + directory.
    pub fingerprint: u64,
    /// Attribute nodes resolve differently from elements.
    pub is_attribute: bool,
    /// Bit `i` set ⇔ the `i`-th applicable authorization selects the
    /// node, with the sets in **canonical order** (sorted by rendered
    /// form — the engine sorts before building masks so the bit mapping
    /// is a function of content, matching the order-independent
    /// fingerprint). The engine only uses the cache when the combined
    /// applicable sets fit in 128 bits.
    pub mask: u128,
}

/// Content fingerprint of everything the initial-label resolution reads:
/// the applicable authorization sets (order-independent — hashed
/// sorted), the policy configuration, and the directory membership
/// relation. Cache keys built on this survive any in-place mutation of
/// an authorization: the mutated content hashes differently, so the old
/// entries miss.
pub fn policy_fingerprint(
    axml: &[&Authorization],
    adtd: &[&Authorization],
    dir: &Directory,
    policy: PolicyConfig,
) -> u64 {
    let mut h = DefaultHasher::new();
    // Policy knobs (discriminants via Debug, stable within a process).
    format!("{policy:?}").hash(&mut h);
    for (tag, set) in [(0u8, axml), (1u8, adtd)] {
        tag.hash(&mut h);
        let mut rendered: Vec<String> = set.iter().map(|a| a.to_string()).collect();
        rendered.sort();
        rendered.hash(&mut h);
    }
    // The subject-domination relation, through the digest the directory
    // keeps of it.
    dir.digest().hash(&mut h);
    h.finish()
}

struct DecisionMetrics {
    hits: Arc<telemetry::Counter>,
    misses: Arc<telemetry::Counter>,
    entries: Arc<telemetry::Gauge>,
    mask_bypass: Arc<telemetry::Counter>,
}

fn decision_metrics() -> &'static DecisionMetrics {
    static METRICS: OnceLock<DecisionMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = telemetry::global();
        DecisionMetrics {
            hits: reg.counter(
                "xmlsec_decision_cache_hits_total",
                "Initial-label resolutions answered from a memoized decision.",
                &[],
            ),
            misses: reg.counter(
                "xmlsec_decision_cache_misses_total",
                "Initial-label resolutions computed from scratch.",
                &[],
            ),
            entries: reg.gauge(
                "xmlsec_decision_cache_entries",
                "Decisions currently held in the shared cache.",
                &[],
            ),
            mask_bypass: reg.counter(
                "xmlsec_decision_mask_bypass_total",
                "Labeling runs whose applicable sets exceeded the 128-bit \
                 match-mask cap and bypassed decision memoization entirely.",
                &[],
            ),
        }
    })
}

/// Records a labeling run whose combined applicable sets exceed the
/// 128-bit match-mask cap: every initial label is resolved from scratch
/// (no per-run memo, no shared cache), which is quadratic-ish in the
/// authorization count. Warns once per process so operators notice the
/// silent degradation without log spam.
pub(crate) fn record_mask_bypass(auth_count: usize) {
    decision_metrics().mask_bypass.inc();
    static WARNED: std::sync::Once = std::sync::Once::new();
    WARNED.call_once(|| {
        eprintln!(
            "xmlsec: warning: {auth_count} applicable authorizations exceed the \
             128-auth decision-cache mask cap; label memoization is bypassed for \
             such requests (counter: xmlsec_decision_mask_bypass_total)"
        );
    });
}

/// Flushes a run's aggregated hit/miss counts to the registry (the
/// engine batches per worker instead of incrementing per node).
pub(crate) fn record_traffic(hits: u64, misses: u64) {
    let m = decision_metrics();
    if hits > 0 {
        m.hits.add(hits);
    }
    if misses > 0 {
        m.misses.add(misses);
    }
}

/// Default [`DecisionCache`] capacity (entries are ~50 bytes).
pub const DEFAULT_DECISION_CAPACITY: usize = 65_536;

/// Thread-safe cross-request memo of resolved initial labels, FIFO-bounded.
///
/// Owned by the server (one per [`crate::SecurityProcessor`] family via
/// `Arc`); repeated requests against an unchanged policy skip conflict
/// resolution entirely. Safe to share between policies — the fingerprint
/// in every key separates them.
#[derive(Debug)]
pub struct DecisionCache {
    inner: Mutex<DecisionInner>,
    capacity: usize,
}

#[derive(Debug, Default)]
struct DecisionInner {
    map: HashMap<DecisionKey, Label>,
    order: VecDeque<DecisionKey>,
}

impl DecisionCache {
    /// A cache bounded to [`DEFAULT_DECISION_CAPACITY`] decisions.
    pub fn new() -> DecisionCache {
        DecisionCache::with_capacity(DEFAULT_DECISION_CAPACITY)
    }

    /// A cache bounded to `capacity` decisions (FIFO eviction).
    pub fn with_capacity(capacity: usize) -> DecisionCache {
        DecisionCache { inner: Mutex::new(DecisionInner::default()), capacity: capacity.max(1) }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, DecisionInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Looks up a memoized decision. Traffic counters are the *engine's*
    /// job (it batches per run); this is a plain map probe.
    pub fn get(&self, key: &DecisionKey) -> Option<Label> {
        self.lock().map.get(key).copied()
    }

    /// Memoizes a decision, evicting oldest-first past capacity.
    pub fn put(&self, key: DecisionKey, label: Label) {
        let mut inner = self.lock();
        if inner.map.insert(key, label).is_none() {
            inner.order.push_back(key);
        }
        while inner.map.len() > self.capacity {
            let Some(victim) = inner.order.pop_front() else { break };
            inner.map.remove(&victim);
        }
        decision_metrics().entries.set(inner.map.len() as i64);
    }

    /// Drops every memoized decision (e.g. on grant/revoke — fingerprints
    /// already prevent stale hits, clearing just reclaims the space).
    pub fn clear(&self) {
        let mut inner = self.lock();
        inner.map.clear();
        inner.order.clear();
        decision_metrics().entries.set(0);
    }

    /// Number of memoized decisions.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// `true` when nothing is memoized.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for DecisionCache {
    fn default() -> DecisionCache {
        DecisionCache::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::Sign3;
    use xmlsec_authz::{AuthType, ObjectSpec, Sign};
    use xmlsec_subjects::Subject;

    fn auth(spec: &str, sign: Sign) -> Authorization {
        Authorization::new(
            Subject::new("u", "*", "*").unwrap(),
            ObjectSpec::parse(spec).unwrap(),
            sign,
            AuthType::Recursive,
        )
    }

    fn key(fp: u64, mask: u128) -> DecisionKey {
        DecisionKey { fingerprint: fp, is_attribute: false, mask }
    }

    #[test]
    fn put_get_clear() {
        let c = DecisionCache::new();
        let lab = Label { final_sign: Sign3::Plus, ..Label::default() };
        assert!(c.get(&key(1, 0b01)).is_none());
        c.put(key(1, 0b01), lab);
        assert_eq!(c.get(&key(1, 0b01)).unwrap().final_sign, Sign3::Plus);
        assert!(c.get(&key(2, 0b01)).is_none(), "fingerprint separates policies");
        assert!(c.get(&key(1, 0b10)).is_none(), "mask separates node classes");
        c.clear();
        assert!(c.is_empty());
    }

    #[test]
    fn capacity_bounds_entries_fifo() {
        let c = DecisionCache::with_capacity(2);
        c.put(key(0, 1), Label::default());
        c.put(key(0, 2), Label::default());
        c.put(key(0, 3), Label::default());
        assert_eq!(c.len(), 2);
        assert!(c.get(&key(0, 1)).is_none(), "oldest evicted first");
        assert!(c.get(&key(0, 3)).is_some());
    }

    #[test]
    fn fingerprint_is_order_independent_but_content_sensitive() {
        let a = auth("d.xml:/a", Sign::Plus);
        let b = auth("d.xml:/a/b", Sign::Minus);
        let dir = Directory::new();
        let p = PolicyConfig::paper_default();
        let fp_ab = policy_fingerprint(&[&a, &b], &[], &dir, p);
        let fp_ba = policy_fingerprint(&[&b, &a], &[], &dir, p);
        assert_eq!(fp_ab, fp_ba, "applicable-set order is not identity");
        // Moving an auth between instance and schema sets matters.
        assert_ne!(fp_ab, policy_fingerprint(&[&a], &[&b], &dir, p));
    }

    #[test]
    fn mutating_one_authorization_changes_the_fingerprint() {
        let a = auth("d.xml:/a", Sign::Plus);
        let b = auth("d.xml:/a/b", Sign::Minus);
        let dir = Directory::new();
        let p = PolicyConfig::paper_default();
        let before = policy_fingerprint(&[&a, &b], &[], &dir, p);
        let mut b2 = b.clone();
        b2.sign = Sign::Plus; // in-place policy mutation
        let after = policy_fingerprint(&[&a, &b2], &[], &dir, p);
        assert_ne!(before, after, "a mutated authorization must miss the cache");
    }

    #[test]
    fn directory_and_policy_feed_the_fingerprint() {
        let a = auth("d.xml:/a", Sign::Plus);
        let p = PolicyConfig::paper_default();
        let empty = Directory::new();
        let mut with_group = Directory::new();
        with_group.add_user("u").unwrap();
        with_group.add_group("G").unwrap();
        with_group.add_member("u", "G").unwrap();
        assert_ne!(
            policy_fingerprint(&[&a], &[], &empty, p),
            policy_fingerprint(&[&a], &[], &with_group, p),
            "membership edges change subject domination"
        );
        let open = PolicyConfig {
            completeness: xmlsec_authz::CompletenessPolicy::Open,
            ..PolicyConfig::paper_default()
        };
        assert_ne!(
            policy_fingerprint(&[&a], &[], &empty, p),
            policy_fingerprint(&[&a], &[], &empty, open),
            "policy knobs change the fingerprint"
        );
    }
}
