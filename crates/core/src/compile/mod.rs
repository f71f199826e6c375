//! Policy compilation: the static analyzer as a runtime JIT.
//!
//! The whole-policy analyzer ([`crate::static_analysis`]) proves most
//! SchemaNode × subject decision-table cells **guaranteed** before any
//! instance is seen. Following Cheney's static-enforceability line of
//! work, [`compile`] turns those proofs into a policy-resident artifact
//! consulted at labeling time:
//!
//! - a per-element-type × per-attribute **verdict table**
//!   (guaranteed-allow / guaranteed-deny / instance-dependent, with the
//!   dependency source retained for diagnostics);
//! - a **residual list** of instance checks for the dependent cells;
//! - a whole-document **fast-path flag** when every cell is guaranteed —
//!   in that case labeling is a type-table lookup per node and requests
//!   skip `initial_label`/`first_def` entirely.
//!
//! Even without the fast path, cells whose post-fixpoint abstract label
//! is a singleton on every component carry an *exact* concrete
//! [`Label`]; the engine serves those nodes from the table and runs the
//! interpreted machinery only for the residue (see
//! [`crate::view::EngineOptions::compiled`]).
//!
//! ## Soundness contract
//!
//! The analyzer's guarantees quantify over **conforming** instances
//! only, so a [`CompiledPolicy`] may be consulted exclusively for
//! documents known valid against the DTD it was compiled from. The
//! processor enforces this (it validates before taking the compiled
//! path); direct [`crate::label_document_engine`] callers carry the
//! obligation themselves. The engine additionally ignores a compiled
//! policy whose fingerprint does not match the applicable sets of the
//! run, so a stale or misrouted artifact degrades to the interpreted
//! path instead of corrupting views.
//!
//! Compiled artifacts are cached in a [`CompiledCache`] keyed by
//! `(policy fingerprint, schema hash)` — the same fingerprint the
//! [`crate::decision::DecisionCache`] uses, so server-side invalidation
//! on `grant`/`revoke` clears both together.

use crate::analysis::SchemaNode;
use crate::decision::policy_fingerprint;
use crate::label::{first_def, Label, Sign3};
use crate::schema::{dtd_hash, schema_key, PreparedSchema};
use crate::static_analysis::absdom::{AbsLabel, SignSet};
use crate::static_analysis::{analyze_applicable, Verdict};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock};
use xmlsec_authz::{Authorization, PolicyConfig};
use xmlsec_dtd::Dtd;
use xmlsec_subjects::Directory;
use xmlsec_telemetry as telemetry;

/// Why compilation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// The root element is not declared in the DTD.
    UnknownRoot(String),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::UnknownRoot(r) => {
                write!(f, "root element {r:?} is not declared in the DTD")
            }
        }
    }
}

impl std::error::Error for CompileError {}

/// One compiled verdict-table cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledCell {
    /// The analyzer's verdict for every node of this declaration.
    pub verdict: Verdict,
    /// The abstract sign set behind the verdict.
    pub signs: SignSet,
    /// The concrete final sign every node of this declaration receives,
    /// when one sign is *plus-exact*: either the set is a singleton, or
    /// it contains no `+` (then any denied member stands in — pruning
    /// and the granted-node count cannot tell them apart). `None` makes
    /// the cell ineligible for the whole-document fast path.
    pub(crate) representative: Option<Sign3>,
    /// The full concrete label, when every component of the cell's
    /// post-fixpoint abstract label is a singleton (for attributes:
    /// every own component, with an exact parent). Lets the engine skip
    /// `initial_label` + propagation for this node type even when the
    /// document as a whole has residual cells.
    pub(crate) exact: Option<Label>,
}

/// One residual instance check: a cell the analyzer could not decide.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResidualCheck {
    /// The schema node whose decision stays instance-dependent.
    pub node: SchemaNode,
    /// The dependency source (predicate, optional content, …).
    pub reason: String,
}

/// A policy compiled against one DTD for one applicable authorization
/// set: the verdict table, the residual checks, and the fast-path flag.
#[derive(Debug, Clone)]
pub struct CompiledPolicy {
    /// [`policy_fingerprint`] of the applicable sets compiled for; the
    /// engine verifies it before consulting the table.
    pub(crate) fingerprint: u64,
    /// The root element the schema graph was rooted at.
    pub root: String,
    /// The policy configuration compiled against.
    pub policy: PolicyConfig,
    /// Verdict cells per element type.
    pub elements: BTreeMap<String, CompiledCell>,
    /// Verdict cells per element type, then attribute name.
    pub attributes: BTreeMap<String, BTreeMap<String, CompiledCell>>,
    /// The instance checks left for the interpreted engine.
    pub residual: Vec<ResidualCheck>,
    /// Write-effect verdicts for the update pre-flight, derived from the
    /// `write`-action subset of the same applicable sets (the one place
    /// the compiler filters by action itself).
    pub writes: crate::static_analysis::write::WriteTable,
    /// `true` when **every** cell carries a plus-exact sign: labeling a
    /// conforming document is then one table lookup per node.
    pub fast_path: bool,
}

impl CompiledCell {
    /// The concrete final sign every node of this declaration receives,
    /// when one is plus-exact. `None` means the cell is ineligible for
    /// the whole-document fast path.
    pub fn representative(&self) -> Option<Sign3> {
        self.representative
    }

    /// Whether the full six-component label is known statically, letting
    /// the engine skip `initial_label` and propagation for this node
    /// type even when other cells stay instance-dependent.
    pub fn is_exact(&self) -> bool {
        self.exact.is_some()
    }
}

impl CompiledPolicy {
    /// Total number of verdict cells (elements + attributes).
    pub fn cell_count(&self) -> usize {
        self.elements.len() + self.attributes.values().map(|m| m.len()).sum::<usize>()
    }

    /// Cells with the given verdict code (`allow`, `deny`,
    /// `instance-dependent`).
    pub fn count_verdict(&self, code: &str) -> usize {
        self.elements
            .values()
            .chain(self.attributes.values().flat_map(|m| m.values()))
            .filter(|c| c.verdict.code() == code)
            .count()
    }
}

struct CompileMetrics {
    compiles: Arc<telemetry::Counter>,
    wall: Arc<telemetry::Histogram>,
    hits_allow: Arc<telemetry::Counter>,
    hits_deny: Arc<telemetry::Counter>,
    hits_dependent: Arc<telemetry::Counter>,
}

fn compile_metrics() -> &'static CompileMetrics {
    static METRICS: OnceLock<CompileMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = telemetry::global();
        let hits = |verdict: &str| {
            reg.counter(
                "xmlsec_compiled_cell_hits_total",
                "Labeling decisions by compiled-table outcome: allow/deny \
                 served from the table, instance-dependent fell back to the \
                 interpreted path.",
                &[("verdict", verdict)],
            )
        };
        CompileMetrics {
            compiles: reg.counter(
                "xmlsec_compile_total",
                "Policy compilations performed (cache hits excluded).",
                &[],
            ),
            wall: reg.histogram(
                "xmlsec_compile_duration_seconds",
                "Wall time of one policy compilation.",
                &[],
                telemetry::Buckets::duration_default(),
            ),
            hits_allow: hits("allow"),
            hits_deny: hits("deny"),
            hits_dependent: hits("instance-dependent"),
        }
    })
}

/// Flushes a labeling run's aggregated compiled-cell traffic (the engine
/// batches per run instead of incrementing per node).
pub(crate) fn record_cell_hits(allow: u64, deny: u64, dependent: u64) {
    let m = compile_metrics();
    if allow > 0 {
        m.hits_allow.add(allow);
    }
    if deny > 0 {
        m.hits_deny.add(deny);
    }
    if dependent > 0 {
        m.hits_dependent.add(dependent);
    }
}

/// The plus-exact concrete sign of a cell, when one exists: a singleton
/// set is its own witness; a guaranteed set without `+` may pick any
/// denied member (pruning reads only allowed-ness, statistics read only
/// `+`-ness, and both are constant across the set). A guaranteed set
/// *containing* `+` alongside other signs (e.g. `{+, ε}` under the open
/// policy) is allow-constant but `+`-ambiguous, so it gets `None`.
fn representative(signs: SignSet, verdict: &Verdict) -> Option<Sign3> {
    if !verdict.is_guaranteed() {
        return None;
    }
    if let Some(s) = signs.as_singleton() {
        return Some(s);
    }
    if signs.contains(Sign3::Plus) {
        return None;
    }
    Some(if signs.contains(Sign3::Minus) { Sign3::Minus } else { Sign3::Eps })
}

/// The exact concrete element label, when every post-fixpoint component
/// is a singleton. Sound because each abstract component over-
/// approximates its concrete counterpart on every conforming instance:
/// a singleton pins the concrete value. At the root this matches the
/// un-propagated label too, since propagation against the virtual all-ε
/// parent is the identity.
fn exact_element_label(post: &AbsLabel) -> Option<Label> {
    let l = post.l.as_singleton()?;
    let r = post.r.as_singleton()?;
    let ld = post.ld.as_singleton()?;
    let rd = post.rd.as_singleton()?;
    let lw = post.lw.as_singleton()?;
    let rw = post.rw.as_singleton()?;
    Some(Label { l, r, ld, rd, lw, rw, final_sign: first_def([l, r, ld, rd, lw, rw]) })
}

/// The exact concrete attribute label: own `l`/`lw`/`ld` singletons
/// combined with the parent element's exact components exactly as
/// `label_attribute` does (`r`/`rw`/`rd` are structural `ε` on leaves).
fn exact_attribute_label(own: &AbsLabel, parent: &Label) -> Option<Label> {
    let l = own.l.as_singleton()?;
    let lw = own.lw.as_singleton()?;
    let ld = own.ld.as_singleton()?;
    let strong_p = first_def([parent.l, parent.r]);
    let schema_p = first_def([parent.ld, parent.rd]);
    let weak_p = first_def([parent.lw, parent.rw]);
    Some(Label {
        l,
        lw,
        ld,
        r: Sign3::Eps,
        rw: Sign3::Eps,
        rd: Sign3::Eps,
        final_sign: first_def([l, strong_p, ld, schema_p, lw, weak_p]),
    })
}

/// Compiles the applicable authorization sets of one requester against
/// `dtd` into a [`CompiledPolicy`].
///
/// `axml`/`adtd` are the instance- and schema-level applicable sets —
/// exactly what [`crate::label_document_engine`] receives, after subject
/// resolution and action filtering by the caller. The compiled table
/// models whatever is passed; it performs no filtering of its own.
pub fn compile(
    dtd: &Dtd,
    root_element: &str,
    axml: &[&Authorization],
    adtd: &[&Authorization],
    dir: &Directory,
    policy: PolicyConfig,
) -> Result<CompiledPolicy, CompileError> {
    let fingerprint = policy_fingerprint(axml, adtd, dir, policy);
    compile_fingerprinted(dtd, root_element, axml, adtd, dir, policy, fingerprint)
}

/// [`compile`] with the [`policy_fingerprint`] of the inputs already
/// computed by the caller.
fn compile_fingerprinted(
    dtd: &Dtd,
    root_element: &str,
    axml: &[&Authorization],
    adtd: &[&Authorization],
    dir: &Directory,
    policy: PolicyConfig,
    fingerprint: u64,
) -> Result<CompiledPolicy, CompileError> {
    let started = std::time::Instant::now();
    let mut auths: Vec<(&Authorization, bool)> = Vec::with_capacity(axml.len() + adtd.len());
    auths.extend(axml.iter().map(|&a| (a, false)));
    auths.extend(adtd.iter().map(|&a| (a, true)));

    let analysis = analyze_applicable(dtd, root_element, &auths, dir, policy)
        .ok_or_else(|| CompileError::UnknownRoot(root_element.to_string()))?;

    let mut elements: BTreeMap<String, CompiledCell> = BTreeMap::new();
    let mut attributes: BTreeMap<String, BTreeMap<String, CompiledCell>> = BTreeMap::new();
    let mut residual = Vec::new();
    let mut fast_path = true;

    // Elements first: attribute exactness needs the parent's exact label.
    for (node, cell) in &analysis.cells {
        let SchemaNode::Element(e) = node else { continue };
        let rep = representative(cell.signs, &cell.verdict);
        let exact = analysis.element_post.get(e).and_then(exact_element_label);
        fast_path &= rep.is_some();
        if let Verdict::Instance { reason } = &cell.verdict {
            residual.push(ResidualCheck { node: node.clone(), reason: reason.clone() });
        }
        elements.insert(
            e.clone(),
            CompiledCell {
                verdict: cell.verdict.clone(),
                signs: cell.signs,
                representative: rep,
                exact,
            },
        );
    }
    for (node, cell) in &analysis.cells {
        let SchemaNode::Attribute { element, attribute } = node else { continue };
        let rep = representative(cell.signs, &cell.verdict);
        let parent_exact = elements.get(element).and_then(|c| c.exact);
        let exact = match (
            analysis.attribute_own.get(&(element.clone(), attribute.clone())),
            &parent_exact,
        ) {
            (Some(own), Some(p)) => exact_attribute_label(own, p),
            _ => None,
        };
        fast_path &= rep.is_some();
        if let Verdict::Instance { reason } = &cell.verdict {
            residual.push(ResidualCheck { node: node.clone(), reason: reason.clone() });
        }
        attributes.entry(element.clone()).or_default().insert(
            attribute.clone(),
            CompiledCell {
                verdict: cell.verdict.clone(),
                signs: cell.signs,
                representative: rep,
                exact,
            },
        );
    }

    let compiled = CompiledPolicy {
        fingerprint,
        root: root_element.to_string(),
        policy,
        elements,
        attributes,
        residual,
        writes: crate::static_analysis::write::write_table(dtd, root_element, &auths, dir, policy),
        fast_path,
    };
    let m = compile_metrics();
    m.compiles.inc();
    m.wall.observe_duration(started.elapsed());
    Ok(compiled)
}

/// Content hash of a DTD + root pair, separating compiled policies of
/// different schemas inside one [`CompiledCache`] (the policy
/// fingerprint alone hashes only authorizations/policy/directory).
pub fn schema_hash(dtd: &Dtd, root_element: &str) -> u64 {
    schema_key(dtd_hash(dtd), root_element)
}

/// Default [`CompiledCache`] capacity (one entry per distinct
/// (applicable set, schema) pair — requester-resolved sets collapse
/// heavily in practice).
pub const DEFAULT_COMPILED_CAPACITY: usize = 256;

/// Thread-safe cross-request cache of compiled policies, FIFO-bounded,
/// keyed by `(policy fingerprint, schema hash)`.
///
/// Owned by the server next to the [`crate::decision::DecisionCache`]
/// and cleared together with it on `grant`/`revoke` — fingerprints
/// already prevent stale hits; clearing reclaims the space.
#[derive(Debug)]
pub struct CompiledCache {
    inner: Mutex<CompiledInner>,
    capacity: usize,
}

#[derive(Debug, Default)]
struct CompiledInner {
    map: HashMap<(u64, u64), Arc<CompiledPolicy>>,
    order: VecDeque<(u64, u64)>,
}

impl CompiledCache {
    /// A cache bounded to [`DEFAULT_COMPILED_CAPACITY`] policies.
    pub fn new() -> CompiledCache {
        CompiledCache::with_capacity(DEFAULT_COMPILED_CAPACITY)
    }

    /// A cache bounded to `capacity` policies (FIFO eviction).
    pub fn with_capacity(capacity: usize) -> CompiledCache {
        CompiledCache { inner: Mutex::new(CompiledInner::default()), capacity: capacity.max(1) }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, CompiledInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Looks up a compiled policy by fingerprint and schema hash.
    pub fn get(&self, fingerprint: u64, schema: u64) -> Option<Arc<CompiledPolicy>> {
        self.lock().map.get(&(fingerprint, schema)).cloned()
    }

    /// Caches a compiled policy, evicting oldest-first past capacity.
    pub fn put(&self, schema: u64, policy: Arc<CompiledPolicy>) {
        let key = (policy.fingerprint, schema);
        let mut inner = self.lock();
        if inner.map.insert(key, policy).is_none() {
            inner.order.push_back(key);
        }
        while inner.map.len() > self.capacity {
            let Some(victim) = inner.order.pop_front() else { break };
            inner.map.remove(&victim);
        }
    }

    /// Returns the cached compiled policy for these inputs, compiling
    /// and caching on miss.
    pub fn get_or_compile(
        &self,
        dtd: &Dtd,
        root_element: &str,
        axml: &[&Authorization],
        adtd: &[&Authorization],
        dir: &Directory,
        policy: PolicyConfig,
    ) -> Result<Arc<CompiledPolicy>, CompileError> {
        let fingerprint = policy_fingerprint(axml, adtd, dir, policy);
        self.get_or_insert(fingerprint, schema_hash(dtd, root_element), || {
            compile_fingerprinted(dtd, root_element, axml, adtd, dir, policy, fingerprint)
        })
    }

    /// [`CompiledCache::get_or_compile`] for a schema prepared once
    /// (whose precomputed hash keys the lookup, so a hit serializes
    /// nothing) and a `fingerprint` the caller already computed with
    /// [`policy_fingerprint`] over the same inputs.
    #[allow(clippy::too_many_arguments)]
    pub fn get_or_compile_prepared(
        &self,
        schema: &PreparedSchema,
        root_element: &str,
        fingerprint: u64,
        axml: &[&Authorization],
        adtd: &[&Authorization],
        dir: &Directory,
        policy: PolicyConfig,
    ) -> Result<Arc<CompiledPolicy>, CompileError> {
        self.get_or_insert(fingerprint, schema.schema_hash(root_element), || {
            compile_fingerprinted(schema.dtd(), root_element, axml, adtd, dir, policy, fingerprint)
        })
    }

    fn get_or_insert(
        &self,
        fingerprint: u64,
        schema: u64,
        compile: impl FnOnce() -> Result<CompiledPolicy, CompileError>,
    ) -> Result<Arc<CompiledPolicy>, CompileError> {
        if let Some(hit) = self.get(fingerprint, schema) {
            return Ok(hit);
        }
        let compiled = Arc::new(compile()?);
        self.put(schema, Arc::clone(&compiled));
        Ok(compiled)
    }

    /// Drops every cached compiled policy.
    pub fn clear(&self) {
        let mut inner = self.lock();
        inner.map.clear();
        inner.order.clear();
    }

    /// Number of cached compiled policies.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for CompiledCache {
    fn default() -> CompiledCache {
        CompiledCache::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmlsec_authz::{AuthType, ObjectSpec, Sign};
    use xmlsec_dtd::parse_dtd;
    use xmlsec_subjects::Subject;

    const LAB: &str = r#"
        <!ELEMENT laboratory (project+)>
        <!ELEMENT project (manager, paper*)>
        <!ELEMENT manager (#PCDATA)>
        <!ELEMENT paper (title)>
        <!ATTLIST paper category CDATA #REQUIRED>
        <!ELEMENT title (#PCDATA)>
    "#;

    fn auth(path: &str, sign: Sign, ty: AuthType) -> Authorization {
        Authorization::new(
            Subject::new("u", "*", "*").unwrap(),
            ObjectSpec::with_path("lab.dtd", path).unwrap(),
            sign,
            ty,
        )
    }

    fn dir() -> Directory {
        let mut d = Directory::new();
        d.add_user("u").unwrap();
        d
    }

    #[test]
    fn guaranteed_policy_compiles_to_fast_path() {
        let dtd = parse_dtd(LAB).unwrap();
        let a = auth("/laboratory", Sign::Plus, AuthType::Recursive);
        let cp =
            compile(&dtd, "laboratory", &[], &[&a], &dir(), PolicyConfig::paper_default()).unwrap();
        assert!(cp.fast_path, "{cp:?}");
        assert!(cp.residual.is_empty());
        assert_eq!(cp.elements["manager"].representative, Some(Sign3::Plus));
        assert_eq!(cp.attributes["paper"]["category"].representative, Some(Sign3::Plus));
        assert_eq!(cp.count_verdict("allow"), cp.cell_count());
    }

    #[test]
    fn predicate_produces_residual_and_disables_fast_path() {
        let dtd = parse_dtd(LAB).unwrap();
        let grant = auth("/laboratory", Sign::Plus, AuthType::Recursive);
        let deny = auth(r#"//paper[./@category="private"]"#, Sign::Minus, AuthType::Recursive);
        let cp = compile(
            &dtd,
            "laboratory",
            &[],
            &[&grant, &deny],
            &dir(),
            PolicyConfig::paper_default(),
        )
        .unwrap();
        assert!(!cp.fast_path);
        assert!(!cp.residual.is_empty());
        assert!(cp.residual.iter().any(|r| r.node.to_string() == "<paper>"));
        assert!(cp.residual.iter().all(|r| !r.reason.is_empty()));
        // Unaffected cells keep exact labels for the mixed path.
        assert!(cp.elements["laboratory"].exact.is_some());
        assert!(cp.elements["manager"].exact.is_some());
        assert!(cp.elements["paper"].exact.is_none());
    }

    #[test]
    fn unknown_root_is_an_error() {
        let dtd = parse_dtd(LAB).unwrap();
        let err =
            compile(&dtd, "nosuch", &[], &[], &dir(), PolicyConfig::paper_default()).unwrap_err();
        assert_eq!(err, CompileError::UnknownRoot("nosuch".into()));
        assert!(err.to_string().contains("nosuch"));
    }

    #[test]
    fn cache_roundtrip_and_invalidation() {
        let dtd = parse_dtd(LAB).unwrap();
        let a = auth("/laboratory", Sign::Plus, AuthType::Recursive);
        let d = dir();
        let cache = CompiledCache::new();
        let p = PolicyConfig::paper_default();
        let c1 = cache.get_or_compile(&dtd, "laboratory", &[], &[&a], &d, p).unwrap();
        let c2 = cache.get_or_compile(&dtd, "laboratory", &[], &[&a], &d, p).unwrap();
        assert!(Arc::ptr_eq(&c1, &c2), "second call must hit the cache");
        assert_eq!(cache.len(), 1);
        // A different applicable set compiles separately.
        let b = auth("//manager", Sign::Minus, AuthType::Local);
        let c3 = cache.get_or_compile(&dtd, "laboratory", &[], &[&a, &b], &d, p).unwrap();
        assert!(!Arc::ptr_eq(&c1, &c3));
        assert_eq!(cache.len(), 2);
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn cache_capacity_is_fifo_bounded() {
        let dtd = parse_dtd(LAB).unwrap();
        let d = dir();
        let p = PolicyConfig::paper_default();
        let cache = CompiledCache::with_capacity(1);
        let a = auth("/laboratory", Sign::Plus, AuthType::Recursive);
        let b = auth("//manager", Sign::Minus, AuthType::Local);
        cache.get_or_compile(&dtd, "laboratory", &[], &[&a], &d, p).unwrap();
        cache.get_or_compile(&dtd, "laboratory", &[], &[&b], &d, p).unwrap();
        assert_eq!(cache.len(), 1, "oldest entry evicted");
    }

    #[test]
    fn schema_hash_separates_dtds_and_roots() {
        let lab = parse_dtd(LAB).unwrap();
        let other = parse_dtd("<!ELEMENT a (#PCDATA)>").unwrap();
        assert_ne!(schema_hash(&lab, "laboratory"), schema_hash(&other, "a"));
        assert_ne!(schema_hash(&lab, "laboratory"), schema_hash(&lab, "project"));
    }

    #[test]
    fn open_policy_epsilon_cells_stay_fast_path_eligible() {
        // Under the open policy an all-ε cell is guaranteed-allow with a
        // plus-exact ε sign; mixing a grant in makes {+, ε} cells, which
        // are allow-constant but +-ambiguous and must disable the fast
        // path (the granted-node count would drift).
        let dtd = parse_dtd(LAB).unwrap();
        let open = PolicyConfig {
            completeness: xmlsec_authz::CompletenessPolicy::Open,
            ..PolicyConfig::paper_default()
        };
        let cp = compile(&dtd, "laboratory", &[], &[], &dir(), open).unwrap();
        assert!(cp.fast_path);
        assert_eq!(cp.elements["manager"].representative, Some(Sign3::Eps));
        assert_eq!(cp.count_verdict("allow"), cp.cell_count());
    }
}
