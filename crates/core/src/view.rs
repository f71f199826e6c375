//! The **compute-view** algorithm (paper §6, Figure 2): document tree
//! labeling followed by pruning.
//!
//! Semantics implemented (from the paper's §6.1 prose):
//!
//! - Each node gets an initial 6-tuple from the authorizations whose
//!   object contains it, one sign per type class, with the "most specific
//!   subject takes precedence, then denials" resolution (pluggable).
//! - Preorder propagation: for an element `n` with parent `p`,
//!   `R_n`/`RW_n` keep their values if *either* is non-null (an instance
//!   authorization on the node, of either strength, overrides the whole
//!   instance-recursive propagation), otherwise both are inherited from
//!   `p`; `RD_n` is inherited when null. The final sign is
//!   `first_def(L, R, LD, RD, LW, RW)`.
//! - Attributes (always leaves): `R/RW/RD` are structurally null;
//!   authorizations *Local on the parent* propagate to the attribute. The
//!   final sign is `first_def(L_a, strong_p, LD_a, schema_p, LW_a,
//!   weak_p)` where `strong_p = first_def(L_p, R_p)`,
//!   `schema_p = first_def(LD_p, RD_p)`, `weak_p = first_def(LW_p, RW_p)`
//!   over the parent's *component* signs.
//! - Pruning (postorder): remove every subtree containing no node with a
//!   positive final sign; start/end tags of elements with a negative or
//!   undefined label survive when a descendant is visible (structure
//!   preservation, §6.2). Text/comment/PI content is visible only when
//!   its parent element's final sign grants access.
//!
//! DTD-level (`Adtd`) authorizations of weak type are folded into their
//! strong counterparts: the paper notes weak/strong is meaningless at the
//! schema level ("both Local Weak and Recursive Weak for the DTD is
//! missing").
//!
//! ## The engine
//!
//! [`compute_view_engine`] / [`label_document_engine`] add two
//! orthogonal accelerations on top of the plain algorithm, both
//! semantics-preserving (the differential suite pins them against
//! [`crate::naive::compute_view_naive`] and the sequential path):
//!
//! - **Parallelism** ([`Parallelism`]): authorization-object path
//!   evaluations fan out across threads, and — because propagation into a
//!   child depends only on the parent's label — subtree labeling below a
//!   sequentially-labeled frontier fans out too. The node-visit budget
//!   becomes one *request-wide* [`SharedBudget`] drawn atomically and
//!   exactly by every evaluation on any thread, so whether the budget
//!   trips depends only on the request's total work, never on thread
//!   scheduling.
//! - **Decision memoization** ([`DecisionCache`]): two nodes selected by
//!   the same subset of applicable authorizations get the same initial
//!   label, so the engine keys the resolved label by match-bitmask (when
//!   the applicable sets fit 128 bits) in a per-worker memo, backed by an
//!   optional cross-request cache keyed additionally by
//!   [`crate::decision::policy_fingerprint`].

use crate::compile::{record_cell_hits, CompiledPolicy};
use crate::decision::{
    policy_fingerprint, record_mask_bypass, record_traffic, DecisionCache, DecisionKey,
};
use crate::label::{first_def, Label, Sign3};
use crate::par::{self, Parallelism};
use std::collections::HashMap;
use xmlsec_authz::{
    policy::resolve_sign, AuthType, Authorization, CompletenessPolicy, PolicyConfig,
};
use xmlsec_subjects::Directory;
use xmlsec_xml::cancel::{CancelToken, Cancelled};
use xmlsec_xml::{Document, NodeData, NodeId, SerializeOptions};
use xmlsec_xpath::{eval_path_shared, EvalError, EvalLimits, SharedBudget};

/// Counters the processor reports alongside a computed view.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ViewStats {
    /// Instance-level authorizations applicable to the requester.
    pub instance_auths: usize,
    /// Schema-level authorizations applicable to the requester.
    pub schema_auths: usize,
    /// Nodes (elements + attributes) labeled.
    pub labeled_nodes: usize,
    /// Nodes with a positive final sign.
    pub granted_nodes: usize,
    /// Nodes removed by pruning (elements, attributes, text, other).
    pub pruned_nodes: usize,
}

/// The outcome of the labeling pass: one [`Label`] per arena slot.
#[derive(Debug, Clone)]
pub struct Labeling {
    labels: Vec<Label>,
    /// Statistics accumulated during labeling.
    pub stats: ViewStats,
    /// Reuse state captured by [`label_document_incremental`]: per-slot
    /// match masks and arena generations, plus the policy fingerprint
    /// they were computed under. `None` for plain engine runs (no
    /// capture overhead on the read path), the compiled fast path, and
    /// runs whose applicable sets exceed the 128-bit mask.
    incremental: Option<IncrementalState>,
}

/// What [`label_document_incremental`] needs to decide, next time, which
/// nodes can keep their previous label: a node's label is a pure
/// function of its match mask and its parent's (already propagated)
/// label, so `(generation, mask, parent label)` unchanged ⇒ label
/// unchanged.
#[derive(Debug, Clone)]
struct IncrementalState {
    /// Per-slot match mask (bit `i` ⇔ the `i`-th canonical applicable
    /// authorization selects the node; instance low, schema above).
    masks: Vec<u128>,
    /// Arena slot generations at labeling time — a bumped generation
    /// means the slot was recycled and its previous label is about a
    /// different node.
    gens: Vec<u32>,
    /// [`policy_fingerprint`] of the applicable sets + policy + subject
    /// closure the masks were computed under.
    fingerprint: u64,
}

impl Labeling {
    /// The label of `n`.
    pub fn label(&self, n: NodeId) -> &Label {
        &self.labels[n.index()]
    }

    /// The final sign of `n`.
    pub fn final_sign(&self, n: NodeId) -> Sign3 {
        self.labels[n.index()].final_sign
    }

    /// Whether this labeling carries the reuse state a later
    /// [`label_document_incremental`] call can compare against.
    pub fn supports_incremental(&self) -> bool {
        self.incremental.is_some()
    }
}

/// How the engine evaluates: path-evaluation limits, thread knob, and
/// the optional cross-request decision memo.
#[derive(Debug, Clone, Copy)]
pub struct EngineOptions<'a> {
    /// Path-evaluation caps. `max_node_visits` is a **request-wide
    /// pool**: one [`SharedBudget`] shared by every authorization-object
    /// evaluation of the run, on any thread.
    pub limits: EvalLimits,
    /// Thread knob (default: sequential).
    pub parallelism: Parallelism,
    /// Cross-request decision memo, normally owned by the server.
    pub decisions: Option<&'a DecisionCache>,
    /// A policy compiled for this run's applicable sets (see
    /// [`mod@crate::compile`]). Guaranteed cells are served straight from
    /// its verdict table; when every cell is guaranteed the whole
    /// labeling pass is table lookups. Ignored unless its fingerprint
    /// matches the run. Sound only for documents conforming to the DTD
    /// it was compiled from — the caller owns that obligation (the
    /// processor validates before attaching one).
    pub compiled: Option<&'a CompiledPolicy>,
    /// Request-scoped cancellation. When set, the engine polls it
    /// cooperatively — at the labeling frontier, inside every fan-out
    /// worker's subtree walk, on the compiled fast path, and (via
    /// [`SharedBudget::with_cancel`]) at every node-visit budget draw —
    /// and unwinds with [`EvalError::Cancelled`], partial work discarded
    /// on the normal drop path.
    pub cancel: Option<&'a CancelToken>,
}

impl<'a> EngineOptions<'a> {
    /// Sequential evaluation with `limits`, no cross-request memo, no
    /// compiled policy and no cancellation.
    pub fn sequential(limits: EvalLimits) -> EngineOptions<'static> {
        EngineOptions {
            limits,
            parallelism: Parallelism::sequential(),
            decisions: None,
            compiled: None,
            cancel: None,
        }
    }

    /// The same options with a cancellation token attached.
    pub fn with_cancel(self, cancel: &'a CancelToken) -> EngineOptions<'a> {
        EngineOptions { cancel: Some(cancel), ..self }
    }
}

/// One matching authorization, pre-evaluated: which nodes its object
/// selects, and which type class it contributes to.
struct MatchedAuth<'a> {
    auth: &'a Authorization,
    /// Bitset over arena slots: nodes selected by the object's path
    /// expression (the root element for whole-document objects).
    selected: Vec<u64>,
}

impl MatchedAuth<'_> {
    #[inline]
    fn contains(&self, n: NodeId) -> bool {
        let i = n.index();
        (self.selected[i / 64] >> (i % 64)) & 1 == 1
    }
}

fn evaluate_auths<'a>(
    doc: &Document,
    auths: &[&'a Authorization],
    limits: &EvalLimits,
    pool: &SharedBudget,
    threads: usize,
) -> Result<Vec<MatchedAuth<'a>>, EvalError> {
    let words = doc.arena_len().div_ceil(64);
    let eval_one = |a: &&'a Authorization| -> Result<MatchedAuth<'a>, EvalError> {
        let mut selected = vec![0u64; words];
        match &a.object.path {
            Some(p) => {
                for n in eval_path_shared(doc, doc.root(), p, limits, pool)? {
                    selected[n.index() / 64] |= 1 << (n.index() % 64);
                }
            }
            None => {
                // A whole-document object is an authorization on the
                // document element.
                let r = doc.root().index();
                selected[r / 64] |= 1 << (r % 64);
            }
        }
        Ok(MatchedAuth { auth: a, selected })
    };
    if threads > 1 && auths.len() > 1 {
        par::run_tasks(threads, auths.to_vec(), eval_one).into_iter().collect()
    } else {
        auths.iter().map(eval_one).collect()
    }
}

/// The four instance type classes, in the tuple's order.
const INSTANCE_CLASSES: [AuthType; 4] =
    [AuthType::Local, AuthType::Recursive, AuthType::LocalWeak, AuthType::RecursiveWeak];

/// Computes the labeling of `doc` for the given applicable authorization
/// sets (`axml` = instance level, `adtd` = schema level — steps 1–2 of
/// the algorithm happen in the caller, which owns the authorization base).
pub fn label_document(
    doc: &Document,
    axml: &[&Authorization],
    adtd: &[&Authorization],
    dir: &Directory,
    policy: PolicyConfig,
) -> Labeling {
    let opts = EngineOptions::sequential(EvalLimits::unlimited());
    label_document_engine(doc, axml, adtd, dir, policy, &opts)
        .expect("unlimited evaluation cannot exhaust a budget")
}

/// A per-run (per-worker, under parallel labeling) memo of resolved
/// initial labels, keyed by `(is_attribute, match mask)`, with the run's
/// counters.
#[derive(Default)]
struct Memo {
    local: HashMap<(bool, u128), Label>,
    counts: Counts,
}

/// Per-run counters, aggregated in the memo and flushed to telemetry once
/// per run.
#[derive(Default, Clone, Copy)]
struct Counts {
    hits: u64,
    misses: u64,
    /// Compiled-table traffic (mixed mode): nodes served from an exact
    /// cell, by allowed-ness, and nodes that fell back to interpretation.
    cell_allow: u64,
    cell_deny: u64,
    cell_dep: u64,
    /// Nodes that kept their previous label vs. were labeled afresh
    /// (reported by incremental runs only).
    reused: u64,
    resolved: u64,
}

impl Counts {
    fn add(&mut self, o: Counts) {
        self.hits += o.hits;
        self.misses += o.misses;
        self.cell_allow += o.cell_allow;
        self.cell_deny += o.cell_deny;
        self.cell_dep += o.cell_dep;
        self.reused += o.reused;
        self.resolved += o.resolved;
    }
}

/// The full engine entry point for labeling. Path limits bound the
/// evaluations of the authorization objects: a pathological object
/// expression yields a typed [`EvalError`] instead of pinning the
/// server, and the node-visit budget is one request-wide pool shared by
/// all object evaluations. [`label_document`] is this with unlimited
/// [`EngineOptions::sequential`].
pub fn label_document_engine(
    doc: &Document,
    axml: &[&Authorization],
    adtd: &[&Authorization],
    dir: &Directory,
    policy: PolicyConfig,
    opts: &EngineOptions<'_>,
) -> Result<Labeling, EvalError> {
    label_run(doc, axml, adtd, dir, policy, opts, Run::Plain { fingerprint: None })
}

/// The kind of run [`label_run`] makes.
#[derive(Clone, Copy)]
pub(crate) enum Run<'p> {
    /// A plain engine run, reusing the [`policy_fingerprint`] of the
    /// inputs when the caller already computed it.
    Plain { fingerprint: Option<u64> },
    /// A [`label_document_incremental`] run: captures reuse state and
    /// keeps `prev`'s labels where its state allows.
    Incremental { prev: Option<&'p Labeling> },
}

/// Sorts an applicable set by rendered form. Mask bit `i` stands for the
/// `i`-th applicable authorization while [`policy_fingerprint`] is
/// order-independent, so wherever a mask outlives its run (decision-cache
/// keys, captured reuse state) the same set presented in a different
/// order must map bits identically. The rendered form covers every field
/// the resolution reads (subject, object, action, sign, type), so equal
/// renderings resolve equally.
fn canonical<'x>(set: &[&'x Authorization]) -> Vec<&'x Authorization> {
    let mut v = set.to_vec();
    v.sort_by_cached_key(|a| a.to_string());
    v
}

/// The labeling driver behind every entry point: plain, parallel,
/// compiled and incremental runs share its prologue, its walk and its
/// statistics.
pub(crate) fn label_run(
    doc: &Document,
    axml: &[&Authorization],
    adtd: &[&Authorization],
    dir: &Directory,
    policy: PolicyConfig,
    opts: &EngineOptions<'_>,
    run: Run<'_>,
) -> Result<Labeling, EvalError> {
    // Reuse state records every node's match mask, so past the 128-bit
    // cap an incremental run is a plain one and captures nothing.
    let incremental = matches!(run, Run::Incremental { .. }) && axml.len() + adtd.len() <= 128;

    // Fingerprint of the applicable sets: keys the cross-request decision
    // cache, tags captured reuse state, and guards the compiled table — a
    // compiled policy built for different applicable sets (stale, or
    // misrouted by the caller) is ignored, degrading to the interpreted
    // path instead of corrupting the view. Order-independent, so
    // computing it before the canonical reordering below is fine.
    let fingerprint = match run {
        Run::Plain { fingerprint: Some(fp) } => fp,
        _ if incremental || opts.decisions.is_some() || opts.compiled.is_some() => {
            policy_fingerprint(axml, adtd, dir, policy)
        }
        _ => 0,
    };
    let compiled = opts.compiled.filter(|cp| cp.fingerprint == fingerprint);

    // Boundary checkpoint before any work: a request that arrives with
    // its deadline already blown (or its client already gone) does not
    // label a single node.
    if let Some(t) = opts.cancel {
        t.check().map_err(|c| EvalError::Cancelled(c.reason))?;
    }

    // Whole-document fast path: every verdict-table cell carries a
    // plus-exact sign, so labeling is one table lookup per node — no
    // authorization object is ever evaluated (in particular the
    // node-visit budget cannot trip here). Bails to the interpreted
    // path on any element/attribute type absent from the table (a
    // document that does not conform to the compiled schema); a tripped
    // token is a typed error, never a silent fallback to the slow path.
    // Incremental runs skip it: it records no match masks.
    if let Some(cp) = compiled.filter(|cp| cp.fast_path && !incremental) {
        if let Some(labels) = label_fast_path(doc, cp, policy, opts.cancel)
            .map_err(|c| EvalError::Cancelled(c.reason))?
        {
            let stats = view_stats(doc, &labels, axml.len(), adtd.len());
            return Ok(Labeling { labels, stats, incremental: None });
        }
    }

    // Resolve the thread count once: a lease from the global core budget
    // (held for the whole run), skipped entirely for sequential knobs,
    // small documents and incremental runs. An `oversubscribe` knob runs
    // exactly the asked-for worker count — the lease is still taken so
    // the gauge stays honest.
    let mut _lease = None;
    let threads = if !incremental
        && !opts.parallelism.is_sequential()
        && doc.arena_len() >= opts.parallelism.seq_threshold
    {
        let want = opts.parallelism.want_threads();
        let lease = par::lease(want);
        let t = if opts.parallelism.oversubscribe { want.max(1) } else { lease.threads() };
        _lease = Some(lease);
        t
    } else {
        1
    };

    // Canonical order wherever mask bits outlive the run (see
    // [`canonical`]); sorted after the fast path, which reads no mask.
    let (axml_canon, adtd_canon);
    let (axml, adtd): (&[&Authorization], &[&Authorization]) =
        if incremental || opts.decisions.is_some() {
            axml_canon = canonical(axml);
            adtd_canon = canonical(adtd);
            (&axml_canon, &adtd_canon)
        } else {
            (axml, adtd)
        };

    // Past the mask cap every initial label is resolved from scratch:
    // surface the silent degradation (counter + one-time warning).
    if axml.len() + adtd.len() > 128 {
        record_mask_bypass(axml.len() + adtd.len());
    }

    // With a token attached, every budget draw in every evaluation —
    // on any thread — doubles as a cancellation checkpoint. Objects are
    // evaluated over the whole document on incremental runs too: a
    // predicate may read mutated content anywhere.
    let pool = match opts.cancel {
        Some(t) => SharedBudget::with_cancel(opts.limits.max_node_visits, t.clone()),
        None => SharedBudget::new(opts.limits.max_node_visits),
    };
    let xml_matched = evaluate_auths(doc, axml, &opts.limits, &pool, threads)?;
    let dtd_matched = evaluate_auths(doc, adtd, &opts.limits, &pool, threads)?;

    let mut ctx = LabelCtx {
        doc,
        xml: &xml_matched,
        dtd: &dtd_matched,
        dir,
        policy,
        fingerprint,
        decisions: opts.decisions,
        compiled,
        cancel: opts.cancel,
        reuse: None,
    };

    let captured = incremental.then(|| {
        let mut masks = vec![0u128; doc.arena_len()];
        for n in doc.preorder(doc.root()) {
            masks[n.index()] = ctx.mask_of(n);
        }
        let gens = (0..masks.len()).map(|i| doc.slot_generation(i).unwrap_or(0)).collect();
        IncrementalState { masks, gens, fingerprint }
    });
    if let (Some(now), Run::Incremental { prev: Some(prev) }) = (&captured, run) {
        if let Some(then) = prev.incremental.as_ref().filter(|s| s.fingerprint == fingerprint) {
            let clean = (0..now.masks.len())
                .map(|i| {
                    i < then.masks.len()
                        && then.gens[i] == now.gens[i]
                        && then.masks[i] == now.masks[i]
                })
                .collect();
            ctx.reuse = Some(Reuse { clean, prev: &prev.labels });
        }
    }

    let mut labels = vec![Label::default(); doc.arena_len()];
    let mut memo = Memo::default();

    // Frontier: unlabeled elements with their parent's label and whether
    // that label is unchanged since the previous run. The document
    // element starts it under a virtual all-ε parent, against which
    // propagation is the identity and which never changes.
    let mut frontier = vec![(doc.root(), Label::default(), true)];

    if threads > 1 {
        // Widen the frontier sequentially until there is enough fan-out
        // to keep every worker busy (each step descends one level).
        let target = threads * 4;
        while !frontier.is_empty() && frontier.len() < target {
            if let Some(t) = ctx.cancel {
                t.check().map_err(|c| EvalError::Cancelled(c.reason))?;
            }
            let mut next = Vec::new();
            for (n, parent, parent_same) in frontier.drain(..) {
                let mut emit = |i: usize, lab: Label| labels[i] = lab;
                let (lab, same) = ctx.label_step(n, &parent, parent_same, &mut memo, &mut emit);
                next.extend(doc.child_elements(n).map(|c| (c, lab, same)));
            }
            frontier = next;
        }
    }

    if threads > 1 && frontier.len() > 1 {
        // Fan the remaining subtrees out; each worker keeps one memo for
        // all the subtrees it labels (per task it hands over the counts
        // since its last task) and returns its slot writes, merged here —
        // no shared mutable label state. Cancellation is observed both
        // between tasks (the pool's handoff check) and inside each
        // subtree walk (`walk` polls); a tripped run discards every
        // partial buffer on the normal drop path.
        let results = par::run_tasks_cancellable(
            threads,
            frontier,
            ctx.cancel,
            Memo::default,
            |memo, &(n, parent, parent_same)| {
                let mut out: Vec<(usize, Label)> = Vec::new();
                let walked =
                    walk(&ctx, n, &parent, parent_same, memo, &mut |i, lab| out.push((i, lab)));
                walked.map(|()| (out, std::mem::take(&mut memo.counts)))
            },
        )
        .map_err(|c| EvalError::Cancelled(c.reason))?;
        for task in results {
            let (out, counts) = task.map_err(|c| EvalError::Cancelled(c.reason))?;
            memo.counts.add(counts);
            for (i, lab) in out {
                labels[i] = lab;
            }
        }
    } else {
        for (n, parent, parent_same) in frontier {
            let mut emit = |i: usize, lab: Label| labels[i] = lab;
            walk(&ctx, n, &parent, parent_same, &mut memo, &mut emit)
                .map_err(|c| EvalError::Cancelled(c.reason))?;
        }
    }
    let c = memo.counts;
    record_traffic(c.hits, c.misses);
    record_cell_hits(c.cell_allow, c.cell_deny, c.cell_dep);
    if incremental {
        record_relabel(c.reused, c.resolved);
    }

    let stats = view_stats(doc, &labels, axml.len(), adtd.len());
    Ok(Labeling { labels, stats, incremental: captured })
}

/// The statistics of a labeling: every element and attribute of `doc`
/// is labeled, and those with a positive final sign are granted.
fn view_stats(
    doc: &Document,
    labels: &[Label],
    instance_auths: usize,
    schema_auths: usize,
) -> ViewStats {
    let mut stats = ViewStats { instance_auths, schema_auths, ..Default::default() };
    for n in doc.preorder(doc.root()) {
        stats.labeled_nodes += 1;
        if labels[n.index()].final_sign == Sign3::Plus {
            stats.granted_nodes += 1;
        }
    }
    stats
}

/// What an incremental run may keep from the previous one.
struct Reuse<'a> {
    /// `clean[i]`: slot `i` holds the same node (generation) with the
    /// same match mask as in the previous run, so its previous label
    /// holds as long as its parent's label is unchanged too.
    clean: Vec<bool>,
    /// The previous run's labels.
    prev: &'a [Label],
}

struct LabelCtx<'a> {
    doc: &'a Document,
    xml: &'a [MatchedAuth<'a>],
    dtd: &'a [MatchedAuth<'a>],
    dir: &'a Directory,
    policy: PolicyConfig,
    /// [`policy_fingerprint`] when a cross-request cache is attached.
    fingerprint: u64,
    decisions: Option<&'a DecisionCache>,
    /// Fingerprint-verified compiled policy (mixed mode: exact cells
    /// short-circuit labeling per node type, the rest interprets).
    compiled: Option<&'a CompiledPolicy>,
    /// Request-scoped cancellation, polled in the subtree walks.
    cancel: Option<&'a CancelToken>,
    /// Set on incremental runs with a compatible previous labeling.
    reuse: Option<Reuse<'a>>,
}

impl LabelCtx<'_> {
    /// Decision memoization applies only while the combined applicable
    /// sets fit the 128-bit match mask.
    fn maskable(&self) -> bool {
        self.xml.len() + self.dtd.len() <= 128
    }

    /// The completeness rule pruning applies — used only to classify
    /// compiled-cell hits for telemetry.
    fn is_allowed(&self, s: Sign3) -> bool {
        s == Sign3::Plus
            || (self.policy.completeness == CompletenessPolicy::Open && s == Sign3::Eps)
    }

    /// The compiled exact label for element `n`, when the verdict table
    /// carries one (every post-fixpoint component a singleton — then the
    /// concrete propagated label is pinned on conforming instances).
    fn compiled_element(&self, n: NodeId, memo: &mut Memo) -> Option<Label> {
        let cp = self.compiled?;
        let exact = self.doc.element_name(n).and_then(|e| cp.elements.get(e)).and_then(|c| c.exact);
        match exact {
            Some(lab) => {
                if self.is_allowed(lab.final_sign) {
                    memo.counts.cell_allow += 1;
                } else {
                    memo.counts.cell_deny += 1;
                }
                Some(lab)
            }
            None => {
                memo.counts.cell_dep += 1;
                None
            }
        }
    }

    /// The compiled exact label for attribute `a` of element `parent_el`.
    fn compiled_attribute(&self, a: NodeId, parent_el: NodeId, memo: &mut Memo) -> Option<Label> {
        let cp = self.compiled?;
        let NodeData::Attr { name: attr, .. } = self.doc.node(a).data else { return None };
        let exact = self
            .doc
            .element_name(parent_el)
            .and_then(|e| cp.attributes.get(e))
            .and_then(|m| m.get(attr))
            .and_then(|c| c.exact);
        match exact {
            Some(lab) => {
                if self.is_allowed(lab.final_sign) {
                    memo.counts.cell_allow += 1;
                } else {
                    memo.counts.cell_deny += 1;
                }
                Some(lab)
            }
            None => {
                memo.counts.cell_dep += 1;
                None
            }
        }
    }

    /// Bit `i` ⇔ the `i`-th applicable authorization selects `n`
    /// (instance auths low, schema auths above them).
    fn mask_of(&self, n: NodeId) -> u128 {
        let mut mask = 0u128;
        for (i, m) in self.xml.iter().enumerate() {
            if m.contains(n) {
                mask |= 1 << i;
            }
        }
        let off = self.xml.len();
        for (i, m) in self.dtd.iter().enumerate() {
            if m.contains(n) {
                mask |= 1 << (off + i);
            }
        }
        mask
    }

    /// The paper's `initial_label(n)`: per-class sign from the matching
    /// authorizations, with most-specific-subject filtering (steps 1–2),
    /// memoized through `memo` (and the cross-request cache) by match
    /// mask.
    ///
    /// For attribute nodes, recursive-type authorizations selecting the
    /// attribute fold into the corresponding local class (`R → L`,
    /// `RW → LW`): recursion is meaningless on a leaf.
    fn initial_label(&self, n: NodeId, is_attribute: bool, memo: &mut Memo) -> Label {
        if !self.maskable() {
            return self.resolve_with(
                is_attribute,
                |i| self.xml[i].contains(n),
                |i| self.dtd[i].contains(n),
            );
        }
        let mask = self.mask_of(n);
        if let Some(lab) = memo.local.get(&(is_attribute, mask)) {
            memo.counts.hits += 1;
            return *lab;
        }
        let key = DecisionKey { fingerprint: self.fingerprint, is_attribute, mask };
        if let Some(shared) = self.decisions {
            if let Some(lab) = shared.get(&key) {
                memo.counts.hits += 1;
                memo.local.insert((is_attribute, mask), lab);
                return lab;
            }
        }
        memo.counts.misses += 1;
        let off = self.xml.len();
        let lab = self.resolve_with(
            is_attribute,
            |i| (mask >> i) & 1 == 1,
            |i| (mask >> (off + i)) & 1 == 1,
        );
        memo.local.insert((is_attribute, mask), lab);
        if let Some(shared) = self.decisions {
            shared.put(key, lab);
        }
        lab
    }

    /// One shared resolution body for both the direct and the mask-keyed
    /// paths (so they cannot diverge): `xml_sel`/`dtd_sel` say which
    /// applicable authorizations select the node.
    fn resolve_with(
        &self,
        is_attribute: bool,
        xml_sel: impl Fn(usize) -> bool,
        dtd_sel: impl Fn(usize) -> bool,
    ) -> Label {
        let mut lab = Label::default();
        let mut bucket: Vec<&Authorization> = Vec::new();

        for class in INSTANCE_CLASSES {
            bucket.clear();
            for (i, m) in self.xml.iter().enumerate() {
                if !xml_sel(i) {
                    continue;
                }
                let ty = m.auth.ty;
                let effective = if is_attribute {
                    match ty {
                        AuthType::Recursive => AuthType::Local,
                        AuthType::RecursiveWeak => AuthType::LocalWeak,
                        t => t,
                    }
                } else {
                    ty
                };
                if effective == class {
                    bucket.push(m.auth);
                }
            }
            let sign: Sign3 = resolve_sign(&bucket, self.dir, self.policy.conflict).into();
            match class {
                AuthType::Local => lab.l = sign,
                AuthType::Recursive => lab.r = sign,
                AuthType::LocalWeak => lab.lw = sign,
                AuthType::RecursiveWeak => lab.rw = sign,
            }
        }

        // Schema level: weak folds into strong, recursive folds into
        // local for attributes.
        for local in [true, false] {
            bucket.clear();
            for (i, m) in self.dtd.iter().enumerate() {
                if !dtd_sel(i) {
                    continue;
                }
                let recursive = m.auth.ty.is_recursive() && !is_attribute;
                if local != recursive {
                    bucket.push(m.auth);
                }
            }
            let sign: Sign3 = resolve_sign(&bucket, self.dir, self.policy.conflict).into();
            if local {
                lab.ld = sign;
            } else {
                lab.rd = sign;
            }
        }
        lab
    }

    /// Labels an attribute from its own initial label and the parent
    /// element's component signs (`parent_el` is the owning element, so
    /// compiled cells can be looked up by type).
    fn label_attribute(
        &self,
        a: NodeId,
        parent_el: NodeId,
        parent: &Label,
        memo: &mut Memo,
    ) -> Label {
        if let Some(lab) = self.compiled_attribute(a, parent_el, memo) {
            return lab;
        }
        let mut lab = self.initial_label(a, true, memo);
        // Structural nulls for leaves.
        lab.r = Sign3::Eps;
        lab.rw = Sign3::Eps;
        lab.rd = Sign3::Eps;
        let strong_p = first_def([parent.l, parent.r]);
        let schema_p = first_def([parent.ld, parent.rd]);
        let weak_p = first_def([parent.lw, parent.rw]);
        lab.final_sign = first_def([lab.l, strong_p, lab.ld, schema_p, lab.lw, weak_p]);
        lab
    }

    /// Propagation step for an element with parent label `parent`.
    fn label_element(&self, n: NodeId, parent: &Label, memo: &mut Memo) -> Label {
        if let Some(lab) = self.compiled_element(n, memo) {
            return lab;
        }
        let mut lab = self.initial_label(n, false, memo);
        // Most specific overrides: an instance recursive authorization on
        // the node (strong or weak) stops the parent's instance
        // propagation entirely; otherwise both propagate.
        if !lab.r.is_def() && !lab.rw.is_def() {
            lab.r = parent.r;
            lab.rw = parent.rw;
        }
        lab.rd = first_def([lab.rd, parent.rd]);
        lab.final_sign = lab.collapse();
        lab
    }

    /// The previous label of slot `i` when it still holds: reuse state is
    /// attached, the slot is clean, and its parent kept its label
    /// (`parent_same`). A label is a pure function of the node's match
    /// mask and its parent's label, so nothing else can have changed it.
    fn kept(&self, i: usize, parent_same: bool, memo: &mut Memo) -> Option<Label> {
        match self.reuse.as_ref().filter(|r| parent_same && r.clean[i]) {
            Some(r) => {
                memo.counts.reused += 1;
                Some(r.prev[i])
            }
            None => {
                memo.counts.resolved += 1;
                None
            }
        }
    }

    /// Labels element `n` and its attributes under the parent's label,
    /// emitting `(arena slot, label)` pairs and keeping previous labels
    /// where [`LabelCtx::kept`] allows. Returns `n`'s label and whether it
    /// was kept: only then may its clean children keep theirs.
    fn label_step(
        &self,
        n: NodeId,
        parent: &Label,
        parent_same: bool,
        memo: &mut Memo,
        emit: &mut impl FnMut(usize, Label),
    ) -> (Label, bool) {
        let kept = self.kept(n.index(), parent_same, memo);
        let lab = kept.unwrap_or_else(|| self.label_element(n, parent, memo));
        emit(n.index(), lab);
        for &a in self.doc.attributes(n) {
            let lab_a = match self.kept(a.index(), kept.is_some(), memo) {
                Some(prev) => prev,
                None => self.label_attribute(a, n, &lab, memo),
            };
            emit(a.index(), lab_a);
        }
        (lab, kept.is_some())
    }
}

/// Labels the subtree rooted at `n` under its parent's (already decided)
/// label, emitting `(arena slot, label)` pairs — directly into the label
/// vector on the sequential path, into a per-worker buffer under
/// parallel fan-out. `parent_same`: the parent kept its previous label.
/// Polls the request token once per element (amortized inside
/// [`CancelToken::poll`]), unwinding through the recursion with the
/// partial emit buffer discarded by the caller.
fn walk(
    ctx: &LabelCtx<'_>,
    n: NodeId,
    parent: &Label,
    parent_same: bool,
    memo: &mut Memo,
    emit: &mut impl FnMut(usize, Label),
) -> Result<(), Cancelled> {
    if let Some(t) = ctx.cancel {
        t.poll()?;
    }
    let (lab, same) = ctx.label_step(n, parent, parent_same, memo, emit);
    for c in ctx.doc.child_elements(n) {
        walk(ctx, c, &lab, same, memo, emit)?;
    }
    Ok(())
}

/// Whole-document fast path over a fully-guaranteed verdict table: one
/// lookup per element/attribute, writing only the representative final
/// sign (pruning and the statistics read nothing else — components stay
/// at their defaults). Returns `Ok(None)` when the document mentions an
/// element or attribute type the table has no cell for, i.e. it cannot
/// conform to the compiled schema; the caller then falls back to the
/// interpreted path. A tripped cancellation token is `Err` — even the
/// table-lookup path stays responsive on huge documents, and a cancelled
/// request never silently degrades to the interpreted engine.
fn label_fast_path(
    doc: &Document,
    cp: &CompiledPolicy,
    policy: PolicyConfig,
    cancel: Option<&CancelToken>,
) -> Result<Option<Vec<Label>>, Cancelled> {
    if doc.element_name(doc.root()) != Some(cp.root.as_str()) {
        return Ok(None);
    }
    let open = policy.completeness == CompletenessPolicy::Open;
    let mut labels = vec![Label::default(); doc.arena_len()];
    let (mut allow, mut deny) = (0u64, 0u64);
    let mut stack = vec![doc.root()];
    while let Some(n) = stack.pop() {
        if let Some(t) = cancel {
            t.poll()?;
        }
        let Some(name) = doc.element_name(n) else { return Ok(None) };
        let Some(rep) = cp.elements.get(name).and_then(|c| c.representative) else {
            return Ok(None);
        };
        labels[n.index()].final_sign = rep;
        if rep == Sign3::Plus || (open && rep == Sign3::Eps) {
            allow += 1;
        } else {
            deny += 1;
        }
        let attr_cells = cp.attributes.get(name);
        for &a in doc.attributes(n) {
            let NodeData::Attr { name: attr, .. } = doc.node(a).data else { continue };
            let Some(rep) = attr_cells.and_then(|m| m.get(attr)).and_then(|c| c.representative)
            else {
                return Ok(None);
            };
            labels[a.index()].final_sign = rep;
            if rep == Sign3::Plus || (open && rep == Sign3::Eps) {
                allow += 1;
            } else {
                deny += 1;
            }
        }
        stack.extend(doc.child_elements(n));
    }
    record_cell_hits(allow, deny, 0);
    Ok(Some(labels))
}

/// Flushes incremental-relabel traffic to telemetry: how many nodes kept
/// their previous label vs. were resolved from scratch.
fn record_relabel(reused: u64, resolved: u64) {
    use std::sync::OnceLock;
    use xmlsec_telemetry as telemetry;
    static REUSED: OnceLock<std::sync::Arc<telemetry::Counter>> = OnceLock::new();
    static RESOLVED: OnceLock<std::sync::Arc<telemetry::Counter>> = OnceLock::new();
    REUSED
        .get_or_init(|| {
            telemetry::global().counter(
                "xmlsec_relabel_nodes_total",
                "Nodes whose label was reused across an incremental relabel.",
                &[("kind", "reused")],
            )
        })
        .add(reused);
    RESOLVED
        .get_or_init(|| {
            telemetry::global().counter(
                "xmlsec_relabel_nodes_total",
                "Nodes whose label was reused across an incremental relabel.",
                &[("kind", "resolved")],
            )
        })
        .add(resolved);
}

/// Labels `doc` like [`label_document_engine`], but captures per-slot
/// reuse state in the returned [`Labeling`] and — when `prev` carries
/// compatible state from an earlier call — **relabels only the dirty
/// region**: the nodes whose match mask changed, the slots recycled by
/// the update, and the descendants of every node it relabels. Everything
/// else keeps its previous label without touching the resolution
/// machinery.
///
/// Soundness: a node's label is a pure function of `(its match mask,
/// its parent's label)` — the element and attribute label rules read
/// nothing else — and a compiled verdict cell is keyed by the node's
/// type alone, which cannot change while the slot generation is
/// unchanged. Authorization objects are re-evaluated globally every call
/// (an XPath predicate may read content anywhere in the document), so
/// changed masks are always observed; the walk then relabels only where
/// `(generation, mask, parent label)` differs from the previous run,
/// which makes the result identical — not just equivalent — to a cold
/// [`label_document_engine`] run. Incremental runs are sequential and
/// never take the compiled fast path.
///
/// `prev` is ignored (full relabel, state still captured) when it has no
/// reuse state or was computed under a different policy fingerprint.
/// Applicable sets past the 128-bit mask cap fall back to the plain
/// engine and return a labeling without reuse state.
pub fn label_document_incremental(
    doc: &Document,
    axml: &[&Authorization],
    adtd: &[&Authorization],
    dir: &Directory,
    policy: PolicyConfig,
    opts: &EngineOptions<'_>,
    prev: Option<&Labeling>,
) -> Result<Labeling, EvalError> {
    label_run(doc, axml, adtd, dir, policy, opts, Run::Incremental { prev })
}

/// The paper's `prune(T, n)` (postorder): removes from `doc` every node
/// whose subtree contains no granted node. Returns the number of nodes
/// removed. The root element always survives (its start/end tags frame
/// the view). Which nodes go is decided by the same rule
/// [`render_view`] applies.
pub fn prune_document(doc: &mut Document, labeling: &Labeling, policy: PolicyConfig) -> usize {
    let keep = visible_nodes(doc, labeling, policy);
    let mut removed = 0usize;
    let root = doc.root();
    detach_hidden(doc, root, &keep, &mut removed);
    removed
}

/// Detaches every node below `n` that `keep` rejects, children before
/// their parent, filtering each kept range in place.
fn detach_hidden(doc: &mut Document, n: NodeId, keep: &[bool], removed: &mut usize) {
    // Pruning below a child filters only that child's own range, so
    // `n`'s children stay where they are until `n`'s own filter.
    for i in 0..doc.children(n).len() {
        let c = doc.children(n)[i];
        if doc.is_element(c) {
            detach_hidden(doc, c, keep, removed);
        }
    }
    *removed += doc.retain(n, |m| keep[m.index()]);
}

/// Renders the view of `doc` under `labeling` and `policy` straight to
/// text: the bytes [`xmlsec_xml::serialize()`] writes for a pruned copy
/// (`prune_document` on `doc.clone()`), without copying the tree. Every
/// served view is rendered this way, read misses and patched views
/// alike, from the shared DOM of the document's revision.
pub fn render_view(
    doc: &Document,
    labeling: &Labeling,
    policy: PolicyConfig,
    opts: &SerializeOptions,
) -> String {
    let keep = visible_nodes(doc, labeling, policy);
    xmlsec_xml::serialize_filtered(doc, opts, &|n| keep[n.index()])
}

/// Which nodes a view of `doc` keeps, indexed by arena slot. The one
/// visibility rule behind [`prune_document`] and [`render_view`]:
///
/// - an attribute is kept by its own final sign;
/// - text, comments and PIs follow their element's sign (the content of
///   a structure-only element is hidden);
/// - an element survives if it is allowed, or keeps an attribute or a
///   child;
/// - the root always survives.
fn visible_nodes(doc: &Document, labeling: &Labeling, policy: PolicyConfig) -> Vec<bool> {
    let open = policy.completeness == CompletenessPolicy::Open;
    let allowed = |s: Sign3| s == Sign3::Plus || (open && s == Sign3::Eps);
    let mut keep = vec![false; doc.arena_len()];
    let root = doc.root();
    mark_visible(doc, root, labeling, allowed, &mut keep);
    keep[root.index()] = true;
    keep
}

/// Marks the subtree of element `n` in `keep`; returns whether `n`
/// survives.
fn mark_visible(
    doc: &Document,
    n: NodeId,
    labeling: &Labeling,
    allowed: impl Fn(Sign3) -> bool + Copy,
    keep: &mut [bool],
) -> bool {
    let self_allowed = allowed(labeling.final_sign(n));
    let mut survives = self_allowed;
    for &a in doc.attributes(n) {
        keep[a.index()] = allowed(labeling.final_sign(a));
        survives |= keep[a.index()];
    }
    for &c in doc.children(n) {
        keep[c.index()] = if doc.is_element(c) {
            mark_visible(doc, c, labeling, allowed, keep)
        } else {
            self_allowed
        };
        survives |= keep[c.index()];
    }
    keep[n.index()] = survives;
    survives
}

/// Convenience: label `doc` and prune a *copy*, leaving the original
/// untouched. Returns the view document and the statistics.
pub fn compute_view(
    doc: &Document,
    axml: &[&Authorization],
    adtd: &[&Authorization],
    dir: &Directory,
    policy: PolicyConfig,
) -> (Document, ViewStats) {
    let opts = EngineOptions::sequential(EvalLimits::unlimited());
    compute_view_engine(doc.clone(), axml, adtd, dir, policy, &opts)
        .expect("unlimited evaluation cannot exhaust a budget")
}

/// The full engine entry point: [`label_document_engine`] on `doc`, then
/// pruning of `doc` itself, in place — the caller hands over a document
/// it no longer needs (clone first to keep the original). Parallel
/// callers get the same bytes as sequential ones (differential-tested),
/// faster.
pub fn compute_view_engine(
    mut doc: Document,
    axml: &[&Authorization],
    adtd: &[&Authorization],
    dir: &Directory,
    policy: PolicyConfig,
    opts: &EngineOptions<'_>,
) -> Result<(Document, ViewStats), EvalError> {
    let labeling = label_document_engine(&doc, axml, adtd, dir, policy, opts)?;
    let pruned_nodes = prune_document(&mut doc, &labeling, policy);
    Ok((doc, ViewStats { pruned_nodes, ..labeling.stats }))
}

/// Renders the labeled tree with per-node signs (diagnostics, and the
/// basis for the Figure 3 reproduction).
pub fn render_labeled(doc: &Document, labeling: &Labeling) -> String {
    let mut out = String::new();
    render_rec(doc, doc.root(), labeling, 0, &mut out);
    out
}

fn render_rec(doc: &Document, n: NodeId, labeling: &Labeling, depth: usize, out: &mut String) {
    let lab = labeling.label(n);
    let pad = "  ".repeat(depth);
    match &doc.node(n).data {
        NodeData::Element { name, .. } => {
            out.push_str(&format!("{pad}({name}) [{}]\n", lab.final_sign.symbol()));
            for &a in doc.attributes(n) {
                render_rec(doc, a, labeling, depth + 1, out);
            }
            for &c in doc.children(n) {
                render_rec(doc, c, labeling, depth + 1, out);
            }
        }
        NodeData::Attr { name, value } => {
            out.push_str(&format!("{pad}[{name}={value:?}] [{}]\n", lab.final_sign.symbol()));
        }
        NodeData::Text(t) => {
            out.push_str(&format!("{pad}{:?}\n", t));
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmlsec_authz::{AuthType, Authorization, ObjectSpec, Sign};
    use xmlsec_subjects::Subject;
    use xmlsec_xml::{parse, serialize, SerializeOptions};

    fn dir() -> Directory {
        let mut d = Directory::new();
        d.add_user("u").unwrap();
        d.add_group("G").unwrap();
        d.add_member("u", "G").unwrap();
        d
    }

    fn auth(spec: &str, sign: Sign, ty: AuthType) -> Authorization {
        Authorization::new(
            Subject::new("u", "*", "*").unwrap(),
            ObjectSpec::parse(spec).unwrap(),
            sign,
            ty,
        )
    }

    fn view_str(doc_text: &str, axml: &[Authorization], adtd: &[Authorization]) -> String {
        let doc = parse(doc_text).unwrap();
        let ax: Vec<&Authorization> = axml.iter().collect();
        let ad: Vec<&Authorization> = adtd.iter().collect();
        let (view, _) = compute_view(&doc, &ax, &ad, &dir(), PolicyConfig::paper_default());
        serialize(&view, &SerializeOptions::canonical())
    }

    #[test]
    fn closed_policy_hides_everything_without_authorizations() {
        let v = view_str("<a><b>t</b></a>", &[], &[]);
        assert_eq!(v, "<a/>");
    }

    #[test]
    fn recursive_permission_reveals_subtree() {
        let v = view_str(
            r#"<a><b x="1">t</b><c/></a>"#,
            &[auth("d.xml:/a", Sign::Plus, AuthType::Recursive)],
            &[],
        );
        assert_eq!(v, r#"<a><b x="1">t</b><c/></a>"#);
    }

    #[test]
    fn local_permission_covers_element_and_attributes_only() {
        let v = view_str(
            r#"<a x="1"><b y="2">t</b></a>"#,
            &[auth("d.xml:/a", Sign::Plus, AuthType::Local)],
            &[],
        );
        // a and @x visible; b (no auth, closed) pruned. a's text would be
        // visible but a has none.
        assert_eq!(v, r#"<a x="1"/>"#);
    }

    #[test]
    fn exception_overrides_recursive_grant() {
        // "the whole content but a specific element can be read"
        let v = view_str(
            r#"<a><b>keep</b><secret>no</secret></a>"#,
            &[
                auth("d.xml:/a", Sign::Plus, AuthType::Recursive),
                auth("d.xml:/a/secret", Sign::Minus, AuthType::Recursive),
            ],
            &[],
        );
        assert_eq!(v, "<a><b>keep</b></a>");
    }

    #[test]
    fn structure_preserved_for_visible_descendants() {
        // grant only on the deep node: ancestors' tags survive, their
        // text/attrs don't.
        let v = view_str(
            r#"<a x="1">atext<b y="2">btext<c z="3">ctext</c></b></a>"#,
            &[auth("d.xml:/a/b/c", Sign::Plus, AuthType::Recursive)],
            &[],
        );
        assert_eq!(v, r#"<a><b><c z="3">ctext</c></b></a>"#);
    }

    #[test]
    fn most_specific_object_wins_on_path_overlap() {
        // deny all papers recursively, but allow the public one locally
        let v = view_str(
            r#"<lab><paper category="private">p1</paper><paper category="public">p2</paper></lab>"#,
            &[
                auth("d.xml:/lab", Sign::Plus, AuthType::Recursive),
                auth("d.xml:/lab/paper", Sign::Minus, AuthType::Recursive),
                auth(r#"d.xml:/lab/paper[./@category="public"]"#, Sign::Plus, AuthType::Local),
            ],
            &[],
        );
        assert_eq!(v, r#"<lab><paper category="public">p2</paper></lab>"#);
    }

    #[test]
    fn schema_beats_weak_instance() {
        let axml = [auth("d.xml:/a/b", Sign::Plus, AuthType::RecursiveWeak)];
        let adtd = [auth("s.dtd://b", Sign::Minus, AuthType::Recursive)];
        let v = view_str("<a><b>t</b></a>", &axml, &adtd);
        assert_eq!(v, "<a/>");
        // flip: strong instance beats schema
        let axml2 = [auth("d.xml:/a/b", Sign::Plus, AuthType::Recursive)];
        let v2 = view_str("<a><b>t</b></a>", &axml2, &adtd);
        assert_eq!(v2, "<a><b>t</b></a>");
    }

    #[test]
    fn schema_recursive_propagates_through_instances() {
        let adtd = [auth("s.dtd:/a", Sign::Plus, AuthType::Recursive)];
        let v = view_str(r#"<a><b><c x="1">deep</c></b></a>"#, &[], &adtd);
        assert_eq!(v, r#"<a><b><c x="1">deep</c></b></a>"#);
    }

    #[test]
    fn weak_recursive_yields_to_schema_deep_down() {
        // weak + on root, schema - on deep node: schema wins there.
        let axml = [auth("d.xml:/a", Sign::Plus, AuthType::RecursiveWeak)];
        let adtd = [auth("s.dtd://c", Sign::Minus, AuthType::Local)];
        let v = view_str("<a><b>keep</b><c>drop</c></a>", &axml, &adtd);
        assert_eq!(v, "<a><b>keep</b></a>");
    }

    #[test]
    fn attribute_denial_is_honored() {
        let v = view_str(
            r#"<a x="1" y="2">t</a>"#,
            &[
                auth("d.xml:/a", Sign::Plus, AuthType::Recursive),
                auth("d.xml:/a/@y", Sign::Minus, AuthType::Local),
            ],
            &[],
        );
        assert_eq!(v, r#"<a x="1">t</a>"#);
    }

    #[test]
    fn attribute_grant_alone_keeps_element_shell() {
        let v =
            view_str(r#"<a x="1">t</a>"#, &[auth("d.xml:/a/@x", Sign::Plus, AuthType::Local)], &[]);
        // @x visible, element text not (element itself unlabeled).
        assert_eq!(v, r#"<a x="1"/>"#);
    }

    #[test]
    fn local_on_parent_propagates_to_attributes_not_subelements() {
        let v = view_str(
            r#"<a x="1"><b y="2"/></a>"#,
            &[auth("d.xml:/a", Sign::Plus, AuthType::Local)],
            &[],
        );
        assert_eq!(v, r#"<a x="1"/>"#);
    }

    #[test]
    fn open_policy_reveals_unlabeled_nodes() {
        let doc = parse("<a><b>t</b></a>").unwrap();
        let policy = PolicyConfig {
            completeness: CompletenessPolicy::Open,
            ..PolicyConfig::paper_default()
        };
        let (view, _) = compute_view(&doc, &[], &[], &dir(), policy);
        assert_eq!(serialize(&view, &SerializeOptions::canonical()), "<a><b>t</b></a>");
        // explicit denial still hides under open policy
        let a = auth("d.xml:/a/b", Sign::Minus, AuthType::Recursive);
        let (view2, _) = compute_view(&doc, &[&a], &[], &dir(), policy);
        assert_eq!(serialize(&view2, &SerializeOptions::canonical()), "<a/>");
    }

    #[test]
    fn group_authorization_applies_through_membership() {
        let d = dir();
        let doc = parse("<a>t</a>").unwrap();
        let g = Authorization::new(
            Subject::new("G", "*", "*").unwrap(),
            ObjectSpec::parse("d.xml:/a").unwrap(),
            Sign::Plus,
            AuthType::Recursive,
        );
        // The caller (store) filters by requester coverage; here the auth
        // is already applicable, so labeling just uses it.
        let (view, stats) = compute_view(&doc, &[&g], &[], &d, PolicyConfig::paper_default());
        assert_eq!(serialize(&view, &SerializeOptions::canonical()), "<a>t</a>");
        assert_eq!(stats.instance_auths, 1);
    }

    #[test]
    fn stats_are_reported() {
        let doc = parse(r#"<a x="1"><b/><c/></a>"#).unwrap();
        let a = auth("d.xml:/a/b", Sign::Plus, AuthType::Recursive);
        let (_, stats) = compute_view(&doc, &[&a], &[], &dir(), PolicyConfig::paper_default());
        assert_eq!(stats.labeled_nodes, 4); // a, @x, b, c
        assert_eq!(stats.granted_nodes, 1); // b
        assert!(stats.pruned_nodes >= 2); // @x and c at least
    }

    #[test]
    fn conditional_authorization_follows_content() {
        let v = view_str(
            r#"<lab><p t="x"><s>1</s></p><p t="y"><s>2</s></p></lab>"#,
            &[auth(r#"d.xml:/lab/p[./@t="x"]"#, Sign::Plus, AuthType::Recursive)],
            &[],
        );
        assert_eq!(v, r#"<lab><p t="x"><s>1</s></p></lab>"#);
    }

    #[test]
    fn labeled_render_shows_signs() {
        let doc = parse("<a><b/></a>").unwrap();
        let a = auth("d.xml:/a/b", Sign::Plus, AuthType::Recursive);
        let labeling = label_document(&doc, &[&a], &[], &dir(), PolicyConfig::paper_default());
        let s = render_labeled(&doc, &labeling);
        assert!(s.contains("(a) [ε]"), "{s}");
        assert!(s.contains("(b) [+]"), "{s}");
    }

    #[test]
    fn weak_local_overridden_by_dtd_local_on_same_node() {
        let axml = [auth("d.xml:/a", Sign::Minus, AuthType::LocalWeak)];
        let adtd = [auth("s.dtd:/a", Sign::Plus, AuthType::Local)];
        let v = view_str("<a>t</a>", &axml, &adtd);
        assert_eq!(v, "<a>t</a>");
    }

    #[test]
    fn instance_recursive_on_node_stops_parent_propagation_even_if_weak() {
        // Parent grants recursively (strong); node has weak recursive
        // denial. Per the propagation rule, the node's weak recursive stops
        // the parent's strong propagation, so at the node the sequence is
        // [L=ε, R=ε, LD=ε, RD=ε, LW=ε, RW=-] → '-'.
        let axml = [
            auth("d.xml:/a", Sign::Plus, AuthType::Recursive),
            auth("d.xml:/a/b", Sign::Minus, AuthType::RecursiveWeak),
        ];
        let v = view_str("<a><b>t</b>sibling</a>", &axml, &[]);
        assert_eq!(v, "<a>sibling</a>");
    }

    // ---- engine: parallelism + decision cache ----

    /// A repetitive multi-level document big enough to exercise frontier
    /// expansion and fan-out.
    fn wide_doc_text() -> String {
        let mut s = String::from("<lab>");
        for i in 0..40 {
            s.push_str(&format!(
                r#"<project id="{i}" kind="{}">"#,
                if i % 3 == 0 { "open" } else { "internal" }
            ));
            for j in 0..6 {
                s.push_str(&format!(
                    r#"<paper n="{j}"><title>t{i}-{j}</title><body>text</body></paper>"#
                ));
            }
            s.push_str("</project>");
        }
        s.push_str("</lab>");
        s
    }

    fn engine_auths() -> Vec<Authorization> {
        vec![
            auth("d.xml:/lab", Sign::Plus, AuthType::Recursive),
            auth(r#"d.xml://project[./@kind="internal"]"#, Sign::Minus, AuthType::Recursive),
            auth(
                r#"d.xml://project[./@kind="internal"]/paper[./@n="1"]"#,
                Sign::Plus,
                AuthType::Local,
            ),
            auth("d.xml://body", Sign::Minus, AuthType::LocalWeak),
        ]
    }

    #[test]
    fn parallel_engine_matches_sequential_bytes_and_stats() {
        let doc = parse(&wide_doc_text()).unwrap();
        let auths = engine_auths();
        let ax: Vec<&Authorization> = auths.iter().collect();
        let policy = PolicyConfig::paper_default();
        let d = dir();
        let seq = EngineOptions::sequential(EvalLimits::default_limits());
        let (view_seq, stats_seq) =
            compute_view_engine(doc.clone(), &ax, &[], &d, policy, &seq).unwrap();
        for threads in [2usize, 4, 8] {
            let par_opts = EngineOptions {
                limits: EvalLimits::default_limits(),
                parallelism: Parallelism::threads(threads).with_seq_threshold(0).exact(),
                decisions: None,
                compiled: None,
                cancel: None,
            };
            let (view_par, stats_par) =
                compute_view_engine(doc.clone(), &ax, &[], &d, policy, &par_opts).unwrap();
            assert_eq!(
                serialize(&view_par, &SerializeOptions::canonical()),
                serialize(&view_seq, &SerializeOptions::canonical()),
                "parallel view must be byte-identical ({threads} threads)"
            );
            assert_eq!(stats_par, stats_seq);
        }
    }

    #[test]
    fn decision_cache_is_populated_and_preserves_output() {
        let doc = parse(&wide_doc_text()).unwrap();
        let auths = engine_auths();
        let ax: Vec<&Authorization> = auths.iter().collect();
        let policy = PolicyConfig::paper_default();
        let d = dir();
        let plain = EngineOptions::sequential(EvalLimits::default_limits());
        let (view_plain, _) =
            compute_view_engine(doc.clone(), &ax, &[], &d, policy, &plain).unwrap();

        let cache = DecisionCache::new();
        let cached = EngineOptions { decisions: Some(&cache), ..plain };
        let (v1, _) = compute_view_engine(doc.clone(), &ax, &[], &d, policy, &cached).unwrap();
        assert!(!cache.is_empty(), "engine must memoize decisions");
        let warm = cache.len();
        let (v2, _) = compute_view_engine(doc.clone(), &ax, &[], &d, policy, &cached).unwrap();
        assert_eq!(cache.len(), warm, "second run adds no new decisions");
        let want = serialize(&view_plain, &SerializeOptions::canonical());
        assert_eq!(serialize(&v1, &SerializeOptions::canonical()), want);
        assert_eq!(serialize(&v2, &SerializeOptions::canonical()), want);
    }

    #[test]
    fn decision_cache_keys_are_canonical_under_permuted_auth_order() {
        // DecisionKey.mask assigns bit i to the i-th applicable
        // authorization; the fingerprint is order-independent. The engine
        // therefore canonicalizes the slice order when a cache is
        // attached — otherwise a request presenting the same set in a
        // different order would hit entries keyed under a permuted
        // bit-to-authorization mapping and resolve wrong labels.
        let doc = parse(&wide_doc_text()).unwrap();
        let auths = engine_auths();
        let ax: Vec<&Authorization> = auths.iter().collect();
        let mut reversed = ax.clone();
        reversed.reverse();
        let d = dir();
        let policy = PolicyConfig::paper_default();
        let plain = EngineOptions::sequential(EvalLimits::default_limits());
        let (view, _) = compute_view_engine(doc.clone(), &ax, &[], &d, policy, &plain).unwrap();
        let want = serialize(&view, &SerializeOptions::canonical());

        let cache = DecisionCache::new();
        let cached = EngineOptions { decisions: Some(&cache), ..plain };
        let (v1, _) = compute_view_engine(doc.clone(), &ax, &[], &d, policy, &cached).unwrap();
        let warm = cache.len();
        let (v2, _) =
            compute_view_engine(doc.clone(), &reversed, &[], &d, policy, &cached).unwrap();
        assert_eq!(cache.len(), warm, "permuted presentation shares the warm entries");
        assert_eq!(serialize(&v1, &SerializeOptions::canonical()), want);
        assert_eq!(
            serialize(&v2, &SerializeOptions::canonical()),
            want,
            "a warm cache must not leak labels across a permuted bit mapping"
        );
    }

    // ---- engine: compiled policies ----

    const LAB_DTD: &str = r#"
        <!ELEMENT lab (project*)>
        <!ELEMENT project (paper*)>
        <!ATTLIST project name CDATA #IMPLIED>
        <!ELEMENT paper (#PCDATA)>
    "#;

    const LAB_DOC: &str = concat!(
        r#"<lab><project name="p1"><paper>P</paper></project>"#,
        r#"<project><paper>Q</paper></project></lab>"#
    );

    fn compiled_for(
        axml: &[&Authorization],
        adtd: &[&Authorization],
        policy: PolicyConfig,
    ) -> crate::compile::CompiledPolicy {
        let dtd = xmlsec_dtd::parse_dtd(LAB_DTD).unwrap();
        crate::compile::compile(&dtd, "lab", axml, adtd, &dir(), policy).unwrap()
    }

    #[test]
    fn compiled_fast_path_matches_interpreted_bytes_and_stats() {
        let doc = parse(LAB_DOC).unwrap();
        let adtd = [auth("s.dtd://project", Sign::Plus, AuthType::Recursive)];
        let ad: Vec<&Authorization> = adtd.iter().collect();
        let d = dir();
        let policy = PolicyConfig::paper_default();
        let cp = compiled_for(&[], &ad, policy);
        assert!(cp.fast_path, "{cp:?}");
        let plain = EngineOptions::sequential(EvalLimits::default_limits());
        let (want, stats_want) =
            compute_view_engine(doc.clone(), &[], &ad, &d, policy, &plain).unwrap();
        let opts = EngineOptions { compiled: Some(&cp), ..plain };
        let (got, stats_got) =
            compute_view_engine(doc.clone(), &[], &ad, &d, policy, &opts).unwrap();
        assert_eq!(
            serialize(&got, &SerializeOptions::canonical()),
            serialize(&want, &SerializeOptions::canonical()),
        );
        assert_eq!(stats_got, stats_want);
        // The fast path never evaluates an object, so even a zero budget
        // succeeds where the interpreted path trips.
        let tiny = EngineOptions {
            limits: EvalLimits { max_node_visits: 1, ..EvalLimits::default_limits() },
            ..opts
        };
        assert!(compute_view_engine(doc.clone(), &[], &ad, &d, policy, &tiny).is_ok());
    }

    #[test]
    fn compiled_mixed_mode_matches_interpreted() {
        let doc = parse(LAB_DOC).unwrap();
        let axml = [auth(r#"d.xml://project[./@name="p1"]"#, Sign::Minus, AuthType::Recursive)];
        let adtd = [auth("s.dtd://project", Sign::Plus, AuthType::Recursive)];
        let ax: Vec<&Authorization> = axml.iter().collect();
        let ad: Vec<&Authorization> = adtd.iter().collect();
        let d = dir();
        let policy = PolicyConfig::paper_default();
        let cp = compiled_for(&ax, &ad, policy);
        assert!(!cp.fast_path, "predicate must force mixed mode: {cp:?}");
        let plain = EngineOptions::sequential(EvalLimits::default_limits());
        let (want, stats_want) =
            compute_view_engine(doc.clone(), &ax, &ad, &d, policy, &plain).unwrap();
        let opts = EngineOptions { compiled: Some(&cp), ..plain };
        let (got, stats_got) =
            compute_view_engine(doc.clone(), &ax, &ad, &d, policy, &opts).unwrap();
        assert_eq!(
            serialize(&got, &SerializeOptions::canonical()),
            serialize(&want, &SerializeOptions::canonical()),
        );
        assert_eq!(stats_got, stats_want);
    }

    #[test]
    fn stale_compiled_policy_is_ignored() {
        // Compiled for a different applicable set: the fingerprint check
        // must route the run to the interpreted path, not mislabel.
        let doc = parse(LAB_DOC).unwrap();
        let adtd = [auth("s.dtd://project", Sign::Plus, AuthType::Recursive)];
        let other = [auth("s.dtd://paper", Sign::Minus, AuthType::Recursive)];
        let ad: Vec<&Authorization> = adtd.iter().collect();
        let ot: Vec<&Authorization> = other.iter().collect();
        let d = dir();
        let policy = PolicyConfig::paper_default();
        let stale = compiled_for(&[], &ot, policy);
        let plain = EngineOptions::sequential(EvalLimits::default_limits());
        let (want, _) = compute_view_engine(doc.clone(), &[], &ad, &d, policy, &plain).unwrap();
        let opts = EngineOptions { compiled: Some(&stale), ..plain };
        let (got, _) = compute_view_engine(doc.clone(), &[], &ad, &d, policy, &opts).unwrap();
        assert_eq!(
            serialize(&got, &SerializeOptions::canonical()),
            serialize(&want, &SerializeOptions::canonical()),
        );
    }

    #[test]
    fn nonconforming_document_falls_back_to_interpreted() {
        // <intruder> has no verdict cell: the fast path must bail and the
        // interpreted engine label the document instead.
        let doc = parse("<lab><intruder>x</intruder></lab>").unwrap();
        let adtd = [auth("s.dtd://project", Sign::Plus, AuthType::Recursive)];
        let ad: Vec<&Authorization> = adtd.iter().collect();
        let d = dir();
        let policy = PolicyConfig::paper_default();
        let cp = compiled_for(&[], &ad, policy);
        assert!(cp.fast_path);
        let plain = EngineOptions::sequential(EvalLimits::default_limits());
        let (want, stats_want) =
            compute_view_engine(doc.clone(), &[], &ad, &d, policy, &plain).unwrap();
        let opts = EngineOptions { compiled: Some(&cp), ..plain };
        let (got, stats_got) =
            compute_view_engine(doc.clone(), &[], &ad, &d, policy, &opts).unwrap();
        assert_eq!(
            serialize(&got, &SerializeOptions::canonical()),
            serialize(&want, &SerializeOptions::canonical()),
        );
        assert_eq!(stats_got, stats_want);
    }

    #[test]
    fn oversized_auth_sets_bypass_the_decision_cache_and_count() {
        // 129 applicable authorizations exceed the 128-bit mask: the
        // engine must resolve from scratch (cache stays empty), produce
        // the same bytes, and surface the bypass in telemetry.
        let bypass = xmlsec_telemetry::global().counter(
            "xmlsec_decision_mask_bypass_total",
            "Labeling runs whose applicable sets exceeded the 128-bit \
             match-mask cap and bypassed decision memoization entirely.",
            &[],
        );
        let before = bypass.get();
        let doc = parse(r#"<a x="1"><b>t</b><c/></a>"#).unwrap();
        let mut auths = vec![auth("d.xml:/a/b", Sign::Plus, AuthType::Recursive)];
        auths.extend((0..128).map(|_| auth("d.xml:/a/c", Sign::Minus, AuthType::Local)));
        let ax: Vec<&Authorization> = auths.iter().collect();
        let d = dir();
        let policy = PolicyConfig::paper_default();
        let plain = EngineOptions::sequential(EvalLimits::default_limits());
        let (want, _) = compute_view_engine(doc.clone(), &ax, &[], &d, policy, &plain).unwrap();
        let cache = DecisionCache::new();
        let cached = EngineOptions { decisions: Some(&cache), ..plain };
        let (got, _) = compute_view_engine(doc.clone(), &ax, &[], &d, policy, &cached).unwrap();
        assert!(cache.is_empty(), "mask-capped runs must not populate the cache");
        assert_eq!(
            serialize(&got, &SerializeOptions::canonical()),
            serialize(&want, &SerializeOptions::canonical()),
        );
        assert!(bypass.get() >= before + 2, "both oversized runs must count");
    }

    #[test]
    fn node_budget_pools_across_authorization_objects() {
        let doc = parse(&wide_doc_text()).unwrap();
        let one = [auth("d.xml://paper", Sign::Plus, AuthType::Recursive)];
        let two = [
            auth("d.xml://paper", Sign::Plus, AuthType::Recursive),
            auth("d.xml://paper", Sign::Minus, AuthType::Local),
        ];
        let d = dir();
        let policy = PolicyConfig::paper_default();
        let run = |auths: &[Authorization], budget: u64| {
            let ax: Vec<&Authorization> = auths.iter().collect();
            let limits = EvalLimits { max_node_visits: budget, ..EvalLimits::default_limits() };
            let opts = EngineOptions::sequential(limits);
            label_document_engine(&doc, &ax, &[], &d, policy, &opts).map(|_| ())
        };
        // Smallest budget that covers one object evaluation...
        let mut cost = None;
        for k in 1..100_000u64 {
            if run(&one, k).is_ok() {
                cost = Some(k);
                break;
            }
        }
        let cost = cost.expect("some budget covers a single evaluation");
        // ...does not cover two: the pool is request-wide, not per-object.
        assert_eq!(run(&two, cost), Err(EvalError::NodeBudget { limit: cost }));
        assert!(run(&two, 2 * cost).is_ok());
    }

    // ---- engine: incremental relabeling ----

    fn reused_counter() -> std::sync::Arc<xmlsec_telemetry::Counter> {
        xmlsec_telemetry::global().counter(
            "xmlsec_relabel_nodes_total",
            "Nodes whose label was reused across an incremental relabel.",
            &[("kind", "reused")],
        )
    }

    fn slot_generations(doc: &Document) -> Vec<u32> {
        (0..doc.arena_len()).map(|i| doc.slot_generation(i).unwrap_or(0)).collect()
    }

    /// Applies `ops` to `doc` after labeling it incrementally, relabels
    /// against that labeling, and checks the result label for label
    /// against a cold run. Returns `(nodes in slots the batch did not
    /// touch, nodes in recycled slots, reused-counter growth)`.
    fn relabel_after(
        doc: &mut Document,
        auths: &[Authorization],
        ops: &[crate::update::UpdateOp],
    ) -> (u64, u64, u64) {
        let ax: Vec<&Authorization> = auths.iter().collect();
        let (d, policy) = (dir(), PolicyConfig::paper_default());
        let opts = EngineOptions::sequential(EvalLimits::default_limits());
        let first = label_document_incremental(doc, &ax, &[], &d, policy, &opts, None).unwrap();
        assert!(first.supports_incremental());
        let gens = slot_generations(doc);
        crate::update::apply_updates_preauthorized(doc, ops, None).unwrap();

        let reused = reused_counter();
        let before = reused.get();
        let next =
            label_document_incremental(doc, &ax, &[], &d, policy, &opts, Some(&first)).unwrap();
        let grown = reused.get() - before;
        let cold = label_document_engine(doc, &ax, &[], &d, policy, &opts).unwrap();
        for n in doc.preorder(doc.root()) {
            assert_eq!(next.label(n), cold.label(n), "slot {}", n.index());
        }
        assert_eq!(next.stats, cold.stats);

        let (mut untouched, mut recycled) = (0, 0);
        for n in doc.preorder(doc.root()) {
            match gens.get(n.index()) {
                Some(&g) if g == n.generation() => untouched += 1,
                Some(_) => recycled += 1,
                None => {}
            }
        }
        (untouched, recycled, grown)
    }

    #[test]
    fn incremental_relabel_after_settext_matches_cold_and_reuses_every_node() {
        use crate::update::UpdateOp;
        let mut doc = parse(&wide_doc_text()).unwrap();
        let ops = [UpdateOp::SetText {
            target: "/lab/project[2]/paper[3]/title".into(),
            text: "changed".into(),
        }];
        let (untouched, _, grown) = relabel_after(&mut doc, &engine_auths(), &ops);
        // No authorization reads text, so no match mask moved.
        assert_eq!(untouched, doc.preorder(doc.root()).count() as u64);
        assert!(grown >= untouched, "reused grew by {grown}, {untouched} nodes untouched");
    }

    #[test]
    fn incremental_relabel_after_recycling_delete_and_insert_matches_cold() {
        use crate::update::UpdateOp;
        let mut doc = parse(&wide_doc_text()).unwrap();
        let ops = [
            UpdateOp::Delete { target: "/lab/project[1]/paper[1]".into() },
            UpdateOp::InsertSubtree {
                parent: "/lab/project[5]".into(),
                xml: r#"<paper n="1"><title>new</title><body>b</body></paper>"#.into(),
            },
        ];
        let (untouched, recycled, grown) = relabel_after(&mut doc, &engine_auths(), &ops);
        assert!(recycled > 0, "the insert must reuse slots the delete freed");
        assert!(grown >= untouched, "reused grew by {grown}, {untouched} nodes untouched");
    }

    #[test]
    fn incremental_relabel_redoes_clean_children_of_a_relabeled_parent() {
        use crate::update::UpdateOp;
        // Project 1 turns internal: its mask and label change, while most
        // of its papers keep their masks and must still follow it.
        let mut doc = parse(&wide_doc_text()).unwrap();
        let ops = [UpdateOp::SetAttribute {
            target: "/lab/project[1]".into(),
            name: "kind".into(),
            value: "internal".into(),
        }];
        relabel_after(&mut doc, &engine_auths(), &ops);
    }

    #[test]
    fn incremental_relabel_ignores_prev_from_other_applicable_sets() {
        // The same object under the opposite sign: every match mask
        // coincides, so only the fingerprint tells the runs apart.
        let doc = parse(&wide_doc_text()).unwrap();
        let grant = [auth("d.xml:/lab", Sign::Plus, AuthType::Recursive)];
        let deny = [auth("d.xml:/lab", Sign::Minus, AuthType::Recursive)];
        let (gx, dx): (Vec<&Authorization>, Vec<&Authorization>) =
            (grant.iter().collect(), deny.iter().collect());
        let (d, policy) = (dir(), PolicyConfig::paper_default());
        let opts = EngineOptions::sequential(EvalLimits::default_limits());
        let prev = label_document_incremental(&doc, &gx, &[], &d, policy, &opts, None).unwrap();
        let got =
            label_document_incremental(&doc, &dx, &[], &d, policy, &opts, Some(&prev)).unwrap();
        let cold = label_document_engine(&doc, &dx, &[], &d, policy, &opts).unwrap();
        for n in doc.preorder(doc.root()) {
            assert_eq!(got.label(n), cold.label(n), "slot {}", n.index());
        }
        assert_eq!(got.stats, cold.stats);
        assert!(got.supports_incremental());
    }
}
