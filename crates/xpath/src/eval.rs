//! Path-expression evaluation over document trees.
//!
//! The evaluator is the workhorse behind authorization objects: the
//! security processor evaluates each authorization's path expression once
//! per document into a node-set, then labels nodes by membership.
//!
//! Node-sets are kept sorted by [`NodeId`]; for parser-built documents
//! arena order *is* document order, so this yields document-order
//! semantics for first-node string conversion and stable output.
//!
//! Each location step is one walk along its axis from each context node,
//! and predicates are tested on each candidate as the walk reaches it:
//!
//! - `//T[p]` (`descendant-or-self::node()/child::T[p]`) runs as the one
//!   walk `descendant::T[p]` when no predicate of `T` depends on position
//!   (see `docs/XPATH_SUBSET.md`), and a bare `.` step is skipped;
//! - an inner path in a predicate stops at its first matching node, and a
//!   path compared against a literal reads each node's attribute or text
//!   value in place, so a walk allocates nothing per node it visits;
//! - visits and evaluations are counted in the evaluation's own budget,
//!   drawn from the node-visit limit (which also polls the cancellation
//!   token) once per 256 visits and at the end, and flushed to telemetry
//!   once per top-level evaluation.

use crate::ast::{ArithOp, Axis, CmpOp, Expr, Func, NodeTest, PathExpr, Step};
use crate::limits::{EvalError, EvalLimits, SharedBudget};
use crate::value::{compare, str_to_number, Value};
use std::borrow::Cow;
use std::sync::{Arc, OnceLock};
use xmlsec_telemetry as telemetry;
use xmlsec_xml::{Document, NodeData, NodeId};

struct EvalMetrics {
    evaluations: Arc<telemetry::Counter>,
    node_visits: Arc<telemetry::Counter>,
}

fn eval_metrics() -> &'static EvalMetrics {
    static METRICS: OnceLock<EvalMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = telemetry::global();
        EvalMetrics {
            evaluations: reg.counter(
                "xmlsec_xpath_evaluations_total",
                "Path-expression evaluations (including inner predicate paths).",
                &[],
            ),
            node_visits: reg.counter(
                "xmlsec_xpath_node_visits_total",
                "Context nodes expanded across all evaluation steps.",
                &[],
            ),
        }
    })
}

/// Node visits between two draws from the node-visit limit.
const DRAW_CHUNK: u64 = 256;

/// Work accounting for one top-level evaluation, threaded through every
/// helper. Visits accumulate in `pending` and are drawn from the limit —
/// the local `max_node_visits`, or the cross-evaluation `pool` (see
/// [`SharedBudget`]) — once per [`DRAW_CHUNK`] and once at the end, so an
/// evaluation that succeeds has drawn exactly what it visited. `depth`
/// tracks inner-path nesting and `max_depth` the deepest it reached;
/// `spare` holds node-set buffers for reuse.
struct Budget<'p> {
    drawn: u64,
    pending: u64,
    evaluations: u64,
    depth: u32,
    max_depth: u32,
    limits: EvalLimits,
    pool: Option<&'p SharedBudget>,
    spare: Vec<Vec<CtxNode>>,
}

impl<'p> Budget<'p> {
    fn new(limits: EvalLimits, pool: Option<&'p SharedBudget>) -> Budget<'p> {
        Budget {
            drawn: 0,
            pending: 0,
            evaluations: 0,
            depth: 0,
            max_depth: 0,
            limits,
            pool,
            spare: Vec::new(),
        }
    }

    /// Records one node examined.
    #[inline]
    fn visit(&mut self) -> Result<(), EvalError> {
        self.pending += 1;
        if self.pending < DRAW_CHUNK {
            Ok(())
        } else {
            self.draw()
        }
    }

    /// Draws the pending visits from the limit; errors once it is spent
    /// or once the pool's cancellation token trips.
    fn draw(&mut self) -> Result<(), EvalError> {
        let n = std::mem::take(&mut self.pending);
        self.drawn = self.drawn.saturating_add(n);
        match self.pool {
            Some(pool) => pool.take(n),
            None if self.drawn > self.limits.max_node_visits => {
                Err(EvalError::NodeBudget { limit: self.limits.max_node_visits })
            }
            None => Ok(()),
        }
    }

    /// Enters one path evaluation (top-level or inner).
    fn enter(&mut self) -> Result<(), EvalError> {
        if self.depth >= self.limits.max_eval_depth {
            return Err(EvalError::Depth { limit: self.limits.max_eval_depth });
        }
        self.depth += 1;
        self.max_depth = self.max_depth.max(self.depth);
        self.evaluations += 1;
        Ok(())
    }

    fn leave(&mut self) {
        self.depth -= 1;
    }

    fn buffer(&mut self) -> Vec<CtxNode> {
        self.spare.pop().unwrap_or_default()
    }

    fn recycle(&mut self, mut v: Vec<CtxNode>) {
        v.clear();
        self.spare.push(v);
    }
}

/// A context node: either a real node or the *virtual document root*
/// (the conceptual parent of the document element, which absolute paths
/// start from).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CtxNode {
    /// The virtual root node `/`.
    Root,
    /// A node in the arena.
    Node(NodeId),
}

/// Evaluates `path` against a whole document: absolute paths start at the
/// virtual root; relative paths start at the document element (the
/// paper's "predefined starting point in the document").
///
/// Runs unbudgeted ([`EvalLimits::unlimited`]); use [`select_limited`]
/// for untrusted expressions or documents.
pub fn select(doc: &Document, path: &PathExpr) -> Vec<NodeId> {
    select_limited(doc, path, &EvalLimits::unlimited())
        .expect("unlimited evaluation cannot exhaust a budget")
}

/// Like [`select`], but enforces `limits` and returns a typed
/// [`EvalError`] when the evaluation exceeds them.
pub fn select_limited(
    doc: &Document,
    path: &PathExpr,
    limits: &EvalLimits,
) -> Result<Vec<NodeId>, EvalError> {
    run(doc, doc.root(), path, Budget::new(*limits, None)).map(|e| e.nodes)
}

/// Evaluates `path` from an explicit context node (predicates use this
/// for inner relative paths). Unbudgeted; see [`eval_path_limited`].
pub fn eval_path(doc: &Document, context: NodeId, path: &PathExpr) -> Vec<NodeId> {
    eval_path_limited(doc, context, path, &EvalLimits::unlimited())
        .expect("unlimited evaluation cannot exhaust a budget")
}

/// Like [`eval_path`], but enforces `limits`.
pub fn eval_path_limited(
    doc: &Document,
    context: NodeId,
    path: &PathExpr,
    limits: &EvalLimits,
) -> Result<Vec<NodeId>, EvalError> {
    run(doc, context, path, Budget::new(*limits, None)).map(|e| e.nodes)
}

/// Like [`eval_path_limited`], but draws node visits from `pool` — a
/// [`SharedBudget`] common to several evaluations (typically one per
/// authorization object of a request, possibly running on different
/// worker threads). `limits` still caps inner-path nesting; its
/// `max_node_visits` is ignored in favor of the pool.
pub fn eval_path_shared(
    doc: &Document,
    context: NodeId,
    path: &PathExpr,
    limits: &EvalLimits,
    pool: &SharedBudget,
) -> Result<Vec<NodeId>, EvalError> {
    eval_path_counted(doc, context, path, limits, pool).map(|e| e.nodes)
}

/// One completed evaluation: its node-set and the work it drew.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Evaluation {
    /// The selected nodes, in document order.
    pub nodes: Vec<NodeId>,
    /// Node visits drawn from the budget: exactly what the evaluation
    /// visited.
    pub visits: u64,
    /// The deepest nesting of path evaluations it reached (1 for a path
    /// with no inner path), so a caller replaying it can tell whether
    /// [`EvalLimits::max_eval_depth`] would have refused it.
    pub depth: u32,
}

/// [`eval_path_shared`], reporting what the evaluation drew from `pool`
/// along with its node-set. The counts are this evaluation's own, so
/// they stay exact while other evaluations draw from the same pool on
/// other threads.
pub fn eval_path_counted(
    doc: &Document,
    context: NodeId,
    path: &PathExpr,
    limits: &EvalLimits,
    pool: &SharedBudget,
) -> Result<Evaluation, EvalError> {
    run(doc, context, path, Budget::new(*limits, Some(pool)))
}

/// Like [`select_limited`], but draws node visits from `pool` (and, when
/// the pool carries a [`CancelToken`](xmlsec_xml::cancel::CancelToken),
/// polls it at every draw). The server evaluates requester queries
/// through this so an abandoned request stops mid-walk.
pub fn select_shared(
    doc: &Document,
    path: &PathExpr,
    limits: &EvalLimits,
    pool: &SharedBudget,
) -> Result<Vec<NodeId>, EvalError> {
    run(doc, doc.root(), path, Budget::new(*limits, Some(pool))).map(|e| e.nodes)
}

/// Runs one top-level evaluation from `context` (or from the virtual
/// root, for an absolute path), draws what is still pending, flushes
/// telemetry, and reports budget violations on the shared limits counter
/// (cancellations are abandoned requests, not limit violations, and are
/// counted elsewhere).
fn run(
    doc: &Document,
    context: NodeId,
    path: &PathExpr,
    mut b: Budget,
) -> Result<Evaluation, EvalError> {
    let start = if path.absolute { CtxNode::Root } else { CtxNode::Node(context) };
    let r = select_from(doc, start, path, &mut b).and_then(|nodes| {
        b.draw()?;
        Ok(Evaluation { nodes, visits: b.drawn, depth: b.max_depth })
    });
    let m = eval_metrics();
    m.node_visits.add(b.drawn.saturating_add(b.pending));
    m.evaluations.add(b.evaluations);
    if let Err(e) = &r {
        if !e.is_cancelled() {
            xmlsec_xml::limit_rejected(e.kind());
        }
    }
    r
}

/// The node-set `path` selects from `start`, in document order.
fn select_from(
    doc: &Document,
    start: CtxNode,
    path: &PathExpr,
    b: &mut Budget,
) -> Result<Vec<NodeId>, EvalError> {
    let mut nodes = Vec::new();
    eval_steps(doc, start, &path.steps, b, &mut |c| {
        if let CtxNode::Node(n) = c {
            nodes.push(n);
        }
        false
    })?;
    nodes.sort_unstable();
    nodes.dedup();
    // Arena order equals document order for parsed documents, but not
    // necessarily after mutation; the final node-set is re-sorted so
    // first-node string conversion and consumers always see document
    // order.
    sort_document_order(doc, &mut nodes);
    Ok(nodes)
}

/// Evaluates one path (top-level or inner) from `start`: the walks
/// before the last build their node-sets, and the last one streams its
/// nodes — possibly repeated — into `sink`. Returns `true` once `sink`
/// asks to stop.
fn eval_steps(
    doc: &Document,
    start: CtxNode,
    steps: &[Step],
    b: &mut Budget,
    sink: &mut dyn FnMut(CtxNode) -> bool,
) -> Result<bool, EvalError> {
    b.enter()?;
    let r = stream_steps(doc, start, steps, b, sink);
    b.leave();
    r
}

fn stream_steps(
    doc: &Document,
    start: CtxNode,
    steps: &[Step],
    b: &mut Budget,
    sink: &mut dyn FnMut(CtxNode) -> bool,
) -> Result<bool, EvalError> {
    let mut walks = Walks { steps };
    let Some(mut last) = walks.next() else {
        // No step to take: the path selects its start node.
        return Ok(sink(start));
    };
    let mut set: Option<Vec<CtxNode>> = None;
    for w in walks {
        let s = match &mut set {
            Some(s) => s,
            None => {
                let mut s = b.buffer();
                s.push(start);
                set.insert(s)
            }
        };
        step_set(doc, last, s, b)?;
        last = w;
    }
    let one = [start];
    let mut stopped = false;
    for &ctx in set.as_deref().unwrap_or(&one) {
        b.visit()?;
        if walk(doc, ctx, last, b, sink)? {
            stopped = true;
            break;
        }
    }
    if let Some(s) = set {
        b.recycle(s);
    }
    Ok(stopped)
}

/// Replaces `set` with the nodes walk `w` selects from its members,
/// sorted and without duplicates.
fn step_set(
    doc: &Document,
    w: Walk,
    set: &mut Vec<CtxNode>,
    b: &mut Budget,
) -> Result<(), EvalError> {
    let mut next = b.buffer();
    for &ctx in set.iter() {
        b.visit()?;
        walk(doc, ctx, w, b, &mut |n| {
            next.push(n);
            false
        })?;
    }
    next.sort_unstable();
    next.dedup();
    std::mem::swap(set, &mut next);
    b.recycle(next);
    Ok(())
}

/// One walk along an axis: a location step as parsed, or the `//T[p]`
/// pair fused into `descendant::T[p]`.
#[derive(Clone, Copy)]
struct Walk<'e> {
    axis: Axis,
    test: &'e NodeTest,
    preds: &'e [Expr],
    /// Some predicate reads the candidate's position ([`is_positional`]).
    positional: bool,
}

/// The walks of a path's steps, in order.
struct Walks<'e> {
    steps: &'e [Step],
}

impl<'e> Iterator for Walks<'e> {
    type Item = Walk<'e>;

    fn next(&mut self) -> Option<Walk<'e>> {
        loop {
            let (step, rest) = self.steps.split_first()?;
            self.steps = rest;
            match (step.axis, &step.test, step.predicates.is_empty()) {
                // `.`: every context node selects itself.
                (Axis::SelfAxis, NodeTest::AnyNode, true) => continue,
                // `//T[p]`: the children of every descendant-or-self are
                // the descendants. Positions are counted among siblings,
                // so a positional `p` keeps the two steps apart.
                (Axis::DescendantOrSelf, NodeTest::AnyNode, true) => {
                    if let Some((child, rest)) = rest.split_first() {
                        if child.axis == Axis::Child && !child.predicates.iter().any(is_positional)
                        {
                            self.steps = rest;
                            return Some(Walk {
                                axis: Axis::Descendant,
                                test: &child.test,
                                preds: &child.predicates,
                                positional: false,
                            });
                        }
                    }
                }
                _ => {}
            }
            return Some(Walk {
                axis: step.axis,
                test: &step.test,
                preds: &step.predicates,
                positional: step.predicates.iter().any(is_positional),
            });
        }
    }
}

/// Whether a predicate depends on the candidate's position: its value
/// is a number (`[1]`, `[count(x)]`, `[number(@n)]`, arithmetic), which
/// selects by position, or it calls `position()` or `last()` outside an
/// inner path (whose own predicates count positions of their own).
fn is_positional(e: &Expr) -> bool {
    is_numeric(e) || reads_position(e)
}

/// Whether `e` evaluates to a number (the value types are static).
fn is_numeric(e: &Expr) -> bool {
    match e {
        Expr::Number(_) | Expr::Arith(..) | Expr::Neg(_) => true,
        Expr::Call(f, _) => matches!(
            f,
            Func::Position
                | Func::Last
                | Func::Count
                | Func::NumberFn
                | Func::StringLength
                | Func::Floor
                | Func::Ceiling
                | Func::Round
                | Func::Sum
        ),
        _ => false,
    }
}

fn reads_position(e: &Expr) -> bool {
    match e {
        Expr::Call(Func::Position | Func::Last, _) => true,
        Expr::Call(_, args) => args.iter().any(reads_position),
        Expr::Or(a, b)
        | Expr::And(a, b)
        | Expr::Compare(_, a, b)
        | Expr::Union(a, b)
        | Expr::Arith(_, a, b) => reads_position(a) || reads_position(b),
        Expr::Neg(a) => reads_position(a),
        Expr::Path(_) | Expr::Literal(_) | Expr::Number(_) => false,
    }
}

/// Receives each candidate of a walk, with the budget; `Ok(true)` stops
/// the walk.
type Emit<'a, 'p> = &'a mut dyn FnMut(CtxNode, &mut Budget<'p>) -> Result<bool, EvalError>;

/// Streams the nodes walk `w` selects from `ctx` into `sink`, in axis
/// order; returns `true` once `sink` asks to stop.
///
/// Without positional predicates each candidate is tested as the walk
/// reaches it. Positions count the candidates that passed the earlier
/// predicates, so a positional step first collects its candidates.
fn walk<'p>(
    doc: &Document,
    ctx: CtxNode,
    w: Walk,
    b: &mut Budget<'p>,
    sink: &mut dyn FnMut(CtxNode) -> bool,
) -> Result<bool, EvalError> {
    if !w.positional {
        return axis(doc, ctx, w.axis, w.test, b, &mut |c, b| {
            // The virtual root passes no predicate.
            let CtxNode::Node(node) = c else { return Ok(w.preds.is_empty() && sink(c)) };
            // Non-positional predicates never read position or size.
            let pctx = EvalCtx { doc, node, position: 0, size: 0 };
            for p in w.preds {
                if !eval_bool(&pctx, p, b)? {
                    return Ok(false);
                }
            }
            Ok(sink(c))
        });
    }
    let mut cands = b.buffer();
    axis(doc, ctx, w.axis, w.test, b, &mut |c, _| {
        cands.push(c);
        Ok(false)
    })?;
    for p in w.preds {
        let size = cands.len();
        let mut kept = 0;
        for i in 0..size {
            let c = cands[i];
            let CtxNode::Node(node) = c else { continue };
            let pctx = EvalCtx { doc, node, position: i + 1, size };
            let keep = if is_numeric(p) {
                eval_value(&pctx, p, b)?.to_number(doc) == (i + 1) as f64
            } else {
                eval_bool(&pctx, p, b)?
            };
            if keep {
                cands[kept] = c;
                kept += 1;
            }
        }
        cands.truncate(kept);
    }
    let stopped = cands.iter().any(|&c| sink(c));
    b.recycle(cands);
    Ok(stopped)
}

/// Offers each node along `axis` from `ctx` that passes `test` to `emit`,
/// in axis order (document order for forward axes, nearest first for
/// reverse axes), charging one visit per node examined — not per match —
/// so the budget bounds actual work even for selective tests. Returns
/// `true` once `emit` asks to stop.
fn axis<'p>(
    doc: &Document,
    ctx: CtxNode,
    axis: Axis,
    test: &NodeTest,
    b: &mut Budget<'p>,
    emit: Emit<'_, 'p>,
) -> Result<bool, EvalError> {
    let any_node = matches!(test, NodeTest::AnyNode);
    let n = match ctx {
        CtxNode::Node(n) => n,
        CtxNode::Root => {
            return match axis {
                Axis::Child => {
                    b.visit()?;
                    offer(doc, doc.root(), test, b, emit)
                }
                Axis::Descendant => descend(doc, doc.root(), test, b, emit),
                Axis::DescendantOrSelf => {
                    if any_node && emit(CtxNode::Root, b)? {
                        return Ok(true);
                    }
                    descend(doc, doc.root(), test, b, emit)
                }
                Axis::SelfAxis if any_node => emit(CtxNode::Root, b),
                _ => Ok(false),
            };
        }
    };
    match axis {
        Axis::Child => {
            for &c in doc.children(n) {
                b.visit()?;
                if offer(doc, c, test, b, emit)? {
                    return Ok(true);
                }
            }
        }
        Axis::Descendant => {
            for &c in doc.children(n) {
                if descend(doc, c, test, b, emit)? {
                    return Ok(true);
                }
            }
        }
        Axis::DescendantOrSelf => return descend(doc, n, test, b, emit),
        Axis::SelfAxis => {
            b.visit()?;
            return offer(doc, n, test, b, emit);
        }
        Axis::Parent => {
            b.visit()?;
            return match doc.parent(n) {
                Some(p) => offer(doc, p, test, b, emit),
                // The parent of the document element is the virtual
                // root, which only node() matches.
                None if any_node => emit(CtxNode::Root, b),
                None => Ok(false),
            };
        }
        Axis::Ancestor | Axis::AncestorOrSelf => {
            if axis == Axis::AncestorOrSelf {
                b.visit()?;
                if offer(doc, n, test, b, emit)? {
                    return Ok(true);
                }
            }
            for a in doc.ancestors(n) {
                b.visit()?;
                if offer(doc, a, test, b, emit)? {
                    return Ok(true);
                }
            }
            if any_node {
                return emit(CtxNode::Root, b);
            }
        }
        Axis::FollowingSibling | Axis::PrecedingSibling => {
            let Some(p) = doc.parent(n).filter(|_| !doc.is_attribute(n)) else {
                return Ok(false);
            };
            let siblings = doc.children(p);
            let Some(pos) = siblings.iter().position(|&c| c == n) else { return Ok(false) };
            let (before, after) = (&siblings[..pos], &siblings[pos + 1..]);
            // Reverse axis: nearest sibling first.
            let mut nearest_first = before.iter().rev();
            let mut forward = after.iter();
            let order: &mut dyn Iterator<Item = &NodeId> =
                if axis == Axis::FollowingSibling { &mut forward } else { &mut nearest_first };
            for &c in order {
                b.visit()?;
                if offer(doc, c, test, b, emit)? {
                    return Ok(true);
                }
            }
        }
        Axis::Attribute => {
            for &a in doc.attributes(n) {
                b.visit()?;
                let matches = match (test, doc.node(a).data) {
                    (NodeTest::Name(want), NodeData::Attr { name, .. }) => name == want,
                    (NodeTest::Wildcard | NodeTest::AnyNode, NodeData::Attr { .. }) => true,
                    _ => false,
                };
                if matches && emit(CtxNode::Node(a), b)? {
                    return Ok(true);
                }
            }
        }
    }
    Ok(false)
}

/// Walks `n` and its descendants in document order. Attributes are not
/// on the descendant axis (XPath data model).
fn descend<'p>(
    doc: &Document,
    n: NodeId,
    test: &NodeTest,
    b: &mut Budget<'p>,
    emit: Emit<'_, 'p>,
) -> Result<bool, EvalError> {
    b.visit()?;
    if offer(doc, n, test, b, emit)? {
        return Ok(true);
    }
    for &c in doc.children(n) {
        if descend(doc, c, test, b, emit)? {
            return Ok(true);
        }
    }
    Ok(false)
}

/// Applies the node test to a non-attribute-axis candidate.
fn offer<'p>(
    doc: &Document,
    n: NodeId,
    test: &NodeTest,
    b: &mut Budget<'p>,
    emit: Emit<'_, 'p>,
) -> Result<bool, EvalError> {
    // The principal node type of every axis but `attribute` is element,
    // so a name test never passes an attribute here; `node()` does.
    let ok = match (test, doc.node(n).data) {
        (NodeTest::Name(want), NodeData::Element { name, .. }) => name == want,
        (NodeTest::Wildcard, NodeData::Element { .. }) => true,
        (NodeTest::Text, NodeData::Text(_)) => true,
        (NodeTest::AnyNode, _) => true,
        _ => false,
    };
    if ok {
        emit(CtxNode::Node(n), b)
    } else {
        Ok(false)
    }
}

/// Sorts `nodes` into document order.
///
/// Equivalent to `nodes.sort_by(|a, b| doc.document_order(a, b))` but
/// amortized: sibling positions are resolved once per parent (one scan
/// filling a cache for all of that parent's attributes and children)
/// instead of per comparison, and each node's root path is computed once.
pub fn sort_document_order(doc: &Document, nodes: &mut [NodeId]) {
    if nodes.len() < 2 {
        return;
    }
    // Fast path: for parser-built (and order-preservingly mutated)
    // documents, arena ids are document order.
    if doc.ids_preordered() {
        nodes.sort_unstable();
        return;
    }
    use std::collections::HashMap;
    let mut sibling_pos: HashMap<NodeId, (u8, u32)> = HashMap::new();
    let fill_parent = |p: NodeId, cache: &mut HashMap<NodeId, (u8, u32)>| {
        for (i, &a) in doc.attributes(p).iter().enumerate() {
            cache.insert(a, (0, i as u32));
        }
        for (i, &c) in doc.children(p).iter().enumerate() {
            cache.insert(c, (1, i as u32));
        }
    };
    let mut path_of = |n: NodeId| -> Vec<(u8, u32)> {
        let mut path = Vec::new();
        let mut cur = n;
        while let Some(p) = doc.parent(cur) {
            if !sibling_pos.contains_key(&cur) {
                fill_parent(p, &mut sibling_pos);
            }
            path.push(*sibling_pos.get(&cur).expect("parent scan covered the child"));
            cur = p;
        }
        path.reverse();
        path
    };
    let mut keyed: Vec<(Vec<(u8, u32)>, NodeId)> = nodes.iter().map(|&n| (path_of(n), n)).collect();
    // A strict path prefix is an ancestor and sorts first (Vec's
    // lexicographic Ord already does this).
    keyed.sort();
    for (slot, (_, n)) in nodes.iter_mut().zip(keyed) {
        *slot = n;
    }
}

/// Evaluation context for condition expressions.
struct EvalCtx<'d> {
    doc: &'d Document,
    node: NodeId,
    position: usize,
    size: usize,
}

impl EvalCtx<'_> {
    /// Where an inner path starts: the virtual root or the context node.
    fn start(&self, p: &PathExpr) -> CtxNode {
        if p.absolute {
            CtxNode::Root
        } else {
            CtxNode::Node(self.node)
        }
    }
}

/// Evaluates `e` as a boolean without building node-sets: an inner path
/// stops at its first node, and comparisons against a literal or number
/// test each node in place.
fn eval_bool(ctx: &EvalCtx<'_>, e: &Expr, bu: &mut Budget) -> Result<bool, EvalError> {
    Ok(match e {
        Expr::Or(a, b) => eval_bool(ctx, a, bu)? || eval_bool(ctx, b, bu)?,
        Expr::And(a, b) => eval_bool(ctx, a, bu)? && eval_bool(ctx, b, bu)?,
        Expr::Path(p) => {
            eval_steps(ctx.doc, ctx.start(p), &p.steps, bu, &mut |c| matches!(c, CtxNode::Node(_)))?
        }
        Expr::Compare(op, a, b) => compare_exprs(ctx, *op, a, b, bu)?,
        Expr::Call(Func::Not, args) => match args.first() {
            Some(a) => !eval_bool(ctx, a, bu)?,
            None => true,
        },
        Expr::Call(Func::BooleanFn, args) => match args.first() {
            Some(a) => eval_bool(ctx, a, bu)?,
            None => false,
        },
        _ => eval_value(ctx, e, bu)?.to_bool(),
    })
}

/// A literal operand of a comparison.
#[derive(Clone, Copy)]
enum Scalar<'e> {
    Str(&'e str),
    Num(f64),
}

/// `a OP b` (XPath 1.0 §3.4). A path against a literal or number is
/// tested node by node on borrowed values, stopping at the first node
/// that makes it true; anything else compares evaluated values.
fn compare_exprs(
    ctx: &EvalCtx<'_>,
    op: CmpOp,
    a: &Expr,
    b: &Expr,
    bu: &mut Budget,
) -> Result<bool, EvalError> {
    let (path, scalar, flipped) = match (a, b) {
        (Expr::Path(p), Expr::Literal(s)) => (p, Scalar::Str(s), false),
        (Expr::Path(p), Expr::Number(x)) => (p, Scalar::Num(*x), false),
        (Expr::Literal(s), Expr::Path(p)) => (p, Scalar::Str(s), true),
        (Expr::Number(x), Expr::Path(p)) => (p, Scalar::Num(*x), true),
        _ => {
            let l = eval_value(ctx, a, bu)?;
            let r = eval_value(ctx, b, bu)?;
            return Ok(compare(ctx.doc, op, &l, &r));
        }
    };
    let doc = ctx.doc;
    eval_steps(
        doc,
        ctx.start(path),
        &path.steps,
        bu,
        &mut |c| matches!(c, CtxNode::Node(n) if node_compares(op, &string_value(doc, n), scalar, flipped)),
    )
}

/// Compares one node's string-value against a scalar (the node on the
/// left unless `flipped`): `=` and `!=` against a string compare strings,
/// everything else compares numbers.
fn node_compares(op: CmpOp, node: &str, scalar: Scalar<'_>, flipped: bool) -> bool {
    let (l, r) = match (op, scalar) {
        (CmpOp::Eq, Scalar::Str(s)) => return node == s,
        (CmpOp::Ne, Scalar::Str(s)) => return node != s,
        (_, Scalar::Str(s)) => (str_to_number(node), str_to_number(s)),
        (_, Scalar::Num(x)) => (str_to_number(node), x),
    };
    let (l, r) = if flipped { (r, l) } else { (l, r) };
    match op {
        CmpOp::Eq => l == r,
        CmpOp::Ne => l != r,
        CmpOp::Lt => l < r,
        CmpOp::Le => l <= r,
        CmpOp::Gt => l > r,
        CmpOp::Ge => l >= r,
    }
}

/// The XPath string-value of `n`, borrowed from the document unless an
/// element's text is spread over several text nodes.
fn string_value(doc: &Document, n: NodeId) -> Cow<'_, str> {
    match doc.node(n).data {
        NodeData::Attr { value, .. } => Cow::Borrowed(value),
        NodeData::Text(t) => Cow::Borrowed(t),
        NodeData::Comment(_) | NodeData::Pi { .. } => Cow::Borrowed(""),
        NodeData::Element { .. } => match sole_text(doc, n) {
            Some(t) => Cow::Borrowed(t.unwrap_or("")),
            None => Cow::Owned(doc.text_value(n)),
        },
    }
}

/// The text of the only text node under `n` (`Some(None)` when there is
/// none), or `None` when there are several.
fn sole_text(doc: &Document, n: NodeId) -> Option<Option<&str>> {
    let mut found = None;
    for &c in doc.children(n) {
        let t = match doc.node(c).data {
            NodeData::Text(t) => Some(t),
            NodeData::Element { .. } => sole_text(doc, c)?,
            _ => None,
        };
        if t.is_some() {
            if found.is_some() {
                return None;
            }
            found = t;
        }
    }
    Some(found)
}

/// Evaluates `e` to a value. Booleans go through [`eval_bool`]; paths
/// build their node-sets.
fn eval_value(ctx: &EvalCtx<'_>, e: &Expr, bu: &mut Budget) -> Result<Value, EvalError> {
    Ok(match e {
        Expr::Or(..) | Expr::And(..) | Expr::Compare(..) => Value::Bool(eval_bool(ctx, e, bu)?),
        Expr::Path(p) => Value::NodeSet(select_from(ctx.doc, ctx.start(p), p, bu)?),
        Expr::Literal(s) => Value::Str(s.clone()),
        Expr::Number(n) => Value::Num(*n),
        Expr::Call(f, args) => eval_call(ctx, *f, args, bu)?,
        Expr::Union(a, b) => {
            let mut out = match eval_value(ctx, a, bu)? {
                Value::NodeSet(ns) => ns,
                _ => Vec::new(),
            };
            if let Value::NodeSet(more) = eval_value(ctx, b, bu)? {
                out.extend(more);
            }
            out.sort_unstable();
            out.dedup();
            Value::NodeSet(out)
        }
        Expr::Arith(op, a, b) => {
            let l = eval_value(ctx, a, bu)?.to_number(ctx.doc);
            let r = eval_value(ctx, b, bu)?.to_number(ctx.doc);
            Value::Num(match op {
                ArithOp::Add => l + r,
                ArithOp::Sub => l - r,
                ArithOp::Div => l / r,
                ArithOp::Mod => l % r,
            })
        }
        Expr::Neg(a) => Value::Num(-eval_value(ctx, a, bu)?.to_number(ctx.doc)),
    })
}

fn eval_call(
    ctx: &EvalCtx<'_>,
    f: Func,
    args: &[Expr],
    bu: &mut Budget,
) -> Result<Value, EvalError> {
    Ok(match f {
        Func::Position => Value::Num(ctx.position as f64),
        Func::Last => Value::Num(ctx.size as f64),
        Func::Count => match args.first() {
            Some(a) => match eval_value(ctx, a, bu)? {
                Value::NodeSet(ns) => Value::Num(ns.len() as f64),
                _ => Value::Num(f64::NAN),
            },
            None => Value::Num(f64::NAN),
        },
        Func::Contains => {
            let a = arg_string(ctx, args, 0, bu)?;
            let b = arg_string(ctx, args, 1, bu)?;
            Value::Bool(a.contains(&b))
        }
        Func::StartsWith => {
            let a = arg_string(ctx, args, 0, bu)?;
            let b = arg_string(ctx, args, 1, bu)?;
            Value::Bool(a.starts_with(&b))
        }
        Func::Name => Value::Str(ctx.doc.node_name(ctx.node).unwrap_or_default().to_string()),
        Func::StringFn => {
            if args.is_empty() {
                Value::Str(ctx.doc.text_value(ctx.node))
            } else {
                Value::Str(eval_value(ctx, &args[0], bu)?.to_string_value(ctx.doc))
            }
        }
        Func::NumberFn => {
            if args.is_empty() {
                Value::Num(crate::value::str_to_number(&ctx.doc.text_value(ctx.node)))
            } else {
                Value::Num(eval_value(ctx, &args[0], bu)?.to_number(ctx.doc))
            }
        }
        Func::Not => {
            let v = match args.first() {
                Some(a) => eval_value(ctx, a, bu)?.to_bool(),
                None => false,
            };
            Value::Bool(!v)
        }
        Func::True => Value::Bool(true),
        Func::False => Value::Bool(false),
        Func::NormalizeSpace => {
            let s = if args.is_empty() {
                ctx.doc.text_value(ctx.node)
            } else {
                eval_value(ctx, &args[0], bu)?.to_string_value(ctx.doc)
            };
            Value::Str(s.split_whitespace().collect::<Vec<_>>().join(" "))
        }
        Func::Concat => {
            let mut out = String::new();
            for a in args {
                out.push_str(&eval_value(ctx, a, bu)?.to_string_value(ctx.doc));
            }
            Value::Str(out)
        }
        Func::Substring => {
            let s = arg_string(ctx, args, 0, bu)?;
            let chars: Vec<char> = s.chars().collect();
            let start = match args.get(1) {
                Some(a) => eval_value(ctx, a, bu)?.to_number(ctx.doc),
                None => 1.0,
            };
            let start_idx = if start.is_nan() {
                return Ok(Value::Str(String::new()));
            } else {
                (start.round().max(1.0) as usize).saturating_sub(1)
            };
            let end_idx = match args.get(2) {
                Some(a) => {
                    let len = eval_value(ctx, a, bu)?.to_number(ctx.doc);
                    if len.is_nan() || len <= 0.0 {
                        return Ok(Value::Str(String::new()));
                    }
                    // XPath: positions p with start ≤ p < start + len.
                    ((start.round() + len.round()).max(1.0) as usize).saturating_sub(1)
                }
                None => chars.len(),
            };
            let end_idx = end_idx.min(chars.len());
            if start_idx >= end_idx {
                Value::Str(String::new())
            } else {
                Value::Str(chars[start_idx..end_idx].iter().collect())
            }
        }
        Func::SubstringBefore => {
            let a = arg_string(ctx, args, 0, bu)?;
            let b = arg_string(ctx, args, 1, bu)?;
            Value::Str(a.split_once(&b).map(|(x, _)| x.to_string()).unwrap_or_default())
        }
        Func::SubstringAfter => {
            let a = arg_string(ctx, args, 0, bu)?;
            let b = arg_string(ctx, args, 1, bu)?;
            Value::Str(a.split_once(&b).map(|(_, y)| y.to_string()).unwrap_or_default())
        }
        Func::StringLength => {
            let s = if args.is_empty() {
                ctx.doc.text_value(ctx.node)
            } else {
                arg_string(ctx, args, 0, bu)?
            };
            Value::Num(s.chars().count() as f64)
        }
        Func::Translate => {
            let s = arg_string(ctx, args, 0, bu)?;
            let from: Vec<char> = arg_string(ctx, args, 1, bu)?.chars().collect();
            let to: Vec<char> = arg_string(ctx, args, 2, bu)?.chars().collect();
            let out: String = s
                .chars()
                .filter_map(|c| match from.iter().position(|&f| f == c) {
                    Some(i) => to.get(i).copied(),
                    None => Some(c),
                })
                .collect();
            Value::Str(out)
        }
        Func::BooleanFn => {
            let v = match args.first() {
                Some(a) => eval_value(ctx, a, bu)?.to_bool(),
                None => false,
            };
            Value::Bool(v)
        }
        Func::Floor => Value::Num(arg_number(ctx, args, 0, bu)?.floor()),
        Func::Ceiling => Value::Num(arg_number(ctx, args, 0, bu)?.ceil()),
        Func::Round => Value::Num(arg_number(ctx, args, 0, bu)?.round()),
        Func::Sum => match args.first() {
            Some(a) => match eval_value(ctx, a, bu)? {
                Value::NodeSet(ns) => Value::Num(
                    ns.iter().map(|&n| crate::value::str_to_number(&ctx.doc.text_value(n))).sum(),
                ),
                _ => Value::Num(f64::NAN),
            },
            None => Value::Num(f64::NAN),
        },
    })
}

fn arg_number(
    ctx: &EvalCtx<'_>,
    args: &[Expr],
    i: usize,
    bu: &mut Budget,
) -> Result<f64, EvalError> {
    Ok(match args.get(i) {
        Some(a) => eval_value(ctx, a, bu)?.to_number(ctx.doc),
        None => f64::NAN,
    })
}

fn arg_string(
    ctx: &EvalCtx<'_>,
    args: &[Expr],
    i: usize,
    bu: &mut Budget,
) -> Result<String, EvalError> {
    Ok(match args.get(i) {
        Some(a) => eval_value(ctx, a, bu)?.to_string_value(ctx.doc),
        None => String::new(),
    })
}

/// Evaluates a standalone boolean condition against a context node
/// (used by tools and tests). Unbudgeted.
pub fn eval_condition(doc: &Document, node: NodeId, e: &Expr) -> bool {
    let ctx = EvalCtx { doc, node, position: 1, size: 1 };
    let mut budget = Budget::new(EvalLimits::unlimited(), None);
    eval_bool(&ctx, e, &mut budget).expect("unlimited evaluation cannot exhaust a budget")
}

/// Convenience: parse then select.
pub fn select_str(doc: &Document, path: &str) -> crate::lexer::Result<Vec<NodeId>> {
    let p = crate::parser::parse_path(path)?;
    Ok(select(doc, &p))
}

/// Pretty string for a selected node (diagnostics in tools/tests).
pub fn describe_node(doc: &Document, n: NodeId) -> String {
    match &doc.node(n).data {
        NodeData::Element { name, .. } => format!("<{name}>"),
        NodeData::Attr { name, value } => format!("@{name}={value:?}"),
        NodeData::Text(t) => format!("text({t:?})"),
        NodeData::Comment(_) => "comment".to_string(),
        NodeData::Pi { target, .. } => format!("pi({target})"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_path;
    use xmlsec_xml::parse;

    const LAB: &str = r#"<laboratory>
        <project name="Access Models" type="internal">
            <manager><flname>Sam Marlow</flname></manager>
            <member><flname>Ann Eager</flname></member>
            <fund><sponsor>MURST</sponsor><amount>40000</amount></fund>
            <paper category="private" type="internal">P1</paper>
            <paper category="public" type="conference">P2</paper>
        </project>
        <project name="Query Engines" type="public">
            <manager><flname>Bob Keen</flname></manager>
            <paper category="public" type="journal">P3</paper>
        </project>
    </laboratory>"#;

    fn doc() -> xmlsec_xml::Document {
        parse(LAB).unwrap()
    }

    fn names(d: &xmlsec_xml::Document, ns: &[NodeId]) -> Vec<String> {
        ns.iter().map(|&n| describe_node(d, n)).collect()
    }

    fn sel(d: &xmlsec_xml::Document, p: &str) -> Vec<NodeId> {
        select(d, &parse_path(p).unwrap())
    }

    #[test]
    fn absolute_child_selection() {
        let d = doc();
        assert_eq!(sel(&d, "/laboratory/project").len(), 2);
        assert_eq!(sel(&d, "/laboratory").len(), 1);
        assert_eq!(sel(&d, "/wrong").len(), 0);
    }

    #[test]
    fn descendant_selection() {
        let d = doc();
        // paper's example: /laboratory//flname
        let fl = sel(&d, "/laboratory//flname");
        assert_eq!(fl.len(), 3);
        assert!(names(&d, &fl).iter().all(|n| n == "<flname>"));
    }

    #[test]
    fn leading_double_slash() {
        let d = doc();
        assert_eq!(sel(&d, "//paper").len(), 3);
        assert_eq!(sel(&d, "//project").len(), 2);
        assert_eq!(sel(&d, "//laboratory").len(), 1);
    }

    #[test]
    fn attribute_selection() {
        let d = doc();
        let attrs = sel(&d, "/laboratory/project/@name");
        assert_eq!(attrs.len(), 2);
        assert_eq!(d.attr_value(attrs[0]), Some("Access Models"));
        let all = sel(&d, "//@category");
        assert_eq!(all.len(), 3);
    }

    #[test]
    fn relative_path_starts_at_document_element() {
        let d = doc();
        // the paper's object `project[./@type="internal"]`
        let p = sel(&d, r#"project[./@type="internal"]"#);
        assert_eq!(p.len(), 1);
        assert_eq!(d.attribute(p[0], "name"), Some("Access Models"));
    }

    #[test]
    fn ancestor_axis() {
        let d = doc();
        // paper's example: fund/ancestor::project — "returns the project
        // node which appears as an ancestor of the fund element". As a
        // relative path it needs a starting point with a fund child: the
        // first project.
        let project = sel(&d, "/laboratory/project[1]")[0];
        let path = parse_path("fund/ancestor::project").unwrap();
        let p = eval_path(&d, project, &path);
        assert_eq!(p.len(), 1);
        assert_eq!(d.attribute(p[0], "name"), Some("Access Models"));
        // The same selection, anchored: //fund/ancestor::project.
        let p2 = sel(&d, "//fund/ancestor::project");
        assert_eq!(p2, p);
        // ancestor from a deep node reaches the root element
        let lab = sel(&d, "//flname/ancestor::laboratory");
        assert_eq!(lab.len(), 1);
    }

    #[test]
    fn parent_and_self_axes() {
        let d = doc();
        let p = sel(&d, "//flname/../..");
        // parents-of-parents: manager/member's parents = projects
        assert_eq!(p.len(), 2);
        let s = sel(&d, "/laboratory/.");
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn positional_predicates() {
        let d = doc();
        // paper's example: /laboratory/project[1]
        let p1 = sel(&d, "/laboratory/project[1]");
        assert_eq!(p1.len(), 1);
        assert_eq!(d.attribute(p1[0], "name"), Some("Access Models"));
        let p2 = sel(&d, "/laboratory/project[2]");
        assert_eq!(d.attribute(p2[0], "name"), Some("Query Engines"));
        assert_eq!(sel(&d, "/laboratory/project[3]").len(), 0);
        let last = sel(&d, "/laboratory/project[position() = last()]");
        assert_eq!(d.attribute(last[0], "name"), Some("Query Engines"));
    }

    #[test]
    fn paper_condition_chain() {
        let d = doc();
        let p = sel(
            &d,
            r#"/laboratory/project[./@name = "Access Models"]/paper[./@type = "internal"]"#,
        );
        assert_eq!(p.len(), 1);
        assert_eq!(d.text_value(p[0]), "P1");
    }

    #[test]
    fn private_papers_example() {
        let d = doc();
        // Example 1 authorization object
        let p = sel(&d, r#"/laboratory//paper[./@category="private"]"#);
        assert_eq!(p.len(), 1);
        assert_eq!(d.text_value(p[0]), "P1");
    }

    #[test]
    fn and_or_in_conditions() {
        let d = doc();
        assert_eq!(sel(&d, r#"//paper[@category="public" and @type="journal"]"#).len(), 1);
        assert_eq!(sel(&d, r#"//paper[@category="private" or @type="journal"]"#).len(), 2);
    }

    #[test]
    fn text_content_conditions() {
        let d = doc();
        let f = sel(&d, r#"//fund[sponsor = "MURST"]"#);
        assert_eq!(f.len(), 1);
        let f2 = sel(&d, r#"//fund[amount > 30000]"#);
        assert_eq!(f2.len(), 1);
        let f3 = sel(&d, r#"//fund[amount > 50000]"#);
        assert_eq!(f3.len(), 0);
    }

    #[test]
    fn text_node_test() {
        let d = doc();
        let t = sel(&d, "//paper/text()");
        assert_eq!(t.len(), 3);
        let cond = sel(&d, r#"//paper[text() = "P2"]"#);
        assert_eq!(cond.len(), 1);
    }

    #[test]
    fn wildcard_step() {
        let d = doc();
        let k = sel(&d, "/laboratory/*");
        assert_eq!(k.len(), 2);
        let gk = sel(&d, "/laboratory/*/*");
        // children of both projects: manager, member, fund, paper, paper | manager, paper
        assert_eq!(gk.len(), 7);
    }

    #[test]
    fn count_function() {
        let d = doc();
        let p = sel(&d, "//project[count(paper) >= 2]");
        assert_eq!(p.len(), 1);
        assert_eq!(d.attribute(p[0], "name"), Some("Access Models"));
    }

    #[test]
    fn contains_and_starts_with() {
        let d = doc();
        assert_eq!(sel(&d, r#"//flname[contains(., "Marlow")]"#).len(), 1);
        assert_eq!(sel(&d, r#"//flname[starts-with(., "Ann")]"#).len(), 1);
    }

    #[test]
    fn not_function_and_ne() {
        let d = doc();
        assert_eq!(sel(&d, r#"//paper[not(@category="private")]"#).len(), 2);
        // != on attribute
        assert_eq!(sel(&d, r#"//paper[@category != "private"]"#).len(), 2);
    }

    #[test]
    fn predicates_renumber_between_brackets() {
        let d = doc();
        // Positions renumber after each predicate, per parent: the first
        // *public* paper of each project (P2 under project 1, P3 under
        // project 2).
        let p = sel(&d, r#"//paper[@category="public"][1]"#);
        assert_eq!(p.len(), 2);
        assert_eq!(d.text_value(p[0]), "P2");
        assert_eq!(d.text_value(p[1]), "P3");
    }

    #[test]
    fn descendant_or_self_node_matches_attributes_via_at() {
        let d = doc();
        let a = sel(&d, r#"//@type"#);
        // project(x2) and paper(x3) types
        assert_eq!(a.len(), 5);
    }

    #[test]
    fn bare_root_selects_nothing_but_children_do() {
        let d = doc();
        assert_eq!(sel(&d, "/").len(), 0); // virtual root is not a real node
        assert_eq!(sel(&d, "/*").len(), 1);
    }

    #[test]
    fn results_deduplicated() {
        let d = doc();
        // `//paper/ancestor::project | via multiple papers` — same project
        // reached via two papers must appear once.
        let p = sel(&d, "//paper/ancestor::project");
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn eval_condition_helper() {
        let d = doc();
        let proj = sel(&d, "/laboratory/project[1]")[0];
        let cond = crate::parser::parse_expr(r#"./@type = "internal""#).unwrap();
        assert!(eval_condition(&d, proj, &cond));
        let cond2 = crate::parser::parse_expr(r#"./@type = "public""#).unwrap();
        assert!(!eval_condition(&d, proj, &cond2));
    }

    #[test]
    fn normalize_space() {
        let d = parse("<a><b>  hi   there </b></a>").unwrap();
        let b = sel(&d, r#"//b[normalize-space(.) = "hi there"]"#);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn node_budget_is_typed_error() {
        let d = doc();
        let p = parse_path("//*//*").unwrap();
        let tiny = EvalLimits { max_node_visits: 5, ..EvalLimits::default() };
        let e = select_limited(&d, &p, &tiny).unwrap_err();
        assert_eq!(e, EvalError::NodeBudget { limit: 5 });
        assert_eq!(e.kind(), "node_visits");
        // The same expression under defaults succeeds.
        assert!(select_limited(&d, &p, &EvalLimits::default()).is_ok());
    }

    #[test]
    fn budget_covers_inner_predicate_paths() {
        let d = doc();
        // The predicate path re-walks each candidate's subtree; those
        // visits must draw from the same budget.
        let p = parse_path("//project[.//flname]").unwrap();
        let tiny = EvalLimits { max_node_visits: 10, ..EvalLimits::default() };
        assert!(select_limited(&d, &p, &tiny).is_err());
        assert_eq!(select_limited(&d, &p, &EvalLimits::default()).unwrap().len(), 2);
    }

    #[test]
    fn eval_depth_cap_is_typed_error() {
        let d = doc();
        let p = parse_path("//project[paper[text()]]").unwrap();
        let shallow = EvalLimits { max_eval_depth: 1, ..EvalLimits::default() };
        let e = select_limited(&d, &p, &shallow).unwrap_err();
        assert_eq!(e, EvalError::Depth { limit: 1 });
        assert!(select_limited(&d, &p, &EvalLimits::default()).is_ok());
    }

    #[test]
    fn limited_matches_unlimited_when_within_budget() {
        let d = doc();
        for expr in ["//paper", "/laboratory//flname", r#"//paper[@category="public"][1]"#] {
            let p = parse_path(expr).unwrap();
            assert_eq!(
                select_limited(&d, &p, &EvalLimits::default()).unwrap(),
                select(&d, &p),
                "{expr}"
            );
        }
    }

    #[test]
    fn positional_predicates_are_recognized() {
        let positional = |e: &str| is_positional(&crate::parser::parse_expr(e).unwrap());
        for e in ["1", "last()", "position() = 2", "count(x)", "number(@n)", "@n + 1", "-1"] {
            assert!(positional(e), "{e}");
        }
        for e in [r#"@a = "v""#, "x[1]", "not(x)", "x[last()]", "count(x) > 1", "true()"] {
            assert!(!positional(e), "{e}");
        }
    }

    #[test]
    fn a_successful_evaluation_draws_exactly_what_it_visited() {
        let d = doc();
        let p = parse_path(r#"//*[.//paper[@category="public"]]//flname"#).unwrap();
        let limits = EvalLimits::default();
        let big = SharedBudget::new(1_000_000);
        let want = eval_path_shared(&d, d.root(), &p, &limits, &big).unwrap();
        let drawn = 1_000_000 - big.remaining();
        assert!(drawn > 0);
        let counted = eval_path_counted(&d, d.root(), &p, &limits, &SharedBudget::new(drawn));
        let counted = counted.unwrap();
        assert_eq!((counted.nodes, counted.visits), (want.clone(), drawn));
        assert_eq!(counted.depth, 3, "the path, its predicate's path and that one's predicate");
        let exact = SharedBudget::new(drawn);
        assert_eq!(eval_path_shared(&d, d.root(), &p, &limits, &exact).unwrap(), want);
        assert_eq!(exact.remaining(), 0);
        let short = SharedBudget::new(drawn - 1);
        let e = eval_path_shared(&d, d.root(), &p, &limits, &short).unwrap_err();
        assert_eq!(e, EvalError::NodeBudget { limit: drawn - 1 });
    }

    #[test]
    fn a_long_walk_polls_its_token_between_chunks() {
        // 2,000 siblings: a cancel that trips at the second poll stops
        // the walk before it ends; the last poll alone would not.
        let xml = format!("<r>{}</r>", "<a/>".repeat(2000));
        let d = parse(&xml).unwrap();
        let p = parse_path("//b").unwrap();
        let limits = EvalLimits::default();
        let token = xmlsec_xml::cancel::CancelToken::cancel_after_polls(1);
        let pool = SharedBudget::with_cancel(u64::MAX, token);
        let e = eval_path_shared(&d, d.root(), &p, &limits, &pool).unwrap_err();
        assert!(e.is_cancelled());
        assert!(pool.remaining() < u64::MAX, "the first chunk was drawn before the trip");
    }

    #[test]
    fn eval_path_limited_enforces_budget_from_context() {
        let d = doc();
        let project = sel(&d, "/laboratory/project[1]")[0];
        let p = parse_path(".//*").unwrap();
        let tiny = EvalLimits { max_node_visits: 2, ..EvalLimits::default() };
        assert!(eval_path_limited(&d, project, &p, &tiny).is_err());
        assert!(eval_path_limited(&d, project, &p, &EvalLimits::default()).is_ok());
    }
}
