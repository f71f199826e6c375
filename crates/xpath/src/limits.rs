//! Resource limits for path-expression evaluation.
//!
//! Authorization subjects supply path expressions (the paper's §4 objects)
//! and, at the server, requesters supply query paths — both are untrusted
//! input once the server faces the open network. A pathological expression
//! such as `//*//*//*//*` multiplies subtree scans and can pin a worker on
//! one request. [`EvalLimits`] bounds the evaluation: a budget of nodes the
//! evaluator may examine, and a cap on how deeply predicate evaluation may
//! recurse into inner paths. Every violation is a typed, recoverable
//! [`EvalError`] — never a panic or runaway loop.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use xmlsec_xml::cancel::{CancelReason, CancelToken};

/// Caps applied to one top-level path evaluation (inner predicate paths
/// share the same budget).
///
/// Thread through [`crate::select_limited`] / [`crate::eval_path_limited`];
/// the unlimited [`crate::select`] / [`crate::eval_path`] remain for
/// trusted, program-generated expressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvalLimits {
    /// Maximum nodes the evaluator may examine across all steps,
    /// predicates, and inner paths of one evaluation.
    ///
    /// Note: the core engine's `label_document_engine` /
    /// `compute_view_engine` entry points treat this as one
    /// **request-wide [`SharedBudget`] pool** shared by every
    /// authorization-object evaluation of the run — the effective budget
    /// is the total across all N objects, not per object. Callers that
    /// previously sized this for the single most expensive object should
    /// size it for the request's total work.
    pub max_node_visits: u64,
    /// Maximum nesting of path evaluations (a predicate containing a path
    /// containing a predicate ... counts one level per inner path).
    pub max_eval_depth: u32,
}

impl EvalLimits {
    /// Default caps: 10 M node visits, 64 levels of inner-path nesting.
    /// Far above anything the example corpus or benchmarks need, far
    /// below what a hostile quadratic expression wants.
    pub const fn default_limits() -> EvalLimits {
        EvalLimits { max_node_visits: 10_000_000, max_eval_depth: 64 }
    }

    /// No caps (`u64::MAX` / `u32::MAX`). For trusted expressions only.
    pub const fn unlimited() -> EvalLimits {
        EvalLimits { max_node_visits: u64::MAX, max_eval_depth: u32::MAX }
    }
}

impl Default for EvalLimits {
    fn default() -> EvalLimits {
        EvalLimits::default_limits()
    }
}

/// A node-visit budget shared by several evaluations — possibly running
/// on different threads.
///
/// [`EvalLimits::max_node_visits`] caps *one* evaluation; when a request
/// evaluates many path expressions (one per authorization object) the
/// engine wants a single request-wide pool instead. Each evaluation
/// draws from it in chunks of visits it has already made (every 256
/// visits and once at its end), never ahead of them, so a successful
/// evaluation has drawn exactly what it visited and whether the budget
/// trips depends only on the **total** work of the request, never on
/// scheduling order. That makes a parallel evaluation trip on exactly the
/// same inputs as a sequential one — the property the differential tests
/// pin down.
#[derive(Debug)]
pub struct SharedBudget {
    remaining: AtomicU64,
    limit: u64,
    /// Request-scoped cancellation: every `take` doubles as a
    /// cooperative checkpoint, so a cancelled request unwinds from the
    /// evaluator's hot loop within 256 visits without any extra
    /// plumbing.
    cancel: Option<CancelToken>,
}

impl SharedBudget {
    /// A pool of `limit` node visits.
    pub fn new(limit: u64) -> SharedBudget {
        SharedBudget { remaining: AtomicU64::new(limit), limit, cancel: None }
    }

    /// A pool that also polls `cancel` on every draw: the budget
    /// checkpoints the evaluator already hits become the cancellation
    /// checkpoints too.
    pub fn with_cancel(limit: u64, cancel: CancelToken) -> SharedBudget {
        SharedBudget { remaining: AtomicU64::new(limit), limit, cancel: Some(cancel) }
    }

    /// Atomically takes `n` visits from the pool; errors once spent or
    /// once the attached cancellation token trips.
    pub fn take(&self, n: u64) -> Result<(), EvalError> {
        if let Some(t) = &self.cancel {
            t.poll().map_err(|c| EvalError::Cancelled(c.reason))?;
        }
        self.remaining
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| cur.checked_sub(n))
            .map(|_| ())
            .map_err(|_| EvalError::NodeBudget { limit: self.limit })
    }

    /// The configured pool size.
    pub fn limit(&self) -> u64 {
        self.limit
    }

    /// Visits not yet spent.
    pub fn remaining(&self) -> u64 {
        self.remaining.load(Ordering::Relaxed)
    }
}

/// A recoverable budget violation during evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalError {
    /// The evaluation examined more than `limit` nodes.
    NodeBudget {
        /// The configured [`EvalLimits::max_node_visits`].
        limit: u64,
    },
    /// Inner-path nesting exceeded `limit` levels.
    Depth {
        /// The configured [`EvalLimits::max_eval_depth`].
        limit: u32,
    },
    /// The request's cancellation token tripped mid-evaluation (see
    /// [`xmlsec_xml::cancel`]). Not a resource-limit violation: the
    /// request was abandoned, not over budget.
    Cancelled(CancelReason),
}

impl EvalError {
    /// Stable snake_case name, used as the `kind` label on the shared
    /// `xmlsec_limits_rejected_total` counter.
    pub fn kind(&self) -> &'static str {
        match self {
            EvalError::NodeBudget { .. } => "node_visits",
            EvalError::Depth { .. } => "eval_depth",
            EvalError::Cancelled(_) => "cancelled",
        }
    }

    /// `true` for cancellations — abandoned requests, as opposed to
    /// inputs that genuinely exceeded a configured cap.
    pub fn is_cancelled(&self) -> bool {
        matches!(self, EvalError::Cancelled(_))
    }
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::NodeBudget { limit } => {
                write!(f, "path evaluation exceeded the node-visit budget ({limit})")
            }
            EvalError::Depth { limit } => {
                write!(f, "path evaluation nested deeper than {limit} levels")
            }
            EvalError::Cancelled(r) => write!(f, "path evaluation cancelled: {r}"),
        }
    }
}

impl std::error::Error for EvalError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_and_display_are_stable() {
        let b = EvalError::NodeBudget { limit: 7 };
        assert_eq!(b.kind(), "node_visits");
        assert!(b.to_string().contains('7'));
        let d = EvalError::Depth { limit: 3 };
        assert_eq!(d.kind(), "eval_depth");
        assert!(d.to_string().contains('3'));
    }

    #[test]
    fn defaults_and_unlimited() {
        let d = EvalLimits::default();
        assert!(d.max_node_visits >= 1_000_000);
        assert!(d.max_eval_depth >= 16);
        assert_eq!(EvalLimits::unlimited().max_node_visits, u64::MAX);
    }

    #[test]
    fn shared_budget_polls_its_cancel_token() {
        let t = CancelToken::never();
        let pool = SharedBudget::with_cancel(1000, t.clone());
        assert!(pool.take(10).is_ok());
        t.cancel();
        let e = pool.take(1).unwrap_err();
        assert_eq!(e, EvalError::Cancelled(CancelReason::Explicit));
        assert!(e.is_cancelled());
        assert_eq!(e.kind(), "cancelled");
        // A plain pool has no token to consult.
        assert!(!EvalError::NodeBudget { limit: 1 }.is_cancelled());
        assert!(SharedBudget::new(5).take(5).is_ok());
    }

    #[test]
    fn shared_budget_draws_exactly() {
        let pool = SharedBudget::new(10);
        assert!(pool.take(4).is_ok());
        assert!(pool.take(6).is_ok());
        assert_eq!(pool.remaining(), 0);
        let e = pool.take(1).unwrap_err();
        assert_eq!(e, EvalError::NodeBudget { limit: 10 });
        assert_eq!(pool.limit(), 10);
    }
}
