//! Audit log: a record of every access decision the server takes, of
//! which the most recent [`AUDIT_CAPACITY`] are kept.
//!
//! Appends are timed into the `xmlsec_audit_append_duration_seconds`
//! histogram so `/metrics` exposes the cost of the audit trail itself.

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock};
use xmlsec_telemetry as telemetry;

/// Outcome of one request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuditOutcome {
    /// A view was computed and returned (with how many of the labeled
    /// nodes were granted).
    Served {
        /// Nodes the requester could see.
        granted_nodes: usize,
        /// Nodes in the source document.
        total_nodes: usize,
        /// Whether the view came from the cache.
        cached: bool,
    },
    /// An update batch was authorized, applied, and committed.
    ///
    /// Distinct from [`AuditOutcome::Served`] so write traffic never
    /// masquerades as a zero-node read in the trail.
    Updated {
        /// Operations in the submitted batch.
        ops: usize,
        /// Concrete node-level mutations applied (a single op can touch
        /// several nodes, e.g. materializing an attribute).
        touched: usize,
    },
    /// Authentication failed.
    AuthenticationFailed,
    /// The URI is not in the repository.
    NotFound,
    /// The processor raised an error.
    ProcessingError(String),
    /// The authorization base changed (grant or revoke) and the policy
    /// pre-flight analyzer ran over the affected schema.
    PolicyChanged {
        /// `"grant"` or `"revoke"`.
        action: String,
        /// Total findings the pre-flight produced.
        findings: usize,
        /// Error-class findings among them.
        errors: usize,
    },
}

/// One audit record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditRecord {
    /// Monotonic sequence number.
    pub seq: u64,
    /// The requester, rendered (`user@host(ip)`).
    pub requester: String,
    /// Requested URI.
    pub uri: String,
    /// What happened.
    pub outcome: AuditOutcome,
}

impl fmt::Display for AuditRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{} {} -> {}: {:?}", self.seq, self.requester, self.uri, self.outcome)
    }
}

fn append_histogram() -> &'static Arc<telemetry::Histogram> {
    static HIST: OnceLock<Arc<telemetry::Histogram>> = OnceLock::new();
    HIST.get_or_init(|| {
        telemetry::global().histogram(
            "xmlsec_audit_append_duration_seconds",
            "Latency of appending one audit record.",
            &[],
            telemetry::Buckets::duration_default(),
        )
    })
}

/// How many records an [`AuditLog`] keeps: the most recent ones, so
/// clients cannot grow server memory by sending requests. Sequence
/// numbers keep counting every record ever appended.
pub const AUDIT_CAPACITY: usize = 16_384;

/// Thread-safe, append-only audit log holding the most recent
/// [`AUDIT_CAPACITY`] records.
#[derive(Debug, Default)]
pub struct AuditLog {
    /// The kept records, oldest first.
    inner: Mutex<VecDeque<AuditRecord>>,
}

impl AuditLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, VecDeque<AuditRecord>> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Appends a record, assigning its sequence number; the oldest record
    /// goes when [`AUDIT_CAPACITY`] are already kept.
    pub fn record(&self, requester: &str, uri: &str, outcome: AuditOutcome) -> u64 {
        append_histogram().time(|| {
            let mut inner = self.lock();
            let seq = inner.back().map_or(0, |r| r.seq + 1);
            if inner.len() == AUDIT_CAPACITY {
                inner.pop_front();
            }
            inner.push_back(AuditRecord {
                seq,
                requester: requester.to_string(),
                uri: uri.to_string(),
                outcome,
            });
            seq
        })
    }

    /// A snapshot of the kept records, oldest first.
    pub fn records(&self) -> Vec<AuditRecord> {
        self.lock().iter().cloned().collect()
    }

    /// Number of kept records (at most [`AUDIT_CAPACITY`]).
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequencing_and_snapshot() {
        let log = AuditLog::new();
        assert!(log.is_empty());
        let s0 = log.record("Tom@h(1.2.3.4)", "a.xml", AuditOutcome::NotFound);
        let s1 = log.record(
            "Tom@h(1.2.3.4)",
            "b.xml",
            AuditOutcome::Served { granted_nodes: 3, total_nodes: 9, cached: false },
        );
        assert_eq!((s0, s1), (0, 1));
        let records = log.records();
        assert_eq!(records.len(), 2);
        assert_eq!(records[1].uri, "b.xml");
        assert!(records[0].to_string().contains("NotFound"));
    }

    #[test]
    fn only_the_most_recent_records_are_kept() {
        let log = AuditLog::new();
        let k = 5;
        for _ in 0..AUDIT_CAPACITY + k {
            log.record("Public@*(*)", "a.xml", AuditOutcome::NotFound);
        }
        assert_eq!(log.len(), AUDIT_CAPACITY);
        let records = log.records();
        assert_eq!(records.first().unwrap().seq, k as u64, "the oldest kept record");
        assert_eq!(records.last().unwrap().seq, (AUDIT_CAPACITY + k - 1) as u64, "the newest");
    }

    #[test]
    fn append_latency_is_measured() {
        let before = append_histogram().totals().0;
        let log = AuditLog::new();
        log.record("Public@*(*)", "a.xml", AuditOutcome::NotFound);
        assert!(append_histogram().totals().0 > before);
    }
}
