//! The secure document server: ties together authentication, the
//! user/group directory, the repository, the security processor, the view
//! cache and the audit log — the paper's §7 architecture with the
//! security processor as a server-side *service component*.
//!
//! Views are cached under **content-addressed** keys: the cache key folds
//! in the repository's registration-time content hash of the document and
//! its DTD, so any content change — an update batch, a direct
//! `put_document`, a DTD replacement — structurally misses the cache.
//! Explicit invalidation is hygiene (it reclaims space early), never a
//! correctness requirement. The same identity backs HTTP conditional
//! revalidation: every served view carries a strong ETag, and
//! [`SecureServer::handle_conditional`] answers a matching
//! `If-None-Match` with [`ConditionalOutcome::NotModified`] without
//! rendering — or even running — the pipeline.

use crate::audit::{AuditLog, AuditOutcome};
use crate::cache::{fingerprint, CachedView, ViewCache, ViewKey};
use crate::faults;
use crate::repo::{fnv1a64, Repository, StoredDocument};
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock, RwLock, RwLockReadGuard, RwLockWriteGuard};
use xmlsec_authz::{
    Action, Authorization, AuthorizationBase, CompletenessPolicy, ConflictResolution, Finding,
    PolicyConfig, Severity,
};
use xmlsec_core::update::{apply_updates_in_place, UpdateError, UpdateOp, WriteContext};
use xmlsec_core::view::{label_document_incremental, render_view, Labeling};
use xmlsec_core::{
    AccessRequest, CancelReason, CancelToken, CompiledCache, DecisionCache, Parallelism,
    PreparedSchema, ProcessError, ResourceLimits, SecurityProcessor,
};
use xmlsec_subjects::{Directory, Requester};
use xmlsec_telemetry as telemetry;

/// Errors returned to a client.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerError {
    /// Wrong user/secret pair.
    AuthenticationFailed,
    /// No such document.
    NotFound(String),
    /// The stored document failed processing (server-side fault).
    Processing(String),
    /// Malformed requester locations.
    BadRequest(String),
    /// A query path that does not parse.
    BadQuery(String),
    /// An update was refused (unauthorized target, missing node, …).
    UpdateDenied(String),
    /// An update batch rejected by the static write pre-flight: op `op`
    /// (0-based) is guaranteed to fail on every valid document, so the
    /// batch was refused before any parsing or labeling. The HTTP front
    /// end maps `op` back to the line of the batch that carried it.
    UpdateDeniedStatic {
        /// Index of the guaranteed-failing op within the batch.
        op: usize,
        /// Why the op can never succeed.
        reason: String,
    },
    /// Serving the request would exceed a configured resource limit
    /// (document too deep/large, path evaluation over budget, …).
    LimitExceeded(String),
    /// The request was cancelled before a view was produced — its
    /// deadline passed, the client hung up, or the front end shed it.
    /// Partial work is discarded; the document and policy are not at
    /// fault and an identical retry can succeed.
    Cancelled(CancelReason),
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::AuthenticationFailed => write!(f, "authentication failed"),
            ServerError::NotFound(u) => write!(f, "document {u:?} not found"),
            ServerError::Processing(e) => write!(f, "processing error: {e}"),
            ServerError::BadRequest(e) => write!(f, "bad request: {e}"),
            ServerError::BadQuery(e) => write!(f, "bad query: {e}"),
            ServerError::UpdateDenied(e) => write!(f, "update denied: {e}"),
            ServerError::UpdateDeniedStatic { op, reason } => {
                write!(f, "update denied: op {}: {reason}", op + 1)
            }
            ServerError::LimitExceeded(e) => write!(f, "resource limit exceeded: {e}"),
            ServerError::Cancelled(r) => write!(f, "request cancelled: {r}"),
        }
    }
}

impl std::error::Error for ServerError {}

struct ServerMetrics {
    served: Arc<telemetry::Counter>,
    served_cached: Arc<telemetry::Counter>,
    not_modified: Arc<telemetry::Counter>,
    auth_failed: Arc<telemetry::Counter>,
    not_found: Arc<telemetry::Counter>,
    bad_request: Arc<telemetry::Counter>,
    processing_error: Arc<telemetry::Counter>,
    limit_exceeded: Arc<telemetry::Counter>,
    cancelled: Arc<telemetry::Counter>,
    duration: Arc<telemetry::Histogram>,
}

impl ServerMetrics {
    fn for_outcome(&self, r: &Result<ConditionalOutcome, ServerError>) -> &telemetry::Counter {
        match r {
            Ok(ConditionalOutcome::NotModified { .. }) => &self.not_modified,
            Ok(ConditionalOutcome::Full(resp)) if resp.cached => &self.served_cached,
            Ok(ConditionalOutcome::Full(_)) => &self.served,
            Err(ServerError::AuthenticationFailed) => &self.auth_failed,
            Err(ServerError::NotFound(_)) => &self.not_found,
            Err(ServerError::Processing(_)) => &self.processing_error,
            Err(ServerError::LimitExceeded(_)) => &self.limit_exceeded,
            Err(ServerError::Cancelled(_)) => &self.cancelled,
            Err(
                ServerError::BadRequest(_)
                | ServerError::BadQuery(_)
                | ServerError::UpdateDenied(_)
                | ServerError::UpdateDeniedStatic { .. },
            ) => &self.bad_request,
        }
    }
}

fn server_metrics() -> &'static ServerMetrics {
    static METRICS: OnceLock<ServerMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = telemetry::global();
        let outcome = |o: &'static str| {
            reg.counter(
                "xmlsec_requests_total",
                "Document requests handled, by outcome.",
                &[("outcome", o)],
            )
        };
        ServerMetrics {
            served: outcome("served"),
            served_cached: outcome("served_cached"),
            not_modified: outcome("not_modified"),
            auth_failed: outcome("auth_failed"),
            not_found: outcome("not_found"),
            bad_request: outcome("bad_request"),
            processing_error: outcome("processing_error"),
            limit_exceeded: outcome("limit_exceeded"),
            cancelled: outcome("cancelled"),
            duration: reg.histogram(
                "xmlsec_request_duration_seconds",
                "End-to-end latency of one document request.",
                &[],
                telemetry::Buckets::duration_default(),
            ),
        }
    })
}

/// Counter for one static pre-flight verdict (`deny` / `allow` /
/// `dynamic`); the registry caches per label set.
fn static_verdicts(verdict: &'static str) -> Arc<telemetry::Counter> {
    telemetry::global().counter(
        "xmlsec_update_static_verdicts_total",
        "Update batches classified by the compiled write-verdict pre-flight, by verdict.",
        &[("verdict", verdict)],
    )
}

struct PatchMetrics {
    patched: Arc<telemetry::Counter>,
    dropped: Arc<telemetry::Counter>,
}

fn patch_metrics() -> &'static PatchMetrics {
    static METRICS: OnceLock<PatchMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = telemetry::global();
        let result = |r: &'static str| {
            reg.counter(
                "xmlsec_view_patches_total",
                "Warm cached views handled after an update commit, by result: \
                 patched in place, or dropped (no bookkeeping / labeling error).",
                &[("result", r)],
            )
        };
        PatchMetrics { patched: result("patched"), dropped: result("dropped") }
    })
}

/// A client request: credentials plus connection endpoints.
#[derive(Debug, Clone)]
pub struct ClientRequest {
    /// User identity; `None` connects as `anonymous`.
    pub user: Option<(String, String)>,
    /// Numeric address of the connecting host.
    pub ip: String,
    /// Symbolic name of the connecting host.
    pub sym: String,
    /// Requested document URI.
    pub uri: String,
}

/// Result of a secure query: the matching fragments, serialized.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryResponse {
    /// Serialized fragments (elements/text) or attribute values.
    pub matches: Vec<String>,
    /// Whether the underlying view came from the cache.
    pub from_cached_view: bool,
}

/// The server's answer: the view and its loosened DTD.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerResponse {
    /// The view XML text.
    pub xml: String,
    /// The loosened DTD, when the document declares one.
    pub loosened_dtd: Option<String>,
    /// Whether the response came from the view cache.
    pub cached: bool,
    /// Strong entity tag over the view's cache key and bytes (unquoted
    /// token; the HTTP layer adds the quotes).
    pub etag: String,
}

/// Outcome of a conditional request ([`SecureServer::handle_conditional`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConditionalOutcome {
    /// The client's `If-None-Match` matched the current view: nothing was
    /// rendered, the client's copy is still authoritative.
    NotModified {
        /// The (unquoted) entity tag the match was made against.
        etag: String,
    },
    /// A full response.
    Full(ServerResponse),
}

/// What the request prologue established before any pipeline stage ran:
/// the authenticated requester, the document revision it found and the
/// content-addressed cache key of that revision. A cache-only probe that
/// cannot answer hands it on with the request, so compute does not
/// authenticate and fingerprint the request again, and computes the view
/// of exactly the revision it keyed without touching the repository.
pub(crate) struct ViewTicket {
    requester: Requester,
    requester_str: String,
    key: ViewKey,
    revision: Arc<StoredDocument>,
}

/// The outcome of the request prologue: a finished answer from the
/// cache, or the ticket compute needs.
pub(crate) enum Probe {
    Hit(ConditionalOutcome),
    Miss(ViewTicket),
}

/// Strong entity tag for a view: FNV-1a over the cache key and the exact
/// bytes served. Computed once when the view is rendered and stored with
/// the cached view, so hits never rehash.
fn etag_for(key: &ViewKey, xml: &str, loosened_dtd: Option<&str>) -> String {
    let dtd = loosened_dtd.unwrap_or("");
    let mut buf = Vec::with_capacity(24 + key.uri.len() + xml.len() + dtd.len());
    buf.extend_from_slice(&key.fingerprint.to_le_bytes());
    buf.extend_from_slice(&key.content.to_le_bytes());
    buf.extend_from_slice(key.uri.as_bytes());
    buf.push(0);
    buf.extend_from_slice(xml.as_bytes());
    buf.push(0);
    buf.extend_from_slice(dtd.as_bytes());
    format!("{:016x}", fnv1a64(&buf))
}

/// `true` when an `If-None-Match` header value matches `etag` (an
/// unquoted token). Accepts a comma-separated list, quoted tags, `W/`
/// weak prefixes (a weak match suffices for a GET), and `*`.
pub fn etag_matches(if_none_match: &str, etag: &str) -> bool {
    if_none_match.split(',').map(str::trim).any(|t| {
        if t == "*" {
            return true;
        }
        let t = t.strip_prefix("W/").unwrap_or(t);
        t.trim_matches('"') == etag
    })
}

/// Per-cached-view bookkeeping for the incremental update path: enough
/// to recompute the view against the post-update document without
/// rerunning the full pipeline. `prev` is the labeling of the
/// repository's parsed document from the last patch (or `None` before
/// the first, which relabels in full and captures the reuse state), fed
/// to [`label_document_incremental`] so unchanged nodes keep their labels.
#[derive(Clone)]
struct PatchEntry {
    requester: Requester,
    prev: Option<Arc<Labeling>>,
}

/// One warm view of an updated document, rendered against the next
/// revision and waiting for the publish: `new` is `None` when the view
/// could not be patched and is dropped instead.
struct Patch {
    old: ViewKey,
    new: Option<(ViewKey, CachedView, PatchEntry)>,
}

/// The secure server.
pub struct SecureServer {
    /// The one security processor (paper §7): directory, authorization
    /// base, policy, limits, parallelism, and the shared label-decision
    /// memo. Fingerprinted memo keys make stale hits impossible; grant
    /// and revoke clear the memo anyway to reclaim the space. The
    /// compiled-policy cache is attached while reads compile.
    processor: SecurityProcessor,
    /// Update batches serialize on this lock, so at most one revision is
    /// being prepared at a time. Lock order: writer → repository →
    /// patch state → cache.
    writer: Mutex<()>,
    /// The current revision of every document. Requests hold the read
    /// side only to take a revision's `Arc`; an update takes the write
    /// side only to swap in its next revision and patched views.
    repository: RwLock<Repository>,
    /// Patch bookkeeping keyed by cache key, pruned against the live
    /// cache after every update so it cannot outgrow it.
    patch_state: Mutex<HashMap<ViewKey, PatchEntry>>,
    credentials: HashMap<String, String>,
    cache: Option<ViewCache>,
    /// Cross-request compiled-policy cache (see [`mod@xmlsec_core::compile`]),
    /// invalidated together with the decision memo on grant/revoke. The
    /// write pre-flight uses it whether or not reads compile.
    compiled: Arc<CompiledCache>,
    /// Whether `POST /update` consults the compiled write-verdict table
    /// before labeling (default: on; off for the ablation bench).
    static_preflight: bool,
    /// The audit log (public so operators can inspect it).
    pub audit: AuditLog,
}

impl SecureServer {
    /// Builds a server with the paper's default policy, default resource
    /// limits, and caching on.
    pub fn new(directory: Directory, authorizations: AuthorizationBase) -> Self {
        let compiled = Arc::new(CompiledCache::new());
        let processor = SecurityProcessor::new(directory, authorizations)
            .with_decision_cache(Arc::new(DecisionCache::new()))
            .with_compiled_cache(Arc::clone(&compiled));
        SecureServer {
            processor,
            writer: Mutex::new(()),
            repository: RwLock::new(Repository::new()),
            patch_state: Mutex::new(HashMap::new()),
            credentials: HashMap::new(),
            cache: Some(ViewCache::new()),
            compiled,
            static_preflight: true,
            audit: AuditLog::new(),
        }
    }

    /// Disables the view cache (used by the cache-ablation bench).
    pub fn without_cache(mut self) -> Self {
        self.cache = None;
        self
    }

    /// Disables the static write pre-flight on updates (used by the
    /// pre-flight ablation bench and the byte-identity differentials).
    pub fn without_static_preflight(mut self) -> Self {
        self.static_preflight = false;
        self
    }

    /// Bounds the view cache to `capacity` entries (oldest-first
    /// eviction past that).
    pub fn with_cache_capacity(mut self, capacity: usize) -> Self {
        self.cache = Some(ViewCache::with_capacity(capacity));
        self
    }

    /// Sets the per-server policy (one policy per document holds — the
    /// server applies this to all the documents it stores).
    pub fn with_policy(mut self, policy: PolicyConfig) -> Self {
        self.processor.options.policy = policy;
        self
    }

    /// Sets the resource limits applied to parsing and path evaluation
    /// for every request.
    pub fn with_limits(mut self, limits: ResourceLimits) -> Self {
        self.processor.options.limits = limits;
        self
    }

    /// The server's configured resource limits.
    pub fn limits(&self) -> ResourceLimits {
        self.processor.options.limits
    }

    /// Sets the per-request compute-view parallelism. Extra threads are
    /// leased from the process-wide core budget, so concurrent requests
    /// on the HTTP worker pool degrade gracefully to sequential instead
    /// of oversubscribing the machine.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.processor.options.parallelism = parallelism;
        self
    }

    /// The configured compute-view parallelism.
    pub fn parallelism(&self) -> Parallelism {
        self.processor.options.parallelism
    }

    /// The shared label-decision cache (for stats and tests).
    pub fn decision_cache(&self) -> &DecisionCache {
        self.processor
            .decisions
            .as_deref()
            .expect("the server attaches a decision cache")
    }

    /// Turns policy compilation of reads on or off (on by default; see
    /// [`mod@xmlsec_core::compile`]) by attaching the server's compiled
    /// cache to its processor or detaching it. The write pre-flight
    /// keeps using the cache either way.
    pub fn with_compile(mut self, on: bool) -> Self {
        self.processor.compiled = on.then(|| Arc::clone(&self.compiled));
        self
    }

    /// The shared compiled-policy cache (for stats and tests).
    pub fn compiled_cache(&self) -> &CompiledCache {
        &self.compiled
    }

    /// Registers a user with a shared secret (the paper assumes local
    /// identities "established and authenticated by the server").
    pub fn register_credentials(&mut self, user: &str, secret: &str) {
        self.credentials.insert(user.to_string(), secret.to_string());
    }

    /// Mutable access to the repository for setup.
    pub fn repository_mut(&mut self) -> &mut Repository {
        self.repository.get_mut().unwrap_or_else(|e| e.into_inner())
    }

    /// Read access to the repository (a shared read guard; concurrent
    /// readers coexist, a publishing update briefly blocks).
    pub fn repository(&self) -> RwLockReadGuard<'_, Repository> {
        self.read_repo()
    }

    fn read_repo(&self) -> RwLockReadGuard<'_, Repository> {
        self.repository.read().unwrap_or_else(|e| e.into_inner())
    }

    fn write_repo(&self) -> RwLockWriteGuard<'_, Repository> {
        self.repository.write().unwrap_or_else(|e| e.into_inner())
    }

    fn lock_patch_state(&self) -> std::sync::MutexGuard<'_, HashMap<ViewKey, PatchEntry>> {
        self.patch_state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Drops patch bookkeeping whose cache entry is gone (evicted,
    /// invalidated, or never patched), bounding the map by cache size.
    fn prune_patch_state(&self) {
        let mut state = self.lock_patch_state();
        match &self.cache {
            Some(cache) => state.retain(|k, _| cache.contains_key(k)),
            None => state.clear(),
        }
    }

    /// Read access to the directory.
    pub fn directory(&self) -> &Directory {
        &self.processor.directory
    }

    /// Drops cached views affected by a policy change on `uri`. When
    /// `uri` names a DTD, the sweep resolves to every document that is
    /// an instance of it (a schema-level authorization never matches a
    /// cache key directly — keys are document URIs).
    ///
    /// This is space hygiene, not a correctness requirement: the cache
    /// key fingerprints the applicable authorization sets, so a policy
    /// change moves the key for every requester it affects.
    fn invalidate_for_object_uri(&self, uri: &str) {
        if let Some(c) = &self.cache {
            c.invalidate_uri(uri);
            for doc in self.read_repo().documents_with_dtd(uri) {
                c.invalidate_uri(&doc);
            }
        }
        self.prune_patch_state();
    }

    /// Adds an authorization at runtime, invalidating affected views —
    /// the named document's, or every conforming instance's when the
    /// authorization is schema-level. Unrelated documents keep their
    /// cached views. Runs the policy pre-flight analyzer over the new
    /// base and returns its findings (the change itself always lands;
    /// findings are advisory).
    pub fn grant(&mut self, auth: Authorization) -> Vec<Finding> {
        self.invalidate_for_object_uri(&auth.object.uri);
        self.decision_cache().clear();
        self.compiled.clear();
        let uri = auth.object.uri.clone();
        self.processor.authorizations.add(auth);
        self.policy_preflight("grant", &uri)
    }

    /// Revokes an authorization (exact match), invalidating affected
    /// views. Returns how many copies were removed. When something was
    /// removed, the policy pre-flight analyzer runs over the remaining
    /// base (its findings go to the audit log and `/metrics`).
    pub fn revoke(&mut self, auth: &Authorization) -> usize {
        let removed = self.processor.authorizations.remove(auth);
        if removed > 0 {
            self.invalidate_for_object_uri(&auth.object.uri);
            self.decision_cache().clear();
            self.compiled.clear();
            self.policy_preflight("revoke", &auth.object.uri);
        }
        removed
    }

    /// The grant/revoke pre-flight: statically analyzes the
    /// authorizations in the changed object's scope (its document, its
    /// DTD, and every other instance of that DTD), bumps
    /// `xmlsec_policy_findings_total{severity,kind}` for each finding,
    /// and records the change in the audit log. Findings never block the
    /// change — operators see them through the returned list, the audit
    /// trail, and `/metrics`.
    fn policy_preflight(&self, action: &str, object_uri: &str) -> Vec<Finding> {
        let repo = self.read_repo();
        // Resolve the schema scope of the changed object.
        let dtd_uri = if repo.dtd(object_uri).is_some() {
            Some(object_uri.to_string())
        } else {
            repo.document(object_uri).and_then(|d| d.dtd_uri.clone())
        };
        let mut scope: std::collections::BTreeSet<String> =
            std::iter::once(object_uri.to_string()).collect();
        if let Some(du) = &dtd_uri {
            scope.insert(du.clone());
            scope.extend(repo.documents_with_dtd(du));
        }
        let SecurityProcessor { directory: dir, authorizations, options, .. } = &self.processor;
        let auths: Vec<Authorization> =
            scope.iter().flat_map(|u| authorizations.for_uri(u)).cloned().collect();

        let mut findings = xmlsec_authz::lint_policy(&auths, dir);
        if let Some(du) = &dtd_uri {
            if let Some(Ok(schema)) = repo.schema(du) {
                let dtd = schema.dtd();
                if let Some(root) = dtd.root_candidates().first().cloned() {
                    findings.extend(xmlsec_core::coverage_findings(dtd, root, &auths));
                    let subjects = xmlsec_core::closure_subjects(&auths, dir);
                    let policy = options.policy;
                    let report =
                        xmlsec_core::analyze_policy(dtd, root, du, &auths, dir, policy, &subjects);
                    findings.extend(report.findings);
                    let writes = xmlsec_core::analyze_policy_writes(
                        dtd, root, du, &auths, dir, policy, &subjects,
                    );
                    findings.extend(writes.findings);
                }
            }
        }
        findings.sort_by(|a, b| a.severity.cmp(&b.severity).then_with(|| a.kind.cmp(&b.kind)));
        for f in &findings {
            telemetry::global()
                .counter(
                    "xmlsec_policy_findings_total",
                    "Findings from the grant/revoke policy pre-flight, by severity and kind.",
                    &[("severity", f.severity.as_str()), ("kind", &f.kind)],
                )
                .inc();
        }
        let errors = findings.iter().filter(|f| f.severity == Severity::Error).count();
        self.audit.record(
            "server",
            object_uri,
            AuditOutcome::PolicyChanged {
                action: action.to_string(),
                findings: findings.len(),
                errors,
            },
        );
        findings
    }

    /// Cache statistics `(hits, misses)`; zeros when caching is off.
    pub fn cache_stats(&self) -> (u64, u64) {
        self.cache.as_ref().map(ViewCache::stats).unwrap_or((0, 0))
    }

    /// Number of live cached views; zero when caching is off.
    pub fn cache_len(&self) -> usize {
        self.cache.as_ref().map(ViewCache::len).unwrap_or(0)
    }

    /// Stale views swept from this server's cache after a content
    /// change; zero when caching is off.
    pub fn cache_stale_rejected(&self) -> u64 {
        self.cache.as_ref().map(ViewCache::stale_rejected).unwrap_or(0)
    }

    fn authenticate(&self, req: &ClientRequest) -> Result<String, ServerError> {
        match &req.user {
            None => Ok("anonymous".to_string()),
            Some((user, secret)) => {
                // Constant-time-ish comparison; secrets are a stand-in for
                // the paper's server-local authentication, not production
                // credential storage.
                match self.credentials.get(user) {
                    Some(expected)
                        if expected.len() == secret.len()
                            && expected
                                .bytes()
                                .zip(secret.bytes())
                                .fold(0u8, |acc, (a, b)| acc | (a ^ b))
                                == 0 =>
                    {
                        Ok(user.clone())
                    }
                    _ => Err(ServerError::AuthenticationFailed),
                }
            }
        }
    }

    /// Handles one request end to end.
    pub fn handle(&self, req: &ClientRequest) -> Result<ServerResponse, ServerError> {
        self.handle_full(req, None)
    }

    /// [`SecureServer::handle_cancellable`] without an `If-None-Match`,
    /// which always yields the full response.
    fn handle_full(
        &self,
        req: &ClientRequest,
        cancel: Option<&CancelToken>,
    ) -> Result<ServerResponse, ServerError> {
        self.handle_cancellable(req, None, cancel).map(|o| match o {
            ConditionalOutcome::Full(resp) => resp,
            // Unreachable: without an If-None-Match nothing can match.
            ConditionalOutcome::NotModified { etag } => {
                ServerResponse { xml: String::new(), loosened_dtd: None, cached: true, etag }
            }
        })
    }

    /// Handles one request end to end, honouring an `If-None-Match`
    /// header value. When the client's entity tag still names the
    /// current view, returns [`ConditionalOutcome::NotModified`] —
    /// from a warm cache this touches no document bytes and runs no
    /// pipeline stage at all.
    pub fn handle_conditional(
        &self,
        req: &ClientRequest,
        if_none_match: Option<&str>,
    ) -> Result<ConditionalOutcome, ServerError> {
        self.handle_cancellable(req, if_none_match, None)
    }

    /// [`SecureServer::handle_conditional`] with a request-scoped
    /// cancellation token. The token is threaded through every pipeline
    /// stage (parse, label, prune, serialize) and checked cooperatively
    /// inside the hot loops; when it trips, the request unwinds with
    /// [`ServerError::Cancelled`], partial work is discarded, and any
    /// leased cores are returned. A `None` token never cancels.
    pub fn handle_cancellable(
        &self,
        req: &ClientRequest,
        if_none_match: Option<&str>,
        cancel: Option<&CancelToken>,
    ) -> Result<ConditionalOutcome, ServerError> {
        self.observed(|| match self.probe(req, if_none_match)? {
            Probe::Hit(outcome) => Ok(outcome),
            Probe::Miss(ticket) => self.compute_view_for(req, if_none_match, cancel, ticket),
        })
    }

    /// [`SecureServer::handle_cancellable`] for a request whose
    /// cache-only probe ([`SecureServer::probe_cache_only`]) missed:
    /// computes from the probe's ticket instead of probing again.
    pub(crate) fn handle_probed(
        &self,
        req: &ClientRequest,
        if_none_match: Option<&str>,
        cancel: Option<&CancelToken>,
        ticket: ViewTicket,
    ) -> Result<ConditionalOutcome, ServerError> {
        self.observed(|| self.compute_view_for(req, if_none_match, cancel, ticket))
    }

    /// Times one view request and counts its outcome.
    fn observed(
        &self,
        run: impl FnOnce() -> Result<ConditionalOutcome, ServerError>,
    ) -> Result<ConditionalOutcome, ServerError> {
        let m = server_metrics();
        let result = m.duration.time(|| {
            let _span = telemetry::trace::span("server.handle");
            run()
        });
        m.for_outcome(&result).inc();
        result
    }

    /// Degraded-mode lookup for overload shedding: answers from already
    /// computed state only — a cache hit or an `If-None-Match`
    /// revalidation — and returns `Ok(None)` instead of running any
    /// pipeline stage when the view would have to be computed. The HTTP
    /// front end uses this while the admission controller is shedding,
    /// so clients holding a current view keep revalidating (and warm
    /// views keep serving) even when compute is refused. A hit counts as
    /// a view-cache hit; a miss counts nothing, so a request that goes
    /// on to [`SecureServer::handle_cancellable`] counts one miss.
    pub fn handle_cache_only(
        &self,
        req: &ClientRequest,
        if_none_match: Option<&str>,
    ) -> Result<Option<ConditionalOutcome>, ServerError> {
        Ok(match self.probe_cache_only(req, if_none_match)? {
            Probe::Hit(outcome) => Some(outcome),
            Probe::Miss(_) => None,
        })
    }

    /// [`SecureServer::handle_cache_only`], keeping the ticket of a miss
    /// for [`SecureServer::handle_probed`]. Hits and errors are counted
    /// as request outcomes here; a miss is counted by the compute.
    pub(crate) fn probe_cache_only(
        &self,
        req: &ClientRequest,
        if_none_match: Option<&str>,
    ) -> Result<Probe, ServerError> {
        let m = server_metrics();
        match self.probe(req, if_none_match) {
            Ok(Probe::Hit(outcome)) => {
                let result = Ok(outcome);
                m.for_outcome(&result).inc();
                result.map(Probe::Hit)
            }
            Ok(miss) => Ok(miss),
            Err(e) => {
                m.for_outcome(&Err(e.clone())).inc();
                Err(e)
            }
        }
    }

    /// The request prologue shared by every view path: authenticate,
    /// resolve the document, build the content-addressed cache key, and
    /// probe the cache (serving a 304 when the client's tag matches).
    /// Cheap by construction — no document bytes are parsed or hashed
    /// here. A hit is counted; a miss is not, because it belongs to the
    /// compute that follows, if any.
    fn probe(
        &self,
        req: &ClientRequest,
        if_none_match: Option<&str>,
    ) -> Result<Probe, ServerError> {
        let user = match self.authenticate(req) {
            Ok(u) => u,
            Err(e) => {
                self.audit.record(
                    &format!(
                        "{}@{}({})",
                        req.user.as_ref().map(|(u, _)| u.as_str()).unwrap_or("?"),
                        req.sym,
                        req.ip
                    ),
                    &req.uri,
                    AuditOutcome::AuthenticationFailed,
                );
                return Err(e);
            }
        };
        let requester = Requester::new(&user, &req.ip, &req.sym)
            .map_err(|e| ServerError::BadRequest(e.to_string()))?;
        let requester_str = requester.to_string();

        let Some(revision) = self.read_repo().revision(&req.uri) else {
            self.audit.record(&requester_str, &req.uri, AuditOutcome::NotFound);
            return Err(ServerError::NotFound(req.uri.clone()));
        };

        // Applicable authorizations, for the content-based cache
        // fingerprint.
        let SecurityProcessor { directory: dir, authorizations, options, .. } = &self.processor;
        let instance = authorizations.applicable(&req.uri, &requester, dir);
        let schema = revision
            .dtd_uri
            .as_deref()
            .map(|u| authorizations.applicable(u, &requester, dir))
            .unwrap_or_default();
        let key = ViewKey {
            uri: req.uri.clone(),
            fingerprint: fingerprint(&instance, &schema, policy_tag(options.policy)),
            // Registration-time hashes combined — no document bytes are
            // rehashed on the request path.
            content: revision.identity(),
        };
        let hit = self.cache.as_ref().and_then(|c| c.get_cached(&key));
        Ok(match hit {
            Some(hit) => Probe::Hit(self.serve_hit(&requester_str, &req.uri, hit, if_none_match)),
            None => Probe::Miss(ViewTicket { requester, requester_str, key, revision }),
        })
    }

    /// Audits a cache hit and answers it: a 304 when the client's tag
    /// matches, the cached view otherwise.
    fn serve_hit(
        &self,
        requester_str: &str,
        uri: &str,
        hit: CachedView,
        if_none_match: Option<&str>,
    ) -> ConditionalOutcome {
        self.audit.record(
            requester_str,
            uri,
            AuditOutcome::Served { granted_nodes: 0, total_nodes: 0, cached: true },
        );
        match if_none_match {
            Some(inm) if etag_matches(inm, &hit.etag) => {
                ConditionalOutcome::NotModified { etag: hit.etag }
            }
            _ => ConditionalOutcome::Full(ServerResponse {
                xml: hit.xml,
                loosened_dtd: hit.loosened_dtd,
                cached: true,
                etag: hit.etag,
            }),
        }
    }

    /// The full processor pipeline, run when the probe found no cached
    /// view, under the request's cancellation token (if any). It labels
    /// and renders the revision the probe keyed — parsing it first if no
    /// request has yet — with no repository guard held, so a commit
    /// meanwhile neither waits for it nor changes what it computes. The
    /// view is filed under its revision's key only if that revision is
    /// still current; a view that a commit overtook is answered, not
    /// cached.
    fn compute_view_for(
        &self,
        req: &ClientRequest,
        if_none_match: Option<&str>,
        cancel: Option<&CancelToken>,
        ticket: ViewTicket,
    ) -> Result<ConditionalOutcome, ServerError> {
        let ViewTicket { requester, requester_str, key, revision } = ticket;
        if let Some(cache) = &self.cache {
            // The one counted lookup of a request the probe could not
            // answer: another compute may have filled the entry since.
            if let Some(hit) = cache.get(&key) {
                return Ok(self.serve_hit(&requester_str, &req.uri, hit, if_none_match));
            }
        }
        let _ = faults::check("view.compute");
        let request = AccessRequest { requester: requester.clone(), uri: req.uri.clone() };
        let p = &self.processor;
        let out = revision
            .parsed(p, cancel)
            .and_then(|parsed| p.render(&request, &revision.source(), parsed.source(), cancel))
            .map(|(view, _labeling)| view)
            .map_err(|e| {
                self.audit.record(
                    &requester_str,
                    &req.uri,
                    AuditOutcome::ProcessingError(e.to_string()),
                );
                process_error(e)
            })?;

        let etag = etag_for(&key, &out.xml, out.loosened_dtd.as_deref());
        if let Some(cache) = &self.cache {
            // File the view only while its revision is current: once a
            // commit has replaced it, no reader can reach this key, and
            // the entry would only evict a live view. The guard keeps a
            // commit from publishing between the check and the put.
            let repo = self.read_repo();
            if repo.revision(&req.uri).is_some_and(|current| Arc::ptr_eq(&current, &revision)) {
                let mut state = self.lock_patch_state();
                cache.put(
                    key.clone(),
                    CachedView {
                        xml: out.xml.clone(),
                        loosened_dtd: out.loosened_dtd.clone(),
                        etag: etag.clone(),
                    },
                );
                // Remember who this view was computed for so a later
                // update can patch it in place instead of dropping it.
                state.insert(key, PatchEntry { requester, prev: None });
            }
        }
        self.audit.record(
            &requester_str,
            &req.uri,
            AuditOutcome::Served {
                granted_nodes: out.stats.granted_nodes,
                total_nodes: out.stats.labeled_nodes,
                cached: false,
            },
        );
        // The client may hold the current view even when our cache does
        // not (cold start, eviction): a fresh render that matches the
        // client's tag still revalidates.
        if let Some(inm) = if_none_match {
            if etag_matches(inm, &etag) {
                return Ok(ConditionalOutcome::NotModified { etag });
            }
        }
        Ok(ConditionalOutcome::Full(ServerResponse {
            xml: out.xml,
            loosened_dtd: out.loosened_dtd,
            cached: false,
            etag,
        }))
    }

    /// Answers a query against the requester's **view** of a document
    /// (the paper's §8 "requests in form of generic queries"): the query
    /// is evaluated on the computed view, so it can never select — or
    /// leak through conditions on — content the requester cannot read.
    pub fn query(&self, req: &ClientRequest, path: &str) -> Result<QueryResponse, ServerError> {
        self.query_cancellable(req, path, None)
    }

    /// [`SecureServer::query`] with a request-scoped cancellation token:
    /// the underlying view computation, the re-parse of the view, and
    /// every budget draw of the path evaluation all observe the token.
    pub fn query_cancellable(
        &self,
        req: &ClientRequest,
        path: &str,
        cancel: Option<&CancelToken>,
    ) -> Result<QueryResponse, ServerError> {
        let parsed =
            xmlsec_xpath::parse_path(path).map_err(|e| ServerError::BadQuery(e.to_string()))?;
        let resp = self.handle_full(req, cancel)?;
        let xml_limits = &self.limits().xml;
        let view = xmlsec_xml::parse_cancellable(&resp.xml, Default::default(), xml_limits, cancel)
            .map_err(|e| match e.kind {
                xmlsec_xml::XmlErrorKind::Cancelled(r) => ServerError::Cancelled(r),
                _ => ServerError::Processing(e.to_string()),
            })?;
        // The query path is requester-supplied: budget its evaluation so a
        // hostile expression cannot pin the worker; the token rides in the
        // shared budget, so every draw is also a cancellation checkpoint.
        let limits = self.limits().xpath;
        let pool = match cancel {
            Some(t) => xmlsec_xpath::SharedBudget::with_cancel(limits.max_node_visits, t.clone()),
            None => xmlsec_xpath::SharedBudget::new(limits.max_node_visits),
        };
        let hits =
            xmlsec_xpath::select_shared(&view, &parsed, &limits, &pool).map_err(|e| match e {
                xmlsec_xpath::EvalError::Cancelled(r) => ServerError::Cancelled(r),
                other => ServerError::LimitExceeded(other.to_string()),
            })?;
        let matches = hits
            .iter()
            .map(|&n| {
                if view.is_attribute(n) {
                    view.attr_value(n).unwrap_or_default().to_string()
                } else {
                    xmlsec_xml::serialize_node(&view, n)
                }
            })
            .collect();
        Ok(QueryResponse { matches, from_cached_view: resp.cached })
    }

    /// Applies update operations on behalf of a requester (the paper's §8
    /// "support for write and update operations"), gated by the
    /// requester's **write** labeling. The updated document must remain
    /// valid against its DTD.
    ///
    /// The commit path is **incremental**: it works on one copy of the
    /// current revision's parsed DOM — parsed once per revision, by
    /// whichever request needed it first — and the committed DOM becomes
    /// the next revision's, so steady-state updates never parse. Every
    /// warm cached view of the document is **patched** (incremental
    /// relabel, re-render, new ETag) instead of being invalidated. All of
    /// that work runs beside readers, which keep the old revision and its
    /// views until the new revision and its patched views are published
    /// together. Returns how many nodes the batch touched.
    pub fn update(&self, req: &ClientRequest, ops: &[UpdateOp]) -> Result<usize, ServerError> {
        self.update_cancellable(req, ops, None)
    }

    /// [`SecureServer::update`] with a request-scoped cancellation
    /// token. The token is polled while the revision is parsed (on its
    /// first use), between operations, inside the write-labeling passes
    /// and while warm views are patched; when it trips before the
    /// publish, the batch unwinds with [`ServerError::Cancelled`] and the
    /// stored document and its views are untouched.
    pub fn update_cancellable(
        &self,
        req: &ClientRequest,
        ops: &[UpdateOp],
        cancel: Option<&CancelToken>,
    ) -> Result<usize, ServerError> {
        let user = self.authenticate(req)?;
        let requester = Requester::new(&user, &req.ip, &req.sym)
            .map_err(|e| ServerError::BadRequest(e.to_string()))?;

        // Writers serialize here, so the revision taken now stays the
        // current one until this update publishes its successor. Until
        // then no guard is held: readers keep serving that revision.
        let _writer = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        let Some(current) = self.read_repo().revision(&req.uri) else {
            return Err(ServerError::NotFound(req.uri.clone()));
        };
        let schema = match current.schema() {
            Some(Ok(s)) => Some(Arc::clone(s)),
            Some(Err(e)) => return Err(ServerError::Processing(e.to_string())),
            None => None,
        };
        let dtd_parsed = schema.as_deref().map(PreparedSchema::dtd);
        let p = &self.processor;
        let parsed = current.parsed(p, cancel).map_err(process_error)?;
        let (wxml, wdtd) =
            p.applicable_sets(&req.uri, current.dtd_uri.as_deref(), &requester, Action::Write);
        let (dir, policy) = (&p.directory, p.options.policy);
        // Static pre-flight: classify the batch against the compiled
        // write-verdict table. Guaranteed-deny batches bounce here in
        // O(ops) — before the working copy of the document is even
        // cloned, with no labeling and no fragment parsing;
        // guaranteed-allow batches skip the per-op write-labeling
        // entirely (the apply code and every later stage — normalize,
        // validate, commit, patch — are shared, keeping outcomes
        // byte-identical).
        let mut preauthorized = false;
        if self.static_preflight {
            let root = parsed.doc().element_name(parsed.doc().root());
            if let (Some(schema), Some(root)) = (schema.as_deref(), root) {
                let fp = xmlsec_core::policy_fingerprint(&wxml, &wdtd, dir, policy);
                let verdict = self
                    .compiled
                    .get_or_compile_prepared(schema, root, fp, &wxml, &wdtd, dir, policy)
                    .ok()
                    .map(|cp| {
                        // A blanket allow holds on any tree; the others
                        // only on valid ones. The revision's validity memo
                        // is the one the read path fills in.
                        let valid = || {
                            *current.schema_valid().get_or_init(|| {
                                xmlsec_dtd::validate(schema.dtd(), parsed.doc()).is_empty()
                            })
                        };
                        if cp.writes.blanket_allow {
                            xmlsec_core::BatchVerdict::Allow
                        } else if valid() {
                            xmlsec_core::classify_batch(schema.dtd(), &cp.writes, ops)
                        } else {
                            xmlsec_core::BatchVerdict::Dynamic
                        }
                    })
                    .unwrap_or(xmlsec_core::BatchVerdict::Dynamic);
                static_verdicts(verdict.code()).inc();
                match verdict {
                    xmlsec_core::BatchVerdict::Deny { op, reason } => {
                        // Dynamic denials are not audited either: the
                        // trail stays identical with the pre-flight off.
                        return Err(ServerError::UpdateDeniedStatic { op, reason });
                    }
                    xmlsec_core::BatchVerdict::Allow => preauthorized = true,
                    xmlsec_core::BatchVerdict::Dynamic => {}
                }
            }
        }

        // `doc` is this update's own copy: a failed batch just drops it.
        let mut doc = parsed.doc().clone();
        let ctx =
            WriteContext { axml: &wxml, adtd: &wdtd, dir, policy, opts: p.options.engine(cancel) };
        let ctx = (!preauthorized).then_some(&ctx);
        let outcome = apply_updates_in_place(&mut doc, ops, ctx, cancel).map_err(|e| match e {
            UpdateError::Cancelled(r) => ServerError::Cancelled(r),
            UpdateError::Engine(err) => ServerError::LimitExceeded(err.to_string()),
            UpdateError::TooLarge(err) => ServerError::LimitExceeded(err),
            other => ServerError::UpdateDenied(other.to_string()),
        })?;

        if let Some(dtd) = dtd_parsed {
            // Materialize DTD defaults on freshly inserted elements (the
            // base document is already normalized, so this only touches
            // nodes inside the dirty subtrees) and keep the stored
            // document valid.
            xmlsec_dtd::normalize(dtd, &mut doc);
            let errs = xmlsec_dtd::validate(dtd, &doc);
            if !errs.is_empty() {
                return Err(ServerError::UpdateDenied(format!(
                    "update would invalidate the document against its DTD: {}",
                    errs[0]
                )));
            }
        }

        let touched = outcome.touched;
        let next = current.next(doc);
        if dtd_parsed.is_some() {
            // Post-validation passed above and the next revision carries
            // exactly the validated DOM: memoize validity for the next
            // pre-flight and the next read instead of revalidating.
            let _ = next.schema_valid().set(true);
        }
        // Re-render every warm cached view of this document against the
        // next revision; views we cannot patch (no bookkeeping, labeling
        // error) are dropped at the publish — content-addressed keys
        // make the old entries unreachable either way, so this is never
        // a correctness hinge.
        let patches = self.render_patches(&req.uri, &next, schema.as_deref(), cancel);
        if let Some(Err(c)) = cancel.map(CancelToken::check) {
            return Err(ServerError::Cancelled(c.reason));
        }
        let _ = faults::check("update.publish");
        self.publish(&req.uri, Arc::new(next), patches)?;
        self.prune_patch_state();

        self.audit.record(
            &requester.to_string(),
            &req.uri,
            AuditOutcome::Updated { ops: ops.len(), touched },
        );
        Ok(touched)
    }

    /// Renders each warm cached view of `uri` against its `next`
    /// revision: incremental relabel from the entry's previous labeling,
    /// render straight from the revision's DOM, new content-addressed key
    /// and ETag. Changes nothing; [`SecureServer::publish`] installs the
    /// result.
    fn render_patches(
        &self,
        uri: &str,
        next: &StoredDocument,
        schema: Option<&PreparedSchema>,
        cancel: Option<&CancelToken>,
    ) -> Vec<Patch> {
        let Some(cache) = &self.cache else { return Vec::new() };
        let Some(parsed) = next.parsed_document() else { return Vec::new() };
        let new_content = next.identity();
        let old: Vec<(ViewKey, Option<PatchEntry>)> = {
            let state = self.lock_patch_state();
            cache
                .keys_for_uri(uri)
                .into_iter()
                .filter(|k| k.content != new_content)
                .map(|k| {
                    let entry = state.get(&k).cloned();
                    (k, entry)
                })
                .collect()
        };
        // Loosening is requester-independent: prepared once per DTD and
        // shared by every patched entry.
        let loosened_text = schema.map(PreparedSchema::loosened_text);
        old.into_iter()
            .map(|(old_key, entry)| Patch {
                new: entry.and_then(|entry| {
                    self.patch_one(
                        parsed.doc(),
                        uri,
                        next.dtd_uri.as_deref(),
                        &old_key,
                        entry,
                        new_content,
                        loosened_text,
                        cancel,
                    )
                }),
                old: old_key,
            })
            .collect()
    }

    /// The exclusive section of a commit: swaps in the next revision and
    /// each warm view's patch (or drops the view), so a reader sees
    /// either the old revision with its old views or the new one with its
    /// new views.
    fn publish(
        &self,
        uri: &str,
        next: Arc<StoredDocument>,
        patches: Vec<Patch>,
    ) -> Result<(), ServerError> {
        let mut repo = self.write_repo();
        let _ = faults::check("update.install");
        if !repo.install(uri, next) {
            return Err(ServerError::Processing("commit failed: document vanished".into()));
        }
        if let Some(cache) = &self.cache {
            let m = patch_metrics();
            let mut state = self.lock_patch_state();
            for Patch { old, new } in patches {
                state.remove(&old);
                match new {
                    Some((key, view, entry)) => {
                        // The entry keeps its eviction age; one evicted
                        // meanwhile stays gone.
                        if cache.replace(&old, key.clone(), view) {
                            state.insert(key, entry);
                            m.patched.inc();
                        }
                    }
                    None => {
                        cache.remove(&old);
                        m.dropped.inc();
                    }
                }
            }
        }
        Ok(())
    }

    /// Recomputes one cached view against the updated document. Returns
    /// `None` when the view cannot be patched (labeling failed or was
    /// cancelled) — the caller drops the stale entry instead.
    #[allow(clippy::too_many_arguments)]
    fn patch_one(
        &self,
        doc: &xmlsec_xml::Document,
        uri: &str,
        dtd_uri: Option<&str>,
        old_key: &ViewKey,
        entry: PatchEntry,
        new_content: u64,
        loosened_text: Option<&str>,
        cancel: Option<&CancelToken>,
    ) -> Option<(ViewKey, CachedView, PatchEntry)> {
        let PatchEntry { requester, prev } = entry;
        let p = &self.processor;
        let (axml, adtd) = p.applicable_sets(uri, dtd_uri, &requester, Action::Read);
        let (dir, policy, opts) = (&p.directory, p.options.policy, p.options.engine(cancel));
        let labeling =
            label_document_incremental(doc, &axml, &adtd, dir, policy, &opts, prev.as_deref())
                .ok()?;
        let xml = render_view(doc, &labeling, policy, &xmlsec_xml::SerializeOptions::canonical());
        let new_key = ViewKey {
            uri: uri.to_string(),
            fingerprint: old_key.fingerprint,
            content: new_content,
        };
        let etag = etag_for(&new_key, &xml, loosened_text);
        Some((
            new_key,
            CachedView { xml, loosened_dtd: loosened_text.map(str::to_string), etag },
            PatchEntry { requester, prev: Some(Arc::new(labeling)) },
        ))
    }
}

/// The one mapping of a pipeline failure to the server's typed error,
/// shared by the read and the update path: a cancellation stays typed,
/// a resource-limit rejection is the client's (422), anything else is
/// a processing failure (500).
fn process_error(e: ProcessError) -> ServerError {
    match e {
        ProcessError::Cancelled(r) => ServerError::Cancelled(r),
        e if e.is_resource_limit() => ServerError::LimitExceeded(e.to_string()),
        e => ServerError::Processing(e.to_string()),
    }
}

/// Stable small tag distinguishing policies in cache keys.
fn policy_tag(p: PolicyConfig) -> u8 {
    let c = match p.conflict {
        ConflictResolution::MostSpecificThenDenials => 0u8,
        ConflictResolution::MostSpecificThenPermissions => 1,
        ConflictResolution::DenialsTakePrecedence => 2,
        ConflictResolution::PermissionsTakePrecedence => 3,
        ConflictResolution::NothingTakesPrecedence => 4,
        ConflictResolution::MajoritySign => 5,
    };
    let o = match p.completeness {
        CompletenessPolicy::Closed => 0u8,
        CompletenessPolicy::Open => 8,
    };
    c | o
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmlsec_authz::{AuthType, ObjectSpec, Sign};
    use xmlsec_subjects::Subject;

    fn server() -> SecureServer {
        let mut dir = Directory::new();
        dir.add_user("Tom").unwrap();
        dir.add_user("Sam").unwrap();
        dir.add_group("Public").unwrap();
        dir.add_group("Staff").unwrap();
        dir.add_user("anonymous").unwrap();
        dir.add_member("Tom", "Public").unwrap();
        dir.add_member("Sam", "Public").unwrap();
        dir.add_member("Sam", "Staff").unwrap();
        dir.add_member("anonymous", "Public").unwrap();

        let mut base = AuthorizationBase::new();
        base.add(Authorization::new(
            Subject::new("Public", "*", "*").unwrap(),
            ObjectSpec::parse("lab.xml:/lab/news").unwrap(),
            Sign::Plus,
            AuthType::Recursive,
        ));
        base.add(Authorization::new(
            Subject::new("Staff", "*", "*").unwrap(),
            ObjectSpec::parse("lab.xml:/lab").unwrap(),
            Sign::Plus,
            AuthType::Recursive,
        ));

        let mut s = SecureServer::new(dir, base);
        s.register_credentials("Tom", "tom-secret");
        s.register_credentials("Sam", "sam-secret");
        s.repository_mut().put_document(
            "lab.xml",
            "<lab><news>hello</news><internal>budget</internal></lab>",
            None,
        );
        s
    }

    fn req(user: Option<(&str, &str)>, uri: &str) -> ClientRequest {
        ClientRequest {
            user: user.map(|(u, s)| (u.to_string(), s.to_string())),
            ip: "150.100.30.8".into(),
            sym: "tweety.lab.com".into(),
            uri: uri.into(),
        }
    }

    #[test]
    fn public_member_sees_only_news() {
        let s = server();
        let r = s.handle(&req(Some(("Tom", "tom-secret")), "lab.xml")).unwrap();
        assert_eq!(r.xml, "<lab><news>hello</news></lab>");
        assert!(!r.cached);
    }

    #[test]
    fn staff_member_sees_everything() {
        let s = server();
        let r = s.handle(&req(Some(("Sam", "sam-secret")), "lab.xml")).unwrap();
        assert_eq!(r.xml, "<lab><news>hello</news><internal>budget</internal></lab>");
    }

    #[test]
    fn anonymous_is_public() {
        let s = server();
        let r = s.handle(&req(None, "lab.xml")).unwrap();
        assert_eq!(r.xml, "<lab><news>hello</news></lab>");
    }

    #[test]
    fn wrong_secret_rejected_and_audited() {
        let s = server();
        let e = s.handle(&req(Some(("Tom", "wrong")), "lab.xml")).unwrap_err();
        assert_eq!(e, ServerError::AuthenticationFailed);
        assert!(matches!(s.audit.records()[0].outcome, AuditOutcome::AuthenticationFailed));
    }

    #[test]
    fn unknown_document_not_found() {
        let s = server();
        assert!(matches!(s.handle(&req(None, "missing.xml")), Err(ServerError::NotFound(_))));
    }

    #[test]
    fn cache_shares_views_across_equivalent_requesters() {
        let s = server();
        // Tom and anonymous have the same applicable set (Public grant).
        let r1 = s.handle(&req(Some(("Tom", "tom-secret")), "lab.xml")).unwrap();
        let r2 = s.handle(&req(None, "lab.xml")).unwrap();
        assert!(!r1.cached);
        assert!(r2.cached);
        assert_eq!(r1.xml, r2.xml);
        assert_eq!(r1.etag, r2.etag, "a cached view carries the same strong tag");
        // Sam's applicable set differs — no cross-contamination.
        let r3 = s.handle(&req(Some(("Sam", "sam-secret")), "lab.xml")).unwrap();
        assert!(!r3.cached);
        assert_ne!(r3.xml, r1.xml);
        assert_ne!(r3.etag, r1.etag, "different views carry different tags");
        let (hits, misses) = s.cache_stats();
        assert_eq!(hits, 1);
        assert_eq!(misses, 2);
    }

    #[test]
    fn content_change_without_invalidation_misses() {
        // The tentpole: mutating stored content *without* any
        // invalidate call structurally misses the cache, because the
        // registration-time content hash is part of the key.
        let mut s = server();
        let r1 = s.handle(&req(None, "lab.xml")).unwrap();
        assert!(!r1.cached);
        assert!(s.handle(&req(None, "lab.xml")).unwrap().cached, "cache is warm");
        s.repository_mut().put_document(
            "lab.xml",
            "<lab><news>updated</news><internal>budget</internal></lab>",
            None,
        );
        let r2 = s.handle(&req(None, "lab.xml")).unwrap();
        assert!(!r2.cached, "new content hash must miss the warm cache");
        assert_eq!(r2.xml, "<lab><news>updated</news></lab>");
        assert_ne!(r2.etag, r1.etag);
        assert!(s.cache_stale_rejected() >= 1, "the dead twin is swept on the miss");
        // Restoring the original bytes restores the original identity.
        s.repository_mut().put_document(
            "lab.xml",
            "<lab><news>hello</news><internal>budget</internal></lab>",
            None,
        );
        assert_eq!(s.handle(&req(None, "lab.xml")).unwrap().etag, r1.etag);
    }

    #[test]
    fn conditional_request_revalidates_without_rendering() {
        let s = server();
        let r1 = s.handle(&req(None, "lab.xml")).unwrap();
        // Matching tag → 304, from the cache.
        let quoted = format!("\"{}\"", r1.etag);
        match s.handle_conditional(&req(None, "lab.xml"), Some(&quoted)).unwrap() {
            ConditionalOutcome::NotModified { etag } => assert_eq!(etag, r1.etag),
            other => panic!("expected NotModified, got {other:?}"),
        }
        // Weak and list forms match too.
        let listed = format!("\"zzz\", W/\"{}\"", r1.etag);
        assert!(matches!(
            s.handle_conditional(&req(None, "lab.xml"), Some(&listed)).unwrap(),
            ConditionalOutcome::NotModified { .. }
        ));
        // A stale tag gets the full (cached) body.
        match s.handle_conditional(&req(None, "lab.xml"), Some("\"stale\"")).unwrap() {
            ConditionalOutcome::Full(resp) => {
                assert!(resp.cached);
                assert_eq!(resp.etag, r1.etag);
            }
            other => panic!("expected Full, got {other:?}"),
        }
    }

    #[test]
    fn conditional_request_revalidates_on_a_cold_cache() {
        // Even when the server's own cache is cold, a client tag that
        // matches the freshly rendered view revalidates to 304.
        let s = server();
        let etag = s.handle(&req(None, "lab.xml")).unwrap().etag;
        let s2 = server(); // same content, cold cache
        let quoted = format!("\"{etag}\"");
        assert!(matches!(
            s2.handle_conditional(&req(None, "lab.xml"), Some(&quoted)).unwrap(),
            ConditionalOutcome::NotModified { .. }
        ));
    }

    #[test]
    fn etag_matching_grammar() {
        assert!(etag_matches("\"abc\"", "abc"));
        assert!(etag_matches("abc", "abc"), "unquoted token accepted leniently");
        assert!(etag_matches("W/\"abc\"", "abc"));
        assert!(etag_matches("\"x\", \"abc\" , \"y\"", "abc"));
        assert!(etag_matches("*", "abc"));
        assert!(!etag_matches("\"abcd\"", "abc"));
        assert!(!etag_matches("", "abc"));
    }

    #[test]
    fn cache_hits_are_visible_in_global_metrics() {
        // The cache mirrors its traffic into the global telemetry
        // registry, where /metrics and the CLI read it.
        let read = |text: &str, name: &str| -> u64 {
            text.lines()
                .find(|l| l.starts_with(name) && !l.starts_with('#'))
                .and_then(|l| l.rsplit(' ').next())
                .and_then(|v| v.parse().ok())
                .unwrap_or(0)
        };
        let before = telemetry::global().render_prometheus();
        let s = server();
        let _ = s.handle(&req(Some(("Tom", "tom-secret")), "lab.xml")).unwrap();
        let _ = s.handle(&req(None, "lab.xml")).unwrap();
        let after = telemetry::global().render_prometheus();
        assert!(
            read(&after, "xmlsec_view_cache_hits_total")
                > read(&before, "xmlsec_view_cache_hits_total"),
            "the shared-fingerprint hit must show up in the hit counter"
        );
        assert!(
            read(&after, "xmlsec_view_cache_misses_total")
                > read(&before, "xmlsec_view_cache_misses_total")
        );
    }

    #[test]
    fn policy_change_changes_cache_key() {
        // The fingerprint folds in the policy tag, so the same requester
        // under a different policy cannot be served a stale view.
        let s = server();
        let r1 = s.handle(&req(None, "lab.xml")).unwrap();
        assert!(!r1.cached);
        let r2 = s.handle(&req(None, "lab.xml")).unwrap();
        assert!(r2.cached);
        let s = s.with_policy(PolicyConfig {
            completeness: CompletenessPolicy::Open,
            ..PolicyConfig::paper_default()
        });
        let r3 = s.handle(&req(None, "lab.xml")).unwrap();
        assert!(!r3.cached, "a policy change must miss the cache");
        assert!(
            r3.xml.contains("internal"),
            "open policy exposes the unregulated element: {}",
            r3.xml
        );
    }

    #[test]
    fn fingerprint_ignores_requester_identity() {
        // Different identities, same applicable authorizations → same
        // fingerprint → shared view; an extra applicable authorization →
        // different fingerprint.
        let s = server();
        let requester = |u: &str| Requester::new(u, "150.100.30.8", "tweety.lab.com").unwrap();
        let applicable = |u: &str| {
            s.processor.authorizations.applicable("lab.xml", &requester(u), s.directory())
        };
        let (tom_inst, anon_inst, sam_inst) =
            (applicable("Tom"), applicable("anonymous"), applicable("Sam"));
        assert_eq!(
            fingerprint(&tom_inst, &[], 0),
            fingerprint(&anon_inst, &[], 0),
            "Tom and anonymous share the Public grant only"
        );
        assert_ne!(
            fingerprint(&tom_inst, &[], 0),
            fingerprint(&sam_inst, &[], 0),
            "Sam's Staff grant changes the applicable set"
        );
    }

    #[test]
    fn parallel_server_serves_identical_bytes() {
        let seq = server();
        let par = server()
            .with_parallelism(Parallelism::threads(4).with_seq_threshold(0).exact())
            .without_cache();
        let want = seq.handle(&req(Some(("Sam", "sam-secret")), "lab.xml")).unwrap();
        let got = par.handle(&req(Some(("Sam", "sam-secret")), "lab.xml")).unwrap();
        assert_eq!(got.xml, want.xml);
        assert_eq!(got.loosened_dtd, want.loosened_dtd);
        assert_eq!(got.etag, want.etag, "the tag is content-derived, not instance-derived");
        assert!(!par.decision_cache().is_empty(), "requests must warm the decision cache");
    }

    #[test]
    fn grant_and_revoke_clear_the_decision_cache() {
        let mut s = server();
        let _ = s.handle(&req(None, "lab.xml")).unwrap();
        assert!(!s.decision_cache().is_empty());
        let extra = Authorization::new(
            Subject::new("Public", "*", "*").unwrap(),
            ObjectSpec::parse("lab.xml:/lab/internal").unwrap(),
            Sign::Plus,
            AuthType::Recursive,
        );
        s.grant(extra.clone());
        assert!(s.decision_cache().is_empty(), "grant must drop memoized decisions");
        let _ = s.handle(&req(None, "lab.xml")).unwrap();
        assert!(!s.decision_cache().is_empty());
        assert_eq!(s.revoke(&extra), 1);
        assert!(s.decision_cache().is_empty(), "revoke must drop memoized decisions");
    }

    #[test]
    fn compiled_policies_are_cached_and_invalidated_with_decisions() {
        let setup = |s: &mut SecureServer| {
            s.repository_mut().put_dtd(
                "lab.dtd",
                "<!ELEMENT lab (news,internal)><!ELEMENT news (#PCDATA)>\
                 <!ELEMENT internal (#PCDATA)>",
            );
            s.repository_mut().put_document(
                "typed.xml",
                "<lab><news>hi</news><internal>budget</internal></lab>",
                Some("lab.dtd"),
            );
        };
        let mut off = server().with_compile(false);
        setup(&mut off);
        let want = off.handle(&req(None, "typed.xml")).unwrap();
        assert!(off.compiled_cache().is_empty(), "compile off must not compile");

        let mut on = server();
        setup(&mut on);
        let got = on.handle(&req(None, "typed.xml")).unwrap();
        assert_eq!(got.xml, want.xml, "compiled and interpreted views must agree");
        assert_eq!(on.compiled_cache().len(), 1, "the request compiles and caches the policy");

        // grant/revoke clear the compiled cache next to the decisions.
        let extra = Authorization::new(
            Subject::new("Public", "*", "*").unwrap(),
            ObjectSpec::parse("typed.xml:/lab/internal").unwrap(),
            Sign::Plus,
            AuthType::Recursive,
        );
        on.grant(extra.clone());
        assert!(on.compiled_cache().is_empty(), "grant must drop compiled policies");
        let wider = on.handle(&req(None, "typed.xml")).unwrap();
        assert!(wider.xml.contains("internal"), "{}", wider.xml);
        assert_eq!(on.compiled_cache().len(), 1, "the next request recompiles");
        assert_eq!(on.revoke(&extra), 1);
        assert!(on.compiled_cache().is_empty(), "revoke must drop compiled policies");
    }

    #[test]
    fn compile_off_reads_never_compile_but_the_write_preflight_still_denies() {
        let mut s = server().with_compile(false);
        s.repository_mut()
            .put_dtd("lab.dtd", "<!ELEMENT lab (news)><!ELEMENT news (#PCDATA)>");
        s.repository_mut()
            .put_document("typed.xml", "<lab><news>hi</news></lab>", Some("lab.dtd"));
        let tom = req(Some(("Tom", "tom-secret")), "typed.xml");
        s.handle(&tom).unwrap();
        s.handle(&req(Some(("Sam", "sam-secret")), "typed.xml")).unwrap();
        assert!(s.compiled_cache().is_empty(), "reads must not compile with compile off");
        // Tom holds no write authorization, so the pre-flight's compiled
        // write table refuses the batch before any labeling.
        let op = UpdateOp::SetText { target: "/lab/news".into(), text: "x".into() };
        let e = s.update(&tom, &[op]).unwrap_err();
        assert!(matches!(e, ServerError::UpdateDeniedStatic { op: 0, .. }), "{e:?}");
        assert_eq!(s.compiled_cache().len(), 1, "the pre-flight compiles into the server's cache");
    }

    #[test]
    fn grant_runs_the_policy_preflight() {
        let mut s = server();
        s.repository_mut().put_dtd(
            "lab.dtd",
            "<!ELEMENT lab (news,internal)><!ELEMENT news (#PCDATA)>\
             <!ELEMENT internal (#PCDATA)>",
        );
        s.repository_mut().put_document(
            "typed.xml",
            "<lab><news>hi</news><internal>budget</internal></lab>",
            Some("lab.dtd"),
        );
        let counter = || {
            telemetry::global()
                .counter(
                    "xmlsec_policy_findings_total",
                    "Findings from the grant/revoke policy pre-flight, by severity and kind.",
                    &[("severity", "error"), ("kind", "dead-path")],
                )
                .get()
        };
        let before = counter();
        let findings = s.grant(Authorization::new(
            Subject::new("Public", "*", "*").unwrap(),
            ObjectSpec::parse("lab.dtd://budget").unwrap(),
            Sign::Plus,
            AuthType::Recursive,
        ));
        assert!(
            findings.iter().any(|f| f.kind == "dead-path"),
            "a path matching nothing in the DTD must be flagged: {findings:?}"
        );
        assert!(counter() > before, "pre-flight findings must reach /metrics");
        let records = s.audit.records();
        let last = records.last().unwrap();
        assert_eq!(last.uri, "lab.dtd");
        assert!(
            matches!(
                &last.outcome,
                AuditOutcome::PolicyChanged { action, errors, .. }
                    if action == "grant" && *errors > 0
            ),
            "{last:?}"
        );
    }

    #[test]
    fn grant_invalidates_cache() {
        let mut s = server();
        let _ = s.handle(&req(None, "lab.xml")).unwrap();
        s.grant(Authorization::new(
            Subject::new("Public", "*", "*").unwrap(),
            ObjectSpec::parse("lab.xml:/lab/internal").unwrap(),
            Sign::Plus,
            AuthType::Recursive,
        ));
        let r = s.handle(&req(None, "lab.xml")).unwrap();
        assert!(!r.cached);
        assert!(r.xml.contains("budget"), "{}", r.xml);
    }

    #[test]
    fn grant_leaves_unrelated_documents_cached() {
        // Invalidation is targeted: a grant on one document must not
        // evict another document's cached views.
        let mut s = server();
        s.repository_mut()
            .put_document("other.xml", "<lab><news>other</news></lab>", None);
        let _ = s.handle(&req(None, "lab.xml")).unwrap();
        let _ = s.handle(&req(None, "other.xml")).unwrap();
        assert_eq!(s.cache_len(), 2);
        s.grant(Authorization::new(
            Subject::new("Public", "*", "*").unwrap(),
            ObjectSpec::parse("lab.xml:/lab/internal").unwrap(),
            Sign::Plus,
            AuthType::Recursive,
        ));
        assert_eq!(s.cache_len(), 1, "only lab.xml's entry is swept");
        // Note: other.xml's *authorizations* did not change either, so
        // the surviving entry is correct (the fingerprint pins that).
        assert!(s.handle(&req(None, "other.xml")).unwrap().cached);
    }

    #[test]
    fn schema_level_grant_sweeps_conforming_documents() {
        // A schema-level authorization names the DTD URI, which is never
        // itself a cache key; the sweep must resolve to the conforming
        // documents. Pinned by cache_len, since the fingerprint change
        // would mask the distinction on the next request.
        let mut s = server();
        s.repository_mut().put_dtd(
            "lab.dtd",
            "<!ELEMENT lab (news,internal)><!ELEMENT news (#PCDATA)>\
             <!ELEMENT internal (#PCDATA)>",
        );
        s.repository_mut().put_document(
            "typed.xml",
            "<lab><news>hello</news><internal>budget</internal></lab>",
            Some("lab.dtd"),
        );
        let _ = s.handle(&req(None, "typed.xml")).unwrap();
        let _ = s.handle(&req(None, "lab.xml")).unwrap(); // not an instance
        assert_eq!(s.cache_len(), 2);
        s.grant(Authorization::new(
            Subject::new("Public", "*", "*").unwrap(),
            ObjectSpec::parse("lab.dtd:/lab/internal").unwrap(),
            Sign::Plus,
            AuthType::Recursive,
        ));
        assert_eq!(s.cache_len(), 1, "conforming instance swept, unrelated doc kept");
        let r = s.handle(&req(None, "typed.xml")).unwrap();
        assert!(!r.cached);
        assert!(r.xml.contains("budget"), "schema grant now applies: {}", r.xml);
    }

    #[test]
    fn without_cache_recomputes() {
        let s = server().without_cache();
        let r1 = s.handle(&req(None, "lab.xml")).unwrap();
        let r2 = s.handle(&req(None, "lab.xml")).unwrap();
        assert!(!r1.cached && !r2.cached);
        assert_eq!(s.cache_stats(), (0, 0));
        assert_eq!(s.cache_len(), 0);
    }

    #[test]
    fn bounded_cache_capacity_evicts() {
        let mut s = server().with_cache_capacity(1);
        s.repository_mut().put_document("b.xml", "<lab><news>b</news></lab>", None);
        let _ = s.handle(&req(None, "lab.xml")).unwrap();
        let _ = s.handle(&req(None, "b.xml")).unwrap();
        assert_eq!(s.cache_len(), 1, "capacity 1 holds one view");
    }

    #[test]
    fn audit_records_serving() {
        let s = server();
        let _ = s.handle(&req(None, "lab.xml"));
        let records = s.audit.records();
        assert_eq!(records.len(), 1);
        assert!(matches!(
            records[0].outcome,
            AuditOutcome::Served { cached: false, granted_nodes: g, .. } if g > 0
        ));
        assert!(records[0].requester.starts_with("anonymous@"));
    }

    #[test]
    fn bad_locations_rejected() {
        let s = server();
        let mut r = req(None, "lab.xml");
        r.ip = "not-an-ip".into();
        assert!(matches!(s.handle(&r), Err(ServerError::BadRequest(_))));
    }

    #[test]
    fn depth_bomb_is_limit_exceeded_not_processing() {
        let mut limits = ResourceLimits::default();
        limits.xml.max_depth = 8;
        let mut s = server().with_limits(limits);
        let mut xml = String::new();
        for _ in 0..50 {
            xml.push_str("<d>");
        }
        for _ in 0..50 {
            xml.push_str("</d>");
        }
        s.repository_mut().put_document("bomb.xml", &xml, None);
        let e = s.handle(&req(None, "bomb.xml")).unwrap_err();
        assert!(matches!(e, ServerError::LimitExceeded(_)), "{e:?}");
        // A genuinely broken stored document is still Processing.
        s.repository_mut().put_document("broken.xml", "<d><open>", None);
        let e2 = s.handle(&req(None, "broken.xml")).unwrap_err();
        assert!(matches!(e2, ServerError::Processing(_)), "{e2:?}");
    }

    #[test]
    fn expensive_query_is_limit_exceeded() {
        let mut limits = ResourceLimits::default();
        limits.xpath.max_node_visits = 1;
        let s = server().with_limits(limits);
        let e = s.query(&req(None, "lab.xml"), "//*//*").unwrap_err();
        assert!(matches!(e, ServerError::LimitExceeded(_)), "{e:?}");
        // Under default limits the same query answers fine.
        let s2 = server();
        assert!(s2.query(&req(None, "lab.xml"), "//*//*").is_ok());
    }
}

#[cfg(test)]
mod revoke_tests {
    use super::*;
    use xmlsec_authz::{AuthType, ObjectSpec, Sign};
    use xmlsec_subjects::Subject;

    #[test]
    fn revoking_shrinks_views_and_drops_cache() {
        let mut dir = Directory::new();
        dir.add_user("u").unwrap();
        let grant = Authorization::new(
            Subject::new("u", "*", "*").unwrap(),
            ObjectSpec::with_path("d.xml", "/d").unwrap(),
            Sign::Plus,
            AuthType::Recursive,
        );
        let mut base = AuthorizationBase::new();
        base.add(grant.clone());
        let mut s = SecureServer::new(dir, base);
        s.register_credentials("u", "pw");
        s.repository_mut().put_document("d.xml", "<d>secret</d>", None);
        let req = ClientRequest {
            user: Some(("u".into(), "pw".into())),
            ip: "1.2.3.4".into(),
            sym: "h.x.org".into(),
            uri: "d.xml".into(),
        };
        assert!(s.handle(&req).unwrap().xml.contains("secret"));
        assert_eq!(s.revoke(&grant), 1);
        let after = s.handle(&req).unwrap();
        assert!(!after.cached, "revocation must invalidate the cache");
        assert_eq!(after.xml, "<d/>");
        assert_eq!(s.revoke(&grant), 0);
    }
}

#[cfg(test)]
mod update_tests {
    use super::*;
    use xmlsec_authz::{Action, AuthType, ObjectSpec, Sign};
    use xmlsec_subjects::Subject;

    fn writable_server() -> SecureServer {
        let mut dir = Directory::new();
        dir.add_user("ed").unwrap();
        dir.add_user("ro").unwrap();
        let mut base = AuthorizationBase::new();
        base.add(Authorization::new(
            Subject::new("ed", "*", "*").unwrap(),
            ObjectSpec::with_path("d.xml", "/d").unwrap(),
            Sign::Plus,
            AuthType::Recursive,
        ));
        base.add(
            Authorization::new(
                Subject::new("ed", "*", "*").unwrap(),
                ObjectSpec::with_path("d.xml", "/d").unwrap(),
                Sign::Plus,
                AuthType::Recursive,
            )
            .with_action(Action::Write),
        );
        base.add(Authorization::new(
            Subject::new("ro", "*", "*").unwrap(),
            ObjectSpec::with_path("d.xml", "/d").unwrap(),
            Sign::Plus,
            AuthType::Recursive,
        ));
        let mut s = SecureServer::new(dir, base);
        s.register_credentials("ed", "pw");
        s.register_credentials("ro", "pw");
        s.repository_mut().put_document("d.xml", "<d><t>v1</t></d>", None);
        s
    }

    fn rq(user: &str) -> ClientRequest {
        ClientRequest {
            user: Some((user.into(), "pw".into())),
            ip: "1.2.3.4".into(),
            sym: "h.x.org".into(),
            uri: "d.xml".into(),
        }
    }

    #[test]
    fn committed_update_is_audited_as_updated() {
        let s = writable_server();
        let touched = s
            .update(&rq("ed"), &[UpdateOp::SetText { target: "/d/t".into(), text: "v2".into() }])
            .unwrap();
        assert_eq!(touched, 1);
        let records = s.audit.records();
        let last = records.last().unwrap();
        assert!(
            matches!(last.outcome, AuditOutcome::Updated { ops: 1, touched: 1 }),
            "an update is audited as Updated, not as a zero-node Served: {last:?}"
        );
        assert!(last.requester.starts_with("ed@"));
    }

    #[test]
    fn cancelled_update_leaves_document_and_views_untouched() {
        let s = writable_server();
        let before = s.handle(&rq("ro")).unwrap();
        assert!(s.handle(&rq("ro")).unwrap().cached, "reader view is warm");
        let token = CancelToken::never();
        token.cancel();
        let e = s
            .update_cancellable(
                &rq("ed"),
                &[UpdateOp::SetText { target: "/d/t".into(), text: "v2".into() }],
                Some(&token),
            )
            .unwrap_err();
        assert!(matches!(e, ServerError::Cancelled(_)), "{e:?}");
        // Nothing committed: stored bytes, content hash, and the warm
        // view are all exactly as before the interrupted batch.
        {
            let repo = s.repository();
            assert_eq!(repo.document("d.xml").unwrap().xml, "<d><t>v1</t></d>");
        }
        let after = s.handle(&rq("ro")).unwrap();
        assert!(after.cached, "the warm view survives the aborted batch");
        assert_eq!(after.xml, before.xml);
        assert_eq!(after.etag, before.etag);
    }

    #[test]
    fn a_commit_between_probe_and_compute_answers_the_keyed_revision_and_files_nothing() {
        let s = writable_server();
        let Probe::Miss(ticket) = s.probe(&rq("ro"), None).unwrap() else {
            panic!("the reader's view is cold")
        };
        let old_key = ticket.key.clone();
        let set = |text: &str| {
            let op = UpdateOp::SetText { target: "/d/t".into(), text: text.into() };
            s.update(&rq("ed"), &[op]).unwrap();
        };
        set("v2");
        let ConditionalOutcome::Full(resp) =
            s.compute_view_for(&rq("ro"), None, None, ticket).unwrap()
        else {
            panic!("no tag was sent")
        };
        // The ticket carries the revision it keyed: the compute answers
        // with that revision's view, but files nothing under its key,
        // which no reader can reach any more.
        let fresh = writable_server().without_cache().handle(&rq("ro")).unwrap();
        assert_eq!(
            (resp.xml.as_str(), resp.etag.as_str()),
            (fresh.xml.as_str(), fresh.etag.as_str())
        );
        let cache = s.cache.as_ref().unwrap();
        assert!(cache.get_cached(&old_key).is_none(), "a superseded key is not filed");
        assert!(!s.lock_patch_state().contains_key(&old_key));
        // The current revision's key was never filled with the old view.
        let current = s.handle(&rq("ro")).unwrap();
        assert!(!current.cached);
        assert_eq!(current.xml, "<d><t>v2</t></d>");
        // A miss on the current revision files its view as before.
        assert!(s.handle(&rq("ro")).unwrap().cached);
    }

    #[test]
    fn commit_patches_warm_views_and_counts_them() {
        let patched = || {
            telemetry::global()
                .counter(
                    "xmlsec_view_patches_total",
                    "Warm cached views handled after an update commit, by result: \
                     patched in place, or dropped (no bookkeeping / labeling error).",
                    &[("result", "patched")],
                )
                .get()
        };
        let s = writable_server();
        let before = s.handle(&rq("ro")).unwrap();
        assert!(s.handle(&rq("ro")).unwrap().cached);
        let count0 = patched();
        s.update(&rq("ed"), &[UpdateOp::SetText { target: "/d/t".into(), text: "v2".into() }])
            .unwrap();
        assert!(patched() > count0, "the warm reader view is patched in place");
        let after = s.handle(&rq("ro")).unwrap();
        assert!(after.cached, "the patched view serves as a warm hit");
        assert!(after.xml.contains("v2"), "{}", after.xml);
        assert_ne!(after.etag, before.etag);
        // Repeated updates keep patching the same (moving) entry.
        s.update(&rq("ed"), &[UpdateOp::SetText { target: "/d/t".into(), text: "v3".into() }])
            .unwrap();
        let third = s.handle(&rq("ro")).unwrap();
        assert!(third.cached);
        assert!(third.xml.contains("v3"), "{}", third.xml);
    }

    #[test]
    fn update_without_write_grant_is_denied_and_commits_nothing() {
        let s = writable_server();
        let e = s
            .update(&rq("ro"), &[UpdateOp::SetText { target: "/d/t".into(), text: "x".into() }])
            .unwrap_err();
        assert!(matches!(e, ServerError::UpdateDenied(_)), "{e:?}");
        let repo = s.repository();
        assert_eq!(repo.document("d.xml").unwrap().xml, "<d><t>v1</t></d>");
    }
}
