//! The security processor (paper §7): the four-step on-line
//! transformation of a requested document into the requester's view.
//!
//! 1. **parsing** — syntax check of the document (and its DTD) and
//!    compilation into a DOM tree;
//! 2. **tree labeling** — recursive labeling from the instance- and
//!    schema-level XACLs (§6.1);
//! 3. **transformation** — pruning of the labeled tree (§6.2), valid
//!    w.r.t. the loosened DTD;
//! 4. **unparsing** — generation of the resulting XML text.
//!
//! The output carries the view document, its text, and the loosened DTD
//! text, ready to be "transmitted to the user who requested access".
//!
//! The cycle splits at the requester: [`SecurityProcessor::parse_source`]
//! is step 1, which depends only on the document, and
//! [`SecurityProcessor::render`] is steps 2–4 over the borrowed parsed
//! tree, rendering the pruned view straight to text. A server parses each
//! stored revision once and renders every miss from it;
//! [`SecurityProcessor::process`] runs both on a private parse and also
//! prunes that copy, for callers that want the view as a DOM.

use crate::compile::{CompiledCache, CompiledPolicy};
use crate::decision::policy_fingerprint;
use crate::decision::DecisionCache;
use crate::limits::ResourceLimits;
use crate::par::Parallelism;
use crate::schema::PreparedSchema;
use crate::stages;
use crate::view::{
    label_run, prune_document, render_view, EngineOptions, Labeling, Run, ViewStats,
};
use std::fmt;
use std::sync::{Arc, OnceLock};
use xmlsec_authz::{Action, Authorization, AuthorizationBase, PolicyConfig};
use xmlsec_dtd::{loosen, normalize, Validator, ValidityError};
use xmlsec_subjects::{Directory, Requester};
use xmlsec_telemetry as telemetry;
use xmlsec_xml::cancel::{CancelReason, CancelToken};
use xmlsec_xml::{parse_cancellable, Document, ParseOptions, SerializeOptions};

/// Counts every full pipeline execution. Cache hits and HTTP 304
/// short-circuits never reach [`SecurityProcessor::process`], so the
/// delta of this counter is the ground truth for "did we recompute".
fn pipeline_runs() -> &'static Arc<telemetry::Counter> {
    static C: std::sync::OnceLock<Arc<telemetry::Counter>> = std::sync::OnceLock::new();
    C.get_or_init(|| {
        telemetry::global().counter(
            "xmlsec_pipeline_runs_total",
            "Full security-pipeline executions (cache hits excluded).",
            &[],
        )
    })
}

/// Errors raised by the processor pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum ProcessError {
    /// The requested document is not well-formed.
    Xml(xmlsec_xml::XmlError),
    /// The associated DTD does not parse.
    Dtd(xmlsec_dtd::DtdError),
    /// The document is not valid against its DTD (only when validation is
    /// requested); carries all violations.
    Invalid(Vec<ValidityError>),
    /// An authorization path evaluation exceeded the configured budget
    /// (see [`ResourceLimits::xpath`]).
    XpathLimit(xmlsec_xpath::EvalError),
    /// The request's cancellation token tripped (deadline passed, client
    /// gone, or explicit cancel) at a stage boundary or inside a hot
    /// loop; partial work was discarded on the normal drop path.
    Cancelled(CancelReason),
}

impl ProcessError {
    /// Whether this failure is a resource-limit rejection (as opposed to
    /// malformed/invalid input). Servers map these to "request too
    /// expensive" responses rather than generic parse failures.
    pub fn is_resource_limit(&self) -> bool {
        match self {
            ProcessError::XpathLimit(e) => !e.is_cancelled(),
            ProcessError::Xml(e) => {
                matches!(e.kind, xmlsec_xml::XmlErrorKind::LimitExceeded(_))
            }
            _ => false,
        }
    }

    /// Whether this failure is a cancellation — the request was
    /// abandoned, not malformed or over budget. Servers map these to
    /// 503-style responses (or drop the connection for a gone client).
    pub fn is_cancelled(&self) -> bool {
        matches!(self, ProcessError::Cancelled(_))
    }
}

impl fmt::Display for ProcessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProcessError::Xml(e) => write!(f, "parse step failed: {e}"),
            ProcessError::Dtd(e) => write!(f, "DTD parsing failed: {e}"),
            ProcessError::Invalid(errs) => {
                write!(f, "document invalid against its DTD ({} violations)", errs.len())
            }
            ProcessError::XpathLimit(e) => write!(f, "labeling step over budget: {e}"),
            ProcessError::Cancelled(r) => write!(f, "request cancelled: {r}"),
        }
    }
}

impl std::error::Error for ProcessError {}

impl From<xmlsec_xpath::EvalError> for ProcessError {
    fn from(e: xmlsec_xpath::EvalError) -> Self {
        match e {
            xmlsec_xpath::EvalError::Cancelled(r) => ProcessError::Cancelled(r),
            other => ProcessError::XpathLimit(other),
        }
    }
}

impl From<xmlsec_xml::XmlError> for ProcessError {
    fn from(e: xmlsec_xml::XmlError) -> Self {
        match e.kind {
            xmlsec_xml::XmlErrorKind::Cancelled(r) => ProcessError::Cancelled(r),
            _ => ProcessError::Xml(e),
        }
    }
}

impl From<xmlsec_dtd::DtdError> for ProcessError {
    fn from(e: xmlsec_dtd::DtdError) -> Self {
        ProcessError::Dtd(e)
    }
}

/// Processor configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcessorOptions {
    /// The per-document access-control policy.
    pub policy: PolicyConfig,
    /// Check input validity against the DTD before labeling (the paper's
    /// step 1 takes valid documents; turn off to process well-formed-only
    /// documents).
    pub validate_input: bool,
    /// Double-check that the pruned view is valid against the loosened
    /// DTD (cheap insurance; on in debug-style deployments).
    pub verify_view: bool,
    /// Resource caps for parsing and labeling; defaults are generous
    /// enough that only pathological inputs are rejected.
    pub limits: ResourceLimits,
    /// Thread knob for the compute-view engine (default: sequential).
    /// Extra threads are leased from the process-wide core budget, so
    /// this composes with the server's worker pool.
    pub parallelism: Parallelism,
}

impl ProcessorOptions {
    /// The engine options of one labeling run under these options: the
    /// path-evaluation limits, the thread knob and the request's
    /// cancellation token, with no memo or compiled policy attached.
    pub fn engine<'a>(&self, cancel: Option<&'a CancelToken>) -> EngineOptions<'a> {
        EngineOptions {
            parallelism: self.parallelism,
            cancel,
            ..EngineOptions::sequential(self.limits.xpath)
        }
    }
}

/// A request: who wants which document.
#[derive(Debug, Clone)]
pub struct AccessRequest {
    /// The authenticated requester triple.
    pub requester: Requester,
    /// URI of the requested document.
    pub uri: String,
}

/// Everything the processor needs to know about a stored document.
///
/// A repository that serves many requests per document passes the
/// schema it prepared when the DTD was stored ([`DocumentSource::schema`])
/// and the stored revision's validity memo, so a request does only the
/// per-request work. One-off callers pass the DTD text and leave the
/// rest at its default:
///
/// ```
/// # use xmlsec_core::DocumentSource;
/// let source =
///     DocumentSource { xml: "<a/>", dtd: Some("<!ELEMENT a EMPTY>"), ..Default::default() };
/// ```
#[derive(Debug, Clone, Default)]
pub struct DocumentSource<'a> {
    /// The document text.
    pub xml: &'a str,
    /// The DTD text, if the document has a schema. Parsed with the
    /// document ([`SecurityProcessor::parse_source`]); ignored when
    /// [`DocumentSource::schema`] is set.
    pub dtd: Option<&'a str>,
    /// URI under which schema-level authorizations are registered
    /// (`dtd(URI)` in the algorithm).
    pub dtd_uri: Option<&'a str>,
    /// The document's DTD, prepared once when it was stored.
    pub schema: Option<&'a PreparedSchema>,
    /// Memoized validity of this revision of the document against
    /// `schema`. The processor reads it instead of validating and fills
    /// it in the first time it validates; the owner resets it whenever
    /// the document or its DTD changes.
    pub schema_valid: Option<&'a OnceLock<bool>>,
}

/// A document after step 1 of the pipeline
/// ([`SecurityProcessor::parse_source`]): parsed under the XML limits and
/// normalized against its schema. Steps 2–4 only borrow it, so a
/// repository can parse a stored revision once and serve every request
/// on that revision from the same DOM.
#[derive(Debug, Clone)]
pub struct ParsedSource {
    /// The parsed, DTD-normalized document.
    pub doc: Document,
    /// The schema step 1 parsed itself — from [`DocumentSource::dtd`] or
    /// the document's internal subset — when the source carried no
    /// prepared [`DocumentSource::schema`].
    pub schema: Option<PreparedSchema>,
}

/// A view rendered from a borrowed [`ParsedSource`]
/// ([`SecurityProcessor::render`]): what a server transmits, without a
/// pruned copy of the tree.
#[derive(Debug, Clone)]
pub struct RenderedView {
    /// The unparsed view.
    pub xml: String,
    /// The loosened DTD text, when the source had a DTD.
    pub loosened_dtd: Option<String>,
    /// Labeling statistics; `pruned_nodes` is 0, as nothing is pruned.
    pub stats: ViewStats,
}

/// The processor's output: the view and its transmitted artifacts.
#[derive(Debug, Clone)]
pub struct ProcessOutput {
    /// The pruned view as a DOM.
    pub view: Document,
    /// The unparsed view (step 4).
    pub xml: String,
    /// The loosened DTD text, when the source had a DTD.
    pub loosened_dtd: Option<String>,
    /// Labeling/pruning statistics.
    pub stats: ViewStats,
}

/// The server-side security processor: owns the directory, the
/// authorization base, and the policy, and turns requests into views.
#[derive(Debug, Clone, Default)]
pub struct SecurityProcessor {
    /// The user/group directory used for subject matching.
    pub directory: Directory,
    /// The server's authorization base (instance and schema XACLs).
    pub authorizations: AuthorizationBase,
    /// Pipeline options.
    pub options: ProcessorOptions,
    /// Optional cross-request label-decision memo (shared via `Arc`, so
    /// several processors can use the same memo).
    pub decisions: Option<Arc<DecisionCache>>,
    /// Optional cross-request compiled-policy cache. While one is
    /// attached, a request compiles the applicable policy against the
    /// DTD and serves guaranteed verdict-table cells (or, when every
    /// cell is guaranteed, the whole labeling) from the table (see
    /// [`mod@crate::compile`]); a document that does not validate
    /// against its DTD silently takes the interpreted path.
    pub compiled: Option<Arc<CompiledCache>>,
}

impl SecurityProcessor {
    /// Creates a processor with the paper's default policy.
    pub fn new(directory: Directory, authorizations: AuthorizationBase) -> Self {
        SecurityProcessor {
            directory,
            authorizations,
            options: ProcessorOptions::default(),
            decisions: None,
            compiled: None,
        }
    }

    /// Attaches a shared label-decision cache (see
    /// [`crate::decision::DecisionCache`]).
    pub fn with_decision_cache(mut self, cache: Arc<DecisionCache>) -> Self {
        self.decisions = Some(cache);
        self
    }

    /// Attaches a shared compiled-policy cache, which turns policy
    /// compilation on (see [`mod@crate::compile`]).
    pub fn with_compiled_cache(mut self, cache: Arc<CompiledCache>) -> Self {
        self.compiled = Some(cache);
        self
    }

    /// The applicable authorization sets for `action` (steps 1–2 of
    /// compute-view): instance level on `uri`, schema level on `dtd_uri`.
    pub fn applicable_sets(
        &self,
        uri: &str,
        dtd_uri: Option<&str>,
        requester: &Requester,
        action: Action,
    ) -> (Vec<&Authorization>, Vec<&Authorization>) {
        let resolve = |u: &str| {
            self.authorizations.applicable_for_action(u, requester, &self.directory, action)
        };
        (resolve(uri), dtd_uri.map(resolve).unwrap_or_default())
    }

    /// Runs the four-step execution cycle for one request against one
    /// document source.
    pub fn process(
        &self,
        request: &AccessRequest,
        source: &DocumentSource<'_>,
    ) -> Result<ProcessOutput, ProcessError> {
        self.process_cancellable(request, source, None)
    }

    /// [`SecurityProcessor::process`] with a request-scoped deadline or
    /// cancellation token. It is checked at every stage boundary and
    /// polled cooperatively inside the parser's node loop, the
    /// evaluator's budget checkpoints and the labeling walks; clones of
    /// it cancel the in-flight compute, e.g. when the client disconnects.
    /// A `None` token never cancels.
    ///
    /// This is [`SecurityProcessor::parse_source`] followed by
    /// [`SecurityProcessor::render`]; the parsed document is this call's
    /// own, so it is then pruned in place to hand the view out as a DOM
    /// too.
    pub fn process_cancellable(
        &self,
        request: &AccessRequest,
        source: &DocumentSource<'_>,
        cancel: Option<&CancelToken>,
    ) -> Result<ProcessOutput, ProcessError> {
        let parsed = self.parse_source(source, cancel)?;
        let (rendered, labeling) = self.render(request, source, &parsed, cancel)?;
        let ParsedSource { doc: mut view, schema } = parsed;
        let pruned_nodes = {
            let _s = stages::prune();
            prune_document(&mut view, &labeling, self.options.policy)
        };
        if self.options.verify_view {
            if let Some(s) = source.schema.or(schema.as_ref()) {
                let _s = stages::verify();
                let errs = Validator::new(&loosen(s.dtd())).validate(&view);
                debug_assert!(
                    errs.is_empty(),
                    "pruned view must validate against the loosened DTD: {errs:?}"
                );
            }
        }
        let RenderedView { xml, loosened_dtd, stats } = rendered;
        Ok(ProcessOutput { view, xml, loosened_dtd, stats: ViewStats { pruned_nodes, ..stats } })
    }

    /// Step 1, parsing: the document under the XML limits, then its
    /// schema, then DTD normalization of the document against it (so
    /// authorizations conditioned on defaulted attributes behave
    /// uniformly). When no external DTD is supplied, a DOCTYPE internal
    /// subset in the document serves as the schema; a prepared schema
    /// skips the DTD parse. Nothing here depends on the requester, so a
    /// repository runs it once per stored revision.
    pub fn parse_source(
        &self,
        source: &DocumentSource<'_>,
        cancel: Option<&CancelToken>,
    ) -> Result<ParsedSource, ProcessError> {
        checkpoint(cancel)?;
        let mut doc = {
            let _s = stages::parse();
            parse_cancellable(
                source.xml,
                ParseOptions::default(),
                &self.options.limits.xml,
                cancel,
            )?
        };
        let schema = match source.schema {
            Some(_) => None,
            None => {
                let _s = stages::dtd_parse();
                checkpoint(cancel)?;
                let text = source
                    .dtd
                    .or_else(|| doc.doctype.as_ref().and_then(|dt| dt.internal_subset.as_deref()));
                text.map(PreparedSchema::parse).transpose()?
            }
        };
        if let Some(s) = source.schema.or(schema.as_ref()) {
            checkpoint(cancel)?;
            let _s = stages::normalize();
            normalize(s.dtd(), &mut doc);
        }
        Ok(ParsedSource { doc, schema })
    }

    /// Steps 2–4 over a parsed source, which is only borrowed: labeling,
    /// then the view rendered straight from the labeled DOM
    /// ([`crate::view::render_view`]) with the loosened DTD. `source`
    /// must be the one `parsed` came from: it supplies the schema-level
    /// URI, the prepared schema and the validity memo. A repository that
    /// keeps one [`ParsedSource`] per revision serves every miss on that
    /// revision from it without copying the tree. Returns the view and
    /// the labeling it was rendered from.
    pub fn render(
        &self,
        request: &AccessRequest,
        source: &DocumentSource<'_>,
        parsed: &ParsedSource,
        cancel: Option<&CancelToken>,
    ) -> Result<(RenderedView, Labeling), ProcessError> {
        let _process_span = telemetry::trace::span("processor.process");
        pipeline_runs().inc();
        checkpoint(cancel)?;
        let doc = &parsed.doc;
        let schema = source.schema.or(parsed.schema.as_ref());
        // Whether `doc` is valid against the schema: validated at most
        // once per request, and at most once per revision when the source
        // carries a memo.
        let mut valid: Option<bool> = source.schema_valid.and_then(|m| m.get().copied());
        if let (true, Some(s)) = (self.options.validate_input, schema) {
            if valid != Some(true) {
                checkpoint(cancel)?;
                let _s = stages::validate();
                let errs = Validator::new(s.dtd()).validate(doc);
                valid = remember_validity(source, errs.is_empty());
                if !errs.is_empty() {
                    return Err(ProcessError::Invalid(errs));
                }
            }
        }

        // Steps 1–2 of compute-view: the applicable *read* authorization
        // sets (write authorizations drive `update`, not views).
        checkpoint(cancel)?;
        let _authz_span = stages::authz();
        let (axml, adtd) =
            self.applicable_sets(&request.uri, source.dtd_uri, &request.requester, Action::Read);
        drop(_authz_span);

        // Policy compilation: guaranteed verdict-table cells — or, when
        // every cell is guaranteed, the whole labeling pass — are served
        // from a table compiled once per (applicable set, schema) and
        // cached. The table's guarantees quantify over *conforming*
        // documents only, so a document whose validity is not yet known
        // is validated here (once per revision with a memo) purely to
        // gate the compiled path; a non-conforming document silently
        // takes the interpreted route. The policy fingerprint keys the
        // cache lookup and the labeling memo alike, so it is computed
        // once.
        let mut compiled: Option<Arc<CompiledPolicy>> = None;
        let mut fingerprint = None;
        if let (Some(cache), Some(s)) = (&self.compiled, schema) {
            checkpoint(cancel)?;
            if valid.is_none() {
                let _s = stages::validate();
                let ok = Validator::new(s.dtd()).validate(doc).is_empty();
                valid = remember_validity(source, ok);
            }
            let root = doc.element_name(doc.root()).filter(|_| valid == Some(true));
            if let Some(root) = root {
                let _s = stages::compile();
                let policy = self.options.policy;
                let fp = policy_fingerprint(&axml, &adtd, &self.directory, policy);
                fingerprint = Some(fp);
                compiled = cache
                    .get_or_compile_prepared(s, root, fp, &axml, &adtd, &self.directory, policy)
                    .ok();
            }
        }

        // Step 2: labeling.
        let engine = EngineOptions {
            decisions: self.decisions.as_deref(),
            compiled: compiled.as_deref(),
            ..self.options.engine(cancel)
        };
        let policy = self.options.policy;
        let labeling = {
            let _s = stages::label();
            let run = Run::Plain { fingerprint };
            label_run(doc, &axml, &adtd, &self.directory, policy, &engine, run)?
        };

        // Loosening, so the view stays valid without revealing what was
        // hidden.
        checkpoint(cancel)?;
        let loosened_dtd = {
            let _s = stages::loosen();
            schema.map(|s| s.loosened_text().to_string())
        };

        // Steps 3–4: the pruned view, unparsed straight from the labeled
        // tree. The last checkpoint before bytes are rendered: past this
        // point the response is cheap to finish.
        checkpoint(cancel)?;
        let xml = {
            let _s = stages::serialize();
            render_view(doc, &labeling, policy, &SerializeOptions::canonical())
        };
        Ok((RenderedView { xml, loosened_dtd, stats: labeling.stats }, labeling))
    }
}

/// A stage-boundary checkpoint: always consults the wall clock, so a
/// blown deadline is observed between stages even when no hot loop ran
/// long enough to poll.
fn checkpoint(cancel: Option<&CancelToken>) -> Result<(), ProcessError> {
    match cancel {
        Some(t) => t.check().map_err(|c| ProcessError::Cancelled(c.reason)),
        None => Ok(()),
    }
}

/// Records a validation outcome in the source's memo, for later requests
/// on the same revision, and returns it for the rest of this request.
fn remember_validity(source: &DocumentSource<'_>, ok: bool) -> Option<bool> {
    if let Some(memo) = source.schema_valid {
        let _ = memo.set(ok);
    }
    Some(ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmlsec_authz::{AuthType, Authorization, ObjectSpec, Sign};
    use xmlsec_dtd::parse_dtd;
    use xmlsec_subjects::Subject;

    const DTD: &str = r#"
        <!ELEMENT lab (project+)>
        <!ELEMENT project (manager, paper*)>
        <!ATTLIST project name CDATA #REQUIRED>
        <!ELEMENT manager (#PCDATA)>
        <!ELEMENT paper (#PCDATA)>
    "#;
    const XML: &str =
        r#"<lab><project name="p1"><manager>Sam</manager><paper>P</paper></project></lab>"#;

    fn processor() -> SecurityProcessor {
        let mut dir = Directory::new();
        dir.add_user("Tom").unwrap();
        dir.add_group("Staff").unwrap();
        dir.add_member("Tom", "Staff").unwrap();
        let mut base = AuthorizationBase::new();
        base.add(Authorization::new(
            Subject::new("Staff", "*", "*").unwrap(),
            ObjectSpec::parse("lab.xml:/lab").unwrap(),
            Sign::Plus,
            AuthType::Recursive,
        ));
        base.add(Authorization::new(
            Subject::new("Staff", "*", "*").unwrap(),
            ObjectSpec::parse("lab.xml://manager").unwrap(),
            Sign::Minus,
            AuthType::Recursive,
        ));
        base.add(Authorization::new(
            Subject::new("Tom", "*", "*").unwrap(),
            ObjectSpec::parse("lab.dtd://paper").unwrap(),
            Sign::Plus,
            AuthType::Recursive,
        ));
        SecurityProcessor::new(dir, base)
    }

    fn request(user: &str) -> AccessRequest {
        AccessRequest {
            requester: Requester::new(user, "1.2.3.4", "h.lab.com").unwrap(),
            uri: "lab.xml".to_string(),
        }
    }

    fn source() -> DocumentSource<'static> {
        DocumentSource { xml: XML, dtd: Some(DTD), dtd_uri: Some("lab.dtd"), ..Default::default() }
    }

    #[test]
    fn full_pipeline_produces_pruned_view() {
        let mut p = processor();
        p.options.validate_input = true;
        p.options.verify_view = true;
        let out = p.process(&request("Tom"), &source()).unwrap();
        assert_eq!(out.xml, r#"<lab><project name="p1"><paper>P</paper></project></lab>"#);
        assert!(out.loosened_dtd.as_deref().unwrap().contains("(manager?,paper*)?"));
        assert_eq!(out.stats.instance_auths, 2);
        assert_eq!(out.stats.schema_auths, 1);
    }

    #[test]
    fn unknown_requester_sees_nothing() {
        let mut p = processor();
        p.directory.add_user("Eve").unwrap();
        let out = p.process(&request("Eve"), &source()).unwrap();
        assert_eq!(out.xml, "<lab/>");
        assert_eq!(out.stats.instance_auths, 0);
    }

    #[test]
    fn malformed_document_is_a_parse_error() {
        let p = processor();
        let bad =
            DocumentSource { xml: "<lab><open>", dtd: None, dtd_uri: None, ..Default::default() };
        assert!(matches!(p.process(&request("Tom"), &bad), Err(ProcessError::Xml(_))));
    }

    #[test]
    fn invalid_document_rejected_when_validation_on() {
        let mut p = processor();
        p.options.validate_input = true;
        // project missing required @name
        let bad_xml = "<lab><project><manager>S</manager></project></lab>";
        let src = DocumentSource {
            xml: bad_xml,
            dtd: Some(DTD),
            dtd_uri: Some("lab.dtd"),
            ..Default::default()
        };
        match p.process(&request("Tom"), &src) {
            Err(ProcessError::Invalid(errs)) => assert!(!errs.is_empty()),
            other => panic!("expected validity failure, got {other:?}"),
        }
        // with validation off it flows through
        p.options.validate_input = false;
        assert!(p.process(&request("Tom"), &src).is_ok());
    }

    #[test]
    fn bad_dtd_is_a_dtd_error() {
        let p = processor();
        let src = DocumentSource {
            xml: XML,
            dtd: Some("<!ELEMENT"),
            dtd_uri: None,
            ..Default::default()
        };
        assert!(matches!(p.process(&request("Tom"), &src), Err(ProcessError::Dtd(_))));
    }

    #[test]
    fn view_validates_against_loosened_dtd() {
        let mut p = processor();
        p.options.verify_view = true; // debug_assert inside
        let out = p.process(&request("Tom"), &source()).unwrap();
        let loosened = parse_dtd(out.loosened_dtd.as_deref().unwrap()).unwrap();
        assert!(xmlsec_dtd::validate(&loosened, &out.view).is_empty());
    }

    #[test]
    fn depth_bomb_is_a_typed_limit_error() {
        let mut p = processor();
        p.options.limits.xml.max_depth = 8;
        let mut bomb = String::new();
        for _ in 0..50 {
            bomb.push_str("<lab>");
        }
        for _ in 0..50 {
            bomb.push_str("</lab>");
        }
        let src = DocumentSource { xml: &bomb, dtd: None, dtd_uri: None, ..Default::default() };
        let err = p.process(&request("Tom"), &src).unwrap_err();
        assert!(err.is_resource_limit(), "{err}");
        assert!(matches!(
            err,
            ProcessError::Xml(xmlsec_xml::XmlError {
                kind: xmlsec_xml::XmlErrorKind::LimitExceeded(_),
                ..
            })
        ));
        // A malformed document is NOT a resource-limit failure.
        let bad =
            DocumentSource { xml: "<lab><open>", dtd: None, dtd_uri: None, ..Default::default() };
        assert!(!p.process(&request("Tom"), &bad).unwrap_err().is_resource_limit());
    }

    #[test]
    fn xpath_budget_applies_to_authorization_objects() {
        let mut p = processor();
        p.options.limits.xpath.max_node_visits = 1;
        let err = p.process(&request("Tom"), &source()).unwrap_err();
        assert!(matches!(err, ProcessError::XpathLimit(_)), "{err:?}");
        assert!(err.is_resource_limit());
        // Defaults are generous enough for the same request.
        p.options.limits = ResourceLimits::default();
        assert!(p.process(&request("Tom"), &source()).is_ok());
    }

    #[test]
    fn parallel_options_and_decision_cache_match_sequential() {
        let seq = processor().process(&request("Tom"), &source()).unwrap();
        let mut p = processor();
        p.options.parallelism = Parallelism::threads(4).with_seq_threshold(0).exact();
        let p = p.with_decision_cache(Arc::new(DecisionCache::new()));
        let out = p.process(&request("Tom"), &source()).unwrap();
        assert_eq!(out.xml, seq.xml);
        assert_eq!(out.stats, seq.stats);
        let cache = p.decisions.as_ref().unwrap();
        assert!(!cache.is_empty(), "processing must memoize label decisions");
        // A second request is answered with the memo warm; same bytes.
        let again = p.process(&request("Tom"), &source()).unwrap();
        assert_eq!(again.xml, seq.xml);
    }

    #[test]
    fn compiled_pipeline_matches_interpreted_and_caches() {
        let want = processor().process(&request("Tom"), &source()).unwrap();
        let p = processor().with_compiled_cache(Arc::new(CompiledCache::new()));
        let out = p.process(&request("Tom"), &source()).unwrap();
        assert_eq!(out.xml, want.xml);
        assert_eq!(out.stats, want.stats);
        let cache = p.compiled.as_ref().unwrap();
        assert_eq!(cache.len(), 1, "first request compiles and caches the policy");
        let again = p.process(&request("Tom"), &source()).unwrap();
        assert_eq!(again.xml, want.xml);
        assert_eq!(cache.len(), 1, "second request reuses the compiled policy");
        // A different requester resolves a different applicable set and
        // compiles its own table.
        let mut p2 = p.clone();
        p2.directory.add_user("Eve").unwrap();
        let eve = p2.process(&request("Eve"), &source()).unwrap();
        assert_eq!(eve.xml, "<lab/>");
        assert_eq!(p2.compiled.as_ref().unwrap().len(), 2);
    }

    #[test]
    fn compiled_path_is_gated_on_conformance() {
        // validate_input off + invalid document: the compiled path must
        // be skipped (its guarantees only cover conforming instances),
        // and the interpreted result served instead.
        let bad_xml = "<lab><project><manager>S</manager></project></lab>";
        let src = DocumentSource {
            xml: bad_xml,
            dtd: Some(DTD),
            dtd_uri: Some("lab.dtd"),
            ..Default::default()
        };
        let want = processor().process(&request("Tom"), &src).unwrap();
        let p = processor().with_compiled_cache(Arc::new(CompiledCache::new()));
        let out = p.process(&request("Tom"), &src).unwrap();
        assert_eq!(out.xml, want.xml);
        assert_eq!(out.stats, want.stats);
        assert!(
            p.compiled.as_ref().unwrap().is_empty(),
            "a non-conforming document must not trigger compilation"
        );
    }

    #[test]
    fn prepared_schema_and_validity_memo_match_the_text_source() {
        let want = processor().process(&request("Tom"), &source()).unwrap();
        let schema = PreparedSchema::parse(DTD).unwrap();
        let memo = OnceLock::new();
        let prepared = DocumentSource {
            xml: XML,
            dtd_uri: Some("lab.dtd"),
            schema: Some(&schema),
            schema_valid: Some(&memo),
            ..Default::default()
        };
        let p = processor().with_compiled_cache(Arc::new(CompiledCache::new()));
        let out = p.process(&request("Tom"), &prepared).unwrap();
        assert_eq!(out.xml, want.xml);
        assert_eq!(out.loosened_dtd, want.loosened_dtd);
        assert_eq!(out.stats, want.stats);
        assert_eq!(memo.get(), Some(&true), "the compile gate's validation is memoized");
        assert_eq!(p.compiled.as_ref().unwrap().len(), 1);

        // A memo that says "invalid" is trusted: no validation, no
        // compiled path, the same interpreted view.
        let invalid = OnceLock::from(false);
        let p = processor().with_compiled_cache(Arc::new(CompiledCache::new()));
        let src = DocumentSource { schema_valid: Some(&invalid), ..prepared };
        assert_eq!(p.process(&request("Tom"), &src).unwrap().xml, want.xml);
        assert!(p.compiled.as_ref().unwrap().is_empty());
    }

    #[test]
    fn pre_cancelled_request_unwinds_before_any_stage() {
        let token = CancelToken::never();
        token.cancel_with(CancelReason::ClientGone);
        let err = processor().process_cancellable(&request("Tom"), &source(), Some(&token));
        let err = err.unwrap_err();
        assert_eq!(err, ProcessError::Cancelled(CancelReason::ClientGone));
        assert!(err.is_cancelled());
        assert!(!err.is_resource_limit(), "cancellation is not a limit rejection");
    }

    #[test]
    fn expired_deadline_is_a_typed_cancellation() {
        let token = CancelToken::with_timeout(std::time::Duration::ZERO);
        let err = processor().process_cancellable(&request("Tom"), &source(), Some(&token));
        let err = err.unwrap_err();
        assert_eq!(err, ProcessError::Cancelled(CancelReason::DeadlineExceeded));
    }

    #[test]
    fn cancellation_mid_pipeline_is_typed_and_restartable() {
        // Trip at each of the first few checkpoints: every outcome is the
        // typed Cancelled error, and a fresh token then computes the full
        // view — no poisoned shared state survives a cancelled run.
        let want = processor().process(&request("Tom"), &source()).unwrap();
        for k in [0u64, 1, 3, 10, 50] {
            let p = processor();
            let token = CancelToken::cancel_after_polls(k);
            match p.process_cancellable(&request("Tom"), &source(), Some(&token)) {
                Err(ProcessError::Cancelled(CancelReason::Explicit)) => {}
                Ok(out) => assert_eq!(out.xml, want.xml, "poll budget {k} outlived the run"),
                other => panic!("expected Cancelled or a full view at poll {k}, got {other:?}"),
            }
            let again = p.process(&request("Tom"), &source()).unwrap();
            assert_eq!(again.xml, want.xml);
        }
    }

    #[test]
    fn schema_level_auths_are_keyed_by_dtd_uri() {
        let p = processor();
        // Same document, but without a DTD URI: Tom loses the schema grant
        // (papers were only granted at the schema level to Tom... they are
        // covered by /lab R+ anyway; check stats instead).
        let src = DocumentSource { xml: XML, dtd: Some(DTD), dtd_uri: None, ..Default::default() };
        let out = p.process(&request("Tom"), &src).unwrap();
        assert_eq!(out.stats.schema_auths, 0);
    }
}
