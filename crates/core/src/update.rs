//! Write and update operations — the paper's §8 extension ("the support
//! for write and update operations on the documents").
//!
//! The read model carries over wholesale: write authorizations are the
//! same 5-tuples with `action = write`, labeled by the same compute-view
//! machinery. What is new is the *enforcement rule* for each update
//! operation, which the paper leaves open; we adopt the strict reading:
//!
//! - **SetText / SetAttribute** on a node require a positive write label
//!   on that node (for attributes: on the attribute node itself, which
//!   inherits from parent-local grants as in the read model);
//! - **InsertElement / InsertSubtree** under a parent require a positive
//!   write label on the parent (you may add to what you can write);
//! - **Delete** requires a positive write label on *every* node of the
//!   deleted subtree — deleting content you could not even write to is
//!   never allowed, no matter how permissive the root of the subtree is;
//! - **ReplaceSubtree** composes both: the whole outgoing subtree must be
//!   writable (the delete half) *and* the parent must grant the insert
//!   half.
//!
//! Ops in a batch apply **sequentially**, and the write labeling is
//! recomputed after every op that changes the document: op *k+1* is
//! authorized against labels that account for everything ops *1..k* did.
//! In particular `[InsertElement, SetText on the inserted node]` is legal
//! when the parent's grant propagates to the new child — the batch is
//! not authorized against a stale pre-batch labeling.
//!
//! Updates are transactional: all ops apply to a private clone which
//! replaces the document only after the whole batch succeeds, so a
//! denial, a tripped evaluation budget, or a cancellation mid-batch
//! leaves the caller's document untouched.

use crate::label::Sign3;
use crate::view::{label_document, label_document_engine, EngineOptions, Labeling};
use std::fmt;
use xmlsec_authz::{Action, Authorization, PolicyConfig};
use xmlsec_subjects::Directory;
use xmlsec_xml::cancel::{CancelReason, CancelToken};
use xmlsec_xml::{Document, NodeId};
use xmlsec_xpath::{parse_path, select, EvalError, XPathError};

/// One update operation, with targets given as path expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum UpdateOp {
    /// Replace the text content of the selected element(s).
    SetText {
        /// Path selecting the target element(s).
        target: String,
        /// The new text.
        text: String,
    },
    /// Set (or add) an attribute on the selected element(s).
    SetAttribute {
        /// Path selecting the target element(s).
        target: String,
        /// Attribute name.
        name: String,
        /// Attribute value.
        value: String,
    },
    /// Append a new empty element under the selected parent(s).
    InsertElement {
        /// Path selecting the parent element(s).
        parent: String,
        /// Name of the new element.
        name: String,
    },
    /// Parse `xml` as a document fragment and append a deep copy of it
    /// under the selected parent(s).
    InsertSubtree {
        /// Path selecting the parent element(s).
        parent: String,
        /// A well-formed XML fragment (one root element).
        xml: String,
    },
    /// Replace the selected element(s) — subtree and all — with a parsed
    /// copy of `xml`, spliced into the same child position.
    ReplaceSubtree {
        /// Path selecting the element(s) to replace.
        target: String,
        /// A well-formed XML fragment (one root element).
        xml: String,
    },
    /// Delete the selected node(s) (elements or attributes).
    Delete {
        /// Path selecting the nodes to remove.
        target: String,
    },
}

/// Why an update was refused.
#[derive(Debug, Clone, PartialEq)]
pub enum UpdateError {
    /// The target path does not parse.
    BadPath(XPathError),
    /// A subtree payload is not well-formed XML.
    BadFragment(String),
    /// The path selected no nodes.
    NoSuchNode(String),
    /// A selected node (described) lacks write permission.
    NotAuthorized(String),
    /// The operation does not apply to the selected node kind.
    WrongNodeKind(String),
    /// Write labeling exhausted an evaluation budget mid-batch.
    Engine(EvalError),
    /// The request was cancelled mid-batch (deadline, client gone, or
    /// explicit); the document is untouched.
    Cancelled(CancelReason),
    /// The op would grow the document past its buffers' `u32` offsets.
    TooLarge(String),
}

impl fmt::Display for UpdateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UpdateError::BadPath(e) => write!(f, "bad update path: {e}"),
            UpdateError::BadFragment(e) => write!(f, "bad subtree payload: {e}"),
            UpdateError::NoSuchNode(p) => write!(f, "no node matches {p:?}"),
            UpdateError::NotAuthorized(n) => write!(f, "write access denied on {n}"),
            UpdateError::WrongNodeKind(n) => write!(f, "operation not applicable to {n}"),
            UpdateError::Engine(e) => write!(f, "write labeling exceeded limits: {e}"),
            UpdateError::Cancelled(r) => write!(f, "update cancelled: {r}"),
            UpdateError::TooLarge(e) => write!(f, "update too large: {e}"),
        }
    }
}

impl std::error::Error for UpdateError {}

impl From<XPathError> for UpdateError {
    fn from(e: XPathError) -> Self {
        UpdateError::BadPath(e)
    }
}

impl From<EvalError> for UpdateError {
    fn from(e: EvalError) -> Self {
        match e {
            EvalError::Cancelled(r) => UpdateError::Cancelled(r),
            other => UpdateError::Engine(other),
        }
    }
}

/// Everything an update batch needs to re-derive write labels as it
/// mutates the document: the applicable authorization sets (filtered to
/// `action = write` internally), the subject directory, the policy, and
/// the engine options carrying evaluation limits and the request's
/// [`CancelToken`].
#[derive(Clone, Copy)]
pub struct WriteContext<'a> {
    /// Applicable instance-level authorizations (any action; write ones
    /// are selected internally).
    pub axml: &'a [&'a Authorization],
    /// Applicable schema-level authorizations.
    pub adtd: &'a [&'a Authorization],
    /// Subject directory for membership closure.
    pub dir: &'a Directory,
    /// Conflict/completeness policy.
    pub policy: PolicyConfig,
    /// Evaluation limits, parallelism, memo, and cancellation. Each
    /// relabel inside the batch draws a fresh node-visit pool from
    /// `opts.limits`.
    pub opts: EngineOptions<'a>,
}

/// What a successful batch did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpdateOutcome {
    /// Number of concrete node-level operations applied.
    pub touched: usize,
    /// Roots of the subtrees whose content changed, in the *committed*
    /// document: targets of text/attribute writes, roots of inserted or
    /// replacing subtrees, and parents of deletions. A later op in the
    /// same batch may have since removed a recorded node — consumers
    /// must skip ids for which [`Document::contains`] is false. No
    /// server path reads it.
    pub dirty: Vec<NodeId>,
}

/// Computes the **write labeling** of `doc`: identical to read labeling
/// but fed only `action = write` authorizations. Unlimited and
/// uncancellable — prefer [`label_for_write_engine`] on a server path.
pub fn label_for_write(
    doc: &Document,
    axml: &[&Authorization],
    adtd: &[&Authorization],
    dir: &Directory,
    policy: PolicyConfig,
) -> Labeling {
    let wx: Vec<&Authorization> =
        axml.iter().copied().filter(|a| a.action == Action::Write).collect();
    let wd: Vec<&Authorization> =
        adtd.iter().copied().filter(|a| a.action == Action::Write).collect();
    label_document(doc, &wx, &wd, dir, policy)
}

/// [`label_for_write`] through the full engine: evaluation limits and
/// the request's cancellation token apply, so a pathological write-auth
/// object or a blown deadline yields a typed error instead of pinning
/// the worker.
pub fn label_for_write_engine(
    doc: &Document,
    axml: &[&Authorization],
    adtd: &[&Authorization],
    dir: &Directory,
    policy: PolicyConfig,
    opts: &EngineOptions<'_>,
) -> Result<Labeling, EvalError> {
    let wx: Vec<&Authorization> =
        axml.iter().copied().filter(|a| a.action == Action::Write).collect();
    let wd: Vec<&Authorization> =
        adtd.iter().copied().filter(|a| a.action == Action::Write).collect();
    label_document_engine(doc, &wx, &wd, dir, policy, opts)
}

/// Checks and applies a batch of updates atomically.
///
/// Ops run sequentially against a private clone; after every op that
/// changes the clone the write labeling is recomputed (from
/// `ctx`'s authorization sets, under its limits and cancellation token),
/// so each op is authorized against the document state its predecessors
/// produced. On success the clone replaces `doc` and the outcome reports
/// the touched count plus the dirty subtree roots; on any error —
/// denial, bad path, tripped budget, cancellation — `doc` is unchanged.
pub fn apply_updates(
    doc: &mut Document,
    ops: &[UpdateOp],
    ctx: &WriteContext<'_>,
) -> Result<UpdateOutcome, UpdateError> {
    let mut work = doc.clone();
    let outcome = apply_updates_in_place(&mut work, ops, Some(ctx), ctx.opts.cancel)?;
    *doc = work;
    Ok(outcome)
}

/// Applies a batch that a static pre-flight has already proven
/// authorized on every reachable document state (see
/// [`crate::static_analysis::write`]): the same resolve/check/apply code
/// as [`apply_updates`] with every grant check satisfied, so bad paths,
/// missing targets, wrong node kinds and malformed fragments fail
/// byte-identically to the dynamic path — only the per-op write-labeling
/// is skipped. The caller carries the soundness obligation (a
/// guaranteed-allow [`crate::static_analysis::write::BatchVerdict`]).
/// On any error `doc` is unchanged.
pub fn apply_updates_preauthorized(
    doc: &mut Document,
    ops: &[UpdateOp],
    cancel: Option<&CancelToken>,
) -> Result<UpdateOutcome, UpdateError> {
    let mut work = doc.clone();
    let outcome = apply_updates_in_place(&mut work, ops, None, cancel)?;
    *doc = work;
    Ok(outcome)
}

/// The batch loop behind [`apply_updates`] (`ctx` set) and
/// [`apply_updates_preauthorized`] (`ctx` = `None`), for a caller that
/// already owns a working copy: ops apply to `work` in place, and
/// `cancel` is checked before each one. On error `work` may hold part of
/// the batch and must be discarded.
pub fn apply_updates_in_place(
    work: &mut Document,
    ops: &[UpdateOp],
    ctx: Option<&WriteContext<'_>>,
    cancel: Option<&CancelToken>,
) -> Result<UpdateOutcome, UpdateError> {
    let mut outcome = UpdateOutcome { touched: 0, dirty: Vec::new() };
    let mut labels: Option<Labeling> = None;
    for op in ops {
        if let Some(t) = cancel {
            t.check().map_err(|c| UpdateError::Cancelled(c.reason))?;
        }
        let Some(ctx) = ctx else {
            apply_one(work, op, &|_| true, &mut outcome)?;
            continue;
        };
        // Lazily (re)derive labels: the previous op's mutations can
        // change any label in the document (write-auth objects may carry
        // predicates over the mutated content), so a changed document
        // drops the labeling and the next op pays for a fresh one.
        let current = match &labels {
            Some(l) => l,
            None => labels.insert(label_for_write_engine(
                work, ctx.axml, ctx.adtd, ctx.dir, ctx.policy, &ctx.opts,
            )?),
        };
        let granted = |n: NodeId| current.final_sign(n) == Sign3::Plus;
        if apply_one(work, op, &granted, &mut outcome)? {
            labels = None;
        }
    }
    Ok(outcome)
}

/// Resolves, authorizes, and applies a single op against the working
/// document. Returns whether the document changed.
fn apply_one(
    work: &mut Document,
    op: &UpdateOp,
    granted: &impl Fn(NodeId) -> bool,
    outcome: &mut UpdateOutcome,
) -> Result<bool, UpdateError> {
    let describe = |doc: &Document, n: NodeId| xmlsec_xpath::describe_node(doc, n);

    // Resolve and authorize every target of this op first, then apply:
    // one op either happens in full or not at all, and its own mutations
    // cannot skew the selection or the checks.
    let mut changed = false;
    match op {
        UpdateOp::SetText { target, text } => {
            let nodes = resolve(work, target)?;
            for &n in &nodes {
                if !work.is_element(n) {
                    return Err(UpdateError::WrongNodeKind(describe(work, n)));
                }
                if !granted(n) {
                    return Err(UpdateError::NotAuthorized(describe(work, n)));
                }
            }
            ensure_room(work, nodes.len(), text.len(), 1)?;
            for n in nodes {
                for c in work.children(n).to_vec() {
                    if work.is_text(c) {
                        work.remove_subtree(c);
                    }
                }
                work.append_text(n, text);
                outcome.dirty.push(n);
                outcome.touched += 1;
                changed = true;
            }
        }
        UpdateOp::SetAttribute { target, name, value } => {
            let nodes = resolve(work, target)?;
            for &n in &nodes {
                if !work.is_element(n) {
                    return Err(UpdateError::WrongNodeKind(describe(work, n)));
                }
                // Authorization point: the existing attribute node if
                // present (it has its own label), else the element.
                let auth_node = work.attribute_node(n, name).unwrap_or(n);
                if !granted(auth_node) {
                    return Err(UpdateError::NotAuthorized(describe(work, auth_node)));
                }
            }
            ensure_room(work, nodes.len(), name.len() + value.len(), 1)?;
            for n in nodes {
                work.set_attribute(n, name, value).expect("target checked to be an element");
                outcome.dirty.push(n);
                outcome.touched += 1;
                changed = true;
            }
        }
        UpdateOp::InsertElement { parent, name } => {
            let nodes = resolve(work, parent)?;
            for &n in &nodes {
                check_insert_parent(work, n, &granted)?;
            }
            ensure_room(work, nodes.len(), name.len(), 1)?;
            for n in nodes {
                let new = work.append_element(n, name);
                outcome.dirty.push(new);
                outcome.touched += 1;
                changed = true;
            }
        }
        UpdateOp::InsertSubtree { parent, xml } => {
            let frag = parse_fragment(xml)?;
            let nodes = resolve(work, parent)?;
            for &n in &nodes {
                check_insert_parent(work, n, &granted)?;
            }
            ensure_room(work, nodes.len(), frag.buffer_bytes(), frag.arena_len())?;
            for n in nodes {
                let new = work.import_subtree(n, &frag, frag.root());
                outcome.dirty.push(new);
                outcome.touched += 1;
                changed = true;
            }
        }
        UpdateOp::ReplaceSubtree { target, xml } => {
            let frag = parse_fragment(xml)?;
            let nodes = resolve(work, target)?;
            for &n in &nodes {
                if !work.is_element(n) {
                    return Err(UpdateError::WrongNodeKind(describe(work, n)));
                }
                let Some(p) = work.parent(n) else {
                    return Err(UpdateError::WrongNodeKind("the document element".into()));
                };
                // The delete half: the whole outgoing subtree must be
                // writable. The insert half: the parent must grant.
                check_subtree_writable(work, n, &granted)?;
                if !granted(p) {
                    return Err(UpdateError::NotAuthorized(describe(work, p)));
                }
            }
            ensure_room(work, nodes.len(), frag.buffer_bytes(), frag.arena_len())?;
            for n in nodes {
                if !work.contains(n) {
                    continue; // removed with an earlier target's subtree
                }
                let new = work
                    .replace_with_subtree(n, &frag, frag.root())
                    .expect("non-root target checked above");
                outcome.dirty.push(new);
                outcome.touched += 1;
                changed = true;
            }
        }
        UpdateOp::Delete { target } => {
            let nodes = resolve(work, target)?;
            for &n in &nodes {
                check_subtree_writable(work, n, &granted)?;
                if work.parent(n).is_none() {
                    return Err(UpdateError::WrongNodeKind("the document element".into()));
                }
            }
            for n in nodes {
                if !work.contains(n) {
                    continue; // nested inside an earlier target's subtree
                }
                let parent = work.parent(n).expect("non-root checked above");
                work.remove_subtree(n);
                outcome.dirty.push(parent);
                outcome.touched += 1;
                changed = true;
            }
        }
    }
    Ok(changed)
}

/// Refuses an op that adds up to `bytes` of text and `nodes` nodes at
/// each of `targets` nodes when that could outgrow the document's `u32`
/// buffer offsets, before anything is applied.
fn ensure_room(
    work: &Document,
    targets: usize,
    bytes: usize,
    nodes: usize,
) -> Result<(), UpdateError> {
    work.ensure_room(targets.saturating_mul(bytes), targets.saturating_mul(nodes))
        .map_err(|e| UpdateError::TooLarge(e.to_string()))
}

fn check_insert_parent(
    work: &Document,
    n: NodeId,
    granted: &impl Fn(NodeId) -> bool,
) -> Result<(), UpdateError> {
    if !work.is_element(n) {
        return Err(UpdateError::WrongNodeKind(xmlsec_xpath::describe_node(work, n)));
    }
    if !granted(n) {
        return Err(UpdateError::NotAuthorized(xmlsec_xpath::describe_node(work, n)));
    }
    Ok(())
}

/// Strict deletion rule: every element and attribute of the subtree must
/// carry a positive write label.
fn check_subtree_writable(
    work: &Document,
    n: NodeId,
    granted: &impl Fn(NodeId) -> bool,
) -> Result<(), UpdateError> {
    let mut stack = vec![n];
    while let Some(m) = stack.pop() {
        if (work.is_element(m) || work.is_attribute(m)) && !granted(m) {
            return Err(UpdateError::NotAuthorized(xmlsec_xpath::describe_node(work, m)));
        }
        for &a in work.attributes(m) {
            stack.push(a);
        }
        for &c in work.children(m) {
            if work.is_element(c) {
                stack.push(c);
            }
        }
    }
    Ok(())
}

fn parse_fragment(xml: &str) -> Result<Document, UpdateError> {
    xmlsec_xml::parse(xml).map_err(|e| UpdateError::BadFragment(e.to_string()))
}

fn resolve(doc: &Document, path: &str) -> Result<Vec<NodeId>, UpdateError> {
    let p = parse_path(path)?;
    let nodes = select(doc, &p);
    if nodes.is_empty() {
        return Err(UpdateError::NoSuchNode(path.to_string()));
    }
    Ok(nodes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmlsec_authz::{AuthType, ObjectSpec, Sign};
    use xmlsec_subjects::Subject;
    use xmlsec_xml::cancel::CancelToken;
    use xmlsec_xml::{parse, serialize, SerializeOptions};
    use xmlsec_xpath::EvalLimits;

    const DOC: &str = r#"<doc><notes author="kim">old</notes><locked>keep</locked></doc>"#;

    fn write_auth(path: &str, sign: Sign) -> Authorization {
        Authorization::new(
            Subject::new("kim", "*", "*").unwrap(),
            ObjectSpec::with_path("d.xml", path).unwrap(),
            sign,
            AuthType::Recursive,
        )
        .with_action(Action::Write)
    }

    fn apply(
        doc: &mut Document,
        auths: &[Authorization],
        ops: &[UpdateOp],
    ) -> Result<UpdateOutcome, UpdateError> {
        apply_with_opts(doc, auths, ops, EngineOptions::sequential(EvalLimits::unlimited()))
    }

    fn apply_with_opts(
        doc: &mut Document,
        auths: &[Authorization],
        ops: &[UpdateOp],
        opts: EngineOptions<'_>,
    ) -> Result<UpdateOutcome, UpdateError> {
        let dir = Directory::new();
        let refs: Vec<&Authorization> = auths.iter().collect();
        let ctx = WriteContext {
            axml: &refs,
            adtd: &[],
            dir: &dir,
            policy: PolicyConfig::paper_default(),
            opts,
        };
        apply_updates(doc, ops, &ctx)
    }

    fn canon(doc: &Document) -> String {
        serialize(doc, &SerializeOptions::canonical())
    }

    #[test]
    fn a_failing_batch_leaves_the_document_unchanged_on_both_public_paths() {
        // The first op applies to the working copy before the second
        // fails; neither public function may let that first op through.
        let ops = [
            UpdateOp::SetText { target: "/doc/notes".into(), text: "new".into() },
            UpdateOp::SetText { target: "/doc/missing".into(), text: "x".into() },
        ];
        let pristine = canon(&parse(DOC).unwrap());
        let mut doc = parse(DOC).unwrap();
        let auths = [write_auth("/doc", Sign::Plus)];
        assert!(matches!(apply(&mut doc, &auths, &ops), Err(UpdateError::NoSuchNode(_))));
        assert_eq!(canon(&doc), pristine);
        assert!(matches!(
            apply_updates_preauthorized(&mut doc, &ops, None),
            Err(UpdateError::NoSuchNode(_))
        ));
        assert_eq!(canon(&doc), pristine);
        // The in-place core did apply the first op to the copy it was given.
        let mut work = parse(DOC).unwrap();
        assert!(apply_updates_in_place(&mut work, &ops, None, None).is_err());
        assert!(canon(&work).contains(">new</notes>"), "{}", canon(&work));
    }

    #[test]
    fn set_text_with_grant() {
        let mut doc = parse(DOC).unwrap();
        let auths = [write_auth("/doc/notes", Sign::Plus)];
        let out = apply(
            &mut doc,
            &auths,
            &[UpdateOp::SetText { target: "/doc/notes".into(), text: "new".into() }],
        )
        .unwrap();
        assert_eq!(out.touched, 1);
        assert_eq!(out.dirty.len(), 1);
        assert!(doc.contains(out.dirty[0]));
        assert!(canon(&doc).contains("<notes author=\"kim\">new</notes>"), "{}", canon(&doc));
    }

    #[test]
    fn set_text_without_grant_denied() {
        let mut doc = parse(DOC).unwrap();
        let auths = [write_auth("/doc/notes", Sign::Plus)];
        let e = apply(
            &mut doc,
            &auths,
            &[UpdateOp::SetText { target: "/doc/locked".into(), text: "hack".into() }],
        )
        .unwrap_err();
        assert!(matches!(e, UpdateError::NotAuthorized(_)));
        // untouched
        assert!(canon(&doc).contains("keep"));
    }

    #[test]
    fn read_grants_do_not_authorize_writes() {
        let mut doc = parse(DOC).unwrap();
        // Same path, but a *read* authorization.
        let read_only = [Authorization::new(
            Subject::new("kim", "*", "*").unwrap(),
            ObjectSpec::with_path("d.xml", "/doc/notes").unwrap(),
            Sign::Plus,
            AuthType::Recursive,
        )];
        let e = apply(
            &mut doc,
            &read_only,
            &[UpdateOp::SetText { target: "/doc/notes".into(), text: "x".into() }],
        )
        .unwrap_err();
        assert!(matches!(e, UpdateError::NotAuthorized(_)));
    }

    #[test]
    fn attribute_update_uses_attribute_label() {
        let mut doc = parse(DOC).unwrap();
        // Grant on the element: local write also covers its attributes.
        let auths =
            [write_auth("/doc/notes", Sign::Plus), write_auth("/doc/notes/@author", Sign::Minus)];
        // @author explicitly denied
        let e = apply(
            &mut doc,
            &auths,
            &[UpdateOp::SetAttribute {
                target: "/doc/notes".into(),
                name: "author".into(),
                value: "eve".into(),
            }],
        )
        .unwrap_err();
        assert!(matches!(e, UpdateError::NotAuthorized(_)));
        // a *new* attribute falls back to the element's grant
        apply(
            &mut doc,
            &auths,
            &[UpdateOp::SetAttribute {
                target: "/doc/notes".into(),
                name: "reviewed".into(),
                value: "yes".into(),
            }],
        )
        .unwrap();
        assert_eq!(
            doc.attribute(doc.child_elements(doc.root()).next().unwrap(), "reviewed"),
            Some("yes")
        );
    }

    #[test]
    fn insert_requires_parent_grant() {
        let mut doc = parse(DOC).unwrap();
        let auths = [write_auth("/doc/notes", Sign::Plus)];
        apply(
            &mut doc,
            &auths,
            &[UpdateOp::InsertElement { parent: "/doc/notes".into(), name: "draft".into() }],
        )
        .unwrap();
        assert!(canon(&doc).contains("<draft/>"));
        let e = apply(
            &mut doc,
            &auths,
            &[UpdateOp::InsertElement { parent: "/doc".into(), name: "evil".into() }],
        )
        .unwrap_err();
        assert!(matches!(e, UpdateError::NotAuthorized(_)));
    }

    #[test]
    fn delete_requires_whole_subtree_writable() {
        let mut doc = parse(r#"<doc><folder><a>1</a><b locked="x">2</b></folder></doc>"#).unwrap();
        // folder and <a> writable; <b> carved out.
        let auths =
            [write_auth("/doc/folder", Sign::Plus), write_auth("/doc/folder/b", Sign::Minus)];
        let e = apply(&mut doc, &auths, &[UpdateOp::Delete { target: "/doc/folder".into() }])
            .unwrap_err();
        assert!(matches!(e, UpdateError::NotAuthorized(_)));
        // Deleting just <a> is fine.
        apply(&mut doc, &auths, &[UpdateOp::Delete { target: "/doc/folder/a".into() }]).unwrap();
        let out = canon(&doc);
        assert!(!out.contains("<a>"), "{out}");
        assert!(out.contains("<b"), "{out}");
    }

    #[test]
    fn delete_frees_arena_slots() {
        let mut doc = parse(r#"<doc><folder><a>1</a></folder></doc>"#).unwrap();
        let auths = [write_auth("/doc/folder", Sign::Plus)];
        assert_eq!(doc.free_len(), 0);
        apply(&mut doc, &auths, &[UpdateOp::Delete { target: "/doc/folder/a".into() }]).unwrap();
        // <a> and its text child were freed, not just detached.
        assert_eq!(doc.free_len(), 2);
    }

    #[test]
    fn batch_is_atomic() {
        let mut doc = parse(DOC).unwrap();
        let auths = [write_auth("/doc/notes", Sign::Plus)];
        let before = canon(&doc);
        let e = apply(
            &mut doc,
            &auths,
            &[
                UpdateOp::SetText { target: "/doc/notes".into(), text: "new".into() },
                UpdateOp::SetText { target: "/doc/locked".into(), text: "hack".into() },
            ],
        )
        .unwrap_err();
        assert!(matches!(e, UpdateError::NotAuthorized(_)));
        assert_eq!(canon(&doc), before);
    }

    #[test]
    fn missing_target_and_bad_path() {
        let mut doc = parse(DOC).unwrap();
        assert!(matches!(
            apply(&mut doc, &[], &[UpdateOp::Delete { target: "/doc/ghost".into() }]),
            Err(UpdateError::NoSuchNode(_))
        ));
        assert!(matches!(
            apply(&mut doc, &[], &[UpdateOp::Delete { target: "///".into() }]),
            Err(UpdateError::BadPath(_))
        ));
    }

    #[test]
    fn cannot_delete_document_element() {
        let mut doc = parse(DOC).unwrap();
        let auths = [write_auth("/doc", Sign::Plus)];
        let e = apply(&mut doc, &auths, &[UpdateOp::Delete { target: "/doc".into() }]).unwrap_err();
        assert!(matches!(e, UpdateError::WrongNodeKind(_)));
    }

    // ---- intra-batch ordering (labels must track the evolving doc) ----

    #[test]
    fn insert_then_set_text_on_inserted_node() {
        // The second op targets a node the first op creates: it must be
        // authorized against labels that account for the insertion (the
        // recursive grant on /doc/notes propagates to the new child).
        let mut doc = parse(DOC).unwrap();
        let auths = [write_auth("/doc/notes", Sign::Plus)];
        let out = apply(
            &mut doc,
            &auths,
            &[
                UpdateOp::InsertElement { parent: "/doc/notes".into(), name: "draft".into() },
                UpdateOp::SetText { target: "/doc/notes/draft".into(), text: "hi".into() },
            ],
        )
        .unwrap();
        assert_eq!(out.touched, 2);
        assert!(canon(&doc).contains("<draft>hi</draft>"), "{}", canon(&doc));
    }

    #[test]
    fn intra_batch_relabel_respects_denials() {
        // The carve-out on the (future) child must bind the moment the
        // child exists: insert succeeds, the dependent SetText is denied,
        // and atomicity rolls the whole batch back.
        let mut doc = parse(DOC).unwrap();
        let auths =
            [write_auth("/doc/notes", Sign::Plus), write_auth("/doc/notes/draft", Sign::Minus)];
        let before = canon(&doc);
        let e = apply(
            &mut doc,
            &auths,
            &[
                UpdateOp::InsertElement { parent: "/doc/notes".into(), name: "draft".into() },
                UpdateOp::SetText { target: "/doc/notes/draft".into(), text: "hi".into() },
            ],
        )
        .unwrap_err();
        assert!(matches!(e, UpdateError::NotAuthorized(_)));
        assert_eq!(canon(&doc), before);
    }

    #[test]
    fn delete_then_reinsert_same_path() {
        // Sequential semantics: op 2 resolves against the doc op 1 left.
        let mut doc = parse(DOC).unwrap();
        let auths = [write_auth("/doc", Sign::Plus)];
        let out = apply(
            &mut doc,
            &auths,
            &[
                UpdateOp::Delete { target: "/doc/locked".into() },
                UpdateOp::InsertElement { parent: "/doc".into(), name: "locked".into() },
                UpdateOp::SetText { target: "/doc/locked".into(), text: "fresh".into() },
            ],
        )
        .unwrap();
        assert_eq!(out.touched, 3);
        assert!(canon(&doc).contains("<locked>fresh</locked>"), "{}", canon(&doc));
    }

    // ---- subtree ops ----

    #[test]
    fn insert_subtree_imports_fragment() {
        let mut doc = parse(DOC).unwrap();
        let auths = [write_auth("/doc/notes", Sign::Plus)];
        let out = apply(
            &mut doc,
            &auths,
            &[UpdateOp::InsertSubtree {
                parent: "/doc/notes".into(),
                xml: r#"<draft status="new">text</draft>"#.into(),
            }],
        )
        .unwrap();
        assert_eq!(out.touched, 1);
        assert!(doc.is_element(out.dirty[0]));
        assert!(canon(&doc).contains(r#"<draft status="new">text</draft>"#), "{}", canon(&doc));
    }

    #[test]
    fn insert_subtree_rejects_bad_fragment() {
        let mut doc = parse(DOC).unwrap();
        let auths = [write_auth("/doc/notes", Sign::Plus)];
        let before = canon(&doc);
        let e = apply(
            &mut doc,
            &auths,
            &[UpdateOp::InsertSubtree { parent: "/doc/notes".into(), xml: "<a><b".into() }],
        )
        .unwrap_err();
        assert!(matches!(e, UpdateError::BadFragment(_)));
        assert_eq!(canon(&doc), before);
    }

    #[test]
    fn replace_subtree_preserves_position() {
        let mut doc = parse(r#"<doc><folder><a>1</a><b>2</b></folder></doc>"#).unwrap();
        let auths = [write_auth("/doc/folder", Sign::Plus)];
        let out = apply(
            &mut doc,
            &auths,
            &[UpdateOp::ReplaceSubtree {
                target: "/doc/folder/a".into(),
                xml: "<a2>new</a2>".into(),
            }],
        )
        .unwrap();
        assert_eq!(out.touched, 1);
        // Spliced into <a>'s former slot, before <b>.
        assert!(canon(&doc).contains("<folder><a2>new</a2><b>2</b></folder>"), "{}", canon(&doc));
    }

    #[test]
    fn replace_subtree_requires_old_subtree_writable() {
        let mut doc = parse(r#"<doc><folder><a>1</a><b locked="x">2</b></folder></doc>"#).unwrap();
        let auths =
            [write_auth("/doc/folder", Sign::Plus), write_auth("/doc/folder/b", Sign::Minus)];
        let before = canon(&doc);
        let e = apply(
            &mut doc,
            &auths,
            &[UpdateOp::ReplaceSubtree { target: "/doc/folder/b".into(), xml: "<b/>".into() }],
        )
        .unwrap_err();
        assert!(matches!(e, UpdateError::NotAuthorized(_)));
        assert_eq!(canon(&doc), before);
    }

    #[test]
    fn cannot_replace_document_element() {
        let mut doc = parse(DOC).unwrap();
        let auths = [write_auth("/doc", Sign::Plus)];
        let e = apply(
            &mut doc,
            &auths,
            &[UpdateOp::ReplaceSubtree { target: "/doc".into(), xml: "<doc2/>".into() }],
        )
        .unwrap_err();
        assert!(matches!(e, UpdateError::WrongNodeKind(_)));
    }

    // ---- cancellation and limits (PR 7 contract) ----

    #[test]
    fn precancelled_token_stops_before_any_work() {
        let mut doc = parse(DOC).unwrap();
        let auths = [write_auth("/doc/notes", Sign::Plus)];
        let token = CancelToken::never();
        token.cancel();
        let before = canon(&doc);
        let e = apply_with_opts(
            &mut doc,
            &auths,
            &[UpdateOp::SetText { target: "/doc/notes".into(), text: "new".into() }],
            EngineOptions::sequential(EvalLimits::unlimited()).with_cancel(&token),
        )
        .unwrap_err();
        assert!(matches!(e, UpdateError::Cancelled(CancelReason::Explicit)));
        assert_eq!(canon(&doc), before);
    }

    #[test]
    fn write_labeling_polls_the_token() {
        // The token must be threaded all the way into the labeling
        // engine, not just checked at op boundaries: a token that trips
        // at the very first evaluator poll cancels the labeling itself.
        let doc = parse(DOC).unwrap();
        let auths = [write_auth("/doc/notes", Sign::Plus)];
        let refs: Vec<&Authorization> = auths.iter().collect();
        let token = CancelToken::cancel_after_polls(0);
        let e = label_for_write_engine(
            &doc,
            &refs,
            &[],
            &Directory::new(),
            PolicyConfig::paper_default(),
            &EngineOptions::sequential(EvalLimits::default_limits()).with_cancel(&token),
        )
        .unwrap_err();
        assert!(matches!(e, EvalError::Cancelled(CancelReason::Explicit)));
    }

    #[test]
    fn cancelled_batch_leaves_document_untouched() {
        // Sweep the deterministic trip point across the whole batch: no
        // matter where cancellation lands — before the batch, inside the
        // first labeling, between ops, inside a mid-batch relabel — an
        // interrupted batch never leaks partial writes into the caller's
        // document.
        let ops = [
            UpdateOp::SetText { target: "/doc/notes".into(), text: "one".into() },
            UpdateOp::InsertElement { parent: "/doc/notes".into(), name: "draft".into() },
            UpdateOp::SetText { target: "/doc/notes/draft".into(), text: "two".into() },
        ];
        let auths = [write_auth("/doc/notes", Sign::Plus)];
        let pristine = canon(&parse(DOC).unwrap());
        let mut cancelled_runs = 0u32;
        let mut completed_runs = 0u32;
        for k in 0..400 {
            let mut doc = parse(DOC).unwrap();
            let token = CancelToken::cancel_after_polls(k);
            let opts = EngineOptions::sequential(EvalLimits::default_limits()).with_cancel(&token);
            match apply_with_opts(&mut doc, &auths, &ops, opts) {
                Ok(out) => {
                    assert_eq!(out.touched, 3);
                    assert!(canon(&doc).contains("<draft>two</draft>"));
                    completed_runs += 1;
                }
                Err(UpdateError::Cancelled(CancelReason::Explicit)) => {
                    assert_eq!(canon(&doc), pristine, "partial write leaked at poll {k}");
                    cancelled_runs += 1;
                }
                Err(e) => panic!("unexpected error at poll {k}: {e}"),
            }
        }
        assert!(cancelled_runs > 0, "the sweep never hit a cancellation point");
        assert!(completed_runs > 0, "the sweep never let the batch finish");
    }

    #[test]
    fn exhausted_budget_is_typed_and_atomic() {
        let mut doc = parse(DOC).unwrap();
        let auths = [write_auth("/doc/notes", Sign::Plus)];
        let before = canon(&doc);
        let e = apply_with_opts(
            &mut doc,
            &auths,
            &[UpdateOp::SetText { target: "/doc/notes".into(), text: "new".into() }],
            EngineOptions::sequential(EvalLimits { max_node_visits: 1, max_eval_depth: 64 }),
        )
        .unwrap_err();
        assert!(matches!(e, UpdateError::Engine(EvalError::NodeBudget { .. })), "{e}");
        assert_eq!(canon(&doc), before);
    }
}
