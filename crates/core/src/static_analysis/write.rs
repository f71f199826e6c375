//! Static write-effect analysis: the abstract interpreter of the parent
//! module applied to the **update language** of [`crate::update`].
//!
//! Reads and writes share the labeling stack but not the grant rule: an
//! update op commits only on nodes whose final write sign is `+`
//! (completeness `ε`-openness never applies to writes), so verdicts here
//! are derived strictly — **guaranteed-writable** iff every possible
//! final sign is `+`, **guaranteed-denied** iff `+` is impossible,
//! **instance-dependent** otherwise.
//!
//! From the per-node cells, [`WriteTable`] derives one verdict per
//! `UpdateOp` *kind* at each schema node (set-text, set-attribute,
//! insert, delete, replace) by folding the op's dynamic check set —
//! e.g. a delete is guaranteed-writable only when the whole schema
//! subtree closure is, because `apply_updates` walks the concrete
//! subtree checking every element and attribute.
//!
//! [`classify_batch`] lifts this to whole op batches for the serving
//! tier's `POST /update` pre-flight. Soundness of a batch verdict rests
//! on two invariants of the document the batch will run against:
//! every element is declared with parent→child pairs that are schema
//! edges, and every attribute is declared — both implied by DTD
//! validity, which the server checks before trusting a verdict (the
//! [`WriteTable::blanket_allow`] short-circuit is the one verdict that
//! holds on *any* tree). A guaranteed-deny means the batch can never
//! commit; a guaranteed-allow means every authorization check passes, so
//! running the batch without write-labeling
//! ([`crate::update::apply_updates_preauthorized`]) behaves
//! byte-identically to the dynamic path.
//!
//! [`analyze_policy_writes`] is the whole-policy surface
//! (`xmlsec-cli analyze --writes`): per-subject write decision tables
//! plus findings — `write-only-region` (blind writes: writable but
//! unreadable), `unwritable-document` (no analyzed subject can ever
//! commit), `patch-amplification` (writes under a recursive element
//! statically force ancestor-chain relabels of every warm view).

use std::collections::{BTreeMap, BTreeSet};

use xmlsec_authz::{Action, AuthType, Authorization, Finding, PolicyConfig, Severity, Sign};
use xmlsec_dtd::Dtd;
use xmlsec_subjects::{Directory, Subject};

use super::absdom::SignSet;
use super::select::select;
use super::{applied_raw, cell_reason, verdict_of, AuthInfo, Verdict};
use crate::analysis::{SchemaGraph, SchemaNode};
use crate::label::Sign3;
use crate::update::UpdateOp;

/// Write verdicts for each update-op kind at one element declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteOps {
    /// `settext` targeting this element.
    pub set_text: Verdict,
    /// `insert`/`insertsub` with this element as the parent.
    pub insert: Verdict,
    /// `delete` targeting this element (folds the subtree closure).
    pub delete: Verdict,
    /// `replacesub` targeting this element (subtree closure + parents).
    pub replace: Verdict,
}

/// The write cell of one element declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteElementCell {
    /// Possible final write signs of nodes of this declaration.
    pub signs: SignSet,
    /// Node-level verdict: is a node of this declaration writable?
    pub node: Verdict,
    /// Per-op-kind verdicts derived from the node cells.
    pub ops: WriteOps,
}

/// The write cell of one attribute declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteAttributeCell {
    /// Possible final write signs of attributes of this declaration.
    pub signs: SignSet,
    /// Node-level verdict for the attribute itself.
    pub node: Verdict,
    /// `setattr` verdict: folds the attribute cell with its element's
    /// (the dynamic check authorizes the attribute node when present,
    /// else the element).
    pub set_attribute: Verdict,
}

/// The compiled write-effect table of one applicable authorization set.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WriteTable {
    /// Root element the schema graph was rooted at.
    pub root: String,
    /// One cell per reachable element declaration.
    pub elements: BTreeMap<String, WriteElementCell>,
    /// One cell per declared attribute of a reachable element, keyed
    /// `(element, attribute)`.
    pub attributes: BTreeMap<(String, String), WriteAttributeCell>,
    /// Every final write sign is `+` everywhere **and** a non-weak
    /// recursive whole-document authorization anchors the propagation:
    /// every batch is guaranteed-allow on any tree, valid or not.
    pub blanket_allow: bool,
    /// Every cell is guaranteed-denied: no batch by this requester can
    /// ever commit on a conforming document.
    pub unwritable: bool,
}

/// The pre-flight classification of one op batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchVerdict {
    /// Op `op` (0-based) is guaranteed to fail on every conforming
    /// instance — the batch can never commit. Reject without labeling.
    Deny {
        /// Index of the guaranteed-failing op.
        op: usize,
        /// Why the op is guaranteed to fail.
        reason: String,
    },
    /// Every authorization check of every op is guaranteed to pass:
    /// the batch may run without write-labeling, byte-identically.
    Allow,
    /// Neither guarantee holds; run the dynamic path.
    Dynamic,
}

impl BatchVerdict {
    /// Stable identifier used in telemetry labels.
    pub fn code(&self) -> &'static str {
        match self {
            BatchVerdict::Deny { .. } => "deny",
            BatchVerdict::Allow => "allow",
            BatchVerdict::Dynamic => "dynamic",
        }
    }
}

/// Strict write grant rule: a node is writable iff its final sign is
/// `+` — the completeness policy's `ε`-openness applies to reads only
/// (mirrors `apply_updates`' `final_sign(n) == Plus` check).
fn write_verdict(signs: SignSet, reason: impl FnOnce() -> String) -> Verdict {
    if signs == SignSet::singleton(Sign3::Plus) {
        Verdict::Allow
    } else if !signs.contains(Sign3::Plus) {
        Verdict::Deny
    } else {
        Verdict::Instance { reason: reason() }
    }
}

/// Builds the write-effect table for one applicable authorization set
/// (the same `(auth, is_schema_level)` pairs [`super::analyze_applicable`]
/// takes; non-`write` authorizations are filtered out here). Returns an
/// empty table when `root_element` is not declared.
pub(crate) fn write_table(
    dtd: &Dtd,
    root_element: &str,
    auths: &[(&Authorization, bool)],
    dir: &Directory,
    policy: PolicyConfig,
) -> WriteTable {
    let mut out = WriteTable { root: root_element.to_string(), ..WriteTable::default() };
    let Some(g) = SchemaGraph::new(dtd, root_element) else {
        return out;
    };
    let reachable = g.reachable();

    let writes: Vec<(&Authorization, bool)> =
        auths.iter().copied().filter(|(a, _)| a.action == Action::Write).collect();
    let infos: Vec<AuthInfo<'_>> = writes
        .iter()
        .enumerate()
        .map(|(idx, &(auth, schema))| AuthInfo::new(&g, idx, auth, schema))
        .collect();
    let raw = applied_raw(&g, &reachable, infos.iter().collect(), dir, policy);

    // Node-level verdicts first; op-level folds read them back.
    let node_verdict = |node: &SchemaNode| {
        let signs = raw.table[node];
        (signs, write_verdict(signs, || cell_reason(&g, &infos, None, dir, node)))
    };
    let mut el_nodes: BTreeMap<&str, Verdict> = BTreeMap::new();
    let mut at_nodes: BTreeMap<(&str, &str), Verdict> = BTreeMap::new();
    for &e in &reachable {
        el_nodes.insert(e, node_verdict(&SchemaNode::Element(e.to_string())).1);
        for def in dtd.attributes(e) {
            let node =
                SchemaNode::Attribute { element: e.to_string(), attribute: def.name.clone() };
            at_nodes.insert((e, def.name.as_str()), node_verdict(&node).1);
        }
    }

    // Greatest fixpoint: `closure_ok[e]` ⇔ every element of the schema
    // subtree closure {e} ∪ descendants(e) is guaranteed-writable along
    // with all its declared attributes — the precondition for a delete's
    // `check_subtree_writable` walk to be guaranteed to pass.
    let mut closure_ok: BTreeMap<&str, bool> = reachable
        .iter()
        .map(|&e| {
            let own = el_nodes[e] == Verdict::Allow
                && dtd
                    .attributes(e)
                    .iter()
                    .all(|d| at_nodes[&(e, d.name.as_str())] == Verdict::Allow);
            (e, own)
        })
        .collect();
    loop {
        let mut changed = false;
        for &e in &reachable {
            if closure_ok[e] && g.kids(e).any(|k| !closure_ok.get(k).copied().unwrap_or(false)) {
                closure_ok.insert(e, false);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    for &e in &reachable {
        let node = SchemaNode::Element(e.to_string());
        let (signs, nv) = node_verdict(&node);
        // Only the document element itself cannot be deleted or
        // replaced. When the root type can nest, its other nodes can:
        // their verdicts follow the usual checks, and a selected document
        // element fails with the same kind error on both paths.
        let only_the_root = e == g.root && g.pars(e).next().is_none();
        let delete = if only_the_root {
            Verdict::Deny // the document element cannot be deleted
        } else if closure_ok[e] {
            Verdict::Allow
        } else if nv == Verdict::Deny {
            Verdict::Deny // the walk hits the denied target itself first
        } else {
            Verdict::Instance {
                reason: "the subtree closure contains cells that are not guaranteed-writable"
                    .to_string(),
            }
        };
        let replace = if only_the_root {
            Verdict::Deny // the document element cannot be replaced
        } else if closure_ok[e]
            && g.pars(e).all(|p| {
                // A declared-but-unreachable parent never occurs in a
                // conforming instance: vacuously writable.
                el_nodes.get(p).map_or(true, |v| *v == Verdict::Allow)
            })
        {
            Verdict::Allow
        } else if nv == Verdict::Deny {
            Verdict::Deny
        } else {
            Verdict::Instance {
                reason: "the subtree closure or a possible parent is not guaranteed-writable"
                    .to_string(),
            }
        };
        out.elements.insert(
            e.to_string(),
            WriteElementCell {
                signs,
                node: nv.clone(),
                ops: WriteOps { set_text: nv.clone(), insert: nv, delete, replace },
            },
        );
        for def in dtd.attributes(e) {
            let anode =
                SchemaNode::Attribute { element: e.to_string(), attribute: def.name.clone() };
            let (asigns, av) = node_verdict(&anode);
            let ev = &el_nodes[e];
            let set_attribute = match (&av, ev) {
                (Verdict::Allow, Verdict::Allow) => Verdict::Allow,
                (Verdict::Deny, Verdict::Deny) => Verdict::Deny,
                _ => Verdict::Instance {
                    reason: format!(
                        "the check point depends on whether the attribute exists (attribute cell {}, element cell {})",
                        av.code(),
                        ev.code()
                    ),
                },
            };
            out.attributes.insert(
                (e.to_string(), def.name.clone()),
                WriteAttributeCell { signs: asigns, node: av, set_attribute },
            );
        }
    }

    // Blanket allow: every possible sign everywhere is `+`, and a
    // non-weak recursive whole-document (no-path) write authorization
    // anchors it — on *any* tree, valid or not, the root gets `+` and
    // recursion carries it to every node, and no applicable write
    // authorization can introduce another sign.
    let all_plus = !out.elements.is_empty()
        && out
            .elements
            .values()
            .map(|c| c.signs)
            .chain(out.attributes.values().map(|c| c.signs))
            .all(|s| s == SignSet::singleton(Sign3::Plus));
    out.blanket_allow = all_plus
        && writes.iter().any(|(a, _)| {
            a.object.path.is_none() && a.ty == AuthType::Recursive && a.sign == Sign::Plus
        });
    out.unwritable = !out.elements.is_empty()
        && out.elements.values().all(|c| c.node == Verdict::Deny)
        && out.attributes.values().all(|c| c.node == Verdict::Deny);
    out
}

/// Folds may-selected cell verdicts into an op verdict.
struct Fold {
    any: bool,
    all_allow: bool,
    all_deny: bool,
    deny_at: Option<String>,
}

impl Fold {
    fn new() -> Self {
        Fold { any: false, all_allow: true, all_deny: true, deny_at: None }
    }

    fn add(&mut self, at: &str, v: &Verdict) {
        self.any = true;
        match v {
            Verdict::Allow => self.all_deny = false,
            Verdict::Deny => {
                self.all_allow = false;
                if self.deny_at.is_none() {
                    self.deny_at = Some(at.to_string());
                }
            }
            Verdict::Instance { .. } => {
                self.all_allow = false;
                self.all_deny = false;
            }
        }
    }
}

/// One op's contribution to the batch scan.
enum OpV {
    Allow,
    Deny(String),
    Unknown,
}

/// Classifies an op batch against a compiled write table in O(ops ×
/// schema). **Soundness contract:** except for the
/// [`WriteTable::blanket_allow`] short-circuit, verdicts assume the
/// target document is valid against `dtd` (the caller checks) — validity
/// is what confines instance nodes to the schema cells the table
/// abstracts. Ops that can de-conform the tree (subtree insert/replace,
/// undeclared attributes) end the guaranteed scan at the following op.
pub fn classify_batch(dtd: &Dtd, table: &WriteTable, ops: &[UpdateOp]) -> BatchVerdict {
    if table.blanket_allow {
        return BatchVerdict::Allow;
    }
    if ops.is_empty() || table.elements.is_empty() {
        return BatchVerdict::Dynamic;
    }
    let Some(g) = SchemaGraph::new(dtd, &table.root) else {
        return BatchVerdict::Dynamic;
    };

    // Conformance flag: while true, the document the op runs against is
    // known to satisfy the two invariants the cells assume (declared
    // elements on schema edges, declared attributes) whenever the
    // preceding ops succeeded. An earlier op failing also aborts the
    // batch, so a later guaranteed-deny stays sound either way.
    let mut conformant = true;
    let mut all_allow = true;
    for (i, op) in ops.iter().enumerate() {
        if !conformant {
            return BatchVerdict::Dynamic;
        }
        let (v, keeps) = op_verdict(&g, dtd, table, op);
        match v {
            OpV::Deny(reason) => return BatchVerdict::Deny { op: i, reason },
            OpV::Allow => {}
            OpV::Unknown => all_allow = false,
        }
        conformant = keeps;
    }
    if all_allow {
        BatchVerdict::Allow
    } else {
        BatchVerdict::Dynamic
    }
}

/// Classifies one op. Returns the verdict and whether a *successful*
/// run of the op is guaranteed to preserve the conformance invariants.
fn op_verdict(g: &SchemaGraph<'_>, dtd: &Dtd, table: &WriteTable, op: &UpdateOp) -> (OpV, bool) {
    let path = match op {
        UpdateOp::SetText { target, .. }
        | UpdateOp::SetAttribute { target, .. }
        | UpdateOp::ReplaceSubtree { target, .. }
        | UpdateOp::Delete { target } => target,
        UpdateOp::InsertElement { parent, .. } | UpdateOp::InsertSubtree { parent, .. } => parent,
    };
    let parsed = match xmlsec_xpath::parse_path(path) {
        Ok(p) => p,
        Err(e) => return (OpV::Deny(format!("bad path {path:?}: {e}")), true),
    };
    let sel = select(g, Some(&parsed));
    if sel.is_dead() {
        // No conforming instance has such a node: guaranteed NoSuchNode.
        return (
            OpV::Deny(format!(
                "path {path:?} selects no node of any document valid against the DTD"
            )),
            true,
        );
    }

    // Fold the may-selected cells relevant to this op kind. Targets of
    // the wrong node kind (e.g. an attribute under `settext`) fail with
    // the same label-independent error on both paths, so they count
    // toward deny (guaranteed error) and are vacuous for allow.
    let mut fold = Fold::new();
    let may_els = || sel.elements.keys();
    let may_attrs = || sel.attributes.keys();
    let cell = |e: &String| table.elements.get(e);
    let (v, keeps) = match op {
        UpdateOp::SetText { .. } => {
            for e in may_els() {
                if let Some(c) = cell(e) {
                    fold.add(e, &c.ops.set_text);
                }
            }
            let wrong_kind_only = !fold.any && may_attrs().next().is_some();
            (finish(fold, wrong_kind_only), true)
        }
        UpdateOp::SetAttribute { name, .. } => {
            let mut keeps = true;
            for e in may_els() {
                let declared = dtd.attributes(e).iter().any(|d| &d.name == name);
                if !declared {
                    // A successful set creates an undeclared attribute;
                    // the check point is the element (none can exist).
                    keeps = false;
                    if let Some(c) = cell(e) {
                        fold.add(e, &c.node);
                    }
                } else if let Some(c) = table.attributes.get(&(e.clone(), name.clone())) {
                    fold.add(e, &c.set_attribute);
                }
            }
            let wrong_kind_only = !fold.any && may_attrs().next().is_some();
            (finish(fold, wrong_kind_only), keeps)
        }
        UpdateOp::InsertElement { name, .. } => {
            let mut keeps = true;
            for e in may_els() {
                if !dtd.elements.contains_key(name) || !g.kids(e).any(|k| k == name.as_str()) {
                    keeps = false; // inserts off the schema edges
                }
                if let Some(c) = cell(e) {
                    fold.add(e, &c.ops.insert);
                }
            }
            let wrong_kind_only = !fold.any && may_attrs().next().is_some();
            (finish(fold, wrong_kind_only), keeps)
        }
        UpdateOp::InsertSubtree { .. } => {
            for e in may_els() {
                if let Some(c) = cell(e) {
                    fold.add(e, &c.ops.insert);
                }
            }
            let wrong_kind_only = !fold.any && may_attrs().next().is_some();
            (finish(fold, wrong_kind_only), false)
        }
        UpdateOp::ReplaceSubtree { .. } => {
            for e in may_els() {
                if let Some(c) = cell(e) {
                    fold.add(e, &c.ops.replace);
                }
            }
            let wrong_kind_only = !fold.any && may_attrs().next().is_some();
            (finish(fold, wrong_kind_only), false)
        }
        UpdateOp::Delete { .. } => {
            for e in may_els() {
                if let Some(c) = cell(e) {
                    fold.add(e, &c.ops.delete);
                }
            }
            for (e, a) in may_attrs() {
                if let Some(c) = table.attributes.get(&(e.clone(), a.clone())) {
                    fold.add(&format!("{e}/@{a}"), &c.node);
                }
            }
            (finish(fold, false), true)
        }
    };
    (v, keeps)
}

/// Turns a fold into an op verdict. `wrong_kind_only` marks selections
/// whose every possible target fails a kind check before any grant
/// check — a guaranteed, label-independent error.
fn finish(fold: Fold, wrong_kind_only: bool) -> OpV {
    if !fold.any {
        if wrong_kind_only {
            return OpV::Deny("every possible target has the wrong node kind for this op".into());
        }
        // Selection touches cells outside the table (unreachable
        // declarations): no conforming instance has them.
        return OpV::Deny("the path selects no reachable declaration".into());
    }
    if fold.all_deny {
        let at = fold.deny_at.unwrap_or_default();
        OpV::Deny(format!(
            "every node the path can select is guaranteed write-denied (e.g. at <{at}>)"
        ))
    } else if fold.all_allow {
        OpV::Allow
    } else {
        OpV::Unknown
    }
}

/// One cell of a subject's write decision table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteCell {
    /// The schema node the cell decides.
    pub node: SchemaNode,
    /// Possible final write signs (display form).
    pub signs: String,
    /// Node-level write verdict.
    pub write: Verdict,
    /// Per-op-kind verdicts, as `(op name, verdict)` rows.
    pub ops: Vec<(&'static str, Verdict)>,
}

/// The write decision table of one subject.
#[derive(Debug, Clone)]
pub struct SubjectWriteTable {
    /// The subject analyzed.
    pub subject: Subject,
    /// Whether every batch by this subject is guaranteed-allow.
    pub blanket_allow: bool,
    /// One cell per reachable schema node, in [`SchemaNode`] order.
    pub cells: Vec<WriteCell>,
}

/// The result of a whole-policy write-effect analysis.
#[derive(Debug, Clone)]
pub struct WriteReport {
    /// Root element the schema graph was rooted at.
    pub root: String,
    /// One write table per analyzed subject.
    pub subjects: Vec<SubjectWriteTable>,
    /// Whole-policy findings (write-only-region, unwritable-document,
    /// patch-amplification).
    pub findings: Vec<Finding>,
    /// Non-`write` authorizations excluded from the tables.
    pub skipped_non_write: usize,
}

/// Runs the whole-policy write-effect analysis: per-subject write
/// decision tables plus findings. `dtd_uri` classifies schema-level
/// authorizations exactly as [`super::analyze_policy`] does.
pub fn analyze_policy_writes(
    dtd: &Dtd,
    root_element: &str,
    dtd_uri: &str,
    auths: &[Authorization],
    dir: &Directory,
    policy: PolicyConfig,
    subjects: &[Subject],
) -> WriteReport {
    let mut report = WriteReport {
        root: root_element.to_string(),
        subjects: Vec::new(),
        findings: Vec::new(),
        skipped_non_write: auths.iter().filter(|a| a.action != Action::Write).count(),
    };
    let Some(g) = SchemaGraph::new(dtd, root_element) else {
        report.findings.push(Finding::new(
            Severity::Error,
            "unknown-root",
            format!("root element {root_element:?} is not declared in the DTD"),
        ));
        return report;
    };
    let reachable = g.reachable();

    let pairs: Vec<(&Authorization, bool)> = auths
        .iter()
        .map(|a| (a, a.object.uri == dtd_uri || a.object.uri.ends_with(".dtd")))
        .collect();

    // Read-side sign tables (for write-only-region): the parent module's
    // machinery over the read-filtered authorizations.
    let read_infos: Vec<AuthInfo<'_>> = pairs
        .iter()
        .enumerate()
        .filter(|(_, (a, _))| a.action == Action::Read)
        .map(|(idx, &(auth, schema))| AuthInfo::new(&g, idx, auth, schema))
        .collect();

    // Elements lying under (or at) a recursive declaration: a write
    // there dirties a subtree whose ancestor chain every warm view must
    // relabel, and recursion makes the amplified region unbounded.
    let cyclic: BTreeSet<&str> =
        reachable.iter().copied().filter(|&e| g.descendants(e).contains(e)).collect();

    for s in subjects {
        let applicable: Vec<(&Authorization, bool)> =
            pairs.iter().copied().filter(|(a, _)| s.leq(&a.subject, dir)).collect();
        let table = write_table(dtd, root_element, &applicable, dir, policy);

        let read_applicable: Vec<&AuthInfo<'_>> =
            read_infos.iter().filter(|i| s.leq(&i.auth.subject, dir)).collect();
        let read_raw = applied_raw(&g, &reachable, read_applicable, dir, policy);

        let mut cells: BTreeMap<SchemaNode, WriteCell> = BTreeMap::new();
        for (e, c) in &table.elements {
            let node = SchemaNode::Element(e.clone());
            cells.insert(
                node.clone(),
                WriteCell {
                    node,
                    signs: c.signs.to_string(),
                    write: c.node.clone(),
                    ops: vec![
                        ("settext", c.ops.set_text.clone()),
                        ("insert", c.ops.insert.clone()),
                        ("delete", c.ops.delete.clone()),
                        ("replace", c.ops.replace.clone()),
                    ],
                },
            );
        }
        for ((e, a), c) in &table.attributes {
            let node = SchemaNode::Attribute { element: e.clone(), attribute: a.clone() };
            cells.insert(
                node.clone(),
                WriteCell {
                    node,
                    signs: c.signs.to_string(),
                    write: c.node.clone(),
                    ops: vec![("setattr", c.set_attribute.clone()), ("delete", c.node.clone())],
                },
            );
        }

        // Finding: write-only-region — guaranteed-writable nodes the
        // subject is guaranteed *not* to read (blind writes).
        for (node, cell) in &cells {
            if cell.write != Verdict::Allow {
                continue;
            }
            let read_signs = read_raw.table[node];
            if verdict_of(policy, read_signs, String::new) == Verdict::Deny {
                report.findings.push(
                    Finding::new(
                        Severity::Warning,
                        "write-only-region",
                        "guaranteed-writable but guaranteed-unreadable: the subject can blind-write nodes it can never see in its view",
                    )
                    .with_node(node.to_string())
                    .with_subject(s.to_string()),
                );
            }
        }

        // Finding: patch-amplification — writable nodes on or under a
        // recursive declaration.
        let amplified: Vec<&str> = table
            .elements
            .iter()
            .filter(|(e, c)| {
                c.node != Verdict::Deny
                    && (cyclic.contains(e.as_str())
                        || g.ancestors(e).iter().any(|a| cyclic.contains(a)))
            })
            .map(|(e, _)| e.as_str())
            .collect();
        if let Some(&first) = amplified.first() {
            let shown: Vec<&str> = amplified.iter().copied().take(3).collect();
            report.findings.push(
                Finding::new(
                    Severity::Info,
                    "patch-amplification",
                    format!(
                        "{} writable element declaration(s) sit on or under a recursive cycle ({}): every committed write there relabels an unbounded ancestor chain in each warm cached view",
                        amplified.len(),
                        shown.join(", "),
                    ),
                )
                .with_node(SchemaNode::Element(first.to_string()).to_string())
                .with_subject(s.to_string()),
            );
        }

        report.subjects.push(SubjectWriteTable {
            subject: s.clone(),
            blanket_allow: table.blanket_allow,
            cells: cells.into_values().collect(),
        });
    }

    // Finding: unwritable-document — no analyzed subject can ever
    // commit any batch.
    if !report.subjects.is_empty()
        && report
            .subjects
            .iter()
            .all(|t| !t.cells.is_empty() && t.cells.iter().all(|c| c.write == Verdict::Deny))
    {
        report.findings.push(Finding::new(
            Severity::Warning,
            "unwritable-document",
            "every write cell of every analyzed subject is guaranteed-deny: no update batch can ever commit on documents of this DTD",
        ));
    }

    report.findings.sort_by_key(|f| f.severity);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmlsec_authz::ObjectSpec;

    fn dtd(src: &str) -> Dtd {
        xmlsec_dtd::parse_dtd(src).expect("test DTD parses")
    }

    fn auth(sub: &str, uri: &str, path: Option<&str>, sign: Sign, ty: AuthType) -> Authorization {
        let spec = match path {
            Some(p) => format!("{uri}:{p}"),
            None => uri.to_string(),
        };
        Authorization::new(
            Subject::new(sub, "*", "*").unwrap(),
            ObjectSpec::parse(&spec).unwrap(),
            sign,
            ty,
        )
        .with_action(Action::Write)
    }

    const DTD: &str = r#"
        <!ELEMENT doc (meta, sec*)>
        <!ELEMENT meta (#PCDATA)>
        <!ATTLIST meta owner CDATA #IMPLIED>
        <!ELEMENT sec (title, sec*)>
        <!ELEMENT title (#PCDATA)>
    "#;

    fn table_for(auths: &[Authorization]) -> WriteTable {
        let d = dtd(DTD);
        let dir = Directory::default();
        let pairs: Vec<(&Authorization, bool)> = auths.iter().map(|a| (a, false)).collect();
        write_table(&d, "doc", &pairs, &dir, PolicyConfig::default())
    }

    #[test]
    fn whole_doc_recursive_plus_is_blanket_allow() {
        let auths = vec![auth("tom", "d.xml", None, Sign::Plus, AuthType::Recursive)];
        let t = table_for(&auths);
        assert!(t.blanket_allow);
        assert!(!t.unwritable);
        assert!(t.elements.values().all(|c| c.node == Verdict::Allow));
        let d = dtd(DTD);
        let ops = vec![UpdateOp::Delete { target: "/doc".into() }];
        assert_eq!(classify_batch(&d, &t, &ops), BatchVerdict::Allow);
    }

    #[test]
    fn no_write_auths_is_unwritable() {
        let t = table_for(&[]);
        assert!(t.unwritable);
        assert!(!t.blanket_allow);
        let d = dtd(DTD);
        let ops = vec![UpdateOp::SetText { target: "/doc/meta".into(), text: "x".into() }];
        match classify_batch(&d, &t, &ops) {
            BatchVerdict::Deny { op: 0, .. } => {}
            v => panic!("expected deny, got {v:?}"),
        }
    }

    /// A declaration that is unreachable from the chosen root may still
    /// name reachable elements as children; the replace verdict's
    /// possible-parent walk must skip it, not panic on a missing cell.
    #[test]
    fn unreachable_parent_declaration_does_not_panic() {
        const ORPHAN_DTD: &str = r#"
            <!ELEMENT doc (meta)>
            <!ELEMENT meta (#PCDATA)>
            <!ELEMENT orphan (meta)>
        "#;
        let auths = [auth("tom", "d.xml", None, Sign::Plus, AuthType::Recursive)];
        let d = dtd(ORPHAN_DTD);
        let dir = Directory::default();
        let pairs: Vec<(&Authorization, bool)> = auths.iter().map(|a| (a, false)).collect();
        let t = write_table(&d, "doc", &pairs, &dir, PolicyConfig::default());
        assert!(!t.elements.contains_key("orphan"));
        assert_eq!(t.elements["meta"].ops.replace, Verdict::Allow);
    }

    /// Like [`DTD`] but without the recursive `sec` cycle, so a path
    /// grant on `/doc/sec` is a must-selection of every `sec`.
    const FLAT_DTD: &str = r#"
        <!ELEMENT doc (meta, sec*)>
        <!ELEMENT meta (#PCDATA)>
        <!ATTLIST meta owner CDATA #IMPLIED>
        <!ELEMENT sec (title)>
        <!ELEMENT title (#PCDATA)>
    "#;

    #[test]
    fn subtree_grant_allows_inside_denies_outside() {
        // Writes granted recursively under sec; nothing else.
        let auths = [auth("tom", "d.xml", Some("/doc/sec"), Sign::Plus, AuthType::Recursive)];
        let d = dtd(FLAT_DTD);
        let dir = Directory::default();
        let pairs: Vec<(&Authorization, bool)> = auths.iter().map(|a| (a, false)).collect();
        let t = write_table(&d, "doc", &pairs, &dir, PolicyConfig::default());
        assert!(!t.blanket_allow);
        // meta is untouched by the grant: guaranteed deny.
        let deny = vec![UpdateOp::SetText { target: "/doc/meta".into(), text: "x".into() }];
        match classify_batch(&d, &t, &deny) {
            BatchVerdict::Deny { op: 0, .. } => {}
            v => panic!("expected deny, got {v:?}"),
        }
        // title under the grant: guaranteed allow.
        let allow = vec![UpdateOp::SetText { target: "/doc/sec/title".into(), text: "x".into() }];
        assert_eq!(classify_batch(&d, &t, &allow), BatchVerdict::Allow);
        // Deleting sec needs the whole closure: sec/title are writable,
        // so the closure folds to allow.
        let del = vec![UpdateOp::Delete { target: "/doc/sec".into() }];
        assert_eq!(classify_batch(&d, &t, &del), BatchVerdict::Allow);
        // Replacing sec needs the parent (doc), which is not granted:
        // the doc cell is ε (deny), so replace is instance-or-deny, and
        // the batch stays off the guaranteed paths.
        let rep = vec![UpdateOp::ReplaceSubtree {
            target: "/doc/sec".into(),
            xml: "<sec><title>t</title></sec>".into(),
        }];
        assert_ne!(classify_batch(&d, &t, &rep), BatchVerdict::Allow);
    }

    #[test]
    fn recursive_may_selection_stays_off_the_guaranteed_paths() {
        // Under the recursive DTD, `/doc/sec` may-selects the nested
        // `sec` declarations: the abstraction must not promise allow.
        let auths = vec![auth("tom", "d.xml", Some("/doc/sec"), Sign::Plus, AuthType::Recursive)];
        let t = table_for(&auths);
        let d = dtd(DTD);
        let ops = vec![UpdateOp::SetText { target: "/doc/sec/title".into(), text: "x".into() }];
        assert_eq!(classify_batch(&d, &t, &ops), BatchVerdict::Dynamic);
    }

    #[test]
    fn root_delete_is_denied() {
        let auths = vec![auth("tom", "d.xml", Some("/doc"), Sign::Plus, AuthType::Recursive)];
        let t = table_for(&auths);
        assert_eq!(t.elements["doc"].ops.delete, Verdict::Deny);
        let d = dtd(DTD);
        let ops = vec![UpdateOp::Delete { target: "/doc".into() }];
        match classify_batch(&d, &t, &ops) {
            BatchVerdict::Deny { op: 0, .. } => {}
            v => panic!("expected deny, got {v:?}"),
        }
    }

    #[test]
    fn bad_and_dead_paths_are_guaranteed_denies() {
        let auths = vec![auth("tom", "d.xml", None, Sign::Plus, AuthType::Local)];
        let t = table_for(&auths);
        let d = dtd(DTD);
        let bad = vec![UpdateOp::SetText { target: "/doc//".into(), text: "x".into() }];
        assert!(matches!(classify_batch(&d, &t, &bad), BatchVerdict::Deny { op: 0, .. }));
        let dead = vec![UpdateOp::SetText { target: "/doc/nosuch".into(), text: "x".into() }];
        assert!(matches!(classify_batch(&d, &t, &dead), BatchVerdict::Deny { op: 0, .. }));
    }

    #[test]
    fn deconforming_op_ends_the_guaranteed_scan() {
        let auths = vec![auth("tom", "d.xml", None, Sign::Plus, AuthType::Recursive)];
        let mut t = table_for(&auths);
        t.blanket_allow = false; // force the per-op scan
        let d = dtd(DTD);
        // insertsub can take the tree anywhere; the op after it cannot
        // be judged.
        let ops = vec![
            UpdateOp::InsertSubtree { parent: "/doc/sec".into(), xml: "<weird/>".into() },
            UpdateOp::SetText { target: "/doc/meta".into(), text: "x".into() },
        ];
        assert_eq!(classify_batch(&d, &t, &ops), BatchVerdict::Dynamic);
        // ...but the de-conforming op itself still folds.
        let one =
            vec![UpdateOp::InsertSubtree { parent: "/doc/sec".into(), xml: "<weird/>".into() }];
        assert_eq!(classify_batch(&d, &t, &one), BatchVerdict::Allow);
    }

    #[test]
    fn undeclared_setattr_checks_the_element_and_deconforms() {
        let auths = vec![auth("tom", "d.xml", None, Sign::Plus, AuthType::Recursive)];
        let mut t = table_for(&auths);
        t.blanket_allow = false;
        let d = dtd(DTD);
        let ops = vec![
            UpdateOp::SetAttribute {
                target: "/doc/meta".into(),
                name: "nope".into(),
                value: "v".into(),
            },
            UpdateOp::SetText { target: "/doc/meta".into(), text: "x".into() },
        ];
        // First op is allow (element cell +), but the follow-up cannot
        // be judged once an undeclared attribute may exist.
        assert_eq!(classify_batch(&d, &t, &ops), BatchVerdict::Dynamic);
        assert_eq!(classify_batch(&d, &t, &ops[..1]), BatchVerdict::Allow);
    }

    #[test]
    fn policy_writes_report_finds_blind_writes_and_amplification() {
        let d = dtd(DTD);
        let dir = Directory::default();
        // tom: write everywhere, read nowhere.
        let auths = vec![auth("tom", "d.xml", None, Sign::Plus, AuthType::Recursive)];
        let subjects = vec![Subject::new("tom", "*", "*").unwrap()];
        let r = analyze_policy_writes(
            &d,
            "doc",
            "d.dtd",
            &auths,
            &dir,
            PolicyConfig::default(),
            &subjects,
        );
        assert_eq!(r.skipped_non_write, 0);
        assert!(r.findings.iter().any(|f| f.kind == "write-only-region"));
        // sec is recursive: the amplification finding fires.
        assert!(r.findings.iter().any(|f| f.kind == "patch-amplification"));
        assert!(r.subjects[0].blanket_allow);
    }

    #[test]
    fn unwritable_document_finding_fires_without_write_auths() {
        let d = dtd(DTD);
        let dir = Directory::default();
        let mut read = auth("tom", "d.xml", None, Sign::Plus, AuthType::Recursive);
        read.action = Action::Read;
        let subjects = vec![Subject::new("tom", "*", "*").unwrap()];
        let r = analyze_policy_writes(
            &d,
            "doc",
            "d.dtd",
            &[read],
            &dir,
            PolicyConfig::default(),
            &subjects,
        );
        assert_eq!(r.skipped_non_write, 1);
        assert!(r.findings.iter().any(|f| f.kind == "unwritable-document"));
    }
}
