//! Whole-policy static analyzer: abstract interpretation of
//! `compute-view` over the DTD graph (no document required).
//!
//! For every schema node (element or attribute declaration) × every
//! analyzed subject, the analyzer runs the paper's full labeling stack —
//! initial 6-tuple from applicable authorizations, conflict resolution,
//! preorder propagation, `first_def` collapse, completeness policy —
//! over *sets of possible signs* ([`absdom::SignSet`]) instead of signs,
//! with may/must selection of schema nodes ([`select`]) in place of
//! per-document path evaluation. Each cell gets a verdict:
//!
//! - **guaranteed-allow** / **guaranteed-deny**: on every conforming
//!   instance, every node of that declaration resolves to that access
//!   decision for the subject;
//! - **instance-dependent**: the decision can differ between instances
//!   (or between nodes of one instance), with the source of the
//!   dependency named (a predicate, optional content, an upward axis).
//!
//! Soundness direction: selection may-sets over-approximate, must-sets
//! under-approximate, and every abstract operator over-approximates its
//! concrete counterpart pointwise — so a *guaranteed* verdict is
//! trustworthy, while "instance-dependent" is conservative. The
//! differential suite pins the guaranteed cells against the real
//! [`crate::view::label_document`] on generated instances.
//!
//! On top of the decision tables, [`analyze_policy`] derives
//! whole-policy findings no per-rule lint can see: empty-view subjects,
//! context-stripped exposure (the §6.3 structure-preservation hazard),
//! rules shadowed by conflict resolution, and conflicts reachable only
//! through overlapping subject patterns.

pub mod absdom;
pub mod select;
pub mod write;

use crate::analysis::SchemaGraph;
use crate::label::Sign3;
use absdom::{afd, AbsLabel, SignSet};
use select::{select, DependencySource, Selection};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use xmlsec_authz::policy::resolve_sign;
use xmlsec_authz::{
    Action, AuthType, Authorization, CompletenessPolicy, Finding, PolicyConfig, Severity,
};
use xmlsec_dtd::Dtd;
use xmlsec_subjects::{Directory, PrincipalKind, Subject};

use crate::analysis::SchemaNode;

/// The verdict of one decision-table cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Access is granted on every conforming instance.
    Allow,
    /// Access is denied on every conforming instance.
    Deny,
    /// The decision varies with the instance; `reason` names the source.
    Instance {
        /// What makes the cell instance-dependent.
        reason: String,
    },
}

impl Verdict {
    /// Stable identifier used in JSON output.
    pub fn code(&self) -> &'static str {
        match self {
            Verdict::Allow => "allow",
            Verdict::Deny => "deny",
            Verdict::Instance { .. } => "instance-dependent",
        }
    }

    /// `true` for the two guaranteed verdicts.
    pub fn is_guaranteed(&self) -> bool {
        !matches!(self, Verdict::Instance { .. })
    }
}

/// One cell of a subject's decision table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cell {
    /// The schema node the cell decides.
    pub node: SchemaNode,
    /// Possible final signs (display form, e.g. `+` or `+|ε`).
    pub signs: String,
    /// The verdict.
    pub verdict: Verdict,
}

/// The full decision table of one subject.
#[derive(Debug, Clone)]
pub struct SubjectTable {
    /// The subject analyzed.
    pub subject: Subject,
    /// One cell per reachable schema node, in [`SchemaNode`] order.
    pub cells: Vec<Cell>,
}

/// The result of a whole-policy analysis.
#[derive(Debug, Clone)]
pub struct PolicyReport {
    /// Root element the schema graph was rooted at.
    pub root: String,
    /// One table per analyzed subject.
    pub subjects: Vec<SubjectTable>,
    /// Whole-policy findings (empty-view, context-stripped,
    /// shadowed-by-resolution, overlap-conflict).
    pub findings: Vec<Finding>,
    /// Non-`read` authorizations excluded from the tables (the view
    /// algorithm is a read-access semantics).
    pub skipped_non_read: usize,
}

/// Above this many optional (may-selected) authorizations in one bucket
/// the analyzer stops enumerating subsets and widens to ⊤.
const MAY_CAP: usize = 10;

/// Cap on [`closure_subjects`] output.
const CLOSURE_CAP: usize = 48;

/// The subjects "relevant closure" of an authorization base: every
/// subject named by an authorization, plus — for each of them — the
/// directory users it dominates, placed at the authorization's location
/// patterns (the concrete requesters the rule can actually cover).
/// Deduplicated, capped at a small bound to keep tables readable.
pub fn closure_subjects(auths: &[Authorization], dir: &Directory) -> Vec<Subject> {
    let mut out: Vec<Subject> = Vec::new();
    let mut seen: BTreeSet<String> = BTreeSet::new();
    let push = |s: Subject, out: &mut Vec<Subject>, seen: &mut BTreeSet<String>| {
        if out.len() < CLOSURE_CAP && seen.insert(s.to_string()) {
            out.push(s);
        }
    };
    for a in auths {
        push(a.subject.clone(), &mut out, &mut seen);
    }
    let users: Vec<String> = dir
        .principals()
        .filter(|(_, k)| *k == PrincipalKind::User)
        .map(|(p, _)| p.to_string())
        .collect();
    for a in auths {
        for u in &users {
            if u != &a.subject.user_group && dir.dominates(u, &a.subject.user_group) {
                let s = Subject {
                    user_group: u.clone(),
                    ip: a.subject.ip.clone(),
                    sym: a.subject.sym.clone(),
                };
                push(s, &mut out, &mut seen);
            }
        }
    }
    out
}

/// One analyzed authorization: its global index, schema/instance
/// classification, and schema-node selection.
struct AuthInfo<'a> {
    /// Index into the caller's slice (used in findings).
    idx: usize,
    auth: &'a Authorization,
    /// `true` for DTD-level authorizations.
    schema: bool,
    sel: Selection,
}

/// Membership of an authorization's selection at one node.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Membership {
    No,
    May,
    Must,
}

impl Membership {
    fn of(must: Option<&bool>) -> Membership {
        match must {
            None => Membership::No,
            Some(true) => Membership::Must,
            Some(false) => Membership::May,
        }
    }
}

impl<'a> AuthInfo<'a> {
    /// Analyzes `auth`, selecting its object over `g`.
    fn new(g: &SchemaGraph<'_>, idx: usize, auth: &'a Authorization, schema: bool) -> Self {
        AuthInfo { idx, auth, schema, sel: select(g, auth.object.path.as_ref()) }
    }

    fn element_membership(&self, e: &str) -> Membership {
        Membership::of(self.sel.elements.get(e))
    }

    fn attribute_membership(&self, e: &str, a: &str) -> Membership {
        Membership::of(self.sel.attributes.get(&(e.to_string(), a.to_string())))
    }
}

/// Label-component classes an authorization feeds, mirroring
/// `resolve_with` in the view engine (weak folds into strong at the
/// schema level; recursion folds into local on attributes).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum Class {
    L,
    R,
    Lw,
    Rw,
    Ld,
    Rd,
}

fn element_class(info: &AuthInfo<'_>) -> Class {
    if info.schema {
        if info.auth.ty.is_recursive() {
            Class::Rd
        } else {
            Class::Ld
        }
    } else {
        match info.auth.ty {
            AuthType::Local => Class::L,
            AuthType::Recursive => Class::R,
            AuthType::LocalWeak => Class::Lw,
            AuthType::RecursiveWeak => Class::Rw,
        }
    }
}

fn attribute_class(info: &AuthInfo<'_>) -> Class {
    if info.schema {
        Class::Ld
    } else {
        match info.auth.ty {
            AuthType::Local | AuthType::Recursive => Class::L,
            AuthType::LocalWeak | AuthType::RecursiveWeak => Class::Lw,
        }
    }
}

/// Abstract bucket resolution: the set of signs `resolve_sign` can
/// produce when the bucket is the must-set plus any subset of the
/// may-set. Widens to ⊤ past [`MAY_CAP`] optional members.
fn bucket_signs(
    must: &[&Authorization],
    may: &[&Authorization],
    dir: &Directory,
    policy: PolicyConfig,
) -> SignSet {
    if may.is_empty() {
        return SignSet::singleton(resolve_sign(must, dir, policy.conflict).into());
    }
    if may.len() > MAY_CAP {
        return SignSet::TOP;
    }
    let mut out = SignSet::EMPTY;
    let mut bucket: Vec<&Authorization> = Vec::with_capacity(must.len() + may.len());
    for choice in 0u32..(1u32 << may.len()) {
        bucket.clear();
        bucket.extend_from_slice(must);
        for (j, a) in may.iter().enumerate() {
            if (choice >> j) & 1 == 1 {
                bucket.push(a);
            }
        }
        out.insert(resolve_sign(&bucket, dir, policy.conflict).into());
    }
    out
}

/// Per-subject working state: the applicable authorizations and a memo
/// of resolved buckets keyed by `(class, must ids, may ids)`.
struct SubjectCtx<'a, 'b> {
    applicable: Vec<&'b AuthInfo<'a>>,
    dir: &'a Directory,
    policy: PolicyConfig,
    memo: HashMap<(Class, Vec<usize>, Vec<usize>), SignSet>,
}

impl<'a, 'b> SubjectCtx<'a, 'b> {
    fn class_signs(
        &mut self,
        class: Class,
        membership: impl Fn(&AuthInfo<'a>) -> Membership,
        class_of: impl Fn(&AuthInfo<'a>) -> Class,
    ) -> SignSet {
        let mut must_ids = Vec::new();
        let mut may_ids = Vec::new();
        let mut must = Vec::new();
        let mut may = Vec::new();
        for info in &self.applicable {
            if class_of(info) != class {
                continue;
            }
            match membership(info) {
                Membership::No => {}
                Membership::Must => {
                    must_ids.push(info.idx);
                    must.push(info.auth);
                }
                Membership::May => {
                    may_ids.push(info.idx);
                    may.push(info.auth);
                }
            }
        }
        let key = (class, must_ids, may_ids);
        if let Some(&s) = self.memo.get(&key) {
            return s;
        }
        let s = bucket_signs(&must, &may, self.dir, self.policy);
        self.memo.insert(key, s);
        s
    }

    /// The pre-propagation abstract label of element `e`.
    fn own_element_label(&mut self, e: &str) -> AbsLabel {
        let classes = [Class::L, Class::R, Class::Ld, Class::Rd, Class::Lw, Class::Rw];
        let mut lab = AbsLabel::BOTTOM;
        for class in classes {
            let s = self.class_signs(class, |i| i.element_membership(e), element_class);
            match class {
                Class::L => lab.l = s,
                Class::R => lab.r = s,
                Class::Ld => lab.ld = s,
                Class::Rd => lab.rd = s,
                Class::Lw => lab.lw = s,
                Class::Rw => lab.rw = s,
            }
        }
        lab
    }

    /// The own (local) abstract components of attribute `(e, a)`:
    /// `r`/`rw`/`rd` are structurally `ε` on leaves.
    fn own_attribute_label(&mut self, e: &str, a: &str) -> AbsLabel {
        let mut lab = AbsLabel::BOTTOM;
        lab.l = self.class_signs(Class::L, |i| i.attribute_membership(e, a), attribute_class);
        lab.lw = self.class_signs(Class::Lw, |i| i.attribute_membership(e, a), attribute_class);
        lab.ld = self.class_signs(Class::Ld, |i| i.attribute_membership(e, a), attribute_class);
        lab.r = SignSet::EPS;
        lab.rw = SignSet::EPS;
        lab.rd = SignSet::EPS;
        lab
    }
}

/// Abstract `label_element` propagation: `own` components plus the join
/// `j` of all possible parent labels.
fn propagate(own: AbsLabel, j: AbsLabel) -> AbsLabel {
    let keep_r = {
        // Keeping happens when own R or own RW is defined; the kept R is
        // own.r — which can be ε only when own.rw supplied the defined
        // sign.
        let mut s = own.r.def_part();
        if own.r.contains(Sign3::Eps) && own.rw.has_def() {
            s.insert(Sign3::Eps);
        }
        s
    };
    let keep_rw = {
        let mut s = own.rw.def_part();
        if own.rw.contains(Sign3::Eps) && own.r.has_def() {
            s.insert(Sign3::Eps);
        }
        s
    };
    let inherit = own.r.contains(Sign3::Eps) && own.rw.contains(Sign3::Eps);
    AbsLabel {
        l: own.l,
        lw: own.lw,
        ld: own.ld,
        r: if inherit { keep_r.union(j.r) } else { keep_r },
        rw: if inherit { keep_rw.union(j.rw) } else { keep_rw },
        rd: afd(&[own.rd, j.rd]),
    }
}

fn final_signs(post: AbsLabel) -> SignSet {
    afd(&[post.l, post.r, post.ld, post.rd, post.lw, post.rw])
}

fn attribute_final_signs(own: AbsLabel, parent: AbsLabel) -> SignSet {
    let strong_p = afd(&[parent.l, parent.r]);
    let schema_p = afd(&[parent.ld, parent.rd]);
    let weak_p = afd(&[parent.lw, parent.rw]);
    afd(&[own.l, strong_p, own.ld, schema_p, own.lw, weak_p])
}

/// Raw decision data of one subject: final sign-sets per schema node.
type RawTable = BTreeMap<SchemaNode, SignSet>;

/// The output of [`applied_raw`]: the final sign-set table plus the
/// abstract labels it was derived from (which [`analyze_policy`] discards
/// but policy compilation consumes).
struct AppliedRaw {
    /// Final sign-sets per reachable schema node.
    table: RawTable,
    /// Post-fixpoint abstract element labels, by element name.
    element_post: BTreeMap<String, AbsLabel>,
    /// Own (pre-collapse) abstract attribute labels, by
    /// `(element, attribute)`.
    attribute_own: BTreeMap<(String, String), AbsLabel>,
}

/// Runs the abstract labeling stack for one concrete applicable set:
/// own labels, the Kleene propagation fixpoint, and the `first_def`
/// collapse into per-node final sign-sets.
fn applied_raw<'a>(
    g: &SchemaGraph<'_>,
    reachable: &[&str],
    applicable: Vec<&AuthInfo<'a>>,
    dir: &'a Directory,
    policy: PolicyConfig,
) -> AppliedRaw {
    let mut ctx = SubjectCtx { applicable, dir, policy, memo: HashMap::new() };

    // Own labels, then a Kleene fixpoint for the propagated
    // components (terminates: six components of ≤ 3 bits each,
    // growing monotonically).
    let own: BTreeMap<&str, AbsLabel> =
        reachable.iter().map(|&e| (e, ctx.own_element_label(e))).collect();
    let mut post: BTreeMap<&str, AbsLabel> =
        reachable.iter().map(|&e| (e, AbsLabel::BOTTOM)).collect();
    loop {
        let mut changed = false;
        for &e in reachable {
            let mut j = if e == g.root { AbsLabel::EPSILON } else { AbsLabel::BOTTOM };
            for p in g.pars(e) {
                if let Some(&pl) = post.get(p) {
                    j = j.join(pl);
                }
            }
            let new = propagate(own[e], j);
            if new != post[e] {
                post.insert(e, new);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    let mut table = RawTable::new();
    let mut attribute_own = BTreeMap::new();
    for &e in reachable {
        table.insert(SchemaNode::Element(e.to_string()), final_signs(post[e]));
        for def in g.dtd.attributes(e) {
            let own_a = ctx.own_attribute_label(e, &def.name);
            table.insert(
                SchemaNode::Attribute { element: e.to_string(), attribute: def.name.clone() },
                attribute_final_signs(own_a, post[e]),
            );
            attribute_own.insert((e.to_string(), def.name.clone()), own_a);
        }
    }
    AppliedRaw {
        table,
        element_post: post.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
        attribute_own,
    }
}

/// Computes every subject's raw table over the reachable schema nodes,
/// considering only authorizations whose index satisfies `included`.
fn compute_raw_tables(
    g: &SchemaGraph<'_>,
    reachable: &[&str],
    infos: &[AuthInfo<'_>],
    subjects: &[Subject],
    dir: &Directory,
    policy: PolicyConfig,
    included: impl Fn(usize) -> bool,
) -> Vec<RawTable> {
    subjects
        .iter()
        .map(|s| {
            let applicable: Vec<&AuthInfo<'_>> = infos
                .iter()
                .filter(|i| included(i.idx) && s.leq(&i.auth.subject, dir))
                .collect();
            applied_raw(g, reachable, applicable, dir, policy).table
        })
        .collect()
}

/// One verdict cell of an applied (requester-resolved) analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct AppliedCell {
    /// The possible final signs of nodes of this declaration.
    pub(crate) signs: SignSet,
    /// The verdict those signs induce under the completeness policy.
    pub(crate) verdict: Verdict,
}

/// The abstract analysis of one concrete applicable authorization set
/// (a requester's `axml`/`adtd` after subject resolution), as consumed
/// by policy compilation: verdict cells plus the post-fixpoint abstract
/// labels they were derived from.
#[derive(Debug, Clone)]
pub(crate) struct AppliedAnalysis {
    /// One cell per reachable schema node.
    pub(crate) cells: BTreeMap<SchemaNode, AppliedCell>,
    /// Post-fixpoint abstract element labels, by element name.
    pub(crate) element_post: BTreeMap<String, AbsLabel>,
    /// Own abstract attribute labels, by `(element, attribute)`.
    pub(crate) attribute_own: BTreeMap<(String, String), AbsLabel>,
}

/// Analyzes one concrete applicable set over the DTD graph. Unlike
/// [`analyze_policy`], no subject filtering happens: the caller has
/// already resolved which authorizations apply to the requester, and
/// marks the schema-level ones with `true`. Returns `None` when
/// `root_element` is not declared in the DTD.
pub(crate) fn analyze_applicable(
    dtd: &Dtd,
    root_element: &str,
    auths: &[(&Authorization, bool)],
    dir: &Directory,
    policy: PolicyConfig,
) -> Option<AppliedAnalysis> {
    let g = SchemaGraph::new(dtd, root_element)?;
    let reachable = g.reachable();

    let infos: Vec<AuthInfo<'_>> = auths
        .iter()
        .enumerate()
        .map(|(idx, &(auth, schema))| AuthInfo::new(&g, idx, auth, schema))
        .collect();

    let raw = applied_raw(&g, &reachable, infos.iter().collect(), dir, policy);
    let cells = raw
        .table
        .iter()
        .map(|(node, &signs)| {
            let verdict = verdict_of(policy, signs, || cell_reason(&g, &infos, None, dir, node));
            (node.clone(), AppliedCell { signs, verdict })
        })
        .collect();
    Some(AppliedAnalysis {
        cells,
        element_post: raw.element_post,
        attribute_own: raw.attribute_own,
    })
}

/// Whether a final sign grants access under the completeness policy.
fn allowed(policy: PolicyConfig, s: Sign3) -> bool {
    s == Sign3::Plus || (policy.completeness == CompletenessPolicy::Open && s == Sign3::Eps)
}

fn verdict_of(policy: PolicyConfig, signs: SignSet, reason: impl FnOnce() -> String) -> Verdict {
    let granted: Vec<bool> = signs.iter().map(|s| allowed(policy, s)).collect();
    if granted.iter().all(|&g| g) {
        Verdict::Allow
    } else if granted.iter().all(|&g| !g) {
        Verdict::Deny
    } else {
        Verdict::Instance { reason: reason() }
    }
}

/// Names the instance-dependence source of a cell: the applicable
/// authorizations whose selection of the node (or of an ancestor type,
/// through propagation) is may-but-not-must. With `subject = None` every
/// info counts as applicable (the applied-analysis path, where the
/// caller resolved applicability already).
fn cell_reason(
    g: &SchemaGraph<'_>,
    infos: &[AuthInfo<'_>],
    subject: Option<&Subject>,
    dir: &Directory,
    node: &SchemaNode,
) -> String {
    let (element, attr) = match node {
        SchemaNode::Element(e) => (e.as_str(), None),
        SchemaNode::Attribute { element, attribute } => {
            (element.as_str(), Some(attribute.as_str()))
        }
    };
    let mut direct: Vec<&AuthInfo<'_>> = Vec::new();
    let mut inherited: Vec<&AuthInfo<'_>> = Vec::new();
    for info in infos {
        if subject.is_some_and(|s| !s.leq(&info.auth.subject, dir)) {
            continue;
        }
        let at_node = match attr {
            Some(a) => info.attribute_membership(element, a),
            None => info.element_membership(element),
        };
        if at_node == Membership::May {
            direct.push(info);
            continue;
        }
        // Propagation: a may-selection on the element itself (for
        // attributes) or on any ancestor type can still swing the cell.
        let mut up: BTreeSet<&str> = g.ancestors(element);
        if attr.is_some() {
            up.insert(element);
        }
        if up.iter().any(|&a| info.element_membership(a) == Membership::May) {
            inherited.push(info);
        }
    }
    let describe = |list: &[&AuthInfo<'_>], how: &str| -> Vec<String> {
        list.iter()
            .take(3)
            .map(|i| {
                let src = i.sel.dependency.unwrap_or(DependencySource::Structure);
                format!("auth #{}{} ({})", i.idx, how, src.describe())
            })
            .collect()
    };
    let mut parts = describe(&direct, "");
    parts.extend(describe(&inherited, " via an ancestor"));
    if parts.is_empty() {
        "depends on how instance authorizations combine along the ancestor chain".to_string()
    } else {
        format!("depends on {}", parts.join("; "))
    }
}

/// Runs the whole-policy analysis.
///
/// `dtd_uri` classifies authorizations: objects with this URI (or any
/// `.dtd` URI) are schema-level, the rest are treated as instance
/// authorizations on documents of this DTD. Non-`read` authorizations
/// are excluded from the tables (and counted in
/// [`PolicyReport::skipped_non_read`]).
pub fn analyze_policy(
    dtd: &Dtd,
    root_element: &str,
    dtd_uri: &str,
    auths: &[Authorization],
    dir: &Directory,
    policy: PolicyConfig,
    subjects: &[Subject],
) -> PolicyReport {
    let mut report = PolicyReport {
        root: root_element.to_string(),
        subjects: Vec::new(),
        findings: Vec::new(),
        skipped_non_read: 0,
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

    let infos: Vec<AuthInfo<'_>> = auths
        .iter()
        .enumerate()
        .filter(|(_, a)| {
            let read = a.action == Action::Read;
            if !read {
                report.skipped_non_read += 1;
            }
            read
        })
        .map(|(idx, auth)| {
            let schema = auth.object.uri == dtd_uri || auth.object.uri.ends_with(".dtd");
            AuthInfo::new(&g, idx, auth, schema)
        })
        .collect();

    let raw = compute_raw_tables(&g, &reachable, &infos, subjects, dir, policy, |_| true);

    // Decision tables with verdicts.
    for (s, table) in subjects.iter().zip(&raw) {
        let cells: Vec<Cell> = table
            .iter()
            .map(|(node, &signs)| Cell {
                node: node.clone(),
                signs: signs.to_string(),
                verdict: verdict_of(policy, signs, || cell_reason(&g, &infos, Some(s), dir, node)),
            })
            .collect();
        report.subjects.push(SubjectTable { subject: s.clone(), cells });
    }

    // Finding: empty-view subjects.
    for t in &report.subjects {
        if !t.cells.is_empty() && t.cells.iter().all(|c| c.verdict == Verdict::Deny) {
            report.findings.push(
                Finding::new(
                    Severity::Warning,
                    "empty-view",
                    "every decision-table cell is guaranteed-deny: these credentials can never see any node of the schema",
                )
                .with_subject(t.subject.to_string()),
            );
        }
    }

    // Finding: context-stripped exposure (§6.3). A guaranteed-visible
    // element all of whose DTD paths to the root pass through a
    // guaranteed-denied ancestor: the view shows it under bare,
    // structure-only ancestor tags.
    for t in &report.subjects {
        let deny_els: BTreeSet<&str> = t
            .cells
            .iter()
            .filter_map(|c| match (&c.node, &c.verdict) {
                (SchemaNode::Element(e), Verdict::Deny) => Some(e.as_str()),
                _ => None,
            })
            .collect();
        for c in &t.cells {
            let (SchemaNode::Element(e), Verdict::Allow) = (&c.node, &c.verdict) else {
                continue;
            };
            let mut avoid = deny_els.clone();
            avoid.remove(e.as_str());
            if !g.reachable_avoiding(e, &avoid) {
                report.findings.push(
                    Finding::new(
                        Severity::Warning,
                        "context-stripped",
                        "guaranteed-visible, but every DTD path to the root crosses a guaranteed-denied ancestor: it is served inside bare structure-only tags (§6.3 exposure)",
                    )
                    .with_node(c.node.to_string())
                    .with_subject(t.subject.to_string()),
                );
            }
        }
    }

    // Finding: shadowed-by-resolution. Removing the authorization leaves
    // every cell's possible-sign set unchanged — under the analyzer's
    // semantics it contributes nothing to any decision. Restricted to
    // authorizations whose whole coverage is guaranteed (singleton
    // cells) for every subject they apply to: two instance-dependent
    // cells with equal sign *sets* can still differ on concrete
    // instances, so only guaranteed cells make "unchanged" a proof.
    for info in &infos {
        let coverage = effective_coverage(&g, info);
        let all_guaranteed = subjects.iter().zip(&raw).all(|(s, table)| {
            if !s.leq(&info.auth.subject, dir) {
                return true;
            }
            table.iter().all(|(node, signs)| {
                let name = match node {
                    SchemaNode::Element(e) => e.clone(),
                    SchemaNode::Attribute { element, attribute } => {
                        format!("{element}/@{attribute}")
                    }
                };
                !coverage.contains(&name) || signs.as_singleton().is_some()
            })
        });
        if !all_guaranteed {
            continue;
        }
        let without =
            compute_raw_tables(&g, &reachable, &infos, subjects, dir, policy, |i| i != info.idx);
        if without == raw {
            report.findings.push(
                Finding::new(
                    Severity::Warning,
                    "shadowed-by-resolution",
                    "removing this authorization changes no cell of any subject's decision table: it is absorbed by subject resolution and propagation",
                )
                .with_auth(info.idx),
            );
        }
    }

    // Finding: conflict-only-under-overlap. Opposite signs, subjects
    // incomparable in the hierarchy yet satisfiable together (a common
    // user exists and the location patterns intersect), coverage
    // touching common nodes: the conflict fires only for requesters in
    // the overlap, where resolution falls back to the sign policy.
    for (x, a) in infos.iter().enumerate() {
        for b in infos.iter().skip(x + 1) {
            if a.auth.sign == b.auth.sign {
                continue;
            }
            let sa = &a.auth.subject;
            let sb = &b.auth.subject;
            if sa.leq(sb, dir) || sb.leq(sa, dir) {
                continue; // ordinary contradiction, the lint reports it
            }
            if !sa.overlaps(sb, dir) {
                continue;
            }
            if effective_coverage(&g, a).is_disjoint(&effective_coverage(&g, b)) {
                continue;
            }
            report.findings.push(
                Finding::new(
                    Severity::Info,
                    "overlap-conflict",
                    format!(
                        "opposite signs on overlapping coverage; the subjects are incomparable but satisfiable together ({} ∧ {}), so the outcome for requesters in the overlap hinges on the conflict-resolution policy",
                        sa, sb
                    ),
                )
                .with_auth(a.idx)
                .with_other_auth(b.idx),
            );
        }
    }

    report.findings.sort_by_key(|f| f.severity);
    report
}

/// Elements an authorization can influence: its may-selected elements,
/// extended downward for recursive types.
fn effective_coverage<'d>(g: &SchemaGraph<'d>, info: &AuthInfo<'_>) -> BTreeSet<String> {
    let mut out: BTreeSet<String> = info.sel.elements.keys().cloned().collect();
    out.extend(info.sel.attributes.keys().map(|(e, a)| format!("{e}/@{a}")));
    if info.auth.ty.is_recursive() || info.schema {
        let seed: Vec<String> = info.sel.elements.keys().cloned().collect();
        for e in seed {
            for d in g.descendants(&e) {
                out.insert(d.to_string());
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmlsec_authz::{AuthType, ObjectSpec, Sign};
    use xmlsec_dtd::parse_dtd;

    const LAB: &str = r#"
        <!ELEMENT laboratory (project+)>
        <!ELEMENT project (manager, paper*)>
        <!ELEMENT manager (#PCDATA)>
        <!ELEMENT paper (title)>
        <!ATTLIST paper category CDATA #REQUIRED>
        <!ELEMENT title (#PCDATA)>
    "#;

    fn dir() -> Directory {
        let mut d = Directory::new();
        d.add_user("tom").unwrap();
        d.add_user("ann").unwrap();
        d.add_group("Staff").unwrap();
        d.add_group("Public").unwrap();
        d.add_member("tom", "Staff").unwrap();
        d.add_member("tom", "Public").unwrap();
        d.add_member("ann", "Public").unwrap();
        d
    }

    fn auth(ug: &str, path: &str, sign: Sign, ty: AuthType) -> Authorization {
        Authorization::new(
            Subject::new(ug, "*", "*").unwrap(),
            ObjectSpec::with_path("lab.dtd", path).unwrap(),
            sign,
            ty,
        )
    }

    fn cell<'r>(r: &'r PolicyReport, subject: &str, node: &str) -> &'r Cell {
        let t = r
            .subjects
            .iter()
            .find(|t| t.subject.user_group == subject)
            .unwrap_or_else(|| panic!("no table for {subject}"));
        t.cells
            .iter()
            .find(|c| c.node.to_string() == node)
            .unwrap_or_else(|| panic!("no cell {node}"))
    }

    #[test]
    fn guaranteed_and_dependent_cells() {
        let dtd = parse_dtd(LAB).unwrap();
        let d = dir();
        let auths = vec![
            auth("Staff", "/laboratory", Sign::Plus, AuthType::Recursive),
            auth("Staff", r#"//paper[./@category="private"]"#, Sign::Minus, AuthType::Recursive),
        ];
        let subjects = vec![Subject::new("Staff", "*", "*").unwrap()];
        let r = analyze_policy(
            &dtd,
            "laboratory",
            "lab.dtd",
            &auths,
            &d,
            PolicyConfig::paper_default(),
            &subjects,
        );
        assert_eq!(cell(&r, "Staff", "<manager>").verdict, Verdict::Allow);
        assert_eq!(cell(&r, "Staff", "<laboratory>").verdict, Verdict::Allow);
        // The predicate makes paper (and what hangs under it)
        // instance-dependent.
        let paper = cell(&r, "Staff", "<paper>");
        assert!(
            matches!(&paper.verdict, Verdict::Instance { reason } if reason.contains("predicate")),
            "{paper:?}"
        );
        assert!(matches!(cell(&r, "Staff", "<title>").verdict, Verdict::Instance { .. }));
    }

    #[test]
    fn closed_policy_defaults_to_deny() {
        let dtd = parse_dtd(LAB).unwrap();
        let d = dir();
        let auths = vec![auth("Staff", "//manager", Sign::Plus, AuthType::Local)];
        let subjects = vec![
            Subject::new("Staff", "*", "*").unwrap(),
            Subject::new("Public", "*", "*").unwrap(),
        ];
        let r = analyze_policy(
            &dtd,
            "laboratory",
            "lab.dtd",
            &auths,
            &d,
            PolicyConfig::paper_default(),
            &subjects,
        );
        assert_eq!(cell(&r, "Staff", "<manager>").verdict, Verdict::Allow);
        assert_eq!(cell(&r, "Staff", "<paper>").verdict, Verdict::Deny);
        // Public is covered by nothing: all-deny ⇒ empty-view finding.
        assert_eq!(cell(&r, "Public", "<manager>").verdict, Verdict::Deny);
        let ev: Vec<_> = r.findings.iter().filter(|f| f.kind == "empty-view").collect();
        assert_eq!(ev.len(), 1);
        assert!(ev[0].span.subject.as_deref().unwrap().contains("Public"));
    }

    #[test]
    fn context_stripped_exposure_detected() {
        let dtd = parse_dtd(LAB).unwrap();
        let d = dir();
        // Everything denied recursively, but titles are force-granted:
        // every path from the root to <title> crosses denied context.
        let auths = vec![
            auth("Staff", "/laboratory", Sign::Minus, AuthType::Recursive),
            auth("Staff", "//title", Sign::Plus, AuthType::Local),
        ];
        let subjects = vec![Subject::new("Staff", "*", "*").unwrap()];
        let r = analyze_policy(
            &dtd,
            "laboratory",
            "lab.dtd",
            &auths,
            &d,
            PolicyConfig::paper_default(),
            &subjects,
        );
        assert_eq!(cell(&r, "Staff", "<title>").verdict, Verdict::Allow);
        assert_eq!(cell(&r, "Staff", "<paper>").verdict, Verdict::Deny);
        let cs: Vec<_> = r.findings.iter().filter(|f| f.kind == "context-stripped").collect();
        assert_eq!(cs.len(), 1, "{:?}", r.findings);
        assert_eq!(cs[0].span.node.as_deref(), Some("<title>"));
    }

    #[test]
    fn shadowed_by_resolution_detected() {
        let dtd = parse_dtd(LAB).unwrap();
        let d = dir();
        // tom ≤ Staff with the same sign on a subset of the coverage:
        // the specific rule changes nothing anywhere.
        let auths = vec![
            auth("Staff", "/laboratory", Sign::Plus, AuthType::Recursive),
            auth("tom", "//paper", Sign::Plus, AuthType::Recursive),
        ];
        let subjects = closure_subjects(&auths, &d);
        let r = analyze_policy(
            &dtd,
            "laboratory",
            "lab.dtd",
            &auths,
            &d,
            PolicyConfig::paper_default(),
            &subjects,
        );
        let sh: Vec<_> = r.findings.iter().filter(|f| f.kind == "shadowed-by-resolution").collect();
        assert_eq!(sh.len(), 1, "{:?}", r.findings);
        assert_eq!(sh[0].span.auth, Some(1));
    }

    #[test]
    fn overlap_conflict_gated_on_satisfiability() {
        let dtd = parse_dtd(LAB).unwrap();
        let d = dir();
        // Staff and Public are incomparable but share tom: a conflict
        // reachable only in the overlap.
        let auths = vec![
            auth("Staff", "//paper", Sign::Plus, AuthType::Recursive),
            auth("Public", "//paper", Sign::Minus, AuthType::Recursive),
        ];
        let subjects = vec![Subject::new("tom", "*", "*").unwrap()];
        let r = analyze_policy(
            &dtd,
            "laboratory",
            "lab.dtd",
            &auths,
            &d,
            PolicyConfig::paper_default(),
            &subjects,
        );
        let oc: Vec<_> = r.findings.iter().filter(|f| f.kind == "overlap-conflict").collect();
        assert_eq!(oc.len(), 1, "{:?}", r.findings);
        // Disjoint locations: the same pair stops overlapping.
        let mut a2 = auths.clone();
        a2[0].subject = Subject::new("Staff", "130.*", "*").unwrap();
        a2[1].subject = Subject::new("Public", "140.*", "*").unwrap();
        let r2 = analyze_policy(
            &dtd,
            "laboratory",
            "lab.dtd",
            &a2,
            &d,
            PolicyConfig::paper_default(),
            &subjects,
        );
        assert!(r2.findings.iter().all(|f| f.kind != "overlap-conflict"), "{:?}", r2.findings);
    }

    #[test]
    fn closure_subjects_cover_users_under_groups() {
        let d = dir();
        let auths = vec![auth("Staff", "//paper", Sign::Plus, AuthType::Recursive)];
        let subs = closure_subjects(&auths, &d);
        let names: Vec<String> = subs.iter().map(|s| s.user_group.clone()).collect();
        assert!(names.contains(&"Staff".to_string()));
        assert!(names.contains(&"tom".to_string()));
        assert!(!names.contains(&"ann".to_string()), "ann is not under Staff");
    }

    #[test]
    fn unknown_root_is_an_error_finding() {
        let dtd = parse_dtd(LAB).unwrap();
        let r = analyze_policy(
            &dtd,
            "nosuch",
            "lab.dtd",
            &[],
            &dir(),
            PolicyConfig::paper_default(),
            &[],
        );
        assert_eq!(r.findings[0].kind, "unknown-root");
        assert_eq!(r.findings[0].severity, Severity::Error);
    }
}
