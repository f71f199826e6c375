//! What a parsed revision knows before anyone asks for it.
//!
//! Compute-view (paper §6) evaluates every applicable authorization's
//! object over the document before it labels a node. Which nodes a path
//! selects depends on the document alone, not on the requester, and so
//! does each node's type. A [`RevisionFacts`] keeps both for one parsed
//! document, filled by the first labeling run that needs them and shared
//! by every later run on the same document:
//!
//! - **object node sets**: one bitset over arena slots per authorization
//!   object, keyed by the parsed [`PathExpr`] (structural equality, not
//!   the path text), with the node visits its evaluation drew;
//! - **node types**: one type id per arena slot, an element name or an
//!   (element, attribute) pair, so compiled verdict cells are found by
//!   indexing instead of a string-keyed lookup per node.
//!
//! A memoized set is served under the same budget as a fresh evaluation:
//! the run draws the recorded visits from its request-wide
//! [`SharedBudget`], so a node-visit limit trips on the same totals, with
//! the same `xmlsec_limits_rejected_total{kind="node_visits"}` increment,
//! and a tripped cancellation token unwinds at that draw. Only completed
//! evaluations are kept, at most [`MAX_OBJECT_SETS`] of them. The facts
//! describe the document they were computed from, so a copy starts empty
//! and nothing that holds them hands out the document mutably.

use crate::par;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::{Arc, Mutex, OnceLock};
use xmlsec_authz::Authorization;
use xmlsec_xml::{Document, NodeId};
use xmlsec_xpath::{eval_path_counted, EvalError, EvalLimits, PathExpr, SharedBudget};

/// Most object node sets one revision keeps. A policy with more distinct
/// objects over one document evaluates the rest on every run.
pub(crate) const MAX_OBJECT_SETS: usize = 256;

/// The type id of a slot that is neither an element nor an attribute.
const NO_TYPE: u32 = u32::MAX;

/// A multiply-rotate hasher (the FxHash scheme): a few cycles per word.
/// It keys in-process memos whose keys come from the policy and the
/// engine, never from a client.
#[derive(Default, Clone, Copy)]
pub(crate) struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let mut tail = [0u8; 8];
        let rest = chunks.remainder();
        tail[..rest.len()].copy_from_slice(rest);
        self.add(u64::from_le_bytes(tail) ^ ((rest.len() as u64) << 56));
    }

    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_u128(&mut self, n: u128) {
        self.add(n as u64);
        self.add((n >> 64) as u64);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        self.hash
    }
}

/// Builds [`FxHasher`]s for a `HashMap`.
pub(crate) type FxBuild = BuildHasherDefault<FxHasher>;

/// The requester-independent facts of one parsed document (see the
/// module docs). Crate-private: the engine is its only reader and
/// writer, and every run on it must label the document it describes.
#[derive(Default)]
pub(crate) struct RevisionFacts {
    /// Completed object evaluations by [`FxHasher`] hash of the path;
    /// each entry carries its path, checked on every hit.
    objects: Mutex<HashMap<u64, Arc<ObjectSet>, FxBuild>>,
    types: OnceLock<NodeTypes>,
}

/// A copy describes a document that may change, so it starts empty.
impl Clone for RevisionFacts {
    fn clone(&self) -> Self {
        RevisionFacts::default()
    }
}

impl fmt::Debug for RevisionFacts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RevisionFacts")
            .field("object_sets", &self.lock().len())
            .field("node_types", &self.types.get().map(|t| t.names.len()))
            .finish()
    }
}

/// One completed evaluation of an authorization object.
struct ObjectSet {
    path: PathExpr,
    /// Bitset over arena slots: the nodes the path selects.
    bits: Arc<[u64]>,
    /// Node visits the evaluation drew from its budget.
    visits: u64,
    /// The deepest path nesting it reached.
    depth: u32,
}

impl ObjectSet {
    /// Draws the recorded visits from `pool`, as the evaluation itself
    /// did, and reports a refusal on the limits counter as the evaluator
    /// does (a cancellation is not a limit).
    fn draw(&self, pool: &SharedBudget) -> Result<Arc<[u64]>, EvalError> {
        match pool.take(self.visits) {
            Ok(()) => Ok(Arc::clone(&self.bits)),
            Err(e) => {
                if !e.is_cancelled() {
                    xmlsec_xml::limit_rejected(e.kind());
                }
                Err(e)
            }
        }
    }
}

fn path_hash(path: &PathExpr) -> u64 {
    let mut h = FxHasher::default();
    path.hash(&mut h);
    h.finish()
}

/// A bitset over `doc`'s arena slots with only `nodes` set, in one
/// allocation.
fn bitset(doc: &Document, nodes: impl IntoIterator<Item = NodeId>) -> Arc<[u64]> {
    let mut bits: Arc<[u64]> = std::iter::repeat(0).take(doc.arena_len().div_ceil(64)).collect();
    let words = Arc::get_mut(&mut bits).expect("a new Arc has no other owner");
    for n in nodes {
        words[n.index() / 64] |= 1 << (n.index() % 64);
    }
    bits
}

/// What one authorization object needs this run.
enum Pending<'p> {
    /// A whole-document object: the document element, nothing to
    /// evaluate.
    Root,
    /// A memoized set whose visits are still to be drawn.
    Hit(Arc<ObjectSet>),
    /// A path to evaluate, with its memo key.
    Miss(u64, &'p PathExpr),
}

impl RevisionFacts {
    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<u64, Arc<ObjectSet>, FxBuild>> {
        // A panic while the map was held leaves it consistent: entries
        // are inserted whole.
        self.objects.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The node set each of `auths`' objects selects in `doc`, in order:
    /// memoized sets draw their recorded visits from `pool`, the others
    /// are evaluated (fanned out over `threads` when there are several)
    /// and kept once complete. The first error in `auths` order wins.
    pub(crate) fn object_sets(
        &self,
        doc: &Document,
        auths: &[&Authorization],
        limits: &EvalLimits,
        pool: &SharedBudget,
        threads: usize,
    ) -> Result<Vec<Arc<[u64]>>, EvalError> {
        let pending: Vec<Pending> = {
            let memo = self.lock();
            auths
                .iter()
                .map(|a| {
                    let Some(path) = &a.object.path else { return Pending::Root };
                    let key = path_hash(path);
                    match memo.get(&key) {
                        // A set evaluated under a deeper nesting limit
                        // than this run's is evaluated again, to fail
                        // as it should.
                        Some(s) if s.path == *path && s.depth <= limits.max_eval_depth => {
                            Pending::Hit(Arc::clone(s))
                        }
                        _ => Pending::Miss(key, path),
                    }
                })
                .collect()
        };
        let one = |p: &Pending| match p {
            Pending::Root => Ok(bitset(doc, [doc.root()])),
            Pending::Hit(s) => s.draw(pool),
            Pending::Miss(key, path) => self.evaluate(doc, *key, path, limits, pool),
        };
        let misses = pending.iter().filter(|p| matches!(p, Pending::Miss(..))).count();
        if threads > 1 && misses > 1 {
            par::run_tasks(threads, pending.iter().collect(), |p| one(p))
                .into_iter()
                .collect()
        } else {
            pending.iter().map(one).collect()
        }
    }

    /// Evaluates one object and keeps the completed set, while there is
    /// room.
    fn evaluate(
        &self,
        doc: &Document,
        key: u64,
        path: &PathExpr,
        limits: &EvalLimits,
        pool: &SharedBudget,
    ) -> Result<Arc<[u64]>, EvalError> {
        let e = eval_path_counted(doc, doc.root(), path, limits, pool)?;
        let bits = bitset(doc, e.nodes);
        let mut memo = self.lock();
        if memo.len() < MAX_OBJECT_SETS {
            let set = ObjectSet {
                path: path.clone(),
                bits: Arc::clone(&bits),
                visits: e.visits,
                depth: e.depth,
            };
            memo.entry(key).or_insert_with(|| Arc::new(set));
        }
        Ok(bits)
    }

    /// The node-type table of `doc`, built on first use.
    pub(crate) fn types(&self, doc: &Document) -> &NodeTypes {
        self.types.get_or_init(|| NodeTypes::build(doc))
    }
}

/// One type id per arena slot: elements by name, attributes by (owning
/// element name, attribute name).
pub(crate) struct NodeTypes {
    of: Vec<u32>,
    /// `(element, attribute)` names per type id.
    names: Vec<(Box<str>, Option<Box<str>>)>,
}

impl NodeTypes {
    /// One preorder walk from the document element (so detached nodes
    /// get no type).
    fn build(doc: &Document) -> NodeTypes {
        let mut b = TypeBuilder::default();
        let mut of = vec![NO_TYPE; doc.arena_len()];
        let root = doc.root();
        let mut stack = vec![(root, b.element(doc.element_name(root).unwrap_or_default()))];
        while let Some((n, t)) = stack.pop() {
            of[n.index()] = t;
            let element = doc.element_name(n).unwrap_or_default();
            for &a in doc.attributes(n) {
                of[a.index()] = b.attribute(t, element, doc.node_name(a).unwrap_or_default());
            }
            for c in doc.child_elements(n) {
                stack.push((c, b.child(t, doc.element_name(c).unwrap_or_default())));
            }
        }
        NodeTypes { of, names: b.names }
    }

    /// The type id of `n`; ids index [`NodeTypes::names`]. Text,
    /// comments and PIs have an id past its end.
    #[inline]
    pub(crate) fn of(&self, n: NodeId) -> usize {
        self.of[n.index()] as usize
    }

    /// `(element, attribute)` names, by type id.
    pub(crate) fn names(&self) -> impl Iterator<Item = (&str, Option<&str>)> {
        self.names.iter().map(|(e, a)| (&**e, a.as_deref()))
    }
}

/// The interning behind [`NodeTypes::build`]. An element type's
/// attribute and child element types are few and repeat from instance to
/// instance, so each is found by a short scan of those already seen
/// under it; only a child name new to its parent's type is hashed, with
/// the default hasher, since names come with documents that clients may
/// write.
#[derive(Default)]
struct TypeBuilder<'d> {
    names: Vec<(Box<str>, Option<Box<str>>)>,
    elements: HashMap<&'d str, u32>,
    /// Per type id: the attribute types, then the child element types,
    /// seen under an element of that type.
    attrs: Vec<Vec<(&'d str, u32)>>,
    children: Vec<Vec<(&'d str, u32)>>,
}

impl<'d> TypeBuilder<'d> {
    fn new_type(&mut self, element: &str, attr: Option<&str>) -> u32 {
        self.names.push((element.into(), attr.map(Into::into)));
        self.attrs.push(Vec::new());
        self.children.push(Vec::new());
        (self.names.len() - 1) as u32
    }

    fn element(&mut self, name: &'d str) -> u32 {
        match self.elements.get(name) {
            Some(&t) => t,
            None => {
                let t = self.new_type(name, None);
                self.elements.insert(name, t);
                t
            }
        }
    }

    fn child(&mut self, parent: u32, name: &'d str) -> u32 {
        let seen = &self.children[parent as usize];
        if let Some(&(_, t)) = seen.iter().find(|(k, _)| *k == name) {
            return t;
        }
        let t = self.element(name);
        self.children[parent as usize].push((name, t));
        t
    }

    fn attribute(&mut self, element: u32, element_name: &str, name: &'d str) -> u32 {
        let seen = &self.attrs[element as usize];
        if let Some(&(_, t)) = seen.iter().find(|(k, _)| *k == name) {
            return t;
        }
        let t = self.new_type(element_name, Some(name));
        self.attrs[element as usize].push((name, t));
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmlsec_authz::{AuthType, ObjectSpec, Sign};
    use xmlsec_subjects::Subject;
    use xmlsec_xml::cancel::CancelToken;
    use xmlsec_xml::parse;

    fn auth(path: &str) -> Authorization {
        Authorization::new(
            Subject::new("u", "*", "*").unwrap(),
            ObjectSpec::with_path("d.xml", path).unwrap(),
            Sign::Plus,
            AuthType::Recursive,
        )
    }

    fn limits() -> EvalLimits {
        EvalLimits::default()
    }

    #[test]
    fn a_memoized_set_draws_the_visits_its_evaluation_drew() {
        let doc = parse(r#"<a><b k="1"/><b k="2"><c/></b></a>"#).unwrap();
        let objects = [auth("//b[@k = \"2\"]"), auth("/a//c")];
        let auths: Vec<&Authorization> = objects.iter().collect();
        let facts = RevisionFacts::default();
        let pool = SharedBudget::new(u64::MAX);
        let first = facts.object_sets(&doc, &auths, &limits(), &pool, 1).unwrap();
        let total = u64::MAX - pool.remaining();
        assert_eq!(facts.lock().len(), 2);

        // Exactly the first run's total serves the second; one less
        // refuses it, as a fresh evaluation would be refused.
        let exact = SharedBudget::new(total);
        assert_eq!(facts.object_sets(&doc, &auths, &limits(), &exact, 1).unwrap(), first);
        assert_eq!(exact.remaining(), 0);
        let short = SharedBudget::new(total - 1);
        let e = facts.object_sets(&doc, &auths, &limits(), &short, 1).unwrap_err();
        assert_eq!(e, EvalError::NodeBudget { limit: total - 1 });
        let fresh = RevisionFacts::default();
        let e = fresh.object_sets(&doc, &auths, &limits(), &SharedBudget::new(total - 1), 1);
        assert_eq!(e.unwrap_err(), EvalError::NodeBudget { limit: total - 1 });
    }

    #[test]
    fn a_tripped_token_unwinds_at_the_draw_of_a_memoized_set() {
        let doc = parse("<a><b/></a>").unwrap();
        let objects = [auth("//b")];
        let auths: Vec<&Authorization> = objects.iter().collect();
        let facts = RevisionFacts::default();
        facts
            .object_sets(&doc, &auths, &limits(), &SharedBudget::new(u64::MAX), 1)
            .unwrap();
        let token = CancelToken::never();
        token.cancel();
        let pool = SharedBudget::with_cancel(u64::MAX, token);
        let e = facts.object_sets(&doc, &auths, &limits(), &pool, 1).unwrap_err();
        assert!(e.is_cancelled(), "{e:?}");
    }

    #[test]
    fn only_completed_evaluations_are_kept_and_copies_start_empty() {
        let doc = parse("<a><b/><b/></a>").unwrap();
        let objects = [auth("/a"), auth("//b[.//b]")];
        let auths: Vec<&Authorization> = objects.iter().collect();
        let facts = RevisionFacts::default();
        let tiny = SharedBudget::new(3);
        assert!(facts.object_sets(&doc, &auths, &limits(), &tiny, 1).is_err());
        assert_eq!(facts.lock().len(), 1, "the completed first object only");
        let shallow = EvalLimits { max_eval_depth: 1, ..limits() };
        let all = SharedBudget::new(u64::MAX);
        assert!(facts.object_sets(&doc, &auths, &limits(), &all, 1).is_ok());
        let e = facts.object_sets(&doc, &auths, &shallow, &all, 1).unwrap_err();
        assert_eq!(e, EvalError::Depth { limit: 1 }, "a kept set is no way round a limit");
        assert_eq!(facts.lock().len(), 2);
        assert_eq!(facts.clone().lock().len(), 0);
        facts.types(&doc);
        assert!(facts.clone().types.get().is_none());
    }

    #[test]
    fn equal_paths_share_one_set_and_the_memo_is_capped() {
        let doc = parse("<a><b/></a>").unwrap();
        let objects = [auth("//b"), auth("//child::b"), auth("/descendant-or-self::node()/b")];
        let auths: Vec<&Authorization> = objects.iter().collect();
        let facts = RevisionFacts::default();
        facts
            .object_sets(&doc, &auths, &limits(), &SharedBudget::new(u64::MAX), 1)
            .unwrap();
        assert_eq!(facts.lock().len(), 1, "one parsed path, three spellings");

        let many: Vec<Authorization> =
            (0..MAX_OBJECT_SETS + 8).map(|i| auth(&format!("//b[@n = {i}]"))).collect();
        let many: Vec<&Authorization> = many.iter().collect();
        facts
            .object_sets(&doc, &many, &limits(), &SharedBudget::new(u64::MAX), 2)
            .unwrap();
        assert_eq!(facts.lock().len(), MAX_OBJECT_SETS);
    }

    #[test]
    fn node_types_name_elements_and_attribute_pairs() {
        let doc = parse(r#"<a x="1"><b x="2"/><b x="3" y="4">t</b></a>"#).unwrap();
        let types = NodeTypes::build(&doc);
        let name = |n: NodeId| types.names().nth(types.of(n));
        let root = doc.root();
        let bs: Vec<NodeId> = doc.child_elements(root).collect();
        assert_eq!(name(root), Some(("a", None)));
        assert_eq!(types.of(bs[0]), types.of(bs[1]));
        assert_eq!(name(doc.attributes(root)[0]), Some(("a", Some("x"))));
        assert_eq!(name(doc.attributes(bs[1])[0]), Some(("b", Some("x"))));
        assert_eq!(types.of(doc.attributes(bs[0])[0]), types.of(doc.attributes(bs[1])[0]));
        assert_eq!(name(doc.children(bs[1])[0]), None, "text has no type");
        assert_eq!(types.names().count(), 5);
    }
}
