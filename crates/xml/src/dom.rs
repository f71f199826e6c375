//! Arena-based DOM.
//!
//! The paper's security processor (its §7) represents documents as DOM
//! Level 1 object trees. We use a **generational-index arena**: a
//! [`Document`] owns a single `Vec` of slots, every link is a [`NodeId`]
//! carrying both the slot index and the slot's generation, and freed
//! slots go on a free list for reuse. This matches the paper's tree
//! model exactly — elements are internal nodes, attributes and text
//! values are leaves attached to their element — while keeping
//! traversals allocation-free and cache-friendly.
//!
//! The generation in each id is what makes in-place *updates* safe: when
//! a subtree is removed ([`Document::remove_subtree`]) its slots are
//! recycled with a bumped generation, so any id that survived from
//! before the removal can never silently alias a new node occupying the
//! same index (the classic ABA hazard of plain index arenas). Accessing
//! a node through a stale id panics instead of reading the wrong node.
//!
//! Attributes are first-class nodes (the paper's Figure 1(b) draws them as
//! squares in the tree) because the labeling algorithm assigns them their
//! own authorization 6-tuples and XPath can address them.

use crate::error::{Pos, Result, XmlError, XmlErrorKind};
use crate::name::is_valid_name;
use std::fmt;

/// Handle to a node within its [`Document`] arena: slot index plus the
/// slot generation current when the node was allocated.
///
/// Ordering is index-major (generation is a tie-break that never fires
/// for ids live in the same document), so for parser-built documents a
/// plain sort of ids is still a document-order sort — the contract the
/// XPath evaluator relies on via [`Document::ids_preordered`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId {
    idx: u32,
    gen: u32,
}

impl NodeId {
    /// Builds an id from raw parts. Normal code receives ids from the
    /// [`Document`] mutation API; this is for tests and tools that
    /// reconstruct ids (pair it with [`Document::node_id_at`]).
    #[inline]
    pub fn new(index: u32, generation: u32) -> Self {
        NodeId { idx: index, gen: generation }
    }

    /// The arena slot index as a `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.idx as usize
    }

    /// The generation of the slot this id points into.
    #[inline]
    pub fn generation(self) -> u32 {
        self.gen
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.gen == 0 {
            write!(f, "#{}", self.idx)
        } else {
            write!(f, "#{}.g{}", self.idx, self.gen)
        }
    }
}

/// The payload of a node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeData {
    /// An element: `<name attr...>children</name>`.
    Element {
        /// Tag name.
        name: String,
        /// Attribute nodes, in document order. Each is a `NodeData::Attr`.
        attrs: Vec<NodeId>,
        /// Child nodes (elements, text, comments, PIs), in document order.
        children: Vec<NodeId>,
    },
    /// An attribute `name="value"` of its parent element.
    Attr {
        /// Attribute name.
        name: String,
        /// Attribute value, already unescaped.
        value: String,
    },
    /// Character data (entity references already resolved).
    Text(String),
    /// A comment `<!-- ... -->`.
    Comment(String),
    /// A processing instruction `<?target data?>`.
    Pi {
        /// PI target.
        target: String,
        /// PI data (may be empty).
        data: String,
    },
}

/// A node in the arena: payload plus a parent link.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Node {
    /// Parent node; `None` only for the document element.
    pub parent: Option<NodeId>,
    /// Payload.
    pub data: NodeData,
}

/// One arena slot: the current generation plus the occupying node, if
/// any. A vacant slot's index is on the free list; its generation has
/// already been bumped past every id ever handed out for it.
#[derive(Debug, Clone)]
struct Slot {
    gen: u32,
    node: Option<Node>,
}

/// Captured `<!DOCTYPE ...>` information.
///
/// The processor needs the DTD hook (name + external id + internal subset
/// text) so that schema-level authorizations and the loosening
/// transformation can find the schema; the DTD itself is parsed by
/// `xmlsec-dtd`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Doctype {
    /// The declared document-element name.
    pub name: String,
    /// `SYSTEM` identifier, if present.
    pub system_id: Option<String>,
    /// `PUBLIC` identifier, if present.
    pub public_id: Option<String>,
    /// Raw text of the internal subset (between `[` and `]`), if present.
    pub internal_subset: Option<String>,
}

/// An XML document as a generational arena of nodes.
///
/// Invariants maintained by the mutation API:
/// - `root` is an `Element` with `parent == None`;
/// - every other reachable node's `parent` is the node that lists it in
///   `attrs`/`children`;
/// - attribute names are unique per element;
/// - a live [`NodeId`]'s generation matches its slot's generation, and a
///   freed slot's generation exceeds every id ever issued for it.
///
/// Detached nodes may linger in the arena after pruning (the processor's
/// per-request documents are short-lived); long-lived documents mutated
/// by the update path instead call [`Document::remove_subtree`], which
/// recycles the slots through the free list.
#[derive(Debug, Clone)]
pub struct Document {
    slots: Vec<Slot>,
    free: Vec<u32>,
    root: NodeId,
    /// DOCTYPE declaration, if the source had one.
    pub doctype: Option<Doctype>,
    /// Most recently allocated node (order-invariant tracking).
    last_alloc: NodeId,
    /// Whether arena ids are still a preorder of the tree (attributes
    /// before children). Parser-built documents keep this `true`; callers
    /// that mutate out of order flip it, and consumers (the XPath
    /// evaluator) fall back to a structural document-order sort.
    ids_preordered: bool,
}

#[cold]
#[inline(never)]
fn stale_node_id(id: NodeId, slot_gen: u32, vacant: bool) -> ! {
    if vacant {
        panic!("stale NodeId {id}: slot is vacant (generation now {slot_gen})");
    }
    panic!("stale NodeId {id}: slot was recycled (generation now {slot_gen})");
}

impl Document {
    /// Creates a document whose root element is named `root_name`.
    ///
    /// # Panics
    /// Panics if `root_name` is not a valid XML name.
    pub fn new(root_name: &str) -> Self {
        assert!(is_valid_name(root_name), "invalid root element name {root_name:?}");
        let root = Node {
            parent: None,
            data: NodeData::Element {
                name: root_name.to_string(),
                attrs: Vec::new(),
                children: Vec::new(),
            },
        };
        Document {
            slots: vec![Slot { gen: 0, node: Some(root) }],
            free: Vec::new(),
            root: NodeId::new(0, 0),
            doctype: None,
            last_alloc: NodeId::new(0, 0),
            ids_preordered: true,
        }
    }

    /// `true` while arena ids enumerate the tree in document order
    /// (attributes of an element before its children). Guaranteed for
    /// parser-built documents; appending anywhere except "after
    /// everything so far" — or allocating into a recycled slot — clears
    /// it.
    #[inline]
    pub fn ids_preordered(&self) -> bool {
        self.ids_preordered
    }

    /// Does appending a child under `parent` keep arena ids preordered?
    /// Yes iff `parent` is the last allocated node or one of its
    /// ancestors (the new node then follows everything allocated so far).
    fn append_keeps_preorder(&self, parent: NodeId) -> bool {
        if parent == self.last_alloc {
            return true;
        }
        let mut cur = self.parent(self.last_alloc);
        while let Some(p) = cur {
            if p == parent {
                return true;
            }
            cur = self.parent(p);
        }
        false
    }

    /// The document element.
    #[inline]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Total number of arena slots (live, detached, and vacant).
    #[inline]
    pub fn arena_len(&self) -> usize {
        self.slots.len()
    }

    /// Number of vacant (recycled, reusable) slots.
    #[inline]
    pub fn free_len(&self) -> usize {
        self.free.len()
    }

    /// Whether `id` is live in this arena: its slot is occupied and the
    /// generations match. Detached-but-not-freed nodes are live.
    pub fn contains(&self, id: NodeId) -> bool {
        self.slots
            .get(id.index())
            .is_some_and(|s| s.gen == id.generation() && s.node.is_some())
    }

    /// The live id occupying slot `index`, if any. The inverse of
    /// [`NodeId::index`] for tools that enumerate the arena.
    pub fn node_id_at(&self, index: usize) -> Option<NodeId> {
        let slot = self.slots.get(index)?;
        slot.node.as_ref()?;
        Some(NodeId::new(index as u32, slot.gen))
    }

    /// The generation currently stored in slot `index` (whether or not
    /// the slot is occupied); `None` past the end of the arena.
    pub fn slot_generation(&self, index: usize) -> Option<u32> {
        self.slots.get(index).map(|s| s.gen)
    }

    /// Immutable access to a node.
    ///
    /// # Panics
    /// Panics if `id` is stale: its slot was freed (and possibly
    /// recycled) since the id was issued.
    #[inline]
    pub fn node(&self, id: NodeId) -> &Node {
        let slot = &self.slots[id.index()];
        match &slot.node {
            Some(n) if slot.gen == id.generation() => n,
            other => stale_node_id(id, slot.gen, other.is_none()),
        }
    }

    /// Mutable access to a node.
    ///
    /// # Panics
    /// Panics if `id` is stale (see [`Document::node`]).
    #[inline]
    pub fn node_mut(&mut self, id: NodeId) -> &mut Node {
        let slot = &mut self.slots[id.index()];
        if slot.gen != id.generation() || slot.node.is_none() {
            let vacant = slot.node.is_none();
            stale_node_id(id, slot.gen, vacant);
        }
        slot.node.as_mut().expect("occupancy checked above")
    }

    fn alloc(&mut self, node: Node) -> NodeId {
        let id = match self.free.pop() {
            Some(idx) => {
                // A recycled (low) index can never extend a preorder.
                self.ids_preordered = false;
                let slot = &mut self.slots[idx as usize];
                debug_assert!(slot.node.is_none(), "free list held an occupied slot");
                slot.node = Some(node);
                NodeId::new(idx, slot.gen)
            }
            None => {
                let idx = u32::try_from(self.slots.len()).expect("arena overflow");
                self.slots.push(Slot { gen: 0, node: Some(node) });
                NodeId::new(idx, 0)
            }
        };
        self.last_alloc = id;
        id
    }

    // ------------------------------------------------------------------
    // Construction
    // ------------------------------------------------------------------

    /// Creates a new element named `name` and appends it to `parent`'s children.
    pub fn append_element(&mut self, parent: NodeId, name: &str) -> NodeId {
        debug_assert!(is_valid_name(name), "invalid element name {name:?}");
        self.ids_preordered &= self.append_keeps_preorder(parent);
        let id = self.alloc(Node {
            parent: Some(parent),
            data: NodeData::Element {
                name: name.to_string(),
                attrs: Vec::new(),
                children: Vec::new(),
            },
        });
        self.children_mut(parent).push(id);
        id
    }

    /// Appends a text node to `parent`.
    pub fn append_text(&mut self, parent: NodeId, text: &str) -> NodeId {
        self.ids_preordered &= self.append_keeps_preorder(parent);
        let id = self.alloc(Node { parent: Some(parent), data: NodeData::Text(text.to_string()) });
        self.children_mut(parent).push(id);
        id
    }

    /// Appends a comment node to `parent`.
    pub fn append_comment(&mut self, parent: NodeId, text: &str) -> NodeId {
        self.ids_preordered &= self.append_keeps_preorder(parent);
        let id =
            self.alloc(Node { parent: Some(parent), data: NodeData::Comment(text.to_string()) });
        self.children_mut(parent).push(id);
        id
    }

    /// Appends a processing instruction to `parent`.
    pub fn append_pi(&mut self, parent: NodeId, target: &str, data: &str) -> NodeId {
        self.ids_preordered &= self.append_keeps_preorder(parent);
        let id = self.alloc(Node {
            parent: Some(parent),
            data: NodeData::Pi { target: target.to_string(), data: data.to_string() },
        });
        self.children_mut(parent).push(id);
        id
    }

    /// Sets (or replaces) attribute `name` on `element`, returning the
    /// attribute node id.
    ///
    /// Returns an error if `element` is not an element.
    pub fn set_attribute(&mut self, element: NodeId, name: &str, value: &str) -> Result<NodeId> {
        debug_assert!(is_valid_name(name), "invalid attribute name {name:?}");
        if let Some(existing) = self.attribute_node(element, name) {
            if let NodeData::Attr { value: v, .. } = &mut self.node_mut(existing).data {
                *v = value.to_string();
            }
            return Ok(existing);
        }
        // A new attribute keeps preorder while its element has no
        // children yet and is still "current": either it was the most
        // recent allocation or the most recent allocation was one of its
        // own attributes (attributes sort before children in document
        // order).
        self.ids_preordered &= self.children(element).is_empty()
            && (element == self.last_alloc
                || (self.parent(self.last_alloc) == Some(element)
                    && self.is_attribute(self.last_alloc)));
        let id = self.alloc(Node {
            parent: Some(element),
            data: NodeData::Attr { name: name.to_string(), value: value.to_string() },
        });
        match &mut self.node_mut(element).data {
            NodeData::Element { attrs, .. } => {
                attrs.push(id);
                Ok(id)
            }
            _ => Err(XmlError::new(XmlErrorKind::MalformedAttribute(name.to_string()), Pos::START)),
        }
    }

    // ------------------------------------------------------------------
    // In-order construction (the parser's appenders)
    // ------------------------------------------------------------------

    /// A document holding only its root element `name`, with arena room
    /// for `capacity` nodes. The caller has validated `name`.
    pub(crate) fn with_root(name: String, capacity: usize) -> Document {
        let mut slots = Vec::with_capacity(capacity.max(1));
        let root = NodeData::Element { name, attrs: Vec::new(), children: Vec::new() };
        slots.push(Slot { gen: 0, node: Some(Node { parent: None, data: root }) });
        Document {
            slots,
            free: Vec::new(),
            root: NodeId::new(0, 0),
            doctype: None,
            last_alloc: NodeId::new(0, 0),
            ids_preordered: true,
        }
    }

    /// Appends `data` as the last child of `parent` (or, for an
    /// attribute, as the last attribute of element `parent`) in a fresh
    /// slot. Sound only while the document is built in document order
    /// (attributes right after their element, before its children) with
    /// unique attribute names — which is how the parser calls it — so
    /// arena ids stay a preorder without being checked and no
    /// duplicate-attribute lookup is made.
    pub(crate) fn push_in_order(&mut self, parent: NodeId, data: NodeData) -> NodeId {
        let is_attr = matches!(data, NodeData::Attr { .. });
        let idx = u32::try_from(self.slots.len()).expect("arena overflow");
        let id = NodeId::new(idx, 0);
        self.slots
            .push(Slot { gen: 0, node: Some(Node { parent: Some(parent), data }) });
        self.last_alloc = id;
        match &mut self.node_mut(parent).data {
            NodeData::Element { attrs, .. } if is_attr => attrs.push(id),
            NodeData::Element { children, .. } => children.push(id),
            other => panic!("cannot append to non-element node: {other:?}"),
        }
        id
    }

    fn children_mut(&mut self, id: NodeId) -> &mut Vec<NodeId> {
        match &mut self.node_mut(id).data {
            NodeData::Element { children, .. } => children,
            other => panic!("cannot append children to non-element node: {other:?}"),
        }
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// Element/tag name, or `None` for non-elements.
    pub fn element_name(&self, id: NodeId) -> Option<&str> {
        match &self.node(id).data {
            NodeData::Element { name, .. } => Some(name),
            _ => None,
        }
    }

    /// The name of a node usable in path expressions: the tag name for
    /// elements, the attribute name for attributes, `None` otherwise.
    pub fn node_name(&self, id: NodeId) -> Option<&str> {
        match &self.node(id).data {
            NodeData::Element { name, .. } | NodeData::Attr { name, .. } => Some(name),
            _ => None,
        }
    }

    /// Returns `true` if `id` is an element.
    #[inline]
    pub fn is_element(&self, id: NodeId) -> bool {
        matches!(self.node(id).data, NodeData::Element { .. })
    }

    /// Returns `true` if `id` is an attribute node.
    #[inline]
    pub fn is_attribute(&self, id: NodeId) -> bool {
        matches!(self.node(id).data, NodeData::Attr { .. })
    }

    /// Returns `true` if `id` is a text node.
    #[inline]
    pub fn is_text(&self, id: NodeId) -> bool {
        matches!(self.node(id).data, NodeData::Text(_))
    }

    /// Child nodes of an element (empty slice otherwise).
    pub fn children(&self, id: NodeId) -> &[NodeId] {
        match &self.node(id).data {
            NodeData::Element { children, .. } => children,
            _ => &[],
        }
    }

    /// Attribute nodes of an element (empty slice otherwise).
    pub fn attributes(&self, id: NodeId) -> &[NodeId] {
        match &self.node(id).data {
            NodeData::Element { attrs, .. } => attrs,
            _ => &[],
        }
    }

    /// Element children of an element, skipping text/comment/PI nodes.
    pub fn child_elements<'a>(&'a self, id: NodeId) -> impl Iterator<Item = NodeId> + 'a {
        self.children(id).iter().copied().filter(|&c| self.is_element(c))
    }

    /// Parent of `id`.
    #[inline]
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        self.node(id).parent
    }

    /// The attribute node named `name` on `element`, if any.
    pub fn attribute_node(&self, element: NodeId, name: &str) -> Option<NodeId> {
        self.attributes(element).iter().copied().find(|&a| match &self.node(a).data {
            NodeData::Attr { name: n, .. } => n == name,
            _ => false,
        })
    }

    /// The value of attribute `name` on `element`, if present.
    pub fn attribute(&self, element: NodeId, name: &str) -> Option<&str> {
        self.attribute_node(element, name).and_then(|a| match &self.node(a).data {
            NodeData::Attr { value, .. } => Some(value.as_str()),
            _ => None,
        })
    }

    /// The value of an attribute node.
    pub fn attr_value(&self, attr: NodeId) -> Option<&str> {
        match &self.node(attr).data {
            NodeData::Attr { value, .. } => Some(value.as_str()),
            _ => None,
        }
    }

    /// Concatenated text of all descendant text nodes (XPath's
    /// string-value of an element), or the value for attribute/text nodes.
    pub fn text_value(&self, id: NodeId) -> String {
        match &self.node(id).data {
            NodeData::Attr { value, .. } => value.clone(),
            NodeData::Text(t) => t.clone(),
            NodeData::Comment(_) | NodeData::Pi { .. } => String::new(),
            NodeData::Element { .. } => {
                let mut out = String::new();
                self.collect_text(id, &mut out);
                out
            }
        }
    }

    fn collect_text(&self, id: NodeId, out: &mut String) {
        for &c in self.children(id) {
            match &self.node(c).data {
                NodeData::Text(t) => out.push_str(t),
                NodeData::Element { .. } => self.collect_text(c, out),
                _ => {}
            }
        }
    }

    // ------------------------------------------------------------------
    // Traversal
    // ------------------------------------------------------------------

    /// Preorder (document-order) traversal of elements and their
    /// attributes, starting at `start`. Attributes of an element are
    /// visited right after the element itself, before its children — the
    /// order the labeling algorithm needs.
    pub fn preorder(&self, start: NodeId) -> Preorder<'_> {
        Preorder { doc: self, stack: vec![start] }
    }

    /// All descendant elements of `id` (not including `id`), in document order.
    pub fn descendant_elements(&self, id: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut stack: Vec<NodeId> = self.child_elements(id).collect();
        stack.reverse();
        while let Some(n) = stack.pop() {
            out.push(n);
            let mut kids: Vec<NodeId> = self.child_elements(n).collect();
            kids.reverse();
            stack.extend(kids);
        }
        out
    }

    /// Ancestors of `id`, nearest first (excludes `id` itself).
    pub fn ancestors<'a>(&'a self, id: NodeId) -> impl Iterator<Item = NodeId> + 'a {
        std::iter::successors(self.parent(id), move |&n| self.parent(n))
    }

    /// Depth of `id` (root is 0; an attribute is one deeper than its element).
    pub fn depth(&self, id: NodeId) -> usize {
        self.ancestors(id).count()
    }

    /// Position key of `id` under its parent: attributes sort before
    /// child nodes (they are written inside the start tag), each by
    /// slot index.
    fn sibling_key(&self, id: NodeId) -> (u8, usize) {
        let Some(p) = self.parent(id) else { return (0, 0) };
        if self.is_attribute(id) {
            (0, self.attributes(p).iter().position(|&a| a == id).unwrap_or(usize::MAX))
        } else {
            (1, self.children(p).iter().position(|&c| c == id).unwrap_or(usize::MAX))
        }
    }

    /// True document-order comparison of two reachable nodes.
    ///
    /// Arena ids follow document order for freshly parsed documents, but
    /// mutation (updates inserting elements, late `set_attribute` calls)
    /// can break that correspondence; this comparator is always correct.
    /// Ancestors precede their descendants; an element's attributes
    /// precede its children. Allocation-free: the nodes are lifted to a
    /// common depth, walked up to their lowest common ancestor, and
    /// compared by sibling position there.
    pub fn document_order(&self, a: NodeId, b: NodeId) -> std::cmp::Ordering {
        use std::cmp::Ordering;
        if a == b {
            return Ordering::Equal;
        }
        let (da, db) = (self.depth(a), self.depth(b));
        let (mut x, mut y) = (a, b);
        // Lift the deeper node; if it reaches the other, that other is an
        // ancestor and precedes it.
        for _ in db..da {
            x = self.parent(x).expect("depth accounted for");
        }
        if x == b {
            return Ordering::Greater; // b is an ancestor of a
        }
        for _ in da..db {
            y = self.parent(y).expect("depth accounted for");
        }
        if y == a {
            return Ordering::Less; // a is an ancestor of b
        }
        // Walk both up until just below the common ancestor.
        while self.parent(x) != self.parent(y) {
            x = self.parent(x).expect("nodes share a root");
            y = self.parent(y).expect("nodes share a root");
        }
        self.sibling_key(x).cmp(&self.sibling_key(y))
    }

    /// Number of reachable nodes (elements + attributes + text + other),
    /// computed by traversal — detached arena slots are not counted.
    pub fn count_reachable(&self) -> usize {
        let mut n = 0usize;
        let mut stack = vec![self.root];
        while let Some(id) = stack.pop() {
            n += 1;
            n += self.attributes(id).len();
            for &c in self.children(id) {
                if self.is_element(c) {
                    stack.push(c);
                } else {
                    n += 1;
                }
            }
        }
        n
    }

    // ------------------------------------------------------------------
    // Mutation (pruning and update support)
    // ------------------------------------------------------------------

    /// Detaches `id` from its parent (it stays in the arena, unreachable,
    /// and its id remains valid).
    ///
    /// Detaching the root is not allowed and is a no-op returning `false`.
    pub fn detach(&mut self, id: NodeId) -> bool {
        let Some(p) = self.node(id).parent else { return false };
        let is_attr = self.is_attribute(id);
        match &mut self.node_mut(p).data {
            NodeData::Element { attrs, children, .. } => {
                if is_attr {
                    attrs.retain(|&a| a != id);
                } else {
                    children.retain(|&c| c != id);
                }
            }
            _ => return false,
        }
        self.node_mut(id).parent = None;
        true
    }

    /// Detaches `id` from its parent and frees its whole subtree
    /// (including attribute nodes): the slots are vacated, their
    /// generations bumped, and their indices recycled through the free
    /// list. Every id into the subtree becomes stale. Returns the number
    /// of nodes freed; removing the root is refused (returns 0).
    ///
    /// This is the update path's deletion primitive — unlike
    /// [`Document::detach`], the arena does not grow monotonically under
    /// churn.
    pub fn remove_subtree(&mut self, id: NodeId) -> usize {
        if id == self.root {
            return 0;
        }
        self.detach(id);
        let mut freed = 0usize;
        let mut stack = vec![id];
        while let Some(n) = stack.pop() {
            if let NodeData::Element { attrs, children, .. } = &self.node(n).data {
                stack.extend(attrs.iter().copied());
                stack.extend(children.iter().copied());
            }
            self.free_slot(n);
            freed += 1;
        }
        freed
    }

    /// Vacates one slot: bumps its generation (staling every outstanding
    /// id for it) and recycles the index.
    fn free_slot(&mut self, id: NodeId) {
        let slot = &mut self.slots[id.index()];
        assert!(
            slot.gen == id.generation() && slot.node.is_some(),
            "freeing through a stale NodeId {id}"
        );
        slot.node = None;
        slot.gen = slot.gen.wrapping_add(1);
        self.free.push(id.index() as u32);
        // `last_alloc` must always be live (preorder bookkeeping walks
        // its ancestor chain); fall back to the root, which is sound:
        // after a free the free list is non-empty, so the next alloc
        // recycles a slot and clears `ids_preordered` anyway.
        if self.last_alloc == id {
            self.last_alloc = self.root;
        }
    }

    /// Deep-copies the subtree rooted at `src_id` in `src` into `self`,
    /// appending it under `parent`. Returns the new root of the copy.
    pub fn import_subtree(&mut self, parent: NodeId, src: &Document, src_id: NodeId) -> NodeId {
        match &src.node(src_id).data {
            NodeData::Element { name, .. } => {
                let name = name.clone();
                let new_el = self.append_element(parent, &name);
                for &a in src.attributes(src_id) {
                    if let NodeData::Attr { name, value } = &src.node(a).data {
                        let (n, v) = (name.clone(), value.clone());
                        self.set_attribute(new_el, &n, &v).expect("new node is an element");
                    }
                }
                for &c in src.children(src_id) {
                    self.import_subtree(new_el, src, c);
                }
                new_el
            }
            NodeData::Text(t) => {
                let t = t.clone();
                self.append_text(parent, &t)
            }
            NodeData::Comment(t) => {
                let t = t.clone();
                self.append_comment(parent, &t)
            }
            NodeData::Pi { target, data } => {
                let (t, d) = (target.clone(), data.clone());
                self.append_pi(parent, &t, &d)
            }
            NodeData::Attr { .. } => panic!("cannot import an attribute as a subtree"),
        }
    }

    /// Replaces the subtree rooted at `target` with a deep copy of
    /// `src_id` from `src`, splicing the copy into `target`'s former
    /// position among its parent's children. The old subtree's slots are
    /// freed and recycled. Returns the id of the new subtree root, or
    /// `None` if `target` is the document root (which cannot be
    /// replaced).
    pub fn replace_with_subtree(
        &mut self,
        target: NodeId,
        src: &Document,
        src_id: NodeId,
    ) -> Option<NodeId> {
        let parent = self.parent(target)?;
        let pos = self.children(parent).iter().position(|&c| c == target)?;
        self.remove_subtree(target);
        let new_id = self.import_subtree(parent, src, src_id);
        let children = self.children_mut(parent);
        let last = children.pop().expect("import_subtree appended the new root");
        debug_assert_eq!(last, new_id);
        children.insert(pos, new_id);
        Some(new_id)
    }

    /// Structural equality of two documents (names, attributes in order,
    /// children in order, text). Doctype is ignored.
    pub fn structurally_equal(&self, other: &Document) -> bool {
        fn eq(a: &Document, an: NodeId, b: &Document, bn: NodeId) -> bool {
            match (&a.node(an).data, &b.node(bn).data) {
                (NodeData::Element { name: n1, .. }, NodeData::Element { name: n2, .. }) => {
                    if n1 != n2 {
                        return false;
                    }
                    let (aa, ba) = (a.attributes(an), b.attributes(bn));
                    if aa.len() != ba.len() {
                        return false;
                    }
                    for (&x, &y) in aa.iter().zip(ba) {
                        if a.node(x).data != b.node(y).data {
                            return false;
                        }
                    }
                    let (ac, bc) = (a.children(an), b.children(bn));
                    if ac.len() != bc.len() {
                        return false;
                    }
                    ac.iter().zip(bc).all(|(&x, &y)| eq(a, x, b, y))
                }
                (x, y) => x == y,
            }
        }
        eq(self, self.root, other, other.root)
    }
}

/// Preorder iterator yielding elements and attributes in document order.
pub struct Preorder<'a> {
    doc: &'a Document,
    stack: Vec<NodeId>,
}

impl<'a> Iterator for Preorder<'a> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let id = self.stack.pop()?;
        if self.doc.is_element(id) {
            // Push children reversed so they pop in document order; then
            // attributes reversed so they come before children.
            let children = self.doc.children(id);
            for &c in children.iter().rev() {
                if self.doc.is_element(c) {
                    self.stack.push(c);
                }
            }
            for &a in self.doc.attributes(id).iter().rev() {
                self.stack.push(a);
            }
        }
        Some(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Document {
        // <lab><project name="p1"><paper/>text</project><project name="p2"/></lab>
        let mut d = Document::new("lab");
        let p1 = d.append_element(d.root(), "project");
        d.set_attribute(p1, "name", "p1").unwrap();
        d.append_element(p1, "paper");
        d.append_text(p1, "text");
        let p2 = d.append_element(d.root(), "project");
        d.set_attribute(p2, "name", "p2").unwrap();
        d
    }

    #[test]
    fn construction_and_navigation() {
        let d = sample();
        let root = d.root();
        assert_eq!(d.element_name(root), Some("lab"));
        let kids: Vec<_> = d.child_elements(root).collect();
        assert_eq!(kids.len(), 2);
        assert_eq!(d.attribute(kids[0], "name"), Some("p1"));
        assert_eq!(d.attribute(kids[1], "name"), Some("p2"));
        assert_eq!(d.parent(kids[0]), Some(root));
    }

    #[test]
    fn set_attribute_replaces_value_in_place() {
        let mut d = Document::new("a");
        let id1 = d.set_attribute(d.root(), "k", "v1").unwrap();
        let id2 = d.set_attribute(d.root(), "k", "v2").unwrap();
        assert_eq!(id1, id2);
        assert_eq!(d.attribute(d.root(), "k"), Some("v2"));
        assert_eq!(d.attributes(d.root()).len(), 1);
    }

    #[test]
    fn text_value_concatenates_descendants() {
        let mut d = Document::new("a");
        let b = d.append_element(d.root(), "b");
        d.append_text(b, "hello ");
        let c = d.append_element(b, "c");
        d.append_text(c, "world");
        assert_eq!(d.text_value(d.root()), "hello world");
        assert_eq!(d.text_value(b), "hello world");
    }

    #[test]
    fn preorder_visits_attrs_before_children() {
        let d = sample();
        let names: Vec<String> = d
            .preorder(d.root())
            .map(|id| match &d.node(id).data {
                NodeData::Element { name, .. } => format!("<{name}>"),
                NodeData::Attr { name, .. } => format!("@{name}"),
                _ => "?".into(),
            })
            .collect();
        assert_eq!(names, vec!["<lab>", "<project>", "@name", "<paper>", "<project>", "@name"]);
    }

    #[test]
    fn ancestors_and_depth() {
        let d = sample();
        let p1 = d.child_elements(d.root()).next().unwrap();
        let paper = d.child_elements(p1).next().unwrap();
        let anc: Vec<_> = d.ancestors(paper).collect();
        assert_eq!(anc, vec![p1, d.root()]);
        assert_eq!(d.depth(paper), 2);
        assert_eq!(d.depth(d.root()), 0);
    }

    #[test]
    fn detach_removes_from_parent() {
        let mut d = sample();
        let p1 = d.child_elements(d.root()).next().unwrap();
        assert!(d.detach(p1));
        assert_eq!(d.child_elements(d.root()).count(), 1);
        assert_eq!(d.parent(p1), None);
        // Detaching the root is refused.
        let r = d.root();
        assert!(!d.detach(r));
    }

    #[test]
    fn detach_attribute() {
        let mut d = sample();
        let p1 = d.child_elements(d.root()).next().unwrap();
        let a = d.attribute_node(p1, "name").unwrap();
        assert!(d.detach(a));
        assert_eq!(d.attribute(p1, "name"), None);
    }

    #[test]
    fn import_subtree_deep_copies() {
        let src = sample();
        let mut dst = Document::new("copy");
        let p1 = src.child_elements(src.root()).next().unwrap();
        let new_root = dst.import_subtree(dst.root(), &src, p1);
        assert_eq!(dst.element_name(new_root), Some("project"));
        assert_eq!(dst.attribute(new_root, "name"), Some("p1"));
        assert_eq!(dst.text_value(new_root), "text");
    }

    #[test]
    fn structural_equality() {
        let a = sample();
        let b = sample();
        assert!(a.structurally_equal(&b));
        let mut c = sample();
        let p1 = c.child_elements(c.root()).next().unwrap();
        c.set_attribute(p1, "name", "other").unwrap();
        assert!(!a.structurally_equal(&c));
    }

    #[test]
    fn count_reachable_ignores_detached() {
        let mut d = sample();
        let before = d.count_reachable();
        let p1 = d.child_elements(d.root()).next().unwrap();
        d.detach(p1);
        // p1 subtree: project + @name + paper + text = 4 nodes
        assert_eq!(d.count_reachable(), before - 4);
    }

    #[test]
    fn descendant_elements_in_document_order() {
        let d = sample();
        let names: Vec<_> = d
            .descendant_elements(d.root())
            .into_iter()
            .map(|id| d.element_name(id).unwrap().to_string())
            .collect();
        assert_eq!(names, vec!["project", "paper", "project"]);
    }

    // ---- generational-arena behaviors ------------------------------------

    #[test]
    fn remove_subtree_frees_and_recycles_slots() {
        let mut d = sample();
        let len_before = d.arena_len();
        let p1 = d.child_elements(d.root()).next().unwrap();
        // p1 subtree: project + @name + paper + text = 4 nodes
        assert_eq!(d.remove_subtree(p1), 4);
        assert_eq!(d.free_len(), 4);
        assert!(!d.contains(p1));
        // New allocations reuse the vacated slots instead of growing.
        let e = d.append_element(d.root(), "fresh");
        assert_eq!(d.arena_len(), len_before);
        assert!(d.contains(e));
        assert_eq!(d.free_len(), 3);
    }

    #[test]
    fn recycled_slot_gets_new_generation() {
        let mut d = sample();
        let p1 = d.child_elements(d.root()).next().unwrap();
        d.remove_subtree(p1);
        // Allocate until p1's slot is reused.
        let mut reused = None;
        for k in 0..8 {
            let e = d.append_element(d.root(), "n");
            if e.index() == p1.index() {
                reused = Some(e);
                break;
            }
            let _ = k;
        }
        let e = reused.expect("free list must hand back the vacated slot");
        assert_ne!(e, p1, "same index must carry a different generation");
        assert_eq!(e.generation(), p1.generation() + 1);
        // The live id works; the stale one is detectably dead.
        assert_eq!(d.element_name(e), Some("n"));
        assert!(!d.contains(p1));
        assert_eq!(d.node_id_at(p1.index()), Some(e));
    }

    #[test]
    #[should_panic(expected = "stale NodeId")]
    fn stale_id_access_panics() {
        let mut d = sample();
        let p1 = d.child_elements(d.root()).next().unwrap();
        d.remove_subtree(p1);
        let _ = d.node(p1); // ABA protection: must not read a recycled slot
    }

    #[test]
    fn alloc_from_free_list_clears_preorder() {
        let mut d = sample();
        assert!(d.ids_preordered());
        let p1 = d.child_elements(d.root()).next().unwrap();
        d.remove_subtree(p1);
        // Removal alone keeps the (subsequence) preorder…
        assert!(d.ids_preordered());
        // …but a recycled low index cannot extend it.
        d.append_element(d.root(), "late");
        assert!(!d.ids_preordered());
    }

    #[test]
    fn remove_last_alloc_keeps_document_usable() {
        let mut d = Document::new("a");
        let b = d.append_element(d.root(), "b");
        d.remove_subtree(b); // frees the tracked last_alloc
        let c = d.append_element(d.root(), "c");
        assert!(d.contains(c));
        assert_eq!(d.child_elements(d.root()).count(), 1);
    }

    #[test]
    fn replace_with_subtree_preserves_position() {
        let mut d = sample();
        let kids: Vec<_> = d.child_elements(d.root()).collect();
        let (p1, p2) = (kids[0], kids[1]);
        let mut src = Document::new("swap");
        let repl = src.append_element(src.root(), "replacement");
        src.set_attribute(repl, "name", "r").unwrap();
        let new_id = d.replace_with_subtree(p1, &src, repl).unwrap();
        let kids_after: Vec<_> = d.child_elements(d.root()).collect();
        assert_eq!(kids_after, vec![new_id, p2], "splice keeps the sibling position");
        assert_eq!(d.element_name(new_id), Some("replacement"));
        assert!(!d.contains(p1));
        // Replacing the root is refused.
        let r = d.root();
        assert!(d.replace_with_subtree(r, &src, repl).is_none());
    }

    #[test]
    fn node_id_roundtrip_through_raw_parts() {
        let d = sample();
        for n in d.preorder(d.root()) {
            let rebuilt = NodeId::new(n.index() as u32, n.generation());
            assert_eq!(rebuilt, n);
            assert_eq!(d.node_id_at(n.index()), Some(n));
        }
        assert_eq!(d.node_id_at(d.arena_len()), None);
    }
}
