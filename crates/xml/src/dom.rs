//! Arena-based DOM in three flat buffers.
//!
//! The paper's security processor (its §7) represents documents as DOM
//! Level 1 object trees. We use a **generational-index arena**: every
//! link is a [`NodeId`] carrying both a slot index and the slot's
//! generation, and freed slots go on a free list for reuse. This matches
//! the paper's tree model exactly — elements are internal nodes,
//! attributes and text values are leaves attached to their element —
//! while keeping traversals allocation-free and cache-friendly.
//!
//! # Layout
//!
//! A [`Document`] is three flat buffers plus its free list:
//!
//! - `slots`: one fixed-size (36-byte) slot per node, holding its
//!   generation, its parent's index, its kind, and spans into the other
//!   two buffers;
//! - `text`: one `String` holding every element and attribute name,
//!   attribute value, text, comment and PI body, each addressed by a
//!   `(u32 offset, u32 len)` span;
//! - `links`: one `Vec<NodeId>` holding each element's attributes and
//!   then its children as one contiguous range, addressed by a start, an
//!   attribute count, a child count and a capacity.
//!
//! So a parse makes O(1) allocations instead of a few per node, `Clone`
//! is three `memcpy`s, and `Drop` is three frees. [`Document::node`]
//! hands out a borrowed [`Node`] view whose [`NodeData`] carries `&str`
//! and `&[NodeId]` into these buffers.
//!
//! # Invariants
//!
//! - Every span of an occupied slot lies inside `text` on `char`
//!   boundaries (only whole `&str`s are ever appended).
//! - An element's range `links[start .. start + cap]` belongs to it alone:
//!   the first `attrs` entries are its attribute ids, the next `children`
//!   its child ids, and the rest (`cap - attrs - children`) is reserved
//!   slack. Ranges of occupied slots never overlap.
//! - A range is grown in place while it ends at the end of `links` or has
//!   slack; otherwise it is relocated to the end with doubled capacity.
//!   Detaching a node shrinks its parent's range in place.
//!
//! # Compaction
//!
//! Mutations never write into the middle of `text`: a replaced attribute
//! value or the strings of a freed subtree become *dead* bytes, and a
//! relocated or freed link range becomes dead links. Both are counted,
//! and a buffer is rebuilt from its live spans as soon as its dead part
//! exceeds its live part. So a document committed 10k times stays within
//! about twice the size of a fresh parse of its bytes. Detached (pruned
//! but not freed) nodes stay live: their ids remain valid.
//!
//! # Offsets are `u32`
//!
//! Spans, ranges and slot indices are `u32`. A parse cannot outgrow
//! them: no buffer holds more entries than the input has bytes, and an
//! input past `u32::MAX` bytes is refused with
//! [`XmlErrorKind::LimitExceeded`]. Growth by mutation is checked with
//! [`Document::ensure_room`], which the update path calls before each
//! operation, so growth past `u32::MAX` is a typed
//! [`LimitKind::ArenaBytes`] error there, never a wrap or a panic. The
//! plain appenders are for documents built by trusted code; they panic
//! rather than wrap if a buffer ever outgrew `u32` offsets.
//!
//! # Generations
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
use crate::limits::LimitKind;
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

/// The payload of a node, borrowed from its [`Document`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeData<'a> {
    /// An element: `<name attr...>children</name>`.
    Element {
        /// Tag name.
        name: &'a str,
        /// Attribute nodes, in document order. Each is a `NodeData::Attr`.
        attrs: &'a [NodeId],
        /// Child nodes (elements, text, comments, PIs), in document order.
        children: &'a [NodeId],
    },
    /// An attribute `name="value"` of its parent element.
    Attr {
        /// Attribute name.
        name: &'a str,
        /// Attribute value, already unescaped.
        value: &'a str,
    },
    /// Character data (entity references already resolved).
    Text(&'a str),
    /// A comment `<!-- ... -->`.
    Comment(&'a str),
    /// A processing instruction `<?target data?>`.
    Pi {
        /// PI target.
        target: &'a str,
        /// PI data (may be empty).
        data: &'a str,
    },
}

/// A borrowed view of one node: payload plus a parent link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Node<'a> {
    /// Parent node; `None` for the document element and detached nodes.
    pub parent: Option<NodeId>,
    /// Payload.
    pub data: NodeData<'a>,
}

/// A `(offset, len)` window into [`Document`]'s `text` buffer.
#[derive(Debug, Clone, Copy, Default)]
struct Span {
    off: u32,
    len: u32,
}

/// What a slot holds besides its first string (`Slot::name`).
#[derive(Debug, Clone, Copy)]
enum Payload {
    /// A freed slot, on the free list.
    Vacant,
    /// `links[start .. start + attrs]` are the attributes,
    /// `links[start + attrs ..][.. children]` the children, and the
    /// range reserves `cap` entries in all.
    Element {
        start: u32,
        attrs: u32,
        children: u32,
        cap: u32,
    },
    Attr {
        value: Span,
    },
    Text,
    Comment,
    Pi {
        data: Span,
    },
}

/// One arena slot. `name` is the element or attribute name, the PI
/// target, or the body of a text or comment node.
#[derive(Debug, Clone, Copy)]
struct Slot {
    gen: u32,
    /// Parent slot index, or [`NO_PARENT`].
    parent: u32,
    name: Span,
    payload: Payload,
}

const NO_PARENT: u32 = u32::MAX;
/// Fills reserved link slack; never read as a live id.
const NO_LINK: NodeId = NodeId { idx: u32::MAX, gen: u32::MAX };
/// The largest offset, length or index a buffer may reach.
const MAX_OFFSET: usize = u32::MAX as usize;

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

/// An XML document as a generational arena of nodes (see the module
/// docs for its layout).
///
/// Invariants maintained by the mutation API:
/// - `root` is an `Element` with no parent;
/// - every other reachable node's parent is the node that lists it among
///   its attributes or children;
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
    text: String,
    links: Vec<NodeId>,
    free: Vec<u32>,
    /// Bytes of `text` no occupied slot refers to.
    dead_text: usize,
    /// Entries of `links` outside every occupied element's range.
    dead_links: usize,
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

#[cold]
#[inline(never)]
fn offsets_overflow() -> ! {
    panic!("document buffers outgrew u32 offsets (the update path checks Document::ensure_room)");
}

/// Appends `s` to `text`, returning its span.
#[inline]
fn push_span(text: &mut String, s: &str) -> Span {
    let off = text.len();
    if off + s.len() > MAX_OFFSET {
        offsets_overflow();
    }
    text.push_str(s);
    Span { off: off as u32, len: s.len() as u32 }
}

impl Document {
    /// Creates a document whose root element is named `root_name`.
    ///
    /// # Panics
    /// Panics if `root_name` is not a valid XML name.
    pub fn new(root_name: &str) -> Self {
        assert!(is_valid_name(root_name), "invalid root element name {root_name:?}");
        Document::with_root(root_name, 1, root_name.len(), 0)
    }

    /// A document holding only its root element `name`, with room for
    /// `slots` nodes, `text` bytes and `links` links. The caller has
    /// validated `name`.
    pub(crate) fn with_root(name: &str, slots: usize, text: usize, links: usize) -> Document {
        let mut doc = Document {
            slots: Vec::with_capacity(slots.max(1)),
            text: String::with_capacity(text.max(name.len())),
            links: Vec::with_capacity(links),
            free: Vec::new(),
            dead_text: 0,
            dead_links: 0,
            root: NodeId::new(0, 0),
            doctype: None,
            last_alloc: NodeId::new(0, 0),
            ids_preordered: true,
        };
        let name = push_span(&mut doc.text, name);
        let payload = Payload::Element { start: 0, attrs: 0, children: 0, cap: 0 };
        doc.slots.push(Slot { gen: 0, parent: NO_PARENT, name, payload });
        doc
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

    /// Bytes the document's buffers use (by length, live and dead),
    /// excluding the DOCTYPE strings.
    pub fn buffer_bytes(&self) -> usize {
        self.slots.len() * std::mem::size_of::<Slot>()
            + self.text.len()
            + self.links.len() * std::mem::size_of::<NodeId>()
            + self.free.len() * std::mem::size_of::<u32>()
    }

    /// Checks that `bytes` more text and `nodes` more nodes (with their
    /// links, including the relocation of every range they join) fit
    /// under the buffers' `u32` offsets. The update path calls this
    /// before each operation, so its growth is a typed error instead of
    /// a panic.
    pub fn ensure_room(&self, bytes: usize, nodes: usize) -> Result<()> {
        let links = self.links.len().saturating_mul(2).saturating_add(nodes.saturating_mul(5));
        let fits = self.text.len().saturating_add(bytes) <= MAX_OFFSET
            && links <= MAX_OFFSET
            && self.slots.len().saturating_add(nodes) < MAX_OFFSET;
        if fits {
            Ok(())
        } else {
            Err(XmlError::new(XmlErrorKind::LimitExceeded(LimitKind::ArenaBytes), Pos::START))
        }
    }

    /// Whether `id` is live in this arena: its slot is occupied and the
    /// generations match. Detached-but-not-freed nodes are live.
    pub fn contains(&self, id: NodeId) -> bool {
        self.slots
            .get(id.index())
            .is_some_and(|s| s.gen == id.generation() && !matches!(s.payload, Payload::Vacant))
    }

    /// The live id occupying slot `index`, if any. The inverse of
    /// [`NodeId::index`] for tools that enumerate the arena.
    pub fn node_id_at(&self, index: usize) -> Option<NodeId> {
        let slot = self.slots.get(index)?;
        if matches!(slot.payload, Payload::Vacant) {
            return None;
        }
        Some(NodeId::new(index as u32, slot.gen))
    }

    /// The generation currently stored in slot `index` (whether or not
    /// the slot is occupied); `None` past the end of the arena.
    pub fn slot_generation(&self, index: usize) -> Option<u32> {
        self.slots.get(index).map(|s| s.gen)
    }

    /// The occupied slot `id` names.
    ///
    /// # Panics
    /// Panics if `id` is stale.
    #[inline]
    fn slot(&self, id: NodeId) -> &Slot {
        let slot = &self.slots[id.index()];
        let vacant = matches!(slot.payload, Payload::Vacant);
        if slot.gen != id.generation() || vacant {
            stale_node_id(id, slot.gen, vacant);
        }
        slot
    }

    #[inline]
    fn str_at(&self, s: Span) -> &str {
        let (from, to) = (s.off as usize, s.off as usize + s.len as usize);
        debug_assert!(self.text.is_char_boundary(from) && self.text.is_char_boundary(to));
        let bytes = &self.text.as_bytes()[from..to];
        // SAFETY: every span of an occupied slot was made by `push_span`
        // from a whole `&str` (compaction copies whole spans), so both its
        // ends are char boundaries of the UTF-8 `text`. Skipping the two
        // boundary checks of `&text[from..to]` makes serializing about 15%
        // faster; the bounds check stays.
        unsafe { std::str::from_utf8_unchecked(bytes) }
    }

    /// The id of a live slot's parent.
    #[inline]
    fn parent_of(&self, slot: &Slot) -> Option<NodeId> {
        (slot.parent != NO_PARENT)
            .then(|| NodeId::new(slot.parent, self.slots[slot.parent as usize].gen))
    }

    /// Borrowed view of a node.
    ///
    /// # Panics
    /// Panics if `id` is stale: its slot was freed (and possibly
    /// recycled) since the id was issued.
    #[inline]
    pub fn node(&self, id: NodeId) -> Node<'_> {
        let slot = self.slot(id);
        let name = self.str_at(slot.name);
        let data = match slot.payload {
            Payload::Element { start, attrs, children, .. } => {
                let (start, attrs) = (start as usize, attrs as usize);
                NodeData::Element {
                    name,
                    attrs: &self.links[start..start + attrs],
                    children: &self.links[start + attrs..start + attrs + children as usize],
                }
            }
            Payload::Attr { value } => NodeData::Attr { name, value: self.str_at(value) },
            Payload::Text => NodeData::Text(name),
            Payload::Comment => NodeData::Comment(name),
            Payload::Pi { data } => NodeData::Pi { target: name, data: self.str_at(data) },
            Payload::Vacant => unreachable!("slot() refuses vacant slots"),
        };
        Node { parent: self.parent_of(slot), data }
    }

    /// Allocates a slot for `data` under `parent`, copying its strings
    /// into `text`, without linking it into any range (an element starts
    /// with an empty one). The parser links each node when its parent
    /// closes ([`Document::close_in_order`]); it never frees, so its ids
    /// come out in document order and stay a preorder unchecked.
    pub(crate) fn alloc(&mut self, parent: Option<NodeId>, data: NodeData<'_>) -> NodeId {
        let text = &mut self.text;
        let (name, payload) = match data {
            NodeData::Element { name, .. } => {
                (name, Payload::Element { start: 0, attrs: 0, children: 0, cap: 0 })
            }
            NodeData::Attr { name, value } => {
                (name, Payload::Attr { value: push_span(text, value) })
            }
            NodeData::Text(t) => (t, Payload::Text),
            NodeData::Comment(t) => (t, Payload::Comment),
            NodeData::Pi { target, data } => (target, Payload::Pi { data: push_span(text, data) }),
        };
        let name = push_span(text, name);
        let parent = parent.map_or(NO_PARENT, |p| p.idx);
        let id = match self.free.pop() {
            Some(idx) => {
                // A recycled (low) index can never extend a preorder.
                self.ids_preordered = false;
                let slot = &mut self.slots[idx as usize];
                debug_assert!(
                    matches!(slot.payload, Payload::Vacant),
                    "free list held a live slot"
                );
                *slot = Slot { gen: slot.gen, parent, name, payload };
                NodeId::new(idx, slot.gen)
            }
            None => {
                let idx = self.slots.len();
                if idx >= NO_PARENT as usize {
                    offsets_overflow();
                }
                self.slots.push(Slot { gen: 0, parent, name, payload });
                NodeId::new(idx as u32, 0)
            }
        };
        self.last_alloc = id;
        id
    }

    /// `(start, attrs, children, cap)` of element slot `idx`.
    #[inline]
    fn range(&self, idx: usize) -> (usize, usize, usize, usize) {
        match self.slots[idx].payload {
            Payload::Element { start, attrs, children, cap } => {
                (start as usize, attrs as usize, children as usize, cap as usize)
            }
            other => panic!("cannot link nodes under a non-element node: {other:?}"),
        }
    }

    #[inline]
    fn set_range(&mut self, idx: usize, start: usize, attrs: usize, children: usize, cap: usize) {
        self.slots[idx].payload = Payload::Element {
            start: start as u32,
            attrs: attrs as u32,
            children: children as u32,
            cap: cap as u32,
        };
    }

    /// Makes room for one more link in element `idx`'s range: in place
    /// while it has slack or ends at the end of `links`, else by moving
    /// it to the end with doubled capacity.
    fn reserve_link(&mut self, idx: usize) {
        let (start, attrs, children, cap) = self.range(idx);
        let used = attrs + children;
        if used < cap {
            return;
        }
        if start + cap == self.links.len() {
            if self.links.len() >= MAX_OFFSET {
                offsets_overflow();
            }
            self.links.push(NO_LINK);
            self.set_range(idx, start, attrs, children, cap + 1);
            return;
        }
        let new_start = self.links.len();
        let new_cap = (used * 2).max(4);
        if new_start + new_cap > MAX_OFFSET {
            offsets_overflow();
        }
        self.links.extend_from_within(start..start + used);
        self.links.resize(new_start + new_cap, NO_LINK);
        self.dead_links += cap;
        self.set_range(idx, new_start, attrs, children, new_cap);
    }

    /// Links `id` as the last child of element `parent`.
    fn push_child(&mut self, parent: NodeId, id: NodeId) {
        self.reserve_link(parent.index());
        let (start, attrs, children, cap) = self.range(parent.index());
        self.links[start + attrs + children] = id;
        self.set_range(parent.index(), start, attrs, children + 1, cap);
    }

    /// Appends a new `data` node under `parent` and links it.
    fn append(&mut self, parent: NodeId, data: NodeData<'_>) -> NodeId {
        self.slot(parent);
        self.ids_preordered &= self.append_keeps_preorder(parent);
        let id = self.alloc(Some(parent), data);
        self.push_child(parent, id);
        if let Payload::Element { .. } = self.slots[id.index()].payload {
            // Start the new element's (empty) range after its own link.
            self.set_range(id.index(), self.links.len(), 0, 0, 0);
        }
        self.maybe_compact();
        id
    }

    // ------------------------------------------------------------------
    // Construction
    // ------------------------------------------------------------------

    /// Creates a new element named `name` and appends it to `parent`'s children.
    pub fn append_element(&mut self, parent: NodeId, name: &str) -> NodeId {
        debug_assert!(is_valid_name(name), "invalid element name {name:?}");
        self.append(parent, NodeData::Element { name, attrs: &[], children: &[] })
    }

    /// Appends a text node to `parent`.
    pub fn append_text(&mut self, parent: NodeId, text: &str) -> NodeId {
        self.append(parent, NodeData::Text(text))
    }

    /// Appends a comment node to `parent`.
    pub fn append_comment(&mut self, parent: NodeId, text: &str) -> NodeId {
        self.append(parent, NodeData::Comment(text))
    }

    /// Appends a processing instruction to `parent`.
    pub fn append_pi(&mut self, parent: NodeId, target: &str, data: &str) -> NodeId {
        self.append(parent, NodeData::Pi { target, data })
    }

    /// Sets (or replaces) attribute `name` on `element`, returning the
    /// attribute node id. A replaced value's old bytes become dead.
    ///
    /// Returns an error if `element` is not an element.
    pub fn set_attribute(&mut self, element: NodeId, name: &str, value: &str) -> Result<NodeId> {
        debug_assert!(is_valid_name(name), "invalid attribute name {name:?}");
        if !self.is_element(element) {
            return Err(XmlError::new(
                XmlErrorKind::MalformedAttribute(name.to_string()),
                Pos::START,
            ));
        }
        if let Some(existing) = self.attribute_node(element, name) {
            let new = push_span(&mut self.text, value);
            if let Payload::Attr { value: old } = &mut self.slots[existing.index()].payload {
                self.dead_text += old.len as usize;
                *old = new;
            }
            self.maybe_compact();
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
        let id = self.alloc(Some(element), NodeData::Attr { name, value });
        // Insert after the existing attributes, shifting the children.
        let el = element.index();
        self.reserve_link(el);
        let (start, attrs, children, cap) = self.range(el);
        let at = start + attrs;
        self.links.copy_within(at..at + children, at + 1);
        self.links[at] = id;
        self.set_range(el, start, attrs + 1, children, cap);
        self.maybe_compact();
        Ok(id)
    }

    // ------------------------------------------------------------------
    // In-order construction (the parser's builder, with `alloc`)
    // ------------------------------------------------------------------

    /// Gives element `el` its final range: `links` (its attributes, then
    /// its children) copied to the end of the link buffer.
    #[inline]
    pub(crate) fn close_in_order(&mut self, el: NodeId, links: &[NodeId], attrs: usize) {
        let start = self.links.len();
        self.links.extend_from_slice(links);
        self.set_range(el.index(), start, attrs, links.len() - attrs, links.len());
    }

    /// Releases the capacity a parse reserved beyond what it used.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.slots.shrink_to_fit();
        self.text.shrink_to_fit();
        self.links.shrink_to_fit();
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// Element/tag name, or `None` for non-elements.
    pub fn element_name(&self, id: NodeId) -> Option<&str> {
        let slot = self.slot(id);
        matches!(slot.payload, Payload::Element { .. }).then(|| self.str_at(slot.name))
    }

    /// The name of a node usable in path expressions: the tag name for
    /// elements, the attribute name for attributes, `None` otherwise.
    pub fn node_name(&self, id: NodeId) -> Option<&str> {
        let slot = self.slot(id);
        matches!(slot.payload, Payload::Element { .. } | Payload::Attr { .. })
            .then(|| self.str_at(slot.name))
    }

    /// Returns `true` if `id` is an element.
    #[inline]
    pub fn is_element(&self, id: NodeId) -> bool {
        matches!(self.slot(id).payload, Payload::Element { .. })
    }

    /// Returns `true` if `id` is an attribute node.
    #[inline]
    pub fn is_attribute(&self, id: NodeId) -> bool {
        matches!(self.slot(id).payload, Payload::Attr { .. })
    }

    /// Returns `true` if `id` is a text node.
    #[inline]
    pub fn is_text(&self, id: NodeId) -> bool {
        matches!(self.slot(id).payload, Payload::Text)
    }

    /// Child nodes of an element (empty slice otherwise).
    #[inline]
    pub fn children(&self, id: NodeId) -> &[NodeId] {
        match self.slot(id).payload {
            Payload::Element { start, attrs, children, .. } => {
                let from = (start + attrs) as usize;
                &self.links[from..from + children as usize]
            }
            _ => &[],
        }
    }

    /// Attribute nodes of an element (empty slice otherwise).
    #[inline]
    pub fn attributes(&self, id: NodeId) -> &[NodeId] {
        match self.slot(id).payload {
            Payload::Element { start, attrs, .. } => {
                &self.links[start as usize..(start + attrs) as usize]
            }
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
        self.parent_of(self.slot(id))
    }

    /// The attribute node named `name` on `element`, if any.
    pub fn attribute_node(&self, element: NodeId, name: &str) -> Option<NodeId> {
        self.attributes(element)
            .iter()
            .copied()
            .find(|&a| self.str_at(self.slots[a.index()].name) == name)
    }

    /// The value of attribute `name` on `element`, if present.
    pub fn attribute(&self, element: NodeId, name: &str) -> Option<&str> {
        self.attribute_node(element, name).and_then(|a| self.attr_value(a))
    }

    /// The value of an attribute node.
    pub fn attr_value(&self, attr: NodeId) -> Option<&str> {
        match self.slot(attr).payload {
            Payload::Attr { value } => Some(self.str_at(value)),
            _ => None,
        }
    }

    /// Concatenated text of all descendant text nodes (XPath's
    /// string-value of an element), or the value for attribute/text nodes.
    pub fn text_value(&self, id: NodeId) -> String {
        match self.node(id).data {
            NodeData::Attr { value, .. } => value.to_string(),
            NodeData::Text(t) => t.to_string(),
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
            match self.node(c).data {
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
    /// position.
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
    /// and its id remains valid). The parent's range shrinks in place.
    ///
    /// Detaching the root is not allowed and is a no-op returning `false`.
    pub fn detach(&mut self, id: NodeId) -> bool {
        let Some(p) = self.parent(id) else { return false };
        let is_attr = self.is_attribute(id);
        let (start, attrs, children, cap) = self.range(p.index());
        let (from, len) = if is_attr { (start, attrs) } else { (start + attrs, children) };
        let Some(pos) = self.links[from..from + len].iter().position(|&x| x == id) else {
            return false;
        };
        self.links.copy_within(from + pos + 1..start + attrs + children, from + pos);
        if is_attr {
            self.set_range(p.index(), start, attrs - 1, children, cap);
        } else {
            self.set_range(p.index(), start, attrs, children - 1, cap);
        }
        self.slots[id.index()].parent = NO_PARENT;
        true
    }

    /// Detaches every attribute and child of `element` that `keep`
    /// rejects, filtering its range in place. Returns how many were
    /// detached.
    pub fn retain(&mut self, element: NodeId, mut keep: impl FnMut(NodeId) -> bool) -> usize {
        if !self.is_element(element) {
            return 0;
        }
        let (start, attrs, children, cap) = self.range(element.index());
        let (mut kept, mut kept_attrs) = (start, 0);
        for i in start..start + attrs + children {
            let id = self.links[i];
            if keep(id) {
                self.links[kept] = id;
                kept += 1;
                kept_attrs += usize::from(i < start + attrs);
            } else {
                self.slots[id.index()].parent = NO_PARENT;
            }
        }
        self.set_range(element.index(), start, kept_attrs, kept - start - kept_attrs, cap);
        start + attrs + children - kept
    }

    /// Detaches `id` from its parent and frees its whole subtree
    /// (including attribute nodes): the slots are vacated, their
    /// generations bumped, and their indices recycled through the free
    /// list; their bytes and ranges become dead. Every id into the
    /// subtree becomes stale. Returns the number of nodes freed; removing
    /// the root is refused (returns 0).
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
            if let Payload::Element { start, attrs, children, .. } = self.slot(n).payload {
                let (start, end) = (start as usize, (start + attrs + children) as usize);
                stack.extend_from_slice(&self.links[start..end]);
            }
            self.free_slot(n);
            freed += 1;
        }
        self.maybe_compact();
        freed
    }

    /// Vacates one slot: bumps its generation (staling every outstanding
    /// id for it), counts its bytes and range as dead, and recycles the
    /// index.
    fn free_slot(&mut self, id: NodeId) {
        let slot = &mut self.slots[id.index()];
        assert!(
            slot.gen == id.generation() && !matches!(slot.payload, Payload::Vacant),
            "freeing through a stale NodeId {id}"
        );
        self.dead_text += slot.name.len as usize;
        match slot.payload {
            Payload::Attr { value: s } | Payload::Pi { data: s } => {
                self.dead_text += s.len as usize
            }
            Payload::Element { cap, .. } => self.dead_links += cap as usize,
            _ => {}
        }
        *slot = Slot {
            gen: slot.gen.wrapping_add(1),
            parent: NO_PARENT,
            name: Span::default(),
            payload: Payload::Vacant,
        };
        self.free.push(id.index() as u32);
        // `last_alloc` must always be live (preorder bookkeeping walks
        // its ancestor chain); fall back to the root, which is sound:
        // after a free the free list is non-empty, so the next alloc
        // recycles a slot and clears `ids_preordered` anyway.
        if self.last_alloc == id {
            self.last_alloc = self.root;
        }
    }

    /// Rebuilds a buffer from its live spans once its dead part exceeds
    /// its live part.
    fn maybe_compact(&mut self) {
        if self.dead_text > self.text.len() - self.dead_text {
            let mut text = String::with_capacity(self.text.len() - self.dead_text);
            for slot in &mut self.slots {
                let copy = |s: Span, text: &mut String| {
                    push_span(text, &self.text[s.off as usize..(s.off + s.len) as usize])
                };
                match &mut slot.payload {
                    Payload::Vacant => continue,
                    Payload::Attr { value: s } | Payload::Pi { data: s } => {
                        *s = copy(*s, &mut text)
                    }
                    _ => {}
                }
                slot.name = copy(slot.name, &mut text);
            }
            self.text = text;
            self.dead_text = 0;
        }
        if self.dead_links > self.links.len() - self.dead_links {
            let mut links = Vec::with_capacity(self.links.len() - self.dead_links);
            for slot in &mut self.slots {
                if let Payload::Element { start, attrs, children, cap } = &mut slot.payload {
                    let from = *start as usize;
                    *start = links.len() as u32;
                    links
                        .extend_from_slice(&self.links[from..from + (*attrs + *children) as usize]);
                    *cap = *attrs + *children;
                }
            }
            self.links = links;
            self.dead_links = 0;
        }
    }

    /// Deep-copies the subtree rooted at `src_id` in `src` into `self`,
    /// appending it under `parent`. Returns the new root of the copy.
    /// Each copied element gets an exact-size range, and its nodes are
    /// allocated in document order.
    pub fn import_subtree(&mut self, parent: NodeId, src: &Document, src_id: NodeId) -> NodeId {
        let data = src.node(src_id).data;
        assert!(!matches!(data, NodeData::Attr { .. }), "cannot import an attribute as a subtree");
        let id = self.append(parent, data);
        self.copy_links(id, src, src_id);
        self.maybe_compact();
        id
    }

    /// Copies the attributes and children of `src_id` under the fresh
    /// element copy `id` (no-op for leaves).
    fn copy_links(&mut self, id: NodeId, src: &Document, src_id: NodeId) {
        let NodeData::Element { attrs, children, .. } = src.node(src_id).data else { return };
        let start = self.links.len();
        let n = attrs.len() + children.len();
        if start + n > MAX_OFFSET {
            offsets_overflow();
        }
        self.links.resize(start + n, NO_LINK);
        self.set_range(id.index(), start, attrs.len(), children.len(), n);
        for (i, &s) in attrs.iter().chain(children).enumerate() {
            let c = self.alloc(Some(id), src.node(s).data);
            self.links[start + i] = c;
            self.copy_links(c, src, s);
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
        let (start, attrs, children, _) = self.range(parent.index());
        let kids = &mut self.links[start + attrs..start + attrs + children];
        debug_assert_eq!(kids.last(), Some(&new_id));
        kids[pos..].rotate_right(1);
        Some(new_id)
    }

    /// Structural equality of two documents (names, attributes in order,
    /// children in order, text). Doctype is ignored.
    pub fn structurally_equal(&self, other: &Document) -> bool {
        fn eq(a: &Document, an: NodeId, b: &Document, bn: NodeId) -> bool {
            match (a.node(an).data, b.node(bn).data) {
                (
                    NodeData::Element { name: n1, attrs: aa, children: ac },
                    NodeData::Element { name: n2, attrs: ba, children: bc },
                ) => {
                    n1 == n2
                        && aa.len() == ba.len()
                        && aa.iter().zip(ba).all(|(&x, &y)| a.node(x).data == b.node(y).data)
                        && ac.len() == bc.len()
                        && ac.iter().zip(bc).all(|(&x, &y)| eq(a, x, b, y))
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
    fn slots_stay_small() {
        assert_eq!(std::mem::size_of::<Slot>(), 36);
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
    fn late_attribute_lands_before_the_children() {
        let mut d = sample();
        let p1 = d.child_elements(d.root()).next().unwrap();
        let kids = d.children(p1).to_vec();
        let late = d.set_attribute(p1, "late", "x").unwrap();
        assert_eq!(d.attributes(p1).len(), 2);
        assert_eq!(d.attributes(p1)[1], late);
        assert_eq!(d.children(p1), &kids[..]);
        assert!(!d.ids_preordered());
    }

    #[test]
    fn set_attribute_on_a_leaf_is_an_error() {
        let mut d = sample();
        let p1 = d.child_elements(d.root()).next().unwrap();
        let text = d.children(p1)[1];
        assert!(d.set_attribute(text, "k", "v").is_err());
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
            .map(|id| match d.node(id).data {
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
        assert_eq!(d.children(p1).len(), 2, "children keep their place");
    }

    #[test]
    fn retain_filters_ranges_in_place() {
        let mut d = sample();
        let p1 = d.child_elements(d.root()).next().unwrap();
        let name = d.attribute_node(p1, "name").unwrap();
        let text = d.children(p1)[1];
        assert_eq!(d.retain(p1, |n| n != name && n != text), 2);
        assert_eq!(d.attributes(p1), &[] as &[NodeId]);
        assert_eq!(d.children(p1).len(), 1);
        assert_eq!((d.parent(name), d.parent(text)), (None, None));
        // A later append reuses the slack the filter left.
        let before = d.buffer_bytes();
        d.append_text(p1, "t");
        assert_eq!(d.buffer_bytes(), before + 36 + 1);
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
        assert!(dst.ids_preordered());
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

    #[test]
    fn repeated_replacement_compacts_the_text() {
        let mut d = Document::new("a");
        let root = d.root();
        for i in 0..1000 {
            d.set_attribute(root, "k", &format!("value {i}")).unwrap();
            assert!(d.dead_text <= d.text.len() - d.dead_text);
        }
        assert_eq!(d.attribute(root, "k"), Some("value 999"));
        assert!(d.text.len() < 64, "{} bytes kept", d.text.len());
    }

    #[test]
    fn relocated_ranges_are_compacted() {
        let mut d = Document::new("a");
        let (x, y) = (d.append_element(d.root(), "x"), d.append_element(d.root(), "y"));
        for _ in 0..200 {
            let t = d.append_text(x, "1");
            d.append_text(y, "2");
            d.remove_subtree(t);
            assert!(d.dead_links <= d.links.len() - d.dead_links);
        }
        assert_eq!(d.children(x).len(), 0);
        assert_eq!(d.children(y).len(), 200);
        assert!(d.text_value(y).bytes().all(|b| b == b'2'));
    }

    #[test]
    fn growth_past_u32_offsets_is_a_typed_error() {
        let d = sample();
        assert!(d.ensure_room(1 << 20, 1 << 10).is_ok());
        let e = d.ensure_room(MAX_OFFSET, 1).unwrap_err();
        assert_eq!(e.kind, XmlErrorKind::LimitExceeded(LimitKind::ArenaBytes));
        assert!(d.ensure_room(0, MAX_OFFSET / 4).is_err());
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
