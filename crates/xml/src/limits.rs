//! Resource limits for parsing untrusted input.
//!
//! The paper's §7 server faces arbitrary requesters, and the documents it
//! stores may come from arbitrary authors; a parser that happily builds a
//! million-node DOM from a depth bomb turns one hostile upload into a
//! denial of service. [`Limits`] caps the resources one parse may consume.
//! Every violation is a *typed, recoverable* [`crate::XmlError`] with kind
//! [`crate::XmlErrorKind::LimitExceeded`] — never a panic, stack overflow,
//! or OOM.
//!
//! The defaults are deliberately generous: every document a reasonable
//! client produces (including the whole example corpus and the synthetic
//! benchmark workloads) parses unchanged, while the pathological shapes —
//! deeply nested element chains, entity/character-reference floods,
//! node-count bombs — are rejected early with a precise error.
//!
//! On general entities: this processor follows the paper's §2 restriction
//! to the logical document structure and **never expands DTD-declared
//! general entities** (references to them are `UnknownEntity` errors), so
//! the classic billion-laughs amplification cannot occur structurally.
//! [`Limits::max_entity_expansion`] additionally caps the total output of
//! the references that *are* resolved (the five predefined entities and
//! character references), bounding flood-style inputs and any future
//! entity support.

/// Which limit a rejected input exceeded.
///
/// The variant names double as the `kind` label on the
/// `xmlsec_limits_rejected_total` telemetry counter (see
/// [`LimitKind::as_str`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LimitKind {
    /// The raw input text is larger than [`Limits::max_input_bytes`].
    InputBytes,
    /// Element nesting exceeded [`Limits::max_depth`].
    Depth,
    /// The DOM grew past [`Limits::max_nodes`] arena slots.
    Nodes,
    /// Entity/character-reference resolution produced more than
    /// [`Limits::max_entity_expansion`] characters.
    EntityExpansion,
    /// A mutation would grow one of a document's buffers past its `u32`
    /// offsets (see [`crate::dom::Document::ensure_room`]).
    ArenaBytes,
}

impl LimitKind {
    /// Stable snake_case name, used as a metric label value.
    pub fn as_str(self) -> &'static str {
        match self {
            LimitKind::InputBytes => "input_bytes",
            LimitKind::Depth => "depth",
            LimitKind::Nodes => "nodes",
            LimitKind::EntityExpansion => "entity_expansion",
            LimitKind::ArenaBytes => "arena_bytes",
        }
    }
}

impl std::fmt::Display for LimitKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Caps applied while tokenizing and parsing one document.
///
/// Thread a `Limits` through [`crate::parser::parse_with_limits`] (the
/// plain [`crate::parse`] applies [`Limits::default`]); use
/// [`Limits::unlimited`] to opt out for trusted, test-generated input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Limits {
    /// Maximum input size in bytes, checked before tokenization.
    pub max_input_bytes: usize,
    /// Maximum element nesting depth (open elements on the parser stack).
    pub max_depth: usize,
    /// Maximum total DOM arena slots (elements, attributes, text,
    /// comments, PIs) one document may allocate.
    pub max_nodes: usize,
    /// Maximum total characters produced by resolving entity and
    /// character references across the document.
    pub max_entity_expansion: usize,
}

impl Limits {
    /// The default caps: 64 MiB input, depth 1024, 4 M nodes, 1 M
    /// characters of reference expansion. Generous for real documents,
    /// far below what a hostile input needs to hurt.
    pub const fn default_limits() -> Limits {
        Limits {
            max_input_bytes: 64 << 20,
            max_depth: 1024,
            max_nodes: 4_000_000,
            max_entity_expansion: 1 << 20,
        }
    }

    /// No caps at all (every field `usize::MAX`). For trusted input only.
    pub const fn unlimited() -> Limits {
        Limits {
            max_input_bytes: usize::MAX,
            max_depth: usize::MAX,
            max_nodes: usize::MAX,
            max_entity_expansion: usize::MAX,
        }
    }
}

impl Default for Limits {
    fn default() -> Limits {
        Limits::default_limits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_are_stable() {
        assert_eq!(LimitKind::InputBytes.as_str(), "input_bytes");
        assert_eq!(LimitKind::Depth.as_str(), "depth");
        assert_eq!(LimitKind::Nodes.as_str(), "nodes");
        assert_eq!(LimitKind::EntityExpansion.as_str(), "entity_expansion");
        assert_eq!(LimitKind::ArenaBytes.as_str(), "arena_bytes");
        assert_eq!(LimitKind::Depth.to_string(), "depth");
    }

    #[test]
    fn defaults_are_generous_and_unlimited_is_max() {
        let d = Limits::default();
        assert!(d.max_depth >= 1024);
        assert!(d.max_input_bytes >= 1 << 20);
        let u = Limits::unlimited();
        assert_eq!(u.max_nodes, usize::MAX);
        assert_eq!(u.max_depth, usize::MAX);
    }
}
