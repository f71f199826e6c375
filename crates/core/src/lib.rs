//! # xmlsec-core — the *Securing XML Documents* access-control engine
//!
//! The paper's primary contribution, built on the substrate crates:
//!
//! - [`label`] — per-node 6-tuples `⟨L, R, LD, RD, LW, RW⟩` over
//!   `{+, −, ε}` and the `first_def` priority rule (§6.1);
//! - [`view`] — the **compute-view** algorithm (Figure 2): initial
//!   labeling from applicable authorizations, preorder propagation with
//!   most-specific-object overriding, postorder pruning with structure
//!   preservation (§6.2);
//! - [`naive`] — an independent declarative evaluator used as a
//!   differential-testing oracle and benchmark baseline;
//! - [`processor`] — the four-step server-side security processor
//!   (parse → label → prune → unparse) with DTD loosening (§7), split
//!   into a per-document parse and a per-request render;
//! - [`schema`] — DTDs prepared once per stored schema for that
//!   pipeline.
//!
//! ```
//! use xmlsec_core::{compute_view, PolicyConfig};
//! use xmlsec_authz::{Authorization, ObjectSpec, Sign, AuthType};
//! use xmlsec_subjects::{Directory, Subject};
//!
//! let doc = xmlsec_xml::parse("<lab><pub>yes</pub><priv>no</priv></lab>").unwrap();
//! let grant = Authorization::new(
//!     Subject::new("Public", "*", "*").unwrap(),
//!     ObjectSpec::parse("lab.xml:/lab/pub").unwrap(),
//!     Sign::Plus,
//!     AuthType::Recursive,
//! );
//! let (view, _stats) = compute_view(
//!     &doc, &[&grant], &[], &Directory::new(), PolicyConfig::paper_default());
//! assert_eq!(
//!     xmlsec_xml::serialize(&view, &xmlsec_xml::SerializeOptions::canonical()),
//!     "<lab><pub>yes</pub></lab>");
//! ```

#![warn(missing_docs)]

pub mod analysis;
pub mod compile;
pub mod decision;
mod facts;
pub mod label;
pub mod limits;
pub mod naive;
pub mod par;
pub mod processor;
pub mod schema;
pub mod stages;
pub mod static_analysis;
pub mod update;
pub mod view;

pub use analysis::{
    analyze_against_schema, coverage_findings, schema_coverage, AuthCoverage, SchemaNode,
};
pub use compile::{
    compile, schema_hash, CompileError, CompiledCache, CompiledCell, CompiledPolicy, ResidualCheck,
};
pub use decision::{policy_fingerprint, DecisionCache, DecisionKey};
pub use label::{first_def, Label, Sign3};
pub use limits::ResourceLimits;
pub use naive::{compute_view_naive, naive_final_sign};
pub use par::Parallelism;
pub use processor::{
    AccessRequest, DocumentSource, ParsedSource, ProcessError, ProcessOutput, ProcessorOptions,
    RenderedView, SecurityProcessor,
};
pub use schema::PreparedSchema;
pub use static_analysis::write::{
    analyze_policy_writes, classify_batch, BatchVerdict, SubjectWriteTable, WriteAttributeCell,
    WriteCell, WriteElementCell, WriteOps, WriteReport, WriteTable,
};
pub use static_analysis::{
    analyze_policy, closure_subjects, Cell, PolicyReport, SubjectTable, Verdict,
};
pub use update::{
    apply_updates, apply_updates_in_place, apply_updates_preauthorized, label_for_write,
    label_for_write_engine, UpdateError, UpdateOp, UpdateOutcome, WriteContext,
};
pub use view::{
    compute_view, compute_view_engine, label_document, label_document_engine,
    label_document_incremental, prune_document, render_labeled, render_view, EngineOptions,
    Labeling, ViewStats,
};
pub use xmlsec_xml::cancel::{CancelReason, CancelToken, Cancelled};

// Re-export the policy types users need at this level.
pub use xmlsec_authz::{CompletenessPolicy, ConflictResolution, PolicyConfig};
