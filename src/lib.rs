//! # xmlsec — *Securing XML Documents* (EDBT 2000) in Rust
//!
//! A complete, from-scratch implementation of the access-control model of
//! Damiani, De Capitani di Vimercati, Paraboschi and Samarati, *Securing
//! XML Documents*, EDBT 2000 — including every substrate the paper
//! depends on: an XML 1.0 parser and DOM, a DTD engine with validation
//! and the §6.2 *loosening* transformation, an XPath subset for
//! authorization objects, the authorization-subject hierarchy, XACL
//! authorization markup, the **compute-view** labeling/pruning algorithm,
//! and a server-side security processor.
//!
//! This crate is a facade: each subsystem lives in its own crate and is
//! re-exported here under a short name.
//!
//! ```
//! use xmlsec::prelude::*;
//!
//! // The paper's running example: Tom, a Foreign member connecting from
//! // an .it host, asks for the CSlab document.
//! let dir = xmlsec::workload::laboratory::lab_directory();
//! let base = xmlsec::workload::laboratory::lab_authorization_base();
//! let processor = SecurityProcessor::new(dir, base);
//! let request = AccessRequest {
//!     requester: xmlsec::workload::laboratory::tom(),
//!     uri: xmlsec::workload::laboratory::CSLAB_URI.to_string(),
//! };
//! let source = DocumentSource {
//!     xml: xmlsec::workload::laboratory::CSLAB_XML,
//!     dtd: Some(xmlsec::workload::laboratory::LAB_DTD),
//!     dtd_uri: Some(xmlsec::workload::laboratory::LAB_DTD_URI),
//!     ..Default::default()
//! };
//! let out = processor.process(&request, &source).unwrap();
//! assert!(out.xml.contains("Querying XML"));        // public paper: visible
//! assert!(!out.xml.contains("Engine Internals"));   // private paper: pruned
//! ```

/// Authorizations: 5-tuples, XACL markup, policies, the base.
pub use xmlsec_authz as authz;
/// The compute-view algorithm and the security processor.
pub use xmlsec_core as core;
/// DTD substrate: parsing, validation, loosening, DTD trees.
pub use xmlsec_dtd as dtd;
/// The secure document server.
pub use xmlsec_server as server;
/// Subjects: users, groups, location patterns, the ASH hierarchy.
pub use xmlsec_subjects as subjects;
/// Tracing + metrics: spans, counters, histograms, /metrics exposition.
pub use xmlsec_telemetry as telemetry;
/// Corpora and generators for tests/benches.
pub use xmlsec_workload as workload;
/// XML 1.0 substrate: tokenizer, parser, DOM, serializer.
pub use xmlsec_xml as xml;
/// XPath subset for authorization objects.
pub use xmlsec_xpath as xpath;

/// The names most programs need.
pub mod prelude {
    pub use xmlsec_authz::{
        parse_xacl, serialize_xacl, AuthType, Authorization, AuthorizationBase, CompletenessPolicy,
        ConflictResolution, ObjectSpec, PolicyConfig, Sign,
    };
    pub use xmlsec_core::{compute_view, AccessRequest, DocumentSource, SecurityProcessor, Sign3};
    pub use xmlsec_dtd::{loosen, parse_dtd, serialize_dtd, Dtd};
    pub use xmlsec_server::{ClientRequest, ConditionalOutcome, SecureServer, ServerError};
    pub use xmlsec_subjects::{Directory, Requester, Subject};
    pub use xmlsec_xml::{parse, render_tree, serialize, Document, SerializeOptions};
    pub use xmlsec_xpath::{parse_path, select};
}
