//! # xmlsec-server — the secure document server (paper §7)
//!
//! The paper's usage scenario as a library: documents and DTDs in a
//! [`Repository`], server-local authentication, the security processor
//! run per request, a [`ViewCache`] keyed by applicable-authorization
//! fingerprint **and repository content hash** (requesters covered by
//! the same authorizations share a view; a content change structurally
//! misses — see `docs/CACHING.md`), and a bounded, append-only [`AuditLog`].
//! The same content identity backs HTTP conditional revalidation
//! (`ETag` / `If-None-Match` → 304).
//!
//! Access control is enforced **server side**: the client receives only
//! the computed view and the loosened DTD, so "the accidental transfer to
//! the client of information it is not allowed to see" cannot happen and
//! security checking stays transparent to remote clients.

#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod audit;
pub mod cache;
pub mod epoll;
#[cfg(feature = "faults")]
pub mod faults;
#[cfg(not(feature = "faults"))]
mod faults {
    //! No-op stand-in: builds without the `faults` feature carry no
    //! injection hooks.
    pub(crate) fn check(_point: &str) -> bool {
        false
    }
}
pub mod http;
pub mod repo;
mod request;
pub mod server;
pub mod site;

pub use audit::{AuditLog, AuditOutcome, AuditRecord};
pub use cache::{CachedView, ViewCache, ViewKey};
pub use epoll::{AnyDemo, EpollDemo, Transport};
pub use http::{parse_update_ops, parse_update_ops_with_lines, HttpConfig, HttpDemo};
pub use repo::{fnv1a64, Repository, StoredDocument};
pub use server::{
    etag_matches, ClientRequest, ConditionalOutcome, QueryResponse, SecureServer, ServerError,
    ServerResponse,
};
pub use site::{load_site, SiteError, SiteSummary};
