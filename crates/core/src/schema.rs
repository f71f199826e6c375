//! A DTD prepared once for every request that uses it.
//!
//! Everything the security processor derives from a DTD alone — the
//! parsed [`Dtd`], the loosened DTD text sent with every view, and the
//! schema half of the [`crate::CompiledCache`] key — is the same for
//! every request against every instance of that DTD. A repository builds
//! a [`PreparedSchema`] when the DTD is stored and hands it to the
//! processor through [`crate::DocumentSource::schema`], so a cache miss
//! neither parses, loosens nor re-serializes the DTD.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use xmlsec_dtd::{loosen, parse_dtd, serialize_dtd, Dtd, DtdError};

/// A parsed DTD with its loosened text and content hash.
#[derive(Debug, Clone)]
pub struct PreparedSchema {
    dtd: Dtd,
    loosened: String,
    hash: u64,
}

impl PreparedSchema {
    /// Parses and prepares a DTD text.
    pub fn parse(text: &str) -> Result<PreparedSchema, DtdError> {
        let dtd = parse_dtd(text)?;
        let loosened = serialize_dtd(&loosen(&dtd));
        let hash = dtd_hash(&dtd);
        Ok(PreparedSchema { dtd, loosened, hash })
    }

    /// The parsed DTD.
    pub fn dtd(&self) -> &Dtd {
        &self.dtd
    }

    /// The serialized loosened DTD (paper §6.2) that travels with views.
    pub fn loosened_text(&self) -> &str {
        &self.loosened
    }

    /// The schema half of a compiled-policy cache key for documents
    /// rooted at `root_element`; equal to
    /// [`crate::compile::schema_hash`]`(self.dtd(), root_element)`.
    pub(crate) fn schema_hash(&self, root_element: &str) -> u64 {
        schema_key(self.hash, root_element)
    }
}

/// Content hash of a DTD (of its canonical serialization).
pub(crate) fn dtd_hash(dtd: &Dtd) -> u64 {
    let mut h = DefaultHasher::new();
    serialize_dtd(dtd).hash(&mut h);
    h.finish()
}

/// Mixes the root element into a [`dtd_hash`].
pub(crate) fn schema_key(dtd_hash: u64, root_element: &str) -> u64 {
    let mut h = DefaultHasher::new();
    dtd_hash.hash(&mut h);
    root_element.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    const DTD: &str = "<!ELEMENT lab (project+)><!ELEMENT project (#PCDATA)>";

    #[test]
    fn prepared_parts_match_the_per_request_derivations() {
        let p = PreparedSchema::parse(DTD).unwrap();
        let dtd = parse_dtd(DTD).unwrap();
        assert_eq!(p.dtd(), &dtd);
        assert_eq!(p.loosened_text(), serialize_dtd(&loosen(&dtd)));
        assert_eq!(p.schema_hash("lab"), crate::compile::schema_hash(&dtd, "lab"));
        assert_ne!(p.schema_hash("lab"), p.schema_hash("project"));
    }

    #[test]
    fn a_bad_dtd_reports_the_parser_error() {
        assert_eq!(
            PreparedSchema::parse("<!ELEMENT").unwrap_err(),
            parse_dtd("<!ELEMENT").unwrap_err()
        );
    }
}
