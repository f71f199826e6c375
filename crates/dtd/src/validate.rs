//! Document validation against a DTD (the paper's "valid XML document"
//! prerequisite: the processor takes *valid* documents as input, §7 step 1).
//!
//! Collects every violation instead of stopping at the first, and caches
//! one compiled [`ContentAutomaton`] per element declaration.

use crate::ast::{AttType, ContentSpec, DefaultDecl, Dtd};
use crate::error::ValidityError;
use crate::glushkov::ContentAutomaton;
use std::collections::{HashMap, HashSet};
use xmlsec_xml::{Document, NodeData, NodeId};

/// Validator configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct ValidateOptions {
    /// Also report content models violating the XML 1.0 determinism rule.
    /// Off by default because loosened DTDs are legitimately ambiguous.
    pub check_determinism: bool,
}

/// A DTD together with its compiled content-model automata.
///
/// Compile once, validate many documents — the shape the secure server
/// needs (one DTD typically guards many instances).
pub struct Validator<'d> {
    dtd: &'d Dtd,
    automata: HashMap<&'d str, ContentAutomaton>,
    opts: ValidateOptions,
}

impl<'d> Validator<'d> {
    /// Compiles all `Children` content models of `dtd`.
    pub fn new(dtd: &'d Dtd) -> Self {
        Self::with_options(dtd, ValidateOptions::default())
    }

    /// Compiles with explicit options.
    pub fn with_options(dtd: &'d Dtd, opts: ValidateOptions) -> Self {
        let mut automata = HashMap::new();
        for (name, decl) in &dtd.elements {
            if let ContentSpec::Children(p) = &decl.content {
                automata.insert(name.as_str(), ContentAutomaton::compile(p));
            }
        }
        Validator { dtd, automata, opts }
    }

    /// The underlying DTD.
    pub fn dtd(&self) -> &'d Dtd {
        self.dtd
    }

    /// Validates `doc`, returning all violations (empty = valid).
    pub fn validate(&self, doc: &Document) -> Vec<ValidityError> {
        let mut errors = Vec::new();

        if self.opts.check_determinism {
            for (name, a) in &self.automata {
                if let Some(symbol) = a.nondeterminism() {
                    errors.push(ValidityError::NondeterministicModel {
                        element: name.to_string(),
                        symbol,
                    });
                }
            }
        }

        if let Some(dt) = &doc.doctype {
            let root_name = doc.element_name(doc.root()).unwrap_or_default();
            if dt.name != root_name {
                errors.push(ValidityError::RootMismatch {
                    declared: dt.name.clone(),
                    found: root_name.to_string(),
                });
            }
        }

        let mut ids: HashSet<String> = HashSet::new();
        let mut idrefs: Vec<String> = Vec::new();
        let mut stack = vec![doc.root()];
        while let Some(el) = stack.pop() {
            self.validate_element(doc, el, &mut ids, &mut idrefs, &mut errors);
            for c in doc.child_elements(el) {
                stack.push(c);
            }
        }
        for r in idrefs {
            if !ids.contains(&r) {
                errors.push(ValidityError::DanglingIdRef(r));
            }
        }
        errors
    }

    /// `true` when `doc` has no violations.
    pub fn is_valid(&self, doc: &Document) -> bool {
        self.validate(doc).is_empty()
    }

    fn validate_element(
        &self,
        doc: &Document,
        el: NodeId,
        ids: &mut HashSet<String>,
        idrefs: &mut Vec<String>,
        errors: &mut Vec<ValidityError>,
    ) {
        let name = doc.element_name(el).expect("stack holds elements only");
        let Some(decl) = self.dtd.element(name) else {
            errors.push(ValidityError::UndeclaredElement(name.to_string()));
            return;
        };

        // --- attributes -------------------------------------------------
        let defs = self.dtd.attributes(name);
        for &attr in doc.attributes(el) {
            let NodeData::Attr { name: an, value } = doc.node(attr).data else { continue };
            let Some(def) = defs.iter().find(|d| d.name == an) else {
                errors.push(ValidityError::UndeclaredAttribute {
                    element: name.to_string(),
                    attribute: an.to_string(),
                });
                continue;
            };
            match &def.ty {
                AttType::Id => {
                    if !xmlsec_xml::name::is_valid_name(value) {
                        errors.push(ValidityError::InvalidTokenValue {
                            element: name.to_string(),
                            attribute: an.to_string(),
                            value: value.to_string(),
                        });
                    } else if !ids.insert(value.to_string()) {
                        errors.push(ValidityError::DuplicateId(value.to_string()));
                    }
                }
                AttType::IdRef => idrefs.push(value.to_string()),
                AttType::IdRefs => {
                    idrefs.extend(value.split_whitespace().map(str::to_string));
                }
                AttType::NmToken => {
                    if !xmlsec_xml::name::is_valid_nmtoken(value) {
                        errors.push(ValidityError::InvalidTokenValue {
                            element: name.to_string(),
                            attribute: an.to_string(),
                            value: value.to_string(),
                        });
                    }
                }
                AttType::NmTokens => {
                    if value.split_whitespace().any(|t| !xmlsec_xml::name::is_valid_nmtoken(t))
                        || value.trim().is_empty()
                    {
                        errors.push(ValidityError::InvalidTokenValue {
                            element: name.to_string(),
                            attribute: an.to_string(),
                            value: value.to_string(),
                        });
                    }
                }
                AttType::Enumeration(allowed) | AttType::Notation(allowed) => {
                    if !allowed.iter().any(|v| v == value) {
                        errors.push(ValidityError::InvalidEnumValue {
                            element: name.to_string(),
                            attribute: an.to_string(),
                            value: value.to_string(),
                        });
                    }
                }
                AttType::Cdata | AttType::Entity | AttType::Entities => {}
            }
            if let DefaultDecl::Fixed(expected) = &def.default {
                if value != expected.as_str() {
                    errors.push(ValidityError::FixedValueMismatch {
                        element: name.to_string(),
                        attribute: an.to_string(),
                        expected: expected.clone(),
                        found: value.to_string(),
                    });
                }
            }
        }
        for def in defs {
            if matches!(def.default, DefaultDecl::Required)
                && doc.attribute(el, &def.name).is_none()
            {
                errors.push(ValidityError::MissingRequiredAttribute {
                    element: name.to_string(),
                    attribute: def.name.clone(),
                });
            }
        }

        // --- content ----------------------------------------------------
        match &decl.content {
            ContentSpec::Any => {}
            ContentSpec::Empty => {
                let has_content = doc.children(el).iter().any(|&c| {
                    matches!(doc.node(c).data, NodeData::Element { .. } | NodeData::Text(_))
                });
                if has_content {
                    errors.push(ValidityError::NonEmptyContent(name.to_string()));
                }
            }
            ContentSpec::Mixed(allowed) => {
                for &c in doc.children(el) {
                    if let NodeData::Element { name: cn, .. } = doc.node(c).data {
                        if !allowed.iter().any(|a| a == cn) {
                            errors.push(ValidityError::ContentModelMismatch {
                                element: name.to_string(),
                                found: vec![cn.to_string()],
                                model: decl.content.to_string(),
                            });
                        }
                    }
                }
            }
            ContentSpec::Children(_) => {
                let mut child_names: Vec<&str> = Vec::new();
                let mut has_text = false;
                for &c in doc.children(el) {
                    match doc.node(c).data {
                        NodeData::Element { name: cn, .. } => child_names.push(cn),
                        NodeData::Text(t) if !t.trim().is_empty() => has_text = true,
                        _ => {}
                    }
                }
                if has_text {
                    errors.push(ValidityError::UnexpectedText(name.to_string()));
                }
                let a = self.automata.get(name).expect("automaton compiled for children model");
                if !a.matches(&child_names) {
                    errors.push(ValidityError::ContentModelMismatch {
                        element: name.to_string(),
                        found: child_names.iter().map(|s| s.to_string()).collect(),
                        model: decl.content.to_string(),
                    });
                }
            }
        }
    }
}

/// One-shot validation convenience.
pub fn validate(dtd: &Dtd, doc: &Document) -> Vec<ValidityError> {
    Validator::new(dtd).validate(doc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_dtd;
    use xmlsec_xml::parse;

    const LAB: &str = r#"
        <!ELEMENT laboratory (project+)>
        <!ELEMENT project (manager, member*, paper*)>
        <!ATTLIST project name CDATA #REQUIRED type (internal|public) #REQUIRED>
        <!ELEMENT manager (#PCDATA)>
        <!ELEMENT member (#PCDATA)>
        <!ELEMENT paper (#PCDATA)>
        <!ATTLIST paper category (private|public) #REQUIRED>
    "#;

    fn lab() -> Dtd {
        parse_dtd(LAB).unwrap()
    }

    #[test]
    fn valid_document_passes() {
        let doc = parse(
            r#"<laboratory>
                 <project name="p" type="internal"><manager>Sam</manager>
                   <paper category="private">X</paper>
                 </project>
               </laboratory>"#,
        )
        .unwrap();
        assert_eq!(validate(&lab(), &doc), vec![]);
    }

    #[test]
    fn missing_required_attribute() {
        let doc = parse(
            r#"<laboratory><project type="internal"><manager>S</manager></project></laboratory>"#,
        )
        .unwrap();
        let errs = validate(&lab(), &doc);
        assert!(errs.iter().any(|e| matches!(e,
            ValidityError::MissingRequiredAttribute { element, attribute }
                if element == "project" && attribute == "name")));
    }

    #[test]
    fn enumeration_violation() {
        let doc = parse(
            r#"<laboratory><project name="p" type="secret"><manager>S</manager></project></laboratory>"#,
        )
        .unwrap();
        let errs = validate(&lab(), &doc);
        assert!(errs.iter().any(
            |e| matches!(e, ValidityError::InvalidEnumValue { value, .. } if value == "secret")
        ));
    }

    #[test]
    fn content_model_violation() {
        // member before manager
        let doc = parse(
            r#"<laboratory><project name="p" type="public"><member>M</member><manager>S</manager></project></laboratory>"#,
        )
        .unwrap();
        let errs = validate(&lab(), &doc);
        assert!(errs
            .iter()
            .any(|e| matches!(e, ValidityError::ContentModelMismatch { element, .. } if element == "project")));
    }

    #[test]
    fn undeclared_element_and_attribute() {
        let doc = parse(
            r#"<laboratory><project name="p" type="public" owner="x"><manager>S</manager><budget/></project></laboratory>"#,
        )
        .unwrap();
        let errs = validate(&lab(), &doc);
        assert!(errs
            .iter()
            .any(|e| matches!(e, ValidityError::UndeclaredElement(n) if n == "budget")));
        assert!(errs.iter().any(|e| matches!(e,
            ValidityError::UndeclaredAttribute { attribute, .. } if attribute == "owner")));
    }

    #[test]
    fn text_in_element_content() {
        let doc = parse(
            r#"<laboratory>stray<project name="p" type="public"><manager>S</manager></project></laboratory>"#,
        )
        .unwrap();
        let errs = validate(&lab(), &doc);
        assert!(errs
            .iter()
            .any(|e| matches!(e, ValidityError::UnexpectedText(n) if n == "laboratory")));
    }

    #[test]
    fn id_uniqueness_and_idref_resolution() {
        let dtd = parse_dtd(
            r#"<!ELEMENT r (e*)><!ELEMENT e EMPTY>
               <!ATTLIST e id ID #REQUIRED ref IDREF #IMPLIED>"#,
        )
        .unwrap();
        let doc = parse(r#"<r><e id="a"/><e id="a" ref="zz"/></r>"#).unwrap();
        let errs = validate(&dtd, &doc);
        assert!(errs.iter().any(|e| matches!(e, ValidityError::DuplicateId(i) if i == "a")));
        assert!(errs.iter().any(|e| matches!(e, ValidityError::DanglingIdRef(i) if i == "zz")));
    }

    #[test]
    fn fixed_value_mismatch() {
        let dtd = parse_dtd(r#"<!ELEMENT a EMPTY><!ATTLIST a v CDATA #FIXED "1">"#).unwrap();
        let ok = parse(r#"<a v="1"/>"#).unwrap();
        assert!(validate(&dtd, &ok).is_empty());
        let bad = parse(r#"<a v="2"/>"#).unwrap();
        assert!(matches!(validate(&dtd, &bad)[0], ValidityError::FixedValueMismatch { .. }));
    }

    #[test]
    fn empty_element_content_rejected() {
        let dtd = parse_dtd("<!ELEMENT a EMPTY>").unwrap();
        let doc = parse("<a>text</a>").unwrap();
        assert!(matches!(validate(&dtd, &doc)[0], ValidityError::NonEmptyContent(_)));
        // Comments are permitted inside EMPTY per common practice.
        let doc2 = parse("<a><!--c--></a>").unwrap();
        assert!(validate(&dtd, &doc2).is_empty());
    }

    #[test]
    fn root_mismatch_against_doctype() {
        let doc = parse("<!DOCTYPE laboratory><project/>").unwrap();
        let dtd = lab();
        let errs = validate(&dtd, &doc);
        assert!(errs.iter().any(|e| matches!(e, ValidityError::RootMismatch { .. })));
    }

    #[test]
    fn determinism_check_optional() {
        let dtd = parse_dtd(
            "<!ELEMENT a ((b,c)|(b,d))><!ELEMENT b EMPTY><!ELEMENT c EMPTY><!ELEMENT d EMPTY>",
        )
        .unwrap();
        let doc = parse("<a><b/><c/></a>").unwrap();
        // Default: ambiguity tolerated, document matches.
        assert!(Validator::new(&dtd).validate(&doc).is_empty());
        // Opt-in: ambiguity reported.
        let v = Validator::with_options(&dtd, ValidateOptions { check_determinism: true });
        assert!(v
            .validate(&doc)
            .iter()
            .any(|e| matches!(e, ValidityError::NondeterministicModel { .. })));
    }

    #[test]
    fn mixed_content_allows_listed_elements_only() {
        let dtd = parse_dtd("<!ELEMENT p (#PCDATA|b)*><!ELEMENT b (#PCDATA)>").unwrap();
        let ok = parse("<p>t<b>u</b>v</p>").unwrap();
        assert!(validate(&dtd, &ok).is_empty());
        let bad = parse("<p><i>x</i></p>").unwrap();
        let errs = validate(&dtd, &bad);
        // <i> is both undeclared and not allowed in the mixed model.
        assert!(errs.iter().any(|e| matches!(e, ValidityError::ContentModelMismatch { .. })));
    }

    #[test]
    fn nmtoken_value_checked() {
        let dtd = parse_dtd(r#"<!ELEMENT a EMPTY><!ATTLIST a t NMTOKEN #IMPLIED>"#).unwrap();
        let bad = parse(r#"<a t="has space"/>"#).unwrap();
        assert!(matches!(validate(&dtd, &bad)[0], ValidityError::InvalidTokenValue { .. }));
        let ok = parse(r#"<a t="tok-1"/>"#).unwrap();
        assert!(validate(&dtd, &ok).is_empty());
    }
}
