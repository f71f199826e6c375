//! The §5 policy matrix, end to end: the same document and authorization
//! set under every supported conflict-resolution and completeness policy.

use xmlsec::authz::Authorization;
use xmlsec::prelude::*;

/// Document: a report with two sections.
const DOC: &str = r#"<report><summary>sum</summary><detail>det</detail></report>"#;

fn dir() -> Directory {
    let mut d = Directory::new();
    d.add_user("kim").unwrap();
    d.add_group("Readers").unwrap();
    d.add_group("Writers").unwrap();
    d.add_member("kim", "Readers").unwrap();
    d.add_member("kim", "Writers").unwrap();
    d
}

fn auth(subj: &str, path: &str, sign: Sign, ty: AuthType) -> Authorization {
    Authorization::new(
        Subject::new(subj, "*", "*").unwrap(),
        ObjectSpec::with_path("r.xml", path).unwrap(),
        sign,
        ty,
    )
}

fn view(auths: &[Authorization], policy: PolicyConfig) -> String {
    let doc = parse(DOC).unwrap();
    let refs: Vec<&Authorization> = auths.iter().collect();
    let (v, _) = compute_view(&doc, &refs, &[], &dir(), policy);
    serialize(&v, &SerializeOptions::canonical())
}

/// Conflicting grants from two incomparable groups kim belongs to.
fn conflicting() -> Vec<Authorization> {
    vec![
        auth("Readers", "/report", Sign::Plus, AuthType::Recursive),
        auth("Writers", "/report", Sign::Minus, AuthType::Recursive),
    ]
}

#[test]
fn denials_take_precedence_on_unresolved_conflicts() {
    // The paper's default: incomparable subjects → denial wins.
    let v = view(&conflicting(), PolicyConfig::paper_default());
    assert_eq!(v, "<report/>");
}

#[test]
fn permissions_take_precedence_flips_the_outcome() {
    let v = view(
        &conflicting(),
        PolicyConfig {
            conflict: ConflictResolution::MostSpecificThenPermissions,
            ..Default::default()
        },
    );
    assert_eq!(v, "<report><summary>sum</summary><detail>det</detail></report>");
}

#[test]
fn nothing_takes_precedence_leaves_epsilon() {
    // Conflict cancels; closed policy then hides, open policy reveals.
    let closed = view(
        &conflicting(),
        PolicyConfig {
            conflict: ConflictResolution::NothingTakesPrecedence,
            completeness: CompletenessPolicy::Closed,
        },
    );
    assert_eq!(closed, "<report/>");
    let open = view(
        &conflicting(),
        PolicyConfig {
            conflict: ConflictResolution::NothingTakesPrecedence,
            completeness: CompletenessPolicy::Open,
        },
    );
    assert_eq!(open, "<report><summary>sum</summary><detail>det</detail></report>");
}

#[test]
fn most_specific_subject_overrides_before_sign_policy() {
    // kim (user) beats Readers (group) regardless of sign policy.
    let auths = vec![
        auth("Readers", "/report", Sign::Minus, AuthType::Recursive),
        auth("kim", "/report", Sign::Plus, AuthType::Recursive),
    ];
    for conflict in [
        ConflictResolution::MostSpecificThenDenials,
        ConflictResolution::MostSpecificThenPermissions,
    ] {
        let v = view(&auths, PolicyConfig { conflict, ..Default::default() });
        assert_eq!(v, "<report><summary>sum</summary><detail>det</detail></report>");
    }
    // The flat policies ignore specificity: denial still wins.
    let v = view(
        &auths,
        PolicyConfig { conflict: ConflictResolution::DenialsTakePrecedence, ..Default::default() },
    );
    assert_eq!(v, "<report/>");
}

#[test]
fn flat_permissions_policy() {
    let auths = vec![
        auth("kim", "/report", Sign::Minus, AuthType::Recursive),
        auth("Readers", "/report", Sign::Plus, AuthType::Recursive),
    ];
    let v = view(
        &auths,
        PolicyConfig {
            conflict: ConflictResolution::PermissionsTakePrecedence,
            ..Default::default()
        },
    );
    assert_eq!(v, "<report><summary>sum</summary><detail>det</detail></report>");
}

#[test]
fn open_policy_with_partial_denials() {
    // Open completeness: everything visible except what is denied.
    let auths = vec![auth("kim", "/report/detail", Sign::Minus, AuthType::Recursive)];
    let v =
        view(&auths, PolicyConfig { completeness: CompletenessPolicy::Open, ..Default::default() });
    assert_eq!(v, "<report><summary>sum</summary></report>");
}

#[test]
fn one_policy_per_document_but_many_per_server() {
    // The paper allows different policies on different documents of the
    // same server: run two processors side by side.
    use xmlsec::core::{AccessRequest, DocumentSource, ProcessorOptions, SecurityProcessor};
    let mut base = AuthorizationBase::new();
    for a in conflicting() {
        base.add(a);
    }
    let closed = SecurityProcessor {
        directory: dir(),
        authorizations: base.clone(),
        options: ProcessorOptions { policy: PolicyConfig::paper_default(), ..Default::default() },
        decisions: None,
        compiled: None,
    };
    let permissive = SecurityProcessor {
        directory: dir(),
        authorizations: base,
        options: ProcessorOptions {
            policy: PolicyConfig {
                conflict: ConflictResolution::PermissionsTakePrecedence,
                ..Default::default()
            },
            ..Default::default()
        },
        decisions: None,
        compiled: None,
    };
    let req = AccessRequest {
        requester: Requester::new("kim", "1.2.3.4", "h.x.org").unwrap(),
        uri: "r.xml".to_string(),
    };
    let src = DocumentSource { xml: DOC, dtd: None, dtd_uri: None, ..Default::default() };
    assert_eq!(closed.process(&req, &src).unwrap().xml, "<report/>");
    assert!(permissive.process(&req, &src).unwrap().xml.contains("sum"));
}
