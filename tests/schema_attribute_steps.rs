//! Steps after an attribute or character-data step, end to end on a
//! default `SecureServer` (policy compilation on, write pre-flight on).
//!
//! `/d/@id/..` selects the owner element `d` on every instance. The
//! schema-level selection behind the compiled read tables and the
//! static write pre-flight must select it too: a selection that stopped
//! at the attribute would miss the `-L` denial on `d`, so the compiled
//! read path would serve the attribute the interpreted path hides, and
//! the pre-flight would pass a write the dynamic check refuses. The same
//! holds for `text()/..` and the element holding the text.

use xmlsec::core::UpdateOp;
use xmlsec::server::{ClientRequest, SecureServer, ServerError};
use xmlsec_authz::{Action, AuthType, Authorization, AuthorizationBase, ObjectSpec, Sign};
use xmlsec_subjects::{Directory, Subject};

const DTD: &str = "<!ELEMENT d (pub)>\n<!ATTLIST d id CDATA #IMPLIED>\n<!ELEMENT pub (#PCDATA)>";

const DOC: &str = r#"<d id="secret"><pub>hello</pub></d>"#;

fn auth(user: &str, uri: &str, path: Option<&str>, sign: Sign, ty: AuthType) -> Authorization {
    let object = match path {
        Some(p) => ObjectSpec::with_path(uri, p).expect("object"),
        None => ObjectSpec::whole(uri),
    };
    Authorization::new(Subject::new(user, "*", "*").expect("subject"), object, sign, ty)
}

fn server(base: AuthorizationBase, user: &str) -> SecureServer {
    let mut dir = Directory::new();
    dir.add_user(user).expect("add user");
    let mut s = SecureServer::new(dir, base);
    s.register_credentials(user, "pw");
    s.repository_mut().put_dtd("d.dtd", DTD);
    s.repository_mut().put_document("doc.xml", DOC, Some("d.dtd"));
    s
}

fn request(user: &str) -> ClientRequest {
    ClientRequest {
        user: Some((user.to_string(), "pw".to_string())),
        ip: "1.2.3.4".to_string(),
        sym: "h.x.org".to_string(),
        uri: "doc.xml".to_string(),
    }
}

/// `tom` may read `d` recursively, but a local denial on `@id/..` (that
/// is, on `d` itself) hides `d`'s attributes: `d` survives only as the
/// structure-only tag around the visible `pub`.
#[test]
fn compiled_read_honours_a_denial_reached_through_an_attribute() {
    let tom_base = || {
        let mut base = AuthorizationBase::new();
        base.add(auth("tom", "doc.xml", Some("/d"), Sign::Plus, AuthType::Recursive));
        base.add(auth("tom", "doc.xml", Some("/d/@id/.."), Sign::Minus, AuthType::Local));
        base
    };
    let compiled = server(tom_base(), "tom").handle(&request("tom")).expect("compiled view");
    let interpreted = server(tom_base(), "tom")
        .with_compile(false)
        .handle(&request("tom"))
        .expect("view");
    assert!(!interpreted.xml.contains("secret"), "{}", interpreted.xml);
    assert!(interpreted.xml.contains("hello"), "{}", interpreted.xml);
    assert_eq!(compiled.xml, interpreted.xml, "the compiled read path changed the view");
}

/// A local denial on `/d/pub/text()/..` (that is, on `pub`) hides the
/// text `pub` holds.
#[test]
fn compiled_read_honours_a_denial_reached_through_text() {
    let tom_base = || {
        let mut base = AuthorizationBase::new();
        base.add(auth("tom", "doc.xml", Some("/d"), Sign::Plus, AuthType::Recursive));
        base.add(auth("tom", "doc.xml", Some("/d/pub/text()/.."), Sign::Minus, AuthType::Local));
        base
    };
    let compiled = server(tom_base(), "tom").handle(&request("tom")).expect("compiled view");
    let interpreted = server(tom_base(), "tom")
        .with_compile(false)
        .handle(&request("tom"))
        .expect("view");
    assert!(!interpreted.xml.contains("hello"), "{}", interpreted.xml);
    assert_eq!(compiled.xml, interpreted.xml, "the compiled read path changed the view");
}

/// `ed` holds a schema-wide recursive write grant and a local write
/// denial on `@id/..`: setting `d`'s attribute is refused by the dynamic
/// check, so the pre-flight must not wave the batch through.
#[test]
fn write_preflight_honours_a_denial_reached_through_an_attribute() {
    let ed_base = || {
        let mut base = AuthorizationBase::new();
        base.add(
            auth("ed", "d.dtd", None, Sign::Plus, AuthType::Recursive).with_action(Action::Write),
        );
        base.add(
            auth("ed", "doc.xml", Some("/d/@id/.."), Sign::Minus, AuthType::Local)
                .with_action(Action::Write),
        );
        base
    };
    let ops = [UpdateOp::SetAttribute {
        target: "/d".to_string(),
        name: "id".to_string(),
        value: "leaked".to_string(),
    }];
    for s in [server(ed_base(), "ed"), server(ed_base(), "ed").without_static_preflight()] {
        let outcome = s.update(&request("ed"), &ops);
        assert!(matches!(outcome, Err(ServerError::UpdateDenied(_))), "{outcome:?}");
        let doc = s.repository().document("doc.xml").expect("stored").xml.clone();
        assert_eq!(doc, DOC, "a refused batch must not commit");
    }
}
