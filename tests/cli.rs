//! End-to-end tests of the `xmlsec-cli` binary: every subcommand driven
//! through a real process with files on disk.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_xmlsec-cli"))
}

fn run(args: &[&str]) -> Output {
    cli().args(args).output().expect("binary runs")
}

struct Fixture {
    dir: PathBuf,
}

impl Fixture {
    fn new(name: &str) -> Fixture {
        let dir =
            std::env::temp_dir().join(format!("xmlsec-cli-test-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let f = Fixture { dir };
        f.write(
            "doc.xml",
            r#"<laboratory name="CSlab"><project name="P1" type="public"><manager><flname>Bob</flname></manager><paper category="public"><title>T1</title></paper><paper category="private"><title>T2</title></paper></project></laboratory>"#,
        );
        f.write(
            "lab.dtd",
            r#"<!ELEMENT laboratory (project+)>
<!ATTLIST laboratory name CDATA #REQUIRED>
<!ELEMENT project (manager, paper*)>
<!ATTLIST project name CDATA #REQUIRED type CDATA #REQUIRED>
<!ELEMENT manager (flname)>
<!ELEMENT flname (#PCDATA)>
<!ELEMENT paper (title)>
<!ATTLIST paper category CDATA #REQUIRED>
<!ELEMENT title (#PCDATA)>"#,
        );
        f.write(
            "acl.xml",
            r#"<xacl>
  <authorization sign="+" type="RW">
    <subject user-group="Public"/>
    <object uri="doc.xml" path="//paper[./@category=&quot;public&quot;]"/>
    <action>read</action>
  </authorization>
</xacl>"#,
        );
        f.write("dir.txt", "user Tom\ngroup Public\nmember Tom Public\n");
        f
    }

    fn write(&self, name: &str, content: &str) {
        std::fs::write(self.dir.join(name), content).expect("write fixture");
    }

    fn path(&self, name: &str) -> String {
        self.dir.join(name).to_string_lossy().into_owned()
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn stdout(o: &Output) -> String {
    String::from_utf8_lossy(&o.stdout).into_owned()
}

fn stderr(o: &Output) -> String {
    String::from_utf8_lossy(&o.stderr).into_owned()
}

#[test]
fn view_prunes_by_xacl() {
    let f = Fixture::new("view");
    let out = run(&[
        "view",
        "--doc",
        &f.path("doc.xml"),
        "--uri",
        "doc.xml",
        "--user",
        "Tom",
        "--ip",
        "1.2.3.4",
        "--host",
        "a.b.it",
        "--xacl",
        &f.path("acl.xml"),
        "--dir",
        &f.path("dir.txt"),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let s = stdout(&out);
    assert!(s.contains("T1"), "{s}");
    assert!(!s.contains("T2"), "{s}");
}

#[test]
fn view_open_policy_flag() {
    let f = Fixture::new("open");
    let out = run(&[
        "view",
        "--doc",
        &f.path("doc.xml"),
        "--uri",
        "doc.xml",
        "--user",
        "Tom",
        "--ip",
        "1.2.3.4",
        "--host",
        "a.b.it",
        "--open",
    ]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("T2"), "open policy reveals everything");
}

#[test]
fn validate_reports_valid_and_violations() {
    let f = Fixture::new("validate");
    let ok = run(&["validate", "--doc", &f.path("doc.xml"), "--dtd", &f.path("lab.dtd")]);
    assert!(ok.status.success(), "{}", stderr(&ok));
    assert!(stdout(&ok).contains("valid"));

    f.write("bad.xml", "<laboratory><project/></laboratory>");
    let bad = run(&["validate", "--doc", &f.path("bad.xml"), "--dtd", &f.path("lab.dtd")]);
    assert!(!bad.status.success());
    assert!(stdout(&bad).contains("required attribute"), "{}", stdout(&bad));
}

#[test]
fn validate_strict_reports_nondeterministic_models() {
    let f = Fixture::new("strict");
    f.write(
        "ambi.dtd",
        "<!ELEMENT a ((b, c) | (b, d))><!ELEMENT b EMPTY><!ELEMENT c EMPTY><!ELEMENT d EMPTY>",
    );
    f.write("ambi.xml", "<a><b/><c/></a>");
    // Default: the document matches (subset simulation tolerates ambiguity).
    let ok = run(&["validate", "--doc", &f.path("ambi.xml"), "--dtd", &f.path("ambi.dtd")]);
    assert!(ok.status.success(), "{}", stdout(&ok));
    // Strict: the 1-ambiguous model is reported.
    let strict =
        run(&["validate", "--doc", &f.path("ambi.xml"), "--dtd", &f.path("ambi.dtd"), "--strict"]);
    assert!(!strict.status.success());
    assert!(stdout(&strict).contains("nondeterministic"), "{}", stdout(&strict));
}

#[test]
fn loosen_emits_optionalized_dtd() {
    let f = Fixture::new("loosen");
    let out = run(&["loosen", "--dtd", &f.path("lab.dtd")]);
    assert!(out.status.success());
    let s = stdout(&out);
    assert!(s.contains("(project*)"), "{s}");
    assert!(!s.contains("#REQUIRED"), "{s}");
}

#[test]
fn tree_renders_doc_and_dtd() {
    let f = Fixture::new("tree");
    let doc_tree = run(&["tree", "--doc", &f.path("doc.xml")]);
    assert!(doc_tree.status.success());
    assert!(stdout(&doc_tree).contains("(laboratory)"));
    let dtd_tree = run(&["tree", "--dtd", &f.path("lab.dtd")]);
    assert!(dtd_tree.status.success());
    assert!(stdout(&dtd_tree).contains("(project)+"), "{}", stdout(&dtd_tree));
}

#[test]
fn xpath_prints_matches() {
    let f = Fixture::new("xpath");
    let out = run(&["xpath", "--doc", &f.path("doc.xml"), "--expr", "//paper/@category"]);
    assert!(out.status.success());
    assert_eq!(stdout(&out), "public\nprivate\n");
}

#[test]
fn xacl_checks_and_echoes() {
    let f = Fixture::new("xacl");
    let out = run(&["xacl", "--xacl", &f.path("acl.xml")]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("1 authorizations"));
    assert!(stdout(&out).contains("⟨Public, *, *⟩"));
}

#[test]
fn analyze_flags_dead_paths() {
    let f = Fixture::new("analyze");
    let live = run(&["analyze", "--dtd", &f.path("lab.dtd"), "--xacl", &f.path("acl.xml")]);
    assert!(live.status.success(), "{}", stdout(&live));
    assert!(stdout(&live).contains("covers <paper>"), "{}", stdout(&live));

    f.write(
        "dead.xml",
        r#"<xacl><authorization sign="+" type="R">
            <subject user-group="Public"/>
            <object uri="doc.xml" path="//budget"/>
            <action>read</action></authorization></xacl>"#,
    );
    let dead = run(&["analyze", "--dtd", &f.path("lab.dtd"), "--xacl", &f.path("dead.xml")]);
    assert!(!dead.status.success());
    assert!(stdout(&dead).contains("DEAD PATH"), "{}", stdout(&dead));
}

/// Path to a shipped example-policy corpus file.
fn corpus(name: &str) -> String {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("examples/policies")
        .join(name)
        .to_string_lossy()
        .into_owned()
}

#[test]
fn analyze_hospital_corpus_matches_goldens() {
    let human = run(&[
        "analyze",
        &corpus("hospital.dtd"),
        &corpus("hospital.xacl"),
        "--dir",
        &corpus("hospital.dir"),
    ]);
    assert!(human.status.success(), "{}", stderr(&human));
    assert_eq!(stdout(&human), include_str!("golden/analyze_hospital.txt"));

    let json = run(&[
        "analyze",
        &corpus("hospital.dtd"),
        &corpus("hospital.xacl"),
        "--dir",
        &corpus("hospital.dir"),
        "--format",
        "json",
    ]);
    assert!(json.status.success(), "{}", stderr(&json));
    assert_eq!(
        stdout(&json),
        include_str!("golden/analyze_hospital.json"),
        "the analyze JSON schema is a contract; update the golden deliberately"
    );
}

#[test]
fn analyze_financial_corpus_matches_goldens() {
    let args = |fmt: &'static str| {
        vec![
            "analyze".to_string(),
            corpus("financial.dtd"),
            corpus("financial.xacl"),
            "--dir".to_string(),
            corpus("financial.dir"),
            "--dtd-uri".to_string(),
            "statements.dtd".to_string(),
            "--format".to_string(),
            fmt.to_string(),
        ]
    };
    let human = cli().args(args("human")).output().expect("binary runs");
    assert!(human.status.success(), "{}", stderr(&human));
    assert_eq!(stdout(&human), include_str!("golden/analyze_financial.txt"));

    let json = cli().args(args("json")).output().expect("binary runs");
    assert!(json.status.success(), "{}", stderr(&json));
    assert_eq!(stdout(&json), include_str!("golden/analyze_financial.json"));
}

#[test]
fn analyze_writes_hospital_corpus_matches_goldens() {
    let args = |fmt: &'static str| {
        vec![
            "analyze".to_string(),
            corpus("hospital.dtd"),
            corpus("hospital.xacl"),
            "--dir".to_string(),
            corpus("hospital.dir"),
            "--writes".to_string(),
            "--format".to_string(),
            fmt.to_string(),
        ]
    };
    let human = cli().args(args("human")).output().expect("binary runs");
    assert!(human.status.success(), "{}", stderr(&human));
    assert_eq!(stdout(&human), include_str!("golden/analyze_writes_hospital.txt"));

    let json = cli().args(args("json")).output().expect("binary runs");
    assert!(json.status.success(), "{}", stderr(&json));
    assert_eq!(
        stdout(&json),
        include_str!("golden/analyze_writes_hospital.json"),
        "the analyze --writes JSON schema is a contract; update the golden deliberately"
    );
}

#[test]
fn analyze_writes_financial_corpus_matches_goldens() {
    let args = |fmt: &'static str| {
        vec![
            "analyze".to_string(),
            corpus("financial.dtd"),
            corpus("financial.xacl"),
            "--dir".to_string(),
            corpus("financial.dir"),
            "--dtd-uri".to_string(),
            "statements.dtd".to_string(),
            "--writes".to_string(),
            "--format".to_string(),
            fmt.to_string(),
        ]
    };
    // The tellers' transaction grant is write-only (they read only
    // owners and balances), so the analyzer flags a write-only region —
    // a warning, not an error: the command still exits zero.
    let human = cli().args(args("human")).output().expect("binary runs");
    assert!(human.status.success(), "{}", stderr(&human));
    assert_eq!(stdout(&human), include_str!("golden/analyze_writes_financial.txt"));

    let json = cli().args(args("json")).output().expect("binary runs");
    assert!(json.status.success(), "{}", stderr(&json));
    assert_eq!(stdout(&json), include_str!("golden/analyze_writes_financial.json"));
}

#[test]
fn compile_hospital_corpus_matches_golden() {
    let args = |fmt: &'static str| {
        vec![
            "compile".to_string(),
            corpus("hospital.dtd"),
            corpus("hospital.xacl"),
            "--dir".to_string(),
            corpus("hospital.dir"),
            "--user".to_string(),
            "omar".to_string(),
            "--ip".to_string(),
            "10.0.0.9".to_string(),
            "--host".to_string(),
            "admin.hospital.org".to_string(),
            "--format".to_string(),
            fmt.to_string(),
        ]
    };
    // Administration's two predicate-free schema grants compile to an
    // all-guaranteed table: the whole-document fast path.
    let human = cli().args(args("human")).output().expect("binary runs");
    assert!(human.status.success(), "{}", stderr(&human));
    let s = stdout(&human);
    assert!(s.contains("fast path: yes"), "{s}");
    assert!(s.contains("<billing>"), "{s}");

    let json = cli().args(args("json")).output().expect("binary runs");
    assert!(json.status.success(), "{}", stderr(&json));
    assert_eq!(
        stdout(&json),
        include_str!("golden/compile_hospital.json"),
        "the compile JSON schema is a contract; update the golden deliberately"
    );
}

#[test]
fn compile_financial_corpus_matches_golden() {
    let args = |fmt: &'static str| {
        vec![
            "compile".to_string(),
            corpus("financial.dtd"),
            corpus("financial.xacl"),
            "--dir".to_string(),
            corpus("financial.dir"),
            "--user".to_string(),
            "axel".to_string(),
            "--ip".to_string(),
            "10.9.9.9".to_string(),
            "--host".to_string(),
            "hq.bank.com".to_string(),
            "--dtd-uri".to_string(),
            "statements.dtd".to_string(),
            "--doc-uri".to_string(),
            "statements.xml".to_string(),
            "--format".to_string(),
            fmt.to_string(),
        ]
    };
    // The auditors' flagged-memo denial carries a predicate, so one cell
    // stays instance-dependent: a residual check, no fast path.
    let human = cli().args(args("human")).output().expect("binary runs");
    assert!(human.status.success(), "{}", stderr(&human));
    let s = stdout(&human);
    assert!(s.contains("fast path: no"), "{s}");
    assert!(s.contains("residual instance checks:"), "{s}");

    let json = cli().args(args("json")).output().expect("binary runs");
    assert!(json.status.success(), "{}", stderr(&json));
    assert_eq!(stdout(&json), include_str!("golden/compile_financial.json"));
}

#[test]
fn analyze_subject_list_and_flag_errors() {
    // Explicit subject list: only the requested table is produced.
    let out = run(&[
        "analyze",
        &corpus("hospital.dtd"),
        &corpus("hospital.xacl"),
        "--dir",
        &corpus("hospital.dir"),
        "--subjects",
        "list",
        "--subject",
        "omar",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let s = stdout(&out);
    assert!(s.contains("decision table ⟨omar, *, *⟩"), "{s}");
    assert!(!s.contains("decision table ⟨Clinical"), "{s}");

    // list mode without --subject is a usage error.
    let none =
        run(&["analyze", &corpus("hospital.dtd"), &corpus("hospital.xacl"), "--subjects", "list"]);
    assert!(!none.status.success());
    assert!(stderr(&none).contains("--subject"), "{}", stderr(&none));
}

#[test]
fn lint_reports_findings() {
    let f = Fixture::new("lint");
    let clean = run(&["lint", "--xacl", &f.path("acl.xml"), "--dir", &f.path("dir.txt")]);
    assert!(clean.status.success(), "{}", stdout(&clean));
    assert!(stdout(&clean).contains("clean"));

    // A duplicated authorization plus an unknown subject.
    f.write(
        "messy.xml",
        r#"<xacl>
  <authorization sign="+" type="R">
    <subject user-group="Public"/><object uri="d.xml" path="/a"/>
    <action>read</action></authorization>
  <authorization sign="+" type="R">
    <subject user-group="Public"/><object uri="d.xml" path="/a"/>
    <action>read</action></authorization>
  <authorization sign="+" type="R">
    <subject user-group="Nobody"/><object uri="d.xml" path="/a"/>
    <action>read</action></authorization>
</xacl>"#,
    );
    let messy = run(&["lint", "--xacl", &f.path("messy.xml"), "--dir", &f.path("dir.txt")]);
    assert!(!messy.status.success());
    let s = stdout(&messy);
    assert!(s.contains("duplicates"), "{s}");
    assert!(s.contains("Nobody"), "{s}");
}

#[test]
fn explain_prints_labels() {
    let f = Fixture::new("explain");
    let out = run(&[
        "explain",
        "--doc",
        &f.path("doc.xml"),
        "--uri",
        "doc.xml",
        "--user",
        "Tom",
        "--ip",
        "1.2.3.4",
        "--host",
        "a.b.it",
        "--xacl",
        &f.path("acl.xml"),
        "--dir",
        &f.path("dir.txt"),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let s = stdout(&out);
    assert!(s.contains("(paper) [+]"), "{s}");
    assert!(s.contains("(laboratory) [ε]"), "{s}");
}

#[test]
fn bad_usage_exits_nonzero_with_usage() {
    let none = cli().output().expect("runs");
    assert_eq!(none.status.code(), Some(2));
    assert!(stderr(&none).contains("usage"));

    let unknown = run(&["frobnicate"]);
    assert!(!unknown.status.success());

    let missing = run(&["view", "--doc"]);
    assert_eq!(missing.status.code(), Some(2));
    assert!(stderr(&missing).contains("--doc needs a value"));

    let f = Fixture::new("badfile");
    let nofile = run(&["validate", "--doc", &f.path("nope.xml"), "--dtd", &f.path("lab.dtd")]);
    assert!(!nofile.status.success());
    assert!(stderr(&nofile).contains("cannot read"));
}

#[test]
fn serve_robustness_flags_are_validated_before_binding() {
    // Malformed deadline/shedding flags must fail fast with a typed
    // message, before the server ever binds a socket.
    let bad_deadline = run(&["serve", "--deadline-ms", "soon"]);
    assert!(!bad_deadline.status.success());
    assert!(stderr(&bad_deadline).contains("--deadline-ms must be a number"));

    let bad_shed = run(&["serve", "--shed-adaptive", "maybe"]);
    assert!(!bad_shed.status.success());
    assert!(stderr(&bad_shed).contains("--shed-adaptive must be on or off"));

    let bad_target = run(&["serve", "--shed-target-ms", "fast"]);
    assert!(!bad_target.status.success());
    assert!(stderr(&bad_target).contains("--shed-target-ms must be a number"));
}

#[test]
fn a_flag_the_subcommand_does_not_take_is_a_usage_error() {
    // `--doc` names no file: were the flag accepted, serve would stop at
    // reading it (exit 1) before binding; a refused flag stops earlier.
    let refused = |args: &[&str], flag: &str| {
        let out = run(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr(&out));
        let err = stderr(&out);
        assert!(err.contains(&format!("does not take --{flag}")), "{args:?}: {err}");
        assert!(err.contains("usage: xmlsec-cli"), "{err}");
        assert!(!err.contains("cannot read"), "refused before any file is read: {err}");
    };
    let serve = ["serve", "--doc", "/nonexistent/doc.xml", "--uri", "x", "--addr", "127.0.0.1:0"];
    // The removed transport flag and a misspelled `--workers`.
    refused(&[&serve[..], &["--transport", "iocp"]].concat(), "transport");
    refused(&[&serve[..], &["--worker", "4"]].concat(), "worker");
    // Flags are per subcommand: `--workers` belongs to serve only.
    refused(&["view", "--workers", "4"], "workers");
    refused(&["lint", "--xacl", "/nonexistent/acl.xml", "--pretty"], "pretty");
    // A flag the subcommand takes still gets past parsing.
    let taken = run(&[&serve[..], &["--workers", "4"]].concat());
    assert_eq!(taken.status.code(), Some(1), "{}", stderr(&taken));
    assert!(stderr(&taken).contains("cannot read"), "{}", stderr(&taken));
}

#[test]
fn fixture_paths_are_absolute() {
    // Sanity: fixtures must not depend on the CWD of the test runner.
    let f = Fixture::new("abs");
    assert!(Path::new(&f.path("doc.xml")).is_absolute());
}
