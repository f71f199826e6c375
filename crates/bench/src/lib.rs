//! # xmlsec-bench — experiment harness
//!
//! Shared setup for the Criterion benches (one per experiment row in
//! `DESIGN.md` §4) and for the `figures` binary that regenerates the
//! paper's figures and worked examples as text.

#![warn(missing_docs)]

use xmlsec_authz::{AuthType, Authorization, ObjectSpec, PolicyConfig, Sign};
use xmlsec_core::{
    compute_view_engine, label_document_engine, CompiledPolicy, EngineOptions, Parallelism,
    ResourceLimits,
};
use xmlsec_subjects::{Directory, Requester, Subject};
use xmlsec_workload::laboratory::{
    example1_authorizations, lab_authorization_base, lab_directory, tom, CSLAB_URI, LAB_DTD_URI,
};
use xmlsec_xml::Document;

/// A ready-to-measure scenario: document, directory, and the applicable
/// authorization sets for a requester.
pub struct BenchScenario {
    /// The document under access control.
    pub doc: Document,
    /// The server directory.
    pub dir: Directory,
    /// Applicable instance-level authorizations.
    pub axml: Vec<Authorization>,
    /// Applicable schema-level authorizations.
    pub adtd: Vec<Authorization>,
    /// The policy in force.
    pub policy: PolicyConfig,
}

/// A scaled laboratory document guarded by the Example 1 authorizations,
/// with Tom as the requester — the paper's own scenario, bigger.
pub fn lab_scenario(projects: usize) -> BenchScenario {
    let doc = xmlsec_workload::laboratory_scaled(projects, 0xC5_1AB);
    let dir = lab_directory();
    let base = lab_authorization_base();
    let requester = tom();
    let axml = base.applicable(CSLAB_URI, &requester, &dir).into_iter().cloned().collect();
    let adtd = base.applicable(LAB_DTD_URI, &requester, &dir).into_iter().cloned().collect();
    BenchScenario { doc, dir, axml, adtd, policy: PolicyConfig::paper_default() }
}

/// A scenario with `count` synthetic authorizations over a fixed
/// laboratory document (`projects` projects). Roughly half the
/// authorizations match some node.
pub fn auth_scaling_scenario(projects: usize, count: usize) -> BenchScenario {
    let doc = xmlsec_workload::laboratory_scaled(projects, 7);
    let dir = lab_directory();
    let mut axml = Vec::with_capacity(count);
    let paths = [
        "/laboratory/project",
        r#"//paper[./@category="private"]"#,
        r#"//paper[./@category="public"]"#,
        "//manager",
        "//fund",
        "//member/flname",
        r#"project[./@type="internal"]"#,
        "/laboratory/project/@name",
    ];
    for i in 0..count {
        let subject = match i % 3 {
            0 => Subject::new("Public", "*", "*").expect("subject"),
            1 => Subject::new("Foreign", "*", "*").expect("subject"),
            _ => Subject::new("Tom", "*", "*.it").expect("subject"),
        };
        let sign = if i % 4 == 0 { Sign::Minus } else { Sign::Plus };
        let ty = match i % 4 {
            0 => AuthType::Recursive,
            1 => AuthType::Local,
            2 => AuthType::RecursiveWeak,
            _ => AuthType::LocalWeak,
        };
        let path = paths[i % paths.len()];
        axml.push(Authorization::new(
            subject,
            ObjectSpec::with_path(CSLAB_URI, path).expect("path"),
            sign,
            ty,
        ));
    }
    BenchScenario { doc, dir, axml, adtd: Vec::new(), policy: PolicyConfig::paper_default() }
}

/// The Example 2 requester.
pub fn bench_requester() -> Requester {
    tom()
}

/// The Example 1 authorizations (owned).
pub fn bench_auths() -> Vec<Authorization> {
    example1_authorizations()
}

/// A scaled hospital ward guarded by the ward protection requirements,
/// with nurse `nina` as the requester (B12's primary corpus: wide trees,
/// content-dependent denials).
pub fn hospital_scenario(patients: usize) -> BenchScenario {
    use xmlsec_workload::hospital::*;
    let doc = hospital_scaled(patients, 0xB12);
    let dir = hospital_directory();
    let base = hospital_authorization_base();
    let requester = Requester::new("nina", "10.0.0.7", "ward3.hospital.org").expect("requester");
    let axml = base.applicable(WARD_URI, &requester, &dir).into_iter().cloned().collect();
    let adtd = base
        .applicable(HOSPITAL_DTD_URI, &requester, &dir)
        .into_iter()
        .cloned()
        .collect();
    BenchScenario { doc, dir, axml, adtd, policy: PolicyConfig::paper_default() }
}

/// A scaled bank-statements document guarded by the bank protection
/// requirements, with auditor `axel` as the requester (B12's secondary
/// corpus: flagged-transaction weak denials).
pub fn financial_scenario(accounts: usize) -> BenchScenario {
    use xmlsec_workload::financial::*;
    let doc = financial_scaled(accounts, 0xF1A);
    let dir = bank_directory();
    let base = bank_authorization_base();
    let requester = Requester::new("axel", "10.9.9.9", "hq.bank.com").expect("requester");
    let axml = base.applicable(STATEMENTS_URI, &requester, &dir).into_iter().cloned().collect();
    let adtd = base.applicable(BANK_DTD_URI, &requester, &dir).into_iter().cloned().collect();
    BenchScenario { doc, dir, axml, adtd, policy: PolicyConfig::paper_default() }
}

/// A scenario plus the requester's policy compiled against the corpus
/// DTD — the B15 (compiled vs interpreted labeling) harness. Both B15
/// corpora compile to fully guaranteed verdict tables, so the compiled
/// runner exercises the whole-document fast path.
pub struct CompiledScenario {
    /// The underlying scenario.
    pub scenario: BenchScenario,
    /// The compiled policy (`fast_path` is asserted by the constructor).
    pub compiled: CompiledPolicy,
}

fn compile_scenario(s: BenchScenario, dtd_text: &str, corpus: &str) -> CompiledScenario {
    let dtd = xmlsec_dtd::parse_dtd(dtd_text).expect("corpus DTD parses");
    let root = s.doc.element_name(s.doc.root()).expect("corpus root").to_string();
    let ax: Vec<&Authorization> = s.axml.iter().collect();
    let ad: Vec<&Authorization> = s.adtd.iter().collect();
    let compiled =
        xmlsec_core::compile(&dtd, &root, &ax, &ad, &s.dir, s.policy).expect("policy compiles");
    assert!(
        compiled.fast_path,
        "{corpus}: the B15 corpora are guaranteed-heavy by construction; \
         a residual cell means the scenario drifted"
    );
    CompiledScenario { scenario: s, compiled }
}

/// B15 primary corpus: administration clerk `omar` on a scaled ward.
/// His applicable set is two predicate-free schema-level grants
/// (`//billing`, `//patient/name`), which compile to an all-guaranteed
/// verdict table.
pub fn hospital_compiled_scenario(patients: usize) -> CompiledScenario {
    use xmlsec_workload::hospital::*;
    let doc = hospital_scaled(patients, 0xB15);
    let dir = hospital_directory();
    let base = hospital_authorization_base();
    let requester = Requester::new("omar", "10.0.0.9", "admin.hospital.org").expect("requester");
    let axml = base.applicable(WARD_URI, &requester, &dir).into_iter().cloned().collect();
    let adtd = base
        .applicable(HOSPITAL_DTD_URI, &requester, &dir)
        .into_iter()
        .cloned()
        .collect();
    let s = BenchScenario { doc, dir, axml, adtd, policy: PolicyConfig::paper_default() };
    compile_scenario(s, HOSPITAL_DTD, "hospital")
}

/// B15 secondary corpus: teller `tina` from a branch host on scaled
/// statements. Her applicable set is two predicate-free instance-level
/// grants (`owner`, `balance`) — also an all-guaranteed table.
pub fn financial_compiled_scenario(accounts: usize) -> CompiledScenario {
    use xmlsec_workload::financial::*;
    let doc = financial_scaled(accounts, 0xB15);
    let dir = bank_directory();
    let base = bank_authorization_base();
    let requester = Requester::new("tina", "10.1.4.20", "t1.branch.bank.com").expect("requester");
    let axml = base.applicable(STATEMENTS_URI, &requester, &dir).into_iter().cloned().collect();
    let adtd = base.applicable(BANK_DTD_URI, &requester, &dir).into_iter().cloned().collect();
    let s = BenchScenario { doc, dir, axml, adtd, policy: PolicyConfig::paper_default() };
    compile_scenario(s, BANK_DTD, "financial")
}

fn run_label(s: &BenchScenario, compiled: Option<&CompiledPolicy>) -> usize {
    let ax: Vec<&Authorization> = s.axml.iter().collect();
    let ad: Vec<&Authorization> = s.adtd.iter().collect();
    let opts = EngineOptions {
        limits: ResourceLimits::default_limits().xpath,
        parallelism: Parallelism::sequential(),
        decisions: None,
        compiled,
        cancel: None,
    };
    let labeling = label_document_engine(&s.doc, &ax, &ad, &s.dir, s.policy, &opts)
        .expect("bench corpora stay within default limits");
    labeling.stats.granted_nodes
}

/// One cold interpreted labeling pass (no caches, no compiled table).
pub fn run_label_interpreted(s: &BenchScenario) -> usize {
    run_label(s, None)
}

/// One labeling pass served from the compiled verdict table (the
/// whole-document fast path for the B15 corpora).
pub fn run_label_compiled(cs: &CompiledScenario) -> usize {
    run_label(&cs.scenario, Some(&cs.compiled))
}

/// Runs the parallel engine on a scenario with exactly `threads` workers
/// (`1` = the sequential path), returning the visible-node count.
/// Oversubscription is forced so thread-scaling measurements are about
/// the engine, not about what `available_parallelism` happens to report
/// inside a cgroup.
pub fn run_view_parallel(s: &BenchScenario, threads: usize) -> usize {
    let ax: Vec<&Authorization> = s.axml.iter().collect();
    let ad: Vec<&Authorization> = s.adtd.iter().collect();
    let parallelism = if threads <= 1 {
        Parallelism::sequential()
    } else {
        Parallelism::threads(threads).with_seq_threshold(0).exact()
    };
    let opts = EngineOptions {
        limits: ResourceLimits::default_limits().xpath,
        parallelism,
        decisions: None,
        compiled: None,
        cancel: None,
    };
    let (_, stats) = compute_view_engine(s.doc.clone(), &ax, &ad, &s.dir, s.policy, &opts)
        .expect("bench corpora stay within default limits");
    stats.granted_nodes
}

/// Runs `compute_view` on a scenario, returning the visible-node count
/// (a value Criterion can black-box).
pub fn run_view(s: &BenchScenario) -> usize {
    let ax: Vec<&Authorization> = s.axml.iter().collect();
    let ad: Vec<&Authorization> = s.adtd.iter().collect();
    let (_, stats) = xmlsec_core::compute_view(&s.doc, &ax, &ad, &s.dir, s.policy);
    stats.granted_nodes
}

/// Runs the naive baseline on a scenario.
pub fn run_view_naive(s: &BenchScenario) -> usize {
    let ax: Vec<&Authorization> = s.axml.iter().collect();
    let ad: Vec<&Authorization> = s.adtd.iter().collect();
    let (_, stats) = xmlsec_core::compute_view_naive(&s.doc, &ax, &ad, &s.dir, s.policy);
    stats.granted_nodes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_are_runnable() {
        let s = lab_scenario(10);
        assert!(s.doc.count_reachable() > 100);
        // Tom is covered by the Public grants but not the Admin one.
        assert_eq!(s.axml.len(), 2);
        assert_eq!(s.adtd.len(), 1);
        let fast = run_view(&s);
        let slow = run_view_naive(&s);
        assert_eq!(fast, slow);
        assert!(fast > 0);
    }

    #[test]
    fn parallel_scenarios_match_sequential() {
        for s in [hospital_scenario(60), financial_scenario(60)] {
            assert!(s.doc.count_reachable() > 300);
            assert!(!s.adtd.is_empty() || !s.axml.is_empty());
            let seq = run_view_parallel(&s, 1);
            assert!(seq > 0, "the requester must see part of the corpus");
            for threads in [2, 4] {
                assert_eq!(run_view_parallel(&s, threads), seq);
            }
        }
    }

    #[test]
    fn compiled_labeling_matches_interpreted() {
        for cs in [hospital_compiled_scenario(40), financial_compiled_scenario(40)] {
            let compiled = run_label_compiled(&cs);
            assert!(compiled > 0, "the B15 requesters must see part of the corpus");
            assert_eq!(compiled, run_label_interpreted(&cs.scenario));
        }
    }

    #[test]
    fn auth_scaling_scenario_scales() {
        let s = auth_scaling_scenario(20, 64);
        assert_eq!(s.axml.len(), 64);
        // engine and baseline agree here too
        assert_eq!(run_view(&s), run_view_naive(&s));
    }
}
