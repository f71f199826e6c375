//! Differential properties of the parallel compute-view engine.
//!
//! The sequential engine is already pinned against the naive declarative
//! oracle (`tests/differential.rs`); here the parallel engine is pinned
//! against **both**: for random DTD-conforming documents, random trees,
//! random authorization sets and random thread counts, the fanned-out
//! engine must produce byte-identical views, identical statistics, and —
//! because the node-visit budget is one request-wide pool drawn exactly
//! — identical `LimitExceeded` classification when the budget trips,
//! regardless of how work landed on threads.
//!
//! Thread counts are forced with `Parallelism::exact` so real workers
//! run even on single-core CI containers.

use proptest::prelude::*;
use xmlsec::authz::Authorization;
use xmlsec::core::{
    compute_view_engine, compute_view_naive, EngineOptions, Parallelism, ViewStats,
};
use xmlsec::prelude::*;
use xmlsec::workload::{
    conforming_doc, random_auths, random_directory, random_dtd, random_requester, AuthConfig,
    DtdConfig, TreeConfig,
};
use xmlsec::xpath::{EvalError, EvalLimits};

/// One fully-specified random scenario.
struct Scenario {
    doc: Document,
    dir: Directory,
    axml: Vec<Authorization>,
    adtd: Vec<Authorization>,
}

/// A random scenario over an arbitrary tree (the shape family the
/// sequential differential suite uses).
fn tree_scenario(doc_seed: u64, auth_seed: u64, elements: usize, auth_count: usize) -> Scenario {
    let doc =
        xmlsec::workload::random_tree(&TreeConfig { elements, ..Default::default() }, doc_seed);
    with_auths(doc, auth_seed, auth_count)
}

/// A random scenario over a document conforming to a random DTD — the
/// generator family the issue calls for, with grammar-shaped nesting.
fn dtd_scenario(dtd_seed: u64, doc_seed: u64, auth_seed: u64, auth_count: usize) -> Scenario {
    let dtd = random_dtd(&DtdConfig::default(), dtd_seed);
    let doc = conforming_doc(&dtd, doc_seed);
    with_auths(doc, auth_seed, auth_count)
}

fn with_auths(doc: Document, auth_seed: u64, auth_count: usize) -> Scenario {
    let dir = random_directory(6, 4, auth_seed);
    let requester = random_requester(6, auth_seed);
    let (axml_all, adtd_all) = random_auths(
        &AuthConfig { count: auth_count, ..Default::default() },
        "d.xml",
        "d.dtd",
        auth_seed,
    );
    let axml = axml_all
        .into_iter()
        .filter(|a| requester.is_covered_by(&a.subject, &dir))
        .collect();
    let adtd = adtd_all
        .into_iter()
        .filter(|a| requester.is_covered_by(&a.subject, &dir))
        .collect();
    Scenario { doc, dir, axml, adtd }
}

fn engine_opts(threads: usize, limits: EvalLimits) -> EngineOptions<'static> {
    let parallelism = if threads <= 1 {
        Parallelism::sequential()
    } else {
        Parallelism::threads(threads).with_seq_threshold(0).exact()
    };
    EngineOptions { limits, parallelism, decisions: None, compiled: None, cancel: None }
}

fn run(
    s: &Scenario,
    policy: PolicyConfig,
    threads: usize,
    limits: EvalLimits,
) -> Result<(String, ViewStats), EvalError> {
    let ax: Vec<&Authorization> = s.axml.iter().collect();
    let ad: Vec<&Authorization> = s.adtd.iter().collect();
    compute_view_engine(s.doc.clone(), &ax, &ad, &s.dir, policy, &engine_opts(threads, limits))
        .map(|(view, stats)| (serialize(&view, &SerializeOptions::canonical()), stats))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Parallel output is byte-identical to the sequential engine — and
    /// to the naive oracle — for random trees, auth sets and thread
    /// counts.
    #[test]
    fn parallel_equals_sequential(
        doc_seed in 0u64..1_000_000,
        auth_seed in 0u64..1_000_000,
        elements in 5usize..120,
        auth_count in 0usize..24,
        threads in 2usize..8,
    ) {
        let s = tree_scenario(doc_seed, auth_seed, elements, auth_count);
        let policy = PolicyConfig::paper_default();
        let limits = EvalLimits::default_limits();
        let (seq_xml, seq_stats) = run(&s, policy, 1, limits).expect("within default limits");
        let (par_xml, par_stats) = run(&s, policy, threads, limits).expect("within default limits");
        prop_assert_eq!(
            &par_xml, &seq_xml,
            "parallel view must be byte-identical (doc_seed={}, auth_seed={}, threads={})",
            doc_seed, auth_seed, threads
        );
        prop_assert_eq!(par_stats, seq_stats);

        // The oracle agrees too (structure, not serialization, since the
        // naive evaluator builds its own tree).
        let ax: Vec<&Authorization> = s.axml.iter().collect();
        let ad: Vec<&Authorization> = s.adtd.iter().collect();
        let (naive, _) = compute_view_naive(&s.doc, &ax, &ad, &s.dir, policy);
        prop_assert_eq!(
            serialize(&naive, &SerializeOptions::canonical()), seq_xml,
            "oracle mismatch (doc_seed={}, auth_seed={})", doc_seed, auth_seed
        );
    }

    /// The same property over DTD-conforming documents from the grammar
    /// generator, across the policy matrix.
    #[test]
    fn parallel_equals_sequential_on_dtd_conforming_docs(
        dtd_seed in 0u64..1_000_000,
        doc_seed in 0u64..1_000_000,
        auth_seed in 0u64..1_000_000,
        auth_count in 0usize..20,
        threads in 2usize..8,
    ) {
        let s = dtd_scenario(dtd_seed, doc_seed, auth_seed, auth_count);
        for policy in [
            PolicyConfig::paper_default(),
            PolicyConfig { completeness: CompletenessPolicy::Open, ..Default::default() },
            PolicyConfig {
                conflict: ConflictResolution::PermissionsTakePrecedence,
                ..Default::default()
            },
        ] {
            let limits = EvalLimits::default_limits();
            let seq = run(&s, policy, 1, limits).expect("within default limits");
            let par = run(&s, policy, threads, limits).expect("within default limits");
            prop_assert_eq!(
                par, seq,
                "parallel/sequential divergence (dtd_seed={}, doc_seed={}, auth_seed={}, \
                 threads={}, policy={:?})",
                dtd_seed, doc_seed, auth_seed, threads, policy
            );
        }
    }

    /// When the shared node-visit pool trips, it trips identically:
    /// sequential and parallel runs classify every budget the same way
    /// (same `Ok`/`Err`, same error), because the pool is drawn exactly
    /// and the trip depends only on total demand, never on scheduling.
    #[test]
    fn budget_trips_identically_in_parallel(
        doc_seed in 0u64..1_000_000,
        auth_seed in 0u64..1_000_000,
        elements in 20usize..100,
        auth_count in 2usize..16,
        threads in 2usize..8,
        budget in 1u64..4_000,
    ) {
        let s = tree_scenario(doc_seed, auth_seed, elements, auth_count);
        let policy = PolicyConfig::paper_default();
        let limits = EvalLimits { max_node_visits: budget, ..EvalLimits::default_limits() };
        let seq = run(&s, policy, 1, limits);
        let par = run(&s, policy, threads, limits);
        prop_assert_eq!(
            par, seq,
            "LimitExceeded classification diverged (doc_seed={}, auth_seed={}, threads={}, \
             budget={})",
            doc_seed, auth_seed, threads, budget
        );
    }
}

/// Directed check: a budget exactly at the sequential trip point trips
/// the parallel engine too, and one node less of slack flips both.
#[test]
fn budget_boundary_is_schedule_independent() {
    let s = tree_scenario(42, 99, 80, 12);
    let policy = PolicyConfig::paper_default();
    // Find the smallest budget where the sequential engine succeeds.
    let mut lo = 1u64;
    let mut hi = 10_000_000u64;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        let limits = EvalLimits { max_node_visits: mid, ..EvalLimits::default_limits() };
        if run(&s, policy, 1, limits).is_ok() {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    for threads in [2usize, 4, 8] {
        let at = EvalLimits { max_node_visits: lo, ..EvalLimits::default_limits() };
        assert!(run(&s, policy, threads, at).is_ok(), "{threads} threads at the boundary");
        if lo > 1 {
            let under = EvalLimits { max_node_visits: lo - 1, ..EvalLimits::default_limits() };
            assert_eq!(
                run(&s, policy, threads, under).unwrap_err(),
                run(&s, policy, 1, under).unwrap_err(),
                "{threads} threads one below the boundary"
            );
        }
    }
}
