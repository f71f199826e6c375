//! Differential cancellation property over the full processor pipeline.
//!
//! For random documents, directories and authorization sets, a request
//! whose token trips after a random number of cooperative polls must be
//! **all-or-nothing**: either the typed `Cancelled` error comes back, or
//! the view is byte-identical to the uncancelled baseline — never a
//! partial or corrupt view. Afterwards no shared state may be poisoned:
//! the core-lease and fan-out queue gauges are back at their baseline
//! (a cancelled parallel run returned every leased core), and the same
//! processor re-run with a fresh token reproduces the full view.
//!
//! Thread counts are forced with `Parallelism::exact` so the
//! cancellation path of the real worker pool runs even on single-core
//! CI containers.

use proptest::prelude::*;
use xmlsec::core::{
    AccessRequest, CancelReason, CancelToken, DocumentSource, Parallelism, ProcessError,
    SecurityProcessor,
};
use xmlsec::workload::{
    random_auths, random_directory, random_requester, random_tree, AuthConfig, TreeConfig,
};
use xmlsec::xml::{serialize, SerializeOptions};
use xmlsec_authz::AuthorizationBase;

/// Current value of one of the worker-pool gauges (process-global; this
/// test owns its binary, so reads are not racing other tests).
fn gauge(name: &'static str, help: &'static str) -> i64 {
    xmlsec::telemetry::global().gauge(name, help, &[]).get()
}

fn cores_leased() -> i64 {
    gauge("xmlsec_par_cores_leased", "Extra cores currently leased from the global core budget.")
}

fn queue_depth() -> i64 {
    gauge("xmlsec_par_queue_depth", "Tasks currently waiting in the compute-view work queue.")
}

/// A fully-specified random scenario: document text, processor (with
/// the requester-independent authorization base) and the request.
fn scenario(
    doc_seed: u64,
    auth_seed: u64,
    elements: usize,
    auth_count: usize,
) -> (String, SecurityProcessor, AccessRequest) {
    let doc = random_tree(&TreeConfig { elements, ..Default::default() }, doc_seed);
    let xml = serialize(&doc, &SerializeOptions::default());
    let dir = random_directory(6, 4, auth_seed);
    let requester = random_requester(6, auth_seed);
    let (axml, _adtd) = random_auths(
        &AuthConfig { count: auth_count, ..Default::default() },
        "d.xml",
        "d.dtd",
        auth_seed,
    );
    let mut base = AuthorizationBase::new();
    for a in axml {
        base.add(a);
    }
    let processor = SecurityProcessor::new(dir, base);
    (xml, processor, AccessRequest { requester, uri: "d.xml".into() })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn cancelled_requests_are_all_or_nothing(
        doc_seed in 0u64..1_000_000,
        auth_seed in 0u64..1_000_000,
        elements in 8usize..120,
        auth_count in 1usize..10,
        polls in 0u64..4_000,
        threads in 1usize..4,
    ) {
        let (xml, mut p, req) = scenario(doc_seed, auth_seed, elements, auth_count);
        if threads > 1 {
            p.options.parallelism =
                Parallelism::threads(threads).with_seq_threshold(0).exact();
        }
        let src = DocumentSource { xml: &xml, dtd: None, dtd_uri: None, ..Default::default() };
        let want = p.process(&req, &src).expect("uncancelled baseline");
        let leased0 = cores_leased();
        let queued0 = queue_depth();

        // Cancel after a random number of cooperative polls: the run
        // either dies with the typed error or finishes byte-identical.
        let token = CancelToken::cancel_after_polls(polls);
        match p.process_cancellable(&req, &src, Some(&token)) {
            Err(ProcessError::Cancelled(CancelReason::Explicit)) => {}
            Ok(out) => prop_assert_eq!(
                &out.xml, &want.xml,
                "a run surviving its poll budget must be the full view"
            ),
            other => prop_assert!(false, "poll budget {}: {:?}", polls, other),
        }

        // Nothing leaked: every leased core returned, no queued task
        // stranded, regardless of where in the pipeline the run died.
        prop_assert_eq!(cores_leased(), leased0, "leaked core lease");
        prop_assert_eq!(queue_depth(), queued0, "stranded fan-out task");

        // Nothing poisoned: a fresh token on the same processor (and
        // the same shared caches) recomputes the identical full view.
        let fresh = CancelToken::never();
        let again =
            p.process_cancellable(&req, &src, Some(&fresh)).expect("restart after cancellation");
        prop_assert_eq!(&again.xml, &want.xml);
        prop_assert_eq!(&again.stats, &want.stats);
    }
}
