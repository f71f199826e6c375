//! The evaluator makes no heap allocation per node it visits.
//!
//! A counting allocator tallies this thread's allocations while the
//! authorization objects of the laboratory and hospital policies are
//! evaluated over a small and a 16× larger document. Node-set vectors
//! may grow by doubling, so the count may rise with the logarithm of the
//! document size, but never with the number of nodes visited.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use xmlsec::workload::hospital::{hospital_authorizations, hospital_scaled};
use xmlsec::workload::laboratory::example1_authorizations;
use xmlsec::workload::laboratory_scaled;
use xmlsec::xml::cancel::CancelToken;
use xmlsec::xml::Document;
use xmlsec::xpath::{eval_path_shared, EvalLimits, PathExpr, SharedBudget};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with` fails only while the thread is being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to the system allocator;
// counting touches only a thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations made by one evaluation of `path`, the way a served
/// request's labeling runs it: a pool polling an armed token.
fn allocations(doc: &Document, path: &PathExpr) -> u64 {
    let limits = EvalLimits::default();
    let token = CancelToken::with_timeout(std::time::Duration::from_secs(10));
    let pool = SharedBudget::with_cancel(limits.max_node_visits, token);
    let before = ALLOCATIONS.with(Cell::get);
    let nodes = eval_path_shared(doc, doc.root(), path, &limits, &pool).unwrap();
    let after = ALLOCATIONS.with(Cell::get);
    drop(nodes);
    after - before
}

#[test]
fn object_evaluation_allocations_do_not_grow_with_the_document() {
    let small = [
        (laboratory_scaled(48, 5), example1_authorizations()),
        (hospital_scaled(48, 0xB12), hospital_authorizations()),
    ];
    let large = [
        (laboratory_scaled(768, 5), example1_authorizations()),
        (hospital_scaled(768, 0xB12), hospital_authorizations()),
    ];
    for ((small_doc, auths), (large_doc, _)) in small.iter().zip(&large) {
        for object in auths.iter().map(|a| &a.object) {
            let (Some(path), Some(text)) = (&object.path, &object.path_text) else { continue };
            // Warm the evaluator's one-time state (telemetry handles).
            allocations(small_doc, path);
            let few = allocations(small_doc, path);
            let many = allocations(large_doc, path);
            // 16× the nodes is four more doublings of each growing
            // node-set vector: a dozen allocations, not thousands.
            assert!(many <= few + 12, "{text}: {few} allocations, then {many}");
        }
    }
}
