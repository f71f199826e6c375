//! The DOM makes no heap allocation per node.
//!
//! A counting allocator tallies this thread's allocations and frees
//! while a small and a 16× larger laboratory and hospital document are
//! parsed, cloned, pruned to a view and dropped. A document is three
//! flat buffers, so each of these costs a constant number of
//! allocations (or frees), plus at most a few more doublings of a buffer
//! that grows: never one per node.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use xmlsec::authz::Authorization;
use xmlsec::core::{label_document, prune_document, PolicyConfig};
use xmlsec::subjects::Directory;
use xmlsec::workload::hospital::{hospital_authorizations, hospital_directory, hospital_scaled};
use xmlsec::workload::laboratory::{example1_authorizations, lab_directory};
use xmlsec::workload::laboratory_scaled;
use xmlsec::xml::{parse, serialize, Document, SerializeOptions};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static FREES: Cell<u64> = const { Cell::new(0) };
    static HELD_BYTES: Cell<i64> = const { Cell::new(0) };
}

fn note(counter: &'static std::thread::LocalKey<Cell<u64>>, bytes: i64) {
    // `try_with` fails only while the thread is being torn down.
    let _ = counter.try_with(|n| n.set(n.get() + 1));
    let _ = HELD_BYTES.try_with(|n| n.set(n.get() + bytes));
}

// SAFETY: every call is forwarded unchanged to the system allocator;
// counting touches only thread-local `Cell`s, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(&ALLOCATIONS, layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(&FREES, -(layout.size() as i64));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(&ALLOCATIONS, new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations and frees made while `f` runs on this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (a, r) = (ALLOCATIONS.with(Cell::get), FREES.with(Cell::get));
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - a, FREES.with(Cell::get) - r)
}

/// Allocation counts of each DOM stage on the document `doc` serializes
/// to: parse, clone, prune (after labeling) and drop (frees).
fn stages(doc: &Document, auths: &[Authorization], dir: &Directory) -> [u64; 4] {
    let xml = serialize(doc, &SerializeOptions::canonical());
    let (parsed, parse_allocs, _) = counted(|| parse(&xml).expect("generated XML parses"));
    let (mut copy, clone_allocs, _) = counted(|| parsed.clone());
    let axml: Vec<&Authorization> =
        auths.iter().filter(|a| !a.object.uri.ends_with(".dtd")).collect();
    let adtd: Vec<&Authorization> =
        auths.iter().filter(|a| a.object.uri.ends_with(".dtd")).collect();
    let policy = PolicyConfig::paper_default();
    let labeling = label_document(&copy, &axml, &adtd, dir, policy);
    let (removed, prune_allocs, _) = counted(|| prune_document(&mut copy, &labeling, policy));
    assert!(removed > 0, "the policy hides something");
    let ((), _, drop_frees) = counted(|| drop(parsed));
    [parse_allocs, clone_allocs, prune_allocs, drop_frees]
}

#[test]
fn parse_clone_prune_and_drop_do_not_allocate_per_node() {
    let cases = [
        (
            laboratory_scaled(48, 5),
            laboratory_scaled(768, 5),
            example1_authorizations(),
            lab_directory(),
        ),
        (
            hospital_scaled(48, 0xB12),
            hospital_scaled(768, 0xB12),
            hospital_authorizations(),
            hospital_directory(),
        ),
    ];
    for (small, large, auths, dir) in &cases {
        // Warm one-time state (telemetry handles) first.
        stages(small, auths, dir);
        let few = stages(small, auths, dir);
        let many = stages(large, auths, dir);
        assert!(large.arena_len() >= 15 * small.arena_len());
        for (stage, (f, m)) in ["parse", "clone", "prune", "drop"].iter().zip(few.iter().zip(&many))
        {
            assert!(m <= &(f + 12), "{stage}: {f} allocations on the small document, then {m}");
        }
    }
}

/// A parsed 192-project laboratory document holds a little over 50
/// bytes per node: a 36-byte slot, its link, and its strings.
#[test]
fn a_parsed_laboratory_document_is_compact() {
    let xml = serialize(&laboratory_scaled(192, 1002), &SerializeOptions::canonical());
    let held = || HELD_BYTES.with(Cell::get);
    let before = held();
    let doc = parse(&xml).unwrap();
    let bytes = held() - before;
    let per_node = bytes as f64 / doc.arena_len() as f64;
    assert!(per_node < 60.0, "{per_node:.1} bytes per node");
    // The owned-node representation it replaced held 751,587 bytes.
    assert!(bytes <= 300_000, "{bytes} heap bytes");
}

/// A value with a character or entity reference is resolved into a
/// `String` the parser hands back to the tokenizer once copied, so
/// references cost no allocation per value either.
#[test]
fn resolved_references_do_not_allocate_per_value() {
    let doc = |n: usize| format!("<r>{}</r>", r#"<t a="x&amp;y">a &lt; b&#233;</t>"#.repeat(n));
    let (small, large) = (doc(64), doc(1024));
    let allocations = |xml: &str| counted(|| parse(xml).expect("well-formed")).1;
    allocations(&small);
    let (few, many) = (allocations(&small), allocations(&large));
    assert!(many <= few + 12, "{few} allocations on the small document, then {many}");
}
