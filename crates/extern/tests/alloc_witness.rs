//! Runtime allocation witness for the external executor's hot loop,
//! mirroring `ssj-core`'s witness suite (DESIGN.md §5g): a counting
//! global allocator wraps the system allocator, each path is warmed once
//! so every reusable buffer reaches steady-state capacity, and a second
//! identical pass must perform **zero** heap allocations (enforced in
//! release builds; debug builds only exercise the paths).
//!
//! The witness here is the probe's per-partition reload — clear the
//! record buffer, refill it posting by posting (as `read_partition`
//! decodes them), sort it, and walk it into runs — which must reuse the
//! capacity the buffers were given for the largest partition. The probe
//! pass's count and fill kernels live in `ssj_core::partners`; their
//! witness is in `ssj-core`'s suite.

#![allow(unsafe_code, reason = "the counting allocator implements GlobalAlloc")]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use ssj_core::partners::{Runs, SigRecord};
use ssj_core::signature::Signature;

// --- counting allocator -------------------------------------------------

thread_local! {
    /// Heap allocations made by the current thread (allocs + reallocs;
    /// frees are not counted — a steady-state pass must do neither).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Forwards to the system allocator, counting every allocation and
/// reallocation on the calling thread.
struct CountingAlloc;

// SAFETY: delegates wholesale to `System`; the thread-local counter is
// const-initialized, so bumping it never recurses into the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs `f` and returns how many heap allocations it made on this thread.
fn count_allocs<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.with(Cell::get);
    let result = f();
    (ALLOCS.with(Cell::get) - before, result)
}

/// Release builds demand exactly zero; debug builds only exercise the path
/// (debug invariants and overflow plumbing are allowed to allocate there).
fn assert_steady_state(label: &str, allocs: u64) {
    if cfg!(debug_assertions) {
        eprintln!("{label}: {allocs} alloc(s) in debug build (not enforced)");
    } else {
        assert_eq!(
            allocs, 0,
            "{label}: expected zero steady-state allocations, observed {allocs}"
        );
    }
}

// --- deterministic data -------------------------------------------------

/// splitmix64 — deterministic posting streams without external crates.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `count` postings over `buckets` distinct signatures, slots ascending
/// (the spill writer's push order). A small bucket count keeps runs long,
/// so the walk does real work.
fn postings_stream(count: usize, buckets: u64, seed: u64) -> Vec<(Signature, u32)> {
    let mut state = seed;
    (0..count)
        .map(|slot| (splitmix64(&mut state) % buckets, slot as u32))
        .collect()
}

/// One partition reload: refill, sort, walk. Returns the kept runs and
/// their members.
fn reload(
    stream: &[(Signature, u32)],
    records: &mut Vec<SigRecord>,
    runs: &mut Runs,
) -> (usize, usize) {
    records.clear();
    for &posting in stream {
        records.push(posting);
    }
    records.sort_unstable();
    runs.clear();
    runs.walk_self_runs(&mut [records.as_slice()]);
    let kept = runs.self_buckets().count();
    let members = runs.self_buckets().map(<[u32]>::len).sum();
    (kept, members)
}

// --- witnesses ----------------------------------------------------------

#[test]
fn warmed_partition_reload_allocates_nothing() {
    // Two partitions of different sizes: the buffers are sized for the
    // larger, as the executor sizes them from the spill writer's counts.
    let small = postings_stream(2_500, 300, 0x5eed_0e02);
    let large = postings_stream(4_000, 300, 0x5eed_0e03);
    let mut records: Vec<SigRecord> = Vec::with_capacity(large.len());
    let mut runs = Runs::with_capacity(large.len());
    let bytes = runs.capacity_bytes();
    let warm = reload(&large, &mut records, &mut runs);
    reload(&small, &mut records, &mut runs);

    let (allocs, got) = count_allocs(|| {
        reload(black_box(&small), &mut records, &mut runs);
        reload(black_box(&large), &mut records, &mut runs)
    });
    assert_eq!(got, warm);
    assert!(warm.0 > 100, "the stream must hold many runs");
    assert_eq!(
        warm.1,
        large.len(),
        "300 signatures over 4 000 postings are all shared"
    );
    assert_eq!(records.capacity(), large.len());
    assert_eq!(runs.capacity_bytes(), bytes, "the runs never grew");
    assert_steady_state("partition reload (refill + sort + walk)", allocs);
}
