//! Runtime allocation witness for the external executor's hot loop,
//! mirroring `ssj-core`'s witness suite (DESIGN.md §5g): a counting
//! global allocator wraps the system allocator, each path is warmed once
//! so every reusable buffer reaches steady-state capacity, and a second
//! identical pass must perform **zero** heap allocations (enforced in
//! release builds; debug builds only exercise the paths).
//!
//! The witness here is the `SigPostings` reload — `clear()` + full
//! reinsert, the once-per-partition rebuild, which must recycle list and
//! table capacity. The probe pass's count and fill kernels live in
//! `ssj_core::partners`; their witness is in `ssj-core`'s suite.

#![allow(unsafe_code, reason = "the counting allocator implements GlobalAlloc")]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use ssj_core::signature::Signature;
use ssj_core::SigPostings;

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

/// `count` postings over `buckets` distinct signatures, ids ascending per
/// bucket (the spill reader's arrival order). Small bucket count keeps
/// lists long, so the pair enumeration does real work.
fn postings_stream(count: usize, buckets: u64, seed: u64) -> Vec<(Signature, u32)> {
    let mut state = seed;
    let mut next_id = 0u32;
    (0..count)
        .map(|_| {
            let sig = splitmix64(&mut state) % buckets;
            next_id += 1;
            (sig, next_id)
        })
        .collect()
}

// --- witnesses ----------------------------------------------------------

#[test]
fn warmed_postings_reload_allocates_nothing() {
    let stream = postings_stream(4_000, 300, 0x5eed_0e02);
    let mut postings = SigPostings::new();

    // Warm-up: rebuild cycles until one completes with zero allocations.
    // Recycled lists travel a fixed permutation of buckets cycle-to-cycle
    // (clear pushes in map-iteration order, reinsert pops LIFO), so a
    // list's capacity reaches a bucket's need only when its orbit visits
    // that bucket: convergence is guaranteed, but takes up to orbit-length
    // cycles — bounded by the number of distinct signatures.
    for &(sig, id) in &stream {
        postings.insert(sig, id);
    }
    let warm_len = postings.len();
    let warm_postings = postings.postings();
    let max_cycles = warm_len + 8;
    let mut converged = false;
    for _ in 0..max_cycles {
        let (allocs, ()) = count_allocs(|| {
            postings.clear();
            for &(sig, id) in &stream {
                postings.insert(sig, id);
            }
        });
        if allocs == 0 {
            converged = true;
            break;
        }
    }
    assert!(
        converged,
        "SigPostings reload never reached an allocation-free cycle \
         within {max_cycles} rebuilds"
    );

    // Steady state: once converged, every further rebuild stays at zero.
    let (allocs, (len, total)) = count_allocs(|| {
        postings.clear();
        for &(sig, id) in black_box(&stream) {
            postings.insert(sig, id);
        }
        (postings.len(), postings.postings())
    });
    assert_eq!(len, warm_len);
    assert_eq!(total, warm_postings);
    assert_steady_state("SigPostings reload (clear + reinsert)", allocs);
}
