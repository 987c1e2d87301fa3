//! Allocation witness for the full serve read path (DESIGN.md §5g).
//!
//! Companion to `ssj-core/tests/alloc_witness.rs`, which pins the
//! per-shard building blocks; this one pins the end-to-end path a calling
//! thread runs per query — canonicalization, the ascending read-lock
//! recursion over every shard, signature generation, candidate sweeping,
//! verification, and global-id encoding — asserting a warmed
//! [`ShardedIndex::query_scratch`] call performs zero heap allocations, and
//! that [`Handle::call`] adds none on top (admission, the thread's scratch,
//! the reply).
//!
//! Strict assertions are release-only and skipped under the
//! `lock-witness` feature: both the debug lock-order witness and the
//! feature-enabled one allocate bookkeeping on every lock acquisition by
//! design. CI runs this file with `--release` and no features.

#![allow(unsafe_code, reason = "the counting allocator implements GlobalAlloc")]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use ssj_core::set::ElementId;
use ssj_serve::service::ServeScratch;
use ssj_serve::{Handle, Request, Response, Server, ServerConfig, ShardedIndex};

thread_local! {
    /// Heap allocations made by the current thread (allocs + reallocs).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Forwards to the system allocator, counting per-thread allocations.
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

/// splitmix64 — deterministic element streams without external crates.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[test]
fn warmed_sharded_queries_allocate_nothing() {
    let cfg = ServerConfig {
        gamma: 0.6,
        shards: 4,
        initial_max_size: 32,
        seed: 7,
        ..ServerConfig::default()
    };
    let index = ShardedIndex::new(&cfg).expect("valid config");

    // Deterministic overlapping sets across all shards.
    let mut state = 0x5eed_0006u64;
    let mut sets: Vec<Vec<ElementId>> = Vec::new();
    for _ in 0..300 {
        let len = 4 + (splitmix64(&mut state) % 21) as usize;
        let mut set: Vec<ElementId> = (0..len)
            .map(|_| (splitmix64(&mut state) % 500) as ElementId)
            .collect();
        set.sort_unstable();
        set.dedup();
        index.insert(set.clone());
        sets.push(set);
    }

    let mut scratch = ServeScratch::default();
    let mut ids: Vec<u64> = Vec::new();

    // Warm-up: grow every scratch buffer to steady-state capacity.
    let mut warm_hits = 0usize;
    for set in sets.iter().take(64) {
        index.query_scratch(set, &mut scratch, &mut ids);
        warm_hits += ids.len();
    }
    // Self-queries find at least themselves: the workload is real.
    assert!(warm_hits >= 64, "warm-up produced no matches");

    let (allocs, hits) = count_allocs(|| {
        let mut hits = 0usize;
        for set in sets.iter().take(64) {
            index.query_scratch(black_box(set.as_slice()), &mut scratch, &mut ids);
            hits += ids.len();
        }
        hits
    });
    assert_eq!(hits, warm_hits, "steady-state pass must repeat the warm-up");
    if cfg!(any(debug_assertions, feature = "lock-witness")) {
        eprintln!(
            "ShardedIndex::query_scratch: {allocs} alloc(s) with lock witness active (not enforced)"
        );
    } else {
        assert_eq!(
            allocs, 0,
            "serve read path: expected zero steady-state allocations, observed {allocs}"
        );
    }
}

#[test]
fn warmed_handle_calls_allocate_nothing() {
    let server = Server::start(ServerConfig {
        gamma: 0.6,
        shards: 4,
        initial_max_size: 32,
        seed: 7,
        ..ServerConfig::default()
    })
    .expect("valid config");
    let handle: Handle = server.handle();

    // Index overlapping sets. Each query keeps half of an indexed set and
    // swaps the rest for unindexed elements: it shares signatures with
    // indexed sets (candidates are probed) but matches none of them, so
    // every reply is empty and owns no heap buffer.
    let mut state = 0x5eed_0044u64;
    let mut probes: Vec<Vec<ElementId>> = Vec::new();
    for i in 0..200u32 {
        let len = 8 + (splitmix64(&mut state) % 17) as usize;
        let mut set: Vec<ElementId> = (0..len)
            .map(|_| (splitmix64(&mut state) % 400) as ElementId)
            .collect();
        set.sort_unstable();
        set.dedup();
        let half = set.len() / 2;
        let probe = set[..half]
            .iter()
            .copied()
            .chain((0..set.len() - half).map(|k| 1_000 + i * 32 + k as u32))
            .collect();
        assert!(matches!(
            handle.call(Request::Insert { elems: set }),
            Response::Inserted { .. }
        ));
        probes.push(probe);
    }
    let queries = || -> Vec<Request> {
        probes
            .iter()
            .take(64)
            .map(|set| Request::Query { elems: set.clone() })
            .collect()
    };
    // Answers (empty replies, candidates probed) for one pass of `requests`.
    let run = |requests: Vec<Request>| {
        let (mut empty, mut probed_total) = (0usize, 0u64);
        for req in requests {
            if let Response::Matches { ids, probed, .. } = handle.call(black_box(req)) {
                empty += usize::from(ids.is_empty());
                probed_total += probed;
            }
        }
        (empty, probed_total)
    };

    // Warm-up: grow this thread's scratch to steady-state capacity.
    let warm = run(queries());
    assert_eq!(warm.0, 64, "every reply must be an empty match list");
    assert!(
        warm.1 > 0,
        "the queries probed no candidates: the workload is idle"
    );

    let requests = queries();
    let (allocs, steady) = count_allocs(|| run(requests));
    assert_eq!(steady, warm, "steady-state pass must repeat the warm-up");
    server.shutdown();
    if cfg!(any(debug_assertions, feature = "lock-witness")) {
        eprintln!("Handle::call: {allocs} alloc(s) with lock witness active (not enforced)");
    } else {
        assert_eq!(
            allocs, 0,
            "Handle::call on the read path: expected zero steady-state allocations, observed {allocs}"
        );
    }
}
