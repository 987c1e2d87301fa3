//! Allocation witness for the cluster scatter-gather path (DESIGN.md §5g).
//!
//! Companion to the core/serve/extern witnesses: this one pins the
//! router's per-query work — set canonicalization, request-line
//! rendering, the per-node fan-out, byte-level response scanning, and
//! cluster-id merging — asserting a warmed [`Router::route_query`] call
//! performs zero heap allocations. The transport is a fake that replays
//! pre-rendered wire responses, so the measurement isolates the router
//! itself (node internals carry their own witness in
//! `ssj-serve/tests/alloc_witness.rs`).
//!
//! Strict assertions are release-only: debug builds keep extra
//! bookkeeping. CI runs this file with `--release`.

#![allow(unsafe_code, reason = "the counting allocator implements GlobalAlloc")]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use ssj_cluster::{ClusterSeq, HashRing, Router, RouterScratch, Transport, TransportError};
use ssj_core::set::ElementId;

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

/// A transport that replays one canned wire response per node — the
/// router's view of a cluster, minus the cluster.
struct CannedTransport {
    responses: Vec<String>,
    calls: u64,
}

impl Transport for CannedTransport {
    fn nodes(&self) -> usize {
        self.responses.len()
    }

    fn call(&mut self, node: usize, line: &str, resp: &mut String) -> Result<(), TransportError> {
        let _ = black_box(line);
        let canned = self
            .responses
            .get(node)
            .ok_or(TransportError::Unreachable)?;
        resp.clear();
        resp.push_str(canned);
        self.calls += 1;
        Ok(())
    }
}

#[test]
fn warmed_route_query_allocates_nothing() {
    let nodes = 4usize;
    let responses: Vec<String> = (0..nodes)
        .map(|n| {
            // Distinct per-node answers so merging and watermark folding
            // both do real work.
            format!(
                "{{\"ok\":true,\"op\":\"query\",\"ids\":[{},{},{}],\"seen_seq\":{},\"probed\":{}}}",
                n,
                10 + n,
                200 + n,
                7 + n as u64,
                30 + n as u64
            )
        })
        .collect();
    let transport = CannedTransport {
        responses,
        calls: 0,
    };
    let ring = HashRing::new(nodes as u32, HashRing::DEFAULT_VNODES, 42);
    let mut router = Router::new(transport, ring, 1);

    let mut scratch = RouterScratch::default();
    let mut out: Vec<u64> = Vec::new();
    let mut seen = ClusterSeq::new(nodes);
    let query: Vec<ElementId> = vec![9, 3, 3, 17, 250, 41, 9];

    // Warm-up: grow the request line, response buffer, canonical set, and
    // merge buffer to steady-state capacity.
    let ack = router
        .route_query(&query, &mut scratch, &mut out, &mut seen)
        .expect("canned responses parse");
    let warm_ids = out.len();
    let warm_total = seen.total();
    assert_eq!(warm_ids, 3 * nodes, "every canned id must merge");
    assert_eq!(ack.probed, (0..nodes as u64).map(|n| 30 + n).sum::<u64>());

    let (allocs, ()) = count_allocs(|| {
        for _ in 0..64 {
            router
                .route_query(black_box(&query), &mut scratch, &mut out, &mut seen)
                .expect("canned responses parse");
            assert_eq!(out.len(), warm_ids);
        }
    });
    assert_eq!(seen.total(), warm_total, "watermark must be stable");
    assert_eq!(router.transport().calls, 65 * nodes as u64);
    if cfg!(debug_assertions) {
        eprintln!("Router::route_query: {allocs} alloc(s) in debug (not enforced)");
    } else {
        assert_eq!(
            allocs, 0,
            "cluster fan-out: expected zero steady-state allocations, observed {allocs}"
        );
    }
}
