//! Runtime allocation witness for the hot paths `cargo xtask hotlint`
//! analyzes statically (DESIGN.md §5g).
//!
//! A counting global allocator (thread-local counters, so concurrently
//! running tests don't pollute each other) wraps the system allocator.
//! Each witness warms a hot path once — letting every scratch buffer grow
//! to its steady-state capacity — and then asserts that a second, identical
//! pass performs **zero** heap allocations:
//!
//! * verified queries through `JaccardIndex::query_counted_scratch` (the
//!   serve read path's per-shard workhorse);
//! * signature generation through `SignatureScheme::signatures_scratch`
//!   for the three Figure-6 PartEnum schemes (`PartEnumJaccard`,
//!   `GeneralPartEnum`, `ReplicatedPartEnumJaccard`) and WtEnum;
//! * the partner-list kernel both join executors share —
//!   `count_bucket_partners` / `fill_bucket_partners` /
//!   `dedup_partner_lists` over a warmed partner array;
//! * candidate verification with `threads: 1` (the parallel path spawns
//!   scoped threads, which allocate stacks by design — hotlint's
//!   annotations in `join.rs` document that), through both the join's
//!   set-major walk `verify_partner_lists_into` and the encoded-pair
//!   `verify_pairs_into`, each under the exact verifier and the
//!   bitmap-filtered verifier (whose warmed bound-then-merge loop must
//!   also allocate nothing).
//!
//! The strict zero assertions are release-only: debug builds run the same
//! passes (so the paths stay exercised under `cargo test`) but tolerate
//! allocations from debug-only invariant checking. CI runs this file with
//! `--release` to enforce the zero bound.

#![allow(unsafe_code, reason = "the counting allocator implements GlobalAlloc")]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use ssj_core::index::{JaccardIndex, QueryScratch};
use ssj_core::join::{verify_pairs_into, verify_partner_lists_into};
use ssj_core::partners::{count_bucket_partners, dedup_partner_lists, fill_bucket_partners};
use ssj_core::set::{ElementId, SetCollection, SetId, WeightMap};
use ssj_core::signature::{SigScratch, SignatureScheme};
use ssj_core::verify::{BitmapIndex, BitmapVerifier, ExactVerifier, Verifier};
use ssj_core::{
    GeneralPartEnum, PartEnumJaccard, Predicate, ReplicatedPartEnumJaccard, WtEnumJaccard,
};
use std::sync::Arc;

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

/// splitmix64 — deterministic element streams without external crates.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `count` sets over a `universe`-sized element domain with sizes in
/// `[min_len, max_len]`. Overlapping by construction (small universe), so
/// queries produce real candidates and verified matches.
fn random_sets(
    count: usize,
    universe: u64,
    min_len: usize,
    max_len: usize,
    seed: u64,
) -> Vec<Vec<ElementId>> {
    let mut state = seed;
    (0..count)
        .map(|_| {
            let span = (max_len - min_len + 1) as u64;
            let len = min_len + (splitmix64(&mut state) % span) as usize;
            let mut set: Vec<ElementId> = (0..len)
                .map(|_| (splitmix64(&mut state) % universe) as ElementId)
                .collect();
            set.sort_unstable();
            set.dedup();
            set
        })
        .collect()
}

// --- witnesses ----------------------------------------------------------

#[test]
fn warmed_index_queries_allocate_nothing() {
    let sets = random_sets(300, 500, 4, 24, 0x5eed_0001);
    let mut index = JaccardIndex::new(0.6, 32, 7).expect("valid gamma");
    for set in &sets {
        index.insert(set.clone());
    }

    let queries: Vec<&[ElementId]> = sets.iter().take(64).map(Vec::as_slice).collect();
    let mut scratch = QueryScratch::default();
    let mut matches: Vec<SetId> = Vec::new();

    // Warm-up: every scratch buffer reaches its steady-state capacity.
    let mut warm_hits = 0usize;
    for q in &queries {
        index.query_counted_scratch(q, &mut scratch, &mut matches);
        warm_hits += matches.len();
    }
    // Self-queries must at least find themselves: the workload is real.
    assert!(warm_hits >= queries.len(), "warm-up produced no matches");

    let (allocs, hits) = count_allocs(|| {
        let mut hits = 0usize;
        for q in &queries {
            index.query_counted_scratch(black_box(q), &mut scratch, &mut matches);
            hits += matches.len();
        }
        hits
    });
    assert_eq!(hits, warm_hits, "steady-state pass must repeat the warm-up");
    assert_steady_state("JaccardIndex::query_counted_scratch", allocs);
}

#[test]
fn warmed_partenum_signatures_allocate_nothing() {
    let sets = random_sets(200, 400, 4, 24, 0x5eed_0002);
    // Integral weights 1–3: every element replicates into 1–3 copies.
    let weights = Arc::new(WeightMap::from_pairs(
        (0..400u32).map(|e| (e, f64::from(1 + e % 3))),
        1.0,
    ));
    // All three Figure-6 schemes sign through the one interval router.
    let schemes: [(&str, Box<dyn SignatureScheme>); 4] = [
        (
            "PartEnumJaccard",
            Box::new(PartEnumJaccard::new(0.7, 32, 11).expect("valid gamma")),
        ),
        (
            "GeneralPartEnum(Jaccard)",
            Box::new(
                GeneralPartEnum::new(Predicate::Jaccard { gamma: 0.7 }, 32, 11).expect("supported"),
            ),
        ),
        (
            "GeneralPartEnum(Dice)",
            Box::new(
                GeneralPartEnum::new(Predicate::Dice { gamma: 0.7 }, 32, 11).expect("supported"),
            ),
        ),
        (
            "ReplicatedPartEnumJaccard",
            Box::new(
                ReplicatedPartEnumJaccard::new(0.7, 3 * 24, 1.0, weights, 11).expect("valid gamma"),
            ),
        ),
    ];
    for (label, scheme) in &schemes {
        let mut scratch = SigScratch::default();
        let mut sigs = Vec::new();

        let mut warm_total = 0usize;
        for set in &sets {
            sigs.clear();
            scheme.signatures_scratch(set, &mut scratch, &mut sigs);
            warm_total += sigs.len();
        }
        assert!(warm_total > 0, "{label}: warm-up generated no signatures");

        let (allocs, total) = count_allocs(|| {
            let mut total = 0usize;
            for set in &sets {
                sigs.clear();
                scheme.signatures_scratch(black_box(set.as_slice()), &mut scratch, &mut sigs);
                total += sigs.len();
            }
            total
        });
        assert_eq!(
            total, warm_total,
            "{label}: steady-state pass must repeat the warm-up"
        );
        assert_steady_state(&format!("{label}::signatures_scratch"), allocs);
    }
}

#[test]
fn warmed_wtenum_signatures_allocate_nothing() {
    let sets = random_sets(120, 200, 4, 16, 0x5eed_0003);
    let mut weights = WeightMap::new(0.0);
    let mut state = 0x5eed_0004u64;
    for e in 0..200u32 {
        // Weights in [0.5, 4.5): informative but bounded, like IDF scores.
        let w = 0.5 + (splitmix64(&mut state) % 1000) as f64 / 250.0;
        weights.set(e, w);
    }
    let weights = std::sync::Arc::new(weights);
    let max_weight = 16.0 * 4.5;
    let scheme = WtEnumJaccard::new(0.5, max_weight, 0.3, weights);

    let mut scratch = SigScratch::default();
    let mut sigs = Vec::new();

    let mut warm_total = 0usize;
    for set in &sets {
        sigs.clear();
        scheme.signatures_scratch(set, &mut scratch, &mut sigs);
        warm_total += sigs.len();
    }
    assert!(warm_total > 0, "warm-up generated no signatures");

    let (allocs, total) = count_allocs(|| {
        let mut total = 0usize;
        for set in &sets {
            sigs.clear();
            scheme.signatures_scratch(black_box(set.as_slice()), &mut scratch, &mut sigs);
            total += sigs.len();
        }
        total
    });
    assert_eq!(
        total, warm_total,
        "steady-state pass must repeat the warm-up"
    );
    assert_steady_state("WtEnumJaccard::signatures_scratch", allocs);
}

#[test]
fn warmed_sequential_verification_allocates_nothing() {
    let sets = random_sets(100, 300, 4, 20, 0x5eed_0005);
    let mut collection = SetCollection::new();
    for set in &sets {
        collection.push(set.clone());
        // A near-duplicate (one element dropped) guarantees high-similarity
        // pairs, so verification has real survivors to write out.
        collection.push(set[..set.len() - 1].to_vec());
    }

    // Every ordered pair (a, b), a < b — encoded the way candidate
    // generation hands pairs to verification.
    let n = collection.len() as u64;
    let pairs: Vec<u64> = (0..n)
        .flat_map(|a| (a + 1..n).map(move |b| (a << 32) | b))
        .collect();
    let pred = Predicate::Jaccard { gamma: 0.5 };

    let verifier = ExactVerifier::new(pred, None);
    let mut out: Vec<(SetId, SetId)> = Vec::new();
    verify_pairs_into(&pairs, &collection, &collection, &verifier, 1, &mut out);
    let warm_survivors = out.len();
    assert!(warm_survivors > 0, "warm-up verified no pairs");

    let (allocs, survivors) = count_allocs(|| {
        verify_pairs_into(
            black_box(&pairs),
            &collection,
            &collection,
            &verifier,
            1,
            &mut out,
        );
        out.len()
    });
    assert_eq!(survivors, warm_survivors);
    assert_steady_state("verify_pairs_into (threads=1)", allocs);
}

#[test]
fn warmed_bitmap_verification_allocates_nothing() {
    let sets = random_sets(100, 300, 4, 20, 0x5eed_0006);
    let mut collection = SetCollection::new();
    for set in &sets {
        collection.push(set.clone());
        collection.push(set[..set.len() - 1].to_vec());
    }

    let n = collection.len() as u64;
    let pairs: Vec<u64> = (0..n)
        .flat_map(|a| (a + 1..n).map(move |b| (a << 32) | b))
        .collect();
    let pred = Predicate::Jaccard { gamma: 0.5 };

    // Bitmaps are built once per collection, outside the hot loop; the
    // witness covers the warmed bound-then-merge verification pass.
    let bitmaps = BitmapIndex::for_collection(&collection);
    let verifier = BitmapVerifier::new(pred, None, &bitmaps, &bitmaps);
    let mut out: Vec<(SetId, SetId)> = Vec::new();
    verify_pairs_into(&pairs, &collection, &collection, &verifier, 1, &mut out);
    let warm_survivors = out.len();
    assert!(warm_survivors > 0, "warm-up verified no pairs");
    assert!(
        verifier.bitmap_pruned() > 0,
        "workload should exercise the pruning branch"
    );

    let (allocs, survivors) = count_allocs(|| {
        verify_pairs_into(
            black_box(&pairs),
            &collection,
            &collection,
            &verifier,
            1,
            &mut out,
        );
        out.len()
    });
    assert_eq!(survivors, warm_survivors);
    assert_steady_state("verify_pairs_into (bitmap filter, threads=1)", allocs);
}

/// `count` buckets over `sets` sets, each 2–9 distinct members ascending
/// (the shape of a sorted signature run), flattened: bucket `i` is
/// `members[ends[i]..ends[i + 1]]`.
fn random_buckets(count: usize, sets: u64, seed: u64) -> (Vec<SetId>, Vec<usize>) {
    let mut state = seed;
    let mut members = Vec::new();
    let mut ends = vec![0];
    for _ in 0..count {
        let len = 2 + (splitmix64(&mut state) % 8) as usize;
        let mut bucket: Vec<SetId> = (0..len)
            .map(|_| (splitmix64(&mut state) % sets) as SetId)
            .collect();
        bucket.sort_unstable();
        bucket.dedup();
        members.extend_from_slice(&bucket);
        ends.push(members.len());
    }
    (members, ends)
}

#[test]
fn warmed_partner_lists_allocate_nothing() {
    let sets = 500;
    let (members, ends) = random_buckets(2_000, sets as u64, 0x5eed_0e01);
    let buckets = || ends.windows(2).map(|w| &members[w[0]..w[1]]);
    let mut offsets = vec![0usize; sets + 1];
    let mut partners: Vec<SetId> = Vec::new();

    // Count, prefix-sum, fill, dedup. Only the warm-up sizes `partners`;
    // the steady-state pass refills it within its capacity.
    let build = |offsets: &mut Vec<usize>, partners: &mut Vec<SetId>| {
        offsets.fill(0);
        let collisions =
            count_bucket_partners(black_box(buckets()), &mut offsets[..sets]).expect("in range");
        let mut total = 0;
        for offset in offsets.iter_mut() {
            let count = *offset;
            *offset = total;
            total += count;
        }
        partners.resize(total, 0);
        let written = fill_bucket_partners(buckets(), &mut offsets[..sets], partners);
        assert_eq!(written, collisions, "fill must write every counted partner");
        (collisions, dedup_partner_lists(offsets, partners))
    };
    let (warm_collisions, warm_distinct) = build(&mut offsets, &mut partners);
    assert!(
        warm_distinct > 0 && (warm_distinct as u64) < warm_collisions,
        "workload should hold repeated pairs"
    );
    let warm_partners = partners.clone();

    let (allocs, counts) = count_allocs(|| build(&mut offsets, &mut partners));
    assert_eq!(counts, (warm_collisions, warm_distinct));
    assert_eq!(
        partners, warm_partners,
        "steady-state pass must repeat the warm-up"
    );
    assert_steady_state(
        "count_bucket_partners + fill_bucket_partners + dedup_partner_lists",
        allocs,
    );
}

#[test]
fn warmed_partner_list_walk_allocates_nothing() {
    let sets = random_sets(100, 300, 4, 20, 0x5eed_0007);
    let mut collection = SetCollection::new();
    for set in &sets {
        collection.push(set.clone());
        collection.push(set[..set.len() - 1].to_vec());
    }

    // Every set's partners are all higher sets — the self-join layout.
    let n = collection.len();
    let mut offsets = vec![0usize];
    let mut partners: Vec<SetId> = Vec::new();
    for a in 0..n {
        partners.extend((a + 1..n).map(|b| b as SetId));
        offsets.push(partners.len());
    }
    let pred = Predicate::Jaccard { gamma: 0.5 };
    let bitmaps = BitmapIndex::for_collection(&collection);
    let exact = ExactVerifier::new(pred, None);
    let filtered = BitmapVerifier::new(pred, None, &bitmaps, &bitmaps);
    let verifiers: [(&str, &dyn Verifier); 2] = [("exact", &exact), ("bitmap filter", &filtered)];

    for (label, verifier) in verifiers {
        let mut out: Vec<(SetId, SetId)> = Vec::new();
        verify_partner_lists_into(
            &offsets,
            &partners,
            &collection,
            &collection,
            &verifier,
            1,
            &mut out,
        );
        let warm = out.clone();
        assert!(!warm.is_empty(), "{label}: warm-up verified no pairs");

        let (allocs, ()) = count_allocs(|| {
            verify_partner_lists_into(
                black_box(&offsets),
                &partners,
                &collection,
                &collection,
                &verifier,
                1,
                &mut out,
            );
        });
        assert_eq!(
            out, warm,
            "{label}: steady-state pass must repeat the warm-up"
        );
        assert_steady_state(
            &format!("verify_partner_lists_into ({label}, threads=1)"),
            allocs,
        );
    }
    assert!(
        filtered.bitmap_pruned() > 0,
        "workload should exercise the pruning branch"
    );
}
