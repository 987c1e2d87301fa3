//! The signature-based join driver (Figure 2).
//!
//! Every algorithm in this workspace — PartEnum, WtEnum, prefix filter, the
//! identity scheme, LSH — plugs its [`SignatureScheme`] into this one driver,
//! which executes the scheme-independent steps:
//!
//! 1–2. generate signatures for each input set, as flat `(signature, set)`
//!      records (each set's signatures sorted and deduplicated);
//! 3.   group the records by signature: sort them, and keep every run of
//!      equal signatures that holds a pair as a bucket — its members in
//!      ascending set order — with the run walk of [`crate::partners`]
//!      (the one `ssj-extern` runs per spill partition). The buckets become
//!      per-set partner lists through the shared count → prefix sum →
//!      fill → dedup kernel there;
//! 4.   walk the sets in ascending order and each set's partners in
//!      ascending order, and post-filter every candidate with the actual
//!      predicate (bitmap bound first, then the exact merge).
//!
//! The walk visits candidates in ascending `(a, b)` order, so the output
//! is sorted without a pair sort. The driver is instrumented with the
//! Section 3.2 measures (see [`crate::stats::JoinStats`]) and with
//! `threads > 1` runs every step on scoped workers: each signs a range of
//! sets and sorts its own records, then walks one signature range across
//! every worker's records, and the verify walk splits the sets into ranges
//! with about equal partner totals.

use crate::partners::{
    count_bucket_partners, count_cross_partners, dedup_partner_lists, fill_bucket_partners,
    fill_cross_partners, Runs, SigRecord,
};
use crate::predicate::Predicate;
use crate::set::{SetCollection, SetId, WeightMap};
use crate::signature::{Signature, SignatureScheme};
use crate::stats::JoinStats;
use crate::verify::{BitmapIndex, BitmapVerifier, ExactVerifier, Verifier};
use std::ops::Range;
use std::time::Instant;

/// Execution options for the join driver.
#[derive(Debug, Clone, Copy)]
pub struct JoinOptions {
    /// Worker threads. 1 runs fully sequentially.
    pub threads: usize,
    /// Run the post-filter (step 4). Disable to obtain raw candidate pairs —
    /// e.g. for string joins, where verification uses edit distance on the
    /// original strings instead of the SSJoin predicate (Section 8.2).
    pub verify: bool,
    /// Front the post-filter with the bitmap intersection bound
    /// ([`crate::verify::BitmapVerifier`]) for unweighted predicates.
    /// Output is byte-identical either way (difftest compares both); off
    /// skips building the per-collection bitmaps.
    pub bitmap_filter: bool,
}

impl Default for JoinOptions {
    fn default() -> Self {
        Self {
            threads: 1,
            verify: true,
            bitmap_filter: true,
        }
    }
}

impl JoinOptions {
    /// Sequential execution with verification.
    pub fn sequential() -> Self {
        Self::default()
    }

    /// Parallel execution over `threads` workers.
    pub fn parallel(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
            ..Self::default()
        }
    }

    /// The same options with the bitmap filter toggled.
    pub fn with_bitmap_filter(self, on: bool) -> Self {
        Self {
            bitmap_filter: on,
            ..self
        }
    }
}

/// Output of a join: the matching pairs and the collected statistics.
#[derive(Debug, Clone)]
pub struct JoinResult {
    /// Matching `(r, s)` id pairs. For self-joins, `r < s`.
    pub pairs: Vec<(SetId, SetId)>,
    /// Instrumentation (Section 3.2 measures and phase timings).
    pub stats: JoinStats,
    /// Whether the scheme was approximate (LSH): `pairs` may then be
    /// incomplete; exact schemes always yield the complete answer.
    pub approximate: bool,
}

/// Fewest input sets for which signing and grouping use more than one
/// thread.
const PARALLEL_MIN_SETS: usize = 1024;
/// Fewest candidates for which the verify walk uses more than one thread.
const PARALLEL_MIN_CANDIDATES: usize = 4096;

/// Unwraps a scoped worker's result, forwarding a worker panic to the
/// caller's thread instead of swallowing it.
fn join_worker<T>(handle: std::thread::ScopedJoinHandle<'_, T>) -> T {
    match handle.join() {
        Ok(value) => value,
        Err(payload) => std::panic::resume_unwind(payload),
    }
}

/// Runs `task` on every item, on one scoped thread per item when there
/// are several, and returns the results in item order.
fn on_each<I: Send, T: Send>(items: Vec<I>, task: impl Fn(I) -> T + Sync) -> Vec<T> {
    if items.len() <= 1 {
        return items.into_iter().map(task).collect();
    }
    let task = &task;
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .into_iter()
            .map(|item| scope.spawn(move || task(item)))
            .collect();
        handles.into_iter().map(join_worker).collect()
    })
}

/// Worker count for a step over `sets` input sets.
fn workers_for(threads: usize, sets: usize) -> usize {
    if threads <= 1 || sets < PARALLEL_MIN_SETS {
        1
    } else {
        threads
    }
}

/// `0..len` cut into `parts` contiguous ranges of near-equal length.
fn even_ranges(len: usize, parts: usize) -> Vec<Range<usize>> {
    (0..parts)
        .map(|i| len * i / parts..len * (i + 1) / parts)
        .collect()
}

/// Steps 1–2 for the sets in `ids`: one record per distinct signature of
/// each set, in set order.
fn sign_range(
    scheme: &impl SignatureScheme,
    collection: &SetCollection,
    ids: Range<usize>,
) -> Vec<SigRecord> {
    let mut records = Vec::new();
    let mut buf = Vec::new();
    let mut scratch = crate::signature::SigScratch::default();
    for id in ids {
        let id = crate::cast::set_id(id);
        buf.clear();
        scheme.signatures_scratch(collection.set(id), &mut scratch, &mut buf);
        buf.sort_unstable();
        buf.dedup();
        records.extend(buf.iter().map(|&sig| (sig, id)));
    }
    records
}

/// Steps 1–2 on `workers` threads, each signing a range of sets.
fn sign_records(
    scheme: &impl SignatureScheme,
    collection: &SetCollection,
    workers: usize,
) -> Vec<Vec<SigRecord>> {
    on_each(even_ranges(collection.len(), workers), |ids| {
        sign_range(scheme, collection, ids)
    })
}

/// Total records: the signatures of every set, each counted once per set.
fn record_count(chunks: &[Vec<SigRecord>]) -> u64 {
    chunks.iter().map(|c| c.len() as u64).sum()
}

/// Worker `w`'s piece of every sorted chunk: from the first record at or
/// past pivot `w − 1` (or the start) to the first at or past pivot `w`
/// (or the end).
fn key_range<'a>(
    chunks: &'a [Vec<SigRecord>],
    pivots: &[Signature],
    w: usize,
) -> Vec<&'a [SigRecord]> {
    let cut = |chunk: &[SigRecord], i: usize| match i {
        0 => 0,
        _ => pivots.get(i - 1).map_or(chunk.len(), |&pivot| {
            chunk.partition_point(|rec| rec.0 < pivot)
        }),
    };
    chunks
        .iter()
        .map(|c| &c[cut(c, w)..cut(c, w + 1)])
        .collect()
}

/// Step 3 on `workers` threads. Each signing worker's chunk is sorted in
/// place on its own thread; then `workers − 1` signature pivots
/// (quantiles of the largest chunk) split the key space, worker `w` cuts
/// its key range out of every chunk with one `partition_point` per pivot
/// and merge-walks those pieces into runs. A run never straddles a cut,
/// so each bucket is whole in one worker. `s` is `None` for a self-join.
/// The records are freed on return, before the partner lists are built.
fn group_records(
    r: Vec<Vec<SigRecord>>,
    s: Option<Vec<Vec<SigRecord>>>,
    workers: usize,
) -> Vec<Runs> {
    let sort = |mut chunk: Vec<SigRecord>| {
        chunk.sort_unstable();
        chunk
    };
    let r = on_each(r, sort);
    let s = s.map(|s| on_each(s, sort));
    let largest = r.iter().chain(s.iter().flatten()).max_by_key(|c| c.len());
    let largest = largest.map_or(&[][..], Vec::as_slice);
    let pivots: Vec<Signature> = (1..workers)
        .filter_map(|w| largest.get(largest.len() * w / workers))
        .map(|rec| rec.0)
        .collect();
    on_each((0..workers).collect(), |w| {
        let mut runs = Runs::with_capacity(0);
        match &s {
            None => runs.walk_self_runs(&mut key_range(&r, &pivots, w)),
            Some(s) => runs.walk_cross_runs(
                &mut key_range(&r, &pivots, w),
                &mut key_range(s, &pivots, w),
            ),
        }
        runs
    })
}

/// Deduplicated candidates: set `a`'s partners are
/// `partners[offsets[a]..offsets[a + 1]]`, ascending — for a self-join
/// only partners above `a`, for an R–S join the S sets it collides with.
struct PartnerLists {
    offsets: Vec<usize>,
    partners: Vec<SetId>,
    /// Σ over buckets of the pairs they hold (the Section 3.2 collisions).
    collisions: u64,
}

impl PartnerLists {
    /// Count → prefix sum → fill → dedup over every worker's runs, for
    /// `sets` left-side sets.
    fn from_runs(runs: Vec<Runs>, sets: usize, cross: bool) -> Self {
        let mut offsets = vec![0usize; sets + 1];
        for worker in &runs {
            let counted = if cross {
                count_cross_partners(worker.cross_buckets(), &mut offsets[..sets])
            } else {
                count_bucket_partners(worker.self_buckets(), &mut offsets[..sets])
            };
            debug_assert!(counted.is_some(), "a bucket names a set past the input");
        }
        let mut total = 0usize;
        for offset in &mut offsets {
            let count = *offset;
            *offset = total;
            total += count;
        }
        let mut partners = vec![0; total];
        for worker in &runs {
            if cross {
                fill_cross_partners(worker.cross_buckets(), &mut offsets[..sets], &mut partners);
            } else {
                fill_bucket_partners(worker.self_buckets(), &mut offsets[..sets], &mut partners);
            }
        }
        dedup_partner_lists(&mut offsets, &mut partners);
        Self {
            offsets,
            partners,
            collisions: total as u64,
        }
    }

    /// Every candidate pair, in ascending order.
    fn listed_pairs(&self) -> Vec<(SetId, SetId)> {
        let mut pairs = Vec::with_capacity(self.partners.len());
        for a in 0..self.offsets.len() - 1 {
            let id = crate::cast::set_id(a);
            let list = &self.partners[self.offsets[a]..self.offsets[a + 1]];
            pairs.extend(list.iter().map(|&b| (id, b)));
        }
        pairs
    }
}

/// Step 4 over the sets in `sets`: verifies each set's partners in order
/// and hands every accepted pair to `keep`.
#[inline]
fn verify_sets<V: Verifier>(
    sets: Range<usize>,
    offsets: &[usize],
    partners: &[SetId],
    left: &SetCollection,
    right: &SetCollection,
    verifier: &V,
    mut keep: impl FnMut((SetId, SetId)),
) {
    for a in sets {
        let id = crate::cast::set_id(a);
        let set = left.set(id);
        for &b in &partners[offsets[a]..offsets[a + 1]] {
            if verifier.verify_pair(id, b, set, right.set(b)) {
                keep((id, b));
            }
        }
    }
}

/// The parallel half of step 4. Worker `w` of `workers` owns
/// `out[bound(w)..bound(w + 1)]` (`bound(workers)` is the candidate
/// total), writes the pairs it keeps to the front of that range with
/// `verify_piece`, and returns how many; one pass then packs the kept
/// prefixes together. Workers never build intermediate result vectors.
fn verify_pieces_into(
    workers: usize,
    bound: impl Fn(usize) -> usize,
    out: &mut Vec<(SetId, SetId)>,
    verify_piece: impl Fn(usize, &mut [(SetId, SetId)]) -> usize + Sync,
) {
    out.resize(bound(workers), (0, 0));
    let verify_piece = &verify_piece;
    let counts: Vec<usize> = std::thread::scope(|scope| {
        let mut rest = out.as_mut_slice();
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let (dst, tail) = std::mem::take(&mut rest).split_at_mut(bound(w + 1) - bound(w));
                rest = tail;
                scope.spawn(move || verify_piece(w, dst))
            })
            // hotlint: allow(hot-alloc): one handle per worker thread — bounded by the thread count, not the candidate count.
            .collect();
        // hotlint: allow(hot-alloc): one count per worker thread — bounded by the thread count, not the candidate count.
        handles.into_iter().map(join_worker).collect()
    });
    let mut write = 0;
    for (w, &kept) in counts.iter().enumerate() {
        out.copy_within(bound(w)..bound(w) + kept, write);
        write += kept;
    }
    out.truncate(write);
}

/// Step 4 over partner lists: walks the sets `a` in ascending order and
/// each one's partners `b` — `partners[offsets[a]..offsets[a + 1]]`,
/// ascending — in order, and writes the pairs `verifier` accepts into
/// the caller-provided `out` (cleared first). The output is therefore in
/// ascending `(a, b)` order.
///
/// With `threads > 1` and enough candidates, the sets are split into
/// `threads` ranges with about equal partner totals. Allocates nothing
/// per candidate at `threads: 1` (pinned by `tests/alloc_witness.rs`
/// with both verifier flavors).
pub fn verify_partner_lists_into<V: Verifier>(
    offsets: &[usize],
    partners: &[SetId],
    left: &SetCollection,
    right: &SetCollection,
    verifier: &V,
    threads: usize,
    out: &mut Vec<(SetId, SetId)>,
) {
    out.clear();
    let sets = offsets.len().saturating_sub(1);
    if threads <= 1 || partners.len() < PARALLEL_MIN_CANDIDATES {
        verify_sets(0..sets, offsets, partners, left, right, verifier, |p| {
            out.push(p)
        });
        return;
    }
    let total = partners.len();
    // First set of worker `w`'s range: the first whose list starts at or
    // past `w / threads` of the candidates.
    let cut = |w: usize| {
        if w == threads {
            sets
        } else {
            offsets[..sets].partition_point(|&o| o < total * w / threads)
        }
    };
    verify_pieces_into(
        threads,
        |w| offsets[cut(w)],
        out,
        |w, dst| {
            let mut kept = 0;
            verify_sets(
                cut(w)..cut(w + 1),
                offsets,
                partners,
                left,
                right,
                verifier,
                |p| {
                    dst[kept] = p;
                    kept += 1;
                },
            );
            kept
        },
    );
}

/// Post-filters encoded `(a << 32) | b` candidate pairs with a
/// [`Verifier`], writing the surviving pairs into the caller-provided
/// `out` (cleared first), in input order.
///
/// The verifier decides each pair ([`ExactVerifier`] for the plain
/// predicate path, [`BitmapVerifier`] for the bound-then-merge fast
/// path — both produce identical output). The parallel path writes
/// survivors directly into disjoint chunks of `out` and compacts them in
/// place, so verification allocates nothing per candidate pair (the
/// counting-allocator witness in `tests/alloc_witness.rs` pins this for
/// the sequential path, with both verifier flavors).
pub fn verify_pairs_into<V: Verifier>(
    pairs: &[u64],
    left: &SetCollection,
    right: &SetCollection,
    verifier: &V,
    threads: usize,
    out: &mut Vec<(SetId, SetId)>,
) {
    out.clear();
    let check = |encoded: u64| -> Option<(SetId, SetId)> {
        let a = crate::cast::set_id_u64(encoded >> 32);
        let b = crate::cast::set_id_u64(encoded & 0xffff_ffff);
        verifier
            .verify_pair(a, b, left.set(a), right.set(b))
            .then_some((a, b))
    };
    if threads <= 1 || pairs.len() < PARALLEL_MIN_CANDIDATES {
        out.extend(pairs.iter().filter_map(|&p| check(p)));
        return;
    }
    let chunk = pairs.len().div_ceil(threads);
    verify_pieces_into(
        pairs.len().div_ceil(chunk),
        |w| (w * chunk).min(pairs.len()),
        out,
        |w, dst| {
            let mut kept = 0;
            let src = &pairs[w * chunk..((w + 1) * chunk).min(pairs.len())];
            for pair in src.iter().filter_map(|&p| check(p)) {
                dst[kept] = pair;
                kept += 1;
            }
            kept
        },
    );
}

/// Runs step 4 with the verifier `opts` selects: bitmap-filtered for
/// unweighted predicates when `opts.bitmap_filter` is on (recording the
/// filter counters in `stats`), the plain exact path otherwise. `same`
/// marks a self-join, so one bitmap build serves both sides; binary joins
/// share a width (chosen from the combined mean set size) so the filter
/// always applies.
#[allow(clippy::too_many_arguments, reason = "the join's inputs and options")]
fn verify_with_options(
    lists: &PartnerLists,
    left: &SetCollection,
    right: &SetCollection,
    same: bool,
    pred: Predicate,
    weights: Option<&WeightMap>,
    opts: JoinOptions,
    stats: &mut JoinStats,
    pairs: &mut Vec<(SetId, SetId)>,
) {
    let (offsets, partners) = (&lists.offsets, &lists.partners);
    if opts.bitmap_filter && !pred.is_weighted() {
        let wps = if same {
            BitmapIndex::words_for_mean(left.avg_set_len())
        } else {
            let sets = left.len() + right.len();
            let elems = left.total_elements() + right.total_elements();
            BitmapIndex::words_for_mean(if sets == 0 {
                0.0
            } else {
                elems as f64 / sets as f64
            })
        };
        let left_bm = BitmapIndex::for_collection_width(left, wps);
        let right_bm = if same {
            None
        } else {
            Some(BitmapIndex::for_collection_width(right, wps))
        };
        let right_ref = right_bm.as_ref().unwrap_or(&left_bm);
        let verifier = BitmapVerifier::new(pred, weights, &left_bm, right_ref);
        verify_partner_lists_into(
            offsets,
            partners,
            left,
            right,
            &verifier,
            opts.threads,
            pairs,
        );
        stats.bitmap_pruned = verifier.bitmap_pruned();
        stats.bitmap_survivors = verifier.bitmap_survivors();
    } else {
        let verifier = ExactVerifier::new(pred, weights);
        verify_partner_lists_into(
            offsets,
            partners,
            left,
            right,
            &verifier,
            opts.threads,
            pairs,
        );
    }
}

/// Step 4 (or, with `opts.verify` off, the raw candidate list) and the
/// statistics that close a join.
#[allow(clippy::too_many_arguments, reason = "the join's inputs and options")]
fn finish_join(
    lists: &PartnerLists,
    left: &SetCollection,
    right: &SetCollection,
    same: bool,
    pred: Predicate,
    weights: Option<&WeightMap>,
    opts: JoinOptions,
    mut stats: JoinStats,
    approximate: bool,
) -> JoinResult {
    let t2 = Instant::now();
    let mut pairs = Vec::new();
    if opts.verify {
        verify_with_options(
            lists, left, right, same, pred, weights, opts, &mut stats, &mut pairs,
        );
    } else {
        pairs = lists.listed_pairs();
    }
    stats.output_pairs = pairs.len() as u64;
    stats.false_positives = stats.candidate_pairs - stats.output_pairs;
    stats.verify_secs = t2.elapsed().as_secs_f64();
    JoinResult {
        pairs,
        stats,
        approximate,
    }
}

/// Computes a self-SSJoin of `collection` under `pred` using `scheme`
/// (Figure 2 with `R = S`). Returns all pairs `(a, b)`, `a < b`, satisfying
/// the predicate — plus every candidate pair when `opts.verify` is off —
/// in ascending order.
pub fn self_join(
    scheme: &impl SignatureScheme,
    collection: &SetCollection,
    pred: Predicate,
    weights: Option<&WeightMap>,
    opts: JoinOptions,
) -> JoinResult {
    let mut stats = JoinStats {
        num_sets_r: collection.len(),
        num_sets_s: collection.len(),
        ..Default::default()
    };
    let workers = workers_for(opts.threads, collection.len());

    let t0 = Instant::now();
    let records = sign_records(scheme, collection, workers);
    stats.signatures_r = record_count(&records);
    stats.sig_gen_secs = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let runs = group_records(records, None, workers);
    let lists = PartnerLists::from_runs(runs, collection.len(), false);
    stats.signature_collisions = lists.collisions;
    stats.candidate_pairs = lists.partners.len() as u64;
    stats.cand_gen_secs = t1.elapsed().as_secs_f64();

    // Debug builds cross-check Theorem 1 on small inputs: an exact scheme's
    // candidates must be a superset of the true result.
    if !scheme.is_approximate() {
        crate::invariants::assert_self_candidates_complete(
            &lists.offsets,
            &lists.partners,
            collection,
            pred,
            weights,
        );
    }
    finish_join(
        &lists,
        collection,
        collection,
        true,
        pred,
        weights,
        opts,
        stats,
        scheme.is_approximate(),
    )
}

/// Computes a binary SSJoin `R ⋈ S` under `pred` using one shared `scheme`
/// (the same hidden parameters must generate both sides' signatures —
/// Section 3.1). Returns the matching `(r, s)` pairs in ascending order.
pub fn join(
    scheme: &impl SignatureScheme,
    r: &SetCollection,
    s: &SetCollection,
    pred: Predicate,
    weights: Option<&WeightMap>,
    opts: JoinOptions,
) -> JoinResult {
    let mut stats = JoinStats {
        num_sets_r: r.len(),
        num_sets_s: s.len(),
        ..Default::default()
    };

    let t0 = Instant::now();
    let records_r = sign_records(scheme, r, workers_for(opts.threads, r.len()));
    let records_s = sign_records(scheme, s, workers_for(opts.threads, s.len()));
    stats.signatures_r = record_count(&records_r);
    stats.signatures_s = record_count(&records_s);
    stats.sig_gen_secs = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let runs = group_records(
        records_r,
        Some(records_s),
        workers_for(opts.threads, r.len() + s.len()),
    );
    let lists = PartnerLists::from_runs(runs, r.len(), true);
    stats.signature_collisions = lists.collisions;
    stats.candidate_pairs = lists.partners.len() as u64;
    stats.cand_gen_secs = t1.elapsed().as_secs_f64();

    // Debug builds cross-check Theorem 1 on small inputs (see self_join).
    if !scheme.is_approximate() {
        crate::invariants::assert_binary_candidates_complete(
            &lists.offsets,
            &lists.partners,
            r,
            s,
            pred,
            weights,
        );
    }
    finish_join(
        &lists,
        r,
        s,
        false,
        pred,
        weights,
        opts,
        stats,
        scheme.is_approximate(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partenum::PartEnumJaccard;
    use crate::similarity::jaccard;
    use rand::prelude::*;

    /// Identity scheme for exercising the driver independently of PartEnum.
    struct Identity;
    impl SignatureScheme for Identity {
        fn signatures_into(&self, set: &[u32], out: &mut Vec<u64>) {
            out.extend(set.iter().map(|&e| e as u64));
        }
    }

    fn naive_self(collection: &SetCollection, pred: Predicate) -> Vec<(SetId, SetId)> {
        let mut out = Vec::new();
        for a in 0..collection.len() as SetId {
            for b in a + 1..collection.len() as SetId {
                if pred.evaluate(collection.set(a), collection.set(b), None) {
                    out.push((a, b));
                }
            }
        }
        out
    }

    fn small_random_collection(seed: u64, n: usize) -> SetCollection {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sets = Vec::new();
        for _ in 0..n {
            let len = rng.gen_range(3..20);
            let s: Vec<u32> = (0..len).map(|_| rng.gen_range(0..60u32)).collect();
            sets.push(s);
        }
        // Plant some near-duplicates so the join has output.
        for i in 0..n / 4 {
            let mut dup: Vec<u32> = sets[i].clone();
            dup.push(100 + i as u32);
            sets.push(dup);
        }
        sets.into_iter().collect()
    }

    #[test]
    fn identity_scheme_self_join_matches_naive() {
        let collection = small_random_collection(1, 60);
        let pred = Predicate::Jaccard { gamma: 0.6 };
        let result = self_join(&Identity, &collection, pred, None, JoinOptions::default());
        let mut expected = naive_self(&collection, pred);
        expected.sort_unstable();
        let mut got = result.pairs.clone();
        got.sort_unstable();
        assert_eq!(got, expected);
        assert_eq!(result.stats.output_pairs as usize, expected.len());
        assert!(!result.approximate);
    }

    #[test]
    fn partenum_self_join_matches_naive() {
        let collection = small_random_collection(2, 60);
        for gamma in [0.6, 0.8, 0.9] {
            let pred = Predicate::Jaccard { gamma };
            let scheme = PartEnumJaccard::new(gamma, collection.max_set_len(), 5).unwrap();
            let result = self_join(&scheme, &collection, pred, None, JoinOptions::default());
            let mut expected = naive_self(&collection, pred);
            expected.sort_unstable();
            let mut got = result.pairs.clone();
            got.sort_unstable();
            assert_eq!(got, expected, "gamma={gamma}");
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let collection = small_random_collection(3, 2000);
        let pred = Predicate::Jaccard { gamma: 0.7 };
        let scheme = PartEnumJaccard::new(0.7, collection.max_set_len(), 9).unwrap();
        let seq = self_join(&scheme, &collection, pred, None, JoinOptions::sequential());
        let par = self_join(&scheme, &collection, pred, None, JoinOptions::parallel(4));
        let mut a = seq.pairs.clone();
        let mut b = par.pairs.clone();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        assert_eq!(seq.stats.signatures_r, par.stats.signatures_r);
        assert_eq!(
            seq.stats.signature_collisions,
            par.stats.signature_collisions
        );
        assert_eq!(seq.stats.candidate_pairs, par.stats.candidate_pairs);
    }

    #[test]
    fn binary_join_matches_naive() {
        let r = small_random_collection(4, 40);
        let s = small_random_collection(5, 40);
        let pred = Predicate::Jaccard { gamma: 0.5 };
        let max_len = r.max_set_len().max(s.max_set_len());
        let scheme = PartEnumJaccard::new(0.5, max_len, 6).unwrap();
        let result = join(&scheme, &r, &s, pred, None, JoinOptions::default());
        let mut expected = Vec::new();
        for a in 0..r.len() as SetId {
            for b in 0..s.len() as SetId {
                if pred.evaluate(r.set(a), s.set(b), None) {
                    expected.push((a, b));
                }
            }
        }
        expected.sort_unstable();
        let mut got = result.pairs.clone();
        got.sort_unstable();
        assert_eq!(got, expected);
    }

    #[test]
    fn verify_off_returns_candidates() {
        let collection = small_random_collection(6, 30);
        let pred = Predicate::Jaccard { gamma: 0.8 };
        let scheme = PartEnumJaccard::new(0.8, collection.max_set_len(), 2).unwrap();
        let opts = JoinOptions {
            verify: false,
            ..Default::default()
        };
        let result = self_join(&scheme, &collection, pred, None, opts);
        assert_eq!(result.pairs.len() as u64, result.stats.candidate_pairs);
        assert_eq!(result.stats.false_positives, 0);
    }

    #[test]
    fn bitmap_filter_is_transparent_and_counted() {
        let collection = small_random_collection(8, 200);
        let pred = Predicate::Jaccard { gamma: 0.7 };
        let scheme = PartEnumJaccard::new(0.7, collection.max_set_len(), 4).unwrap();
        let on = self_join(&scheme, &collection, pred, None, JoinOptions::default());
        let off = self_join(
            &scheme,
            &collection,
            pred,
            None,
            JoinOptions::default().with_bitmap_filter(false),
        );
        // Byte-identical output either way; the filter only reorders work.
        assert_eq!(on.pairs, off.pairs);
        assert_eq!(on.stats.candidate_pairs, off.stats.candidate_pairs);
        // Every candidate was either pruned by the bound or exact-merged.
        assert_eq!(
            on.stats.bitmap_pruned + on.stats.bitmap_survivors,
            on.stats.candidate_pairs
        );
        assert!(on.stats.bitmap_pruned > 0, "workload should prune");
        assert_eq!(off.stats.bitmap_pruned, 0);
        assert_eq!(off.stats.bitmap_survivors, 0);
    }

    #[test]
    fn binary_join_bitmap_filter_is_transparent() {
        let r = small_random_collection(9, 80);
        let s = small_random_collection(10, 80);
        let pred = Predicate::Jaccard { gamma: 0.5 };
        let max_len = r.max_set_len().max(s.max_set_len());
        let scheme = PartEnumJaccard::new(0.5, max_len, 6).unwrap();
        let on = join(&scheme, &r, &s, pred, None, JoinOptions::default());
        let off = join(
            &scheme,
            &r,
            &s,
            pred,
            None,
            JoinOptions::default().with_bitmap_filter(false),
        );
        assert_eq!(on.pairs, off.pairs);
        assert_eq!(
            on.stats.bitmap_pruned + on.stats.bitmap_survivors,
            on.stats.candidate_pairs
        );
    }

    #[test]
    fn stats_are_consistent() {
        let collection = small_random_collection(7, 50);
        let pred = Predicate::Jaccard { gamma: 0.7 };
        let scheme = PartEnumJaccard::new(0.7, collection.max_set_len(), 3).unwrap();
        let result = self_join(&scheme, &collection, pred, None, JoinOptions::default());
        let s = &result.stats;
        assert_eq!(s.output_pairs + s.false_positives, s.candidate_pairs);
        // Collisions upper-bound distinct candidates.
        assert!(s.signature_collisions >= s.candidate_pairs);
        assert!(s.f2() >= 2 * s.signatures_r);
        // Every reported output pair truly satisfies the predicate.
        for &(a, b) in &result.pairs {
            assert!(jaccard(collection.set(a), collection.set(b)) + 1e-9 >= 0.7);
        }
    }

    /// Sets `{i % 7, 500, 1000 + i}`: under the identity scheme each
    /// signing chunk sorts into thirds — the low signatures, one run of
    /// signature 500, the unique ones — so signature 500's run spans
    /// every chunk and a grouping pivot falls on it at 2, 3 and 4 threads.
    fn shared_run_collection(n: usize) -> SetCollection {
        (0..n as u32).map(|i| vec![i % 7, 500, 1000 + i]).collect()
    }

    #[test]
    fn a_run_across_every_chunk_is_cut_whole() {
        let r = shared_run_collection(PARALLEL_MIN_SETS);
        let s = shared_run_collection(PARALLEL_MIN_SETS + 8);
        let pred = Predicate::Jaccard { gamma: 0.5 };
        let self_one = self_join(&Identity, &r, pred, None, JoinOptions::sequential());
        let cross_one = join(&Identity, &r, &s, pred, None, JoinOptions::sequential());
        let mut expected_cross = Vec::new();
        for a in 0..r.len() as SetId {
            for b in 0..s.len() as SetId {
                if pred.evaluate(r.set(a), s.set(b), None) {
                    expected_cross.push((a, b));
                }
            }
        }
        assert_eq!(self_one.pairs, naive_self(&r, pred));
        assert_eq!(cross_one.pairs, expected_cross);
        let n = r.len() as u64;
        // Every pair shares 500; pairs with equal `i % 7` share a second.
        let low: u64 = (0..7)
            .map(|k| (n - k).div_ceil(7))
            .map(|c| c * (c - 1) / 2)
            .sum();
        assert_eq!(self_one.stats.signature_collisions, n * (n - 1) / 2 + low);
        assert_eq!(self_one.stats.candidate_pairs, n * (n - 1) / 2);
        for threads in 2..=4 {
            for c in [&r, &s] {
                for ids in even_ranges(c.len(), threads) {
                    let mut chunk = sign_range(&Identity, c, ids);
                    chunk.sort_unstable();
                    assert!(
                        (1..threads).any(|w| chunk[chunk.len() * w / threads].0 == 500),
                        "a pivot must fall on the shared run at {threads} threads"
                    );
                }
            }
            let opts = JoinOptions::parallel(threads);
            for (one, par) in [
                (&self_one, self_join(&Identity, &r, pred, None, opts)),
                (&cross_one, join(&Identity, &r, &s, pred, None, opts)),
            ] {
                assert_eq!(par.pairs, one.pairs, "threads={threads}");
                let (a, b) = (&one.stats, &par.stats);
                assert_eq!(a.signatures_r, b.signatures_r, "threads={threads}");
                assert_eq!(a.signatures_s, b.signatures_s, "threads={threads}");
                assert_eq!(
                    a.signature_collisions, b.signature_collisions,
                    "threads={threads}"
                );
                assert_eq!(a.candidate_pairs, b.candidate_pairs, "threads={threads}");
            }
        }
    }

    #[test]
    fn empty_collection_joins() {
        let empty = SetCollection::new();
        let pred = Predicate::Jaccard { gamma: 0.9 };
        let scheme = PartEnumJaccard::new(0.9, 1, 0).unwrap();
        let result = self_join(&scheme, &empty, pred, None, JoinOptions::default());
        assert!(result.pairs.is_empty());
        assert_eq!(result.stats.candidate_pairs, 0);
    }
}
