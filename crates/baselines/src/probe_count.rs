//! The Probe-Count algorithm of Sarawagi & Kirpal \[22\].
//!
//! Section 3.3 characterizes \[22\]'s algorithms by their *identity signature
//! scheme* (`Sign(s) = s`); the original algorithms, however, are not
//! materialize-all-collisions joins: Probe-Count scans an inverted index
//! element → posting list and, per probe set, **counts** occurrences of
//! each candidate id across its elements' lists — producing intersection
//! sizes directly, so no separate post-filter pass over the inputs is
//! needed. (Pair-Count, the sibling, materializes (probe, candidate)
//! occurrences and sorts/groups them — which is exactly what the generic
//! driver does with [`crate::IdentityScheme`], so that pairing is already
//! covered.)
//!
//! This implementation adds the paper's size-based filtering (Section 5)
//! where the predicate admits size bounds, skipping candidates whose sizes
//! cannot join the probe's.

use ssj_core::hash::FxHashMap;
use ssj_core::predicate::Predicate;
use ssj_core::set::{ElementId, SetCollection, SetId, WeightMap};
use ssj_core::stats::JoinStats;
use std::time::Instant;

/// Probe strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProbeStrategy {
    /// Count every posting hit (the basic Probe-Count loop).
    #[default]
    MergeCount,
    /// \[22\]'s MergeOpt: with a per-probe minimum overlap α, set aside the
    /// α−1 *longest* posting lists — any qualifying candidate must appear in
    /// at least one of the remaining short lists, so only those are scanned;
    /// membership in the long lists is then checked by binary search per
    /// surviving candidate. Falls back to MergeCount when the predicate
    /// gives no usable α.
    MergeOpt,
}

/// Result of a probe-count join (mirrors `ssj_core::join::JoinResult`, but
/// probe-count is not signature-based, so it reports its own stats fields).
#[derive(Debug, Clone)]
pub struct ProbeCountResult {
    /// Matching `(a, b)` pairs, `a < b`.
    pub pairs: Vec<(SetId, SetId)>,
    /// Counters; `signatures_*` hold posting entries (= Σ|s|), and
    /// `signature_collisions` the total posting hits counted.
    pub stats: JoinStats,
}

/// Sarawagi & Kirpal's Probe-Count self-join.
///
/// **Limitation** (inherent to inverted-index probing, not this
/// implementation): pairs with an *empty* intersection are invisible — no
/// posting list contains both ids. They can satisfy a predicate only in
/// degenerate cases (two empty sets under jaccard/dice/cosine, or tiny
/// disjoint sets under a hamming threshold ≥ |r|+|s|); callers needing
/// those must special-case them, as the paper's signature-based schemes do
/// with sentinel signatures.
/// ```
/// use ssj_baselines::ProbeCount;
/// use ssj_core::prelude::*;
///
/// let collection: SetCollection =
///     vec![vec![1, 2, 3], vec![2, 3, 4], vec![9, 10]].into_iter().collect();
/// let result = ProbeCount::self_join(&collection, Predicate::Overlap { t: 2 }, None);
/// assert_eq!(result.pairs, vec![(0, 1)]);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct ProbeCount;

impl ProbeCount {
    /// Runs the self-join under `pred` with the basic strategy.
    pub fn self_join(
        collection: &SetCollection,
        pred: Predicate,
        weights: Option<&WeightMap>,
    ) -> ProbeCountResult {
        Self::self_join_with(collection, pred, weights, ProbeStrategy::MergeCount)
    }

    /// The minimum intersection any partner of a size-`len` probe must have,
    /// under `pred` — MergeOpt's α. `None` when the predicate provides none.
    fn min_alpha(pred: Predicate, len: usize) -> Option<usize> {
        let (lo, hi) = pred.size_bounds(len).unwrap_or((0, usize::MAX));
        // required_overlap is monotone in the partner size for the supported
        // predicates only in one direction; evaluate at both clamped ends.
        let lo = lo.max(1);
        let hi = hi.min(len.saturating_mul(4).max(16));
        let a = pred.required_overlap(len, lo)?;
        let b = pred.required_overlap(len, hi)?;
        Some(a.min(b).max(1))
    }

    /// Runs the self-join under `pred` (weighted predicates verify with
    /// `weights`; counting still drives candidate generation).
    pub fn self_join_with(
        collection: &SetCollection,
        pred: Predicate,
        weights: Option<&WeightMap>,
        strategy: ProbeStrategy,
    ) -> ProbeCountResult {
        let n = collection.len();
        let mut stats = JoinStats {
            num_sets_r: n,
            num_sets_s: n,
            ..Default::default()
        };

        // Build the inverted index: element → ids containing it (ascending,
        // since we insert in id order).
        let t0 = Instant::now();
        let mut index: FxHashMap<ElementId, Vec<SetId>> = FxHashMap::default();
        for (id, set) in collection.iter() {
            for &e in set {
                index.entry(e).or_default().push(id);
            }
        }
        stats.signatures_r = collection.total_elements() as u64;
        stats.sig_gen_secs = t0.elapsed().as_secs_f64();

        // Probe phase: for each set, count per-candidate hits over the
        // posting lists of its elements, restricted to ids > probe id
        // (self-join, each unordered pair once).
        let t1 = Instant::now();
        let mut pairs = Vec::new();
        let mut counts: FxHashMap<SetId, u32> = FxHashMap::default();
        let mut candidate_total = 0u64;
        let mut hit_total = 0u64;
        for (id, set) in collection.iter() {
            counts.clear();
            // MergeOpt: partition the probe's posting lists into the α−1
            // longest ("long") and the rest ("short"); any candidate with
            // count ≥ α must hit a short list.
            let alpha = match strategy {
                ProbeStrategy::MergeCount => None,
                ProbeStrategy::MergeOpt => Self::min_alpha(pred, set.len()),
            };
            let mut long_lists: Vec<&[SetId]> = Vec::new();
            let mut short_elems: Vec<ElementId> = Vec::new();
            if let Some(alpha) = alpha.filter(|&a| a > 1) {
                let mut by_len: Vec<(usize, ElementId)> = set
                    .iter()
                    .map(|&e| (index.get(&e).map_or(0, Vec::len), e))
                    .collect();
                by_len.sort_unstable_by_key(|&(len, _)| std::cmp::Reverse(len));
                for (rank, &(_, e)) in by_len.iter().enumerate() {
                    if rank < alpha - 1 {
                        if let Some(p) = index.get(&e) {
                            long_lists.push(p.as_slice());
                        }
                    } else {
                        short_elems.push(e);
                    }
                }
            } else {
                short_elems.extend_from_slice(set);
            }
            for &e in &short_elems {
                if let Some(postings) = index.get(&e) {
                    // Postings are sorted; only ids after the probe matter.
                    let start = postings.partition_point(|&x| x <= id);
                    for &cand in &postings[start..] {
                        *counts.entry(cand).or_insert(0) += 1;
                        hit_total += 1;
                    }
                }
            }
            // Complete the counts of surviving candidates from long lists.
            for (&cand, count) in counts.iter_mut() {
                for list in &long_lists {
                    if list.binary_search(&cand).is_ok() {
                        *count += 1;
                    }
                }
            }
            candidate_total += counts.len() as u64;
            let probe_len = set.len();
            let size_bounds = pred.size_bounds(probe_len);
            for (&cand, &overlap) in &counts {
                let cand_len = collection.len_of(cand);
                if let Some((lo, hi)) = size_bounds {
                    if cand_len < lo || cand_len > hi {
                        continue;
                    }
                }
                let ok = match pred.required_overlap(probe_len, cand_len) {
                    // The count IS the intersection size: decide directly.
                    Some(alpha) => overlap as usize >= alpha,
                    // Weighted predicates need the weight map.
                    None => pred.evaluate(set, collection.set(cand), weights),
                };
                if ok {
                    pairs.push((id, cand));
                }
            }
        }
        stats.signature_collisions = hit_total;
        stats.candidate_pairs = candidate_total;
        stats.cand_gen_secs = t1.elapsed().as_secs_f64();
        stats.output_pairs = pairs.len() as u64;
        stats.false_positives = stats.candidate_pairs - stats.output_pairs;
        pairs.sort_unstable();
        ProbeCountResult { pairs, stats }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::NaiveJoin;
    use rand::prelude::*;

    fn random_collection(seed: u64) -> SetCollection {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sets: Vec<Vec<u32>> = (0..120)
            .map(|_| {
                let len = rng.gen_range(0..15);
                (0..len).map(|_| rng.gen_range(0..60u32)).collect()
            })
            .collect();
        for i in 0..40 {
            let mut dup = sets[i].clone();
            dup.push(100 + i as u32);
            sets.push(dup);
        }
        sets.into_iter().collect()
    }

    #[test]
    fn matches_naive_for_overlap() {
        let c = random_collection(1);
        for t in [1, 2, 4] {
            let pred = Predicate::Overlap { t };
            let got = ProbeCount::self_join(&c, pred, None).pairs;
            let mut expected = NaiveJoin::self_join(&c, pred, None);
            expected.sort_unstable();
            assert_eq!(got, expected, "t={t}");
        }
    }

    #[test]
    fn matches_naive_for_jaccard_and_hamming() {
        let c = random_collection(2);
        for pred in [
            Predicate::Jaccard { gamma: 0.7 },
            Predicate::Jaccard { gamma: 0.9 },
            Predicate::Hamming { k: 3 },
            Predicate::Dice { gamma: 0.8 },
            Predicate::Cosine { gamma: 0.8 },
            Predicate::MaxFraction { gamma: 0.8 },
        ] {
            let got = ProbeCount::self_join(&c, pred, None).pairs;
            let mut expected = NaiveJoin::self_join(&c, pred, None);
            expected.sort_unstable();
            // Probe-count never sees zero-intersection pairs (see struct
            // docs), so predicates that admit them (hamming over tiny sets,
            // jaccard between empty sets) are compared on the
            // positive-intersection subset.
            let expected: Vec<_> = expected
                .into_iter()
                .filter(|&(a, b)| ssj_core::similarity::intersection_size(c.set(a), c.set(b)) > 0)
                .collect();
            assert_eq!(got, expected, "pred={pred:?}");
        }
    }

    #[test]
    fn weighted_predicate_verifies_with_weights() {
        let c = random_collection(3);
        let weights = WeightMap::idf(&c);
        let pred = Predicate::WeightedJaccard { gamma: 0.7 };
        let got = ProbeCount::self_join(&c, pred, Some(&weights)).pairs;
        let mut expected = NaiveJoin::self_join(&c, pred, Some(&weights));
        expected.sort_unstable();
        // Same positive-intersection caveat (weighted jaccard 1.0 between
        // two empty sets is invisible to an inverted index).
        let expected: Vec<_> = expected
            .into_iter()
            .filter(|&(a, b)| ssj_core::similarity::intersection_size(c.set(a), c.set(b)) > 0)
            .collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn mergeopt_matches_mergecount() {
        let c = random_collection(7);
        for pred in [
            Predicate::Jaccard { gamma: 0.7 },
            Predicate::Jaccard { gamma: 0.9 },
            Predicate::Overlap { t: 4 },
            Predicate::Hamming { k: 2 },
            Predicate::Dice { gamma: 0.85 },
        ] {
            let basic = ProbeCount::self_join_with(&c, pred, None, ProbeStrategy::MergeCount);
            let opt = ProbeCount::self_join_with(&c, pred, None, ProbeStrategy::MergeOpt);
            assert_eq!(basic.pairs, opt.pairs, "pred={pred:?}");
            // MergeOpt scans fewer (or equal) posting entries.
            assert!(
                opt.stats.signature_collisions <= basic.stats.signature_collisions,
                "pred={pred:?}: opt scanned {} vs {}",
                opt.stats.signature_collisions,
                basic.stats.signature_collisions
            );
        }
    }

    #[test]
    fn mergeopt_skips_frequent_elements() {
        // One ubiquitous element: MergeOpt should avoid scanning its huge
        // posting list when α > 1.
        let mut sets: Vec<Vec<u32>> = (0..200)
            .map(|i| vec![0, 1000 + i, 2000 + i, 3000 + i])
            .collect();
        sets.push(vec![0, 1000, 2000, 3000]); // joins set 0 with overlap 4
        let c: SetCollection = sets.into_iter().collect();
        let pred = Predicate::Overlap { t: 3 };
        let basic = ProbeCount::self_join_with(&c, pred, None, ProbeStrategy::MergeCount);
        let opt = ProbeCount::self_join_with(&c, pred, None, ProbeStrategy::MergeOpt);
        assert_eq!(basic.pairs, opt.pairs);
        assert!(
            opt.stats.signature_collisions * 10 < basic.stats.signature_collisions,
            "expected an order-of-magnitude scan reduction: {} vs {}",
            opt.stats.signature_collisions,
            basic.stats.signature_collisions
        );
    }

    #[test]
    fn stats_are_consistent() {
        let c = random_collection(4);
        let result = ProbeCount::self_join(&c, Predicate::Overlap { t: 2 }, None);
        let s = &result.stats;
        assert_eq!(s.signatures_r as usize, c.total_elements());
        assert_eq!(s.output_pairs as usize, result.pairs.len());
        assert!(s.signature_collisions >= s.candidate_pairs);
    }

    #[test]
    fn empty_collection() {
        let c = SetCollection::new();
        let result = ProbeCount::self_join(&c, Predicate::Overlap { t: 1 }, None);
        assert!(result.pairs.is_empty());
    }
}
