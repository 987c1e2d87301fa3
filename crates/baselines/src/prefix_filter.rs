//! The prefix-filter signature scheme (Chaudhuri, Ganti, Kaushik \[6\] —
//! Section 3.3 of the paper), augmented with the size-based filtering of
//! Section 5.
//!
//! `Sign(s)` is the `h` elements of `s` with the smallest frequencies in
//! `R ∪ S` (ties broken consistently). Correctness rests on the prefix
//! lemma: order elements by a fixed global order; if `|r ∩ s| ≥ α`, then the
//! prefixes of `r` and `s` of lengths `|r| − α + 1` and `|s| − α + 1` share
//! an element. Each set uses the strongest `α` valid against *every*
//! possible partner (e.g. `α = ⌈γ·|s|⌉` for jaccard, since
//! `|r∩s| ≥ γ·max(|r|,|s|)`); asymmetric per-set bounds remain correct
//! because longer prefixes only help.
//!
//! The paper found the plain scheme uncompetitive and benchmarks the version
//! augmented with size-based filtering; [`PrefixFilter`] implements both
//! (toggle [`PrefixFilterConfig::size_filter`]), tagging signatures with the
//! Figure 6 interval indices so sets of incompatible sizes never collide.
//!
//! For **weighted jaccard** the scheme keeps the minimal prefix `P` (in the
//! same rarity order) whose *residual* weight satisfies
//! `w(s \ P) < γ/(1+γ)·w(s)`: if neither prefix hit the intersection,
//! `w(r∩s) ≤ w(r\P_r) + w(s\P_s) < γ/(1+γ)(w(r)+w(s)) ≤ w(r∩s)` —
//! contradiction, so joining pairs always share a prefix element.

use ssj_core::error::{Result, SsjError};
use ssj_core::hash::{FxHashMap, SigBuilder};
use ssj_core::partenum::SizeIntervals;
use ssj_core::predicate::{ceil_tol, Predicate};
use ssj_core::set::{ElementId, SetCollection, WeightMap};
use ssj_core::signature::{Signature, SignatureScheme};
use std::sync::Arc;

/// Configuration for [`PrefixFilter`].
#[derive(Debug, Clone, Copy)]
pub struct PrefixFilterConfig {
    /// Apply Section 5's size-based filtering (the paper's benchmarked
    /// variant). Only affects predicates with multiplicative size bounds.
    pub size_filter: bool,
}

impl Default for PrefixFilterConfig {
    fn default() -> Self {
        Self { size_filter: true }
    }
}

/// How signatures are tagged by set size.
#[derive(Debug, Clone)]
enum SizeTagging {
    /// No tagging (hamming, overlap, or size filtering disabled).
    None,
    /// Unweighted size intervals (jaccard / max-fraction).
    Intervals(SizeIntervals),
    /// Weighted-size geometric intervals with the given ratio.
    Weighted { ratio: f64 },
}

/// The prefix-filter signature scheme.
///
/// ```
/// use ssj_baselines::{PrefixFilter, PrefixFilterConfig};
/// use ssj_core::prelude::*;
///
/// let collection: SetCollection =
///     vec![vec![1, 2, 3, 4, 5], vec![1, 2, 3, 4, 5, 6], vec![7, 8, 9]]
///         .into_iter()
///         .collect();
/// let pred = Predicate::Jaccard { gamma: 0.8 };
/// let scheme =
///     PrefixFilter::build(pred, &[&collection], None, PrefixFilterConfig::default()).unwrap();
/// let result = self_join(&scheme, &collection, pred, None, JoinOptions::default());
/// assert_eq!(result.pairs, vec![(0, 1)]); // exact, like PartEnum
/// ```
#[derive(Debug, Clone)]
pub struct PrefixFilter {
    pred: Predicate,
    /// Element → frequency-ascending rank; lower rank = rarer = kept first.
    rank: FxHashMap<ElementId, u32>,
    tagging: SizeTagging,
    weights: Option<Arc<WeightMap>>,
}

/// Sentinel tags, domain-separated from interval indices (which start at 1).
const TAG_UNTAGGED: u64 = 0;
const TAG_UNIVERSAL: u64 = u64::MAX;
const TAG_EMPTY: u64 = u64::MAX - 1;

impl PrefixFilter {
    /// Builds the scheme for `pred` from the input collection(s): element
    /// frequencies are collected over all of them ("the smallest frequencies
    /// in R ∪ S"). Weighted predicates require `weights`.
    pub fn build(
        pred: Predicate,
        collections: &[&SetCollection],
        weights: Option<Arc<WeightMap>>,
        config: PrefixFilterConfig,
    ) -> Result<Self> {
        // Global frequency of each element across all inputs.
        let mut freq: FxHashMap<ElementId, u32> = FxHashMap::default();
        for c in collections {
            for (e, f) in c.element_frequencies() {
                *freq.entry(e).or_insert(0) += f;
            }
        }
        // Rank elements by (frequency asc, element asc) — "ties are broken
        // arbitrarily but consistently for all sets".
        let mut order: Vec<(u32, ElementId)> = freq.iter().map(|(&e, &f)| (f, e)).collect();
        order.sort_unstable();
        let rank: FxHashMap<ElementId, u32> = order
            .into_iter()
            .enumerate()
            .map(|(i, (_, e))| (e, i as u32))
            .collect();

        let tagging = if !config.size_filter {
            SizeTagging::None
        } else {
            // Effective size ratio per predicate (None = no multiplicative
            // bound, so no interval tagging).
            let gamma_eff = match pred {
                Predicate::Jaccard { gamma } | Predicate::MaxFraction { gamma } => Some(gamma),
                Predicate::Dice { gamma } => Some(gamma / (2.0 - gamma)),
                Predicate::Cosine { gamma } => Some(gamma * gamma),
                _ => None,
            };
            match (gamma_eff, pred) {
                (Some(g), _) if g > 0.0 => {
                    let max_len = collections
                        .iter()
                        .map(|c| c.max_set_len())
                        .max()
                        .unwrap_or(0);
                    SizeTagging::Intervals(SizeIntervals::new(g, max_len.max(1) + 1))
                }
                (_, Predicate::WeightedJaccard { gamma }) => {
                    SizeTagging::Weighted { ratio: 1.0 / gamma }
                }
                _ => SizeTagging::None,
            }
        };
        if pred.is_weighted() && weights.is_none() {
            return Err(SsjError::InvalidParams(
                "weighted predicate requires a WeightMap".into(),
            ));
        }
        Ok(Self {
            pred,
            rank,
            tagging,
            weights,
        })
    }

    /// Rarity rank of an element (unseen elements rank rarest).
    #[inline]
    fn rank_of(&self, e: ElementId) -> u32 {
        self.rank.get(&e).copied().unwrap_or(u32::MAX)
    }

    /// The size-filter tags a set of the given (weighted) size emits under.
    fn tags_for(&self, len: usize, wlen: f64) -> (u64, Option<u64>) {
        match &self.tagging {
            SizeTagging::None => (TAG_UNTAGGED, None),
            SizeTagging::Intervals(iv) => {
                // Intervals were sized from the build-time collections, so
                // every indexed length is covered; clamp defensively (the
                // fallback is unreachable for in-collection sets).
                let i = iv
                    .interval_of(len.clamp(1, iv.max_size()))
                    .unwrap_or(iv.count()) as u64;
                (i, Some(i + 1))
            }
            SizeTagging::Weighted { ratio } => {
                // Geometric intervals over weighted size, base 1.0 (interval
                // 1 absorbs everything lighter) — mirrors WtEnumJaccard.
                let j = if wlen <= 1.0 {
                    1
                } else {
                    (wlen.ln() / ratio.ln()).ceil() as u64 + 1
                };
                (j, Some(j + 1))
            }
        }
    }

    /// Required-overlap lower bound `α(s)` valid against every partner, for
    /// unweighted predicates. `None` means "emit no signatures" (the set
    /// cannot join anything); `Some(0)` means the universal signature is
    /// needed (a partner may share no element at all).
    fn alpha(&self, len: usize) -> Option<usize> {
        match self.pred {
            // |r∩s| ≥ γ·max(|r|,|s|) ≥ γ·|s| for both predicates.
            Predicate::Jaccard { gamma } | Predicate::MaxFraction { gamma } => {
                if len == 0 {
                    None // handled by the empty sentinel
                } else {
                    Some(ceil_tol(gamma * len as f64).max(1))
                }
            }
            // |r∩s| ≥ γ/2·(|r|+|s|) ≥ γ·|s|/(2−γ) (partner ≥ γ|s|/(2−γ)).
            Predicate::Dice { gamma } => {
                if len == 0 {
                    None
                } else {
                    Some(ceil_tol(gamma / (2.0 - gamma) * len as f64).max(1))
                }
            }
            // |r∩s| ≥ γ·√(|r||s|) ≥ γ²·|s| (partner ≥ γ²|s|).
            Predicate::Cosine { gamma } => {
                if len == 0 {
                    None
                } else {
                    Some(ceil_tol(gamma * gamma * len as f64).max(1))
                }
            }
            // |r∩s| ≥ (|r|+|s|−k)/2 ≥ |s|−k (partner no smaller than |s|−k).
            Predicate::Hamming { k } => Some(len.saturating_sub(k)),
            Predicate::Overlap { t } => {
                if len < t {
                    None
                } else {
                    Some(t)
                }
            }
            Predicate::WeightedJaccard { .. } | Predicate::WeightedOverlap { .. } => {
                unreachable!("weighted predicates use the residual-weight prefix")
            }
        }
    }

    fn emit(&self, tag: u64, e: ElementId, out: &mut Vec<Signature>) {
        let mut sig = SigBuilder::new(tag);
        sig.push_u32(e);
        out.push(sig.finish());
    }

    fn emit_constant(&self, tag: u64, out: &mut Vec<Signature>) {
        let mut sig = SigBuilder::new(tag);
        sig.push(0x5157);
        out.push(sig.finish());
    }
}

impl SignatureScheme for PrefixFilter {
    fn signatures_into(&self, set: &[ElementId], out: &mut Vec<Signature>) {
        // Weighted jaccard: residual-weight prefix with weighted size tags.
        if let Predicate::WeightedJaccard { gamma } = self.pred {
            let Some(w) = self.weights.as_ref() else {
                // `build` rejects weighted predicates without a weight map;
                // if that invariant ever breaks, emit the degenerate
                // constant signature (correct, filter-free) over aborting.
                debug_assert!(false, "weighted prefix filter without weights");
                self.emit_constant(TAG_EMPTY, out);
                return;
            };
            let total = w.set_weight(set);
            if total <= 0.0 {
                // All-zero-weight sets are mutually similar (wJs = 1).
                self.emit_constant(TAG_EMPTY, out);
                return;
            }
            let mut by_rank: Vec<ElementId> = set.to_vec();
            by_rank.sort_unstable_by_key(|&e| (self.rank_of(e), e));
            let budget = gamma / (1.0 + gamma) * total;
            let mut residual = total;
            let (t1, t2) = self.tags_for(set.len(), total);
            for &e in &by_rank {
                if residual < budget {
                    break;
                }
                self.emit(t1, e, out);
                if let Some(t2) = t2 {
                    self.emit(t2, e, out);
                }
                residual -= w.weight(e);
            }
            return;
        }

        // Unweighted predicates.
        if set.is_empty() {
            match self.pred {
                // ∅ joins ∅ (similarity 1) but nothing else.
                Predicate::Jaccard { .. }
                | Predicate::MaxFraction { .. }
                | Predicate::Dice { .. }
                | Predicate::Cosine { .. } => self.emit_constant(TAG_EMPTY, out),
                // ∅ may join any set of size ≤ k.
                Predicate::Hamming { .. } => self.emit_constant(TAG_UNIVERSAL, out),
                Predicate::Overlap { t: 0 } => self.emit_constant(TAG_UNIVERSAL, out),
                _ => {}
            }
            return;
        }
        let Some(alpha) = self.alpha(set.len()) else {
            return;
        };
        if alpha == 0 {
            // A partner may share nothing (hamming with |s| ≤ k, or
            // overlap t = 0): the universal signature catches those pairs;
            // the full-set prefix below (α treated as 1) catches the rest.
            self.emit_constant(TAG_UNIVERSAL, out);
        }
        let alpha = alpha.max(1);
        let h = set.len() - alpha + 1;
        let mut by_rank: Vec<ElementId> = set.to_vec();
        by_rank.sort_unstable_by_key(|&e| (self.rank_of(e), e));
        let (t1, t2) = self.tags_for(set.len(), 0.0);
        for &e in by_rank.iter().take(h) {
            self.emit(t1, e, out);
            if let Some(t2) = t2 {
                self.emit(t2, e, out);
            }
        }
    }

    fn name(&self) -> &'static str {
        "PF"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::NaiveJoin;
    use rand::prelude::*;
    use ssj_core::join::{self_join, JoinOptions};

    fn build(pred: Predicate, c: &SetCollection, size_filter: bool) -> PrefixFilter {
        PrefixFilter::build(pred, &[c], None, PrefixFilterConfig { size_filter }).unwrap()
    }

    fn random_collection(seed: u64, n: usize, with_dups: bool) -> SetCollection {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sets = Vec::new();
        for _ in 0..n {
            let len = rng.gen_range(2..25);
            let s: Vec<u32> = (0..len).map(|_| rng.gen_range(0..80u32)).collect();
            sets.push(s);
        }
        if with_dups {
            for i in 0..n / 3 {
                let mut dup = sets[i].clone();
                dup.push(200 + i as u32);
                sets.push(dup);
            }
        }
        sets.into_iter().collect()
    }

    #[test]
    fn paper_example_prefix_size() {
        // Section 3.3: jaccard 0.8, |s| = 20 → the 3 rarest elements.
        // α = ⌈0.8·20⌉ = 16 → h = 20 − 16 + 1 = 5? No: the paper derives
        // |r∩s| ≥ 18 for equal sizes; the per-set bound γ|s| = 16 is the
        // general-size-safe version, giving h = 5 ≥ 3 — a superset of the
        // paper's equi-size prefix, hence still exact.
        let c: SetCollection = vec![(0..20u32).collect::<Vec<_>>()].into_iter().collect();
        let pf = build(Predicate::Jaccard { gamma: 0.8 }, &c, false);
        let sigs = pf.signatures(c.set(0));
        assert_eq!(sigs.len(), 5);
    }

    #[test]
    fn jaccard_matches_naive_with_and_without_size_filter() {
        for seed in 0..5 {
            let c = random_collection(seed, 60, true);
            for gamma in [0.6, 0.8, 0.9] {
                let pred = Predicate::Jaccard { gamma };
                let mut expected = NaiveJoin::self_join(&c, pred, None);
                expected.sort_unstable();
                for sf in [false, true] {
                    let pf = build(pred, &c, sf);
                    let mut got = self_join(&pf, &c, pred, None, JoinOptions::default()).pairs;
                    got.sort_unstable();
                    assert_eq!(got, expected, "seed={seed} gamma={gamma} sf={sf}");
                }
            }
        }
    }

    #[test]
    fn size_filter_reduces_candidates() {
        let c = random_collection(42, 150, true);
        let pred = Predicate::Jaccard { gamma: 0.8 };
        let plain = build(pred, &c, false);
        let filtered = build(pred, &c, true);
        let r1 = self_join(&plain, &c, pred, None, JoinOptions::default());
        let r2 = self_join(&filtered, &c, pred, None, JoinOptions::default());
        assert_eq!(r1.pairs.len(), r2.pairs.len());
        assert!(
            r2.stats.candidate_pairs <= r1.stats.candidate_pairs,
            "size filtering should not increase candidates"
        );
    }

    #[test]
    fn hamming_matches_naive_including_tiny_sets() {
        for seed in [1, 2] {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut sets: Vec<Vec<u32>> = Vec::new();
            // Deliberately include sets smaller than k.
            for _ in 0..50 {
                let len = rng.gen_range(0..10);
                sets.push((0..len).map(|_| rng.gen_range(0..30u32)).collect());
            }
            let c: SetCollection = sets.into_iter().collect();
            for k in [1, 3, 6] {
                let pred = Predicate::Hamming { k };
                let pf = build(pred, &c, true);
                let mut got = self_join(&pf, &c, pred, None, JoinOptions::default()).pairs;
                got.sort_unstable();
                let mut expected = NaiveJoin::self_join(&c, pred, None);
                expected.sort_unstable();
                assert_eq!(got, expected, "seed={seed} k={k}");
            }
        }
    }

    #[test]
    fn overlap_matches_naive() {
        let c = random_collection(9, 60, false);
        for t in [1, 3, 5] {
            let pred = Predicate::Overlap { t };
            let pf = build(pred, &c, true);
            let mut got = self_join(&pf, &c, pred, None, JoinOptions::default()).pairs;
            got.sort_unstable();
            let mut expected = NaiveJoin::self_join(&c, pred, None);
            expected.sort_unstable();
            assert_eq!(got, expected, "t={t}");
        }
    }

    #[test]
    fn overlap_too_small_sets_emit_nothing() {
        let c: SetCollection = vec![vec![1, 2]].into_iter().collect();
        let pf = build(Predicate::Overlap { t: 5 }, &c, false);
        assert!(pf.signatures(&[1, 2]).is_empty());
    }

    #[test]
    fn weighted_jaccard_matches_naive() {
        let mut rng = StdRng::seed_from_u64(5);
        let c = random_collection(5, 50, true);
        let pairs: Vec<(u32, f64)> = (0..300u32).map(|e| (e, rng.gen_range(0.2..4.0))).collect();
        let weights = Arc::new(WeightMap::from_pairs(pairs, 1.0));
        for gamma in [0.6, 0.8] {
            let pred = Predicate::WeightedJaccard { gamma };
            let pf = PrefixFilter::build(
                pred,
                &[&c],
                Some(Arc::clone(&weights)),
                PrefixFilterConfig::default(),
            )
            .unwrap();
            let mut got = self_join(&pf, &c, pred, Some(&weights), JoinOptions::default()).pairs;
            got.sort_unstable();
            let mut expected = NaiveJoin::self_join(&c, pred, Some(&weights));
            expected.sort_unstable();
            assert_eq!(got, expected, "gamma={gamma}");
        }
    }

    #[test]
    fn weighted_build_requires_weights() {
        let c: SetCollection = vec![vec![1]].into_iter().collect();
        let err = PrefixFilter::build(
            Predicate::WeightedJaccard { gamma: 0.8 },
            &[&c],
            None,
            PrefixFilterConfig::default(),
        );
        assert!(err.is_err());
    }

    #[test]
    fn rare_elements_are_chosen() {
        // Element 99 appears once; 1 and 2 appear everywhere. The h=1 prefix
        // of {1, 2, 99} must be {99}.
        let c: SetCollection = vec![vec![1, 2, 99], vec![1, 2, 3], vec![1, 2, 4], vec![1, 2, 5]]
            .into_iter()
            .collect();
        // Overlap t=3 → α=3 → h = 1.
        let pf = build(Predicate::Overlap { t: 3 }, &c, false);
        let sigs_with_99 = pf.signatures(&[1, 2, 99]);
        assert_eq!(sigs_with_99.len(), 1);
        // The rare element's signature differs from the frequent ones'.
        let sigs_34 = pf.signatures(&[1, 2, 3]);
        assert_eq!(sigs_34.len(), 1);
        assert_ne!(sigs_with_99, sigs_34);
    }

    #[test]
    fn empty_sets_under_jaccard() {
        let c: SetCollection = vec![vec![], vec![], vec![1, 2]].into_iter().collect();
        let pred = Predicate::Jaccard { gamma: 0.8 };
        let pf = build(pred, &c, true);
        let mut got = self_join(&pf, &c, pred, None, JoinOptions::default()).pairs;
        got.sort_unstable();
        assert_eq!(got, vec![(0, 1)]);
    }
}
