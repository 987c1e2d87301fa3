//! SSJoin predicates.
//!
//! The paper defines SSJoin over the predicate class
//! `pred(r, s) = ∧ᵢ (|r ∩ s| ≥ eᵢ)` where each `eᵢ` is an expression in
//! `|r|`, `|s|` and constants (Section 2). [`Predicate`] models the concrete
//! members the paper works with — threshold jaccard and hamming (Sections
//! 2.2–2.3), plain overlap, the `|r∩s| ≥ γ·max(|r|,|s|)` example of
//! Section 6, and the weighted variants of Section 7 — and exposes the two
//! derived quantities Section 6 identifies as sufficient for PartEnum-style
//! evaluation:
//!
//! 1. **size bounds** — the range of `|s|` that can join a given `|r|`, and
//! 2. **hamming bound** — an upper bound on `Hd(r, s)` for joining pairs of
//!    given sizes.

use crate::cast::usize_of_f64;
use crate::set::{ElementId, WeightMap};
use crate::similarity;

/// Comparison slack: similarity values are compared with this tolerance so
/// that e.g. a pair at exactly jaccard 0.8 is accepted under `γ = 0.8`
/// regardless of floating-point rounding in `γ/(1+γ)` style rearrangements.
pub const EPS: f64 = 1e-9;

/// Rounds `x` up to an integer, tolerating floating-point noise just below
/// an integer boundary (so `ceil(18.000000001) == 18` when the true value is
/// 18). All signature schemes use this to stay conservative (exact).
#[inline]
pub fn ceil_tol(x: f64) -> usize {
    usize_of_f64((x - EPS).ceil().max(0.0))
}

/// Rounds `x` down to an integer, tolerating noise just above a boundary.
#[inline]
pub fn floor_tol(x: f64) -> usize {
    usize_of_f64((x + EPS).floor().max(0.0))
}

/// A supported SSJoin predicate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Predicate {
    /// `Js(r, s) ≥ γ` (Section 2.3).
    Jaccard {
        /// Similarity threshold γ ∈ (0, 1].
        gamma: f64,
    },
    /// `Hd(r, s) ≤ k` (Section 2.2).
    Hamming {
        /// Distance threshold k ≥ 0.
        k: usize,
    },
    /// `|r ∩ s| ≥ t`. Per Section 6 this one admits neither a size bound nor
    /// a hamming bound, so PartEnum does not apply (WtEnum and the identity
    /// scheme do).
    Overlap {
        /// Minimum intersection size.
        t: usize,
    },
    /// `|r ∩ s| ≥ γ·max(|r|, |s|)` — the worked example of Section 6.
    MaxFraction {
        /// Fraction of the larger set that must be shared.
        gamma: f64,
    },
    /// Dice coefficient `2|r∩s|/(|r|+|s|) ≥ γ` — in the Section 6 class:
    /// partner sizes within a `(2−γ)/γ` ratio and `Hd ≤ (1−γ)(|r|+|s|)`.
    Dice {
        /// Similarity threshold γ ∈ (0, 1].
        gamma: f64,
    },
    /// Cosine similarity `|r∩s|/√(|r|·|s|) ≥ γ` — in the Section 6 class:
    /// partner sizes within a `1/γ²` ratio and `Hd ≤ |r|+|s| − 2γ√(|r|·|s|)`.
    Cosine {
        /// Similarity threshold γ ∈ (0, 1].
        gamma: f64,
    },
    /// Weighted jaccard `w(r∩s)/w(r∪s) ≥ γ` (Sections 7, 8.3).
    WeightedJaccard {
        /// Weighted-similarity threshold γ ∈ (0, 1).
        gamma: f64,
    },
    /// Weighted overlap `w(r ∩ s) ≥ t` — WtEnum's native form (Figure 8).
    WeightedOverlap {
        /// Minimum weighted intersection.
        t: f64,
    },
}

impl Predicate {
    /// Whether the predicate reads element weights.
    pub fn is_weighted(&self) -> bool {
        matches!(
            self,
            Predicate::WeightedJaccard { .. } | Predicate::WeightedOverlap { .. }
        )
    }

    /// Evaluates the predicate on a pair of sorted sets. Weighted predicates
    /// require `weights`: evaluating one without a weight map is a caller
    /// bug — it panics in debug builds and conservatively returns `false`
    /// (no match) in release builds.
    pub fn evaluate(&self, r: &[ElementId], s: &[ElementId], weights: Option<&WeightMap>) -> bool {
        match *self {
            Predicate::Jaccard { gamma } => similarity::jaccard(r, s) + EPS >= gamma,
            Predicate::Hamming { k } => similarity::hamming_distance(r, s) <= k,
            Predicate::Overlap { t } => similarity::intersection_at_least(r, s, t),
            Predicate::MaxFraction { gamma } => {
                let need = gamma * r.len().max(s.len()) as f64;
                similarity::intersection_size(r, s) as f64 + EPS >= need
            }
            Predicate::Dice { gamma } => similarity::dice(r, s) + EPS >= gamma,
            Predicate::Cosine { gamma } => similarity::cosine(r, s) + EPS >= gamma,
            Predicate::WeightedJaccard { gamma } => {
                debug_assert!(weights.is_some(), "weighted predicate needs a WeightMap");
                match weights {
                    Some(w) => similarity::weighted_jaccard(r, s, w) + EPS >= gamma,
                    None => false,
                }
            }
            Predicate::WeightedOverlap { t } => {
                debug_assert!(weights.is_some(), "weighted predicate needs a WeightMap");
                match weights {
                    Some(w) => similarity::weighted_intersection(r, s, w) + EPS >= t,
                    None => false,
                }
            }
        }
    }

    /// The minimum `|r ∩ s|` the predicate requires for sets of sizes
    /// `(lr, ls)` — the `eᵢ` expression of Section 2, maximized over the
    /// conjuncts. Returns `None` for weighted predicates (their requirement
    /// is on weighted intersection, not cardinality).
    ///
    /// **Contract** (pinned by `evaluate_consistency_with_required_overlap`
    /// and relied on by the bitmap filter in [`crate::verify`]): for every
    /// unweighted predicate, `Some(req)` is *exact* —
    /// [`Predicate::evaluate`] holds **iff** `|r ∩ s| ≥ req`. In
    /// particular it is a necessary condition, so any sound upper bound on
    /// the intersection below `req` proves a pair cannot match. When no
    /// overlap count can satisfy the predicate at these sizes (cosine with
    /// exactly one empty side, where the similarity is 0 regardless of
    /// overlap), the result exceeds `min(lr, ls)` so the condition is
    /// unsatisfiable, matching `evaluate`.
    pub fn required_overlap(&self, lr: usize, ls: usize) -> Option<usize> {
        match *self {
            // Js ≥ γ  ⟺  |r∩s| ≥ γ/(1+γ)·(|r|+|s|)   (Section 2.3)
            Predicate::Jaccard { gamma } => {
                Some(ceil_tol(gamma / (1.0 + gamma) * (lr + ls) as f64))
            }
            // Hd ≤ k  ⟺  |r∩s| ≥ (|r|+|s|−k)/2       (Section 2.2)
            Predicate::Hamming { k } => Some(ceil_tol(((lr + ls) as f64 - k as f64) / 2.0)),
            Predicate::Overlap { t } => Some(t),
            Predicate::MaxFraction { gamma } => Some(ceil_tol(gamma * lr.max(ls) as f64)),
            // Dice ≥ γ  ⟺  |r∩s| ≥ γ/2·(|r|+|s|)
            Predicate::Dice { gamma } => Some(ceil_tol(gamma / 2.0 * (lr + ls) as f64)),
            // Cosine ≥ γ  ⟺  |r∩s| ≥ γ·√(|r|·|s|) — except with exactly
            // one empty side, where √(lr·ls) = 0 would claim `Some(0)`
            // ("anything matches") while cosine(r, ∅) = 0 < γ: evaluate
            // rejects. Return an unsatisfiable requirement instead.
            Predicate::Cosine { gamma } => {
                if (lr == 0) != (ls == 0) {
                    return Some(1);
                }
                Some(ceil_tol(gamma * ((lr as f64) * (ls as f64)).sqrt()))
            }
            Predicate::WeightedJaccard { .. } | Predicate::WeightedOverlap { .. } => None,
        }
    }

    /// Size bounds (Section 6, condition 1): the inclusive `[lo, hi]` range
    /// of partner sizes `|s|` that can satisfy the predicate against a set of
    /// size `lr`. `None` when the predicate admits no such bound
    /// (`Overlap`, and the weighted forms whose bound is on weighted size —
    /// see [`Predicate::weighted_size_bounds`]).
    pub fn size_bounds(&self, lr: usize) -> Option<(usize, usize)> {
        match *self {
            // Lemma 1: γ ≤ |r|/|s| ≤ 1/γ.
            Predicate::Jaccard { gamma } | Predicate::MaxFraction { gamma } => {
                if gamma <= 0.0 {
                    return None;
                }
                Some((ceil_tol(gamma * lr as f64), floor_tol(lr as f64 / gamma)))
            }
            Predicate::Hamming { k } => Some((lr.saturating_sub(k), lr + k)),
            // γ/2·(|r|+|s|) ≤ min(|r|,|s|) forces γ/(2−γ) ≤ |r|/|s| ≤ (2−γ)/γ.
            Predicate::Dice { gamma } => {
                if gamma <= 0.0 {
                    return None;
                }
                Some((
                    ceil_tol(gamma / (2.0 - gamma) * lr as f64),
                    floor_tol((2.0 - gamma) / gamma * lr as f64),
                ))
            }
            // γ·√(|r||s|) ≤ min(|r|,|s|) forces γ² ≤ |r|/|s| ≤ 1/γ².
            Predicate::Cosine { gamma } => {
                if gamma <= 0.0 {
                    return None;
                }
                Some((
                    ceil_tol(gamma * gamma * lr as f64),
                    floor_tol(lr as f64 / (gamma * gamma)),
                ))
            }
            Predicate::Overlap { .. }
            | Predicate::WeightedJaccard { .. }
            | Predicate::WeightedOverlap { .. } => None,
        }
    }

    /// The multiplicative form of [`Predicate::size_bounds`]: the ratio `ρ`
    /// with `ρ ≤ |r|/|s| ≤ 1/ρ` for every joining pair — `γ` for
    /// `Jaccard` and `MaxFraction`, `γ/(2−γ)` for `Dice`, `γ²` for
    /// `Cosine`. Figure 6's size intervals are built at this ratio
    /// (`r_i = ⌊l_i/ρ⌋`), so a joining pair always lands in the same or
    /// adjacent intervals. `None` for predicates without such a bound.
    pub fn interval_ratio(&self) -> Option<f64> {
        match *self {
            Predicate::Jaccard { gamma } | Predicate::MaxFraction { gamma } => Some(gamma),
            Predicate::Dice { gamma } => Some(gamma / (2.0 - gamma)),
            Predicate::Cosine { gamma } => Some(gamma * gamma),
            Predicate::Hamming { .. }
            | Predicate::Overlap { .. }
            | Predicate::WeightedJaccard { .. }
            | Predicate::WeightedOverlap { .. } => None,
        }
    }

    /// Weighted analogue of [`Predicate::size_bounds`]: the range of partner
    /// *weighted* sizes for a set of weighted size `wr`.
    pub fn weighted_size_bounds(&self, wr: f64) -> Option<(f64, f64)> {
        match *self {
            Predicate::WeightedJaccard { gamma } if gamma > 0.0 => Some((gamma * wr, wr / gamma)),
            _ => None,
        }
    }

    /// Hamming bound (Section 6, condition 2): the maximum `Hd(r, s)` over
    /// pairs of sizes `(lr, ls)` that satisfy the predicate. `None` when no
    /// finite bound exists.
    pub fn hamming_bound(&self, lr: usize, ls: usize) -> Option<usize> {
        match *self {
            // Hd = |r|+|s|−2|r∩s| ≤ (1−γ)/(1+γ)·(|r|+|s|)   (Section 5)
            Predicate::Jaccard { gamma } => {
                Some(floor_tol((1.0 - gamma) / (1.0 + gamma) * (lr + ls) as f64))
            }
            Predicate::Hamming { k } => Some(k),
            // Section 6 example: Hd ≤ |r|+|s|−2γ·max(|r|,|s|).
            Predicate::MaxFraction { gamma } => {
                let hd = (lr + ls) as f64 - 2.0 * gamma * lr.max(ls) as f64;
                Some(floor_tol(hd.max(0.0)))
            }
            // Hd = |r|+|s|−2|r∩s| ≤ (1−γ)·(|r|+|s|).
            Predicate::Dice { gamma } => Some(floor_tol((1.0 - gamma) * (lr + ls) as f64)),
            // Hd ≤ |r|+|s| − 2γ·√(|r|·|s|).
            Predicate::Cosine { gamma } => {
                let hd = (lr + ls) as f64 - 2.0 * gamma * ((lr as f64) * (ls as f64)).sqrt();
                Some(floor_tol(hd.max(0.0)))
            }
            Predicate::Overlap { .. }
            | Predicate::WeightedJaccard { .. }
            | Predicate::WeightedOverlap { .. } => None,
        }
    }

    /// Whether the predicate satisfies both Section 6 conditions, i.e.
    /// PartEnum's interval construction applies.
    pub fn supports_partenum(&self) -> bool {
        // A representative probe size suffices: boundedness does not depend
        // on the concrete size for these predicate shapes.
        self.size_bounds(16).is_some() && self.hamming_bound(16, 16).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ceil_floor_tolerate_fp_noise() {
        assert_eq!(ceil_tol(18.0 + 1e-12), 18);
        assert_eq!(ceil_tol(17.2), 18);
        assert_eq!(floor_tol(18.0 - 1e-12), 18);
        assert_eq!(floor_tol(18.7), 18);
        assert_eq!(ceil_tol(-0.5), 0);
    }

    #[test]
    fn jaccard_required_overlap_matches_paper_formula() {
        // γ=0.8, |r|=|s|=20 → |r∩s| ≥ 0.8/1.8·40 = 17.78 → 18 (Section 3.3
        // example: "jaccard ≥ 0.8 implies |r∩s| ≥ 18" for size-20 sets).
        let p = Predicate::Jaccard { gamma: 0.8 };
        assert_eq!(p.required_overlap(20, 20), Some(18));
    }

    #[test]
    fn hamming_required_overlap() {
        // Hd ≤ k ⟺ |r∩s| ≥ (|r|+|s|−k)/2.
        let p = Predicate::Hamming { k: 4 };
        assert_eq!(p.required_overlap(8, 8), Some(6));
        assert_eq!(p.required_overlap(8, 7), Some(6)); // ceil(11/2)
    }

    #[test]
    fn maxfraction_section6_example() {
        // "Given a set r with size 100, only sets s with sizes between 90 and
        // 111 can possibly join with r, and Hd(r,s) ≤ 20." (γ = 0.9)
        let p = Predicate::MaxFraction { gamma: 0.9 };
        assert_eq!(p.size_bounds(100), Some((90, 111)));
        // The paper's Hd ≤ 20 figure is the worst case over partner sizes.
        let worst = (90..=111).filter_map(|ls| p.hamming_bound(100, ls)).max();
        assert_eq!(worst, Some(20));
    }

    #[test]
    fn jaccard_size_bounds_lemma1() {
        let p = Predicate::Jaccard { gamma: 0.9 };
        // Lemma 1: γ ≤ |r|/|s| ≤ 1/γ.
        assert_eq!(p.size_bounds(9), Some((9, 10)));
        assert_eq!(p.size_bounds(100), Some((90, 111)));
    }

    #[test]
    fn hamming_size_bounds_are_symmetric_band() {
        let p = Predicate::Hamming { k: 3 };
        assert_eq!(p.size_bounds(10), Some((7, 13)));
        assert_eq!(p.size_bounds(2), Some((0, 5)));
    }

    #[test]
    fn overlap_has_no_bounds() {
        let p = Predicate::Overlap { t: 20 };
        assert_eq!(p.size_bounds(100), None);
        assert_eq!(p.hamming_bound(100, 100), None);
        assert!(!p.supports_partenum());
    }

    #[test]
    fn partenum_applicability() {
        assert!(Predicate::Jaccard { gamma: 0.8 }.supports_partenum());
        assert!(Predicate::Hamming { k: 2 }.supports_partenum());
        assert!(Predicate::MaxFraction { gamma: 0.9 }.supports_partenum());
        assert!(!Predicate::WeightedOverlap { t: 17.0 }.supports_partenum());
    }

    #[test]
    fn dice_bounds_and_evaluate() {
        let p = Predicate::Dice { gamma: 0.8 };
        // dice({0..4},{0..5}) = 2·4/9 = 0.888 ≥ 0.8.
        let r: Vec<u32> = (0..4).collect();
        let s: Vec<u32> = (0..5).collect();
        assert!(p.evaluate(&r, &s, None));
        // Size bounds: ratio (2−γ)/γ = 1.5 → for |r|=10, partners in [7, 15].
        assert_eq!(p.size_bounds(10), Some((7, 15)));
        // required overlap for (10, 10): ceil(0.8/2·20) = 8.
        assert_eq!(p.required_overlap(10, 10), Some(8));
        assert!(p.supports_partenum());
        // Hamming bound: (1−γ)(lr+ls).
        assert_eq!(p.hamming_bound(10, 10), Some(4));
    }

    #[test]
    fn cosine_bounds_and_evaluate() {
        let p = Predicate::Cosine { gamma: 0.9 };
        let r: Vec<u32> = (0..10).collect();
        assert!(p.evaluate(&r, &r, None));
        // ratio 1/γ² ≈ 1.23 → for |r|=100, partners in [81, 123].
        assert_eq!(p.size_bounds(100), Some((81, 123)));
        // required overlap at (100, 100): ceil(0.9·100) = 90.
        assert_eq!(p.required_overlap(100, 100), Some(90));
        assert!(p.supports_partenum());
        // Hamming bound at (100,100): 200 − 2·0.9·100 = 20.
        assert_eq!(p.hamming_bound(100, 100), Some(20));
    }

    /// Builds `(r, s)` with `|r| = lr`, `|s| = ls`, `|r ∩ s| = o` exactly.
    fn pair_with_overlap(lr: usize, ls: usize, o: usize) -> (Vec<u32>, Vec<u32>) {
        let r: Vec<u32> = (0..lr as u32).collect();
        let s: Vec<u32> = (0..o as u32)
            .chain(10_000..10_000 + (ls - o) as u32)
            .collect();
        (r, s)
    }

    /// The contract pinned in the `required_overlap` docs: for every
    /// unweighted predicate, `evaluate` holds **iff** the exact
    /// intersection reaches `required_overlap(lr, ls)` — swept over every
    /// feasible overlap at boundary sizes (including empty and singleton
    /// sides, and the γ·size-lands-near-an-integer cases that expose raw
    /// `ceil`/`floor` float noise).
    #[test]
    fn evaluate_consistency_with_required_overlap() {
        let preds = [
            Predicate::Jaccard { gamma: 0.5 },
            Predicate::Jaccard { gamma: 0.7 },
            Predicate::Jaccard { gamma: 0.8 },
            Predicate::Jaccard { gamma: 1.0 },
            Predicate::Hamming { k: 0 },
            Predicate::Hamming { k: 1 },
            Predicate::Hamming { k: 4 },
            Predicate::Dice { gamma: 0.6 },
            Predicate::Dice { gamma: 0.8 },
            Predicate::Cosine { gamma: 0.5 },
            Predicate::Cosine { gamma: 0.7 },
            Predicate::Cosine { gamma: 0.9 },
            Predicate::MaxFraction { gamma: 0.07 },
            Predicate::MaxFraction { gamma: 0.5 },
            Predicate::MaxFraction { gamma: 0.9 },
            Predicate::Overlap { t: 0 },
            Predicate::Overlap { t: 1 },
            Predicate::Overlap { t: 3 },
        ];
        let sizes = [0usize, 1, 2, 3, 4, 5, 8, 9, 10, 19, 20, 21, 100];
        for pred in preds {
            for lr in sizes {
                for ls in sizes {
                    let req = pred
                        .required_overlap(lr, ls)
                        .unwrap_or_else(|| panic!("{pred:?} is unweighted"));
                    for o in 0..=lr.min(ls) {
                        let (r, s) = pair_with_overlap(lr, ls, o);
                        assert_eq!(
                            pred.evaluate(&r, &s, None),
                            o >= req,
                            "pred={pred:?} lr={lr} ls={ls} overlap={o} required={req}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn cosine_required_overlap_rejects_one_empty_side() {
        // cosine(∅, s) = 0 < γ for nonempty s: evaluate rejects, so
        // required_overlap must be unsatisfiable — not the old Some(0)
        // that told bound-based consumers "anything matches".
        let p = Predicate::Cosine { gamma: 0.9 };
        assert!(!p.evaluate(&[], &[1, 2, 3], None));
        assert!(p.required_overlap(0, 3).is_some_and(|req| req > 0));
        assert!(p.required_overlap(3, 0).is_some_and(|req| req > 0));
        // Both empty: cosine(∅, ∅) = 1 ≥ γ, overlap 0 suffices.
        assert!(p.evaluate(&[], &[], None));
        assert_eq!(p.required_overlap(0, 0), Some(0));
    }

    #[test]
    fn boundary_pair_is_accepted() {
        // Exactly at threshold: Js = 0.8 with γ = 0.8 must be accepted.
        let r: Vec<u32> = (0..4).collect(); // {0,1,2,3}
        let s: Vec<u32> = (0..5).collect(); // {0,1,2,3,4} → Js = 4/5 = 0.8
        assert!(Predicate::Jaccard { gamma: 0.8 }.evaluate(&r, &s, None));
    }

    #[test]
    fn weighted_predicates_need_weights() {
        let w = WeightMap::new(1.0);
        let p = Predicate::WeightedOverlap { t: 2.0 };
        assert!(p.evaluate(&[1, 2, 3], &[2, 3, 4], Some(&w)));
        assert!(!p.evaluate(&[1, 2, 3], &[3, 4, 5], Some(&w)));
        assert!(p.is_weighted());
        let wj = Predicate::WeightedJaccard { gamma: 0.5 };
        let (lo, hi) = wj.weighted_size_bounds(10.0).unwrap();
        assert!((lo - 5.0).abs() < 1e-12 && (hi - 20.0).abs() < 1e-12);
    }

    // The missing-WeightMap guard is a debug_assert!, which compiles out
    // of release builds — so the panic expectation only holds in debug.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "WeightMap")]
    fn weighted_without_map_panics() {
        Predicate::WeightedJaccard { gamma: 0.5 }.evaluate(&[1], &[1], None);
    }
}
