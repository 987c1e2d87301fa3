//! PartEnum for the general predicate class of Section 6.
//!
//! Section 6's recipe: a predicate is PartEnum-evaluable if (1) every set
//! size admits lower/upper bounds on joinable partner sizes, and (2) every
//! joining pair of given sizes admits a hamming-distance bound. Condition 1
//! drives the same interval decomposition as jaccard (Section 5); condition
//! 2 supplies each interval's hamming threshold.
//!
//! Two structural cases arise:
//!
//! * predicates with a *global* hamming bound (`Hamming {k}`) need no size
//!   decomposition at all — one PartEnum instance covers every size;
//! * predicates with a *multiplicative* size bound (`Jaccard`,
//!   `MaxFraction`, `Dice`, `Cosine`: partner size ≤ `ℓ/ρ`) get the
//!   Figure 6 interval construction of [`super::intervals`], built at the
//!   exact ratio [`Predicate::interval_ratio`], with each instance's
//!   threshold taken from the worst hamming bound over the pair sizes it
//!   can see.

use super::hamming::PartEnumHamming;
use super::intervals::IntervalInstances;
use super::params::PartEnumParams;
use crate::error::{Result, SsjError};
use crate::predicate::Predicate;
use crate::set::ElementId;
use crate::signature::{SigScratch, Signature, SignatureScheme};

#[derive(Debug, Clone)]
enum Structure {
    /// One instance covers all sizes (global hamming bound).
    Single(PartEnumHamming),
    /// Size-interval decomposition (multiplicative size bound).
    Intervals(IntervalInstances),
}

/// PartEnum generalized to any [`Predicate`] satisfying Section 6's two
/// conditions: `Jaccard`, `Hamming`, `MaxFraction`, `Dice` and `Cosine`.
///
/// `Hamming` runs one instance over every size. The others run Figure 6's
/// interval construction at the predicate's exact interval ratio
/// ([`Predicate::interval_ratio`]: `γ`, `γ/(2−γ)` or `γ²`), so for
/// `Jaccard` it builds the same intervals and per-interval thresholds as
/// [`super::PartEnumJaccard`]. Construction still *verifies* the routing
/// invariant rather than assuming it: for every size `ℓ` up to
/// `max_set_size`, the largest joinable partner size must fall within the
/// next interval, so that the Figure 6 "emit instances i and i+1" routing is
/// exhaustive. Predicates violating the conditions (e.g. plain `Overlap`,
/// which has no size bound at all) are rejected with
/// [`SsjError::UnsupportedPredicate`].
///
/// ```
/// use ssj_core::partenum::GeneralPartEnum;
/// use ssj_core::predicate::Predicate;
///
/// // Section 6's example predicate is supported...
/// assert!(GeneralPartEnum::new(Predicate::MaxFraction { gamma: 0.9 }, 100, 0).is_ok());
/// // ...plain intersection thresholds are not (no size/hamming bounds).
/// assert!(GeneralPartEnum::new(Predicate::Overlap { t: 20 }, 100, 0).is_err());
/// ```
#[derive(Debug, Clone)]
pub struct GeneralPartEnum {
    pred: Predicate,
    structure: Structure,
}

impl GeneralPartEnum {
    /// Builds the scheme, or rejects the predicate.
    pub fn new(pred: Predicate, max_set_size: usize, seed: u64) -> Result<Self> {
        Self::with_params(pred, max_set_size, seed, PartEnumParams::default_for)
    }

    /// Builds with a custom `k → (n1, n2)` parameter choice.
    pub fn with_params(
        pred: Predicate,
        max_set_size: usize,
        seed: u64,
        params: impl Fn(usize) -> PartEnumParams,
    ) -> Result<Self> {
        if !pred.supports_partenum() {
            return Err(SsjError::UnsupportedPredicate(format!(
                "{pred:?} lacks size or hamming bounds (Section 6 conditions)"
            )));
        }
        if let Predicate::Hamming { k } = pred {
            return Ok(Self {
                pred,
                structure: Structure::Single(PartEnumHamming::new(k, params(k), seed)?),
            });
        }
        let core = IntervalInstances::build(pred, max_set_size, params, |i| {
            (seed.wrapping_add(i).wrapping_mul(0x85eb_ca6b), i)
        })?;

        // Verify the i/i+1 routing is exhaustive for this predicate: the
        // largest partner size of every covered size lands in the next
        // interval at the latest.
        let intervals = core.intervals();
        for len in 1..=max_set_size {
            let hi = pred
                .size_bounds(len)
                .map_or(len, |(_, hi)| hi.clamp(len, max_set_size));
            let i = intervals.interval_of(len)?;
            let j = intervals.interval_of(hi)?;
            if j > i + 1 {
                return Err(SsjError::UnsupportedPredicate(format!(
                    "partner size {hi} for size {len} escapes interval {i}+1 (lands in {j})"
                )));
            }
        }
        Ok(Self {
            pred,
            structure: Structure::Intervals(core),
        })
    }

    /// The predicate this scheme evaluates.
    pub fn predicate(&self) -> Predicate {
        self.pred
    }
}

impl SignatureScheme for GeneralPartEnum {
    fn signatures_into(&self, set: &[ElementId], out: &mut Vec<Signature>) {
        self.signatures_scratch(set, &mut SigScratch::default(), out);
    }

    fn signatures_scratch(
        &self,
        set: &[ElementId],
        scratch: &mut SigScratch,
        out: &mut Vec<Signature>,
    ) {
        match &self.structure {
            Structure::Single(instance) => instance.signatures_scratch(set, scratch, out),
            Structure::Intervals(core) => core.sign_by_size(set.len(), out, |pe, out| {
                pe.signatures_scratch(set, scratch, out);
            }),
        }
    }

    fn max_signable_len(&self) -> Option<usize> {
        match &self.structure {
            // The single-instance hamming structure signs any size.
            Structure::Single(_) => None,
            Structure::Intervals(core) => Some(core.intervals().max_size()),
        }
    }

    fn name(&self) -> &'static str {
        "PEN-GEN"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::floor_tol;
    use rand::prelude::*;

    fn share_sig(scheme: &GeneralPartEnum, a: &[u32], b: &[u32]) -> bool {
        let sa = scheme.signatures(a);
        let sb = scheme.signatures(b);
        sa.iter().any(|s| sb.contains(s))
    }

    #[test]
    fn rejects_unbounded_predicates() {
        let err = GeneralPartEnum::new(Predicate::Overlap { t: 20 }, 100, 0);
        assert!(matches!(err, Err(SsjError::UnsupportedPredicate(_))));
        let err = GeneralPartEnum::new(Predicate::WeightedOverlap { t: 2.0 }, 100, 0);
        assert!(err.is_err());
    }

    #[test]
    fn maxfraction_correctness_randomized() {
        // Section 6's example predicate: |r∩s| ≥ γ·max(|r|,|s|).
        let gamma = 0.9;
        let pred = Predicate::MaxFraction { gamma };
        let scheme = GeneralPartEnum::new(pred, 150, 3).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        for trial in 0..100 {
            let m = rng.gen_range(30..100usize);
            let shared: Vec<u32> = (0..m as u32).collect();
            // extras on one side, keeping |r∩s| = m ≥ γ·max. Tolerant
            // floor: raw `.floor() as usize` under-counts when the exact
            // value sits a ulp below an integer, so the test would never
            // construct the maximal legal pair.
            let max_extra = floor_tol((m as f64 / gamma) - m as f64);
            let ea = rng.gen_range(0..=max_extra);
            let mut a = shared.clone();
            a.extend((0..ea as u32).map(|x| 10_000 + x));
            let b = shared.clone();
            a.sort_unstable();
            assert!(
                pred.evaluate(&a, &b, None),
                "trial {trial} construction broke"
            );
            assert!(share_sig(&scheme, &a, &b), "trial {trial}: missed pair");
        }
    }

    #[test]
    fn jaccard_via_general_matches_dedicated_behavior() {
        let pred = Predicate::Jaccard { gamma: 0.85 };
        let scheme = GeneralPartEnum::new(pred, 80, 5).unwrap();
        let a: Vec<u32> = (0..40).collect();
        let mut b: Vec<u32> = (0..38).collect();
        b.extend([500, 501]); // Js = 38/42 ≈ 0.905 ≥ 0.85
        assert!(pred.evaluate(&a, &b, None));
        assert!(share_sig(&scheme, &a, &b));
    }

    #[test]
    fn hamming_uses_single_instance_and_handles_empty_sets() {
        let pred = Predicate::Hamming { k: 3 };
        let scheme = GeneralPartEnum::new(pred, 60, 8).unwrap();
        let a: Vec<u32> = (0..30).collect();
        let mut b = a.clone();
        b.retain(|&x| x != 7); // Hd = 1
        assert!(share_sig(&scheme, &a, &b));
        // Hd(∅, {1,2}) = 2 ≤ 3: the pair must share a signature — this is
        // why the hamming predicate cannot use the interval sentinel.
        assert!(share_sig(&scheme, &[], &[1, 2]));
        assert!(share_sig(&scheme, &[], &[]));
    }

    #[test]
    fn dissimilar_pairs_usually_filtered() {
        let pred = Predicate::MaxFraction { gamma: 0.9 };
        let scheme = GeneralPartEnum::new(pred, 100, 4).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let mut hits = 0;
        for _ in 0..200 {
            let mut a: Vec<u32> = (0..60).map(|_| rng.gen_range(0..100_000)).collect();
            a.sort_unstable();
            a.dedup();
            let mut b: Vec<u32> = (0..60).map(|_| rng.gen_range(0..100_000)).collect();
            b.sort_unstable();
            b.dedup();
            if share_sig(&scheme, &a, &b) {
                hits += 1;
            }
        }
        assert!(hits < 20, "poor filtering: {hits}/200 far pairs collided");
    }

    #[test]
    fn empty_sets_share_sentinel_under_jaccard() {
        let scheme = GeneralPartEnum::new(Predicate::Jaccard { gamma: 0.8 }, 20, 0).unwrap();
        assert!(share_sig(&scheme, &[], &[]));
        assert!(!share_sig(&scheme, &[], &[1, 2]));
    }
}
