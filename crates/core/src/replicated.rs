//! Weight replication: PartEnum on weighted sets via the Section 7
//! reduction.
//!
//! "We can use PartEnum for the weighted case by converting a weighted
//! SSJoin instance to an unweighted one: We convert a weighted set into an
//! unweighted bag by making w(e) copies of each element e, using standard
//! rounding techniques if weights are nonintegral." (Section 7)
//!
//! The paper then argues this is *unsatisfactory*: scaling all weights by α
//! multiplies the effective hamming threshold by α and the signature count
//! by α^2.39 — which is exactly why WtEnum exists. This module implements
//! the reduction anyway: it is the paper's stated baseline for the weighted
//! case, and the ablation benchmarks quantify the α^2.39 blow-up
//! against WtEnum empirically.
//!
//! **Semantics.** Weights are quantized to multiples of `quantum`; the
//! scheme is *exact for the quantized weight map* (see
//! [`ReplicatedPartEnumJaccard::quantized_weight_map`]). With integral weights
//! and `quantum = 1` the reduction is lossless; otherwise verification must
//! use the quantized map, or treat the scheme as an approximation of the
//! original weights (standard rounding, as the paper puts it).

use crate::cast::{usize_of_f64, usize_of_u64};
use crate::hash::mix64;
use crate::partenum::intervals::IntervalInstances;
use crate::partenum::PartEnumParams;
use crate::predicate::Predicate;
use crate::set::{ElementId, WeightMap};
use crate::signature::{SigScratch, Signature, SignatureScheme};
use std::sync::Arc;

/// PartEnum for weighted jaccard via element replication: the Figure 6
/// construction ([`crate::partenum::intervals`]) over *replicated* sizes.
#[derive(Debug, Clone)]
pub struct ReplicatedPartEnumJaccard {
    quantum: f64,
    weights: Arc<WeightMap>,
    core: IntervalInstances,
}

impl ReplicatedPartEnumJaccard {
    /// Builds the scheme covering sets whose *replicated* size (total
    /// weight / quantum, roughly) is at most `max_replicated_size`.
    pub fn new(
        gamma: f64,
        max_replicated_size: usize,
        quantum: f64,
        weights: Arc<WeightMap>,
        seed: u64,
    ) -> crate::error::Result<Self> {
        if quantum <= 0.0 {
            return Err(crate::error::SsjError::InvalidParams(
                "quantum must be positive".into(),
            ));
        }
        let core = IntervalInstances::build(
            Predicate::Jaccard { gamma },
            max_replicated_size,
            PartEnumParams::default_for,
            // Tag space separated from the unweighted jaccard scheme.
            |i| {
                (
                    seed.wrapping_add(i).wrapping_mul(0xc2b2_ae35),
                    i | (1 << 40),
                )
            },
        )?;
        Ok(Self {
            quantum,
            weights,
            core,
        })
    }

    /// Copies for one element under the quantization.
    #[inline]
    fn copies(&self, e: ElementId) -> u64 {
        let w = self.weights.weight(e);
        if w <= 0.0 {
            0
        } else {
            usize_of_f64((w / self.quantum).round().max(1.0)) as u64
        }
    }

    /// The quantized weight of one element (what verification should use).
    pub fn quantize_weight(&self, e: ElementId) -> f64 {
        self.copies(e) as f64 * self.quantum
    }

    /// Builds a full quantized [`WeightMap`] for the given element universe.
    pub fn quantized_weight_map<I: IntoIterator<Item = ElementId>>(&self, elems: I) -> WeightMap {
        let mut out = WeightMap::new(0.0);
        for e in elems {
            out.set(e, self.quantize_weight(e));
        }
        out
    }

    /// The replicated (bag) size of a set: Σ copies(e).
    pub fn replicated_size(&self, set: &[ElementId]) -> u64 {
        set.iter().map(|&e| self.copies(e)).sum()
    }

    /// A replicated size clamped into the covered range: a bag larger than
    /// construction planned for is signed by the last interval's instance.
    fn clamped(&self, size: usize) -> usize {
        size.min(self.core.intervals().max_size())
    }

    /// Total signatures this scheme emits for `set` (for the ablation's
    /// α^2.39 measurements).
    pub fn signatures_per_set(&self, set: &[ElementId]) -> usize {
        let size = usize_of_u64(self.replicated_size(set));
        self.core.signatures_per_set(self.clamped(size))
    }
}

impl SignatureScheme for ReplicatedPartEnumJaccard {
    fn signatures_into(&self, set: &[ElementId], out: &mut Vec<Signature>) {
        self.signatures_scratch(set, &mut SigScratch::default(), out);
    }

    fn signatures_scratch(
        &self,
        set: &[ElementId],
        scratch: &mut SigScratch,
        out: &mut Vec<Signature>,
    ) {
        // Replicate: element e becomes items (e, 0), ..., (e, copies−1),
        // hashed into the u64 item space.
        let items = &mut scratch.items;
        items.clear();
        for &e in set {
            for c in 0..self.copies(e) {
                items.push(mix64(((e as u64) << 24) ^ c ^ 0x5e11_1ca7_ed00));
            }
        }
        items.sort_unstable();
        items.dedup();
        // Zero total weight signs as the empty set: it joins only other
        // zero-weight sets.
        let assignments = &mut scratch.assignments;
        self.core
            .sign_by_size(self.clamped(items.len()), out, |pe, out| {
                pe.signatures_for_items_scratch(items, assignments, out);
            });
    }

    fn name(&self) -> &'static str {
        "PEN-REP"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::join::{self_join, JoinOptions};
    use crate::predicate::Predicate;
    use crate::set::SetCollection;
    use rand::prelude::*;

    fn integral_weights(max_elem: u32, max_w: u32, seed: u64) -> Arc<WeightMap> {
        let mut rng = StdRng::seed_from_u64(seed);
        Arc::new(WeightMap::from_pairs(
            (0..max_elem).map(|e| (e, rng.gen_range(1..=max_w) as f64)),
            1.0,
        ))
    }

    fn naive_weighted(c: &SetCollection, gamma: f64, w: &WeightMap) -> Vec<(u32, u32)> {
        let pred = Predicate::WeightedJaccard { gamma };
        let mut out = Vec::new();
        for a in 0..c.len() as u32 {
            for b in a + 1..c.len() as u32 {
                if pred.evaluate(c.set(a), c.set(b), Some(w)) {
                    out.push((a, b));
                }
            }
        }
        out
    }

    #[test]
    fn exact_for_integral_weights() {
        let mut rng = StdRng::seed_from_u64(1);
        let weights = integral_weights(80, 4, 2);
        let mut sets: Vec<Vec<u32>> = (0..120)
            .map(|_| {
                let len = rng.gen_range(3..12);
                (0..len).map(|_| rng.gen_range(0..80u32)).collect()
            })
            .collect();
        for i in 0..30 {
            let mut dup = sets[i].clone();
            dup.push(70 + (i % 10) as u32);
            sets.push(dup);
        }
        let c: SetCollection = sets.into_iter().collect();
        let max_rep: u64 = (0..c.len() as u32)
            .map(|id| c.set(id).iter().map(|&e| weights.weight(e) as u64).sum())
            .max()
            .unwrap_or(1);
        for gamma in [0.6, 0.8] {
            let scheme = ReplicatedPartEnumJaccard::new(
                gamma,
                max_rep as usize,
                1.0,
                Arc::clone(&weights),
                3,
            )
            .unwrap();
            let pred = Predicate::WeightedJaccard { gamma };
            let mut got =
                self_join(&scheme, &c, pred, Some(&weights), JoinOptions::default()).pairs;
            got.sort_unstable();
            let mut expected = naive_weighted(&c, gamma, &weights);
            expected.sort_unstable();
            assert_eq!(got, expected, "gamma={gamma}");
        }
    }

    #[test]
    fn quantized_weight_roundtrip() {
        let weights = Arc::new(WeightMap::from_pairs([(1u32, 2.6), (2, 0.2)], 1.0));
        let scheme =
            ReplicatedPartEnumJaccard::new(0.8, 100, 1.0, Arc::clone(&weights), 0).unwrap();
        // 2.6 → 3 copies → quantized 3.0; 0.2 → 1 copy (positive weights
        // keep at least one replica) → 1.0.
        assert_eq!(scheme.quantize_weight(1), 3.0);
        assert_eq!(scheme.quantize_weight(2), 1.0);
        let qm = scheme.quantized_weight_map([1, 2]);
        assert_eq!(qm.weight(1), 3.0);
        assert_eq!(scheme.replicated_size(&[1, 2]), 4);
    }

    #[test]
    fn signature_count_grows_with_weight_scale() {
        // The paper's α^2.39 argument: scaling weights by α (with quantum
        // fixed) multiplies the replicated threshold and the signature count.
        let set: Vec<u32> = (0..10).collect();
        let count_at = |alpha: f64| {
            let weights = Arc::new(WeightMap::from_pairs((0..10u32).map(|e| (e, alpha)), alpha));
            let scheme =
                ReplicatedPartEnumJaccard::new(0.8, (alpha as usize) * 10 + 10, 1.0, weights, 1)
                    .unwrap();
            scheme.signatures(&set).len()
        };
        let small = count_at(1.0);
        let large = count_at(16.0);
        assert!(
            large > 4 * small,
            "replication should blow up signatures: {small} → {large}"
        );
    }

    #[test]
    fn zero_weight_sets_pair_only_with_each_other() {
        let weights = Arc::new(WeightMap::new(0.0));
        let scheme = ReplicatedPartEnumJaccard::new(0.8, 50, 1.0, Arc::clone(&weights), 4).unwrap();
        let a = scheme.signatures(&[1, 2]);
        let b = scheme.signatures(&[3]);
        assert_eq!(a, b, "all zero-weight sets share the sentinel");
    }

    #[test]
    fn rejects_bad_params() {
        let w = Arc::new(WeightMap::new(1.0));
        assert!(ReplicatedPartEnumJaccard::new(0.0, 10, 1.0, Arc::clone(&w), 0).is_err());
        assert!(ReplicatedPartEnumJaccard::new(0.8, 10, 0.0, w, 0).is_err());
    }
}
