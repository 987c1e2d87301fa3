//! Data-driven choice of PartEnum's `(n1, n2)` parameters.
//!
//! Section 8 / Table 1: no single parameter setting is good for all SSJoin
//! instances — the optimal number of signatures per set *grows* with input
//! size (that is what makes PartEnum scale near-linearly instead of
//! quadratically). The paper proposes picking parameters by estimating the
//! intermediate-result size (the F2-style expression of Section 3.2) for
//! each setting; this module implements that estimator on a sample of the
//! input.

use super::hamming::PartEnumHamming;
use super::intervals::SizeIntervals;
use super::params::PartEnumParams;
use crate::cast::usize_of_f64;
use crate::hash::FxHashMap;
use crate::set::{ElementId, SetCollection};
use crate::signature::SignatureScheme;

/// Estimated cost of running a signature scheme over a full input of
/// `scale ×` the sample, using the Section 3.2 expression:
/// `Σ|Sign(r)| + Σ|Sign(s)| + Σ|Sign(r) ∩ Sign(s)|`.
///
/// Signature counts scale linearly with input size; signature *collisions*
/// scale quadratically (each bucket of colliding signatures grows linearly,
/// and pairs within it quadratically) — exactly the effect Table 1
/// compensates for.
pub fn estimate_cost(scheme: &impl SignatureScheme, sample: &[&[ElementId]], scale: f64) -> f64 {
    let mut buckets: FxHashMap<u64, u64> = FxHashMap::default();
    let mut total_sigs = 0u64;
    let mut buf = Vec::new();
    for set in sample {
        buf.clear();
        scheme.signatures_into(set, &mut buf);
        total_sigs += buf.len() as u64;
        for &sig in &buf {
            *buckets.entry(sig).or_insert(0) += 1;
        }
    }
    let collisions: f64 = buckets
        .values()
        .map(|&c| {
            let c = c as f64;
            c * (c - 1.0) / 2.0
        })
        .sum();
    2.0 * total_sigs as f64 * scale + collisions * scale * scale
}

/// Picks the `(n1, n2)` minimizing estimated cost for a *hamming* SSJoin
/// with threshold `k` over an input of `total_inputs` sets, using `sample`
/// as a representative subset. `max_sigs` caps signatures per set.
pub fn optimize_hamming(
    k: usize,
    sample: &[&[ElementId]],
    total_inputs: usize,
    max_sigs: usize,
    seed: u64,
) -> PartEnumParams {
    let scale = if sample.is_empty() {
        1.0
    } else {
        total_inputs as f64 / sample.len() as f64
    };
    let mut best = PartEnumParams::default_for(k);
    let mut best_cost = f64::INFINITY;
    for params in PartEnumParams::candidates(k, max_sigs) {
        let Ok(scheme) = PartEnumHamming::new(k, params, seed) else {
            continue;
        };
        let cost = estimate_cost(&scheme, sample, scale);
        if cost < best_cost {
            best_cost = cost;
            best = params;
        }
    }
    best
}

/// Per-instance parameter optimization for a *jaccard* SSJoin: samples the
/// collection, routes sample sets to their size intervals, optimizes each
/// instance's hamming parameters on the sets it will actually see, and
/// returns a `k → (n1, n2)` function usable with
/// [`super::jaccard::PartEnumJaccard::with_params`].
pub fn optimize_jaccard(
    gamma: f64,
    collection: &SetCollection,
    max_sigs: usize,
    sample_cap: usize,
    seed: u64,
) -> impl Fn(usize) -> PartEnumParams {
    let max_len = collection.max_set_len();
    let intervals = SizeIntervals::new(gamma, max_len.max(1) + 1);
    // Evenly spaced sample.
    let n = collection.len();
    let step = (n / sample_cap.max(1)).max(1);
    // Route each sampled set to the instances that will process it
    // (interval i and i+1, mirroring Figure 6).
    let mut routed: FxHashMap<usize, Vec<&[ElementId]>> = FxHashMap::default();
    for id in (0..n).step_by(step) {
        let set = collection.set(crate::cast::set_id(id));
        if set.is_empty() {
            continue;
        }
        // Intervals were sized from this collection's max length, so every
        // sampled set is covered; skip defensively rather than panic.
        let Ok(i) = intervals.interval_of(set.len()) else {
            continue;
        };
        routed.entry(i).or_default().push(set);
        routed.entry(i + 1).or_default().push(set);
    }
    let scale_base = step as f64;
    let mut by_k: FxHashMap<usize, PartEnumParams> = FxHashMap::default();
    for i in 1..=intervals.count() {
        let k = intervals.hamming_threshold(i);
        let Some(sets) = routed.get(&i) else { continue };
        // Instances sharing a hamming threshold see similarly sized sets;
        // first (smallest) instance wins, which is also the most populated
        // in typical skewed size distributions.
        by_k.entry(k).or_insert_with(|| {
            optimize_hamming(
                k,
                sets,
                usize_of_f64(sets.len() as f64 * scale_base),
                max_sigs,
                seed,
            )
        });
    }
    move |k: usize| {
        by_k.get(&k)
            .copied()
            .unwrap_or_else(|| PartEnumParams::default_for(k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;

    fn uniform_sets(n: usize, len: usize, domain: u32, seed: u64) -> Vec<Vec<u32>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let mut s: Vec<u32> = (0..len * 2).map(|_| rng.gen_range(0..domain)).collect();
                s.sort_unstable();
                s.dedup();
                s.truncate(len);
                s
            })
            .collect()
    }

    #[test]
    fn estimate_cost_counts_sigs_and_collisions() {
        struct Const;
        impl SignatureScheme for Const {
            fn signatures_into(&self, _set: &[u32], out: &mut Vec<u64>) {
                out.push(42);
            }
        }
        let sets = [vec![1u32], vec![2], vec![3]];
        let refs: Vec<&[u32]> = sets.iter().map(|s| s.as_slice()).collect();
        // 3 signatures, all colliding: C(3,2)=3 pairs.
        let cost = estimate_cost(&Const, &refs, 1.0);
        assert!((cost - (2.0 * 3.0 + 3.0)).abs() < 1e-9);
        // Scale 2: sigs double, collisions quadruple.
        let cost2 = estimate_cost(&Const, &refs, 2.0);
        assert!((cost2 - (2.0 * 6.0 + 12.0)).abs() < 1e-9);
    }

    #[test]
    fn optimizer_returns_valid_params() {
        let sets = uniform_sets(300, 20, 5_000, 1);
        let refs: Vec<&[u32]> = sets.iter().map(|s| s.as_slice()).collect();
        for k in [2, 5, 9] {
            let p = optimize_hamming(k, &refs, 300, 128, 7);
            p.validate(k).unwrap();
        }
    }

    #[test]
    fn bigger_inputs_prefer_more_signatures() {
        // The Table 1 trend: as the (projected) input grows, the optimizer
        // shifts toward settings with more signatures per set (better
        // filtering) because collisions scale quadratically.
        let sets = uniform_sets(400, 50, 10_000, 2);
        let refs: Vec<&[u32]> = sets.iter().map(|s| s.as_slice()).collect();
        let k = 11;
        let small = optimize_hamming(k, &refs, 1_000, 512, 3);
        let large = optimize_hamming(k, &refs, 1_000_000, 512, 3);
        let small_sigs = small.signatures_per_vector(k).expect("finite cost");
        let large_sigs = large.signatures_per_vector(k).expect("finite cost");
        assert!(
            large_sigs >= small_sigs,
            "small→{small:?} ({small_sigs} sigs), large→{large:?} ({large_sigs} sigs)"
        );
    }

    #[test]
    fn jaccard_optimizer_produces_usable_fn() {
        use crate::partenum::jaccard::PartEnumJaccard;
        let sets = uniform_sets(200, 25, 2_000, 4);
        let collection: SetCollection = sets.into_iter().collect();
        let f = optimize_jaccard(0.85, &collection, 256, 100, 5);
        // Must be valid for every instance threshold the scheme will build.
        let scheme = PartEnumJaccard::with_params(0.85, collection.max_set_len(), 5, &f);
        assert!(scheme.is_ok());
    }
}
