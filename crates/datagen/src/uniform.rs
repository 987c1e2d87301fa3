//! The paper's synthetic set workload (Section 8.1, "Experiments on
//! synthetic data sets"): equi-sized sets with elements drawn uniformly from
//! a fixed domain, "plus a few additional sets highly similar to existing
//! ones to generate valid output" — the same generation scheme as Cohen et
//! al. \[8\].

use rand::prelude::*;
use ssj_core::hash::FxHashSet;
use ssj_core::set::{ElementId, SetCollection};

/// Configuration for the uniform synthetic generator.
#[derive(Debug, Clone, Copy)]
pub struct UniformConfig {
    /// Number of base sets.
    pub base_sets: usize,
    /// Elements per set (the paper uses 50).
    pub set_size: usize,
    /// Domain size (the paper uses 10,000).
    pub domain: u32,
    /// Similar sets planted per 1.0 of base (e.g. 0.02 → 2% extra).
    pub similar_fraction: f64,
    /// Jaccard similarity of each planted set to its source (e.g. 0.9).
    pub planted_similarity: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for UniformConfig {
    fn default() -> Self {
        Self {
            base_sets: 10_000,
            set_size: 50,
            domain: 10_000,
            similar_fraction: 0.02,
            planted_similarity: 0.9,
            seed: 0x0a1b,
        }
    }
}

/// Draws one random set of exactly `size` distinct elements from `0..domain`.
fn random_set(rng: &mut impl Rng, size: usize, domain: u32) -> Vec<ElementId> {
    assert!((size as u64) <= domain as u64, "set size exceeds domain");
    let mut set: Vec<ElementId> = Vec::with_capacity(size);
    let mut seen = FxHashSet::with_capacity_and_hasher(size * 2, Default::default());
    while set.len() < size {
        let e = rng.gen_range(0..domain);
        if seen.insert(e) {
            set.push(e);
        }
    }
    set.sort_unstable();
    set
}

/// Generates the collection: `base_sets` uniform sets followed by planted
/// near-duplicates at jaccard ≈ `planted_similarity` (same size: replace
/// `m` of the elements, where `Js = (size−m)/(size+m)`).
pub fn generate_uniform(config: UniformConfig) -> SetCollection {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut sets: Vec<Vec<ElementId>> = (0..config.base_sets)
        .map(|_| random_set(&mut rng, config.set_size, config.domain))
        .collect();
    let planted = (config.base_sets as f64 * config.similar_fraction) as usize;
    // Js of two size-s sets sharing s−m elements is (s−m)/(s+m):
    // m = s·(1−γ)/(1+γ).
    let gamma = config.planted_similarity;
    let m = ((config.set_size as f64) * (1.0 - gamma) / (1.0 + gamma)).round() as usize;
    for _ in 0..planted {
        let src = rng.gen_range(0..config.base_sets);
        let mut s = sets[src].clone();
        for _ in 0..m {
            // Replace a random element with a fresh one outside the set.
            let idx = rng.gen_range(0..s.len());
            loop {
                let e = rng.gen_range(0..config.domain);
                if s.binary_search(&e).is_err() {
                    s[idx] = e;
                    break;
                }
            }
            s.sort_unstable();
        }
        sets.push(s);
    }
    sets.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssj_core::similarity::jaccard;

    #[test]
    fn sets_have_requested_size_and_domain() {
        let cfg = UniformConfig {
            base_sets: 100,
            set_size: 50,
            domain: 10_000,
            ..Default::default()
        };
        let c = generate_uniform(cfg);
        for (_, s) in c.iter().take(100) {
            assert_eq!(s.len(), 50);
            assert!(s.iter().all(|&e| e < 10_000));
        }
    }

    #[test]
    fn planted_sets_hit_target_similarity() {
        let cfg = UniformConfig {
            base_sets: 200,
            similar_fraction: 0.1,
            planted_similarity: 0.9,
            ..Default::default()
        };
        let c = generate_uniform(cfg);
        assert_eq!(c.len(), 220);
        // Each planted set is ≈0.9-similar to some base set.
        for id in 200..220u32 {
            let best = (0..200u32)
                .map(|b| jaccard(c.set(id), c.set(b)))
                .fold(0.0f64, f64::max);
            assert!(best >= 0.85, "planted set {id} best similarity {best}");
        }
    }

    #[test]
    fn deterministic() {
        let cfg = UniformConfig {
            base_sets: 50,
            ..Default::default()
        };
        let a = generate_uniform(cfg);
        let b = generate_uniform(cfg);
        for id in 0..a.len() as u32 {
            assert_eq!(a.set(id), b.set(id));
        }
    }

    #[test]
    fn random_pairs_are_dissimilar() {
        let cfg = UniformConfig {
            base_sets: 100,
            similar_fraction: 0.0,
            ..Default::default()
        };
        let c = generate_uniform(cfg);
        // Uniform 50-of-10000 sets overlap by ~0.25 elements in expectation.
        let mut max = 0.0f64;
        for a in 0..50u32 {
            for b in (a + 1)..50 {
                max = max.max(jaccard(c.set(a), c.set(b)));
            }
        }
        assert!(max < 0.3, "uniform sets unexpectedly similar: {max}");
    }
}
