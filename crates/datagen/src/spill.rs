//! Spill-stress workloads for the out-of-core executor (`ssj-extern`).
//!
//! The uniform generator produces equi-sized sets whose signatures spread
//! evenly across partitions — friendly to the spill path. This generator
//! deliberately is not:
//!
//! * **heterogeneous set sizes** exercise the segment's block layout
//!   (many tiny sets per block next to blocks holding a single large
//!   set) and the per-set signature count variance the partition sizer
//!   must absorb;
//! * a **hot sub-domain** shared by a fraction of the sets concentrates
//!   postings into dense signature buckets, producing long posting lists
//!   whose pair enumeration dominates a few partitions while others stay
//!   nearly empty — the skew case for budget accounting;
//! * **duplicate groups** plant guaranteed matches at every threshold,
//!   so differential runs always have output pairs to compare.

use rand::prelude::*;
use ssj_core::hash::FxHashSet;
use ssj_core::set::{ElementId, SetCollection};

/// Configuration for the spill-stress generator.
#[derive(Debug, Clone, Copy)]
pub struct SpillConfig {
    /// Base sets (before duplicate groups).
    pub base_sets: usize,
    /// Smallest set size drawn (inclusive, clamped to ≥ 1).
    pub min_set_size: usize,
    /// Largest set size drawn (inclusive).
    pub max_set_size: usize,
    /// Element domain.
    pub domain: u32,
    /// Fraction of base sets drawn mostly from the hot sub-domain.
    pub hot_fraction: f64,
    /// Size of the hot sub-domain (`0..hot_domain`); clamped to `domain`.
    pub hot_domain: u32,
    /// Groups of exact duplicates appended after the base sets.
    pub duplicate_groups: usize,
    /// Copies per duplicate group (≥ 2 for each group to emit pairs).
    pub group_size: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SpillConfig {
    fn default() -> Self {
        Self {
            base_sets: 2_000,
            min_set_size: 4,
            max_set_size: 60,
            domain: 5_000,
            hot_fraction: 0.25,
            hot_domain: 64,
            duplicate_groups: 20,
            group_size: 3,
            seed: 0x5b11,
        }
    }
}

/// Draws `size` distinct elements from `0..domain` (sorted).
fn random_set(rng: &mut impl Rng, size: usize, domain: u32) -> Vec<ElementId> {
    let size = size.min(domain as usize);
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

/// Generates the spill-stress collection per `config`: heterogeneous base
/// sets (a `hot_fraction` of them drawn mostly from the hot sub-domain),
/// followed by `duplicate_groups` groups of identical sets.
pub fn generate_spill(config: SpillConfig) -> SetCollection {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let lo = config.min_set_size.max(1);
    let hi = config.max_set_size.max(lo);
    let hot_domain = config.hot_domain.clamp(1, config.domain.max(1));
    let mut sets: Vec<Vec<ElementId>> =
        Vec::with_capacity(config.base_sets + config.duplicate_groups * config.group_size);
    for _ in 0..config.base_sets {
        let size = rng.gen_range(lo..=hi);
        let hot = rng.gen_bool(config.hot_fraction.clamp(0.0, 1.0));
        if hot {
            // Mostly hot elements plus a cold tail so hot sets collide in
            // their signature buckets without being outright identical.
            let hot_part = random_set(&mut rng, size.div_ceil(2), hot_domain);
            let mut set = random_set(&mut rng, size - hot_part.len(), config.domain.max(1));
            set.extend_from_slice(&hot_part);
            set.sort_unstable();
            set.dedup();
            sets.push(set);
        } else {
            sets.push(random_set(&mut rng, size, config.domain.max(1)));
        }
    }
    for _ in 0..config.duplicate_groups {
        let size = rng.gen_range(lo..=hi);
        let original = random_set(&mut rng, size, config.domain.max(1));
        for _ in 0..config.group_size.max(2) {
            sets.push(original.clone());
        }
    }
    sets.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_sized_as_configured() {
        let cfg = SpillConfig {
            base_sets: 300,
            duplicate_groups: 5,
            group_size: 3,
            ..Default::default()
        };
        let a = generate_spill(cfg);
        let b = generate_spill(cfg);
        assert_eq!(a.len(), 315);
        for id in 0..a.len() as u32 {
            assert_eq!(a.set(id), b.set(id));
        }
    }

    #[test]
    fn sets_are_canonical_and_heterogeneous() {
        let cfg = SpillConfig {
            base_sets: 500,
            min_set_size: 2,
            max_set_size: 80,
            ..Default::default()
        };
        let c = generate_spill(cfg);
        let mut sizes = std::collections::BTreeSet::new();
        for (_, s) in c.iter() {
            assert!(s.windows(2).all(|w| w[0] < w[1]), "set must be canonical");
            sizes.insert(s.len());
        }
        assert!(sizes.len() > 10, "sizes should vary, got {sizes:?}");
    }

    #[test]
    fn duplicate_groups_plant_guaranteed_matches() {
        let cfg = SpillConfig {
            base_sets: 100,
            duplicate_groups: 4,
            group_size: 3,
            ..Default::default()
        };
        let c = generate_spill(cfg);
        // The last 12 sets form 4 groups of 3 identical sets.
        for g in 0..4u32 {
            let base = 100 + g * 3;
            for i in 1..3 {
                assert_eq!(c.set(base), c.set(base + i), "group {g} copy {i}");
            }
        }
    }

    #[test]
    fn hot_subdomain_concentrates_elements() {
        let cfg = SpillConfig {
            base_sets: 1_000,
            hot_fraction: 0.5,
            hot_domain: 32,
            domain: 100_000,
            ..Default::default()
        };
        let c = generate_spill(cfg);
        let hot_hits: usize = c
            .iter()
            .flat_map(|(_, s)| s.iter())
            .filter(|&&e| e < 32)
            .count();
        // With no hot bias, 32/100_000 of elements would land below 32;
        // the bias should put orders of magnitude more there.
        assert!(hot_hits > 1_000, "hot sub-domain underused: {hot_hits}");
    }
}
