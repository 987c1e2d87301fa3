//! Dataset construction for the experiments, at the sizes the harness asks
//! for. All deterministic in the scale and seed.

use ssj_core::predicate::Predicate;
use ssj_core::set::{SetCollection, WeightMap};
use ssj_datagen::{
    generate_addresses, generate_dblp, generate_uniform, AddressConfig, DblpConfig, UniformConfig,
};
use ssj_text::token_set;
use std::sync::Arc;

/// Token-hash seed shared by all address experiments, so signatures remain
/// comparable across sizes.
const TOKEN_SEED: u64 = 0x70ce;

/// Address strings totalling `n` records (80% base, 20% near-duplicates —
/// the duplicate-rich profile the paper's data-cleaning scenario implies).
pub fn address_strings(n: usize) -> Vec<String> {
    let base = (n as f64 / 1.25).round() as usize;
    let cfg = AddressConfig {
        base_records: base.max(1),
        duplicate_fraction: 0.25,
        ..Default::default()
    };
    let mut v = generate_addresses(cfg);
    v.truncate(n);
    v
}

/// The address corpus as whitespace-token sets (the paper's Section 8.1
/// preparation: "tokenized the strings based on white space separators, and
/// hashed the resulting words into 32 bit integers").
pub fn address_tokens(n: usize) -> SetCollection {
    address_strings(n)
        .iter()
        .map(|s| token_set(s, TOKEN_SEED))
        .collect()
}

/// Address token sets plus their IDF weights (Section 8.3 preparation).
pub fn address_tokens_with_idf(n: usize) -> (SetCollection, Arc<WeightMap>) {
    let c = address_tokens(n);
    let w = Arc::new(WeightMap::idf(&c));
    (c, w)
}

/// DBLP-like strings totalling `n` records.
pub fn dblp_strings(n: usize) -> Vec<String> {
    let base = (n as f64 / 1.2).round() as usize;
    let cfg = DblpConfig {
        base_records: base.max(1),
        ..Default::default()
    };
    let mut v = generate_dblp(cfg);
    v.truncate(n);
    v
}

/// DBLP-like token sets.
pub fn dblp_tokens(n: usize) -> SetCollection {
    dblp_strings(n)
        .iter()
        .map(|s| token_set(s, TOKEN_SEED ^ 0xdb))
        .collect()
}

/// The paper's synthetic workload: `n` total sets of 50 elements from a
/// 10,000-element domain with 2% planted pairs at the given similarity.
pub fn uniform_sets(n: usize, planted_similarity: f64) -> SetCollection {
    let base = (n as f64 / 1.02).round() as usize;
    generate_uniform(UniformConfig {
        base_sets: base.max(1),
        set_size: 50,
        domain: 10_000,
        similar_fraction: 0.02,
        planted_similarity,
        seed: 0x0a1b,
    })
}

/// Hamming threshold equivalent to jaccard `gamma` on equi-sized sets of
/// `size` elements: `k = ⌊2·size·(1−γ)/(1+γ)⌋` (Section 5's special case),
/// floored with the same float tolerance as the core's bounds.
pub fn equisize_hamming_threshold(size: usize, gamma: f64) -> usize {
    Predicate::Jaccard { gamma }
        .hamming_bound(size, size)
        .expect("jaccard admits a hamming bound")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_are_exact() {
        assert_eq!(address_strings(1_000).len(), 1_000);
        assert_eq!(address_tokens(500).len(), 500);
        assert_eq!(dblp_strings(600).len(), 600);
    }

    #[test]
    fn uniform_is_equi_sized() {
        let c = uniform_sets(500, 0.9);
        for (_, s) in c.iter() {
            assert_eq!(s.len(), 50);
        }
    }

    #[test]
    fn equisize_threshold_formula() {
        // γ=0.8, size 50: 2·50·0.2/1.8 = 11.11 → 11.
        assert_eq!(equisize_hamming_threshold(50, 0.8), 11);
        // γ=0.9: 100·0.1/1.9 = 5.26 → 5.
        assert_eq!(equisize_hamming_threshold(50, 0.9), 5);
        // Exact integers that a raw float floor lands just below.
        assert_eq!(equisize_hamming_threshold(9, 0.8), 2);
        assert_eq!(equisize_hamming_threshold(18, 0.8), 4);
        assert_eq!(equisize_hamming_threshold(13, 0.3), 14);
    }

    #[test]
    fn idf_weights_cover_corpus() {
        let (c, w) = address_tokens_with_idf(300);
        // Every element has a positive weight.
        for (_, s) in c.iter().take(50) {
            for &e in s {
                assert!(w.weight(e) >= 0.0);
            }
        }
    }
}
