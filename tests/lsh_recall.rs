//! LSH behaves as predicted: observed recall on threshold pairs tracks the
//! `1 − (1 − γ^g)^l` guarantee, and the paper's observation "the observed
//! accuracy of LSH in all our experiments was very close to the predicted
//! accuracy" reproduces.

use ssjoin::baselines::{LshJaccard, LshParams, NaiveJoin};
use ssjoin::datagen::{generate_uniform, UniformConfig};
use ssjoin::prelude::*;

fn planted(n: usize, gamma: f64, seed: u64) -> SetCollection {
    generate_uniform(UniformConfig {
        base_sets: n,
        set_size: 50,
        domain: 10_000,
        similar_fraction: 0.2,
        planted_similarity: gamma,
        seed,
    })
}

#[test]
fn observed_recall_meets_target() {
    let gamma = 0.85;
    let collection = planted(800, 0.9, 42);
    let pred = Predicate::Jaccard { gamma };

    let exact = NaiveJoin::self_join(&collection, pred, None);
    assert!(
        exact.len() >= 100,
        "need enough true pairs to measure recall"
    );

    let mut recalls = Vec::new();
    for seed in 0..5 {
        let scheme = LshJaccard::optimized(gamma, 0.95, &collection, 400, seed);
        let result = self_join(&scheme, &collection, pred, None, JoinOptions::default());
        assert!(result.approximate);
        let exact_set: ssjoin::core::hash::FxHashSet<_> = exact.iter().copied().collect();
        let hit = result
            .pairs
            .iter()
            .filter(|p| exact_set.contains(p))
            .count();
        recalls.push(hit as f64 / exact.len() as f64);
    }
    let avg = recalls.iter().sum::<f64>() / recalls.len() as f64;
    // Planted pairs sit at ~0.9 similarity, above the 0.85 threshold, so the
    // true recall exceeds the at-threshold target of 0.95.
    assert!(
        avg > 0.93,
        "average recall {avg} too low (runs: {recalls:?})"
    );
}

#[test]
fn lsh_never_produces_wrong_pairs() {
    // Approximate ≠ unsound: post-filtering still guarantees every returned
    // pair satisfies the predicate.
    let gamma = 0.8;
    let collection = planted(400, 0.85, 7);
    let pred = Predicate::Jaccard { gamma };
    let scheme = LshJaccard::new(LshParams { g: 2, l: 8 }, 3);
    let result = self_join(&scheme, &collection, pred, None, JoinOptions::default());
    for &(a, b) in &result.pairs {
        assert!(pred.evaluate(collection.set(a), collection.set(b), None));
    }
}

#[test]
fn higher_recall_target_finds_more() {
    let gamma = 0.8;
    let collection = planted(600, 0.8, 9);
    let pred = Predicate::Jaccard { gamma };
    let exact = NaiveJoin::self_join(&collection, pred, None);
    assert!(!exact.is_empty());

    // Average over seeds to smooth randomness.
    let mut found = [0usize; 2];
    for seed in 0..5 {
        for (i, recall) in [0.5, 0.99].iter().enumerate() {
            let params = LshParams {
                g: 3,
                l: LshParams::l_for_recall(3, gamma, *recall),
            };
            let scheme = LshJaccard::new(params, seed);
            let result = self_join(&scheme, &collection, pred, None, JoinOptions::default());
            found[i] += result.pairs.len();
        }
    }
    assert!(
        found[1] > found[0],
        "recall 0.99 ({}) should find more than recall 0.5 ({})",
        found[1],
        found[0]
    );
}
