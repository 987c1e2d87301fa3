//! Cross-crate exactness: every *exact* scheme in the workspace must produce
//! the same answer as the brute-force oracle on every dataset family,
//! across predicates and thresholds. This is the paper's core claim
//! ("our algorithms are exact, and never produce a wrong output") under test.

use ssjoin::baselines::{IdentityScheme, NaiveJoin, PrefixFilter, PrefixFilterConfig};
use ssjoin::core::partenum::SizeIntervals;
use ssjoin::datagen::{generate_zipf, ZipfConfig};
use ssjoin::prelude::*;
use ssjoin::text::token_set;
use std::sync::Arc;

fn datasets() -> Vec<(&'static str, SetCollection)> {
    // Small but structurally diverse: uniform-ish, skewed, text-like, and
    // adversarial (empty sets, singletons, duplicates).
    let zipf = generate_zipf(ZipfConfig {
        sets: 250,
        mean_size: 10,
        domain: 400,
        alpha: 1.0,
        seed: 1,
    });
    let addresses = ssjoin::datagen::generate_addresses(ssjoin::datagen::AddressConfig {
        base_records: 150,
        duplicate_fraction: 0.4,
        max_typos: 2,
        drop_token_prob: 0.3,
        seed: 2,
    });
    let tokens: SetCollection = addresses.iter().map(|s| token_set(s, 3)).collect();
    let adversarial: SetCollection = vec![
        vec![],
        vec![],
        vec![1],
        vec![1],
        vec![1, 2],
        vec![1, 2, 3],
        vec![1, 2, 3],
        (0..40).collect(),
        (0..39).collect(),
        (1..41).collect(),
        vec![100],
        vec![100, 101],
    ]
    .into_iter()
    .collect();
    vec![
        ("zipf", zipf),
        ("address", tokens),
        ("adversarial", adversarial),
    ]
}

#[test]
fn partenum_jaccard_is_exact_everywhere() {
    for (name, collection) in datasets() {
        for gamma in [0.5, 0.7, 0.8, 0.9, 1.0] {
            let pred = Predicate::Jaccard { gamma };
            let scheme = PartEnumJaccard::new(gamma, collection.max_set_len().max(1), 9)
                .expect("valid gamma");
            let mut got = self_join(&scheme, &collection, pred, None, JoinOptions::default()).pairs;
            got.sort_unstable();
            let mut expected = NaiveJoin::self_join(&collection, pred, None);
            expected.sort_unstable();
            assert_eq!(got, expected, "dataset={name} gamma={gamma}");
        }
    }
}

#[test]
fn general_partenum_is_exact_for_supported_predicates() {
    for (name, collection) in datasets() {
        let max_len = collection.max_set_len().max(1);
        for pred in [
            Predicate::Jaccard { gamma: 0.8 },
            Predicate::Hamming { k: 3 },
            Predicate::MaxFraction { gamma: 0.85 },
            Predicate::Dice { gamma: 0.85 },
            Predicate::Cosine { gamma: 0.85 },
        ] {
            let scheme = GeneralPartEnum::new(pred, max_len, 11).expect("supported");
            let mut got = self_join(&scheme, &collection, pred, None, JoinOptions::default()).pairs;
            got.sort_unstable();
            let mut expected = NaiveJoin::self_join(&collection, pred, None);
            expected.sort_unstable();
            assert_eq!(got, expected, "dataset={name} pred={pred:?}");
        }
    }
}

#[test]
fn prefix_filter_is_exact_everywhere() {
    for (name, collection) in datasets() {
        for pred in [
            Predicate::Jaccard { gamma: 0.8 },
            Predicate::Hamming { k: 4 },
            Predicate::Overlap { t: 3 },
            Predicate::Dice { gamma: 0.8 },
            Predicate::Cosine { gamma: 0.8 },
        ] {
            for size_filter in [false, true] {
                let scheme = PrefixFilter::build(
                    pred,
                    &[&collection],
                    None,
                    PrefixFilterConfig { size_filter },
                )
                .expect("unweighted build succeeds");
                let mut got =
                    self_join(&scheme, &collection, pred, None, JoinOptions::default()).pairs;
                got.sort_unstable();
                let mut expected = NaiveJoin::self_join(&collection, pred, None);
                expected.sort_unstable();
                assert_eq!(
                    got, expected,
                    "dataset={name} pred={pred:?} sf={size_filter}"
                );
            }
        }
    }
}

#[test]
fn identity_scheme_is_exact_for_positive_overlap() {
    for (name, collection) in datasets() {
        let pred = Predicate::Overlap { t: 2 };
        let mut got = self_join(
            &IdentityScheme,
            &collection,
            pred,
            None,
            JoinOptions::default(),
        )
        .pairs;
        got.sort_unstable();
        let mut expected = NaiveJoin::self_join(&collection, pred, None);
        expected.sort_unstable();
        assert_eq!(got, expected, "dataset={name}");
    }
}

#[test]
fn wtenum_is_exact_with_idf_weights() {
    for (name, collection) in datasets() {
        let weights = Arc::new(WeightMap::idf(&collection));
        let max_w = collection
            .iter()
            .map(|(_, s)| weights.set_weight(s))
            .fold(0.0f64, f64::max)
            .max(1.0);
        for gamma in [0.6, 0.8] {
            let pred = Predicate::WeightedJaccard { gamma };
            let scheme = WtEnumJaccard::new(
                gamma,
                max_w,
                WtEnum::recommended_th(collection.len()),
                Arc::clone(&weights),
            );
            let mut got = self_join(
                &scheme,
                &collection,
                pred,
                Some(&weights),
                JoinOptions::default(),
            )
            .pairs;
            got.sort_unstable();
            let mut expected = NaiveJoin::self_join(&collection, pred, Some(&weights));
            expected.sort_unstable();
            assert_eq!(got, expected, "dataset={name} gamma={gamma}");
        }
    }
}

#[test]
fn binary_join_is_exact() {
    let all = datasets();
    let (_, r) = &all[0];
    let (_, s) = &all[1];
    let gamma = 0.6;
    let pred = Predicate::Jaccard { gamma };
    let max_len = r.max_set_len().max(s.max_set_len()).max(1);
    let scheme = PartEnumJaccard::new(gamma, max_len, 5).expect("valid gamma");
    let mut got = join(&scheme, r, s, pred, None, JoinOptions::default()).pairs;
    got.sort_unstable();
    let mut expected = NaiveJoin::join(r, s, pred, None);
    expected.sort_unstable();
    assert_eq!(got, expected);
}

/// Every threshold `γ = p/q` with `1 ≤ p ≤ q ≤ 10`, in lowest terms.
fn small_fractions() -> Vec<(u64, u64)> {
    (1..=10u64)
        .flat_map(|q| (1..=q).map(move |p| (p, q)))
        .filter(|&(p, q)| !(2..=p).any(|d| p % d == 0 && q % d == 0))
        .collect()
}

/// Figure 6 is one construction: for jaccard, `GeneralPartEnum` and
/// `PartEnumJaccard` cover the same sizes and emit the same number of
/// signatures for a set of every covered size.
#[test]
fn general_partenum_signs_like_partenum_jaccard() {
    for (p, q) in small_fractions() {
        let gamma = p as f64 / q as f64;
        for max in 1..=40 {
            let dedicated = PartEnumJaccard::new(gamma, max, 1).expect("valid gamma");
            let general =
                GeneralPartEnum::new(Predicate::Jaccard { gamma }, max, 1).expect("supported");
            let covered = dedicated.max_signable_len().expect("interval scheme");
            assert_eq!(
                general.max_signable_len(),
                Some(covered),
                "γ={p}/{q} max={max}"
            );
            for size in 0..=covered {
                let set: Vec<ElementId> = (0..size as ElementId).collect();
                assert_eq!(
                    general.signatures(&set).len(),
                    dedicated.signatures_per_set(size),
                    "γ={p}/{q} max={max} size={size}"
                );
            }
        }
    }
}

/// Whether sets of sizes `a` and `b` with overlap `o` satisfy `pred` at
/// `γ = p/q`, decided in integers.
fn integer_oracle(pred: Predicate, (p, q): (u64, u64), a: u64, b: u64, o: u64) -> bool {
    match pred {
        Predicate::Jaccard { .. } => (p + q) * o >= p * (a + b),
        Predicate::MaxFraction { .. } => q * o >= p * a.max(b),
        Predicate::Dice { .. } => 2 * q * o >= p * (a + b),
        Predicate::Cosine { .. } => q * q * o * o >= p * p * a * b,
        _ => unreachable!("not an interval predicate: {pred:?}"),
    }
}

/// The float bounds every interval scheme is built from never cut off a
/// pair the integer oracle accepts: for sizes up to 64, every `γ = p/q`
/// with `q ≤ 10` and the four interval predicates, `required_overlap`
/// never asks for more overlap than the oracle needs, `size_bounds` never
/// excludes a joinable size, `hamming_bound` is never below a joining
/// pair's distance, and the intervals at the exact `interval_ratio` place
/// every joining size pair in the same or adjacent intervals.
#[test]
fn interval_predicate_bounds_are_sound_against_integer_oracles() {
    const MAX: u64 = 64;
    for frac @ (p, q) in small_fractions() {
        let gamma = p as f64 / q as f64;
        for pred in [
            Predicate::Jaccard { gamma },
            Predicate::MaxFraction { gamma },
            Predicate::Dice { gamma },
            Predicate::Cosine { gamma },
        ] {
            assert!(
                GeneralPartEnum::new(pred, MAX as usize, 1).is_ok(),
                "{pred:?}: routing check rejects the exact ratio"
            );
            let ratio = pred.interval_ratio().expect("interval predicate");
            let intervals = SizeIntervals::new(ratio, MAX as usize);
            for a in 1..=MAX {
                let (lo, hi) = pred.size_bounds(a as usize).expect("size bound");
                let ia = intervals.interval_of(a as usize).expect("covered");
                for b in 1..=MAX {
                    // The oracle is monotone in the overlap: the first
                    // accepted overlap is the least the pair needs.
                    let Some(need) = (0..=a.min(b)).find(|&o| integer_oracle(pred, frac, a, b, o))
                    else {
                        continue;
                    };
                    let (au, bu, need) = (a as usize, b as usize, need as usize);
                    let req = pred.required_overlap(au, bu).expect("unweighted");
                    assert!(
                        req <= need,
                        "{pred:?} |r|={a} |s|={b}: requires {req} > {need}"
                    );
                    assert!(
                        (lo..=hi).contains(&bu),
                        "{pred:?} |r|={a}: size bounds [{lo}, {hi}] exclude |s|={b}"
                    );
                    let hd = pred.hamming_bound(au, bu).expect("hamming bound");
                    assert!(
                        hd >= au + bu - 2 * need,
                        "{pred:?} |r|={a} |s|={b}: hamming bound {hd} < {}",
                        au + bu - 2 * need
                    );
                    let ib = intervals.interval_of(bu).expect("covered");
                    assert!(
                        ia.abs_diff(ib) <= 1,
                        "{pred:?}: |r|={a} in I{ia} and |s|={b} in I{ib} are not adjacent"
                    );
                }
            }
        }
    }
}
