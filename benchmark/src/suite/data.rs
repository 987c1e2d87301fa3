//! Seeded inputs, the brute-force oracle and the pair checksum.
//!
//! Every workload joins or serves at jaccard 0.8, kept as the fraction 4/5
//! so the oracle decides in integers and shares no code with the engine.

use rand::prelude::*;
use ssj_core::set::{ElementId, SetCollection, SetId};
use ssj_datagen::{generate_addresses, generate_uniform, AddressConfig, UniformConfig};

/// The threshold every workload uses.
pub const GAMMA: f64 = 0.8;
const GAMMA_NUM: usize = 4;
const GAMMA_DEN: usize = 5;

/// Token-hash seed of the repository's address experiments
/// (`ssj_bench::datasets`), kept so token ids match theirs.
const TOKEN_SEED: u64 = 0x70ce;

/// The address corpus as whitespace-token sets, `n` records of which a
/// fifth are typo'd near-duplicates — the profile of
/// `ssj_bench::datasets::address_tokens`, with the generator seeded.
pub fn address_tokens(n: usize, seed: u64) -> SetCollection {
    let mut strings = generate_addresses(AddressConfig {
        base_records: ((n as f64 / 1.25).round() as usize).max(1),
        duplicate_fraction: 0.25,
        seed,
        ..AddressConfig::default()
    });
    strings.truncate(n);
    strings
        .iter()
        .map(|s| ssj_text::token_set(s, TOKEN_SEED))
        .collect()
}

/// The paper's synthetic data: 50-element sets over a 10 000-element
/// domain with 2 % planted pairs at jaccard 0.9, about `n` sets in all.
pub fn uniform_paper(n: usize, seed: u64) -> SetCollection {
    generate_uniform(UniformConfig {
        base_sets: ((n as f64 / 1.02).round() as usize).max(1),
        set_size: 50,
        domain: 10_000,
        similar_fraction: 0.02,
        planted_similarity: 0.9,
        seed,
    })
}

/// Elements per served set.
pub const SERVE_SET_SIZE: usize = 10;
/// Element domain of served sets.
pub const SERVE_DOMAIN: u32 = 50_000;

/// A fresh served set: `SERVE_SET_SIZE` distinct elements, ascending.
pub fn serve_set(rng: &mut StdRng) -> Vec<ElementId> {
    let mut set: Vec<ElementId> = Vec::with_capacity(SERVE_SET_SIZE);
    while set.len() < SERVE_SET_SIZE {
        let e = rng.gen_range(0..SERVE_DOMAIN);
        if !set.contains(&e) {
            set.push(e);
        }
    }
    set.sort_unstable();
    set
}

/// A probe: `set` with one element replaced by a random one, canonical
/// (ascending, distinct). Nine shared elements of eleven is jaccard 0.818,
/// so a probe matches the set it came from.
pub fn perturb(rng: &mut StdRng, set: &[ElementId]) -> Vec<ElementId> {
    let mut probe = set.to_vec();
    if !probe.is_empty() {
        let slot = rng.gen_range(0..probe.len());
        probe[slot] = rng.gen_range(0..SERVE_DOMAIN);
    }
    probe.sort_unstable();
    probe.dedup();
    probe
}

/// The oracle: whether two ascending, distinct sets have jaccard ≥ 4/5,
/// by a plain merge and an integer comparison: `i/(a+b−i) ≥ 4/5` exactly
/// when `9·i ≥ 4·(a+b)`. The merge stops once the elements left on the
/// shorter side cannot lift the intersection that far.
pub fn similar(a: &[ElementId], b: &[ElementId]) -> bool {
    let needed = GAMMA_NUM * (a.len() + b.len());
    let (mut i, mut j, mut inter) = (0, 0, 0usize);
    while i < a.len() && j < b.len() {
        if (GAMMA_NUM + GAMMA_DEN) * (inter + (a.len() - i).min(b.len() - j)) < needed {
            return false;
        }
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                inter += 1;
                i += 1;
                j += 1;
            }
        }
    }
    inter > 0 && (GAMMA_NUM + GAMMA_DEN) * inter >= needed
}

/// Order-independent checksum of a pair list.
pub fn pair_checksum(pairs: &[(SetId, SetId)]) -> u64 {
    pairs.iter().fold(0u64, |acc, &(a, b)| {
        let x = (u64::from(a) << 32 | u64::from(b)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        acc.wrapping_add(x ^ (x >> 29))
    })
}

/// Checks a self-join's `pairs` against a brute-force scan for `samples`
/// seeded sample sets; returns how many samples disagree.
pub fn oracle_mismatches(
    collection: &SetCollection,
    pairs: &[(SetId, SetId)],
    samples: usize,
    seed: u64,
) -> u64 {
    let n = collection.len();
    if n == 0 {
        return 0;
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0bac1e);
    let sample: Vec<SetId> = (0..samples).map(|_| rng.gen_range(0..n) as SetId).collect();
    let mut claimed: std::collections::HashMap<SetId, Vec<SetId>> =
        sample.iter().map(|&id| (id, Vec::new())).collect();
    for &(a, b) in pairs {
        if let Some(v) = claimed.get_mut(&a) {
            v.push(b);
        }
        if let Some(v) = claimed.get_mut(&b) {
            v.push(a);
        }
    }
    count_on_two_threads(&sample, |&id| {
        let set = collection.set(id);
        let truth: Vec<SetId> = (0..n as SetId)
            .filter(|&other| other != id && similar(set, collection.set(other)))
            .collect();
        let mut got = claimed[&id].clone();
        got.sort_unstable();
        got != truth
    })
}

/// How many `items` satisfy `is`, scanned on two threads: the output
/// checks are untimed but count against a run's wall clock.
pub fn count_on_two_threads<T: Sync>(items: &[T], is: impl Fn(&T) -> bool + Sync) -> u64 {
    let count = |part: &[T]| part.iter().filter(|item| is(item)).count() as u64;
    let (left, right) = items.split_at(items.len() / 2);
    std::thread::scope(|scope| {
        let other = scope.spawn(|| count(right));
        count(left) + other.join().expect("counting thread")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_follow_the_seed() {
        assert_eq!(address_tokens(300, 1).len(), 300);
        let a = address_tokens(200, 1);
        let b = address_tokens(200, 1);
        let c = address_tokens(200, 2);
        let flat = |c: &SetCollection| c.iter().map(|(_, s)| s.to_vec()).collect::<Vec<_>>();
        assert_eq!(flat(&a), flat(&b));
        assert_ne!(flat(&a), flat(&c));
        let u = uniform_paper(500, 3);
        assert!(u.iter().all(|(_, s)| s.len() == 50));
    }

    #[test]
    fn oracle_threshold_is_four_fifths() {
        let a: Vec<u32> = (0..10).collect();
        let mut nine_of_eleven: Vec<u32> = (0..9).collect();
        nine_of_eleven.push(100);
        assert!(similar(&a, &nine_of_eleven), "9/11 = 0.818");
        let mut eight_of_twelve: Vec<u32> = (0..8).collect();
        eight_of_twelve.extend([100, 101]);
        assert!(!similar(&a, &eight_of_twelve), "8/12 = 0.667");
        assert!(similar(&[1, 2, 3, 4], &[1, 2, 3, 4, 5]), "4/5 exactly");
        assert!(!similar(&[], &[]));
    }

    #[test]
    fn probes_match_their_source_and_checksum_ignores_order() {
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..100 {
            let set = serve_set(&mut rng);
            assert_eq!(set.len(), SERVE_SET_SIZE);
            let probe = perturb(&mut rng, &set);
            assert!(similar(&set, &probe));
        }
        assert_eq!(
            pair_checksum(&[(1, 2), (3, 4), (5, 6)]),
            pair_checksum(&[(5, 6), (1, 2), (3, 4)])
        );
        assert_ne!(pair_checksum(&[(1, 2)]), pair_checksum(&[(2, 1)]));
    }

    #[test]
    fn oracle_flags_a_missing_and_an_extra_pair() {
        let c: SetCollection = vec![vec![1, 2, 3, 4, 5], vec![1, 2, 3, 4, 5], vec![7, 8, 9]]
            .into_iter()
            .collect();
        assert_eq!(oracle_mismatches(&c, &[(0, 1)], 50, 1), 0);
        assert!(oracle_mismatches(&c, &[], 50, 1) > 0);
        assert!(oracle_mismatches(&c, &[(0, 1), (0, 2)], 50, 1) > 0);
    }
}
