//! Exhaustive small-scope exactness of the two join drivers.
//!
//! Every subset of a 7-element universe — all 128 of them, the empty set
//! included — goes through `self_join` and through the R–S `join` with
//! R = S = the power set, for every threshold γ = p/q with q ≤ 10, under
//! `PartEnumJaccard` and the identity scheme, at 1 and 2 threads, with
//! verification off, and on with the bitmap filter on and off. The
//! power set repeated 9 times (1 152 sets) runs two PartEnum thresholds
//! too: it crosses the drivers' parallel cut-offs, and its buckets hold
//! many copies of each set.
//!
//! Checked against integer arithmetic, not the engine's predicate:
//! * verified output = the naive join under q·|r ∩ s| ≥ p·|r ∪ s|;
//! * unverified output = exactly the ascending pairs whose signature sets,
//!   recomputed through `signatures_scratch`, intersect;
//! * `signatures`, `collisions` and `candidates` do not depend on the
//!   thread count.

use ssjoin::baselines::IdentityScheme;
use ssjoin::core::join::{join, self_join, JoinOptions, JoinResult};
use ssjoin::core::signature::{SigScratch, Signature, SignatureScheme};
use ssjoin::prelude::*;

/// Universe size: 2^7 = 128 subsets.
const UNIVERSE: u32 = 7;
/// Copies of the power set in the large input: 1 152 sets, past the
/// drivers' 1 024-set parallel cut-off.
const REPEATS: usize = 9;

fn power_set(repeats: usize) -> SetCollection {
    let sets = (0..repeats).flat_map(|_| {
        (0u32..1 << UNIVERSE).map(|mask| (0..UNIVERSE).filter(|e| mask >> e & 1 == 1).collect())
    });
    SetCollection::from_sets(sets)
}

/// Every γ = p/q in (0, 1] with q ≤ 10, once per value, as `(p, q)` in
/// lowest terms.
fn thresholds() -> Vec<(usize, usize)> {
    fn gcd(a: usize, b: usize) -> usize {
        if b == 0 {
            a
        } else {
            gcd(b, a % b)
        }
    }
    (1..=10)
        .flat_map(|q| (1..=q).map(move |p| (p, q)))
        .filter(|&(p, q)| gcd(p, q) == 1)
        .collect()
}

/// The integer Jaccard test q·|r ∩ s| ≥ p·|r ∪ s| (Js(∅, ∅) = 1).
fn qualifies(r: &[u32], s: &[u32], (p, q): (usize, usize)) -> bool {
    let inter = r.iter().filter(|e| s.binary_search(e).is_ok()).count();
    let union = r.len() + s.len() - inter;
    q * inter >= p * union
}

/// Each set's signatures, sorted and deduplicated.
fn signature_sets(scheme: &impl SignatureScheme, c: &SetCollection) -> Vec<Vec<Signature>> {
    let mut scratch = SigScratch::default();
    (0..c.len() as u32)
        .map(|id| {
            let mut sigs = Vec::new();
            scheme.signatures_scratch(c.set(id), &mut scratch, &mut sigs);
            sigs.sort_unstable();
            sigs.dedup();
            sigs
        })
        .collect()
}

fn share_one(a: &[Signature], b: &[Signature]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return true,
        }
    }
    false
}

/// What a driver must return, for a self-join (`b > a`) or an R–S join
/// with R = S (every `b`): the qualifying pairs and the candidate pairs,
/// both ascending.
struct Expected {
    output: Vec<(u32, u32)>,
    candidates: Vec<(u32, u32)>,
}

fn expected(
    c: &SetCollection,
    sigs: &[Vec<Signature>],
    gamma: (usize, usize),
    binary: bool,
) -> Expected {
    let n = c.len() as u32;
    let mut e = Expected {
        output: Vec::new(),
        candidates: Vec::new(),
    };
    for a in 0..n {
        for b in if binary { 0 } else { a + 1 }..n {
            if qualifies(c.set(a), c.set(b), gamma) {
                e.output.push((a, b));
            }
            if share_one(&sigs[a as usize], &sigs[b as usize]) {
                e.candidates.push((a, b));
            }
        }
    }
    e
}

/// The counters that must not depend on the thread count.
fn counters(r: &JoinResult) -> [u64; 4] {
    let s = &r.stats;
    [
        s.signatures_r,
        s.signatures_s,
        s.signature_collisions,
        s.candidate_pairs,
    ]
}

/// Runs both drivers over `c` under every option combination and checks
/// them against the integer oracle.
fn check_drivers(
    scheme: &impl SignatureScheme,
    c: &SetCollection,
    gamma: (usize, usize),
    label: &str,
) {
    let pred = Predicate::Jaccard {
        gamma: gamma.0 as f64 / gamma.1 as f64,
    };
    let sigs = signature_sets(scheme, c);
    for binary in [false, true] {
        let want = expected(c, &sigs, gamma, binary);
        let mut first: Option<[u64; 4]> = None;
        for threads in [1, 2] {
            // The bitmap filter only acts inside verification.
            for (verify, bitmap_filter) in [(true, true), (true, false), (false, true)] {
                let opts = JoinOptions {
                    threads,
                    verify,
                    bitmap_filter,
                };
                let got = if binary {
                    join(scheme, c, c, pred, None, opts)
                } else {
                    self_join(scheme, c, pred, None, opts)
                };
                let case = format!(
                    "{label} γ={}/{} binary={binary} threads={threads} \
                     bitmap={bitmap_filter} verify={verify}",
                    gamma.0, gamma.1
                );
                let wanted = if verify {
                    &want.output
                } else {
                    &want.candidates
                };
                assert!(
                    got.pairs == *wanted,
                    "{case}: {} pairs, want {}",
                    got.pairs.len(),
                    wanted.len()
                );
                assert_eq!(
                    got.stats.candidate_pairs,
                    want.candidates.len() as u64,
                    "{case}"
                );
                let now = counters(&got);
                assert_eq!(
                    *first.get_or_insert(now),
                    now,
                    "{case}: counters moved with threads"
                );
            }
        }
    }
}

#[test]
fn power_set_joins_match_the_integer_oracle() {
    let c = power_set(1);
    for gamma in thresholds() {
        let g = gamma.0 as f64 / gamma.1 as f64;
        let pe = PartEnumJaccard::new(g, c.max_set_len(), 7).expect("valid threshold");
        check_drivers(&pe, &c, gamma, "PartEnumJaccard");
        check_drivers(&IdentityScheme, &c, gamma, "identity");
    }
}

#[test]
fn repeated_power_set_crosses_the_parallel_cut_offs() {
    let c = power_set(REPEATS);
    assert_eq!(c.len(), 1152);
    // Thresholds at which 81 copies of every colliding pair stay cheap in
    // a debug build: 126 k collisions at 4/5, 9 k at 1.
    for gamma in [(4, 5), (1, 1)] {
        let g = gamma.0 as f64 / gamma.1 as f64;
        let pe = PartEnumJaccard::new(g, c.max_set_len(), 7).expect("valid threshold");
        check_drivers(&pe, &c, gamma, "PartEnumJaccard ×9");
    }
}
