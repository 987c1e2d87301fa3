//! PartEnum for hamming SSJoins (Section 4, Figure 3).

use super::params::{subsets_of_size, PartEnumParams};
use crate::cast::usize_of_u64;
use crate::error::Result;
use crate::hash::{Mix64, SigBuilder};
use crate::set::ElementId;
use crate::signature::{Signature, SignatureScheme};

/// The PartEnum signature scheme for `Hd(u, v) ≤ k` (Figure 3).
///
/// The paper partitions the dimensions `{1..n}` into `n1 × n2` blocks that
/// are contiguous under a random permutation π. Our element domain is the
/// sparse 32-bit hash space, so we realize the same two-level random
/// equipartition with a keyed hash: element `e` lands in second-level
/// partition `hash(e) mod (n1·n2)`, i.e. first-level partition
/// `i = bucket / n2` and second-level `j = bucket mod n2`. Theorem 1
/// (correctness) only needs the partition to be a fixed function of the
/// element shared by all input vectors, which this is; the random hash also
/// delivers the equi-sized-in-expectation blocks the filtering analysis
/// (Theorem 2) assumes.
///
/// For each first-level partition `i` and each subset `S` of its `n2`
/// second-level partitions with `|S| = n2 − k2`, the scheme emits
/// `hash(⟨i, S, projected elements⟩)` — the `⟨P1(v), i, S⟩` encoding of
/// Section 4.2 ("Practical Issues"), hashed to 64 bits.
#[derive(Debug, Clone)]
pub struct PartEnumHamming {
    k: usize,
    params: PartEnumParams,
    k2: usize,
    /// Bitmasks over second-level partitions, one per enumerated subset.
    subset_masks: Vec<u32>,
    /// Keyed hash assigning elements to partitions (the random permutation).
    partitioner: Mix64,
    /// Domain-separation tag mixed into every signature (lets a composite
    /// scheme, e.g. jaccard PartEnum, run many instances side by side).
    tag: u64,
}

impl PartEnumHamming {
    /// Creates an instance with explicit parameters and RNG seed.
    pub fn new(k: usize, params: PartEnumParams, seed: u64) -> Result<Self> {
        Self::with_tag(k, params, seed, 0)
    }

    /// Creates an instance with default parameters for `k`.
    pub fn with_defaults(k: usize, seed: u64) -> Self {
        // `default_for` always yields parameters that pass `validate`, so
        // the unvalidated constructor is sound here.
        Self::build(k, PartEnumParams::default_for(k), seed, 0)
    }

    /// Creates an instance whose signatures carry an extra tag, ensuring
    /// signatures from different instances never collide (Figure 6 attaches
    /// the interval number to signatures for exactly this reason).
    pub fn with_tag(k: usize, params: PartEnumParams, seed: u64, tag: u64) -> Result<Self> {
        params.validate(k)?;
        if params.n2 > 32 {
            return Err(crate::error::SsjError::InvalidParams(format!(
                "n2 = {} exceeds the 32-partition subset-enumeration limit",
                params.n2
            )));
        }
        Ok(Self::build(k, params, seed, tag))
    }

    /// Constructs without validation; callers guarantee `params` is valid
    /// for `k`.
    fn build(k: usize, params: PartEnumParams, seed: u64, tag: u64) -> Self {
        let k2 = params.k2(k);
        Self {
            k,
            params,
            k2,
            subset_masks: subsets_of_size(params.n2, params.n2 - k2),
            partitioner: Mix64::new(seed),
            tag,
        }
    }

    /// The hamming threshold `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The parameters in use.
    pub fn params(&self) -> PartEnumParams {
        self.params
    }

    /// The derived second-level threshold `k2`.
    pub fn k2(&self) -> usize {
        self.k2
    }

    /// Number of signatures generated per vector: `n1 · C(n2, n2 − k2)`.
    pub fn signatures_per_vector(&self) -> usize {
        self.params.n1 * self.subset_masks.len()
    }

    /// Second-level partition of an element: `(first_level, second_level)`.
    #[inline]
    fn partition_of(&self, e: u64) -> (usize, usize) {
        let bucket =
            usize_of_u64(self.partitioner.hash_u64(e) % (self.params.n1 * self.params.n2) as u64);
        (bucket / self.params.n2, bucket % self.params.n2)
    }

    /// Signature generation over arbitrary 64-bit items (sorted, distinct),
    /// with a caller-provided assignment buffer for hot paths that sign
    /// many sets.
    ///
    /// This is the same construction as [`SignatureScheme::signatures_into`]
    /// on a wider domain; it exists so weighted schemes can replicate
    /// elements into `(element, copy)` items (Section 7's reduction) without
    /// squeezing them through the 32-bit element space.
    ///
    /// Items are assigned `(first level, item, second level)` and sorted;
    /// because items arrive strictly ascending and the sort key leads with
    /// `(first level, item)`, each first-level group keeps the historical
    /// per-group item order, so emitted signatures are bit-identical to
    /// the nested-buckets formulation this replaces.
    pub fn signatures_for_items_scratch(
        &self,
        items: &[u64],
        assignments: &mut Vec<(u32, u64, u32)>,
        out: &mut Vec<Signature>,
    ) {
        debug_assert!(
            items.windows(2).all(|w| w[0] < w[1]),
            "items must be strictly sorted"
        );
        let n1 = self.params.n1;
        assignments.clear();
        for &e in items {
            let (i, j) = self.partition_of(e);
            assignments.push((crate::cast::u32_of(i), e, crate::cast::u32_of(j)));
        }
        assignments.sort_unstable();
        out.reserve(self.signatures_per_vector());
        let mut next = 0usize;
        for i in 0..n1 {
            let start = next;
            while next < assignments.len() && assignments[next].0 as usize == i {
                next += 1;
            }
            let group = &assignments[start..next];
            for &mask in &self.subset_masks {
                let mut sig = SigBuilder::new(self.tag);
                sig.push(i as u64);
                sig.push(mask as u64);
                for &(_, e, j) in group {
                    if mask & (1 << j) != 0 {
                        sig.push(e);
                    }
                }
                out.push(sig.finish());
            }
        }
    }
}

impl SignatureScheme for PartEnumHamming {
    fn signatures_into(&self, set: &[ElementId], out: &mut Vec<Signature>) {
        self.signatures_scratch(set, &mut crate::signature::SigScratch::default(), out);
    }

    fn signatures_scratch(
        &self,
        set: &[ElementId],
        scratch: &mut crate::signature::SigScratch,
        out: &mut Vec<Signature>,
    ) {
        // Widen to u64 items; same hashes as the historical u32 path
        // (`Mix64::hash_u32` forwards to `hash_u64`).
        scratch.items.clear();
        scratch.items.extend(set.iter().map(|&e| e as u64));
        self.signatures_for_items_scratch(&scratch.items, &mut scratch.assignments, out);
    }

    fn name(&self) -> &'static str {
        "PEN"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::similarity::hamming_distance;
    use rand::prelude::*;

    fn random_set(rng: &mut StdRng, len: usize, domain: u32) -> Vec<u32> {
        let mut s: Vec<u32> = (0..len * 2).map(|_| rng.gen_range(0..domain)).collect();
        s.sort_unstable();
        s.dedup();
        s.truncate(len);
        s
    }

    /// Mutates `base` into a set at hamming distance exactly `d` (when
    /// possible), by deleting `d/2 + d%2` elements and inserting fresh ones.
    fn perturb(rng: &mut StdRng, base: &[u32], d: usize) -> Vec<u32> {
        let mut s: Vec<u32> = base.to_vec();
        let dels = d / 2;
        let ins = d - dels;
        for _ in 0..dels {
            let idx = rng.gen_range(0..s.len());
            s.remove(idx);
        }
        let mut next = 1_000_000_000u32;
        for _ in 0..ins {
            while s.binary_search(&next).is_ok() {
                next += 1;
            }
            s.push(next);
            next += 1;
        }
        s.sort_unstable();
        s
    }

    #[test]
    fn theorem1_close_vectors_share_a_signature() {
        // Randomized check of Theorem 1: if Hd(u,v) ≤ k, Sign(u) ∩ Sign(v) ≠ ∅.
        let mut rng = StdRng::seed_from_u64(42);
        for trial in 0..200 {
            let k = rng.gen_range(1usize..8);
            let n1 = rng.gen_range(1..=k + 1);
            let k2 = (k + 1usize).div_ceil(n1) - 1;
            let n2 = rng.gen_range(k2 + 1..k2 + 4);
            let params = PartEnumParams::new(n1, n2, k).unwrap();
            let scheme = PartEnumHamming::new(k, params, trial).unwrap();

            let len = rng.gen_range(5..40);
            let u = random_set(&mut rng, len, 100_000);
            let d = rng.gen_range(0..=k.min(u.len()));
            let v = perturb(&mut rng, &u, d);
            assert!(hamming_distance(&u, &v) <= k);

            let su = scheme.signatures(&u);
            let sv = scheme.signatures(&v);
            assert!(
                su.iter().any(|s| sv.contains(s)),
                "trial {trial}: k={k} n1={n1} n2={n2} Hd={} — no shared signature",
                hamming_distance(&u, &v)
            );
        }
    }

    #[test]
    fn signature_count_matches_formula() {
        let params = PartEnumParams::new(3, 4, 5).unwrap();
        let scheme = PartEnumHamming::new(5, params, 7).unwrap();
        assert_eq!(scheme.signatures_per_vector(), 12);
        let sigs = scheme.signatures(&[1, 5, 9, 200, 777]);
        assert_eq!(sigs.len(), 12);
    }

    #[test]
    fn identical_sets_share_all_signatures() {
        let scheme = PartEnumHamming::with_defaults(3, 1);
        let s = vec![3, 14, 15, 65, 92];
        assert_eq!(scheme.signatures(&s), scheme.signatures(&s));
    }

    #[test]
    fn k_zero_signature_is_whole_set() {
        // k=0: one signature; only identical sets may share it.
        let scheme = PartEnumHamming::with_defaults(0, 9);
        assert_eq!(scheme.signatures_per_vector(), 1);
        let a = scheme.signatures(&[1, 2, 3]);
        let b = scheme.signatures(&[1, 2, 3]);
        let c = scheme.signatures(&[1, 2, 4]);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn far_vectors_rarely_collide() {
        // Filtering effectiveness sanity: vectors at distance >> k should
        // almost never share signatures (Theorem 2's regime).
        let k = 3;
        let params = PartEnumParams::new(2, 8, k).unwrap();
        let scheme = PartEnumHamming::new(k, params, 5).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let mut collisions = 0;
        let trials = 300;
        for _ in 0..trials {
            let u = random_set(&mut rng, 30, 1_000_000);
            let v = random_set(&mut rng, 30, 1_000_000);
            assert!(
                hamming_distance(&u, &v) > 7 * k,
                "random sets should be far"
            );
            let su = scheme.signatures(&u);
            let sv = scheme.signatures(&v);
            if su.iter().any(|s| sv.contains(s)) {
                collisions += 1;
            }
        }
        assert!(
            collisions < trials / 10,
            "too many far-pair collisions: {collisions}/{trials}"
        );
    }

    #[test]
    fn oversized_n2_is_rejected_cleanly() {
        // n2 = 41, k2 = 40 is a valid Figure-3 point cost-wise (41 sigs)
        // but beyond the u32 subset-mask enumeration: clean error, no panic.
        let params = PartEnumParams { n1: 1, n2: 41 };
        assert!(params.validate(40).is_ok());
        assert!(PartEnumHamming::new(40, params, 0).is_err());
        // And the candidate enumeration never proposes such a point.
        for p in PartEnumParams::candidates(40, usize::MAX) {
            assert!(p.n2 <= 32, "candidates proposed n2 = {}", p.n2);
        }
    }

    #[test]
    fn different_seeds_give_different_partitions() {
        let params = PartEnumParams::new(2, 3, 3).unwrap();
        let a = PartEnumHamming::new(3, params, 1).unwrap();
        let b = PartEnumHamming::new(3, params, 2).unwrap();
        let s = vec![10, 20, 30, 40];
        assert_ne!(a.signatures(&s), b.signatures(&s));
    }

    #[test]
    fn tags_separate_instances() {
        let params = PartEnumParams::new(2, 3, 3).unwrap();
        let a = PartEnumHamming::with_tag(3, params, 1, 100).unwrap();
        let b = PartEnumHamming::with_tag(3, params, 1, 200).unwrap();
        let s = vec![10, 20, 30, 40];
        let sa = a.signatures(&s);
        let sb = b.signatures(&s);
        assert!(
            sa.iter().all(|x| !sb.contains(x)),
            "tags must prevent collisions"
        );
    }

    #[test]
    fn empty_set_still_produces_signatures() {
        // An empty vector agrees with everything on every partition; it must
        // produce the "all-empty projection" signatures so that e.g. two
        // empty sets (Hd = 0) share one.
        let scheme = PartEnumHamming::with_defaults(2, 3);
        let sigs = scheme.signatures(&[]);
        assert_eq!(sigs.len(), scheme.signatures_per_vector());
        let near = scheme.signatures(&[7]); // Hd = 1 ≤ 2
        assert!(sigs.iter().any(|s| near.contains(s)));
    }
}
