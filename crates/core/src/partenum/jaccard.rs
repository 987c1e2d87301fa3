//! PartEnum for jaccard SSJoins (Section 5, Figure 6).

use super::hamming::PartEnumHamming;
use super::intervals::{IntervalInstances, SizeIntervals};
use super::params::PartEnumParams;
use crate::error::Result;
use crate::predicate::Predicate;
use crate::set::ElementId;
use crate::signature::{SigScratch, Signature, SignatureScheme};

/// The PartEnum signature scheme for `Js(r, s) ≥ γ` (Figure 6).
///
/// The construction conceptually splits the join into per-size-interval
/// instances: sizes are partitioned into intervals `Ii` (Lemma 1 bounds how
/// far apart joining sizes can be), each interval `i` owns a hamming
/// PartEnum instance `PE[i]` with threshold `k_i = ⌊2(1−γ)/(1+γ)·r_i⌋`, and
/// a set of size in `Ii` emits the signatures of `PE[i]` and `PE[i+1]`, each
/// tagged with the instance number so signatures of different instances
/// never match. This *size-based filtering* is what makes PartEnum work for
/// jaccard and is reusable by other schemes (the paper augments prefix
/// filter with it too — see `ssj-baselines`). The construction and the
/// routing live in [`super::intervals`], shared with
/// [`super::GeneralPartEnum`].
#[derive(Debug, Clone)]
pub struct PartEnumJaccard {
    core: IntervalInstances,
}

impl PartEnumJaccard {
    /// Builds a scheme for threshold `gamma`, covering sets up to
    /// `max_set_size` elements, choosing per-instance parameters with the
    /// default heuristic.
    pub fn new(gamma: f64, max_set_size: usize, seed: u64) -> Result<Self> {
        Self::with_params(gamma, max_set_size, seed, PartEnumParams::default_for)
    }

    /// Builds a scheme with a custom parameter choice per instance: `params`
    /// maps each instance's hamming threshold `k_i` to the `(n1, n2)` to use.
    /// This is the hook the optimizer (Table 1) uses.
    pub fn with_params(
        gamma: f64,
        max_set_size: usize,
        seed: u64,
        params: impl Fn(usize) -> PartEnumParams,
    ) -> Result<Self> {
        let core =
            IntervalInstances::build(Predicate::Jaccard { gamma }, max_set_size, params, |i| {
                (seed.wrapping_add(i).wrapping_mul(0x9e37_79b9), i)
            })?;
        Ok(Self { core })
    }

    /// The jaccard threshold (the intervals' ratio).
    pub fn gamma(&self) -> f64 {
        self.core.intervals().gamma()
    }

    /// The size intervals in use.
    pub fn intervals(&self) -> &SizeIntervals {
        self.core.intervals()
    }

    /// The hamming instance for 1-based interval `i`, if covered.
    pub fn instance(&self, i: usize) -> Option<&PartEnumHamming> {
        self.core.instance(i)
    }

    /// Upper bound on signatures emitted for a set of the given size
    /// (instance `i` plus instance `i+1`); 0 for sizes beyond
    /// [`SignatureScheme::max_signable_len`], which emit nothing.
    pub fn signatures_per_set(&self, size: usize) -> usize {
        self.core.signatures_per_set(size)
    }
}

impl SignatureScheme for PartEnumJaccard {
    fn signatures_into(&self, set: &[ElementId], out: &mut Vec<Signature>) {
        self.signatures_scratch(set, &mut SigScratch::default(), out);
    }

    fn signatures_scratch(
        &self,
        set: &[ElementId],
        scratch: &mut SigScratch,
        out: &mut Vec<Signature>,
    ) {
        self.core.sign_by_size(set.len(), out, |pe, out| {
            pe.signatures_scratch(set, scratch, out);
        });
    }

    fn max_signable_len(&self) -> Option<usize> {
        // The size coverage requested at construction plus the one-interval
        // margin: the largest size `interval_of` resolves.
        Some(self.core.intervals().max_size())
    }

    fn name(&self) -> &'static str {
        "PEN"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::floor_tol;
    use crate::similarity::jaccard;
    use rand::prelude::*;

    fn share_sig(scheme: &PartEnumJaccard, a: &[u32], b: &[u32]) -> bool {
        let sa = scheme.signatures(a);
        let sb = scheme.signatures(b);
        sa.iter().any(|s| sb.contains(s))
    }

    #[test]
    fn correctness_on_random_similar_pairs() {
        let mut rng = StdRng::seed_from_u64(7);
        for trial in 0..200u64 {
            let gamma = *[0.8, 0.85, 0.9].choose(&mut rng).expect("non-empty");
            let scheme = PartEnumJaccard::new(gamma, 120, trial).unwrap();
            // Build a pair with jaccard >= gamma: share m elements, add a few
            // distinct ones.
            let m = rng.gen_range(20..80);
            let shared: Vec<u32> = (0..m).map(|x| x * 3).collect();
            // Tolerant floor: float noise must not shrink the extras
            // budget below the exact boundary (γ-tight pairs are the
            // ones this test exists to cover).
            let extra_total = floor_tol((1.0 - gamma) / gamma * m as f64);
            let ea = rng.gen_range(0..=extra_total);
            let eb = extra_total - ea;
            let mut a = shared.clone();
            a.extend((0..ea as u32).map(|x| 1_000_000 + x));
            let mut b = shared.clone();
            b.extend((0..eb as u32).map(|x| 2_000_000 + x));
            a.sort_unstable();
            b.sort_unstable();
            assert!(jaccard(&a, &b) + 1e-9 >= gamma, "construction broke");
            assert!(
                share_sig(&scheme, &a, &b),
                "trial {trial}: gamma={gamma} Js={} sizes=({},{})",
                jaccard(&a, &b),
                a.len(),
                b.len()
            );
        }
    }

    #[test]
    fn cross_interval_pairs_share_signatures() {
        // Sizes straddling an interval boundary must still collide via the
        // shared neighbor instance (the reason Figure 6 emits two instances).
        let gamma = 0.9;
        let scheme = PartEnumJaccard::new(gamma, 60, 3).unwrap();
        // |a| = 19, |b| = 21 sit in different intervals at γ=0.9
        // (I14 = [19,21] actually covers both; use 18 vs 19: I13=[17,18],
        // I14=[19,21]).
        let shared: Vec<u32> = (0..18).collect();
        let a = shared.clone(); // size 18 ∈ I13
        let mut b = shared.clone();
        b.push(100); // size 19 ∈ I14, Js = 18/19 = 0.947 ≥ 0.9
        assert_eq!(scheme.intervals().interval_of(18), Ok(13));
        assert_eq!(scheme.intervals().interval_of(19), Ok(14));
        assert!(jaccard(&a, &b) >= gamma);
        assert!(share_sig(&scheme, &a, &b));
    }

    #[test]
    fn size_filtering_blocks_distant_sizes() {
        // Example 5's point: r10 (∈ R9, R10) and s13 (∈ S11, S12) never meet.
        let scheme = PartEnumJaccard::new(0.9, 30, 11).unwrap();
        let a: Vec<u32> = (0..10).collect(); // size 10
        let b: Vec<u32> = (0..13).collect(); // size 13, superset!
                                             // Even though b ⊃ a, Js = 10/13 ≈ 0.77 < 0.9 and instances differ.
        assert!(!share_sig(&scheme, &a, &b));
    }

    #[test]
    fn empty_sets_join_each_other_only() {
        let scheme = PartEnumJaccard::new(0.8, 20, 0).unwrap();
        assert!(share_sig(&scheme, &[], &[]));
        assert!(!share_sig(&scheme, &[], &[1, 2, 3]));
    }

    #[test]
    fn gamma_validation() {
        assert!(PartEnumJaccard::new(0.0, 10, 0).is_err());
        assert!(PartEnumJaccard::new(1.5, 10, 0).is_err());
        assert!(PartEnumJaccard::new(1.0, 10, 0).is_ok());
    }

    #[test]
    fn gamma_one_matches_exact_duplicates() {
        let scheme = PartEnumJaccard::new(1.0, 10, 4).unwrap();
        assert!(share_sig(&scheme, &[1, 2, 3], &[1, 2, 3]));
        assert!(!share_sig(&scheme, &[1, 2, 3], &[1, 2, 4]));
    }

    #[test]
    fn signatures_per_set_accounts_two_instances() {
        let scheme = PartEnumJaccard::new(0.8, 50, 2).unwrap();
        let n = scheme.signatures_per_set(20);
        let sigs = scheme.signatures(&(0..20).collect::<Vec<_>>());
        assert_eq!(sigs.len(), n);
        assert_eq!(scheme.signatures_per_set(0), 1);
    }

    #[test]
    fn custom_params_hook_is_used() {
        let scheme = PartEnumJaccard::with_params(0.8, 40, 9, PartEnumParams::default_for).unwrap();
        let i = scheme.intervals().interval_of(30).unwrap();
        let k = scheme.intervals().hamming_threshold(i);
        assert_eq!(
            scheme.instance(i).unwrap().params(),
            PartEnumParams::default_for(k)
        );
    }
}
