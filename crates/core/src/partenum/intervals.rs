//! Figure 6, written once: the size intervals of Section 5 and the core
//! every interval scheme shares — one hamming instance per interval and the
//! routing of each set to instances `i` and `i+1`.
//!
//! [`PartEnumJaccard`](super::PartEnumJaccard), the interval half of
//! [`GeneralPartEnum`](super::GeneralPartEnum) and
//! [`ReplicatedPartEnumJaccard`](crate::replicated::ReplicatedPartEnumJaccard)
//! all hold one crate-private `IntervalInstances`; they differ only in the
//! predicate, the instance seeds and tags, and (for replication) what they
//! sign.

use super::hamming::PartEnumHamming;
use super::params::PartEnumParams;
use crate::error::{Result, SsjError};
use crate::hash::SigBuilder;
use crate::predicate::{floor_tol, Predicate};
use crate::signature::Signature;

/// A partition of the positive integers into intervals
/// `I1 = [1,1]`, `Ii = [l_i, r_i]` with `l_i = r_{i−1} + 1` and
/// `r_i = ⌊l_i / γ⌋` (Figure 6).
///
/// Lemma 1 gives: if `Js(r, s) ≥ γ` and `|s| ∈ Ii` then
/// `|r| ∈ I_{i−1} ∪ I_i ∪ I_{i+1}`, which is why each set is routed to two
/// consecutive PartEnum instances.
#[derive(Debug, Clone)]
pub struct SizeIntervals {
    gamma: f64,
    /// `bounds[i] = r_i` (1-based intervals; `bounds[0] = 0` is a sentinel
    /// standing for `r_0`, so `l_1 = 1`).
    bounds: Vec<usize>,
}

impl SizeIntervals {
    /// Builds all intervals needed to cover sizes up to `max_size`, at
    /// ratio `gamma ∈ (0, 1]`: the jaccard threshold, or in general a
    /// predicate's [`Predicate::interval_ratio`].
    pub fn new(gamma: f64, max_size: usize) -> Self {
        assert!(gamma > 0.0 && gamma <= 1.0, "gamma must be in (0, 1]");
        let mut bounds = vec![0usize];
        let mut last = 0usize;
        while last < max_size {
            let l = last + 1;
            // r_i = floor(l_i / γ), but never below l_i (γ ≤ 1 guarantees
            // this mathematically; the max is fp-noise armor).
            let r = floor_tol(l as f64 / gamma).max(l);
            bounds.push(r);
            last = r;
        }
        crate::invariants::assert_interval_cover(&bounds, max_size);
        Self { gamma, bounds }
    }

    /// The jaccard threshold the intervals were built for.
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    /// Number of intervals.
    pub fn count(&self) -> usize {
        self.bounds.len() - 1
    }

    /// The largest size the intervals cover (`r` of the last interval).
    pub fn max_size(&self) -> usize {
        self.bounds.last().copied().unwrap_or(0)
    }

    /// Whether `size` falls inside the covered range `[1, max_size]`.
    pub fn covers(&self, size: usize) -> bool {
        size >= 1 && size <= self.max_size()
    }

    /// The 1-based interval index containing `size`.
    ///
    /// # Errors
    /// [`SsjError::SizeOutOfRange`] if `size` is 0 or beyond
    /// [`Self::max_size`]. Sets routed through the public scheme APIs never
    /// hit the error arm (construction sizes the intervals to the
    /// collection); it exists so *query-time* sizes outside the indexed
    /// range surface as clean errors instead of worker panics.
    pub fn interval_of(&self, size: usize) -> Result<usize> {
        if !self.covers(size) {
            return Err(SsjError::SizeOutOfRange {
                size,
                max: self.max_size(),
            });
        }
        // bounds is strictly increasing; find the first r_i >= size.
        Ok(self.bounds.partition_point(|&r| r < size))
    }

    /// The `[l_i, r_i]` bounds of 1-based interval `i`.
    pub fn interval(&self, i: usize) -> (usize, usize) {
        assert!(
            i >= 1 && i < self.bounds.len(),
            "interval index out of range"
        );
        (self.bounds[i - 1] + 1, self.bounds[i])
    }

    /// The hamming threshold of PartEnum instance `i` (Figure 6, step (c)):
    /// `k_i = ⌊2·(1−γ)/(1+γ)·r_i⌋`.
    ///
    /// Any joining pair routed to instance `i` has both sizes ≤ `r_i`, so
    /// `Hd(r, s) ≤ (1−γ)/(1+γ)·(|r|+|s|) ≤ 2·(1−γ)/(1+γ)·r_i` (Section 5),
    /// and hamming distance is integral, justifying the floor.
    pub fn hamming_threshold(&self, i: usize) -> usize {
        let (_, r) = self.interval(i);
        floor_tol(2.0 * (1.0 - self.gamma) / (1.0 + self.gamma) * r as f64)
    }
}

/// The Figure 6 core: [`SizeIntervals`] at a predicate's interval ratio,
/// one [`PartEnumHamming`] instance per interval, and the router that signs
/// a set of size in `I_i` with instances `i` and `i+1`.
#[derive(Debug, Clone)]
pub(crate) struct IntervalInstances {
    intervals: SizeIntervals,
    /// `instances[i]` is instance `i+1` (1-based).
    instances: Vec<PartEnumHamming>,
}

impl IntervalInstances {
    /// Builds intervals at [`Predicate::interval_ratio`] covering sizes up
    /// to `max_set_size` plus one interval (a set in the last requested
    /// interval `I_m` also emits for instance `m+1`). Instance `i` gets
    /// `k_i`, the largest [`Predicate::hamming_bound`] at the corner sizes
    /// of the pairs it can see (both in `[l_{i−1}, r_i]`); for jaccard this
    /// is [`SizeIntervals::hamming_threshold`] bit for bit. `params` maps
    /// `k_i` to its `(n1, n2)`; `key` maps the 1-based instance number to
    /// the instance's `(seed, tag)`.
    pub(crate) fn build(
        pred: Predicate,
        max_set_size: usize,
        params: impl Fn(usize) -> PartEnumParams,
        key: impl Fn(u64) -> (u64, u64),
    ) -> Result<Self> {
        let ratio = pred
            .interval_ratio()
            .filter(|&ratio| ratio > 0.0 && ratio <= 1.0)
            .ok_or_else(|| {
                SsjError::InvalidParams(format!("{pred:?} has no interval ratio in (0, 1]"))
            })?;
        let intervals = SizeIntervals::new(ratio, max_set_size.max(1) + 1);
        let mut instances = Vec::with_capacity(intervals.count());
        for i in 1..=intervals.count() {
            let (lo, r) = (intervals.interval(i.max(2) - 1).0, intervals.interval(i).1);
            // The supported predicates' bounds are monotone, so the corners
            // suffice; the max over three covers either monotone direction.
            let k = [(lo, r), (r, r), (lo, lo)]
                .iter()
                .filter_map(|&(a, b)| pred.hamming_bound(a, b))
                .max()
                .ok_or_else(|| {
                    SsjError::UnsupportedPredicate(format!("{pred:?} has no hamming bound"))
                })?;
            // Each instance carries its own seed and its instance number in
            // the tag, so instances never share a signature (steps 3–6).
            let (seed, tag) = key(i as u64);
            instances.push(PartEnumHamming::with_tag(k, params(k), seed, tag)?);
        }
        Ok(Self {
            intervals,
            instances,
        })
    }

    /// The size intervals in use.
    pub(crate) fn intervals(&self) -> &SizeIntervals {
        &self.intervals
    }

    /// The hamming instance for 1-based interval `i`, if covered.
    pub(crate) fn instance(&self, i: usize) -> Option<&PartEnumHamming> {
        self.instances.get(i.checked_sub(1)?)
    }

    /// Figure 6's routing: `len ∈ I_i` goes to instances `i` and `i+1`
    /// (only `i` past the last interval); 0 and uncovered sizes get none.
    fn instances_for_size(&self, len: usize) -> &[PartEnumHamming] {
        match self.intervals.interval_of(len) {
            Ok(i) => self
                .instances
                .get(i - 1..self.instances.len().min(i + 1))
                .unwrap_or_default(),
            Err(_) => &[],
        }
    }

    /// Signatures a set of `len` elements emits: 1 (the sentinel) when
    /// empty, 0 past the covered range.
    pub(crate) fn signatures_per_set(&self, len: usize) -> usize {
        if len == 0 {
            return 1;
        }
        self.instances_for_size(len)
            .iter()
            .map(PartEnumHamming::signatures_per_vector)
            .sum()
    }

    /// Signs a set of `len` elements, running `sign_with` once per routed
    /// instance. An empty set joins only other empty sets under every
    /// interval predicate, so it emits one constant sentinel (its tag is
    /// domain-separated from every instance tag). A set past the covered
    /// range emits nothing, as no instance exists to sign it exactly:
    /// callers that index such sets use the fallible entry points
    /// ([`crate::index::SimilarityIndex::try_insert`]) or scan, and the
    /// debug-build completeness invariants catch any path that forgets.
    #[inline]
    pub(crate) fn sign_by_size(
        &self,
        len: usize,
        out: &mut Vec<Signature>,
        mut sign_with: impl FnMut(&PartEnumHamming, &mut Vec<Signature>),
    ) {
        if len == 0 {
            let mut sig = SigBuilder::new(u64::MAX);
            sig.push(0);
            out.push(sig.finish());
            return;
        }
        for pe in self.instances_for_size(len) {
            sign_with(pe, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::{ceil_tol, floor_tol};

    #[test]
    fn example5_intervals() {
        // Example 5 (γ = 0.9): I1=[1,1], I8=[8,8], I9=[9,10], I13=[17,18],
        // I14=[19,21].
        let iv = SizeIntervals::new(0.9, 21);
        assert_eq!(iv.interval(1), (1, 1));
        assert_eq!(iv.interval(8), (8, 8));
        assert_eq!(iv.interval(9), (9, 10));
        assert_eq!(iv.interval(13), (17, 18));
        assert_eq!(iv.interval(14), (19, 21));
    }

    #[test]
    fn intervals_partition_the_range() {
        for &gamma in &[0.5, 0.8, 0.85, 0.9, 0.95, 1.0] {
            let iv = SizeIntervals::new(gamma, 500);
            let mut expected_l = 1;
            for i in 1..=iv.count() {
                let (l, r) = iv.interval(i);
                assert_eq!(l, expected_l, "gamma={gamma} i={i}");
                assert!(r >= l);
                expected_l = r + 1;
            }
            // Every size maps into the interval that contains it.
            for size in 1..=500 {
                let i = iv.interval_of(size).expect("covered size");
                let (l, r) = iv.interval(i);
                assert!(l <= size && size <= r, "gamma={gamma} size={size}");
            }
            assert!(iv.max_size() >= 500);
            assert!(iv.covers(500) && !iv.covers(0));
        }
    }

    #[test]
    fn gamma_one_gives_singleton_intervals() {
        let iv = SizeIntervals::new(1.0, 10);
        for i in 1..=10 {
            assert_eq!(iv.interval(i), (i, i));
            assert_eq!(iv.hamming_threshold(i), 0);
        }
    }

    #[test]
    fn lemma1_neighbors_suffice() {
        // If Js(r,s) ≥ γ and |s| ∈ Ii then |r| ∈ I_{i−1} ∪ I_i ∪ I_{i+1}:
        // check the size arithmetic for every (γ, size) in range.
        for &gamma in &[0.7, 0.8, 0.9, 0.95] {
            let iv = SizeIntervals::new(gamma, 3000);
            for s_size in 1..=1000usize {
                let i = iv.interval_of(s_size).expect("covered size");
                // Lemma 1: γ·|s| ≤ |r| ≤ |s|/γ. Tolerant rounding — a raw
                // `.ceil()`/`.floor()` turns float noise (0.07·100 =
                // 7.000000000000001) into an off-by-one that silently
                // skips the true boundary size.
                let lo = ceil_tol(gamma * s_size as f64);
                let hi = floor_tol(s_size as f64 / gamma);
                for r_size in [lo.max(1), hi] {
                    let j = iv.interval_of(r_size).expect("covered size");
                    assert!(
                        j + 1 >= i && j <= i + 1,
                        "gamma={gamma} |s|={s_size} (I{i}) |r|={r_size} (I{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn lemma1_bounds_match_rational_arithmetic() {
        // γ = 7/10: the exact Lemma 1 bounds are ⌈7s/10⌉ and ⌊10s/7⌋.
        // Binary float noise must not shift either of them — the raw
        // `.ceil() as usize` this replaces got ⌈γ·s⌉ wrong whenever the
        // product landed a ulp above the true integer.
        for s in 1..=1000usize {
            assert_eq!(ceil_tol(0.7 * s as f64), (7 * s).div_ceil(10), "s={s}");
            assert_eq!(floor_tol(s as f64 / 0.7), 10 * s / 7, "s={s}");
        }
    }

    #[test]
    fn hamming_threshold_example() {
        // γ = 0.9, I9 = [9,10]: k_9 = floor(2·0.1/1.9·10) = floor(1.05) = 1.
        let iv = SizeIntervals::new(0.9, 21);
        assert_eq!(iv.hamming_threshold(9), 1);
        // I14 = [19,21]: k = floor(2·0.1/1.9·21) = floor(2.21) = 2.
        assert_eq!(iv.hamming_threshold(14), 2);
    }

    #[test]
    fn core_thresholds_are_the_jaccard_formula() {
        // The core's corner-maximum of `hamming_bound` is Figure 6's k_i
        // bit for bit, so PartEnumJaccard's instances did not change.
        for gamma in [0.1, 0.3, 0.5, 2.0 / 3.0, 0.7, 0.8, 0.85, 0.9, 1.0] {
            let core = IntervalInstances::build(
                Predicate::Jaccard { gamma },
                300,
                PartEnumParams::default_for,
                |i| (i, i),
            )
            .expect("valid gamma");
            let iv = core.intervals();
            for i in 1..=iv.count() {
                let pe = core.instance(i).expect("one instance per interval");
                assert_eq!(pe.k(), iv.hamming_threshold(i), "gamma={gamma} i={i}");
            }
        }
    }

    #[test]
    fn router_signs_two_instances_a_sentinel_or_nothing() {
        let core = IntervalInstances::build(
            Predicate::Jaccard { gamma: 0.9 },
            21,
            PartEnumParams::default_for,
            |i| (i, i),
        )
        .expect("valid gamma");
        let mut calls = Vec::new();
        let mut out = Vec::new();
        // Example 5: 19 ∈ I14, so instances 14 and 15 sign it.
        core.sign_by_size(19, &mut out, |pe, _| calls.push(pe.k()));
        let (k14, k15) = (
            core.intervals().hamming_threshold(14),
            core.intervals().hamming_threshold(15),
        );
        assert_eq!(calls, [k14, k15]);
        assert!(out.is_empty());
        core.sign_by_size(0, &mut out, |_, _| {
            unreachable!("empty sets use the sentinel")
        });
        assert_eq!(out.len(), 1);
        assert_eq!(core.signatures_per_set(0), 1);
        let past = core.intervals().max_size() + 1;
        core.sign_by_size(past, &mut out, |_, _| unreachable!("uncovered size"));
        assert_eq!(out.len(), 1);
        assert_eq!(core.signatures_per_set(past), 0);
    }

    #[test]
    fn interval_of_rejects_uncovered_sizes() {
        let iv = SizeIntervals::new(0.9, 10);
        assert_eq!(
            iv.interval_of(0),
            Err(SsjError::SizeOutOfRange {
                size: 0,
                max: iv.max_size()
            })
        );
        let err = iv.interval_of(1000).expect_err("beyond covered range");
        assert!(matches!(err, SsjError::SizeOutOfRange { size: 1000, .. }));
        assert!(err.to_string().contains("beyond covered range"));
    }
}
