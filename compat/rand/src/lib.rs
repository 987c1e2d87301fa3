//! Offline drop-in subset of the `rand` 0.8 API.
//!
//! The build environment for this workspace has no access to crates.io, so
//! the workspace pins `rand` to this local implementation. It covers exactly
//! the surface the workspace uses — [`Rng::gen`], [`Rng::gen_range`],
//! [`Rng::gen_bool`], [`SeedableRng::seed_from_u64`], [`rngs::StdRng`], and
//! [`seq::SliceRandom`] — backed by a splitmix64 generator.
//!
//! Streams are deterministic per seed but are **not** bit-compatible with
//! crates.io `rand` (`StdRng` there is ChaCha12). Nothing in the workspace
//! depends on the exact stream, only on per-seed reproducibility.

#![warn(missing_docs)]

use std::ops::{Range, RangeInclusive};

/// Low-level source of randomness: everything is derived from `next_u64`.
pub trait RngCore {
    /// Returns the next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// Returns the next 32 random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// A uniform double in `[0, 1)` using the top 53 bits.
fn unit_f64(rng: &mut dyn RngCore) -> f64 {
    const SCALE: f64 = 1.0 / ((1u64 << 53) as f64);
    (rng.next_u64() >> 11) as f64 * SCALE
}

/// Types samplable uniformly over their whole domain (`rand`'s `Standard`).
pub trait Standard: Sized {
    /// Draws a uniform value.
    fn sample_standard(rng: &mut dyn RngCore) -> Self;
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn sample_standard(rng: &mut dyn RngCore) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Standard for bool {
    fn sample_standard(rng: &mut dyn RngCore) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    fn sample_standard(rng: &mut dyn RngCore) -> Self {
        unit_f64(rng)
    }
}

impl Standard for f32 {
    fn sample_standard(rng: &mut dyn RngCore) -> Self {
        unit_f64(rng) as f32
    }
}

/// Ranges samplable by [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draws a uniform value from the range.
    fn sample_range(self, rng: &mut dyn RngCore) -> T;
}

/// Maps `next_u64` into `[0, span)` by 128-bit multiply-shift.
fn mul_shift(rng: &mut dyn RngCore, span: u128) -> u128 {
    (u128::from(rng.next_u64()) * span) >> 64
}

macro_rules! impl_sample_range_int {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_range(self, rng: &mut dyn RngCore) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as i128 - self.start as i128) as u128;
                (self.start as i128 + mul_shift(rng, span) as i128) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_range(self, rng: &mut dyn RngCore) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                (lo as i128 + mul_shift(rng, span) as i128) as $t
            }
        }
    )*};
}
impl_sample_range_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_sample_range_float {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_range(self, rng: &mut dyn RngCore) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                self.start + (self.end - self.start) * unit_f64(rng) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_range(self, rng: &mut dyn RngCore) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                lo + (hi - lo) * unit_f64(rng) as $t
            }
        }
    )*};
}
impl_sample_range_float!(f32, f64);

/// User-facing random-value methods, implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// Draws a uniform value of an inferred type.
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample_standard(self)
    }

    /// Draws a uniform value from `range` (half-open or inclusive).
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T
    where
        Self: Sized,
    {
        range.sample_range(self)
    }

    /// Returns `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!(
            (0.0..=1.0).contains(&p),
            "gen_bool probability out of range"
        );
        unit_f64(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Construction of seeded generators.
pub trait SeedableRng: Sized {
    /// Builds a generator whose stream is a pure function of `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Concrete generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// splitmix64 finalizer: bijective avalanche mix on `u64`.
    fn splitmix(mut x: u64) -> u64 {
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    /// The workspace's standard seeded generator (splitmix64 counter mode).
    #[derive(Debug, Clone)]
    pub struct StdRng {
        state: u64,
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            // Pre-mix so nearby seeds give unrelated streams.
            Self {
                state: splitmix(seed ^ 0x9e37_79b9_7f4a_7c15),
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            splitmix(self.state)
        }
    }

    /// Alias: the workspace treats small and standard RNGs identically.
    pub type SmallRng = StdRng;
}

/// Random operations on slices.
pub mod seq {
    use super::Rng;

    /// Subset of `rand::seq::SliceRandom`: uniform choice and Fisher–Yates
    /// shuffle.
    pub trait SliceRandom {
        /// Element type of the slice.
        type Item;

        /// Uniformly picks one element (`None` on an empty slice).
        fn choose<R: Rng>(&self, rng: &mut R) -> Option<&Self::Item>;

        /// Shuffles the slice in place (Fisher–Yates).
        fn shuffle<R: Rng>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn choose<R: Rng>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                self.get(rng.gen_range(0..self.len()))
            }
        }

        fn shuffle<R: Rng>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                self.swap(i, rng.gen_range(0..=i));
            }
        }
    }
}

/// The conventional `use rand::prelude::*;` import set.
pub mod prelude {
    pub use super::rngs::{SmallRng, StdRng};
    pub use super::seq::SliceRandom;
    pub use super::{Rng, RngCore, SeedableRng};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn seeded_streams_are_reproducible_and_seed_sensitive() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        let mut c = StdRng::seed_from_u64(8);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let v = rng.gen_range(10..20);
            assert!((10..20).contains(&v));
            let w = rng.gen_range(5u32..=5);
            assert_eq!(w, 5);
            let f = rng.gen_range(0.5f64..2.0);
            assert!((0.5..2.0).contains(&f));
            let i = rng.gen_range(-3i32..3);
            assert!((-3..3).contains(&i));
        }
    }

    #[test]
    fn gen_range_covers_domain() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            seen[rng.gen_range(0usize..10)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = StdRng::seed_from_u64(3);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((2000..3000).contains(&hits), "hits={hits}");
    }

    #[test]
    fn choose_and_shuffle() {
        let mut rng = StdRng::seed_from_u64(4);
        let items = [1, 2, 3];
        assert!(items.contains(items.choose(&mut rng).unwrap()));
        let empty: [u8; 0] = [];
        assert!(empty.choose(&mut rng).is_none());

        let mut v: Vec<u32> = (0..100).collect();
        let orig = v.clone();
        v.shuffle(&mut rng);
        assert_ne!(v, orig, "astronomically unlikely to be identity");
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, orig, "shuffle is a permutation");
    }

    #[test]
    fn standard_samples() {
        let mut rng = StdRng::seed_from_u64(5);
        let f: f64 = rng.gen();
        assert!((0.0..1.0).contains(&f));
        let _: u32 = rng.gen();
        let _: bool = rng.gen();
    }
}
