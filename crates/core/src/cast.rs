//! Checked narrowing conversions for id-sized integers, and the one
//! float-to-integer conversion.
//!
//! ssj-core denies `clippy::{cast_possible_truncation, cast_sign_loss,
//! cast_possible_wrap}` outside tests (see the crate root): a silent wrap
//! on a set id or arena offset corrupts join output instead of failing.
//! The integer conversions that remain go through these helpers, which
//! debug-assert the value fits and saturate (never wrap) in release builds.
//!
//! Saturation is a defense in depth, not a code path: the values converted
//! here are bounded at the source — [`crate::set::SetCollection`] rejects
//! more than `u32::MAX` sets or elements at insertion, encoded candidate
//! pairs carry 32-bit halves by construction, and second-level partition
//! indices are ≤ 32.
//!
//! Float-to-integer rounding goes through [`usize_of_f64`], whose only
//! callers are [`crate::predicate::ceil_tol`] /
//! [`crate::predicate::floor_tol`], the optimiser's sample scaling and the
//! weight quantisation in [`crate::replicated`]. Float noise at an integer
//! boundary shifts a candidate-generation bound by one and drops valid
//! pairs, so Lemma-1 bounds round with a tolerance, never with a raw
//! `.ceil() as usize`.

use crate::set::SetId;

/// Converts a collection index to a [`SetId`].
#[inline]
pub fn set_id(i: usize) -> SetId {
    debug_assert!(SetId::try_from(i).is_ok(), "set id {i} exceeds u32 range");
    SetId::try_from(i).unwrap_or(SetId::MAX)
}

/// Extracts a [`SetId`] from one 32-bit half of an encoded candidate pair.
#[inline]
pub fn set_id_u64(i: u64) -> SetId {
    debug_assert!(SetId::try_from(i).is_ok(), "set id {i} exceeds u32 range");
    SetId::try_from(i).unwrap_or(SetId::MAX)
}

/// Converts a small index (arena offset, partition number, bitmask) to u32.
#[inline]
pub fn u32_of(i: usize) -> u32 {
    debug_assert!(u32::try_from(i).is_ok(), "value {i} exceeds u32 range");
    u32::try_from(i).unwrap_or(u32::MAX)
}

/// Converts a u64 known to hold a 32-bit value (e.g. a ≤ 32-bit bitmask).
#[inline]
pub fn u32_of_u64(i: u64) -> u32 {
    debug_assert!(u32::try_from(i).is_ok(), "value {i} exceeds u32 range");
    u32::try_from(i).unwrap_or(u32::MAX)
}

/// Converts a u64 known to hold a platform-word value (e.g. a signature
/// arena offset bounded by the arena's length).
#[inline]
pub fn usize_of_u64(i: u64) -> usize {
    debug_assert!(usize::try_from(i).is_ok(), "value {i} exceeds usize range");
    usize::try_from(i).unwrap_or(usize::MAX)
}

/// Converts a float to `usize` the way `as` does: truncating toward zero,
/// NaN and negatives to 0, values past `usize::MAX` to `usize::MAX`.
#[inline]
#[expect(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "the crate's one float-to-integer cast; `as` saturates, which is the conversion wanted"
)]
pub fn usize_of_f64(x: f64) -> usize {
    x as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_range_values_round_trip() {
        assert_eq!(set_id(0), 0);
        assert_eq!(set_id(123_456), 123_456);
        assert_eq!(set_id_u64((1u64 << 32) - 1), u32::MAX);
        assert_eq!(u32_of(31), 31);
        assert_eq!(u32_of_u64(0xffff_ffff), u32::MAX);
        assert_eq!(usize_of_u64(0), 0);
        assert_eq!(usize_of_u64(1 << 40), 1usize << 40);
        assert_eq!(usize_of_f64(18.0), 18);
        assert_eq!(usize_of_f64(17.999), 17);
    }

    #[test]
    fn float_conversion_saturates() {
        assert_eq!(usize_of_f64(-3.5), 0);
        assert_eq!(usize_of_f64(f64::NAN), 0);
        assert_eq!(usize_of_f64(1e300), usize::MAX);
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn release_builds_saturate() {
        assert_eq!(set_id(usize::MAX), SetId::MAX);
        assert_eq!(u32_of_u64(u64::MAX), u32::MAX);
    }

    #[test]
    #[should_panic(expected = "exceeds u32 range")]
    #[cfg(debug_assertions)]
    fn debug_builds_catch_overflow() {
        let _ = set_id(usize::MAX);
    }
}
