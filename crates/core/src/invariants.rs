//! Debug-build invariant assertions.
//!
//! The paper's correctness argument leans on three structural invariants
//! that are cheap to state and expensive to violate silently:
//!
//! 1. **Canonical sets** — every stored set is strictly sorted and
//!    deduplicated (Section 2's set model; every similarity kernel assumes
//!    it).
//! 2. **Candidate completeness** — a signature scheme claiming exactness
//!    must produce candidate sets that are supersets of the true join
//!    result (Section 3's correctness property, Theorem 1 for PartEnum,
//!    Theorem 5 for WtEnum).
//! 3. **Interval coverage** — the Figure 6 size intervals partition the
//!    whole covered size range contiguously, which is what makes the
//!    Lemma 1 `i−1/i/i+1` routing exhaustive.
//!
//! Every check here is gated on `cfg(debug_assertions)` (and, for the
//! quadratic completeness check, on small inputs), so release builds pay
//! nothing. Violations panic — these are bugs, not recoverable states.

use crate::predicate::Predicate;
use crate::set::{ElementId, SetCollection, SetId, WeightMap};

/// Largest collection the O(n²) candidate-completeness check will scan.
/// Beyond this the check silently does nothing, even in debug builds.
pub const COMPLETENESS_CHECK_MAX_SETS: usize = 64;

/// Asserts (debug only) that `set` is strictly sorted and deduplicated.
#[inline]
pub fn assert_canonical(set: &[ElementId]) {
    debug_assert!(
        set.windows(2).all(|w| w[0] < w[1]),
        "set must be strictly sorted and deduplicated"
    );
}

/// Whether `b` is among set `a`'s partners in the partner-list layout of
/// [`crate::partners`]: `partners[offsets[a]..offsets[a + 1]]`, ascending.
fn has_partner(offsets: &[usize], partners: &[SetId], a: usize, b: SetId) -> bool {
    offsets.get(a + 1).is_some_and(|&end| {
        partners
            .get(offsets[a]..end)
            .is_some_and(|list| list.binary_search(&b).is_ok())
    })
}

/// Asserts (debug only, small inputs only) that the candidate partner
/// lists of a **self-join** form a superset of the true result under
/// `pred`.
///
/// Set `a`'s candidates are `partners[offsets[a]..offsets[a + 1]]`: its
/// partners above `a`, ascending — exactly what the join driver's
/// candidate generation produces.
pub fn assert_self_candidates_complete(
    offsets: &[usize],
    partners: &[SetId],
    collection: &SetCollection,
    pred: Predicate,
    weights: Option<&WeightMap>,
) {
    if !cfg!(debug_assertions) || collection.len() > COMPLETENESS_CHECK_MAX_SETS {
        return;
    }
    for a in 0..collection.len() {
        for b in (a + 1)..collection.len() {
            let (ia, ib) = (crate::cast::set_id(a), crate::cast::set_id(b));
            if pred.evaluate(collection.set(ia), collection.set(ib), weights) {
                assert!(
                    has_partner(offsets, partners, a, ib),
                    "exact scheme dropped true pair ({ia}, {ib}) under {pred:?}: \
                     candidate set is not a superset of the result"
                );
            }
        }
    }
}

/// Asserts (debug only, small inputs only) that the candidate partner
/// lists of a **binary join** `R ⋈ S` (each R set's S partners) form a
/// superset of the true result.
pub fn assert_binary_candidates_complete(
    offsets: &[usize],
    partners: &[SetId],
    r: &SetCollection,
    s: &SetCollection,
    pred: Predicate,
    weights: Option<&WeightMap>,
) {
    if !cfg!(debug_assertions)
        || r.len() > COMPLETENESS_CHECK_MAX_SETS
        || s.len() > COMPLETENESS_CHECK_MAX_SETS
    {
        return;
    }
    for a in 0..r.len() {
        for b in 0..s.len() {
            let (ia, ib) = (crate::cast::set_id(a), crate::cast::set_id(b));
            if pred.evaluate(r.set(ia), s.set(ib), weights) {
                assert!(
                    has_partner(offsets, partners, a, ib),
                    "exact scheme dropped true pair ({ia}, {ib}) under {pred:?}: \
                     candidate set is not a superset of the result"
                );
            }
        }
    }
}

/// Asserts (debug only) that interval bounds `[r_0 = 0, r_1, …, r_m]` cover
/// the size range `[1, max_size]` contiguously: strictly increasing bounds
/// with no gaps, last bound at or beyond `max_size` (Figure 6 step (a),
/// the precondition of Lemma 1's neighbor routing).
#[inline]
pub fn assert_interval_cover(bounds: &[usize], max_size: usize) {
    if !cfg!(debug_assertions) {
        return;
    }
    debug_assert!(
        bounds.first() == Some(&0),
        "interval bounds must start at the r_0 = 0 sentinel"
    );
    debug_assert!(
        bounds.windows(2).all(|w| w[0] < w[1]),
        "interval bounds must be strictly increasing (each interval non-empty)"
    );
    debug_assert!(
        bounds.last().copied().unwrap_or(0) >= max_size,
        "intervals must cover sizes up to {max_size}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_accepts_sorted_sets() {
        assert_canonical(&[]);
        assert_canonical(&[7]);
        assert_canonical(&[1, 2, 9]);
    }

    #[test]
    #[should_panic(expected = "strictly sorted")]
    #[cfg(debug_assertions)]
    fn canonical_rejects_duplicates() {
        assert_canonical(&[1, 1, 2]);
    }

    #[test]
    fn completeness_passes_for_true_superset() {
        let c = SetCollection::from_sets(vec![vec![1, 2, 3], vec![1, 2, 3, 4], vec![9]]);
        // (0,1) is the only jaccard-0.7 pair; list it plus one extra (0,2).
        let (offsets, partners) = (vec![0, 2, 2, 2], vec![1, 2]);
        let pred = Predicate::Jaccard { gamma: 0.7 };
        assert_self_candidates_complete(&offsets, &partners, &c, pred, None);
        // As R ⋈ S with R = S every set also matches itself.
        let (offsets, partners) = (vec![0, 2, 4, 5], vec![0, 1, 0, 1, 2]);
        assert_binary_candidates_complete(&offsets, &partners, &c, &c, pred, None);
    }

    #[test]
    #[should_panic(expected = "not a superset")]
    #[cfg(debug_assertions)]
    fn completeness_catches_dropped_pair() {
        let c = SetCollection::from_sets(vec![vec![1, 2, 3], vec![1, 2, 3, 4], vec![9]]);
        // Set 0 lists only set 2: the true pair (0,1) is missing.
        let (offsets, partners) = (vec![0, 1, 1, 1], vec![2]);
        assert_self_candidates_complete(
            &offsets,
            &partners,
            &c,
            Predicate::Jaccard { gamma: 0.7 },
            None,
        );
    }

    #[test]
    #[should_panic(expected = "not a superset")]
    #[cfg(debug_assertions)]
    fn binary_completeness_catches_dropped_pair() {
        let c = SetCollection::from_sets(vec![vec![1, 2, 3], vec![1, 2, 3, 4], vec![9]]);
        // R set 1 lists only S set 1; the true pair (1,0) is missing.
        let (offsets, partners) = (vec![0, 2, 3, 4], vec![0, 1, 1, 2]);
        assert_binary_candidates_complete(
            &offsets,
            &partners,
            &c,
            &c,
            Predicate::Jaccard { gamma: 0.7 },
            None,
        );
    }

    #[test]
    fn interval_cover_accepts_contiguous_bounds() {
        assert_interval_cover(&[0, 1, 2, 4, 8], 8);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    #[cfg(debug_assertions)]
    fn interval_cover_rejects_gapless_violation() {
        assert_interval_cover(&[0, 3, 3, 8], 8);
    }
}
