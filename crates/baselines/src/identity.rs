//! The identity signature scheme (Section 3.3): `Sign(s) = s`.
//!
//! This is the scheme implicitly used by the Probe-Count and Pair-Count
//! algorithms of Sarawagi & Kirpal \[22\]: every element is a signature, so
//! any pair sharing at least one element becomes a candidate. Exact for
//! every predicate that implies a non-empty intersection, with no
//! quantifiable filtering effectiveness — the reference point the paper's
//! Section 3.2 discussion contrasts against.

use ssj_core::set::ElementId;
use ssj_core::signature::{Signature, SignatureScheme};

/// `Sign(s) = s`. Candidates are all pairs sharing an element.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdentityScheme;

impl SignatureScheme for IdentityScheme {
    fn signatures_into(&self, set: &[ElementId], out: &mut Vec<Signature>) {
        if set.is_empty() {
            // Js(∅, ∅) = 1 (likewise dice): a pair of empty sets can
            // satisfy a similarity predicate despite sharing no element,
            // so empty sets must collide with each other. Elements are
            // u32s, so a sentinel above u32::MAX can never collide with a
            // real element's signature; for intersection predicates the
            // spurious ∅/∅ candidates are discarded by verification.
            out.push(Signature::MAX);
            return;
        }
        out.extend(set.iter().map(|&e| e as Signature));
    }

    fn name(&self) -> &'static str {
        "ID"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssj_core::join::{self_join, JoinOptions};
    use ssj_core::predicate::Predicate;
    use ssj_core::set::SetCollection;

    #[test]
    fn signatures_are_elements() {
        assert_eq!(IdentityScheme.signatures(&[3, 7, 11]), vec![3, 7, 11]);
    }

    // Minimized from `cargo xtask difftest --replay 1 --schemes identity`:
    // Js(∅, ∅) = 1 ≥ γ, but the scheme emitted no signatures for empty
    // sets, so every (∅, ∅) pair was silently dropped.
    #[test]
    fn empty_sets_join_each_other_under_jaccard() {
        assert_eq!(IdentityScheme.signatures(&[]), vec![Signature::MAX]);
        let c: SetCollection = vec![vec![], vec![1, 2], vec![]].into_iter().collect();
        for threads in [1, 2, 8] {
            let result = self_join(
                &IdentityScheme,
                &c,
                Predicate::Jaccard { gamma: 0.05 },
                None,
                JoinOptions::parallel(threads),
            );
            assert_eq!(result.pairs, vec![(0, 2)], "threads = {threads}");
        }
    }

    #[test]
    fn exact_for_overlap_predicates() {
        let c: SetCollection = vec![vec![1, 2, 3], vec![2, 3, 4], vec![10, 11], vec![3, 20, 21]]
            .into_iter()
            .collect();
        let result = self_join(
            &IdentityScheme,
            &c,
            Predicate::Overlap { t: 2 },
            None,
            JoinOptions::default(),
        );
        assert_eq!(result.pairs, vec![(0, 1)]);
        // Candidates include every element-sharing pair, i.e. also (0,3),(1,3).
        assert_eq!(result.stats.candidate_pairs, 3);
    }
}
