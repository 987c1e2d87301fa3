//! Edit-distance string similarity joins on top of hamming SSJoins
//! (Section 8.2).
//!
//! Pipeline (Figure 16): strings → n-gram bags (generated on the fly) →
//! occurrence-encoded sets → hamming SSJoin signatures → candidate pairs →
//! **edit-distance** verification on the original strings. Per the paper,
//! the intermediate SSJoin post-filter (checking the hamming predicate on
//! gram sets) is skipped: it cannot remove all false positives anyway, and
//! the paper found it did not help overall performance.
//!
//! **Threshold note.** The paper states `ed(s1, s2) ≤ k ⟹ Hd(grams) ≤ nk`;
//! the bound that is provably safe (and consistent with the paper's own
//! Example 1, where one substitution moves 3-gram sets to hamming distance
//! 4 > 3) is `2nk`: each edit destroys at most `n` grams of one string and
//! creates at most `n` of the other. We run the SSJoin at threshold `2nk`,
//! preserving exactness. See DESIGN.md.

use crate::edit::within_edit_distance;
use crate::tokenize::qgram_set;
use ssj_baselines::{PrefixFilter, PrefixFilterConfig};
use ssj_core::error::Result;
use ssj_core::join::{self_join, JoinOptions};
use ssj_core::partenum::{optimize_hamming, PartEnumHamming, PartEnumParams};
use ssj_core::predicate::Predicate;
use ssj_core::set::{ElementId, SetCollection};
use ssj_core::stats::JoinStats;
use std::time::Instant;

/// Which signature scheme drives the underlying hamming SSJoin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EditJoinScheme {
    /// PartEnum with data-optimized `(n1, n2)` (the paper's PEN, which wins
    /// with `n = 1` grams).
    PartEnum,
    /// Prefix filter (the paper's PF, best at `n = 4–6` grams).
    PrefixFilter,
}

/// Configuration for an edit-distance self-join.
#[derive(Debug, Clone, Copy)]
pub struct EditJoinConfig {
    /// Maximum edit distance `k`.
    pub k: usize,
    /// Gram size `n`. The paper uses `n = 1` for PartEnum ("small element
    /// domains is not a problem for PartEnum, so setting n = 1 gives the
    /// best performance") and `n = 4–6` for prefix filter.
    pub gram: usize,
    /// Underlying signature scheme.
    pub scheme: EditJoinScheme,
    /// Worker threads for the SSJoin phases.
    pub threads: usize,
    /// RNG seed for PartEnum's random partition.
    pub seed: u64,
}

impl EditJoinConfig {
    /// The paper's PEN configuration: 1-grams, PartEnum.
    pub fn partenum(k: usize) -> Self {
        Self {
            k,
            gram: 1,
            scheme: EditJoinScheme::PartEnum,
            threads: 1,
            seed: 0x5eed,
        }
    }

    /// The paper's PF configuration with the given gram size (4–6 in the
    /// experiments).
    pub fn prefix_filter(k: usize, gram: usize) -> Self {
        Self {
            k,
            gram,
            scheme: EditJoinScheme::PrefixFilter,
            threads: 1,
            seed: 0x5eed,
        }
    }

    /// The hamming SSJoin threshold: `2nk` (see module docs).
    pub fn hamming_threshold(&self) -> usize {
        2 * self.gram * self.k
    }
}

/// Result of an edit-distance string join.
#[derive(Debug, Clone)]
pub struct EditJoinResult {
    /// Matching string index pairs `(a, b)`, `a < b`, at edit distance ≤ k.
    pub pairs: Vec<(u32, u32)>,
    /// SSJoin statistics; `verify_secs` covers the edit-distance check and
    /// `false_positives`/`output_pairs` reflect the *string-level* truth.
    pub stats: JoinStats,
}

/// Computes all pairs of `strings` within edit distance `cfg.k` of each
/// other (a self-join), exactly.
///
/// ```
/// use ssj_text::{edit_distance_self_join, EditJoinConfig};
///
/// let strings: Vec<String> = vec![
///     "148th ave ne".into(),
///     "147th ave ne".into(),
///     "totally different".into(),
/// ];
/// let result = edit_distance_self_join(&strings, EditJoinConfig::partenum(1)).unwrap();
/// assert_eq!(result.pairs, vec![(0, 1)]);
/// ```
///
/// # Errors
/// Propagates scheme-construction failures (invalid PartEnum parameters
/// from the optimizer, prefix-filter build errors).
pub fn edit_distance_self_join(strings: &[String], cfg: EditJoinConfig) -> Result<EditJoinResult> {
    let collection: SetCollection = strings.iter().map(|s| qgram_set(s, cfg.gram)).collect();
    let k = cfg.hamming_threshold();
    let pred = Predicate::Hamming { k };
    let opts = JoinOptions {
        threads: cfg.threads.max(1),
        verify: false,
        ..JoinOptions::default()
    };

    // Candidate generation through the generic driver, post-filter disabled
    // (Figure 16 verifies with EDIT on the original strings instead).
    let mut result = match cfg.scheme {
        EditJoinScheme::PartEnum => {
            let params = optimize_partenum_params(&collection, k, cfg.seed);
            let scheme = PartEnumHamming::new(k, params, cfg.seed)?;
            self_join(&scheme, &collection, pred, None, opts)
        }
        EditJoinScheme::PrefixFilter => {
            let scheme = PrefixFilter::build(
                pred,
                &[&collection],
                None,
                PrefixFilterConfig { size_filter: false },
            )?;
            self_join(&scheme, &collection, pred, None, opts)
        }
    };

    let t = Instant::now();
    let pairs: Vec<(u32, u32)> = result
        .pairs
        .iter()
        .copied()
        .filter(|&(a, b)| within_edit_distance(&strings[a as usize], &strings[b as usize], cfg.k))
        .collect();
    result.stats.verify_secs = t.elapsed().as_secs_f64();
    result.stats.output_pairs = pairs.len() as u64;
    result.stats.false_positives = result.stats.candidate_pairs - result.stats.output_pairs;
    Ok(EditJoinResult {
        pairs,
        stats: result.stats,
    })
}

/// Picks PartEnum parameters for the gram-set collection by F2 estimation on
/// a sample (Table 1's procedure applied to the string join).
fn optimize_partenum_params(collection: &SetCollection, k: usize, seed: u64) -> PartEnumParams {
    let step = (collection.len() / 512).max(1);
    let sample: Vec<&[ElementId]> = (0..collection.len())
        .step_by(step)
        .map(|i| collection.set(i as u32))
        .collect();
    optimize_hamming(k, &sample, collection.len(), 256, seed)
}

/// Exposes the gram-set collection used by the join (for F2 reporting in the
/// benchmark harness).
pub fn gram_collection(strings: &[String], gram: usize) -> SetCollection {
    strings.iter().map(|s| qgram_set(s, gram)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edit::levenshtein;
    use rand::prelude::*;

    fn naive_edit_pairs(strings: &[String], k: usize) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        for a in 0..strings.len() {
            for b in a + 1..strings.len() {
                if levenshtein(&strings[a], &strings[b]) <= k {
                    out.push((a as u32, b as u32));
                }
            }
        }
        out
    }

    fn corpus(seed: u64, n: usize) -> Vec<String> {
        let mut rng = StdRng::seed_from_u64(seed);
        let streets = [
            "main st",
            "oak ave",
            "148th ave ne",
            "pine blvd",
            "1st street",
        ];
        let cities = ["seattle", "redmond", "bellevue", "tacoma"];
        let mut out: Vec<String> = (0..n)
            .map(|_| {
                format!(
                    "{} {} {}",
                    rng.gen_range(1..999),
                    streets.choose(&mut rng).expect("non-empty"),
                    cities.choose(&mut rng).expect("non-empty")
                )
            })
            .collect();
        // Typo'd duplicates so the join has output.
        for i in 0..n / 3 {
            let mut s: Vec<u8> = out[i].clone().into_bytes();
            let pos = rng.gen_range(0..s.len());
            s[pos] = b'x';
            out.push(String::from_utf8(s).expect("ascii"));
        }
        out
    }

    #[test]
    fn partenum_edit_join_matches_naive() {
        let strings = corpus(1, 40);
        for k in [1, 2, 3] {
            let result = edit_distance_self_join(&strings, EditJoinConfig::partenum(k)).unwrap();
            let mut got = result.pairs.clone();
            got.sort_unstable();
            let mut expected = naive_edit_pairs(&strings, k);
            expected.sort_unstable();
            assert_eq!(got, expected, "k={k}");
        }
    }

    #[test]
    fn prefix_filter_edit_join_matches_naive() {
        let strings = corpus(2, 40);
        for (k, gram) in [(1, 4), (2, 5), (3, 4)] {
            let result =
                edit_distance_self_join(&strings, EditJoinConfig::prefix_filter(k, gram)).unwrap();
            let mut got = result.pairs.clone();
            got.sort_unstable();
            let mut expected = naive_edit_pairs(&strings, k);
            expected.sort_unstable();
            assert_eq!(got, expected, "k={k} gram={gram}");
        }
    }

    #[test]
    fn stats_reflect_string_level_truth() {
        let strings = corpus(3, 30);
        let result = edit_distance_self_join(&strings, EditJoinConfig::partenum(2)).unwrap();
        let s = &result.stats;
        assert_eq!(s.output_pairs as usize, result.pairs.len());
        assert_eq!(s.output_pairs + s.false_positives, s.candidate_pairs);
        assert!(s.verify_secs >= 0.0);
    }

    #[test]
    fn identical_strings_always_join() {
        let strings: Vec<String> = vec![
            "hello world".into(),
            "hello world".into(),
            "different".into(),
        ];
        let result = edit_distance_self_join(&strings, EditJoinConfig::partenum(1)).unwrap();
        assert!(result.pairs.contains(&(0, 1)));
        assert_eq!(result.pairs.len(), 1);
    }

    #[test]
    fn empty_and_tiny_strings() {
        let strings: Vec<String> = vec!["".into(), "a".into(), "ab".into(), "xyz".into()];
        for k in [1, 2] {
            let result = edit_distance_self_join(&strings, EditJoinConfig::partenum(k)).unwrap();
            let mut got = result.pairs.clone();
            got.sort_unstable();
            let mut expected = naive_edit_pairs(&strings, k);
            expected.sort_unstable();
            assert_eq!(got, expected, "k={k}");
        }
    }

    #[test]
    fn gram_collection_shape() {
        let strings: Vec<String> = vec!["abc".into(), "abcd".into()];
        let c = gram_collection(&strings, 1);
        assert_eq!(c.len(), 2);
        assert_eq!(c.len_of(0), 3);
        assert_eq!(c.len_of(1), 4);
    }
}
