//! **PartEnum** — the paper's primary contribution (Sections 4–6).
//!
//! PartEnum combines two ideas (Section 4.1):
//!
//! * **Partitioning**: vectors at hamming distance ≤ k must *agree* on at
//!   least one of k+1 partitions of the dimensions — cheap (one signature
//!   per partition) but weak filtering.
//! * **Enumeration**: with n2 > k partitions, they agree on ≥ n2 − k of
//!   them; enumerating all (n2 − k)-subsets filters aggressively but costs
//!   ~2^{2k} signatures.
//!
//! The hybrid uses a two-level partition: n1 first-level partitions reduce
//! the threshold to k2 = ⌈(k+1)/n1⌉ − 1 inside each, where enumeration is
//! affordable. Theorem 2: with n1 = k/ln k, n2 = 2 ln k, vectors at distance
//! above 7.5k share a signature with probability o(1) while only O(k^2.39)
//! signatures are generated per vector.
//!
//! Module map:
//! * [`params`] — (n1, n2) validation, k2, signature counts, candidates.
//! * [`hamming`] — [`PartEnumHamming`], the Figure 3 scheme.
//! * [`intervals`] — Figure 6, written once: the size intervals, one
//!   hamming instance per interval and the router that signs each set with
//!   instances `i` and `i+1`. It has three users:
//! * [`jaccard`] — [`PartEnumJaccard`], Figure 6 for jaccard;
//! * [`general`] — [`GeneralPartEnum`], the Section 6 predicate class
//!   (one instance for hamming; Figure 6 at the predicate's exact interval
//!   ratio for jaccard, max-fraction, dice and cosine);
//! * [`crate::replicated::ReplicatedPartEnumJaccard`] — Figure 6 over
//!   replicated sizes (the Section 7 weighted reduction).
//! * [`optimize`] — F2-estimation-based parameter choice (Table 1).

pub mod general;
pub mod hamming;
pub mod intervals;
pub mod jaccard;
pub mod optimize;
pub mod params;

pub use general::GeneralPartEnum;
pub use hamming::PartEnumHamming;
pub use intervals::SizeIntervals;
pub use jaccard::PartEnumJaccard;
pub use optimize::{estimate_cost, optimize_hamming, optimize_jaccard};
pub use params::{binomial, subsets_of_size, PartEnumParams};
