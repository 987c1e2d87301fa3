//! # ssj-baselines — the algorithms the paper compares against
//!
//! * [`PrefixFilter`] — the best previous *exact* algorithm [6], augmented
//!   with size-based filtering exactly as the paper benchmarks it
//!   (Section 8: "we augmented it with size-based filtering of Section 5").
//! * [`IdentityScheme`] — `Sign(s) = s`, the scheme behind the Probe-Count /
//!   Pair-Count algorithms [22].
//! * [`LshJaccard`] / [`LshWeightedJaccard`] — classic minhash LSH
//!   [8, 13, 15], the *approximate* competitor, with the `(g, l)` optimizer.
//! * [`ProbeCount`] — the original inverted-index probe-count join of [22]
//!   (the identity scheme is its signature-framework view).
//! * [`NaiveJoin`] — brute-force oracle for exactness testing.
//!
//! All schemes plug into `ssj_core::join::{self_join, join}`.

#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo)]

pub mod identity;
pub mod lsh;
pub mod naive;
pub mod prefix_filter;
pub mod probe_count;

pub use identity::IdentityScheme;
pub use lsh::{LshJaccard, LshParams, LshWeightedJaccard};
pub use naive::NaiveJoin;
pub use prefix_filter::{PrefixFilter, PrefixFilterConfig};
pub use probe_count::{ProbeCount, ProbeCountResult, ProbeStrategy};
