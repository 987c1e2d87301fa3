//! # ssj-core — exact set-similarity joins
//!
//! A faithful, production-grade implementation of the algorithms in
//! *Efficient Exact Set-Similarity Joins* (Arasu, Ganti, Kaushik — VLDB
//! 2006): the **PartEnum** and **WtEnum** signature schemes, the
//! signature-based join framework they plug into, and the supporting
//! machinery (predicates, size-based filtering, parameter optimization,
//! instrumentation).
//!
//! ## Quick start
//!
//! ```
//! use ssj_core::prelude::*;
//!
//! // Three small sets; the first two are 80%-similar.
//! let collection: SetCollection = vec![
//!     vec![1, 2, 3, 4],
//!     vec![1, 2, 3, 4, 5],
//!     vec![10, 11, 12],
//! ]
//! .into_iter()
//! .collect();
//!
//! let gamma = 0.8;
//! let scheme = PartEnumJaccard::new(gamma, collection.max_set_len(), 42).unwrap();
//! let result = self_join(
//!     &scheme,
//!     &collection,
//!     Predicate::Jaccard { gamma },
//!     None,
//!     JoinOptions::default(),
//! );
//! assert_eq!(result.pairs, vec![(0, 1)]);
//! assert!(!result.approximate); // PartEnum is exact
//! ```
//!
//! ## Module map
//!
//! | Module | Paper section | Contents |
//! |---|---|---|
//! | [`set`] | §2 | [`SetCollection`], [`WeightMap`] |
//! | [`similarity`] | §2.2–2.3, §7 | jaccard, hamming, weighted measures |
//! | [`predicate`] | §2, §6 | [`Predicate`] with size/hamming bounds |
//! | [`signature`] | §3 | the [`SignatureScheme`] trait |
//! | [`join`] | §3, Fig. 2 | the shared join driver |
//! | [`partners`] | §3 step 3 | buckets → per-set partner lists |
//! | [`verify`] | §3 step 4 | pluggable verification, bitmap filter |
//! | [`partenum`] | §4–6 | PartEnum (hamming, jaccard, general) |
//! | [`wtenum`] | §7 | WtEnum and its weighted-jaccard wrapper |
//! | [`stats`] | §3.2 | F2 / filtering-effectiveness instrumentation |
//! | [`hash`] | §4.2 | signature hashing primitives |

#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo)]
#![cfg_attr(
    not(test),
    deny(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        clippy::cast_possible_wrap
    )
)]

pub mod cast;
pub mod error;
pub mod hash;
pub mod index;
pub mod invariants;
pub mod join;
pub mod lockwitness;
pub mod partenum;
pub mod partners;
pub mod predicate;
pub mod replicated;
pub mod set;
pub mod signature;
pub mod similarity;
pub mod stats;
pub mod verify;
pub mod wtenum;

pub use error::{Result, SsjError};
pub use index::{
    content_hash_of, shard_of, ContentHashPlacement, JaccardIndex, Placement, SimilarityIndex,
};
pub use join::{join, self_join, JoinOptions, JoinResult};
pub use partenum::{GeneralPartEnum, PartEnumHamming, PartEnumJaccard, PartEnumParams};
pub use predicate::Predicate;
pub use replicated::ReplicatedPartEnumJaccard;
pub use set::{ElementId, SetCollection, SetId, WeightMap};
pub use signature::{Signature, SignatureScheme};
pub use stats::JoinStats;
pub use verify::{BitmapIndex, BitmapVerifier, ExactVerifier, Verifier};
pub use wtenum::{WtEnum, WtEnumJaccard};

/// One-stop imports for typical use.
pub mod prelude {
    pub use crate::index::{JaccardIndex, SimilarityIndex};
    pub use crate::join::{join, self_join, JoinOptions, JoinResult};
    pub use crate::partenum::{GeneralPartEnum, PartEnumHamming, PartEnumJaccard, PartEnumParams};
    pub use crate::predicate::Predicate;
    pub use crate::set::{ElementId, SetCollection, SetId, WeightMap};
    pub use crate::signature::{Signature, SignatureScheme};
    pub use crate::stats::JoinStats;
    pub use crate::verify::{BitmapIndex, BitmapVerifier, ExactVerifier, Verifier};
    pub use crate::wtenum::{WtEnum, WtEnumJaccard};
}
