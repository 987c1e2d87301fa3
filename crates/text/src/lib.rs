//! # ssj-text — string similarity joins over the SSJoin core
//!
//! The substrate the paper's Section 8.2 experiments need: tokenizers and
//! q-gram bags ([`tokenize`]), exact and banded Levenshtein ([`edit`]),
//! IDF weighting ([`idf`]), and the edit-distance string join pipeline of
//! Figure 16 ([`string_join`]).

#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo)]

pub mod edit;
pub mod idf;
pub mod string_join;
pub mod tokenize;

pub use edit::{levenshtein, within_edit_distance};
pub use idf::tokenize_with_idf;
pub use string_join::{edit_distance_self_join, EditJoinConfig, EditJoinResult, EditJoinScheme};
pub use tokenize::{occurrence_encode, qgram_set, qgrams, token_set};
