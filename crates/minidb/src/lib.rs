//! # ssj-minidb — a mini relational engine for the paper's query plans
//!
//! The paper's implementation strategy (Section 8) runs most of the SSJoin
//! inside a DBMS: signatures are generated in application code, then
//! candidate generation and post-filtering are plain SQL (Figures 10–11 for
//! jaccard, 16–17 for edit distance). This crate provides the minimal
//! column-engine ([`table`], [`ops`]) needed to replay those exact plans
//! ([`plans`]), so the repository can validate that the "DBMS + thin
//! application shim" implementation produces identical answers to the
//! native pipeline.

#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo)]

pub mod ops;
pub mod plans;
pub mod table;

pub use ops::{distinct, filter, group_count, hash_join, limit, project, sort_by};
pub use plans::{
    cand_pair, cand_pair_intersect, jaccard_output, jaccard_plan, set_table, setlen_table,
    signature_table, string_plan,
};
pub use table::{Column, Table};
