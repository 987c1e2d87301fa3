//! # ssj-bench — the reproduction harness
//!
//! Regenerates every table and figure in the paper's evaluation
//! (Section 8): Figures 12–15, 18, 19 and Table 1, plus ablations. Run
//!
//! ```text
//! cargo run --release -p ssj-bench --bin reproduce -- --scale default
//! ```
//!
//! to print all tables and write machine-readable records to
//! `target/experiments/*.json`. Performance is measured by the separate
//! engine benchmark under `benchmark/`; `tests/pinned_counts.rs` pins the
//! seed-deterministic join counters of a small address self-join.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

pub mod datasets;
pub mod experiments;
pub mod harness;
pub mod json;
pub mod report;

pub use harness::{JaccardAlgo, RunRecord, Scale};
