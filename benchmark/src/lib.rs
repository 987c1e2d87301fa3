//! # ssj-benchmark — the engine benchmark behind `BENCHMARK.json`
//!
//! One binary (`benchmark`) runs one of seven workloads from a seed, checks
//! the outputs, and prints every metric by name with its unit. End-to-end
//! metrics come from a run with tracing off; `--trace 1` makes a separate
//! run that records spans around each call into a layer's public functions
//! and derives the per-layer metrics. `BENCHMARK.md` beside this crate holds
//! the tables, the layer → metric → workload predictions and the baseline.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![warn(missing_docs)]

pub mod suite;
