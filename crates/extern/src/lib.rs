//! # ssj-extern — out-of-core exact joins with a hard memory budget
//!
//! Every in-memory scheme in this workspace assumes the signature index
//! fits in RAM. This crate removes that assumption following the
//! partition-at-a-time recipe of I/O-efficient similarity joins: the
//! input lives in a read-only, CRC-checked **segment** file
//! ([`segment`]), signatures are hash-ranged into on-disk **spill
//! partitions** sized to a byte budget ([`spill`]), and a streaming
//! **executor** ([`executor`]) loads one partition's posting map at a
//! time, probes it with the zero-alloc hot loop
//! [`executor::probe_partition`], and merges per-partition candidates
//! with a global dedup.
//!
//! Exactness argument (DESIGN.md §5h): an exact scheme guarantees any
//! joining pair shares at least one signature; every occurrence of that
//! signature hashes to exactly one partition, so the pair is generated
//! as a candidate there. Duplicates arising from pairs sharing several
//! signatures (possibly in different partitions) are removed by the
//! global sort + dedup, after which verification is the same predicate
//! evaluation the in-memory driver uses — the result is byte-identical
//! to [`ssj_core::self_join`].
//!
//! Memory is governed by an explicit ledger ([`budget::MemBudget`]):
//! every long-lived buffer is charged deterministically (from element
//! counts, never allocator internals), exceeding the budget is a hard
//! error, and the observed peak is reported (and pinned by
//! `ssj-bench`'s `pinned_counts` test).
//!
//! The segment format doubles as the final stage of `ssj-store`'s
//! log → snapshot → segment progression: [`compact`] turns recovered
//! snapshot state into a segment that `ssjoin serve` can answer point
//! queries from.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![warn(missing_docs)]

pub mod budget;
pub mod compact;
pub mod executor;
pub mod segment;
pub mod spill;

pub use budget::{parse_mem_budget, MemBudget};
pub use compact::{segment_from_recovered, segment_from_states};
pub use executor::{external_self_join, probe_partition, ExternConfig, ExternStats};
pub use segment::{
    write_collection_segment, BlockCache, BlockMeta, Segment, SegmentBlock, SegmentInfo,
    SegmentWriter,
};
