//! # ssj-extern — out-of-core exact joins with a hard memory budget
//!
//! Every in-memory scheme in this workspace assumes the signature index
//! fits in RAM. This crate removes that assumption following the
//! partition-at-a-time recipe of I/O-efficient similarity joins: the
//! input lives in a read-only, CRC-checked **segment** file
//! (`ssj_store::segment`, re-exported here), signatures are hash-ranged
//! into on-disk **spill partitions** sized to a byte budget ([`spill`]),
//! and a streaming **executor** ([`executor`]) numbers sets by *slot*
//! (their position in the segment stream), reads one partition's records
//! at a time into a reused buffer, sorts and walks them into runs, and
//! gathers every slot's partners into one flat list — the run walk and
//! zero-alloc partner-list kernels of [`ssj_core::partners`], the ones
//! the in-memory driver runs over its sorted signature records.
//!
//! Exactness argument (DESIGN.md §5h): an exact scheme guarantees any
//! joining pair shares at least one signature; every occurrence of that
//! signature hashes to exactly one partition, so the pair is generated
//! as a candidate there. Duplicates arising from pairs sharing several
//! signatures (possibly in different partitions) are removed by sorting
//! and deduplicating each slot's partner list, after which verification
//! is the same predicate evaluation the in-memory driver uses — the
//! result is byte-identical to [`ssj_core::self_join`].
//!
//! Memory is governed by an explicit ledger ([`budget::MemBudget`]):
//! every long-lived buffer is charged deterministically (from element
//! counts, never allocator internals), exceeding the budget is a hard
//! error, and the observed peak is reported (and pinned by
//! `ssj-bench`'s `pinned_counts` test).
//!
//! The segment is the workspace's one on-disk set image: `ssj-store`
//! writes every shard snapshot in it, so a serving node's
//! `shard-<i>.snap` files are segments this executor can read as they
//! are (global ids aside: a snapshot holds one shard's local ids).

#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo)]

pub mod budget;
pub mod executor;
pub mod spill;

pub use budget::{parse_mem_budget, MemBudget};
pub use executor::{external_self_join, ExternConfig, ExternStats};
pub use ssj_store::segment::{write_collection_segment, Segment};
