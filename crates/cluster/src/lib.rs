//! # ssj-cluster — multi-node partitioned serving over `ssj-serve`
//!
//! The single-node engine already has everything a cluster needs as
//! primitives: content-hash routing behind the [`ssj_core::index::Placement`]
//! trait, a snapshot-consistent sequence contract (`seq` / `seen_seq`), a
//! WAL + snapshot store, and an NDJSON wire protocol. This crate lifts the
//! partitioning one level — from shards inside a process to **nodes** —
//! without changing any of those contracts:
//!
//! * [`ring`] — a `HashRing` placement over nodes: the same content hash
//!   that picks a shard inside a node picks the node itself, so signature
//!   generation and candidate probing stay node-local.
//! * [`meta`] — the versioned cluster topology (`epoch`, node count, ring
//!   points), persisted as one CRC-framed file via `ssj_io::{frame, crc}`.
//! * [`router`] — the scatter-gather coordinator: writes route to the ring
//!   owner and ack with `durable_seq` exactly as a single node would;
//!   queries fan out to every node and merge per-node answers, folding the
//!   per-node `seen_seq` values into one vector-clock-style [`ClusterSeq`].
//!   The steady-state fan-out path ([`Router::route_query`]) is
//!   allocation-free once warmed (a hotlint HOT_ROOT with a release-mode
//!   counting-allocator witness).
//! * [`replica`] — read replicas: bootstrap from the owner's shipped
//!   snapshot segment images (`snap_fetch`, byte-identical to
//!   `shard-<i>.snap` and checked by the same segment decoder), then tail
//!   the WAL over the `tail` wire op (CRC frames reused verbatim). The router fails a query over to a replica when the owner
//!   is unreachable.
//! * [`sim`] — the first-class test harness: an in-process simulated
//!   network of N real `ssj_serve::Server`s driven through the real wire
//!   encode/decode, with deterministic, injectable node-kills and
//!   partitions, so difftest and crashtest drive a cluster exactly like a
//!   single node. `ssjoin cluster --nodes N` wires the same router to real
//!   TCP instead.
//!
//! ## The `ClusterSeq` contract (DESIGN.md §5j)
//!
//! Writes are sequenced per node, never globally: node `n` acks write
//! `seq_n` under its own snapshot-consistency contract. A scatter-gather
//! query returns one `seen_seq` component per node, and the vector means
//! exactly what the scalar meant on one node: the query observed, for
//! every node `n`, precisely the writes numbered `< seen[n]` on `n`.
//! There is no cross-node ordering claim — none is needed, because a set's
//! owner is a pure function of its content, so the pairs a query returns
//! are unaffected by how writes interleave across nodes.

#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo)]

pub mod meta;
pub mod replica;
pub mod ring;
pub mod router;
pub mod scan;
pub mod sim;
pub mod transport;

pub use meta::ClusterMeta;
pub use replica::Replica;
pub use ring::HashRing;
pub use router::{
    ClusterSeq, QueryAck, Rejection, RemoveAck, Router, RouterError, RouterScratch, WriteAck,
};
pub use sim::SimCluster;
pub use transport::{TcpTransport, Transport, TransportError};
