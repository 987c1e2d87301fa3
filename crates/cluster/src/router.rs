//! The scatter-gather router: one coordinator over N wire-protocol nodes.
//!
//! **Writes** route to the ring owner — a pure function of the set's
//! content — and return the owner's ack unchanged in meaning: `seq` is the
//! owner's write number, `durable_seq` the owner's durability watermark.
//! **Queries** fan out to every node (content-hash placement scatters
//! *similar* sets across nodes, exactly like the in-process sharding they
//! mirror), merge the per-node id lists into cluster ids, and fold the
//! per-node `seen_seq` values into one [`ClusterSeq`] vector — each
//! component carries the single-node snapshot guarantee for its node.
//!
//! **Cluster ids** reuse the id-encoding trick one level up: a node-local
//! global id `g` on node `n` in an `N`-node cluster becomes
//! `g * N + n`, so the owning node is recoverable from any cluster id
//! (`id % N`) and ids stay stable across node-internal rebuilds.
//!
//! [`Router::route_query`] is the hot entry point (a hotlint HOT_ROOT):
//! after warm-up it performs no heap allocation — the request line, the
//! per-node response buffers, canonical set, and per-node id buffer all
//! live in [`RouterScratch`] and are reused across calls; response parsing
//! is the byte-level [`crate::scan`] module, not a JSON tree. The fan-out
//! itself is one [`Transport::call_all`]: over TCP every node has the
//! request before the first reply is read, so a query costs the slowest
//! node, not the sum; the merge below it runs in node order either way.

use crate::replica::Replica;
use crate::ring::HashRing;
use crate::scan;
use crate::transport::{Transport, TransportError};
use ssj_core::index::Placement;
use ssj_core::set::ElementId;
use std::fmt::Write as _;

/// Vector-clock-style snapshot watermark: one `seen_seq` per node.
///
/// Component `n` means the query observed exactly the writes numbered
/// `< seen[n]` on node `n` — the single-node snapshot-consistency
/// contract, held per node. No cross-node ordering is implied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterSeq {
    seen: Vec<u64>,
}

impl ClusterSeq {
    /// An all-zero vector for `nodes` nodes.
    pub fn new(nodes: usize) -> Self {
        Self {
            seen: vec![0; nodes],
        }
    }

    /// The per-node components, index = node id.
    pub fn components(&self) -> &[u64] {
        &self.seen
    }

    /// Sum of all components: with quiesced writers this equals the total
    /// number of writes the query observed across the cluster.
    pub fn total(&self) -> u64 {
        self.seen.iter().sum()
    }

    fn set(&mut self, node: usize, seq: u64) {
        if let Some(slot) = self.seen.get_mut(node) {
            *slot = seq;
        }
    }
}

/// Why a routed request failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouterError {
    /// The node was unreachable and no replica could stand in.
    NodeDown(usize),
    /// The node answered with a wire-level failure.
    Rejected {
        /// Which node refused.
        node: usize,
        /// The wire discriminator (`overloaded`, `timeout`,
        /// `shutting_down`, `bad_request`).
        kind: Rejection,
    },
    /// The response line did not carry the fields the op requires.
    Protocol(String),
}

/// Wire-level failure discriminators, mirrored from the protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rejection {
    /// `{"error":"overloaded"}` — the node's queue was full.
    Overloaded,
    /// `{"error":"timeout"}` — the request expired in the node's queue.
    Timeout,
    /// `{"error":"shutting_down"}` — the node is draining.
    ShuttingDown,
    /// `{"error":"bad_request"}` or an unrecognized discriminator.
    Bad,
}

impl std::fmt::Display for RouterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouterError::NodeDown(n) => write!(f, "node {n} down (no replica available)"),
            RouterError::Rejected { node, kind } => write!(f, "node {node} rejected: {kind:?}"),
            RouterError::Protocol(msg) => write!(f, "protocol: {msg}"),
        }
    }
}

/// Ack for a routed write, in the owner's own terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteAck {
    /// Cluster id of the written set (`node_local_global_id * N + node`).
    pub id: u64,
    /// The owning node.
    pub node: usize,
    /// The owner's write-sequence number for this write.
    pub node_seq: u64,
    /// The owner's durability watermark, when it is durable.
    pub durable_seq: Option<u64>,
}

/// Ack for a routed remove.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RemoveAck {
    /// Whether the id named a live set on its node.
    pub found: bool,
    /// The owning node.
    pub node: usize,
    /// The owner's write-sequence number for this write.
    pub node_seq: u64,
    /// The owner's durability watermark, when it is durable.
    pub durable_seq: Option<u64>,
}

/// Ack for a scatter-gather query; the ids land in the caller's buffer
/// and the watermark in the caller's [`ClusterSeq`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryAck {
    /// Candidates probed, summed across every node that answered.
    pub probed: u64,
    /// Nodes answered by a replica instead of the live owner (their
    /// `ClusterSeq` components are the replica's possibly older
    /// watermark).
    pub replica_answers: u32,
}

/// Reusable buffers for the router's steady-state paths (DESIGN.md §5g).
#[derive(Debug, Default)]
pub struct RouterScratch {
    /// Rendered request line, reused across calls.
    line: String,
    /// Response line buffer of the single-node paths (insert, remove).
    resp: String,
    /// One response line buffer per node for the query fan-out.
    resps: Vec<String>,
    /// One transport outcome per node for the query fan-out.
    outcomes: Vec<Result<(), TransportError>>,
    /// Canonicalized (sorted, deduplicated) request set.
    set: Vec<ElementId>,
    /// One node's matching ids before cluster-id encoding.
    node_ids: Vec<u64>,
}

/// The coordinator: ring placement + transport + optional read replicas.
pub struct Router<T: Transport> {
    transport: T,
    ring: HashRing,
    epoch: u64,
    replicas: Vec<Option<Replica>>,
}

impl<T: Transport> Router<T> {
    /// Builds a router over `transport` using `ring` for placement.
    /// `epoch` is the topology version this placement came from
    /// ([`crate::ClusterMeta::epoch`]).
    pub fn new(transport: T, ring: HashRing, epoch: u64) -> Self {
        let nodes = transport.nodes();
        let mut replicas = Vec::with_capacity(nodes);
        replicas.resize_with(nodes, || None);
        Self {
            transport,
            ring,
            epoch,
            replicas,
        }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.transport.nodes()
    }

    /// The topology epoch this router's placement came from.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The ring placement.
    pub fn ring(&self) -> &HashRing {
        &self.ring
    }

    /// The underlying transport (read-only instrumentation).
    pub fn transport(&self) -> &T {
        &self.transport
    }

    /// The underlying transport (fault injection in tests).
    pub fn transport_mut(&mut self) -> &mut T {
        &mut self.transport
    }

    /// Attaches a read replica as the query fallback for the node it
    /// mirrors; replaces any previous replica of that node.
    pub fn attach_replica(&mut self, replica: Replica) {
        let node = replica.node();
        if let Some(slot) = self.replicas.get_mut(node) {
            *slot = Some(replica);
        }
    }

    /// Encodes a node-local global id as a cluster id.
    pub fn cluster_id(&self, node_local: u64, node: usize) -> u64 {
        node_local * self.nodes() as u64 + node as u64
    }

    /// Splits a cluster id into `(node, node-local global id)`.
    pub fn decode_cluster_id(&self, id: u64) -> (usize, u64) {
        let n = self.nodes() as u64;
        ((id % n) as usize, id / n)
    }

    /// The ring owner of `elems` (canonicalized into `scratch.set`).
    fn owner_of(&self, elems: &[ElementId], scratch: &mut RouterScratch) -> usize {
        scratch.set.clear();
        scratch.set.extend_from_slice(elems);
        scratch.set.sort_unstable();
        scratch.set.dedup();
        self.ring.bucket_of(&scratch.set)
    }

    /// Renders `{"op":<op>,"set":[...]}` from the canonical set.
    fn render_set_line(op: &str, scratch: &mut RouterScratch) {
        scratch.line.clear();
        scratch.line.push_str("{\"op\":\"");
        scratch.line.push_str(op);
        scratch.line.push_str("\",\"set\":[");
        for (i, e) in scratch.set.iter().enumerate() {
            if i > 0 {
                scratch.line.push(',');
            }
            let _ = write!(scratch.line, "{e}");
        }
        scratch.line.push_str("]}");
    }

    fn classify(node: usize, resp: &str) -> RouterError {
        match scan::error_kind(resp) {
            Some("overloaded") => RouterError::Rejected {
                node,
                kind: Rejection::Overloaded,
            },
            Some("timeout") => RouterError::Rejected {
                node,
                kind: Rejection::Timeout,
            },
            Some("shutting_down") => RouterError::Rejected {
                node,
                kind: Rejection::ShuttingDown,
            },
            _ => RouterError::Rejected {
                node,
                kind: Rejection::Bad,
            },
        }
    }

    /// Routes an insert to its ring owner. Returns the owner's ack with
    /// the id lifted to a cluster id.
    pub fn route_insert(
        &mut self,
        elems: &[ElementId],
        scratch: &mut RouterScratch,
    ) -> Result<WriteAck, RouterError> {
        let owner = self.owner_of(elems, scratch);
        Self::render_set_line("insert", scratch);
        match self.transport.call(owner, &scratch.line, &mut scratch.resp) {
            Ok(()) => {}
            Err(TransportError::Unreachable) => return Err(RouterError::NodeDown(owner)),
            Err(TransportError::Io(msg)) => return Err(RouterError::Protocol(msg)),
        }
        if !scan::is_ok(&scratch.resp) {
            return Err(Self::classify(owner, &scratch.resp));
        }
        let (Some(id), Some(seq)) = (
            scan::field_u64(&scratch.resp, "id"),
            scan::field_u64(&scratch.resp, "seq"),
        ) else {
            return Err(RouterError::Protocol(format!(
                "insert ack lacks id/seq: {}",
                scratch.resp
            )));
        };
        Ok(WriteAck {
            id: self.cluster_id(id, owner),
            node: owner,
            node_seq: seq,
            durable_seq: scan::field_u64(&scratch.resp, "durable_seq"),
        })
    }

    /// Routes a remove to the node encoded in the cluster id.
    pub fn route_remove(
        &mut self,
        id: u64,
        scratch: &mut RouterScratch,
    ) -> Result<RemoveAck, RouterError> {
        let (node, local) = self.decode_cluster_id(id);
        scratch.line.clear();
        let _ = write!(scratch.line, "{{\"op\":\"remove\",\"id\":{local}}}");
        match self.transport.call(node, &scratch.line, &mut scratch.resp) {
            Ok(()) => {}
            Err(TransportError::Unreachable) => return Err(RouterError::NodeDown(node)),
            Err(TransportError::Io(msg)) => return Err(RouterError::Protocol(msg)),
        }
        if !scan::is_ok(&scratch.resp) {
            return Err(Self::classify(node, &scratch.resp));
        }
        let Some(seq) = scan::field_u64(&scratch.resp, "seq") else {
            return Err(RouterError::Protocol(format!(
                "remove ack lacks seq: {}",
                scratch.resp
            )));
        };
        Ok(RemoveAck {
            found: scratch.resp.contains("\"found\":true"),
            node,
            node_seq: seq,
            durable_seq: scan::field_u64(&scratch.resp, "durable_seq"),
        })
    }

    /// The scatter-gather read path: fans the query to every node, merges
    /// the per-node answers into `out` as ascending cluster ids, and
    /// records each node's `seen_seq` in `seen`. A node that is
    /// unreachable is answered by its attached replica (at the replica's
    /// watermark); with no replica the whole query fails — a partial
    /// answer would silently break the snapshot contract. Every node is
    /// asked before any answer is merged, so an early error return leaves
    /// no reply unread on the transport.
    ///
    /// Allocation-free once `scratch`, `out`, and `seen` have warmed.
    pub fn route_query(
        &mut self,
        elems: &[ElementId],
        scratch: &mut RouterScratch,
        out: &mut Vec<u64>,
        seen: &mut ClusterSeq,
    ) -> Result<QueryAck, RouterError> {
        let nodes = self.transport.nodes();
        scratch.set.clear();
        scratch.set.extend_from_slice(elems);
        scratch.set.sort_unstable();
        scratch.set.dedup();
        Self::render_set_line("query", scratch);
        out.clear();
        scratch.resps.resize_with(nodes, String::new);
        self.transport
            .call_all(&scratch.line, &mut scratch.resps, &mut scratch.outcomes);
        let n = nodes as u64;
        let mut probed = 0u64;
        let mut replica_answers = 0u32;
        for (node, outcome) in scratch.outcomes.drain(..).enumerate() {
            match outcome {
                Ok(()) => {
                    let resp = &scratch.resps[node];
                    if !scan::is_ok(resp) {
                        return Err(Self::classify(node, resp));
                    }
                    let got_ids = scan::for_each_array_u64(resp, "ids", |id| {
                        out.push(id * n + node as u64);
                    });
                    let seen_seq = scan::field_u64(resp, "seen_seq");
                    let node_probed = scan::field_u64(resp, "probed");
                    let (true, Some(seen_seq), Some(node_probed)) =
                        (got_ids, seen_seq, node_probed)
                    else {
                        // hotlint: allow(hot-alloc-loop): terminal protocol-error path — allocates once while abandoning the query, never on the per-node success path.
                        return Err(RouterError::Protocol(format!(
                            "query answer lacks ids/seen_seq/probed: {resp}"
                        )));
                    };
                    seen.set(node, seen_seq);
                    probed += node_probed;
                }
                Err(TransportError::Unreachable) => {
                    // Owner down: fail the read over to its replica.
                    let Some(replica) = self.replicas.get_mut(node).and_then(Option::as_mut) else {
                        return Err(RouterError::NodeDown(node));
                    };
                    let (seen_seq, node_probed) =
                        replica.query_local(&scratch.set, &mut scratch.node_ids);
                    for &id in &scratch.node_ids {
                        out.push(id * n + node as u64);
                    }
                    seen.set(node, seen_seq);
                    probed += node_probed;
                    replica_answers += 1;
                }
                Err(TransportError::Io(msg)) => return Err(RouterError::Protocol(msg)),
            }
        }
        out.sort_unstable();
        Ok(QueryAck {
            probed,
            replica_answers,
        })
    }
}
