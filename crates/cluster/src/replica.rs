//! Read replicas: snapshot-bootstrapped, WAL-tailed mirrors of one node.
//!
//! A replica's state machine is the store's own recovery pipeline run over
//! the wire instead of over a directory:
//!
//! 1. **Bootstrap** — `snap_fetch` ships one snapshot segment image per
//!    shard, all at one consistent watermark and byte-identical to the
//!    owner's `shard-<i>.snap` files. The replica decodes each image with
//!    the segment decoder recovery uses (every block CRC, the footer
//!    stamp's shard and topology) and restores a memory-only
//!    [`ShardedIndex`] at that watermark.
//! 2. **Tail** — `tail` ships the WAL suffix from the replica's sequence
//!    number on, as CRC frames byte-identical to the WAL file's framing.
//!    The replica decodes them with the same `FrameReader` +
//!    `decode_record` pipeline recovery uses and applies each record in
//!    log order ([`ShardedIndex::apply_replicated`] refuses gaps).
//! 3. **Re-bootstrap** — if the owner compacted past the replica's resume
//!    point (`truncated` answer), the replica starts over from a fresh
//!    snapshot batch; replication never guesses across a gap.
//!
//! The router uses a replica as the query fallback when the node is
//! unreachable; crashtest additionally *promotes* replicas — persists
//! their state as a real data directory ([`Replica::persist_to`]) and
//! verifies no acknowledged write below the replica's seq was lost.

use crate::scan;
use crate::transport::{Transport, TransportError};
use ssj_serve::{wire, ServeScratch, ServerConfig, ShardedIndex};
use ssj_store::{ShardState, WalRecord};
use std::fmt::Write as _;

/// Errors surfaced by replica bootstrap and catch-up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplicaError {
    /// The owner could not be reached.
    Unreachable,
    /// The owner answered, but the payload failed verification or the
    /// protocol shape was wrong.
    Protocol(String),
}

impl std::fmt::Display for ReplicaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplicaError::Unreachable => write!(f, "owner unreachable"),
            ReplicaError::Protocol(msg) => write!(f, "replication protocol: {msg}"),
        }
    }
}

impl From<TransportError> for ReplicaError {
    fn from(e: TransportError) -> Self {
        match e {
            TransportError::Unreachable => ReplicaError::Unreachable,
            TransportError::Io(msg) => ReplicaError::Protocol(msg),
        }
    }
}

fn protocol(msg: impl Into<String>) -> ReplicaError {
    ReplicaError::Protocol(msg.into())
}

/// A read replica of one node, mirrored in memory.
pub struct Replica {
    node: usize,
    cfg: ServerConfig,
    index: ShardedIndex,
    scratch: ServeScratch,
    line: String,
    resp: String,
}

impl Replica {
    /// Bootstraps a replica of `node` from a shipped snapshot batch.
    /// `cfg` must match the node's own configuration (shards, seed, γ) —
    /// the image verification rejects a topology mismatch.
    pub fn bootstrap<T: Transport>(
        transport: &mut T,
        node: usize,
        cfg: &ServerConfig,
    ) -> Result<Self, ReplicaError> {
        let mut replica = Self {
            node,
            cfg: cfg.clone(),
            // Placeholder until the first bootstrap below replaces it.
            index: ShardedIndex::new(cfg).map_err(|e| protocol(e.to_string()))?,
            scratch: ServeScratch::default(),
            line: String::new(),
            resp: String::new(),
        };
        replica.rebootstrap(transport)?;
        Ok(replica)
    }

    /// The node this replica mirrors.
    pub fn node(&self) -> usize {
        self.node
    }

    /// The replica's sequence number: it has applied exactly the owner's
    /// writes numbered below this.
    pub fn seq(&self) -> u64 {
        self.index.seq()
    }

    /// The mirrored index (promotion and test instrumentation).
    pub fn index(&self) -> &ShardedIndex {
        &self.index
    }

    /// Fetches a fresh consistent snapshot batch and restores to it.
    fn rebootstrap<T: Transport>(&mut self, transport: &mut T) -> Result<(), ReplicaError> {
        self.line.clear();
        self.line.push_str("{\"op\":\"snap_fetch\"}");
        transport.call(self.node, &self.line, &mut self.resp)?;
        let value = ssj_io::json::parse(&self.resp).map_err(protocol)?;
        let obj = value.as_object().map_err(protocol)?;
        let seq = obj
            .get("seq")
            .ok_or_else(|| protocol("snap_fetch answer lacks \"seq\""))?
            .as_u64()
            .map_err(protocol)?;
        let images = obj
            .get("shards")
            .ok_or_else(|| protocol("snap_fetch answer lacks \"shards\""))?
            .as_array()
            .map_err(protocol)?;
        let n = images.len();
        let mut states: Vec<ShardState> = Vec::with_capacity(n);
        for (i, image) in images.iter().enumerate() {
            let hex = image.as_str().map_err(protocol)?;
            let bytes = wire::parse_hex(hex).map_err(protocol)?;
            let (image_seq, state) =
                ShardState::from_image(&bytes, i, n).map_err(|e| protocol(e.to_string()))?;
            if image_seq != seq {
                return Err(protocol(format!(
                    "shipped image for shard {i} is at seq {image_seq}, batch claims {seq}"
                )));
            }
            states.push(state);
        }
        self.index = ShardedIndex::restore_from_states(&self.cfg, &states, seq)
            .map_err(|e| protocol(e.to_string()))?;
        Ok(())
    }

    /// Catches up to the owner: tails the WAL from the replica's sequence
    /// number, applying shipped records in log order; re-bootstraps from a
    /// snapshot batch when the owner already compacted past the resume
    /// point. Returns the replica's sequence number afterwards.
    pub fn catch_up<T: Transport>(&mut self, transport: &mut T) -> Result<u64, ReplicaError> {
        self.line.clear();
        let _ = write!(self.line, "{{\"op\":\"tail\",\"from_seq\":{}}}", self.seq());
        transport.call(self.node, &self.line, &mut self.resp)?;
        if !scan::is_ok(&self.resp) {
            return Err(protocol(format!("tail refused: {}", self.resp)));
        }
        let frames_hex = {
            let value = ssj_io::json::parse(&self.resp).map_err(protocol)?;
            let obj = value.as_object().map_err(protocol)?;
            match obj.get("frames") {
                Some(v) => v.as_str().map_err(protocol)?.to_string(),
                // Truncated: the resume point was compacted into snapshots.
                None => {
                    self.rebootstrap(transport)?;
                    return Ok(self.seq());
                }
            }
        };
        let bytes = wire::parse_hex(&frames_hex).map_err(protocol)?;
        self.apply_frames(&bytes)?;
        Ok(self.seq())
    }

    /// Decodes and applies a batch of CRC-framed WAL records in order.
    fn apply_frames(&mut self, bytes: &[u8]) -> Result<(), ReplicaError> {
        let mut reader = ssj_io::frame::FrameReader::new(bytes);
        loop {
            match reader.next_frame().map_err(|e| protocol(e.to_string()))? {
                ssj_io::frame::Frame::Payload(payload) => {
                    let record: WalRecord =
                        ssj_store::decode_record(&payload).map_err(|e| protocol(e.to_string()))?;
                    self.index
                        .apply_replicated(&record)
                        .map_err(|e| protocol(e.to_string()))?;
                }
                ssj_io::frame::Frame::CleanEof => return Ok(()),
                other => {
                    return Err(protocol(format!(
                        "shipped WAL batch has a non-clean tail: {other:?}"
                    )))
                }
            }
        }
    }

    /// Serves a query from the replica's snapshot: fills `out` with the
    /// matching node-local global ids (ascending) and returns
    /// `(seen_seq, probed)` — the same contract as the live node's query,
    /// at the replica's (possibly older) watermark. Allocation-free once
    /// the internal scratch has warmed.
    pub fn query_local(&mut self, elems: &[u32], out: &mut Vec<u64>) -> (u64, u64) {
        self.index.query_scratch(elems, &mut self.scratch, out)
    }

    /// Promotion: persists the replica's current state into `dir` as a
    /// real data directory — one snapshot segment per shard at the
    /// replica's watermark, each checked by the recovery decoder and then
    /// written durably through the store's one publisher (tmp + fsync +
    /// rename + dir-fsync). Stale `*.tmp`
    /// litter from an earlier promotion attempt that crashed mid-ship is
    /// swept first, the same way store recovery sweeps snapshot litter —
    /// a retried promotion always starts from a clean staging area. A
    /// `Store::open` on `dir` with the node's config then recovers
    /// exactly this state and can take writes as the new owner.
    pub fn persist_to(&self, dir: &std::path::Path) -> std::io::Result<()> {
        ssj_io::fs::sweep_tmp_files(dir)?;
        let (states, seq) = self.index.dump();
        let n = states.len();
        for (i, state) in states.iter().enumerate() {
            ssj_store::persist_shipped_snapshot(dir, i, n, &state.to_image(i, n, seq)?)?;
        }
        Ok(())
    }
}
