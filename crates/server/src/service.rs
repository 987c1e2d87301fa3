//! The concurrent service core: a sharded similarity index behind a
//! bounded worker pool.
//!
//! # Sharding and snapshot consistency
//!
//! The state is `shards` independent [`JaccardIndex`]es, each behind its
//! own witnessed `RwLock` ([`ssj_core::lockwitness`], class `shard-index`,
//! keyed by shard number). A set is owned by the shard the index's single
//! [`ssj_core::index::Placement`] value routes it to, so writes (insert,
//! remove)
//! take exactly one write lock; queries take **all** shard read locks and
//! merge the per-shard answers. Every multi-lock acquisition goes through
//! [`ShardedIndex::lock_all_read`] / [`ShardedIndex::lock_owner_write`] —
//! one audited ascending-shard-order implementation, so no deadlock is
//! possible. `cargo xtask locklint` enforces this statically and the
//! debug-build lock witness re-checks it at runtime (DESIGN.md §5f).
//!
//! A global sequence counter makes the interleaving observable and exactly
//! checkable: every write increments `seq` *inside* its shard's write
//! critical section, and every query loads `seq` *after* acquiring all
//! read locks. Because a write's increment happens while it excludes
//! readers from its shard, a query that observed `seq = S` sees exactly
//! the writes with sequence number `< S`: a write with a smaller number
//! finished its critical section before the query locked that shard, and
//! a write with a larger number could not have touched any shard until the
//! query released it. Responses carry these numbers (`seq` on writes,
//! `seen_seq` on queries), which is what lets the concurrency tests replay
//! any N-thread run against a single-threaded oracle and demand equality.
//!
//! # Stable global ids
//!
//! Shard-local stable ids (see [`JaccardIndex`]) are encoded as
//! `global = local * shards + shard_index`, so the owning shard is
//! recoverable from any id (`global % shards`) and ids remain valid across
//! shard-internal rebuilds and removals.
//!
//! # Admission control
//!
//! Requests flow through one bounded crossbeam channel. [`Handle::call`]
//! uses `try_send`: a full queue answers [`Response::Overloaded`]
//! immediately rather than blocking the client. Workers check the
//! per-request deadline at dequeue and answer [`Response::Timeout`]
//! without executing expired work. Shutdown flips a draining flag (new
//! calls answer [`Response::ShuttingDown`]), lets queued work finish,
//! then parks one `Stop` sentinel per worker and joins them.

use crate::config::ServerConfig;
use crate::metrics::{ServerMetrics, ShardCounters, ShardCountersSnapshot, StatsSnapshot};
use crossbeam::channel::{self, TrySendError};
use ssj_core::error::{Result as CoreResult, SsjError};
use ssj_core::index::{ContentHashPlacement, JaccardIndex, Placement, QueryScratch};
use ssj_core::lockwitness::{WitnessReadGuard, WitnessRwLock, WitnessWriteGuard, SHARD_INDEX};
use ssj_core::set::{ElementId, SetId};
use ssj_store::{Recovered, ShardState, Store, StoreConfig, TailStatus, WalOp, WalRecord};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// An operation accepted by the service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Index a set; answers [`Response::Inserted`].
    Insert {
        /// The set's elements (any order, duplicates tolerated).
        elems: Vec<ElementId>,
    },
    /// Remove a set by global id; answers [`Response::Removed`].
    Remove {
        /// A global id previously returned by an insert.
        id: u64,
    },
    /// Find indexed sets within the similarity threshold; answers
    /// [`Response::Matches`].
    Query {
        /// The probe set.
        elems: Vec<ElementId>,
    },
    /// Atomically query then insert (streaming dedup); answers
    /// [`Response::QueryInserted`]. The probe never matches itself.
    QueryInsert {
        /// The set to look up and then index.
        elems: Vec<ElementId>,
    },
    /// Fetch counters; answers [`Response::Stats`].
    Stats,
    /// Snapshot now: write every shard's live state as its snapshot
    /// segment and truncate the WAL; answers [`Response::Compacted`].
    /// Errors on a memory-only server.
    Compact,
    /// Replica catch-up: ship the WAL suffix from `from_seq` on; answers
    /// [`Response::WalTail`]. Errors on a memory-only server (no WAL).
    Tail {
        /// Resume point: the first sequence number the replica lacks.
        from_seq: u64,
    },
    /// Replica bootstrap: ship a consistent full-state snapshot batch
    /// (one image per shard, all at one watermark); answers
    /// [`Response::Snapshots`]. Works on memory-only servers too — the
    /// images are encoded from the live in-memory state.
    SnapFetch,
}

/// The service's answer to a [`Request`].
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The set was indexed under `id` as write number `seq`.
    Inserted {
        /// Stable global id of the new set.
        id: u64,
        /// This write's global sequence number.
        seq: u64,
        /// Durable watermark after this write reached its configured sync
        /// point: writes numbered below it are on stable storage. `None`
        /// on a memory-only server.
        durable: Option<u64>,
    },
    /// The removal executed as write number `seq`.
    Removed {
        /// Whether the id named a live set (false: unknown or already
        /// removed — a no-op, not an error).
        found: bool,
        /// This write's global sequence number.
        seq: u64,
        /// Durable watermark (see [`Response::Inserted`]); `None` on a
        /// memory-only server.
        durable: Option<u64>,
    },
    /// Query results against the snapshot of writes `< seen_seq`.
    Matches {
        /// Global ids of matching sets, ascending.
        ids: Vec<u64>,
        /// The query saw exactly the writes numbered below this.
        seen_seq: u64,
        /// Candidates probed across all shards before verification.
        probed: u64,
    },
    /// Combined answer to [`Request::QueryInsert`].
    QueryInserted {
        /// Global ids of sets matching the probe (excluding itself).
        ids: Vec<u64>,
        /// Stable global id of the newly inserted set.
        id: u64,
        /// This write's sequence number; the query half saw writes `< seq`.
        seq: u64,
        /// Candidates probed across all shards before verification.
        probed: u64,
        /// Durable watermark (see [`Response::Inserted`]); `None` on a
        /// memory-only server.
        durable: Option<u64>,
    },
    /// Counter snapshot.
    Stats(StatsSnapshot),
    /// Every shard was snapshotted into its segment.
    Compacted {
        /// The snapshot's sequence number: the segments hold exactly the
        /// writes numbered below it.
        seq: u64,
        /// Live sets written across all shard segments.
        sets: u64,
        /// The data directory holding the `shard-<i>.snap` segments.
        file: String,
    },
    /// Answer to [`Request::Tail`]: the WAL suffix from the resume point.
    WalTail {
        /// The resume point echoed back.
        from_seq: u64,
        /// CRC-framed WAL records with sequence numbers `>= from_seq`,
        /// byte-identical to the owner's WAL framing; `None` when the
        /// resume point was compacted away (the replica must re-bootstrap
        /// via [`Request::SnapFetch`]).
        frames: Option<Vec<u8>>,
    },
    /// Answer to [`Request::SnapFetch`]: one snapshot segment image per
    /// shard, all taken at the same watermark `seq`, each byte-identical
    /// to the `shard-<i>.snap` file the owner would write at that
    /// watermark.
    Snapshots {
        /// The batch's consistent watermark: images hold writes `< seq`.
        seq: u64,
        /// Per-shard encoded snapshot images, index = shard number.
        shards: Vec<Vec<u8>>,
    },
    /// The request queue was full; nothing was executed. Retry later.
    Overloaded,
    /// The request's deadline expired while it waited in the queue;
    /// nothing was executed.
    Timeout,
    /// The server is draining; nothing was executed.
    ShuttingDown,
    /// The request was malformed (wire-layer parse or validation failure).
    Error(String),
}

struct Shard {
    /// Class `shard-index` (rank 0) in the canonical lock order, keyed by
    /// shard number: multi-shard sweeps acquire ascending keys.
    index: WitnessRwLock<JaccardIndex>,
    counters: ShardCounters,
}

/// One shard's guard from [`ShardedIndex::lock_owner_write`]: the owning
/// shard is write-locked, every other shard read-locked.
enum ShardGuard<'a> {
    Read(WitnessReadGuard<'a, JaccardIndex>),
    Write(WitnessWriteGuard<'a, JaccardIndex>),
}

impl ShardGuard<'_> {
    fn index(&self) -> &JaccardIndex {
        match self {
            ShardGuard::Read(g) => g,
            ShardGuard::Write(g) => g,
        }
    }

    /// The guarded index, writable only on the write-locked owner.
    fn index_mut(&mut self) -> Option<&mut JaccardIndex> {
        match self {
            ShardGuard::Read(_) => None,
            ShardGuard::Write(g) => Some(g),
        }
    }
}

/// Outcome of a write against a possibly-durable [`ShardedIndex`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WriteResult<T> {
    /// The write executed. The second field is the durable watermark after
    /// the write reached its configured sync point (`None` on a
    /// memory-only index): writes numbered below it are on stable storage.
    Done(T, Option<u64>),
    /// The persistence layer refused or failed the write; on an append
    /// failure the write was **not** applied and the store is poisoned
    /// (every later write fails fast until restart + recovery).
    StoreFailed(String),
}

/// Reusable buffers for the serve read path (DESIGN.md §5g).
///
/// Each worker thread owns one `ServeScratch` and threads it through
/// [`ShardedIndex::query_scratch`], so a steady-state query performs no
/// heap allocation beyond the response it hands back: canonicalization,
/// signature generation, candidate sweeping, and verification all reuse
/// these buffers (pinned end-to-end by the counting-allocator witness in
/// this crate's `tests/alloc_witness.rs`, and per building block by
/// `ssj-core/tests/alloc_witness.rs`). Construction is allocation-free.
#[derive(Debug, Default)]
pub struct ServeScratch {
    /// Canonicalized query elements.
    set: Vec<ElementId>,
    /// Per-shard index query buffers.
    query: QueryScratch,
    /// One shard's matches awaiting global-id encoding.
    matches: Vec<SetId>,
}

/// The per-shard scheme seed, derived from the configured master seed so
/// runs stay reproducible — and so recovery rebuilds each shard under the
/// exact seed it was created with.
fn shard_scheme_seed(master: u64, shard: usize) -> u64 {
    master.wrapping_add(shard as u64).wrapping_mul(0x9e37_79b9)
}

/// The sharded, concurrently usable index facade.
///
/// Usable directly (every method takes `&self`) or behind the worker pool
/// via [`Server`] / [`Handle`]. With a `data_dir` configured
/// ([`ShardedIndex::open`]), every write is WAL-logged *inside* its shard
/// critical section — sequence assignment happens in the WAL's own
/// critical section, so log order equals global write order — and
/// snapshots compact the log every `snapshot_every` writes.
pub struct ShardedIndex {
    shards: Vec<Shard>,
    /// The single routing policy shared by every path that must agree on
    /// set ownership — `insert_d` and `query_insert_d` both consult this
    /// one value, so build-time and serve-time routing cannot desync.
    placement: ContentHashPlacement,
    seq: AtomicU64,
    store: Option<Store>,
    snapshot_every: u64,
    writes_since_snapshot: AtomicU64,
    /// Set while a cadence snapshot runs, so writes that reach the
    /// cadence meanwhile skip theirs instead of queueing.
    snapshotting: AtomicBool,
}

impl ShardedIndex {
    /// Creates `cfg.shards` empty shards (clamped to at least one),
    /// memory-only regardless of `cfg.data_dir`.
    pub fn new(cfg: &ServerConfig) -> CoreResult<Self> {
        let empty = vec![ShardState::default(); cfg.shards.max(1)];
        Self::restore_from_states(cfg, &empty, 0)
    }

    /// Creates the index per `cfg`: memory-only when `cfg.data_dir` is
    /// `None`, otherwise opens (or creates) the durable store there and
    /// recovers — newest valid snapshots plus WAL tail replay — to exactly
    /// the persisted write history.
    pub fn open(cfg: &ServerConfig) -> CoreResult<Self> {
        let Some(dir) = &cfg.data_dir else {
            return Self::new(cfg);
        };
        let store_cfg = StoreConfig {
            shards: cfg.shards.max(1),
            seed: cfg.seed,
            gamma: cfg.gamma,
            initial_max_size: cfg.initial_max_size,
            sync: cfg.sync,
        };
        let (store, recovered) = Store::open(dir, store_cfg)
            .map_err(|e| SsjError::Storage(format!("{}: {e}", dir.display())))?;
        Self::from_recovered(cfg, store, recovered)
    }

    fn from_recovered(cfg: &ServerConfig, store: Store, recovered: Recovered) -> CoreResult<Self> {
        if recovered.tail != TailStatus::Clean {
            eprintln!(
                "ssj-serve: WAL tail was {:?}; discarded the invalid suffix \
                 and recovered to the last valid record",
                recovered.tail
            );
        }
        // Snapshot states first…
        let mut index = Self::restore_from_states(cfg, &recovered.shards, recovered.seq)?;
        // …then the WAL tail, in log order. Insert replay re-issues
        // shard-local ids deterministically (per-shard log order equals
        // per-shard mutation order); remove replay is idempotent.
        for record in &recovered.wal {
            let shard = index.shards[record.op.shard() as usize].index.get_mut();
            match &record.op {
                WalOp::Insert { set, .. } => {
                    let _ = shard.insert(set.clone());
                }
                WalOp::Remove { local, .. } => {
                    let _ = shard.try_remove(*local);
                }
            }
        }
        index.store = Some(store);
        index.snapshot_every = cfg.snapshot_every;
        Ok(index)
    }

    /// The attached durable store, if any.
    pub fn store(&self) -> Option<&Store> {
        self.store.as_ref()
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total writes admitted so far.
    pub fn seq(&self) -> u64 {
        self.seq.load(Ordering::SeqCst)
    }

    /// The routing policy both write paths share. Exposed so external
    /// coordinators (and the placement regression test) can predict which
    /// shard a set will land on without re-deriving the policy.
    pub fn placement(&self) -> &ContentHashPlacement {
        &self.placement
    }

    /// Builds a **memory-only** index pre-seeded from shipped snapshot
    /// states at sequence number `seq` — the replica-bootstrap entry point.
    /// `states` must hold exactly `cfg.shards.max(1)` entries (one per
    /// shard, as produced by [`ShardedIndex::dump`] or snapshot shipping).
    pub fn restore_from_states(
        cfg: &ServerConfig,
        states: &[ShardState],
        seq: u64,
    ) -> CoreResult<Self> {
        let n = cfg.shards.max(1);
        if states.len() != n {
            return Err(SsjError::InvalidParams(format!(
                "replica bootstrap needs {n} shard states, got {}",
                states.len()
            )));
        }
        let shards: Vec<Shard> = states
            .iter()
            .enumerate()
            .map(|(i, state)| {
                Ok(Shard {
                    index: WitnessRwLock::new(
                        &SHARD_INDEX,
                        i as u32,
                        JaccardIndex::restore(
                            cfg.gamma,
                            cfg.initial_max_size,
                            shard_scheme_seed(cfg.seed, i),
                            state.next_id,
                            &state.live,
                        )?,
                    ),
                    counters: ShardCounters::default(),
                })
            })
            .collect::<CoreResult<_>>()?;
        let placement = ContentHashPlacement::new(shards.len(), cfg.seed);
        Ok(Self {
            shards,
            placement,
            seq: AtomicU64::new(seq),
            store: None,
            snapshot_every: 0,
            writes_since_snapshot: AtomicU64::new(0),
            snapshotting: AtomicBool::new(false),
        })
    }

    /// Applies one replicated write in log order — the replica-tail entry
    /// point. The record's sequence number must be exactly the next write
    /// (`self.seq()`); a gap means the tail stream skipped a record and the
    /// replica must re-bootstrap rather than silently diverge.
    pub fn apply_replicated(&self, record: &WalRecord) -> CoreResult<()> {
        let expect = self.seq.load(Ordering::SeqCst);
        if record.seq != expect {
            return Err(SsjError::InvalidParams(format!(
                "replicated record seq {} but replica expects {expect}",
                record.seq
            )));
        }
        let shard_no = match &record.op {
            WalOp::Insert { shard, .. } | WalOp::Remove { shard, .. } => *shard as usize,
        };
        let Some(shard) = self.shards.get(shard_no) else {
            return Err(SsjError::InvalidParams(format!(
                "replicated record names shard {shard_no} of {}",
                self.shards.len()
            )));
        };
        let mut index = shard.index.write();
        match &record.op {
            WalOp::Insert { set, .. } => {
                let _ = index.insert(set.clone());
                shard.counters.inserts.fetch_add(1, Ordering::Relaxed);
            }
            WalOp::Remove { local, .. } => {
                let _ = index.try_remove(*local);
                shard.counters.removes.fetch_add(1, Ordering::Relaxed);
            }
        }
        // Advance seq inside the shard write critical section, mirroring
        // the owner's ordering: a replica query that sees seq = S has seen
        // exactly the replicated writes numbered < S.
        self.seq.store(record.seq + 1, Ordering::SeqCst);
        drop(index);
        Ok(())
    }

    fn canonical(elems: Vec<ElementId>) -> Vec<ElementId> {
        let mut sorted = elems;
        sorted.sort_unstable();
        sorted.dedup();
        sorted
    }

    fn encode_id(&self, local: u32, shard: usize) -> u64 {
        u64::from(local) * self.shards.len() as u64 + shard as u64
    }

    /// Splits a global id into `(shard, local)`; `None` if the local part
    /// exceeds the id domain (such an id was never issued).
    fn decode_id(&self, global: u64) -> Option<(usize, u32)> {
        let n = self.shards.len() as u64;
        let shard = (global % n) as usize;
        let local = u32::try_from(global / n).ok()?;
        Some((shard, local))
    }

    /// Read-locks every shard in ascending shard order and returns the
    /// guards (position `i` guards shard `i`). This is the single audited
    /// implementation of whole-index read acquisition; every
    /// snapshot-consistent scan (query, stats, snapshot, dump) goes
    /// through it rather than hand-rolling a guard sweep.
    fn lock_all_read(&self) -> Vec<WitnessReadGuard<'_, JaccardIndex>> {
        // locklint: allow(multi-shard-order, fn): this is the canonical ascending-order acquisition every multi-shard reader shares — iteration order is the shard vector's index order, and the debug-build lock witness re-checks (rank, key) monotonicity on every acquire.
        self.shards.iter().map(|s| s.index.read()).collect()
    }

    /// Write-locks shard `owner` and read-locks every other shard, in one
    /// ascending-order sweep (position `i` guards shard `i`). The audited
    /// counterpart of [`ShardedIndex::lock_all_read`] for the
    /// query-then-insert path, which must observe a consistent snapshot
    /// *and* mutate the owning shard under the same acquisition.
    fn lock_owner_write(&self, owner: usize) -> Vec<ShardGuard<'_>> {
        // locklint: allow(multi-shard-order, fn): canonical ascending-order acquisition for the query-then-insert path — write lock at the owner, read locks elsewhere, one ordered sweep re-checked at runtime by the lock witness.
        self.shards
            .iter()
            .enumerate()
            .map(|(i, s)| {
                if i == owner {
                    ShardGuard::Write(s.index.write())
                } else {
                    ShardGuard::Read(s.index.read())
                }
            })
            .collect()
    }

    /// Assigns this write's sequence number, WAL-logging it first when a
    /// store is attached. Called *inside* the owning shard's write critical
    /// section; seq assignment happens inside the WAL's own critical
    /// section, so WAL file order equals global sequence order and any WAL
    /// prefix is a prefix of the logical write history.
    fn log_write(&self, op: impl FnOnce() -> WalOp) -> Result<u64, String> {
        match &self.store {
            Some(store) => store
                .append(op(), || self.seq.fetch_add(1, Ordering::SeqCst))
                .map_err(|e| format!("wal append failed: {e}")),
            None => Ok(self.seq.fetch_add(1, Ordering::SeqCst)),
        }
    }

    /// Drives write `seq` to its configured sync point and returns the
    /// durable watermark (`None` without a store). Called *after* the shard
    /// lock is released so fsync never blocks other shards' writers.
    fn settle_write(&self, seq: u64) -> Result<Option<u64>, String> {
        let Some(store) = &self.store else {
            return Ok(None);
        };
        let durable = store
            .ensure_durable(seq)
            .map_err(|e| format!("wal sync failed: {e}"))?;
        self.maybe_snapshot();
        Ok(Some(durable))
    }

    /// Indexes a set; returns its stable global id and write number plus
    /// the durable watermark.
    pub fn insert_d(&self, elems: Vec<ElementId>) -> WriteResult<(u64, u64)> {
        // locklint: allow(blocking-under-lock, fn): the WAL append (log_write) deliberately runs inside the shard write critical section so WAL file order equals global seq order; the fsync (settle_write) runs only after the guard is dropped.
        let set = Self::canonical(elems);
        let owner = self.placement.bucket_of(&set);
        let shard = &self.shards[owner];
        let mut index = shard.index.write();
        let seq = match self.log_write(|| WalOp::Insert {
            shard: owner as u32,
            set: set.clone(),
        }) {
            Ok(seq) => seq,
            Err(msg) => return WriteResult::StoreFailed(msg),
        };
        let local = index.insert(set);
        drop(index);
        shard.counters.inserts.fetch_add(1, Ordering::Relaxed);
        match self.settle_write(seq) {
            Ok(durable) => WriteResult::Done((self.encode_id(local, owner), seq), durable),
            // The write is applied and logged but not at its sync point;
            // the store is poisoned, so the client must not treat it as
            // durable — surface the failure instead of a watermark.
            Err(msg) => WriteResult::StoreFailed(msg),
        }
    }

    /// Indexes a set; returns its stable global id and write number.
    pub fn insert(&self, elems: Vec<ElementId>) -> (u64, u64) {
        match self.insert_d(elems) {
            WriteResult::Done(out, _) => out,
            // Only reachable with a store attached; direct users of the
            // tuple API are memory-only (tests, benches).
            WriteResult::StoreFailed(_) => (u64::MAX, u64::MAX),
        }
    }

    /// Removes a set by global id; returns whether it was live and the
    /// write number, plus the durable watermark.
    pub fn remove_d(&self, global: u64) -> WriteResult<(bool, u64)> {
        // locklint: allow(blocking-under-lock, fn): the WAL append (log_write) deliberately runs inside the shard write critical section so WAL file order equals global seq order; the fsync (settle_write) runs only after the guard is dropped.
        let Some((owner, local)) = self.decode_id(global) else {
            // Out-of-domain id: provably never issued, so this is a no-op
            // that needs no lock, changes no state, and is not logged
            // (keeping WAL sequence numbers contiguous).
            return WriteResult::Done((false, self.seq.load(Ordering::SeqCst)), None);
        };
        let shard = &self.shards[owner];
        let mut index = shard.index.write();
        let seq = match self.log_write(|| WalOp::Remove {
            shard: owner as u32,
            local,
        }) {
            Ok(seq) => seq,
            Err(msg) => return WriteResult::StoreFailed(msg),
        };
        let found = index.try_remove(local);
        drop(index);
        shard.counters.removes.fetch_add(1, Ordering::Relaxed);
        match self.settle_write(seq) {
            Ok(durable) => WriteResult::Done((found, seq), durable),
            Err(msg) => WriteResult::StoreFailed(msg),
        }
    }

    /// Removes a set by global id; returns whether it was live, and the
    /// write number.
    pub fn remove(&self, global: u64) -> (bool, u64) {
        match self.remove_d(global) {
            WriteResult::Done(out, _) => out,
            WriteResult::StoreFailed(_) => (false, u64::MAX),
        }
    }

    /// Queries all shards against one consistent snapshot; returns the
    /// matching global ids (ascending), the snapshot's sequence number,
    /// and the candidates probed.
    pub fn query(&self, elems: Vec<ElementId>) -> (Vec<u64>, u64, u64) {
        // hotlint: allow(hot-scratch, fn): convenience wrapper for tests and one-shot callers — the worker pool threads a per-worker ServeScratch through query_scratch.
        let mut ids = Vec::new();
        let (seen_seq, probed) = self.query_scratch(&elems, &mut ServeScratch::default(), &mut ids);
        (ids, seen_seq, probed)
    }

    /// [`Self::query`] with caller-provided buffers: clears `out`, fills it
    /// with the matching global ids (ascending), and returns
    /// `(seen_seq, probed)`. Allocation-free once the buffers have warmed
    /// up — the worker pool's steady-state read path.
    pub fn query_scratch(
        &self,
        elems: &[ElementId],
        scratch: &mut ServeScratch,
        out: &mut Vec<u64>,
    ) -> (u64, u64) {
        // `scratch.set` is taken out so `scratch` can be handed down the
        // recursion; restored below (no allocation, keeps the buffer warm).
        let mut set = std::mem::take(&mut scratch.set);
        set.clear();
        set.extend_from_slice(elems);
        set.sort_unstable();
        set.dedup();
        out.clear();
        let mut probed = 0u64;
        let seen_seq = self.query_rec(0, &set, scratch, out, &mut probed);
        out.sort_unstable();
        scratch.set = set;
        (seen_seq, probed)
    }

    /// Recursive whole-index read acquisition: frame `i` read-locks shard
    /// `i`, recurses to `i + 1`, and queries shard `i` on unwind while its
    /// guard is still held. The deepest frame loads `seq` with **all**
    /// guards held, and every guard is acquired before that load and
    /// released only after its shard's query — so each shard is queried in
    /// exactly the state it had at the `seq` load, giving the same snapshot
    /// consistency as [`ShardedIndex::lock_all_read`] without materializing
    /// a guard vector (the read path must not allocate).
    fn query_rec(
        &self,
        i: usize,
        set: &[ElementId],
        scratch: &mut ServeScratch,
        out: &mut Vec<u64>,
        probed: &mut u64,
    ) -> u64 {
        // locklint: allow(multi-shard-order, fn): ascending recursive acquisition — frame i read-locks shard i before recursing to i+1, so locks are taken in index order like lock_all_read's sweep; the debug-build lock witness re-checks (rank, key) monotonicity on every acquire.
        let Some(shard) = self.shards.get(i) else {
            return self.seq.load(Ordering::SeqCst);
        };
        let guard = shard.index.read();
        let seen_seq = self.query_rec(i + 1, set, scratch, out, probed);
        let mut matches = std::mem::take(&mut scratch.matches);
        let shard_probed = guard.query_counted_scratch(set, &mut scratch.query, &mut matches);
        *probed += shard_probed as u64;
        shard.counters.queries.fetch_add(1, Ordering::Relaxed);
        shard
            .counters
            .candidates_probed
            .fetch_add(shard_probed as u64, Ordering::Relaxed);
        shard
            .counters
            .bitmap_pruned
            .fetch_add(scratch.query.last_bitmap_pruned() as u64, Ordering::Relaxed);
        shard
            .counters
            .verified_hits
            .fetch_add(matches.len() as u64, Ordering::Relaxed);
        out.extend(matches.iter().map(|&local| self.encode_id(local, i)));
        scratch.matches = matches;
        seen_seq
    }

    /// Atomically queries then inserts: the returned matches are exactly
    /// the writes numbered below the returned `seq`, and the insert *is*
    /// write `seq`. Returns `(matching ids, new id, seq, probed)` plus the
    /// durable watermark.
    pub fn query_insert_d(&self, elems: Vec<ElementId>) -> WriteResult<(Vec<u64>, u64, u64, u64)> {
        // locklint: allow(blocking-under-lock, fn): the WAL append (log_write) deliberately runs inside the owner shard's write critical section so WAL file order equals global seq order; the fsync (settle_write) runs only after the guards are dropped.
        let set = Self::canonical(elems);
        let owner = self.placement.bucket_of(&set);
        let mut guards = self.lock_owner_write(owner);
        let seq = match self.log_write(|| WalOp::Insert {
            shard: owner as u32,
            set: set.clone(),
        }) {
            Ok(seq) => seq,
            Err(msg) => return WriteResult::StoreFailed(msg),
        };
        let mut ids = Vec::new();
        let mut probed = 0u64;
        let mut qscratch = QueryScratch::default();
        let mut matches: Vec<SetId> = Vec::new();
        for (i, (shard, guard)) in self.shards.iter().zip(&guards).enumerate() {
            let shard_probed =
                guard
                    .index()
                    .query_counted_scratch(&set, &mut qscratch, &mut matches);
            probed += shard_probed as u64;
            shard.counters.queries.fetch_add(1, Ordering::Relaxed);
            shard
                .counters
                .candidates_probed
                .fetch_add(shard_probed as u64, Ordering::Relaxed);
            shard
                .counters
                .bitmap_pruned
                .fetch_add(qscratch.last_bitmap_pruned() as u64, Ordering::Relaxed);
            shard
                .counters
                .verified_hits
                .fetch_add(matches.len() as u64, Ordering::Relaxed);
            ids.extend(matches.iter().map(|&local| self.encode_id(local, i)));
        }
        let id = match guards[owner].index_mut() {
            Some(g) => {
                let local = g.insert(set);
                self.encode_id(local, owner)
            }
            // Unreachable: lock_owner_write always write-locks `owner`;
            // keep a harmless fallback rather than panic in the service
            // path.
            None => u64::MAX,
        };
        drop(guards);
        self.shards[owner]
            .counters
            .inserts
            .fetch_add(1, Ordering::Relaxed);
        ids.sort_unstable();
        match self.settle_write(seq) {
            Ok(durable) => WriteResult::Done((ids, id, seq, probed), durable),
            Err(msg) => WriteResult::StoreFailed(msg),
        }
    }

    /// Atomically queries then inserts. Returns
    /// `(matching ids, new id, seq, probed)`.
    pub fn query_insert(&self, elems: Vec<ElementId>) -> (Vec<u64>, u64, u64, u64) {
        match self.query_insert_d(elems) {
            WriteResult::Done(out, _) => out,
            WriteResult::StoreFailed(_) => (Vec::new(), u64::MAX, u64::MAX, 0),
        }
    }

    /// Per-shard live-set counts, counter snapshots, and the current
    /// sequence number.
    pub fn shard_stats(&self) -> (Vec<u64>, Vec<ShardCountersSnapshot>, u64) {
        // One ordered acquisition instead of a transient read lock per
        // shard: the live counts come from a single consistent snapshot,
        // and the guards are dropped before any other work.
        let guards = self.lock_all_read();
        let live: Vec<u64> = guards.iter().map(|g| g.len() as u64).collect();
        drop(guards);
        let counters = self.shards.iter().map(|s| s.counters.snapshot()).collect();
        (live, counters, self.seq())
    }

    /// Bumps the writes-since-snapshot counter and, when the configured
    /// cadence is reached and no cadence snapshot is already running,
    /// takes one (a concurrent `compact` waits on the store's publish
    /// mutex).
    /// Snapshot failures are reported to stderr but never fail the write
    /// that triggered them (its durability came from the WAL).
    fn maybe_snapshot(&self) {
        if self.snapshot_every == 0 {
            return;
        }
        let writes = self.writes_since_snapshot.fetch_add(1, Ordering::Relaxed) + 1;
        if writes < self.snapshot_every {
            return;
        }
        if self
            .snapshotting
            .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            return;
        }
        self.writes_since_snapshot.store(0, Ordering::Relaxed);
        if let Err(e) = self.snapshot_now() {
            eprintln!("ssj-serve: background snapshot failed: {e}");
        }
        self.snapshotting.store(false, Ordering::SeqCst);
    }

    /// Snapshots every shard and truncates the WAL. Takes all shard read
    /// locks (ascending order), which quiesces writers — a write appends to
    /// the WAL inside its shard's *write* critical section, so no record
    /// the snapshot misses can predate the snapshot's watermark.
    /// Concurrent callers publish one batch at a time, under the store's
    /// `snapshot-publish` mutex.
    ///
    /// No-op `Ok` without a store.
    pub fn snapshot_now(&self) -> std::io::Result<()> {
        match &self.store {
            Some(store) => self.snapshot_counted(store).map(drop),
            None => Ok(()),
        }
    }

    /// [`Self::snapshot_now`] on the attached `store`, answering the
    /// watermark and the live sets written.
    fn snapshot_counted(&self, store: &Store) -> std::io::Result<(u64, u64)> {
        // locklint: allow(blocking-under-lock, fn): snapshot + WAL truncation deliberately run under all shard read locks — holding them quiesces writers, so no record can slip between the snapshot images and the truncation and be lost from both files.
        let guards = self.lock_all_read();
        let seq = self.seq.load(Ordering::SeqCst);
        let states = states_of(&guards);
        // Guards stay held across snapshot + WAL truncation: a write
        // sneaking between the two would be lost from both files.
        let result = store.snapshot(seq, &states);
        drop(guards);
        let sets = states.iter().map(|s| s.live.len() as u64).sum();
        result.map(|()| (seq, sets))
    }

    /// Forces the WAL to stable storage; returns the durable watermark
    /// (`None` without a store). Part of graceful shutdown.
    pub fn flush_store(&self) -> std::io::Result<Option<u64>> {
        match &self.store {
            Some(store) => store.flush().map(Some),
            None => Ok(None),
        }
    }

    /// The full logical state — per-shard snapshot states plus the global
    /// sequence number — under all shard read locks. Test/crashtest
    /// instrumentation for differential comparison against an oracle.
    pub fn dump(&self) -> (Vec<ShardState>, u64) {
        let guards = self.lock_all_read();
        let dumped = (states_of(&guards), self.seq.load(Ordering::SeqCst));
        drop(guards);
        dumped
    }
}

/// Every shard's live state, read through its held guard.
fn states_of(guards: &[WitnessReadGuard<'_, JaccardIndex>]) -> Vec<ShardState> {
    let state = |g: &WitnessReadGuard<'_, JaccardIndex>| {
        let (next_id, live) = g.dump_live();
        ShardState { next_id, live }
    };
    guards.iter().map(state).collect()
}

struct Job {
    req: Request,
    enqueued: Instant,
    deadline: Duration,
    reply: std::sync::mpsc::SyncSender<Response>,
}

enum Msg {
    Job(Job),
    Stop,
}

struct Inner {
    index: ShardedIndex,
    metrics: ServerMetrics,
    cfg: ServerConfig,
    draining: AtomicBool,
}

impl Inner {
    fn execute(&self, req: Request, scratch: &mut ServeScratch) -> Response {
        // Admission validation: reject sets beyond the configured size
        // bound with a clean wire error. Without this (and the index-layer
        // guards underneath), an oversized set could panic a worker — the
        // connection thread would see a dead reply channel and every later
        // client request on that worker would go unanswered.
        let oversized = match &req {
            Request::Insert { elems }
            | Request::Query { elems }
            | Request::QueryInsert { elems } => elems.len() > self.cfg.max_set_len,
            Request::Remove { .. }
            | Request::Stats
            | Request::Compact
            | Request::Tail { .. }
            | Request::SnapFetch => false,
        };
        if oversized {
            return Response::Error(format!(
                "set exceeds the server's max_set_len = {}",
                self.cfg.max_set_len
            ));
        }
        match req {
            Request::Insert { elems } => match self.index.insert_d(elems) {
                WriteResult::Done((id, seq), durable) => Response::Inserted { id, seq, durable },
                WriteResult::StoreFailed(msg) => Response::Error(msg),
            },
            Request::Remove { id } => match self.index.remove_d(id) {
                WriteResult::Done((found, seq), durable) => Response::Removed {
                    found,
                    seq,
                    durable,
                },
                WriteResult::StoreFailed(msg) => Response::Error(msg),
            },
            Request::Query { elems } => {
                // The response owns its ids, so one Vec per reply is
                // inherent to the protocol; everything else the query
                // touches reuses the worker's scratch.
                let mut ids = Vec::new();
                let (seen_seq, probed) = self.index.query_scratch(&elems, scratch, &mut ids);
                Response::Matches {
                    ids,
                    seen_seq,
                    probed,
                }
            }
            Request::QueryInsert { elems } => match self.index.query_insert_d(elems) {
                WriteResult::Done((ids, id, seq, probed), durable) => Response::QueryInserted {
                    ids,
                    id,
                    seq,
                    probed,
                    durable,
                },
                WriteResult::StoreFailed(msg) => Response::Error(msg),
            },
            Request::Stats => Response::Stats(self.stats()),
            Request::Compact => self.compact(),
            Request::Tail { from_seq } => self.tail(from_seq),
            Request::SnapFetch => self.snap_fetch(),
        }
    }

    /// Ships the WAL suffix from `from_seq` (replica catch-up).
    fn tail(&self, from_seq: u64) -> Response {
        let Some(store) = self.index.store() else {
            return Response::Error("tail requires a durable server (--data-dir)".into());
        };
        match store.tail_wal(from_seq) {
            Ok(ssj_store::WalTail::Frames(frames)) => Response::WalTail {
                from_seq,
                frames: Some(frames),
            },
            Ok(ssj_store::WalTail::Truncated) => Response::WalTail {
                from_seq,
                frames: None,
            },
            Err(e) => Response::Error(format!("tail failed: {e}")),
        }
    }

    /// Ships a consistent full-state snapshot batch (replica bootstrap).
    /// The states come from [`ShardedIndex::dump`], so every image shares
    /// one watermark regardless of concurrent writes.
    fn snap_fetch(&self) -> Response {
        let (states, seq) = self.index.dump();
        let n = states.len();
        let shards = states
            .iter()
            .enumerate()
            .map(|(i, state)| state.to_image(i, n, seq));
        match shards.collect() {
            Ok(shards) => Response::Snapshots { seq, shards },
            Err(e) => Response::Error(format!("snap_fetch failed: {e}")),
        }
    }

    /// Snapshots every shard now (the `compact` op).
    fn compact(&self) -> Response {
        let Some(store) = self.index.store() else {
            return Response::Error("compact requires a durable server (--data-dir)".into());
        };
        match self.index.snapshot_counted(store) {
            Ok((seq, sets)) => Response::Compacted {
                seq,
                sets,
                file: store.dir().display().to_string(),
            },
            Err(e) => Response::Error(format!("compact failed: {e}")),
        }
    }

    fn stats(&self) -> StatsSnapshot {
        let (live_sets, shards, seq) = self.index.shard_stats();
        StatsSnapshot {
            live_sets,
            shards,
            seq,
            accepted: self.metrics.accepted.load(Ordering::Relaxed),
            overloaded: self.metrics.overloaded.load(Ordering::Relaxed),
            timeouts: self.metrics.timeouts.load(Ordering::Relaxed),
            queue_wait: self.metrics.queue_wait.snapshot(),
            service_time: self.metrics.service_time.snapshot(),
        }
    }
}

fn worker_loop(inner: Arc<Inner>, rx: channel::Receiver<Msg>) {
    // One scratch per worker: steady-state queries reuse these buffers
    // instead of allocating per request (DESIGN.md §5g).
    let mut scratch = ServeScratch::default();
    while let Ok(msg) = rx.recv() {
        let job = match msg {
            Msg::Stop => break,
            Msg::Job(job) => job,
        };
        let waited = job.enqueued.elapsed();
        inner.metrics.queue_wait.record(waited);
        if waited > job.deadline {
            inner.metrics.timeouts.fetch_add(1, Ordering::Relaxed);
            let _ = job.reply.send(Response::Timeout);
            continue;
        }
        if !inner.cfg.worker_delay.is_zero() {
            // Fault-injection pause (tests); see ServerConfig::worker_delay.
            std::thread::sleep(inner.cfg.worker_delay);
        }
        let start = Instant::now();
        let resp = inner.execute(job.req, &mut scratch);
        inner.metrics.service_time.record(start.elapsed());
        // A requester that gave up is not an error; drop the response.
        let _ = job.reply.send(resp);
    }
}

/// A running service instance: the sharded index plus its worker pool.
///
/// Obtain [`Handle`]s with [`Server::handle`] and submit requests from any
/// number of threads; call [`Server::shutdown`] (or drop the server) for a
/// graceful drain.
pub struct Server {
    inner: Arc<Inner>,
    tx: channel::Sender<Msg>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Builds the index — recovering from `cfg.data_dir` when one is
    /// configured — and spawns the worker pool.
    pub fn start(cfg: ServerConfig) -> CoreResult<Self> {
        let index = ShardedIndex::open(&cfg)?;
        let workers = cfg.effective_workers().max(1);
        let (tx, rx) = channel::bounded::<Msg>(cfg.queue_capacity.max(1));
        let inner = Arc::new(Inner {
            index,
            metrics: ServerMetrics::default(),
            cfg,
            draining: AtomicBool::new(false),
        });
        let handles = (0..workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                let rx = rx.clone();
                std::thread::Builder::new()
                    .name(format!("ssj-serve-worker-{i}"))
                    .spawn(move || worker_loop(inner, rx))
            })
            .collect::<std::io::Result<Vec<_>>>()
            .map_err(|e| {
                ssj_core::error::SsjError::InvalidParams(format!(
                    "failed to spawn worker threads: {e}"
                ))
            })?;
        Ok(Self {
            inner,
            tx,
            workers: handles,
        })
    }

    /// A cloneable submission handle.
    pub fn handle(&self) -> Handle {
        Handle {
            inner: Arc::clone(&self.inner),
            tx: self.tx.clone(),
        }
    }

    /// Current counters (without going through the request queue).
    pub fn stats(&self) -> StatsSnapshot {
        self.inner.stats()
    }

    /// Direct access to the sharded index (snapshot/flush control and
    /// test instrumentation).
    pub fn index(&self) -> &ShardedIndex {
        &self.inner.index
    }

    /// Graceful drain: stop admitting, finish queued work, join workers.
    pub fn shutdown(mut self) {
        self.drain();
    }

    fn drain(&mut self) {
        if self.workers.is_empty() {
            return;
        }
        self.inner.draining.store(true, Ordering::SeqCst);
        // One Stop sentinel per worker, queued *behind* all admitted work
        // (FIFO), so every in-flight request is answered before exit.
        for _ in 0..self.workers.len() {
            let _ = self.tx.send(Msg::Stop);
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        // All workers are joined: no write is in flight, so this flush
        // covers every acked write. Failures are reported, not swallowed
        // silently — but drain never panics.
        if let Err(e) = self.inner.index.flush_store() {
            eprintln!("ssj-serve: WAL flush on shutdown failed: {e}");
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.drain();
    }
}

/// A cheap, cloneable client handle to a [`Server`].
#[derive(Clone)]
pub struct Handle {
    inner: Arc<Inner>,
    tx: channel::Sender<Msg>,
}

impl Handle {
    /// Submits a request with the server's default deadline and waits for
    /// the response. Never blocks on a full queue and never panics: queue
    /// pressure, expiry, and shutdown surface as the corresponding
    /// [`Response`] variants.
    pub fn call(&self, req: Request) -> Response {
        self.call_with_deadline(req, None)
    }

    /// [`Handle::call`] with an explicit queue deadline.
    pub fn call_with_deadline(&self, req: Request, deadline: Option<Duration>) -> Response {
        if self.inner.draining.load(Ordering::SeqCst) {
            return Response::ShuttingDown;
        }
        let (reply_tx, reply_rx) = std::sync::mpsc::sync_channel(1);
        let job = Job {
            req,
            enqueued: Instant::now(),
            deadline: deadline.unwrap_or(self.inner.cfg.default_deadline),
            reply: reply_tx,
        };
        // Count admission optimistically so a stats request never observes
        // itself missing; rolled back on rejection.
        self.inner.metrics.accepted.fetch_add(1, Ordering::Relaxed);
        match self.tx.try_send(Msg::Job(job)) {
            // A worker always answers; an error means the pool is gone
            // (drain raced the admission check above).
            Ok(()) => reply_rx.recv().unwrap_or(Response::ShuttingDown),
            Err(TrySendError::Full(_)) => {
                self.inner.metrics.accepted.fetch_sub(1, Ordering::Relaxed);
                self.inner
                    .metrics
                    .overloaded
                    .fetch_add(1, Ordering::Relaxed);
                Response::Overloaded
            }
            Err(TrySendError::Disconnected(_)) => {
                self.inner.metrics.accepted.fetch_sub(1, Ordering::Relaxed);
                Response::ShuttingDown
            }
        }
    }

    /// Whether the server has begun draining.
    pub fn is_draining(&self) -> bool {
        self.inner.draining.load(Ordering::SeqCst)
    }

    /// Current counters (without going through the request queue).
    pub fn stats(&self) -> StatsSnapshot {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(shards: usize) -> ServerConfig {
        ServerConfig {
            shards,
            workers: 2,
            ..ServerConfig::default()
        }
    }

    #[test]
    fn sharded_index_basic_operations() {
        let idx = ShardedIndex::new(&cfg(4)).expect("valid config");
        let (a, seq_a) = idx.insert(vec![1, 2, 3, 4, 5]);
        let (_b, seq_b) = idx.insert(vec![100, 200, 300]);
        assert_ne!(seq_a, seq_b);
        let (ids, seen, probed) = idx.query(vec![1, 2, 3, 4, 5]);
        assert_eq!(ids, vec![a]);
        assert_eq!(seen, 2);
        assert!(probed >= 1);
        let (found, _) = idx.remove(a);
        assert!(found);
        let (found_again, _) = idx.remove(a);
        assert!(!found_again);
        let (ids, _, _) = idx.query(vec![1, 2, 3, 4, 5]);
        assert!(ids.is_empty());
    }

    #[test]
    fn global_ids_round_trip_through_shards() {
        let idx = ShardedIndex::new(&cfg(3)).expect("valid config");
        let mut ids = Vec::new();
        for i in 0..50u32 {
            let base = i * 100;
            let (id, _) = idx.insert((base..base + 10).collect());
            ids.push(id);
        }
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 50, "global ids must be unique");
        for (i, &id) in ids.iter().enumerate() {
            let _ = i;
            let (found, _) = idx.remove(id);
            assert!(found, "id {id} must decode back to its set");
        }
    }

    #[test]
    fn query_insert_excludes_self_and_finds_duplicates() {
        let idx = ShardedIndex::new(&cfg(4)).expect("valid config");
        let (ids, first, seq0, _) = idx.query_insert(vec![1, 2, 3, 4, 5]);
        assert!(ids.is_empty());
        assert_eq!(seq0, 0);
        let (ids, second, seq1, _) = idx.query_insert(vec![1, 2, 3, 4, 5]);
        assert_eq!(ids, vec![first]);
        assert_ne!(second, first);
        assert_eq!(seq1, 1);
    }

    #[test]
    fn insert_and_query_insert_share_one_placement() {
        // Regression: the owner shard used to be recomputed from loose
        // (shards, seed) pairs at both write call sites; they now consult
        // the one stored Placement. Pin that: the shard recovered from the
        // returned global id must equal the policy's own answer, for both
        // write paths.
        let idx = ShardedIndex::new(&cfg(4)).expect("valid config");
        use ssj_core::index::Placement as _;
        for i in 0..64u32 {
            let set: Vec<u32> = (i * 10..i * 10 + 1 + i % 5).collect();
            let expect = idx.placement().bucket_of(&set);
            let (id_a, _) = idx.insert(set.clone());
            assert_eq!(id_a as usize % 4, expect, "insert_d owner for {set:?}");
            let shifted: Vec<u32> = set.iter().map(|e| e + 1_000_000).collect();
            let expect_b = idx.placement().bucket_of(&shifted);
            let (_, id_b, _, _) = idx.query_insert(shifted.clone());
            assert_eq!(
                id_b as usize % 4,
                expect_b,
                "query_insert_d owner for {shifted:?}"
            );
        }
    }

    #[test]
    fn replica_restore_and_apply_mirror_the_owner() {
        let owner = ShardedIndex::new(&cfg(3)).expect("valid config");
        let (id_a, _) = owner.insert(vec![1, 2, 3]);
        let (_, _) = owner.insert(vec![50, 60]);
        // Bootstrap a replica from the owner's dumped states…
        let (states, seq) = owner.dump();
        let replica =
            ShardedIndex::restore_from_states(&cfg(3), &states, seq).expect("states are valid");
        assert_eq!(replica.seq(), 2);
        let (ids, seen, _) = replica.query(vec![1, 2, 3]);
        assert_eq!(ids, vec![id_a]);
        assert_eq!(seen, 2);
        // …then tail two more writes in log order.
        use ssj_core::index::Placement as _;
        let set = vec![7u32, 8, 9];
        let shard = owner.placement().bucket_of(&set) as u32;
        let (id_c, seq_c) = owner.insert(set.clone());
        replica
            .apply_replicated(&WalRecord {
                seq: seq_c,
                op: WalOp::Insert { shard, set },
            })
            .expect("in-order apply");
        let (ids, seen, _) = replica.query(vec![7, 8, 9]);
        assert_eq!(ids, vec![id_c]);
        assert_eq!(seen, 3);
        // A gap is rejected: the replica must re-bootstrap, not diverge.
        let err = replica.apply_replicated(&WalRecord {
            seq: 9,
            op: WalOp::Remove { shard: 0, local: 0 },
        });
        assert!(err.is_err());
    }

    #[test]
    fn out_of_domain_remove_is_a_no_op() {
        let idx = ShardedIndex::new(&cfg(2)).expect("valid config");
        let (found, _) = idx.remove(u64::MAX - 1);
        assert!(!found);
        assert_eq!(idx.seq(), 0, "no write number consumed");
    }

    #[test]
    fn server_round_trip_and_stats() {
        let server = Server::start(cfg(2)).expect("valid config");
        let h = server.handle();
        let resp = h.call(Request::Insert {
            elems: vec![1, 2, 3],
        });
        let id = match resp {
            Response::Inserted { id, .. } => id,
            other => panic!("unexpected {other:?}"),
        };
        match h.call(Request::Query {
            elems: vec![1, 2, 3],
        }) {
            Response::Matches { ids, .. } => assert_eq!(ids, vec![id]),
            other => panic!("unexpected {other:?}"),
        }
        match h.call(Request::Stats) {
            Response::Stats(s) => {
                assert_eq!(s.live_sets.iter().sum::<u64>(), 1);
                assert_eq!(s.accepted, 3);
                assert_eq!(s.overloaded, 0);
            }
            other => panic!("unexpected {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn oversized_sets_answer_error_not_panic() {
        let server = Server::start(ServerConfig {
            max_set_len: 8,
            ..cfg(2)
        })
        .expect("valid config");
        let h = server.handle();
        let big: Vec<u32> = (0..20).collect();
        for req in [
            Request::Insert { elems: big.clone() },
            Request::Query { elems: big.clone() },
            Request::QueryInsert { elems: big },
        ] {
            match h.call(req) {
                Response::Error(msg) => assert!(msg.contains("max_set_len"), "{msg}"),
                other => panic!("expected Error, got {other:?}"),
            }
        }
        // The server survives: in-range requests still work.
        match h.call(Request::Insert {
            elems: vec![1, 2, 3],
        }) {
            Response::Inserted { .. } => {}
            other => panic!("unexpected {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn compact_then_restart_serves_the_compacted_image() {
        let dir = std::env::temp_dir().join(format!("ssj_serve_compact_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let durable = || ServerConfig {
            data_dir: Some(dir.clone()),
            ..cfg(2)
        };
        let server = Server::start(durable()).expect("valid config");
        let h = server.handle();
        let insert = |elems: Vec<u32>| match h.call(Request::Insert { elems }) {
            Response::Inserted { id, .. } => id,
            other => panic!("unexpected {other:?}"),
        };
        let kept = insert(vec![3, 1, 2]);
        let removed = insert(vec![10, 20]);
        match h.call(Request::Remove { id: removed }) {
            Response::Removed { found: true, .. } => {}
            other => panic!("unexpected {other:?}"),
        }
        match h.call(Request::Compact) {
            Response::Compacted { seq, sets, file } => {
                assert_eq!(sets, 1, "tombstoned set must not be compacted");
                assert_eq!(seq, 3);
                assert_eq!(std::path::Path::new(&file), dir.as_path());
            }
            other => panic!("unexpected {other:?}"),
        }
        server.shutdown();

        // The image holds the kept set, canonicalised, and nothing is left
        // in the WAL to replay on top of it.
        let c = durable();
        let store_cfg = StoreConfig {
            shards: c.shards,
            seed: c.seed,
            gamma: c.gamma,
            initial_max_size: c.initial_max_size,
            sync: c.sync,
        };
        let (store, rec) = Store::open(&dir, store_cfg).expect("store reopens");
        let live: Vec<&Vec<u32>> = rec
            .shards
            .iter()
            .flat_map(|s| s.live.iter().map(|(_, set)| set))
            .collect();
        assert_eq!(live, [&vec![1, 2, 3]]);
        assert!(rec.wal.is_empty(), "{:?}", rec.wal);
        drop(store);

        // A server restarted on that image serves it.
        let server = Server::start(durable()).expect("restart");
        let h = server.handle();
        let query = |elems: Vec<u32>| match h.call(Request::Query { elems }) {
            Response::Matches { ids, .. } => ids,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(
            query(vec![1, 2, 3]),
            vec![kept],
            "the image holds the kept set"
        );
        assert_eq!(
            query(vec![10, 20]),
            Vec::<u64>::new(),
            "and not the removed one"
        );
        match h.call(Request::Stats) {
            Response::Stats(s) => assert_eq!(s.live_sets.iter().sum::<u64>(), 1),
            other => panic!("unexpected {other:?}"),
        }
        server.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compact_requires_a_durable_server() {
        let server = Server::start(cfg(2)).expect("valid config");
        let h = server.handle();
        match h.call(Request::Compact) {
            Response::Error(msg) => assert!(msg.contains("data-dir"), "{msg}"),
            other => panic!("unexpected {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn calls_after_shutdown_answer_shutting_down() {
        let server = Server::start(cfg(2)).expect("valid config");
        let h = server.handle();
        server.shutdown();
        assert!(h.is_draining());
        assert_eq!(h.call(Request::Stats), Response::ShuttingDown);
    }
}
