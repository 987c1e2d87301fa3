//! # ssj-store — durable WAL + snapshot persistence for the sharded index
//!
//! `ssj-serve` keeps its sharded `JaccardIndex` in memory; this crate makes
//! that state survive crashes. Three pieces (DESIGN.md §5e):
//!
//! * **WAL** (`wal.log`): every admitted write (insert or tombstone) is
//!   appended as one varint-framed, CRC32-checksummed record tagged with
//!   its global write-sequence number, *before* the client is answered.
//!   Sync policy is explicit ([`SyncMode`]): `Every` fsyncs before each
//!   ack, `Interval` groups fsyncs by time, `Never` only syncs on
//!   snapshot/shutdown.
//! * **Snapshots** (`shard-<i>.snap`): periodically, each shard's live
//!   state is streamed as a compacted [`segment`] (tombstoned entries are
//!   dropped) through the one durable publisher,
//!   `ssj_io::fs::publish_durable`, after which the WAL is truncated. Each
//!   segment's footer stamp carries its shard, the shard count, its
//!   sequence watermark and `next_id`, so a crash *between* snapshot
//!   rename and WAL truncation replays already-snapshotted records as
//!   no-ops (they are skipped per shard). The same segment format is the
//!   out-of-core join's input and the image `snap_fetch` ships to
//!   replicas: one encoder, one decoder.
//! * **Recovery** ([`Store::open`]): snapshot segments, read block by
//!   block, + WAL tail replay. A torn or checksum-failing tail is
//!   discarded at the last valid record boundary — detected, never
//!   silently decoded — and the file is truncated back to that boundary
//!   before new appends. A snapshot that fails verification (or predates
//!   the segment format) is a hard error naming the file.
//!
//! The store is deliberately index-agnostic: it persists logical
//! operations and [`ShardState`] images, and hands them back as a
//! [`Recovered`] value. The serving layer replays them through real
//! `JaccardIndex`es — shard-local id assignment is deterministic in
//! per-shard log order, so replay reconstructs exactly the ids the live
//! process issued.
//!
//! ## Locking and sequence discipline
//!
//! Callers append while holding the owning shard's write lock, and the
//! sequence number is assigned *inside* [`Store::append`]'s WAL critical
//! section (the `assign_seq` callback). Two consequences: file order
//! equals global sequence order, so any WAL prefix is a prefix of the
//! logical write history; and per-shard file order equals per-shard
//! mutation order, which is what makes replayed id assignment exact.

#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo)]

pub mod segment;
pub mod snapshot;
pub mod wal;

pub use snapshot::{persist_shipped_snapshot, ShardState};
pub use wal::{decode_record, WalOp, WalRecord};

use ssj_core::lockwitness::{WitnessMutex, SNAPSHOT_PUBLISH, STORE_WAL};
use ssj_io::frame::{write_frame, Frame, FrameReader};
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// When WAL appends are fsynced relative to the client ack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncMode {
    /// Fsync before every durable ack: an acked write survives any crash.
    Every,
    /// Group commit: fsync at most once per interval (measured at append
    /// time; there is no background timer). Writes acked between syncs are
    /// volatile until the next sync point.
    Interval(Duration),
    /// Never fsync on the write path; only snapshots and shutdown flush.
    Never,
}

impl SyncMode {
    /// Parses `every`, `never`, `interval` (default 100ms), or
    /// `interval:<ms>`.
    pub fn parse(text: &str) -> Result<Self, String> {
        match text {
            "every" => Ok(SyncMode::Every),
            "never" => Ok(SyncMode::Never),
            "interval" => Ok(SyncMode::Interval(Duration::from_millis(100))),
            other => match other.strip_prefix("interval:") {
                Some(ms) => ms
                    .parse::<u64>()
                    .map(|ms| SyncMode::Interval(Duration::from_millis(ms)))
                    .map_err(|_| format!("bad interval milliseconds `{ms}`")),
                None => Err(format!(
                    "unknown sync mode `{other}` (expected every|interval[:ms]|never)"
                )),
            },
        }
    }
}

/// Configuration pinned to a data directory (validated against its `meta`
/// file on every open) plus the runtime sync policy.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Shard count — routing and global-id encoding depend on it.
    pub shards: usize,
    /// Master seed (shard routing and scheme seeds derive from it).
    pub seed: u64,
    /// Similarity threshold of the indexes being persisted.
    pub gamma: f64,
    /// Initial per-shard scheme coverage.
    pub initial_max_size: usize,
    /// WAL sync policy (runtime-only; not pinned in `meta`).
    pub sync: SyncMode,
}

/// Answer to a [`Store::tail_wal`] resume request (replica catch-up).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalTail {
    /// CRC-framed records from the resume point on, **byte-identical** to
    /// the WAL file's own framing — a replica feeds these through the same
    /// `FrameReader` + [`decode_record`] pipeline recovery uses.
    Frames(Vec<u8>),
    /// The resume point predates the oldest WAL record (those writes were
    /// compacted into snapshots); the replica must re-bootstrap from
    /// shipped snapshot images instead of tailing.
    Truncated,
}

/// How the WAL tail looked at recovery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TailStatus {
    /// The log ended exactly on a record boundary.
    Clean,
    /// The final record was torn (crash mid-append); the tail from
    /// `valid_bytes` on was discarded.
    Torn,
    /// A complete-looking record failed its checksum; it and everything
    /// after it was discarded.
    Corrupt,
}

/// Everything [`Store::open`] reconstructed from disk.
#[derive(Debug)]
pub struct Recovered {
    /// Per-shard snapshot states (empty defaults where no snapshot
    /// existed), to be restored into indexes first.
    pub shards: Vec<ShardState>,
    /// WAL records to replay *in order* on top of the snapshot states.
    /// Records already covered by a shard's snapshot watermark are
    /// filtered out here.
    pub wal: Vec<WalRecord>,
    /// The write-sequence counter value to resume from: one past the
    /// newest recovered write.
    pub seq: u64,
    /// How the WAL tail looked (observability; a torn tail is the normal
    /// crash artifact).
    pub tail: TailStatus,
}

struct WalFile {
    file: File,
    /// Sequence numbers: appends are contiguous (the next append carries
    /// `appended_seq`), because sequence assignment happens inside the WAL
    /// critical section.
    appended_seq: u64,
    durable_seq: u64,
    /// Byte mirror of the two watermarks, for fault-injection harnesses.
    appended_bytes: u64,
    durable_bytes: u64,
    last_sync: Instant,
    /// Reused append-path encode buffers: record payload and framed bytes.
    /// Living inside the WAL critical section, they make steady-state
    /// appends allocation-free once warmed (DESIGN.md §5g).
    payload_buf: Vec<u8>,
    frame_buf: Vec<u8>,
}

impl WalFile {
    fn sync(&mut self) -> io::Result<()> {
        #[expect(clippy::disallowed_methods, reason = "the WAL's sync point")]
        self.file.sync_data()?;
        self.durable_seq = self.appended_seq;
        self.durable_bytes = self.appended_bytes;
        self.last_sync = Instant::now();
        Ok(())
    }

    /// Encodes, frames and writes one record; returns the framed bytes
    /// written.
    fn write_record(&mut self, record: &WalRecord) -> io::Result<u64> {
        wal::encode_record_into(record, &mut self.payload_buf)?;
        self.frame_buf.clear();
        write_frame(&mut self.frame_buf, &self.payload_buf)?;
        self.file.write_all(&self.frame_buf)?;
        Ok(self.frame_buf.len() as u64)
    }
}

/// The durable store: one WAL plus per-shard snapshots in a data
/// directory. All methods take `&self`; the WAL is internally locked.
pub struct Store {
    dir: PathBuf,
    cfg: StoreConfig,
    /// Held across every snapshot batch: class `snapshot-publish` (rank 5),
    /// after the serving layer's shard locks and before the WAL. Each
    /// shard image is staged at one fixed `shard-<i>.snap.tmp`, so two
    /// overlapping batches would truncate each other's stages.
    publishing: WitnessMutex<()>,
    /// WAL mutex: class `store-wal` (rank 10) in the canonical lock order
    /// (DESIGN.md §5f) — acquired after shard locks, never before them.
    wal: WitnessMutex<WalFile>,
    /// Set on any write-path I/O failure: the in-memory index may then be
    /// ahead of the log in an unknown way, so every later durable write is
    /// refused until the process restarts and recovers from disk.
    poisoned: AtomicBool,
}

fn wal_path(dir: &Path) -> PathBuf {
    dir.join("wal.log")
}

fn poisoned_err() -> io::Error {
    io::Error::other("store poisoned by an earlier write failure; restart to recover")
}

impl Store {
    /// Opens (creating if needed) the store at `dir` and recovers its
    /// state: meta validation, snapshot loading, WAL tail replay with
    /// torn/corrupt-tail truncation. See [`Recovered`] for what comes
    /// back; the store is ready for appends on return.
    pub fn open(dir: &Path, cfg: StoreConfig) -> io::Result<(Self, Recovered)> {
        if cfg.shards == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "store requires at least one shard",
            ));
        }
        fs::create_dir_all(dir)?;
        snapshot::read_or_init_meta(dir, &cfg)?;
        // Stages of a publish a crash interrupted; best-effort.
        ssj_io::fs::sweep_tmp_files(dir)?;

        let mut snap_seqs = vec![0u64; cfg.shards];
        let mut shards = Vec::with_capacity(cfg.shards);
        let mut max_seq = 0u64;
        for (i, snap_seq) in snap_seqs.iter_mut().enumerate() {
            match snapshot::load_snapshot(dir, &cfg, i)? {
                Some((seq, state)) => {
                    *snap_seq = seq;
                    max_seq = max_seq.max(seq);
                    shards.push(state);
                }
                None => shards.push(ShardState::default()),
            }
        }

        // Read the WAL up to its last valid record; classify the tail.
        let path = wal_path(dir);
        #[expect(clippy::disallowed_methods, reason = "CRC-checked by FrameReader")]
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        let mut reader = FrameReader::new(bytes.as_slice());
        let mut records = Vec::new();
        let tail = loop {
            match reader.next_frame()? {
                Frame::Payload(payload) => {
                    let record = wal::decode_record(&payload)?;
                    let shard = record.op.shard() as usize;
                    if shard >= cfg.shards {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("WAL record names shard {shard}, store has {}", cfg.shards),
                        ));
                    }
                    max_seq = max_seq.max(record.seq + 1);
                    // Already compacted into this shard's snapshot: skip.
                    if record.seq >= snap_seqs[shard] {
                        records.push(record);
                    }
                }
                Frame::CleanEof => break TailStatus::Clean,
                Frame::Torn { .. } => break TailStatus::Torn,
                Frame::Corrupt { .. } => break TailStatus::Corrupt,
            }
        };
        let valid_bytes = reader.valid_prefix();

        // Drop the discarded tail on disk too, so new appends continue
        // from the last valid boundary instead of after garbage.
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        if valid_bytes < bytes.len() as u64 {
            file.set_len(valid_bytes)?;
        }
        #[expect(clippy::disallowed_methods, reason = "makes the WAL trim durable")]
        file.sync_data()?;
        ssj_io::fs::sync_dir(dir)?;

        let store = Store {
            dir: dir.to_path_buf(),
            cfg,
            publishing: WitnessMutex::new(&SNAPSHOT_PUBLISH, 0, ()),
            wal: WitnessMutex::new(
                &STORE_WAL,
                0,
                WalFile {
                    file,
                    appended_seq: max_seq,
                    durable_seq: max_seq,
                    appended_bytes: valid_bytes,
                    durable_bytes: valid_bytes,
                    last_sync: Instant::now(),
                    payload_buf: Vec::new(),
                    frame_buf: Vec::new(),
                },
            ),
            poisoned: AtomicBool::new(false),
        };
        Ok((
            store,
            Recovered {
                shards,
                wal: records,
                seq: max_seq,
                tail,
            },
        ))
    }

    /// The store's configuration.
    pub fn config(&self) -> &StoreConfig {
        &self.cfg
    }

    /// The data directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::SeqCst)
    }

    /// Appends one operation to the WAL. `assign_seq` runs inside the WAL
    /// critical section and must return this write's global sequence
    /// number (the serving layer passes its `fetch_add`); assigning inside
    /// the lock keeps file order identical to sequence order. The caller
    /// must hold the owning shard's write lock across this call. Returns
    /// the assigned seq. On I/O failure the store is poisoned and every
    /// later append fails fast.
    pub fn append(&self, op: WalOp, assign_seq: impl FnOnce() -> u64) -> io::Result<u64> {
        if self.is_poisoned() {
            return Err(poisoned_err());
        }
        // locklint: allow(blocking-under-lock, fn): the WAL append must happen inside the WAL critical section (and under the caller's shard write lock) so file order equals global seq order — that invariant is what makes recovery replay exact (DESIGN.md §5e).
        let mut wal = self.wal.lock();
        let seq = assign_seq();
        match wal.write_record(&WalRecord { seq, op }) {
            Ok(n) => {
                wal.appended_seq = seq + 1;
                wal.appended_bytes += n;
                Ok(seq)
            }
            Err(e) => {
                self.poisoned.store(true, Ordering::SeqCst);
                Err(e)
            }
        }
    }

    /// Brings write `seq` to its configured sync point and returns the
    /// durable watermark: every write numbered below the returned value is
    /// on stable storage. Under [`SyncMode::Every`] this fsyncs (group
    /// commit: one fsync covers every record appended since the last);
    /// under `Interval` it fsyncs only when the interval has elapsed;
    /// under `Never` it just reports the current watermark.
    pub fn ensure_durable(&self, seq: u64) -> io::Result<u64> {
        if self.is_poisoned() {
            return Err(poisoned_err());
        }
        // locklint: allow(blocking-under-lock, fn): the durability fsync must cover every record appended before it, which requires holding the WAL mutex across sync_data — releasing first would let a later append slip under the advancing watermark.
        let mut wal = self.wal.lock();
        let should_sync = match self.cfg.sync {
            SyncMode::Every => wal.durable_seq <= seq,
            SyncMode::Interval(d) => {
                wal.durable_seq < wal.appended_seq && wal.last_sync.elapsed() >= d
            }
            SyncMode::Never => false,
        };
        if should_sync {
            if let Err(e) = wal.sync() {
                self.poisoned.store(true, Ordering::SeqCst);
                return Err(e);
            }
        }
        Ok(wal.durable_seq)
    }

    /// Fsyncs the WAL unconditionally (shutdown / drain path) and returns
    /// the durable watermark.
    pub fn flush(&self) -> io::Result<u64> {
        if self.is_poisoned() {
            return Err(poisoned_err());
        }
        // locklint: allow(blocking-under-lock, fn): shutdown flush — same watermark argument as ensure_durable: the fsync and the durable_seq advance must be atomic with respect to concurrent appends.
        let mut wal = self.wal.lock();
        if let Err(e) = wal.sync() {
            self.poisoned.store(true, Ordering::SeqCst);
            return Err(e);
        }
        Ok(wal.durable_seq)
    }

    /// The durable watermark: writes numbered below it are on stable
    /// storage.
    pub fn durable_seq(&self) -> u64 {
        self.wal.lock().durable_seq
    }

    /// Bytes of the WAL known durable — a fault-injection harness may
    /// mutate the file at or beyond this offset and still demand full
    /// recovery of acked state.
    pub fn durable_wal_bytes(&self) -> u64 {
        self.wal.lock().durable_bytes
    }

    /// Reads the WAL suffix holding every record with sequence number
    /// `>= from_seq`, as raw CRC-framed bytes cut at a frame boundary —
    /// the `Tail` wire op's data source. Returns [`WalTail::Truncated`]
    /// when `from_seq` predates the log (a snapshot compacted those
    /// records away), which tells the replica to re-bootstrap.
    pub fn tail_wal(&self, from_seq: u64) -> io::Result<WalTail> {
        if self.is_poisoned() {
            return Err(poisoned_err());
        }
        // locklint: allow(blocking-under-lock, fn): the tail read holds the WAL mutex so the byte range it returns is a consistent prefix of appends — an append interleaved mid-read could hand the replica a torn final frame. Replica catch-up is rare and off the ack path.
        let wal = self.wal.lock();
        let appended_seq = wal.appended_seq;
        let appended_bytes = wal.appended_bytes as usize;
        #[expect(clippy::disallowed_methods, reason = "CRC-checked by FrameReader")]
        let bytes = fs::read(wal_path(&self.dir))?;
        let bytes = &bytes[..appended_bytes.min(bytes.len())];
        let mut reader = FrameReader::new(bytes);
        let mut start = None;
        loop {
            let offset = reader.valid_prefix() as usize;
            match reader.next_frame()? {
                Frame::Payload(payload) => {
                    let record = wal::decode_record(&payload)?;
                    if record.seq < from_seq {
                        continue;
                    }
                    if start.is_none() {
                        if record.seq != from_seq {
                            // Appends are contiguous, so a first match above
                            // the resume point means [from_seq, record.seq)
                            // is gone from the log.
                            return Ok(WalTail::Truncated);
                        }
                        start = Some(offset);
                    }
                }
                // The in-bounds prefix was appended under this same lock,
                // so torn/corrupt frames cannot appear before
                // appended_bytes; stop defensively at the valid boundary.
                Frame::CleanEof | Frame::Torn { .. } | Frame::Corrupt { .. } => break,
            }
        }
        let end = reader.valid_prefix() as usize;
        match start {
            Some(s) => Ok(WalTail::Frames(bytes[s..end].to_vec())),
            // No record at or past from_seq: either the replica is fully
            // caught up (nothing to ship) or the records were compacted.
            None if from_seq >= appended_seq => Ok(WalTail::Frames(Vec::new())),
            None => Ok(WalTail::Truncated),
        }
    }

    /// Writes a full snapshot batch at watermark `seq` and truncates the
    /// WAL. The caller must quiesce writers across the whole call (the
    /// serving layer holds every shard's read lock, which excludes
    /// writers) and must pass one state per shard, each reflecting exactly
    /// the writes numbered below `seq`. Concurrent batches publish one at a
    /// time, under the store's `snapshot-publish` mutex.
    pub fn snapshot(&self, seq: u64, states: &[ShardState]) -> io::Result<()> {
        self.publish_batch(seq, states, true)
    }

    /// The snapshot half of [`Store::snapshot`], under the same mutex:
    /// writes and renames every shard image (each `publish_durable` fsyncs
    /// the directory after its rename) but leaves the WAL alone. Split out
    /// so crash-fault tests can exercise the crash window between the two
    /// steps; real callers use [`Store::snapshot`].
    pub fn snapshot_without_truncate(&self, seq: u64, states: &[ShardState]) -> io::Result<()> {
        self.publish_batch(seq, states, false)
    }

    /// Writes every shard image of a batch and, with `truncate`, empties
    /// the WAL — all under the publish mutex.
    fn publish_batch(&self, seq: u64, states: &[ShardState], truncate: bool) -> io::Result<()> {
        if states.len() != self.cfg.shards {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "snapshot batch has {} states for {} shards",
                    states.len(),
                    self.cfg.shards
                ),
            ));
        }
        // locklint: allow(blocking-under-lock, fn): one batch at a time — every shard image is staged at a fixed `shard-<i>.snap.tmp`, so a second batch would truncate this one's stages; the WAL truncation stays inside so batches publish whole.
        let _publishing = self.publishing.lock();
        for (i, state) in states.iter().enumerate() {
            snapshot::write_snapshot(&self.dir, &self.cfg, i, seq, state)?;
        }
        if truncate {
            self.truncate_wal(seq)?;
        }
        Ok(())
    }

    /// The truncation half of [`Store::snapshot`]: empties the WAL and
    /// advances both watermarks to `seq` (everything below it is now
    /// durable via the snapshots).
    fn truncate_wal(&self, seq: u64) -> io::Result<()> {
        // locklint: allow(blocking-under-lock, fn): truncation rewrites the file and both watermarks as one atomic step; an append interleaved between set_len and the watermark reset would be silently lost.
        let mut wal = self.wal.lock();
        wal.file.set_len(0)?;
        #[expect(clippy::disallowed_methods, reason = "makes the truncation durable")]
        wal.file.sync_data()?;
        wal.appended_bytes = 0;
        wal.durable_bytes = 0;
        wal.appended_seq = wal.appended_seq.max(seq);
        wal.durable_seq = wal.durable_seq.max(seq);
        wal.last_sync = Instant::now();
        Ok(())
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "tests plant raw files")]
mod tests {
    use super::*;

    fn cfg(shards: usize, sync: SyncMode) -> StoreConfig {
        StoreConfig {
            shards,
            seed: 7,
            gamma: 0.8,
            initial_max_size: 32,
            sync,
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ssj-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn insert(shard: u32, set: Vec<u32>) -> WalOp {
        WalOp::Insert { shard, set }
    }

    #[test]
    fn fresh_open_then_reopen_replays_appends() {
        let dir = tmpdir("reopen");
        let c = cfg(2, SyncMode::Every);
        let (store, rec) = Store::open(&dir, c.clone()).unwrap();
        assert_eq!(rec.seq, 0);
        assert_eq!(rec.tail, TailStatus::Clean);
        assert!(rec.wal.is_empty());

        let s0 = store.append(insert(0, vec![1, 2, 3]), || 0).unwrap();
        let s1 = store.append(insert(1, vec![4, 5]), || 1).unwrap();
        let s2 = store
            .append(WalOp::Remove { shard: 0, local: 0 }, || 2)
            .unwrap();
        assert_eq!((s0, s1, s2), (0, 1, 2));
        assert_eq!(store.ensure_durable(2).unwrap(), 3);
        drop(store);

        let (_store, rec) = Store::open(&dir, c).unwrap();
        assert_eq!(rec.seq, 3);
        assert_eq!(rec.wal.len(), 3);
        assert_eq!(rec.wal[0].seq, 0);
        assert_eq!(rec.wal[2].op, WalOp::Remove { shard: 0, local: 0 });
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_sweeps_stale_tmp_litter() {
        let dir = tmpdir("sweep");
        let c = cfg(2, SyncMode::Every);
        let (store, _) = Store::open(&dir, c.clone()).unwrap();
        store.append(insert(0, vec![1, 2]), || 0).unwrap();
        store.flush().unwrap();
        drop(store);
        // A crash mid-publish leaves a torn snapshot stage, and a crashed
        // out-of-core join a spill partition; recovery must not trip over
        // either and must remove both.
        fs::write(dir.join("shard-0.snap.tmp"), b"torn half-snapshot").unwrap();
        fs::write(dir.join("part-0.spill.tmp"), b"torn spill").unwrap();
        let (_store, rec) = Store::open(&dir, c).unwrap();
        assert_eq!((rec.seq, rec.wal.len()), (1, 1));
        assert!(!dir.join("shard-0.snap.tmp").exists());
        assert!(!dir.join("part-0.spill.tmp").exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_discarded_and_truncated() {
        let dir = tmpdir("torn");
        let c = cfg(1, SyncMode::Every);
        let (store, _) = Store::open(&dir, c.clone()).unwrap();
        store.append(insert(0, vec![1]), || 0).unwrap();
        let keep = store.durable_wal_bytes();
        assert_eq!(store.flush().unwrap(), 1);
        let keep = keep.max(store.durable_wal_bytes());
        store.append(insert(0, vec![2]), || 1).unwrap();
        store.flush().unwrap();
        drop(store);

        // Tear the second record in half.
        let path = wal_path(&dir);
        let bytes = fs::read(&path).unwrap();
        let cut = (keep as usize + bytes.len()) / 2;
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(cut as u64).unwrap();
        drop(f);

        let (_store, rec) = Store::open(&dir, c.clone()).unwrap();
        assert_eq!(rec.tail, TailStatus::Torn);
        assert_eq!(rec.wal.len(), 1);
        assert_eq!(rec.seq, 1);
        // The torn tail is gone from disk: a re-reopen sees a clean log.
        let (_store2, rec2) = Store::open(&dir, c).unwrap();
        assert_eq!(rec2.tail, TailStatus::Clean);
        assert_eq!(rec2.wal.len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_record_is_detected_not_decoded() {
        let dir = tmpdir("corrupt");
        let c = cfg(1, SyncMode::Every);
        let (store, _) = Store::open(&dir, c.clone()).unwrap();
        store.append(insert(0, vec![10, 20, 30]), || 0).unwrap();
        store.flush().unwrap();
        drop(store);

        let path = wal_path(&dir);
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&path, &bytes).unwrap();

        let (_store, rec) = Store::open(&dir, c).unwrap();
        assert_eq!(rec.tail, TailStatus::Corrupt);
        assert!(rec.wal.is_empty(), "flipped record must not decode");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_snapshot_batches_publish_whole() {
        let dir = tmpdir("snapshot-race");
        let c = cfg(4, SyncMode::Every);
        let (store, _) = Store::open(&dir, c.clone()).unwrap();
        // Two distinct batches at one watermark, large enough that the
        // shard images take a while to write.
        let batch = |t: u32| -> Vec<ShardState> {
            (0..4u32)
                .map(|shard| ShardState {
                    next_id: 400,
                    live: (0..400u32)
                        .map(|j| (j, vec![t, 10 + shard, 100 + j]))
                        .collect(),
                })
                .collect()
        };
        let batches = [batch(0), batch(1)];
        std::thread::scope(|scope| {
            for states in &batches {
                let store = &store;
                scope.spawn(move || {
                    for _ in 0..10 {
                        store.snapshot(5, states).unwrap();
                    }
                });
            }
        });
        drop(store);

        // Whichever batch published last is on disk whole: no shard image
        // was truncated by the other batch's stage, none is mixed in.
        let (_store, rec) = Store::open(&dir, c).unwrap();
        assert_eq!(rec.seq, 5);
        assert!(
            batches.contains(&rec.shards),
            "recovered shards are not one whole batch"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_compacts_and_skips_replayed_records() {
        let dir = tmpdir("snapshot");
        let c = cfg(2, SyncMode::Every);
        let (store, _) = Store::open(&dir, c.clone()).unwrap();
        store.append(insert(0, vec![1, 2]), || 0).unwrap();
        store.append(insert(1, vec![3, 4]), || 1).unwrap();
        // Snapshot at seq 2: shard 0 has one live set, shard 1 one.
        let states = vec![
            ShardState {
                next_id: 1,
                live: vec![(0, vec![1, 2])],
            },
            ShardState {
                next_id: 1,
                live: vec![(0, vec![3, 4])],
            },
        ];
        store.snapshot(2, &states).unwrap();
        // Post-snapshot write.
        store.append(insert(0, vec![5]), || 2).unwrap();
        store.flush().unwrap();
        drop(store);

        let (_store, rec) = Store::open(&dir, c).unwrap();
        assert_eq!(
            rec.shards[0],
            ShardState {
                next_id: 1,
                live: vec![(0, vec![1, 2])]
            }
        );
        assert_eq!(rec.wal.len(), 1, "only the post-snapshot record replays");
        assert_eq!(rec.wal[0].seq, 2);
        assert_eq!(rec.seq, 3);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_between_snapshot_and_truncate_is_safe() {
        let dir = tmpdir("snapgap");
        let c = cfg(1, SyncMode::Every);
        let (store, _) = Store::open(&dir, c.clone()).unwrap();
        store.append(insert(0, vec![1]), || 0).unwrap();
        store
            .append(WalOp::Remove { shard: 0, local: 0 }, || 1)
            .unwrap();
        store.flush().unwrap();
        // Snapshot written, crash before truncation: WAL still holds both
        // records, snapshot already covers them.
        let states = vec![ShardState {
            next_id: 1,
            live: vec![],
        }];
        store.snapshot_without_truncate(2, &states).unwrap();
        drop(store);

        let (_store, rec) = Store::open(&dir, c).unwrap();
        assert_eq!(rec.shards[0].next_id, 1);
        assert!(rec.shards[0].live.is_empty());
        assert!(rec.wal.is_empty(), "snapshotted records must not replay");
        assert_eq!(rec.seq, 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sync_modes_gate_the_durable_watermark() {
        let dir = tmpdir("syncmodes");
        let c = cfg(1, SyncMode::Never);
        let (store, _) = Store::open(&dir, c).unwrap();
        store.append(insert(0, vec![1]), || 0).unwrap();
        assert_eq!(store.ensure_durable(0).unwrap(), 0, "never: no sync on ack");
        assert_eq!(store.flush().unwrap(), 1, "flush syncs regardless");
        fs::remove_dir_all(&dir).unwrap();

        let dir = tmpdir("syncevery");
        let c = cfg(1, SyncMode::Every);
        let (store, _) = Store::open(&dir, c).unwrap();
        store.append(insert(0, vec![1]), || 0).unwrap();
        assert_eq!(store.ensure_durable(0).unwrap(), 1, "every: synced at ack");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tail_wal_resumes_at_any_frame_boundary() {
        let dir = tmpdir("tailwal");
        let c = cfg(2, SyncMode::Every);
        let (store, _) = Store::open(&dir, c.clone()).unwrap();
        for i in 0..5u64 {
            store
                .append(insert((i % 2) as u32, vec![i as u32 * 10]), || i)
                .unwrap();
        }
        store.flush().unwrap();
        // The tail from 0 is byte-identical to the whole log.
        let full = match store.tail_wal(0).unwrap() {
            WalTail::Frames(b) => b,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(full, fs::read(wal_path(&dir)).unwrap());
        // Any resume point decodes to exactly the records >= it.
        for from in 0..=5u64 {
            let WalTail::Frames(frames) = store.tail_wal(from).unwrap() else {
                panic!("resume {from} should be servable");
            };
            let mut reader = FrameReader::new(frames.as_slice());
            let mut seqs = Vec::new();
            while let Frame::Payload(p) = reader.next_frame().unwrap() {
                seqs.push(wal::decode_record(&p).unwrap().seq);
            }
            let expect: Vec<u64> = (from..5).collect();
            assert_eq!(seqs, expect, "resume from {from}");
        }
        // Snapshot + truncate: pre-watermark resume points now need a
        // bootstrap; the watermark itself is servable (empty).
        let states = vec![ShardState::default(), ShardState::default()];
        store.snapshot(5, &states).unwrap();
        assert_eq!(store.tail_wal(3).unwrap(), WalTail::Truncated);
        assert_eq!(store.tail_wal(5).unwrap(), WalTail::Frames(Vec::new()));
        store.append(insert(0, vec![99]), || 5).unwrap();
        let WalTail::Frames(frames) = store.tail_wal(5).unwrap() else {
            panic!("post-truncation tail should be servable");
        };
        let mut reader = FrameReader::new(frames.as_slice());
        let Frame::Payload(p) = reader.next_frame().unwrap() else {
            panic!("one frame expected");
        };
        assert_eq!(wal::decode_record(&p).unwrap().seq, 5);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shipped_snapshot_round_trips_and_is_verified() {
        let state = ShardState {
            next_id: 3,
            live: vec![(0, vec![1, 2]), (2, vec![9])],
        };
        let bytes = state.to_image(1, 4, 17).unwrap();
        let (seq, back) = ShardState::from_image(&bytes, 1, 4).unwrap();
        assert_eq!((seq, back), (17, state.clone()));
        // Persisting lands the exact bytes under the live snap name, and a
        // store opened on that directory recovers the shipped state.
        let dir = tmpdir("shipsnap");
        fs::create_dir_all(&dir).unwrap();
        for shard in 0..4 {
            let b = state.to_image(shard, 4, 17).unwrap();
            persist_shipped_snapshot(&dir, shard, 4, &b).unwrap();
        }
        assert_eq!(fs::read(dir.join("shard-1.snap")).unwrap(), bytes);
        let mut corrupt = bytes.clone();
        corrupt[7] ^= 0x01;
        assert!(persist_shipped_snapshot(&dir, 1, 4, &corrupt).is_err());
        let (store, rec) = Store::open(&dir, cfg(4, SyncMode::Every)).unwrap();
        assert_eq!(rec.seq, 17);
        assert_eq!(rec.shards[1], state);
        // The owner's own snapshot of the same state is the same bytes.
        store.snapshot(17, &vec![state.clone(); 4]).unwrap();
        assert_eq!(fs::read(dir.join("shard-1.snap")).unwrap(), bytes);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn misaddressed_image_is_refused_before_anything_is_published() {
        let dir = tmpdir("misaddressed");
        let bytes = ShardState::default().to_image(1, 4, 3).unwrap();
        for (shard, count) in [(0, 4), (1, 2), (1, 5)] {
            let err = persist_shipped_snapshot(&dir, shard, count, &bytes).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        }
        // Nothing was staged, renamed, or even created.
        assert!(!dir.exists(), "a refused image must leave no file behind");
    }

    #[test]
    fn reopening_with_different_topology_is_refused() {
        let dir = tmpdir("topology");
        let (store, _) = Store::open(&dir, cfg(2, SyncMode::Every)).unwrap();
        drop(store);
        assert!(Store::open(&dir, cfg(3, SyncMode::Every)).is_err());
        // Same topology, different sync policy: fine.
        assert!(Store::open(&dir, cfg(2, SyncMode::Never)).is_ok());
        fs::remove_dir_all(&dir).unwrap();
    }
}
