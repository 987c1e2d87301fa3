//! Server configuration.

use ssj_store::SyncMode;
use std::path::PathBuf;
use std::time::Duration;

/// Tunables for a [`crate::service::Server`].
///
/// The defaults suit an interactive instance on a developer machine; the
/// bench harness and the CLI override most of them.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Jaccard similarity threshold `γ` served by the index.
    pub gamma: f64,
    /// Number of index shards. Sets are routed to a shard by content hash;
    /// more shards mean finer-grained write locking.
    pub shards: usize,
    /// Unread: every request runs on the thread that calls it. The field
    /// stays only while the benchmark package still sets it.
    #[deprecated = "unread: every request runs on the thread that calls it"]
    pub workers: usize,
    /// Bound on requests in flight (admitted and not yet answered). A call
    /// that finds this many in flight is rejected with an `Overloaded`
    /// response instead of waiting.
    pub queue_capacity: usize,
    /// Initial set-size coverage of each shard's signature scheme; grown
    /// automatically on demand.
    pub initial_max_size: usize,
    /// Admission bound on request set sizes: an insert/query whose set has
    /// more elements answers a `bad_request` error instead of being
    /// executed. Bounds the scheme-rebuild work a single client can force.
    pub max_set_len: usize,
    /// Seed for the signature schemes and the shard router.
    pub seed: u64,
    /// Artificial pause every call takes after admission and before it
    /// executes. Fault-injection knob for tests (deterministic overload and
    /// drain races on any machine); keep at zero in production.
    pub call_delay: Duration,
    /// Data directory for durable persistence (`None`: memory-only, the
    /// historical behavior). When set, every write is WAL-logged before it
    /// is acked and the index is recovered from disk on startup.
    pub data_dir: Option<PathBuf>,
    /// WAL fsync policy when `data_dir` is set; ignored otherwise.
    pub sync: SyncMode,
    /// Automatic snapshot cadence: after this many writes the shards are
    /// snapshotted and the WAL truncated. `0` disables automatic
    /// snapshots (the WAL then grows until shutdown or an explicit
    /// snapshot). Ignored without `data_dir`.
    pub snapshot_every: u64,
}

impl Default for ServerConfig {
    #[allow(deprecated, reason = "the unread `workers` field still needs a value")]
    fn default() -> Self {
        Self {
            gamma: 0.8,
            shards: 4,
            workers: 0,
            queue_capacity: 128,
            initial_max_size: 64,
            max_set_len: 1 << 16,
            seed: 42,
            call_delay: Duration::ZERO,
            data_dir: None,
            sync: SyncMode::Every,
            snapshot_every: 8192,
        }
    }
}
