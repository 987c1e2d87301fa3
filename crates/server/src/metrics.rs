//! Lock-free request counters and latency histograms.
//!
//! All counters are plain relaxed atomics living *outside* the shard
//! `RwLock`s, so queries (which only hold read locks) can record work
//! without serializing on a writer lock.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of power-of-two latency buckets (covers up to ~2^39 µs ≈ 6 days).
const BUCKETS: usize = 40;

/// A log₂-bucketed latency histogram with relaxed atomic counters.
///
/// Bucket `i` counts durations whose microsecond value has `i` significant
/// bits, i.e. the range `[2^(i-1), 2^i)` (bucket 0 is `{0}`). Quantiles
/// read from a [`HistogramSnapshot`] are therefore upper bounds with at
/// most 2× resolution — plenty for p50/p95/p99 reporting.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_micros: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_micros: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    /// Records one observation.
    pub fn record(&self, d: Duration) {
        let us = u64::try_from(d.as_micros()).unwrap_or(u64::MAX);
        let idx = (bit_width(us)).min(BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_micros.fetch_add(us, Ordering::Relaxed);
    }

    /// A point-in-time copy of the counters.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum_micros: self.sum_micros.load(Ordering::Relaxed),
        }
    }
}

/// Number of significant bits in `x` (0 for 0).
fn bit_width(x: u64) -> usize {
    (u64::BITS - x.leading_zeros()) as usize
}

/// Frozen histogram counters, with quantile/mean accessors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (log₂ microsecond buckets).
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observations, in microseconds.
    pub sum_micros: u64,
}

impl HistogramSnapshot {
    /// Mean latency in microseconds (0 when empty).
    pub fn mean_micros(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_micros as f64 / self.count as f64
        }
    }

    /// Upper-bound estimate of the `q`-quantile in microseconds
    /// (`q` in `[0, 1]`; 0 when empty).
    pub fn quantile_micros(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Upper edge of bucket i: durations with i significant bits
                // are < 2^i µs.
                return if i == 0 { 0 } else { (1u64 << i) - 1 };
            }
        }
        u64::MAX
    }
}

/// Per-shard request counters.
#[derive(Debug, Default)]
pub struct ShardCounters {
    /// Completed insert operations owned by this shard.
    pub inserts: AtomicU64,
    /// Completed remove operations owned by this shard (found or not).
    pub removes: AtomicU64,
    /// Query executions that probed this shard (a fan-out query counts
    /// once on every shard).
    pub queries: AtomicU64,
    /// Candidates this shard's index probed before verification.
    pub candidates_probed: AtomicU64,
    /// Probed candidates the bitmap filter rejected before the exact
    /// merge (DESIGN.md §5i).
    pub bitmap_pruned: AtomicU64,
    /// Candidates that passed verification (reported matches).
    pub verified_hits: AtomicU64,
}

impl ShardCounters {
    /// A point-in-time copy of the counters.
    pub fn snapshot(&self) -> ShardCountersSnapshot {
        ShardCountersSnapshot {
            inserts: self.inserts.load(Ordering::Relaxed),
            removes: self.removes.load(Ordering::Relaxed),
            queries: self.queries.load(Ordering::Relaxed),
            candidates_probed: self.candidates_probed.load(Ordering::Relaxed),
            bitmap_pruned: self.bitmap_pruned.load(Ordering::Relaxed),
            verified_hits: self.verified_hits.load(Ordering::Relaxed),
        }
    }
}

/// Frozen [`ShardCounters`], plus the shard's live-set count.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardCountersSnapshot {
    /// See [`ShardCounters::inserts`].
    pub inserts: u64,
    /// See [`ShardCounters::removes`].
    pub removes: u64,
    /// See [`ShardCounters::queries`].
    pub queries: u64,
    /// See [`ShardCounters::candidates_probed`].
    pub candidates_probed: u64,
    /// See [`ShardCounters::bitmap_pruned`].
    pub bitmap_pruned: u64,
    /// See [`ShardCounters::verified_hits`].
    pub verified_hits: u64,
}

/// Server-wide admission and latency metrics (admission is global, so the
/// service-time histogram lives here, not per shard).
#[derive(Debug, Default)]
pub struct ServerMetrics {
    /// Requests admitted (under the in-flight bound, before draining).
    pub accepted: AtomicU64,
    /// Requests rejected because `queue_capacity` calls were in flight.
    pub overloaded: AtomicU64,
    /// Time executing the operation.
    pub service_time: LatencyHistogram,
}

/// The full statistics payload returned by the `stats` operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Per-shard live-set counts (index `i` = shard `i`).
    pub live_sets: Vec<u64>,
    /// Per-shard request counters (index `i` = shard `i`).
    pub shards: Vec<ShardCountersSnapshot>,
    /// The write sequence number: total writes admitted so far.
    pub seq: u64,
    /// See [`ServerMetrics::accepted`].
    pub accepted: u64,
    /// See [`ServerMetrics::overloaded`].
    pub overloaded: u64,
    /// Always 0: a call runs as soon as it is admitted, so no deadline can
    /// expire. Kept because the wire `stats` line carries it.
    pub timeouts: u64,
    /// See [`ServerMetrics::service_time`].
    pub service_time: HistogramSnapshot,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = LatencyHistogram::default();
        for us in [0u64, 1, 1, 2, 3, 100, 1000] {
            h.record(Duration::from_micros(us));
        }
        let s = h.snapshot();
        assert_eq!(s.count, 7);
        assert_eq!(s.sum_micros, 1107);
        assert_eq!(s.buckets[0], 1); // the single 0
        assert_eq!(s.buckets[1], 2); // the two 1s
        assert_eq!(s.buckets[2], 2); // 2 and 3
                                     // p50 falls in bucket 2 (cumulative 5 ≥ ceil(0.5·7)=4): bound 3 µs.
        assert_eq!(s.quantile_micros(0.5), 3);
        // p100 is the largest bucket's upper bound: 1000 µs → bucket 10.
        assert_eq!(s.quantile_micros(1.0), (1 << 10) - 1);
        assert!(s.mean_micros() > 0.0);
    }

    #[test]
    fn empty_histogram_is_quiet() {
        let s = LatencyHistogram::default().snapshot();
        assert_eq!(s.quantile_micros(0.99), 0);
        assert_eq!(s.mean_micros(), 0.0);
    }

    #[test]
    fn shard_counters_snapshot() {
        let c = ShardCounters::default();
        c.inserts.fetch_add(2, Ordering::Relaxed);
        c.verified_hits.fetch_add(5, Ordering::Relaxed);
        let s = c.snapshot();
        assert_eq!(s.inserts, 2);
        assert_eq!(s.verified_hits, 5);
        assert_eq!(s.queries, 0);
    }
}
