//! The workloads, the metric names, and the one entry point that runs a
//! workload and returns its named metrics.

pub mod data;
pub mod host;
pub mod joins;
pub mod probes;
pub mod report;
pub mod serving;
pub mod stats;
pub mod trace;

use stats::Spread;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// A metric's name and unit. Which direction is better, and the bound by
/// which an end-to-end metric may worsen, are fixed in `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// The seven workloads, in the order `--all` runs them.
pub const WORKLOADS: [&str; 7] = [
    "join_address",
    "join_uniform_mt",
    "extern_address",
    "serve_handle",
    "serve_wire",
    "serve_durable",
    "cluster_wire",
];

/// Seed of every signature scheme, shard router and hash ring
/// (`join_bench`'s default). `--seed` makes the inputs only: the program's
/// own random choices stay fixed, so runs with different seeds differ by
/// their data and nothing else.
pub const SCHEME_SEED: u64 = 42;

/// Set-ups timed in an untraced run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// `run_seconds` of `BENCHMARK.json`: how long a run measures when
/// `--seconds` is not given.
pub const DEFAULT_SECONDS: f64 = 6.0;

/// End-to-end metrics, every one reported by every workload from a run
/// with tracing off. An *op* is one complete join on the join workloads
/// and one request on the serving ones (see `BENCHMARK.md`).
pub const END_TO_END: [MetricDef; 4] = [
    m("setup_s", "s"),
    m("ops_per_s", "1/s"),
    m("op_p50_ms", "ms"),
    m("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported from a traced run. A workload that does not
/// enter a layer reports that layer's metrics as 0.
pub const PER_LAYER: [MetricDef; 72] = [
    m("core.signature.optimize_s", "s"),
    m("core.signature.gen_s", "s"),
    m("core.signature.sigs_per_set", "count"),
    m("core.signature.ns_per_sig", "ns"),
    m("core.join.cand_gen_s", "s"),
    m("core.join.candidates", "count"),
    m("core.join.collisions", "count"),
    m("core.join.f2", "count"),
    m("core.join.ns_per_collision", "ns"),
    m("core.join.cand_per_output", "ratio"),
    m("core.join.unattributed_s", "s"),
    m("core.verify.bitmap_build_s", "s"),
    m("core.verify.verify_s", "s"),
    m("core.verify.exact_verify_s", "s"),
    m("core.verify.ns_per_candidate", "ns"),
    m("core.verify.bitmap_pruned_frac", "ratio"),
    m("core.verify.merged_pairs", "count"),
    m("core.index.insert_us", "us"),
    m("core.index.query_us", "us"),
    m("core.index.cand_per_query", "count"),
    m("core.index.bitmap_pruned_frac", "ratio"),
    m("server.wire.parse_us", "us"),
    m("server.wire.encode_us", "us"),
    m("server.wire.req_bytes", "bytes"),
    m("server.wire.resp_bytes", "bytes"),
    m("server.service.call_us", "us"),
    m("server.service.direct_us", "us"),
    m("server.service.queue_hop_us", "us"),
    m("server.service.cand_per_query", "count"),
    m("server.service.overloaded", "count"),
    m("server.service.timeouts", "count"),
    m("server.net.persistent_rtt_us", "us"),
    m("server.net.oneshot_rtt_us", "us"),
    m("server.net.stats_rtt_us", "us"),
    m("server.net.overhead_us", "us"),
    m("store.write_sync_us", "us"),
    m("store.write_nosync_us", "us"),
    m("store.fsync_us", "us"),
    m("store.wal_bytes_per_write", "bytes"),
    m("store.snapshot_s", "s"),
    m("store.snapshots", "count"),
    m("store.recover_s", "s"),
    m("store.disk_bytes_per_set", "bytes"),
    m("extern.segment_write_s", "s"),
    m("extern.segment_open_s", "s"),
    m("extern.sig_s", "s"),
    m("extern.spill_s", "s"),
    m("extern.probe_s", "s"),
    m("extern.verify_s", "s"),
    m("extern.partitions", "count"),
    m("extern.spilled_records", "count"),
    m("extern.spill_bytes", "bytes"),
    m("extern.peak_bytes", "bytes"),
    m("extern.peak_over_budget", "ratio"),
    m("extern.candidates", "count"),
    m("extern.segment_bytes_per_elem", "bytes"),
    m("extern.slowdown_vs_mem", "ratio"),
    m("cluster.router.query_us", "us"),
    m("cluster.router.insert_us", "us"),
    m("cluster.transport.call_us", "us"),
    m("cluster.transport.connect_us", "us"),
    m("cluster.router.fanout_overhead_us", "us"),
    m("cluster.router.replica_answers", "count"),
    m("cluster.sim.query_us", "us"),
    m("io.json.parse_ns_per_byte", "ns"),
    m("io.crc.ns_per_byte", "ns"),
    m("client.query_p50_us", "us"),
    m("client.query_p99_us", "us"),
    m("client.write_p50_us", "us"),
    m("client.write_p99_us", "us"),
    m("client.matches_per_query", "count"),
    m("trace.overhead_frac", "ratio"),
];

/// Whether `name` is a legal workload or metric name: `[A-Za-z0-9_.-]+`.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// Input sizes: the measured ones, or instances small enough for
/// `cargo test`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes `BENCHMARK.md` documents.
    Full,
    /// A few hundred sets, rounds of a fraction of a second.
    Tiny,
}

/// What one run is asked to do.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Seed of every generated input.
    pub seed: u64,
    /// Seconds of measurement (rounds for serving, repetitions for joins).
    pub seconds: f64,
    /// Record spans and report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
    /// Directory for segments, spill files, data directories and traces.
    pub work_dir: PathBuf,
}

/// What one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: repetitions or requests, plus output checks.
    pub attempted: u64,
    /// Operations refused, timed out, errored or answered wrongly.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Spread over repetitions or rounds, for the metrics that have one.
    pub spreads: Vec<(&'static str, Spread)>,
    /// Counts that must repeat exactly for one seed.
    pub counts: Vec<(&'static str, u64)>,
    /// Sample sizes and other remarks for the record.
    pub notes: Vec<(&'static str, String)>,
    /// Spans of a traced run.
    pub spans: Vec<trace::Span>,
}

impl Outcome {
    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }
}

/// Runs `workload` and returns its metrics: exactly [`END_TO_END`] from an
/// untraced run, exactly [`PER_LAYER`] from a traced one.
pub fn run(workload: &str, cfg: &RunConfig) -> Result<Outcome, String> {
    let mut outcome = match workload {
        "join_address" => joins::run_memory(joins::MemoryJoin::Address, cfg),
        "join_uniform_mt" => joins::run_memory(joins::MemoryJoin::UniformMt, cfg),
        "extern_address" => joins::run_extern(cfg),
        "serve_handle" => serving::run(serving::Kind::Handle, cfg),
        "serve_wire" => serving::run(serving::Kind::Wire, cfg),
        "serve_durable" => serving::run(serving::Kind::Durable, cfg),
        "cluster_wire" => serving::run(serving::Kind::Cluster, cfg),
        other => Err(format!("unknown workload {other:?}; known: {WORKLOADS:?}")),
    }?;
    let expected: &[MetricDef] = if cfg.trace { &PER_LAYER } else { &END_TO_END };
    if let Some(stray) = outcome
        .metrics
        .keys()
        .find(|name| !expected.iter().any(|d| d.name == **name))
    {
        return Err(format!(
            "workload {workload} reported unlisted metric {stray}"
        ));
    }
    for def in expected {
        if cfg.trace {
            outcome.metrics.entry(def.name).or_insert(0.0);
        } else if !outcome.metrics.contains_key(def.name) {
            return Err(format!("workload {workload} did not report {}", def.name));
        }
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_legal_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .copied()
            .chain(END_TO_END.iter().chain(PER_LAYER.iter()).map(|d| d.name))
        {
            assert!(valid_name(name), "{name}");
            assert!(name.len() <= 64, "{name}");
            assert!(seen.insert(name), "{name} used twice");
        }
        assert!(!valid_name("") && !valid_name("a b") && !valid_name("µs"));
    }
}
