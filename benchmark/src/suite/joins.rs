//! The three join workloads: `join_address`, `join_uniform_mt` and
//! `extern_address`.
//!
//! An untraced run generates the input a few times (set-up), discards one
//! warm-up join, times complete joins until the run's seconds are used (at
//! least [`MIN_REPS`]), and checks every join's pairs against the first
//! join's and against a brute-force scan for sampled sets. A traced run
//! takes the same pipeline apart at the layers' public functions.

use super::data::{self, GAMMA};
use super::host::{self, ScratchDir};
use super::stats::{median, spread};
use super::trace::{by_name, LayerTime, Tracer};
use super::{Outcome, RunConfig, Scale, SCHEME_SEED, SETUP_REPEATS};
use ssj_core::join::{self_join, verify_pairs_into, JoinOptions};
use ssj_core::partenum::{optimize_jaccard, GeneralPartEnum, PartEnumJaccard};
use ssj_core::predicate::Predicate;
use ssj_core::set::{SetCollection, SetId};
use ssj_core::signature::{SigScratch, SignatureScheme};
use ssj_core::verify::{BitmapIndex, BitmapVerifier, ExactVerifier, Verifier};
use ssj_extern::{
    external_self_join, write_collection_segment, ExternConfig, ExternStats, Segment,
};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Fewest timed joins in a run, however long one takes.
pub const MIN_REPS: usize = 3;
/// Sets whose partners are recomputed by brute force after the run.
pub const ORACLE_SAMPLES: usize = 200;

const PRED: Predicate = Predicate::Jaccard { gamma: GAMMA };
/// `optimize_jaccard`'s signature cap, as the repository's harness
/// (`ssj_bench::harness::run_jaccard`) passes it.
const MAX_SIGS: usize = 256;

type Pairs = Vec<(SetId, SetId)>;

/// Which in-memory join workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoryJoin {
    /// `join_address`: short token sets, one thread.
    Address,
    /// `join_uniform_mt`: the paper's 50-element synthetic sets, two threads.
    UniformMt,
}

impl MemoryJoin {
    fn threads(self) -> usize {
        match self {
            MemoryJoin::Address => 1,
            MemoryJoin::UniformMt => 2,
        }
    }

    /// Sets `optimize_jaccard` samples. The harness's 1000 is enough on the
    /// uniform data. On the address data two parameter choices are within
    /// 6 % of each other in estimated F2 and 1.5× apart in wall time, and a
    /// 1000-set sample picks one or the other depending on the seed
    /// (`BENCHMARK.md`, open findings); 20 000 sets always pick the same.
    fn sample_cap(self) -> usize {
        match self {
            MemoryJoin::Address => 20_000,
            MemoryJoin::UniformMt => 1_000,
        }
    }

    fn generate(self, scale: Scale, seed: u64) -> SetCollection {
        match (self, scale) {
            (MemoryJoin::Address, Scale::Full) => data::address_tokens(300_000, seed),
            (MemoryJoin::Address, Scale::Tiny) => data::address_tokens(400, seed),
            (MemoryJoin::UniformMt, Scale::Full) => data::uniform_paper(200_000, seed),
            // Above the 1024-set cut below which the driver signs on one thread.
            (MemoryJoin::UniformMt, Scale::Tiny) => data::uniform_paper(1_100, seed),
        }
    }
}

/// One complete in-memory join: parameter optimisation through verified
/// pairs.
fn join_once(collection: &SetCollection, which: MemoryJoin) -> Result<Pairs, String> {
    let params = optimize_jaccard(GAMMA, collection, MAX_SIGS, which.sample_cap(), SCHEME_SEED);
    let scheme =
        PartEnumJaccard::with_params(GAMMA, collection.max_set_len(), SCHEME_SEED, &params)
            .map_err(|e| format!("optimizer yielded invalid parameters: {e}"))?;
    let opts = JoinOptions {
        threads: which.threads(),
        ..JoinOptions::default()
    };
    Ok(self_join(&scheme, collection, PRED, None, opts).pairs)
}

/// Wall times of the timed joins, the pairs of the last one, and how many
/// joins disagreed with the warm-up join's pair count or checksum.
struct Reps {
    times: Vec<f64>,
    pairs: Pairs,
    unequal: u64,
}

fn timed_reps(
    seconds: f64,
    mut join: impl FnMut() -> Result<Pairs, String>,
) -> Result<Reps, String> {
    let warm = join()?;
    let reference = (warm.len(), data::pair_checksum(&warm));
    let mut reps = Reps {
        times: Vec::new(),
        pairs: warm,
        unequal: 0,
    };
    let mut total = 0.0;
    while reps.times.len() < MIN_REPS || total < seconds {
        let start = Instant::now();
        reps.pairs = join()?;
        let secs = start.elapsed().as_secs_f64();
        reps.times.push(secs);
        total += secs;
        if (reps.pairs.len(), data::pair_checksum(&reps.pairs)) != reference {
            reps.unequal += 1;
        }
    }
    Ok(reps)
}

/// The end-to-end metrics of a join workload. An op is one complete join:
/// `ops_per_s` is input sets joined per second and `op_p50_ms` the median
/// join.
fn end_to_end(collection: &SetCollection, setup: &[f64], reps: &Reps, seed: u64) -> Outcome {
    let mismatches = data::oracle_mismatches(collection, &reps.pairs, ORACLE_SAMPLES, seed);
    let join_s = spread(&reps.times);
    let mut out = Outcome {
        attempted: reps.times.len() as u64 + ORACLE_SAMPLES as u64,
        failed: reps.unequal + mismatches,
        ..Outcome::default()
    };
    out.set("setup_s", median(setup));
    out.set("ops_per_s", collection.len() as f64 / join_s.median);
    out.set("op_p50_ms", join_s.median * 1e3);
    out.set("peak_rss_mb", host::peak_rss_mb());
    out.spreads = vec![("join_s", join_s), ("setup_s", spread(setup))];
    out.counts = vec![
        ("input_sets", collection.len() as u64),
        ("output_pairs", reps.pairs.len() as u64),
        ("pair_checksum", data::pair_checksum(&reps.pairs)),
    ];
    out
}

/// Runs `join_address` or `join_uniform_mt`.
pub fn run_memory(which: MemoryJoin, cfg: &RunConfig) -> Result<Outcome, String> {
    if cfg.trace {
        return trace_memory(which, cfg);
    }
    let mut setup = Vec::new();
    let mut collection = SetCollection::new();
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        collection = which.generate(cfg.scale, cfg.seed);
        setup.push(start.elapsed().as_secs_f64());
    }
    let reps = timed_reps(cfg.seconds, || join_once(&collection, which))?;
    Ok(end_to_end(&collection, &setup, &reps, cfg.seed))
}

fn secs(layers: &BTreeMap<&'static str, LayerTime>, name: &str) -> f64 {
    layers.get(name).map_or(0.0, |t| t.total_ns as f64 / 1e9)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The traced in-memory join: warm-up, one plain join for the tracing
/// overhead, then one join taken apart — optimise, sign every set, generate
/// candidates (`self_join` with `verify: false`), build bitmaps, verify
/// through the bitmap bound, verify the same list exactly.
fn trace_memory(which: MemoryJoin, cfg: &RunConfig) -> Result<Outcome, String> {
    let threads = which.threads();
    let collection = which.generate(cfg.scale, cfg.seed);
    let c = &collection;
    join_once(c, which)?;
    let start = Instant::now();
    let plain = join_once(c, which)?;
    let plain_s = start.elapsed().as_secs_f64();

    let mut tracer = Tracer::new(true, Instant::now());
    let (stats, total_sigs, filtered, exact, pruned, merged) = tracer
        .span("rep", 0, |t| {
            let params = t.span("core.signature.optimize", 0, |_| {
                optimize_jaccard(GAMMA, c, MAX_SIGS, which.sample_cap(), SCHEME_SEED)
            });
            let scheme = t.span("core.signature.build", 0, |_| {
                PartEnumJaccard::with_params(GAMMA, c.max_set_len(), SCHEME_SEED, &params)
            })?;
            let total_sigs = t.span("core.signature.gen", 0, |_| {
                let mut scratch = SigScratch::default();
                let mut sigs = Vec::new();
                let mut total = 0u64;
                for (_, set) in c.iter() {
                    sigs.clear();
                    scheme.signatures_scratch(set, &mut scratch, &mut sigs);
                    total += sigs.len() as u64;
                }
                total
            });
            let candidates = t.span("core.join.self_join", 0, |_| {
                let opts = JoinOptions {
                    threads,
                    verify: false,
                    ..JoinOptions::default()
                };
                self_join(&scheme, c, PRED, None, opts)
            });
            let encoded: Vec<u64> = candidates
                .pairs
                .iter()
                .map(|&(a, b)| u64::from(a) << 32 | u64::from(b))
                .collect();
            let bitmaps = t.span("core.verify.bitmap_build", 0, |_| {
                BitmapIndex::for_collection(c)
            });
            let verifier = BitmapVerifier::new(PRED, None, &bitmaps, &bitmaps);
            let mut filtered = Pairs::new();
            t.span("core.verify.verify", 0, |_| {
                verify_pairs_into(&encoded, c, c, &verifier, threads, &mut filtered)
            });
            let mut exact = Pairs::new();
            t.span("core.verify.exact_verify", 0, |_| {
                let verifier = ExactVerifier::new(PRED, None);
                verify_pairs_into(&encoded, c, c, &verifier, threads, &mut exact)
            });
            Ok::<_, ssj_core::error::SsjError>((
                candidates.stats,
                total_sigs,
                filtered,
                exact,
                verifier.bitmap_pruned(),
                verifier.bitmap_survivors(),
            ))
        })
        .map_err(|e| format!("optimizer yielded invalid parameters: {e}"))?;
    let spans = tracer.into_spans();
    let layers = by_name(&spans);

    let reference = (plain.len(), data::pair_checksum(&plain));
    let mut out = Outcome {
        attempted: 2,
        failed: [&filtered, &exact]
            .iter()
            .filter(|p| (p.len(), data::pair_checksum(p)) != reference)
            .count() as u64,
        ..Outcome::default()
    };
    let n = c.len() as f64;
    let candidates = stats.candidate_pairs as f64;
    let gen_s = secs(&layers, "core.signature.gen");
    let verify_s = secs(&layers, "core.verify.verify");
    out.set(
        "core.signature.optimize_s",
        secs(&layers, "core.signature.optimize"),
    );
    out.set("core.signature.gen_s", gen_s);
    out.set("core.signature.sigs_per_set", ratio(total_sigs as f64, n));
    out.set(
        "core.signature.ns_per_sig",
        ratio(gen_s * 1e9, total_sigs as f64),
    );
    out.set("core.join.cand_gen_s", stats.cand_gen_secs);
    out.set("core.join.candidates", candidates);
    out.set("core.join.collisions", stats.signature_collisions as f64);
    out.set("core.join.f2", stats.f2() as f64);
    out.set(
        "core.join.ns_per_collision",
        ratio(stats.cand_gen_secs * 1e9, stats.signature_collisions as f64),
    );
    out.set(
        "core.join.cand_per_output",
        ratio(candidates, plain.len() as f64),
    );
    // What `self_join(verify: false)` spends outside the two stages its
    // statistics time: decoding the pairs, and whatever else lands there.
    out.set(
        "core.join.unattributed_s",
        secs(&layers, "core.join.self_join") - stats.sig_gen_secs - stats.cand_gen_secs,
    );
    out.set(
        "core.verify.bitmap_build_s",
        secs(&layers, "core.verify.bitmap_build"),
    );
    out.set("core.verify.verify_s", verify_s);
    out.set(
        "core.verify.exact_verify_s",
        secs(&layers, "core.verify.exact_verify"),
    );
    out.set(
        "core.verify.ns_per_candidate",
        ratio(verify_s * 1e9, candidates),
    );
    out.set(
        "core.verify.bitmap_pruned_frac",
        ratio(pruned as f64, candidates),
    );
    out.set("core.verify.merged_pairs", merged as f64);
    // The pipeline a plain join runs, rebuilt from its traced pieces.
    let pipeline_s: f64 = [
        "core.signature.optimize",
        "core.signature.build",
        "core.join.self_join",
        "core.verify.bitmap_build",
        "core.verify.verify",
    ]
    .iter()
    .map(|name| secs(&layers, name))
    .sum();
    out.set("trace.overhead_frac", pipeline_s / plain_s - 1.0);
    out.counts = vec![
        ("core.join.candidates", stats.candidate_pairs),
        ("core.join.collisions", stats.signature_collisions),
        ("core.verify.merged_pairs", merged),
        ("output_pairs", plain.len() as u64),
        ("pair_checksum", reference.1),
    ];
    out.notes = vec![
        ("plain_join_s", format!("{plain_s:.6}")),
        (
            "self_join.sig_gen_secs",
            format!("{:.6}", stats.sig_gen_secs),
        ),
    ];
    out.spans = spans;
    Ok(out)
}

/// Sizes of `extern_address`: sets, and a budget a twelfth of what the
/// join's postings need, so the executor ranges them into ~15 partitions.
fn extern_sizes(scale: Scale) -> (usize, u64) {
    match scale {
        Scale::Full => (50_000, 4 << 20),
        Scale::Tiny => (400, 128 << 10),
    }
}

/// One complete out-of-core join, as the CLI runs it: open the segment,
/// build the default-parameter scheme, join under the budget.
fn extern_once(
    segment: &Path,
    max_len: usize,
    budget: u64,
    tracer: &mut Tracer,
) -> Result<(Pairs, ExternStats), String> {
    let mut seg = tracer
        .span("extern.segment_open", 0, |_| Segment::open_path(segment))
        .map_err(|e| format!("segment open failed: {e}"))?;
    let scheme = GeneralPartEnum::new(PRED, max_len.max(1), SCHEME_SEED)
        .map_err(|e| format!("scheme construction failed: {e}"))?;
    let config = ExternConfig {
        mem_budget: budget,
        spill_dir: segment.parent().map(Path::to_path_buf),
        ..ExternConfig::default()
    };
    tracer
        .span("extern.join", 0, |_| {
            external_self_join(&mut seg, &scheme, PRED, None, &config)
        })
        .map_err(|e| format!("external join failed: {e}"))
}

/// Runs `extern_address`.
pub fn run_extern(cfg: &RunConfig) -> Result<Outcome, String> {
    let (sets, budget) = extern_sizes(cfg.scale);
    let dir = ScratchDir::create(&cfg.work_dir, "extern")?;
    let segment = dir.0.join("input.seg");
    let mut tracer = Tracer::new(false, Instant::now());

    let mut setup = Vec::new();
    let mut collection = SetCollection::new();
    let mut info = None;
    for _ in 0..if cfg.trace { 1 } else { SETUP_REPEATS } {
        let start = Instant::now();
        collection = data::address_tokens(sets, cfg.seed);
        info = Some(
            write_collection_segment(&segment, &collection, 0)
                .map_err(|e| format!("segment write failed: {e}"))?,
        );
        setup.push(start.elapsed().as_secs_f64());
    }
    let max_len = collection.max_set_len();
    let mut last_stats = ExternStats::default();
    let mut once = |tracer: &mut Tracer| {
        extern_once(&segment, max_len, budget, tracer).map(|(pairs, stats)| {
            last_stats = stats;
            pairs
        })
    };

    if !cfg.trace {
        let reps = timed_reps(cfg.seconds, || once(&mut tracer))?;
        let mut out = end_to_end(&collection, &setup, &reps, cfg.seed);
        out.counts.extend([
            ("extern.partitions", last_stats.partitions as u64),
            ("extern.candidates", last_stats.candidates),
            ("extern.spilled_records", last_stats.spilled_records),
            ("extern.spill_bytes", last_stats.spill_bytes),
            ("extern.peak_bytes", last_stats.peak_bytes),
        ]);
        return Ok(out);
    }

    // Traced: warm-up, one plain join, one join under spans, then the same
    // scheme joined in memory and a checksum pass over the segment's bytes.
    once(&mut tracer)?;
    let start = Instant::now();
    let plain = once(&mut tracer)?;
    let plain_s = start.elapsed().as_secs_f64();
    tracer.set_on(true);
    let traced = tracer.span("rep", 0, |t| once(t))?;
    let stats = last_stats.clone();
    tracer
        .span("extern.segment_write", 1, |_| {
            write_collection_segment(&dir.0.join("again.seg"), &collection, 0)
        })
        .map_err(|e| format!("segment write failed: {e}"))?;
    let in_memory = tracer
        .span("core.join.self_join", 1, |_| {
            GeneralPartEnum::new(PRED, max_len.max(1), SCHEME_SEED)
                .map(|scheme| self_join(&scheme, &collection, PRED, None, JoinOptions::default()))
        })
        .map_err(|e| format!("scheme construction failed: {e}"))?;
    let bytes = std::fs::read(&segment).map_err(|e| format!("segment read failed: {e}"))?;
    tracer.span("io.crc", 1, |_| {
        std::hint::black_box(ssj_io::crc::crc32(&bytes))
    });
    let spans = tracer.into_spans();
    let layers = by_name(&spans);

    let reference = (plain.len(), data::pair_checksum(&plain));
    let mut out = Outcome {
        attempted: 2,
        failed: [&traced, &in_memory.pairs]
            .iter()
            .filter(|p| (p.len(), data::pair_checksum(p)) != reference)
            .count() as u64,
        ..Outcome::default()
    };
    let info = info.expect("set-up ran once");
    let candidates = stats.candidates as f64;
    let rep_s = secs(&layers, "rep");
    out.set(
        "extern.segment_write_s",
        secs(&layers, "extern.segment_write"),
    );
    out.set(
        "extern.segment_open_s",
        secs(&layers, "extern.segment_open"),
    );
    out.set("extern.sig_s", stats.sig_secs);
    out.set("extern.spill_s", stats.spill_secs);
    out.set("extern.probe_s", stats.probe_secs);
    out.set("extern.verify_s", stats.verify_secs);
    out.set("extern.partitions", stats.partitions as f64);
    out.set("extern.spilled_records", stats.spilled_records as f64);
    out.set("extern.spill_bytes", stats.spill_bytes as f64);
    out.set("extern.peak_bytes", stats.peak_bytes as f64);
    out.set(
        "extern.peak_over_budget",
        ratio(stats.peak_bytes as f64, budget as f64),
    );
    out.set("extern.candidates", candidates);
    out.set(
        "extern.segment_bytes_per_elem",
        ratio(info.file_bytes as f64, info.total_elems as f64),
    );
    out.set(
        "extern.slowdown_vs_mem",
        ratio(rep_s, secs(&layers, "core.join.self_join")),
    );
    // The executor verifies with the same bitmap bound and merge as the
    // in-memory driver; its share is reported under the layer's names too.
    out.set("core.verify.verify_s", stats.verify_secs);
    out.set(
        "core.verify.ns_per_candidate",
        ratio(stats.verify_secs * 1e9, candidates),
    );
    out.set(
        "core.verify.bitmap_pruned_frac",
        ratio(stats.bitmap_pruned as f64, candidates),
    );
    out.set("core.verify.merged_pairs", stats.bitmap_survivors as f64);
    out.set(
        "io.crc.ns_per_byte",
        ratio(secs(&layers, "io.crc") * 1e9, bytes.len() as f64),
    );
    out.set("trace.overhead_frac", rep_s / plain_s - 1.0);
    out.counts = vec![
        ("extern.partitions", stats.partitions as u64),
        ("extern.candidates", stats.candidates),
        ("extern.spilled_records", stats.spilled_records),
        ("extern.spill_bytes", stats.spill_bytes),
        ("extern.peak_bytes", stats.peak_bytes),
        ("output_pairs", plain.len() as u64),
        ("pair_checksum", reference.1),
    ];
    out.notes = vec![("plain_join_s", format!("{plain_s:.6}"))];
    out.spans = spans;
    Ok(out)
}
