//! Shared machinery for the reproduction harness: scales, algorithm
//! runners, result records, and table/JSON output.

use ssj_baselines::{LshJaccard, PrefixFilter, PrefixFilterConfig};
use ssj_core::hash::FxHashSet;
use ssj_core::join::{self_join, JoinOptions, JoinResult};
use ssj_core::partenum::{estimate_cost, optimize_jaccard, PartEnumJaccard};
use ssj_core::predicate::Predicate;
use ssj_core::set::SetCollection;
use ssj_core::signature::SignatureScheme;
use std::fmt::Write as _;

/// Input-size tier. The paper runs 100K/500K/1M; the default tier scales
/// these down 10× so the whole suite finishes in minutes on a laptop, and
/// `quick` is for smoke runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// 2K / 5K / 10K inputs.
    Quick,
    /// 10K / 50K / 100K inputs (default).
    Default,
    /// The paper's 100K / 500K / 1M.
    Full,
}

impl Scale {
    /// The three input sizes of the Figure 12/13/18/19 grids.
    pub fn sizes(self) -> [usize; 3] {
        match self {
            Scale::Quick => [2_000, 5_000, 10_000],
            Scale::Default => [10_000, 50_000, 100_000],
            Scale::Full => [100_000, 500_000, 1_000_000],
        }
    }

    /// The size sweep of Figure 14 / Table 1.
    pub fn sweep(self) -> Vec<usize> {
        match self {
            Scale::Quick => vec![1_000, 2_000, 5_000, 10_000],
            Scale::Default => vec![5_000, 10_000, 50_000, 100_000],
            Scale::Full => vec![10_000, 50_000, 100_000, 500_000, 1_000_000],
        }
    }

    /// The "medium" size used by single-size experiments (Fig 14c, Fig 15).
    pub fn medium(self) -> usize {
        self.sizes()[1]
    }

    /// Parses `quick` / `default` / `full`.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "quick" => Some(Scale::Quick),
            "default" => Some(Scale::Default),
            "full" => Some(Scale::Full),
            _ => None,
        }
    }
}

/// One measured run: everything needed to print the paper's chart data.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Experiment id ("fig12", "tab1", ...).
    pub experiment: String,
    /// Dataset name ("address", "uniform", ...).
    pub dataset: String,
    /// Algorithm label ("PEN", "LSH(0.95)", "PF", "WEN", ...).
    pub algo: String,
    /// Number of input sets/strings.
    pub input_size: usize,
    /// The threshold parameter (γ for similarity, k for edit distance).
    pub param: f64,
    /// Seconds in signature generation.
    pub sig_gen_secs: f64,
    /// Seconds in candidate generation.
    pub cand_gen_secs: f64,
    /// Seconds in post-filtering / verification.
    pub verify_secs: f64,
    /// Total seconds.
    pub total_secs: f64,
    /// The Section 3.2 intermediate-result size.
    pub f2: u64,
    /// Total signatures generated.
    pub signatures: u64,
    /// Signature collisions (third F2 term).
    pub collisions: u64,
    /// Distinct candidate pairs.
    pub candidates: u64,
    /// Output pairs.
    pub output_pairs: u64,
    /// Recall against the exact answer, when measured (LSH runs).
    pub recall: Option<f64>,
    /// Free-form annotation (chosen parameters etc.).
    pub notes: String,
}

impl RunRecord {
    /// Builds a record from a join result.
    pub fn from_result(
        experiment: &str,
        dataset: &str,
        algo: &str,
        input_size: usize,
        param: f64,
        result: &JoinResult,
        notes: String,
    ) -> Self {
        let s = &result.stats;
        Self {
            experiment: experiment.to_string(),
            dataset: dataset.to_string(),
            algo: algo.to_string(),
            input_size,
            param,
            sig_gen_secs: s.sig_gen_secs,
            cand_gen_secs: s.cand_gen_secs,
            verify_secs: s.verify_secs,
            total_secs: s.total_secs(),
            f2: s.f2(),
            signatures: s.total_signatures(),
            collisions: s.signature_collisions,
            candidates: s.candidate_pairs,
            output_pairs: s.output_pairs,
            recall: None,
            notes,
        }
    }
}

/// The jaccard algorithms of Figures 12–14.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum JaccardAlgo {
    /// PartEnum with F2-optimized per-instance parameters.
    Pen,
    /// Minhash LSH at the given recall target.
    Lsh(f64),
    /// Prefix filter with size-based filtering.
    Pf,
}

impl JaccardAlgo {
    /// Display label matching the paper's charts.
    pub fn label(self) -> String {
        match self {
            JaccardAlgo::Pen => "PEN".to_string(),
            JaccardAlgo::Lsh(r) => format!("LSH({r:.2})"),
            JaccardAlgo::Pf => "PF".to_string(),
        }
    }
}

/// Runs one jaccard self-join, returning the result and a parameter note.
pub fn run_jaccard(
    collection: &SetCollection,
    gamma: f64,
    algo: JaccardAlgo,
    threads: usize,
    seed: u64,
) -> (JoinResult, String) {
    let pred = Predicate::Jaccard { gamma };
    let opts = JoinOptions {
        threads,
        verify: true,
        ..JoinOptions::default()
    };
    match algo {
        JaccardAlgo::Pen => {
            let scheme =
                pen_scheme(collection, gamma, seed).expect("optimizer yields valid parameters");
            let result = self_join(&scheme, collection, pred, None, opts);
            (result, "optimized (n1,n2) per instance".to_string())
        }
        JaccardAlgo::Lsh(recall) => {
            let scheme = LshJaccard::optimized(gamma, recall, collection, 1_000, seed);
            let p = scheme.params();
            let result = self_join(&scheme, collection, pred, None, opts);
            (result, format!("g={} l={}", p.g, p.l))
        }
        JaccardAlgo::Pf => {
            let scheme = PrefixFilter::build(
                pred,
                &[collection],
                None,
                PrefixFilterConfig { size_filter: true },
            )
            .expect("unweighted build succeeds");
            let result = self_join(&scheme, collection, pred, None, opts);
            (result, "size-filter augmented".to_string())
        }
    }
}

/// The PartEnum plan the harness runs: `optimize_jaccard`'s parameters
/// (256 signatures per set at most, a 1 000-set sample).
pub fn pen_scheme(
    collection: &SetCollection,
    gamma: f64,
    seed: u64,
) -> ssj_core::error::Result<PartEnumJaccard> {
    let params = optimize_jaccard(gamma, collection, 256, 1_000, seed);
    PartEnumJaccard::with_params(gamma, collection.max_set_len(), seed, &params)
}

/// Estimated signature collisions for running `algo` on `collection` at
/// `gamma` — used to skip runs whose candidate sets would not fit in memory
/// (PF at the paper's 1M scale needs a DBMS that spills; this in-memory
/// harness bounds itself instead and says so). Each algorithm is priced
/// with the scheme [`run_jaccard`] builds.
pub fn estimate_collisions(
    collection: &SetCollection,
    gamma: f64,
    algo: JaccardAlgo,
    seed: u64,
) -> f64 {
    match algo {
        JaccardAlgo::Pen => pen_scheme(collection, gamma, seed).map_or(f64::INFINITY, |scheme| {
            sampled_collisions(&scheme, collection)
        }),
        JaccardAlgo::Lsh(recall) => {
            let scheme = LshJaccard::optimized(gamma, recall, collection, 1_000, seed);
            sampled_collisions(&scheme, collection)
        }
        JaccardAlgo::Pf => PrefixFilter::build(
            Predicate::Jaccard { gamma },
            &[collection],
            None,
            PrefixFilterConfig { size_filter: true },
        )
        .map_or(f64::INFINITY, |scheme| {
            sampled_collisions(&scheme, collection)
        }),
    }
}

/// Signature collisions `scheme` makes on `collection`, priced by
/// `estimate_cost` on an evenly spaced sample of about 2 000 sets.
fn sampled_collisions(scheme: &impl SignatureScheme, collection: &SetCollection) -> f64 {
    let step = (collection.len() / 2_000).max(1);
    let sample: Vec<&[u32]> = (0..collection.len())
        .step_by(step)
        .map(|i| collection.set(i as u32))
        .collect();
    let scale = collection.len() as f64 / sample.len().max(1) as f64;
    let cost = estimate_cost(scheme, &sample, scale);
    let mut buf = Vec::new();
    let mut n = 0u64;
    for s in &sample {
        buf.clear();
        scheme.signatures_into(s, &mut buf);
        n += buf.len() as u64;
    }
    (cost - 2.0 * n as f64 * scale).max(0.0)
}

/// Collision budget above which a run is skipped (≈ 16 GB of encoded pairs).
pub const COLLISION_BUDGET: f64 = 2e9;

/// Recall of `approx` against the `exact` pair set.
pub fn recall_of(approx: &[(u32, u32)], exact: &[(u32, u32)]) -> f64 {
    if exact.is_empty() {
        return 1.0;
    }
    let exact_set: FxHashSet<(u32, u32)> = exact.iter().copied().collect();
    let hit = approx.iter().filter(|p| exact_set.contains(p)).count();
    hit as f64 / exact.len() as f64
}

/// Renders records as an aligned text table with the given column
/// extractors.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let line = |out: &mut String, cells: &[String]| {
        for (i, cell) in cells.iter().enumerate() {
            let _ = write!(out, "{:>width$}  ", cell, width = widths[i]);
        }
        out.push('\n');
    };
    line(
        &mut out,
        &headers.iter().map(|h| h.to_string()).collect::<Vec<_>>(),
    );
    let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        line(&mut out, row);
    }
    out
}

/// Standard row shape for timing tables (Figures 12, 18, 19).
pub fn timing_row(r: &RunRecord) -> Vec<String> {
    vec![
        r.input_size.to_string(),
        format!("{:.2}", r.param),
        r.algo.clone(),
        format!("{:.3}", r.sig_gen_secs),
        format!("{:.3}", r.cand_gen_secs),
        format!("{:.3}", r.verify_secs),
        format!("{:.3}", r.total_secs),
        r.output_pairs.to_string(),
        r.recall.map_or_else(|| "-".into(), |x| format!("{x:.3}")),
    ]
}

/// Header matching [`timing_row`].
pub const TIMING_HEADERS: [&str; 9] = [
    "size",
    "param",
    "algo",
    "siggen",
    "candpair",
    "postfilter",
    "total",
    "output",
    "recall",
];

/// Writes records to `target/experiments/<experiment>.json`.
pub fn write_json(experiment: &str, records: &[RunRecord]) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::Path::new("target").join("experiments");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{experiment}.json"));
    let json = crate::json::records_to_json(records);
    std::fs::write(&path, json)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pen_estimate_prices_the_plan_that_runs() {
        let collection = ssj_datagen::generate_uniform(ssj_datagen::UniformConfig {
            base_sets: 800,
            set_size: 50,
            domain: 10_000,
            similar_fraction: 0.2,
            planted_similarity: 0.9,
            seed: 5,
        });
        let (gamma, seed) = (0.8, 1);
        let estimate = estimate_collisions(&collection, gamma, JaccardAlgo::Pen, seed);
        // The optimizer's plan, built the way `run_jaccard` builds it…
        let params = optimize_jaccard(gamma, &collection, 256, 1_000, seed);
        let plan = PartEnumJaccard::with_params(gamma, collection.max_set_len(), seed, &params)
            .expect("optimizer yields valid parameters");
        assert_eq!(estimate, sampled_collisions(&plan, &collection));
        // …not the default plan, which prices differently here.
        let default = PartEnumJaccard::new(gamma, collection.max_set_len(), seed).unwrap();
        assert_ne!(estimate, sampled_collisions(&default, &collection));
    }

    #[test]
    fn scale_parsing_and_sizes() {
        assert_eq!(Scale::parse("quick"), Some(Scale::Quick));
        assert_eq!(Scale::parse("full"), Some(Scale::Full));
        assert_eq!(Scale::parse("nope"), None);
        assert_eq!(Scale::Full.sizes(), [100_000, 500_000, 1_000_000]);
        assert!(Scale::Quick.medium() < Scale::Default.medium());
    }

    #[test]
    fn recall_math() {
        let exact = vec![(0, 1), (1, 2), (2, 3), (3, 4)];
        let approx = vec![(0, 1), (2, 3), (9, 9)];
        assert!((recall_of(&approx, &exact) - 0.5).abs() < 1e-12);
        assert_eq!(recall_of(&[], &[]), 1.0);
    }

    #[test]
    fn table_rendering_aligns() {
        let s = render_table(
            &["a", "long_header"],
            &[vec!["1".into(), "2".into()], vec!["100".into(), "x".into()]],
        );
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("long_header"));
    }

    #[test]
    fn all_three_algos_agree_on_small_input() {
        // PEN and PF must produce identical (exact) answers; LSH at 0.95
        // recall should find most of them.
        let collection: SetCollection = (0..300u32)
            .map(|i| {
                let base = (i % 60) * 100;
                (base..base + 12).collect::<Vec<_>>()
            })
            .chain((0..40u32).map(|i| {
                let base = (i % 60) * 100;
                let mut v: Vec<u32> = (base..base + 11).collect();
                v.push(99_000 + i);
                v
            }))
            .collect();
        let gamma = 0.8;
        let (pen, _) = run_jaccard(&collection, gamma, JaccardAlgo::Pen, 1, 1);
        let (pf, _) = run_jaccard(&collection, gamma, JaccardAlgo::Pf, 1, 1);
        let (lsh, _) = run_jaccard(&collection, gamma, JaccardAlgo::Lsh(0.95), 1, 1);
        let mut a = pen.pairs.clone();
        let mut b = pf.pairs.clone();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "exact algorithms must agree");
        assert!(!a.is_empty());
        assert!(recall_of(&lsh.pairs, &a) > 0.85);
        assert!(lsh.approximate && !pen.approximate && !pf.approximate);
    }
}
