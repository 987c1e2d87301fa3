//! `cargo xtask difftest` — deterministic differential testing of every
//! signature scheme against the naive oracle.
//!
//! For each seed, [`ssj_datagen::generate_adversarial`] produces a corner-
//! case workload (empty sets, duplicates, interval-boundary sizes, extreme
//! thresholds, tied weights); every scheme in the matrix then runs at 1, 2,
//! and 8 worker threads — plus the full `ssj-serve` wire path, and the
//! binary R–S driver over two overlapping halves of the workload — and its
//! verified pair set is compared with the brute-force ground truth. Any
//! mismatch or panic is a divergence: the harness shrinks the workload with
//! [`shrink`] and prints a replay command plus a regression-test snippet.

pub mod oracle;
pub mod shrink;

use ssj_datagen::generate_adversarial;

/// Worker-thread counts every driver-based scheme runs at.
pub const THREAD_MATRIX: &[usize] = &[1, 2, 8];

/// One scheme slot in the difftest matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchemeKind {
    /// `PartEnumHamming` under `Hd ≤ k`.
    PeHamming,
    /// `PartEnumJaccard` under `Js ≥ γ`.
    PeJaccard,
    /// `GeneralPartEnum` specialized to jaccard.
    GeneralJaccard,
    /// `GeneralPartEnum` under the max-fraction predicate.
    GeneralMaxFraction,
    /// `WtEnum` under weighted overlap `w(r∩s) ≥ T`.
    WtEnum,
    /// `WtEnumJaccard` under weighted jaccard.
    WtEnumJaccard,
    /// The prefix-filter baseline under jaccard.
    Prefix,
    /// The identity scheme (`Sign(s) = s`) under jaccard.
    Identity,
    /// LSH under jaccard — checked for soundness only (it may miss pairs
    /// by design, but must never report a false pair).
    Lsh,
    /// The `ssj-serve` wire path: insert + query every set over an
    /// in-process scripted connection.
    Serve,
    /// The out-of-core spill executor under jaccard: the workload is
    /// written to a segment and joined at several forced partition
    /// counts, which must all agree with each other and the oracle.
    Extern,
    /// The multi-node cluster path: every set inserted and queried
    /// through the scatter-gather router over simulated clusters of
    /// 2, 3, and 5 nodes, which must all agree with each other and the
    /// oracle (node count is semantically invisible, like partition
    /// count for `Extern`).
    Cluster,
    /// The binary driver `ssj_core::join::join` with `PartEnumJaccard`
    /// under jaccard: the workload is split into overlapping R and S
    /// halves, joined with the bitmap filter on and off, and compared
    /// with the naive R–S join.
    Binary,
}

impl SchemeKind {
    /// Every scheme in the matrix, in run order.
    pub const ALL: &'static [SchemeKind] = &[
        SchemeKind::PeHamming,
        SchemeKind::PeJaccard,
        SchemeKind::GeneralJaccard,
        SchemeKind::GeneralMaxFraction,
        SchemeKind::WtEnum,
        SchemeKind::WtEnumJaccard,
        SchemeKind::Prefix,
        SchemeKind::Identity,
        SchemeKind::Lsh,
        SchemeKind::Serve,
        SchemeKind::Extern,
        SchemeKind::Cluster,
        SchemeKind::Binary,
    ];

    /// CLI name (`--schemes` takes a comma-separated list of these).
    pub fn name(self) -> &'static str {
        match self {
            Self::PeHamming => "pe-hamming",
            Self::PeJaccard => "pe-jaccard",
            Self::GeneralJaccard => "general-jaccard",
            Self::GeneralMaxFraction => "general-maxfraction",
            Self::WtEnum => "wtenum",
            Self::WtEnumJaccard => "wtenum-jaccard",
            Self::Prefix => "prefix",
            Self::Identity => "identity",
            Self::Lsh => "lsh",
            Self::Serve => "serve",
            Self::Extern => "extern",
            Self::Cluster => "cluster",
            Self::Binary => "binary",
        }
    }

    /// Rust enum-variant name, for generated regression snippets.
    pub fn variant_name(self) -> &'static str {
        match self {
            Self::PeHamming => "PeHamming",
            Self::PeJaccard => "PeJaccard",
            Self::GeneralJaccard => "GeneralJaccard",
            Self::GeneralMaxFraction => "GeneralMaxFraction",
            Self::WtEnum => "WtEnum",
            Self::WtEnumJaccard => "WtEnumJaccard",
            Self::Prefix => "Prefix",
            Self::Identity => "Identity",
            Self::Lsh => "Lsh",
            Self::Serve => "Serve",
            Self::Extern => "Extern",
            Self::Cluster => "Cluster",
            Self::Binary => "Binary",
        }
    }

    /// Parses a CLI scheme name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.iter().copied().find(|k| k.name() == name)
    }

    /// Thread counts this scheme runs at. LSH uses its own sequential
    /// candidate pass, the server owns its worker pool, the extern
    /// executor streams partitions sequentially, and the cluster runs its
    /// own node-count sweep (their internal partition/node axes are the
    /// interesting ones), so each runs once per seed. The binary join runs
    /// sequentially and on two workers.
    pub fn thread_counts(self) -> &'static [usize] {
        match self {
            Self::Lsh | Self::Extern | Self::Cluster => &[1],
            Self::Serve => &[2],
            Self::Binary => &[1, 2],
            _ => THREAD_MATRIX,
        }
    }
}

/// What `cargo xtask difftest` was asked to do.
#[derive(Debug, Clone)]
pub struct DifftestConfig {
    /// Number of consecutive seeds to run, starting at 0.
    pub seeds: u64,
    /// Scheme subset (defaults to [`SchemeKind::ALL`]).
    pub schemes: Vec<SchemeKind>,
    /// Replay exactly this seed, verbosely, instead of sweeping.
    pub replay: Option<u64>,
}

impl Default for DifftestConfig {
    fn default() -> Self {
        Self {
            seeds: 100,
            schemes: SchemeKind::ALL.to_vec(),
            replay: None,
        }
    }
}

/// One confirmed scheme/oracle disagreement.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Workload seed.
    pub seed: u64,
    /// The diverging scheme.
    pub scheme: SchemeKind,
    /// Worker-thread count of the diverging run.
    pub threads: usize,
    /// Human-readable mismatch or panic description.
    pub detail: String,
}

/// Runs the configured sweep (or replay), printing progress and shrunken
/// repros to stdout. Returns every divergence found.
pub fn run(config: &DifftestConfig) -> Vec<Divergence> {
    // The harness treats panics as divergences; silence the default hook so
    // expected panics (debug invariants firing on a real bug) don't spam
    // backtraces mid-sweep.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let result = run_inner(config);
    std::panic::set_hook(hook);
    result
}

fn run_inner(config: &DifftestConfig) -> Vec<Divergence> {
    let seeds: Vec<u64> = match config.replay {
        Some(seed) => vec![seed],
        None => (0..config.seeds).collect(),
    };
    let verbose = config.replay.is_some();
    let mut divergences = Vec::new();
    for (done, &seed) in seeds.iter().enumerate() {
        let w = generate_adversarial(seed);
        if verbose {
            println!(
                "seed {seed}: {} sets, domain {}, gamma {}, gamma_w {}, k {}, t {}",
                w.sets.len(),
                w.domain,
                w.gamma,
                w.gamma_w,
                w.hamming_k,
                w.weighted_t
            );
        }
        for &scheme in &config.schemes {
            for &threads in scheme.thread_counts() {
                match oracle::check(scheme, &w, threads) {
                    None => {
                        if verbose {
                            println!("  {:<20} threads={threads}  ok", scheme.name());
                        }
                    }
                    Some(detail) => {
                        println!(
                            "DIVERGENCE seed={seed} scheme={} threads={threads}: {detail}",
                            scheme.name()
                        );
                        let small = shrink::shrink(&w, scheme, threads);
                        println!(
                            "  minimized to {} set(s): {:?}",
                            small.sets.len(),
                            small.sets
                        );
                        println!(
                            "  replay: cargo xtask difftest --replay {seed} --schemes {}",
                            scheme.name()
                        );
                        println!("  regression snippet:");
                        for line in shrink::regression_snippet(&small, scheme, threads).lines() {
                            println!("    {line}");
                        }
                        divergences.push(Divergence {
                            seed,
                            scheme,
                            threads,
                            detail,
                        });
                    }
                }
            }
        }
        if !verbose && (done + 1) % 50 == 0 {
            println!(
                "difftest: {}/{} seeds, {} divergence(s)",
                done + 1,
                seeds.len(),
                divergences.len()
            );
        }
    }
    divergences
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheme_names_round_trip() {
        for &k in SchemeKind::ALL {
            assert_eq!(SchemeKind::parse(k.name()), Some(k));
        }
        assert_eq!(SchemeKind::parse("nope"), None);
    }

    #[test]
    fn thread_counts_are_sane() {
        for &k in SchemeKind::ALL {
            assert!(!k.thread_counts().is_empty());
        }
        assert_eq!(SchemeKind::PeJaccard.thread_counts(), &[1, 2, 8]);
    }
}
