//! `cargo xtask` — workspace automation CLI.
//!
//! Wired up through the repo-level `.cargo/config.toml` alias:
//! `xtask = "run --quiet --package xtask --"`.

use std::path::PathBuf;
use std::process::ExitCode;
use xtask::engine::{run_pass, Pass};

const USAGE: &str = "\
usage: cargo xtask <command>

commands:
  locklint [options]    interprocedural lock-order & blocking-under-lock
                        analysis over the concurrent subsystem
                        (exit 0 = clean, 1 = findings, 2 = engine error)
    --root <dir>        workspace root (default: walk up from cwd)
    --json              machine-readable report (findings + suppressions)
  hotlint [options]     hot-path allocation/copy analysis: propagates a
                        \"hot\" property from the verify/query/signature/
                        WAL roots through the call graph and reports
                        allocations, clones, and blocking I/O on hot paths
                        (exit 0 = clean, 1 = findings, 2 = engine error)
    --root <dir>        workspace root (default: walk up from cwd)
    --json              machine-readable report (findings + suppressions)
  difftest [options]    differential-test every signature scheme against
                        the naive oracle on seeded adversarial workloads
                        (exit 0 = agreement, 1 = divergences, 2 = bad usage)
    --seeds <n>         number of consecutive seeds to sweep (default 100)
    --schemes <a,b,..>  comma-separated scheme subset; any of:
                        pe-hamming, pe-jaccard, general-jaccard,
                        general-maxfraction, wtenum, wtenum-jaccard,
                        prefix, identity, lsh, serve, extern
    --replay <seed>     verbosely re-run one seed (for minimized repros)
  crashtest [options]   crash-fault injection against the durable store:
                        seeded workloads, adversarial WAL/snapshot
                        mutations (torn tails, bit flips, stray tmp
                        files), recovery compared exactly with an
                        in-memory oracle
                        (exit 0 = agreement, 1 = divergences, 2 = bad usage)
    --seeds <n>         number of consecutive seeds to sweep (default 100)
    --replay <seed>     verbosely re-run one seed
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("locklint") => lint_pass(&xtask::locklint::PASS, &args[1..]),
        Some("hotlint") => lint_pass(&xtask::hotlint::PASS, &args[1..]),
        Some("difftest") => difftest(&args[1..]),
        Some("crashtest") => crashtest(&args[1..]),
        Some("--help" | "-h" | "help") => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        None => {
            eprint!("{USAGE}");
            ExitCode::from(2)
        }
        Some(other) => {
            eprintln!("error: unknown command `{other}`\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn difftest(args: &[String]) -> ExitCode {
    let mut config = xtask::difftest::DifftestConfig::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seeds" => match it.next().map(|v| v.parse::<u64>()) {
                Some(Ok(n)) if n > 0 => config.seeds = n,
                _ => {
                    eprintln!("error: --seeds needs a positive integer");
                    return ExitCode::from(2);
                }
            },
            "--replay" => match it.next().map(|v| v.parse::<u64>()) {
                Some(Ok(seed)) => config.replay = Some(seed),
                _ => {
                    eprintln!("error: --replay needs a seed (integer)");
                    return ExitCode::from(2);
                }
            },
            "--schemes" => match it.next() {
                Some(list) => {
                    let mut schemes = Vec::new();
                    for name in list.split(',').filter(|s| !s.is_empty()) {
                        match xtask::difftest::SchemeKind::parse(name) {
                            Some(k) => schemes.push(k),
                            None => {
                                eprintln!("error: unknown scheme `{name}`\n\n{USAGE}");
                                return ExitCode::from(2);
                            }
                        }
                    }
                    if schemes.is_empty() {
                        eprintln!("error: --schemes needs at least one scheme name");
                        return ExitCode::from(2);
                    }
                    config.schemes = schemes;
                }
                None => {
                    eprintln!("error: --schemes needs a comma-separated list");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("error: unknown difftest option `{other}`\n\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    let divergences = xtask::difftest::run(&config);
    if divergences.is_empty() {
        let scope = match config.replay {
            Some(seed) => format!("seed {seed}"),
            None => format!("{} seeds", config.seeds),
        };
        println!(
            "difftest: all schemes agree with the oracle over {scope} ({} scheme(s))",
            config.schemes.len()
        );
        ExitCode::SUCCESS
    } else {
        println!("difftest: {} divergence(s)", divergences.len());
        ExitCode::from(1)
    }
}

fn crashtest(args: &[String]) -> ExitCode {
    let mut config = xtask::crashtest::CrashtestConfig::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seeds" => match it.next().map(|v| v.parse::<u64>()) {
                Some(Ok(n)) if n > 0 => config.seeds = n,
                _ => {
                    eprintln!("error: --seeds needs a positive integer");
                    return ExitCode::from(2);
                }
            },
            "--replay" => match it.next().map(|v| v.parse::<u64>()) {
                Some(Ok(seed)) => config.replay = Some(seed),
                _ => {
                    eprintln!("error: --replay needs a seed (integer)");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("error: unknown crashtest option `{other}`\n\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    let divergences = xtask::crashtest::run(&config);
    if divergences.is_empty() {
        let scope = match config.replay {
            Some(seed) => format!("seed {seed}"),
            None => format!("{} seeds", config.seeds),
        };
        println!("crashtest: every crash point recovered to exactly the oracle state over {scope}");
        ExitCode::SUCCESS
    } else {
        println!("crashtest: {} divergence(s)", divergences.len());
        ExitCode::from(1)
    }
}

/// `locklint` / `hotlint`: `[--root <dir>] [--json]`.
fn lint_pass(pass: &'static Pass, args: &[String]) -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut json = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => match it.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("error: --root needs a directory argument");
                    return ExitCode::from(2);
                }
            },
            "--json" => json = true,
            other => {
                eprintln!("error: unknown {} option `{other}`\n\n{USAGE}", pass.tool);
                return ExitCode::from(2);
            }
        }
    }

    let root = match resolve_root(root) {
        Ok(r) => r,
        Err(code) => return code,
    };
    match run_pass(&root, pass) {
        Ok(report) => {
            if json {
                println!("{}", report.to_json());
            } else {
                print!("{report}");
            }
            if report.findings.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(err) => {
            eprintln!("error: {err}");
            ExitCode::from(2)
        }
    }
}

/// Resolves the workspace root for the lint passes: an explicit
/// `--root`, else the nearest `[workspace]` manifest above the cwd.
fn resolve_root(root: Option<PathBuf>) -> Result<PathBuf, ExitCode> {
    let root = match root {
        Some(r) => r,
        None => {
            let cwd = match std::env::current_dir() {
                Ok(c) => c,
                Err(err) => {
                    eprintln!("error: cannot determine working directory: {err}");
                    return Err(ExitCode::from(2));
                }
            };
            match xtask::find_repo_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!("error: no workspace Cargo.toml above {}", cwd.display());
                    return Err(ExitCode::from(2));
                }
            }
        }
    };
    if !root.is_dir() {
        eprintln!("error: root {} is not a directory", root.display());
        return Err(ExitCode::from(2));
    }
    if !root.join("crates").is_dir() {
        eprintln!(
            "error: {} has no crates/ directory — not a lintable workspace root",
            root.display()
        );
        return Err(ExitCode::from(2));
    }
    Ok(root)
}
