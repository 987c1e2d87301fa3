//! `benchmark` — runs the workloads of `BENCHMARK.json`.
//!
//! ```text
//! benchmark --workload <name> --seed <n> [--seconds <s>] [--trace <0|1>]
//! benchmark --all [--seed <n>] [--seconds <s>] [--trace <0|1>] [--repeat <k>]
//! ```
//!
//! One workload runs in this process and ends with the result line.
//! `--all`, and any `--repeat`, run each workload in a process of its own
//! (so `peak_rss_mb` is per workload) and end with a comparison instead.

use ssj_benchmark::suite::{self, host, report, trace, RunConfig, Scale};
use ssj_io::json::{self, Value};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

const USAGE: &str = "\
benchmark — the engine benchmark described by BENCHMARK.json

  --workload <name>   one of: join_address join_uniform_mt extern_address
                      serve_handle serve_wire serve_durable cluster_wire
  --all               every workload, each in its own process
  --seed <n>          seed of every generated input (default 1)
  --seconds <s>       seconds of measurement per run (default: run_seconds)
  --trace <0|1>       0: tracing off, end-to-end metrics (default)
                      1: a traced run, per-layer metrics and a span file
  --repeat <k>        run the chosen workloads k times and compare the runs:
                      non-zero exit when an end-to-end metric differs by more
                      than its bound in BENCHMARK.json or an exact count differs
";

struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
    in_process: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: suite::DEFAULT_SECONDS,
        trace: false,
        repeat: 1,
        in_process: true,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !suite::valid_name(name) {
                    return Err(format!("workload name {name:?} is not [A-Za-z0-9_.-]+"));
                }
                if !suite::WORKLOADS.contains(&name.as_str()) {
                    return Err(format!(
                        "unknown workload {name:?}; known: {:?}",
                        suite::WORKLOADS
                    ));
                }
                parsed.workloads.push(name.clone());
            }
            "--all" => {
                parsed.workloads = suite::WORKLOADS.iter().map(|w| w.to_string()).collect();
                parsed.in_process = false;
            }
            "--seed" => parsed.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|_| "bad --seconds")?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--repeat" => {
                parsed.repeat = value()?.parse().map_err(|_| "bad --repeat")?;
                if parsed.repeat == 0 {
                    return Err("--repeat must be at least 1".to_string());
                }
                parsed.in_process = false;
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown option {other:?}\n\n{USAGE}")),
        }
    }
    if parsed.workloads.is_empty() {
        return Err(format!("name a workload or pass --all\n\n{USAGE}"));
    }
    Ok(parsed)
}

/// Runs one workload here, prints its block, record and result line.
fn run_here(workload: &str, args: &Args) -> ExitCode {
    let cfg = RunConfig {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        scale: Scale::Full,
        work_dir: host::work_dir(),
    };
    let outcome = match suite::run(workload, &cfg) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("benchmark: {workload}: {e}");
            return ExitCode::from(2);
        }
    };
    print!("{}", report::render(workload, &cfg, &outcome));
    if cfg.trace {
        let path = cfg.work_dir.join(format!("trace-{workload}.json"));
        match trace::write_file(&path, workload, cfg.seed, &outcome.spans) {
            Ok(()) => println!("  trace file {}", path.display()),
            Err(e) => {
                eprintln!("benchmark: cannot write {}: {e}", path.display());
                return ExitCode::from(2);
            }
        }
    }
    println!("RECORD {}", report::record_line(workload, &cfg, &outcome));
    println!("{}", report::result_line(&outcome, cfg.trace));
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// What the parent keeps of a child run.
struct ChildRun {
    correct: bool,
    metrics: BTreeMap<String, f64>,
    counts: BTreeMap<String, String>,
}

/// Runs one workload in a child process, passing its output through.
fn run_child(workload: &str, args: &Args) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    let mut lines = stdout.lines().rev();
    let result = lines.next().ok_or("child printed nothing")?;
    let record = lines
        .find_map(|l| l.strip_prefix("RECORD "))
        .ok_or("child printed no record")?;
    let result = json::parse(result)?;
    let result = result.as_object()?;
    let mut metrics = BTreeMap::new();
    for (name, m) in result["metrics"].as_object()? {
        metrics.insert(name.clone(), m.as_object()?["value"].as_f64()?);
    }
    let record = json::parse(record)?;
    let mut counts = BTreeMap::new();
    for (name, n) in record.as_object()?["counts"].as_object()? {
        counts.insert(name.clone(), n.as_str()?.to_string());
    }
    Ok(ChildRun {
        correct: result["correct"] == Value::Bool(true) && output.status.success(),
        metrics,
        counts,
    })
}

/// `name → bound` of the end-to-end metrics in `BENCHMARK.json`.
fn bounds() -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let doc = json::parse(&text)?;
    let mut out = BTreeMap::new();
    for m in doc.as_object()?["end_to_end"].as_array()? {
        let m = m.as_object()?;
        out.insert(m["name"].as_str()?.to_string(), m["bound"].as_f64()?);
    }
    Ok(out)
}

/// Runs the workloads `repeat` times in child processes; with more than
/// one pass, compares every later pass with the first.
fn run_children(args: &Args) -> Result<bool, String> {
    let bounds = if args.repeat > 1 && !args.trace {
        bounds()?
    } else {
        BTreeMap::new()
    };
    let mut all_ok = true;
    let mut first: BTreeMap<&str, ChildRun> = BTreeMap::new();
    for pass in 0..args.repeat {
        for workload in &args.workloads {
            println!("== pass {} of {}: {workload}", pass + 1, args.repeat);
            let run = run_child(workload, args).map_err(|e| format!("{workload}: {e}"))?;
            all_ok &= run.correct;
            let Some(base) = first.get(workload.as_str()) else {
                first.insert(workload, run);
                continue;
            };
            println!("== {workload}: pass {} against pass 1", pass + 1);
            for (name, &a) in &base.metrics {
                let b = run.metrics.get(name).copied().unwrap_or(0.0);
                let diff = if a + b == 0.0 {
                    0.0
                } else {
                    (a - b).abs() / ((a + b) / 2.0)
                };
                let verdict = match bounds.get(name) {
                    Some(&bound) if diff > bound => {
                        all_ok = false;
                        format!("FAIL (bound {bound})")
                    }
                    Some(&bound) => format!("ok (bound {bound})"),
                    None => "unbounded".to_string(),
                };
                println!("  {name:<36} {a:>16.6} {b:>16.6}  diff {diff:>8.4}  {verdict}");
            }
            for (name, a) in &base.counts {
                let b = run.counts.get(name);
                // Counts of requests served depend on timing; counts of a
                // seeded join do not.
                let exact = !matches!(name.as_str(), "live_sets");
                if exact && b != Some(a) {
                    all_ok = false;
                    println!("  count {name}: {a} vs {b:?}  FAIL (must repeat exactly)");
                }
            }
        }
    }
    Ok(all_ok)
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!(
            "benchmark: refusing to measure a build with debug assertions (witnesses and \
             invariant checks distort every number); build with --release"
        );
        return ExitCode::from(2);
    }
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if args.in_process {
        return run_here(&args.workloads[0], &args);
    }
    match run_children(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            println!("== some run failed its checks or disagreed with the first pass");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
