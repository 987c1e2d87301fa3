//! What a run prints: every metric by name with its unit, one JSON record
//! with the spreads, counts, seed and host, and — as the last line — the
//! result object the contract in `BENCHMARK.json`'s format asks for.

use super::trace::by_name;
use super::{host, MetricDef, Outcome, RunConfig, END_TO_END, PER_LAYER};
use ssj_io::json::{write_escaped, write_f64};
use std::fmt::Write as _;

fn defs(trace: bool) -> &'static [MetricDef] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// The last line of a run:
/// `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.
pub fn result_line(outcome: &Outcome, trace: bool) -> String {
    let mut out = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed
    );
    for (i, def) in defs(trace).iter().enumerate() {
        let _ = write!(
            out,
            "{}\"{}\":{{\"value\":",
            if i > 0 { "," } else { "" },
            def.name
        );
        write_f64(
            &mut out,
            outcome.metrics.get(def.name).copied().unwrap_or(0.0),
        );
        let _ = write!(out, ",\"unit\":\"{}\"}}", def.unit);
    }
    out.push_str("}}");
    out
}

/// One JSON record of the run: what was asked, where it ran, and the
/// spreads, exact counts and notes behind the metrics.
pub fn record_line(workload: &str, cfg: &RunConfig, outcome: &Outcome) -> String {
    let mut out = format!(
        "{{\"workload\":\"{workload}\",\"seed\":{},\"seconds\":",
        cfg.seed
    );
    write_f64(&mut out, cfg.seconds);
    let _ = write!(
        out,
        ",\"trace\":{},\"git_rev\":\"{}\",\"host\":{{{}}},\"failed_frac\":",
        cfg.trace,
        host::git_rev(),
        host::fingerprint_json()
    );
    write_f64(
        &mut out,
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
    );
    out.push_str(",\"spread\":{");
    for (i, (name, s)) in outcome.spreads.iter().enumerate() {
        let _ = write!(
            out,
            "{}\"{name}\":{{\"n\":{}",
            if i > 0 { "," } else { "" },
            s.n
        );
        for (key, v) in [
            ("min", s.min),
            ("q1", s.q1),
            ("median", s.median),
            ("q3", s.q3),
            ("max", s.max),
        ] {
            let _ = write!(out, ",\"{key}\":");
            write_f64(&mut out, v);
        }
        out.push('}');
    }
    out.push_str("},\"counts\":{");
    for (i, (name, n)) in outcome.counts.iter().enumerate() {
        // Checksums use all 64 bits; JSON numbers do not, so counts are strings.
        let _ = write!(out, "{}\"{name}\":\"{n}\"", if i > 0 { "," } else { "" });
    }
    out.push_str("},\"notes\":{");
    for (i, (name, text)) in outcome.notes.iter().enumerate() {
        let _ = write!(out, "{}\"{name}\":", if i > 0 { "," } else { "" });
        write_escaped(&mut out, text);
    }
    out.push_str("}}");
    out
}

/// The human-readable block: metrics with units, spreads, counts, notes,
/// and for a traced run the self time of every span name.
pub fn render(workload: &str, cfg: &RunConfig, outcome: &Outcome) -> String {
    let mut out = format!(
        "workload {workload}  seed {}  seconds {}  trace {}\n",
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace)
    );
    for def in defs(cfg.trace) {
        let value = outcome.metrics.get(def.name).copied().unwrap_or(0.0);
        // A traced run lists every layer; the ones this workload never
        // enters read 0 and are left out of the table.
        if cfg.trace && value == 0.0 {
            continue;
        }
        let _ = writeln!(out, "  {:<36} {:>16.6} {}", def.name, value, def.unit);
    }
    let _ = writeln!(
        out,
        "  {:<36} {:>16.6} ratio  ({} of {} attempted)",
        "failed_frac",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    );
    for (name, s) in &outcome.spreads {
        let _ = writeln!(
            out,
            "  spread {name}: n={} min={:.6} q1={:.6} median={:.6} q3={:.6} max={:.6}",
            s.n, s.min, s.q1, s.median, s.q3, s.max
        );
    }
    for (name, n) in &outcome.counts {
        let _ = writeln!(out, "  count {name} = {n}");
    }
    for (name, text) in &outcome.notes {
        let _ = writeln!(out, "  note {name} = {text}");
    }
    if !outcome.spans.is_empty() {
        let _ = writeln!(
            out,
            "  {:<36} {:>10} {:>14} {:>14}",
            "span", "calls", "total_ms", "self_ms"
        );
        for (name, t) in by_name(&outcome.spans) {
            let _ = writeln!(
                out,
                "  {name:<36} {:>10} {:>14.3} {:>14.3}",
                t.calls,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            );
        }
    }
    out
}
