//! The benchmark's own contract: `BENCHMARK.json` names exactly what the
//! suite defines, and every workload's tiny instance reports exactly the
//! metrics listed for the kind of run, with every output check passing.

use ssj_benchmark::suite::{self, report, RunConfig, Scale, END_TO_END, PER_LAYER, WORKLOADS};
use ssj_io::json;
use std::collections::BTreeSet;
use std::path::PathBuf;

fn tiny(trace: bool, test: &str) -> RunConfig {
    RunConfig {
        seed: 7,
        seconds: 0.1,
        trace,
        scale: Scale::Tiny,
        work_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(test),
    }
}

#[test]
fn benchmark_json_names_exactly_the_suite() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = json::parse(&text).expect("BENCHMARK.json parses with ssj_io::json");
    let doc = doc.as_object().unwrap();
    let keys: Vec<&str> = doc.keys().map(String::as_str).collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    assert_eq!(doc["run_seconds"].as_f64().unwrap(), suite::DEFAULT_SECONDS);
    let paths = doc["paths"].as_array().unwrap();
    assert_eq!(paths.len(), 1);
    assert_eq!(paths[0].as_str().unwrap(), "benchmark");

    let workloads: Vec<&str> = doc["workloads"]
        .as_array()
        .unwrap()
        .iter()
        .map(|w| {
            let w = w.as_object().unwrap();
            assert_eq!(w.len(), 2, "a workload has a name and a why");
            let why = w["why"].as_str().unwrap();
            assert!(
                !why.is_empty() && why.len() <= 200 && !why.contains('\n'),
                "{why}"
            );
            w["name"].as_str().unwrap()
        })
        .collect();
    assert_eq!(workloads, WORKLOADS);

    let listed = |key: &str, with_bound: bool| -> Vec<(String, String)> {
        doc[key]
            .as_array()
            .unwrap()
            .iter()
            .map(|m| {
                let m = m.as_object().unwrap();
                assert_eq!(m.len(), if with_bound { 4 } else { 3 });
                let better = m["better"].as_str().unwrap();
                assert!(better == "lower" || better == "higher");
                if with_bound {
                    let bound = m["bound"].as_f64().unwrap();
                    assert!(bound > 0.0 && bound <= 0.25, "{bound}");
                }
                (
                    m["name"].as_str().unwrap().to_string(),
                    m["unit"].as_str().unwrap().to_string(),
                )
            })
            .collect()
    };
    let defined = |defs: &[suite::MetricDef]| -> Vec<(String, String)> {
        defs.iter()
            .map(|d| (d.name.to_string(), d.unit.to_string()))
            .collect()
    };
    assert_eq!(listed("end_to_end", true), defined(&END_TO_END));
    assert_eq!(listed("per_layer", false), defined(&PER_LAYER));
    let setup = doc["end_to_end"].as_array().unwrap()[0]
        .as_object()
        .unwrap();
    assert_eq!(setup["name"].as_str().unwrap(), "setup_s");
    assert_eq!(setup["unit"].as_str().unwrap(), "s");
    assert_eq!(setup["better"].as_str().unwrap(), "lower");
}

#[test]
fn every_workload_reports_exactly_its_end_to_end_metrics() {
    let expected: BTreeSet<&str> = END_TO_END.iter().map(|d| d.name).collect();
    for workload in WORKLOADS {
        let cfg = tiny(false, "end_to_end");
        let outcome = suite::run(workload, &cfg).unwrap_or_else(|e| panic!("{workload}: {e}"));
        assert_eq!(outcome.failed, 0, "{workload}: {:?}", outcome.notes);
        assert!(outcome.attempted > 0);
        let got: BTreeSet<&str> = outcome.metrics.keys().copied().collect();
        assert_eq!(got, expected, "{workload}");
        for (name, value) in &outcome.metrics {
            assert!(
                value.is_finite() && *value > 0.0,
                "{workload} {name} = {value}"
            );
        }
        // The last line is the result object, with exactly these keys.
        let line = report::result_line(&outcome, false);
        let result = json::parse(&line).expect("result line is json");
        let result = result.as_object().unwrap();
        let keys: Vec<&str> = result.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(
            result["metrics"].as_object().unwrap().len(),
            END_TO_END.len()
        );
        json::parse(&report::record_line(workload, &cfg, &outcome)).expect("record is json");
    }
}

#[test]
fn every_workload_reports_exactly_the_per_layer_metrics_when_traced() {
    let expected: BTreeSet<&str> = PER_LAYER.iter().map(|d| d.name).collect();
    let mut entered: BTreeSet<&str> = BTreeSet::new();
    for workload in WORKLOADS {
        let cfg = tiny(true, "per_layer");
        let outcome = suite::run(workload, &cfg).unwrap_or_else(|e| panic!("{workload}: {e}"));
        assert_eq!(outcome.failed, 0, "{workload}: {:?}", outcome.notes);
        let got: BTreeSet<&str> = outcome.metrics.keys().copied().collect();
        assert_eq!(got, expected, "{workload}");
        assert!(!outcome.spans.is_empty(), "{workload} recorded no span");
        entered.extend(
            outcome
                .metrics
                .iter()
                .filter(|(_, v)| **v != 0.0)
                .map(|(name, _)| *name),
        );
    }
    // Counters of events that must not happen stay 0, and a tiny run ends
    // before the first automatic snapshot; every other metric is measured
    // by at least one workload.
    let never: BTreeSet<&str> = [
        "server.service.overloaded",
        "server.service.timeouts",
        "cluster.router.replica_answers",
        "store.snapshots",
    ]
    .into();
    let unmeasured: Vec<&&str> = expected
        .difference(&entered)
        .filter(|n| !never.contains(**n))
        .collect();
    assert!(unmeasured.is_empty(), "no workload measures {unmeasured:?}");
}

#[test]
fn the_serving_mix_is_stationary() {
    for workload in ["serve_handle", "cluster_wire"] {
        let outcome = suite::run(workload, &tiny(false, "stationary")).expect(workload);
        let count = |name: &str| {
            outcome
                .counts
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| *v as i64)
                .expect(name)
        };
        // Writes alternate insert and remove per client: however many
        // requests ran, each client is at most one insert ahead.
        let drift = count("live_sets") - count("preload_sets");
        assert!((0..=2).contains(&drift), "{workload}: drift {drift}");
        assert!(
            outcome.attempted > 100,
            "{workload} ran {} ops",
            outcome.attempted
        );
    }
}
