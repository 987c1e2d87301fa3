//! End-to-end tests for `cargo xtask hotlint`: engine-level assertions on
//! the fixture trees, exit-code checks on the compiled binary, and the
//! workspace self-test (the acceptance gate: the real repo's hot paths
//! pass their own allocation analysis with every suppression justified in
//! writing).

mod common;

use std::path::Path;

use common::{assert_suppression_budget, fixture, pass_exit, repo_root};
use xtask::engine::{run_pass, Report};
use xtask::hotlint;

fn run(root: &Path) -> Report {
    run_pass(root, &hotlint::PASS).expect("engine runs")
}

#[test]
fn hotbad_fixture_trips_every_rule() {
    let report = run(&fixture("hotbad"));
    let rules_hit: Vec<&str> = report.findings.iter().map(|v| v.rule).collect();
    for rule in [
        hotlint::HOT_ALLOC,
        hotlint::HOT_ALLOC_LOOP,
        hotlint::HOT_CLONE,
        hotlint::HOT_BLOCKING,
        hotlint::HOT_SCRATCH,
        hotlint::ANNOTATION_RULE,
    ] {
        assert!(
            rules_hit.contains(&rule),
            "rule {rule} did not fire:\n{:#?}",
            report.findings
        );
    }
    // Nothing was suppressed: the empty-reason and wrong-rule annotations
    // must not count.
    assert!(report.suppressed.is_empty(), "{:#?}", report.suppressed);
}

#[test]
fn hotbad_fixture_pinpoints_the_right_sites() {
    let report = run(&fixture("hotbad"));
    let at = |rule: &str| -> Vec<usize> {
        report
            .findings
            .iter()
            .filter(|v| v.path.ends_with("core/src/lib.rs") && v.rule == rule)
            .map(|v| v.line)
            .collect()
    };

    // The per-call temporary at body top level, and the one an
    // empty-reason annotation fails to suppress.
    assert_eq!(at(hotlint::HOT_SCRATCH), vec![5, 32]);
    // The per-element allocation inside the for loop.
    assert_eq!(at(hotlint::HOT_ALLOC_LOOP), vec![7]);
    // The mid-expression allocation, and the one a wrong-rule annotation
    // fails to suppress.
    assert_eq!(at(hotlint::HOT_ALLOC), vec![10, 34]);
    // The heap-owning copy.
    assert_eq!(at(hotlint::HOT_CLONE), vec![11]);
    // The call that reaches the fsync, and the fsync itself (flush is hot
    // because query calls it).
    assert_eq!(at(hotlint::HOT_BLOCKING), vec![21, 26]);
    // The unknown-rule and empty-reason annotations.
    assert_eq!(at(hotlint::ANNOTATION_RULE), vec![30, 31]);
}

#[test]
fn hotclean_fixture_is_clean_with_audited_suppressions() {
    let report = run(&fixture("hotclean"));
    assert!(report.findings.is_empty(), "{:#?}", report.findings);
    // The bounded per-call Vec and the in-memory Write sink are
    // suppressed — with reasons — not silently invisible.
    assert!(
        report.suppressed.len() >= 2,
        "expected audited suppressions, got {:#?}",
        report.suppressed
    );
    assert!(report.suppressed.iter().all(|s| !s.reason.is_empty()));
    let rules: Vec<&str> = report.suppressed.iter().map(|s| s.rule).collect();
    assert!(rules.contains(&hotlint::HOT_SCRATCH), "{rules:?}");
    assert!(rules.contains(&hotlint::HOT_BLOCKING), "{rules:?}");
}

#[test]
fn hotbad_exits_one_and_hotclean_exits_zero() {
    let (code, stdout) = pass_exit("hotlint", &fixture("hotbad"), false);
    assert_eq!(code, 1, "stdout:\n{stdout}");
    for rule in [
        "hot-alloc",
        "hot-alloc-loop",
        "hot-clone",
        "hot-blocking",
        "hot-scratch",
        "hotlint-annotation",
    ] {
        assert!(stdout.contains(rule), "missing {rule} in:\n{stdout}");
    }

    let (code, stdout) = pass_exit("hotlint", &fixture("hotclean"), false);
    assert_eq!(code, 0, "stdout:\n{stdout}");
    assert!(stdout.contains("0 finding(s)"), "{stdout}");
}

#[test]
fn json_report_is_well_formed() {
    let (code, stdout) = pass_exit("hotlint", &fixture("hotclean"), true);
    assert_eq!(code, 0, "stdout:\n{stdout}");
    // No JSON parser in-tree; assert the structural invariants of the
    // auditable report.
    let line = stdout.trim();
    assert!(line.starts_with("{\"findings\":["), "{line}");
    assert!(line.ends_with('}'), "{line}");
    assert!(line.contains("\"suppressed\":["));
    assert!(line.contains("\"files\":"));
    assert!(line.contains("\"functions\":"));
    assert!(line.contains("\"hot_functions\":"));
    assert!(line.contains("\"reason\":"));

    let (code, stdout) = pass_exit("hotlint", &fixture("hotbad"), true);
    assert_eq!(code, 1, "stdout:\n{stdout}");
    assert!(stdout.contains("\"rule\":\"hot-alloc\""), "{stdout}");
}

#[test]
fn workspace_is_hot_clean() {
    // The acceptance gate: the real repo passes its own hot-path
    // allocation analysis with zero unannotated findings.
    let report = run(&repo_root());
    assert!(
        report.findings.is_empty(),
        "workspace hotlint findings:\n{:#?}",
        report.findings
    );
    assert!(report.functions > 100, "scan looks too small to be real");
    assert!(
        report.counter > 20,
        "hot propagation looks too small to be real: {}",
        report.counter
    );
}

#[test]
fn workspace_suppressions_are_audited() {
    let report = run(&repo_root());
    // Every suppression carries a written justification within the pinned
    // budget…
    assert_suppression_budget(&report, 11);
    // …and the deliberate sites stay visible, not silently absent: the
    // convenience wrappers around the scratch-threaded entry points and
    // the in-memory `impl Write` varint sink.
    assert!(
        report
            .suppressed
            .iter()
            .any(|s| s.path.starts_with("crates/core/") && s.rule == hotlint::HOT_SCRATCH),
        "expected the audited wrapper suppressions:\n{:#?}",
        report.suppressed
    );
    assert!(
        report
            .suppressed
            .iter()
            .any(|s| s.path.starts_with("crates/io/") && s.rule == hotlint::HOT_BLOCKING),
        "expected the audited varint `impl Write` suppression:\n{:#?}",
        report.suppressed
    );
}
