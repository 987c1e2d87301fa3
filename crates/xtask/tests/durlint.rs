//! End-to-end tests for `cargo xtask durlint`: engine-level assertions on
//! the fixture trees, exit-code checks on the compiled binary, and the
//! workspace self-test (the acceptance gate: the real repo's persistence
//! paths pass their own crash-consistency analysis with every suppression
//! justified in writing).

mod common;

use std::path::Path;

use common::{assert_suppression_budget, fixture, pass_exit, repo_root};
use xtask::durlint;
use xtask::engine::{run_pass, Report};

fn run(root: &Path) -> Report {
    run_pass(root, &durlint::PASS).expect("engine runs")
}

#[test]
fn durbad_fixture_trips_every_rule() {
    let report = run(&fixture("durbad"));
    let rules_hit: Vec<&str> = report.findings.iter().map(|v| v.rule).collect();
    for rule in [
        durlint::RENAME_NO_FSYNC,
        durlint::RENAME_NO_DIRSYNC,
        durlint::ACK_BEFORE_SYNC,
        durlint::RAW_DURABLE_WRITE,
        durlint::UNCHECKED_DURABLE_READ,
        durlint::TMP_NO_SWEEP,
        durlint::ANNOTATION_RULE,
    ] {
        assert!(
            rules_hit.contains(&rule),
            "rule {rule} did not fire:\n{:#?}",
            report.findings
        );
    }
    // Nothing was suppressed: the unknown-rule and empty-reason
    // annotations must not count.
    assert!(report.suppressed.is_empty(), "{:#?}", report.suppressed);
}

#[test]
fn durbad_fixture_pinpoints_the_right_sites() {
    let report = run(&fixture("durbad"));
    let at = |path_suffix: &str, rule: &str| -> Vec<usize> {
        report
            .findings
            .iter()
            .filter(|v| v.path.ends_with(path_suffix) && v.rule == rule)
            .map(|v| v.line)
            .collect()
    };

    // The `*.tmp` stage in a crate with no sweep path.
    assert_eq!(at("store/src/lib.rs", durlint::TMP_NO_SWEEP), vec![4]);
    // The in-place create, and the one the malformed annotations fail to
    // suppress.
    assert_eq!(
        at("store/src/lib.rs", durlint::RAW_DURABLE_WRITE),
        vec![5, 18]
    );
    // The rename of a never-fsynced file…
    assert_eq!(at("store/src/lib.rs", durlint::RENAME_NO_FSYNC), vec![7]);
    // …which is also never followed by a directory fsync.
    assert_eq!(at("store/src/lib.rs", durlint::RENAME_NO_DIRSYNC), vec![7]);
    // The unverified recovery read.
    assert_eq!(
        at("store/src/lib.rs", durlint::UNCHECKED_DURABLE_READ),
        vec![12]
    );
    // The unknown-rule and empty-reason annotations.
    assert_eq!(
        at("store/src/lib.rs", durlint::ANNOTATION_RULE),
        vec![16, 17]
    );
    // The durable ack with no path to the WAL sync point.
    assert_eq!(
        at("server/src/service.rs", durlint::ACK_BEFORE_SYNC),
        vec![3]
    );
}

#[test]
fn durclean_fixture_is_clean_with_audited_suppressions() {
    let report = run(&fixture("durclean"));
    assert!(report.findings.is_empty(), "{:#?}", report.findings);
    // The advisory pid file and warm-cache hint are suppressed — with
    // reasons — not silently invisible.
    assert!(
        report.suppressed.len() >= 2,
        "expected audited suppressions, got {:#?}",
        report.suppressed
    );
    assert!(report.suppressed.iter().all(|s| !s.reason.is_empty()));
    let rules: Vec<&str> = report.suppressed.iter().map(|s| s.rule).collect();
    assert!(rules.contains(&durlint::RAW_DURABLE_WRITE), "{rules:?}");
    assert!(
        rules.contains(&durlint::UNCHECKED_DURABLE_READ),
        "{rules:?}"
    );
}

#[test]
fn durbad_exits_one_and_durclean_exits_zero() {
    let (code, stdout) = pass_exit("durlint", &fixture("durbad"), false);
    assert_eq!(code, 1, "stdout:\n{stdout}");
    for rule in [
        "rename-no-fsync",
        "rename-no-dirsync",
        "ack-before-sync",
        "raw-durable-write",
        "unchecked-durable-read",
        "tmp-no-sweep",
        "durlint-annotation",
    ] {
        assert!(stdout.contains(rule), "missing {rule} in:\n{stdout}");
    }

    let (code, stdout) = pass_exit("durlint", &fixture("durclean"), false);
    assert_eq!(code, 0, "stdout:\n{stdout}");
    assert!(stdout.contains("0 finding(s)"), "{stdout}");
}

#[test]
fn json_report_is_well_formed() {
    let (code, stdout) = pass_exit("durlint", &fixture("durclean"), true);
    assert_eq!(code, 0, "stdout:\n{stdout}");
    // No JSON parser in-tree; assert the structural invariants of the
    // auditable report.
    let line = stdout.trim();
    assert!(line.starts_with("{\"findings\":["), "{line}");
    assert!(line.ends_with('}'), "{line}");
    assert!(line.contains("\"suppressed\":["));
    assert!(line.contains("\"files\":"));
    assert!(line.contains("\"functions\":"));
    assert!(line.contains("\"rename_sites\":"));
    assert!(line.contains("\"reason\":"));

    let (code, stdout) = pass_exit("durlint", &fixture("durbad"), true);
    assert_eq!(code, 1, "stdout:\n{stdout}");
    assert!(stdout.contains("\"rule\":\"rename-no-fsync\""), "{stdout}");
}

#[test]
fn workspace_is_dur_clean() {
    // The acceptance gate: the real repo passes its own crash-consistency
    // analysis with zero unannotated findings.
    let report = run(&repo_root());
    assert!(
        report.findings.is_empty(),
        "workspace durlint findings:\n{:#?}",
        report.findings
    );
    assert!(report.functions > 100, "scan looks too small to be real");
    assert_eq!(
        report.counter, 1,
        "every durable file is published by the one `publish_durable` rename"
    );
}

#[test]
fn workspace_suppressions_are_audited() {
    let report = run(&repo_root());
    // Every suppression carries a written justification within the pinned
    // budget…
    assert_suppression_budget(&report, 1);
    // …and the deliberate site stays visible, not silently absent: the
    // spill partitions, swept by the store-side recovery rather than by
    // ssj-extern itself.
    assert!(
        report
            .suppressed
            .iter()
            .any(|s| s.path.starts_with("crates/extern/") && s.rule == durlint::TMP_NO_SWEEP),
        "expected the audited extern staging suppressions:\n{:#?}",
        report.suppressed
    );
}
