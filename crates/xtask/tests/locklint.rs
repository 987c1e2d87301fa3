//! End-to-end tests for `cargo xtask locklint`: engine-level assertions
//! on the fixture trees, exit-code checks on the compiled binary, and the
//! workspace self-test (the acceptance gate: the real repo passes its own
//! lock-discipline analysis with every suppression justified in writing).

mod common;

use std::path::Path;

use common::{assert_suppression_budget, fixture, pass_exit, repo_root};
use xtask::engine::{run_pass, Report};
use xtask::locklint;

fn run(root: &Path) -> Report {
    run_pass(root, &locklint::PASS).expect("engine runs")
}

#[test]
fn lockbad_fixture_trips_every_rule() {
    let report = run(&fixture("lockbad"));
    let rules_hit: Vec<&str> = report.findings.iter().map(|v| v.rule).collect();
    for rule in [
        locklint::LOCK_ORDER,
        locklint::LOCK_ORDER_CYCLE,
        locklint::MULTI_SHARD_ORDER,
        locklint::BLOCKING_UNDER_LOCK,
        locklint::GUARD_LIFETIME,
        locklint::ANNOTATION_RULE,
        locklint::SCOPE_RULE,
    ] {
        assert!(
            rules_hit.contains(&rule),
            "rule {rule} did not fire:\n{:#?}",
            report.findings
        );
    }
    // Nothing was suppressed: the empty-reason annotation must not count.
    assert!(report.suppressed.is_empty(), "{:#?}", report.suppressed);
}

#[test]
fn lockbad_fixture_pinpoints_the_right_sites() {
    let report = run(&fixture("lockbad"));
    let at = |path: &str, rule: &str| -> Vec<usize> {
        report
            .findings
            .iter()
            .filter(|v| v.path.ends_with(path) && v.rule == rule)
            .map(|v| v.line)
            .collect()
    };

    // Iterated shard acquisition inside the for loop.
    assert_eq!(
        at("server/src/service.rs", locklint::MULTI_SHARD_ORDER),
        vec![13, 47],
        "iterate() loop body and the nested acquire in stored()"
    );
    // fsync under a write lock, plus the call-graph-propagated write.
    assert_eq!(
        at("server/src/service.rs", locklint::BLOCKING_UNDER_LOCK),
        vec![21, 56]
    );
    // Shard lock taken while the WAL mutex is held.
    assert_eq!(at("server/src/service.rs", locklint::LOCK_ORDER), vec![29]);
    // Guard pushed into a Vec and wrapped in Some.
    assert_eq!(
        at("server/src/service.rs", locklint::GUARD_LIFETIME),
        vec![46, 47]
    );
    // The wal -> shard edge from inverted() plus shard -> wal from
    // forward() close a class cycle.
    let cycles = at("server/src/service.rs", locklint::LOCK_ORDER_CYCLE);
    assert_eq!(cycles.len(), 1, "{:#?}", report.findings);
    let cycle = report
        .findings
        .iter()
        .find(|v| v.rule == locklint::LOCK_ORDER_CYCLE)
        .expect("cycle finding present");
    assert!(
        cycle.message.contains("shard-index") && cycle.message.contains("store-wal"),
        "{cycle:?}"
    );

    // Annotation hygiene: empty reason (which also fails to suppress the
    // fsync it points at) and an unknown rule name.
    assert_eq!(
        at("store/src/lib.rs", locklint::ANNOTATION_RULE),
        vec![12, 19]
    );
    assert_eq!(
        at("store/src/lib.rs", locklint::BLOCKING_UNDER_LOCK),
        vec![13],
        "an unjustified annotation must not suppress anything"
    );
    // Core carries no annotations, ever.
    assert_eq!(at("core/src/lib.rs", locklint::SCOPE_RULE), vec![4]);
}

#[test]
fn lockclean_fixture_is_clean_with_audited_suppressions() {
    let report = run(&fixture("lockclean"));
    assert!(report.findings.is_empty(), "{:#?}", report.findings);
    // The canonical helper and the WAL-append path are suppressed — with
    // reasons — not silently invisible.
    assert!(
        report.suppressed.len() >= 2,
        "expected audited suppressions, got {:#?}",
        report.suppressed
    );
    assert!(report.suppressed.iter().all(|s| !s.reason.is_empty()));
    let rules: Vec<&str> = report.suppressed.iter().map(|s| s.rule).collect();
    assert!(rules.contains(&locklint::MULTI_SHARD_ORDER));
    assert!(rules.contains(&locklint::BLOCKING_UNDER_LOCK));
}

#[test]
fn lockbad_exits_one_and_lockclean_exits_zero() {
    let (code, stdout) = pass_exit("locklint", &fixture("lockbad"), false);
    assert_eq!(code, 1, "stdout:\n{stdout}");
    for rule in [
        "lock-order",
        "lock-order-cycle",
        "multi-shard-order",
        "blocking-under-lock",
        "guard-lifetime",
        "locklint-annotation",
        "locklint-scope",
    ] {
        assert!(stdout.contains(rule), "missing {rule} in:\n{stdout}");
    }

    let (code, stdout) = pass_exit("locklint", &fixture("lockclean"), false);
    assert_eq!(code, 0, "stdout:\n{stdout}");
    assert!(stdout.contains("0 finding(s)"));
}

#[test]
fn unknown_command_exits_two() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_xtask"))
        .arg("frobnicate")
        .output()
        .expect("xtask binary runs");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn json_report_is_well_formed() {
    let (code, stdout) = pass_exit("locklint", &fixture("lockclean"), true);
    assert_eq!(code, 0, "stdout:\n{stdout}");
    // No JSON parser in-tree; assert the structural invariants of the
    // auditable report.
    let line = stdout.trim();
    assert!(line.starts_with("{\"findings\":["), "{line}");
    assert!(line.ends_with('}'), "{line}");
    assert!(line.contains("\"suppressed\":["));
    assert!(line.contains("\"files\":"));
    assert!(line.contains("\"functions\":"));
    assert!(line.contains("\"reason\":"));

    let (code, stdout) = pass_exit("locklint", &fixture("lockbad"), true);
    assert_eq!(code, 1, "stdout:\n{stdout}");
    assert!(stdout.contains("\"rule\":\"lock-order\""), "{stdout}");
}

#[test]
fn workspace_is_lock_clean() {
    // The acceptance gate: the real repo passes its own lock analysis.
    let report = run(&repo_root());
    assert!(
        report.findings.is_empty(),
        "workspace locklint findings:\n{:#?}",
        report.findings
    );
    assert!(report.functions > 100, "scan looks too small to be real");
}

#[test]
fn workspace_suppressions_are_audited_and_outside_core() {
    let report = run(&repo_root());
    // Every suppression carries a written justification within the pinned
    // budget…
    assert_suppression_budget(&report, 15);
    // …and none lives in ssj-core (zero-allowlist policy).
    assert!(
        report
            .suppressed
            .iter()
            .all(|s| !s.path.starts_with("crates/core/")),
        "{:#?}",
        report.suppressed
    );
    // The deliberate WAL-under-lock sites are visible, not silently absent.
    assert!(
        report
            .suppressed
            .iter()
            .any(|s| s.path.starts_with("crates/store/") && s.rule == "blocking-under-lock"),
        "expected the audited WAL fsync-under-mutex suppressions:\n{:#?}",
        report.suppressed
    );
}
