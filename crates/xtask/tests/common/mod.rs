//! Helpers shared by the `locklint` and `hotlint` end-to-end tests.

use std::path::{Path, PathBuf};
use std::process::Command;

use xtask::engine::Report;

pub fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name)
}

pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/xtask has a workspace two levels up")
        .to_path_buf()
}

/// Runs `cargo xtask <tool> --root <root> [--json]` on the compiled
/// binary: exit code and stdout.
pub fn pass_exit(tool: &str, root: &Path, json: bool) -> (i32, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_xtask"));
    cmd.args([tool, "--root"]).arg(root);
    if json {
        cmd.arg("--json");
    }
    let out = cmd.output().expect("xtask binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    (out.status.code().unwrap_or(-1), stdout)
}

/// Every suppression carries a written justification, and the count is
/// pinned: growing it means adding a justified annotation *and*
/// consciously bumping `budget`.
pub fn assert_suppression_budget(report: &Report, budget: usize) {
    assert!(
        report.suppressed.iter().all(|s| !s.reason.is_empty()),
        "{:#?}",
        report.suppressed
    );
    assert!(
        report.suppressed.len() <= budget,
        "{} suppression count grew to {} (budget {budget}) — audit the new \
         annotations:\n{:#?}",
        report.pass.tool,
        report.suppressed.len(),
        report.suppressed
    );
}
