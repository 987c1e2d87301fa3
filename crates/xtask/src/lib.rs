#![warn(missing_docs)]
#![expect(clippy::disallowed_methods, reason = "sources; files torn on purpose")]

//! Workspace automation for the ssjoin repo.
//!
//! Four subcommands:
//!
//! * `cargo xtask difftest` — deterministic differential testing of every
//!   signature scheme against the naive oracle on seeded adversarial
//!   workloads (see [`difftest`] and DESIGN.md §5d);
//! * `cargo xtask crashtest` — crash-fault injection against the durable
//!   store: seeded workloads, adversarial WAL/snapshot mutations, recovery
//!   differentially compared with an in-memory oracle (see [`crashtest`]
//!   and DESIGN.md §5e).
//!
//! The line-level rules (no panics in library code, no default hasher, no
//! `std::sync` locks, no narrowing or float-rounding casts in `ssj-core`,
//! crate hygiene, durable state only through `ssj_io::fs::publish_durable`)
//! are compiler lints, configured in the workspace `Cargo.toml`,
//! `clippy.toml` and the crate roots; see DESIGN.md, "Static analysis &
//! invariants", and `tests/lint_config.rs`.
//!
//! The two interprocedural passes run on one engine ([`engine`]: one
//! table-driven extractor, one driver, one report, in-source suppression
//! annotations) over the shared name-union call graph ([`callgraph`]):
//!
//! * `cargo xtask locklint` — lock-order and blocking-under-lock analysis
//!   over the concurrent subsystem, paired with the runtime witness in
//!   `ssj_core::lockwitness` (see [`locklint`] and DESIGN.md §5f);
//! * `cargo xtask hotlint` — hot-path allocation/copy analysis, paired
//!   with the counting-allocator witness (see [`hotlint`] and DESIGN.md
//!   §5g).

pub mod callgraph;
pub mod crashtest;
pub mod difftest;
pub mod engine;
pub mod hotlint;
pub mod locklint;
pub mod scan;

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rule id (`lock-order`, `hot-alloc`, …).
    pub rule: &'static str,
    /// Repo-relative path of the offending file.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Explanation and suggested fix.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// Engine failure: a filesystem problem while walking or reading sources.
#[derive(Debug)]
pub enum LintError {
    /// The path and the error reading it.
    Io(PathBuf, io::Error),
}

impl fmt::Display for LintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(path, err) => write!(f, "{}: {err}", path.display()),
        }
    }
}

impl std::error::Error for LintError {}

/// Recursively collects `.rs` files under `dir`, sorted for determinism.
pub fn rs_files(dir: &Path) -> Result<Vec<PathBuf>, LintError> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let entries = fs::read_dir(&d).map_err(|e| LintError::Io(d.clone(), e))?;
        for entry in entries {
            let entry = entry.map_err(|e| LintError::Io(d.clone(), e))?;
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

fn read(path: &Path) -> Result<String, LintError> {
    fs::read_to_string(path).map_err(|e| LintError::Io(path.to_path_buf(), e))
}

/// `path` relative to `root`, with `/` separators.
fn rel(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Walks upward from `start` to the workspace root (the first directory
/// whose `Cargo.toml` declares `[workspace]`).
pub fn find_repo_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}
