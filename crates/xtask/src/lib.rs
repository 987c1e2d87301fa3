#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![warn(missing_docs)]

//! Workspace automation for the ssjoin repo.
//!
//! Six subcommands:
//!
//! * `cargo xtask difftest` — deterministic differential testing of every
//!   signature scheme against the naive oracle on seeded adversarial
//!   workloads (see [`difftest`] and DESIGN.md §5d);
//! * `cargo xtask crashtest` — crash-fault injection against the durable
//!   store: seeded workloads, adversarial WAL/snapshot mutations, recovery
//!   differentially compared with an in-memory oracle (see [`crashtest`]
//!   and DESIGN.md §5e);
//! * `cargo xtask lint` — a dependency-free, source-level static-analysis
//!   pass enforcing the repo's invariants that rustc and clippy cannot see
//!   (see `DESIGN.md`, "Static analysis & invariants"). Rules:
//!
//! | id                | scope                                   | forbids |
//! |-------------------|-----------------------------------------|---------|
//! | `no-panic`        | lib crates (+cli/bench via allowlist)   | `.unwrap()` / `.expect(` / `panic!` / `todo!` outside tests |
//! | `default-hasher`  | hot-path modules                        | bare `HashMap`/`HashSet` (use `FxHashMap`/`FxHashSet`) |
//! | `crate-hygiene`   | every crate root                        | missing `#![forbid(unsafe_code)]` / `#![deny(rust_2018_idioms)]` |
//! | `narrowing-cast`  | ssj-core                                | bare `as` narrowing casts on id-sized ints |
//! | `std-sync-lock`   | every workspace crate                   | `std::sync::Mutex`/`RwLock` (use `parking_lot` so the lock witness can wrap them) |
//! | `float-round-cast`| ssj-core                                | raw `.ceil()/.floor()/.round() as <int>` (use `ceil_tol`/`floor_tol` — float noise at integer boundaries shifts candidate-generation bounds by one) |
//! | `allowlist-scope` | the allowlist itself                    | entries exempting ssj-core, ssj-serve, or ssj-store |
//!
//! Suppressions live in `crates/xtask/lint_allow.toml`.
//!
//! The three interprocedural passes run on one engine ([`engine`]: one
//! table-driven extractor, one driver, one report, in-source suppression
//! annotations instead of allowlist entries) over the shared name-union
//! call graph ([`callgraph`]):
//!
//! * `cargo xtask locklint` — lock-order and blocking-under-lock analysis
//!   over the concurrent subsystem, paired with the runtime witness in
//!   `ssj_core::lockwitness` (see [`locklint`] and DESIGN.md §5f);
//! * `cargo xtask hotlint` — hot-path allocation/copy analysis, paired
//!   with the counting-allocator witness (see [`hotlint`] and DESIGN.md
//!   §5g);
//! * `cargo xtask durlint` — crash-consistency protocol analysis (fsync
//!   before rename, directory fsync after, ack-implies-WAL-sync, staged
//!   tmp sweeps), paired with the runtime fs-order witness in
//!   `ssj_io::fswitness` (see [`durlint`] and DESIGN.md §5k).

pub mod allowlist;
pub mod callgraph;
pub mod crashtest;
pub mod difftest;
pub mod durlint;
pub mod engine;
pub mod hotlint;
pub mod locklint;
pub mod rules;
pub mod scan;

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use allowlist::Allowlist;

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rule id (`no-panic`, `default-hasher`, …).
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

/// Engine failure (I/O or a malformed allowlist).
#[derive(Debug)]
pub enum LintError {
    /// Filesystem problem while walking or reading sources.
    Io(PathBuf, io::Error),
    /// `lint_allow.toml` failed to parse.
    Allowlist(allowlist::ParseError),
}

impl fmt::Display for LintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(path, err) => write!(f, "{}: {err}", path.display()),
            Self::Allowlist(err) => write!(f, "{err}"),
        }
    }
}

impl std::error::Error for LintError {}

/// Crates whose library source falls under the `no-panic` rule.
///
/// `cli` and `bench` are scanned too, but ship with allowlist entries —
/// the ISSUE-level policy is "library crates must not panic; binaries may,
/// with a recorded reason". None of `ssj-core`, `ssj-serve`, or
/// `ssj-store` may ever appear in the allowlist.
const NO_PANIC_DIRS: [&str; 11] = [
    "crates/core/src",
    "crates/baselines/src",
    "crates/io/src",
    "crates/text/src",
    "crates/minidb/src",
    "crates/cli/src",
    "crates/bench/src",
    "crates/server/src",
    "crates/store/src",
    "crates/extern/src",
    "crates/cluster/src",
];

/// Hot-path modules where default hashers are banned (`default-hasher`).
const HOT_PATH_FILES: [&str; 5] = [
    "crates/core/src/index.rs",
    "crates/core/src/join.rs",
    "crates/baselines/src/prefix_filter.rs",
    "crates/baselines/src/probe_count.rs",
    "crates/server/src/service.rs",
];

/// Directories holding crate roots for the `crate-hygiene` rule: the
/// umbrella package plus every `crates/*` and `compat/*` member.
const CRATE_ROOT_PARENTS: [&str; 2] = ["crates", "compat"];

/// Directory scanned by the `narrowing-cast` rule.
const CORE_SRC: &str = "crates/core/src";

/// Repo-relative location of the allowlist.
pub const ALLOWLIST_PATH: &str = "crates/xtask/lint_allow.toml";

/// Recursively collects `.rs` files under `dir`, sorted for determinism.
fn rs_files(dir: &Path) -> Result<Vec<PathBuf>, LintError> {
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

/// Runs every rule over the workspace at `root` and returns the surviving
/// (non-allowlisted) violations, sorted by path then line.
pub fn run_lint(root: &Path) -> Result<Vec<Violation>, LintError> {
    let allow = load_allowlist(root)?;
    let mut violations = Vec::new();

    // Guard: the allowlist must not carve holes in ssj-core, ssj-serve, or
    // ssj-store (the serving and persistence layers were added with a
    // zero-exemption policy — a panic in the store is a durability bug).
    for entry in &allow.entries {
        for (dir, name) in [
            ("crates/core", "ssj-core"),
            ("crates/server", "ssj-serve"),
            ("crates/store", "ssj-store"),
            ("crates/extern", "ssj-extern"),
            ("crates/cluster", "ssj-cluster"),
        ] {
            if entry.path.starts_with(dir) {
                violations.push(Violation {
                    rule: rules::ALLOWLIST_SCOPE,
                    path: ALLOWLIST_PATH.to_string(),
                    line: 1,
                    message: format!(
                        "allowlist entry `{}` exempts {name}; {name} must satisfy \
                         every rule outright",
                        entry.path
                    ),
                });
            }
        }
    }

    // L1: no-panic over library source trees.
    for dir in NO_PANIC_DIRS {
        let abs = root.join(dir);
        if !abs.is_dir() {
            continue;
        }
        for file in rs_files(&abs)? {
            let relpath = rel(root, &file);
            let lines = scan::rule_lines(&read(&file)?);
            violations.extend(rules::check_no_panic(&relpath, &lines));
        }
    }

    // L2: default hashers in hot-path modules.
    for relpath in HOT_PATH_FILES {
        let abs = root.join(relpath);
        if !abs.is_file() {
            continue;
        }
        let lines = scan::rule_lines(&read(&abs)?);
        violations.extend(rules::check_default_hasher(relpath, &lines));
    }

    // L3: hygiene attributes on every crate root.
    for lib in crate_roots(root)? {
        let relpath = rel(root, &lib);
        let masked = scan::mask_non_code(&read(&lib)?);
        violations.extend(rules::check_crate_hygiene(&relpath, &masked));
    }

    // L4 + L6: narrowing casts and raw float-rounding casts in ssj-core.
    let core = root.join(CORE_SRC);
    if core.is_dir() {
        for file in rs_files(&core)? {
            let relpath = rel(root, &file);
            let lines = scan::rule_lines(&read(&file)?);
            violations.extend(rules::check_narrowing_cast(&relpath, &lines));
            violations.extend(rules::check_float_round_cast(&relpath, &lines));
        }
    }

    // L5: std::sync locks anywhere under crates/ (compat/ is exempt by
    // construction — the parking_lot shim there wraps std::sync, which is
    // exactly the one place that's supposed to).
    for src in crate_src_dirs(root)? {
        for file in rs_files(&src)? {
            let relpath = rel(root, &file);
            let lines = scan::rule_lines(&read(&file)?);
            violations.extend(rules::check_std_sync(&relpath, &lines));
        }
    }

    violations.retain(|v| !allow.permits(v.rule, &v.path));
    violations.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    Ok(violations)
}

/// Loads `crates/xtask/lint_allow.toml`; absent file means no suppressions.
pub fn load_allowlist(root: &Path) -> Result<Allowlist, LintError> {
    let path = root.join(ALLOWLIST_PATH);
    if !path.is_file() {
        return Ok(Allowlist::default());
    }
    Allowlist::parse(&read(&path)?).map_err(LintError::Allowlist)
}

/// Every `crates/<member>/src` directory, sorted (for the L5 scan).
fn crate_src_dirs(root: &Path) -> Result<Vec<PathBuf>, LintError> {
    let mut out = Vec::new();
    let dir = root.join("crates");
    if !dir.is_dir() {
        return Ok(out);
    }
    let entries = fs::read_dir(&dir).map_err(|e| LintError::Io(dir.clone(), e))?;
    for entry in entries {
        let entry = entry.map_err(|e| LintError::Io(dir.clone(), e))?;
        let src = entry.path().join("src");
        if src.is_dir() {
            out.push(src);
        }
    }
    out.sort();
    Ok(out)
}

/// Every crate-root `lib.rs` in the workspace: `src/lib.rs` of the umbrella
/// package plus `<parent>/<member>/src/lib.rs` for crates/ and compat/.
fn crate_roots(root: &Path) -> Result<Vec<PathBuf>, LintError> {
    let mut out = Vec::new();
    let umbrella = root.join("src/lib.rs");
    if umbrella.is_file() {
        out.push(umbrella);
    }
    for parent in CRATE_ROOT_PARENTS {
        let dir = root.join(parent);
        if !dir.is_dir() {
            continue;
        }
        let entries = fs::read_dir(&dir).map_err(|e| LintError::Io(dir.clone(), e))?;
        for entry in entries {
            let entry = entry.map_err(|e| LintError::Io(dir.clone(), e))?;
            let lib = entry.path().join("src/lib.rs");
            if lib.is_file() {
                out.push(lib);
            }
        }
    }
    out.sort();
    Ok(out)
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

#[cfg(test)]
mod tests {
    use super::*;

    /// `run_lint` skips registry entries that do not exist, so a renamed or
    /// deleted file would silently drop out of its rule; pin them here.
    #[test]
    fn registries_name_paths_that_exist() {
        let root = find_repo_root(Path::new(env!("CARGO_MANIFEST_DIR")))
            .expect("xtask lives inside the workspace");
        for file in HOT_PATH_FILES {
            assert!(root.join(file).is_file(), "HOT_PATH_FILES: {file} missing");
        }
        for dir in NO_PANIC_DIRS {
            assert!(root.join(dir).is_dir(), "NO_PANIC_DIRS: {dir} missing");
        }
    }
}
