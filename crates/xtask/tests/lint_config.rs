//! The lint configuration reaches every crate, and no library source
//! lowers it.
//!
//! The repo's line-level rules are compiler lints (DESIGN.md, "Static
//! analysis & invariants"): `[workspace.lints]` in the root `Cargo.toml`,
//! `disallowed-types` in `clippy.toml`, and `deny` attributes at the crate
//! roots they cover. Two things the compiler cannot check are pinned here:
//! a member that does not opt into `[workspace.lints]` silently escapes the
//! crate-hygiene lints, and an `allow`/`expect` of a configured lint in a
//! crate's `src/` is an exemption. The only exemptions are the definition
//! sites listed in [`EXEMPTIONS`].

use std::path::{Path, PathBuf};

use xtask::scan::mask_non_code;

/// Every lint the configuration sets, by the name an attribute uses, and
/// the clippy groups that contain one.
const CONFIGURED: [&str; 15] = [
    "unsafe_code",
    "rust_2018_idioms",
    "clippy::allow_attributes_without_reason",
    "clippy::unwrap_used",
    "clippy::expect_used",
    "clippy::panic",
    "clippy::todo",
    "clippy::disallowed_types",
    "clippy::cast_possible_truncation",
    "clippy::cast_sign_loss",
    "clippy::cast_possible_wrap",
    "clippy::all",
    "clippy::style",
    "clippy::pedantic",
    "clippy::restriction",
];

/// `(file, lint)` for each `allow`/`expect` of a configured lint that may
/// appear under a `src/`: the `FxHashMap`/`FxHashSet` aliases, the one
/// float-to-integer cast, and the `compat/` shim that wraps the
/// `std::sync` locks.
const EXEMPTIONS: [(&str, &str); 5] = [
    ("compat/parking_lot/src/lib.rs", "clippy::disallowed_types"),
    (
        "crates/core/src/cast.rs",
        "clippy::cast_possible_truncation",
    ),
    ("crates/core/src/cast.rs", "clippy::cast_sign_loss"),
    ("crates/core/src/hash.rs", "clippy::disallowed_types"),
    ("crates/core/src/hash.rs", "clippy::disallowed_types"),
];

fn repo_root() -> PathBuf {
    xtask::find_repo_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("xtask lives inside the workspace")
}

/// The workspace's member directories, expanded from the root manifest's
/// `members` globs (`dir/*`), plus the root package itself.
fn members(root: &Path) -> Vec<PathBuf> {
    let manifest = std::fs::read_to_string(root.join("Cargo.toml")).expect("root manifest");
    let line = manifest
        .lines()
        .find(|l| l.trim_start().starts_with("members"))
        .expect("root manifest lists members");
    let mut out = vec![root.to_path_buf()];
    for entry in line.split('"').skip(1).step_by(2) {
        match entry.strip_suffix("/*") {
            Some(parent) => {
                let dirs = std::fs::read_dir(root.join(parent)).expect("member glob dir");
                let mut dirs: Vec<PathBuf> = dirs
                    .map(|e| e.expect("dir entry").path())
                    .filter(|p| p.join("Cargo.toml").is_file())
                    .collect();
                dirs.sort();
                out.extend(dirs);
            }
            None => out.push(root.join(entry)),
        }
    }
    out
}

/// Every `lint` named by an `allow(…)`/`expect(…)` attribute in `source`,
/// with comments and string literals masked out first.
fn lowered_lints(source: &str) -> Vec<String> {
    let masked = mask_non_code(source);
    let mut out = Vec::new();
    let mut rest = masked.as_str();
    while let Some(at) = rest.find('#') {
        rest = &rest[at + 1..];
        let body = rest.trim_start_matches(['!', ' ']);
        if !body.starts_with('[') {
            continue;
        }
        // The attribute runs to its matching `]`.
        let mut depth = 0usize;
        let end = body
            .char_indices()
            .find(|&(_, c)| {
                depth = match c {
                    '[' => depth + 1,
                    ']' => depth - 1,
                    _ => depth,
                };
                depth == 0
            })
            .map_or(body.len(), |(i, _)| i);
        let words: Vec<&str> = body[..end]
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == ':'))
            .filter(|w| !w.is_empty())
            .collect();
        if words.iter().any(|&w| w == "allow" || w == "expect") {
            out.extend(
                words
                    .iter()
                    .filter(|w| CONFIGURED.contains(w))
                    .map(|w| w.to_string()),
            );
        }
    }
    out
}

#[test]
fn every_member_inherits_the_workspace_lints() {
    let root = repo_root();
    let members = members(&root);
    assert!(members.len() > 10, "member discovery found {members:?}");
    for dir in members {
        let manifest = std::fs::read_to_string(dir.join("Cargo.toml")).expect("member manifest");
        let mut lines = manifest.lines().map(str::trim).filter(|l| !l.is_empty());
        let inherits = lines.any(|l| l == "[lints]") && lines.next() == Some("workspace = true");
        assert!(
            inherits,
            "{} lacks `[lints] workspace = true`",
            dir.join("Cargo.toml").display()
        );
    }
}

#[test]
fn no_library_source_lowers_a_configured_lint() {
    let root = repo_root();
    let mut found = Vec::new();
    for dir in members(&root) {
        let src = dir.join("src");
        if !src.is_dir() {
            continue;
        }
        for file in xtask::rs_files(&src).expect("src walk") {
            let text = std::fs::read_to_string(&file).expect("source reads");
            let rel = file.strip_prefix(&root).expect("under root");
            let rel = rel.to_string_lossy().replace('\\', "/");
            found.extend(lowered_lints(&text).into_iter().map(|l| (rel.clone(), l)));
        }
    }
    found.sort();
    let expected: Vec<(String, String)> = EXEMPTIONS
        .iter()
        .map(|&(f, l)| (f.to_string(), l.to_string()))
        .collect();
    assert_eq!(
        found, expected,
        "an allow/expect of a configured lint under src/ must be one of the \
         named definition sites"
    );
}
