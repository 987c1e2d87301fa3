//! Runtime crash-consistency witness: fs-event ordering assertions.
//!
//! The durable layers (`ssj-store` snapshot segments, the meta file and
//! batch-join input segments, `ssj-cluster` topology and replica
//! snapshots) all rely on one protocol to survive a crash at any
//! instant:
//!
//! > stage to a `*.tmp` sibling → `sync_all` the staged file →
//! > `rename` over the final name → `sync_all` the parent directory.
//!
//! `clippy.toml`'s `disallowed-methods` keeps the protocol in one
//! function (DESIGN.md §5k); this module checks that it runs in order,
//! mirroring `ssj_core::lockwitness`: the one publisher,
//! [`crate::fs::publish_durable`], reports each
//! create/write/fsync/rename/dirsync event here, and in debug builds —
//! or with the `fs-witness` feature — two orderings are asserted as the
//! events arrive:
//!
//! 1. **fsync-before-rename** — a path may only be renamed if `sync_all`
//!    landed after its last write, checked at [`note_rename`]. Renaming
//!    a dirty file lets a crash publish the *name* before the *bytes*:
//!    recovery then reads a torn file through the final name, which the
//!    CRC framing detects but cannot undo.
//! 2. **dirsync-after-rename** — every rename leaves its parent
//!    directory owing a `sync_all` before the operation is acknowledged
//!    as durable; suites assert the debt is paid with
//!    [`assert_dir_settled`] at their durability points.
//!
//! Violations report a replayable bounded event trace (the most recent
//! [`TRACE_CAP`](self) events, process-wide). State is global — the file
//! protocol spans threads, unlike lock ownership — and keyed per path /
//! per directory, so parallel tests on disjoint temp dirs don't observe
//! each other's pending debts.
//!
//! In release builds without the `fs-witness` feature every entry point
//! is an empty inline function: the instrumented layer costs nothing.

use std::path::Path;

/// Whether the witness is actively recording events in this build.
pub const fn witness_active() -> bool {
    cfg!(any(debug_assertions, feature = "fs-witness"))
}

#[cfg(any(debug_assertions, feature = "fs-witness"))]
mod active {
    use parking_lot::Mutex;
    use std::collections::{BTreeMap, BTreeSet};
    use std::path::{Path, PathBuf};

    /// Retained trace events, process-wide (enough to replay the recent
    /// history leading up to a violation).
    const TRACE_CAP: usize = 256;

    /// Where a staged file stands in the durable-write protocol.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum FileState {
        /// Written since the last `sync_all`: renaming now would let a
        /// crash publish the name before the bytes.
        Dirty,
        /// `sync_all` landed after the last write; rename is safe.
        Synced,
    }

    struct State {
        /// In-flight staged files (entries retire at rename, so the map
        /// only ever holds the handful of writes currently mid-protocol).
        files: BTreeMap<PathBuf, FileState>,
        /// Directories owing a `sync_all` for a rename already made.
        pending_dirs: BTreeSet<PathBuf>,
        trace: Vec<String>,
    }

    static STATE: Mutex<State> = Mutex::new(State {
        files: BTreeMap::new(),
        pending_dirs: BTreeSet::new(),
        trace: Vec::new(),
    });

    fn record(s: &mut State, line: String) {
        if s.trace.len() == TRACE_CAP {
            s.trace.remove(0);
        }
        s.trace.push(line);
    }

    pub fn note_create(path: &Path) {
        let mut s = STATE.lock();
        record(&mut s, format!("create {}", path.display()));
        s.files.insert(path.to_path_buf(), FileState::Dirty);
    }

    pub fn note_write(path: &Path) {
        let mut s = STATE.lock();
        record(&mut s, format!("write {}", path.display()));
        s.files.insert(path.to_path_buf(), FileState::Dirty);
    }

    pub fn note_sync_file(path: &Path) {
        let mut s = STATE.lock();
        record(&mut s, format!("fsync {}", path.display()));
        s.files.insert(path.to_path_buf(), FileState::Synced);
    }

    pub fn note_rename(from: &Path, to: &Path) {
        let mut s = STATE.lock();
        record(
            &mut s,
            format!("rename {} -> {}", from.display(), to.display()),
        );
        let fsynced = s.files.remove(from) != Some(FileState::Dirty);
        if !fsynced {
            let trace = s.trace.join("\n  ");
            // `assert!` is the sanctioned invariant mechanism (lint rule
            // `no-panic` exempts it); the message carries the replayable
            // process-wide event trace.
            assert!(
                fsynced,
                "fs-order violation: rename {} -> {} without a file fsync after \
                 the last write (a crash can publish the name before the bytes)\n\
                 event trace (oldest first):\n  {trace}",
                from.display(),
                to.display(),
            );
        }
        // The renamed file's own protocol is complete; what remains owed
        // is the directory entry.
        s.files.remove(to);
        s.pending_dirs.insert(super::owning_dir(to));
    }

    pub fn note_sync_dir(dir: &Path) {
        let mut s = STATE.lock();
        record(&mut s, format!("dirsync {}", dir.display()));
        s.pending_dirs.remove(dir);
    }

    pub fn assert_dir_settled(dir: &Path) {
        let s = STATE.lock();
        let settled = !s.pending_dirs.contains(dir);
        if !settled {
            let trace = s.trace.join("\n  ");
            assert!(
                settled,
                "fs-order violation: directory {} holds a rename not yet followed \
                 by a directory fsync (the entry is not durable)\n\
                 event trace (oldest first):\n  {trace}",
                dir.display(),
            );
        }
    }

    pub fn pending_dir_syncs() -> Vec<String> {
        let s = STATE.lock();
        s.pending_dirs
            .iter()
            .map(|d| d.display().to_string())
            .collect()
    }

    pub fn trace() -> Vec<String> {
        STATE.lock().trace.clone()
    }
}

/// The directory whose entry table publishes `path`'s name (`.` for bare
/// file names), the key under which dir-fsync debts are tracked.
#[cfg(any(debug_assertions, feature = "fs-witness", test))]
fn owning_dir(path: &Path) -> std::path::PathBuf {
    match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => std::path::PathBuf::from("."),
    }
}

/// Records a staged-file creation (no-op when the witness is compiled
/// out).
pub fn note_create(path: &Path) {
    #[cfg(any(debug_assertions, feature = "fs-witness"))]
    active::note_create(path);
    #[cfg(not(any(debug_assertions, feature = "fs-witness")))]
    let _ = path;
}

/// Records a write to a staged file: the path is dirty until the next
/// [`note_sync_file`].
pub fn note_write(path: &Path) {
    #[cfg(any(debug_assertions, feature = "fs-witness"))]
    active::note_write(path);
    #[cfg(not(any(debug_assertions, feature = "fs-witness")))]
    let _ = path;
}

/// Records a `sync_all` on a staged file: the path is clean to rename.
pub fn note_sync_file(path: &Path) {
    #[cfg(any(debug_assertions, feature = "fs-witness"))]
    active::note_sync_file(path);
    #[cfg(not(any(debug_assertions, feature = "fs-witness")))]
    let _ = path;
}

/// Records a rename, asserting fsync-before-rename on `from` and opening
/// a dirsync debt on `to`'s parent directory.
pub fn note_rename(from: &Path, to: &Path) {
    #[cfg(any(debug_assertions, feature = "fs-witness"))]
    active::note_rename(from, to);
    #[cfg(not(any(debug_assertions, feature = "fs-witness")))]
    let _ = (from, to);
}

/// Records a directory `sync_all`, settling the dir's rename debts.
pub fn note_sync_dir(dir: &Path) {
    #[cfg(any(debug_assertions, feature = "fs-witness"))]
    active::note_sync_dir(dir);
    #[cfg(not(any(debug_assertions, feature = "fs-witness")))]
    let _ = dir;
}

/// Asserts `dir` owes no directory fsync for a past rename — call at the
/// point an operation claims durability. No-op when compiled out.
pub fn assert_dir_settled(dir: &Path) {
    #[cfg(any(debug_assertions, feature = "fs-witness"))]
    active::assert_dir_settled(dir);
    #[cfg(not(any(debug_assertions, feature = "fs-witness")))]
    let _ = dir;
}

/// Directories currently owing a dir fsync (empty when the witness is
/// compiled out).
pub fn pending_dir_syncs() -> Vec<String> {
    #[cfg(any(debug_assertions, feature = "fs-witness"))]
    {
        active::pending_dir_syncs()
    }
    #[cfg(not(any(debug_assertions, feature = "fs-witness")))]
    {
        Vec::new()
    }
}

/// The recent process-wide fs-event trace, oldest first (empty when the
/// witness is compiled out).
pub fn trace() -> Vec<String> {
    #[cfg(any(debug_assertions, feature = "fs-witness"))]
    {
        active::trace()
    }
    #[cfg(not(any(debug_assertions, feature = "fs-witness")))]
    {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn scratch(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("ssj-fswitness-{name}-{}", std::process::id()))
    }

    #[test]
    fn full_protocol_settles() {
        if !witness_active() {
            return;
        }
        let dir = scratch("full");
        let tmp = dir.join("a.tmp");
        let dst = dir.join("a.snap");
        note_create(&tmp);
        note_write(&tmp);
        note_sync_file(&tmp);
        note_rename(&tmp, &dst);
        assert!(pending_dir_syncs().iter().any(|d| d.contains("full")));
        note_sync_dir(&dir);
        assert_dir_settled(&dir);
        assert!(!pending_dir_syncs().iter().any(|d| d.contains("full")));
    }

    #[test]
    fn trace_records_protocol_events() {
        if !witness_active() {
            return;
        }
        let dir = scratch("trace");
        let tmp = dir.join("t.tmp");
        note_create(&tmp);
        note_sync_file(&tmp);
        note_rename(&tmp, &dir.join("t.snap"));
        note_sync_dir(&dir);
        let trace = trace();
        for verb in ["create", "fsync", "rename", "dirsync"] {
            assert!(
                trace
                    .iter()
                    .any(|l| l.starts_with(verb) && l.contains("ssj-fswitness-trace")),
                "missing {verb} event"
            );
        }
    }

    #[cfg(any(debug_assertions, feature = "fs-witness"))]
    #[test]
    #[should_panic(expected = "fs-order violation: rename")]
    fn rename_of_dirty_file_panics() {
        let dir = scratch("dirty");
        let tmp = dir.join("d.tmp");
        note_create(&tmp);
        note_write(&tmp);
        note_rename(&tmp, &dir.join("d.snap"));
    }

    #[cfg(any(debug_assertions, feature = "fs-witness"))]
    #[test]
    #[should_panic(expected = "fs-order violation: directory")]
    fn unsettled_dir_panics() {
        let dir = scratch("unsettled");
        let tmp = dir.join("u.tmp");
        note_create(&tmp);
        note_sync_file(&tmp);
        note_rename(&tmp, &dir.join("u.snap"));
        assert_dir_settled(&dir);
    }

    #[test]
    fn owning_dir_of_bare_name_is_dot() {
        assert_eq!(owning_dir(Path::new("meta")), PathBuf::from("."));
        assert_eq!(owning_dir(Path::new("a/meta")), PathBuf::from("a"));
    }
}
