//! `cargo xtask durlint` — crash-consistency protocol static analysis
//! (DESIGN.md §5k).
//!
//! Every durable artifact in the workspace (snapshots, the meta file, the
//! cluster manifest, sealed segments) is published by the same protocol:
//! write to a `*.tmp` staging name, fsync the file, rename over the final
//! name, fsync the directory. Skipping any step is invisible to every
//! test that doesn't cut power — and is exactly the class of bug the
//! paper's recovery guarantees cannot survive. This pass extracts
//! filesystem protocol events per function through the shared engine
//! ([`crate::engine`]) and evaluates ordering rules over the shared
//! name-union call graph ([`crate::callgraph`]):
//!
//! | id                      | finding |
//! |-------------------------|---------|
//! | `rename-no-fsync`       | a rename publishes a file that was written but never fsynced on some path — a crash can expose the name without the bytes |
//! | `rename-no-dirsync`     | a function renames but returns without a directory fsync (or a call that may perform one) — the new entry is not durable |
//! | `ack-before-sync`       | a `durable_seq`-acking entry point (`insert_d`, …) has no path to the WAL sync point (`ensure_durable`) |
//! | `raw-durable-write`     | `File::create(` / `fs::write(` in a durable-state crate (`DURABLE_DIRS`); durable artifacts must go through `ssj_io::fs::atomic_write_durable` or staged tmp + rename |
//! | `unchecked-durable-read`| `fs::read(` / `fs::read_to_string(` of durable state in a function with no integrity verification (`crc32`, `FrameReader`, …) on any path |
//! | `tmp-no-sweep`          | a crate stages `*.tmp` files but no code in it defines or calls a sweep helper (`sweep_tmp_files` / `clean_tmp_files`) — a crash mid-publish leaves litter forever |
//! | `durlint-annotation`    | malformed suppression annotation (unknown rule or empty justification) |
//! | `durlint-scope`         | annotation inside `crates/core` (zero-allowlist policy: core has no business doing file I/O at all) |
//!
//! The table ([`PASS`]) maps `fs::`/`File::` path calls ([`DUR_PATHS`]),
//! sync/write/verify tokens and the composite helpers ([`DUR_TOKENS`])
//! onto events. Calls to the canonical helpers `atomic_write_durable` /
//! `persist_shipped_snapshot` are opaque, *not* calls: the helper performs
//! the whole tmp → fsync → rename → dir-fsync protocol internally, so the
//! call site neither creates nor satisfies any ordering obligation (as an
//! ordinary call, name-union resolution of the helper's internal
//! `sync_all` would spuriously settle unrelated dirty files in the
//! caller). Deliberate violations carry the engine's in-source annotation
//! (`// durlint: allow(rename-no-dirsync[, fn]): reason…`).
//!
//! The static pass is paired with a runtime witness
//! (`ssj_io::fswitness`): the canonical file helpers report every
//! create/write/fsync/rename to a global order tracker that panics (under
//! `debug_assertions` or the `fs-witness` feature) the moment a rename
//! publishes a dirty file or a directory entry is left unsynced — the
//! same two-layer static + runtime design as locklint's lock witness and
//! hotlint's allocation witness.

use crate::callgraph::FnKey;
use crate::engine::{call_graph, each_fn, Analysis, Event, FileExtract, Kind, Pass, Table};
use crate::hotlint::CALL_CUT;
use crate::Violation;
use std::collections::{BTreeMap, BTreeSet};

/// Rule id: rename of a file with no fsync since its last write.
pub const RENAME_NO_FSYNC: &str = "rename-no-fsync";
/// Rule id: function renames but never fsyncs the directory.
pub const RENAME_NO_DIRSYNC: &str = "rename-no-dirsync";
/// Rule id: durable-ack entry point with no path to the WAL sync point.
pub const ACK_BEFORE_SYNC: &str = "ack-before-sync";
/// Rule id: raw in-place write in a durable-state crate.
pub const RAW_DURABLE_WRITE: &str = "raw-durable-write";
/// Rule id: durable-state read with no integrity verification.
pub const UNCHECKED_DURABLE_READ: &str = "unchecked-durable-read";
/// Rule id: crate stages `*.tmp` files but never sweeps stale ones.
pub const TMP_NO_SWEEP: &str = "tmp-no-sweep";
/// Rule id: malformed `// durlint: allow(…)` annotation.
pub const ANNOTATION_RULE: &str = "durlint-annotation";
/// Rule id: annotation inside `crates/core` (zero-allowlist policy).
pub const SCOPE_RULE: &str = "durlint-scope";

/// The analysis rules an annotation may suppress.
pub const SUPPRESSIBLE_RULES: [&str; 6] = [
    RENAME_NO_FSYNC,
    RENAME_NO_DIRSYNC,
    ACK_BEFORE_SYNC,
    RAW_DURABLE_WRITE,
    UNCHECKED_DURABLE_READ,
    TMP_NO_SWEEP,
];

/// Directory-fsync helper names: a call to one settles every rename the
/// calling function has pending.
pub const SYNC_DIR_FNS: [&str; 1] = ["sync_dir"];

/// Stale-staging sweep helper names (defining *or* calling one gives the
/// crate its sweep path for `tmp-no-sweep`).
pub const SWEEP_FNS: [&str; 2] = ["sweep_tmp_files", "clean_tmp_files"];

/// Entry points that acknowledge `durable_seq` to clients. Each must
/// reach the WAL sync point ([`WAL_SYNC_FNS`]) on some call path.
pub const ACK_FNS: [&str; 3] = ["insert_d", "remove_d", "query_insert_d"];

/// The WAL sync point: functions of these names seed `may_reach_sync`.
pub const WAL_SYNC_FNS: [&str; 1] = ["ensure_durable"];

/// Raw-source markers of a `*.tmp` staging site (string literals are
/// blanked by masking, so these are matched on raw lines — see
/// [`FileExtract::tmp_lines`]).
pub const TMP_MARKERS: &[&str] = &[".tmp\"", "with_extension(\"tmp\")"];

/// Crates whose on-disk state must survive a crash: raw writes and
/// unverified reads of durable artifacts are findings here (and only
/// here — `ssj-io` owns the helpers themselves, `ssj-serve` holds no
/// files of its own).
pub const DURABLE_DIRS: [&str; 3] = [
    "crates/store/src",
    "crates/extern/src",
    "crates/cluster/src",
];

/// Filesystem tokens: method chains, then bare calls (also matched as the
/// `name` of an `fs::name(` path call). The composite helpers that
/// perform the whole staged-publish protocol are [`Kind::Opaque`]: they
/// neither dirty nor settle anything in the *caller*.
pub const DUR_TOKENS: &[(&str, Kind)] = &[
    (".sync_all(", Kind::SyncFile),
    (".sync_data(", Kind::SyncFile),
    (".write_all(", Kind::Write),
    (".write_vectored(", Kind::Write),
    (".next_frame(", Kind::Verify),
    ("atomic_write_durable", Kind::Opaque),
    ("persist_shipped_snapshot", Kind::Opaque),
    ("sync_dir", Kind::SyncDir), // = SYNC_DIR_FNS
    ("crc32", Kind::Verify),
    ("read_single", Kind::Verify),
    // = SWEEP_FNS, kept as calls under an `fs::` path for `tmp-no-sweep`.
    ("sweep_tmp_files", Kind::Call),
    ("clean_tmp_files", Kind::Call),
];

/// `fs::rename(` / `fs::write(` / `fs::read(` / `File::create(`, matched
/// at the path segment, so `std::fs::rename(` works too. The whole
/// `::name(` suffix of an `fs`/`File` path is consumed either way, so
/// neither `fs::create_dir_all(` nor `File::open(` leaves a stray call.
pub const DUR_PATHS: &[(&str, &str, Kind)] = &[
    ("File", "create", Kind::Create),
    ("fs", "rename", Kind::Rename),
    ("fs", "write", Kind::Create),
    ("fs", "read", Kind::Read),
    ("fs", "read_to_string", Kind::Read),
];

/// Dotted method names cut from call resolution *in addition to*
/// hotlint's [`CALL_CUT`]: `OpenOptions::new()….open(` and
/// `BufWriter::flush()` would otherwise resolve onto `Store::open` /
/// `Store::flush` by name union and import their sync summaries into
/// unrelated callers.
pub const DUR_CALL_CUT: &[&str] = &["open", "flush"];

/// The durlint pass.
pub static PASS: Pass = Pass {
    tool: "durlint",
    rules: &SUPPRESSIBLE_RULES,
    annotation_rule: ANNOTATION_RULE,
    core_ban: Some((
        SCOPE_RULE,
        "core holds no durable state and must not do file I/O — move the persistence out of core",
    )),
    table: Table {
        tokens: &[DUR_TOKENS],
        ctors: &[],
        macros: &[],
        // Any framed reader means the bytes go through CRC checking.
        words: &[("FrameReader", Kind::Verify)],
        paths: DUR_PATHS,
        call_cut: &[CALL_CUT, DUR_CALL_CUT],
        releases: false,
        cut_ctor_names: true,
        tmp_markers: TMP_MARKERS,
    },
    analyze,
    counter: Some(("rename_sites", "rename site(s)")),
};

/// Whether `path` lives in a durable-state crate.
fn in_durable_dir(path: &str) -> bool {
    DURABLE_DIRS.iter().any(|d| path.starts_with(d))
}

/// The crate grouping key of a scanned path (`crates/<name>`).
fn crate_of(path: &str) -> &str {
    let mut end = 0;
    for (i, c) in path.char_indices() {
        if c == '/' {
            end += 1;
            if end == 2 {
                return &path[..i];
            }
        }
    }
    path
}

/// What a function may do on some path through it, propagated
/// callee→caller to a fixpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Summary {
    /// Fsyncs a file.
    sync_file: bool,
    /// Fsyncs a directory.
    sync_dir: bool,
    /// Reaches the WAL sync point.
    reach_sync: bool,
    /// Runs integrity verification.
    verify: bool,
}

/// Summary propagation + per-function protocol replay.
fn analyze(files: &[FileExtract]) -> Analysis {
    let graph = call_graph(files);
    let mut summaries: BTreeMap<FnKey, Summary> = each_fn(files)
        .map(|(key, _, f)| {
            let has = |k: Kind| {
                f.events
                    .iter()
                    .any(|ev| matches!(ev, Event::Token { kind, .. } if *kind == k))
            };
            let summary = Summary {
                sync_file: has(Kind::SyncFile),
                sync_dir: has(Kind::SyncDir) || SYNC_DIR_FNS.contains(&f.name.as_str()),
                reach_sync: WAL_SYNC_FNS.contains(&f.name.as_str()),
                verify: has(Kind::Verify),
            };
            (key, summary)
        })
        .collect();
    graph.fixpoint(&mut summaries, |s, t| {
        s.sync_file |= t.sync_file;
        s.sync_dir |= t.sync_dir;
        s.reach_sync |= t.reach_sync;
        s.verify |= t.verify;
    });

    let mut findings = Vec::new();
    let mut rename_sites = 0usize;

    for (key, file, f) in each_fn(files) {
        let durable = in_durable_dir(&file.path);
        let summary = &summaries[&key];
        let mut flag = |rule, line, message| {
            findings.push(Violation {
                rule,
                path: file.path.clone(),
                line,
                message,
            })
        };
        // Linear protocol replay over the body's event order: track
        // whether the staged file is dirty (written since the last fsync
        // on any path) and which renames still owe a directory fsync when
        // the function returns.
        let mut dirty = false;
        let mut pending_renames: Vec<usize> = Vec::new();
        for ev in &f.events {
            let (kind, what, line) = match ev {
                Event::Token { kind, what, site } => (*kind, what, site.line),
                Event::Call { name, .. } => {
                    let targets = graph.resolve(name);
                    if targets.iter().any(|t| summaries[t].sync_file) {
                        dirty = false;
                    }
                    if targets.iter().any(|t| summaries[t].sync_dir) {
                        pending_renames.clear();
                    }
                    continue;
                }
                _ => continue,
            };
            match kind {
                Kind::Create => {
                    dirty = true;
                    if durable {
                        flag(
                            RAW_DURABLE_WRITE,
                            line,
                            format!(
                                "`{}` writes durable state in place in `{}`; use \
                                 `ssj_io::fs::atomic_write_durable` (or staged \
                                 tmp + fsync + rename + dir fsync) so a crash \
                                 never leaves a torn artifact",
                                what, f.name
                            ),
                        );
                    }
                }
                Kind::Write => dirty = true,
                Kind::SyncFile => dirty = false,
                Kind::Rename => {
                    rename_sites += 1;
                    if dirty {
                        flag(
                            RENAME_NO_FSYNC,
                            line,
                            format!(
                                "`{}` renames a file written since its last fsync \
                                 on some path; a crash can publish the name \
                                 before the bytes — fsync the file first",
                                f.name
                            ),
                        );
                    }
                    dirty = false;
                    pending_renames.push(line);
                }
                Kind::SyncDir => pending_renames.clear(),
                Kind::Read if durable && !summary.verify => flag(
                    UNCHECKED_DURABLE_READ,
                    line,
                    format!(
                        "`{}` reads durable state (`{}`) with no integrity \
                         verification on any path; recovery must treat \
                         on-disk bytes as untrusted (CRC-framed decode)",
                        f.name, what
                    ),
                ),
                // Opaque helpers sync their own file and their own
                // directory; the caller's obligations are untouched.
                _ => {}
            }
        }
        for line in pending_renames {
            flag(
                RENAME_NO_DIRSYNC,
                line,
                format!(
                    "`{}` renames but returns without a directory fsync on any \
                     path; the new directory entry is not durable — call \
                     `ssj_io::fs::sync_dir` after the rename",
                    f.name
                ),
            );
        }

        // Ack entry points must reach the WAL sync point somewhere.
        if ACK_FNS.contains(&f.name.as_str()) && !summary.reach_sync {
            flag(
                ACK_BEFORE_SYNC,
                f.start_line,
                format!(
                    "`{}` acknowledges durable_seq to clients but has no call \
                     path to the WAL sync point ({}); an ack the WAL hasn't \
                     fsynced is a lie after a crash",
                    f.name,
                    WAL_SYNC_FNS.join("/")
                ),
            );
        }
    }

    // tmp-no-sweep: per crate, staging sites require a sweep path.
    let mut crate_tmp: BTreeMap<&str, Vec<(usize, usize)>> = BTreeMap::new();
    let mut crate_sweeps: BTreeSet<&str> = BTreeSet::new();
    for (fi, file) in files.iter().enumerate() {
        let krate = crate_of(&file.path);
        for &line in &file.tmp_lines {
            crate_tmp.entry(krate).or_default().push((fi, line));
        }
        let sweeps = file.fns.iter().any(|f| {
            SWEEP_FNS.contains(&f.name.as_str()) || f.calls().any(|name| SWEEP_FNS.contains(&name))
        });
        if sweeps {
            crate_sweeps.insert(krate);
        }
    }
    for (krate, sites) in crate_tmp {
        if crate_sweeps.contains(krate) {
            continue;
        }
        for (fi, line) in sites {
            findings.push(Violation {
                rule: TMP_NO_SWEEP,
                path: files[fi].path.clone(),
                line,
                message: format!(
                    "`{}` stages `*.tmp` files but nothing in the crate defines or \
                     calls a sweep helper ({}); a crash between create and rename \
                     leaves litter that no recovery path ever removes",
                    krate,
                    SWEEP_FNS.join("/")
                ),
            });
        }
    }

    Analysis {
        findings,
        counter: rename_sites,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::extract_file;

    fn findings_of(path: &str, src: &str) -> Vec<Violation> {
        let files = vec![extract_file(path, src, &PASS)];
        analyze(&files).findings
    }

    #[test]
    fn clean_protocol_has_no_findings() {
        let src = "\
fn publish(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = staged(path);
    let mut f = File::create(&tmp)?;
    f.write_all(bytes)?;
    f.sync_all()?;
    fs::rename(&tmp, path)?;
    sync_dir(path.parent().unwrap())
}
fn sync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}
";
        // Outside DURABLE_DIRS so the File::create staging write is legal.
        let f = findings_of("crates/io/src/lib.rs", src);
        assert!(f.is_empty(), "{f:#?}");
    }

    #[test]
    fn rename_of_unsynced_file_is_flagged() {
        let src = "\
fn publish(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut f = File::create(&tmp)?;
    f.write_all(bytes)?;
    fs::rename(&tmp, path)?;
    sync_dir(dir)
}
fn sync_dir(dir: &Path) -> io::Result<()> { File::open(dir)?.sync_all() }
";
        let f = findings_of("crates/io/src/lib.rs", src);
        assert!(
            f.iter().any(|v| v.rule == RENAME_NO_FSYNC && v.line == 4),
            "{f:#?}"
        );
    }

    #[test]
    fn rename_without_dir_sync_is_flagged_and_interprocedural_sync_clears() {
        let src = "\
fn leaky(path: &Path) -> io::Result<()> {
    fs::rename(&tmp, path)
}
fn covered(path: &Path) -> io::Result<()> {
    fs::rename(&tmp, path)?;
    settle(path)
}
fn settle(path: &Path) -> io::Result<()> {
    sync_dir(path.parent().unwrap())
}
fn sync_dir(dir: &Path) -> io::Result<()> { File::open(dir)?.sync_all() }
";
        let f = findings_of("crates/io/src/lib.rs", src);
        assert!(
            f.iter().any(|v| v.rule == RENAME_NO_DIRSYNC && v.line == 2),
            "{f:#?}"
        );
        assert!(
            !f.iter().any(|v| v.rule == RENAME_NO_DIRSYNC && v.line == 5),
            "settle() may sync the directory — must clear the obligation: {f:#?}"
        );
    }

    #[test]
    fn atomic_helper_calls_are_opaque() {
        // The helper neither settles the caller's dirty file (it syncs its
        // *own* file) nor creates obligations.
        let src = "\
fn publish(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut f = File::create(&tmp)?;
    f.write_all(bytes)?;
    atomic_write_durable(&other, bytes)?;
    fs::rename(&tmp, path)?;
    sync_dir(dir)
}
fn sync_dir(dir: &Path) -> io::Result<()> { File::open(dir)?.sync_all() }
";
        let f = findings_of("crates/io/src/lib.rs", src);
        assert!(
            f.iter().any(|v| v.rule == RENAME_NO_FSYNC && v.line == 5),
            "{f:#?}"
        );
    }

    #[test]
    fn iterator_adapters_are_not_calls() {
        // `.map(` opens a per-item closure; it must not resolve by name to
        // a workspace `fn map` whose fsync would settle the dirty file.
        let src = "\
fn publish(path: &Path, bytes: &[u8], xs: &[u32]) -> io::Result<()> {
    let mut f = File::create(&tmp)?;
    f.write_all(bytes)?;
    let ys: Vec<u32> = xs.iter().map(|x| x + 1).collect();
    fs::rename(&tmp, path)?;
    sync_dir(dir)
}
fn map(f: &File) -> io::Result<()> { f.sync_all() }
fn sync_dir(dir: &Path) -> io::Result<()> { File::open(dir)?.sync_all() }
";
        let f = findings_of("crates/io/src/lib.rs", src);
        let rules: Vec<(&str, usize)> = f.iter().map(|v| (v.rule, v.line)).collect();
        assert_eq!(rules, [(RENAME_NO_FSYNC, 5)], "{f:#?}");
        let renamed = findings_of("crates/io/src/lib.rs", &src.replace("fn map(", "fn remap("));
        assert_eq!(f, renamed);
    }

    #[test]
    fn ack_entry_point_must_reach_wal_sync() {
        let src = "\
fn insert_d(&self, elems: Vec<u32>) -> u64 {
    self.apply(elems)
}
fn remove_d(&self, id: u64) -> bool {
    self.settle(id)
}
fn settle(&self, id: u64) -> bool {
    self.store.ensure_durable(id);
    true
}
fn ensure_durable(&self, seq: u64) {}
";
        let f = findings_of("crates/server/src/service.rs", src);
        assert!(
            f.iter().any(|v| v.rule == ACK_BEFORE_SYNC && v.line == 1),
            "insert_d never reaches ensure_durable: {f:#?}"
        );
        assert!(
            !f.iter().any(|v| v.rule == ACK_BEFORE_SYNC && v.line == 4),
            "remove_d reaches it through settle: {f:#?}"
        );
    }

    #[test]
    fn durable_dir_raw_writes_and_unverified_reads_are_flagged() {
        let src = "\
fn save(path: &Path, bytes: &[u8]) -> io::Result<()> {
    fs::write(path, bytes)
}
fn load(path: &Path) -> io::Result<Vec<u8>> {
    fs::read(path)
}
fn load_checked(path: &Path) -> io::Result<Vec<u8>> {
    let bytes = fs::read(path)?;
    let _ = crc32(&bytes);
    Ok(bytes)
}
";
        let f = findings_of("crates/store/src/lib.rs", src);
        assert!(
            f.iter().any(|v| v.rule == RAW_DURABLE_WRITE && v.line == 2),
            "{f:#?}"
        );
        assert!(
            f.iter()
                .any(|v| v.rule == UNCHECKED_DURABLE_READ && v.line == 5),
            "{f:#?}"
        );
        assert!(
            !f.iter()
                .any(|v| v.rule == UNCHECKED_DURABLE_READ && v.line == 8),
            "crc32 verifies the read: {f:#?}"
        );
    }

    #[test]
    fn tmp_staging_without_sweep_is_flagged_per_crate() {
        let leaky = "\
fn stage(dir: &Path) -> PathBuf {
    dir.join(\"seg.tmp\")
}
";
        let swept = "\
fn stage(dir: &Path) -> PathBuf {
    dir.join(\"seg.tmp\")
}
fn recover(dir: &Path) {
    let _ = sweep_tmp_files(dir);
}
";
        let f = findings_of("crates/extern/src/segment.rs", leaky);
        assert!(
            f.iter().any(|v| v.rule == TMP_NO_SWEEP && v.line == 2),
            "{f:#?}"
        );
        let f = findings_of("crates/extern/src/segment.rs", swept);
        assert!(!f.iter().any(|v| v.rule == TMP_NO_SWEEP), "{f:#?}");
    }

    #[test]
    fn comments_and_test_code_never_stage_tmp_files() {
        let src = "\
// a doc note mentioning \"meta.tmp\" litter
fn nothing() {}
#[cfg(test)]
mod tests {
    fn t(dir: &Path) -> PathBuf { dir.join(\"x.tmp\") }
}
";
        let f = findings_of("crates/extern/src/lib.rs", src);
        assert!(f.is_empty(), "{f:#?}");
    }
}
