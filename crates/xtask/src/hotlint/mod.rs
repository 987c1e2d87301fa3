//! `cargo xtask hotlint` — hot-path allocation/copy static analysis
//! (DESIGN.md §5g).
//!
//! The verification step (exact intersection after candidate generation)
//! is the hot loop of every scheme in the paper, and the serve read path
//! and WAL encoding sit on every request. This pass propagates a *hot*
//! property from a registry of hot-path roots ([`HOT_ROOTS`]) through the
//! shared name-union call graph ([`crate::callgraph`]) — everything a hot
//! function may call is hot — and reports work that does not belong in a
//! hot function:
//!
//! | id                   | finding |
//! |----------------------|---------|
//! | `hot-alloc`          | heap allocation in a hot function (`Vec::new`, `vec!`, `Box::new`, `String::from`, `format!`, `.to_vec()`, `.collect()`, …) |
//! | `hot-alloc-loop`     | the same, inside a loop body / per-item iterator closure — an allocation per element, not per call |
//! | `hot-clone`          | `.clone()` / `.cloned()` / `.to_owned()` of a (potentially) heap-owning value in a hot function |
//! | `hot-default-hasher` | bare `HashMap`/`HashSet` construction in a hot function (SipHash; use `FxHashMap`/`FxHashSet`) |
//! | `hot-blocking`       | a blocking operation (locklint's registry: fsync/write/accept/recv/send/sleep), or a call that may reach one, in a hot function |
//! | `hot-scratch`        | a `let`-bound fresh collection at body top level of a hot function — a per-call temporary that should be a caller-provided scratch buffer |
//! | `hotlint-annotation` | malformed suppression annotation (unknown rule or empty justification) |
//!
//! Like locklint, deliberate violations are suppressed in-source, next to
//! the code they justify:
//!
//! ```text
//! // hotlint: allow(hot-alloc): reason…          (this + next line)
//! // hotlint: allow(hot-scratch, fn): reason…    (whole enclosing fn)
//! ```
//!
//! Unlike locklint there is no core-scope ban: the hot paths *live* in
//! `ssj-core`, so audited, justified annotations are legal there — the
//! workspace self-test instead pins that every annotation carries a
//! written reason and that zero findings survive unannotated.
//!
//! The static pass is paired with a runtime witness
//! (`crates/core/tests/alloc_witness.rs`): a counting global allocator
//! asserting zero steady-state allocations per serve-path query and per
//! verified candidate pair — the same two-layer static + runtime design
//! as locklint and the lock witness.

pub mod extract;

use crate::callgraph::{FnKey, Graph};
use crate::locklint::SCAN_DIRS;
use crate::{rel, rs_files, LintError, Violation};
use extract::{FileExtract, HotEvent};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// Rule id: heap allocation in a hot function.
pub const HOT_ALLOC: &str = "hot-alloc";
/// Rule id: heap allocation inside a loop body of a hot function.
pub const HOT_ALLOC_LOOP: &str = "hot-alloc-loop";
/// Rule id: clone of a heap-owning value in a hot function.
pub const HOT_CLONE: &str = "hot-clone";
/// Rule id: default-hasher map construction in a hot function.
pub const HOT_HASHER: &str = "hot-default-hasher";
/// Rule id: blocking operation reachable from a hot function.
pub const HOT_BLOCKING: &str = "hot-blocking";
/// Rule id: per-call temporary that should be caller-provided scratch.
pub const HOT_SCRATCH: &str = "hot-scratch";
/// Rule id: malformed `// hotlint: allow(…)` annotation.
pub const ANNOTATION_RULE: &str = "hotlint-annotation";

/// The analysis rules an annotation may suppress.
pub const SUPPRESSIBLE_RULES: [&str; 6] = [
    HOT_ALLOC,
    HOT_ALLOC_LOOP,
    HOT_CLONE,
    HOT_HASHER,
    HOT_BLOCKING,
    HOT_SCRATCH,
];

/// Hot-path roots: function names at which the hot property starts.
/// Everything reachable caller→callee from these is hot.
///
/// The registry names the paper's inner loops and the request paths that
/// sit on every operation:
///
/// * `verify_pairs_into` — the verification step (exact predicate over
///   every candidate pair);
/// * the `similarity` kernels — the per-pair work itself;
/// * `signatures_into` — signature generation, run per set on every
///   insert/query/join;
/// * the serve read path — `query` / `query_counted` /
///   `query_candidates` answer every service request;
/// * WAL record encoding — `encode_record_into` / `encode_set` run per
///   write inside the store's critical section;
/// * `probe_partition` — the external executor's per-partition candidate
///   enumeration, run once per spill partition over every posting list;
/// * `verify_pair` / `overlap_bound` / `write_bitmap` — the pluggable
///   verification trait method, the bitmap popcount bound it checks per
///   candidate, and the per-query bitmap build on the serve read path;
/// * `route_query` — the cluster router's scatter-gather fan-out, run
///   once per distributed query (node internals behind `Transport::call`
///   are already covered by the serve roots; `call` sits in [`CALL_CUT`]).
///   The fan-out method `Transport::call_all` is *not* cut, so
///   `TcpTransport`'s socket path is hot and analyzed.
pub const HOT_ROOTS: [&str; 19] = [
    "verify_pairs_into",
    "verify_pair",
    "overlap_bound",
    "write_bitmap",
    "intersection_size",
    "intersection_at_least",
    "hamming_distance",
    "jaccard",
    "dice",
    "cosine",
    "weighted_intersection",
    "signatures_into",
    "query",
    "query_counted",
    "query_candidates",
    "encode_record_into",
    "encode_set",
    "probe_partition",
    "route_query",
];

/// Std container/iterator/primitive method names excluded from name-union
/// call resolution. Without this cut the conservative resolver would map
/// e.g. `out.push(x)` in a hot kernel onto service-layer functions of the
/// same name and spread hotness (and findings) across unrelated
/// subsystems — the same counterbalance as locklint's `DATA_METHODS`.
/// Only *dotted* calls are cut; a bare call to a workspace function
/// always propagates.
pub const CALL_CUT: [&str; 24] = [
    "push",
    "pop",
    "extend",
    "insert",
    "remove",
    "get",
    "len",
    "is_empty",
    "clear",
    "contains",
    "contains_key",
    "iter",
    "drain",
    "load",
    "lock",
    "read",
    "write",
    "spawn",
    "join",
    "take",
    "resize",
    "truncate",
    "reserve",
    "call",
];

/// Whether a callee name follows the constructor convention (`new`,
/// `default`, `from`, `build`, `restore`, `with_*`). Constructor-named
/// calls are cut from hot propagation entirely: schemes, indexes, and
/// stores are built at setup time, and because the name-union resolver
/// maps `Foo::new(…)` onto *every* workspace `fn new`, one `Vec::new()`
/// in a kernel would otherwise drag every constructor — and everything
/// constructors call (parameter validation, error formatting) — into the
/// hot set. Allocation *at* such a call site in a hot function is still
/// caught lexically (`Vec::new`, `vec!`, …); only the hotness cascade
/// through the shared name is cut.
pub fn is_ctor_name(name: &str) -> bool {
    matches!(name, "new" | "default" | "from" | "build" | "restore") || name.starts_with("with_")
}

/// Allocating constructor type names (matched as `Type::ctor(`).
pub const ALLOC_TYPES: [&str; 6] = ["Vec", "Box", "String", "VecDeque", "BTreeMap", "BTreeSet"];

/// Allocating macros (matched as `name!`).
pub const ALLOC_MACROS: [&str; 2] = ["vec", "format"];

/// Allocating method-chain tokens.
pub const ALLOC_CHAINS: [&str; 4] = [".to_vec(", ".to_string(", ".collect::<", ".collect("];

/// Clone-flavored method-chain tokens.
pub const CLONE_CHAINS: [&str; 3] = [".clone(", ".cloned(", ".to_owned("];

/// Default-hasher map type names (word-boundary matched, so the blessed
/// `FxHashMap`/`FxHashSet` aliases never trip it).
pub const HASHER_TYPES: [&str; 2] = ["HashMap", "HashSet"];

/// A finding that an in-source annotation suppressed, kept for reporting
/// (`--json`) so suppressions stay auditable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuppressedFinding {
    /// Rule the annotation suppressed.
    pub rule: &'static str,
    /// Repo-relative path.
    pub path: String,
    /// 1-based line of the suppressed finding.
    pub line: usize,
    /// The annotation's written justification.
    pub reason: String,
    /// What the finding said.
    pub message: String,
}

/// Everything one `hotlint` run produced.
#[derive(Debug, Default)]
pub struct HotlintReport {
    /// Surviving (un-suppressed) findings, sorted by path/line/rule.
    pub findings: Vec<Violation>,
    /// Findings a written annotation suppressed.
    pub suppressed: Vec<SuppressedFinding>,
    /// Files analyzed.
    pub files: usize,
    /// Functions summarized.
    pub functions: usize,
    /// Functions the hot property reached.
    pub hot_functions: usize,
}

impl HotlintReport {
    /// Machine-readable report (for trend tracking next to locklint's):
    /// findings, suppressions, and scan/propagation size.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"findings\":[");
        for (i, v) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"rule\":{},\"path\":{},\"line\":{},\"message\":{}}}",
                json_str(v.rule),
                json_str(&v.path),
                v.line,
                json_str(&v.message)
            );
        }
        out.push_str("],\"suppressed\":[");
        for (i, s) in self.suppressed.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"rule\":{},\"path\":{},\"line\":{},\"reason\":{},\"message\":{}}}",
                json_str(s.rule),
                json_str(&s.path),
                s.line,
                json_str(&s.reason),
                json_str(&s.message)
            );
        }
        let _ = write!(
            out,
            "],\"files\":{},\"functions\":{},\"hot_functions\":{}}}",
            self.files, self.functions, self.hot_functions
        );
        out
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Runs the whole pass over the workspace at `root`.
pub fn run_hotlint(root: &Path) -> Result<HotlintReport, LintError> {
    let mut files = Vec::new();
    for dir in SCAN_DIRS {
        let abs = root.join(dir);
        if !abs.is_dir() {
            continue;
        }
        for file in rs_files(&abs)? {
            let relpath = rel(root, &file);
            let raw = crate::read(&file)?;
            files.push(extract::extract_file(&relpath, &raw));
        }
    }

    let mut findings = Vec::new();

    // Annotation hygiene: well-formed and justified. (No core-scope ban:
    // the hot paths live in core, so audited annotations are legal there.)
    for file in &files {
        for ann in &file.annotations {
            if !SUPPRESSIBLE_RULES.contains(&ann.rule.as_str()) {
                findings.push(Violation {
                    rule: ANNOTATION_RULE,
                    path: file.path.clone(),
                    line: ann.line,
                    message: format!(
                        "annotation names unknown rule `{}` (expected one of: {})",
                        ann.rule,
                        SUPPRESSIBLE_RULES.join(", ")
                    ),
                });
            }
            if ann.reason.is_empty() {
                findings.push(Violation {
                    rule: ANNOTATION_RULE,
                    path: file.path.clone(),
                    line: ann.line,
                    message: "annotation has no written justification after `):` — \
                              suppressions are documentation, not magic"
                        .to_string(),
                });
            }
        }
    }

    let analyzed = analyze(&files);
    let functions = files.iter().map(|f| f.fns.len()).sum();

    // Partition analysis findings into suppressed vs surviving.
    let mut suppressed = Vec::new();
    for finding in analyzed.findings {
        match suppressing_annotation(&files, &finding) {
            Some(reason) => suppressed.push(SuppressedFinding {
                rule: finding.rule,
                path: finding.path,
                line: finding.line,
                reason,
                message: finding.message,
            }),
            None => findings.push(finding),
        }
    }

    findings.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    findings.dedup();
    suppressed.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    suppressed.dedup();

    Ok(HotlintReport {
        findings,
        suppressed,
        files: files.len(),
        functions,
        hot_functions: analyzed.hot_functions,
    })
}

struct Analyzed {
    findings: Vec<Violation>,
    hot_functions: usize,
}

/// Hot propagation + per-function rule evaluation.
fn analyze(files: &[FileExtract]) -> Analyzed {
    let graph = Graph::build(files.iter().enumerate().flat_map(|(fi, file)| {
        file.fns.iter().enumerate().map(move |(gi, f)| {
            let callees = f
                .events
                .iter()
                .filter_map(|ev| match ev {
                    HotEvent::Call { name, .. } => Some(name.clone()),
                    _ => None,
                })
                .collect();
            ((fi, gi), f.name.clone(), callees)
        })
    }));

    // Hot set: forward closure from the root registry.
    let roots = files.iter().enumerate().flat_map(|(fi, file)| {
        file.fns
            .iter()
            .enumerate()
            .filter(|(_, f)| HOT_ROOTS.contains(&f.name.as_str()))
            .map(move |(gi, _)| (fi, gi))
    });
    let hot = graph.reachable_from(roots);

    // may_block summaries over the whole graph, for the H5 cross-check.
    // A justified `hot-blocking` annotation at the blocking token also
    // stops propagation from it: justifying the sink (e.g. a generic
    // `impl Write` that hot callers feed an in-memory Vec) justifies its
    // callers, instead of forcing an annotation at every call site up the
    // chain. The direct finding is still generated and recorded as
    // suppressed, so the audit trail is complete.
    let mut may_block: BTreeMap<FnKey, bool> = BTreeMap::new();
    for (fi, file) in files.iter().enumerate() {
        for (gi, f) in file.fns.iter().enumerate() {
            let direct = f.events.iter().any(|ev| {
                matches!(ev, HotEvent::Block { line, .. }
                    if !blocking_annotated(file, *line))
            });
            may_block.insert((fi, gi), direct);
        }
    }
    graph.fixpoint(&mut may_block, |s, t| *s |= *t);

    let mut findings = Vec::new();
    for &(fi, gi) in &hot {
        let file = &files[fi];
        let f = &file.fns[gi];
        for ev in &f.events {
            match ev {
                HotEvent::Alloc {
                    what,
                    line,
                    in_loop,
                    top_let,
                } => {
                    let (rule, detail) = if *in_loop {
                        (HOT_ALLOC_LOOP, "allocates per element, inside a loop body")
                    } else if *top_let {
                        (
                            HOT_SCRATCH,
                            "builds a per-call temporary — thread a caller-provided \
                             scratch buffer instead",
                        )
                    } else {
                        (HOT_ALLOC, "heap-allocates")
                    };
                    findings.push(Violation {
                        rule,
                        path: file.path.clone(),
                        line: *line,
                        message: format!(
                            "hot function `{}` {} (`{}`); hot paths must reuse \
                             buffers (DESIGN.md §5g)",
                            f.name, detail, what
                        ),
                    });
                }
                HotEvent::CloneCall { what, line } => findings.push(Violation {
                    rule: HOT_CLONE,
                    path: file.path.clone(),
                    line: *line,
                    message: format!(
                        "hot function `{}` copies a (potentially) heap-owning value \
                         (`.{}()`); borrow or reuse instead",
                        f.name, what
                    ),
                }),
                HotEvent::HasherDefault { what, line } => findings.push(Violation {
                    rule: HOT_HASHER,
                    path: file.path.clone(),
                    line: *line,
                    message: format!(
                        "hot function `{}` builds a default-hasher map (`{}`); use \
                         `FxHashMap`/`FxHashSet`",
                        f.name, what
                    ),
                }),
                HotEvent::Block { desc, line } => findings.push(Violation {
                    rule: HOT_BLOCKING,
                    path: file.path.clone(),
                    line: *line,
                    message: format!(
                        "hot function `{}` performs a blocking operation ({})",
                        f.name, desc
                    ),
                }),
                HotEvent::Call { name, line } => {
                    let reaches_block = graph
                        .resolve(name)
                        .iter()
                        .any(|target| may_block.get(target).copied().unwrap_or(false));
                    if reaches_block {
                        findings.push(Violation {
                            rule: HOT_BLOCKING,
                            path: file.path.clone(),
                            line: *line,
                            message: format!(
                                "hot function `{}` calls `{}`, which may reach a \
                                 blocking operation (fsync/write/accept/recv/send/\
                                 sleep)",
                                f.name, name
                            ),
                        });
                    }
                }
            }
        }
    }

    Analyzed {
        findings,
        hot_functions: hot.len(),
    }
}

/// Whether a justified `hot-blocking` annotation covers `line` (same
/// line/next-line for line-level, enclosing function for fn-level).
fn blocking_annotated(file: &FileExtract, line: usize) -> bool {
    file.annotations.iter().any(|ann| {
        if ann.rule != HOT_BLOCKING || ann.reason.is_empty() {
            return false;
        }
        if ann.fn_level {
            file.fns
                .iter()
                .any(|f| f.contains_line(ann.line) && f.contains_line(line))
        } else {
            line == ann.line || line == ann.line + 1
        }
    })
}

/// The justification of the annotation that suppresses `finding`, if any.
///
/// A line-level annotation covers its own line and the next; an fn-level
/// annotation covers every line of the function whose body contains it.
fn suppressing_annotation(files: &[FileExtract], finding: &Violation) -> Option<String> {
    let file = files.iter().find(|f| f.path == finding.path)?;
    for ann in &file.annotations {
        if ann.rule != finding.rule || ann.reason.is_empty() {
            continue;
        }
        let covered = if ann.fn_level {
            file.fns
                .iter()
                .any(|f| f.contains_line(ann.line) && f.contains_line(finding.line))
        } else {
            finding.line == ann.line || finding.line == ann.line + 1
        };
        if covered {
            return Some(ann.reason.clone());
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings_of(src: &str) -> Vec<Violation> {
        let files = vec![extract::extract_file("crates/core/src/lib.rs", src)];
        analyze(&files).findings
    }

    #[test]
    fn cold_functions_are_not_reported() {
        let src = "fn cold() { let v: Vec<u32> = Vec::new(); v.len(); }";
        assert!(findings_of(src).is_empty());
    }

    #[test]
    fn hot_root_allocation_classifies_by_context() {
        let src = "\
fn jaccard(a: &[u32]) -> f64 {
    let scratch = Vec::new();
    for x in a {
        let per_item = Vec::with_capacity(1);
    }
    helper(a).to_vec();
    0.0
}
fn helper(a: &[u32]) -> &[u32] { a }
";
        let f = findings_of(src);
        let rules: Vec<(&str, usize)> = f.iter().map(|v| (v.rule, v.line)).collect();
        assert!(rules.contains(&(HOT_SCRATCH, 2)), "{f:#?}");
        assert!(rules.contains(&(HOT_ALLOC_LOOP, 4)), "{f:#?}");
        assert!(rules.contains(&(HOT_ALLOC, 6)), "{f:#?}");
    }

    #[test]
    fn hotness_propagates_to_callees_and_blocking_is_cross_checked() {
        let src = "\
fn query(s: &S) {
    deep(s);
}
fn deep(x: &S) {
    let c = x.data.clone();
    flushy(x);
}
fn flushy(x: &S) {
    let _ = x.file.sync_all();
}
fn unrelated() { let v = vec![1]; }
";
        let f = findings_of(src);
        assert!(
            f.iter().any(|v| v.rule == HOT_CLONE && v.line == 5),
            "{f:#?}"
        );
        // deep() is hot and calls flushy() which blocks; flushy itself is
        // hot too, so both the call site and the direct site report.
        assert!(
            f.iter().any(|v| v.rule == HOT_BLOCKING && v.line == 6),
            "{f:#?}"
        );
        assert!(
            f.iter().any(|v| v.rule == HOT_BLOCKING && v.line == 9),
            "{f:#?}"
        );
        assert!(
            !f.iter().any(|v| v.line == 11),
            "unrelated() must stay cold: {f:#?}"
        );
    }

    #[test]
    fn default_hasher_fires_but_fx_alias_does_not() {
        let src = "\
fn intersection_size(a: &[u32]) -> usize {
    let m = HashMap::new();
    let f = FxHashMap::default();
    a.len()
}
";
        let f = findings_of(src);
        assert!(
            f.iter().any(|v| v.rule == HOT_HASHER && v.line == 2),
            "{f:#?}"
        );
        assert!(!f.iter().any(|v| v.line == 3), "{f:#?}");
    }

    #[test]
    fn constructor_names_do_not_carry_hotness() {
        // `query` calls Scheme::new / Scheme::with_params; the workspace
        // constructors of the same names must stay cold.
        let src = "\
fn query(s: &S) {
    let scheme = Scheme::new(s);
    let other = Scheme::with_params(s);
}
fn new(s: &S) -> Vec<u32> { let v = vec![1]; v }
fn with_params(s: &S) -> Vec<u32> { s.ids.to_vec() }
";
        let f = findings_of(src);
        assert!(f.is_empty(), "ctor-named fns must not become hot: {f:#?}");
    }

    #[test]
    fn justified_blocking_annotation_stops_may_block_propagation() {
        // `sink` carries a justified fn-level annotation (in-memory
        // writer); callers of `sink` must not report hot-blocking, while
        // the direct finding survives into the suppressed audit trail.
        let src = "\
fn encode_set(out: &mut V) {
    sink(out);
}
fn sink(out: &mut V) {
    // hotlint: allow(hot-blocking, fn): in-memory Vec sink, not file I/O.
    out.write_all(&[1]).unwrap();
}
";
        let files = vec![extract::extract_file("crates/io/src/lib.rs", src)];
        let analyzed = analyze(&files);
        assert!(
            !analyzed
                .findings
                .iter()
                .any(|v| v.rule == HOT_BLOCKING && v.line == 2),
            "annotated sink must not propagate may_block to encode_set: {:#?}",
            analyzed.findings
        );
        // The direct site still yields a finding (later partitioned into
        // the suppressed list by run_hotlint).
        assert!(
            analyzed
                .findings
                .iter()
                .any(|v| v.rule == HOT_BLOCKING && v.line == 6),
            "{:#?}",
            analyzed.findings
        );
    }
}
