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
//! | `hot-blocking`       | a blocking operation (locklint's registry: fsync/write/accept/recv/send/sleep), or a call that may reach one, in a hot function |
//! | `hot-scratch`        | a `let`-bound fresh collection at body top level of a hot function — a per-call temporary that should be a caller-provided scratch buffer |
//! | `hotlint-annotation` | malformed suppression annotation (unknown rule or empty justification) |
//!
//! Events come from the shared engine ([`crate::engine`]) under this
//! pass's table: allocation and clone tokens, locklint's
//! blocking registry, and calls — minus [`CALL_CUT`] and
//! constructor-convention names. Deliberate violations carry the engine's
//! in-source annotation (`// hotlint: allow(hot-scratch[, fn]): reason…`).
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

use crate::callgraph::FnKey;
use crate::engine::{
    call_graph, each_fn, suppressing_annotation, Analysis, Event, FileExtract, Kind, Pass, Table,
};
use crate::locklint::BLOCKING;
use crate::Violation;
use std::collections::BTreeMap;

/// Rule id: heap allocation in a hot function.
pub const HOT_ALLOC: &str = "hot-alloc";
/// Rule id: heap allocation inside a loop body of a hot function.
pub const HOT_ALLOC_LOOP: &str = "hot-alloc-loop";
/// Rule id: clone of a heap-owning value in a hot function.
pub const HOT_CLONE: &str = "hot-clone";
/// Rule id: blocking operation reachable from a hot function.
pub const HOT_BLOCKING: &str = "hot-blocking";
/// Rule id: per-call temporary that should be caller-provided scratch.
pub const HOT_SCRATCH: &str = "hot-scratch";
/// Rule id: malformed `// hotlint: allow(…)` annotation.
pub const ANNOTATION_RULE: &str = "hotlint-annotation";

/// The analysis rules an annotation may suppress.
pub const SUPPRESSIBLE_RULES: [&str; 5] = [
    HOT_ALLOC,
    HOT_ALLOC_LOOP,
    HOT_CLONE,
    HOT_BLOCKING,
    HOT_SCRATCH,
];

/// Hot-path roots: function names at which the hot property starts.
/// Everything reachable caller→callee from these is hot.
///
/// The registry names the paper's inner loops and the request paths that
/// sit on every operation:
///
/// * `verify_partner_lists_into` / `verify_pairs_into` — the verification
///   step (exact predicate over every candidate pair): the join's
///   set-major walk over partner lists, and the encoded-pair form;
/// * the `similarity` kernels — the per-pair work itself;
/// * `signatures_into` — signature generation, run per set on every
///   insert/query/join;
/// * the serve read path — `query` / `query_counted` /
///   `query_candidates` answer every service request;
/// * WAL record encoding — `encode_record_into` / `encode_set` run per
///   write inside the store's critical section;
/// * `walk_self_runs` / `walk_cross_runs` — the run walk that groups
///   sorted `(signature, set)` records, once per record of the in-memory
///   join and of every spill partition of the external executor;
/// * `count_bucket_partners` / `fill_bucket_partners` and their R–S forms
///   `count_cross_partners` / `fill_cross_partners` — the partner-list
///   kernel, run over every bucket the run walk keeps;
/// * `verify_pair` / `overlap_bound` / `write_bitmap` — the pluggable
///   verification trait method, the bitmap popcount bound it checks per
///   candidate, and the per-query bitmap build on the serve read path;
/// * `route_query` — the cluster router's scatter-gather fan-out, run
///   once per distributed query (node internals behind `Transport::call`
///   are already covered by the serve roots; `call` sits in [`CALL_CUT`]).
///   The fan-out method `Transport::call_all` is *not* cut, so
///   `TcpTransport`'s socket path is hot and analyzed.
pub const HOT_ROOTS: [&str; 25] = [
    "verify_partner_lists_into",
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
    "walk_self_runs",
    "walk_cross_runs",
    "count_bucket_partners",
    "fill_bucket_partners",
    "count_cross_partners",
    "fill_cross_partners",
    "route_query",
];

/// Std container/iterator/primitive method names excluded from name-union
/// call resolution. Without this cut the conservative resolver would map
/// e.g. `out.push(x)` in a hot kernel onto service-layer functions of the
/// same name and spread hotness (and findings) across unrelated
/// subsystems — the same counterbalance as locklint's `DATA_METHODS`.
/// Only *dotted* calls are cut; a bare call to a workspace function
/// always propagates.
pub const CALL_CUT: &[&str] = &[
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

/// Allocating and clone-flavored method-chain tokens.
pub const HOT_TOKENS: &[(&str, Kind)] = &[
    (".to_vec(", Kind::Alloc),
    (".to_string(", Kind::Alloc),
    (".collect::<", Kind::Alloc),
    (".collect(", Kind::Alloc),
    (".clone(", Kind::Clone),
    (".cloned(", Kind::Clone),
    (".to_owned(", Kind::Clone),
];

/// Allocating constructor types (matched as `Type::ctor(` at a word
/// boundary).
pub const HOT_CTORS: &[(&str, Kind)] = &[
    ("Vec", Kind::Alloc),
    ("Box", Kind::Alloc),
    ("String", Kind::Alloc),
    ("VecDeque", Kind::Alloc),
    ("BTreeMap", Kind::Alloc),
    ("BTreeSet", Kind::Alloc),
];

/// The hotlint pass.
pub static PASS: Pass = Pass {
    tool: "hotlint",
    rules: &SUPPRESSIBLE_RULES,
    annotation_rule: ANNOTATION_RULE,
    core_ban: None,
    table: Table {
        tokens: &[HOT_TOKENS, BLOCKING],
        ctors: HOT_CTORS,
        macros: &[("vec", Kind::Alloc), ("format", Kind::Alloc)],
        call_cut: &[CALL_CUT],
        releases: false,
        // Schemes, indexes and stores are built at setup time: one
        // `Vec::new()` in a kernel must not drag every workspace
        // constructor into the hot set. Allocation *at* such a call is
        // still caught lexically; only the hotness cascade is cut.
        cut_ctor_names: true,
    },
    analyze,
    counter: Some(("hot_functions", "hot")),
};

/// Hot propagation + per-function rule evaluation.
fn analyze(files: &[FileExtract]) -> Analysis {
    let graph = call_graph(files);

    // Hot set: forward closure from the root registry.
    let roots = each_fn(files)
        .filter(|(_, _, f)| HOT_ROOTS.contains(&f.name.as_str()))
        .map(|(key, _, _)| key);
    let hot = graph.reachable_from(roots);

    // may_block summaries over the whole graph, for the H5 cross-check.
    // A justified `hot-blocking` annotation at the blocking token also
    // stops propagation from it: justifying the sink (e.g. a generic
    // `impl Write` that hot callers feed an in-memory Vec) justifies its
    // callers, instead of forcing an annotation at every call site up the
    // chain. The direct finding is still generated and recorded as
    // suppressed, so the audit trail is complete.
    let mut may_block: BTreeMap<FnKey, bool> = each_fn(files)
        .map(|(key, file, f)| {
            let direct = f.events.iter().any(|ev| {
                matches!(ev, Event::Token { kind: Kind::Block(_), site, .. }
                    if suppressing_annotation(file, HOT_BLOCKING, site.line).is_none())
            });
            (key, direct)
        })
        .collect();
    graph.fixpoint(&mut may_block, |s, t| *s |= *t);

    let mut findings = Vec::new();
    for &(fi, gi) in &hot {
        let file = &files[fi];
        let f = &file.fns[gi];
        for ev in &f.events {
            let (rule, line, message) = match ev {
                Event::Token {
                    kind: Kind::Alloc,
                    what,
                    site,
                } => {
                    // Per element: inside a loop body, or downstream of a
                    // per-item iterator adapter on the same line — except
                    // `collect`, the chain's one-shot sink.
                    let (rule, detail) =
                        if site.in_loop || (site.after_adapter && what != "collect") {
                            (HOT_ALLOC_LOOP, "allocates per element, inside a loop body")
                        } else if site.depth == 1 && site.binding.is_some() {
                            (
                                HOT_SCRATCH,
                                "builds a per-call temporary — thread a caller-provided \
                             scratch buffer instead",
                            )
                        } else {
                            (HOT_ALLOC, "heap-allocates")
                        };
                    let message = format!(
                        "hot function `{}` {} (`{}`); hot paths must reuse \
                         buffers (DESIGN.md §5g)",
                        f.name, detail, what
                    );
                    (rule, site.line, message)
                }
                Event::Token {
                    kind: Kind::Clone,
                    what,
                    site,
                } => (
                    HOT_CLONE,
                    site.line,
                    format!(
                        "hot function `{}` copies a (potentially) heap-owning value \
                         (`.{}()`); borrow or reuse instead",
                        f.name, what
                    ),
                ),
                Event::Token {
                    kind: Kind::Block(desc),
                    site,
                    ..
                } => (
                    HOT_BLOCKING,
                    site.line,
                    format!(
                        "hot function `{}` performs a blocking operation ({})",
                        f.name, desc
                    ),
                ),
                Event::Call { name, line }
                    if graph
                        .resolve(name)
                        .iter()
                        .any(|target| may_block.get(target).copied().unwrap_or(false)) =>
                {
                    (
                        HOT_BLOCKING,
                        *line,
                        format!(
                            "hot function `{}` calls `{}`, which may reach a \
                             blocking operation (fsync/write/accept/recv/send/\
                             sleep)",
                            f.name, name
                        ),
                    )
                }
                _ => continue,
            };
            findings.push(Violation {
                rule,
                path: file.path.clone(),
                line,
                message,
            });
        }
    }

    Analysis {
        findings,
        counter: hot.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::extract_file;

    fn findings_of(src: &str) -> Vec<Violation> {
        let files = vec![extract_file("crates/core/src/lib.rs", src, &PASS)];
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
        let files = vec![extract_file("crates/io/src/lib.rs", src, &PASS)];
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
        // the suppressed list by run_pass).
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
