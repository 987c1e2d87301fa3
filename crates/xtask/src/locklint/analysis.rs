//! Call-graph summaries and per-function replay for locklint.
//!
//! Calls are resolved by *name union* through the shared
//! [`crate::callgraph::Graph`]: a call to `flush` is assumed to possibly
//! reach every workspace function named `flush`. That is deliberately
//! conservative — no type information is available — and is what the
//! [`super::DATA_METHODS`] registry exists to counterbalance.

use super::{
    BLOCKING_UNDER_LOCK, CLASSES, GUARD_LIFETIME, LOCK_ORDER, LOCK_ORDER_CYCLE, MULTI_SHARD_ORDER,
};
use crate::callgraph::FnKey;
use crate::engine::{call_graph, each_fn, Analysis, Event, FileExtract, Kind};
use crate::Violation;
use std::collections::{BTreeMap, BTreeSet};

/// What a function may do, transitively.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
struct Summary {
    /// Lock classes (indices into [`CLASSES`]) the function may acquire.
    may_acquire: BTreeSet<usize>,
    /// Whether the function may reach a blocking operation.
    may_block: bool,
}

/// A guard held during replay of a function body.
struct Held {
    class: usize,
    binding: Option<String>,
    /// Unbound and not stored — released at the end of its statement.
    transient: bool,
    depth: usize,
}

/// Runs summaries + replay over all extracted files.
pub fn analyze(files: &[FileExtract]) -> Analysis {
    let graph = call_graph(files);

    // Seed summaries from each function's direct events, then propagate
    // may_acquire / may_block to a fixpoint over the call graph.
    let mut summaries: BTreeMap<FnKey, Summary> = BTreeMap::new();
    for (key, _, f) in each_fn(files) {
        let mut s = Summary::default();
        for ev in &f.events {
            match ev {
                Event::Token {
                    kind: Kind::Acquire { class, .. },
                    ..
                } => {
                    s.may_acquire.insert(*class);
                }
                Event::Token {
                    kind: Kind::Block(_),
                    ..
                } => s.may_block = true,
                _ => {}
            }
        }
        summaries.insert(key, s);
    }
    graph.fixpoint(&mut summaries, |s, t| {
        s.may_block |= t.may_block;
        s.may_acquire.extend(t.may_acquire.iter().copied());
    });

    // Replay each function against the summaries.
    let mut findings = Vec::new();
    // (held class → acquired class) edges with one witness site each.
    let mut edges: BTreeMap<(usize, usize), (String, usize)> = BTreeMap::new();

    for file in files.iter() {
        for f in file.fns.iter() {
            let mut held: Vec<Held> = Vec::new();
            for ev in &f.events {
                match ev {
                    Event::Token {
                        kind: Kind::Acquire { class, mode },
                        site,
                        ..
                    } => {
                        let (class, line) = (*class, site.line);
                        if site.stored {
                            findings.push(Violation {
                                rule: GUARD_LIFETIME,
                                path: file.path.clone(),
                                line,
                                message: format!(
                                    "`{}` {} guard in `{}` is stored into an \
                                     Option/collection — guard lifetime escapes its \
                                     lexical scope; keep guards scoped or use the \
                                     canonical helpers",
                                    CLASSES[class].name, mode, f.name
                                ),
                            });
                        }
                        if (site.in_loop || site.after_adapter) && CLASSES[class].multi_instance {
                            findings.push(Violation {
                                rule: MULTI_SHARD_ORDER,
                                path: file.path.clone(),
                                line,
                                message: format!(
                                    "iterated acquisition of multi-instance class \
                                     `{}` in `{}` — ascending-instance order is not \
                                     statically provable; use the canonical \
                                     `lock_all_read`/`lock_owner_write` helpers or \
                                     annotate the audited site",
                                    CLASSES[class].name, f.name
                                ),
                            });
                        }
                        order_check(
                            &held,
                            class,
                            &file.path,
                            line,
                            &f.name,
                            "acquires",
                            &mut findings,
                            &mut edges,
                        );
                        held.push(Held {
                            class,
                            binding: site.binding.clone(),
                            transient: site.binding.is_none() && !site.stored,
                            depth: site.depth,
                        });
                    }
                    Event::Release { binding } => {
                        if let Some(at) = held
                            .iter()
                            .rposition(|h| h.binding.as_deref() == Some(binding.as_str()))
                        {
                            held.remove(at);
                        }
                    }
                    Event::StatementEnd => held.retain(|h| !h.transient),
                    Event::ScopeEnd { to_depth } => held.retain(|h| h.depth <= *to_depth),
                    Event::Call { name, line } => {
                        if held.is_empty() {
                            continue;
                        }
                        let mut may_block = false;
                        let mut may_acquire = BTreeSet::new();
                        for target in graph.resolve(name) {
                            if let Some(t) = summaries.get(target) {
                                may_block |= t.may_block;
                                may_acquire.extend(t.may_acquire.iter().copied());
                            }
                        }
                        if may_block {
                            findings.push(Violation {
                                rule: BLOCKING_UNDER_LOCK,
                                path: file.path.clone(),
                                line: *line,
                                message: format!(
                                    "`{}` calls `{}`, which may block (fsync/write/\
                                     accept/recv/send/sleep), while holding {}",
                                    f.name,
                                    name,
                                    held_names(&held)
                                ),
                            });
                        }
                        for class in may_acquire {
                            order_check(
                                &held,
                                class,
                                &file.path,
                                *line,
                                &f.name,
                                &format!("calls `{name}`, which may acquire"),
                                &mut findings,
                                &mut edges,
                            );
                        }
                    }
                    Event::Token {
                        kind: Kind::Block(desc),
                        site,
                        ..
                    } => {
                        if !held.is_empty() {
                            findings.push(Violation {
                                rule: BLOCKING_UNDER_LOCK,
                                path: file.path.clone(),
                                line: site.line,
                                message: format!(
                                    "`{}` performs a blocking operation ({}) while \
                                     holding {}",
                                    f.name,
                                    desc,
                                    held_names(&held)
                                ),
                            });
                        }
                    }
                    Event::Token { .. } => {}
                }
            }
        }
    }

    // Cycle detection over the aggregated class-order graph. Ranks are
    // totally ordered, so any cycle necessarily contains a descending
    // edge (already reported as lock-order at its site); this finding
    // adds the whole-workspace picture of the deadlock loop.
    findings.extend(find_cycles(&edges));

    Analysis {
        findings,
        counter: 0,
    }
}

fn held_names(held: &[Held]) -> String {
    let names: Vec<&str> = held.iter().map(|h| CLASSES[h.class].name).collect();
    format!("`{}`", names.join("`, `"))
}

#[allow(clippy::too_many_arguments, reason = "a site and two accumulators")]
fn order_check(
    held: &[Held],
    class: usize,
    path: &str,
    line: usize,
    fn_name: &str,
    verb: &str,
    findings: &mut Vec<Violation>,
    edges: &mut BTreeMap<(usize, usize), (String, usize)>,
) {
    for h in held {
        if h.class != class {
            // Record the order edge either way: descending edges are
            // reported below AND close cycles in the aggregate graph.
            edges
                .entry((h.class, class))
                .or_insert_with(|| (path.to_string(), line));
        }
        if CLASSES[h.class].rank > CLASSES[class].rank {
            findings.push(Violation {
                rule: LOCK_ORDER,
                path: path.to_string(),
                line,
                message: format!(
                    "`{}` {} `{}` (rank {}) while holding `{}` (rank {}) — the \
                     canonical order acquires ascending ranks only (DESIGN.md §5f)",
                    fn_name,
                    verb,
                    CLASSES[class].name,
                    CLASSES[class].rank,
                    CLASSES[h.class].name,
                    CLASSES[h.class].rank
                ),
            });
        } else if h.class == class {
            if CLASSES[class].multi_instance {
                findings.push(Violation {
                    rule: MULTI_SHARD_ORDER,
                    path: path.to_string(),
                    line,
                    message: format!(
                        "`{}` {} `{}` while already holding an instance of it — \
                         per-instance ascending order is not statically provable \
                         outside the canonical helpers",
                        fn_name, verb, CLASSES[class].name
                    ),
                });
            } else {
                findings.push(Violation {
                    rule: LOCK_ORDER,
                    path: path.to_string(),
                    line,
                    message: format!(
                        "`{}` {} non-reentrant `{}` while already holding it — \
                         self-deadlock",
                        fn_name, verb, CLASSES[class].name
                    ),
                });
            }
        }
    }
}

/// DFS cycle search over the class-order graph; one finding per cycle.
fn find_cycles(edges: &BTreeMap<(usize, usize), (String, usize)>) -> Vec<Violation> {
    let mut findings = Vec::new();
    let mut reported: BTreeSet<Vec<usize>> = BTreeSet::new();
    for &(start, _) in edges.keys() {
        let mut path = vec![start];
        dfs_cycles(start, start, edges, &mut path, &mut reported, &mut findings);
    }
    findings
}

fn dfs_cycles(
    start: usize,
    at: usize,
    edges: &BTreeMap<(usize, usize), (String, usize)>,
    path: &mut Vec<usize>,
    reported: &mut BTreeSet<Vec<usize>>,
    findings: &mut Vec<Violation>,
) {
    for (&(from, to), site) in edges {
        if from != at {
            continue;
        }
        if to == start {
            let mut key = path.clone();
            key.sort_unstable();
            if reported.insert(key) {
                let mut names: Vec<&str> = path.iter().map(|&c| CLASSES[c].name).collect();
                names.push(CLASSES[start].name);
                findings.push(Violation {
                    rule: LOCK_ORDER_CYCLE,
                    path: site.0.clone(),
                    line: site.1,
                    message: format!(
                        "lock-class order cycle: {} — concurrent threads taking \
                         these edges in opposite orders can deadlock",
                        names.join(" -> ")
                    ),
                });
            }
            continue;
        }
        if path.contains(&to) {
            continue;
        }
        path.push(to);
        dfs_cycles(start, to, edges, path, reported, findings);
        path.pop();
    }
}
