//! Shared name-union call-graph engine for the repo's interprocedural
//! static-analysis passes (`locklint`, `hotlint`).
//!
//! Both work the same way (see [`crate::engine`]): masked source
//! (see `scan.rs`) is split into function spans, each body is scanned
//! into an event list under the pass's token table, and per-function
//! facts propagate over a *name-resolved* call graph — a call to `flush`
//! is assumed to possibly reach every workspace function named `flush`.
//! That is deliberately conservative (no type information is available)
//! and each pass's table carries method names that cut the resolution
//! where the conservatism would drown the signal.
//!
//! This module owns the structural pieces:
//!
//! * function-span discovery over masked source ([`fn_spans`]),
//! * byte-offset → line mapping ([`line_start_offsets`], [`line_of`]),
//! * token helpers ([`is_ident`], [`KEYWORDS`], [`ITER_MARKERS`],
//!   [`let_binding`], [`single_ident_arg`]),
//! * in-source suppression annotations, parameterized by tool name
//!   ([`parse_annotations`]),
//! * the name-union [`Graph`] with summary [`Graph::fixpoint`]
//!   propagation and forward-reachability ([`Graph::reachable_from`]).

use std::collections::{BTreeMap, BTreeSet};

/// Keywords that look like call/identifier tokens but never are.
pub const KEYWORDS: [&str; 22] = [
    "if", "else", "match", "for", "while", "loop", "return", "let", "fn", "in", "as", "move",
    "mut", "ref", "break", "continue", "where", "impl", "dyn", "unsafe", "await", "box",
];

/// Iterator-adapter tokens that open a per-item closure: code inside runs
/// once per element, i.e. in a loop context.
pub const ITER_MARKERS: [&str; 5] = [
    ".map(",
    ".for_each(",
    ".filter(",
    ".flat_map(",
    ".filter_map(",
];

/// ASCII identifier byte.
pub fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Byte offsets at which each line starts (line 1 at offset 0).
pub fn line_start_offsets(text: &str) -> Vec<usize> {
    let mut starts = vec![0];
    for (i, b) in text.bytes().enumerate() {
        if b == b'\n' {
            starts.push(i + 1);
        }
    }
    starts
}

/// 1-based line containing byte offset `pos`.
pub fn line_of(starts: &[usize], pos: usize) -> usize {
    starts.partition_point(|&s| s <= pos)
}

/// Byte span of one `fn` in masked source.
#[derive(Debug)]
pub struct FnSpan {
    /// Function name as written after `fn`.
    pub name: String,
    /// Offset of the `fn` keyword.
    pub kw_pos: usize,
    /// Offset of the body's `{`.
    pub body_start: usize,
    /// Offset one past the body's `}`.
    pub body_end: usize,
}

/// Finds every function definition in masked source, including nested
/// fns (which get their own spans; enclosing scans skip their ranges —
/// see [`nested_ranges`]). `fn(` pointer types and bodyless trait
/// declarations are ignored.
pub fn fn_spans(masked: &str) -> Vec<FnSpan> {
    let bytes = masked.as_bytes();
    let mut spans = Vec::new();
    let mut i = 0;
    while i + 1 < bytes.len() {
        let boundary_before = i == 0 || !is_ident(bytes[i - 1]);
        let boundary_after = i + 2 >= bytes.len() || !is_ident(bytes[i + 2]);
        if !(bytes[i] == b'f' && bytes[i + 1] == b'n' && boundary_before && boundary_after) {
            i += 1;
            continue;
        }
        let kw_pos = i;
        let mut j = i + 2;
        while j < bytes.len() && bytes[j].is_ascii_whitespace() {
            j += 1;
        }
        let name_start = j;
        while j < bytes.len() && is_ident(bytes[j]) {
            j += 1;
        }
        if j == name_start {
            // `fn(` pointer type or `Fn` trait syntax — not a definition.
            i += 2;
            continue;
        }
        let name = masked[name_start..j].to_string();
        // Find the body `{`, or `;` for a bodyless trait declaration.
        let mut body_start = None;
        while j < bytes.len() {
            match bytes[j] {
                b'{' => {
                    body_start = Some(j);
                    break;
                }
                b';' => break,
                _ => j += 1,
            }
        }
        let Some(body_start) = body_start else {
            i = j + 1;
            continue;
        };
        // Match braces to the end of the body.
        let mut depth = 0usize;
        let mut k = body_start;
        let mut body_end = bytes.len();
        while k < bytes.len() {
            match bytes[k] {
                b'{' => depth += 1,
                b'}' => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        body_end = k + 1;
                        break;
                    }
                }
                _ => {}
            }
            k += 1;
        }
        spans.push(FnSpan {
            name,
            kw_pos,
            body_start,
            body_end,
        });
        // Continue scanning *inside* the body too: nested fns get their
        // own spans, and the enclosing scan skips their ranges.
        i = body_start + 1;
    }
    spans
}

/// Byte ranges of fns nested inside `spans[i]`, for the enclosing body
/// scan to skip (nested fns are analyzed as their own functions and
/// resolved through the call graph).
pub fn nested_ranges(spans: &[FnSpan], i: usize) -> Vec<(usize, usize)> {
    let span = &spans[i];
    spans
        .iter()
        .enumerate()
        .filter(|&(j, s)| j != i && s.kw_pos > span.body_start && s.body_end <= span.body_end)
        .map(|(_, s)| (s.kw_pos, s.body_end))
        .collect()
}

/// `let [mut] <ident> … = …` → the bound name.
pub fn let_binding(stmt_prefix: &str) -> Option<String> {
    let trimmed = stmt_prefix.trim_start();
    let rest = trimmed.strip_prefix("let ")?;
    let rest = rest.trim_start();
    let rest = rest.strip_prefix("mut ").unwrap_or(rest).trim_start();
    let end = rest
        .bytes()
        .position(|b| !is_ident(b))
        .unwrap_or(rest.len());
    if end == 0 || !rest[end..].contains('=') {
        return None;
    }
    Some(rest[..end].to_string())
}

/// For `f(<ident>)`: the ident, if the argument list is exactly one
/// identifier (used for `drop(guard)` detection).
pub fn single_ident_arg(masked: &str, open_paren: usize, end: usize) -> Option<String> {
    let bytes = masked.as_bytes();
    let mut j = open_paren + 1;
    let arg_start = j;
    while j < end && bytes[j] != b')' && bytes[j] != b'\n' {
        j += 1;
    }
    if j >= end || bytes[j] != b')' {
        return None;
    }
    let arg = masked[arg_start..j].trim();
    if !arg.is_empty()
        && arg.bytes().all(is_ident)
        && !arg.bytes().next().is_some_and(|b| b.is_ascii_digit())
    {
        Some(arg.to_string())
    } else {
        None
    }
}

/// A `// <tool>: allow(…)` suppression found in the raw source.
#[derive(Debug)]
pub struct Annotation {
    /// Rule name inside `allow(…)`.
    pub rule: String,
    /// `allow(<rule>, fn)` — covers the whole enclosing function.
    pub fn_level: bool,
    /// 1-based line of the annotation comment.
    pub line: usize,
    /// Justification text after `):`, trimmed.
    pub reason: String,
}

/// Parses `// <tool>: allow(<rule>[, fn]): reason` from raw lines.
/// A malformed annotation (no closing paren) is emitted with an empty
/// rule so the pass's hygiene check can report it.
pub fn parse_annotations(raw: &str, tool: &str) -> Vec<Annotation> {
    let marker = format!("{tool}: allow(");
    let mut out = Vec::new();
    for (idx, line) in raw.lines().enumerate() {
        let Some(at) = line.find(&marker) else {
            continue;
        };
        // Only honor (and only police) real comment lines.
        if !line[..at].contains("//") {
            continue;
        }
        let args_start = at + marker.len();
        let Some(close) = line[args_start..].find(')') else {
            out.push(Annotation {
                rule: String::new(),
                fn_level: false,
                line: idx + 1,
                reason: String::new(),
            });
            continue;
        };
        let args = &line[args_start..args_start + close];
        let (rule, fn_level) = match args.split_once(',') {
            Some((r, scope)) => (r.trim(), scope.trim() == "fn"),
            None => (args.trim(), false),
        };
        let after = &line[args_start + close + 1..];
        let reason = after.strip_prefix(':').unwrap_or("").trim().to_string();
        out.push(Annotation {
            rule: rule.to_string(),
            fn_level,
            line: idx + 1,
            reason,
        });
    }
    out
}

/// A function's identity across the scanned file set: `(file index,
/// fn index within the file)`.
pub type FnKey = (usize, usize);

/// Name-union call graph over all scanned functions.
///
/// Built once from `(key, name, callee names)` triples; resolution maps a
/// callee name to *every* function with that name.
#[derive(Debug, Default)]
pub struct Graph {
    by_name: BTreeMap<String, Vec<FnKey>>,
    calls: BTreeMap<FnKey, Vec<String>>,
}

impl Graph {
    /// Builds the graph. `callees` may contain duplicates; they are kept
    /// (harmless for fixpoints) to stay cheap.
    pub fn build(fns: impl Iterator<Item = (FnKey, String, Vec<String>)>) -> Self {
        let mut by_name: BTreeMap<String, Vec<FnKey>> = BTreeMap::new();
        let mut calls = BTreeMap::new();
        for (key, name, callees) in fns {
            by_name.entry(name).or_default().push(key);
            calls.insert(key, callees);
        }
        Graph { by_name, calls }
    }

    /// Every function the name may resolve to.
    pub fn resolve(&self, name: &str) -> &[FnKey] {
        self.by_name.get(name).map_or(&[][..], |v| v)
    }

    /// Callee names recorded for `key`.
    pub fn calls_of(&self, key: FnKey) -> &[String] {
        self.calls.get(&key).map_or(&[][..], |v| v)
    }

    /// Propagates per-function summaries to a fixpoint: each function's
    /// summary absorbs (via `merge`) the summaries of everything its
    /// calls may resolve to. Self-targets are skipped (a direct
    /// recursion adds nothing to its own summary). `merge` must be
    /// monotone (only ever grow the summary) for termination.
    pub fn fixpoint<S: Clone + PartialEq>(
        &self,
        summaries: &mut BTreeMap<FnKey, S>,
        merge: impl Fn(&mut S, &S),
    ) {
        loop {
            let mut changed = false;
            let keys: Vec<FnKey> = summaries.keys().copied().collect();
            for key in keys {
                let Some(mut s) = summaries.get(&key).cloned() else {
                    continue;
                };
                for name in self.calls_of(key) {
                    for &target in self.resolve(name) {
                        if target == key {
                            continue;
                        }
                        if let Some(t) = summaries.get(&target) {
                            merge(&mut s, t);
                        }
                    }
                }
                if summaries.get(&key) != Some(&s) {
                    summaries.insert(key, s);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
    }

    /// Forward closure: every function reachable caller→callee from the
    /// given roots (roots included).
    pub fn reachable_from(&self, roots: impl Iterator<Item = FnKey>) -> BTreeSet<FnKey> {
        let mut seen: BTreeSet<FnKey> = roots.collect();
        let mut work: Vec<FnKey> = seen.iter().copied().collect();
        while let Some(key) = work.pop() {
            for name in self.calls_of(key) {
                for &target in self.resolve(name) {
                    if seen.insert(target) {
                        work.push(target);
                    }
                }
            }
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_fn_spans_and_skips_pointer_types() {
        let src = "fn outer() { inner(); fn inner() {} }\nstruct S(fn(u32) -> u32);\nfn tail() {}";
        let spans = fn_spans(src);
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["outer", "inner", "tail"]);
        let nested = nested_ranges(&spans, 0);
        assert_eq!(nested.len(), 1);
        assert!(nested[0].0 > spans[0].body_start && nested[0].1 <= spans[0].body_end);
    }

    #[test]
    fn line_mapping_round_trips() {
        let src = "a\nbb\nccc\n";
        let starts = line_start_offsets(src);
        assert_eq!(line_of(&starts, 0), 1);
        assert_eq!(line_of(&starts, 2), 2);
        assert_eq!(line_of(&starts, 5), 3);
    }

    #[test]
    fn parses_tool_specific_annotations() {
        let raw = "// hotlint: allow(hot-alloc): bounded by shard count\n\
                   // locklint: allow(lock-order, fn): audited\n\
                   // hotlint: allow(broken";
        let hot = parse_annotations(raw, "hotlint");
        assert_eq!(hot.len(), 2);
        assert_eq!(hot[0].rule, "hot-alloc");
        assert!(!hot[0].fn_level);
        assert_eq!(hot[0].reason, "bounded by shard count");
        assert_eq!(hot[1].rule, "", "malformed annotation surfaces");
        let lock = parse_annotations(raw, "locklint");
        assert_eq!(lock.len(), 1);
        assert!(lock[0].fn_level);
    }

    #[test]
    fn fixpoint_and_reachability_propagate_over_name_union() {
        // a -> b -> c, and an unrelated d also named "b" is unioned in.
        let graph = Graph::build(
            vec![
                ((0, 0), "a".to_string(), vec!["b".to_string()]),
                ((0, 1), "b".to_string(), vec!["c".to_string()]),
                ((1, 0), "b".to_string(), vec![]),
                ((1, 1), "c".to_string(), vec![]),
            ]
            .into_iter(),
        );
        let mut summaries: BTreeMap<FnKey, bool> = BTreeMap::new();
        summaries.insert((0, 0), false);
        summaries.insert((0, 1), false);
        summaries.insert((1, 0), false);
        summaries.insert((1, 1), true); // c has the property directly
        graph.fixpoint(&mut summaries, |s, t| *s |= *t);
        assert!(summaries[&(0, 1)], "b absorbs c");
        assert!(summaries[&(0, 0)], "a absorbs b absorbs c");
        assert!(!summaries[&(1, 0)], "the other `b` stays clean");

        let hot = graph.reachable_from([(0, 0)].into_iter());
        // Name union: `a` calls *both* functions named b, then c.
        assert_eq!(hot.len(), 4);
    }
}
