//! One engine for the interprocedural lint passes (`locklint`, `hotlint`):
//! one table-driven extractor, one driver, one report.
//!
//! **Extractor** ([`extract_file`]). Source is masked (comments, strings
//! and `#[cfg(test)]` regions blanked, line- and byte-preserving — see
//! `scan.rs`), split into function spans ([`crate::callgraph::fn_spans`]),
//! and each body is scanned once into an ordered [`Event`] list. The scan
//! is the same for every pass: nested fns are skipped (they are their own
//! functions), brace depth, loop bodies and statement starts are tracked,
//! iterator adapters (`.map(` …) open a per-item context, and every
//! identifier followed by `(` is classified. What differs between passes
//! is data — a static [`Table`] mapping tokens onto event [`Kind`]s, the
//! dotted method names cut from call resolution, and two switches
//! (`drop(guard)` releases, constructor-name cut).
//!
//! **Driver** ([`run_pass`]). Collects the files under [`SCAN_DIRS`],
//! extracts them, checks annotation hygiene, runs the pass's analysis,
//! partitions its findings into suppressed and surviving, and sorts both.
//!
//! **Annotations.** Deliberate violations are suppressed in-source, next
//! to the code they justify, with a mandatory written reason:
//!
//! ```text
//! // <tool>: allow(<rule>): reason…          (this + next line)
//! // <tool>: allow(<rule>, fn): reason…      (whole enclosing fn)
//! ```
//!
//! An unknown rule or an empty reason is itself a finding (the pass's
//! annotation rule), and a pass may ban annotations in `crates/core`
//! outright ([`Pass::core_ban`]).
//!
//! **Report** ([`Report`]). One shape for all passes: surviving findings,
//! suppressed findings with their reasons, scan size, and the pass's own
//! counter; rendered as the summary text or as one line of JSON.

use crate::callgraph::{
    fn_spans, is_ident, let_binding, line_of, line_start_offsets, nested_ranges, parse_annotations,
    single_ident_arg, Annotation, FnKey, FnSpan, Graph, ITER_MARKERS, KEYWORDS,
};
use crate::scan::{mask_non_code, strip_test_regions};
use crate::{rel, rs_files, LintError, Violation};
use std::fmt::{self, Write as _};
use std::path::Path;

/// Source directories every pass analyzes: the concurrent, durable and
/// serving subsystems and everything they call into. (`xtask` itself and
/// the offline `compat/` shims are out of scope.)
pub const SCAN_DIRS: [&str; 6] = [
    "crates/core/src",
    "crates/io/src",
    "crates/store/src",
    "crates/server/src",
    "crates/extern/src",
    "crates/cluster/src",
];

/// What a matched token means. One vocabulary for all passes: each pass's
/// [`Table`] maps its tokens onto the kinds its analysis reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Lock acquisition (locklint).
    Acquire {
        /// Index into `locklint::CLASSES`.
        class: usize,
        /// Acquisition mode, for messages (`read` / `write` / `lock`).
        mode: &'static str,
    },
    /// Blocking operation, with a human description (`fsync`).
    Block(&'static str),
    /// Heap allocation.
    Alloc,
    /// Copy of a (potentially) heap-owning value.
    Clone,
}

/// One pass's token vocabulary.
#[derive(Debug)]
pub struct Table {
    /// Tokens in match order (first hit wins). An entry starting with `.`
    /// is a method chain matched at the dot (`.sync_all(`); any other is a
    /// bare name matched as a call (`sleep(`).
    pub tokens: &'static [&'static [(&'static str, Kind)]],
    /// Type names matched as `Type::{new,with_capacity,from,default}(`.
    pub ctors: &'static [(&'static str, Kind)],
    /// Macro names matched as `name!`.
    pub macros: &'static [(&'static str, Kind)],
    /// Dotted method names never resolved as workspace calls.
    pub call_cut: &'static [&'static [&'static str]],
    /// `drop(<ident>)` releases a bound guard.
    pub releases: bool,
    /// Constructor-convention names ([`is_ctor_name`]) are never calls.
    pub cut_ctor_names: bool,
}

/// Where a token matched, with the context analyses classify it by.
#[derive(Debug, Clone)]
pub struct Site {
    /// 1-based source line.
    pub line: usize,
    /// Brace depth (1 = body top level).
    pub depth: usize,
    /// Lexically inside a loop body or a braced iterator-adapter closure.
    pub in_loop: bool,
    /// An iterator adapter (`.map(` …) precedes the token on its line.
    pub after_adapter: bool,
    /// `Some(` or `.push(` precedes the token on its line.
    pub stored: bool,
    /// The statement's `let` binding, if the token is bound by one.
    pub binding: Option<String>,
}

/// One ordered occurrence inside a function body.
#[derive(Debug, Clone)]
pub enum Event {
    /// A table token matched.
    Token {
        /// What it means.
        kind: Kind,
        /// What matched (`Vec::new`, `collect`, `sleep`, …).
        what: String,
        /// Where, in context.
        site: Site,
    },
    /// A call to a (possible) workspace function; resolution is by name.
    Call {
        /// Callee name as written.
        name: String,
        /// 1-based source line.
        line: usize,
    },
    /// `drop(<ident>)` (only when [`Table::releases`] is set).
    Release {
        /// The dropped identifier.
        binding: String,
    },
    /// `;`.
    StatementEnd,
    /// `}`.
    ScopeEnd {
        /// Depth after the closing brace.
        to_depth: usize,
    },
}

/// A function found in a file, with its extracted event list.
#[derive(Debug)]
pub struct FnInfo {
    /// Function name as written after `fn`.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub start_line: usize,
    /// 1-based first and last line of the body (inclusive).
    pub body_lines: (usize, usize),
    /// Events of the body in source order (nested fns excluded).
    pub events: Vec<Event>,
}

impl FnInfo {
    /// Whether `line` falls inside this function (signature or body).
    pub fn contains_line(&self, line: usize) -> bool {
        line >= self.start_line && line <= self.body_lines.1
    }

    /// Names of the calls in the body, in order.
    pub fn calls(&self) -> impl Iterator<Item = &str> {
        self.events.iter().filter_map(|ev| match ev {
            Event::Call { name, .. } => Some(name.as_str()),
            _ => None,
        })
    }
}

/// Extraction result for one file.
#[derive(Debug)]
pub struct FileExtract {
    /// Repo-relative path.
    pub path: String,
    /// Functions with their event lists.
    pub fns: Vec<FnInfo>,
    /// The pass's suppression annotations (from raw comment lines).
    pub annotations: Vec<Annotation>,
}

/// Masks `raw`, finds its functions, and extracts their events plus the
/// file's annotations under `pass`.
pub fn extract_file(relpath: &str, raw: &str, pass: &Pass) -> FileExtract {
    let masked = strip_test_regions(&mask_non_code(raw));
    let line_starts = line_start_offsets(&masked);
    let spans = fn_spans(&masked);
    let table = &pass.table;

    let fns = spans
        .iter()
        .enumerate()
        .map(|(i, span)| FnInfo {
            name: span.name.clone(),
            start_line: line_of(&line_starts, span.kw_pos),
            body_lines: (
                line_of(&line_starts, span.body_start),
                line_of(&line_starts, span.body_end.saturating_sub(1)),
            ),
            events: Scanner::new(&masked, &line_starts, table, span).run(&nested_ranges(&spans, i)),
        })
        .collect();

    FileExtract {
        path: relpath.to_string(),
        fns,
        annotations: parse_annotations(raw, pass.tool),
    }
}

/// Whether a callee name follows the constructor convention (`new`,
/// `default`, `from`, `build`, `restore`, `with_*`). Schemes, indexes and
/// stores are built at setup time, and the name-union resolver maps
/// `Foo::new(…)` onto *every* workspace `fn new` — so hotlint cuts these
/// names from call resolution entirely.
pub fn is_ctor_name(name: &str) -> bool {
    matches!(name, "new" | "default" | "from" | "build" | "restore") || name.starts_with("with_")
}

/// The body scan of one function.
struct Scanner<'a> {
    masked: &'a str,
    line_starts: &'a [usize],
    table: &'a Table,
    end: usize,
    depth: usize,
    /// Depths of the open loop / iterator-closure bodies.
    loop_depths: Vec<usize>,
    /// A loop keyword or iterator adapter was seen; the next `{` opens a
    /// loop body.
    pending_loop: bool,
    stmt_start: usize,
    events: Vec<Event>,
}

impl<'a> Scanner<'a> {
    fn new(masked: &'a str, line_starts: &'a [usize], table: &'a Table, span: &FnSpan) -> Self {
        Scanner {
            masked,
            line_starts,
            table,
            end: span.body_end.saturating_sub(1),
            depth: 1, // inside the body's `{`
            loop_depths: Vec::new(),
            pending_loop: false,
            stmt_start: span.body_start + 1,
            events: Vec::new(),
        }
    }

    fn run(mut self, skip: &[(usize, usize)]) -> Vec<Event> {
        let bytes = self.masked.as_bytes();
        let mut i = self.stmt_start;
        while i < self.end {
            if let Some(&(_, skip_end)) = skip.iter().find(|&&(s, e)| i >= s && i < e) {
                i = skip_end;
                self.stmt_start = i;
                continue;
            }
            let b = bytes[i];
            i = match b {
                b'{' => {
                    self.depth += 1;
                    if self.pending_loop {
                        self.loop_depths.push(self.depth);
                        self.pending_loop = false;
                    }
                    self.stmt_start = i + 1;
                    i + 1
                }
                b'}' => {
                    self.depth = self.depth.saturating_sub(1);
                    while self.loop_depths.last().is_some_and(|&d| d > self.depth) {
                        self.loop_depths.pop();
                    }
                    self.events.push(Event::ScopeEnd {
                        to_depth: self.depth,
                    });
                    self.stmt_start = i + 1;
                    i + 1
                }
                b';' => {
                    self.events.push(Event::StatementEnd);
                    self.stmt_start = i + 1;
                    self.pending_loop = false;
                    i + 1
                }
                b'.' => self.chain(i),
                _ if is_ident(b) && !b.is_ascii_digit() && (i == 0 || !is_ident(bytes[i - 1])) => {
                    self.word(i)
                }
                _ => i + 1,
            };
        }
        self.events
    }

    /// At a `.`: an iterator adapter or a chain token. Returns the next
    /// scan position.
    fn chain(&mut self, i: usize) -> usize {
        let rest = &self.masked[i..self.end];
        if let Some(marker) = ITER_MARKERS.iter().find(|m| rest.starts_with(**m)) {
            // A braced adapter closure runs once per item: a loop context.
            self.pending_loop = true;
            return i + marker.len();
        }
        let mut tokens = self.table.tokens.iter().flat_map(|t| t.iter());
        match tokens.find(|(pat, _)| rest.starts_with(pat)) {
            Some(&(pat, kind)) => {
                let what = pat
                    .trim_start_matches('.')
                    .trim_end_matches(['(', ':', '<']);
                self.token(kind, what.to_string(), i);
                i + pat.len()
            }
            None => i + 1,
        }
    }

    /// At the start of an identifier. Returns the next scan position.
    fn word(&mut self, start: usize) -> usize {
        let (masked, table, end) = (self.masked, self.table, self.end);
        let bytes = masked.as_bytes();
        let mut j = start;
        while j < end && is_ident(bytes[j]) {
            j += 1;
        }
        let word = &masked[start..j];
        if matches!(word, "for" | "while" | "loop") {
            self.pending_loop = true;
            return j;
        }
        if KEYWORDS.contains(&word) {
            return j;
        }
        if let Some(kind) = lookup(table.ctors, word) {
            if let Some(ctor) = ctor_suffix(&masked[j..end]) {
                self.token(kind, format!("{word}::{ctor}"), start);
                return j;
            }
        }
        // The next non-whitespace byte decides what this ident is.
        let mut k = j;
        while k < end && bytes[k].is_ascii_whitespace() {
            k += 1;
        }
        let next = if k < end { bytes[k] } else { 0 };
        if next == b'!' {
            if let Some(kind) = lookup(table.macros, word) {
                self.token(kind, format!("{word}!"), start);
            }
            return j;
        }
        if next != b'(' {
            return j;
        }
        if table.releases && word == "drop" {
            if let Some(binding) = single_ident_arg(masked, k, end) {
                self.events.push(Event::Release { binding });
                return j;
            }
        }
        if let Some(kind) = token_named(table, word) {
            self.token(kind, word.to_string(), start);
            return j;
        }
        let dotted = start > 0 && bytes[start - 1] == b'.';
        let cut = (dotted && table.call_cut.iter().any(|c| c.contains(&word)))
            || (table.cut_ctor_names && is_ctor_name(word))
            // Type constructor / enum variant, not a workspace fn.
            || word.starts_with(|c: char| c.is_ascii_uppercase());
        if !cut {
            self.events.push(Event::Call {
                name: word.to_string(),
                line: line_of(self.line_starts, start),
            });
        }
        j
    }

    /// Records a token matched at byte `pos`.
    fn token(&mut self, kind: Kind, what: String, pos: usize) {
        let line = line_of(self.line_starts, pos);
        let prefix = &self.masked[self.line_starts[line - 1]..pos];
        let site = Site {
            line,
            depth: self.depth,
            in_loop: !self.loop_depths.is_empty(),
            after_adapter: ITER_MARKERS.iter().any(|m| prefix.contains(m)),
            stored: prefix.contains("Some(") || prefix.contains(".push("),
            binding: let_binding(&self.masked[self.stmt_start..pos]),
        };
        self.events.push(Event::Token { kind, what, site });
    }
}

fn lookup(entries: &[(&str, Kind)], word: &str) -> Option<Kind> {
    entries.iter().find(|&&(w, _)| w == word).map(|&(_, k)| k)
}

/// The kind of a bare-name entry in [`Table::tokens`].
fn token_named(table: &Table, name: &str) -> Option<Kind> {
    table.tokens.iter().find_map(|t| lookup(t, name))
}

/// If `after` (text following a type name) is `::ctor(`, the ctor name.
fn ctor_suffix(after: &str) -> Option<&'static str> {
    ["new", "with_capacity", "from", "default"]
        .into_iter()
        .find(|ctor| {
            after
                .strip_prefix("::")
                .and_then(|r| r.strip_prefix(ctor))
                .is_some_and(|r| r.starts_with('('))
        })
}

/// Every function of the scanned file set with its key and file.
pub fn each_fn(files: &[FileExtract]) -> impl Iterator<Item = (FnKey, &FileExtract, &FnInfo)> {
    files.iter().enumerate().flat_map(|(fi, file)| {
        file.fns
            .iter()
            .enumerate()
            .map(move |(gi, f)| ((fi, gi), file, f))
    })
}

/// The name-union call graph over the scanned file set.
pub fn call_graph(files: &[FileExtract]) -> Graph {
    Graph::build(
        each_fn(files)
            .map(|(key, _, f)| (key, f.name.clone(), f.calls().map(str::to_string).collect())),
    )
}

/// The justified annotation for `rule` that covers `line` in `file`, if
/// any. A line-level annotation covers its own line and the next; an
/// fn-level annotation covers every line of the function containing it.
pub fn suppressing_annotation<'a>(
    file: &'a FileExtract,
    rule: &str,
    line: usize,
) -> Option<&'a Annotation> {
    file.annotations.iter().find(|ann| {
        ann.rule == rule
            && !ann.reason.is_empty()
            && if ann.fn_level {
                file.fns
                    .iter()
                    .any(|f| f.contains_line(ann.line) && f.contains_line(line))
            } else {
                line == ann.line || line == ann.line + 1
            }
    })
}

/// What a pass's analysis found, before annotation suppression.
#[derive(Debug, Default)]
pub struct Analysis {
    /// Raw findings.
    pub findings: Vec<Violation>,
    /// The pass's own counter ([`Pass::counter`]); 0 if it has none.
    pub counter: usize,
}

/// One lint pass: its vocabulary, its rules, and its analysis.
#[derive(Debug)]
pub struct Pass {
    /// Subcommand and annotation marker (`// <tool>: allow(…)`).
    pub tool: &'static str,
    /// The analysis rules an annotation may suppress.
    pub rules: &'static [&'static str],
    /// Rule id of a malformed annotation.
    pub annotation_rule: &'static str,
    /// Rule id and reason for banning every annotation in `crates/core`.
    pub core_ban: Option<(&'static str, &'static str)>,
    /// The token vocabulary.
    pub table: Table,
    /// Summaries, propagation and rule evaluation over the extracted files.
    pub analyze: fn(&[FileExtract]) -> Analysis,
    /// JSON key and summary label of [`Analysis::counter`].
    pub counter: Option<(&'static str, &'static str)>,
}

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

/// Everything one pass run produced.
#[derive(Debug)]
pub struct Report {
    /// The pass that ran.
    pub pass: &'static Pass,
    /// Surviving (un-suppressed) findings, sorted by path/line/rule.
    pub findings: Vec<Violation>,
    /// Findings a written annotation suppressed.
    pub suppressed: Vec<SuppressedFinding>,
    /// Files analyzed.
    pub files: usize,
    /// Functions summarized.
    pub functions: usize,
    /// The pass's own counter (hot functions).
    pub counter: usize,
}

/// Runs `pass` over the workspace at `root`.
pub fn run_pass(root: &Path, pass: &'static Pass) -> Result<Report, LintError> {
    let mut files = Vec::new();
    for dir in SCAN_DIRS {
        let abs = root.join(dir);
        if !abs.is_dir() {
            continue;
        }
        for file in rs_files(&abs)? {
            files.push(extract_file(&rel(root, &file), &crate::read(&file)?, pass));
        }
    }

    let mut findings = Vec::new();
    for file in &files {
        for ann in &file.annotations {
            let mut flag = |rule, message| {
                findings.push(Violation {
                    rule,
                    path: file.path.clone(),
                    line: ann.line,
                    message,
                })
            };
            if let Some((rule, why)) = pass.core_ban {
                if file.path.starts_with("crates/core/") {
                    flag(
                        rule,
                        format!(
                            "{} annotation in ssj-core (suppresses `{}`); {why}",
                            pass.tool, ann.rule
                        ),
                    );
                }
            }
            if !pass.rules.contains(&ann.rule.as_str()) {
                flag(
                    pass.annotation_rule,
                    format!(
                        "annotation names unknown rule `{}` (expected one of: {})",
                        ann.rule,
                        pass.rules.join(", ")
                    ),
                );
            }
            if ann.reason.is_empty() {
                flag(
                    pass.annotation_rule,
                    "annotation has no written justification after `):` — \
                     suppressions are documentation, not magic"
                        .to_string(),
                );
            }
        }
    }

    let analysis = (pass.analyze)(&files);
    let mut suppressed = Vec::new();
    for finding in analysis.findings {
        let ann = files
            .iter()
            .find(|f| f.path == finding.path)
            .and_then(|f| suppressing_annotation(f, finding.rule, finding.line));
        match ann {
            Some(ann) => suppressed.push(SuppressedFinding {
                rule: finding.rule,
                path: finding.path,
                line: finding.line,
                reason: ann.reason.clone(),
                message: finding.message,
            }),
            None => findings.push(finding),
        }
    }

    findings.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    findings.dedup();
    suppressed.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    suppressed.dedup();

    Ok(Report {
        pass,
        findings,
        suppressed,
        files: files.len(),
        functions: files.iter().map(|f| f.fns.len()).sum(),
        counter: analysis.counter,
    })
}

impl Report {
    /// Machine-readable report: findings, suppressions with their reasons,
    /// scan size, and the pass's counter — the auditable suppression list.
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
            "],\"files\":{},\"functions\":{}",
            self.files, self.functions
        );
        if let Some((key, _)) = self.pass.counter {
            let _ = write!(out, ",\"{key}\":{}", self.counter);
        }
        out.push('}');
        out
    }
}

/// One line per surviving finding, then the summary line.
impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for v in &self.findings {
            writeln!(f, "{v}")?;
        }
        write!(
            f,
            "xtask {}: {} finding(s), {} suppressed by annotation ({} file(s), {} function(s)",
            self.pass.tool,
            self.findings.len(),
            self.suppressed.len(),
            self.files,
            self.functions
        )?;
        if let Some((_, label)) = self.pass.counter {
            write!(f, ", {} {label}", self.counter)?;
        }
        writeln!(f, ")")
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{hotlint, locklint};

    /// `(kind, line)` of every token, `(name, line)` of every call, and the
    /// number of releases.
    type Scanned = (Vec<(Kind, usize)>, Vec<(String, usize)>, usize);

    /// The events of the first function of `src` under `pass`.
    fn scan(src: &str, pass: &Pass) -> Scanned {
        let file = extract_file("crates/server/src/lib.rs", src, pass);
        let (mut tokens, mut calls, mut releases) = (Vec::new(), Vec::new(), 0);
        for ev in &file.fns[0].events {
            match ev {
                Event::Token { kind, site, .. } => tokens.push((*kind, site.line)),
                Event::Call { name, line } => calls.push((name.clone(), *line)),
                Event::Release { .. } => releases += 1,
                _ => {}
            }
        }
        (tokens, calls, releases)
    }

    #[test]
    fn tables_draw_the_pass_boundaries() {
        let src = "\
fn f(g: G, p: &Path) {
    let all = lock_all_read(&shards);
    atomic_write_durable(p, b);
    let v = Vec::new();
    drop(g);
    let s = Foo::new(1);
}
";
        let (lock_tokens, lock_calls, lock_releases) = scan(src, &locklint::PASS);
        let (hot_tokens, hot_calls, hot_releases) = scan(src, &hotlint::PASS);
        let call = |name: &str, line| (name.to_string(), line);

        // `lock_all_read(` acquires for locklint, is a plain call for hotlint.
        assert!(matches!(lock_tokens[0], (Kind::Acquire { .. }, 2)));
        assert!(hot_calls.contains(&call("lock_all_read", 2)));
        assert!(!hot_tokens.iter().any(|t| t.1 == 2));

        // `atomic_write_durable(` is a plain call for locklint.
        assert!(lock_calls.contains(&call("atomic_write_durable", 3)));

        // `Vec::new(` allocates only for hotlint.
        assert!(hot_tokens.contains(&(Kind::Alloc, 4)));
        assert!(!lock_tokens.iter().any(|t| t.1 == 4), "{lock_tokens:?}");

        // `drop(g)` releases only for locklint.
        assert_eq!((lock_releases, hot_releases), (1, 0));
        assert!(!lock_calls.iter().any(|c| c.0 == "drop"));
        assert!(hot_calls.contains(&call("drop", 5)));

        // `Foo::new(` is cut by hotlint, a call for locklint.
        assert!(lock_calls.contains(&call("new", 6)));
        assert!(!hot_calls.iter().any(|c| c.0 == "new"));
    }
}
