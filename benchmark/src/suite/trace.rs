//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name (the layer it enters), a start, an end, the span that
//! caused it and the request or repetition it belongs to. Spans stay in
//! memory until the run ends. A layer's self time is its span's duration
//! minus the part of that interval its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded call into a layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer entered, e.g. `core.verify.verify`.
    pub name: &'static str,
    /// Nanoseconds from the tracer's origin to the call.
    pub start_ns: u64,
    /// Nanoseconds from the tracer's origin to the return.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    /// Request or repetition id shared by the spans of one unit of work.
    pub req: u64,
}

/// Per-thread span recorder. Off, it calls straight through.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A recorder measuring from `origin`; records only while `on`.
    pub fn new(on: bool, origin: Instant) -> Self {
        Self {
            on,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turns recording on or off between units of work.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span on this tracer.
    pub fn span<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            req,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx as usize].end_ns = self.origin.elapsed().as_nanos() as u64;
        out
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Concatenates per-thread span lists, re-basing parent indices.
pub fn merge(threads: Vec<Vec<Span>>) -> Vec<Span> {
    let mut all = Vec::with_capacity(threads.iter().map(Vec::len).sum());
    for spans in threads {
        let base = all.len() as u32;
        all.extend(spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    all
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals (clipped to the span).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut upto = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(upto);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    upto = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Calls, total time and self time of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTime {
    /// Spans recorded under the name.
    pub calls: u64,
    /// Sum of durations.
    pub total_ns: u64,
    /// Sum of self times.
    pub self_ns: u64,
}

/// Aggregates spans by name.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name).or_default();
        e.calls += 1;
        e.total_ns += s.end_ns - s.start_ns;
        e.self_ns += self_ns;
    }
    out
}

/// Spans written per trace file; a serving run records a few per request,
/// so the file holds the first ones and the per-name totals of all.
pub const MAX_SPANS_IN_FILE: usize = 50_000;

/// Renders the trace document: per-name totals over every span, then up to
/// [`MAX_SPANS_IN_FILE`] spans.
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"total_spans\":{},\"layers\":{{",
        spans.len()
    );
    for (i, (name, t)) in by_name(spans).iter().enumerate() {
        let _ = write!(
            out,
            "{}\"{name}\":{{\"calls\":{},\"total_ns\":{},\"self_ns\":{}}}",
            if i > 0 { "," } else { "" },
            t.calls,
            t.total_ns,
            t.self_ns
        );
    }
    out.push_str("},\"spans\":[");
    for (i, s) in spans.iter().take(MAX_SPANS_IN_FILE).enumerate() {
        let _ = write!(
            out,
            "{}{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"req\":{}}}",
            if i > 0 { "," } else { "" },
            s.name,
            s.start_ns,
            s.end_ns,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.req
        );
    }
    out.push_str("]}\n");
    out
}

/// Writes the trace document to `path`, creating its directory.
pub fn write_file(path: &Path, workload: &str, seed: u64, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, to_json(workload, seed, spans))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("rep", 0, 100, None),
            span("a", 10, 40, Some(0)),
            // Overlaps `a` by 10 ns: the covered part is 10..60, not 30 + 30.
            span("b", 30, 60, Some(0)),
            span("leaf", 12, 20, Some(1)),
            // Sticks out past its parent: clipped at 100.
            span("c", 90, 120, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![100 - 50 - 10, 30 - 8, 30, 8, 30]);
        let agg = by_name(&spans);
        assert_eq!(agg["rep"].total_ns, 100);
        assert_eq!(agg["rep"].self_ns, 40);
        assert_eq!(agg["a"].calls, 1);
    }

    #[test]
    fn tracer_nests_and_switches_off() {
        let mut t = Tracer::new(true, Instant::now());
        let v = t.span("outer", 7, |t| t.span("inner", 7, |_| 5) + 1);
        assert_eq!(v, 6);
        t.set_on(false);
        assert_eq!(t.span("ignored", 8, |_| 1), 1);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", None));
        assert_eq!((spans[1].name, spans[1].parent), ("inner", Some(0)));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(spans[1].req, 7);
    }

    #[test]
    fn merge_rebases_parents_and_json_parses() {
        let a = vec![span("x", 0, 10, None), span("y", 1, 2, Some(0))];
        let b = vec![span("x", 0, 10, None), span("y", 3, 4, Some(0))];
        let all = merge(vec![a, b]);
        assert_eq!(all[3].parent, Some(2));
        let doc = ssj_io::json::parse(to_json("w", 1, &all).trim()).expect("trace is json");
        let obj = doc.as_object().expect("object");
        assert_eq!(obj["total_spans"].as_u64().unwrap(), 4);
        assert_eq!(obj["spans"].as_array().unwrap().len(), 4);
        let layers = obj["layers"].as_object().unwrap();
        assert_eq!(
            layers["x"].as_object().unwrap()["self_ns"]
                .as_u64()
                .unwrap(),
            18
        );
    }
}
