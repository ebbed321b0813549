//! The benchmark's own spans, recorded around its calls into each layer
//! (the program itself is not instrumented here).
//!
//! A span has a name (`<layer>.<call>`), start and end on one monotonic
//! clock, a parent, and the run id. Spans stay in memory per thread and
//! are merged and written out once the run ends. A span's self time is
//! its duration minus the part of it that its children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub thread: usize,
}

impl Span {
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One thread's recorder. Its id tells recorders apart in the output:
/// 0 for the probes, `client + 1` for a closed-loop client, 101 and up
/// for the probes' concurrent clients.
pub struct Tracer {
    origin: Instant,
    thread: usize,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(origin: Instant, thread: usize) -> Tracer {
        Tracer {
            origin,
            thread,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`; spans opened by `f` nest under it.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            thread: self.thread,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Durations (ms) of every span called `name`, in record order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    }

    /// Append another thread's spans, re-basing their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time per span: duration minus the union of its children.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut iv: Vec<(u64, u64)> = children[i]
                .iter()
                .map(|&c| {
                    (
                        spans[c].start_ns.max(s.start_ns),
                        spans[c].end_ns.min(s.end_ns),
                    )
                })
                .filter(|(a, b)| b > a)
                .collect();
            iv.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in iv {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Roll-up of a trace: self time per layer, and the check that within
/// every root span the self times of its tree sum to no more than the
/// root's wall time.
pub struct Rollup {
    /// `layer → (self ms, span count)`.
    pub by_layer: BTreeMap<&'static str, (f64, usize)>,
    pub roots: usize,
    /// Roots whose tree's self times exceed the root's duration.
    pub overfull_roots: usize,
}

pub fn rollup(spans: &[Span]) -> Rollup {
    let selfs = self_times_ns(spans);
    let root_of = |mut i: usize| {
        while let Some(p) = spans[i].parent {
            i = p;
        }
        i
    };
    let mut by_layer: BTreeMap<&'static str, (f64, usize)> = BTreeMap::new();
    let mut tree_self: BTreeMap<usize, u64> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let e = by_layer.entry(s.layer()).or_default();
        e.0 += selfs[i] as f64 / 1e6;
        e.1 += 1;
        *tree_self.entry(root_of(i)).or_default() += selfs[i];
    }
    let overfull_roots = tree_self
        .iter()
        .filter(|(&r, &sum)| sum > spans[r].dur_ns())
        .count();
    Rollup {
        by_layer,
        roots: tree_self.len(),
        overfull_roots,
    }
}

/// The whole trace as JSON: run id, spans, and the per-layer roll-up.
pub fn to_json(run_id: u64, workload: &str, spans: &[Span], rollup: &Rollup) -> String {
    let mut o = String::new();
    let _ = write!(
        o,
        "{{\"run_id\":\"{run_id:016x}\",\"workload\":\"{workload}\",\"spans\":["
    );
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            o,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
             \"thread\":{},\"run_id\":\"{run_id:016x}\"}}",
            s.name, s.start_ns, s.end_ns, s.thread
        );
    }
    o.push_str("],\"self_ms_by_layer\":{");
    for (i, (layer, (ms, count))) in rollup.by_layer.iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        let _ = write!(o, "\"{layer}\":{{\"self_ms\":{ms},\"spans\":{count}}}");
    }
    o.push_str("}}\n");
    o
}
