//! The traced run's span recorder.
//!
//! Spans are recorded by the benchmark around its calls into each
//! layer's public functions — the program itself is not instrumented
//! further. Each span keeps its name, start, end, parent and epoch in
//! memory; they are written out once, when the run ends, and a layer's
//! self time is its span's duration minus the part its children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use dam_obs::{Clock, WallClock};

/// One closed (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name.
    pub name: &'static str,
    /// Start on the recorder's wall clock (ns).
    pub start_ns: u64,
    /// End on the recorder's wall clock (ns; equals `start_ns` while open).
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Epoch (the request id: every span of one publish shares it).
    pub epoch: u64,
}

/// An in-memory span recorder over one wall clock.
#[derive(Debug)]
pub struct Tracer<'c> {
    clock: &'c WallClock,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl<'c> Tracer<'c> {
    /// An empty recorder reading `clock`.
    pub fn new(clock: &'c WallClock) -> Self {
        Self { clock, spans: Vec::new(), open: Vec::new() }
    }

    /// Opens a span under the innermost open one; returns its index.
    pub fn open(&mut self, name: &'static str, epoch: u64) -> usize {
        let now = self.clock.now_ns();
        let parent = self.open.last().copied();
        self.spans.push(Span { name, start_ns: now, end_ns: now, parent, epoch });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes the innermost open span, which must be `idx`.
    pub fn close(&mut self, idx: usize) {
        let now = self.clock.now_ns();
        assert_eq!(self.open.pop(), Some(idx), "spans close innermost first");
        self.spans[idx].end_ns = now;
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, epoch: u64, f: impl FnOnce() -> T) -> T {
        let idx = self.open(name, epoch);
        let out = f();
        self.close(idx);
        out
    }

    /// Every span's self time (duration minus its children's), by index.
    fn self_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c))
            .collect()
    }

    /// Per epoch: the summed self time (ns) of every span named `name`.
    pub fn self_by_epoch(&self, name: &str) -> BTreeMap<u64, f64> {
        let mut out = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            if s.name == name {
                *out.entry(s.epoch).or_insert(0.0) += own as f64;
            }
        }
        out
    }

    /// Per epoch: the durations (ns) of every span named `name`, in order.
    pub fn durations_by_epoch(&self, name: &str) -> BTreeMap<u64, Vec<f64>> {
        let mut out: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            out.entry(s.epoch).or_default().push((s.end_ns - s.start_ns) as f64);
        }
        out
    }

    /// The spans as a JSON array of `[name, start_ns, end_ns, parent, epoch]`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ =
                write!(out, "[\"{}\",{},{},{},{}]", s.name, s.start_ns, s.end_ns, parent, s.epoch);
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let clock = WallClock::new();
        let mut t = Tracer::new(&clock);
        let root = t.open("publish", 3);
        t.span("em", 3, || std::hint::black_box((0..10_000u64).sum::<u64>()));
        t.close(root);
        let root_self = t.self_by_epoch("publish")[&3];
        let em = t.durations_by_epoch("em")[&3][0];
        let total = (t.spans[0].end_ns - t.spans[0].start_ns) as f64;
        assert_eq!(root_self + em, total);
        assert_eq!(t.spans[1].parent, Some(0));
    }
}
