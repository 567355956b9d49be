//! In-memory span recorder for the traced run.
//!
//! A span is one call from the benchmark into a layer of the program:
//! its name (`<layer>.<call>`, e.g. `profiler.profile`), start, end, the
//! span that was open around it, and the id of the operation it belongs
//! to. Counts (micro-ops profiled, points evaluated, ...) are recorded at
//! the same boundaries so ratios are measured where the work happens.
//! Spans stay in memory and are summarized, and optionally written out,
//! when the run ends. With recording off, [`Spans::span`] only calls its
//! closure.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// The program's layers, in pipeline order. A span belongs to the layer
/// named before the first `.` of its name.
pub const LAYERS: [&str; 7] = [
    "workloads",
    "trace",
    "profiler",
    "core",
    "sim",
    "docs",
    "serve",
];

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start: u64,
    /// Nanoseconds since the recorder was created.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Operation id: 0 for set-up, then one per timed operation.
    pub op: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end - self.start) as f64 * 1e-9
    }

    /// The layer this span's time is attributed to.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Span and count recorder.
#[derive(Debug)]
pub struct Spans {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
    /// `(name, n, spans recorded before it)`, so a summary from a mark
    /// takes the counts made after it.
    counts: Vec<(&'static str, f64, usize)>,
}

impl Spans {
    /// A recorder; `on == false` records nothing.
    pub fn new(on: bool) -> Self {
        Spans {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            counts: Vec::new(),
        }
    }

    /// Whether calls are being recorded.
    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Turns recording on or off (the traced run alternates rounds).
    pub fn set_enabled(&mut self, on: bool) {
        self.on = on;
    }

    /// Starts the next operation; later spans carry its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`. The closure receives the
    /// recorder so it can open child spans.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let index = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end = self.now();
        out
    }

    /// Adds `n` to the count `name` (only while recording).
    pub fn count(&mut self, name: &'static str, n: f64) {
        if self.on {
            self.counts.push((name, n, self.spans.len()));
        }
    }

    /// Spans recorded so far (a mark for [`Spans::since`]).
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Summary of the spans recorded from `mark` on.
    pub fn since(&self, mark: usize) -> Summary {
        let mut sum = Summary::of(&self.spans[mark..], mark);
        for &(name, n, at) in &self.counts {
            if at >= mark {
                *sum.counts.entry(name).or_insert(0.0) += n;
            }
        }
        sum
    }

    /// The spans as JSON lines (`name`, `start_ns`, `end_ns`, `parent`,
    /// `op`), for offline inspection.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start, s.end, s.op
            );
        }
        out
    }
}

/// Totals over a run of spans: per name (time, calls), per layer self
/// time (a span's duration minus the part its direct children cover), and
/// the counts recorded alongside.
#[derive(Debug, Default, Clone)]
pub struct Summary {
    by_name: BTreeMap<&'static str, (f64, usize)>,
    counts: BTreeMap<&'static str, f64>,
    self_by_layer: BTreeMap<&'static str, f64>,
    top_level: f64,
}

impl Summary {
    fn of(spans: &[Span], offset: usize) -> Summary {
        let mut sum = Summary::default();
        let mut child_secs = vec![0.0; spans.len()];
        for s in spans {
            if let Some(p) = s.parent.and_then(|p| p.checked_sub(offset)) {
                child_secs[p] += s.secs();
            }
        }
        for (s, children) in spans.iter().zip(&child_secs) {
            let entry = sum.by_name.entry(s.name).or_insert((0.0, 0));
            entry.0 += s.secs();
            entry.1 += 1;
            *sum.self_by_layer.entry(s.layer()).or_insert(0.0) += s.secs() - children;
            if s.parent.is_none_or(|p| p < offset) {
                sum.top_level += s.secs();
            }
        }
        sum
    }

    /// Total seconds in spans named `name`.
    pub fn secs(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(0.0, |e| e.0)
    }

    /// Number of spans named `name`.
    pub fn calls(&self, name: &str) -> usize {
        self.by_name.get(name).map_or(0, |e| e.1)
    }

    /// Mean seconds per span named `name` (0 when there is none).
    pub fn mean(&self, name: &str) -> f64 {
        match self.calls(name) {
            0 => 0.0,
            n => self.secs(name) / n as f64,
        }
    }

    /// The total of count `name` (0 when never recorded).
    pub fn count(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Self seconds attributed to `layer`.
    pub fn self_secs(&self, layer: &str) -> f64 {
        self.self_by_layer.get(layer).copied().unwrap_or(0.0)
    }

    /// Seconds covered by spans with no enclosing span in this summary.
    pub fn covered(&self) -> f64 {
        self.top_level
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut spans = Spans::new(true);
        spans.span("serve.cold", |s| {
            s.span("serve.upload", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            std::thread::sleep(std::time::Duration::from_millis(1));
        });
        let sum = spans.since(0);
        assert_eq!(sum.calls("serve.cold"), 1);
        assert!(sum.self_secs("serve") <= sum.secs("serve.cold") + 1e-9);
        assert!((sum.covered() - sum.secs("serve.cold")).abs() < 1e-9);
        let lines = spans.to_json_lines();
        assert_eq!(lines.lines().count(), 2);
        assert!(lines.contains("\"parent\":0"));
    }

    #[test]
    fn off_records_nothing() {
        let mut spans = Spans::new(false);
        assert_eq!(spans.span("core.sweep", |_| 7), 7);
        spans.count("core.points", 3.0);
        assert_eq!(spans.mark(), 0);
        assert_eq!(spans.since(0).count("core.points"), 0.0);
    }
}
