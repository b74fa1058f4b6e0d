//! In-memory span recorder for the traced run.
//!
//! A span brackets one call into a layer's public function (or a batch of
//! calls too short to time one by one): name, start, end, parent span and
//! the run it belongs to. Spans stay in memory and are written out once,
//! when the benchmark ends.

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

use crate::stats;

/// Index of a span in its recorder.
pub type SpanId = usize;

/// One timed interval, in nanoseconds since the recorder's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<SpanId>,
    pub run: u64,
    /// Layer calls the span covers (1 unless a short call was batched).
    pub calls: u64,
}

/// Thread-safe span store. Worker threads of the sweep executor record
/// into the same recorder.
pub struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    #[must_use]
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the recorder was created.
    #[must_use]
    pub fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Opens a span; close it with [`Recorder::close`].
    pub fn open(&self, name: &'static str, parent: Option<SpanId>, run: u64) -> SpanId {
        let start = self.now();
        let mut spans = self
            .spans
            .lock()
            .expect("no recorder user panics while holding it");
        spans.push(Span {
            name,
            start,
            end: start,
            parent,
            run,
            calls: 1,
        });
        spans.len() - 1
    }

    /// Closes span `id` now, covering `calls` layer calls.
    pub fn close(&self, id: SpanId, calls: u64) {
        let end = self.now();
        let mut spans = self
            .spans
            .lock()
            .expect("no recorder user panics while holding it");
        spans[id].end = end;
        spans[id].calls = calls;
    }

    /// Runs `f` inside a span of one call.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        run: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, run);
        let r = f();
        self.close(id, 1);
        r
    }

    /// Every span recorded so far.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("no recorder user panics while holding it")
            .clone()
    }
}

/// Derived views over a finished span list.
pub struct SpanSet {
    spans: Vec<Span>,
    children: Vec<Vec<SpanId>>,
}

impl SpanSet {
    #[must_use]
    pub fn new(spans: Vec<Span>) -> Self {
        let mut children = vec![Vec::new(); spans.len()];
        for (i, s) in spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        SpanSet { spans, children }
    }

    /// Self time of span `id` in ns: its duration minus what its child
    /// spans cover.
    #[must_use]
    pub fn self_ns(&self, id: SpanId) -> u64 {
        let s = &self.spans[id];
        let kids: Vec<(u64, u64)> = self.children[id]
            .iter()
            .map(|&c| (self.spans[c].start, self.spans[c].end))
            .collect();
        stats::self_time(s.start, s.end, &kids)
    }

    /// Self time per call, in seconds, of every span named `name`.
    #[must_use]
    pub fn per_call_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| self.self_ns(i) as f64 * 1e-9 / s.calls.max(1) as f64)
            .collect()
    }

    /// Duration in seconds, children included, of every span named `name`.
    #[must_use]
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start) as f64 * 1e-9)
            .collect()
    }

    /// The spans as JSON lines.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
                 \"run\":{},\"calls\":{},\"self_ns\":{}}}",
                s.name,
                s.start,
                s.end,
                s.run,
                s.calls,
                self.self_ns(i)
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            run: 0,
            calls: 1,
        }
    }

    #[test]
    fn span_self_time_is_duration_minus_child_cover() {
        let set = SpanSet::new(vec![
            span("batch", 0, 1_000, None),
            span("cell", 100, 600, Some(0)),
            span("cell", 400, 900, Some(0)),
            span("new", 100, 200, Some(1)),
        ]);
        // Two overlapping workers cover [100, 900) of the batch.
        assert_eq!(set.self_ns(0), 200);
        assert_eq!(set.self_ns(1), 400);
        assert_eq!(set.self_ns(2), 500);
        assert_eq!(set.self_ns(3), 100);
        let cells = set.per_call_s("cell");
        assert_eq!(cells.len(), 2);
        assert!((cells[0] - 400e-9).abs() < 1e-15);
        assert!((set.durations_s("cell").iter().sum::<f64>() - 1000e-9).abs() < 1e-15);
    }

    #[test]
    fn batched_spans_divide_by_their_call_count() {
        let rec = Recorder::new();
        let id = rec.open("queue", None, 3);
        rec.close(id, 4);
        let mut spans = rec.spans();
        spans[0].end = spans[0].start + 400;
        let set = SpanSet::new(spans);
        assert!((set.per_call_s("queue")[0] - 100e-9).abs() < 1e-15);
        assert!(set
            .to_jsonl()
            .contains("\"run\":3,\"calls\":4,\"self_ns\":400"));
    }
}
