//! The benchmark's own span recorder: wall-clock spans around each call
//! into the simulator, kept in memory and written out as JSON Lines when
//! the benchmark ends. Only the traced run records spans; every timed run
//! that feeds an end-to-end metric runs without it.

use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span within its recorder.
pub type SpanId = usize;

struct Span {
    name: &'static str,
    parent: Option<SpanId>,
    start_ns: u64,
    end_ns: Option<u64>,
}

/// Spans of one run, sharing one run id.
pub struct SpanRecorder {
    run_id: String,
    origin: Instant,
    spans: Vec<Span>,
}

impl SpanRecorder {
    /// Empty recorder whose spans carry `run_id`.
    pub fn new(run_id: String) -> Self {
        SpanRecorder {
            run_id,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span named `name` under `parent`.
    pub fn start(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: None,
        });
        self.spans.len() - 1
    }

    /// Close span `id`.
    pub fn end(&mut self, id: SpanId) {
        self.spans[id].end_ns = Some(self.now_ns());
    }

    /// Run `f` inside a span named `name` under `parent`.
    pub fn record<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> (SpanId, T) {
        let id = self.start(name, parent);
        let out = f();
        self.end(id);
        (id, out)
    }

    /// Duration of a closed span in seconds.
    pub fn seconds(&self, id: SpanId) -> f64 {
        let s = &self.spans[id];
        let end = s.end_ns.expect("span is closed");
        (end - s.start_ns) as f64 / 1e9
    }

    /// One JSON object per span: run id, span id, parent, name, start and
    /// end in ns since the recorder was created, duration, and self time
    /// (duration minus the time its direct children cover).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let end = s.end_ns.unwrap_or(s.start_ns);
            let children: u64 = self
                .spans
                .iter()
                .filter(|c| c.parent == Some(id))
                .map(|c| c.end_ns.unwrap_or(c.start_ns) - c.start_ns)
                .sum();
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"run_id\":\"{}\",\"span\":{id},\"parent\":{parent},\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{end},\"dur_ns\":{},\"self_ns\":{}}}",
                self.run_id,
                s.name,
                s.start_ns,
                end - s.start_ns,
                (end - s.start_ns).saturating_sub(children),
            );
        }
        out
    }
}
