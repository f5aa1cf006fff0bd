//! Spans the benchmark records around its calls into the program's
//! layers, kept in memory and written out as `spans.json` at the end.

use quicspin_telemetry::{ProfilerRegistry, Registry};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call the span covers (`layer.call`).
    pub name: &'static str,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

/// An in-memory span recorder. Spans nest: a span opened while another is
/// open records it as its parent.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration of the spans named `name`, seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .fold(0.0, |a, b| a + b)
    }

    /// Writes the spans as a JSON array of
    /// `{"id", "name", "parent", "start_ns", "end_ns"}` objects.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut text = String::from("[\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if id + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                text,
                "  {{\"id\": {id}, \"name\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}{sep}",
                s.name, s.start_ns, s.end_ns
            );
        }
        text.push_str("]\n");
        std::fs::write(path, text)
    }
}

/// The program's own instruments a campaign reports into.
#[derive(Debug, Clone)]
pub struct Instruments {
    /// Telemetry registry (counters, gauges, stage histograms).
    pub telemetry: Arc<Registry>,
    /// Hierarchical profiler.
    pub profiler: Arc<ProfilerRegistry>,
}

impl Instruments {
    /// Both instruments off, as a user's run has them.
    pub fn off() -> Instruments {
        Instruments {
            telemetry: Arc::new(Registry::disabled()),
            profiler: Arc::new(ProfilerRegistry::disabled()),
        }
    }

    /// Both instruments on, shared by every campaign of a traced replay.
    pub fn on() -> Instruments {
        Instruments {
            telemetry: Arc::new(Registry::new()),
            profiler: Arc::new(ProfilerRegistry::new()),
        }
    }
}
