//! Spans the benchmark records around its own calls into each layer.
//!
//! A span is a name and its host start and end times. Spans stay in
//! memory; the per-layer metrics come from the durations the calls
//! return. Recording is switched per repeat, so a traced run can also
//! time untraced repeats and report what recording costs.

use std::time::Instant;

pub struct Tracer {
    /// Whether spans are being recorded.
    pub on: bool,
    spans: Vec<(String, Instant, Instant)>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            spans: Vec::new(),
        }
    }

    /// Number of spans recorded.
    pub fn recorded(&self) -> usize {
        self.spans.len()
    }

    /// Records a span that ran from `start` to `end` (when recording).
    pub fn push(&mut self, name: impl Into<String>, start: Instant, end: Instant) {
        if self.on {
            self.spans.push((name.into(), start, end));
        }
    }

    /// Runs `f` inside a span named `name`; returns its result and its
    /// host duration in seconds (timed whether or not recording is on).
    pub fn timed<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> (R, f64) {
        let start = Instant::now();
        let r = f();
        let end = Instant::now();
        self.push(name, start, end);
        (r, (end - start).as_secs_f64())
    }
}
