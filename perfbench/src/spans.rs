//! Wall-clock spans recorded from outside the library.
//!
//! The benchmark wraps each call into a layer's public functions in a
//! span (name, start, end, parent) and keeps every span in memory until
//! the run ends, when [`Spans::chrome_json`] writes them out as Chrome
//! trace-event JSON for <https://ui.perfetto.dev>. A disabled recorder
//! reads no clock at all, so the untraced runs that give the end-to-end
//! metrics pay nothing for it.

use std::fmt::Write as _;
use std::time::Instant;

/// One closed span, in nanoseconds since the recorder was created.
#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    /// Indices of the spans entered and not yet exited, innermost last.
    open: Vec<usize>,
}

impl Spans {
    /// A recorder that keeps every span.
    pub fn recording() -> Self {
        Spans { enabled: true, origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// A recorder that keeps nothing and never reads the clock.
    pub fn disabled() -> Self {
        Spans { enabled: false, ..Spans::recording() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let span =
            Span { name, start_ns: self.now_ns(), end_ns: 0, parent: self.open.last().copied() };
        self.open.push(self.spans.len());
        self.spans.push(span);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let end = self.now_ns();
        let idx = self.open.pop().expect("exit without a matching enter");
        self.spans[idx].end_ns = end;
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Total seconds spent in spans named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        let ns: u64 =
            self.spans.iter().filter(|s| s.name == name).map(|s| s.end_ns - s.start_ns).sum();
        ns as f64 * 1e-9
    }

    /// The spans as Chrome trace-event JSON: one complete (`"X"`) event
    /// per span on a single thread track, so nesting follows the
    /// intervals, plus `otherData` carrying `meta` as strings.
    pub fn chrome_json(&self, meta: &[(&str, String)]) -> String {
        assert!(self.open.is_empty(), "every span must be closed before export");
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent}}}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
            );
        }
        out.push_str("\n],\"displayTimeUnit\":\"ns\",\"otherData\":{");
        for (i, (k, v)) in meta.iter().enumerate() {
            let v = v.replace('\\', "\\\\").replace('"', "\\\"");
            let _ = write!(out, "{}\"{k}\":\"{v}\"", if i == 0 { "" } else { "," });
        }
        out.push_str("}}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_totals() {
        let mut spans = Spans::recording();
        spans.enter("outer");
        spans.time("inner", || std::hint::black_box(1 + 1));
        spans.time("inner", || ());
        spans.exit();
        assert_eq!(spans.spans.iter().filter(|s| s.name == "inner").count(), 2);
        assert_eq!(spans.spans[1].parent, Some(0));
        assert!(spans.total_s("outer") >= spans.total_s("inner"));
        let json = spans.chrome_json(&[("workload", "x\"y".into())]);
        assert!(json.contains("\"parent\":0") && json.contains("x\\\"y"));
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut spans = Spans::disabled();
        assert_eq!(spans.time("a", || 7), 7);
        assert!(spans.spans.is_empty());
        assert_eq!(spans.total_s("a"), 0.0);
    }
}
