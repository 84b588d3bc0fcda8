//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span has a name, a start and an end. Spans stay in memory; the
//! traced run sums them per name at the end. With tracing off,
//! [`Tracer::time`] only runs the closure.

use std::time::Instant;

/// One finished span, in nanoseconds from the tracer's origin.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Layer call the span covers, e.g. `core.order`.
    pub name: &'static str,
    /// Start of the call.
    pub start_ns: u64,
    /// End of the call.
    pub end_ns: u64,
}

/// An in-memory span recorder for one thread.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder; with `enabled` false it records nothing.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Turns recording on or off for the spans that follow.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
        });
        out
    }

    /// Total duration of the spans named `name`, in nanoseconds.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.durations_ns(name).iter().sum()
    }

    /// The durations of the spans named `name`, in nanoseconds.
    pub fn durations_ns(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect()
    }

    /// Duration of the span recorded last, in nanoseconds (0 if none).
    pub fn last_ns(&self) -> u64 {
        self.spans.last().map_or(0, |s| s.end_ns - s.start_ns)
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_cover_their_call_in_order() {
        let nap = || std::thread::sleep(std::time::Duration::from_millis(2));
        let mut t = Tracer::new(true);
        t.time("a", nap);
        t.time("b", nap);
        let (a, b) = (t.spans[0], t.spans[1]);
        assert_eq!((a.name, b.name), ("a", "b"));
        assert!(a.end_ns - a.start_ns >= 2_000_000);
        assert!(a.end_ns <= b.start_ns);
        assert_eq!(t.last_ns(), b.end_ns - b.start_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.time("x", || 7), 7);
        assert_eq!(t.len(), 0);
        assert_eq!(t.total_ns("x"), 0);
    }

    #[test]
    fn totals_sum_spans_by_name() {
        let mut t = Tracer::new(true);
        for _ in 0..3 {
            t.time("work", || {
                std::thread::sleep(std::time::Duration::from_millis(1))
            });
        }
        assert_eq!(t.durations_ns("work").len(), 3);
        assert!(t.total_ns("work") >= 3_000_000);
        assert_eq!(t.total_ns("other"), 0);
    }
}
