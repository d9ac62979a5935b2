//! In-memory span recorder for the traced run.
//!
//! Spans are opened by the benchmark's own code around each call into a
//! layer of the workspace, named `<layer>.<call>`. Each span records its
//! start, end, the span that was open when it started, and a group id shared
//! by every span of one iteration or job. Nothing is written while the
//! workload runs; [`Tracer::spans`] hands the record over at the end.
//!
//! A disabled tracer runs the closure and records nothing, so timed runs
//! carry the same code path with tracing off.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// `<layer>.<call>`, e.g. `statevector.sweep`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    /// Iteration or job id shared by related spans.
    pub group: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-6
    }

    /// The layer: the name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Records spans for one thread of the benchmark.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    group: u64,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer measuring from `origin` (share one origin across threads so
    /// their spans line up).
    pub fn new(enabled: bool, origin: Instant) -> Self {
        Self {
            enabled,
            origin,
            group: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Turns recording on or off between spans.
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.open.is_empty(), "toggled inside an open span");
        self.enabled = enabled;
    }

    /// Sets the group id stamped on spans opened from now on.
    pub fn set_group(&mut self, group: u64) {
        self.group = group;
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            group: self.group,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// The recorded spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends another thread's spans, re-pointing their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

/// Durations in milliseconds of every span called `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::ms)
        .collect()
}

/// Self time per layer in milliseconds: each span's duration minus the time
/// its direct children cover. Children of one span never overlap, because a
/// tracer belongs to one thread.
pub fn self_time_ms(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child_ms = vec![0.0f64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ms[p] += s.ms();
        }
    }
    let mut out = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_ms) {
        *out.entry(s.layer()).or_insert(0.0) += s.ms() - children;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_link_parents_and_split_self_time() {
        let mut t = Tracer::new(true, Instant::now());
        t.set_group(7);
        t.span("bench.iteration", |t| {
            t.span("statevector.sweep", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.group == 7 && s.end_ns >= s.start_ns));
        let own = self_time_ms(spans);
        assert!(own["statevector"] >= 2.0);
        assert!(own["bench"] < own["statevector"]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        assert_eq!(t.span("core.optimize", |_| 3), 3);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn absorbed_spans_keep_their_parents() {
        let origin = Instant::now();
        let mut a = Tracer::new(true, origin);
        a.span("service.submit", |_| ());
        let mut b = Tracer::new(true, origin);
        b.span("bench.job", |t| t.span("service.wait", |_| ()));
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
    }
}
