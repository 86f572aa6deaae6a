//! In-memory spans around the benchmark's calls into each crate.
//!
//! A span records its name, the layer (crate) it times, start and end
//! offsets from the tracer's origin, its parent span and the request it
//! belongs to. Spans stay in memory while the run measures and are
//! written out once at the end. A layer's *self time* is the part of
//! its spans not covered by their child spans; over the span tree the
//! self times add up exactly to the root span, whose own self time is
//! the benchmark's unattributed remainder. All spans are recorded on
//! one thread, so they nest and never overlap.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// The layer of the benchmark's own code: the root span and the glue
/// between calls.
pub const HARNESS: &str = "hostbench";

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// What was called.
    pub name: &'static str,
    /// The crate that owns the call.
    pub layer: &'static str,
    /// Nanoseconds from the tracer's origin.
    pub start: u64,
    /// Nanoseconds from the tracer's origin.
    pub end: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    /// The operation this span serves (push, record, pattern ...).
    pub request: u64,
}

/// A span recorder. Disabled tracers time nothing and keep nothing, so
/// the same replay code runs with and without tracing.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer whose offsets count from its creation.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, layer: &'static str, name: &'static str, request: u64) {
        if !self.enabled {
            return;
        }
        let start = self.now();
        self.spans.push(Span {
            name,
            layer,
            start,
            end: start,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let end = self.now();
        let index = self.open.pop().expect("exit matches an enter");
        self.spans[index].end = end;
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        self.enter(layer, name, request);
        let out = f();
        self.exit();
        out
    }

    /// Recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration in ms of spans named `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.durations_us(name).iter().sum::<f64>() / 1e3
    }

    /// Durations in µs of every span named `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start) as f64 / 1e3)
            .collect()
    }

    /// Self time per layer in ms, plus the wall time of the whole tree
    /// (the root spans' total).
    pub fn self_times(&self) -> (BTreeMap<&'static str, f64>, f64) {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.end - span.start;
            }
        }
        let mut by_layer: BTreeMap<&'static str, u64> = BTreeMap::new();
        let mut wall = 0u64;
        for (i, span) in self.spans.iter().enumerate() {
            let own = (span.end - span.start).saturating_sub(child_ns[i]);
            *by_layer.entry(span.layer).or_default() += own;
            if span.parent.is_none() {
                wall += span.end - span.start;
            }
        }
        let ms = |ns: u64| ns as f64 / 1e6;
        (
            by_layer.into_iter().map(|(k, v)| (k, ms(v))).collect(),
            ms(wall),
        )
    }

    /// Renders every span as tab-separated lines: index, parent,
    /// request, layer, name, start ns, end ns.
    pub fn render(&self) -> String {
        let mut out = String::from("index\tparent\trequest\tlayer\tname\tstart_ns\tend_ns\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}\t{}",
                s.request, s.layer, s.name, s.start, s.end
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_partition_the_root() {
        let mut t = Tracer::new(true);
        t.enter(HARNESS, "root", 0);
        t.span("core", "outer", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        t.enter("core", "parent", 2);
        t.span("ir", "child", 2, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.exit();
        t.exit();
        let (layers, wall) = t.self_times();
        let sum: f64 = layers.values().sum();
        assert!((sum - wall).abs() < 1e-9, "{sum} vs {wall}");
        assert!(layers["ir"] >= 2.0);
    }

    #[test]
    fn disabled_tracer_keeps_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("core", "x", 0, || 7);
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }
}
