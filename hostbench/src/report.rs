//! The metric registry and the result line.
//!
//! Every metric the benchmark can emit is declared here once, with its
//! unit and whether it is *measured* host time (or a count taken during
//! a measured run) or *modelled* by the SIMT emulator's cost model. An
//! untraced run emits exactly [`END_TO_END`], a traced run exactly
//! [`PER_LAYER`]; [`Report::finish`] refuses anything else.

use std::collections::BTreeMap;

/// Where a number comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Host wall time or a count, measured in this run.
    Measured,
    /// Device seconds from the emulator's cost model: deterministic,
    /// never a host timing.
    Modelled,
}

/// A declared metric: name, unit, source.
pub type Decl = (&'static str, &'static str, Source);

use Source::{Measured as M, Modelled};

/// End-to-end metrics, emitted by every workload with `--trace 0`.
pub const END_TO_END: &[Decl] = &[
    ("setup_s", "s", M),
    ("throughput_mb_s", "MB/s", M),
    ("latency_p50_ms", "ms", M),
    ("latency_tail_ms", "ms", M),
    ("swap_p50_ms", "ms", M),
    ("peak_rss_mb", "MiB", M),
];

/// Per-layer metrics, emitted by every workload with `--trace 1`.
pub const PER_LAYER: &[Decl] = &[
    ("regex.parse_ms", "ms", M),
    ("ir.lower_ms", "ms", M),
    ("ir.ops", "count", M),
    ("ir.carry_slots", "count", M),
    ("passes.transform_ms", "ms", M),
    ("passes.visits", "count", M),
    ("kernel.codegen_ms", "ms", M),
    ("bitstream.transpose_ms", "ms", M),
    ("core.compile_ms", "ms", M),
    ("core.push_ms", "ms", M),
    ("core.push_us_p50", "us", M),
    ("core.resume_us_p50", "us", M),
    ("core.checkpoint_us_p50", "us", M),
    ("core.ckpt_bytes", "bytes", M),
    ("core.find_ms_p50", "ms", M),
    ("exec.intermediates", "count", M),
    ("exec.peak_materialized_bytes", "bytes", M),
    ("exec.retries", "count", M),
    ("exec.degraded", "count", M),
    ("gpu.modelled_s", "s", Modelled),
    ("serve.push_service_us_p50", "us", M),
    ("serve.wire_us_p50", "us", M),
    ("serve.queue_wait_ms_mean", "ms", M),
    ("serve.queue_wait_max_ms", "ms", M),
    ("serve.swap_ms", "ms", M),
    ("serve.cache_hit_frac", "frac", M),
    ("serve.cache_hits", "count", M),
    ("serve.cache_misses", "count", M),
    ("serve.cache_evictions", "count", M),
    ("serve.rejected_pushes", "count", M),
    ("serve.pushes_failed", "count", M),
    ("loadgen.late_p99_ms", "ms", M),
    ("self_ms.regex", "ms", M),
    ("self_ms.ir", "ms", M),
    ("self_ms.passes", "ms", M),
    ("self_ms.kernel", "ms", M),
    ("self_ms.exec", "ms", M),
    ("self_ms.bitstream", "ms", M),
    ("self_ms.core", "ms", M),
    ("self_ms.serve", "ms", M),
    ("trace.wall_ms", "ms", M),
    ("trace.unattributed_ms", "ms", M),
    ("trace.overhead_frac", "frac", M),
    ("error_frac", "frac", M),
];

/// Layers whose self time the traced run reports, with its metric.
pub const LAYERS: &[(&str, &str)] = &[
    ("regex", "self_ms.regex"),
    ("ir", "self_ms.ir"),
    ("passes", "self_ms.passes"),
    ("kernel", "self_ms.kernel"),
    ("exec", "self_ms.exec"),
    ("bitstream", "self_ms.bitstream"),
    ("core", "self_ms.core"),
    ("serve", "self_ms.serve"),
];

/// One run's outcome: the operation tally, the correctness verdict and
/// the metric values.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted against the system under test.
    pub attempted: u64,
    /// Operations that failed, were refused, or returned wrong matches.
    pub failed: u64,
    /// Why each failure counted, for the log.
    pub problems: Vec<String>,
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Counts one attempted operation.
    pub fn attempt(&mut self) {
        self.attempted += 1;
    }

    /// Counts one failed operation and remembers why.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        let why = why.into();
        if self.problems.len() < 20 {
            self.problems.push(why);
        }
    }

    /// Counts an attempted operation that failed unless `ok`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempt();
        if !ok {
            self.fail(why());
        }
    }

    /// Records a metric value; the name must be declared.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Prints the table to stderr and the result line to stdout.
    ///
    /// # Errors
    ///
    /// When a declared metric is missing, an undeclared one was set, or
    /// a value is not finite — a bug in the benchmark, not a result.
    pub fn finish(self, traced: bool) -> Result<(), String> {
        let decls = if traced { PER_LAYER } else { END_TO_END };
        for name in self.values.keys() {
            if !decls.iter().any(|d| d.0 == *name) {
                return Err(format!("metric {name} is not declared for this mode"));
            }
        }
        let correct = self.failed == 0;
        let mut json = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted, self.failed
        );
        eprintln!("{:<32} {:>16} {:<6} source", "metric", "value", "unit");
        for (i, (name, unit, source)) in decls.iter().enumerate() {
            let value = *self
                .values
                .get(name)
                .ok_or_else(|| format!("metric {name} missing"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            let tag = match source {
                Source::Measured => "measured",
                Source::Modelled => "modelled",
            };
            eprintln!("{name:<32} {value:>16.6} {unit:<6} {tag}");
            if i > 0 {
                json.push_str(", ");
            }
            json.push_str(&format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        json.push_str("}}");
        let error_frac = self.failed as f64 / self.attempted.max(1) as f64;
        eprintln!(
            "operations: {} attempted, {} failed (error_frac {error_frac}); correct: {correct}",
            self.attempted, self.failed
        );
        for p in &self.problems {
            eprintln!("failure: {p}");
        }
        println!("{json}");
        Ok(())
    }
}
