//! The traced run: a workload's inputs replayed through each crate's
//! public calls, a span around every call, and the per-layer metrics
//! derived from those spans.
//!
//! The spans sit in the benchmark's own code around calls into the
//! crates; nothing inside the program is instrumented. Where a crate's
//! work only happens inside another crate's call (lowering inside
//! `BitGen::compile_with`, transposes inside `StreamScanner::push`),
//! the replay makes the same public call the outer one makes, on the
//! same inputs, so that layer gets a span of its own.

use crate::load::{self, refs, ClosedLoop, Due, InProcess, Life, StreamPlan, Streams};
use crate::report::{Report, LAYERS};
use crate::stats::{median, quantile};
use crate::trace::{Tracer, HARNESS};
use crate::verify;
use bitgen::{group_regexes, Ast, BitGen, EngineConfig, ExecConfig, RetryPolicy};
use bitgen_bitstream::Basis;
use bitgen_exec::{apply_transforms, segment_program, SegmentKind};
use bitgen_ir::{lower_group_checked, CarryState, LowerOptions, Program};
use bitgen_kernel::CodegenOptions;
use bitgen_serve::{ScanService, ServeConfig};
use std::time::{Duration, Instant};

/// A chunk sequence scanned as one stream, with its reference ends.
pub struct Seq<'a> {
    /// Rule set index.
    pub set: usize,
    /// The chunks, in stream order.
    pub chunks: Vec<&'a [u8]>,
    /// Reference ends of the concatenated chunks.
    pub reference: Vec<u64>,
}

/// An independent input scanned by batch `find`.
pub struct Record<'a> {
    /// Rule set index.
    pub set: usize,
    /// The bytes.
    pub bytes: &'a [u8],
    /// Reference ends.
    pub reference: Vec<u64>,
}

/// What a workload replays, layer by layer.
pub struct Plan<'a> {
    /// Streams replayed through `StreamScanner::push` as-is.
    pub streams: Vec<Seq<'a>>,
    /// Streams replayed in the service worker's shape (resume, push,
    /// checkpoint per chunk).
    pub worker: Vec<Seq<'a>>,
    /// The workload's own units (chunks, records or pushes), transposed.
    pub units: Vec<&'a [u8]>,
    /// Inputs scanned with `BitGen::find`.
    pub records: Vec<Record<'a>>,
}

/// Counts taken during the replay.
#[derive(Debug, Default)]
pub struct Counts {
    ops: usize,
    carry_slots: usize,
    visits: u64,
    intermediates: usize,
    peak_materialized: usize,
    retries: u64,
    degraded: u64,
    modelled_s: f64,
    ckpt_bytes: usize,
    overhead_frac: f64,
}

/// Facts from the in-process service replay.
#[derive(Debug)]
pub struct ServeFacts {
    wire_us: Vec<f64>,
    late_ms: Vec<f64>,
    queue_wait_mean_ms: f64,
    queue_wait_max_ms: f64,
    cache_hits: u64,
    cache_misses: u64,
    cache_evictions: u64,
    rejected_pushes: u64,
    pushes_failed: u64,
}

/// Failing calls count against the run instead of aborting it.
fn ok<T, E: std::fmt::Display>(report: &mut Report, what: &str, r: Result<T, E>) -> Option<T> {
    report.attempt();
    match r {
        Ok(v) => Some(v),
        Err(e) => {
            report.fail(format!("{what}: {e}"));
            None
        }
    }
}

fn exec_config(config: &EngineConfig) -> ExecConfig {
    ExecConfig {
        scheme: config.scheme,
        threads: config.threads,
        merge_size: config.merge_size,
        interval: config.interval,
        max_regs: config.max_regs,
        fallback: config.fallback,
        cross_check: config.cross_check,
        ..ExecConfig::default()
    }
}

/// Compiles one rule set the way `BitGen::compile_with` does, one
/// public call per layer (parse, optimize, group, lower, carry layout,
/// transforms, segmenting and kernel codegen — the last two being what
/// every batch launch repeats), then compiles it for real and checks
/// that both produced the same programs.
pub fn compile(
    tr: &mut Tracer,
    report: &mut Report,
    c: &mut Counts,
    patterns: &[String],
    set: u64,
) -> Option<BitGen> {
    let config = EngineConfig::default();
    let exec = exec_config(&config);
    let mut asts = Vec::with_capacity(patterns.len());
    for (i, p) in patterns.iter().enumerate() {
        asts.push(ok(
            report,
            "parse",
            tr.span("regex", "bitgen::parse", i as u64, || bitgen::parse(p)),
        )?);
    }
    let asts: Vec<Ast> = tr.span("regex", "bitgen_regex::optimize", set, || {
        asts.iter().map(bitgen_regex::optimize).collect()
    });
    let groups = tr.span("core", "group_regexes", set, || {
        group_regexes(&asts, config.cta_count, config.grouping)
    });
    let opts = LowerOptions {
        match_star: config.match_star,
        log_repetition: config.log_repetition,
    };
    let mut prepared: Vec<Program> = Vec::with_capacity(groups.len());
    for (g, members) in groups.iter().enumerate() {
        let members: Vec<Ast> = members.iter().map(|&i| asts[i].clone()).collect();
        let request = g as u64;
        tr.enter("ir", "lower_group_checked", request);
        let lowered = if members.len() > 1 {
            let combined = tr.span("regex", "bitgen_regex::optimize", request, || {
                bitgen_regex::optimize(&Ast::Alt(members))
            });
            lower_group_checked(std::slice::from_ref(&combined), opts, &config.limits)
        } else {
            lower_group_checked(&members, opts, &config.limits).map(|mut p| {
                p.combine_outputs();
                p
            })
        };
        tr.exit();
        let lowered = ok(report, "lower", lowered)?;
        c.carry_slots += tr.span("ir", "CarryState::for_program", request, || {
            CarryState::for_program(&lowered).slot_count()
        });
        let mut prog = lowered;
        let passes = tr.span("passes", "apply_transforms", request, || {
            apply_transforms(&mut prog, &exec)
        });
        c.visits += passes.total_visits();
        let segments = tr.span("exec", "segment_program", request, || {
            segment_program(&prog, exec.scheme)
        });
        let merge = if exec.scheme.uses_barrier_merging() {
            exec.merge_size
        } else {
            1
        };
        for seg in segments.iter().filter(|s| s.kind == SegmentKind::Fused) {
            tr.span("kernel", "bitgen_kernel::compile", request, || {
                let sub = Program::new(seg.stmts.clone(), prog.num_streams(), seg.outputs.clone());
                let options = CodegenOptions {
                    merge_size: merge,
                    ..CodegenOptions::default()
                };
                std::hint::black_box(bitgen_kernel::compile(
                    &sub,
                    &seg.inputs,
                    &seg.outputs,
                    &options,
                ));
            });
        }
        prepared.push(prog);
    }
    let engine = tr.span("core", "BitGen::compile_with", set, || {
        BitGen::compile_with(&refs(patterns), config.clone())
    });
    let engine = ok(report, "compile", engine)?;
    report.check(engine.programs() == prepared.as_slice(), || {
        "layer-by-layer compile produced different programs than BitGen::compile_with".into()
    });
    c.ops += engine
        .programs()
        .iter()
        .map(Program::op_count)
        .sum::<usize>();
    Some(engine)
}

/// Streams `seq` through a fresh scanner; returns the loop's wall time.
fn stream(
    tr: &mut Tracer,
    report: &mut Report,
    c: &mut Counts,
    engine: &BitGen,
    seq: &Seq<'_>,
) -> Option<Duration> {
    let scanner = tr.span("core", "BitGen::streamer", 0, || engine.streamer());
    let mut scanner = ok(report, "streamer", scanner)?;
    // `bitgrep` and the service both push under the resilient policy.
    scanner.set_retry_policy(RetryPolicy::resilient());
    let start = Instant::now();
    let mut got = Vec::with_capacity(seq.reference.len());
    for (i, chunk) in seq.chunks.iter().enumerate() {
        let ends = tr.span("core", "StreamScanner::push", i as u64, || {
            scanner.push(chunk)
        });
        got.extend(ok(report, "push", ends)?);
    }
    let wall = start.elapsed();
    report.check(got == seq.reference, || {
        format!(
            "streamed ends: {} vs reference {}",
            got.len(),
            seq.reference.len()
        )
    });
    c.retries += scanner.metrics().retries;
    c.degraded += scanner.metrics().degraded;
    Some(wall)
}

/// Replays `plan` on the compiled `engines`.
pub fn replay(
    tr: &mut Tracer,
    report: &mut Report,
    c: &mut Counts,
    plan: &Plan<'_>,
    engines: &[BitGen],
) {
    // Streaming untraced, traced, untraced: the traced pass against the
    // mean of the two around it is the tracing overhead.
    let mut passes = [Duration::ZERO; 3];
    for (pass, wall) in passes.iter_mut().enumerate() {
        for seq in &plan.streams {
            let engine = &engines[seq.set];
            *wall += if pass == 1 {
                stream(tr, report, c, engine, seq)
            } else {
                stream(
                    &mut Tracer::new(false),
                    report,
                    &mut Counts::default(),
                    engine,
                    seq,
                )
            }
            .unwrap_or_default();
        }
    }
    let plain = (passes[0] + passes[2]).as_secs_f64() / 2.0;
    c.overhead_frac = passes[1].as_secs_f64() / plain.max(1e-9) - 1.0;

    let mut basis = Basis::empty();
    for (i, unit) in plan.units.iter().enumerate() {
        tr.span("bitstream", "Basis::transpose_into", i as u64, || {
            basis.transpose_into(unit)
        });
    }

    for seq in &plan.worker {
        let engine = &engines[seq.set];
        let Some(fresh) = ok(report, "streamer", engine.streamer()) else {
            continue;
        };
        let mut ckpt = fresh.checkpoint();
        let mut got = Vec::new();
        for (i, chunk) in seq.chunks.iter().enumerate() {
            let request = i as u64;
            let resumed = tr.span("core", "BitGen::resume", request, || engine.resume(&ckpt));
            let Some(mut scanner) = ok(report, "resume", resumed) else {
                break;
            };
            scanner.set_retry_policy(RetryPolicy::resilient());
            let ends = tr.span("core", "StreamScanner::push(worker)", request, || {
                scanner.push(chunk)
            });
            let Some(ends) = ok(report, "push", ends) else {
                break;
            };
            got.extend(ends);
            ckpt = tr.span("core", "StreamScanner::checkpoint", request, || {
                scanner.checkpoint()
            });
            let bytes = tr.span("core", "StreamCheckpoint::to_bytes", request, || {
                ckpt.to_bytes()
            });
            c.ckpt_bytes = c.ckpt_bytes.max(bytes.len());
        }
        report.check(got == seq.reference, || {
            format!(
                "worker-shape ends: {} vs reference {}",
                got.len(),
                seq.reference.len()
            )
        });
    }

    let mut first_modelled = None;
    for (i, rec) in plan.records.iter().enumerate() {
        let found = tr.span("core", "BitGen::find", i as u64, || {
            engines[rec.set].find(rec.bytes)
        });
        let Some(found) = ok(report, "find", found) else {
            continue;
        };
        let got: Vec<u64> = found
            .matches
            .positions()
            .into_iter()
            .map(|p| p as u64)
            .collect();
        report.check(got == rec.reference, || {
            format!(
                "find ends: {} vs reference {}",
                got.len(),
                rec.reference.len()
            )
        });
        let m = &found.metrics;
        if i == 0 {
            c.intermediates = m.ctas.iter().map(|x| x.intermediates).sum();
            first_modelled = Some(found.seconds());
        }
        c.peak_materialized = c.peak_materialized.max(
            m.ctas
                .iter()
                .map(|x| x.peak_materialized_bytes)
                .max()
                .unwrap_or(0),
        );
        c.retries += m.retries + m.ctas.iter().map(|x| x.retries).sum::<u64>();
        c.degraded += m.degraded;
        c.modelled_s += found.seconds();
    }
    // Modelled seconds are a pure function of the input: a second
    // launch must reproduce them bit for bit.
    if let (Some(first), Some(rec)) = (first_modelled, plan.records.first()) {
        if let Some(again) = ok(report, "find", engines[rec.set].find(rec.bytes)) {
            report.check(again.seconds().to_bits() == first.to_bits(), || {
                format!("modelled seconds drifted: {first} then {}", again.seconds())
            });
        }
    }
}

/// Replays a connection's operations against an in-process service,
/// then checks every stream it served.
pub fn serve(
    tr: &mut Tracer,
    report: &mut Report,
    streams: &Streams<'_>,
    open: &[Due],
    closed: Option<ClosedLoop>,
    corrupt: bool,
) -> (ServeFacts, Vec<Life>) {
    let service = ScanService::start(ServeConfig {
        workers: load::SERVE_WORKERS,
        ..ServeConfig::default()
    });
    tr.enter(HARNESS, "load generator", 0);
    let (outcome, wire_us) = {
        let mut target = InProcess::new(&service, tr);
        let outcome =
            load::run_connection(&mut target, streams, &[open], Instant::now(), None, closed);
        (outcome, target.wire_us)
    };
    tr.exit();
    let m = service.metrics();
    service.shutdown();
    report.attempted += outcome.attempted;
    for f in outcome.failures {
        report.fail(f);
    }
    match verify::check_lives(&outcome.lives, streams.sets, streams.sources, corrupt) {
        Ok((checked, problems)) => {
            report.attempted += checked;
            for p in problems {
                report.fail(p);
            }
        }
        Err(e) => report.fail(e),
    }
    let waited = (m.pushes_completed + m.pushes_failed).max(1) as f64;
    let facts = ServeFacts {
        wire_us,
        late_ms: outcome.late_ms,
        queue_wait_mean_ms: m.queue_wait_seconds / waited * 1e3,
        queue_wait_max_ms: m.queue_wait_max_seconds * 1e3,
        cache_hits: m.cache_hits,
        cache_misses: m.cache_misses,
        cache_evictions: m.cache_evictions,
        rejected_pushes: m.rejected_pushes,
        pushes_failed: m.pushes_failed,
    };
    (facts, outcome.lives)
}

/// Sets every per-layer metric from the spans and counts.
pub fn finish(tr: &Tracer, report: &mut Report, c: &Counts, s: &ServeFacts) {
    let p50 = |v: Vec<f64>| if v.is_empty() { 0.0 } else { median(&v) };
    report.set("regex.parse_ms", tr.total_ms("bitgen::parse"));
    report.set("ir.lower_ms", tr.total_ms("lower_group_checked"));
    report.set("ir.ops", c.ops as f64);
    report.set("ir.carry_slots", c.carry_slots as f64);
    report.set("passes.transform_ms", tr.total_ms("apply_transforms"));
    report.set("passes.visits", c.visits as f64);
    report.set(
        "kernel.codegen_ms",
        tr.total_ms("segment_program") + tr.total_ms("bitgen_kernel::compile"),
    );
    report.set(
        "bitstream.transpose_ms",
        tr.total_ms("Basis::transpose_into"),
    );
    report.set("core.compile_ms", tr.total_ms("BitGen::compile_with"));
    report.set("core.push_ms", tr.total_ms("StreamScanner::push"));
    report.set(
        "core.push_us_p50",
        p50(tr.durations_us("StreamScanner::push(worker)")),
    );
    report.set("core.resume_us_p50", p50(tr.durations_us("BitGen::resume")));
    report.set(
        "core.checkpoint_us_p50",
        p50(tr.durations_us("StreamScanner::checkpoint")),
    );
    report.set("core.ckpt_bytes", c.ckpt_bytes as f64);
    report.set(
        "core.find_ms_p50",
        p50(tr.durations_us("BitGen::find")) / 1e3,
    );
    report.set("exec.intermediates", c.intermediates as f64);
    report.set("exec.peak_materialized_bytes", c.peak_materialized as f64);
    report.set("exec.retries", c.retries as f64);
    report.set("exec.degraded", c.degraded as f64);
    report.set("gpu.modelled_s", c.modelled_s);
    report.set(
        "serve.push_service_us_p50",
        p50(tr.durations_us("ScanService::push_chunk")),
    );
    report.set("serve.wire_us_p50", p50(s.wire_us.clone()));
    report.set("serve.queue_wait_ms_mean", s.queue_wait_mean_ms);
    report.set("serve.queue_wait_max_ms", s.queue_wait_max_ms);
    report.set(
        "serve.swap_ms",
        p50(tr.durations_us("ScanService::swap_rules")) / 1e3,
    );
    let lookups = (s.cache_hits + s.cache_misses).max(1) as f64;
    report.set("serve.cache_hit_frac", s.cache_hits as f64 / lookups);
    report.set("serve.cache_hits", s.cache_hits as f64);
    report.set("serve.cache_misses", s.cache_misses as f64);
    report.set("serve.cache_evictions", s.cache_evictions as f64);
    report.set("serve.rejected_pushes", s.rejected_pushes as f64);
    report.set("serve.pushes_failed", s.pushes_failed as f64);
    let late = if s.late_ms.is_empty() {
        0.0
    } else {
        quantile(&s.late_ms, 0.99)
    };
    report.set("loadgen.late_p99_ms", late);
    let (self_ms, wall) = tr.self_times();
    let mut covered = 0.0;
    for &(layer, key) in LAYERS {
        let ms = self_ms.get(layer).copied().unwrap_or(0.0);
        covered += ms;
        report.set(key, ms);
    }
    let unattributed = self_ms.get(HARNESS).copied().unwrap_or(0.0);
    report.check(
        (covered + unattributed - wall).abs() <= 1e-6 * wall.max(1.0),
        || format!("self times {covered} + unattributed {unattributed} != wall {wall}"),
    );
    report.set("trace.wall_ms", wall);
    report.set("trace.unattributed_ms", unattributed);
    report.set("trace.overhead_frac", c.overhead_frac);
    report.set(
        "error_frac",
        report.failed as f64 / report.attempted.max(1) as f64,
    );
}

/// Splits `bytes` into the serve push sizes, taken in turn.
pub fn serve_sized(bytes: &[u8]) -> Vec<&[u8]> {
    let mut out = Vec::new();
    let mut at = 0;
    let mut i = 0;
    while at < bytes.len() {
        let len = load::PUSH_SIZES[i % load::PUSH_SIZES.len()].min(bytes.len() - at);
        out.push(&bytes[at..at + len]);
        at += len;
        i += 1;
    }
    out
}

/// Two tenants streaming one rule set, closed loop: the in-process
/// service replay of the workloads that have no schedule of their own.
pub fn single_set_plans() -> Vec<StreamPlan> {
    ["tenant-a", "tenant-b"]
        .iter()
        .map(|t| StreamPlan {
            tenant: t.to_string(),
            set: 0,
        })
        .collect()
}
