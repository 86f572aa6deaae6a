//! Program execution on the simulated GPU: the interleaved (fused) path
//! with dependency-aware windows, and the sequential path used by the
//! strawman schemes and the overlap-overflow fallback.

use crate::blit::blit_or;
use crate::metrics::ExecMetrics;
use crate::scheme::Scheme;
use crate::segment::{intermediate_count, segment_program, Segment, SegmentKind};
use bitgen_bitstream::{Basis, BitStream, CcExpr};
use bitgen_gpu::{Cta, CtaCounters, FaultKind, FaultPlan, RaceError, WindowInputs};
use bitgen_ir::{
    op_count, try_interpret, try_interpret_chunk, CarryState, DefUse, InterpError, Interrupt, Op,
    Program, Registers, RunControl, Stmt, StreamId, WalkObserver,
};
use bitgen_kernel::{compile, CodegenOptions, WORD_BITS};
use bitgen_passes::{
    insert_zero_skips_with, rebalance_with, Hull, OverlapInfo, PassMetrics, ZbsConfig,
};
use std::error::Error;
use std::fmt;

/// What to do when a window's required overlap exceeds the capacity of
/// interleaved execution (§8.2, "Limits of Overlap Distance").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackPolicy {
    /// Fail with [`ExecError::OverlapOverflow`].
    Error,
    /// Re-run the affected segment sequentially (the paper's proposed
    /// future-work fallback, implemented here).
    Sequential,
}

/// Execution configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecConfig {
    /// Execution scheme (Table 3 row).
    pub scheme: Scheme,
    /// Threads per CTA (the paper uses 512; tests use fewer).
    pub threads: usize,
    /// Maximum shifts per barrier group (§5.3) for schemes with barrier
    /// merging.
    pub merge_size: usize,
    /// Zero-block-skipping guard interval (§6).
    pub interval: usize,
    /// Initial extra overlap (bits) granted to programs with loops before
    /// any retry.
    pub dynamic_allowance: u64,
    /// Register cap per thread (the paper's `-maxrregcount` tuning knob):
    /// the cost model clamps the liveness-based register estimate here.
    pub max_regs: u32,
    /// Overflow handling.
    pub fallback: FallbackPolicy,
    /// Deterministic fault to arm on each fused segment's CTA (testing
    /// hook — proves the runtime checks catch corrupted execution).
    pub fault: Option<FaultPlan>,
    /// Validate the final outputs against the reference interpreter and
    /// fail with [`ExecError::CrossCheckMismatch`] on any difference
    /// (streaming windows also compare carries, see
    /// [`ExecError::CarryDiverged`]). The interpreter is the same walker
    /// that runs sequential segments and streaming windows, so this
    /// catches corruption injected or occurring outside that shared walk
    /// (a fused CTA run, a flipped value, a corrupted carry), not a bug in
    /// the walk itself. Roughly doubles scan cost; meant for hardening and
    /// fault drills.
    pub cross_check: bool,
}

impl Default for ExecConfig {
    fn default() -> ExecConfig {
        ExecConfig {
            scheme: Scheme::Zbs,
            threads: 64,
            merge_size: 8,
            interval: 8,
            dynamic_allowance: 64,
            max_regs: 128,
            fallback: FallbackPolicy::Sequential,
            fault: None,
            cross_check: false,
        }
    }
}

impl ExecConfig {
    /// Convenience: the default configuration for a given scheme.
    pub fn for_scheme(scheme: Scheme) -> ExecConfig {
        ExecConfig { scheme, ..ExecConfig::default() }
    }

    /// Window width in bits.
    pub fn window_bits(&self) -> usize {
        self.threads * WORD_BITS
    }
}

/// Why execution failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// A window needed more overlap than interleaved execution can
    /// provide and the policy was [`FallbackPolicy::Error`].
    OverlapOverflow {
        /// The overlap the window needed.
        required: Hull,
        /// The maximum total overlap the window size allows.
        capacity: u64,
    },
    /// The generated kernel violated the barrier discipline (a compiler
    /// bug by construction; surfaced for tests).
    Race(RaceError),
    /// The run's cancel token was triggered.
    Cancelled,
    /// The run's deadline passed.
    DeadlineExceeded,
    /// The program read a stream before writing it (malformed program).
    UnwrittenStream {
        /// The stream read while undefined.
        id: StreamId,
    },
    /// A fixpoint loop ran past its trip bound (miscompiled or corrupted
    /// program).
    FixpointDiverged,
    /// The executor's outputs disagree with the reference interpreter —
    /// corrupted execution that every other check missed.
    CrossCheckMismatch {
        /// Index of the first differing output stream.
        output: usize,
    },
    /// A streaming window's carry-out disagrees with the reference
    /// interpreter's replay ([`ExecConfig::cross_check`]): this window's
    /// outputs were right but the state handed to the *next* window is
    /// corrupted, so executing on would poison all later matches.
    CarryDiverged,
    /// The emulator's window-iteration counter disagrees with the
    /// executor's own count of windows launched — counter corruption.
    /// For streaming windows the same variant reports a corrupted carry
    /// slot walk (pre-order slots consumed vs. the program's layout).
    CounterMismatch {
        /// Windows the executor launched.
        expected: u64,
        /// Iterations the emulator's counters claim.
        observed: u64,
    },
    /// A streaming window committed fewer stores than instructions it
    /// issued — a lost store. Without this check a dropped write leaves
    /// a stale value in the destination stream, which is silent
    /// corruption whenever the stream was written by an earlier trip of
    /// the same window.
    StoreElided {
        /// Instructions the window issued.
        issued: u64,
        /// Stores that actually committed.
        stored: u64,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::OverlapOverflow { required, capacity } => write!(
                f,
                "required overlap {}+{} bits exceeds window capacity {capacity}",
                required.left, required.right
            ),
            ExecError::Race(e) => write!(f, "{e}"),
            ExecError::Cancelled => write!(f, "execution cancelled"),
            ExecError::DeadlineExceeded => write!(f, "execution deadline exceeded"),
            ExecError::UnwrittenStream { id } => {
                write!(f, "sequential read of unwritten stream {id}")
            }
            ExecError::FixpointDiverged => {
                write!(f, "while loop exceeded its fixpoint bound")
            }
            ExecError::CrossCheckMismatch { output } => {
                write!(f, "output {output} disagrees with the reference interpreter")
            }
            ExecError::CarryDiverged => {
                write!(f, "streaming carry-out diverged from the reference interpreter")
            }
            ExecError::CounterMismatch { expected, observed } => write!(
                f,
                "window counter corrupted: launched {expected} windows, counters claim {observed}"
            ),
            ExecError::StoreElided { issued, stored } => write!(
                f,
                "streaming window issued {issued} instructions but committed {stored} stores"
            ),
        }
    }
}

impl Error for ExecError {}

impl From<Interrupt> for ExecError {
    fn from(i: Interrupt) -> ExecError {
        match i {
            Interrupt::Cancelled => ExecError::Cancelled,
            Interrupt::DeadlineExceeded => ExecError::DeadlineExceeded,
        }
    }
}

impl From<InterpError> for ExecError {
    fn from(e: InterpError) -> ExecError {
        match e {
            InterpError::Cancelled => ExecError::Cancelled,
            InterpError::DeadlineExceeded => ExecError::DeadlineExceeded,
            InterpError::UnwrittenStream { id } => ExecError::UnwrittenStream { id },
            InterpError::FixpointDiverged => ExecError::FixpointDiverged,
        }
    }
}

/// Reusable executor scratch: the sequential walker's register file,
/// whose spare buffers [`execute_prepared_with`] recycles across calls.
/// Pooling never changes outputs or metrics, only where buffers come
/// from.
pub type ExecScratch = Registers;

/// Result of executing a program.
#[derive(Debug, Clone)]
pub struct ExecOutcome {
    /// One match-end stream per program output.
    pub outputs: Vec<BitStream>,
    /// Everything Tables 4–6 need.
    pub metrics: ExecMetrics,
    /// Whether an armed [`ExecConfig::fault`] actually corrupted an event
    /// during this run (always `false` without a fault).
    pub fault_fired: bool,
}

impl ExecOutcome {
    /// Union of all output streams.
    pub fn union(&self) -> BitStream {
        let len = self.outputs.first().map_or(0, BitStream::len);
        let mut acc = BitStream::zeros(len);
        for s in &self.outputs {
            acc.or_assign(s);
        }
        acc
    }
}

/// Executes `program` over the transposed input under `config`.
///
/// Applies the scheme's transforms (rebalancing, zero-block skipping),
/// cuts the program into segments, and runs each segment blockwise —
/// interleaved with dependency-aware windows for fused segments,
/// instruction-at-a-time for sequential ones.
///
/// # Errors
///
/// [`ExecError::OverlapOverflow`] under [`FallbackPolicy::Error`] when a
/// marker chain outruns the window; [`ExecError::Race`] if a generated
/// kernel races (a bug, caught by the emulator).
///
/// # Examples
///
/// ```
/// use bitgen_regex::parse;
/// use bitgen_ir::lower;
/// use bitgen_bitstream::Basis;
/// use bitgen_exec::{execute, ExecConfig, Scheme};
///
/// let prog = lower(&parse("a(bc)*d").unwrap());
/// let basis = Basis::transpose(b"xxabcbcd");
/// let out = execute(&prog, &basis, &ExecConfig::for_scheme(Scheme::Zbs))?;
/// assert_eq!(out.outputs[0].positions(), vec![7]);
/// # Ok::<(), bitgen_exec::ExecError>(())
/// ```
pub fn execute(program: &Program, basis: &Basis, config: &ExecConfig) -> Result<ExecOutcome, ExecError> {
    let mut prog = program.clone();
    let passes = apply_transforms(&mut prog, config);
    let mut out = execute_prepared(&prog, basis, config)?;
    out.metrics.passes = passes;
    Ok(out)
}

/// Applies the scheme's compile-time transforms (shift rebalancing,
/// zero-block skipping) to `program` in place, returning what they did
/// and what they cost.
///
/// [`execute`] does this internally; engines that scan many inputs with
/// one program should call this once and then [`execute_prepared`] per
/// scan. The def/use analysis is computed once and threaded through both
/// passes rather than recomputed per pass.
pub fn apply_transforms(program: &mut Program, config: &ExecConfig) -> PassMetrics {
    let mut metrics = PassMetrics::default();
    let wants_rebalance = config.scheme.uses_rebalancing();
    let wants_zbs = config.scheme.uses_zbs();
    if wants_rebalance || wants_zbs {
        let mut du = DefUse::of(program);
        if wants_rebalance {
            let start = std::time::Instant::now();
            metrics.rebalance = rebalance_with(program, &mut du);
            metrics.rebalance_nanos = start.elapsed().as_nanos() as u64;
        }
        if wants_zbs {
            let start = std::time::Instant::now();
            metrics.zbs = insert_zero_skips_with(
                program,
                ZbsConfig { interval: config.interval, min_range: 2 },
                &du,
            );
            metrics.zbs_nanos = start.elapsed().as_nanos() as u64;
        }
    }
    debug_assert_eq!(
        bitgen_ir::verify(program).map_err(|e| e.to_string()),
        Ok(()),
        "transform passes must preserve program well-formedness"
    );
    metrics
}

/// Executes a program whose transforms were already applied by
/// [`apply_transforms`] (or that should run untransformed).
///
/// # Errors
///
/// Same as [`execute`].
pub fn execute_prepared(
    prog: &Program,
    basis: &Basis,
    config: &ExecConfig,
) -> Result<ExecOutcome, ExecError> {
    execute_prepared_with(prog, basis, config, &mut ExecScratch::new(), None)
}

/// Re-entrant variant of [`execute_prepared`] drawing its intermediate
/// buffers from a caller-owned [`ExecScratch`].
///
/// Outputs and metrics are identical to [`execute_prepared`]; the
/// scratch only changes where buffers are allocated. Scan sessions hold
/// one scratch per worker thread and reuse it across calls.
///
/// With `carry: Some(..)` the call executes one *streaming window*: the
/// basis is a single chunk of a longer input, shift/add carries are read
/// from and accumulated into the [`CarryState`]
/// (built by [`CarryState::for_program`] and
/// [rotated](CarryState::rotate) between windows by the caller), and the
/// whole program runs on the sequential instruction-at-a-time path —
/// fused windowed execution assumes whole-stream inputs and is skipped.
/// Streaming callers must pass *untransformed* programs (shift
/// rebalancing introduces non-causal retreats that cannot stream).
///
/// # Errors
///
/// Same as [`execute`].
pub fn execute_prepared_with(
    prog: &Program,
    basis: &Basis,
    config: &ExecConfig,
    scratch: &mut ExecScratch,
    carry: Option<&mut CarryState>,
) -> Result<ExecOutcome, ExecError> {
    execute_prepared_ctl(prog, basis, config, scratch, &RunControl::unlimited(), carry)
}

/// Fully-controlled execution: [`execute_prepared_with`] plus a
/// [`RunControl`] polled once per window (fused segments) and once per
/// statement (sequential segments) — word-chunk granularity either way.
///
/// This is also where the runtime hardening checks live: the emulator's
/// window-iteration counter is verified against the executor's own launch
/// count on every run, and with [`ExecConfig::cross_check`] the final
/// outputs are compared against the reference interpreter.
///
/// # Errors
///
/// Everything [`execute`] can return, plus [`ExecError::Cancelled`] /
/// [`ExecError::DeadlineExceeded`] from `ctl`, and the corruption
/// detections [`ExecError::CounterMismatch`] /
/// [`ExecError::CrossCheckMismatch`].
pub fn execute_prepared_ctl(
    prog: &Program,
    basis: &Basis,
    config: &ExecConfig,
    scratch: &mut ExecScratch,
    ctl: &RunControl,
    carry: Option<&mut CarryState>,
) -> Result<ExecOutcome, ExecError> {
    if let Some(carry) = carry {
        return execute_streaming_window(prog, basis, config, scratch, ctl, carry);
    }
    let segments = segment_program(prog, config.scheme);
    let stream_len = Program::stream_len(basis.len());
    let mut metrics = ExecMetrics {
        segments: segments.len(),
        intermediates: intermediate_count(&segments, prog),
        threads: config.threads,
        ..ExecMetrics::default()
    };
    scratch.reset(prog.num_streams() as usize);
    let (fault_fired, windows_launched) = {
        let mut cx = ExecCtx {
            config,
            metrics: &mut metrics,
            stream_len,
            ctl,
            fault_fired: false,
            windows_launched: 0,
        };
        for seg in &segments {
            match seg.kind {
                SegmentKind::Fused => {
                    match run_fused(seg, prog, basis, scratch, &mut cx) {
                        Ok(()) => {}
                        Err(ExecError::OverlapOverflow { .. })
                            if config.fallback == FallbackPolicy::Sequential =>
                        {
                            cx.metrics.fallbacks += 1;
                            run_sequential(seg, basis, scratch, &mut cx)?;
                        }
                        Err(e) => return Err(e),
                    }
                }
                SegmentKind::Sequential => run_sequential(seg, basis, scratch, &mut cx)?,
            }
            cx.metrics.peak_materialized_bytes =
                cx.metrics.peak_materialized_bytes.max(scratch.resident_bytes());
        }
        (cx.fault_fired, cx.windows_launched)
    };
    if metrics.counters.window_iterations != windows_launched {
        return Err(ExecError::CounterMismatch {
            expected: windows_launched,
            observed: metrics.counters.window_iterations,
        });
    }
    metrics.window_iterations = metrics.counters.window_iterations;
    let outputs = collect_outputs(prog, scratch, stream_len);
    if config.cross_check {
        cross_check(&outputs, &try_interpret(prog, basis, ctl)?.outputs)?;
    }
    Ok(ExecOutcome { outputs, metrics, fault_fired })
}

/// One streaming window of `prog` over a chunk basis: the whole program
/// runs sequentially (instruction at a time) with cross-chunk carries —
/// the carry-parameterised branch of [`execute_prepared_ctl`].
///
/// Hardening mirrors the batch path: an armed [`ExecConfig::fault`]
/// corrupts the window deterministically (see [`StreamFault`]), the
/// carry slot walk is verified against the program's layout on every
/// run ([`ExecError::CounterMismatch`]), and with
/// [`ExecConfig::cross_check`] both the outputs *and the carry-out* are
/// replayed on the reference interpreter
/// ([`ExecError::CrossCheckMismatch`] / [`ExecError::CarryDiverged`]).
///
/// On error the carry state may hold a partially-accumulated window;
/// callers that want to survive must restore a pre-window snapshot
/// (that is exactly what `bitgen`'s `StreamScanner` transaction does).
fn execute_streaming_window(
    prog: &Program,
    basis: &Basis,
    config: &ExecConfig,
    scratch: &mut ExecScratch,
    ctl: &RunControl,
    carry: &mut CarryState,
) -> Result<ExecOutcome, ExecError> {
    let stream_len = Program::stream_len(basis.len());
    let mut metrics = ExecMetrics { segments: 1, threads: config.threads, ..ExecMetrics::default() };
    scratch.reset(prog.num_streams() as usize);
    let reference = config.cross_check.then(|| carry.fork());
    let expected_slots = carry.slot_count() as u64;
    let mut meter = Meter::new(config, stream_len, &mut metrics.counters);
    meter.fault = config.fault.map(StreamFault::new);
    let walk = scratch.walk(prog.stmts(), basis, ctl, Some(&mut *carry), &mut meter)?;
    let Meter { issued, stored, fault, .. } = meter;
    // Always-on lost-store invariant: every issued instruction commits
    // exactly one store; a shortfall means a write was dropped, leaving
    // a stale value behind that no later check can tell from a real one.
    if issued != stored {
        return Err(ExecError::StoreElided { issued, stored });
    }
    // Always-on walk invariant: a clean window consumes exactly the
    // program's slots in pre-order; any other count means the walk (or a
    // corrupted counter) desynchronised from the layout, and the carries
    // that were read/written are untrustworthy.
    let observed = walk.carry_slots as u64 + fault.as_ref().map_or(0, |f| f.counter_bump);
    if observed != expected_slots {
        return Err(ExecError::CounterMismatch { expected: expected_slots, observed });
    }
    metrics.peak_materialized_bytes = scratch.resident_bytes();
    let outputs = collect_outputs(prog, scratch, stream_len);
    if let Some(mut fork) = reference {
        cross_check(&outputs, &try_interpret_chunk(prog, basis, ctl, &mut fork)?.outputs)?;
        if fork != *carry {
            return Err(ExecError::CarryDiverged);
        }
    }
    let fault_fired = fault.is_some_and(|f| f.fired);
    Ok(ExecOutcome { outputs, metrics, fault_fired })
}

/// Fails with [`ExecError::CrossCheckMismatch`] at the first output that
/// differs from the reference interpreter's.
fn cross_check(got: &[BitStream], want: &[BitStream]) -> Result<(), ExecError> {
    match got.iter().zip(want).position(|(g, w)| g != w) {
        Some(output) => Err(ExecError::CrossCheckMismatch { output }),
        None => Ok(()),
    }
}

/// Copies of the program's outputs from the register file; an output no
/// instruction wrote (a skipped guard body) is all zeros.
fn collect_outputs(prog: &Program, regs: &Registers, stream_len: usize) -> Vec<BitStream> {
    prog.outputs()
        .iter()
        .map(|&id| regs.get(id).cloned().unwrap_or_else(|| BitStream::zeros(stream_len)))
        .collect()
}

/// Mutable state threaded through one execution: the run's metrics, its
/// interruption control, and the hardening tallies.
struct ExecCtx<'a> {
    config: &'a ExecConfig,
    metrics: &'a mut ExecMetrics,
    stream_len: usize,
    ctl: &'a RunControl,
    /// Whether the armed fault (if any) has corrupted an event.
    fault_fired: bool,
    /// Executor-side count of `run_window` calls, verified against the
    /// emulator's counters after the last segment.
    windows_launched: u64,
}

/// Interleaved execution of one fused segment (§4): windows with
/// dependency-aware overlap, dynamic retries, and exact stores of each
/// window's valid region.
fn run_fused(
    seg: &Segment,
    prog: &Program,
    basis: &Basis,
    regs: &mut Registers,
    cx: &mut ExecCtx<'_>,
) -> Result<(), ExecError> {
    let config = cx.config;
    let metrics = &mut *cx.metrics;
    let stream_len = cx.stream_len;
    let sub = Program::new(seg.stmts.clone(), prog.num_streams(), seg.outputs.clone());
    let info = OverlapInfo::analyze(&sub);
    let merge = if config.scheme.uses_barrier_merging() { config.merge_size } else { 1 };
    let compiled = compile(&sub, &seg.inputs, &seg.outputs, &CodegenOptions { merge_size: merge, ..CodegenOptions::default() });
    let kernel = &compiled.kernel;
    metrics.shift_groups += compiled.stats.shift_groups;
    metrics.smem_bytes = metrics.smem_bytes.max(kernel.smem_bytes(config.threads));
    // A liveness-based allocator's register count, clamped at the
    // configured cap (the paper's max-register parameter).
    metrics.regs_per_thread =
        metrics.regs_per_thread.max(kernel.max_live_regs().min(config.max_regs));
    metrics.static_overlap = metrics.static_overlap.max(info.base.total());
    if metrics.counters.loop_trips.len() < kernel.num_sites as usize {
        metrics.counters.loop_trips.resize(kernel.num_sites as usize, 0);
    }

    let wbits = config.window_bits() as u64;
    // Keep at least one word of forward progress per window.
    let capacity = wbits - WORD_BITS as u64;
    let mut left = info.base.left + if info.is_static() { 0 } else { config.dynamic_allowance };
    let mut right = info.base.right;
    if left + right > capacity {
        return Err(ExecError::OverlapOverflow { required: info.base, capacity });
    }

    let globals = seg
        .inputs
        .iter()
        .map(|&id| regs.get(id).cloned().ok_or(ExecError::UnwrittenStream { id }))
        .collect::<Result<Vec<_>, _>>()?;
    let mut outs: Vec<BitStream> = seg.outputs.iter().map(|_| regs.take_zeros(stream_len)).collect();
    let mut cta = Cta::new(kernel, config.threads);
    if let Some(plan) = config.fault {
        cta.arm_fault(plan);
    }
    let mut store_pos = 0usize;
    let mut overlap_bits = 0u64;
    let mut stored_bits = 0u64;
    let mut dyn_sum = 0u64;
    let mut dyn_max = 0u64;
    let mut stored_windows = 0u64;

    // Errors break out instead of returning so the fault tally below runs
    // on every exit path (a fault fired during an abandoned attempt still
    // counts as injected).
    let mut result: Result<(), ExecError> = Ok(());
    while store_pos < stream_len {
        if !cx.ctl.is_unlimited() {
            if let Err(i) = cx.ctl.check() {
                result = Err(i.into());
                break;
            }
        }
        let window_start = store_pos as i64 - left as i64;
        cx.windows_launched += 1;
        let out = match cta.run_window(
            kernel,
            WindowInputs { basis: basis.streams(), globals: &globals },
            window_start,
            &mut metrics.counters,
        ) {
            Ok(out) => out,
            Err(e) => {
                result = Err(ExecError::Race(e));
                break;
            }
        };
        let required = info.required(&out.loop_trips);
        let provided = Hull { left, right };
        if !required.fits(provided) {
            if required.total() > capacity {
                result = Err(ExecError::OverlapOverflow { required, capacity });
                break;
            }
            // Enlarge the window overlap and re-run this window (the
            // dynamic part of Dependency-Aware Thread-Data Mapping).
            left = left.max(required.left);
            right = right.max(required.right);
            metrics.retries += 1;
            continue;
        }
        let dynamic = required.total().saturating_sub(info.base.total());
        dyn_sum += dynamic;
        dyn_max = dyn_max.max(dynamic);
        let window_end = window_start + wbits as i64;
        let store_end = ((window_end - right as i64) as usize).min(stream_len);
        debug_assert!(store_end > store_pos, "window must make progress");
        let nbits = store_end - store_pos;
        let src_off = (store_pos as i64 - window_start) as usize;
        for (dst, words) in outs.iter_mut().zip(&out.words) {
            blit_or(dst, store_pos, words, src_off, nbits);
        }
        overlap_bits += left + right;
        stored_bits += nbits as u64;
        store_pos = store_end;
        stored_windows += 1;
    }
    cx.fault_fired |= cta.fault_fired();
    result?;

    if stored_windows > 0 {
        let prev_weight = metrics.recompute_frac; // merge across segments conservatively
        let frac = overlap_bits as f64 / (overlap_bits + stored_bits).max(1) as f64;
        metrics.recompute_frac = metrics.recompute_frac.max(frac).max(prev_weight);
        let avg = dyn_sum as f64 / stored_windows as f64;
        metrics.dynamic_overlap_avg = metrics.dynamic_overlap_avg.max(avg);
        metrics.dynamic_overlap_max = metrics.dynamic_overlap_max.max(dyn_max);
    }
    for (&id, s) in seg.outputs.iter().zip(outs) {
        regs.set(id, s);
    }
    Ok(())
}

/// Sequential blockwise execution (Fig. 1a / Fig. 5): one pass over the
/// whole stream per instruction, every value materialised, DRAM traffic
/// counted accordingly.
fn run_sequential(
    seg: &Segment,
    basis: &Basis,
    regs: &mut Registers,
    cx: &mut ExecCtx<'_>,
) -> Result<(), ExecError> {
    let mut meter = Meter::new(cx.config, cx.stream_len, &mut cx.metrics.counters);
    regs.walk(&seg.stmts, basis, cx.ctl, None, &mut meter)?;
    Ok(())
}

/// The executor's [`WalkObserver`]: charges each sequentially executed
/// instruction its modelled cost (Fig. 5: one loop over the stream per
/// instruction, every value loaded from and stored to global memory) and,
/// in streaming windows, injects the armed [`StreamFault`] and tallies
/// issued instructions against committed stores.
struct Meter<'a> {
    counters: &'a mut CtaCounters,
    /// Block iterations per full pass.
    passes: u64,
    /// 32-bit words per full stream.
    words: u64,
    /// Armed fault, streaming windows only: batch sequential segments run
    /// their drills through the CTA emulator instead.
    fault: Option<StreamFault>,
    /// Instructions issued; paired with `stored` for the streaming
    /// lost-store invariant.
    issued: u64,
    /// Stores committed to the register file.
    stored: u64,
}

impl<'a> Meter<'a> {
    fn new(config: &ExecConfig, stream_len: usize, counters: &'a mut CtaCounters) -> Meter<'a> {
        Meter {
            counters,
            passes: stream_len.div_ceil(config.window_bits()) as u64,
            words: stream_len.div_ceil(WORD_BITS) as u64,
            fault: None,
            issued: 0,
            stored: 0,
        }
    }
}

impl WalkObserver for Meter<'_> {
    fn issue(&mut self, op: &Op, circuit: Option<&CcExpr>) {
        // Binary ops load both operands; shifts load two adjacent blocks
        // per block.
        let (alu, loads) = match op {
            Op::MatchCc { .. } => {
                (circuit.map_or(0, CcExpr::gate_count) as u64 * self.passes, 8 * self.words)
            }
            Op::And { .. }
            | Op::Or { .. }
            | Op::Add { .. }
            | Op::Xor { .. }
            | Op::Advance { .. }
            | Op::Retreat { .. } => (self.passes, 2 * self.words),
            Op::Not { .. } | Op::Assign { .. } => (self.passes, self.words),
            Op::Zero { .. } | Op::Ones { .. } => (self.passes, 0),
        };
        let c = &mut *self.counters;
        c.alu_ops += alu;
        c.global_load_words += loads;
        c.global_store_words += self.words;
        // One barrier between consecutive instruction loops (Fig. 5b).
        c.barriers += 1;
        self.issued += 1;
    }

    fn guard(&mut self) {
        self.counters.reductions += 1;
    }

    fn skip(&mut self, body: &[Stmt]) {
        self.counters.skipped_ops += op_count(body) as u64 * self.passes;
    }

    fn store(&mut self, value: &mut BitStream, carry: Option<&mut CarryState>) -> bool {
        if let Some(fault) = &mut self.fault {
            if !fault.fired {
                fault.ops_seen += 1;
                if fault.ops_seen >= fault.plan.trigger.max(1) {
                    fault.fired = true;
                    match fault.plan.kind {
                        FaultKind::Panic => panic!("injected fault: streaming window panic"),
                        FaultKind::SmemFlip => flip_bit(value, fault.plan.seed),
                        // A lost store: the destination keeps whatever it
                        // held before this instruction.
                        FaultKind::SkipBarrier => return false,
                        FaultKind::CorruptTrips => match carry {
                            Some(c) => c.corrupt_outgoing(fault.plan.seed),
                            None => flip_bit(value, fault.plan.seed),
                        },
                        FaultKind::CorruptCounter => {
                            fault.counter_bump = 1 + fault.plan.seed % 3;
                        }
                    }
                }
            }
        }
        self.stored += 1;
        true
    }
}

/// Deterministic fault injection for streaming windows — the streaming
/// counterpart of the CTA emulator's `arm_fault`, applied by [`Meter`] as
/// the shared walk stores each value. The plan's `trigger` counts
/// *executed ops* (loop trips re-count their bodies, so the firing point
/// is deterministic for a given program and chunk) and each kind maps
/// onto this path's failure surface:
///
/// - `SmemFlip`: flips one seed-selected bit of the op's computed value
///   (caught by cross-check, or masked if the bit is dead);
/// - `SkipBarrier`: drops the op's store — a lost store (caught by the
///   always-on store-count invariant as [`ExecError::StoreElided`]);
/// - `CorruptTrips`: flips a bit in a carry slot's *outgoing* buffer via
///   [`CarryState::corrupt_outgoing`] (caught by the cross-check carry
///   replay as [`ExecError::CarryDiverged`]);
/// - `CorruptCounter`: inflates the slot-walk count reported after the
///   window (caught by the always-on walk invariant);
/// - `Panic`: panics mid-window (isolated by the caller's `catch_unwind`).
///
/// The faults land outside the walk, which the cross-check replay shares:
/// the checks catch corrupted values, stores and carries, not walk bugs.
struct StreamFault {
    plan: FaultPlan,
    ops_seen: u32,
    fired: bool,
    /// `CorruptCounter`: added to the observed slot-walk count.
    counter_bump: u64,
}

impl StreamFault {
    fn new(plan: FaultPlan) -> StreamFault {
        StreamFault { plan, ops_seen: 0, fired: false, counter_bump: 0 }
    }
}

/// Flips one seed-selected bit of `value` (no-op on empty streams) —
/// the bit-corruption primitive shared by the streaming fault kinds.
fn flip_bit(value: &mut BitStream, seed: u64) {
    if value.is_empty() {
        return;
    }
    let bit = seed as usize % value.len();
    let cur = value.get(bit);
    value.set(bit, !cur);
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitgen_ir::{interpret, lower, lower_group};
    use bitgen_regex::{match_ends, parse};

    fn check_all_schemes(pattern: &str, input: &[u8]) {
        let ast = parse(pattern).unwrap();
        let prog = lower(&ast);
        let basis = Basis::transpose(input);
        let expect = match_ends(&ast, input);
        for scheme in Scheme::ALL {
            for threads in [2, 8] {
                let config = ExecConfig { scheme, threads, ..ExecConfig::default() };
                let out = execute(&prog, &basis, &config)
                    .unwrap_or_else(|e| panic!("{scheme} failed: {e}"));
                assert_eq!(
                    out.outputs[0].positions(),
                    expect,
                    "pattern {pattern:?} scheme {scheme} threads {threads}"
                );
            }
        }
    }

    #[test]
    fn all_schemes_match_reference() {
        for (pat, input) in [
            ("cat", &b"bobcat and more cats"[..]),
            ("(abc)|d", b"abcdabce"),
            ("a(bc)*d", b"ad abcd abcbcbcd xbcd"),
            ("a+b", b"aab aaab b ab"),
            ("[a-f]{2,4}", b"abcdefgh xx ab"),
            ("(ab|ba)+c", b"ababc bac xc"),
        ] {
            check_all_schemes(pat, input);
        }
    }

    #[test]
    fn multi_block_inputs() {
        // Inputs spanning many windows with matches crossing window
        // boundaries exercise the overlap machinery.
        let mut input = Vec::new();
        for i in 0..40 {
            input.extend_from_slice(if i % 3 == 0 { b"abcbcd" } else { b"zzzzzz" });
        }
        check_all_schemes("a(bc)*d", &input);
        check_all_schemes("abcbcd", &input);
    }

    #[test]
    fn match_spanning_window_boundary() {
        // threads=2 → 64-bit windows; plant a literal right across the
        // boundary.
        let mut input = vec![b'x'; 6];
        input.extend_from_slice(b"abcdefgh");
        input.extend(vec![b'x'; 20]);
        let prog = lower(&parse("abcdefgh").unwrap());
        let basis = Basis::transpose(&input);
        for scheme in Scheme::ALL {
            let config = ExecConfig { scheme, threads: 2, ..ExecConfig::default() };
            let out = execute(&prog, &basis, &config).unwrap();
            assert_eq!(out.outputs[0].positions(), vec![13], "scheme {scheme}");
        }
    }

    #[test]
    fn long_chain_triggers_retry_or_fallback() {
        // A run of (bc) long enough that the marker chain outruns the
        // default dynamic allowance within a tiny window.
        let mut input = b"a".to_vec();
        for _ in 0..40 {
            input.extend_from_slice(b"bc");
        }
        input.push(b'd');
        let prog = lower(&parse("a(bc)*d").unwrap());
        let basis = Basis::transpose(&input);
        let expect = interpret(&prog, &basis).outputs[0].positions();
        let config = ExecConfig {
            scheme: Scheme::Dtm,
            threads: 2,
            dynamic_allowance: 0,
            ..ExecConfig::default()
        };
        let out = execute(&prog, &basis, &config).unwrap();
        assert_eq!(out.outputs[0].positions(), expect);
        assert!(
            out.metrics.retries > 0 || out.metrics.fallbacks > 0,
            "expected dynamic overlap handling: {:?}",
            out.metrics
        );
    }

    #[test]
    fn overflow_error_policy_reports() {
        // Chain longer than the whole window with fallback disabled.
        let mut input = b"a".to_vec();
        for _ in 0..200 {
            input.extend_from_slice(b"bc");
        }
        input.push(b'd');
        let prog = lower(&parse("a(bc)*d").unwrap());
        let basis = Basis::transpose(&input);
        let config = ExecConfig {
            scheme: Scheme::Dtm,
            threads: 2,
            fallback: FallbackPolicy::Error,
            ..ExecConfig::default()
        };
        let err = execute(&prog, &basis, &config).unwrap_err();
        assert!(matches!(err, ExecError::OverlapOverflow { .. }), "got {err}");
    }

    #[test]
    fn sequential_fallback_rescues_overflow() {
        let mut input = b"a".to_vec();
        for _ in 0..200 {
            input.extend_from_slice(b"bc");
        }
        input.push(b'd');
        let prog = lower(&parse("a(bc)*d").unwrap());
        let basis = Basis::transpose(&input);
        let expect = interpret(&prog, &basis).outputs[0].positions();
        let config = ExecConfig { scheme: Scheme::Zbs, threads: 2, ..ExecConfig::default() };
        let out = execute(&prog, &basis, &config).unwrap();
        assert_eq!(out.outputs[0].positions(), expect);
        assert!(out.metrics.fallbacks > 0);
    }

    #[test]
    fn fused_execution_touches_less_dram() {
        // The Table 4 effect: DTM does dramatically less global traffic
        // than Base, which does less than Sequential.
        let input: Vec<u8> = b"abcd".iter().cycle().take(512).copied().collect();
        let prog = lower(&parse("abcd").unwrap());
        let basis = Basis::transpose(&input);
        let traffic = |scheme: Scheme| {
            let config = ExecConfig { scheme, threads: 4, ..ExecConfig::default() };
            let m = execute(&prog, &basis, &config).unwrap().metrics;
            m.counters.global_words()
        };
        let seq = traffic(Scheme::Sequential);
        let base = traffic(Scheme::Base);
        let dtm = traffic(Scheme::Dtm);
        assert!(seq > base, "seq {seq} vs base {base}");
        assert!(base > dtm, "base {base} vs dtm {dtm}");
    }

    #[test]
    fn zbs_skips_work_on_sparse_input() {
        let input = vec![b'z'; 2048];
        // A long literal: the zero path dwarfs the guard/pre-zero
        // overhead, as in the paper's sparse workloads.
        let prog = lower(&parse("abcdefghijklmnop").unwrap());
        let basis = Basis::transpose(&input);
        let zbs = execute(&prog, &basis, &ExecConfig { scheme: Scheme::Zbs, threads: 4, ..ExecConfig::default() }).unwrap();
        let sr = execute(&prog, &basis, &ExecConfig { scheme: Scheme::Sr, threads: 4, ..ExecConfig::default() }).unwrap();
        assert!(zbs.metrics.counters.skipped_ops > 0);
        assert!(
            zbs.metrics.counters.alu_ops < sr.metrics.counters.alu_ops,
            "zbs {} vs sr {}",
            zbs.metrics.counters.alu_ops,
            sr.metrics.counters.alu_ops
        );
        assert!(!zbs.outputs[0].any());
    }

    #[test]
    fn merging_reduces_barriers() {
        let input: Vec<u8> = b"abcdefgh".iter().cycle().take(1024).copied().collect();
        let prog = lower(&parse("abcdefgh").unwrap());
        let basis = Basis::transpose(&input);
        let barriers = |merge: usize| {
            let config = ExecConfig {
                scheme: Scheme::Sr,
                threads: 4,
                merge_size: merge,
                ..ExecConfig::default()
            };
            execute(&prog, &basis, &config).unwrap().metrics.counters.barriers
        };
        assert!(barriers(8) < barriers(1));
    }

    #[test]
    fn group_programs_execute() {
        let asts = vec![parse("ab").unwrap(), parse("bc").unwrap(), parse("c+d").unwrap()];
        let prog = lower_group(&asts);
        let input = b"abcd bccd xx abcccd";
        let basis = Basis::transpose(input);
        let expect = interpret(&prog, &basis);
        let out = execute(&prog, &basis, &ExecConfig::default()).unwrap();
        for (i, o) in out.outputs.iter().enumerate() {
            assert_eq!(o.positions(), expect.outputs[i].positions(), "output {i}");
        }
        assert_eq!(out.union().positions(), expect.union().positions());
    }

    #[test]
    fn metrics_populated() {
        let input: Vec<u8> = b"abcbcd".iter().cycle().take(600).copied().collect();
        let prog = lower(&parse("a(bc)*d").unwrap());
        let basis = Basis::transpose(&input);
        let out = execute(&prog, &basis, &ExecConfig { scheme: Scheme::Zbs, threads: 4, ..ExecConfig::default() }).unwrap();
        let m = &out.metrics;
        assert_eq!(m.segments, 1);
        assert_eq!(m.intermediates, 0);
        assert!(m.window_iterations > 1);
        assert!(m.static_overlap > 0);
        assert!(m.recompute_frac > 0.0 && m.recompute_frac < 1.0);
        assert!(m.counters.barriers > 0);
        assert!(m.regs_per_thread > 0);
        assert!(m.smem_bytes > 0);
        assert!(m.shift_groups > 0);
    }

    #[test]
    fn scratch_reuse_is_identical_and_capacity_stable() {
        let input: Vec<u8> = b"abcbcd".iter().cycle().take(600).copied().collect();
        let mut prog = lower(&parse("a(bc)*d").unwrap());
        let config = ExecConfig { threads: 4, ..ExecConfig::default() };
        apply_transforms(&mut prog, &config);
        let basis = Basis::transpose(&input);
        let fresh = execute_prepared(&prog, &basis, &config).unwrap();
        let mut scratch = ExecScratch::new();
        // Warm the scratch, record its footprint, then re-scan: outputs
        // and metrics must match the fresh path bit for bit, and the
        // pooled capacity must stop growing.
        let first = execute_prepared_with(&prog, &basis, &config, &mut scratch, None).unwrap();
        let warm_words = scratch.pooled_words();
        let warm_streams = scratch.pooled_streams();
        for _ in 0..3 {
            let again = execute_prepared_with(&prog, &basis, &config, &mut scratch, None).unwrap();
            assert_eq!(again.outputs, fresh.outputs);
            assert_eq!(again.metrics, fresh.metrics);
            assert_eq!(scratch.pooled_words(), warm_words);
            assert_eq!(scratch.pooled_streams(), warm_streams);
        }
        assert_eq!(first.outputs, fresh.outputs);
        assert_eq!(first.metrics, fresh.metrics);
    }

    #[test]
    fn empty_input_is_fine() {
        let prog = lower(&parse("ab").unwrap());
        let basis = Basis::transpose(b"");
        for scheme in Scheme::ALL {
            let out = execute(&prog, &basis, &ExecConfig::for_scheme(scheme)).unwrap();
            assert!(!out.outputs[0].any());
        }
    }

    #[test]
    fn cancellation_stops_both_paths() {
        use bitgen_ir::CancelToken;
        let input: Vec<u8> = b"abcbcd".iter().cycle().take(600).copied().collect();
        let basis = Basis::transpose(&input);
        let token = CancelToken::new();
        token.cancel();
        let ctl = RunControl::unlimited().with_cancel(token);
        for scheme in [Scheme::Zbs, Scheme::Sequential] {
            let mut prog = lower(&parse("a(bc)*d").unwrap());
            let config = ExecConfig { scheme, threads: 4, ..ExecConfig::default() };
            apply_transforms(&mut prog, &config);
            let err =
                execute_prepared_ctl(&prog, &basis, &config, &mut ExecScratch::new(), &ctl, None)
                    .unwrap_err();
            assert_eq!(err, ExecError::Cancelled, "scheme {scheme}");
        }
    }

    #[test]
    fn expired_deadline_stops_execution() {
        use std::time::{Duration, Instant};
        let input: Vec<u8> = b"abcbcd".iter().cycle().take(600).copied().collect();
        let basis = Basis::transpose(&input);
        let mut prog = lower(&parse("a(bc)*d").unwrap());
        let config = ExecConfig { threads: 4, ..ExecConfig::default() };
        apply_transforms(&mut prog, &config);
        let expired =
            RunControl::unlimited().with_deadline(Instant::now() - Duration::from_secs(1));
        let err = execute_prepared_ctl(&prog, &basis, &config, &mut ExecScratch::new(), &expired, None)
            .unwrap_err();
        assert_eq!(err, ExecError::DeadlineExceeded);
        // A lax deadline leaves results untouched.
        let lax = RunControl::unlimited().deadline_in(Duration::from_secs(3600));
        let out = execute_prepared_ctl(&prog, &basis, &config, &mut ExecScratch::new(), &lax, None)
            .unwrap();
        assert_eq!(out.outputs, execute_prepared(&prog, &basis, &config).unwrap().outputs);
    }

    fn stream_in_chunks(
        prog: &Program,
        input: &[u8],
        chunk: usize,
        config: &ExecConfig,
    ) -> Vec<usize> {
        let mut carry = CarryState::for_program(prog);
        let mut scratch = ExecScratch::new();
        let mut ends = Vec::new();
        let mut off = 0usize;
        for c in input.chunks(chunk.max(1)) {
            let basis = Basis::transpose(c);
            let out = execute_prepared_with(prog, &basis, config, &mut scratch, Some(&mut carry))
                .unwrap();
            ends.extend(out.union().positions().into_iter().filter(|&p| p < c.len()).map(|p| off + p));
            carry.rotate();
            off += c.len();
        }
        ends
    }

    #[test]
    fn streaming_windows_match_batch_execution() {
        // The carry-parameterised executor path agrees with the regex
        // oracle under every chunking, unbounded patterns included.
        for (pat, input) in [
            ("a+b", &b"xaaab aab b ab"[..]),
            ("a(bc)*d", b"adxabcd.abcbcbcd"),
            ("a{2,}", b"aaaa a aaa"),
            ("(a|bb)*c", b"abbac bbc c"),
        ] {
            let ast = parse(pat).unwrap();
            let prog = lower(&ast);
            let batch = match_ends(&ast, input);
            for chunk in [1usize, 2, 3, 7, 64] {
                // cross_check = true replays every window through the
                // reference chunk interpreter.
                let config = ExecConfig { cross_check: true, ..ExecConfig::default() };
                assert_eq!(
                    stream_in_chunks(&prog, input, chunk, &config),
                    batch,
                    "pattern {pat:?} chunk {chunk}"
                );
            }
        }
    }

    #[test]
    fn streaming_window_errors_propagate() {
        use bitgen_ir::CancelToken;
        let prog = lower(&parse("a+b").unwrap());
        let basis = Basis::transpose(b"aaab");
        let mut carry = CarryState::for_program(&prog);
        let token = CancelToken::new();
        token.cancel();
        let ctl = RunControl::unlimited().with_cancel(token);
        let err = execute_prepared_ctl(
            &prog,
            &basis,
            &ExecConfig::default(),
            &mut ExecScratch::new(),
            &ctl,
            Some(&mut carry),
        )
        .unwrap_err();
        assert_eq!(err, ExecError::Cancelled);
    }

    #[test]
    fn cross_check_passes_on_clean_runs() {
        let input: Vec<u8> = b"abcbcd".iter().cycle().take(300).copied().collect();
        let basis = Basis::transpose(&input);
        let prog = lower(&parse("a(bc)*d").unwrap());
        let config = ExecConfig { threads: 4, cross_check: true, ..ExecConfig::default() };
        let out = execute(&prog, &basis, &config).unwrap();
        assert!(!out.fault_fired);
        assert_eq!(
            out.outputs[0].positions(),
            interpret(&prog, &basis).outputs[0].positions()
        );
    }

    #[test]
    fn counter_fault_is_always_detected() {
        use bitgen_gpu::{FaultKind, FaultPlan};
        let input: Vec<u8> = b"abcbcd".iter().cycle().take(300).copied().collect();
        let basis = Basis::transpose(&input);
        let prog = lower(&parse("a(bc)*d").unwrap());
        let config = ExecConfig {
            threads: 4,
            fault: Some(FaultPlan { kind: FaultKind::CorruptCounter, trigger: 1, seed: 9 }),
            ..ExecConfig::default()
        };
        let err = execute(&prog, &basis, &config).unwrap_err();
        assert!(matches!(err, ExecError::CounterMismatch { .. }), "got {err}");
    }

    #[test]
    fn injected_faults_never_pass_silently() {
        // The tentpole property at the exec layer: for a seeded sweep of
        // fault plans, every run either errors or produces output
        // bit-identical to the clean run (the fault was masked).
        use bitgen_gpu::FaultPlan;
        let input: Vec<u8> = b"abcbcd".iter().cycle().take(300).copied().collect();
        let basis = Basis::transpose(&input);
        let mut prog = lower(&parse("a(bc)*d").unwrap());
        let base = ExecConfig { threads: 4, cross_check: true, ..ExecConfig::default() };
        apply_transforms(&mut prog, &base);
        let clean = execute_prepared(&prog, &basis, &base).unwrap();
        let mut fired = 0;
        let mut detected = 0;
        for seed in 0..40u64 {
            let plan = FaultPlan::from_seed(seed);
            if plan.kind == bitgen_gpu::FaultKind::Panic {
                continue; // panic isolation is the session layer's job
            }
            let config = ExecConfig { fault: Some(plan), ..base };
            match execute_prepared(&prog, &basis, &config) {
                Err(_) => detected += 1,
                Ok(out) => {
                    if out.fault_fired {
                        fired += 1;
                        assert_eq!(
                            out.outputs, clean.outputs,
                            "seed {seed}: fault fired, no error, but outputs differ — silent corruption"
                        );
                    }
                }
            }
        }
        assert!(detected > 0, "sweep produced no detections at all");
        assert!(fired + detected > 10, "sweep barely exercised the fault machinery");
    }

    /// One streaming window of `a(bc)*d` over `chunk` from a fresh carry
    /// state, with `plan` armed.
    fn faulted_window(
        chunk: &[u8],
        plan: Option<FaultPlan>,
        cross_check: bool,
    ) -> Result<ExecOutcome, ExecError> {
        let prog = lower(&parse("a(bc)*d").unwrap());
        let mut carry = CarryState::for_program(&prog);
        let config = ExecConfig { fault: plan, cross_check, ..ExecConfig::default() };
        let basis = Basis::transpose(chunk);
        execute_prepared_with(&prog, &basis, &config, &mut ExecScratch::new(), Some(&mut carry))
    }

    #[test]
    fn each_streaming_fault_kind_maps_to_its_detection() {
        // Over this chunk the window executes 33 ops; ops 15..=30 are the
        // loop's second trip, whose destinations already hold a value, so
        // dropping one of their stores leaves a stale stream behind.
        let chunk = b"xabcbcd abcbc";
        let clean = faulted_window(chunk, None, true).unwrap();
        let mut flips_caught = 0;
        for seed in [0u64, 3, 0x1_0005] {
            for trigger in 1..=33u32 {
                let run = |kind, cross_check| {
                    faulted_window(chunk, Some(FaultPlan { kind, trigger, seed }), cross_check)
                };
                let at = format!("trigger {trigger} seed {seed}");
                if (15..=30).contains(&trigger) {
                    let err = run(FaultKind::SkipBarrier, false).unwrap_err();
                    assert!(matches!(err, ExecError::StoreElided { .. }), "{at}: {err}");
                }
                let err = run(FaultKind::CorruptCounter, false).unwrap_err();
                assert!(matches!(err, ExecError::CounterMismatch { .. }), "{at}: {err}");
                let err = run(FaultKind::CorruptTrips, true).unwrap_err();
                assert_eq!(err, ExecError::CarryDiverged, "{at}");
                match run(FaultKind::SmemFlip, true) {
                    Err(e) => {
                        assert!(matches!(e, ExecError::CrossCheckMismatch { .. }), "{at}: {e}");
                        flips_caught += 1;
                    }
                    Ok(out) => assert_eq!(out.outputs, clean.outputs, "{at}: masked flip"),
                }
                let panicked = std::panic::catch_unwind(|| run(FaultKind::Panic, false));
                assert!(panicked.is_err(), "{at}: injected panic did not fire");
            }
        }
        // The flip drill is not vacuous: some flips land on live bits.
        assert!(flips_caught > 0, "no SmemFlip was ever detected");
    }

    #[test]
    fn streaming_metrics_are_pinned() {
        // Modelled counters of the sequential walk, summed over a chunked
        // stream of a `while`-loop pattern. Values are fixed so a change
        // that moves any modelled number fails here, in either direction.
        let prog = lower(&parse("a(bc)*d").unwrap());
        let input = b"xabcbcd ad abcbcbcd abc zzzz abcd";
        let config = ExecConfig::default();
        let pinned = |chunk: usize| {
            let mut carry = CarryState::for_program(&prog);
            let mut scratch = ExecScratch::new();
            let mut total = ExecMetrics::default();
            for c in input.chunks(chunk) {
                let out = execute_prepared_with(
                    &prog,
                    &Basis::transpose(c),
                    &config,
                    &mut scratch,
                    Some(&mut carry),
                )
                .unwrap();
                let m = out.metrics;
                assert_eq!(
                    ExecMetrics {
                        counters: Default::default(),
                        peak_materialized_bytes: 0,
                        ..m.clone()
                    },
                    ExecMetrics { segments: 1, threads: 64, ..ExecMetrics::default() }
                );
                total.counters += &m.counters;
                total.peak_materialized_bytes =
                    total.peak_materialized_bytes.max(m.peak_materialized_bytes);
                total.segments = m.segments;
                total.threads = m.threads;
                carry.rotate();
            }
            total
        };
        let expect = |alu_ops, loads, stores, barriers, reductions, skipped_ops, peak| {
            ExecMetrics {
                counters: bitgen_gpu::CtaCounters {
                    alu_ops,
                    global_load_words: loads,
                    global_store_words: stores,
                    barriers,
                    reductions,
                    skipped_ops,
                    ..Default::default()
                },
                segments: 1,
                peak_materialized_bytes: peak,
                threads: 64,
                ..ExecMetrics::default()
            }
        };
        assert_eq!(pinned(1), expect(2081, 1946, 662, 662, 71, 0, 17));
        assert_eq!(pinned(7), expect(366, 389, 151, 151, 18, 0, 17));
    }

    #[test]
    fn sequential_batch_metrics_are_pinned() {
        // Whole-stream sequential segments, plus a zero-block-guarded
        // program on sparse input so skipped `if` bodies are counted too.
        let input: Vec<u8> = b"abcbcd ad zz".iter().cycle().take(600).copied().collect();
        let sparse: Vec<u8> = (0..600).map(|i| if i % 97 == 5 { b'a' } else { b'z' }).collect();
        let prog = lower(&parse("a(bc)*d").unwrap());
        let config = ExecConfig { scheme: Scheme::Sequential, threads: 4, ..ExecConfig::default() };
        let mut guarded = prog.clone();
        apply_transforms(&mut guarded, &ExecConfig { scheme: Scheme::Zbs, ..config });
        let expect = |counters, segments, intermediates, peak| ExecMetrics {
            counters,
            segments,
            intermediates,
            peak_materialized_bytes: peak,
            threads: 4,
            ..ExecMetrics::default()
        };
        let counters = |alu_ops, loads, stores, barriers, reductions, skipped_ops| {
            bitgen_gpu::CtaCounters {
                alu_ops,
                global_load_words: loads,
                global_store_words: stores,
                barriers,
                reductions,
                skipped_ops,
                ..Default::default()
            }
        };
        let run = |prog: &Program, input: &[u8]| {
            execute_prepared(prog, &Basis::transpose(input), &config).unwrap().metrics
        };
        assert_eq!(run(&prog, &input), expect(counters(380, 1577, 627, 33, 4, 0), 13, 11, 1292));
        assert_eq!(run(&guarded, &sparse), expect(counters(300, 893, 323, 17, 5, 25), 13, 9, 1064));
    }
}
