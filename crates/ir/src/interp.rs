//! Whole-stream reference interpreter for bitstream programs, and the one
//! sequential walker behind it.
//!
//! Executes a [`Program`] one instruction at a time over full-length
//! [`BitStream`]s — the semantics every GPU execution scheme must agree
//! with. Also records the loop trip counts used to validate the dynamic
//! overlap analysis. The walk itself ([`Registers::walk`]) also runs the
//! executor's sequential segments and streaming windows, which attach a
//! [`WalkObserver`] for modelled costs and fault injection.

use crate::carry::{carry_slot_count, CarryState};
use crate::control::{Interrupt, RunControl};
use crate::program::{Op, Program, Stmt, StreamId};
use bitgen_bitstream::{compile_class, Basis, BitStream, CcExpr};
use std::fmt;

/// Result of interpreting a program.
#[derive(Debug, Clone)]
pub struct InterpResult {
    /// One match-end stream per program output (per regex in the group).
    pub outputs: Vec<BitStream>,
    /// Total `while` trips executed, summed over all loops.
    pub loop_trips: usize,
    /// Total instructions executed (loop bodies counted per trip).
    pub ops_executed: usize,
}

impl InterpResult {
    /// The union of all output streams: positions where *any* regex of the
    /// group matches.
    pub fn union(&self) -> BitStream {
        let len = self.outputs.first().map_or(0, BitStream::len);
        let mut acc = BitStream::zeros(len);
        for s in &self.outputs {
            acc.or_assign(s);
        }
        acc
    }

    /// Match-end byte positions of output `i`, ascending.
    pub fn match_ends(&self, i: usize) -> Vec<usize> {
        self.outputs[i].positions()
    }
}

/// Interprets `program` over the transposed `input`.
///
/// All streams have length `input.len() + 1` (see
/// [`Program::stream_len`]); the returned match-end streams only ever set
/// bits below `input.len()`.
///
/// # Examples
///
/// ```
/// use bitgen_regex::parse;
/// use bitgen_ir::{lower, interpret};
/// use bitgen_bitstream::Basis;
///
/// let prog = lower(&parse("a(bc)*d").unwrap());
/// let basis = Basis::transpose(b"xabcbcd");
/// let result = interpret(&prog, &basis);
/// assert_eq!(result.match_ends(0), vec![6]);
/// ```
pub fn interpret(program: &Program, basis: &Basis) -> InterpResult {
    match try_interpret(program, basis, &RunControl::unlimited()) {
        Ok(r) => r,
        Err(InterpError::UnwrittenStream { id }) => panic!("read of unwritten stream {id}"),
        Err(InterpError::FixpointDiverged) => panic!("while loop exceeded its fixpoint bound"),
        // Unreachable: an unlimited RunControl never interrupts.
        Err(e) => panic!("uncontrolled interpretation stopped: {e}"),
    }
}

/// Why [`try_interpret`] stopped without a result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InterpError {
    /// The run's [`CancelToken`](crate::CancelToken) was triggered.
    Cancelled,
    /// The run's deadline passed.
    DeadlineExceeded,
    /// The program read a stream before writing it — a malformed program
    /// that [`verify`](crate::verify) would reject.
    UnwrittenStream {
        /// The stream that was read while undefined.
        id: StreamId,
    },
    /// A `while` loop ran past the fixpoint bound (`stream_len + 2`
    /// trips) — only possible for a miscompiled or corrupted program.
    FixpointDiverged,
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpError::Cancelled => write!(f, "interpretation cancelled"),
            InterpError::DeadlineExceeded => write!(f, "interpretation deadline exceeded"),
            InterpError::UnwrittenStream { id } => write!(f, "read of unwritten stream {id}"),
            InterpError::FixpointDiverged => {
                write!(f, "while loop exceeded its fixpoint bound")
            }
        }
    }
}

impl std::error::Error for InterpError {}

impl From<Interrupt> for InterpError {
    fn from(i: Interrupt) -> InterpError {
        match i {
            Interrupt::Cancelled => InterpError::Cancelled,
            Interrupt::DeadlineExceeded => InterpError::DeadlineExceeded,
        }
    }
}

/// [`interpret`] with typed errors and cooperative interruption.
///
/// `ctl` is polled once per executed statement — each statement processes
/// a whole stream, so the poll is amortised over kilobytes of work while
/// cancellation still lands promptly.
pub fn try_interpret(
    program: &Program,
    basis: &Basis,
    ctl: &RunControl,
) -> Result<InterpResult, InterpError> {
    run_env(program, basis, ctl, None)
}

/// Interprets one streaming window of `program` with cross-chunk carries.
///
/// `basis` is the transposition of a single chunk; all streams span
/// `chunk.len() + 1` positions, the last being a provisional *peek*
/// position whose class bits are unknown (zero). Shift and add carries
/// are read from and accumulated into `carry`
/// (see [`CarryState::for_program`]); the caller must
/// [`rotate`](CarryState::rotate) the state between consecutive windows.
///
/// Only output bits below `chunk.len()` are final for this window — the
/// peek position is recomputed as position 0 of the next window, and the
/// final window's peek coincides with the batch sentinel, so streaming a
/// whole input chunk by chunk reproduces batch interpretation bit for bit
/// with no flush step. While-loops run to a *local* fixpoint per window;
/// bodies whose condition is locally empty still execute once when a
/// carry slot inside them is pending.
///
/// # Examples
///
/// ```
/// use bitgen_regex::parse;
/// use bitgen_ir::{lower, try_interpret_chunk, CarryState, RunControl};
/// use bitgen_bitstream::Basis;
///
/// let prog = lower(&parse("a+b").unwrap()); // unbounded: fine to stream
/// let mut carry = CarryState::for_program(&prog);
/// let mut ends = Vec::new();
/// let mut off = 0;
/// for chunk in [&b"xa"[..], b"aa", b"b."] {
///     let r = try_interpret_chunk(&prog, &Basis::transpose(chunk),
///                                 &RunControl::unlimited(), &mut carry)?;
///     ends.extend(r.union().positions().into_iter()
///         .filter(|&p| p < chunk.len()).map(|p| off + p));
///     carry.rotate();
///     off += chunk.len();
/// }
/// assert_eq!(ends, vec![4]); // the `b` of "xaaab."
/// # Ok::<(), bitgen_ir::InterpError>(())
/// ```
pub fn try_interpret_chunk(
    program: &Program,
    basis: &Basis,
    ctl: &RunControl,
    carry: &mut CarryState,
) -> Result<InterpResult, InterpError> {
    run_env(program, basis, ctl, Some(carry))
}

fn run_env(
    program: &Program,
    basis: &Basis,
    ctl: &RunControl,
    carry: Option<&mut CarryState>,
) -> Result<InterpResult, InterpError> {
    let mut regs = Registers::new();
    regs.reset(program.num_streams() as usize);
    let walk = regs.walk(program.stmts(), basis, ctl, carry, &mut ())?;
    let mut outputs = Vec::with_capacity(program.outputs().len());
    for &id in program.outputs() {
        outputs.push(regs.get(id).ok_or(InterpError::UnwrittenStream { id })?.clone());
    }
    Ok(InterpResult { outputs, loop_trips: walk.loop_trips, ops_executed: walk.ops_executed })
}

/// Hooks into [`Registers::walk`], the one sequential walker. Every
/// method defaults to a no-op and `()` is the no-op observer, so the
/// reference paths monomorphise to the bare walk; the executor's
/// observer adds modelled costs and fault injection.
pub trait WalkObserver {
    /// An instruction is about to run, before its operands are read.
    /// `circuit` is the compiled class circuit of a `MatchCc` (the
    /// walker's cached copy), `None` for every other op.
    fn issue(&mut self, _op: &Op, _circuit: Option<&CcExpr>) {}

    /// A guard was tested: once per `if`, and once per `while` test (each
    /// trip plus the exiting test).
    fn guard(&mut self) {}

    /// An `if` body was skipped because its guard was empty and no carry
    /// inside it was pending.
    fn skip(&mut self, _body: &[Stmt]) {}

    /// An instruction computed `value` and is about to store it; `carry`
    /// is the window's carry state when streaming. Returning `false`
    /// drops the store, leaving the destination's previous value (or no
    /// value) in place.
    fn store(&mut self, _value: &mut BitStream, _carry: Option<&mut CarryState>) -> bool {
        true
    }
}

impl WalkObserver for () {}

/// What one [`Registers::walk`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Walk {
    /// `while` trips executed, summed over all loops.
    pub loop_trips: usize,
    /// Instructions executed (loop bodies counted per trip).
    pub ops_executed: usize,
    /// Carry slots walked in pre-order (0 without a carry state).
    pub carry_slots: usize,
}

/// The sequential walker's dense register file: one stream per
/// [`StreamId`], class circuits compiled once per destination, and a pool
/// of spare buffers that instructions compute into.
///
/// A register file kept across runs recycles its buffers: [`reset`]
/// turns the previous run's streams into spares, so repeated runs of one
/// program over same-sized inputs reach a steady state with no heap
/// growth.
///
/// [`reset`]: Registers::reset
#[derive(Debug, Clone, Default)]
pub struct Registers {
    vars: Vec<Option<BitStream>>,
    /// Per-destination compiled class circuits, keyed by the address of
    /// the `MatchCc` op's class (stable while the run's program is
    /// borrowed): loop trips re-execute the same op many times, so the
    /// circuit is compiled once and revalidated by key on each hit.
    cc: Vec<Option<(usize, CcExpr)>>,
    spare: Vec<BitStream>,
}

impl Registers {
    /// An empty register file with no buffers.
    pub fn new() -> Registers {
        Registers::default()
    }

    /// Starts a run over `num_streams` registers, all unwritten: the
    /// previous run's streams become the spares (spares it left unused
    /// are freed, so the pool stays at one run's working set) and cached
    /// circuits are dropped (their keys point into the previous run's
    /// program).
    pub fn reset(&mut self, num_streams: usize) {
        self.spare.clear();
        self.spare.extend(self.vars.drain(..).flatten());
        self.vars.resize(num_streams, None);
        self.cc.clear();
        self.cc.resize(num_streams, None);
    }

    /// The value of register `id`, if this run wrote it.
    pub fn get(&self, id: StreamId) -> Option<&BitStream> {
        self.vars[id.index()].as_ref()
    }

    /// Writes register `id`; its previous value becomes a spare.
    pub fn set(&mut self, id: StreamId, value: BitStream) {
        if let Some(old) = self.vars[id.index()].replace(value) {
            self.spare.push(old);
        }
    }

    /// A zeroed stream of `len` bits, reusing a spare buffer if one is
    /// available.
    pub fn take_zeros(&mut self, len: usize) -> BitStream {
        let mut s = self.spare.pop().unwrap_or_else(|| BitStream::zeros(0));
        s.reset_zeros(len);
        s
    }

    /// Bytes of the streams written since the last [`Registers::reset`].
    pub fn resident_bytes(&self) -> usize {
        self.vars.iter().flatten().map(|s| s.len().div_ceil(8)).sum()
    }

    /// Words of capacity held by all buffers, written and spare. Stable
    /// across repeated runs over same-sized inputs, which reuse tests
    /// assert.
    pub fn pooled_words(&self) -> usize {
        self.buffers().map(BitStream::capacity_words).sum()
    }

    /// Number of buffers held, written and spare.
    pub fn pooled_streams(&self) -> usize {
        self.buffers().count()
    }

    fn buffers(&self) -> impl Iterator<Item = &BitStream> {
        self.vars.iter().flatten().chain(&self.spare)
    }

    /// Runs `stmts` one instruction at a time over whole streams of
    /// `basis.len() + 1` positions, reporting each step to `obs`.
    ///
    /// Registers must already hold every stream `stmts` reads from
    /// outside (a program walk starts from [`Registers::reset`]). With
    /// `carry`, shift and add carries are read from and accumulated into
    /// the window's carry state in pre-order slot order, exactly as
    /// [`try_interpret_chunk`] describes; `ctl` is polled once per
    /// statement.
    ///
    /// # Errors
    ///
    /// An interrupt from `ctl`, a read of an unwritten register, or a
    /// `while` loop past its fixpoint bound.
    pub fn walk<O: WalkObserver>(
        &mut self,
        stmts: &[Stmt],
        basis: &Basis,
        ctl: &RunControl,
        carry: Option<&mut CarryState>,
        obs: &mut O,
    ) -> Result<Walk, InterpError> {
        let mut walker = Walker {
            regs: self,
            basis,
            len: Program::stream_len(basis.len()),
            ctl,
            carry: carry.map(|state| CarryRun { state, next: 0 }),
            obs,
            walk: Walk::default(),
        };
        walker.run(stmts)?;
        let mut walk = walker.walk;
        walk.carry_slots = walker.carry.map_or(0, |c| c.next);
        Ok(walk)
    }
}

/// The streaming slot walk — see [`CarryState::for_program`] for the
/// layout contract.
struct CarryRun<'a> {
    state: &'a mut CarryState,
    next: usize,
}

impl CarryRun<'_> {
    fn take_slot(&mut self) -> usize {
        let s = self.next;
        self.next += 1;
        s
    }
}

struct Walker<'a, O> {
    regs: &'a mut Registers,
    basis: &'a Basis,
    len: usize,
    ctl: &'a RunControl,
    carry: Option<CarryRun<'a>>,
    obs: &'a mut O,
    walk: Walk,
}

impl<O: WalkObserver> Walker<'_, O> {
    fn run(&mut self, stmts: &[Stmt]) -> Result<(), InterpError> {
        for stmt in stmts {
            if !self.ctl.is_unlimited() {
                self.ctl.check()?;
            }
            match stmt {
                Stmt::Op(op) => self.exec(op)?,
                Stmt::If { cond, body } => {
                    // A pending carry inside the body means a marker
                    // crossed the chunk boundary: the body must run even
                    // if the guard is locally empty. Skipping leaves the
                    // body's outgoing carries zero, which is exactly the
                    // no-marker semantics.
                    self.obs.guard();
                    let (pending, layout) = self.body_carry(body);
                    if fetch(&self.regs.vars, *cond)?.any() || pending {
                        self.run(body)?;
                    } else {
                        self.obs.skip(body);
                        if let (Some(run), Some((start, count))) = (&mut self.carry, layout) {
                            run.next = start + count;
                        }
                    }
                }
                Stmt::While { cond, body } => {
                    // Defend against non-terminating programs from bad
                    // transforms: a marker fixpoint can never need more
                    // trips than there are positions (plus one forced
                    // trip when a cross-chunk carry is pending).
                    let (pending, layout) = self.body_carry(body);
                    let mut force = pending;
                    let mut fuel = self.len + 2 + usize::from(force);
                    loop {
                        if let (Some(run), Some((start, _))) = (&mut self.carry, layout) {
                            run.next = start;
                        }
                        if !(fetch(&self.regs.vars, *cond)?.any() || force) {
                            break;
                        }
                        force = false;
                        if fuel == 0 {
                            return Err(InterpError::FixpointDiverged);
                        }
                        fuel -= 1;
                        self.walk.loop_trips += 1;
                        self.obs.guard();
                        self.run(body)?;
                    }
                    self.obs.guard();
                    if let (Some(run), Some((start, count))) = (&mut self.carry, layout) {
                        run.next = start + count;
                    }
                }
            }
        }
        Ok(())
    }

    fn exec(&mut self, op: &Op) -> Result<(), InterpError> {
        self.walk.ops_executed += 1;
        let (len, basis) = (self.len, self.basis);
        let dst = op.dst().index();
        let regs = &mut *self.regs;
        let circuit = match op {
            Op::MatchCc { class, .. } => {
                let key = class as *const _ as usize;
                let cached = &mut regs.cc[dst];
                if cached.as_ref().map(|(k, _)| *k) != Some(key) {
                    *cached = Some((key, compile_class(class)));
                }
                cached.as_ref().map(|(_, cc)| cc)
            }
            _ => None,
        };
        self.obs.issue(op, circuit);
        // Values are computed into a spare buffer, never the
        // destination's own, so an op may read the stream it writes and
        // a dropped store leaves the previous value intact. Ops that
        // return a fresh stream drop `out`, retiring one spare so the
        // pool stays at one buffer per register written.
        let mut out = regs.spare.pop().unwrap_or_else(|| BitStream::zeros(len));
        let vars = &regs.vars;
        let mut value = match op {
            Op::MatchCc { .. } => {
                // Evaluated straight into a window-length stream: the
                // circuit runs word-group at a time with no per-node
                // temporaries, and the peek position stays clear.
                if out.len() != len {
                    out.reset_zeros(len);
                }
                if let Some(cc) = circuit {
                    cc.eval_into(basis, &mut out);
                }
                out
            }
            Op::And { a, b, .. } => {
                fetch(vars, *a)?.and_into(fetch(vars, *b)?, &mut out);
                out
            }
            Op::Or { a, b, .. } => {
                fetch(vars, *a)?.or_into(fetch(vars, *b)?, &mut out);
                out
            }
            Op::Add { a, b, .. } => {
                let (sa, sb) = (fetch(vars, *a)?, fetch(vars, *b)?);
                match &mut self.carry {
                    Some(run) => {
                        let slot = run.take_slot();
                        run.state.add_through(slot, sa, sb)
                    }
                    None => {
                        sa.add_into(sb, &mut out);
                        out
                    }
                }
            }
            Op::Xor { a, b, .. } => {
                fetch(vars, *a)?.xor_into(fetch(vars, *b)?, &mut out);
                out
            }
            Op::Not { src, .. } => {
                fetch(vars, *src)?.not_into(&mut out);
                out
            }
            Op::Advance { src, amount, .. } => {
                let k = *amount as usize;
                let s = fetch(vars, *src)?;
                match &mut self.carry {
                    Some(run) => {
                        let slot = run.take_slot();
                        run.state.advance_through(slot, s, k)
                    }
                    None => {
                        s.advance_into(k, &mut out);
                        out
                    }
                }
            }
            Op::Retreat { src, amount, .. } => {
                fetch(vars, *src)?.retreat_into(*amount as usize, &mut out);
                out
            }
            Op::Assign { src, .. } => {
                out.copy_from(fetch(vars, *src)?);
                out
            }
            Op::Zero { .. } => {
                out.reset_zeros(len);
                out
            }
            Op::Ones { .. } => BitStream::ones(len),
        };
        if self.obs.store(&mut value, self.carry.as_mut().map(|run| &mut *run.state)) {
            regs.set(op.dst(), value);
        } else {
            regs.spare.push(value);
        }
        Ok(())
    }

    /// Slot-walk bookkeeping for a guarded body: whether any of its
    /// incoming carries are pending and where its slots start.
    fn body_carry(&mut self, body: &[Stmt]) -> (bool, Option<(usize, usize)>) {
        match &self.carry {
            None => (false, None),
            Some(run) => {
                let start = run.next;
                let count = carry_slot_count(body);
                (run.state.pending(start..start + count), Some((start, count)))
            }
        }
    }
}

/// A written register's value, borrowing only the register vector so ops
/// can hold stream references while mutating the carry state.
fn fetch(vars: &[Option<BitStream>], id: StreamId) -> Result<&BitStream, InterpError> {
    vars[id.index()].as_ref().ok_or(InterpError::UnwrittenStream { id })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::{lower, lower_group};
    use bitgen_regex::{match_ends, multi_match_ends, parse};

    fn run(pattern: &str, input: &[u8]) -> Vec<usize> {
        let prog = lower(&parse(pattern).unwrap());
        interpret(&prog, &Basis::transpose(input)).match_ends(0)
    }

    fn assert_agrees(pattern: &str, input: &[u8]) {
        let oracle = match_ends(&parse(pattern).unwrap(), input);
        let got = run(pattern, input);
        assert_eq!(got, oracle, "pattern {pattern:?} on {:?}", String::from_utf8_lossy(input));
    }

    #[test]
    fn paper_cat() {
        assert_eq!(run("cat", b"bobcat"), vec![5]);
    }

    #[test]
    fn paper_figure3() {
        assert_eq!(run("(abc)|d", b"abcdabce"), vec![2, 3, 6]);
    }

    #[test]
    fn paper_listing3() {
        assert_eq!(run("a(bc)*d", b"ad"), vec![1]);
        assert_eq!(run("a(bc)*d", b"abcbcd"), vec![5]);
        assert_eq!(run("a(bc)*d", b"abcbc"), vec![]);
    }

    #[test]
    fn agrees_with_oracle_on_basics() {
        for (pat, input) in [
            ("a+", &b"xaaax"[..]),
            ("a*", b"baab"),
            ("ab|bc", b"abcabc"),
            ("a?b", b"ab_b_cb"),
            ("a{2,3}", b"aaaaa"),
            ("a{2,}", b"aaaa"),
            ("[a-c]+[0-9]", b"abc9 x1 c2"),
            (".a.", b"xaxya\n a"),
            ("(a|bb)*c", b"abbac bbc c"),
            ("a(bc)*d", b"adxabcd.abcbcbcd"),
        ] {
            assert_agrees(pat, input);
        }
    }

    #[test]
    fn match_at_final_byte_survives() {
        assert_agrees("ab", b"xxab");
        assert_agrees("a+", b"xxaa");
    }

    #[test]
    fn empty_input() {
        assert_eq!(run("a+", b""), vec![]);
    }

    #[test]
    fn group_outputs_are_independent() {
        let asts = vec![parse("ab").unwrap(), parse("bc").unwrap()];
        let prog = lower_group(&asts);
        let r = interpret(&prog, &Basis::transpose(b"abcabc"));
        assert_eq!(r.match_ends(0), vec![1, 4]);
        assert_eq!(r.match_ends(1), vec![2, 5]);
        assert_eq!(r.union().positions(), multi_match_ends(&asts, b"abcabc"));
    }

    #[test]
    fn loop_trips_counted() {
        let prog = lower(&parse("a(bc)*d").unwrap());
        let r = interpret(&prog, &Basis::transpose(b"abcbcbcd"));
        // Frontier survives three (bc) passes plus the emptying trip.
        assert!(r.loop_trips >= 3, "got {}", r.loop_trips);
        assert!(r.ops_executed > prog.op_count());
    }

    #[test]
    #[should_panic(expected = "unwritten stream")]
    fn reading_unwritten_stream_panics() {
        use crate::program::{Program, Stmt, Op, StreamId};
        let prog = Program::new(
            vec![Stmt::Op(Op::Not { dst: StreamId(1), src: StreamId(0) })],
            2,
            vec![StreamId(1)],
        );
        interpret(&prog, &Basis::transpose(b"x"));
    }

    #[test]
    fn try_interpret_reports_unwritten_stream() {
        use crate::program::{Program, Stmt, Op, StreamId};
        let prog = Program::new(
            vec![Stmt::Op(Op::Not { dst: StreamId(1), src: StreamId(0) })],
            2,
            vec![StreamId(1)],
        );
        let err = try_interpret(&prog, &Basis::transpose(b"x"), &RunControl::unlimited())
            .unwrap_err();
        assert_eq!(err, InterpError::UnwrittenStream { id: StreamId(0) });
    }

    fn chunked_union(prog: &crate::program::Program, input: &[u8], sizes: &[usize]) -> Vec<usize> {
        let mut carry = CarryState::for_program(prog);
        let mut ends = Vec::new();
        let mut off = 0usize;
        let mut rest = input;
        let mut i = 0usize;
        while !rest.is_empty() {
            let take = sizes[i % sizes.len()].min(rest.len());
            i += 1;
            if take == 0 {
                continue;
            }
            let (chunk, tail) = rest.split_at(take);
            rest = tail;
            let r = try_interpret_chunk(
                prog,
                &Basis::transpose(chunk),
                &RunControl::unlimited(),
                &mut carry,
            )
            .unwrap();
            ends.extend(
                r.union().positions().into_iter().filter(|&p| p < chunk.len()).map(|p| off + p),
            );
            carry.rotate();
            off += chunk.len();
        }
        ends
    }

    #[test]
    fn chunked_interpretation_matches_batch() {
        for (pat, input) in [
            ("a+b", &b"xaaab aab b ab"[..]),
            ("a(bc)*d", b"adxabcd.abcbcbcd"),
            ("a{2,}", b"aaaa a aaa"),
            ("(a|bb)*c", b"abbac bbc c"),
            (".a.", b"xaxya\n a"),
            ("ab", b"xxab"),
            ("[a-c]+[0-9]", b"abc9 x1 c2"),
        ] {
            let prog = lower(&parse(pat).unwrap());
            let batch = interpret(&prog, &Basis::transpose(input)).union().positions();
            for sizes in [&[1usize][..], &[2], &[3], &[5, 1], &[7, 2], &[64], &[100]] {
                let got = chunked_union(&prog, input, sizes);
                assert_eq!(got, batch, "pattern {pat:?} chunk sizes {sizes:?}");
            }
        }
    }

    #[test]
    fn chunked_match_star_carries_additions() {
        use crate::lower::{lower_group_with, LowerOptions};
        let opts = LowerOptions { match_star: true, ..LowerOptions::default() };
        for (pat, input) in [("a*b", &b"baaab aab"[..]), ("x[ab]*y", b"xy xabay xaaaaay")] {
            let prog = lower_group_with(&[parse(pat).unwrap()], opts);
            let batch = interpret(&prog, &Basis::transpose(input)).union().positions();
            for sizes in [&[1usize][..], &[2], &[3, 1], &[5]] {
                assert_eq!(
                    chunked_union(&prog, input, sizes),
                    batch,
                    "pattern {pat:?} chunk sizes {sizes:?}"
                );
            }
        }
    }

    #[test]
    fn single_chunk_equals_batch_interpretation() {
        let prog = lower(&parse("a(bc)*d").unwrap());
        let input = b"abcbcd ad";
        let batch = interpret(&prog, &Basis::transpose(input));
        let mut carry = CarryState::for_program(&prog);
        let chunked = try_interpret_chunk(
            &prog,
            &Basis::transpose(input),
            &RunControl::unlimited(),
            &mut carry,
        )
        .unwrap();
        assert_eq!(chunked.outputs, batch.outputs);
    }

    #[test]
    fn try_interpret_honours_cancellation() {
        use crate::control::CancelToken;
        let prog = lower(&parse("a(bc)*d").unwrap());
        let basis = Basis::transpose(b"abcbcbcd");
        let token = CancelToken::new();
        token.cancel();
        let ctl = RunControl::unlimited().with_cancel(token);
        assert_eq!(try_interpret(&prog, &basis, &ctl).unwrap_err(), InterpError::Cancelled);
    }

    #[test]
    fn try_interpret_honours_deadlines() {
        use std::time::{Duration, Instant};
        let prog = lower(&parse("a(bc)*d").unwrap());
        let basis = Basis::transpose(b"abcbcbcd");
        let expired = RunControl::unlimited().with_deadline(Instant::now() - Duration::from_secs(1));
        assert_eq!(
            try_interpret(&prog, &basis, &expired).unwrap_err(),
            InterpError::DeadlineExceeded
        );
        // A generous deadline changes nothing.
        let lax = RunControl::unlimited().deadline_in(Duration::from_secs(3600));
        let r = try_interpret(&prog, &basis, &lax).unwrap();
        assert_eq!(r.outputs[0].positions(), interpret(&prog, &basis).outputs[0].positions());
    }
}
