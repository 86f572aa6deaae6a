//! The load generator shared by the daemon run and its in-process
//! replay.
//!
//! Each connection owns a few streams and a seeded operation stream:
//! mostly pushes of 512 B or 4 KiB, a fixed share of hot swaps to the
//! next rule generation, and an equal share of close-and-reopen. The
//! open-loop phase sends on a Poisson schedule built before the run,
//! timing every request from when it was *due*; the closed-loop phase
//! then sends back to back to find the peak. Every stream's history is
//! kept so the correctness gate can replay it on a standalone scanner.

use crate::inputs::Rules;
use crate::pace::Timed;
use crate::rng::Rng;
use crate::trace::Tracer;
use bitgen_serve::{wire, Client, ScanService};
use std::time::{Duration, Instant};

/// Worker threads of the service, in the daemon and in-process.
pub const SERVE_WORKERS: usize = 2;
/// Push sizes: three in four pushes are small, one in four large.
/// With an even mix the p50 fell into the gap between the two sizes'
/// latencies and swung with the mix a seed drew; this way the p50 is a
/// small push's and the tail a large one's.
pub const PUSH_SIZES: [usize; 4] = [512, 512, 512, 4096];
/// One operation in this many is a hot swap, and one (offset by half)
/// a close-and-reopen. At one in a hundred, a run had ~45 swaps and
/// their p50 spread by a fifth across runs.
pub const SWAP_EVERY: u64 = 50;

/// Something that serves streams: the daemon over a socket, or the
/// service in-process.
pub trait Target {
    /// Opens a stream; returns its id.
    fn open(&mut self, tenant: &str, patterns: &[&str]) -> Result<u64, String>;
    /// Pushes a chunk; returns the global ends inside it.
    fn push(&mut self, id: u64, chunk: &[u8]) -> Result<Vec<u64>, String>;
    /// Hot-swaps the stream; returns the new generation.
    fn swap(&mut self, id: u64, patterns: &[&str]) -> Result<u64, String>;
    /// Closes the stream.
    fn close(&mut self, id: u64) -> Result<(), String>;
}

impl Target for Client {
    fn open(&mut self, tenant: &str, patterns: &[&str]) -> Result<u64, String> {
        Client::open(self, tenant, patterns)
            .map(|(id, _)| id)
            .map_err(|e| e.to_string())
    }
    fn push(&mut self, id: u64, chunk: &[u8]) -> Result<Vec<u64>, String> {
        Client::push(self, id, chunk).map_err(|e| e.to_string())
    }
    fn swap(&mut self, id: u64, patterns: &[&str]) -> Result<u64, String> {
        Client::swap(self, id, patterns).map_err(|e| e.to_string())
    }
    fn close(&mut self, id: u64) -> Result<(), String> {
        Client::close(self, id)
            .map(|_| ())
            .map_err(|e| e.to_string())
    }
}

/// The service in-process, with every call traced. Each push also
/// runs the daemon's wire codec on the same frame (request encode and
/// parse, reply encode and parse), so the wire's share is timed on
/// identical bytes.
pub struct InProcess<'s, 't> {
    /// The service under test.
    pub service: &'s ScanService,
    /// Where the calls' spans go.
    pub tracer: &'t mut Tracer,
    /// Per-push wire codec time, µs.
    pub wire_us: Vec<f64>,
    request: u64,
}

impl<'s, 't> InProcess<'s, 't> {
    /// A traced client of `service`.
    pub fn new(service: &'s ScanService, tracer: &'t mut Tracer) -> InProcess<'s, 't> {
        InProcess {
            service,
            tracer,
            wire_us: Vec::new(),
            request: 0,
        }
    }
}

impl Target for InProcess<'_, '_> {
    fn open(&mut self, tenant: &str, patterns: &[&str]) -> Result<u64, String> {
        self.request += 1;
        let service = self.service;
        self.tracer
            .span("serve", "ScanService::open_stream", self.request, || {
                service.open_stream(tenant, patterns)
            })
            .map(|a| a.stream)
            .map_err(|e| e.to_string())
    }

    fn push(&mut self, id: u64, chunk: &[u8]) -> Result<Vec<u64>, String> {
        self.request += 1;
        let request = self.request;
        let t0 = Instant::now();
        let decoded = self.tracer.span("serve", "wire::request", request, || {
            let line = format!("PUSH {id} - {}", wire::hex_encode(chunk));
            wire::parse_request(&line)
        });
        let mut codec = t0.elapsed();
        match decoded {
            Ok(wire::Request::Push {
                chunk: ref bytes, ..
            }) if bytes == chunk => {}
            other => return Err(format!("wire codec mangled a push frame: {other:?}")),
        }
        let service = self.service;
        let ends = self
            .tracer
            .span("serve", "ScanService::push_chunk", request, || {
                service.push_chunk(id, chunk)
            })
            .map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        let parsed = self.tracer.span("serve", "wire::reply", request, || {
            let mut line = format!("OK {}", ends.len());
            for e in &ends {
                line.push(' ');
                line.push_str(&e.to_string());
            }
            line.split_whitespace()
                .skip(2)
                .map(str::parse::<u64>)
                .collect::<Result<Vec<_>, _>>()
        });
        codec += t1.elapsed();
        self.wire_us.push(codec.as_secs_f64() * 1e6);
        match parsed {
            Ok(back) if back == ends => Ok(ends),
            _ => Err("wire codec mangled a push reply".to_string()),
        }
    }

    fn swap(&mut self, id: u64, patterns: &[&str]) -> Result<u64, String> {
        self.request += 1;
        let service = self.service;
        self.tracer
            .span("serve", "ScanService::swap_rules", self.request, || {
                service.swap_rules(id, patterns)
            })
            .map_err(|e| e.to_string())
    }

    fn close(&mut self, id: u64) -> Result<(), String> {
        self.request += 1;
        let service = self.service;
        self.tracer
            .span("serve", "ScanService::close_stream", self.request, || {
                service.close_stream(id)
            })
            .map(|_| ())
            .map_err(|e| e.to_string())
    }
}

/// One operation of a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Push the stream's next `len` bytes.
    Push { stream: usize, len: usize },
    /// Hot-swap the stream to its next rule generation.
    Swap { stream: usize },
    /// Close the stream and open a fresh one in its place.
    Reopen { stream: usize },
}

/// The seeded operation stream of one connection.
#[derive(Debug)]
pub struct OpGen {
    rng: Rng,
    count: u64,
    streams: usize,
}

impl OpGen {
    /// Operations over `streams` streams.
    pub fn new(seed: u64, connection: usize, streams: usize) -> OpGen {
        OpGen {
            rng: Rng::new(seed, 0x0b5 + connection as u64),
            count: 0,
            streams,
        }
    }

    /// The next operation.
    pub fn next_op(&mut self) -> Op {
        self.count += 1;
        let stream = self.rng.below(self.streams);
        let len = PUSH_SIZES[self.rng.below(PUSH_SIZES.len())];
        if self.count.is_multiple_of(SWAP_EVERY) {
            Op::Swap { stream }
        } else if self.count % SWAP_EVERY == SWAP_EVERY / 2 {
            Op::Reopen { stream }
        } else {
            Op::Push { stream, len }
        }
    }
}

/// What happened to a stream, in order.
#[derive(Debug, Clone)]
pub enum Event {
    /// `len` bytes of the set's source from `start` were pushed and
    /// these global ends came back.
    Push {
        start: usize,
        len: usize,
        ends: Vec<u64>,
    },
    /// The stream moved to its next generation.
    Swap,
}

/// One stream from open to close.
#[derive(Debug, Clone)]
pub struct Life {
    /// Rule set index.
    pub set: usize,
    /// Its history.
    pub events: Vec<Event>,
}

/// A stream a connection owns.
#[derive(Debug, Clone)]
pub struct StreamPlan {
    /// Owning tenant.
    pub tenant: String,
    /// Rule set index.
    pub set: usize,
}

struct Live {
    id: u64,
    generation: u64,
    cursor: usize,
    life: Life,
}

/// An operation due `due` seconds after the open-loop phase starts.
pub type Due = (f64, Op);

/// The open-loop schedule of each connection: Poisson arrivals at
/// `rate` operations per second per connection for `secs` seconds,
/// drawing operations from each connection's [`OpGen`] (which then
/// continues into the closed-loop phase).
pub fn schedule(seed: u64, gens: &mut [OpGen], rate: f64, secs: f64) -> Vec<Vec<Due>> {
    gens.iter_mut()
        .enumerate()
        .map(|(c, gen)| {
            let mut rng = Rng::new(seed, 0xd0e + c as u64);
            let mut due = 0.0f64;
            let mut ops = Vec::new();
            loop {
                due += rng.exp_gap(rate);
                if due >= secs {
                    break ops;
                }
                ops.push((due, gen.next_op()));
            }
        })
        .collect()
}

/// The closed-loop phases of a connection, one per cycle.
#[derive(Debug)]
pub struct ClosedLoop {
    /// Where their operations come from.
    pub gen: OpGen,
    /// Length of each phase.
    pub secs: f64,
    /// Cap on operations per phase.
    pub max_ops: u64,
}

/// What one connection measured and kept.
#[derive(Debug, Default)]
pub struct ConnOutcome {
    /// Every stream life, closed at the end of the run.
    pub lives: Vec<Life>,
    /// Open-loop pushes, each from its due time to its reply.
    pub push: Vec<Timed>,
    /// How late each open-loop request was sent, ms; in the closed
    /// loop, the gap between a reply and the next send.
    pub late_ms: Vec<f64>,
    /// Swap round trips.
    pub swap: Vec<Timed>,
    /// Bytes committed in the closed-loop phases.
    pub closed_bytes: u64,
    /// Operations sent in the closed-loop phases.
    pub closed_ops: u64,
    /// Each closed-loop phase, from its start to its last reply.
    pub closed: Vec<Timed>,
    /// Operations attempted.
    pub attempted: u64,
    /// Failed operations, with the reason.
    pub failures: Vec<String>,
}

/// The streams of one connection and what they scan.
pub struct Streams<'a> {
    /// Rule sets, indexed by [`StreamPlan::set`].
    pub sets: &'a [Rules],
    /// Bytes each set's streams read from, indexed like `sets`.
    pub sources: &'a [&'a [u8]],
    /// The connection's streams.
    pub plans: &'a [StreamPlan],
    /// Seed for where each stream starts reading its source.
    pub seed: u64,
}

/// Drives one connection: opens its streams, then for each cycle sends
/// that cycle's open-loop schedule (the first from `start`, later ones
/// from when the cycle begins), waits at `barrier`, and runs a
/// closed-loop phase of `closed` followed by another wait; finally
/// closes every stream.
pub fn run_connection<T: Target>(
    target: &mut T,
    streams: &Streams<'_>,
    cycles: &[&[Due]],
    start: Instant,
    barrier: Option<&std::sync::Barrier>,
    closed: Option<ClosedLoop>,
) -> ConnOutcome {
    let Streams {
        sets,
        sources,
        plans,
        seed,
    } = *streams;
    let mut out = ConnOutcome::default();
    let mut cursor_rng = Rng::new(seed, 0xc0 + plans.len() as u64);
    let mut lives: Vec<Option<Live>> = Vec::with_capacity(plans.len());
    for plan in plans {
        out.attempted += 1;
        let patterns = refs(sets[plan.set].generation(0));
        match target.open(&plan.tenant, &patterns) {
            Ok(id) => lives.push(Some(Live {
                id,
                generation: 0,
                cursor: cursor_rng.below(sources[plan.set].len()),
                life: Life {
                    set: plan.set,
                    events: Vec::new(),
                },
            })),
            Err(e) => {
                out.failures.push(format!("open: {e}"));
                lives.push(None);
            }
        }
    }
    let mut exec = |op: Op, out: &mut ConnOutcome, lives: &mut Vec<Option<Live>>| -> u64 {
        out.attempted += 1;
        let stream = match op {
            Op::Push { stream, .. } | Op::Swap { stream } | Op::Reopen { stream } => stream,
        };
        let Some(live) = lives[stream].as_mut() else {
            out.failures.push(format!("stream {stream} is not open"));
            return 0;
        };
        match op {
            Op::Push { len, .. } => {
                let source = sources[live.life.set];
                if live.cursor + len > source.len() {
                    live.cursor = 0;
                }
                let start = live.cursor;
                match target.push(live.id, &source[start..start + len]) {
                    Ok(ends) => {
                        live.cursor += len;
                        live.life.events.push(Event::Push { start, len, ends });
                        len as u64
                    }
                    Err(e) => {
                        out.failures.push(format!("push: {e}"));
                        0
                    }
                }
            }
            Op::Swap { .. } => {
                let next = live.generation + 1;
                let sent = Instant::now();
                match target.swap(live.id, &refs(sets[live.life.set].generation(next))) {
                    Ok(g) if g == next => {
                        out.swap.push(Timed::since(sent));
                        live.generation = next;
                        live.life.events.push(Event::Swap);
                    }
                    Ok(g) => out
                        .failures
                        .push(format!("swap reached generation {g}, not {next}")),
                    Err(e) => out.failures.push(format!("swap: {e}")),
                }
                0
            }
            Op::Reopen { .. } => {
                if let Err(e) = target.close(live.id) {
                    out.failures.push(format!("close: {e}"));
                }
                let old = lives[stream].take().expect("stream checked open above");
                out.lives.push(old.life);
                let plan = &plans[stream];
                match target.open(&plan.tenant, &refs(sets[plan.set].generation(0))) {
                    Ok(id) => {
                        lives[stream] = Some(Live {
                            id,
                            generation: 0,
                            cursor: old.cursor,
                            life: Life {
                                set: plan.set,
                                events: Vec::new(),
                            },
                        });
                    }
                    Err(e) => out.failures.push(format!("reopen: {e}")),
                }
                0
            }
        }
    };

    let scheduled = cycles.iter().any(|c| !c.is_empty());
    let mut closed = closed;
    for (k, open) in cycles.iter().enumerate() {
        let start = if k == 0 { start } else { Instant::now() };
        for &(due, op) in *open {
            let due_at = start + Duration::from_secs_f64(due);
            if let Some(wait) = due_at.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            out.late_ms.push(
                Instant::now()
                    .saturating_duration_since(due_at)
                    .as_secs_f64()
                    * 1e3,
            );
            let pushed = exec(op, &mut out, &mut lives);
            if pushed > 0 {
                out.push.push(Timed::since(due_at));
            }
        }
        if let Some(b) = barrier {
            b.wait();
        }
        if let Some(closed) = closed.as_mut() {
            let closed_start = Instant::now();
            let limit = Duration::from_secs_f64(closed.secs);
            let mut last_reply = closed_start;
            let mut ops = 0u64;
            while ops < closed.max_ops && closed_start.elapsed() < limit {
                let op = closed.gen.next_op();
                if !scheduled {
                    out.late_ms.push(last_reply.elapsed().as_secs_f64() * 1e3);
                }
                out.closed_bytes += exec(op, &mut out, &mut lives);
                last_reply = Instant::now();
                ops += 1;
            }
            out.closed_ops += ops;
            out.closed.push(Timed {
                from: closed_start,
                to: last_reply,
            });
            if let Some(b) = barrier {
                b.wait();
            }
        }
    }
    for live in lives.into_iter().flatten() {
        out.attempted += 1;
        if let Err(e) = target.close(live.id) {
            out.failures.push(format!("close: {e}"));
        }
        out.lives.push(live.life);
    }
    out
}

/// Borrowed pattern list.
pub fn refs(patterns: &[String]) -> Vec<&str> {
    patterns.iter().map(String::as_str).collect()
}
