//! `serve_mixed`: the `bitgen-serve` daemon as its own process, driven
//! over its Unix socket.
//!
//! Two workers serve tenants that share two rule sets: the
//! `grep_sparse` set and the `batch_dense` set. One load-generator
//! process opens one connection per core (at most two), and each
//! connection multiplexes eight streams from four tenants. Pushes are
//! 512 B (three in four) and 4 KiB; one operation in fifty is a `SWAP`
//! to the next rule generation and one in fifty a close-and-reopen. The
//! run alternates [`CYCLES`] times between an open-loop phase, which
//! offers [`OFFERED_RATE`] operations per second on a seeded Poisson
//! schedule and times each push from when it was due, and a closed-loop
//! phase on the same connections, which finds the peak.

use crate::inputs::{self, Rules};
use crate::layers::{self, Counts, Plan, Record, Seq};
use crate::load::{self, ClosedLoop, ConnOutcome, Due, Event, OpGen, StreamPlan, Streams};
use crate::pace::{Pacer, Timed};
use crate::reference::Reference;
use crate::report::Report;
use crate::stats::{median, quantile, tail_q};
use crate::sys::{self, Reaped, WorkDir};
use crate::trace::{Tracer, HARNESS};
use crate::verify;
use crate::Args;
use bitgen_serve::Client;
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Offered open-loop rate, operations per second over all connections,
/// set once on the reference host (a 2-core x86-64 container): about a
/// sixth of its closed-loop peak (~280 operations/s with this push mix
/// while the host runs slow). Nearer half the peak, queueing amplified
/// the host's drift: at 90 operations/s the p50 of repeated runs of one
/// seed spread by a third, at 45 by a twentieth.
pub const OFFERED_RATE: f64 = 45.0;
/// Share of the run spent in open-loop phases; the rest is closed.
const OPEN_SHARE: f64 = 0.7;
/// Open-then-closed cycles per run. Alternating spreads both phases
/// over the whole run, so both see the same stretches of the host's
/// drift: with one closed-loop phase at the end, its 9 seconds alone
/// set the peak, which spread by a fifth across runs.
const CYCLES: usize = 3;
/// Streams per connection.
const STREAMS_PER_CONNECTION: usize = 8;
/// Tenants sharing the rule sets.
const TENANTS: usize = 4;
/// Daemon start-ups sampled before, and again after, the one that
/// serves the run.
const SETUPS_AROUND: usize = 3;
/// Pushes replayed in the service worker's shape in the traced run.
const WORKER_PUSHES: usize = 400;
/// Pushes scanned with `find` in the traced run.
const FIND_PUSHES: usize = 32;

fn connections() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

fn plans(connection: usize) -> Vec<StreamPlan> {
    (0..STREAMS_PER_CONNECTION)
        .map(|j| StreamPlan {
            tenant: format!(
                "tenant-{}",
                (connection * STREAMS_PER_CONNECTION + j) % TENANTS
            ),
            set: j % 2,
        })
        .collect()
}

/// Runs the workload.
pub fn run(args: &Args, report: &mut Report, tr: &mut Tracer) -> Result<(), String> {
    let (sparse, sparse_input) = inputs::sparse(args.seed, args.scale);
    let (dense, records) = inputs::dense(args.seed, args.scale);
    let dense_input: Vec<u8> = records.concat();
    let sets = [sparse, dense];
    let sources: [&[u8]; 2] = [&sparse_input, &dense_input];
    let conns = connections();
    let mut gens: Vec<OpGen> = (0..conns)
        .map(|c| OpGen::new(args.seed, c, STREAMS_PER_CONNECTION))
        .collect();
    let open_secs = args.seconds * OPEN_SHARE;
    let schedule = load::schedule(args.seed, &mut gens, OFFERED_RATE / conns as f64, open_secs);
    let all_plans: Vec<Vec<StreamPlan>> = (0..conns).map(plans).collect();
    if args.trace {
        let streams = Streams {
            sets: &sets,
            sources: &sources,
            plans: &all_plans[0],
            seed: args.seed,
        };
        traced(report, tr, &streams, &schedule[0], args.corrupt);
        Ok(())
    } else {
        let closed_secs = args.seconds - open_secs;
        untraced(
            args,
            report,
            &sets,
            &sources,
            &all_plans,
            &schedule,
            gens,
            closed_secs,
        )
    }
}

/// Spawns the daemon and times it until both rule sets' first `OPEN`
/// is acknowledged; returns the daemon, a connected client and the
/// set-up time.
fn start_daemon(
    bin: &Path,
    socket: &Path,
    sets: &[Rules],
) -> Result<(Reaped, Client, Timed), String> {
    let start = Instant::now();
    let child = Command::new(bin)
        .arg("serve")
        .arg("--socket")
        .arg(socket)
        .args(["--workers", &load::SERVE_WORKERS.to_string()])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
    let daemon = Reaped(Some(child));
    let mut client = loop {
        match Client::connect(socket) {
            Ok(c) => break c,
            Err(_) if start.elapsed() < Duration::from_secs(30) => {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(e) => return Err(format!("daemon never accepted: {e}")),
        }
    };
    let mut ids = Vec::new();
    for rules in sets {
        let (id, _) = client
            .open("setup", &load::refs(&rules.patterns))
            .map_err(|e| format!("set-up OPEN: {e}"))?;
        ids.push(id);
    }
    let setup = Timed::since(start);
    for id in ids {
        client.close(id).map_err(|e| format!("set-up CLOSE: {e}"))?;
    }
    Ok((daemon, client, setup))
}

/// Asks the daemon to exit and waits for it (killing it after 30 s).
fn stop_daemon(daemon: Reaped, mut client: Client, report: &mut Report) {
    report.check(client.shutdown().is_ok(), || "SHUTDOWN was refused".into());
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut daemon = daemon;
    loop {
        let child = daemon.0.as_mut().expect("daemon present until stopped");
        match child.try_wait() {
            Ok(Some(status)) => {
                report.check(status.success(), || format!("daemon exited {status}"));
                daemon.0 = None;
                return;
            }
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(5)),
            _ => {
                report.fail("daemon did not exit after SHUTDOWN");
                return; // `Reaped` kills and reaps it.
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn untraced(
    args: &Args,
    report: &mut Report,
    sets: &[Rules],
    sources: &[&[u8]],
    all_plans: &[Vec<StreamPlan>],
    schedule: &[Vec<Due>],
    gens: Vec<OpGen>,
    closed_secs: f64,
) -> Result<(), String> {
    let work = WorkDir::create().map_err(|e| format!("scratch directory: {e}"))?;
    let bin = args.bin_dir.join("bitgen-serve");
    // Set-up samples come from daemons started before and after the
    // measured one, so their median spans the run like the others.
    let pacer = Pacer::start();
    let mut setups = Vec::with_capacity(2 * SETUPS_AROUND + 1);
    let mut sample_setup = |k: usize, report: &mut Report| -> Result<(), String> {
        let (daemon, client, setup) = start_daemon(&bin, &work.file(&format!("d{k}.sock")), sets)?;
        report.attempt();
        setups.push(setup);
        stop_daemon(daemon, client, report);
        Ok(())
    };
    for k in 0..SETUPS_AROUND {
        sample_setup(k, report)?;
    }
    let socket = work.file("serve.sock");
    let (daemon, control, setup) = start_daemon(&bin, &socket, sets)?;
    report.attempt();
    let mut clients = Vec::with_capacity(all_plans.len());
    for _ in all_plans {
        clients.push(Client::connect(&socket).map_err(|e| format!("connect: {e}"))?);
    }
    let barrier = Barrier::new(all_plans.len());
    // Each connection's schedule, cut into the cycles' open-loop phases,
    // each re-based to the start of its phase.
    let phase = args.seconds * OPEN_SHARE / CYCLES as f64;
    let cycles: Vec<Vec<Vec<Due>>> = schedule
        .iter()
        .map(|s| {
            (0..CYCLES)
                .map(|k| {
                    let (lo, hi) = (k as f64 * phase, (k + 1) as f64 * phase);
                    s.iter()
                        .filter(|d| d.0 >= lo && d.0 < hi)
                        .map(|&(due, op)| (due - lo, op))
                        .collect()
                })
                .collect()
        })
        .collect();
    let start = Instant::now() + Duration::from_millis(50);
    let outcomes: Vec<ConnOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .zip(gens)
            .enumerate()
            .map(|(c, (mut client, gen))| {
                let barrier = &barrier;
                let streams = Streams {
                    sets,
                    sources,
                    plans: &all_plans[c],
                    seed: args.seed.wrapping_add(c as u64),
                };
                let cycles = &cycles[c];
                scope.spawn(move || {
                    let closed = ClosedLoop {
                        gen,
                        secs: closed_secs / CYCLES as f64,
                        max_ops: u64::MAX,
                    };
                    let cycles: Vec<&[Due]> = cycles.iter().map(Vec::as_slice).collect();
                    load::run_connection(
                        &mut client,
                        &streams,
                        &cycles,
                        start,
                        Some(barrier),
                        Some(closed),
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load generator thread panicked"))
            .collect()
    });
    let pid = daemon
        .0
        .as_ref()
        .expect("daemon present until stopped")
        .id()
        .to_string();
    let peak_mb = sys::vm_hwm_mb(&pid).ok_or("cannot read the daemon's VmHWM")?;
    stop_daemon(daemon, control, report);
    for k in SETUPS_AROUND..2 * SETUPS_AROUND {
        sample_setup(k, report)?;
    }
    setups.push(setup);

    let pace = pacer.finish();
    let mut push = Vec::new();
    let mut swap = Vec::new();
    let mut late_ms = Vec::new();
    let mut lives = Vec::new();
    let (mut closed_bytes, mut closed_ops) = (0u64, 0u64);
    // Each cycle's closed-loop phase runs from the first connection's
    // start to the last connection's last reply.
    let mut closed: Vec<Timed> = Vec::new();
    for o in outcomes {
        report.attempted += o.attempted;
        for f in o.failures {
            report.fail(f);
        }
        push.extend(o.push);
        swap.extend(o.swap);
        late_ms.extend(o.late_ms);
        lives.extend(o.lives);
        closed_bytes += o.closed_bytes;
        closed_ops += o.closed_ops;
        for (k, t) in o.closed.into_iter().enumerate() {
            match closed.get_mut(k) {
                Some(phase) => {
                    phase.from = phase.from.min(t.from);
                    phase.to = phase.to.max(t.to);
                }
                None => closed.push(t),
            }
        }
    }
    let (checked, problems) = verify::check_lives(&lives, sets, sources, args.corrupt)?;
    report.attempted += checked;
    for p in problems {
        report.fail(p);
    }
    let closed_raw: f64 = closed.iter().map(Timed::raw).sum();
    if closed_raw <= 0.0 {
        return Err("the run measured no closed-loop time".into());
    }
    if push.is_empty() || swap.is_empty() {
        return Err("the run measured no pushes or swaps".into());
    }
    let push_ms: Vec<f64> = pace.all_secs(&push).iter().map(|s| s * 1e3).collect();
    let raw_push_ms: Vec<f64> = push.iter().map(|t| t.raw() * 1e3).collect();
    let closed_secs: f64 = pace.all_secs(&closed).iter().sum();
    eprintln!(
        "serve_mixed: {} open-loop pushes at {OFFERED_RATE} ops/s offered over {} connections, \
         {} swaps, {closed_ops} closed-loop ops ({closed_bytes} bytes) in {:.3} s; tail is p{:.0}; \
         push p99 {:.3} ms; raw push p50 {:.3} ms; generator late p99 {:.3} ms; \
         host slowness p50 {:.3}",
        push_ms.len(),
        all_plans.len(),
        swap.len(),
        closed_raw,
        tail_q(push_ms.len()) * 100.0,
        quantile(&push_ms, 0.99),
        median(&raw_push_ms),
        quantile(&late_ms, 0.99),
        pace.median_slowness()
    );
    report.set("setup_s", median(&pace.all_secs(&setups)));
    report.set("throughput_mb_s", closed_bytes as f64 / 1e6 / closed_secs);
    report.set("latency_p50_ms", median(&push_ms));
    report.set("latency_tail_ms", quantile(&push_ms, tail_q(push_ms.len())));
    report.set("swap_p50_ms", median(&pace.all_secs(&swap)) * 1e3);
    report.set("peak_rss_mb", peak_mb);
    Ok(())
}

/// Replays the first connection's open-loop schedule against an
/// in-process service, from one thread so every span nests (the
/// generator behaves like that connection in the daemon run), then
/// replays the served pushes layer by layer.
fn traced(
    report: &mut Report,
    tr: &mut Tracer,
    streams: &Streams<'_>,
    schedule: &[Due],
    corrupt: bool,
) {
    let Streams { sets, sources, .. } = *streams;
    let mut c = Counts::default();
    tr.enter(HARNESS, "serve_mixed replay", 0);
    let mut engines = Vec::new();
    for (s, rules) in sets.iter().enumerate() {
        match layers::compile(tr, report, &mut c, &rules.patterns, s as u64) {
            Some(e) => engines.push(e),
            None => {
                tr.exit();
                return;
            }
        }
    }
    let (facts, lives) = layers::serve(tr, report, streams, schedule, None, corrupt);

    // The served pushes, layer by layer: each life up to its first swap
    // in the worker's shape, the first pushes through `find`, every
    // push through the transpose.
    let mut worker = Vec::new();
    let mut units = Vec::new();
    let mut budget = WORKER_PUSHES;
    for life in &lives {
        let mut seq = Seq {
            set: life.set,
            chunks: Vec::new(),
            reference: Vec::new(),
        };
        for event in &life.events {
            let Event::Push { start, len, ends } = event else {
                break;
            };
            let bytes = &sources[life.set][*start..*start + *len];
            units.push(bytes);
            if budget > 0 {
                budget -= 1;
                seq.chunks.push(bytes);
                seq.reference.extend_from_slice(ends);
            }
        }
        if !seq.chunks.is_empty() {
            worker.push(seq);
        }
    }
    let mut refs: Vec<Reference> = sets.iter().map(|r| Reference::new(&r.asts)).collect();
    let records: Vec<Record<'_>> = lives
        .iter()
        .flat_map(|l| {
            l.events.iter().filter_map(move |e| match e {
                Event::Push { start, len, .. } => {
                    Some((l.set, &sources[l.set][*start..*start + *len]))
                }
                Event::Swap => None,
            })
        })
        .take(FIND_PUSHES)
        .map(|(set, bytes)| Record {
            set,
            bytes,
            reference: refs[set].ends(bytes),
        })
        .collect();
    let streams: Vec<Seq<'_>> = sources
        .iter()
        .enumerate()
        .map(|(set, src)| {
            let bytes = &src[..src.len().min(16 * inputs::RECORD_BYTES)];
            Seq {
                set,
                chunks: bytes.chunks(inputs::RECORD_BYTES).collect(),
                reference: refs[set].ends(bytes),
            }
        })
        .collect();
    let plan = Plan {
        streams,
        worker,
        units,
        records,
    };
    layers::replay(tr, report, &mut c, &plan, &engines);
    tr.exit();
    layers::finish(tr, report, &c, &facts);
}
