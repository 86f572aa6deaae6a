//! `batch_dense`: `ScanSession::scan_many` over independent 64 KiB
//! records.
//!
//! The Dotstar/Brill-like 64-rule set, heavy on `.*` and `while`
//! loops, at witness density 0.25. The library runs in a child process
//! (this binary's `batch-child` mode) so its resident memory is its
//! own; the parent holds the reference answers and checks every record
//! of every call.

use crate::inputs::{self, Rules, Scale};
use crate::layers::{self, Counts, Plan, Record, Seq};
use crate::load::{refs, ClosedLoop, OpGen, Streams};
use crate::pace::{Pacer, Timed};
use crate::reference::{self, Reference};
use crate::report::Report;
use crate::stats::{digest, median, quantile, tail_q};
use crate::sys;
use crate::trace::{Tracer, HARNESS};
use crate::Args;
use bitgen::{BitGen, EngineConfig};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// Fewest set-up and swap samples per run.
const MIN_SETUPS: usize = 9;
/// Host threads of the measured session. One, so the figures are the
/// batch host path's own: with one worker per core on the 2-core
/// reference host, the per-call thread fan-out left peak RSS to which
/// glibc arenas the new threads landed in, and doubled the exposure to
/// the host's drift.
const SCAN_THREADS: usize = 1;
/// Records per `scan_many` call.
fn per_call(scale: Scale) -> usize {
    match scale {
        Scale::Full => 8,
        Scale::Tiny => 2,
    }
}
/// Records `find` scans in the traced run.
const FIND_RECORDS: usize = 16;
/// Operations of the in-process service replay in the traced run.
const SERVE_OPS: u64 = 200;

/// Runs the workload.
pub fn run(args: &Args, report: &mut Report, tr: &mut Tracer) -> Result<(), String> {
    let (rules, records) = if args.trace {
        inputs::dense(args.seed, args.scale)
    } else {
        let (rules, text) = inputs::dense_text(args.seed, args.scale);
        let n = inputs::batch_records(args.scale);
        (rules, (0..n).map(|i| text.record(i)).collect())
    };
    let mut reference = Reference::new(&rules.asts);
    let mut want = Vec::with_capacity(records.len());
    for record in &records {
        want.push(reference.checked_ends(record)?);
    }
    if args.corrupt {
        reference::corrupt(&mut want[0]);
    }
    if args.trace {
        traced(args, report, tr, &rules, &records, &want, &mut reference);
        Ok(())
    } else {
        untraced(args, report, &records, &want)
    }
}

fn untraced(
    args: &Args,
    report: &mut Report,
    records: &[Vec<u8>],
    want: &[Vec<u64>],
) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let scale = match args.scale {
        Scale::Full => "full",
        Scale::Tiny => "tiny",
    };
    let out = Command::new(exe)
        .arg("batch-child")
        .args([
            "--seed",
            &args.seed.to_string(),
            "--seconds",
            &args.seconds.to_string(),
        ])
        .args(["--scale", scale])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the batch child: {e}"))?;
    report.check(out.status.success(), || {
        format!("batch child exited {}", out.status)
    });
    let expected: Vec<String> = want
        .iter()
        .map(|ends| format!("{}:{:016x}", ends.len(), digest(ends)))
        .collect();
    let (mut setup, mut swap, mut calls) = (Vec::new(), Vec::new(), Vec::new());
    let mut raw_calls = Vec::new();
    let mut peak_mb: Option<f64> = None;
    let mut call_bytes = 0usize;
    for line in String::from_utf8_lossy(&out.stdout).lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let nanos = |i: usize| {
            fields
                .get(i)
                .and_then(|v| v.parse::<f64>().ok())
                .map_or(f64::NAN, |n| n / 1e9)
        };
        let secs = nanos(2);
        match fields.first().copied().unwrap_or("") {
            "setup" => setup.push(secs),
            "rss" => peak_mb = fields.get(1).and_then(|v| v.parse().ok()),
            "swap" => swap.push(secs),
            "call" => {
                let first: usize = fields
                    .get(3)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(usize::MAX);
                let got = fields.get(4..).unwrap_or_default();
                let ok = first < records.len()
                    && got.iter().enumerate().all(|(k, d)| {
                        expected
                            .get((first + k) % records.len())
                            .map(String::as_str)
                            == Some(*d)
                    });
                report.check(ok && !got.is_empty(), || {
                    format!("scan_many call at record {first} mismatched")
                });
                call_bytes = (0..got.len())
                    .map(|k| records[(first + k) % records.len()].len())
                    .sum();
                calls.push(secs);
                raw_calls.push(nanos(1));
            }
            "error" => {
                report.attempt();
                report.fail(line.to_string());
            }
            _ => {}
        }
    }
    let Some(peak_mb) = peak_mb else {
        return Err("batch child reported no peak RSS".into());
    };
    if setup.is_empty() || swap.is_empty() || calls.is_empty() {
        return Err("batch child reported no measurements".into());
    }
    let p50 = median(&calls);
    eprintln!(
        "batch_dense: {} scan_many calls of {call_bytes} bytes; tail is p{:.0}; \
         raw call p50 {:.3} ms",
        calls.len(),
        tail_q(calls.len()) * 100.0,
        median(&raw_calls) * 1e3
    );
    report.set("setup_s", median(&setup));
    report.set("throughput_mb_s", call_bytes as f64 / 1e6 / p50);
    report.set("latency_p50_ms", p50 * 1e3);
    report.set(
        "latency_tail_ms",
        quantile(&calls, tail_q(calls.len())) * 1e3,
    );
    report.set("swap_p50_ms", median(&swap) * 1e3);
    report.set("peak_rss_mb", peak_mb);
    Ok(())
}

fn slices(batch: &[Vec<u8>]) -> Vec<&[u8]> {
    batch.iter().map(Vec::as_slice).collect()
}

/// The process under test: compiles, scans batches for `--seconds`,
/// and prints one line per measurement for the parent to check:
/// `KIND RAW_NS NORM_NS [FIRST DIGEST...]`, where `NORM_NS` is the
/// interval at the reference host speed (see [`crate::pace`]).
pub fn child(args: &Args) -> ExitCode {
    let (rules, text) = inputs::dense_text(args.seed, args.scale);
    let records = inputs::batch_records(args.scale) as usize;
    let patterns = refs(&rules.patterns);
    let next = refs(&rules.next);
    let config = EngineConfig::default().with_threads(SCAN_THREADS);
    let pacer = Pacer::start();
    let mut lines: Vec<(&str, Timed, String)> = Vec::new();
    // Set-up and swap samples are taken between the calls, so all the
    // medians span the same stretch of the host's drift.
    let setup = |lines: &mut Vec<(&str, Timed, String)>| -> Result<BitGen, String> {
        let start = Instant::now();
        let compiled =
            BitGen::compile_with(&patterns, config.clone()).map_err(|e| e.to_string())?;
        std::hint::black_box(compiled.session());
        lines.push(("setup", Timed::since(start), String::new()));
        Ok(compiled)
    };
    let engine = match setup(&mut lines) {
        Ok(engine) => engine,
        Err(e) => {
            println!("error compile: {e}");
            return ExitCode::from(1);
        }
    };
    let mut samples = 1;
    let sample = |lines: &mut Vec<(&str, Timed, String)>| {
        if let Err(e) = setup(lines) {
            println!("error compile: {e}");
        }
        let start = Instant::now();
        let staged = engine.prepare_swap(&next);
        let timed = Timed::since(start);
        match staged {
            Ok(s) => drop(std::hint::black_box(s)),
            Err(e) => println!("error swap: {e}"),
        }
        lines.push(("swap", timed, String::new()));
    };
    let mut session = engine.session();
    let per = per_call(args.scale).min(records);
    // Records are generated batch by batch, outside the timed calls, so
    // the process holds only what one call scans.
    let batch = |first: usize| -> Vec<Vec<u8>> {
        (0..per)
            .map(|k| text.record(((first + k) % records) as u64))
            .collect()
    };
    if let Err(e) = session.scan_many(&slices(&batch(0))) {
        println!("error warm-up: {e}");
    }
    let start = Instant::now();
    let mut first = 0;
    while start.elapsed().as_secs_f64() < args.seconds {
        let owned = batch(first);
        let inputs = slices(&owned);
        let t = Instant::now();
        let scanned = session.scan_many(&inputs);
        let timed = Timed::since(t);
        match scanned {
            Ok(reports) => {
                let mut line = first.to_string();
                for r in &reports {
                    let ends: Vec<u64> = r
                        .matches
                        .positions()
                        .into_iter()
                        .map(|p| p as u64)
                        .collect();
                    line.push_str(&format!(" {}:{:016x}", ends.len(), digest(&ends)));
                }
                lines.push(("call", timed, line));
            }
            Err(e) => println!("error scan_many: {e}"),
        }
        first = (first + per) % records;
        sample(&mut lines);
        samples += 1;
    }
    for _ in samples..MIN_SETUPS {
        sample(&mut lines);
    }
    let pace = pacer.finish();
    match sys::vm_hwm_mb("self") {
        Some(mb) => println!("rss {mb}"),
        None => println!("error cannot read VmHWM"),
    }
    for (kind, timed, rest) in &lines {
        println!(
            "{kind} {:.0} {:.0} {rest}",
            timed.raw() * 1e9,
            pace.secs(timed) * 1e9
        );
    }
    ExitCode::SUCCESS
}

fn traced(
    args: &Args,
    report: &mut Report,
    tr: &mut Tracer,
    rules: &Rules,
    records: &[Vec<u8>],
    want: &[Vec<u64>],
    reference: &mut Reference,
) {
    let sets = std::slice::from_ref(rules);
    let mut c = Counts::default();
    tr.enter(HARNESS, "batch_dense replay", 0);
    let Some(engine) = layers::compile(tr, report, &mut c, &rules.patterns, 0) else {
        tr.exit();
        return;
    };
    // The first batch's records, back to back, as one stream.
    let joined: Vec<u8> = records
        .iter()
        .take(per_call(args.scale))
        .flatten()
        .copied()
        .collect();
    let joined_ref = reference.ends(&joined);
    let small = &joined[..joined.len().min(inputs::RECORD_BYTES)];
    let small_ref: Vec<u64> = joined_ref
        .iter()
        .copied()
        .filter(|&e| e < small.len() as u64)
        .collect();
    let plan = Plan {
        streams: vec![Seq {
            set: 0,
            chunks: joined.chunks(inputs::RECORD_BYTES).collect(),
            reference: joined_ref,
        }],
        worker: vec![Seq {
            set: 0,
            chunks: layers::serve_sized(small),
            reference: small_ref,
        }],
        units: records.iter().map(Vec::as_slice).collect(),
        records: records
            .iter()
            .zip(want)
            .take(FIND_RECORDS)
            .map(|(r, w)| Record {
                set: 0,
                bytes: r,
                reference: w.clone(),
            })
            .collect(),
    };
    layers::replay(tr, report, &mut c, &plan, std::slice::from_ref(&engine));
    let plans = layers::single_set_plans();
    let streams = Streams {
        sets,
        sources: &[&joined],
        plans: &plans,
        seed: args.seed,
    };
    let closed = ClosedLoop {
        gen: OpGen::new(args.seed, 0, plans.len()),
        secs: 1e6,
        max_ops: SERVE_OPS,
    };
    let (facts, _) = layers::serve(tr, report, &streams, &[], Some(closed), false);
    tr.exit();
    layers::finish(tr, report, &c, &facts);
}
