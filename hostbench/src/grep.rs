//! `grep_sparse`: the `bitgrep` binary over one large generated file.
//!
//! The Snort-like 64-rule set at witness density 0.001; `bitgrep`
//! streams the file in 64 KiB chunks through `StreamScanner::push`.
//! Transpose and the streaming kernel do nearly all the work, windows
//! are mostly cold, and nothing serves, resumes or checkpoints.

use crate::inputs::{self, Rules};
use crate::layers::{self, Counts, Plan, Record, Seq};
use crate::load::{ClosedLoop, OpGen, Streams};
use crate::pace::{Pacer, Timed};
use crate::reference::{self, Reference};
use crate::report::Report;
use crate::stats::{median, quantile, tail_q};
use crate::sys::{self, WorkDir};
use crate::trace::{Tracer, HARNESS};
use crate::Args;
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// `bitgrep`'s streaming chunk.
const CHUNK: usize = 64 * 1024;
/// Fewest set-up and swap samples per run (each one `bitgrep` process).
const MIN_SETUPS: usize = 9;
/// Records `find` scans in the traced run.
const FIND_RECORDS: usize = 16;
/// Operations of the in-process service replay in the traced run.
const SERVE_OPS: u64 = 200;

/// Runs the workload.
pub fn run(args: &Args, report: &mut Report, tr: &mut Tracer) -> Result<(), String> {
    let (rules, input) = inputs::sparse(args.seed, args.scale);
    let mut reference = Reference::new(&rules.asts);
    let mut want = reference.checked_ends(&input)?;
    if args.corrupt {
        reference::corrupt(&mut want);
    }
    if args.trace {
        traced(args, report, tr, &rules, &input, &want, &mut reference);
        Ok(())
    } else {
        untraced(args, report, &rules, &input, &want)
    }
}

struct Grep<'a> {
    bin: std::path::PathBuf,
    rules: &'a Path,
}

/// One `bitgrep` run.
struct Run {
    /// Its interval.
    timed: Timed,
    /// Its exit code.
    code: Option<i32>,
    /// The positions it printed.
    ends: Vec<u64>,
    /// Its resident-memory high-water mark, MiB.
    peak_mb: f64,
}

impl Grep<'_> {
    /// Runs `bitgrep -f RULES [extra] --positions FILE`. A second thread
    /// reads the process's `VmHWM` every 2 ms while it lives; the mark
    /// only rises, so the last read holds the peak up to then.
    fn run(&self, extra: &[&str], file: &Path) -> Result<Run, String> {
        let start = Instant::now();
        let child = Command::new(&self.bin)
            .arg("-f")
            .arg(self.rules)
            .args(extra)
            .arg("--positions")
            .arg(file)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot run {}: {e}", self.bin.display()))?;
        let pid = child.id().to_string();
        let done = AtomicBool::new(false);
        let (out, peak_mb) = std::thread::scope(|scope| {
            let poller = scope.spawn(|| {
                let mut peak = 0.0f64;
                while !done.load(Ordering::Relaxed) {
                    if let Some(mb) = sys::vm_hwm_mb(&pid) {
                        peak = peak.max(mb);
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                peak
            });
            let out = child.wait_with_output();
            done.store(true, Ordering::Relaxed);
            (out, poller.join().expect("RSS poller panicked"))
        });
        let out = out.map_err(|e| format!("cannot run {}: {e}", self.bin.display()))?;
        let timed = Timed::since(start);
        let text = String::from_utf8_lossy(&out.stdout);
        let ends = text
            .lines()
            .map(|l| l.trim().parse::<u64>())
            .collect::<Result<Vec<_>, _>>();
        let ends = ends.map_err(|e| format!("bitgrep printed a non-position: {e}"))?;
        if !out.status.success() && out.status.code() != Some(1) {
            eprintln!("bitgrep: {}", String::from_utf8_lossy(&out.stderr).trim());
        }
        Ok(Run {
            timed,
            code: out.status.code(),
            ends,
            peak_mb,
        })
    }
}

fn untraced(
    args: &Args,
    report: &mut Report,
    rules: &Rules,
    input: &[u8],
    want: &[u64],
) -> Result<(), String> {
    let work = WorkDir::create().map_err(|e| format!("scratch directory: {e}"))?;
    let write = |name: &str, bytes: &[u8]| {
        let path = work.file(name);
        std::fs::write(&path, bytes)
            .map(|()| path)
            .map_err(|e| format!("{name}: {e}"))
    };
    let rules_file = write("rules.txt", rules.patterns.join("\n").as_bytes())?;
    let next_file = write("next.txt", rules.next.join("\n").as_bytes())?;
    let input_file = write("input.bin", input)?;
    let empty_file = write("empty.bin", b"")?;
    let grep = Grep {
        bin: args.bin_dir.join("bitgrep"),
        rules: &rules_file,
    };
    let expected_code = if want.is_empty() { 1 } else { 0 };

    let pacer = Pacer::start();
    let mut setup = Vec::new();
    let mut swap = Vec::new();
    let swap_arg = format!("{}@0", next_file.display());
    // Set-up and swap samples are taken between the scans, so all
    // three medians span the same stretch of the host's drift.
    let mut peak_mb = 0.0f64;
    let mut sample_setup = |report: &mut Report, peak_mb: &mut f64| -> Result<(), String> {
        let run = grep.run(&[], &empty_file)?;
        report.check(run.code == Some(1) && run.ends.is_empty(), || {
            format!("empty-file run exited {:?}", run.code)
        });
        setup.push(run.timed);
        *peak_mb = peak_mb.max(run.peak_mb);
        let run = grep.run(&["--swap-rules", &swap_arg], &empty_file)?;
        report.check(run.code == Some(1) && run.ends.is_empty(), || {
            format!("swap run exited {:?}", run.code)
        });
        swap.push(run.timed);
        *peak_mb = peak_mb.max(run.peak_mb);
        Ok(())
    };

    // One unmeasured run warms the page cache and the binary.
    let run = grep.run(&[], &input_file)?;
    report.check(run.code == Some(expected_code) && run.ends == want, || {
        format!(
            "warm-up: exit {:?}, {} ends vs reference {}",
            run.code,
            run.ends.len(),
            want.len()
        )
    });
    let mut walls = Vec::new();
    let mut samples = 0;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < args.seconds {
        let run = grep.run(&[], &input_file)?;
        report.check(run.code == Some(expected_code) && run.ends == want, || {
            format!(
                "scan: exit {:?}, {} ends vs reference {}",
                run.code,
                run.ends.len(),
                want.len()
            )
        });
        walls.push(run.timed);
        peak_mb = peak_mb.max(run.peak_mb);
        sample_setup(report, &mut peak_mb)?;
        samples += 1;
    }
    for _ in samples..MIN_SETUPS {
        sample_setup(report, &mut peak_mb)?;
    }
    let pace = pacer.finish();
    let raw: Vec<f64> = walls.iter().map(Timed::raw).collect();
    let walls = pace.all_secs(&walls);
    let p50 = median(&walls);
    eprintln!(
        "grep_sparse: {} bitgrep runs over {} bytes; tail is p{:.0}; raw wall p50 {:.3} ms; \
         host slowness p50 {:.3}",
        walls.len(),
        input.len(),
        tail_q(walls.len()) * 100.0,
        median(&raw) * 1e3,
        pace.median_slowness()
    );
    report.set("setup_s", median(&pace.all_secs(&setup)));
    report.set("throughput_mb_s", input.len() as f64 / 1e6 / p50);
    report.set("latency_p50_ms", p50 * 1e3);
    report.set(
        "latency_tail_ms",
        quantile(&walls, tail_q(walls.len())) * 1e3,
    );
    report.set("swap_p50_ms", median(&pace.all_secs(&swap)) * 1e3);
    report.set("peak_rss_mb", peak_mb);
    Ok(())
}

fn traced(
    args: &Args,
    report: &mut Report,
    tr: &mut Tracer,
    rules: &Rules,
    input: &[u8],
    want: &[u64],
    reference: &mut Reference,
) {
    let sets = std::slice::from_ref(rules);
    let mut c = Counts::default();
    tr.enter(HARNESS, "grep_sparse replay", 0);
    // `bitgrep`'s own sequence: compile, streamer, 64 KiB pushes.
    let Some(engine) = layers::compile(tr, report, &mut c, &rules.patterns, 0) else {
        tr.exit();
        return;
    };
    let chunks: Vec<&[u8]> = input.chunks(CHUNK).collect();
    let small = &input[..input.len().min(2 * CHUNK)];
    let small_ref: Vec<u64> = want
        .iter()
        .copied()
        .filter(|&e| e < small.len() as u64)
        .collect();
    let records: Vec<Record<'_>> = chunks
        .iter()
        .take(FIND_RECORDS)
        .map(|chunk| Record {
            set: 0,
            bytes: chunk,
            reference: reference.ends(chunk),
        })
        .collect();
    let plan = Plan {
        streams: vec![Seq {
            set: 0,
            chunks: chunks.clone(),
            reference: want.to_vec(),
        }],
        worker: vec![Seq {
            set: 0,
            chunks: layers::serve_sized(small),
            reference: small_ref,
        }],
        units: chunks,
        records,
    };
    layers::replay(tr, report, &mut c, &plan, std::slice::from_ref(&engine));
    let plans = layers::single_set_plans();
    let streams = Streams {
        sets,
        sources: &[input],
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
