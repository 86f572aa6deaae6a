//! `hostbench` — the measured host benchmark of bitgen-rs.
//!
//! ```text
//! hostbench --workload grep_sparse|batch_dense|serve_mixed --seed N --seconds S
//!           --trace 0|1 --bin-dir DIR [--scale full|tiny] [--corrupt-reference]
//! ```
//!
//! `--bin-dir` holds the `bitgrep` and `bitgen-serve` binaries under
//! test. With `--trace 0` the run measures the end-to-end metrics
//! through the program's own surfaces; with `--trace 1` it replays the
//! same inputs through each crate's public calls with spans around
//! them and reports the per-layer metrics. Either way the last line of
//! standard output is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` (value and unit per metric); a table with
//! each metric's measured/modelled tag goes to standard error.
//! `--corrupt-reference` damages one reference answer on purpose, so
//! the run must come back `correct: false`.
//!
//! `hostbench calibrate --seconds S` prints the time quantiles of the
//! host-pace calibration kernel (see `pace.rs`).
//!
//! `run.sh` next to this crate builds everything and is the entry point.

mod batch;
mod grep;
mod inputs;
mod layers;
mod load;
mod pace;
mod reference;
mod report;
mod rng;
mod serve;
mod stats;
mod sys;
mod trace;
mod verify;

use inputs::Scale;
use report::Report;
use std::path::PathBuf;
use std::process::ExitCode;
use trace::Tracer;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measuring time.
    pub seconds: f64,
    /// Traced (per-layer) run.
    pub trace: bool,
    /// Directory holding the binaries under test.
    pub bin_dir: PathBuf,
    /// Input scale.
    pub scale: Scale,
    /// Damage one reference answer.
    pub corrupt: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: hostbench --workload grep_sparse|batch_dense|serve_mixed --seed N --seconds S \
         --trace 0|1 --bin-dir DIR [--scale full|tiny] [--corrupt-reference]\n\
         \x20      hostbench batch-child --seed N --seconds S [--scale full|tiny]\n\
         \x20      hostbench calibrate --seconds S"
    );
    std::process::exit(2);
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        bin_dir: PathBuf::from("."),
        scale: Scale::Full,
        corrupt: false,
    };
    let value = |it: &mut dyn Iterator<Item = String>| it.next().unwrap_or_else(|| usage());
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => args.workload = value(&mut it),
            "--seed" => args.seed = value(&mut it).parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                args.seconds = value(&mut it)
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0)
                    .unwrap_or_else(|| usage());
            }
            "--trace" => {
                args.trace = match value(&mut it).as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--bin-dir" => args.bin_dir = PathBuf::from(value(&mut it)),
            "--scale" => {
                args.scale = match value(&mut it).as_str() {
                    "full" => Scale::Full,
                    "tiny" => Scale::Tiny,
                    _ => usage(),
                }
            }
            "--corrupt-reference" => args.corrupt = true,
            _ => usage(),
        }
    }
    args
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().map(String::as_str) == Some("batch-child") {
        argv.next();
        let args = parse_args(argv);
        return batch::child(&args);
    }
    if argv.peek().map(String::as_str) == Some("calibrate") {
        argv.next();
        let args = parse_args(argv);
        return pace::calibrate(args.seconds);
    }
    let args = parse_args(argv);
    let mut report = Report::default();
    let mut tracer = Tracer::new(args.trace);
    let result = match args.workload.as_str() {
        "grep_sparse" => grep::run(&args, &mut report, &mut tracer),
        "batch_dense" => batch::run(&args, &mut report, &mut tracer),
        "serve_mixed" => serve::run(&args, &mut report, &mut tracer),
        _ => usage(),
    };
    if let Err(e) = result {
        eprintln!("hostbench: {}: {e}", args.workload);
        return ExitCode::from(1);
    }
    if args.trace {
        let dir = std::path::Path::new(".bench_work").join("traces");
        let file = dir.join(format!("{}-seed{}.tsv", args.workload, args.seed));
        let written =
            std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&file, tracer.render()));
        match written {
            Ok(()) => eprintln!(
                "spans: {} written to {}",
                tracer.spans().len(),
                file.display()
            ),
            Err(e) => eprintln!("hostbench: cannot write spans to {}: {e}", file.display()),
        }
    }
    match report.finish(args.trace) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("hostbench: {e}");
            ExitCode::from(1)
        }
    }
}
