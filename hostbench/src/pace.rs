//! The host's pace: how fast the machine runs right now, against a
//! fixed reference.
//!
//! On the 2-core reference host every program slows down together, by
//! up to 1.7×, for stretches of seconds: user CPU time tracks wall time,
//! so the cause is the shared hardware, not scheduling. Raw medians of a
//! 30-second run then spread by a quarter across runs. To measure the
//! program rather than its neighbours, a background thread times a
//! fixed calibration kernel every [`PERIOD`]. A timed sample of the
//! program is divided by the host's *slowness* over its interval — the
//! kernel's time there over [`REF_KERNEL_NS`] — which gives the time the
//! sample would have taken at the reference host's full speed. The raw
//! wall times are printed next to the normalised ones.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The calibration kernel's time on the reference host at full speed,
/// in ns: the fastest tenth of 30 seconds of `hostbench calibrate`
/// while the host ran fast.
pub const REF_KERNEL_NS: f64 = 325_000.0;
/// Gap between calibration samples.
const PERIOD: Duration = Duration::from_millis(25);
/// How far beyond a sample's interval calibration samples still count.
const WINDOW: Duration = Duration::from_millis(500);
/// Fewest calibration samples behind one slowness figure.
const MIN_SAMPLES: usize = 5;
/// Words of each of the kernel's two buffers: 32 KiB, cache-resident
/// like a window of bitstreams.
const WORDS: usize = 4096;
/// Passes of the kernel over its buffers.
const PASSES: u64 = 200;

/// The kernel's two buffers.
struct Buffers {
    acc: Vec<u64>,
    src: Vec<u64>,
}

impl Buffers {
    fn new() -> Buffers {
        Buffers {
            acc: vec![3; WORDS],
            src: (0..WORDS as u64)
                .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
                .collect(),
        }
    }
}

/// A fixed amount of bit-parallel work: shifts, masks and xors over
/// cache-resident words, independent from word to word — the
/// throughput-bound operation mix of a bitstream kernel. A latency-bound
/// kernel (one long dependency chain) was tried first and did not slow
/// down when the host did; this one does, by about as much as `bitgrep`.
/// Returns a value the caller must consume.
fn kernel(b: &mut Buffers) -> u64 {
    for round in 0..PASSES {
        for (x, y) in b.acc.iter_mut().zip(&b.src) {
            *x = ((*x ^ (y << 1)) & (y | (*x >> 3))) ^ round;
        }
    }
    b.acc.iter().fold(0, |s, w| s ^ w)
}

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
#[derive(Default)]
struct Timespec {
    secs: i64,
    nanos: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU time the calling thread has run, in ns.
fn thread_cpu_ns() -> f64 {
    let mut ts = Timespec::default();
    // SAFETY: `ts` is a valid, writable `struct timespec` for the 64-bit
    // Linux ABI and outlives the call; the clock id is a constant the
    // kernel accepts for the calling thread.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the thread CPU clock is always available on Linux");
    ts.secs as f64 * 1e9 + ts.nanos as f64
}

/// Times one run of the calibration kernel in thread CPU time, in ns.
/// CPU time leaves out the stretches the thread was not scheduled, so
/// the benchmark's own load (the daemon saturating the cores in a
/// closed loop) does not read as a slow host; a slower core does.
fn time_kernel(b: &mut Buffers) -> f64 {
    let start = thread_cpu_ns();
    std::hint::black_box(kernel(std::hint::black_box(b)));
    thread_cpu_ns() - start
}

/// The background calibration thread; [`Pacer::finish`] stops it and
/// returns what it measured.
pub struct Pacer {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<Vec<(Instant, f64)>>>,
}

impl Pacer {
    /// Starts sampling.
    pub fn start() -> Pacer {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut buf = Buffers::new();
            time_kernel(&mut buf);
            let mut samples = Vec::new();
            while !flag.load(Ordering::Relaxed) {
                let at = Instant::now();
                samples.push((at, time_kernel(&mut buf)));
                std::thread::sleep(PERIOD);
            }
            samples
        });
        Pacer {
            stop,
            handle: Some(handle),
        }
    }

    /// Stops sampling.
    pub fn finish(mut self) -> Pace {
        Pace {
            samples: self.join(),
        }
    }

    fn join(&mut self) -> Vec<(Instant, f64)> {
        self.stop.store(true, Ordering::Relaxed);
        self.handle
            .take()
            .map(|h| h.join().expect("calibration thread panicked"))
            .unwrap_or_default()
    }
}

impl Drop for Pacer {
    fn drop(&mut self) {
        self.join();
    }
}

/// A timed interval of the program under test.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    /// When it started (for a scheduled request: when it was due).
    pub from: Instant,
    /// When it ended.
    pub to: Instant,
}

impl Timed {
    /// An interval from `from` until now.
    pub fn since(from: Instant) -> Timed {
        Timed {
            from,
            to: Instant::now(),
        }
    }

    /// Its wall seconds, as measured.
    pub fn raw(&self) -> f64 {
        self.to.saturating_duration_since(self.from).as_secs_f64()
    }
}

/// Calibration samples of a finished run.
#[derive(Debug)]
pub struct Pace {
    samples: Vec<(Instant, f64)>,
}

impl Pace {
    /// The host's slowness over `[from, to]`: the calibration kernel's
    /// time there over [`REF_KERNEL_NS`] (1.0 at the reference host's
    /// full speed). Takes the median of the samples within [`WINDOW`] of
    /// the interval, or of the [`MIN_SAMPLES`] nearest.
    pub fn slowness(&self, from: Instant, to: Instant) -> f64 {
        let distance = |at: Instant| {
            if at < from {
                from - at
            } else {
                at.saturating_duration_since(to)
            }
        };
        let mut near: Vec<(Duration, f64)> = self
            .samples
            .iter()
            .map(|&(at, ns)| (distance(at), ns))
            .collect();
        near.sort_by_key(|s| s.0);
        let within = near.iter().filter(|s| s.0 <= WINDOW).count();
        let take = within.max(MIN_SAMPLES).min(near.len());
        let ns: Vec<f64> = near[..take].iter().map(|s| s.1).collect();
        if ns.is_empty() {
            return 1.0;
        }
        crate::stats::median(&ns) / REF_KERNEL_NS
    }

    /// The interval's seconds at the reference speed.
    pub fn secs(&self, t: &Timed) -> f64 {
        t.raw() / self.slowness(t.from, t.to)
    }

    /// Every interval's seconds at the reference speed.
    pub fn all_secs(&self, ts: &[Timed]) -> Vec<f64> {
        ts.iter().map(|t| self.secs(t)).collect()
    }

    /// Median slowness over all samples, for the log.
    pub fn median_slowness(&self) -> f64 {
        let ns: Vec<f64> = self.samples.iter().map(|s| s.1).collect();
        if ns.is_empty() {
            return 1.0;
        }
        crate::stats::median(&ns) / REF_KERNEL_NS
    }
}

/// Samples the calibration kernel for `seconds` and prints its time
/// quantiles: how [`REF_KERNEL_NS`] was set, and how to check a host.
pub fn calibrate(seconds: f64) -> std::process::ExitCode {
    let pacer = Pacer::start();
    std::thread::sleep(Duration::from_secs_f64(seconds));
    let pace = pacer.finish();
    let mut ns: Vec<f64> = pace.samples.iter().map(|s| s.1).collect();
    ns.sort_by(f64::total_cmp);
    for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0] {
        println!(
            "p{:<3} {:>12.0} ns",
            q * 100.0,
            crate::stats::quantile(&ns, q)
        );
    }
    std::process::ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_work_is_fixed() {
        let a = kernel(&mut Buffers::new());
        let b = kernel(&mut Buffers::new());
        assert_eq!(a, b);
    }

    #[test]
    fn slowness_uses_nearby_samples() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut samples: Vec<(Instant, f64)> =
            (0..20).map(|i| (at(i * 25), REF_KERNEL_NS)).collect();
        samples.extend((0..20).map(|i| (at(5000 + i * 25), 2.0 * REF_KERNEL_NS)));
        let pace = Pace { samples };
        assert_eq!(pace.slowness(at(100), at(200)), 1.0);
        assert_eq!(pace.slowness(at(2000), at(2100)), 1.0);
        assert_eq!(pace.slowness(at(5100), at(5200)), 2.0);
        let t = Timed {
            from: at(5100),
            to: at(5300),
        };
        assert!((pace.secs(&t) - 0.1).abs() < 1e-12);
    }
}
