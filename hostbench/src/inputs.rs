//! Seeded inputs: the two rule sets, their next generations, and the
//! bytes they scan. Everything here is a pure function of the seed and
//! the scale, so a child process regenerates exactly what its parent
//! holds references for.

use crate::rng::Rng;
use bitgen_regex::Ast;
use bitgen_workloads::{generate, AppKind, Workload, WorkloadConfig};

/// Full size (the measured runs) or tiny (the self-test).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Sizes the recorded figures are measured at.
    Full,
    /// A few kilobytes, for the benchmark's own self-test.
    Tiny,
}

impl Scale {
    fn pick<T>(self, full: T, tiny: T) -> T {
        match self {
            Scale::Full => full,
            Scale::Tiny => tiny,
        }
    }
}

/// A rule set plus the generation a hot swap moves to.
#[derive(Debug, Clone)]
pub struct Rules {
    /// Generation-0 patterns.
    pub patterns: Vec<String>,
    /// Parsed generation-0 patterns (for the reference engines).
    pub asts: Vec<Ast>,
    /// The next generation: the same set with its last eighth replaced.
    pub next: Vec<String>,
}

impl Rules {
    /// Patterns of generation `g` of this lineage: swaps alternate
    /// between the two sets, each swap a new generation.
    pub fn generation(&self, g: u64) -> &[String] {
        if g.is_multiple_of(2) {
            &self.patterns
        } else {
            &self.next
        }
    }
}

/// Seed of the rule sets. They are fixed, like a shipped rule file;
/// `--seed` varies the bytes they scan (and, for `serve_mixed`, the
/// schedule), so run-to-run differences measure the program rather
/// than which rules a seed happened to draw.
const RULES_SEED: u64 = 0xb17_5eed;
/// Salt that derives the next generation's rules.
const NEXT_GENERATION: u64 = 0x0005_eed0_f9e7;

fn with_next(base: Vec<(String, Ast)>, successor: Vec<(String, Ast)>) -> Rules {
    let keep = base.len() - (base.len() / 8).max(1);
    let next = base[..keep]
        .iter()
        .chain(&successor[keep..])
        .map(|p| p.0.clone())
        .collect();
    Rules {
        patterns: base.iter().map(|p| p.0.clone()).collect(),
        asts: base.into_iter().map(|p| p.1).collect(),
        next,
    }
}

/// An application's rules (no input), from the fixed rule seed.
fn rules_of(kind: AppKind, regexes: usize, salt: u64) -> Workload {
    let config = WorkloadConfig {
        regexes,
        input_len: 0,
        seed: RULES_SEED ^ salt,
        witness_density: 0.0,
    };
    generate(kind, &config)
}

fn pairs(w: &Workload) -> Vec<(String, Ast)> {
    w.patterns
        .iter()
        .cloned()
        .zip(w.asts.iter().cloned())
        .collect()
}

/// Text in the style of `bitgen_workloads`' input generator: 16-byte
/// runs of `noise`, with one of `witnesses` planted in place of a run
/// at probability `density`, and a newline every 64 bytes or so when
/// `lines` is set.
fn plant(
    rng: &mut Rng,
    noise: &[u8],
    witnesses: &[Vec<u8>],
    density: f64,
    lines: bool,
    len: usize,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(len + 64);
    let mut since_newline = 0;
    while out.len() < len {
        if !witnesses.is_empty() && rng.unit() < density {
            let w = &witnesses[rng.below(witnesses.len())];
            out.extend_from_slice(w);
            since_newline += w.len();
        } else {
            for _ in 0..16 {
                out.push(noise[rng.below(noise.len())]);
            }
            since_newline += 16;
        }
        if lines && since_newline >= 64 {
            out.push(b'\n');
            since_newline = 0;
        }
    }
    out.truncate(len);
    out
}

/// Witness density of the sparse (grep) input.
pub const SPARSE_DENSITY: f64 = 0.001;
/// Witness density of the dense (batch) records.
pub const DENSE_DENSITY: f64 = 0.25;
/// Bytes per batch record at full scale.
pub const RECORD_BYTES: usize = 64 * 1024;

const SNORT_NOISE: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789 /:.-_";
const DOTSTAR_NOISE: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789 ";
const BRILL_NOISE: &[u8] = b"abcdefghijklmnopqrstuvwxyz    ";

/// The Snort-like sparse set (64 rules) and one large input at witness
/// density 0.001.
pub fn sparse(seed: u64, scale: Scale) -> (Rules, Vec<u8>) {
    let regexes = scale.pick(64, 8);
    let rules = rules_of(AppKind::Snort, regexes, 0);
    let successor = rules_of(AppKind::Snort, regexes, NEXT_GENERATION);
    let mut rng = Rng::new(seed, 0x5a);
    let len = scale.pick(4 << 20, 96 << 10);
    let input = plant(
        &mut rng,
        SNORT_NOISE,
        &rules.witnesses,
        SPARSE_DENSITY,
        false,
        len,
    );
    (with_next(pairs(&rules), pairs(&successor)), input)
}

/// Records of the batch workload's measured calls at full scale. One
/// record in about sixty sends `find` down a path that holds ~2.7 MiB
/// more, so with 32 records only two seeds in five met one and the
/// batch peak RSS split between ~8 and ~11 MiB by seed; with 256,
/// nearly every run meets one.
pub fn batch_records(scale: Scale) -> u64 {
    scale.pick(256, 4)
}

/// The dense set's text: independent records at witness density 0.25,
/// alternating between the two applications' text, each a pure
/// function of the seed and its index.
pub struct DenseText {
    seed: u64,
    len: usize,
    dot: Vec<Vec<u8>>,
    brill: Vec<Vec<u8>>,
}

impl DenseText {
    /// Record `i`.
    pub fn record(&self, i: u64) -> Vec<u8> {
        let mut rng = Rng::new(self.seed, 0xde + i);
        let (noise, witnesses) = if i.is_multiple_of(2) {
            (DOTSTAR_NOISE, &self.dot)
        } else {
            (BRILL_NOISE, &self.brill)
        };
        plant(&mut rng, noise, witnesses, DENSE_DENSITY, true, self.len)
    }
}

/// The Dotstar/Brill-like dense set (32 + 32 rules, `.*` gaps and
/// `while` loops) and its text.
pub fn dense_text(seed: u64, scale: Scale) -> (Rules, DenseText) {
    let half = scale.pick(32, 4);
    let dot = rules_of(AppKind::Dotstar, half, 0);
    let brill = rules_of(AppKind::Brill, half, 0);
    let mut base = pairs(&dot);
    base.extend(pairs(&brill));
    let mut successor = pairs(&rules_of(AppKind::Dotstar, half, NEXT_GENERATION));
    successor.extend(pairs(&rules_of(AppKind::Brill, half, NEXT_GENERATION)));
    let text = DenseText {
        seed,
        len: scale.pick(RECORD_BYTES, 4096),
        dot: dot.witnesses,
        brill: brill.witnesses,
    };
    (with_next(base, successor), text)
}

/// The dense set and its first records (32 at full scale): the text the
/// traced replay and `serve_mixed` scan.
pub fn dense(seed: u64, scale: Scale) -> (Rules, Vec<Vec<u8>>) {
    let (rules, text) = dense_text(seed, scale);
    let records = (0..scale.pick(32u64, 4)).map(|i| text.record(i)).collect();
    (rules, records)
}
