//! The served-stream correctness gate: every stream life is replayed on
//! a standalone [`bitgen::StreamScanner`] over the same bytes, with
//! `prepare_swap`/`commit_swap` at the same offsets, and its ends must
//! equal what the server returned. Lives that never swapped are also
//! checked against the DFA baseline, an engine independent of the
//! bitstream pipeline.

use crate::inputs::Rules;
use crate::load::{refs, Event, Life};
use crate::reference::{self, Reference};
use bitgen::{BitGen, EngineConfig, StagedRules};

/// Chunk size of the standalone replay: matches are bit-identical at
/// any chunking, so the replay uses large chunks.
const REPLAY_CHUNK: usize = 64 * 1024;

/// Checks every life; returns `(lives checked, failure reasons)`.
/// `corrupt` damages the first life's reference on purpose.
pub fn check_lives(
    lives: &[Life],
    sets: &[Rules],
    sources: &[&[u8]],
    corrupt: bool,
) -> Result<(u64, Vec<String>), String> {
    let mut problems = Vec::new();
    let mut checked = 0u64;
    let mut corrupt_pending = corrupt;
    for (s, rules) in sets.iter().enumerate() {
        let base = BitGen::compile_with(&refs(&rules.patterns), EngineConfig::default())
            .map_err(|e| format!("reference compile: {e}"))?;
        let depth = lives
            .iter()
            .filter(|l| l.set == s)
            .map(|l| l.events.iter().filter(|e| matches!(e, Event::Swap)).count())
            .max()
            .unwrap_or(0);
        let mut chain: Vec<StagedRules> = Vec::with_capacity(depth);
        for g in 1..=depth as u64 {
            let parent = chain.last().map_or(&base, StagedRules::engine);
            let staged = parent
                .prepare_swap(&refs(rules.generation(g)))
                .map_err(|e| format!("reference swap compile: {e}"))?;
            chain.push(staged);
        }
        let mut dfa = Reference::new(&rules.asts);
        for life in lives.iter().filter(|l| l.set == s) {
            checked += 1;
            let source = sources[s];
            let mut scanner = base.streamer().map_err(|e| e.to_string())?;
            let mut want: Vec<u64> = Vec::new();
            let mut got: Vec<u64> = Vec::new();
            let mut bytes: Vec<u8> = Vec::new();
            let mut pending: Vec<u8> = Vec::new();
            let mut generation = 0usize;
            let flush = |scanner: &mut bitgen::StreamScanner<'_>,
                         pending: &mut Vec<u8>,
                         want: &mut Vec<u64>|
             -> Result<(), String> {
                for chunk in pending.chunks(REPLAY_CHUNK) {
                    want.extend(scanner.push(chunk).map_err(|e| e.to_string())?);
                }
                pending.clear();
                Ok(())
            };
            for event in &life.events {
                match event {
                    Event::Push { start, len, ends } => {
                        pending.extend_from_slice(&source[*start..*start + *len]);
                        bytes.extend_from_slice(&source[*start..*start + *len]);
                        got.extend_from_slice(ends);
                    }
                    Event::Swap => {
                        flush(&mut scanner, &mut pending, &mut want)?;
                        scanner
                            .commit_swap(&chain[generation])
                            .map_err(|e| e.to_string())?;
                        generation += 1;
                    }
                }
            }
            flush(&mut scanner, &mut pending, &mut want)?;
            if generation == 0 {
                let independent = dfa.ends(&bytes);
                if independent != want {
                    problems.push(format!(
                        "standalone scanner disagrees with the DFA on a {}-byte stream",
                        bytes.len()
                    ));
                }
            }
            if corrupt_pending {
                reference::corrupt(&mut want);
                corrupt_pending = false;
            }
            if got != want {
                problems.push(format!(
                    "served stream (set {s}, {} bytes, {generation} swaps) returned {} ends, \
                     reference {}",
                    bytes.len(),
                    got.len(),
                    want.len()
                ));
            }
        }
    }
    Ok((checked, problems))
}
