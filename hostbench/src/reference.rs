//! Reference match ends from engines independent of the bitstream
//! pipeline: the lazy-DFA baseline for whole inputs, validated against
//! the AST-walking oracle on a prefix small enough for it.

use bitgen_baselines::DfaEngine;
use bitgen_regex::{multi_match_ends, Ast};

/// Longest prefix handed to the oracle (it walks cursor sets, so its
/// cost grows with input length times pattern size).
pub const ORACLE_PREFIX: usize = 2048;

/// A reference engine for one rule set.
pub struct Reference {
    asts: Vec<Ast>,
    dfa: DfaEngine,
}

impl Reference {
    /// Builds the engines for `asts`.
    pub fn new(asts: &[Ast]) -> Reference {
        Reference {
            asts: asts.to_vec(),
            dfa: DfaEngine::new(asts),
        }
    }

    /// Match ends of `input`, from the DFA.
    pub fn ends(&mut self, input: &[u8]) -> Vec<u64> {
        self.dfa
            .run(input)
            .ends
            .positions()
            .into_iter()
            .map(|p| p as u64)
            .collect()
    }

    /// [`Reference::ends`], after checking the DFA against the oracle
    /// on `input`'s prefix: a match ending inside the prefix depends on
    /// the prefix bytes alone, so both must list the same ends there.
    ///
    /// # Errors
    ///
    /// When the two references disagree.
    pub fn checked_ends(&mut self, input: &[u8]) -> Result<Vec<u64>, String> {
        let ends = self.ends(input);
        let prefix = &input[..input.len().min(ORACLE_PREFIX)];
        let oracle: Vec<u64> = multi_match_ends(&self.asts, prefix)
            .into_iter()
            .map(|p| p as u64)
            .collect();
        let dfa: Vec<u64> = ends
            .iter()
            .copied()
            .filter(|&e| e < prefix.len() as u64)
            .collect();
        if oracle != dfa {
            return Err(format!(
                "reference engines disagree on a {}-byte prefix: oracle {} ends, DFA {}",
                prefix.len(),
                oracle.len(),
                dfa.len()
            ));
        }
        Ok(ends)
    }
}

/// Damages a reference on purpose (`--corrupt-reference`): drops the
/// first end, or invents one when there is none. The run must then
/// fail its correctness gate.
pub fn corrupt(ends: &mut Vec<u64>) {
    if ends.is_empty() {
        ends.push(0);
    } else {
        ends.remove(0);
    }
}
