//! Bitstream-program IR for BitGen.
//!
//! The middle of the pipeline: regexes (from [`bitgen_regex`]) are lowered
//! into bitstream programs (the paper's Listing 2 grammar), which the
//! passes crate transforms and the kernel crate compiles for the simulated
//! GPU. This crate provides:
//!
//! - [`Program`] / [`Stmt`] / [`Op`]: the IR itself;
//! - [`ProgramBuilder`]: incremental construction;
//! - [`lower`] / [`lower_group`]: the Fig. 2 lowering rules;
//! - [`interpret`]: the whole-stream reference interpreter (the semantics
//!   every execution scheme must reproduce), built on [`Registers::walk`],
//!   the one sequential walker, which executors observe through
//!   [`WalkObserver`];
//! - [`ProgramStats`]: Table 1 instruction counts;
//! - [`DefUse`]: def/use analysis for the passes;
//! - [`pretty`]: Listing-3-style printing.
//!
//! # Examples
//!
//! ```
//! use bitgen_regex::parse;
//! use bitgen_ir::{lower, interpret};
//! use bitgen_bitstream::Basis;
//!
//! let prog = lower(&parse("(abc)|d").unwrap());
//! let r = interpret(&prog, &Basis::transpose(b"abcdabce"));
//! assert_eq!(r.match_ends(0), vec![2, 3, 6]); // Figure 3 of the paper
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod analysis;
mod builder;
mod carry;
mod control;
mod interp;
mod limits;
mod lower;
mod pretty;
mod program;
mod stats;
mod verify;

pub use analysis::DefUse;
pub use builder::ProgramBuilder;
pub use carry::{carry_slot_count, CarryError, CarryState};
pub use control::{CancelToken, Interrupt, RunControl};
pub use interp::{
    interpret, try_interpret, try_interpret_chunk, InterpError, InterpResult, Registers, Walk,
    WalkObserver,
};
pub use limits::{CompileLimits, LimitError};
pub use lower::{
    lower, lower_group, lower_group_checked, lower_group_with, strip_nullable, LowerOptions,
};
pub use pretty::pretty;
pub use program::{op_count, Op, Program, Stmt, StreamId};
pub use stats::ProgramStats;
pub use verify::{verify, VerifyError};
