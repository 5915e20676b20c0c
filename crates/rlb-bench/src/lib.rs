//! The perf gates behind `rlb-sim bench`, each writing a committed
//! `BENCH_*.json` record:
//!
//! * [`engine`] — steps/s of the light/heavy/interleaved scenarios per
//!   cluster size, ratio-gated against the previous record.
//! * [`suite`] — wall clock of `experiments all`, serial vs default
//!   jobs, with the same ratio gate.
//! * [`meanfield`] — mean-field solve times and the solver-vs-engine
//!   speedup, gated on an absolute floor.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod meanfield;
pub mod suite;
