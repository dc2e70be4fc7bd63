//! The m3gc ledger: one benchmark, four workloads, source text in →
//! checked output out, every layer timed from outside through its
//! public functions. See `README.md` beside this crate.

pub mod cell;
pub mod cli;
pub mod constants;
pub mod harness;
pub mod inputs;
pub mod json;
pub mod manifest;
pub mod report;
pub mod runs;
pub mod span;
pub mod stats;
pub mod workloads;
