//! # llsc-bench: experiment regenerators
//!
//! One function per experiment in `EXPERIMENTS.md`. The paper is a theory
//! paper without numbered tables, so the "tables" here are the mechanised
//! checks of its lemmas and theorems plus the sweeps that exhibit each
//! bound's shape. [`registry::REGISTRY`] lists every published table with
//! its parameters; `llsc table <id>` runs one through the shared
//! [`harness`]. Each function returns a [`harness::Experiment`] — the
//! rendered table plus its typed rows — so tests can assert on the
//! numbers without re-parsing stdout.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod harness;
pub mod job;
pub mod registry;
pub mod repro;
pub mod table;
pub mod xcheck;

pub use experiments::*;
