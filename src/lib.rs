//! # llsc-lowerbound
//!
//! An executable reproduction of Prasad Jayanti's PODC 1998 paper
//! *"A Time Complexity Lower Bound for Randomized Implementations of Some
//! Shared Objects"*: the shared-memory model with **LL / SC / validate /
//! swap / move** operations, the five-phase round adversary, the
//! `UP`-set bookkeeping and indistinguishability machinery behind the
//! `Ω(log n)` wakeup lower bound, the Theorem 6.2 object reductions, and
//! the matching `O(log n)` oblivious universal construction that makes
//! the bound tight.
//!
//! This crate is a facade: it re-exports the member crates under
//! stable module names. See the workspace `README.md` for a tour and
//! `DESIGN.md`/`EXPERIMENTS.md` for the paper-to-code mapping.
//!
//! | Module | Crate | Contents |
//! |--------|-------|----------|
//! | [`shmem`] | `llsc-shmem` | Section-3 model: registers, operations, processes, schedulers, runs, executor, the [`shmem::ExecutionBackend`] trait and shared JSON helpers |
//! | [`atomics`] | `llsc-atomics` | The real-hardware backend: LL/SC/VL built from pointer-width CAS, thread-per-process driver |
//! | [`core`] | `llsc-core` | Sections 4–6: secretive schedules, adversary runs, `UP` sets, indistinguishability, the Theorem 6.1 driver |
//! | [`objects`] | `llsc-objects` | Sequential specs of the Theorem 6.2 types; linearizability checking |
//! | [`wakeup`] | `llsc-wakeup` | Wakeup algorithms (correct, randomized, strawmen) and the object reductions |
//! | [`universal`] | `llsc-universal` | Oblivious universal constructions and the direct LL/SC escape hatch |
//! | [`bench`](mod@bench) | `llsc-bench` | E1–E18 experiment regenerators, the deterministic parallel harness, failure replay/shrinking, simulator ⇄ hardware cross-validation ([`bench::xcheck`]), and the table/JSON renderers |
//!
//! ## Quickstart
//!
//! ```
//! use llsc_lowerbound::core::{verify_lower_bound, ceil_log4, AdversaryConfig};
//! use llsc_lowerbound::wakeup::TournamentWakeup;
//! use llsc_lowerbound::shmem::ZeroTosses;
//! use std::sync::Arc;
//!
//! let n = 256;
//! let report = verify_lower_bound(
//!     &TournamentWakeup, n, Arc::new(ZeroTosses), &AdversaryConfig::default())
//!     .expect("the adversary run stays within the default budgets");
//! assert!(report.wakeup.ok());
//! // Theorem 6.1: the winner performed at least ceil(log4 n) = 4 shared ops...
//! assert!(report.winner_steps >= ceil_log4(n));
//! // ...and the tournament shows the bound is tight within a factor ~2.
//! assert!(report.winner_steps <= 2 * ceil_log4(n) + 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use llsc_atomics as atomics;
pub use llsc_bench as bench;
pub use llsc_core as core;
pub use llsc_objects as objects;
pub use llsc_shmem as shmem;
pub use llsc_universal as universal;
pub use llsc_wakeup as wakeup;
