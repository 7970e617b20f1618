//! # llsc-shmem: the Section-3 model of computation
//!
//! This crate implements the asynchronous shared-memory model of
//! Jayanti, *"A Time Complexity Lower Bound for Randomized Implementations of
//! Some Shared Objects"* (PODC 1998), Section 3:
//!
//! * a system of `n` processes `p_0, ..., p_{n-1}`, each a resumable state
//!   machine (the [`Program`] trait) whose steps are either *local coin
//!   tosses* or *shared-memory operations*;
//! * a shared memory with a conceptually infinite supply of registers
//!   `R_0, R_1, ...`, each of unbounded size ([`SharedMemory`], [`Value`]);
//! * the five memory operations the paper studies — **LL**, **SC**,
//!   **validate**, **swap**, and **move** — with the paper's *strong*
//!   semantics (SC and validate return the previous value in addition to a
//!   boolean), see [`Operation`] and [`RegisterState`];
//! * coin tosses drawn from an arbitrary `COIN-RANGE` via explicit
//!   *toss assignments* ([`TossAssignment`]), exactly as in the paper's
//!   definition of `(All, A)`-runs;
//! * schedulers as functions of the finite run so far ([`Scheduler`]), with
//!   the "standard" power: full view of the past, no view of future coins;
//! * runs as alternating sequences of configurations and events ([`Run`]),
//!   with the *shared-access time complexity* accounting `t(p, R)` and
//!   `t(R)` used throughout the paper.
//!
//! The deterministic discrete-event engine tying these together is
//! [`Executor`]. Higher-level crates (`llsc-core`) build the paper's
//! five-phase round adversary, `UP`-set tracking, and the
//! indistinguishability machinery on top of the primitives exposed here.
//!
//! Execution is fault-tolerant by construction: safety-limit trips are
//! structured [`RunError`]s rather than panics (classified per run by
//! [`RunOutcome`]), crash-stop and crash-recovery faults are first-class
//! ([`Executor::crash`], [`Executor::recover`], and the seeded
//! [`CrashPlan`] delivered by one [`CrashDriver`]), memory faults —
//! spurious SC failures and transient register corruption, the weak-LL/SC
//! semantics of real hardware — are injected deterministically by a seeded
//! [`FaultPlan`] ([`Executor::set_fault_plan`]), and the [`Sweep`] trial
//! engine isolates per-trial panics into [`TrialFailure`] rows
//! ([`Sweep::run_fallible`]), with optional deterministic retries,
//! per-trial wall-clock deadlines, and a per-sweep [`CancelToken`].
//!
//! ## Example
//!
//! ```
//! use llsc_shmem::{Executor, ExecutorConfig, ProcessId, RegisterId, ZeroTosses};
//! use llsc_shmem::dsl::{ll, sc, done};
//! use llsc_shmem::{Algorithm, Program, Value};
//!
//! /// Every process LL's register 0 and tries to SC its own id into it.
//! struct OneShotSc;
//! impl Algorithm for OneShotSc {
//!     fn name(&self) -> &'static str { "one-shot-sc" }
//!     fn spawn(&self, pid: ProcessId, _n: usize) -> Box<dyn Program> {
//!         let r = RegisterId(0);
//!         ll(r, move |_prev| {
//!             sc(r, Value::from(pid.0 as i64), move |ok, _prev| {
//!                 done(Value::from(ok))
//!             })
//!         })
//!         .into_program()
//!     }
//! }
//!
//! let mut exec = Executor::new(&OneShotSc, 3, std::sync::Arc::new(ZeroTosses), ExecutorConfig::default());
//! // Run all three processes round-robin to completion.
//! while exec.step_round_robin().unwrap() {}
//! // Exactly one SC succeeds.
//! let winners = (0..3)
//!     .filter(|&i| exec.verdict(ProcessId(i)) == Some(&Value::from(true)))
//!     .count();
//! assert_eq!(winners, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cancel;
mod chaos;
mod coin;
mod crash;
mod executor;
mod fault;
mod ids;
mod memory;
mod op;
mod outcome;
mod process;
mod register;
mod rmr;
mod run;
mod scheduler;
mod value;

pub mod backend;
pub mod checkpoint;
pub mod dsl;
pub mod durable;
pub mod json;
pub mod repro;
pub mod rng;
pub mod sweep;

pub use backend::{run_sequential, BackendRun, ExecutionBackend, SimBackend};
pub use cancel::{panic_message, CancelToken, CANCEL_POLL_EVENTS};
pub use chaos::ChaosPlan;
pub use checkpoint::{CheckpointError, LoadedCheckpoint, SkippedCheckpoint};
pub use coin::{ConstantTosses, MapTosses, SeededTosses, TossAssignment, ZeroTosses};
pub use crash::{CrashDriver, CrashPlan, RecoverySpec};
pub use durable::{atomic_write, fnv64};
pub use executor::{Executor, ExecutorConfig, StepOutcome};
pub use fault::{FaultInjector, FaultPlan, FaultStats};
pub use ids::{ProcMask, ProcMaskIter, ProcessId, RegisterId};
pub use memory::{MemoryStats, SharedMemory};
pub use op::{OpKind, Operation, Response};
pub use outcome::{RunError, RunOutcome};
pub use process::{Action, Algorithm, Feedback, FnAlgorithm, Program};
pub use register::RegisterState;
pub use repro::{Provenance, Replayed, ReproCase, ScheduleSpec, ShrinkReport, TossSpec};
pub use rmr::{dsm_cost, dsm_home};
pub use run::{OpCounters, ProcHistory, Run, RunEvent};
pub use scheduler::{
    ListScheduler, PartitionScheduler, RandomScheduler, RecordingScheduler, RoundRobinScheduler,
    Scheduler, SequentialScheduler,
};
pub use sweep::{Sweep, Trial, TrialFailure};
pub use value::Value;
