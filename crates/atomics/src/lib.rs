//! Real-hardware execution backend for the Jayanti PODC'98 reproduction.
//!
//! The simulator in `llsc-shmem` gives the paper's model exactly —
//! deterministic schedules, strong LL/SC, per-access counting — but it
//! never exercises a real memory system. This crate is the other half of
//! the backend-generic story: the same five operations
//! (LL/SC/validate/swap/move), the same [`llsc_shmem::Algorithm`]
//! programs, executed by real OS threads against registers built from
//! pointer-width compare-and-swap in the style of Blelloch–Wei
//! (arXiv:1911.09671).
//!
//! * [`HwMemory`] — the CAS-based memory, implementing
//!   [`llsc_shmem::ExecutionBackend`]; see its module docs for the
//!   version-tag construction and why it is ABA-safe.
//! * [`run_threads_watchdog`] — the thread-per-process driver, stamping
//!   every invocation and response on a global logical clock so runs can
//!   be linearizability-checked after the fact. A panicking program or a
//!   wedged trial comes back as a structured [`HwRunError`], never as a
//!   harness abort; every run has a wall-clock deadline, enforced
//!   through the run's one [`llsc_shmem::CancelToken`].
//! * [`fault`] / [`CrashSupervisor`] — the simulator's fault stack,
//!   ported to real threads: a [`llsc_shmem::FaultPlan`] re-timed onto
//!   each process's private access clock injects spurious SC failures
//!   and register corruption deterministically
//!   ([`HwMemory::with_faults`]), and a
//!   [`llsc_shmem::CrashPlan`]-driven supervisor kills victim threads
//!   at their crash step (panic-based teardown), respawns them after
//!   the recovery delay with a re-crash budget, and reports budget
//!   exhaustion as a structured [`HwRunError::RespawnExhausted`]
//!   ([`run_threads_supervised`]). Every delivery is stamped into the
//!   [`HwEvent`] history.
//!
//! The crate deliberately depends on `llsc-shmem` alone: history
//! checking against sequential specifications lives downstream in
//! `llsc-bench`, which owns the simulator ⇄ hardware cross-validation
//! harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod driver;
pub mod fault;
mod memory;
mod supervisor;

pub use driver::{
    run_threads_supervised, run_threads_watchdog, HwProcessResult, HwRun, HwRunError,
};
pub use fault::HwFaultLayer;
pub use memory::{HwEvent, HwEventKind, HwMemory};
pub use supervisor::CrashSupervisor;
