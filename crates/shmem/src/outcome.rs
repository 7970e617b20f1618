//! Structured run termination: [`RunError`] and [`RunOutcome`].
//!
//! The paper's runs can be infinite, and its adversary may delay a process
//! forever — a crash-stop fault is exactly the limit case of that
//! adversary. Instead of panicking when an [`ExecutorConfig`] limit fires
//! (which used to abort whole multi-thread sweeps), the executor reports
//! these conditions as values:
//!
//! * [`RunError`] is the *fault* a driver call returns in its `Err` arm —
//!   the run cannot make further progress for a structural reason;
//! * [`RunOutcome`] is the *classification* of a finished drive, adding
//!   the successful [`RunOutcome::Completed`] arm (see
//!   [`Executor::run_outcome`](crate::Executor::run_outcome)).
//!
//! [`ExecutorConfig`]: crate::ExecutorConfig

use crate::ProcessId;
use std::fmt;

/// A structural fault that stops a run from making progress.
///
/// Returned by the fallible executor entry points
/// ([`Executor::step`](crate::Executor::step),
/// [`Executor::advance_local`](crate::Executor::advance_local),
/// [`Executor::drive`](crate::Executor::drive), …) and propagated as
/// `Result` by every driver in `llsc-core`. Faults are *sticky*: once an
/// executor reports one, every subsequent stepping call returns the same
/// error.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RunError {
    /// The executor recorded [`ExecutorConfig::max_events`] events — the
    /// simulation ran away (or the caller starved it deliberately; the
    /// bench harness does, to test this path).
    ///
    /// [`ExecutorConfig::max_events`]: crate::ExecutorConfig::max_events
    BudgetExhausted {
        /// Events recorded when the budget fired.
        events: u64,
    },
    /// A single process tossed coins
    /// [`ExecutorConfig::max_local_burst`] times in one
    /// [`advance_local`](crate::Executor::advance_local) burst without
    /// reaching a shared-memory step or termination — its program's local
    /// section diverges, so Phase 1 of an adversary round can never end.
    ///
    /// [`ExecutorConfig::max_local_burst`]: crate::ExecutorConfig::max_local_burst
    DivergedLocalBurst {
        /// The diverging process.
        pid: ProcessId,
    },
    /// The process was crashed by a fault injector (see
    /// [`CrashDriver`](crate::CrashDriver)) and was then explicitly
    /// stepped, or a drive ended with this process crashed before
    /// termination.
    Crashed {
        /// The crashed process.
        pid: ProcessId,
    },
    /// An exhaustive subset sweep was requested outside its supported
    /// domain: more processes than the `2^n` mask space handles, or a
    /// trial range extending past `2^n`. Reported by the `llsc-core`
    /// subset sweeps as a pre-flight validation error (no run is ever
    /// started), so chunked jobs surface a structured failure instead of
    /// a panic.
    UnsupportedSweep {
        /// The requested process count.
        n: usize,
        /// The end of the requested trial range.
        end: usize,
    },
    /// An exhaustive subset sweep was requested with a configuration that
    /// does not record what its checkers compare, so every check would
    /// pass without comparing anything. Like
    /// [`RunError::UnsupportedSweep`], a pre-flight validation error: no
    /// run is ever started.
    UnrecordedSweep {
        /// The configuration switch that must be on.
        missing: &'static str,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::BudgetExhausted { events } => {
                write!(f, "run budget exhausted after {events} recorded events")
            }
            RunError::DivergedLocalBurst { pid } => {
                write!(f, "{pid} diverged: local coin-toss burst limit reached")
            }
            RunError::Crashed { pid } => write!(f, "{pid} crashed before terminating"),
            RunError::UnsupportedSweep { n, end } => write!(
                f,
                "subset sweep outside the supported domain: n = {n}, trial range end = {end} \
                 (need n <= 16 and end <= 2^n)"
            ),
            RunError::UnrecordedSweep { missing } => write!(
                f,
                "subset sweep configuration does not record what the checkers compare \
                 (need {missing} = true)"
            ),
        }
    }
}

impl std::error::Error for RunError {}

/// The classification of a finished drive: [`RunError`] plus the
/// successful arm.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RunOutcome {
    /// Every process terminated.
    Completed,
    /// Every process terminated, but the memory-fault adversary delivered
    /// faults along the way (see [`FaultPlan`](crate::FaultPlan)): the
    /// run *completed under fire*, and whether the algorithm's answers
    /// survived is for the experiment's checker to decide.
    FaultInjected {
        /// Spurious SC failures delivered.
        spurious_sc: u64,
        /// Register corruptions delivered.
        corruptions: u64,
    },
    /// The event budget fired, or the drive stopped (step limit, scheduler
    /// declined) with live processes remaining.
    BudgetExhausted {
        /// Events recorded when the run stopped.
        events: u64,
    },
    /// A process's local section diverged (see
    /// [`RunError::DivergedLocalBurst`]).
    DivergedLocalBurst {
        /// The diverging process.
        pid: ProcessId,
    },
    /// All surviving processes terminated but this one was crashed — the
    /// run ended in a (correctly reported) partial execution.
    Crashed {
        /// The first crashed, non-terminated process (in id order).
        pid: ProcessId,
    },
}

impl RunOutcome {
    /// The outcome as a `Result`: `Ok(())` for the completing arms
    /// ([`RunOutcome::Completed`] and [`RunOutcome::FaultInjected`] —
    /// every process terminated), otherwise the corresponding
    /// [`RunError`].
    pub fn into_result(self) -> Result<(), RunError> {
        match self {
            RunOutcome::Completed | RunOutcome::FaultInjected { .. } => Ok(()),
            RunOutcome::BudgetExhausted { events } => Err(RunError::BudgetExhausted { events }),
            RunOutcome::DivergedLocalBurst { pid } => Err(RunError::DivergedLocalBurst { pid }),
            RunOutcome::Crashed { pid } => Err(RunError::Crashed { pid }),
        }
    }

    /// A short stable label, used by the experiment tables.
    pub fn label(&self) -> &'static str {
        match self {
            RunOutcome::Completed => "completed",
            RunOutcome::FaultInjected { .. } => "fault-injected",
            RunOutcome::BudgetExhausted { .. } => "budget-exhausted",
            RunOutcome::DivergedLocalBurst { .. } => "diverged",
            RunOutcome::Crashed { .. } => "crashed",
        }
    }
}

impl From<RunError> for RunOutcome {
    fn from(e: RunError) -> Self {
        match e {
            RunError::BudgetExhausted { events } => RunOutcome::BudgetExhausted { events },
            RunError::DivergedLocalBurst { pid } => RunOutcome::DivergedLocalBurst { pid },
            RunError::Crashed { pid } => RunOutcome::Crashed { pid },
            // Pre-flight validation: no run was started, so there is no
            // more specific classification than "stopped with 0 events".
            RunError::UnsupportedSweep { .. } | RunError::UnrecordedSweep { .. } => {
                RunOutcome::BudgetExhausted { events: 0 }
            }
        }
    }
}

impl fmt::Display for RunOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunOutcome::Completed => f.write_str("completed"),
            RunOutcome::FaultInjected {
                spurious_sc,
                corruptions,
            } => write!(
                f,
                "completed under {spurious_sc} spurious SC failure(s) and \
                 {corruptions} corruption(s)"
            ),
            other => match other.into_result() {
                Err(e) => e.fmt(f),
                Ok(()) => unreachable!("the completing arms are handled above"),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_round_trips_through_outcome() {
        for e in [
            RunError::BudgetExhausted { events: 7 },
            RunError::DivergedLocalBurst { pid: ProcessId(3) },
            RunError::Crashed { pid: ProcessId(0) },
        ] {
            let o = RunOutcome::from(e);
            assert_eq!(o.into_result(), Err(e));
        }
        assert_eq!(RunOutcome::Completed.into_result(), Ok(()));
    }

    #[test]
    fn fault_injected_counts_as_completed() {
        let o = RunOutcome::FaultInjected {
            spurious_sc: 2,
            corruptions: 1,
        };
        assert_eq!(o.into_result(), Ok(()), "every process terminated");
        assert_eq!(o.label(), "fault-injected");
        let s = o.to_string();
        assert!(s.contains("2 spurious"), "{s}");
        assert!(s.contains("1 corruption"), "{s}");
    }

    #[test]
    fn displays_are_descriptive() {
        assert!(RunError::BudgetExhausted { events: 9 }
            .to_string()
            .contains("9 recorded events"));
        assert!(RunError::DivergedLocalBurst { pid: ProcessId(2) }
            .to_string()
            .contains("p2"));
        assert_eq!(RunOutcome::Completed.to_string(), "completed");
        assert_eq!(
            RunOutcome::Crashed { pid: ProcessId(1) }.to_string(),
            RunError::Crashed { pid: ProcessId(1) }.to_string()
        );
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(RunOutcome::Completed.label(), "completed");
        assert_eq!(
            RunOutcome::BudgetExhausted { events: 1 }.label(),
            "budget-exhausted"
        );
        assert_eq!(
            RunOutcome::DivergedLocalBurst { pid: ProcessId(0) }.label(),
            "diverged"
        );
        assert_eq!(RunOutcome::Crashed { pid: ProcessId(0) }.label(), "crashed");
    }
}
