//! The wakeup problem (Fischer–Moran–Rudich–Taubenfeld), as specified in
//! Section 1.1, and its run checker.
//!
//! The `n`-process wakeup problem:
//!
//! 1. every process terminates in a finite number of its steps, returning
//!    either 0 or 1;
//! 2. in every run in which all processes terminate, at least one process
//!    returns 1;
//! 3. in every run in which one or more processes return 1, every process
//!    takes at least one step before any process returns 1.
//!
//! "Intuitively, the problem requires the process that wakes up last to
//! detect that every other process is up."
//!
//! [`check_wakeup`] validates a recorded [`Run`] against this
//! specification. A *step* here is a coin toss or a shared-memory
//! operation, matching the paper's step notion; entering a termination
//! state by itself does not count. The check reads only `O(n)` state the
//! run keeps in both recording modes — verdicts and the event numbers of
//! each process's first step and termination — never the event log.

use llsc_shmem::{ProcessId, Run, Value};
use std::fmt;

/// A way a run can violate the wakeup specification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WakeupViolation {
    /// A terminated process returned something other than 0 or 1.
    NonBinaryReturn {
        /// The offending process.
        p: ProcessId,
        /// Its return value.
        value: Value,
    },
    /// The run is terminating but nobody returned 1 (condition 2).
    NoWinner,
    /// Someone returned 1 before every process had taken a step
    /// (condition 3).
    PrematureWinner {
        /// The process that returned 1 too early.
        winner: ProcessId,
        /// Processes that had not yet taken any step at that point.
        missing: Vec<ProcessId>,
    },
}

impl fmt::Display for WakeupViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WakeupViolation::NonBinaryReturn { p, value } => {
                write!(f, "{p} returned non-binary value {value}")
            }
            WakeupViolation::NoWinner => write!(f, "terminating run with no process returning 1"),
            WakeupViolation::PrematureWinner { winner, missing } => {
                write!(f, "{winner} returned 1 before ")?;
                for (i, p) in missing.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, " took any step")
            }
        }
    }
}

/// The verdict of checking a run against the wakeup specification.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WakeupCheck {
    /// Whether every process terminated (conditions 2 and 3 are only
    /// evaluated on the available prefix otherwise).
    pub terminating: bool,
    /// Processes that returned 1, in the order they did.
    pub winners: Vec<ProcessId>,
    /// All violations found.
    pub violations: Vec<WakeupViolation>,
}

impl WakeupCheck {
    /// `true` iff no violation was found.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// The first process to return 1, if any.
    pub fn first_winner(&self) -> Option<ProcessId> {
        self.winners.first().copied()
    }
}

impl fmt::Display for WakeupCheck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.ok() {
            write!(
                f,
                "wakeup OK ({} winner(s), terminating={})",
                self.winners.len(),
                self.terminating
            )
        } else {
            write!(f, "wakeup VIOLATED: ")?;
            for (i, v) in self.violations.iter().enumerate() {
                if i > 0 {
                    write!(f, "; ")?;
                }
                write!(f, "{v}")?;
            }
            Ok(())
        }
    }
}

/// Checks a run against the wakeup specification.
///
/// Condition 1 is checked as "every *terminated* process returned 0 or 1"
/// (finite termination itself is an algorithm property witnessed by the run
/// being terminating). Condition 2 is only applicable to terminating runs.
/// Condition 3 is checked on any run. Runs recorded with or without
/// details get the same verdict.
///
/// # Examples
///
/// ```
/// use llsc_core::check_wakeup;
/// use llsc_shmem::{ProcessId, Run, RunEvent, Value};
///
/// // A 1-process run that returns 1 after one step: valid wakeup.
/// let mut run = Run::new(1);
/// run.record(RunEvent::Toss { pid: ProcessId(0), index: 0, outcome: 0 });
/// run.record(RunEvent::Terminated { pid: ProcessId(0), value: Value::from(1i64) });
/// assert!(check_wakeup(&run).ok());
/// ```
pub fn check_wakeup(run: &Run) -> WakeupCheck {
    let n = run.n();
    let mut check = WakeupCheck {
        terminating: run.is_terminating(),
        ..WakeupCheck::default()
    };

    // Condition 1: binary returns.
    for p in ProcessId::all(n) {
        if let Some(v) = run.verdict(p) {
            match v.as_int() {
                Some(0) | Some(1) => {}
                _ => check.violations.push(WakeupViolation::NonBinaryReturn {
                    p,
                    value: v.clone(),
                }),
            }
        }
    }

    // Winners, in the order they returned.
    let mut winners: Vec<(u64, ProcessId)> = ProcessId::all(n)
        .filter(|&p| run.verdict(p).and_then(Value::as_int) == Some(1))
        .filter_map(|p| Some((run.termination_event(p)?, p)))
        .collect();
    winners.sort_unstable();
    check.winners = winners.iter().map(|&(_, p)| p).collect();

    // Condition 3. Every later winner returned after the first one, when
    // everyone who had stepped by then had still stepped, so only the
    // first winner can be premature.
    if let Some(&(returned, winner)) = winners.first() {
        let missing: Vec<ProcessId> = ProcessId::all(n)
            .filter(|&q| run.first_step_event(q).is_none_or(|e| e > returned))
            .collect();
        if !missing.is_empty() {
            check
                .violations
                .push(WakeupViolation::PrematureWinner { winner, missing });
        }
    }

    // Condition 2.
    if check.terminating && check.winners.is_empty() {
        check.violations.push(WakeupViolation::NoWinner);
    }

    check
}

#[cfg(test)]
mod tests {
    use super::*;
    use llsc_shmem::{Operation, RegisterId, Response, RunEvent};

    fn step_event(pid: usize) -> RunEvent {
        RunEvent::SharedOp {
            pid: ProcessId(pid),
            op: Operation::Ll(RegisterId(0)),
            resp: Response::Value(Value::Unit),
        }
    }

    fn ret(pid: usize, v: i64) -> RunEvent {
        RunEvent::Terminated {
            pid: ProcessId(pid),
            value: Value::from(v),
        }
    }

    #[test]
    fn valid_wakeup_run_passes() {
        let mut run = Run::new(2);
        run.record(step_event(0));
        run.record(step_event(1));
        run.record(ret(0, 0));
        run.record(ret(1, 1));
        let check = check_wakeup(&run);
        assert!(check.ok(), "{check}");
        assert_eq!(check.winners, vec![ProcessId(1)]);
        assert_eq!(check.first_winner(), Some(ProcessId(1)));
        assert!(check.terminating);
    }

    #[test]
    fn no_winner_is_flagged() {
        let mut run = Run::new(2);
        run.record(step_event(0));
        run.record(step_event(1));
        run.record(ret(0, 0));
        run.record(ret(1, 0));
        let check = check_wakeup(&run);
        assert_eq!(check.violations, vec![WakeupViolation::NoWinner]);
        assert!(check.to_string().contains("VIOLATED"));
    }

    #[test]
    fn premature_winner_is_flagged_with_missing_processes() {
        let mut run = Run::new(3);
        run.record(step_event(0));
        run.record(ret(0, 1)); // p1 and p2 have not stepped
        let check = check_wakeup(&run);
        assert_eq!(
            check.violations,
            vec![WakeupViolation::PrematureWinner {
                winner: ProcessId(0),
                missing: vec![ProcessId(1), ProcessId(2)],
            }]
        );
    }

    #[test]
    fn winner_after_everyone_stepped_is_fine_even_mid_run() {
        // Non-terminating prefix: p1 returned 1 but p0 is still running —
        // condition 3 holds because p0 already stepped.
        let mut run = Run::new(2);
        run.record(step_event(0));
        run.record(step_event(1));
        run.record(ret(1, 1));
        let check = check_wakeup(&run);
        assert!(check.ok());
        assert!(!check.terminating);
    }

    #[test]
    fn non_binary_return_is_flagged() {
        let mut run = Run::new(1);
        run.record(step_event(0));
        run.record(ret(0, 7));
        let check = check_wakeup(&run);
        assert!(matches!(
            check.violations[0],
            WakeupViolation::NonBinaryReturn { .. }
        ));
        // 7 ≠ 1 so it is not a winner, and the run is terminating: also
        // NoWinner.
        assert_eq!(check.violations.len(), 2);
    }

    #[test]
    fn toss_counts_as_a_step() {
        let mut run = Run::new(2);
        run.record(RunEvent::Toss {
            pid: ProcessId(1),
            index: 0,
            outcome: 0,
        });
        run.record(step_event(0));
        run.record(ret(0, 1));
        run.record(ret(1, 0));
        assert!(check_wakeup(&run).ok());
    }

    #[test]
    fn termination_itself_is_not_a_step() {
        // p1 terminates (returning 0) without any toss or shared op; p0
        // then returns 1. Condition 3 is violated: p1 never took a step.
        let mut run = Run::new(2);
        run.record(step_event(0));
        run.record(ret(1, 0));
        run.record(ret(0, 1));
        let check = check_wakeup(&run);
        assert_eq!(
            check.violations,
            vec![WakeupViolation::PrematureWinner {
                winner: ProcessId(0),
                missing: vec![ProcessId(1)],
            }]
        );
    }

    #[test]
    fn multiple_winners_allowed() {
        let mut run = Run::new(2);
        run.record(step_event(0));
        run.record(step_event(1));
        run.record(ret(0, 1));
        run.record(ret(1, 1));
        let check = check_wakeup(&run);
        assert!(check.ok());
        assert_eq!(check.winners.len(), 2);
    }

    #[test]
    fn empty_terminating_run_of_zero_processes_is_vacuously_odd() {
        // n = 0: terminating, no winners — NoWinner fires. This documents
        // the degenerate behaviour rather than leaving it undefined.
        let run = Run::new(0);
        let check = check_wakeup(&run);
        assert_eq!(check.violations, vec![WakeupViolation::NoWinner]);
    }
}
