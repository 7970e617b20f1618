//! The crash adversary on real threads: kill, respawn, escalate.
//!
//! The simulator's [`CrashDriver`] crashes a victim by
//! flipping a bookkeeping bit; here a crash is a real OS-thread death.
//! [`CrashSupervisor`] arms a [`CrashPlan`] for the thread-per-process
//! driver:
//!
//! * each victim's global-event crash threshold is re-timed onto its
//!   private step clock (`at / n`, the same convention as
//!   [`crate::fault::split_plan`]), so *when* a victim dies is
//!   deterministic across interleavings;
//! * the driver polls [`CrashSupervisor::tick`] once per action; a due
//!   crash unwinds the victim's thread via a typed panic
//!   ([`panic_any`] of an internal marker), which the driver catches,
//!   dropping the incarnation's entire local state (program, stack, LL
//!   links via [`HwMemory::clear_local`](crate::HwMemory::clear_local));
//! * after the recovery delay the driver asks
//!   [`CrashSupervisor::grant_respawn`]: within the
//!   [`RecoverySpec::budget`] the victim is re-spawned (and re-armed at
//!   `steps + period`, mirroring the simulator's re-crash cadence — the
//!   budget caps total crashes exactly like the simulator's
//!   `crashes_left`); a budget of 0 means *no respawn is possible*, so
//!   the first kill exhausts the loop and the supervisor escalates: the
//!   trial is aborted through the run's cancel token and reported as the
//!   structured
//!   [`HwRunError::RespawnExhausted`](crate::HwRunError::RespawnExhausted).
//!   The simulator's budget 0 is the same regime (the plan's crash is
//!   final), and both backends class such a run `respawn-exhausted`.
//!
//! Kill and respawn are both stamped into the [`HwEvent`] history
//! ([`HwEventKind::Killed`] / [`HwEventKind::Respawned`]), so a crashed
//! trial's timeline is auditable after the fact.
//!
//! [`CrashDriver`]: llsc_shmem::CrashDriver
//! [`HwEvent`]: crate::HwEvent
//! [`HwEventKind::Killed`]: crate::HwEventKind::Killed
//! [`HwEventKind::Respawned`]: crate::HwEventKind::Respawned

use llsc_shmem::{CrashPlan, ProcessId, RecoverySpec};
use std::panic::panic_any;
use std::sync::{Mutex, Once};

/// The typed panic payload of an injected crash, so the driver can tell
/// a supervisor kill from a genuine algorithm panic at `catch_unwind`.
pub(crate) struct InjectedCrash;

/// Suppresses the default panic hook's backtrace chatter for injected
/// crashes only — a supervised E20 sweep kills threads by the hundreds,
/// and each would otherwise print a spurious "thread panicked" report.
/// Genuine panics still reach the previous hook untouched.
fn silence_injected_crashes() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<InjectedCrash>().is_none() {
                previous(info);
            }
        }));
    });
}

/// Per-victim crash state, touched only by the victim's own thread (the
/// mutex keeps the supervisor `Sync` inside `#![forbid(unsafe_code)]`).
#[derive(Debug)]
struct VictimState {
    /// Actions this victim has taken, across all incarnations.
    steps: u64,
    /// The step count the next crash fires at; `None` while disarmed
    /// (mid-teardown, or the budget's crash allowance is spent).
    next_at: Option<u64>,
    /// Re-arm distance after a respawn (the victim's own rescaled
    /// threshold, clamped to 1 — mirroring the simulator's period).
    period: u64,
    /// Crashes delivered to this victim so far.
    crashes: u64,
}

/// Drives a [`CrashPlan`] + [`RecoverySpec`] against the
/// thread-per-process driver — see the module docs for the lifecycle.
#[derive(Debug)]
pub struct CrashSupervisor {
    /// Indexed by process id; `None` for non-victims.
    victims: Vec<Option<Mutex<VictimState>>>,
    recovery: RecoverySpec,
}

impl CrashSupervisor {
    /// Arms `plan` for `n` processes under `recovery`. Each victim's
    /// global-event threshold `at` becomes the per-process step
    /// threshold `at / n` (its expected share of a fair interleaving).
    pub fn new(plan: &CrashPlan, recovery: RecoverySpec, n: usize) -> CrashSupervisor {
        silence_injected_crashes();
        let mut victims: Vec<Option<Mutex<VictimState>>> = (0..n).map(|_| None).collect();
        for &(pid, at) in plan.crashes() {
            assert!(pid.0 < n, "crash plan names {pid} but the run has n={n}");
            let threshold = at / n as u64;
            victims[pid.0] = Some(Mutex::new(VictimState {
                steps: 0,
                next_at: Some(threshold),
                period: threshold.max(1),
                crashes: 0,
            }));
        }
        CrashSupervisor { victims, recovery }
    }

    /// `true` iff the plan schedules a crash for `p`.
    pub(crate) fn is_victim(&self, p: ProcessId) -> bool {
        self.victims.get(p.0).is_some_and(Option::is_some)
    }

    /// The recovery regime this supervisor enforces.
    pub fn recovery(&self) -> RecoverySpec {
        self.recovery
    }

    /// Called by the drive loop before each of `p`'s actions. Returns
    /// `true` when the victim must crash *now* — the caller unwinds via
    /// [`CrashSupervisor::crash_now`]. Otherwise the action is counted
    /// against the victim's step clock.
    pub(crate) fn tick(&self, p: ProcessId) -> bool {
        let Some(victim) = self.victims.get(p.0).and_then(Option::as_ref) else {
            return false;
        };
        let mut state = victim.lock().unwrap_or_else(|e| e.into_inner());
        if state.next_at.is_some_and(|at| state.steps >= at) {
            state.next_at = None;
            state.crashes += 1;
            return true;
        }
        state.steps += 1;
        false
    }

    /// Unwinds the calling (victim) thread with the typed crash payload.
    pub(crate) fn crash_now() -> ! {
        panic_any(InjectedCrash)
    }

    /// Crashes delivered to `p` so far (0 for non-victims).
    pub(crate) fn crashes_of(&self, p: ProcessId) -> u64 {
        self.victims
            .get(p.0)
            .and_then(Option::as_ref)
            .map(|v| v.lock().unwrap_or_else(|e| e.into_inner()).crashes)
            .unwrap_or(0)
    }

    /// Decides a killed victim's fate: `Some(respawns_left)` grants the
    /// respawn (re-arming the next crash while the budget's crash
    /// allowance lasts), `None` declares the respawn loop exhausted —
    /// the caller escalates.
    pub(crate) fn grant_respawn(&self, p: ProcessId) -> Option<u64> {
        let victim = self.victims.get(p.0).and_then(Option::as_ref)?;
        let mut state = victim.lock().unwrap_or_else(|e| e.into_inner());
        if state.crashes > self.recovery.budget {
            // Budget 0: the first kill already overruns the allowance.
            return None;
        }
        if state.crashes < self.recovery.budget {
            state.next_at = Some(state.steps + state.period);
        }
        Some(self.recovery.budget - state.crashes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(delay: u64, budget: u64) -> RecoverySpec {
        RecoverySpec { delay, budget }
    }

    #[test]
    fn non_victims_never_tick_into_a_crash() {
        let plan = CrashPlan::at([(ProcessId(1), 8)]);
        let sup = CrashSupervisor::new(&plan, spec(2, 1), 4);
        assert!(sup.is_victim(ProcessId(1)));
        assert!(!sup.is_victim(ProcessId(0)));
        for _ in 0..100 {
            assert!(!sup.tick(ProcessId(0)));
        }
        assert_eq!(sup.crashes_of(ProcessId(0)), 0);
        assert_eq!(sup.crashes_of(ProcessId(1)), 0);
    }

    #[test]
    fn victim_crashes_at_its_rescaled_threshold_and_rearms_within_budget() {
        // Global threshold 8 over n=4 → per-process step 2.
        let plan = CrashPlan::at([(ProcessId(0), 8)]);
        let sup = CrashSupervisor::new(&plan, spec(1, 2), 4);
        let p = ProcessId(0);
        assert!(!sup.tick(p), "step 0");
        assert!(!sup.tick(p), "step 1");
        assert!(sup.tick(p), "crash at step 2");
        assert_eq!(sup.crashes_of(p), 1);
        // First respawn: one crash left in the budget, re-armed.
        assert_eq!(sup.grant_respawn(p), Some(1));
        assert!(!sup.tick(p), "step 2 after respawn");
        assert!(!sup.tick(p), "step 3 after respawn");
        assert!(sup.tick(p), "re-armed at steps + period = 2 + 2");
        assert_eq!(sup.crashes_of(p), 2);
        // Budget spent: respawn granted, but no further crash is armed.
        assert_eq!(sup.grant_respawn(p), Some(0));
        for _ in 0..50 {
            assert!(!sup.tick(p), "budget caps total crashes like the sim");
        }
        assert_eq!(sup.crashes_of(p), 2);
    }

    #[test]
    fn zero_budget_exhausts_on_the_first_kill() {
        let plan = CrashPlan::at([(ProcessId(2), 0)]);
        let sup = CrashSupervisor::new(&plan, spec(3, 0), 3);
        let p = ProcessId(2);
        assert!(sup.tick(p), "threshold 0 crashes before the first action");
        assert_eq!(sup.grant_respawn(p), None, "no respawn allowance at all");
        assert_eq!(sup.crashes_of(p), 1);
    }
}
