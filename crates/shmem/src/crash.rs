//! The crash-fault adversary: deterministic crash-stop and crash-recovery
//! injection, driven by one event clock.
//!
//! Jayanti's adversary gets its power from delaying processes; a
//! crash-stop fault is the limit case where a process is delayed
//! *forever*. The crash-recovery model adds a respawn: the victim loses
//! its local state and re-enters through the algorithm's recovery section.
//! Crash-stop is the crash-recovery model with no respawn budget, so one
//! driver delivers both. [`CrashPlan`] decides *who* crashes and *when*
//! (an event count in the global run — the adversary watches the run,
//! exactly like a [`Scheduler`]), an optional [`RecoverySpec`] decides
//! whether and when victims come back, and [`CrashDriver`] wraps an inner
//! scheduler and delivers both while driving. The same plan replayed
//! against the same algorithm and seed produces the identical run.
//!
//! Everything here is seeded and deterministic: [`CrashPlan::seeded`]
//! derives victims and crash points purely from `(seed, n, k, window)`,
//! which is how the fault experiments stay `--threads`-invariant.
//!
//! # Examples
//!
//! ```
//! use llsc_shmem::dsl::{done, ll, sc};
//! use llsc_shmem::{
//!     CrashDriver, CrashPlan, Executor, ExecutorConfig, FnAlgorithm, ProcessId, RegisterId,
//!     RoundRobinScheduler, RunOutcome, Value, ZeroTosses,
//! };
//! use std::sync::Arc;
//!
//! // A no-op algorithm with one process crashed at the very first event:
//! // the run ends as a (correctly reported) partial execution.
//! let alg = FnAlgorithm::new("noop", |_pid, _n| {
//!     ll(RegisterId(0), |_| done(Value::Unit)).into_program()
//! });
//! let mut exec = Executor::new(&alg, 2, Arc::new(ZeroTosses), ExecutorConfig::default());
//! let plan = CrashPlan::at([(ProcessId(1), 0)]);
//! let mut sched = CrashDriver::new(RoundRobinScheduler::new(), &plan, None);
//! sched.drive(&mut exec, &alg, 1_000).unwrap();
//! assert_eq!(exec.run_outcome(), RunOutcome::Crashed { pid: ProcessId(1) });
//! ```

use crate::rng::XorShift64;
use crate::{Algorithm, Executor, ProcessId, RunError, Scheduler};

/// A deterministic crash schedule: which processes crash, and at which
/// global event count each crash fires.
///
/// A crash with threshold `t` fires as soon as the executor has recorded
/// at least `t` events (threshold 0 crashes the process before it takes
/// any step). Crashes against already-terminated processes are no-ops — a
/// process that finished before its crash point simply survived.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CrashPlan {
    /// `(victim, event-count threshold)` pairs, in victim id order.
    crashes: Vec<(ProcessId, u64)>,
}

impl CrashPlan {
    /// The empty plan: no process ever crashes.
    pub fn none() -> Self {
        CrashPlan::default()
    }

    /// A plan from explicit `(victim, event threshold)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if the same victim appears twice.
    pub fn at<I: IntoIterator<Item = (ProcessId, u64)>>(crashes: I) -> Self {
        let mut crashes: Vec<(ProcessId, u64)> = crashes.into_iter().collect();
        crashes.sort_by_key(|(p, _)| p.0);
        assert!(
            crashes.windows(2).all(|w| w[0].0 != w[1].0),
            "duplicate victim in crash plan"
        );
        CrashPlan { crashes }
    }

    /// A deterministic plan derived purely from `(seed, n, k, window)`:
    /// `k` distinct victims out of `n` processes (chosen by a seeded
    /// Fisher–Yates shuffle), each with an independent crash threshold in
    /// `0..window` events.
    ///
    /// # Panics
    ///
    /// Panics if `k > n`.
    pub fn seeded(seed: u64, n: usize, k: usize, window: u64) -> Self {
        assert!(k <= n, "cannot crash {k} of {n} processes");
        let mut rng = XorShift64::new(seed ^ 0xC4A5_11FA_057B_ED5E);
        let mut pool: Vec<usize> = (0..n).collect();
        // Partial Fisher–Yates: the first k slots become the victim set.
        for i in 0..k {
            let j = i + rng.index(n - i);
            pool.swap(i, j);
        }
        let crashes: Vec<(ProcessId, u64)> = pool[..k]
            .iter()
            .map(|&p| (ProcessId(p), rng.below(window.max(1))))
            .collect();
        CrashPlan::at(crashes)
    }

    /// The planned crashes, in victim id order.
    pub fn crashes(&self) -> &[(ProcessId, u64)] {
        &self.crashes
    }

    /// The number of planned crashes.
    pub fn len(&self) -> usize {
        self.crashes.len()
    }

    /// `true` iff the plan crashes nobody.
    pub fn is_empty(&self) -> bool {
        self.crashes.is_empty()
    }
}

/// The crash-*recovery* regime of a run: each crash victim is revived
/// `delay` events after crashing, and may be re-crashed up to `budget`
/// times in total (budget 0: the plan's crash is final). A run without
/// one (`Option<RecoverySpec>::None`) is crash-stop, which
/// [`CrashDriver`] delivers exactly as budget 0.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecoverySpec {
    /// Events between a crash and the victim's recovery.
    pub delay: u64,
    /// Maximum crashes per victim, each one recovered; 0 grants no
    /// recovery, so the plan's crash is final.
    pub budget: u64,
}

/// One victim's crash/recovery state inside a [`CrashDriver`].
#[derive(Clone, Debug)]
struct Victim {
    pid: ProcessId,
    /// Event threshold of the next crash.
    next_at: u64,
    /// Crashes still allowed for this victim (the bounded crash budget).
    crashes_left: u64,
    /// Event threshold of the pending recovery, while crashed.
    recover_at: Option<u64>,
    /// Re-arm distance between a recovery and the victim's next crash
    /// (the plan's original threshold, clamped to at least 1 so a re-crash
    /// never fires at the same event count as the recovery).
    period: u64,
}

/// Drives an executor under an inner [`Scheduler`] while delivering a
/// [`CrashPlan`]'s crashes and, under a [`RecoverySpec`], their
/// recoveries.
///
/// Each planned crash fires as soon as the executor has recorded at least
/// its threshold of events. Without a recovery regime, or with budget 0,
/// that crash is final: the crash-stop model. With a positive budget each
/// victim is *recovered* ([`Executor::recover`]) a fixed number of events
/// later — it loses its local state and re-enters through the algorithm's
/// recovery section (its respawned program) against the surviving shared
/// memory — and may be re-crashed after recovering, up to its crash
/// budget, re-armed at the plan's original threshold distance; this is the
/// "repeated crashes of the same process" adversary the recoverable
/// algorithms are measured against.
///
/// Crashes and recoveries follow the same deterministic global event
/// clock, checked before every scheduling decision, so a crash point is
/// honoured at exactly the same event count regardless of the inner
/// schedule. One asymmetry: when every process has settled (so no event
/// will ever advance the clock again), pending recoveries fire
/// immediately instead of deadlocking the run — a crashed-but-recoverable
/// process is *not* gone forever, which is the whole point of the model.
///
/// This is a *driver*, not a [`Scheduler`]: crashing and recovering
/// mutate the executor, which `Scheduler::next`'s shared borrow cannot
/// do.
#[derive(Clone, Debug)]
pub struct CrashDriver<S> {
    inner: S,
    victims: Vec<Victim>,
    /// Events between a crash and its recovery; `None` when no crash is
    /// ever recovered (crash-stop, or a budget of 0).
    delay: Option<u64>,
}

impl<S: Scheduler> CrashDriver<S> {
    /// Wraps `inner` with `plan`'s crashes. Under `recovery` each victim
    /// is recovered `delay` events after its crash (a delay of at least
    /// one event) and crashed at most `budget` times in total, each crash
    /// recovered (the plan's own crash is the first). `None`, like a
    /// `budget` of 0, grants no recovery at all: the plan's crash still
    /// fires and is final, as when the hardware supervisor's respawn
    /// budget is spent.
    pub fn new(inner: S, plan: &CrashPlan, recovery: Option<RecoverySpec>) -> Self {
        let budget = recovery.map_or(0, |r| r.budget);
        let victims = plan
            .crashes()
            .iter()
            .map(|&(pid, at)| Victim {
                pid,
                next_at: at,
                crashes_left: budget.max(1),
                recover_at: None,
                period: at.max(1),
            })
            .collect();
        CrashDriver {
            inner,
            victims,
            delay: recovery.filter(|r| r.budget > 0).map(|r| r.delay.max(1)),
        }
    }

    /// Fires every due recovery and due crash at the current event count.
    /// Recoveries are checked first so a victim whose recovery and
    /// re-crash are both due gets to recover (and take its re-armed crash
    /// at a strictly later event). Terminated processes survive their
    /// crash point (see [`CrashPlan`]).
    fn apply_due(&mut self, exec: &mut Executor, alg: &dyn Algorithm) {
        let now = exec.recorded_events();
        for v in &mut self.victims {
            if let Some(at) = v.recover_at {
                if now >= at {
                    exec.recover(v.pid, alg);
                    v.recover_at = None;
                    if v.crashes_left > 0 {
                        v.next_at = now + v.period;
                    }
                }
            }
            if v.crashes_left > 0 && v.recover_at.is_none() && now >= v.next_at && exec.crash(v.pid)
            {
                v.crashes_left -= 1;
                v.recover_at = self.delay.map(|d| now + d);
            }
        }
    }

    /// Fires every pending recovery regardless of its threshold — called
    /// when the run has settled, so the event clock will never reach the
    /// thresholds. Returns `true` iff at least one process was revived.
    fn force_pending_recoveries(&mut self, exec: &mut Executor, alg: &dyn Algorithm) -> bool {
        let now = exec.recorded_events();
        let mut revived = false;
        for v in &mut self.victims {
            if v.recover_at.take().is_some() {
                revived |= exec.recover(v.pid, alg);
                if v.crashes_left > 0 {
                    v.next_at = now + v.period;
                }
            }
        }
        revived
    }

    /// Runs the executor under the inner scheduler until every process
    /// settles (terminates or crashes) with no recovery pending, the inner
    /// scheduler declines, or `max_steps` steps have been taken. Returns
    /// the steps taken; classify the result with
    /// [`Executor::run_outcome`]. `alg` must be the algorithm the executor
    /// is running (recovery respawns its programs).
    ///
    /// # Errors
    ///
    /// Propagates the first [`RunError`] the executor reports
    /// (budget/burst faults — a crash injected by this driver is a
    /// recorded fact about the run, not an `Err`).
    pub fn drive(
        &mut self,
        exec: &mut Executor,
        alg: &dyn Algorithm,
        max_steps: u64,
    ) -> Result<u64, RunError> {
        let mut steps = 0;
        loop {
            self.apply_due(exec, alg);
            if steps >= max_steps {
                return Ok(steps);
            }
            if exec.all_settled() {
                if self.force_pending_recoveries(exec, alg) {
                    continue;
                }
                return Ok(steps);
            }
            let took = exec.drive(&mut self.inner, 1)?;
            if took == 0 {
                // The inner scheduler declined.
                return Ok(steps);
            }
            steps += took;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::{done, ll, sc};
    use crate::{
        Algorithm, ExecutorConfig, FnAlgorithm, RegisterId, RoundRobinScheduler, RunOutcome, Value,
        ZeroTosses,
    };
    use std::sync::Arc;

    /// The counter-increment algorithm: each process LL/SC-increments R0
    /// once and returns the value it installed.
    fn counter_like() -> impl Algorithm {
        FnAlgorithm::new("inc", |_pid, _n| {
            fn attempt() -> crate::dsl::Step {
                let r = RegisterId(0);
                ll(r, move |prev| {
                    let old = prev.as_int().unwrap_or(0);
                    sc(r, Value::from(old + 1), move |ok, _| {
                        if ok {
                            done(Value::from(old + 1))
                        } else {
                            attempt()
                        }
                    })
                })
            }
            attempt().into_program()
        })
        .with_initial_memory(vec![(RegisterId(0), Value::from(0i64))])
    }

    fn recovery(delay: u64, budget: u64) -> Option<RecoverySpec> {
        Some(RecoverySpec { delay, budget })
    }

    fn exec(n: usize) -> Executor {
        Executor::new(
            &counter_like(),
            n,
            Arc::new(ZeroTosses),
            ExecutorConfig::default(),
        )
    }

    #[test]
    fn empty_plan_is_transparent() {
        let mut a = exec(3);
        CrashDriver::new(RoundRobinScheduler::new(), &CrashPlan::none(), None)
            .drive(&mut a, &counter_like(), 1_000)
            .unwrap();
        let mut b = exec(3);
        b.drive(&mut RoundRobinScheduler::new(), 1_000).unwrap();
        assert_eq!(a.run().events(), b.run().events());
        assert_eq!(a.run_outcome(), RunOutcome::Completed);
    }

    #[test]
    fn crash_at_zero_keeps_victim_stepless() {
        let mut e = exec(3);
        let plan = CrashPlan::at([(ProcessId(1), 0)]);
        CrashDriver::new(RoundRobinScheduler::new(), &plan, None)
            .drive(&mut e, &counter_like(), 1_000)
            .unwrap();
        assert_eq!(e.run().shared_steps(ProcessId(1)), 0);
        assert!(e.is_terminated(ProcessId(0)) && e.is_terminated(ProcessId(2)));
        assert_eq!(e.run_outcome(), RunOutcome::Crashed { pid: ProcessId(1) });
        // Survivors observed a 2-process world: the counter reads 2.
        assert_eq!(e.memory().peek(RegisterId(0)), Value::from(2i64));
    }

    #[test]
    fn terminated_process_survives_its_crash_point() {
        // p0 finishes long before event 1000; the crash is a no-op.
        let mut e = exec(2);
        let plan = CrashPlan::at([(ProcessId(0), 1_000)]);
        CrashDriver::new(RoundRobinScheduler::new(), &plan, None)
            .drive(&mut e, &counter_like(), 10_000)
            .unwrap();
        assert_eq!(e.run_outcome(), RunOutcome::Completed);
    }

    #[test]
    fn seeded_plans_are_deterministic_and_well_formed() {
        for k in 0..=5 {
            let a = CrashPlan::seeded(42, 5, k, 100);
            let b = CrashPlan::seeded(42, 5, k, 100);
            assert_eq!(a, b);
            assert_eq!(a.len(), k);
            assert_eq!(a.is_empty(), k == 0);
            // Victims are distinct and in range (CrashPlan::at checks
            // duplicates; thresholds are within the window).
            assert!(a.crashes().iter().all(|(p, at)| p.0 < 5 && *at < 100));
        }
        // Different seeds give different plans (for a window this large a
        // collision across all k would be astonishing).
        let plans: Vec<_> = (0..8)
            .map(|s| CrashPlan::seeded(s, 16, 8, 1_000_000))
            .collect();
        assert!(plans.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn seeded_drive_is_reproducible() {
        let run_once = || {
            let mut e = exec(6);
            let plan = CrashPlan::seeded(7, 6, 2, 10);
            CrashDriver::new(RoundRobinScheduler::new(), &plan, None)
                .drive(&mut e, &counter_like(), 10_000)
                .unwrap();
            (e.run().events().to_vec(), e.run_outcome())
        };
        assert_eq!(run_once(), run_once());
    }

    #[test]
    #[should_panic(expected = "duplicate victim")]
    fn duplicate_victims_are_rejected() {
        CrashPlan::at([(ProcessId(0), 1), (ProcessId(0), 2)]);
    }

    #[test]
    #[should_panic(expected = "cannot crash")]
    fn seeded_rejects_k_above_n() {
        CrashPlan::seeded(0, 3, 4, 10);
    }

    #[test]
    fn crashing_everyone_at_event_zero_settles_with_no_events() {
        let mut e = exec(3);
        let plan = CrashPlan::at((0..3).map(|p| (ProcessId(p), 0)));
        let steps = CrashDriver::new(RoundRobinScheduler::new(), &plan, None)
            .drive(&mut e, &counter_like(), 1_000)
            .unwrap();
        assert_eq!(steps, 0, "nobody was left to step");
        assert_eq!(e.recorded_events(), 0);
        assert!(e.all_settled() && !e.all_terminated());
        assert_eq!(e.run_outcome(), RunOutcome::Crashed { pid: ProcessId(0) });
    }

    #[test]
    fn threshold_beyond_the_runs_end_never_fires() {
        // The whole run finishes in well under 1000 events; a crash point
        // scheduled out there is dead code in the plan.
        let mut e = exec(4);
        let plan = CrashPlan::at([(ProcessId(2), 1_000), (ProcessId(3), u64::MAX)]);
        CrashDriver::new(RoundRobinScheduler::new(), &plan, None)
            .drive(&mut e, &counter_like(), 100_000)
            .unwrap();
        assert_eq!(e.run_outcome(), RunOutcome::Completed);
        assert!(!e.is_crashed(ProcessId(2)) && !e.is_crashed(ProcessId(3)));
    }

    #[test]
    fn repeated_crashes_of_one_process_are_noops() {
        // CrashPlan::at rejects duplicate victims; at the executor level a
        // second crash of the same process (or of a settled one) reports
        // `false` and changes nothing.
        let mut e = exec(2);
        assert!(e.crash(ProcessId(1)));
        assert!(!e.crash(ProcessId(1)), "double crash is a no-op");
        e.drive(&mut RoundRobinScheduler::new(), 1_000).unwrap();
        assert!(!e.crash(ProcessId(0)), "terminated processes cannot crash");
        assert_eq!(e.run_outcome(), RunOutcome::Crashed { pid: ProcessId(1) });
    }

    #[test]
    fn seeded_with_k_equal_to_n_crashes_everyone() {
        let plan = CrashPlan::seeded(3, 4, 4, 10);
        assert_eq!(plan.len(), 4);
        let victims: Vec<usize> = plan.crashes().iter().map(|(p, _)| p.0).collect();
        assert_eq!(victims, vec![0, 1, 2, 3], "all of them, in id order");
        let mut e = exec(4);
        CrashDriver::new(RoundRobinScheduler::new(), &plan, None)
            .drive(&mut e, &counter_like(), 10_000)
            .unwrap();
        assert!(!e.all_terminated(), "k = n leaves no survivor group");
        assert!(matches!(e.run_outcome(), RunOutcome::Crashed { .. }));
    }

    #[test]
    fn seeded_with_zero_window_crashes_at_event_zero() {
        // window = 0 clamps to 1, so every threshold is exactly 0.
        let plan = CrashPlan::seeded(5, 3, 2, 0);
        assert!(plan.crashes().iter().all(|&(_, at)| at == 0));
    }

    #[test]
    fn recovery_revives_a_victim_crashed_at_event_zero() {
        // Crash before the victim's first step: the recovery section is
        // its very first code to run.
        let alg = counter_like();
        let mut e = exec(3);
        let plan = CrashPlan::at([(ProcessId(1), 0)]);
        let mut sched = CrashDriver::new(RoundRobinScheduler::new(), &plan, recovery(3, 1));
        sched.drive(&mut e, &alg, 10_000).unwrap();
        assert_eq!(e.run_outcome(), RunOutcome::Completed);
        let c = e.run().counters();
        assert_eq!((c.total_crashes(), c.total_recoveries()), (1, 1));
        assert_eq!((c.crashes[1], c.recoveries[1]), (1, 1));
        assert!(e.run().shared_steps(ProcessId(1)) > 0, "it ran after all");
    }

    #[test]
    fn second_crash_lands_inside_the_recovery_section() {
        // Budget 2 with a threshold of 1: the victim crashes at event 1,
        // recovers 2 events later, is re-crashed 1 event after that
        // (mid-recovery-section), and recovers again. The run still
        // completes and both crash/recovery pairs are accounted.
        let alg = counter_like();
        let mut e = exec(2);
        let plan = CrashPlan::at([(ProcessId(0), 1)]);
        let mut sched = CrashDriver::new(RoundRobinScheduler::new(), &plan, recovery(2, 2));
        sched.drive(&mut e, &alg, 10_000).unwrap();
        assert_eq!(e.run_outcome(), RunOutcome::Completed);
        let c = e.run().counters();
        assert_eq!((c.total_crashes(), c.total_recoveries()), (2, 2));
        assert_eq!((c.crashes[0], c.recoveries[0]), (2, 2));
    }

    #[test]
    fn bounded_budget_limits_repeated_crashes_of_one_process() {
        let alg = counter_like();
        for budget in [1u64, 2, 3] {
            let mut e = exec(2);
            let plan = CrashPlan::at([(ProcessId(1), 1)]);
            let mut sched =
                CrashDriver::new(RoundRobinScheduler::new(), &plan, recovery(1, budget));
            sched.drive(&mut e, &alg, 100_000).unwrap();
            assert_eq!(e.run_outcome(), RunOutcome::Completed);
            let c = e.run().counters();
            assert_eq!(c.total_crashes(), budget, "budget is spent");
            assert_eq!(c.total_recoveries(), budget, "every crash is recovered");
            assert_eq!(c.crashes[1], budget);
        }
    }

    #[test]
    fn zero_budget_makes_the_plans_crash_final() {
        // Budget 0 covers no recovery: the plan's crash fires and the
        // victim stays down, as on hardware when the respawn is denied.
        let alg = counter_like();
        let mut e = exec(2);
        let plan = CrashPlan::at([(ProcessId(1), 1)]);
        let mut sched = CrashDriver::new(RoundRobinScheduler::new(), &plan, recovery(1, 0));
        sched.drive(&mut e, &alg, 100_000).unwrap();
        assert_eq!(e.run_outcome(), RunOutcome::Crashed { pid: ProcessId(1) });
        let c = e.run().counters();
        assert_eq!((c.total_crashes(), c.total_recoveries()), (1, 0));
    }

    #[test]
    fn pending_recovery_fires_when_the_run_settles_early() {
        // The victim's recovery threshold is far beyond the survivors'
        // total events; once they finish, the event clock stops, and the
        // pending recovery must fire anyway instead of stranding the run
        // as Crashed.
        let alg = counter_like();
        let mut e = exec(2);
        let plan = CrashPlan::at([(ProcessId(0), 0)]);
        let mut sched = CrashDriver::new(RoundRobinScheduler::new(), &plan, recovery(1_000_000, 1));
        sched.drive(&mut e, &alg, 10_000).unwrap();
        assert_eq!(e.run_outcome(), RunOutcome::Completed);
        assert_eq!(e.run().counters().total_recoveries(), 1);
    }

    #[test]
    fn recovering_drive_is_deterministic() {
        let alg = counter_like();
        let run_once = || {
            let mut e = exec(5);
            let plan = CrashPlan::seeded(11, 5, 3, 12);
            let mut sched = CrashDriver::new(RoundRobinScheduler::new(), &plan, recovery(4, 2));
            sched.drive(&mut e, &alg, 100_000).unwrap();
            let c = e.run().counters();
            (
                e.run().events().to_vec(),
                e.run_outcome(),
                c.total_crashes(),
                c.total_recoveries(),
            )
        };
        assert_eq!(run_once(), run_once());
    }

    #[test]
    fn budget_faults_propagate_through_the_wrapper() {
        let alg = FnAlgorithm::new("ll-forever", |_pid, _n| {
            fn attempt() -> crate::dsl::Step {
                ll(RegisterId(0), move |_| attempt())
            }
            attempt().into_program()
        });
        let mut e = Executor::new(
            &alg,
            2,
            Arc::new(ZeroTosses),
            ExecutorConfig {
                max_events: 20,
                max_local_burst: 10,
                record_details: true,
            },
        );
        let err = CrashDriver::new(RoundRobinScheduler::new(), &CrashPlan::none(), None)
            .drive(&mut e, &alg, 1_000_000)
            .unwrap_err();
        assert_eq!(err, RunError::BudgetExhausted { events: 20 });
    }
}
