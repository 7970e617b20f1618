//! Schedulers: functions from the finite run so far to the next process.
//!
//! The paper gives the scheduler the "standard" power: it sees the whole run
//! up to the decision point but cannot influence or predict future coin
//! tosses. Our [`Scheduler`] trait receives the live [`Executor`] (whose
//! [`crate::Run`] *is* the run so far); implementations must only read it.
//!
//! The paper's Figure-2 round adversary is not a `Scheduler` implementation:
//! it drives the executor through the finer-grained phase primitives in
//! `llsc-core`. The schedulers here are the generic ones used by upper-bound
//! measurements and tests.

use crate::{Executor, ProcessId};

/// Chooses which process takes the next step.
pub trait Scheduler {
    /// Returns the process to step next, or `None` to stop the execution.
    ///
    /// Returning a terminated or crashed process is allowed (the executor
    /// skips it), which keeps simple schedulers simple; the built-in
    /// schedulers nevertheless skip non-runnable processes themselves so
    /// that a drive over a partially-crashed system still ends.
    fn next(&mut self, exec: &Executor) -> Option<ProcessId>;
}

/// A mutable reference to a scheduler is itself a scheduler, so drivers
/// that take schedulers by value (e.g. [`crate::CrashDriver`]) can
/// borrow one and hand it back — the replay machinery uses this to
/// recover a [`RecordingScheduler`]'s trace after a drive.
impl<S: Scheduler + ?Sized> Scheduler for &mut S {
    fn next(&mut self, exec: &Executor) -> Option<ProcessId> {
        (**self).next(exec)
    }
}

/// Cycles through processes in id order, skipping terminated and crashed
/// ones.
///
/// Under round-robin, contending LL/SC loops interleave maximally — the
/// classic "synchronous" schedule used by the upper-bound measurements.
#[derive(Clone, Copy, Debug, Default)]
pub struct RoundRobinScheduler {
    cursor: usize,
}

impl RoundRobinScheduler {
    /// Creates a round-robin scheduler starting at `p_0`.
    pub fn new() -> Self {
        RoundRobinScheduler::default()
    }
}

impl Scheduler for RoundRobinScheduler {
    fn next(&mut self, exec: &Executor) -> Option<ProcessId> {
        let n = exec.n();
        if n == 0 {
            return None;
        }
        for _ in 0..n {
            let p = ProcessId(self.cursor);
            self.cursor = (self.cursor + 1) % n;
            if exec.is_runnable(p) {
                return Some(p);
            }
        }
        None
    }
}

/// Runs `p_0` to completion, then `p_1`, and so on — the contention-free
/// (solo) schedule. Under it, optimistic LL/SC implementations complete in
/// their best-case step counts.
#[derive(Clone, Copy, Debug, Default)]
pub struct SequentialScheduler;

impl SequentialScheduler {
    /// Creates a sequential scheduler.
    pub fn new() -> Self {
        SequentialScheduler
    }
}

impl Scheduler for SequentialScheduler {
    fn next(&mut self, exec: &Executor) -> Option<ProcessId> {
        ProcessId::all(exec.n()).find(|p| exec.is_runnable(*p))
    }
}

/// Follows an explicit list of process ids, then stops.
///
/// Used to pin down exact interleavings in tests and counterexamples.
#[derive(Clone, Debug, Default)]
pub struct ListScheduler {
    order: std::collections::VecDeque<ProcessId>,
}

impl ListScheduler {
    /// Creates a scheduler that yields the given processes in order.
    pub fn new<I: IntoIterator<Item = ProcessId>>(order: I) -> Self {
        ListScheduler {
            order: order.into_iter().collect(),
        }
    }
}

impl Scheduler for ListScheduler {
    fn next(&mut self, _exec: &Executor) -> Option<ProcessId> {
        self.order.pop_front()
    }
}

/// Schedules only the processes in a fixed subset, round-robin, leaving
/// everyone else suspended forever.
///
/// This models the crash/suspension adversaries that the Figure-2
/// scheduler deliberately avoids (it keeps everyone in lockstep): a
/// correct wakeup algorithm must not let anyone return 1 in a run where
/// the excluded processes never step. The wakeup stress harness in
/// `llsc-core` sweeps these schedules.
#[derive(Clone, Debug)]
pub struct PartitionScheduler {
    subset: Vec<ProcessId>,
    cursor: usize,
}

impl PartitionScheduler {
    /// Creates a scheduler that only ever runs the given processes.
    pub fn new<I: IntoIterator<Item = ProcessId>>(subset: I) -> Self {
        PartitionScheduler {
            subset: subset.into_iter().collect(),
            cursor: 0,
        }
    }
}

impl Scheduler for PartitionScheduler {
    fn next(&mut self, exec: &Executor) -> Option<ProcessId> {
        let k = self.subset.len();
        for _ in 0..k {
            let p = self.subset[self.cursor % k.max(1)];
            self.cursor = (self.cursor + 1) % k.max(1);
            if exec.is_runnable(p) {
                return Some(p);
            }
        }
        None
    }
}

/// Wraps any scheduler and records every pick it hands to the executor.
///
/// The recorded trace, replayed through a [`ListScheduler`] against the
/// same executor configuration, reproduces the run event-for-event — this
/// is how a [`crate::repro::ReproCase`] turns a *named* schedule
/// (round-robin, seeded-random) into an *explicit* one that the shrinker
/// can then delta-debug pick by pick.
#[derive(Clone, Debug)]
pub struct RecordingScheduler<S> {
    inner: S,
    trace: Vec<ProcessId>,
}

impl<S: Scheduler> RecordingScheduler<S> {
    /// Wraps `inner`, starting with an empty trace.
    pub fn new(inner: S) -> Self {
        RecordingScheduler {
            inner,
            trace: Vec::new(),
        }
    }

    /// The picks recorded so far, in order.
    pub fn trace(&self) -> &[ProcessId] {
        &self.trace
    }

    /// Consumes the wrapper and returns the recorded trace.
    pub(crate) fn into_trace(self) -> Vec<ProcessId> {
        self.trace
    }
}

impl<S: Scheduler> Scheduler for RecordingScheduler<S> {
    fn next(&mut self, exec: &Executor) -> Option<ProcessId> {
        let pick = self.inner.next(exec);
        if let Some(p) = pick {
            self.trace.push(p);
        }
        pick
    }
}

/// Picks uniformly among runnable (non-terminated, non-crashed) processes using a seeded SplitMix64
/// stream; fully deterministic per seed.
#[derive(Clone, Copy, Debug)]
pub struct RandomScheduler {
    state: u64,
}

impl RandomScheduler {
    /// Creates a random scheduler with the given seed.
    pub fn new(seed: u64) -> Self {
        RandomScheduler {
            state: seed ^ 0xD1B5_4A32_D192_ED03,
        }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

impl Scheduler for RandomScheduler {
    fn next(&mut self, exec: &Executor) -> Option<ProcessId> {
        let active = exec.active();
        if active.is_empty() {
            return None;
        }
        let i = (self.next_u64() % active.len() as u64) as usize;
        Some(active[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::{done, ll};
    use crate::{Algorithm, ExecutorConfig, FnAlgorithm, RegisterId, RunEvent, Value, ZeroTosses};

    fn two_ll_alg() -> impl Algorithm {
        FnAlgorithm::new("two-ll", |_pid, _n| {
            ll(RegisterId(0), |_| {
                ll(RegisterId(1), |_| done(Value::from(0i64)))
            })
            .into_program()
        })
    }

    fn exec(n: usize) -> Executor {
        Executor::new(
            &two_ll_alg(),
            n,
            std::sync::Arc::new(ZeroTosses),
            ExecutorConfig::default(),
        )
    }

    #[test]
    fn round_robin_interleaves() {
        let mut e = exec(2);
        let mut s = RoundRobinScheduler::new();
        e.drive(&mut s, 100).unwrap();
        assert!(e.all_terminated());
        let pids: Vec<_> = e.run().events().iter().map(|ev| ev.pid().0).collect();
        // p0, p1 alternate: op, op, op, op, then terminations interleaved.
        assert_eq!(pids[0], 0);
        assert_eq!(pids[1], 1);
    }

    #[test]
    fn sequential_runs_one_process_at_a_time() {
        let mut e = exec(2);
        let mut s = SequentialScheduler::new();
        e.drive(&mut s, 100).unwrap();
        assert!(e.all_terminated());
        let pids: Vec<_> = e
            .run()
            .events()
            .iter()
            .filter(|ev| matches!(ev, RunEvent::SharedOp { .. }))
            .map(|ev| ev.pid().0)
            .collect();
        assert_eq!(pids, vec![0, 0, 1, 1]);
    }

    #[test]
    fn list_scheduler_follows_exact_order() {
        let mut e = exec(2);
        let mut s = ListScheduler::new([ProcessId(1), ProcessId(0), ProcessId(1), ProcessId(0)]);
        e.drive(&mut s, 100).unwrap();
        assert!(e.all_terminated());
        let pids: Vec<_> = e
            .run()
            .events()
            .iter()
            .filter(|ev| matches!(ev, RunEvent::SharedOp { .. }))
            .map(|ev| ev.pid().0)
            .collect();
        assert_eq!(pids, vec![1, 0, 1, 0]);
    }

    #[test]
    fn list_scheduler_stops_when_exhausted() {
        let mut e = exec(2);
        let mut s = ListScheduler::new([ProcessId(0)]);
        let steps = e.drive(&mut s, 100).unwrap();
        assert_eq!(steps, 1);
        assert!(!e.all_terminated());
    }

    #[test]
    fn partition_scheduler_never_runs_outsiders() {
        let mut e = exec(4);
        let mut s = PartitionScheduler::new([ProcessId(1), ProcessId(3)]);
        e.drive(&mut s, 1000).unwrap();
        for p in [ProcessId(0), ProcessId(2)] {
            assert_eq!(e.run().shared_steps(p), 0, "{p}");
            assert!(!e.is_terminated(p));
        }
        for p in [ProcessId(1), ProcessId(3)] {
            assert!(e.is_terminated(p), "{p}");
        }
    }

    #[test]
    fn partition_scheduler_stops_when_subset_done() {
        let mut e = exec(3);
        let mut s = PartitionScheduler::new([ProcessId(0)]);
        let steps = e.drive(&mut s, 1000).unwrap();
        // p0: two LLs + termination bookkeeping; then the scheduler
        // declines.
        assert!(steps <= 4);
        assert!(e.is_terminated(ProcessId(0)));
        assert!(!e.all_terminated());
    }

    #[test]
    fn random_scheduler_is_deterministic_per_seed() {
        let runs: Vec<_> = (0..2)
            .map(|_| {
                let mut e = exec(4);
                let mut s = RandomScheduler::new(7);
                e.drive(&mut s, 1000).unwrap();
                e.into_run().events().to_vec()
            })
            .collect();
        assert_eq!(runs[0], runs[1]);
    }

    #[test]
    fn random_scheduler_completes_everything() {
        let mut e = exec(4);
        let mut s = RandomScheduler::new(3);
        e.drive(&mut s, 10_000).unwrap();
        assert!(e.all_terminated());
    }

    #[test]
    fn schedulers_skip_crashed_processes() {
        // Round-robin over {p0 crashed, p1, p2}: p1 and p2 finish, the
        // drive ends cleanly, and the run classifies as Crashed.
        let mut e = exec(3);
        e.crash(ProcessId(0));
        let mut s = RoundRobinScheduler::new();
        e.drive(&mut s, 1000).unwrap();
        assert!(e.all_settled() && !e.all_terminated());
        assert_eq!(e.run().shared_steps(ProcessId(0)), 0);
        assert!(e.is_terminated(ProcessId(1)) && e.is_terminated(ProcessId(2)));
        assert_eq!(
            e.run_outcome(),
            crate::RunOutcome::Crashed { pid: ProcessId(0) }
        );

        // Sequential over an all-crashed system declines immediately.
        let mut e = exec(2);
        e.crash(ProcessId(0));
        e.crash(ProcessId(1));
        assert_eq!(e.drive(&mut SequentialScheduler::new(), 10).unwrap(), 0);
    }

    #[test]
    fn recorded_trace_replays_identically_through_a_list_scheduler() {
        let mut e = exec(3);
        let mut s = RecordingScheduler::new(RoundRobinScheduler::new());
        e.drive(&mut s, 100).unwrap();
        assert!(e.all_terminated());
        let events = e.into_run().events().to_vec();
        let trace = s.into_trace();
        assert!(!trace.is_empty());

        let mut replay = exec(3);
        let mut list = ListScheduler::new(trace);
        replay.drive(&mut list, 100).unwrap();
        assert_eq!(replay.into_run().events().to_vec(), events);
    }

    #[test]
    fn round_robin_on_empty_system_stops() {
        let mut e = exec(0);
        let mut s = RoundRobinScheduler::new();
        assert_eq!(e.drive(&mut s, 10).unwrap(), 0);
    }
}
