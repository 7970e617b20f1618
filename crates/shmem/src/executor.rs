//! The deterministic discrete-event engine.

use crate::{
    Action, Algorithm, FaultInjector, FaultPlan, FaultStats, Feedback, Operation, ProcessId,
    Program, Response, Run, RunError, RunEvent, RunOutcome, Scheduler, SharedMemory,
    TossAssignment, Value, CANCEL_POLL_EVENTS,
};
use std::fmt;
use std::sync::Arc;

/// Safety limits for an execution.
///
/// The paper's runs can be infinite; these limits turn a runaway simulation
/// into a structured [`RunError`] instead of a hang. Both default to
/// generous values that no shipped experiment approaches.
#[derive(Clone, Copy, Debug)]
pub struct ExecutorConfig {
    /// Maximum number of events recorded before the executor reports
    /// [`RunError::BudgetExhausted`]. Termination events are counted but
    /// never trip the budget themselves (there are at most `n` of them,
    /// and each one is progress).
    pub max_events: u64,
    /// Maximum number of *consecutive* coin tosses a single process may
    /// perform in one [`Executor::advance_local`] burst before the executor
    /// reports [`RunError::DivergedLocalBurst`] (guards against programs
    /// that toss forever, which would make Phase 1 of an adversary round
    /// diverge).
    pub max_local_burst: u64,
    /// Whether the recorded [`Run`] keeps full events and interaction
    /// histories (`true`, the default) or only counters and verdicts
    /// (`false` — the lightweight mode for large measurement sweeps; see
    /// [`Run::lightweight`]).
    pub record_details: bool,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        ExecutorConfig {
            max_events: 50_000_000,
            max_local_burst: 1_000_000,
            record_details: true,
        }
    }
}

impl ExecutorConfig {
    /// The configuration the large measurement sweeps use: counters and
    /// verdicts only (see [`Run::lightweight`]), same safety limits.
    ///
    /// Runs recorded this way still produce a full
    /// [`OpCounters`](crate::OpCounters) summary via
    /// [`Executor::counters`] — structured stats without trace memory.
    pub fn lightweight() -> Self {
        ExecutorConfig {
            record_details: false,
            ..ExecutorConfig::default()
        }
    }
}

/// The outcome of advancing one process by one step.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StepOutcome {
    /// The process tossed a coin.
    Tossed(u64),
    /// The process performed a shared-memory operation.
    Performed(Operation, Response),
    /// The process had already terminated; nothing happened.
    AlreadyTerminated,
}

struct ProcState {
    program: Box<dyn Program>,
    /// The process's pending step. `None` only before first activation or
    /// after termination; [`Action::Return`] never sits pending because
    /// termination is resolved eagerly.
    pending: Option<Action>,
    activated: bool,
}

impl fmt::Debug for ProcState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProcState")
            .field("pending", &self.pending)
            .field("activated", &self.activated)
            .finish()
    }
}

/// Executes an `n`-process algorithm over a [`SharedMemory`], one step at a
/// time, under the control of a caller-chosen schedule.
///
/// The executor offers three levels of control:
///
/// 1. **Raw steps** — [`Executor::step`] advances a chosen process by one
///    step (toss or shared-memory operation). This is what generic
///    [`Scheduler`]s drive via [`Executor::drive`].
/// 2. **Phase primitives** — [`Executor::advance_local`] runs a process's
///    coin tosses until its next step is a shared-memory operation (Phase 1
///    of the paper's Figure-2 rounds), and
///    [`Executor::perform_shared`] performs exactly the pending operation.
///    The round adversary in `llsc-core` is built from these.
/// 3. **Convenience** — [`Executor::step_round_robin`] for simple tests.
///
/// Determinism: given the same algorithm, toss assignment, and sequence of
/// scheduling decisions, the executor produces the identical [`Run`].
///
/// # Faults and crashes
///
/// Stepping calls are fallible: when a configured limit fires they return
/// a [`RunError`] instead of panicking, and the fault is *sticky* — every
/// later stepping call returns the same error, and
/// [`Executor::run_outcome`] reports it. Processes can also be *crashed*
/// ([`Executor::crash`]), the crash-stop limit case of an adversarial
/// scheduler that delays a process forever: a crashed process takes no
/// further steps, schedulers skip it, and a drive that ends with crashed
/// survivors classifies as [`RunOutcome::Crashed`].
#[derive(Debug)]
pub struct Executor {
    n: usize,
    memory: SharedMemory,
    procs: Vec<ProcState>,
    run: Run,
    toss: Arc<dyn TossAssignment>,
    config: ExecutorConfig,
    rr_cursor: usize,
    recorded_events: u64,
    /// The first structural fault reported, if any; makes faults sticky.
    fault: Option<RunError>,
    /// The memory-fault adversary, if one was armed
    /// ([`Executor::set_fault_plan`]).
    injector: Option<FaultInjector>,
}

impl Executor {
    /// Creates an executor for an `n`-process instance of `alg`, with coin
    /// tosses answered by `toss`.
    ///
    /// The shared memory is initialised from
    /// [`Algorithm::initial_memory`].
    pub fn new(
        alg: &dyn Algorithm,
        n: usize,
        toss: Arc<dyn TossAssignment>,
        config: ExecutorConfig,
    ) -> Self {
        let memory = SharedMemory::with_initial(alg.initial_memory(n));
        let procs = ProcessId::all(n)
            .map(|pid| ProcState {
                program: alg.spawn(pid, n),
                pending: None,
                activated: false,
            })
            .collect();
        Executor {
            n,
            memory,
            procs,
            run: if config.record_details {
                Run::new(n)
            } else {
                Run::lightweight(n)
            },
            toss,
            config,
            rr_cursor: 0,
            recorded_events: 0,
            fault: None,
            injector: None,
        }
    }

    /// Resets the executor in place for a fresh run of `alg` — the
    /// reusable per-worker trial context of scratch sweeps
    /// ([`crate::Sweep::run_indexed_range_with_scratch`]):
    /// programs are re-spawned, the shared memory is cleared back to its
    /// initial values, and the run, counters, and fault state restart
    /// from empty, reusing buffer allocations instead of building a new
    /// executor per trial.
    ///
    /// `alg` must describe the same system this executor was built for
    /// (same `n` and initial memory — the configured initial values are
    /// kept, not recomputed); the toss assignment and config are also
    /// kept. After a reset the executor is observationally
    /// [`Executor::new`], so a sweep that resets between trials produces
    /// byte-identical results to one that constructs per trial.
    pub fn reset(&mut self, alg: &dyn Algorithm) {
        self.memory.reset();
        self.procs.clear();
        let n = self.n;
        self.procs.extend(ProcessId::all(n).map(|pid| ProcState {
            program: alg.spawn(pid, n),
            pending: None,
            activated: false,
        }));
        self.run.reset();
        self.rr_cursor = 0;
        self.recorded_events = 0;
        self.fault = None;
        self.injector = None;
    }

    /// Swaps the recorded run with `run` — the ownership-transfer half of
    /// trial reuse: the trial's product receives this run, and the
    /// executor takes over `run`'s buffers (typically the previous trial's
    /// run) for the next [`Executor::reset`] to clear. The executor's run
    /// is stale until that reset.
    ///
    /// # Panics
    ///
    /// Panics if `run` is for another process count or recording mode.
    pub fn swap_run(&mut self, run: &mut Run) {
        assert!(
            run.n() == self.n && run.is_detailed() == self.config.record_details,
            "swap_run needs a run of the same process count and recording mode"
        );
        std::mem::swap(&mut self.run, run);
    }

    /// Arms the memory-fault adversary: faults from `plan` are delivered
    /// at their event thresholds as the run progresses (see
    /// [`FaultPlan`]). Injection happens inside the executor's own
    /// stepping path, so it composes with any [`Scheduler`] — including
    /// the [`CrashDriver`](crate::CrashDriver) wrapper — without a
    /// wrapper of its own.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.injector = Some(FaultInjector::new(plan));
    }

    /// Faults delivered so far by the armed plan (all zero when no plan
    /// was set).
    pub fn fault_stats(&self) -> FaultStats {
        self.injector
            .as_ref()
            .map(FaultInjector::stats)
            .unwrap_or_default()
    }

    /// The number of processes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The run recorded so far.
    pub fn run(&self) -> &Run {
        &self.run
    }

    /// The cheap structured summary of the run so far (available in both
    /// detailed and lightweight recording modes).
    pub fn counters(&self) -> crate::OpCounters {
        self.run.counters()
    }

    /// The shared memory (omniscient view; reading it is not a step).
    pub fn memory(&self) -> &SharedMemory {
        &self.memory
    }

    /// Consumes the executor and returns the recorded run.
    pub fn into_run(self) -> Run {
        self.run
    }

    /// `true` iff `p` has terminated.
    pub fn is_terminated(&self, p: ProcessId) -> bool {
        self.run.verdict(p).is_some()
    }

    /// The value `p` returned, if terminated.
    pub fn verdict(&self, p: ProcessId) -> Option<&Value> {
        self.run.verdict(p)
    }

    /// `true` iff every process has terminated.
    pub fn all_terminated(&self) -> bool {
        self.run.is_terminating()
    }

    /// `true` iff `p` has been crash-stopped (see [`Executor::crash`]).
    pub(crate) fn is_crashed(&self, p: ProcessId) -> bool {
        self.run.is_crashed(p)
    }

    /// `true` iff `p` can still take steps: neither terminated nor
    /// crashed.
    pub fn is_runnable(&self, p: ProcessId) -> bool {
        !self.is_terminated(p) && !self.is_crashed(p)
    }

    /// `true` iff every process is settled — terminated or crashed — so no
    /// further step is possible. With no crashes this is exactly
    /// [`Executor::all_terminated`].
    pub(crate) fn all_settled(&self) -> bool {
        ProcessId::all(self.n).all(|p| !self.is_runnable(p))
    }

    /// Crash-stops `p`: it takes no further steps, schedulers skip it, and
    /// the run classifies as [`RunOutcome::Crashed`] unless `p` had
    /// already terminated. Returns `true` iff the crash took effect
    /// (`false` when `p` is already terminated or already crashed).
    ///
    /// Crashing is the limit case of the paper's adversary — a scheduler
    /// that delays `p` forever — so every recorded prefix remains a legal
    /// run of the algorithm.
    pub fn crash(&mut self, p: ProcessId) -> bool {
        if !self.is_runnable(p) {
            return false;
        }
        self.run.mark_crashed(p);
        true
    }

    /// Recovers a crashed `p` under the crash-*recovery* fault model
    /// (Golab–Ramaraju): `p` loses all local state — its program is
    /// respawned from `alg` and restarts from the top, which for a
    /// recoverable algorithm *is* its recovery section — while the shared
    /// memory keeps whatever the crash left behind. The process's cached
    /// copies are also invalidated (a recovering process restarts with a
    /// cold cache), so recovery cost is measured honestly in RMRs.
    ///
    /// Returns `true` iff the recovery took effect (`false` when `p` is
    /// not currently crashed, or a sticky structural fault has already
    /// ended the run).
    pub fn recover(&mut self, p: ProcessId, alg: &dyn Algorithm) -> bool {
        if self.fault.is_some() || !self.is_crashed(p) {
            return false;
        }
        self.run.clear_crash(p);
        self.memory.evict(p);
        self.procs[p.0] = ProcState {
            program: alg.spawn(p, self.n),
            pending: None,
            activated: false,
        };
        true
    }

    /// The structural fault reported so far, if any (sticky).
    pub fn fault(&self) -> Option<RunError> {
        self.fault
    }

    /// Total events recorded so far (tosses + shared ops + terminations).
    pub(crate) fn recorded_events(&self) -> u64 {
        self.recorded_events
    }

    /// Classifies the run as it stands: [`RunOutcome::Completed`] when
    /// every process terminated ([`RunOutcome::FaultInjected`] if the
    /// armed fault plan delivered faults along the way); a sticky fault
    /// if one fired; otherwise
    /// [`RunOutcome::Crashed`] when a crashed process blocks completion,
    /// or [`RunOutcome::BudgetExhausted`] for a run that simply stopped
    /// (the caller's step limit ran out or its scheduler declined) with
    /// live processes remaining.
    pub fn run_outcome(&self) -> RunOutcome {
        if let Some(f) = self.fault {
            return f.into();
        }
        if self.all_terminated() {
            let stats = self.fault_stats();
            if stats.total() > 0 {
                return RunOutcome::FaultInjected {
                    spurious_sc: stats.spurious_sc,
                    corruptions: stats.corruptions,
                };
            }
            return RunOutcome::Completed;
        }
        if let Some(pid) = ProcessId::all(self.n).find(|p| self.is_crashed(*p)) {
            return RunOutcome::Crashed { pid };
        }
        RunOutcome::BudgetExhausted {
            events: self.recorded_events,
        }
    }

    /// The runnable (non-terminated, non-crashed) processes, in id order.
    pub(crate) fn active(&self) -> Vec<ProcessId> {
        ProcessId::all(self.n)
            .filter(|p| self.is_runnable(*p))
            .collect()
    }

    /// Feeds `feedback` to `p`'s program and resolves the resulting action,
    /// eagerly recording termination. Termination events count toward the
    /// event budget but never trip it (there are at most `n`, and each one
    /// is progress), which keeps activation and peeking infallible.
    fn feed(&mut self, p: ProcessId, feedback: Feedback) {
        let action = self.procs[p.0].program.next(feedback);
        if let Action::Return(v) = action {
            self.recorded_events += 1;
            self.run.record(RunEvent::Terminated { pid: p, value: v });
            self.procs[p.0].pending = None;
        } else {
            self.procs[p.0].pending = Some(action);
        }
    }

    fn ensure_activated(&mut self, p: ProcessId) {
        if !self.procs[p.0].activated {
            self.procs[p.0].activated = true;
            self.feed(p, Feedback::Start);
        }
    }

    /// Counts one toss/shared-op event against the budget; reports (and
    /// stickies) [`RunError::BudgetExhausted`] when the budget fires.
    /// Also polls the trial's [`CancelToken`](crate::CancelToken)
    /// (installed by [`Sweep`](crate::Sweep) workers) every
    /// [`CANCEL_POLL_EVENTS`] events, so
    /// a cancelled or timed-out trial panics into a structured
    /// [`TrialFailure`](crate::TrialFailure) instead of stalling its
    /// sweep.
    fn guard_events(&mut self) -> Result<(), RunError> {
        self.recorded_events += 1;
        if self.recorded_events >= self.config.max_events {
            let err = RunError::BudgetExhausted {
                events: self.recorded_events,
            };
            self.fault = Some(err);
            return Err(err);
        }
        if self.recorded_events.is_multiple_of(CANCEL_POLL_EVENTS) {
            crate::cancel::check_trial_token(self.recorded_events);
        }
        Ok(())
    }

    /// Returns the sticky fault if one has fired, or an error for stepping
    /// a crashed process — the common preamble of every stepping call.
    fn check_steppable(&self, p: ProcessId) -> Result<(), RunError> {
        if let Some(f) = self.fault {
            return Err(f);
        }
        if self.is_crashed(p) {
            return Err(RunError::Crashed { pid: p });
        }
        Ok(())
    }

    /// The shared-memory operation `p` is poised to perform, if its next
    /// step is a shared-memory step. Activates `p` if necessary
    /// (activation is a local state transition, not a step). Borrowed
    /// straight from the pending slot — peeking never clones the
    /// operation.
    pub fn pending_op(&mut self, p: ProcessId) -> Option<&Operation> {
        self.ensure_activated(p);
        match &self.procs[p.0].pending {
            Some(Action::Invoke(op)) => Some(op),
            _ => None,
        }
    }

    /// Advances `p` by one step (toss or shared-memory operation).
    ///
    /// # Errors
    ///
    /// Returns the sticky fault if a limit has already fired,
    /// [`RunError::Crashed`] if `p` was crashed, or
    /// [`RunError::BudgetExhausted`] if this step fires the event budget.
    pub fn step(&mut self, p: ProcessId) -> Result<StepOutcome, RunError> {
        self.check_steppable(p)?;
        self.ensure_activated(p);
        // Inspect by reference and dispatch; the pending action itself is
        // taken by value exactly once, inside the branch that consumes it.
        match self.procs[p.0].pending {
            None => Ok(StepOutcome::AlreadyTerminated),
            Some(Action::Toss) => {
                let outcome = self.do_toss(p)?;
                Ok(StepOutcome::Tossed(outcome))
            }
            Some(Action::Invoke(_)) => {
                let (op, resp) = self.perform_shared(p)?;
                Ok(StepOutcome::Performed(op, resp))
            }
            Some(Action::Return(_)) => unreachable!("Return never sits pending"),
        }
    }

    fn do_toss(&mut self, p: ProcessId) -> Result<u64, RunError> {
        let index = self.run.tosses(p);
        let outcome = self.toss.outcome(p, index);
        self.guard_events()?;
        self.run.record(RunEvent::Toss {
            pid: p,
            index,
            outcome,
        });
        self.feed(p, Feedback::Coin(outcome));
        Ok(outcome)
    }

    /// Phase-1 primitive: performs `p`'s coin tosses until `p` terminates
    /// or its next step is a shared-memory operation. Returns the number of
    /// tosses performed.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::DivergedLocalBurst`] if `p` tosses
    /// [`ExecutorConfig::max_local_burst`] times without reaching a
    /// shared-memory step or termination, [`RunError::Crashed`] if `p` was
    /// crashed, or [`RunError::BudgetExhausted`] if the event budget fires
    /// mid-burst. All are sticky.
    pub fn advance_local(&mut self, p: ProcessId) -> Result<u64, RunError> {
        self.check_steppable(p)?;
        self.ensure_activated(p);
        let mut count = 0u64;
        while matches!(self.procs[p.0].pending, Some(Action::Toss)) {
            if count >= self.config.max_local_burst {
                let err = RunError::DivergedLocalBurst { pid: p };
                self.fault = Some(err);
                return Err(err);
            }
            self.do_toss(p)?;
            count += 1;
        }
        Ok(count)
    }

    /// Performs `p`'s pending shared-memory operation and feeds the
    /// response back to `p`'s program.
    ///
    /// # Errors
    ///
    /// Returns the sticky fault, [`RunError::Crashed`] for a crashed `p`,
    /// or [`RunError::BudgetExhausted`] if this operation fires the event
    /// budget.
    ///
    /// # Panics
    ///
    /// Panics if `p`'s next step is not a shared-memory operation — a
    /// caller contract violation, not a run fault (call
    /// [`Executor::advance_local`] or check [`Executor::pending_op`]
    /// first).
    pub fn perform_shared(&mut self, p: ProcessId) -> Result<(Operation, Response), RunError> {
        self.check_steppable(p)?;
        self.ensure_activated(p);
        // The single point where a pending operation leaves its slot: taken
        // by value, never cloned. `feed` installs the program's next action
        // in the slot afterwards.
        let op = match self.procs[p.0].pending.take() {
            Some(Action::Invoke(op)) => op,
            other => panic!("{p} has no pending shared-memory operation (pending: {other:?})"),
        };
        let (resp, cc) = self.apply_with_faults(p, &op);
        self.guard_events()?;
        self.run.record_shared(p, &op, &resp);
        let dsm = crate::dsm_cost(p, &op, self.n);
        self.run.record_rmrs(p, cc, dsm);
        self.feed(p, Feedback::Response(resp.clone()));
        Ok((op, resp))
    }

    /// Applies `op` through the armed fault injector (when one is set):
    /// due corruptions rewrite the register the operation is about to
    /// observe, then a due spurious entry suppresses the operation if it
    /// is an SC whose `Pset` condition holds. With no injector (or no due
    /// fault) this is exactly [`SharedMemory::apply_charged`]: the
    /// response and its cache-coherent RMR charge.
    fn apply_with_faults(&mut self, p: ProcessId, op: &Operation) -> (Response, u64) {
        let Some(mut inj) = self.injector.take() else {
            return self.memory.apply_charged(p, op);
        };
        // Transient corruption strikes the register this operation reads
        // (its *observed* register: the source of a move, the target of
        // everything else) just before the operation applies, so the
        // corrupted value is what the process sees.
        while let Some(clear_pset) = inj.take_corruption(self.recorded_events) {
            // An out-of-band rewrite: it also invalidates every cached
            // copy of the victim, so the CC model must re-fetch it.
            self.memory
                .corrupt_in_place(op.observed(), clear_pset, |v| inj.corrupt_in_place(v));
        }
        // A due spurious entry waits for an SC that would have succeeded;
        // suppressing an already-failing SC would inject nothing.
        let resp = match op {
            Operation::Sc(r, _) if inj.spurious_due(self.recorded_events) => {
                match self.memory.suppress_sc(p, *r) {
                    Some(charged) => {
                        inj.consume_spurious();
                        charged
                    }
                    None => self.memory.apply_charged(p, op),
                }
            }
            _ => self.memory.apply_charged(p, op),
        };
        self.injector = Some(inj);
        resp
    }

    /// Advances the next runnable process (round-robin over ids) by one
    /// step. Returns `Ok(false)` when every process is settled
    /// (terminated or crashed).
    pub fn step_round_robin(&mut self) -> Result<bool, RunError> {
        if self.all_settled() {
            return Ok(false);
        }
        for _ in 0..self.n {
            let p = ProcessId(self.rr_cursor);
            self.rr_cursor = (self.rr_cursor + 1) % self.n;
            if self.is_runnable(p) {
                // The chosen process may terminate without a step (its
                // program returns immediately on activation); that still
                // consumes this round-robin turn.
                self.check_steppable(p)?;
                self.ensure_activated(p);
                if self.procs[p.0].pending.is_some() {
                    self.step(p)?;
                }
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Runs the executor under `sched` until every process settles
    /// (terminates or is crashed), the scheduler declines to pick
    /// (returns `None`), or `max_steps` steps have been taken. Returns
    /// the number of steps taken; crashed or terminated picks are skipped
    /// without consuming a step.
    ///
    /// # Errors
    ///
    /// Propagates the first [`RunError`] a step reports; the fault is
    /// sticky, and [`Executor::run_outcome`] classifies it afterwards.
    pub fn drive(&mut self, sched: &mut dyn Scheduler, max_steps: u64) -> Result<u64, RunError> {
        let mut steps = 0;
        while steps < max_steps && !self.all_settled() {
            let Some(p) = sched.next(self) else { break };
            if !self.is_runnable(p) {
                continue;
            }
            self.ensure_activated(p);
            if self.procs[p.0].pending.is_some() {
                self.step(p)?;
            }
            steps += 1;
        }
        Ok(steps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::{done, ll, sc, toss};
    use crate::{FnAlgorithm, RegisterId, RoundRobinScheduler, ZeroTosses};

    fn counter_like() -> impl Algorithm {
        // Each process: LL(R0); SC(R0, old + 1); retry until success;
        // return the value it installed.
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

    /// Each process: LL(R0) forever — floods the event budget without
    /// ever terminating or tossing.
    fn ll_forever() -> impl Algorithm {
        FnAlgorithm::new("ll-forever", |_pid, _n| {
            fn attempt() -> crate::dsl::Step {
                ll(RegisterId(0), move |_| attempt())
            }
            attempt().into_program()
        })
    }

    #[test]
    fn round_robin_executes_counter_to_completion() {
        let alg = counter_like();
        let mut exec = Executor::new(&alg, 4, Arc::new(ZeroTosses), ExecutorConfig::default());
        while exec.step_round_robin().unwrap() {}
        assert!(exec.all_terminated());
        assert_eq!(exec.memory().peek(RegisterId(0)), Value::from(4i64));
        // All four increments happened, with distinct installed values.
        let mut vals: Vec<i128> = ProcessId::all(4)
            .map(|p| exec.verdict(p).unwrap().as_int().unwrap())
            .collect();
        vals.sort_unstable();
        assert_eq!(vals, vec![1, 2, 3, 4]);
    }

    #[test]
    fn drive_with_scheduler_matches_round_robin() {
        let alg = counter_like();
        let mut a = Executor::new(&alg, 3, Arc::new(ZeroTosses), ExecutorConfig::default());
        while a.step_round_robin().unwrap() {}
        let mut b = Executor::new(&alg, 3, Arc::new(ZeroTosses), ExecutorConfig::default());
        b.drive(&mut RoundRobinScheduler::new(), 1_000_000).unwrap();
        assert!(b.all_terminated());
        assert_eq!(b.run_outcome(), crate::RunOutcome::Completed);
        assert_eq!(a.run().events(), b.run().events());
    }

    #[test]
    fn pending_op_peeks_without_stepping() {
        let alg = counter_like();
        let mut exec = Executor::new(&alg, 1, Arc::new(ZeroTosses), ExecutorConfig::default());
        let op = exec.pending_op(ProcessId(0)).unwrap();
        assert_eq!(op, &Operation::Ll(RegisterId(0)));
        assert_eq!(exec.run().events().len(), 0, "peeking is not a step");
    }

    #[test]
    fn advance_local_runs_tosses_only() {
        let alg = FnAlgorithm::new("tosser", |_pid, _n| {
            toss(|c1| {
                toss(move |c2| ll(RegisterId(0), move |_| done(Value::from((c1 + c2) as i64))))
            })
            .into_program()
        });
        let mut exec = Executor::new(
            &alg,
            1,
            Arc::new(crate::ConstantTosses(5)),
            ExecutorConfig::default(),
        );
        let tosses = exec.advance_local(ProcessId(0)).unwrap();
        assert_eq!(tosses, 2);
        assert_eq!(exec.run().tosses(ProcessId(0)), 2);
        assert_eq!(exec.run().shared_steps(ProcessId(0)), 0);
        // Next step is the LL.
        let (op, _) = exec.perform_shared(ProcessId(0)).unwrap();
        assert_eq!(op, Operation::Ll(RegisterId(0)));
        assert_eq!(exec.verdict(ProcessId(0)), Some(&Value::from(10i64)));
    }

    #[test]
    fn immediate_return_records_termination_without_steps() {
        let alg = FnAlgorithm::new("noop", |_pid, _n| done(Value::from(0i64)).into_program());
        let mut exec = Executor::new(&alg, 2, Arc::new(ZeroTosses), ExecutorConfig::default());
        assert_eq!(exec.pending_op(ProcessId(0)), None);
        assert!(exec.is_terminated(ProcessId(0)));
        assert_eq!(exec.run().shared_steps(ProcessId(0)), 0);
    }

    #[test]
    fn step_on_terminated_process_is_noop() {
        let alg = FnAlgorithm::new("noop", |_pid, _n| done(Value::Unit).into_program());
        let mut exec = Executor::new(&alg, 1, Arc::new(ZeroTosses), ExecutorConfig::default());
        exec.pending_op(ProcessId(0));
        assert_eq!(
            exec.step(ProcessId(0)).unwrap(),
            StepOutcome::AlreadyTerminated
        );
    }

    #[test]
    fn infinite_tosser_reports_diverged_local_burst() {
        struct Forever;
        impl Program for Forever {
            fn next(&mut self, _f: Feedback) -> Action {
                Action::Toss
            }
        }
        let alg = FnAlgorithm::new("forever", |_pid, _n| Box::new(Forever) as Box<dyn Program>);
        let mut exec = Executor::new(
            &alg,
            1,
            Arc::new(ZeroTosses),
            ExecutorConfig {
                max_events: 1_000_000,
                max_local_burst: 100,
                record_details: true,
            },
        );
        let p = ProcessId(0);
        let err = exec.advance_local(p).unwrap_err();
        assert_eq!(err, RunError::DivergedLocalBurst { pid: p });
        assert_eq!(exec.run().tosses(p), 100, "bursts stop at the limit");
        // The fault is sticky and classifies the run.
        assert_eq!(exec.fault(), Some(err));
        assert_eq!(exec.step(p), Err(err));
        assert_eq!(
            exec.run_outcome(),
            RunOutcome::DivergedLocalBurst { pid: p }
        );
    }

    #[test]
    fn event_flood_reports_budget_exhausted() {
        let alg = ll_forever();
        let mut exec = Executor::new(
            &alg,
            2,
            Arc::new(ZeroTosses),
            ExecutorConfig {
                max_events: 50,
                max_local_burst: 1_000,
                record_details: true,
            },
        );
        let err = exec
            .drive(&mut RoundRobinScheduler::new(), 1_000_000)
            .unwrap_err();
        assert_eq!(err, RunError::BudgetExhausted { events: 50 });
        assert_eq!(exec.recorded_events(), 50);
        // Sticky: every stepping entry point reports the same fault.
        assert_eq!(exec.step(ProcessId(0)), Err(err));
        assert_eq!(exec.advance_local(ProcessId(1)), Err(err));
        assert_eq!(
            exec.run_outcome(),
            RunOutcome::BudgetExhausted { events: 50 }
        );
    }

    #[test]
    fn termination_events_never_trip_the_budget() {
        // Two processes terminating immediately under max_events = 1: the
        // terminations are counted but are progress, not a fault.
        let alg = FnAlgorithm::new("noop", |_pid, _n| done(Value::Unit).into_program());
        let mut exec = Executor::new(
            &alg,
            2,
            Arc::new(ZeroTosses),
            ExecutorConfig {
                max_events: 1,
                max_local_burst: 10,
                record_details: true,
            },
        );
        exec.drive(&mut RoundRobinScheduler::new(), 10).unwrap();
        assert!(exec.all_terminated());
        assert_eq!(exec.recorded_events(), 2);
        assert_eq!(exec.run_outcome(), RunOutcome::Completed);
    }

    #[test]
    fn crashed_process_is_skipped_and_classified() {
        let alg = counter_like();
        let mut exec = Executor::new(&alg, 3, Arc::new(ZeroTosses), ExecutorConfig::default());
        let victim = ProcessId(1);
        assert!(exec.crash(victim));
        assert!(!exec.crash(victim), "crashing twice is a no-op");
        assert!(exec.is_crashed(victim) && !exec.is_runnable(victim));
        assert_eq!(exec.active(), vec![ProcessId(0), ProcessId(2)]);
        // Stepping a crashed process is a structured error, not a panic.
        assert_eq!(exec.step(victim), Err(RunError::Crashed { pid: victim }));
        // The survivors run to completion; the run classifies as Crashed.
        let steps = exec
            .drive(&mut RoundRobinScheduler::new(), 1_000_000)
            .unwrap();
        assert!(steps > 0);
        assert!(exec.all_settled() && !exec.all_terminated());
        assert_eq!(exec.run_outcome(), RunOutcome::Crashed { pid: victim });
        assert_eq!(exec.memory().peek(RegisterId(0)), Value::from(2i64));
        // A terminated process cannot crash.
        assert!(!exec.crash(ProcessId(0)));
        let run = exec.into_run();
        assert!(run.is_crashed(victim));
        assert_eq!(run.crashed().collect::<Vec<_>>(), vec![victim]);
    }

    #[test]
    fn rmr_counters_track_both_models() {
        // Two processes incrementing R0: p0's home register under DSM
        // (0 % 2 = 0), so p0 pays 0 DSM RMRs and p1 pays one per access.
        let alg = counter_like();
        let mut exec = Executor::new(&alg, 2, Arc::new(ZeroTosses), ExecutorConfig::default());
        while exec.step_round_robin().unwrap() {}
        let run = exec.run();
        assert_eq!(run.dsm_rmrs(ProcessId(0)), 0);
        assert_eq!(run.dsm_rmrs(ProcessId(1)), run.shared_steps(ProcessId(1)));
        // CC: every step here either misses a cold/invalidated cache or is
        // a write, so each shared step costs exactly 1 under round-robin
        // interleaving on one register.
        let c = exec.counters();
        assert!(c.total_cc_rmrs() > 0);
        assert!(c.total_cc_rmrs() <= c.total_ops());
        assert_eq!(c.cc_rmrs.len(), 2);
    }

    #[test]
    fn recover_respawns_a_crashed_process() {
        let alg = counter_like();
        let mut exec = Executor::new(&alg, 2, Arc::new(ZeroTosses), ExecutorConfig::default());
        let victim = ProcessId(0);
        // Let the victim take its LL, then crash it mid-attempt.
        exec.step(victim).unwrap();
        assert!(exec.crash(victim));
        assert!(!exec.recover(ProcessId(1), &alg), "p1 is not crashed");
        assert!(exec.recover(victim, &alg));
        assert!(exec.is_runnable(victim));
        assert_eq!(exec.run().counters().crashes[victim.0], 1);
        assert_eq!(exec.run().counters().recoveries[victim.0], 1);
        // The respawned program restarts from the top and completes.
        while exec.step_round_robin().unwrap() {}
        assert!(exec.all_terminated());
        assert_eq!(exec.run_outcome(), RunOutcome::Completed);
        assert_eq!(exec.memory().peek(RegisterId(0)), Value::from(2i64));
    }

    #[test]
    fn reset_executor_replays_identically_to_a_fresh_one() {
        let alg = counter_like();
        let mut fresh = Executor::new(&alg, 4, Arc::new(ZeroTosses), ExecutorConfig::default());
        while fresh.step_round_robin().unwrap() {}
        // Dirty an executor thoroughly — run it, crash nobody but arm a
        // no-op fault plan — then reset and replay.
        let mut reused = Executor::new(&alg, 4, Arc::new(ZeroTosses), ExecutorConfig::default());
        reused.set_fault_plan(FaultPlan::none());
        while reused.step_round_robin().unwrap() {}
        reused.reset(&alg);
        assert_eq!(reused.recorded_events(), 0);
        assert_eq!(reused.memory().stats().total(), 0);
        assert_eq!(
            reused.fault_stats(),
            FaultStats::default(),
            "injector disarmed"
        );
        while reused.step_round_robin().unwrap() {}
        assert_eq!(fresh.run().events(), reused.run().events());
        assert_eq!(fresh.memory().stats(), reused.memory().stats());
        assert_eq!(fresh.run_outcome(), reused.run_outcome());
    }

    #[test]
    fn reset_clears_sticky_faults_and_crashes() {
        let alg = ll_forever();
        let cfg = ExecutorConfig {
            max_events: 10,
            max_local_burst: 1_000,
            record_details: true,
        };
        let mut exec = Executor::new(&alg, 2, Arc::new(ZeroTosses), cfg);
        exec.crash(ProcessId(1));
        let err = exec
            .drive(&mut RoundRobinScheduler::new(), 1_000_000)
            .unwrap_err();
        assert_eq!(err, RunError::BudgetExhausted { events: 10 });
        exec.reset(&alg);
        assert_eq!(exec.fault(), None, "sticky fault cleared");
        assert!(exec.is_runnable(ProcessId(1)), "crash flag cleared");
        // The budget is available again in full.
        assert_eq!(
            exec.drive(&mut RoundRobinScheduler::new(), 1_000_000),
            Err(RunError::BudgetExhausted { events: 10 })
        );
    }

    #[test]
    fn swap_run_hands_over_the_run_and_reset_clears_the_one_taken_back() {
        for lightweight in [false, true] {
            let alg = counter_like();
            let cfg = ExecutorConfig {
                record_details: !lightweight,
                ..ExecutorConfig::default()
            };
            let mut exec = Executor::new(&alg, 2, Arc::new(ZeroTosses), cfg);
            while exec.step_round_robin().unwrap() {}
            let first_events = exec.run().events().to_vec();
            let mut previous = exec.run().clone();
            exec.reset(&alg);
            while exec.step_round_robin().unwrap() {}
            exec.swap_run(&mut previous);
            assert!(previous.is_terminating());
            assert_eq!(previous.is_detailed(), !lightweight);
            assert_eq!(
                previous.events().to_vec(),
                first_events,
                "the second trial's run"
            );
            assert!(exec.run().event_count() > 0, "the taken-back run is stale");
            exec.reset(&alg);
            assert_eq!(exec.run().event_count(), 0, "reset clears it");
            assert_eq!(exec.run().is_detailed(), !lightweight, "same mode");
        }
    }

    #[test]
    #[should_panic(expected = "same process count and recording mode")]
    fn swap_run_rejects_a_run_of_another_mode() {
        let alg = counter_like();
        let mut exec = Executor::new(&alg, 2, Arc::new(ZeroTosses), ExecutorConfig::default());
        exec.swap_run(&mut Run::lightweight(2));
    }

    #[test]
    fn determinism_same_inputs_same_run() {
        let alg = counter_like();
        let runs: Vec<_> = (0..2)
            .map(|_| {
                let mut e = Executor::new(&alg, 5, Arc::new(ZeroTosses), ExecutorConfig::default());
                while e.step_round_robin().unwrap() {}
                e.into_run()
            })
            .collect();
        assert_eq!(runs[0].events(), runs[1].events());
    }

    #[test]
    fn spurious_sc_fails_a_would_succeed_sc_and_the_retry_recovers() {
        // One process, counter_like: events are LL(1), SC(2), ... Schedule
        // the spurious fault at the first SC (event threshold 0 is due
        // immediately; it waits for a qualifying SC).
        let alg = counter_like();
        let mut exec = Executor::new(&alg, 1, Arc::new(ZeroTosses), ExecutorConfig::default());
        exec.set_fault_plan(FaultPlan::at([0], [], 7));
        while exec.step_round_robin().unwrap() {}
        assert!(exec.all_terminated());
        // The retry loop recovered: the increment still landed.
        assert_eq!(exec.memory().peek(RegisterId(0)), Value::from(1i64));
        assert_eq!(exec.fault_stats().spurious_sc, 1);
        assert_eq!(
            exec.run_outcome(),
            RunOutcome::FaultInjected {
                spurious_sc: 1,
                corruptions: 0
            }
        );
        assert_eq!(exec.run_outcome().into_result(), Ok(()));
        // Cost of the recovery: LL, failed SC, then LL + SC again.
        assert_eq!(exec.run().shared_steps(ProcessId(0)), 4);
    }

    #[test]
    fn spurious_entry_waits_for_a_qualifying_sc() {
        // A solo run whose only SCs would succeed: the entry fires on the
        // first SC, not on the preceding LL.
        let alg = counter_like();
        let mut exec = Executor::new(&alg, 1, Arc::new(ZeroTosses), ExecutorConfig::default());
        exec.set_fault_plan(FaultPlan::at([0], [], 7));
        // Event 0: the LL — not an SC, the fault stays pending.
        exec.step(ProcessId(0)).unwrap();
        assert_eq!(exec.fault_stats().spurious_sc, 0);
        // Event 1: the SC — suppressed.
        exec.step(ProcessId(0)).unwrap();
        assert_eq!(exec.fault_stats().spurious_sc, 1);
    }

    #[test]
    fn corruption_rewrites_the_observed_register() {
        let alg = counter_like();
        let mut exec = Executor::new(&alg, 1, Arc::new(ZeroTosses), ExecutorConfig::default());
        // Corrupt at event 0: the first LL observes a corrupted counter.
        exec.set_fault_plan(FaultPlan::at([], [(0, false)], 3));
        let (_, resp) = exec.perform_shared(ProcessId(0)).unwrap();
        let seen = match resp {
            Response::Value(v) => v,
            other => panic!("LL returns a value, got {other:?}"),
        };
        assert_ne!(seen, Value::from(0i64), "the LL saw the corrupted value");
        assert_eq!(exec.fault_stats().corruptions, 1);
        // Same-type corruption: still an Int.
        assert!(seen.as_int().is_some());
    }

    #[test]
    fn fault_free_plan_changes_nothing() {
        let alg = counter_like();
        let mut base = Executor::new(&alg, 3, Arc::new(ZeroTosses), ExecutorConfig::default());
        while base.step_round_robin().unwrap() {}
        let mut armed = Executor::new(&alg, 3, Arc::new(ZeroTosses), ExecutorConfig::default());
        armed.set_fault_plan(FaultPlan::none());
        while armed.step_round_robin().unwrap() {}
        assert_eq!(armed.run_outcome(), RunOutcome::Completed);
        assert_eq!(base.run().events(), armed.run().events());
        assert_eq!(base.memory().stats(), armed.memory().stats());
    }

    #[test]
    fn fault_injection_is_deterministic() {
        let alg = counter_like();
        let runs: Vec<_> = (0..2)
            .map(|_| {
                let mut e = Executor::new(&alg, 4, Arc::new(ZeroTosses), ExecutorConfig::default());
                e.set_fault_plan(FaultPlan::seeded(11, 2, 2, 16));
                while e.step_round_robin().unwrap() {}
                let stats = e.fault_stats();
                (e.into_run(), stats)
            })
            .collect();
        assert_eq!(runs[0].0.events(), runs[1].0.events());
        assert_eq!(runs[0].1, runs[1].1);
    }
}
