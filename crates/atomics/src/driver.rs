//! Thread-per-process execution: each paper process becomes one OS
//! thread driving its [`Program`] against a shared [`HwMemory`].
//!
//! Unlike the simulator's discrete-event executor there is no schedule —
//! the OS decides the interleaving. What the driver *does* control is
//! observability: every invocation, first step, and response is stamped
//! on the memory's global logical clock (a `SeqCst` `fetch_add`, so
//! stamps respect real time), which is what lets the cross-validation
//! harness check hardware histories for linearizability afterwards.
//!
//! Failures are *contained*: a process thread that panics, diverges, or
//! runs past the deadline is reported as a structured [`HwRunError`] from
//! [`run_threads_watchdog`] / [`run_threads_supervised`], never as a
//! panic of the calling thread — so a bad trial fails one
//! cross-validation case instead of aborting the whole harness.
//!
//! Each run has one stop mechanism: a run-local [`CancelToken`] carrying
//! the deadline. Every process thread reads its flag on every action and
//! its deadline every [`CANCEL_POLL_EVENTS`] actions (the executor's
//! cadence). A thread that panics, exhausts its respawn budget or sees
//! the deadline pass cancels the token, which stops its peers; there is
//! no separate watchdog thread.
//!
//! [`Program`]: llsc_shmem::Program

use crate::memory::{HwEventKind, HwMemory};
use crate::supervisor::{CrashSupervisor, InjectedCrash};
use llsc_shmem::{
    panic_message, Action, Algorithm, CancelToken, CrashPlan, ExecutionBackend, Feedback,
    ProcessId, RecoverySpec, RunError, Value, CANCEL_POLL_EVENTS,
};
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// What one process did during a hardware run.
#[derive(Clone, Debug, PartialEq)]
pub struct HwProcessResult {
    /// The process.
    pub pid: ProcessId,
    /// The value the process returned.
    pub response: Value,
    /// Shared-memory operations the process performed.
    pub ops: u64,
    /// Remote memory references billed to the process under the DSM
    /// cost model (`home(R) = R mod n`; remoteness is history-free, so
    /// the hardware backend counts it exactly — see
    /// [`llsc_shmem::dsm_cost`]). The CC charge needs coherence history
    /// and is simulator-only.
    pub dsm_rmrs: u64,
    /// Clock stamp taken just before the process's program was spawned
    /// — its operation is "invoked" from this point on.
    pub invoked_at: u64,
    /// Clock stamp taken just before the process executed its first
    /// action (toss, shared access, or immediate return). `None` only if
    /// the process never produced an action (impossible for terminating
    /// programs, but kept honest for partial runs).
    pub first_step_at: Option<u64>,
    /// Clock stamp taken when the process returned.
    pub responded_at: u64,
}

/// The outcome of one thread-per-process hardware run.
#[derive(Clone, Debug, PartialEq)]
pub struct HwRun {
    /// Per-process results, indexed by process id.
    pub results: Vec<HwProcessResult>,
    /// Wall-clock duration of the whole run (spawn to last join).
    pub wall: Duration,
}

impl HwRun {
    /// The largest per-process shared-access count — the hardware
    /// analogue of the simulator's worst-case `t(p, R)`.
    pub fn max_ops(&self) -> u64 {
        self.results.iter().map(|r| r.ops).max().unwrap_or(0)
    }

    /// The largest per-process DSM RMR count — the hardware analogue of
    /// the simulator's worst-case DSM bill.
    pub fn max_dsm_rmrs(&self) -> u64 {
        self.results.iter().map(|r| r.dsm_rmrs).max().unwrap_or(0)
    }

    /// Total DSM RMRs billed across all processes.
    pub fn total_dsm_rmrs(&self) -> u64 {
        self.results.iter().map(|r| r.dsm_rmrs).sum()
    }

    /// The per-process responses, indexed by process id.
    pub fn responses(&self) -> Vec<Value> {
        self.results.iter().map(|r| r.response.clone()).collect()
    }
}

/// Why a hardware run failed to produce an [`HwRun`].
///
/// The driver never panics on behalf of an algorithm: a panicking
/// program, a diverging loop, and a wedged trial all come back as a
/// value, so harness code (`llsc xcheck`, `llsc bench`) can report the
/// failed case and move on.
#[derive(Clone, Debug, PartialEq)]
pub enum HwRunError {
    /// A structural fault shared with the simulator's vocabulary —
    /// today always [`RunError::DivergedLocalBurst`]: some process
    /// burned its `max_steps` action budget without returning.
    Run(RunError),
    /// A process's program panicked on its thread. The panic was
    /// contained at `join()`; `message` is the payload when it was a
    /// string (the common `panic!`/`assert!` case).
    ThreadPanic {
        /// The process whose thread panicked (first in process order
        /// when several did).
        pid: ProcessId,
        /// The panic payload, when it was a string.
        message: String,
    },
    /// The run's deadline elapsed before every process returned — the
    /// run live- or deadlocked (or the deadline was too tight) and the
    /// stuck threads abandoned the trial.
    WatchdogTimeout {
        /// The deadline that fired.
        timeout: Duration,
        /// The processes that had not returned when it fired.
        stuck: Vec<ProcessId>,
    },
    /// A crash victim was killed more times than its
    /// [`RecoverySpec::budget`] covers respawns for — the respawn loop
    /// exhausted. The supervisor escalated by cancelling the run's token
    /// (the same one the deadline uses), so peers stop instead of
    /// spinning on the permanently dead victim.
    RespawnExhausted {
        /// The crash-looping victim.
        pid: ProcessId,
        /// Crashes the victim suffered, the final unrecovered one
        /// included.
        crashes: u64,
    },
}

impl fmt::Display for HwRunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HwRunError::Run(e) => write!(f, "{e}"),
            HwRunError::ThreadPanic { pid, message } => {
                write!(f, "{pid}'s hardware thread panicked: {message}")
            }
            HwRunError::WatchdogTimeout { timeout, stuck } => {
                let stuck: Vec<String> = stuck.iter().map(|p| p.to_string()).collect();
                write!(
                    f,
                    "hardware watchdog fired after {:.1}s: {} never returned",
                    timeout.as_secs_f64(),
                    stuck.join(", ")
                )
            }
            HwRunError::RespawnExhausted { pid, crashes } => write!(
                f,
                "{pid}'s respawn budget exhausted after {crashes} crash(es): \
                 the victim is crash-looping and the trial was aborted"
            ),
        }
    }
}

impl std::error::Error for HwRunError {}

impl From<RunError> for HwRunError {
    fn from(e: RunError) -> HwRunError {
        HwRunError::Run(e)
    }
}

/// Why one process thread gave up without a result.
enum ThreadStop {
    /// Burned its `max_steps` budget.
    Diverged,
    /// Saw the run's token cancelled.
    Aborted,
    /// Was killed more times than its respawn budget covers.
    RespawnExhausted {
        /// Crashes delivered, the final unrecovered one included.
        crashes: u64,
    },
}

/// Whether a process thread must stop before its `step`-th action: the
/// run's token is cancelled, or — looked at every
/// [`CANCEL_POLL_EVENTS`] actions — its deadline has passed, in which
/// case the thread cancels the token so its peers stop too.
fn must_stop(stop: &CancelToken, step: u64) -> bool {
    if stop.is_cancelled() {
        return true;
    }
    if step.is_multiple_of(CANCEL_POLL_EVENTS) && stop.is_expired() {
        stop.cancel();
        return true;
    }
    false
}

fn drive_one(
    alg: &dyn Algorithm,
    mem: &HwMemory,
    pid: ProcessId,
    max_steps: u64,
    stop: &CancelToken,
    supervisor: Option<&CrashSupervisor>,
    first_step_at: &mut Option<u64>,
) -> Result<HwProcessResult, ThreadStop> {
    let invoked_at = mem.stamp();
    let ops_before = mem.shared_accesses(pid);
    let rmrs_before = mem.dsm_rmrs(pid);
    let mut program = alg.spawn(pid, mem.n());
    let mut feedback = Feedback::Start;
    for step in 0..max_steps {
        if must_stop(stop, step) {
            return Err(ThreadStop::Aborted);
        }
        if let Some(sup) = supervisor {
            if sup.tick(pid) {
                // The incarnation dies here: the unwind drops the
                // program (and this whole frame), and the supervised
                // wrapper below catches the typed payload.
                CrashSupervisor::crash_now();
            }
        }
        let action = program.next(feedback);
        // Owned by the caller so the stamp survives crash/respawn: a
        // revived victim "showed up" at its first incarnation's first
        // step (the simulator's history keeps that step too), and the
        // wakeup condition is judged against that instant.
        if first_step_at.is_none() {
            *first_step_at = Some(mem.stamp());
        }
        feedback = match action {
            Action::Toss => Feedback::Coin(mem.toss(pid)),
            Action::Invoke(op) => Feedback::Response(mem.apply(pid, &op)),
            Action::Return(value) => {
                let responded_at = mem.stamp();
                return Ok(HwProcessResult {
                    pid,
                    response: value,
                    ops: mem.shared_accesses(pid) - ops_before,
                    dsm_rmrs: mem.dsm_rmrs(pid) - rmrs_before,
                    invoked_at,
                    first_step_at: *first_step_at,
                    responded_at,
                });
            }
        };
    }
    Err(ThreadStop::Diverged)
}

/// How many cooperative yields a respawning victim waits for the
/// logical clock to advance before concluding its peers are done too —
/// the clock only ticks on memory activity, so a lone survivor must not
/// wait out a delay nobody can deliver.
const RECOVERY_STALL_YIELDS: u32 = 50_000;

/// Realizes the recovery delay in *logical* time: the victim rejoins
/// once the global clock has advanced [`RecoverySpec::delay`] ticks past
/// its death (the hardware analogue of the simulator's
/// delay-in-events), bounded by the run's token and a stall limit.
fn recovery_pause(mem: &HwMemory, delay: u64, stop: &CancelToken) {
    let resume_at = mem.clock_now().saturating_add(delay);
    let mut stalled = 0u32;
    while mem.clock_now() < resume_at && !stop.is_cancelled() {
        std::thread::yield_now();
        stalled += 1;
        if stalled > RECOVERY_STALL_YIELDS {
            return;
        }
    }
}

/// [`drive_one`] for a crash victim: incarnations run under
/// `catch_unwind`, the supervisor's typed kills tear down local state
/// and (within budget) respawn a fresh incarnation after the recovery
/// delay; genuine panics unwind onward to the normal
/// [`HwRunError::ThreadPanic`] containment.
fn drive_supervised(
    alg: &dyn Algorithm,
    mem: &HwMemory,
    pid: ProcessId,
    max_steps: u64,
    stop: &CancelToken,
    sup: &CrashSupervisor,
) -> Result<HwProcessResult, ThreadStop> {
    let invoked_at = mem.stamp();
    let ops_before = mem.shared_accesses(pid);
    let rmrs_before = mem.dsm_rmrs(pid);
    let mut first_step_at = None;
    loop {
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            drive_one(
                alg,
                mem,
                pid,
                max_steps,
                stop,
                Some(sup),
                &mut first_step_at,
            )
        }));
        let payload = match attempt {
            Ok(done) => {
                return done.map(|mut result| {
                    // Bill the whole lifetime, crashed incarnations
                    // included — their wasted work *is* the recovery
                    // cost — and date the operation from the first
                    // incarnation's invocation.
                    result.ops = mem.shared_accesses(pid) - ops_before;
                    result.dsm_rmrs = mem.dsm_rmrs(pid) - rmrs_before;
                    result.invoked_at = invoked_at;
                    result
                });
            }
            Err(payload) => payload,
        };
        if payload.downcast_ref::<InjectedCrash>().is_none() {
            // A genuine algorithm panic: re-raise so the join path
            // reports ThreadPanic, not a phantom recovery.
            resume_unwind(payload);
        }
        let crashes = sup.crashes_of(pid);
        mem.clear_local(pid);
        mem.record_event(pid, HwEventKind::Killed { crashes });
        match sup.grant_respawn(pid) {
            None => {
                // Escalate: stop the peers through the run's token, then
                // report the structured exhaustion.
                stop.cancel();
                return Err(ThreadStop::RespawnExhausted { crashes });
            }
            Some(respawns_left) => {
                recovery_pause(mem, sup.recovery().delay, stop);
                if stop.is_cancelled() {
                    return Err(ThreadStop::Aborted);
                }
                mem.record_event(pid, HwEventKind::Respawned { respawns_left });
            }
        }
    }
}

/// Runs `alg` on `mem` with one OS thread per process, joining them all
/// and collecting per-process results. Each thread gives up after
/// `max_steps` actions ([`HwRunError::Run`] with
/// [`RunError::DivergedLocalBurst`]), so a non-terminating program
/// cannot wedge the harness, and a panicking program is contained as
/// [`HwRunError::ThreadPanic`] instead of aborting the caller.
///
/// If any process has not returned after `timeout`, the first thread to
/// see the deadline pass cancels the run's token, every still-running
/// thread abandons the trial, and the run fails with
/// [`HwRunError::WatchdogTimeout`] naming the stuck processes — the
/// hardware mirror of the simulator harness's `--trial-timeout-ms`, so a
/// wedged trial fails cleanly instead of hanging CI until the job-level
/// kill.
///
/// # Panics
///
/// Panics if `mem` was not built for `alg` (fewer processes than the
/// algorithm expects is fine; the run simply uses `mem.n()` processes).
pub fn run_threads_watchdog(
    alg: &dyn Algorithm,
    mem: &HwMemory,
    max_steps: u64,
    timeout: Duration,
) -> Result<HwRun, HwRunError> {
    run_threads_inner(alg, mem, max_steps, timeout, None)
}

/// [`run_threads_watchdog`] under the crash adversary: a
/// [`CrashSupervisor`] armed with `plan` and `recovery` kills each
/// victim's thread at its (per-process-rescaled) crash step via a typed
/// unwind, drops the incarnation's local state, and respawns it after
/// the recovery delay while the re-crash budget lasts. Kills and
/// respawns are stamped into the [`crate::HwEvent`] history; a victim
/// that outruns its budget aborts the trial and is reported as
/// [`HwRunError::RespawnExhausted`].
pub fn run_threads_supervised(
    alg: &dyn Algorithm,
    mem: &HwMemory,
    max_steps: u64,
    timeout: Duration,
    plan: &CrashPlan,
    recovery: RecoverySpec,
) -> Result<HwRun, HwRunError> {
    let sup = CrashSupervisor::new(plan, recovery, mem.n());
    run_threads_inner(alg, mem, max_steps, timeout, Some(&sup))
}

/// Cancels the run's token when a process thread unwinds, so peers
/// blocked on the dead thread stop at their next action instead of
/// spinning until the deadline masks the panic as a timeout.
struct CancelOnPanic<'a>(&'a CancelToken);

impl Drop for CancelOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.cancel();
        }
    }
}

fn run_threads_inner(
    alg: &dyn Algorithm,
    mem: &HwMemory,
    max_steps: u64,
    timeout: Duration,
    supervisor: Option<&CrashSupervisor>,
) -> Result<HwRun, HwRunError> {
    let n = mem.n();
    let started = Instant::now();
    let stop = CancelToken::new().with_timeout(timeout);
    type Joined = std::thread::Result<Result<HwProcessResult, ThreadStop>>;
    let joined: Vec<Joined> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n)
            .map(|p| {
                let stop = &stop;
                scope.spawn(move || {
                    let _guard = CancelOnPanic(stop);
                    let pid = ProcessId(p);
                    match supervisor.filter(|s| s.is_victim(pid)) {
                        Some(sup) => drive_supervised(alg, mem, pid, max_steps, stop, sup),
                        None => drive_one(alg, mem, pid, max_steps, stop, None, &mut None),
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    let wall = started.elapsed();

    let mut results = Vec::with_capacity(n);
    let mut stuck = Vec::new();
    let mut diverged = None;
    let mut exhausted = None;
    for (p, outcome) in joined.into_iter().enumerate() {
        let pid = ProcessId(p);
        match outcome {
            Err(payload) => {
                return Err(HwRunError::ThreadPanic {
                    pid,
                    message: panic_message(payload.as_ref()),
                })
            }
            Ok(Err(ThreadStop::Aborted)) => stuck.push(pid),
            Ok(Err(ThreadStop::Diverged)) => {
                diverged.get_or_insert(pid);
            }
            Ok(Err(ThreadStop::RespawnExhausted { crashes })) => {
                exhausted.get_or_insert((pid, crashes));
            }
            Ok(Ok(result)) => results.push(result),
        }
    }
    // An exhausted respawn loop cancelled the token itself, so its peers
    // come back Aborted: the root cause outranks their symptom.
    if let Some((pid, crashes)) = exhausted {
        return Err(HwRunError::RespawnExhausted { pid, crashes });
    }
    if !stuck.is_empty() {
        return Err(HwRunError::WatchdogTimeout { timeout, stuck });
    }
    if let Some(pid) = diverged {
        return Err(HwRunError::Run(RunError::DivergedLocalBurst { pid }));
    }
    Ok(HwRun { results, wall })
}

#[cfg(test)]
mod tests {
    use super::*;
    use llsc_shmem::dsl::{done, fix, ll};
    use llsc_shmem::{FnAlgorithm, RegisterId, SeededTosses};
    use std::sync::Arc;

    /// A program that LLs register 0 forever — livelocked, never returns.
    fn spinner() -> impl Algorithm {
        FnAlgorithm::new("spinner", |_pid, _n| {
            fix(|(), again| ll(RegisterId(0), move |_| again.call(())), ()).into_program()
        })
    }

    #[test]
    fn panicked_thread_is_reported_not_fatal() {
        let alg = FnAlgorithm::new("panicker", |pid: ProcessId, _n| {
            assert!(pid.0 != 1, "injected panic in p1");
            done(Value::from(0i64)).into_program()
        });
        let mem = HwMemory::for_algorithm(&alg, 2, Arc::new(SeededTosses::new(1)));
        match run_threads_watchdog(&alg, &mem, 1_000, Duration::from_secs(60)) {
            Err(HwRunError::ThreadPanic { pid, message }) => {
                assert_eq!(pid, ProcessId(1));
                assert!(message.contains("injected panic in p1"), "{message}");
            }
            other => panic!("expected ThreadPanic, got {other:?}"),
        }
    }

    #[test]
    fn watchdog_stops_a_livelocked_trial() {
        let alg = spinner();
        let mem = HwMemory::for_algorithm(&alg, 2, Arc::new(SeededTosses::new(1)));
        let started = Instant::now();
        match run_threads_watchdog(&alg, &mem, u64::MAX, Duration::from_millis(50)) {
            Err(HwRunError::WatchdogTimeout { timeout, stuck }) => {
                assert_eq!(timeout, Duration::from_millis(50));
                assert_eq!(stuck, vec![ProcessId(0), ProcessId(1)]);
            }
            other => panic!("expected WatchdogTimeout, got {other:?}"),
        }
        // Cleanly stopped: well before any CI job-level timeout.
        assert!(started.elapsed() < Duration::from_secs(30));
    }

    #[test]
    fn divergence_still_reported_under_a_generous_watchdog() {
        let alg = spinner();
        let mem = HwMemory::for_algorithm(&alg, 2, Arc::new(SeededTosses::new(1)));
        let err = run_threads_watchdog(&alg, &mem, 200, Duration::from_secs(60)).unwrap_err();
        assert_eq!(
            err,
            HwRunError::Run(RunError::DivergedLocalBurst { pid: ProcessId(0) })
        );
    }

    #[test]
    fn watchdog_passthrough_on_a_terminating_run() {
        let alg = FnAlgorithm::new("trivial", |pid: ProcessId, _n| {
            done(Value::from(pid.0 as i64)).into_program()
        });
        let mem = HwMemory::for_algorithm(&alg, 3, Arc::new(SeededTosses::new(1)));
        let run = run_threads_watchdog(&alg, &mem, 1_000, Duration::from_secs(60))
            .expect("terminates well inside the deadline");
        assert_eq!(run.results.len(), 3);
    }

    /// A program of six LLs on register 0, then return — long enough to
    /// cross a small crash step.
    fn six_lls() -> impl Algorithm {
        FnAlgorithm::new("six-lls", |_pid, _n| {
            let r = RegisterId(0);
            ll(r, move |_| {
                ll(r, move |_| {
                    ll(r, move |_| {
                        ll(r, move |_| {
                            ll(r, move |_| ll(r, move |_| done(Value::from(1i64))))
                        })
                    })
                })
            })
            .into_program()
        })
    }

    #[test]
    fn supervised_victim_respawns_and_the_history_shows_it() {
        use llsc_shmem::{CrashPlan, RecoverySpec};

        let alg = six_lls();
        let mem = HwMemory::for_algorithm(&alg, 2, Arc::new(SeededTosses::new(1)));
        // Global threshold 8 over n=2 → p1 crashes before its 5th
        // action; budget 1 means one kill, one respawn, then a clean
        // second incarnation.
        let plan = CrashPlan::at([(ProcessId(1), 8)]);
        let recovery = RecoverySpec {
            delay: 2,
            budget: 1,
        };
        let run =
            run_threads_supervised(&alg, &mem, 1_000, Duration::from_secs(60), &plan, recovery)
                .expect("victim recovers within budget");
        assert_eq!(run.results.len(), 2);
        let victim = run.results.iter().find(|r| r.pid == ProcessId(1)).unwrap();
        // 4 accesses wasted by the killed incarnation + 6 by the clean
        // one: the surcharge is the recovery cost, and it is
        // deterministic because the crash step is keyed on p1's private
        // step clock.
        assert_eq!(victim.ops, 10);

        let events = mem.take_events();
        let kills: Vec<_> = events
            .iter()
            .filter(|e| matches!(e.kind, crate::HwEventKind::Killed { .. }))
            .collect();
        let respawns: Vec<_> = events
            .iter()
            .filter(|e| matches!(e.kind, crate::HwEventKind::Respawned { .. }))
            .collect();
        assert_eq!(kills.len(), 1);
        assert_eq!(respawns.len(), 1);
        assert_eq!(kills[0].pid, ProcessId(1));
        assert_eq!(kills[0].kind, crate::HwEventKind::Killed { crashes: 1 });
        assert_eq!(respawns[0].pid, ProcessId(1));
        assert_eq!(
            respawns[0].kind,
            crate::HwEventKind::Respawned { respawns_left: 0 }
        );
        assert!(
            kills[0].at < respawns[0].at,
            "kill ({}) precedes recovery ({})",
            kills[0].at,
            respawns[0].at
        );
    }

    #[test]
    fn respawn_exhaustion_escalates_as_a_structured_error() {
        use llsc_shmem::{CrashPlan, RecoverySpec};

        let alg = six_lls();
        let mem = HwMemory::for_algorithm(&alg, 2, Arc::new(SeededTosses::new(1)));
        // Budget 0: no respawn allowance at all, so p0's first kill
        // exhausts the loop and aborts the trial.
        let plan = CrashPlan::at([(ProcessId(0), 0)]);
        let recovery = RecoverySpec {
            delay: 1,
            budget: 0,
        };
        let err =
            run_threads_supervised(&alg, &mem, 1_000, Duration::from_secs(60), &plan, recovery)
                .unwrap_err();
        assert_eq!(
            err,
            HwRunError::RespawnExhausted {
                pid: ProcessId(0),
                crashes: 1
            }
        );
        // The kill still made it into the history before the escalation.
        assert!(mem
            .take_events()
            .iter()
            .any(|e| e.pid == ProcessId(0) && matches!(e.kind, crate::HwEventKind::Killed { .. })));
    }

    #[test]
    fn a_panicking_thread_aborts_stuck_peers_instead_of_waiting_for_the_watchdog() {
        // p0 spins forever, p1 panics immediately. Without the
        // cancel-on-panic guard, p0 would spin until the 60s deadline
        // and the report would be WatchdogTimeout; the dying thread
        // cancels the run's token and the panic is reported in moments.
        let alg = FnAlgorithm::new("spin-or-panic", |pid: ProcessId, _n| {
            assert!(pid.0 != 1, "injected panic in p1");
            fix(|(), again| ll(RegisterId(0), move |_| again.call(())), ()).into_program()
        });
        let mem = HwMemory::for_algorithm(&alg, 2, Arc::new(SeededTosses::new(1)));
        let started = Instant::now();
        match run_threads_watchdog(&alg, &mem, u64::MAX, Duration::from_secs(60)) {
            Err(HwRunError::ThreadPanic { pid, message }) => {
                assert_eq!(pid, ProcessId(1));
                assert!(message.contains("injected panic in p1"), "{message}");
            }
            other => panic!("expected ThreadPanic, got {other:?}"),
        }
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "the panic must not be masked until the watchdog deadline"
        );
    }

    #[test]
    fn errors_render_for_harness_reports() {
        let panic = HwRunError::ThreadPanic {
            pid: ProcessId(3),
            message: "boom".into(),
        };
        assert!(panic.to_string().contains("panicked: boom"));
        let wedged = HwRunError::WatchdogTimeout {
            timeout: Duration::from_secs(2),
            stuck: vec![ProcessId(0), ProcessId(2)],
        };
        let rendered = wedged.to_string();
        assert!(rendered.contains("watchdog fired"), "{rendered}");
        assert!(rendered.contains("never returned"), "{rendered}");
        let diverged: HwRunError = RunError::DivergedLocalBurst { pid: ProcessId(1) }.into();
        assert!(diverged.to_string().contains("diverged"));
        let exhausted = HwRunError::RespawnExhausted {
            pid: ProcessId(2),
            crashes: 3,
        };
        let rendered = exhausted.to_string();
        assert!(rendered.contains("respawn budget exhausted"), "{rendered}");
        assert!(rendered.contains("3 crash(es)"), "{rendered}");
    }
}
