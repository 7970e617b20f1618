//! Simulator ⇄ hardware cross-validation (the `llsc xcheck` harness)
//! and experiment E18 (real-contention throughput, `BENCH_pr6.json`).
//!
//! The deterministic simulator and the CAS-based hardware backend
//! (`llsc-atomics`) execute the *same* [`Algorithm`] programs; this
//! module checks that they agree where the model says they must:
//!
//! * **Safety** — every hardware history must be valid. For a universal
//!   construction, the per-process `(invoked_at, responded_at)` clock
//!   stamps recorded by the thread driver yield a concurrent history
//!   that must linearize against the sequential specification
//!   ([`llsc_objects::is_linearizable`]). For a wakeup algorithm, all
//!   processes must terminate with 0/1, someone must return 1, and no
//!   winner may respond before every process has taken its first step.
//! * **Cost** — per-process shared-access counts must land inside an
//!   envelope derived from simulator sweeps over sequential,
//!   round-robin, and seeded-random schedules: at least the cheapest
//!   simulated schedule, at most `2 · max + 2`. The slack is principled:
//!   OS preemption can realize adversarial interleavings the sampled
//!   schedules miss, and LL/SC retry loops pay ~2× under a lost race,
//!   but an unbounded blow-up (or an impossibly cheap run) means the
//!   backends disagree about the algorithm, not the scheduler.
//!
//! E18 then times both backends on the same workloads — a wakeup
//! algorithm and a universal construction — at several process counts.
//! On a single-core host the hardware numbers measure synchronization
//! *overhead*, not scaling; see EXPERIMENTS.md.

use llsc_atomics::{
    run_threads_supervised, run_threads_watchdog, HwEventKind, HwMemory, HwRun, HwRunError,
};
use llsc_objects::{is_linearizable, History, ObjectSpec};
use llsc_shmem::repro::{execute as execute_sim_case, ReproCase, ScheduleSpec, TossSpec};
use llsc_shmem::{
    Algorithm, ChaosPlan, CrashPlan, ExecutionBackend, Executor, ExecutorConfig, FaultPlan,
    ProcessId, RandomScheduler, RecoverySpec, RoundRobinScheduler, RunError, RunOutcome, Scheduler,
    SeededTosses, SequentialScheduler, Value,
};
use llsc_universal::{ImplAlgorithm, ObjectImplementation};
use llsc_wakeup::check_mutex_tokens;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Wall-clock deadline for one hardware trial: generous against slow CI
/// hosts, tiny against a CI job-level kill. A wedged trial (livelock
/// under a huge `max_steps` budget, an OS-starved thread that never
/// runs) fails cleanly with [`HwRunError::WatchdogTimeout`] instead of
/// hanging the harness — the hardware mirror of the simulator sweeps'
/// `--trial-timeout-ms`.
const HW_TRIAL_DEADLINE: Duration = Duration::from_secs(60);

/// Why a cross-validation (or E18 case) was inconclusive: one of the two
/// backends failed to produce a run. Distinct from a `FAIL` report,
/// which is a *conclusive* disagreement between backends.
#[derive(Clone, Debug, PartialEq)]
pub enum XcheckError {
    /// The simulator side failed (budget exhaustion, divergence).
    Sim(RunError),
    /// The hardware side failed (divergence, a panicked process thread,
    /// or the trial watchdog).
    Hw(HwRunError),
}

impl fmt::Display for XcheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XcheckError::Sim(e) => write!(f, "simulator backend: {e}"),
            XcheckError::Hw(e) => write!(f, "hardware backend: {e}"),
        }
    }
}

impl std::error::Error for XcheckError {}

impl From<RunError> for XcheckError {
    fn from(e: RunError) -> XcheckError {
        XcheckError::Sim(e)
    }
}

impl From<HwRunError> for XcheckError {
    fn from(e: HwRunError) -> XcheckError {
        XcheckError::Hw(e)
    }
}

/// Limits and trial counts for one cross-validation.
#[derive(Clone, Debug)]
pub struct XcheckConfig {
    /// Number of processes.
    pub n: usize,
    /// Hardware trials (each with a distinct toss seed).
    pub trials: usize,
    /// Seeds for the simulator's random-interleaving schedules (the
    /// sequential and round-robin schedules always contribute).
    pub sim_seeds: Vec<u64>,
    /// Per-process action budget before a run is declared divergent.
    pub max_steps: u64,
    /// Whether shared-access counts must land inside the simulator
    /// envelope for the check to pass. Disable for algorithms whose
    /// counts are inherently schedule-dependent — a polling construction
    /// (a parked follower in the adt tree spins until its combiner
    /// serves it) does unboundedly many accesses under an unfair OS
    /// schedule, so only its *safety* is comparable across backends;
    /// the counts are still measured and reported as advisory.
    pub check_envelope: bool,
}

impl Default for XcheckConfig {
    fn default() -> Self {
        XcheckConfig {
            n: 4,
            trials: 8,
            sim_seeds: vec![1, 2, 3],
            max_steps: 1_000_000,
            check_envelope: true,
        }
    }
}

/// One hardware trial's verdict.
#[derive(Clone, Debug)]
pub struct XcheckTrial {
    /// Toss seed the trial ran under.
    pub seed: u64,
    /// Worst per-process shared-access count of the trial.
    pub max_ops: u64,
    /// Worst per-process DSM RMR count of the trial (remoteness is
    /// history-free — `home(R) = R mod n` — so both backends bill it
    /// identically per access; see [`llsc_shmem::dsm_cost`]).
    pub max_dsm_rmrs: u64,
    /// Whether the trial's history passed the safety check
    /// (linearizability, or wakeup validity).
    pub safe: bool,
    /// Whether `max_ops` landed inside the simulator envelope.
    pub in_envelope: bool,
    /// Whether `max_dsm_rmrs` landed inside the simulator DSM envelope.
    pub in_dsm_envelope: bool,
}

/// The outcome of one simulator ⇄ hardware cross-validation.
#[derive(Clone, Debug)]
pub struct XcheckReport {
    /// What was checked (algorithm or implementation name).
    pub subject: String,
    /// `"wakeup"` or `"universal"`.
    pub kind: &'static str,
    /// Number of processes.
    pub n: usize,
    /// `(min, max)` of the worst per-process count over the simulator
    /// schedules.
    pub sim_envelope: (u64, u64),
    /// The acceptance interval derived from the envelope.
    pub accept: (u64, u64),
    /// `(min, max)` of the worst per-process DSM RMR count over the
    /// simulator schedules.
    pub sim_dsm_envelope: (u64, u64),
    /// The acceptance interval derived from the DSM envelope.
    pub dsm_accept: (u64, u64),
    /// Per-trial hardware verdicts.
    pub trials: Vec<XcheckTrial>,
    /// Whether the envelope verdicts counted toward `ok` (false in
    /// safety-only mode; counts are then advisory).
    pub envelope_checked: bool,
    /// True iff every trial was safe and — when the envelope is
    /// checked — inside the envelope.
    pub ok: bool,
}

impl XcheckReport {
    fn finish(
        subject: String,
        kind: &'static str,
        n: usize,
        sim_envelope: (u64, u64),
        sim_dsm_envelope: (u64, u64),
        trials: Vec<XcheckTrial>,
        envelope_checked: bool,
    ) -> XcheckReport {
        let ok = trials
            .iter()
            .all(|t| t.safe && (!envelope_checked || (t.in_envelope && t.in_dsm_envelope)));
        XcheckReport {
            subject,
            kind,
            n,
            sim_envelope,
            accept: accept_interval(sim_envelope),
            sim_dsm_envelope,
            dsm_accept: accept_interval(sim_dsm_envelope),
            trials,
            envelope_checked,
            ok,
        }
    }

    /// A compact human-readable rendering, one line per trial.
    pub fn render(&self) -> String {
        let mut out = format!(
            "xcheck {kind} {subject}: n={n} sim envelope [{lo}, {hi}] accept [{alo}, {ahi}] dsm [{dlo}, {dhi}] accept [{dalo}, {dahi}]{mode}\n",
            kind = self.kind,
            subject = self.subject,
            n = self.n,
            lo = self.sim_envelope.0,
            hi = self.sim_envelope.1,
            alo = self.accept.0,
            ahi = self.accept.1,
            dlo = self.sim_dsm_envelope.0,
            dhi = self.sim_dsm_envelope.1,
            dalo = self.dsm_accept.0,
            dahi = self.dsm_accept.1,
            mode = if self.envelope_checked {
                ""
            } else {
                " (safety only; counts advisory)"
            },
        );
        for t in &self.trials {
            out.push_str(&format!(
                "  trial seed={seed:<4} max_ops={ops:<6} dsm_rmrs={dsm:<6} safe={safe} in_envelope={env} in_dsm_envelope={denv}\n",
                seed = t.seed,
                ops = t.max_ops,
                dsm = t.max_dsm_rmrs,
                safe = t.safe,
                env = t.in_envelope,
                denv = t.in_dsm_envelope,
            ));
        }
        out.push_str(if self.ok { "  PASS\n" } else { "  FAIL\n" });
        out
    }
}

fn accept_interval((lo, hi): (u64, u64)) -> (u64, u64) {
    (lo, 2 * hi + 2)
}

/// The simulator schedules that contribute to the envelope.
fn sim_schedules(seeds: &[u64]) -> Vec<Box<dyn Scheduler>> {
    let mut scheds: Vec<Box<dyn Scheduler>> = vec![
        Box::new(SequentialScheduler::new()),
        Box::new(RoundRobinScheduler::new()),
    ];
    for &seed in seeds {
        scheds.push(Box::new(RandomScheduler::new(seed)));
    }
    scheds
}

/// Worst per-process (shared-access, DSM RMR) counts of one simulated
/// run.
fn sim_max_costs(
    alg: &dyn Algorithm,
    n: usize,
    toss_seed: u64,
    sched: &mut dyn Scheduler,
    max_steps: u64,
) -> Result<(u64, u64), RunError> {
    let mut exec = Executor::new(
        alg,
        n,
        Arc::new(SeededTosses::new(toss_seed)),
        ExecutorConfig::lightweight(),
    );
    exec.drive(sched, max_steps)?;
    exec.run_outcome().into_result()?;
    let run = exec.into_run();
    let ops = ProcessId::all(n)
        .map(|p| run.shared_steps(p))
        .max()
        .unwrap_or(0);
    let dsm = ProcessId::all(n)
        .map(|p| run.dsm_rmrs(p))
        .max()
        .unwrap_or(0);
    Ok((ops, dsm))
}

/// The `(min, max)` simulator envelopes for the two comparable cost
/// measures: worst per-process shared accesses and worst per-process
/// DSM RMRs. (CC RMRs depend on coherence history the hardware cannot
/// observe, so they are not cross-checked.)
struct SimEnvelopes {
    ops: (u64, u64),
    dsm: (u64, u64),
}

/// The `(min, max)` worst-case count over the envelope schedules that
/// complete. Some algorithms are only live under fair schedulers — a
/// parked follower in a combining tree polls forever under the strict
/// sequential schedule (a documented fairness requirement, not a bug) —
/// so a schedule that exhausts its budget is dropped from the envelope
/// rather than failing the check. At least one schedule must complete;
/// if none does, the last error is reported.
fn sim_envelope(
    alg: &dyn Algorithm,
    cfg: &XcheckConfig,
    toss_seed: u64,
) -> Result<SimEnvelopes, RunError> {
    let mut ops = (u64::MAX, 0);
    let mut dsm = (u64::MAX, 0);
    let mut completed = false;
    let mut last_err = None;
    for mut sched in sim_schedules(&cfg.sim_seeds) {
        match sim_max_costs(alg, cfg.n, toss_seed, sched.as_mut(), cfg.max_steps) {
            Ok((max_ops, max_dsm)) => {
                ops = (ops.0.min(max_ops), ops.1.max(max_ops));
                dsm = (dsm.0.min(max_dsm), dsm.1.max(max_dsm));
                completed = true;
            }
            Err(e) => last_err = Some(e),
        }
    }
    if completed {
        Ok(SimEnvelopes { ops, dsm })
    } else {
        Err(last_err.expect("at least one schedule ran"))
    }
}

fn hw_trial(alg: &dyn Algorithm, n: usize, seed: u64, max_steps: u64) -> Result<HwRun, HwRunError> {
    let mem = HwMemory::for_algorithm(alg, n, Arc::new(SeededTosses::new(seed)));
    run_threads_watchdog(alg, &mem, max_steps, HW_TRIAL_DEADLINE)
}

/// Wakeup validity on hardware: everyone terminates with 0/1, someone
/// returns 1, and no winner's response is stamped before some process's
/// first step (the paper's "only after every process has taken a step",
/// checked on the driver's real-time-consistent logical clock).
fn wakeup_run_valid(run: &HwRun) -> bool {
    let mut winners = 0usize;
    let latest_first_step = run
        .results
        .iter()
        .map(|r| r.first_step_at.unwrap_or(r.responded_at))
        .max()
        .unwrap_or(0);
    for r in &run.results {
        match r.response.as_int() {
            Some(0) => {}
            Some(1) => {
                winners += 1;
                if r.responded_at < latest_first_step {
                    return false;
                }
            }
            _ => return false,
        }
    }
    winners >= 1
}

/// Cross-validates a wakeup algorithm: simulator envelopes (shared
/// accesses and DSM RMRs) vs hardware trials, hardware runs checked for
/// wakeup validity.
///
/// # Errors
///
/// Returns the first [`XcheckError`] from either backend (budget
/// exhaustion, divergence, a panicked hardware thread, the trial
/// watchdog) — an error is an inconclusive run, distinct from a `FAIL`
/// report.
pub fn xcheck_wakeup(alg: &dyn Algorithm, cfg: &XcheckConfig) -> Result<XcheckReport, XcheckError> {
    let envelopes = sim_envelope(alg, cfg, 1)?;
    let accept = accept_interval(envelopes.ops);
    let dsm_accept = accept_interval(envelopes.dsm);
    let mut trials = Vec::with_capacity(cfg.trials);
    for trial in 0..cfg.trials {
        let seed = trial as u64 + 1;
        let run = hw_trial(alg, cfg.n, seed, cfg.max_steps)?;
        let max_ops = run.max_ops();
        let max_dsm_rmrs = run.max_dsm_rmrs();
        trials.push(XcheckTrial {
            seed,
            max_ops,
            max_dsm_rmrs,
            safe: wakeup_run_valid(&run),
            in_envelope: (accept.0..=accept.1).contains(&max_ops),
            in_dsm_envelope: (dsm_accept.0..=dsm_accept.1).contains(&max_dsm_rmrs),
        });
    }
    Ok(XcheckReport::finish(
        alg.name().to_string(),
        "wakeup",
        cfg.n,
        envelopes.ops,
        envelopes.dsm,
        trials,
        cfg.check_envelope,
    ))
}

/// Builds the concurrent history of one hardware run from the driver's
/// clock stamps: operations invoke and respond in stamp order, which is
/// consistent with real time because stamps come from one `SeqCst`
/// counter.
fn hw_history(run: &HwRun, ops: &[Value]) -> History {
    let mut events: Vec<(u64, usize, bool)> = Vec::with_capacity(2 * run.results.len());
    for r in &run.results {
        events.push((r.invoked_at, r.pid.0, true));
        events.push((r.responded_at, r.pid.0, false));
    }
    events.sort_unstable();
    let mut h = History::new();
    let mut ids = vec![None; run.results.len()];
    for (_, pid, is_invoke) in events {
        if is_invoke {
            ids[pid] = Some(h.invoke(ProcessId(pid), ops[pid].clone()));
        } else {
            let id = ids[pid].expect("respond stamp after invoke stamp");
            h.respond(id, run.results[pid].response.clone());
        }
    }
    h
}

/// Cross-validates a universal construction: the simulator envelopes
/// come from running [`ImplAlgorithm`] under the standard schedules;
/// every hardware trial's stamped history must linearize against `spec`.
///
/// # Errors
///
/// Returns the first [`XcheckError`] from either backend.
///
/// # Panics
///
/// Panics if `ops.len() != cfg.n`.
pub fn xcheck_universal(
    imp: &dyn ObjectImplementation,
    spec: &dyn ObjectSpec,
    ops: &[Value],
    cfg: &XcheckConfig,
) -> Result<XcheckReport, XcheckError> {
    assert_eq!(ops.len(), cfg.n, "one operation per process");
    let alg = ImplAlgorithm::new(imp, ops);
    let envelopes = sim_envelope(&alg, cfg, 1)?;
    let accept = accept_interval(envelopes.ops);
    let dsm_accept = accept_interval(envelopes.dsm);
    let mut trials = Vec::with_capacity(cfg.trials);
    for trial in 0..cfg.trials {
        let seed = trial as u64 + 1;
        let run = hw_trial(&alg, cfg.n, seed, cfg.max_steps)?;
        let max_ops = run.max_ops();
        let max_dsm_rmrs = run.max_dsm_rmrs();
        let history = hw_history(&run, ops);
        trials.push(XcheckTrial {
            seed,
            max_ops,
            max_dsm_rmrs,
            safe: is_linearizable(spec, &history),
            in_envelope: (accept.0..=accept.1).contains(&max_ops),
            in_dsm_envelope: (dsm_accept.0..=dsm_accept.1).contains(&max_dsm_rmrs),
        });
    }
    Ok(XcheckReport::finish(
        imp.name(),
        "universal",
        cfg.n,
        envelopes.ops,
        envelopes.dsm,
        trials,
        cfg.check_envelope,
    ))
}

/// Event budget the simulator side of a chaos cross-validation runs
/// under (the harness's standard budget).
const CHAOS_SIM_MAX_EVENTS: u64 = 2_000_000;

/// One chaos trial's verdict: the hardware backend under the full fault
/// stack (injected SC failures, register corruption, and — for
/// crash-recoverable algorithms — killed and respawned threads).
#[derive(Clone, Debug)]
pub struct ChaosTrial {
    /// Chaos seed the trial's plan derives from (also the toss seed).
    pub seed: u64,
    /// Degradation class, in the shared E16/E17/E19 vocabulary
    /// (`recovered`, `detected-wrong`, `silent-wrong`, `stalled`,
    /// `aborted`, `respawn-exhausted`, `panic`).
    pub class: String,
    /// Worst per-process shared-access count (0 when the run errored).
    pub max_ops: u64,
    /// Worst per-process DSM RMR count (0 when the run errored).
    pub max_dsm_rmrs: u64,
    /// Spurious SC failures actually delivered by the fault layer.
    pub spurious_sc: u64,
    /// Register corruptions actually delivered by the fault layer.
    pub corruptions: u64,
    /// Thread kills delivered by the crash supervisor.
    pub crashes: u64,
    /// Respawns granted by the crash supervisor.
    pub respawns: u64,
    /// Detections published to the hardened telemetry registers.
    pub detected: u64,
    /// Whether `max_ops` landed inside the fault-widened envelope
    /// (vacuously true for trials that did not complete).
    pub in_envelope: bool,
    /// Whether `max_dsm_rmrs` landed inside the fault-widened DSM
    /// envelope (vacuously true for trials that did not complete).
    pub in_dsm_envelope: bool,
    /// A replayable case attached to every non-benign trial: its
    /// schedule is [`ScheduleSpec::Hardware`] (the OS interleaving is
    /// gone), so `llsc replay` re-runs the same faults, crashes, and
    /// tosses on the simulator backend for triage.
    pub repro: Option<ReproCase>,
}

/// The outcome of one chaos cross-validation: the simulator's
/// fault-widened cost envelopes vs hardware trials under the same
/// seeded [`ChaosPlan`]s.
#[derive(Clone, Debug)]
pub struct ChaosReport {
    /// The algorithm under test.
    pub subject: String,
    /// Number of processes.
    pub n: usize,
    /// Fault intensity of every trial's chaos plan.
    pub intensity: usize,
    /// The recovery regime (None = memory faults only, no crash layer).
    pub recovery: Option<RecoverySpec>,
    /// `(min, max)` worst per-process shared accesses over the clean
    /// *and* faulted simulator runs.
    pub sim_envelope: (u64, u64),
    /// The acceptance interval derived from the widened envelope.
    pub accept: (u64, u64),
    /// `(min, max)` worst per-process DSM RMRs over the clean and
    /// faulted simulator runs.
    pub sim_dsm_envelope: (u64, u64),
    /// The acceptance interval derived from the widened DSM envelope.
    pub dsm_accept: (u64, u64),
    /// Per-trial verdicts.
    pub trials: Vec<ChaosTrial>,
    /// Whether envelope verdicts counted toward `ok`.
    pub envelope_checked: bool,
    /// Trials whose class was `silent-wrong` or `panic` — the classes a
    /// hardened or recoverable algorithm must never produce.
    pub silent_wrong: usize,
    /// True iff no trial went silently wrong (or panicked) and — when
    /// the envelope is checked — every completing trial landed inside
    /// the fault-widened envelopes.
    pub ok: bool,
}

impl ChaosReport {
    /// A compact human-readable rendering, one line per trial.
    pub fn render(&self) -> String {
        let recovery = match self.recovery {
            Some(r) => format!(" recovery delay={} budget={}", r.delay, r.budget),
            None => String::new(),
        };
        let mut out = format!(
            "xcheck chaos {subject}: n={n} intensity={intensity}{recovery} accept [{alo}, {ahi}] dsm accept [{dalo}, {dahi}]{mode}\n",
            subject = self.subject,
            n = self.n,
            intensity = self.intensity,
            alo = self.accept.0,
            ahi = self.accept.1,
            dalo = self.dsm_accept.0,
            dahi = self.dsm_accept.1,
            mode = if self.envelope_checked {
                ""
            } else {
                " (safety only; counts advisory)"
            },
        );
        for t in &self.trials {
            out.push_str(&format!(
                "  trial seed={seed:<4} class={class:<17} ops={ops:<6} dsm={dsm:<6} sc_fails={sc} corruptions={co} crashes={cr} respawns={re} detected={de} in_envelope={env}/{denv}\n",
                seed = t.seed,
                class = t.class,
                ops = t.max_ops,
                dsm = t.max_dsm_rmrs,
                sc = t.spurious_sc,
                co = t.corruptions,
                cr = t.crashes,
                re = t.respawns,
                de = t.detected,
                env = t.in_envelope,
                denv = t.in_dsm_envelope,
            ));
        }
        out.push_str(if self.ok { "  PASS\n" } else { "  FAIL\n" });
        out
    }
}

/// Classifies a hardware run error into the degradation vocabulary.
fn hw_error_class(e: &HwRunError) -> &'static str {
    match e {
        HwRunError::Run(RunError::DivergedLocalBurst { .. }) => "aborted",
        HwRunError::Run(_) => "stalled",
        HwRunError::ThreadPanic { .. } => "panic",
        HwRunError::WatchdogTimeout { .. } => "stalled",
        HwRunError::RespawnExhausted { .. } => "respawn-exhausted",
    }
}

/// Safety of one completed chaos run: token distinctness for the
/// recoverable mutex (its verdicts are tokens, not wakeup bits), wakeup
/// validity for everything else.
fn chaos_run_safe(alg_name: &str, run: &HwRun, n: usize) -> bool {
    if alg_name == "recoverable-mutex" {
        let responses = run.responses();
        check_mutex_tokens(responses.iter().map(Some), n).is_ok()
    } else {
        wakeup_run_valid(run)
    }
}

/// Detections published to the hardened telemetry registers, read off
/// the hardware memory exactly as the simulator experiments read their
/// executor ([`crate::repro::run_case_with`]).
fn hw_detected(mem: &HwMemory, n: usize) -> u64 {
    (0..n)
        .map(ProcessId)
        .map(|p| {
            let wakeup = mem.peek(llsc_wakeup::hardened_detect_reg(p));
            let universal = mem.peek(llsc_universal::hardened_detect_reg(p));
            wakeup.as_int().unwrap_or(0).max(0) as u64
                + universal.as_int().unwrap_or(0).max(0) as u64
        })
        .sum()
}

/// Tailors a [`ChaosPlan`] to an adversary arm, per the backend ×
/// adversary capability matrix (see README "Fault model"):
///
/// * `Some` recovery — the **crash-recovery arm** for the
///   crash-recoverable family: keeps the crash layer and the
///   (universally tolerable) spurious SC failures, strips register
///   corruption, which recoverable algorithms cannot detect.
/// * `None` — the **memory-fault arm** for the hardened family: keeps
///   the full fault layer (spurious SC + corruption), strips the crash
///   layer, which detection-only algorithms cannot survive restarting
///   from.
///
/// Returns the `(crashes, faults)` the trial actually arms; E20 and
/// [`xcheck_chaos`] share this tailoring so their verdicts agree.
pub fn chaos_arm(chaos: &ChaosPlan, recovery: Option<RecoverySpec>) -> (CrashPlan, FaultPlan) {
    if recovery.is_some() {
        let f = chaos.faults();
        (
            chaos.crashes().clone(),
            FaultPlan::at(f.spurious().to_vec(), [], f.value_seed()),
        )
    } else {
        (CrashPlan::none(), chaos.faults().clone())
    }
}

/// Packages a failed hardware chaos trial as a replayable case: the
/// plan's faults, crashes, and tosses survive verbatim; the schedule
/// becomes [`ScheduleSpec::Hardware`] because the OS-chosen
/// interleaving cannot be replayed — `llsc replay` re-runs the case on
/// the simulator under the deterministic round-robin stand-in.
fn chaos_failure_case(case: &ReproCase, class: &str, outcome: String) -> ReproCase {
    ReproCase {
        schedule: ScheduleSpec::Hardware,
        outcome,
        class: class.to_string(),
        ..case.clone()
    }
}

/// One hardware chaos execution's classified result, shared between
/// [`xcheck_chaos`] and `bench_e20`.
#[derive(Clone, Debug)]
pub struct HwChaosRun {
    /// Degradation class (shared vocabulary; see [`ChaosTrial::class`]).
    pub class: &'static str,
    /// Whether the run completed (per-process costs are meaningful).
    pub completed: bool,
    /// Worst per-process shared-access count (0 when not completed).
    pub max_ops: u64,
    /// Worst per-process DSM RMR count (0 when not completed).
    pub max_dsm_rmrs: u64,
    /// Spurious SC failures delivered.
    pub spurious_sc: u64,
    /// Register corruptions delivered.
    pub corruptions: u64,
    /// Thread kills delivered by the crash supervisor.
    pub crashes: u64,
    /// Respawns granted by the crash supervisor.
    pub respawns: u64,
    /// Detections published to the hardened telemetry registers.
    pub detected: u64,
    /// The run's outcome rendered for artifacts (`"HwCompleted"` or the
    /// error's display form).
    pub outcome_text: String,
}

/// Runs one chaos trial on the hardware backend: arms `faults` on the
/// memory, drives the threads (under the crash supervisor when
/// `recovery` is set), and classifies the result off the history, the
/// fault-layer stats, and the hardened telemetry registers.
pub fn run_hw_chaos(
    alg: &dyn Algorithm,
    n: usize,
    seed: u64,
    faults: &FaultPlan,
    crashes: &CrashPlan,
    recovery: Option<RecoverySpec>,
    max_steps: u64,
) -> HwChaosRun {
    let mem =
        HwMemory::for_algorithm(alg, n, Arc::new(SeededTosses::new(seed))).with_faults(faults);
    let outcome = match recovery {
        Some(spec) => {
            run_threads_supervised(alg, &mem, max_steps, HW_TRIAL_DEADLINE, crashes, spec)
        }
        None => run_threads_watchdog(alg, &mem, max_steps, HW_TRIAL_DEADLINE),
    };
    let stats = mem.fault_stats();
    let detected = hw_detected(&mem, n);
    let events = mem.take_events();
    let kills = events
        .iter()
        .filter(|e| matches!(e.kind, HwEventKind::Killed { .. }))
        .count() as u64;
    let respawns = events
        .iter()
        .filter(|e| matches!(e.kind, HwEventKind::Respawned { .. }))
        .count() as u64;
    let (class, max_ops, max_dsm_rmrs, completed, outcome_text) = match &outcome {
        Ok(run) => {
            let safe = chaos_run_safe(alg.name(), run, n);
            let class = if safe {
                "recovered"
            } else if detected > 0 {
                "detected-wrong"
            } else {
                "silent-wrong"
            };
            (
                class,
                run.max_ops(),
                run.max_dsm_rmrs(),
                true,
                "HwCompleted".to_string(),
            )
        }
        Err(e) => (hw_error_class(e), 0, 0, false, e.to_string()),
    };
    HwChaosRun {
        class,
        completed,
        max_ops,
        max_dsm_rmrs,
        spurious_sc: stats.spurious_sc,
        corruptions: stats.corruptions,
        crashes: kills,
        respawns,
        detected,
        outcome_text,
    }
}

/// Cross-validates an algorithm under chaos: every hardware trial runs
/// the full fault stack from a seeded [`ChaosPlan`] (trial seeds
/// `1..=trials`), and must degrade *gracefully* — linearize into the
/// wakeup (or mutex-token) specification, or publish a detection; a
/// `silent-wrong` trial fails the check. Cost envelopes are widened by
/// the simulator's faulted runs: each trial's plan is also executed on
/// the simulator (adversarial random schedule, same faults, crashes
/// recovered under the same regime) and the clean envelope absorbs the
/// faulted costs before the usual `2·max + 2` slack applies.
///
/// `recovery` selects the adversary arm by algorithm capability:
///
/// * `Some` — the crash-recovery arm, for the crash-*recoverable*
///   family: the plan's crash layer kills and respawns real threads,
///   and the memory-fault layer keeps its spurious SC failures (every
///   weak-LL/SC client must tolerate those) but drops register
///   corruption — recoverable algorithms carry no corruption-detection
///   telemetry, so injected corruption would class as `silent-wrong`
///   by construction, on the simulator exactly as on hardware.
/// * `None` — the memory-fault arm, for the hardened (detection-only)
///   family: the full fault layer (spurious SC + corruption) is armed
///   and the crash layer is dropped — a hardened algorithm restarted
///   from scratch re-executes its one-shot increments, which breaks
///   its semantics on both backends.
///
/// # Errors
///
/// Returns an [`XcheckError`] only when the *simulator* side cannot
/// establish a clean envelope; hardware-side failures are conclusive
/// per-trial verdicts, not errors.
pub fn xcheck_chaos(
    alg: &dyn Algorithm,
    cfg: &XcheckConfig,
    intensity: usize,
    recovery: Option<RecoverySpec>,
) -> Result<ChaosReport, XcheckError> {
    let n = cfg.n;
    let window = 8 * n as u64;
    let clean = sim_envelope(alg, cfg, 1)?;
    let mut ops_env = clean.ops;
    let mut dsm_env = clean.dsm;

    // Build every trial's plan and widen the envelope with its simulated
    // execution before any hardware runs.
    let mut planned = Vec::with_capacity(cfg.trials);
    for trial in 0..cfg.trials {
        let seed = trial as u64 + 1;
        let chaos = ChaosPlan::seeded(seed, n, intensity, window);
        let (crashes, faults) = chaos_arm(&chaos, recovery);
        let mut case = chaos.to_case(
            "xcheck-chaos",
            alg.name(),
            n,
            TossSpec::Seeded(seed),
            CHAOS_SIM_MAX_EVENTS,
            cfg.max_steps,
        );
        case.crashes = crashes.clone();
        case.faults = faults.clone();
        case.recovery = recovery;
        let replayed = execute_sim_case(&case, alg);
        if matches!(
            replayed.outcome,
            RunOutcome::Completed | RunOutcome::FaultInjected { .. }
        ) {
            let run = replayed.exec.run();
            let ops = ProcessId::all(n)
                .map(|p| run.shared_steps(p))
                .max()
                .unwrap_or(0);
            let dsm = ProcessId::all(n)
                .map(|p| run.dsm_rmrs(p))
                .max()
                .unwrap_or(0);
            ops_env = (ops_env.0.min(ops), ops_env.1.max(ops));
            dsm_env = (dsm_env.0.min(dsm), dsm_env.1.max(dsm));
        }
        planned.push((seed, faults, crashes, case));
    }
    let accept = accept_interval(ops_env);
    let dsm_accept = accept_interval(dsm_env);

    let mut trials = Vec::with_capacity(cfg.trials);
    for (seed, faults, crashes, case) in planned {
        let run = run_hw_chaos(alg, n, seed, &faults, &crashes, recovery, cfg.max_steps);
        let in_envelope = !run.completed || (accept.0..=accept.1).contains(&run.max_ops);
        let in_dsm_envelope =
            !run.completed || (dsm_accept.0..=dsm_accept.1).contains(&run.max_dsm_rmrs);
        let benign = matches!(run.class, "recovered" | "detected-wrong");
        let repro = if benign {
            None
        } else {
            Some(chaos_failure_case(
                &case,
                run.class,
                run.outcome_text.clone(),
            ))
        };
        trials.push(ChaosTrial {
            seed,
            class: run.class.to_string(),
            max_ops: run.max_ops,
            max_dsm_rmrs: run.max_dsm_rmrs,
            spurious_sc: run.spurious_sc,
            corruptions: run.corruptions,
            crashes: run.crashes,
            respawns: run.respawns,
            detected: run.detected,
            in_envelope,
            in_dsm_envelope,
            repro,
        });
    }
    let silent_wrong = trials
        .iter()
        .filter(|t| t.class == "silent-wrong" || t.class == "panic")
        .count();
    let ok = silent_wrong == 0
        && (!cfg.check_envelope || trials.iter().all(|t| t.in_envelope && t.in_dsm_envelope));
    Ok(ChaosReport {
        subject: alg.name().to_string(),
        n,
        intensity,
        recovery,
        sim_envelope: ops_env,
        accept,
        sim_dsm_envelope: dsm_env,
        dsm_accept,
        trials,
        envelope_checked: cfg.check_envelope,
        silent_wrong,
        ok,
    })
}

/// Which backend an E18 case ran on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BackendKind {
    /// The deterministic simulator (round-robin schedule).
    Sim,
    /// The CAS-based hardware backend, one OS thread per process.
    Atomic,
}

impl BackendKind {
    /// The backend's registry name (`"sim"` / `"atomic"`).
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Sim => "sim",
            BackendKind::Atomic => "atomic",
        }
    }

    /// Parses a `--backend` flag value.
    pub fn parse(s: &str) -> Option<BackendKind> {
        match s {
            "sim" => Some(BackendKind::Sim),
            "atomic" => Some(BackendKind::Atomic),
            _ => None,
        }
    }
}

/// One E18 measurement: a workload on a backend at a process count.
#[derive(Clone, Debug)]
pub struct E18Row {
    /// Workload id (`"wakeup-counter"`, `"universal-direct"`).
    pub workload: &'static str,
    /// Backend the case ran on.
    pub backend: BackendKind,
    /// Number of processes (= OS threads on the atomic backend).
    pub n: usize,
    /// Fastest wall-clock time over the samples, milliseconds.
    pub wall_ms_min: f64,
    /// Mean wall-clock time over the samples, milliseconds.
    pub wall_ms_mean: f64,
    /// Worst per-process shared-access count of the last sample.
    pub max_ops: u64,
    /// Total shared accesses of the last sample.
    pub total_ops: u64,
    /// Total DSM RMRs of the last sample — billed identically per
    /// access on both backends (`home(R) = R mod n`), so the column is
    /// directly comparable across the `sim` and `atomic` rows.
    pub dsm_rmrs: u64,
}

/// Per-sample costs an E18 case reports: worst per-process shared
/// accesses, total shared accesses, total DSM RMRs.
type CaseCosts = (u64, u64, u64);

fn time_samples<F: FnMut() -> Result<CaseCosts, XcheckError>>(
    samples: u32,
    mut f: F,
) -> Result<(f64, f64, CaseCosts), XcheckError> {
    let mut min = f64::INFINITY;
    let mut sum = 0.0;
    let mut last = (0, 0, 0);
    for _ in 0..samples {
        let started = Instant::now();
        last = f()?;
        let ms = started.elapsed().as_secs_f64() * 1e3;
        min = min.min(ms);
        sum += ms;
    }
    Ok((min, sum / f64::from(samples), last))
}

fn run_sim_case(alg: &dyn Algorithm, n: usize, max_steps: u64) -> Result<CaseCosts, XcheckError> {
    let mut sched = RoundRobinScheduler::new();
    let mut exec = Executor::new(
        alg,
        n,
        Arc::new(SeededTosses::new(1)),
        ExecutorConfig::lightweight(),
    );
    exec.drive(&mut sched, max_steps)?;
    exec.run_outcome().into_result()?;
    let run = exec.into_run();
    let per: Vec<u64> = ProcessId::all(n).map(|p| run.shared_steps(p)).collect();
    let dsm: u64 = ProcessId::all(n).map(|p| run.dsm_rmrs(p)).sum();
    Ok((
        per.iter().copied().max().unwrap_or(0),
        per.iter().sum(),
        dsm,
    ))
}

fn run_hw_case(alg: &dyn Algorithm, n: usize, max_steps: u64) -> Result<CaseCosts, XcheckError> {
    let mem = HwMemory::for_algorithm(alg, n, Arc::new(SeededTosses::new(1)));
    // Throughput runs time the memory, not the history log.
    mem.set_recording(false);
    let run = run_threads_watchdog(alg, &mem, max_steps, HW_TRIAL_DEADLINE)?;
    let per: Vec<u64> = run.results.iter().map(|r| r.ops).collect();
    Ok((
        per.iter().copied().max().unwrap_or(0),
        per.iter().sum(),
        run.total_dsm_rmrs(),
    ))
}

/// Runs one E18 case: `alg` on `backend` with `n` processes, timed over
/// `samples` repetitions.
///
/// # Errors
///
/// Returns the [`XcheckError`] of the first failed sample — a diverged
/// or budget-starved run on either backend, a panicked hardware thread,
/// or the hardware trial watchdog. [`e18_bench`] records the failed case
/// and keeps going.
pub fn e18_case(
    workload: &'static str,
    alg: &dyn Algorithm,
    backend: BackendKind,
    n: usize,
    samples: u32,
    max_steps: u64,
) -> Result<E18Row, XcheckError> {
    let (wall_ms_min, wall_ms_mean, (max_ops, total_ops, dsm_rmrs)) = match backend {
        BackendKind::Sim => time_samples(samples, || run_sim_case(alg, n, max_steps))?,
        BackendKind::Atomic => time_samples(samples, || run_hw_case(alg, n, max_steps))?,
    };
    Ok(E18Row {
        workload,
        backend,
        n,
        wall_ms_min,
        wall_ms_mean,
        max_ops,
        total_ops,
        dsm_rmrs,
    })
}

impl fmt::Display for E18Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "e18 {:<16} backend={:<6} n={:<3} min {:>9.3}ms mean {:>9.3}ms max_ops={} total_ops={} dsm_rmrs={}",
            self.workload,
            self.backend.name(),
            self.n,
            self.wall_ms_min,
            self.wall_ms_mean,
            self.max_ops,
            self.total_ops,
            self.dsm_rmrs
        )
    }
}

/// The step cap every E18 case runs under.
pub const E18_MAX_STEPS: u64 = 10_000_000;

/// An E18 case that produced no row.
#[derive(Clone, Debug)]
pub struct E18Failure {
    /// Workload id.
    pub workload: &'static str,
    /// Backend the case ran on.
    pub backend: BackendKind,
    /// Number of processes.
    pub n: usize,
    /// Why the case failed ([`XcheckError`], rendered).
    pub error: String,
}

/// The outcome of an E18 run: every case's row or failure, in run order.
#[derive(Clone, Debug)]
pub struct E18Bench {
    /// Timed repetitions per case.
    pub samples: u32,
    /// The cases that completed.
    pub rows: Vec<E18Row>,
    /// The cases that failed.
    pub failures: Vec<E18Failure>,
}

/// E18: times a wakeup algorithm (`CounterWakeup`) and a universal
/// construction (`DirectLlSc` over fetch&increment) on each backend at
/// each `n`, `samples` times per case, under a `max_steps` cap. A failed
/// case — a diverged run, a panicked hardware thread, the hardware trial
/// watchdog — is recorded and the remaining cases still run.
pub fn e18_bench(backends: &[BackendKind], ns: &[usize], samples: u32, max_steps: u64) -> E18Bench {
    let imp = llsc_universal::DirectLlSc::new(Arc::new(llsc_objects::FetchIncrement::new(64)));
    let (mut rows, mut failures) = (Vec::new(), Vec::new());
    for &backend in backends {
        for &n in ns {
            let ops = vec![llsc_objects::FetchIncrement::op(); n];
            let universal = ImplAlgorithm::new(&imp, &ops);
            let workloads: [(&'static str, &dyn Algorithm); 2] = [
                ("wakeup-counter", &llsc_wakeup::CounterWakeup),
                ("universal-direct", &universal),
            ];
            for (workload, alg) in workloads {
                match e18_case(workload, alg, backend, n, samples, max_steps) {
                    Ok(row) => rows.push(row),
                    Err(e) => failures.push(E18Failure {
                        workload,
                        backend,
                        n,
                        error: e.to_string(),
                    }),
                }
            }
        }
    }
    E18Bench {
        samples,
        rows,
        failures,
    }
}

impl E18Bench {
    /// The run as a `BENCH_pr6.json`-schema artifact: `{"bench":"pr6",
    /// "samples":…,"cases":[…],"failures":[…]}`.
    pub fn render_json(&self) -> String {
        let cases: Vec<String> = self.rows.iter().map(|r| format!(
            "{{\"experiment\":\"e18\",\"workload\":\"{}\",\"backend\":\"{}\",\"n\":{},\"wall_ms_min\":{:.3},\"wall_ms_mean\":{:.3},\"max_ops\":{},\"total_ops\":{},\"dsm_rmrs\":{}}}",
            r.workload, r.backend.name(), r.n, r.wall_ms_min, r.wall_ms_mean, r.max_ops, r.total_ops, r.dsm_rmrs
        )).collect();
        let failures: Vec<String> = self
            .failures
            .iter()
            .map(|f| {
                format!(
                    "{{\"workload\":\"{}\",\"backend\":\"{}\",\"n\":{},\"error\":\"{}\"}}",
                    f.workload,
                    f.backend.name(),
                    f.n,
                    llsc_shmem::json::escape(&f.error)
                )
            })
            .collect();
        format!(
            "{{\"bench\":\"pr6\",\"samples\":{},\"cases\":[{}],\"failures\":[{}]}}\n",
            self.samples,
            cases.join(","),
            failures.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llsc_objects::FetchIncrement;
    use llsc_universal::DirectLlSc;
    use llsc_wakeup::CounterWakeup;

    fn small() -> XcheckConfig {
        XcheckConfig {
            n: 3,
            trials: 3,
            sim_seeds: vec![1, 2],
            max_steps: 100_000,
            check_envelope: true,
        }
    }

    #[test]
    fn safety_only_mode_treats_counts_as_advisory() {
        let out_of_envelope = XcheckTrial {
            seed: 1,
            max_ops: 1_000_000,
            max_dsm_rmrs: 1_000_000,
            safe: true,
            in_envelope: false,
            in_dsm_envelope: false,
        };
        let checked = XcheckReport::finish(
            "x".into(),
            "universal",
            2,
            (1, 2),
            (1, 2),
            vec![out_of_envelope.clone()],
            true,
        );
        assert!(!checked.ok, "envelope miss fails a full check");
        let advisory = XcheckReport::finish(
            "x".into(),
            "universal",
            2,
            (1, 2),
            (1, 2),
            vec![out_of_envelope],
            false,
        );
        assert!(advisory.ok, "safety-only ignores the envelope verdict");
        assert!(advisory.render().contains("safety only"));
        let unsafe_trial = XcheckTrial {
            seed: 1,
            max_ops: 1,
            max_dsm_rmrs: 1,
            safe: false,
            in_envelope: true,
            in_dsm_envelope: true,
        };
        let report = XcheckReport::finish(
            "x".into(),
            "universal",
            2,
            (1, 2),
            (1, 2),
            vec![unsafe_trial],
            false,
        );
        assert!(!report.ok, "safety failures still fail safety-only mode");
    }

    #[test]
    fn dsm_envelope_miss_fails_a_full_check() {
        let trial = XcheckTrial {
            seed: 1,
            max_ops: 2,
            max_dsm_rmrs: 1_000_000,
            safe: true,
            in_envelope: true,
            in_dsm_envelope: false,
        };
        let report =
            XcheckReport::finish("x".into(), "wakeup", 2, (1, 2), (1, 2), vec![trial], true);
        assert!(!report.ok, "a DSM envelope miss is a backend disagreement");
        assert!(report.render().contains("dsm_rmrs="));
    }

    #[test]
    fn wakeup_counter_cross_validates() {
        let report = xcheck_wakeup(&CounterWakeup, &small()).expect("runs complete");
        assert!(report.ok, "{}", report.render());
        assert_eq!(report.trials.len(), 3);
        assert!(report.sim_envelope.0 <= report.sim_envelope.1);
    }

    #[test]
    fn universal_direct_cross_validates() {
        let spec = Arc::new(FetchIncrement::new(32));
        let imp = DirectLlSc::new(spec.clone());
        let ops = vec![FetchIncrement::op(); 3];
        let report = xcheck_universal(&imp, spec.as_ref(), &ops, &small()).expect("runs complete");
        assert!(report.ok, "{}", report.render());
        assert_eq!(report.kind, "universal");
    }

    #[test]
    fn hw_history_respects_stamp_order() {
        let spec = Arc::new(FetchIncrement::new(32));
        let imp = DirectLlSc::new(spec.clone());
        let ops = vec![FetchIncrement::op(); 4];
        let alg = ImplAlgorithm::new(&imp, &ops);
        let run = hw_trial(&alg, 4, 7, 100_000).expect("completes");
        let h = hw_history(&run, &ops);
        assert!(h.is_complete());
        assert_eq!(h.len(), 4);
        assert!(is_linearizable(spec.as_ref(), &h));
    }

    #[test]
    fn e18_case_reports_costs_on_both_backends() {
        for backend in [BackendKind::Sim, BackendKind::Atomic] {
            let row = e18_case("wakeup-counter", &CounterWakeup, backend, 2, 2, 100_000)
                .expect("case completes");
            assert!(row.total_ops > 0, "{:?} counted ops", backend);
            assert!(row.max_ops <= row.total_ops);
            assert!(row.dsm_rmrs > 0, "{:?} billed DSM RMRs", backend);
            assert!(row.wall_ms_min <= row.wall_ms_mean);
        }
    }

    #[test]
    fn e18_bench_records_failed_cases_and_keeps_going() {
        // A one-step cap starves every case; each is recorded, in run order.
        let bench = e18_bench(&[BackendKind::Sim], &[2, 3], 1, 1);
        assert!(bench.rows.is_empty());
        let failed: Vec<String> = bench
            .failures
            .iter()
            .map(|f| format!("{}/{}", f.workload, f.n))
            .collect();
        let expected = ["wakeup-counter/2", "universal-direct/2", "wakeup-counter/3"];
        assert_eq!(failed[..3], expected);
        assert_eq!(failed.len(), 4);
        let json = bench.render_json();
        let head = "{\"bench\":\"pr6\",\"samples\":1,\"cases\":[],\"failures\":[{\"workload\":\"wakeup-counter\",\"backend\":\"sim\",\"n\":2,\"error\":\"simulator backend: ";
        assert!(json.starts_with(head), "{json}");
    }

    #[test]
    fn hardware_panic_is_reported_not_fatal() {
        use llsc_shmem::dsl::done;
        use llsc_shmem::FnAlgorithm;
        let alg = FnAlgorithm::new("hw-panicker", |pid: ProcessId, _n| {
            assert!(pid.0 != 1, "injected panic");
            done(Value::from(1i64)).into_program()
        });
        let err = e18_case("hw-panicker", &alg, BackendKind::Atomic, 2, 1, 1_000)
            .expect_err("the panicking case must fail, not abort");
        assert!(
            matches!(
                err,
                XcheckError::Hw(llsc_atomics::HwRunError::ThreadPanic { .. })
            ),
            "{err:?}"
        );
        assert!(err.to_string().contains("panicked"), "{err}");
    }

    #[test]
    fn hardened_wakeup_degrades_gracefully_under_hw_memory_faults() {
        use llsc_wakeup::HardenedCounterWakeup;
        let report = xcheck_chaos(&HardenedCounterWakeup, &small(), 2, None).expect("sim envelope");
        assert_eq!(report.silent_wrong, 0, "{}", report.render());
        assert!(report.ok, "{}", report.render());
        assert_eq!(report.trials.len(), 3);
        assert!(
            report
                .trials
                .iter()
                .all(|t| t.crashes == 0 && t.respawns == 0),
            "no crash layer without a recovery regime: {}",
            report.render()
        );
        // The fault layer is armed: across the trials something fired.
        assert!(
            report
                .trials
                .iter()
                .any(|t| t.spurious_sc + t.corruptions > 0),
            "{}",
            report.render()
        );
    }

    #[test]
    fn recoverable_wakeup_survives_crash_respawn_chaos() {
        use llsc_wakeup::RecoverableCounterWakeup;
        let spec = RecoverySpec {
            delay: 3,
            budget: 2,
        };
        let report =
            xcheck_chaos(&RecoverableCounterWakeup, &small(), 2, Some(spec)).expect("sim envelope");
        assert_eq!(report.silent_wrong, 0, "{}", report.render());
        for t in &report.trials {
            assert!(
                t.respawns <= t.crashes,
                "each kill grants at most one respawn: {}",
                report.render()
            );
            assert_eq!(
                t.corruptions,
                0,
                "the crash-recovery arm strips corruption: {}",
                report.render()
            );
        }
        // Intensity 2 schedules one victim per trial; at least one trial
        // must actually deliver its kill and the respawn after it.
        assert!(
            report
                .trials
                .iter()
                .any(|t| t.crashes > 0 && t.respawns > 0),
            "{}",
            report.render()
        );
    }

    #[test]
    fn failed_chaos_trials_carry_a_hardware_schedule_repro() {
        let chaos = ChaosPlan::seeded(5, 3, 2, 24);
        let case = chaos.to_case("xcheck-chaos", "x", 3, TossSpec::Seeded(5), 1000, 500);
        let repro = chaos_failure_case(&case, "silent-wrong", "HwCompleted".into());
        assert_eq!(repro.schedule, ScheduleSpec::Hardware);
        assert_eq!(repro.class, "silent-wrong");
        assert_eq!(repro.faults, *chaos.faults());
        assert_eq!(repro.crashes, *chaos.crashes());
        let back = ReproCase::from_json(&repro.to_json()).unwrap();
        assert_eq!(back, repro, "hardware-schedule cases round-trip");
    }

    #[test]
    fn backend_kind_parses_registry_names() {
        assert_eq!(BackendKind::parse("sim"), Some(BackendKind::Sim));
        assert_eq!(BackendKind::parse("atomic"), Some(BackendKind::Atomic));
        assert_eq!(BackendKind::parse("gpu"), None);
        assert_eq!(BackendKind::Atomic.name(), "atomic");
    }
}
