//! Simulator ⇄ hardware cross-validation (the `llsc xcheck` harness),
//! experiment E18 (real-contention throughput, `BENCH_pr6.json`) and
//! E20's cross-backend chaos run (`llsc bench e20`, `BENCH_pr10.json`).
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
//!
//! E20 ([`e20_bench`]) runs each seeded chaos plan on both backends and
//! records the cells whose degradation classes differ. A trial that
//! terminates is classified on either backend by the same three rules
//! ([`crate::repro::completed_class`], [`crate::repro::judge_safe`],
//! [`llsc_universal::hardening::detections`]); only the mapping of a failed
//! run to its class is per backend. A `silent-wrong`, `panic` or
//! `respawn-exhausted` trial is a failure and carries a replayable case.

use crate::experiments::{
    e20_algorithm, e20_arm, e20_case, e20_recovery, E20_ALGORITHMS, E20_MAX_STEPS,
};
use crate::registry::DEFAULT_MAX_EVENTS;
use crate::repro::{completed_class, judge_safe, run_case_with};
use llsc_atomics::{
    run_threads_supervised, run_threads_watchdog, HwEventKind, HwMemory, HwRun, HwRunError,
};
use llsc_objects::{is_linearizable, History, ObjectSpec};
use llsc_shmem::repro::{ReproCase, ScheduleSpec};
use llsc_shmem::{
    json, Algorithm, CrashPlan, ExecutionBackend, Executor, ExecutorConfig, FaultPlan, ProcessId,
    RandomScheduler, RecoverySpec, RoundRobinScheduler, RunError, RunOutcome, Scheduler,
    SeededTosses, SequentialScheduler, Value,
};
use llsc_universal::hardening::detections;
use llsc_universal::{ImplAlgorithm, ObjectImplementation};
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

/// One hardware chaos execution's classified result: a row of
/// `llsc bench e20` ([`e20_bench`]).
#[derive(Clone, Debug)]
pub struct HwChaosRun {
    /// Degradation class, in the shared E16/E17/E19 vocabulary
    /// (`recovered`, `detected-wrong`, `silent-wrong`, `stalled`,
    /// `aborted`, `respawn-exhausted`, `panic`).
    pub class: &'static str,
    /// Worst per-process shared-access count (0 when the run errored).
    pub max_ops: u64,
    /// Worst per-process DSM RMR count (0 when the run errored).
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
/// fault-layer stats, and the hardened telemetry registers — by the
/// simulator's rules ([`completed_class`], [`judge_safe`],
/// [`detections`]), so the two backends' classes are comparable.
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
    let detected = detections(n, |r| mem.peek(r));
    let events = mem.take_events();
    let kills = events
        .iter()
        .filter(|e| matches!(e.kind, HwEventKind::Killed { .. }))
        .count() as u64;
    let respawns = events
        .iter()
        .filter(|e| matches!(e.kind, HwEventKind::Respawned { .. }))
        .count() as u64;
    let (class, max_ops, max_dsm_rmrs, outcome_text) = match &outcome {
        Ok(run) => {
            let verdicts = run.results.iter().map(|r| Some(&r.response));
            let safe = judge_safe(alg.name(), n, verdicts, || wakeup_run_valid(run));
            (
                completed_class(safe, detected),
                run.max_ops(),
                run.max_dsm_rmrs(),
                "HwCompleted".to_string(),
            )
        }
        Err(e) => (hw_error_class(e), 0, 0, e.to_string()),
    };
    HwChaosRun {
        class,
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

/// Degradation classes that fail E20 outright, on either backend.
fn class_is_failure(class: &str) -> bool {
    matches!(class, "silent-wrong" | "panic" | "respawn-exhausted")
}

/// Packages a failed hardware chaos trial as a replayable case: the
/// plan's faults, crashes, and tosses survive verbatim, with the
/// `recovery` regime the hardware ran under; the schedule becomes
/// [`ScheduleSpec::Hardware`] because the OS-chosen interleaving cannot
/// be replayed — `llsc replay` re-runs the case on the simulator under
/// the deterministic round-robin stand-in.
fn chaos_failure_case(
    case: &ReproCase,
    recovery: Option<RecoverySpec>,
    class: &str,
    outcome: String,
) -> ReproCase {
    ReproCase {
        schedule: ScheduleSpec::Hardware,
        recovery,
        outcome,
        class: class.to_string(),
        ..case.clone()
    }
}

/// One E20 trial on one backend: a row of `llsc bench e20`.
#[derive(Clone, Debug)]
pub struct E20Trial {
    /// Algorithm name.
    pub algorithm: String,
    /// The adversary arm the algorithm's family gets.
    pub arm: &'static str,
    /// Backend the trial ran on.
    pub backend: BackendKind,
    /// Chaos intensity.
    pub intensity: usize,
    /// Chaos seed (also the toss seed).
    pub seed: u64,
    /// Degradation class (shared vocabulary; see [`HwChaosRun::class`]).
    pub class: String,
    /// Worst per-process shared-access count.
    pub max_ops: u64,
    /// Worst per-process DSM RMR count.
    pub max_dsm_rmrs: u64,
    /// Spurious SC failures delivered (on the simulator: by a run that
    /// terminated).
    pub spurious_sc: u64,
    /// Register corruptions delivered (as `spurious_sc`).
    pub corruptions: u64,
    /// Crashes delivered (thread kills on hardware).
    pub crashes: u64,
    /// Recoveries (respawns on hardware).
    pub respawns: u64,
    /// Detections published to the hardened telemetry registers.
    pub detected: u64,
    /// The replayable case of a failed trial (class `silent-wrong`,
    /// `panic` or `respawn-exhausted`); `None` for every other class.
    pub failure: Option<ReproCase>,
}

impl fmt::Display for E20Trial {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "e20 {alg:<34} arm={arm:<14} backend={backend:<6} intensity={i} seed={seed} \
             class={class:<17} max_ops={ops:<6} max_dsm={dsm:<6} sc_fails={sc} corruptions={co} \
             crashes={cr} respawns={re} detected={de}",
            alg = self.algorithm,
            arm = self.arm,
            backend = self.backend.name(),
            i = self.intensity,
            seed = self.seed,
            class = self.class,
            ops = self.max_ops,
            dsm = self.max_dsm_rmrs,
            sc = self.spurious_sc,
            co = self.corruptions,
            cr = self.crashes,
            re = self.respawns,
            de = self.detected
        )
    }
}

/// The outcome of an E20 cross-backend run: every trial's row, in run
/// order (per algorithm, intensity and seed, the simulator row first).
#[derive(Clone, Debug)]
pub struct E20Bench {
    /// Number of processes.
    pub n: usize,
    /// Trials (seeds) per `(algorithm, intensity)` cell.
    pub trials: u64,
    /// Every trial's row.
    pub rows: Vec<E20Trial>,
}

/// E20 on either or both backends: every trial runs one seeded chaos
/// plan tailored to its algorithm's arm ([`e20_case`]), on the
/// simulator through [`run_case_with`] and on real threads through
/// [`run_hw_chaos`], seeds `1..=trials` per `(algorithm, intensity)`
/// cell. `respawn_budget` overrides the crash-recovery arm's budget on
/// the hardware side only (0 forces the escalation path); the simulator
/// keeps the arm's own regime — its recovery semantics have no budget-0
/// encoding.
pub fn e20_bench(
    backends: &[BackendKind],
    n: usize,
    intensities: &[usize],
    trials: u64,
    respawn_budget: Option<u64>,
) -> E20Bench {
    let mut rows = Vec::new();
    for a in 0..E20_ALGORITHMS.len() {
        let alg = e20_algorithm(a, n);
        let hw_recovery = e20_recovery(a, n).map(|r| RecoverySpec {
            budget: respawn_budget.unwrap_or(r.budget),
            ..r
        });
        for &intensity in intensities {
            for seed in 1..=trials {
                let case = e20_case(a, n, intensity, seed, DEFAULT_MAX_EVENTS);
                for &backend in backends {
                    let (algorithm, arm) = (alg.name().to_string(), e20_arm(a));
                    rows.push(match backend {
                        BackendKind::Sim => {
                            let run = run_case_with(&case, alg.as_ref());
                            let (spurious_sc, corruptions) = match run.outcome {
                                Some(RunOutcome::FaultInjected {
                                    spurious_sc,
                                    corruptions,
                                }) => (spurious_sc, corruptions),
                                _ => (0, 0),
                            };
                            let failure = class_is_failure(&run.class).then(|| ReproCase {
                                outcome: run.outcome_debug.clone(),
                                class: run.class.clone(),
                                ..case.clone()
                            });
                            E20Trial {
                                algorithm,
                                arm,
                                backend,
                                intensity,
                                seed,
                                max_ops: run.counters.max_ops(),
                                max_dsm_rmrs: run
                                    .counters
                                    .dsm_rmrs
                                    .iter()
                                    .copied()
                                    .max()
                                    .unwrap_or(0),
                                spurious_sc,
                                corruptions,
                                crashes: run.counters.total_crashes(),
                                respawns: run.counters.total_recoveries(),
                                detected: run.detected,
                                class: run.class,
                                failure,
                            }
                        }
                        BackendKind::Atomic => {
                            let run = run_hw_chaos(
                                alg.as_ref(),
                                n,
                                seed,
                                &case.faults,
                                &case.crashes,
                                hw_recovery,
                                E20_MAX_STEPS,
                            );
                            let failure = class_is_failure(run.class).then(|| {
                                chaos_failure_case(&case, hw_recovery, run.class, run.outcome_text)
                            });
                            E20Trial {
                                algorithm,
                                arm,
                                backend,
                                intensity,
                                seed,
                                class: run.class.to_string(),
                                max_ops: run.max_ops,
                                max_dsm_rmrs: run.max_dsm_rmrs,
                                spurious_sc: run.spurious_sc,
                                corruptions: run.corruptions,
                                crashes: run.crashes,
                                respawns: run.respawns,
                                detected: run.detected,
                                failure,
                            }
                        }
                    });
                }
            }
        }
    }
    E20Bench { n, trials, rows }
}

impl E20Bench {
    /// The failed trials, in run order.
    pub fn failures(&self) -> impl Iterator<Item = &E20Trial> {
        self.rows.iter().filter(|r| r.failure.is_some())
    }

    /// The `(simulator, hardware)` row pairs of the cells whose two
    /// backends disagree on the class — expected occasionally, since the
    /// OS chooses the hardware interleaving.
    pub fn divergence(&self) -> impl Iterator<Item = (&E20Trial, &E20Trial)> {
        self.rows.windows(2).filter_map(|w| {
            let (sim, hw) = (&w[0], &w[1]);
            let cell = (sim.backend, hw.backend) == (BackendKind::Sim, BackendKind::Atomic)
                && (&sim.algorithm, sim.intensity, sim.seed)
                    == (&hw.algorithm, hw.intensity, hw.seed);
            (cell && sim.class != hw.class).then_some((sim, hw))
        })
    }

    /// The run as a `BENCH_pr10.json`-schema artifact: `{"bench":"pr10",
    /// "n":…,"trials":…,"cases":[…],"divergence":[…],"failures":[…]}`;
    /// each failure carries its replayable case under `"repro"`.
    pub fn render_json(&self) -> String {
        let cases: Vec<String> = self
            .rows
            .iter()
            .map(|r| {
                format!(
                    "{{\"experiment\":\"e20\",\"algorithm\":\"{}\",\"arm\":\"{}\",\"backend\":\"{}\",\
                     \"intensity\":{},\"seed\":{},\"class\":\"{}\",\"max_ops\":{},\"max_dsm_rmrs\":{},\
                     \"spurious_sc\":{},\"corruptions\":{},\"crashes\":{},\"respawns\":{},\"detected\":{}}}",
                    r.algorithm,
                    r.arm,
                    r.backend.name(),
                    r.intensity,
                    r.seed,
                    r.class,
                    r.max_ops,
                    r.max_dsm_rmrs,
                    r.spurious_sc,
                    r.corruptions,
                    r.crashes,
                    r.respawns,
                    r.detected
                )
            })
            .collect();
        let divergence: Vec<String> = self
            .divergence()
            .map(|(sim, hw)| {
                format!(
                    "{{\"algorithm\":\"{}\",\"intensity\":{},\"seed\":{},\
                     \"sim_class\":\"{}\",\"hw_class\":\"{}\"}}",
                    sim.algorithm, sim.intensity, sim.seed, sim.class, hw.class
                )
            })
            .collect();
        let failures: Vec<String> = self
            .rows
            .iter()
            .filter_map(|r| {
                let repro = r.failure.as_ref()?;
                let mut out = format!(
                    "{{\"algorithm\":\"{}\",\"backend\":\"{}\",\"intensity\":{},\"seed\":{},\
                     \"class\":\"{}\",\"outcome\":",
                    r.algorithm,
                    r.backend.name(),
                    r.intensity,
                    r.seed,
                    r.class
                );
                json::push_string(&mut out, &repro.outcome);
                out.push_str(",\"repro\":");
                json::push_string(&mut out, repro.to_json().trim_end());
                out.push('}');
                Some(out)
            })
            .collect();
        format!(
            "{{\"bench\":\"pr10\",\"n\":{},\"trials\":{},\"cases\":[{}],\"divergence\":[{}],\"failures\":[{}]}}\n",
            self.n,
            self.trials,
            cases.join(","),
            divergence.join(","),
            failures.join(",")
        )
    }
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

    /// E20 algorithm `idx` on the hardware backend at n = 3, intensity 2,
    /// under the arm's own regime, for chaos seeds `1..=seeds`.
    fn hw_chaos_trials(idx: usize, seeds: u64) -> Vec<HwChaosRun> {
        let alg = e20_algorithm(idx, 3);
        (1..=seeds)
            .map(|seed| {
                let case = e20_case(idx, 3, 2, seed, DEFAULT_MAX_EVENTS);
                run_hw_chaos(
                    alg.as_ref(),
                    3,
                    seed,
                    &case.faults,
                    &case.crashes,
                    case.recovery,
                    E20_MAX_STEPS,
                )
            })
            .collect()
    }

    #[test]
    fn hardened_wakeup_degrades_gracefully_under_hw_memory_faults() {
        // E20 algorithm 0 is the hardened counter wakeup (memory-fault arm).
        let trials = hw_chaos_trials(0, 4);
        for t in &trials {
            assert!(
                !matches!(t.class, "silent-wrong" | "panic"),
                "degrades gracefully: {t:?}"
            );
            assert_eq!(
                (t.crashes, t.respawns),
                (0, 0),
                "no crash layer without a recovery regime: {t:?}"
            );
        }
        // The fault layer is armed: across the trials something fired.
        assert!(
            trials.iter().any(|t| t.spurious_sc + t.corruptions > 0),
            "{trials:?}"
        );
    }

    #[test]
    fn recoverable_wakeup_survives_crash_respawn_chaos() {
        // E20 algorithm 4 is the recoverable counter wakeup
        // (crash-recovery arm).
        let trials = hw_chaos_trials(4, 4);
        for t in &trials {
            assert!(!matches!(t.class, "silent-wrong" | "panic"), "{t:?}");
            assert!(
                t.respawns <= t.crashes,
                "each kill grants at most one respawn: {t:?}"
            );
            assert_eq!(
                t.corruptions, 0,
                "the crash-recovery arm strips corruption: {t:?}"
            );
        }
        // Intensity 2 schedules one victim per trial; at least one trial
        // must actually deliver its kill and the respawn after it.
        assert!(
            trials.iter().any(|t| t.crashes > 0 && t.respawns > 0),
            "{trials:?}"
        );
    }

    #[test]
    fn failed_chaos_trials_carry_a_hardware_schedule_repro() {
        let case = e20_case(4, 3, 2, 5, 1000);
        let budget0 = Some(RecoverySpec {
            delay: 3,
            budget: 0,
        });
        let repro = chaos_failure_case(&case, budget0, "silent-wrong", "HwCompleted".into());
        assert_eq!(repro.schedule, ScheduleSpec::Hardware);
        assert_eq!(repro.class, "silent-wrong");
        assert_eq!(repro.faults, case.faults);
        assert_eq!(repro.crashes, case.crashes);
        assert_eq!(repro.recovery, budget0, "the hardware's regime is recorded");
        let back = ReproCase::from_json(&repro.to_json()).unwrap();
        assert_eq!(back, repro, "hardware-schedule cases round-trip");

        // A real `--respawn-budget 0` run: its failure rows carry the
        // case in the artifact.
        let bench = e20_bench(&[BackendKind::Atomic], 3, &[2], 2, Some(0));
        assert!(bench.failures().count() > 0, "budget 0 exhausts a respawn");
        let artifact = bench.render_json();
        let entries: Vec<&str> = artifact.split(",\"repro\":").skip(1).collect();
        assert_eq!(entries.len(), bench.failures().count(), "{artifact}");
        for entry in entries {
            let (embedded, _) = json::parse_prefix(entry).unwrap();
            let repro = ReproCase::from_json(embedded.as_str().unwrap()).unwrap();
            assert_eq!(repro.schedule, ScheduleSpec::Hardware);
            assert_eq!(repro.class, "respawn-exhausted");
            assert_eq!(repro.recovery.map(|r| r.budget), Some(0));
        }
    }

    #[test]
    fn backend_kind_parses_registry_names() {
        assert_eq!(BackendKind::parse("sim"), Some(BackendKind::Sim));
        assert_eq!(BackendKind::parse("atomic"), Some(BackendKind::Atomic));
        assert_eq!(BackendKind::parse("gpu"), None);
        assert_eq!(BackendKind::Atomic.name(), "atomic");
    }
}
