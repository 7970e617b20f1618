//! The experiment-side half of the failure-replay subsystem, and the one
//! engine every fault-table trial runs on.
//!
//! `llsc_shmem::repro` serializes, re-executes, and shrinks a
//! [`ReproCase`] — but a case names its algorithm, and only this crate
//! knows the experiment algorithm catalogs. This module supplies that
//! glue:
//!
//! * `resolve_algorithm` — label → constructor over the catalogs of the
//!   E15/E16/E17/E19/E20 fault experiments (plus E16's unhardened twins),
//!   the same catalogs their tables and jobs build algorithms from;
//! * [`run_case`] / [`run_case_with`] — execute a case under panic
//!   isolation, classify the result into the failure-class vocabulary
//!   the experiments share (`recovered`, `detected-wrong`,
//!   `silent-wrong`, `stalled`, `crashed`, `respawn-exhausted`,
//!   `aborted`, `panic`) and read
//!   the delivered faults, detections, memory accesses and cost counters
//!   off the executor. Every fault-table trial is one such call
//!   (`JobSpec::fault_trial` in [`crate::job`]), so a failure's attached
//!   case is exactly the trial that failed;
//! * [`shrink_case`] — materialize the case's schedule into an explicit
//!   pick list and delta-debug it (plus the fault/crash lists) down to a
//!   minimal reproducer with the same failure class.
//!
//! The `llsc replay` and `llsc shrink` subcommands are thin wrappers over
//! these functions.

use crate::experiments::E16_TWINS;
use crate::job::JobExperiment;
use llsc_core::check_wakeup;
use llsc_shmem::repro::{execute, shrink, ReproCase, ShrinkReport};
use llsc_shmem::{
    panic_message, Algorithm, FaultStats, OpCounters, ProcessId, RecoverySpec, RunOutcome, Value,
};
use llsc_universal::hardening::detections;
use llsc_wakeup::check_mutex_tokens;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Resolves an algorithm label recorded in a [`ReproCase`] back to a
/// constructor, or `None` for an unknown label.
///
/// The labels are the fault experiments' catalogs (E15/E16/E17/E19/E20,
/// plus E16's unhardened twins). A label names one construction in every
/// catalog that lists it — e.g. `counter-wakeup`, which E15 runs directly
/// and E16 uses as a twin — so it resolves the same way whichever
/// experiment recorded it.
pub(crate) fn resolve_algorithm(name: &str, n: usize) -> Option<Box<dyn Algorithm>> {
    JobExperiment::ALL
        .iter()
        .filter_map(JobExperiment::catalog)
        .chain([E16_TWINS])
        .flatten()
        .find(|(label, _)| *label == name)
        .map(|(_, build)| build(n))
}

/// Classifies a completed (non-panicking) execution into the shared
/// failure-class vocabulary.
///
/// The outcome decides first (a stall is a stall whatever the partial
/// run's safety looks like — matching E16's bucketing); a crashed run is
/// classed by its `recovery` regime (`crashed_class`); only runs that
/// actually terminated are judged, by `completed_class`.
pub fn classify(
    outcome: &RunOutcome,
    safe: bool,
    detected: u64,
    recovery: Option<RecoverySpec>,
) -> &'static str {
    match outcome {
        RunOutcome::BudgetExhausted { .. } => "stalled",
        RunOutcome::Crashed { .. } => crashed_class(recovery),
        RunOutcome::DivergedLocalBurst { .. } => "aborted",
        RunOutcome::Completed | RunOutcome::FaultInjected { .. } => completed_class(safe, detected),
    }
}

/// The class of a run a crash victim did not come back from, on either
/// backend: `respawn-exhausted` under a recovery regime whose budget
/// grants no respawn (budget 0, where the plan's crash is final; the
/// hardware supervisor reports it as `RespawnExhausted`), else `crashed`.
pub(crate) fn crashed_class(recovery: Option<RecoverySpec>) -> &'static str {
    match recovery {
        Some(r) if r.budget == 0 => "respawn-exhausted",
        _ => "crashed",
    }
}

/// Every class [`completed_class`] returns: a run that terminated,
/// whatever its answer.
pub(crate) const COMPLETED_CLASSES: [&str; 3] = ["recovered", "detected-wrong", "silent-wrong"];

/// The class of a run that terminated, on either backend: `recovered`
/// when it is safe, else `detected-wrong` when the hardened telemetry
/// published a detection, else `silent-wrong`.
pub(crate) fn completed_class(safe: bool, detected: u64) -> &'static str {
    if safe {
        "recovered"
    } else if detected > 0 {
        "detected-wrong"
    } else {
        "silent-wrong"
    }
}

/// Whether a terminated run of `algorithm` is safe, on either backend.
/// The recoverable mutex returns tokens, not wakeup bits, so it is judged
/// on token distinctness over its `verdicts`; every other algorithm by
/// `wakeup_valid`, the backend's wakeup check.
pub(crate) fn judge_safe<'a>(
    algorithm: &str,
    n: usize,
    verdicts: impl IntoIterator<Item = Option<&'a Value>>,
    wakeup_valid: impl FnOnce() -> bool,
) -> bool {
    if algorithm == "recoverable-mutex" {
        check_mutex_tokens(verdicts, n).is_ok()
    } else {
        wakeup_valid()
    }
}

/// The classified result of one case execution.
#[derive(Clone, Debug)]
pub struct CaseRun {
    /// The replayed [`RunOutcome`] in `Debug` form — the string replay
    /// compares byte-for-byte against [`ReproCase::outcome`] — or
    /// `"panic"` when the execution panicked.
    pub outcome_debug: String,
    /// The replayed [`RunOutcome`] (`None` when the execution panicked).
    pub outcome: Option<RunOutcome>,
    /// The failure class (see [`classify`]; `"panic"` for panicking
    /// executions).
    pub class: String,
    /// The explicit schedule trace of the execution (empty on panic).
    pub trace: Vec<ProcessId>,
    /// Detections published to the hardened telemetry registers.
    pub detected: u64,
    /// Whether the recorded run satisfied the wakeup specification (token
    /// distinctness for `recoverable-mutex`).
    pub safe: bool,
    /// The run's cost counters (empty on panic).
    pub counters: OpCounters,
    /// The faults the fault plan delivered, whether or not the run went
    /// on to terminate (zero on panic).
    pub faults: FaultStats,
    /// Shared-memory accesses the memory served. When the event budget
    /// fires this includes the access the run did not get to record, so
    /// it is the count to compare across twins, not
    /// [`OpCounters::total_ops`] (zero on panic).
    pub accesses: u64,
    /// The panic payload, stringified, when the execution panicked.
    pub panic: Option<String>,
}

/// Executes `case` against an already-resolved algorithm, under panic
/// isolation, and classifies the result.
pub fn run_case_with(case: &ReproCase, alg: &dyn Algorithm) -> CaseRun {
    let replayed = catch_unwind(AssertUnwindSafe(|| {
        let replayed = execute(case, alg);
        let exec = &replayed.exec;
        let detected = detections(case.n, |r| exec.memory().peek(r));
        let safe = judge_safe(
            &case.algorithm,
            case.n,
            ProcessId::all(case.n).map(|p| exec.verdict(p)),
            || check_wakeup(exec.run()).ok(),
        );
        let outcome = replayed.outcome;
        CaseRun {
            outcome_debug: format!("{outcome:?}"),
            outcome: Some(outcome),
            class: classify(&outcome, safe, detected, case.recovery).to_string(),
            detected,
            safe,
            counters: exec.run().counters(),
            faults: exec.fault_stats(),
            accesses: exec.memory().stats().total(),
            trace: replayed.trace,
            panic: None,
        }
    }));
    replayed.unwrap_or_else(|payload| CaseRun {
        outcome_debug: "panic".to_string(),
        outcome: None,
        class: "panic".to_string(),
        trace: Vec::new(),
        detected: 0,
        safe: false,
        counters: OpCounters::default(),
        faults: FaultStats::default(),
        accesses: 0,
        panic: Some(panic_message(payload.as_ref())),
    })
}

/// [`run_case_with`] after resolving the case's algorithm by name.
///
/// # Errors
///
/// Returns a message when [`ReproCase::algorithm`] is not in the
/// registry.
pub fn run_case(case: &ReproCase) -> Result<CaseRun, String> {
    let alg = resolve_algorithm(&case.algorithm, case.n)
        .ok_or_else(|| format!("unknown algorithm {:?}", case.algorithm))?;
    Ok(run_case_with(case, alg.as_ref()))
}

/// Materializes and delta-debugs `case` down to a minimal reproducer
/// with the same failure class.
///
/// The baseline execution both (re)establishes the failure class — the
/// shrink target — and records the explicit schedule trace. If replaying
/// that trace preserves the class (it does whenever the case is
/// deterministic, which every seeded case is), the named schedule is
/// swapped for the explicit one so the schedule and process-set passes
/// have something to chew on; otherwise shrinking falls back to the
/// fault/crash lists alone. The returned report's case has its outcome
/// and class fields refreshed from the minimal reproducer's own
/// execution.
///
/// # Errors
///
/// Returns a message when the case's algorithm is unknown.
pub fn shrink_case(case: &ReproCase, max_replays: usize) -> Result<ShrinkReport, String> {
    let alg = resolve_algorithm(&case.algorithm, case.n)
        .ok_or_else(|| format!("unknown algorithm {:?}", case.algorithm))?;
    let alg = alg.as_ref();
    let baseline = run_case_with(case, alg);
    let target = baseline.class.clone();
    let mut prelude = Vec::new();
    if !case.class.is_empty() && case.class != target {
        prelude.push(format!(
            "note: recorded class {:?} differs from re-executed class {:?}; shrinking \
             toward the re-executed class",
            case.class, target
        ));
    }

    let mut start = case.clone();
    start.class = target.clone();
    if !baseline.trace.is_empty() {
        let materialized = start.materialized(baseline.trace.clone());
        if run_case_with(&materialized, alg).class == target {
            prelude.push(format!(
                "materialized schedule: {} explicit pick(s)",
                baseline.trace.len()
            ));
            start = materialized;
        } else {
            prelude.push(
                "schedule not materialized (trace replay changed the class); shrinking \
                 fault lists only"
                    .to_string(),
            );
        }
    }

    let mut report = shrink(
        &start,
        |cand| Some(run_case_with(cand, alg).class),
        max_replays,
    );
    let final_run = run_case_with(&report.case, alg);
    report.case.outcome = final_run.outcome_debug;
    report.case.class = final_run.class;
    prelude.append(&mut report.log);
    report.log = prelude;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use llsc_shmem::repro::{ScheduleSpec, TossSpec};
    use llsc_shmem::{CrashPlan, FaultPlan};

    fn clean_case(algorithm: &str, n: usize, seed: u64) -> ReproCase {
        ReproCase {
            experiment: "test".to_string(),
            algorithm: algorithm.to_string(),
            n,
            toss: TossSpec::Seeded(seed),
            schedule: ScheduleSpec::RoundRobin,
            crashes: CrashPlan::none(),
            recovery: None,
            faults: FaultPlan::none(),
            max_events: 2_000_000,
            max_steps: 40_000,
            outcome: String::new(),
            class: String::new(),
            provenance: None,
        }
    }

    #[test]
    fn registry_resolves_every_experiment_name() {
        let catalogs = JobExperiment::ALL
            .iter()
            .filter_map(JobExperiment::catalog)
            .chain([E16_TWINS]);
        for (label, build) in catalogs.flatten() {
            let resolved = resolve_algorithm(label, 4).expect("every label resolves");
            // The label is the algorithm's own name, plus the backing
            // construction in brackets for the reduction rows.
            let name = build(4).name().to_string();
            assert_eq!(resolved.name(), name, "{label}");
            assert!(
                *label == name || label.starts_with(&format!("{name}[")),
                "{label} labels {name}"
            );
        }
        assert!(resolve_algorithm("no-such-algorithm", 4).is_none());
    }

    #[test]
    fn recoverable_mutex_case_judged_on_tokens_not_wakeup() {
        // A clean recoverable-mutex run returns tokens 1..=n, which the
        // wakeup checker would reject; the token checker accepts it.
        let case = clean_case("recoverable-mutex", 4, 5);
        let run = run_case(&case).unwrap();
        assert_eq!(run.outcome_debug, "Completed");
        assert_eq!(run.class, "recovered");
        assert!(run.safe);
    }

    #[test]
    fn crashed_recoverable_case_replays_and_shrinks_with_class_preserved() {
        // Crash-stop (no recovery): the victim stays down and the case
        // classifies as crashed.
        let mut case = clean_case("recoverable-mutex", 4, 9);
        case.crashes = CrashPlan::at([(ProcessId(1), 2)]);
        let run = run_case(&case).unwrap();
        assert_eq!(run.class, "crashed");
        case.class = run.class.clone();
        case.outcome = run.outcome_debug;

        let report = shrink_case(&case, 500).unwrap();
        assert_eq!(report.case.class, "crashed", "class preserved");
        let replayed = run_case(&report.case).unwrap();
        assert_eq!(replayed.class, "crashed");
        assert_eq!(replayed.outcome_debug, report.case.outcome);

        // The same crash with a recovery spec revives the victim and the
        // trial completes safely.
        case.recovery = Some(RecoverySpec {
            delay: 4,
            budget: 1,
        });
        let recovered = run_case(&case).unwrap();
        assert_eq!(recovered.class, "recovered");
        assert!(recovered.safe);
    }

    #[test]
    fn crash_stop_executes_as_recovery_with_budget_zero() {
        // Crash-stop is the crash-recovery model with no respawn budget:
        // both regimes drive the same run, and only the class name of a
        // run left crashed tells them apart.
        let mut crashed = 0;
        for (algorithm, seed) in [
            ("counter-wakeup", 3),
            ("tournament-wakeup", 5),
            ("hardened-counter-wakeup", 7),
            ("recoverable-mutex", 9),
        ] {
            let mut stop = clean_case(algorithm, 5, seed);
            stop.crashes = CrashPlan::seeded(seed, 5, 2, 40);
            let mut zero = stop.clone();
            zero.recovery = Some(RecoverySpec {
                delay: 3,
                budget: 0,
            });
            let (a, b) = (run_case(&stop).unwrap(), run_case(&zero).unwrap());
            assert_eq!(a.trace, b.trace, "{algorithm}");
            assert_eq!(a.counters, b.counters, "{algorithm}");
            assert_eq!(a.outcome_debug, b.outcome_debug, "{algorithm}");
            if matches!(a.outcome, Some(RunOutcome::Crashed { .. })) {
                crashed += 1;
                assert_eq!(
                    (a.class.as_str(), b.class.as_str()),
                    (crashed_class(stop.recovery), crashed_class(zero.recovery)),
                    "{algorithm}"
                );
            } else {
                assert_eq!(a.class, b.class, "{algorithm}");
            }
        }
        assert!(crashed > 0, "some plan must leave a victim down");
    }

    #[test]
    fn clean_cases_classify_as_recovered() {
        let case = clean_case("counter-wakeup", 4, 7);
        let run = run_case(&case).unwrap();
        assert_eq!(run.class, "recovered");
        assert_eq!(run.outcome_debug, "Completed");
        assert!(run.safe);
        assert!(!run.trace.is_empty());
    }

    #[test]
    fn run_case_is_deterministic() {
        let case = clean_case("tournament-wakeup", 4, 11);
        let a = run_case(&case).unwrap();
        let b = run_case(&case).unwrap();
        assert_eq!(a.outcome_debug, b.outcome_debug);
        assert_eq!(a.trace, b.trace);
    }

    #[test]
    fn starved_budget_classifies_as_stalled_and_shrinks() {
        let mut case = clean_case("counter-wakeup", 4, 3);
        case.max_events = 10;
        let run = run_case(&case).unwrap();
        assert_eq!(run.class, "stalled");
        assert!(
            run.outcome_debug.starts_with("BudgetExhausted"),
            "{}",
            run.outcome_debug
        );
        case.class = run.class.clone();
        case.outcome = run.outcome_debug;

        let report = shrink_case(&case, 500).unwrap();
        assert_eq!(report.case.class, "stalled", "class preserved");
        assert!(
            report.final_size < report.initial_size.max(run.trace.len()),
            "strictly smaller: {} vs schedule {}",
            report.final_size,
            run.trace.len()
        );
        // The minimal reproducer replays to the class it records.
        let replayed = run_case(&report.case).unwrap();
        assert_eq!(replayed.class, "stalled");
        assert_eq!(replayed.outcome_debug, report.case.outcome);
    }

    #[test]
    fn stalled_case_reports_the_faults_it_was_delivered() {
        // Corruptions land in the first events; the starved budget then
        // stalls the run before anyone terminates.
        let mut case = clean_case("hardened-counter-wakeup", 4, 5);
        case.faults = FaultPlan::at([], [(1, false), (2, true)], 9);
        case.max_events = 10;
        let run = run_case(&case).unwrap();
        assert_eq!(run.class, "stalled");
        assert_eq!(run.faults.corruptions, 2, "{:?}", run.faults);
        // Memory also served the access the budget refused to record.
        assert!(run.accesses > run.counters.total_ops(), "{}", run.accesses);
    }

    #[test]
    fn classify_covers_the_vocabulary() {
        use RunOutcome::*;
        assert_eq!(classify(&Completed, true, 0, None), "recovered");
        assert_eq!(classify(&Completed, false, 2, None), "detected-wrong");
        assert_eq!(
            classify(
                &FaultInjected {
                    spurious_sc: 1,
                    corruptions: 0
                },
                false,
                0,
                None
            ),
            "silent-wrong"
        );
        assert_eq!(
            classify(&BudgetExhausted { events: 9 }, true, 0, None),
            "stalled"
        );
        let crashed = Crashed { pid: ProcessId(1) };
        assert_eq!(classify(&crashed, true, 0, None), "crashed");
        let spec = |budget| Some(RecoverySpec { delay: 3, budget });
        assert_eq!(classify(&crashed, true, 0, spec(2)), "crashed");
        assert_eq!(classify(&crashed, true, 0, spec(0)), "respawn-exhausted");
        assert_eq!(
            classify(&DivergedLocalBurst { pid: ProcessId(0) }, true, 0, None),
            "aborted"
        );
    }
}
