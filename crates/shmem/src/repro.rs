//! Self-contained failure reproducers: serialize, replay, and shrink.
//!
//! A [`ReproCase`] captures everything a single executor run depends on —
//! algorithm name, process count, toss assignment, schedule, crash plan,
//! fault plan, and budgets — plus the outcome it produced, as a portable
//! JSON artifact. Because every ingredient is a pure function of the
//! recorded fields (seeded tosses, seeded plans, explicit schedules),
//! re-executing the case reproduces the original run event-for-event:
//! the debugging loop the paper's adversary argument is built on (a
//! specific schedule plus specific coin tosses forcing a bad outcome,
//! Section 5 / Figure 2) becomes a file you can pass around.
//!
//! Three layers live here:
//!
//! * **serialization** — [`ReproCase::to_json`] / [`ReproCase::from_json`],
//!   a hand-rolled format (this workspace builds with no external crates;
//!   see `llsc-bench`'s tables for the same convention: every scalar is a
//!   JSON string, so one tiny parser suffices);
//! * **replay** — [`execute`] rebuilds the executor and drives it under
//!   the recorded schedule and plans, returning the live executor, the
//!   classified [`RunOutcome`], and the explicit pick trace;
//! * **shrinking** — [`shrink`] delta-debugs the schedule, the
//!   participating process set, and the injected fault/crash lists against
//!   a caller-supplied failure-class oracle, keeping every reduction that
//!   preserves the class.
//!
//! The algorithm itself is *not* serialized (programs are code); a case
//! records the algorithm's name and the caller resolves it back to a
//! constructor — `llsc-bench` keeps the registry for the experiment
//! algorithms, and the `llsc replay` / `llsc shrink` subcommands glue the
//! two together.

use crate::json;
use crate::scheduler::RecordingScheduler;
use crate::{
    Algorithm, CrashDriver, CrashPlan, Executor, ExecutorConfig, FaultPlan, ListScheduler,
    ProcessId, RandomScheduler, RecoverySpec, RoundRobinScheduler, RunOutcome, Scheduler,
    SeededTosses, TossAssignment, ZeroTosses,
};
use std::fmt::Write as _;
use std::sync::Arc;

/// The coin-toss assignment of a reproducible run.
///
/// Only pure seeded assignments are representable — which is all the
/// experiment sweeps use — so a case never needs to embed a full toss log:
/// the seed *is* the log.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TossSpec {
    /// Every toss answers 0 ([`ZeroTosses`]).
    Zero,
    /// Tosses drawn from [`SeededTosses`] under the given seed.
    Seeded(u64),
}

impl TossSpec {
    /// Builds the toss assignment this spec describes.
    pub fn assignment(&self) -> Arc<dyn TossAssignment> {
        match self {
            TossSpec::Zero => Arc::new(ZeroTosses),
            TossSpec::Seeded(seed) => Arc::new(SeededTosses::new(*seed)),
        }
    }
}

/// The schedule of a reproducible run: a named deterministic scheduler,
/// or an explicit pick-by-pick trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScheduleSpec {
    /// [`RoundRobinScheduler`] starting at `p_0`.
    RoundRobin,
    /// [`RandomScheduler`] under the given seed.
    Random {
        /// The scheduler's seed.
        seed: u64,
    },
    /// An explicit pick list, replayed through a [`ListScheduler`]. This
    /// is the form the shrinker works on: [`execute`] records the trace
    /// of a named schedule, and [`ReproCase::materialized`] swaps it in.
    List(Vec<ProcessId>),
    /// A hardware-backend run: the OS scheduler chose the interleaving,
    /// so the schedule itself is not replayable. [`execute`] re-runs the
    /// case on the simulator under a round-robin schedule — the recorded
    /// faults, crashes, and tosses still apply, which is usually enough
    /// to triage a hardware failure deterministically.
    Hardware,
}

impl ScheduleSpec {
    /// The number of explicit picks, or 0 for a named schedule.
    pub fn len(&self) -> usize {
        match self {
            ScheduleSpec::List(picks) => picks.len(),
            _ => 0,
        }
    }

    /// `true` iff this is an explicit empty pick list.
    pub fn is_empty(&self) -> bool {
        matches!(self, ScheduleSpec::List(picks) if picks.is_empty())
    }
}

/// Where a case came from: the sweep that produced it, so a failure row
/// in an artifact and the repro file on disk can be cross-referenced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Provenance {
    /// The sweep seed the trial seed was derived from.
    pub sweep_seed: u64,
    /// The trial's index within the sweep.
    pub trial_index: usize,
}

/// A self-contained, replayable description of one executor run.
///
/// Every field is data (no code): the algorithm is referenced by name and
/// resolved by the caller at replay time. See the module docs for the
/// round-trip guarantees.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReproCase {
    /// The experiment that produced the case (`"e15"`, `"e16"`, `"e17"`,
    /// or any caller-chosen tag).
    pub experiment: String,
    /// The algorithm's registry name (e.g. `"hardened-counter-wakeup"`).
    pub algorithm: String,
    /// Number of processes.
    pub n: usize,
    /// The coin-toss assignment.
    pub toss: TossSpec,
    /// The schedule: named or explicit.
    pub schedule: ScheduleSpec,
    /// Crash-stop faults injected during the run.
    pub crashes: CrashPlan,
    /// The crash-recovery regime, if the run recovers its crash victims
    /// (`None` reproduces the plain crash-stop model; old artifacts
    /// without the field parse as `None`).
    pub recovery: Option<RecoverySpec>,
    /// Memory faults injected during the run.
    pub faults: FaultPlan,
    /// The executor's event budget ([`ExecutorConfig::max_events`]).
    pub max_events: u64,
    /// The driver's step budget.
    pub max_steps: u64,
    /// The recorded [`RunOutcome`] in `Debug` form — replay compares the
    /// re-executed outcome against this byte-for-byte.
    pub outcome: String,
    /// The recorded failure class (e.g. `"stalled"`, `"silent-wrong"`);
    /// the shrinker preserves it.
    pub class: String,
    /// The producing sweep, if the case came from one.
    pub provenance: Option<Provenance>,
}

impl ReproCase {
    /// The case's reproducer size: explicit schedule picks plus injected
    /// crash and fault entries. This is the quantity the shrinker
    /// minimizes (named schedules count 0 picks; materialize first).
    pub fn size(&self) -> usize {
        self.schedule.len()
            + self.crashes.len()
            + self.faults.spurious().len()
            + self.faults.corruptions().len()
    }

    /// A copy of the case with its schedule replaced by the explicit
    /// `trace` (as recorded by [`execute`]), ready for shrinking.
    pub fn materialized(&self, trace: Vec<ProcessId>) -> ReproCase {
        ReproCase {
            schedule: ScheduleSpec::List(trace),
            ..self.clone()
        }
    }
}

/// The result of [`execute`]: the driven executor (for safety checks and
/// telemetry reads), the classified outcome, and the explicit pick trace.
#[derive(Debug)]
pub struct Replayed {
    /// The executor after the drive; its [`Executor::run`] is the full
    /// recorded run.
    pub exec: Executor,
    /// [`Executor::run_outcome`] at the end of the drive.
    pub outcome: RunOutcome,
    /// Every scheduler pick handed to the executor, in order. Replaying
    /// this trace as a [`ScheduleSpec::List`] reproduces the run.
    pub trace: Vec<ProcessId>,
}

/// Re-executes a case against `alg` (the algorithm its
/// [`ReproCase::algorithm`] names), byte-deterministically.
///
/// The drive layers the recorded crash plan over the recorded schedule
/// exactly as the fault experiments do: a [`CrashDriver`] with the
/// schedule as its inner scheduler, under the case's [`RecoverySpec`]
/// (`None` is crash-stop; an empty crash plan makes the drive identical
/// to a plain one), with the fault plan armed on the executor.
pub fn execute(case: &ReproCase, alg: &dyn Algorithm) -> Replayed {
    let config = ExecutorConfig {
        max_events: case.max_events,
        ..ExecutorConfig::default()
    };
    let mut exec = Executor::new(alg, case.n, case.toss.assignment(), config);
    exec.set_fault_plan(case.faults.clone());
    let trace = match &case.schedule {
        ScheduleSpec::RoundRobin => {
            drive_recorded(&mut exec, RoundRobinScheduler::new(), case, alg)
        }
        ScheduleSpec::Random { seed } => {
            drive_recorded(&mut exec, RandomScheduler::new(*seed), case, alg)
        }
        ScheduleSpec::List(picks) => drive_recorded(
            &mut exec,
            ListScheduler::new(picks.iter().copied()),
            case,
            alg,
        ),
        // The OS-chosen interleaving is gone; triage on the simulator
        // under the deterministic round-robin stand-in.
        ScheduleSpec::Hardware => drive_recorded(&mut exec, RoundRobinScheduler::new(), case, alg),
    };
    let outcome = exec.run_outcome();
    Replayed {
        exec,
        outcome,
        trace,
    }
}

fn drive_recorded<S: Scheduler>(
    exec: &mut Executor,
    inner: S,
    case: &ReproCase,
    alg: &dyn Algorithm,
) -> Vec<ProcessId> {
    let mut recorder = RecordingScheduler::new(inner);
    // Outcome classification reads the executor's sticky fault state, so
    // the drive's own error result is redundant here.
    let _ = CrashDriver::new(&mut recorder, &case.crashes, case.recovery).drive(
        exec,
        alg,
        case.max_steps,
    );
    recorder.into_trace()
}

/// One accepted reduction plus bookkeeping, as recorded by [`shrink`].
#[derive(Clone, Debug)]
pub struct ShrinkReport {
    /// The minimized case. Its `outcome` field is *not* refreshed (the
    /// oracle only reports classes); callers that want the shrunk run's
    /// outcome string re-execute once and overwrite it.
    pub case: ReproCase,
    /// Human-readable log of every accepted reduction.
    pub log: Vec<String>,
    /// Oracle invocations spent.
    pub replays: usize,
    /// [`ReproCase::size`] before shrinking.
    pub initial_size: usize,
    /// [`ReproCase::size`] after shrinking.
    pub final_size: usize,
}

/// Delta-debugs `case` down to a smaller reproducer with the same failure
/// class.
///
/// `oracle` executes a candidate and returns its failure class (`None`
/// when the candidate cannot be executed at all); a candidate reduction
/// is kept iff its class equals `case.class`. Four passes repeat until a
/// fixpoint (or until `max_replays` oracle calls have been spent):
///
/// 1. **schedule** — classic ddmin over the explicit pick list, removing
///    chunks of halving size (skipped for named schedules: call
///    [`ReproCase::materialized`] with a recorded trace first);
/// 2. **process set** — for each process appearing in the schedule, try
///    dropping *all* of its picks at once;
/// 3. **crashes** — try dropping each crash entry;
/// 4. **faults** — try dropping each spurious-SC threshold and each
///    corruption entry.
///
/// Everything is deterministic: candidate order is fixed, the oracle is
/// pure, so the minimal reproducer is a pure function of the input case.
pub fn shrink<F>(case: &ReproCase, mut oracle: F, max_replays: usize) -> ShrinkReport
where
    F: FnMut(&ReproCase) -> Option<String>,
{
    let target = case.class.clone();
    let mut current = case.clone();
    let mut log = Vec::new();
    let mut replays = 0usize;
    let initial_size = case.size();

    // Tests a candidate against the oracle, honoring the replay budget.
    let mut keeps_class = |cand: &ReproCase, replays: &mut usize| -> bool {
        if *replays >= max_replays {
            return false;
        }
        *replays += 1;
        oracle(cand).as_deref() == Some(target.as_str())
    };

    loop {
        let size_before = current.size();

        // Pass 1: ddmin over the explicit schedule.
        if let ScheduleSpec::List(picks) = &current.schedule {
            let mut picks = picks.clone();
            let mut chunk = (picks.len() / 2).max(1);
            loop {
                let mut i = 0;
                while i < picks.len() {
                    let mut cand_picks = picks.clone();
                    cand_picks.drain(i..(i + chunk).min(cand_picks.len()));
                    let cand = ReproCase {
                        schedule: ScheduleSpec::List(cand_picks.clone()),
                        ..current.clone()
                    };
                    if keeps_class(&cand, &mut replays) {
                        log.push(format!(
                            "schedule: removed {} pick(s) at {} ({} -> {})",
                            picks.len() - cand_picks.len(),
                            i,
                            picks.len(),
                            cand_picks.len()
                        ));
                        picks = cand_picks;
                    } else {
                        i += chunk;
                    }
                }
                if chunk == 1 {
                    break;
                }
                chunk = (chunk / 2).max(1);
            }
            current.schedule = ScheduleSpec::List(picks);
        }

        // Pass 2: drop every pick of one process at a time.
        if let ScheduleSpec::List(picks) = &current.schedule {
            let mut pids: Vec<ProcessId> = picks.clone();
            pids.sort_unstable();
            pids.dedup();
            for pid in pids.into_iter().rev() {
                let ScheduleSpec::List(picks) = &current.schedule else {
                    unreachable!("pass 2 only rewrites List schedules");
                };
                let cand_picks: Vec<ProcessId> =
                    picks.iter().copied().filter(|p| *p != pid).collect();
                if cand_picks.len() == picks.len() {
                    continue;
                }
                let cand = ReproCase {
                    schedule: ScheduleSpec::List(cand_picks.clone()),
                    ..current.clone()
                };
                if keeps_class(&cand, &mut replays) {
                    log.push(format!(
                        "process set: removed all {} pick(s) of {pid}",
                        picks.len() - cand_picks.len()
                    ));
                    current.schedule = ScheduleSpec::List(cand_picks);
                }
            }
        }

        // Pass 3: drop crash entries.
        for i in (0..current.crashes.len()).rev() {
            let mut pairs = current.crashes.crashes().to_vec();
            let (victim, at) = pairs.remove(i);
            let cand = ReproCase {
                crashes: CrashPlan::at(pairs.clone()),
                ..current.clone()
            };
            if keeps_class(&cand, &mut replays) {
                log.push(format!("crashes: removed crash of {victim} at event {at}"));
                current.crashes = CrashPlan::at(pairs);
            }
        }

        // Pass 4: drop fault entries.
        for i in (0..current.faults.spurious().len()).rev() {
            let mut spurious = current.faults.spurious().to_vec();
            let at = spurious.remove(i);
            let cand = ReproCase {
                faults: FaultPlan::at(
                    spurious.clone(),
                    current.faults.corruptions().to_vec(),
                    current.faults.value_seed(),
                ),
                ..current.clone()
            };
            if keeps_class(&cand, &mut replays) {
                log.push(format!("faults: removed spurious SC at event {at}"));
                current.faults = cand.faults;
            }
        }
        for i in (0..current.faults.corruptions().len()).rev() {
            let mut corruptions = current.faults.corruptions().to_vec();
            let (at, clear) = corruptions.remove(i);
            let cand = ReproCase {
                faults: FaultPlan::at(
                    current.faults.spurious().to_vec(),
                    corruptions.clone(),
                    current.faults.value_seed(),
                ),
                ..current.clone()
            };
            if keeps_class(&cand, &mut replays) {
                log.push(format!(
                    "faults: removed corruption at event {at} (clear-pset={clear})"
                ));
                current.faults = cand.faults;
            }
        }

        if current.size() >= size_before || replays >= max_replays {
            break;
        }
    }

    let final_size = current.size();
    ShrinkReport {
        case: current,
        log,
        replays,
        initial_size,
        final_size,
    }
}

// ---------------------------------------------------------------------------
// JSON serialization.
//
// Same convention as the llsc-bench artifacts: every scalar is a JSON
// string (seeds in hex, counters in decimal), so the parser below only
// needs strings, arrays, and objects.
// ---------------------------------------------------------------------------

impl ReproCase {
    /// Serializes the case to its JSON artifact form (one line, trailing
    /// newline).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"version\":\"1\"");
        json::push_field(&mut out, "experiment", &self.experiment);
        json::push_field(&mut out, "algorithm", &self.algorithm);
        json::push_field(&mut out, "n", &self.n.to_string());
        let toss = match self.toss {
            TossSpec::Zero => "zero".to_string(),
            TossSpec::Seeded(seed) => format!("seeded:{seed:#018x}"),
        };
        json::push_field(&mut out, "toss", &toss);
        out.push_str(",\"schedule\":{\"kind\":");
        match &self.schedule {
            ScheduleSpec::RoundRobin => json::push_string(&mut out, "round-robin"),
            ScheduleSpec::Random { seed } => {
                json::push_string(&mut out, "random");
                json::push_field(&mut out, "seed", &format!("{seed:#018x}"));
            }
            ScheduleSpec::Hardware => json::push_string(&mut out, "hardware"),
            ScheduleSpec::List(picks) => {
                json::push_string(&mut out, "list");
                json::push_list(&mut out, "picks", picks.iter().map(|p| p.0));
            }
        }
        out.push_str("},\"crashes\":[");
        for (i, (pid, at)) in self.crashes.crashes().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"pid\":\"{}\",\"at\":\"{at}\"}}", pid.0);
        }
        out.push_str("],\"faults\":{\"spurious\":[");
        for (i, at) in self.faults.spurious().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{at}\"");
        }
        out.push_str("],\"corruptions\":[");
        for (i, (at, clear)) in self.faults.corruptions().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"at\":\"{at}\",\"clear\":\"{clear}\"}}");
        }
        let _ = write!(
            out,
            "],\"value_seed\":\"{:#018x}\"}}",
            self.faults.value_seed()
        );
        json::push_field(&mut out, "max_events", &self.max_events.to_string());
        json::push_field(&mut out, "max_steps", &self.max_steps.to_string());
        json::push_field(&mut out, "outcome", &self.outcome);
        json::push_field(&mut out, "class", &self.class);
        if let Some(r) = &self.recovery {
            let _ = write!(
                out,
                ",\"recovery\":{{\"delay\":\"{}\",\"budget\":\"{}\"}}",
                r.delay, r.budget
            );
        }
        if let Some(p) = &self.provenance {
            let _ = write!(
                out,
                ",\"provenance\":{{\"sweep_seed\":\"{:#018x}\",\"trial_index\":\"{}\"}}",
                p.sweep_seed, p.trial_index
            );
        }
        out.push_str("}\n");
        out
    }

    /// Parses a case back from [`ReproCase::to_json`] output. Unknown
    /// fields are ignored, so a case written with a provenance `attempt`
    /// (a retry counter older builds recorded) still parses.
    ///
    /// # Errors
    ///
    /// Returns a descriptive message on malformed JSON, missing required
    /// fields, or out-of-range numbers.
    pub fn from_json(text: &str) -> Result<ReproCase, String> {
        use json::{field_or, list_field, num_field, text_field};
        let obj = json::parse(text)?;
        obj.object_or("case")?;
        let toss_text = text_field(&obj, "case", "toss")?;
        let toss = if toss_text == "zero" {
            TossSpec::Zero
        } else if let Some(hex) = toss_text.strip_prefix("seeded:") {
            TossSpec::Seeded(json::parse_u64(hex)?)
        } else {
            return Err(format!("unknown toss spec {toss_text:?}"));
        };
        let sched = field_or(&obj, "case", "schedule")?;
        let schedule = match text_field(sched, "schedule", "kind")?.as_str() {
            "round-robin" => ScheduleSpec::RoundRobin,
            "hardware" => ScheduleSpec::Hardware,
            "random" => ScheduleSpec::Random {
                seed: num_field(sched, "schedule", "seed")?,
            },
            "list" => ScheduleSpec::List(
                list_field::<usize>(sched, "schedule", "picks")?
                    .into_iter()
                    .map(ProcessId)
                    .collect(),
            ),
            other => return Err(format!("unknown schedule kind {other:?}")),
        };
        let crashes = field_or(&obj, "case", "crashes")?
            .array_or("crashes")?
            .iter()
            .map(|c| {
                Ok((
                    ProcessId(num_field(c, "crash", "pid")?),
                    num_field(c, "crash", "at")?,
                ))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let faults = field_or(&obj, "case", "faults")?;
        let spurious = list_field(faults, "faults", "spurious")?;
        let corruptions = field_or(faults, "faults", "corruptions")?
            .array_or("corruptions")?
            .iter()
            .map(|c| {
                let clear = match text_field(c, "corruption", "clear")?.as_str() {
                    "true" => true,
                    "false" => false,
                    other => return Err(format!("bad bool {other:?}")),
                };
                Ok((num_field(c, "corruption", "at")?, clear))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let value_seed = num_field(faults, "faults", "value_seed")?;
        let recovery = match obj.field("recovery") {
            Some(r) => Some(RecoverySpec {
                delay: num_field(r, "recovery", "delay")?,
                budget: num_field(r, "recovery", "budget")?,
            }),
            None => None,
        };
        let provenance = match obj.field("provenance") {
            Some(p) => Some(Provenance {
                sweep_seed: num_field(p, "provenance", "sweep_seed")?,
                trial_index: num_field(p, "provenance", "trial_index")?,
            }),
            None => None,
        };
        Ok(ReproCase {
            experiment: text_field(&obj, "case", "experiment")?,
            algorithm: text_field(&obj, "case", "algorithm")?,
            n: num_field(&obj, "case", "n")?,
            toss,
            schedule,
            crashes: CrashPlan::at(crashes),
            recovery,
            faults: FaultPlan::at(spurious, corruptions, value_seed),
            max_events: num_field(&obj, "case", "max_events")?,
            max_steps: num_field(&obj, "case", "max_steps")?,
            outcome: text_field(&obj, "case", "outcome")?,
            class: text_field(&obj, "case", "class")?,
            provenance,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::{done, ll, sc};
    use crate::{FnAlgorithm, RegisterId, Value};

    fn contending_alg() -> impl Algorithm {
        FnAlgorithm::new("contending-sc", |pid: ProcessId, _n| {
            let r = RegisterId(0);
            ll(r, move |_| {
                sc(r, Value::from(pid.0 as i64), |ok, _| done(Value::from(ok)))
            })
            .into_program()
        })
    }

    fn sample_case() -> ReproCase {
        ReproCase {
            experiment: "e16".to_string(),
            algorithm: "wakeup-from-fetch&increment[hardened]".to_string(),
            n: 4,
            toss: TossSpec::Seeded(0xDEAD_BEEF),
            schedule: ScheduleSpec::List(vec![ProcessId(0), ProcessId(3), ProcessId(1)]),
            crashes: CrashPlan::at([(ProcessId(2), 7)]),
            recovery: None,
            faults: FaultPlan::at([3, 10], [(5, true), (9, false)], 0x1234),
            max_events: 1000,
            max_steps: 500,
            outcome: "BudgetExhausted { events: 40 }".to_string(),
            class: "stalled".to_string(),
            provenance: Some(Provenance {
                sweep_seed: 42,
                trial_index: 17,
            }),
        }
    }

    #[test]
    fn json_round_trip_preserves_every_field() {
        let case = sample_case();
        let text = case.to_json();
        assert!(text.ends_with('\n'));
        let back = ReproCase::from_json(&text).unwrap();
        assert_eq!(back, case);
    }

    #[test]
    fn json_round_trip_of_named_schedules_and_missing_provenance() {
        for schedule in [
            ScheduleSpec::RoundRobin,
            ScheduleSpec::Random { seed: 99 },
            ScheduleSpec::Hardware,
        ] {
            let case = ReproCase {
                schedule: schedule.clone(),
                provenance: None,
                toss: TossSpec::Zero,
                crashes: CrashPlan::none(),
                faults: FaultPlan::none(),
                ..sample_case()
            };
            let back = ReproCase::from_json(&case.to_json()).unwrap();
            assert_eq!(back, case);
        }
    }

    #[test]
    fn from_json_rejects_malformed_input() {
        assert!(ReproCase::from_json("").is_err());
        assert!(ReproCase::from_json("{\"n\":\"4\"}").is_err());
        assert!(ReproCase::from_json("[]").is_err());
        assert!(ReproCase::from_json("{\"n\":\"4\"} trailing").is_err());
    }

    #[test]
    fn execute_is_deterministic_and_trace_replays_identically() {
        let alg = contending_alg();
        let case = ReproCase {
            experiment: "test".to_string(),
            algorithm: "contending-sc".to_string(),
            n: 3,
            toss: TossSpec::Zero,
            schedule: ScheduleSpec::RoundRobin,
            crashes: CrashPlan::none(),
            recovery: None,
            faults: FaultPlan::none(),
            max_events: 10_000,
            max_steps: 10_000,
            outcome: String::new(),
            class: String::new(),
            provenance: None,
        };
        let first = execute(&case, &alg);
        let second = execute(&case, &alg);
        assert_eq!(first.outcome, second.outcome);
        assert_eq!(first.trace, second.trace);
        assert_eq!(
            first.exec.run().events(),
            second.exec.run().events(),
            "same case, same run"
        );
        assert_eq!(first.outcome, RunOutcome::Completed);
        assert!(!first.trace.is_empty());

        // The explicit trace reproduces the run event-for-event.
        let replay = execute(&case.materialized(first.trace.clone()), &alg);
        assert_eq!(replay.outcome, first.outcome);
        assert_eq!(replay.exec.run().events(), first.exec.run().events());

        // A hardware schedule (whose interleaving is unrecoverable)
        // triages under the round-robin stand-in.
        let hw = ReproCase {
            schedule: ScheduleSpec::Hardware,
            ..case
        };
        let triaged = execute(&hw, &alg);
        assert_eq!(triaged.outcome, first.outcome);
        assert_eq!(triaged.trace, first.trace);
    }

    #[test]
    fn execute_applies_crash_and_fault_plans() {
        let alg = contending_alg();
        let case = ReproCase {
            experiment: "test".to_string(),
            algorithm: "contending-sc".to_string(),
            n: 3,
            toss: TossSpec::Zero,
            schedule: ScheduleSpec::RoundRobin,
            crashes: CrashPlan::at([(ProcessId(1), 0)]),
            recovery: None,
            faults: FaultPlan::none(),
            max_events: 10_000,
            max_steps: 10_000,
            outcome: String::new(),
            class: String::new(),
            provenance: None,
        };
        let replayed = execute(&case, &alg);
        assert_eq!(replayed.outcome, RunOutcome::Crashed { pid: ProcessId(1) });
        assert!(replayed.trace.iter().all(|p| *p != ProcessId(1)));
    }

    #[test]
    fn shrink_reduces_schedule_process_set_and_fault_lists() {
        // Synthetic oracle: the failure reproduces exactly when p1 still
        // takes at least one step — everything else is noise the shrinker
        // should strip.
        let case = ReproCase {
            experiment: "test".to_string(),
            algorithm: "synthetic".to_string(),
            n: 4,
            toss: TossSpec::Zero,
            schedule: ScheduleSpec::List(vec![
                ProcessId(0),
                ProcessId(1),
                ProcessId(2),
                ProcessId(3),
                ProcessId(1),
                ProcessId(0),
                ProcessId(2),
            ]),
            crashes: CrashPlan::at([(ProcessId(3), 5)]),
            recovery: None,
            faults: FaultPlan::at([2, 8], [(4, true)], 77),
            max_events: 100,
            max_steps: 100,
            outcome: String::new(),
            class: "bad".to_string(),
            provenance: None,
        };
        let report = shrink(
            &case,
            |cand| {
                let ScheduleSpec::List(picks) = &cand.schedule else {
                    return None;
                };
                Some(if picks.contains(&ProcessId(1)) {
                    "bad".to_string()
                } else {
                    "good".to_string()
                })
            },
            10_000,
        );
        assert_eq!(
            report.case.schedule,
            ScheduleSpec::List(vec![ProcessId(1)]),
            "minimal schedule is one pick of p1"
        );
        assert!(report.case.crashes.is_empty(), "irrelevant crash removed");
        assert!(report.case.faults.is_empty(), "irrelevant faults removed");
        assert_eq!(report.final_size, 1);
        assert_eq!(report.initial_size, 11);
        assert!(!report.log.is_empty());
        assert!(report.replays > 0);
    }

    #[test]
    fn shrink_keeps_entries_the_failure_needs() {
        // The class depends on the spurious list being non-empty and the
        // crash surviving: shrinking must keep one of each.
        let case = ReproCase {
            experiment: "test".to_string(),
            algorithm: "synthetic".to_string(),
            n: 2,
            toss: TossSpec::Zero,
            schedule: ScheduleSpec::List(vec![ProcessId(0), ProcessId(1), ProcessId(0)]),
            crashes: CrashPlan::at([(ProcessId(0), 1), (ProcessId(1), 2)]),
            recovery: None,
            faults: FaultPlan::at([1, 2, 3], [], 5),
            max_events: 100,
            max_steps: 100,
            outcome: String::new(),
            class: "bad".to_string(),
            provenance: None,
        };
        let report = shrink(
            &case,
            |cand| {
                Some(
                    if !cand.faults.spurious().is_empty() && !cand.crashes.is_empty() {
                        "bad".to_string()
                    } else {
                        "good".to_string()
                    },
                )
            },
            10_000,
        );
        assert_eq!(report.case.faults.spurious().len(), 1);
        assert_eq!(report.case.crashes.len(), 1);
        assert!(report.case.schedule.is_empty(), "schedule was irrelevant");
        assert!(report.final_size < report.initial_size);
    }

    #[test]
    fn json_round_trip_preserves_recovery_spec() {
        let case = ReproCase {
            recovery: Some(RecoverySpec {
                delay: 16,
                budget: 2,
            }),
            ..sample_case()
        };
        let back = ReproCase::from_json(&case.to_json()).unwrap();
        assert_eq!(back, case);
        // A case without the field (any pre-recovery artifact) still
        // parses, as None.
        assert_eq!(sample_case().recovery, None);
        let back = ReproCase::from_json(&sample_case().to_json()).unwrap();
        assert_eq!(back.recovery, None);
    }

    #[test]
    fn execute_recovers_crash_victims_when_the_case_says_so() {
        let alg = contending_alg();
        let base = ReproCase {
            experiment: "test".to_string(),
            algorithm: "contending-sc".to_string(),
            n: 3,
            toss: TossSpec::Zero,
            schedule: ScheduleSpec::RoundRobin,
            crashes: CrashPlan::at([(ProcessId(1), 0)]),
            recovery: None,
            faults: FaultPlan::none(),
            max_events: 10_000,
            max_steps: 10_000,
            outcome: String::new(),
            class: String::new(),
            provenance: None,
        };
        // Crash-stop: the victim stays down.
        let stopped = execute(&base, &alg);
        assert_eq!(stopped.outcome, RunOutcome::Crashed { pid: ProcessId(1) });
        // Crash-recovery: the same plan, but the victim comes back and
        // the run completes. Replay of the recovering run is still
        // deterministic.
        let recovering = ReproCase {
            recovery: Some(RecoverySpec {
                delay: 2,
                budget: 1,
            }),
            ..base
        };
        let first = execute(&recovering, &alg);
        assert_eq!(first.outcome, RunOutcome::Completed);
        assert_eq!(first.exec.run().counters().recoveries[1], 1);
        let second = execute(&recovering, &alg);
        assert_eq!(first.exec.run().events(), second.exec.run().events());
        assert_eq!(first.trace, second.trace);
    }

    #[test]
    fn shrink_respects_the_replay_budget() {
        let case = ReproCase {
            schedule: ScheduleSpec::List(vec![ProcessId(0); 64]),
            crashes: CrashPlan::none(),
            faults: FaultPlan::none(),
            provenance: None,
            class: "bad".to_string(),
            ..sample_case()
        };
        let report = shrink(&case, |_| Some("bad".to_string()), 3);
        assert!(report.replays <= 3);
    }
}
