//! Checkpointed, resumable sweep jobs.
//!
//! The `2^n` subset sweeps (E4/E13), the sampled expectation sweep
//! (E6), and the five fault tables (E15/E16/E17/E19 and E20's simulator
//! half) are the repository's longest-running workloads, and a plain
//! `llsc table` invocation loses everything when the process dies. This
//! module wraps those sweeps in a *job*: the trial index space is
//! partitioned into contiguous chunks, each chunk executes through the
//! ordinary [`Sweep`] path, and after every chunk the accumulated
//! per-trial records are persisted as an atomic, checksummed checkpoint
//! ([`llsc_shmem::checkpoint`]). Because per-trial work is deterministic
//! in the spec alone, a job killed at *any* point — `SIGKILL` included —
//! resumes from its newest valid checkpoint and produces a final
//! artifact byte-identical to an uninterrupted run, at any thread count.
//!
//! The robustness semantics, in one place:
//!
//! * **cancellation** — a job runs under one [`CancelToken`]
//!   ([`JobControl::cancel`]). Each chunk derives from it a token
//!   that shares its flag and carries the chunk's wall-clock deadline,
//!   and hands that token to the chunk's [`Sweep`]; the executor polls it
//!   every 512 events, so in-flight trials panic promptly once the job is
//!   cancelled or the deadline passes. Nothing is global: concurrent jobs
//!   in one process cannot stop each other.
//! * **chunk timeout** — a chunk that unwinds after its deadline is
//!   recorded as a `timeout` failure.
//! * **no retries** — each chunk runs once per invocation. Its trials are
//!   a pure function of the spec, so running the same work again in the
//!   same invocation could only repeat the failure; `llsc job resume`
//!   ([`resume_job`]) re-runs every chunk missing from the ledger,
//!   failed ones included, which is the one way to re-attempt a chunk.
//! * **interrupt flush** — cancelling the job's token (the `llsc job` CLI
//!   does so from its SIGINT/SIGTERM handler) aborts the in-flight
//!   chunk, flushes a final checkpoint, and exits with the interrupted
//!   status; nothing completed is lost.
//! * **graceful degradation** — a failed chunk is recorded in the job
//!   manifest; the job still completes,
//!   emitting a *partial* artifact (rows whose trials all finished) plus
//!   an explicit `incomplete` manifest and a nonzero exit.
//!
//! Each experiment exists once: its grid ([`JobSpec::default_for`], which
//! `llsc table` reads too), its cell layout (`JobSpec::cells`), its
//! per-trial code (`JobSpec::run_trials`) and its fold from trial records
//! to typed rows and a [`Table`] (`JobRow`). The five fault tables share
//! one row, [`FaultRow`], the sum of a cell's trials; each table is a
//! title plus an ordered column list read off it. A fault trial is one
//! [`ReproCase`] (`JobSpec::case_for`) run through
//! [`crate::repro::run_case_with`], so a failure ships the very case that
//! failed. The direct table functions (`crate::e4_indistinguishability`
//! and the E6/E13/E15/E16/E17/E19/E20 ones) run the same code over the
//! whole trial space in memory; the fault tables do so under panic
//! isolation (`fault_sweep`), reporting failed trials next to the table.
//!
//! Layout of a job directory:
//!
//! ```text
//! <dir>/spec.json                  the JobSpec (written by `run`)
//! <dir>/checkpoints/ckpt-*.llsc    rolling checkpoints (2 newest kept)
//! <dir>/artifact.json              final {"tables":[…]} artifact
//! <dir>/manifest.json              status, chunk ledger, failures
//! ```

use crate::experiments::{
    e19_recovery_spec, e20_arm, E13Row, E4Row, E6Row, FaultRow, Labeled, E15_ALGORITHMS,
    E16_ALGORITHMS, E16_TWINS, E17_ALGORITHMS, E17_MAX_STEPS, E17_SHRINK_BUDGET, E19_ALGORITHMS,
    E20_ALGORITHMS, E20_HEADERS, E20_MAX_STEPS,
};
use crate::harness::Experiment;
use crate::registry::DEFAULT_MAX_EVENTS;
use crate::repro::{run_case_with, COMPLETED_CLASSES};
use crate::table::Table;
use llsc_core::{
    indist_subset_range, report_from_samples, sample_expectation, AdversaryConfig,
    ExpectationSample,
};
use llsc_shmem::json::{self, list_field, num_field, push_field, push_list, text_field};
use llsc_shmem::repro::{Provenance, ReproCase, ScheduleSpec, TossSpec};
use llsc_shmem::{
    atomic_write, checkpoint, panic_message, Algorithm, CancelToken, ChaosPlan, CrashPlan,
    FaultPlan, RecoverySpec, RunOutcome, SeededTosses, Sweep, TrialFailure, ZeroTosses,
};
use llsc_wakeup::{correct_algorithms, randomized_algorithms};
use std::collections::BTreeSet;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// The experiments a job can drive.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobExperiment {
    /// E4 — Lemma 5.2 indistinguishability, exhaustive over subsets.
    E4,
    /// E6 — sampled expected complexity of the randomized algorithms.
    E6,
    /// E13 — appendix claims A.2–A.9 + Lemma 5.2, exhaustive over subsets.
    E13,
    /// E15 — crash-fault degradation.
    E15,
    /// E16 — memory-fault degradation of the hardened algorithms.
    E16,
    /// E17 — combined chaos mode with on-the-spot reproducer shrinking.
    E17,
    /// E19 — recovery cost vs crash intensity.
    E19,
    /// E20 — chaos degradation classes and recovery RMR cost (the
    /// simulator half; the hardware half is `llsc bench e20`).
    E20,
}

impl JobExperiment {
    /// Every job experiment, in artifact-tag order.
    pub(crate) const ALL: [JobExperiment; 8] = [
        JobExperiment::E4,
        JobExperiment::E6,
        JobExperiment::E13,
        JobExperiment::E15,
        JobExperiment::E16,
        JobExperiment::E17,
        JobExperiment::E19,
        JobExperiment::E20,
    ];

    /// Parses the artifact's experiment tag (`"e4"`, `"e6"`, …, `"e20"`).
    ///
    /// # Errors
    ///
    /// Names the unknown tag.
    pub fn parse(tag: &str) -> Result<JobExperiment, String> {
        JobExperiment::ALL
            .into_iter()
            .find(|e| e.tag() == tag)
            .ok_or_else(|| {
                let tags: Vec<&str> = JobExperiment::ALL.iter().map(|e| e.tag()).collect();
                format!(
                    "unknown job experiment `{tag}` (want one of {})",
                    tags.join(", ")
                )
            })
    }

    /// The artifact tag this experiment serialises as.
    pub fn tag(&self) -> &'static str {
        match self {
            JobExperiment::E4 => "e4",
            JobExperiment::E6 => "e6",
            JobExperiment::E13 => "e13",
            JobExperiment::E15 => "e15",
            JobExperiment::E16 => "e16",
            JobExperiment::E17 => "e17",
            JobExperiment::E19 => "e19",
            JobExperiment::E20 => "e20",
        }
    }

    /// The labelled algorithms of a fault experiment, in row order;
    /// `None` for the subset and expectation sweeps.
    pub(crate) fn catalog(&self) -> Option<&'static [Labeled]> {
        match self {
            JobExperiment::E4 | JobExperiment::E6 | JobExperiment::E13 => None,
            JobExperiment::E15 => Some(E15_ALGORITHMS),
            JobExperiment::E16 => Some(E16_ALGORITHMS),
            JobExperiment::E17 => Some(E17_ALGORITHMS),
            JobExperiment::E19 => Some(E19_ALGORITHMS),
            JobExperiment::E20 => Some(E20_ALGORITHMS),
        }
    }
}

/// A resumable job's complete description. Everything a trial's result
/// depends on lives here, so the spec *is* the reproducibility contract:
/// two runs of the same spec — chunked or not, interrupted or not, at any
/// thread count — emit byte-identical artifacts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobSpec {
    /// Which experiment the job drives.
    pub experiment: JobExperiment,
    /// A human-readable job name (recorded in the manifest).
    pub name: String,
    /// The sweep seed; per-trial seeds derive from `(seed, index)`.
    pub seed: u64,
    /// Process counts to sweep.
    pub ns: Vec<usize>,
    /// Toss-assignment seeds (E4 only; `0` means [`ZeroTosses`]).
    pub toss_seeds: Vec<u64>,
    /// Toss samples per `(algorithm, n)` estimate (E6), or trials per
    /// `(algorithm, intensity)` cell (the fault experiments).
    pub samples: u64,
    /// The fault experiments' grid axis: crash count `k` (E15/E19), fault
    /// budget `f` (E16) or chaos intensity (E17/E20).
    pub intensities: Vec<u64>,
    /// Recovery-delay override for the crash-recovery trials (E19, and
    /// E20's crash-recovery arm; `0` keeps their own regime). Part of the
    /// fingerprint: two jobs with different recovery knobs never share
    /// checkpoints.
    pub recovery_delay: u64,
    /// Respawn-budget override for the crash-recovery trials (E19, and
    /// E20's crash-recovery arm; `0` keeps their own regime).
    pub respawn_budget: u64,
    /// Number of chunks the trial space is partitioned into. Chunk
    /// boundaries depend on this alone — never on the thread count — so
    /// checkpoints from different `--threads` runs are interchangeable.
    pub chunks: usize,
    /// Per-chunk wall-clock watchdog in milliseconds (`0` disables it).
    pub chunk_timeout_ms: u64,
    /// Per-trial executor event budget override (`0` keeps the default).
    /// Starving it is the supported way to exercise the failed-chunk path
    /// end to end.
    pub max_events: u64,
}

impl JobSpec {
    /// The default spec for an experiment: its published parameter grid
    /// — the one the experiment's registry entry (`llsc table <id>`)
    /// reads — split into 8 chunks.
    pub fn default_for(experiment: JobExperiment) -> JobSpec {
        let (ns, toss_seeds, samples, intensities) = match experiment {
            JobExperiment::E4 => (vec![4, 6], vec![0, 1, 42], 0, vec![]),
            JobExperiment::E6 => (vec![4, 16, 64], vec![], 30, vec![]),
            JobExperiment::E13 => (vec![4, 6], vec![], 0, vec![]),
            JobExperiment::E16 => (vec![8], vec![], 6, vec![0, 1, 2, 4, 8]),
            JobExperiment::E17 => (vec![6], vec![], 4, vec![0, 1, 2, 4]),
            JobExperiment::E15 | JobExperiment::E19 | JobExperiment::E20 => {
                (vec![8], vec![], 6, vec![0, 1, 2, 4])
            }
        };
        JobSpec {
            experiment,
            name: format!("{}-job", experiment.tag()),
            seed: 0,
            ns,
            toss_seeds,
            samples,
            intensities,
            recovery_delay: 0,
            respawn_budget: 0,
            chunks: 8,
            chunk_timeout_ms: 0,
            max_events: 0,
        }
    }

    /// Renders the spec in its canonical JSON form (all scalars as
    /// strings, fixed key order — the form [`JobSpec::fingerprint`]
    /// hashes). Version `2` dropped version 1's two chunk-retry keys.
    pub fn render(&self) -> String {
        let mut out = String::from("{\"version\":\"2\"");
        push_field(&mut out, "experiment", self.experiment.tag());
        push_field(&mut out, "name", &self.name);
        push_field(&mut out, "seed", &self.seed.to_string());
        push_list(&mut out, "ns", &self.ns);
        push_list(&mut out, "toss_seeds", &self.toss_seeds);
        push_list(&mut out, "intensities", &self.intensities);
        for (key, value) in [
            ("samples", self.samples),
            ("recovery_delay", self.recovery_delay),
            ("respawn_budget", self.respawn_budget),
            ("chunks", self.chunks as u64),
            ("chunk_timeout_ms", self.chunk_timeout_ms),
            ("max_events", self.max_events),
        ] {
            push_field(&mut out, key, &value.to_string());
        }
        out.push_str("}\n");
        out
    }

    /// Parses a spec from its JSON form.
    ///
    /// # Errors
    ///
    /// Names the first missing or malformed field, or an unsupported
    /// version (a version-1 spec still carries the retry keys this
    /// format dropped).
    pub fn parse(text: &str) -> Result<JobSpec, String> {
        const WHAT: &str = "job spec";
        let value = json::parse(text)?;
        let num = |key: &str| num_field::<u64>(&value, WHAT, key);
        let version = text_field(&value, WHAT, "version")?;
        if version != "2" {
            return Err(format!("job spec: unsupported version `{version}`"));
        }
        let spec = JobSpec {
            experiment: JobExperiment::parse(&text_field(&value, WHAT, "experiment")?)?,
            name: text_field(&value, WHAT, "name")?,
            seed: num("seed")?,
            ns: list_field(&value, WHAT, "ns")?,
            toss_seeds: list_field(&value, WHAT, "toss_seeds")?,
            samples: num("samples")?,
            intensities: list_field(&value, WHAT, "intensities")?,
            recovery_delay: num("recovery_delay")?,
            respawn_budget: num("respawn_budget")?,
            chunks: num_field(&value, WHAT, "chunks")?,
            chunk_timeout_ms: num("chunk_timeout_ms")?,
            max_events: num("max_events")?,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Checks that the spec describes a runnable job: at least one chunk,
    /// positive process counts (at most 16 for the exhaustive subset
    /// sweeps), and a non-empty grid for its experiment.
    ///
    /// # Errors
    ///
    /// Names the first violated rule.
    pub fn validate(&self) -> Result<(), String> {
        if self.chunks == 0 {
            return Err("job spec: `chunks` must be at least 1".into());
        }
        if self.ns.is_empty() {
            return Err("job spec: `ns` must not be empty".into());
        }
        if self.ns.contains(&0) {
            return Err("job spec: every n must be positive".into());
        }
        if matches!(self.experiment, JobExperiment::E4 | JobExperiment::E13)
            && self.ns.iter().any(|&n| n > 16)
        {
            return Err("job spec: exhaustive subset sweeps need n <= 16".into());
        }
        let tag = self.experiment.tag();
        match self.experiment {
            JobExperiment::E4 if self.toss_seeds.is_empty() => {
                Err("job spec: e4 needs at least one toss seed".into())
            }
            JobExperiment::E6 if self.samples == 0 => {
                Err("job spec: e6 needs at least one sample".into())
            }
            JobExperiment::E4 | JobExperiment::E6 | JobExperiment::E13 => Ok(()),
            _ if self.ns.len() != 1 => Err(format!("job spec: {tag} sweeps exactly one n per job")),
            _ if self.intensities.is_empty() => {
                Err(format!("job spec: {tag} needs at least one intensity"))
            }
            _ if self.samples == 0 => {
                Err(format!("job spec: {tag} needs at least one trial per cell"))
            }
            _ => Ok(()),
        }
    }

    /// The FNV-1a fingerprint of the canonical rendering — recorded in
    /// every checkpoint so `resume` refuses state from a different spec.
    pub fn fingerprint(&self) -> u64 {
        llsc_shmem::fnv64(self.render().as_bytes())
    }

    /// The subset and expectation sweeps' algorithms, in row order
    /// (empty for a fault experiment, whose trials build theirs from its
    /// catalog).
    fn algorithms(&self) -> Vec<Box<dyn Algorithm>> {
        match self.experiment {
            JobExperiment::E4 | JobExperiment::E13 => correct_algorithms()
                .into_iter()
                .chain(randomized_algorithms())
                .collect(),
            JobExperiment::E6 => randomized_algorithms(),
            _ => Vec::new(),
        }
    }

    /// The row label of every algorithm this job sweeps, in row order.
    fn labels(&self) -> Vec<String> {
        match self.experiment.catalog() {
            Some(catalog) => catalog.iter().map(|(label, _)| label.to_string()).collect(),
            None => self
                .algorithms()
                .iter()
                .map(|alg| alg.name().to_string())
                .collect(),
        }
    }

    /// The flat trial-space cells, in row order. A *cell* is the unit the
    /// fold groups by: one `(algorithm, n, toss seed)` subset sweep for
    /// E4, one `(algorithm, n)` sweep for E6/E13, one `(algorithm,
    /// intensity)` cell for a fault experiment.
    pub(crate) fn cells(&self) -> Vec<Cell> {
        let algs = self.labels().len();
        let mut cells = Vec::new();
        let mut start = 0usize;
        let mut push = |alg: usize, n: usize, toss_seed: u64, intensity: usize, len: usize| {
            cells.push(Cell {
                start,
                len,
                alg,
                n,
                toss_seed,
                intensity,
            });
            start += len;
        };
        // Algorithm-major, then n, then toss seed (E4) or intensity (the
        // fault experiments).
        for alg in 0..algs {
            for &n in &self.ns {
                match self.experiment {
                    JobExperiment::E4 => {
                        for &seed in &self.toss_seeds {
                            push(alg, n, seed, 0, 1usize << n);
                        }
                    }
                    JobExperiment::E6 => push(alg, n, 0, 0, self.samples as usize),
                    JobExperiment::E13 => push(alg, n, 0, 0, 1usize << n),
                    _ => {
                        for &intensity in &self.intensities {
                            push(alg, n, 0, intensity as usize, self.samples as usize);
                        }
                    }
                }
            }
        }
        cells
    }

    /// Total trials in the job's flat index space.
    pub(crate) fn total_trials(&self) -> usize {
        self.cells().iter().map(|c| c.len).sum()
    }

    /// The adversary configuration the job's trials run under.
    fn adversary_config(&self) -> AdversaryConfig {
        let mut cfg = match self.experiment {
            JobExperiment::E6 => AdversaryConfig {
                max_rounds: 10_000,
                ..AdversaryConfig::default()
            },
            _ => AdversaryConfig::default(),
        };
        if self.max_events > 0 {
            cfg.executor.max_events = self.max_events;
        }
        cfg
    }

    /// Runs the trials `trials` of the job's flat index space on `sweep`
    /// and returns their records in index order — the one trial path of
    /// both a job chunk and a direct in-memory run. Trial identity is the
    /// global index alone, so any partition of the index space yields the
    /// same records.
    ///
    /// # Errors
    ///
    /// A subset sweep or expectation sample that hit an executor budget,
    /// with the cell it belongs to. Fault trials panic instead (see
    /// [`JobSpec::fault_trial`]).
    pub(crate) fn run_trials(
        &self,
        trials: Range<usize>,
        sweep: &Sweep,
    ) -> Result<Vec<TrialRecord>, String> {
        let algs = self.algorithms();
        let cfg = self.adversary_config();
        let mut records = Vec::with_capacity(trials.len());
        for (cell_index, cell) in self.cells().iter().enumerate() {
            let lo = trials.start.max(cell.start);
            let hi = trials.end.min(cell.start + cell.len);
            if lo >= hi {
                continue;
            }
            let local = lo - cell.start..hi - cell.start;
            let outcomes: Vec<Outcome> = match self.experiment {
                JobExperiment::E4 | JobExperiment::E13 => {
                    let alg = algs[cell.alg].as_ref();
                    let toss: Arc<dyn llsc_shmem::TossAssignment> = if cell.toss_seed == 0 {
                        Arc::new(ZeroTosses)
                    } else {
                        Arc::new(SeededTosses::new(cell.toss_seed))
                    };
                    let check_claims = self.experiment == JobExperiment::E13;
                    indist_subset_range(alg, cell.n, toss, &cfg, check_claims, sweep, local)
                        .map_err(|e| format!("{}: {e:?}", self.cell_label(alg.name(), cell)))?
                        .records
                        .into_iter()
                        .map(|r| Outcome::Subset {
                            mask: r.mask,
                            comparisons: r.comparisons,
                            claims: r.claim_instances,
                            violations: r.violations,
                        })
                        .collect()
                }
                JobExperiment::E6 => {
                    let alg = algs[cell.alg].as_ref();
                    let seeds: Vec<u64> = (local.start as u64..local.end as u64).collect();
                    sweep
                        .run(&seeds, |_trial, &seed| {
                            sample_expectation(alg, cell.n, seed, &cfg).map(Outcome::Sample)
                        })
                        .into_iter()
                        .collect::<Result<_, _>>()
                        .map_err(|e| format!("{}: {e:?}", self.cell_label(alg.name(), cell)))?
                }
                _ => sweep.run_indexed_range_with_scratch(
                    lo,
                    hi - lo,
                    || (),
                    |(), trial| Outcome::Fault(self.fault_trial(cell, trial.seed)),
                ),
            };
            records.extend(
                outcomes
                    .into_iter()
                    .zip(lo..)
                    .map(|(outcome, index)| TrialRecord {
                        index,
                        cell: cell_index,
                        outcome,
                    }),
            );
        }
        Ok(records)
    }

    /// Names `cell`, run by the algorithm labelled `alg`, in failure
    /// reports.
    fn cell_label(&self, alg: &str, cell: &Cell) -> String {
        match self.experiment {
            JobExperiment::E4 => format!("alg={alg} n={} toss_seed={}", cell.n, cell.toss_seed),
            JobExperiment::E6 | JobExperiment::E13 => format!("alg={alg} n={}", cell.n),
            _ => format!("alg={alg} n={} intensity={}", cell.n, cell.intensity),
        }
    }

    /// The per-trial event budget of a fault trial.
    fn event_budget(&self) -> u64 {
        if self.max_events > 0 {
            self.max_events
        } else {
            DEFAULT_MAX_EVENTS
        }
    }

    /// A fresh instance of the algorithm `cell` of a fault experiment
    /// runs.
    pub(crate) fn fault_algorithm(&self, cell: &Cell) -> Box<dyn Algorithm> {
        let catalog = self.experiment.catalog().expect("a fault experiment");
        (catalog[cell.alg].1)(cell.n)
    }

    /// The replayable case fault trial `seed` of `cell` runs — the one
    /// description of the trial, shared by its run, its failure report
    /// and `llsc replay`. E15/E16/E19 trials run round-robin with `k`
    /// seeded crashes, `f` seeded memory faults, or `k` seeded crashes
    /// recovered under the E19 regime; E17/E20 trials run a seeded
    /// [`ChaosPlan`] (E20's tailored to its algorithm's arm). Crash
    /// points and fault times land early in the run, where every
    /// algorithm still has live waiters to strand and SCs in flight. The
    /// spec's recovery overrides apply to every crash-recovery case.
    pub(crate) fn case_for(&self, cell: &Cell, seed: u64) -> ReproCase {
        let (n, x) = (cell.n, cell.intensity);
        let label = self.experiment.catalog().expect("a fault experiment")[cell.alg].0;
        let window = 8 * n as u64;
        let mut case = match self.experiment {
            JobExperiment::E17 => ChaosPlan::seeded(seed, n, x, window).to_case(
                "e17",
                label,
                n,
                TossSpec::Seeded(seed),
                self.event_budget(),
                E17_MAX_STEPS,
            ),
            JobExperiment::E20 => crate::e20_case(cell.alg, n, x, seed, self.event_budget()),
            experiment => {
                let memory_faults = experiment == JobExperiment::E16;
                ReproCase {
                    experiment: experiment.tag().to_string(),
                    algorithm: label.to_string(),
                    n,
                    toss: TossSpec::Seeded(seed),
                    schedule: ScheduleSpec::RoundRobin,
                    crashes: if memory_faults {
                        CrashPlan::none()
                    } else {
                        CrashPlan::seeded(seed, n, x, window)
                    },
                    recovery: (experiment == JobExperiment::E19).then(|| e19_recovery_spec(n)),
                    faults: if memory_faults {
                        FaultPlan::seeded(seed, x, x, 4 * n as u64)
                    } else {
                        FaultPlan::none()
                    },
                    max_events: self.event_budget(),
                    max_steps: E20_MAX_STEPS,
                    outcome: String::new(),
                    class: String::new(),
                    provenance: None,
                }
            }
        };
        case.recovery = case.recovery.map(|_| self.recovery(n));
        case
    }

    /// The crash-recovery regime at `n` processes: [`e19_recovery_spec`]
    /// under the spec's overrides.
    fn recovery(&self, n: usize) -> RecoverySpec {
        let regime = e19_recovery_spec(n);
        let or = |value: u64, default: u64| if value > 0 { value } else { default };
        RecoverySpec {
            delay: or(self.recovery_delay, regime.delay),
            budget: or(self.respawn_budget, regime.budget),
        }
    }

    /// The reproduction context a failing fault trial records: its
    /// algorithm, its fault/crash plan and its toss seed.
    pub(crate) fn trial_context(&self, cell: &Cell, seed: u64) -> String {
        let (n, x) = (cell.n, cell.intensity);
        let case = self.case_for(cell, seed);
        let window = 8 * n as u64;
        let plan = match self.experiment {
            JobExperiment::E15 => format!("crash-plan:k={x},window={window}"),
            JobExperiment::E16 => case.faults.summary(),
            JobExperiment::E19 => {
                let recovery = case.recovery.expect("E19 cases recover their victims");
                format!(
                    "recovery-crash-plan:k={x},window={window},delay={},budget={}",
                    recovery.delay, recovery.budget
                )
            }
            JobExperiment::E20 => format!(
                "arm={} {}",
                e20_arm(cell.alg),
                ChaosPlan::seeded(seed, n, x, window).summary()
            ),
            _ => ChaosPlan::seeded(seed, n, x, window).summary(),
        };
        format!(
            "alg={} n={n} {plan} tosses=seeded:{seed:#018x}",
            case.algorithm
        )
    }

    /// Runs fault trial `seed` of `cell` as its [`JobSpec::case_for`]
    /// case and reads its class, delivered faults and cost counters off
    /// the run. An E17 trial that does not recover is shrunk to a minimal
    /// reproducer on the spot.
    ///
    /// # Panics
    ///
    /// When the execution itself panicked (its payload is re-raised),
    /// when no column of the experiment's table counts the trial's class
    /// (an E15/E19 trial that aborted, an E16 trial that crashed, any
    /// `respawn-exhausted` trial), and when a fault-free trial (grid
    /// value 0) breaks its experiment's promise: E15/E19 trials must
    /// complete, E16 trials must recover at exactly their unhardened
    /// twin's access count, and E17/E20 trials must recover. The
    /// enclosing sweep records the trial as failed, with its case.
    pub(crate) fn fault_trial(&self, cell: &Cell, seed: u64) -> FaultTrial {
        let alg = self.fault_algorithm(cell);
        let name = alg.name();
        let mut case = self.case_for(cell, seed);
        let run = run_case_with(&case, alg.as_ref());
        let Some(outcome) = run.outcome else {
            panic!("{}", run.panic.unwrap_or_default());
        };
        assert!(
            self.experiment.counts(&run.class),
            "{name}: no {} column counts class `{}`, got {outcome} (seed {seed:#018x})",
            self.experiment.tag(),
            run.class,
        );
        if cell.intensity == 0 {
            let completed = matches!(outcome, RunOutcome::Completed);
            match self.experiment {
                JobExperiment::E15 => assert!(
                    completed,
                    "{name}: fault-free trial must complete, got {outcome} (seed {seed:#018x})"
                ),
                JobExperiment::E19 => assert!(
                    completed,
                    "{name}: crash-free trial must complete, got {outcome} (seed {seed:#018x})"
                ),
                JobExperiment::E16 => {
                    assert!(
                        completed && run.safe,
                        "{name}: fault-free trial must complete correctly, got {outcome} \
                         (seed {seed:#018x})"
                    );
                    let (twin_label, twin) = E16_TWINS[cell.alg];
                    let mut twin_case = self.case_for(cell, seed);
                    twin_case.algorithm = twin_label.to_string();
                    twin_case.faults = FaultPlan::none();
                    let twin_run = run_case_with(&twin_case, twin(cell.n).as_ref());
                    assert_eq!(
                        run.accesses, twin_run.accesses,
                        "{name}: hardening must be zero-cost without faults, but spent {} \
                         accesses vs the twin's {} (seed {seed:#018x})",
                        run.accesses, twin_run.accesses
                    );
                }
                _ => assert!(
                    run.class == "recovered",
                    "{name}: chaos-free trial must recover, got {} ({}) (seed {seed:#018x})",
                    run.class,
                    run.outcome_debug,
                ),
            }
        }
        let shrunk =
            (self.experiment == JobExperiment::E17 && run.class != "recovered").then(|| {
                case.outcome = run.outcome_debug.clone();
                case.class = run.class.clone();
                crate::repro::shrink_case(&case, E17_SHRINK_BUDGET)
                    .expect("E17 algorithm labels resolve through the catalogs")
                    .final_size
            });
        FaultTrial {
            class: run.class,
            safe: run.safe,
            detected: run.detected,
            crashes: run.counters.total_crashes(),
            recoveries: run.counters.total_recoveries(),
            spurious_sc: run.faults.spurious_sc,
            corruptions: run.faults.corruptions,
            accesses: run.accesses,
            cc_rmrs: run.counters.total_cc_rmrs(),
            dsm_rmrs: run.counters.total_dsm_rmrs(),
            shrunk,
        }
    }
}

/// One contiguous cell of the flat trial space.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Cell {
    /// Global index of the cell's first trial.
    pub(crate) start: usize,
    /// Number of trials in the cell.
    pub(crate) len: usize,
    /// Index into the job's algorithms, in row order.
    pub(crate) alg: usize,
    /// Process count.
    pub(crate) n: usize,
    /// Toss seed (E4; `0` means [`ZeroTosses`]).
    pub(crate) toss_seed: u64,
    /// The fault experiments' grid value: crash count, fault budget or
    /// chaos intensity.
    pub(crate) intensity: usize,
}

/// Splits `total` trials into `chunks` contiguous `(start, len)` ranges,
/// the first `total % chunks` of them one trial longer. Depends only on
/// its arguments, so chunk boundaries are stable across invocations.
pub(crate) fn chunk_bounds(total: usize, chunks: usize) -> Vec<(usize, usize)> {
    let chunks = chunks.clamp(1, total.max(1));
    let base = total / chunks;
    let extra = total % chunks;
    let mut bounds = Vec::with_capacity(chunks);
    let mut start = 0;
    for i in 0..chunks {
        let len = base + usize::from(i < extra);
        bounds.push((start, len));
        start += len;
    }
    bounds
}

/// One trial's persisted result.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct TrialRecord {
    /// Global trial index.
    pub(crate) index: usize,
    /// Cell index (fold group).
    pub(crate) cell: usize,
    /// What the trial found.
    pub(crate) outcome: Outcome,
}

/// What one trial found, by experiment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum Outcome {
    /// An E4/E13 subset comparison.
    Subset {
        /// Subset bitmask within the cell.
        mask: usize,
        /// Lemma 5.2 comparisons performed.
        comparisons: usize,
        /// Appendix-claim instances evaluated.
        claims: usize,
        /// Violations, rendered.
        violations: Vec<String>,
    },
    /// An E6 toss-assignment sample.
    Sample(ExpectationSample),
    /// A classified fault trial (E15/E16/E17/E19/E20).
    Fault(FaultTrial),
}

/// One fault trial's degradation class, delivered faults and cost.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct FaultTrial {
    /// Degradation class (`recovered`, `detected-wrong`, …).
    class: String,
    /// Whether the run (or its prefix) met its safety property.
    safe: bool,
    /// Detections published to the hardened telemetry registers.
    detected: u64,
    /// Crashes delivered.
    crashes: u64,
    /// Recoveries performed.
    recoveries: u64,
    /// Spurious SC failures delivered.
    spurious_sc: u64,
    /// Register corruptions delivered.
    corruptions: u64,
    /// Shared-memory accesses.
    accesses: u64,
    /// CC-model remote memory references billed.
    cc_rmrs: u64,
    /// DSM-model remote memory references billed.
    dsm_rmrs: u64,
    /// The minimal reproducer's size, for a shrunk E17 trial.
    shrunk: Option<usize>,
}

impl TrialRecord {
    fn render(&self, out: &mut String) {
        let kind = match self.outcome {
            Outcome::Subset { .. } => "subset",
            Outcome::Sample(_) => "sample",
            Outcome::Fault(_) => "fault",
        };
        out.push_str("{\"kind\":");
        json::push_string(out, kind);
        push_field(out, "index", &self.index.to_string());
        push_field(out, "cell", &self.cell.to_string());
        let opt = |v: Option<u64>| v.map_or("none".to_string(), |x| x.to_string());
        match &self.outcome {
            Outcome::Subset {
                mask,
                comparisons,
                claims,
                violations,
            } => {
                push_field(out, "mask", &mask.to_string());
                push_field(out, "comparisons", &comparisons.to_string());
                push_field(out, "claims", &claims.to_string());
                push_list(out, "violations", violations);
            }
            Outcome::Sample(sample) => {
                push_field(out, "terminated", &u8::from(sample.terminated).to_string());
                push_field(out, "wakeup_ok", &u8::from(sample.wakeup_ok).to_string());
                push_field(out, "winner_steps", &opt(sample.winner_steps));
                push_field(out, "max_steps", &opt(sample.max_steps));
            }
            Outcome::Fault(t) => {
                push_field(out, "class", &t.class);
                push_field(out, "safe", &u8::from(t.safe).to_string());
                for (key, value) in [
                    ("detected", t.detected),
                    ("crashes", t.crashes),
                    ("recoveries", t.recoveries),
                    ("spurious_sc", t.spurious_sc),
                    ("corruptions", t.corruptions),
                    ("accesses", t.accesses),
                    ("cc_rmrs", t.cc_rmrs),
                    ("dsm_rmrs", t.dsm_rmrs),
                ] {
                    push_field(out, key, &value.to_string());
                }
                push_field(out, "shrunk", &opt(t.shrunk.map(|s| s as u64)));
            }
        }
        out.push('}');
    }

    fn parse(value: &json::Value) -> Result<TrialRecord, String> {
        const WHAT: &str = "trial record";
        let num = |key: &str| num_field::<u64>(value, WHAT, key);
        let opt = |key: &str| -> Result<Option<u64>, String> {
            match text_field(value, WHAT, key)?.as_str() {
                "none" => Ok(None),
                _ => num(key).map(Some),
            }
        };
        let outcome = match text_field(value, WHAT, "kind")?.as_str() {
            "subset" => Outcome::Subset {
                mask: num_field(value, WHAT, "mask")?,
                comparisons: num_field(value, WHAT, "comparisons")?,
                claims: num_field(value, WHAT, "claims")?,
                violations: list_field(value, WHAT, "violations")?,
            },
            "sample" => Outcome::Sample(ExpectationSample {
                terminated: text_field(value, WHAT, "terminated")? == "1",
                wakeup_ok: text_field(value, WHAT, "wakeup_ok")? == "1",
                winner_steps: opt("winner_steps")?,
                max_steps: opt("max_steps")?,
            }),
            "fault" => Outcome::Fault(FaultTrial {
                class: text_field(value, WHAT, "class")?,
                safe: text_field(value, WHAT, "safe")? == "1",
                detected: num("detected")?,
                crashes: num("crashes")?,
                recoveries: num("recoveries")?,
                spurious_sc: num("spurious_sc")?,
                corruptions: num("corruptions")?,
                accesses: num("accesses")?,
                cc_rmrs: num("cc_rmrs")?,
                dsm_rmrs: num("dsm_rmrs")?,
                shrunk: opt("shrunk")?.map(|s| s as usize),
            }),
            other => return Err(format!("{WHAT}: unknown kind `{other}`")),
        };
        Ok(TrialRecord {
            index: num_field(value, WHAT, "index")?,
            cell: num_field(value, WHAT, "cell")?,
            outcome,
        })
    }
}

/// A chunk that failed; `llsc job resume` runs it again.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChunkFailure {
    /// The failed chunk's index.
    pub chunk: usize,
    /// Failure kind: `run-error`, `panic`, or `timeout`.
    pub kind: String,
    /// The chunk's error message.
    pub message: String,
    /// What the chunk covers — experiment, trial range, and the
    /// overlapped `(algorithm, n, toss seed)` cells — enough to reproduce
    /// the failure by re-running this spec's chunk alone.
    pub context: String,
}

/// How a job invocation ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobStatus {
    /// Every chunk completed; the artifact is whole.
    Complete,
    /// At least one chunk failed; the artifact is partial and the
    /// manifest lists what is missing.
    Incomplete,
    /// The run was interrupted (signal or [`JobControl`] stop); resume
    /// with `llsc job resume`.
    Interrupted,
}

impl JobStatus {
    /// The manifest's status string.
    pub fn tag(&self) -> &'static str {
        match self {
            JobStatus::Complete => "complete",
            JobStatus::Incomplete => "incomplete",
            JobStatus::Interrupted => "interrupted",
        }
    }
}

/// Cooperative control handles for a running job: the job's cancel token
/// (the CLI cancels it from SIGINT/SIGTERM) and a deterministic
/// stop-after hook used by the kill/resume tests to simulate a crash at
/// an exact chunk boundary.
#[derive(Clone, Debug, Default)]
pub struct JobControl {
    /// Cancel to request a graceful stop: the in-flight chunk is aborted,
    /// a final checkpoint is flushed, and the runner returns
    /// [`JobStatus::Interrupted`].
    pub cancel: CancelToken,
    /// Stop (as if interrupted) after this many chunks have been
    /// *executed by this invocation* — a crash simulation for tests.
    pub stop_after_chunks: Option<usize>,
}

impl JobControl {
    /// A control handle that never interrupts.
    pub fn new() -> JobControl {
        JobControl::default()
    }

    fn interrupted(&self) -> bool {
        self.cancel.is_cancelled()
    }
}

/// What a job invocation did, for the CLI to report and map to an exit
/// code.
#[derive(Clone, Debug)]
pub struct JobReport {
    /// How the invocation ended.
    pub status: JobStatus,
    /// Chunks completed over the job's lifetime (including prior
    /// invocations).
    pub completed_chunks: usize,
    /// Total chunks in the spec.
    pub total_chunks: usize,
    /// Chunks that failed in this invocation.
    pub failed: Vec<ChunkFailure>,
    /// Checkpoints that were skipped as invalid while loading state.
    pub fallback_notes: Vec<String>,
    /// The final artifact path (written unless the run was interrupted).
    pub artifact: Option<PathBuf>,
}

/// In-memory job state, round-tripped through checkpoints.
struct JobState {
    completed: BTreeSet<usize>,
    records: Vec<TrialRecord>,
    next_seq: u64,
    fallback_notes: Vec<String>,
}

impl JobState {
    fn fresh() -> JobState {
        JobState {
            completed: BTreeSet::new(),
            records: Vec::new(),
            next_seq: 1,
            fallback_notes: Vec::new(),
        }
    }
}

fn checkpoint_dir(dir: &Path) -> PathBuf {
    dir.join("checkpoints")
}

/// The spec file inside a job directory.
pub(crate) fn spec_path(dir: &Path) -> PathBuf {
    dir.join("spec.json")
}

/// The final artifact inside a job directory.
pub fn artifact_path(dir: &Path) -> PathBuf {
    dir.join("artifact.json")
}

/// The manifest inside a job directory.
pub(crate) fn manifest_path(dir: &Path) -> PathBuf {
    dir.join("manifest.json")
}

fn render_checkpoint(spec: &JobSpec, state: &JobState) -> String {
    let mut out = String::from("{\"experiment\":");
    json::push_string(&mut out, spec.experiment.tag());
    push_field(
        &mut out,
        "spec_fnv64",
        &format!("{:016x}", spec.fingerprint()),
    );
    push_field(
        &mut out,
        "rng",
        &format!(
            "sweep_seed={:#018x}; trial seeds derive as split_mix over (seed, index)",
            spec.seed
        ),
    );
    push_list(&mut out, "completed", &state.completed);
    out.push_str(",\"records\":[");
    for (i, record) in state.records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        record.render(&mut out);
    }
    out.push_str("]}");
    out
}

fn parse_checkpoint(
    spec: &JobSpec,
    payload: &[u8],
) -> Result<(BTreeSet<usize>, Vec<TrialRecord>), String> {
    let text = std::str::from_utf8(payload).map_err(|_| "checkpoint payload is not UTF-8")?;
    let value = json::parse(text)?;
    let fnv = text_field(&value, "checkpoint", "spec_fnv64")?;
    let expected = format!("{:016x}", spec.fingerprint());
    if fnv != expected {
        return Err(format!(
            "checkpoint belongs to a different job spec (fingerprint {fnv}, expected {expected})"
        ));
    }
    let completed = list_field(&value, "checkpoint", "completed")?
        .into_iter()
        .collect();
    let records = value
        .field("records")
        .ok_or("checkpoint: missing `records`")?
        .array_or("checkpoint `records`")?
        .iter()
        .map(TrialRecord::parse)
        .collect::<Result<Vec<TrialRecord>, String>>()?;
    Ok((completed, records))
}

/// How one chunk run ended.
enum ChunkOutcome {
    Success(Vec<TrialRecord>),
    Interrupted,
    Failed { kind: &'static str, message: String },
}

/// Runs one chunk on the calling thread under `catch_unwind`. `body`
/// receives the chunk's token — the job's token narrowed to the
/// chunk deadline — and runs its sweep under it, so trials panic at their
/// next executor poll once the job is cancelled or the deadline passes.
/// An unwound chunk is classified by which of the two happened.
fn run_chunk_guarded(
    job: &CancelToken,
    timeout: Option<Duration>,
    body: impl FnOnce(&CancelToken) -> Result<Vec<TrialRecord>, String>,
) -> ChunkOutcome {
    let token = match timeout {
        Some(limit) => job.with_timeout(limit),
        None => job.clone(),
    };
    match catch_unwind(AssertUnwindSafe(|| body(&token))) {
        Ok(Ok(records)) => ChunkOutcome::Success(records),
        Ok(Err(message)) => ChunkOutcome::Failed {
            kind: "run-error",
            message,
        },
        Err(panic) => {
            let message = panic_message(panic.as_ref());
            if token.is_cancelled() {
                ChunkOutcome::Interrupted
            } else if token.is_expired() {
                ChunkOutcome::Failed {
                    kind: "timeout",
                    message: format!("chunk exceeded its wall-clock budget ({message})"),
                }
            } else {
                ChunkOutcome::Failed {
                    kind: "panic",
                    message,
                }
            }
        }
    }
}

fn chunk_context(spec: &JobSpec, cells: &[Cell], start: usize, len: usize) -> String {
    let labels = spec.labels();
    let end = start + len;
    let parts: Vec<String> = cells
        .iter()
        .filter(|c| start.max(c.start) < end.min(c.start + c.len))
        .map(|c| spec.cell_label(&labels[c.alg], c))
        .collect();
    format!(
        "{} trials {start}..{end}: {}",
        spec.experiment.tag(),
        parts.join("; ")
    )
}

/// An experiment's typed table row: how the trial outcomes of one row's
/// cells fold into it, and how the rows render as the experiment's table.
pub(crate) trait JobRow: Sized {
    /// Folds the outcomes (in index order) of the row whose first cell is
    /// `cell` and whose algorithm is `algorithm`.
    fn fold(algorithm: &str, cell: &Cell, outcomes: &[&Outcome]) -> Self;

    /// The experiment's table.
    fn table(spec: &JobSpec, rows: &[Self]) -> Table;
}

/// Folds `records` into one `R` row per row of the spec's layout, and the
/// rows into their table — a pure function of `(spec, records)`, so
/// chunked, resumed, uninterrupted and in-memory runs agree byte for byte.
/// Also returns the labels of rows whose trials are not all present; those
/// rows are left out unless `partial` is set.
pub(crate) fn fold<R: JobRow>(
    spec: &JobSpec,
    records: &[TrialRecord],
    partial: bool,
) -> (Experiment<R>, Vec<String>) {
    let labels = spec.labels();
    let cells = spec.cells();
    let mut by_cell: Vec<Vec<&TrialRecord>> = vec![Vec::new(); cells.len()];
    for record in records {
        if let Some(group) = by_cell.get_mut(record.cell) {
            group.push(record);
        }
    }
    for group in &mut by_cell {
        group.sort_by_key(|r| r.index);
        group.dedup_by_key(|r| r.index);
    }
    // E4 cells are laid out alg-major, then n, then toss seed: each row
    // merges the toss seeds of one `(algorithm, n)`. Every other row is
    // one cell.
    let per_row = match spec.experiment {
        JobExperiment::E4 => spec.toss_seeds.len().max(1),
        _ => 1,
    };
    let mut rows = Vec::new();
    let mut incomplete = Vec::new();
    for (row_cells, groups) in cells.chunks(per_row).zip(by_cell.chunks(per_row)) {
        let cell = &row_cells[0];
        let algorithm = &labels[cell.alg];
        let outcomes: Vec<&Outcome> = groups.iter().flatten().map(|r| &r.outcome).collect();
        if outcomes.len() != row_cells.iter().map(|c| c.len).sum::<usize>() {
            incomplete.push(match spec.experiment.catalog() {
                Some(_) => format!("alg={algorithm} intensity={}", cell.intensity),
                None => format!("alg={algorithm} n={}", cell.n),
            });
            if !partial {
                continue;
            }
        }
        rows.push(R::fold(algorithm, cell, &outcomes));
    }
    let table = R::table(spec, &rows);
    (Experiment { table, rows }, incomplete)
}

/// Runs the spec's whole trial space in memory on `sweep` (its thread
/// count, seed and cancel token) and folds it.
///
/// # Panics
///
/// When a trial exhausts an executor budget (see
/// [`JobSpec::run_trials`]).
pub(crate) fn run_in_memory<R: JobRow>(spec: &JobSpec, sweep: &Sweep) -> Experiment<R> {
    let records = spec
        .run_trials(0..spec.total_trials(), sweep)
        .expect("direct tables run within the default executor budgets");
    fold(spec, &records, true).0
}

/// The one direct-table driver of the five fault tables: runs every trial
/// of `spec` on `sweep` under panic isolation
/// ([`Sweep::run_fallible_with`]) and folds the survivors into the
/// experiment's rows. Each failure carries the [`ReproCase`] its trial
/// ran ([`JobSpec::case_for`] under the trial's seed), re-executed
/// once to record its outcome and failure class, so `--repro-dir` (and
/// the artifact) can ship it to `llsc replay` / `llsc shrink`. Rows and
/// failures merge in index order, so the output is byte-identical at
/// every thread count.
pub(crate) fn fault_sweep(
    spec: &JobSpec,
    sweep: &Sweep,
) -> (Experiment<FaultRow>, Vec<TrialFailure>) {
    let cells = spec.cells();
    // Each trial's cell, in the job's flat index order.
    let items: Vec<usize> = cells
        .iter()
        .enumerate()
        .flat_map(|(c, cell)| std::iter::repeat_n(c, cell.len))
        .collect();
    let outcomes = sweep.run_fallible_with(
        &items,
        |trial, &c| spec.fault_trial(&cells[c], trial.seed),
        |trial, &c| spec.trial_context(&cells[c], trial.seed),
    );
    let mut records = Vec::new();
    let mut failures = Vec::new();
    for ((index, &c), outcome) in items.iter().enumerate().zip(outcomes) {
        match outcome {
            Ok(trial) => records.push(TrialRecord {
                index,
                cell: c,
                outcome: Outcome::Fault(trial),
            }),
            Err(mut failure) => {
                let cell = &cells[c];
                let mut case = spec.case_for(cell, failure.seed);
                case.provenance = Some(Provenance {
                    sweep_seed: sweep.seed,
                    trial_index: failure.index,
                });
                let run = run_case_with(&case, spec.fault_algorithm(cell).as_ref());
                case.outcome = run.outcome_debug;
                case.class = run.class;
                failure.repro = Some(case.to_json());
                failures.push(failure);
            }
        }
    }
    (fold(spec, &records, true).0, failures)
}

/// Assembles the final table artifact from the persisted records. Rows
/// whose trials are not all present (failed chunks) are omitted and
/// reported in the returned list of incomplete row labels.
fn assemble(spec: &JobSpec, records: &[TrialRecord]) -> (Table, Vec<String>) {
    fn complete_rows<R: JobRow>(spec: &JobSpec, records: &[TrialRecord]) -> (Table, Vec<String>) {
        let (exp, incomplete) = fold::<R>(spec, records, false);
        (exp.table, incomplete)
    }
    match spec.experiment {
        JobExperiment::E4 => complete_rows::<E4Row>(spec, records),
        JobExperiment::E6 => complete_rows::<E6Row>(spec, records),
        JobExperiment::E13 => complete_rows::<E13Row>(spec, records),
        _ => complete_rows::<FaultRow>(spec, records),
    }
}

impl JobRow for E4Row {
    fn fold(algorithm: &str, cell: &Cell, outcomes: &[&Outcome]) -> E4Row {
        let mut row = E4Row {
            algorithm: algorithm.to_string(),
            n: cell.n,
            subsets: outcomes.len(),
            comparisons: 0,
            violations: 0,
        };
        for outcome in outcomes {
            if let Outcome::Subset {
                comparisons,
                violations,
                ..
            } = outcome
            {
                row.comparisons += comparisons;
                row.violations += violations.len();
            }
        }
        row
    }

    fn table(_spec: &JobSpec, rows: &[E4Row]) -> Table {
        let mut table = Table::new(
            "E4 - Lemma 5.2: (All,A)-run vs (S,A)-run indistinguishability, exhaustive over S",
            ["algorithm", "n", "subsets", "comparisons", "violations"],
        );
        for r in rows {
            table.row([
                r.algorithm.clone(),
                r.n.to_string(),
                r.subsets.to_string(),
                r.comparisons.to_string(),
                r.violations.to_string(),
            ]);
        }
        table
    }
}

impl JobRow for E6Row {
    fn fold(algorithm: &str, cell: &Cell, outcomes: &[&Outcome]) -> E6Row {
        let samples: Vec<ExpectationSample> = outcomes
            .iter()
            .filter_map(|o| match o {
                Outcome::Sample(sample) => Some(sample.clone()),
                _ => None,
            })
            .collect();
        let rep = report_from_samples(algorithm, cell.n, &samples);
        E6Row {
            algorithm: algorithm.to_string(),
            n: cell.n,
            termination_rate: rep.termination_rate,
            mean_winner_steps: rep.mean_winner_steps,
            min_winner_steps: rep.min_winner_steps,
            lemma_3_1_bound: rep.lemma_3_1_bound,
            log4_n: rep.log4_n,
            all_meet_bound: rep.all_meet_bound,
        }
    }

    fn table(_spec: &JobSpec, rows: &[E6Row]) -> Table {
        let mut table = Table::new(
            "E6 - randomized wakeup: sampled expected complexity vs c*log4(n) (Lemma 3.1)",
            [
                "algorithm",
                "n",
                "c",
                "E[winner]",
                "min winner",
                "c*k",
                "log4(n)",
            ],
        );
        for r in rows {
            table.row([
                r.algorithm.clone(),
                r.n.to_string(),
                format!("{:.2}", r.termination_rate),
                format!("{:.1}", r.mean_winner_steps),
                r.min_winner_steps.to_string(),
                format!("{:.2}", r.lemma_3_1_bound),
                format!("{:.2}", r.log4_n),
            ]);
        }
        table
    }
}

impl JobRow for E13Row {
    fn fold(algorithm: &str, cell: &Cell, outcomes: &[&Outcome]) -> E13Row {
        let violations = outcomes
            .iter()
            .map(|o| match o {
                Outcome::Subset { violations, .. } => violations.len(),
                _ => 0,
            })
            .sum();
        E13Row {
            algorithm: algorithm.to_string(),
            n: cell.n,
            violations,
        }
    }

    fn table(_spec: &JobSpec, rows: &[E13Row]) -> Table {
        let mut table = Table::new(
            "E13 - appendix claims A.2-A.9 + Lemma 5.2, exhaustive over subsets",
            ["algorithm", "n", "subsets", "violations"],
        );
        for r in rows {
            table.row([
                r.algorithm.clone(),
                r.n.to_string(),
                (1u64 << r.n).to_string(),
                r.violations.to_string(),
            ]);
        }
        table
    }
}

/// One column of a fault table: what it reads off a [`FaultRow`]. The
/// header is the experiment's own (`crashed` heads the grid axis in
/// E15/E19 but the crashed-class count in E17/E20), so columns are keyed
/// by this enum, never by header text.
#[derive(Clone, Copy, Debug)]
enum FaultColumn {
    Algorithm,
    /// E20's adversary arm ([`e20_arm`]).
    Arm,
    /// The grid value: crash count, fault budget or chaos intensity.
    Intensity,
    Trials,
    /// Trials of the class with this exact name.
    Class(&'static str),
    /// Trials that terminated, whatever their answer.
    Completed,
    /// `ok` when every trial was safe, else `VIOLATED`.
    Safety,
    Injected,
    MeanOps,
    MedianShrunk,
    // The counters of the same name.
    Detected,
    Crashes,
    Recoveries,
    SpuriousSc,
    Corruptions,
    CcRmrs,
    DsmRmrs,
}

impl FaultColumn {
    /// Whether the column counts trials of class `class`.
    fn counts(self, class: &str) -> bool {
        match self {
            FaultColumn::Class(counted) => counted == class,
            FaultColumn::Completed => COMPLETED_CLASSES.contains(&class),
            _ => false,
        }
    }

    /// The column's cell in `row`.
    fn render(self, row: &FaultRow) -> String {
        match self {
            FaultColumn::Algorithm => row.algorithm.clone(),
            FaultColumn::Arm => e20_arm(row.alg).to_string(),
            FaultColumn::Intensity => row.intensity.to_string(),
            FaultColumn::Trials => row.trials.to_string(),
            FaultColumn::Class(class) => row.class(class).to_string(),
            FaultColumn::Completed => row.completed().to_string(),
            FaultColumn::Safety => if row.safe { "ok" } else { "VIOLATED" }.to_string(),
            FaultColumn::Injected => row.injected().to_string(),
            FaultColumn::MeanOps => format!("{:.1}", row.mean_ops()),
            FaultColumn::MedianShrunk => row
                .median_shrunk()
                .map_or_else(|| "-".to_string(), |m| m.to_string()),
            FaultColumn::Detected => row.detected.to_string(),
            FaultColumn::Crashes => row.crashes.to_string(),
            FaultColumn::Recoveries => row.recoveries.to_string(),
            FaultColumn::SpuriousSc => row.spurious_sc.to_string(),
            FaultColumn::Corruptions => row.corruptions.to_string(),
            FaultColumn::CcRmrs => row.cc_rmrs.to_string(),
            FaultColumn::DsmRmrs => row.dsm_rmrs.to_string(),
        }
    }
}

impl JobExperiment {
    /// A fault table's title subject and `(header, column)` list, in
    /// table order. E20's headers are [`E20_HEADERS`].
    fn fault_layout(self) -> (&'static str, Vec<(&'static str, FaultColumn)>) {
        use FaultColumn::*;
        match self {
            JobExperiment::E4 | JobExperiment::E6 | JobExperiment::E13 => ("", Vec::new()),
            JobExperiment::E15 => (
                "crash-fault degradation",
                vec![
                    ("algorithm", Algorithm),
                    ("crashed", Intensity),
                    ("trials", Trials),
                    ("completed", Completed),
                    ("crash reported", Class("crashed")),
                    ("budget exhausted", Class("stalled")),
                    ("safety", Safety),
                ],
            ),
            JobExperiment::E16 => (
                "memory-fault degradation",
                vec![
                    ("algorithm", Algorithm),
                    ("faults", Intensity),
                    ("trials", Trials),
                    ("recovered", Class("recovered")),
                    ("detected wrong", Class("detected-wrong")),
                    ("silent wrong", Class("silent-wrong")),
                    ("stalled", Class("stalled")),
                    ("injected", Injected),
                    ("detected", Detected),
                    ("mean ops", MeanOps),
                ],
            ),
            JobExperiment::E17 => (
                "combined chaos mode",
                vec![
                    ("algorithm", Algorithm),
                    ("intensity", Intensity),
                    ("trials", Trials),
                    ("recovered", Class("recovered")),
                    ("detected wrong", Class("detected-wrong")),
                    ("silent wrong", Class("silent-wrong")),
                    ("stalled", Class("stalled")),
                    ("crashed", Class("crashed")),
                    ("aborted", Class("aborted")),
                    ("median shrunk size", MedianShrunk),
                ],
            ),
            JobExperiment::E19 => (
                "recovery cost vs crash intensity",
                vec![
                    ("algorithm", Algorithm),
                    ("crashed", Intensity),
                    ("trials", Trials),
                    ("completed", Completed),
                    ("crash reported", Class("crashed")),
                    ("budget exhausted", Class("stalled")),
                    ("crashes", Crashes),
                    ("recoveries", Recoveries),
                    ("CC RMRs", CcRmrs),
                    ("DSM RMRs", DsmRmrs),
                    ("safety", Safety),
                ],
            ),
            JobExperiment::E20 => (
                "cross-backend chaos: degradation class and recovery RMR cost vs fault intensity",
                E20_HEADERS
                    .into_iter()
                    .zip([
                        Algorithm,
                        Arm,
                        Intensity,
                        Trials,
                        Class("recovered"),
                        Class("detected-wrong"),
                        Class("silent-wrong"),
                        Class("stalled"),
                        Class("crashed"),
                        Class("aborted"),
                        Crashes,
                        Recoveries,
                        SpuriousSc,
                        Corruptions,
                        CcRmrs,
                        DsmRmrs,
                    ])
                    .collect(),
            ),
        }
    }

    /// Whether some column of the fault table counts trials of `class`.
    fn counts(self, class: &str) -> bool {
        let (_, columns) = self.fault_layout();
        columns.iter().any(|&(_, column)| column.counts(class))
    }
}

impl JobRow for FaultRow {
    fn fold(algorithm: &str, cell: &Cell, outcomes: &[&Outcome]) -> FaultRow {
        let mut row = FaultRow {
            algorithm: algorithm.to_string(),
            alg: cell.alg,
            intensity: cell.intensity,
            safe: true,
            ..FaultRow::default()
        };
        for outcome in outcomes {
            let Outcome::Fault(t) = outcome else { continue };
            row.trials += 1;
            *row.classes.entry(t.class.clone()).or_default() += 1;
            row.safe &= t.safe;
            row.detected += t.detected;
            row.crashes += t.crashes;
            row.recoveries += t.recoveries;
            row.spurious_sc += t.spurious_sc;
            row.corruptions += t.corruptions;
            row.accesses += t.accesses;
            row.cc_rmrs += t.cc_rmrs;
            row.dsm_rmrs += t.dsm_rmrs;
            row.shrunk.extend(t.shrunk);
        }
        row
    }

    fn table(spec: &JobSpec, rows: &[FaultRow]) -> Table {
        let (n, samples) = (spec.ns[0], spec.samples);
        let regime = match spec.experiment {
            JobExperiment::E19 => {
                let r = spec.recovery(n);
                format!(", recovery delay {}, crash budget {}", r.delay, r.budget)
            }
            JobExperiment::E20 => ", simulator backend".to_string(),
            _ => String::new(),
        };
        let (about, columns) = spec.experiment.fault_layout();
        let tag = spec.experiment.tag().to_uppercase();
        let mut table = Table::new(
            format!("{tag} - {about} (n = {n}, {samples} trials per cell{regime})"),
            columns.iter().map(|&(header, _)| header),
        );
        for row in rows {
            table.row(columns.iter().map(|&(_, column)| column.render(row)));
        }
        table
    }
}

fn render_manifest(
    spec: &JobSpec,
    status: JobStatus,
    state: &JobState,
    total_chunks: usize,
    failed: &[ChunkFailure],
    incomplete_rows: &[String],
) -> String {
    let mut out = String::from("{\"name\":");
    json::push_string(&mut out, &spec.name);
    push_field(&mut out, "experiment", spec.experiment.tag());
    push_field(&mut out, "status", status.tag());
    for (key, value) in [
        ("chunks", total_chunks),
        ("completed", state.completed.len()),
        ("trials", state.records.len()),
        ("total_trials", spec.total_trials()),
    ] {
        push_field(&mut out, key, &value.to_string());
    }
    push_list(&mut out, "incomplete_rows", incomplete_rows);
    out.push_str(",\"failed\":[");
    for (i, f) in failed.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"chunk\":");
        json::push_string(&mut out, &f.chunk.to_string());
        push_field(&mut out, "kind", &f.kind);
        push_field(&mut out, "message", &f.message);
        push_field(&mut out, "context", &f.context);
        out.push('}');
    }
    out.push(']');
    push_list(&mut out, "fallback_checkpoints", &state.fallback_notes);
    out.push_str("}\n");
    out
}

/// Starts a job in `dir` from `spec`, writing `spec.json` first. Refuses
/// an invalid spec ([`JobSpec::validate`]) before writing anything, and a
/// directory that already has checkpoints (resume instead).
///
/// # Errors
///
/// An invalid spec, I/O errors, a populated checkpoint directory, or
/// chunk execution errors surfaced through the returned report's
/// `failed` list.
pub fn run_job(
    dir: &Path,
    spec: &JobSpec,
    threads: usize,
    control: &JobControl,
) -> Result<JobReport, String> {
    spec.validate()?;
    if !checkpoint::list_seqs(&checkpoint_dir(dir)).is_empty() {
        return Err(format!(
            "{} already has checkpoints; use `llsc job resume`",
            dir.display()
        ));
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    atomic_write(&spec_path(dir), spec.render())
        .map_err(|e| format!("cannot write {}: {e}", spec_path(dir).display()))?;
    drive(dir, spec, JobState::fresh(), threads, control)
}

/// Resumes the job in `dir` from its newest valid checkpoint (or from
/// scratch when no checkpoint survived), re-executing only missing
/// chunks. Previously failed chunks are among them: resuming is how a
/// failed chunk is re-attempted.
///
/// # Errors
///
/// A missing or unparseable `spec.json`, or a checkpoint that belongs to
/// a different spec.
pub fn resume_job(dir: &Path, threads: usize, control: &JobControl) -> Result<JobReport, String> {
    let spec = load_spec(dir)?;
    let mut state = JobState::fresh();
    if let Some(loaded) = checkpoint::load_latest(&checkpoint_dir(dir)) {
        let (completed, records) = parse_checkpoint(&spec, &loaded.payload)?;
        state.completed = completed;
        state.records = records;
        state.next_seq = loaded.seq + 1;
        state.fallback_notes = loaded
            .skipped
            .iter()
            .map(|s| format!("seq={}: {}", s.seq, s.error))
            .collect();
    }
    drive(dir, &spec, state, threads, control)
}

/// Loads a job directory's spec.
///
/// # Errors
///
/// A missing or unparseable `spec.json`.
pub(crate) fn load_spec(dir: &Path) -> Result<JobSpec, String> {
    let path = spec_path(dir);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    JobSpec::parse(&text)
}

fn drive(
    dir: &Path,
    spec: &JobSpec,
    mut state: JobState,
    threads: usize,
    control: &JobControl,
) -> Result<JobReport, String> {
    let cells = spec.cells();
    let bounds = chunk_bounds(spec.total_trials(), spec.chunks);
    let ckpt_dir = checkpoint_dir(dir);
    let mut failed: Vec<ChunkFailure> = Vec::new();
    let mut executed = 0usize;
    let mut interrupted = false;

    for (chunk, &(start, len)) in bounds.iter().enumerate() {
        if state.completed.contains(&chunk) {
            continue;
        }
        if control.interrupted() {
            interrupted = true;
            break;
        }
        if control
            .stop_after_chunks
            .is_some_and(|limit| executed >= limit)
        {
            interrupted = true;
            break;
        }

        let timeout =
            (spec.chunk_timeout_ms > 0).then(|| Duration::from_millis(spec.chunk_timeout_ms));
        let outcome = run_chunk_guarded(&control.cancel, timeout, |cancel| {
            let sweep = Sweep::with_threads(threads)
                .seeded(spec.seed)
                .with_cancel(cancel.clone());
            spec.run_trials(start..start + len, &sweep)
        });
        match outcome {
            ChunkOutcome::Success(records) => {
                state.records.extend(records);
                state.records.sort_by_key(|r| r.index);
                state.records.dedup_by_key(|r| r.index);
                state.completed.insert(chunk);
            }
            ChunkOutcome::Interrupted => interrupted = true,
            ChunkOutcome::Failed { kind, message } => failed.push(ChunkFailure {
                chunk,
                kind: kind.to_string(),
                message,
                context: chunk_context(spec, &cells, start, len),
            }),
        }
        executed += 1;

        let payload = render_checkpoint(spec, &state);
        checkpoint::write(&ckpt_dir, state.next_seq, payload.as_bytes())
            .map_err(|e| format!("cannot write checkpoint: {e}"))?;
        state.next_seq += 1;

        if interrupted {
            break;
        }
    }

    // Every chunk boundary above wrote a checkpoint of the state as it
    // now stands. A drive that crossed none (interrupted before its first
    // chunk, or resuming a finished job) flushes one here, so it too
    // leaves a resumable, validated state on disk.
    if executed == 0 {
        let payload = render_checkpoint(spec, &state);
        checkpoint::write(&ckpt_dir, state.next_seq, payload.as_bytes())
            .map_err(|e| format!("cannot write checkpoint: {e}"))?;
        state.next_seq += 1;
    }

    let status = if interrupted || control.interrupted() {
        JobStatus::Interrupted
    } else if failed.is_empty() && state.completed.len() == bounds.len() {
        JobStatus::Complete
    } else {
        JobStatus::Incomplete
    };

    let (table, incomplete_rows) = assemble(spec, &state.records);
    let artifact = if status == JobStatus::Interrupted {
        None
    } else {
        let path = artifact_path(dir);
        let rendered = Table::render_json_artifact(&[&table]);
        atomic_write(&path, rendered)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        Some(path)
    };
    let manifest = render_manifest(
        spec,
        status,
        &state,
        bounds.len(),
        &failed,
        &incomplete_rows,
    );
    atomic_write(&manifest_path(dir), manifest)
        .map_err(|e| format!("cannot write {}: {e}", manifest_path(dir).display()))?;

    Ok(JobReport {
        status,
        completed_chunks: state.completed.len(),
        total_chunks: bounds.len(),
        failed,
        fallback_notes: state.fallback_notes,
        artifact,
    })
}

/// The exit code a job outcome maps to: 0 complete, 1 incomplete
/// (partial artifact + manifest), 130 interrupted (resume to continue).
pub fn job_exit_code(status: JobStatus) -> u8 {
    match status {
        JobStatus::Complete => 0,
        JobStatus::Incomplete => 1,
        JobStatus::Interrupted => 130,
    }
}

/// Renders a human-readable status report for the job in `dir` without
/// executing anything: spec summary, checkpoint progress, and — when a
/// manifest exists — the last invocation's outcome.
///
/// # Errors
///
/// A missing or unparseable `spec.json`, or an unreadable checkpoint
/// that matches a different spec.
pub fn job_status(dir: &Path) -> Result<String, String> {
    let spec = load_spec(dir)?;
    let bounds = chunk_bounds(spec.total_trials(), spec.chunks);
    let mut out = format!(
        "job `{}` ({}) in {}\n  trials: {} in {} chunk(s), sweep seed {:#018x}\n",
        spec.name,
        spec.experiment.tag(),
        dir.display(),
        spec.total_trials(),
        bounds.len(),
        spec.seed,
    );
    match checkpoint::load_latest(&checkpoint_dir(dir)) {
        Some(loaded) => {
            let (completed, records) = parse_checkpoint(&spec, &loaded.payload)?;
            out.push_str(&format!(
                "  checkpoint: seq {} with {}/{} chunk(s) complete, {} trial record(s)\n",
                loaded.seq,
                completed.len(),
                bounds.len(),
                records.len(),
            ));
            for s in &loaded.skipped {
                out.push_str(&format!(
                    "  skipped invalid checkpoint seq={}: {}\n",
                    s.seq, s.error
                ));
            }
        }
        None => out.push_str("  checkpoint: none\n"),
    }
    if let Ok(manifest) = std::fs::read_to_string(manifest_path(dir)) {
        if let Ok(value) = json::parse(&manifest) {
            if let Some(status) = value.field("status").and_then(json::Value::as_str) {
                out.push_str(&format!("  last invocation: {status}\n"));
            }
            if let Some(failed) = value.field("failed").and_then(json::Value::as_array) {
                for f in failed {
                    let chunk = f
                        .field("chunk")
                        .and_then(json::Value::as_str)
                        .unwrap_or("?");
                    let kind = f.field("kind").and_then(json::Value::as_str).unwrap_or("?");
                    out.push_str(&format!("  failed chunk {chunk}: {kind}\n"));
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use llsc_shmem::rng::trial_seed;

    fn scratch_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("llsc-job-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn tiny_e4_spec() -> JobSpec {
        JobSpec {
            ns: vec![3],
            toss_seeds: vec![0],
            chunks: 4,
            ..JobSpec::default_for(JobExperiment::E4)
        }
    }

    #[test]
    fn spec_round_trips_through_json() {
        for experiment in JobExperiment::ALL {
            let spec = JobSpec::default_for(experiment);
            let back = JobSpec::parse(&spec.render()).unwrap();
            assert_eq!(back, spec);
            assert_eq!(back.fingerprint(), spec.fingerprint());
        }
    }

    #[test]
    fn spec_parse_rejects_bad_documents() {
        assert!(JobSpec::parse("{}").is_err());
        assert!(JobSpec::parse("not json").is_err());
        let spec = JobSpec::default_for(JobExperiment::E4);
        assert!(JobSpec::parse(&spec.render().replace("\"e4\"", "\"e99\"")).is_err());
        assert!(JobSpec::parse(
            &spec
                .render()
                .replace("\"version\":\"2\"", "\"version\":\"3\"")
        )
        .is_err());
        let no_chunks = JobSpec { chunks: 0, ..spec };
        assert!(JobSpec::parse(&no_chunks.render()).is_err());
    }

    #[test]
    fn a_version_one_job_directory_is_refused_not_misread() {
        // A directory written before the chunk-retry keys were dropped:
        // its spec says version 1 and still carries them.
        let dir = scratch_dir("v1-spec");
        let v1 = tiny_e4_spec()
            .render()
            .replace("\"version\":\"2\"", "\"version\":\"1\"")
            .replace(
                ",\"chunk_timeout_ms\"",
                ",\"retries\":\"2\",\"backoff_ms\":\"50\",\"chunk_timeout_ms\"",
            );
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(spec_path(&dir), &v1).unwrap();
        let err = resume_job(&dir, 1, &JobControl::new()).unwrap_err();
        assert_eq!(err, "job spec: unsupported version `1`");
        assert_eq!(job_status(&dir).unwrap_err(), err);
        // Refused before anything ran: no checkpoint, manifest or artifact.
        assert!(checkpoint::list_seqs(&checkpoint_dir(&dir)).is_empty());
        assert!(!manifest_path(&dir).exists());
        assert!(!artifact_path(&dir).exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn chunk_bounds_partition_the_space() {
        assert_eq!(chunk_bounds(10, 3), vec![(0, 4), (4, 3), (7, 3)]);
        assert_eq!(chunk_bounds(4, 8), vec![(0, 1), (1, 1), (2, 1), (3, 1)]);
        assert_eq!(chunk_bounds(0, 3), vec![(0, 0)]);
        let bounds = chunk_bounds(97, 8);
        assert_eq!(bounds.len(), 8);
        assert_eq!(bounds.iter().map(|&(_, l)| l).sum::<usize>(), 97);
        let mut expected = 0;
        for (start, len) in bounds {
            assert_eq!(start, expected);
            expected = start + len;
        }
    }

    #[test]
    fn cells_cover_the_trial_space_in_row_order() {
        let spec = tiny_e4_spec();
        let cells = spec.cells();
        assert_eq!(cells.len(), 6, "6 algorithms x 1 n x 1 toss seed");
        assert_eq!(spec.total_trials(), 6 * 8);
        assert_eq!(cells[0].start, 0);
        assert_eq!(cells[5].start, 40);
        let e6 = JobSpec {
            ns: vec![4, 8],
            samples: 5,
            ..JobSpec::default_for(JobExperiment::E6)
        };
        assert_eq!(e6.total_trials(), 2 * 2 * 5);
    }

    #[test]
    fn complete_job_artifact_matches_the_table_binary() {
        // The second grid's 5 chunks cut through cells, and each row
        // merges two toss seeds.
        let wide = JobSpec {
            ns: vec![3, 4],
            toss_seeds: vec![0, 1],
            chunks: 5,
            ..tiny_e4_spec()
        };
        for spec in [tiny_e4_spec(), wide] {
            let dir = scratch_dir(&format!("e4-identity-{}", spec.chunks));
            let report = run_job(&dir, &spec, 2, &JobControl::new()).unwrap();
            assert_eq!(report.status, JobStatus::Complete);
            assert_eq!(report.completed_chunks, spec.chunks);
            let artifact = std::fs::read_to_string(report.artifact.unwrap()).unwrap();
            let direct =
                crate::e4_indistinguishability(&spec.ns, &spec.toss_seeds, &Sweep::sequential());
            assert_eq!(
                artifact,
                Table::render_json_artifact(&[&direct.table]),
                "job artifact must be byte-identical to the table binary's"
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn stop_and_resume_reproduces_the_uninterrupted_artifact() {
        let dir = scratch_dir("e13-resume");
        let spec = JobSpec {
            ns: vec![4],
            chunks: 5,
            ..JobSpec::default_for(JobExperiment::E13)
        };
        let stopper = JobControl {
            stop_after_chunks: Some(2),
            ..JobControl::new()
        };
        let first = run_job(&dir, &spec, 1, &stopper).unwrap();
        assert_eq!(first.status, JobStatus::Interrupted);
        assert_eq!(first.completed_chunks, 2);
        assert!(first.artifact.is_none());
        // Resume at a different thread count.
        let second = resume_job(&dir, 3, &JobControl::new()).unwrap();
        assert_eq!(second.status, JobStatus::Complete);
        let resumed = std::fs::read_to_string(second.artifact.unwrap()).unwrap();

        let clean_dir = scratch_dir("e13-clean");
        let clean = run_job(&clean_dir, &spec, 2, &JobControl::new()).unwrap();
        let uninterrupted = std::fs::read_to_string(clean.artifact.unwrap()).unwrap();
        assert_eq!(resumed, uninterrupted);
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&clean_dir).ok();
    }

    #[test]
    fn fault_job_artifacts_match_their_direct_tables() {
        for experiment in [
            JobExperiment::E15,
            JobExperiment::E16,
            JobExperiment::E17,
            JobExperiment::E19,
            JobExperiment::E20,
        ] {
            let tag = experiment.tag();
            let dir = scratch_dir(&format!("{tag}-identity"));
            let spec = JobSpec {
                ns: vec![4],
                intensities: vec![0, 2],
                samples: 2,
                chunks: 3,
                ..JobSpec::default_for(experiment)
            };
            let report = run_job(&dir, &spec, 2, &JobControl::new()).unwrap();
            assert_eq!(report.status, JobStatus::Complete, "{tag}");
            let artifact = std::fs::read_to_string(report.artifact.unwrap()).unwrap();
            let (direct, failures) =
                crate::experiments::fault_table(experiment, 4, &[0, 2], 2, 0, &Sweep::sequential());
            assert!(failures.is_empty(), "{tag}: {failures:?}");
            assert_eq!(
                artifact,
                Table::render_json_artifact(&[&direct.table]),
                "{tag} job artifact must be byte-identical to its direct table's"
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn fault_rows_sum_their_trials_into_every_table() {
        let classes = [
            &COMPLETED_CLASSES[..],
            &["stalled", "crashed", "aborted", "respawn-exhausted"],
        ]
        .concat();
        // Four shrunk sizes: the lower median of [3, 4, 7, 9] is 4.
        let shrunk = [None, Some(9), Some(3), Some(7), Some(4), None];
        let trials: Vec<Outcome> = (0..6)
            .map(|i| {
                Outcome::Fault(FaultTrial {
                    class: classes[i].into(),
                    safe: classes[i] != "silent-wrong",
                    detected: 1,
                    crashes: 2,
                    recoveries: 3,
                    spurious_sc: 4,
                    corruptions: 5,
                    accesses: 7 + i as u64,
                    cc_rmrs: 8,
                    dsm_rmrs: 9,
                    shrunk: shrunk[i],
                })
            })
            .collect();
        let cell = |len| Cell {
            start: 0,
            len,
            alg: 4,
            n: 6,
            toss_seed: 0,
            intensity: 2,
        };
        let rows = [
            FaultRow::fold("six", &cell(6), &trials.iter().collect::<Vec<_>>()),
            FaultRow::fold("none", &cell(0), &[]),
        ];
        // Each table's two rows (after the algorithm column) and how many
        // of `classes`, in order, its columns count.
        let expected = [
            (JobExperiment::E15, "2 6 3 1 1 VIOLATED | 2 0 0 0 0 ok", 5),
            (
                JobExperiment::E16,
                "2 6 1 1 1 1 54 6 9.5 | 2 0 0 0 0 0 0 0 0.0",
                4,
            ),
            (
                JobExperiment::E17,
                "2 6 1 1 1 1 1 1 4 | 2 0 0 0 0 0 0 0 -",
                6,
            ),
            (
                JobExperiment::E19,
                "2 6 3 1 1 12 18 48 54 VIOLATED | 2 0 0 0 0 0 0 0 0 ok",
                5,
            ),
            (
                JobExperiment::E20,
                "crash-recovery 2 6 1 1 1 1 1 1 12 18 24 30 48 54 \
                 | crash-recovery 2 0 0 0 0 0 0 0 0 0 0 0 0 0",
                6,
            ),
        ];
        for (experiment, cells, counted) in expected {
            let tag = experiment.tag();
            let spec = JobSpec {
                ns: vec![6],
                samples: 6,
                ..JobSpec::default_for(experiment)
            };
            let table = FaultRow::table(&spec, &rows);
            let rendered: Vec<String> = table.rows().iter().map(|r| r[1..].join(" ")).collect();
            assert_eq!(rendered.join(" | "), cells, "{tag}");
            assert_eq!(table.rows()[0][0], "six");
            for (i, class) in classes.iter().enumerate() {
                assert_eq!(experiment.counts(class), i < counted, "{tag} {class}");
            }
        }
    }

    #[test]
    fn e20_recovery_knobs_change_the_fingerprint() {
        let base = JobSpec::default_for(JobExperiment::E20);
        let tightened = JobSpec {
            respawn_budget: 1,
            ..base.clone()
        };
        let delayed = JobSpec {
            recovery_delay: 7,
            ..base.clone()
        };
        assert_ne!(base.fingerprint(), tightened.fingerprint());
        assert_ne!(base.fingerprint(), delayed.fingerprint());
        let widened = JobSpec {
            intensities: vec![0, 1, 2, 4, 8],
            ..base.clone()
        };
        assert_ne!(base.fingerprint(), widened.fingerprint());
    }

    #[test]
    fn e6_job_matches_the_expectation_sweep() {
        let dir = scratch_dir("e6-identity");
        let spec = JobSpec {
            ns: vec![4],
            samples: 6,
            chunks: 3,
            ..JobSpec::default_for(JobExperiment::E6)
        };
        let report = run_job(&dir, &spec, 2, &JobControl::new()).unwrap();
        assert_eq!(report.status, JobStatus::Complete);
        let artifact = std::fs::read_to_string(report.artifact.unwrap()).unwrap();
        let direct = crate::e6_randomized_expectation(&[4], 6, &Sweep::sequential());
        assert_eq!(artifact, Table::render_json_artifact(&[&direct.table]));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn retry_exhaustion_degrades_to_an_incomplete_manifest() {
        let dir = scratch_dir("starved");
        let spec = JobSpec {
            ns: vec![3],
            toss_seeds: vec![0],
            chunks: 2,
            max_events: 1, // starve the executor: every chunk fails
            ..JobSpec::default_for(JobExperiment::E4)
        };
        let report = run_job(&dir, &spec, 1, &JobControl::new()).unwrap();
        assert_eq!(report.status, JobStatus::Incomplete);
        assert_eq!(report.failed.len(), 2);
        assert_eq!(report.failed[0].kind, "run-error");
        assert!(report.failed[0].context.contains("e4 trials 0..24"));
        let manifest = std::fs::read_to_string(manifest_path(&dir)).unwrap();
        assert!(manifest.contains("\"status\":\"incomplete\""));
        assert!(manifest.contains("\"failed\":[{\"chunk\":\"0\""));
        // The partial artifact exists and simply has no completed rows.
        let artifact = std::fs::read_to_string(artifact_path(&dir)).unwrap();
        assert!(artifact.contains("\"rows\":[]"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_rejects_an_invalid_spec_before_writing() {
        let e13 = JobSpec::default_for(JobExperiment::E13);
        let invalid = [
            JobSpec {
                chunks: 0,
                ..tiny_e4_spec()
            },
            JobSpec {
                ns: vec![17],
                ..tiny_e4_spec()
            },
            JobSpec {
                ns: vec![4, 17],
                ..e13
            },
            JobSpec {
                ns: vec![4, 8],
                ..JobSpec::default_for(JobExperiment::E20)
            },
        ];
        for (i, spec) in invalid.iter().enumerate() {
            let dir = scratch_dir(&format!("invalid-{i}"));
            let err = run_job(&dir, spec, 1, &JobControl::new()).unwrap_err();
            assert!(err.starts_with("job spec:"), "{err}");
            assert_eq!(JobSpec::parse(&spec.render()).unwrap_err(), err);
            assert!(!spec_path(&dir).exists(), "spec {i} left a spec.json");
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn run_refuses_a_directory_with_checkpoints() {
        let dir = scratch_dir("refuse");
        let spec = tiny_e4_spec();
        run_job(&dir, &spec, 1, &JobControl::new()).unwrap();
        let err = run_job(&dir, &spec, 1, &JobControl::new()).unwrap_err();
        assert!(err.contains("resume"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_rejects_a_checkpoint_from_a_different_spec() {
        let dir = scratch_dir("spec-mismatch");
        run_job(&dir, &tiny_e4_spec(), 1, &JobControl::new()).unwrap();
        // Rewrite the spec with a different grid; the checkpoint's
        // fingerprint no longer matches.
        let other = JobSpec {
            toss_seeds: vec![0, 1],
            ..tiny_e4_spec()
        };
        atomic_write(&spec_path(&dir), other.render()).unwrap();
        let err = resume_job(&dir, 1, &JobControl::new()).unwrap_err();
        assert!(err.contains("different job spec"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn status_reports_progress_without_executing() {
        let dir = scratch_dir("status");
        let spec = tiny_e4_spec();
        let stopper = JobControl {
            stop_after_chunks: Some(1),
            ..JobControl::new()
        };
        run_job(&dir, &spec, 1, &stopper).unwrap();
        let status = job_status(&dir).unwrap();
        assert!(status.contains("1/4 chunk(s) complete"), "{status}");
        assert!(status.contains("last invocation: interrupted"), "{status}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn guarded_chunk_classifies_interrupts() {
        let job = CancelToken::new();
        job.cancel();
        // The body polls its token the way the executor does; the job is
        // already cancelled, so the first poll unwinds the attempt.
        let outcome = run_chunk_guarded(&job, None, |token| loop {
            token.check(0);
        });
        assert!(matches!(outcome, ChunkOutcome::Interrupted));
    }

    #[test]
    fn guarded_chunk_classifies_timeouts() {
        let job = CancelToken::new();
        let outcome = run_chunk_guarded(&job, Some(Duration::from_millis(30)), |token| loop {
            token.check(0);
        });
        match outcome {
            ChunkOutcome::Failed { kind, message } => {
                assert_eq!(kind, "timeout");
                assert!(message.contains("deadline exceeded"), "{message}");
            }
            _ => panic!("expected a timeout failure"),
        }
        assert!(
            !job.is_cancelled(),
            "a chunk deadline never cancels the job"
        );
    }

    #[test]
    fn guarded_chunk_classifies_plain_panics() {
        let outcome = run_chunk_guarded(&CancelToken::new(), None, |_| panic!("boom"));
        match outcome {
            ChunkOutcome::Failed { kind, message } => {
                assert_eq!(kind, "panic");
                assert_eq!(message, "boom");
            }
            _ => panic!("expected a panic failure"),
        }
    }

    #[test]
    fn cancelled_job_stops_with_a_resumable_checkpoint() {
        let dir = scratch_dir("cancelled");
        let spec = tiny_e4_spec();
        let control = JobControl::new();
        control.cancel.cancel();
        let report = run_job(&dir, &spec, 2, &control).unwrap();
        assert_eq!(report.status, JobStatus::Interrupted);
        assert_eq!(report.completed_chunks, 0);
        let resumed = resume_job(&dir, 2, &JobControl::new()).unwrap();
        assert_eq!(resumed.status, JobStatus::Complete);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn each_chunk_boundary_writes_one_checkpoint() {
        // A complete 8-chunk job writes checkpoints 1..=8, one per chunk
        // boundary, and no trailing duplicate of the last one.
        let spec = JobSpec {
            chunks: 8,
            ..tiny_e4_spec()
        };
        let dir = scratch_dir("one-per-chunk");
        let report = run_job(&dir, &spec, 1, &JobControl::new()).unwrap();
        assert_eq!(report.status, JobStatus::Complete);
        let newest = checkpoint::load_latest(&checkpoint_dir(&dir)).unwrap();
        assert_eq!(newest.seq, 8);
        std::fs::remove_dir_all(&dir).ok();

        // A job interrupted before its first chunk still leaves one.
        let dir = scratch_dir("interrupted-before-first-chunk");
        let control = JobControl::new();
        control.cancel.cancel();
        let report = run_job(&dir, &spec, 1, &control).unwrap();
        assert_eq!(report.status, JobStatus::Interrupted);
        assert_eq!(checkpoint::list_seqs(&checkpoint_dir(&dir)), vec![1]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trial_records_round_trip_through_checkpoint_json() {
        let spec = tiny_e4_spec();
        let state = JobState {
            completed: [0, 2].into_iter().collect(),
            records: vec![
                TrialRecord {
                    index: 3,
                    cell: 0,
                    outcome: Outcome::Subset {
                        mask: 3,
                        comparisons: 17,
                        claims: 2,
                        violations: vec!["S={p0}: bad \"state\"".into()],
                    },
                },
                TrialRecord {
                    index: 9,
                    cell: 1,
                    outcome: Outcome::Sample(ExpectationSample {
                        terminated: true,
                        wakeup_ok: false,
                        winner_steps: Some(4),
                        max_steps: None,
                    }),
                },
                TrialRecord {
                    index: 11,
                    cell: 2,
                    outcome: Outcome::Fault(FaultTrial {
                        class: "detected-wrong".into(),
                        safe: false,
                        detected: 7,
                        crashes: 1,
                        recoveries: 2,
                        spurious_sc: 3,
                        corruptions: 4,
                        accesses: 8,
                        cc_rmrs: 5,
                        dsm_rmrs: 6,
                        shrunk: Some(9),
                    }),
                },
            ],
            next_seq: 3,
            fallback_notes: Vec::new(),
        };
        let payload = render_checkpoint(&spec, &state);
        let (completed, records) = parse_checkpoint(&spec, payload.as_bytes()).unwrap();
        assert_eq!(completed, state.completed);
        assert_eq!(records, state.records);
        assert!(payload.contains(&format!("{:016x}", spec.fingerprint())));
        assert!(payload.contains("trial seeds derive as split_mix"));
        // The provenance helper the rng field documents.
        assert_ne!(trial_seed(spec.seed, 0), trial_seed(spec.seed, 1));
    }
}
