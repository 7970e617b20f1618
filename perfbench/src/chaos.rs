//! `chaos-job`: the E20 simulator chaos-recovery sweep as a checkpointed
//! job.
//!
//! A unit is one `run_job` of an E20 spec with many chunks and two
//! workers, in a fresh job directory inside the working directory. Fault
//! injection, crash recovery and classification, sweep fan-out and
//! checkpointing do their work here; the adversary and the Lemma 5.2
//! checkers are idle. The traced run adds the hardware half of E20 (see
//! `hw.rs`).

use crate::trace::Trace;
use crate::{Counts, Env, UnitOutput, Workload};
use llsc_bench::job::{artifact_path, run_job, JobControl, JobExperiment, JobSpec, JobStatus};
use llsc_bench::table::Table;
use llsc_bench::{e20_algorithm, e20_case, e20_chaos_recovery_sweep, E20_HEADERS};
use llsc_shmem::repro::{execute, ReproCase};
use llsc_shmem::rng::{split_mix, trial_seed};
use llsc_shmem::{json, RunOutcome, Sweep};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Worker threads of every job.
pub const WORKERS: usize = 2;
/// Processes per trial (the `table_e20` size).
const N: usize = 8;
const INTENSITIES: [u64; 4] = [0, 1, 2, 4];
/// Trials per `(algorithm, intensity)` cell.
const REPS: u64 = 1;
/// Chunks per job: each one is a sweep fan-out plus a checkpoint write.
const CHUNKS: usize = 8;
/// Jobs in a pass, each with its own sweep seed.
const JOBS: usize = 8;
/// The per-trial event budget `table_e20` uses.
const MAX_EVENTS: u64 = 2_000_000;

/// Columns of the E20 table summed into the fingerprint.
const COUNTED: [&str; 13] = [
    "trials",
    "recovered",
    "detected wrong",
    "silent wrong",
    "stalled",
    "crashed",
    "aborted",
    "crashes",
    "recoveries",
    "spurious SC",
    "corruptions",
    "CC RMRs",
    "DSM RMRs",
];

struct Job {
    spec: JobSpec,
    dir: PathBuf,
    /// The trials' cases, in the job's flat index order.
    cases: Vec<(usize, ReproCase)>,
    /// Simulated events of the job's trial runs.
    events: u64,
}

pub struct ChaosJob {
    seed: u64,
    jobs: Vec<Job>,
}

fn spec(seed: u64, chunks: usize) -> JobSpec {
    JobSpec {
        name: "perfbench-chaos".into(),
        seed,
        ns: vec![N],
        samples: REPS,
        intensities: INTENSITIES.to_vec(),
        chunks,
        ..JobSpec::default_for(JobExperiment::E20)
    }
}

pub fn prepare(seed: u64, env: &Env) -> Result<Box<dyn Workload>, String> {
    let jobs = (0..JOBS)
        .map(|k| {
            let spec = spec(split_mix(seed ^ split_mix(k as u64)), CHUNKS);
            let mut cases = Vec::new();
            for a in 0..6 {
                for &intensity in &INTENSITIES {
                    for _ in 0..REPS {
                        let index = cases.len();
                        let s = trial_seed(spec.seed, index);
                        cases.push((a, e20_case(a, N, intensity as usize, s, MAX_EVENTS)));
                    }
                }
            }
            let events = cases
                .iter()
                .map(|(a, case)| {
                    execute(case, e20_algorithm(*a, N).as_ref())
                        .exec
                        .run()
                        .event_count()
                })
                .sum();
            Job {
                spec,
                dir: env.scratch.join(format!("job-{k}")),
                cases,
                events,
            }
        })
        .collect();
    Ok(Box::new(ChaosJob { seed, jobs }))
}

/// Runs `spec` as a job in a fresh `dir` and returns its artifact.
fn run_fresh(dir: &Path, spec: &JobSpec, workers: usize) -> Result<String, String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("cannot clear {}: {e}", dir.display()))?;
    }
    let report = run_job(dir, spec, workers, &JobControl::new())?;
    if report.status != JobStatus::Complete || !report.failed.is_empty() {
        return Err(format!(
            "job ended {} with failed chunks {:?}",
            report.status.tag(),
            report.failed
        ));
    }
    std::fs::read_to_string(artifact_path(dir)).map_err(|e| format!("artifact: {e}"))
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .map(|e| match e.metadata() {
                    Ok(m) if m.is_dir() => dir_bytes(&e.path()),
                    Ok(m) => m.len(),
                    Err(_) => 0,
                })
                .sum()
        })
        .unwrap_or(0)
}

/// Checks an E20 artifact (no silent-wrong trial anywhere, every
/// intensity-0 trial recovered) and sums its counted columns.
fn check_artifact(artifact: &str) -> Result<Counts, String> {
    let parsed = json::parse(artifact)?;
    let table = parsed
        .field("tables")
        .and_then(|t| t.as_array())
        .and_then(|t| t.first())
        .ok_or("artifact has no table")?;
    let col = |name: &str| {
        E20_HEADERS
            .iter()
            .position(|h| *h == name)
            .expect("E20 column")
    };
    let mut counts = Counts::new();
    let rows = table.field("rows").ok_or("table has no rows")?;
    for row in rows.array_or("rows")? {
        let cells: Vec<u64> = row
            .as_array()
            .ok_or("row is not an array")?
            .iter()
            .map(|c| c.as_str().and_then(|s| s.parse().ok()).unwrap_or(0))
            .collect();
        if cells[col("silent wrong")] != 0 {
            return Err(format!("silent-wrong trials in row {row:?}"));
        }
        if cells[col("intensity")] == 0 && cells[col("recovered")] != cells[col("trials")] {
            return Err(format!("chaos-free trials did not all recover: {row:?}"));
        }
        for name in COUNTED {
            *counts.entry(name).or_insert(0) += cells[col(name)];
        }
    }
    Ok(counts)
}

impl Workload for ChaosJob {
    fn units(&self) -> usize {
        self.jobs.len()
    }

    fn run(&mut self, unit: usize) -> Result<UnitOutput, String> {
        let job = &self.jobs[unit];
        let artifact = run_fresh(&job.dir, &job.spec, WORKERS)?;
        let mut fingerprint = check_artifact(&artifact)?;
        fingerprint.insert("events", job.events);
        fingerprint.insert("job_dir_bytes", dir_bytes(&job.dir));
        fingerprint.insert(
            "artifact_fnv64_low32",
            llsc_shmem::fnv64(artifact.as_bytes()) & 0xffff_ffff,
        );
        Ok(UnitOutput {
            work: job.events,
            fingerprint,
        })
    }

    fn run_traced(&mut self, unit: usize, trace: &mut Trace) -> Result<UnitOutput, String> {
        let out = trace.span("bench.job.run", || self.run(unit))?;
        trace.add("bench.job.chunks", CHUNKS as u64);
        trace.add(
            "bench.job.checkpoint_bytes",
            out.fingerprint["job_dir_bytes"],
        );
        Ok(out)
    }

    fn trace_extras(&mut self, trace: &mut Trace) -> Result<(), String> {
        let median_wall = |spec: &JobSpec, dir: &Path, workers: usize| -> Result<f64, String> {
            let mut walls = Vec::new();
            for _ in 0..3 {
                let t = Instant::now();
                run_fresh(dir, spec, workers)?;
                walls.push(t.elapsed().as_secs_f64());
            }
            Ok(crate::median(&walls))
        };
        let mut overhead = 0.0;
        for job in &self.jobs {
            // The job's trials one call at a time: classify, then bill.
            let mut events = 0;
            for (a, case) in &job.cases {
                let alg = e20_algorithm(*a, N);
                let run = trace.span("bench.repro.run_case", || {
                    llsc_bench::repro::run_case_with(case, alg.as_ref())
                });
                trace.add(&format!("bench.repro.class.{}", run.class), 1);
                let replayed = execute(case, alg.as_ref());
                events += replayed.exec.run().event_count();
                trace.tally_run(replayed.exec.run());
                if let RunOutcome::FaultInjected {
                    spurious_sc,
                    corruptions,
                } = replayed.outcome
                {
                    trace.add("shmem.fault.spurious_sc", spurious_sc);
                    trace.add("shmem.fault.corruptions", corruptions);
                }
            }
            if events != job.events {
                return Err(format!("traced events {events} != prepared {}", job.events));
            }

            // The chunked artifact must equal the direct sweep's, byte
            // for byte.
            let artifact = run_fresh(&job.dir, &job.spec, WORKERS)?;
            let intensities: Vec<usize> = INTENSITIES.iter().map(|&i| i as usize).collect();
            let sweep = Sweep::with_threads(WORKERS).seeded(job.spec.seed);
            let (direct, failures) =
                e20_chaos_recovery_sweep(N, &intensities, REPS as usize, MAX_EVENTS, &sweep);
            let direct = Table::render_json_artifact_with_failures(&[&direct.table], &failures);
            if artifact != direct {
                return Err("chunked job artifact differs from the direct E20 sweep".into());
            }

            let one_chunk = spec(job.spec.seed, 1);
            overhead += median_wall(&job.spec, &job.dir, WORKERS)?
                - median_wall(&one_chunk, &job.dir, WORKERS)?;
        }
        trace.values.insert("bench.job.overhead_s", overhead);

        let first = &self.jobs[0];
        let speedup = median_wall(&first.spec, &first.dir, 1)?
            / median_wall(&first.spec, &first.dir, WORKERS)?;
        trace.values.insert("shmem.sweep.speedup_2t", speedup);

        // The hardware half of E20, and the hardware backend's layers.
        crate::hw::trace(self.seed, trace)
    }
}
