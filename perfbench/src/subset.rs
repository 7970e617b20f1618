//! `subset-sweep`: exhaustive Lemma 5.2 + appendix-claims sweeps.
//!
//! A unit is one `indist_subset_range` call over the full `2^n` range
//! with claims on and one worker — the E13 check over the E4 algorithm
//! set. `counter`/`bitset` replay part of each trial from Gray-code
//! checkpoints; `tournament`/`gossip` replay nothing, so a change to the
//! replay path should move only the first pair.

use crate::trace::Trace;
use crate::{Counts, Env, UnitOutput, Workload};
use llsc_core::{
    build_all_run, check_appendix_claims, check_indistinguishability, gray_mask,
    indist_subset_range, report_from_subset_records, AdversaryConfig, GraySubsetBuilder,
    SubsetChunk, SubsetTrialRecord,
};
use llsc_shmem::rng::split_mix;
use llsc_shmem::{Algorithm, Executor, SeededTosses, Sweep, TossAssignment};
use llsc_wakeup::{correct_algorithms, randomized_algorithms};
use std::sync::Arc;
use std::time::Instant;

/// One unit: algorithm, process count, toss seed.
struct Case {
    alg: usize,
    n: usize,
    toss_seed: u64,
}

pub struct SubsetSweep {
    algs: Vec<Box<dyn Algorithm>>,
    cases: Vec<Case>,
    cfg: AdversaryConfig,
    /// Each unit's output from its latest untraced run, which the traced
    /// run must reproduce exactly.
    chunks: Vec<Option<SubsetChunk>>,
}

/// Process counts per algorithm in a pass, and toss seeds per count.
const SIZES: [(usize, usize); 2] = [(12, 1), (10, 3)];

pub fn prepare(seed: u64, _env: &Env) -> Result<Box<dyn Workload>, String> {
    let algs: Vec<Box<dyn Algorithm>> = correct_algorithms()
        .into_iter()
        .chain(randomized_algorithms())
        .collect();
    let mut cases = Vec::new();
    for alg in 0..algs.len() {
        for (n, seeds) in SIZES {
            for k in 0..seeds {
                cases.push(Case {
                    alg,
                    n,
                    toss_seed: split_mix(seed ^ split_mix((alg * 64 + n * 4 + k) as u64)),
                });
            }
        }
    }
    let units = cases.len();
    Ok(Box::new(SubsetSweep {
        algs,
        cases,
        cfg: AdversaryConfig::default(),
        chunks: (0..units).map(|_| None).collect(),
    }))
}

impl SubsetSweep {
    fn toss(&self, case: &Case) -> Arc<dyn TossAssignment> {
        Arc::new(SeededTosses::new(case.toss_seed))
    }

    fn sweep(&self, unit: usize, sweep: &Sweep) -> Result<SubsetChunk, String> {
        let case = &self.cases[unit];
        let alg = self.algs[case.alg].as_ref();
        indist_subset_range(
            alg,
            case.n,
            self.toss(case),
            &self.cfg,
            true,
            sweep,
            0..1 << case.n,
        )
        .map_err(|e| format!("{} n={}: {e:?}", alg.name(), case.n))
    }
}

fn output(chunk: &SubsetChunk) -> Result<UnitOutput, String> {
    let report = report_from_subset_records(chunk.all_events, &chunk.records);
    if !report.ok() {
        return Err(format!("violations: {:?}", report.violations));
    }
    let fingerprint = Counts::from([
        ("subsets", report.subsets as u64),
        ("events", report.events),
        ("replayed_events", report.replayed_events),
        ("comparisons", report.comparisons as u64),
        ("claim_instances", report.claim_instances as u64),
    ]);
    Ok(UnitOutput {
        work: report.events,
        fingerprint,
    })
}

impl Workload for SubsetSweep {
    fn units(&self) -> usize {
        self.cases.len()
    }

    fn run(&mut self, unit: usize) -> Result<UnitOutput, String> {
        let chunk = self.sweep(unit, &Sweep::sequential())?;
        let out = output(&chunk);
        self.chunks[unit] = Some(chunk);
        out
    }

    fn run_traced(&mut self, unit: usize, trace: &mut Trace) -> Result<UnitOutput, String> {
        let case = &self.cases[unit];
        let (n, cfg) = (case.n, &self.cfg);
        let alg = self.algs[case.alg].as_ref();
        let toss = self.toss(case);
        let all = trace
            .span("core.all_run", || build_all_run(alg, n, toss.clone(), cfg))
            .map_err(|e| format!("{e:?}"))?;
        trace.tally_run(&all.base.run);
        trace.add("core.all_run.rounds", all.base.num_rounds() as u64);
        trace.add("core.all_run.events", all.base.run.event_count());

        // The same Gray-order walk `indist_subset_range` makes with one
        // worker, one call at a time.
        let mut exec = Executor::new(alg, n, toss, cfg.executor);
        let mut builder = GraySubsetBuilder::new();
        let mut records = Vec::with_capacity(1 << n);
        for pos in 0..1usize << n {
            let gray = trace
                .span("core.gray.build", || {
                    builder.build_trial(&mut exec, alg, &all, cfg, pos)
                })
                .map_err(|e| format!("{e:?}"))?;
            let srun = &gray.srun;
            let lemma = trace.span("core.indist", || check_indistinguishability(&all, srun));
            let claims = trace.span("core.claims", || check_appendix_claims(&all, srun));
            let s = &srun.s;
            let events = srun.base.run.event_count();
            trace.tally_run(&srun.base.run);
            trace.add("core.gray.events", events);
            trace.add("core.gray.replayed_events", gray.replayed_events);
            let comparisons = lemma.process_checks + lemma.register_checks;
            trace.add("core.indist.comparisons", comparisons as u64);
            trace.add("core.claims.instances", claims.instances as u64);
            records.push(SubsetTrialRecord {
                mask: gray_mask(n, pos),
                comparisons,
                claim_instances: claims.instances,
                events,
                replayed_events: gray.replayed_events,
                violations: lemma
                    .violations
                    .iter()
                    .map(|v| format!("S={s:?}: {v}"))
                    .chain(claims.violations.iter().map(|v| format!("S={s:?}: {v}")))
                    .collect(),
            });
        }
        records.sort_by_key(|r| r.mask);
        let chunk = SubsetChunk {
            all_events: all.base.run.event_count(),
            records,
        };
        if self.chunks[unit].as_ref() != Some(&chunk) {
            return Err(format!(
                "{} n={n}: traced records differ from indist_subset_range's",
                alg.name()
            ));
        }
        output(&chunk)
    }

    fn trace_extras(&mut self, trace: &mut Trace) -> Result<(), String> {
        // 1-worker over 2-worker wall of the pass's first (largest) unit.
        let wall = |threads: usize| -> Result<f64, String> {
            let mut walls = Vec::new();
            for _ in 0..3 {
                let t = Instant::now();
                self.sweep(0, &Sweep::with_threads(threads))?;
                walls.push(t.elapsed().as_secs_f64());
            }
            Ok(crate::median(&walls))
        };
        let speedup = wall(1)? / wall(2)?;
        trace.values.insert("shmem.sweep.speedup_2t", speedup);
        Ok(())
    }
}
