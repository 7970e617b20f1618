//! `adversary-large-n`: Theorem 6.1 runs at large `n`.
//!
//! A unit is one `build_all_run` + `report_from_all_run`. The adversary
//! runs with rolling `UP` tracking and no register snapshots (the
//! memory-light settings of `AdversaryConfig::lightweight()`) but keeps
//! event recording, which `report_from_all_run` requires. Counter,
//! bitset and backoff are many cheap events on one contended register;
//! gossip is few, value-heavy events; `n > 128` spills `ProcMask` Psets
//! out of their inline word.

use crate::trace::Trace;
use crate::{Counts, Env, UnitOutput, Workload};
use llsc_core::{build_all_run, report_from_all_run, AdversaryConfig, AllRun, LowerBoundReport};
use llsc_shmem::rng::split_mix;
use llsc_shmem::{Algorithm, SeededTosses, TossAssignment};
use llsc_wakeup::{correct_algorithms, randomized_algorithms};
use std::sync::Arc;

/// A pass: each algorithm at four process counts, most past the
/// 128-process inline word of `ProcMask`. The randomized algorithms get
/// a seeded toss assignment per unit. The first unit is the set-up's
/// warm-up.
const CASES: &[(&str, [usize; 4])] = &[
    ("counter-wakeup", [384, 256, 192, 128]),
    ("bitset-wakeup", [384, 256, 192, 128]),
    ("tournament-wakeup", [2048, 1024, 512, 256]),
    ("gossip-wakeup", [192, 160, 128, 96]),
    ("randomized-counter-wakeup", [384, 256, 192, 128]),
    ("backoff-wakeup", [320, 256, 192, 128]),
];

struct Case {
    alg: usize,
    n: usize,
    toss_seed: u64,
}

pub struct Adversary {
    algs: Vec<Box<dyn Algorithm>>,
    cases: Vec<Case>,
    cfg: AdversaryConfig,
}

pub fn prepare(seed: u64, _env: &Env) -> Result<Box<dyn Workload>, String> {
    let algs: Vec<Box<dyn Algorithm>> = correct_algorithms()
        .into_iter()
        .chain(randomized_algorithms())
        .collect();
    let mut cases = Vec::new();
    for &(name, ns) in CASES {
        let alg = algs
            .iter()
            .position(|a| a.name() == name)
            .ok_or_else(|| format!("no algorithm named {name}"))?;
        for n in ns {
            let toss_seed = split_mix(seed ^ split_mix(cases.len() as u64));
            cases.push(Case { alg, n, toss_seed });
        }
    }
    let mut cfg = AdversaryConfig::lightweight();
    cfg.executor.record_details = true;
    Ok(Box::new(Adversary { algs, cases, cfg }))
}

fn output(all: &AllRun, report: &LowerBoundReport) -> Result<UnitOutput, String> {
    if !all.base.completed || !report.wakeup.ok() || !report.bound_holds {
        return Err(format!("{report}: wakeup {}", report.wakeup));
    }
    let counters = all.base.run.counters();
    let events = all.base.run.event_count();
    Ok(UnitOutput {
        work: events,
        fingerprint: Counts::from([
            ("events", events),
            ("shared_accesses", counters.total_ops()),
            ("tosses", counters.total_tosses()),
            ("rounds", all.base.num_rounds() as u64),
            ("winner_steps", report.winner_steps),
            ("max_steps", report.max_steps),
        ]),
    })
}

impl Adversary {
    fn toss(&self, case: &Case) -> Arc<dyn TossAssignment> {
        Arc::new(SeededTosses::new(case.toss_seed))
    }
}

impl Workload for Adversary {
    fn units(&self) -> usize {
        self.cases.len()
    }

    fn run(&mut self, unit: usize) -> Result<UnitOutput, String> {
        let case = &self.cases[unit];
        let alg = self.algs[case.alg].as_ref();
        let all =
            build_all_run(alg, case.n, self.toss(case), &self.cfg).map_err(|e| format!("{e:?}"))?;
        let report = report_from_all_run(alg, case.n, self.toss(case), &self.cfg, &all)
            .map_err(|e| format!("{e:?}"))?;
        output(&all, &report)
    }

    fn run_traced(&mut self, unit: usize, trace: &mut Trace) -> Result<UnitOutput, String> {
        let case = &self.cases[unit];
        let alg = self.algs[case.alg].as_ref();
        let all = trace
            .span("core.all_run", || {
                build_all_run(alg, case.n, self.toss(case), &self.cfg)
            })
            .map_err(|e| format!("{e:?}"))?;
        let report = trace
            .span("core.wakeup", || {
                report_from_all_run(alg, case.n, self.toss(case), &self.cfg, &all)
            })
            .map_err(|e| format!("{e:?}"))?;
        trace.tally_run(&all.base.run);
        trace.add("core.all_run.rounds", all.base.num_rounds() as u64);
        trace.add("core.all_run.events", all.base.run.event_count());
        output(&all, &report)
    }

    fn trace_extras(&mut self, _trace: &mut Trace) -> Result<(), String> {
        Ok(())
    }
}
