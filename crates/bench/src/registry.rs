//! The experiment registry: one entry per published table, holding the
//! parameters that table runs with.
//!
//! `llsc table <id>` runs an entry through [`HarnessOpts::emit`], and the
//! golden tests run the same entries in-process, so every table's
//! parameters are written down once: here, or — for the experiments a
//! job can run (E4/E6/E13/E15/E16/E17/E19/E20) — in
//! [`JobSpec::default_for`], which `llsc job run` starts from too.
//! `EXPERIMENTS.md` describes each table; `llsc list` prints the ids and
//! descriptions below.

use crate::harness::{HarnessOpts, Sweep, TrialFailure};
use crate::job::{fault_sweep, JobExperiment, JobSpec};
use crate::table::Table;
use std::process::ExitCode;

/// The per-trial event budget every fault entry runs under unless
/// `--max-events` overrides it: generous enough that only a crash, an
/// honest stall or a deliberate starvation keeps a trial from finishing.
pub const DEFAULT_MAX_EVENTS: u64 = 2_000_000;

/// How an entry produces its tables.
#[derive(Clone, Copy, Debug)]
pub enum Body {
    /// A checked experiment: any failure panics, and the harness turns
    /// the panic into a failure artifact.
    Tables(fn(&Sweep) -> Vec<Table>),
    /// A fault-injection experiment: its job at the published grid
    /// ([`JobSpec::default_for`]) run in memory under a per-trial event
    /// budget, reporting panic-isolated trial failures next to its table.
    Faults(JobExperiment),
}

/// One published table.
#[derive(Clone, Copy, Debug)]
pub struct Entry {
    /// The id `llsc table` takes (`e1`, `e3`, …, `e20`).
    pub id: &'static str,
    /// A one-line description: the experiment and the paper result it checks.
    pub about: &'static str,
    /// The experiment at its published parameters.
    pub body: Body,
}

impl Entry {
    const fn tables(
        id: &'static str,
        about: &'static str,
        build: fn(&Sweep) -> Vec<Table>,
    ) -> Self {
        Entry {
            id,
            about,
            body: Body::Tables(build),
        }
    }

    const fn faults(id: &'static str, about: &'static str, experiment: JobExperiment) -> Self {
        Entry {
            id,
            about,
            body: Body::Faults(experiment),
        }
    }

    /// Whether the entry takes `--max-events`.
    pub(crate) fn takes_event_budget(&self) -> bool {
        matches!(self.body, Body::Faults(_))
    }

    /// Runs the entry on `sweep`. A fault entry runs under `max_events`,
    /// or [`DEFAULT_MAX_EVENTS`] when it is `None`; other entries ignore it.
    pub fn run(&self, sweep: &Sweep, max_events: Option<u64>) -> (Vec<Table>, Vec<TrialFailure>) {
        match self.body {
            Body::Tables(build) => (build(sweep), Vec::new()),
            Body::Faults(experiment) => {
                let spec = JobSpec {
                    seed: sweep.seed,
                    max_events: max_events.unwrap_or(DEFAULT_MAX_EVENTS),
                    ..JobSpec::default_for(experiment)
                };
                let (exp, failures) = fault_sweep(&spec, sweep);
                (vec![exp.table], failures)
            }
        }
    }

    /// Runs the entry with `opts` and emits its tables (`llsc table`).
    ///
    /// # Errors
    ///
    /// A usage error when `--max-events` is given to an entry that takes
    /// no event budget.
    pub fn emit(&self, opts: &HarnessOpts) -> Result<ExitCode, String> {
        if opts.max_events.is_some() && !self.takes_event_budget() {
            let budgeted = ids(REGISTRY.iter().filter(|e| e.takes_event_budget()));
            return Err(format!(
                "`{}` takes no event budget; --max-events applies to {budgeted}",
                self.id
            ));
        }
        Ok(opts.emit(|sweep| self.run(sweep, opts.max_events)))
    }
}

fn ids<'a>(entries: impl Iterator<Item = &'a Entry>) -> String {
    entries.map(|e| e.id).collect::<Vec<_>>().join(", ")
}

/// Looks up an entry by id.
///
/// # Errors
///
/// Names the valid ids when `id` is not one of them.
pub fn find(id: &str) -> Result<&'static Entry, String> {
    REGISTRY.iter().find(|e| e.id == id).ok_or_else(|| {
        format!(
            "unknown experiment `{id}`; valid ids: {}",
            ids(REGISTRY.iter())
        )
    })
}

/// Every published table, in experiment order. E2 and E11 are checked
/// inside E1. E18 (`llsc bench`) and E20's hardware half (`llsc bench e20`)
/// time real threads, so their output is not a deterministic table and
/// they have no entry here.
pub const REGISTRY: &[Entry] = &[
    Entry::tables("e1", "E1/E2/E11: secretive schedules (Section 4)", |s| {
        vec![crate::e1_secretive_schedules(&[4, 16, 64, 256, 1024, 4096], 20, s).table]
    }),
    Entry::tables("e3", "E3: UP-set growth, |UP| <= 4^r (Lemma 5.1)", |s| {
        vec![crate::e3_up_growth(&[4, 16, 64, 256, 1024], s).table]
    }),
    Entry::tables("e4", "E4: indistinguishability (Lemma 5.2)", |s| {
        let g = JobSpec::default_for(JobExperiment::E4);
        vec![crate::e4_indistinguishability(&g.ns, &g.toss_seeds, s).table]
    }),
    Entry::tables("e5", "E5: the wakeup lower bound (Theorem 6.1)", |s| {
        vec![
            crate::e5_wakeup_lower_bound(&[4, 16, 64, 256, 1024], s).table,
            crate::e5_tournament_tightness(&[4, 16, 64, 256, 1024, 4096], s).table,
        ]
    }),
    Entry::tables("e6", "E6: randomized expected cost (Lemma 3.1)", |s| {
        let g = JobSpec::default_for(JobExperiment::E6);
        vec![crate::e6_randomized_expectation(&g.ns, g.samples, s).table]
    }),
    Entry::tables("e7", "E7: the eight object reductions (Theorem 6.2)", |s| {
        vec![crate::e7_reductions(&[4, 16, 64, 256], s).table]
    }),
    Entry::tables("e8", "E8: O(log n) tree vs Theta(n) constructions", |s| {
        vec![crate::e8_universal_constructions(&[4, 8, 16, 32, 64, 128, 256, 512], s).table]
    }),
    Entry::tables("e9", "E9: schedule ablation of the constructions", |s| {
        vec![crate::e9_schedule_ablation(&[16, 64, 256], s).table]
    }),
    Entry::tables("e10", "E10: the non-oblivious escape hatches", |s| {
        vec![
            crate::e10_direct_escape_hatch(&[4, 16, 64, 256], s).table,
            crate::e10b_structural_escape_hatches(&[1, 16, 256, 4096], s).table,
        ]
    }),
    Entry::tables("e12", "E12: k-use amortised costs (Corollary 6.1)", |s| {
        vec![crate::e12_multi_use(&[2, 8, 32], &[1, 4, 16], s).table]
    }),
    Entry::tables("e13", "E13: appendix claims A.2-A.9, all subsets", |s| {
        vec![crate::e13_appendix_claims(&JobSpec::default_for(JobExperiment::E13).ns, s).table]
    }),
    Entry::tables("e14", "E14: wakeup stress under partial schedules", |s| {
        vec![crate::e14_stress_portfolio(8, s)]
    }),
    Entry::faults("e15", "E15: crash-fault degradation", JobExperiment::E15),
    Entry::faults(
        "e16",
        "E16: memory-fault degradation (hardened)",
        JobExperiment::E16,
    ),
    Entry::faults(
        "e17",
        "E17: chaos mode, crashes + memory faults",
        JobExperiment::E17,
    ),
    Entry::faults(
        "e19",
        "E19: recovery RMRs vs crash intensity",
        JobExperiment::E19,
    ),
    Entry::faults(
        "e20",
        "E20 (sim half): chaos degradation, RMRs",
        JobExperiment::E20,
    ),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique() {
        let ids: std::collections::BTreeSet<&str> = REGISTRY.iter().map(|e| e.id).collect();
        assert_eq!(ids.len(), REGISTRY.len());
    }
}
