//! Exhaustive subset sweeps: Lemma 5.2 (and optionally the appendix
//! claims) over every `S ⊆ {p_0, …, p_{n-1}}`.
//!
//! This is the heaviest verification loop in the repository — `2^n`
//! `(S, A)`-runs per `(All, A)`-run — and it is embarrassingly parallel:
//! each subset's run is built independently against the shared
//! `(All, A)`-run. [`indist_all_subsets`] therefore fans the trials out
//! over a [`Sweep`], merging per-subset tallies in mask order so the
//! report is identical at any thread count.
//!
//! Each worker builds its trials from scratch in plain mask order on one
//! [`SRunBuilder`]: one executor and one `(S, A)`-run whose buffers every
//! trial refills, so a trial allocates almost nothing outside the
//! simulated programs.

use crate::all_run::{build_all_run, AdversaryConfig};
use crate::claims::check_appendix_claims;
use crate::indist::check_indistinguishability;
use crate::s_run::SRunBuilder;
use crate::upsets::ProcSet;
use llsc_shmem::{Algorithm, ProcessId, RunError, Sweep, TossAssignment};
use std::fmt;
use std::sync::Arc;

/// The aggregate outcome of an exhaustive subset sweep.
#[derive(Clone, Debug, Default)]
pub struct SubsetSweepReport {
    /// Subsets `S` tested (always `2^n`).
    pub subsets: usize,
    /// Individual Lemma 5.2 state comparisons performed (process checks
    /// plus register checks, summed over subsets).
    pub comparisons: usize,
    /// Appendix-claim instances evaluated (0 unless claims were checked).
    pub claim_instances: usize,
    /// Total simulated executor events across the `(All, A)`-run and every
    /// `(S, A)`-run of the sweep.
    pub events: u64,
    /// Always 0: no sweep replays events. Kept only for the repository
    /// benchmark's binding.
    pub replayed_events: u64,
    /// Every violation found, rendered with the subset that exposed it.
    /// Sound machinery leaves this empty.
    pub violations: Vec<String>,
}

impl SubsetSweepReport {
    /// `true` iff no subset exposed a violation.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

impl fmt::Display for SubsetSweepReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "subset sweep: {} subsets, {} comparisons, {} claim instances, {} violation(s)",
            self.subsets,
            self.comparisons,
            self.claim_instances,
            self.violations.len()
        )
    }
}

/// What one subset trial (one mask) contributed to the sweep — the
/// checkpointable per-trial unit of a chunked subset job.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SubsetTrialRecord {
    /// The subset bitmask (trial index within the `2^n` space).
    pub mask: usize,
    /// Lemma 5.2 comparisons performed for this subset.
    pub comparisons: usize,
    /// Appendix-claim instances evaluated (0 unless claims were checked).
    pub claim_instances: usize,
    /// Simulated events of this subset's `(S, A)`-run.
    pub events: u64,
    /// Always 0: no trial replays events. Kept only for the repository
    /// benchmark's binding.
    pub replayed_events: u64,
    /// Violations exposed by this subset, rendered with the subset.
    pub violations: Vec<String>,
}

/// The output of one contiguous mask-range of a subset sweep.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SubsetChunk {
    /// Events of the shared `(All, A)`-run (identical for every chunk of
    /// the same sweep — counted once at assembly).
    pub all_events: u64,
    /// One record per mask, in mask order.
    pub records: Vec<SubsetTrialRecord>,
}

/// Checks Lemma 5.2 — and, when `check_claims` is set, claims A.2 – A.9 —
/// for the masks `trials.start .. trials.end` of an `n`-process system,
/// fanning them out over `sweep`. Records are returned in mask order.
///
/// This is the chunkable core of [`indist_all_subsets`]: the `(All, A)`-run
/// is rebuilt deterministically per call (it depends only on
/// `(alg, n, toss, cfg)`), so concatenating the records of any partition
/// of `0 .. 2^n` reproduces the full sweep exactly — see
/// [`report_from_subset_records`].
///
/// # Errors
///
/// Returns [`RunError::UnsupportedSweep`] when `n > 16` or the range
/// exceeds the `2^n` trial space, and [`RunError::UnrecordedSweep`] when
/// `cfg` turns off detail recording, register snapshots or the `UP`
/// history (pre-flight validation; no run is started). Otherwise
/// propagates the first (lowest-mask) [`RunError`] the `(All, A)`-run or
/// any `(S, A)`-run reports.
pub fn indist_subset_range(
    alg: &dyn Algorithm,
    n: usize,
    toss: Arc<dyn TossAssignment>,
    cfg: &AdversaryConfig,
    check_claims: bool,
    sweep: &Sweep,
    trials: std::ops::Range<usize>,
) -> Result<SubsetChunk, RunError> {
    if n > 16 || trials.end > 1usize << n || trials.start > trials.end {
        return Err(RunError::UnsupportedSweep { n, end: trials.end });
    }
    // Lemma 5.2 compares histories and register snapshots, and the
    // (S, A)-runs need every round's UP sets: without them a sweep would
    // pass vacuously or panic mid-way.
    let recorded = [
        ("record_details", cfg.executor.record_details),
        ("record_snapshots", cfg.record_snapshots),
        ("track_up_history", cfg.track_up_history),
    ];
    if let Some(&(missing, _)) = recorded.iter().find(|(_, on)| !on) {
        return Err(RunError::UnrecordedSweep { missing });
    }
    let all = build_all_run(alg, n, toss.clone(), cfg)?;

    let records = sweep.run_indexed_range_with_scratch(
        trials.start,
        trials.len(),
        || SRunBuilder::new(alg, toss.clone(), &all, cfg),
        |builder, trial| -> Result<SubsetTrialRecord, RunError> {
            let mask = trial.index;
            let s: ProcSet = (0..n)
                .filter(|i| mask & (1 << i) != 0)
                .map(ProcessId)
                .collect();
            let srun = builder.build(alg, &s, &all, cfg)?;
            let lemma = check_indistinguishability(&all, srun);
            let mut record = SubsetTrialRecord {
                mask,
                comparisons: lemma.process_checks + lemma.register_checks,
                claim_instances: 0,
                events: srun.base.run.event_count(),
                replayed_events: 0,
                violations: lemma
                    .violations
                    .iter()
                    .map(|v| format!("S={s:?}: {v}"))
                    .collect(),
            };
            if check_claims {
                let claims = check_appendix_claims(&all, srun);
                record.claim_instances = claims.instances;
                record
                    .violations
                    .extend(claims.violations.iter().map(|v| format!("S={s:?}: {v}")));
            }
            Ok(record)
        },
    );
    // The lowest-mask error surfaces, exactly as in a sequential sweep.
    let records = records
        .into_iter()
        .collect::<Result<Vec<SubsetTrialRecord>, RunError>>()?;
    Ok(SubsetChunk {
        all_events: all.base.run.event_count(),
        records,
    })
}

/// Assembles a [`SubsetSweepReport`] from per-mask records — a pure fold,
/// so any chunking of the mask space yields the same report as long as
/// `records` is presented in mask order.
pub fn report_from_subset_records(
    all_events: u64,
    records: &[SubsetTrialRecord],
) -> SubsetSweepReport {
    let mut report = SubsetSweepReport {
        events: all_events,
        ..SubsetSweepReport::default()
    };
    for record in records {
        report.subsets += 1;
        report.comparisons += record.comparisons;
        report.claim_instances += record.claim_instances;
        report.events += record.events;
        report.replayed_events += record.replayed_events;
        report.violations.extend(record.violations.iter().cloned());
    }
    report
}

/// Checks Lemma 5.2 — and, when `check_claims` is set, claims A.2 – A.9 —
/// on every subset of an `n`-process system, fanning the `2^n` masks out
/// over `sweep`.
///
/// The `(All, A)`-run is built **once** per sweep and shared immutably
/// by all worker threads; each trial builds one
/// `(S, A)`-run against it and compares. Each *worker* refills one
/// [`SRunBuilder`]'s executor and `(S, A)`-run between its trials, and
/// every `(S, A)`-run shares the `(All, A)`-run's initial-memory map.
/// Tallies are merged in mask order, so the report does not depend on
/// `sweep.threads`.
///
/// # Errors
///
/// Returns [`RunError::UnsupportedSweep`] when `n > 16` (the enumeration
/// is exhaustive) and [`RunError::UnrecordedSweep`] when `cfg` does not
/// record what the checkers compare. Otherwise propagates the first
/// [`RunError`] the `(All, A)`-run or any `(S, A)`-run reports.
pub fn indist_all_subsets(
    alg: &dyn Algorithm,
    n: usize,
    toss: Arc<dyn TossAssignment>,
    cfg: &AdversaryConfig,
    check_claims: bool,
    sweep: &Sweep,
) -> Result<SubsetSweepReport, RunError> {
    let chunk = indist_subset_range(alg, n, toss, cfg, check_claims, sweep, 0..1usize << n)?;
    Ok(report_from_subset_records(chunk.all_events, &chunk.records))
}

#[cfg(test)]
mod tests {
    use super::*;
    use llsc_shmem::dsl::{done, ll, sc};
    use llsc_shmem::{FnAlgorithm, RegisterId, Value, ZeroTosses};

    fn llsc_contenders() -> impl Algorithm {
        FnAlgorithm::new("llsc", |pid: ProcessId, _n| {
            fn attempt(pid: ProcessId) -> llsc_shmem::dsl::Step {
                ll(RegisterId(0), move |_| {
                    sc(RegisterId(0), Value::from(pid.0 as i64), move |ok, _| {
                        if ok {
                            done(Value::from(1i64))
                        } else {
                            attempt(pid)
                        }
                    })
                })
            }
            attempt(pid).into_program()
        })
    }

    #[test]
    fn sweep_report_is_thread_count_invariant() {
        // Whole records, not just tallies: a reused run that carried
        // events or violations over from a worker's previous trial would
        // show up in some mask's record at some thread count.
        let alg = llsc_contenders();
        let cfg = AdversaryConfig::default();
        let chunk_at = |threads: usize| {
            indist_subset_range(
                &alg,
                5,
                Arc::new(ZeroTosses),
                &cfg,
                true,
                &Sweep::with_threads(threads),
                0..32,
            )
            .unwrap()
        };
        let base = chunk_at(1);
        let report = report_from_subset_records(base.all_events, &base.records);
        assert!(report.ok(), "{:?}", report.violations);
        assert_eq!(report.subsets, 32);
        assert!(report.comparisons > 0);
        assert!(report.claim_instances > 0);
        assert!(report.events > base.all_events);
        assert!(base.records.iter().all(|r| r.events > 0 || r.mask == 0));
        for threads in [2, 4, 8] {
            let par = chunk_at(threads);
            assert_eq!(par, base, "threads={threads}");
            let par_report = report_from_subset_records(par.all_events, &par.records);
            assert_eq!(par_report.events, report.events, "threads={threads}");
        }
    }

    #[test]
    fn chunked_ranges_concatenate_to_the_full_sweep() {
        let alg = llsc_contenders();
        let cfg = AdversaryConfig::default();
        let full = indist_all_subsets(
            &alg,
            5,
            Arc::new(ZeroTosses),
            &cfg,
            true,
            &Sweep::sequential(),
        )
        .unwrap();
        // An uneven partition of the 32-mask space, executed out of order
        // and at a different thread count per chunk.
        let mut all_events = 0;
        let mut records = Vec::new();
        for (offset, count, threads) in [(20, 12, 3), (0, 7, 1), (7, 13, 2)] {
            let chunk = indist_subset_range(
                &alg,
                5,
                Arc::new(ZeroTosses),
                &cfg,
                true,
                &Sweep::with_threads(threads),
                offset..offset + count,
            )
            .unwrap();
            assert_eq!(chunk.records.len(), count);
            all_events = chunk.all_events;
            records.extend(chunk.records);
        }
        records.sort_by_key(|r| r.mask);
        let assembled = report_from_subset_records(all_events, &records);
        assert_eq!(assembled.subsets, full.subsets);
        assert_eq!(assembled.comparisons, full.comparisons);
        assert_eq!(assembled.claim_instances, full.claim_instances);
        assert_eq!(assembled.events, full.events);
        assert_eq!(assembled.violations, full.violations);
    }

    /// Runs a claims sweep under `cfg` and returns its pre-flight error.
    fn unrecorded_sweep_error(cfg: AdversaryConfig) -> RunError {
        let alg = llsc_contenders();
        indist_all_subsets(
            &alg,
            4,
            Arc::new(ZeroTosses),
            &cfg,
            true,
            &Sweep::sequential(),
        )
        .expect_err("an unrecorded sweep must not report a pass")
    }

    #[test]
    fn sweeps_without_register_snapshots_are_rejected_up_front() {
        let err = unrecorded_sweep_error(AdversaryConfig {
            record_snapshots: false,
            ..AdversaryConfig::default()
        });
        assert_eq!(
            err,
            RunError::UnrecordedSweep {
                missing: "record_snapshots"
            }
        );
        assert!(err.to_string().contains("record_snapshots = true"));
    }

    #[test]
    fn sweeps_without_recorded_histories_are_rejected_up_front() {
        let mut cfg = AdversaryConfig::default();
        cfg.executor.record_details = false;
        assert_eq!(
            unrecorded_sweep_error(cfg),
            RunError::UnrecordedSweep {
                missing: "record_details"
            }
        );
    }

    #[test]
    fn sweeps_without_up_history_are_rejected_up_front() {
        let err = unrecorded_sweep_error(AdversaryConfig {
            track_up_history: false,
            ..AdversaryConfig::default()
        });
        assert_eq!(
            err,
            RunError::UnrecordedSweep {
                missing: "track_up_history"
            }
        );
    }

    #[test]
    fn claims_can_be_skipped() {
        let alg = llsc_contenders();
        let report = indist_all_subsets(
            &alg,
            4,
            Arc::new(ZeroTosses),
            &AdversaryConfig::default(),
            false,
            &Sweep::sequential(),
        )
        .unwrap();
        assert!(report.ok());
        assert_eq!(report.claim_instances, 0);
        assert!(report.to_string().contains("16 subsets"));
    }
}
