//! Construction of the `(S, A)`-run (Figure 3).
//!
//! Given the `(All, A)`-run of an algorithm and a set `S` of processes, the
//! `(S, A)`-run replays the same algorithm, from the same initial
//! configuration, with the same toss assignment, but in each round `r` only
//! the processes that had not "witnessed" anyone outside `S` by the end of
//! round `r - 1` of the `(All, A)`-run take steps — i.e.
//! `S_r = { p | UP(p, r - 1) ⊆ S }`. The move group of round `r` is ordered
//! exactly as the `(All, A)`-run's secretive schedule `σ_r` (restricted to
//! the participants; Claim A.3 guarantees this is well defined).
//!
//! The Indistinguishability Lemma (Lemma 5.2) asserts that every process
//! and register whose `UP` stays inside `S` cannot tell the two runs apart;
//! [`crate::check_indistinguishability`] verifies that mechanically.
//!
//! The exhaustive subset sweeps build `2^n` of these runs against one
//! `(All, A)`-run, so each sweep worker reuses one `(S, A)`-run: an
//! [`SRunBuilder`] refills the same [`SRun`] for every trial. Its round
//! records and `S_r` vectors are overwritten in place, the ones a shorter
//! trial leaves unused wait on a spare list, and the recorded run is
//! swapped between the executor and the `SRun` instead of being rebuilt.
//! [`build_s_run`] and [`build_s_run_with`] return owned runs from the same
//! construction.

use crate::all_run::{AdversaryConfig, AllRun, RoundedRun};
use crate::rounds::{execute_round_into, ChangeIndex, MoveOrder, RoundRecord};
use crate::upsets::ProcSet;
use llsc_shmem::{Algorithm, Executor, ProcessId, Run, RunError, RunOutcome, TossAssignment};
use std::sync::Arc;

/// The `(S, A)`-run of an algorithm, built by [`build_s_run`].
#[derive(Clone, Debug)]
pub struct SRun {
    /// The rounds, events, and snapshots.
    pub base: RoundedRun,
    /// The set `S` this run was built for.
    pub s: ProcSet,
    /// `S_r` for each executed round `r` (index 0 holds `S_1`).
    pub participants_per_round: Vec<Vec<ProcessId>>,
}

impl SRun {
    /// A run with no rounds, to be filled by [`fill_s_run`]. It holds an
    /// empty run in `exec`'s recording mode, ready to be swapped in.
    fn empty(exec: &Executor, all: &AllRun) -> SRun {
        let n = exec.n();
        SRun {
            base: RoundedRun {
                n,
                rounds: Vec::new(),
                changes: ChangeIndex::new(n),
                run: if exec.run().is_detailed() {
                    Run::new(n)
                } else {
                    Run::lightweight(n)
                },
                initial_memory: Arc::clone(&all.base.initial_memory),
                completed: true,
                outcome: RunOutcome::Completed,
            },
            s: ProcSet::new(),
            participants_per_round: Vec::new(),
        }
    }
}

/// Round records and `S_r` vectors that earlier, longer trials filled and
/// the current trial does not use, kept for the next longer one.
#[derive(Debug, Default)]
struct Spare {
    rounds: Vec<RoundRecord>,
    participants: Vec<Vec<ProcessId>>,
}

/// A reusable `(S, A)`-run construction: the per-worker scratch of the
/// exhaustive subset sweeps ([`crate::indist_subset_range`]).
///
/// It owns one executor and one [`SRun`], and [`SRunBuilder::build`]
/// refills both for every trial instead of allocating a fresh run, so
/// after its first trials a builder allocates little beyond what the
/// simulated programs themselves allocate. Every build equals
/// [`build_s_run`] with the same arguments, whatever was built before it.
#[derive(Debug)]
pub struct SRunBuilder {
    exec: Executor,
    srun: SRun,
    spare: Spare,
}

impl SRunBuilder {
    /// A builder for `(S, A)`-runs against `all`, which must have been
    /// built from `alg` and `toss`. Its executor takes `cfg`'s limits.
    pub fn new(
        alg: &dyn Algorithm,
        toss: Arc<dyn TossAssignment>,
        all: &AllRun,
        cfg: &AdversaryConfig,
    ) -> SRunBuilder {
        let exec = Executor::new(alg, all.n(), toss, cfg.executor);
        let srun = SRun::empty(&exec, all);
        SRunBuilder {
            exec,
            srun,
            spare: Spare::default(),
        }
    }

    /// Builds the `(S, A)`-run for `s` against `all`, overwriting the
    /// previous build. See [`build_s_run`] for the construction.
    ///
    /// # Errors
    ///
    /// Propagates the first [`RunError`] the executor reports. The builder
    /// stays usable: the next build starts from scratch.
    pub fn build(
        &mut self,
        alg: &dyn Algorithm,
        s: &ProcSet,
        all: &AllRun,
        cfg: &AdversaryConfig,
    ) -> Result<&SRun, RunError> {
        fill_s_run(
            &mut self.exec,
            alg,
            s,
            all,
            cfg,
            &mut self.srun,
            &mut self.spare,
        )?;
        Ok(&self.srun)
    }
}

/// Builds the `(S, A)`-run corresponding to `all` for the process set `s`.
///
/// `alg`, `n`, and `toss` must be the same algorithm, process count, and
/// toss assignment that produced `all` — the construction replays them from
/// scratch. As many rounds are executed as the `(All, A)`-run had (further
/// rounds would be empty for terminating algorithms); construction stops
/// early once every eligible participant has terminated.
///
/// # Examples
///
/// ```
/// use llsc_core::{build_all_run, build_s_run, AdversaryConfig};
/// use llsc_shmem::dsl::{done, ll};
/// use llsc_shmem::{FnAlgorithm, ProcessId, RegisterId, Value, ZeroTosses};
/// use std::sync::Arc;
///
/// let alg = FnAlgorithm::new("one-ll", |_p, _n| {
///     ll(RegisterId(0), |_| done(Value::from(0i64))).into_program()
/// });
/// let cfg = AdversaryConfig::default();
/// let all = build_all_run(&alg, 4, Arc::new(ZeroTosses), &cfg).unwrap();
/// let s = [ProcessId(0), ProcessId(1)].into_iter().collect();
/// let srun = build_s_run(&alg, 4, Arc::new(ZeroTosses), &s, &all, &cfg).unwrap();
/// // Only p0 and p1 step in the (S, A)-run.
/// assert_eq!(srun.base.run.shared_steps(ProcessId(0)), 1);
/// assert_eq!(srun.base.run.shared_steps(ProcessId(2)), 0);
/// ```
pub fn build_s_run(
    alg: &dyn Algorithm,
    n: usize,
    toss: Arc<dyn TossAssignment>,
    s: &ProcSet,
    all: &AllRun,
    cfg: &AdversaryConfig,
) -> Result<SRun, RunError> {
    let mut exec = Executor::new(alg, n, toss, cfg.executor);
    build_s_run_with(&mut exec, alg, s, all, cfg)
}

/// [`build_s_run`] on a caller's executor, which is [`Executor::reset`]
/// first and left holding an empty run. For callers that keep each
/// `(S, A)`-run; a loop that drops each run before building the next
/// should use an [`SRunBuilder`].
///
/// `exec` must have been built for the same algorithm, process count,
/// toss assignment, and executor config that produced `all` — reset
/// restores exactly that initial state, so the result is byte-identical
/// to [`build_s_run`]'s. The `(S, A)`-run shares the `(All, A)`-run's
/// initial-memory map instead of rebuilding it.
pub fn build_s_run_with(
    exec: &mut Executor,
    alg: &dyn Algorithm,
    s: &ProcSet,
    all: &AllRun,
    cfg: &AdversaryConfig,
) -> Result<SRun, RunError> {
    let mut srun = SRun::empty(exec, all);
    fill_s_run(exec, alg, s, all, cfg, &mut srun, &mut Spare::default())?;
    Ok(srun)
}

/// The one `(S, A)`-run construction: resets `exec`, replays the rounds
/// into `out`'s buffers, and swaps the recorded run into `out`, leaving
/// `out`'s previous run in `exec` for the next reset to clear. Records
/// and `S_r` vectors move between `out` and `spare` as the round count
/// shrinks and grows. On error `out` is left partly filled; the next call
/// overwrites all of it.
fn fill_s_run(
    exec: &mut Executor,
    alg: &dyn Algorithm,
    s: &ProcSet,
    all: &AllRun,
    cfg: &AdversaryConfig,
    out: &mut SRun,
    spare: &mut Spare,
) -> Result<(), RunError> {
    let n = exec.n();
    assert_eq!(n, all.n(), "process count must match the (All, A)-run");
    assert!(
        all.up.has_full_history(),
        "(S, A)-run construction needs an (All, A)-run built with track_up_history = true"
    );
    exec.reset(alg);
    // Round 1's buffers go on top, so each round tends to get back the
    // buffers it filled last time.
    spare.rounds.extend(out.base.rounds.drain(..).rev());
    spare
        .participants
        .extend(out.participants_per_round.drain(..).rev());
    out.base.changes.clear();
    out.s.clone_from(s);
    out.base.initial_memory = Arc::clone(&all.base.initial_memory);

    for r in 1..=all.base.num_rounds() {
        // S_r = { p | UP(p, r-1) ⊆ S }, computed from the (All, A)-run's
        // UP history. UP sets only grow, so S_r shrinks over rounds.
        let mut s_r = spare.participants.pop().unwrap_or_default();
        s_r.clear();
        s_r.extend(ProcessId::all(n).filter(|&p| all.up.proc(p, r - 1).is_subset(s)));
        // Early exit: every eligible process has terminated, and
        // eligibility only shrinks, so all remaining rounds are empty.
        if s_r.iter().all(|&p| exec.is_terminated(p)) {
            spare.participants.push(s_r);
            break;
        }
        let mut rec = spare.rounds.pop().unwrap_or_default();
        let sigma_r = &all.base.rounds[r - 1].sigma;
        let executed = execute_round_into(
            exec,
            r,
            &s_r,
            MoveOrder::Given(sigma_r),
            cfg.record_snapshots,
            &mut rec,
        );
        out.participants_per_round.push(s_r);
        out.base.rounds.push(rec);
        executed?;
        out.base.changes.record(&out.base.rounds[r - 1], exec.run());
    }

    out.base.completed = out
        .participants_per_round
        .last()
        .is_none_or(|ps| ps.iter().all(|&p| exec.is_terminated(p)));
    out.base.outcome = exec.run_outcome();
    exec.swap_run(&mut out.base.run);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::all_run::build_all_run;
    use llsc_shmem::dsl::{done, ll, mv, sc, swap, toss, validate};
    use llsc_shmem::{
        ExecutorConfig, FnAlgorithm, RegisterId, SeededTosses, Sweep, Value, ZeroTosses,
    };

    fn pset<const N: usize>(ids: [usize; N]) -> ProcSet {
        ids.into_iter().map(ProcessId).collect()
    }

    fn llsc_alg() -> impl Algorithm {
        FnAlgorithm::new("llsc", |pid: ProcessId, _n| {
            ll(RegisterId(0), move |_| {
                sc(RegisterId(0), Value::from(pid.0 as i64), |ok, _| {
                    done(Value::from(ok))
                })
            })
            .into_program()
        })
    }

    #[test]
    fn only_s_members_step_in_round_one() {
        let alg = llsc_alg();
        let cfg = AdversaryConfig::default();
        let all = build_all_run(&alg, 5, Arc::new(ZeroTosses), &cfg).unwrap();
        let s = pset([1, 3]);
        let srun = build_s_run(&alg, 5, Arc::new(ZeroTosses), &s, &all, &cfg).unwrap();
        assert_eq!(
            srun.participants_per_round[0],
            vec![ProcessId(1), ProcessId(3)]
        );
        for p in [ProcessId(0), ProcessId(2), ProcessId(4)] {
            assert_eq!(srun.base.run.shared_steps(p), 0, "{p} must not step");
        }
    }

    #[test]
    fn participants_shrink_as_up_grows() {
        // With the LL/SC algorithm, in round 2 losers of the SC learn about
        // the winner (p0). For S excluding p0, those losers drop out of
        // S_3... but the algorithm terminates in 2 rounds anyway, so check
        // the S_r sets directly.
        let alg = llsc_alg();
        let cfg = AdversaryConfig::default();
        let all = build_all_run(&alg, 4, Arc::new(ZeroTosses), &cfg).unwrap();
        let s = pset([1, 2, 3]);
        let srun = build_s_run(&alg, 4, Arc::new(ZeroTosses), &s, &all, &cfg).unwrap();
        // Round 1: UP(p,0) = {p}: p1..p3 participate.
        assert_eq!(
            srun.participants_per_round[0],
            vec![ProcessId(1), ProcessId(2), ProcessId(3)]
        );
        // Round 2: UP(p,1) = {p} still (LL of a fresh register reveals
        // nothing): same participants.
        assert_eq!(
            srun.participants_per_round[1],
            vec![ProcessId(1), ProcessId(2), ProcessId(3)]
        );
    }

    #[test]
    fn s_run_winner_differs_from_all_run() {
        // In the (All, A)-run p0's SC wins. In the (S, A)-run without p0,
        // p1's SC wins instead — the runs differ for processes whose UP
        // escapes S, exactly as the construction intends.
        let alg = llsc_alg();
        let cfg = AdversaryConfig::default();
        let all = build_all_run(&alg, 4, Arc::new(ZeroTosses), &cfg).unwrap();
        let winners = |run: &RoundedRun| -> Vec<_> {
            let ops = run.rounds[1].ops.iter();
            ops.filter(|o| o.sc_ok == Some(true))
                .map(|o| (o.p, o.register))
                .collect()
        };
        assert_eq!(winners(&all.base), [(ProcessId(0), RegisterId(0))]);
        let s = pset([1, 2, 3]);
        let srun = build_s_run(&alg, 4, Arc::new(ZeroTosses), &s, &all, &cfg).unwrap();
        assert_eq!(winners(&srun.base), [(ProcessId(1), RegisterId(0))]);
    }

    #[test]
    fn full_s_equals_all_run() {
        // With S = all processes, the (S, A)-run replays the (All, A)-run
        // exactly.
        let alg = llsc_alg();
        let cfg = AdversaryConfig::default();
        let all = build_all_run(&alg, 6, Arc::new(ZeroTosses), &cfg).unwrap();
        let s: ProcSet = ProcessId::all(6).collect();
        let srun = build_s_run(&alg, 6, Arc::new(ZeroTosses), &s, &all, &cfg).unwrap();
        assert_eq!(all.base.run.events(), srun.base.run.events());
    }

    #[test]
    fn moves_replay_in_sigma_order() {
        // Chain moves: p_i: move(R_i, R_{i+1}) then terminate. The S-run
        // must order its movers as the All-run's σ_1 did.
        let alg = FnAlgorithm::new("chain", |pid: ProcessId, _n| {
            mv(
                RegisterId(pid.0 as u64),
                RegisterId(pid.0 as u64 + 1),
                || done(Value::from(0i64)),
            )
            .into_program()
        });
        let cfg = AdversaryConfig::default();
        let all = build_all_run(&alg, 6, Arc::new(ZeroTosses), &cfg).unwrap();
        let s = pset([0, 1, 2, 3, 4, 5]);
        let srun = build_s_run(&alg, 6, Arc::new(ZeroTosses), &s, &all, &cfg).unwrap();
        assert_eq!(srun.base.rounds[0].sigma, all.base.rounds[0].sigma);

        // A strict subset also preserves relative σ order.
        let s2 = pset([0, 2, 4]);
        let srun2 = build_s_run(&alg, 6, Arc::new(ZeroTosses), &s2, &all, &cfg).unwrap();
        let expect: Vec<ProcessId> = all.base.rounds[0]
            .sigma
            .iter()
            .copied()
            .filter(|p| s2.contains(*p))
            .collect();
        assert_eq!(srun2.base.rounds[0].sigma, expect);
    }

    /// A zoo of round-1 shapes: LL/SC contention, movers, swappers,
    /// validates, instant terminators.
    fn mixed_alg() -> impl Algorithm {
        FnAlgorithm::new("mixed", |pid: ProcessId, _n| {
            let prog: Box<dyn llsc_shmem::Program> = match pid.0 % 6 {
                0 => ll(RegisterId(0), move |_| {
                    sc(RegisterId(0), Value::from(pid.0 as i64), |ok, _| {
                        done(Value::from(ok))
                    })
                })
                .into_program(),
                1 => mv(RegisterId(1), RegisterId(2), || done(Value::from(0i64))).into_program(),
                2 => swap(RegisterId(3), Value::from(7i64), |_| {
                    done(Value::from(0i64))
                })
                .into_program(),
                3 => validate(RegisterId(0), |_, _| done(Value::from(0i64))).into_program(),
                4 => done(Value::from(0i64)).into_program(),
                _ => ll(RegisterId(4), |_| done(Value::from(0i64))).into_program(),
            };
            prog
        })
    }

    /// A randomized algorithm: tosses decide the register, so every
    /// process tosses in Phase 1.
    fn tossing_alg() -> impl Algorithm {
        FnAlgorithm::new("toss", |pid: ProcessId, _n| {
            toss(move |c| {
                ll(RegisterId(c % 3), move |_| {
                    sc(RegisterId(c % 3), Value::from(pid.0 as i64), |ok, _| {
                        done(Value::from(ok))
                    })
                })
            })
            .into_program()
        })
    }

    fn proc_set(n: usize, mask: usize) -> ProcSet {
        (0..n)
            .filter(|i| mask & (1 << i) != 0)
            .map(ProcessId)
            .collect()
    }

    /// The masks of an `n`-process system in the orders a reused builder
    /// is driven in: ascending, descending, and the full set alternating
    /// with single-process sets, so the round count shrinks and grows
    /// between consecutive trials.
    fn visit_orders(n: usize) -> [Vec<usize>; 3] {
        let full = (1 << n) - 1;
        [
            (0..1 << n).collect(),
            (0..1 << n).rev().collect(),
            (0..n).flat_map(|i| [full, 1 << i]).collect(),
        ]
    }

    /// Requires a reused construction's run to equal a fresh one event for
    /// event, history for history and round record for round record, and
    /// to share the `(All, A)`-run's initial memory.
    fn assert_same_s_run(fresh: &SRun, reused: &SRun, all: &AllRun, at: &str) {
        assert_eq!(fresh.s, reused.s, "{at}");
        let (f, r) = (&fresh.base.run, &reused.base.run);
        assert_eq!(f.events(), r.events(), "{at}");
        assert_eq!(f.event_count(), r.event_count(), "{at}");
        assert_eq!(f.counters(), r.counters(), "{at}");
        for p in ProcessId::all(fresh.base.n) {
            assert_eq!(f.history(p), r.history(p), "{at} {p}");
            assert_eq!(f.verdict(p), r.verdict(p), "{at} {p}");
        }
        assert_eq!(
            fresh.participants_per_round, reused.participants_per_round,
            "{at}"
        );
        assert_eq!(fresh.base.rounds.len(), reused.base.rounds.len(), "{at}");
        for (a, b) in fresh.base.rounds.iter().zip(&reused.base.rounds) {
            let at = format!("{at} r={}", a.round);
            assert_eq!(a.round, b.round, "{at}");
            assert_eq!(a.phase1_tosses, b.phase1_tosses, "{at}");
            assert_eq!(a.terminated_in_phase1, b.terminated_in_phase1, "{at}");
            assert_eq!(a.move_config, b.move_config, "{at}");
            assert_eq!(a.sigma, b.sigma, "{at}");
            assert_eq!(a.ops, b.ops, "{at}");
            assert_eq!(a.end_registers, b.end_registers, "{at}");
        }
        assert_eq!(fresh.base.changes, reused.base.changes, "{at}");
        assert_eq!(fresh.base.completed, reused.base.completed, "{at}");
        assert_eq!(fresh.base.outcome, reused.base.outcome, "{at}");
        assert!(
            Arc::ptr_eq(&reused.base.initial_memory, &all.base.initial_memory),
            "{at}: the S-run shares the All-run's initial memory"
        );
    }

    /// Builds every subset's `(S, A)`-run fresh, then again with
    /// [`build_s_run_with`] on one reused executor and with one
    /// [`SRunBuilder`] per visit order, and requires every reused build to
    /// equal the fresh one: the check that [`Executor::reset`] and the
    /// builder's refill leave no state of an earlier trial behind.
    fn assert_trials_match(
        alg: &dyn Algorithm,
        n: usize,
        toss_assignment: Arc<dyn TossAssignment>,
        cfg: &AdversaryConfig,
    ) {
        let all = build_all_run(alg, n, toss_assignment.clone(), cfg).unwrap();
        let fresh: Vec<SRun> = (0..1usize << n)
            .map(|mask| {
                let s = proc_set(n, mask);
                build_s_run(alg, n, toss_assignment.clone(), &s, &all, cfg).unwrap()
            })
            .collect();
        let mut exec = Executor::new(alg, n, toss_assignment.clone(), cfg.executor);
        for (mask, fresh) in fresh.iter().enumerate() {
            let reused = build_s_run_with(&mut exec, alg, &proc_set(n, mask), &all, cfg).unwrap();
            assert_same_s_run(fresh, &reused, &all, &format!("owned mask={mask:#b}"));
        }
        for (o, order) in visit_orders(n).iter().enumerate() {
            let mut builder = SRunBuilder::new(alg, toss_assignment.clone(), &all, cfg);
            for &mask in order {
                let reused = builder.build(alg, &proc_set(n, mask), &all, cfg).unwrap();
                let at = format!("order {o} mask={mask:#b}");
                assert_same_s_run(&fresh[mask], reused, &all, &at);
            }
        }
    }

    #[test]
    fn reused_executor_builds_identical_s_runs() {
        // One executor reset across every subset of a 4-process system
        // must reproduce the fresh-executor construction exactly — the
        // invariant the 2^n subset sweeps rely on.
        assert_trials_match(
            &llsc_alg(),
            4,
            Arc::new(ZeroTosses),
            &AdversaryConfig::default(),
        );
    }

    #[test]
    fn reused_executor_matches_fresh_llsc() {
        assert_trials_match(
            &llsc_alg(),
            5,
            Arc::new(ZeroTosses),
            &AdversaryConfig::default(),
        );
    }

    #[test]
    fn reused_executor_matches_fresh_mixed() {
        assert_trials_match(
            &mixed_alg(),
            6,
            Arc::new(ZeroTosses),
            &AdversaryConfig::default(),
        );
    }

    #[test]
    fn reused_executor_matches_fresh_randomized() {
        for seed in [7u64, 99, 12345] {
            assert_trials_match(
                &tossing_alg(),
                5,
                Arc::new(SeededTosses::new(seed)),
                &AdversaryConfig::default(),
            );
        }
    }

    #[test]
    fn reused_executor_matches_fresh_under_varied_configs() {
        let alg = mixed_alg();
        let cfg = AdversaryConfig {
            record_snapshots: false,
            ..AdversaryConfig::default()
        };
        assert_trials_match(&alg, 5, Arc::new(ZeroTosses), &cfg);
        let cfg = AdversaryConfig {
            executor: ExecutorConfig {
                record_details: false,
                ..ExecutorConfig::default()
            },
            ..AdversaryConfig::default()
        };
        assert_trials_match(&alg, 5, Arc::new(ZeroTosses), &cfg);
    }

    #[test]
    fn a_failed_build_leaves_the_builder_reusable() {
        // The (All, A)-run gets the default budget; the builder's is one
        // event short of it, so the full set's S-run, which replays the
        // All-run, runs out in its last round while single processes fit.
        let (alg, n) = (mixed_alg(), 6);
        let cfg = AdversaryConfig::default();
        let all = build_all_run(&alg, n, Arc::new(ZeroTosses), &cfg).unwrap();
        let budget = all.base.run.event_count() - 1;
        let starved = AdversaryConfig {
            executor: ExecutorConfig {
                max_events: budget,
                ..cfg.executor
            },
            ..cfg
        };
        let full = proc_set(n, (1 << n) - 1);
        let mut builder = SRunBuilder::new(&alg, Arc::new(ZeroTosses), &all, &starved);
        for mask in [1usize, 0b11_1111, 1 << 5, 0b11_1111, 0, 0b1001] {
            let s = proc_set(n, mask);
            let fresh = build_s_run(&alg, n, Arc::new(ZeroTosses), &s, &all, &starved);
            match (fresh, builder.build(&alg, &s, &all, &starved)) {
                (Ok(fresh), Ok(reused)) => {
                    assert_same_s_run(&fresh, reused, &all, &format!("mask={mask:#b}"))
                }
                (Err(fresh), Err(reused)) => {
                    assert_eq!(s, full, "only the full set runs out");
                    assert_eq!(reused, RunError::BudgetExhausted { events: budget });
                    assert_eq!(fresh, reused);
                }
                (fresh, reused) => panic!("mask={mask:#b}: {fresh:?} vs {reused:?}"),
            }
        }
    }

    #[test]
    fn a_sweep_of_builders_reports_its_lowest_failing_mask() {
        // p1 and p4 toss 8 coins before their LL, the others one. Under a
        // burst limit of 4 every S-run containing either diverges, naming
        // the lower diverger; masks 2.. name p1 and masks 16.. without p1
        // name p4. The All-run is built without the limit.
        let alg = FnAlgorithm::new("tossers", |pid: ProcessId, _n| {
            fn tosses_then_ll(k: usize) -> llsc_shmem::dsl::Step {
                match k {
                    0 => ll(RegisterId(0), |_| done(Value::from(0i64))),
                    _ => toss(move |_| tosses_then_ll(k - 1)),
                }
            }
            tosses_then_ll(if pid.0 % 3 == 1 { 8 } else { 1 }).into_program()
        });
        let n = 6;
        let cfg = AdversaryConfig::default();
        let toss_assignment: Arc<dyn TossAssignment> = Arc::new(ZeroTosses);
        let all = build_all_run(&alg, n, toss_assignment.clone(), &cfg).unwrap();
        let starved = AdversaryConfig {
            executor: ExecutorConfig {
                max_local_burst: 4,
                ..cfg.executor
            },
            ..cfg
        };
        let lowest = (0..1usize << n)
            .find_map(|mask| {
                build_s_run(
                    &alg,
                    n,
                    toss_assignment.clone(),
                    &proc_set(n, mask),
                    &all,
                    &starved,
                )
                .err()
            })
            .expect("some S-run diverges");
        assert_eq!(lowest, RunError::DivergedLocalBurst { pid: ProcessId(1) });
        for threads in [1, 2, 4, 8] {
            let events = Sweep::with_threads(threads).run_indexed_range_with_scratch(
                0,
                1 << n,
                || SRunBuilder::new(&alg, toss_assignment.clone(), &all, &starved),
                |builder, trial| {
                    let s = proc_set(n, trial.index);
                    builder
                        .build(&alg, &s, &all, &starved)
                        .map(|srun| srun.base.run.event_count())
                },
            );
            assert_eq!(
                events.iter().filter(|e| e.is_ok()).count(),
                16,
                "threads={threads}: the masks without p1 and p4 succeed"
            );
            let first = events.into_iter().collect::<Result<Vec<u64>, RunError>>();
            assert_eq!(first, Err(lowest), "threads={threads}");
        }
    }

    #[test]
    fn empty_s_produces_empty_run() {
        let alg = llsc_alg();
        let cfg = AdversaryConfig::default();
        let all = build_all_run(&alg, 3, Arc::new(ZeroTosses), &cfg).unwrap();
        let srun = build_s_run(&alg, 3, Arc::new(ZeroTosses), &ProcSet::new(), &all, &cfg).unwrap();
        assert!(srun.base.run.events().is_empty());
        assert!(srun.base.completed);
    }

    #[test]
    #[should_panic(expected = "process count must match")]
    fn mismatched_n_panics() {
        let alg = llsc_alg();
        let cfg = AdversaryConfig::default();
        let all = build_all_run(&alg, 3, Arc::new(ZeroTosses), &cfg).unwrap();
        build_s_run(&alg, 4, Arc::new(ZeroTosses), &ProcSet::new(), &all, &cfg).unwrap();
    }
}
