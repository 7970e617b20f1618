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

use crate::all_run::{AdversaryConfig, AllRun, RoundedRun};
use crate::rounds::{execute_round_with, MoveOrder};
use crate::upsets::ProcSet;
use llsc_shmem::{Algorithm, Executor, ProcessId, TossAssignment};
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
) -> Result<SRun, llsc_shmem::RunError> {
    let mut exec = Executor::new(alg, n, toss, cfg.executor);
    build_s_run_with(&mut exec, alg, s, all, cfg)
}

/// The scratch-reusing core of [`build_s_run`]: replays the construction
/// on `exec`, which is [`Executor::reset`] first and left reusable (with
/// an empty run, via [`Executor::take_run`]) afterwards.
///
/// This is the per-trial entry point of the exhaustive subset sweeps
/// ([`crate::indist_all_subsets`]): one executor per *worker* is reset
/// between the `2^n` trials instead of constructed per trial, and the
/// `(S, A)`-run shares the `(All, A)`-run's initial-memory map instead of
/// rebuilding it. `exec` must have been built for the same algorithm,
/// process count, toss assignment, and executor config that produced
/// `all` — reset restores exactly that initial state, so the result is
/// byte-identical to [`build_s_run`]'s.
pub fn build_s_run_with(
    exec: &mut Executor,
    alg: &dyn Algorithm,
    s: &ProcSet,
    all: &AllRun,
    cfg: &AdversaryConfig,
) -> Result<SRun, llsc_shmem::RunError> {
    let n = exec.n();
    assert_eq!(n, all.n(), "process count must match the (All, A)-run");
    assert!(
        all.up.has_full_history(),
        "(S, A)-run construction needs an (All, A)-run built with track_up_history = true"
    );
    exec.reset(alg);
    let mut rounds = Vec::new();
    let mut participants_per_round = Vec::new();

    for r in 1..=all.base.num_rounds() {
        // S_r = { p | UP(p, r-1) ⊆ S }, computed from the (All, A)-run's
        // UP history. UP sets only grow, so S_r shrinks over rounds.
        let s_r: Vec<ProcessId> = ProcessId::all(n)
            .filter(|&p| all.up.proc(p, r - 1).is_subset(s))
            .collect();
        // Early exit: every eligible process has terminated, and
        // eligibility only shrinks, so all remaining rounds are empty.
        if s_r.iter().all(|&p| exec.is_terminated(p)) {
            break;
        }
        let sigma_r = &all.base.rounds[r - 1].sigma;
        let rec = execute_round_with(
            exec,
            r,
            &s_r,
            MoveOrder::Given(sigma_r),
            cfg.record_snapshots,
        )?;
        participants_per_round.push(s_r);
        rounds.push(rec);
    }

    let completed = participants_per_round
        .last()
        .map(|ps| ps.iter().all(|&p| exec.is_terminated(p)))
        .unwrap_or(true);
    let outcome = exec.run_outcome();
    Ok(SRun {
        base: RoundedRun {
            n,
            rounds,
            run: exec.take_run(),
            initial_memory: Arc::clone(&all.base.initial_memory),
            completed,
            outcome,
        },
        s: s.clone(),
        participants_per_round,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::all_run::build_all_run;
    use llsc_shmem::dsl::{done, ll, mv, sc, swap, toss, validate};
    use llsc_shmem::{ExecutorConfig, FnAlgorithm, RegisterId, SeededTosses, Value, ZeroTosses};

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
        assert_eq!(
            all.base.rounds[1].successful_sc.get(&RegisterId(0)),
            Some(&ProcessId(0))
        );
        let s = pset([1, 2, 3]);
        let srun = build_s_run(&alg, 4, Arc::new(ZeroTosses), &s, &all, &cfg).unwrap();
        assert_eq!(
            srun.base.rounds[1].successful_sc.get(&RegisterId(0)),
            Some(&ProcessId(1))
        );
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

    /// Builds every subset's `(S, A)`-run on one reused executor and on a
    /// fresh one, and requires them to match event for event, history
    /// for history and round record for round record: the check that
    /// [`Executor::reset`] restores the full initial state.
    fn assert_trials_match(
        alg: &dyn Algorithm,
        n: usize,
        toss_assignment: Arc<dyn TossAssignment>,
        cfg: &AdversaryConfig,
    ) {
        let all = build_all_run(alg, n, toss_assignment.clone(), cfg).unwrap();
        let mut exec = Executor::new(alg, n, toss_assignment.clone(), cfg.executor);
        for mask in 0..1usize << n {
            let s: ProcSet = (0..n)
                .filter(|i| mask & (1 << i) != 0)
                .map(ProcessId)
                .collect();
            let fresh = build_s_run(alg, n, toss_assignment.clone(), &s, &all, cfg).unwrap();
            let reused = build_s_run_with(&mut exec, alg, &s, &all, cfg).unwrap();
            assert_eq!(reused.s, s, "mask={mask:#b}");
            assert_eq!(
                fresh.base.run.events(),
                reused.base.run.events(),
                "mask={mask:#b}"
            );
            for p in ProcessId::all(n) {
                assert_eq!(
                    fresh.base.run.history(p),
                    reused.base.run.history(p),
                    "mask={mask:#b} {p}"
                );
            }
            assert_eq!(
                fresh.participants_per_round, reused.participants_per_round,
                "mask={mask:#b}"
            );
            assert_eq!(fresh.base.rounds.len(), reused.base.rounds.len());
            for (a, b) in fresh.base.rounds.iter().zip(&reused.base.rounds) {
                let at = format!("mask={mask:#b} r={}", a.round);
                assert_eq!(a.participants, b.participants, "{at}");
                assert_eq!(a.phase1_tosses, b.phase1_tosses, "{at}");
                assert_eq!(a.terminated_in_phase1, b.terminated_in_phase1, "{at}");
                assert_eq!(a.groups, b.groups, "{at}");
                assert_eq!(a.move_config, b.move_config, "{at}");
                assert_eq!(a.sigma, b.sigma, "{at}");
                assert_eq!(a.ops, b.ops, "{at}");
                assert_eq!(a.successful_sc, b.successful_sc, "{at}");
                assert_eq!(a.swaps, b.swaps, "{at}");
                assert_eq!(a.moves_into, b.moves_into, "{at}");
                assert_eq!(a.end_registers, b.end_registers, "{at}");
                assert_eq!(a.end_tosses, b.end_tosses, "{at}");
                assert_eq!(a.end_history_len, b.end_history_len, "{at}");
                assert_eq!(a.end_shared_steps, b.end_shared_steps, "{at}");
            }
            assert_eq!(
                fresh.base.completed, reused.base.completed,
                "mask={mask:#b}"
            );
            assert_eq!(fresh.base.outcome, reused.base.outcome, "mask={mask:#b}");
            assert!(
                Arc::ptr_eq(&reused.base.initial_memory, &all.base.initial_memory),
                "the S-run shares the All-run's initial memory"
            );
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
