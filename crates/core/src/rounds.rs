//! The five-phase round structure of the adversary (Figure 2 / Figure 3).
//!
//! Both the `(All, A)`-run and the `(S, A)`-run proceed in rounds with the
//! same five phases; they differ only in *which* processes participate and
//! in how the move-group is ordered (the `(S, A)`-run reuses the secretive
//! schedule `σ_r` computed for the `(All, A)`-run). [`execute_round`]
//! implements one round over a live [`Executor`] and records everything the
//! `UP`-set update rules and the indistinguishability checker later need.
//! What the participants did is recorded once, as the round's operation
//! list [`RoundRecord::ops`] in phase order (`phase_of`); the `UP` rules
//! and the claims checker read successful SCs, swappers and movers from it.

use crate::secretive::{self, MoveConfig};
use crate::vecmap::VecMap;
use llsc_shmem::{
    Executor, OpKind, Operation, ProcessId, RegisterId, RegisterState, Run, RunError,
};

/// A lean record of one shared-memory operation of a round: who acted,
/// what kind of operation on which register, and whether an SC succeeded
/// — everything the `UP` update rules and the claims checker need, without
/// the (possibly large) operand/response values.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OpSummary {
    /// The invoking process.
    pub p: ProcessId,
    /// The operation's kind.
    pub kind: OpKind,
    /// The register whose state the operation targets (`dst` for a move).
    pub register: RegisterId,
    /// For an SC: whether it succeeded. `None` for other kinds.
    pub sc_ok: Option<bool>,
}

/// The Figure-2 phase in which a round performs an operation of `kind`:
/// 2 for LL and validate, 3 for move, 4 for swap, 5 for SC (phase 1 is
/// the local steps). A round's operations run in phase order.
pub(crate) fn phase_of(kind: OpKind) -> u8 {
    match kind {
        OpKind::Ll | OpKind::Validate => 2,
        OpKind::Move => 3,
        OpKind::Swap => 4,
        OpKind::Sc => 5,
    }
}

/// How Phase 3 (the move group) is ordered.
#[derive(Clone, Copy, Debug)]
pub enum MoveOrder<'a> {
    /// Compute a fresh secretive complete schedule for this round's move
    /// configuration — the `(All, A)`-run behaviour.
    Secretive,
    /// Follow the given schedule, restricted to this round's move group —
    /// the `(S, A)`-run behaviour ("processes in `S_{2,r}` perform one
    /// operation each, in the order in which they appear in `σ_r`").
    Given(&'a [ProcessId]),
}

/// Everything that happened in one adversary round, in enough detail to
/// (a) apply the Section-5.3 `UP` update rules and (b) compare end-of-round
/// configurations between runs.
#[derive(Clone, Debug, Default)]
pub struct RoundRecord {
    /// 1-based round number.
    pub round: usize,
    /// Coin tosses performed in Phase 1, per process that tossed.
    pub phase1_tosses: VecMap<ProcessId, u64>,
    /// Processes that terminated during Phase 1 of this round.
    pub terminated_in_phase1: Vec<ProcessId>,
    /// The move configuration `(G_{2,r}, f_r)` of this round.
    pub move_config: MoveConfig,
    /// `σ_r`: the order in which the move group actually executed.
    pub sigma: Vec<ProcessId>,
    /// Every shared-memory operation of the round, in execution order:
    /// phase order (LL/validate, moves, swaps, SCs), the LL/validate, swap
    /// and SC groups each in id order and the movers in `σ_r` order. The
    /// round's only record of what its participants did (lean summaries;
    /// the full operations live in the underlying [`llsc_shmem::Run`] when
    /// detail recording is on).
    pub ops: Vec<OpSummary>,
    /// The value and `Pset` of every touched register at the end of the
    /// round; `None` when snapshot recording is disabled.
    pub end_registers: Option<VecMap<RegisterId, RegisterState>>,
}

impl RoundRecord {
    /// The processes that tossed, performed an operation or terminated
    /// this round; a process that did more than one of these is listed
    /// more than once.
    fn acted(&self) -> impl Iterator<Item = ProcessId> + '_ {
        self.phase1_tosses
            .keys()
            .chain(&self.terminated_in_phase1)
            .copied()
            .chain(self.ops.iter().map(|o| o.p))
    }

    /// Records the end-of-round register state: when `snapshots` is set,
    /// one snapshot of every touched register.
    fn close(&mut self, exec: &Executor, snapshots: bool) {
        if snapshots {
            let memory = exec.memory();
            self.end_registers
                .get_or_insert_with(VecMap::new)
                .refill_sorted(|entries| memory.snapshot_into(entries));
        } else {
            self.end_registers = None;
        }
    }
}

/// A process's cumulative counts at the end of a round, in 16 bytes.
///
/// Every count fits its 32 bits: a run has fewer than 2^32 rounds, a
/// process performs at most one operation per round, and a detailed run
/// holds at most 2^32 events. Only the toss count is bounded by nothing
/// else, and recording a process with 2^32 tosses panics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RoundCounts {
    /// The round at whose end the counts were taken (0: the initial
    /// configuration).
    pub round: u32,
    /// The length of the process's interaction history (0 in a run that
    /// records no details).
    pub history_len: u32,
    /// Coin tosses performed.
    pub tosses: u32,
    /// Shared-memory steps performed.
    pub shared_steps: u32,
}

/// Per process, its [`RoundCounts`] at the end of every round in which it
/// tossed, performed an operation or terminated, in round order. A round
/// in which a process did none of these leaves its counts unchanged and
/// adds no entry, so the index grows with the run's operations, not with
/// rounds times processes. A process's counts at the end of round `r` are
/// those of its last entry with `round <= r`, or zero if it has none.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChangeIndex {
    procs: Vec<Vec<RoundCounts>>,
}

impl ChangeIndex {
    /// An empty index for `n` processes.
    pub fn new(n: usize) -> ChangeIndex {
        ChangeIndex {
            procs: vec![Vec::new(); n],
        }
    }

    /// Empties every process's entries, keeping their allocations.
    pub(crate) fn clear(&mut self) {
        for entries in &mut self.procs {
            entries.clear();
        }
    }

    /// Appends, for each process that acted in `rec`'s round, its counts
    /// in `run` at the end of that round. Called once per round, in round
    /// order, right after the round executed.
    pub(crate) fn record(&mut self, rec: &RoundRecord, run: &Run) {
        let round = u32::try_from(rec.round).expect("a run has fewer than 2^32 rounds");
        for p in rec.acted() {
            let entries = &mut self.procs[p.0];
            if entries.last().is_some_and(|c| c.round == round) {
                continue;
            }
            entries.push(RoundCounts {
                round,
                history_len: u32::try_from(run.history(p).len())
                    .expect("a detailed run holds at most 2^32 events"),
                tosses: u32::try_from(run.tosses(p))
                    .expect("a process tosses fewer than 2^32 coins"),
                shared_steps: u32::try_from(run.shared_steps(p))
                    .expect("a process performs at most one operation per round"),
            });
        }
    }

    /// `p`'s entries, in round order.
    pub fn entries(&self, p: ProcessId) -> &[RoundCounts] {
        &self.procs[p.0]
    }

    /// `p`'s entries, mutably (for building tampered runs in tests).
    pub fn entries_mut(&mut self, p: ProcessId) -> &mut [RoundCounts] {
        &mut self.procs[p.0]
    }

    /// `p`'s counts at the end of round `r`, by binary search.
    pub fn at(&self, p: ProcessId, r: usize) -> RoundCounts {
        let entries = &self.procs[p.0];
        match entries.partition_point(|c| c.round as usize <= r) {
            0 => RoundCounts::default(),
            i => entries[i - 1],
        }
    }

    /// [`ChangeIndex::at`] by a forward cursor, for a caller whose `r`
    /// only grows: `pos` counts `p`'s entries at or before the previous
    /// call's round (0 before the first call), so each entry is passed
    /// once.
    pub(crate) fn seek(&self, p: ProcessId, r: usize, pos: &mut usize) -> RoundCounts {
        let entries = &self.procs[p.0];
        while entries.get(*pos).is_some_and(|c| c.round as usize <= r) {
            *pos += 1;
        }
        pos.checked_sub(1)
            .map_or_else(RoundCounts::default, |i| entries[i])
    }
}

/// Executes one five-phase round over `exec` for the given participants,
/// which must be in id order.
///
/// Phases (exactly Figure 2 / Figure 3):
///
/// 1. each participant, in id order, performs coin tosses until it
///    terminates or its next step is a shared-memory operation;
/// 2. the LL/validate group acts, in id order;
/// 3. the move group acts, ordered per `move_order`;
/// 4. the swap group acts, in id order;
/// 5. the SC group acts, in id order.
///
/// Already-terminated (or crashed) participants are skipped — their
/// rounds are empty, which is exactly the paper's "delayed forever"
/// adversary move.
///
/// `snapshots` keeps the end-of-round register snapshots
/// ([`RoundRecord::end_registers`]). They power the indistinguishability
/// checker but can dominate memory for value-heavy algorithms over many
/// rounds; large measurement sweeps turn them off.
///
/// # Errors
///
/// Propagates the first [`RunError`] the executor reports (a diverging
/// Phase-1 burst or an exhausted event budget).
///
/// # Panics
///
/// Panics if `move_order` is [`MoveOrder::Given`] and some mover of this
/// round does not appear in the given schedule (Claim A.3 guarantees this
/// cannot happen for the `(S, A)`-run construction).
pub(crate) fn execute_round(
    exec: &mut Executor,
    round: usize,
    participants: &[ProcessId],
    move_order: MoveOrder<'_>,
    snapshots: bool,
) -> Result<RoundRecord, RunError> {
    let mut rec = RoundRecord::default();
    execute_round_into(exec, round, participants, move_order, snapshots, &mut rec)?;
    Ok(rec)
}

/// [`execute_round`] into a caller-owned record: every field of
/// `rec` is overwritten, and its buffers are reused where they have room.
/// A fresh (default) record ends up sized exactly as
/// [`execute_round`] sizes it, so records kept for a whole run carry
/// no slack; a recycled one keeps its capacity.
///
/// On error `rec` is left partly filled and must be refilled before use.
pub(crate) fn execute_round_into(
    exec: &mut Executor,
    round: usize,
    participants: &[ProcessId],
    move_order: MoveOrder<'_>,
    snapshots: bool,
    rec: &mut RoundRecord,
) -> Result<(), RunError> {
    debug_assert!(
        participants.is_sorted(),
        "round {round}: participants out of id order"
    );
    rec.round = round;
    rec.terminated_in_phase1.clear();
    rec.phase1_tosses.clear();
    rec.move_config.clear();
    // Room for every participant; a fresh record gives back what planning
    // leaves unused.
    let fresh = rec.ops.capacity() == 0;
    rec.ops.clear();
    rec.ops.reserve_exact(participants.len());

    // Phase 1: local steps, in id order. Each survivor's pending operation
    // is planned in the same pass: planning has no side effects, so the
    // event order is that of two passes.
    for &p in participants {
        if !exec.is_runnable(p) {
            continue;
        }
        let tosses = exec.advance_local(p)?;
        if tosses > 0 {
            rec.phase1_tosses.insert(p, tosses);
        }
        if exec.is_terminated(p) {
            rec.terminated_in_phase1.push(p);
            continue;
        }
        let Some(op) = exec.pending_op(p) else {
            continue;
        };
        if let Operation::Move { src, dst } = *op {
            rec.move_config.insert(p, src, dst);
        }
        rec.ops.push(OpSummary {
            p,
            kind: op.kind(),
            register: op.target(),
            sc_ok: None,
        });
    }
    if fresh {
        rec.ops.shrink_to_fit();
    }
    // Stable: each group stays in id order.
    rec.ops.sort_by_key(|o| phase_of(o.kind));

    // Phase 3 ordering.
    match move_order {
        MoveOrder::Secretive => {
            rec.sigma = secretive::secretive_complete_schedule(&rec.move_config);
        }
        MoveOrder::Given(outer) => {
            let movers = &rec.move_config;
            rec.sigma.clear();
            rec.sigma
                .extend(outer.iter().copied().filter(|&p| movers.contains(p)));
            assert!(
                rec.sigma.len() == movers.len(),
                "round {round}: mover(s) {:?} missing from the given σ_r (Claim A.3 violated)",
                movers
                    .processes()
                    .filter(|p| !outer.contains(p))
                    .collect::<Vec<_>>()
            );
        }
    }
    // The move segment, planned in id order, is rewritten in σ_r order.
    let moves = rec
        .ops
        .partition_point(|o| phase_of(o.kind) < phase_of(OpKind::Move));
    for (slot, &p) in rec.ops[moves..].iter_mut().zip(&rec.sigma) {
        let (_, dst) = rec
            .move_config
            .get(p)
            .expect("σ_r schedules this round's movers");
        slot.p = p;
        slot.register = dst;
    }

    // Phases 2-5: each planned operation is performed in place; only an
    // SC's outcome is filled in.
    for planned in &mut rec.ops {
        let (op, resp) = exec.perform_shared(planned.p)?;
        debug_assert_eq!(
            (op.kind(), op.target()),
            (planned.kind, planned.register),
            "round {round}: {} performed other than planned",
            planned.p
        );
        if planned.kind == OpKind::Sc {
            planned.sc_ok = resp.flag();
        }
    }
    rec.close(exec, snapshots);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use llsc_shmem::dsl::{done, ll, mv, sc, swap, validate};
    use llsc_shmem::{
        Algorithm, ExecutorConfig, FnAlgorithm, ProcMask, Program, Value, ZeroTosses,
    };
    use std::sync::Arc;

    fn exec_for(alg: &dyn Algorithm, n: usize) -> Executor {
        Executor::new(alg, n, Arc::new(ZeroTosses), ExecutorConfig::default())
    }

    fn all_pids(n: usize) -> Vec<ProcessId> {
        ProcessId::all(n).collect()
    }

    /// Four processes, one of each op kind, all targeting distinct
    /// registers.
    fn mixed_alg() -> impl Algorithm {
        FnAlgorithm::new("mixed", |pid: ProcessId, _n| {
            let prog: Box<dyn Program> = match pid.0 {
                0 => ll(RegisterId(0), |_| done(Value::from(0i64))).into_program(),
                1 => mv(RegisterId(1), RegisterId(2), || done(Value::from(0i64))).into_program(),
                2 => swap(RegisterId(3), Value::from(1i64), |_| {
                    done(Value::from(0i64))
                })
                .into_program(),
                _ => ll(RegisterId(4), |_| {
                    sc(RegisterId(4), Value::from(9i64), |_, _| {
                        done(Value::from(0i64))
                    })
                })
                .into_program(),
            };
            prog
        })
    }

    /// The processes of `rec`'s operations in phase `phase`, in execution
    /// order.
    fn phase_pids(rec: &RoundRecord, phase: u8) -> Vec<usize> {
        let ops = rec.ops.iter().filter(|o| phase_of(o.kind) == phase);
        ops.map(|o| o.p.0).collect()
    }

    #[test]
    fn groups_partition_by_kind() {
        let alg = mixed_alg();
        let mut e = exec_for(&alg, 4);
        let rec = execute_round(&mut e, 1, &all_pids(4), MoveOrder::Secretive, true).unwrap();
        assert_eq!(phase_pids(&rec, 2), [0, 3]);
        assert_eq!(phase_pids(&rec, 3), [1]);
        assert_eq!(phase_pids(&rec, 4), [2]);
        assert!(phase_pids(&rec, 5).is_empty(), "p3's SC comes next round");
        assert_eq!(rec.ops.len(), 4);
    }

    #[test]
    fn validate_goes_to_group_one() {
        let alg = FnAlgorithm::new("v", |_pid, _n| {
            validate(RegisterId(0), |_, _| done(Value::from(0i64))).into_program()
        });
        let mut e = exec_for(&alg, 2);
        let rec = execute_round(&mut e, 1, &all_pids(2), MoveOrder::Secretive, true).unwrap();
        assert_eq!(phase_pids(&rec, 2), [0, 1]);
        assert_eq!(rec.ops.len(), 2);
    }

    #[test]
    fn ops_run_in_phase_order_groups_by_id_movers_by_sigma() {
        // Round 1: validates (p0, p6) and an LL (p3), three movers, two
        // swappers. Round 2: the validators' and p3's SCs.
        let alg = FnAlgorithm::new("grouped", |pid: ProcessId, _n| {
            let then_sc = |r: u64| sc(RegisterId(r), Value::from(1i64), |_, _| done(Value::Unit));
            let k = pid.0 as u64;
            let prog: Box<dyn Program> = match pid.0 {
                0 | 6 => validate(RegisterId(0), move |_, _| then_sc(0)).into_program(),
                3 => ll(RegisterId(4), move |_| then_sc(4)).into_program(),
                1 | 4 | 7 => {
                    mv(RegisterId(20 + k), RegisterId(40 + k), || done(Value::Unit)).into_program()
                }
                _ => swap(RegisterId(3), Value::from(2i64), |_| done(Value::Unit)).into_program(),
            };
            prog
        });
        let mut e = exec_for(&alg, 8);
        let order = [ProcessId(7), ProcessId(1), ProcessId(4)];
        let r1 = execute_round(&mut e, 1, &all_pids(8), MoveOrder::Given(&order), true).unwrap();
        let r2 = execute_round(&mut e, 2, &all_pids(8), MoveOrder::Secretive, true).unwrap();
        for rec in [&r1, &r2] {
            assert!(rec.ops.is_sorted_by_key(|o| phase_of(o.kind)), "{rec:?}");
            for phase in [2, 4, 5] {
                assert!(phase_pids(rec, phase).is_sorted(), "phase {phase}: {rec:?}");
            }
            let movers: Vec<_> = rec.sigma.iter().map(|p| p.0).collect();
            assert_eq!(phase_pids(rec, 3), movers, "{rec:?}");
        }
        assert_eq!(phase_pids(&r1, 2), [0, 3, 6], "validate joins LL's group");
        assert_eq!(phase_pids(&r1, 3), [7, 1, 4]);
        assert_eq!(phase_pids(&r1, 4), [2, 5]);
        assert!(phase_pids(&r1, 5).is_empty(), "the SCs come next round");
        assert_eq!(phase_pids(&r2, 5), [0, 3, 6]);
        // Each mover's entry names its own destination.
        for o in r1.ops.iter().filter(|o| o.kind == OpKind::Move) {
            assert_eq!(o.register, RegisterId(40 + o.p.0 as u64), "{o:?}");
        }
        // Only p3 holds a link; only SCs carry an outcome.
        let outcome = |rec: &RoundRecord| -> Vec<_> { rec.ops.iter().map(|o| o.sc_ok).collect() };
        assert_eq!(outcome(&r1), [None; 8]);
        assert_eq!(outcome(&r2), [Some(false), Some(true), Some(false)]);
    }

    #[test]
    fn phases_execute_in_order_ll_move_swap_sc() {
        let alg = mixed_alg();
        let mut e = exec_for(&alg, 4);
        // Round 1: LLs (p0, p3), move (p1), swap (p2).
        let r1 = execute_round(&mut e, 1, &all_pids(4), MoveOrder::Secretive, true).unwrap();
        let kinds: Vec<OpKind> = r1.ops.iter().map(|o| o.kind).collect();
        assert_eq!(
            kinds,
            vec![OpKind::Ll, OpKind::Ll, OpKind::Move, OpKind::Swap]
        );
        // Round 2: p3's SC.
        let r2 = execute_round(&mut e, 2, &all_pids(4), MoveOrder::Secretive, true).unwrap();
        let kinds2: Vec<OpKind> = r2.ops.iter().map(|o| o.kind).collect();
        assert_eq!(kinds2, vec![OpKind::Sc]);
        assert_eq!((r2.ops[0].p, r2.ops[0].sc_ok), (ProcessId(3), Some(true)));
    }

    #[test]
    fn sc_contention_one_winner_per_register_per_round() {
        // All processes LL R0 in round 1, then all SC R0 in round 2; only
        // the lowest-id process succeeds.
        let alg = FnAlgorithm::new("contend", |pid: ProcessId, _n| {
            ll(RegisterId(0), move |_| {
                sc(RegisterId(0), Value::from(pid.0 as i64), |ok, _| {
                    done(Value::from(ok))
                })
            })
            .into_program()
        });
        let mut e = exec_for(&alg, 5);
        execute_round(&mut e, 1, &all_pids(5), MoveOrder::Secretive, true).unwrap();
        let r2 = execute_round(&mut e, 2, &all_pids(5), MoveOrder::Secretive, true).unwrap();
        let outcomes: Vec<_> = r2.ops.iter().map(|o| (o.p.0, o.sc_ok)).collect();
        assert_eq!(
            outcomes,
            [
                (0, Some(true)),
                (1, Some(false)),
                (2, Some(false)),
                (3, Some(false)),
                (4, Some(false))
            ]
        );
        assert_eq!(e.memory().peek(RegisterId(0)), Value::from(0i64));
        for p in ProcessId::all(5) {
            assert_eq!(
                e.verdict(p),
                Some(&Value::from(p == ProcessId(0))),
                "{p} verdict"
            );
        }
    }

    #[test]
    fn swap_order_is_by_id_and_recorded() {
        let alg = FnAlgorithm::new("swappers", |pid: ProcessId, _n| {
            swap(RegisterId(0), Value::from(pid.0 as i64), |_| {
                done(Value::from(0i64))
            })
            .into_program()
        });
        let mut e = exec_for(&alg, 3);
        let rec = execute_round(&mut e, 1, &all_pids(3), MoveOrder::Secretive, true).unwrap();
        let swaps: Vec<_> = rec
            .ops
            .iter()
            .map(|o| (o.p.0, o.kind, o.register))
            .collect();
        assert_eq!(swaps, [0, 1, 2].map(|p| (p, OpKind::Swap, RegisterId(0))));
        // Last swapper's value survives.
        assert_eq!(e.memory().peek(RegisterId(0)), Value::from(2i64));
    }

    #[test]
    fn move_group_uses_secretive_schedule() {
        // The chain example: p_i: move(R_i, R_{i+1}), all in one round.
        let alg = FnAlgorithm::new("chain", |pid: ProcessId, _n| {
            mv(
                RegisterId(pid.0 as u64),
                RegisterId(pid.0 as u64 + 1),
                || done(Value::from(0i64)),
            )
            .into_program()
        })
        .with_initial_memory(vec![(RegisterId(0), Value::from(100i64))]);
        let mut e = exec_for(&alg, 6);
        let rec = execute_round(&mut e, 1, &all_pids(6), MoveOrder::Secretive, true).unwrap();
        assert!(crate::secretive::is_secretive(&rec.sigma, &rec.move_config));
        let movers: Vec<_> = rec.ops.iter().map(|o| o.p).collect();
        assert_eq!(movers, rec.sigma);
        // Every register's movers (this round) ≤ 2.
        for r in rec.move_config.destinations() {
            let m = crate::secretive::movers(r, &rec.sigma, &rec.move_config);
            assert!(m.len() <= 2, "{r} movers {m:?}");
        }
    }

    #[test]
    fn given_move_order_is_respected() {
        let alg = FnAlgorithm::new("movers", |pid: ProcessId, _n| {
            mv(RegisterId(10 + pid.0 as u64), RegisterId(0), || {
                done(Value::from(0i64))
            })
            .into_program()
        })
        .with_initial_memory(vec![
            (RegisterId(10), Value::from(10i64)),
            (RegisterId(11), Value::from(11i64)),
            (RegisterId(12), Value::from(12i64)),
        ]);
        // With order p2, p0, p1 the last mover into R0 is p1.
        let order = vec![ProcessId(2), ProcessId(0), ProcessId(1)];
        let mut e = exec_for(&alg, 3);
        let rec = execute_round(&mut e, 1, &all_pids(3), MoveOrder::Given(&order), true).unwrap();
        assert_eq!(rec.sigma, order);
        assert_eq!(e.memory().peek(RegisterId(0)), Value::from(11i64));
    }

    #[test]
    #[should_panic(expected = "Claim A.3 violated")]
    fn given_order_missing_mover_panics() {
        let alg = FnAlgorithm::new("movers", |pid: ProcessId, _n| {
            mv(RegisterId(10 + pid.0 as u64), RegisterId(0), || {
                done(Value::from(0i64))
            })
            .into_program()
        });
        let order = vec![ProcessId(0)]; // p1 missing
        let mut e = exec_for(&alg, 2);
        execute_round(&mut e, 1, &all_pids(2), MoveOrder::Given(&order), true).unwrap();
    }

    #[test]
    fn terminated_participants_yield_empty_rounds() {
        let alg = FnAlgorithm::new("instant", |_pid, _n| done(Value::from(0i64)).into_program());
        let mut e = exec_for(&alg, 3);
        let r1 = execute_round(&mut e, 1, &all_pids(3), MoveOrder::Secretive, true).unwrap();
        assert_eq!(r1.terminated_in_phase1.len(), 3);
        let r2 = execute_round(&mut e, 2, &all_pids(3), MoveOrder::Secretive, true).unwrap();
        assert!(r2.ops.is_empty() && r2.terminated_in_phase1.is_empty());
        assert!(r2.phase1_tosses.is_empty());
    }

    #[test]
    fn snapshots_capture_end_of_round_state() {
        let alg = mixed_alg();
        let mut e = exec_for(&alg, 4);
        let rec = execute_round(&mut e, 1, &all_pids(4), MoveOrder::Secretive, true).unwrap();
        let regs = rec.end_registers.as_ref().expect("snapshots on");
        // p2 swapped 1 into R3.
        assert_eq!(
            regs.get(&RegisterId(3)).map(|s| s.value()),
            Some(&Value::from(1i64))
        );
        // p0 holds a link on R0 from its LL.
        assert_eq!(
            regs.get(&RegisterId(0)).map(|s| s.pset()),
            Some(&ProcMask::from([ProcessId(0)]))
        );
        let mut changes = ChangeIndex::new(4);
        changes.record(&rec, e.run());
        for p in ProcessId::all(4) {
            let c = changes.at(p, 1);
            assert_eq!((c.round, c.tosses, c.shared_steps), (1, 0, 1), "{p}");
            assert_eq!(c.history_len as usize, e.run().history(p).len(), "{p}");
        }
    }

    #[test]
    fn subset_participants_only_those_act() {
        let alg = mixed_alg();
        let mut e = exec_for(&alg, 4);
        let rec = execute_round(
            &mut e,
            1,
            &[ProcessId(0), ProcessId(2)],
            MoveOrder::Secretive,
            true,
        )
        .unwrap();
        let actors: Vec<_> = rec.ops.iter().map(|o| o.p).collect();
        assert_eq!(actors, vec![ProcessId(0), ProcessId(2)]);
        assert_eq!(e.run().shared_steps(ProcessId(1)), 0);
    }

    #[test]
    fn change_index_holds_only_the_processes_that_acted() {
        // Round 1: p0 and p2 act. Round 2: all four are offered; p0 and
        // p2 have terminated, so p1 and p3 act. Round 3: only p3's SC.
        let alg = mixed_alg();
        let mut e = exec_for(&alg, 4);
        let mut changes = ChangeIndex::new(4);
        let offered = [vec![ProcessId(0), ProcessId(2)], all_pids(4), all_pids(4)];
        for (i, participants) in offered.iter().enumerate() {
            let rec =
                execute_round(&mut e, i + 1, participants, MoveOrder::Secretive, true).unwrap();
            changes.record(&rec, e.run());
        }
        let rounds = |p: usize| -> Vec<u32> {
            changes
                .entries(ProcessId(p))
                .iter()
                .map(|c| c.round)
                .collect()
        };
        assert_eq!(
            [rounds(0), rounds(1), rounds(2), rounds(3)],
            [vec![1], vec![2], vec![1], vec![2, 3]]
        );
        // Counts carry over the rounds without an entry; the cursor agrees
        // with the binary search.
        for p in ProcessId::all(4) {
            let mut pos = 0;
            for r in 0..=3 {
                let c = changes.at(p, r);
                assert_eq!(changes.seek(p, r, &mut pos), c, "{p} r={r}");
                let steps = changes.entries(p).iter().filter(|c| c.round as usize <= r);
                assert_eq!(c.shared_steps as usize, steps.count(), "{p} r={r}");
            }
        }
        assert_eq!(changes.at(ProcessId(1), 1), RoundCounts::default());
    }
}
