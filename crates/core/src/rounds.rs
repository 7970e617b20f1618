//! The five-phase round structure of the adversary (Figure 2 / Figure 3).
//!
//! Both the `(All, A)`-run and the `(S, A)`-run proceed in rounds with the
//! same five phases; they differ only in *which* processes participate and
//! in how the move-group is ordered (the `(S, A)`-run reuses the secretive
//! schedule `σ_r` computed for the `(All, A)`-run). [`execute_round`]
//! implements one round over a live [`Executor`] and records everything the
//! `UP`-set update rules and the indistinguishability checker later need.

use crate::secretive::{self, MoveConfig};
use crate::vecmap::VecMap;
use llsc_shmem::{
    Executor, OpKind, Operation, ProcMask, ProcessId, RegisterId, RegisterState, Response, Run,
    RunError,
};

/// A lean record of one shared-memory operation of a round: everything the
/// `UP` update rules need, without the (possibly large) operand/response
/// values.
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

/// The partition of a round's participants by the kind of their next
/// shared-memory operation.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RoundGroups {
    /// `G_1`: processes about to perform `LL` or `validate`.
    pub g1_ll_validate: Vec<ProcessId>,
    /// `G_2`: processes about to perform `move`.
    pub g2_move: Vec<ProcessId>,
    /// `G_3`: processes about to perform `swap`.
    pub g3_swap: Vec<ProcessId>,
    /// `G_4`: processes about to perform `SC`.
    pub g4_sc: Vec<ProcessId>,
}

impl RoundGroups {
    /// All grouped processes, i.e. the participants that perform a
    /// shared-memory operation this round.
    pub fn all(&self) -> impl Iterator<Item = ProcessId> + '_ {
        self.g1_ll_validate
            .iter()
            .chain(&self.g2_move)
            .chain(&self.g3_swap)
            .chain(&self.g4_sc)
            .copied()
    }
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
    /// The group partition after Phase 1.
    pub groups: RoundGroups,
    /// The move configuration `(G_{2,r}, f_r)` of this round.
    pub move_config: MoveConfig,
    /// `σ_r`: the order in which the move group actually executed.
    pub sigma: Vec<ProcessId>,
    /// Every shared-memory operation of the round, in execution order
    /// (lean summaries; the full operations live in the underlying
    /// [`llsc_shmem::Run`] when detail recording is on).
    pub ops: Vec<OpSummary>,
    /// Per register: the process whose SC on it succeeded this round
    /// (at most one per register per round).
    pub successful_sc: VecMap<RegisterId, ProcessId>,
    /// Per register: the processes that swapped it this round, in
    /// execution order.
    pub swaps: VecMap<RegisterId, Vec<ProcessId>>,
    /// Per register: the processes that moved into it this round, in
    /// execution order.
    pub moves_into: VecMap<RegisterId, Vec<ProcessId>>,
    /// The value and `Pset` of every touched register at the end of the
    /// round; `None` when snapshot recording is disabled.
    pub end_registers: Option<VecMap<RegisterId, RegisterState>>,
}

impl RoundRecord {
    /// `true` iff nothing at all happened this round (no tosses, no
    /// operations, no terminations) — the "empty rounds" that follow once
    /// every process has terminated.
    pub fn is_empty_round(&self) -> bool {
        self.ops.is_empty() && self.terminated_in_phase1.is_empty() && self.phase1_tosses.is_empty()
    }

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

    /// Performs `p`'s pending shared-memory operation and records it.
    fn perform(&mut self, exec: &mut Executor, p: ProcessId) -> Result<(), RunError> {
        let (op, resp) = exec.perform_shared(p)?;
        let mut sc_ok = None;
        match (&op, &resp) {
            (Operation::Sc(r, _), Response::Flagged { ok, .. }) => {
                sc_ok = Some(*ok);
                if *ok {
                    let prev = self.successful_sc.insert(*r, p);
                    debug_assert!(
                        prev.is_none(),
                        "two successful SCs on {r} in round {}",
                        self.round
                    );
                }
            }
            (Operation::Swap(r, _), _) => self.swaps.get_or_default(*r).push(p),
            (Operation::Move { dst, .. }, _) => self.moves_into.get_or_default(*dst).push(p),
            _ => {}
        }
        self.ops.push(OpSummary {
            p,
            kind: op.kind(),
            register: op.target(),
            sc_ok,
        });
        Ok(())
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
        pos.checked_sub(1).map_or_else(RoundCounts::default, |i| entries[i])
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
pub fn execute_round(
    exec: &mut Executor,
    round: usize,
    participants: &[ProcessId],
    move_order: MoveOrder<'_>,
) -> Result<RoundRecord, RunError> {
    execute_round_with(exec, round, participants, move_order, true)
}

/// [`execute_round`] with control over end-of-round register snapshots.
///
/// Snapshots power the indistinguishability checker but can dominate
/// memory for value-heavy algorithms over many rounds; large measurement
/// sweeps disable them.
pub fn execute_round_with(
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

/// [`execute_round_with`] into a caller-owned record: every field of
/// `rec` is overwritten, and its buffers are reused where they have room.
/// A fresh (default) record ends up sized exactly as
/// [`execute_round_with`] sizes it, so records kept for a whole run carry
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

    // Phase 1: local steps, in id order. Each survivor is grouped by the
    // kind of its pending operation in the same pass: grouping has no
    // side effects, so the event order is that of two passes.
    let groups = &mut rec.groups;
    for g in [
        &mut groups.g1_ll_validate,
        &mut groups.g2_move,
        &mut groups.g3_swap,
        &mut groups.g4_sc,
    ] {
        g.clear();
    }
    rec.move_config.clear();
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
        match op.kind() {
            OpKind::Ll | OpKind::Validate => groups.g1_ll_validate.push(p),
            OpKind::Move => groups.g2_move.push(p),
            OpKind::Swap => groups.g3_swap.push(p),
            OpKind::Sc => groups.g4_sc.push(p),
        }
        if let Operation::Move { src, dst } = *op {
            rec.move_config.insert(p, src, dst);
        }
    }

    // Phase 3 ordering.
    match move_order {
        MoveOrder::Secretive => {
            rec.sigma = secretive::secretive_complete_schedule(&rec.move_config);
        }
        MoveOrder::Given(outer) => {
            let keep: ProcMask = groups.g2_move.iter().copied().collect();
            rec.sigma.clear();
            rec.sigma
                .extend(outer.iter().copied().filter(|p| keep.contains(*p)));
            assert!(
                rec.sigma.len() == groups.g2_move.len(),
                "round {round}: mover(s) {:?} missing from the given σ_r (Claim A.3 violated)",
                groups
                    .g2_move
                    .iter()
                    .filter(|p| !outer.contains(p))
                    .collect::<Vec<_>>()
            );
        }
    }

    // Phases 2-5: the LL/validate group, the move group in σ_r order,
    // the swap group, the SC group. The schedule is read from the record
    // while the operations are written to it, so it is taken out and
    // put back, error or not.
    rec.ops.clear();
    rec.ops.reserve_exact(
        groups.g1_ll_validate.len() + rec.sigma.len() + groups.g3_swap.len() + groups.g4_sc.len(),
    );
    rec.successful_sc.clear();
    rec.swaps.clear();
    rec.moves_into.clear();
    let groups = std::mem::take(&mut rec.groups);
    let sigma = std::mem::take(&mut rec.sigma);
    let performed = groups
        .g1_ll_validate
        .iter()
        .chain(&sigma)
        .chain(&groups.g3_swap)
        .chain(&groups.g4_sc)
        .try_for_each(|&p| rec.perform(exec, p));
    rec.groups = groups;
    rec.sigma = sigma;
    performed?;
    rec.close(exec, snapshots);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use llsc_shmem::dsl::{done, ll, mv, sc, swap, validate};
    use llsc_shmem::{Algorithm, ExecutorConfig, FnAlgorithm, Program, Value, ZeroTosses};
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

    #[test]
    fn groups_partition_by_kind() {
        let alg = mixed_alg();
        let mut e = exec_for(&alg, 4);
        let rec = execute_round(&mut e, 1, &all_pids(4), MoveOrder::Secretive).unwrap();
        assert_eq!(rec.groups.g1_ll_validate, vec![ProcessId(0), ProcessId(3)]);
        assert_eq!(rec.groups.g2_move, vec![ProcessId(1)]);
        assert_eq!(rec.groups.g3_swap, vec![ProcessId(2)]);
        assert!(rec.groups.g4_sc.is_empty(), "p3's SC comes next round");
        assert_eq!(rec.ops.len(), 4);
    }

    #[test]
    fn phases_execute_in_order_ll_move_swap_sc() {
        let alg = mixed_alg();
        let mut e = exec_for(&alg, 4);
        // Round 1: LLs (p0, p3), move (p1), swap (p2).
        let r1 = execute_round(&mut e, 1, &all_pids(4), MoveOrder::Secretive).unwrap();
        let kinds: Vec<OpKind> = r1.ops.iter().map(|o| o.kind).collect();
        assert_eq!(
            kinds,
            vec![OpKind::Ll, OpKind::Ll, OpKind::Move, OpKind::Swap]
        );
        // Round 2: p3's SC.
        let r2 = execute_round(&mut e, 2, &all_pids(4), MoveOrder::Secretive).unwrap();
        let kinds2: Vec<OpKind> = r2.ops.iter().map(|o| o.kind).collect();
        assert_eq!(kinds2, vec![OpKind::Sc]);
        assert_eq!(r2.successful_sc.get(&RegisterId(4)), Some(&ProcessId(3)));
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
        execute_round(&mut e, 1, &all_pids(5), MoveOrder::Secretive).unwrap();
        let r2 = execute_round(&mut e, 2, &all_pids(5), MoveOrder::Secretive).unwrap();
        assert_eq!(r2.successful_sc.get(&RegisterId(0)), Some(&ProcessId(0)));
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
        let rec = execute_round(&mut e, 1, &all_pids(3), MoveOrder::Secretive).unwrap();
        assert_eq!(
            rec.swaps.get(&RegisterId(0)),
            Some(&vec![ProcessId(0), ProcessId(1), ProcessId(2)])
        );
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
        let rec = execute_round(&mut e, 1, &all_pids(6), MoveOrder::Secretive).unwrap();
        assert!(crate::secretive::is_secretive(&rec.sigma, &rec.move_config));
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
        let rec = execute_round(&mut e, 1, &all_pids(3), MoveOrder::Given(&order)).unwrap();
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
        execute_round(&mut e, 1, &all_pids(2), MoveOrder::Given(&order)).unwrap();
    }

    #[test]
    fn validate_goes_to_group_one() {
        let alg = FnAlgorithm::new("v", |_pid, _n| {
            validate(RegisterId(0), |_, _| done(Value::from(0i64))).into_program()
        });
        let mut e = exec_for(&alg, 2);
        let rec = execute_round(&mut e, 1, &all_pids(2), MoveOrder::Secretive).unwrap();
        assert_eq!(rec.groups.g1_ll_validate.len(), 2);
    }

    #[test]
    fn terminated_participants_yield_empty_rounds() {
        let alg = FnAlgorithm::new("instant", |_pid, _n| done(Value::from(0i64)).into_program());
        let mut e = exec_for(&alg, 3);
        let r1 = execute_round(&mut e, 1, &all_pids(3), MoveOrder::Secretive).unwrap();
        assert_eq!(r1.terminated_in_phase1.len(), 3);
        let r2 = execute_round(&mut e, 2, &all_pids(3), MoveOrder::Secretive).unwrap();
        assert!(r2.is_empty_round());
    }

    #[test]
    fn snapshots_capture_end_of_round_state() {
        let alg = mixed_alg();
        let mut e = exec_for(&alg, 4);
        let rec = execute_round(&mut e, 1, &all_pids(4), MoveOrder::Secretive).unwrap();
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
            let rec = execute_round(&mut e, i + 1, participants, MoveOrder::Secretive).unwrap();
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
