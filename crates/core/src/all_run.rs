//! Construction of the `(All, A)`-run (Section 5.2) and the common
//! round-structured-run record shared with the `(S, A)`-run.

use crate::rounds::{execute_round, ChangeIndex, MoveOrder, RoundRecord};
use crate::upsets::{ProcSet, UpTracker};
use llsc_shmem::{
    Algorithm, Executor, ExecutorConfig, OpKind, ProcHistory, ProcMask, ProcessId, RegisterId, Run,
    TossAssignment, Value,
};
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

/// Limits for adversary-run construction.
#[derive(Clone, Copy, Debug)]
pub struct AdversaryConfig {
    /// Maximum number of rounds before construction stops (a terminating
    /// algorithm finishes far earlier; hitting this limit marks the run as
    /// not completed).
    pub max_rounds: usize,
    /// The underlying executor limits.
    pub executor: ExecutorConfig,
    /// Whether each round stores end-of-round register snapshots (needed
    /// by the indistinguishability checker; disable for memory-light
    /// complexity sweeps over value-heavy algorithms).
    pub record_snapshots: bool,
    /// Whether the `UP` tracker retains every round's snapshot (needed by
    /// the `(S, A)`-run construction and the claims/indistinguishability
    /// checkers) or only the latest one plus per-round max sizes (enough
    /// for Lemma 5.1 and the Theorem 6.1 measurement, and `Θ(rounds)`
    /// cheaper in memory).
    pub track_up_history: bool,
}

impl Default for AdversaryConfig {
    fn default() -> Self {
        AdversaryConfig {
            max_rounds: 100_000,
            executor: ExecutorConfig::default(),
            record_snapshots: true,
            track_up_history: true,
        }
    }
}

impl AdversaryConfig {
    /// A memory-light configuration: no register snapshots, no event or
    /// history recording — only counters, verdicts, and the round
    /// structure. Suitable for complexity sweeps and the Theorem 6.1
    /// driver; not for the indistinguishability or claims checkers.
    pub fn lightweight() -> Self {
        AdversaryConfig {
            record_snapshots: false,
            track_up_history: false,
            executor: ExecutorConfig {
                record_details: false,
                ..ExecutorConfig::default()
            },
            ..AdversaryConfig::default()
        }
    }
}

/// A run structured into adversary rounds, with end-of-round snapshots —
/// the common shape of the `(All, A)`-run and every `(S, A)`-run.
#[derive(Clone, Debug)]
pub struct RoundedRun {
    /// Number of processes in the system.
    pub n: usize,
    /// The per-round records, `rounds[r - 1]` being round `r`.
    pub rounds: Vec<RoundRecord>,
    /// Each process's counts at the end of the rounds in which it acted:
    /// what [`RoundedRun::tosses_at`], [`RoundedRun::history_at`] and
    /// [`RoundedRun::shared_steps_at`] read.
    pub changes: ChangeIndex,
    /// The full underlying run.
    pub run: Run,
    /// The initial register contents the algorithm configured. Shared:
    /// every `(S, A)`-run of a subset sweep holds the same map as its
    /// `(All, A)`-run (one `Arc` bump per trial instead of a rebuild).
    pub initial_memory: Arc<BTreeMap<RegisterId, Value>>,
    /// Whether every participating process terminated within the round
    /// limit.
    pub completed: bool,
    /// The executor's final classification of the run
    /// ([`llsc_shmem::Executor::run_outcome`]): `Completed`, or why the
    /// run is partial. For an `(S, A)`-run, processes outside `S` never
    /// terminating makes the outcome `BudgetExhausted` even though the
    /// construction itself completed — check [`RoundedRun::completed`]
    /// for the construction-level notion.
    pub outcome: llsc_shmem::RunOutcome,
}

impl RoundedRun {
    /// `val(R, r, Σ)` and `Pset(R, r, Σ)`, borrowed: the value and the
    /// registered process set of `reg` at the end of round `r` (round 0 =
    /// initial configuration).
    pub(crate) fn register_at(&self, reg: RegisterId, r: usize) -> (&Value, &ProcMask) {
        static UNIT: Value = Value::Unit;
        static EMPTY: ProcMask = ProcMask::new();
        let end = r
            .checked_sub(1)
            .and_then(|i| self.rounds[i].end_registers.as_ref()?.get(&reg));
        match end {
            Some(state) => (state.value(), state.pset()),
            None => (self.initial_memory.get(&reg).unwrap_or(&UNIT), &EMPTY),
        }
    }

    /// `val(R, r, Σ)`: the value of register `reg` at the end of round `r`
    /// (round 0 = initial configuration).
    pub fn value_at(&self, reg: RegisterId, r: usize) -> Value {
        self.register_at(reg, r).0.clone()
    }

    /// `Pset(R, r, Σ)`: the registered process set at the end of round `r`.
    pub fn pset_at(&self, reg: RegisterId, r: usize) -> ProcMask {
        self.register_at(reg, r).1.clone()
    }

    /// `true` iff every round recorded its end-of-round register snapshot
    /// ([`AdversaryConfig::record_snapshots`]).
    pub(crate) fn has_snapshots(&self) -> bool {
        self.rounds.iter().all(|rec| rec.end_registers.is_some())
    }

    /// `numtosses(p, r, Σ)`: coin tosses performed by `p` by the end of
    /// round `r`.
    pub fn tosses_at(&self, p: ProcessId, r: usize) -> u64 {
        self.changes.at(p, r).tosses.into()
    }

    /// The prefix of `p`'s interaction history up to the end of round `r`.
    /// For deterministic-given-coins programs this prefix determines
    /// `state(p, r, Σ)`.
    pub fn history_at(&self, p: ProcessId, r: usize) -> ProcHistory<'_> {
        let len = self.changes.at(p, r).history_len;
        self.run.history(p).prefix(len as usize)
    }

    /// `t(p, r)`: shared-memory steps performed by `p` by the end of round
    /// `r`.
    pub fn shared_steps_at(&self, p: ProcessId, r: usize) -> u64 {
        self.changes.at(p, r).shared_steps.into()
    }

    /// The number of recorded rounds.
    pub fn num_rounds(&self) -> usize {
        self.rounds.len()
    }

    /// Every register touched at any point of the run, in id order.
    pub fn touched_registers(&self) -> Vec<RegisterId> {
        // Snapshots are cumulative: the last round lists every touched
        // register.
        match self
            .rounds
            .last()
            .and_then(|last| last.end_registers.as_ref())
        {
            Some(regs) => regs.keys().copied().collect(),
            None => Vec::new(),
        }
    }
}

/// The `(All, A)`-run: the unique unextendable run permitted by the
/// Figure-2 adversary under toss assignment `A`, together with the
/// `UP`-set history that the `(S, A)`-runs and Theorem 6.1 need.
///
/// The subset checkers read an index of the run's subset-independent
/// facts, built on their first call and kept for the run's lifetime, so a
/// sweep over `2^n` subsets builds it once. Mutating `base` or `up` after
/// a check has run is not reflected in it; a clone starts without one.
#[derive(Debug)]
pub struct AllRun {
    /// The rounds, events, and snapshots.
    pub base: RoundedRun,
    /// `UP(p, r)` / `UP(R, r)` for every completed round.
    pub up: UpTracker,
    index: OnceLock<CheckIndex>,
}

impl Clone for AllRun {
    fn clone(&self) -> Self {
        AllRun::new(self.base.clone(), self.up.clone())
    }
}

impl AllRun {
    fn new(base: RoundedRun, up: UpTracker) -> AllRun {
        AllRun {
            base,
            up,
            index: OnceLock::new(),
        }
    }

    /// Convenience accessor: number of processes.
    pub fn n(&self) -> usize {
        self.base.n
    }

    /// The run's check index, built on first use.
    pub(crate) fn check_index(&self) -> &CheckIndex {
        self.index
            .get_or_init(|| CheckIndex::build(&self.base, &self.up))
    }
}

/// The facts about an `(All, A)`-run that the Lemma 5.2 and appendix-claim
/// checkers need for every subset `S` but that do not depend on `S`.
#[derive(Debug)]
pub(crate) struct CheckIndex {
    n: usize,
    /// `ops[(r - 1) * n + p]`: `p`'s `(kind, register)` in round `r`, if
    /// it performed a shared operation.
    ops: Vec<Option<(OpKind, RegisterId)>>,
    /// Per round (index `r - 1`): every register SC'd, in id order, with
    /// the process whose SC on it succeeded, if one did.
    sc_registers: Vec<Vec<(RegisterId, Option<ProcessId>)>>,
    /// Every register the run touched, in id order.
    touched: Vec<RegisterId>,
    /// `up_regs[r * touched.len() + i]`: `UP(touched[i], r)`, for rounds
    /// `0..=rounds`.
    up_regs: Vec<ProcSet>,
}

impl CheckIndex {
    fn build(base: &RoundedRun, up: &UpTracker) -> CheckIndex {
        let n = base.n;
        let mut ops = vec![None; base.num_rounds() * n];
        let mut sc_registers = Vec::with_capacity(base.num_rounds());
        for (i, rec) in base.rounds.iter().enumerate() {
            let row = &mut ops[i * n..(i + 1) * n];
            let mut scs = Vec::new();
            for o in &rec.ops {
                row[o.p.0] = Some((o.kind, o.register));
                if o.kind == OpKind::Sc {
                    scs.push((o.register, (o.sc_ok == Some(true)).then_some(o.p)));
                }
            }
            // A register's winner sorts first, so it is the entry kept.
            scs.sort_unstable_by_key(|&(reg, winner)| (reg, winner.is_none()));
            scs.dedup_by_key(|&mut (reg, _)| reg);
            sc_registers.push(scs);
        }
        let touched = base.touched_registers();
        let up_regs = (0..=base.num_rounds())
            .flat_map(|r| touched.iter().map(move |&reg| up.reg(reg, r).clone()))
            .collect();
        CheckIndex {
            n,
            ops,
            sc_registers,
            touched,
            up_regs,
        }
    }

    /// `p`'s `(kind, register)` in round `r >= 1`, if it performed a
    /// shared operation.
    pub(crate) fn op(&self, r: usize, p: ProcessId) -> Option<(OpKind, RegisterId)> {
        self.ops[(r - 1) * self.n + p.0]
    }

    /// The registers SC'd in round `r >= 1`, in id order, each with the
    /// process whose SC on it succeeded, if one did.
    pub(crate) fn sc_registers(&self, r: usize) -> &[(RegisterId, Option<ProcessId>)] {
        &self.sc_registers[r - 1]
    }

    /// Every register the run touched, in id order.
    pub(crate) fn touched(&self) -> &[RegisterId] {
        &self.touched
    }

    /// `UP(R, r)` for `R = touched()[i]`.
    pub(crate) fn up_reg(&self, i: usize, r: usize) -> &ProcSet {
        &self.up_regs[r * self.touched.len() + i]
    }
}

/// Builds the `(All, A)`-run of `alg` for `n` processes under toss
/// assignment `toss`.
///
/// Rounds are executed until every process terminates or
/// [`AdversaryConfig::max_rounds`] is reached. `UP` update rules are
/// applied after every round; the resulting tracker is returned inside the
/// [`AllRun`].
///
/// # Examples
///
/// ```
/// use llsc_core::{build_all_run, AdversaryConfig};
/// use llsc_shmem::dsl::{done, ll};
/// use llsc_shmem::{FnAlgorithm, RegisterId, Value, ZeroTosses};
/// use std::sync::Arc;
///
/// let alg = FnAlgorithm::new("one-ll", |_p, _n| {
///     ll(RegisterId(0), |_| done(Value::from(0i64))).into_program()
/// });
/// let all = build_all_run(&alg, 4, Arc::new(ZeroTosses), &AdversaryConfig::default()).unwrap();
/// assert!(all.base.completed);
/// assert_eq!(all.base.num_rounds(), 1);
/// ```
///
/// # Errors
///
/// Propagates the first [`RunError`](llsc_shmem::RunError) a round
/// reports (diverging Phase-1 burst, exhausted event budget). Hitting
/// [`AdversaryConfig::max_rounds`] is *not* an error: the run is returned
/// with [`RoundedRun::completed`] `false`.
pub fn build_all_run(
    alg: &dyn Algorithm,
    n: usize,
    toss: Arc<dyn TossAssignment>,
    cfg: &AdversaryConfig,
) -> Result<AllRun, llsc_shmem::RunError> {
    let initial_memory: Arc<BTreeMap<RegisterId, Value>> =
        Arc::new(alg.initial_memory(n).into_iter().collect());
    let mut exec = Executor::new(alg, n, toss, cfg.executor);
    let mut up = if cfg.track_up_history {
        UpTracker::new(n)
    } else {
        UpTracker::new_rolling(n)
    };
    let mut rounds = Vec::new();
    let mut changes = ChangeIndex::new(n);
    // Every process participates in every round; a terminated one would
    // only be skipped, so it leaves the list.
    let mut live: Vec<ProcessId> = ProcessId::all(n).collect();

    let mut r = 0;
    while !exec.all_terminated() && r < cfg.max_rounds {
        r += 1;
        let rec = execute_round(
            &mut exec,
            r,
            &live,
            MoveOrder::Secretive,
            cfg.record_snapshots,
        )?;
        changes.record(&rec, exec.run());
        up.apply_round(&rec);
        rounds.push(rec);
        live.retain(|&p| !exec.is_terminated(p));
    }

    let completed = exec.all_terminated();
    let outcome = exec.run_outcome();
    Ok(AllRun::new(
        RoundedRun {
            n,
            rounds,
            changes,
            run: exec.into_run(),
            initial_memory,
            completed,
            outcome,
        },
        up,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use llsc_shmem::dsl::{done, ll, sc, toss};
    use llsc_shmem::{FnAlgorithm, SeededTosses, ZeroTosses};

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
    fn all_run_is_deterministic() {
        let alg = llsc_alg();
        let a = build_all_run(&alg, 6, Arc::new(ZeroTosses), &AdversaryConfig::default()).unwrap();
        let b = build_all_run(&alg, 6, Arc::new(ZeroTosses), &AdversaryConfig::default()).unwrap();
        assert_eq!(a.base.run.events(), b.base.run.events());
        assert_eq!(a.base.num_rounds(), b.base.num_rounds());
    }

    #[test]
    fn all_run_synchronous_rounds_one_op_each() {
        let alg = llsc_alg();
        let all =
            build_all_run(&alg, 4, Arc::new(ZeroTosses), &AdversaryConfig::default()).unwrap();
        assert!(all.base.completed);
        // Round 1: all LL. Round 2: all SC (p0 wins).
        assert_eq!(all.base.num_rounds(), 2);
        let ops = |r: usize| -> Vec<_> {
            let ops = &all.base.rounds[r - 1].ops;
            ops.iter().map(|o| (o.p.0, o.kind, o.sc_ok)).collect()
        };
        assert_eq!(ops(1), [0, 1, 2, 3].map(|p| (p, OpKind::Ll, None)));
        let sc = |p: usize| (p, OpKind::Sc, Some(p == 0));
        assert_eq!(ops(2), [0, 1, 2, 3].map(sc));
    }

    #[test]
    fn snapshots_are_queryable_per_round() {
        let alg = llsc_alg();
        let all =
            build_all_run(&alg, 3, Arc::new(ZeroTosses), &AdversaryConfig::default()).unwrap();
        // Round 0: initial.
        assert_eq!(all.base.value_at(RegisterId(0), 0), Value::Unit);
        assert!(all.base.pset_at(RegisterId(0), 0).is_empty());
        // Round 1: all linked, value unchanged.
        assert_eq!(all.base.value_at(RegisterId(0), 1), Value::Unit);
        assert_eq!(all.base.pset_at(RegisterId(0), 1).len(), 3);
        // Round 2: p0's SC installed 0 and emptied the Pset.
        assert_eq!(all.base.value_at(RegisterId(0), 2), Value::from(0i64));
        assert!(all.base.pset_at(RegisterId(0), 2).is_empty());
        // Histories grow round by round.
        assert_eq!(all.base.history_at(ProcessId(1), 0).len(), 0);
        assert_eq!(all.base.history_at(ProcessId(1), 1).len(), 1);
        assert!(all.base.history_at(ProcessId(1), 2).len() >= 2);
        assert_eq!(all.base.shared_steps_at(ProcessId(1), 2), 2);
    }

    #[test]
    fn max_rounds_limit_marks_incomplete() {
        // An algorithm that never terminates: LL forever.
        let alg = FnAlgorithm::new("spin", |_p, _n| {
            fn spin() -> llsc_shmem::dsl::Step {
                ll(RegisterId(0), |_| spin())
            }
            spin().into_program()
        });
        let cfg = AdversaryConfig {
            max_rounds: 5,
            ..AdversaryConfig::default()
        };
        let all = build_all_run(&alg, 2, Arc::new(ZeroTosses), &cfg).unwrap();
        assert!(!all.base.completed);
        assert_eq!(all.base.num_rounds(), 5);
    }

    #[test]
    fn randomized_algorithm_consumes_assignment() {
        // Toss a coin; LL register (coin % 4); terminate.
        let alg = FnAlgorithm::new("rand-ll", |_p, _n| {
            toss(|c| ll(RegisterId(c % 4), |_| done(Value::from(0i64)))).into_program()
        });
        let all = build_all_run(
            &alg,
            4,
            Arc::new(SeededTosses::new(99)),
            &AdversaryConfig::default(),
        )
        .unwrap();
        assert!(all.base.completed);
        for p in ProcessId::all(4) {
            assert_eq!(all.base.tosses_at(p, all.base.num_rounds()), 1);
        }
        // Phase-1 tosses are recorded in the round they happen.
        assert_eq!(all.base.rounds[0].phase1_tosses.values().sum::<u64>(), 4);
    }

    #[test]
    fn touched_registers_lists_everything() {
        let alg = llsc_alg();
        let all =
            build_all_run(&alg, 2, Arc::new(ZeroTosses), &AdversaryConfig::default()).unwrap();
        assert_eq!(all.base.touched_registers(), vec![RegisterId(0)]);
    }

    #[test]
    fn up_tracker_rounds_match_run_rounds() {
        let alg = llsc_alg();
        let all =
            build_all_run(&alg, 8, Arc::new(ZeroTosses), &AdversaryConfig::default()).unwrap();
        assert_eq!(all.up.rounds(), all.base.num_rounds());
        assert!(all.up.lemma_5_1_holds());
    }
}
