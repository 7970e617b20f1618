//! Section 5.3: the `UP`-set update rules and Lemma 5.1.
//!
//! For the `(All, A)`-run, `UP(p, r)` over-approximates the set of processes
//! that `p` *might know to be up* by the end of round `r`, and `UP(R, r)`
//! the set of processes whose up-ness can be inferred from register `R`'s
//! value at the end of round `r`. [`UpTracker`] applies the paper's eight
//! process rules and four register rules to each [`RoundRecord`], keeping
//! the full per-round history that the `(S, A)`-run construction and the
//! indistinguishability checker consume.
//!
//! Lemma 5.1 — `|UP(X, r)| ≤ 4^r` — is checked by
//! [`UpTracker::max_up_size`] plus [`lemma_5_1_bound`].

use crate::rounds::RoundRecord;
use crate::secretive;
use llsc_shmem::{OpKind, ProcMask, ProcessId, RegisterId};
use std::collections::{BTreeMap, BTreeSet};

/// A set of processes — a fixed-width bitmask ([`ProcMask`]), so the
/// `UP`-set bookkeeping unions and subset checks are word operations
/// instead of tree merges.
pub type ProcSet = ProcMask;

/// One round's worth of `UP` values.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct UpSnapshot {
    /// `UP(p, r)` for every process, indexed by process id.
    pub procs: Vec<ProcSet>,
    /// `UP(R, r)` for every register that has a non-empty `UP`; registers
    /// absent from the map have `UP(R, r) = ∅`.
    pub regs: BTreeMap<RegisterId, ProcSet>,
}

impl UpSnapshot {
    fn initial(n: usize) -> Self {
        UpSnapshot {
            procs: ProcessId::all(n).map(|p| ProcSet::from([p])).collect(),
            regs: BTreeMap::new(),
        }
    }

    /// `UP(p, r)` for this snapshot's round.
    pub fn proc(&self, p: ProcessId) -> &ProcSet {
        &self.procs[p.0]
    }

    /// `UP(R, r)` for this snapshot's round (empty if never written).
    pub fn reg(&self, r: RegisterId) -> &ProcSet {
        static EMPTY: ProcSet = ProcSet::new();
        self.regs.get(&r).unwrap_or(&EMPTY)
    }

    /// The largest `|UP(X, r)|` over all processes and registers.
    pub fn max_size(&self) -> usize {
        let p = self.procs.iter().map(ProcSet::len).max().unwrap_or(0);
        let r = self.regs.values().map(ProcSet::len).max().unwrap_or(0);
        p.max(r)
    }
}

/// `4^r`, saturating — the Lemma 5.1 bound for round `r`.
pub fn lemma_5_1_bound(r: usize) -> usize {
    4usize.saturating_pow(r.min(32) as u32)
}

/// Tracks `UP(p, r)` and `UP(R, r)` across the rounds of an
/// `(All, A)`-run.
///
/// # Examples
///
/// ```
/// use llsc_core::UpTracker;
/// use llsc_shmem::ProcessId;
///
/// let t = UpTracker::new(3);
/// // Round 0: UP(p, 0) = {p}, UP(R, 0) = ∅.
/// assert_eq!(t.proc(ProcessId(1), 0), &llsc_core::ProcSet::from([ProcessId(1)]));
/// ```
#[derive(Clone, Debug)]
pub struct UpTracker {
    n: usize,
    /// Full mode: one snapshot per round (index = round). Rolling mode:
    /// only the latest snapshot.
    history: Vec<UpSnapshot>,
    /// `max |UP(X, r)|` per round, always maintained (Lemma 5.1 needs only
    /// this).
    max_sizes: Vec<usize>,
    rounds_applied: usize,
    keep_history: bool,
}

impl UpTracker {
    /// Creates a tracker in its round-0 state: `UP(p, 0) = {p}` and
    /// `UP(R, 0) = ∅`, retaining the full per-round history (needed by the
    /// `(S, A)`-run construction and the indistinguishability checker).
    pub fn new(n: usize) -> Self {
        Self::with_history(n, true)
    }

    /// Creates a *rolling* tracker that retains only the latest snapshot
    /// plus the per-round `max |UP|` sizes.
    ///
    /// Full per-round UP histories cost `Θ(rounds · Σ|UP|)` memory — for
    /// `Θ(n)`-round algorithms at `n = 1024` that is tens of gigabytes.
    /// The rolling tracker suffices for Lemma 5.1 checking and for the
    /// Theorem 6.1 bound measurement (a terminated winner's UP set no
    /// longer changes, so its final set equals its set at termination
    /// time).
    pub fn new_rolling(n: usize) -> Self {
        Self::with_history(n, false)
    }

    fn with_history(n: usize, keep_history: bool) -> Self {
        let initial = UpSnapshot::initial(n);
        UpTracker {
            n,
            max_sizes: vec![initial.max_size()],
            history: vec![initial],
            rounds_applied: 0,
            keep_history,
        }
    }

    /// The number of processes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Whether every round's snapshot is retained (full mode).
    pub fn has_full_history(&self) -> bool {
        self.keep_history
    }

    /// The number of completed rounds.
    pub fn rounds(&self) -> usize {
        self.rounds_applied
    }

    /// The snapshot at the end of round `r` (round 0 is the initial state).
    ///
    /// # Panics
    ///
    /// Panics if round `r` has not been applied yet, or if this is a
    /// rolling tracker and `r` is not the latest round.
    pub fn snapshot(&self, r: usize) -> &UpSnapshot {
        assert!(r <= self.rounds_applied, "round {r} not applied yet");
        if self.keep_history {
            &self.history[r]
        } else {
            assert_eq!(
                r, self.rounds_applied,
                "rolling UpTracker only retains the latest round ({})",
                self.rounds_applied
            );
            self.current()
        }
    }

    /// The latest snapshot (available in both modes).
    pub fn current(&self) -> &UpSnapshot {
        self.history.last().expect("initial snapshot always exists")
    }

    /// `UP(p, r)`.
    pub fn proc(&self, p: ProcessId, r: usize) -> &ProcSet {
        self.snapshot(r).proc(p)
    }

    /// `UP(R, r)`.
    pub fn reg(&self, reg: RegisterId, r: usize) -> &ProcSet {
        self.snapshot(r).reg(reg)
    }

    /// The largest `|UP(X, r)|` at round `r` (available in both modes).
    pub fn max_up_size(&self, r: usize) -> usize {
        self.max_sizes[r]
    }

    /// `true` iff Lemma 5.1 holds at every applied round:
    /// `|UP(X, r)| ≤ 4^r` (available in both modes).
    pub fn lemma_5_1_holds(&self) -> bool {
        (0..=self.rounds()).all(|r| self.max_up_size(r) <= lemma_5_1_bound(r))
    }

    /// Applies one round's update rules, appending the round-`r` snapshot.
    ///
    /// `rec` must be round `self.rounds() + 1` of the `(All, A)`-run.
    ///
    /// # Panics
    ///
    /// Panics if `rec.round` is not the next round.
    pub fn apply_round(&mut self, rec: &RoundRecord) {
        assert_eq!(
            rec.round,
            self.rounds() + 1,
            "rounds must be applied in order"
        );
        // The rules read some round-(r-1) values while producing round-r
        // values. Rather than cloning the whole snapshot (which dominates
        // the cost of long runs — Θ(rounds · Σ|UP|)), save exactly the old
        // values the rules can read and update the snapshot in place:
        //
        // * register UPs (rules R3, P1, P3, P4, P6 read them) — the `regs`
        //   map holds only registers with non-empty UP, typically few;
        // * the UP sets of this round's "knowledge sources": successful
        //   SC-ers (R1), swappers (R2, P5), and movers (R3, P4).
        //
        // Each participant performs at most one operation per round, so a
        // process's own entry is still its round-(r-1) value when its rule
        // fires.
        let prev = self.current();
        let old_regs: BTreeMap<RegisterId, ProcSet> = prev.regs.clone();
        let mut old_procs: BTreeMap<ProcessId, ProcSet> = BTreeMap::new();
        for p in rec
            .successful_sc
            .values()
            .copied()
            .chain(rec.swaps.values().flatten().copied())
            .chain(rec.move_config.processes())
        {
            old_procs.entry(p).or_insert_with(|| prev.proc(p).clone());
        }

        if self.keep_history {
            let next = self.current().clone();
            self.history.push(next);
        }
        let snapshot = self.history.last_mut().expect("non-empty history");
        let UpSnapshot { procs, regs } = snapshot;
        let old_reg = |r: RegisterId| old_regs.get(&r).cloned().unwrap_or_default();
        let old_proc = |p: ProcessId| -> &ProcSet {
            old_procs
                .get(&p)
                .expect("knowledge sources were saved above")
        };
        // `(source(R, σ_r), movers(R, σ_r))` for every register a move
        // landed in (rules R3 and P4), from one pass over σ_r.
        let flows = if rec.moves_into.is_empty() {
            BTreeMap::new()
        } else {
            secretive::flow_report(&rec.sigma, &rec.move_config)
        };
        // `UP(source, r-1)` joined with every mover's `UP(q, r-1)`; a
        // register no move landed in is its own source with no movers.
        let moved_in = |r: RegisterId| -> ProcSet {
            let (src, mvs) = flows
                .get(&r)
                .map_or((r, &[][..]), |(src, mvs)| (*src, mvs.as_slice()));
            let mut up = old_reg(src);
            for &q in mvs {
                up.union_with(old_proc(q));
            }
            up
        };

        // ---- Register rules (use only round r-1 values) ----
        // Collect the registers affected this round.
        let mut affected: BTreeSet<RegisterId> = BTreeSet::new();
        affected.extend(rec.successful_sc.keys().copied());
        affected.extend(rec.swaps.keys().copied());
        affected.extend(rec.moves_into.keys().copied());

        for &r in &affected {
            let new_up: ProcSet = if let Some(&p) = rec.successful_sc.get(&r) {
                // Rule R1: a successful SC on R.
                old_proc(p).clone()
            } else if let Some(swappers) = rec.swaps.get(&r) {
                // Rule R2: the last swapper's knowledge.
                let last = *swappers.last().expect("non-empty by construction");
                old_proc(last).clone()
            } else {
                // Rule R3: moves into R (no swap on R, no successful SC).
                moved_in(r)
            };
            // Rule R4 (else: unchanged) is the default — untouched entries
            // keep their round-(r-1) values.
            if new_up.is_empty() {
                regs.remove(&r);
            } else {
                regs.insert(r, new_up);
            }
        }

        // ---- Process rules (may use the *new* register values: rule P7) ----
        for op in &rec.ops {
            let (p, r) = (op.p, op.register);
            let up = &mut procs[p.0];
            match op.kind {
                // Rule P1: LL or validate on R joins UP(R, r-1).
                OpKind::Ll | OpKind::Validate => {
                    up.union_with(&old_reg(r));
                }
                // Rule P2: move learns nothing.
                OpKind::Move => {}
                // Rules P3-P5: swap on R.
                OpKind::Swap => {
                    let swappers = rec.swaps.get(&r).expect("recorded");
                    let my_pos = swappers.iter().position(|q| *q == p).expect("p swapped r");
                    if my_pos == 0 {
                        if rec.moves_into.contains_key(&r) {
                            // Rule P4: first swapper, after moves into R.
                            up.union_with(&moved_in(r));
                        } else {
                            // Rule P3: first swapper, no moves into R.
                            up.union_with(&old_reg(r));
                        }
                    } else {
                        // Rule P5: learns the previous swapper's knowledge.
                        let q = swappers[my_pos - 1];
                        up.union_with(old_proc(q));
                    }
                }
                // Rules P6/P7: SC on R.
                OpKind::Sc => {
                    if op.sc_ok == Some(true) {
                        // Rule P6: successful SC sees the end-of-(r-1) value.
                        up.union_with(&old_reg(r));
                    } else {
                        // Rule P7: unsuccessful SC may see the round-r
                        // value (already updated in `regs` above).
                        if let Some(new_reg) = regs.get(&r) {
                            up.union_with(new_reg);
                        }
                    }
                }
            }
        }
        // Rule P8 (no operation: unchanged) is the default.

        let max = self.history.last().expect("non-empty history").max_size();
        self.max_sizes.push(max);
        self.rounds_applied += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rounds::{execute_round, MoveOrder};
    use llsc_shmem::dsl::{done, ll, mv, sc, swap, validate};
    use llsc_shmem::{
        Algorithm, Executor, ExecutorConfig, FnAlgorithm, Program, Value, ZeroTosses,
    };
    use std::sync::Arc;

    fn pset<const N: usize>(ids: [usize; N]) -> ProcSet {
        ids.into_iter().map(ProcessId).collect()
    }

    fn run_rounds(alg: &dyn Algorithm, n: usize, rounds: usize) -> (UpTracker, Executor) {
        let mut e = Executor::new(alg, n, Arc::new(ZeroTosses), ExecutorConfig::default());
        let mut t = UpTracker::new(n);
        let all: Vec<_> = ProcessId::all(n).collect();
        for r in 1..=rounds {
            let rec = execute_round(&mut e, r, &all, MoveOrder::Secretive).unwrap();
            t.apply_round(&rec);
        }
        (t, e)
    }

    #[test]
    fn initial_state_matches_paper() {
        let t = UpTracker::new(4);
        for p in ProcessId::all(4) {
            assert_eq!(t.proc(p, 0), &ProcSet::from([p]));
        }
        assert!(t.reg(RegisterId(0), 0).is_empty());
        assert_eq!(t.rounds(), 0);
        assert!(t.lemma_5_1_holds());
    }

    #[test]
    fn ll_then_sc_spreads_knowledge_via_register() {
        // Everyone LLs R0 (round 1), then SCs R0 (round 2). In round 2 the
        // winner (p0) writes its knowledge into R0; losers' failed SCs read
        // the round-2 value (rule P7), so they learn p0's knowledge.
        let alg = FnAlgorithm::new("llsc", |pid: ProcessId, _n| {
            ll(RegisterId(0), move |_| {
                sc(RegisterId(0), Value::from(pid.0 as i64), |_, _| {
                    done(Value::from(0i64))
                })
            })
            .into_program()
        });
        let (t, _) = run_rounds(&alg, 3, 2);
        // Round 1: LL on a fresh register (UP(R,0) = ∅) adds nothing.
        for p in ProcessId::all(3) {
            assert_eq!(t.proc(p, 1), &ProcSet::from([p]));
        }
        // Round 2: register rule R1 gives UP(R0,2) = UP(p0,1) = {p0};
        // winner p0 learns UP(R0,1)=∅; losers learn UP(R0,2)={p0}.
        assert_eq!(t.reg(RegisterId(0), 2), &pset([0]));
        assert_eq!(t.proc(ProcessId(0), 2), &pset([0]));
        assert_eq!(t.proc(ProcessId(1), 2), &pset([0, 1]));
        assert_eq!(t.proc(ProcessId(2), 2), &pset([0, 2]));
        assert!(t.lemma_5_1_holds());
    }

    #[test]
    fn swap_chain_learns_predecessor_only() {
        // Three swappers on R0 in one round: rule P5 — p1 learns p0, p2
        // learns p1; rule R2 — UP(R0,1) = UP(last=p2, 0) = {p2}.
        let alg = FnAlgorithm::new("swaps", |pid: ProcessId, _n| {
            swap(RegisterId(0), Value::from(pid.0 as i64), |_| {
                done(Value::from(0i64))
            })
            .into_program()
        });
        let (t, _) = run_rounds(&alg, 3, 1);
        assert_eq!(t.proc(ProcessId(0), 1), &pset([0])); // first swapper: ∪ UP(R,0)=∅
        assert_eq!(t.proc(ProcessId(1), 1), &pset([0, 1]));
        assert_eq!(t.proc(ProcessId(2), 1), &pset([1, 2]));
        assert_eq!(t.reg(RegisterId(0), 1), &pset([2]));
        assert!(t.lemma_5_1_holds());
    }

    #[test]
    fn move_reveals_source_and_movers() {
        // p0 and p1 move R10/R11 into R0; p2 LLs R0 the next round.
        let alg = FnAlgorithm::new("mv", |pid: ProcessId, _n| {
            let prog: Box<dyn Program> = match pid.0 {
                0 => mv(RegisterId(10), RegisterId(0), || done(Value::from(0i64))).into_program(),
                1 => mv(RegisterId(11), RegisterId(0), || done(Value::from(0i64))).into_program(),
                _ => ll(RegisterId(0), |_| {
                    ll(RegisterId(0), |_| done(Value::from(0i64)))
                })
                .into_program(),
            };
            prog
        });
        let (t, _) = run_rounds(&alg, 3, 2);
        // Round 1 register rule R3: UP(R0,1) = UP(source,0) ∪ UP(last mover,0).
        // Source is one of R10/R11 (UP = ∅); the movers list is the last
        // mover only (both moved into R0, the later one wins).
        let up_r0 = t.reg(RegisterId(0), 1);
        assert_eq!(up_r0.len(), 1, "exactly the surviving mover: {up_r0:?}");
        // p2's round-1 LL: UP(R0, 0) = ∅, learns nothing; its round-2 LL
        // learns UP(R0, 1).
        assert_eq!(t.proc(ProcessId(2), 1), &pset([2]));
        let p2_r2 = t.proc(ProcessId(2), 2).clone();
        assert!(p2_r2.is_superset(up_r0));
        assert!(t.lemma_5_1_holds());
    }

    #[test]
    fn movers_see_nothing() {
        // Rule P2: a mover's own UP never grows.
        let alg = FnAlgorithm::new("mv2", |pid: ProcessId, _n| {
            mv(
                RegisterId(pid.0 as u64),
                RegisterId(pid.0 as u64 + 1),
                || done(Value::from(0i64)),
            )
            .into_program()
        });
        let (t, _) = run_rounds(&alg, 4, 1);
        for p in ProcessId::all(4) {
            assert_eq!(t.proc(p, 1), &ProcSet::from([p]));
        }
    }

    #[test]
    fn validate_learns_previous_round_register_value() {
        // p0 swaps into R0 in round 1; p1 validates R0 in round 2 and
        // learns UP(R0, 1) = {p0}.
        let alg = FnAlgorithm::new("val", |pid: ProcessId, _n| {
            let prog: Box<dyn Program> = match pid.0 {
                0 => swap(RegisterId(0), Value::from(1i64), |_| {
                    done(Value::from(0i64))
                })
                .into_program(),
                _ => validate(RegisterId(0), |_, _| {
                    validate(RegisterId(0), |_, _| done(Value::from(0i64)))
                })
                .into_program(),
            };
            prog
        });
        let (t, _) = run_rounds(&alg, 2, 2);
        assert_eq!(t.proc(ProcessId(1), 1), &pset([1]));
        assert_eq!(t.proc(ProcessId(1), 2), &pset([0, 1]));
    }

    #[test]
    fn up_growth_respects_lemma_5_1_under_heavy_mixing() {
        // A stress algorithm: every process LLs and SCs a common register
        // repeatedly — knowledge mixes as fast as the rules allow.
        let alg = FnAlgorithm::new("mix", |pid: ProcessId, _n| {
            fn round_trip(pid: ProcessId, k: usize) -> llsc_shmem::dsl::Step {
                if k == 0 {
                    return done(Value::from(0i64));
                }
                ll(RegisterId(0), move |_| {
                    sc(RegisterId(0), Value::from(pid.0 as i64), move |_, _| {
                        round_trip(pid, k - 1)
                    })
                })
            }
            round_trip(pid, 6).into_program()
        });
        let (t, _) = run_rounds(&alg, 16, 12);
        assert!(t.lemma_5_1_holds());
        // And the bound is not vacuous: knowledge did spread.
        assert!(t.max_up_size(12) > 1);
    }

    #[test]
    #[should_panic(expected = "applied in order")]
    fn out_of_order_round_application_panics() {
        let alg = FnAlgorithm::new("noop", |_p, _n| done(Value::from(0i64)).into_program());
        let mut e = Executor::new(&alg, 1, Arc::new(ZeroTosses), ExecutorConfig::default());
        let rec = execute_round(&mut e, 5, &[ProcessId(0)], MoveOrder::Secretive).unwrap();
        let mut t = UpTracker::new(1);
        t.apply_round(&rec);
    }

    #[test]
    fn lemma_bound_values() {
        assert_eq!(lemma_5_1_bound(0), 1);
        assert_eq!(lemma_5_1_bound(1), 4);
        assert_eq!(lemma_5_1_bound(3), 64);
        // Saturates rather than overflowing.
        assert!(lemma_5_1_bound(1000) >= lemma_5_1_bound(32));
    }
}
