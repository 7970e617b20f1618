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
use std::collections::BTreeMap;

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
        reg_up(&self.regs, r)
    }

    /// The largest `|UP(X, r)|` over all processes and registers.
    pub(crate) fn max_size(&self) -> usize {
        let p = self.procs.iter().map(ProcSet::len).max().unwrap_or(0);
        let r = self.regs.values().map(ProcSet::len).max().unwrap_or(0);
        p.max(r)
    }
}

/// `4^r`, saturating — the Lemma 5.1 bound for round `r`.
pub(crate) fn lemma_5_1_bound(r: usize) -> usize {
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
    /// `max |UP(p, r)|` for the latest round. Rules P1-P7 only grow
    /// process sets, so it is kept as a running maximum.
    proc_max: usize,
    /// The sizes of the latest round's non-empty register UP sets.
    reg_sizes: SizeCounts,
    rounds_applied: usize,
    keep_history: bool,
    /// Scratch reused by [`UpTracker::apply_round`]: the round's successful
    /// SCs as `(register, winner)` and its swaps as `(register, index into
    /// the round's ops)`, each sorted by register (a register's swaps in
    /// execution order).
    winners: Vec<(RegisterId, ProcessId)>,
    swaps: Vec<(RegisterId, usize)>,
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
            proc_max: initial.max_size(),
            reg_sizes: SizeCounts::default(),
            history: vec![initial],
            rounds_applied: 0,
            keep_history,
            winners: Vec::new(),
            swaps: Vec::new(),
        }
    }

    /// The number of processes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Whether every round's snapshot is retained (full mode).
    pub(crate) fn has_full_history(&self) -> bool {
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
        // The rules read round-(r-1) values while producing round-r values.
        // The snapshot is updated in place, in an order that leaves every
        // value a rule reads in place until it has been read, so nothing
        // is saved and the cost follows the round's operations, not the
        // number of processes or registers:
        //
        // 1. compute the register rules' new values (R1-R3); every
        //    process and register UP is still round r-1;
        // 2. apply rules P1 and P6, which read register UPs (still round
        //    r-1);
        // 3. apply rules P3-P5 to each register's swappers from last to
        //    first: P3 and P4 read register UPs and movers' UPs (movers
        //    learn nothing, P2), and P5 reads the predecessor's UP before
        //    that one grows;
        // 4. install the new register values;
        // 5. apply rule P7, which reads the round-r register value.
        //
        // Each participant performs at most one operation per round, so
        // every rule touches a distinct process.
        //
        // `(source(R, σ_r), movers(R, σ_r))` for every register a move
        // landed in (rules R3 and P4), from one pass over σ_r.
        let flows = secretive::flow_report(&rec.sigma, &rec.move_config);
        // The successful SCs (rules R1, P6) and swaps (R2, P3-P5) of the
        // round's ops, grouped by register.
        self.winners.clear();
        self.swaps.clear();
        for (i, op) in rec.ops.iter().enumerate() {
            match (op.kind, op.sc_ok) {
                (OpKind::Sc, Some(true)) => self.winners.push((op.register, op.p)),
                (OpKind::Swap, _) => self.swaps.push((op.register, i)),
                _ => {}
            }
        }
        self.winners.sort_unstable();
        debug_assert!(
            self.winners.windows(2).all(|w| w[0].0 != w[1].0),
            "two successful SCs on one register in round {}: {:?}",
            rec.round,
            self.winners
        );
        // Keys are distinct, so this equals a stable sort by register.
        self.swaps.sort_unstable();
        if self.keep_history {
            let next = self.current().clone();
            self.history.push(next);
        }
        let (winners, swaps) = (&self.winners, &self.swaps);
        let has_winner = |r: RegisterId| winners.binary_search_by_key(&r, |w| w.0).is_ok();
        let swapped = |r: RegisterId| swaps.binary_search_by_key(&r, |s| s.0).is_ok();
        let swappers = || swaps.chunk_by(|a, b| a.0 == b.0);
        let snapshot = self.history.last_mut().expect("non-empty history");
        let UpSnapshot { procs, regs } = snapshot;

        let updates: Vec<(RegisterId, ProcSet)> = {
            let (old_regs, old_procs): (&BTreeMap<_, _>, &[ProcSet]) = (regs, procs);
            let old_reg = |r: RegisterId| reg_up(old_regs, r);
            // `UP(source, r-1)` joined with every mover's `UP(q, r-1)`.
            let moved_in = |(src, mvs): &(RegisterId, Vec<ProcessId>)| -> ProcSet {
                let mut up = old_reg(*src).clone();
                for &q in mvs {
                    up.union_with(&old_procs[q.0]);
                }
                up
            };
            // ---- Register rules ----
            // Rule R4 (else: unchanged) is the default — untouched entries
            // keep their round-(r-1) values.
            winners
                .iter()
                // Rule R1: a successful SC on R.
                .map(|&(r, p)| (r, old_procs[p.0].clone()))
                // Rule R2: the last swapper's knowledge.
                .chain(swappers().filter(|g| !has_winner(g[0].0)).map(|g| {
                    let (r, last) = g[g.len() - 1];
                    (r, old_procs[rec.ops[last].p.0].clone())
                }))
                // Rule R3: moves into R (no swap on R, no successful SC).
                .chain(
                    flows
                        .iter()
                        .filter(|(&r, _)| !has_winner(r) && !swapped(r))
                        .map(|(&r, flow)| (r, moved_in(flow))),
                )
                .collect()
        };

        // ---- Process rules P1-P6 ----
        let old_reg = |r: RegisterId| reg_up(regs, r);
        for op in &rec.ops {
            let up = &mut procs[op.p.0];
            match op.kind {
                // Rule P1: LL or validate on R joins UP(R, r-1).
                OpKind::Ll | OpKind::Validate => up.union_with(old_reg(op.register)),
                // Rule P6: successful SC sees the end-of-(r-1) value.
                OpKind::Sc if op.sc_ok == Some(true) => up.union_with(old_reg(op.register)),
                // Rule P2: move learns nothing. Swaps follow below, rule P7
                // after the register rules are installed.
                OpKind::Move | OpKind::Swap | OpKind::Sc => continue,
            }
            self.proc_max = self.proc_max.max(up.len());
        }
        // Rules P3-P5: swap on R.
        for group in swappers() {
            let r = group[0].0;
            let swapper = |i: usize| rec.ops[group[i].1].p;
            for i in (0..group.len()).rev() {
                let p = swapper(i);
                if i > 0 {
                    // Rule P5: learns the previous swapper's knowledge.
                    union_from(procs, p, swapper(i - 1));
                } else if let Some((src, mvs)) = flows.get(&r) {
                    // Rule P4: first swapper, after moves into R. Movers
                    // learn nothing, so their UPs are still round r-1.
                    procs[p.0].union_with(old_reg(*src));
                    for &q in mvs {
                        union_from(procs, p, q);
                    }
                } else {
                    // Rule P3: first swapper, no moves into R.
                    procs[p.0].union_with(old_reg(r));
                }
                self.proc_max = self.proc_max.max(procs[p.0].len());
            }
        }

        for (r, up) in updates {
            // Count the new size before dropping the old one, so the
            // maximum never walks down past it.
            let old = if up.is_empty() {
                regs.remove(&r)
            } else {
                self.reg_sizes.add(up.len());
                regs.insert(r, up)
            };
            if let Some(old) = old {
                self.reg_sizes.remove(old.len());
            }
        }

        // ---- Rule P7: an unsuccessful SC may see the round-r value ----
        for op in rec.ops.iter().filter(|op| op.sc_ok == Some(false)) {
            if let Some(new_reg) = regs.get(&op.register) {
                let up = &mut procs[op.p.0];
                up.union_with(new_reg);
                self.proc_max = self.proc_max.max(up.len());
            }
        }
        // Rule P8 (no operation: unchanged) is the default.

        self.max_sizes.push(self.proc_max.max(self.reg_sizes.max));
        self.rounds_applied += 1;
    }
}

/// `UP(R)` in a register map that omits empty sets.
fn reg_up(regs: &BTreeMap<RegisterId, ProcSet>, r: RegisterId) -> &ProcSet {
    static EMPTY: ProcSet = ProcSet::new();
    regs.get(&r).unwrap_or(&EMPTY)
}

/// `procs[dst] ∪= procs[src]` for two distinct processes.
fn union_from(procs: &mut [ProcSet], dst: ProcessId, src: ProcessId) {
    let (d, s) = if dst.0 < src.0 {
        let (head, tail) = procs.split_at_mut(src.0);
        (&mut head[dst.0], &tail[0])
    } else {
        let (head, tail) = procs.split_at_mut(dst.0);
        (&mut tail[0], &head[src.0])
    };
    d.union_with(s);
}

/// A multiset of set sizes with its maximum: the register half of
/// Lemma 5.1's per-round `max |UP(X, r)|`. Register UP sets are replaced,
/// not only grown, so their maximum can fall; counting sizes keeps it
/// exact without walking every register each round.
#[derive(Clone, Debug, Default)]
struct SizeCounts {
    /// `counts[s]`: how many sets have size `s`.
    counts: Vec<usize>,
    /// The largest size with a non-zero count (0 when none).
    max: usize,
}

impl SizeCounts {
    fn add(&mut self, size: usize) {
        if self.counts.len() <= size {
            self.counts.resize(size + 1, 0);
        }
        self.counts[size] += 1;
        self.max = self.max.max(size);
    }

    fn remove(&mut self, size: usize) {
        self.counts[size] -= 1;
        while self.max > 0 && self.counts[self.max] == 0 {
            self.max -= 1;
        }
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
            let rec = execute_round(&mut e, r, &all, MoveOrder::Secretive, true).unwrap();
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
    fn the_maximum_falls_when_a_larger_register_set_is_replaced() {
        // Round 1: the cycle p0: R0 -> R1, p1: R1 -> R0 carries two
        // movers into one register under every schedule, a register set
        // larger than any process set (movers learn nothing). Round 2: p2
        // moves R3 into that register, replacing it with {p2}, so the
        // round-2 maximum is back to 1 — the running maximum must not
        // keep the stale 2.
        let alg = FnAlgorithm::new("cycle", |pid: ProcessId, _n| {
            let prog: Box<dyn Program> = match pid.0 {
                0 => mv(RegisterId(0), RegisterId(1), || done(Value::from(0i64))).into_program(),
                1 => mv(RegisterId(1), RegisterId(0), || done(Value::from(0i64))).into_program(),
                _ => validate(RegisterId(9), |_, _| {
                    mv(RegisterId(3), RegisterId(0), || done(Value::from(0i64)))
                })
                .into_program(),
            };
            prog
        });
        let (t, _) = run_rounds(&alg, 3, 2);
        let widest = |r: usize| t.snapshot(r).regs.values().map(ProcSet::len).max();
        assert_eq!(widest(1), Some(2), "{:?}", t.snapshot(1).regs);
        assert_eq!(t.max_up_size(1), 2);
        assert_eq!(widest(2), Some(1), "{:?}", t.snapshot(2).regs);
        assert_eq!(t.max_up_size(2), t.snapshot(2).max_size());
        assert_eq!(t.max_up_size(2), 1);
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
        let rec = execute_round(&mut e, 5, &[ProcessId(0)], MoveOrder::Secretive, true).unwrap();
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
