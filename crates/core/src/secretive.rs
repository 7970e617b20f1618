//! Section 4: limiting the influence of `move` — secretive complete
//! schedules.
//!
//! A set of pending `move` operations, one per process, is described by a
//! [`MoveConfig`] — the paper's pair `(S, f)`. Scheduling those moves in the
//! wrong order can aggregate information: the paper opens with the chain
//! `p_i: move(R_i, R_{i+1})`, where scheduling `p_0, ..., p_{n-1}` in id
//! order copies `R_0`'s value all the way to `R_n`, so a later reader of
//! `R_n` learns that *all* `n` processes took steps.
//!
//! A *secretive* complete schedule prevents this: after executing it, every
//! register's final value was put there by at most **two** of the moving
//! processes ([`movers`]), so a reader of any single register learns about
//! at most two movers. [`secretive_complete_schedule`] implements the
//! two-stage construction of Figure 1 (Lemma 4.1), and [`restrict`]/
//! [`source`] support the restriction property of Lemma 4.2 that the
//! `(S, A)`-run construction relies on.

use llsc_shmem::rng::XorShift64;
use llsc_shmem::{ProcMask, ProcessId, RegisterId};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// The paper's `(S, f)`: the set of processes with a pending `move`, and
/// each process's exact operation `f(p) = (R_src, R_dst)`.
///
/// # Examples
///
/// ```
/// use llsc_core::MoveConfig;
/// use llsc_shmem::{ProcessId, RegisterId};
///
/// // The paper's Section-4 chain: p_i moves R_i into R_{i+1}.
/// let cfg = MoveConfig::from_iter(
///     (0..4).map(|i| (ProcessId(i), RegisterId(i as u64), RegisterId(i as u64 + 1))),
/// );
/// assert_eq!(cfg.len(), 4);
/// assert_eq!(cfg.get(ProcessId(2)), Some((RegisterId(2), RegisterId(3))));
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MoveConfig {
    moves: BTreeMap<ProcessId, (RegisterId, RegisterId)>,
}

impl MoveConfig {
    /// Creates an empty configuration.
    pub fn new() -> Self {
        MoveConfig::default()
    }

    /// Records that `p`'s pending operation is `move(src, dst)`,
    /// replacing any previous entry for `p`.
    ///
    /// # Panics
    ///
    /// Panics if `src == dst`. Self-moves are excluded from the model: with
    /// them, Lemma 4.1 is false — three processes self-moving the same
    /// register produce a movers list of length 3 under *every* complete
    /// schedule, because each self-move appends to the register's own
    /// movers list without redirecting its source. The paper's
    /// `move(R_j, R_k)` is therefore read with `j ≠ k`.
    pub fn insert(&mut self, p: ProcessId, src: RegisterId, dst: RegisterId) {
        assert_ne!(
            src, dst,
            "{p}: self-move on {src} is outside the Section-4 model (see MoveConfig::insert docs)"
        );
        self.moves.insert(p, (src, dst));
    }

    /// Removes every entry.
    pub fn clear(&mut self) {
        self.moves.clear();
    }

    /// `f(p)`, if `p ∈ S`.
    pub fn get(&self, p: ProcessId) -> Option<(RegisterId, RegisterId)> {
        self.moves.get(&p).copied()
    }

    /// `true` iff `p ∈ S`.
    pub fn contains(&self, p: ProcessId) -> bool {
        self.moves.contains_key(&p)
    }

    /// The processes of `S`, in id order.
    pub fn processes(&self) -> impl Iterator<Item = ProcessId> + '_ {
        self.moves.keys().copied()
    }

    /// `|S|`.
    pub fn len(&self) -> usize {
        self.moves.len()
    }

    /// `true` iff `S` is empty.
    pub fn is_empty(&self) -> bool {
        self.moves.is_empty()
    }

    /// All registers appearing as a destination of some move, in id order.
    pub fn destinations(&self) -> BTreeSet<RegisterId> {
        self.moves.values().map(|&(_, dst)| dst).collect()
    }
}

impl FromIterator<(ProcessId, RegisterId, RegisterId)> for MoveConfig {
    /// Creates a configuration from `(process, src, dst)` triples.
    ///
    /// # Panics
    ///
    /// Panics on self-moves, like [`MoveConfig::insert`].
    fn from_iter<I: IntoIterator<Item = (ProcessId, RegisterId, RegisterId)>>(iter: I) -> Self {
        let mut cfg = MoveConfig::new();
        for (p, src, dst) in iter {
            cfg.insert(p, src, dst);
        }
        cfg
    }
}

/// A random move configuration over `regs` registers (no self-moves),
/// drawn from the repository's deterministic [`XorShift64`] stream.
///
/// This is the generator behind the E1/E2 experiment tables and the
/// `llsc secretive --seed` demo; its output for a given `(n, regs, seed)`
/// is stable across releases (the committed tables depend on it).
///
/// # Panics
///
/// Panics if `regs < 2` (self-moves are outside the Section-4 model).
pub fn random_move_config(n: usize, regs: u64, seed: u64) -> MoveConfig {
    assert!(regs >= 2, "need at least 2 registers to avoid self-moves");
    let mut rng = XorShift64::new(seed);
    MoveConfig::from_iter((0..n).map(|i| {
        let src = rng.next_u64() % regs;
        let dst = (src + 1 + rng.next_u64() % (regs - 1)) % regs;
        (ProcessId(i), RegisterId(src), RegisterId(dst))
    }))
}

impl fmt::Display for MoveConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (p, (src, dst))) in self.moves.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{p}: move({src}, {dst})")?;
        }
        write!(f, "}}")
    }
}

/// The outcome of symbolically executing a schedule prefix: for each
/// destination register, where its current value originated and which moves
/// carried it there.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct FlowState {
    /// `R -> (source(R, σ), movers(R, σ))`. Registers absent from the map
    /// have `source = themselves` and `movers = λ`.
    flows: BTreeMap<RegisterId, (RegisterId, Vec<ProcessId>)>,
}

impl FlowState {
    fn source_of(&self, r: RegisterId) -> RegisterId {
        self.flows.get(&r).map(|(s, _)| *s).unwrap_or(r)
    }

    fn movers_of(&self, r: RegisterId) -> &[ProcessId] {
        self.flows.get(&r).map(|(_, m)| m.as_slice()).unwrap_or(&[])
    }

    /// Applies one scheduled move `p: move(src, dst)` (the inductive case
    /// `σ = σ' · p` of the paper's definition).
    fn apply(&mut self, p: ProcessId, src: RegisterId, dst: RegisterId) {
        let new_source = self.source_of(src);
        let mut new_movers = self.movers_of(src).to_vec();
        new_movers.push(p);
        self.flows.insert(dst, (new_source, new_movers));
    }
}

fn flow_after(schedule: &[ProcessId], cfg: &MoveConfig) -> FlowState {
    let mut state = FlowState::default();
    for &p in schedule {
        let (src, dst) = cfg
            .get(p)
            .unwrap_or_else(|| panic!("{p} appears in schedule but not in the move config"));
        state.apply(p, src, dst);
    }
    state
}

/// The full flow outcome of a schedule: for every register that received
/// at least one move, its [`source`] and [`movers`] — computed in a single
/// pass over the schedule instead of one pass per query.
///
/// Registers absent from the map are their own source with no movers.
///
/// # Panics
///
/// Panics if `schedule` mentions a process absent from `cfg`.
///
/// # Examples
///
/// ```
/// use llsc_core::{flow_report, secretive_complete_schedule, MoveConfig};
/// use llsc_shmem::{ProcessId, RegisterId};
///
/// let cfg = MoveConfig::from_iter([(ProcessId(0), RegisterId(0), RegisterId(1))]);
/// let sigma = secretive_complete_schedule(&cfg);
/// let flows = flow_report(&sigma, &cfg);
/// assert_eq!(flows[&RegisterId(1)], (RegisterId(0), vec![ProcessId(0)]));
/// ```
pub fn flow_report(
    schedule: &[ProcessId],
    cfg: &MoveConfig,
) -> BTreeMap<RegisterId, (RegisterId, Vec<ProcessId>)> {
    flow_after(schedule, cfg).flows
}

/// `source(R, σ, (S, f))`: the register whose *original* value resides in
/// `R` after executing the schedule `σ`.
///
/// # Panics
///
/// Panics if `schedule` mentions a process absent from `cfg`.
pub fn source(r: RegisterId, schedule: &[ProcessId], cfg: &MoveConfig) -> RegisterId {
    flow_after(schedule, cfg).source_of(r)
}

/// `movers(R, σ, (S, f))`: the sequence of processes whose moves, in order,
/// carried [`source`]`(R, σ)`'s original value into `R`.
///
/// # Panics
///
/// Panics if `schedule` mentions a process absent from `cfg`.
pub fn movers(r: RegisterId, schedule: &[ProcessId], cfg: &MoveConfig) -> Vec<ProcessId> {
    flow_after(schedule, cfg).movers_of(r).to_vec()
}

/// `true` iff `schedule` is *complete* with respect to `cfg`: every process
/// of `S` appears exactly once and nothing else appears.
pub fn is_complete(schedule: &[ProcessId], cfg: &MoveConfig) -> bool {
    let mut seen = BTreeSet::new();
    for &p in schedule {
        if !cfg.contains(p) || !seen.insert(p) {
            return false;
        }
    }
    seen.len() == cfg.len()
}

/// `true` iff `schedule` is a *secretive* complete schedule: it is complete
/// and every register's movers list has at most two processes.
pub fn is_secretive(schedule: &[ProcessId], cfg: &MoveConfig) -> bool {
    if !is_complete(schedule, cfg) {
        return false;
    }
    let state = flow_after(schedule, cfg);
    // Only destination registers can have movers.
    cfg.destinations()
        .iter()
        .all(|&r| state.movers_of(r).len() <= 2)
}

/// `σ|A`: the subsequence of `schedule` containing exactly the processes in
/// `keep`.
pub fn restrict(schedule: &[ProcessId], keep: &ProcMask) -> Vec<ProcessId> {
    schedule
        .iter()
        .copied()
        .filter(|p| keep.contains(*p))
        .collect()
}

/// Constructs a secretive complete schedule for `cfg` — the algorithm of
/// Figure 1, made deterministic (Lemma 4.1).
///
/// **Stage 1.** While some unscheduled process `p` has a *fresh* source
/// register (no move has landed in it yet), schedule *all* unscheduled
/// processes whose destination equals `p`'s destination, with `p` last.
/// Ties are broken by process id (lowest-id `p` with a fresh source first;
/// the rest of its destination group in id order).
///
/// **Stage 2.** Schedule the remaining processes in id order.
///
/// The returned schedule always satisfies [`is_secretive`]; the unit and
/// property tests assert this over adversarial and random configurations.
///
/// # Examples
///
/// ```
/// use llsc_core::{secretive_complete_schedule, is_secretive, movers, MoveConfig};
/// use llsc_shmem::{ProcessId, RegisterId};
///
/// // The paper's chain example: a naive id-order schedule gives R_4 a
/// // movers list of length 4; the secretive schedule caps every register
/// // at two movers.
/// let cfg = MoveConfig::from_iter(
///     (0..4).map(|i| (ProcessId(i), RegisterId(i as u64), RegisterId(i as u64 + 1))),
/// );
/// let naive: Vec<_> = (0..4).map(ProcessId).collect();
/// assert_eq!(movers(RegisterId(4), &naive, &cfg).len(), 4);
///
/// let sigma = secretive_complete_schedule(&cfg);
/// assert!(is_secretive(&sigma, &cfg));
/// ```
pub fn secretive_complete_schedule(cfg: &MoveConfig) -> Vec<ProcessId> {
    let mut sigma: Vec<ProcessId> = Vec::with_capacity(cfg.len());
    let mut state = FlowState::default();
    let mut unscheduled: BTreeSet<ProcessId> = cfg.processes().collect();

    // Stage 1: while some unscheduled process has a fresh source register,
    // schedule its whole destination group (lowest-id such process first).
    while let Some(p) = unscheduled.iter().copied().find(|&q| {
        let (src, _) = cfg.get(q).expect("unscheduled ⊆ S");
        state.movers_of(src).is_empty()
    }) {
        let (_, dst) = cfg.get(p).expect("p ∈ S");
        // A: all unscheduled processes whose destination is p's destination,
        // ordered by id with p last.
        let mut group: Vec<ProcessId> = unscheduled
            .iter()
            .copied()
            .filter(|&q| q != p && cfg.get(q).expect("unscheduled ⊆ S").1 == dst)
            .collect();
        group.push(p);
        for q in group {
            let (src, dst) = cfg.get(q).expect("group ⊆ S");
            state.apply(q, src, dst);
            sigma.push(q);
            unscheduled.remove(&q);
        }
    }

    // Stage 2: remaining processes in id order.
    for p in unscheduled {
        let (src, dst) = cfg.get(p).expect("unscheduled ⊆ S");
        state.apply(p, src, dst);
        sigma.push(p);
    }

    debug_assert!(is_secretive(&sigma, cfg), "Lemma 4.1 violated for {cfg}");
    sigma
}

/// Checks the conclusion of Lemma 4.2 for one register: restricting a
/// secretive complete schedule `sigma` to any superset `keep` of
/// `movers(r, sigma)` preserves `source(r, ·)`.
///
/// Returns `true` iff `source(r, σ|keep) == source(r, σ)`.
pub fn restriction_preserves_source(
    r: RegisterId,
    sigma: &[ProcessId],
    cfg: &MoveConfig,
    keep: &ProcMask,
) -> bool {
    let restricted = restrict(sigma, keep);
    source(r, &restricted, cfg) == source(r, sigma, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: usize) -> ProcessId {
        ProcessId(i)
    }
    fn reg(i: u64) -> RegisterId {
        RegisterId(i)
    }

    /// The paper's worked example: `p_i` moves `R_i` into `R_{i+1}`.
    fn chain(n: usize) -> MoveConfig {
        MoveConfig::from_iter((0..n).map(|i| (p(i), reg(i as u64), reg(i as u64 + 1))))
    }

    #[test]
    fn empty_schedule_is_identity_flow() {
        let cfg = chain(3);
        assert_eq!(source(reg(2), &[], &cfg), reg(2));
        assert!(movers(reg(2), &[], &cfg).is_empty());
    }

    #[test]
    fn id_order_chain_aggregates_everything() {
        // The motivating bad schedule: R_n receives R_0's value via all n
        // movers.
        let n = 5;
        let cfg = chain(n);
        let naive: Vec<_> = (0..n).map(p).collect();
        assert_eq!(source(reg(n as u64), &naive, &cfg), reg(0));
        assert_eq!(movers(reg(n as u64), &naive, &cfg), naive);
    }

    #[test]
    fn even_odd_chain_schedule_matches_paper() {
        // The paper's alternative: even-id processes first, then odd.
        // R_i then holds R_{i-1}'s original value if i is odd, R_{i-2}'s if
        // i is even, and each register has at most two movers.
        let n = 6;
        let cfg = chain(n);
        let mut order: Vec<_> = (0..n).step_by(2).map(p).collect();
        order.extend((1..n).step_by(2).map(p));
        for i in 1..=n as u64 {
            let src = source(reg(i), &order, &cfg);
            let mv = movers(reg(i), &order, &cfg);
            if i % 2 == 1 {
                assert_eq!(src, reg(i - 1), "odd R{i}");
                assert_eq!(mv, vec![p((i - 1) as usize)]);
            } else {
                assert_eq!(src, reg(i - 2), "even R{i}");
                assert_eq!(mv, vec![p((i - 2) as usize), p((i - 1) as usize)]);
            }
        }
        assert!(is_secretive(&order, &cfg));
    }

    #[test]
    fn constructed_schedule_is_secretive_on_chain() {
        for n in [1, 2, 3, 7, 16, 64] {
            let cfg = chain(n);
            let sigma = secretive_complete_schedule(&cfg);
            assert!(is_complete(&sigma, &cfg), "n={n}");
            assert!(is_secretive(&sigma, &cfg), "n={n}");
        }
    }

    #[test]
    fn constructed_schedule_is_secretive_on_star() {
        // Everyone moves into the same register: only the last scheduled
        // process's value survives; exactly one mover.
        let cfg = MoveConfig::from_iter((0..8).map(|i| (p(i), reg(i as u64 + 10), reg(0))));
        let sigma = secretive_complete_schedule(&cfg);
        assert!(is_secretive(&sigma, &cfg));
        assert_eq!(movers(reg(0), &sigma, &cfg).len(), 1);
    }

    #[test]
    #[should_panic(expected = "self-move")]
    fn self_moves_are_rejected() {
        let _ = MoveConfig::from_iter([(p(0), reg(0), reg(0)), (p(1), reg(0), reg(1))]);
    }

    #[test]
    fn constructed_schedule_handles_two_cycles() {
        // p0: R0 -> R1, p1: R1 -> R0 (a swap cycle).
        let cfg = MoveConfig::from_iter([(p(0), reg(0), reg(1)), (p(1), reg(1), reg(0))]);
        let sigma = secretive_complete_schedule(&cfg);
        assert!(is_secretive(&sigma, &cfg));
        // Both registers end with exactly one mover: each move reads its
        // source before the other overwrote it only if scheduled that way;
        // either way the movers lists stay ≤ 2.
        for r in [reg(0), reg(1)] {
            assert!(!movers(r, &sigma, &cfg).is_empty());
        }
    }

    #[test]
    fn empty_config_yields_empty_schedule() {
        let cfg = MoveConfig::new();
        let sigma = secretive_complete_schedule(&cfg);
        assert!(sigma.is_empty());
        assert!(is_complete(&sigma, &cfg));
        assert!(is_secretive(&sigma, &cfg));
    }

    #[test]
    fn is_complete_rejects_duplicates_and_strangers() {
        let cfg = chain(2);
        assert!(!is_complete(&[p(0), p(0)], &cfg));
        assert!(!is_complete(&[p(0), p(7)], &cfg));
        assert!(!is_complete(&[p(0)], &cfg));
        assert!(is_complete(&[p(1), p(0)], &cfg));
    }

    #[test]
    fn restrict_keeps_order() {
        let sigma = vec![p(4), p(1), p(3), p(2)];
        let keep: ProcMask = [p(2), p(1)].into_iter().collect();
        assert_eq!(restrict(&sigma, &keep), vec![p(1), p(2)]);
    }

    #[test]
    fn lemma_4_2_on_chain() {
        // For every destination register of the secretive schedule,
        // restricting to exactly its movers preserves the source.
        let cfg = chain(8);
        let sigma = secretive_complete_schedule(&cfg);
        for i in 0..=8u64 {
            let keep: ProcMask = movers(reg(i), &sigma, &cfg).into_iter().collect();
            assert!(
                restriction_preserves_source(reg(i), &sigma, &cfg, &keep),
                "register R{i}"
            );
        }
    }

    #[test]
    fn lemma_4_2_with_supersets() {
        let cfg = chain(6);
        let sigma = secretive_complete_schedule(&cfg);
        for i in 0..=6u64 {
            let mut keep: ProcMask = movers(reg(i), &sigma, &cfg).into_iter().collect();
            // Any superset works too.
            keep.insert(p(0));
            keep.insert(p(5));
            assert!(restriction_preserves_source(reg(i), &sigma, &cfg, &keep));
        }
    }

    #[test]
    fn display_is_informative() {
        let cfg = chain(1);
        assert_eq!(cfg.to_string(), "{p0: move(R0, R1)}");
    }

    #[test]
    #[should_panic(expected = "not in the move config")]
    fn source_panics_on_unknown_process() {
        let cfg = chain(1);
        source(reg(0), &[p(9)], &cfg);
    }

    /// Deterministic pseudo-random configurations: every process picks a
    /// source and destination among `regs` registers.
    fn random_cfg(n: usize, regs: u64, seed: u64) -> MoveConfig {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        MoveConfig::from_iter((0..n).map(|i| {
            let src = reg(next() % regs);
            // Distinct destination: self-moves are outside the model.
            let dst = reg((src.0 + 1 + next() % (regs - 1)) % regs);
            (p(i), src, dst)
        }))
    }

    #[test]
    fn lemma_4_1_on_many_random_configs() {
        for seed in 0..50 {
            for (n, regs) in [(5, 3), (16, 4), (16, 40), (40, 8)] {
                let cfg = random_cfg(n, regs, seed * 31 + n as u64);
                let sigma = secretive_complete_schedule(&cfg);
                assert!(
                    is_secretive(&sigma, &cfg),
                    "seed={seed} n={n} regs={regs} cfg={cfg}"
                );
            }
        }
    }

    #[test]
    fn lemma_4_2_on_many_random_configs() {
        for seed in 0..20 {
            let cfg = random_cfg(12, 5, seed);
            let sigma = secretive_complete_schedule(&cfg);
            for r in cfg.destinations() {
                let keep: ProcMask = movers(r, &sigma, &cfg).into_iter().collect();
                assert!(
                    restriction_preserves_source(r, &sigma, &cfg, &keep),
                    "seed={seed} register={r} cfg={cfg}"
                );
            }
        }
    }

    #[test]
    fn flow_report_agrees_with_per_register_queries() {
        let mut rng = XorShift64::new(0x5EC2_E71E);
        for case in 0..240 {
            let n = 1 + rng.index(24);
            let cfg = match case % 4 {
                0 => chain(n),
                // Fan-in: fresh sources moved into a few shared sinks.
                1 => {
                    let sinks = 1 + rng.below(3);
                    MoveConfig::from_iter(
                        (0..n).map(|i| (p(i), reg(sinks + i as u64), reg(rng.below(sinks)))),
                    )
                }
                // A chain whose last register also receives a fan-in.
                2 => {
                    let len = n.div_ceil(2) as u64;
                    MoveConfig::from_iter((0..n).map(|i| {
                        let k = i as u64;
                        let (src, dst) = if k < len {
                            (k, k + 1)
                        } else {
                            (len + 1 + k, len)
                        };
                        (p(i), reg(src), reg(dst))
                    }))
                }
                _ => random_move_config(n, 2 + rng.below(10), rng.next_u64()),
            };
            let sigma = secretive_complete_schedule(&cfg);
            let flows = flow_report(&sigma, &cfg);
            // A complete schedule lands a move in every destination and
            // nowhere else.
            assert!(
                flows.keys().copied().eq(cfg.destinations()),
                "case {case}: {cfg}"
            );
            // Every register the configuration names, plus untouched ones.
            for r in (0..2 * n as u64 + 8).map(reg) {
                let (src, mvs) = flows.get(&r).cloned().unwrap_or((r, Vec::new()));
                assert_eq!(src, source(r, &sigma, &cfg), "case {case} {r}: {cfg}");
                assert_eq!(mvs, movers(r, &sigma, &cfg), "case {case} {r}: {cfg}");
            }
        }
    }
}
