//! Gray-code incremental subset enumeration: `(S, A)`-runs built by
//! resuming a checkpoint instead of replaying from scratch.
//!
//! The exhaustive subset sweeps ([`crate::indist_all_subsets`]) build one
//! `(S, A)`-run per mask `S ⊆ {p_0, …, p_{n-1}}`. Because `S_1 = S`
//! always (`UP(p, 0) = {p}`), two masks diverge already in round 1 — but
//! only *after* the first event of a process on which they differ.
//! Walking the masks in a **Gray-code order**, where successive trials
//! flip exactly one process `p_b`, lets a worker checkpoint the executor
//! just before `p_b`'s first round-1 operation and rebuild the next trial
//! from that checkpoint, re-executing only the divergent tail.
//!
//! Three facts make the checkpoints cheap and the resumes sound:
//!
//! 1. **Round-1 behaviour is mask-independent.** Every participant of
//!    round 1 starts from its initial program state and consumes the same
//!    toss-assignment prefix, so its Phase-1 tosses, whether it terminates
//!    in Phase 1, and its first pending operation are the same in every
//!    trial — and equal to the `(All, A)`-run's round 1. The whole round-1
//!    *plan* (groups, move configuration, `σ`-restriction) is therefore a
//!    pure function of `(All-run round 1, mask)`; a checkpoint needs no
//!    bookkeeping, only executor state ([`ExecSnapshot`]).
//! 2. **Bit-reversed reflected Gray code puts the cheap flips first.**
//!    Position `w` maps to mask `bitrev_n(w ^ (w >> 1))`, so the
//!    highest-id process flips every second trial. Rounds execute in id
//!    order, so flipping `p_{n-1}` preserves the longest shared prefix.
//! 3. **A ruler-sequence capture schedule.** The flip into position `w`
//!    concerns bit `b = n - 1 - tz(w)`; that bit next flips `2^(n-1-b)`
//!    positions later. Capturing bit `b`'s checkpoint at every position
//!    `w ≡ 0 (mod 2^(n-b))` therefore provides each flip with a
//!    checkpoint captured inside the current segment — amortised one
//!    capture per trial, at most `n` checkpoints alive.
//!
//! A checkpoint for bit `b` is cut **inside the round-1 LL/validate
//! group**, after the members with id `< b` — by then every participant
//! has finished Phase 1, so the checkpoint also contains the Phase-1
//! events of *eventful* processes (those that toss or terminate in
//! Phase 1) with id `≥ b`. A resume is valid only if the new mask agrees
//! with the checkpoint below `b` exactly and on the eventful processes at
//! or above `b`; otherwise the trial silently falls back to a from-scratch
//! build. For the deterministic (`ZeroTosses`) experiment configurations
//! the eventful set is empty and every flip resumes incrementally.
//!
//! [`ExecSnapshot`]: llsc_shmem::ExecSnapshot

use crate::all_run::{AdversaryConfig, AllRun, RoundedRun};
use crate::rounds::{execute_round_with, MoveOrder, OpSummary, RoundGroups, RoundRecord};
use crate::s_run::{build_s_run_with, SRun};
use crate::secretive::{self, MoveConfig};
use crate::upsets::ProcSet;
use crate::vecmap::VecMap;
use llsc_shmem::{Algorithm, ExecSnapshot, Executor, OpKind, ProcessId, RegisterId, RunError};
use std::sync::Arc;

/// The subset mask visited at Gray position `pos` of an `n`-process
/// enumeration: the bit-reversed reflected Gray code
/// `bitrev_n(pos ^ (pos >> 1))`.
///
/// A bijection from `0..2^n` onto `0..2^n` with `gray_mask(n, 0) == 0`;
/// consecutive positions differ in exactly one bit
/// ([`gray_flip_bit`]), and the *highest* bit flips most often.
///
/// # Panics
///
/// Panics if `pos >= 2^n` (debug builds).
pub fn gray_mask(n: usize, pos: usize) -> usize {
    debug_assert!(n == usize::BITS as usize || pos < 1usize << n);
    let g = pos ^ (pos >> 1);
    let mut mask = 0usize;
    for i in 0..n {
        if g & (1 << i) != 0 {
            mask |= 1 << (n - 1 - i);
        }
    }
    mask
}

/// The single bit in which `gray_mask(n, pos)` differs from
/// `gray_mask(n, pos - 1)`.
///
/// # Panics
///
/// Panics if `pos` is 0 (position 0 has no predecessor) or `pos >= 2^n`.
pub fn gray_flip_bit(n: usize, pos: usize) -> usize {
    assert!(pos > 0 && (n == usize::BITS as usize || pos < 1usize << n));
    n - 1 - pos.trailing_zeros() as usize
}

/// The bits whose checkpoint is (re)captured while executing the trial at
/// `pos`: bit `b` at every `pos ≡ 0 (mod 2^(n-b))`. Position 0 captures
/// every bit; odd positions capture none.
fn capture_bits(n: usize, pos: usize) -> std::ops::Range<usize> {
    if pos == 0 {
        0..n
    } else {
        (n - (pos.trailing_zeros() as usize).min(n))..n
    }
}

/// What the `(All, A)`-run's round 1 predetermines about *every* trial's
/// round 1 (see the module docs, fact 1): per process its Phase-1 toss
/// count, whether it terminates in Phase 1, and its first pending
/// operation; plus the unrestricted schedule `σ_1`.
#[derive(Clone, Debug)]
struct Round1Profile {
    steps: Vec<FirstStep>,
    /// Processes with recorded round-1 Phase-1 events (tosses or a
    /// termination): the ones whose participation is baked into a
    /// checkpoint's event prefix.
    eventful_mask: usize,
    sigma1: Vec<ProcessId>,
}

#[derive(Clone, Copy, Debug, Default)]
struct FirstStep {
    tosses: u64,
    terminates: bool,
    /// `(kind, target)` of the first shared operation; `None` iff the
    /// process terminates in Phase 1.
    op: Option<(OpKind, RegisterId)>,
    /// For a `move`: its source register.
    move_src: Option<RegisterId>,
}

impl Round1Profile {
    fn from_all(all: &AllRun) -> Round1Profile {
        let n = all.n();
        let mut steps = vec![FirstStep::default(); n];
        let mut eventful_mask = 0usize;
        let r1 = &all.base.rounds[0];
        for (&p, &t) in r1.phase1_tosses.iter() {
            steps[p.0].tosses = t;
        }
        for &p in &r1.terminated_in_phase1 {
            steps[p.0].terminates = true;
        }
        for op in &r1.ops {
            steps[op.p.0].op = Some((op.kind, op.register));
        }
        for p in r1.move_config.processes() {
            let (src, _) = r1.move_config.get(p).expect("p iterated from the config");
            steps[p.0].move_src = Some(src);
        }
        for (i, st) in steps.iter().enumerate() {
            if st.tosses > 0 || st.terminates {
                eventful_mask |= 1 << i;
            }
        }
        Round1Profile {
            steps,
            eventful_mask,
            sigma1: r1.sigma.clone(),
        }
    }
}

/// One live checkpoint: executor state cut just before `p_cut_bit`'s
/// first round-1 operation, plus the mask slice it was captured under
/// (for the validity check at use).
#[derive(Clone, Debug)]
struct Snap {
    exec: Arc<ExecSnapshot>,
    cut_bit: usize,
    /// Plan index of the cut: the number of LL/validate-group members
    /// with id `< cut_bit` (recomputable at use; stored for the
    /// cross-check).
    cut: usize,
    /// Capture mask restricted to bits `< cut_bit`.
    mask_below: usize,
    /// Capture mask restricted to eventful bits `>= cut_bit`.
    mask_ge_eventful: usize,
}

/// The result of one Gray-position trial: the `(S, A)`-run (identical to
/// [`build_s_run_with`]'s output for the same mask) plus the replay
/// accounting.
#[derive(Clone, Debug)]
pub struct GrayTrial {
    /// The `(S, A)`-run of this position's mask.
    pub srun: SRun,
    /// Events restored from a checkpoint instead of being re-executed
    /// (0 when the trial fell back to a from-scratch build).
    pub replayed_events: u64,
}

impl GrayTrial {
    /// Events this trial actually executed (its run's total minus the
    /// checkpoint-restored prefix).
    pub fn executed_events(&self) -> u64 {
        self.srun.base.run.event_count() - self.replayed_events
    }
}

/// Per-worker scratch state of a Gray-code subset sweep: the round-1
/// profile, the live checkpoints (one per bit), and the continuity
/// cursor.
///
/// Feed it strictly consecutive positions and every trial at `pos >= 1`
/// resumes from a checkpoint (when valid — see the module docs); a jump
/// in the position sequence (a sweep block boundary, a resumed job chunk)
/// simply drops the checkpoints and rebuilds from scratch. The produced
/// runs are **byte-identical** to [`build_s_run_with`]'s in either case.
#[derive(Debug, Default)]
pub struct GraySubsetBuilder {
    profile: Option<Round1Profile>,
    snaps: Vec<Option<Snap>>,
    next_pos: Option<usize>,
}

impl GraySubsetBuilder {
    /// A fresh builder with no checkpoints.
    pub fn new() -> GraySubsetBuilder {
        GraySubsetBuilder::default()
    }

    /// Builds the `(S, A)`-run for the mask at Gray position `pos`
    /// ([`gray_mask`]) against `all`, resuming from a checkpoint when one
    /// is valid and capturing the checkpoints future positions need.
    ///
    /// `exec` is the worker's reusable executor (same contract as
    /// [`build_s_run_with`]); `alg`, `all`, and `cfg` must be the ones
    /// the surrounding sweep was configured with.
    ///
    /// # Errors
    ///
    /// Propagates the first [`RunError`] the executor reports.
    ///
    /// # Panics
    ///
    /// Panics if `all.n() > 16` (positions would overflow the mask
    /// space) or `pos >= 2^n`.
    pub fn build_trial(
        &mut self,
        exec: &mut Executor,
        alg: &dyn Algorithm,
        all: &AllRun,
        cfg: &AdversaryConfig,
        pos: usize,
    ) -> Result<GrayTrial, RunError> {
        let n = all.n();
        assert!(n <= 16 && (n == usize::BITS as usize || pos < 1usize << n));
        self.snaps.resize_with(n, || None);
        let continuous = self.next_pos == Some(pos);
        self.next_pos = Some(pos + 1);
        if !continuous {
            self.snaps.iter_mut().for_each(|s| *s = None);
        }
        // Checkpoints require recorded histories (the restore replays
        // them) and at least one All-run round to profile; otherwise run
        // every trial from scratch.
        let incremental = cfg.executor.record_details && all.base.num_rounds() > 0;

        let mask = gray_mask(n, pos);
        let s: ProcSet = (0..n)
            .filter(|i| mask & (1 << i) != 0)
            .map(ProcessId)
            .collect();

        if mask == 0 || !incremental {
            if incremental {
                // Position 0: the initial configuration *is* the
                // checkpoint every bit starts from (cut 0 — no
                // participant has acted).
                exec.reset(alg);
                let snap = Arc::new(exec.capture());
                for b in capture_bits(n, pos) {
                    self.snaps[b] = Some(Snap {
                        exec: Arc::clone(&snap),
                        cut_bit: b,
                        cut: 0,
                        mask_below: 0,
                        mask_ge_eventful: 0,
                    });
                }
            }
            let srun = build_s_run_with(exec, alg, &s, all, cfg)?;
            return Ok(GrayTrial {
                srun,
                replayed_events: 0,
            });
        }

        let profile = self
            .profile
            .get_or_insert_with(|| Round1Profile::from_all(all));

        // Round 1, resumed/checkpointed; rounds >= 2 exactly as in
        // `build_s_run_with`.
        let participants: Vec<ProcessId> = s.iter().collect();
        let (round1, replayed_events) = round_one_incremental(
            exec,
            alg,
            profile,
            &mut self.snaps,
            mask,
            pos,
            &participants,
            cfg,
        )?;

        let mut rounds = vec![round1];
        let mut participants_per_round = vec![participants];
        for r in 2..=all.base.num_rounds() {
            let s_r: Vec<ProcessId> = ProcessId::all(n)
                .filter(|&p| all.up.proc(p, r - 1).is_subset(&s))
                .collect();
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
        let srun = SRun {
            base: RoundedRun {
                n,
                rounds,
                run: exec.take_run(),
                initial_memory: Arc::clone(&all.base.initial_memory),
                completed,
                outcome,
            },
            s,
            participants_per_round,
        };
        Ok(GrayTrial {
            srun,
            replayed_events,
        })
    }
}

/// Executes round 1 for `mask`'s participants, resuming from the flip
/// bit's checkpoint when valid and capturing this position's due
/// checkpoints at their cut points. Returns the round record (identical
/// to [`execute_round_with`]'s) and the number of replayed events.
#[allow(clippy::too_many_arguments)]
fn round_one_incremental(
    exec: &mut Executor,
    alg: &dyn Algorithm,
    profile: &Round1Profile,
    snaps: &mut [Option<Snap>],
    mask: usize,
    pos: usize,
    participants: &[ProcessId],
    cfg: &AdversaryConfig,
) -> Result<(RoundRecord, u64), RunError> {
    let n = exec.n();

    // The round-1 plan, recomputed from the profile (fact 1 of the
    // module docs: it is mask-independent per process).
    let mut phase1_tosses = VecMap::with_capacity(participants.len());
    let mut terminated_in_phase1 = Vec::new();
    let mut groups = RoundGroups::default();
    let mut move_config = MoveConfig::new();
    for &p in participants {
        let st = &profile.steps[p.0];
        phase1_tosses.insert(p, st.tosses);
        if st.terminates {
            terminated_in_phase1.push(p);
            continue;
        }
        let (kind, reg) = st.op.expect("a non-terminating participant has a first op");
        groups.push(p, kind);
        if kind == OpKind::Move {
            let src = st.move_src.expect("movers carry their source register");
            move_config.insert(p, src, reg);
        }
    }
    let keep: llsc_shmem::ProcMask = groups.g2_move.iter().copied().collect();
    let sigma = secretive::restrict(&profile.sigma1, &keep);
    // Plan index of bit `b`'s cut: the LL/validate-group members below `b`.
    let cut_of: Vec<usize> = (0..n)
        .map(|bit| groups.g1_ll_validate.iter().filter(|p| p.0 < bit).count())
        .collect();
    let mut rec = RoundRecord::planned(
        1,
        participants.to_vec(),
        phase1_tosses,
        terminated_in_phase1,
        groups,
        move_config,
        sigma,
    );
    let plan = rec.schedule();

    // Resume from the flip bit's checkpoint, if it is valid for this
    // mask; otherwise run Phase 1 from scratch.
    let mut start_idx = 0usize;
    let mut replayed_events = 0u64;
    let mut resumed = false;
    if pos > 0 {
        let flip = gray_flip_bit(n, pos);
        let low = (1usize << flip) - 1;
        if let Some(snap) = &snaps[flip] {
            if snap.cut_bit == flip
                && snap.mask_below == mask & low
                && snap.mask_ge_eventful == mask & profile.eventful_mask & !low
            {
                let cut = cut_of[flip];
                debug_assert_eq!(cut, snap.cut, "cut position drifted for bit {flip}");
                exec.restore_from(alg, &snap.exec, participants);
                start_idx = cut;
                replayed_events = snap.exec.event_count();
                resumed = true;
            }
        }
    }
    if !resumed {
        exec.reset(alg);
        for &p in participants {
            if !exec.is_runnable(p) {
                continue;
            }
            let tosses = exec.advance_local(p)?;
            debug_assert_eq!(
                tosses, profile.steps[p.0].tosses,
                "{p}: round-1 Phase 1 diverged from the (All, A)-run profile"
            );
            debug_assert_eq!(exec.is_terminated(p), profile.steps[p.0].terminates, "{p}");
        }
    }

    // This position's due captures, ordered by cut point. All cuts lie at
    // or after the resume point: captured bits exceed the flip bit, and
    // `cut_of` is monotone in the bit.
    let mut captures: Vec<(usize, usize)> = capture_bits(n, pos).map(|b| (b, cut_of[b])).collect();
    captures.sort_by_key(|&(_, cut)| cut);
    debug_assert!(captures.first().is_none_or(|&(_, cut)| cut >= start_idx));
    let mut cap_iter = captures.into_iter().peekable();

    // Phases 2-5, from the cut. The skipped prefix is synthesised from
    // the profile: all LL/validate ops, which carry no `sc_ok` and touch
    // none of the per-register tallies.
    for &p in &plan[..start_idx] {
        let (kind, register) = profile.steps[p.0].op.expect("prefix members have ops");
        debug_assert!(matches!(kind, OpKind::Ll | OpKind::Validate));
        rec.ops.push(OpSummary {
            p,
            kind,
            register,
            sc_ok: None,
        });
    }
    for i in start_idx..=plan.len() {
        let mut at_cut: Option<Arc<ExecSnapshot>> = None;
        while cap_iter.peek().is_some_and(|&(_, cut)| cut == i) {
            let (b, cut) = cap_iter.next().expect("peeked");
            let snap = at_cut
                .get_or_insert_with(|| Arc::new(exec.capture()))
                .clone();
            snaps[b] = Some(Snap {
                exec: snap,
                cut_bit: b,
                cut,
                mask_below: mask & ((1usize << b) - 1),
                mask_ge_eventful: mask & profile.eventful_mask & !((1usize << b) - 1),
            });
        }
        let Some(&p) = plan.get(i) else { break };
        rec.perform(exec, p)?;
    }
    rec.close(exec, cfg.record_snapshots);
    Ok((rec, replayed_events))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::all_run::build_all_run;
    use crate::s_run::build_s_run;
    use llsc_shmem::dsl::{done, ll, mv, sc, swap, toss, validate};
    use llsc_shmem::{
        ExecutorConfig, FnAlgorithm, SeededTosses, TossAssignment, Value, ZeroTosses,
    };

    #[test]
    fn gray_masks_are_a_bijection_flipping_one_bit() {
        for n in 0..=6usize {
            let total = 1usize << n;
            let mut seen = vec![false; total];
            let mut prev = None;
            for pos in 0..total {
                let m = gray_mask(n, pos);
                assert!(!seen[m], "n={n} pos={pos} repeats mask {m}");
                seen[m] = true;
                if let Some(pm) = prev {
                    let diff: usize = m ^ pm;
                    assert_eq!(diff.count_ones(), 1, "n={n} pos={pos}");
                    assert_eq!(diff, 1 << gray_flip_bit(n, pos), "n={n} pos={pos}");
                }
                prev = Some(m);
            }
            assert_eq!(gray_mask(n, 0), 0);
        }
    }

    #[test]
    fn highest_bit_flips_every_other_position() {
        let n = 5;
        for pos in (1..1usize << n).step_by(2) {
            assert_eq!(gray_flip_bit(n, pos), n - 1);
        }
    }

    #[test]
    fn capture_schedule_provides_every_flip_in_segment() {
        // The checkpoint used by the flip at position w must have been
        // captured at the latest prior capture point of that bit, with no
        // other flip of the bit in between.
        let n = 6;
        for use_pos in 1..1usize << n {
            let b = gray_flip_bit(n, use_pos);
            let stride = 1usize << (n - b);
            let cap_pos = use_pos - stride / 2;
            assert!(
                capture_bits(n, cap_pos).contains(&b),
                "flip of bit {b} at {use_pos} lacks a capture at {cap_pos}"
            );
        }
    }

    /// A zoo of round-1 shapes: LL/SC contention, movers, swappers,
    /// validates, instant terminators.
    fn mixed_alg() -> impl Algorithm {
        FnAlgorithm::new("gray-mixed", |pid: ProcessId, _n| {
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

    /// A randomized algorithm: tosses decide the register and whether to
    /// retry, so Phase 1 is eventful for every process.
    fn tossing_alg() -> impl Algorithm {
        FnAlgorithm::new("gray-toss", |pid: ProcessId, _n| {
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

    fn assert_trials_match(
        alg: &dyn Algorithm,
        n: usize,
        toss_assignment: Arc<dyn TossAssignment>,
        cfg: &AdversaryConfig,
    ) {
        let all = build_all_run(alg, n, toss_assignment.clone(), cfg).unwrap();
        let mut exec = Executor::new(alg, n, toss_assignment.clone(), cfg.executor);
        let mut builder = GraySubsetBuilder::new();
        for pos in 0..1usize << n {
            let mask = gray_mask(n, pos);
            let s: ProcSet = (0..n)
                .filter(|i| mask & (1 << i) != 0)
                .map(ProcessId)
                .collect();
            let fresh = build_s_run(alg, n, toss_assignment.clone(), &s, &all, cfg).unwrap();
            let gray = builder.build_trial(&mut exec, alg, &all, cfg, pos).unwrap();
            assert_eq!(gray.srun.s, s, "pos={pos}");
            // Event-for-event identity.
            assert_eq!(
                fresh.base.run.events(),
                gray.srun.base.run.events(),
                "pos={pos} mask={mask:#b}"
            );
            for p in ProcessId::all(n) {
                assert_eq!(
                    fresh.base.run.history(p),
                    gray.srun.base.run.history(p),
                    "pos={pos} {p}"
                );
            }
            assert_eq!(
                fresh.participants_per_round, gray.srun.participants_per_round,
                "pos={pos}"
            );
            assert_eq!(fresh.base.rounds.len(), gray.srun.base.rounds.len());
            for (a, b) in fresh.base.rounds.iter().zip(&gray.srun.base.rounds) {
                assert_eq!(a.participants, b.participants, "pos={pos} r={}", a.round);
                assert_eq!(a.phase1_tosses, b.phase1_tosses, "pos={pos} r={}", a.round);
                assert_eq!(
                    a.terminated_in_phase1, b.terminated_in_phase1,
                    "pos={pos} r={}",
                    a.round
                );
                assert_eq!(a.groups, b.groups, "pos={pos} r={}", a.round);
                assert_eq!(a.move_config, b.move_config, "pos={pos} r={}", a.round);
                assert_eq!(a.sigma, b.sigma, "pos={pos} r={}", a.round);
                assert_eq!(a.ops, b.ops, "pos={pos} r={}", a.round);
                assert_eq!(a.successful_sc, b.successful_sc, "pos={pos}");
                assert_eq!(a.swaps, b.swaps, "pos={pos}");
                assert_eq!(a.moves_into, b.moves_into, "pos={pos}");
                assert_eq!(a.end_registers, b.end_registers, "pos={pos} r={}", a.round);
                assert_eq!(a.end_tosses, b.end_tosses, "pos={pos} r={}", a.round);
                assert_eq!(a.end_history_len, b.end_history_len, "pos={pos}");
                assert_eq!(a.end_shared_steps, b.end_shared_steps, "pos={pos}");
            }
            assert_eq!(fresh.base.completed, gray.srun.base.completed, "pos={pos}");
            assert_eq!(fresh.base.outcome, gray.srun.base.outcome, "pos={pos}");
            assert_eq!(
                gray.replayed_events + gray.executed_events(),
                gray.srun.base.run.event_count()
            );
        }
    }

    #[test]
    fn incremental_trials_match_from_scratch_llsc() {
        let alg = FnAlgorithm::new("llsc", |pid: ProcessId, _n| {
            ll(RegisterId(0), move |_| {
                sc(RegisterId(0), Value::from(pid.0 as i64), |ok, _| {
                    done(Value::from(ok))
                })
            })
            .into_program()
        });
        assert_trials_match(&alg, 5, Arc::new(ZeroTosses), &AdversaryConfig::default());
    }

    #[test]
    fn incremental_trials_match_from_scratch_mixed() {
        let alg = mixed_alg();
        assert_trials_match(&alg, 6, Arc::new(ZeroTosses), &AdversaryConfig::default());
    }

    #[test]
    fn incremental_trials_match_from_scratch_randomized() {
        // Eventful Phase 1 everywhere: most flips fail the validity check
        // and fall back to scratch, which must be just as identical.
        let alg = tossing_alg();
        for seed in [7u64, 99, 12345] {
            assert_trials_match(
                &alg,
                5,
                Arc::new(SeededTosses::new(seed)),
                &AdversaryConfig::default(),
            );
        }
    }

    #[test]
    fn incremental_trials_match_under_varied_configs() {
        let alg = mixed_alg();
        // No register snapshots.
        let cfg = AdversaryConfig {
            record_snapshots: false,
            ..AdversaryConfig::default()
        };
        assert_trials_match(&alg, 5, Arc::new(ZeroTosses), &cfg);
        // No detail recording: the incremental path must disable itself.
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
    fn noncontiguous_positions_fall_back_but_stay_correct() {
        let alg = mixed_alg();
        let n = 6;
        let cfg = AdversaryConfig::default();
        let all = build_all_run(&alg, n, Arc::new(ZeroTosses), &cfg).unwrap();
        let mut exec = Executor::new(&alg, n, Arc::new(ZeroTosses), cfg.executor);
        let mut builder = GraySubsetBuilder::new();
        // A scrambled visit order: every trial must still match scratch.
        for pos in [5usize, 6, 7, 0, 1, 2, 63, 62, 31, 32, 33, 34] {
            let mask = gray_mask(n, pos);
            let s: ProcSet = (0..n)
                .filter(|i| mask & (1 << i) != 0)
                .map(ProcessId)
                .collect();
            let fresh = build_s_run(&alg, n, Arc::new(ZeroTosses), &s, &all, &cfg).unwrap();
            let gray = builder
                .build_trial(&mut exec, &alg, &all, &cfg, pos)
                .unwrap();
            assert_eq!(
                fresh.base.run.events(),
                gray.srun.base.run.events(),
                "pos={pos}"
            );
        }
    }

    #[test]
    fn deterministic_algorithms_replay_events() {
        // With ZeroTosses nothing is eventful, so every position >= 1
        // must resume incrementally and replay a nonzero prefix whenever
        // the flip bit's cut is past the start of the plan.
        let alg = mixed_alg();
        let n = 6;
        let cfg = AdversaryConfig::default();
        let all = build_all_run(&alg, n, Arc::new(ZeroTosses), &cfg).unwrap();
        let mut exec = Executor::new(&alg, n, Arc::new(ZeroTosses), cfg.executor);
        let mut builder = GraySubsetBuilder::new();
        let mut replayed = 0u64;
        for pos in 0..1usize << n {
            replayed += builder
                .build_trial(&mut exec, &alg, &all, &cfg, pos)
                .unwrap()
                .replayed_events;
        }
        assert!(replayed > 0, "a contiguous sweep must reuse checkpoints");
    }
}
