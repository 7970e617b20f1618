//! Fault-hardened wakeup algorithms: retry/backoff against the memory-fault
//! adversary.
//!
//! Under the seeded [`FaultPlan`](llsc_shmem::FaultPlan) adversary, two
//! things can go wrong that the paper's strong LL/SC model rules out:
//!
//! * a **spurious SC failure** — the weak-LL/SC semantics of real hardware:
//!   an SC whose reservation was intact nevertheless fails;
//! * **transient register corruption** — a register's value is silently
//!   replaced between two accesses.
//!
//! The algorithms here are hardened twins of
//! [`CounterWakeup`](crate::CounterWakeup),
//! [`RandomizedCounterWakeup`](crate::RandomizedCounterWakeup) and
//! [`TournamentWakeup`](crate::TournamentWakeup) built around two ideas, both **zero-cost when no fault fires** — the
//! acceptance bar for this layer is that at fault rate 0 they perform
//! *exactly* the same shared-access sequence as their unhardened twins:
//!
//! 1. **Free detection.** Every datum an SC or swap already returns is
//!    cross-checked against what a fault-free run could produce. For the
//!    counter, a failed `SC(COUNTER, basis + 1)` in a fault-free run always
//!    observes a current value `c` with `basis < c ≤ n` (every successful
//!    SC after our LL installs a strictly larger count, and the counter
//!    never exceeds `n`); observing `c == basis` is the signature of a
//!    spurious failure, and anything else is corruption. For the
//!    tournament, every parked bitset is sealed with its
//!    [`Value::fingerprint`] checksum, so a corrupted meeting point is
//!    recognised on receipt.
//! 2. **Bounded backoff on detection.** A detected fault triggers up to
//!    `BACKOFF_CAP` scratch-register reads before the retry — enough to
//!    space out retries under a fault burst, cheap enough to keep the
//!    degradation curves of experiment E16 interpretable.
//!
//! Detections are reported out-of-band: a process that detected at least
//! one fault swaps its count into its telemetry register just before
//! returning. A fault-free run never touches the telemetry registers,
//! preserving the zero-cost property; the E16 harness reads them to split
//! wrong answers into *detected* and *silent*. Sealing, backoff and
//! telemetry are the shared kit of [`llsc_universal::hardening`], the
//! same the hardened universal constructions use.

use crate::counter_alg::COUNTER;
use crate::randomized::SCRATCH_BASE;
use crate::tournament::{is_full, node_reg, or_bits, own_bits, DONE_REG};
use llsc_shmem::dsl::{done, ll, sc, swap, toss, Step};
use llsc_shmem::{Algorithm, ProcessId, Program, RegisterId, Value};
use llsc_universal::hardening::{backoff, publish, seal, unseal};
use llsc_universal::tree::{leaf_slots, subtree_nonempty};

/// Terminates with `verdict`, publishing the detection count first iff any
/// fault was detected (so fault-free runs terminate exactly like the
/// unhardened twins).
fn finish(pid: ProcessId, verdict: i64, detections: u64) -> Step {
    publish(pid, detections, move || done(Value::from(verdict)))
}

/// The hardened counter attempt loop shared by the deterministic and
/// randomized variants.
fn counter_attempt(pid: ProcessId, n: usize, detections: u64) -> Step {
    ll(COUNTER, move |prev| {
        // Validate the basis: a fault-free counter is ⊥ or in 0..n.
        let (basis, detections) = match prev.as_int() {
            Some(v) if (0..n as i128).contains(&v) => (v, detections),
            Some(v) => (v.clamp(0, n as i128 - 1), detections + 1),
            None if prev.is_unit() => (0, detections),
            None => (0, detections + 1),
        };
        sc(COUNTER, Value::from(basis + 1), move |ok, cur| {
            if ok {
                finish(pid, i64::from(basis + 1 == n as i128), detections)
            } else {
                // Diagnose the failure from the value the SC already
                // returned (free): a legitimate loss observes
                // basis < cur ≤ n; cur == basis is a spurious failure,
                // anything else is corruption.
                let legit = cur.as_int().is_some_and(|c| basis < c && c <= n as i128);
                if legit {
                    counter_attempt(pid, n, detections)
                } else {
                    let d = detections + 1;
                    backoff(pid, d, move || counter_attempt(pid, n, d))
                }
            }
        })
    })
}

/// Hardened [`CounterWakeup`](crate::CounterWakeup): the one-shot LL/SC
/// increment with spurious-failure/corruption diagnosis on every failed SC
/// and bounded backoff on detection. Identical shared-access sequence to
/// the unhardened counter when no fault fires.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HardenedCounterWakeup;

impl Algorithm for HardenedCounterWakeup {
    fn name(&self) -> &'static str {
        "hardened-counter-wakeup"
    }

    fn spawn(&self, pid: ProcessId, n: usize) -> Box<dyn Program> {
        counter_attempt(pid, n, 0).into_program()
    }
}

/// Hardened [`RandomizedCounterWakeup`](crate::RandomizedCounterWakeup):
/// the same coin-tossed scratch warm-up followed by the hardened counter
/// loop.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HardenedRandomizedCounterWakeup;

impl Algorithm for HardenedRandomizedCounterWakeup {
    fn name(&self) -> &'static str {
        "hardened-randomized-counter-wakeup"
    }

    fn spawn(&self, pid: ProcessId, n: usize) -> Box<dyn Program> {
        toss(move |c| {
            let scratch = RegisterId(SCRATCH_BASE + c % 4);
            ll(scratch, move |_| counter_attempt(pid, n, 0))
        })
        .into_program()
    }
}

/// Validates and unwraps a sealed bitset; `None` means the parked value
/// does not checksum — it was corrupted.
fn unpark(v: &Value) -> Option<Vec<u64>> {
    Some(unseal(v)?.as_bits()?.to_vec())
}

fn hardened_climb(pid: ProcessId, n: usize, child: u64, bits: Vec<u64>, detections: u64) -> Step {
    if child == 1 {
        // Survived every meeting. In a fault-free run the bitset covers
        // everyone; an incomplete bitset here means some meeting's payload
        // was lost to corruption — report 0 (degraded-safe) and flag it.
        let complete = is_full(&bits, n);
        let detections = if complete {
            detections
        } else {
            detections.max(1)
        };
        let verdict = i64::from(complete);
        return swap(DONE_REG, seal(Value::bits(bits)), move |_| {
            finish(pid, verdict, detections)
        });
    }
    let v = child / 2;
    let sibling = child ^ 1;
    if !subtree_nonempty(sibling, n) {
        return hardened_climb(pid, n, v, bits, detections);
    }
    swap(
        node_reg(v),
        seal(Value::bits(bits.clone())),
        move |received| {
            if received.is_unit() {
                // First at the meeting point: lose, leave the sealed bits
                // parked for the sibling leader.
                finish(pid, 0, detections)
            } else {
                match unpark(&received) {
                    Some(parked) => hardened_climb(pid, n, v, or_bits(&bits, &parked), detections),
                    None => {
                        // The parked payload was corrupted in place: the
                        // sibling group's bits are unrecoverable. Back off and
                        // climb with our own bits only — an incomplete final
                        // bitset yields verdict 0, never a false win.
                        let d = detections + 1;
                        backoff(pid, d, move || hardened_climb(pid, n, v, bits, d))
                    }
                }
            }
        },
    )
}

/// Hardened [`TournamentWakeup`](crate::TournamentWakeup): every parked
/// bitset is sealed with its [`Value::fingerprint`] checksum, a corrupted
/// meeting point is detected on receipt (never absorbed), and the final
/// leader only claims victory for a bitset that provably covers all `n`
/// processes. Identical shared-access sequence to the unhardened
/// tournament when no fault fires.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HardenedTournamentWakeup;

impl Algorithm for HardenedTournamentWakeup {
    fn name(&self) -> &'static str {
        "hardened-tournament-wakeup"
    }

    fn spawn(&self, pid: ProcessId, n: usize) -> Box<dyn Program> {
        let leaf = leaf_slots(n) + pid.0 as u64;
        hardened_climb(pid, n, leaf, own_bits(pid, n), 0).into_program()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llsc_core::{build_all_run, check_wakeup, AdversaryConfig};
    use llsc_shmem::{
        Executor, ExecutorConfig, FaultPlan, RandomScheduler, RoundRobinScheduler, RunOutcome,
        SeededTosses, SequentialScheduler, ZeroTosses,
    };
    use llsc_universal::hardening::{
        detect_reg, detections, BACKOFF_BASE, BACKOFF_CAP, DETECT_BASE,
    };
    use std::sync::Arc;

    fn drive_round_robin(alg: &dyn Algorithm, n: usize, plan: FaultPlan) -> Executor {
        let mut e = Executor::new(alg, n, Arc::new(ZeroTosses), ExecutorConfig::default());
        e.set_fault_plan(plan);
        e.drive(&mut RoundRobinScheduler::new(), 1_000_000).unwrap();
        e
    }

    #[test]
    fn hardened_algorithms_satisfy_wakeup_fault_free() {
        for alg in crate::hardened_algorithms() {
            for n in [1, 2, 3, 5, 8, 16] {
                let all = build_all_run(
                    alg.as_ref(),
                    n,
                    Arc::new(SeededTosses::new(7)),
                    &AdversaryConfig::default(),
                )
                .unwrap();
                assert!(all.base.completed, "{} n={n}", alg.name());
                let check = check_wakeup(&all.base.run);
                assert!(check.ok(), "{} n={n}: {check}", alg.name());
            }
        }
    }

    #[test]
    fn hardened_algorithms_satisfy_wakeup_under_random_schedules() {
        for alg in crate::hardened_algorithms() {
            for seed in 0..8 {
                let mut e = Executor::new(
                    alg.as_ref(),
                    6,
                    Arc::new(SeededTosses::new(seed)),
                    ExecutorConfig::default(),
                );
                e.drive(&mut RandomScheduler::new(seed), 1_000_000).unwrap();
                assert!(e.all_terminated(), "{} seed={seed}", alg.name());
                assert!(check_wakeup(e.run()).ok(), "{} seed={seed}", alg.name());
            }
        }
    }

    #[test]
    fn hardening_is_zero_cost_without_faults() {
        // At fault rate 0 each hardened twin performs exactly the same
        // shared-access counts as the unhardened original, per process.
        let pairs: Vec<(Box<dyn Algorithm>, Box<dyn Algorithm>)> = vec![
            (
                Box::new(crate::CounterWakeup),
                Box::new(HardenedCounterWakeup),
            ),
            (
                Box::new(crate::TournamentWakeup),
                Box::new(HardenedTournamentWakeup),
            ),
            (
                Box::new(crate::RandomizedCounterWakeup),
                Box::new(HardenedRandomizedCounterWakeup),
            ),
        ];
        for (plain, hard) in &pairs {
            for n in [1, 2, 3, 5, 8, 13] {
                for seed in [0u64, 5] {
                    let run = |alg: &dyn Algorithm| {
                        let mut e = Executor::new(
                            alg,
                            n,
                            Arc::new(SeededTosses::new(seed)),
                            ExecutorConfig::default(),
                        );
                        e.drive(&mut RoundRobinScheduler::new(), 1_000_000).unwrap();
                        assert!(e.all_terminated());
                        e
                    };
                    let a = run(plain.as_ref());
                    let b = run(hard.as_ref());
                    for p in ProcessId::all(n) {
                        assert_eq!(
                            a.run().shared_steps(p),
                            b.run().shared_steps(p),
                            "{} vs {} n={n} seed={seed} {p}",
                            plain.name(),
                            hard.name()
                        );
                        assert_eq!(a.verdict(p), b.verdict(p));
                    }
                    assert_eq!(
                        a.memory().stats().total(),
                        b.memory().stats().total(),
                        "{} n={n} seed={seed}",
                        hard.name()
                    );
                    // And the telemetry registers are never touched.
                    for p in ProcessId::all(n) {
                        assert!(b.memory().peek(detect_reg(p)).is_unit());
                    }
                }
            }
        }
    }

    #[test]
    fn fault_free_runs_stay_off_the_telemetry_registers_at_large_n() {
        // Telemetry must lie above every register an algorithm uses at
        // any n: the recoverable counter's slots reach R(2n), the
        // tournament's meeting points R(99 + leaf_slots(n)). Overlapping
        // either reads phantom detections or lets a detection swap
        // overwrite a parked bitset.
        let cases: [(&dyn Algorithm, usize); 2] = [
            (&crate::RecoverableCounterWakeup, 451),
            (&HardenedTournamentWakeup, 1024),
        ];
        for (alg, n) in cases {
            let mut e = Executor::new(alg, n, Arc::new(ZeroTosses), ExecutorConfig::default());
            e.drive(&mut SequentialScheduler, 1_000_000).unwrap();
            assert!(e.all_terminated(), "{} n={n}", alg.name());
            assert_eq!(
                detections(n, |r| e.memory().peek(r)),
                0,
                "{} n={n}",
                alg.name()
            );
            let top = e.memory().touched().max().unwrap();
            assert!(
                top.0 < BACKOFF_BASE.min(DETECT_BASE),
                "{} n={n}: {top:?}",
                alg.name()
            );
        }
    }

    #[test]
    fn counter_recovers_from_spurious_sc_and_reports_the_detection() {
        // Event 1 is p0's SC (event 0 its LL); suppressing it forces the
        // hardened diagnosis path: cur == basis ⇒ spurious ⇒ backoff+retry.
        let e = drive_round_robin(&HardenedCounterWakeup, 3, FaultPlan::at([1], [], 9));
        assert_eq!(
            e.run_outcome(),
            RunOutcome::FaultInjected {
                spurious_sc: 1,
                corruptions: 0
            }
        );
        assert!(check_wakeup(e.run()).ok(), "recovered to a correct answer");
        let detections = detections(3, |r| e.memory().peek(r));
        assert!(detections >= 1, "the victim published its detection");
    }

    #[test]
    fn spurious_failures_never_break_counter_correctness() {
        for seed in 0..10u64 {
            let e = drive_round_robin(&HardenedCounterWakeup, 5, FaultPlan::seeded(seed, 3, 0, 40));
            assert!(e.all_terminated(), "seed={seed}");
            assert!(check_wakeup(e.run()).ok(), "seed={seed}: value-preserving");
        }
    }

    #[test]
    fn tournament_detects_a_corrupted_meeting_point() {
        // n = 2 under round-robin: p0 parks its sealed bits at node 1
        // (event 0), then the corruption rewrites node 1 just before p1's
        // swap (event 1 observes it). p1 must reject the payload, report a
        // detection, and settle for verdict 0 — degraded, never wrong.
        let e = drive_round_robin(
            &HardenedTournamentWakeup,
            2,
            FaultPlan::at([], [(1, false)], 17),
        );
        assert!(e.all_terminated());
        assert_eq!(
            e.run_outcome(),
            RunOutcome::FaultInjected {
                spurious_sc: 0,
                corruptions: 1
            }
        );
        let detections = detections(2, |r| e.memory().peek(r));
        assert!(detections >= 1, "corruption was detected, not absorbed");
        // No process may claim a win it cannot prove.
        for p in ProcessId::all(2) {
            assert_ne!(
                e.verdict(p),
                Some(&Value::from(1i64)),
                "{p} must not claim victory over a corrupted bitset"
            );
        }
    }

    #[test]
    fn sealed_parks_round_trip_and_reject_tampering() {
        let sealed = seal(Value::bits(vec![0b1011, 7]));
        assert_eq!(unpark(&sealed), Some(vec![0b1011, 7]));
        // Tamper with the payload: checksum mismatch.
        let items = sealed.as_tuple().unwrap();
        let forged = Value::tuple([Value::bits(vec![0b1111, 7]), items[1].clone()]);
        assert_eq!(unpark(&forged), None);
        // Plain (unsealed) bits are rejected too.
        assert_eq!(unpark(&Value::bits(vec![1])), None);
        assert_eq!(unpark(&Value::from(3i64)), None);
        assert_eq!(unpark(&Value::Unit), None);
    }

    #[test]
    fn backoff_is_bounded_and_proportional() {
        // A fault burst cannot make the backoff unbounded: the scratch
        // reads per retry are capped at BACKOFF_CAP.
        for seed in 0..6u64 {
            let e = drive_round_robin(&HardenedCounterWakeup, 4, FaultPlan::seeded(seed, 8, 0, 64));
            assert!(e.all_terminated(), "seed={seed}");
            let spurious = e.fault_stats().spurious_sc;
            // Each spurious failure costs at most BACKOFF_CAP reads plus
            // one LL/SC retry beyond the fault-free baseline.
            let baseline = 4 * (2 * 4) as u64; // generous fault-free bound
            assert!(
                e.memory().stats().total() <= baseline + spurious * (BACKOFF_CAP + 2),
                "seed={seed}: retries stay bounded"
            );
        }
    }
}
