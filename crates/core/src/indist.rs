//! The Indistinguishability Lemma (Lemma 5.2), checked mechanically.
//!
//! Lemma 5.2 states: for every `S`, every process or register `X`, and
//! every round `r`, if `UP(X, r) ⊆ S` then the `(All, A)`-run and the
//! `(S, A)`-run are indistinguishable to `X` up to the end of round `r`:
//!
//! * for a process `p`: same automaton state and same `numtosses`. Our
//!   programs are deterministic given their observations, so "same state"
//!   is checked as "same interaction history" (every toss outcome and every
//!   operation response received, in order);
//! * for a register `R`: same value, and the same `Pset` membership for
//!   every process `p` with `UP(p, r) ⊆ S`.
//!
//! [`check_indistinguishability`] evaluates these conditions for **every**
//! round, process, and touched register, returning a report that lists any
//! violations. For correct update rules this report is always clean; the
//! test suite also contains *negative* controls showing the checker does
//! flag genuinely distinguishable configurations when `UP ⊄ S`.

use crate::all_run::AllRun;
use crate::s_run::SRun;
use llsc_shmem::{ProcMask, ProcessId, RegisterId};
use std::fmt;

/// What the indistinguishability check found to differ.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IndistViolation {
    /// A process with `UP(p, r) ⊆ S` observed different histories.
    ProcessHistory {
        /// The process.
        p: ProcessId,
        /// The round at whose end the histories differ.
        round: usize,
    },
    /// A process with `UP(p, r) ⊆ S` tossed a different number of coins.
    ProcessTosses {
        /// The process.
        p: ProcessId,
        /// The round at whose end the counts differ.
        round: usize,
        /// `numtosses` in the `(All, A)`-run.
        all: u64,
        /// `numtosses` in the `(S, A)`-run.
        s: u64,
    },
    /// A register with `UP(R, r) ⊆ S` held different values.
    RegisterValue {
        /// The register.
        r: RegisterId,
        /// The round at whose end the values differ.
        round: usize,
    },
    /// A register with `UP(R, r) ⊆ S` disagreed on the `Pset` membership
    /// of some process with `UP(p, r) ⊆ S`.
    RegisterPset {
        /// The register.
        r: RegisterId,
        /// The process whose membership differs.
        p: ProcessId,
        /// The round at whose end the membership differs.
        round: usize,
    },
}

impl fmt::Display for IndistViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndistViolation::ProcessHistory { p, round } => {
                write!(f, "round {round}: {p} histories differ")
            }
            IndistViolation::ProcessTosses { p, round, all, s } => {
                write!(f, "round {round}: {p} numtosses differ (all={all}, s={s})")
            }
            IndistViolation::RegisterValue { r, round } => {
                write!(f, "round {round}: {r} values differ")
            }
            IndistViolation::RegisterPset { r, p, round } => {
                write!(f, "round {round}: {r} Pset membership of {p} differs")
            }
        }
    }
}

/// The outcome of checking Lemma 5.2 on one `(All, A)`/`(S, A)` run pair.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct IndistReport {
    /// Rounds checked (`0..=rounds`).
    pub rounds_checked: usize,
    /// Number of `(process, round)` pairs whose `UP ⊆ S` condition held
    /// and were therefore compared.
    pub process_checks: usize,
    /// Number of `(register, round)` pairs compared.
    pub register_checks: usize,
    /// All violations found (empty for a sound update-rule system).
    pub violations: Vec<IndistViolation>,
}

impl IndistReport {
    /// `true` iff no violations were found.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

impl fmt::Display for IndistReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "indistinguishability: {} rounds, {} process checks, {} register checks, {} violation(s)",
            self.rounds_checked,
            self.process_checks,
            self.register_checks,
            self.violations.len()
        )
    }
}

/// Mechanically checks Lemma 5.2 for the pair (`all`, `srun`).
///
/// For every round `r` from 0 to the number of rounds of the
/// `(All, A)`-run, compares every process with `UP(p, r) ⊆ S` and every
/// touched register with `UP(R, r) ⊆ S` across the two runs.
///
/// Rounds of the `(S, A)`-run beyond its early-exit point are empty; the
/// comparison extends the `(S, A)`-run's last snapshot to those rounds,
/// which is exact because nothing changes in empty rounds.
///
/// # Panics
///
/// Panics if either run lacks what the lemma compares — interaction
/// histories (`record_details`) or end-of-round register snapshots
/// (`record_snapshots`) — rather than passing without comparing them.
pub fn check_indistinguishability(all: &AllRun, srun: &SRun) -> IndistReport {
    assert!(
        all.base.run.is_detailed() && srun.base.run.is_detailed(),
        "the Lemma 5.2 checker compares interaction histories; build both runs \
         with record_details = true"
    );
    assert!(
        all.base.has_snapshots() && srun.base.has_snapshots(),
        "the Lemma 5.2 checker compares register snapshots; build both runs \
         with record_snapshots = true"
    );
    let n = all.n();
    let s = &srun.s;
    let rounds = all.base.num_rounds();
    let mut report = IndistReport {
        rounds_checked: rounds + 1,
        ..IndistReport::default()
    };

    // The (S, A)-run may have stopped early; clamp its snapshot index.
    let s_round = |r: usize| r.min(srun.base.num_rounds());

    // Registers worth checking: touched in either run, in id order.
    let index = all.check_index();
    let regs = merge_touched(index.touched(), &srun.base.touched_registers());

    // Per-process incremental history comparison. The compared prefixes
    // only ever grow with `r`, so instead of re-walking the full prefix
    // each round (quadratic in rounds) we verify just the extension since
    // the previous round. `verified[p]` is the length compared equal so
    // far; a content mismatch is permanent (both histories are immutable
    // and only grow), so round `r`'s full-prefix comparison differs
    // exactly when a content mismatch was ever seen or the two prefix
    // lengths differ at `r`.
    let mut verified = vec![0usize; n];
    let mut content_mismatch = vec![false; n];
    // Per process, cursors into both runs' change indexes (`r` and the
    // clamped `sr` only grow), in place of a binary search per read.
    let mut cursors = vec![(0usize, 0usize); n];
    // `{p : UP(p, r) ⊆ S}` for the current round.
    let mut eligible = ProcMask::new();

    for r in 0..=rounds {
        let sr = s_round(r);
        eligible.clear();
        for p in ProcessId::all(n) {
            if all.up.proc(p, r).is_subset(s) {
                eligible.insert(p);
            }
        }
        // Processes.
        for p in eligible.iter() {
            report.process_checks += 1;
            let (at_all, at_s) = &mut cursors[p.0];
            let at_all = all.base.changes.seek(p, r, at_all);
            let at_s = srun.base.changes.seek(p, sr, at_s);
            let h_all = all.base.run.history(p).prefix(at_all.history_len as usize);
            let h_s = srun.base.run.history(p).prefix(at_s.history_len as usize);
            if !content_mismatch[p.0] {
                let common = h_all.len().min(h_s.len());
                if h_all.range(verified[p.0]..common) != h_s.range(verified[p.0]..common) {
                    content_mismatch[p.0] = true;
                } else {
                    verified[p.0] = common;
                }
            }
            if content_mismatch[p.0] || h_all.len() != h_s.len() {
                report
                    .violations
                    .push(IndistViolation::ProcessHistory { p, round: r });
            }
            let (t_all, t_s) = (u64::from(at_all.tosses), u64::from(at_s.tosses));
            if t_all != t_s {
                report.violations.push(IndistViolation::ProcessTosses {
                    p,
                    round: r,
                    all: t_all,
                    s: t_s,
                });
            }
        }
        // Registers.
        for &(reg, i) in &regs {
            let up = match i {
                Some(i) => index.up_reg(i, r),
                None => all.up.reg(reg, r),
            };
            if !up.is_subset(s) {
                continue;
            }
            report.register_checks += 1;
            let (value_all, pset_all) = all.base.register_at(reg, r);
            let (value_s, pset_s) = srun.base.register_at(reg, sr);
            if value_all != value_s {
                report
                    .violations
                    .push(IndistViolation::RegisterValue { r: reg, round: r });
            }
            if pset_all == pset_s {
                continue;
            }
            for p in eligible.iter() {
                if pset_all.contains(p) != pset_s.contains(p) {
                    report.violations.push(IndistViolation::RegisterPset {
                        r: reg,
                        p,
                        round: r,
                    });
                }
            }
        }
    }
    report
}

/// The union of the `(All, A)`-run's and the `(S, A)`-run's id-ordered
/// touched registers, in id order, each with its position in `all` (`None`
/// for a register only the `(S, A)`-run touched).
fn merge_touched(all: &[RegisterId], s: &[RegisterId]) -> Vec<(RegisterId, Option<usize>)> {
    let mut out = Vec::with_capacity(all.len());
    let (mut i, mut j) = (0, 0);
    while i < all.len() || j < s.len() {
        if j == s.len() || (i < all.len() && all[i] <= s[j]) {
            j += usize::from(j < s.len() && s[j] == all[i]);
            out.push((all[i], Some(i)));
            i += 1;
        } else {
            out.push((s[j], None));
            j += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::all_run::{build_all_run, AdversaryConfig};
    use crate::s_run::build_s_run;
    use crate::upsets::ProcSet;
    use llsc_shmem::dsl::{done, ll, mv, sc, swap, validate};
    use llsc_shmem::{
        Algorithm, FnAlgorithm, ProcessId, Program, RegisterId, SeededTosses, Value, ZeroTosses,
    };
    use std::sync::Arc;

    fn pset<const N: usize>(ids: [usize; N]) -> ProcSet {
        ids.into_iter().map(ProcessId).collect()
    }

    fn check_all_subsets(alg: &dyn Algorithm, n: usize, seed: Option<u64>) {
        let cfg = AdversaryConfig::default();
        let toss: Arc<dyn llsc_shmem::TossAssignment> = match seed {
            Some(s) => Arc::new(SeededTosses::new(s)),
            None => Arc::new(ZeroTosses),
        };
        let all = build_all_run(alg, n, toss.clone(), &cfg).unwrap();
        // Exhaustive over subsets for small n.
        for mask in 0..(1u32 << n) {
            let s: ProcSet = (0..n)
                .filter(|i| mask & (1 << i) != 0)
                .map(ProcessId)
                .collect();
            let srun = build_s_run(alg, n, toss.clone(), &s, &all, &cfg).unwrap();
            let report = check_indistinguishability(&all, &srun);
            assert!(
                report.ok(),
                "alg={} n={n} S={s:?}: {:?}",
                alg.name(),
                report.violations
            );
        }
    }

    #[test]
    fn lemma_5_2_llsc_contention() {
        let alg = FnAlgorithm::new("llsc", |pid: ProcessId, _n| {
            ll(RegisterId(0), move |_| {
                sc(RegisterId(0), Value::from(pid.0 as i64), |ok, _| {
                    done(Value::from(ok))
                })
            })
            .into_program()
        });
        check_all_subsets(&alg, 4, None);
    }

    #[test]
    fn lemma_5_2_retrying_llsc() {
        // Retry until success: the classic counter.
        let alg = FnAlgorithm::new("counter", |_pid, _n| {
            fn attempt() -> llsc_shmem::dsl::Step {
                ll(RegisterId(0), |prev| {
                    let v = prev.as_int().unwrap_or(0);
                    sc(RegisterId(0), Value::from(v + 1), move |ok, _| {
                        if ok {
                            done(Value::from(v + 1))
                        } else {
                            attempt()
                        }
                    })
                })
            }
            attempt().into_program()
        });
        check_all_subsets(&alg, 4, None);
    }

    #[test]
    fn lemma_5_2_with_swaps() {
        let alg = FnAlgorithm::new("swappers", |pid: ProcessId, _n| {
            swap(RegisterId(0), Value::from(pid.0 as i64), |prev| {
                swap(RegisterId(1), prev, |_| done(Value::from(0i64)))
            })
            .into_program()
        });
        check_all_subsets(&alg, 4, None);
    }

    #[test]
    fn lemma_5_2_with_moves() {
        // The Section-4 chain followed by a validate of the last register.
        let alg = FnAlgorithm::new("chain+read", |pid: ProcessId, n| {
            let prog: Box<dyn Program> = if pid.0 < n - 1 {
                mv(
                    RegisterId(pid.0 as u64),
                    RegisterId(pid.0 as u64 + 1),
                    || done(Value::from(0i64)),
                )
                .into_program()
            } else {
                validate(RegisterId(n as u64 - 1), |_, _| done(Value::from(0i64))).into_program()
            };
            prog
        })
        .with_initial_memory(vec![(RegisterId(0), Value::from(7i64))]);
        check_all_subsets(&alg, 5, None);
    }

    #[test]
    fn lemma_5_2_mixed_ops_randomized() {
        // Coin-flip between LL/SC, swap, and move behaviour.
        let alg = FnAlgorithm::new("mixed-rand", |pid: ProcessId, _n| {
            llsc_shmem::dsl::toss(move |c| match c % 3 {
                0 => ll(RegisterId(0), move |_| {
                    sc(RegisterId(0), Value::from(pid.0 as i64), |_, _| {
                        done(Value::from(0i64))
                    })
                }),
                1 => swap(RegisterId(1), Value::from(pid.0 as i64), |_| {
                    done(Value::from(0i64))
                }),
                _ => mv(RegisterId(1), RegisterId(0), || done(Value::from(0i64))),
            })
            .into_program()
        });
        for seed in [1, 2, 42] {
            check_all_subsets(&alg, 4, Some(seed));
        }
    }

    #[test]
    fn checker_flags_differences_outside_the_lemma() {
        // Negative control. For the LL/SC contention algorithm, p1's
        // round-2 view *differs* between the runs when S = {p1, p2, p3}
        // (in the All-run p0 wins the SC; without p0, p1 wins). Lemma 5.2
        // does not apply to p1 at round 2 because UP(p1, 2) ∋ p0 ⊄ S —
        // verify both that UP escapes S and that the raw histories differ,
        // i.e. the checker's comparison is not vacuous.
        let alg = FnAlgorithm::new("llsc", |pid: ProcessId, _n| {
            ll(RegisterId(0), move |_| {
                sc(RegisterId(0), Value::from(pid.0 as i64), |ok, _| {
                    done(Value::from(ok))
                })
            })
            .into_program()
        });
        let cfg = AdversaryConfig::default();
        let all = build_all_run(&alg, 4, Arc::new(ZeroTosses), &cfg).unwrap();
        let s = pset([1, 2, 3]);
        let srun = build_s_run(&alg, 4, Arc::new(ZeroTosses), &s, &all, &cfg).unwrap();
        // UP(p1, 2) includes p0, so the lemma says nothing about p1.
        assert!(!all.up.proc(ProcessId(1), 2).is_subset(&s));
        // And indeed p1's histories differ at round 2 (SC failed vs
        // succeeded).
        assert_ne!(
            all.base.history_at(ProcessId(1), 2),
            srun.base.history_at(ProcessId(1), 2)
        );
        // The lemma-scoped check is still clean.
        let report = check_indistinguishability(&all, &srun);
        assert!(report.ok(), "{:?}", report.violations);
        assert!(report.process_checks > 0);
        assert!(report.register_checks > 0);
    }

    #[test]
    fn checker_is_sensitive_to_mislabelled_runs() {
        // Sensitivity control: relabel an (S, A)-run as if it had been
        // built for a larger S. Processes in the difference did not step
        // in the run but have UP ⊆ S, so the checker MUST flag them —
        // proving the comparisons are not vacuous.
        let alg = FnAlgorithm::new("llsc", |pid: ProcessId, _n| {
            ll(RegisterId(0), move |_| {
                sc(RegisterId(0), Value::from(pid.0 as i64), |ok, _| {
                    done(Value::from(ok))
                })
            })
            .into_program()
        });
        let cfg = AdversaryConfig::default();
        let all = build_all_run(&alg, 4, Arc::new(ZeroTosses), &cfg).unwrap();
        let small = pset([1]);
        let mut srun = build_s_run(&alg, 4, Arc::new(ZeroTosses), &small, &all, &cfg).unwrap();
        srun.s = pset([1, 2, 3]); // lie about S
        let report = check_indistinguishability(&all, &srun);
        assert!(!report.ok(), "mislabelled run must be flagged");
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, IndistViolation::ProcessHistory { .. })));
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
    #[should_panic(expected = "compares register snapshots")]
    fn checker_refuses_runs_without_snapshots() {
        // Without snapshots a mislabelled S used to pass with 0 register
        // checks; the checker must refuse instead of passing vacuously.
        let alg = llsc_alg();
        let cfg = AdversaryConfig {
            record_snapshots: false,
            ..AdversaryConfig::default()
        };
        let all = build_all_run(&alg, 4, Arc::new(ZeroTosses), &cfg).unwrap();
        let mut srun = build_s_run(&alg, 4, Arc::new(ZeroTosses), &pset([1]), &all, &cfg).unwrap();
        srun.s = pset([1, 2, 3]);
        check_indistinguishability(&all, &srun);
    }

    #[test]
    #[should_panic(expected = "compares interaction histories")]
    fn checker_refuses_runs_without_histories() {
        let alg = llsc_alg();
        let mut cfg = AdversaryConfig::default();
        cfg.executor.record_details = false;
        let all = build_all_run(&alg, 4, Arc::new(ZeroTosses), &cfg).unwrap();
        let srun = build_s_run(&alg, 4, Arc::new(ZeroTosses), &pset([1]), &all, &cfg).unwrap();
        check_indistinguishability(&all, &srun);
    }

    #[test]
    fn touched_registers_merge_in_id_order() {
        let all = [RegisterId(1), RegisterId(3)];
        let s = [RegisterId(0), RegisterId(3), RegisterId(4)];
        assert_eq!(
            merge_touched(&all, &s),
            [
                (RegisterId(0), None),
                (RegisterId(1), Some(0)),
                (RegisterId(3), Some(1)),
                (RegisterId(4), None),
            ]
        );
        assert_eq!(
            merge_touched(&all, &[]),
            [(all[0], Some(0)), (all[1], Some(1))]
        );
    }

    #[test]
    fn report_display_mentions_counts() {
        let alg = FnAlgorithm::new("noop", |_p, _n| done(Value::from(0i64)).into_program());
        let cfg = AdversaryConfig::default();
        let all = build_all_run(&alg, 2, Arc::new(ZeroTosses), &cfg).unwrap();
        let s: ProcSet = ProcessId::all(2).collect();
        let srun = build_s_run(&alg, 2, Arc::new(ZeroTosses), &s, &all, &cfg).unwrap();
        let report = check_indistinguishability(&all, &srun);
        assert!(report.to_string().contains("0 violation(s)"));
    }

    #[test]
    fn violation_displays_are_informative() {
        let v = IndistViolation::ProcessTosses {
            p: ProcessId(1),
            round: 3,
            all: 2,
            s: 1,
        };
        assert_eq!(v.to_string(), "round 3: p1 numtosses differ (all=2, s=1)");
        let v2 = IndistViolation::RegisterValue {
            r: RegisterId(0),
            round: 1,
        };
        assert!(v2.to_string().contains("R0"));
    }
}
