//! The appendix claims (A.2 – A.9), checked mechanically.
//!
//! The paper proves the Indistinguishability Lemma by induction through a
//! series of claims (Appendix A). [`check_indistinguishability`] validates
//! the lemma's *conclusion*; this module validates the *intermediate*
//! claims on concrete `(All, A)`/`(S, A)` run pairs, which pins down the
//! proof skeleton itself:
//!
//! * **A.2** — participation: a process steps in round `r` of the
//!   `(S, A)`-run iff `UP(p, r-1) ⊆ S`, and then performs the *same kind of
//!   operation on the same register* as in the `(All, A)`-run.
//! * **A.3** — the `(S, A)`-run's move group is a subset of the
//!   `(All, A)`-run's (so replaying `σ_r` is well defined).
//! * **A.4** — a successful SC on `R` in round `r` implies
//!   `UP(R, r-1) ⊆ UP(R, r)`.
//! * **A.5** — if `UP(p, r) ⊆ S` and `p` SCs `R` in round `r`, then
//!   `UP(R, r) ⊆ S`.
//! * **A.6** — if `UP(R, r) ⊆ S` and `q`'s SC on `R` succeeds in round `r`
//!   of the `(All, A)`-run, the same process's SC succeeds in the
//!   `(S, A)`-run.
//! * **A.9** — if `UP(R, r) ⊆ S` and no SC on `R` succeeds in round `r` of
//!   the `(All, A)`-run, none succeeds in the `(S, A)`-run.
//!
//! Claims A.1, A.7, A.8, and A.10 – A.12 compare mid-phase states and
//! final-round configurations; their observable content is exactly what
//! [`check_indistinguishability`] already verifies end-of-round, so they
//! are covered there rather than duplicated here.
//!
//! [`check_indistinguishability`]: crate::check_indistinguishability

use crate::all_run::AllRun;
use crate::rounds::OpSummary;
use crate::s_run::SRun;
use llsc_shmem::{OpKind, ProcessId, RegisterId};
use std::fmt;

/// A violation of one of the appendix claims.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClaimViolation {
    /// A.2: a process stepped in the `(S, A)`-run although its `UP`
    /// escaped `S`, or failed to step although it did not, or performed a
    /// different operation.
    Participation {
        /// The offending process.
        p: ProcessId,
        /// The round.
        round: usize,
        /// Human-readable detail.
        detail: String,
    },
    /// A.3: a mover of the `(S, A)`-run was not a mover of the
    /// `(All, A)`-run.
    MoverNotInAllRun {
        /// The offending process.
        p: ProcessId,
        /// The round.
        round: usize,
    },
    /// A.4: a successful SC shrank a register's `UP` set.
    UpShrank {
        /// The register.
        r: RegisterId,
        /// The round.
        round: usize,
    },
    /// A.5: an SC by a process inside `S` targeted a register whose `UP`
    /// escaped `S`.
    ScRegisterEscapesS {
        /// The process.
        p: ProcessId,
        /// The register.
        r: RegisterId,
        /// The round.
        round: usize,
    },
    /// A.6/A.9: SC success on a register with `UP(R, r) ⊆ S` differed
    /// between the runs.
    ScSuccessMismatch {
        /// The register.
        r: RegisterId,
        /// The round.
        round: usize,
        /// The successful process in the `(All, A)`-run, if any.
        all: Option<ProcessId>,
        /// The successful process in the `(S, A)`-run, if any.
        s: Option<ProcessId>,
    },
}

impl fmt::Display for ClaimViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClaimViolation::Participation { p, round, detail } => {
                write!(f, "A.2 round {round}: {p}: {detail}")
            }
            ClaimViolation::MoverNotInAllRun { p, round } => {
                write!(f, "A.3 round {round}: {p} moves in (S,A) but not (All,A)")
            }
            ClaimViolation::UpShrank { r, round } => {
                write!(
                    f,
                    "A.4 round {round}: UP({r}) shrank across a successful SC"
                )
            }
            ClaimViolation::ScRegisterEscapesS { p, r, round } => {
                write!(f, "A.5 round {round}: {p} SCs {r} but UP({r}) escapes S")
            }
            ClaimViolation::ScSuccessMismatch { r, round, all, s } => {
                write!(
                    f,
                    "A.6/A.9 round {round}: {r} successful-SC mismatch (all={all:?}, s={s:?})"
                )
            }
        }
    }
}

/// The outcome of checking the appendix claims on one run pair.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ClaimsReport {
    /// Rounds examined.
    pub rounds_checked: usize,
    /// Individual claim instances evaluated.
    pub instances: usize,
    /// All violations found (empty for sound machinery).
    pub violations: Vec<ClaimViolation>,
}

impl ClaimsReport {
    /// `true` iff no claim was violated.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

impl fmt::Display for ClaimsReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "appendix claims: {} rounds, {} instances, {} violation(s)",
            self.rounds_checked,
            self.instances,
            self.violations.len()
        )
    }
}

/// Checks claims A.2 – A.6 and A.9 on the pair (`all`, `srun`).
pub fn check_appendix_claims(all: &AllRun, srun: &SRun) -> ClaimsReport {
    let n = all.n();
    let s = &srun.s;
    let index = all.check_index();
    let mut report = ClaimsReport::default();
    // The (S, A)-run's per-process `(kind, register)` in the current round.
    let mut s_ops: Vec<Option<(OpKind, RegisterId)>> = vec![None; n];

    for r in 1..=all.base.num_rounds() {
        report.rounds_checked += 1;
        let all_rec = &all.base.rounds[r - 1];
        let s_rec = srun.base.rounds.get(r - 1);
        s_ops.fill(None);
        for o in s_rec.iter().flat_map(|rec| &rec.ops) {
            s_ops[o.p.0] = Some((o.kind, o.register));
        }

        // ---- A.2: participation and operation agreement ----
        for p in ProcessId::all(n) {
            report.instances += 1;
            let eligible = all.up.proc(p, r - 1).is_subset(s);
            match (eligible, s_ops[p.0]) {
                (false, Some(_)) => report.violations.push(ClaimViolation::Participation {
                    p,
                    round: r,
                    detail: "stepped although UP(p, r-1) ⊄ S".into(),
                }),
                (true, got) => {
                    // If p acted in the (All, A)-run this round and is
                    // still running in the (S, A)-run, it must perform the
                    // same (kind, register). Early-terminated runs (the
                    // (S, A)-run may stop once all participants finish)
                    // are exempt: `S_r` is recorded only for the rounds
                    // it executed.
                    if let (Some(expect), Some(s_r)) =
                        (index.op(r, p), srun.participants_per_round.get(r - 1))
                    {
                        let s_terminated_before =
                            srun.base.run.verdict(p).is_some() && s_r.binary_search(&p).is_err();
                        if !s_terminated_before {
                            match got {
                                Some(actual) if actual == expect => {}
                                Some(actual) => {
                                    report.violations.push(ClaimViolation::Participation {
                                        p,
                                        round: r,
                                        detail: format!(
                                            "performed {actual:?}, expected {expect:?}"
                                        ),
                                    })
                                }
                                None => {
                                    // p must have terminated in the S-run
                                    // (same point as the All-run) — if it
                                    // is still live, A.2(3) is violated.
                                    if srun.base.run.verdict(p).is_none() {
                                        report.violations.push(ClaimViolation::Participation {
                                            p,
                                            round: r,
                                            detail: "missing its operation".into(),
                                        });
                                    }
                                }
                            }
                        }
                    }
                }
                (false, None) => {}
            }
        }

        // ---- A.3: move-group containment ----
        if let Some(rec) = s_rec {
            for p in rec.move_config.processes() {
                report.instances += 1;
                if !all_rec.move_config.contains(p) {
                    report
                        .violations
                        .push(ClaimViolation::MoverNotInAllRun { p, round: r });
                }
            }
        }

        // ---- A.4: successful SCs only grow UP(R) ----
        let sc_registers = index.sc_registers(r);
        for &(reg, _) in sc_registers.iter().filter(|(_, winner)| winner.is_some()) {
            report.instances += 1;
            if !all.up.reg(reg, r - 1).is_subset(all.up.reg(reg, r)) {
                report
                    .violations
                    .push(ClaimViolation::UpShrank { r: reg, round: r });
            }
        }

        // ---- A.5: SC inside S targets registers inside S ----
        for o in &all_rec.ops {
            if o.kind == OpKind::Sc && all.up.proc(o.p, r).is_subset(s) {
                report.instances += 1;
                if !all.up.reg(o.register, r).is_subset(s) {
                    report.violations.push(ClaimViolation::ScRegisterEscapesS {
                        p: o.p,
                        r: o.register,
                        round: r,
                    });
                }
            }
        }

        // ---- A.6 / A.9: SC success agreement for registers inside S ----
        for &(reg, winner_all) in sc_registers {
            if !all.up.reg(reg, r).is_subset(s) {
                continue;
            }
            report.instances += 1;
            let won = |o: &&OpSummary| o.register == reg && o.sc_ok == Some(true);
            let winner_s = s_rec.and_then(|rec| rec.ops.iter().find(won)).map(|o| o.p);
            // Agreement is required whenever the All-run winner is an
            // eligible S-run participant (A.6), and in the no-winner case
            // (A.9). A winner outside S simply does not run in the S-run.
            match winner_all {
                Some(w) if all.up.proc(w, r - 1).is_subset(s) => {
                    if winner_s != Some(w) {
                        report.violations.push(ClaimViolation::ScSuccessMismatch {
                            r: reg,
                            round: r,
                            all: winner_all,
                            s: winner_s,
                        });
                    }
                }
                Some(_) => {}
                None => {
                    if winner_s.is_some() {
                        report.violations.push(ClaimViolation::ScSuccessMismatch {
                            r: reg,
                            round: r,
                            all: None,
                            s: winner_s,
                        });
                    }
                }
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::all_run::{build_all_run, AdversaryConfig};
    use crate::s_run::build_s_run;
    use crate::subsets::indist_all_subsets;
    use crate::upsets::ProcSet;
    use llsc_shmem::dsl::{done, ll, mv, sc, swap};
    use llsc_shmem::{Algorithm, FnAlgorithm, Program, SeededTosses, Sweep, Value, ZeroTosses};
    use std::sync::Arc;

    fn llsc_contenders() -> impl Algorithm {
        FnAlgorithm::new("llsc", |pid: ProcessId, _n| {
            fn attempt(pid: ProcessId) -> llsc_shmem::dsl::Step {
                ll(RegisterId(0), move |_| {
                    sc(RegisterId(0), Value::from(pid.0 as i64), move |ok, _| {
                        if ok {
                            done(Value::from(1i64))
                        } else {
                            attempt(pid)
                        }
                    })
                })
            }
            attempt(pid).into_program()
        })
    }

    fn mixed_alg() -> impl Algorithm {
        FnAlgorithm::new("mixed", |pid: ProcessId, n| {
            let prog: Box<dyn Program> = match pid.0 % 3 {
                0 => swap(RegisterId(1), Value::from(pid.0 as i64), move |_| {
                    ll(RegisterId(0), |_| done(Value::from(0i64)))
                })
                .into_program(),
                1 => mv(RegisterId(1), RegisterId(2), move || {
                    ll(RegisterId(2), |_| done(Value::from(0i64)))
                })
                .into_program(),
                _ => ll(RegisterId(0), move |_| {
                    sc(RegisterId(0), Value::from((pid.0 + n) as i64), |_, _| {
                        done(Value::from(0i64))
                    })
                })
                .into_program(),
            };
            prog
        })
    }

    /// Claim and lemma violations over every subset of `n` processes.
    fn all_subsets_violations(
        alg: &dyn Algorithm,
        n: usize,
        toss: Arc<dyn llsc_shmem::TossAssignment>,
    ) -> usize {
        let cfg = AdversaryConfig::default();
        indist_all_subsets(alg, n, toss, &cfg, true, &Sweep::sequential())
            .unwrap()
            .violations
            .len()
    }

    #[test]
    fn claims_hold_for_llsc_contenders_all_subsets() {
        let alg = llsc_contenders();
        let violations = all_subsets_violations(&alg, 5, Arc::new(ZeroTosses));
        assert_eq!(violations, 0);
    }

    #[test]
    fn claims_hold_for_mixed_operations_all_subsets() {
        let alg = mixed_alg();
        for seed in [0, 3] {
            let toss: Arc<dyn llsc_shmem::TossAssignment> = if seed == 0 {
                Arc::new(ZeroTosses)
            } else {
                Arc::new(SeededTosses::new(seed))
            };
            let violations = all_subsets_violations(&alg, 6, toss);
            assert_eq!(violations, 0, "seed={seed}");
        }
    }

    #[test]
    fn claims_hold_for_shipped_wakeup_style_runs() {
        // The counter-wakeup shape exercised via the claims checker
        // directly (not just via indistinguishability).
        let alg = llsc_contenders();
        let cfg = AdversaryConfig::default();
        let all = build_all_run(&alg, 6, Arc::new(ZeroTosses), &cfg).unwrap();
        let s: ProcSet = [1, 2, 4].into_iter().map(ProcessId).collect();
        let srun = build_s_run(&alg, 6, Arc::new(ZeroTosses), &s, &all, &cfg).unwrap();
        let report = check_appendix_claims(&all, &srun);
        assert!(report.ok(), "{:?}", report.violations);
        assert!(report.instances > 0);
        assert!(report.to_string().contains("0 violation(s)"));
    }

    #[test]
    fn a4_is_nontrivial_on_repeated_sc_rounds() {
        // Two SC rounds on the same register: UP(R) transitions
        // {} -> {p0} -> {winner of round 4}, and A.4 demands monotonicity
        // relative to the previous round at each successful SC.
        let alg = llsc_contenders();
        let cfg = AdversaryConfig::default();
        let all = build_all_run(&alg, 4, Arc::new(ZeroTosses), &cfg).unwrap();
        // At least two rounds with successful SCs on R0.
        let sc_rounds = all
            .base
            .rounds
            .iter()
            .filter(|rec| {
                let won = |o: &OpSummary| o.register == RegisterId(0) && o.sc_ok == Some(true);
                rec.ops.iter().any(won)
            })
            .count();
        assert!(sc_rounds >= 2);
        let s: ProcSet = ProcessId::all(4).collect();
        let srun = build_s_run(&alg, 4, Arc::new(ZeroTosses), &s, &all, &cfg).unwrap();
        assert!(check_appendix_claims(&all, &srun).ok());
    }

    #[test]
    fn violation_displays_are_informative() {
        let v = ClaimViolation::ScSuccessMismatch {
            r: RegisterId(0),
            round: 2,
            all: Some(ProcessId(1)),
            s: None,
        };
        assert!(v.to_string().contains("A.6/A.9"));
        let v2 = ClaimViolation::UpShrank {
            r: RegisterId(3),
            round: 1,
        };
        assert!(v2.to_string().contains("A.4"));
    }
}
