//! The Lemma 5.2 and appendix-claims checkers against a reference.
//!
//! The library checkers read a per-run index, borrowed register states and
//! reused buffers. The reference checkers below are the straightforward
//! loops over the public `RoundedRun`/`UpTracker` accessors: ordered maps
//! and sets rebuilt per call, cloned values and Psets, a full-prefix
//! history comparison per round. Both must produce the same report —
//! counts and violation lists, in order — on every subset of every shipped
//! algorithm, and on tampered runs that make every violation kind fire.

use llsc_lowerbound::core::{
    build_all_run, build_s_run_with, check_appendix_claims, check_indistinguishability,
    indist_all_subsets, AdversaryConfig, AllRun, ClaimViolation, ClaimsReport, IndistReport,
    IndistViolation, OpSummary, ProcSet, RoundRecord, SRun,
};
use llsc_lowerbound::shmem::dsl::{done, ll, sc, Step};
use llsc_lowerbound::shmem::{
    Algorithm, Executor, FnAlgorithm, OpKind, ProcessId, RegisterId, RegisterState, SeededTosses,
    Sweep, TossAssignment, Value, ZeroTosses,
};
use llsc_lowerbound::wakeup::{correct_algorithms, randomized_algorithms};
use std::collections::{BTreeMap, BTreeSet};
use std::mem::discriminant;
use std::sync::Arc;

fn reference_indist(all: &AllRun, srun: &SRun) -> IndistReport {
    let n = all.n();
    let s = &srun.s;
    let rounds = all.base.num_rounds();
    let mut report = IndistReport {
        rounds_checked: rounds + 1,
        ..IndistReport::default()
    };
    let s_round = |r: usize| r.min(srun.base.num_rounds());
    let mut regs = all.base.touched_registers();
    for r in srun.base.touched_registers() {
        if !regs.contains(&r) {
            regs.push(r);
        }
    }
    regs.sort_unstable();
    for r in 0..=rounds {
        let sr = s_round(r);
        for p in ProcessId::all(n) {
            if !all.up.proc(p, r).is_subset(s) {
                continue;
            }
            report.process_checks += 1;
            if all.base.history_at(p, r) != srun.base.history_at(p, sr) {
                report
                    .violations
                    .push(IndistViolation::ProcessHistory { p, round: r });
            }
            let t_all = all.base.tosses_at(p, r);
            let t_s = srun.base.tosses_at(p, sr);
            if t_all != t_s {
                report.violations.push(IndistViolation::ProcessTosses {
                    p,
                    round: r,
                    all: t_all,
                    s: t_s,
                });
            }
        }
        for &reg in &regs {
            if !all.up.reg(reg, r).is_subset(s) {
                continue;
            }
            report.register_checks += 1;
            if all.base.value_at(reg, r) != srun.base.value_at(reg, sr) {
                report
                    .violations
                    .push(IndistViolation::RegisterValue { r: reg, round: r });
            }
            let pset_all = all.base.pset_at(reg, r);
            let pset_s = srun.base.pset_at(reg, sr);
            for p in ProcessId::all(n) {
                if !all.up.proc(p, r).is_subset(s) {
                    continue;
                }
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

fn reference_claims(all: &AllRun, srun: &SRun) -> ClaimsReport {
    let n = all.n();
    let s = &srun.s;
    let mut report = ClaimsReport::default();
    for r in 1..=all.base.num_rounds() {
        report.rounds_checked += 1;
        let all_rec = &all.base.rounds[r - 1];
        let s_rec = srun.base.rounds.get(r - 1);
        let all_ops: BTreeMap<ProcessId, (OpKind, RegisterId)> = all_rec
            .ops
            .iter()
            .map(|o| (o.p, (o.kind, o.register)))
            .collect();
        let s_ops: BTreeMap<ProcessId, (OpKind, RegisterId)> = s_rec
            .map(|rec| {
                rec.ops
                    .iter()
                    .map(|o| (o.p, (o.kind, o.register)))
                    .collect()
            })
            .unwrap_or_default();
        // Each register's successful SC, from a run's ops.
        let winners = |rec: &RoundRecord| -> BTreeMap<RegisterId, ProcessId> {
            rec.ops
                .iter()
                .filter(|o| o.kind == OpKind::Sc && o.sc_ok == Some(true))
                .map(|o| (o.register, o.p))
                .collect()
        };
        let all_winners = winners(all_rec);
        let s_winners = s_rec.map(winners).unwrap_or_default();

        // A.2
        for p in ProcessId::all(n) {
            report.instances += 1;
            let eligible = all.up.proc(p, r - 1).is_subset(s);
            match (eligible, s_ops.get(&p)) {
                (false, Some(_)) => report.violations.push(ClaimViolation::Participation {
                    p,
                    round: r,
                    detail: "stepped although UP(p, r-1) ⊄ S".into(),
                }),
                (true, got) => {
                    let (Some(expect), Some(s_r)) =
                        (all_ops.get(&p), srun.participants_per_round.get(r - 1))
                    else {
                        continue;
                    };
                    if srun.base.run.verdict(p).is_some() && !s_r.contains(&p) {
                        continue;
                    }
                    match got {
                        Some(actual) if actual == expect => {}
                        Some(actual) => report.violations.push(ClaimViolation::Participation {
                            p,
                            round: r,
                            detail: format!("performed {actual:?}, expected {expect:?}"),
                        }),
                        None if srun.base.run.verdict(p).is_none() => {
                            report.violations.push(ClaimViolation::Participation {
                                p,
                                round: r,
                                detail: "missing its operation".into(),
                            })
                        }
                        None => {}
                    }
                }
                (false, None) => {}
            }
        }
        // A.3
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
        // A.4
        for &reg in all_winners.keys() {
            report.instances += 1;
            let before = all.up.reg(reg, r - 1).clone();
            let after = all.up.reg(reg, r).clone();
            if !before.is_subset(&after) {
                report
                    .violations
                    .push(ClaimViolation::UpShrank { r: reg, round: r });
            }
        }
        // A.5
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
        // A.6 / A.9
        let sc_registers: BTreeSet<RegisterId> = all_rec
            .ops
            .iter()
            .filter(|o| o.kind == OpKind::Sc)
            .map(|o| o.register)
            .collect();
        for reg in sc_registers {
            if !all.up.reg(reg, r).is_subset(s) {
                continue;
            }
            report.instances += 1;
            let winner_all = all_winners.get(&reg).copied();
            let winner_s = s_winners.get(&reg).copied();
            let mismatch = match winner_all {
                Some(w) if all.up.proc(w, r - 1).is_subset(s) => winner_s != Some(w),
                Some(_) => false,
                None => winner_s.is_some(),
            };
            if mismatch {
                report.violations.push(ClaimViolation::ScSuccessMismatch {
                    r: reg,
                    round: r,
                    all: winner_all,
                    s: winner_s,
                });
            }
        }
    }
    report
}

/// Both checkers agree with their references on `(all, srun)`; returns
/// the library reports.
fn assert_checkers_agree(all: &AllRun, srun: &SRun, what: &str) -> (IndistReport, ClaimsReport) {
    let lemma = check_indistinguishability(all, srun);
    assert_eq!(lemma, reference_indist(all, srun), "Lemma 5.2: {what}");
    let claims = check_appendix_claims(all, srun);
    assert_eq!(claims, reference_claims(all, srun), "claims: {what}");
    (lemma, claims)
}

fn shipped_algorithms() -> Vec<Box<dyn Algorithm>> {
    correct_algorithms()
        .into_iter()
        .chain(randomized_algorithms())
        .collect()
}

/// LL/SC contention on two registers, `R(p mod 2)`, until each SC
/// succeeds: rounds in which SCs succeed on more than one register, which
/// no shipped algorithm has.
fn two_register_contention() -> Box<dyn Algorithm> {
    fn attempt(pid: ProcessId) -> Step {
        let r = RegisterId(pid.0 as u64 % 2);
        ll(r, move |_| {
            sc(r, Value::from(pid.0 as i64), move |ok, _| {
                if ok {
                    done(Value::from(1i64))
                } else {
                    attempt(pid)
                }
            })
        })
    }
    Box::new(FnAlgorithm::new("two-register-contention", |pid, _n| {
        attempt(pid).into_program()
    }))
}

fn toss_assignments() -> Vec<Arc<dyn TossAssignment>> {
    vec![Arc::new(ZeroTosses), Arc::new(SeededTosses::new(7))]
}

/// Every `(S, A)`-run of `alg` at `n`, in mask order, built on one
/// reused executor.
fn every_s_run(
    alg: &dyn Algorithm,
    n: usize,
    toss: &Arc<dyn TossAssignment>,
    all: &AllRun,
) -> Vec<SRun> {
    let cfg = AdversaryConfig::default();
    let mut exec = Executor::new(alg, n, toss.clone(), cfg.executor);
    (0..1usize << n)
        .map(|mask| {
            let s: ProcSet = (0..n)
                .filter(|i| mask & (1 << i) != 0)
                .map(ProcessId)
                .collect();
            build_s_run_with(&mut exec, alg, &s, all, &cfg)
                .expect("shipped algorithms stay within the default budgets")
        })
        .collect()
}

#[test]
fn checkers_match_the_reference_on_every_subset() {
    let cfg = AdversaryConfig::default();
    for alg in shipped_algorithms()
        .into_iter()
        .chain([two_register_contention()])
    {
        for n in [4, 6] {
            for toss in toss_assignments() {
                let all = build_all_run(alg.as_ref(), n, toss.clone(), &cfg).unwrap();
                for srun in every_s_run(alg.as_ref(), n, &toss, &all) {
                    let what = format!("{} n={n} S={:?}", alg.name(), srun.s);
                    let (lemma, claims) = assert_checkers_agree(&all, &srun, &what);
                    assert!(lemma.ok() && claims.ok(), "{what}");
                }
            }
        }
    }
}

fn pids<const N: usize>(ids: [usize; N]) -> ProcSet {
    ids.into_iter().map(ProcessId).collect()
}

/// Tampered copies of correct runs: each must be flagged identically by
/// the library checkers and the references, and together they must make
/// every violation kind fire.
#[test]
fn checkers_match_the_reference_on_tampered_runs() {
    let cfg = AdversaryConfig::default();
    let n = 6;
    let mut indist_kinds = BTreeSet::new();
    let mut claim_kinds = BTreeSet::new();
    let mut record = |lemma: &IndistReport, claims: &ClaimsReport| {
        for v in &lemma.violations {
            indist_kinds.insert(format!("{:?}", discriminant(v)));
        }
        for v in &claims.violations {
            claim_kinds.insert(format!("{:?}", discriminant(v)));
        }
    };
    for alg in shipped_algorithms() {
        for toss in toss_assignments() {
            let all = build_all_run(alg.as_ref(), n, toss.clone(), &cfg).unwrap();
            let sruns = every_s_run(alg.as_ref(), n, &toss, &all);
            let run_for = |s: &ProcSet| -> SRun {
                sruns
                    .iter()
                    .find(|run| &run.s == s)
                    .expect("every subset is built")
                    .clone()
            };
            let mut check = |tampered: &SRun, what: &str| {
                let what = format!("{} {what}", alg.name());
                let (lemma, claims) = assert_checkers_agree(&all, tampered, &what);
                record(&lemma, &claims);
                lemma
            };

            // Mislabelled S, both ways: a small run claimed for a larger
            // S (eligible processes missing their steps) and a large run
            // claimed for a smaller S (processes stepping outside S).
            let mut srun = run_for(&pids([1]));
            srun.s = pids([1, 2, 3]);
            check(&srun, "small run labelled {p1,p2,p3}");
            let mut srun = run_for(&ProcSet::full(n));
            srun.s = pids([0, 4]);
            check(&srun, "full run labelled {p0,p4}");

            let full = run_for(&ProcSet::full(n));
            let last = full.base.num_rounds() - 1;
            let first_reg = full.base.touched_registers()[0];

            // A flipped snapshot value and a flipped Pset bit.
            let mut srun = full.clone();
            let regs = srun.base.rounds[last].end_registers.as_mut().unwrap();
            regs.get_mut(&first_reg)
                .unwrap()
                .corrupt(Value::from(-12_345i64), false);
            check(&srun, "flipped value");
            let mut srun = full.clone();
            let regs = srun.base.rounds[last].end_registers.as_mut().unwrap();
            let state = regs.get_mut(&first_reg).unwrap();
            if state.linked(ProcessId(0)) {
                state.suppress_sc(ProcessId(0));
            } else {
                state.ll(ProcessId(0));
            }
            check(&srun, "flipped Pset bit");

            // A register only the (S, A)-run touched.
            let mut srun = full.clone();
            let regs = srun.base.rounds[last].end_registers.as_mut().unwrap();
            regs.insert(RegisterId(999), RegisterState::new(Value::from(1i64)));
            check(&srun, "register only the S-run touched");

            // A truncated history (kept monotone across rounds) and a
            // shifted toss count, written into the change index.
            let mut srun = full.clone();
            let cap = srun.base.history_at(ProcessId(2), 1).len() as u32;
            for c in srun.base.changes.entries_mut(ProcessId(2)) {
                c.history_len = c.history_len.min(cap);
            }
            let lemma = check(&srun, "truncated history");
            if full.base.history_at(ProcessId(2), last + 1).len() as u32 > cap {
                assert!(lemma.violations.iter().any(|v| matches!(
                    v,
                    IndistViolation::ProcessHistory {
                        p: ProcessId(2),
                        ..
                    }
                )));
            }
            let mut srun = full.clone();
            let tossed = srun.base.changes.entries_mut(ProcessId(3)).last_mut();
            tossed.expect("p3 acts in the full run").tosses += 1;
            let lemma = check(&srun, "shifted toss count");
            assert!(lemma.violations.iter().any(|v| matches!(
                v,
                IndistViolation::ProcessTosses {
                    p: ProcessId(3),
                    ..
                }
            )));

            // A.3 and A.6/A.9: an extra mover, a changed SC winner.
            let mut srun = full.clone();
            srun.base.rounds[0]
                .move_config
                .insert(ProcessId(5), RegisterId(0), RegisterId(1));
            check(&srun, "extra mover");
            // Each round's first SC'd register loses its S-run winner, or
            // gains one if it had none.
            let mut srun = full.clone();
            for (r, rec) in srun.base.rounds.iter_mut().enumerate() {
                let all_ops = &all.base.rounds[r].ops;
                let Some(sc) = all_ops.iter().find(|o| o.kind == OpKind::Sc) else {
                    continue;
                };
                let on_reg = |o: &&mut OpSummary| o.kind == OpKind::Sc && o.register == sc.register;
                let mut scs: Vec<_> = rec.ops.iter_mut().filter(on_reg).collect();
                match scs.iter().position(|o| o.sc_ok == Some(true)) {
                    Some(i) => scs[i].sc_ok = Some(false),
                    None => {
                        if let Some(first) = scs.first_mut() {
                            first.sc_ok = Some(true);
                        }
                    }
                }
            }
            check(&srun, "changed SC winners");

            // A.4 and A.5 are statements about the (All, A)-run alone:
            // tamper a copy of it (a clone starts without a check index).
            let mut tampered = all.clone();
            let shrunk = (1..=all.base.num_rounds()).find_map(|r| {
                all.base
                    .touched_registers()
                    .into_iter()
                    .find(|&reg| !all.up.reg(reg, r - 1).is_subset(all.up.reg(reg, r)))
                    .map(|reg| (r, reg))
            });
            // The round's first operation on the register becomes a
            // successful SC on it.
            if let Some((r, reg)) = shrunk {
                let ops = &mut tampered.base.rounds[r - 1].ops;
                let op = ops.iter_mut().find(|o| o.register == reg);
                let op = op.expect("a register's UP changes only through an operation on it");
                op.kind = OpKind::Sc;
                op.sc_ok = Some(true);
            }
            let escaping = (1..=all.base.num_rounds()).find_map(|r| {
                let rec = &all.base.rounds[r - 1];
                rec.ops.iter().enumerate().find_map(|(i, o)| {
                    let up_p = all.up.proc(o.p, r);
                    all.base
                        .touched_registers()
                        .into_iter()
                        .find(|&reg| !all.up.reg(reg, r).is_subset(up_p))
                        .map(|reg| (r, i, reg))
                })
            });
            if let Some((r, i, reg)) = escaping {
                let op = &mut tampered.base.rounds[r - 1].ops[i];
                op.kind = OpKind::Sc;
                op.register = reg;
                let s = all.up.proc(op.p, r).clone();
                let srun = run_for(&s);
                let what = format!("{} tampered (All, A)-run", alg.name());
                let (lemma, claims) = assert_checkers_agree(&tampered, &srun, &what);
                record(&lemma, &claims);
            }
        }
    }
    assert_eq!(
        indist_kinds.len(),
        4,
        "Lemma 5.2 kinds seen: {indist_kinds:?}"
    );
    assert_eq!(claim_kinds.len(), 5, "claim kinds seen: {claim_kinds:?}");
}

/// `(algorithm, n, comparisons, claim instances)` of the E13 sweep
/// (`ZeroTosses`, default configuration, claims on). A checker rewrite
/// that skipped or double-counted comparisons or claim instances would
/// still report zero violations; these counts catch it.
const E13_COUNTS: [(&str, usize, usize, usize); 12] = [
    ("counter-wakeup", 4, 242, 623),
    ("counter-wakeup", 6, 1474, 5247),
    ("bitset-wakeup", 4, 242, 623),
    ("bitset-wakeup", 6, 1474, 5247),
    ("tournament-wakeup", 4, 267, 192),
    ("tournament-wakeup", 6, 1887, 1536),
    ("gossip-wakeup", 4, 552, 496),
    ("gossip-wakeup", 6, 4315, 6341),
    ("randomized-counter-wakeup", 4, 450, 687),
    ("randomized-counter-wakeup", 6, 2626, 5631),
    ("backoff-wakeup", 4, 242, 623),
    ("backoff-wakeup", 6, 1474, 5247),
];

#[test]
fn e13_comparison_and_claim_instance_counts_are_pinned() {
    let cfg = AdversaryConfig::default();
    let mut got = Vec::new();
    for alg in shipped_algorithms() {
        for n in [4, 6] {
            let report = indist_all_subsets(
                alg.as_ref(),
                n,
                Arc::new(ZeroTosses),
                &cfg,
                true,
                &Sweep::sequential(),
            )
            .unwrap();
            assert!(report.ok(), "{} n={n}", alg.name());
            got.push((alg.name(), n, report.comparisons, report.claim_instances));
        }
    }
    assert_eq!(got, E13_COUNTS);
}
