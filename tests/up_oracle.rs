//! The `UP` tracker against a whole-map-clone reference.
//!
//! `UpTracker::apply_round` updates its snapshot in place and keeps the
//! Lemma 5.1 maximum incrementally, reading only the register and process
//! sets a round's rules use. The reference below is the straightforward
//! reading of Section 5.3: copy the whole round-(r-1) snapshot, apply the
//! register rules from the old values, then the process rules, and take
//! the maximum over every set. In both full and rolling mode the tracker
//! must agree with it snapshot for snapshot and round for round, on every
//! shipped deterministic and randomized wakeup algorithm and on a
//! move-heavy algorithm whose rounds mix all four operation groups over
//! few registers (so rules R3 and P4 read flow sources that are
//! themselves rewritten in the same round).

use llsc_lowerbound::core::{
    build_all_run, flow_report, AdversaryConfig, OpSummary, ProcSet, RoundRecord, UpSnapshot,
    UpTracker,
};
use llsc_lowerbound::shmem::dsl::{done, ll, mv, sc, swap, validate, Step};
use llsc_lowerbound::shmem::{
    Algorithm, FnAlgorithm, OpKind, ProcessId, RegisterId, SeededTosses, TossAssignment, Value,
    ZeroTosses,
};
use llsc_lowerbound::wakeup::{correct_algorithms, randomized_algorithms};
use std::sync::Arc;

/// The process whose SC on `r` succeeded in `rec`'s round, if one did.
fn winner(rec: &RoundRecord, r: RegisterId) -> Option<ProcessId> {
    let won = |o: &&OpSummary| o.kind == OpKind::Sc && o.sc_ok == Some(true);
    rec.ops
        .iter()
        .filter(won)
        .find(|o| o.register == r)
        .map(|o| o.p)
}

/// The processes that swapped `r` in `rec`'s round, in execution order.
fn swappers(rec: &RoundRecord, r: RegisterId) -> Vec<ProcessId> {
    let swaps = rec.ops.iter().filter(|o| o.kind == OpKind::Swap);
    swaps.filter(|o| o.register == r).map(|o| o.p).collect()
}

/// The round-`r` snapshot from the round-`(r-1)` one, by the paper's
/// rules, reading every old value from an untouched copy.
fn reference_next(prev: &UpSnapshot, rec: &RoundRecord) -> UpSnapshot {
    let mut next = prev.clone();
    // Every register that moves landed in is a key of the flow report.
    let flows = flow_report(&rec.sigma, &rec.move_config);
    let moved_in = |r: RegisterId| -> ProcSet {
        let (src, mvs) = flows
            .get(&r)
            .map_or((r, &[][..]), |(src, mvs)| (*src, mvs.as_slice()));
        let mut up = prev.reg(src).clone();
        for &q in mvs {
            up.union_with(prev.proc(q));
        }
        up
    };

    let mut affected: Vec<RegisterId> = rec
        .ops
        .iter()
        .filter(|o| o.sc_ok == Some(true) || o.kind == OpKind::Swap)
        .map(|o| o.register)
        .chain(flows.keys().copied())
        .collect();
    affected.sort_unstable();
    affected.dedup();
    for r in affected {
        let new_up = if let Some(p) = winner(rec, r) {
            prev.proc(p).clone()
        } else if let Some(&last) = swappers(rec, r).last() {
            prev.proc(last).clone()
        } else {
            moved_in(r)
        };
        if new_up.is_empty() {
            next.regs.remove(&r);
        } else {
            next.regs.insert(r, new_up);
        }
    }

    for op in &rec.ops {
        let (p, r) = (op.p, op.register);
        let learned: ProcSet = match op.kind {
            OpKind::Ll | OpKind::Validate => prev.reg(r).clone(),
            OpKind::Move => ProcSet::new(),
            OpKind::Swap => {
                let swappers = swappers(rec, r);
                match swappers.iter().position(|q| *q == p).unwrap() {
                    0 if flows.contains_key(&r) => moved_in(r),
                    0 => prev.reg(r).clone(),
                    i => prev.proc(swappers[i - 1]).clone(),
                }
            }
            OpKind::Sc if op.sc_ok == Some(true) => prev.reg(r).clone(),
            OpKind::Sc => next.reg(r).clone(),
        };
        next.procs[p.0].union_with(&learned);
    }
    next
}

/// Every process runs `k` operations; in any one round the processes are
/// spread over all four groups, and with `m = n / 3` registers many moves
/// share a destination and read registers that other moves write.
fn churn(p: usize, m: u64, k: usize) -> Step {
    if k == 0 {
        return done(Value::from(p as i64));
    }
    let reg = |i: usize| RegisterId((p + k + i) as u64 % m);
    let (here, next) = (reg(0), reg(1));
    let then = move || churn(p, m, k - 1);
    match (p + k) % 5 {
        0 | 1 => mv(here, next, then),
        2 => swap(next, Value::from(p as i64), move |_| then()),
        3 => ll(here, move |_| {
            sc(here, Value::from(k as i64), move |_, _| then())
        }),
        _ => validate(here, move |_, _| then()),
    }
}

fn move_heavy() -> impl Algorithm {
    FnAlgorithm::new("move-heavy", |pid: ProcessId, n| {
        churn(pid.0, (n as u64 / 3).max(2), 12).into_program()
    })
}

/// Checks `alg` at `n` against the reference and returns how many of its
/// rounds had (a) a move whose flow source is rewritten in the same round
/// and (b) a swap on a register that moves landed in (rule P4).
fn check(alg: &dyn Algorithm, n: usize, toss: Arc<dyn TossAssignment>) -> (usize, usize) {
    let cfg = AdversaryConfig {
        record_snapshots: false,
        ..AdversaryConfig::default()
    };
    let all = build_all_run(alg, n, toss, &cfg).unwrap();
    let name = alg.name();
    assert!(all.base.completed, "{name} n={n}");
    let mut rolling = UpTracker::new_rolling(n);
    let mut reference = UpTracker::new(n).snapshot(0).clone();
    let (mut rewritten_sources, mut p4_rounds) = (0, 0);
    for (i, rec) in all.base.rounds.iter().enumerate() {
        let r = i + 1;
        reference = reference_next(&reference, rec);
        rolling.apply_round(rec);
        let max = reference
            .procs
            .iter()
            .chain(reference.regs.values())
            .map(ProcSet::len)
            .max()
            .unwrap_or(0);
        assert_eq!(all.up.snapshot(r), &reference, "{name} n={n} full r={r}");
        assert_eq!(rolling.current(), &reference, "{name} n={n} rolling r={r}");
        assert_eq!(all.up.max_up_size(r), max, "{name} n={n} full max r={r}");
        assert_eq!(
            rolling.max_up_size(r),
            max,
            "{name} n={n} rolling max r={r}"
        );

        let flows = flow_report(&rec.sigma, &rec.move_config);
        let written = |reg: &RegisterId| {
            winner(rec, *reg).is_some()
                || !swappers(rec, *reg).is_empty()
                || flows.contains_key(reg)
        };
        rewritten_sources += usize::from(flows.values().any(|(src, _)| written(src)));
        p4_rounds += usize::from(flows.keys().any(|&r| !swappers(rec, r).is_empty()));
    }
    (rewritten_sources, p4_rounds)
}

#[test]
fn tracker_matches_the_whole_snapshot_reference() {
    let (mut rewritten_sources, mut p4_rounds) = (0, 0);
    for n in [5, 12, 130, 300] {
        for alg in correct_algorithms() {
            check(alg.as_ref(), n, Arc::new(ZeroTosses));
        }
        for alg in randomized_algorithms() {
            check(alg.as_ref(), n, Arc::new(SeededTosses::new(n as u64)));
        }
        let (a, b) = check(&move_heavy(), n, Arc::new(ZeroTosses));
        rewritten_sources += a;
        p4_rounds += b;
    }
    assert!(rewritten_sources > 0, "no move read a rewritten register");
    assert!(p4_rounds > 0, "no swap followed moves into its register");
}
