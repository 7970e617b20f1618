//! The change index behind `RoundedRun::{tosses_at, history_at,
//! shared_steps_at}` against a dense reference.
//!
//! A rounded run keeps, per process, its counts at the end of the rounds
//! in which it acted. The reference below recomputes every process's
//! counts at the end of every round from the event log alone, cutting the
//! log into rounds with each round's record, and every accessor must
//! match it at every `(p, r)`: for All-runs, for S-runs built by one
//! reused `SRunBuilder`, and for All-runs recorded without details.

use llsc_lowerbound::core::{
    build_all_run, AdversaryConfig, AllRun, ProcSet, RoundedRun, SRunBuilder,
};
use llsc_lowerbound::shmem::{
    Algorithm, ProcessId, RunEvent, SeededTosses, TossAssignment, ZeroTosses,
};
use llsc_lowerbound::wakeup::{correct_algorithms, randomized_algorithms, strawman_algorithms};
use std::sync::Arc;

/// Per process: tosses, shared steps and history length, and the last
/// event of its history.
#[derive(Clone, Default)]
struct Dense<'a> {
    tosses: u64,
    shared_steps: u64,
    history_len: usize,
    last: Option<&'a RunEvent>,
}

/// Requires every accessor of `base` to equal the dense counts recomputed
/// from its event log, at every process and every round `0..=rounds`.
///
/// Round `r`'s events are its Phase-1 tosses and terminations, then each
/// of its operations, each followed by the operating process's
/// termination when the operation's response ended its program.
fn assert_matches_dense(base: &RoundedRun, what: &str) {
    let events = base.run.events();
    let mut dense = vec![Dense::default(); base.n];
    let mut k = 0;
    for r in 0..=base.num_rounds() {
        if r > 0 {
            let rec = &base.rounds[r - 1];
            let mut end = k
                + rec.phase1_tosses.values().sum::<u64>() as usize
                + rec.terminated_in_phase1.len();
            for op in &rec.ops {
                assert!(
                    matches!(&events[end], RunEvent::SharedOp { pid, .. } if *pid == op.p),
                    "{what} r={r}: event {end} is not {}'s operation",
                    op.p
                );
                end += 1;
                if matches!(events.get(end), Some(RunEvent::Terminated { pid, .. }) if *pid == op.p)
                {
                    end += 1;
                }
            }
            for ev in &events[k..end] {
                let d = &mut dense[ev.pid().0];
                match ev {
                    RunEvent::Toss { .. } => d.tosses += 1,
                    RunEvent::SharedOp { .. } => d.shared_steps += 1,
                    RunEvent::Terminated { .. } => {}
                }
                d.history_len += 1;
                d.last = Some(ev);
            }
            k = end;
        }
        for p in ProcessId::all(base.n) {
            let d = &dense[p.0];
            let at = format!("{what} {p} r={r}");
            assert_eq!(base.tosses_at(p, r), d.tosses, "{at}");
            assert_eq!(base.shared_steps_at(p, r), d.shared_steps, "{at}");
            let history = base.history_at(p, r);
            assert_eq!(history.len(), d.history_len, "{at}");
            assert_eq!(history.iter().last(), d.last, "{at}");
        }
    }
    assert_eq!(k, events.len(), "{what}: the rounds cover the log");
}

fn algorithms() -> Vec<Box<dyn Algorithm>> {
    correct_algorithms()
        .into_iter()
        .chain(randomized_algorithms())
        .chain(strawman_algorithms())
        .collect()
}

fn toss_assignments() -> [Arc<dyn TossAssignment>; 2] {
    [Arc::new(ZeroTosses), Arc::new(SeededTosses::new(7))]
}

/// The subsets each S-run builder is driven through, in an order that
/// makes the round count shrink and grow between builds: the full set,
/// single processes, halves, the evens, the empty set, and the winner's
/// `UP` sets after rounds 1 and 2.
fn subsets(all: &AllRun) -> Vec<ProcSet> {
    let n = all.n();
    let full = ProcSet::full(n);
    let mut sets = vec![
        full.clone(),
        ProcSet::from([ProcessId(0)]),
        (0..n / 2).map(ProcessId).collect(),
        full,
        ProcSet::from([ProcessId(n - 1)]),
        (0..n).step_by(2).map(ProcessId).collect(),
        ProcSet::new(),
        (n / 2..n).map(ProcessId).collect(),
    ];
    let winner = ProcessId::all(n).find(|&p| {
        let v = all.base.run.verdict(p);
        v.and_then(|v| v.as_int()) == Some(1)
    });
    if let Some(w) = winner {
        for r in 1..=2.min(all.up.rounds()) {
            sets.push(all.up.proc(w, r).clone());
        }
    }
    sets
}

#[test]
fn all_and_s_run_accessors_match_the_event_log() {
    let cfg = AdversaryConfig::default();
    for alg in algorithms() {
        let alg = alg.as_ref();
        for n in [4, 8, 33] {
            for toss in toss_assignments() {
                let what = format!("{} n={n}", alg.name());
                let all = build_all_run(alg, n, toss.clone(), &cfg).unwrap();
                assert_matches_dense(&all.base, &format!("{what} All-run"));
                let mut builder = SRunBuilder::new(alg, toss.clone(), &all, &cfg);
                for s in subsets(&all) {
                    let srun = builder.build(alg, &s, &all, &cfg).unwrap();
                    assert_matches_dense(&srun.base, &format!("{what} S={s:?}"));
                }
            }
        }
    }
}

#[test]
fn lightweight_all_runs_keep_the_same_counts() {
    let detailed = AdversaryConfig {
        track_up_history: false,
        record_snapshots: false,
        ..AdversaryConfig::default()
    };
    for alg in algorithms() {
        let alg = alg.as_ref();
        for n in [4, 8, 33] {
            for toss in toss_assignments() {
                let what = format!("{} n={n}", alg.name());
                let full = build_all_run(alg, n, toss.clone(), &detailed).unwrap();
                let light = build_all_run(alg, n, toss, &AdversaryConfig::lightweight()).unwrap();
                assert_eq!(full.base.num_rounds(), light.base.num_rounds(), "{what}");
                for p in ProcessId::all(n) {
                    // The same entries, without history lengths.
                    let stripped: Vec<_> = full
                        .base
                        .changes
                        .entries(p)
                        .iter()
                        .map(|&c| (c.round, 0, c.tosses, c.shared_steps))
                        .collect();
                    let light_entries: Vec<_> = light
                        .base
                        .changes
                        .entries(p)
                        .iter()
                        .map(|&c| (c.round, c.history_len, c.tosses, c.shared_steps))
                        .collect();
                    assert_eq!(light_entries, stripped, "{what} {p}");
                    for r in 0..=full.base.num_rounds() {
                        let at = format!("{what} {p} r={r}");
                        assert_eq!(
                            light.base.tosses_at(p, r),
                            full.base.tosses_at(p, r),
                            "{at}"
                        );
                        assert_eq!(
                            light.base.shared_steps_at(p, r),
                            full.base.shared_steps_at(p, r),
                            "{at}"
                        );
                        assert!(light.base.history_at(p, r).is_empty(), "{at}");
                    }
                }
            }
        }
    }
}

#[test]
fn the_index_holds_one_entry_per_acting_process_and_round() {
    // Each entry is a round in which its process tossed, performed an
    // operation or terminated, so the index is never larger than the
    // run's events; in the All-run every live process performs one
    // operation per round, so the entries are at least the operations.
    let cfg = AdversaryConfig::lightweight();
    for alg in algorithms() {
        for n in [8, 33] {
            let all = build_all_run(alg.as_ref(), n, Arc::new(ZeroTosses), &cfg).unwrap();
            let entries: u64 = ProcessId::all(n)
                .map(|p| all.base.changes.entries(p).len() as u64)
                .sum();
            let ops = all.base.run.counters().total_ops();
            let what = format!("{} n={n}", alg.name());
            assert!(entries >= ops, "{what}: {entries} entries < {ops} ops");
            assert!(entries <= all.base.run.event_count(), "{what}");
            for p in ProcessId::all(n) {
                let rounds: Vec<u32> = all
                    .base
                    .changes
                    .entries(p)
                    .iter()
                    .map(|c| c.round)
                    .collect();
                assert!(rounds.windows(2).all(|w| w[0] < w[1]), "{what} {p}");
            }
        }
    }
}
