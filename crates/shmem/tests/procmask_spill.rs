//! `ProcMask` spill-path coverage: systems larger than the 128-bit fast
//! word.
//!
//! The subset sweeps cap `n` at 16, so the unit tests around them barely
//! leave the inline word; the scaling experiments push `n` past 128,
//! where ids spill into the extension vector. These tests pin down the
//! spill path's semantics: canonical `Eq`/`Hash` regardless of history,
//! set algebra agreeing with a `BTreeSet` oracle, and an end-to-end
//! executor run at `n = 130` whose LL/SC `Pset`s genuinely span the
//! boundary.

use llsc_shmem::dsl::{done, ll, sc};
use llsc_shmem::rng::XorShift64;
use llsc_shmem::{
    Executor, ExecutorConfig, FnAlgorithm, ProcMask, ProcessId, RegisterId, RoundRobinScheduler,
    RunOutcome, Value, ZeroTosses,
};
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};

fn hash_of(mask: &ProcMask) -> u64 {
    let mut h = DefaultHasher::new();
    mask.hash(&mut h);
    h.finish()
}

fn mask_of(oracle: &BTreeSet<usize>) -> ProcMask {
    oracle.iter().map(|&i| ProcessId(i)).collect()
}

#[test]
fn spilled_then_emptied_masks_are_canonically_equal() {
    // A mask that allocated spill blocks and then lost them must compare
    // and hash equal to one that never spilled: trailing zero blocks are
    // trimmed, not kept as history.
    let empty = ProcMask::new();
    let mut scarred = ProcMask::new();
    for id in [130, 260, 400] {
        assert!(scarred.insert(ProcessId(id)));
    }
    for id in [130, 260, 400] {
        assert!(scarred.remove(ProcessId(id)));
    }
    assert_eq!(scarred, empty);
    assert_eq!(hash_of(&scarred), hash_of(&empty));

    // Same with only the fast word still occupied.
    let mut low_only = ProcMask::new();
    low_only.insert(ProcessId(5));
    let mut was_wide = ProcMask::new();
    was_wide.insert(ProcessId(5));
    was_wide.insert(ProcessId(300));
    was_wide.remove(ProcessId(300));
    assert_eq!(was_wide, low_only);
    assert_eq!(hash_of(&was_wide), hash_of(&low_only));
    assert_eq!(format!("{was_wide:?}"), format!("{low_only:?}"));
}

#[test]
fn insertion_order_does_not_affect_equality_or_hash() {
    let ids = [0usize, 127, 128, 129, 255, 256, 300];
    let forward: ProcMask = ids.iter().map(|&i| ProcessId(i)).collect();
    let backward: ProcMask = ids.iter().rev().map(|&i| ProcessId(i)).collect();
    assert_eq!(forward, backward);
    assert_eq!(hash_of(&forward), hash_of(&backward));
    assert_eq!(
        forward.iter().collect::<Vec<_>>(),
        ids.iter().map(|&i| ProcessId(i)).collect::<Vec<_>>(),
        "iteration is ascending across the spill boundary"
    );
}

#[test]
fn union_and_intersection_match_a_btreeset_oracle() {
    // Deterministic random sets spanning 0..320 (fast word + 2 spill
    // blocks): every mask-level union/intersection must agree with the
    // BTreeSet it replaced, element for element.
    let mut rng = XorShift64::new(0x5EED);
    for round in 0..50 {
        let mut oracle_a = BTreeSet::new();
        let mut oracle_b = BTreeSet::new();
        for _ in 0..rng.index(40) {
            oracle_a.insert(rng.index(320));
        }
        for _ in 0..rng.index(40) {
            oracle_b.insert(rng.index(320));
        }
        let a = mask_of(&oracle_a);
        let b = mask_of(&oracle_b);

        let mut union = a.clone();
        union.union_with(&b);
        let union_oracle: BTreeSet<usize> = oracle_a.union(&oracle_b).copied().collect();
        assert_eq!(union, mask_of(&union_oracle), "round {round}: union");
        assert_eq!(union.len(), union_oracle.len());

        // The intersection, filtered at mask level across spill blocks.
        let inter: ProcMask = a.iter().filter(|&p| b.contains(p)).collect();
        let inter_oracle: BTreeSet<usize> = oracle_a.intersection(&oracle_b).copied().collect();
        assert_eq!(inter, mask_of(&inter_oracle), "round {round}: intersection");
        assert_eq!(inter.len(), inter_oracle.len());
        assert_eq!(
            hash_of(&inter),
            hash_of(&mask_of(&inter_oracle)),
            "round {round}: intersection is canonical"
        );

        // Algebraic sanity on the same pair.
        assert!(inter.is_subset(&a) && inter.is_subset(&b));
        assert!(union.is_superset(&a) && union.is_superset(&b));
    }
}

#[test]
fn executor_smoke_run_at_n_130_crosses_the_spill_boundary() {
    // 130 processes all LL register 0 (its Pset then holds ids past 128),
    // then race their SCs: exactly one must win, everyone terminates, and
    // the run classifies as Completed.
    let alg = FnAlgorithm::new("contending-sc-130", |pid: ProcessId, _n| {
        let r = RegisterId(0);
        ll(r, move |_prev| {
            sc(r, Value::from(pid.0 as i64), |ok, _prev| {
                done(Value::from(ok))
            })
        })
        .into_program()
    });
    let n = 130;
    let mut exec = Executor::new(
        &alg,
        n,
        std::sync::Arc::new(ZeroTosses),
        ExecutorConfig::default(),
    );
    let mut sched = RoundRobinScheduler::new();
    exec.drive(&mut sched, 100_000).unwrap();
    assert_eq!(exec.run_outcome(), RunOutcome::Completed);
    let winners = (0..n)
        .filter(|&i| exec.verdict(ProcessId(i)) == Some(&Value::from(true)))
        .count();
    assert_eq!(winners, 1, "exactly one SC succeeds among 130 processes");
}

#[test]
fn random_operation_sequences_match_a_btreeset_oracle() {
    // Seeded random insert/remove/union/intersect sequences over ids in
    // 0..4096, with far-apart pairs like {5, 3000} mixed in: the spill
    // window must agree with the BTreeSet oracle on length, iteration
    // order, membership and subset tests in both directions, and stay
    // canonical (a set emptied by `remove` equals and hashes like `new`).
    const IDS: usize = 4096;
    let mut rng = XorShift64::new(0xC0FFEE);
    let far_pairs = [(5, 3000), (127, 128), (200, 4095), (0, 2048), (3999, 131)];
    for case in 0..200 {
        let mut oracle: BTreeSet<usize> = BTreeSet::new();
        let mut mask = ProcMask::new();
        let (a, b) = far_pairs[case % far_pairs.len()];
        for id in [a, b] {
            assert_eq!(mask.insert(ProcessId(id)), oracle.insert(id));
        }
        for step in 0..60 {
            // A sparse or clustered partner set for the binary operations.
            let base = rng.index(IDS);
            let spread = [8, 300, IDS][rng.index(3)];
            let other_oracle: BTreeSet<usize> = (0..rng.index(12))
                .map(|_| (base + rng.index(spread)) % IDS)
                .collect();
            let other = mask_of(&other_oracle);
            match rng.index(5) {
                0 | 1 => {
                    let id = rng.index(IDS);
                    assert_eq!(mask.insert(ProcessId(id)), oracle.insert(id));
                }
                2 => {
                    // Remove mostly present ids so sets really empty out.
                    let id = match oracle.iter().nth(rng.index(oracle.len() + 1)) {
                        Some(&id) => id,
                        None => rng.index(IDS),
                    };
                    assert_eq!(mask.remove(ProcessId(id)), oracle.remove(&id));
                }
                3 => {
                    mask.union_with(&other);
                    oracle.extend(other_oracle.iter().copied());
                }
                _ => {
                    mask = mask.iter().filter(|&p| other.contains(p)).collect();
                    oracle.retain(|id| other_oracle.contains(id));
                }
            }
            let ctx = format!("case {case} step {step}");
            assert_eq!(mask.len(), oracle.len(), "{ctx}: len");
            assert_eq!(
                mask.iter().map(|p| p.0).collect::<Vec<_>>(),
                oracle.iter().copied().collect::<Vec<_>>(),
                "{ctx}: iteration order"
            );
            for probe in [a, b, base, rng.index(IDS)] {
                assert_eq!(
                    mask.contains(ProcessId(probe)),
                    oracle.contains(&probe),
                    "{ctx}: contains {probe}"
                );
            }
            assert_eq!(
                mask.is_subset(&other),
                oracle.is_subset(&other_oracle),
                "{ctx}: self <= other"
            );
            assert_eq!(
                other.is_subset(&mask),
                other_oracle.is_subset(&oracle),
                "{ctx}: other <= self"
            );
            let rebuilt = mask_of(&oracle);
            assert_eq!(mask, rebuilt, "{ctx}: canonical form");
            assert_eq!(hash_of(&mask), hash_of(&rebuilt), "{ctx}: canonical hash");
            assert_eq!(mask.is_empty(), oracle.is_empty(), "{ctx}: is_empty");
        }
        // Emptied by `remove`, the set is the empty set.
        for id in std::mem::take(&mut oracle) {
            assert!(mask.remove(ProcessId(id)));
        }
        assert_eq!(mask, ProcMask::new(), "case {case}: emptied by remove");
        assert_eq!(hash_of(&mask), hash_of(&ProcMask::new()));
    }
}

#[test]
fn a_far_spilled_singleton_matches_a_near_one() {
    // {p} spills one word wherever p lies, and far-apart members
    // compose by union in either order.
    let far: ProcMask = [ProcessId(5), ProcessId(3000)].into();
    let mut built = ProcMask::from([ProcessId(3000)]);
    built.union_with(&ProcMask::from([ProcessId(5)]));
    assert_eq!(built, far);
    let mut other_way = ProcMask::from([ProcessId(5)]);
    other_way.union_with(&ProcMask::from([ProcessId(3000)]));
    assert_eq!(other_way, far);
    assert_eq!(hash_of(&other_way), hash_of(&far));
    assert!(ProcMask::from([ProcessId(3000)]).is_subset(&far));
    assert!(!far.is_subset(&ProcMask::from([ProcessId(3000)])));
    assert!(!ProcMask::from([ProcessId(2999)]).is_subset(&far));
}
