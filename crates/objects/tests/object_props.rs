//! Model-based property tests for the object specifications.
//!
//! Each spec is compared against an independent reference model built from
//! std containers / native integer arithmetic: random operation sequences
//! must produce identical responses and equivalent final states.
//!
//! The random cases are driven by the repository's deterministic
//! [`XorShift64`] generator rather than an external property-testing
//! framework (the build environment is offline), so every run explores the
//! exact same case set; a failure message names the seed that produced it.

use llsc_objects::{
    apply_all, bits, Counter, FetchAdd, FetchAnd, FetchIncrement, FetchMultiply, FetchOr,
    ObjectSpec, Queue, RwRegister, Stack, SwapObject,
};
use llsc_shmem::rng::XorShift64;
use llsc_shmem::Value;
use std::collections::VecDeque;

const CASES: u64 = 128;

fn i64_vec(rng: &mut XorShift64, max_len: usize, lo: i64, hi: i64) -> Vec<i64> {
    let len = rng.index(max_len + 1);
    (0..len).map(|_| rng.range_i64(lo, hi)).collect()
}

/// Queue vs VecDeque.
#[test]
fn queue_matches_vecdeque() {
    for case in 0..CASES {
        let mut rng = XorShift64::new(0x0B7E + case);
        let initial = i64_vec(&mut rng, 4, -8, 8);
        let n_ops = rng.index(20);
        let q = Queue::with_items(initial.iter().copied().map(Value::from));
        let mut model: VecDeque<i64> = initial.into_iter().collect();
        let mut state = q.initial();
        for _ in 0..n_ops {
            if rng.chance(1, 2) {
                let v = rng.range_i64(-8, 8);
                let (next, resp) = q.apply(&state, &Queue::enqueue_op(Value::from(v)));
                state = next;
                model.push_back(v);
                assert_eq!(resp, Value::Unit, "seed {case}");
            } else {
                let (next, resp) = q.apply(&state, &Queue::dequeue_op());
                state = next;
                match model.pop_front() {
                    Some(v) => assert_eq!(resp, Value::from(v), "seed {case}"),
                    None => assert_eq!(resp, Value::Unit, "seed {case}"),
                }
            }
        }
        let final_items: Vec<i64> = state
            .as_tuple()
            .unwrap()
            .iter()
            .map(|v| v.as_int().unwrap() as i64)
            .collect();
        assert_eq!(
            final_items,
            model.into_iter().collect::<Vec<_>>(),
            "seed {case}"
        );
    }
}

/// Stack vs Vec.
#[test]
fn stack_matches_vec() {
    for case in 0..CASES {
        let mut rng = XorShift64::new(0x57AC + case);
        let n_ops = rng.index(20);
        let st = Stack::new();
        let mut model: Vec<i64> = Vec::new();
        let mut state = st.initial();
        for _ in 0..n_ops {
            if rng.chance(1, 2) {
                let v = rng.range_i64(-8, 8);
                let (next, _) = st.apply(&state, &Stack::push_op(Value::from(v)));
                state = next;
                model.push(v);
            } else {
                let (next, resp) = st.apply(&state, &Stack::pop_op());
                state = next;
                match model.pop() {
                    Some(v) => assert_eq!(resp, Value::from(v), "seed {case}"),
                    None => assert_eq!(resp, Value::Unit, "seed {case}"),
                }
            }
        }
    }
}

/// fetch&increment / fetch&add / counter vs native modular arithmetic.
#[test]
fn arithmetic_objects_match_native() {
    for case in 0..CASES {
        let mut rng = XorShift64::new(0xA217 + case);
        let k = 1 + rng.below(29) as u32;
        let addends = i64_vec(&mut rng, 19, -100, 100);
        let modulus = 1i128 << k;
        // fetch&add.
        let fa = FetchAdd::new(k);
        let ops: Vec<Value> = addends.iter().map(|&v| FetchAdd::op(v)).collect();
        let (state, resps) = apply_all(&fa, &ops);
        let mut acc: i128 = 0;
        for (v, resp) in addends.iter().zip(&resps) {
            assert_eq!(resp.as_int(), Some(acc), "seed {case}");
            acc = (acc + i128::from(*v)).rem_euclid(modulus);
        }
        assert_eq!(state.as_int(), Some(acc), "seed {case}");

        // fetch&increment = fetch&add(1).
        let fi = FetchIncrement::new(k);
        let n_incs = addends.len();
        let ops: Vec<Value> = (0..n_incs).map(|_| FetchIncrement::op()).collect();
        let (state, _) = apply_all(&fi, &ops);
        assert_eq!(
            state.as_int(),
            Some((n_incs as i128) % modulus),
            "seed {case}"
        );

        // counter increments likewise.
        let c = Counter::new(k);
        let ops: Vec<Value> = (0..n_incs).map(|_| Counter::increment_op()).collect();
        let (state, _) = apply_all(&c, &ops);
        assert_eq!(
            state.as_int(),
            Some((n_incs as i128) % modulus),
            "seed {case}"
        );
    }
}

/// Wide-word bit arithmetic vs u128 reference (for widths <= 128).
#[test]
fn bits_match_u128_reference() {
    for case in 0..CASES {
        let mut rng = XorShift64::new(0xB175 + case);
        let k = 1 + rng.index(127);
        let a = (rng.next_u64() as u128) | ((rng.next_u64() as u128) << 64);
        let b = (rng.next_u64() as u128) | ((rng.next_u64() as u128) << 64);
        let mask = if k == 128 {
            u128::MAX
        } else {
            (1u128 << k) - 1
        };
        let to_limbs = |x: u128| bits::and(&[x as u64, (x >> 64) as u64], &[u64::MAX; 2], k);
        let from_limbs = |w: &[u64]| -> u128 {
            (w.first().copied().unwrap_or(0) as u128)
                | ((w.get(1).copied().unwrap_or(0) as u128) << 64)
        };
        let (wa, wb) = (to_limbs(a), to_limbs(b));
        assert_eq!(
            from_limbs(&bits::add(&wa, &wb, k)),
            (a & mask).wrapping_add(b & mask) & mask,
            "seed {case}"
        );
        // fetch&multiply by a one-limb factor multiplies the wide state
        // and answers the state normalized to k bits.
        let (product, previous) =
            FetchMultiply::new(k).apply(&Value::bits(wa.clone()), &FetchMultiply::op(b as u64));
        assert_eq!(
            from_limbs(product.as_bits().unwrap()),
            (a & mask).wrapping_mul(u128::from(b as u64)) & mask,
            "seed {case}"
        );
        assert_eq!(previous.as_bits().unwrap(), wa.as_slice(), "seed {case}");
        assert_eq!(
            from_limbs(&bits::and(&wa, &wb, k)),
            a & b & mask,
            "seed {case}"
        );
        assert_eq!(
            from_limbs(&bits::or(&wa, &wb, k)),
            (a | b) & mask,
            "seed {case}"
        );
    }
}

/// fetch&and / fetch&or responses are the previous state, and the
/// state evolves by the corresponding bitwise law.
#[test]
fn bitwise_objects_follow_their_laws() {
    for case in 0..CASES {
        let mut rng = XorShift64::new(0xB17F + case);
        let k = 1 + rng.index(99);
        let masks: Vec<u64> = (0..1 + rng.index(9)).map(|_| rng.next_u64()).collect();
        let and_obj = FetchAnd::new(k);
        let or_obj = FetchOr::new(k);
        let mut and_state = and_obj.initial();
        let mut or_state = or_obj.initial();
        for m in &masks {
            let (next, prev) = and_obj.apply(&and_state, &FetchAnd::op(vec![*m]));
            assert_eq!(&prev, &and_state, "seed {case}");
            let expect = bits::and(and_state.as_bits().unwrap(), &[*m], k);
            assert_eq!(next.as_bits().unwrap(), expect.as_slice(), "seed {case}");
            and_state = next;

            let (next, prev) = or_obj.apply(&or_state, &FetchOr::op(vec![*m]));
            assert_eq!(&prev, &or_state, "seed {case}");
            let expect = bits::or(or_state.as_bits().unwrap(), &[*m], k);
            assert_eq!(next.as_bits().unwrap(), expect.as_slice(), "seed {case}");
            or_state = next;
        }
    }
}

/// fetch&multiply by powers of two is a shift; after >= k doublings
/// the state is zero.
#[test]
fn multiply_by_two_shifts() {
    for case in 0..CASES {
        let mut rng = XorShift64::new(0x2417 + case);
        let k = 2 + rng.index(148);
        let doublings = 1 + rng.index(199);
        let obj = FetchMultiply::new(k);
        let mut state = obj.initial();
        for _ in 0..doublings {
            let (next, _) = obj.apply(&state, &FetchMultiply::op(2));
            state = next;
        }
        let w = state.as_bits().unwrap();
        if doublings >= k {
            assert!(w.iter().all(|&limb| limb == 0), "seed {case}");
        } else {
            assert!(bits::bit(w, doublings), "seed {case}");
            assert_eq!(
                (0..k).filter(|&i| bits::bit(w, i)).count(),
                1,
                "seed {case}"
            );
        }
    }
}

/// Register and swap-object chain laws.
#[test]
fn register_and_swap_chains() {
    for case in 0..CASES {
        let mut rng = XorShift64::new(0x5EC5 + case);
        let len = 1 + rng.index(14);
        let values: Vec<i64> = (0..len).map(|_| rng.range_i64(-50, 50)).collect();
        let reg = RwRegister::new();
        let mut state = reg.initial();
        for v in &values {
            // `write(v)` is the operation `(31, v)`.
            let write = Value::tuple([Value::from(31i64), Value::from(*v)]);
            let (next, _) = reg.apply(&state, &write);
            state = next;
            let (_, read) = reg.apply(&state, &RwRegister::read_op());
            assert_eq!(read, Value::from(*v), "seed {case}");
        }

        let sw = SwapObject::new();
        let mut state = sw.initial();
        let mut prev_expect = Value::Unit;
        for v in &values {
            let (next, prev) = sw.apply(&state, &SwapObject::op(Value::from(*v)));
            assert_eq!(prev, prev_expect.clone(), "seed {case}");
            prev_expect = Value::from(*v);
            state = next;
        }
    }
}
