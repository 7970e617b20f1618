//! Backend conformance suite: the paper's LL/SC/VL/swap/move semantics,
//! checked against *both* [`ExecutionBackend`] implementations — the
//! deterministic simulator (`SimBackend`) and the CAS-based hardware
//! memory (`HwMemory`). Each property test runs over every backend a
//! factory yields, so a divergence names the backend that broke it.

use llsc_atomics::{run_threads_watchdog, HwMemory};
use llsc_shmem::{
    dsl, ConstantTosses, ExecutionBackend, FaultPlan, FnAlgorithm, Operation, ProcessId,
    RegisterId, Response, SeededTosses, SimBackend, TossAssignment, Value, ZeroTosses,
};
use std::sync::Arc;
use std::time::Duration;

const R: RegisterId = RegisterId(0);

/// A deadline no terminating run here comes near; it only bounds a hang.
const DEADLINE: Duration = Duration::from_secs(300);

fn p(i: usize) -> ProcessId {
    ProcessId(i)
}

fn both(n: usize) -> Vec<Box<dyn ExecutionBackend>> {
    let toss: Arc<dyn TossAssignment> = Arc::new(ZeroTosses);
    vec![
        Box::new(SimBackend::new(n, toss.clone())),
        Box::new(HwMemory::new(n, toss)),
    ]
}

fn ll(b: &dyn ExecutionBackend, pid: usize) -> Value {
    match b.apply(p(pid), &Operation::Ll(R)) {
        Response::Value(v) => v,
        other => panic!("[{}] LL returned {other:?}", b.backend_name()),
    }
}

fn sc(b: &dyn ExecutionBackend, pid: usize, v: i64) -> (bool, Value) {
    match b.apply(p(pid), &Operation::Sc(R, Value::from(v))) {
        Response::Flagged { ok, value } => (ok, value),
        other => panic!("[{}] SC returned {other:?}", b.backend_name()),
    }
}

fn vl(b: &dyn ExecutionBackend, pid: usize) -> (bool, Value) {
    match b.apply(p(pid), &Operation::Validate(R)) {
        Response::Flagged { ok, value } => (ok, value),
        other => panic!("[{}] validate returned {other:?}", b.backend_name()),
    }
}

#[test]
fn ll_sees_initial_value_and_sc_installs() {
    for b in both(2) {
        let name = b.backend_name();
        assert_eq!(ll(b.as_ref(), 0), Value::Unit, "[{name}] initial LL");
        let (ok, prev) = sc(b.as_ref(), 0, 7);
        assert!(ok, "[{name}] SC after own LL must succeed");
        assert_eq!(
            prev,
            Value::Unit,
            "[{name}] strong SC reports pre-write value"
        );
        assert_eq!(b.peek(R), Value::from(7i64), "[{name}] SC installed");
    }
}

#[test]
fn sc_without_ll_fails_with_current_value() {
    for b in both(2) {
        let name = b.backend_name();
        let (ok, current) = sc(b.as_ref(), 0, 3);
        assert!(!ok, "[{name}] SC with no link must fail");
        assert_eq!(
            current,
            Value::Unit,
            "[{name}] failed SC reports current value"
        );
        assert_eq!(b.peek(R), Value::Unit, "[{name}] failed SC writes nothing");
    }
}

#[test]
fn sc_after_conflicting_sc_fails() {
    for b in both(2) {
        let name = b.backend_name();
        ll(b.as_ref(), 0);
        ll(b.as_ref(), 1);
        let (ok, _) = sc(b.as_ref(), 1, 10);
        assert!(ok, "[{name}] first SC wins");
        let (ok, current) = sc(b.as_ref(), 0, 20);
        assert!(!ok, "[{name}] SC after conflicting SC must fail");
        assert_eq!(
            current,
            Value::from(10i64),
            "[{name}] failed SC reports the winner's value"
        );
        assert_eq!(
            b.peek(R),
            Value::from(10i64),
            "[{name}] loser wrote nothing"
        );
    }
}

#[test]
fn validate_tracks_link_validity() {
    for b in both(2) {
        let name = b.backend_name();
        // Unlinked: invalid.
        let (ok, _) = vl(b.as_ref(), 0);
        assert!(!ok, "[{name}] validate without LL is invalid");
        // Linked, no intervening write: valid, and non-destructive.
        ll(b.as_ref(), 0);
        let (ok, value) = vl(b.as_ref(), 0);
        assert!(ok, "[{name}] validate after own LL");
        assert_eq!(
            value,
            Value::Unit,
            "[{name}] validate reports current value"
        );
        let (ok, _) = vl(b.as_ref(), 0);
        assert!(ok, "[{name}] validate does not consume the link");
        // A conflicting SC invalidates, and validate sees the new value.
        ll(b.as_ref(), 1);
        let (ok, _) = sc(b.as_ref(), 1, 5);
        assert!(ok, "[{name}] conflicting SC");
        let (ok, value) = vl(b.as_ref(), 0);
        assert!(!ok, "[{name}] validate after conflicting SC is invalid");
        assert_eq!(
            value,
            Value::from(5i64),
            "[{name}] validate reports new value"
        );
        // ... and the stale link cannot SC.
        let (ok, _) = sc(b.as_ref(), 0, 6);
        assert!(!ok, "[{name}] stale link cannot SC");
    }
}

#[test]
fn swap_returns_previous_and_breaks_links() {
    for b in both(2) {
        let name = b.backend_name();
        ll(b.as_ref(), 0);
        let prev = match b.apply(p(1), &Operation::Swap(R, Value::from(9i64))) {
            Response::Value(v) => v,
            other => panic!("[{name}] swap returned {other:?}"),
        };
        assert_eq!(prev, Value::Unit, "[{name}] swap reports previous value");
        assert_eq!(b.peek(R), Value::from(9i64), "[{name}] swap installs");
        let (ok, _) = vl(b.as_ref(), 0);
        assert!(!ok, "[{name}] swap invalidates every link");
    }
}

#[test]
fn move_copies_src_to_dst_and_breaks_dst_links() {
    let src = RegisterId(1);
    for b in both(2) {
        let name = b.backend_name();
        // Seed src with a value via swap; link process 0 on dst (= R).
        b.apply(p(0), &Operation::Swap(src, Value::from(42i64)));
        ll(b.as_ref(), 0);
        match b.apply(p(1), &Operation::Move { src, dst: R }) {
            Response::Ack => {}
            other => panic!("[{name}] move returned {other:?}"),
        }
        assert_eq!(
            b.peek(R),
            Value::from(42i64),
            "[{name}] move copied src to dst"
        );
        assert_eq!(
            b.peek(src),
            Value::from(42i64),
            "[{name}] move leaves src alone"
        );
        let (ok, _) = vl(b.as_ref(), 0);
        assert!(!ok, "[{name}] move invalidates dst links");
    }
}

#[test]
fn toss_is_deterministic_in_sim_mode_and_indexed_per_process() {
    let seed = 0xC0FFEE;
    let sim_a = SimBackend::new(3, Arc::new(SeededTosses::new(seed)));
    let sim_b = SimBackend::new(3, Arc::new(SeededTosses::new(seed)));
    assert!(sim_a.is_deterministic());
    let reference = SeededTosses::new(seed);
    for pid in 0..3 {
        for index in 0..8u64 {
            let a = sim_a.toss(p(pid));
            assert_eq!(a, sim_b.toss(p(pid)), "same seed, same toss stream");
            assert_eq!(a, reference.outcome(p(pid), index), "per-process indexing");
        }
    }
    // The hardware backend answers from the same assignment (so seeded
    // runs stay comparable) but advertises nondeterministic execution.
    let hw = HwMemory::new(3, Arc::new(SeededTosses::new(seed)));
    assert!(!hw.is_deterministic());
    for pid in 0..3 {
        for index in 0..8u64 {
            assert_eq!(hw.toss(p(pid)), reference.outcome(p(pid), index));
        }
    }
}

#[test]
fn initial_memory_and_constant_tosses_flow_through() {
    let toss: Arc<dyn TossAssignment> = Arc::new(ConstantTosses(3));
    let initial = vec![(RegisterId(4), Value::from(11i64))];
    let sim = SimBackend::new(2, toss.clone());
    let hw = HwMemory::new(2, toss).with_initial(initial);
    assert_eq!(hw.peek(RegisterId(4)), Value::from(11i64));
    assert_eq!(hw.toss(p(0)), 3);
    assert_eq!(sim.toss(p(0)), 3);
    // Registers outside the initial layout start at Unit on both.
    assert_eq!(sim.peek(RegisterId(4)), Value::Unit);
    assert_eq!(hw.peek(RegisterId(5)), Value::Unit);
}

/// ProcMask round-trip through the trait beyond one mask word: with
/// n = 130 processes every LL must register as linked (`linked(p, r)`
/// reads the Pset through the backend), and a single successful SC must
/// clear all 130 at once. On the simulator side this exercises the
/// multi-word ProcMask spill; on hardware, tag-equality as the implicit
/// Pset.
#[test]
fn pset_roundtrip_at_n_beyond_mask_word() {
    let n = 130;
    for b in both(n) {
        let name = b.backend_name();
        for pid in 0..n {
            assert!(!b.linked(p(pid), R), "[{name}] nobody linked before LL");
        }
        for pid in 0..n {
            ll(b.as_ref(), pid);
        }
        for pid in 0..n {
            assert!(b.linked(p(pid), R), "[{name}] p{pid} linked after LL");
        }
        let (ok, _) = sc(b.as_ref(), 129, 1);
        assert!(ok, "[{name}] SC by p129 succeeds");
        for pid in 0..n {
            assert!(
                !b.linked(p(pid), R),
                "[{name}] p{pid} unlinked after conflicting SC"
            );
        }
        assert_eq!(
            b.shared_accesses(p(129)),
            2,
            "[{name}] access counter: one LL + one SC"
        );
        assert_eq!(
            b.shared_accesses(p(0)),
            1,
            "[{name}] access counter: one LL"
        );
    }
}

/// The classic LL/SC counter under genuine multi-thread contention: n
/// threads each retry LL;SC(+1) until they land `rounds` increments.
/// Every SC success is an atomic increment, so the final value must be
/// exactly `n * rounds` — lost updates would betray a broken SC.
#[test]
fn hardware_llsc_counter_loses_no_updates() {
    let n = 4;
    let rounds = 200i64;
    let counter = FnAlgorithm::new("llsc-counter", move |_pid, _n| {
        fn attempt(left: i64) -> dsl::Step {
            if left == 0 {
                return dsl::done(Value::Unit);
            }
            dsl::ll(R, move |v| {
                let next = v.as_int().unwrap_or(0) + 1;
                dsl::sc(R, Value::from(next), move |ok, _| {
                    attempt(if ok { left - 1 } else { left })
                })
            })
        }
        attempt(rounds).into_program()
    });
    let mem = HwMemory::for_algorithm(&counter, n, Arc::new(ZeroTosses));
    mem.set_recording(false);
    let run =
        run_threads_watchdog(&counter, &mem, 10_000_000, DEADLINE).expect("counter terminates");
    assert_eq!(
        mem.peek(R),
        Value::from(n as i64 * rounds),
        "no increment may be lost"
    );
    assert!(
        run.max_ops() >= 2 * rounds as u64,
        "at least LL+SC per round"
    );
    for r in &run.results {
        assert!(r.first_step_at.is_some());
        assert!(r.invoked_at < r.responded_at, "clock stamps are ordered");
    }
}

/// A spurious SC failure behaves exactly like a lost reservation, even
/// past one ProcMask word: with n = 130 every process links, the
/// targeted process's SC is suppressed (fails, writes nothing, drops
/// only its own link — the other 129 links survive the spill word), and
/// the consumed entry lets the retried SC through.
#[test]
fn spurious_sc_beyond_mask_word_drops_only_the_victims_link() {
    let n = 130;
    let victim = 129;
    // `with_faults` deals entry `i` to process `i mod n`, due from that
    // process's first access; only the victim ever SCs, so only its
    // entry fires.
    let mem = HwMemory::new(n, Arc::new(ZeroTosses)).with_faults(&FaultPlan::at(vec![0; n], [], 1));
    for pid in 0..n {
        ll(&mem, pid);
    }
    let (ok, current) = sc(&mem, victim, 7);
    assert!(!ok, "the armed entry suppresses the SC");
    assert_eq!(
        current,
        Value::Unit,
        "a suppressed SC reports the current value"
    );
    assert_eq!(mem.peek(R), Value::Unit, "a suppressed SC writes nothing");
    assert_eq!(mem.fault_stats().spurious_sc, 1, "one delivery recorded");
    assert!(
        !mem.linked(p(victim), R),
        "the victim's own link is consumed"
    );
    for pid in 0..victim {
        assert!(
            mem.linked(p(pid), R),
            "p{pid}'s link survives a peer's spurious failure"
        );
    }
    // The entry is spent: the retried LL;SC goes through and clears the
    // whole 130-process Pset.
    ll(&mem, victim);
    let (ok, _) = sc(&mem, victim, 7);
    assert!(ok, "the retry after the consumed entry succeeds");
    assert_eq!(mem.peek(R), Value::from(7i64));
    for pid in 0..n {
        assert!(!mem.linked(p(pid), R), "p{pid} unlinked by the real SC");
    }
}

/// Injected corruption mutates the stored value *within its type* (an
/// Int stays an Int, a Bool flips), in both delivery modes: the
/// in-place rewrite leaves outstanding links valid (they now vouch for
/// a corrupted value), the clearing install moves the tag and drops
/// them.
#[test]
fn corruption_preserves_value_type_in_both_modes() {
    let int_r = RegisterId(0);
    let bool_r = RegisterId(1);
    // A plan's lone entry goes to p0, due at its first access; p1 links
    // both registers first.
    let armed = |clear: bool| {
        let mem =
            HwMemory::new(2, Arc::new(ZeroTosses)).with_faults(&FaultPlan::at([], [(0, clear)], 9));
        mem.apply(p(1), &Operation::Swap(int_r, Value::from(42i64)));
        mem.apply(p(1), &Operation::Swap(bool_r, Value::Bool(true)));
        mem.apply(p(1), &Operation::Ll(int_r));
        mem.apply(p(1), &Operation::Ll(bool_r));
        mem
    };
    // p0's access observes int_r: the non-clearing entry rewrites the
    // published slot in place.
    let mem = armed(false);
    let observed = match mem.apply(p(0), &Operation::Ll(int_r)) {
        Response::Value(v) => v,
        other => panic!("LL returned {other:?}"),
    };
    assert!(
        matches!(observed, Value::Int(_)),
        "corruption keeps the Int type, got {observed:?}"
    );
    assert_ne!(observed, Value::from(42i64), "the value did change");
    assert_eq!(mem.peek(int_r), observed, "rewritten in place, no install");
    assert!(
        mem.linked(p(1), int_r),
        "in-place corruption leaves links valid (vouching for a corrupted value)"
    );
    assert_eq!(mem.fault_stats().corruptions, 1);
    // p0's access observes bool_r: the clearing entry installs the
    // corrupted value, so the tag moves and p1's link drops.
    let mem = armed(true);
    mem.apply(p(0), &Operation::Validate(bool_r));
    assert_eq!(
        mem.peek(bool_r),
        Value::Bool(false),
        "a corrupted Bool is the flipped Bool"
    );
    assert!(
        !mem.linked(p(1), bool_r),
        "the clearing mode invalidates outstanding links"
    );
    assert_eq!(mem.fault_stats().corruptions, 1);
}

/// The delivered fault stream is a pure function of `(algorithm, plan,
/// n)`: two multi-threaded runs of a contention-free program (each
/// process owns its register, so its operation sequence cannot depend
/// on the OS interleaving) deliver byte-identical per-process fault
/// histories, final register values included — the property `split_plan`
/// exists to provide.
#[test]
fn fault_delivery_is_seed_deterministic_across_interleavings() {
    let n = 4;
    let rounds = 10i64;
    let own_counter = FnAlgorithm::new("own-register-counter", move |pid, _n| {
        let own = RegisterId(pid.0 as u64);
        fn attempt(own: RegisterId, left: i64) -> dsl::Step {
            if left == 0 {
                return dsl::done(Value::Unit);
            }
            dsl::ll(own, move |v| {
                let next = v.as_int().unwrap_or(0) + 1;
                dsl::sc(own, Value::from(next), move |ok, _| {
                    attempt(own, if ok { left - 1 } else { left })
                })
            })
        }
        attempt(own, rounds).into_program()
    });
    let plan = FaultPlan::seeded(0xE20, 8, 4, 200);
    let run_once = || {
        let mem = HwMemory::for_algorithm(&own_counter, n, Arc::new(ZeroTosses)).with_faults(&plan);
        run_threads_watchdog(&own_counter, &mem, 100_000, DEADLINE).expect("terminates");
        let stats = mem.fault_stats();
        // Per-process (kind, payload) subsequences — the global stamps
        // are a race outcome, the per-process streams must not be.
        let events = mem.take_events();
        let per_process: Vec<Vec<String>> = (0..n)
            .map(|pid| {
                events
                    .iter()
                    .filter(|e| e.pid == p(pid))
                    .map(|e| format!("{:?}", e.kind))
                    .collect()
            })
            .collect();
        let finals: Vec<Value> = (0..n).map(|pid| mem.peek(RegisterId(pid as u64))).collect();
        (stats, per_process, finals)
    };
    let (stats_a, events_a, finals_a) = run_once();
    let (stats_b, events_b, finals_b) = run_once();
    assert!(stats_a.total() > 0, "the plan must actually deliver faults");
    assert_eq!(stats_a, stats_b, "same deliveries in both runs");
    assert_eq!(finals_a, finals_b, "same final registers in both runs");
    for pid in 0..n {
        assert_eq!(
            events_a[pid], events_b[pid],
            "p{pid}'s event stream must not depend on the interleaving"
        );
    }
}

/// The recorded hardware history is stamped in a total order consistent
/// with per-process program order.
#[test]
fn hardware_history_stamps_respect_program_order() {
    let alg = FnAlgorithm::new("two-steps", |_pid, _n| {
        dsl::ll(R, |_| {
            dsl::sc(R, Value::from(1i64), |_, _| dsl::done(Value::Unit))
        })
        .into_program()
    });
    let mem = HwMemory::for_algorithm(&alg, 3, Arc::new(ZeroTosses));
    run_threads_watchdog(&alg, &mem, 1000, DEADLINE).expect("terminates");
    let events = mem.take_events();
    assert_eq!(events.len(), 6, "three processes, two accesses each");
    assert!(
        events.windows(2).all(|w| w[0].at < w[1].at),
        "stamps unique & sorted"
    );
    for pid in 0..3 {
        let mine: Vec<_> = events.iter().filter(|e| e.pid == p(pid)).collect();
        assert_eq!(mine.len(), 2);
        assert!(mine[0].at < mine[1].at, "program order preserved");
    }
}
