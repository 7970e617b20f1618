//! The Theorem 6.2 reductions: wakeup from a single shared object.
//!
//! Theorem 6.2's recipe: if type `T` lets `n` processes solve wakeup with
//! at most `k` operations each on one linearizable `T` object, then *any*
//! randomized linearizable implementation of `T` from
//! LL/SC/validate/move/swap memory inherits the `(1/k)·c·log₄ n` wakeup
//! lower bound (Corollary 6.1). This module contains, executably, every
//! reduction the paper lists:
//!
//! | [`ReductionKind`] | object (per `n`) | per-process op(s) | winner's evidence |
//! |---|---|---|---|
//! | `FetchIncrement` | `k ≥ log n`-bit fetch&increment, init 0 | `fetch&increment()` | response `n-1` |
//! | `FetchAnd` | `n`-bit fetch&and, init all-ones | clear own bit | response has only own bit set |
//! | `FetchOr` | `n`-bit fetch&or, init 0 | set own bit | response has all bits but its own |
//! | `FetchComplement` | `n`-bit fetch&complement, init 0 | flip own bit | response has all bits but its own |
//! | `FetchMultiply` | `n`-bit fetch&multiply, init 1 | `fetch&multiply(2)` | response `2^(n-1)` |
//! | `Queue` | queue holding `1..=n` | `dequeue()` | response `n` |
//! | `Stack` | stack with `n` at the bottom | `pop()` | response `n` |
//! | `ReadIncrement` | `k ≥ log n`-bit counter | `increment(); read()` | read `n` (two ops: `k = 2`) |
//!
//! For `FetchMultiply` the paper's decision rule ("if the response is 0,
//! return 1") matches a `k = n - 1`-bit object, where the `n`-th doubling's
//! *previous value* has already wrapped; with the theorem's stated
//! `k ≥ n` bits the equivalent rule is "response = 2^(n-1)", which is what
//! we implement (recorded in DESIGN.md).
//!
//! A [`ObjectWakeup`] instance plugs any
//! [`llsc_universal::ObjectImplementation`] under the reduction, so the
//! same wakeup algorithm can be run over the direct LL/SC object, the
//! Herlihy construction, or the ADT tree — experiment E7 sweeps them all.

use llsc_objects::{
    bits, Counter, FetchAnd, FetchComplement, FetchIncrement, FetchMultiply, FetchOr, ObjectSpec,
    Queue, Stack,
};
use llsc_shmem::dsl::{done, Step};
use llsc_shmem::{Algorithm, ProcessId, Program, RegisterId, Value};
use llsc_universal::{DirectLlSc, ObjectImplementation};
use std::fmt;
use std::sync::Arc;

/// The object types Theorem 6.2 derives the lower bound for.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ReductionKind {
    /// Case 1: `k`-bit fetch&increment, `k ≥ log n`.
    FetchIncrement,
    /// Case 2: `n`-bit fetch&and.
    FetchAnd,
    /// Case 2: `n`-bit fetch&or.
    FetchOr,
    /// Case 2: `n`-bit fetch&complement.
    FetchComplement,
    /// Case 2: `n`-bit fetch&multiply.
    FetchMultiply,
    /// Case 3: a queue initially holding `n` items.
    Queue,
    /// Case 3: a stack initially holding `n` items.
    Stack,
    /// Case 4: read + ack-only increment (two operations per process).
    ReadIncrement,
}

impl ReductionKind {
    /// All eight reductions, in the paper's order.
    pub fn all() -> [ReductionKind; 8] {
        [
            ReductionKind::FetchIncrement,
            ReductionKind::FetchAnd,
            ReductionKind::FetchOr,
            ReductionKind::FetchComplement,
            ReductionKind::FetchMultiply,
            ReductionKind::Queue,
            ReductionKind::Stack,
            ReductionKind::ReadIncrement,
        ]
    }

    /// `k`: the number of operations each process applies on the object.
    pub fn ops_per_process(&self) -> u32 {
        match self {
            ReductionKind::ReadIncrement => 2,
            _ => 1,
        }
    }

    /// A stable display name.
    pub fn label(&self) -> &'static str {
        match self {
            ReductionKind::FetchIncrement => "fetch&increment",
            ReductionKind::FetchAnd => "fetch&and",
            ReductionKind::FetchOr => "fetch&or",
            ReductionKind::FetchComplement => "fetch&complement",
            ReductionKind::FetchMultiply => "fetch&multiply",
            ReductionKind::Queue => "queue",
            ReductionKind::Stack => "stack",
            ReductionKind::ReadIncrement => "read+increment",
        }
    }

    /// The sequential specification Theorem 6.2 instantiates for `n`
    /// processes.
    pub fn spec_for(&self, n: usize) -> Arc<dyn ObjectSpec> {
        let bits_needed = (usize::BITS - n.max(1).leading_zeros()).max(1);
        match self {
            ReductionKind::FetchIncrement => Arc::new(FetchIncrement::new(bits_needed)),
            ReductionKind::FetchAnd => Arc::new(FetchAnd::new(n.max(1))),
            ReductionKind::FetchOr => Arc::new(FetchOr::new(n.max(1))),
            ReductionKind::FetchComplement => Arc::new(FetchComplement::new(n.max(1))),
            ReductionKind::FetchMultiply => Arc::new(FetchMultiply::new(n.max(1))),
            ReductionKind::Queue => Arc::new(Queue::with_numbered_items(n)),
            ReductionKind::Stack => Arc::new(Stack::with_numbered_items(n)),
            ReductionKind::ReadIncrement => Arc::new(Counter::new(bits_needed + 1)),
        }
    }

    /// The operation process `pid` applies (the first one, for
    /// `ReadIncrement`).
    pub(crate) fn op_for(&self, pid: ProcessId, n: usize) -> Value {
        match self {
            ReductionKind::FetchIncrement => FetchIncrement::op(),
            ReductionKind::FetchAnd => FetchAnd::op_clear_bit(pid.0, n),
            ReductionKind::FetchOr => FetchOr::op_set_bit(pid.0, n),
            ReductionKind::FetchComplement => FetchComplement::op(pid.0),
            ReductionKind::FetchMultiply => FetchMultiply::op(2),
            ReductionKind::Queue => Queue::dequeue_op(),
            ReductionKind::Stack => Stack::pop_op(),
            ReductionKind::ReadIncrement => Counter::increment_op(),
        }
    }

    /// The winner test: does `resp` prove that all other processes already
    /// operated?
    pub fn decide(&self, pid: ProcessId, n: usize, resp: &Value) -> bool {
        match self {
            ReductionKind::FetchIncrement => resp.as_int() == Some(n as i128 - 1),
            ReductionKind::FetchAnd => {
                // All first-n bits cleared except pid's own.
                let Some(w) = resp.as_bits() else {
                    return false;
                };
                (0..n).all(|i| bits::bit(w, i) == (i == pid.0))
            }
            ReductionKind::FetchOr | ReductionKind::FetchComplement => {
                // All first-n bits set except pid's own.
                let Some(w) = resp.as_bits() else {
                    return false;
                };
                (0..n).all(|i| bits::bit(w, i) == (i != pid.0))
            }
            ReductionKind::FetchMultiply => {
                // Response = 2^(n-1): exactly n-1 doublings preceded.
                let Some(w) = resp.as_bits() else {
                    return false;
                };
                (0..n).all(|i| bits::bit(w, i) == (i == n - 1))
            }
            ReductionKind::Queue | ReductionKind::Stack => resp.as_int() == Some(n as i128),
            ReductionKind::ReadIncrement => resp.as_int() == Some(n as i128),
        }
    }
}

impl fmt::Display for ReductionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A wakeup algorithm obtained from an object implementation via a
/// Theorem 6.2 reduction.
///
/// # Examples
///
/// ```
/// use llsc_core::{verify_lower_bound, AdversaryConfig};
/// use llsc_wakeup::{ObjectWakeup, ReductionKind};
/// use llsc_shmem::ZeroTosses;
/// use std::sync::Arc;
///
/// // Wakeup from a dequeue on an initially-full queue, over the direct
/// // LL/SC queue implementation.
/// let alg = ObjectWakeup::direct(ReductionKind::Queue, 8);
/// let rep = verify_lower_bound(&alg, 8, Arc::new(ZeroTosses), &AdversaryConfig::default())
///     .expect("the adversary run completes within the default budgets");
/// assert!(rep.wakeup.ok());
/// assert!(rep.bound_holds);
/// ```
pub struct ObjectWakeup {
    kind: ReductionKind,
    n: usize,
    imp: Arc<dyn ObjectImplementation>,
}

impl ObjectWakeup {
    /// Builds the reduction for `n` processes over the given
    /// implementation (which must be instantiated with
    /// [`ReductionKind::spec_for`]`(n)`).
    ///
    /// # Panics
    ///
    /// Panics if the reduction needs more than one operation per process
    /// (only `ReadIncrement` does) and `imp` is single-use.
    pub fn new(kind: ReductionKind, n: usize, imp: Arc<dyn ObjectImplementation>) -> Self {
        assert!(
            kind.ops_per_process() == 1 || imp.is_multi_use(),
            "{kind} applies {} ops per process but {} is single-use",
            kind.ops_per_process(),
            imp.name()
        );
        ObjectWakeup { kind, n, imp }
    }

    /// The reduction over the direct (semantics-exploiting) LL/SC
    /// implementation of the object.
    pub fn direct(kind: ReductionKind, n: usize) -> Self {
        ObjectWakeup::new(kind, n, Arc::new(DirectLlSc::new(kind.spec_for(n))))
    }

    /// The reduction kind.
    pub fn kind(&self) -> ReductionKind {
        self.kind
    }
}

impl fmt::Debug for ObjectWakeup {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ObjectWakeup")
            .field("kind", &self.kind)
            .field("n", &self.n)
            .field("imp", &self.imp.name())
            .finish()
    }
}

fn verdict(win: bool) -> Step {
    done(Value::from(i64::from(win)))
}

impl Algorithm for ObjectWakeup {
    fn name(&self) -> &'static str {
        match self.kind {
            ReductionKind::FetchIncrement => "wakeup-from-fetch&increment",
            ReductionKind::FetchAnd => "wakeup-from-fetch&and",
            ReductionKind::FetchOr => "wakeup-from-fetch&or",
            ReductionKind::FetchComplement => "wakeup-from-fetch&complement",
            ReductionKind::FetchMultiply => "wakeup-from-fetch&multiply",
            ReductionKind::Queue => "wakeup-from-queue",
            ReductionKind::Stack => "wakeup-from-stack",
            ReductionKind::ReadIncrement => "wakeup-from-read+increment",
        }
    }

    fn spawn(&self, pid: ProcessId, n: usize) -> Box<dyn Program> {
        assert_eq!(n, self.n, "ObjectWakeup was built for n = {}", self.n);
        let kind = self.kind;
        let op = kind.op_for(pid, n);
        let step = match kind {
            ReductionKind::ReadIncrement => {
                // Two operations: increment (ack), then read.
                let imp = Arc::clone(&self.imp);
                self.imp.invoke(
                    pid,
                    n,
                    op,
                    Box::new(move |_ack| {
                        imp.invoke(
                            pid,
                            n,
                            Counter::read_op(),
                            Box::new(move |resp| verdict(kind.decide(pid, n, &resp))),
                        )
                    }),
                )
            }
            _ => self.imp.invoke(
                pid,
                n,
                op,
                Box::new(move |resp| verdict(kind.decide(pid, n, &resp))),
            ),
        };
        step.into_program()
    }

    fn initial_memory(&self, n: usize) -> Vec<(RegisterId, Value)> {
        self.imp.initial_memory(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llsc_core::{build_all_run, check_wakeup, verify_lower_bound, AdversaryConfig};
    use llsc_shmem::ZeroTosses;
    use llsc_universal::{AdtTreeUniversal, HerlihyUniversal};

    #[test]
    fn every_reduction_solves_wakeup_over_the_direct_object() {
        for kind in ReductionKind::all() {
            for n in [2, 3, 8, 17] {
                let alg = ObjectWakeup::direct(kind, n);
                let all = build_all_run(&alg, n, Arc::new(ZeroTosses), &AdversaryConfig::default())
                    .unwrap();
                assert!(all.base.completed, "{kind} n={n}");
                let check = check_wakeup(&all.base.run);
                assert!(check.ok(), "{kind} n={n}: {check}");
                assert_eq!(check.winners.len(), 1, "{kind} n={n}");
            }
        }
    }

    #[test]
    fn every_reduction_meets_the_theorem_6_2_bound() {
        for kind in ReductionKind::all() {
            for n in [4, 16, 64] {
                let alg = ObjectWakeup::direct(kind, n);
                let rep =
                    verify_lower_bound(&alg, n, Arc::new(ZeroTosses), &AdversaryConfig::default())
                        .unwrap();
                assert!(rep.bound_holds, "{kind} n={n}: {}", rep.winner_steps);
                assert!(rep.refutation.is_none(), "{kind} n={n}");
            }
        }
    }

    #[test]
    fn reductions_work_over_oblivious_constructions() {
        // The same wakeup reduction, run through the universal
        // constructions instead of the direct object.
        for kind in [ReductionKind::FetchIncrement, ReductionKind::Queue] {
            for n in [4, 9] {
                let spec = kind.spec_for(n);
                let adt = ObjectWakeup::new(kind, n, Arc::new(AdtTreeUniversal::new(spec.clone())));
                let all = build_all_run(&adt, n, Arc::new(ZeroTosses), &AdversaryConfig::default())
                    .unwrap();
                assert!(all.base.completed, "adt {kind} n={n}");
                assert!(check_wakeup(&all.base.run).ok(), "adt {kind} n={n}");

                let her = ObjectWakeup::new(kind, n, Arc::new(HerlihyUniversal::new(spec.clone())));
                let all = build_all_run(&her, n, Arc::new(ZeroTosses), &AdversaryConfig::default())
                    .unwrap();
                assert!(all.base.completed, "herlihy {kind} n={n}");
                assert!(check_wakeup(&all.base.run).ok(), "herlihy {kind} n={n}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "single-use")]
    fn read_increment_rejects_single_use_implementations() {
        let n = 4;
        let spec = ReductionKind::ReadIncrement.spec_for(n);
        ObjectWakeup::new(
            ReductionKind::ReadIncrement,
            n,
            Arc::new(AdtTreeUniversal::new(spec)),
        );
    }

    #[test]
    fn decide_rules_match_the_paper() {
        let n = 5;
        // fetch&increment: previous value n-1.
        assert!(ReductionKind::FetchIncrement.decide(ProcessId(0), n, &Value::from(4i64)));
        assert!(!ReductionKind::FetchIncrement.decide(ProcessId(0), n, &Value::from(3i64)));
        // fetch&and: only own bit surviving.
        let only_2 = Value::bits(vec![0b00100]);
        assert!(ReductionKind::FetchAnd.decide(ProcessId(2), n, &only_2));
        assert!(!ReductionKind::FetchAnd.decide(ProcessId(1), n, &only_2));
        // fetch&or: everything but own bit.
        let all_but_2 = Value::bits(vec![0b11011]);
        assert!(ReductionKind::FetchOr.decide(ProcessId(2), n, &all_but_2));
        assert!(!ReductionKind::FetchOr.decide(ProcessId(2), n, &only_2));
        // fetch&multiply: 2^(n-1).
        let pow = Value::bits(vec![0b10000]);
        assert!(ReductionKind::FetchMultiply.decide(ProcessId(0), n, &pow));
        assert!(!ReductionKind::FetchMultiply.decide(ProcessId(0), n, &only_2));
        // queue/stack/read+increment: the integer n.
        assert!(ReductionKind::Queue.decide(ProcessId(0), n, &Value::from(5i64)));
        assert!(ReductionKind::Stack.decide(ProcessId(0), n, &Value::from(5i64)));
        assert!(ReductionKind::ReadIncrement.decide(ProcessId(0), n, &Value::from(5i64)));
        assert!(!ReductionKind::Queue.decide(ProcessId(0), n, &Value::Unit));
    }

    #[test]
    fn kinds_enumerate_and_label() {
        assert_eq!(ReductionKind::all().len(), 8);
        assert_eq!(ReductionKind::ReadIncrement.ops_per_process(), 2);
        assert_eq!(ReductionKind::Queue.ops_per_process(), 1);
        assert_eq!(ReductionKind::FetchMultiply.to_string(), "fetch&multiply");
    }

    #[test]
    fn spec_for_builds_theorem_instantiations() {
        let q = ReductionKind::Queue.spec_for(4);
        assert_eq!(q.name(), "queue(init=4)");
        let fi = ReductionKind::FetchIncrement.spec_for(1024);
        assert!(fi.name().contains("fetch&increment"));
        let fa = ReductionKind::FetchAnd.spec_for(100);
        assert_eq!(fa.name(), "fetch&and(k=100)");
    }
}
