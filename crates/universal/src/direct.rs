//! The direct, semantics-exploiting LL/SC implementation.
//!
//! The whole point of the paper's lower bound is that it applies only to
//! *oblivious* constructions: implementations that exploit a type's
//! semantics can beat Ω(log n). This module is the standard way they do it
//! with LL/SC: keep the entire object state in one (unbounded) register and
//! apply operations with an optimistic LL / compute / SC retry loop.
//!
//! * Contention-free, this costs exactly **2 shared operations** per object
//!   operation — constant, independent of `n`, beating the oblivious bound.
//! * Under contention it is lock-free but not wait-free: a process can
//!   retry forever while others keep succeeding. The measurement harness
//!   shows the Θ(n) contended cost (experiment E10), which is precisely the
//!   contrast the paper's introduction draws.

use crate::implementation::ObjectImplementation;
use llsc_objects::ObjectSpec;
use llsc_shmem::dsl::{ll, sc, Step};
use llsc_shmem::{ProcessId, RegisterId, Value};
use std::fmt;
use std::sync::Arc;

/// The register holding the object state.
pub(crate) const STATE_REG: RegisterId = RegisterId(0);

/// A direct LL/SC implementation of any [`ObjectSpec`]: the state lives in
/// a single register; operations are applied with an optimistic retry loop.
///
/// Multi-use and linearizable (each operation takes effect at its
/// successful SC).
///
/// # Examples
///
/// ```
/// use llsc_universal::{DirectLlSc, measure, MeasureConfig, ScheduleKind};
/// use llsc_objects::FetchIncrement;
/// use std::sync::Arc;
///
/// let spec = Arc::new(FetchIncrement::new(16));
/// let imp = DirectLlSc::new(spec.clone());
/// let ops = vec![FetchIncrement::op(); 4];
/// let result = measure(&imp, spec.as_ref(), 4, &ops, ScheduleKind::Sequential, &MeasureConfig::default())
///     .expect("solo runs complete within the default budgets");
/// assert!(result.linearizable);
/// // Contention-free: exactly 2 shared ops (LL + SC) per operation.
/// assert_eq!(result.max_ops, 2);
/// ```
pub struct DirectLlSc {
    spec: Arc<dyn ObjectSpec>,
}

impl DirectLlSc {
    /// Creates the direct implementation of `spec`.
    pub fn new(spec: Arc<dyn ObjectSpec>) -> Self {
        DirectLlSc { spec }
    }
}

impl fmt::Debug for DirectLlSc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DirectLlSc")
            .field("spec", &self.spec.name())
            .finish()
    }
}

impl ObjectImplementation for DirectLlSc {
    fn name(&self) -> String {
        format!("direct-llsc[{}]", self.spec.name())
    }

    fn initial_memory(&self, _n: usize) -> Vec<(RegisterId, Value)> {
        vec![(STATE_REG, self.spec.initial())]
    }

    fn invoke(
        &self,
        _pid: ProcessId,
        _n: usize,
        op: Value,
        k: Box<dyn FnOnce(Value) -> Step>,
    ) -> Step {
        let spec = Arc::clone(&self.spec);
        attempt(spec, op, k)
    }

    fn is_multi_use(&self) -> bool {
        true
    }
}

fn attempt(spec: Arc<dyn ObjectSpec>, op: Value, k: Box<dyn FnOnce(Value) -> Step>) -> Step {
    ll(STATE_REG, move |state| {
        let (next, resp) = spec.apply(&state, &op);
        sc(STATE_REG, next, move |ok, _| {
            if ok {
                k(resp)
            } else {
                attempt(spec, op, k)
            }
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::{measure, MeasureConfig, ScheduleKind};
    use llsc_objects::{Counter, FetchIncrement, Queue, Stack};

    #[test]
    fn contention_free_cost_is_two_ops() {
        let spec = Arc::new(FetchIncrement::new(16));
        let imp = DirectLlSc::new(spec.clone());
        for n in [1, 4, 16, 64] {
            let ops = vec![FetchIncrement::op(); n];
            let r = measure(
                &imp,
                spec.as_ref(),
                n,
                &ops,
                ScheduleKind::Sequential,
                &MeasureConfig::default(),
            )
            .unwrap();
            assert!(r.linearizable, "n={n}");
            assert_eq!(r.max_ops, 2, "n={n}: solo cost is LL+SC");
        }
    }

    #[test]
    fn contended_cost_grows_linearly() {
        let spec = Arc::new(FetchIncrement::new(32));
        let imp = DirectLlSc::new(spec.clone());
        let mut prev = 0;
        for n in [2, 8, 32] {
            let ops = vec![FetchIncrement::op(); n];
            let r = measure(
                &imp,
                spec.as_ref(),
                n,
                &ops,
                ScheduleKind::Adversary,
                &MeasureConfig::default(),
            )
            .unwrap();
            assert!(r.linearizable, "n={n}");
            // Under the round adversary every round exactly one SC wins, so
            // the last process performs Θ(n) operations.
            assert!(r.max_ops >= n as u64, "n={n}: max_ops={}", r.max_ops);
            assert!(r.max_ops > prev);
            prev = r.max_ops;
        }
    }

    #[test]
    fn queue_and_stack_are_linearizable_under_adversary() {
        let q = Arc::new(Queue::with_numbered_items(6));
        let imp = DirectLlSc::new(q.clone());
        let ops = vec![Queue::dequeue_op(); 6];
        let r = measure(
            &imp,
            q.as_ref(),
            6,
            &ops,
            ScheduleKind::Adversary,
            &MeasureConfig::default(),
        )
        .unwrap();
        assert!(r.linearizable);

        let st = Arc::new(Stack::with_numbered_items(5));
        let imp = DirectLlSc::new(st.clone());
        let ops = vec![Stack::pop_op(); 5];
        let r = measure(
            &imp,
            st.as_ref(),
            5,
            &ops,
            ScheduleKind::RandomInterleave { seed: 3 },
            &MeasureConfig::default(),
        )
        .unwrap();
        assert!(r.linearizable);
    }

    #[test]
    fn multi_use_chaining_works() {
        // Increment then read through the same implementation instance.
        use llsc_shmem::dsl::done;
        use llsc_shmem::{Executor, ExecutorConfig, FnAlgorithm, ZeroTosses};
        let spec = Arc::new(Counter::new(16));
        let imp = Arc::new(DirectLlSc::new(spec));
        assert!(imp.is_multi_use());
        let imp2 = Arc::clone(&imp);
        let alg = FnAlgorithm::new("inc-then-read", move |pid, n| {
            let imp3 = Arc::clone(&imp2);
            imp2.invoke(
                pid,
                n,
                Counter::increment_op(),
                Box::new(move |_ack| imp3.invoke(pid, n, Counter::read_op(), Box::new(done))),
            )
            .into_program()
        })
        .with_initial_memory(imp.initial_memory(3));
        let mut e = Executor::new(
            &alg,
            3,
            std::sync::Arc::new(ZeroTosses),
            ExecutorConfig::default(),
        );
        while e.step_round_robin().unwrap() {}
        // The last reader sees 3.
        let max = llsc_shmem::ProcessId::all(3)
            .map(|p| e.verdict(p).unwrap().as_int().unwrap())
            .max()
            .unwrap();
        assert_eq!(max, 3);
    }

    #[test]
    fn name_mentions_spec() {
        let imp = DirectLlSc::new(Arc::new(FetchIncrement::new(8)));
        assert_eq!(imp.name(), "direct-llsc[fetch&increment(k=8)]");
        assert!(format!("{imp:?}").contains("fetch&increment"));
    }
}
