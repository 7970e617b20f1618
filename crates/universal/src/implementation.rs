//! The implementation interface: `n`-process shared-object implementations
//! over LL/SC shared memory.

use llsc_shmem::dsl::Step;
use llsc_shmem::{ProcessId, RegisterId, Value};
use std::fmt::Debug;

/// An `n`-process implementation of a shared object over the LL/SC shared
/// memory.
///
/// An implementation decides a register layout (via
/// [`ObjectImplementation::initial_memory`]) and, for each process,
/// produces the program fragment that applies one operation. The fragment
/// is written in continuation-passing style: `invoke` receives the
/// continuation `k` to run with the operation's response, so callers can
/// chain operations (`k`-use) or post-process responses (the wakeup
/// reductions do exactly that).
///
/// The *shared-access time complexity* of an implementation — the quantity
/// the paper's lower bound is about — is the number of shared-memory
/// operations the fragment performs, measured by
/// [`crate::measure()`].
pub trait ObjectImplementation: Debug + Send + Sync {
    /// A short human-readable name, e.g. `"adt-tree"`.
    fn name(&self) -> String;

    /// The initial shared-memory contents for an `n`-process instance.
    fn initial_memory(&self, n: usize) -> Vec<(RegisterId, Value)>;

    /// The program fragment with which process `pid` (of `n`) applies `op`;
    /// the fragment must eventually call `k` with the operation's response.
    fn invoke(
        &self,
        pid: ProcessId,
        n: usize,
        op: Value,
        k: Box<dyn FnOnce(Value) -> Step>,
    ) -> Step;

    /// Whether this implementation supports more than one operation per
    /// process. Single-use implementations (the paper's lower-bound
    /// setting) may refuse chained invocations.
    fn is_multi_use(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llsc_shmem::dsl::done;

    #[derive(Debug)]
    struct Echo;

    impl ObjectImplementation for Echo {
        fn name(&self) -> String {
            "echo".into()
        }
        fn initial_memory(&self, _n: usize) -> Vec<(RegisterId, Value)> {
            vec![]
        }
        fn invoke(
            &self,
            _pid: ProcessId,
            _n: usize,
            op: Value,
            k: Box<dyn FnOnce(Value) -> Step>,
        ) -> Step {
            k(op)
        }
    }

    #[test]
    fn invoke_is_cps_composable() {
        use llsc_shmem::{Action, Feedback};
        let echo = Echo;
        // Chain two invocations; return the second response.
        let step = echo.invoke(
            ProcessId(0),
            1,
            Value::from(1i64),
            Box::new(|r1| {
                assert_eq!(r1, Value::from(1i64));
                Echo.invoke(ProcessId(0), 1, Value::from(2i64), Box::new(done))
            }),
        );
        let mut prog = step.into_program();
        assert_eq!(
            prog.next(Feedback::Start),
            Action::Return(Value::from(2i64))
        );
    }

    #[test]
    fn default_is_single_use() {
        assert!(!Echo.is_multi_use());
    }
}
