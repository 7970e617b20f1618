//! Processes as resumable state machines.

use crate::{Operation, Response, Value};
use std::fmt;

/// What a process wants to do next.
///
/// Per Section 3, a non-terminated process has two kinds of steps available:
/// a local coin toss, or an operation on shared memory. Termination is
/// modelled as a third action carrying the process's return value (the
/// wakeup problem, for instance, requires every process to terminate
/// "returning either 0 or 1").
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Action {
    /// Toss a local coin; the outcome arrives as [`Feedback::Coin`].
    Toss,
    /// Perform a shared-memory operation; its result arrives as
    /// [`Feedback::Response`].
    Invoke(Operation),
    /// Enter a termination state, returning the given value. The process
    /// has no further steps.
    Return(Value),
}

impl Action {
    /// The pending shared-memory operation, if this action is an
    /// [`Action::Invoke`].
    pub fn operation(&self) -> Option<&Operation> {
        match self {
            Action::Invoke(op) => Some(op),
            _ => None,
        }
    }
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Action::Toss => write!(f, "toss"),
            Action::Invoke(op) => write!(f, "{op}"),
            Action::Return(v) => write!(f, "return {v}"),
        }
    }
}

/// The information a process receives between two of its actions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Feedback {
    /// The very first activation: no outcome has been delivered yet.
    Start,
    /// The outcome of the coin toss requested by the previous
    /// [`Action::Toss`]. Outcomes range over the paper's arbitrary
    /// `COIN-RANGE`, embedded here as `u64`.
    Coin(u64),
    /// The response to the operation requested by the previous
    /// [`Action::Invoke`].
    Response(Response),
}

impl fmt::Display for Feedback {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Feedback::Start => write!(f, "start"),
            Feedback::Coin(c) => write!(f, "coin={c}"),
            Feedback::Response(r) => write!(f, "resp={r}"),
        }
    }
}

/// A process's program: a deterministic automaton driven by [`Feedback`].
///
/// The executor activates a program by calling [`Program::next`] with the
/// feedback for its previous action ([`Feedback::Start`] on the first
/// activation) and records the returned [`Action`] as the process's pending
/// step. A program must be *deterministic given its feedback*: all
/// nondeterminism flows through explicit coin tosses, exactly as in the
/// paper's model (this is what makes toss assignments `A` determine
/// `(All, A)`-runs uniquely).
///
/// After returning [`Action::Return`], `next` is never called again.
///
/// Programs are usually written with the continuation-passing helpers in
/// [`crate::dsl`] rather than by implementing this trait manually.
pub trait Program {
    /// Consumes the feedback for the previous action and produces the next
    /// action.
    fn next(&mut self, feedback: Feedback) -> Action;
}

/// A factory for the per-process programs of an `n`-process algorithm.
///
/// The lower-bound machinery re-executes algorithms from their initial
/// configurations many times (for the `(All, A)`-run, each `(S, A)`-run,
/// and each toss assignment), so algorithms are described by factories
/// rather than by live program instances.
///
/// Algorithms are `Send + Sync`: the parallel sweep engine
/// ([`crate::sweep`]) shares one factory across worker threads, each of
/// which spawns its own (non-`Send`) programs. Factories are immutable
/// descriptions, so this costs implementations nothing.
pub trait Algorithm: Send + Sync {
    /// A short human-readable name, used in reports and tables.
    fn name(&self) -> &'static str;

    /// Creates the program of process `pid` in an `n`-process instance.
    fn spawn(&self, pid: crate::ProcessId, n: usize) -> Box<dyn Program>;

    /// Initial shared-memory contents this algorithm assumes, as
    /// `(register, value)` pairs. Defaults to none (all registers start at
    /// [`Value::Unit`]).
    fn initial_memory(&self, _n: usize) -> Vec<(crate::RegisterId, Value)> {
        Vec::new()
    }
}

/// An [`Algorithm`] built from a closure, convenient for tests and
/// experiments.
///
/// # Examples
///
/// ```
/// use llsc_shmem::{FnAlgorithm, Algorithm, ProcessId, Value};
/// use llsc_shmem::dsl::done;
/// let alg = FnAlgorithm::new("trivial", |pid: ProcessId, _n| {
///     done(Value::from(pid.0 as i64)).into_program()
/// });
/// assert_eq!(alg.name(), "trivial");
/// let mut prog = alg.spawn(ProcessId(1), 2);
/// # use llsc_shmem::{Program, Feedback, Action};
/// assert_eq!(prog.next(Feedback::Start), Action::Return(Value::from(1i64)));
/// ```
pub struct FnAlgorithm<F> {
    name: &'static str,
    spawn: F,
    initial: Vec<(crate::RegisterId, Value)>,
}

impl<F> FnAlgorithm<F>
where
    F: Fn(crate::ProcessId, usize) -> Box<dyn Program> + Send + Sync,
{
    /// Creates an algorithm from a spawn closure.
    pub fn new(name: &'static str, spawn: F) -> Self {
        FnAlgorithm {
            name,
            spawn,
            initial: Vec::new(),
        }
    }

    /// Adds initial shared-memory contents.
    pub fn with_initial_memory(mut self, initial: Vec<(crate::RegisterId, Value)>) -> Self {
        self.initial = initial;
        self
    }
}

impl<F> fmt::Debug for FnAlgorithm<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FnAlgorithm")
            .field("name", &self.name)
            .finish()
    }
}

impl<F> Algorithm for FnAlgorithm<F>
where
    F: Fn(crate::ProcessId, usize) -> Box<dyn Program> + Send + Sync,
{
    fn name(&self) -> &'static str {
        self.name
    }

    fn spawn(&self, pid: crate::ProcessId, n: usize) -> Box<dyn Program> {
        (self.spawn)(pid, n)
    }

    fn initial_memory(&self, _n: usize) -> Vec<(crate::RegisterId, Value)> {
        self.initial.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ProcessId, RegisterId};

    #[test]
    fn action_accessors() {
        let op = Operation::Ll(RegisterId(0));
        assert_eq!(Action::Invoke(op.clone()).operation(), Some(&op));
        assert_eq!(Action::Toss.operation(), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Action::Toss.to_string(), "toss");
        assert_eq!(Action::Return(Value::from(1i64)).to_string(), "return 1");
        assert_eq!(Feedback::Start.to_string(), "start");
        assert_eq!(Feedback::Coin(3).to_string(), "coin=3");
    }

    #[test]
    fn fn_algorithm_spawns_independent_programs() {
        let alg = FnAlgorithm::new("t", |pid: ProcessId, _n| {
            crate::dsl::done(Value::from(pid.0 as i64)).into_program()
        });
        let mut a = alg.spawn(ProcessId(0), 2);
        let mut b = alg.spawn(ProcessId(1), 2);
        assert_eq!(a.next(Feedback::Start), Action::Return(Value::from(0i64)));
        assert_eq!(b.next(Feedback::Start), Action::Return(Value::from(1i64)));
    }

    #[test]
    fn fn_algorithm_initial_memory() {
        let alg = FnAlgorithm::new("t", |_pid, _n| crate::dsl::done(Value::Unit).into_program())
            .with_initial_memory(vec![(RegisterId(0), Value::from(5i64))]);
        assert_eq!(
            alg.initial_memory(4),
            vec![(RegisterId(0), Value::from(5i64))]
        );
    }
}
