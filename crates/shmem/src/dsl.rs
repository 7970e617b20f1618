//! A continuation-passing DSL for writing [`Program`]s.
//!
//! Implementing the resumable [`Program`] automaton by hand means writing an
//! explicit state machine for every algorithm. This module instead lets
//! algorithms be written in direct style, with one closure per suspension
//! point:
//!
//! ```
//! use llsc_shmem::dsl::{ll, sc, done};
//! use llsc_shmem::{RegisterId, Value};
//!
//! let r = RegisterId(0);
//! let step = ll(r, move |prev| {
//!     let old = prev.as_int().unwrap_or(0);
//!     sc(r, Value::from(old + 1), move |ok, _| {
//!         done(Value::from(ok))
//!     })
//! });
//! let _program = step.into_program();
//! ```
//!
//! Loops are written either with recursive `fn` items or with the [`fix`]
//! combinator, which threads a loop state through a recursing closure.

use crate::{Action, Feedback, Operation, Program, RegisterId, Response, Value};
use std::fmt;
use std::rc::Rc;

/// A suspended program fragment: the next step and the continuation that
/// consumes its outcome.
pub enum Step {
    /// Toss a coin, then continue with the outcome.
    Toss(Box<dyn FnOnce(u64) -> Step>),
    /// Perform a shared-memory operation, then continue with its response.
    Op(Operation, Box<dyn FnOnce(Response) -> Step>),
    /// Terminate, returning the value.
    Done(Value),
}

impl fmt::Debug for Step {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Step::Toss(_) => write!(f, "Step::Toss(..)"),
            Step::Op(op, _) => write!(f, "Step::Op({op}, ..)"),
            Step::Done(v) => write!(f, "Step::Done({v})"),
        }
    }
}

impl Step {
    /// Wraps this fragment into a boxed [`Program`] ready for the executor.
    pub fn into_program(self) -> Box<dyn Program> {
        Box::new(ContProgram {
            state: DslState::Initial(self),
        })
    }
}

/// Tosses a coin; the continuation receives the outcome.
pub fn toss(k: impl FnOnce(u64) -> Step + 'static) -> Step {
    Step::Toss(Box::new(k))
}

/// Performs `LL(r)`; the continuation receives the register value.
pub fn ll(r: RegisterId, k: impl FnOnce(Value) -> Step + 'static) -> Step {
    Step::Op(
        Operation::Ll(r),
        Box::new(move |resp| match resp {
            Response::Value(v) => k(v),
            other => unreachable!("LL returned {other}"),
        }),
    )
}

/// Performs `validate(r)`; the continuation receives `(valid, value)`.
pub fn validate(r: RegisterId, k: impl FnOnce(bool, Value) -> Step + 'static) -> Step {
    Step::Op(
        Operation::Validate(r),
        Box::new(move |resp| match resp {
            Response::Flagged { ok, value } => k(ok, value),
            other => unreachable!("validate returned {other}"),
        }),
    )
}

/// Reads `r` without perturbing it (a `validate` whose flag is ignored —
/// the paper's idiom for `read`).
pub fn read(r: RegisterId, k: impl FnOnce(Value) -> Step + 'static) -> Step {
    validate(r, move |_ok, v| k(v))
}

/// Performs `SC(r, v)`; the continuation receives
/// `(succeeded, observed value)`.
pub fn sc(r: RegisterId, v: Value, k: impl FnOnce(bool, Value) -> Step + 'static) -> Step {
    Step::Op(
        Operation::Sc(r, v),
        Box::new(move |resp| match resp {
            Response::Flagged { ok, value } => k(ok, value),
            other => unreachable!("SC returned {other}"),
        }),
    )
}

/// Performs `swap(r, v)`; the continuation receives the previous value.
pub fn swap(r: RegisterId, v: Value, k: impl FnOnce(Value) -> Step + 'static) -> Step {
    Step::Op(
        Operation::Swap(r, v),
        Box::new(move |resp| match resp {
            Response::Value(v) => k(v),
            other => unreachable!("swap returned {other}"),
        }),
    )
}

/// Performs `move(src, dst)`; the continuation receives nothing (move
/// returns only `ack`).
///
/// `src` and `dst` should be distinct: the shared memory accepts a
/// self-move (it just clears `Pset(src)`), but the Section-4 adversary
/// machinery in `llsc-core` rejects self-moves, whose formal `movers`
/// bookkeeping would falsify Lemma 4.1.
pub fn mv(src: RegisterId, dst: RegisterId, k: impl FnOnce() -> Step + 'static) -> Step {
    Step::Op(
        Operation::Move { src, dst },
        Box::new(move |resp| match resp {
            Response::Ack => k(),
            other => unreachable!("move returned {other}"),
        }),
    )
}

/// Terminates the program, returning `v`.
pub fn done(v: Value) -> Step {
    Step::Done(v)
}

/// A handle for re-entering a [`fix`] loop with a new state.
pub struct Recur<S>(Rc<dyn Fn(S) -> Step>);

impl<S> Clone for Recur<S> {
    fn clone(&self) -> Self {
        Recur(Rc::clone(&self.0))
    }
}

impl<S> fmt::Debug for Recur<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Recur(..)")
    }
}

impl<S> Recur<S> {
    /// Re-enters the loop body with state `s`.
    pub fn call(&self, s: S) -> Step {
        (self.0)(s)
    }
}

/// The fixpoint combinator: runs `body(init, recur)` where calling
/// `recur.call(s)` re-enters the body with state `s`.
///
/// This is how environment-capturing loops are written in the DSL (plain
/// `fn` recursion cannot capture variables):
///
/// ```
/// use llsc_shmem::dsl::{fix, ll, sc, done};
/// use llsc_shmem::{RegisterId, Value};
///
/// let r = RegisterId(0);
/// // Retry SC(r, 1) until it succeeds; count attempts.
/// let step = fix(
///     move |attempts: u32, again| {
///         ll(r, move |_| {
///             sc(r, Value::from(1i64), move |ok, _| {
///                 if ok { done(Value::from(attempts as i64)) } else { again.call(attempts + 1) }
///             })
///         })
///     },
///     1,
/// );
/// let _p = step.into_program();
/// ```
pub fn fix<S: 'static>(body: impl Fn(S, Recur<S>) -> Step + 'static, init: S) -> Step {
    fn make<S: 'static>(f: Rc<dyn Fn(S, Recur<S>) -> Step>) -> Recur<S> {
        let g = Rc::clone(&f);
        Recur(Rc::new(move |s| {
            let again = make(Rc::clone(&g));
            g(s, again)
        }))
    }
    let f: Rc<dyn Fn(S, Recur<S>) -> Step> = Rc::new(body);
    make(f).call(init)
}

enum DslState {
    Initial(Step),
    AwaitCoin(Box<dyn FnOnce(u64) -> Step>),
    AwaitResp(Box<dyn FnOnce(Response) -> Step>),
    Finished,
}

struct ContProgram {
    state: DslState,
}

impl ContProgram {
    fn emit(&mut self, step: Step) -> Action {
        match step {
            Step::Toss(k) => {
                self.state = DslState::AwaitCoin(k);
                Action::Toss
            }
            Step::Op(op, k) => {
                self.state = DslState::AwaitResp(k);
                Action::Invoke(op)
            }
            Step::Done(v) => {
                self.state = DslState::Finished;
                Action::Return(v)
            }
        }
    }
}

impl Program for ContProgram {
    fn next(&mut self, feedback: Feedback) -> Action {
        let state = std::mem::replace(&mut self.state, DslState::Finished);
        match (state, feedback) {
            (DslState::Initial(step), Feedback::Start) => self.emit(step),
            (DslState::AwaitCoin(k), Feedback::Coin(c)) => self.emit(k(c)),
            (DslState::AwaitResp(k), Feedback::Response(r)) => self.emit(k(r)),
            (_, fb) => panic!("DSL program protocol violation: unexpected feedback {fb}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Feedback, ProcessId, Response};

    #[test]
    fn straight_line_program_emits_expected_protocol() {
        let r0 = RegisterId(0);
        let mut p = ll(r0, move |v| {
            assert_eq!(v, Value::Unit);
            done(Value::from(1i64))
        })
        .into_program();
        assert_eq!(p.next(Feedback::Start), Action::Invoke(Operation::Ll(r0)));
        assert_eq!(
            p.next(Feedback::Response(Response::Value(Value::Unit))),
            Action::Return(Value::from(1i64))
        );
    }

    #[test]
    fn toss_feeds_outcome() {
        let mut p = toss(|c| done(Value::from(c as i64))).into_program();
        assert_eq!(p.next(Feedback::Start), Action::Toss);
        assert_eq!(p.next(Feedback::Coin(9)), Action::Return(Value::from(9i64)));
    }

    #[test]
    fn read_ignores_validity_flag() {
        let mut p = read(RegisterId(3), done).into_program();
        p.next(Feedback::Start);
        let a = p.next(Feedback::Response(Response::Flagged {
            ok: false,
            value: Value::from(5i64),
        }));
        assert_eq!(a, Action::Return(Value::from(5i64)));
    }

    #[test]
    fn mv_continues_after_ack() {
        let mut p = mv(RegisterId(0), RegisterId(1), || done(Value::Unit)).into_program();
        let a = p.next(Feedback::Start);
        assert_eq!(
            a,
            Action::Invoke(Operation::Move {
                src: RegisterId(0),
                dst: RegisterId(1)
            })
        );
        assert_eq!(
            p.next(Feedback::Response(Response::Ack)),
            Action::Return(Value::Unit)
        );
    }

    #[test]
    fn fix_loops_until_condition() {
        // Toss until outcome 0 is seen; return the number of tosses.
        let mut p = fix(
            |count: i64, again| {
                toss(move |c| {
                    if c == 0 {
                        done(Value::from(count + 1))
                    } else {
                        again.call(count + 1)
                    }
                })
            },
            0,
        )
        .into_program();
        assert_eq!(p.next(Feedback::Start), Action::Toss);
        assert_eq!(p.next(Feedback::Coin(5)), Action::Toss);
        assert_eq!(p.next(Feedback::Coin(5)), Action::Toss);
        assert_eq!(p.next(Feedback::Coin(0)), Action::Return(Value::from(3i64)));
    }

    #[test]
    #[should_panic(expected = "protocol violation")]
    fn wrong_feedback_panics() {
        let mut p = toss(|_| done(Value::Unit)).into_program();
        p.next(Feedback::Start);
        // A response when a coin was expected.
        p.next(Feedback::Response(Response::Ack));
    }

    #[test]
    fn executor_integration_with_fix() {
        use crate::{ExecutorConfig, FnAlgorithm, SeededTosses};
        // Each process tosses until it sees an even outcome, then LLs R0.
        let alg = FnAlgorithm::new("toss-loop", |_pid: ProcessId, _n| {
            fix(
                |(), again| {
                    toss(move |c| {
                        if c % 2 == 0 {
                            ll(RegisterId(0), |_| done(Value::from(1i64)))
                        } else {
                            again.call(())
                        }
                    })
                },
                (),
            )
            .into_program()
        });
        let mut e = crate::Executor::new(
            &alg,
            3,
            std::sync::Arc::new(SeededTosses::new(11)),
            ExecutorConfig::default(),
        );
        while e.step_round_robin().unwrap() {}
        assert!(e.all_terminated());
        for p in ProcessId::all(3) {
            assert_eq!(e.run().shared_steps(p), 1);
            assert!(e.run().tosses(p) >= 1);
        }
    }
}
