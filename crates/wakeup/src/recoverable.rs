//! Crash-recoverable algorithms: durable state machines for the
//! crash-*recovery* fault model.
//!
//! Under the [`llsc_shmem::CrashDriver`] adversary with a recovery
//! regime a crashed process does not stay down: it is revived with its *local* state wiped
//! (program respawned from [`Algorithm::spawn`]) against the surviving
//! shared memory. The algorithms here are written so that `spawn` doubles
//! as the *recovery section* in the sense of Golab & Ramaraju's
//! recoverable mutual exclusion: every decision that must survive a crash
//! is journalled in per-process shared registers *before* the step it
//! describes, and the first thing a (re)spawned program does is consult
//! that journal to decide where it died.
//!
//! * [`RecoverableMutex`] — recoverable mutual exclusion plus a
//!   lock-protected fetch&increment: each process acquires a test&set
//!   style LL/SC lock, takes a distinct positive token from a shared
//!   counter, journals it, and releases. A crash anywhere (spinning,
//!   holding the lock mid-increment, after the token write but before the
//!   release) is repaired by the recovery section; the lock is never
//!   stranded and no token is ever issued twice.
//! * [`RecoverableCounterWakeup`] — the [`crate::CounterWakeup`]
//!   fetch&increment wakeup made idempotent under crashes with an
//!   announcement array and per-token *slot* helping registers, so a
//!   revived process can tell "my increment landed" from "my increment
//!   never happened" without ever double-incrementing.
//! * [`RecoverableRandCounterWakeup`] — the same with a tossed
//!   validate-backoff on SC failure, putting genuine coin tosses on the
//!   recovery-model execution path.
//!
//! The interesting cost of these algorithms is not their step count but
//! their *remote memory references*: recovery re-reads the journal and
//! re-validates shared state, and experiment E19 measures exactly that
//! (CC and DSM RMRs per crash intensity) via the executor's RMR counters.

use llsc_shmem::dsl::{done, fix, ll, read, sc, swap, toss, Step};
use llsc_shmem::{Algorithm, ProcessId, Program, RegisterId, Value};

/// The lock register of [`RecoverableMutex`]: 0 = free, `p + 1` = held by
/// process `p`.
const LOCK: RegisterId = RegisterId(0);

/// The token counter of [`RecoverableMutex`] (guarded by [`LOCK`]).
const MUTEX_COUNT: RegisterId = RegisterId(1);

/// Process `p`'s durable journal register in [`RecoverableMutex`]:
/// 0 = no token activity, `-t` = taking token `t` (in the critical
/// section), `t > 0` = token `t` taken (critical section complete).
fn mutex_journal(pid: ProcessId) -> RegisterId {
    RegisterId(2 + pid.0 as u64)
}

/// Recoverable mutual exclusion over LL/SC, in the Golab–Ramaraju style:
/// `spawn` *is* the recovery section.
///
/// Each process runs acquire → critical section (take the next counter
/// token `t`, journalling `-t` first and `t` after) → release, and
/// returns its token. Safety is token distinctness: in any run where all
/// processes terminate, the returned tokens are exactly `{1, ..., n}`.
///
/// Crash repair, driven entirely by the journal and the lock register:
///
/// * journal `> 0` — the critical section finished; release the lock if
///   the crash stranded it, return the journalled token.
/// * journal `= -t` — died inside the critical section (so the lock is
///   still held): the counter reads `t` iff the increment landed; finish
///   the remaining writes and release. No second token is ever taken.
/// * journal `= 0` — never reached the critical section: re-acquire. If
///   the lock already names this process (crash between the successful SC
///   and the first journal write), enter the critical section directly.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoverableMutex;

/// Last two critical-section writes + release, shared by the normal path
/// and the recovery path: journal the token as taken, free the lock,
/// return the token.
fn mutex_finish(journal: RegisterId, t: i128) -> Step {
    swap(journal, Value::from(t), move |_| {
        swap(LOCK, Value::from(0i64), move |_| done(Value::from(t)))
    })
}

/// The critical section, entered holding the lock: read the counter
/// (private while the lock is held), journal the intent `-t`, install
/// `t`, then [`mutex_finish`].
fn mutex_critical(journal: RegisterId) -> Step {
    read(MUTEX_COUNT, move |c| {
        let t = c.as_int().unwrap_or(0) + 1;
        swap(journal, Value::from(-t), move |_| {
            swap(MUTEX_COUNT, Value::from(t), move |_| {
                mutex_finish(journal, t)
            })
        })
    })
}

/// The LL/SC acquire loop. Seeing our own id in the lock means a crash
/// landed between a successful acquire-SC and the first journal write —
/// re-enter the critical section instead of spinning on ourselves.
fn mutex_acquire(me: i128, journal: RegisterId) -> Step {
    fix(
        move |(), again| {
            ll(LOCK, move |v| {
                let owner = v.as_int().unwrap_or(0);
                if owner == me {
                    mutex_critical(journal)
                } else if owner == 0 {
                    sc(LOCK, Value::from(me), move |ok, _| {
                        if ok {
                            mutex_critical(journal)
                        } else {
                            again.call(())
                        }
                    })
                } else {
                    // Spinning on a cached LL of the lock is free in the
                    // CC cost model until the holder's release invalidates
                    // the copy — the classic local-spin idiom.
                    again.call(())
                }
            })
        },
        (),
    )
}

impl Algorithm for RecoverableMutex {
    fn name(&self) -> &'static str {
        "recoverable-mutex"
    }

    fn spawn(&self, pid: ProcessId, _n: usize) -> Box<dyn Program> {
        let me = pid.0 as i128 + 1;
        let journal = mutex_journal(pid);
        // Recovery section: the journal says how far the previous
        // incarnation got.
        read(journal, move |d| {
            let d = d.as_int().unwrap_or(0);
            if d > 0 {
                // Token taken; only an unreleased lock can remain.
                read(LOCK, move |l| {
                    if l.as_int().unwrap_or(0) == me {
                        swap(LOCK, Value::from(0i64), move |_| done(Value::from(d)))
                    } else {
                        done(Value::from(d))
                    }
                })
            } else if d < 0 {
                // Died mid-critical-section, lock still held: the counter
                // decides whether the increment landed (it is private to
                // the lock holder, so it reads exactly t - 1 or t).
                let t = -d;
                read(MUTEX_COUNT, move |c| {
                    if c.as_int().unwrap_or(0) >= t {
                        mutex_finish(journal, t)
                    } else {
                        swap(MUTEX_COUNT, Value::from(t), move |_| {
                            mutex_finish(journal, t)
                        })
                    }
                })
            } else {
                mutex_acquire(me, journal)
            }
        })
        .into_program()
    }
}

/// The packed counter register of the recoverable wakeup algorithms:
/// holds `count * WAKEUP_BASE + writer` where `writer` is the id + 1 of
/// the process whose SC installed `count` (0 initially).
const WAKEUP_COUNT: RegisterId = RegisterId(0);

/// Packing base for `(count, writer)` in [`WAKEUP_COUNT`]; bounds the
/// supported process count.
const WAKEUP_BASE: i128 = 4096;

/// Process `p`'s announcement register: 0 = idle, `-t` = increment to `t`
/// announced but not yet confirmed, `t > 0` = token `t` confirmed taken.
fn ann_reg(pid: ProcessId) -> RegisterId {
    RegisterId(1 + pid.0 as u64)
}

/// The helping slot for token `t` (`1 <= t <= n`): 0 = unknown, else the
/// id + 1 of the process whose SC installed count `t`. Written only with
/// truthful values read directly out of [`WAKEUP_COUNT`].
fn slot_reg(n: usize, t: i128) -> RegisterId {
    RegisterId(n as u64 + t as u64)
}

/// Unpacks [`WAKEUP_COUNT`]'s `(count, writer)`.
fn unpack(v: Value) -> (i128, i128) {
    let x = v.as_int().unwrap_or(0);
    (x / WAKEUP_BASE, x % WAKEUP_BASE)
}

/// The wakeup verdict for a process holding token `t`: the installer of
/// count `n` saw every other process's increment land first.
fn wakeup_verdict(t: i128, n: usize) -> Step {
    done(Value::from(if t == n as i128 { 1i64 } else { 0i64 }))
}

/// Confirm token `t` in the announcement register, then return.
fn confirm(ann: RegisterId, t: i128, n: usize) -> Step {
    swap(ann, Value::from(t), move |_| wakeup_verdict(t, n))
}

/// The optimistic increment loop shared by both recoverable wakeup
/// variants. Per attempt: `LL` the packed counter, *help* by recording
/// the current count's installer in its slot (establishing the invariant
/// that the counter never advances past `t` before `SLOT(t)` is filled),
/// announce the intended token, then `SC`. With `randomized`, a failed SC
/// tosses a coin and backs off through one extra validate-read.
fn wakeup_attempt(me: i128, ann: RegisterId, n: usize, randomized: bool) -> Step {
    fix(
        move |(), again| {
            ll(WAKEUP_COUNT, move |v| {
                let (c, w) = unpack(v);
                let t = c + 1;
                let the_sc = move || {
                    swap(ann, Value::from(-t), move |_| {
                        sc(
                            WAKEUP_COUNT,
                            Value::from(t * WAKEUP_BASE + me),
                            move |ok, _| {
                                if ok {
                                    confirm(ann, t, n)
                                } else if randomized {
                                    toss(move |coin| {
                                        if coin % 2 == 1 {
                                            read(WAKEUP_COUNT, move |_| again.call(()))
                                        } else {
                                            again.call(())
                                        }
                                    })
                                } else {
                                    again.call(())
                                }
                            },
                        )
                    })
                };
                if c >= 1 {
                    swap(slot_reg(n, c), Value::from(w), move |_| the_sc())
                } else {
                    the_sc()
                }
            })
        },
        (),
    )
}

/// The shared recovery section of both recoverable wakeup variants:
/// disambiguate an in-flight announcement `-t` using the packed counter
/// and the slot array.
///
/// If this process's SC for `t` succeeded, then *forever after* either
/// the counter still reads `(t, me)` or — once someone advanced it, which
/// requires helping `SLOT(t) := me` first — the slot names this process.
/// Seeing neither therefore proves the increment never landed, and
/// retrying cannot double-increment.
fn wakeup_recover(me: i128, ann: RegisterId, n: usize, randomized: bool) -> Step {
    read(ann, move |a| {
        let a = a.as_int().unwrap_or(0);
        if a > 0 {
            wakeup_verdict(a, n)
        } else if a < 0 {
            let t = -a;
            read(WAKEUP_COUNT, move |v| {
                let (c, w) = unpack(v);
                if c == t && w == me {
                    confirm(ann, t, n)
                } else {
                    read(slot_reg(n, t), move |s| {
                        if s.as_int().unwrap_or(0) == me {
                            confirm(ann, t, n)
                        } else {
                            wakeup_attempt(me, ann, n, randomized)
                        }
                    })
                }
            })
        } else {
            wakeup_attempt(me, ann, n, randomized)
        }
    })
}

/// Asserts the packed-counter encoding can distinguish every process.
fn assert_packable(n: usize) {
    assert!(
        n < WAKEUP_BASE as usize,
        "recoverable wakeup supports at most {} processes, got {n}",
        WAKEUP_BASE - 1
    );
}

/// The crash-recoverable counter wakeup: [`crate::CounterWakeup`]'s
/// fetch&increment, made idempotent under the crash-recovery adversary.
///
/// Registers: the packed `(count, writer)` counter at `R0`, announcement
/// registers `R1..=Rn`, and helping slots `R(n+1)..=R(2n)`. Every process
/// increments the counter exactly once even across repeated crashes; the
/// process whose increment installs `n` returns 1.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoverableCounterWakeup;

impl Algorithm for RecoverableCounterWakeup {
    fn name(&self) -> &'static str {
        "recoverable-counter-wakeup"
    }

    fn spawn(&self, pid: ProcessId, n: usize) -> Box<dyn Program> {
        assert_packable(n);
        wakeup_recover(pid.0 as i128 + 1, ann_reg(pid), n, false).into_program()
    }
}

/// [`RecoverableCounterWakeup`] with a tossed validate-backoff on SC
/// failure: half the retries (by fair coin) re-read the counter before
/// looping, so the recovery experiments exercise genuine randomness.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoverableRandCounterWakeup;

impl Algorithm for RecoverableRandCounterWakeup {
    fn name(&self) -> &'static str {
        "recoverable-rand-counter-wakeup"
    }

    fn spawn(&self, pid: ProcessId, n: usize) -> Box<dyn Program> {
        assert_packable(n);
        wakeup_recover(pid.0 as i128 + 1, ann_reg(pid), n, true).into_program()
    }
}

/// Checks [`RecoverableMutex`]'s safety property on a finished run's
/// verdicts: every verdict is an integer token, and in fully-terminated
/// runs the tokens are exactly `{1, ..., n}` (distinctness is the mutual
/// exclusion witness). Returns `Err` with a diagnostic on violation.
pub fn check_mutex_tokens<'a, I>(verdicts: I, n: usize) -> Result<(), String>
where
    I: IntoIterator<Item = Option<&'a Value>>,
{
    let mut tokens = Vec::new();
    for (i, v) in verdicts.into_iter().enumerate() {
        let Some(v) = v else { continue };
        match v.as_int() {
            Some(t) if t >= 1 && t <= n as i128 => tokens.push((t, i)),
            _ => return Err(format!("process {i} returned non-token verdict {v}")),
        }
    }
    let complete = tokens.len() == n;
    tokens.sort_unstable();
    for pair in tokens.windows(2) {
        if pair[0].0 == pair[1].0 {
            return Err(format!(
                "token {} issued to both p{} and p{}",
                pair[0].0, pair[0].1, pair[1].1
            ));
        }
    }
    if complete {
        for (want, &(got, _)) in (1..=n as i128).zip(tokens.iter()) {
            if got != want {
                return Err(format!("token set has a hole: expected {want}, saw {got}"));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use llsc_core::check_wakeup;
    use llsc_shmem::{
        CrashDriver, CrashPlan, Executor, ExecutorConfig, RandomScheduler, RecoverySpec,
        RoundRobinScheduler, RunOutcome, SeededTosses, ZeroTosses,
    };
    use std::sync::Arc;

    fn recovery(delay: u64, budget: u64) -> Option<RecoverySpec> {
        Some(RecoverySpec { delay, budget })
    }

    fn fresh(alg: &dyn Algorithm, n: usize) -> Executor {
        Executor::new(alg, n, Arc::new(ZeroTosses), ExecutorConfig::default())
    }

    fn tokens_of(e: &Executor, n: usize) -> Vec<i128> {
        let mut t: Vec<i128> = (0..n)
            .filter_map(|i| e.verdict(ProcessId(i)))
            .filter_map(Value::as_int)
            .collect();
        t.sort_unstable();
        t
    }

    #[test]
    fn mutex_issues_distinct_tokens_without_crashes() {
        for n in [1, 2, 5, 8] {
            let mut e = fresh(&RecoverableMutex, n);
            e.drive(&mut RoundRobinScheduler::new(), 1_000_000).unwrap();
            assert_eq!(e.run_outcome(), RunOutcome::Completed, "n={n}");
            assert_eq!(tokens_of(&e, n), (1..=n as i128).collect::<Vec<_>>());
            check_mutex_tokens((0..n).map(|i| e.verdict(ProcessId(i))), n).unwrap();
        }
    }

    #[test]
    fn mutex_survives_crash_recovery_with_repeated_crashes() {
        let n = 4;
        for seed in 0..8 {
            let alg = RecoverableMutex;
            let mut e = fresh(&alg, n);
            let plan = CrashPlan::seeded(seed, n, 2, 24);
            let mut sched = CrashDriver::new(RandomScheduler::new(seed), &plan, recovery(3, 2));
            sched.drive(&mut e, &alg, 1_000_000).unwrap();
            assert_eq!(e.run_outcome(), RunOutcome::Completed, "seed={seed}");
            assert_eq!(
                tokens_of(&e, n),
                (1..=n as i128).collect::<Vec<_>>(),
                "seed={seed}: a crash leaked or duplicated a token"
            );
            assert_eq!(
                e.memory().peek(MUTEX_COUNT).as_int(),
                Some(n as i128),
                "seed={seed}: increments must land exactly once each"
            );
        }
    }

    #[test]
    fn mutex_recovery_releases_a_stranded_lock() {
        // Crash p0 the moment it can hold the lock; the run completes only
        // if recovery repairs the critical section and frees the lock.
        let alg = RecoverableMutex;
        let n = 3;
        for at in 0..12 {
            let mut e = fresh(&alg, n);
            let plan = CrashPlan::at([(ProcessId(0), at)]);
            let mut sched = CrashDriver::new(RoundRobinScheduler::new(), &plan, recovery(4, 1));
            sched.drive(&mut e, &alg, 1_000_000).unwrap();
            assert_eq!(e.run_outcome(), RunOutcome::Completed, "crash at {at}");
            assert_eq!(tokens_of(&e, n), vec![1, 2, 3], "crash at {at}");
            assert_eq!(e.memory().peek(LOCK).as_int().unwrap_or(0), 0, "lock freed");
        }
    }

    #[test]
    fn recoverable_wakeup_satisfies_wakeup_without_crashes() {
        for n in [1, 2, 3, 6, 9] {
            let mut e = fresh(&RecoverableCounterWakeup, n);
            e.drive(&mut RoundRobinScheduler::new(), 1_000_000).unwrap();
            assert_eq!(e.run_outcome(), RunOutcome::Completed, "n={n}");
            let check = check_wakeup(e.run());
            assert!(check.ok(), "n={n}: {check}");
            assert_eq!(check.winners.len(), 1, "n={n}");
        }
    }

    #[test]
    fn recoverable_wakeup_survives_crash_recovery() {
        let n = 5;
        for seed in 0..8 {
            let alg = RecoverableCounterWakeup;
            let mut e = fresh(&alg, n);
            let plan = CrashPlan::seeded(seed, n, 2, 32);
            let mut sched = CrashDriver::new(RandomScheduler::new(seed), &plan, recovery(4, 2));
            sched.drive(&mut e, &alg, 1_000_000).unwrap();
            assert_eq!(e.run_outcome(), RunOutcome::Completed, "seed={seed}");
            let check = check_wakeup(e.run());
            assert!(check.ok(), "seed={seed}: {check}");
            assert_eq!(
                check.winners.len(),
                1,
                "seed={seed}: crashes must not forge or lose the winner"
            );
        }
    }

    #[test]
    fn randomized_variant_stays_correct_and_actually_tosses() {
        let n = 6;
        let mut tossed = 0u64;
        for seed in 0..8 {
            let alg = RecoverableRandCounterWakeup;
            let mut e = Executor::new(
                &alg,
                n,
                Arc::new(SeededTosses::new(seed)),
                ExecutorConfig::default(),
            );
            let plan = CrashPlan::seeded(seed, n, 2, 32);
            let mut sched =
                CrashDriver::new(RandomScheduler::new(seed ^ 0x9E37), &plan, recovery(4, 2));
            sched.drive(&mut e, &alg, 1_000_000).unwrap();
            assert_eq!(e.run_outcome(), RunOutcome::Completed, "seed={seed}");
            let check = check_wakeup(e.run());
            assert!(check.ok(), "seed={seed}: {check}");
            tossed += (0..n).map(|i| e.run().tosses(ProcessId(i))).sum::<u64>();
        }
        assert!(tossed > 0, "the backoff coin is on the execution path");
    }

    #[test]
    fn recovery_runs_are_deterministic() {
        let run_once = |alg: &dyn Algorithm| {
            let n = 5;
            let mut e = Executor::new(
                alg,
                n,
                Arc::new(SeededTosses::new(13)),
                ExecutorConfig::default(),
            );
            let plan = CrashPlan::seeded(13, n, 3, 24);
            let mut sched = CrashDriver::new(RandomScheduler::new(13), &plan, recovery(3, 2));
            sched.drive(&mut e, alg, 1_000_000).unwrap();
            (e.run().events().to_vec(), e.run_outcome())
        };
        assert_eq!(run_once(&RecoverableMutex), run_once(&RecoverableMutex));
        assert_eq!(
            run_once(&RecoverableRandCounterWakeup),
            run_once(&RecoverableRandCounterWakeup)
        );
    }

    #[test]
    fn check_mutex_tokens_flags_duplicates_and_holes() {
        let one = Value::from(1i64);
        let two = Value::from(2i64);
        let dup = [Some(&one), Some(&one)];
        assert!(check_mutex_tokens(dup, 2).unwrap_err().contains("both"));
        let hole = [Some(&two), Some(&two)];
        assert!(check_mutex_tokens(hole, 2).is_err());
        let partial = [Some(&two), None];
        assert!(
            check_mutex_tokens(partial, 2).is_ok(),
            "a crashed run may have issued any subset of tokens"
        );
    }
}
