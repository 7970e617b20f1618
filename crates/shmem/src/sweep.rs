//! The deterministic parallel trial engine.
//!
//! Every theorem check in this reproduction is a *sweep* of independent
//! deterministic trials — seeds × sizes × configurations. This module is
//! the one engine all of them run on:
//!
//! * a [`Trial`] is one unit of work, identified by its index in the sweep
//!   and carrying a seed derived purely from `(sweep seed, index)`;
//! * a [`Sweep`] describes how to run a batch of trials: with how many
//!   worker threads and under which sweep seed;
//! * [`Sweep::run`] fans trials out over `std::thread::scope` workers and
//!   merges the results **in trial-index order**.
//!
//! Because each trial's output depends only on its item and its derived
//! seed, and because the merge order is the index order, the produced
//! `Vec` is identical at 1, 4, or 16 threads — tables and JSON artifacts
//! rendered from it are byte-identical regardless of `--threads`.
//!
//! # Examples
//!
//! ```
//! use llsc_shmem::sweep::Sweep;
//! let items: Vec<u64> = (0..100).collect();
//! let serial = Sweep::sequential().run(&items, |t, &x| x * 2 + (t.seed % 2));
//! let parallel = Sweep::with_threads(4).run(&items, |t, &x| x * 2 + (t.seed % 2));
//! assert_eq!(serial, parallel);
//! ```

use crate::cancel::{self, panic_message, CancelToken, InstalledToken};
use crate::rng::trial_seed;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

/// One unit of work within a sweep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Trial {
    /// The trial's position in the sweep (also its merge position).
    pub index: usize,
    /// The trial's private seed, derived from `(sweep seed, index)` by
    /// [`trial_seed`]. Identical across thread counts and run orders.
    pub seed: u64,
}

/// A trial that panicked inside [`Sweep::run_fallible`]: the identifying
/// `(index, seed)` pair plus the stringified panic payload and the
/// experiment-provided context (its fault/crash plan summary), so a
/// failure row in a JSON artifact is enough to replay the one bad trial.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TrialFailure {
    /// The failing trial's position in the sweep.
    pub index: usize,
    /// The seed the failing trial ran under, derived from
    /// `(sweep seed, index)` by [`trial_seed`].
    pub seed: u64,
    /// The panic payload, stringified (`&str`/`String` payloads verbatim;
    /// anything else is labelled opaque).
    pub payload: String,
    /// Experiment-provided reproduction context (for example the trial's
    /// fault/crash plan summary); empty when the sweep attached none.
    pub context: String,
    /// A serialized [`crate::repro::ReproCase`] for the failing run, when
    /// the experiment attached one (the sweep engine itself cannot build
    /// it: only the experiment knows the algorithm and plans).
    pub repro: Option<String>,
}

impl fmt::Display for TrialFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "trial {} (seed {:#018x}) panicked: {}",
            self.index, self.seed, self.payload
        )?;
        if !self.context.is_empty() {
            write!(f, " [{}]", self.context)?;
        }
        Ok(())
    }
}

/// A batch of independent deterministic trials: thread count, sweep seed,
/// optional per-trial wall-clock deadline, and the [`CancelToken`] its
/// trials answer to.
///
/// Each trial runs exactly once. A trial is a pure function of its item
/// and seed, so re-running it could only repeat it, and re-running it
/// under another seed would measure a toss assignment its row does not
/// name; a panicking trial is reported as it happened.
#[derive(Clone, Debug)]
pub struct Sweep {
    /// Worker threads to fan trials out over (clamped to at least 1).
    pub threads: usize,
    /// The sweep seed from which every trial seed is derived.
    pub seed: u64,
    /// Per-trial wall-clock deadline; `None` (the default) disables the
    /// check. Timeouts convert a hung trial into a structured failure,
    /// at the price of machine-speed dependence *in failure rows only* —
    /// trials that finish in time are untouched, so passing artifacts
    /// stay byte-identical.
    pub trial_timeout: Option<Duration>,
    /// The token every trial of this sweep polls (through the executor's
    /// event guard): cancelling it, or passing its deadline, panics the
    /// in-flight trials into their failure path. Each sweep owns its
    /// own token unless one is handed in with [`Sweep::with_cancel`].
    pub cancel: CancelToken,
}

impl Default for Sweep {
    fn default() -> Self {
        Sweep::sequential()
    }
}

impl Sweep {
    /// A single-threaded sweep with the default seed 0.
    pub fn sequential() -> Self {
        Sweep {
            threads: 1,
            seed: 0,
            trial_timeout: None,
            cancel: CancelToken::new(),
        }
    }

    /// A sweep over `threads` workers with the default seed 0.
    pub fn with_threads(threads: usize) -> Self {
        Sweep {
            threads,
            ..Sweep::sequential()
        }
    }

    /// Sets the sweep seed (builder style).
    pub fn seeded(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the per-trial wall-clock deadline (builder style); see
    /// [`Sweep::trial_timeout`].
    pub fn with_trial_timeout(mut self, timeout: Duration) -> Self {
        self.trial_timeout = Some(timeout);
        self
    }

    /// Sets the token the sweep's trials answer to (builder style); see
    /// [`Sweep::cancel`].
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = token;
        self
    }

    /// Installs the sweep's token, narrowed by the per-trial deadline, on
    /// the calling worker thread for one trial.
    fn arm_trial(&self) -> InstalledToken {
        cancel::install(match self.trial_timeout {
            Some(timeout) => self.cancel.with_timeout(timeout),
            None => self.cancel.clone(),
        })
    }

    /// Runs `f` once per item and returns the outputs in item order.
    ///
    /// Work distribution is dynamic (an atomic cursor; busy trials do not
    /// stall the queue), but the output position of each trial is its
    /// index, so the result is independent of scheduling. `f` must be a
    /// pure function of `(trial, item)` for the determinism guarantee to
    /// mean anything; nothing in this engine hands it ambient state.
    ///
    /// # Panics
    ///
    /// Re-raises the first (lowest-index) panic any trial recorded — but
    /// only after every other trial has run to completion, via
    /// [`Sweep::run_fallible`]: one diverging seed no longer takes the
    /// rest of the sweep down with it.
    pub fn run<I, T, F>(&self, items: &[I], f: F) -> Vec<T>
    where
        I: Sync,
        T: Send,
        F: Fn(Trial, &I) -> T + Sync,
    {
        self.run_fallible(items, f)
            .into_iter()
            .map(|r| match r {
                Ok(out) => out,
                Err(failure) => panic!("{failure}"),
            })
            .collect()
    }

    /// Runs `f` once per item, isolating panics: the result vector is in
    /// item order, with each panicking trial recorded as a
    /// [`TrialFailure`] (index, seed, stringified payload) while every
    /// other trial still completes and returns `Ok`.
    ///
    /// Each trial closure runs under [`std::panic::catch_unwind`], and
    /// results are merged through per-slot locks with poison recovery, so
    /// neither the unwind nor the merge can cascade one bad seed into the
    /// loss of the whole sweep. As with [`Sweep::run`], `f` must be a pure
    /// function of `(trial, item)`; that purity is also what makes it
    /// unwind-safe to record.
    ///
    /// Each trial runs once, under the sweep's [`Sweep::trial_timeout`] if
    /// one is set.
    pub fn run_fallible<I, T, F>(&self, items: &[I], f: F) -> Vec<Result<T, TrialFailure>>
    where
        I: Sync,
        T: Send,
        F: Fn(Trial, &I) -> T + Sync,
    {
        self.run_fallible_with(items, f, |_, _| String::new())
    }

    /// [`Sweep::run_fallible`] with a reproduction-context callback:
    /// `context(trial, item)` is evaluated for each *failing* trial and
    /// recorded in its [`TrialFailure::context`] (experiments put their
    /// fault/crash plan summaries there, making any failure row in a JSON
    /// artifact reproducible on its own).
    pub fn run_fallible_with<I, T, F, C>(
        &self,
        items: &[I],
        f: F,
        context: C,
    ) -> Vec<Result<T, TrialFailure>>
    where
        I: Sync,
        T: Send,
        F: Fn(Trial, &I) -> T + Sync,
        C: Fn(Trial, &I) -> String + Sync,
    {
        let trial = |index: usize| Trial {
            index,
            seed: trial_seed(self.seed, index),
        };
        let guarded = |t: Trial, item: &I| -> Result<T, TrialFailure> {
            let outcome = {
                let _token = self.arm_trial();
                catch_unwind(AssertUnwindSafe(|| f(t, item)))
            };
            outcome.map_err(|payload| TrialFailure {
                index: t.index,
                seed: t.seed,
                payload: panic_message(payload.as_ref()),
                context: context(t, item),
                repro: None,
            })
        };
        self.pool(items.len(), || (), |(), i| guarded(trial(i), &items[i]))
    }

    /// Runs `f` once per index in `offset..offset + count` with a
    /// **per-worker scratch**: each worker thread builds one scratch value
    /// via `init` and reuses it across every trial it claims — a reusable
    /// executor, memory buffers, or any other trial context that would
    /// otherwise be reallocated per trial. Results are merged in index
    /// order, exactly as in [`Sweep::run`].
    ///
    /// Trial identity (index *and* derived seed,
    /// `trial_seed(sweep seed, index)`) comes from the global index, as in
    /// [`Sweep::run_indexed`]. This is the chunking hook the resumable job
    /// layer is built on: a sweep's index space executed as a sequence of
    /// ranges — in any order, at any thread count, across process
    /// restarts — yields exactly the outputs of one uninterrupted sweep
    /// over `0..total`, sliced.
    ///
    /// The determinism contract extends to the scratch: `f`'s *output*
    /// must remain a pure function of the trial — the scratch may carry
    /// allocation capacity between trials, but no trial-visible state
    /// (reset it at the top of `f`, e.g.
    /// [`Executor::reset`](crate::Executor::reset)). The scratch never
    /// crosses threads (each worker builds, uses, and drops its own), so
    /// `S` needs neither `Send` nor `Sync`.
    ///
    /// # Panics
    ///
    /// A panicking trial propagates out of the sweep. There is
    /// deliberately no scratch-aware fallible variant: after an unwind
    /// the scratch state is suspect, so recording and reusing it would be
    /// a false promise — use [`Sweep::run_fallible`] when isolation
    /// matters more than reuse. The sweep's [`Sweep::trial_timeout`]
    /// *does* apply here, exactly as in the fallible paths: a hung trial
    /// panics (and propagates) rather than hanging the sweep forever.
    pub fn run_indexed_range_with_scratch<T, S, Init, F>(
        &self,
        offset: usize,
        count: usize,
        init: Init,
        f: F,
    ) -> Vec<T>
    where
        T: Send,
        Init: Fn() -> S + Sync,
        F: Fn(&mut S, Trial) -> T + Sync,
    {
        self.pool(count, init, |scratch, i| {
            let _token = self.arm_trial();
            let index = offset + i;
            f(
                scratch,
                Trial {
                    index,
                    seed: trial_seed(self.seed, index),
                },
            )
        })
    }

    /// The one worker pool behind the fallible and scratch sweeps: runs
    /// `f(scratch, i)` for every `i` in `0..count` and returns the results
    /// in index order. One worker runs the trials in order on the calling
    /// thread; more claim indices from an atomic cursor on scoped threads,
    /// each building its own scratch with `init` (so `S` never crosses
    /// threads).
    fn pool<T, S, Init, F>(&self, count: usize, init: Init, f: F) -> Vec<T>
    where
        T: Send,
        Init: Fn() -> S + Sync,
        F: Fn(&mut S, usize) -> T + Sync,
    {
        if count == 0 {
            return Vec::new();
        }
        let threads = self.threads.max(1).min(count);
        if threads <= 1 {
            let mut scratch = init();
            return (0..count).map(|i| f(&mut scratch, i)).collect();
        }
        let cursor = AtomicUsize::new(0);
        // One slot per trial, so a worker's lock scope covers exactly its
        // own slot: a single shared Mutex would let one panicking trial
        // poison every other trial's result. Results are computed before
        // locking, and the merge recovers from a poisoned slot regardless.
        let slots: Vec<Mutex<Option<T>>> = (0..count).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    let mut scratch = init();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= count {
                            break;
                        }
                        let out = f(&mut scratch, i);
                        *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(out);
                    }
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap_or_else(PoisonError::into_inner)
                    .expect("every trial index was claimed exactly once")
            })
            .collect()
    }

    /// Runs `f` once per index in `0..count` (a sweep whose items are just
    /// their indices — seed sweeps, subset enumerations).
    pub fn run_indexed<T, F>(&self, count: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(Trial) -> T + Sync,
    {
        let indices: Vec<usize> = (0..count).collect();
        self.run(&indices, |t, _| f(t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cancel::check_trial_token;
    use crate::{Action, Executor, ExecutorConfig, Feedback, Operation, Program, RegisterId};
    use crate::{FnAlgorithm, Value, ZeroTosses};
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    #[test]
    fn results_are_in_index_order() {
        let items: Vec<usize> = (0..257).collect();
        let out = Sweep::with_threads(8).run(&items, |t, &x| {
            assert_eq!(t.index, x);
            x * 3
        });
        assert_eq!(out, (0..257).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn thread_count_does_not_change_output() {
        let items: Vec<u64> = (0..500).collect();
        let f = |t: Trial, x: &u64| (t.seed ^ x, t.index);
        let base = Sweep::sequential().run(&items, f);
        for threads in [2, 4, 8, 16] {
            assert_eq!(Sweep::with_threads(threads).run(&items, f), base);
        }
    }

    #[test]
    fn seed_changes_trial_seeds_but_not_structure() {
        let items: Vec<u64> = (0..10).collect();
        let a = Sweep::sequential().seeded(1).run(&items, |t, _| t.seed);
        let b = Sweep::sequential().seeded(2).run(&items, |t, _| t.seed);
        assert_eq!(a.len(), b.len());
        assert!(a.iter().zip(&b).all(|(x, y)| x != y));
    }

    #[test]
    fn empty_item_list_is_fine() {
        let out = Sweep::with_threads(4).run(&Vec::<u64>::new(), |_, &x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn run_indexed_counts_up() {
        let out = Sweep::with_threads(3).run_indexed(7, |t| t.index);
        assert_eq!(out, vec![0, 1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn more_threads_than_items_is_clamped() {
        let items = vec![1u64, 2];
        let out = Sweep::with_threads(64).run(&items, |_, &x| x + 1);
        assert_eq!(out, vec![2, 3]);
    }

    #[test]
    fn panicking_trial_leaves_other_results_intact() {
        // Trial 3 panics; with the old single-Mutex merge the poisoned
        // lock cascaded into losing the whole multi-thread sweep. Now the
        // other 16 trials' results all survive, and the failure row
        // carries the trial's identity and payload.
        let items: Vec<usize> = (0..17).collect();
        for threads in [1, 4] {
            let out = Sweep::with_threads(threads).run_fallible(&items, |t, &x| {
                if x == 3 {
                    panic!("deliberate failure in trial {}", t.index);
                }
                x * 10
            });
            assert_eq!(out.len(), 17);
            for (i, r) in out.iter().enumerate() {
                if i == 3 {
                    let f = r.as_ref().unwrap_err();
                    assert_eq!(f.index, 3);
                    assert_eq!(f.seed, crate::rng::trial_seed(0, 3));
                    assert!(f.payload.contains("deliberate failure in trial 3"));
                    assert!(f.repro.is_none(), "the engine attaches no repro");
                    assert!(f.to_string().contains("trial 3"));
                } else {
                    assert_eq!(*r.as_ref().unwrap(), i * 10, "threads={threads}");
                }
            }
        }
    }

    #[test]
    fn run_fallible_is_thread_invariant() {
        let items: Vec<u64> = (0..40).collect();
        let f = |t: Trial, x: &u64| {
            if x.is_multiple_of(7) {
                panic!("bad seed {:#x}", t.seed);
            }
            t.seed ^ x
        };
        let base = Sweep::sequential().run_fallible(&items, f);
        for threads in [2, 8] {
            assert_eq!(Sweep::with_threads(threads).run_fallible(&items, f), base);
        }
    }

    #[test]
    fn run_repanics_with_the_first_failure_after_completion() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let completed = AtomicUsize::new(0);
        let items: Vec<usize> = (0..10).collect();
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            Sweep::with_threads(2).run(&items, |_, &x| {
                if x == 5 {
                    panic!("boom");
                }
                completed.fetch_add(1, Ordering::Relaxed);
                x
            })
        }));
        let err = result.unwrap_err();
        let msg = err
            .downcast_ref::<String>()
            .expect("re-panic carries the formatted TrialFailure");
        assert!(msg.contains("trial 5"), "{msg}");
        assert!(msg.contains("boom"), "{msg}");
        assert_eq!(
            completed.load(Ordering::Relaxed),
            9,
            "all other trials completed before the re-panic"
        );
    }

    #[test]
    fn run_indexed_fallible_matches_indexed() {
        let items: Vec<usize> = (0..5).collect();
        let ok = Sweep::with_threads(3).run_fallible(&items, |t, _| t.index * 2);
        assert_eq!(
            ok.into_iter().collect::<Result<Vec<_>, _>>().unwrap(),
            vec![0, 2, 4, 6, 8]
        );
    }

    #[test]
    fn scratch_sweep_matches_plain_sweep_at_any_thread_count() {
        // Same seeds, same merge order: a scratch sweep whose closure
        // ignores the scratch is indistinguishable from Sweep::run.
        let items: Vec<u64> = (0..300).collect();
        let base = Sweep::sequential()
            .seeded(9)
            .run(&items, |t, &x| t.seed ^ x);
        for threads in [1, 2, 8] {
            let scratched = Sweep::with_threads(threads)
                .seeded(9)
                .run_indexed_range_with_scratch(0, items.len(), Vec::<u64>::new, |scratch, t| {
                    scratch.clear(); // reset: no trial-visible state survives
                    scratch.push(t.seed ^ items[t.index]);
                    scratch[0]
                });
            assert_eq!(scratched, base, "threads={threads}");
        }
    }

    #[test]
    fn scratch_is_built_once_per_worker_and_reused() {
        let inits = AtomicUsize::new(0);
        let items: Vec<usize> = (0..64).collect();
        let out = Sweep::with_threads(4).run_indexed_range_with_scratch(
            0,
            items.len(),
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                0usize
            },
            |uses, t| {
                *uses += 1;
                items[t.index]
            },
        );
        assert_eq!(out, items);
        let built = inits.load(Ordering::Relaxed);
        assert!(
            (1..=4).contains(&built),
            "one scratch per worker, not per trial (built {built})"
        );
    }

    #[test]
    fn indexed_scratch_counts_up_in_order() {
        let sweep = Sweep::with_threads(3);
        let out = sweep.run_indexed_range_with_scratch(0, 9, || (), |(), t| t.index * 2);
        assert_eq!(out, (0..9).map(|i| i * 2).collect::<Vec<_>>());
        let empty = sweep.run_indexed_range_with_scratch(0, 0, || (), |(), t| t.index);
        assert!(empty.is_empty());
    }

    #[test]
    fn context_callback_is_recorded_on_failures() {
        let items: Vec<usize> = (0..4).collect();
        let out = Sweep::sequential().run_fallible_with(
            &items,
            |_, &x| {
                if x == 2 {
                    panic!("boom");
                }
                x
            },
            |t, &x| format!("item={x} index={}", t.index),
        );
        let f = out[2].as_ref().unwrap_err();
        assert_eq!(f.context, "item=2 index=2");
        assert!(f.to_string().contains("[item=2 index=2]"), "{f}");
        assert!(out[1].is_ok(), "context evaluation is failure-only");
    }

    #[test]
    fn trial_timeout_converts_a_hung_trial_into_a_failure() {
        use std::time::Duration;
        // The per-trial timeout nests inside the sweep token's (far later)
        // deadline and expires on its own, without touching the token.
        let token = CancelToken::new().with_timeout(Duration::from_secs(3600));
        let items: Vec<u64> = (0..3).collect();
        let out = Sweep::sequential()
            .with_cancel(token.clone())
            .with_trial_timeout(Duration::from_millis(10))
            .run_fallible(&items, |_, &x| {
                if x == 1 {
                    // A "hung" trial: spin until the ambient deadline
                    // fires (checked the way the executor checks it).
                    let mut events = 0u64;
                    loop {
                        events += 1;
                        if events.is_multiple_of(512) {
                            check_trial_token(events);
                        }
                    }
                }
                x
            });
        assert_eq!(out[0], Ok(0));
        assert_eq!(out[2], Ok(2), "later trials run after the timeout");
        let f = out[1].as_ref().unwrap_err();
        assert!(
            f.payload.contains("wall-clock deadline exceeded"),
            "{}",
            f.payload
        );
        assert!(!token.is_cancelled() && !token.is_expired());
    }

    #[test]
    fn scratch_sweeps_honor_the_trial_timeout() {
        use std::time::Duration;
        // The PR 4 scratch paths used to skip deadline arming entirely; a
        // hung trial now panics out of the sweep at any thread count.
        for threads in [1, 2] {
            let result = catch_unwind(AssertUnwindSafe(|| {
                Sweep::with_threads(threads)
                    .with_trial_timeout(Duration::from_millis(10))
                    .run_indexed_range_with_scratch(
                        0,
                        2,
                        || (),
                        |(), t| -> u64 {
                            if t.index == 0 {
                                return 0;
                            }
                            let mut events = 0u64;
                            loop {
                                events += 1;
                                if events.is_multiple_of(512) {
                                    check_trial_token(events);
                                }
                            }
                        },
                    )
            }));
            let payload = panic_message(result.unwrap_err().as_ref());
            if threads == 1 {
                assert!(
                    payload.contains("wall-clock deadline exceeded"),
                    "{payload}"
                );
            }
            // (a worker panic surfaces as the scope's own payload, so only
            // the sequential path can assert on the message — the unwrap
            // above already proves the parallel path times out too.)
        }
        check_trial_token(0); // the guard restored the disarmed state
    }

    #[test]
    fn range_sweep_is_a_slice_of_the_full_sweep() {
        // The chunking contract: any partition of the index space into
        // contiguous ranges, executed in any order at any thread count,
        // reproduces the full sweep's outputs exactly.
        let full = Sweep::sequential()
            .seeded(42)
            .run_indexed_range_with_scratch(0, 100, || (), |(), t| (t.index, t.seed));
        for threads in [1, 3] {
            let sweep = Sweep::with_threads(threads).seeded(42);
            let mut chunked = Vec::new();
            for (offset, count) in [(64, 36), (0, 10), (10, 54)] {
                let part = sweep.run_indexed_range_with_scratch(
                    offset,
                    count,
                    || (),
                    |(), t| (t.index, t.seed),
                );
                assert_eq!(part.len(), count);
                chunked.push((offset, part));
            }
            chunked.sort_by_key(|(offset, _)| *offset);
            let merged: Vec<(usize, u64)> =
                chunked.into_iter().flat_map(|(_, part)| part).collect();
            assert_eq!(merged, full, "threads={threads}");
        }
    }

    #[test]
    fn cancelled_token_panics_polling_trials_and_is_scoped_to_its_sweep() {
        let token = CancelToken::new();
        let sweep = Sweep::with_threads(2).with_cancel(token.clone());
        let items: Vec<u64> = (0..4).collect();
        let live = sweep.run_fallible(&items, |_, &x| {
            check_trial_token(7); // an uncancelled token is a no-op
            x
        });
        assert!(live.iter().all(Result::is_ok));
        token.cancel();
        let cancelled = sweep.run_fallible(&items, |_, &x| {
            check_trial_token(7);
            x
        });
        for r in &cancelled {
            let f = r.as_ref().unwrap_err();
            assert!(f.payload.contains("sweep cancelled after 7"), "{f}");
        }
        // The worker's guard uninstalled the token: outside the sweep the
        // poll is a no-op again, and a fresh sweep has a fresh token.
        check_trial_token(7);
        assert_eq!(Sweep::with_threads(2).run(&items, |_, &x| x), items);
    }

    /// Swaps register 0 `left` times (forever when `None`), then returns.
    struct Swapper {
        left: Option<u64>,
    }

    impl Program for Swapper {
        fn next(&mut self, _: Feedback) -> Action {
            match &mut self.left {
                Some(0) => Action::Return(Value::from(0i64)),
                Some(k) => {
                    *k -= 1;
                    Action::Invoke(Operation::Swap(RegisterId(0), Value::from(1i64)))
                }
                None => Action::Invoke(Operation::Swap(RegisterId(0), Value::from(1i64))),
            }
        }
    }

    /// Drives one executor trial of `swaps` swaps per process (forever
    /// when `None`) and returns its event count.
    fn executor_trial(t: Trial, swaps: Option<u64>) -> u64 {
        let alg = FnAlgorithm::new("swapper", move |_, _| {
            Box::new(Swapper { left: swaps }) as Box<dyn Program>
        });
        let mut exec = Executor::new(&alg, 2, Arc::new(ZeroTosses), ExecutorConfig::default());
        while exec.step_round_robin().expect("within budget") {}
        exec.recorded_events() ^ t.seed
    }

    #[test]
    fn cancelling_one_sweep_leaves_a_concurrent_sweep_untouched() {
        // Two sweeps on two threads, each with its own token. Sweep A's
        // trials spin through the executor until A is cancelled; sweep B
        // runs all of its trials after that cancel, and every one of them
        // must still match an uncancelled run (a process-global abort
        // flag failed them all).
        let items: Vec<u64> = (0..8).collect();
        let b_trial = |t: Trial, _: &u64| executor_trial(t, Some(2_000));
        let baseline = Sweep::with_threads(2)
            .seeded(5)
            .run_fallible(&items, b_trial);
        assert!(baseline.iter().all(Result::is_ok));

        let a_token = CancelToken::new();
        let a_running = AtomicBool::new(false);
        let a_cancelled = AtomicBool::new(false);
        let (a_out, b_out) = std::thread::scope(|scope| {
            let a = scope.spawn(|| {
                Sweep::with_threads(2)
                    .with_cancel(a_token.clone())
                    .run_fallible(&items, |t, _| {
                        a_running.store(true, Ordering::SeqCst);
                        executor_trial(t, None)
                    })
            });
            let b = scope.spawn(|| {
                while !a_cancelled.load(Ordering::SeqCst) {
                    std::hint::spin_loop();
                }
                Sweep::with_threads(2)
                    .seeded(5)
                    .run_fallible(&items, b_trial)
            });
            while !a_running.load(Ordering::SeqCst) {
                std::hint::spin_loop();
            }
            a_token.cancel();
            a_cancelled.store(true, Ordering::SeqCst);
            (a.join().unwrap(), b.join().unwrap())
        });
        assert_eq!(b_out, baseline, "B is independent of A's token");
        for r in &a_out {
            let f = r.as_ref().unwrap_err();
            assert!(f.payload.contains("sweep cancelled"), "{f}");
        }
    }

    #[test]
    fn deadline_is_cleared_after_each_trial_even_across_unwind() {
        use std::time::Duration;
        // A timed sweep whose trial panics must not leave a stale
        // deadline armed on the worker thread.
        let _ = Sweep::sequential()
            .with_trial_timeout(Duration::from_millis(1))
            .run_fallible(&[0usize], |_, _| -> usize { panic!("bad") });
        std::thread::sleep(Duration::from_millis(2));
        check_trial_token(0); // must not panic: no deadline armed here
    }
}
