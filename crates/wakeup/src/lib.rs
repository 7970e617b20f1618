//! # llsc-wakeup: wakeup algorithms and the Theorem 6.2 reductions
//!
//! The wakeup problem (Section 1.1 of Jayanti PODC'98) asks every process
//! to terminate returning 0/1 such that, in terminating runs, someone
//! returns 1 — and only after every process has taken a step. This crate
//! supplies the concrete algorithms the lower-bound machinery of
//! [`llsc_core`] is exercised against:
//!
//! * **Correct solutions** — [`CounterWakeup`] and [`BitsetWakeup`]
//!   (simple, `Θ(n)` worst case), [`TournamentWakeup`] (winner cost
//!   `⌈log₂ n⌉ + 1`, within a factor ~2 of the `log₄ n` lower bound: the
//!   bound is essentially tight for wakeup itself), and [`GossipWakeup`]
//!   (exercises swap, move, and validate — the full five-operation memory —
//!   under the adversary).
//! * **Randomized solutions** — [`RandomizedCounterWakeup`] and
//!   [`BackoffWakeup`], with genuine coin tosses on the execution path,
//!   for the expected-complexity experiments (Lemma 3.1).
//! * **Fault-hardened solutions** — [`HardenedCounterWakeup`],
//!   [`HardenedRandomizedCounterWakeup`] and [`HardenedTournamentWakeup`]:
//!   twins of the corresponding algorithms above that diagnose spurious SC
//!   failures and register corruption (the [`llsc_shmem::FaultPlan`]
//!   adversary) with free checks and checksummed payloads, retry with
//!   bounded backoff, and publish detections to telemetry registers —
//!   at zero extra shared-access cost when no fault fires.
//! * **Strawmen** — [`PrematureWakeup`], [`SilentWakeup`],
//!   [`HalfCountWakeup`], [`NoStepWakeup`]: deliberately broken algorithms
//!   that the Theorem 6.1 driver refutes (constructing the `(S, A)`-run
//!   counterexample where applicable).
//! * **Reductions** — [`ObjectWakeup`] implements all eight Theorem 6.2
//!   wakeup-from-object reductions ([`ReductionKind`]) over any
//!   [`llsc_universal::ObjectImplementation`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod bitset;
mod counter_alg;
mod gossip;
mod hardened;
mod randomized;
mod recoverable;
mod reductions;
mod strawman;
mod tournament;

pub use bitset::BitsetWakeup;
pub use counter_alg::CounterWakeup;
pub use gossip::GossipWakeup;
pub use hardened::{
    HardenedCounterWakeup, HardenedRandomizedCounterWakeup, HardenedTournamentWakeup,
};
pub use randomized::{BackoffWakeup, RandomizedCounterWakeup};
pub use recoverable::{
    check_mutex_tokens, RecoverableCounterWakeup, RecoverableMutex, RecoverableRandCounterWakeup,
};
pub use reductions::{ObjectWakeup, ReductionKind};
pub use strawman::{HalfCountWakeup, NoStepWakeup, PrematureWakeup, SilentWakeup};
pub use tournament::TournamentWakeup;

use llsc_shmem::Algorithm;

/// The deterministic, correct wakeup algorithms shipped by this crate —
/// the standard sweep set for the lower-bound experiments.
pub fn correct_algorithms() -> Vec<Box<dyn Algorithm>> {
    vec![
        Box::new(CounterWakeup),
        Box::new(BitsetWakeup),
        Box::new(TournamentWakeup),
        Box::new(GossipWakeup),
    ]
}

/// The randomized, correct wakeup algorithms (terminating with
/// probability 1 under fair coins).
pub fn randomized_algorithms() -> Vec<Box<dyn Algorithm>> {
    vec![Box::new(RandomizedCounterWakeup), Box::new(BackoffWakeup)]
}

/// The fault-hardened wakeup algorithms: twins of the counter, randomized
/// counter, and tournament solutions that detect and recover from the
/// [`llsc_shmem::FaultPlan`] adversary's spurious SC failures and register
/// corruption. The standard sweep set for experiment E16.
pub fn hardened_algorithms() -> Vec<Box<dyn Algorithm>> {
    vec![
        Box::new(HardenedCounterWakeup),
        Box::new(HardenedRandomizedCounterWakeup),
        Box::new(HardenedTournamentWakeup),
    ]
}

/// The crash-recoverable algorithms: durable state machines whose spawn
/// path doubles as a recovery section under the
/// [`llsc_shmem::RecoveringCrashScheduler`] adversary. The standard sweep
/// set for experiment E19.
pub fn recoverable_algorithms() -> Vec<Box<dyn Algorithm>> {
    vec![
        Box::new(RecoverableMutex),
        Box::new(RecoverableCounterWakeup),
        Box::new(RecoverableRandCounterWakeup),
    ]
}

/// The deliberately broken algorithms, for the refutation experiments.
pub fn strawman_algorithms() -> Vec<Box<dyn Algorithm>> {
    vec![
        Box::new(PrematureWakeup),
        Box::new(SilentWakeup),
        Box::new(HalfCountWakeup),
        Box::new(NoStepWakeup),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registries_are_disjoint_and_named() {
        let mut names = std::collections::BTreeSet::new();
        for alg in correct_algorithms()
            .iter()
            .chain(randomized_algorithms().iter())
            .chain(hardened_algorithms().iter())
            .chain(recoverable_algorithms().iter())
            .chain(strawman_algorithms().iter())
        {
            assert!(names.insert(alg.name().to_string()), "dup {}", alg.name());
        }
        assert_eq!(names.len(), 16);
    }
}
