//! The composed chaos adversary: crash faults, memory faults, and an
//! adversarial randomized schedule in one seeded plan.
//!
//! PRs 2–3 gave the simulator each fault family in isolation
//! ([`CrashPlan`], [`FaultPlan`], the seeded [`RandomScheduler`]); a
//! [`ChaosPlan`] layers all three, derived purely from
//! `(seed, n, intensity, window)` so a chaos trial is as reproducible as
//! a clean one. Intensity scales every layer at once:
//!
//! * `intensity` spurious-SC failures and `intensity` register
//!   corruptions (via [`FaultPlan::seeded`]),
//! * `intensity / 2` crash-stop victims, capped at `n - 1` so at least
//!   one process always survives (via [`CrashPlan::seeded`]),
//! * a seeded [`RandomScheduler`] in place of the benign round-robin.
//!
//! Sub-seeds are decorrelated through [`split_mix`] with distinct salts,
//! so the three layers never share a stream even for small consecutive
//! seeds. Experiment E17 sweeps intensity against the plain and hardened
//! algorithm twins; [`ChaosPlan::to_case`] packages one chaos trial as a
//! replayable [`ReproCase`].

use crate::repro::{ReproCase, ScheduleSpec, TossSpec};
use crate::rng::split_mix;
use crate::{CrashPlan, FaultPlan, RandomScheduler};

/// Salt for the crash-plan sub-seed.
const CRASH_SALT: u64 = 0xC4A0_5AB0_7E17_0001;
/// Salt for the fault-plan sub-seed.
const FAULT_SALT: u64 = 0xC4A0_5AB0_7E17_0002;
/// Salt for the scheduler sub-seed.
const SCHED_SALT: u64 = 0xC4A0_5AB0_7E17_0003;

/// A seeded, composed adversary: crashes + memory faults + a randomized
/// schedule. Pure function of its constructor arguments.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChaosPlan {
    intensity: usize,
    crashes: CrashPlan,
    faults: FaultPlan,
    schedule_seed: u64,
}

impl ChaosPlan {
    /// Derives a chaos plan from `(seed, n, intensity, window)`.
    ///
    /// Intensity 0 is the clean baseline: no crashes, no faults — only
    /// the seeded random schedule remains, so intensity curves start from
    /// an adversarially-scheduled but fault-free run.
    pub fn seeded(seed: u64, n: usize, intensity: usize, window: u64) -> Self {
        let victims = (intensity / 2).min(n.saturating_sub(1));
        ChaosPlan {
            intensity,
            crashes: CrashPlan::seeded(split_mix(seed ^ CRASH_SALT), n, victims, window),
            faults: FaultPlan::seeded(split_mix(seed ^ FAULT_SALT), intensity, intensity, window),
            schedule_seed: split_mix(seed ^ SCHED_SALT),
        }
    }

    /// The plan's intensity parameter.
    pub fn intensity(&self) -> usize {
        self.intensity
    }

    /// The crash layer.
    pub fn crashes(&self) -> &CrashPlan {
        &self.crashes
    }

    /// The memory-fault layer.
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// The schedule layer, as a replayable spec.
    pub fn schedule(&self) -> ScheduleSpec {
        ScheduleSpec::Random {
            seed: self.schedule_seed,
        }
    }

    /// Builds the scheduler the plan prescribes.
    pub fn scheduler(&self) -> RandomScheduler {
        RandomScheduler::new(self.schedule_seed)
    }

    /// A one-line summary for trial-failure context strings, in the same
    /// spirit as [`FaultPlan::summary`].
    pub fn summary(&self) -> String {
        format!(
            "chaos-plan:intensity={},crashes={},{},sched-seed={:#018x}",
            self.intensity,
            self.crashes.len(),
            self.faults.summary(),
            self.schedule_seed
        )
    }

    /// Packages one chaos trial as a replayable [`ReproCase`] (with the
    /// outcome fields left for the caller to fill in after execution).
    pub fn to_case(
        &self,
        experiment: &str,
        algorithm: &str,
        n: usize,
        toss: TossSpec,
        max_events: u64,
        max_steps: u64,
    ) -> ReproCase {
        ReproCase {
            experiment: experiment.to_string(),
            algorithm: algorithm.to_string(),
            n,
            toss,
            schedule: self.schedule(),
            crashes: self.crashes.clone(),
            recovery: None,
            faults: self.faults.clone(),
            max_events,
            max_steps,
            outcome: String::new(),
            class: String::new(),
            provenance: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_pure_functions() {
        let a = ChaosPlan::seeded(7, 8, 4, 64);
        let b = ChaosPlan::seeded(7, 8, 4, 64);
        assert_eq!(a, b);
        assert_ne!(a, ChaosPlan::seeded(8, 8, 4, 64));
    }

    #[test]
    fn intensity_zero_is_fault_free_but_still_randomly_scheduled() {
        let plan = ChaosPlan::seeded(3, 6, 0, 48);
        assert!(plan.crashes().is_empty());
        assert!(plan.faults().is_empty());
        assert!(matches!(plan.schedule(), ScheduleSpec::Random { .. }));
    }

    #[test]
    fn intensity_scales_every_layer_and_spares_one_process() {
        let plan = ChaosPlan::seeded(11, 4, 10, 80);
        assert_eq!(plan.intensity(), 10);
        assert_eq!(plan.crashes().len(), 3, "victims capped at n - 1");
        assert_eq!(plan.faults().spurious().len(), 10);
        assert_eq!(plan.faults().corruptions().len(), 10);
    }

    #[test]
    fn layers_use_decorrelated_sub_seeds() {
        // The same raw seed must not feed two layers: a plan whose crash
        // layer matched its fault layer's stream would correlate faults
        // with crash points.
        let plan = ChaosPlan::seeded(5, 8, 2, 64);
        assert_ne!(
            CrashPlan::seeded(5, 8, 1, 64),
            plan.crashes().clone(),
            "crash layer is salted"
        );
        assert_ne!(
            FaultPlan::seeded(5, 2, 2, 64),
            plan.faults().clone(),
            "fault layer is salted"
        );
        assert_ne!(plan.schedule_seed, 5, "schedule seed is salted");
    }

    #[test]
    fn to_case_round_trips_through_json() {
        let plan = ChaosPlan::seeded(9, 6, 3, 48);
        let case = plan.to_case("e17", "counter-wakeup", 6, TossSpec::Seeded(9), 1000, 500);
        assert_eq!(case.crashes, *plan.crashes());
        assert_eq!(case.faults, *plan.faults());
        assert_eq!(case.schedule, plan.schedule());
        let back = ReproCase::from_json(&case.to_json()).unwrap();
        assert_eq!(back, case);
    }

    #[test]
    fn summary_names_every_layer() {
        let s = ChaosPlan::seeded(1, 4, 2, 32).summary();
        assert!(s.starts_with("chaos-plan:intensity=2"), "{s}");
        assert!(s.contains("crashes="), "{s}");
        assert!(s.contains("fault-plan:"), "{s}");
        assert!(s.contains("sched-seed="), "{s}");
    }
}
