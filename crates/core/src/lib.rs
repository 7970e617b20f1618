//! # llsc-core: the lower-bound machinery of Jayanti (PODC 1998)
//!
//! This crate is the paper's primary contribution made executable, layered
//! over the shared-memory substrate of [`llsc_shmem`]:
//!
//! * **Section 4** — [`secretive_complete_schedule`] constructs, for any
//!   move configuration [`MoveConfig`], a complete schedule under which
//!   every register's final value was carried by at most two processes
//!   ([`movers`]); Lemma 4.2's restriction property is exposed via
//!   [`restrict`] and [`restriction_preserves_source`].
//! * **Section 5** — [`build_all_run`] executes the Figure-2 five-phase
//!   round adversary to produce the `(All, A)`-run, while [`UpTracker`]
//!   applies the `UP`-set update rules (Lemma 5.1:
//!   [`UpTracker::lemma_5_1_holds`]). [`build_s_run`] constructs the
//!   restricted `(S, A)`-run of Figure 3, and
//!   [`check_indistinguishability`] mechanically verifies Lemma 5.2 on the
//!   pair.
//! * **Section 6** — [`check_wakeup`] validates runs against the wakeup
//!   specification; [`verify_lower_bound`] runs the Theorem 6.1 argument on
//!   a concrete algorithm, constructing a real counterexample `(S, A)`-run
//!   whenever an algorithm's winner returns 1 in fewer than `⌈log₄ n⌉`
//!   shared-memory steps; [`estimate_expected_complexity`] samples toss
//!   assignments to estimate the randomized bound of Lemma 3.1.
//!
//! ## Example: the lower bound on a correct wakeup algorithm
//!
//! ```
//! use llsc_core::{verify_lower_bound, ceil_log4, AdversaryConfig};
//! use llsc_shmem::dsl::{done, ll, sc};
//! use llsc_shmem::{FnAlgorithm, RegisterId, Value, ZeroTosses};
//! use std::sync::Arc;
//!
//! // One-shot fetch&increment wakeup: the process that installs n wins.
//! let alg = FnAlgorithm::new("counter-wakeup", |_pid, n| {
//!     fn attempt(n: usize) -> llsc_shmem::dsl::Step {
//!         ll(RegisterId(0), move |prev| {
//!             let v = prev.as_int().unwrap_or(0);
//!             sc(RegisterId(0), Value::from(v + 1), move |ok, _| {
//!                 if !ok { attempt(n) }
//!                 else if v + 1 == n as i128 { done(Value::from(1i64)) }
//!                 else { done(Value::from(0i64)) }
//!             })
//!         })
//!     }
//!     attempt(n).into_program()
//! });
//!
//! let report = verify_lower_bound(&alg, 16, Arc::new(ZeroTosses), &AdversaryConfig::default())
//!     .expect("the run stays within the default event budget");
//! assert!(report.wakeup.ok());
//! assert!(report.bound_holds);
//! assert!(report.winner_steps >= ceil_log4(16));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod all_run;
mod claims;
mod expectation;
mod gray;
mod indist;
mod rounds;
mod s_run;
mod secretive;
mod stress;
mod subsets;
mod theorem;
mod trace;
mod upsets;
mod vecmap;
mod wakeup;

pub use all_run::{build_all_run, AdversaryConfig, AllRun, RoundedRun};
pub use claims::{check_appendix_claims, ClaimViolation, ClaimsReport};
pub use expectation::{
    estimate_expected_complexity, report_from_samples, sample_expectation, ExpectationReport,
    ExpectationSample,
};
pub use gray::{gray_mask, GraySubsetBuilder, GrayTrial};
pub use indist::{check_indistinguishability, IndistReport, IndistViolation};
pub use rounds::{ChangeIndex, MoveOrder, OpSummary, RoundCounts, RoundRecord};
pub use s_run::{build_s_run, build_s_run_with, SRun, SRunBuilder};
pub use secretive::{
    flow_report, is_complete, is_secretive, movers, random_move_config, restrict,
    restriction_preserves_source, secretive_complete_schedule, source, MoveConfig,
};
pub use stress::{standard_portfolio, stress_wakeup, StressFailure, StressReport, StressSchedule};
pub use subsets::{
    indist_all_subsets, indist_subset_range, report_from_subset_records, SubsetChunk,
    SubsetSweepReport, SubsetTrialRecord,
};
pub use theorem::{
    ceil_log4, log4, report_from_all_run, verify_lower_bound, LowerBoundReport, Refutation,
};
pub use trace::trace_all_run;
pub use upsets::{ProcSet, UpSnapshot, UpTracker};
pub use vecmap::VecMap;
pub use wakeup::{check_wakeup, WakeupCheck, WakeupViolation};
