//! # llsc-universal: upper bounds and the obliviousness boundary
//!
//! Jayanti PODC'98's lower bound says: any implementation produced by an
//! *oblivious* universal construction costs Ω(log n) shared-memory
//! operations per object operation. This crate supplies the other side of
//! that boundary:
//!
//! * [`AdtTreeUniversal`] — an oblivious combining-tree construction in the
//!   style of Afek–Dauber–Touitou's Group Update, whose measured cost is
//!   `Θ(log n)` under the paper's own adversary: the lower bound is
//!   **tight**.
//! * [`HerlihyUniversal`] — an oblivious announce-and-help construction at
//!   `Θ(n)`, the classic baseline the paper's open-problems section
//!   discusses.
//! * [`DirectLlSc`] — the non-oblivious escape hatch: one register plus an
//!   optimistic LL/SC retry loop gives **constant** contention-free cost
//!   for any type, which is exactly why the paper concludes that
//!   sublogarithmic implementations "must necessarily exploit the semantics
//!   of the type being implemented".
//! * [`HardenedDirectLlSc`], [`HardenedCombiningTreeUniversal`] and
//!   [`HardenedAdtTreeUniversal`] — fault-hardened twins of the direct
//!   loop and both trees, self-validating with epoch counters and
//!   [`llsc_shmem::Value::fingerprint`] checksums against the
//!   [`llsc_shmem::FaultPlan`] adversary's spurious SC failures and
//!   register corruption, at zero extra shared-access cost when no fault
//!   fires (experiment E16).
//! * [`MsQueue`] and [`TreiberStack`] — *structural* escape hatches: the
//!   classic pointer-based LL/SC queue and stack, rebuilt inside the
//!   model with register names as pointers. O(1) registers touched per
//!   operation regardless of data-structure size.
//!
//! All three implement [`ObjectImplementation`] and can be instantiated
//! with any [`llsc_objects::ObjectSpec`]. The [`measure()`] harness runs an
//! instance under sequential, round-robin, random, or Figure-2-adversary
//! schedules, counts shared-memory operations per process (the paper's
//! complexity measure), and checks linearizability of the observed history.
//!
//! ## Example
//!
//! ```
//! use llsc_universal::{AdtTreeUniversal, HerlihyUniversal, measure, MeasureConfig, ScheduleKind};
//! use llsc_objects::FetchIncrement;
//! use std::sync::Arc;
//!
//! let spec = Arc::new(FetchIncrement::new(32));
//! let n = 16;
//! let ops = vec![FetchIncrement::op(); n];
//! let cfg = MeasureConfig::default();
//!
//! let tree = measure(&AdtTreeUniversal::new(spec.clone()), spec.as_ref(), n, &ops,
//!                    ScheduleKind::Adversary, &cfg).expect("run completes");
//! let flat = measure(&HerlihyUniversal::new(spec.clone()), spec.as_ref(), n, &ops,
//!                    ScheduleKind::Adversary, &cfg).expect("run completes");
//! assert!(tree.linearizable && flat.linearizable);
//! assert!(tree.max_ops < flat.max_ops, "log n beats n");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod adt_tree;
mod combining_tree;
mod direct;
mod hardened;
pub mod hardening;
mod herlihy;
mod implementation;
mod measure;
mod ms_queue;
mod multi_use;
pub mod tree;
mod treiber;

pub use adt_tree::AdtTreeUniversal;
pub use combining_tree::CombiningTreeUniversal;
pub use direct::DirectLlSc;
pub use hardened::{HardenedAdtTreeUniversal, HardenedCombiningTreeUniversal, HardenedDirectLlSc};
pub use herlihy::HerlihyUniversal;
pub use implementation::ObjectImplementation;
pub use measure::{measure, ImplAlgorithm, MeasureConfig, MeasureResult, ScheduleKind};
pub use ms_queue::MsQueue;
pub use multi_use::{measure_multi_use, MultiUseResult};
pub use treiber::TreiberStack;
