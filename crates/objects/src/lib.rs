//! # llsc-objects: sequential object types and linearizability
//!
//! The object types of Jayanti PODC'98 — primarily the Theorem 6.2 family
//! for which the Ω(log n) lower bound is derived — as sequential
//! specifications behind one oblivious interface, [`ObjectSpec`]:
//!
//! | Type | Theorem 6.2 case | Module |
//! |------|------------------|--------|
//! | [`FetchIncrement`] (`k ≥ log n` bits) | 1 | `fetch_arith` |
//! | [`FetchAnd`], [`FetchOr`], [`FetchComplement`], [`FetchMultiply`] (`k ≥ n` bits) | 2 | `fetch_bits`, `fetch_arith` |
//! | [`Queue`], [`Stack`] (initially `n` items) | 3 | `queue`, `stack` |
//! | [`Counter`] (read + ack-only increment) | 4 | `counter` |
//! | [`RwRegister`], [`CasRegister`], [`Consensus`], [`FetchAdd`], [`SwapObject`] | — (baselines / related work) | `register_obj`, `cas`, `consensus`, `extras` |
//!
//! Because the interface is *oblivious* (opaque [`llsc_shmem::Value`]
//! states/ops/responses and a pure `apply`), the universal constructions in
//! `llsc-universal` can be instantiated with any of these without touching
//! their semantics — which is exactly the class of constructions the
//! paper's lower bound speaks about.
//!
//! The crate also provides concurrent [`History`] recording and a
//! Wing–Gong [`check_linearizability`] checker used to validate every
//! implementation the repository ships.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bits;
mod cas;
mod consensus;
mod counter;
mod extras;
mod fetch_arith;
mod fetch_bits;
mod history;
mod linearize;
mod queue;
mod register_obj;
mod seqspec;
mod stack;

pub use cas::CasRegister;
pub use consensus::Consensus;
pub use counter::Counter;
pub use extras::{FetchAdd, SwapObject};
pub use fetch_arith::{FetchIncrement, FetchMultiply};
pub use fetch_bits::{FetchAnd, FetchComplement, FetchOr};
pub use history::{History, OpId, OpRecord};
pub use linearize::{check_linearizability, is_linearizable, LinCheck, MAX_OPS};
pub use queue::{empty_response as queue_empty_response, Queue};
pub use register_obj::RwRegister;
pub use seqspec::{apply_all, op_arg, op_tag, ObjectSpec};
pub use stack::{empty_response as stack_empty_response, Stack};
