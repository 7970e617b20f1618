//! The Gray-code position names the repository benchmark binds to.
//!
//! Subset sweeps visit masks in plain mask order, and each worker refills
//! one reused `(S, A)`-run ([`SRunBuilder`](crate::SRunBuilder)). What is
//! left here is the thinnest shim over the owned construction:
//! [`gray_mask`] maps a position to a mask, and
//! [`GraySubsetBuilder::build_trial`] builds that mask's run as an owned
//! [`SRun`] with [`build_s_run_with`]. The benchmark's traced walk calls
//! it, so that walk builds every run fresh and cross-checks the reused
//! sweep's records. Nothing is replayed, so
//! [`GrayTrial::replayed_events`] is always 0.

use crate::all_run::{AdversaryConfig, AllRun};
use crate::s_run::{build_s_run_with, SRun};
use crate::upsets::ProcSet;
use llsc_shmem::{Algorithm, Executor, ProcessId, RunError};

/// The subset mask visited at Gray position `pos` of an `n`-process
/// enumeration: the bit-reversed reflected Gray code
/// `bitrev_n(pos ^ (pos >> 1))`.
///
/// A bijection from `0..2^n` onto `0..2^n` with `gray_mask(n, 0) == 0`;
/// consecutive positions differ in exactly one bit, and the *highest*
/// bit flips most often.
///
/// # Panics
///
/// Panics if `pos >= 2^n` (debug builds).
pub fn gray_mask(n: usize, pos: usize) -> usize {
    debug_assert!(n == usize::BITS as usize || pos < 1usize << n);
    let g = pos ^ (pos >> 1);
    let mut mask = 0usize;
    for i in 0..n {
        if g & (1 << i) != 0 {
            mask |= 1 << (n - 1 - i);
        }
    }
    mask
}

/// One Gray-position trial: the `(S, A)`-run of the position's mask.
#[derive(Clone, Debug)]
pub struct GrayTrial {
    /// The `(S, A)`-run of this position's mask.
    pub srun: SRun,
    /// Always 0: nothing is replayed. Kept only for the benchmark
    /// binding.
    pub replayed_events: u64,
}

/// Builds the trial at a Gray position (see [`gray_mask`]).
#[derive(Debug, Default)]
pub struct GraySubsetBuilder;

impl GraySubsetBuilder {
    /// A builder.
    pub fn new() -> GraySubsetBuilder {
        GraySubsetBuilder
    }

    /// Builds the `(S, A)`-run for the mask at Gray position `pos`
    /// against `all` with [`build_s_run_with`] on `exec` (same contract).
    ///
    /// # Errors
    ///
    /// Propagates the first [`RunError`] the executor reports.
    ///
    /// # Panics
    ///
    /// Panics if `pos >= 2^n` (debug builds).
    pub fn build_trial(
        &mut self,
        exec: &mut Executor,
        alg: &dyn Algorithm,
        all: &AllRun,
        cfg: &AdversaryConfig,
        pos: usize,
    ) -> Result<GrayTrial, RunError> {
        let n = all.n();
        let mask = gray_mask(n, pos);
        let s: ProcSet = (0..n)
            .filter(|i| mask & (1 << i) != 0)
            .map(ProcessId)
            .collect();
        Ok(GrayTrial {
            srun: build_s_run_with(exec, alg, &s, all, cfg)?,
            replayed_events: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::all_run::build_all_run;
    use crate::s_run::build_s_run;
    use llsc_shmem::dsl::{done, ll, mv};
    use llsc_shmem::{FnAlgorithm, RegisterId, Value, ZeroTosses};
    use std::sync::Arc;

    #[test]
    fn gray_masks_are_a_bijection_flipping_one_bit() {
        for n in 0..=6usize {
            let total = 1usize << n;
            let mut seen = vec![false; total];
            let mut prev = None;
            for pos in 0..total {
                let m = gray_mask(n, pos);
                assert!(!seen[m], "n={n} pos={pos} repeats mask {m}");
                seen[m] = true;
                if let Some(pm) = prev {
                    let diff: usize = m ^ pm;
                    assert_eq!(diff.count_ones(), 1, "n={n} pos={pos}");
                }
                prev = Some(m);
            }
            assert_eq!(gray_mask(n, 0), 0);
        }
    }

    #[test]
    fn highest_bit_flips_every_other_position() {
        let n = 5;
        for pos in (1..1usize << n).step_by(2) {
            assert_eq!(gray_mask(n, pos) ^ gray_mask(n, pos - 1), 1 << (n - 1));
        }
    }

    #[test]
    fn noncontiguous_positions_fall_back_but_stay_correct() {
        // Any visit order builds each position's mask, exactly as a fresh
        // executor would, and replays nothing.
        let alg = FnAlgorithm::new("gray-shim", |pid: ProcessId, _n| match pid.0 % 2 {
            0 => ll(RegisterId(0), |_| done(Value::from(0i64))).into_program(),
            _ => mv(RegisterId(0), RegisterId(1), || done(Value::from(0i64))).into_program(),
        });
        let n = 6;
        let cfg = AdversaryConfig::default();
        let all = build_all_run(&alg, n, Arc::new(ZeroTosses), &cfg).unwrap();
        let mut exec = Executor::new(&alg, n, Arc::new(ZeroTosses), cfg.executor);
        let mut builder = GraySubsetBuilder::new();
        for pos in [5usize, 6, 7, 0, 1, 2, 63, 62, 31, 32, 33, 34] {
            let mask = gray_mask(n, pos);
            let s: ProcSet = (0..n)
                .filter(|i| mask & (1 << i) != 0)
                .map(ProcessId)
                .collect();
            let fresh = build_s_run(&alg, n, Arc::new(ZeroTosses), &s, &all, &cfg).unwrap();
            let gray = builder
                .build_trial(&mut exec, &alg, &all, &cfg, pos)
                .unwrap();
            assert_eq!(gray.srun.s, s, "pos={pos}");
            assert_eq!(gray.replayed_events, 0, "pos={pos}");
            assert_eq!(
                fresh.base.run.events(),
                gray.srun.base.run.events(),
                "pos={pos}"
            );
        }
    }
}
