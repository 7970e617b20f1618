//! E20 (simulator half): degradation class and recovery RMR cost vs
//! chaos intensity for both fault-model families.
//!
//! The hardened one-shot algorithms (E16) face the memory-fault arm of
//! the chaos plan (spurious SC failures + value corruption, no
//! crashes); the crash-recoverable algorithms (E19) face the
//! crash-recovery arm (crashes + spurious SC, no corruption). Only the
//! simulator rows are emitted here — they are deterministic and
//! thread-count invariant, so the artifact is goldenable. The
//! cross-backend comparison against real threads lives in `bench_e20`,
//! whose hardware timings are inherently nondeterministic.
//!
//! Accepts `--max-events N` (starving it exercises the trial-failure
//! paths) and exits nonzero when any panic-isolated trial fails,
//! recording the failures in the JSON artifact's `"failures"` array.
use llsc_bench::harness::HarnessOpts;
use llsc_bench::E20_DEFAULT_MAX_EVENTS;
use std::process::ExitCode;

fn main() -> ExitCode {
    let opts = HarnessOpts::from_env();
    let sweep = opts.sweep();
    let max_events = opts.max_events.unwrap_or(E20_DEFAULT_MAX_EVENTS);
    let (exp, failures) =
        llsc_bench::e20_chaos_recovery_sweep(8, &[0, 1, 2, 4], 6, max_events, &sweep);
    opts.emit_with_failures(&[&exp.table], &failures)
}
