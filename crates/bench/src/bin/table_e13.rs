//! E13: the appendix claims, exhaustive over subsets.
use llsc_bench::harness::HarnessOpts;
use std::process::ExitCode;

fn main() -> ExitCode {
    let opts = HarnessOpts::from_env();
    opts.emit_guarded(|sweep| vec![llsc_bench::e13_appendix_claims(&[4, 6], sweep).table])
}
