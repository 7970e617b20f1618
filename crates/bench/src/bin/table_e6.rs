//! E6: randomized expected complexity (Lemma 3.1).
use llsc_bench::harness::HarnessOpts;
use std::process::ExitCode;

fn main() -> ExitCode {
    let opts = HarnessOpts::from_env();
    opts.emit_guarded(|sweep| {
        vec![llsc_bench::e6_randomized_expectation(&[4, 16, 64], 30, sweep).table]
    })
}
