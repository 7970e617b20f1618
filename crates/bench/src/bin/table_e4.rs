//! E4: indistinguishability (Lemma 5.2).
use llsc_bench::harness::HarnessOpts;
use std::process::ExitCode;

fn main() -> ExitCode {
    let opts = HarnessOpts::from_env();
    opts.emit_guarded(|sweep| {
        vec![llsc_bench::e4_indistinguishability(&[4, 6], &[0, 1, 42], sweep).table]
    })
}
