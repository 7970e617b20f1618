//! The randomized bound in action (experiment E6): Lemma 3.1 over sampled
//! toss assignments.
//!
//! ```text
//! cargo run --release --example expected_complexity
//! ```
//!
//! The paper's bound covers randomized algorithms: against a scheduler
//! that sees the past but not future coins, if the algorithm terminates
//! with probability `c` then its worst-case *expected* shared-access
//! complexity is at least `c · log₄ n`. This example estimates the
//! expectation for the shipped randomized algorithms by sampling toss
//! assignments, and shows a `c < 1` case: the backoff algorithm under the
//! adversarially chosen all-odd coin assignment never competes.

use llsc_lowerbound::core::{build_all_run, estimate_expected_complexity, AdversaryConfig};
use llsc_lowerbound::shmem::{ConstantTosses, Sweep};
use llsc_lowerbound::wakeup::{randomized_algorithms, BackoffWakeup};
use std::sync::Arc;

fn main() {
    let cfg = AdversaryConfig::default();
    println!("Sampled expected complexity under the Figure-2 adversary (40 assignments)\n");
    println!(
        "{:<28} {:>5} {:>6} {:>10} {:>11} {:>8}",
        "algorithm", "n", "c", "E[winner]", "min winner", "log4(n)"
    );
    println!("{:-<74}", "");
    for alg in randomized_algorithms() {
        for n in [4usize, 16, 64] {
            let rep =
                estimate_expected_complexity(alg.as_ref(), n, 0..40, &cfg, &Sweep::sequential())
                    .expect("every sampled run stays within the default budgets");
            assert!(rep.all_meet_bound);
            println!(
                "{:<28} {:>5} {:>6.2} {:>10.1} {:>11} {:>8.2}",
                rep.algorithm,
                n,
                rep.termination_rate,
                rep.mean_winner_steps,
                rep.min_winner_steps,
                rep.log4_n
            );
        }
    }

    println!("\nLemma 3.1's `c`: the all-odd assignment makes backoff-wakeup spin");
    let tight = AdversaryConfig {
        max_rounds: 50,
        ..AdversaryConfig::default()
    };
    let all = build_all_run(&BackoffWakeup, 4, Arc::new(ConstantTosses(1)), &tight)
        .expect("the truncated run stays within the default event budget");
    println!(
        "  backoff-wakeup under ConstantTosses(1): completed = {} after {} rounds",
        all.base.completed,
        all.base.num_rounds()
    );
    assert!(!all.base.completed);
    println!("\nWith termination probability c, the expected bound scales to c*log4(n):");
    println!("for fair coins c = 1 empirically, and every sampled winner clears the bound.");
}
