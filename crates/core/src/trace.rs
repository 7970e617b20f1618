//! Human-readable traces of adversary runs.
//!
//! The `(All, A)`-run is the star object of the paper; being able to *look
//! at one* — round by round, phase by phase, with the `UP` sets alongside —
//! is how the update rules were debugged and is genuinely useful when
//! studying the proof. [`trace_all_run`] renders a complete run;
//! [`trace_round`] renders one round.

use crate::all_run::AllRun;
use crate::rounds::{phase_of, RoundRecord};
use crate::upsets::UpTracker;
use llsc_shmem::ProcessId;
use std::fmt::Write as _;

/// Renders one round of an `(All, A)`-run (or an `(S, A)`-run, given its
/// record) as indented text.
pub(crate) fn trace_round(rec: &RoundRecord) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "round {}:", rec.round);
    let tosses: u64 = rec.phase1_tosses.values().sum();
    if tosses > 0 {
        let _ = writeln!(out, "  phase 1: {tosses} coin toss(es)");
    }
    if !rec.terminated_in_phase1.is_empty() {
        let names: Vec<String> = rec
            .terminated_in_phase1
            .iter()
            .map(ToString::to_string)
            .collect();
        let _ = writeln!(out, "  terminated in phase 1: {}", names.join(", "));
    }
    let mut last_phase = 0;
    for op in &rec.ops {
        let phase = phase_of(op.kind);
        if phase != last_phase {
            let label = match phase {
                2 => "phase 2 (LL/validate)",
                3 => "phase 3 (moves, secretive order)",
                4 => "phase 4 (swaps)",
                _ => "phase 5 (SCs)",
            };
            let _ = writeln!(out, "  {label}:");
            last_phase = phase;
        }
        let suffix = match op.sc_ok {
            Some(true) => " -> success",
            Some(false) => " -> fail",
            None => "",
        };
        let _ = writeln!(out, "    {} {} {}{}", op.p, op.kind, op.register, suffix);
    }
    if !rec.sigma.is_empty() {
        let sigma: Vec<String> = rec.sigma.iter().map(ToString::to_string).collect();
        let _ = writeln!(out, "  sigma_{} = [{}]", rec.round, sigma.join(", "));
    }
    out
}

/// Renders the `UP` sets of the given round.
pub(crate) fn trace_up_sets(up: &UpTracker, round: usize) -> String {
    let mut out = String::new();
    let snapshot = up.snapshot(round);
    let _ = write!(out, "  UP(p, {round}):");
    for p in ProcessId::all(up.n()) {
        let _ = write!(out, " {}:{}", p, snapshot.proc(p).len());
    }
    let _ = writeln!(out);
    for (r, set) in &snapshot.regs {
        let members: Vec<String> = set.iter().map(|p| p.to_string()).collect();
        let _ = writeln!(out, "  UP({r}, {round}) = {{{}}}", members.join(", "));
    }
    out
}

/// Renders an entire `(All, A)`-run: every round followed by the `UP` sets
/// at its end. `max_rounds` truncates long runs.
pub fn trace_all_run(all: &AllRun, max_rounds: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "(All, A)-run: n = {}, {} round(s), completed = {}",
        all.n(),
        all.base.num_rounds(),
        all.base.completed
    );
    for (i, rec) in all.base.rounds.iter().enumerate().take(max_rounds) {
        out.push_str(&trace_round(rec));
        out.push_str(&trace_up_sets(&all.up, i + 1));
    }
    if all.base.num_rounds() > max_rounds {
        let _ = writeln!(
            out,
            "... {} more round(s)",
            all.base.num_rounds() - max_rounds
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::all_run::{build_all_run, AdversaryConfig};
    use llsc_shmem::dsl::{done, ll, mv, sc, swap};
    use llsc_shmem::{FnAlgorithm, Program, RegisterId, Value, ZeroTosses};
    use std::sync::Arc;

    fn mixed() -> impl llsc_shmem::Algorithm {
        FnAlgorithm::new("mixed", |pid: ProcessId, _n| {
            let prog: Box<dyn Program> = match pid.0 {
                0 => ll(RegisterId(0), |_| {
                    sc(RegisterId(0), Value::from(1i64), |_, _| {
                        done(Value::from(0i64))
                    })
                })
                .into_program(),
                1 => swap(RegisterId(1), Value::from(2i64), |_| {
                    done(Value::from(0i64))
                })
                .into_program(),
                _ => mv(RegisterId(1), RegisterId(2), || done(Value::from(0i64))).into_program(),
            };
            prog
        })
    }

    #[test]
    fn trace_mentions_every_phase() {
        let alg = mixed();
        let all =
            build_all_run(&alg, 3, Arc::new(ZeroTosses), &AdversaryConfig::default()).unwrap();
        let text = trace_all_run(&all, 10);
        assert!(text.contains("phase 2 (LL/validate)"));
        assert!(text.contains("phase 3 (moves, secretive order)"));
        assert!(text.contains("phase 4 (swaps)"));
        assert!(text.contains("phase 5 (SCs)"));
        assert!(text.contains("sigma_1"));
        assert!(text.contains("UP("));
        assert!(text.contains("completed = true"));
    }

    #[test]
    fn trace_truncates_long_runs() {
        let alg = FnAlgorithm::new("counter", |_p, n| {
            fn attempt(n: usize) -> llsc_shmem::dsl::Step {
                ll(RegisterId(0), move |prev| {
                    let v = prev.as_int().unwrap_or(0);
                    sc(RegisterId(0), Value::from(v + 1), move |ok, _| {
                        if ok && v + 1 == n as i128 {
                            done(Value::from(1i64))
                        } else if ok {
                            done(Value::from(0i64))
                        } else {
                            attempt(n)
                        }
                    })
                })
            }
            attempt(n).into_program()
        });
        let all =
            build_all_run(&alg, 8, Arc::new(ZeroTosses), &AdversaryConfig::default()).unwrap();
        let text = trace_all_run(&all, 2);
        assert!(text.contains("more round(s)"));
    }

    #[test]
    fn sc_outcomes_are_annotated() {
        let alg = mixed();
        let all =
            build_all_run(&alg, 3, Arc::new(ZeroTosses), &AdversaryConfig::default()).unwrap();
        let text = trace_all_run(&all, 10);
        assert!(text.contains("-> success"));
    }
}
