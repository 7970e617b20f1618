//! The experiment implementations behind `llsc table` (see
//! [`crate::registry`]).
//!
//! Every function runs its independent trials on the shared [`Sweep`]
//! engine and returns an [`Experiment`] — the rendered table plus the
//! typed rows, so tests (and `EXPERIMENTS.md` updates) can consume the
//! numbers directly. All experiments are deterministic: fixed seeds, fixed
//! toss assignments, and trial results merged in index order, so the
//! tables are byte-identical at every thread count.

use crate::harness::Experiment;
use crate::job::{fault_sweep, run_in_memory, JobExperiment, JobSpec};
use crate::repro::COMPLETED_CLASSES;
use crate::table::Table;
use llsc_core::{
    build_all_run, ceil_log4, flow_report, secretive_complete_schedule, verify_lower_bound,
    AdversaryConfig, MoveConfig, ProcSet,
};
// Re-exported for callers that predate the move of the seeding helpers
// into `llsc_core` (see `crates/core/src/secretive.rs`).
pub use llsc_core::random_move_config;
use llsc_objects::{FetchIncrement, ObjectSpec};
use llsc_shmem::repro::{ReproCase, TossSpec};
use llsc_shmem::{
    Algorithm, ChaosPlan, CrashPlan, FaultPlan, ProcessId, RecoverySpec, RegisterId, Sweep,
    TrialFailure, ZeroTosses,
};
use llsc_universal::{
    measure, AdtTreeUniversal, CombiningTreeUniversal, DirectLlSc, HardenedAdtTreeUniversal,
    HardenedCombiningTreeUniversal, HardenedDirectLlSc, HerlihyUniversal, MeasureConfig,
    ObjectImplementation, ScheduleKind,
};
use llsc_wakeup::{
    correct_algorithms, CounterWakeup, HardenedCounterWakeup, HardenedRandomizedCounterWakeup,
    HardenedTournamentWakeup, ObjectWakeup, RandomizedCounterWakeup, RecoverableCounterWakeup,
    RecoverableMutex, RecoverableRandCounterWakeup, ReductionKind, TournamentWakeup,
};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The E20 table's column headers.
pub const E20_HEADERS: [&str; 16] = [
    "algorithm",
    "arm",
    "intensity",
    "trials",
    "recovered",
    "detected wrong",
    "silent wrong",
    "stalled",
    "crashed",
    "aborted",
    "crashes",
    "recoveries",
    "spurious SC",
    "corruptions",
    "CC RMRs",
    "DSM RMRs",
];

/// The `(algorithm index, n)` product used by the per-algorithm sweeps.
fn alg_size_pairs(algs: usize, ns: &[usize]) -> Vec<(usize, usize)> {
    let mut pairs = Vec::with_capacity(algs * ns.len());
    for a in 0..algs {
        for &n in ns {
            pairs.push((a, n));
        }
    }
    pairs
}

/// One row of E1: secretive-schedule statistics for a configuration size.
#[derive(Clone, Debug)]
pub(crate) struct E1Row {
    /// Worst movers-list length over all registers and configurations
    /// (Lemma 4.1 caps this at 2).
    #[cfg(test)]
    pub(crate) worst_movers: usize,
}

/// E1/E2: Lemma 4.1 and 4.2 over random move configurations, plus the
/// Section-4 chain (E11). Random configurations fan out over the sweep.
pub(crate) fn e1_secretive_schedules(
    sizes: &[usize],
    configs_per_size: usize,
    sweep: &Sweep,
) -> Experiment<E1Row> {
    let mut table = Table::new(
        "E1/E2 - secretive complete schedules: Lemma 4.1 (movers <= 2) and Lemma 4.2 (restriction)",
        [
            "n",
            "configs",
            "worst movers",
            "Lemma 4.2 checks",
            "verdict",
        ],
    );
    let mut rows = Vec::new();
    for &n in sizes {
        // Each random configuration is one independent trial returning its
        // (worst movers, restriction checks) tally.
        let tallies = sweep.run_indexed(configs_per_size, |trial| {
            let c = trial.index;
            let regs = (n as u64 / 2).max(2);
            let cfg = random_move_config(n, regs, c as u64 * 7919 + n as u64);
            let sigma = secretive_complete_schedule(&cfg);
            let flows = flow_report(&sigma, &cfg);
            let mut worst = 0usize;
            let mut restriction_checks = 0usize;
            for (&r, (src, m)) in &flows {
                assert!(m.len() <= 2, "Lemma 4.1 violated at {r}");
                worst = worst.max(m.len());
                // Lemma 4.2: restricting to exactly the movers preserves
                // the source.
                let keep: ProcSet = m.iter().copied().collect();
                let restricted = llsc_core::restrict(&sigma, &keep);
                let restricted_flows = flow_report(&restricted, &cfg);
                let restricted_src = restricted_flows.get(&r).map(|(s, _)| *s).unwrap_or(r);
                assert_eq!(restricted_src, *src, "Lemma 4.2 violated at {r}");
                restriction_checks += 1;
            }
            (worst, restriction_checks)
        });
        let worst = tallies.iter().map(|&(w, _)| w).max().unwrap_or(0);
        let restriction_checks: usize = tallies.iter().map(|&(_, c)| c).sum();
        // The paper's chain example as a fixed configuration.
        let chain = MoveConfig::from_iter(
            (0..n).map(|i| (ProcessId(i), RegisterId(i as u64), RegisterId(i as u64 + 1))),
        );
        let sigma = secretive_complete_schedule(&chain);
        assert!(llsc_core::is_secretive(&sigma, &chain));
        table.row([
            n.to_string(),
            (configs_per_size + 1).to_string(),
            worst.to_string(),
            restriction_checks.to_string(),
            "PASS".to_string(),
        ]);
        rows.push(E1Row {
            #[cfg(test)]
            worst_movers: worst,
        });
    }
    Experiment { table, rows }
}

/// One row of E3: UP growth for one algorithm at one `n`.
#[derive(Clone, Debug)]
pub(crate) struct E3Row {
    /// Algorithm name.
    pub(crate) algorithm: String,
    /// Number of processes.
    pub(crate) n: usize,
    /// Rounds of the `(All, A)`-run.
    pub(crate) rounds: usize,
    /// The largest `|UP(X, r)|` observed (at the final round).
    pub(crate) max_up: usize,
    /// Whether `|UP(X, r)| <= 4^r` held at every round.
    pub(crate) lemma_5_1: bool,
}

/// E3: Lemma 5.1 — `|UP(X, r)| <= 4^r` across the shipped algorithms,
/// one `(algorithm, n)` run per trial.
pub(crate) fn e3_up_growth(ns: &[usize], sweep: &Sweep) -> Experiment<E3Row> {
    let mut table = Table::new(
        "E3 - Lemma 5.1: UP-set growth |UP(X, r)| <= 4^r under the Figure-2 adversary",
        ["algorithm", "n", "rounds", "max |UP|", "4^r cap ok"],
    );
    // Lightweight runs: Lemma 5.1 only needs per-round max sizes, and full
    // histories cost Θ(rounds · Σ|UP|) memory at n = 1024.
    let cfg = AdversaryConfig::lightweight();
    let algs = correct_algorithms();
    let pairs = alg_size_pairs(algs.len(), ns);
    let rows = sweep.run(&pairs, |_trial, &(a, n)| {
        let alg = &algs[a];
        let all = build_all_run(alg.as_ref(), n, Arc::new(ZeroTosses), &cfg)
            .expect("E3 runs stay within the default executor budgets");
        let rounds = all.base.num_rounds();
        let max_up = all.up.max_up_size(rounds);
        let ok = all.up.lemma_5_1_holds();
        assert!(ok, "{} n={n}", alg.name());
        E3Row {
            algorithm: alg.name().to_string(),
            n,
            rounds,
            max_up,
            lemma_5_1: ok,
        }
    });
    for r in &rows {
        table.row([
            r.algorithm.clone(),
            r.n.to_string(),
            r.rounds.to_string(),
            r.max_up.to_string(),
            r.lemma_5_1.to_string(),
        ]);
    }
    Experiment { table, rows }
}

/// One row of E4: indistinguishability checking for one algorithm/n.
#[derive(Clone, Debug)]
pub(crate) struct E4Row {
    /// Algorithm name.
    pub(crate) algorithm: String,
    /// Number of processes.
    pub(crate) n: usize,
    /// Subsets `S` tested.
    pub(crate) subsets: usize,
    /// Individual state comparisons performed.
    pub(crate) comparisons: usize,
    /// Violations found (must be 0).
    pub(crate) violations: usize,
}

/// E4: Lemma 5.2 — `(All, A)` vs `(S, A)` indistinguishability over every
/// subset `S` (exhaustive; keep `n` small) and several toss assignments.
/// Runs the E4 job's trials in memory; the `2^n` subsets of each run fan
/// out over the sweep.
pub(crate) fn e4_indistinguishability(
    ns: &[usize],
    seeds: &[u64],
    sweep: &Sweep,
) -> Experiment<E4Row> {
    let spec = JobSpec {
        seed: sweep.seed,
        ns: ns.to_vec(),
        toss_seeds: seeds.to_vec(),
        ..JobSpec::default_for(JobExperiment::E4)
    };
    let exp = run_in_memory::<E4Row>(&spec, sweep);
    for r in &exp.rows {
        assert_eq!(r.violations, 0, "{} n={}", r.algorithm, r.n);
    }
    exp
}

/// One row of E5: the wakeup lower bound for one algorithm at one `n`.
#[derive(Clone, Debug)]
pub(crate) struct E5Row {
    /// Algorithm name.
    pub(crate) algorithm: String,
    /// Number of processes.
    pub(crate) n: usize,
    /// `ceil(log4 n)` — the Theorem 6.1 bound.
    pub(crate) bound: u64,
    /// The winner's measured shared-access step count.
    pub(crate) winner_steps: u64,
    /// `t(R)`: the worst process's step count.
    pub(crate) max_steps: u64,
    /// Whether the bound held.
    #[cfg(test)]
    pub(crate) holds: bool,
}

/// E5: Theorem 6.1 — winner step counts vs `ceil(log4 n)`, one
/// `(algorithm, n)` verification per trial.
pub(crate) fn e5_wakeup_lower_bound(ns: &[usize], sweep: &Sweep) -> Experiment<E5Row> {
    let mut table = Table::new(
        "E5 - Theorem 6.1: wakeup winner's shared-access steps vs ceil(log4 n)",
        [
            "algorithm",
            "n",
            "ceil(log4 n)",
            "winner steps",
            "t(R)",
            "bound",
        ],
    );
    // Lightweight runs suffice for the bound (a terminated winner's UP
    // set is final); the refutation path rebuilds a detailed run on
    // demand.
    let cfg = AdversaryConfig::lightweight();
    let algs = correct_algorithms();
    let pairs = alg_size_pairs(algs.len(), ns);
    let rows = sweep.run(&pairs, |_trial, &(a, n)| {
        let alg = &algs[a];
        let rep = verify_lower_bound(alg.as_ref(), n, Arc::new(ZeroTosses), &cfg)
            .expect("E5 runs stay within the default executor budgets");
        assert!(rep.wakeup.ok() && rep.bound_holds, "{} n={n}", alg.name());
        E5Row {
            algorithm: alg.name().to_string(),
            n,
            bound: ceil_log4(n),
            winner_steps: rep.winner_steps,
            max_steps: rep.max_steps,
            #[cfg(test)]
            holds: rep.bound_holds,
        }
    });
    for r in &rows {
        table.row([
            r.algorithm.clone(),
            r.n.to_string(),
            r.bound.to_string(),
            r.winner_steps.to_string(),
            r.max_steps.to_string(),
            "HOLDS".to_string(),
        ]);
    }
    Experiment { table, rows }
}

/// One row of E6: expected complexity of a randomized algorithm.
#[derive(Clone, Debug)]
pub(crate) struct E6Row {
    /// Algorithm name.
    pub(crate) algorithm: String,
    /// Number of processes.
    pub(crate) n: usize,
    /// Empirical termination rate `c`.
    pub(crate) termination_rate: f64,
    /// Mean winner steps over terminating runs.
    pub(crate) mean_winner_steps: f64,
    /// Minimum winner steps (the Lemma 3.1 `k`).
    pub(crate) min_winner_steps: u64,
    /// The Lemma 3.1 bound `c * k`.
    pub(crate) lemma_3_1_bound: f64,
    /// `log4 n`.
    pub(crate) log4_n: f64,
    /// Whether every terminating sample's winner met `ceil(log4 n)`.
    pub(crate) all_meet_bound: bool,
}

/// E6: the randomized bound — sampled expected complexity vs
/// `c * log4(n)` (Lemma 3.1 + Theorem 6.1). Runs the E6 job's trials in
/// memory; the toss-assignment samples of each `(algorithm, n)` estimate
/// fan out over the sweep.
pub(crate) fn e6_randomized_expectation(
    ns: &[usize],
    samples: u64,
    sweep: &Sweep,
) -> Experiment<E6Row> {
    let spec = JobSpec {
        seed: sweep.seed,
        ns: ns.to_vec(),
        samples,
        ..JobSpec::default_for(JobExperiment::E6)
    };
    let exp = run_in_memory::<E6Row>(&spec, sweep);
    for r in &exp.rows {
        assert!(r.all_meet_bound, "{} n={}", r.algorithm, r.n);
    }
    exp
}

/// One row of E7: a Theorem 6.2 reduction at one `n`.
#[derive(Clone, Debug)]
pub(crate) struct E7Row {
    /// The reduction (object type).
    pub(crate) kind: ReductionKind,
    /// Number of processes.
    pub(crate) n: usize,
    /// Ops per process on the object (`k` of Corollary 6.1).
    pub(crate) ops_per_process: u32,
    /// Winner's shared steps.
    pub(crate) winner_steps: u64,
    /// `ceil(log4 n)`.
    pub(crate) bound: u64,
}

/// E7: Theorem 6.2 — all eight wakeup-from-object reductions over the
/// direct LL/SC implementation of each object, one `(object, n)` run per
/// trial.
pub(crate) fn e7_reductions(ns: &[usize], sweep: &Sweep) -> Experiment<E7Row> {
    let mut table = Table::new(
        "E7 - Theorem 6.2: wakeup via one shared object (direct LL/SC implementation)",
        [
            "object",
            "n",
            "k (ops/proc)",
            "winner steps",
            "ceil(log4 n)",
            "verdict",
        ],
    );
    let cfg = AdversaryConfig::default();
    let kinds = ReductionKind::all();
    let mut cases = Vec::new();
    for kind in kinds {
        for &n in ns {
            cases.push((kind, n));
        }
    }
    let rows = sweep.run(&cases, |_trial, &(kind, n)| {
        let alg = ObjectWakeup::direct(kind, n);
        let rep = verify_lower_bound(&alg, n, Arc::new(ZeroTosses), &cfg)
            .expect("E7 reduction runs stay within the default executor budgets");
        assert!(rep.wakeup.ok() && rep.bound_holds, "{kind} n={n}");
        E7Row {
            kind,
            n,
            ops_per_process: kind.ops_per_process(),
            winner_steps: rep.winner_steps,
            bound: ceil_log4(n),
        }
    });
    for r in &rows {
        table.row([
            r.kind.label().to_string(),
            r.n.to_string(),
            r.ops_per_process.to_string(),
            r.winner_steps.to_string(),
            r.bound.to_string(),
            "PASS".to_string(),
        ]);
    }
    Experiment { table, rows }
}

/// One row of E8/E9: construction costs at one `n`.
#[derive(Clone, Debug)]
pub(crate) struct E8Row {
    /// ADT Group-Update tree, adversary schedule.
    pub(crate) adt: u64,
    /// Naive LL/SC combining tree, adversary schedule.
    pub(crate) naive_tree: u64,
    /// Herlihy announce-and-help, adversary schedule.
    pub(crate) herlihy: u64,
    /// Direct LL/SC object, adversary schedule.
    pub(crate) direct: u64,
}

/// E8/E9: the tightness sweep — worst-case shared ops per operation for
/// every construction under the Figure-2 adversary. Each
/// `(n, construction)` measurement is one trial.
pub(crate) fn e8_universal_constructions(ns: &[usize], sweep: &Sweep) -> Experiment<E8Row> {
    let mut table = Table::new(
        "E8/E9 - worst-case shared ops per operation (fetch&increment under the adversary)",
        [
            "n",
            "adt-tree",
            "naive-tree",
            "herlihy",
            "direct",
            "log2(n)+2",
        ],
    );
    let cfg = MeasureConfig {
        check_linearizability: false,
        ..MeasureConfig::default()
    };
    const IMPS: usize = 4;
    let mut cases = Vec::new();
    for &n in ns {
        for imp in 0..IMPS {
            cases.push((n, imp));
        }
    }
    let costs = sweep.run(&cases, |_trial, &(n, imp)| {
        let spec = Arc::new(FetchIncrement::new(32));
        let ops = vec![FetchIncrement::op(); n];
        let imp: Box<dyn ObjectImplementation> = match imp {
            0 => Box::new(AdtTreeUniversal::new(spec.clone())),
            1 => Box::new(CombiningTreeUniversal::new(spec.clone())),
            2 => Box::new(HerlihyUniversal::new(spec.clone())),
            _ => Box::new(DirectLlSc::new(spec.clone())),
        };
        measure(
            imp.as_ref(),
            spec.as_ref(),
            n,
            &ops,
            ScheduleKind::Adversary,
            &cfg,
        )
        .expect("E8 measurements complete within the configured budgets")
        .max_ops
    });
    let mut rows = Vec::new();
    for (group, &n) in costs.chunks_exact(IMPS).zip(ns) {
        let row = E8Row {
            adt: group[0],
            naive_tree: group[1],
            herlihy: group[2],
            direct: group[3],
        };
        table.row([
            n.to_string(),
            row.adt.to_string(),
            row.naive_tree.to_string(),
            row.herlihy.to_string(),
            row.direct.to_string(),
            ((n as f64).log2() as u64 + 2).to_string(),
        ]);
        rows.push(row);
    }
    Experiment { table, rows }
}

/// One row of E9: one construction under every schedule.
#[derive(Clone, Debug)]
pub(crate) struct E9Row {
    /// The construction's name.
    pub(crate) implementation: String,
    /// Number of processes.
    pub(crate) n: usize,
    /// Worst-case ops under the contention-free sequential schedule
    /// (`None` where the schedule is unsupported — the ADT tree's
    /// followers poll and need fairness).
    pub(crate) sequential: Option<u64>,
    /// Worst-case ops under round-robin.
    pub(crate) round_robin: u64,
    /// Worst-case ops under a seeded random interleaving.
    pub(crate) random: u64,
    /// Worst-case ops under the Figure-2 adversary.
    pub(crate) adversary: u64,
}

/// E9: schedule ablation — how each construction's worst-case cost depends
/// on the schedule, complementing E8's adversary-only sweep. Each
/// `(n, construction)` row (four measurements) is one trial.
pub(crate) fn e9_schedule_ablation(ns: &[usize], sweep: &Sweep) -> Experiment<E9Row> {
    let mut table = Table::new(
        "E9 - schedule ablation: worst-case shared ops per operation (fetch&increment)",
        [
            "construction",
            "n",
            "sequential",
            "round-robin",
            "random",
            "adversary",
        ],
    );
    let cfg = MeasureConfig {
        check_linearizability: false,
        ..MeasureConfig::default()
    };
    const IMPS: usize = 4;
    let mut cases = Vec::new();
    for &n in ns {
        for imp in 0..IMPS {
            cases.push((n, imp));
        }
    }
    let rows = sweep.run(&cases, |_trial, &(n, imp)| {
        let spec = Arc::new(FetchIncrement::new(32));
        let ops = vec![FetchIncrement::op(); n];
        let (imp, supports_sequential): (Box<dyn ObjectImplementation>, bool) = match imp {
            0 => (Box::new(AdtTreeUniversal::new(spec.clone())), false),
            1 => (Box::new(CombiningTreeUniversal::new(spec.clone())), true),
            2 => (Box::new(HerlihyUniversal::new(spec.clone())), true),
            _ => (Box::new(DirectLlSc::new(spec.clone())), true),
        };
        let run = |kind: ScheduleKind| {
            measure(imp.as_ref(), spec.as_ref(), n, &ops, kind, &cfg)
                .expect("E9 measurements complete within the configured budgets")
                .max_ops
        };
        E9Row {
            implementation: imp.name(),
            n,
            sequential: supports_sequential.then(|| run(ScheduleKind::Sequential)),
            round_robin: run(ScheduleKind::RoundRobin),
            random: run(ScheduleKind::RandomInterleave { seed: 17 }),
            adversary: run(ScheduleKind::Adversary),
        }
    });
    for row in &rows {
        table.row([
            row.implementation.clone(),
            row.n.to_string(),
            row.sequential
                .map(|v| v.to_string())
                .unwrap_or_else(|| "n/a".into()),
            row.round_robin.to_string(),
            row.random.to_string(),
            row.adversary.to_string(),
        ]);
    }
    Experiment { table, rows }
}

/// One row of E10: direct-implementation costs.
#[derive(Clone, Debug)]
pub(crate) struct E10Row {
    /// Number of processes.
    pub(crate) n: usize,
    /// Solo (sequential-schedule) cost.
    pub(crate) solo: u64,
    /// Contended (adversary-schedule) cost.
    pub(crate) contended: u64,
    /// The oblivious `O(log n)` tree under the adversary, for contrast.
    pub(crate) oblivious_tree: u64,
}

/// E10: the non-oblivious escape hatch — the direct LL/SC object costs a
/// constant 2 ops solo (below any growing bound), at the price of `Θ(n)`
/// under full contention. One `n` per trial.
pub(crate) fn e10_direct_escape_hatch(ns: &[usize], sweep: &Sweep) -> Experiment<E10Row> {
    let mut table = Table::new(
        "E10 - semantics-exploiting direct LL/SC object: solo vs contended",
        [
            "n",
            "direct solo",
            "direct contended",
            "adt-tree (adversary)",
        ],
    );
    let cfg = MeasureConfig {
        check_linearizability: false,
        ..MeasureConfig::default()
    };
    let rows = sweep.run(ns, |_trial, &n| {
        let spec = Arc::new(FetchIncrement::new(32));
        let ops = vec![FetchIncrement::op(); n];
        let direct = DirectLlSc::new(spec.clone());
        let solo = measure(
            &direct,
            spec.as_ref(),
            n,
            &ops,
            ScheduleKind::Sequential,
            &cfg,
        )
        .expect("E10 solo runs complete within the configured budgets")
        .max_ops;
        let contended = measure(
            &direct,
            spec.as_ref(),
            n,
            &ops,
            ScheduleKind::Adversary,
            &cfg,
        )
        .expect("E10 adversary runs complete within the configured budgets")
        .max_ops;
        let tree = measure(
            &AdtTreeUniversal::new(spec.clone()),
            spec.as_ref(),
            n,
            &ops,
            ScheduleKind::Adversary,
            &cfg,
        )
        .expect("E10 tree runs complete within the configured budgets")
        .max_ops;
        assert_eq!(solo, 2, "solo cost is constant");
        E10Row {
            n,
            solo,
            contended,
            oblivious_tree: tree,
        }
    });
    for r in &rows {
        table.row([
            r.n.to_string(),
            r.solo.to_string(),
            r.contended.to_string(),
            r.oblivious_tree.to_string(),
        ]);
    }
    Experiment { table, rows }
}

/// One row of E10b: structural implementations' solo cost vs data size.
#[derive(Clone, Debug)]
pub(crate) struct E10bRow {
    /// Implementation name.
    pub(crate) implementation: String,
    /// Initial items in the structure.
    pub(crate) initial: usize,
    /// Solo shared ops for one operation.
    pub(crate) solo_ops: u64,
}

/// E10b: the *structural* escape hatches — pointer-based LL/SC queue and
/// stack whose solo per-operation cost is a small constant regardless of
/// structure size (contrast with every oblivious construction's Ω(log n)).
/// Each initial size (queue + stack measurement) is one trial.
pub(crate) fn e10b_structural_escape_hatches(
    sizes: &[usize],
    sweep: &Sweep,
) -> Experiment<E10bRow> {
    use llsc_objects::{Queue, Stack};
    use llsc_universal::{MsQueue, TreiberStack};
    let mut table = Table::new(
        "E10b - structural LL/SC implementations: solo ops per operation vs structure size",
        ["implementation", "initial items", "solo ops"],
    );
    let cfg = MeasureConfig::default();
    let pairs = sweep.run(sizes, |_trial, &initial| {
        let spec = Arc::new(Queue::with_numbered_items(initial));
        let imp = MsQueue::new(Queue::with_numbered_items(initial));
        let ops = vec![Queue::dequeue_op()];
        let r = measure(&imp, spec.as_ref(), 1, &ops, ScheduleKind::Sequential, &cfg)
            .expect("E10b solo queue runs complete within the configured budgets");
        assert!(r.linearizable);
        let queue_row = E10bRow {
            implementation: imp.name(),
            initial,
            solo_ops: r.max_ops,
        };

        let spec = Arc::new(Stack::with_numbered_items(initial));
        let imp = TreiberStack::new(Stack::with_numbered_items(initial));
        let ops = vec![Stack::pop_op()];
        let r = measure(&imp, spec.as_ref(), 1, &ops, ScheduleKind::Sequential, &cfg)
            .expect("E10b solo stack runs complete within the configured budgets");
        assert!(r.linearizable);
        let stack_row = E10bRow {
            implementation: imp.name(),
            initial,
            solo_ops: r.max_ops,
        };
        [queue_row, stack_row]
    });
    let rows: Vec<E10bRow> = pairs.into_iter().flatten().collect();
    for r in &rows {
        table.row([
            r.implementation.clone(),
            r.initial.to_string(),
            r.solo_ops.to_string(),
        ]);
    }
    Experiment { table, rows }
}

/// One row of E12: multi-use amortised costs of the direct object.
#[derive(Clone, Debug)]
pub(crate) struct E12Row {
    /// Number of processes.
    pub(crate) n: usize,
    /// Operations per process.
    pub(crate) k: usize,
    /// Amortised worst cost, solo schedule.
    pub(crate) solo: f64,
    /// Amortised worst cost, adversary schedule.
    pub(crate) adversary: f64,
}

/// E12: `k`-use amortised shared-access cost of the direct LL/SC object
/// (Corollary 6.1's `k`-use setting, measured from the other side). One
/// `(n, k)` cell per trial.
pub(crate) fn e12_multi_use(ns: &[usize], ks: &[usize], sweep: &Sweep) -> Experiment<E12Row> {
    use llsc_universal::measure_multi_use;
    let mut table = Table::new(
        "E12 - k-use amortised shared ops per operation (direct LL/SC fetch&increment)",
        ["n", "k", "solo", "adversary"],
    );
    let mut cases = Vec::new();
    for &n in ns {
        for &k in ks {
            cases.push((n, k));
        }
    }
    let rows = sweep.run(&cases, |_trial, &(n, k)| {
        let spec = Arc::new(FetchIncrement::new(32));
        let imp: Arc<dyn ObjectImplementation> = Arc::new(DirectLlSc::new(spec.clone()));
        let ops: Vec<Vec<llsc_shmem::Value>> =
            (0..n).map(|_| vec![FetchIncrement::op(); k]).collect();
        let solo = measure_multi_use(
            Arc::clone(&imp),
            spec.as_ref(),
            n,
            &ops,
            ScheduleKind::Sequential,
            100_000_000,
        )
        .expect("E12 solo runs complete within the step budget");
        let adv = measure_multi_use(
            Arc::clone(&imp),
            spec.as_ref(),
            n,
            &ops,
            ScheduleKind::Adversary,
            100_000_000,
        )
        .expect("E12 adversary runs complete within the step budget");
        assert!(solo.responses_consistent && adv.responses_consistent);
        E12Row {
            n,
            k,
            solo: solo.max_amortised,
            adversary: adv.max_amortised,
        }
    });
    for r in &rows {
        table.row([
            r.n.to_string(),
            r.k.to_string(),
            format!("{:.2}", r.solo),
            format!("{:.2}", r.adversary),
        ]);
    }
    Experiment { table, rows }
}

/// One row of E13: appendix-claims checking for one algorithm.
#[derive(Clone, Debug)]
pub(crate) struct E13Row {
    /// Algorithm name.
    pub(crate) algorithm: String,
    /// Number of processes (subsets are exhaustive).
    pub(crate) n: usize,
    /// Total violations over all subsets (claims + Lemma 5.2).
    pub(crate) violations: usize,
}

/// E13: the appendix claims (A.2-A.9) plus Lemma 5.2, exhaustively over
/// subsets, for every shipped wakeup algorithm. Runs the E13 job's trials
/// in memory; the `2^n` subsets of each check fan out over the sweep.
pub(crate) fn e13_appendix_claims(ns: &[usize], sweep: &Sweep) -> Experiment<E13Row> {
    let spec = JobSpec {
        seed: sweep.seed,
        ns: ns.to_vec(),
        ..JobSpec::default_for(JobExperiment::E13)
    };
    let exp = run_in_memory::<E13Row>(&spec, sweep);
    for r in &exp.rows {
        assert_eq!(r.violations, 0, "{} n={}", r.algorithm, r.n);
    }
    exp
}

/// E14: the partial-schedule stress portfolio over correct algorithms and
/// strawmen — what the Figure-2 adversary alone cannot show. Each
/// algorithm's portfolio schedules fan out over the sweep. No typed rows:
/// the table is all anything reads.
pub(crate) fn e14_stress_portfolio(n: usize, sweep: &Sweep) -> Table {
    use llsc_core::{standard_portfolio, stress_wakeup};
    use llsc_wakeup::strawman_algorithms;
    let mut table = Table::new(
        "E14 - wakeup stress portfolio (partition/sequential/random schedules)",
        ["algorithm", "tried", "passed", "verdict"],
    );
    let portfolio = standard_portfolio(n, 4);
    let cases: Vec<(Box<dyn Algorithm>, bool)> = correct_algorithms()
        .into_iter()
        .map(|a| (a, true))
        .chain(strawman_algorithms().into_iter().map(|a| (a, false)))
        .collect();
    for (alg, expected_clean) in cases {
        let report = stress_wakeup(
            alg.as_ref(),
            n,
            Arc::new(ZeroTosses),
            &portfolio,
            5_000_000,
            sweep,
        )
        .expect("E14 stress schedules stay within the default executor budgets");
        if expected_clean {
            assert!(report.ok(), "{}: {report}", alg.name());
        } else {
            assert!(!report.ok(), "{} should fail stress", alg.name());
        }
        table.row([
            alg.name().to_string(),
            report.schedules_tried.to_string(),
            report.passed.to_string(),
            if report.ok() { "clean" } else { "caught" }.to_string(),
        ]);
    }
    table
}

/// E5 extra: the tournament winner across a wide sweep — the tightness
/// witness for the wakeup problem itself. One `n` per trial.
pub(crate) fn e5_tournament_tightness(
    ns: &[usize],
    sweep: &Sweep,
) -> Experiment<(usize, u64, u64)> {
    let mut table = Table::new(
        "E5b - tournament wakeup: winner steps vs the log4 bound (tightness for wakeup)",
        ["n", "ceil(log4 n)", "winner steps", "ratio"],
    );
    let cfg = AdversaryConfig::lightweight();
    let rows = sweep.run(ns, |_trial, &n| {
        let rep = verify_lower_bound(&TournamentWakeup, n, Arc::new(ZeroTosses), &cfg)
            .expect("E5b runs stay within the default executor budgets");
        assert!(rep.wakeup.ok() && rep.bound_holds);
        (n, ceil_log4(n), rep.winner_steps)
    });
    for &(n, bound, winner_steps) in &rows {
        table.row([
            n.to_string(),
            bound.to_string(),
            winner_steps.to_string(),
            format!("{:.2}", winner_steps as f64 / bound.max(1) as f64),
        ]);
    }
    Experiment { table, rows }
}

/// One algorithm of a fault experiment: the label its table row and its
/// [`ReproCase`]s carry, and its constructor at `n` processes. The label
/// is the algorithm's own name, except that the `ObjectWakeup` rows add
/// the backing construction in brackets — the reduction's name alone
/// does not say which construction runs.
pub(crate) type Labeled = (&'static str, fn(usize) -> Box<dyn Algorithm>);

/// Wakeup through the fetch&increment reduction, over the construction
/// `new` builds for the object.
fn via_fetch_increment<U: ObjectImplementation + 'static>(
    n: usize,
    new: fn(Arc<dyn ObjectSpec>) -> U,
) -> Box<dyn Algorithm> {
    let kind = ReductionKind::FetchIncrement;
    Box::new(ObjectWakeup::new(kind, n, Arc::new(new(kind.spec_for(n)))))
}

const TOURNAMENT: Labeled = ("tournament-wakeup", |_| Box::new(TournamentWakeup));
const COUNTER: Labeled = ("counter-wakeup", |_| Box::new(CounterWakeup));
const RANDOMIZED_COUNTER: Labeled = ("randomized-counter-wakeup", |_| {
    Box::new(RandomizedCounterWakeup)
});
const ADT_FETCH_INCREMENT: Labeled = ("wakeup-from-fetch&increment", |n| {
    via_fetch_increment(n, AdtTreeUniversal::new)
});
const DIRECT_FETCH_INCREMENT: Labeled = ("wakeup-from-fetch&increment[direct-llsc]", |n| {
    via_fetch_increment(n, DirectLlSc::new)
});
const TREE_FETCH_INCREMENT: Labeled = ("wakeup-from-fetch&increment[combining-tree]", |n| {
    via_fetch_increment(n, CombiningTreeUniversal::new)
});
const HARDENED_COUNTER: Labeled = ("hardened-counter-wakeup", |_| {
    Box::new(HardenedCounterWakeup)
});
const HARDENED_TOURNAMENT: Labeled = ("hardened-tournament-wakeup", |_| {
    Box::new(HardenedTournamentWakeup)
});
const HARDENED_RANDOMIZED_COUNTER: Labeled = ("hardened-randomized-counter-wakeup", |_| {
    Box::new(HardenedRandomizedCounterWakeup)
});
const HARDENED_DIRECT_FETCH_INCREMENT: Labeled =
    ("wakeup-from-fetch&increment[hardened-direct-llsc]", |n| {
        via_fetch_increment(n, HardenedDirectLlSc::new)
    });
const HARDENED_TREE_FETCH_INCREMENT: Labeled = (
    "wakeup-from-fetch&increment[hardened-combining-tree]",
    |n| via_fetch_increment(n, HardenedCombiningTreeUniversal::new),
);
const HARDENED_ADT_FETCH_INCREMENT: Labeled = (
    "wakeup-from-fetch&increment[hardened-adt-group-update]",
    |n| via_fetch_increment(n, HardenedAdtTreeUniversal::new),
);
const RECOVERABLE_MUTEX: Labeled = ("recoverable-mutex", |_| Box::new(RecoverableMutex));
const RECOVERABLE_COUNTER: Labeled = ("recoverable-counter-wakeup", |_| {
    Box::new(RecoverableCounterWakeup)
});
const RECOVERABLE_RANDOMIZED_COUNTER: Labeled = ("recoverable-rand-counter-wakeup", |_| {
    Box::new(RecoverableRandCounterWakeup)
});

/// E15's algorithms: the three wakeup solutions the paper's bound covers
/// plus the oblivious universal construction solving wakeup through the
/// fetch&increment reduction.
pub(crate) const E15_ALGORITHMS: &[Labeled] =
    &[TOURNAMENT, COUNTER, RANDOMIZED_COUNTER, ADT_FETCH_INCREMENT];

/// E16's algorithms: the three hardened wakeup solutions plus the three
/// hardened universal constructions solving wakeup through the
/// fetch&increment reduction.
pub(crate) const E16_ALGORITHMS: &[Labeled] = &[
    HARDENED_COUNTER,
    HARDENED_TOURNAMENT,
    HARDENED_RANDOMIZED_COUNTER,
    HARDENED_DIRECT_FETCH_INCREMENT,
    HARDENED_TREE_FETCH_INCREMENT,
    HARDENED_ADT_FETCH_INCREMENT,
];

/// The unhardened twin of each [`E16_ALGORITHMS`] entry — the zero-cost
/// baseline every `f = 0` trial is compared against, access for access.
pub(crate) const E16_TWINS: &[Labeled] = &[
    COUNTER,
    TOURNAMENT,
    RANDOMIZED_COUNTER,
    DIRECT_FETCH_INCREMENT,
    TREE_FETCH_INCREMENT,
    ADT_FETCH_INCREMENT,
];

/// E17's algorithms: the three hardened wakeup solutions and their
/// unhardened twins, side by side under identical chaos plans.
pub(crate) const E17_ALGORITHMS: &[Labeled] = &[
    HARDENED_COUNTER,
    HARDENED_TOURNAMENT,
    HARDENED_RANDOMIZED_COUNTER,
    COUNTER,
    TOURNAMENT,
    RANDOMIZED_COUNTER,
];

/// E19's algorithms: the recoverable mutex and the two recoverable
/// wakeup variants.
pub(crate) const E19_ALGORITHMS: &[Labeled] = &[
    RECOVERABLE_MUTEX,
    RECOVERABLE_COUNTER,
    RECOVERABLE_RANDOMIZED_COUNTER,
];

/// E20's algorithms: the three hardened wakeup solutions (memory-fault
/// arm, indices 0–2) and the three crash-recoverable algorithms
/// (crash-recovery arm, indices 3–5).
pub(crate) const E20_ALGORITHMS: &[Labeled] = &[
    HARDENED_COUNTER,
    HARDENED_TOURNAMENT,
    HARDENED_RANDOMIZED_COUNTER,
    RECOVERABLE_MUTEX,
    RECOVERABLE_COUNTER,
    RECOVERABLE_RANDOMIZED_COUNTER,
];

/// A direct fault table: the experiment's job over one `n`, the table's
/// grid axis `xs` (crash count, fault budget or chaos intensity) and
/// `reps` trials per cell, run in memory on `sweep`. A `max_events` of 0
/// means [`crate::registry::DEFAULT_MAX_EVENTS`].
///
/// # Panics
///
/// When the grid is not a runnable job ([`JobSpec::validate`]), e.g. with
/// no trial per cell.
pub(crate) fn fault_table(
    experiment: JobExperiment,
    n: usize,
    xs: &[usize],
    reps: usize,
    max_events: u64,
    sweep: &Sweep,
) -> (Experiment<FaultRow>, Vec<TrialFailure>) {
    let spec = JobSpec {
        seed: sweep.seed,
        ns: vec![n],
        samples: reps as u64,
        intensities: xs.iter().map(|&x| x as u64).collect(),
        max_events,
        ..JobSpec::default_for(experiment)
    };
    if let Err(e) = spec.validate() {
        panic!("{e}");
    }
    fault_sweep(&spec, sweep)
}

/// One row of a fault table (E15/E16/E17/E19/E20): the sum of the
/// classified trials of one `(algorithm, grid value)` cell. Every fault
/// table reads its columns off this one record.
#[derive(Clone, Debug, Default)]
pub struct FaultRow {
    /// Algorithm name.
    pub algorithm: String,
    /// The algorithm's index in its experiment's catalog (E20's arm
    /// follows from it).
    pub alg: usize,
    /// The grid value: crash count `k` (E15/E19), fault budget `f` (E16)
    /// or chaos intensity (E17/E20).
    pub intensity: usize,
    /// Trials folded into the row.
    pub trials: usize,
    /// Trials per degradation class, keyed by the class's exact name
    /// (`recovered`, `detected-wrong`, `silent-wrong`, `stalled`,
    /// `crashed`, `aborted`; see [`crate::repro::classify`]).
    pub classes: BTreeMap<String, usize>,
    /// Whether every trial met its safety property (wakeup conditions,
    /// or token distinctness for the mutex).
    pub safe: bool,
    /// Detections published to the hardened telemetry registers.
    pub detected: u64,
    /// Crashes delivered (re-crashes under a recovery budget included).
    pub crashes: u64,
    /// Recoveries performed.
    pub recoveries: u64,
    /// Spurious SC failures delivered.
    pub spurious_sc: u64,
    /// Register corruptions delivered.
    pub corruptions: u64,
    /// Shared-memory accesses.
    pub accesses: u64,
    /// Remote memory references under the cache-coherent cost model.
    pub cc_rmrs: u64,
    /// Remote memory references under the distributed-shared-memory
    /// cost model.
    pub dsm_rmrs: u64,
    /// The minimal-reproducer sizes of the row's shrunk (non-recovered
    /// E17) trials, in trial order.
    pub shrunk: Vec<usize>,
}

impl FaultRow {
    /// Trials of class `class`.
    pub fn class(&self, class: &str) -> usize {
        self.classes.get(class).copied().unwrap_or(0)
    }

    /// Trials that terminated, whatever their answer.
    pub fn completed(&self) -> usize {
        COMPLETED_CLASSES.iter().map(|c| self.class(c)).sum()
    }

    /// Faults delivered: spurious SC failures plus corruptions.
    pub fn injected(&self) -> u64 {
        self.spurious_sc + self.corruptions
    }

    /// Mean shared-memory accesses per trial (0 for an empty row).
    pub fn mean_ops(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.accesses as f64 / self.trials as f64
        }
    }

    /// The lower median of the shrunk reproducer sizes; `None` when no
    /// trial was shrunk.
    pub(crate) fn median_shrunk(&self) -> Option<usize> {
        let mut sizes = self.shrunk.clone();
        sizes.sort_unstable();
        (!sizes.is_empty()).then(|| sizes[(sizes.len() - 1) / 2])
    }
}

/// The step cap each E17 trial's random-schedule drive runs under.
pub(crate) const E17_MAX_STEPS: u64 = 20_000;

/// The per-trial replay budget [`crate::repro::shrink_case`] gets when
/// minimizing a failing chaos trial.
pub(crate) const E17_SHRINK_BUDGET: usize = 160;

/// The crash-recovery regime every E19 trial (and E20's crash-recovery
/// arm) runs with unless the job overrides it: victims come back `n`
/// events after each crash and may be re-crashed once (two crashes per
/// victim in total) — enough to land re-crashes inside recovery sections
/// without making completion hopeless.
pub(crate) fn e19_recovery_spec(n: usize) -> RecoverySpec {
    RecoverySpec {
        delay: n as u64,
        budget: 2,
    }
}

/// Algorithm `idx` of E20's algorithms at `n` processes.
pub fn e20_algorithm(idx: usize, n: usize) -> Box<dyn Algorithm> {
    (E20_ALGORITHMS[idx].1)(n)
}

/// The recovery regime of E20's crash-recovery arm (`None` for the
/// hardened trio's memory-fault arm).
pub(crate) fn e20_recovery(idx: usize, n: usize) -> Option<RecoverySpec> {
    (idx >= 3).then(|| e19_recovery_spec(n))
}

/// The adversary arm algorithm `idx` of E20 faces.
pub(crate) fn e20_arm(idx: usize) -> &'static str {
    if idx < 3 {
        "memory-faults"
    } else {
        "crash-recovery"
    }
}

/// The step cap every E20 trial runs under, on both backends — and every
/// round-robin E15/E16/E19 trial on the simulator.
pub const E20_MAX_STEPS: u64 = 40_000;

/// Tailors a [`ChaosPlan`] to an adversary arm, per the backend ×
/// adversary capability matrix (see README "Fault model"):
///
/// * `Some` recovery — the **crash-recovery arm** for the
///   crash-recoverable family: keeps the crash layer and the
///   (universally tolerable) spurious SC failures, strips register
///   corruption, which recoverable algorithms cannot detect.
/// * `None` — the **memory-fault arm** for the hardened family: keeps
///   the full fault layer (spurious SC + corruption), strips the crash
///   layer, which detection-only algorithms cannot survive restarting
///   from.
///
/// Returns the `(crashes, faults)` the trial actually arms.
fn chaos_arm(chaos: &ChaosPlan, recovery: Option<RecoverySpec>) -> (CrashPlan, FaultPlan) {
    if recovery.is_some() {
        let f = chaos.faults();
        (
            chaos.crashes().clone(),
            FaultPlan::at(f.spurious().to_vec(), [], f.value_seed()),
        )
    } else {
        (CrashPlan::none(), chaos.faults().clone())
    }
}

/// Builds the replayable case one E20 trial runs: a chaos plan seeded
/// from `seed`, tailored to algorithm `idx`'s capability arm
/// (`chaos_arm`), with the arm's recovery regime recorded — so
/// `llsc replay` and the hardware side of E20 run exactly the plan the
/// simulator sweep did.
pub fn e20_case(idx: usize, n: usize, intensity: usize, seed: u64, max_events: u64) -> ReproCase {
    let chaos = ChaosPlan::seeded(seed, n, intensity, 8 * n as u64);
    let recovery = e20_recovery(idx, n);
    let (crashes, faults) = chaos_arm(&chaos, recovery);
    let mut case = chaos.to_case(
        "e20",
        E20_ALGORITHMS[idx].0,
        n,
        TossSpec::Seeded(seed),
        max_events,
        E20_MAX_STEPS,
    );
    case.crashes = crashes;
    case.faults = faults;
    case.recovery = recovery;
    case
}

/// E20: cross-backend chaos validation, simulator half. Each trial
/// tailors a seeded [`ChaosPlan`] to its algorithm's capability arm
/// (`chaos_arm`): the hardened wakeup trio faces
/// spurious SC failures and register corruption under an adversarial
/// random schedule; the recoverable trio faces crash/recovery cycles
/// plus spurious SC failures. Every trial is classified with the shared
/// degradation vocabulary and billed under both RMR cost models, so the
/// table reads as *degradation class and recovery RMR cost vs fault
/// intensity*. `intensity = 0` trials must recover; a violation panics,
/// which the panic-isolated sweep reports as a [`TrialFailure`] with an
/// attached reproducer. The trials are the E20 job's, run in
/// memory. A `max_events` of 0 means
/// [`crate::registry::DEFAULT_MAX_EVENTS`].
///
/// The hardware half runs the same plans through `llsc-atomics`
/// ([`crate::xcheck::e20_bench`], `llsc bench e20`), where crashes are
/// real thread kills and the fault layer is re-timed onto per-process
/// access clocks.
pub fn e20_chaos_recovery_sweep(
    n: usize,
    intensities: &[usize],
    reps: usize,
    max_events: u64,
    sweep: &Sweep,
) -> (Experiment<FaultRow>, Vec<TrialFailure>) {
    fault_table(JobExperiment::E20, n, intensities, reps, max_events, sweep)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e20_arms_match_family_capabilities_with_zero_silent_wrong() {
        let (exp, failures) =
            e20_chaos_recovery_sweep(6, &[0, 2], 2, 2_000_000, &Sweep::sequential());
        assert!(failures.is_empty(), "{failures:?}");
        assert_eq!(exp.rows.len(), 12, "6 algorithms x 2 intensities");
        for r in &exp.rows {
            assert_eq!(
                r.class("silent-wrong"),
                0,
                "{}: chaos-validated families never go silently wrong",
                r.algorithm
            );
            assert_eq!(r.trials, 2);
            assert!(
                r.cc_rmrs > 0 && r.dsm_rmrs > 0,
                "{}: RMRs billed",
                r.algorithm
            );
            if r.intensity == 0 {
                assert_eq!(
                    r.class("recovered"),
                    r.trials,
                    "{}: clean trials recover",
                    r.algorithm
                );
                assert_eq!((r.crashes, r.spurious_sc, r.corruptions), (0, 0, 0));
            }
            match e20_arm(r.alg) {
                "memory-faults" => {
                    assert_eq!(
                        (r.crashes, r.recoveries),
                        (0, 0),
                        "{}: the hardened trio never faces the crash layer",
                        r.algorithm
                    );
                }
                "crash-recovery" => {
                    assert_eq!(
                        r.corruptions, 0,
                        "{}: the recoverable trio never faces corruption",
                        r.algorithm
                    );
                    assert_eq!(
                        r.recoveries, r.crashes,
                        "{}: every delivered crash is recovered",
                        r.algorithm
                    );
                }
                other => panic!("unknown arm {other}"),
            }
        }
        // The fault layers actually fire at intensity 2.
        let delivered: u64 = exp
            .rows
            .iter()
            .filter(|r| r.intensity > 0)
            .map(|r| r.crashes + r.spurious_sc + r.corruptions)
            .sum();
        assert!(delivered > 0, "intensity-2 cells must deliver faults");
    }

    #[test]
    fn e20_is_identical_across_thread_counts() {
        let (base, base_f) =
            e20_chaos_recovery_sweep(6, &[0, 2], 2, 2_000_000, &Sweep::sequential());
        for threads in [2, 4] {
            let (par, par_f) =
                e20_chaos_recovery_sweep(6, &[0, 2], 2, 2_000_000, &Sweep::with_threads(threads));
            assert_eq!(par.table.render(), base.table.render(), "threads={threads}");
            assert_eq!(par_f.len(), base_f.len());
        }
    }

    #[test]
    fn e19_recovers_crashes_and_bills_rmrs() {
        let (exp, failures) = fault_table(
            JobExperiment::E19,
            6,
            &[0, 2],
            3,
            2_000_000,
            &Sweep::sequential(),
        );
        assert!(failures.is_empty(), "{failures:?}");
        assert_eq!(exp.rows.len(), 6, "3 algorithms x 2 crash counts");
        for r in &exp.rows {
            assert!(r.safe, "{}: safety must survive recovery", r.algorithm);
            assert_eq!(r.trials, 3);
            assert_eq!(
                r.completed() + r.class("crashed") + r.class("stalled"),
                r.trials,
                "{}: every trial classifies",
                r.algorithm
            );
            assert!(
                r.cc_rmrs > 0 && r.dsm_rmrs > 0,
                "{}: RMRs billed",
                r.algorithm
            );
            if r.intensity == 0 {
                assert_eq!(
                    r.completed(),
                    3,
                    "{}: crash-free trials complete",
                    r.algorithm
                );
                assert_eq!((r.crashes, r.recoveries), (0, 0));
            } else {
                assert!(r.crashes > 0, "{}: victims actually crash", r.algorithm);
                assert_eq!(
                    r.recoveries, r.crashes,
                    "{}: every delivered crash is recovered",
                    r.algorithm
                );
            }
        }
    }

    #[test]
    fn e1_small_sweep_passes() {
        let exp = e1_secretive_schedules(&[4, 9], 5, &Sweep::sequential());
        assert_eq!(exp.rows.len(), 2);
        assert!(exp.rows.iter().all(|r| r.worst_movers <= 2));
    }

    #[test]
    fn e3_small_sweep_passes() {
        let exp = e3_up_growth(&[4, 8], &Sweep::sequential());
        assert!(exp.rows.iter().all(|r| r.lemma_5_1));
    }

    #[test]
    fn e5_small_sweep_passes() {
        let exp = e5_wakeup_lower_bound(&[4, 16], &Sweep::sequential());
        assert!(exp
            .rows
            .iter()
            .all(|r| r.holds && r.winner_steps >= r.bound));
    }

    #[test]
    fn e8_small_sweep_shows_separation() {
        let exp = e8_universal_constructions(&[16, 64], &Sweep::sequential());
        for r in &exp.rows {
            assert!(r.adt < r.herlihy);
            assert!(r.adt < r.naive_tree);
        }
    }

    #[test]
    fn e10_solo_cost_is_constant() {
        let exp = e10_direct_escape_hatch(&[4, 32], &Sweep::sequential());
        assert!(exp.rows.iter().all(|r| r.solo == 2));
        assert!(exp.rows.iter().all(|r| r.contended >= r.n as u64));
    }

    #[test]
    fn random_move_config_has_no_self_moves() {
        for seed in 0..10 {
            let cfg = random_move_config(12, 6, seed);
            for p in cfg.processes() {
                let (src, dst) = cfg.get(p).unwrap();
                assert_ne!(src, dst);
            }
        }
    }

    #[test]
    fn e15_classifies_crash_outcomes_and_stays_safe() {
        let (exp, failures) = fault_table(
            JobExperiment::E15,
            8,
            &[0, 2],
            3,
            2_000_000,
            &Sweep::sequential(),
        );
        assert!(failures.is_empty(), "{failures:?}");
        assert_eq!(exp.rows.len(), 8, "4 algorithms x 2 crash counts");
        let mut stranded = 0;
        for r in &exp.rows {
            assert!(
                r.safe,
                "{}: wakeup safety must survive crashes",
                r.algorithm
            );
            assert_eq!(r.trials, 3);
            assert_eq!(
                r.completed() + r.class("crashed") + r.class("stalled"),
                r.trials,
                "{}: every trial classifies",
                r.algorithm
            );
            if r.intensity == 0 {
                assert_eq!(
                    r.completed(),
                    3,
                    "{}: fault-free trials complete",
                    r.algorithm
                );
            } else {
                stranded += r.class("crashed") + r.class("stalled");
            }
        }
        // A victim that terminates before its crash point survives, so not
        // every k=2 trial strands a survivor — but some must.
        assert!(stranded > 0, "k=2 trials must strand some survivor");
    }

    #[test]
    fn e15_starved_budget_surfaces_isolated_failures() {
        let (exp, failures) = fault_table(JobExperiment::E15, 8, &[0], 2, 10, &Sweep::sequential());
        assert!(!failures.is_empty(), "starved k=0 trials must panic");
        assert!(failures
            .iter()
            .all(|f| f.payload.contains("fault-free trial must complete")));
        // Every failure carries its reproduction context: algorithm, crash
        // plan, and the toss seed.
        assert!(failures
            .iter()
            .all(|f| f.context.contains("crash-plan:k=0") && f.context.contains("tosses=seeded")));
        // Panics are isolated: the experiment still renders its table.
        assert!(exp.table.render().contains("E15"));
    }

    #[test]
    fn e15_is_identical_across_thread_counts() {
        let (base, base_f) = fault_table(
            JobExperiment::E15,
            8,
            &[0, 1],
            2,
            2_000_000,
            &Sweep::sequential(),
        );
        for threads in [2, 4] {
            let (par, par_f) = fault_table(
                JobExperiment::E15,
                8,
                &[0, 1],
                2,
                2_000_000,
                &Sweep::with_threads(threads),
            );
            assert_eq!(par.table.render(), base.table.render(), "threads={threads}");
            assert_eq!(par_f.len(), base_f.len());
        }
    }

    #[test]
    fn e16_fault_free_trials_recover_at_twin_cost() {
        let (exp, failures) = fault_table(
            JobExperiment::E16,
            8,
            &[0],
            2,
            2_000_000,
            &Sweep::sequential(),
        );
        // The zero-cost comparison runs inside each trial; a mismatch
        // would surface here as a failure.
        assert!(failures.is_empty(), "{failures:?}");
        assert_eq!(exp.rows.len(), 6, "one f=0 cell per hardened algorithm");
        for r in &exp.rows {
            assert_eq!(
                r.class("recovered"),
                r.trials,
                "{}: f=0 must recover",
                r.algorithm
            );
            assert_eq!(r.injected(), 0, "{}: f=0 injects nothing", r.algorithm);
            assert_eq!(r.detected, 0, "{}: f=0 detects nothing", r.algorithm);
        }
    }

    #[test]
    fn e16_classifies_every_faulty_trial() {
        let (exp, failures) = fault_table(
            JobExperiment::E16,
            8,
            &[1, 4],
            3,
            2_000_000,
            &Sweep::sequential(),
        );
        assert!(failures.is_empty(), "{failures:?}");
        assert_eq!(exp.rows.len(), 12, "6 algorithms x 2 fault budgets");
        let mut injected_total = 0;
        for r in &exp.rows {
            assert_eq!(r.trials, 3);
            let c = |class| r.class(class);
            assert_eq!(
                c("recovered") + c("detected-wrong") + c("silent-wrong") + c("stalled"),
                r.trials,
                "{}: every trial classifies into exactly one bucket",
                r.algorithm
            );
            assert_eq!(
                r.class("silent-wrong"),
                0,
                "{}: hardened algorithms never fail silently",
                r.algorithm
            );
            injected_total += r.injected();
        }
        assert!(injected_total > 0, "some scheduled faults must land");
    }

    #[test]
    fn e16_is_identical_across_thread_counts() {
        let (base, base_f) = fault_table(
            JobExperiment::E16,
            8,
            &[0, 2],
            2,
            2_000_000,
            &Sweep::sequential(),
        );
        for threads in [2, 4] {
            let (par, par_f) = fault_table(
                JobExperiment::E16,
                8,
                &[0, 2],
                2,
                2_000_000,
                &Sweep::with_threads(threads),
            );
            assert_eq!(par.table.render(), base.table.render(), "threads={threads}");
            assert_eq!(par_f.len(), base_f.len());
        }
    }

    #[test]
    fn e16_starved_budget_surfaces_isolated_failures_with_context() {
        let (exp, failures) = fault_table(JobExperiment::E16, 8, &[0], 1, 40, &Sweep::sequential());
        assert!(!failures.is_empty(), "starved f=0 trials must panic");
        assert!(failures
            .iter()
            .all(|f| f.context.contains("fault-plan:none") && f.context.contains("alg=")));
        assert!(exp.table.render().contains("E16"));
    }

    #[test]
    fn e20_starved_budget_surfaces_isolated_failures_with_reproducers() {
        let (exp, failures) = e20_chaos_recovery_sweep(4, &[0], 1, 40, &Sweep::sequential());
        assert!(
            !failures.is_empty(),
            "starved intensity-0 trials must panic"
        );
        for f in &failures {
            assert!(
                f.context.contains("alg=") && f.context.contains("tosses=seeded"),
                "{}",
                f.context
            );
            let json = f.repro.as_ref().expect("failures carry a repro case");
            let case = ReproCase::from_json(json).expect("attached repro round-trips");
            assert_eq!(case.experiment, "e20");
            let run = crate::repro::run_case(&case).expect("algorithm resolves");
            assert_eq!(run.outcome_debug, case.outcome, "replay is byte-identical");
            let prov = case.provenance.expect("provenance recorded");
            assert_eq!(prov.trial_index, f.index);
        }
        // Panics are isolated: every cell still renders a row.
        assert_eq!(exp.rows.len(), 6, "one intensity-0 cell per algorithm");
        assert!(exp.table.render().contains("E20"));
    }

    #[test]
    fn starved_failures_carry_replayable_reproducers() {
        type Starved = fn(&Sweep) -> Vec<TrialFailure>;
        let tables: [(&str, Starved); 4] = [
            ("e15", |s| {
                fault_table(JobExperiment::E15, 8, &[0], 1, 40, s).1
            }),
            ("e16", |s| {
                fault_table(JobExperiment::E16, 8, &[0], 1, 40, s).1
            }),
            ("e17", |s| {
                fault_table(JobExperiment::E17, 6, &[0], 4, 40, s).1
            }),
            ("e19", |s| {
                fault_table(JobExperiment::E19, 8, &[0], 1, 40, s).1
            }),
        ];
        for (tag, starved) in tables {
            let failures = starved(&Sweep::sequential());
            assert!(!failures.is_empty(), "{tag}: starved trials must panic");
            for f in &failures {
                let json = f.repro.as_ref().expect("failures carry a repro case");
                let case = ReproCase::from_json(json).expect("attached repro round-trips");
                assert_eq!(case.experiment, tag);
                // The experiment-level assert panicked, but the underlying
                // execution is an honest stall — that's what the case
                // records.
                assert_eq!(case.class, "stalled", "{tag}");
                let run = crate::repro::run_case(&case).expect("algorithm resolves");
                assert_eq!(
                    run.outcome_debug, case.outcome,
                    "{tag}: replay is byte-identical"
                );
                assert_eq!(run.class, case.class, "{tag}");
                let prov = case.provenance.expect("provenance recorded");
                assert_eq!(prov.trial_index, f.index);
            }
        }
    }

    #[test]
    fn e17_classifies_chaos_trials_and_shrinks_reproducers() {
        let (exp, failures) = fault_table(
            JobExperiment::E17,
            4,
            &[0, 3],
            2,
            2_000_000,
            &Sweep::sequential(),
        );
        assert!(failures.is_empty(), "{failures:?}");
        assert_eq!(exp.rows.len(), 12, "6 algorithms x 2 intensities");
        let mut failing_cells = 0;
        for r in &exp.rows {
            assert_eq!(r.trials, 2);
            let c = |class| r.class(class);
            let terminated = c("recovered") + c("detected-wrong") + c("silent-wrong");
            assert_eq!(
                terminated + c("stalled") + c("crashed") + c("aborted"),
                r.trials,
                "{}: every trial classifies into exactly one bucket",
                r.algorithm
            );
            assert_eq!(
                r.median_shrunk().is_some(),
                r.class("recovered") < r.trials,
                "{}: the median tracks exactly the failing trials",
                r.algorithm
            );
            if r.intensity == 0 {
                assert_eq!(
                    r.class("recovered"),
                    r.trials,
                    "{}: chaos-free trials recover",
                    r.algorithm
                );
            } else if r.class("recovered") < r.trials {
                failing_cells += 1;
            }
        }
        assert!(failing_cells > 0, "intensity-3 chaos must break something");
    }

    #[test]
    fn e17_is_identical_across_thread_counts() {
        let (base, base_f) = fault_table(
            JobExperiment::E17,
            4,
            &[0, 2],
            1,
            2_000_000,
            &Sweep::sequential(),
        );
        for threads in [2, 4] {
            let (par, par_f) = fault_table(
                JobExperiment::E17,
                4,
                &[0, 2],
                1,
                2_000_000,
                &Sweep::with_threads(threads),
            );
            assert_eq!(par.table.render(), base.table.render(), "threads={threads}");
            assert_eq!(par_f.len(), base_f.len());
        }
    }

    #[test]
    fn tables_are_identical_across_thread_counts() {
        let tables = |sweep: &Sweep| {
            [
                e1_secretive_schedules(&[4, 9], 6, sweep).table,
                e5_wakeup_lower_bound(&[4, 16], sweep).table,
            ]
        };
        let base = tables(&Sweep::sequential());
        for threads in [2, 4, 8] {
            for (par, base) in tables(&Sweep::with_threads(threads)).iter().zip(&base) {
                assert_eq!(par.render(), base.render(), "threads={threads}");
                assert_eq!(par.render_json(), base.render_json());
            }
        }
    }
}
