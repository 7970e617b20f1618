//! `llsc` — the command-line front end of the reproduction.
//!
//! ```text
//! llsc wakeup    --alg tournament-wakeup --n 64        Theorem 6.1 driver
//! llsc trace     --alg counter-wakeup    --n 4         round-by-round trace
//! llsc stress    --alg counter-wakeup    --n 6         partial-schedule sweep
//! llsc indist    --alg bitset-wakeup     --n 5         Lemma 5.2, all subsets
//! llsc secretive --n 8 [--seed 7]                      Section-4 schedules
//! llsc universal --n 64 [--imp adt|naive|herlihy|direct] [--schedule adversary|rr|seq]
//! llsc table     e4 [--threads 4] [--json e4.json]      regenerate a published table
//! llsc bench     [--backend atomic] [--out e18.json]    E18 on both backends
//! llsc bench e20 [--backend atomic] [--out e20.json]    E20 on real threads
//! llsc replay    repro.json                             re-execute a repro case
//! llsc shrink    repro.json [--out min.json]            minimize a repro case
//! llsc job       run|resume|status --dir <d> [...]      checkpointed sweep jobs
//! llsc list                                            algorithms and experiments
//! ```
//!
//! Every subcommand except `bench` is deterministic; `--seed` selects toss
//! assignments or random configurations where applicable. The heavy
//! subcommands (`stress`, `indist`) also take `--threads N` — a
//! deterministic parallel fan-out whose output is byte-identical at any
//! thread count — and, along with `wakeup`, `--json PATH` to write the
//! result as the same `{"tables":[…]}` artifact `llsc table` produces.

use llsc_lowerbound::bench::harness::HarnessOpts;
use llsc_lowerbound::bench::registry::{self, REGISTRY};
use llsc_lowerbound::bench::repro::{run_case, shrink_case};
use llsc_lowerbound::bench::table::Table;
use llsc_lowerbound::bench::xcheck::{
    e18_bench, e20_bench, xcheck_universal, xcheck_wakeup, BackendKind, XcheckConfig, E18_MAX_STEPS,
};
use llsc_lowerbound::core::{
    build_all_run, flow_report, indist_all_subsets, is_secretive, random_move_config,
    secretive_complete_schedule, standard_portfolio, stress_wakeup, trace_all_run,
    verify_lower_bound, AdversaryConfig, MoveConfig,
};
use llsc_lowerbound::objects::FetchIncrement;
use llsc_lowerbound::shmem::{
    Algorithm, ProcessId, RegisterId, ReproCase, ScheduleSpec, SeededTosses, Sweep, TossAssignment,
    ZeroTosses,
};
use llsc_lowerbound::universal::{
    measure, AdtTreeUniversal, CombiningTreeUniversal, DirectLlSc, HerlihyUniversal, MeasureConfig,
    ObjectImplementation, ScheduleKind,
};
use llsc_lowerbound::wakeup::{
    correct_algorithms, hardened_algorithms, randomized_algorithms, recoverable_algorithms,
    strawman_algorithms,
};
use std::collections::BTreeMap;
use std::fmt::Display;
use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::Arc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    // The job subcommand takes a positional action, maps job outcomes to
    // its own exit codes (0 complete, 1 incomplete, 130 interrupted), and
    // installs signal handlers — handle it before the generic dispatch.
    if cmd == "job" {
        return cmd_job(rest);
    }
    // The table subcommand takes a positional id and the harness's flags.
    if cmd == "table" {
        return cmd_table(rest);
    }
    // The repro subcommands take a positional file before any flags, and
    // bench an optional experiment id.
    if matches!(cmd.as_str(), "replay" | "shrink" | "bench") {
        let result = match cmd.as_str() {
            "replay" => cmd_replay(rest),
            "shrink" => cmd_shrink(rest),
            _ => cmd_bench(rest),
        };
        return match result {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let result = match SUBCOMMAND_FLAGS.iter().find(|(name, _)| name == cmd) {
        Some((name, allowed)) => parse_opts(rest, name, allowed)
            .map_err(Failure::Usage)
            .and_then(|opts| match *name {
                "wakeup" => cmd_wakeup(&opts),
                "trace" => cmd_trace(&opts),
                "stress" => cmd_stress(&opts),
                "indist" => cmd_indist(&opts),
                "secretive" => cmd_secretive(&opts),
                "universal" => cmd_universal(&opts),
                "xcheck" => cmd_xcheck(&opts),
                _ => cmd_list(),
            }),
        None if matches!(cmd.as_str(), "help" | "--help" | "-h") => {
            println!("{USAGE}");
            Ok(())
        }
        None => Err(Failure::Usage(format!("unknown subcommand `{cmd}`"))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(Failure::Usage(e)) => {
            eprintln!("error: {e}\n\n{USAGE}");
            ExitCode::from(2)
        }
        Err(Failure::Failed(e)) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Why a generic subcommand stopped: misuse — a bad, missing or unknown
/// argument — exits 2 after the usage text; a run or check that failed
/// exits 1 without it.
enum Failure {
    Usage(String),
    Failed(String),
}

/// The argument parsers' errors are misuse.
impl From<String> for Failure {
    fn from(e: String) -> Failure {
        Failure::Usage(e)
    }
}

const USAGE: &str = "usage: llsc <subcommand> [options]

subcommands:
  wakeup     --alg <name> --n <N> [--seed <s>]   run the Theorem 6.1 driver
  trace      --alg <name> --n <N> [--seed <s>]   print the (All, A)-run
  stress     --alg <name> --n <N> [--seed <s>]   partial-schedule stress sweep
  indist     --alg <name> --n <N> [--seed <s>]   Lemma 5.2, exhaustive subsets
  secretive  --n <N> [--seed <s>]                Section-4 schedule demo
  universal  --n <N> [--imp <i>] [--schedule <k>] measure a construction
  xcheck     [--alg <name>] [--imp <i>] [--n <N>] cross-validate the simulator
             [--trials <K>] [--safety-only]       against the hardware (atomics)
                                                  backend: every hardware
                                                  history must be safe and its
                                                  costs inside a simulator-
                                                  derived envelope
                                                  (--safety-only demotes the
                                                  count check to advisory, for
                                                  polling constructions)
  table      <id> [--threads <T>] [--json <p>]    regenerate a published table
             [--seed <s>]                         (ids: `llsc list`); fault tables
             [--trial-timeout-ms <MS>]            also take --max-events; exits
             [--repro-dir <d>] [--max-events <N>] 1 on a failed trial, 2 on misuse
  bench      [e18] [--backend sim|atomic|both]    E18 throughput/latency on a
             [--ns 2,4] [--samples <K>]           chosen execution backend
             [--out <p>]
  bench e20  [--backend sim|atomic|both]          E20's chaos plans on the
             [--n <N>] [--intensities 0,2,4]      simulator and on real
             [--trials <K>] [--out <p>]           threads, with sim-vs-hardware
             [--respawn-budget <B>]               divergence; either bench
                                                  records a failed case, runs
                                                  the rest and exits nonzero,
                                                  and writes a file only with
                                                  --out
  replay     <file>                               re-execute a repro case and
                                                  compare against its recorded
                                                  outcome (nonzero on diverge)
  shrink     <file> [--out <p>] [--log <p>]       delta-debug a repro case to a
                                                  minimal reproducer with the
                                                  same failure class
                                                  [--max-replays <k>]
  job run    --dir <d> --experiment <id>          start a checkpointed,
             (id: e4 e6 e13 e15 e16 e17 e19 e20)  resumable sweep job over
             [--ns 4,6] [--toss-seeds 0,1,42]     `llsc table <id>`'s grid;
             [--samples <K>] [--chunks <C>]       after every chunk the
             [--seed <s>]                         results are persisted
             [--chunk-timeout-ms <MS>]            atomically, so a killed job
             [--max-events <N>] [--threads <T>]   loses at most one chunk
                                                  (SIGINT/SIGTERM flush a
                                                  final checkpoint); each
                                                  chunk runs once, and a
                                                  failed one is re-run by
                                                  `job resume`
             [--intensities 0,1,2,4]              fault-table grid axis: k,
                                                  f or chaos intensity
             [--recovery-delay <D>]               e19/e20 recovery knobs, part
             [--respawn-budget <B>]               of the job fingerprint (0
                                                  keeps the default regime)
  job resume --dir <d> [--threads <T>]            continue from the newest
                                                  valid checkpoint, re-running
                                                  every missing or failed
                                                  chunk; the final
                                                  artifact is byte-identical
                                                  to an uninterrupted run at
                                                  any thread count
  job status --dir <d>                            report progress without
                                                  executing anything
             (job exit codes: 0 complete, 1 incomplete with a partial
              artifact and populated manifest, 130 interrupted, 2 error)
  list                                            algorithm / experiment /
                                                  backend registry

options:
  --alg       an algorithm name from `llsc list`
  --n         number of processes (default 8)
  --seed      toss-assignment / configuration seed (default: deterministic)
  --threads   worker threads for stress/indist sweeps (default 1;
              output is byte-identical at any thread count)
  --json      write the result as a {\"tables\":[...]} artifact
              (wakeup, stress, indist)
  --imp       adt | naive | herlihy | direct       (default adt)
  --schedule  adversary | rr | seq | random        (default adversary)";

struct Opts {
    flags: BTreeMap<String, String>,
}

impl Opts {
    fn n(&self) -> Result<usize, String> {
        match self.flags.get("n") {
            None => Ok(8),
            Some(v) => v.parse().map_err(|_| format!("bad --n value `{v}`")),
        }
    }

    fn seed(&self) -> Result<Option<u64>, String> {
        match self.flags.get("seed") {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("bad --seed value `{v}`")),
        }
    }

    fn toss(&self) -> Result<Arc<dyn TossAssignment>, String> {
        Ok(match self.seed()? {
            Some(s) => Arc::new(SeededTosses::new(s)),
            None => Arc::new(ZeroTosses),
        })
    }

    fn threads(&self) -> Result<usize, String> {
        match self.flags.get("threads") {
            None => Ok(1),
            Some(v) => v
                .parse::<usize>()
                .ok()
                .filter(|&t| t >= 1)
                .ok_or_else(|| format!("bad --threads value `{v}`")),
        }
    }

    /// `--key` as an integer of at least `min`, or `default` when absent.
    fn int<T: FromStr + PartialOrd + Display>(
        &self,
        key: &str,
        default: T,
        min: T,
    ) -> Result<T, String> {
        match self.flags.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .ok()
                .filter(|x| *x >= min)
                .ok_or_else(|| format!("bad --{key} value `{v}` (an integer >= {min})")),
        }
    }

    /// `--key` as a non-empty comma-separated list of integers, each at
    /// least `min`, or `default` when absent.
    fn list(&self, key: &str, default: &[usize], min: usize) -> Result<Vec<usize>, String> {
        let Some(list) = self.flags.get(key) else {
            return Ok(default.to_vec());
        };
        list.split(',')
            .map(|s| s.trim().parse().ok().filter(|&x| x >= min))
            .collect::<Option<Vec<usize>>>()
            .filter(|xs| !xs.is_empty())
            .ok_or_else(|| {
                format!("bad --{key} value `{list}` (comma-separated integers >= {min})")
            })
    }

    fn sweep(&self) -> Result<Sweep, String> {
        Ok(Sweep::with_threads(self.threads()?))
    }

    fn json(&self) -> Option<PathBuf> {
        self.flags.get("json").map(PathBuf::from)
    }

    /// Writes the subcommand's result tables as a `{"tables":[…]}`
    /// artifact when `--json` was given — the same schema `llsc table`
    /// emits.
    fn emit_json(&self, tables: &[&Table]) -> Result<(), Failure> {
        if let Some(path) = self.json() {
            let artifact = Table::render_json_artifact(tables);
            llsc_lowerbound::shmem::atomic_write(&path, artifact)
                .map_err(|e| Failure::Failed(format!("cannot write {}: {e}", path.display())))?;
            eprintln!("wrote {}", path.display());
        }
        Ok(())
    }

    fn alg(&self) -> Result<Box<dyn Algorithm>, String> {
        let name = self
            .flags
            .get("alg")
            .ok_or_else(|| "missing --alg (see `llsc list`)".to_string())?;
        all_algorithms()
            .into_iter()
            .find(|a| a.name() == name)
            .ok_or_else(|| format!("unknown algorithm `{name}` (see `llsc list`)"))
    }
}

/// Flags that take no value (presence alone is the setting).
const BARE_FLAGS: &[&str] = &["safety-only"];

/// The generic subcommands and the flags each one reads.
const SUBCOMMAND_FLAGS: &[(&str, &[&str])] = &[
    ("wakeup", &["alg", "n", "seed", "json"]),
    ("trace", &["alg", "n", "seed"]),
    ("stress", &["alg", "n", "seed", "threads", "json"]),
    ("indist", &["alg", "n", "seed", "threads", "json"]),
    ("secretive", &["n", "seed"]),
    ("universal", &["n", "imp", "schedule", "seed"]),
    ("xcheck", &["alg", "imp", "n", "trials", "safety-only"]),
    ("list", &[]),
];

/// Parses `--key value` pairs (and the bare flags) for `llsc <cmd>`,
/// rejecting any flag outside `allowed`, the ones `cmd` reads: a
/// misspelled or retired flag is an error, never silently dropped.
fn parse_opts(args: &[String], cmd: &str, allowed: &[&str]) -> Result<Opts, String> {
    let mut flags = BTreeMap::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let Some(key) = arg.strip_prefix("--") else {
            return Err(format!("unexpected argument `{arg}`"));
        };
        if !allowed.contains(&key) {
            return Err(format!("unknown flag: `llsc {cmd}` takes no --{key}"));
        }
        if BARE_FLAGS.contains(&key) {
            flags.insert(key.to_string(), String::new());
            continue;
        }
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        flags.insert(key.to_string(), value.clone());
    }
    Ok(Opts { flags })
}

fn all_algorithms() -> Vec<Box<dyn Algorithm>> {
    correct_algorithms()
        .into_iter()
        .chain(randomized_algorithms())
        .chain(hardened_algorithms())
        .chain(recoverable_algorithms())
        .chain(strawman_algorithms())
        .collect()
}

fn cmd_list() -> Result<(), Failure> {
    println!("execution backends:");
    for (name, what) in [
        ("sim", "deterministic discrete-event simulator"),
        ("atomic", "OS threads over CAS-built LL/SC (llsc-atomics)"),
    ] {
        println!("  {name:<24} {what}");
    }
    #[allow(clippy::type_complexity)]
    let sections: [(&str, Vec<Box<dyn Algorithm>>, &str); 5] = [
        (
            "correct wakeup algorithms",
            correct_algorithms(),
            "sim, atomic",
        ),
        (
            "randomized wakeup algorithms",
            randomized_algorithms(),
            "sim, atomic",
        ),
        (
            "fault-hardened wakeup algorithms",
            hardened_algorithms(),
            "sim, atomic",
        ),
        // Crash-recovery runs on both backends: the simulator's
        // CrashDriver kills and revives virtual processes,
        // and the hardware supervisor (llsc-atomics) kills the victim's
        // OS thread and respawns it against the shared memory image
        // under a bounded respawn budget. The recoverable mutex returns
        // lock tokens, not wakeup bits — it is exercised by E19/E20 and
        // the repro subcommands, not the Theorem 6.1 driver.
        (
            "crash-recoverable algorithms (E19/E20)",
            recoverable_algorithms(),
            "sim, atomic",
        ),
        // The strawmen exist to be refuted by the deterministic
        // Theorem 6.1 driver; the hardware backend cannot replay the
        // adversary's counterexample schedule.
        (
            "strawmen (deliberately broken)",
            strawman_algorithms(),
            "sim",
        ),
    ];
    for (title, algorithms, backends) in sections {
        println!("{title} (any --n >= 2):");
        for a in algorithms {
            println!("  {:<24} backends: {backends}", a.name());
        }
    }
    println!("universal constructions (--imp, any --n >= 2):");
    for (key, what) in [
        ("adt", "oblivious combining tree, Theta(log n)"),
        ("naive", "combining tree baseline"),
        ("herlihy", "announce-and-help, Theta(n)"),
        ("direct", "non-oblivious LL/SC loop, O(1) uncontended"),
    ] {
        println!("  {key:<24} backends: sim, atomic  ({what})");
    }
    println!("experiments (`llsc table <id>`, see EXPERIMENTS.md):");
    for entry in REGISTRY {
        println!("  {:<24} backends: sim          {}", entry.id, entry.about);
    }
    println!("experiments on real threads:");
    for (id, what, backends) in [
        (
            "e18",
            "`llsc bench`: real-contention throughput",
            "sim, atomic",
        ),
        (
            "e20",
            "`llsc bench e20`: E20's chaos plans on real threads",
            "sim + atomic",
        ),
        (
            "xcheck",
            "`llsc xcheck`: simulator vs hardware cross-validation",
            "sim + atomic",
        ),
    ] {
        println!("  {id:<24} backends: {backends:<12} {what}");
    }
    Ok(())
}

/// `llsc table <id> [flags]`: runs one registry entry through the shared
/// harness. A failed trial exits 1; a usage error exits 2.
fn cmd_table(args: &[String]) -> ExitCode {
    let run = || -> Result<ExitCode, String> {
        let (id, flags) = args
            .split_first()
            .ok_or("table needs an experiment id (see `llsc list`)")?;
        let entry = registry::find(id)?;
        entry.emit(&HarnessOpts::parse(flags.iter().cloned())?)
    };
    run().unwrap_or_else(|e| {
        eprintln!(
            "error: {e}\n\nusage: llsc table <id> [--threads N] [--json PATH] [--max-events N] \
             [--seed S] [--trial-timeout-ms MS] [--repro-dir DIR]"
        );
        ExitCode::from(2)
    })
}

fn cmd_xcheck(opts: &Opts) -> Result<(), Failure> {
    let n = opts.int("n", 4, 2)?;
    let trials = opts.int("trials", 8, 1)?;
    let cfg = XcheckConfig {
        n,
        trials,
        // Polling constructions (the adt tree parks followers on a
        // spin loop) have schedule-dependent counts on real threads;
        // --safety-only keeps the history checks and demotes the
        // count envelope to advisory.
        check_envelope: !opts.flags.contains_key("safety-only"),
        ..XcheckConfig::default()
    };
    let mut reports = Vec::new();
    // With neither --alg nor --imp, cross-validate one of each — a
    // wakeup algorithm and a universal construction.
    let default_both = !opts.flags.contains_key("alg") && !opts.flags.contains_key("imp");
    if opts.flags.contains_key("alg") || default_both {
        let alg = if default_both {
            all_algorithms()
                .into_iter()
                .find(|a| a.name() == "counter-wakeup")
                .expect("counter-wakeup is registered")
        } else {
            opts.alg()?
        };
        reports.push(
            xcheck_wakeup(alg.as_ref(), &cfg)
                .map_err(|e| Failure::Failed(format!("xcheck wakeup failed: {e}")))?,
        );
    }
    if opts.flags.contains_key("imp") || default_both {
        let spec = Arc::new(FetchIncrement::new(32));
        let imp = universal_imp(opts, &spec, if default_both { "direct" } else { "adt" })?;
        let ops = vec![FetchIncrement::op(); n];
        reports.push(
            xcheck_universal(imp.as_ref(), spec.as_ref(), &ops, &cfg)
                .map_err(|e| Failure::Failed(format!("xcheck universal failed: {e}")))?,
        );
    }
    let mut failed = false;
    for report in &reports {
        print!("{}", report.render());
        failed |= !report.ok;
    }
    if failed {
        return Err(Failure::Failed(
            "cross-validation FAILED: the backends disagree".into(),
        ));
    }
    Ok(())
}

/// `llsc bench [e18|e20] [flags]`: the experiments that time or run real
/// threads (E18 when no id is given). Artifacts are written only with
/// `--out`.
fn cmd_bench(args: &[String]) -> Result<(), String> {
    let (id, flags) = match args.split_first() {
        Some((id, rest)) if !id.starts_with("--") => (id.as_str(), rest),
        _ => ("e18", args),
    };
    let allowed: &[&str] = match id {
        "e18" => &["backend", "ns", "samples", "out"],
        "e20" => &[
            "backend",
            "n",
            "intensities",
            "trials",
            "respawn-budget",
            "out",
        ],
        other => return Err(format!("unknown bench `{other}` (e18|e20)")),
    };
    let opts = parse_opts(flags, &format!("bench {id}"), allowed)?;
    let backends = match opts
        .flags
        .get("backend")
        .map(String::as_str)
        .unwrap_or("both")
    {
        "both" => vec![BackendKind::Sim, BackendKind::Atomic],
        one => vec![BackendKind::parse(one)
            .ok_or_else(|| format!("unknown --backend `{one}` (sim|atomic|both)"))?],
    };
    let (artifact, failed) = if id == "e18" {
        let ns = opts.list("ns", &[2, 4], 1)?;
        let samples = opts.int("samples", 5, 1)?;
        let bench = e18_bench(&backends, &ns, samples, E18_MAX_STEPS);
        for row in &bench.rows {
            println!("{row}");
        }
        for f in &bench.failures {
            let backend = f.backend.name();
            eprintln!(
                "e18 {} backend={backend} n={} FAILED: {}",
                f.workload, f.n, f.error
            );
        }
        (bench.render_json(), bench.failures.len())
    } else {
        let respawn_budget = opts
            .flags
            .get("respawn-budget")
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("bad --respawn-budget value `{v}`"))
            })
            .transpose()?;
        let bench = e20_bench(
            &backends,
            opts.int("n", 4, 2)?,
            &opts.list("intensities", &[0, 2, 4], 0)?,
            opts.int("trials", 3, 1)?,
            respawn_budget,
        );
        for row in &bench.rows {
            println!("{row}");
        }
        let diverged = bench.divergence().count();
        if diverged > 0 {
            eprintln!("{diverged} cell(s) diverged between backends (recorded in the artifact)");
        }
        (bench.render_json(), bench.failures().count())
    };
    if let Some(out) = opts.flags.get("out") {
        llsc_lowerbound::shmem::atomic_write(std::path::Path::new(out), artifact)
            .map_err(|e| format!("cannot write {out}: {e}"))?;
        eprintln!("wrote {out}");
    }
    if failed > 0 {
        return Err(format!("{failed} {} case(s) failed", id.to_uppercase()));
    }
    Ok(())
}

/// Resolves the `--imp` flag (with `default` when absent) against the
/// universal-construction registry.
fn universal_imp(
    opts: &Opts,
    spec: &Arc<FetchIncrement>,
    default: &str,
) -> Result<Box<dyn ObjectImplementation>, String> {
    Ok(
        match opts.flags.get("imp").map(String::as_str).unwrap_or(default) {
            "adt" => Box::new(AdtTreeUniversal::new(spec.clone())),
            "naive" => Box::new(CombiningTreeUniversal::new(spec.clone())),
            "herlihy" => Box::new(HerlihyUniversal::new(spec.clone())),
            "direct" => Box::new(DirectLlSc::new(spec.clone())),
            other => return Err(format!("unknown --imp `{other}`")),
        },
    )
}

fn cmd_wakeup(opts: &Opts) -> Result<(), Failure> {
    let alg = opts.alg()?;
    let n = opts.n()?;
    // A refutation rebuilds the detailed runs it needs, so the measured
    // run keeps only counters, verdicts and the latest UP sets.
    let rep = verify_lower_bound(
        alg.as_ref(),
        n,
        opts.toss()?,
        &AdversaryConfig::lightweight(),
    )
    .map_err(|e| Failure::Failed(format!("wakeup run failed: {e}")))?;
    println!("{rep}");
    println!("wakeup: {}", rep.wakeup);
    if let Some(refutation) = &rep.refutation {
        println!(
            "refuted: |S| = {}, winner-returns-1-in-(S,A)-run = {}, {} process(es) never step",
            refutation.s.len(),
            refutation.winner_returns_one_in_s_run,
            refutation.never_step.len()
        );
        for v in &refutation.violations {
            println!("  violation: {v}");
        }
    }
    let mut table = Table::new(
        "wakeup: Theorem 6.1 driver",
        [
            "algorithm",
            "n",
            "rounds",
            "winner steps",
            "max steps",
            "log4(n)",
            "bound",
        ],
    );
    table.row([
        rep.algorithm.clone(),
        rep.n.to_string(),
        rep.rounds.to_string(),
        rep.winner_steps.to_string(),
        rep.max_steps.to_string(),
        format!("{:.2}", rep.log4_n),
        if rep.bound_holds { "HOLDS" } else { "REFUTED" }.to_string(),
    ]);
    opts.emit_json(&[&table])?;
    Ok(())
}

fn cmd_trace(opts: &Opts) -> Result<(), Failure> {
    let alg = opts.alg()?;
    let n = opts.n()?;
    let all = build_all_run(alg.as_ref(), n, opts.toss()?, &AdversaryConfig::default())
        .map_err(|e| Failure::Failed(format!("trace run failed: {e}")))?;
    print!("{}", trace_all_run(&all, 50));
    Ok(())
}

fn cmd_stress(opts: &Opts) -> Result<(), Failure> {
    let alg = opts.alg()?;
    let n = opts.n()?;
    let sweep = opts.sweep()?;
    let report = stress_wakeup(
        alg.as_ref(),
        n,
        opts.toss()?,
        &standard_portfolio(n, 5),
        5_000_000,
        &sweep,
    )
    .map_err(|e| Failure::Failed(format!("stress run failed: {e}")))?;
    println!("{report}");
    for f in &report.failures {
        println!("  under {}:", f.schedule);
        for v in &f.violations {
            println!("    {v}");
        }
    }
    let mut table = Table::new(
        "stress: partial-schedule sweep",
        ["algorithm", "n", "schedules", "passed", "failures"],
    );
    table.row([
        alg.name().to_string(),
        n.to_string(),
        report.schedules_tried.to_string(),
        report.passed.to_string(),
        report.failures.len().to_string(),
    ]);
    opts.emit_json(&[&table])?;
    Ok(())
}

fn cmd_indist(opts: &Opts) -> Result<(), Failure> {
    let alg = opts.alg()?;
    let n = opts.n()?;
    if n > 12 {
        return Err(Failure::Usage(
            "indist enumerates all 2^n subsets; use --n <= 12".into(),
        ));
    }
    let toss = opts.toss()?;
    let cfg = AdversaryConfig::default();
    let sweep = opts.sweep()?;
    let report = indist_all_subsets(alg.as_ref(), n, toss, &cfg, true, &sweep)
        .map_err(|e| Failure::Failed(format!("indist run failed: {e}")))?;
    if !report.ok() {
        for v in &report.violations {
            println!("VIOLATION for {v}");
        }
        return Err(Failure::Failed("indistinguishability violated".into()));
    }
    println!(
        "Lemma 5.2 + appendix claims: all {} subsets pass ({} comparisons, {} claim instances, 0 violations)",
        report.subsets, report.comparisons, report.claim_instances
    );
    let mut table = Table::new(
        "indist: Lemma 5.2 over all subsets",
        [
            "algorithm",
            "n",
            "subsets",
            "comparisons",
            "claim instances",
            "violations",
        ],
    );
    table.row([
        alg.name().to_string(),
        n.to_string(),
        report.subsets.to_string(),
        report.comparisons.to_string(),
        report.claim_instances.to_string(),
        report.violations.len().to_string(),
    ]);
    opts.emit_json(&[&table])?;
    Ok(())
}

fn cmd_secretive(opts: &Opts) -> Result<(), Failure> {
    let n = opts.n()?;
    let cfg = match opts.seed()? {
        None => {
            println!("the Section-4 chain: p_i moves R_i into R_(i+1)");
            MoveConfig::from_iter(
                (0..n).map(|i| (ProcessId(i), RegisterId(i as u64), RegisterId(i as u64 + 1))),
            )
        }
        Some(seed) => {
            println!("random move configuration (seed {seed})");
            random_move_config(n, (n as u64 / 2).max(2), seed)
        }
    };
    println!("config: {cfg}");
    let sigma = secretive_complete_schedule(&cfg);
    let names: Vec<String> = sigma.iter().map(ToString::to_string).collect();
    println!("secretive schedule: [{}]", names.join(", "));
    println!("is_secretive: {}", is_secretive(&sigma, &cfg));
    let mut worst = 0;
    // A complete schedule lands a move in every destination, so the flow
    // map's keys are exactly `cfg.destinations()`, in id order.
    for (r, (_, m)) in flow_report(&sigma, &cfg) {
        worst = worst.max(m.len());
        let ms: Vec<String> = m.iter().map(ToString::to_string).collect();
        println!("  movers({r}) = [{}]", ms.join(", "));
    }
    println!("worst movers-list length: {worst} (Lemma 4.1 cap: 2)");
    Ok(())
}

/// Splits the repro subcommands' leading positional `<file>` argument
/// from the flags that follow it (`cmd` reads `allowed`).
fn split_file_arg<'a>(
    rest: &'a [String],
    cmd: &str,
    allowed: &[&str],
) -> Result<(&'a String, Opts), String> {
    let Some((file, flags)) = rest.split_first() else {
        return Err("missing <file> argument (a repro case written by --repro-dir)".into());
    };
    if file.starts_with("--") {
        return Err(format!(
            "the repro file must come before flags, got `{file}`"
        ));
    }
    Ok((file, parse_opts(flags, cmd, allowed)?))
}

fn load_case(file: &str) -> Result<ReproCase, String> {
    let json = std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?;
    ReproCase::from_json(&json).map_err(|e| format!("{file}: {e}"))
}

fn cmd_replay(rest: &[String]) -> Result<(), String> {
    let (file, _opts) = split_file_arg(rest, "replay", &[])?;
    let case = load_case(file)?;
    let run = run_case(&case)?;
    println!(
        "case: experiment={} algorithm={} n={} size={}",
        case.experiment,
        case.algorithm,
        case.n,
        case.size()
    );
    if !case.outcome.is_empty() {
        println!("recorded: class={} outcome={}", case.class, case.outcome);
    }
    println!(
        "replayed: class={} outcome={}",
        run.class, run.outcome_debug
    );
    // A hardware case records the threads' outcome, which no simulator
    // outcome can equal; its class is what replay can confirm.
    let hardware = case.schedule == ScheduleSpec::Hardware;
    if !hardware && !case.outcome.is_empty() && run.outcome_debug != case.outcome {
        return Err(format!(
            "replay DIVERGED: recorded outcome `{}`, replayed `{}`",
            case.outcome, run.outcome_debug
        ));
    }
    if !case.class.is_empty() && run.class != case.class {
        return Err(format!(
            "replay DIVERGED: recorded class `{}`, replayed `{}`",
            case.class, run.class
        ));
    }
    if case.outcome.is_empty() && case.class.is_empty() {
        println!("no recorded outcome to compare against");
    } else if hardware {
        println!("replay matches the recorded class");
    } else {
        println!("replay matches the recorded outcome");
    }
    Ok(())
}

fn cmd_shrink(rest: &[String]) -> Result<(), String> {
    let (file, opts) = split_file_arg(rest, "shrink", &["max-replays", "log", "out"])?;
    let case = load_case(file)?;
    let budget = match opts.flags.get("max-replays") {
        None => 400,
        Some(v) => v
            .parse::<usize>()
            .ok()
            .filter(|&k| k >= 1)
            .ok_or_else(|| format!("bad --max-replays value `{v}`"))?,
    };
    let report = shrink_case(&case, budget)?;
    let mut log = String::new();
    for line in &report.log {
        eprintln!("{line}");
        log.push_str(line);
        log.push('\n');
    }
    let summary = format!(
        "shrunk size {} -> {} (class `{}`) in {} replay(s)",
        report.initial_size, report.final_size, report.case.class, report.replays
    );
    eprintln!("{summary}");
    log.push_str(&summary);
    log.push('\n');
    if let Some(path) = opts.flags.get("log") {
        llsc_lowerbound::shmem::atomic_write(std::path::Path::new(path), &log)
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    match opts.flags.get("out") {
        Some(path) => {
            llsc_lowerbound::shmem::atomic_write(std::path::Path::new(path), report.case.to_json())
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("wrote {path}");
        }
        None => print!("{}", report.case.to_json()),
    }
    Ok(())
}

fn cmd_universal(opts: &Opts) -> Result<(), Failure> {
    let n = opts.n()?;
    let spec = Arc::new(FetchIncrement::new(32));
    let imp = universal_imp(opts, &spec, "adt")?;
    let schedule = match opts
        .flags
        .get("schedule")
        .map(String::as_str)
        .unwrap_or("adversary")
    {
        "adversary" => ScheduleKind::Adversary,
        "rr" => ScheduleKind::RoundRobin,
        "seq" => ScheduleKind::Sequential,
        "random" => ScheduleKind::RandomInterleave {
            seed: opts.seed()?.unwrap_or(1),
        },
        other => return Err(Failure::Usage(format!("unknown --schedule `{other}`"))),
    };
    let cfg = MeasureConfig {
        check_linearizability: n <= 64,
        ..MeasureConfig::default()
    };
    let ops = vec![FetchIncrement::op(); n];
    let result = measure(imp.as_ref(), spec.as_ref(), n, &ops, schedule, &cfg)
        .map_err(|e| Failure::Failed(format!("universal run failed: {e}")))?;
    println!("{result}");
    println!("per-process ops: {:?}", result.per_process_ops);
    Ok(())
}

/// SIGINT/SIGTERM wiring for `llsc job`: the handler cancels the job's
/// token — one atomic store, so it is async-signal-safe — which turns the
/// in-flight trials into prompt panics the job runner classifies as an
/// interrupt and answers with a final checkpoint flush.
mod signals {
    use llsc_lowerbound::shmem::CancelToken;
    use std::sync::OnceLock;

    /// The running job's token, reachable from the handler.
    static JOB_TOKEN: OnceLock<CancelToken> = OnceLock::new();

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_signal(_sig: i32) {
        if let Some(token) = JOB_TOKEN.get() {
            token.cancel();
        }
    }

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    /// Installs the handlers for SIGINT and SIGTERM and returns the token
    /// they cancel.
    pub fn install() -> CancelToken {
        let token = JOB_TOKEN.get_or_init(CancelToken::new).clone();
        let handler = on_signal as extern "C" fn(i32) as usize;
        // SAFETY: `signal` is the C library's; `on_signal` has the
        // `void (*)(int)` signature it expects and only touches atomics
        // (the `OnceLock` state and the token's flag), which is
        // async-signal-safe.
        unsafe {
            signal(SIGINT, handler);
            signal(SIGTERM, handler);
        }
        token
    }
}

/// `llsc job run|resume|status` — the checkpointed, resumable front end
/// of the E4/E6/E13 sweeps and the E15/E16/E17/E19/E20 fault tables (see
/// `llsc_lowerbound::bench::job`).
fn cmd_job(args: &[String]) -> ExitCode {
    use llsc_lowerbound::bench::job::{
        job_exit_code, job_status, resume_job, run_job, JobControl, JobExperiment, JobSpec,
    };

    fn parse_job(args: &[String]) -> Result<(String, Opts), String> {
        let (action, rest) = args
            .split_first()
            .ok_or("job needs an action: run, resume, or status")?;
        let allowed: &[&str] = match action.as_str() {
            "run" => &[
                "dir",
                "experiment",
                "name",
                "seed",
                "samples",
                "recovery-delay",
                "respawn-budget",
                "chunk-timeout-ms",
                "max-events",
                "chunks",
                "ns",
                "toss-seeds",
                "intensities",
                "threads",
                "stop-after-chunks",
            ],
            "resume" => &["dir", "threads"],
            "status" => &["dir"],
            other => {
                return Err(format!(
                    "unknown job action `{other}` (run, resume, status)"
                ))
            }
        };
        Ok((
            action.clone(),
            parse_opts(rest, &format!("job {action}"), allowed)?,
        ))
    }

    fn spec_from(opts: &Opts) -> Result<JobSpec, String> {
        let tag = opts
            .flags
            .get("experiment")
            .ok_or("job run needs --experiment e4|e6|e13|e15|e16|e17|e19|e20")?;
        let mut spec = JobSpec::default_for(JobExperiment::parse(tag)?);
        if let Some(name) = opts.flags.get("name") {
            spec.name = name.clone();
        }
        let parse_u64 = |key: &str, target: &mut u64| -> Result<(), String> {
            if let Some(v) = opts.flags.get(key) {
                *target = v.parse().map_err(|_| format!("bad --{key} value `{v}`"))?;
            }
            Ok(())
        };
        parse_u64("seed", &mut spec.seed)?;
        parse_u64("samples", &mut spec.samples)?;
        parse_u64("recovery-delay", &mut spec.recovery_delay)?;
        parse_u64("respawn-budget", &mut spec.respawn_budget)?;
        parse_u64("chunk-timeout-ms", &mut spec.chunk_timeout_ms)?;
        parse_u64("max-events", &mut spec.max_events)?;
        if let Some(v) = opts.flags.get("chunks") {
            spec.chunks = v.parse().map_err(|_| format!("bad --chunks value `{v}`"))?;
        }
        let parse_list = |key: &str| -> Result<Option<Vec<u64>>, String> {
            match opts.flags.get(key) {
                None => Ok(None),
                Some(list) => list
                    .split(',')
                    .map(|v| {
                        v.trim()
                            .parse::<u64>()
                            .map_err(|_| format!("bad --{key} entry `{v}`"))
                    })
                    .collect::<Result<Vec<u64>, String>>()
                    .map(Some),
            }
        };
        if let Some(ns) = parse_list("ns")? {
            spec.ns = ns.into_iter().map(|n| n as usize).collect();
        }
        if let Some(seeds) = parse_list("toss-seeds")? {
            spec.toss_seeds = seeds;
        }
        if let Some(intensities) = parse_list("intensities")? {
            spec.intensities = intensities;
        }
        // Flags obey the same rules as a spec file.
        spec.validate()?;
        Ok(spec)
    }

    fn control_with_signals() -> JobControl {
        JobControl {
            cancel: signals::install(),
            ..JobControl::new()
        }
    }

    let run = || -> Result<u8, String> {
        let (action, opts) = parse_job(args)?;
        let dir = PathBuf::from(
            opts.flags
                .get("dir")
                .ok_or("job needs --dir <job directory>")?,
        );
        match action.as_str() {
            "run" => {
                let spec = spec_from(&opts)?;
                let mut control = control_with_signals();
                // Crash simulation for tests and smoke scripts: stop (as
                // if interrupted) after N chunks, deterministically.
                if let Some(v) = opts.flags.get("stop-after-chunks") {
                    control.stop_after_chunks = Some(
                        v.parse()
                            .map_err(|_| format!("bad --stop-after-chunks value `{v}`"))?,
                    );
                }
                let report = run_job(&dir, &spec, opts.threads()?, &control)?;
                report_summary(&report);
                Ok(job_exit_code(report.status))
            }
            "resume" => {
                let report = resume_job(&dir, opts.threads()?, &control_with_signals())?;
                report_summary(&report);
                Ok(job_exit_code(report.status))
            }
            _ => {
                print!("{}", job_status(&dir)?);
                Ok(0)
            }
        }
    };

    fn report_summary(report: &llsc_lowerbound::bench::job::JobReport) {
        for note in &report.fallback_notes {
            eprintln!("skipped invalid checkpoint: {note}");
        }
        for f in &report.failed {
            eprintln!(
                "chunk {} failed [{}]: {} ({})",
                f.chunk, f.kind, f.message, f.context
            );
        }
        eprintln!(
            "job {}: {}/{} chunk(s) complete, {} failed",
            report.status.tag(),
            report.completed_chunks,
            report.total_chunks,
            report.failed.len()
        );
        if let Some(path) = &report.artifact {
            eprintln!("wrote {}", path.display());
        }
    }

    match run() {
        Ok(code) => ExitCode::from(code),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
