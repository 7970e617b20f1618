//! The shared command-line harness behind `llsc table <id>` (see
//! [`crate::registry`]).
//!
//! Every table accepts the same two flags:
//!
//! * `--threads N` — fan the experiment's independent trials out over `N`
//!   worker threads (default 1). Output is **byte-identical** at every
//!   thread count: trials are merged in index order by the
//!   [`Sweep`] engine, and neither the tables nor the JSON artifacts
//!   embed the thread count.
//! * `--json PATH` — additionally write the printed tables as a
//!   `{"tables":[…]}` JSON artifact (see [`Table::render_json`]).
//!
//! Fault-injection tables additionally accept `--max-events N`, the
//! per-trial event budget (see [`HarnessOpts::max_events`]); the other
//! tables reject it. Panic-isolated trial failures are listed on stderr,
//! recorded in the JSON artifact's `"failures"` array, and turn the exit
//! code nonzero (see [`HarnessOpts::emit`]).
//!
//! Two flags tune the sweep itself:
//!
//! * `--seed S` — the sweep's base seed (default 0); per-trial seeds are
//!   derived deterministically, so two runs with the same seed are
//!   byte-identical at any `--threads`. Each trial runs once: a panicking
//!   trial is recorded as it happened, never re-run under another seed.
//! * `--trial-timeout-ms MS` — a per-trial wall-clock deadline converting
//!   hung trials into structured failures (default off; see
//!   [`llsc_shmem::Sweep::with_trial_timeout`]).
//!
//! `--repro-dir DIR` additionally writes each failure's attached
//! [`llsc_shmem::ReproCase`] to `DIR/repro-trial<index>.json`, feeding
//! the `llsc replay` and `llsc shrink` subcommands.
//!
//! Running an experiment is two lines:
//!
//! ```no_run
//! use llsc_bench::{harness::HarnessOpts, registry};
//! let opts = HarnessOpts::parse(["--threads", "4"]).unwrap();
//! opts.emit(|sweep| registry::find("e3").unwrap().run(sweep, None));
//! ```

use crate::table::Table;
pub use llsc_shmem::{Sweep, Trial, TrialFailure};
use std::path::PathBuf;
use std::process::ExitCode;

/// One experiment's output: the rendered table plus the typed rows behind
/// it (tests assert on the rows; the harness prints and serialises the
/// table).
#[derive(Clone, Debug)]
pub struct Experiment<R> {
    /// The rendered table.
    pub table: Table,
    /// The typed measurements, one per table row (or per logical unit).
    pub rows: Vec<R>,
}

/// The parsed common flags of `llsc table`.
#[derive(Clone, Debug, Default)]
pub struct HarnessOpts {
    /// Worker threads for the experiment's sweeps (default 1).
    pub threads: usize,
    /// Where to write the JSON artifact, if requested.
    pub json: Option<PathBuf>,
    /// Per-trial event budget override (`--max-events N`). Experiments
    /// that inject faults pass this to [`llsc_shmem::ExecutorConfig`];
    /// starving it is the supported way to exercise the
    /// budget-exhaustion path end to end.
    pub max_events: Option<u64>,
    /// The sweep's base seed (`--seed S`, default 0). Every per-trial
    /// seed derives from it, so artifacts record everything needed to
    /// reproduce a run.
    pub seed: u64,
    /// Per-trial wall-clock deadline in milliseconds
    /// (`--trial-timeout-ms MS`, default off).
    pub trial_timeout_ms: Option<u64>,
    /// Where to write one repro-case file per trial failure
    /// (`--repro-dir DIR`, default off). Each failure that carries a
    /// serialized [`llsc_shmem::ReproCase`] lands in
    /// `DIR/repro-trial<index>.json`, ready for `llsc replay` /
    /// `llsc shrink`.
    pub repro_dir: Option<PathBuf>,
}

impl HarnessOpts {
    /// Parses the flags above from an argument list (without the program
    /// name or the table id).
    pub fn parse<I, S>(args: I) -> Result<HarnessOpts, String>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut opts = HarnessOpts {
            threads: 1,
            ..HarnessOpts::default()
        };
        let mut args = args.into_iter().map(Into::into);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--threads" => {
                    let v = args.next().ok_or("--threads needs a value")?;
                    opts.threads = v
                        .parse::<usize>()
                        .ok()
                        .filter(|&t| t >= 1)
                        .ok_or_else(|| format!("bad --threads value `{v}`"))?;
                }
                "--json" => {
                    let v = args.next().ok_or("--json needs a path")?;
                    opts.json = Some(PathBuf::from(v));
                }
                "--max-events" => {
                    let v = args.next().ok_or("--max-events needs a value")?;
                    opts.max_events = Some(
                        v.parse::<u64>()
                            .ok()
                            .filter(|&e| e >= 1)
                            .ok_or_else(|| format!("bad --max-events value `{v}`"))?,
                    );
                }
                "--seed" => {
                    let v = args.next().ok_or("--seed needs a value")?;
                    opts.seed = v
                        .parse::<u64>()
                        .map_err(|_| format!("bad --seed value `{v}`"))?;
                }
                "--trial-timeout-ms" => {
                    let v = args.next().ok_or("--trial-timeout-ms needs a value")?;
                    opts.trial_timeout_ms = Some(
                        v.parse::<u64>()
                            .ok()
                            .filter(|&ms| ms >= 1)
                            .ok_or_else(|| format!("bad --trial-timeout-ms value `{v}`"))?,
                    );
                }
                "--repro-dir" => {
                    let v = args.next().ok_or("--repro-dir needs a path")?;
                    opts.repro_dir = Some(PathBuf::from(v));
                }
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        Ok(opts)
    }

    /// The [`Sweep`] these options describe.
    pub fn sweep(&self) -> Sweep {
        let sweep = Sweep::with_threads(self.threads).seeded(self.seed);
        match self.trial_timeout_ms {
            Some(ms) => sweep.with_trial_timeout(std::time::Duration::from_millis(ms)),
            None => sweep,
        }
    }

    /// Runs an experiment body on [`HarnessOpts::sweep`] and emits its
    /// output under one failure contract.
    ///
    /// The body returns its tables and its panic-isolated trial failures.
    /// If the body itself panics (a sweep re-raising a trial failure, or
    /// an experiment-internal assertion), the panic becomes a single
    /// [`TrialFailure`] and no tables. Then the tables are printed, every
    /// failure is listed on stderr, each failure's repro case is written
    /// to `--repro-dir`, and with `--json` the
    /// `{"tables":[…],"failures":[…]}` artifact is written (the
    /// `failures` key is omitted when there are none). All files are
    /// written crash-safely (temp file + atomic rename,
    /// [`llsc_shmem::atomic_write`]), so an interrupted run never leaves
    /// a truncated artifact. Returns [`ExitCode::FAILURE`] iff any trial
    /// failed or a file could not be written; partial results are still
    /// emitted either way.
    pub fn emit(&self, build: impl FnOnce(&Sweep) -> (Vec<Table>, Vec<TrialFailure>)) -> ExitCode {
        let sweep = self.sweep();
        let (tables, failures) =
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| build(&sweep))) {
                Ok(output) => output,
                Err(panic) => {
                    let failure = TrialFailure {
                        index: 0,
                        seed: self.seed,
                        payload: llsc_shmem::panic_message(panic.as_ref()),
                        context: "experiment aborted; no tables were produced".to_string(),
                        repro: None,
                    };
                    (Vec::new(), vec![failure])
                }
            };
        for table in &tables {
            table.print();
        }
        for f in &failures {
            eprintln!("trial failure: {f}");
        }
        if let Some(dir) = &self.repro_dir {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("error: cannot create {}: {e}", dir.display());
                return ExitCode::FAILURE;
            }
            for f in &failures {
                let Some(repro) = &f.repro else { continue };
                let path = dir.join(format!("repro-trial{}.json", f.index));
                if let Err(e) = llsc_shmem::atomic_write(&path, repro) {
                    eprintln!("error: cannot write {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
                eprintln!("wrote {}", path.display());
            }
        }
        if let Some(path) = &self.json {
            let refs: Vec<&Table> = tables.iter().collect();
            let artifact = Table::render_json_artifact_with_failures(&refs, &failures);
            if let Err(e) = llsc_shmem::atomic_write(path, artifact) {
                eprintln!("error: cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            eprintln!("wrote {}", path.display());
        }
        if failures.is_empty() {
            ExitCode::SUCCESS
        } else {
            eprintln!("{} trial(s) failed", failures.len());
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_all_flags_in_any_order() {
        let args = "--json out.json --max-events 50 --seed 7 \
                    --trial-timeout-ms 250 --repro-dir repros --threads 4";
        let opts = HarnessOpts::parse(args.split_whitespace()).unwrap();
        assert_eq!(opts.threads, 4);
        assert_eq!(opts.json, Some(PathBuf::from("out.json")));
        assert_eq!(opts.repro_dir, Some(PathBuf::from("repros")));
        assert_eq!(opts.max_events, Some(50));
        assert_eq!(opts.seed, 7);
        assert_eq!(opts.trial_timeout_ms, Some(250));
        let sweep = opts.sweep();
        assert_eq!(sweep.threads, 4);
        assert_eq!(sweep.seed, 7);
        assert_eq!(
            sweep.trial_timeout,
            Some(std::time::Duration::from_millis(250))
        );
    }

    #[test]
    fn defaults_are_sequential_and_no_artifact() {
        let opts = HarnessOpts::parse(Vec::<String>::new()).unwrap();
        assert_eq!(opts.threads, 1);
        assert!(opts.json.is_none());
        assert!(opts.max_events.is_none());
        assert_eq!(opts.seed, 0);
        assert!(opts.trial_timeout_ms.is_none());
        assert!(opts.repro_dir.is_none());
        assert!(opts.sweep().trial_timeout.is_none());
    }

    #[test]
    fn rejects_bad_input() {
        assert!(HarnessOpts::parse(["--threads"]).is_err());
        assert!(HarnessOpts::parse(["--threads", "0"]).is_err());
        assert!(HarnessOpts::parse(["--threads", "x"]).is_err());
        assert!(HarnessOpts::parse(["--json"]).is_err());
        assert!(HarnessOpts::parse(["--max-events"]).is_err());
        assert!(HarnessOpts::parse(["--max-events", "0"]).is_err());
        assert!(HarnessOpts::parse(["--max-events", "lots"]).is_err());
        assert!(HarnessOpts::parse(["--seed"]).is_err());
        assert!(HarnessOpts::parse(["--seed", "-1"]).is_err());
        assert!(HarnessOpts::parse(["--retries", "1"]).is_err());
        assert!(HarnessOpts::parse(["--trial-timeout-ms", "0"]).is_err());
        assert!(HarnessOpts::parse(["--repro-dir"]).is_err());
        assert!(HarnessOpts::parse(["--frobnicate"]).is_err());
    }

    #[test]
    fn emit_with_failures_writes_artifact_and_fails() {
        let dir = std::env::temp_dir().join("llsc-bench-harness-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("failures.json");
        let opts = HarnessOpts {
            threads: 1,
            json: Some(path.clone()),
            repro_dir: Some(dir.join("repros")),
            ..HarnessOpts::default()
        };
        let mut t = Table::new("t", ["c"]);
        t.row(["1"]);
        let failures = vec![TrialFailure {
            index: 3,
            seed: 9,
            payload: "boom".into(),
            context: String::new(),
            repro: Some("{\"version\":\"1\"}\n".into()),
        }];
        let code = opts.emit(|_| (vec![t.clone()], failures));
        assert_eq!(code, ExitCode::FAILURE);
        let artifact = std::fs::read_to_string(&path).unwrap();
        assert!(artifact.contains("\"failures\""));
        assert!(artifact.contains("boom"));
        // The attached repro case landed in the requested directory.
        let repro = std::fs::read_to_string(dir.join("repros/repro-trial3.json")).unwrap();
        assert_eq!(repro, "{\"version\":\"1\"}\n");
        std::fs::remove_dir_all(dir.join("repros")).ok();
        assert_eq!(Table::from_json_artifact(&artifact).unwrap().len(), 1);
        // A clean emit through the same path succeeds and omits the key.
        assert_eq!(opts.emit(|_| (vec![t], vec![])), ExitCode::SUCCESS);
        let artifact = std::fs::read_to_string(&path).unwrap();
        assert!(!artifact.contains("failures"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn emit_guarded_converts_a_panicking_experiment_into_a_failure_artifact() {
        let dir = std::env::temp_dir().join("llsc-bench-guarded-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("guarded.json");
        let opts = HarnessOpts {
            json: Some(path.clone()),
            seed: 11,
            threads: 1,
            ..HarnessOpts::default()
        };

        let code = opts.emit(|_| panic!("trial 7 exploded"));
        assert_eq!(code, ExitCode::FAILURE);
        let artifact = std::fs::read_to_string(&path).unwrap();
        assert!(artifact.contains("\"failures\":[{\"trial\""));
        assert!(artifact.contains("trial 7 exploded"));
        assert!(artifact.contains("no tables were produced"));

        // A healthy build through the same path emits cleanly.
        let code = opts.emit(|_| {
            let mut t = Table::new("t", ["c"]);
            t.row(["1"]);
            (vec![t], vec![])
        });
        assert_eq!(code, ExitCode::SUCCESS);
        let artifact = std::fs::read_to_string(&path).unwrap();
        assert!(!artifact.contains("failures"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
