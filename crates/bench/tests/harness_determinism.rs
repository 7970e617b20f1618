//! The harness's two load-bearing guarantees, checked end to end:
//!
//! 1. **Thread-count invariance** — every experiment's rendered table and
//!    JSON artifact are byte-identical whether the sweep runs on 1, 4, or
//!    8 worker threads. The committed `EXPERIMENTS.md` tables depend on
//!    this: `--threads` may only change wall-clock time, never output.
//! 2. **JSON round-trip** — the `{"tables":[…]}` artifact parses back to
//!    exactly the tables that produced it.
//!
//! The binary-level check, `llsc table e13` at 1, 4 and 8 threads, lives
//! with the other `llsc` command-line tests in the root `tests/cli.rs`.

use llsc_bench::harness::Sweep;
use llsc_bench::registry;
use llsc_bench::table::Table;

/// The registry's cheap tables, which together cover the sweep shapes
/// the harness uses: per-seed fan-out (E6), nested subset fan-out (E4,
/// E13), and per-schedule fan-out (E14). Per-config (E1) and
/// per-(alg, n) (E5) fan-out are checked at small sizes by
/// `experiments`' own `tables_are_identical_across_thread_counts`.
fn fast_experiments(sweep: &Sweep) -> Vec<Table> {
    ["e4", "e6", "e13", "e14"]
        .into_iter()
        .flat_map(|id| registry::find(id).unwrap().run(sweep, None).0)
        .collect()
}

#[test]
fn experiments_are_thread_count_invariant() {
    let baseline = fast_experiments(&Sweep::sequential());
    for threads in [4, 8] {
        let tables = fast_experiments(&Sweep::with_threads(threads));
        assert_eq!(tables.len(), baseline.len());
        for (got, want) in tables.iter().zip(&baseline) {
            assert_eq!(
                got.render(),
                want.render(),
                "table `{}` differs at {threads} threads",
                want.title()
            );
            assert_eq!(
                got.render_json(),
                want.render_json(),
                "JSON for `{}` differs at {threads} threads",
                want.title()
            );
        }
    }
}

#[test]
fn json_artifact_round_trips() {
    let tables = fast_experiments(&Sweep::with_threads(2));
    let refs: Vec<&Table> = tables.iter().collect();
    let artifact = Table::render_json_artifact(&refs);
    let parsed = Table::from_json_artifact(&artifact).expect("artifact parses");
    assert_eq!(parsed.len(), tables.len());
    for (got, want) in parsed.iter().zip(&tables) {
        assert_eq!(got.title(), want.title());
        assert_eq!(got.headers(), want.headers());
        assert_eq!(got.rows(), want.rows());
        assert_eq!(got.render(), want.render());
    }
    // Re-rendering the parsed tables reproduces the artifact byte for byte.
    let reparsed_refs: Vec<&Table> = parsed.iter().collect();
    assert_eq!(Table::render_json_artifact(&reparsed_refs), artifact);
}
