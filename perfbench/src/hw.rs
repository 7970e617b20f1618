//! The hardware backend's layers, measured in the `chaos-job` traced
//! run: simulator-vs-hardware cross-checks at `n = 2` on the CAS-built
//! LL/SC memory (`llsc-atomics`), its fault layer and crash supervisor,
//! and `objects::linearize`.
//!
//! No timed workload runs the hardware backend. A trial's latency hinges
//! on OS scheduling — the driver's 2 ms watchdog poll, and a respawned
//! crash victim whose peer has already returned waiting out the
//! supervisor's 50 000-yield stall limit (about 12.6 ms on a 2-vCPU
//! Xeon VM) — so cross-check timings spread 10–20% between runs with any
//! batching tried.

use crate::trace::Trace;
use llsc_atomics::{run_threads_watchdog, HwMemory};
use llsc_bench::xcheck::{run_hw_chaos, xcheck_universal, XcheckConfig};
use llsc_bench::{e20_algorithm, e20_case, E20_MAX_STEPS};
use llsc_objects::{is_linearizable, FetchIncrement, History, ObjectSpec};
use llsc_shmem::rng::split_mix;
use llsc_shmem::{
    run_sequential, ExecutionBackend, Operation, ProcessId, RegisterId, Response, SeededTosses,
    SimBackend, Value,
};
use llsc_universal::{
    AdtTreeUniversal, CombiningTreeUniversal, DirectLlSc, HerlihyUniversal, ImplAlgorithm,
    ObjectImplementation,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const N: usize = 2;
/// Hardware trials per construction and per chaos cell.
const TRIALS: usize = 16;
/// Chaos intensities of the E20 cases (0 must recover).
const INTENSITIES: [usize; 2] = [0, 2];
/// The simulator's event budget for a chaos case (as in `bench_e20`).
const SIM_MAX_EVENTS: u64 = 2_000_000;
/// The hardware trial deadline `xcheck` uses.
const DEADLINE: Duration = Duration::from_secs(60);

/// Constructions cross-checked, and whether their count envelope is
/// checked: the polling adt tree is judged on safety only, as
/// `llsc xcheck --safety-only` documents.
const CONSTRUCTIONS: [(&str, bool); 4] = [
    ("direct", true),
    ("naive", true),
    ("herlihy", true),
    ("adt", false),
];

fn construction(name: &str, spec: &Arc<dyn ObjectSpec>) -> Box<dyn ObjectImplementation> {
    match name {
        "direct" => Box::new(DirectLlSc::new(spec.clone())),
        "naive" => Box::new(CombiningTreeUniversal::new(spec.clone())),
        "herlihy" => Box::new(HerlihyUniversal::new(spec.clone())),
        _ => Box::new(AdtTreeUniversal::new(spec.clone())),
    }
}

/// The concurrent history of one hardware run, from the driver's clock
/// stamps (as `xcheck` builds it).
fn history(run: &llsc_atomics::HwRun, ops: &[Value]) -> History {
    let mut stamps: Vec<(u64, usize, bool)> = run
        .results
        .iter()
        .flat_map(|r| {
            [
                (r.invoked_at, r.pid.0, true),
                (r.responded_at, r.pid.0, false),
            ]
        })
        .collect();
    stamps.sort_unstable();
    let mut h = History::new();
    let mut ids = vec![None; run.results.len()];
    for (_, pid, invoke) in stamps {
        if invoke {
            ids[pid] = Some(h.invoke(ProcessId(pid), ops[pid].clone()));
        } else if let Some(id) = ids[pid] {
            h.respond(id, run.results[pid].response.clone());
        }
    }
    h
}

/// `xcheck_universal`'s steps one call at a time: the simulator envelope,
/// then each hardware trial (toss seed `trial + 1`) and its history check.
fn cross_check(
    imp: &dyn ObjectImplementation,
    spec: &dyn ObjectSpec,
    check: bool,
    trace: &mut Trace,
) -> Result<(), String> {
    let ops = vec![FetchIncrement::op(); N];
    let config = XcheckConfig {
        n: N,
        trials: 0,
        check_envelope: check,
        ..XcheckConfig::default()
    };
    let envelope = trace
        .span("xcheck.sim_envelope", || {
            xcheck_universal(imp, spec, &ops, &config)
        })
        .map_err(|e| format!("{}: {e}", imp.name()))?;
    let ((lo, hi), (dlo, dhi)) = (envelope.accept, envelope.dsm_accept);
    let alg = ImplAlgorithm::new(imp, &ops);
    for trial in 0..TRIALS {
        let tosses = Arc::new(SeededTosses::new(trial as u64 + 1));
        let mem = HwMemory::for_algorithm(&alg, N, tosses);
        let run = trace
            .span("atomics.driver.trial", || {
                run_threads_watchdog(&alg, &mem, config.max_steps, DEADLINE)
            })
            .map_err(|e| format!("{}: hardware backend: {e}", imp.name()))?;
        let h = history(&run, &ops);
        let safe = trace.span("objects.linearize", || is_linearizable(spec, &h));
        trace.add("objects.linearize.histories", 1);
        trace.add("atomics.driver.ops", run.max_ops());
        let in_envelope =
            (lo..=hi).contains(&run.max_ops()) && (dlo..=dhi).contains(&run.max_dsm_rmrs());
        trace.add("xcheck.envelope_misses", u64::from(!in_envelope));
        if !safe || (check && !in_envelope) {
            return Err(format!(
                "xcheck {}: safe={safe} max_ops={} (accept [{lo}, {hi}]) dsm={} (accept [{dlo}, {dhi}])",
                imp.name(),
                run.max_ops(),
                run.max_dsm_rmrs()
            ));
        }
    }
    Ok(())
}

/// Cross-checks every construction and runs the E20 chaos cases of every
/// algorithm on the hardware backend, with spans; then times each
/// backend's memory per operation. An unsafe history, a missed checked
/// envelope, or a silent-wrong, panicked or respawn-exhausted chaos
/// trial is an error.
pub fn trace(seed: u64, trace: &mut Trace) -> Result<(), String> {
    let spec: Arc<dyn ObjectSpec> = Arc::new(FetchIncrement::new(32));
    for (name, check) in CONSTRUCTIONS {
        cross_check(
            construction(name, &spec).as_ref(),
            spec.as_ref(),
            check,
            trace,
        )?;
    }

    for a in 0..6 {
        let alg = e20_algorithm(a, N);
        for intensity in INTENSITIES {
            for k in 0..TRIALS {
                let s = split_mix(seed ^ split_mix((a * 1024 + intensity * 64 + k) as u64));
                let case = e20_case(a, N, intensity, s, SIM_MAX_EVENTS);
                let run = trace.span("atomics.driver.trial", || {
                    run_hw_chaos(
                        alg.as_ref(),
                        N,
                        s,
                        &case.faults,
                        &case.crashes,
                        case.recovery,
                        E20_MAX_STEPS,
                    )
                });
                trace.add("atomics.driver.ops", run.max_ops);
                trace.add("atomics.supervisor.respawns", run.respawns);
                trace.add("atomics.fault.spurious_sc", run.spurious_sc);
                let failed = matches!(run.class, "silent-wrong" | "panic" | "respawn-exhausted");
                if failed || (intensity == 0 && run.class != "recovered") {
                    return Err(format!(
                        "{} intensity {intensity} seed {s:#018x}: hardware trial {} ({})",
                        alg.name(),
                        run.class,
                        run.outcome_text
                    ));
                }
            }
        }
    }

    // Per-operation cost of each backend's memory under the sequential
    // driver, over the constructions that terminate sequentially (the
    // polling adt tree does not).
    let ops = vec![FetchIncrement::op(); N];
    let mut sim = (0u64, 0u64);
    let mut hw = (0u64, 0u64);
    for (name, _) in &CONSTRUCTIONS[..3] {
        let imp = construction(name, &spec);
        let alg = ImplAlgorithm::new(imp.as_ref(), &ops);
        for _ in 0..2000 {
            let tosses = Arc::new(SeededTosses::new(1));
            let s = Timed::new(SimBackend::for_algorithm(&alg, N, tosses.clone()));
            run_sequential(&s, &alg, 1_000_000).map_err(|e| format!("sim: {e:?}"))?;
            s.add_to(&mut sim);
            let h = Timed::new(HwMemory::for_algorithm(&alg, N, tosses));
            run_sequential(&h, &alg, 1_000_000).map_err(|e| format!("hw: {e:?}"))?;
            h.add_to(&mut hw);
        }
    }
    let per_op = |(nanos, ops): (u64, u64)| nanos as f64 / ops as f64;
    trace.values.insert("shmem.backend.ns_per_op", per_op(sim));
    trace.values.insert("atomics.memory.ns_per_op", per_op(hw));
    Ok(())
}

/// An [`ExecutionBackend`] that times every `apply` of the backend it
/// wraps.
struct Timed<B> {
    inner: B,
    nanos: AtomicU64,
    ops: AtomicU64,
}

impl<B: ExecutionBackend> Timed<B> {
    fn new(inner: B) -> Timed<B> {
        Timed {
            inner,
            nanos: AtomicU64::new(0),
            ops: AtomicU64::new(0),
        }
    }

    fn add_to(&self, total: &mut (u64, u64)) {
        total.0 += self.nanos.load(Ordering::Relaxed);
        total.1 += self.ops.load(Ordering::Relaxed);
    }
}

impl<B: ExecutionBackend> ExecutionBackend for Timed<B> {
    fn backend_name(&self) -> &'static str {
        self.inner.backend_name()
    }
    fn n(&self) -> usize {
        self.inner.n()
    }
    fn apply(&self, p: ProcessId, op: &Operation) -> Response {
        let t = Instant::now();
        let response = self.inner.apply(p, op);
        self.nanos
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.ops.fetch_add(1, Ordering::Relaxed);
        response
    }
    fn toss(&self, p: ProcessId) -> u64 {
        self.inner.toss(p)
    }
    fn shared_accesses(&self, p: ProcessId) -> u64 {
        self.inner.shared_accesses(p)
    }
    fn dsm_rmrs(&self, p: ProcessId) -> u64 {
        self.inner.dsm_rmrs(p)
    }
    fn peek(&self, r: RegisterId) -> Value {
        self.inner.peek(r)
    }
    fn linked(&self, p: ProcessId, r: RegisterId) -> bool {
        self.inner.linked(p, r)
    }
    fn is_deterministic(&self) -> bool {
        self.inner.is_deterministic()
    }
}
