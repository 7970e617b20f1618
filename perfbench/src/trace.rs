//! Layer attribution for the traced run: spans timed around calls into
//! each layer's public functions, and counts taken from the values those
//! calls return.
//!
//! Spans are recorded from the benchmark's own code, so a layer's time
//! is the time of the public calls attributed to it; work the called
//! function delegates to a lower layer (executor stepping inside a Gray
//! trial build, say) is counted in the caller's span.

use llsc_shmem::{OpKind, Response, Run, RunEvent};
use std::collections::BTreeMap;
use std::time::Instant;

/// Span times and counts of one traced pass (or of the one-off extras).
#[derive(Debug, Default)]
pub struct Trace {
    /// Seconds spent in each named span.
    pub secs: BTreeMap<&'static str, f64>,
    /// Counted work by name.
    pub counts: BTreeMap<String, u64>,
    /// Derived values measured directly (ratios, per-op costs).
    pub values: BTreeMap<&'static str, f64>,
}

impl Trace {
    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        *self.secs.entry(name).or_insert(0.0) += t.elapsed().as_secs_f64();
        out
    }

    /// Adds `n` to the count `name`.
    pub fn add(&mut self, name: &str, n: u64) {
        *self.counts.entry(name.to_string()).or_insert(0) += n;
    }

    /// Tallies the simulated statistics of one recorded run under the
    /// `shmem.run.*` names. Needs a detailed run for the per-kind counts.
    pub fn tally_run(&mut self, run: &Run) {
        let (mut ll, mut vl, mut sc, mut sc_fail, mut swap, mut mv) = (0, 0, 0, 0, 0, 0);
        for event in run.events() {
            if let RunEvent::SharedOp { op, resp, .. } = event {
                match op.kind() {
                    OpKind::Ll => ll += 1,
                    OpKind::Validate => vl += 1,
                    OpKind::Sc => {
                        sc += 1;
                        if matches!(resp, Response::Flagged { ok: false, .. }) {
                            sc_fail += 1;
                        }
                    }
                    OpKind::Swap => swap += 1,
                    OpKind::Move => mv += 1,
                }
            }
        }
        let c = run.counters();
        self.add("shmem.run.events", run.event_count());
        self.add("shmem.run.shared_accesses", c.total_ops());
        self.add("shmem.run.ll", ll);
        self.add("shmem.run.vl", vl);
        self.add("shmem.run.sc", sc);
        self.add("shmem.run.sc_failed", sc_fail);
        self.add("shmem.run.swap", swap);
        self.add("shmem.run.move", mv);
        self.add("shmem.run.cc_rmrs", c.total_cc_rmrs());
        self.add("shmem.run.dsm_rmrs", c.total_dsm_rmrs());
        self.add("shmem.run.tosses", c.total_tosses());
        self.add("shmem.crash.crashes", c.total_crashes());
        self.add("shmem.crash.respawns", c.total_recoveries());
    }

    fn count(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0) as f64
    }

    fn secs(&self, name: &str) -> f64 {
        self.secs.get(name).copied().unwrap_or(0.0)
    }
}

/// How a per-layer metric is read off a [`Trace`].
enum Source {
    Secs(&'static str),
    Count(&'static str),
    Value(&'static str),
    /// `count(a) / count(b)`.
    Ratio(&'static str, &'static str),
    /// `secs(a) / count(b)`, scaled.
    PerCount(&'static str, &'static str, f64),
}

/// Every per-layer metric: name, unit, source. Time metrics are seconds
/// per pass (the workload's fixed list of units); counts are per pass.
/// A layer the workload does not exercise reads 0.
const PER_LAYER: &[(&str, &str, Source)] = &[
    ("core.all_run.self_s", "s", Source::Secs("core.all_run")),
    (
        "core.all_run.rounds",
        "count",
        Source::Count("core.all_run.rounds"),
    ),
    (
        "core.all_run.us_per_event",
        "us",
        Source::PerCount("core.all_run", "core.all_run.events", 1e6),
    ),
    ("core.wakeup.self_s", "s", Source::Secs("core.wakeup")),
    ("core.gray.build_s", "s", Source::Secs("core.gray.build")),
    (
        "core.gray.replay_ratio",
        "ratio",
        Source::Ratio("core.gray.replayed_events", "core.gray.events"),
    ),
    ("core.indist.self_s", "s", Source::Secs("core.indist")),
    (
        "core.indist.comparisons",
        "count",
        Source::Count("core.indist.comparisons"),
    ),
    ("core.claims.self_s", "s", Source::Secs("core.claims")),
    (
        "core.claims.instances",
        "count",
        Source::Count("core.claims.instances"),
    ),
    (
        "shmem.run.events",
        "count",
        Source::Count("shmem.run.events"),
    ),
    (
        "shmem.run.shared_accesses",
        "count",
        Source::Count("shmem.run.shared_accesses"),
    ),
    ("shmem.run.ll", "count", Source::Count("shmem.run.ll")),
    ("shmem.run.sc", "count", Source::Count("shmem.run.sc")),
    ("shmem.run.vl", "count", Source::Count("shmem.run.vl")),
    ("shmem.run.swap", "count", Source::Count("shmem.run.swap")),
    ("shmem.run.move", "count", Source::Count("shmem.run.move")),
    (
        "shmem.run.sc_fail_ratio",
        "ratio",
        Source::Ratio("shmem.run.sc_failed", "shmem.run.sc"),
    ),
    (
        "shmem.run.cc_rmrs",
        "count",
        Source::Count("shmem.run.cc_rmrs"),
    ),
    (
        "shmem.run.dsm_rmrs",
        "count",
        Source::Count("shmem.run.dsm_rmrs"),
    ),
    (
        "shmem.run.tosses",
        "count",
        Source::Count("shmem.run.tosses"),
    ),
    (
        "shmem.fault.spurious_sc",
        "count",
        Source::Count("shmem.fault.spurious_sc"),
    ),
    (
        "shmem.fault.corruptions",
        "count",
        Source::Count("shmem.fault.corruptions"),
    ),
    (
        "shmem.crash.crashes",
        "count",
        Source::Count("shmem.crash.crashes"),
    ),
    (
        "shmem.crash.respawns",
        "count",
        Source::Count("shmem.crash.respawns"),
    ),
    (
        "shmem.sweep.speedup_2t",
        "x",
        Source::Value("shmem.sweep.speedup_2t"),
    ),
    (
        "shmem.backend.ns_per_op",
        "ns",
        Source::Value("shmem.backend.ns_per_op"),
    ),
    (
        "bench.repro.run_case_s",
        "s",
        Source::Secs("bench.repro.run_case"),
    ),
    (
        "bench.repro.class.recovered",
        "count",
        Source::Count("bench.repro.class.recovered"),
    ),
    (
        "bench.repro.class.detected-wrong",
        "count",
        Source::Count("bench.repro.class.detected-wrong"),
    ),
    (
        "bench.repro.class.silent-wrong",
        "count",
        Source::Count("bench.repro.class.silent-wrong"),
    ),
    (
        "bench.repro.class.stalled",
        "count",
        Source::Count("bench.repro.class.stalled"),
    ),
    (
        "bench.repro.class.crashed",
        "count",
        Source::Count("bench.repro.class.crashed"),
    ),
    (
        "bench.repro.class.aborted",
        "count",
        Source::Count("bench.repro.class.aborted"),
    ),
    (
        "bench.repro.class.panic",
        "count",
        Source::Count("bench.repro.class.panic"),
    ),
    ("bench.job.run_s", "s", Source::Secs("bench.job.run")),
    (
        "bench.job.chunks",
        "count",
        Source::Count("bench.job.chunks"),
    ),
    (
        "bench.job.checkpoint_bytes",
        "bytes",
        Source::Count("bench.job.checkpoint_bytes"),
    ),
    (
        "bench.job.overhead_s",
        "s",
        Source::Value("bench.job.overhead_s"),
    ),
    (
        "xcheck.sim_envelope_s",
        "s",
        Source::Secs("xcheck.sim_envelope"),
    ),
    (
        "xcheck.envelope_misses",
        "count",
        Source::Count("xcheck.envelope_misses"),
    ),
    (
        "atomics.driver.trial_s",
        "s",
        Source::Secs("atomics.driver.trial"),
    ),
    (
        "atomics.driver.ops",
        "count",
        Source::Count("atomics.driver.ops"),
    ),
    (
        "atomics.supervisor.respawns",
        "count",
        Source::Count("atomics.supervisor.respawns"),
    ),
    (
        "atomics.fault.spurious_sc",
        "count",
        Source::Count("atomics.fault.spurious_sc"),
    ),
    (
        "atomics.memory.ns_per_op",
        "ns",
        Source::Value("atomics.memory.ns_per_op"),
    ),
    (
        "objects.linearize.self_s",
        "s",
        Source::Secs("objects.linearize"),
    ),
    (
        "objects.linearize.histories",
        "count",
        Source::Count("objects.linearize.histories"),
    ),
];

/// The per-layer metrics of a traced run: each metric's median over the
/// traced passes, with the one-off `extras` merged into every pass, plus
/// `trace.overhead_ratio` (traced over untraced pass wall).
pub fn per_layer_metrics(
    passes: &[Trace],
    extras: &Trace,
    overhead_ratio: f64,
) -> Vec<(String, f64, &'static str)> {
    let mut out: Vec<(String, f64, &'static str)> = PER_LAYER
        .iter()
        .map(|(name, unit, source)| {
            let read = |t: &Trace| {
                let count = |k: &str| t.count(k) + extras.count(k);
                match source {
                    Source::Secs(k) => t.secs(k) + extras.secs(k),
                    Source::Count(k) => count(k),
                    Source::Value(k) => extras.values.get(k).copied().unwrap_or(0.0),
                    Source::Ratio(a, b) => {
                        let d = count(b);
                        if d > 0.0 {
                            count(a) / d
                        } else {
                            0.0
                        }
                    }
                    Source::PerCount(a, b, scale) => {
                        let d = count(b);
                        if d > 0.0 {
                            (t.secs(a) + extras.secs(a)) / d * scale
                        } else {
                            0.0
                        }
                    }
                }
            };
            let values: Vec<f64> = passes.iter().map(read).collect();
            (name.to_string(), crate::median(&values), *unit)
        })
        .collect();
    out.push(("trace.overhead_ratio".to_string(), overhead_ratio, "ratio"));
    out
}
