//! Wall-clock benchmarks for the universal constructions: one full
//! `n`-process single-use execution per iteration, under the Figure-2
//! adversary. The interesting output is in `llsc table e8` (shared
//! ops per operation); this tracks simulator throughput.

use llsc_bench::harness::time_case;
use llsc_objects::FetchIncrement;
use llsc_universal::{
    measure, AdtTreeUniversal, DirectLlSc, HerlihyUniversal, MeasureConfig, ScheduleKind,
};
use std::sync::Arc;

fn main() {
    let cfg = MeasureConfig {
        check_linearizability: false,
        ..MeasureConfig::default()
    };
    for n in [16usize, 64] {
        let spec = Arc::new(FetchIncrement::new(32));
        let ops = vec![FetchIncrement::op(); n];
        let adt = AdtTreeUniversal::new(spec.clone());
        time_case(&format!("construction_full_run/adt-tree/{n}"), 10, || {
            measure(&adt, spec.as_ref(), n, &ops, ScheduleKind::Adversary, &cfg)
        });
        let herlihy = HerlihyUniversal::new(spec.clone());
        time_case(&format!("construction_full_run/herlihy/{n}"), 10, || {
            measure(
                &herlihy,
                spec.as_ref(),
                n,
                &ops,
                ScheduleKind::Adversary,
                &cfg,
            )
        });
        let direct = DirectLlSc::new(spec.clone());
        time_case(&format!("construction_full_run/direct/{n}"), 10, || {
            measure(
                &direct,
                spec.as_ref(),
                n,
                &ops,
                ScheduleKind::Adversary,
                &cfg,
            )
        });
    }

    let lincheck_cfg = MeasureConfig::default();
    let n = 12;
    let spec = Arc::new(FetchIncrement::new(32));
    let ops = vec![FetchIncrement::op(); n];
    let adt = AdtTreeUniversal::new(spec.clone());
    time_case(
        "measure_with_linearizability/adt-tree+lincheck/12",
        10,
        || {
            measure(
                &adt,
                spec.as_ref(),
                n,
                &ops,
                ScheduleKind::Adversary,
                &lincheck_cfg,
            )
        },
    );
}
