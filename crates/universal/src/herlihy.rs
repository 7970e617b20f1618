//! A Herlihy-style announce-and-help universal construction — the `O(n)`
//! oblivious baseline.
//!
//! This is the classic recipe behind the paper's remark that "if we rule
//! out constructions that make impractical assumptions on the size of
//! registers, O(n) is the best known upper bound":
//!
//! 1. each process *announces* its operation by swapping it into a
//!    per-process announce register;
//! 2. it then repeatedly tries to extend the shared *log* register (which
//!    holds the entire linearisation order — registers are unbounded) with
//!    every announced-but-unapplied operation it can see, via LL/SC;
//! 3. it returns once its own operation appears in the log, replaying the
//!    log prefix through the sequential specification to compute its
//!    response.
//!
//! Helping bounds the retries: if a process's SC fails twice after its
//! announce, the second winner must have scanned the announce registers
//! after the announce and therefore included it, so **at most three LL/SC
//! attempts** are ever needed. Each attempt scans all `n` announce
//! registers, so the worst-case shared-access cost is `Θ(n)` — which is
//! exactly what experiment E8/E9 measures against the `O(log n)` tree.
//!
//! The construction is *oblivious*: it touches the instantiated type only
//! through [`ObjectSpec::apply`].

use crate::implementation::ObjectImplementation;
use crate::tree::{contains, entry, entry_pid, replay_response};
use llsc_objects::ObjectSpec;
use llsc_shmem::dsl::{ll, read, sc, swap, Step};
use llsc_shmem::{ProcessId, RegisterId, Value};
use std::fmt;
use std::sync::Arc;

/// The register holding the operation log (the linearisation order).
const LOG_REG: RegisterId = RegisterId(1);
/// Announce registers: `ANNOUNCE_BASE + p`.
const ANNOUNCE_BASE: u64 = 1000;

fn announce_reg(p: ProcessId) -> RegisterId {
    RegisterId(ANNOUNCE_BASE + p.0 as u64)
}

/// The Herlihy-style `Θ(n)` oblivious universal construction (single-use).
///
/// # Examples
///
/// ```
/// use llsc_universal::{HerlihyUniversal, measure, MeasureConfig, ScheduleKind};
/// use llsc_objects::FetchIncrement;
/// use std::sync::Arc;
///
/// let spec = Arc::new(FetchIncrement::new(16));
/// let imp = HerlihyUniversal::new(spec.clone());
/// let ops = vec![FetchIncrement::op(); 4];
/// let r = measure(&imp, spec.as_ref(), 4, &ops, ScheduleKind::Adversary, &MeasureConfig::default())
///     .expect("the adversary run completes within the default budgets");
/// assert!(r.linearizable);
/// ```
pub struct HerlihyUniversal {
    spec: Arc<dyn ObjectSpec>,
}

impl HerlihyUniversal {
    /// Creates the construction instantiated with `spec`.
    pub fn new(spec: Arc<dyn ObjectSpec>) -> Self {
        HerlihyUniversal { spec }
    }
}

impl fmt::Debug for HerlihyUniversal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HerlihyUniversal")
            .field("spec", &self.spec.name())
            .finish()
    }
}

impl ObjectImplementation for HerlihyUniversal {
    fn name(&self) -> String {
        format!("herlihy-announce[{}]", self.spec.name())
    }

    fn initial_memory(&self, n: usize) -> Vec<(RegisterId, Value)> {
        let mut mem = vec![(LOG_REG, Value::empty_tuple())];
        mem.extend(ProcessId::all(n).map(|p| (announce_reg(p), Value::Unit)));
        mem
    }

    fn invoke(
        &self,
        pid: ProcessId,
        n: usize,
        op: Value,
        k: Box<dyn FnOnce(Value) -> Step>,
    ) -> Step {
        let spec = Arc::clone(&self.spec);
        // Step 1: announce.
        swap(announce_reg(pid), entry(pid, &op), move |_| {
            attempt(spec, pid, n, k)
        })
    }
}

/// One LL / scan / SC attempt, retried until `pid`'s entry is in the log.
fn attempt(
    spec: Arc<dyn ObjectSpec>,
    pid: ProcessId,
    n: usize,
    k: Box<dyn FnOnce(Value) -> Step>,
) -> Step {
    ll(LOG_REG, move |log| {
        if contains(&log, pid).expect("log tuple") {
            return k(replay_response(spec.as_ref(), &log, pid).expect("p's entry is in the log"));
        }
        // Scan every announce register, collecting unapplied entries.
        scan(spec, pid, n, log, 0, Vec::new(), k)
    })
}

/// Reads announce registers `next..n`, then attempts the SC.
fn scan(
    spec: Arc<dyn ObjectSpec>,
    pid: ProcessId,
    n: usize,
    log: Value,
    next: usize,
    mut gathered: Vec<Value>,
    k: Box<dyn FnOnce(Value) -> Step>,
) -> Step {
    if next == n {
        let mut entries = log.as_tuple().expect("log tuple").to_vec();
        entries.extend(gathered);
        let new_log = Value::tuple(entries);
        return sc(LOG_REG, new_log.clone(), move |ok, _| {
            if ok {
                k(replay_response(spec.as_ref(), &new_log, pid).expect("p's entry is in the log"))
            } else {
                attempt(spec, pid, n, k)
            }
        });
    }
    read(announce_reg(ProcessId(next)), move |ann| {
        if !ann.is_unit()
            && !contains(&log, entry_pid(&ann).expect("entry pid")).expect("log tuple")
        {
            gathered.push(ann);
        }
        scan(spec, pid, n, log, next + 1, gathered, k)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::{measure, MeasureConfig, ScheduleKind};
    use llsc_objects::{FetchIncrement, Queue};

    fn fi(n: usize, kind: ScheduleKind) -> crate::measure::MeasureResult {
        let spec = Arc::new(FetchIncrement::new(32));
        let imp = HerlihyUniversal::new(spec.clone());
        let ops = vec![FetchIncrement::op(); n];
        measure(
            &imp,
            spec.as_ref(),
            n,
            &ops,
            kind,
            &MeasureConfig::default(),
        )
        .unwrap()
    }

    #[test]
    fn linearizable_under_all_schedules() {
        for kind in [
            ScheduleKind::Sequential,
            ScheduleKind::RoundRobin,
            ScheduleKind::RandomInterleave { seed: 5 },
            ScheduleKind::Adversary,
        ] {
            let r = fi(6, kind);
            assert!(r.linearizable, "{kind:?}");
            // Every response is a distinct value in 0..6.
            let mut got: Vec<i128> = r.responses.iter().map(|v| v.as_int().unwrap()).collect();
            got.sort_unstable();
            assert_eq!(got, (0..6).collect::<Vec<i128>>(), "{kind:?}");
        }
    }

    #[test]
    fn cost_is_linear_in_n() {
        // Each attempt scans n announce registers, so max_ops grows
        // linearly: between n and ~3(n+2)+1.
        for n in [2, 4, 8, 16, 32] {
            let r = fi(n, ScheduleKind::Adversary);
            assert!(
                r.max_ops >= n as u64,
                "n={n}: max_ops={} below the scan cost",
                r.max_ops
            );
            let ceiling = 3 * (n as u64 + 2) + 1;
            assert!(
                r.max_ops <= ceiling,
                "n={n}: max_ops={} exceeds the 3-attempt helping bound {ceiling}",
                r.max_ops
            );
        }
    }

    #[test]
    fn helping_bounds_attempts_to_three() {
        // Even under the adversary schedule, nobody exceeds
        // announce + 3 * (LL + n reads + SC).
        let n = 24;
        let r = fi(n, ScheduleKind::Adversary);
        assert!(r.max_ops <= 1 + 3 * (n as u64 + 2));
    }

    #[test]
    fn works_for_queues_with_initial_items() {
        let spec = Arc::new(Queue::with_numbered_items(5));
        let imp = HerlihyUniversal::new(spec.clone());
        let ops = vec![Queue::dequeue_op(); 5];
        let r = measure(
            &imp,
            spec.as_ref(),
            5,
            &ops,
            ScheduleKind::RoundRobin,
            &MeasureConfig::default(),
        )
        .unwrap();
        assert!(r.linearizable);
        let mut got: Vec<i128> = r.responses.iter().map(|v| v.as_int().unwrap()).collect();
        got.sort_unstable();
        assert_eq!(got, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn single_process_still_costs_linear_scan() {
        // Obliviousness has a price even solo: announce + LL + scan + SC.
        let r = fi(1, ScheduleKind::Sequential);
        assert_eq!(r.max_ops, 4);
    }

    #[test]
    fn name_mentions_spec() {
        let imp = HerlihyUniversal::new(Arc::new(FetchIncrement::new(8)));
        assert!(imp.name().contains("herlihy-announce"));
        assert!(!imp.is_multi_use());
    }
}
