//! Runs: event sequences, per-process histories, and the shared-access
//! time complexity accounting.

use crate::{Operation, ProcessId, Response, Value};
use std::fmt;
use std::ops::Range;

/// One event of a run: a single step by a single process.
///
/// A run in the paper is an alternating sequence of configurations and
/// events starting from the initial configuration; since our executor is
/// deterministic given the schedule and toss assignment, storing the events
/// (with their outcomes) determines every intermediate configuration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RunEvent {
    /// `p` tossed its `index`-th coin and obtained `outcome`.
    Toss {
        /// The tossing process.
        pid: ProcessId,
        /// 0-based index of this toss in `p`'s toss sequence.
        index: u64,
        /// The outcome, per the run's toss assignment.
        outcome: u64,
    },
    /// `p` performed a shared-memory operation and received a response.
    SharedOp {
        /// The invoking process.
        pid: ProcessId,
        /// The operation performed.
        op: Operation,
        /// The response received.
        resp: Response,
    },
    /// `p` entered a termination state, returning `value`.
    Terminated {
        /// The terminating process.
        pid: ProcessId,
        /// The process's return value.
        value: Value,
    },
}

impl RunEvent {
    /// The process that took this step.
    pub fn pid(&self) -> ProcessId {
        match self {
            RunEvent::Toss { pid, .. }
            | RunEvent::SharedOp { pid, .. }
            | RunEvent::Terminated { pid, .. } => *pid,
        }
    }
}

impl fmt::Display for RunEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunEvent::Toss {
                pid,
                index,
                outcome,
            } => {
                write!(f, "{pid}: toss#{index} -> {outcome}")
            }
            RunEvent::SharedOp { pid, op, resp } => write!(f, "{pid}: {op} -> {resp}"),
            RunEvent::Terminated { pid, value } => write!(f, "{pid}: return {value}"),
        }
    }
}

/// A process's *interaction history*: everything it has locally observed
/// — its tosses, shared operations with their responses, and its
/// termination — as a borrowed view of its events in [`Run::events`].
///
/// For a deterministic-given-coins program, the interaction history (plus
/// the program text) determines the process's automaton state. The
/// indistinguishability checker of `llsc-core` therefore compares
/// interaction histories where Lemma 5.2 compares `state(p, r, Σ)`, and
/// toss counts where it compares `numtosses(p, r, Σ)`.
///
/// Two views are equal iff they hold equal events in the same order.
/// Between histories of the same process that compares exactly what the
/// process observed: the pid is fixed, and a toss's index follows from the
/// prefix before it, which has already compared equal.
#[derive(Clone, Copy)]
pub struct ProcHistory<'a> {
    events: &'a [RunEvent],
    /// Positions in `events` of this process's events, in order.
    indices: &'a [u32],
}

impl<'a> ProcHistory<'a> {
    /// The number of events in the history.
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// `true` iff the process has observed nothing.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// The first `len` events of the history.
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds [`ProcHistory::len`].
    pub fn prefix(&self, len: usize) -> ProcHistory<'a> {
        self.range(0..len)
    }

    /// The events at positions `range` of the history.
    ///
    /// # Panics
    ///
    /// Panics if `range` is out of bounds, like slice indexing.
    pub fn range(&self, range: Range<usize>) -> ProcHistory<'a> {
        ProcHistory {
            events: self.events,
            indices: &self.indices[range],
        }
    }

    /// The history's events, in order.
    pub fn iter(&self) -> impl Iterator<Item = &'a RunEvent> + 'a {
        let events = self.events;
        self.indices.iter().map(move |&k| &events[position(k)])
    }
}

impl PartialEq for ProcHistory<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl Eq for ProcHistory<'_> {}

impl fmt::Debug for ProcHistory<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The `events` position an index entry names (lossless: indices are
/// `u32` and `usize` is at least 32 bits wide on every supported target).
fn position(k: u32) -> usize {
    usize::try_from(k).expect("usize holds every u32")
}

/// A recorded run: the global event sequence plus per-process accounting.
///
/// Implements the complexity bookkeeping of Section 3: `t(p_i, R)` — the
/// number of `p_i`'s shared-memory steps — is [`Run::shared_steps`], and
/// `t(R) = max_i t(p_i, R)` is [`Run::max_shared_steps`].
#[derive(Clone, Debug)]
pub struct Run {
    n: usize,
    details: bool,
    /// Every event, in execution order: the only copy of each operation
    /// and response (empty in lightweight mode).
    events: Vec<RunEvent>,
    /// Total events recorded, maintained even in lightweight mode (where
    /// `events` itself stays empty).
    event_count: u64,
    /// Per process, the positions in `events` of its events, in order:
    /// the index lists behind [`Run::history`].
    histories: Vec<Vec<u32>>,
    shared_steps: Vec<u64>,
    tosses: Vec<u64>,
    verdicts: Vec<Option<Value>>,
    /// Per process, the event number of its first toss or shared-memory
    /// operation (see [`Run::first_step_event`]), kept in both modes.
    first_steps: Vec<Option<u64>>,
    /// Per process, the event number of its termination (see
    /// [`Run::termination_event`]), kept in both modes.
    terminations: Vec<Option<u64>>,
    /// Crash-stop flags (see [`Run::mark_crashed`]); a crashed process
    /// takes no further events until [`Run::clear_crash`] revives it.
    crashed: Vec<bool>,
    /// Remote memory references per process under the cache-coherent
    /// cost model (see [`Run::cc_rmrs`]).
    cc_rmrs: Vec<u64>,
    /// Remote memory references per process under the
    /// distributed-shared-memory cost model (see [`Run::dsm_rmrs`]).
    dsm_rmrs: Vec<u64>,
    /// Crashes suffered per process (each [`Run::mark_crashed`] call).
    crash_counts: Vec<u64>,
    /// Recoveries per process (each [`Run::clear_crash`] call).
    recovery_counts: Vec<u64>,
}

/// A cheap structured summary of a run: per-process operation and toss
/// counts plus the totals, available in both detailed and lightweight
/// recording modes.
///
/// This is what the large measurement sweeps report instead of full
/// traces: `O(n)` numbers rather than `O(events)` history, but still
/// machine-readable (the bench crate serialises it into the `BENCH_*.json`
/// artifacts).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OpCounters {
    /// `t(p, R)` per process: shared-memory operations performed.
    pub ops: Vec<u64>,
    /// `numtosses(p)` per process: coin tosses performed.
    pub tosses: Vec<u64>,
    /// Total events recorded (tosses + shared ops + terminations).
    pub events: u64,
    /// Processes that have terminated.
    pub terminated: usize,
    /// Remote memory references per process, cache-coherent model.
    pub cc_rmrs: Vec<u64>,
    /// Remote memory references per process, DSM model.
    pub dsm_rmrs: Vec<u64>,
    /// Crashes suffered per process.
    pub crashes: Vec<u64>,
    /// Recoveries (crash flags cleared) per process.
    pub recoveries: Vec<u64>,
}

impl OpCounters {
    /// `t(R) = max_p t(p, R)`.
    pub fn max_ops(&self) -> u64 {
        self.ops.iter().copied().max().unwrap_or(0)
    }

    /// Total shared-memory operations across all processes.
    pub fn total_ops(&self) -> u64 {
        self.ops.iter().sum()
    }

    /// Total coin tosses across all processes.
    pub fn total_tosses(&self) -> u64 {
        self.tosses.iter().sum()
    }

    /// Total cache-coherent RMRs across all processes.
    pub fn total_cc_rmrs(&self) -> u64 {
        self.cc_rmrs.iter().sum()
    }

    /// Total DSM RMRs across all processes.
    pub fn total_dsm_rmrs(&self) -> u64 {
        self.dsm_rmrs.iter().sum()
    }

    /// Total crashes suffered across all processes.
    pub fn total_crashes(&self) -> u64 {
        self.crashes.iter().sum()
    }

    /// Total recoveries across all processes.
    pub fn total_recoveries(&self) -> u64 {
        self.recoveries.iter().sum()
    }
}

impl fmt::Display for OpCounters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} procs ({} terminated): {} ops (max {}), {} tosses, {} events",
            self.ops.len(),
            self.terminated,
            self.total_ops(),
            self.max_ops(),
            self.total_tosses(),
            self.events
        )
    }
}

impl Default for Run {
    /// An empty zero-process run with full detail recording, matching
    /// [`Run::new`]`(0)`.
    fn default() -> Self {
        Run::new(0)
    }
}

impl Run {
    /// Creates an empty run of an `n`-process system with full detail
    /// recording (events and interaction histories).
    pub fn new(n: usize) -> Self {
        Run::with_details(n, true)
    }

    /// Creates an empty *lightweight* run: only step/toss counters and
    /// verdicts are kept; [`Run::events`] and [`Run::history`] stay empty.
    ///
    /// Lightweight runs cut memory from `O(total events x value size)` to
    /// `O(n)`, which is what the large measurement sweeps need. They keep
    /// what the wakeup checker reads (verdicts and the event numbers of
    /// each process's first step and termination) but cannot feed the
    /// indistinguishability checker, which compares histories.
    pub fn lightweight(n: usize) -> Self {
        Run::with_details(n, false)
    }

    fn with_details(n: usize, details: bool) -> Self {
        Run {
            n,
            details,
            events: Vec::new(),
            event_count: 0,
            histories: vec![Vec::new(); n],
            shared_steps: vec![0; n],
            tosses: vec![0; n],
            verdicts: vec![None; n],
            first_steps: vec![None; n],
            terminations: vec![None; n],
            crashed: vec![false; n],
            cc_rmrs: vec![0; n],
            dsm_rmrs: vec![0; n],
            crash_counts: vec![0; n],
            recovery_counts: vec![0; n],
        }
    }

    /// Whether this run records events and histories.
    pub fn is_detailed(&self) -> bool {
        self.details
    }

    /// The number of processes in the system.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Appends an event, updating all per-process accounting.
    ///
    /// # Panics
    ///
    /// Panics if the event's process id is out of range or the process has
    /// already terminated.
    pub fn record(&mut self, ev: RunEvent) {
        let pid = ev.pid();
        self.check_live(pid);
        match &ev {
            RunEvent::Toss { .. } => {
                self.tosses[pid.0] += 1;
                self.note_step(pid);
            }
            RunEvent::SharedOp { .. } => {
                self.shared_steps[pid.0] += 1;
                self.note_step(pid);
            }
            RunEvent::Terminated { value, .. } => {
                self.verdicts[pid.0] = Some(value.clone());
                self.terminations[pid.0] = Some(self.event_count);
            }
        }
        self.event_count += 1;
        if self.details {
            self.push_event(ev);
        }
    }

    /// Notes that the event about to be numbered is a step (a toss or a
    /// shared-memory operation) of `pid`.
    fn note_step(&mut self, pid: ProcessId) {
        self.first_steps[pid.0].get_or_insert(self.event_count);
    }

    /// Appends a detailed event to the log and its position to the
    /// process's index list.
    ///
    /// # Panics
    ///
    /// Panics if the log already holds `u32::MAX + 1` events.
    fn push_event(&mut self, ev: RunEvent) {
        let k = u32::try_from(self.events.len())
            .expect("a detailed run holds at most 2^32 events; record longer runs lightweight");
        self.histories[ev.pid().0].push(k);
        self.events.push(ev);
    }

    /// Records a shared-memory step from borrowed parts: equivalent to
    /// [`Run::record`] with [`RunEvent::SharedOp`], but the operation and
    /// response are cloned *only* when this run records details — the
    /// lightweight mode's hot path just bumps two counters.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Run::record`].
    pub(crate) fn record_shared(&mut self, pid: ProcessId, op: &Operation, resp: &Response) {
        self.check_live(pid);
        self.shared_steps[pid.0] += 1;
        self.note_step(pid);
        self.event_count += 1;
        if self.details {
            self.push_event(RunEvent::SharedOp {
                pid,
                op: op.clone(),
                resp: resp.clone(),
            });
        }
    }

    /// Clears the run in place for reuse: counters zeroed, events,
    /// histories, verdicts, and crash flags emptied — while every buffer
    /// keeps its allocation. The recording mode and process count are
    /// unchanged; after a reset the run is observationally a freshly
    /// constructed one. This is the reusable-trial-context primitive
    /// behind [`Executor::reset`](crate::Executor::reset).
    pub fn reset(&mut self) {
        self.events.clear();
        self.event_count = 0;
        for h in &mut self.histories {
            h.clear();
        }
        self.shared_steps.fill(0);
        self.tosses.fill(0);
        for v in &mut self.verdicts {
            *v = None;
        }
        self.first_steps.fill(None);
        self.terminations.fill(None);
        self.crashed.fill(false);
        self.cc_rmrs.fill(0);
        self.dsm_rmrs.fill(0);
        self.crash_counts.fill(0);
        self.recovery_counts.fill(0);
    }

    fn check_live(&self, pid: ProcessId) {
        assert!(pid.0 < self.n, "event for out-of-range {pid}");
        assert!(self.verdicts[pid.0].is_none(), "event for terminated {pid}");
        assert!(!self.crashed[pid.0], "event for crashed {pid}");
    }

    /// The global event sequence, in execution order.
    pub fn events(&self) -> &[RunEvent] {
        &self.events
    }

    /// Total events recorded, including in lightweight mode (where
    /// [`Run::events`] stays empty).
    pub fn event_count(&self) -> u64 {
        self.event_count
    }

    /// The cheap structured summary of this run — per-process ops/tosses,
    /// totals, and termination count. Works in both recording modes.
    pub fn counters(&self) -> OpCounters {
        OpCounters {
            ops: self.shared_steps.clone(),
            tosses: self.tosses.clone(),
            events: self.event_count,
            terminated: self.verdicts.iter().filter(|v| v.is_some()).count(),
            cc_rmrs: self.cc_rmrs.clone(),
            dsm_rmrs: self.dsm_rmrs.clone(),
            crashes: self.crash_counts.clone(),
            recoveries: self.recovery_counts.clone(),
        }
    }

    /// `t(p, R)`: the number of shared-memory steps `p` has performed.
    pub fn shared_steps(&self, p: ProcessId) -> u64 {
        self.shared_steps[p.0]
    }

    /// `t(R) = max_p t(p, R)`: the worst per-process shared-access count.
    pub fn max_shared_steps(&self) -> u64 {
        self.shared_steps.iter().copied().max().unwrap_or(0)
    }

    /// `numtosses(p)`: the number of coin tosses `p` has performed.
    pub fn tosses(&self, p: ProcessId) -> u64 {
        self.tosses[p.0]
    }

    /// Charges `p` for the remote memory references one shared step cost:
    /// `cc` under the cache-coherent model, `dsm` under the DSM model. The
    /// executor calls this right after [`Run::record_shared`]; the run
    /// itself only aggregates (remoteness is decided by the executor's
    /// cache/home tracking).
    pub(crate) fn record_rmrs(&mut self, pid: ProcessId, cc: u64, dsm: u64) {
        self.cc_rmrs[pid.0] += cc;
        self.dsm_rmrs[pid.0] += dsm;
    }

    /// `p`'s remote memory references under the cache-coherent model.
    pub fn cc_rmrs(&self, p: ProcessId) -> u64 {
        self.cc_rmrs[p.0]
    }

    /// `p`'s remote memory references under the DSM model.
    pub fn dsm_rmrs(&self, p: ProcessId) -> u64 {
        self.dsm_rmrs[p.0]
    }

    /// The value `p` returned, if `p` has terminated.
    pub fn verdict(&self, p: ProcessId) -> Option<&Value> {
        self.verdicts[p.0].as_ref()
    }

    /// `true` iff every process has terminated (the run is a
    /// *terminating run* in the paper's sense).
    pub fn is_terminating(&self) -> bool {
        self.verdicts.iter().all(Option::is_some)
    }

    /// The processes that have terminated so far, in id order.
    pub fn terminated(&self) -> impl Iterator<Item = ProcessId> + '_ {
        self.verdicts
            .iter()
            .enumerate()
            .filter(|(_, v)| v.is_some())
            .map(|(i, _)| ProcessId(i))
    }

    /// Marks `p` as crash-stopped: it takes no further events. Crashing is
    /// the limit case of an adversarial scheduler that delays `p` forever
    /// — the recorded prefix stays a legal run of the algorithm.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range or has already terminated (a
    /// terminated process cannot crash).
    pub(crate) fn mark_crashed(&mut self, p: ProcessId) {
        assert!(p.0 < self.n, "crash for out-of-range {p}");
        assert!(self.verdicts[p.0].is_none(), "crash for terminated {p}");
        self.crashed[p.0] = true;
        self.crash_counts[p.0] += 1;
    }

    /// Clears `p`'s crash flag, re-admitting its events: the
    /// crash-*recovery* counterpart of [`Run::mark_crashed`]. The recorded
    /// prefix before the crash stays part of the run — a recoverable
    /// algorithm's recovery section continues from the shared state the
    /// crash left behind, having lost only its local (program) state.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range or not currently crashed.
    pub(crate) fn clear_crash(&mut self, p: ProcessId) {
        assert!(p.0 < self.n, "recovery for out-of-range {p}");
        assert!(self.crashed[p.0], "recovery for non-crashed {p}");
        self.crashed[p.0] = false;
        self.recovery_counts[p.0] += 1;
    }

    /// `true` iff `p` has been crash-stopped.
    pub(crate) fn is_crashed(&self, p: ProcessId) -> bool {
        self.crashed[p.0]
    }

    /// The processes crashed so far, in id order.
    pub fn crashed(&self) -> impl Iterator<Item = ProcessId> + '_ {
        self.crashed
            .iter()
            .enumerate()
            .filter(|(_, c)| **c)
            .map(|(i, _)| ProcessId(i))
    }

    /// `p`'s interaction history: everything `p` has observed, in order
    /// (empty in lightweight mode).
    pub fn history(&self, p: ProcessId) -> ProcHistory<'_> {
        ProcHistory {
            events: &self.events,
            indices: &self.histories[p.0],
        }
    }

    /// The number of `p`'s first toss or shared-memory operation among
    /// all events of the run (0 for the run's first event; in a detailed
    /// run, its index into [`Run::events`]), or `None` if `p` has taken
    /// neither. Kept in both recording modes.
    pub fn first_step_event(&self, p: ProcessId) -> Option<u64> {
        self.first_steps[p.0]
    }

    /// The number of the event in which `p` terminated, counted as in
    /// [`Run::first_step_event`], or `None` if `p` has not terminated.
    /// Kept in both recording modes.
    pub fn termination_event(&self, p: ProcessId) -> Option<u64> {
        self.terminations[p.0]
    }
}

impl fmt::Display for Run {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "run of {} processes, {} events:",
            self.n,
            self.events.len()
        )?;
        for ev in &self.events {
            writeln!(f, "  {ev}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RegisterId;

    fn op_event(pid: usize) -> RunEvent {
        RunEvent::SharedOp {
            pid: ProcessId(pid),
            op: Operation::Ll(RegisterId(0)),
            resp: Response::Value(Value::Unit),
        }
    }

    #[test]
    fn accounting_tracks_steps_and_tosses() {
        let mut run = Run::new(2);
        run.record(RunEvent::Toss {
            pid: ProcessId(0),
            index: 0,
            outcome: 3,
        });
        run.record(op_event(0));
        run.record(op_event(1));
        run.record(op_event(1));
        assert_eq!(run.shared_steps(ProcessId(0)), 1);
        assert_eq!(run.shared_steps(ProcessId(1)), 2);
        assert_eq!(run.max_shared_steps(), 2);
        assert_eq!(run.tosses(ProcessId(0)), 1);
        assert_eq!(run.tosses(ProcessId(1)), 0);
    }

    #[test]
    fn termination_tracking() {
        let mut run = Run::new(2);
        assert!(!run.is_terminating());
        run.record(RunEvent::Terminated {
            pid: ProcessId(0),
            value: Value::from(1i64),
        });
        assert_eq!(run.verdict(ProcessId(0)), Some(&Value::from(1i64)));
        assert_eq!(run.verdict(ProcessId(1)), None);
        assert!(!run.is_terminating());
        run.record(RunEvent::Terminated {
            pid: ProcessId(1),
            value: Value::from(0i64),
        });
        assert!(run.is_terminating());
        assert_eq!(run.terminated().count(), 2);
    }

    #[test]
    #[should_panic(expected = "terminated")]
    fn events_after_termination_panic() {
        let mut run = Run::new(1);
        run.record(RunEvent::Terminated {
            pid: ProcessId(0),
            value: Value::Unit,
        });
        run.record(op_event(0));
    }

    #[test]
    #[should_panic(expected = "out-of-range")]
    fn out_of_range_pid_panics() {
        let mut run = Run::new(1);
        run.record(op_event(5));
    }

    #[test]
    fn histories_capture_observations_in_order() {
        let mut run = Run::new(1);
        run.record(RunEvent::Toss {
            pid: ProcessId(0),
            index: 0,
            outcome: 7,
        });
        run.record(op_event(0));
        let h: Vec<&RunEvent> = run.history(ProcessId(0)).iter().collect();
        assert_eq!(h.len(), 2);
        assert!(matches!(h[0], RunEvent::Toss { outcome: 7, .. }));
        assert!(matches!(h[1], RunEvent::SharedOp { .. }));
    }

    #[test]
    fn history_views_slice_and_compare_by_content() {
        let (mut a, mut b) = (Run::new(2), Run::new(2));
        a.record(op_event(0));
        a.record(op_event(1));
        a.record(op_event(0));
        // The same per-process history at different global positions.
        b.record(op_event(0));
        b.record(op_event(0));
        let (ha, hb) = (a.history(ProcessId(0)), b.history(ProcessId(0)));
        assert_eq!(ha, hb);
        assert_eq!(ha.prefix(1), hb.range(1..2));
        assert_ne!(ha.prefix(1), hb);
        assert_ne!(ha.prefix(1), a.history(ProcessId(1)));
        assert_eq!(
            format!("{:?}", a.history(ProcessId(1))),
            format!("[{:?}]", op_event(1))
        );
    }

    #[test]
    fn lightweight_runs_keep_no_history_and_reset_clears_it() {
        for lightweight in [false, true] {
            let mut run = if lightweight {
                Run::lightweight(2)
            } else {
                Run::new(2)
            };
            run.record(op_event(1));
            run.record(op_event(0));
            assert_eq!(run.history(ProcessId(0)).is_empty(), lightweight);
            run.reset();
            assert!(run.events().is_empty());
            for p in ProcessId::all(2) {
                assert!(run.history(p).is_empty());
                assert_eq!(run.first_step_event(p), None);
            }
            // Positions restart at the front of the emptied log.
            run.record(op_event(0));
            assert_eq!(run.first_step_event(ProcessId(0)), Some(0));
            if !lightweight {
                assert!(run.history(ProcessId(0)).iter().eq([&op_event(0)]));
            }
        }
    }

    #[test]
    fn step_and_termination_event_numbers_in_both_modes() {
        for lightweight in [false, true] {
            let mut run = if lightweight {
                Run::lightweight(3)
            } else {
                Run::new(3)
            };
            run.record(RunEvent::Terminated {
                pid: ProcessId(2),
                value: Value::Unit,
            });
            run.record(RunEvent::Toss {
                pid: ProcessId(1),
                index: 0,
                outcome: 0,
            });
            run.record(op_event(0));
            run.record(op_event(1));
            run.record(RunEvent::Terminated {
                pid: ProcessId(1),
                value: Value::Unit,
            });
            let first: Vec<_> = ProcessId::all(3).map(|p| run.first_step_event(p)).collect();
            let ended: Vec<_> = ProcessId::all(3)
                .map(|p| run.termination_event(p))
                .collect();
            // Termination is not a step: p2 never stepped.
            assert_eq!(first, [Some(2), Some(1), None]);
            assert_eq!(ended, [None, Some(4), Some(0)]);
            run.reset();
            for p in ProcessId::all(3) {
                assert_eq!(run.first_step_event(p), None);
                assert_eq!(run.termination_event(p), None);
            }
        }
    }

    #[test]
    fn first_step_index_and_has_stepped() {
        let mut run = Run::new(3);
        run.record(op_event(1));
        run.record(op_event(0));
        assert_eq!(run.first_step_event(ProcessId(1)), Some(0));
        assert_eq!(run.first_step_event(ProcessId(0)), Some(1));
        assert_eq!(run.first_step_event(ProcessId(2)), None);
    }

    #[test]
    fn counters_summarise_both_recording_modes() {
        for lightweight in [false, true] {
            let mut run = if lightweight {
                Run::lightweight(2)
            } else {
                Run::new(2)
            };
            run.record(RunEvent::Toss {
                pid: ProcessId(0),
                index: 0,
                outcome: 1,
            });
            run.record(op_event(0));
            run.record(op_event(1));
            run.record(RunEvent::Terminated {
                pid: ProcessId(1),
                value: Value::Unit,
            });
            let c = run.counters();
            assert_eq!(c.ops, vec![1, 1]);
            assert_eq!(c.tosses, vec![1, 0]);
            assert_eq!(c.events, 4);
            assert_eq!(c.terminated, 1);
            assert_eq!(c.max_ops(), 1);
            assert_eq!(c.total_ops(), 2);
            assert_eq!(c.total_tosses(), 1);
            assert_eq!(run.event_count(), 4);
            assert_eq!(run.events().is_empty(), lightweight);
            assert!(c.to_string().contains("2 procs"));
        }
    }

    #[test]
    fn record_shared_matches_record_in_both_modes() {
        for lightweight in [false, true] {
            let make = || {
                if lightweight {
                    Run::lightweight(2)
                } else {
                    Run::new(2)
                }
            };
            let (mut by_event, mut by_parts) = (make(), make());
            let op = Operation::Ll(RegisterId(3));
            let resp = Response::Value(Value::from(9i64));
            by_event.record(RunEvent::SharedOp {
                pid: ProcessId(1),
                op: op.clone(),
                resp: resp.clone(),
            });
            by_parts.record_shared(ProcessId(1), &op, &resp);
            assert_eq!(by_event.events(), by_parts.events());
            assert_eq!(
                by_event.history(ProcessId(1)),
                by_parts.history(ProcessId(1))
            );
            assert_eq!(by_event.counters(), by_parts.counters());
        }
    }

    #[test]
    #[should_panic(expected = "terminated")]
    fn record_shared_for_terminated_process_panics() {
        let mut run = Run::new(1);
        run.record(RunEvent::Terminated {
            pid: ProcessId(0),
            value: Value::Unit,
        });
        run.record_shared(
            ProcessId(0),
            &Operation::Ll(RegisterId(0)),
            &Response::Value(Value::Unit),
        );
    }

    #[test]
    fn empty_run_max_steps_is_zero() {
        let run = Run::new(0);
        assert_eq!(run.max_shared_steps(), 0);
        assert!(run.is_terminating(), "vacuously terminating");
    }

    #[test]
    fn rmr_accounting_aggregates_per_process() {
        let mut run = Run::lightweight(2);
        run.record(op_event(0));
        run.record_rmrs(ProcessId(0), 1, 1);
        run.record(op_event(0));
        run.record_rmrs(ProcessId(0), 0, 1);
        run.record(op_event(1));
        run.record_rmrs(ProcessId(1), 2, 0);
        assert_eq!(run.cc_rmrs(ProcessId(0)), 1);
        assert_eq!(run.dsm_rmrs(ProcessId(0)), 2);
        assert_eq!(run.cc_rmrs(ProcessId(1)), 2);
        let c = run.counters();
        assert_eq!(c.cc_rmrs, vec![1, 2]);
        assert_eq!(c.dsm_rmrs, vec![2, 0]);
        assert_eq!(c.total_cc_rmrs(), 3);
        assert_eq!(c.total_dsm_rmrs(), 2);
        run.reset();
        assert_eq!(run.counters().total_cc_rmrs(), 0);
    }

    #[test]
    fn crash_and_recovery_counting() {
        let mut run = Run::new(2);
        run.mark_crashed(ProcessId(0));
        assert!(run.is_crashed(ProcessId(0)));
        run.clear_crash(ProcessId(0));
        assert!(!run.is_crashed(ProcessId(0)));
        // Events are legal again after recovery, and a second crash of the
        // same process is counted separately.
        run.record(op_event(0));
        run.mark_crashed(ProcessId(0));
        let c = run.counters();
        assert_eq!((c.crashes[0], c.recoveries[0]), (2, 1));
        assert_eq!(c.total_crashes(), 2);
        assert_eq!(c.total_recoveries(), 1);
        assert_eq!(c.crashes, vec![2, 0]);
    }

    #[test]
    #[should_panic(expected = "non-crashed")]
    fn recovery_of_live_process_panics() {
        let mut run = Run::new(1);
        run.clear_crash(ProcessId(0));
    }

    #[test]
    fn display_lists_events() {
        let mut run = Run::new(1);
        run.record(op_event(0));
        let s = run.to_string();
        assert!(s.contains("p0: LL(R0)"));
    }
}
