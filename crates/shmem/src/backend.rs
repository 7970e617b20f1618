//! Backend-generic execution: the surface a [`Program`] runs against.
//!
//! A program never touches [`SharedMemory`] directly —
//! it emits [`Action`]s and consumes [`Feedback`]s. Everything the model
//! needs from the outside world is therefore two calls wide: *apply this
//! shared-memory operation* and *answer my next coin toss*. The
//! [`ExecutionBackend`] trait names exactly that surface, which makes the
//! entire algorithm layer (wakeup solutions, universal constructions, the
//! Theorem 6.2 reductions) portable across execution substrates:
//!
//! * [`SimBackend`] — the deterministic simulator memory behind a trait
//!   object. Same [`RegisterState`](crate::RegisterState) semantics as the
//!   [`Executor`](crate::Executor) (which keeps its own direct wiring — the
//!   discrete-event engine and its byte-stable artifacts are untouched by
//!   this abstraction), serialized by a mutex so it can also be driven from
//!   many threads.
//! * `llsc-atomics`' hardware backend — LL/SC/VL built from pointer-width
//!   compare-and-swap over `std::sync::atomic`, following Blelloch–Wei
//!   (arXiv:1911.09671), driven by one OS thread per process.
//!
//! The drivers here ([`drive_program`], [`run_sequential`]) are
//! backend-agnostic; the thread-per-process driver lives in `llsc-atomics`
//! next to the memory it exercises. Cross-backend conformance tests live
//! in `llsc-atomics/tests/conformance.rs`.

use crate::{
    Action, Algorithm, Feedback, Operation, ProcessId, Program, RegisterId, Response, RunError,
    SharedMemory, TossAssignment, Value,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The execution surface shared by every backend: the five-operation
/// memory, the coin-toss oracle, and the per-process shared-access
/// accounting the paper's complexity measure is defined over.
///
/// Methods take `&self` and implementations must be [`Sync`]: the
/// hardware backend is called concurrently from one OS thread per
/// process, and the simulator backend serializes internally.
pub trait ExecutionBackend: Send + Sync {
    /// A short stable name (`"sim"`, `"atomic"`), used by CLI flags and
    /// artifact labels.
    fn backend_name(&self) -> &'static str;

    /// The number of processes this instance was built for.
    fn n(&self) -> usize;

    /// Applies one shared-memory operation on behalf of `p` and returns
    /// its response — the paper's strong LL/SC/VL/swap/move semantics.
    /// Each call counts one shared access against `p`.
    fn apply(&self, p: ProcessId, op: &Operation) -> Response;

    /// Answers `p`'s next coin toss. Backends answer from a
    /// [`TossAssignment`], so a seeded run is reproducible on both
    /// substrates (tosses are indexed per process by call order).
    fn toss(&self, p: ProcessId) -> u64;

    /// Shared-memory operations `p` has performed so far — the paper's
    /// `t(p, R)` accounting summed over registers.
    fn shared_accesses(&self, p: ProcessId) -> u64;

    /// Remote memory references `p` has been billed so far under the
    /// distributed-shared-memory cost model (`home(R) = R mod n`, see
    /// [`crate::dsm_home`]). DSM remoteness is a pure function of
    /// `(process, register, n)`, so *every* backend can account it
    /// locally — unlike the cache-coherent charge, which needs the
    /// coherence history the simulator's executor tracks. Defaults to 0
    /// for backends that do not bill RMRs.
    fn dsm_rmrs(&self, _p: ProcessId) -> u64 {
        0
    }

    /// Diagnostic: the register's current value without performing an
    /// operation (no access is counted and no link state changes).
    fn peek(&self, r: RegisterId) -> Value;

    /// Diagnostic: whether `p`'s link on `r` is currently valid, i.e.
    /// whether an SC by `p` would succeed — `p ∈ Pset(r)` in the paper's
    /// terms. The simulator reads the register's `Pset`; the hardware
    /// backend derives it from its version tags.
    fn linked(&self, p: ProcessId, r: RegisterId) -> bool;

    /// `true` when runs on this backend are a pure function of
    /// (algorithm, schedule, toss assignment) — the simulator. Real
    /// hardware interleaves nondeterministically.
    fn is_deterministic(&self) -> bool;
}

/// The deterministic simulator memory behind the [`ExecutionBackend`]
/// trait: a [`SharedMemory`] plus a toss assignment, serialized by a
/// mutex.
///
/// This is the same register semantics the [`Executor`](crate::Executor)
/// hard-wires; the executor keeps its direct wiring (its event recording,
/// fault injection, and golden artifacts are out of scope for backends),
/// while `SimBackend` is the reference implementation conformance tests
/// and cross-validation compare the hardware backend against.
#[derive(Debug)]
pub struct SimBackend {
    n: usize,
    mem: Mutex<SharedMemory>,
    toss: Arc<dyn TossAssignment>,
    accesses: Vec<AtomicU64>,
    dsm_rmrs: Vec<AtomicU64>,
    tosses: Vec<AtomicU64>,
}

impl SimBackend {
    /// A backend for `n` processes with an empty memory.
    pub fn new(n: usize, toss: Arc<dyn TossAssignment>) -> SimBackend {
        SimBackend {
            n,
            mem: Mutex::new(SharedMemory::new()),
            toss,
            accesses: (0..n).map(|_| AtomicU64::new(0)).collect(),
            dsm_rmrs: (0..n).map(|_| AtomicU64::new(0)).collect(),
            tosses: (0..n).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// A backend seeded with `alg`'s initial memory for `n` processes.
    pub fn for_algorithm(
        alg: &dyn Algorithm,
        n: usize,
        toss: Arc<dyn TossAssignment>,
    ) -> SimBackend {
        let backend = SimBackend::new(n, toss);
        *backend.mem.lock().expect("fresh lock") =
            SharedMemory::with_initial(alg.initial_memory(n));
        backend
    }

    fn mem(&self) -> std::sync::MutexGuard<'_, SharedMemory> {
        // A panic while holding the lock leaves no torn state in a
        // BTreeMap-backed memory; recover the guard.
        self.mem.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl ExecutionBackend for SimBackend {
    fn backend_name(&self) -> &'static str {
        "sim"
    }

    fn n(&self) -> usize {
        self.n
    }

    fn apply(&self, p: ProcessId, op: &Operation) -> Response {
        self.accesses[p.0].fetch_add(1, Ordering::Relaxed);
        let dsm = crate::dsm_cost(p, op, self.n);
        if dsm > 0 {
            self.dsm_rmrs[p.0].fetch_add(dsm, Ordering::Relaxed);
        }
        self.mem().apply(p, op)
    }

    fn toss(&self, p: ProcessId) -> u64 {
        let index = self.tosses[p.0].fetch_add(1, Ordering::Relaxed);
        self.toss.outcome(p, index)
    }

    fn shared_accesses(&self, p: ProcessId) -> u64 {
        self.accesses[p.0].load(Ordering::Relaxed)
    }

    fn dsm_rmrs(&self, p: ProcessId) -> u64 {
        self.dsm_rmrs[p.0].load(Ordering::Relaxed)
    }

    fn peek(&self, r: RegisterId) -> Value {
        self.mem().peek(r)
    }

    fn linked(&self, p: ProcessId, r: RegisterId) -> bool {
        self.mem().peek_linked(r, p)
    }

    fn is_deterministic(&self) -> bool {
        true
    }
}

/// Drives one program against a backend until it returns, answering its
/// tosses and operations from the backend.
///
/// This is the inner loop of every backend-generic driver: the simulator's
/// sequential runner below and the thread-per-process hardware driver in
/// `llsc-atomics` both delegate here.
///
/// # Errors
///
/// [`RunError::BudgetExhausted`] when the program has not returned after
/// `max_steps` actions.
pub fn drive_program(
    backend: &dyn ExecutionBackend,
    pid: ProcessId,
    prog: &mut dyn Program,
    max_steps: u64,
) -> Result<Value, RunError> {
    let mut feedback = Feedback::Start;
    for _ in 0..max_steps {
        match prog.next(feedback) {
            Action::Toss => feedback = Feedback::Coin(backend.toss(pid)),
            Action::Invoke(op) => feedback = Feedback::Response(backend.apply(pid, &op)),
            Action::Return(v) => return Ok(v),
        }
    }
    Err(RunError::BudgetExhausted { events: max_steps })
}

/// The result of a backend-generic run: per-process responses and
/// shared-access counts.
#[derive(Clone, Debug, PartialEq)]
pub struct BackendRun {
    /// Each process's return value, indexed by process id.
    pub responses: Vec<Value>,
    /// Shared-memory operations performed by each process — the paper's
    /// complexity accounting, as reported by the backend.
    pub per_process_ops: Vec<u64>,
}

impl BackendRun {
    /// `max_p` of the per-process counts — the run's shared-access time
    /// complexity.
    pub fn max_ops(&self) -> u64 {
        self.per_process_ops.iter().copied().max().unwrap_or(0)
    }
}

/// Runs every process of `alg` to completion, one at a time in id order —
/// the contention-free sequential schedule, available on any backend.
///
/// # Errors
///
/// [`RunError::BudgetExhausted`] if any single process exceeds
/// `max_steps` actions.
pub fn run_sequential(
    backend: &dyn ExecutionBackend,
    alg: &dyn Algorithm,
    max_steps: u64,
) -> Result<BackendRun, RunError> {
    let n = backend.n();
    let mut responses = Vec::with_capacity(n);
    let mut per_process_ops = Vec::with_capacity(n);
    for pid in ProcessId::all(n) {
        let before = backend.shared_accesses(pid);
        let mut prog = alg.spawn(pid, n);
        responses.push(drive_program(backend, pid, prog.as_mut(), max_steps)?);
        per_process_ops.push(backend.shared_accesses(pid) - before);
    }
    Ok(BackendRun {
        responses,
        per_process_ops,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::{done, ll, sc, toss};
    use crate::{FnAlgorithm, SeededTosses, ZeroTosses};

    fn sc_race_alg() -> impl Algorithm {
        FnAlgorithm::new("sc-race", |pid: ProcessId, _n| {
            let r = RegisterId(0);
            ll(r, move |_| {
                sc(r, Value::from(pid.0 as i64), |ok, _| done(Value::from(ok)))
            })
            .into_program()
        })
    }

    #[test]
    fn sequential_run_counts_and_responds() {
        let alg = sc_race_alg();
        let backend = SimBackend::for_algorithm(&alg, 3, Arc::new(ZeroTosses));
        let run = run_sequential(&backend, &alg, 1_000).unwrap();
        // Sequentially, every process's SC succeeds (no interleaving).
        assert_eq!(run.responses, vec![Value::from(true); 3]);
        assert_eq!(run.per_process_ops, vec![2, 2, 2]);
        assert_eq!(run.max_ops(), 2);
        assert_eq!(backend.shared_accesses(ProcessId(1)), 2);
        assert_eq!(backend.peek(RegisterId(0)), Value::from(2i64));
        assert!(backend.is_deterministic());
        assert_eq!(backend.backend_name(), "sim");
    }

    #[test]
    fn interleaved_sc_fails_after_conflicting_sc() {
        let backend = SimBackend::new(2, Arc::new(ZeroTosses));
        let (p0, p1) = (ProcessId(0), ProcessId(1));
        let r = RegisterId(0);
        // Both LL; p1 SCs first; p0's SC must fail.
        backend.apply(p0, &Operation::Ll(r));
        backend.apply(p1, &Operation::Ll(r));
        assert!(backend.linked(p0, r) && backend.linked(p1, r));
        let ok = backend.apply(p1, &Operation::Sc(r, Value::from(7i64)));
        assert_eq!(ok.flag(), Some(true));
        assert!(!backend.linked(p0, r), "conflicting SC clears the Pset");
        let fail = backend.apply(p0, &Operation::Sc(r, Value::from(9i64)));
        assert_eq!(fail.flag(), Some(false));
        assert_eq!(backend.peek(r), Value::from(7i64));
        assert_eq!(backend.shared_accesses(p0), 2);
        assert_eq!(backend.shared_accesses(p1), 2);
    }

    #[test]
    fn tosses_are_indexed_per_process_and_deterministic() {
        let toss_fn = Arc::new(SeededTosses::new(42));
        let a = SimBackend::new(2, toss_fn.clone());
        let b = SimBackend::new(2, toss_fn.clone());
        let seq_a: Vec<u64> = (0..8).map(|_| a.toss(ProcessId(0))).collect();
        let seq_b: Vec<u64> = (0..8).map(|_| b.toss(ProcessId(0))).collect();
        assert_eq!(seq_a, seq_b, "same assignment, same call order, same run");
        // Matches the assignment's pure indexing.
        let direct: Vec<u64> = (0..8).map(|i| toss_fn.outcome(ProcessId(0), i)).collect();
        assert_eq!(seq_a, direct);
        // Another process draws an independent sequence.
        assert_ne!(
            (0..8).map(|_| a.toss(ProcessId(1))).collect::<Vec<_>>(),
            seq_a
        );
    }

    #[test]
    fn driver_budget_is_enforced() {
        let alg = FnAlgorithm::new("spin", |_pid, _n| {
            fn spin() -> crate::dsl::Step {
                toss(|_| spin())
            }
            spin().into_program()
        });
        let backend = SimBackend::new(1, Arc::new(ZeroTosses));
        let mut prog = alg.spawn(ProcessId(0), 1);
        let err = drive_program(&backend, ProcessId(0), prog.as_mut(), 64).unwrap_err();
        assert_eq!(err, RunError::BudgetExhausted { events: 64 });
    }

    #[test]
    fn initial_memory_is_honoured() {
        let alg = FnAlgorithm::new("reader", |_pid, _n| ll(RegisterId(5), done).into_program())
            .with_initial_memory(vec![(RegisterId(5), Value::from(41i64))]);
        let backend = SimBackend::for_algorithm(&alg, 1, Arc::new(ZeroTosses));
        let run = run_sequential(&backend, &alg, 100).unwrap();
        assert_eq!(run.responses, vec![Value::from(41i64)]);
    }
}
