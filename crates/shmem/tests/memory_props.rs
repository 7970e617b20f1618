//! Property-based validation of the shared-memory semantics against an
//! independent oracle.
//!
//! The oracle re-implements the Section-3 register semantics from the
//! paper's text, as directly as possible (one `match` per operation over a
//! `(value, pset)` pair), with none of the structure of the production
//! `SharedMemory`. Random operation sequences must behave identically on
//! both.
//!
//! Inputs are drawn from the repository's deterministic [`XorShift64`]
//! stream (seeded per case), so every run exercises the same histories and
//! failures reproduce from the printed seed alone.

use llsc_shmem::rng::XorShift64;
use llsc_shmem::{Operation, ProcessId, RegisterId, Response, SharedMemory, Value};
use std::collections::{BTreeMap, BTreeSet};

/// Whether `p` is in `Pset(reg)`, read off the memory's snapshot.
fn linked(mem: &SharedMemory, reg: RegisterId, p: ProcessId) -> bool {
    mem.snapshot().iter().any(|(r, s)| *r == reg && s.linked(p))
}

const CASES: u64 = 256;

/// The oracle: a literal transcription of the paper's operation semantics.
#[derive(Default)]
struct Oracle {
    regs: BTreeMap<RegisterId, (Value, BTreeSet<ProcessId>)>,
}

impl Oracle {
    fn reg(&mut self, r: RegisterId) -> &mut (Value, BTreeSet<ProcessId>) {
        self.regs.entry(r).or_default()
    }

    fn apply(&mut self, p: ProcessId, op: &Operation) -> Response {
        match op {
            Operation::Ll(r) => {
                let (v, pset) = self.reg(*r);
                pset.insert(p);
                Response::Value(v.clone())
            }
            Operation::Validate(r) => {
                let (v, pset) = self.reg(*r);
                Response::Flagged {
                    ok: pset.contains(&p),
                    value: v.clone(),
                }
            }
            Operation::Sc(r, new) => {
                let (v, pset) = self.reg(*r);
                if pset.contains(&p) {
                    let prev = v.clone();
                    *v = new.clone();
                    pset.clear();
                    Response::Flagged {
                        ok: true,
                        value: prev,
                    }
                } else {
                    Response::Flagged {
                        ok: false,
                        value: v.clone(),
                    }
                }
            }
            Operation::Swap(r, new) => {
                let (v, pset) = self.reg(*r);
                let prev = v.clone();
                *v = new.clone();
                pset.clear();
                Response::Value(prev)
            }
            Operation::Move { src, dst } => {
                let moved = self.reg(*src).0.clone();
                let (v, pset) = self.reg(*dst);
                *v = moved;
                pset.clear();
                Response::Ack
            }
        }
    }
}

/// Draws a random `(process, operation)` pair: uniform over the five
/// operation kinds, registers in `0..4`, processes in `0..3`, written
/// values in `-4..4`.
fn random_op(rng: &mut XorShift64) -> (usize, Operation) {
    let p = rng.index(3);
    let r = RegisterId(rng.below(4));
    let op = match rng.index(5) {
        0 => Operation::Ll(r),
        1 => Operation::Validate(r),
        2 => Operation::Sc(r, Value::from(rng.range_i64(-4, 4))),
        3 => Operation::Swap(r, Value::from(rng.range_i64(-4, 4))),
        _ => Operation::Move {
            src: r,
            dst: RegisterId(rng.below(4)),
        },
    };
    (p, op)
}

fn random_history(rng: &mut XorShift64, max_len: usize) -> Vec<(usize, Operation)> {
    let len = rng.index(max_len + 1);
    (0..len).map(|_| random_op(rng)).collect()
}

/// SharedMemory agrees with the literal oracle on random histories.
#[test]
fn memory_matches_oracle() {
    for case in 0..CASES {
        let mut rng = XorShift64::new(case);
        let ops = random_history(&mut rng, 60);
        let mut mem = SharedMemory::new();
        let mut oracle = Oracle::default();
        for (p, op) in &ops {
            let got = mem.apply(ProcessId(*p), op);
            let want = oracle.apply(ProcessId(*p), op);
            assert_eq!(got, want, "case {case}: op {op} by p{p}");
        }
        // Final states agree too.
        for (r, (v, pset)) in &oracle.regs {
            assert_eq!(&mem.peek(*r), v, "case {case}");
            for p in 0..3 {
                assert_eq!(
                    linked(&mem, *r, ProcessId(p)),
                    pset.contains(&ProcessId(p)),
                    "case {case}"
                );
            }
        }
    }
}

/// An SC succeeds iff no successful SC, swap, or move-into happened on
/// the register since the caller's latest LL.
#[test]
fn sc_success_characterisation() {
    for case in 0..CASES {
        let mut rng = XorShift64::new(0x5C00 + case);
        let ops = random_history(&mut rng, 60);
        let mut mem = SharedMemory::new();
        // For each (process, register): index of the last LL; for each
        // register: index of the last invalidating write.
        let mut last_ll: BTreeMap<(usize, u64), usize> = BTreeMap::new();
        let mut last_invalidate: BTreeMap<u64, usize> = BTreeMap::new();
        for (i, (p, op)) in ops.iter().enumerate() {
            let resp = mem.apply(ProcessId(*p), op);
            match op {
                Operation::Ll(r) => {
                    last_ll.insert((*p, r.0), i);
                }
                Operation::Sc(r, _) => {
                    let expected = match last_ll.get(&(*p, r.0)) {
                        None => false,
                        Some(&t_ll) => last_invalidate.get(&r.0).is_none_or(|&t_w| t_w < t_ll),
                    };
                    assert_eq!(resp.flag(), Some(expected), "case {case}, step {i}");
                    if expected {
                        last_invalidate.insert(r.0, i);
                        // A successful SC also invalidates the winner's
                        // own link.
                        last_ll.retain(|&(_, reg), &mut t| !(reg == r.0 && t <= i));
                    }
                }
                Operation::Swap(r, _) => {
                    last_invalidate.insert(r.0, i);
                    last_ll.retain(|&(_, reg), &mut t| !(reg == r.0 && t <= i));
                }
                Operation::Move { dst, .. } => {
                    last_invalidate.insert(dst.0, i);
                    last_ll.retain(|&(_, reg), &mut t| !(reg == dst.0 && t <= i));
                }
                Operation::Validate(_) => {}
            }
        }
    }
}

/// `validate` never changes any observable state.
#[test]
fn validate_is_pure() {
    for case in 0..CASES {
        let mut rng = XorShift64::new(0x7A11 + case);
        let ops = random_history(&mut rng, 30);
        let probe_reg = rng.below(4);
        let probe_pid = rng.index(3);
        let mut mem = SharedMemory::new();
        for (p, op) in &ops {
            mem.apply(ProcessId(*p), op);
        }
        let value_before = mem.peek(RegisterId(probe_reg));
        let links_before: Vec<bool> = (0..3)
            .map(|p| linked(&mem, RegisterId(probe_reg), ProcessId(p)))
            .collect();
        mem.apply(
            ProcessId(probe_pid),
            &Operation::Validate(RegisterId(probe_reg)),
        );
        assert_eq!(mem.peek(RegisterId(probe_reg)), value_before, "case {case}");
        let links_after: Vec<bool> = (0..3)
            .map(|p| linked(&mem, RegisterId(probe_reg), ProcessId(p)))
            .collect();
        assert_eq!(links_before, links_after, "case {case}");
    }
}

/// `move` leaves its source completely untouched.
#[test]
fn move_preserves_source() {
    for case in 0..CASES {
        let mut rng = XorShift64::new(0x30F3 + case);
        let ops = random_history(&mut rng, 30);
        let src = rng.below(4);
        let dst = rng.below(4);
        let mut mem = SharedMemory::new();
        for (p, op) in &ops {
            mem.apply(ProcessId(*p), op);
        }
        let value_before = mem.peek(RegisterId(src));
        let links_before: Vec<bool> = (0..3)
            .map(|p| linked(&mem, RegisterId(src), ProcessId(p)))
            .collect();
        mem.apply(
            ProcessId(0),
            &Operation::Move {
                src: RegisterId(src),
                dst: RegisterId(dst),
            },
        );
        if src != dst {
            assert_eq!(
                mem.peek(RegisterId(src)),
                value_before.clone(),
                "case {case}"
            );
            let links_after: Vec<bool> = (0..3)
                .map(|p| linked(&mem, RegisterId(src), ProcessId(p)))
                .collect();
            assert_eq!(links_before, links_after, "case {case}");
        }
        // The destination always carries the source's value.
        assert_eq!(mem.peek(RegisterId(dst)), value_before, "case {case}");
    }
}
