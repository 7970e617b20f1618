//! The hardening kit: sealing, bounded backoff and detection telemetry,
//! shared by every hardened algorithm — the three hardened universal
//! constructions of this crate and the three hardened wakeup algorithms
//! of `llsc-wakeup`.
//!
//! The kit keeps the hardened twins' one invariant: **zero extra shared
//! accesses when no fault fires**. Sealing rides on values an algorithm
//! writes anyway, [`backoff`] and [`publish`] touch memory only once a
//! fault was detected, and the telemetry registers lie above every
//! register a shipped algorithm uses, so a fault-free run never reads or
//! writes them.
//!
//! **Telemetry layout.** Process `p` publishes its detection count to
//! [`detect_reg`]`(p)` = `DETECT_BASE + p` and backs off on
//! `BACKOFF_BASE + p mod 16`. Both bases lie above `2^40`, the detect
//! range above the backoff range. The bases are ≡ 900 and ≡ 960 modulo
//! lcm(1, …, 16) = 720 720, so for every `n ≤ 16` a telemetry access has
//! the DSM home `R mod n` of register `900 + p` or `960 + p mod 16`, and
//! the recorded E20 DSM RMR counts hold.

use llsc_shmem::dsl::{read, swap, Step};
use llsc_shmem::{ProcessId, RegisterId, Value};

/// lcm(1, …, 16): moving a register by a multiple of this keeps its DSM
/// home `R mod n` for every `n ≤ 16`.
const HOME_PERIOD: u64 = 720_720;

/// The first multiple of [`HOME_PERIOD`] above `2^40`.
const TELEMETRY_FLOOR: u64 = ((1 << 40) / HOME_PERIOD + 1) * HOME_PERIOD;

/// Base of the backoff scratch registers: `BACKOFF_BASE + pid mod 16`.
pub const BACKOFF_BASE: u64 = TELEMETRY_FLOOR + 960;

/// Base of the detection-telemetry registers: `DETECT_BASE + pid`.
pub const DETECT_BASE: u64 = TELEMETRY_FLOOR + HOME_PERIOD + 900;

// Both ranges above 2^40, the 16 backoff registers below the detect range.
const _: () = assert!(BACKOFF_BASE > 1 << 40 && BACKOFF_BASE + 16 <= DETECT_BASE);

/// Maximum backoff reads before a detected-fault retry.
pub const BACKOFF_CAP: u64 = 3;

/// The telemetry register process `pid` swaps its detection count into —
/// touched only when at least one fault was detected.
pub fn detect_reg(pid: ProcessId) -> RegisterId {
    RegisterId(DETECT_BASE + pid.0 as u64)
}

/// Seals a payload with its structural [`Value::fingerprint`] checksum.
pub fn seal(payload: Value) -> Value {
    let fp = payload.fingerprint();
    Value::tuple([payload, Value::from(fp)])
}

/// Validates and unwraps a sealed payload; `None` means corruption.
pub fn unseal(v: &Value) -> Option<Value> {
    let items = v.as_tuple()?;
    if items.len() != 2 {
        return None;
    }
    let fp = items[1].as_int()?;
    if fp != i128::from(items[0].fingerprint()) {
        return None;
    }
    Some(items[0].clone())
}

/// `min(detections, BACKOFF_CAP)` reads of `pid`'s backoff scratch
/// register, then `then`: a retry after the `d`-th detection waits `d`
/// reads, never more than [`BACKOFF_CAP`].
pub fn backoff(pid: ProcessId, detections: u64, then: impl FnOnce() -> Step + 'static) -> Step {
    fn reads(reg: RegisterId, left: u64, then: impl FnOnce() -> Step + 'static) -> Step {
        if left == 0 {
            then()
        } else {
            read(reg, move |_| reads(reg, left - 1, then))
        }
    }
    let reg = RegisterId(BACKOFF_BASE + pid.0 as u64 % 16);
    reads(reg, detections.min(BACKOFF_CAP), then)
}

/// Publishes `pid`'s detection count, then `then` — but only when the
/// count is nonzero, so a fault-free invocation ends exactly like its
/// unhardened twin.
pub fn publish(pid: ProcessId, detections: u64, then: impl FnOnce() -> Step + 'static) -> Step {
    if detections == 0 {
        then()
    } else {
        swap(detect_reg(pid), Value::from(detections as i64), move |_| {
            then()
        })
    }
}

/// Detections the `n` processes published, read through `peek` (the
/// simulator's memory or the hardware memory) — the one telemetry reader
/// both backends classify trials with.
pub fn detections(n: usize, peek: impl Fn(RegisterId) -> Value) -> u64 {
    ProcessId::all(n)
        .map(|p| peek(detect_reg(p)).as_int().unwrap_or(0).max(0) as u64)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use llsc_shmem::dsl::done;
    use llsc_shmem::{Executor, ExecutorConfig, FnAlgorithm, RoundRobinScheduler, ZeroTosses};
    use std::sync::Arc;

    #[test]
    fn bases_keep_small_n_dsm_homes() {
        for n in 1..=16u64 {
            assert_eq!(DETECT_BASE % n, 900 % n, "n={n}");
            assert_eq!(BACKOFF_BASE % n, 960 % n, "n={n}");
        }
    }

    /// Runs `step(pid)` as every process of an `n`-process run.
    fn run(n: usize, step: fn(ProcessId) -> Step) -> Executor {
        let alg = FnAlgorithm::new("kit", move |pid, _| step(pid).into_program());
        let mut e = Executor::new(&alg, n, Arc::new(ZeroTosses), ExecutorConfig::default());
        e.drive(&mut RoundRobinScheduler::new(), 1_000).unwrap();
        e
    }

    #[test]
    fn backoff_is_capped_and_publish_is_silent_without_detections() {
        let e = run(2, |pid| {
            backoff(pid, 7, move || publish(pid, 0, || done(Value::Unit)))
        });
        assert_eq!(e.memory().stats().total(), 2 * BACKOFF_CAP);
        assert_eq!(detections(2, |r| e.memory().peek(r)), 0);
        let e = run(3, |pid| {
            backoff(pid, 0, move || {
                publish(pid, pid.0 as u64, || done(Value::Unit))
            })
        });
        assert_eq!(e.memory().stats().total(), 2, "p0 publishes nothing");
        assert_eq!(detections(3, |r| e.memory().peek(r)), 3);
    }
}
