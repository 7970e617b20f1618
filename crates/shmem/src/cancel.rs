//! Cooperative cancellation for running trials.
//!
//! A [`CancelToken`] is the one handle through which a running sweep can
//! be stopped early: a shared cancel flag plus an optional wall-clock
//! deadline. Whoever owns the work holds a clone — the job runner for a
//! chunk, a signal handler for a whole job — and the trials observe it
//! through the executor's event guard, which polls the token installed on
//! its thread every [`CANCEL_POLL_EVENTS`] events and panics into the
//! trial's failure path once the token is cancelled or past its deadline.
//! The hardware driver in `llsc-atomics` stops its process threads
//! through a run-local token the same way, so there is one stop
//! mechanism for simulated and real trials alike.
//!
//! Tokens are per owner, never process-global: two sweeps running side by
//! side with different tokens cannot stop each other.

use std::any::Any;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How many events pass between two looks at a token's deadline. The
/// executor's event guard polls its trial token (flag and deadline) this
/// often; the hardware driver in `llsc-atomics` reads its run token's
/// flag on every action and its deadline this often, since reading the
/// clock is the costly half of a check.
pub const CANCEL_POLL_EVENTS: u64 = 512;

/// A cloneable cancel flag with an optional deadline.
///
/// Clones share the flag: [`CancelToken::cancel`] on any of them cancels
/// all of them. [`CancelToken::with_timeout`] derives a token that shares
/// the flag too but carries its own (earlier or equal) deadline, so a
/// per-trial timeout nests inside a per-chunk one.
///
/// # Examples
///
/// ```
/// use llsc_shmem::CancelToken;
/// use std::time::Duration;
///
/// let job = CancelToken::new();
/// let chunk = job.with_timeout(Duration::from_secs(60));
/// assert!(!chunk.is_cancelled());
/// job.cancel();
/// assert!(chunk.is_cancelled(), "a derived token shares its parent's flag");
/// ```
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A fresh, uncancelled token with no deadline.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Cancels this token and every token sharing its flag. A single
    /// atomic store, so it is async-signal-safe.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// Whether the shared flag has been raised.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }

    /// A token sharing this one's flag whose deadline is `timeout` from
    /// now, or this token's own deadline if that comes first.
    pub fn with_timeout(&self, timeout: Duration) -> CancelToken {
        let deadline = Instant::now() + timeout;
        CancelToken {
            flag: Arc::clone(&self.flag),
            deadline: Some(self.deadline.map_or(deadline, |d| d.min(deadline))),
        }
    }

    /// Whether the token's deadline has passed (`false` without one).
    pub fn is_expired(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Panics — into the enclosing trial's failure path — when the token
    /// is cancelled or past its deadline; `events` is reported in the
    /// payload. A no-op otherwise.
    pub fn check(&self, events: u64) {
        if self.is_cancelled() {
            panic!("sweep cancelled after {events} recorded events");
        }
        if self.is_expired() {
            panic!("wall-clock deadline exceeded after {events} recorded events");
        }
    }
}

thread_local! {
    /// The token of the trial currently running on this thread, if its
    /// sweep installed one.
    static TRIAL_TOKEN: RefCell<Option<CancelToken>> = const { RefCell::new(None) };
}

/// Restores the thread's previous trial token on drop, including across
/// the unwind of a cancelled (panicking) trial.
pub(crate) struct InstalledToken {
    prev: Option<CancelToken>,
}

/// Installs `token` as the calling thread's trial token until the guard
/// drops.
pub(crate) fn install(token: CancelToken) -> InstalledToken {
    let prev = TRIAL_TOKEN.with(|slot| slot.replace(Some(token)));
    InstalledToken { prev }
}

impl Drop for InstalledToken {
    fn drop(&mut self) {
        let prev = self.prev.take();
        TRIAL_TOKEN.with(|slot| *slot.borrow_mut() = prev);
    }
}

/// Polls the calling thread's trial token (see [`CancelToken::check`]);
/// a no-op on threads with none installed, so executors driven outside
/// sweeps are unaffected.
pub(crate) fn check_trial_token(events: u64) {
    TRIAL_TOKEN.with(|slot| {
        if let Some(token) = slot.borrow().as_ref() {
            token.check(events);
        }
    });
}

/// Stringifies a panic payload (the `Box<dyn Any>` from `catch_unwind` or
/// `join`): `&str` and `String` payloads verbatim, anything else as
/// `<non-string panic payload>`.
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_deadlines_nest_and_share_the_flag() {
        let chunk = CancelToken::new().with_timeout(Duration::ZERO);
        let trial = chunk.with_timeout(Duration::from_secs(3600));
        assert!(trial.is_expired(), "the earlier (chunk) deadline wins");
        assert!(!CancelToken::new().is_expired(), "no deadline, no expiry");
        trial.cancel();
        assert!(chunk.is_cancelled(), "derived tokens share one flag");
    }

    #[test]
    fn panic_message_formats_every_payload_kind() {
        let text: Box<dyn Any + Send> = Box::new("static");
        let owned: Box<dyn Any + Send> = Box::new(String::from("owned"));
        let opaque: Box<dyn Any + Send> = Box::new(7u32);
        assert_eq!(panic_message(text.as_ref()), "static");
        assert_eq!(panic_message(owned.as_ref()), "owned");
        assert_eq!(panic_message(opaque.as_ref()), "<non-string panic payload>");
    }
}
