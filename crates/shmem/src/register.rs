//! The state of a single shared register: `value(R)` and `Pset(R)`.

use crate::{ProcMask, ProcessId, Value};
use std::fmt;

/// The state of a shared register.
///
/// Per Section 3 of the paper, a register's state is the pair
/// `(value(R), Pset(R))`, where `Pset(R)` ("process set") holds the
/// processes whose latest `LL` of `R` has not been invalidated by a
/// successful `SC`, `swap`, or `move` into `R`.
///
/// The mutating methods implement the paper's operation semantics exactly;
/// [`crate::SharedMemory`] dispatches to them.
///
/// # Examples
///
/// ```
/// use llsc_shmem::{ProcessId, RegisterState, Value};
/// let mut r = RegisterState::new(Value::from(0i64));
/// let (p, q) = (ProcessId(0), ProcessId(1));
/// assert_eq!(r.ll(p), Value::from(0i64));
/// // q never LL'd, so q's SC fails and leaves the register unchanged.
/// assert_eq!(r.sc(q, Value::from(9i64)), (false, Value::from(0i64)));
/// // p's SC succeeds and returns the previous value.
/// assert_eq!(r.sc(p, Value::from(5i64)), (true, Value::from(0i64)));
/// assert_eq!(r.value(), &Value::from(5i64));
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RegisterState {
    value: Value,
    pset: ProcMask,
}

impl RegisterState {
    /// Creates a register holding `value` with an empty `Pset`.
    pub fn new(value: Value) -> Self {
        RegisterState {
            value,
            pset: ProcMask::new(),
        }
    }

    /// The register's current value.
    pub fn value(&self) -> &Value {
        &self.value
    }

    /// The register's current `Pset`.
    pub fn pset(&self) -> &ProcMask {
        &self.pset
    }

    /// Whether `p` currently holds a valid link on this register.
    pub fn linked(&self, p: ProcessId) -> bool {
        self.pset.contains(p)
    }

    /// `LL(R)` by `p`: adds `p` to `Pset(R)` and returns `value(R)`.
    pub fn ll(&mut self, p: ProcessId) -> Value {
        self.pset.insert(p);
        self.value.clone()
    }

    /// `validate(R)` by `p`: returns `(p ∈ Pset(R), value(R))` without
    /// changing the register.
    pub fn validate(&self, p: ProcessId) -> (bool, Value) {
        (self.linked(p), self.value.clone())
    }

    /// `SC(R, v)` by `p`.
    ///
    /// If `p ∈ Pset(R)` the SC is *successful*: the value becomes `v`,
    /// `Pset(R)` is emptied, and `(true, previous value)` is returned.
    /// Otherwise the SC is *unsuccessful*: the register is unchanged and
    /// `(false, current value)` is returned. (The paper's strong SC returns
    /// the register value in both cases.)
    pub fn sc(&mut self, p: ProcessId, v: Value) -> (bool, Value) {
        if self.linked(p) {
            let prev = std::mem::replace(&mut self.value, v);
            self.pset.clear();
            (true, prev)
        } else {
            (false, self.value.clone())
        }
    }

    /// `swap(R, v)`: unconditionally writes `v`, empties `Pset(R)`, and
    /// returns the previous value.
    pub fn swap(&mut self, v: Value) -> Value {
        self.pset.clear();
        std::mem::replace(&mut self.value, v)
    }

    /// Receives a `move` *into* this register: the value becomes `moved`
    /// (a copy of the source register's value) and `Pset` is emptied.
    /// The move's source register is left untouched by construction —
    /// `move` reads it without calling any mutator.
    pub(crate) fn receive_move(&mut self, moved: Value) {
        self.value = moved;
        self.pset.clear();
    }

    /// A *spurious* `SC` failure by `p` — the weak-LL/SC fault mode: `p`'s
    /// reservation is silently lost (as by a cache-line eviction), so only
    /// `p` leaves `Pset(R)`; the value and every other process's link are
    /// untouched. Returns the current value, matching the failed-SC
    /// response shape.
    pub fn suppress_sc(&mut self, p: ProcessId) -> Value {
        self.pset.remove(p);
        self.value.clone()
    }

    /// Transient corruption: the value becomes `v` and, when `clear_pset`
    /// is set, every link is dropped. A fault-injector primitive, not one
    /// of the paper's operations.
    pub fn corrupt(&mut self, v: Value, clear_pset: bool) {
        self.value = v;
        if clear_pset {
            self.pset.clear();
        }
    }

    /// Transient corruption that rewrites the stored value *in place* via
    /// `mutate` instead of replacing it wholesale — the injector flips
    /// words/fields directly, so no scratch copy of the value is built.
    pub fn corrupt_in_place(&mut self, clear_pset: bool, mutate: impl FnOnce(&mut Value)) {
        mutate(&mut self.value);
        if clear_pset {
            self.pset.clear();
        }
    }
}

impl fmt::Display for RegisterState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨{}, {{", self.value)?;
        for (i, p) in self.pset.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, "}}⟩")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const P0: ProcessId = ProcessId(0);
    const P1: ProcessId = ProcessId(1);
    const P2: ProcessId = ProcessId(2);

    fn int(i: i64) -> Value {
        Value::from(i)
    }

    #[test]
    fn new_register_has_empty_pset() {
        let r = RegisterState::new(int(3));
        assert_eq!(r.value(), &int(3));
        assert!(r.pset().is_empty());
        assert!(!r.linked(P0));
    }

    #[test]
    fn ll_links_and_returns_value() {
        let mut r = RegisterState::new(int(1));
        assert_eq!(r.ll(P0), int(1));
        assert!(r.linked(P0));
        assert!(!r.linked(P1));
    }

    #[test]
    fn sc_without_ll_fails_and_reports_current_value() {
        let mut r = RegisterState::new(int(1));
        assert_eq!(r.sc(P0, int(9)), (false, int(1)));
        assert_eq!(r.value(), &int(1));
    }

    #[test]
    fn sc_after_ll_succeeds_once() {
        let mut r = RegisterState::new(int(1));
        r.ll(P0);
        assert_eq!(r.sc(P0, int(2)), (true, int(1)));
        // Pset was emptied, so a second SC by the same process fails.
        assert_eq!(r.sc(P0, int(3)), (false, int(2)));
    }

    #[test]
    fn successful_sc_invalidates_all_links() {
        let mut r = RegisterState::new(int(0));
        r.ll(P0);
        r.ll(P1);
        r.ll(P2);
        assert!(r.sc(P1, int(7)).0);
        for p in [P0, P1, P2] {
            assert!(!r.linked(p), "{p} should be unlinked");
        }
    }

    #[test]
    fn failed_sc_preserves_other_links() {
        let mut r = RegisterState::new(int(0));
        r.ll(P0);
        assert!(!r.sc(P1, int(7)).0);
        assert!(r.linked(P0), "failed SC must not disturb P0's link");
    }

    #[test]
    fn validate_reflects_link_and_reads_value() {
        let mut r = RegisterState::new(int(4));
        assert_eq!(r.validate(P0), (false, int(4)));
        r.ll(P0);
        assert_eq!(r.validate(P0), (true, int(4)));
        r.swap(int(5));
        assert_eq!(r.validate(P0), (false, int(5)));
    }

    #[test]
    fn validate_does_not_mutate() {
        let mut r = RegisterState::new(int(4));
        r.ll(P1);
        let before = r.clone();
        let _ = r.validate(P0);
        let _ = r.validate(P1);
        assert_eq!(r, before);
    }

    #[test]
    fn swap_returns_previous_and_clears_pset() {
        let mut r = RegisterState::new(int(1));
        r.ll(P0);
        assert_eq!(r.swap(int(2)), int(1));
        assert_eq!(r.value(), &int(2));
        assert!(!r.linked(P0));
    }

    #[test]
    fn move_into_overwrites_and_clears_pset() {
        let mut r = RegisterState::new(int(1));
        r.ll(P0);
        r.receive_move(int(42));
        assert_eq!(r.value(), &int(42));
        assert!(r.pset().is_empty());
    }

    #[test]
    fn ll_sc_interleaving_matches_paper_definition() {
        // p LLs; q LLs; q SCs successfully; p's SC must fail because q's
        // successful SC happened "in the interim".
        let mut r = RegisterState::new(int(0));
        r.ll(P0);
        r.ll(P1);
        assert!(r.sc(P1, int(1)).0);
        assert!(!r.sc(P0, int(2)).0);
        assert_eq!(r.value(), &int(1));
    }

    #[test]
    fn suppress_sc_drops_only_the_callers_link() {
        let mut r = RegisterState::new(int(4));
        r.ll(P0);
        r.ll(P1);
        assert_eq!(r.suppress_sc(P0), int(4), "value reported, not changed");
        assert!(!r.linked(P0), "the caller's reservation is lost");
        assert!(r.linked(P1), "other links survive a spurious failure");
        assert_eq!(r.value(), &int(4));
        // The victim's retry must re-LL before an SC can succeed again.
        assert_eq!(r.sc(P0, int(9)), (false, int(4)));
        assert!(r.sc(P1, int(9)).0, "P1's link was untouched");
    }

    #[test]
    fn corrupt_replaces_value_and_optionally_clears_pset() {
        let mut r = RegisterState::new(int(1));
        r.ll(P0);
        r.corrupt(int(7), false);
        assert_eq!(r.value(), &int(7));
        assert!(r.linked(P0), "clear_pset=false keeps links");
        r.corrupt(int(8), true);
        assert_eq!(r.value(), &int(8));
        assert!(!r.linked(P0), "clear_pset=true drops links");
    }

    #[test]
    fn display_shows_value_and_pset() {
        let mut r = RegisterState::new(int(3));
        r.ll(P1);
        assert_eq!(r.to_string(), "⟨3, {p1}⟩");
    }
}
