//! Cooperative cancellation for long-running traversals and fixpoints.
//!
//! Bounded simulation is cubic in the worst case, so every loop that can
//! run for a long time — a frontier BFS level sweep, a fixpoint refresh —
//! carries a [`CancelToken`] and polls it at its round boundary. The
//! token follows the same discipline as the runtime's fault injector:
//! **disarmed is one relaxed atomic load**. A
//! token that carries no deadline and was never cancelled costs a single
//! `Relaxed` load per check, so threading it through the hot paths is
//! effectively free (guarded by a bench gate, see `matchbench`).
//!
//! Armed checks go through the slow path: count the check, test the
//! latched cancel flag, then compare elapsed time against the deadline and
//! latch. Once a token has fired it stays fired — cancellation is
//! one-way — and the `fired` counter records the transition exactly once.
//!
//! The token deliberately lives in the graph crate, the bottom of the
//! workspace, so the BFS substrate itself can poll it without the upper
//! layers having to break traversals into artificially small pieces.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// No deadline configured.
const NO_DEADLINE: u64 = u64::MAX;

/// No check-count fuse configured.
const NO_FUSE: u64 = u64::MAX;

/// A shared cancellation token: an optional deadline plus a manual cancel
/// flag, checked cooperatively at loop boundaries.
///
/// Cheap by construction: a disarmed token (no deadline, not cancelled)
/// answers [`is_cancelled`](Self::is_cancelled) with one `Relaxed` atomic
/// load and touches nothing else.
#[derive(Debug)]
pub struct CancelToken {
    /// Fast-path gate: set exactly when a deadline is armed or a manual
    /// cancel was requested. `Relaxed` is sufficient for the gate itself —
    /// a check that races with arming may miss the very first poll, which
    /// cooperative cancellation tolerates by design.
    armed: AtomicBool,
    /// Latched result: once true, every subsequent check is cancelled.
    cancelled: AtomicBool,
    /// Deadline as nanoseconds elapsed since `epoch`; `NO_DEADLINE` when
    /// only a manual cancel can fire the token.
    deadline_ns: AtomicU64,
    /// Reference point for the deadline (captured at construction).
    epoch: Instant,
    /// Fires on the n-th armed check (`NO_FUSE` = disabled): the
    /// deterministic counterpart of a wall-clock deadline, in the same
    /// spirit as the fault injector's countdown scripts. Lets tests and
    /// drills cancel at an exact cancellation point instead of racing a
    /// timer.
    fuse: AtomicU64,
    /// Armed checks performed (disarmed fast-path checks are *not*
    /// counted — counting them would defeat the one-load fast path).
    checked: AtomicU64,
    /// Number of fire transitions (0 or 1 for a given token; summed
    /// across queries by the engine totals).
    fired: AtomicU64,
}

impl Default for CancelToken {
    fn default() -> Self {
        Self::new()
    }
}

impl CancelToken {
    /// A disarmed token: never fires until [`arm_deadline`](Self::arm_deadline)
    /// or [`cancel`](Self::cancel) is called.
    pub fn new() -> Self {
        CancelToken {
            armed: AtomicBool::new(false),
            cancelled: AtomicBool::new(false),
            deadline_ns: AtomicU64::new(NO_DEADLINE),
            fuse: AtomicU64::new(NO_FUSE),
            epoch: Instant::now(),
            checked: AtomicU64::new(0),
            fired: AtomicU64::new(0),
        }
    }

    /// A shared disarmed token — the "cancellation off" default the
    /// engines hold when a query carries no deadline.
    pub fn disarmed() -> Arc<CancelToken> {
        Arc::new(CancelToken::new())
    }

    /// A shared token that fires once `budget` has elapsed from now.
    pub fn with_deadline(budget: Duration) -> Arc<CancelToken> {
        let t = CancelToken::new();
        t.arm_deadline(budget);
        Arc::new(t)
    }

    /// A shared token that fires on the `n`-th armed check (`n` is
    /// clamped to at least 1). Where [`with_deadline`](Self::with_deadline)
    /// races a timer, this fires at an exact cancellation point — the
    /// deterministic variant the property tests use to abandon an
    /// evaluation at an arbitrary refinement round.
    pub fn after_checks(n: u64) -> Arc<CancelToken> {
        let t = CancelToken::new();
        t.fuse.store(n.max(1), Ordering::SeqCst);
        t.armed.store(true, Ordering::SeqCst);
        Arc::new(t)
    }

    /// Arm (or re-arm) the deadline to `budget` from now.
    pub fn arm_deadline(&self, budget: Duration) {
        let at = self
            .epoch
            .elapsed()
            .saturating_add(budget)
            .as_nanos()
            .min(u128::from(NO_DEADLINE - 1)) as u64;
        self.deadline_ns.store(at, Ordering::SeqCst);
        self.armed.store(true, Ordering::SeqCst);
    }

    /// Request cancellation immediately (latched; idempotent).
    pub fn cancel(&self) {
        if !self.cancelled.swap(true, Ordering::SeqCst) {
            self.fired.fetch_add(1, Ordering::Relaxed);
        }
        self.armed.store(true, Ordering::SeqCst);
    }

    /// Poll the token. Disarmed tokens answer with a single `Relaxed`
    /// load; armed tokens count the check, consult the latch, then the
    /// deadline.
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        if !self.armed.load(Ordering::Relaxed) {
            return false;
        }
        self.check_armed()
    }

    #[cold]
    fn check_armed(&self) -> bool {
        let checks = self.checked.fetch_add(1, Ordering::Relaxed) + 1;
        if self.cancelled.load(Ordering::Relaxed) {
            return true;
        }
        if checks >= self.fuse.load(Ordering::Relaxed) {
            if !self.cancelled.swap(true, Ordering::SeqCst) {
                self.fired.fetch_add(1, Ordering::Relaxed);
            }
            return true;
        }
        let deadline = self.deadline_ns.load(Ordering::Relaxed);
        if deadline == NO_DEADLINE {
            return false;
        }
        if self.epoch.elapsed().as_nanos() as u64 >= deadline {
            if !self.cancelled.swap(true, Ordering::SeqCst) {
                self.fired.fetch_add(1, Ordering::Relaxed);
            }
            return true;
        }
        false
    }

    /// Time left before the deadline fires; `None` when no deadline is
    /// armed, `Some(ZERO)` once it has passed.
    pub fn remaining(&self) -> Option<Duration> {
        let deadline = self.deadline_ns.load(Ordering::SeqCst);
        if deadline == NO_DEADLINE {
            return None;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        Some(Duration::from_nanos(deadline.saturating_sub(now)))
    }

    /// Armed checks performed so far (the `engine.cancel.checked` feed).
    pub fn checks(&self) -> u64 {
        self.checked.load(Ordering::Relaxed)
    }

    /// Fire transitions so far — 0 or 1 (the `engine.cancel.fired` feed).
    pub fn fired(&self) -> u64 {
        self.fired.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn disarmed_never_cancels_and_counts_nothing() {
        let t = CancelToken::new();
        for _ in 0..1000 {
            assert!(!t.is_cancelled());
        }
        assert_eq!(t.checks(), 0, "disarmed checks are free and uncounted");
        assert_eq!(t.fired(), 0);
        assert_eq!(t.remaining(), None);
    }

    #[test]
    fn manual_cancel_latches_and_fires_once() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        t.cancel();
        assert!(t.is_cancelled());
        t.cancel(); // idempotent
        assert!(t.is_cancelled());
        assert_eq!(t.fired(), 1, "fire transition counted exactly once");
        assert!(t.checks() >= 2, "armed checks are counted");
    }

    #[test]
    fn zero_deadline_fires_on_first_check() {
        let t = CancelToken::with_deadline(Duration::ZERO);
        assert!(t.is_cancelled());
        assert_eq!(t.fired(), 1);
        assert_eq!(t.remaining(), Some(Duration::ZERO));
    }

    #[test]
    fn generous_deadline_does_not_fire() {
        let t = CancelToken::with_deadline(Duration::from_secs(3600));
        assert!(!t.is_cancelled());
        assert_eq!(t.fired(), 0);
        let left = t.remaining().expect("deadline armed");
        assert!(left > Duration::from_secs(3000));
    }

    #[test]
    fn elapsed_deadline_fires_and_stays_fired() {
        let t = CancelToken::with_deadline(Duration::from_millis(1));
        std::thread::sleep(Duration::from_millis(5));
        assert!(t.is_cancelled());
        assert!(t.is_cancelled(), "latched");
        assert_eq!(t.fired(), 1);
    }

    #[test]
    fn check_fuse_fires_deterministically() {
        let t = CancelToken::after_checks(3);
        assert!(!t.is_cancelled());
        assert!(!t.is_cancelled());
        assert!(t.is_cancelled(), "third armed check trips the fuse");
        assert!(t.is_cancelled(), "latched");
        assert_eq!(t.fired(), 1);
        assert_eq!(t.checks(), 4);
    }

    #[test]
    fn shared_across_threads() {
        let t = CancelToken::disarmed();
        let t2 = t.clone();
        let h = std::thread::spawn(move || {
            while !t2.is_cancelled() {
                std::hint::spin_loop();
            }
            true
        });
        std::thread::sleep(Duration::from_millis(2));
        t.cancel();
        assert!(h.join().unwrap());
    }
}
