//! Per-thread virtual clocks.
//!
//! A virtual clock is a plain nanosecond counter attached to the current OS
//! thread. Simulated threads are still *real* threads (they really block on
//! condvars, really hand bytes through pipes); the clock only decides what
//! the experiment reports as elapsed time.
//!
//! Threads that never call [`install`] have no clock, and all charging
//! operations silently do nothing — that is the wall-clock benchmarking
//! mode.

use std::cell::Cell;

thread_local! {
    static CLOCK: Cell<Option<u64>> = const { Cell::new(None) };
}

/// A point in virtual time, in nanoseconds since the start of the
/// simulation.
pub type SimTime = u64;

/// Installs a virtual clock on the current thread, starting at `start`.
///
/// Returns a guard; when the guard is dropped the clock is removed again.
/// Installing while a clock is already present resets it to `start` (the
/// previous value is restored on drop).
///
/// # Examples
///
/// ```
/// let guard = afs_sim::clock::install(100);
/// assert_eq!(afs_sim::clock::now(), 100);
/// drop(guard);
/// assert!(!afs_sim::clock::is_active());
/// ```
#[must_use = "dropping the guard uninstalls the clock"]
pub fn install(start: SimTime) -> ClockGuard {
    enter(Some(start))
}

/// Puts `clock` on the current thread — a clock at that time, or none at
/// all — until the guard drops, whatever the thread had before. This is
/// how one thread runs code on behalf of another timeline and comes back
/// to its own.
#[must_use = "dropping the guard restores the previous clock"]
pub fn enter(clock: Option<SimTime>) -> ClockGuard {
    let previous = CLOCK.with(|c| c.replace(clock));
    ClockGuard { previous }
}

/// Returns `true` if the current thread has a virtual clock.
pub fn is_active() -> bool {
    CLOCK.with(|c| c.get().is_some())
}

/// Reads the current thread's virtual time.
///
/// Returns `0` when no clock is installed so that diagnostic code can call
/// it unconditionally.
pub fn now() -> SimTime {
    CLOCK.with(|c| c.get().unwrap_or(0))
}

/// Advances the current thread's clock by `nanos`. No-op without a clock.
pub fn advance(nanos: u64) {
    CLOCK.with(|c| {
        if let Some(t) = c.get() {
            c.set(Some(t.saturating_add(nanos)));
        }
    });
}

/// Synchronises the current thread's clock forward to `t` if `t` is later
/// than the local time. This is the "message receive" rule of Lamport
/// clocks and is what makes cross-thread data handoff carry time.
pub fn sync_to(t: SimTime) {
    CLOCK.with(|c| {
        if let Some(local) = c.get() {
            if t > local {
                c.set(Some(t));
            }
        }
    });
}

/// Runs `f` and returns the virtual time it consumed on this thread.
///
/// Returns `0` when no clock is installed.
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = now();
    let out = f();
    let after = now();
    (out, after.saturating_sub(before))
}

/// Guard returned by [`install`]; restores the previous clock state on
/// drop.
#[derive(Debug)]
pub struct ClockGuard {
    previous: Option<u64>,
}

impl Drop for ClockGuard {
    fn drop(&mut self) {
        CLOCK.with(|c| c.set(self.previous));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_clock_is_inert() {
        assert!(!is_active());
        assert_eq!(now(), 0);
        advance(50);
        sync_to(1_000);
        assert_eq!(now(), 0);
    }

    #[test]
    fn install_advance_drop() {
        let g = install(10);
        assert!(is_active());
        assert_eq!(now(), 10);
        advance(5);
        assert_eq!(now(), 15);
        drop(g);
        assert!(!is_active());
    }

    #[test]
    fn sync_only_moves_forward() {
        let _g = install(100);
        sync_to(50);
        assert_eq!(now(), 100);
        sync_to(200);
        assert_eq!(now(), 200);
    }

    #[test]
    fn nested_install_restores_previous() {
        let _outer = install(1);
        {
            let _inner = install(500);
            assert_eq!(now(), 500);
        }
        assert_eq!(now(), 1);
    }

    #[test]
    fn entering_no_clock_suspends_the_thread_s_own() {
        let _outer = install(7);
        {
            let _none = enter(None);
            assert!(!is_active());
            advance(50);
        }
        assert_eq!(now(), 7);
    }

    #[test]
    fn measure_reports_consumed_time() {
        let _g = install(0);
        let ((), used) = measure(|| advance(42));
        assert_eq!(used, 42);
    }

    #[test]
    fn advance_saturates() {
        let _g = install(u64::MAX - 1);
        advance(100);
        assert_eq!(now(), u64::MAX);
    }

    #[test]
    fn clocks_are_per_thread() {
        let _g = install(77);
        let handle = std::thread::spawn(|| {
            assert!(!is_active());
            let _g2 = install(5);
            advance(1);
            now()
        });
        assert_eq!(handle.join().expect("thread"), 6);
        assert_eq!(now(), 77);
    }
}
