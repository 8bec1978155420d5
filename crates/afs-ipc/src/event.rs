//! NT-style event objects.
//!
//! The paper's DLL-with-thread strategy synchronises the application
//! thread and the in-process sentinel thread with events plus shared
//! memory ("these 'messages' are implemented using events and shared
//! memory", Appendix A.3); this runtime carries those messages on the
//! user-level [`ControlChannel`](crate::ControlChannel), one event signal
//! each. An [`Event`] is the standalone NT auto-reset event: a wait
//! consumes the signal, so one waiter is released per signal, and signals
//! set before a wait consumes them coalesce into one.
//!
//! A signal carries the signaller's virtual clock, and a satisfied wait
//! takes it by the [stamped channel's](crate::stamped) receive rule.

use std::sync::Arc;

use afs_sim::{clock, Cost, CostModel, SimTime};

use crate::stamped::Signal;

/// Whether a satisfied wait consumes the signal. NT's manual-reset mode
/// has no user here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResetMode {
    /// The event resets automatically when a single wait is satisfied.
    Auto,
}

#[derive(Debug)]
struct Inner {
    model: CostModel,
    /// The pending signal's stamp, if one is pending.
    pending: Signal<Option<SimTime>>,
}

/// A shareable event object (clones refer to the same event).
#[derive(Debug, Clone)]
pub struct Event {
    inner: Arc<Inner>,
}

impl Event {
    /// Creates an event, initially unsignalled.
    pub fn new(model: CostModel, _mode: ResetMode) -> Self {
        Event {
            inner: Arc::new(Inner {
                model,
                pending: Signal::new(None),
            }),
        }
    }

    /// Signals the event (NT `SetEvent`), releasing one waiter. Charges
    /// one event-signal cost.
    pub fn set(&self) {
        let inner = &*self.inner;
        inner.model.charge(Cost::EventSignal);
        let now = clock::now();
        inner
            .pending
            .publish(|pending| *pending = Some(pending.map_or(now, |t| t.max(now))));
    }

    /// Blocks until the event is signalled, consumes the signal, and moves
    /// this thread's virtual clock to the signal's stamp.
    pub fn wait(&self) {
        self.inner
            .pending
            .wait_take(|pending| pending.take().map(|stamp| ((), stamp)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afs_sim::HardwareProfile;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn wait_blocks_until_set() {
        let e = Event::new(CostModel::free(), ResetMode::Auto);
        let e2 = e.clone();
        let t = std::thread::spawn(move || e2.wait());
        std::thread::sleep(std::time::Duration::from_millis(10));
        e.set();
        t.join().expect("join");
    }

    #[test]
    fn wait_inherits_signal_time() {
        let e = Event::new(
            CostModel::new(HardwareProfile::pentium_ii_300()),
            ResetMode::Auto,
        );
        let e2 = e.clone();
        std::thread::spawn(move || {
            let _g = clock::install(7_000);
            e2.set();
        })
        .join()
        .expect("join");
        let _g = clock::install(0);
        e.wait();
        assert!(clock::now() >= 7_000);
    }

    #[test]
    fn set_charges_signal_cost() {
        let model = CostModel::new(HardwareProfile::pentium_ii_300());
        let e = Event::new(model.clone(), ResetMode::Auto);
        e.set();
        assert_eq!(model.snapshot().event_signals, 1);
    }

    #[test]
    fn auto_reset_releases_exactly_one_per_set() {
        let e = Event::new(CostModel::free(), ResetMode::Auto);
        let released = Arc::new(AtomicUsize::new(0));
        let waiters: Vec<_> = (0..3)
            .map(|_| {
                let e = e.clone();
                let released = Arc::clone(&released);
                std::thread::spawn(move || {
                    e.wait();
                    released.fetch_add(1, Ordering::SeqCst);
                })
            })
            .collect();
        std::thread::sleep(std::time::Duration::from_millis(10));
        e.set();
        // Eventually exactly one waiter proceeds.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(1);
        while released.load(Ordering::SeqCst) < 1 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(released.load(Ordering::SeqCst), 1);
        // Release the rest one at a time, waiting for each signal to be
        // consumed: setting an auto-reset event again before a released
        // waiter consumes the signal coalesces the two sets into one (the
        // signal is a flag, not a counter) and would strand a waiter.
        for expected in 2..=3 {
            e.set();
            while released.load(Ordering::SeqCst) < expected {
                std::thread::yield_now();
            }
        }
        for w in waiters {
            w.join().expect("join");
        }
    }
}
