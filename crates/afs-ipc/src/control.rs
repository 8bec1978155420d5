//! The control channel of the process-plus-control strategy (§4.2).
//!
//! "All API requests from the application are first transmitted to the
//! sentinel process via the control channel" — a `read 50` or `write 30`
//! command precedes every data transfer, and every other file operation is
//! "passed to the sentinel process as commands with arguments".
//!
//! A [`ControlChannel`] is a typed, unbounded FIFO of command values: the
//! [stamped channel](crate::stamped) with no capacity and a waker. Each
//! send rings a doorbell — one syscall plus the fixed pipe-message
//! overhead over a kernel pipe (control messages are small; their payload
//! cost is negligible next to the data pipes), one event signal at user
//! level — and the receiver moves to the sender's stamp when it dequeues.

use std::sync::Arc;

use afs_sim::{Cost, CostModel};

use crate::stamped::{Doorbell, End, Gauge, Stamped, Taking};
use crate::Result;

/// Readiness hook of a poll-driven consumer, invoked whenever the channel
/// transitions to "something to observe" (a new message, or the last
/// sender dropping). It fires on the *sender's* thread.
///
/// A send may also be *held*: it rings nothing, because the same sender
/// follows it under the same lock with a send that rings for both —
/// awaited, unless the answer outgrows its lane — and whatever it carries
/// went into the lanes without waiting on the consumer. A hub's call
/// sends the staged writes it flushes that way, so the consumer finds
/// them queued behind one awaited ring.
pub trait Wake: Send + Sync {
    /// Something arrived. `awaited` marks a send whose sender blocks on
    /// the answer next and sends nothing after it, and whose answer fits
    /// the lanes back: nothing the consumer sends while serving it (or the
    /// held sends before it) can wait on the sender's own drain. A
    /// consumer may serve such a send on the sender's thread. Otherwise
    /// the hook must be cheap and must not block on the consumer.
    fn wake(&self, awaited: bool);
}

/// A closure is a hook that treats every send alike.
impl<F: Fn() + Send + Sync> Wake for F {
    fn wake(&self, _awaited: bool) {
        self();
    }
}

/// The hook a consumer installs (see [`Wake`]).
pub type ChannelWaker = Arc<dyn Wake>;

#[derive(Debug)]
struct Inner<T> {
    model: CostModel,
    /// Carried over a kernel pipe (process strategies) rather than
    /// user-level events and shared memory (the DLL-with-thread strategy,
    /// Appendix A.3: "these 'messages' are implemented using events and
    /// shared memory").
    kernel: bool,
    core: Stamped<T>,
}

/// Factory for control channel endpoint pairs.
#[derive(Debug)]
pub struct ControlChannel;

impl ControlChannel {
    /// Creates a typed control channel carried over a kernel pipe: each
    /// send charges one syscall plus the per-message pipe overhead.
    #[allow(clippy::new_ret_no_self)] // factory for an endpoint pair, like Pipe::anonymous
    pub fn new<T: Send>(model: CostModel) -> (ControlSender<T>, ControlReceiver<T>) {
        Self::over(model, true, None)
    }

    /// Creates a typed control channel carried over user-level events and
    /// shared memory: each send charges only one event signal.
    pub fn user_level<T: Send>(model: CostModel) -> (ControlSender<T>, ControlReceiver<T>) {
        Self::over(model, false, None)
    }

    pub(crate) fn over<T: Send>(
        model: CostModel,
        kernel: bool,
        gauge: Option<Gauge>,
    ) -> (ControlSender<T>, ControlReceiver<T>) {
        let inner = Arc::new(Inner {
            model,
            kernel,
            core: Stamped::new(None, gauge),
        });
        (
            ControlSender {
                inner: Arc::clone(&inner),
            },
            ControlReceiver { inner },
        )
    }
}

/// Sending half of a control channel.
#[derive(Debug)]
pub struct ControlSender<T> {
    inner: Arc<Inner<T>>,
}

impl<T: Send> ControlSender<T> {
    /// Enqueues a command for the sentinel.
    ///
    /// # Errors
    ///
    /// Returns [`IpcError::BrokenPipe`](crate::IpcError::BrokenPipe) if
    /// the receiving end is gone.
    pub fn send(&self, msg: T) -> Result<()> {
        self.send_all(1, [msg], Doorbell::Post)
    }

    /// Enqueues a command whose sender blocks on the answer next, sends
    /// nothing after it, and has room for whatever the answer brings back
    /// (the waker is told so; see [`Wake`]). Charged like [`send`].
    ///
    /// [`send`]: ControlSender::send
    ///
    /// # Errors
    ///
    /// As [`send`](ControlSender::send).
    pub fn send_awaited(&self, msg: T) -> Result<()> {
        self.send_all(1, [msg], Doorbell::Awaited)
    }

    /// Enqueues `n` commands behind one doorbell and one stamp.
    pub(crate) fn send_all(
        &self,
        n: usize,
        msgs: impl IntoIterator<Item = T>,
        doorbell: Doorbell,
    ) -> Result<()> {
        let inner = &*self.inner;
        if inner.kernel {
            inner.model.charge(Cost::Syscall);
            inner.model.charge(Cost::PipeMessage);
        } else {
            inner.model.charge(Cost::EventSignal);
        }
        inner.core.send(n, doorbell, |_| msgs)
    }

    /// Rings the receiver's waker with nothing sent, as a posted send
    /// would: what a sender whose held sends end in an error owes.
    pub(crate) fn ring(&self) {
        self.inner.core.ring();
    }

    /// Closes the channel from this side while the handle lives on: the
    /// receiver drains what is queued, then observes closure.
    pub(crate) fn close(&self) {
        self.inner.core.close();
    }

    /// Duplicates the sender handle.
    pub fn duplicate(&self) -> ControlSender<T> {
        self.inner.core.duplicate(End::Sender);
        ControlSender {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T> Drop for ControlSender<T> {
    fn drop(&mut self) {
        self.inner.core.hang_up(End::Sender);
    }
}

/// Receiving half of a control channel.
#[derive(Debug)]
pub struct ControlReceiver<T> {
    inner: Arc<Inner<T>>,
}

impl<T: Send> ControlReceiver<T> {
    /// Dequeues the next command, blocking until one arrives.
    ///
    /// # Errors
    ///
    /// Returns [`IpcError::Closed`](crate::IpcError::Closed) once all
    /// senders are gone and the queue is drained — the sentinel's dispatch
    /// loop uses this to terminate.
    pub fn recv(&self) -> Result<T> {
        self.charge_observed();
        self.inner.core.take().map(|taking| taking.whole().0)
    }

    /// Non-blocking receive that charges exactly what [`recv`] would. A
    /// command comes with whether its take left the channel empty while
    /// senders remain: a poll-driven consumer then has nothing to look
    /// for until the waker rings again. A drained channel whose senders
    /// are gone, or that was closed, is not empty in this sense — its
    /// closure is still to be observed.
    ///
    /// The blocking `recv` pays one kernel syscall per call, whether the
    /// message is already queued or arrives later; an empty poll in the
    /// executor corresponds to the interval `recv` would have spent
    /// blocked, which costs nothing. So: observing a message (or channel
    /// closure) charges the syscall, `Ok(None)` charges nothing. This
    /// keeps poll-driven sentinels bit-identical in virtual time to the
    /// dedicated-thread dispatch loop.
    ///
    /// [`recv`]: ControlReceiver::recv
    ///
    /// # Errors
    ///
    /// [`IpcError::Closed`](crate::IpcError::Closed) once all senders are
    /// gone and the queue is drained.
    pub fn poll_recv(&self) -> Result<Option<(T, bool)>> {
        let polled = self.inner.core.poll();
        if !matches!(polled, Ok(None)) {
            self.charge_observed();
        }
        Ok(polled?.map(Taking::whole))
    }

    /// The receive-side syscall of a kernel channel, paid before the
    /// clock moves to the message.
    fn charge_observed(&self) {
        if self.inner.kernel {
            self.inner.model.charge(Cost::Syscall);
        }
    }

    /// Installs `waker`, invoked on every send and when the last sender
    /// drops. It is installed once, by the channel's one consumer.
    ///
    /// # Panics
    ///
    /// If a waker is already installed.
    pub fn set_waker(&self, waker: ChannelWaker) {
        self.inner.core.set_waker(waker);
    }

    /// Closes the channel from this side while the handle lives on: every
    /// send fails from here on.
    pub(crate) fn close(&self) {
        self.inner.core.close();
    }
}

impl<T> Drop for ControlReceiver<T> {
    fn drop(&mut self) {
        self.inner.core.hang_up(End::Receiver);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IpcError;
    use afs_sim::{clock, HardwareProfile};

    #[test]
    fn commands_arrive_in_order() {
        let (tx, rx) = ControlChannel::new::<u32>(CostModel::free());
        for i in 0..10 {
            tx.send(i).expect("send");
        }
        for i in 0..10 {
            assert_eq!(rx.recv().expect("recv"), i);
        }
    }

    #[test]
    fn recv_after_sender_drop_is_closed() {
        let (tx, rx) = ControlChannel::new::<u8>(CostModel::free());
        tx.send(1).expect("send");
        drop(tx);
        assert_eq!(rx.recv().expect("last message"), 1);
        assert_eq!(rx.recv(), Err(IpcError::Closed));
    }

    #[test]
    fn send_after_receiver_drop_is_broken() {
        let (tx, rx) = ControlChannel::new::<u8>(CostModel::free());
        drop(rx);
        assert_eq!(tx.send(1), Err(IpcError::BrokenPipe));
    }

    #[test]
    fn poll_recv_does_not_block() {
        let (tx, rx) = ControlChannel::new::<u8>(CostModel::free());
        assert_eq!(rx.poll_recv().expect("empty"), None);
        tx.send(9).expect("send");
        tx.send(10).expect("send");
        assert_eq!(rx.poll_recv().expect("one"), Some((9, false)));
        assert_eq!(rx.poll_recv().expect("two"), Some((10, true)), "emptied");
    }

    #[test]
    fn timestamps_propagate() {
        let (tx, rx) = ControlChannel::new::<u8>(CostModel::new(HardwareProfile::pentium_ii_300()));
        std::thread::spawn(move || {
            let _g = clock::install(5_000_000);
            tx.send(1).expect("send");
        })
        .join()
        .expect("join");
        let _g = clock::install(0);
        rx.recv().expect("recv");
        assert!(clock::now() >= 5_000_000);
    }

    #[test]
    fn duplicated_sender_keeps_channel_open() {
        let (tx, rx) = ControlChannel::new::<u8>(CostModel::free());
        let tx2 = tx.duplicate();
        drop(tx);
        tx2.send(3).expect("send via dup");
        assert_eq!(rx.recv().expect("recv"), 3);
        drop(tx2);
        assert_eq!(rx.recv(), Err(IpcError::Closed));
    }

    #[test]
    fn waker_fires_on_send_and_on_last_sender_drop() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let (tx, rx) = ControlChannel::new::<u8>(CostModel::free());
        let fired = Arc::new(AtomicUsize::new(0));
        let observer = Arc::clone(&fired);
        rx.set_waker(Arc::new(move || {
            observer.fetch_add(1, Ordering::SeqCst);
        }));
        tx.send(1).expect("send");
        assert_eq!(fired.load(Ordering::SeqCst), 1);
        let tx2 = tx.duplicate();
        drop(tx);
        // Not the last sender: no closure wakeup.
        assert_eq!(fired.load(Ordering::SeqCst), 1);
        drop(tx2);
        assert_eq!(fired.load(Ordering::SeqCst), 2);
        // The last sender is gone: the take that drains the queue leaves
        // the closure to observe, so it does not report the lane empty.
        assert_eq!(rx.poll_recv().expect("queued"), Some((1, false)));
        assert_eq!(rx.poll_recv(), Err(IpcError::Closed));
    }

    #[test]
    fn the_waker_learns_which_sends_are_awaited() {
        struct Log(parking_lot::Mutex<Vec<bool>>);
        impl Wake for Log {
            fn wake(&self, awaited: bool) {
                self.0.lock().push(awaited);
            }
        }
        let (tx, rx) = ControlChannel::user_level::<u8>(CostModel::free());
        let log = Arc::new(Log(parking_lot::Mutex::new(Vec::new())));
        rx.set_waker(Arc::clone(&log) as ChannelWaker);
        tx.send(1).expect("post");
        tx.send_all(1, [2], Doorbell::Held).expect("held");
        tx.send_awaited(3).expect("awaited");
        drop(tx);
        // A held send rings nothing; the hang-up is no send anyone waits
        // on.
        assert_eq!(*log.0.lock(), [false, true, false]);
        assert_eq!(rx.poll_recv().expect("post"), Some((1, false)));
        assert_eq!(rx.poll_recv().expect("held"), Some((2, false)));
    }

    #[test]
    fn poll_recv_charges_like_recv_only_when_observing() {
        let model = CostModel::new(HardwareProfile::pentium_ii_300());
        let syscall = model.price(Cost::Syscall);
        let (tx, rx) = ControlChannel::new::<u8>(model);
        let _g = clock::install(0);
        // Empty poll: `recv` would have blocked — nothing charged.
        assert_eq!(rx.poll_recv().expect("empty"), None);
        assert_eq!(clock::now(), 0);
        tx.send(7).expect("send");
        let before = clock::now();
        assert_eq!(rx.poll_recv().expect("one"), Some((7, true)));
        assert_eq!(clock::now() - before, syscall);
    }

    #[test]
    fn blocking_recv_wakes_on_send() {
        let (tx, rx) = ControlChannel::new::<u64>(CostModel::free());
        let t = std::thread::spawn(move || rx.recv().expect("recv"));
        std::thread::sleep(std::time::Duration::from_millis(10));
        tx.send(42).expect("send");
        assert_eq!(t.join().expect("join"), 42);
    }
}
