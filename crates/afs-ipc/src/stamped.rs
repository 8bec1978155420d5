//! One stamped channel: the core every FIFO carrier in this crate is an
//! instance of, and the one place virtual time crosses between threads.
//!
//! [`Pipe`](crate::Pipe), [`SharedBuffer`](crate::SharedBuffer),
//! [`ControlChannel`](crate::ControlChannel), the §4.3 reply lane (see
//! [`transport`](crate::transport)) and the ring's submission queue are
//! each a queue of `(item, send stamp)` with a capacity counted in units —
//! bytes, slots, replies that carry bytes, or none at all — and their own
//! cost charges on top. The virtual-time rule of such a channel is two sentences, written
//! here once:
//!
//! * a receiver's clock moves to the send stamp of the item it takes;
//! * a sender's clock moves to the drain stamp of the capacity it reuses,
//!   whether or not it really waited for it.
//!
//! The second sentence turns a bounded capacity into bandwidth
//! backpressure — "any increase in the overhead of a write stems from
//! bandwidth restrictions imposed by the sentinel" (§6) — and *whether or
//! not it waited* makes that a function of the operation sequence: a
//! sender that finds the space already free, because its receiver won the
//! real race, moves exactly as far as one that blocked for it.
//!
//! Units are numbered in send order, so sending units `[s, s + n)` into
//! capacity `C` reuses the units freed when the receivers' running total
//! reached `s + n − C`. The core logs `(units taken so far, receiver's
//! clock)` after each take and keeps only the entries a later send can
//! still land on: none freed before the last `C` units sent, and no two
//! leading entries that are both no later than the newest send stamp (a
//! sender on that clock moves past neither). With one sending thread the
//! log is exact; a second sender behind the newest stamp may be moved up
//! to it, never less than the rule says.
//!
//! `Signal` lends the same lock, condvar and receive rule to the two
//! stamped carriers that are not FIFOs: the ring's completion index, taken
//! by id, and [`Event`](crate::Event), a flag.
//!
//! A crossing takes this lock once per side and no other: a byte lane
//! recycles its buffers in a [`FreeList`] under it (a send pops, a take
//! pushes), and the waker is installed once and read in place.

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, OnceLock};

use parking_lot::{Condvar, Mutex, MutexGuard};

use afs_sim::{clock, SimTime};
use afs_telemetry::QueueGauges;

use crate::{ChannelWaker, IpcError, Result};

/// Buffers retained at most; excess `put`s drop their buffer.
const MAX_KEPT: usize = 32;

/// Individual buffers larger than this are not retained, bounding a
/// list's worst-case footprint.
const MAX_KEPT_CAPACITY: usize = 1 << 20;

/// Byte buffers kept for reuse by whoever owns the list — a lane under its
/// stamped lock, a dispatch loop through `&mut`, a hub under its send
/// lock — so it takes no lock of its own. Recycling is an allocation
/// matter only: no charge depends on it, and a settled lane allocates
/// nothing per message. Its calls are `#[inline]`: the dispatch loop makes
/// them from another crate on every command.
#[derive(Debug, Default)]
pub struct FreeList {
    free: Vec<Vec<u8>>,
    /// Takes that reused a kept buffer, and takes that allocated.
    reuses: u64,
    allocations: u64,
    /// Mirrors the two counts into `afs_pool_*`.
    gauges: Option<Arc<QueueGauges>>,
}

impl FreeList {
    /// An empty list counting into `gauges`.
    pub fn observed(gauges: Arc<QueueGauges>) -> Self {
        FreeList {
            gauges: Some(gauges),
            ..FreeList::default()
        }
    }

    /// A zero-filled buffer of exactly `len` bytes.
    #[inline]
    pub fn take(&mut self, len: usize) -> Vec<u8> {
        let mut buf = self.take_capacity(len);
        buf.resize(len, 0);
        buf
    }

    /// An empty buffer with at least `capacity` bytes reserved, reusing a
    /// kept one when there is one. Always inlined: its count into the
    /// pool gauges is a call, which LLVM weighs enough to keep the whole
    /// take out of line, and the ring driver's per-entry push read
    /// `ring-batch-read` 0.91× with it out of line.
    #[inline(always)]
    pub fn take_capacity(&mut self, capacity: usize) -> Vec<u8> {
        let gauges = self.gauges.as_deref();
        match self.free.pop() {
            Some(mut buf) => {
                self.reuses += 1;
                if let Some(g) = gauges {
                    g.pool_reuse();
                }
                buf.clear();
                buf.reserve(capacity);
                buf
            }
            None => {
                self.allocations += 1;
                if let Some(g) = gauges {
                    g.pool_alloc();
                }
                Vec::with_capacity(capacity)
            }
        }
    }

    /// A kept buffer as it was kept, for a lane that hands a spare back
    /// to whoever gave it one; counted neither as a reuse nor as an
    /// allocation, since the giver's list counts what it takes.
    #[inline]
    pub(crate) fn spare(&mut self) -> Option<Vec<u8>> {
        self.free.pop()
    }

    /// Keeps `buf` for a later take, unless it is empty, oversized, or
    /// the list is full.
    #[inline]
    pub fn put(&mut self, buf: Vec<u8>) {
        let keep = (1..=MAX_KEPT_CAPACITY).contains(&buf.capacity());
        if keep && self.free.len() < MAX_KEPT {
            self.free.push(buf);
        }
    }
}

/// What a channel reports to its gauges hook, under its lock, so a depth
/// gauge never sees a take before the send it drains.
pub(crate) enum Flow {
    /// `units` entered the queue, which now holds `queued` items.
    Sent { units: usize, queued: usize },
    /// `units` left it.
    Taken(usize),
}

/// A channel's gauges hook.
pub(crate) type Gauge = Box<dyn Fn(Flow) + Send + Sync>;

/// What a send does with the consumer's waker (see
/// [`Wake`](crate::control::Wake)).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Doorbell {
    /// Rings it: nobody waits on this send.
    Post,
    /// Rings it for a sender that blocks on the answer next.
    Awaited,
    /// Leaves it silent: a send by the same sender that rings follows
    /// under the same lock and rings for both, and nothing this one
    /// carries can wait on the consumer meanwhile.
    Held,
}

impl Doorbell {
    /// What the waker is told (its `awaited` flag), or `None`: nothing.
    fn rings(self) -> Option<bool> {
        match self {
            Doorbell::Post => Some(false),
            Doorbell::Awaited => Some(true),
            Doorbell::Held => None,
        }
    }
}

/// Which end of a channel a handle holds.
#[derive(Debug, Clone, Copy)]
pub(crate) enum End {
    Sender,
    Receiver,
}

struct State<T> {
    queue: VecDeque<(T, SimTime)>,
    /// Units sent and taken, ever.
    sent: u64,
    taken: u64,
    /// `(units taken so far, receiver's clock)` after each take a later
    /// send can still reuse; bounded channels only.
    drains: VecDeque<(u64, SimTime)>,
    /// The newest send stamp.
    floor: SimTime,
    senders: usize,
    receivers: usize,
    closed: bool,
    /// Buffers a byte lane's takes free and its sends reuse.
    spare: FreeList,
}

impl<T> State<T> {
    /// Whether the queue is empty while the channel is open: a consumer
    /// has nothing to observe until the next send rings. An empty queue
    /// with no senders, or a closed one, still has its closure to show.
    fn idle(&self) -> bool {
        self.queue.is_empty() && self.senders > 0 && !self.closed
    }

    /// Drops the drain entries no later send can land on.
    fn prune(&mut self, capacity: u64) {
        while let Some(&(taken, drained)) = self.drains.front() {
            let next = self.drains.get(1).map_or(SimTime::MAX, |&(_, d)| d);
            if taken + capacity > self.sent && drained.max(next) > self.floor {
                break;
            }
            self.drains.pop_front();
        }
    }
}

/// The stamped channel core (see the module docs).
pub(crate) struct Stamped<T> {
    /// Units the queue holds at most; `None` is unbounded.
    capacity: Option<u64>,
    gauge: Option<Gauge>,
    state: Mutex<State<T>>,
    /// Receivers wait here for an item, senders for capacity.
    readable: Condvar,
    writable: Condvar,
    /// The consumer's readiness hook, installed once.
    waker: OnceLock<ChannelWaker>,
}

impl<T> fmt::Debug for Stamped<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Stamped")
            .field("capacity", &self.capacity)
            .finish_non_exhaustive()
    }
}

impl<T> Stamped<T> {
    /// A channel with one sender and one receiver.
    pub fn new(capacity: Option<usize>, gauge: Option<Gauge>) -> Self {
        Stamped {
            capacity: capacity.map(|cap| cap as u64),
            gauge,
            state: Mutex::new(State {
                queue: VecDeque::new(),
                sent: 0,
                taken: 0,
                drains: VecDeque::new(),
                floor: 0,
                senders: 1,
                receivers: 1,
                closed: false,
                spare: FreeList::default(),
            }),
            readable: Condvar::new(),
            writable: Condvar::new(),
            waker: OnceLock::new(),
        }
    }

    /// Sends what `make` builds — `units` of capacity between its items,
    /// all under one stamp — blocking until they fit. `make` runs under
    /// the lock after the sender's clock has moved, so the charges it
    /// makes land in the stamp, and builds from the lane's [`FreeList`].
    /// `doorbell` says whether and how to ring the waker.
    ///
    /// # Errors
    ///
    /// [`IpcError::BrokenPipe`] once every receiver is gone or the channel
    /// is closed.
    pub fn send<I: IntoIterator<Item = T>>(
        &self,
        units: usize,
        doorbell: Doorbell,
        make: impl FnOnce(&mut FreeList) -> I,
    ) -> Result<()> {
        let n = units as u64;
        let mut s = self.state.lock();
        while s.receivers > 0 && !s.closed {
            match self.capacity {
                Some(cap) if s.sent - s.taken + n > cap => self.writable.wait(&mut s),
                _ => break,
            }
        }
        if s.receivers == 0 || s.closed {
            return Err(IpcError::BrokenPipe);
        }
        // These units reuse what the receivers freed when their total
        // reached `reuse`: move to that drain whether or not we waited.
        let reuse = self.capacity.and_then(|cap| (s.sent + n).checked_sub(cap));
        if let Some(reuse) = reuse.filter(|&reuse| n > 0 && reuse > 0) {
            if let Some(&(_, drained)) = s.drains.iter().find(|&&(taken, _)| taken >= reuse) {
                clock::sync_to(drained);
            }
        }
        let items = make(&mut s.spare);
        let stamp = clock::now();
        s.queue.extend(items.into_iter().map(|item| (item, stamp)));
        s.sent += n;
        s.floor = s.floor.max(stamp);
        if let Some(cap) = self.capacity {
            s.prune(cap);
        }
        if let Some(gauge) = &self.gauge {
            let queued = s.queue.len();
            gauge(Flow::Sent { units, queued });
        }
        self.readable.notify_one();
        if let Some(awaited) = doorbell.rings() {
            self.wake(s, awaited);
        }
        Ok(())
    }

    /// Whether `units` would go in now without waiting for capacity.
    pub fn fits(&self, units: usize) -> bool {
        let s = self.state.lock();
        self.capacity
            .is_none_or(|cap| s.sent - s.taken + units as u64 <= cap)
    }

    /// Rings the waker alone, as a posted send would: for a sender whose
    /// held sends no awaited one followed.
    pub fn ring(&self) {
        self.wake(self.state.lock(), false);
    }

    /// Waits for an item, holding the lock until the take finishes.
    ///
    /// # Errors
    ///
    /// [`IpcError::Closed`] once every sender is gone (or the channel is
    /// closed) and the queue is drained.
    pub fn take(&self) -> Result<Taking<'_, T>> {
        self.ready(true)
            .map(|t| t.expect("a blocking take returns with an item"))
    }

    /// Like [`Stamped::take`], but `Ok(None)` instead of waiting.
    pub fn poll(&self) -> Result<Option<Taking<'_, T>>> {
        self.ready(false)
    }

    fn ready(&self, wait: bool) -> Result<Option<Taking<'_, T>>> {
        let mut s = self.state.lock();
        while s.queue.is_empty() {
            if s.senders == 0 || s.closed {
                return Err(IpcError::Closed);
            }
            if !wait {
                return Ok(None);
            }
            self.readable.wait(&mut s);
        }
        Ok(Some(Taking {
            core: self,
            state: s,
            newest: 0,
        }))
    }

    /// Another handle on `end` (NT `DuplicateHandle`).
    pub fn duplicate(&self, end: End) {
        let mut s = self.state.lock();
        match end {
            End::Sender => s.senders += 1,
            End::Receiver => s.receivers += 1,
        }
    }

    /// A handle on `end` is gone. The last receiver's going fails blocked
    /// senders; the last sender's wakes receivers and the waker, since
    /// closure is something a poll-driven consumer must observe too.
    pub fn hang_up(&self, end: End) {
        let mut s = self.state.lock();
        match end {
            End::Receiver => {
                s.receivers -= 1;
                if s.receivers == 0 {
                    self.writable.notify_all();
                }
            }
            End::Sender => {
                s.senders -= 1;
                if s.senders == 0 && !s.closed {
                    self.readable.notify_all();
                    self.wake(s, false);
                }
            }
        }
    }

    /// Closes both ends at once: sends fail, and takes fail once the
    /// queue is drained.
    pub fn close(&self) {
        let mut s = self.state.lock();
        if std::mem::replace(&mut s.closed, true) {
            return;
        }
        self.readable.notify_all();
        self.writable.notify_all();
        if s.senders > 0 {
            self.wake(s, false);
        }
    }

    /// Installs `waker`, invoked after every send and when the senders'
    /// side goes away. A channel's waker is installed once, by its one
    /// consumer, and read in place by every send from then on.
    ///
    /// # Panics
    ///
    /// If a waker is already installed.
    pub fn set_waker(&self, waker: ChannelWaker) {
        assert!(
            self.waker.set(waker).is_ok(),
            "a channel's waker is installed once"
        );
    }

    /// Fires the waker outside the lock: it runs on the sender's thread
    /// and may take the consumer's, or serve it there.
    fn wake(&self, s: MutexGuard<'_, State<T>>, awaited: bool) {
        drop(s);
        if let Some(waker) = self.waker.get() {
            waker.wake(awaited);
        }
    }
}

/// A take in progress: the lock is held and the items looked at are
/// noted until [`Taking::finish`] applies both halves of the rule.
pub(crate) struct Taking<'a, T> {
    core: &'a Stamped<T>,
    state: MutexGuard<'a, State<T>>,
    newest: SimTime,
}

impl<T> Taking<'_, T> {
    /// The front item, to take part of.
    pub fn front(&mut self) -> Option<&mut T> {
        let (item, stamp) = self.state.queue.front_mut()?;
        self.newest = self.newest.max(*stamp);
        Some(item)
    }

    /// Removes the front item.
    pub fn pop(&mut self) -> Option<T> {
        let (item, stamp) = self.state.queue.pop_front()?;
        self.newest = self.newest.max(stamp);
        Some(item)
    }

    /// Keeps a spent buffer on the lane's [`FreeList`] for a later send.
    pub fn recycle(&mut self, buf: Vec<u8>) {
        self.state.spare.put(buf);
    }

    /// The lane's [`FreeList`], for a take that hands its spent buffer
    /// on through something else.
    pub fn spare(&mut self) -> &mut FreeList {
        &mut self.state.spare
    }

    /// Takes the front item whole, as one unit, and says whether that left
    /// the open channel empty (see [`State::idle`]).
    pub fn whole(mut self) -> (T, bool) {
        let item = self.pop().expect("a take holds an item");
        let emptied = self.state.idle();
        self.finish(1, || {});
        (item, emptied)
    }

    /// Ends the take of `units`: the receiver moves to the newest send
    /// stamp it looked at, pays `charge`, and its clock then is the drain
    /// stamp of the capacity it freed. A take of no units frees none and
    /// logs no drain.
    pub fn finish(mut self, units: usize, charge: impl FnOnce()) {
        clock::sync_to(self.newest);
        charge();
        let core = self.core;
        let s = &mut *self.state;
        s.taken += units as u64;
        if let Some(gauge) = &core.gauge {
            gauge(Flow::Taken(units));
        }
        if let Some(cap) = core.capacity.filter(|_| units > 0) {
            s.drains.push_back((s.taken, clock::now()));
            s.prune(cap);
            core.writable.notify_all();
        }
    }
}

/// The core's lock, condvar and receive rule for a stamped carrier that
/// is not a FIFO.
#[derive(Debug)]
pub(crate) struct Signal<S> {
    state: Mutex<S>,
    changed: Condvar,
}

impl<S> Signal<S> {
    pub fn new(state: S) -> Self {
        Signal {
            state: Mutex::new(state),
            changed: Condvar::new(),
        }
    }

    /// Changes the state and wakes every waiter to look again.
    pub fn publish<R>(&self, change: impl FnOnce(&mut S) -> R) -> R {
        let r = change(&mut self.state.lock());
        self.changed.notify_all();
        r
    }

    /// Blocks until `ready` yields a value and its send stamp, then moves
    /// the caller's clock to that stamp: the receive rule.
    pub fn wait_take<R>(&self, mut ready: impl FnMut(&mut S) -> Option<(R, SimTime)>) -> R {
        let mut s = self.state.lock();
        loop {
            if let Some((r, stamp)) = ready(&mut s) {
                clock::sync_to(stamp);
                return r;
            }
            self.changed.wait(&mut s);
        }
    }
}

#[cfg(test)]
impl<T> Stamped<T> {
    /// How many drain entries the log holds.
    pub(crate) fn drain_entries(&self) -> usize {
        self.state.lock().drains.len()
    }

    /// How many sends reused a buffer from the lane's list, and how many
    /// allocated.
    pub(crate) fn recycled(&self) -> (u64, u64) {
        let s = self.state.lock();
        (s.spare.reuses, s.spare.allocations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_put_take_reuses_the_allocation() {
        let mut list = FreeList::default();
        let buf = list.take(64);
        assert_eq!(buf.len(), 64);
        assert!(buf.iter().all(|&b| b == 0));
        list.put(buf);
        let again = list.take(16);
        assert_eq!(again.len(), 16);
        assert_eq!((list.reuses, list.allocations), (1, 1));
    }

    #[test]
    fn reused_buffers_are_zeroed() {
        let mut list = FreeList::default();
        let mut buf = list.take(8);
        buf.copy_from_slice(b"ABCDEFGH");
        list.put(buf);
        assert_eq!(list.take(8), vec![0u8; 8]);
        assert!(list.take_capacity(128).is_empty());
    }

    #[test]
    fn retention_is_bounded() {
        let mut list = FreeList::default();
        list.put(vec![0u8; MAX_KEPT_CAPACITY + 1]);
        list.put(Vec::new());
        assert!(list.free.is_empty(), "oversized and empty buffers go");
        for _ in 0..(MAX_KEPT + 10) {
            list.put(vec![0u8; 8]);
        }
        assert_eq!(list.free.len(), MAX_KEPT);
    }

    #[test]
    fn an_observed_list_counts_into_the_pool_gauges() {
        let gauges = Arc::new(QueueGauges::default());
        let mut list = FreeList::observed(Arc::clone(&gauges));
        let buf = list.take(4);
        list.put(buf);
        list.take(4);
        let snap = gauges.snapshot();
        assert_eq!((snap.pool_reuses, snap.pool_allocations), (1, 1));
    }
}
