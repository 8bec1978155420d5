//! The command/reply pair wire of §4.2 and §4.3.
//!
//! The paper's strategies differ in *what carries the bytes*, not in what
//! the bytes mean: §4.2 adds a control channel beside two data pipes, and
//! §4.3 swaps the pipes for shared memory plus events. A
//! [`PairTransport`] is the application end of either choice, built by
//! [`PairTransport::kernel`] or [`PairTransport::shared`], and a
//! [`PairPort`] is the sentinel end the dispatch loop drains:
//!
//! | Lane | §4.2 `kernel` | §4.3 `shared` |
//! |------|---------------|---------------|
//! | commands | kernel control channel | user-level control channel |
//! | a write's bytes | a pipe | a one-slot [`SharedBuffer`] |
//! | replies | kernel control channel | one lane whose replies carry their bytes |
//! | a read's bytes | a pipe, behind their reply | in their reply |
//!
//! The lanes carry whatever command and reply types the layer above
//! frames; what an *operation* is (one `post`, or one `call` whose reply
//! says how many bytes come with it) is [`AppPort`](crate::AppPort)'s
//! business: the bare pair carries one session, a
//! [`MuxHub`](crate::MuxHub) many.
//!
//! A §4.3 reply and its bytes are one message ("these 'messages' are
//! implemented using events and shared memory", Appendix A.3), as a ring
//! completion is: the sentinel hands over the buffer it staged the bytes
//! in, the application copies them once into the caller's buffer and
//! leaves the buffer on the lane's [`FreeList`], and the next reply's send
//! hands a spare from there back to the sentinel. The lane is an instance
//! of the [stamped core](crate::stamped) whose capacity counts one unit per
//! reply that carries bytes and none for a bare reply, and a reply with
//! bytes is charged one user-level copy and one event signal beyond the
//! reply's own, so it costs what a reply and a one-slot buffer behind it
//! cost, at the same virtual time.
//!
//! Each data lane recycles its own buffers under the lock its crossing
//! already takes; what the sentinel stages, its dispatch loop keeps.

use std::sync::Arc;

use afs_sim::{Cost, CostModel, CrossingKind};
use afs_telemetry::QueueGauges;

use crate::shared_buf::slot_gauge;
use crate::stamped::{Doorbell, End, Stamped};
use crate::{
    ControlChannel, ControlReceiver, ControlSender, FreeList, IpcError, Pipe, PipeReader,
    PipeWriter, Result, SharedBuffer,
};

/// Sink for the sentinel-ward data lane.
pub trait DataTx: Send + Sync {
    /// Transfers one message of bytes.
    fn send(&self, data: &[u8]) -> Result<()>;

    /// Whether a message of `len` bytes would go in now without its
    /// sender waiting for the receiver to drain the lane first.
    fn fits(&self, len: usize) -> bool;
}

/// Source for the sentinel-ward data lane.
pub trait DataRx: Send + Sync {
    /// Receives exactly `buf.len()` bytes (one logical message, possibly
    /// assembled from several physical ones). Returns the number of bytes
    /// received, which is less than `buf.len()` only at end-of-stream.
    fn recv_exact(&self, buf: &mut [u8]) -> Result<usize>;
}

impl DataTx for PipeWriter {
    fn send(&self, data: &[u8]) -> Result<()> {
        self.write(data)
    }

    /// The free room takes it whole.
    fn fits(&self, len: usize) -> bool {
        PipeWriter::fits(self, len)
    }
}

impl DataRx for PipeReader {
    fn recv_exact(&self, buf: &mut [u8]) -> Result<usize> {
        self.read_exact(buf)
    }
}

impl DataTx for SharedBuffer {
    fn send(&self, data: &[u8]) -> Result<()> {
        SharedBuffer::send(self, data)
    }

    /// The slot is empty: it takes any one message whole.
    fn fits(&self, _len: usize) -> bool {
        self.is_empty()
    }
}

impl DataRx for SharedBuffer {
    /// Assembles `buf.len()` bytes from as many slot messages as needed.
    ///
    /// A message longer than the space left in `buf` would silently lose
    /// its tail (the slot hands over whole messages), so that case is a
    /// framing violation and fails with [`IpcError::BrokenPipe`] rather
    /// than corrupting the stream.
    fn recv_exact(&self, buf: &mut [u8]) -> Result<usize> {
        let mut filled = 0;
        while filled < buf.len() {
            let n = self.recv_into(&mut buf[filled..])?;
            if n > buf.len() - filled {
                return Err(IpcError::BrokenPipe);
            }
            filled += n;
        }
        Ok(filled)
    }
}

/// The §4.3 reply lane: each item a reply and the bytes it brings back
/// (none for a bare reply), stamped once.
struct ReplyLane<R> {
    model: CostModel,
    core: Stamped<(R, Vec<u8>)>,
}

/// One end of a [`ReplyLane`]; dropping it hangs that end up.
struct LaneEnd<R> {
    lane: Arc<ReplyLane<R>>,
    end: End,
}

impl<R> Drop for LaneEnd<R> {
    fn drop(&mut self) {
        self.lane.core.hang_up(self.end);
    }
}

/// A reply lane's sending and receiving ends. A reply that carries bytes
/// takes the one unit of capacity, so it waits while the previous one's
/// bytes are still unread, and reports to `gauges` as a filled slot.
fn reply_lane<R>(model: CostModel, gauges: Option<Arc<QueueGauges>>) -> (LaneEnd<R>, LaneEnd<R>) {
    let core = Stamped::new(Some(1), gauges.map(slot_gauge));
    let lane = Arc::new(ReplyLane { model, core });
    let sender = LaneEnd {
        lane: Arc::clone(&lane),
        end: End::Sender,
    };
    (
        sender,
        LaneEnd {
            lane,
            end: End::Receiver,
        },
    )
}

impl<R> LaneEnd<R> {
    /// Sends `reply` with `bytes`, charging the reply's event signal and,
    /// when it carries bytes, their one user-level copy and its own event
    /// signal once the capacity it reuses has drained. Returns a buffer
    /// for the sender to keep: `bytes` itself when empty, else a spare the
    /// lane kept from an earlier reply, if it has one.
    fn send(&self, reply: R, bytes: Vec<u8>) -> Result<Option<Vec<u8>>> {
        let lane = &*self.lane;
        lane.model.charge(Cost::EventSignal);
        if bytes.is_empty() {
            lane.core
                .send(0, Doorbell::Post, |_| [(reply, Vec::new())])?;
            return Ok(Some(bytes));
        }
        let mut back = None;
        lane.core.send(1, Doorbell::Post, |spare| {
            lane.model.charge(Cost::Memcpy { bytes: bytes.len() });
            lane.model.charge(Cost::EventSignal);
            back = spare.spare();
            [(reply, bytes)]
        })?;
        Ok(back)
    }

    /// Takes the next reply and hands it to `land` with its bytes, under
    /// the lane's lock; a buffer copied out of stays on the lane's list.
    fn recv<T>(
        &self,
        announced: impl FnOnce(&R) -> usize,
        land: impl FnOnce(R, Payload<'_>) -> Result<T>,
    ) -> Result<T> {
        let mut taking = self.lane.core.take()?;
        let (reply, bytes) = taking.pop().expect("a take holds an item");
        let units = usize::from(!bytes.is_empty());
        let n = announced(&reply);
        let landed = land(
            reply,
            Payload {
                n,
                from: Source::Carried(bytes, taking.spare()),
            },
        );
        taking.finish(units, || {});
        landed
    }
}

/// The bytes a reply announced, where the wire holds them: behind the
/// reply on a §4.2 pipe, or in the reply on the §4.3 lane. Each is landed
/// or kept exactly once: a §4.2 payload left unread unframes its pipe.
pub struct Payload<'a> {
    n: usize,
    from: Source<'a>,
}

enum Source<'a> {
    Pipe(&'a PipeReader),
    /// The buffer the sentinel staged them in, and the lane's list it
    /// stays on once they are copied out.
    Carried(Vec<u8>, &'a mut FreeList),
}

impl Payload<'_> {
    /// Lands the bytes in the front of `into`, the one place the bytes
    /// behind a reply reach the caller; returns how many.
    ///
    /// # Errors
    ///
    /// A reply announcing more bytes than `into` has room for (or, on the
    /// §4.3 lane, than it carries) is a protocol violation: its bytes are
    /// taken off the wire anyway, so a lane shared with other sessions
    /// stays framed, and the landing fails with [`IpcError::BrokenPipe`].
    /// [`IpcError::Closed`] means the sentinel side vanished mid-payload
    /// and the lane is dead.
    pub fn land(self, into: &mut [u8]) -> Result<usize> {
        let n = self.n;
        match self.from {
            Source::Pipe(pipe) => match into.get_mut(..n) {
                Some([]) => Ok(0),
                Some(dst) => pull(pipe, dst).map(|()| n),
                None => {
                    pull(pipe, &mut vec![0; n])?;
                    Err(IpcError::BrokenPipe)
                }
            },
            Source::Carried(bytes, spare) => {
                let landed = match (into.get_mut(..n), bytes.get(..n)) {
                    (Some(dst), Some(src)) => {
                        dst.copy_from_slice(src);
                        Ok(n)
                    }
                    _ => Err(IpcError::BrokenPipe),
                };
                spare.put(bytes);
                landed
            }
        }
    }

    /// The bytes in a buffer of their own: on the §4.3 lane the one the
    /// sentinel staged them in, with no copy here.
    ///
    /// # Errors
    ///
    /// As [`Payload::land`] with room for every announced byte.
    pub fn keep(self) -> Result<Vec<u8>> {
        let n = self.n;
        match self.from {
            Source::Pipe(pipe) => {
                let mut bytes = vec![0; n];
                pull(pipe, &mut bytes).map(|()| bytes)
            }
            Source::Carried(mut bytes, _) if bytes.len() >= n => {
                bytes.truncate(n);
                Ok(bytes)
            }
            Source::Carried(bytes, spare) => {
                spare.put(bytes);
                Err(IpcError::BrokenPipe)
            }
        }
    }
}

/// Fills `dst` from `pipe`. A pipe reports a vanished writer as a short
/// count, not an error: either way the payload is not coming.
fn pull(pipe: &PipeReader, dst: &mut [u8]) -> Result<()> {
    match pipe.read_exact(dst) {
        Ok(got) if got == dst.len() => Ok(()),
        _ => Err(IpcError::Closed),
    }
}

/// What brings replies and their bytes back to the application.
enum Inbox<R> {
    /// §4.2: a reply channel, and the pipe a reply's bytes follow it on.
    Kernel(ControlReceiver<R>, PipeReader),
    /// §4.3: one lane whose replies carry their bytes.
    Shared(LaneEnd<R>),
}

/// The sentinel's end of an [`Inbox`].
enum Outbox<R> {
    Kernel(ControlSender<R>, PipeWriter),
    Shared(LaneEnd<R>),
}

/// Application side of the pair wire (§4.2/§4.3): a command channel, the
/// sentinel-ward data lane, and the replies with their bytes.
pub struct PairTransport<C: Send + 'static, R: Send + 'static> {
    commands: ControlSender<C>,
    replies: Inbox<R>,
    data_tx: Box<dyn DataTx>,
    crossing: CrossingKind,
    model: CostModel,
}

/// Sentinel side of a [`PairTransport`] wiring, drained by the dispatch
/// loop.
pub struct PairPort<C: Send + 'static, R: Send + 'static> {
    commands: ControlReceiver<C>,
    replies: Outbox<R>,
    data_rx: Box<dyn DataRx>,
}

impl<C: Send + 'static, R: Send + 'static> PairTransport<C, R> {
    /// Builds the §4.2 wiring: kernel control channels and two anonymous
    /// pipes across the process boundary. Every transfer costs the pipes'
    /// two kernel copies and the round trip two process switches.
    pub fn kernel(model: CostModel) -> (PairTransport<C, R>, PairPort<C, R>) {
        PairTransport::kernel_build(model, None)
    }

    /// Like [`PairTransport::kernel`], but reports pipe depth to `gauges`.
    pub fn kernel_observed(
        model: CostModel,
        gauges: Arc<QueueGauges>,
    ) -> (PairTransport<C, R>, PairPort<C, R>) {
        PairTransport::kernel_build(model, Some(gauges))
    }

    fn kernel_build(
        model: CostModel,
        gauges: Option<Arc<QueueGauges>>,
    ) -> (PairTransport<C, R>, PairPort<C, R>) {
        let crossing = CrossingKind::InterProcess;
        let (cmd_tx, cmd_rx) = ControlChannel::new::<C>(model.clone());
        let (reply_tx, reply_rx) = ControlChannel::new::<R>(model.clone());
        let pipe = |model: CostModel| match &gauges {
            Some(g) => Pipe::anonymous_observed(model, crossing, Arc::clone(g)),
            None => Pipe::anonymous(model, crossing),
        };
        let (to_sentinel_tx, to_sentinel_rx) = pipe(model.clone());
        let (to_app_tx, to_app_rx) = pipe(model.clone());
        (
            PairTransport {
                commands: cmd_tx,
                replies: Inbox::Kernel(reply_rx, to_app_rx),
                data_tx: Box::new(to_sentinel_tx),
                crossing,
                model,
            },
            PairPort {
                commands: cmd_rx,
                replies: Outbox::Kernel(reply_tx, to_app_tx),
                data_rx: Box::new(to_sentinel_rx),
            },
        )
    }

    /// Builds the §4.3 wiring: a user-level command channel, a shared
    /// buffer for a write's bytes and a reply lane that carries a read's,
    /// inside the process. Every transfer costs one user-level copy and
    /// the round trip two thread switches.
    pub fn shared(model: CostModel) -> (PairTransport<C, R>, PairPort<C, R>) {
        PairTransport::shared_build(model, None)
    }

    /// Like [`PairTransport::shared`], but reports slot occupancy to
    /// `gauges`: the shared buffer's, and the reply lane's as a slot a
    /// reply with bytes fills.
    pub fn shared_observed(
        model: CostModel,
        gauges: Arc<QueueGauges>,
    ) -> (PairTransport<C, R>, PairPort<C, R>) {
        PairTransport::shared_build(model, Some(gauges))
    }

    fn shared_build(
        model: CostModel,
        gauges: Option<Arc<QueueGauges>>,
    ) -> (PairTransport<C, R>, PairPort<C, R>) {
        let (cmd_tx, cmd_rx) = ControlChannel::user_level::<C>(model.clone());
        let (reply_tx, reply_rx) = reply_lane::<R>(model.clone(), gauges.clone());
        let to_sentinel = SharedBuffer::reporting(model.clone(), gauges);
        (
            PairTransport {
                commands: cmd_tx,
                replies: Inbox::Shared(reply_rx),
                data_tx: Box::new(to_sentinel.clone()),
                crossing: CrossingKind::InterThread,
                model,
            },
            PairPort {
                commands: cmd_rx,
                replies: Outbox::Shared(reply_tx),
                data_rx: Box::new(to_sentinel),
            },
        )
    }
}

impl<C: Send + 'static, R: Send + 'static> PairTransport<C, R> {
    /// Which protection boundary an operation round-trip crosses.
    pub fn crossing(&self) -> CrossingKind {
        self.crossing
    }

    /// Sends one command to the sentinel, charging the crossings of its
    /// round trip.
    ///
    /// # Errors
    ///
    /// [`IpcError::BrokenPipe`] once the sentinel side is gone.
    pub fn send_cmd(&self, cmd: C) -> Result<()> {
        self.model.charge_round_trip(self.crossing);
        self.commands.send(cmd)
    }

    /// Sends the command the caller blocks on the reply to next, sending
    /// nothing after it, with room for `reply_room` bytes behind the
    /// reply. When that room fits the application-ward lane, nothing the
    /// sentinel sends while serving the command can wait on this caller's
    /// drain, and the send is marked awaited (see
    /// [`Wake`](crate::control::Wake)): the sentinel may run on this
    /// thread. A larger room is sent as [`send_cmd`] sends.
    ///
    /// [`send_cmd`]: PairTransport::send_cmd
    ///
    /// # Errors
    ///
    /// As [`send_cmd`](PairTransport::send_cmd).
    pub fn send_awaited(&self, cmd: C, reply_room: usize) -> Result<()> {
        if reply_room > self.reply_room() {
            return self.send_cmd(cmd);
        }
        self.model.charge_round_trip(self.crossing);
        self.commands.send_awaited(cmd)
    }

    /// The most bytes one reply can bring without its sender waiting for
    /// this end to drain the lane first: a pipe's capacity, or any number
    /// for a reply that carries its bytes.
    fn reply_room(&self) -> usize {
        match &self.replies {
            Inbox::Kernel(_, pipe) => pipe.capacity(),
            Inbox::Shared(_) => usize::MAX,
        }
    }

    /// Sends the frames a call flushes, each command with its payload
    /// behind it, then the call's own `cmd` as [`send_awaited`] sends it;
    /// `sent` gets each payload back once it is on the wire. A flushed
    /// frame whose payload fits the sentinel-ward lane without waiting is
    /// *held*: it rings nothing, and the call's one ring serves it too, so
    /// a sentinel the call finds idle runs the flush and the call on this
    /// thread instead of waking a worker for the flush. A payload that
    /// would wait is rung for first, as [`send_cmd`] rings, since only the
    /// sentinel can drain it; and an error after a held frame rings before
    /// it returns, so no frame is left on the lane unrung. Must run under
    /// the lock that keeps the caller's frames and payloads adjacent.
    ///
    /// [`send_awaited`]: PairTransport::send_awaited
    /// [`send_cmd`]: PairTransport::send_cmd
    ///
    /// # Errors
    ///
    /// As [`send_cmd`](PairTransport::send_cmd), or a data lane's failure.
    pub fn send_call_behind(
        &self,
        flush: impl IntoIterator<Item = (C, Vec<u8>)>,
        cmd: C,
        reply_room: usize,
        mut sent: impl FnMut(Vec<u8>),
    ) -> Result<()> {
        let mut unrung = false;
        let result = flush
            .into_iter()
            .try_for_each(|(frame, payload)| {
                unrung = self.data_tx.fits(payload.len());
                let doorbell = if unrung {
                    Doorbell::Held
                } else {
                    Doorbell::Post
                };
                self.model.charge_round_trip(self.crossing);
                self.commands.send_all(1, [frame], doorbell)?;
                if !payload.is_empty() {
                    self.data_tx.send(&payload)?;
                }
                sent(payload);
                Ok(())
            })
            .and_then(|()| self.send_awaited(cmd, reply_room));
        if result.is_err() && unrung {
            self.commands.ring();
        }
        result
    }

    /// Receives the sentinel's next reply and hands it to `land` with the
    /// `announced(&reply)` bytes that come with it, which `land` lands in
    /// a caller's buffer or keeps (see [`Payload`]).
    ///
    /// # Errors
    ///
    /// [`IpcError::Closed`] once the sentinel side is gone, or whatever
    /// `land` returns.
    pub fn recv_reply<T>(
        &self,
        announced: impl FnOnce(&R) -> usize,
        land: impl FnOnce(R, Payload<'_>) -> Result<T>,
    ) -> Result<T> {
        match &self.replies {
            Inbox::Kernel(replies, pipe) => {
                let reply = replies.recv()?;
                let n = announced(&reply);
                land(
                    reply,
                    Payload {
                        n,
                        from: Source::Pipe(pipe),
                    },
                )
            }
            Inbox::Shared(lane) => lane.recv(announced, land),
        }
    }

    /// Sends payload bytes to the sentinel.
    pub fn send_data(&self, data: &[u8]) -> Result<()> {
        self.data_tx.send(data)
    }
}

impl<C: Send + 'static, R: Send + 'static> PairPort<C, R> {
    /// Receives the next command, blocking; fails with
    /// [`IpcError::Closed`] once the application side is gone.
    pub fn recv_cmd(&self) -> Result<C> {
        self.commands.recv()
    }

    /// Non-blocking receive with `recv_cmd`-equivalent charging: the
    /// kernel-syscall cost is paid when a command (or channel closure) is
    /// observed, never for an empty poll. This is what a poll-driven
    /// sentinel drains instead of blocking in `recv_cmd`. A command comes
    /// with whether its take left the open lane empty (see
    /// [`ControlReceiver::poll_recv`]).
    ///
    /// # Errors
    ///
    /// [`IpcError::Closed`] once the application side is gone.
    pub fn poll_cmd(&self) -> Result<Option<(C, bool)>> {
        self.commands.poll_recv()
    }

    /// Installs the command lane's readiness waker, once, invoked whenever a
    /// new command arrives or the application side drops its last sender.
    /// This is the hook the sentinel executor parks on: an idle sentinel
    /// is scheduled only when its transport has something to observe.
    pub fn set_wakeup(&self, waker: crate::ChannelWaker) {
        self.commands.set_waker(waker);
    }

    /// Sends a reply that brings no bytes back.
    ///
    /// # Errors
    ///
    /// [`IpcError::BrokenPipe`] once the application side is gone.
    pub fn send_reply(&self, reply: R) -> Result<()> {
        self.send_reply_with(reply, Vec::new()).map(drop)
    }

    /// Sends `reply` with `bytes`, and returns a buffer for the sender's
    /// staging list: on the §4.2 wiring `bytes` itself, once its pipe has
    /// copied them; on the §4.3 wiring `bytes` travels with the reply, and
    /// what comes back is a spare the lane kept from an earlier reply, if
    /// it has one (or `bytes`, when empty).
    ///
    /// # Errors
    ///
    /// [`IpcError::BrokenPipe`] once the application side is gone.
    pub fn send_reply_with(&self, reply: R, bytes: Vec<u8>) -> Result<Option<Vec<u8>>> {
        match &self.replies {
            Outbox::Kernel(replies, pipe) => {
                replies.send(reply)?;
                if !bytes.is_empty() {
                    pipe.write(&bytes)?;
                }
                Ok(Some(bytes))
            }
            Outbox::Shared(lane) => lane.send(reply, bytes),
        }
    }

    /// Receives exactly `buf.len()` payload bytes from the application.
    pub fn recv_data_exact(&self, buf: &mut [u8]) -> Result<usize> {
        self.data_rx.recv_exact(buf)
    }
}

#[cfg(test)]
mod tests {
    use std::sync::mpsc;

    use afs_sim::{clock, HardwareProfile};

    use super::*;

    /// A reply of `n` carries `n` bytes.
    fn announced(reply: &u8) -> usize {
        *reply as usize
    }

    /// Takes the next reply, landing its bytes in `into`.
    fn land(app: &PairTransport<u8, u8>, into: &mut [u8]) -> Result<(u8, usize)> {
        app.recv_reply(announced, |reply, bytes| Ok((reply, bytes.land(into)?)))
    }

    #[test]
    fn kernel_pair_round_trips_commands_and_data() {
        let (app, port) = PairTransport::<u32, u64>::kernel(CostModel::free());
        app.send_cmd(7).expect("cmd");
        assert_eq!(port.recv_cmd().expect("recv cmd"), 7);
        app.send_data(b"down").expect("data down");
        let mut buf = [0u8; 4];
        port.recv_data_exact(&mut buf).expect("port recv");
        assert_eq!(&buf, b"down");
        let back = port.send_reply_with(4, b"up!!".to_vec()).expect("reply");
        assert_eq!(back.as_deref(), Some(&b"up!!"[..]), "the pipe copied it");
        let n = app.recv_reply(
            |&r| r as usize,
            |r, bytes| {
                assert_eq!(r, 4);
                bytes.land(&mut buf)
            },
        );
        assert_eq!((n, &buf), (Ok(4), b"up!!"));
        assert_eq!(app.crossing(), CrossingKind::InterProcess);
    }

    #[test]
    fn shared_pair_round_trips_commands_and_data() {
        let (app, port) = PairTransport::<u8, u8>::shared(CostModel::free());
        app.send_cmd(1).expect("cmd");
        assert_eq!(port.recv_cmd().expect("recv cmd"), 1);
        app.send_data(b"x").expect("data");
        let mut buf = [0u8; 2];
        port.recv_data_exact(&mut buf[..1]).expect("recv");
        assert_eq!(&buf[..1], b"x");
        port.send_reply(0).expect("bare reply");
        assert_eq!(land(&app, &mut []), Ok((0, 0)));
        port.send_reply_with(2, b"up".to_vec()).expect("reply");
        assert_eq!(land(&app, &mut buf), Ok((2, 2)));
        assert_eq!(&buf, b"up");
        assert_eq!(app.crossing(), CrossingKind::InterThread);
    }

    /// The bytes travel in the sentinel's buffer, which the application
    /// leaves on the lane and the next reply's send hands back.
    #[test]
    fn a_shared_reply_hands_its_buffer_round() {
        let (app, port) = PairTransport::<u8, u8>::shared(CostModel::free());
        let staged = b"abcd".to_vec();
        let at = staged.as_ptr();
        assert_eq!(port.send_reply_with(4, staged), Ok(None), "no spare yet");
        let mut buf = [0u8; 4];
        assert_eq!(land(&app, &mut buf), Ok((4, 4)));
        let back = port.send_reply_with(2, b"ef".to_vec()).expect("second");
        let spare = back.expect("the first reply's buffer comes back");
        assert_eq!(spare.as_ptr(), at, "the same allocation");
        // Kept bytes leave the lane with their buffer.
        let kept = app.recv_reply(announced, |_, bytes| bytes.keep());
        assert_eq!(kept.as_deref(), Ok(&b"ef"[..]));
        assert_eq!(port.send_reply_with(1, b"g".to_vec()), Ok(None));
        // An empty reply keeps its buffer on the sentinel's side.
        let empty = Vec::with_capacity(8);
        let back = port.send_reply_with(0, empty).expect("bare").expect("back");
        assert_eq!(back.capacity(), 8);
    }

    #[test]
    fn shared_buffer_recv_exact_assembles_multiple_messages() {
        // Regression: the old implementation returned after one message,
        // silently leaving the buffer tail unfilled.
        let buffer = SharedBuffer::new(CostModel::free());
        let producer = buffer.clone();
        let t = std::thread::spawn(move || {
            producer.send(b"0123").expect("first");
            producer.send(b"456789").expect("second");
        });
        let mut buf = [0u8; 10];
        let n = DataRx::recv_exact(&buffer, &mut buf).expect("recv_exact");
        t.join().expect("join");
        assert_eq!(n, 10);
        assert_eq!(&buf, b"0123456789");
    }

    #[test]
    fn shared_buffer_recv_exact_rejects_overlong_message() {
        let buffer = SharedBuffer::new(CostModel::free());
        buffer.send(b"0123456789").expect("send");
        let mut buf = [0u8; 4];
        assert_eq!(
            DataRx::recv_exact(&buffer, &mut buf),
            Err(IpcError::BrokenPipe)
        );
    }

    #[test]
    fn an_over_announced_payload_is_drained_and_the_lane_stays_framed() {
        let wirings = [PairTransport::kernel, PairTransport::shared];
        for (i, wiring) in wirings.into_iter().enumerate() {
            let (app, port) = wiring(CostModel::free());
            let mut buf = [0u8; 4];
            // The second reply waits on the first's take over the §4.3
            // lane, so the sentinel side answers from a thread.
            std::thread::scope(|s| {
                s.spawn(|| {
                    port.send_reply_with(10, b"0123456789".to_vec())
                        .expect("oversized payload");
                    port.send_reply_with(4, b"next".to_vec())
                        .expect("following payload");
                });
                assert_eq!(land(&app, &mut buf), Err(IpcError::BrokenPipe), "{i}");
                assert_eq!(buf, [0u8; 4], "{i}: nothing lands in the caller's buffer");
                assert_eq!(land(&app, &mut buf), Ok((4, 4)), "{i}");
            });
            assert_eq!(&buf, b"next", "{i}");
            // A reply that carries fewer bytes than it announces fails
            // alike, and the lane stays framed.
            port.send_reply_with(3, b"ab".to_vec()).expect("short");
            if i == 1 {
                assert_eq!(land(&app, &mut buf), Err(IpcError::BrokenPipe));
                port.send_reply(0).expect("bare");
                assert_eq!(land(&app, &mut buf), Ok((0, 0)));
                continue;
            }
            // On a pipe the missing byte is a vanished sentinel: a dead
            // lane, not a protocol violation.
            drop(port);
            assert_eq!(land(&app, &mut buf), Err(IpcError::Closed));
        }
    }

    #[test]
    fn a_bare_reply_takes_no_capacity_and_the_gauges_count_only_bytes() {
        let gauges = Arc::new(QueueGauges::default());
        let (app, port) =
            PairTransport::<u8, u8>::shared_observed(CostModel::free(), Arc::clone(&gauges));
        port.send_reply_with(1, b"a".to_vec())
            .expect("fills the lane");
        // Would wait on the first's take if it took a unit.
        port.send_reply(0).expect("bare");
        let snap = gauges.snapshot();
        assert_eq!((snap.shm_pending, snap.shm_messages), (1, 1));
        assert_eq!(land(&app, &mut [0; 1]), Ok((1, 1)));
        assert_eq!(land(&app, &mut []), Ok((0, 0)));
        assert_eq!(gauges.snapshot().shm_pending, 0);
        drop(port);
        assert_eq!(land(&app, &mut []), Err(IpcError::Closed));
    }

    /// What a reply with bytes is charged: the reply's event, and the
    /// copy and event of the slot the bytes used to follow it in.
    #[test]
    fn a_reply_with_bytes_is_charged_a_reply_and_a_slot() {
        let model = CostModel::new(HardwareProfile::pentium_ii_300());
        let (app, port) = PairTransport::<u8, u8>::shared(model.clone());
        let _g = clock::install(0);
        port.send_reply_with(128, vec![7; 128]).expect("reply");
        let sent = clock::now();
        let expected =
            model.price(Cost::EventSignal) * 2 + model.price(Cost::Memcpy { bytes: 128 });
        assert_eq!(sent, expected);
        let snap = model.snapshot();
        assert_eq!((snap.copies, snap.memcpy_bytes), (1, 128));
        assert_eq!(land(&app, &mut [0; 128]), Ok((128, 128)));
        assert_eq!(model.snapshot().copies, 1, "the landing is not charged");
    }

    /// The sentinel's clock after its second reply with bytes, when the
    /// first is taken at 50 ms virtual before that send arrives or after
    /// it blocked; and after a bare reply in between.
    fn sentinel_clock_after_backpressure(taken_first: bool) -> u64 {
        let model = CostModel::new(HardwareProfile::pentium_ii_300());
        let (app, port) = PairTransport::<u8, u8>::shared(model);
        let (first_sent, sent) = mpsc::channel();
        let (taken, first_taken) = mpsc::channel();
        std::thread::scope(|s| {
            let app = &app;
            s.spawn(move || {
                let _g = clock::install(0);
                sent.recv().expect("first send");
                if !taken_first {
                    std::thread::sleep(std::time::Duration::from_millis(30));
                }
                clock::advance(50_000_000);
                land(app, &mut [0; 1]).expect("take");
                taken.send(()).expect("signal");
                land(app, &mut []).expect("bare");
                land(app, &mut [0; 1]).expect("second");
            });
            let _g = clock::install(0);
            port.send_reply_with(1, b"a".to_vec())
                .expect("fills the lane");
            assert!(clock::now() < 50_000_000);
            port.send_reply(0).expect("a bare reply reuses nothing");
            assert!(clock::now() < 50_000_000);
            first_sent.send(()).expect("signal");
            if taken_first {
                first_taken.recv().expect("taken");
            }
            port.send_reply_with(1, b"b".to_vec())
                .expect("reuses the unit");
            clock::now()
        })
    }

    #[test]
    fn a_reply_with_bytes_moves_to_the_take_it_reuses_whether_or_not_it_waited() {
        let waited = sentinel_clock_after_backpressure(false);
        let found_space = sentinel_clock_after_backpressure(true);
        assert!(
            waited >= 50_000_000,
            "the sender inherits the take, got {waited}"
        );
        assert_eq!(found_space, waited, "the real race does not move the clock");
    }
}
