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
//! | commands | kernel control channel | one lane whose commands carry their bytes |
//! | a write's bytes | a pipe, behind their command | in their command |
//! | replies | kernel control channel | one lane whose replies carry their bytes |
//! | a read's bytes | a pipe, behind their reply | in their reply |
//!
//! The lanes carry whatever command and reply types the layer above
//! frames; what an *operation* is (one `post`, or one `call` whose reply
//! says how many bytes come with it) is [`AppPort`](crate::AppPort)'s
//! business: the bare pair carries one session, a
//! [`MuxHub`](crate::MuxHub) many.
//!
//! A §4.3 message and its bytes are one item of its lane ("these
//! 'messages' are implemented using events and shared memory", Appendix
//! A.3), as a ring entry is. The application copies a command's bytes
//! once into a buffer from the command lane's [`FreeList`], which the
//! dispatch loop keeps as the payload, paying the lane back from its
//! staging list at its next take of bytes. A reply's bytes travel in the
//! buffer the sentinel staged them in; the application copies them once
//! into the caller's buffer and leaves the buffer on the reply lane's
//! list, and the next reply's send hands a spare back to the sentinel.
//! Each lane is an instance of the [stamped core](crate::stamped) whose
//! capacity counts one unit per message that carries bytes and none for a
//! bare one, and a message with bytes is charged one user-level copy and
//! one event signal beyond its own, so it costs what a message and a
//! one-slot buffer behind it cost, at the same virtual time.

use std::sync::Arc;

use afs_sim::{Cost, CostModel, CrossingKind};
use afs_telemetry::QueueGauges;

use crate::stamped::{Doorbell, End, Flow, Gauge, Stamped};
use crate::{
    ChannelWaker, ControlChannel, ControlReceiver, ControlSender, FreeList, IpcError, Pipe,
    PipeReader, PipeWriter, Result,
};

/// Reports a §4.3 lane's occupancy to `gauges` as a slot: a send whose
/// bytes take the unit fills it, the take that frees it empties it.
fn slot_gauge(gauges: Arc<QueueGauges>) -> Gauge {
    Box::new(move |flow| match flow {
        Flow::Sent { units: 0, .. } | Flow::Taken(0) => {}
        Flow::Sent { .. } => gauges.shm_filled(),
        Flow::Taken(_) => gauges.shm_taken(),
    })
}

/// One end of a §4.3 lane, each item of which is a command or a reply
/// and the bytes it carries (none for a bare one), stamped once; dropping
/// it hangs that end up.
struct LaneEnd<T> {
    core: Arc<Stamped<(T, Vec<u8>)>>,
    model: CostModel,
    end: End,
}

impl<T> Drop for LaneEnd<T> {
    fn drop(&mut self) {
        self.core.hang_up(self.end);
    }
}

/// A lane's sending and receiving ends. A message that carries bytes
/// takes the one unit of capacity, so it waits while the previous one's
/// bytes are still untaken, and reports to `gauges` as a filled slot.
fn lane<T>(model: CostModel, gauges: Option<Arc<QueueGauges>>) -> (LaneEnd<T>, LaneEnd<T>) {
    let core = Arc::new(Stamped::new(Some(1), gauges.map(slot_gauge)));
    let end = |end| LaneEnd {
        core: Arc::clone(&core),
        model: model.clone(),
        end,
    };
    (end(End::Sender), end(End::Receiver))
}

impl<T> LaneEnd<T> {
    /// Sends `item` with `len` bytes, which `stage` puts in a buffer given
    /// the lane's list once the capacity they reuse has drained; a bare
    /// item (`len` 0) takes neither. Charges the item's event signal and,
    /// with bytes, their one user-level copy and an event signal of their
    /// own.
    fn send(
        &self,
        item: T,
        len: usize,
        doorbell: Doorbell,
        stage: impl FnOnce(&mut FreeList) -> Vec<u8>,
    ) -> Result<()> {
        self.model.charge(Cost::EventSignal);
        if len == 0 {
            return self.core.send(0, doorbell, |_| [(item, Vec::new())]);
        }
        self.core.send(1, doorbell, |spare| {
            self.model.charge(Cost::Memcpy { bytes: len });
            self.model.charge(Cost::EventSignal);
            [(item, stage(spare))]
        })
    }

    /// Takes the next item, if one is queued, with its bytes and whether
    /// the take left the open lane empty. The receiver keeps the bytes, so
    /// their take hands the lane a spare from `staging`, under its lock.
    fn poll(&self, staging: &mut FreeList) -> Result<Option<(T, Vec<u8>, bool)>> {
        let Some(mut taking) = self.core.poll()? else {
            return Ok(None);
        };
        if taking.front().is_some_and(|(_, bytes)| !bytes.is_empty()) {
            taking.hand_back(staging);
        }
        let ((item, bytes), emptied) = taking.whole(|(_, bytes)| usize::from(!bytes.is_empty()));
        Ok(Some((item, bytes, emptied)))
    }

    /// Takes the next item and hands it to `land` with its bytes, under
    /// the lane's lock; a buffer copied out of stays on the lane's list.
    fn recv<U>(
        &self,
        announced: impl FnOnce(&T) -> usize,
        land: impl FnOnce(T, Payload<'_>) -> Result<U>,
    ) -> Result<U> {
        let mut taking = self.core.take()?;
        let (item, bytes) = taking.pop().expect("a take holds an item");
        let units = usize::from(!bytes.is_empty());
        let n = announced(&item);
        let landed = land(
            item,
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
                let mut bytes = Vec::with_capacity(n);
                pull_into(pipe, &mut bytes, n).map(|()| bytes)
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

/// [`pull`] of `n` bytes into the empty `dst`, which is not zero-filled
/// for them first.
fn pull_into(pipe: &PipeReader, dst: &mut Vec<u8>, n: usize) -> Result<()> {
    while dst.len() < n {
        if !matches!(pipe.read_append(dst, n - dst.len()), Ok(1..)) {
            return Err(IpcError::Closed);
        }
    }
    Ok(())
}

/// What carries one direction's messages and their bytes, at the sending
/// end: §4.2's control channel and the pipe the bytes follow it on, or
/// §4.3's lane whose messages carry them.
enum Outbox<T> {
    Kernel(ControlSender<T>, PipeWriter),
    Shared(LaneEnd<T>),
}

/// The receiving end of an [`Outbox`].
enum Inbox<T> {
    Kernel(ControlReceiver<T>, PipeReader),
    Shared(LaneEnd<T>),
}

impl<T: Send> Outbox<T> {
    /// Sends `item` with a copy of `bytes`: into the pipe behind it on
    /// §4.2, or on §4.3 into a buffer of the lane's, the one user-level
    /// copy.
    fn send(&self, item: T, bytes: &[u8], doorbell: Doorbell) -> Result<()> {
        match self {
            Outbox::Kernel(items, pipe) => {
                items.send_all(1, [item], doorbell, None)?;
                if !bytes.is_empty() {
                    pipe.write(bytes)?;
                }
                Ok(())
            }
            Outbox::Shared(lane) => lane.send(item, bytes.len(), doorbell, |spare| {
                let mut staged = spare.take_capacity(bytes.len());
                staged.extend_from_slice(bytes);
                staged
            }),
        }
    }

    /// Sends a frame a call flushes ahead of itself, with a copy of
    /// `bytes`, and returns whether it went in *held*: ringing nothing,
    /// for the call's one ring to serve it too. A frame whose bytes go in
    /// without waiting is held. One whose bytes would wait is rung for
    /// first, since only the receiver can drain the lane: a pipe's frame
    /// is posted, since the receiver reads the pipe behind it only once it
    /// has the frame; a lane rings before it waits for the capacity, then
    /// holds the frame. A held frame whose send fails rings before the
    /// error returns, so it is not left on the lane unrung.
    fn send_flushed(&self, item: T, bytes: &[u8]) -> Result<bool> {
        let held = match self {
            Outbox::Kernel(_, pipe) => pipe.fits(bytes.len()),
            Outbox::Shared(lane) => {
                if !lane.core.fits(usize::from(!bytes.is_empty())) {
                    lane.core.ring();
                }
                true
            }
        };
        let doorbell = if held { Doorbell::Held } else { Doorbell::Post };
        let result = self.send(item, bytes, doorbell);
        if result.is_err() && held {
            self.ring();
        }
        result.map(|()| held)
    }

    /// Rings the receiver's waker with nothing sent, as a posted send
    /// would.
    fn ring(&self) {
        match self {
            Outbox::Kernel(items, _) => items.ring(),
            Outbox::Shared(lane) => lane.core.ring(),
        }
    }
}

/// Application side of the pair wire (§4.2/§4.3): commands with their
/// bytes out, replies with theirs back.
pub struct PairTransport<C: Send + 'static, R: Send + 'static> {
    commands: Outbox<C>,
    replies: Inbox<R>,
    crossing: CrossingKind,
    model: CostModel,
}

/// Sentinel side of a [`PairTransport`] wiring, drained by the dispatch
/// loop.
pub struct PairPort<C: Send + 'static, R: Send + 'static> {
    commands: Inbox<C>,
    replies: Outbox<R>,
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
                commands: Outbox::Kernel(cmd_tx, to_sentinel_tx),
                replies: Inbox::Kernel(reply_rx, to_app_rx),
                crossing,
                model,
            },
            PairPort {
                commands: Inbox::Kernel(cmd_rx, to_sentinel_rx),
                replies: Outbox::Kernel(reply_tx, to_app_tx),
            },
        )
    }

    /// Builds the §4.3 wiring: a command lane that carries a write's bytes
    /// and a reply lane that carries a read's, inside the process. Every
    /// transfer costs one user-level copy and the round trip two thread
    /// switches.
    pub fn shared(model: CostModel) -> (PairTransport<C, R>, PairPort<C, R>) {
        PairTransport::shared_build(model, None)
    }

    /// Like [`PairTransport::shared`], but reports each lane's occupancy
    /// to `gauges`, as a slot a message with bytes fills.
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
        let (cmd_tx, cmd_rx) = lane::<C>(model.clone(), gauges.clone());
        let (reply_tx, reply_rx) = lane::<R>(model.clone(), gauges);
        (
            PairTransport {
                commands: Outbox::Shared(cmd_tx),
                replies: Inbox::Shared(reply_rx),
                crossing: CrossingKind::InterThread,
                model,
            },
            PairPort {
                commands: Inbox::Shared(cmd_rx),
                replies: Outbox::Shared(reply_tx),
            },
        )
    }
}

impl<C: Send + 'static, R: Send + 'static> PairTransport<C, R> {
    /// Which protection boundary an operation round-trip crosses.
    pub fn crossing(&self) -> CrossingKind {
        self.crossing
    }

    /// Sends one command with its `payload` (a write's bytes; empty for
    /// any other command) to the sentinel, charging the crossings of its
    /// round trip.
    ///
    /// # Errors
    ///
    /// [`IpcError::BrokenPipe`] once the sentinel side is gone.
    pub fn send(&self, cmd: C, payload: &[u8]) -> Result<()> {
        self.model.charge_round_trip(self.crossing);
        self.commands.send(cmd, payload, Doorbell::Post)
    }

    /// Sends the command the caller blocks on the reply to next, sending
    /// nothing after it, with room for `reply_room` bytes behind the
    /// reply. When that room fits the application-ward lane, nothing the
    /// sentinel sends while serving the command can wait on this caller's
    /// drain, and the send is marked awaited (see
    /// [`Wake`](crate::control::Wake)): the sentinel may run on this
    /// thread. A larger room is sent as [`send`] sends.
    ///
    /// [`send`]: PairTransport::send
    ///
    /// # Errors
    ///
    /// As [`send`](PairTransport::send).
    pub fn send_awaited(&self, cmd: C, reply_room: usize) -> Result<()> {
        if reply_room > self.reply_room() {
            return self.send(cmd, &[]);
        }
        self.model.charge_round_trip(self.crossing);
        self.commands.send(cmd, &[], Doorbell::Awaited)
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

    /// Sends the frames a call flushes, each command with its payload,
    /// then the call's own `cmd` as [`send_awaited`] sends it; `sent` gets
    /// each payload back once it is on the wire. A flushed frame whose
    /// payload goes in without waiting is *held*: it rings nothing, and
    /// the call's one ring serves it too, so a sentinel the call finds
    /// idle runs the flush and the call on this thread instead of waking a
    /// worker for the flush. A payload that would wait is rung for first
    /// (a §4.2 frame is posted, a §4.3 one goes in held after the ring).
    /// An error after a held frame rings before it returns, so no frame
    /// is left on the lane unrung. Must run under the lock that keeps the
    /// caller's frames and payloads adjacent.
    ///
    /// [`send_awaited`]: PairTransport::send_awaited
    ///
    /// # Errors
    ///
    /// As [`send`](PairTransport::send), or a pipe's failure.
    pub fn send_call_behind(
        &self,
        flush: impl IntoIterator<Item = (C, Vec<u8>)>,
        cmd: C,
        reply_room: usize,
        mut sent: impl FnMut(Vec<u8>),
    ) -> Result<()> {
        let mut unrung = false;
        for (frame, payload) in flush {
            self.model.charge_round_trip(self.crossing);
            unrung = self.commands.send_flushed(frame, &payload)?;
            sent(payload);
        }
        let result = self.send_awaited(cmd, reply_room);
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
}

impl<C: Send + 'static, R: Send + 'static> PairPort<C, R> {
    /// Takes the next command and the `announced(&cmd)` bytes that come
    /// with it, if one is queued, with whether its take left the open lane
    /// empty (see [`ControlReceiver::poll_recv`]), charged as a blocking
    /// receive would be, and nothing for an empty poll. Bytes read off a
    /// §4.2 pipe land in a buffer from `staging`; a §4.3 command's come in
    /// the buffer the application filled, which the caller keeps, so their
    /// take hands the lane a spare from `staging`.
    ///
    /// # Errors
    ///
    /// [`IpcError::Closed`] once the application side is gone;
    /// [`IpcError::BrokenPipe`] when the bytes do not come: the pipe's
    /// writer vanished first, or a §4.3 command carries other than
    /// `announced`. The command is taken either way: the lane stays framed.
    pub fn poll_cmd(
        &self,
        announced: impl FnOnce(&C) -> usize,
        staging: &mut FreeList,
    ) -> Result<Option<(C, Vec<u8>, bool)>> {
        match &self.commands {
            Inbox::Kernel(commands, pipe) => {
                let Some((cmd, emptied)) = commands.poll_keeping(|_| false, staging)? else {
                    return Ok(None);
                };
                let n = announced(&cmd);
                if n == 0 {
                    return Ok(Some((cmd, Vec::new(), emptied)));
                }
                let mut bytes = staging.take_capacity(n);
                if pull_into(pipe, &mut bytes, n).is_err() {
                    staging.put(bytes);
                    return Err(IpcError::BrokenPipe);
                }
                Ok(Some((cmd, bytes, emptied)))
            }
            Inbox::Shared(lane) => {
                let Some((cmd, bytes, emptied)) = lane.poll(staging)? else {
                    return Ok(None);
                };
                if bytes.len() != announced(&cmd) {
                    staging.put(bytes);
                    return Err(IpcError::BrokenPipe);
                }
                Ok(Some((cmd, bytes, emptied)))
            }
        }
    }

    /// Installs the command lane's readiness waker, once, invoked whenever a
    /// new command arrives or the application side drops its last sender.
    /// This is the hook the sentinel executor parks on: an idle sentinel
    /// is scheduled only when its transport has something to observe.
    pub fn set_wakeup(&self, waker: ChannelWaker) {
        match &self.commands {
            Inbox::Kernel(commands, _) => commands.set_waker(waker),
            Inbox::Shared(lane) => lane.core.set_waker(waker),
        }
    }

    /// Sends `reply` with `bytes` (none for a bare reply), and returns a
    /// buffer for the sender's staging list: on the §4.2 wiring `bytes`
    /// itself, once its pipe has copied them; on the §4.3 wiring `bytes`
    /// travels with the reply, and what comes back is a spare the lane
    /// kept from an earlier reply, if it has one (or `bytes`, when empty).
    ///
    /// # Errors
    ///
    /// [`IpcError::BrokenPipe`] once the application side is gone.
    pub fn send_reply_with(&self, reply: R, bytes: Vec<u8>) -> Result<Option<Vec<u8>>> {
        match &self.replies {
            Outbox::Shared(lane) if !bytes.is_empty() => {
                let mut back = None;
                lane.send(reply, bytes.len(), Doorbell::Post, |spare| {
                    back = spare.spare();
                    bytes
                })?;
                Ok(back)
            }
            _ => self
                .replies
                .send(reply, &bytes, Doorbell::Post)
                .map(|()| Some(bytes)),
        }
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

    /// A command of `n` carries `n` bytes.
    fn carries(cmd: &u8) -> usize {
        *cmd as usize
    }

    /// Takes the queued command with its bytes.
    fn take<R: Send>(port: &PairPort<u8, R>) -> Result<(u8, Vec<u8>)> {
        let taken = port.poll_cmd(carries, &mut FreeList::default())?;
        Ok(taken
            .map(|(cmd, bytes, _)| (cmd, bytes))
            .expect("a queued command"))
    }

    #[test]
    fn kernel_pair_round_trips_commands_and_data() {
        let (app, port) = PairTransport::<u8, u64>::kernel(CostModel::free());
        app.send(4, b"down").expect("cmd");
        let down = take(&port).expect("recv cmd");
        assert_eq!(down, (4, b"down".to_vec()));
        let mut buf = [0u8; 4];
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
        app.send(0, b"").expect("bare cmd");
        assert_eq!(take(&port), Ok((0, Vec::new())));
        app.send(1, b"x").expect("cmd");
        assert_eq!(take(&port), Ok((1, b"x".to_vec())));
        let mut buf = [0u8; 2];
        port.send_reply_with(0, Vec::new()).expect("bare reply");
        assert_eq!(land(&app, &mut []), Ok((0, 0)));
        port.send_reply_with(2, b"up".to_vec()).expect("reply");
        assert_eq!(land(&app, &mut buf), Ok((2, 2)));
        assert_eq!(&buf, b"up");
        assert_eq!(app.crossing(), CrossingKind::InterThread);
    }

    /// A command's bytes travel in a buffer of the lane's, which the
    /// sentinel keeps; its next take of bytes hands the lane a spare from
    /// its staging list, and the application's next send fills that.
    #[test]
    fn a_shared_command_is_paid_back_with_a_spare() {
        let (app, port) = PairTransport::<u8, u8>::shared(CostModel::free());
        let mut staging = FreeList::default();
        app.send(2, b"ab").expect("first");
        let (_, first, emptied) = port
            .poll_cmd(carries, &mut staging)
            .expect("poll")
            .expect("a command");
        assert!(emptied, "the take emptied the lane");
        let at = first.as_ptr();
        staging.put(first);
        app.send(0, b"").expect("bare");
        port.poll_cmd(carries, &mut staging)
            .expect("bare")
            .expect("a command");
        app.send(1, b"c").expect("second");
        let (_, second, _) = port
            .poll_cmd(carries, &mut staging)
            .expect("poll")
            .expect("a command");
        assert_eq!(second, b"c");
        assert!(second.as_ptr() != at, "the first's buffer was still kept");
        app.send(3, b"def").expect("third");
        let (_, third, _) = port
            .poll_cmd(carries, &mut staging)
            .expect("poll")
            .expect("a command");
        assert_eq!(
            (third.as_slice(), third.as_ptr()),
            (&b"def"[..], at),
            "the spare"
        );
        assert_eq!(port.poll_cmd(carries, &mut staging), Ok(None));
    }

    /// A command whose bytes are not the ones it announces fails its take,
    /// on either wiring, and the next command is read as sent.
    #[test]
    fn a_command_that_carries_other_than_it_announces_fails_and_the_lane_stays_framed() {
        let (app, port) = PairTransport::<u8, u8>::shared(CostModel::free());
        let mut staging = FreeList::default();
        for wrong in [&b"abc"[..], b"abcde", b""] {
            app.send(4, wrong).expect("mis-framed");
            let taken = port.poll_cmd(carries, &mut staging);
            assert_eq!(taken, Err(IpcError::BrokenPipe), "{wrong:?}");
            app.send(2, b"ok").expect("next");
            let taken = port.poll_cmd(carries, &mut staging).expect("framed");
            assert_eq!(taken, Some((2, b"ok".to_vec(), true)), "{wrong:?}");
        }
        // On a pipe, missing bytes are a vanished application.
        let (app, port) = PairTransport::<u8, u8>::kernel(CostModel::free());
        app.send(4, b"abc").expect("short");
        drop(app);
        let taken = port.poll_cmd(carries, &mut staging);
        assert_eq!(taken, Err(IpcError::BrokenPipe));
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
                port.send_reply_with(0, Vec::new()).expect("bare");
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
        port.send_reply_with(0, Vec::new()).expect("bare");
        let snap = gauges.snapshot();
        assert_eq!((snap.shm_pending, snap.shm_messages), (1, 1));
        assert_eq!(land(&app, &mut [0; 1]), Ok((1, 1)));
        assert_eq!(land(&app, &mut []), Ok((0, 0)));
        assert_eq!(gauges.snapshot().shm_pending, 0);
        // The command lane reports alike.
        app.send(1, b"w").expect("fills the command lane");
        app.send(0, b"").expect("bare");
        let snap = gauges.snapshot();
        assert_eq!((snap.shm_pending, snap.shm_messages), (1, 2));
        assert_eq!(take(&port), Ok((1, b"w".to_vec())));
        assert_eq!(take(&port), Ok((0, Vec::new())));
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
            port.send_reply_with(0, Vec::new())
                .expect("a bare reply reuses nothing");
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
