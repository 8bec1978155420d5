//! Session multiplexing: many opens, one transport, one sentinel.
//!
//! The paper's §2.2 rule — one sentinel per open — costs N threads, N
//! transports, and N incoherent caches for N concurrent opens of the same
//! active file. A [`MuxHub`] shares one [`PairTransport`] among many
//! *sessions*: each command and reply travels as a [`Framed`] value
//! carrying its session id (and a command, its op's trace context), the
//! hub demultiplexes replies into per-session mailboxes, and back-to-back
//! contiguous writes from one session are *coalesced* into a single
//! staged batch that crosses the protection boundary once instead of once
//! per write. A coalesced batch carries the trace context of the first
//! write it merged.
//!
//! [`Sessions`] (who is attached, what a close does) and [`Stager`]
//! (where posted writes wait, how they merge) are the rules of every
//! sentinel with sessions: this hub, and the core crate's ring driver and
//! inline §4.4 sentinel, each a [`SessionHub`]. A session speaks in
//! whole operations: [`AppPort::post`] for the write nobody waits on,
//! [`AppPort::call`] for everything else, the bytes behind a reply
//! landing in the caller's buffer.
//!
//! Cost accounting stays honest: the hub charges the two crossing
//! switches per *transmitted frame* (so a coalesced write charges only
//! the user-level copy into its staging buffer), and every staging copy
//! is charged as a [`Cost::Memcpy`].
//!
//! The hub is protocol-agnostic: a [`MuxProtocol`] implementation tells
//! it how many payload bytes come with a command or a reply,
//! which command is the terminal close, and when two payload-carrying
//! commands form one contiguous transfer.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex, MutexGuard};

use afs_sim::{clock, Cost, CostModel, CrossingKind, SimTime};
use afs_telemetry::{SessionGauges, TraceContext};

use crate::{FreeList, IpcError, PairTransport, Result};

/// Bytes one staged entry may merge; bounds both memory and the latency
/// outlier of the operation that flushes it.
pub const STAGE_CAPACITY: usize = 64 * 1024;

/// A command or reply framed with the session it belongs to: the
/// envelope every command lane carries. A command's frame also carries
/// the trace context of the op it serves, so sentinel-side spans join that
/// op's trace whichever thread serves the frame, and whenever; a reply's
/// is the default. It rides a message the §4 model charges per message,
/// so it costs nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Framed<T> {
    /// The session the body belongs to (0 on a wire with one session).
    pub session: u32,
    /// The trace context of the op a command serves.
    pub trace: TraceContext,
    /// The framed command or reply.
    pub body: T,
}

/// What the hub must know about the protocol it frames. The protocol
/// types themselves live above this crate (the core crate's `Op`/
/// `OpReply`); this trait carries just the wire-shape facts the hub
/// needs to route payload bytes and synthesise local close acks.
pub trait MuxProtocol: Send + Sync + 'static {
    /// Command type carried app → sentinel.
    type Cmd: Send + 'static;
    /// Reply type carried sentinel → app.
    type Reply: Send + 'static;

    /// Payload bytes that come with `cmd` (a write's data).
    fn cmd_payload_len(cmd: &Self::Cmd) -> usize;

    /// Payload bytes that come with `reply` (a read's data).
    fn reply_payload_len(reply: &Self::Reply) -> usize;

    /// Whether `cmd` is the terminal close. Only the last live session's
    /// close reaches the wire; earlier ones are acknowledged locally.
    fn is_close(cmd: &Self::Cmd) -> bool;

    /// The locally synthesised acknowledgement for a non-final close.
    fn close_ack() -> Self::Reply;

    /// Merges `next` into `acc` when the two commands form one contiguous
    /// payload transfer (adjacent writes); `None` when they do not.
    fn coalesce(acc: &Self::Cmd, next: &Self::Cmd) -> Option<Self::Cmd>;
}

/// Posted writes waiting to go out, per session, each entry the frame of
/// the first write merged into it and the bytes of every one. One merge
/// rule: a write joins its own session's newest entry when
/// [`MuxProtocol::coalesce`] says they are adjacent and the entry stays
/// within [`STAGE_CAPACITY`], so a failure parks in its writer's slot.
/// Staging a write is its one user-level copy, charged to the writer as a
/// [`Cost::Memcpy`]. How many entries a session may hold, and when they
/// go, is the owner's policy.
pub struct Stager<P: MuxProtocol> {
    entries: Vec<(Framed<P::Cmd>, Vec<u8>)>,
    model: CostModel,
}

impl<P: MuxProtocol> Default for Stager<P> {
    fn default() -> Self {
        Stager::new(CostModel::free())
    }
}

impl<P: MuxProtocol> Stager<P> {
    /// Stages nothing yet; charges its copies to `model`.
    pub fn new(model: CostModel) -> Self {
        let entries = Vec::new();
        Stager { entries, model }
    }

    /// Merges `data`, the payload of `frame`, into its session's newest
    /// entry; `false` when the merge rule refuses (nothing changed).
    pub fn merge(&mut self, frame: &Framed<P::Cmd>, data: &[u8]) -> bool {
        let mut newest = self.entries.iter_mut().rev();
        let Some((staged, buf)) = newest.find(|(f, _)| f.session == frame.session) else {
            return false;
        };
        let merged = (buf.len() + data.len() <= STAGE_CAPACITY)
            .then(|| P::coalesce(&staged.body, &frame.body))
            .flatten();
        let Some(body) = merged else {
            return false;
        };
        staged.body = body;
        buf.extend_from_slice(data);
        self.model.charge(Cost::Memcpy { bytes: data.len() });
        true
    }

    /// Stages `frame` as a new entry, its payload copied into `buf`.
    pub fn push(&mut self, frame: Framed<P::Cmd>, mut buf: Vec<u8>, data: &[u8]) {
        buf.extend_from_slice(data);
        self.model.charge(Cost::Memcpy { bytes: data.len() });
        self.entries.push((frame, buf));
    }

    /// How many entries `session` holds.
    pub fn held(&self, session: u32) -> usize {
        self.entries
            .iter()
            .filter(|(f, _)| f.session == session)
            .count()
    }

    /// Takes `session`'s entries — every session's, lowest id first, when
    /// `None` — each session's oldest first.
    pub fn take(&mut self, only: Option<u32>) -> std::vec::Drain<'_, (Framed<P::Cmd>, Vec<u8>)> {
        if self.entries.len() > 1 {
            let other = |f: &Framed<P::Cmd>| only.is_some_and(|s| f.session != s);
            self.entries.sort_by_key(|(f, _)| (other(f), f.session));
        }
        let n = only.map_or(self.entries.len(), |s| self.held(s));
        self.entries.drain(..n)
    }
}

/// How a sentinel ends, whatever ran it and however it stopped: signalled
/// once, with its final virtual time, and reaped by the closing application.
#[derive(Default)]
pub struct SentinelExit {
    at: Mutex<Option<SimTime>>,
    cv: Condvar,
}

impl SentinelExit {
    /// The sentinel has ended at virtual time `at`.
    pub fn signal(&self, at: SimTime) {
        *self.at.lock() = Some(at);
        self.cv.notify_all();
    }

    /// Blocks until the sentinel has ended; returns its final virtual time.
    pub fn wait(&self) -> SimTime {
        let mut at = self.at.lock();
        while at.is_none() {
            self.cv.wait(&mut at);
        }
        at.unwrap_or_default()
    }

    /// Waits for the end and folds the final time into this thread's clock.
    pub fn reap(&self) {
        clock::sync_to(self.wait());
    }
}

/// Who is attached to one sentinel, and what a close does: the session
/// rule of every sentinel that sessions share. Ids start at 1; an attach
/// after the terminal close or the sentinel's exit is refused (the caller
/// launches a fresh sentinel instead); a close while others stay is
/// acknowledged by its owner locally, after flushing; the last close is
/// the terminal one, whose owner sends it and then [reaps](Sessions::reap)
/// the sentinel.
#[derive(Default)]
pub struct Sessions {
    live: Vec<u32>,
    /// The newest id handed out.
    newest: u32,
    closed: bool,
    gauges: Arc<SessionGauges>,
    exit: Option<Arc<SentinelExit>>,
}

impl Sessions {
    /// No session yet; the terminal close reaps `exit`.
    pub fn new(gauges: Arc<SessionGauges>, exit: Option<Arc<SentinelExit>>) -> Self {
        Sessions {
            gauges,
            exit,
            ..Sessions::default()
        }
    }

    /// Attaches a session: its id and the ids live now, or `None` once
    /// the terminal close has gone out or the sentinel has exited.
    pub fn attach(&mut self) -> Option<(u32, Vec<u32>)> {
        if self.closed || self.exit.as_ref().is_some_and(|e| e.at.lock().is_some()) {
            return None;
        }
        self.newest += 1;
        let id = self.newest;
        self.live.push(id);
        self.gauges.attached(self.live.len() as u64);
        Some((id, self.live.clone()))
    }

    /// Detaches `session` on its close; `true` when it was the last, the
    /// terminal close. From then on the sentinel takes no more commands.
    pub fn detach(&mut self, session: u32) -> bool {
        let before = self.live.len();
        self.live.retain(|&id| id != session);
        if self.live.len() < before {
            self.gauges.detached();
        }
        self.closed = self.live.is_empty();
        self.closed
    }

    /// Ends every session: the sentinel faulted and takes no more commands.
    pub fn end(&mut self) {
        self.live.drain(..).for_each(|_| self.gauges.detached());
        self.closed = true;
    }

    /// Once the terminal close is answered: reaps the sentinel's exit.
    pub fn reap(&self) {
        if let Some(exit) = &self.exit {
            exit.reap();
        }
    }

    /// How many sessions are attached.
    pub fn count(&self) -> usize {
        self.live.len()
    }

    /// Whether the terminal close has gone out.
    pub fn is_closed(&self) -> bool {
        self.closed
    }
}

/// The application end of one session's wire, as much of it as the
/// layer above needs: an operation goes in whole, framed in its session,
/// and comes back whole. The bare [`PairTransport`] carries one session,
/// a [`SessionHub`] many; each charges the crossings it makes.
pub trait AppPort<P: MuxProtocol>: Send + Sync {
    /// Which protection boundary an operation round-trip crosses.
    fn crossing(&self) -> CrossingKind;

    /// Sends `frame` — a write, under its op's trace — and its bytes;
    /// nobody waits for the outcome (a failure parks in the session's
    /// sticky slot).
    ///
    /// # Errors
    ///
    /// The sentinel end is gone (or has closed).
    fn post(&self, frame: Framed<P::Cmd>, payload: &[u8]) -> Result<()>;

    /// Sends `frame`, waits for its reply, and lands the bytes that
    /// follow the reply in the front of `into`; returns the reply and how
    /// many.
    ///
    /// # Errors
    ///
    /// [`IpcError::BrokenPipe`] when the command went nowhere because the
    /// sentinel end was already gone — or when the reply announced more
    /// bytes than `into` has room for, a protocol violation that fails the
    /// operation and leaves the wire usable. Anything else: the wire died
    /// under the operation.
    fn call(&self, frame: Framed<P::Cmd>, into: &mut [u8]) -> Result<(P::Reply, usize)>;
}

/// A sentinel whose opens are sessions: [`MuxHub`] over a pair lane, and
/// the core crate's ring driver and inline §4.4 sentinel. Each keeps
/// [`Sessions`] under the lock it takes per operation.
pub trait SessionHub<P: MuxProtocol>: AppPort<P> + 'static {
    /// [`Sessions::attach`].
    fn attach(&self) -> Option<(u32, Vec<u32>)>;

    /// How many sessions are attached.
    fn session_count(&self) -> usize;
}

/// The bare pair carries one session: exactly the paper's sequence — "a
/// 'read 50' command is sent to the sentinel, and then 50 bytes are read
/// from the read pipe".
impl<P: MuxProtocol> AppPort<P> for PairTransport<Framed<P::Cmd>, Framed<P::Reply>> {
    fn crossing(&self) -> CrossingKind {
        PairTransport::crossing(self)
    }

    fn post(&self, frame: Framed<P::Cmd>, payload: &[u8]) -> Result<()> {
        self.send(frame, payload)
    }

    fn call(&self, frame: Framed<P::Cmd>, into: &mut [u8]) -> Result<(P::Reply, usize)> {
        self.send_awaited(frame, into.len())?;
        self.recv_reply(
            |frame| P::reply_payload_len(&frame.body),
            |frame, payload| Ok((frame.body, payload.land(into)?)),
        )
    }
}

/// Send-side state, guarded by one lock so a command frame and its
/// payload bytes reach the underlying lanes back to back.
struct SendState<P: MuxProtocol> {
    /// At most one entry per session.
    stages: Stager<P>,
    /// Staging buffers a flush frees and a later stage reuses.
    spare: FreeList,
    sessions: Sessions,
}

/// A demultiplexed reply parked for its session: the reply frame plus
/// whatever payload bytes came with it.
type Mailbox<R> = VecDeque<(R, Vec<u8>)>;

/// Receive-side state: demultiplexed replies waiting for their session.
struct RecvState<P: MuxProtocol> {
    /// Each attached session's mailbox, found by a scan: a hub has a
    /// handful of sessions, and a close takes its session's away.
    mailboxes: Vec<(u32, Mailbox<P::Reply>)>,
    dead: bool,
}

impl<P: MuxProtocol> RecvState<P> {
    fn mailbox(&mut self, session: u32) -> Option<&mut Mailbox<P::Reply>> {
        let found = self.mailboxes.iter_mut().find(|(id, _)| *id == session);
        found.map(|(_, mailbox)| mailbox)
    }
}

/// The application-side multiplexer: owns the single underlying wire,
/// which its sessions' whole operations share.
pub struct MuxHub<P: MuxProtocol> {
    under: PairTransport<Framed<P::Cmd>, Framed<P::Reply>>,
    model: CostModel,
    send: Mutex<SendState<P>>,
    recv: Mutex<RecvState<P>>,
    recv_ready: Condvar,
    /// Some session thread is pulling from the underlying wire; everyone
    /// else waits on the condvar instead of contending. Set under the
    /// receive lock; cleared by the puller, which takes the lock again
    /// only when somebody waits.
    pulling: AtomicBool,
    /// Threads between deciding to wait for the puller and waking up.
    waiting: AtomicUsize,
    gauges: Arc<SessionGauges>,
}

impl<P: MuxProtocol> MuxHub<P> {
    /// Wraps `under`, charging staging copies to `model`; the terminal
    /// close reaps `exit`, the sentinel's.
    pub fn new(
        under: PairTransport<Framed<P::Cmd>, Framed<P::Reply>>,
        model: CostModel,
        gauges: Arc<SessionGauges>,
        exit: Option<Arc<SentinelExit>>,
    ) -> Self {
        MuxHub {
            under,
            send: Mutex::new(SendState {
                stages: Stager::new(model.clone()),
                spare: FreeList::default(),
                sessions: Sessions::new(Arc::clone(&gauges), exit),
            }),
            recv: Mutex::new(RecvState {
                mailboxes: Vec::new(),
                dead: false,
            }),
            recv_ready: Condvar::new(),
            pulling: AtomicBool::new(false),
            waiting: AtomicUsize::new(0),
            gauges,
            model,
        }
    }

    /// Transmits every staged entry and then a call's frame — the last
    /// this session sends before it waits for the reply, with room for
    /// `reply_room` bytes behind it — through
    /// [`PairTransport::send_call_behind`]: the call rings once for the
    /// writes it flushes, and the sentinel may then run on this thread,
    /// still under the send lock. That cannot cycle: the dispatch loop
    /// never takes the hub's lock, a flushed payload that would wait on
    /// the sentinel's drain is rung for first, and a lane too small for
    /// the reply is sent as any other frame is. Other sessions' sends wait
    /// for the lock as they would behind a busy worker, and a peer's reply
    /// already on the lane is pulled by its own waiter, which needs
    /// nothing this thread holds.
    fn call_locked(
        &self,
        s: &mut SendState<P>,
        frame: Framed<P::Cmd>,
        reply_room: usize,
    ) -> Result<()> {
        let flush = s.stages.take(None);
        self.under
            .send_call_behind(flush, frame, reply_room, |buf| {
                s.spare.put(buf);
                self.gauges.flushed_batch();
            })
    }

    /// Transmits the staged entries of `only` (every session's, lowest id
    /// first, when `None`), each as one frame. Any operation that the
    /// sentinel must observe *after* earlier writes — a read, a size
    /// query, a close — flushes them all, preserving cross-session
    /// read-your-writes; a call does so in [`MuxHub::call_locked`].
    fn flush_stages_locked(&self, s: &mut SendState<P>, only: Option<u32>) -> Result<()> {
        for (frame, buf) in s.stages.take(only) {
            let result = self.under.send(frame, &buf);
            s.spare.put(buf);
            result?;
            self.gauges.flushed_batch();
        }
        Ok(())
    }

    /// Sends a command that carries no payload and is not a close: a
    /// call's, with room for `reply_room` bytes behind its reply, or a
    /// posted one (`None`).
    fn send_plain(&self, frame: Framed<P::Cmd>, reply_room: Option<usize>) -> Result<()> {
        let mut s = self.send.lock();
        if s.sessions.is_closed() {
            return Err(IpcError::BrokenPipe);
        }
        match reply_room {
            Some(room) => self.call_locked(&mut s, frame, room),
            None => {
                self.flush_stages_locked(&mut s, None)?;
                self.under.send(frame, &[])
            }
        }
    }

    /// Sends (or stages) a payload-carrying command. With a single live
    /// session the frame goes straight to the wire — the paper-exact
    /// per-op profile; with contention it is staged, one entry per
    /// session, and adjacent contiguous writes coalesce into one crossing.
    fn send_payload(&self, frame: Framed<P::Cmd>, data: &[u8]) -> Result<()> {
        let mut s = self.send.lock();
        if s.sessions.is_closed() {
            return Err(IpcError::BrokenPipe);
        }
        if s.sessions.count() <= 1 {
            self.flush_stages_locked(&mut s, None)?;
            return self.under.send(frame, data);
        }
        if s.stages.merge(&frame, data) {
            self.gauges.coalesced_write();
            return Ok(());
        }
        // Full or non-contiguous: the session's old entry goes out first.
        self.flush_stages_locked(&mut s, Some(frame.session))?;
        let buf = s.spare.take_capacity(data.len().min(STAGE_CAPACITY));
        s.stages.push(frame, buf, data);
        Ok(())
    }

    /// Detaches the session `frame` comes from, with the close command it
    /// carries, and flushes every staged entry. A non-final close is
    /// acknowledged locally — the shared sentinel must keep running — and
    /// its mailbox goes; the final close is transmitted as a call behind
    /// the flush (`true`: the caller waits for its reply and reaps).
    fn send_close(&self, frame: Framed<P::Cmd>) -> Result<bool> {
        let session = frame.session;
        let mut s = self.send.lock();
        if s.sessions.is_closed() {
            return Err(IpcError::BrokenPipe);
        }
        if s.sessions.detach(session) {
            return self.call_locked(&mut s, frame, 0).map(|()| true);
        }
        self.flush_stages_locked(&mut s, None)?;
        drop(s);
        self.recv.lock().mailboxes.retain(|(id, _)| *id != session);
        Ok(false)
    }

    /// Returns the next reply for `session` with its payload in `into`,
    /// demultiplexing on behalf of every waiter: whoever finds the wire
    /// idle pulls the next reply and its payload (behind it on a §4.2
    /// pipe, which must stay aligned with the reply lane). A reply for
    /// *another* session is parked, its payload in a buffer of its own, in
    /// that session's mailbox; the puller's *own* payload goes straight
    /// into `into`, which keeps the uncontended profile identical to a
    /// private transport. A puller that finds its own reply and nobody
    /// waiting returns without taking the receive lock again.
    fn recv_for(&self, session: u32, into: &mut [u8]) -> Result<(P::Reply, usize)> {
        let mut rs = self.recv.lock();
        loop {
            match rs.mailbox(session) {
                Some(mailbox) => {
                    if let Some((reply, staged)) = mailbox.pop_front() {
                        drop(rs);
                        return self.unstage(reply, staged, into);
                    }
                }
                None => return Err(IpcError::BrokenPipe),
            }
            if rs.dead {
                return Err(IpcError::Closed);
            }
            if self.pulling.load(Ordering::SeqCst) {
                // Counted before the second look: a puller that clears the
                // flag after the count sees it and takes the lock to wake
                // this thread, which it gets only once the wait has let
                // go of it; one that cleared it before, the look sees.
                self.waiting.fetch_add(1, Ordering::SeqCst);
                if self.pulling.load(Ordering::SeqCst) {
                    self.recv_ready.wait(&mut rs);
                }
                self.waiting.fetch_sub(1, Ordering::SeqCst);
                continue;
            }
            self.pulling.store(true, Ordering::SeqCst);
            drop(rs);
            // The wire is released on every way out of the pull.
            match self.pull(session, into) {
                Ok(Pulled::Own(reply, n)) => {
                    self.pulling.store(false, Ordering::SeqCst);
                    if self.waiting.load(Ordering::SeqCst) > 0 {
                        // Only the wake needs the lock: another thread may
                        // be pulling already.
                        let _rs = self.recv.lock();
                        self.recv_ready.notify_all();
                    }
                    return Ok((reply, n));
                }
                Ok(Pulled::Peer(peer, reply, staged)) => {
                    rs = self.release_wire();
                    if let Some(mailbox) = rs.mailbox(peer) {
                        mailbox.push_back((reply, staged));
                    }
                }
                Err(e) => {
                    // An over-announced payload was drained: that fails
                    // this call, not the wire.
                    rs = self.release_wire();
                    rs.dead = e != IpcError::BrokenPipe;
                    return Err(e);
                }
            }
        }
    }

    /// Clears `pulling` under the receive lock and wakes every waiter;
    /// returns the lock.
    fn release_wire(&self) -> MutexGuard<'_, RecvState<P>> {
        let rs = self.recv.lock();
        self.pulling.store(false, Ordering::SeqCst);
        self.recv_ready.notify_all();
        rs
    }

    /// Pulls one framed reply and its payload off the wire. Only the
    /// thread that set `pulling` runs this. A peer's payload is parked in
    /// a buffer of its own: on the §4.3 lane the one it came in, on a
    /// §4.2 pipe a fresh one (only a contended hub pulls for a peer).
    ///
    /// # Errors
    ///
    /// [`IpcError::BrokenPipe`] when the caller's own reply announced
    /// more bytes than `into` holds (see [`Payload::land`]); anything else
    /// means the wire is dead.
    ///
    /// [`Payload::land`]: crate::Payload::land
    fn pull(&self, session: u32, into: &mut [u8]) -> Result<Pulled<P::Reply>> {
        self.under.recv_reply(
            |frame| P::reply_payload_len(&frame.body),
            |frame, payload| {
                if frame.session == session {
                    return Ok(Pulled::Own(frame.body, payload.land(into)?));
                }
                Ok(Pulled::Peer(frame.session, frame.body, payload.keep()?))
            },
        )
    }

    /// Hands over a reply a peer pulled on this session's behalf. The
    /// wire transfer was charged when the peer pulled it; the copy out of
    /// its parked buffer is charged as the demultiplexer's extra
    /// user-level copy, which it is on a §4.2 pipe (the pull copied the
    /// bytes out of the pipe first) and which a §4.3 reply is charged
    /// alike.
    fn unstage(
        &self,
        reply: P::Reply,
        staged: Vec<u8>,
        into: &mut [u8],
    ) -> Result<(P::Reply, usize)> {
        let n = staged.len();
        let dst = into.get_mut(..n).ok_or(IpcError::BrokenPipe)?;
        dst.copy_from_slice(&staged);
        if n > 0 {
            self.model.charge(Cost::Memcpy { bytes: n });
        }
        Ok((reply, n))
    }
}

impl<P: MuxProtocol> SessionHub<P> for MuxHub<P> {
    fn attach(&self) -> Option<(u32, Vec<u32>)> {
        let (id, live) = self.send.lock().sessions.attach()?;
        self.recv.lock().mailboxes.push((id, VecDeque::new()));
        Some((id, live))
    }

    fn session_count(&self) -> usize {
        self.send.lock().sessions.count()
    }
}

impl<P: MuxProtocol> AppPort<P> for MuxHub<P> {
    fn crossing(&self) -> CrossingKind {
        self.under.crossing()
    }

    fn post(&self, frame: Framed<P::Cmd>, payload: &[u8]) -> Result<()> {
        if P::cmd_payload_len(&frame.body) > 0 {
            self.send_payload(frame, payload)
        } else {
            self.send_plain(frame, None)
        }
    }

    fn call(&self, frame: Framed<P::Cmd>, into: &mut [u8]) -> Result<(P::Reply, usize)> {
        let session = frame.session;
        let terminal = if P::is_close(&frame.body) {
            if !self.send_close(frame)? {
                return Ok((P::close_ack(), 0));
            }
            true
        } else {
            self.send_plain(frame, Some(into.len()))?;
            false
        };
        let result = self.recv_for(session, into);
        if terminal {
            // Acknowledged, or the wire is gone.
            self.send.lock().sessions.reap();
        }
        result
    }
}

/// What one pull took off the wire: the puller's own reply, its payload
/// already delivered, or a peer's, with its payload parked.
enum Pulled<R> {
    Own(R, usize),
    Peer(u32, R, Vec<u8>),
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy protocol: `(tag, offset, len)` commands where tag 1 writes
    /// `len` payload bytes, tag 2 reads, tag 9 closes; replies `(n,)`
    /// carry `n` payload bytes.
    struct Toy;

    #[derive(Debug, Clone, PartialEq, Eq)]
    struct ToyCmd {
        tag: u8,
        offset: u64,
        len: u32,
    }

    #[derive(Debug, Clone, PartialEq, Eq)]
    struct ToyReply {
        n: u32,
    }

    impl MuxProtocol for Toy {
        type Cmd = ToyCmd;
        type Reply = ToyReply;

        fn cmd_payload_len(cmd: &ToyCmd) -> usize {
            if cmd.tag == 1 {
                cmd.len as usize
            } else {
                0
            }
        }

        fn reply_payload_len(reply: &ToyReply) -> usize {
            reply.n as usize
        }

        fn is_close(cmd: &ToyCmd) -> bool {
            cmd.tag == 9
        }

        fn close_ack() -> ToyReply {
            ToyReply { n: 0 }
        }

        fn coalesce(acc: &ToyCmd, next: &ToyCmd) -> Option<ToyCmd> {
            if acc.tag == 1 && next.tag == 1 && acc.offset + acc.len as u64 == next.offset {
                return Some(ToyCmd {
                    tag: 1,
                    offset: acc.offset,
                    len: acc.len + next.len,
                });
            }
            None
        }
    }

    type ToyHub = Arc<MuxHub<Toy>>;

    /// One session of a toy hub, speaking in commands.
    struct Sess {
        hub: ToyHub,
        id: u32,
    }

    impl Sess {
        fn session_id(&self) -> u32 {
            self.id
        }

        fn frame(&self, body: ToyCmd, trace: TraceContext) -> Framed<ToyCmd> {
            Framed {
                session: self.id,
                trace,
                body,
            }
        }

        fn post(&self, cmd: ToyCmd, trace: TraceContext, payload: &[u8]) -> Result<()> {
            self.hub.post(self.frame(cmd, trace), payload)
        }

        fn call(
            &self,
            cmd: ToyCmd,
            trace: TraceContext,
            into: &mut [u8],
        ) -> Result<(ToyReply, usize)> {
            self.hub.call(self.frame(cmd, trace), into)
        }
    }

    fn attach(hub: &ToyHub) -> Option<Sess> {
        let (id, _) = hub.attach()?;
        Some(Sess {
            hub: Arc::clone(hub),
            id,
        })
    }

    const NO_TRACE: TraceContext = TraceContext {
        trace: 0,
        parent: 0,
        sampled: false,
    };
    type ToyPort = crate::PairPort<Framed<ToyCmd>, Framed<ToyReply>>;

    fn hub() -> (ToyHub, ToyPort) {
        let (transport, port) = PairTransport::shared(CostModel::free());
        (
            Arc::new(MuxHub::new(
                transport,
                CostModel::free(),
                Arc::default(),
                None,
            )),
            port,
        )
    }

    fn cmd(tag: u8, offset: u64, len: u32) -> ToyCmd {
        ToyCmd { tag, offset, len }
    }

    /// Takes the next frame off the sentinel end, with the payload it
    /// carries, waiting for the application threads to send it.
    fn next(port: &ToyPort) -> (Framed<ToyCmd>, Vec<u8>) {
        let announced = |frame: &Framed<ToyCmd>| Toy::cmd_payload_len(&frame.body);
        loop {
            let polled = port.poll_cmd(announced, &mut FreeList::default());
            if let Some((frame, payload, _)) = polled.expect("a frame") {
                return (frame, payload);
            }
            std::thread::yield_now();
        }
    }

    /// Answers `frame` with `data` from the sentinel side.
    fn answer(port: &ToyPort, frame: &Framed<ToyCmd>, data: &[u8]) {
        let reply = Framed {
            session: frame.session,
            trace: NO_TRACE,
            body: ToyReply {
                n: data.len() as u32,
            },
        };
        port.send_reply_with(reply, data.to_vec()).expect("reply");
    }

    #[test]
    fn frames_carry_session_ids_and_replies_demultiplex() {
        let (hub, port) = hub();
        let a = attach(&hub).expect("a");
        let b = attach(&hub).expect("b");
        let (id_a, id_b) = (a.session_id(), b.session_id());
        std::thread::scope(|s| {
            // The reply lane is bounded (one unit / a pipe), so each
            // session calls from its own thread, like real handles do.
            let read = |session: Sess, offset| {
                move || {
                    let mut buf = [0u8; 4];
                    let (reply, n) = session
                        .call(cmd(2, offset, 4), NO_TRACE, &mut buf)
                        .expect("call");
                    assert_eq!((reply, n), (ToyReply { n: 4 }, 4));
                    buf
                }
            };
            let call_a = s.spawn(read(a, 0));
            let (fa, _) = next(&port);
            let call_b = s.spawn(read(b, 8));
            let (fb, _) = next(&port);
            assert_eq!((fa.session, fb.session), (id_a, id_b));
            // Reply out of request order: whoever holds the wire pulls
            // b's frame first and leaves it in b's box.
            answer(&port, &fb, b"BBBB");
            answer(&port, &fa, b"AAAA");
            assert_eq!(&call_a.join().expect("a"), b"AAAA");
            assert_eq!(&call_b.join().expect("b"), b"BBBB");
        });
    }

    /// The sentinel's clock after it answers a second session's read,
    /// once the first session's reply was taken at 50 ms virtual (both
    /// sessions wait from there, so whichever pulls it takes it then):
    /// the second reply's bytes reuse the §4.3 lane's one unit, so its
    /// send lands on that take's drain stamp.
    fn second_reply_clock(found_space: bool) -> u64 {
        let (hub, port) = hub();
        let (a, b) = (attach(&hub).expect("a"), attach(&hub).expect("b"));
        let read = |session: Sess, offset| {
            move || {
                let _g = clock::install(50_000_000);
                session
                    .call(cmd(2, offset, 4), NO_TRACE, &mut [0u8; 4])
                    .expect("read")
            }
        };
        std::thread::scope(|s| {
            let first = s.spawn(read(a, 0));
            let (fa, _) = next(&port);
            let second = s.spawn(read(b, 8));
            let (fb, _) = next(&port);
            let _g = clock::install(0);
            answer(&port, &fa, b"AAAA");
            if found_space {
                first.join().expect("a's reply was taken");
            }
            assert_eq!(clock::now(), 0);
            answer(&port, &fb, b"BBBB");
            second.join().expect("b");
            clock::now()
        })
    }

    #[test]
    fn a_second_sessions_reply_lands_on_the_first_ones_drain_stamp() {
        let waited = second_reply_clock(false);
        assert_eq!(waited, 50_000_000, "the sender inherits the take");
        assert_eq!(second_reply_clock(true), waited, "whether or not it waited");
    }

    #[test]
    fn contiguous_writes_coalesce_into_one_frame_under_contention() {
        let (hub, port) = hub();
        let a = attach(&hub).expect("a");
        let _b = attach(&hub).expect("b"); // second session switches staging on
                                           // Each write is its own op; the batch goes out in the first's.
        let op = |i: u64| TraceContext {
            trace: 100 + i,
            parent: 200 + i,
            sampled: true,
        };
        for i in 0..4u64 {
            a.post(cmd(1, i * 4, 4), op(i), b"wxyz").expect("write");
        }
        // Nothing on the wire yet: all four writes sit in one stage.
        assert!(port
            .poll_cmd(|_| 0, &mut FreeList::default())
            .expect("empty")
            .is_none());
        std::thread::scope(|s| {
            // A read forces the flush: the batch frame precedes the read.
            let read = s.spawn(|| a.call(cmd(2, 0, 1), NO_TRACE, &mut [0u8; 1]).expect("read"));
            let (flush, payload) = next(&port);
            assert_eq!((flush.body, flush.trace), (cmd(1, 0, 16), op(0)));
            assert_eq!(&payload, b"wxyzwxyzwxyzwxyz");
            let (frame, _) = next(&port);
            assert_eq!(frame.body.tag, 2);
            answer(&port, &frame, b"w");
            assert_eq!(read.join().expect("join"), (ToyReply { n: 1 }, 1));
        });
    }

    #[test]
    fn a_flush_sends_staged_batches_lowest_session_first() {
        let (hub, port) = hub();
        let sessions: Vec<_> = (0..3).map(|_| attach(&hub).expect("attach")).collect();
        // Staged out of id order: third, first, second.
        for i in [2usize, 0, 1] {
            sessions[i]
                .post(cmd(1, i as u64 * 8, 2), NO_TRACE, &[b'a' + i as u8; 2])
                .expect("staged");
        }
        assert!(port
            .poll_cmd(|_| 0, &mut FreeList::default())
            .expect("empty")
            .is_none());
        std::thread::scope(|s| {
            let reader = &sessions[2];
            let read = s.spawn(|| {
                reader
                    .call(cmd(2, 0, 1), NO_TRACE, &mut [0u8; 1])
                    .expect("read")
            });
            for (i, session) in sessions.iter().enumerate() {
                let (frame, payload) = next(&port);
                assert_eq!(frame.session, session.session_id());
                assert_eq!(frame.body, cmd(1, i as u64 * 8, 2));
                assert_eq!(payload, [b'a' + i as u8; 2]);
            }
            let (frame, _) = next(&port);
            assert_eq!((frame.session, frame.body.tag), (reader.session_id(), 2));
            answer(&port, &frame, b"a");
            read.join().expect("join");
        });
    }

    #[test]
    fn single_session_writes_go_straight_to_the_wire() {
        let (hub, port) = hub();
        let a = attach(&hub).expect("a");
        a.post(cmd(1, 0, 3), NO_TRACE, b"abc").expect("write");
        let (frame, payload) = next(&port);
        assert_eq!(frame.body.len, 3);
        assert_eq!(&payload, b"abc");
    }

    #[test]
    fn only_the_last_close_reaches_the_wire() {
        let (hub, port) = hub();
        let a = attach(&hub).expect("a");
        let b = attach(&hub).expect("b");
        // a's close is acknowledged locally, nothing on the wire.
        let ack = a.call(cmd(9, 0, 0), NO_TRACE, &mut []).expect("local ack");
        assert_eq!(ack, (ToyReply { n: 0 }, 0));
        assert!(port
            .poll_cmd(|_| 0, &mut FreeList::default())
            .expect("empty")
            .is_none());
        assert_eq!(hub.session_count(), 1);
        std::thread::scope(|s| {
            let close = s.spawn(|| b.call(cmd(9, 0, 0), NO_TRACE, &mut []).expect("b close"));
            let (frame, _) = next(&port);
            assert_eq!(frame.body.tag, 9);
            answer(&port, &frame, b"");
            close.join().expect("join");
        });
        assert!(hub.attach().is_none(), "closed hub refuses new sessions");
    }

    #[test]
    fn a_closed_session_leaves_no_mailbox_behind() {
        let (hub, _port) = hub();
        let _stays = attach(&hub).expect("first");
        for _ in 0..100 {
            let brief = attach(&hub).expect("brief");
            brief
                .call(cmd(9, 0, 0), NO_TRACE, &mut [])
                .expect("local ack");
        }
        let held: Vec<u32> = hub
            .recv
            .lock()
            .mailboxes
            .iter()
            .map(|(id, _)| *id)
            .collect();
        assert_eq!(held, [1], "only the session still attached has one");
    }

    #[test]
    fn crossings_are_charged_per_frame_not_per_write() {
        let model = CostModel::new(afs_sim::HardwareProfile::pentium_ii_300());
        let (transport, port) =
            PairTransport::<Framed<ToyCmd>, Framed<ToyReply>>::shared(model.clone());
        let hub: ToyHub = Arc::new(MuxHub::new(transport, model.clone(), Arc::default(), None));
        let a = attach(&hub).expect("a");
        let _b = attach(&hub).expect("b");
        let before = model.snapshot();
        for i in 0..8u64 {
            a.post(cmd(1, i * 2, 2), NO_TRACE, b"hi").expect("write");
        }
        let staged = model.snapshot().since(&before);
        assert_eq!(staged.thread_switches, 0, "coalesced writes cross nothing");
        std::thread::scope(|s| {
            let sync = s.spawn(|| a.call(cmd(3, 0, 0), NO_TRACE, &mut []).expect("sync op"));
            let (_, payload) = next(&port);
            assert_eq!(payload.len(), 16, "the batch");
            let (frame, _) = next(&port);
            answer(&port, &frame, b"");
            sync.join().expect("join");
        });
        let flushed = model.snapshot().since(&before);
        // One batch frame + one sync frame: two round trips total.
        assert_eq!(flushed.thread_switches, 4);
    }

    #[test]
    fn a_call_rings_once_for_the_writes_it_flushes() {
        struct Log(Mutex<Vec<bool>>);
        impl crate::Wake for Log {
            fn wake(&self, awaited: bool) {
                self.0.lock().push(awaited);
            }
        }
        // The doorbells one read behind `staged` sessions' staged writes
        // of `len` bytes rings, the sentinel side served by hand.
        let rings = |(transport, port): (_, ToyPort), len: usize, staged: usize| {
            let hub: ToyHub = Arc::new(MuxHub::new(
                transport,
                CostModel::free(),
                Arc::default(),
                None,
            ));
            let sessions = [attach(&hub).expect("a"), attach(&hub).expect("b")];
            for writer in &sessions[..staged] {
                writer
                    .post(cmd(1, 0, len as u32), NO_TRACE, &vec![b'w'; len])
                    .expect("staged");
            }
            let log = Arc::new(Log(Mutex::new(Vec::new())));
            port.set_wakeup(Arc::clone(&log) as crate::ChannelWaker);
            std::thread::scope(|s| {
                let b = &sessions[1];
                let read = s.spawn(|| b.call(cmd(2, 0, 1), NO_TRACE, &mut [0u8; 1]));
                // Served once rung, as a parked sentinel would be.
                while log.0.lock().is_empty() {
                    std::thread::yield_now();
                }
                for _ in 0..staged {
                    let (flush, payload) = next(&port);
                    assert_eq!((flush.body, payload.len()), (cmd(1, 0, len as u32), len));
                }
                let (frame, _) = next(&port);
                answer(&port, &frame, b"w");
                assert_eq!(read.join().expect("join"), Ok((ToyReply { n: 1 }, 1)));
            });
            let rung = log.0.lock().clone();
            rung
        };
        // The staged payload fits the lane: the read's ring serves both.
        let shared = PairTransport::shared(CostModel::free());
        assert_eq!(rings(shared, 16, 1), [true]);
        let kernel = PairTransport::kernel(CostModel::free());
        assert_eq!(rings(kernel, 16, 1), [true]);
        // It outgrows the 16 KiB pipe: only the sentinel can drain it, so
        // it is rung for before its payload waits.
        let kernel = PairTransport::kernel(CostModel::free());
        assert_eq!(rings(kernel, 20 * 1024, 1), [false, true]);
        // A §4.3 lane holds one frame's bytes: the second flushed frame
        // rings for the first before it waits for the lane, then goes in
        // held, and the read's ring serves it.
        let shared = PairTransport::shared(CostModel::free());
        assert_eq!(rings(shared, 16, 2), [false, true]);
        let kernel = PairTransport::kernel(CostModel::free());
        assert_eq!(rings(kernel, 16, 2), [true]);
    }

    #[test]
    fn non_contiguous_writes_flush_the_stage() {
        let (hub, port) = hub();
        let a = attach(&hub).expect("a");
        let _b = attach(&hub).expect("b");
        a.post(cmd(1, 0, 2), NO_TRACE, b"aa").expect("staged");
        a.post(cmd(1, 100, 2), NO_TRACE, b"bb").expect("second");
        // The non-contiguous second write pushed the first out.
        let (frame, payload) = next(&port);
        assert_eq!((frame.body.offset, payload.as_slice()), (0, &b"aa"[..]));
        assert!(port
            .poll_cmd(|_| 0, &mut FreeList::default())
            .expect("second still staged")
            .is_none());
    }
}
