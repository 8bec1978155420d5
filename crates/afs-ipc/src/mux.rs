//! Session multiplexing: many opens, one transport, one sentinel.
//!
//! The paper's §2.2 rule — one sentinel per open — costs N threads, N
//! transports, and N incoherent caches for N concurrent opens of the same
//! active file. A [`MuxHub`] shares one [`PairTransport`] among many
//! *sessions*: each command and reply travels as a [`Framed`] value
//! carrying its session id, the hub demultiplexes replies into
//! per-session mailboxes, and back-to-back contiguous writes from one
//! session are *coalesced* into a single staged batch that crosses the
//! protection boundary once instead of once per write.
//!
//! A [`MuxSession`] speaks in whole operations: [`MuxSession::post`] for
//! the write nobody waits on, [`MuxSession::call`] for everything else,
//! the bytes behind a reply landing in the caller's buffer.
//!
//! Cost accounting stays honest: the hub charges the two crossing
//! switches per *transmitted frame* (so a coalesced write charges only
//! the user-level copy into its staging buffer), and every staging copy
//! is charged as a [`Cost::Memcpy`]. Because of that, the layer driving a
//! session must not add its own per-op round-trip charge.
//!
//! The hub is protocol-agnostic: a [`MuxProtocol`] implementation tells
//! it how many payload bytes follow a command or reply on the data lane,
//! which command is the terminal close, and when two payload-carrying
//! commands form one contiguous transfer.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

use afs_sim::{clock, Cost, CostModel, CrossingKind, SimTime};
use afs_telemetry::SessionGauges;

use crate::pool::BufferPool;
use crate::{IpcError, PairTransport, Result};

/// Writes staged per session before a forced flush; bounds both memory
/// and the latency outlier of the flush-carrying operation.
pub const STAGE_CAPACITY: usize = 64 * 1024;

/// A command or reply framed with the session it belongs to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Framed<T> {
    /// The session the body belongs to.
    pub session: u32,
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

    /// Payload bytes that follow `cmd` on the data lane (a write's data).
    fn cmd_payload_len(cmd: &Self::Cmd) -> usize;

    /// Payload bytes that follow `reply` on the data lane (a read's data).
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

/// One session's staged, not-yet-transmitted contiguous write batch.
struct WriteStage<C> {
    cmd: C,
    buf: Vec<u8>,
}

/// Send-side state, guarded by one lock so a command frame and its
/// payload bytes reach the underlying lanes back to back.
struct SendState<P: MuxProtocol> {
    /// Ordered by session id: a flush drains lowest id first.
    stages: BTreeMap<u32, WriteStage<P::Cmd>>,
    live: Vec<u32>,
    /// The terminal close went out (or the wire died): no more sends.
    closed: bool,
}

/// A demultiplexed reply parked for its session: the reply frame plus
/// whatever payload bytes rode the data lane with it.
type Mailbox<R> = VecDeque<(R, Vec<u8>)>;

/// Receive-side state: demultiplexed replies waiting for their session.
struct RecvState<P: MuxProtocol> {
    mailboxes: HashMap<u32, Mailbox<P::Reply>>,
    /// Some session thread is blocked pulling from the underlying wire;
    /// everyone else waits on the condvar instead of contending.
    pulling: bool,
    dead: bool,
}

/// The application-side multiplexer: owns the single underlying wire and
/// hands out per-session [`MuxSession`] endpoints.
pub struct MuxHub<P: MuxProtocol> {
    under: PairTransport<Framed<P::Cmd>, Framed<P::Reply>>,
    model: CostModel,
    pool: BufferPool,
    send: Mutex<SendState<P>>,
    recv: Mutex<RecvState<P>>,
    recv_ready: Condvar,
    next_session: AtomicU32,
    gauges: Option<Arc<SessionGauges>>,
    /// Reaps the shared sentinel — joining a dedicated thread or waiting
    /// on an executor task's completion — and returns its final virtual
    /// time; the session that transmits the terminal close runs it and
    /// folds that time in.
    reaper: Mutex<Option<SentinelReaper>>,
}

/// Deferred reap of whatever executes the shared sentinel: blocks until
/// the sentinel has fully terminated and yields its final virtual time.
pub type SentinelReaper = Box<dyn FnOnce() -> SimTime + Send>;

impl<P: MuxProtocol> MuxHub<P> {
    /// Wraps `under`, charging crossings and staging copies to `model`.
    pub fn new(
        under: PairTransport<Framed<P::Cmd>, Framed<P::Reply>>,
        model: CostModel,
        gauges: Option<Arc<SessionGauges>>,
    ) -> Arc<Self> {
        Arc::new(MuxHub {
            under,
            model,
            pool: BufferPool::new(),
            send: Mutex::new(SendState {
                stages: BTreeMap::new(),
                live: Vec::new(),
                closed: false,
            }),
            recv: Mutex::new(RecvState {
                mailboxes: HashMap::new(),
                pulling: false,
                dead: false,
            }),
            recv_ready: Condvar::new(),
            next_session: AtomicU32::new(1),
            gauges,
            reaper: Mutex::new(None),
        })
    }

    /// Registers the reaper the terminal close will run.
    pub fn set_reaper(&self, reaper: SentinelReaper) {
        *self.reaper.lock() = Some(reaper);
    }

    /// Attaches a new session, or `None` once the hub has closed (the
    /// caller then spawns a fresh sentinel instead).
    pub fn attach(self: &Arc<Self>) -> Option<MuxSession<P>> {
        let id = {
            let mut s = self.send.lock();
            if s.closed {
                return None;
            }
            let id = self.next_session.fetch_add(1, Ordering::Relaxed);
            s.live.push(id);
            if let Some(g) = &self.gauges {
                g.attached(s.live.len() as u64);
            }
            id
        };
        self.recv.lock().mailboxes.insert(id, VecDeque::new());
        Some(MuxSession {
            hub: Arc::clone(self),
            id,
            closing: AtomicBool::new(false),
        })
    }

    /// Session ids currently attached.
    pub fn live_sessions(&self) -> Vec<u32> {
        self.send.lock().live.clone()
    }

    /// Whether the terminal close has gone out.
    pub fn is_closed(&self) -> bool {
        self.send.lock().closed
    }

    /// Runs the reaper and synchronises to the sentinel's final virtual
    /// time, exactly like a private handle's reap on close.
    fn reap(&self) {
        if let Some(reaper) = self.reaper.lock().take() {
            clock::sync_to(reaper());
        }
    }

    /// Charges the round trip and puts one frame (plus payload) on the
    /// wire. Must run under the send lock so the command and its payload
    /// stay adjacent on the data lane.
    fn transmit_locked(&self, session: u32, cmd: P::Cmd, payload: &[u8]) -> Result<()> {
        let crossing = self.under.crossing();
        for _ in 0..crossing.round_trip_switches() {
            self.model.charge(Cost::Crossing(crossing));
        }
        self.under.send_cmd(Framed { session, body: cmd })?;
        if !payload.is_empty() {
            self.under.send_data(payload)?;
        }
        Ok(())
    }

    /// Flushes every session's staged batch, lowest session id first (a
    /// deterministic order; concurrent sessions have no defined mutual
    /// order anyway). Any operation that the sentinel must observe
    /// *after* earlier writes — a read, a size query, a close — forces
    /// this, preserving cross-session read-your-writes.
    fn flush_stages_locked(&self, s: &mut SendState<P>) -> Result<()> {
        while let Some((id, stage)) = s.stages.pop_first() {
            let result = self.transmit_locked(id, stage.cmd, &stage.buf);
            self.pool.put(stage.buf);
            result?;
            if let Some(g) = &self.gauges {
                g.flushed_batch();
            }
        }
        Ok(())
    }

    /// Sends a command that carries no payload and is not a close.
    fn send_plain(&self, session: u32, cmd: P::Cmd) -> Result<()> {
        let mut s = self.send.lock();
        if s.closed {
            return Err(IpcError::BrokenPipe);
        }
        self.flush_stages_locked(&mut s)?;
        self.transmit_locked(session, cmd, &[])
    }

    /// Sends (or stages) a payload-carrying command. With a single live
    /// session the frame goes straight to the wire — the paper-exact
    /// per-op profile; with contention it is staged and adjacent
    /// contiguous writes coalesce into one crossing.
    fn send_payload(&self, session: u32, cmd: P::Cmd, data: &[u8]) -> Result<()> {
        let mut s = self.send.lock();
        if s.closed {
            return Err(IpcError::BrokenPipe);
        }
        if s.live.len() <= 1 {
            self.flush_stages_locked(&mut s)?;
            return self.transmit_locked(session, cmd, data);
        }
        if let Some(stage) = s.stages.get_mut(&session) {
            if stage.buf.len() + data.len() <= STAGE_CAPACITY {
                if let Some(merged) = P::coalesce(&stage.cmd, &cmd) {
                    stage.cmd = merged;
                    stage.buf.extend_from_slice(data);
                    self.model.charge(Cost::Memcpy { bytes: data.len() });
                    if let Some(g) = &self.gauges {
                        g.coalesced_write();
                    }
                    return Ok(());
                }
            }
            // Full or non-contiguous: the old batch goes out first.
            let stage = s.stages.remove(&session).expect("stage");
            let result = self.transmit_locked(session, stage.cmd, &stage.buf);
            self.pool.put(stage.buf);
            result?;
            if let Some(g) = &self.gauges {
                g.flushed_batch();
            }
        }
        let mut buf = self.pool.take_capacity(data.len().min(STAGE_CAPACITY));
        buf.extend_from_slice(data);
        self.model.charge(Cost::Memcpy { bytes: data.len() });
        s.stages.insert(session, WriteStage { cmd, buf });
        Ok(())
    }

    /// Detaches `session` with close command `cmd`. A non-final close is
    /// acknowledged locally — the shared sentinel must keep running; the
    /// final close flushes, transmits, and marks the hub closed.
    fn send_close(&self, session: u32, cmd: P::Cmd, closing: &AtomicBool) -> Result<()> {
        let mut s = self.send.lock();
        if s.closed {
            return Err(IpcError::BrokenPipe);
        }
        self.flush_stages_locked(&mut s)?;
        s.live.retain(|&id| id != session);
        if let Some(g) = &self.gauges {
            g.detached();
        }
        if s.live.is_empty() {
            s.closed = true;
            closing.store(true, Ordering::SeqCst);
            if let Some(g) = &self.gauges {
                g.terminal_close();
            }
            self.transmit_locked(session, cmd, &[])
        } else {
            drop(s);
            let mut rs = self.recv.lock();
            if let Some(mailbox) = rs.mailboxes.get_mut(&session) {
                mailbox.push_back((P::close_ack(), Vec::new()));
            }
            self.recv_ready.notify_all();
            Ok(())
        }
    }

    /// Returns the next reply for `session` with its payload in `into`,
    /// demultiplexing on behalf of every waiter: whoever finds the wire
    /// idle pulls the next framed reply and the payload behind it (the
    /// data lane must stay aligned with the reply lane). A reply for
    /// *another* session is deposited, payload staged, in that session's
    /// mailbox; the puller's *own* payload goes straight into `into` with
    /// no staging copy, which keeps the uncontended profile identical to
    /// a private transport.
    fn recv_for(&self, session: u32, into: &mut [u8]) -> Result<(P::Reply, usize)> {
        let mut rs = self.recv.lock();
        loop {
            match rs.mailboxes.get_mut(&session) {
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
            if rs.pulling {
                self.recv_ready.wait(&mut rs);
                continue;
            }
            rs.pulling = true;
            drop(rs);
            let pulled = self.pull(session, into);
            // The wire is released on every way out of the pull.
            rs = self.recv.lock();
            rs.pulling = false;
            self.recv_ready.notify_all();
            match pulled {
                Ok(Pulled::Own(reply, n)) => return Ok((reply, n)),
                Ok(Pulled::Peer(peer, reply, staged)) => {
                    if let Some(mailbox) = rs.mailboxes.get_mut(&peer) {
                        mailbox.push_back((reply, staged));
                    }
                }
                Err(e) => {
                    // An over-announced payload was drained: that fails
                    // this call, not the wire.
                    rs.dead = e != IpcError::BrokenPipe;
                    return Err(e);
                }
            }
        }
    }

    /// Pulls one framed reply and its payload off the wire. Only the
    /// thread that set `pulling` runs this.
    ///
    /// # Errors
    ///
    /// [`IpcError::BrokenPipe`] when the caller's own reply announced
    /// more bytes than `into` holds (see [`PairTransport::recv_payload`]);
    /// anything else means the wire is dead.
    fn pull(&self, session: u32, into: &mut [u8]) -> Result<Pulled<P::Reply>> {
        let frame = self.under.recv_reply()?;
        let n = P::reply_payload_len(&frame.body);
        if frame.session == session {
            let n = self.under.recv_payload(n, into)?;
            return Ok(Pulled::Own(frame.body, n));
        }
        let mut staged = self.pool.take(n);
        self.under.recv_payload(n, &mut staged)?;
        Ok(Pulled::Peer(frame.session, frame.body, staged))
    }

    /// Hands over a reply a peer pulled on this session's behalf. The
    /// wire transfer was charged when the peer pulled it; the copy out of
    /// its staging buffer is an extra user-level copy the demultiplexer
    /// really performs, so it is charged too.
    fn unstage(
        &self,
        reply: P::Reply,
        staged: Vec<u8>,
        into: &mut [u8],
    ) -> Result<(P::Reply, usize)> {
        let n = staged.len();
        let fits = into.get_mut(..n).map(|dst| dst.copy_from_slice(&staged));
        self.pool.put(staged);
        fits.ok_or(IpcError::BrokenPipe)?;
        if n > 0 {
            self.model.charge(Cost::Memcpy { bytes: n });
        }
        Ok((reply, n))
    }
}

/// What one pull took off the wire: the puller's own reply, its payload
/// already delivered, or a peer's, staged.
enum Pulled<R> {
    Own(R, usize),
    Peer(u32, R, Vec<u8>),
}

/// One session's view of a [`MuxHub`], indistinguishable in use from a
/// private wiring. Nothing but its identity outlives an operation.
pub struct MuxSession<P: MuxProtocol> {
    hub: Arc<MuxHub<P>>,
    id: u32,
    /// This session transmitted the terminal close; its acknowledgement
    /// reaps the sentinel thread.
    closing: AtomicBool,
}

impl<P: MuxProtocol> MuxSession<P> {
    /// This session's id on the hub.
    pub fn session_id(&self) -> u32 {
        self.id
    }

    /// The hub this session rides on.
    pub fn hub(&self) -> &Arc<MuxHub<P>> {
        &self.hub
    }

    /// Which protection boundary a transmitted frame crosses.
    pub fn crossing(&self) -> CrossingKind {
        self.hub.under.crossing()
    }

    /// Sends `cmd` and the `payload` that follows it, waiting for nothing.
    /// Under contention the frame is staged instead, and adjacent ones
    /// coalesce.
    ///
    /// # Errors
    ///
    /// [`IpcError::BrokenPipe`] once the hub has closed or the wire is
    /// gone.
    pub fn post(&self, cmd: P::Cmd, payload: &[u8]) -> Result<()> {
        if P::cmd_payload_len(&cmd) > 0 {
            self.hub.send_payload(self.id, cmd, payload)
        } else {
            self.hub.send_plain(self.id, cmd)
        }
    }

    /// Sends `cmd`, waits for its reply, and lands the bytes that follow
    /// the reply in `into`; returns the reply and the byte count.
    ///
    /// # Errors
    ///
    /// [`IpcError::BrokenPipe`] when nothing was transmitted (the hub has
    /// closed, the wire is gone) or the reply announced more bytes than
    /// `into` holds; [`IpcError::Closed`] when the wire died before the
    /// reply arrived.
    pub fn call(&self, cmd: P::Cmd, into: &mut [u8]) -> Result<(P::Reply, usize)> {
        if P::is_close(&cmd) {
            self.hub.send_close(self.id, cmd, &self.closing)?;
        } else {
            self.hub.send_plain(self.id, cmd)?;
        }
        let result = self.hub.recv_for(self.id, into);
        if self.closing.load(Ordering::SeqCst) {
            // Terminal close acknowledged (or wire gone): fold the
            // sentinel's final virtual time into this thread.
            self.hub.reap();
        }
        result
    }
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
    type ToyPort = crate::PairPort<Framed<ToyCmd>, Framed<ToyReply>>;

    fn hub() -> (ToyHub, ToyPort) {
        let (transport, port) = PairTransport::shared(CostModel::free());
        (MuxHub::new(transport, CostModel::free(), None), port)
    }

    fn cmd(tag: u8, offset: u64, len: u32) -> ToyCmd {
        ToyCmd { tag, offset, len }
    }

    /// Answers `frame` with `data` from the sentinel side.
    fn answer(port: &ToyPort, frame: &Framed<ToyCmd>, data: &[u8]) {
        port.send_reply(Framed {
            session: frame.session,
            body: ToyReply {
                n: data.len() as u32,
            },
        })
        .expect("reply");
        if !data.is_empty() {
            port.send_data(data).expect("data");
        }
    }

    #[test]
    fn frames_carry_session_ids_and_replies_demultiplex() {
        let (hub, port) = hub();
        let a = hub.attach().expect("a");
        let b = hub.attach().expect("b");
        let (id_a, id_b) = (a.session_id(), b.session_id());
        std::thread::scope(|s| {
            // The data lane is a rendezvous (one-slot / bounded), so each
            // session calls from its own thread, like real handles do.
            let read = |session: MuxSession<Toy>, offset| {
                move || {
                    let mut buf = [0u8; 4];
                    let (reply, n) = session.call(cmd(2, offset, 4), &mut buf).expect("call");
                    assert_eq!((reply, n), (ToyReply { n: 4 }, 4));
                    buf
                }
            };
            let call_a = s.spawn(read(a, 0));
            let fa = port.recv_cmd().expect("frame a");
            let call_b = s.spawn(read(b, 8));
            let fb = port.recv_cmd().expect("frame b");
            assert_eq!((fa.session, fb.session), (id_a, id_b));
            // Reply out of request order: whoever holds the wire pulls
            // b's frame first and leaves it in b's box.
            answer(&port, &fb, b"BBBB");
            answer(&port, &fa, b"AAAA");
            assert_eq!(&call_a.join().expect("a"), b"AAAA");
            assert_eq!(&call_b.join().expect("b"), b"BBBB");
        });
    }

    #[test]
    fn contiguous_writes_coalesce_into_one_frame_under_contention() {
        let (hub, port) = hub();
        let a = hub.attach().expect("a");
        let _b = hub.attach().expect("b"); // second session switches staging on
        for i in 0..4u64 {
            a.post(cmd(1, i * 4, 4), b"wxyz").expect("write");
        }
        // Nothing on the wire yet: all four writes sit in one stage.
        assert_eq!(port.try_recv_cmd().expect("empty"), None);
        std::thread::scope(|s| {
            // A read forces the flush: the batch frame precedes the read.
            let read = s.spawn(|| a.call(cmd(2, 0, 1), &mut [0u8; 1]).expect("read"));
            let flush = port.recv_cmd().expect("flush frame");
            assert_eq!(flush.body, cmd(1, 0, 16));
            let mut payload = vec![0u8; 16];
            port.recv_data_exact(&mut payload).expect("batch payload");
            assert_eq!(&payload, b"wxyzwxyzwxyzwxyz");
            let frame = port.recv_cmd().expect("read frame");
            assert_eq!(frame.body.tag, 2);
            answer(&port, &frame, b"w");
            assert_eq!(read.join().expect("join"), (ToyReply { n: 1 }, 1));
        });
    }

    #[test]
    fn a_flush_sends_staged_batches_lowest_session_first() {
        let (hub, port) = hub();
        let sessions: Vec<_> = (0..3).map(|_| hub.attach().expect("attach")).collect();
        // Staged out of id order: third, first, second.
        for i in [2usize, 0, 1] {
            sessions[i]
                .post(cmd(1, i as u64 * 8, 2), &[b'a' + i as u8; 2])
                .expect("staged");
        }
        assert_eq!(port.try_recv_cmd().expect("empty"), None);
        std::thread::scope(|s| {
            let reader = &sessions[2];
            let read = s.spawn(|| reader.call(cmd(2, 0, 1), &mut [0u8; 1]).expect("read"));
            for (i, session) in sessions.iter().enumerate() {
                let frame = port.recv_cmd().expect("batch frame");
                assert_eq!(frame.session, session.session_id());
                assert_eq!(frame.body, cmd(1, i as u64 * 8, 2));
                let mut payload = [0u8; 2];
                port.recv_data_exact(&mut payload).expect("batch payload");
                assert_eq!(payload, [b'a' + i as u8; 2]);
            }
            let frame = port.recv_cmd().expect("read frame");
            assert_eq!((frame.session, frame.body.tag), (reader.session_id(), 2));
            answer(&port, &frame, b"a");
            read.join().expect("join");
        });
    }

    #[test]
    fn single_session_writes_go_straight_to_the_wire() {
        let (hub, port) = hub();
        let a = hub.attach().expect("a");
        a.post(cmd(1, 0, 3), b"abc").expect("write");
        let frame = port.recv_cmd().expect("frame");
        assert_eq!(frame.body.len, 3);
        let mut buf = [0u8; 3];
        port.recv_data_exact(&mut buf).expect("payload");
        assert_eq!(&buf, b"abc");
    }

    #[test]
    fn only_the_last_close_reaches_the_wire() {
        let (hub, port) = hub();
        let a = hub.attach().expect("a");
        let b = hub.attach().expect("b");
        // a's close is acknowledged locally, nothing on the wire.
        let ack = a.call(cmd(9, 0, 0), &mut []).expect("local ack");
        assert_eq!(ack, (ToyReply { n: 0 }, 0));
        assert_eq!(port.try_recv_cmd().expect("empty"), None);
        assert_eq!(hub.live_sessions(), vec![b.session_id()]);
        std::thread::scope(|s| {
            let close = s.spawn(|| b.call(cmd(9, 0, 0), &mut []).expect("b close"));
            let frame = port.recv_cmd().expect("wire close");
            assert_eq!(frame.body.tag, 9);
            answer(&port, &frame, b"");
            close.join().expect("join");
        });
        assert!(hub.is_closed());
        assert!(hub.attach().is_none(), "closed hub refuses new sessions");
    }

    #[test]
    fn crossings_are_charged_per_frame_not_per_write() {
        let model = CostModel::new(afs_sim::HardwareProfile::pentium_ii_300());
        let (transport, port) =
            PairTransport::<Framed<ToyCmd>, Framed<ToyReply>>::shared(model.clone());
        let hub: ToyHub = MuxHub::new(transport, model.clone(), None);
        let a = hub.attach().expect("a");
        let _b = hub.attach().expect("b");
        let before = model.snapshot();
        for i in 0..8u64 {
            a.post(cmd(1, i * 2, 2), b"hi").expect("write");
        }
        let staged = model.snapshot().since(&before);
        assert_eq!(staged.thread_switches, 0, "coalesced writes cross nothing");
        std::thread::scope(|s| {
            let sync = s.spawn(|| a.call(cmd(3, 0, 0), &mut []).expect("sync op"));
            port.recv_cmd().expect("batch frame");
            port.recv_data_exact(&mut [0u8; 16]).expect("batch payload");
            let frame = port.recv_cmd().expect("sync frame");
            answer(&port, &frame, b"");
            sync.join().expect("join");
        });
        let flushed = model.snapshot().since(&before);
        // One batch frame + one sync frame: two round trips total.
        assert_eq!(flushed.thread_switches, 4);
    }

    #[test]
    fn non_contiguous_writes_flush_the_stage() {
        let (hub, port) = hub();
        let a = hub.attach().expect("a");
        let _b = hub.attach().expect("b");
        a.post(cmd(1, 0, 2), b"aa").expect("staged");
        a.post(cmd(1, 100, 2), b"bb").expect("second");
        // The non-contiguous second write pushed the first out.
        let frame = port.recv_cmd().expect("flushed first write");
        assert_eq!(frame.body.offset, 0);
        let mut buf = [0u8; 2];
        port.recv_data_exact(&mut buf).expect("payload");
        assert_eq!(&buf, b"aa");
        assert_eq!(port.try_recv_cmd().expect("second still staged"), None);
    }
}
