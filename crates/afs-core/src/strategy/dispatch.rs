//! The one sentinel-side dispatch loop ("the thread … runs a dispatch loop
//! using calls to AF_GetControl", §5.3).
//!
//! Every out-of-line sentinel — §4.2 process or §4.3 thread, private or
//! shared, batched or not — runs [`SentinelLoop`]: take the next inbound
//! command from a [`SentinelPort`], find its session, let a parked
//! write-behind failure pre-empt it, run it through [`execute_op`], reply.
//! What differs between the wirings is handed *to* the loop:
//!
//! | Wiring | Port | Sessions |
//! |--------|------|----------|
//! | private, unbatched | `PairPort<Op, OpReply>` | the one admitted at open |
//! | shared | `PairPort<Framed<Op>, Framed<OpReply>>` | admitted as opens attach |
//! | batched | [`RingSentinelPort`] | the one admitted at open |
//!
//! Commands are served in wire order. Each session is one strategy handle,
//! whose op lock allows one reply-bearing command on the wire at a time, so
//! wire order is already fair across sessions, and executing writes in it
//! is what makes a flushed batch land before the read that forced the
//! flush. Every frame is observed under the `poll_*` charging rule of
//! `afs-ipc` (what a blocking receive would have cost, nothing for an
//! empty poll), whatever the backlog.

use std::sync::Arc;

use parking_lot::Mutex;

use afs_ipc::{BufferPool, ChannelWaker, Cqe, Framed, IpcError, PairPort, RingPort};
use afs_telemetry::SentinelStats;

use crate::ctx::SentinelCtx;
use crate::logic::{SentinelError, SentinelLogic};
use crate::strategy::executor::{SentinelPoll, TaskDone, TaskPoll};
use crate::strategy::{
    execute_op, op_name, take_sticky_preemption, Instruments, Op, OpReply, SentinelSide, Sticky,
};

/// One command as the loop sees it, whatever carried it.
pub(crate) struct Inbound {
    pub(crate) session: u32,
    /// Submission id the reply comes back under (ring ports; 0 elsewhere).
    pub(crate) id: u64,
    pub(crate) op: Op,
    /// A `Write`'s bytes; empty for every other command. The loop returns
    /// it to the port's pool once the command has run.
    pub(crate) payload: Vec<u8>,
}

/// The sentinel side of a wire, as much of it as the loop needs.
pub(crate) trait SentinelPort: Send + 'static {
    /// The next inbound command with its payload, `None` when the lane is
    /// merely empty. Never blocks on an empty lane.
    ///
    /// # Errors
    ///
    /// The application side is gone — before a command, or between a
    /// `Write` and its payload.
    fn next(&self) -> afs_ipc::Result<Option<Inbound>>;

    /// Sends `reply` (and any produced bytes) to `session`.
    ///
    /// # Errors
    ///
    /// The application side is gone.
    fn reply(
        &self,
        session: u32,
        id: u64,
        reply: OpReply,
        data: Option<Vec<u8>>,
    ) -> afs_ipc::Result<()>;

    /// Where payloads and read buffers are staged.
    fn pool(&self) -> &BufferPool;

    /// Installs the readiness waker the sentinel executor parks on.
    fn set_wakeup(&self, waker: ChannelWaker);
}

/// Stages the payload that follows a `Write` on a pair port's data lane.
fn pair_inbound<C, R>(port: &PairPort<C, R>, session: u32, op: Op) -> afs_ipc::Result<Inbound>
where
    C: Send + 'static,
    R: Send + 'static,
{
    let payload = match op {
        Op::Write { len, .. } if len > 0 => {
            let mut buf = port.pool().take(len as usize);
            // A pipe reports a vanished writer as a short count, not an
            // error: either way the payload is not coming.
            if port.recv_data_exact(&mut buf).ok() != Some(buf.len()) {
                port.pool().put(buf);
                return Err(IpcError::BrokenPipe);
            }
            buf
        }
        _ => Vec::new(),
    };
    Ok(Inbound {
        session,
        id: 0,
        op,
        payload,
    })
}

/// Sends a reply frame, then its bytes on the data lane.
fn pair_reply<C, R>(port: &PairPort<C, R>, frame: R, data: Option<Vec<u8>>) -> afs_ipc::Result<()>
where
    C: Send + 'static,
    R: Send + 'static,
{
    let sent = port.send_reply(frame).and_then(|()| match &data {
        Some(bytes) if !bytes.is_empty() => port.send_data(bytes),
        _ => Ok(()),
    });
    if let Some(bytes) = data {
        port.pool().put(bytes);
    }
    sent
}

/// The private, unbatched wire: one session, no framing.
impl SentinelPort for PairPort<Op, OpReply> {
    fn next(&self) -> afs_ipc::Result<Option<Inbound>> {
        match self.poll_cmd()? {
            Some(op) => pair_inbound(self, PRIVATE_SESSION, op).map(Some),
            None => Ok(None),
        }
    }

    fn reply(
        &self,
        _session: u32,
        _id: u64,
        reply: OpReply,
        data: Option<Vec<u8>>,
    ) -> afs_ipc::Result<()> {
        pair_reply(self, reply, data)
    }

    fn pool(&self) -> &BufferPool {
        PairPort::pool(self)
    }

    fn set_wakeup(&self, waker: ChannelWaker) {
        PairPort::set_wakeup(self, waker);
    }
}

/// The shared wire: every frame names its session.
impl SentinelPort for PairPort<Framed<Op>, Framed<OpReply>> {
    fn next(&self) -> afs_ipc::Result<Option<Inbound>> {
        match self.poll_cmd()? {
            Some(frame) => pair_inbound(self, frame.session, frame.body).map(Some),
            None => Ok(None),
        }
    }

    fn reply(
        &self,
        session: u32,
        _id: u64,
        reply: OpReply,
        data: Option<Vec<u8>>,
    ) -> afs_ipc::Result<()> {
        let frame = Framed {
            session,
            body: reply,
        };
        pair_reply(self, frame, data)
    }

    fn pool(&self) -> &BufferPool {
        PairPort::pool(self)
    }

    fn set_wakeup(&self, waker: ChannelWaker) {
        PairPort::set_wakeup(self, waker);
    }
}

/// The batched wire: submissions carry their payload, completions are
/// posted by id (so the ring itself recycles nothing into the pool).
pub(crate) struct RingSentinelPort {
    ring: RingPort<Op, OpReply>,
    pool: BufferPool,
}

impl RingSentinelPort {
    pub(crate) fn new(ring: RingPort<Op, OpReply>) -> Self {
        RingSentinelPort {
            ring,
            pool: BufferPool::new(),
        }
    }
}

impl SentinelPort for RingSentinelPort {
    fn next(&self) -> afs_ipc::Result<Option<Inbound>> {
        Ok(self.ring.poll_sqe()?.map(|sqe| Inbound {
            session: PRIVATE_SESSION,
            id: sqe.id,
            op: sqe.cmd,
            payload: sqe.payload.unwrap_or_default(),
        }))
    }

    fn reply(
        &self,
        _session: u32,
        id: u64,
        reply: OpReply,
        data: Option<Vec<u8>>,
    ) -> afs_ipc::Result<()> {
        self.ring.post(Cqe { id, reply, data })
    }

    fn pool(&self) -> &BufferPool {
        &self.pool
    }

    fn set_wakeup(&self, waker: ChannelWaker) {
        self.ring.set_wakeup(waker);
    }
}

/// The session id of a wire that carries exactly one (hub ids start at 1).
pub(crate) const PRIVATE_SESSION: u32 = 0;

/// Sentinel-side state of one session: where its write-behind failures
/// park and how its spans are parented and annotated.
pub(crate) struct Session {
    pub(crate) id: u32,
    pub(crate) sticky: Sticky,
    pub(crate) side: SentinelSide,
}

#[derive(Default)]
struct Joining {
    sessions: Vec<Session>,
    /// The newest admission's id, and the ids live when it was taken.
    census: (u32, Vec<u32>),
}

/// The application-side door into a running loop's session table.
#[derive(Clone, Default)]
pub(crate) struct Joiners(Arc<Mutex<Joining>>);

impl Joiners {
    /// Admits `session`; it must not send a frame before this returns.
    /// `live` lists the ids attached at some moment after `session` got
    /// its own — ids are handed out in order, so it accounts for every
    /// session up to that id, and the loop prunes by it only that far.
    /// (It is a value, not a callback: the loop takes this lock while the
    /// application side may be blocked on the loop, so nothing may be
    /// called under it.)
    pub(crate) fn admit(&self, session: Session, live: Vec<u32>) {
        let mut door = self.0.lock();
        door.census = (session.id, live);
        door.sessions.push(session);
    }
}

/// The sessions one loop serves: an arena the loop owns, so the hot path
/// borrows a session without locking or cloning, fed through [`Joiners`].
struct SessionTable {
    arena: Vec<Session>,
    joiners: Joiners,
    /// Stands in for a session whose record was pruned while its last
    /// staged writes were still on the wire: they execute, and nobody is
    /// left to report their failures to.
    departed: Session,
}

impl SessionTable {
    fn get(&mut self, id: u32) -> &Session {
        let find = |arena: &[Session]| arena.iter().position(|s| s.id == id);
        let found = find(&self.arena).or_else(|| {
            // Admission happens-before a session's first frame, so an
            // unknown id means sessions joined since the last look.
            // Sessions that closed while others stayed never reach the
            // loop (their close is acknowledged application-side); they
            // are dropped here, against the newest census.
            let mut door = self.joiners.0.lock();
            self.arena.append(&mut door.sessions);
            let (counted, live) = &door.census;
            self.arena
                .retain(|s| s.id > *counted || live.contains(&s.id));
            find(&self.arena)
        });
        found.map_or(&self.departed, |at| &self.arena[at])
    }
}

/// How one served command left the loop.
enum Served {
    Continue,
    /// `Close` was served: the close hook ran inside [`execute_op`].
    Closed,
}

/// The sentinel dispatch state machine: a resumable [`SentinelPoll`] task
/// the sentinel executor schedules whenever the port has something to
/// observe. Write failures park in the session's sticky slot and surface
/// on its next synchronous command, because writes are acknowledged
/// eagerly (write-behind, §6).
pub(crate) struct SentinelLoop<P: SentinelPort> {
    logic: Box<dyn SentinelLogic>,
    ctx: SentinelCtx,
    port: P,
    sessions: SessionTable,
    stats: Arc<SentinelStats>,
    /// The close hook has run; it runs exactly once whichever way the
    /// loop exits.
    closed: bool,
}

impl<P: SentinelPort> SentinelLoop<P> {
    pub(crate) fn new(
        logic: Box<dyn SentinelLogic>,
        ctx: SentinelCtx,
        port: P,
        joiners: Joiners,
        departed: SentinelSide,
        stats: Arc<SentinelStats>,
    ) -> Self {
        SentinelLoop {
            logic,
            ctx,
            port,
            sessions: SessionTable {
                arena: Vec::new(),
                joiners,
                departed: Session {
                    id: u32::MAX,
                    sticky: Sticky::default(),
                    side: departed,
                },
            },
            stats,
            closed: false,
        }
    }

    /// Registers the loop for `port` on the sentinel executor.
    pub(crate) fn spawn(
        instr: &Instruments,
        logic: Box<dyn SentinelLogic>,
        ctx: SentinelCtx,
        port: P,
        joiners: Joiners,
    ) -> Arc<TaskDone> {
        let departed = instr.sentinel_side(Arc::default());
        let stats = instr.tel.sentinel_stats(instr.sentinel);
        instr.spawn_task(move |waker| {
            port.set_wakeup(waker);
            Box::new(SentinelLoop::new(
                logic, ctx, port, joiners, departed, stats,
            ))
        })
    }

    fn serve(&mut self, inbound: Inbound) -> afs_ipc::Result<Served> {
        let Inbound {
            session,
            id,
            op,
            payload,
        } = inbound;
        let Self {
            logic,
            ctx,
            port,
            sessions,
            stats,
            closed,
        } = self;
        let sess = sessions.get(session);
        // A parked write-behind failure pre-empts the session's next
        // synchronous command, so the application learns of it
        // deterministically (a session's commands are served in order).
        if let Some(e) = take_sticky_preemption(&sess.sticky, &op) {
            return port
                .reply(session, id, OpReply::Failed(e), None)
                .map(|()| Served::Continue);
        }
        let write = matches!(op, Op::Write { .. });
        let close = matches!(op, Op::Close);
        // A read's bytes have a wire to cross: they are staged in a
        // pooled buffer the reply takes with it.
        let mut data = op.read_room().map(|room| port.pool().take(room));
        let executed = sess.side.observe(op_name(&op), || {
            let into = data.as_deref_mut().unwrap_or_default();
            execute_op(logic.as_mut(), ctx, op, &payload, into)
        });
        // Over-delivery has no reply of its own on a wire; the routine's
        // claim is refused like any other failure of it.
        let reply = executed.unwrap_or_else(|_| {
            let refused = "sentinel read reported more bytes than it was asked for";
            OpReply::Failed(SentinelError::Other(refused.into()))
        });
        if let (OpReply::Read { n }, Some(bytes)) = (&reply, &mut data) {
            bytes.truncate(*n as usize);
        } else if let Some(unused) = data.take() {
            port.pool().put(unused);
        }
        *closed |= close;
        stats.op(
            payload.len() as u64,
            data.as_ref().map_or(0, |d| d.len() as u64),
            matches!(reply, OpReply::Failed(_)),
        );
        port.pool().put(payload);
        if write {
            // Acknowledged eagerly on the application side: no reply.
            if let OpReply::Failed(e) = reply {
                sess.sticky.park(e);
            }
            return Ok(Served::Continue);
        }
        port.reply(session, id, reply, data)?;
        Ok(if close {
            Served::Closed
        } else {
            Served::Continue
        })
    }

    /// Runs the close hook unless `Close` already did: the application
    /// vanished without it (process killed, wire dead mid-operation) or
    /// the executor is shutting down.
    fn finish(&mut self) {
        if !std::mem::replace(&mut self.closed, true) {
            let _ = self.logic.on_close(&mut self.ctx);
            self.ctx.persist_cache();
        }
    }
}

impl<P: SentinelPort> SentinelPoll for SentinelLoop<P> {
    fn poll(&mut self) -> TaskPoll {
        // Commands served back-to-back in one poll were queued together:
        // the run length is the backlog depth this sentinel observed.
        let mut drained = 0u64;
        loop {
            let served = match self.port.next() {
                Ok(Some(inbound)) => {
                    drained += 1;
                    self.serve(inbound)
                }
                Ok(None) => {
                    self.stats.note_queue_depth(drained);
                    return TaskPoll::Pending;
                }
                Err(e) => Err(e),
            };
            match served {
                Ok(Served::Continue) => {}
                Ok(Served::Closed) => return TaskPoll::Ready,
                Err(_) => {
                    self.finish();
                    return TaskPoll::Ready;
                }
            }
        }
    }

    fn abandon(&mut self) {
        self.finish();
    }
}

#[cfg(test)]
pub(crate) mod tests;
