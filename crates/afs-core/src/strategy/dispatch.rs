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
//! | private, unbatched | `PairPort<Framed<Op>, Framed<OpReply>>` | the one admitted at open |
//! | shared | `PairPort<Framed<Op>, Framed<OpReply>>` | admitted as opens attach |
//! | batched | `RingPort<Framed<Op>, OpReply>` | the one admitted at open |
//!
//! Every lane carries a command in one envelope, [`Framed`]: the session
//! it belongs to (0 on a private wire) and the trace context of the op it
//! serves, under which the loop observes it.
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

use afs_ipc::{
    ChannelWaker, Cqe, Framed, FreeList, MuxProtocol, PairPort, RingPort, SentinelExit, Sqe,
};
use afs_telemetry::{SentinelStats, TraceContext};

use crate::ctx::SentinelCtx;
use crate::logic::{SentinelError, SentinelLogic};
use crate::strategy::executor::{SentinelPoll, TaskPoll};
use crate::strategy::mux::OpMux;
use crate::strategy::{
    execute_op, op_name, take_sticky_preemption, Instruments, Op, OpReply, SentinelSide, Sticky,
};

/// One command as the loop sees it, whatever carried it.
pub(crate) struct Inbound {
    pub(crate) session: u32,
    /// The trace context of the op the command serves.
    pub(crate) trace: TraceContext,
    /// Submission id the reply comes back under (ring ports; 0 elsewhere).
    pub(crate) id: u64,
    pub(crate) op: Op,
    /// A `Write`'s bytes; empty for every other command. The loop keeps
    /// it on its staging list once the command has run.
    pub(crate) payload: Vec<u8>,
    /// Its take left the open lane empty: nothing more is there until the
    /// waker rings again.
    pub(crate) emptied: bool,
}

/// The sentinel side of a wire, as much of it as the loop needs.
pub(crate) trait SentinelPort: Send + 'static {
    /// The next inbound command with its payload, staged from `staging` or
    /// in the buffer it came in, which the take pays back from `staging`;
    /// `None` when the lane is merely empty. Never blocks on an empty lane.
    ///
    /// # Errors
    ///
    /// The application side is gone — before a command, or between a
    /// `Write` and its payload — or a `Write` carries other than the bytes
    /// it announces.
    fn next(&self, staging: &mut FreeList) -> afs_ipc::Result<Option<Inbound>>;

    /// Sends `reply` (and any produced bytes) to `session`, handing back
    /// a buffer for the staging list: the bytes' own if the port did not
    /// keep it, or a spare it kept from an earlier reply.
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
    ) -> afs_ipc::Result<Option<Vec<u8>>>;

    /// Installs the readiness waker the sentinel executor parks on.
    fn set_wakeup(&self, waker: ChannelWaker);
}

/// The pair wire, private or shared: every frame names its session. A
/// message's bytes cross a §4.2 pipe, behind it; on the §4.3 wiring they
/// travel inside it, and a spare goes back in place of the buffer.
impl SentinelPort for PairPort<Framed<Op>, Framed<OpReply>> {
    fn next(&self, staging: &mut FreeList) -> afs_ipc::Result<Option<Inbound>> {
        let announced = |frame: &Framed<Op>| OpMux::cmd_payload_len(&frame.body);
        let polled = self.poll_cmd(announced, staging)?;
        Ok(polled.map(|(frame, payload, emptied)| Inbound {
            session: frame.session,
            trace: frame.trace,
            id: 0,
            op: frame.body,
            payload,
            emptied,
        }))
    }

    fn reply(
        &self,
        session: u32,
        _id: u64,
        reply: OpReply,
        data: Option<Vec<u8>>,
    ) -> afs_ipc::Result<Option<Vec<u8>>> {
        let frame = Framed {
            session,
            trace: TraceContext::default(),
            body: reply,
        };
        self.send_reply_with(frame, data.unwrap_or_default())
    }

    fn set_wakeup(&self, waker: ChannelWaker) {
        PairPort::set_wakeup(self, waker);
    }
}

/// The batched wire: submissions carry their payload, completions are
/// posted by id, each keeping its bytes' buffer. A read's entry carries
/// the buffer its bytes go back in: it goes on the staging list, where
/// the read's reply takes it. A write's bytes stay on the staging list,
/// and its take pays the ring back from there, for the driver's next
/// doorbell to collect.
impl SentinelPort for RingPort<Framed<Op>, OpReply> {
    fn next(&self, staging: &mut FreeList) -> afs_ipc::Result<Option<Inbound>> {
        let keeps = |sqe: &Sqe<Framed<Op>>| matches!(sqe.cmd.body, Op::Write { .. });
        let Some((Sqe { id, cmd, payload }, emptied)) = self.poll_next(keeps, staging)? else {
            return Ok(None);
        };
        let payload = match (payload, &cmd.body) {
            (Some(bytes), Op::Write { .. }) => bytes,
            (spare, _) => {
                if let Some(buf) = spare {
                    staging.put(buf);
                }
                Vec::new()
            }
        };
        Ok(Some(Inbound {
            session: cmd.session,
            trace: cmd.trace,
            id,
            op: cmd.body,
            payload,
            emptied,
        }))
    }

    fn reply(
        &self,
        _session: u32,
        id: u64,
        reply: OpReply,
        data: Option<Vec<u8>>,
    ) -> afs_ipc::Result<Option<Vec<u8>>> {
        self.post(Cqe { id, reply, data }).map(|()| None)
    }

    fn set_wakeup(&self, waker: ChannelWaker) {
        RingPort::set_wakeup(self, waker);
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

/// The sessions one sentinel serves — a loop's, or an inline core's: an
/// arena it owns, so the hot path borrows a session without locking or
/// cloning, fed through [`Joiners`].
pub(crate) struct SessionTable {
    arena: Vec<Session>,
    joiners: Joiners,
    /// Stands in for a session whose record was pruned while its last
    /// staged writes were still on the wire: they execute, and nobody is
    /// left to report their failures to.
    departed: Session,
}

impl SessionTable {
    /// No session yet; `departed` observes what departed sessions left.
    pub(crate) fn new(joiners: Joiners, departed: SentinelSide) -> Self {
        SessionTable {
            arena: Vec::new(),
            joiners,
            departed: Session {
                id: u32::MAX,
                sticky: Sticky::default(),
                side: departed,
            },
        }
    }

    pub(crate) fn get(&mut self, id: u32) -> &Session {
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
    /// Where read replies and write payloads are staged. One thread at a
    /// time polls the loop, through `&mut`, so the list takes no lock.
    staging: FreeList,
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
        staging: FreeList,
        stats: Arc<SentinelStats>,
    ) -> Self {
        SentinelLoop {
            logic,
            ctx,
            port,
            sessions: SessionTable::new(joiners, departed),
            staging,
            stats,
            closed: false,
        }
    }

    /// Registers the loop for `port` on the sentinel executor, staging in
    /// `staging`.
    pub(crate) fn spawn(
        instr: &Instruments,
        logic: Box<dyn SentinelLogic>,
        ctx: SentinelCtx,
        port: P,
        joiners: Joiners,
        staging: FreeList,
    ) -> Arc<SentinelExit> {
        let departed = instr.sentinel_side();
        let stats = instr.tel.sentinel_stats(instr.sentinel);
        instr.spawn_task(move |waker| {
            port.set_wakeup(waker);
            Box::new(SentinelLoop::new(
                logic, ctx, port, joiners, departed, staging, stats,
            ))
        })
    }

    fn serve(&mut self, inbound: Inbound) -> afs_ipc::Result<Served> {
        let Inbound {
            session,
            trace,
            id,
            op,
            payload,
            emptied: _,
        } = inbound;
        let Self {
            logic,
            ctx,
            port,
            sessions,
            staging,
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
                .map(|_| Served::Continue);
        }
        let write = matches!(op, Op::Write { .. });
        let close = matches!(op, Op::Close);
        // A read's bytes have a wire to cross: they are staged in a
        // buffer the reply takes with it.
        let mut data = op.read_room().map(|room| staging.take(room));
        let executed = sess.side.observe(op_name(&op), trace, || {
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
            staging.put(unused);
        }
        *closed |= close;
        stats.op(
            payload.len() as u64,
            data.as_ref().map_or(0, |d| d.len() as u64),
            matches!(reply, OpReply::Failed(_)),
        );
        staging.put(payload);
        if write {
            // Acknowledged eagerly on the application side: no reply.
            if let OpReply::Failed(e) = reply {
                sess.sticky.park(e);
            }
            return Ok(Served::Continue);
        }
        if let Some(spent) = port.reply(session, id, reply, data)? {
            staging.put(spent);
        }
        Ok(if close {
            Served::Closed
        } else {
            Served::Continue
        })
    }

    /// Runs the close hook unless `Close` already did: the application
    /// vanished without it (process killed, wire dead mid-operation) or
    /// the executor is shutting down. The loop is done either way.
    fn finish(&mut self) -> TaskPoll {
        if !std::mem::replace(&mut self.closed, true) {
            let _ = self.logic.on_close(&mut self.ctx);
            self.ctx.persist_cache();
        }
        TaskPoll::Ready
    }
}

impl<P: SentinelPort> SentinelPoll for SentinelLoop<P> {
    /// Serves commands until the lane is empty. A take that leaves the
    /// open lane empty ends the poll once its command is served, without
    /// locking the lane again to find nothing: a send that races in after
    /// it rings a task that is running, and the executor re-polls.
    fn poll(&mut self) -> TaskPoll {
        // Commands served back-to-back in one poll were queued together:
        // the run length is the backlog depth this sentinel observed.
        let mut drained = 0u64;
        loop {
            let inbound = match self.port.next(&mut self.staging) {
                Ok(Some(inbound)) => inbound,
                Ok(None) => break,
                Err(_) => return self.finish(),
            };
            drained += 1;
            let emptied = inbound.emptied;
            match self.serve(inbound) {
                Ok(Served::Continue) if emptied => break,
                Ok(Served::Continue) => {}
                Ok(Served::Closed) => return TaskPoll::Ready,
                Err(_) => return self.finish(),
            }
        }
        self.stats.note_queue_depth(drained);
        TaskPoll::Pending
    }

    fn abandon(&mut self) {
        self.finish();
    }
}

#[cfg(test)]
pub(crate) mod tests;
