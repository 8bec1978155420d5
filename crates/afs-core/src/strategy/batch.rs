//! Handle-side batching over submission/completion rings (`batch=on`).
//!
//! The §4.2/§4.3 wirings cross the protection boundary twice per
//! operation. With `batch=on` / `ring_depth=K` in the spec, the same
//! [`StrategyHandle`] hands its operations to a [`RingDriver`] instead of
//! a [`PairTransport`](afs_ipc::PairTransport): they are staged into an
//! [`afs_ipc::RingPair`] submission ring and the boundary is crossed once
//! per *batch* — 1 crossing + K dispatches, in the cost model's terms.
//! Three populations fill a batch:
//!
//! * **Coalesced writes** — write-behind staging through the one
//!   [`Stager`](afs_ipc::Stager) (adjacent writes of one session merge,
//!   up to 64 KiB an entry); a session's entries flush when it holds K of
//!   them or a synchronous op needs ordering. An entry keeps the trace
//!   context of the first write it merged.
//! * **Readahead** — a demand read that misses the speculative cache
//!   submits itself plus sequential speculative reads to fill the batch,
//!   all in the demand read's session and trace context; later sequential
//!   reads are served from its completions with zero new crossings.
//! * **Scatter/gather spans** — `ReadFileScatter` rides the ring as one
//!   entry, flushing staged writes ahead of itself in the same crossing.
//!
//! The driver is a session hub, as [`MuxHub`](afs_ipc::MuxHub) is for the
//! pair lane: every open of a batched file is a session on its one ring,
//! a private open the one-session case. docs/BATCHING.md ("Shared rings")
//! states the rules that order its sessions.
//!
//! The sentinel side is the one [`dispatch`](super::dispatch) loop over
//! the ring port: it drains the ring in submission order through the
//! shared `execute_op` and completes through the completion index, so
//! batched and unbatched execution stay transcript-equivalent: every
//! application-visible result — data bytes, error codes, write-behind
//! error surfacing via the sticky slot — is the same either way.
//! Speculative reads assume read-idempotent sentinel logic (see
//! docs/BATCHING.md), which is why batching is opt-in per file.
//!
//! Nothing the driver does depends on *when* a completion lands in real
//! time: it only ever blocks for a completion by id, so crossings and the
//! virtual clock are a function of the operation sequence alone.
//!
//! [`StrategyHandle`]: super::handle::StrategyHandle

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use afs_ipc::{
    AppPort, Framed, IpcError, RingTransport, SentinelExit, SessionHub, Sessions, Sqe, Stager,
};
use afs_sim::CrossingKind;
use afs_telemetry::{Layer, RingGauges, Telemetry};

use crate::strategy::handle::deliver;
use crate::strategy::mux::OpMux;
use crate::strategy::{Instruments, Op, OpReply};

/// One speculative read in flight.
#[derive(Debug)]
struct Speculation {
    id: u64,
    offset: u64,
    len: u32,
    /// The driver's epoch when it was submitted.
    epoch: u64,
    /// Last submission id of the batch it rode in.
    tail: u64,
}

/// Mutable state of one [`RingDriver`], behind the mutex every operation
/// of every session takes once.
#[derive(Default)]
struct DriverState {
    /// Next submission id (monotonic; completions key off it).
    next_id: u64,
    sessions: Sessions,
    /// Write-behind entries staged since their session's last doorbell.
    staged: Stager<OpMux>,
    /// Reaped speculative reads: `(offset, len)` → produced bytes.
    cache: HashMap<(u64, u32), Vec<u8>>,
    /// Speculative reads not yet reaped, in submission order.
    inflight: Vec<Speculation>,
    /// Bumped by anything that can change file contents; speculative
    /// results from an older epoch are discarded when reaped.
    epoch: u64,
    /// Last observed value of the sentinel ctx's heal generation; a
    /// change means a queued-write replay ran and everything speculated
    /// before it is invalid.
    heal_seen: u64,
}

impl DriverState {
    /// The next submission id.
    fn next_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    /// The staged entries of `only` (every session's, lowest id first,
    /// when `None`) as the head of a batch of `depth` submissions.
    fn batch(&mut self, only: Option<u32>, depth: usize) -> Vec<Sqe<Framed<Op>>> {
        let mut batch = Vec::with_capacity(depth);
        for (cmd, payload) in self.staged.take(only) {
            self.next_id += 1;
            let (id, payload) = (self.next_id, Some(payload));
            batch.push(Sqe { id, cmd, payload });
        }
        batch
    }
}

/// What a completed submission came back with: the reply and any bytes
/// it produced.
type Completed = afs_ipc::Result<(OpReply, Option<Vec<u8>>)>;

/// The application side of a batched sentinel: one ring, its sessions'
/// operations staged into it. Crossing charges happen in
/// [`RingTransport::submit`], once per batch.
pub(crate) struct RingDriver {
    ring: RingTransport<Framed<Op>, OpReply>,
    state: Mutex<DriverState>,
    tel: Arc<Telemetry>,
    strategy: &'static str,
    gauges: Arc<RingGauges>,
    heal_gen: Arc<AtomicU64>,
}

impl RingDriver {
    pub(crate) fn new(
        ring: RingTransport<Framed<Op>, OpReply>,
        instr: &Instruments,
        heal_gen: Arc<AtomicU64>,
        exit: Arc<SentinelExit>,
    ) -> Self {
        let sessions = Sessions::new(Arc::clone(instr.tel.sessions()), Some(exit));
        RingDriver {
            ring,
            state: Mutex::new(DriverState {
                sessions,
                staged: Stager::new(instr.model.clone()),
                ..DriverState::default()
            }),
            tel: Arc::clone(&instr.tel),
            strategy: instr.strategy,
            gauges: Arc::clone(instr.tel.rings()),
            heal_gen,
        }
    }

    /// Retires the speculative epoch when a queued-write replay has run
    /// since this driver last looked: replay rewrites remote state, so any
    /// readahead staged before it (cached *or* still in flight) describes
    /// the pre-replay file and must never reach the application.
    fn sync_heal_generation(&self, state: &mut DriverState) {
        let gen = self.heal_gen.load(Ordering::SeqCst);
        if gen != state.heal_seen {
            state.heal_seen = gen;
            state.epoch += 1;
            state.cache.clear();
        }
    }

    /// Rings the doorbell for `batch` under a transport-layer span (which
    /// nests under the in-flight op's strategy span on this thread).
    /// `awaited`: this thread blocks on the batch's completions next (see
    /// [`RingTransport::submit_awaited`]).
    fn submit(&self, batch: Vec<Sqe<Framed<Op>>>, awaited: bool) -> afs_ipc::Result<()> {
        if batch.is_empty() {
            return Ok(());
        }
        let mut span = self
            .tel
            .span_tagged(Layer::Transport, "batch-submit", self.strategy);
        if let Some(sp) = span.as_mut() {
            sp.set_bytes(batch.len() as u64);
        }
        if awaited {
            self.ring.submit_awaited(batch)
        } else {
            self.ring.submit(batch)
        }
    }

    /// Collects every speculative completion submitted up to and including
    /// `through`, keeping current-epoch results in the readahead cache.
    /// The ring is drained in order, so after a blocking completion of id
    /// N everything below N is already posted and stamped no later: run
    /// with `through` below such an N this neither waits nor moves the
    /// clock.
    fn reap(&self, state: &mut DriverState, through: u64) -> afs_ipc::Result<()> {
        while state.inflight.first().is_some_and(|s| s.id <= through) {
            let spec = state.inflight.remove(0);
            let cqe = self.ring.complete(spec.id)?;
            // A stale epoch or a speculative failure is dropped: the
            // unbatched wiring never issued this read, so its outcome
            // must not become application-visible.
            if matches!(cqe.reply, OpReply::Read { .. }) && spec.epoch == state.epoch {
                state
                    .cache
                    .insert((spec.offset, spec.len), cqe.data.unwrap_or_default());
            }
        }
        // A replay may have run while those drained.
        self.sync_heal_generation(state);
        Ok(())
    }

    /// Submits `batch` and blocks for the completion of its entry `id`:
    /// the reply plus any produced bytes.
    fn roundtrip(
        &self,
        state: &mut DriverState,
        batch: Vec<Sqe<Framed<Op>>>,
        id: u64,
    ) -> Completed {
        self.submit(batch, true)?;
        let cqe = self.ring.complete(id)?;
        self.reap(state, id)?;
        Ok((cqe.reply, cqe.data))
    }

    /// Serves a demand read, `frame`: from the readahead when the exact
    /// span was speculated (zero new crossings), otherwise with one batch
    /// of staged writes + the demand read + sequential speculative reads
    /// in the demand's session and trace, filling what its session's own
    /// staged entries leave of the ring depth.
    fn demand_read(&self, state: &mut DriverState, frame: Framed<Op>) -> Completed {
        let Op::Read { offset, len } = frame.body else {
            unreachable!("a demand read is a read");
        };
        self.sync_heal_generation(state);
        // The span may still be in flight. Waiting for its whole batch —
        // never submitting it again, never peeking at what has landed —
        // is what keeps crossings and virtual time independent of how
        // fast the sentinel happened to run.
        let awaited = state
            .inflight
            .iter()
            .find(|s| (s.offset, s.len, s.epoch) == (offset, len, state.epoch))
            .map(|s| s.tail);
        if let Some(tail) = awaited {
            self.reap(state, tail)?;
        }
        if let Some(data) = state.cache.remove(&(offset, len)) {
            self.gauges.readahead_hit();
            let n = data.len() as u32;
            return Ok((OpReply::Read { n }, Some(data)));
        }
        let Framed { session, trace, .. } = frame;
        let depth = self.ring.depth();
        let room = match len {
            0 => 0,
            _ => depth.saturating_sub(state.staged.held(session) + 1),
        };
        let mut batch = state.batch(None, depth);
        let demand = state.next_id();
        batch.push(Sqe {
            id: demand,
            cmd: frame,
            payload: None,
        });
        let tail = demand + room as u64;
        let mut next = offset + u64::from(len);
        for _ in 0..room {
            let id = state.next_id();
            let body = Op::Read { offset: next, len };
            batch.push(Sqe {
                id,
                cmd: Framed {
                    session,
                    trace,
                    body,
                },
                payload: None,
            });
            state.inflight.push(Speculation {
                id,
                offset: next,
                len,
                epoch: state.epoch,
                tail,
            });
            next += u64::from(len);
        }
        self.roundtrip(state, batch, demand)
    }

    /// Runs one synchronous command, `frame`, through the ring: every
    /// session's staged writes flush ahead of it in the same crossing.
    fn sync_roundtrip(&self, state: &mut DriverState, frame: Framed<Op>) -> Completed {
        self.sync_heal_generation(state);
        let op = &frame.body;
        if matches!(op, Op::Control { .. } | Op::ReadScatter { .. } | Op::Flush) {
            // Controls can mutate sentinel state; scatter reads advance
            // shared context; flush seals durable batches. All invalidate
            // speculation.
            state.epoch += 1;
            state.cache.clear();
        }
        let mut batch = state.batch(None, self.ring.depth());
        let id = state.next_id();
        batch.push(Sqe {
            id,
            cmd: frame,
            payload: None,
        });
        self.roundtrip(state, batch, id)
    }
}

impl SessionHub<OpMux> for RingDriver {
    fn attach(&self) -> Option<(u32, Vec<u32>)> {
        self.state.lock().sessions.attach()
    }

    fn session_count(&self) -> usize {
        self.state.lock().sessions.count()
    }
}

impl AppPort<OpMux> for RingDriver {
    fn crossing(&self) -> CrossingKind {
        self.ring.crossing()
    }

    /// Stages one write, `frame`, with its `payload`, and submits its
    /// session's entries once the session holds the ring depth of them.
    fn post(&self, frame: Framed<Op>, payload: &[u8]) -> afs_ipc::Result<()> {
        let mut state = self.state.lock();
        if state.sessions.is_closed() {
            return Err(IpcError::BrokenPipe);
        }
        if !matches!(frame.body, Op::Write { .. }) {
            return Err(IpcError::Unsupported);
        }
        // Contents are changing: speculative results issued before this
        // write no longer reflect the file the unbatched wiring would
        // read.
        state.epoch += 1;
        state.cache.clear();
        let session = frame.session;
        if !state.staged.merge(&frame, payload) {
            state.staged.push(frame, Vec::new(), payload);
        }
        if state.staged.held(session) >= self.ring.depth() {
            let batch = state.batch(Some(session), 0);
            self.submit(batch, false)?;
        }
        Ok(())
    }

    /// Runs `frame`, a command its session waits on. A close while other
    /// sessions stay flushes every staged entry and is acknowledged here;
    /// the last one crosses and reaps the sentinel.
    fn call(&self, frame: Framed<Op>, into: &mut [u8]) -> afs_ipc::Result<(OpReply, usize)> {
        let mut state = self.state.lock();
        if state.sessions.is_closed() {
            return Err(IpcError::BrokenPipe);
        }
        let close = matches!(frame.body, Op::Close);
        if close && !state.sessions.detach(frame.session) {
            let batch = state.batch(None, 0);
            return self.submit(batch, false).map(|()| (OpReply::Done, 0));
        }
        let completed = match frame.body {
            Op::Read { .. } => self.demand_read(&mut state, frame),
            _ => self.sync_roundtrip(&mut state, frame),
        };
        if close {
            state.sessions.reap();
        }
        let (reply, data) = completed?;
        deliver(reply, data.as_deref(), into)
    }
}

/// An abandoned handle (dropped without `CloseHandle`) still owes the
/// sentinel the writes it acknowledged: they go out before the ring's own
/// drop closes it. A sentinel that is already gone is ignored.
impl Drop for RingDriver {
    fn drop(&mut self) {
        let batch = self.state.get_mut().batch(None, 0);
        let _ = self.submit(batch, false);
    }
}
