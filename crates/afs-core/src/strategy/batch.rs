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
//! * **Readahead** — a demand read that misses the speculation list
//!   submits itself plus sequential speculative reads to fill the batch,
//!   all in the demand read's session and trace context; later sequential
//!   reads are served from its completions with zero new crossings. Only
//!   the newest batch's speculations are kept: a miss retires the rest.
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
//! A settled driver hashes nothing and allocates nothing per op: it keeps
//! one batch `Vec` across doorbells, finds speculations by scanning a list
//! of at most one batch, and hands each read entry a spare buffer of its
//! own that the sentinel fills and the completion brings back (see
//! [`Sqe::payload`]).
//!
//! [`StrategyHandle`]: super::handle::StrategyHandle

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use afs_ipc::{
    AppPort, Framed, FreeList, IpcError, RingTransport, SentinelExit, SessionHub, Sessions, Sqe,
    Stager,
};
use afs_sim::CrossingKind;
use afs_telemetry::{Layer, RingGauges, Telemetry};

use crate::strategy::handle::deliver;
use crate::strategy::mux::OpMux;
use crate::strategy::{Instruments, Op, OpReply};

/// One speculative read, in flight or landed.
#[derive(Debug)]
struct Speculation {
    id: u64,
    offset: u64,
    len: u32,
    /// The driver's epoch when it was submitted.
    epoch: u64,
    /// Last submission id of the batch it rode in.
    tail: u64,
    /// The bytes it produced, once reaped; `None` while in flight.
    landed: Option<Vec<u8>>,
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
    /// The next doorbell's entries; empty between doorbells, its capacity
    /// kept for the next.
    batch: Vec<Sqe<Framed<Op>>>,
    /// Buffers for the bytes reads produce: each read entry takes one,
    /// and a delivered or discarded completion puts its bytes back.
    spare: FreeList,
    /// Speculative reads in submission order: the landed ones (reaped,
    /// holding their bytes, all of the current epoch) first, then those
    /// still in flight, older epochs' among them until they are reaped.
    readahead: Vec<Speculation>,
    /// Bumped by anything that can change file contents, and by a demand
    /// miss that submits newer readahead; speculative results from an
    /// older epoch are discarded when reaped.
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

    /// Appends the staged entries of `only` (every session's, lowest id
    /// first, when `None`) to the batch.
    fn flush_staged(&mut self, only: Option<u32>) {
        for (cmd, payload) in self.staged.take(only) {
            self.next_id += 1;
            let (id, payload) = (self.next_id, Some(payload));
            self.batch.push(Sqe { id, cmd, payload });
        }
    }

    /// Appends `cmd` to the batch under the next submission id, with a
    /// spare buffer for the bytes it produces if it reads; returns the id.
    fn push(&mut self, cmd: Framed<Op>) -> u64 {
        let id = self.next_id();
        let payload = cmd
            .body
            .read_room()
            .map(|room| self.spare.take_capacity(room));
        self.batch.push(Sqe { id, cmd, payload });
        id
    }

    /// Retires every speculation submitted so far: none of them may serve
    /// a read any more, and the landed ones' buffers go back to `spare`.
    /// Those still in flight stay listed until they are reaped.
    fn retire(&mut self) {
        self.epoch += 1;
        let spare = &mut self.spare;
        self.readahead
            .retain_mut(|s| s.landed.take().map(|bytes| spare.put(bytes)).is_none());
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
    /// readahead staged before it (landed *or* still in flight) describes
    /// the pre-replay file and must never reach the application.
    fn sync_heal_generation(&self, state: &mut DriverState) {
        let gen = self.heal_gen.load(Ordering::SeqCst);
        if gen != state.heal_seen {
            state.heal_seen = gen;
            state.retire();
        }
    }

    /// Rings the doorbell for `batch`, draining it, under a
    /// transport-layer span (which nests under the in-flight op's strategy
    /// span on this thread). `awaited`: this thread blocks on the batch's
    /// completions next (see [`RingTransport::submit_awaited`]).
    fn submit(&self, batch: &mut Vec<Sqe<Framed<Op>>>, awaited: bool) -> afs_ipc::Result<()> {
        if batch.is_empty() {
            return Ok(());
        }
        let mut span = self
            .tel
            .span_tagged(Layer::Transport, "batch-submit", self.strategy);
        if let Some(sp) = span.as_mut() {
            sp.set_bytes(batch.len() as u64);
        }
        let entries = std::mem::take(batch);
        *batch = if awaited {
            self.ring.submit_awaited(entries)?
        } else {
            self.ring.submit(entries)?
        };
        Ok(())
    }

    /// Collects every speculative completion submitted up to and including
    /// `through`, keeping current-epoch results, bytes and all, on their
    /// records. The ring is drained in order, so after a blocking
    /// completion of id N everything below N is already posted and stamped
    /// no later: run with `through` below such an N this neither waits nor
    /// moves the clock.
    fn reap(&self, state: &mut DriverState, through: u64) -> afs_ipc::Result<()> {
        let mut at = state
            .readahead
            .iter()
            .take_while(|s| s.landed.is_some())
            .count();
        while let Some(spec) = state.readahead.get(at).filter(|s| s.id <= through) {
            let current = spec.epoch == state.epoch;
            let cqe = self.ring.complete(spec.id)?;
            let bytes = cqe.data.unwrap_or_default();
            // A stale epoch or a speculative failure is dropped: the
            // unbatched wiring never issued this read, so its outcome
            // must not become application-visible.
            if matches!(cqe.reply, OpReply::Read { .. }) && current {
                state.readahead[at].landed = Some(bytes);
                at += 1;
            } else {
                state.readahead.remove(at);
                state.spare.put(bytes);
            }
        }
        // A replay may have run while those drained.
        self.sync_heal_generation(state);
        Ok(())
    }

    /// Submits the batch and blocks for the completion of its entry `id`:
    /// the reply plus any produced bytes.
    fn roundtrip(&self, state: &mut DriverState, id: u64) -> Completed {
        self.submit(&mut state.batch, true)?;
        let cqe = self.ring.complete(id)?;
        self.reap(state, id)?;
        Ok((cqe.reply, cqe.data))
    }

    /// Serves a demand read, `frame`: from the readahead when the exact
    /// span was speculated (zero new crossings), otherwise with one batch
    /// of staged writes + the demand read + sequential speculative reads
    /// in the demand's session and trace, filling what its session's own
    /// staged entries leave of the ring depth. A miss retires every
    /// earlier speculation, so at most one batch's are ever kept.
    fn demand_read(&self, state: &mut DriverState, frame: Framed<Op>) -> Completed {
        let Op::Read { offset, len } = frame.body else {
            unreachable!("a demand read is a read");
        };
        self.sync_heal_generation(state);
        // The span may still be in flight. Waiting for its whole batch —
        // never submitting it again, never peeking at what has landed —
        // is what keeps crossings and virtual time independent of how
        // fast the sentinel happened to run.
        let epoch = state.epoch;
        let span = |s: &Speculation| (s.offset, s.len, s.epoch) == (offset, len, epoch);
        let awaited = state
            .readahead
            .iter()
            .find(|s| s.landed.is_none() && span(s));
        if let Some(tail) = awaited.map(|s| s.tail) {
            self.reap(state, tail)?;
        }
        if let Some(at) = state
            .readahead
            .iter()
            .position(|s| s.landed.is_some() && span(s))
        {
            let data = state.readahead.remove(at).landed.unwrap_or_default();
            self.gauges.readahead_hit();
            let n = data.len() as u32;
            return Ok((OpReply::Read { n }, Some(data)));
        }
        state.retire();
        let Framed { session, trace, .. } = frame;
        let room = match len {
            0 => 0,
            _ => self
                .ring
                .depth()
                .saturating_sub(state.staged.held(session) + 1),
        };
        state.flush_staged(None);
        let demand = state.push(frame);
        let tail = demand + room as u64;
        let mut next = offset + u64::from(len);
        for _ in 0..room {
            let body = Op::Read { offset: next, len };
            let id = state.push(Framed {
                session,
                trace,
                body,
            });
            state.readahead.push(Speculation {
                id,
                offset: next,
                len,
                epoch: state.epoch,
                tail,
                landed: None,
            });
            next += u64::from(len);
        }
        self.roundtrip(state, demand)
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
            state.retire();
        }
        state.flush_staged(None);
        let id = state.push(frame);
        self.roundtrip(state, id)
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
        state.retire();
        let session = frame.session;
        if !state.staged.merge(&frame, payload) {
            let buf = state.spare.take_capacity(payload.len());
            state.staged.push(frame, buf, payload);
        }
        if state.staged.held(session) >= self.ring.depth() {
            state.flush_staged(Some(session));
            self.submit(&mut state.batch, false)?;
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
            state.flush_staged(None);
            return self
                .submit(&mut state.batch, false)
                .map(|()| (OpReply::Done, 0));
        }
        let completed = match frame.body {
            Op::Read { .. } => self.demand_read(&mut state, frame),
            _ => self.sync_roundtrip(&mut state, frame),
        };
        if close {
            state.sessions.reap();
        }
        let (reply, data) = completed?;
        let delivered = deliver(reply, data.as_deref(), into);
        if let Some(bytes) = data {
            state.spare.put(bytes);
        }
        delivered
    }
}

/// An abandoned handle (dropped without `CloseHandle`) still owes the
/// sentinel the writes it acknowledged: they go out before the ring's own
/// drop closes it. A sentinel that is already gone is ignored.
impl Drop for RingDriver {
    fn drop(&mut self) {
        let state = self.state.get_mut();
        state.flush_staged(None);
        let mut batch = std::mem::take(&mut state.batch);
        let _ = self.submit(&mut batch, false);
    }
}

#[cfg(test)]
mod tests {
    use afs_ipc::RingPair;
    use afs_sim::SimRng;
    use afs_telemetry::TraceContext;

    use super::*;
    use crate::ctx::SentinelCtx;
    use crate::logic::{SentinelLogic, SentinelResult};
    use crate::strategy::dispatch::tests::{instruments, probe_ctx};
    use crate::strategy::dispatch::{Joiners, SentinelLoop, PRIVATE_SESSION};

    const DEPTH: usize = 8;
    const BLOCK: u32 = 128;
    /// The span the reads fall in, 1 MiB.
    const SPAN: u64 = 1 << 20;

    /// Fills every read with the low byte of its block number.
    struct Blocks;

    impl SentinelLogic for Blocks {
        fn read(
            &mut self,
            _: &mut SentinelCtx,
            offset: u64,
            buf: &mut [u8],
        ) -> SentinelResult<usize> {
            buf.fill((offset / u64::from(BLOCK)) as u8);
            Ok(buf.len())
        }

        fn write(&mut self, _: &mut SentinelCtx, _: u64, data: &[u8]) -> SentinelResult<usize> {
            Ok(data.len())
        }
    }

    /// A driver over a depth-`DEPTH` ring to a [`Blocks`] loop, and the
    /// instruments whose executor runs the loop.
    fn driver() -> (RingDriver, Instruments) {
        let instr = instruments();
        let (ring, port) = RingPair::shared(instr.model.clone(), DEPTH);
        let logic = Box::new(Blocks);
        let staging = FreeList::default();
        let exit = SentinelLoop::spawn(
            &instr,
            logic,
            probe_ctx(),
            port,
            Joiners::default(),
            staging,
        );
        (RingDriver::new(ring, &instr, Arc::default(), exit), instr)
    }

    fn read(driver: &RingDriver, offset: u64) {
        let body = Op::Read { offset, len: BLOCK };
        let frame = Framed {
            session: PRIVATE_SESSION,
            trace: TraceContext::default(),
            body,
        };
        let mut buf = [0u8; BLOCK as usize];
        let (reply, n) = driver.call(frame, &mut buf).expect("read");
        assert_eq!((reply, n), (OpReply::Read { n: BLOCK }, BLOCK as usize));
        assert_eq!(buf, [(offset / u64::from(BLOCK)) as u8; BLOCK as usize]);
    }

    /// How many speculations the driver holds landed, and in all.
    fn held(driver: &RingDriver) -> (usize, usize) {
        let state = driver.state.lock();
        let landed = state
            .readahead
            .iter()
            .filter(|s| s.landed.is_some())
            .count();
        (landed, state.readahead.len())
    }

    #[test]
    fn random_reads_keep_at_most_one_batch_of_readahead() {
        let (driver, _instr) = driver();
        let mut rng = SimRng::new(7);
        let mut most = (0, 0);
        for _ in 0..400 {
            read(
                &driver,
                rng.next_below(SPAN / u64::from(BLOCK)) * u64::from(BLOCK),
            );
            let (landed, all) = held(&driver);
            most = (most.0.max(landed), most.1.max(all));
        }
        assert!(most.0 < DEPTH, "{} landed speculations held", most.0);
        assert!(most.1 <= 2 * (DEPTH - 1), "{} speculations listed", most.1);
    }

    #[test]
    fn sequential_reads_still_hit_the_readahead() {
        let (driver, _instr) = driver();
        let hits = || driver.gauges.snapshot().readahead_hits;
        let before = hits();
        for block in 0..8 * DEPTH as u64 {
            read(&driver, block * u64::from(BLOCK));
        }
        assert_eq!(hits() - before, 7 * 8, "seven of every eight reads hit");
        assert_eq!(held(&driver), (0, 0), "every speculation was consumed");
    }
}
