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
//! * **Coalesced writes** — write-behind staging merges adjacent writes
//!   into one submission entry with no window cap (beyond the mux
//!   layer's adjacent-only 64 KiB coalescing) and flushes when the ring
//!   depth is reached or a synchronous op needs ordering. The entry keeps
//!   the trace context of the first write it merged.
//! * **Readahead** — a demand read that misses the speculative cache
//!   submits itself plus sequential speculative reads to fill the batch,
//!   all under the demand read's trace context; later sequential reads
//!   are served from its completions with zero new crossings.
//! * **Scatter/gather spans** — `ReadFileScatter` rides the ring as one
//!   entry, flushing staged writes ahead of itself in the same crossing.
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

use afs_ipc::{Framed, IpcError, RingTransport, Sqe};
use afs_sim::CrossingKind;
use afs_telemetry::{Layer, RingGauges, Telemetry, TraceContext};

use crate::strategy::handle::{deliver, private_frame, AppPort};
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

/// Mutable staging state of one [`RingDriver`], serialised by the
/// strategy handle (and a mutex here, taken once per operation, for
/// `&self` methods).
#[derive(Debug, Default)]
struct DriverState {
    /// Next submission id (monotonic; completions key off it).
    next_id: u64,
    /// Write-behind submissions staged since the last doorbell.
    staged: Vec<Sqe<Framed<Op>>>,
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

/// What a completed submission came back with: the reply and any bytes
/// it produced.
type Completed = afs_ipc::Result<(OpReply, Option<Vec<u8>>)>;

/// The application side of a batched wiring: an [`AppPort`] whose
/// operations stage into a submission ring. Crossing charges happen in
/// [`RingTransport::submit`] — once per batch — so
/// `charges_own_crossings` tells the strategy handle to skip its own
/// per-op round-trip charge.
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
    ) -> Self {
        RingDriver {
            ring,
            state: Mutex::new(DriverState::default()),
            tel: Arc::clone(&instr.tel),
            strategy: instr.strategy,
            gauges: Arc::clone(instr.tel.rings()),
            heal_gen,
        }
    }

    fn next_id(state: &mut DriverState) -> u64 {
        state.next_id += 1;
        state.next_id
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

    /// Stages one write submission under its op's `trace`, merging it
    /// into the previous staged write when byte-adjacent (no window cap),
    /// and flushes the staged batch once it reaches the ring depth.
    fn stage_write(
        &self,
        state: &mut DriverState,
        offset: u64,
        trace: TraceContext,
        payload: Vec<u8>,
    ) -> afs_ipc::Result<()> {
        // Contents are changing: speculative results issued before this
        // write no longer reflect the file the unbatched wiring would
        // read.
        state.epoch += 1;
        state.cache.clear();
        let coalesced = match state.staged.last_mut() {
            Some(Sqe {
                cmd:
                    Framed {
                        body: Op::Write { offset: o, len },
                        ..
                    },
                payload: Some(buf),
                ..
            }) if *o + u64::from(*len) == offset => {
                buf.extend_from_slice(&payload);
                *len += payload.len() as u32;
                true
            }
            _ => false,
        };
        if !coalesced {
            let id = Self::next_id(state);
            let len = payload.len() as u32;
            state.staged.push(Sqe {
                id,
                cmd: private_frame(Op::Write { offset, len }, trace),
                payload: Some(payload),
            });
        }
        if state.staged.len() >= self.ring.depth() {
            let batch = std::mem::take(&mut state.staged);
            self.submit(batch, false)?;
        }
        Ok(())
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

    /// Serves a demand read under its op's `trace`: from the
    /// readahead when the exact span was speculated (zero new crossings),
    /// otherwise with one batch of staged writes + the demand read +
    /// sequential speculative reads.
    fn demand_read(
        &self,
        state: &mut DriverState,
        offset: u64,
        len: u32,
        trace: TraceContext,
    ) -> Completed {
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
        let mut batch = std::mem::take(&mut state.staged);
        let demand = Self::next_id(state);
        batch.push(Sqe {
            id: demand,
            cmd: private_frame(Op::Read { offset, len }, trace),
            payload: None,
        });
        if len > 0 {
            let tail = demand + (self.ring.depth().saturating_sub(batch.len())) as u64;
            let mut next = offset + u64::from(len);
            while batch.len() < self.ring.depth() {
                let id = Self::next_id(state);
                batch.push(Sqe {
                    id,
                    cmd: private_frame(Op::Read { offset: next, len }, trace),
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
        }
        self.roundtrip(state, batch, demand)
    }

    /// Runs one synchronous command under its op's `trace` through
    /// the ring: staged writes flush ahead of it in the same crossing.
    fn sync_roundtrip(&self, state: &mut DriverState, op: Op, trace: TraceContext) -> Completed {
        self.sync_heal_generation(state);
        if matches!(op, Op::Control { .. } | Op::ReadScatter { .. } | Op::Flush) {
            // Controls can mutate sentinel state; scatter reads advance
            // shared context; flush seals durable batches. All invalidate
            // speculation.
            state.epoch += 1;
            state.cache.clear();
        }
        let mut batch = std::mem::take(&mut state.staged);
        let id = Self::next_id(state);
        batch.push(Sqe {
            id,
            cmd: private_frame(op, trace),
            payload: None,
        });
        self.roundtrip(state, batch, id)
    }
}

impl std::fmt::Debug for RingDriver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RingDriver")
            .field("strategy", &self.strategy)
            .field("depth", &self.ring.depth())
            .finish_non_exhaustive()
    }
}

impl AppPort for RingDriver {
    fn crossing(&self) -> CrossingKind {
        self.ring.crossing()
    }

    fn charges_own_crossings(&self) -> bool {
        true
    }

    fn post(&self, op: Op, trace: TraceContext, payload: &[u8]) -> afs_ipc::Result<()> {
        let Op::Write { offset, .. } = op else {
            return Err(IpcError::Unsupported);
        };
        self.stage_write(&mut self.state.lock(), offset, trace, payload.to_vec())
    }

    fn call(
        &self,
        op: Op,
        trace: TraceContext,
        into: &mut [u8],
    ) -> afs_ipc::Result<(OpReply, usize)> {
        let mut state = self.state.lock();
        let (reply, data) = match op {
            Op::Read { offset, len } => self.demand_read(&mut state, offset, len, trace),
            op => self.sync_roundtrip(&mut state, op, trace),
        }?;
        deliver(reply, data.as_deref(), into)
    }
}

/// An abandoned handle (dropped without `CloseHandle`) still owes the
/// sentinel the writes it acknowledged: they go out before the ring's own
/// drop closes it. A sentinel that is already gone is ignored.
impl Drop for RingDriver {
    fn drop(&mut self) {
        let batch = std::mem::take(&mut self.state.get_mut().staged);
        let _ = self.submit(batch, false);
    }
}
