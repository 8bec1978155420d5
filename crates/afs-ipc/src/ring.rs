//! Submission/completion rings: crossing the protection boundary once per
//! *batch* instead of once per operation.
//!
//! The paper's §4 cost model charges every operation a full round trip —
//! two domain crossings — because the prototype's wirings carry exactly
//! one command at a time. This module adds an io_uring-style pair of
//! rings over the same substrates: the application enqueues K submission
//! entries ([`Sqe`]) and rings the doorbell once, paying one doorbell plus
//! one round trip of crossings *for the whole batch*; the sentinel drains
//! the submission ring in order and completes out of order through a
//! completion index keyed by submission id ([`Cqe`]).
//!
//! Charging is honest with respect to the unbatched wirings:
//!
//! * **Submit** (application side): one doorbell — syscall + pipe message
//!   across a process boundary, one event signal inside the process
//!   (Appendix A.3) — plus `round_trip_switches()` crossings, *per batch*;
//!   and one user-level copy per payload byte carried by the batch, the
//!   same single copy §4.3 charges per transfer.
//! * **Drain** (sentinel side): observing an entry across a kernel
//!   boundary costs the syscall a blocking receive would have cost;
//!   draining the user-level ring is free, exactly like
//!   [`ControlReceiver::poll_recv`](crate::control::ControlReceiver).
//! * **Complete**: posting read data charges the sentinel the single
//!   user-level copy into the completion area; the application's
//!   [`RingTransport::complete`] synchronises its virtual clock to the
//!   completion stamp and charges nothing — the return crossing was
//!   prepaid at submit.
//!
//! So a K-op batch costs 1 doorbell + 2 crossings where the unbatched
//! wiring costs K doorbells + 2K crossings: crossings-per-op drop ~K× on
//! workloads that batch well (the `ablation_batch` bench cell).

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

use afs_sim::{clock, Cost, CostModel, CrossingKind, SimTime};
use afs_telemetry::RingGauges;

use crate::control::ChannelWaker;
use crate::{IpcError, Result};

/// One submission-ring entry: a typed command plus its optional payload
/// bytes (a write's data rides its entry, so the whole batch lands in one
/// crossing), keyed by a submission id the completion comes back under.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sqe<C> {
    /// Submission id; the matching [`Cqe`] carries the same id.
    pub id: u64,
    /// The command.
    pub cmd: C,
    /// Payload bytes consumed by the command (e.g. a write's data), if
    /// any.
    pub payload: Option<Vec<u8>>,
}

/// One completion-ring entry: the reply to the submission with the same
/// id, plus any produced bytes (e.g. a read's data).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cqe<R> {
    /// The id of the submission this completes.
    pub id: u64,
    /// The typed reply.
    pub reply: R,
    /// Bytes produced by the command (e.g. read data), if any.
    pub data: Option<Vec<u8>>,
}

#[derive(Default)]
struct WakerCell(Option<ChannelWaker>);

impl std::fmt::Debug for WakerCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.0.is_some() {
            "WakerCell(set)"
        } else {
            "WakerCell(unset)"
        })
    }
}

/// How the doorbell is charged: across a kernel/process boundary or via
/// user-level events and shared memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RingKind {
    Kernel,
    UserLevel,
}

#[derive(Debug)]
struct RingState<C, R> {
    /// Submission entries in flight, oldest first, each stamped with the
    /// submitter's virtual clock.
    sq: VecDeque<(Sqe<C>, SimTime)>,
    /// The completion index: out-of-order completions park here until the
    /// application harvests them by id.
    cq: HashMap<u64, (Cqe<R>, SimTime)>,
    /// Highest id posted so far; a later post with a smaller id completed
    /// out of submission order (the gauge the bench panel reports).
    max_posted: Option<u64>,
    app_alive: bool,
    sentinel_alive: bool,
    waker: WakerCell,
}

#[derive(Debug)]
struct Inner<C, R> {
    model: CostModel,
    kind: RingKind,
    crossing: CrossingKind,
    depth: usize,
    state: Mutex<RingState<C, R>>,
    /// Signalled on every completion post and on sentinel teardown.
    completed: Condvar,
    gauges: Option<Arc<RingGauges>>,
}

/// Factory for submission/completion ring pairs.
#[derive(Debug)]
pub struct RingPair;

impl RingPair {
    /// Builds a ring crossing a process boundary (§4.2 substrate): the
    /// doorbell costs one syscall plus the pipe-message overhead, and each
    /// batch pays two process switches.
    pub fn kernel<C: Send, R: Send>(
        model: CostModel,
        depth: usize,
    ) -> (RingTransport<C, R>, RingPort<C, R>) {
        Self::build(model, depth, RingKind::Kernel, None)
    }

    /// Builds a ring inside the process over shared memory (§4.3
    /// substrate): the doorbell costs one event signal, and each batch
    /// pays two thread switches.
    pub fn shared<C: Send, R: Send>(
        model: CostModel,
        depth: usize,
    ) -> (RingTransport<C, R>, RingPort<C, R>) {
        Self::build(model, depth, RingKind::UserLevel, None)
    }

    /// Like [`RingPair::kernel`], but reports batch sizes, occupancy, and
    /// completion ordering to `gauges`.
    pub fn kernel_observed<C: Send, R: Send>(
        model: CostModel,
        depth: usize,
        gauges: Arc<RingGauges>,
    ) -> (RingTransport<C, R>, RingPort<C, R>) {
        Self::build(model, depth, RingKind::Kernel, Some(gauges))
    }

    /// Like [`RingPair::shared`], but reports batch sizes, occupancy, and
    /// completion ordering to `gauges`.
    pub fn shared_observed<C: Send, R: Send>(
        model: CostModel,
        depth: usize,
        gauges: Arc<RingGauges>,
    ) -> (RingTransport<C, R>, RingPort<C, R>) {
        Self::build(model, depth, RingKind::UserLevel, Some(gauges))
    }

    fn build<C: Send, R: Send>(
        model: CostModel,
        depth: usize,
        kind: RingKind,
        gauges: Option<Arc<RingGauges>>,
    ) -> (RingTransport<C, R>, RingPort<C, R>) {
        let crossing = match kind {
            RingKind::Kernel => CrossingKind::InterProcess,
            RingKind::UserLevel => CrossingKind::InterThread,
        };
        let inner = Arc::new(Inner {
            model,
            kind,
            crossing,
            depth: depth.max(1),
            state: Mutex::new(RingState {
                sq: VecDeque::new(),
                cq: HashMap::new(),
                max_posted: None,
                app_alive: true,
                sentinel_alive: true,
                waker: WakerCell(None),
            }),
            completed: Condvar::new(),
            gauges,
        });
        (
            RingTransport {
                inner: Arc::clone(&inner),
            },
            RingPort { inner },
        )
    }
}

/// The application side of a ring pair: batch submission plus completion
/// harvesting by submission id.
#[derive(Debug)]
pub struct RingTransport<C: Send, R: Send> {
    inner: Arc<Inner<C, R>>,
}

impl<C: Send, R: Send> RingTransport<C, R> {
    /// The ring depth the pair was built with — the batching policy's K.
    pub fn depth(&self) -> usize {
        self.inner.depth
    }

    /// The boundary a batch crosses.
    pub fn crossing(&self) -> CrossingKind {
        self.inner.crossing
    }

    /// Submits `batch` in order and rings the doorbell once: one doorbell
    /// charge, one round trip of crossings, and one user-level copy per
    /// payload byte — for the whole batch.
    ///
    /// # Errors
    ///
    /// [`IpcError::BrokenPipe`] once the sentinel side is gone.
    pub fn submit(&self, batch: Vec<Sqe<C>>) -> Result<()> {
        if batch.is_empty() {
            return Ok(());
        }
        let inner = &*self.inner;
        match inner.kind {
            RingKind::Kernel => {
                inner.model.charge(Cost::Syscall);
                inner.model.charge(Cost::PipeMessage);
            }
            RingKind::UserLevel => {
                inner.model.charge(Cost::EventSignal);
            }
        }
        for _ in 0..inner.crossing.round_trip_switches() {
            inner.model.charge(Cost::Crossing(inner.crossing));
        }
        for sqe in &batch {
            if let Some(payload) = &sqe.payload {
                if !payload.is_empty() {
                    inner.model.charge(Cost::Memcpy {
                        bytes: payload.len(),
                    });
                }
            }
        }
        let stamp = clock::now();
        let ops = batch.len() as u64;
        let mut state = inner.state.lock();
        if !state.sentinel_alive {
            return Err(IpcError::BrokenPipe);
        }
        for sqe in batch {
            state.sq.push_back((sqe, stamp));
        }
        if let Some(g) = &inner.gauges {
            g.batch_submitted(ops, state.sq.len() as u64);
        }
        let waker = state.waker.0.clone();
        drop(state);
        if let Some(wake) = waker {
            wake();
        }
        Ok(())
    }

    /// Blocks until the completion for `id` is posted, synchronising the
    /// caller's virtual clock to the completion stamp. The return crossing
    /// was prepaid at submit, so nothing further is charged.
    ///
    /// # Errors
    ///
    /// [`IpcError::Closed`] if the sentinel dies before posting `id`.
    pub fn complete(&self, id: u64) -> Result<Cqe<R>> {
        let inner = &*self.inner;
        let mut state = inner.state.lock();
        loop {
            if let Some((cqe, stamp)) = state.cq.remove(&id) {
                clock::sync_to(stamp);
                return Ok(cqe);
            }
            if !state.sentinel_alive {
                return Err(IpcError::Closed);
            }
            inner.completed.wait(&mut state);
        }
    }

    /// Tears the application side down: the sentinel's next drain observes
    /// closure (after the remaining submissions).
    pub fn shutdown(&self) {
        let mut state = self.inner.state.lock();
        state.app_alive = false;
        let waker = state.waker.0.clone();
        drop(state);
        if let Some(wake) = waker {
            wake();
        }
    }
}

impl<C: Send, R: Send> Drop for RingTransport<C, R> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The sentinel side of a ring pair: drains submissions in order, posts
/// completions in any order.
#[derive(Debug)]
pub struct RingPort<C: Send, R: Send> {
    inner: Arc<Inner<C, R>>,
}

impl<C: Send, R: Send> RingPort<C, R> {
    /// Pops the next submission if one is queued; never blocks. Observing
    /// an entry (or ring closure) across a kernel boundary charges the
    /// syscall a blocking receive would have; an empty poll, and any drain
    /// of a user-level ring, charges nothing.
    ///
    /// # Errors
    ///
    /// [`IpcError::Closed`] once the application side is gone and the
    /// submission ring is drained.
    pub fn poll_sqe(&self) -> Result<Option<Sqe<C>>> {
        let inner = &*self.inner;
        let mut state = inner.state.lock();
        if state.sq.is_empty() && state.app_alive {
            return Ok(None);
        }
        if inner.kind == RingKind::Kernel {
            inner.model.charge(Cost::Syscall);
        }
        match state.sq.pop_front() {
            Some((sqe, stamp)) => {
                clock::sync_to(stamp);
                Ok(Some(sqe))
            }
            None => Err(IpcError::Closed),
        }
    }

    /// Posts one completion into the index, charging the single user-level
    /// copy for any produced bytes, and wakes harvesters.
    ///
    /// # Errors
    ///
    /// [`IpcError::BrokenPipe`] once the application side is gone.
    pub fn post(&self, cqe: Cqe<R>) -> Result<()> {
        let inner = &*self.inner;
        if let Some(data) = &cqe.data {
            if !data.is_empty() {
                inner.model.charge(Cost::Memcpy { bytes: data.len() });
            }
        }
        let stamp = clock::now();
        let mut state = inner.state.lock();
        if !state.app_alive {
            return Err(IpcError::BrokenPipe);
        }
        let out_of_order = state.max_posted.is_some_and(|m| cqe.id < m);
        state.max_posted = Some(state.max_posted.map_or(cqe.id, |m| m.max(cqe.id)));
        if let Some(g) = &inner.gauges {
            g.completed(out_of_order);
        }
        state.cq.insert(cqe.id, (cqe, stamp));
        inner.completed.notify_all();
        Ok(())
    }

    /// Installs a readiness waker, invoked on every doorbell and when the
    /// application side shuts down. The sentinel executor parks on this.
    pub fn set_wakeup(&self, waker: ChannelWaker) {
        self.inner.state.lock().waker.0 = Some(waker);
    }

    /// The ring depth the pair was built with.
    pub fn depth(&self) -> usize {
        self.inner.depth
    }
}

impl<C: Send, R: Send> Drop for RingPort<C, R> {
    fn drop(&mut self) {
        let mut state = self.inner.state.lock();
        state.sentinel_alive = false;
        drop(state);
        self.inner.completed.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afs_sim::HardwareProfile;

    fn sqe(id: u64, cmd: u32) -> Sqe<u32> {
        Sqe {
            id,
            cmd,
            payload: None,
        }
    }

    #[test]
    fn batch_drains_in_submission_order() {
        let (app, port) = RingPair::shared::<u32, u32>(CostModel::free(), 8);
        app.submit((0..5).map(|i| sqe(i, i as u32 * 10)).collect())
            .expect("submit");
        for i in 0..5 {
            let e = port.poll_sqe().expect("poll").expect("entry");
            assert_eq!(e.id, i);
            assert_eq!(e.cmd, i as u32 * 10);
        }
        assert_eq!(port.poll_sqe().expect("drained"), None);
    }

    #[test]
    fn completions_index_by_id_regardless_of_post_order() {
        let (app, port) = RingPair::shared::<u32, u32>(CostModel::free(), 8);
        app.submit(vec![sqe(1, 0), sqe(2, 0), sqe(3, 0)])
            .expect("submit");
        // Complete in reverse order.
        for id in [3u64, 2, 1] {
            port.post(Cqe {
                id,
                reply: id as u32 * 100,
                data: None,
            })
            .expect("post");
        }
        for id in [1u64, 2, 3] {
            let cqe = app.complete(id).expect("complete");
            assert_eq!(cqe.reply, id as u32 * 100);
        }
    }

    #[test]
    fn out_of_order_completion_under_seeded_interleaving() {
        // A scripted sentinel drains a batch and posts completions in an
        // order shuffled by a seeded LCG; the application harvests in
        // submission order and must still see each id's own reply.
        let gauges = Arc::new(RingGauges::default());
        let (app, port) =
            RingPair::shared_observed::<u32, u64>(CostModel::free(), 16, Arc::clone(&gauges));
        const N: u64 = 16;
        app.submit((0..N).map(|i| sqe(i, i as u32)).collect())
            .expect("submit");
        let t = std::thread::spawn(move || {
            let mut drained = Vec::new();
            while let Ok(Some(e)) = port.poll_sqe() {
                drained.push(e);
            }
            assert_eq!(drained.len(), N as usize);
            // Deterministic shuffle (LCG seeded by a fixed constant).
            let mut rng = 0x2545_F491u64;
            for i in (1..drained.len()).rev() {
                rng = rng
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let j = (rng >> 33) as usize % (i + 1);
                drained.swap(i, j);
            }
            for e in drained {
                port.post(Cqe {
                    id: e.id,
                    reply: u64::from(e.cmd) * 7,
                    data: Some(vec![e.id as u8; 3]),
                })
                .expect("post");
            }
        });
        for id in 0..N {
            let cqe = app.complete(id).expect("complete");
            assert_eq!(cqe.reply, id * 7, "reply routed to the right id");
            assert_eq!(cqe.data, Some(vec![id as u8; 3]));
        }
        t.join().expect("join");
        let snap = gauges.snapshot();
        assert_eq!(snap.ops_submitted, N);
        assert_eq!(snap.batches, 1);
        assert_eq!(snap.completions, N);
        assert!(
            snap.completions_out_of_order > 0,
            "the seeded shuffle must produce at least one inversion"
        );
    }

    #[test]
    fn submit_charges_one_doorbell_and_one_round_trip_per_batch() {
        let model = CostModel::new(HardwareProfile::pentium_ii_300());
        let (app, _port) = RingPair::shared::<u32, u32>(model.clone(), 8);
        let before = model.snapshot();
        app.submit((0..6).map(|i| sqe(i, 0)).collect())
            .expect("submit");
        let d = model.snapshot().since(&before);
        assert_eq!(d.event_signals, 1, "one doorbell for six ops");
        assert_eq!(d.thread_switches, 2, "one round trip for six ops");
        assert_eq!(d.syscalls, 0);
    }

    #[test]
    fn kernel_ring_charges_pipe_doorbell_and_process_switches() {
        let model = CostModel::new(HardwareProfile::pentium_ii_300());
        let (app, port) = RingPair::kernel::<u32, u32>(model.clone(), 8);
        let before = model.snapshot();
        app.submit(vec![sqe(0, 0), sqe(1, 0)]).expect("submit");
        let d = model.snapshot().since(&before);
        assert_eq!((d.syscalls, d.pipe_messages, d.process_switches), (1, 1, 2));
        // Observing each entry costs the recv-side syscall, like poll_cmd.
        let before = model.snapshot();
        port.poll_sqe().expect("poll").expect("entry");
        assert_eq!(model.snapshot().since(&before).syscalls, 1);
    }

    #[test]
    fn payload_and_data_charge_the_single_user_copy() {
        let model = CostModel::new(HardwareProfile::pentium_ii_300());
        let (app, port) = RingPair::shared::<u32, u32>(model.clone(), 8);
        let before = model.snapshot();
        app.submit(vec![Sqe {
            id: 1,
            cmd: 0,
            payload: Some(vec![0u8; 100]),
        }])
        .expect("submit");
        assert_eq!(model.snapshot().since(&before).memcpy_bytes, 100);
        port.poll_sqe().expect("poll").expect("entry");
        let before = model.snapshot();
        port.post(Cqe {
            id: 1,
            reply: 0,
            data: Some(vec![0u8; 40]),
        })
        .expect("post");
        assert_eq!(model.snapshot().since(&before).memcpy_bytes, 40);
    }

    #[test]
    fn app_shutdown_closes_the_port_after_the_backlog() {
        let (app, port) = RingPair::shared::<u32, u32>(CostModel::free(), 4);
        app.submit(vec![sqe(9, 1)]).expect("submit");
        drop(app);
        assert!(port.poll_sqe().expect("backlog").is_some());
        assert_eq!(port.poll_sqe(), Err(IpcError::Closed));
        assert_eq!(
            port.post(Cqe {
                id: 9,
                reply: 0,
                data: None
            }),
            Err(IpcError::BrokenPipe)
        );
    }

    #[test]
    fn port_death_fails_submit_and_pending_complete() {
        let (app, port) = RingPair::shared::<u32, u32>(CostModel::free(), 4);
        app.submit(vec![sqe(1, 0)]).expect("submit");
        drop(port);
        assert_eq!(app.submit(vec![sqe(2, 0)]), Err(IpcError::BrokenPipe));
        assert_eq!(app.complete(1), Err(IpcError::Closed));
    }

    #[test]
    fn waker_fires_on_doorbell_and_on_app_shutdown() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let (app, port) = RingPair::shared::<u32, u32>(CostModel::free(), 4);
        let fired = Arc::new(AtomicUsize::new(0));
        let observer = Arc::clone(&fired);
        port.set_wakeup(Arc::new(move || {
            observer.fetch_add(1, Ordering::SeqCst);
        }));
        app.submit(vec![sqe(1, 0), sqe(2, 0)]).expect("submit");
        assert_eq!(fired.load(Ordering::SeqCst), 1, "one wake per batch");
        drop(app);
        assert_eq!(fired.load(Ordering::SeqCst), 2, "closure wakes too");
    }

    #[test]
    fn timestamps_propagate_across_the_ring() {
        let model = CostModel::new(HardwareProfile::pentium_ii_300());
        let (app, port) = RingPair::shared::<u32, u32>(model, 4);
        std::thread::spawn(move || {
            let _g = clock::install(7_000_000);
            app.submit(vec![sqe(1, 0)]).expect("submit");
            // Keep the app side alive until the port drains.
            std::mem::forget(app);
        })
        .join()
        .expect("join");
        let _g = clock::install(0);
        port.poll_sqe().expect("poll").expect("entry");
        assert!(clock::now() >= 7_000_000);
    }

    #[test]
    fn empty_batch_submits_nothing_and_charges_nothing() {
        let model = CostModel::new(HardwareProfile::pentium_ii_300());
        let (app, port) = RingPair::shared::<u32, u32>(model.clone(), 4);
        let before = model.snapshot();
        app.submit(Vec::new()).expect("empty");
        assert_eq!(model.snapshot().since(&before), CostSnapshot::default());
        assert_eq!(port.poll_sqe().expect("empty"), None);
    }

    use afs_sim::CostSnapshot;
}
