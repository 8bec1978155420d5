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
//! The submission ring is a [`ControlChannel`] of entries — the same
//! stamped, unbounded, waker-driven FIFO — that a batch enters under one
//! doorbell and one stamp. The completion index is not a FIFO (it is
//! harvested by id), so it keeps its own short list, scanned by id, and
//! borrows only the stamped core's lock, condvar and receive rule. It
//! holds what its driver has submitted and not yet harvested, about two
//! batches, so a scan beats a hash; neither it nor the submission ring
//! allocates once it has grown to that.
//!
//! Charging is honest with respect to the unbatched wirings:
//!
//! * **Submit** (application side): one doorbell — syscall + pipe message
//!   across a process boundary, one event signal inside the process
//!   (Appendix A.3) — plus `round_trip_switches()` crossings, *per batch*.
//!   A payload's one user-level copy, the same single copy §4.3 charges
//!   per transfer, was charged when it was staged (see
//!   [`Stager`](crate::Stager)).
//! * **Drain** (sentinel side): observing an entry across a kernel
//!   boundary costs the syscall a blocking receive would have cost;
//!   draining the user-level ring is free, exactly like
//!   [`ControlReceiver::poll_recv`].
//! * **Complete**: posting read data charges the sentinel the single
//!   user-level copy into the completion area; the application's
//!   [`RingTransport::complete`] moves its virtual clock to the completion
//!   stamp and charges nothing — the return crossing was prepaid at
//!   submit.
//!
//! So a K-op batch costs 1 doorbell + 2 crossings where the unbatched
//! wiring costs K doorbells + 2K crossings: crossings-per-op drop ~K× on
//! workloads that batch well (the `ablation_batch` bench cell).

use std::sync::Arc;

use afs_sim::{clock, Cost, CostModel, CrossingKind, SimTime};
use afs_telemetry::RingGauges;

use crate::stamped::{Doorbell, Flow, Gauge, Signal};
use crate::{
    ChannelWaker, ControlChannel, ControlReceiver, ControlSender, FreeList, IpcError, Result,
};

/// One submission-ring entry: a typed command plus its optional payload
/// bytes (a write's data rides its entry, so the whole batch lands in one
/// crossing), keyed by a submission id the completion comes back under.
/// The core crate's command is a [`Framed`](crate::Framed) one, so each
/// entry carries the trace context of the op it serves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sqe<C> {
    /// Submission id; the matching [`Cqe`] carries the same id.
    pub id: u64,
    /// The command.
    pub cmd: C,
    /// Payload bytes consumed by the command (e.g. a write's data), if
    /// any. A command that consumes none may carry a spare buffer here
    /// instead, for the bytes it produces: a read's buffer travels to the
    /// sentinel in its entry and back in its [`Cqe`], as io_uring's
    /// provided buffers do, so a settled ring allocates nothing per read.
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

#[derive(Debug)]
struct Completions<R> {
    /// The completion index: out-of-order completions park here until the
    /// application harvests them by id. Short (about two batches), so it
    /// is scanned, not hashed.
    cq: Vec<(Cqe<R>, SimTime)>,
    /// Highest id posted so far; a later post with a smaller id completed
    /// out of submission order (the gauge the bench panel reports).
    max_posted: Option<u64>,
    app_alive: bool,
    sentinel_alive: bool,
}

#[derive(Debug)]
struct Shared<R> {
    model: CostModel,
    crossing: CrossingKind,
    depth: usize,
    completions: Signal<Completions<R>>,
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
        Self::build(model, depth, CrossingKind::InterProcess, None)
    }

    /// Builds a ring inside the process over shared memory (§4.3
    /// substrate): the doorbell costs one event signal, and each batch
    /// pays two thread switches.
    pub fn shared<C: Send, R: Send>(
        model: CostModel,
        depth: usize,
    ) -> (RingTransport<C, R>, RingPort<C, R>) {
        Self::build(model, depth, CrossingKind::InterThread, None)
    }

    /// Like [`RingPair::kernel`], but reports batch sizes, occupancy, and
    /// completion ordering to `gauges`.
    pub fn kernel_observed<C: Send, R: Send>(
        model: CostModel,
        depth: usize,
        gauges: Arc<RingGauges>,
    ) -> (RingTransport<C, R>, RingPort<C, R>) {
        Self::build(model, depth, CrossingKind::InterProcess, Some(gauges))
    }

    /// Like [`RingPair::shared`], but reports batch sizes, occupancy, and
    /// completion ordering to `gauges`.
    pub fn shared_observed<C: Send, R: Send>(
        model: CostModel,
        depth: usize,
        gauges: Arc<RingGauges>,
    ) -> (RingTransport<C, R>, RingPort<C, R>) {
        Self::build(model, depth, CrossingKind::InterThread, Some(gauges))
    }

    fn build<C: Send, R: Send>(
        model: CostModel,
        depth: usize,
        crossing: CrossingKind,
        gauges: Option<Arc<RingGauges>>,
    ) -> (RingTransport<C, R>, RingPort<C, R>) {
        let gauge = gauges.clone().map(|g| -> Gauge {
            Box::new(move |flow| {
                if let Flow::Sent { units, queued } = flow {
                    g.batch_submitted(units as u64, queued as u64);
                }
            })
        });
        let kernel = crossing == CrossingKind::InterProcess;
        let (sq_tx, sq_rx) = ControlChannel::over(model.clone(), kernel, gauge);
        let shared = Arc::new(Shared {
            model,
            crossing,
            depth: depth.max(1),
            completions: Signal::new(Completions {
                cq: Vec::new(),
                max_posted: None,
                app_alive: true,
                sentinel_alive: true,
            }),
            gauges,
        });
        (
            RingTransport {
                sq: sq_tx,
                shared: Arc::clone(&shared),
            },
            RingPort { sq: sq_rx, shared },
        )
    }
}

/// The application side of a ring pair: batch submission plus completion
/// harvesting by submission id.
#[derive(Debug)]
pub struct RingTransport<C: Send, R: Send> {
    sq: ControlSender<Sqe<C>>,
    shared: Arc<Shared<R>>,
}

impl<C: Send, R: Send> RingTransport<C, R> {
    /// The ring depth the pair was built with — the batching policy's K.
    pub fn depth(&self) -> usize {
        self.shared.depth
    }

    /// The boundary a batch crosses.
    pub fn crossing(&self) -> CrossingKind {
        self.shared.crossing
    }

    /// Submits `batch` in order and rings the doorbell once: one doorbell
    /// charge and one round trip of crossings for the whole batch. The
    /// entries are drained out of `batch`, and the `Vec` comes back empty
    /// with its capacity, for the caller's next batch.
    ///
    /// # Errors
    ///
    /// [`IpcError::BrokenPipe`] once the sentinel side is gone.
    pub fn submit(&self, batch: Vec<Sqe<C>>) -> Result<Vec<Sqe<C>>> {
        self.submit_to(batch, false, &mut FreeList::default())
    }

    /// Submits `batch` like [`submit`], and moves onto `spare` the buffers
    /// of the entries whose bytes the sentinel kept since the last doorbell
    /// (see [`RingPort::poll_next`]). `awaited`: the caller blocks on the
    /// batch's completions next and submits nothing meanwhile, so the
    /// sentinel may serve it on this thread (see
    /// [`Wake`](crate::control::Wake)): completions never wait on it.
    ///
    /// [`submit`]: RingTransport::submit
    ///
    /// # Errors
    ///
    /// As [`submit`](RingTransport::submit).
    pub fn submit_to(
        &self,
        mut batch: Vec<Sqe<C>>,
        awaited: bool,
        spare: &mut FreeList,
    ) -> Result<Vec<Sqe<C>>> {
        if !batch.is_empty() {
            let shared = &*self.shared;
            shared.model.charge_round_trip(shared.crossing);
            let doorbell = if awaited {
                Doorbell::Awaited
            } else {
                Doorbell::Post
            };
            self.sq
                .send_all(batch.len(), batch.drain(..), doorbell, Some(spare))?;
        }
        Ok(batch)
    }

    /// Blocks until the completion for `id` is posted, moving the caller's
    /// virtual clock to the completion stamp. The return crossing was
    /// prepaid at submit, so nothing further is charged.
    ///
    /// # Errors
    ///
    /// [`IpcError::Closed`] if the sentinel dies before posting `id`.
    pub fn complete(&self, id: u64) -> Result<Cqe<R>> {
        self.shared
            .completions
            .wait_take(|c| match c.cq.iter().position(|(cqe, _)| cqe.id == id) {
                Some(at) => {
                    let (cqe, stamp) = c.cq.swap_remove(at);
                    Some((Ok(cqe), stamp))
                }
                None => (!c.sentinel_alive).then_some((Err(IpcError::Closed), 0)),
            })
    }

    /// Tears the application side down: the sentinel's next drain observes
    /// closure (after the remaining submissions).
    pub fn shutdown(&self) {
        self.shared.completions.publish(|c| c.app_alive = false);
        self.sq.close();
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
    sq: ControlReceiver<Sqe<C>>,
    shared: Arc<Shared<R>>,
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
        let polled = self.poll_next(|_| false, &mut FreeList::default())?;
        Ok(polled.map(|(sqe, _)| sqe))
    }

    /// [`poll_sqe`](RingPort::poll_sqe), with whether the take left the
    /// open ring empty (see [`ControlReceiver::poll_recv`]). The take of an
    /// entry whose buffer the sentinel `keeps` (a write's bytes) pays the
    /// ring back from `staging`, for [`RingTransport::submit_to`].
    pub fn poll_next(
        &self,
        keeps: impl FnOnce(&Sqe<C>) -> bool,
        staging: &mut FreeList,
    ) -> Result<Option<(Sqe<C>, bool)>> {
        self.sq.poll_keeping(keeps, staging)
    }

    /// Posts one completion into the index, charging the single user-level
    /// copy for any produced bytes, and wakes harvesters.
    ///
    /// # Errors
    ///
    /// [`IpcError::BrokenPipe`] once the application side is gone.
    pub fn post(&self, cqe: Cqe<R>) -> Result<()> {
        let shared = &*self.shared;
        if let Some(data) = cqe.data.as_ref().filter(|data| !data.is_empty()) {
            shared.model.charge(Cost::Memcpy { bytes: data.len() });
        }
        let stamp = clock::now();
        shared.completions.publish(|c| {
            if !c.app_alive {
                return Err(IpcError::BrokenPipe);
            }
            let out_of_order = c.max_posted.is_some_and(|m| cqe.id < m);
            c.max_posted = Some(c.max_posted.map_or(cqe.id, |m| m.max(cqe.id)));
            if let Some(g) = &shared.gauges {
                g.completed(out_of_order);
            }
            c.cq.push((cqe, stamp));
            Ok(())
        })
    }

    /// Installs the readiness waker, once, invoked on every doorbell and when the
    /// application side shuts down. The sentinel executor parks on this.
    pub fn set_wakeup(&self, waker: ChannelWaker) {
        self.sq.set_waker(waker);
    }

    /// The ring depth the pair was built with.
    pub fn depth(&self) -> usize {
        self.shared.depth
    }
}

impl<C: Send, R: Send> Drop for RingPort<C, R> {
    fn drop(&mut self) {
        // Submissions fail before completions do: an application that saw
        // `complete` report the sentinel gone must not submit successfully
        // after it.
        self.sq.close();
        self.shared
            .completions
            .publish(|c| c.sentinel_alive = false);
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
            let polled = port.poll_next(|_| false, &mut FreeList::default());
            let (e, emptied) = polled.expect("poll").expect("entry");
            assert_eq!(e.id, i);
            assert_eq!(e.cmd, i as u32 * 10);
            assert_eq!(emptied, i == 4, "only the last take empties the ring");
        }
        assert_eq!(port.poll_sqe().expect("drained"), None);
    }

    #[test]
    fn a_submitted_batch_hands_its_vec_back_for_the_next() {
        let (app, port) = RingPair::shared::<u32, u32>(CostModel::free(), 8);
        let batch: Vec<_> = (0..4).map(|i| sqe(i, 0)).collect();
        let (capacity, at) = (batch.capacity(), batch.as_ptr());
        let batch = app
            .submit_to(batch, true, &mut FreeList::default())
            .expect("submit");
        assert!(batch.is_empty(), "the entries were drained into the ring");
        assert_eq!(
            (batch.capacity(), batch.as_ptr()),
            (capacity, at),
            "the same Vec"
        );
        for i in 0..4 {
            assert_eq!(port.poll_sqe().expect("poll").map(|e| e.id), Some(i));
        }
    }

    /// The take of an entry whose bytes the sentinel keeps pays it back
    /// with a spare from the sentinel's list, and the next doorbell
    /// collects it; an entry it does not keep is paid nothing.
    #[test]
    fn a_kept_entrys_buffer_comes_back_at_the_next_doorbell() {
        let (app, port) = RingPair::shared::<u32, u32>(CostModel::free(), 8);
        let (mut spare, mut staging) = (FreeList::default(), FreeList::default());
        let kept = |id| Sqe {
            id,
            cmd: 1,
            payload: Some(vec![7; 4]),
        };
        let batch = vec![kept(1), sqe(2, 0), kept(3)];
        app.submit_to(batch, false, &mut spare).expect("submit");
        let keeps = |e: &Sqe<u32>| e.cmd == 1;
        let take = |staging: &mut FreeList| port.poll_next(keeps, staging).expect("poll");
        let (first, _) = take(&mut staging).expect("first");
        let bytes = first.payload.expect("its bytes");
        let at = bytes.as_ptr();
        // Served: the sentinel keeps the bytes' buffer on its list.
        staging.put(bytes);
        take(&mut staging).expect("not kept: nothing handed back");
        take(&mut staging).expect("kept: the first's buffer handed back");
        app.submit_to(vec![sqe(4, 0)], true, &mut spare)
            .expect("collects");
        let (back, fresh) = (spare.take_capacity(4), spare.take_capacity(4));
        assert_eq!(back.as_ptr(), at, "the same allocation");
        assert!(fresh.as_ptr() != at, "and nothing else");
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
        let held = port.shared.completions.wait_take(|c| Some((c.cq.len(), 0)));
        assert_eq!(held, 0, "a harvested completion leaves the index");
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
        // The payload's copy is its staging's (see `Stager`), not the
        // doorbell's.
        assert_eq!(model.snapshot().since(&before).memcpy_bytes, 0);
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
    fn once_complete_reports_the_sentinel_gone_submit_fails_too() {
        let (app, port) = RingPair::shared::<u32, u32>(CostModel::free(), 4);
        app.submit(vec![sqe(1, 0)]).expect("submit");
        let app = Arc::new(app);
        // The port's hang-up fires its waker; look at both sides from
        // inside it, before the drop goes on.
        let seen = Arc::new(parking_lot::Mutex::new(None));
        let (weak, shared, log) = (
            Arc::downgrade(&app),
            Arc::clone(&port.shared),
            Arc::clone(&seen),
        );
        port.set_wakeup(Arc::new(move || {
            let Some(app) = weak.upgrade() else {
                return; // the application side's own shutdown
            };
            let completing = shared
                .completions
                .wait_take(|c| Some((c.sentinel_alive, 0)));
            *log.lock() = Some((app.submit(vec![sqe(2, 0)]), completing));
        }));
        drop(port);
        assert_eq!(
            *seen.lock(),
            Some((Err(IpcError::BrokenPipe), true)),
            "submissions fail while completions still wait"
        );
        assert_eq!(app.complete(1), Err(IpcError::Closed));
        assert_eq!(app.submit(vec![sqe(3, 0)]), Err(IpcError::BrokenPipe));
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
