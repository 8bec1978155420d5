//! The always-on counter families, each declared once.
//!
//! These are relaxed atomics — cheap enough that the IPC, executor, store
//! and cluster layers update them unconditionally, independent of span
//! recording. [`metric_family!`](crate::metric_family) turns one list of
//! `field: kind "exported_name"` lines into the live struct, its snapshot,
//! `snapshot()` and the exporter hook, so a signal cannot exist in one of
//! the four and be forgotten in another.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use afs_sim::metric_family;
use parking_lot::Mutex;

use crate::flight::FlightRecorder;

/// Raises `peak` to `level` if that is higher. A relaxed load first, so
/// the common case — no new high — writes nothing another thread reads.
fn raise(peak: &AtomicU64, level: u64) {
    if peak.load(Ordering::Relaxed) < level {
        peak.fetch_max(level, Ordering::Relaxed);
    }
}

metric_family! {
    /// Live depth/throughput gauges for pipes and the §4.3 lanes, and the
    /// reuse of the staging buffers pair-lane dispatch loops keep.
    /// Striped: every message of every lane records here.
    ///
    /// `pipe_buffered` is the bytes buffered across observed pipes now:
    /// the level whose high-water mark is exported, not exported itself
    /// (it reads 0 whenever the world is quiet).
    QueueGauges striped(QueueCell) { pipe_buffered: AtomicU64 } => GaugesSnapshot {
        /// High-water mark of buffered pipe bytes.
        pipe_buffered_peak: gauge "afs_pipe_buffered_peak_bytes",
        /// Total pipe message segments enqueued.
        pipe_messages: counter "afs_pipe_queue_messages_total",
        /// Total §4.3 messages sent with bytes (a write's command, a read's reply).
        shm_messages: counter "afs_shm_messages_total",
        /// Staging buffers a pair lane's dispatch loop reused from its free list.
        pool_reuses: counter "afs_pool_reuses_total",
        /// Staging buffers a pair lane's dispatch loop had to allocate.
        pool_allocations: counter "afs_pool_allocations_total",
    }
}

impl QueueGauges {
    /// Records `bytes` enqueued into a pipe (one message segment).
    pub fn pipe_enqueued(&self, bytes: u64) {
        let now = self.pipe_buffered.fetch_add(bytes, Ordering::Relaxed) + bytes;
        raise(&self.cells.first().pipe_buffered_peak, now);
        let (mine, writer) = self.cells.mine();
        mine.pipe_messages.add(writer, 1);
    }

    /// Records `bytes` drained from a pipe.
    pub fn pipe_drained(&self, bytes: u64) {
        self.pipe_buffered.fetch_sub(bytes, Ordering::Relaxed);
    }

    /// Records one message sent with bytes on a §4.3 lane.
    pub fn shm_filled(&self) {
        let (mine, writer) = self.cells.mine();
        mine.shm_messages.add(writer, 1);
    }

    /// Records a staging buffer reused from a free list.
    pub fn pool_reuse(&self) {
        let (mine, writer) = self.cells.mine();
        mine.pool_reuses.add(writer, 1);
    }

    /// Records a staging buffer a free list had to allocate.
    pub fn pool_alloc(&self) {
        let (mine, writer) = self.cells.mine();
        mine.pool_allocations.add(writer, 1);
    }
}

metric_family! {
    /// Live gauges for the shared-sentinel session layer: how many opens
    /// are multiplexed onto shared sentinels, how deep the dispatch queues
    /// run, and how much write traffic the batcher absorbed without a
    /// crossing.
    SessionGauges => SessionSnapshot {
        /// Sessions currently attached to shared sentinels.
        sessions: gauge "afs_sessions_current",
        /// High-water mark of sessions on any one shared sentinel.
        sessions_peak: gauge "afs_sessions_peak",
        /// Total attaches since startup.
        attaches: counter "afs_session_attaches_total",
        /// Writes absorbed into staged batches without a crossing.
        coalesced_writes: counter "afs_coalesced_writes_total",
        /// Staged batches flushed as single crossings.
        flushed_batches: counter "afs_batch_flushes_total",
    }
}

impl SessionGauges {
    /// Records a session attaching to a shared sentinel; `live` is the
    /// sentinel's session count afterwards.
    pub fn attached(&self, live: u64) {
        self.attaches.fetch_add(1, Ordering::Relaxed);
        self.sessions.fetch_add(1, Ordering::Relaxed);
        raise(&self.sessions_peak, live);
    }

    /// Records a session detaching (close).
    pub fn detached(&self) {
        self.sessions.fetch_sub(1, Ordering::Relaxed);
    }

    /// Records one write absorbed into a session's staged batch (no
    /// crossing charged).
    pub fn coalesced_write(&self) {
        self.coalesced_writes.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one staged batch flushed to the sentinel as a single
    /// crossing.
    pub fn flushed_batch(&self) {
        self.flushed_batches.fetch_add(1, Ordering::Relaxed);
    }
}

metric_family! {
    /// Live gauges for the sentinel executor: how many sentinel state
    /// machines exist, how hard the bounded worker pool is working, and
    /// how often the threads draining its run queues park. Striped: every
    /// poll, wake-up and park of every thread records here.
    FleetGauges striped(FleetCell) => FleetSnapshot {
        /// Sentinel state machines currently registered with the executor.
        sentinels: gauge "afs_fleet_sentinels",
        /// High-water mark of live sentinels.
        sentinels_peak: gauge "afs_fleet_sentinels_peak",
        /// Total sentinels ever spawned onto the executor.
        spawned: counter "afs_fleet_spawned_total",
        /// Total state-machine polls executed by workers.
        polls: counter "afs_fleet_polls_total",
        /// Always 0: the executor has one run queue, so nothing is stolen.
        /// Kept while `benchmark/` reads it.
        steals: counter "afs_fleet_steals_total",
        /// Readiness wakeups that scheduled an idle sentinel.
        wakeups: counter "afs_fleet_wakeups_total",
        /// Times a thread draining a run queue (a worker, or a pinned
        /// sentinel's own) found it empty and parked.
        parks: counter "afs_fleet_parks_total",
        /// Deepest any run queue has been after an enqueue.
        queue_depth_peak: gauge "afs_fleet_queue_depth_peak",
        /// Live worker threads (0 before first spawn and after shutdown).
        workers: gauge "afs_fleet_workers",
        /// Sentinels whose close hook ran at executor shutdown because
        /// their application side never closed them.
        abandoned: counter "afs_fleet_abandoned_total",
        /// Sentinels pinned to dedicated threads (spawned from inside
        /// another sentinel — §3 composition — so they cannot starve the
        /// pool).
        pinned: counter "afs_fleet_pinned_total",
    }
}

impl FleetGauges {
    /// Records a sentinel task registered with the executor; `live` is the
    /// executor's live-task count afterwards.
    pub fn task_spawned(&self, live: u64) {
        let level = self.cells.first();
        level.sentinels.store(live, Ordering::Relaxed);
        raise(&level.sentinels_peak, live);
        let (mine, writer) = self.cells.mine();
        mine.spawned.add(writer, 1);
    }

    /// Records a sentinel task retiring (clean close); `live` is the
    /// executor's live-task count afterwards.
    pub fn task_retired(&self, live: u64) {
        let level = &self.cells.first().sentinels;
        level.store(live, Ordering::Relaxed);
    }

    /// Records a sentinel abandoned at executor shutdown (its close hook
    /// was still run, but no application side remained to reap it).
    pub fn task_abandoned(&self) {
        let (mine, writer) = self.cells.mine();
        mine.abandoned.add(writer, 1);
    }

    /// Records a sentinel pinned to a dedicated thread instead of the
    /// pool (spawned from inside another sentinel — §3 composition).
    pub fn task_pinned(&self) {
        let (mine, writer) = self.cells.mine();
        mine.pinned.add(writer, 1);
    }

    /// Records one poll of a sentinel state machine by a worker.
    pub fn poll(&self) {
        let (mine, writer) = self.cells.mine();
        mine.polls.add(writer, 1);
    }

    /// Records a transport readiness wakeup scheduling an idle sentinel.
    pub fn wakeup(&self) {
        let (mine, writer) = self.cells.mine();
        mine.wakeups.add(writer, 1);
    }

    /// Records a thread parking on its empty run queue.
    pub fn park(&self) {
        let (mine, writer) = self.cells.mine();
        mine.parks.add(writer, 1);
    }

    /// Records a run queue's depth after an enqueue.
    pub fn note_queue_depth(&self, depth: u64) {
        raise(&self.cells.first().queue_depth_peak, depth);
    }

    /// Records the number of live worker threads (0 after shutdown).
    pub fn set_workers(&self, workers: u64) {
        let level = &self.cells.first().workers;
        level.store(workers, Ordering::Relaxed);
    }
}

metric_family! {
    /// Per-sentinel resource accounting: the substrate quota throttling
    /// will enforce against (ROADMAP sandboxing item). Fed by the
    /// sentinel-side dispatch paths; always live, like the queue gauges.
    /// One set per sentinel *name*, exported labelled `sentinel`: every
    /// file that names the sentinel adds to it, from whichever thread
    /// serves the file, so it is striped.
    SentinelStats striped(SentinelCell) => SentinelStatsSnapshot {
        /// Ops dispatched to the sentinel.
        ops: counter "afs_sentinel_ops_total",
        /// Ops that returned an error.
        errors: counter "afs_sentinel_errors_total",
        /// Faults (panics) that ended the sentinel, or failed its open
        /// hook.
        faults: counter "afs_sentinel_faults_total",
        /// Payload bytes carried into the sentinel (writes).
        bytes_in: counter "afs_sentinel_bytes_in_total",
        /// Payload bytes carried out of the sentinel (reads).
        bytes_out: counter "afs_sentinel_bytes_out_total",
        /// Deepest queued-op backlog a dispatch sweep has seen.
        queue_depth_peak: gauge "afs_sentinel_queue_depth_peak",
    }
}

impl SentinelStats {
    /// Records one op dispatched to the sentinel, with the payload bytes
    /// it carried in (writes) and out (reads), and whether it errored.
    pub fn op(&self, bytes_in: u64, bytes_out: u64, is_err: bool) {
        let (mine, writer) = self.cells.mine();
        mine.ops.add(writer, 1);
        if bytes_in > 0 {
            mine.bytes_in.add(writer, bytes_in);
        }
        if bytes_out > 0 {
            mine.bytes_out.add(writer, bytes_out);
        }
        if is_err {
            mine.errors.add(writer, 1);
        }
    }

    /// Records a fault caught where the sentinel was entered.
    pub fn fault(&self) {
        let (mine, writer) = self.cells.mine();
        mine.faults.add(writer, 1);
    }

    /// Records how many commands one poll of the sentinel's dispatch loop
    /// served back-to-back: they were queued together, so the run length
    /// is the backlog that poll found.
    pub fn note_queue_depth(&self, depth: u64) {
        raise(&self.cells.first().queue_depth_peak, depth);
    }
}

metric_family! {
    /// Live gauges for submission/completion rings: batch sizes, ring
    /// occupancy, completion ordering, and readahead effectiveness. Fed by
    /// the ring transports and the handle-side batching policy; always
    /// live, like the queue gauges.
    RingGauges => RingSnapshot {
        /// Doorbell rings (one per submitted batch).
        batches: counter "afs_ring_batches_total",
        /// Total operations carried by those batches.
        ops_submitted: counter "afs_ring_ops_submitted_total",
        /// Deepest submission-ring occupancy observed at submit time.
        occupancy_peak: gauge "afs_ring_occupancy_peak",
        /// Completions posted.
        completions: counter "afs_ring_completions_total",
        /// Completions posted out of submission order.
        completions_out_of_order: counter "afs_ring_completions_out_of_order_total",
        /// Reads served from harvested readahead completions (zero new
        /// crossings).
        readahead_hits: counter "afs_ring_readahead_hits_total",
    }
}

impl RingGauges {
    /// Records one doorbell ring carrying `ops` submissions; `occupancy`
    /// is the submission-ring depth right after the batch landed.
    pub fn batch_submitted(&self, ops: u64, occupancy: u64) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.ops_submitted.fetch_add(ops, Ordering::Relaxed);
        raise(&self.occupancy_peak, occupancy);
    }

    /// Records one completion posted; `out_of_order` when its id is lower
    /// than one already posted (completed out of submission order).
    pub fn completed(&self, out_of_order: bool) {
        self.completions.fetch_add(1, Ordering::Relaxed);
        if out_of_order {
            self.completions_out_of_order
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records a read served from a harvested speculative (readahead)
    /// completion without a new crossing.
    pub fn readahead_hit(&self) {
        self.readahead_hits.fetch_add(1, Ordering::Relaxed);
    }
}

metric_family! {
    /// Live gauges for the durable page store: WAL traffic, commit/fsync
    /// cadence, checkpoints, and what recovery found on reopen. Striped:
    /// every commit records here.
    ///
    /// `flight` is the flight recorder torn-tail detection triggers. The
    /// store layer never sees the telemetry hub; the hub wires this up at
    /// construction.
    StoreGauges striped(StoreCell) { flight: Mutex<Option<Arc<FlightRecorder>>> } => StoreSnapshot {
        /// WAL records appended.
        wal_appends: counter "afs_store_wal_appends_total",
        /// Bytes of WAL records appended to the medium.
        wal_bytes: counter "afs_store_wal_bytes_total",
        /// fsync barriers issued.
        fsyncs: counter "afs_store_fsyncs_total",
        /// WAL batches committed (group commits).
        commits: counter "afs_store_commits_total",
        /// Checkpoints taken.
        checkpoints: counter "afs_store_checkpoints_total",
        /// WAL records replayed by redo recovery across reopens.
        recovered_records: counter "afs_store_recovered_records_total",
        /// Torn WAL tails detected via checksum and discarded.
        torn_detected: counter "afs_store_torn_detected_total",
    }
}

impl StoreGauges {
    /// Records `records` WAL records appended together, `bytes` long on
    /// the medium.
    pub fn wal_append(&self, records: u64, bytes: u64) {
        let (mine, writer) = self.cells.mine();
        mine.wal_appends.add(writer, records);
        mine.wal_bytes.add(writer, bytes);
    }

    /// Records one fsync barrier issued against the durable medium.
    pub fn fsync(&self) {
        let (mine, writer) = self.cells.mine();
        mine.fsyncs.add(writer, 1);
    }

    /// Records one committed WAL batch (group commit).
    pub fn commit(&self) {
        let (mine, writer) = self.cells.mine();
        mine.commits.add(writer, 1);
    }

    /// Records one checkpoint (dirty pages written, WAL truncated).
    pub fn checkpoint(&self) {
        let (mine, writer) = self.cells.mine();
        mine.checkpoints.add(writer, 1);
    }

    /// Records `records` WAL records replayed by redo recovery on reopen.
    pub fn recovered(&self, records: u64) {
        let (mine, writer) = self.cells.mine();
        mine.recovered_records.add(writer, records);
    }

    /// Records one torn (incomplete or checksum-failing) WAL tail detected
    /// and discarded by recovery. A flight-recorder trigger when one is
    /// attached — torn tails are exactly the post-mortem moment.
    pub fn torn(&self) {
        let (mine, writer) = self.cells.mine();
        mine.torn_detected.add(writer, 1);
        if let Some(flight) = self.flight.lock().as_ref() {
            let total = self.snapshot().torn_detected;
            flight.trigger_basic("torn_tail", format!("torn_detected_total={total}"));
        }
    }

    /// Attaches the flight recorder torn-tail detection should trigger.
    pub fn set_flight(&self, flight: Arc<FlightRecorder>) {
        *self.flight.lock() = Some(flight);
    }
}

metric_family! {
    /// Live gauges for the replicated active-file cluster: write fan-out,
    /// read routing (primary hits vs failovers), membership churn, and
    /// staleness-bound rejections. Fed by the cluster client; always live,
    /// like the queue gauges. Striped: cluster sessions on different
    /// threads share one set, and each op of each records here.
    ClusterGauges striped(ClusterCell) => ClusterSnapshot {
        /// Primary-acknowledged writes.
        writes: counter "afs_cluster_writes_total",
        /// Replica casts fanned out by those writes.
        replications: counter "afs_cluster_replications_total",
        /// Replica casts that failed locally (dropped, partitioned).
        replication_failures: counter "afs_cluster_replication_failures_total",
        /// Reads routed through the placement.
        reads: counter "afs_cluster_reads_total",
        /// Reads served by a node other than the placement primary.
        read_failovers: counter "afs_cluster_read_failovers_total",
        /// Bounded-staleness wait rounds (budget burned, read retried).
        stale_waits: counter "afs_cluster_stale_waits_total",
        /// Reads rejected with every owner behind the staleness budget.
        stale_rejects: counter "afs_cluster_stale_rejects_total",
        /// Current fleet size.
        nodes: gauge "afs_cluster_nodes",
        /// Membership changes applied.
        rebalances: counter "afs_cluster_rebalances_total",
    }
}

impl ClusterGauges {
    /// Records one primary-acknowledged write plus how many replica
    /// casts it fanned out (`replicas`) and how many of those casts
    /// failed locally (`failed`).
    pub fn write(&self, replicas: u64, failed: u64) {
        let (mine, writer) = self.cells.mine();
        mine.writes.add(writer, 1);
        mine.replications.add(writer, replicas);
        mine.replication_failures.add(writer, failed);
    }

    /// Records one read; `failover` when it was served by a node other
    /// than the placement primary.
    pub fn read(&self, failover: bool) {
        let (mine, writer) = self.cells.mine();
        mine.reads.add(writer, 1);
        if failover {
            mine.read_failovers.add(writer, 1);
        }
    }

    /// Records one bounded-staleness wait round (every owner answered
    /// behind the session's required sequence; the reader burned budget
    /// and retried).
    pub fn stale_wait(&self) {
        let (mine, writer) = self.cells.mine();
        mine.stale_waits.add(writer, 1);
    }

    /// Records a read rejected because no owner caught up within the
    /// staleness budget.
    pub fn stale_reject(&self) {
        let (mine, writer) = self.cells.mine();
        mine.stale_rejects.add(writer, 1);
    }

    /// Records the fleet size after `changes` membership changes, counting
    /// each as one rebalance.
    pub fn membership(&self, nodes: u64, changes: u64) {
        self.cells.first().nodes.store(nodes, Ordering::Relaxed);
        let (mine, writer) = self.cells.mine();
        mine.rebalances.add(writer, changes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_gauges_track_writes_reads_and_membership() {
        let g = ClusterGauges::default();
        g.write(2, 1);
        g.write(2, 0);
        g.read(false);
        g.read(true);
        g.stale_wait();
        g.stale_reject();
        g.membership(3, 1);
        g.membership(4, 1);
        let s = g.snapshot();
        assert_eq!(s.writes, 2);
        assert_eq!(s.replications, 4);
        assert_eq!(s.replication_failures, 1);
        assert_eq!(s.reads, 2);
        assert_eq!(s.read_failovers, 1);
        assert_eq!(s.stale_waits, 1);
        assert_eq!(s.stale_rejects, 1);
        assert_eq!(s.nodes, 4);
        assert_eq!(s.rebalances, 2);
    }

    #[test]
    fn cluster_gauges_are_exact_after_two_threads() {
        const N: u64 = 5_000;
        let g = ClusterGauges::default();
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    start.wait();
                    for i in 0..N {
                        g.read(i % 4 == 0);
                        g.write(1, u64::from(i % 10 == 0));
                        g.stale_wait();
                    }
                    g.stale_reject();
                    g.membership(5, 1);
                });
            }
        });
        let s = g.snapshot();
        assert_eq!(
            [s.reads, s.read_failovers, s.writes, s.replications],
            [2 * N, 2 * N / 4, 2 * N, 2 * N]
        );
        assert_eq!(s.replication_failures, 2 * N / 10);
        assert_eq!([s.stale_waits, s.stale_rejects], [2 * N, 2]);
        // Both threads set the fleet size to 5: a level, not a sum.
        assert_eq!([s.nodes, s.rebalances], [5, 2]);
        g.membership(4, 3);
        assert_eq!([g.snapshot().nodes, g.snapshot().rebalances], [4, 5]);
    }

    /// Two threads serving files of one sentinel name add to one set.
    #[test]
    fn sentinel_stats_are_exact_after_two_threads() {
        const N: u64 = 5_000;
        let s = SentinelStats::default();
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for t in 1..=2 {
                let (s, start) = (&s, &start);
                scope.spawn(move || {
                    start.wait();
                    for i in 0..N {
                        s.op(i % 2 * 8, (i + 1) % 2 * 16, i % 5 == 0);
                        s.note_queue_depth(t);
                    }
                    s.fault();
                });
            }
        });
        let snap = s.snapshot();
        assert_eq!([snap.ops, snap.errors, snap.faults], [2 * N, 2 * N / 5, 2]);
        assert_eq!([snap.bytes_in, snap.bytes_out], [8 * N, 16 * N]);
        assert_eq!(snap.queue_depth_peak, 2);
    }

    /// Writers racing to raise a peak leave their maximum, whoever wins.
    #[test]
    fn concurrent_peaks_read_their_writers_maximum() {
        const N: u64 = 5_000;
        let (fleet, stats, queue) = (
            FleetGauges::default(),
            SentinelStats::default(),
            QueueGauges::default(),
        );
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let (fleet, stats, queue, start) = (&fleet, &stats, &queue, &start);
                scope.spawn(move || {
                    start.wait();
                    for i in 0..N {
                        let level = (i * 7 + t * 13) % (1_000 + t);
                        fleet.note_queue_depth(level);
                        stats.note_queue_depth(level);
                        fleet.task_spawned(level);
                    }
                    queue.pipe_enqueued(10 + t);
                });
            }
        });
        let max = 1_000 + 3 - 1;
        assert_eq!(fleet.snapshot().queue_depth_peak, max);
        assert_eq!(fleet.snapshot().sentinels_peak, max);
        assert_eq!(stats.snapshot().queue_depth_peak, max);
        let peak = queue.snapshot().pipe_buffered_peak;
        assert_eq!(peak, 10 + 11 + 12 + 13, "a level is one sum");
    }

    /// Two threads polling, waking, parking and moving bytes add to one
    /// set of each family, exactly.
    #[test]
    fn queue_and_fleet_gauges_are_exact_after_two_threads() {
        const N: u64 = 5_000;
        let (fleet, queue) = (FleetGauges::default(), QueueGauges::default());
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                let (fleet, queue, start) = (&fleet, &queue, &start);
                scope.spawn(move || {
                    start.wait();
                    for i in 0..N {
                        fleet.poll();
                        if i % 2 == 0 {
                            fleet.wakeup();
                            queue.shm_filled();
                            queue.pool_reuse();
                        } else {
                            fleet.park();
                            queue.pool_alloc();
                        }
                        queue.pipe_enqueued(3);
                        queue.pipe_drained(3);
                    }
                });
            }
        });
        let f = fleet.snapshot();
        assert_eq!([f.polls, f.wakeups, f.parks], [2 * N, N, N]);
        let q = queue.snapshot();
        assert_eq!(q.shm_messages, N);
        assert_eq!([q.pool_reuses, q.pool_allocations], [N, N]);
        assert_eq!(q.pipe_messages, 2 * N);
        assert!((3..=6).contains(&q.pipe_buffered_peak));
    }

    #[test]
    fn store_gauges_track_wal_and_recovery() {
        let g = StoreGauges::default();
        g.wal_append(1, 32);
        g.wal_append(3, 16);
        g.fsync();
        g.commit();
        g.checkpoint();
        g.recovered(5);
        g.torn();
        let s = g.snapshot();
        assert_eq!(s.wal_appends, 4, "records, not appends");
        assert_eq!(s.wal_bytes, 48);
        assert_eq!(s.fsyncs, 1);
        assert_eq!(s.commits, 1);
        assert_eq!(s.checkpoints, 1);
        assert_eq!(s.recovered_records, 5);
        assert_eq!(s.torn_detected, 1);
    }

    #[test]
    fn fleet_gauges_track_lifecycle_and_scheduling() {
        let g = FleetGauges::default();
        g.task_spawned(1);
        g.task_spawned(2);
        g.task_retired(1);
        g.poll();
        g.poll();
        g.wakeup();
        g.park();
        g.note_queue_depth(4);
        g.note_queue_depth(2);
        g.set_workers(8);
        g.task_abandoned();
        g.task_pinned();
        let s = g.snapshot();
        assert_eq!(s.sentinels, 1);
        assert_eq!(s.sentinels_peak, 2);
        assert_eq!(s.spawned, 2);
        assert_eq!(s.polls, 2);
        assert_eq!(s.steals, 0, "nothing records a steal");
        assert_eq!(s.wakeups, 1);
        assert_eq!(s.parks, 1);
        assert_eq!(s.queue_depth_peak, 4);
        assert_eq!(s.workers, 8);
        assert_eq!(s.abandoned, 1);
        assert_eq!(s.pinned, 1);
    }

    #[test]
    fn session_gauges_track_attach_detach_and_batching() {
        let g = SessionGauges::default();
        g.attached(1);
        g.attached(2);
        g.detached();
        g.coalesced_write();
        g.coalesced_write();
        g.flushed_batch();
        let s = g.snapshot();
        assert_eq!(s.sessions, 1);
        assert_eq!(s.sessions_peak, 2);
        assert_eq!(s.attaches, 2);
        assert_eq!(s.coalesced_writes, 2);
        assert_eq!(s.flushed_batches, 1);
    }

    #[test]
    fn ring_gauges_track_batches_ordering_and_readahead() {
        let g = RingGauges::default();
        g.batch_submitted(8, 8);
        g.batch_submitted(4, 6);
        g.completed(false);
        g.completed(true);
        g.completed(true);
        g.readahead_hit();
        let s = g.snapshot();
        assert_eq!(s.batches, 2);
        assert_eq!(s.ops_submitted, 12);
        assert_eq!(s.occupancy_peak, 8);
        assert_eq!(s.completions, 3);
        assert_eq!(s.completions_out_of_order, 2);
        assert_eq!(s.readahead_hits, 1);
    }

    #[test]
    fn pipe_gauges_track_depth_and_peak() {
        let g = QueueGauges::default();
        g.pipe_enqueued(100);
        g.pipe_enqueued(50);
        g.pipe_drained(120);
        let s = g.snapshot();
        assert_eq!(s.pipe_buffered_peak, 150);
        assert_eq!(s.pipe_messages, 2);
        // The drain lowered the level the next peak rises from: 30 + 200.
        g.pipe_enqueued(200);
        assert_eq!(g.snapshot().pipe_buffered_peak, 230);
    }

    #[test]
    fn shm_and_pool_gauges_count() {
        let g = QueueGauges::default();
        g.shm_filled();
        g.shm_filled();
        g.pool_alloc();
        g.pool_reuse();
        g.pool_reuse();
        let s = g.snapshot();
        assert_eq!(s.shm_messages, 2);
        assert_eq!(s.pool_allocations, 1);
        assert_eq!(s.pool_reuses, 2);
    }
}
