//! The always-on counter families, each declared once.
//!
//! These are relaxed atomics — cheap enough that the IPC, executor, store
//! and cluster layers update them unconditionally, independent of span
//! recording. [`metric_family!`](crate::metric_family) turns one list of
//! `field: kind "exported_name"` lines into the live struct, its snapshot,
//! `snapshot()` and the exporter hook, so a signal cannot exist in one of
//! the four and be forgotten in another.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::flight::FlightRecorder;

/// Declares one metric family from a single field list:
///
/// * `$live` — `Default` struct of one relaxed `AtomicU64` per field (plus
///   the optional `{ extra: Type }` non-metric fields), with `snapshot()`;
/// * `$snap` — `Copy` struct of `pub u64` fields carrying the doc comments,
///   with `METRICS` (the `(exported name, kind)` rows, in export order)
///   and `metrics(labels, out)`, which pushes one [`Metric`](crate::Metric)
///   per row.
///
/// Event methods (which fields an event touches) stay hand-written on
/// `$live`.
#[macro_export]
macro_rules! metric_family {
    (
        $(#[$live_doc:meta])*
        $live:ident $({ $($extra:ident: $extra_ty:ty),* $(,)? })? => $snap:ident {
            $($(#[$doc:meta])* $field:ident: $kind:ident $name:literal,)+
        }
    ) => {
        $(#[$live_doc])*
        #[derive(Debug, Default)]
        pub struct $live {
            $($field: ::std::sync::atomic::AtomicU64,)+
            $($($extra: $extra_ty,)*)?
        }

        impl $live {
            /// Copies out the current values.
            pub fn snapshot(&self) -> $snap {
                $snap {
                    $($field: self.$field.load(::std::sync::atomic::Ordering::Relaxed),)+
                }
            }
        }

        #[doc = concat!("A point-in-time copy of [`", stringify!($live), "`].")]
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct $snap {
            $($(#[$doc])* pub $field: u64,)+
        }

        impl $snap {
            /// `(exported name, kind)` of every metric of the family, in
            /// export order.
            pub const METRICS: &'static [(&'static str, &'static str)] =
                &[$(($name, stringify!($kind)),)+];

            /// Appends the family's metrics, each carrying `labels`.
            pub fn metrics(&self, labels: &[(&'static str, &str)], out: &mut Vec<$crate::Metric>) {
                let tag = |m: $crate::Metric| labels.iter().fold(m, |m, &(k, v)| m.label(k, v));
                $(out.push(tag($crate::Metric::$kind($name, self.$field)));)+
            }
        }
    };
}

metric_family! {
    /// Live depth/throughput gauges for pipes, shared buffers, and buffer
    /// pools.
    QueueGauges => GaugesSnapshot {
        /// Bytes currently buffered across observed pipes.
        pipe_buffered: gauge "afs_pipe_buffered_bytes",
        /// High-water mark of buffered pipe bytes.
        pipe_buffered_peak: gauge "afs_pipe_buffered_peak_bytes",
        /// Total pipe message segments enqueued.
        pipe_messages: counter "afs_pipe_queue_messages_total",
        /// Shared-buffer slots currently holding an unread message.
        shm_pending: gauge "afs_shm_pending_slots",
        /// Total shared-buffer messages sent.
        shm_messages: counter "afs_shm_messages_total",
        /// Buffers served from a pool free list.
        pool_reuses: counter "afs_pool_reuses_total",
        /// Buffers freshly allocated by a pool.
        pool_allocations: counter "afs_pool_allocations_total",
    }
}

impl QueueGauges {
    /// Records `bytes` enqueued into a pipe (one message segment).
    pub fn pipe_enqueued(&self, bytes: u64) {
        let now = self.pipe_buffered.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.pipe_buffered_peak.fetch_max(now, Ordering::Relaxed);
        self.pipe_messages.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `bytes` drained from a pipe.
    pub fn pipe_drained(&self, bytes: u64) {
        self.pipe_buffered.fetch_sub(bytes, Ordering::Relaxed);
    }

    /// Records one message placed in a shared-buffer slot.
    pub fn shm_filled(&self) {
        self.shm_pending.fetch_add(1, Ordering::Relaxed);
        self.shm_messages.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one message taken from a shared-buffer slot.
    pub fn shm_taken(&self) {
        self.shm_pending.fetch_sub(1, Ordering::Relaxed);
    }

    /// Records a buffer handed out from a pool free list.
    pub fn pool_reuse(&self) {
        self.pool_reuses.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a fresh buffer allocation by a pool.
    pub fn pool_alloc(&self) {
        self.pool_allocations.fetch_add(1, Ordering::Relaxed);
    }
}

metric_family! {
    /// Live gauges for the shared-sentinel session layer: how many opens
    /// are multiplexed onto shared sentinels, how deep the dispatch queues
    /// run, and how much write traffic the batcher absorbed without a
    /// crossing.
    ///
    /// `flight` is the flight recorder the session lifecycle feeds, when
    /// attached. The mux hub lives in `afs-ipc` below the telemetry hub,
    /// so the hook is injected here rather than reached through
    /// [`crate::Telemetry`].
    SessionGauges { flight: Mutex<Option<Arc<FlightRecorder>>> } => SessionSnapshot {
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
        self.sessions_peak.fetch_max(live, Ordering::Relaxed);
        if let Some(flight) = self.flight.lock().as_ref() {
            flight.note("ipc", format!("session_attach live={live}"));
        }
    }

    /// Records a session detaching (close).
    pub fn detached(&self) {
        let left = self
            .sessions
            .fetch_sub(1, Ordering::Relaxed)
            .saturating_sub(1);
        if let Some(flight) = self.flight.lock().as_ref() {
            flight.note("ipc", format!("session_detach live={left}"));
        }
    }

    /// Records the last session's terminal close going out: the shared
    /// sentinel is shutting down.
    pub fn terminal_close(&self) {
        if let Some(flight) = self.flight.lock().as_ref() {
            flight.note("ipc", "mux_terminal_close".to_owned());
        }
    }

    /// Attaches the flight recorder the session lifecycle should feed.
    pub fn set_flight(&self, flight: Arc<FlightRecorder>) {
        *self.flight.lock() = Some(flight);
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
    /// Live gauges for the sharded sentinel executor: how many sentinel
    /// state machines exist, how hard the bounded worker pool is working,
    /// and how often schedulers had to steal across shards or park.
    FleetGauges => FleetSnapshot {
        /// Sentinel state machines currently registered with the executor.
        sentinels: gauge "afs_fleet_sentinels",
        /// High-water mark of live sentinels.
        sentinels_peak: gauge "afs_fleet_sentinels_peak",
        /// Total sentinels ever spawned onto the executor.
        spawned: counter "afs_fleet_spawned_total",
        /// Total state-machine polls executed by workers.
        polls: counter "afs_fleet_polls_total",
        /// Polls served from a non-home shard (work stealing).
        steals: counter "afs_fleet_steals_total",
        /// Readiness wakeups that scheduled an idle sentinel.
        wakeups: counter "afs_fleet_wakeups_total",
        /// Times a worker parked with every shard queue empty.
        parks: counter "afs_fleet_parks_total",
        /// Deepest run queue any single shard has seen.
        queue_depth_peak: gauge "afs_fleet_queue_depth_peak",
        /// Live worker threads (0 before first spawn and after shutdown).
        workers: gauge "afs_fleet_workers",
        /// Number of shards (striping width).
        shards: gauge "afs_fleet_shards",
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
        self.spawned.fetch_add(1, Ordering::Relaxed);
        self.sentinels.store(live, Ordering::Relaxed);
        self.sentinels_peak.fetch_max(live, Ordering::Relaxed);
    }

    /// Records a sentinel task retiring (clean close); `live` is the
    /// executor's live-task count afterwards.
    pub fn task_retired(&self, live: u64) {
        self.sentinels.store(live, Ordering::Relaxed);
    }

    /// Records a sentinel abandoned at executor shutdown (its close hook
    /// was still run, but no application side remained to reap it).
    pub fn task_abandoned(&self) {
        self.abandoned.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a sentinel pinned to a dedicated thread instead of the
    /// pool (spawned from inside another sentinel — §3 composition).
    pub fn task_pinned(&self) {
        self.pinned.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one poll of a sentinel state machine by a worker.
    pub fn poll(&self) {
        self.polls.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a worker popping a task from a shard other than its home
    /// shard.
    pub fn steal(&self) {
        self.steals.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a transport readiness wakeup scheduling an idle sentinel.
    pub fn wakeup(&self) {
        self.wakeups.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a worker parking because every shard queue was empty.
    pub fn park(&self) {
        self.parks.fetch_add(1, Ordering::Relaxed);
    }

    /// Records the run-queue depth of one shard at enqueue time.
    pub fn note_queue_depth(&self, depth: u64) {
        self.queue_depth_peak.fetch_max(depth, Ordering::Relaxed);
    }

    /// Records the number of live worker threads (0 after shutdown).
    pub fn set_workers(&self, workers: u64) {
        self.workers.store(workers, Ordering::Relaxed);
    }

    /// Records the executor's shard count.
    pub fn set_shards(&self, shards: u64) {
        self.shards.store(shards, Ordering::Relaxed);
    }
}

metric_family! {
    /// Per-sentinel resource accounting: the substrate quota throttling
    /// will enforce against (ROADMAP sandboxing item). Fed by the
    /// sentinel-side dispatch paths; always live, like the queue gauges.
    /// Exported once per sentinel, labelled `sentinel`.
    SentinelStats => SentinelStatsSnapshot {
        /// Ops dispatched to the sentinel.
        ops: counter "afs_sentinel_ops_total",
        /// Ops that returned an error.
        errors: counter "afs_sentinel_errors_total",
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
        self.ops.fetch_add(1, Ordering::Relaxed);
        if bytes_in > 0 {
            self.bytes_in.fetch_add(bytes_in, Ordering::Relaxed);
        }
        if bytes_out > 0 {
            self.bytes_out.fetch_add(bytes_out, Ordering::Relaxed);
        }
        if is_err {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records how many commands one poll of the sentinel's dispatch loop
    /// served back-to-back: they were queued together, so the run length
    /// is the backlog that poll found.
    pub fn note_queue_depth(&self, depth: u64) {
        self.queue_depth_peak.fetch_max(depth, Ordering::Relaxed);
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
        self.occupancy_peak.fetch_max(occupancy, Ordering::Relaxed);
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
    /// cadence, checkpoints, and what recovery found on reopen.
    ///
    /// `flight` is the flight recorder torn-tail detection triggers. The
    /// store layer never sees the telemetry hub; the hub wires this up at
    /// construction.
    StoreGauges { flight: Mutex<Option<Arc<FlightRecorder>>> } => StoreSnapshot {
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
    /// Records one WAL record appended, `bytes` long on the medium.
    pub fn wal_append(&self, bytes: u64) {
        self.wal_appends.fetch_add(1, Ordering::Relaxed);
        self.wal_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records one fsync barrier issued against the durable medium.
    pub fn fsync(&self) {
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one committed WAL batch (group commit).
    pub fn commit(&self) {
        self.commits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one checkpoint (dirty pages written, WAL truncated).
    pub fn checkpoint(&self) {
        self.checkpoints.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `records` WAL records replayed by redo recovery on reopen.
    pub fn recovered(&self, records: u64) {
        self.recovered_records.fetch_add(records, Ordering::Relaxed);
    }

    /// Records one torn (incomplete or checksum-failing) WAL tail detected
    /// and discarded by recovery. A flight-recorder trigger when one is
    /// attached — torn tails are exactly the post-mortem moment.
    pub fn torn(&self) {
        let total = self.torn_detected.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(flight) = self.flight.lock().as_ref() {
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
    /// like the queue gauges.
    ClusterGauges => ClusterSnapshot {
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
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.replications.fetch_add(replicas, Ordering::Relaxed);
        self.replication_failures
            .fetch_add(failed, Ordering::Relaxed);
    }

    /// Records one read; `failover` when it was served by a node other
    /// than the placement primary.
    pub fn read(&self, failover: bool) {
        self.reads.fetch_add(1, Ordering::Relaxed);
        if failover {
            self.read_failovers.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records one bounded-staleness wait round (every owner answered
    /// behind the session's required sequence; the reader burned budget
    /// and retried).
    pub fn stale_wait(&self) {
        self.stale_waits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a read rejected because no owner caught up within the
    /// staleness budget.
    pub fn stale_reject(&self) {
        self.stale_rejects.fetch_add(1, Ordering::Relaxed);
    }

    /// Records the fleet size after a membership change, counting the
    /// change as one rebalance.
    pub fn membership(&self, nodes: u64) {
        self.nodes.store(nodes, Ordering::Relaxed);
        self.rebalances.fetch_add(1, Ordering::Relaxed);
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
        g.membership(3);
        g.membership(4);
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
    fn store_gauges_track_wal_and_recovery() {
        let g = StoreGauges::default();
        g.wal_append(32);
        g.wal_append(16);
        g.fsync();
        g.commit();
        g.checkpoint();
        g.recovered(5);
        g.torn();
        let s = g.snapshot();
        assert_eq!(s.wal_appends, 2);
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
        g.steal();
        g.wakeup();
        g.park();
        g.note_queue_depth(4);
        g.note_queue_depth(2);
        g.set_workers(8);
        g.set_shards(16);
        g.task_abandoned();
        g.task_pinned();
        let s = g.snapshot();
        assert_eq!(s.sentinels, 1);
        assert_eq!(s.sentinels_peak, 2);
        assert_eq!(s.spawned, 2);
        assert_eq!(s.polls, 2);
        assert_eq!(s.steals, 1);
        assert_eq!(s.wakeups, 1);
        assert_eq!(s.parks, 1);
        assert_eq!(s.queue_depth_peak, 4);
        assert_eq!(s.workers, 8);
        assert_eq!(s.shards, 16);
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
        assert_eq!(s.pipe_buffered, 30);
        assert_eq!(s.pipe_buffered_peak, 150);
        assert_eq!(s.pipe_messages, 2);
    }

    #[test]
    fn shm_and_pool_gauges_count() {
        let g = QueueGauges::default();
        g.shm_filled();
        g.shm_filled();
        g.shm_taken();
        g.pool_alloc();
        g.pool_reuse();
        g.pool_reuse();
        let s = g.snapshot();
        assert_eq!(s.shm_pending, 1);
        assert_eq!(s.shm_messages, 2);
        assert_eq!(s.pool_allocations, 1);
        assert_eq!(s.pool_reuses, 2);
    }
}
