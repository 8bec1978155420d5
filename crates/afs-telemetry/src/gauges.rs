//! Queue-depth and pool gauges fed by the IPC layer.
//!
//! These are always-on relaxed atomics — cheap enough that the transports
//! update them unconditionally, independent of span recording.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::flight::FlightRecorder;

/// Live depth/throughput gauges for pipes, shared buffers, and buffer
/// pools.
#[derive(Debug, Default)]
pub struct QueueGauges {
    pipe_buffered: AtomicU64,
    pipe_peak: AtomicU64,
    pipe_messages: AtomicU64,
    shm_pending: AtomicU64,
    shm_messages: AtomicU64,
    pool_reuses: AtomicU64,
    pool_allocations: AtomicU64,
}

impl QueueGauges {
    /// Records `bytes` enqueued into a pipe (one message segment).
    pub fn pipe_enqueued(&self, bytes: u64) {
        let now = self.pipe_buffered.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.pipe_peak.fetch_max(now, Ordering::Relaxed);
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

    /// Copies out the current gauge values.
    pub fn snapshot(&self) -> GaugesSnapshot {
        GaugesSnapshot {
            pipe_buffered: self.pipe_buffered.load(Ordering::Relaxed),
            pipe_buffered_peak: self.pipe_peak.load(Ordering::Relaxed),
            pipe_messages: self.pipe_messages.load(Ordering::Relaxed),
            shm_pending: self.shm_pending.load(Ordering::Relaxed),
            shm_messages: self.shm_messages.load(Ordering::Relaxed),
            pool_reuses: self.pool_reuses.load(Ordering::Relaxed),
            pool_allocations: self.pool_allocations.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of [`QueueGauges`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GaugesSnapshot {
    /// Bytes currently buffered across observed pipes.
    pub pipe_buffered: u64,
    /// High-water mark of buffered pipe bytes.
    pub pipe_buffered_peak: u64,
    /// Total pipe message segments enqueued.
    pub pipe_messages: u64,
    /// Shared-buffer slots currently holding an unread message.
    pub shm_pending: u64,
    /// Total shared-buffer messages sent.
    pub shm_messages: u64,
    /// Buffers served from a pool free list.
    pub pool_reuses: u64,
    /// Buffers freshly allocated by a pool.
    pub pool_allocations: u64,
}

/// Live gauges for the shared-sentinel session layer: how many opens are
/// multiplexed onto shared sentinels, how deep the dispatch queues run,
/// and how much write traffic the batcher absorbed without a crossing.
#[derive(Debug, Default)]
pub struct SessionGauges {
    sessions: AtomicU64,
    sessions_peak: AtomicU64,
    attaches: AtomicU64,
    coalesced_writes: AtomicU64,
    flushed_batches: AtomicU64,
    /// Flight recorder the session lifecycle feeds, when attached. The
    /// mux hub lives in `afs-ipc` below the telemetry hub, so the hook is
    /// injected here rather than reached through [`crate::Telemetry`].
    flight: Mutex<Option<Arc<FlightRecorder>>>,
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

    /// Copies out the current gauge values.
    pub fn snapshot(&self) -> SessionSnapshot {
        SessionSnapshot {
            sessions: self.sessions.load(Ordering::Relaxed),
            sessions_peak: self.sessions_peak.load(Ordering::Relaxed),
            attaches: self.attaches.load(Ordering::Relaxed),
            coalesced_writes: self.coalesced_writes.load(Ordering::Relaxed),
            flushed_batches: self.flushed_batches.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of [`SessionGauges`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionSnapshot {
    /// Sessions currently attached to shared sentinels.
    pub sessions: u64,
    /// High-water mark of sessions on any one shared sentinel.
    pub sessions_peak: u64,
    /// Total attaches since startup.
    pub attaches: u64,
    /// Writes absorbed into staged batches without a crossing.
    pub coalesced_writes: u64,
    /// Staged batches flushed as single crossings.
    pub flushed_batches: u64,
}

/// Live gauges for the sharded sentinel executor: how many sentinel
/// state machines exist, how hard the bounded worker pool is working, and
/// how often schedulers had to steal across shards or park.
#[derive(Debug, Default)]
pub struct FleetGauges {
    sentinels: AtomicU64,
    sentinels_peak: AtomicU64,
    spawned: AtomicU64,
    polls: AtomicU64,
    steals: AtomicU64,
    wakeups: AtomicU64,
    parks: AtomicU64,
    queue_depth_peak: AtomicU64,
    workers: AtomicU64,
    shards: AtomicU64,
    abandoned: AtomicU64,
    pinned: AtomicU64,
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

    /// Copies out the current gauge values.
    pub fn snapshot(&self) -> FleetSnapshot {
        FleetSnapshot {
            sentinels: self.sentinels.load(Ordering::Relaxed),
            sentinels_peak: self.sentinels_peak.load(Ordering::Relaxed),
            spawned: self.spawned.load(Ordering::Relaxed),
            polls: self.polls.load(Ordering::Relaxed),
            steals: self.steals.load(Ordering::Relaxed),
            wakeups: self.wakeups.load(Ordering::Relaxed),
            parks: self.parks.load(Ordering::Relaxed),
            queue_depth_peak: self.queue_depth_peak.load(Ordering::Relaxed),
            workers: self.workers.load(Ordering::Relaxed),
            shards: self.shards.load(Ordering::Relaxed),
            abandoned: self.abandoned.load(Ordering::Relaxed),
            pinned: self.pinned.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of [`FleetGauges`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetSnapshot {
    /// Sentinel state machines currently registered with the executor.
    pub sentinels: u64,
    /// High-water mark of live sentinels.
    pub sentinels_peak: u64,
    /// Total sentinels ever spawned onto the executor.
    pub spawned: u64,
    /// Total state-machine polls executed by workers.
    pub polls: u64,
    /// Polls served from a non-home shard (work stealing).
    pub steals: u64,
    /// Readiness wakeups that scheduled an idle sentinel.
    pub wakeups: u64,
    /// Times a worker parked with every shard queue empty.
    pub parks: u64,
    /// Deepest run queue any single shard has seen.
    pub queue_depth_peak: u64,
    /// Live worker threads (0 before first spawn and after shutdown).
    pub workers: u64,
    /// Number of shards (striping width).
    pub shards: u64,
    /// Sentinels whose close hook ran at executor shutdown because their
    /// application side never closed them.
    pub abandoned: u64,
    /// Sentinels pinned to dedicated threads (spawned from inside another
    /// sentinel — §3 composition — so they cannot starve the pool).
    pub pinned: u64,
}

/// Per-sentinel resource accounting: the substrate quota throttling will
/// enforce against (ROADMAP sandboxing item). Fed by the sentinel-side
/// dispatch paths; always live, like the queue gauges.
#[derive(Debug, Default)]
pub struct SentinelStats {
    ops: AtomicU64,
    errors: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    queue_depth_peak: AtomicU64,
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

    /// Copies out the current counters.
    pub fn snapshot(&self) -> SentinelStatsSnapshot {
        SentinelStatsSnapshot {
            ops: self.ops.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
            queue_depth_peak: self.queue_depth_peak.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of [`SentinelStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SentinelStatsSnapshot {
    /// Ops dispatched to the sentinel.
    pub ops: u64,
    /// Ops that returned an error.
    pub errors: u64,
    /// Payload bytes carried into the sentinel (writes).
    pub bytes_in: u64,
    /// Payload bytes carried out of the sentinel (reads).
    pub bytes_out: u64,
    /// Deepest queued-op backlog a dispatch sweep has seen.
    pub queue_depth_peak: u64,
}

/// Live gauges for submission/completion rings: batch sizes, ring
/// occupancy, completion ordering, and readahead effectiveness. Fed by
/// the ring transports and the handle-side batching policy; always live,
/// like the queue gauges.
#[derive(Debug, Default)]
pub struct RingGauges {
    batches: AtomicU64,
    ops_submitted: AtomicU64,
    occupancy_peak: AtomicU64,
    completions: AtomicU64,
    completions_out_of_order: AtomicU64,
    readahead_hits: AtomicU64,
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

    /// Copies out the current gauge values.
    pub fn snapshot(&self) -> RingSnapshot {
        RingSnapshot {
            batches: self.batches.load(Ordering::Relaxed),
            ops_submitted: self.ops_submitted.load(Ordering::Relaxed),
            occupancy_peak: self.occupancy_peak.load(Ordering::Relaxed),
            completions: self.completions.load(Ordering::Relaxed),
            completions_out_of_order: self.completions_out_of_order.load(Ordering::Relaxed),
            readahead_hits: self.readahead_hits.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of [`RingGauges`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RingSnapshot {
    /// Doorbell rings (one per submitted batch).
    pub batches: u64,
    /// Total operations carried by those batches.
    pub ops_submitted: u64,
    /// Deepest submission-ring occupancy observed at submit time.
    pub occupancy_peak: u64,
    /// Completions posted.
    pub completions: u64,
    /// Completions posted out of submission order.
    pub completions_out_of_order: u64,
    /// Reads served from harvested readahead completions (zero new
    /// crossings).
    pub readahead_hits: u64,
}

/// Live gauges for the durable page store: WAL traffic, commit/fsync
/// cadence, checkpoints, and what recovery found on reopen.
#[derive(Debug, Default)]
pub struct StoreGauges {
    wal_appends: AtomicU64,
    wal_bytes: AtomicU64,
    fsyncs: AtomicU64,
    commits: AtomicU64,
    checkpoints: AtomicU64,
    recovered_records: AtomicU64,
    torn_detected: AtomicU64,
    flight: Mutex<Option<Arc<FlightRecorder>>>,
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
    /// The store layer never sees the telemetry hub; the hub wires this up
    /// at construction.
    pub fn set_flight(&self, flight: Arc<FlightRecorder>) {
        *self.flight.lock() = Some(flight);
    }

    /// Copies out the current gauge values.
    pub fn snapshot(&self) -> StoreSnapshot {
        StoreSnapshot {
            wal_appends: self.wal_appends.load(Ordering::Relaxed),
            wal_bytes: self.wal_bytes.load(Ordering::Relaxed),
            fsyncs: self.fsyncs.load(Ordering::Relaxed),
            commits: self.commits.load(Ordering::Relaxed),
            checkpoints: self.checkpoints.load(Ordering::Relaxed),
            recovered_records: self.recovered_records.load(Ordering::Relaxed),
            torn_detected: self.torn_detected.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of [`StoreGauges`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreSnapshot {
    /// WAL records appended.
    pub wal_appends: u64,
    /// Bytes of WAL records appended to the medium.
    pub wal_bytes: u64,
    /// fsync barriers issued.
    pub fsyncs: u64,
    /// WAL batches committed (group commits).
    pub commits: u64,
    /// Checkpoints taken.
    pub checkpoints: u64,
    /// WAL records replayed by redo recovery across reopens.
    pub recovered_records: u64,
    /// Torn WAL tails detected via checksum and discarded.
    pub torn_detected: u64,
}

/// Live gauges for the replicated active-file cluster: write fan-out,
/// read routing (primary hits vs failovers), membership churn, and
/// staleness-bound rejections. Fed by the cluster client; always live,
/// like the queue gauges.
#[derive(Debug, Default)]
pub struct ClusterGauges {
    writes: AtomicU64,
    replications: AtomicU64,
    replication_failures: AtomicU64,
    reads: AtomicU64,
    read_failovers: AtomicU64,
    stale_waits: AtomicU64,
    stale_rejects: AtomicU64,
    nodes: AtomicU64,
    rebalances: AtomicU64,
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

    /// Copies out the current gauge values.
    pub fn snapshot(&self) -> ClusterSnapshot {
        ClusterSnapshot {
            writes: self.writes.load(Ordering::Relaxed),
            replications: self.replications.load(Ordering::Relaxed),
            replication_failures: self.replication_failures.load(Ordering::Relaxed),
            reads: self.reads.load(Ordering::Relaxed),
            read_failovers: self.read_failovers.load(Ordering::Relaxed),
            stale_waits: self.stale_waits.load(Ordering::Relaxed),
            stale_rejects: self.stale_rejects.load(Ordering::Relaxed),
            nodes: self.nodes.load(Ordering::Relaxed),
            rebalances: self.rebalances.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of [`ClusterGauges`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClusterSnapshot {
    /// Primary-acknowledged writes.
    pub writes: u64,
    /// Replica casts fanned out by those writes.
    pub replications: u64,
    /// Replica casts that failed locally (dropped, partitioned).
    pub replication_failures: u64,
    /// Reads routed through the placement.
    pub reads: u64,
    /// Reads served by a node other than the placement primary.
    pub read_failovers: u64,
    /// Bounded-staleness wait rounds (budget burned, read retried).
    pub stale_waits: u64,
    /// Reads rejected with every owner behind the staleness budget.
    pub stale_rejects: u64,
    /// Current fleet size.
    pub nodes: u64,
    /// Membership changes applied.
    pub rebalances: u64,
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
