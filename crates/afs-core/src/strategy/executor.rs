//! The sharded sentinel executor: thousands of active files on a bounded
//! worker pool.
//!
//! The paper's §4.2/§4.3 strategies charge one dedicated thread per open
//! active file, which caps concurrent active files at OS-thread scale.
//! This module replaces thread-per-sentinel with M worker threads (default
//! one per core) multiplexing every poll-driven sentinel state machine
//! ([`SentinelPoll`]): a sentinel is *scheduled* only when its transport's
//! readiness waker fires, runs until its command lane is drained, then
//! parks without occupying a thread. When the command is *awaited* — its
//! sender blocks on the answer next, and the answer fits the lanes back —
//! an idle sentinel is polled on the sender's thread instead, so the
//! operation costs no thread switch on the host.
//!
//! Scheduling structures are striped into per-shard locks (the
//! cache-padded striping idiom): each shard owns a run queue and a slice
//! of the live-task table, a task's shard is a pure function of its id,
//! and workers pop from their home shard first, stealing from the others
//! only when home is empty. Virtual time is preserved exactly: each task
//! carries its own [`SimTime`] across polls, installed on whichever thread
//! polls it, so a sentinel's virtual timeline is identical to the one its
//! dedicated thread would have produced.

use std::cell::Cell;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;

use parking_lot::{Condvar, Mutex};

use afs_ipc::{ChannelWaker, Wake};
use afs_sim::{clock, SimTime};
use afs_telemetry::FleetGauges;

thread_local! {
    /// `true` on any thread currently executing sentinel code — fleet
    /// workers and pinned sentinel threads. A sentinel spawned from such a
    /// thread must never be pooled: the spawning sentinel may block a
    /// worker waiting on the new one, and with every worker so occupied
    /// the pool deadlocks (§3 composition chains).
    static IN_SENTINEL: Cell<bool> = const { Cell::new(false) };
}

/// Whether the current thread is running sentinel code (see
/// [`IN_SENTINEL`]).
pub(crate) fn in_sentinel_context() -> bool {
    IN_SENTINEL.with(Cell::get)
}

/// Default worker-pool bound M: the `AFS_FLEET_WORKERS` environment
/// variable when set to a positive integer, else one worker per core.
/// Malformed or zero values clamp (with a stderr warning) instead of
/// being silently ignored — see [`crate::env`].
pub(crate) fn default_workers() -> usize {
    let cores = std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get);
    crate::env::fleet_workers_from_env(cores)
}

/// Outcome of one sentinel poll.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TaskPoll {
    /// The command lane is drained; park until the waker fires again.
    Pending,
    /// The sentinel has terminated (close served or transport dead).
    Ready,
}

/// A resumable sentinel state machine: the executor-facing refactor of the
/// blocking dispatch loop. `poll` must drain everything currently
/// available and return instead of blocking on an empty command lane.
pub(crate) trait SentinelPoll: Send {
    /// Drains the transport; called by one thread at a time — a worker, or
    /// the sender of an awaited command.
    fn poll(&mut self) -> TaskPoll;

    /// Runs the sentinel's close hook without a transport exchange. Called
    /// exactly once, at executor shutdown, for a task whose application
    /// side never closed it — state still persists.
    fn abandon(&mut self);
}

/// Pads a shard to its own cache line so neighbouring shard locks do not
/// false-share (the striped-lock idiom).
#[repr(align(64))]
struct CachePadded<T>(T);

// Task scheduling states. Transitions:
//   IDLE -QUEUED-> (waker)   QUEUED -RUNNING-> (worker pops)
//   IDLE -RUNNING-> (awaited waker: the sender polls it)
//   RUNNING -NOTIFIED-> (waker during poll, worker re-polls)
//   RUNNING -IDLE-> (poll returned Pending, no wake raced)
//   any -DONE-> (poll returned Ready)
const IDLE: u8 = 0;
const QUEUED: u8 = 1;
const RUNNING: u8 = 2;
const NOTIFIED: u8 = 3;
const DONE: u8 = 4;

/// Completion cell standing in for a sentinel thread's `JoinHandle`: the
/// closing application waits on it and folds the final virtual time in.
#[derive(Default)]
pub(crate) struct TaskDone {
    state: Mutex<Option<SimTime>>,
    cv: Condvar,
}

impl TaskDone {
    fn finish(&self, final_time: SimTime) {
        *self.state.lock() = Some(final_time);
        self.cv.notify_all();
    }

    /// Blocks until the task has fully terminated; returns its final
    /// virtual time.
    pub(crate) fn wait(&self) -> SimTime {
        let mut state = self.state.lock();
        while state.is_none() {
            self.cv.wait(&mut state);
        }
        state.expect("task completion recorded")
    }
}

struct TaskHandle {
    id: u64,
    state: AtomicU8,
    /// The state machine itself; taken (and dropped, closing its
    /// transport) when the task retires.
    task: Mutex<Option<Box<dyn SentinelPoll>>>,
    /// The task's virtual clock, carried across polls. `None` means the
    /// opener had no clock (wall-clock benchmarking mode).
    vtime: Mutex<Option<SimTime>>,
    done: Arc<TaskDone>,
}

struct Shard {
    /// Run queue: tasks with something to observe, awaiting a worker.
    queue: Mutex<VecDeque<Arc<TaskHandle>>>,
    /// `queue.len()`, stored under the queue lock by every push and pop,
    /// so a worker passes an empty shard without taking its lock. Only a
    /// hint — nothing is read through it (the queue lock publishes the
    /// tasks), a stale 0 is caught by the re-scan under `idle` before a
    /// worker parks — hence `Relaxed`.
    queued: AtomicUsize,
    /// This shard's stripe of the live-task table.
    tasks: Mutex<HashMap<u64, Arc<TaskHandle>>>,
}

impl Shard {
    /// Appends `task` to the run queue; returns the queue's new length.
    fn push(&self, task: Arc<TaskHandle>) -> usize {
        let mut queue = self.queue.lock();
        queue.push_back(task);
        let depth = queue.len();
        self.queued.store(depth, Ordering::Relaxed);
        depth
    }

    /// Takes the oldest queued task, if the hint says there may be one.
    fn pop(&self) -> Option<Arc<TaskHandle>> {
        if self.queued.load(Ordering::Relaxed) == 0 {
            return None;
        }
        let mut queue = self.queue.lock();
        let task = queue.pop_front();
        self.queued.store(queue.len(), Ordering::Relaxed);
        task
    }
}

/// Park/wake state of one pinned sentinel thread (a sentinel spawned from
/// inside another sentinel, kept off the pool so composition cannot
/// starve it).
#[derive(Default)]
struct PinnedLane {
    state: Mutex<PinnedState>,
    cv: Condvar,
}

#[derive(Default)]
struct PinnedState {
    notified: bool,
    shutdown: bool,
}

/// Occupancy of one executor shard, for diagnostics (`afsh fleet`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetShardStat {
    /// Shard index.
    pub shard: usize,
    /// Live sentinels whose id hashes to this shard.
    pub live: usize,
    /// Tasks currently waiting in this shard's run queue.
    pub queued: usize,
}

struct Inner {
    shards: Vec<CachePadded<Shard>>,
    worker_cap: usize,
    workers: Mutex<Vec<JoinHandle<()>>>,
    /// Lock + condvar idle workers park on. No wakeup can slip between a
    /// worker's last scan and its wait: an enqueuer stores the shard's
    /// `queued` hint, *then* takes `idle` and notifies; a parker re-reads
    /// every hint under `idle` before it waits. So either the enqueuer's
    /// turn with `idle` came first and the parker sees the hint, or the
    /// parker is already waiting (counted) when the notify comes.
    idle: Mutex<()>,
    idle_cv: Condvar,
    /// Pinned sentinel threads, joined at shutdown *after* the pool
    /// drains: a pooled task's close hook may still round-trip to a
    /// pinned sentinel it composed over.
    pinned: Mutex<Vec<(Arc<PinnedLane>, JoinHandle<()>)>>,
    shutdown: AtomicBool,
    next_id: AtomicU64,
    live: AtomicU64,
    gauges: Arc<FleetGauges>,
}

/// The bounded, work-stealing scheduler all §4.2/§4.3 and mux sentinels
/// run on. One per [`ActiveFilesLayer`](crate::ActiveFilesLayer); shared
/// by every `ActiveFileSystem` the layer wraps.
pub(crate) struct SentinelExecutor {
    inner: Arc<Inner>,
}

impl SentinelExecutor {
    /// Creates an executor with `workers` worker threads (spawned lazily
    /// on first use) and a power-of-two shard count sized to stripe them.
    pub(crate) fn new(workers: usize, gauges: Arc<FleetGauges>) -> Arc<SentinelExecutor> {
        let worker_cap = workers.max(1);
        let shard_count = (worker_cap * 2).next_power_of_two().clamp(8, 64);
        let shards = (0..shard_count)
            .map(|_| {
                CachePadded(Shard {
                    queue: Mutex::new(VecDeque::new()),
                    queued: AtomicUsize::new(0),
                    tasks: Mutex::new(HashMap::new()),
                })
            })
            .collect();
        gauges.set_shards(shard_count as u64);
        Arc::new(SentinelExecutor {
            inner: Arc::new(Inner {
                shards,
                worker_cap,
                workers: Mutex::new(Vec::new()),
                idle: Mutex::new(()),
                idle_cv: Condvar::new(),
                pinned: Mutex::new(Vec::new()),
                shutdown: AtomicBool::new(false),
                next_id: AtomicU64::new(0),
                live: AtomicU64::new(0),
                gauges,
            }),
        })
    }

    /// The configured worker-pool bound M.
    pub(crate) fn worker_cap(&self) -> usize {
        self.inner.worker_cap
    }

    /// Live sentinel tasks currently registered.
    pub(crate) fn live(&self) -> u64 {
        self.inner.live.load(Ordering::Acquire)
    }

    /// Per-shard occupancy, for `afsh fleet`.
    pub(crate) fn shard_stats(&self) -> Vec<FleetShardStat> {
        self.inner
            .shards
            .iter()
            .enumerate()
            .map(|(i, shard)| {
                let live = shard.0.tasks.lock().len();
                let queue = shard.0.queue.lock();
                // Both only change under this lock, together.
                assert_eq!(shard.0.queued.load(Ordering::Relaxed), queue.len());
                FleetShardStat {
                    shard: i,
                    live,
                    queued: queue.len(),
                }
            })
            .collect()
    }

    /// Registers a new sentinel task. `build` receives the readiness waker
    /// to install on the task's command lane and returns the state
    /// machine; the task inherits the caller's virtual clock (like a
    /// spawned sentinel thread would) and is scheduled once immediately,
    /// covering anything that arrived before the waker was installed.
    ///
    /// The returned [`TaskDone`] is the executor's stand-in for a
    /// `JoinHandle`: close waits on it and syncs to the final time.
    pub(crate) fn spawn<F>(&self, build: F) -> Arc<TaskDone>
    where
        F: FnOnce(ChannelWaker) -> Box<dyn SentinelPoll>,
    {
        if in_sentinel_context() {
            // Spawned from inside a sentinel: pooling it could deadlock
            // (the spawner may block a worker waiting on it).
            return self.spawn_pinned(build);
        }
        let inner = &self.inner;
        Inner::ensure_workers(inner);
        let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
        let done = Arc::new(TaskDone::default());
        let handle = Arc::new(TaskHandle {
            id,
            // Born QUEUED: wakes during construction are satisfied by the
            // unconditional first schedule below.
            state: AtomicU8::new(QUEUED),
            task: Mutex::new(None),
            vtime: Mutex::new(clock::is_active().then(clock::now)),
            done: Arc::clone(&done),
        });
        let waker: ChannelWaker = Arc::new(TaskWaker {
            inner: Arc::downgrade(inner),
            task: Arc::clone(&handle),
        });
        *handle.task.lock() = Some(build(waker));
        inner
            .shard_of(id)
            .tasks
            .lock()
            .insert(id, Arc::clone(&handle));
        let live = inner.live.fetch_add(1, Ordering::AcqRel) + 1;
        inner.gauges.task_spawned(live);
        if inner.shutdown.load(Ordering::Acquire) {
            // Spawn raced executor teardown: no workers will ever poll, so
            // finish the task on the spot.
            inner.finish_inline(handle);
        } else {
            inner.enqueue(handle);
        }
        done
    }

    /// Registers a sentinel task on a dedicated thread instead of the
    /// pool. Used for §3 composition: a sentinel opened *by another
    /// sentinel* may be blocked on by its opener, so multiplexing it over
    /// the same bounded pool risks deadlock (every worker occupied by a
    /// blocked opener). The task keeps the executor's poll/waker
    /// interface — its thread just parks on a private lane between polls.
    pub(crate) fn spawn_pinned<F>(&self, build: F) -> Arc<TaskDone>
    where
        F: FnOnce(ChannelWaker) -> Box<dyn SentinelPoll>,
    {
        let inner = &self.inner;
        let done = Arc::new(TaskDone::default());
        let lane = Arc::new(PinnedLane::default());
        let waker_lane = Arc::clone(&lane);
        let waker: ChannelWaker = Arc::new(move || {
            let mut state = waker_lane.state.lock();
            state.notified = true;
            waker_lane.cv.notify_one();
        });
        let mut task = build(waker);
        let vtime = clock::is_active().then(clock::now);
        let live = inner.live.fetch_add(1, Ordering::AcqRel) + 1;
        inner.gauges.task_spawned(live);
        inner.gauges.task_pinned();
        if inner.shutdown.load(Ordering::Acquire) {
            // Raced executor teardown: run the task to quiescence here.
            let guard = vtime.map(clock::install);
            inner.gauges.poll();
            if matches!(task.poll(), TaskPoll::Pending) {
                task.abandon();
                inner.gauges.task_abandoned();
            }
            drop(task);
            let final_time = clock::is_active().then(clock::now).unwrap_or(0);
            drop(guard);
            let live = inner.live.fetch_sub(1, Ordering::AcqRel) - 1;
            inner.gauges.task_retired(live);
            done.finish(final_time);
            return done;
        }
        let thread_inner = Arc::clone(inner);
        let thread_lane = Arc::clone(&lane);
        let thread_done = Arc::clone(&done);
        let join = std::thread::Builder::new()
            .name("afs-fleet-pinned".to_owned())
            .spawn(move || {
                IN_SENTINEL.with(|flag| flag.set(true));
                let _guard = vtime.map(clock::install);
                let mut abandoned = false;
                'run: loop {
                    thread_inner.gauges.poll();
                    if matches!(task.poll(), TaskPoll::Ready) {
                        break 'run;
                    }
                    let mut state = thread_lane.state.lock();
                    loop {
                        if state.notified {
                            state.notified = false;
                            continue 'run;
                        }
                        if state.shutdown {
                            abandoned = true;
                            break 'run;
                        }
                        thread_lane.cv.wait(&mut state);
                    }
                }
                if abandoned {
                    task.abandon();
                    thread_inner.gauges.task_abandoned();
                }
                // Drop before `finish` so the sentinel's transport is
                // closed by the time the reaper returns, as with retire.
                drop(task);
                let live = thread_inner.live.fetch_sub(1, Ordering::AcqRel) - 1;
                thread_inner.gauges.task_retired(live);
                thread_done.finish(clock::is_active().then(clock::now).unwrap_or(0));
            })
            .expect("spawn pinned sentinel thread");
        inner.pinned.lock().push((lane, join));
        done
    }

    /// Deterministic teardown: joins every worker, then polls each
    /// remaining task to completion inline (abandoning — close hook still
    /// run — any whose application side is somehow still live), then
    /// releases and joins the pinned sentinel threads. Idempotent.
    pub(crate) fn shutdown(&self) {
        self.inner.shutdown_and_drain();
    }
}

impl Drop for SentinelExecutor {
    fn drop(&mut self) {
        self.inner.shutdown_and_drain();
    }
}

/// A pooled task's readiness hook, installed on its command lane.
struct TaskWaker {
    inner: Weak<Inner>,
    task: Arc<TaskHandle>,
}

impl Wake for TaskWaker {
    fn wake(&self, awaited: bool) {
        if let Some(inner) = self.inner.upgrade() {
            if awaited {
                inner.wake_awaited(&self.task);
            } else {
                inner.wake(&self.task);
            }
        }
    }
}

impl Inner {
    fn shard_of(&self, id: u64) -> &Shard {
        &self.shards[id as usize & (self.shards.len() - 1)].0
    }

    fn ensure_workers(self: &Arc<Inner>) {
        let mut workers = self.workers.lock();
        if !workers.is_empty() || self.shutdown.load(Ordering::Acquire) {
            return;
        }
        for index in 0..self.worker_cap {
            let inner = Arc::clone(self);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("afs-fleet-{index}"))
                    .spawn(move || inner.worker_loop(index))
                    .expect("spawn fleet worker"),
            );
        }
        self.gauges.set_workers(self.worker_cap as u64);
    }

    /// Readiness wakeup: schedule the task unless it is already scheduled,
    /// running (flag a re-poll), or done.
    fn wake(&self, task: &Arc<TaskHandle>) {
        loop {
            match task
                .state
                .compare_exchange(IDLE, QUEUED, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => {
                    self.gauges.wakeup();
                    self.enqueue(Arc::clone(task));
                    return;
                }
                Err(RUNNING) => {
                    if task
                        .state
                        .compare_exchange(RUNNING, NOTIFIED, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        return;
                    }
                    // Raced a state change mid-poll; retry from the top.
                }
                Err(_) => return, // QUEUED, NOTIFIED, DONE: nothing to do
            }
        }
    }

    /// Readiness from an awaited send (see [`Wake`]): its sender blocks
    /// on the answer next, so an idle task is claimed and run right here,
    /// on the sender's thread, by the same [`Inner::run`] a worker uses —
    /// instead of waking a worker and sleeping until it is done. The
    /// task's own clock is installed for each poll and the sender's comes
    /// back after it; the thread counts as sentinel code meanwhile, so a
    /// §3 composition open still pins. Any other state means a worker has
    /// the task or is coming for it: an ordinary wake.
    fn wake_awaited(&self, task: &Arc<TaskHandle>) {
        if task
            .state
            .compare_exchange(IDLE, RUNNING, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return self.wake(task);
        }
        let outer = IN_SENTINEL.with(|flag| flag.replace(true));
        self.run(task);
        IN_SENTINEL.with(|flag| flag.set(outer));
    }

    fn enqueue(&self, task: Arc<TaskHandle>) {
        let depth = self.shard_of(task.id).push(task);
        self.gauges.note_queue_depth(depth as u64);
        // The hint is stored; now `idle` (see its docs for the order).
        let _guard = self.idle.lock();
        self.idle_cv.notify_one();
    }

    fn worker_loop(self: Arc<Inner>, index: usize) {
        IN_SENTINEL.with(|flag| flag.set(true));
        let shard_count = self.shards.len();
        let home = index % shard_count;
        loop {
            if self.shutdown.load(Ordering::Acquire) {
                return;
            }
            let mut found = None;
            for offset in 0..shard_count {
                let shard = &self.shards[(home + offset) % shard_count].0;
                if let Some(task) = shard.pop() {
                    if offset != 0 {
                        self.gauges.steal();
                    }
                    found = Some(task);
                    break;
                }
            }
            match found {
                Some(task) => self.run(&task),
                None => {
                    let mut guard = self.idle.lock();
                    if self.shutdown.load(Ordering::Acquire) {
                        return;
                    }
                    if self.any_queued() {
                        continue;
                    }
                    self.gauges.park();
                    self.idle_cv.wait(&mut guard);
                }
            }
        }
    }

    fn any_queued(&self) -> bool {
        self.shards
            .iter()
            .any(|shard| shard.0.queued.load(Ordering::Relaxed) != 0)
    }

    /// Polls `task` until its lane is drained, re-polling if a wake raced
    /// the poll, under the task's own virtual clock. Whoever claimed the
    /// task runs this: a worker that popped it, or the sender of an
    /// awaited command.
    fn run(&self, task: &Arc<TaskHandle>) {
        task.state.store(RUNNING, Ordering::Release);
        loop {
            match self.poll_once(task) {
                None | Some(TaskPoll::Ready) => {
                    self.retire(task);
                    return;
                }
                Some(TaskPoll::Pending) => {
                    match task.state.compare_exchange(
                        RUNNING,
                        IDLE,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    ) {
                        Ok(_) => return,
                        Err(_) => {
                            // NOTIFIED raced in: drain again.
                            task.state.store(RUNNING, Ordering::Release);
                        }
                    }
                }
            }
        }
    }

    /// One clock-scoped poll; `None` means the task was already gone. The
    /// task's clock — or none, if it has none — replaces the polling
    /// thread's for the poll.
    fn poll_once(&self, task: &TaskHandle) -> Option<TaskPoll> {
        let mut cell = task.task.lock();
        let machine = cell.as_mut()?;
        let mut vtime = task.vtime.lock();
        let guard = clock::enter(*vtime);
        self.gauges.poll();
        let result = machine.poll();
        if vtime.is_some() {
            *vtime = Some(clock::now());
        }
        drop(guard);
        Some(result)
    }

    /// Marks the task terminated: drop the state machine (closing its
    /// transport), unregister, and release anyone waiting in `reap`.
    fn retire(&self, task: &Arc<TaskHandle>) {
        let final_time = task.vtime.lock().unwrap_or(0);
        task.task.lock().take();
        task.state.store(DONE, Ordering::Release);
        self.shard_of(task.id).tasks.lock().remove(&task.id);
        let live = self.live.fetch_sub(1, Ordering::AcqRel) - 1;
        self.gauges.task_retired(live);
        task.done.finish(final_time);
    }

    /// Polls a task to completion on the current thread, abandoning it
    /// (close hook, no exchange) if it still has a live application side.
    fn finish_inline(&self, task: Arc<TaskHandle>) {
        task.state.store(RUNNING, Ordering::Release);
        match self.poll_once(&task) {
            None | Some(TaskPoll::Ready) => {}
            Some(TaskPoll::Pending) => {
                let mut cell = task.task.lock();
                if let Some(machine) = cell.as_mut() {
                    let mut vtime = task.vtime.lock();
                    let guard = vtime.map(clock::install);
                    machine.abandon();
                    if guard.is_some() {
                        *vtime = Some(clock::now());
                    }
                    drop(guard);
                    drop(vtime);
                    self.gauges.task_abandoned();
                }
                drop(cell);
            }
        }
        self.retire(&task);
    }

    fn shutdown_and_drain(&self) {
        if self.shutdown.swap(true, Ordering::AcqRel) {
            // Second caller (e.g. Drop after an explicit shutdown): the
            // first pass already joined workers and drained every shard.
            return;
        }
        {
            let _guard = self.idle.lock();
            self.idle_cv.notify_all();
        }
        let workers = std::mem::take(&mut *self.workers.lock());
        for worker in workers {
            let _ = worker.join();
        }
        // Every shard drains on this thread — deterministic teardown.
        for index in 0..self.shards.len() {
            loop {
                let task = {
                    let tasks = self.shards[index].0.tasks.lock();
                    tasks.values().next().cloned()
                };
                match task {
                    Some(task) => self.finish_inline(task),
                    None => break,
                }
            }
        }
        // Pinned sentinels last: a drained pool task's close hook may
        // have round-tripped to one, so they must outlive the drain.
        let pinned = std::mem::take(&mut *self.pinned.lock());
        for (lane, _) in &pinned {
            let mut state = lane.state.lock();
            state.shutdown = true;
            lane.cv.notify_all();
        }
        for (_, join) in pinned {
            let _ = join.join();
        }
        self.gauges.set_workers(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// A sentinel stand-in: consumes ticks from a shared counter, becomes
    /// Ready once `closed` is set and the ticks are drained.
    struct TickTask {
        ticks: Arc<AtomicUsize>,
        consumed: Arc<AtomicUsize>,
        closed: Arc<AtomicBool>,
        abandoned: Arc<AtomicBool>,
        charge_per_tick: u64,
    }

    impl SentinelPoll for TickTask {
        fn poll(&mut self) -> TaskPoll {
            while self.ticks.load(Ordering::SeqCst) > 0 {
                self.ticks.fetch_sub(1, Ordering::SeqCst);
                self.consumed.fetch_add(1, Ordering::SeqCst);
                clock::advance(self.charge_per_tick);
            }
            if self.closed.load(Ordering::SeqCst) {
                TaskPoll::Ready
            } else {
                TaskPoll::Pending
            }
        }

        fn abandon(&mut self) {
            self.abandoned.store(true, Ordering::SeqCst);
        }
    }

    struct Fixture {
        ticks: Arc<AtomicUsize>,
        consumed: Arc<AtomicUsize>,
        closed: Arc<AtomicBool>,
        abandoned: Arc<AtomicBool>,
    }

    impl Fixture {
        fn new() -> Fixture {
            Fixture {
                ticks: Arc::new(AtomicUsize::new(0)),
                consumed: Arc::new(AtomicUsize::new(0)),
                closed: Arc::new(AtomicBool::new(false)),
                abandoned: Arc::new(AtomicBool::new(false)),
            }
        }

        fn task(&self, charge_per_tick: u64) -> Box<dyn SentinelPoll> {
            Box::new(TickTask {
                ticks: Arc::clone(&self.ticks),
                consumed: Arc::clone(&self.consumed),
                closed: Arc::clone(&self.closed),
                abandoned: Arc::clone(&self.abandoned),
                charge_per_tick,
            })
        }
    }

    #[test]
    fn task_runs_on_wake_and_completes() {
        let gauges = Arc::new(FleetGauges::default());
        let exec = SentinelExecutor::new(2, Arc::clone(&gauges));
        let fx = Fixture::new();
        let mut waker_slot = None;
        let done = exec.spawn(|waker| {
            waker_slot = Some(waker);
            fx.task(0)
        });
        let waker = waker_slot.expect("waker handed to build");
        fx.ticks.fetch_add(3, Ordering::SeqCst);
        waker.wake(false);
        fx.closed.store(true, Ordering::SeqCst);
        waker.wake(false);
        done.wait();
        assert_eq!(fx.consumed.load(Ordering::SeqCst), 3);
        assert_eq!(exec.live(), 0);
        let snap = gauges.snapshot();
        assert_eq!(snap.spawned, 1);
        assert_eq!(snap.sentinels, 0);
        assert!(snap.polls >= 1);
        assert_eq!(snap.workers, 2);
        assert!(!fx.abandoned.load(Ordering::SeqCst));
    }

    #[test]
    fn task_inherits_and_returns_virtual_time() {
        let _clock = clock::install(1_000);
        let exec = SentinelExecutor::new(1, Arc::new(FleetGauges::default()));
        let fx = Fixture::new();
        let mut waker_slot = None;
        let done = exec.spawn(|waker| {
            waker_slot = Some(waker);
            fx.task(10)
        });
        let waker = waker_slot.expect("waker");
        fx.ticks.fetch_add(5, Ordering::SeqCst);
        fx.closed.store(true, Ordering::SeqCst);
        waker.wake(false);
        // Inherited 1_000, charged 5 ticks × 10 ns on worker threads.
        assert_eq!(done.wait(), 1_050);
    }

    #[test]
    fn an_awaited_wake_runs_an_idle_task_on_its_sender_under_the_task_s_clock() {
        let gauges = Arc::new(FleetGauges::default());
        let exec = SentinelExecutor::new(1, Arc::clone(&gauges));
        let fx = Fixture::new();
        let _clock = clock::install(1_000);
        let mut waker_slot = None;
        let done = exec.spawn(|waker| {
            waker_slot = Some(waker);
            fx.task(10)
        });
        let waker = waker_slot.expect("waker");
        eventually("the task idles after its first poll", || {
            exec.inner.shards.iter().any(|shard| {
                let tasks = shard.0.tasks.lock();
                tasks
                    .values()
                    .any(|t| t.state.load(Ordering::SeqCst) == IDLE)
            })
        });
        let before = gauges.snapshot();
        clock::advance(5_000);
        fx.ticks.fetch_add(3, Ordering::SeqCst);
        waker.wake(true);
        // Served before the wake returned: on this thread.
        assert_eq!(fx.consumed.load(Ordering::SeqCst), 3);
        assert_eq!(clock::now(), 6_000, "the sender's clock comes back");
        assert!(!in_sentinel_context());
        let after = gauges.snapshot();
        assert_eq!(after.wakeups, before.wakeups);
        assert_eq!(after.polls, before.polls + 1);
        fx.closed.store(true, Ordering::SeqCst);
        waker.wake(true);
        // The task's own timeline: inherited 1_000, three ticks of 10 ns.
        assert_eq!(done.wait(), 1_030);
        assert_eq!(exec.live(), 0);
    }

    #[test]
    fn many_tasks_share_bounded_workers() {
        let gauges = Arc::new(FleetGauges::default());
        let exec = SentinelExecutor::new(2, Arc::clone(&gauges));
        let fixtures: Vec<Fixture> = (0..64).map(|_| Fixture::new()).collect();
        let dones: Vec<_> = fixtures
            .iter()
            .map(|fx| {
                let mut slot = None;
                let done = exec.spawn(|waker| {
                    slot = Some(waker);
                    fx.task(0)
                });
                fx.ticks.fetch_add(2, Ordering::SeqCst);
                fx.closed.store(true, Ordering::SeqCst);
                slot.expect("waker").wake(false);
                done
            })
            .collect();
        for done in dones {
            done.wait();
        }
        let snap = gauges.snapshot();
        assert_eq!(snap.spawned, 64);
        assert_eq!(snap.sentinels, 0);
        assert_eq!(snap.workers, 2);
        assert!(snap.sentinels_peak <= 64);
        assert_eq!(exec.shard_stats().iter().map(|s| s.live).sum::<usize>(), 0);
    }

    /// Spins (yielding) until `cond` holds; fails after 30 s instead of
    /// hanging — a lost wake is a condition that never comes true.
    fn eventually(what: &str, cond: impl Fn() -> bool) {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while !cond() {
            assert!(std::time::Instant::now() < deadline, "never: {what}");
            std::thread::yield_now();
        }
    }

    #[test]
    fn every_wake_is_consumed_and_hints_match_queues() {
        const TASKS: usize = 64;
        const WAKES: usize = 1_000;
        let exec = SentinelExecutor::new(2, Arc::new(FleetGauges::default()));
        let fixtures: Vec<Fixture> = (0..TASKS).map(|_| Fixture::new()).collect();
        let mut wakers = Vec::new();
        let dones: Vec<_> = fixtures
            .iter()
            .map(|fx| {
                exec.spawn(|waker| {
                    wakers.push(waker);
                    fx.task(0)
                })
            })
            .collect();
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            // Each thread wakes its own quarter of the tasks, round-robin,
            // while also reading the shard stats: `shard_stats` asserts
            // hint == queue length under the queue lock.
            for (fxs, wakers) in fixtures.chunks(TASKS / 4).zip(wakers.chunks(TASKS / 4)) {
                let (exec, start) = (&exec, &start);
                scope.spawn(move || {
                    start.wait();
                    for round in 0..WAKES {
                        for (fx, waker) in fxs.iter().zip(wakers) {
                            fx.ticks.fetch_add(1, Ordering::SeqCst);
                            waker.wake(false);
                        }
                        if round % 50 == 0 {
                            exec.shard_stats();
                        }
                    }
                });
            }
        });
        // Nothing else will wake them: every tick must already have a
        // poll coming.
        for fx in &fixtures {
            eventually("every tick consumed", || {
                fx.consumed.load(Ordering::SeqCst) == WAKES
            });
        }
        eventually("run queues empty at rest", || {
            exec.shard_stats().iter().all(|s| s.queued == 0)
        });
        for shard in &exec.inner.shards {
            assert_eq!(shard.0.queued.load(Ordering::Relaxed), 0);
        }
        for (fx, waker) in fixtures.iter().zip(&wakers) {
            fx.closed.store(true, Ordering::SeqCst);
            waker.wake(false);
        }
        for done in dones {
            done.wait();
        }
    }

    #[test]
    fn one_wake_rouses_a_parked_worker() {
        let gauges = Arc::new(FleetGauges::default());
        let exec = SentinelExecutor::new(1, Arc::clone(&gauges));
        let fx = Fixture::new();
        let mut waker_slot = None;
        let done = exec.spawn(|waker| {
            waker_slot = Some(waker);
            fx.task(0)
        });
        let waker = waker_slot.expect("waker");
        eventually("the first poll", || gauges.snapshot().polls >= 1);
        // Catch the worker parked: a notify under `idle` that returns
        // `true` found it waiting, and it cannot park again before `idle`
        // is let go, so `parks` read here is exact.
        let parks = loop {
            let idle = exec.inner.idle.lock();
            if exec.inner.idle_cv.notify_one() {
                break gauges.snapshot().parks;
            }
            drop(idle);
            std::thread::yield_now();
        };
        // `parks` is bumped under `idle` just before the wait, and the
        // wake below takes `idle`: by then the worker is in the condvar,
        // with nothing queued.
        eventually("the worker parks again", || {
            gauges.snapshot().parks == parks + 1
        });
        assert!(exec.shard_stats().iter().all(|s| s.queued == 0));
        fx.ticks.fetch_add(1, Ordering::SeqCst);
        waker.wake(false);
        eventually("the tick is consumed", || {
            fx.consumed.load(Ordering::SeqCst) == 1
        });
        fx.closed.store(true, Ordering::SeqCst);
        waker.wake(false);
        done.wait();
    }

    #[test]
    fn shutdown_abandons_unclosed_tasks_deterministically() {
        let gauges = Arc::new(FleetGauges::default());
        let exec = SentinelExecutor::new(2, Arc::clone(&gauges));
        let fx = Fixture::new();
        let done = exec.spawn(|_waker| fx.task(0));
        exec.shutdown();
        done.wait();
        assert!(fx.abandoned.load(Ordering::SeqCst));
        let snap = gauges.snapshot();
        assert_eq!(snap.abandoned, 1);
        assert_eq!(snap.sentinels, 0);
        assert_eq!(snap.workers, 0);
        // Idempotent.
        exec.shutdown();
    }
}
