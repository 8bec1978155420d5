//! The sentinel executor: thousands of active files on a bounded worker
//! pool.
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
//! Scheduling is one [`RunQueue`]: the tasks with something to observe,
//! oldest first, under one lock, which the workers pop from and park on.
//! A sentinel pinned off the pool (§3 composition) is the same task on a
//! run queue of its own, drained by a thread of its own with the same
//! loop. Virtual time is preserved exactly: each task carries its own
//! [`SimTime`] across polls, installed on whichever thread polls it, so a
//! sentinel's virtual timeline is identical to the one its dedicated
//! thread would have produced.

use std::cell::Cell;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::{Condvar, Mutex};

use afs_ipc::{ChannelWaker, SentinelExit, Wake};
use afs_sim::{clock, SimTime};
use afs_telemetry::{FleetGauges, SentinelStats};

thread_local! {
    /// `true` on any thread currently executing sentinel code — a thread
    /// draining a run queue, or the sender of an awaited command while it
    /// runs one. A sentinel spawned from such a thread must never be
    /// pooled: the spawning sentinel may block a worker waiting on the new
    /// one, and with every worker so occupied the pool deadlocks (§3
    /// composition chains).
    static IN_SENTINEL: Cell<bool> = const { Cell::new(false) };
}

/// Whether the current thread is running sentinel code (see
/// [`IN_SENTINEL`]).
pub(crate) fn in_sentinel_context() -> bool {
    IN_SENTINEL.with(Cell::get)
}

/// Default worker-pool bound M: one worker per core.
pub(crate) fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get)
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
/// blocking dispatch loop. `poll` serves what is available and returns
/// instead of blocking on an empty command lane. It may return `Pending`
/// as soon as a take leaves its open lane empty, without looking again: a
/// send after that take finds the task running and flags it `NOTIFIED`,
/// and [`Inner::run`] polls again.
pub(crate) trait SentinelPoll: Send {
    /// Drains the transport; called by one thread at a time — a worker, a
    /// pinned task's own thread, or the sender of an awaited command.
    fn poll(&mut self) -> TaskPoll;

    /// Runs the sentinel's close hook without a transport exchange. Called
    /// exactly once, at executor shutdown, for a task whose application
    /// side never closed it — state still persists.
    fn abandon(&mut self);
}

// Task scheduling states. Transitions:
//   IDLE -QUEUED-> (waker)   QUEUED -RUNNING-> (a thread pops it)
//   IDLE -RUNNING-> (awaited waker: the sender polls it)
//   RUNNING -NOTIFIED-> (waker during poll, the runner re-polls)
//   RUNNING -IDLE-> (poll returned Pending, no wake raced)
//   any -DONE-> (poll returned Ready)
const IDLE: u8 = 0;
const QUEUED: u8 = 1;
const RUNNING: u8 = 2;
const NOTIFIED: u8 = 3;
const DONE: u8 = 4;

struct TaskHandle {
    id: u64,
    state: AtomicU8,
    /// The state machine and its clock: one lock per poll.
    cell: Mutex<TaskCell>,
    /// Where a wake puts the task: the pool's run queue, or a pinned
    /// task's own.
    queue: Arc<RunQueue>,
    /// Signalled when the task retires; the closing application reaps it.
    exit: Arc<SentinelExit>,
    /// Its sentinel's, where a fault is counted.
    stats: Arc<SentinelStats>,
}

impl TaskHandle {
    /// Runs `f` on the task's machine under the task's own clock (or none)
    /// in place of the thread's: the one place a sentinel runs out of line.
    /// `None`: the task has no machine, or `f` faulted — counted, and the
    /// caller retires the task as one whose wire died; the thread carries on.
    fn enter<R>(&self, f: impl FnOnce(&mut dyn SentinelPoll) -> R) -> Option<R> {
        let mut cell = self.cell.lock();
        let TaskCell { machine, vtime } = &mut *cell;
        let machine = machine.as_deref_mut()?;
        let guard = clock::enter(*vtime);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(machine)));
        *vtime = vtime.map(|_| clock::now());
        drop(guard);
        result.map_err(|_| self.stats.fault()).ok()
    }
}

/// What a poll needs of its task, under the one lock it takes.
struct TaskCell {
    /// The state machine itself; taken (and dropped, closing its
    /// transport) when the task retires.
    machine: Option<Box<dyn SentinelPoll>>,
    /// The task's virtual clock, carried across polls. `None` means the
    /// opener had no clock (wall-clock benchmarking mode).
    vtime: Option<SimTime>,
}

/// Tasks with something to observe, oldest first, and the condvar the
/// threads draining them park on. The pool has one for its workers; a
/// pinned task has one of its own, drained by its own thread.
///
/// A traced pass of every `benchmark/` workload finds it at most one task
/// deep, with no wake-ups at all: a command's sender runs an idle sentinel
/// itself, so the queue carries only posted work. One lock serves that.
#[derive(Default)]
struct RunQueue {
    state: Mutex<Queued>,
    cv: Condvar,
}

#[derive(Default)]
struct Queued {
    tasks: VecDeque<Arc<TaskHandle>>,
    /// Set once; the draining threads return instead of parking.
    closed: bool,
}

impl RunQueue {
    /// Appends `task` and wakes one parked thread; returns the queue's new
    /// length.
    fn push(&self, task: &Arc<TaskHandle>) -> usize {
        let depth = {
            let mut queued = self.state.lock();
            queued.tasks.push_back(Arc::clone(task));
            queued.tasks.len()
        };
        // After the unlock: the shim's condvar counts a waiter in under
        // the lock, so this finds it either way.
        self.cv.notify_one();
        depth
    }

    /// The oldest queued task, parking while there is none; `None` once
    /// the queue is closed.
    fn pop(&self, gauges: &FleetGauges) -> Option<Arc<TaskHandle>> {
        let mut queued = self.state.lock();
        loop {
            if queued.closed {
                return None;
            }
            if let Some(task) = queued.tasks.pop_front() {
                return Some(task);
            }
            gauges.park();
            self.cv.wait(&mut queued);
        }
    }

    /// Sends every thread draining the queue home. What is still queued is
    /// dropped: the live-task table holds it, and teardown finishes it.
    fn close(&self) {
        let mut queued = self.state.lock();
        queued.closed = true;
        queued.tasks.clear();
        drop(queued);
        self.cv.notify_all();
    }

    fn len(&self) -> usize {
        self.state.lock().tasks.len()
    }
}

struct Inner {
    /// The run queue the `worker_cap` workers drain.
    pool: Arc<RunQueue>,
    worker_cap: usize,
    workers: Mutex<Vec<JoinHandle<()>>>,
    /// Each pinned task's run queue and the thread draining it, joined at
    /// shutdown *after* the pool drains: a pooled task's close hook may
    /// still round-trip to a pinned sentinel it composed over.
    pinned: Mutex<Vec<(Arc<RunQueue>, JoinHandle<()>)>>,
    /// Live tasks, pooled and pinned: what teardown finishes.
    tasks: Mutex<HashMap<u64, Arc<TaskHandle>>>,
    shutdown: AtomicBool,
    next_id: AtomicU64,
    gauges: Arc<FleetGauges>,
}

/// The bounded scheduler all §4.2/§4.3 and mux sentinels run on. One per
/// [`ActiveFilesLayer`](crate::ActiveFilesLayer); shared by every
/// `ActiveFileSystem` the layer wraps.
pub(crate) struct SentinelExecutor {
    inner: Arc<Inner>,
}

impl SentinelExecutor {
    /// Creates an executor with `workers` worker threads, spawned lazily
    /// on first use.
    pub(crate) fn new(workers: usize, gauges: Arc<FleetGauges>) -> Arc<SentinelExecutor> {
        Arc::new(SentinelExecutor {
            inner: Arc::new(Inner {
                pool: Arc::default(),
                worker_cap: workers.max(1),
                workers: Mutex::new(Vec::new()),
                pinned: Mutex::new(Vec::new()),
                tasks: Mutex::new(HashMap::new()),
                shutdown: AtomicBool::new(false),
                next_id: AtomicU64::new(0),
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
        self.inner.tasks.lock().len() as u64
    }

    /// Tasks waiting on a run queue — the pool's or a pinned task's — for
    /// a thread to poll them.
    pub(crate) fn queued(&self) -> usize {
        let pinned = self.inner.pinned.lock();
        let own: usize = pinned.iter().map(|(queue, _)| queue.len()).sum();
        self.inner.pool.len() + own
    }

    /// Registers a new sentinel task. `build` receives the readiness waker
    /// to install on the task's command lane and returns the state
    /// machine; the task inherits the caller's virtual clock (like a
    /// spawned sentinel thread would) and is scheduled once immediately,
    /// covering anything that arrived before the waker was installed.
    ///
    /// A `pinned` task — a §3 composition open, or anything spawned from
    /// sentinel code — gets a run queue and a thread of its own instead of
    /// the pool's: its opener may block a worker waiting on it, and with
    /// every worker so occupied a pooled task would never run.
    ///
    /// The returned exit is signalled when the task retires, with its
    /// final time; a fault is counted in `stats`.
    pub(crate) fn spawn<F>(
        &self,
        pinned: bool,
        stats: Arc<SentinelStats>,
        build: F,
    ) -> Arc<SentinelExit>
    where
        F: FnOnce(ChannelWaker) -> Box<dyn SentinelPoll>,
    {
        let inner = &self.inner;
        let pinned = pinned || in_sentinel_context();
        let queue = if pinned {
            inner.gauges.task_pinned();
            Arc::default()
        } else {
            Inner::ensure_workers(inner);
            Arc::clone(&inner.pool)
        };
        let exit = Arc::new(SentinelExit::default());
        let handle = Arc::new(TaskHandle {
            id: inner.next_id.fetch_add(1, Ordering::Relaxed),
            // Born QUEUED: wakes during construction are satisfied by the
            // unconditional first schedule below.
            state: AtomicU8::new(QUEUED),
            cell: Mutex::new(TaskCell {
                machine: None,
                vtime: clock::current(),
            }),
            queue,
            exit: Arc::clone(&exit),
            stats,
        });
        let waker: ChannelWaker = Arc::new(TaskWaker {
            inner: Arc::clone(inner),
            task: Arc::clone(&handle),
        });
        handle.cell.lock().machine = Some(build(waker));
        {
            let mut tasks = inner.tasks.lock();
            tasks.insert(handle.id, Arc::clone(&handle));
            // Under the lock: the live gauge is a level, so two threads'
            // counts must land in the order they were taken.
            inner.gauges.task_spawned(tasks.len() as u64);
        }
        if inner.shutdown.load(Ordering::Acquire) {
            // Spawn raced executor teardown: nothing will ever poll it, so
            // finish the task on the spot.
            inner.finish_inline(handle);
            return exit;
        }
        inner.enqueue(&handle);
        if pinned {
            let thread = Inner::start(inner, "afs-fleet-pinned".to_owned(), &handle.queue);
            inner
                .pinned
                .lock()
                .push((Arc::clone(&handle.queue), thread));
        }
        exit
    }

    /// Deterministic teardown: joins every worker and finishes each
    /// remaining pooled task inline (abandoning — close hook still run —
    /// any whose application side is somehow still live), then does the
    /// same for the pinned tasks and their threads. Idempotent.
    pub(crate) fn shutdown(&self) {
        self.inner.shutdown_and_drain();
    }
}

impl Drop for SentinelExecutor {
    fn drop(&mut self) {
        self.inner.shutdown_and_drain();
    }
}

/// A task's readiness hook, installed on its command lane. It holds the
/// executor strongly, so a ring touches no reference count. The cycle
/// that makes (executor → task → its lane's sentinel end → hook) ends when
/// the task retires or the executor drains, either of which drops the
/// state machine. A lane's application end may keep the hook, and with it
/// a drained executor's memory, until that end goes too; a task rung
/// meanwhile is `DONE`, and the wake does nothing.
struct TaskWaker {
    inner: Arc<Inner>,
    task: Arc<TaskHandle>,
}

impl Wake for TaskWaker {
    fn wake(&self, awaited: bool) {
        if awaited {
            self.inner.wake_awaited(&self.task);
        } else {
            self.inner.wake(&self.task);
        }
    }
}

impl Inner {
    fn ensure_workers(self: &Arc<Inner>) {
        let mut workers = self.workers.lock();
        if !workers.is_empty() || self.shutdown.load(Ordering::Acquire) {
            return;
        }
        for index in 0..self.worker_cap {
            workers.push(self.start(format!("afs-fleet-{index}"), &self.pool));
        }
        self.gauges.set_workers(self.worker_cap as u64);
    }

    /// Starts a thread running [`Inner::worker_loop`] over `queue`.
    fn start(self: &Arc<Inner>, name: String, queue: &Arc<RunQueue>) -> JoinHandle<()> {
        let (inner, queue) = (Arc::clone(self), Arc::clone(queue));
        afs_sim::spawn(name, None, move || inner.worker_loop(&queue))
    }

    fn is_pooled(&self, task: &TaskHandle) -> bool {
        Arc::ptr_eq(&task.queue, &self.pool)
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
                    self.enqueue(task);
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
    /// on the answer next, so an idle task — pooled or pinned — is claimed
    /// and run right here, on the sender's thread, by the same
    /// [`Inner::run`] a worker uses, instead of waking a worker and
    /// sleeping until it is done. The task's own clock is installed for
    /// each poll and the sender's comes back after it; the thread counts
    /// as sentinel code meanwhile, so a §3 composition open still pins.
    /// Any other state means a thread has the task or is coming for it: an
    /// ordinary wake.
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

    fn enqueue(&self, task: &Arc<TaskHandle>) {
        let depth = task.queue.push(task);
        self.gauges.note_queue_depth(depth as u64);
    }

    /// What every thread draining a run queue runs — a pool worker, or a
    /// pinned task's own thread: take the oldest task and run it, until
    /// the queue is closed.
    fn worker_loop(&self, queue: &RunQueue) {
        IN_SENTINEL.with(|flag| flag.set(true));
        while let Some(task) = queue.pop(&self.gauges) {
            self.run(&task);
        }
    }

    /// Polls `task` until its lane is drained, re-polling if a wake raced
    /// the poll — the one way a send after the poll's last take is
    /// served — under the task's own virtual clock, one lock per poll.
    /// Whoever claimed the task runs this: a thread that popped it, or the
    /// sender of an awaited command.
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

    /// One poll of the task, [entered](TaskHandle::enter); `None` means
    /// the task was already gone, or faulted.
    fn poll_once(&self, task: &TaskHandle) -> Option<TaskPoll> {
        task.enter(|machine| {
            self.gauges.poll();
            machine.poll()
        })
    }

    /// Marks the task terminated: unregister, send a pinned task's thread
    /// home, signal its exit, and drop the state machine, closing its
    /// lanes — after the signal, so an application that finds them closed
    /// finds the sentinel exited too.
    fn retire(&self, task: &Arc<TaskHandle>) {
        let (machine, final_time) = {
            let mut cell = task.cell.lock();
            (cell.machine.take(), cell.vtime.unwrap_or(0))
        };
        task.state.store(DONE, Ordering::Release);
        {
            let mut tasks = self.tasks.lock();
            tasks.remove(&task.id);
            self.gauges.task_retired(tasks.len() as u64);
        }
        if !self.is_pooled(task) {
            task.queue.close();
        }
        task.exit.signal(final_time);
        drop(machine);
    }

    /// Polls a task to completion on the current thread, abandoning it
    /// (close hook, no exchange) if it still has a live application side.
    fn finish_inline(&self, task: Arc<TaskHandle>) {
        task.state.store(RUNNING, Ordering::Release);
        if self.poll_once(&task) == Some(TaskPoll::Pending)
            && task.enter(|machine| machine.abandon()).is_some()
        {
            self.gauges.task_abandoned();
        }
        self.retire(&task);
    }

    /// Finishes, on this thread, every live task `which` selects.
    fn finish_all(&self, which: impl Fn(&TaskHandle) -> bool) {
        loop {
            let next = self.tasks.lock().values().find(|t| which(t)).cloned();
            match next {
                Some(task) => self.finish_inline(task),
                None => return,
            }
        }
    }

    fn shutdown_and_drain(&self) {
        if self.shutdown.swap(true, Ordering::AcqRel) {
            // Second caller (e.g. Drop after an explicit shutdown): the
            // first pass already joined every thread and drained every task.
            return;
        }
        self.pool.close();
        let workers = std::mem::take(&mut *self.workers.lock());
        for worker in workers {
            let _ = worker.join();
        }
        // The pool drains on this thread — deterministic teardown — and
        // before the pinned tasks: a pooled task's close hook may
        // round-trip to a pinned sentinel it composed over.
        self.finish_all(|task| self.is_pooled(task));
        let pinned = std::mem::take(&mut *self.pinned.lock());
        for (queue, _) in &pinned {
            queue.close();
        }
        for (_, thread) in pinned {
            let _ = thread.join();
        }
        self.finish_all(|_| true);
        self.gauges.set_workers(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    use afs_ipc::Framed;
    use afs_telemetry::TraceContext;

    use crate::ctx::SentinelCtx;
    use crate::logic::{SentinelLogic, SentinelResult};
    use crate::strategy::dispatch::tests::{instruments, probe_ctx};
    use crate::strategy::dispatch::{Joiners, SentinelLoop, Session, PRIVATE_SESSION};
    use crate::strategy::{Op, OpReply, Sticky};

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
        let done = exec.spawn(false, Arc::default(), |waker| {
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
        let done = exec.spawn(false, Arc::default(), |waker| {
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
        let done = exec.spawn(false, Arc::default(), |waker| {
            waker_slot = Some(waker);
            fx.task(10)
        });
        let waker = waker_slot.expect("waker");
        eventually("the task idles after its first poll", || idle(&exec));
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

    /// The application end of a §4.3 pair lane.
    type App = afs_ipc::PairTransport<Framed<Op>, Framed<OpReply>>;

    fn framed(body: Op) -> Framed<Op> {
        Framed {
            session: PRIVATE_SESSION,
            trace: TraceContext::default(),
            body,
        }
    }

    /// A sentinel routine that, serving a read, posts a write through the
    /// application's sender, on the thread running the loop: a send that
    /// lands after the take that emptied the lane and before the loop's
    /// early `Pending`.
    struct PostsDuringRead {
        app: Arc<App>,
        served: Arc<Mutex<Vec<&'static str>>>,
    }

    impl SentinelLogic for PostsDuringRead {
        fn read(&mut self, _: &mut SentinelCtx, _: u64, buf: &mut [u8]) -> SentinelResult<usize> {
            self.served.lock().push("read");
            self.app
                .send_cmd(framed(Op::Write { offset: 0, len: 1 }))
                .expect("post");
            self.app.send_data(b"w").expect("payload");
            Ok(buf.len())
        }

        fn write(&mut self, _: &mut SentinelCtx, _: u64, data: &[u8]) -> SentinelResult<usize> {
            self.served.lock().push("write");
            Ok(data.len())
        }
    }

    #[test]
    fn a_send_that_races_the_loops_early_pending_is_served_in_the_same_run() {
        let instr = instruments();
        let (app, port) = App::shared(afs_sim::CostModel::free());
        let app = Arc::new(app);
        let served = Arc::default();
        let logic = Box::new(PostsDuringRead {
            app: Arc::clone(&app),
            served: Arc::clone(&served),
        });
        let joiners = Joiners::default();
        let session = Session {
            id: PRIVATE_SESSION,
            sticky: Sticky::default(),
            side: instr.sentinel_side(),
        };
        joiners.admit(session, vec![PRIVATE_SESSION]);
        let staging = afs_ipc::FreeList::default();
        let done = SentinelLoop::spawn(&instr, logic, probe_ctx(), port, joiners, staging);
        eventually("the loop idles after its first poll", || idle(&instr.exec));
        let polls = instr.tel.fleet().snapshot().polls;
        // The awaited read runs the idle loop on this thread. Its take
        // empties the lane, so the loop returns `Pending` once the read
        // is served; the write posted meanwhile flagged the running task
        // `NOTIFIED`, and the same run polls again and serves it.
        app.send_awaited(framed(Op::Read { offset: 0, len: 4 }), 4)
            .expect("read");
        assert_eq!(*served.lock(), ["read", "write"]);
        assert_eq!(instr.tel.fleet().snapshot().polls, polls + 2);
        let reply = |into: &mut [u8]| {
            app.recv_reply(
                |f| f.body.announced(),
                |f, bytes| Ok((f.body, bytes.land(into)?)),
            )
        };
        assert_eq!(reply(&mut [0; 4]), Ok((OpReply::Read { n: 4 }, 4)));
        app.send_awaited(framed(Op::Close), 0).expect("close");
        assert_eq!(reply(&mut []), Ok((OpReply::Done, 0)));
        done.wait();
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
                let done = exec.spawn(false, Arc::default(), |waker| {
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
        assert_eq!(exec.live(), 0);
    }

    /// Whether some live task sits idle.
    fn idle(exec: &SentinelExecutor) -> bool {
        let tasks = exec.inner.tasks.lock();
        tasks
            .values()
            .any(|t| t.state.load(Ordering::SeqCst) == IDLE)
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
    fn every_wake_is_consumed_and_the_queue_empties_at_rest() {
        const TASKS: usize = 64;
        const WAKES: usize = 1_000;
        let exec = SentinelExecutor::new(2, Arc::new(FleetGauges::default()));
        let fixtures: Vec<Fixture> = (0..TASKS).map(|_| Fixture::new()).collect();
        let mut wakers = Vec::new();
        let dones: Vec<_> = fixtures
            .iter()
            .map(|fx| {
                exec.spawn(false, Arc::default(), |waker| {
                    wakers.push(waker);
                    fx.task(0)
                })
            })
            .collect();
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            // Each thread wakes its own quarter of the tasks, round-robin.
            for (fxs, wakers) in fixtures.chunks(TASKS / 4).zip(wakers.chunks(TASKS / 4)) {
                let start = &start;
                scope.spawn(move || {
                    start.wait();
                    for _ in 0..WAKES {
                        for (fx, waker) in fxs.iter().zip(wakers) {
                            fx.ticks.fetch_add(1, Ordering::SeqCst);
                            waker.wake(false);
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
        eventually("the run queue empty at rest", || exec.queued() == 0);
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
        let done = exec.spawn(false, Arc::default(), |waker| {
            waker_slot = Some(waker);
            fx.task(0)
        });
        let waker = waker_slot.expect("waker");
        eventually("the first poll", || gauges.snapshot().polls >= 1);
        // Catch the worker parked: a notify under the queue's lock that
        // returns `true` found it waiting, and it cannot park again before
        // the lock is let go, so `parks` read here is exact.
        let pool = &exec.inner.pool;
        let parks = loop {
            let queued = pool.state.lock();
            if pool.cv.notify_one() {
                break gauges.snapshot().parks;
            }
            drop(queued);
            std::thread::yield_now();
        };
        // `parks` is bumped under the queue's lock just before the wait,
        // and the wake below takes that lock: by then the worker is in the
        // condvar, with nothing queued.
        eventually("the worker parks again", || {
            gauges.snapshot().parks == parks + 1
        });
        assert_eq!(exec.queued(), 0);
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
        let done = exec.spawn(false, Arc::default(), |_waker| fx.task(0));
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

    /// A sentinel whose every poll faults.
    struct Faults;

    impl SentinelPoll for Faults {
        fn poll(&mut self) -> TaskPoll {
            panic!("sentinel fault: poll");
        }

        fn abandon(&mut self) {}
    }

    #[test]
    fn a_task_that_faults_retires_and_its_worker_serves_on() {
        let exec = SentinelExecutor::new(1, Arc::new(FleetGauges::default()));
        let stats = Arc::new(SentinelStats::default());
        let _clock = clock::install(1_000);
        let faulted = exec.spawn(false, Arc::clone(&stats), |_waker| Box::new(Faults));
        assert_eq!(faulted.wait(), 1_000, "retired at the time it faulted");
        assert_eq!(stats.snapshot().faults, 1);
        // The pool's one worker ran the fault and serves the next task.
        let fx = Fixture::new();
        fx.closed.store(true, Ordering::SeqCst);
        exec.spawn(false, Arc::default(), |_waker| fx.task(0))
            .wait();
        assert_eq!(exec.live(), 0);
    }

    #[test]
    fn a_pinned_task_runs_on_a_thread_of_its_own_that_ends_with_it() {
        let gauges = Arc::new(FleetGauges::default());
        let exec = SentinelExecutor::new(1, Arc::clone(&gauges));
        let fx = Fixture::new();
        let mut waker_slot = None;
        let done = exec.spawn(true, Arc::default(), |waker| {
            waker_slot = Some(waker);
            fx.task(0)
        });
        let waker = waker_slot.expect("waker");
        fx.ticks.fetch_add(2, Ordering::SeqCst);
        waker.wake(false);
        eventually("the ticks are consumed", || {
            fx.consumed.load(Ordering::SeqCst) == 2
        });
        fx.closed.store(true, Ordering::SeqCst);
        waker.wake(false);
        done.wait();
        let snap = gauges.snapshot();
        assert_eq!((snap.pinned, snap.sentinels), (1, 0));
        assert_eq!(snap.workers, 0, "a pinned task starts no pool worker");
        eventually("the pinned thread ends with its task", || {
            exec.inner.pinned.lock()[0].1.is_finished()
        });
    }

    #[test]
    fn an_awaited_wake_runs_an_idle_pinned_task_on_its_sender() {
        let exec = SentinelExecutor::new(1, Arc::new(FleetGauges::default()));
        let fx = Fixture::new();
        let mut waker_slot = None;
        let done = exec.spawn(true, Arc::default(), |waker| {
            waker_slot = Some(waker);
            fx.task(0)
        });
        let waker = waker_slot.expect("waker");
        eventually("the task idles after its first poll", || idle(&exec));
        fx.ticks.fetch_add(3, Ordering::SeqCst);
        waker.wake(true);
        // Served before the wake returned: on this thread, not its own.
        assert_eq!(fx.consumed.load(Ordering::SeqCst), 3);
        fx.closed.store(true, Ordering::SeqCst);
        waker.wake(true);
        done.wait();
        assert_eq!(exec.live(), 0);
    }

    #[test]
    fn shutdown_abandons_pinned_tasks_after_the_pool() {
        let gauges = Arc::new(FleetGauges::default());
        let exec = SentinelExecutor::new(1, Arc::clone(&gauges));
        let (pooled, pinned) = (Fixture::new(), Fixture::new());
        let pooled_done = exec.spawn(false, Arc::default(), |_waker| pooled.task(0));
        let pinned_done = exec.spawn(true, Arc::default(), |_waker| pinned.task(0));
        exec.shutdown();
        pooled_done.wait();
        pinned_done.wait();
        assert!(pooled.abandoned.load(Ordering::SeqCst));
        assert!(pinned.abandoned.load(Ordering::SeqCst));
        let snap = gauges.snapshot();
        assert_eq!((snap.abandoned, snap.sentinels, snap.workers), (2, 0, 0));
        assert!(exec.inner.pinned.lock().is_empty(), "pinned threads joined");
    }
}
