//! The loop's contract, checked once per wiring: the three differ in what
//! carries a command, never in what the loop does with it.

use std::sync::atomic::{AtomicUsize, Ordering};

use afs_ipc::{PairTransport, RingPair, RingTransport, Sqe, SyncRegistry};
use afs_net::Network;
use afs_sim::{CostModel, OpTrace};
use afs_telemetry::{intern, Telemetry};
use afs_vfs::{VPath, Vfs};

use super::*;
use crate::logic::{SentinelError, SentinelResult};
use crate::spec::{RuntimeSpec, SentinelSpec, Strategy};
use crate::strategy::executor::SentinelExecutor;

/// What the probe logic saw, shared with the test body.
#[derive(Default)]
struct Seen {
    closes: AtomicUsize,
    writes: Mutex<Vec<Vec<u8>>>,
}

/// Where the probe's reads start over-reporting.
const OVER: u64 = 100;

/// Records writes (failing them on request) and counts close hooks.
struct Probe {
    seen: Arc<Seen>,
    fail_writes: bool,
}

impl SentinelLogic for Probe {
    fn read(&mut self, _: &mut SentinelCtx, offset: u64, buf: &mut [u8]) -> SentinelResult<usize> {
        buf.fill(b'r');
        // From `OVER` on, the routine claims four bytes it had no room for.
        Ok(buf.len() + if offset >= OVER { 4 } else { 0 })
    }

    fn write(&mut self, _: &mut SentinelCtx, _: u64, data: &[u8]) -> SentinelResult<usize> {
        self.seen.writes.lock().push(data.to_vec());
        if self.fail_writes {
            return Err(SentinelError::Other(format!("refused {}", data.len())));
        }
        Ok(data.len())
    }

    fn len(&mut self, _: &mut SentinelCtx) -> SentinelResult<u64> {
        Ok(42)
    }

    fn on_close(&mut self, _: &mut SentinelCtx) -> SentinelResult<()> {
        self.seen.closes.fetch_add(1, Ordering::SeqCst);
        Ok(())
    }
}

/// The application end of each port, driven by hand: the test polls
/// the loop itself between a send and the matching receive.
enum App {
    /// Speaks as the given session.
    Pair(PairTransport<Framed<Op>, Framed<OpReply>>, u32),
    /// Carries the last submission id.
    Ring(RingTransport<Framed<Op>, OpReply>, u64),
}

/// The session the framed rig is admitted as.
const FRAMED_SESSION: u32 = 7;

impl App {
    /// Sends `op`, with `payload` when it is a write. `payload: None`
    /// on a write is the application dying between the command and
    /// its bytes (a ring carries both in one entry, so there it is
    /// simply a write of nothing).
    fn send(&mut self, op: Op, payload: Option<&[u8]>) {
        match self {
            App::Pair(t, session) => {
                t.send_cmd(Framed {
                    session: *session,
                    trace: TraceContext::default(),
                    body: op,
                })
                .expect("cmd");
                if let Some(p) = payload {
                    t.send_data(p).expect("data");
                }
            }
            App::Ring(t, next) => {
                *next += 1;
                t.submit(vec![Sqe {
                    id: *next,
                    cmd: Framed {
                        session: PRIVATE_SESSION,
                        trace: TraceContext::default(),
                        body: op,
                    },
                    payload: payload.map(<[u8]>::to_vec),
                }])
                .expect("submit");
            }
        }
    }

    /// Changes which session a framed application frames as.
    fn speak_as(&mut self, id: u32) {
        if let App::Pair(_, session) = self {
            *session = id;
        }
    }

    fn write(&mut self, data: &[u8]) {
        let len = data.len() as u32;
        self.send(Op::Write { offset: 0, len }, Some(data));
    }

    /// Collects the reply to the last synchronous command.
    fn reply(&mut self) -> OpReply {
        match self {
            App::Pair(t, session) => {
                let frame = t
                    .recv_reply(|f| f.body.announced(), |f, bytes| bytes.keep().map(|_| f))
                    .expect("reply");
                assert_eq!(frame.session, *session, "reply names its session");
                frame.body
            }
            App::Ring(t, next) => t.complete(*next).expect("completion").reply,
        }
    }
}

struct Rig {
    port: &'static str,
    app: App,
    task: Box<dyn SentinelPoll>,
    seen: Arc<Seen>,
    sticky: Sticky,
    joiners: Joiners,
}

pub(crate) fn instruments() -> Instruments {
    let tel = Telemetry::new();
    Instruments {
        model: CostModel::free(),
        trace: Arc::new(OpTrace::new()),
        strategy: "Thread",
        exec: SentinelExecutor::new(1, Arc::clone(tel.fleet())),
        tel,
        sentinel: intern("probe"),
        pinned: false,
        slo: None,
    }
}

/// A sentinel context over a fresh one-file world.
pub(crate) fn probe_ctx() -> SentinelCtx {
    let vfs = Arc::new(Vfs::new());
    let path = VPath::parse("/probe.af").expect("path");
    vfs.create_file(&path).expect("create");
    SentinelCtx::new(
        path,
        "tester".to_owned(),
        &SentinelSpec::new("probe", Strategy::DllThread),
        &RuntimeSpec::default(),
        vfs,
        Network::new(CostModel::free()),
        SyncRegistry::new(),
        CostModel::free(),
        &Telemetry::new(),
    )
    .expect("ctx")
}

fn rig<P: SentinelPort>(
    name: &'static str,
    fail_writes: bool,
    session: u32,
    wire: impl FnOnce(CostModel) -> (App, P),
) -> Rig {
    let ctx = probe_ctx();
    let instr = instruments();
    let seen = Arc::new(Seen::default());
    let sticky = Sticky::default();
    let joiners = Joiners::default();
    joiners.admit(
        Session {
            id: session,
            sticky: Arc::clone(&sticky),
            side: instr.sentinel_side(),
        },
        vec![session],
    );
    let (app, port) = wire(CostModel::free());
    let logic = Box::new(Probe {
        seen: Arc::clone(&seen),
        fail_writes,
    });
    Rig {
        port: name,
        app,
        task: Box::new(SentinelLoop::new(
            logic,
            ctx,
            port,
            joiners.clone(),
            instr.sentinel_side(),
            FreeList::default(),
            instr.tel.sentinel_stats(instr.sentinel),
        )),
        seen,
        sticky,
        joiners,
    }
}

/// One rig per wiring: the pair port private (session 0) and shared,
/// and the ring. The pair rigs ride kernel pipes, the one substrate on
/// which an application can vanish between a command and its payload (a
/// §4.3 sentinel thread dies with its application).
fn rigs(fail_writes: bool) -> [Rig; 3] {
    [
        rig("pair", fail_writes, PRIVATE_SESSION, |model| {
            let (t, port) = PairTransport::kernel(model);
            (App::Pair(t, PRIVATE_SESSION), port)
        }),
        rig("framed pair", fail_writes, FRAMED_SESSION, |model| {
            let (t, port) = PairTransport::kernel(model);
            (App::Pair(t, FRAMED_SESSION), port)
        }),
        rig("ring", fail_writes, PRIVATE_SESSION, |model| {
            let (t, port) = RingPair::shared(model, 4);
            (App::Ring(t, 0), port)
        }),
    ]
}

#[test]
fn a_parked_write_failure_preempts_the_next_synchronous_op_and_nothing_else() {
    for mut r in rigs(true) {
        let port = r.port;
        // Writes park their failure; a second write is not pre-empted
        // by the first's, it runs and parks its own.
        r.app.write(b"one");
        r.app.write(b"three");
        assert_eq!(r.task.poll(), TaskPoll::Pending, "{port}");
        assert_eq!(r.seen.writes.lock().len(), 2, "{port}: both writes ran");
        // The next synchronous op reports the latest parked failure…
        r.app.send(Op::GetSize, None);
        r.task.poll();
        assert_eq!(
            r.app.reply(),
            OpReply::Failed(SentinelError::Other("refused 5".into())),
            "{port}"
        );
        // …exactly once.
        r.app.send(Op::GetSize, None);
        r.task.poll();
        assert_eq!(r.app.reply(), OpReply::Size(42), "{port}");
        // Close is never pre-empted: it answers for itself, and the
        // failure stays parked for the handle's own check.
        r.app.write(b"x");
        r.app.send(Op::Close, None);
        assert_eq!(r.task.poll(), TaskPoll::Ready, "{port}");
        assert_eq!(r.app.reply(), OpReply::Done, "{port}");
        assert!(r.sticky.take().is_some(), "{port}: still parked");
    }
}

/// A read routine that over-reports — on the last segment or before it —
/// fails that command and nothing else: no bytes travel, the loop stays
/// up and the next command is served.
#[test]
fn an_over_reporting_read_routine_fails_the_command_and_the_loop_stays_up() {
    let over_reads = [
        Op::Read {
            offset: OVER,
            len: 8,
        },
        Op::ReadScatter {
            offset: OVER,
            lens: vec![4, 4],
        },
    ];
    for over_read in over_reads {
        for mut r in rigs(false) {
            let port = r.port;
            r.app.send(over_read.clone(), None);
            assert_eq!(r.task.poll(), TaskPoll::Pending, "{port}");
            assert!(matches!(r.app.reply(), OpReply::Failed(_)), "{port}");
            r.app.send(Op::Read { offset: 0, len: 4 }, None);
            assert_eq!(r.task.poll(), TaskPoll::Pending, "{port}");
            assert_eq!(r.app.reply(), OpReply::Read { n: 4 }, "{port}");
        }
    }
}

#[test]
fn the_close_hook_runs_exactly_once_on_every_exit() {
    let closes = |seen: &Seen| seen.closes.load(Ordering::SeqCst);

    // Close served.
    for mut r in rigs(false) {
        r.app.send(Op::Close, None);
        assert_eq!(r.task.poll(), TaskPoll::Ready, "{}", r.port);
        assert_eq!(r.app.reply(), OpReply::Done, "{}", r.port);
        r.task.abandon();
        assert_eq!(closes(&r.seen), 1, "{}: Close", r.port);
    }
    // The application vanished without Close.
    for mut r in rigs(false) {
        r.app.write(b"last");
        drop(r.app);
        assert_eq!(r.task.poll(), TaskPoll::Ready, "{}", r.port);
        assert_eq!(*r.seen.writes.lock(), [b"last".to_vec()], "{}", r.port);
        assert_eq!(closes(&r.seen), 1, "{}: lane closed", r.port);
    }
    // The wire died under a reply.
    for mut r in rigs(false) {
        r.app.send(Op::Read { offset: 0, len: 8 }, None);
        drop(r.app);
        assert_eq!(r.task.poll(), TaskPoll::Ready, "{}", r.port);
        assert_eq!(closes(&r.seen), 1, "{}: dead under a reply", r.port);
    }
    // The wire died between a Write command and its payload: the
    // write must not run on bytes that never arrived.
    for mut r in rigs(false) {
        r.app.send(Op::Write { offset: 0, len: 4 }, None);
        drop(r.app);
        assert_eq!(r.task.poll(), TaskPoll::Ready, "{}", r.port);
        if !matches!(r.port, "ring") {
            assert!(r.seen.writes.lock().is_empty(), "{}", r.port);
        }
        assert_eq!(closes(&r.seen), 1, "{}: dead mid-write", r.port);
    }
    // Executor shutdown with the application still attached.
    for mut r in rigs(false) {
        assert_eq!(r.task.poll(), TaskPoll::Pending, "{}", r.port);
        r.task.abandon();
        assert_eq!(closes(&r.seen), 1, "{}: abandon", r.port);
    }
}

#[test]
fn sessions_join_a_running_loop_and_departed_ones_are_pruned() {
    const LATE: u32 = 9;
    let mut r = rig("framed pair", true, FRAMED_SESSION, |model| {
        let (t, port) = PairTransport::kernel(model);
        (App::Pair(t, FRAMED_SESSION), port)
    });
    r.app.write(b"mine");
    r.task.poll();
    assert!(r.sticky.take().is_some(), "parked on its session");

    // A second session joins as the first departs. It is served under
    // its own record: the first's failures are not its failures.
    let late = Sticky::default();
    r.joiners.admit(
        Session {
            id: LATE,
            sticky: Arc::clone(&late),
            side: instruments().sentinel_side(),
        },
        vec![LATE],
    );
    r.app.write(b"unflushed");
    r.app.speak_as(LATE);
    r.app.send(Op::GetSize, None);
    r.task.poll();
    assert_eq!(r.app.reply(), OpReply::Size(42));

    // The departed session's last staged write was still on the wire
    // ahead of that: it ran, and its failure had nowhere to go.
    assert_eq!(r.seen.writes.lock().len(), 2);
    assert!(r.sticky.take().is_some(), "parked before the prune");
    r.app.speak_as(FRAMED_SESSION);
    r.app.write(b"straggler");
    r.task.poll();
    assert_eq!(r.seen.writes.lock().len(), 3, "a straggler still runs");
    assert!(late.take().is_none(), "and parks on nobody else");
}
