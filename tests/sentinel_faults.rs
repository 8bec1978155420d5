//! A sentinel's fault is its file's error.
//!
//! A sentinel is third-party code under an unmodified application. When
//! one of its routines panics, the fault is caught where the sentinel was
//! entered — the executor's one entry, a dedicated sentinel thread, the
//! §4.4 inline call, the open hook — and ends that sentinel the way a
//! dead wire does. These tests pin what the application then sees, on
//! every strategy, for every hook it carries, private, shared and batched:
//!
//! - an error, never an unwind into `ReadFile`/`CloseHandle`;
//! - a `CloseHandle` that returns (within [`BOUND`]: each case runs on a
//!   thread of its own holding the world, so a hang fails the case
//!   instead of wedging the suite);
//! - a healthy file in the same world that still reads;
//! - one `afs_sentinel_faults_total` per fault.
//!
//! On the three command carriers (§4.2, §4.3, §4.4) the transcript is
//! one: the op that faults fails `ERROR_BROKEN_PIPE`, so does every later
//! op, and a close after the fault succeeds, as it does for any sentinel
//! already gone; a close whose own hook faults fails `ERROR_BROKEN_PIPE`.
//! A posted write is acknowledged before its sentinel runs it, so here a
//! write is followed by a flush, the synchronous op where any write-behind
//! failure surfaces. §4.1 has no channel to say why a stream ended: its
//! reads see end-of-stream, its writes a broken pipe once the sentinel is
//! gone, and its close succeeds.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Once};
use std::time::{Duration, Instant};

use activefiles::prelude::*;
use activefiles::{Handle, ProcessIo, RawProcessSentinel, SentinelCtx, SentinelResult, VPath};

/// How long any one case may take to come back.
const BOUND: Duration = Duration::from_secs(3);

/// Every panic a sentinel here raises starts with this.
const FAULT: &str = "sentinel fault";

/// The data part every file starts with.
const DATA: &[u8; 16] = b"0123456789abcdef";

/// The routines a sentinel is entered through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Hook {
    OnOpen,
    Read,
    Write,
    Len,
    Flush,
    Control,
    OnClose,
}

const HOOKS: [Hook; 7] = [
    Hook::OnOpen,
    Hook::Read,
    Hook::Write,
    Hook::Len,
    Hook::Flush,
    Hook::Control,
    Hook::OnClose,
];

impl Hook {
    fn name(self) -> &'static str {
        match self {
            Hook::OnOpen => "on_open",
            Hook::Read => "read",
            Hook::Write => "write",
            Hook::Len => "len",
            Hook::Flush => "flush",
            Hook::Control => "control",
            Hook::OnClose => "on_close",
        }
    }

    /// §4.1 streams carry no commands: only the open, the two streams and
    /// the close reach its sentinel.
    fn carried_by(self, strategy: Strategy) -> bool {
        strategy != Strategy::Process
            || matches!(
                self,
                Hook::OnOpen | Hook::Read | Hook::Write | Hook::OnClose
            )
    }
}

/// A memory-backed file whose hook named by its spec's `fault` key
/// panics, while the world's fuse has charges left.
struct Faulty {
    fault: Option<String>,
    fuse: Arc<AtomicUsize>,
}

impl Faulty {
    fn enter(&self, hook: &str) {
        let armed = self.fault.as_deref() == Some(hook);
        if armed
            && self
                .fuse
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                .is_ok()
        {
            panic!("{FAULT}: {hook}");
        }
    }
}

impl SentinelLogic for Faulty {
    fn on_open(&mut self, _: &mut SentinelCtx) -> SentinelResult<()> {
        self.enter("on_open");
        Ok(())
    }

    fn read(
        &mut self,
        ctx: &mut SentinelCtx,
        offset: u64,
        buf: &mut [u8],
    ) -> SentinelResult<usize> {
        self.enter("read");
        ctx.cache().read_at(offset, buf)
    }

    fn write(&mut self, ctx: &mut SentinelCtx, offset: u64, data: &[u8]) -> SentinelResult<usize> {
        self.enter("write");
        ctx.cache().write_at(offset, data)
    }

    fn len(&mut self, ctx: &mut SentinelCtx) -> SentinelResult<u64> {
        self.enter("len");
        ctx.cache().len()
    }

    fn flush(&mut self, _: &mut SentinelCtx) -> SentinelResult<()> {
        self.enter("flush");
        Ok(())
    }

    fn control(&mut self, _: &mut SentinelCtx, _: u32, payload: &[u8]) -> SentinelResult<Vec<u8>> {
        self.enter("control");
        Ok(payload.to_vec())
    }

    fn on_close(&mut self, _: &mut SentinelCtx) -> SentinelResult<()> {
        self.enter("on_close");
        Ok(())
    }
}

/// A hand-written §4.1 sentinel whose `main` panics at once.
struct RawFaulty;

impl RawProcessSentinel for RawFaulty {
    fn run(&mut self, _io: ProcessIo) {
        panic!("{FAULT}: run");
    }
}

/// Keeps the sentinels' own panics out of the test output; any other
/// panic is reported as usual.
fn quiet_faults() {
    static QUIET: Once = Once::new();
    QUIET.call_once(|| {
        let report = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let message = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("");
            if !message.starts_with(FAULT) {
                report(info);
            }
        }));
    });
}

/// A world whose first `faults` armed hook calls panic: `faulty` names
/// the armed sentinel, `healthy` the same logic never armed.
fn world(workers: usize, faults: usize) -> Arc<AfsWorld> {
    quiet_faults();
    let world = Arc::new(AfsWorld::builder().fleet_workers(workers).build());
    let fuse = Arc::new(AtomicUsize::new(faults));
    for name in ["faulty", "healthy"] {
        let fuse = Arc::clone(&fuse);
        world.sentinels().register(name, move |spec| {
            let fault = spec.config().get("fault").cloned();
            let fuse = Arc::clone(&fuse);
            Box::new(Faulty { fault, fuse })
        });
    }
    world
        .sentinels()
        .register_raw("raw-faulty", |_| Box::new(RawFaulty));
    world
}

/// How a file is opened: alone, as a session on a shared sentinel, or as
/// a session on a shared ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    Private,
    Shared,
    Batched,
}

/// The shapes `strategy` has: a ring only out of line (§4.2/§4.3).
fn shapes(strategy: Strategy) -> &'static [Shape] {
    match strategy {
        Strategy::ProcessControl | Strategy::DllThread => {
            &[Shape::Private, Shape::Shared, Shape::Batched]
        }
        _ => &[Shape::Private, Shape::Shared],
    }
}

const CARRIERS: [Strategy; 3] = [
    Strategy::ProcessControl,
    Strategy::DllThread,
    Strategy::DllOnly,
];

fn spec(name: &str, strategy: Strategy, shape: Shape) -> SentinelSpec {
    let spec = SentinelSpec::new(name, strategy).backing(Backing::Memory);
    match shape {
        Shape::Private => spec.with("share", "off"),
        Shape::Shared => spec.with("share", "on"),
        Shape::Batched => spec.with("batch", "on").with("ring_depth", "4"),
    }
}

/// Installs `path` under `spec`, its data part [`DATA`].
fn install(world: &AfsWorld, path: &str, spec: &SentinelSpec) {
    world.install_active_file(path, spec).expect("install");
    let data = VPath::parse(path).expect("path");
    world.vfs().write_stream_replace(&data, DATA).expect("seed");
}

/// Runs `script` on a thread of its own holding `world`: it must come
/// back within [`BOUND`].
fn bounded<T: Send + 'static>(
    what: &str,
    world: &Arc<AfsWorld>,
    script: impl FnOnce(&AfsWorld) -> T + Send + 'static,
) -> T {
    let (done, result) = mpsc::channel();
    let world = Arc::clone(world);
    std::thread::spawn(move || {
        let _ = done.send(script(&world));
    });
    match result.recv_timeout(BOUND) {
        Ok(value) => value,
        Err(RecvTimeoutError::Timeout) => panic!("{what}: did not return within {BOUND:?}"),
        Err(RecvTimeoutError::Disconnected) => panic!("{what}: the script itself failed"),
    }
}

/// What the application saw of one op: its outcome (a count, or 0), or
/// `None` when a fault unwound into it.
type Seen = Option<Result<u64, Win32Error>>;

/// What the application saw, op by op.
type Transcript = Vec<(&'static str, Seen)>;

/// Runs one op of the application's, catching what unwinds into it.
fn seen(op: impl FnOnce() -> Result<u64, Win32Error>) -> Seen {
    std::panic::catch_unwind(AssertUnwindSafe(op)).ok()
}

fn open(api: &dyn FileApi, path: &str) -> Result<Handle, Win32Error> {
    api.create_file(path, Access::read_write(), Disposition::OpenExisting)
}

/// Opens `path`; an open that fails, or that a fault unwound into, ends
/// `transcript`.
fn open_seen(api: &dyn FileApi, path: &str, transcript: &mut Transcript) -> Option<Handle> {
    match std::panic::catch_unwind(AssertUnwindSafe(|| open(api, path))) {
        Ok(Ok(h)) => return Some(h),
        Ok(Err(e)) => transcript.push(("open", Some(Err(e)))),
        Err(_) => transcript.push(("open", None)),
    }
    None
}

/// A write and the flush that surfaces it, on every carrier.
fn write_flushed(api: &dyn FileApi, h: Handle) -> Result<u64, Win32Error> {
    api.write_file(h, b"wxyz")?;
    api.flush_file_buffers(h).map(|()| 4)
}

/// The op of the application's that enters `hook`, named.
fn op(api: &dyn FileApi, h: Handle, hook: Hook) -> (&'static str, Seen) {
    let mut buf = [0u8; 8];
    match hook {
        Hook::Read => (
            "read",
            seen(|| api.read_file(h, &mut buf).map(|n| n as u64)),
        ),
        Hook::Write => ("write", seen(|| write_flushed(api, h))),
        Hook::Len => ("size", seen(|| api.get_file_size(h))),
        Hook::Flush => ("flush", seen(|| api.flush_file_buffers(h).map(|()| 0))),
        Hook::Control => {
            let control = || api.device_io_control(h, 7, b"ping").map(|r| r.len() as u64);
            ("control", seen(control))
        }
        Hook::OnClose => ("close", seen(|| api.close_handle(h).map(|()| 0))),
        Hook::OnOpen => unreachable!("the open is not an op on a handle"),
    }
}

/// The command carriers' script: open, the op that enters `hook`, then
/// a read, a size, a write and a close.
fn command_script(api: &dyn FileApi, path: &str, hook: Hook) -> Transcript {
    let mut transcript = Vec::new();
    let Some(h) = open_seen(api, path, &mut transcript) else {
        return transcript;
    };
    transcript.push(op(api, h, hook));
    if hook != Hook::OnClose {
        for later in [Hook::Read, Hook::Len, Hook::Write, Hook::OnClose] {
            transcript.push(op(api, h, later));
        }
    }
    transcript
}

/// The transcript every command carrier gives for a fault in `hook`.
fn expected(hook: Hook) -> Transcript {
    let broken = Some(Err(Win32Error::BrokenPipe));
    match hook {
        Hook::OnOpen => vec![("open", broken)],
        Hook::OnClose => vec![("close", broken)],
        _ => vec![
            (op_name(hook), broken),
            ("read", broken),
            ("size", broken),
            ("write", broken),
            ("close", Some(Ok(0))),
        ],
    }
}
fn op_name(hook: Hook) -> &'static str {
    match hook {
        Hook::Len => "size",
        other => other.name(),
    }
}

/// §4.1's script: open, the op that enters `hook`, then reads to the end
/// of the stream, writes until the pipe breaks, and the close. Its
/// transcript is the open's and the close's outcomes.
fn stream_script(api: &dyn FileApi, path: &str, hook: Hook) -> Transcript {
    let mut transcript = Vec::new();
    let Some(h) = open_seen(api, path, &mut transcript) else {
        return transcript;
    };
    if hook == Hook::Write {
        assert_eq!(api.write_file(h, b"wxyz"), Ok(4), "a pipe takes the write");
    }
    if hook != Hook::OnClose {
        drain(api, h);
        let deadline = Instant::now() + BOUND;
        while api.write_file(h, b"wxyz").is_ok() {
            assert!(Instant::now() < deadline, "the write pipe never broke");
            std::thread::yield_now();
        }
    }
    vec![("open", Some(Ok(0))), op(api, h, Hook::OnClose)]
}

/// Reads `h` to the end of its stream; every read is data or the end.
fn drain(api: &dyn FileApi, h: Handle) -> Vec<u8> {
    let mut got = Vec::new();
    let mut buf = [0u8; 64];
    loop {
        match api.read_file(h, &mut buf) {
            Ok(0) => return got,
            Ok(n) => got.extend_from_slice(&buf[..n]),
            Err(e) => panic!("a stream read failed {e:?} instead of ending"),
        }
    }
}

/// The world's count of faults of the sentinel `name`.
fn faults(world: &AfsWorld, name: &str) -> u64 {
    let stats = world.telemetry().sentinel_stats_snapshots();
    stats
        .iter()
        .find(|(sentinel, _)| *sentinel == name)
        .map_or(0, |(_, s)| s.faults)
}

/// Reads the whole of `path`, a healthy file, in `world`.
fn healthy_reads(what: &str, world: &Arc<AfsWorld>, path: &'static str) {
    let got = bounded(what, world, move |w| {
        let api = w.api();
        let h = open(&api, path).expect("open the healthy file");
        let mut buf = [0u8; 16];
        let n = api.read_file(h, &mut buf);
        api.close_handle(h).expect("close the healthy file");
        n.map(|n| buf[..n].to_vec())
    });
    assert_eq!(got, Ok(DATA.to_vec()), "{what}: the healthy file");
}

/// One case: a world where `strategy`'s `hook` faults once on `shape`,
/// and a healthy file beside it. Returns the faulting file's transcript
/// and the faults counted.
fn case(strategy: Strategy, shape: Shape, hook: Hook) -> (Transcript, u64) {
    let what = format!("{strategy:?} {shape:?} {}", hook.name());
    let world = world(2, 1);
    let faulty = spec("faulty", strategy, shape).with("fault", hook.name());
    install(&world, "/f.af", &faulty);
    install(&world, "/ok.af", &spec("healthy", strategy, shape));
    let transcript = bounded(&what, &world, move |w| match strategy {
        Strategy::Process => stream_script(&w.api(), "/f.af", hook),
        _ => command_script(&w.api(), "/f.af", hook),
    });
    healthy_reads(&what, &world, "/ok.af");
    world.quiesce();
    (transcript, faults(&world, "faulty"))
}

/// Every shape of `strategy` with a fault in `hook`: each gives the
/// strategy's transcript.
fn every_shape(strategy: Strategy, hook: Hook) {
    assert!(hook.carried_by(strategy));
    for &shape in shapes(strategy) {
        let want = match strategy {
            Strategy::Process if hook != Hook::OnOpen => {
                vec![("open", Some(Ok(0))), ("close", Some(Ok(0)))]
            }
            _ => expected(hook),
        };
        let what = format!("{strategy:?} {shape:?} {}", hook.name());
        let (got, faults) = case(strategy, shape, hook);
        assert_eq!(got, want, "{what}");
        assert_eq!(faults, 1, "{what}: one fault counted");
    }
}

/// One test per strategy and hook it carries.
macro_rules! fault_cases {
    ($($name:ident: $strategy:ident $hook:ident;)*) => {
        $(
            #[test]
            fn $name() {
                every_shape(Strategy::$strategy, Hook::$hook);
            }
        )*
    };
}

fault_cases! {
    process_on_open: Process OnOpen;
    process_read: Process Read;
    process_write: Process Write;
    process_on_close: Process OnClose;
    process_control_on_open: ProcessControl OnOpen;
    process_control_read: ProcessControl Read;
    process_control_write: ProcessControl Write;
    process_control_len: ProcessControl Len;
    process_control_flush: ProcessControl Flush;
    process_control_control: ProcessControl Control;
    process_control_on_close: ProcessControl OnClose;
    dll_thread_on_open: DllThread OnOpen;
    dll_thread_read: DllThread Read;
    dll_thread_write: DllThread Write;
    dll_thread_len: DllThread Len;
    dll_thread_flush: DllThread Flush;
    dll_thread_control: DllThread Control;
    dll_thread_on_close: DllThread OnClose;
    dll_only_on_open: DllOnly OnOpen;
    dll_only_read: DllOnly Read;
    dll_only_write: DllOnly Write;
    dll_only_len: DllOnly Len;
    dll_only_flush: DllOnly Flush;
    dll_only_control: DllOnly Control;
    dll_only_on_close: DllOnly OnClose;
}

#[test]
fn the_three_command_carriers_give_one_transcript_hook_by_hook() {
    for hook in HOOKS {
        for shape in [Shape::Private, Shape::Shared] {
            let [control, thread, dll] = CARRIERS.map(|s| case(s, shape, hook).0);
            assert_eq!(control, thread, "{shape:?} {}: §4.2 and §4.3", hook.name());
            assert_eq!(control, dll, "{shape:?} {}: §4.2 and §4.4", hook.name());
        }
        let [control, thread] = [Strategy::ProcessControl, Strategy::DllThread]
            .map(|s| case(s, Shape::Batched, hook).0);
        assert_eq!(control, thread, "batched {}: §4.2 and §4.3", hook.name());
        assert_eq!(control, case(Strategy::DllOnly, Shape::Shared, hook).0);
    }
}

#[test]
fn a_raw_stream_sentinel_whose_main_panics_ends_its_streams() {
    let world = world(2, 0);
    install(
        &world,
        "/raw.af",
        &SentinelSpec::new("raw-faulty", Strategy::Process),
    );
    install(
        &world,
        "/ok.af",
        &spec("healthy", Strategy::Process, Shape::Private),
    );
    let transcript = bounded("raw §4.1", &world, |w| {
        stream_script(&w.api(), "/raw.af", Hook::Read)
    });
    assert_eq!(
        transcript,
        vec![("open", Some(Ok(0))), ("close", Some(Ok(0)))]
    );
    healthy_reads("raw §4.1", &world, "/ok.af");
    assert_eq!(faults(&world, "raw-faulty"), 1);
}

#[test]
fn an_open_after_a_shared_fault_gets_a_working_sentinel() {
    for strategy in CARRIERS {
        for &shape in shapes(strategy).iter().filter(|&&s| s != Shape::Private) {
            let what = format!("{strategy:?} {shape:?}");
            let world = world(2, 1);
            let faulty = spec("faulty", strategy, shape).with("fault", "read");
            install(&world, "/f.af", &faulty);
            let seen = bounded(&what, &world, |w| {
                let api = w.api();
                let first = open(&api, "/f.af").expect("first session");
                let second = open(&api, "/f.af").expect("second session");
                let mut buf = [0u8; 16];
                let faulted = api.read_file(first, &mut buf);
                let sibling = api.read_file(second, &mut buf);
                // Both faulted sessions are still open: the next open must
                // not join their sentinel.
                let fresh = open(&api, "/f.af").expect("an open after the fault");
                let read = api.read_file(fresh, &mut buf).map(|n| buf[..n].to_vec());
                let closes = [first, second, fresh].map(|h| api.close_handle(h));
                (faulted, sibling, read, closes)
            });
            let broken = Err(Win32Error::BrokenPipe);
            assert_eq!(seen.0, broken, "{what}: the op that faults");
            assert_eq!(seen.1, broken, "{what}: a sibling session");
            assert_eq!(
                seen.2,
                Ok(DATA.to_vec()),
                "{what}: the fresh sentinel reads"
            );
            assert_eq!(seen.3, [Ok(()), Ok(()), Ok(())], "{what}: the closes");
            assert_eq!(faults(&world, "faulty"), 1, "{what}");
        }
    }
}

#[test]
fn posted_write_faults_leave_the_only_worker_serving() {
    let world = world(1, 2);
    let faulty = spec("faulty", Strategy::ProcessControl, Shape::Private).with("fault", "write");
    install(&world, "/f1.af", &faulty);
    install(&world, "/f2.af", &faulty);
    install(
        &world,
        "/ok.af",
        &spec("healthy", Strategy::DllThread, Shape::Private),
    );
    let handles = bounded("posted writes", &world, |w| {
        let api = w.api();
        let posted = ["/f1.af", "/f2.af", "/ok.af"].map(|path| {
            let h = open(&api, path).expect("open");
            assert_eq!(api.write_file(h, b"wxyz"), Ok(4), "{path}: posted");
            h
        });
        posted
    });
    // The writes were posted to pooled sentinels: the one worker serves
    // them in order, the two faults first. (`fleet_workers()` reports the
    // cap, not live threads; the healthy sentinel's op count is the proof
    // that a worker still runs.)
    let deadline = Instant::now() + BOUND;
    let served = || {
        let stats = world.telemetry().sentinel_stats_snapshots();
        stats
            .iter()
            .find(|(name, _)| *name == "healthy")
            .is_some_and(|(_, s)| s.ops >= 1)
    };
    while !(faults(&world, "faulty") == 2 && served()) {
        assert!(
            Instant::now() < deadline,
            "the posted write to the healthy file was not served within {BOUND:?} \
             ({} faults)",
            faults(&world, "faulty")
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let closes = bounded("closes", &world, move |w| {
        let api = w.api();
        handles.map(|h| api.close_handle(h))
    });
    assert_eq!(closes, [Ok(()), Ok(()), Ok(())]);
}
