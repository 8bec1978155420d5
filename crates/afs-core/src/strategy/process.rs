//! §4.1 — the simple process-based strategy.
//!
//! "The process-based implementation approach is the simple and intuitive
//! method, directly reflecting active file semantics": the sentinel runs
//! as a separate process whose standard input and output are two
//! anonymous pipes; application reads pull from the read pipe, writes push
//! into the write pipe. There is no control channel, so the semantics are
//! purely streaming: "operations such as ReadFileScatter (or seek in
//! Unix) and GetFileSize cannot be implemented as there is no method of
//! passing control information", and the client stubs drop them "with an
//! appropriate return code" (Appendix A.2). The wiring is
//! [`StreamTransport`], whose missing control lane is exactly what makes
//! the shared [`StrategyHandle`] fail those operations.
//!
//! Two programming models are supported, as in the paper:
//!
//! * **Raw** ([`RawProcessSentinel`]) — hand-written, Figure 2 style: the
//!   sentinel's `main` receives a [`ProcessIo`] with `stdin`, `stdout`,
//!   and the context, and does whatever it wants (typically two
//!   threads, one per direction).
//! * **Adapted** — any [`SentinelLogic`] is pumped through the pipes by a
//!   generated two-thread sentinel, the "automatic translation" of §5.
//!
//! [`StrategyHandle`]: crate::strategy::handle::StrategyHandle

use std::sync::Arc;

use parking_lot::Mutex;

use afs_ipc::{PipeReader, PipeWriter, StreamTransport};
use afs_winapi::Win32Error;

use crate::ctx::SentinelCtx;
use crate::logic::SentinelLogic;
use crate::strategy::{
    spawn_sentinel, to_win32, ActiveOps, Instruments, Op, OpReply, Reaper, SentinelSide, Sticky,
};

/// Buffer size of the Figure 2 pump loops (`char buf[1024]`).
const PUMP_CHUNK: usize = 1024;

/// What a hand-written process sentinel receives: its standard streams
/// (already wired to the application's pipes) and the execution context.
pub struct ProcessIo {
    /// Data the application writes arrives here (the write pipe).
    pub stdin: PipeReader,
    /// Data sent here satisfies application reads (the read pipe).
    pub stdout: PipeWriter,
    /// The sentinel's context: cache, network, config, sync.
    pub ctx: SentinelCtx,
}

/// A hand-written process sentinel (the Figure 2 programming model):
/// "the sentinel process can be developed as a standalone executable
/// independent of its interactions with other processes" (§5.1).
pub trait RawProcessSentinel: Send {
    /// The sentinel's `main`. Returning ends the sentinel; the runtime
    /// closes both pipes afterwards.
    fn run(&mut self, io: ProcessIo);
}

fn wire(
    instr: &Instruments,
    sentinel: impl FnOnce(PipeReader, PipeWriter) + Send + 'static,
) -> Arc<dyn ActiveOps> {
    let (transport, sentinel_stdin, sentinel_stdout) = StreamTransport::<Op, OpReply>::new_observed(
        instr.model.clone(),
        Arc::clone(instr.tel.gauges()),
    );
    let join = spawn_sentinel("process", move || {
        sentinel(sentinel_stdin, sentinel_stdout);
    });
    // §4.1 streams have no command lane to poll, so the pump pair keeps
    // dedicated threads; the reaper joins them directly.
    instr.handle(
        transport,
        Sticky::default(),
        Arc::default(),
        Some(Reaper::Thread(join)),
    )
}

/// Builds the simple process strategy around a hand-written sentinel.
pub(crate) fn open_raw(
    mut sentinel: Box<dyn RawProcessSentinel>,
    ctx: SentinelCtx,
    instr: Instruments,
) -> Arc<dyn ActiveOps> {
    wire(&instr, move |stdin, stdout| {
        sentinel.run(ProcessIo { stdin, stdout, ctx });
    })
}

/// Builds the simple process strategy around a strategy-independent
/// [`SentinelLogic`] by generating the Figure 2 pump sentinel: one thread
/// streams `logic.read` into stdout, the main loop streams stdin into
/// `logic.write`.
pub(crate) fn open_logic(
    mut logic: Box<dyn SentinelLogic>,
    mut ctx: SentinelCtx,
    instr: Instruments,
) -> Result<Arc<dyn ActiveOps>, Win32Error> {
    logic.on_open(&mut ctx).map_err(|e| to_win32(&e))?;
    // The pump's streaming chunks are not tied to any single application
    // op, so its spans are roots and the scope cell goes unused.
    let side = instr.sentinel_side(Arc::default());
    Ok(wire(&instr, move |stdin, stdout| {
        pump(logic, ctx, stdin, stdout, side);
    }))
}

/// The generated two-thread sentinel (Figure 2's `RWThrd` pair).
fn pump(
    logic: Box<dyn SentinelLogic>,
    ctx: SentinelCtx,
    stdin: PipeReader,
    stdout: PipeWriter,
    side: SentinelSide,
) {
    struct Shared {
        logic: Box<dyn SentinelLogic>,
        ctx: SentinelCtx,
    }
    let shared = Arc::new(Mutex::new(Shared { logic, ctx }));

    // Read-direction thread: stream the logic's byte sequence into the
    // read pipe until end-of-data or the application stops listening.
    let reader_shared = Arc::clone(&shared);
    let reader_side = side.clone();
    let reader = spawn_sentinel("process-read", move || {
        let mut cursor = 0u64;
        let mut buf = [0u8; PUMP_CHUNK];
        loop {
            let produced = reader_side.observe_root("stream-read", || {
                let mut s = reader_shared.lock();
                let Shared { logic, ctx } = &mut *s;
                logic.read(ctx, cursor, &mut buf)
            });
            match produced {
                Ok(0) | Err(_) => break,
                Ok(n) => {
                    cursor += n as u64;
                    if stdout.write(&buf[..n]).is_err() {
                        break; // application closed its read end
                    }
                }
            }
        }
    });

    // Write direction on this thread: drain stdin into the logic.
    let mut cursor = 0u64;
    let mut buf = [0u8; PUMP_CHUNK];
    loop {
        match stdin.read(&mut buf) {
            Ok(0) | Err(_) => break, // EOF: application closed
            Ok(n) => {
                let accepted = side.observe_root("stream-write", || {
                    let mut s = shared.lock();
                    let Shared { logic, ctx } = &mut *s;
                    logic.write(ctx, cursor, &buf[..n]).is_ok()
                });
                if !accepted {
                    break;
                }
                cursor += n as u64;
            }
        }
    }

    let _ = reader.join();
    let mut s = shared.lock();
    let Shared { logic, ctx } = &mut *s;
    let _ = logic.on_close(ctx);
    ctx.persist_cache();
}
