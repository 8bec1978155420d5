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
//! appropriate return code" (Appendix A.2). So this strategy is not a
//! command carrier at all: its handle is a [`StreamHandle`] over the two
//! pipe ends, sharing only the operation [`Recorder`] with the
//! [`StrategyHandle`] the other three strategies use.
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

use afs_ipc::{Pipe, PipeReader, PipeWriter, SentinelExit};
use afs_sim::{CrossingKind, OpKind};
use afs_telemetry::TraceContext;
use afs_winapi::{SeekMethod, Win32Error};

use crate::ctx::SentinelCtx;
use crate::logic::SentinelLogic;
use crate::strategy::handle::Recorder;
use crate::strategy::{spawn_sentinel, ActiveOps, Instruments};

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

/// The application end of the §4.1 wiring: the write pipe's writer and
/// the read pipe's reader, no pointer and no op serialisation (a blocked
/// read must not stall a concurrent write).
struct StreamHandle {
    to_sentinel: Mutex<Option<PipeWriter>>,
    from_sentinel: Mutex<Option<PipeReader>>,
    rec: Recorder,
    exit: Arc<SentinelExit>,
}

impl StreamHandle {
    /// One traced streaming transfer: the round trip's two process
    /// switches, then `io` on whichever pipe end `end` still holds.
    fn stream<E>(
        &self,
        op: OpKind,
        span: &'static str,
        end: &Mutex<Option<E>>,
        io: impl FnOnce(&E) -> afs_ipc::Result<usize>,
    ) -> Result<usize, Win32Error> {
        self.rec.traced(op, || {
            let (_wire, _) = self.rec.transport_span(span);
            self.rec.charge_round_trip();
            let r = match end.lock().as_ref().map(io) {
                Some(Ok(n)) => Ok(n),
                _ => Err(Win32Error::BrokenPipe),
            };
            let n = *r.as_ref().unwrap_or(&0) as u64;
            (r, n)
        })
    }
}

/// `read` / `write` / `close` over the pipes; everything that would need
/// "a method of passing control information" is dropped with the
/// appropriate return code (§4.1, Appendix A.2).
impl ActiveOps for StreamHandle {
    fn read(&self, buf: &mut [u8]) -> Result<usize, Win32Error> {
        self.stream(OpKind::Read, "stream-recv", &self.from_sentinel, |pipe| {
            pipe.read(buf)
        })
    }

    fn write(&self, data: &[u8]) -> Result<usize, Win32Error> {
        self.stream(OpKind::Write, "stream-send", &self.to_sentinel, |pipe| {
            pipe.write(data).map(|()| data.len())
        })
    }

    fn seek(&self, _offset: i64, _method: SeekMethod) -> Result<u64, Win32Error> {
        Err(Win32Error::CallNotImplemented)
    }

    fn size(&self) -> Result<u64, Win32Error> {
        Err(Win32Error::CallNotImplemented)
    }

    fn read_scatter(&self, _bufs: &mut [&mut [u8]]) -> Result<usize, Win32Error> {
        Err(Win32Error::CallNotImplemented)
    }

    fn control(&self, _code: u32, _payload: &[u8]) -> Result<Vec<u8>, Win32Error> {
        Err(Win32Error::CallNotImplemented)
    }

    fn flush(&self) -> Result<(), Win32Error> {
        // Nothing to command; the stream itself is the flush.
        Ok(())
    }

    fn close(&self) -> Result<(), Win32Error> {
        self.rec.traced(OpKind::Close, || {
            // "The CloseHandle call just shuts down the created pipes"
            // (Appendix A.2): dropping the write end delivers EOF to the
            // sentinel's stdin, dropping the read end breaks any pump
            // blocked on a full read pipe; the sentinel finishes and is
            // reaped.
            let (_wire, _) = self.rec.transport_span("shutdown");
            self.to_sentinel.lock().take();
            self.from_sentinel.lock().take();
            self.exit.reap();
            (Ok(()), 0)
        })
    }
}

fn wire(
    instr: &Instruments,
    sentinel: impl FnOnce(PipeReader, PipeWriter) + Send + 'static,
) -> Arc<dyn ActiveOps> {
    // The two anonymous pipes of Figure 2.
    let pipe = || {
        let gauges = Arc::clone(instr.tel.gauges());
        Pipe::anonymous_observed(instr.model.clone(), CrossingKind::InterProcess, gauges)
    };
    let (app_write, sentinel_stdin) = pipe();
    let (sentinel_stdout, app_read) = pipe();
    // §4.1 streams have no command lane to poll, so the pump pair keeps
    // dedicated threads; close reaps their exit.
    let exit = spawn_sentinel("process", instr, move || {
        sentinel(sentinel_stdin, sentinel_stdout);
    });
    Arc::new(StreamHandle {
        to_sentinel: Mutex::new(Some(app_write)),
        from_sentinel: Mutex::new(Some(app_read)),
        rec: instr.recorder(CrossingKind::InterProcess),
        exit,
    })
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
/// [`SentinelLogic`], already opened, by generating the Figure 2 pump
/// sentinel: one thread streams `logic.read` into stdout, the main loop
/// streams stdin into `logic.write`.
pub(crate) fn open_logic(
    logic: Box<dyn SentinelLogic>,
    ctx: SentinelCtx,
    instr: Instruments,
) -> Arc<dyn ActiveOps> {
    let pumped = instr.clone();
    wire(&instr, move |stdin, stdout| {
        pump(logic, ctx, stdin, stdout, &pumped);
    })
}

/// The pump's logic and context, which its two directions take turns on.
/// A routine that faults takes them down with it: the other direction
/// finds them gone at its next chunk, and the close hook never runs.
type Pump = (Box<dyn SentinelLogic>, SentinelCtx);

/// Runs `f` on the pump in `slot`; `None` once a routine has faulted.
fn call<R>(slot: &Mutex<Option<Pump>>, f: impl FnOnce(&mut Pump) -> R) -> Option<R> {
    let mut slot = slot.lock();
    let mut pump = slot.take()?;
    let result = f(&mut pump);
    *slot = Some(pump);
    Some(result)
}

/// The generated two-thread sentinel (Figure 2's `RWThrd` pair).
fn pump(
    logic: Box<dyn SentinelLogic>,
    ctx: SentinelCtx,
    stdin: PipeReader,
    stdout: PipeWriter,
    instr: &Instruments,
) {
    let side = instr.sentinel_side();
    let shared = Arc::new(Mutex::new(Some((logic, ctx))));

    // Read-direction thread: stream the logic's byte sequence into the
    // read pipe until end-of-data or the application stops listening.
    let reader_shared = Arc::clone(&shared);
    let reader_side = side.clone();
    let reader = spawn_sentinel("process-read", instr, move || {
        let mut cursor = 0u64;
        let mut buf = [0u8; PUMP_CHUNK];
        loop {
            // A streamed chunk serves no one application op: its span is a
            // root, as is the write direction's below.
            let produced = reader_side.observe("stream-read", TraceContext::default(), || {
                call(&reader_shared, |(logic, ctx)| {
                    logic.read(ctx, cursor, &mut buf)
                })
            });
            match produced {
                Some(Ok(n)) if n > 0 => {
                    cursor += n as u64;
                    if stdout.write(&buf[..n]).is_err() {
                        break; // application closed its read end
                    }
                }
                _ => break,
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
                let accepted = side.observe("stream-write", TraceContext::default(), || {
                    call(&shared, |(logic, ctx)| {
                        logic.write(ctx, cursor, &buf[..n]).is_ok()
                    })
                });
                if accepted != Some(true) {
                    break;
                }
                cursor += n as u64;
            }
        }
    }

    reader.wait();
    call(&shared, |(logic, ctx)| {
        let _ = logic.on_close(ctx);
        ctx.persist_cache();
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::dispatch::tests::{instruments, probe_ctx};

    /// Greets on stdout, collects stdin to EOF, then writes until its
    /// reader goes away.
    struct Chatty(Arc<Mutex<Vec<u8>>>);

    impl RawProcessSentinel for Chatty {
        fn run(&mut self, io: ProcessIo) {
            io.stdout.write(b"hello").expect("greeting");
            let mut buf = [0u8; 16];
            while let Ok(n @ 1..) = io.stdin.read(&mut buf) {
                self.0.lock().extend_from_slice(&buf[..n]);
            }
            while io.stdout.write(&[0u8; PUMP_CHUNK]).is_ok() {}
            self.0.lock().extend_from_slice(b"|reader gone");
        }
    }

    #[test]
    fn the_stream_handle_streams_and_drops_the_rest_with_a_return_code() {
        let heard = Arc::new(Mutex::new(Vec::new()));
        let sentinel = Box::new(Chatty(Arc::clone(&heard)));
        let ops = open_raw(sentinel, probe_ctx(), instruments());
        let mut buf = [0u8; 5];
        assert_eq!(ops.read(&mut buf), Ok(5));
        assert_eq!(&buf, b"hello");
        assert_eq!(ops.write(b"abc"), Ok(3));
        let not_implemented = Win32Error::CallNotImplemented;
        assert_eq!(ops.seek(0, SeekMethod::Begin), Err(not_implemented));
        assert_eq!(ops.size(), Err(not_implemented));
        assert_eq!(ops.read_scatter(&mut [&mut buf[..]]), Err(not_implemented));
        assert_eq!(ops.control(1, b""), Err(not_implemented));
        assert_eq!(ops.flush(), Ok(()));
        // Close shuts both pipes — EOF on the sentinel's stdin, a broken
        // stdout under its blocked write — and returns once it is reaped.
        assert_eq!(ops.close(), Ok(()));
        assert_eq!(*heard.lock(), b"abc|reader gone");
        assert_eq!(ops.read(&mut buf), Err(Win32Error::BrokenPipe));
        assert_eq!(ops.write(b"x"), Err(Win32Error::BrokenPipe));
        assert_eq!(ops.close(), Ok(()));
    }
}
