//! The [`Transport`] abstraction: one protocol surface over the three IPC
//! substrates of §4.
//!
//! The paper's strategies differ in *what carries the bytes*, not in what
//! the bytes mean: §4.1 uses a bare pipe pair (streaming only), §4.2 adds
//! a control channel beside two data pipes, and §4.3 swaps the pipes for
//! shared memory plus events. A [`Transport`] packages one application
//! side of that choice — typed command/reply lanes plus a byte-granular
//! data lane — so a single generic strategy handle can drive all of them.
//! [`PairTransport::kernel`], [`PairTransport::shared`], and
//! [`StreamTransport::new`] build the three concrete wirings; the
//! DLL-only strategy implements the same trait with inline calls in the
//! core crate.
//!
//! The sentinel side of a control-capable wiring is a [`PairPort`], which
//! the dispatch loop drains. Both sides stage payloads through a
//! [`BufferPool`](crate::BufferPool) rather than allocating per message.

use std::marker::PhantomData;
use std::sync::Arc;

use parking_lot::Mutex;

use afs_sim::{CostModel, CrossingKind};
use afs_telemetry::QueueGauges;

use crate::pool::BufferPool;
use crate::{
    ControlChannel, ControlReceiver, ControlSender, IpcError, Pipe, PipeReader, PipeWriter, Result,
    SharedBuffer,
};

/// Sink for one direction of the data lane.
pub trait DataTx: Send + Sync {
    /// Transfers one message of bytes.
    fn send(&self, data: &[u8]) -> Result<()>;
}

/// Source for one direction of the data lane.
pub trait DataRx: Send + Sync {
    /// Receives exactly `buf.len()` bytes (one logical message, possibly
    /// assembled from several physical ones). Returns the number of bytes
    /// received, which is less than `buf.len()` only at end-of-stream.
    fn recv_exact(&self, buf: &mut [u8]) -> Result<usize>;
}

impl DataTx for PipeWriter {
    fn send(&self, data: &[u8]) -> Result<()> {
        self.write(data)
    }
}

impl DataRx for PipeReader {
    fn recv_exact(&self, buf: &mut [u8]) -> Result<usize> {
        self.read_exact(buf)
    }
}

impl DataTx for SharedBuffer {
    fn send(&self, data: &[u8]) -> Result<()> {
        SharedBuffer::send(self, data)
    }
}

impl DataRx for SharedBuffer {
    /// Assembles `buf.len()` bytes from as many slot messages as needed.
    ///
    /// A message longer than the space left in `buf` would silently lose
    /// its tail (the slot hands over whole messages), so that case is a
    /// framing violation and fails with [`IpcError::BrokenPipe`] rather
    /// than corrupting the stream.
    fn recv_exact(&self, buf: &mut [u8]) -> Result<usize> {
        let mut filled = 0;
        while filled < buf.len() {
            let n = self.recv_into(&mut buf[filled..])?;
            if n > buf.len() - filled {
                return Err(IpcError::BrokenPipe);
            }
            filled += n;
        }
        Ok(filled)
    }
}

/// The application side of one strategy's IPC wiring: typed commands out,
/// typed replies in, bytes both ways.
///
/// `recv_data` reads *up to* `buf.len()` bytes (the streaming read of
/// §4.1); `recv_data_exact` assembles exactly `buf.len()` (the
/// command-sized transfers of §4.2/§4.3).
pub trait Transport: Send + Sync {
    /// Command type carried on the control lane.
    type Cmd: Send + 'static;
    /// Reply type carried back.
    type Reply: Send + 'static;

    /// Which protection boundary an operation round-trip crosses.
    fn crossing(&self) -> CrossingKind;

    /// Whether the wiring has a control lane. Without one (§4.1) only the
    /// data lane works and `send_cmd`/`recv_reply` fail with
    /// [`IpcError::Unsupported`].
    fn supports_control(&self) -> bool;

    /// Whether the transport charges its own protection-domain crossings
    /// as part of `send_cmd`/`send_data`. A multiplexing transport that
    /// batches adjacent commands must, since an operation's crossing count
    /// is no longer a per-op constant; callers then skip their own
    /// round-trip charge.
    fn charges_own_crossings(&self) -> bool {
        false
    }

    /// The submission-ring depth when the wiring batches commands over a
    /// [`ring::RingPair`](crate::ring::RingPair) — the K of "1 crossing +
    /// K dispatches". `None` for unbatched wirings that cross per op.
    fn ring_depth(&self) -> Option<usize> {
        None
    }

    /// Sends one command to the sentinel.
    fn send_cmd(&self, cmd: Self::Cmd) -> Result<()>;

    /// Receives the sentinel's reply to the last command.
    fn recv_reply(&self) -> Result<Self::Reply>;

    /// Sends payload bytes to the sentinel.
    fn send_data(&self, data: &[u8]) -> Result<()>;

    /// Receives up to `buf.len()` payload bytes (0 means end-of-stream).
    fn recv_data(&self, buf: &mut [u8]) -> Result<usize>;

    /// Receives exactly `buf.len()` payload bytes (short only at
    /// end-of-stream).
    fn recv_data_exact(&self, buf: &mut [u8]) -> Result<usize>;

    /// Tears the wiring down (used by strategies that signal close by
    /// closing the substrate rather than by command).
    fn shutdown(&self);
}

/// Application side of a control-capable wiring (§4.2/§4.3): a command
/// channel, a reply channel, and one data lane per direction.
pub struct PairTransport<C: Send + 'static, R: Send + 'static> {
    commands: ControlSender<C>,
    replies: ControlReceiver<R>,
    data_tx: Box<dyn DataTx>,
    data_rx: Box<dyn DataRx>,
    crossing: CrossingKind,
}

/// Sentinel side of a [`PairTransport`] wiring, drained by the dispatch
/// loop.
pub struct PairPort<C: Send + 'static, R: Send + 'static> {
    commands: ControlReceiver<C>,
    replies: ControlSender<R>,
    data_rx: Box<dyn DataRx>,
    data_tx: Box<dyn DataTx>,
    pool: Arc<BufferPool>,
}

impl<C: Send + 'static, R: Send + 'static> PairTransport<C, R> {
    /// Builds the §4.2 wiring: kernel control channels and two anonymous
    /// pipes across the process boundary. Every transfer costs the pipes'
    /// two kernel copies and the round trip two process switches.
    pub fn kernel(model: CostModel) -> (PairTransport<C, R>, PairPort<C, R>) {
        PairTransport::kernel_build(model, None)
    }

    /// Like [`PairTransport::kernel`], but reports pipe depth and pool
    /// reuse to `gauges`.
    pub fn kernel_observed(
        model: CostModel,
        gauges: Arc<QueueGauges>,
    ) -> (PairTransport<C, R>, PairPort<C, R>) {
        PairTransport::kernel_build(model, Some(gauges))
    }

    fn kernel_build(
        model: CostModel,
        gauges: Option<Arc<QueueGauges>>,
    ) -> (PairTransport<C, R>, PairPort<C, R>) {
        let crossing = CrossingKind::InterProcess;
        let (cmd_tx, cmd_rx) = ControlChannel::new::<C>(model.clone());
        let (reply_tx, reply_rx) = ControlChannel::new::<R>(model.clone());
        let pipe = |model: CostModel| match &gauges {
            Some(g) => Pipe::anonymous_observed(model, crossing, Arc::clone(g)),
            None => Pipe::anonymous(model, crossing),
        };
        let (to_sentinel_tx, to_sentinel_rx) = pipe(model.clone());
        let (to_app_tx, to_app_rx) = pipe(model);
        let pool = match gauges {
            Some(g) => Arc::new(BufferPool::observed(g)),
            None => Arc::new(BufferPool::new()),
        };
        (
            PairTransport {
                commands: cmd_tx,
                replies: reply_rx,
                data_tx: Box::new(to_sentinel_tx),
                data_rx: Box::new(to_app_rx),
                crossing,
            },
            PairPort {
                commands: cmd_rx,
                replies: reply_tx,
                data_rx: Box::new(to_sentinel_rx),
                data_tx: Box::new(to_app_tx),
                pool,
            },
        )
    }

    /// Builds the §4.3 wiring: user-level control channels and one shared
    /// buffer per direction inside the process. Every transfer costs one
    /// user-level copy and the round trip two thread switches.
    pub fn shared(model: CostModel) -> (PairTransport<C, R>, PairPort<C, R>) {
        PairTransport::shared_build(model, None)
    }

    /// Like [`PairTransport::shared`], but reports slot occupancy and pool
    /// reuse to `gauges`.
    pub fn shared_observed(
        model: CostModel,
        gauges: Arc<QueueGauges>,
    ) -> (PairTransport<C, R>, PairPort<C, R>) {
        PairTransport::shared_build(model, Some(gauges))
    }

    fn shared_build(
        model: CostModel,
        gauges: Option<Arc<QueueGauges>>,
    ) -> (PairTransport<C, R>, PairPort<C, R>) {
        let crossing = CrossingKind::InterThread;
        let (cmd_tx, cmd_rx) = ControlChannel::user_level::<C>(model.clone());
        let (reply_tx, reply_rx) = ControlChannel::user_level::<R>(model.clone());
        let buffer = |model: CostModel| match &gauges {
            Some(g) => SharedBuffer::observed(model, Arc::clone(g)),
            None => SharedBuffer::new(model),
        };
        let to_sentinel = buffer(model.clone());
        let to_app = buffer(model);
        let pool = match gauges {
            Some(g) => Arc::new(BufferPool::observed(g)),
            None => Arc::new(BufferPool::new()),
        };
        (
            PairTransport {
                commands: cmd_tx,
                replies: reply_rx,
                data_tx: Box::new(to_sentinel.clone()),
                data_rx: Box::new(to_app.clone()),
                crossing,
            },
            PairPort {
                commands: cmd_rx,
                replies: reply_tx,
                data_rx: Box::new(to_sentinel),
                data_tx: Box::new(to_app),
                pool,
            },
        )
    }
}

impl<C: Send + 'static, R: Send + 'static> Transport for PairTransport<C, R> {
    type Cmd = C;
    type Reply = R;

    fn crossing(&self) -> CrossingKind {
        self.crossing
    }

    fn supports_control(&self) -> bool {
        true
    }

    fn send_cmd(&self, cmd: C) -> Result<()> {
        self.commands.send(cmd)
    }

    fn recv_reply(&self) -> Result<R> {
        self.replies.recv()
    }

    fn send_data(&self, data: &[u8]) -> Result<()> {
        self.data_tx.send(data)
    }

    fn recv_data(&self, buf: &mut [u8]) -> Result<usize> {
        self.data_rx.recv_exact(buf)
    }

    fn recv_data_exact(&self, buf: &mut [u8]) -> Result<usize> {
        self.data_rx.recv_exact(buf)
    }

    fn shutdown(&self) {}
}

impl<C: Send + 'static, R: Send + 'static> PairPort<C, R> {
    /// Receives the next command, blocking; fails with
    /// [`IpcError::Closed`] once the application side is gone.
    pub fn recv_cmd(&self) -> Result<C> {
        self.commands.recv()
    }

    /// Receives the next command if one is already queued; never blocks
    /// and, unlike [`PairPort::poll_cmd`], never charges.
    ///
    /// # Errors
    ///
    /// [`IpcError::Closed`] once the application side is gone.
    pub fn try_recv_cmd(&self) -> Result<Option<C>> {
        self.commands.try_recv()
    }

    /// Non-blocking receive with `recv_cmd`-equivalent charging: the
    /// kernel-syscall cost is paid when a command (or channel closure) is
    /// observed, never for an empty poll. This is what a poll-driven
    /// sentinel drains instead of blocking in `recv_cmd`.
    ///
    /// # Errors
    ///
    /// [`IpcError::Closed`] once the application side is gone.
    pub fn poll_cmd(&self) -> Result<Option<C>> {
        self.commands.poll_recv()
    }

    /// Installs a readiness waker on the command lane, invoked whenever a
    /// new command arrives or the application side drops its last sender.
    /// This is the hook the sentinel executor parks on: an idle sentinel
    /// is scheduled only when its transport has something to observe.
    pub fn set_wakeup(&self, waker: crate::ChannelWaker) {
        self.commands.set_waker(waker);
    }

    /// Sends a reply back to the application.
    pub fn send_reply(&self, reply: R) -> Result<()> {
        self.replies.send(reply)
    }

    /// Sends payload bytes to the application.
    pub fn send_data(&self, data: &[u8]) -> Result<()> {
        self.data_tx.send(data)
    }

    /// Receives exactly `buf.len()` payload bytes from the application.
    pub fn recv_data_exact(&self, buf: &mut [u8]) -> Result<usize> {
        self.data_rx.recv_exact(buf)
    }

    /// The scratch-buffer pool the dispatch loop stages payloads in.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }
}

/// Application side of the §4.1 wiring: two bare pipes, no control lane.
/// Reads and writes stream; everything needing a command fails with
/// [`IpcError::Unsupported`].
///
/// The type is generic over the (unused) command protocol so it can stand
/// wherever a control-capable transport of the same protocol can.
pub struct StreamTransport<C, R> {
    to_sentinel: Mutex<Option<PipeWriter>>,
    from_sentinel: Mutex<Option<PipeReader>>,
    _protocol: PhantomData<fn() -> (C, R)>,
}

impl<C: Send + 'static, R: Send + 'static> StreamTransport<C, R> {
    /// Builds the wiring, returning the transport plus the sentinel's
    /// `stdin` reader and `stdout` writer (the two anonymous pipes of
    /// Figure 2).
    pub fn new(model: CostModel) -> (StreamTransport<C, R>, PipeReader, PipeWriter) {
        StreamTransport::build(model, None)
    }

    /// Like [`StreamTransport::new`], but reports pipe depth to `gauges`.
    pub fn new_observed(
        model: CostModel,
        gauges: Arc<QueueGauges>,
    ) -> (StreamTransport<C, R>, PipeReader, PipeWriter) {
        StreamTransport::build(model, Some(gauges))
    }

    fn build(
        model: CostModel,
        gauges: Option<Arc<QueueGauges>>,
    ) -> (StreamTransport<C, R>, PipeReader, PipeWriter) {
        let crossing = CrossingKind::InterProcess;
        let pipe = |model: CostModel| match &gauges {
            Some(g) => Pipe::anonymous_observed(model, crossing, Arc::clone(g)),
            None => Pipe::anonymous(model, crossing),
        };
        let (app_write, sentinel_stdin) = pipe(model.clone());
        let (sentinel_stdout, app_read) = pipe(model);
        (
            StreamTransport {
                to_sentinel: Mutex::new(Some(app_write)),
                from_sentinel: Mutex::new(Some(app_read)),
                _protocol: PhantomData,
            },
            sentinel_stdin,
            sentinel_stdout,
        )
    }
}

impl<C: Send + 'static, R: Send + 'static> Transport for StreamTransport<C, R> {
    type Cmd = C;
    type Reply = R;

    fn crossing(&self) -> CrossingKind {
        CrossingKind::InterProcess
    }

    fn supports_control(&self) -> bool {
        false
    }

    fn send_cmd(&self, _cmd: C) -> Result<()> {
        // "There is no method of passing control information" (§4.1).
        Err(IpcError::Unsupported)
    }

    fn recv_reply(&self) -> Result<R> {
        Err(IpcError::Unsupported)
    }

    fn send_data(&self, data: &[u8]) -> Result<()> {
        let guard = self.to_sentinel.lock();
        guard.as_ref().ok_or(IpcError::Closed)?.write(data)
    }

    fn recv_data(&self, buf: &mut [u8]) -> Result<usize> {
        let guard = self.from_sentinel.lock();
        guard.as_ref().ok_or(IpcError::Closed)?.read(buf)
    }

    fn recv_data_exact(&self, buf: &mut [u8]) -> Result<usize> {
        let guard = self.from_sentinel.lock();
        guard.as_ref().ok_or(IpcError::Closed)?.read_exact(buf)
    }

    fn shutdown(&self) {
        // Dropping the write end delivers EOF to the sentinel's stdin, and
        // dropping the read end breaks any pump blocked on a full read
        // pipe ("the CloseHandle call just shuts down the created pipes",
        // Appendix A.2).
        self.to_sentinel.lock().take();
        self.from_sentinel.lock().take();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_pair_round_trips_commands_and_data() {
        let (app, port) = PairTransport::<u32, u64>::kernel(CostModel::free());
        app.send_cmd(7).expect("cmd");
        assert_eq!(port.recv_cmd().expect("recv cmd"), 7);
        port.send_reply(99).expect("reply");
        assert_eq!(app.recv_reply().expect("recv reply"), 99);
        app.send_data(b"down").expect("data down");
        let mut buf = [0u8; 4];
        port.recv_data_exact(&mut buf).expect("port recv");
        assert_eq!(&buf, b"down");
        port.send_data(b"up!!").expect("data up");
        app.recv_data_exact(&mut buf).expect("app recv");
        assert_eq!(&buf, b"up!!");
        assert_eq!(app.crossing(), CrossingKind::InterProcess);
        assert!(app.supports_control());
    }

    #[test]
    fn shared_pair_round_trips_commands_and_data() {
        let (app, port) = PairTransport::<u8, u8>::shared(CostModel::free());
        app.send_cmd(1).expect("cmd");
        assert_eq!(port.recv_cmd().expect("recv cmd"), 1);
        app.send_data(b"x").expect("data");
        let mut buf = [0u8; 1];
        port.recv_data_exact(&mut buf).expect("recv");
        assert_eq!(&buf, b"x");
        assert_eq!(app.crossing(), CrossingKind::InterThread);
    }

    #[test]
    fn shared_buffer_recv_exact_assembles_multiple_messages() {
        // Regression: the old implementation returned after one message,
        // silently leaving the buffer tail unfilled.
        let buffer = SharedBuffer::new(CostModel::free());
        let producer = buffer.clone();
        let t = std::thread::spawn(move || {
            producer.send(b"0123").expect("first");
            producer.send(b"456789").expect("second");
        });
        let mut buf = [0u8; 10];
        let n = DataRx::recv_exact(&buffer, &mut buf).expect("recv_exact");
        t.join().expect("join");
        assert_eq!(n, 10);
        assert_eq!(&buf, b"0123456789");
    }

    #[test]
    fn shared_buffer_recv_exact_rejects_overlong_message() {
        let buffer = SharedBuffer::new(CostModel::free());
        buffer.send(b"0123456789").expect("send");
        let mut buf = [0u8; 4];
        assert_eq!(
            DataRx::recv_exact(&buffer, &mut buf),
            Err(IpcError::BrokenPipe)
        );
    }

    #[test]
    fn stream_transport_has_no_control_lane() {
        let (app, stdin, stdout) = StreamTransport::<u8, u8>::new(CostModel::free());
        assert!(!app.supports_control());
        assert_eq!(app.send_cmd(1), Err(IpcError::Unsupported));
        assert_eq!(app.recv_reply(), Err(IpcError::Unsupported));
        app.send_data(b"in").expect("send");
        let mut buf = [0u8; 2];
        stdin.read_exact(&mut buf).expect("sentinel read");
        assert_eq!(&buf, b"in");
        stdout.write(b"ou").expect("sentinel write");
        app.recv_data(&mut buf).expect("recv");
        assert_eq!(&buf, b"ou");
        app.shutdown();
        assert_eq!(app.send_data(b"x"), Err(IpcError::Closed));
        assert_eq!(stdin.read(&mut buf).expect("eof"), 0);
    }
}
