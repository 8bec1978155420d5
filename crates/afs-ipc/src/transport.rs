//! The command/reply pair wire of §4.2 and §4.3.
//!
//! The paper's strategies differ in *what carries the bytes*, not in what
//! the bytes mean: §4.2 adds a control channel beside two data pipes, and
//! §4.3 swaps the pipes for shared memory plus events. A
//! [`PairTransport`] is the application end of either choice — four
//! lanes: typed commands out, typed replies in, bytes both ways —
//! built by [`PairTransport::kernel`] or [`PairTransport::shared`], and a
//! [`PairPort`] is the sentinel end the dispatch loop drains. The lanes
//! carry whatever command and reply types the layer above frames; what an
//! *operation* is (one `post`, or one `call` whose reply says how many
//! bytes follow it) is that layer's business — the core crate's
//! `AppPort` for one session, [`MuxHub`](crate::MuxHub) for many.
//!
//! Both ends stage payloads through a [`BufferPool`](crate::BufferPool)
//! rather than allocating per message.

use std::sync::Arc;

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

/// Application side of the pair wire (§4.2/§4.3): a command channel, a
/// reply channel, and one data lane per direction.
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

impl<C: Send + 'static, R: Send + 'static> PairTransport<C, R> {
    /// Which protection boundary an operation round-trip crosses.
    pub fn crossing(&self) -> CrossingKind {
        self.crossing
    }

    /// Sends one command to the sentinel.
    ///
    /// # Errors
    ///
    /// [`IpcError::BrokenPipe`] once the sentinel side is gone.
    pub fn send_cmd(&self, cmd: C) -> Result<()> {
        self.commands.send(cmd)
    }

    /// Receives the sentinel's next reply.
    ///
    /// # Errors
    ///
    /// [`IpcError::Closed`] once the sentinel side is gone.
    pub fn recv_reply(&self) -> Result<R> {
        self.replies.recv()
    }

    /// Sends payload bytes to the sentinel.
    pub fn send_data(&self, data: &[u8]) -> Result<()> {
        self.data_tx.send(data)
    }

    /// Receives exactly `buf.len()` payload bytes (short only at
    /// end-of-stream).
    pub fn recv_data_exact(&self, buf: &mut [u8]) -> Result<usize> {
        self.data_rx.recv_exact(buf)
    }

    /// Pulls the `n` payload bytes a reply announced into the front of
    /// `into`: the one place the bytes behind a reply leave the wire.
    ///
    /// # Errors
    ///
    /// A reply announcing more bytes than `into` has room for is a
    /// protocol violation: the excess is drained, so a lane shared with
    /// other sessions stays framed, and the pull fails with
    /// [`IpcError::BrokenPipe`]. [`IpcError::Closed`] means the sentinel
    /// side vanished mid-payload and the lane is dead.
    pub fn recv_payload(&self, n: usize, into: &mut [u8]) -> Result<usize> {
        // A pipe reports a vanished writer as a short count, not an error:
        // either way the payload is not coming.
        let pull = |dst: &mut [u8]| match self.data_rx.recv_exact(dst) {
            Ok(got) if got == dst.len() => Ok(()),
            _ => Err(IpcError::Closed),
        };
        match into.get_mut(..n) {
            Some([]) => Ok(0),
            Some(dst) => pull(dst).map(|()| n),
            None => {
                pull(&mut vec![0; n])?;
                Err(IpcError::BrokenPipe)
            }
        }
    }
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
    fn an_over_announced_payload_is_drained_and_the_lane_stays_framed() {
        let (app, port) = PairTransport::<u8, u8>::kernel(CostModel::free());
        port.send_data(b"0123456789").expect("oversized payload");
        port.send_data(b"next").expect("following payload");
        let mut buf = [0u8; 4];
        assert_eq!(app.recv_payload(10, &mut buf), Err(IpcError::BrokenPipe));
        assert_eq!(buf, [0u8; 4], "nothing lands in the caller's buffer");
        assert_eq!(app.recv_payload(4, &mut buf), Ok(4));
        assert_eq!(&buf, b"next");
        // The sentinel vanishing mid-payload is a dead lane, not a
        // protocol violation.
        port.send_data(b"ha").expect("half a payload");
        drop(port);
        assert_eq!(app.recv_payload(4, &mut buf), Err(IpcError::Closed));
    }
}
