//! Anonymous pipes with virtual-time accounting.
//!
//! A [`Pipe`] is a bounded FIFO of bytes between one or more writers and
//! one or more readers (handles can be duplicated, mirroring NT's
//! `DuplicateHandle`). It is the [stamped channel](crate::stamped) counted
//! in bytes, with a capacity of [`DEFAULT_CAPACITY`], whose readers may
//! take part of a segment; *logically* it is an NT anonymous pipe, and it
//! charges the cost model accordingly:
//!
//! * a write charges one syscall, one fixed per-message overhead, and one
//!   user→kernel copy of the payload;
//! * a read charges one syscall and one kernel→user copy.
//!
//! Virtual time flows through the pipe by the core's rule: a reader moves
//! to the stamp of the data it consumes, and a writer to the reader's
//! clock when the bytes it reuses were freed — the bandwidth backpressure
//! the paper explains Figure 6's Write panels by (§6).

use std::sync::Arc;

use afs_sim::{Cost, CostModel, CrossingKind};
use afs_telemetry::QueueGauges;

use crate::stamped::{Doorbell, End, Flow, Gauge, Stamped};
use crate::Result;

/// Default pipe capacity, matching the small in-kernel buffer of NT
/// anonymous pipes.
pub const DEFAULT_CAPACITY: usize = 16 * 1024;

#[derive(Debug)]
struct Segment {
    data: Vec<u8>,
    pos: usize,
}

impl Segment {
    fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }
}

#[derive(Debug)]
struct Inner {
    model: CostModel,
    crossing: CrossingKind,
    capacity: usize,
    /// Recycles segment buffers in its free list: the reader returns
    /// fully-consumed segments, the writer reuses them for subsequent
    /// chunks. Purely an allocation optimisation — charges are identical
    /// either way.
    core: Stamped<Segment>,
}

/// Factory for pipe endpoint pairs.
#[derive(Debug)]
pub struct Pipe;

impl Pipe {
    /// Creates an anonymous pipe with the default capacity.
    ///
    /// `crossing` records which protection boundary the pipe spans; it is
    /// carried on the endpoints so strategy code can charge the right kind
    /// of context switch.
    pub fn anonymous(model: CostModel, crossing: CrossingKind) -> (PipeWriter, PipeReader) {
        Pipe::with_capacity(model, crossing, DEFAULT_CAPACITY)
    }

    /// Like [`Pipe::anonymous`], but reports queue depth to `gauges`.
    pub fn anonymous_observed(
        model: CostModel,
        crossing: CrossingKind,
        gauges: Arc<QueueGauges>,
    ) -> (PipeWriter, PipeReader) {
        let gauge: Gauge = Box::new(move |flow| match flow {
            Flow::Sent { units, .. } => gauges.pipe_enqueued(units as u64),
            Flow::Taken(units) => gauges.pipe_drained(units as u64),
        });
        Pipe::build(model, crossing, DEFAULT_CAPACITY, Some(gauge))
    }

    /// Creates an anonymous pipe with an explicit buffer capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(
        model: CostModel,
        crossing: CrossingKind,
        capacity: usize,
    ) -> (PipeWriter, PipeReader) {
        Pipe::build(model, crossing, capacity, None)
    }

    fn build(
        model: CostModel,
        crossing: CrossingKind,
        capacity: usize,
        gauge: Option<Gauge>,
    ) -> (PipeWriter, PipeReader) {
        assert!(capacity > 0, "pipe capacity must be positive");
        let inner = Arc::new(Inner {
            model,
            crossing,
            capacity,
            core: Stamped::new(Some(capacity), gauge),
        });
        (
            PipeWriter {
                inner: Arc::clone(&inner),
            },
            PipeReader { inner },
        )
    }
}

/// The writing end of a pipe.
#[derive(Debug)]
pub struct PipeWriter {
    inner: Arc<Inner>,
}

/// The reading end of a pipe.
#[derive(Debug)]
pub struct PipeReader {
    inner: Arc<Inner>,
}

impl PipeWriter {
    /// Writes all of `buf` into the pipe, blocking while the pipe is full.
    ///
    /// Charges one syscall + message overhead per call and a user→kernel
    /// copy per byte. Payloads larger than the pipe capacity are moved in
    /// capacity-sized chunks, blocking between chunks, just as a real pipe
    /// would.
    ///
    /// # Errors
    ///
    /// Returns [`IpcError::BrokenPipe`](crate::IpcError::BrokenPipe) if
    /// every reader is gone (data written so far may have been discarded,
    /// as with a real pipe).
    pub fn write(&self, buf: &[u8]) -> Result<()> {
        let inner = &*self.inner;
        inner.model.charge(Cost::Syscall);
        inner.model.charge(Cost::PipeMessage);
        if buf.is_empty() {
            return inner.core.send(0, Doorbell::Post, |_| []);
        }
        // Writes no larger than the capacity are atomic (PIPE_BUF
        // semantics): each chunk waits until it fits whole, so segments
        // from concurrent writers never interleave mid-write.
        for chunk in buf.chunks(inner.capacity) {
            inner.core.send(chunk.len(), Doorbell::Post, |spare| {
                // The user→kernel copy of this chunk.
                inner.model.charge(Cost::PipeCopy { bytes: chunk.len() });
                let mut data = spare.take_capacity(chunk.len());
                data.extend_from_slice(chunk);
                [Segment { data, pos: 0 }]
            })?;
        }
        Ok(())
    }

    /// The protection boundary this pipe crosses.
    pub fn crossing(&self) -> CrossingKind {
        self.inner.crossing
    }

    /// Whether a write of `len` bytes would go in whole now, without
    /// waiting for a reader to drain.
    pub(crate) fn fits(&self, len: usize) -> bool {
        self.inner.core.fits(len)
    }

    /// Duplicates the handle (NT `DuplicateHandle` semantics): the pipe
    /// stays writable until every writer handle is dropped.
    pub fn duplicate(&self) -> PipeWriter {
        self.inner.core.duplicate(End::Sender);
        PipeWriter {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl Drop for PipeWriter {
    fn drop(&mut self) {
        self.inner.core.hang_up(End::Sender);
    }
}

impl PipeReader {
    /// Reads up to `buf.len()` bytes, blocking until at least one byte is
    /// available or every writer is gone.
    ///
    /// Returns the number of bytes read; `Ok(0)` means end-of-file (all
    /// writers closed and the pipe drained). Charges one syscall per call
    /// and a kernel→user copy per byte actually read.
    pub fn read(&self, buf: &mut [u8]) -> Result<usize> {
        let mut at = 0;
        self.read_with(buf.len(), |chunk| {
            buf[at..at + chunk.len()].copy_from_slice(chunk);
            at += chunk.len();
        })
    }

    /// [`PipeReader::read`] of up to `n` bytes onto the end of `buf`, so
    /// a buffer taken with room for them is not zero-filled first. Charges
    /// as `read` does.
    pub fn read_append(&self, buf: &mut Vec<u8>, n: usize) -> Result<usize> {
        self.read_with(n, |chunk| buf.extend_from_slice(chunk))
    }

    /// One read of up to `max` bytes, handing each buffered run of them
    /// to `copy` in order.
    fn read_with(&self, max: usize, mut copy: impl FnMut(&[u8])) -> Result<usize> {
        let inner = &*self.inner;
        inner.model.charge(Cost::Syscall);
        if max == 0 {
            return Ok(0);
        }
        let Ok(mut taking) = inner.core.take() else {
            return Ok(0);
        };
        let mut copied = 0;
        while copied < max {
            let Some(front) = taking.front() else {
                break;
            };
            let take = front.remaining().min(max - copied);
            copy(&front.data[front.pos..front.pos + take]);
            front.pos += take;
            copied += take;
            if front.remaining() == 0 {
                if let Some(spent) = taking.pop() {
                    taking.recycle(spent.data);
                }
            }
        }
        taking.finish(copied, || {
            inner.model.charge(Cost::PipeCopy { bytes: copied });
        });
        Ok(copied)
    }

    /// Reads exactly `buf.len()` bytes unless end-of-file intervenes.
    ///
    /// Returns the number of bytes read, which is less than `buf.len()`
    /// only if the pipe reached end-of-file.
    pub fn read_exact(&self, buf: &mut [u8]) -> Result<usize> {
        let mut total = 0;
        while total < buf.len() {
            let n = self.read(&mut buf[total..])?;
            if n == 0 {
                break;
            }
            total += n;
        }
        Ok(total)
    }

    /// The protection boundary this pipe crosses.
    pub fn crossing(&self) -> CrossingKind {
        self.inner.crossing
    }

    /// The bytes the pipe holds before a writer waits for a reader.
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }

    /// Duplicates the handle; the pipe reports a broken pipe to writers
    /// only after every reader handle is dropped.
    pub fn duplicate(&self) -> PipeReader {
        self.inner.core.duplicate(End::Receiver);
        PipeReader {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl Drop for PipeReader {
    fn drop(&mut self) {
        self.inner.core.hang_up(End::Receiver);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IpcError;
    use afs_sim::{clock, HardwareProfile};
    use std::sync::mpsc;

    fn free_pipe() -> (PipeWriter, PipeReader) {
        Pipe::anonymous(CostModel::free(), CrossingKind::InterProcess)
    }

    #[test]
    fn roundtrip_bytes_in_order() {
        let (w, r) = free_pipe();
        w.write(b"hello ").expect("write");
        w.write(b"world").expect("write");
        let mut buf = [0u8; 16];
        let n = r.read(&mut buf).expect("read");
        assert_eq!(&buf[..n], b"hello world");
    }

    #[test]
    fn read_blocks_until_data_arrives() {
        let (w, r) = free_pipe();
        let t = std::thread::spawn(move || {
            let mut buf = [0u8; 4];
            let n = r.read(&mut buf).expect("read");
            (n, buf)
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        w.write(b"data").expect("write");
        let (n, buf) = t.join().expect("join");
        assert_eq!((n, &buf[..]), (4, &b"data"[..]));
    }

    #[test]
    fn eof_after_all_writers_drop() {
        let (w, r) = free_pipe();
        let w2 = w.duplicate();
        w.write(b"x").expect("write");
        drop(w);
        let mut buf = [0u8; 4];
        assert_eq!(r.read(&mut buf).expect("read"), 1);
        // Second writer still open: no EOF yet, write works.
        w2.write(b"y").expect("write");
        drop(w2);
        assert_eq!(r.read(&mut buf).expect("read"), 1);
        assert_eq!(r.read(&mut buf).expect("read"), 0);
        assert_eq!(r.read(&mut buf).expect("read"), 0);
    }

    #[test]
    fn write_to_closed_reader_is_broken_pipe() {
        let (w, r) = free_pipe();
        drop(r);
        assert_eq!(w.write(b"x"), Err(IpcError::BrokenPipe));
        assert_eq!(w.write(b""), Err(IpcError::BrokenPipe));
    }

    #[test]
    fn large_write_chunks_through_small_capacity() {
        let (w, r) = Pipe::with_capacity(CostModel::free(), CrossingKind::InterThread, 8);
        let payload: Vec<u8> = (0..100u8).collect();
        let expected = payload.clone();
        let t = std::thread::spawn(move || w.write(&payload));
        let mut got = vec![0u8; 100];
        let n = r.read_exact(&mut got).expect("read_exact");
        assert_eq!(n, 100);
        assert_eq!(got, expected);
        t.join().expect("join").expect("write");
    }

    #[test]
    fn zero_len_ops_are_cheap_and_ok() {
        let (w, r) = free_pipe();
        w.write(&[]).expect("empty write");
        let mut empty: [u8; 0] = [];
        assert_eq!(r.read(&mut empty).expect("empty read"), 0);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = Pipe::with_capacity(CostModel::free(), CrossingKind::None, 0);
    }

    #[test]
    fn charges_two_copies_per_transfer() {
        let model = CostModel::new(HardwareProfile::pentium_ii_300());
        let (w, r) = Pipe::anonymous(model.clone(), CrossingKind::InterProcess);
        w.write(&[7u8; 64]).expect("write");
        let mut buf = [0u8; 64];
        r.read(&mut buf).expect("read");
        let snap = model.snapshot();
        assert_eq!(snap.pipe_copy_bytes, 128, "one copy in, one copy out");
        assert_eq!(snap.copies, 2);
        assert_eq!(snap.syscalls, 2);
        assert_eq!(snap.pipe_messages, 1);
    }

    #[test]
    fn an_appending_read_returns_and_charges_what_read_exact_does() {
        let payload: Vec<u8> = (0..64u8).collect();
        for writes in [vec![&payload[..]], vec![&payload[..24], &payload[24..]]] {
            let run = |read: &dyn Fn(&PipeReader) -> Vec<u8>| {
                let model = CostModel::new(HardwareProfile::pentium_ii_300());
                let (w, r) = Pipe::anonymous(model.clone(), CrossingKind::InterProcess);
                let _g = clock::install(0);
                for part in &writes {
                    w.write(part).expect("write");
                }
                (read(&r), model.snapshot(), clock::now())
            };
            let exact = run(&|r| {
                let mut buf = vec![0u8; 64];
                assert_eq!(r.read_exact(&mut buf).expect("read_exact"), 64);
                buf
            });
            let appended = run(&|r| {
                let mut buf = Vec::with_capacity(64);
                assert_eq!(r.read_append(&mut buf, 64).expect("read_append"), 64);
                buf
            });
            assert_eq!(exact.0, payload);
            assert_eq!(appended, exact, "{} writes", writes.len());
        }
    }

    #[test]
    fn virtual_time_flows_writer_to_reader() {
        let model = CostModel::new(HardwareProfile::pentium_ii_300());
        let (w, r) = Pipe::anonymous(model.clone(), CrossingKind::InterProcess);
        // Writer at t=1_000_000 ns.
        let wt = std::thread::spawn(move || {
            let _g = clock::install(1_000_000);
            w.write(&[1u8; 8]).expect("write");
            clock::now()
        });
        let writer_after = wt.join().expect("join");
        // Reader starts at t=0; after reading it must be at least at the
        // writer's enqueue stamp plus its own read costs.
        let _g = clock::install(0);
        let mut buf = [0u8; 8];
        r.read(&mut buf).expect("read");
        assert!(clock::now() >= 1_000_000);
        assert!(writer_after >= 1_000_000);
    }

    /// The writer's clock after its second 8-byte write into an 8-byte
    /// pipe whose reader drains the first at 50 ms virtual, with the real
    /// race decided one way or the other.
    fn writer_clock_after_backpressure(reader_drains_first: bool) -> u64 {
        let model = CostModel::new(HardwareProfile::pentium_ii_300());
        let (w, r) = Pipe::with_capacity(model, CrossingKind::InterProcess, 8);
        let (first_written, written) = mpsc::channel();
        let (drained, first_drained) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            let _g = clock::install(0);
            written.recv().expect("first write");
            if !reader_drains_first {
                // Let the second write block on the full pipe.
                std::thread::sleep(std::time::Duration::from_millis(30));
            }
            clock::advance(50_000_000);
            r.read_exact(&mut [0u8; 8]).expect("drain");
            drained.send(()).expect("signal");
            r.read_exact(&mut [0u8; 8]).expect("second");
        });
        let _g = clock::install(0);
        w.write(&[0u8; 8]).expect("first fits");
        assert!(clock::now() < 50_000_000);
        first_written.send(()).expect("signal");
        if reader_drains_first {
            first_drained.recv().expect("drained");
        }
        w.write(&[0u8; 8]).expect("second reuses the drained bytes");
        reader.join().expect("join");
        clock::now()
    }

    #[test]
    fn a_writer_moves_to_the_drain_it_reuses_whether_or_not_it_waited() {
        let waited = writer_clock_after_backpressure(false);
        let found_space = writer_clock_after_backpressure(true);
        assert!(
            waited >= 50_000_000,
            "writer inherits the drain, got {waited}"
        );
        assert_eq!(found_space, waited, "the real race does not move the clock");
    }

    #[test]
    fn round_trips_keep_two_drains_and_one_allocation() {
        let model = || CostModel::new(HardwareProfile::pentium_ii_300());
        let (ask, asked) = Pipe::anonymous(model(), CrossingKind::InterProcess);
        let (answer, answered) = Pipe::anonymous(model(), CrossingKind::InterProcess);
        let server = std::thread::spawn(move || {
            let _g = clock::install(0);
            let mut buf = [0u8; 16];
            while asked.read_exact(&mut buf).expect("request") == 16 {
                answer.write(&buf).expect("response");
            }
            answer
        });
        let _g = clock::install(0);
        let mut buf = [0u8; 16];
        for _ in 0..10_000 {
            ask.write(&[5u8; 16]).expect("request");
            answered.read_exact(&mut buf).expect("response");
            assert!(ask.inner.core.drain_entries() <= 2);
        }
        assert_eq!(
            ask.inner.core.recycled(),
            (9_999, 1),
            "the lane's own list still allocates once"
        );
        drop(ask);
        let answer = server.join().expect("join");
        assert!(answer.inner.core.drain_entries() <= 2);
        assert_eq!(answered.inner.core.recycled(), (9_999, 1));
    }

    #[test]
    fn pooling_does_not_change_charges() {
        let model = CostModel::new(HardwareProfile::pentium_ii_300());
        let (w, r) = Pipe::anonymous(model.clone(), CrossingKind::InterProcess);
        let mut buf = [0u8; 64];
        w.write(&[7u8; 64]).expect("warm write");
        r.read(&mut buf).expect("warm read");
        let before = model.snapshot();
        w.write(&[7u8; 64]).expect("pooled write");
        r.read(&mut buf).expect("pooled read");
        let delta = model.snapshot().since(&before);
        assert_eq!(
            delta.pipe_copy_bytes, 128,
            "reused buffer still charges both copies"
        );
        assert_eq!(delta.copies, 2);
        assert_eq!(delta.syscalls, 2);
    }

    #[test]
    fn observed_pipe_reports_queue_depth() {
        let gauges = Arc::new(QueueGauges::default());
        let (w, r) = Pipe::anonymous_observed(
            CostModel::free(),
            CrossingKind::InterProcess,
            Arc::clone(&gauges),
        );
        w.write(&[1u8; 32]).expect("write");
        let mut buf = [0u8; 32];
        r.read(&mut buf).expect("read");
        let snap = gauges.snapshot();
        assert_eq!(snap.pipe_buffered_peak, 32);
        assert_eq!(snap.pipe_messages, 1);
    }

    #[test]
    fn many_threads_interleave_without_loss() {
        let (w, r) = Pipe::with_capacity(CostModel::free(), CrossingKind::InterThread, 64);
        let writers: Vec<_> = (0..4)
            .map(|i| {
                let w = w.duplicate();
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        w.write(&[i as u8; 16]).expect("write");
                    }
                })
            })
            .collect();
        drop(w);
        let mut counts = [0usize; 4];
        let mut buf = [0u8; 16];
        loop {
            let n = r.read_exact(&mut buf).expect("read");
            if n == 0 {
                break;
            }
            assert_eq!(
                n, 16,
                "pipe writes of one segment never interleave mid-chunk"
            );
            counts[buf[0] as usize] += 1;
        }
        assert_eq!(counts, [100; 4]);
        for t in writers {
            t.join().expect("join");
        }
    }
}
