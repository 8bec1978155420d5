//! A one-slot shared-memory mailbox: the §4.3 handoff as a primitive.
//!
//! "File data is not copied from user space to kernel space and then to
//! user space (as is the case with pipes), instead using only one
//! user-level copy" (§4.3). A [`SharedBuffer`] is a one-slot mailbox
//! between two threads:
//!
//! * [`SharedBuffer::send`] copies the caller's bytes into the shared slot
//!   — *this is the single user-level copy and the only one charged*;
//! * [`SharedBuffer::recv_into`] hands the bytes to the receiver. In the
//!   real prototype the producing side copies directly into the consumer's
//!   buffer inside the shared address space, so the physical copy
//!   performed here is *not* charged a second time.
//!
//! The slot is the [stamped channel](crate::stamped) with a capacity of
//! one message: it blocks a sender while occupied and a receiver while
//! empty, the rendezvous the prototype builds from events, and a sender
//! moves to the clock at which the previous message was taken.
//!
//! No wiring builds one: the §4.3 lanes carry each message's bytes inside
//! it, charged as this slot behind it (see [`transport`](crate::transport)).
//! It is kept only as the primitive `benchmark/`'s §4.3 probe times, until
//! that probe times the lanes instead.

use std::sync::Arc;

use afs_sim::{Cost, CostModel};

use crate::stamped::{Doorbell, Stamped};
use crate::{IpcError, Result};

#[derive(Debug)]
struct Inner {
    model: CostModel,
    /// Recycles slot buffers between transfers in its free list,
    /// mirroring the fixed shared-memory region of the prototype.
    /// Allocation-only; charges are unaffected.
    core: Stamped<Vec<u8>>,
}

/// A one-slot shared-memory mailbox (clones refer to the same slot).
#[derive(Debug, Clone)]
pub struct SharedBuffer {
    inner: Arc<Inner>,
}

impl SharedBuffer {
    /// Creates an empty buffer.
    pub fn new(model: CostModel) -> Self {
        SharedBuffer {
            inner: Arc::new(Inner {
                model,
                core: Stamped::new(Some(1), None),
            }),
        }
    }

    /// Copies `data` into the shared slot, blocking while the slot is
    /// occupied. Charges one user-level memcpy and one event signal.
    ///
    /// # Errors
    ///
    /// Returns [`IpcError::Closed`] if the buffer has been closed.
    pub fn send(&self, data: &[u8]) -> Result<()> {
        let inner = &*self.inner;
        inner
            .core
            .send(1, Doorbell::Post, |spare| {
                inner.model.charge(Cost::Memcpy { bytes: data.len() });
                inner.model.charge(Cost::EventSignal);
                let mut staged = spare.take_capacity(data.len());
                staged.extend_from_slice(data);
                [staged]
            })
            .map_err(|_| IpcError::Closed)
    }

    /// Takes the next message, copying as much as fits into `buf`, blocking
    /// until a message arrives.
    ///
    /// Returns the full message length; if it exceeds `buf.len()` the
    /// excess is discarded (callers size their buffers from the preceding
    /// control message, as the prototype does). The physical copy here is
    /// deliberately not charged — see the module docs.
    ///
    /// # Errors
    ///
    /// Returns [`IpcError::Closed`] if the buffer is closed and empty.
    pub fn recv_into(&self, buf: &mut [u8]) -> Result<usize> {
        let inner = &*self.inner;
        let mut taking = inner.core.take()?;
        let data = taking.pop().expect("a take holds an item");
        let n = data.len().min(buf.len());
        buf[..n].copy_from_slice(&data[..n]);
        let len = data.len();
        taking.recycle(data);
        taking.finish(1, || {});
        Ok(len)
    }

    /// Closes the buffer: pending and future operations fail with
    /// [`IpcError::Closed`] (a message already in the slot can still be
    /// received).
    pub fn close(&self) {
        self.inner.core.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afs_sim::{clock, HardwareProfile};
    use std::sync::mpsc;

    #[test]
    fn send_then_recv_roundtrips() {
        let b = SharedBuffer::new(CostModel::free());
        b.send(b"payload").expect("send");
        let mut buf = [0u8; 16];
        let n = b.recv_into(&mut buf).expect("recv");
        assert_eq!(&buf[..n], b"payload");
    }

    #[test]
    fn recv_reports_full_length_on_short_buffer() {
        let b = SharedBuffer::new(CostModel::free());
        b.send(b"0123456789").expect("send");
        let mut buf = [0u8; 4];
        let n = b.recv_into(&mut buf).expect("recv");
        assert_eq!(n, 10);
        assert_eq!(&buf, b"0123");
    }

    #[test]
    fn exactly_one_copy_is_charged() {
        let model = CostModel::new(HardwareProfile::pentium_ii_300());
        let b = SharedBuffer::new(model.clone());
        b.send(&[1u8; 256]).expect("send");
        let mut buf = [0u8; 256];
        b.recv_into(&mut buf).expect("recv");
        let snap = model.snapshot();
        assert_eq!(snap.memcpy_bytes, 256);
        assert_eq!(snap.copies, 1, "shared memory transfer is single-copy");
        assert_eq!(snap.pipe_copy_bytes, 0);
    }

    #[test]
    fn slot_buffers_recycle_through_the_pool() {
        let b = SharedBuffer::new(CostModel::free());
        let mut buf = [0u8; 8];
        for _ in 0..5 {
            b.send(&[9u8; 8]).expect("send");
            b.recv_into(&mut buf).expect("recv");
        }
        assert_eq!(b.inner.core.recycled(), (4, 1), "reuses, allocations");
        assert_eq!(b.inner.core.drain_entries(), 1);
    }

    #[test]
    fn sender_blocks_while_slot_full() {
        let b = SharedBuffer::new(CostModel::free());
        b.send(b"a").expect("first");
        let b2 = b.clone();
        let t = std::thread::spawn(move || b2.send(b"b"));
        std::thread::sleep(std::time::Duration::from_millis(10));
        assert!(!t.is_finished(), "second send must block");
        let mut buf = [0u8; 1];
        b.recv_into(&mut buf).expect("recv a");
        t.join().expect("join").expect("send b");
        b.recv_into(&mut buf).expect("recv b");
        assert_eq!(&buf, b"b");
    }

    #[test]
    fn close_unblocks_receiver_with_closed() {
        let b = SharedBuffer::new(CostModel::free());
        let b2 = b.clone();
        let t = std::thread::spawn(move || b2.recv_into(&mut [0u8; 4]));
        std::thread::sleep(std::time::Duration::from_millis(10));
        b.close();
        assert_eq!(t.join().expect("join"), Err(IpcError::Closed));
        assert_eq!(b.send(b"x"), Err(IpcError::Closed));
    }

    #[test]
    fn message_in_slot_survives_close() {
        let b = SharedBuffer::new(CostModel::free());
        b.send(b"last").expect("send");
        b.close();
        let mut buf = [0u8; 4];
        assert_eq!(b.recv_into(&mut buf), Ok(4));
        assert_eq!(&buf, b"last");
        assert_eq!(b.recv_into(&mut buf), Err(IpcError::Closed));
    }

    #[test]
    fn virtual_time_propagates() {
        let b = SharedBuffer::new(CostModel::new(HardwareProfile::pentium_ii_300()));
        let b2 = b.clone();
        std::thread::spawn(move || {
            let _g = clock::install(9_000);
            b2.send(b"t").expect("send");
        })
        .join()
        .expect("join");
        let _g = clock::install(0);
        b.recv_into(&mut [0u8; 1]).expect("recv");
        assert!(clock::now() >= 9_000);
    }

    /// The sender's clock after its second message, when the first is
    /// taken at 50 ms virtual before that send arrives or after it blocked.
    fn sender_clock_after_backpressure(taken_first: bool) -> u64 {
        let b = SharedBuffer::new(CostModel::new(HardwareProfile::pentium_ii_300()));
        let rx = b.clone();
        let (first_sent, sent) = mpsc::channel();
        let (taken, first_taken) = mpsc::channel();
        let receiver = std::thread::spawn(move || {
            let _g = clock::install(0);
            sent.recv().expect("first send");
            if !taken_first {
                std::thread::sleep(std::time::Duration::from_millis(30));
            }
            clock::advance(50_000_000);
            rx.recv_into(&mut [0u8; 1]).expect("take");
            taken.send(()).expect("signal");
            rx.recv_into(&mut [0u8; 1]).expect("second");
        });
        let _g = clock::install(0);
        b.send(b"a").expect("first fills the slot");
        assert!(clock::now() < 50_000_000);
        first_sent.send(()).expect("signal");
        if taken_first {
            first_taken.recv().expect("taken");
        }
        b.send(b"b").expect("second reuses the slot");
        receiver.join().expect("join");
        clock::now()
    }

    #[test]
    fn a_sender_moves_to_the_take_it_reuses_whether_or_not_it_waited() {
        let waited = sender_clock_after_backpressure(false);
        let found_space = sender_clock_after_backpressure(true);
        assert!(
            waited >= 50_000_000,
            "sender inherits the take, got {waited}"
        );
        assert_eq!(found_space, waited, "the real race does not move the clock");
    }
}
