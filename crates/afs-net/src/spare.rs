//! The message buffers a thread keeps between its messages.
//!
//! A message takes two buffers from its thread, one for the request and
//! one for the reply, and gives both back when it returns, so a thread's
//! steady traffic allocates nothing. A service that sends messages of its
//! own while it handles one takes buffers of its own. A thread keeps at
//! most [`KEPT`] buffers of at most [`KEPT_CAPACITY`] bytes each: a rare
//! large message pays for its allocation instead of holding its memory
//! for good.

use std::cell::RefCell;
use std::ops::{Deref, DerefMut};

use crate::WireWriter;

/// Most buffers a thread keeps: a message and two nested in it.
const KEPT: usize = 6;

/// Largest buffer a thread keeps, in bytes.
const KEPT_CAPACITY: usize = 64 * 1024;

thread_local! {
    static SPARE: RefCell<Vec<Vec<u8>>> = const { RefCell::new(Vec::new()) };
}

/// One of the calling thread's message buffers: empty when taken, given
/// back when dropped.
pub(crate) struct MessageBuf(Vec<u8>);

impl MessageBuf {
    /// A buffer from the thread's spares, or a new, empty one.
    pub(crate) fn take() -> MessageBuf {
        let spare = SPARE.try_with(|spare| spare.borrow_mut().pop());
        MessageBuf(spare.ok().flatten().unwrap_or_default())
    }

    /// Appends what `encode` writes.
    pub(crate) fn encode(&mut self, encode: impl FnOnce(&mut WireWriter)) {
        let mut w = WireWriter::from(std::mem::take(&mut self.0));
        encode(&mut w);
        self.0 = w.finish();
    }
}

impl Deref for MessageBuf {
    type Target = Vec<u8>;

    fn deref(&self) -> &Vec<u8> {
        &self.0
    }
}

impl DerefMut for MessageBuf {
    fn deref_mut(&mut self) -> &mut Vec<u8> {
        &mut self.0
    }
}

impl Drop for MessageBuf {
    fn drop(&mut self) {
        let mut buf = std::mem::take(&mut self.0);
        if buf.capacity() == 0 || buf.capacity() > KEPT_CAPACITY {
            return;
        }
        buf.clear();
        // A thread that is exiting keeps nothing.
        let _ = SPARE.try_with(|spare| {
            let mut spare = spare.borrow_mut();
            if spare.len() < KEPT {
                spare.push(buf);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kept() -> Vec<usize> {
        SPARE.with_borrow(|spare| spare.iter().map(Vec::capacity).collect())
    }

    #[test]
    fn a_buffer_comes_back_empty_and_is_reused() {
        let mut first = MessageBuf::take();
        first.extend_from_slice(b"request");
        let at = first.as_ptr();
        drop(first);
        let again = MessageBuf::take();
        assert!(again.is_empty());
        assert_eq!(again.as_ptr(), at, "the same allocation");
    }

    #[test]
    fn a_nested_message_takes_buffers_of_its_own() {
        let (mut outer, mut inner) = (MessageBuf::take(), MessageBuf::take());
        outer.push(1);
        inner.push(2);
        assert_ne!(outer.as_ptr(), inner.as_ptr());
        drop((outer, inner));
        assert_eq!(kept().len(), 2);
    }

    #[test]
    fn the_spares_are_bounded_in_count_and_size() {
        let bufs: Vec<MessageBuf> = (0..KEPT + 3)
            .map(|_| {
                let mut buf = MessageBuf::take();
                buf.push(0);
                buf
            })
            .collect();
        drop(bufs);
        assert_eq!(kept().len(), KEPT);
        let mut big = MessageBuf::take();
        big.resize(KEPT_CAPACITY + 1, 0);
        drop(big);
        assert_eq!(kept().len(), KEPT - 1, "a large buffer is freed, not kept");
        assert!(kept().iter().all(|&cap| cap <= KEPT_CAPACITY));
    }
}
