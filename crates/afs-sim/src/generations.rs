//! An append-only list of generations: state that readers on every
//! thread consult on every operation and that changes rarely — an
//! interception chain, a service registry.
//!
//! A change never edits a generation in place: it publishes a new one,
//! made from the newest, and the old ones stay until the list is
//! dropped. So a reader borrows the newest generation with loads only —
//! no lock, no reference count, nothing written — and a reader that
//! borrowed an older one finishes on it while the list moves on.
//! Changes serialise on one lock, so each is made from the true newest.
//!
//! Generations live in buckets of doubling size, found by index, and the
//! count of published generations is the list's tail: finding the newest
//! is one load of the count and a bucket lookup, however many changes the
//! list has seen, and dropping the list drops flat buckets, never a chain.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use parking_lot::{Mutex, MutexGuard};

/// Buckets per list; bucket `b` holds `2^b` generations, so the list
/// holds `2^BUCKETS - 1` in all.
const BUCKETS: usize = 32;

/// The bucket and the slot in it of generation `index`.
fn place(index: usize) -> (usize, usize) {
    let bucket = (usize::BITS - 1 - (index + 1).leading_zeros()) as usize;
    (bucket, index + 1 - (1 << bucket))
}

/// An append-only list of generations of `T`: [`newest`](Generations::newest)
/// for readers, [`change`](Generations::change) for the one writer at a
/// time.
pub struct Generations<T> {
    buckets: [OnceLock<Box<[OnceLock<T>]>>; BUCKETS],
    /// Generations published; stored (`Release`) after the newest is set,
    /// loaded (`Acquire`) before it is read.
    published: AtomicUsize,
    change: Mutex<()>,
}

impl<T> Generations<T> {
    /// A list whose only generation is `first`.
    pub fn new(first: T) -> Self {
        let list = Generations {
            buckets: std::array::from_fn(|_| OnceLock::new()),
            published: AtomicUsize::new(0),
            change: Mutex::new(()),
        };
        list.append(first);
        list
    }

    /// The newest generation published.
    pub fn newest(&self) -> &T {
        self.get(self.published.load(Ordering::Acquire) - 1)
    }

    fn get(&self, index: usize) -> &T {
        let (bucket, slot) = place(index);
        self.buckets[bucket]
            .get()
            .and_then(|bucket| bucket[slot].get())
            .expect("a generation is set before it is counted")
    }

    /// Starts a change: until the returned guard drops, no other change
    /// can publish, so the generation it makes from
    /// [`Change::newest`] is still the newest when it publishes.
    pub fn change(&self) -> Change<'_, T> {
        Change {
            list: self,
            _serial: self.change.lock(),
        }
    }

    /// Appends `next` as the newest generation. The caller serialises.
    fn append(&self, next: T) {
        let index = self.published.load(Ordering::Relaxed);
        let (bucket, slot) = place(index);
        assert!(bucket < BUCKETS, "a generation list is full");
        let bucket = self.buckets[bucket].get_or_init(|| {
            (0..1usize << bucket)
                .map(|_| OnceLock::new())
                .collect::<Box<[_]>>()
        });
        assert!(bucket[slot].set(next).is_ok(), "appends are serialised");
        self.published.store(index + 1, Ordering::Release);
    }
}

/// One change to a [`Generations`] list in progress: holds the list's
/// change lock.
pub struct Change<'a, T> {
    list: &'a Generations<T>,
    _serial: MutexGuard<'a, ()>,
}

impl<'a, T> Change<'a, T> {
    /// The newest generation, which no other change can replace while
    /// this one is open.
    pub fn newest(&self) -> &'a T {
        self.list.newest()
    }

    /// Publishes `next` as the newest generation: every reader after this
    /// returns sees it, a reader already holding an older one keeps it.
    pub fn publish(&mut self, next: T) {
        self.list.append(next);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    #[test]
    fn generations_are_placed_in_doubling_buckets() {
        let placed: Vec<(usize, usize)> = (0..8).map(place).collect();
        assert_eq!(
            placed,
            [
                (0, 0),
                (1, 0),
                (1, 1),
                (2, 0),
                (2, 1),
                (2, 2),
                (2, 3),
                (3, 0)
            ]
        );
    }

    #[test]
    fn every_generation_stays_where_it_was_published() {
        let list = Generations::new(0u32);
        let first: *const u32 = list.newest();
        for n in 1..1_000 {
            list.change().publish(n);
            assert_eq!(*list.newest(), n);
        }
        for n in 0..1_000 {
            assert_eq!(*list.get(n as usize), n);
        }
        assert!(std::ptr::eq(first, list.get(0)), "nothing moved");
    }

    #[test]
    fn a_change_is_made_from_the_newest_generation() {
        let list = Generations::new(0u64);
        let start = Barrier::new(4);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    start.wait();
                    for _ in 0..500 {
                        let mut change = list.change();
                        let next = change.newest() + 1;
                        change.publish(next);
                    }
                });
            }
        });
        assert_eq!(*list.newest(), 2_000, "no change was lost");
    }

    #[test]
    fn a_long_list_drops_cleanly() {
        // A list linked generation to generation would recurse this deep
        // when dropped.
        let list = Generations::new(vec![0u32]);
        for n in 1..200_000 {
            list.change().publish(vec![n]);
        }
        assert_eq!(list.newest(), &[199_999]);
        drop(list);
    }
}
