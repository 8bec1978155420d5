//! Striped state: one cell per thread, each on cache lines of its own, and
//! one shared cell, so that a sum every operation adds to has one writer.
//!
//! Bookkeeping that every operation of every thread writes and a report
//! reads at the end ([`OpTrace`](crate::OpTrace) totals, and the striped
//! metric families: the [`CostModel`](crate::CostModel) counters, a
//! network's traffic, the busiest gauges) kept in one place makes
//! independent clients take turns on a cache line; striped, a writer
//! touches only its own lines and the rare reader visits all of them.
//! The tree has this one mechanism.
//!
//! The ownership rule: a thread claims a free owned cell index at its
//! first use of any [`Striped`] (an Acquire compare-and-swap on a global
//! flag) and holds it in every [`Striped`] until it exits, when a
//! thread-local destructor releases it (a Release store). While it holds
//! the index no other thread writes those cells, so a [`Tally`] there adds
//! with a plain load and store; the next owner's claim sees the last
//! owner's stores and carries its totals on. A thread that finds every
//! owned cell taken, or whose thread-local is already gone, writes the
//! shared cell, where a [`Tally`] adds with one atomic read-modify-write:
//! there a collision costs speed, never exactness.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Owned cells per [`Striped`]. More threads than this share the one
/// shared cell.
pub(crate) const STRIPES: usize = 8;

/// The index of the shared cell, after the owned ones.
const SHARED: usize = STRIPES;

/// One cell, aligned so that no two share a cache line — 128 bytes, since
/// adjacent 64-byte lines are fetched in pairs.
#[derive(Debug, Default)]
#[repr(align(128))]
struct Padded<T>(T);

/// A fixed array of padded cells, eight owned and one shared:
/// [`Striped::mine`] for the calling thread's, [`Striped::iter`] to visit
/// them all. A reader summing cells sees each one at its own moment:
/// exact once the writers are done.
#[derive(Debug, Default)]
pub struct Striped<T>([Padded<T>; STRIPES + 1]);

/// How the calling thread may add to the cell [`Striped::mine`] handed it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Writer {
    /// The thread owns the cell: nobody else writes it.
    Owner,
    /// The cell is the shared one: other threads write it too.
    Shared,
}

/// Which owned cell indices are held by a live thread.
static CLAIMED: [AtomicBool; STRIPES] = [const { AtomicBool::new(false) }; STRIPES];

/// A thread's cell index, released when the thread exits.
struct Claim(usize);

impl Claim {
    /// The first free owned index, or the shared one if none is free.
    fn take() -> Claim {
        let free = CLAIMED.iter().position(|flag| {
            flag.compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
        });
        Claim(free.unwrap_or(SHARED))
    }
}

impl Drop for Claim {
    fn drop(&mut self) {
        if let Some(flag) = CLAIMED.get(self.0) {
            flag.store(false, Ordering::Release);
        }
    }
}

thread_local! {
    /// This thread's cell index, claimed on its first use of any [`Striped`].
    static MINE: Claim = Claim::take();
}

impl<T> Striped<T> {
    /// The calling thread's cell, and how it may add to it.
    pub fn mine(&self) -> (&T, Writer) {
        let index = MINE.try_with(|claim| claim.0).unwrap_or(SHARED);
        let writer = if index == SHARED {
            Writer::Shared
        } else {
            Writer::Owner
        };
        (&self.0[index].0, writer)
    }

    /// The first cell: the one place for a value that is a level, not a
    /// sum, so it is written and read where every thread finds it, with
    /// read-modify-writes.
    pub fn first(&self) -> &T {
        &self.0[0].0
    }

    /// Every cell, the owned ones in index order and then the shared one.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.0.iter().map(|cell| &cell.0)
    }
}

/// A sum in a [`Striped`] cell: a relaxed counter that its cell's owner
/// adds to with a load and a store, and the shared cell's writers with an
/// atomic read-modify-write (the tree's one, see DESIGN.md "Invariants").
#[derive(Debug, Default)]
pub struct Tally(AtomicU64);

impl Tally {
    /// Adds `n`, as `writer` may.
    #[inline]
    pub fn add(&self, writer: Writer, n: u64) {
        match writer {
            Writer::Owner => {
                let now = self.0.load(Ordering::Relaxed).wrapping_add(n);
                self.0.store(now, Ordering::Relaxed);
            }
            Writer::Shared => {
                self.0.fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    /// The current total.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Sets the total back to zero: exact only at rest, like a read.
    pub(crate) fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Barrier;

    use super::*;
    use crate::cost::tests::{seeded_charge, sum_of};
    use crate::trace::tests::{seeded_record, SingleVec};
    use crate::{Cost, CostModel, OpTrace, SimRng, TraceRecord};

    #[test]
    fn a_thread_keeps_its_stripe_and_cells_do_not_share_lines() {
        let striped = Striped::<u8>::default();
        assert!(std::ptr::eq(striped.mine().0, striped.mine().0));
        assert_eq!(striped.mine().1, striped.mine().1);
        let cells: Vec<*const u8> = striped.iter().map(std::ptr::from_ref).collect();
        assert_eq!(cells.len(), STRIPES + 1);
        for pair in cells.windows(2) {
            assert_eq!(pair[1] as usize - pair[0] as usize, 128);
        }
        assert_eq!(cells[0] as usize % 128, 0);
    }

    /// One thread's work: per step a seeded charge and record, and to
    /// the family one op and the thread's own number.
    #[derive(Clone, Copy)]
    struct Work(u64);

    impl Work {
        fn steps(self) -> impl Iterator<Item = (Cost, TraceRecord)> {
            let mut rng = SimRng::new(0x5EED + self.0);
            std::iter::repeat_with(move || (seeded_charge(&mut rng), seeded_record(&mut rng)))
        }

        /// Does `steps` into `to`.
        fn run(self, steps: impl Iterator<Item = (Cost, TraceRecord)>, to: &Shared) {
            for (charge, record) in steps {
                to.model.charge(charge);
                to.trace.record(record);
                let (cell, writer) = to.family.mine();
                cell[0].add(writer, 1);
                cell[1].add(writer, self.0);
            }
        }
    }

    /// A cost model, an op trace and a two-counter striped family.
    #[derive(Default)]
    struct Shared {
        model: CostModel,
        trace: OpTrace,
        family: Striped<[Tally; 2]>,
    }

    /// Three times as many threads as owned cells, so most write the
    /// shared cell. Of a first wave of 18, 12 exit early; the other 6
    /// wait halfway for a second wave of 6, which starts after the 12 are
    /// gone, so its threads inherit their cells and carry their totals on.
    /// Every total equals the serial model.
    #[test]
    fn counts_stay_exact_when_threads_outnumber_stripes() {
        const THREADS: u64 = 3 * STRIPES as u64;
        const OPS: usize = 50_000;
        let shared = Shared::default();
        let (first, second) = (0..THREADS * 3 / 4, THREADS * 3 / 4..THREADS);
        let stays = |t: u64| t % 3 == 2;
        let stayers = first.clone().filter(|&t| stays(t)).count();
        let start = Barrier::new(first.clone().count());
        let together = Barrier::new(stayers + second.clone().count());
        std::thread::scope(|scope| {
            let (start, together, shared) = (&start, &together, &shared);
            let wave: Vec<_> = first
                .map(|t| {
                    let handle = scope.spawn(move || {
                        let mut steps = Work(t).steps().take(OPS);
                        start.wait();
                        Work(t).run(steps.by_ref().take(OPS / 2), shared);
                        if stays(t) {
                            together.wait();
                        }
                        Work(t).run(steps, shared);
                    });
                    (t, handle)
                })
                .collect();
            let (stayers, leavers): (Vec<_>, Vec<_>) =
                wave.into_iter().partition(|&(t, _)| stays(t));
            for (_, leaver) in leavers {
                leaver.join().expect("early thread");
            }
            for t in second {
                scope.spawn(move || {
                    together.wait();
                    Work(t).run(Work(t).steps().take(OPS), shared);
                });
            }
            for (_, stayer) in stayers {
                stayer.join().expect("staying thread");
            }
        });

        let serial = || (0..THREADS).flat_map(|t| Work(t).steps().take(OPS));
        assert_eq!(shared.model.snapshot(), sum_of(serial().map(|(c, _)| c)));
        let mut model = SingleVec::default();
        serial().for_each(|(_, record)| model.record(&record));
        assert_eq!(shared.trace.summary(), model.summary());
        let family = [0, 1].map(|i| shared.family.iter().map(|c| c[i].get()).sum::<u64>());
        let expect = [THREADS, (0..THREADS).sum()].map(|n| n * OPS as u64);
        assert_eq!(family, expect);
    }
}
