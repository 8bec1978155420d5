//! Striped state: one cell per stripe, each on cache lines of its own, a
//! thread writing only the stripe it was dealt.
//!
//! The simulator's bookkeeping ([`CostModel`](crate::CostModel) counters,
//! [`OpTrace`](crate::OpTrace) totals) is written by every operation of
//! every thread and read at the end of a run. Kept in one place it makes
//! independent clients take turns on a cache line; striped, a writer
//! touches only its own lines and the rare reader visits all of them.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Stripes per [`Striped`]. More threads than this share stripes (cells
/// must stay correct under sharing; they only get slower).
pub(crate) const STRIPES: usize = 8;

/// One cell, aligned so that no two share a cache line — 128 bytes, since
/// adjacent 64-byte lines are fetched in pairs.
#[derive(Debug, Default)]
#[repr(align(128))]
struct Padded<T>(T);

/// A fixed array of padded cells: [`Striped::mine`] for the calling
/// thread's, [`Striped::iter`] to visit them all.
#[derive(Debug, Default)]
pub(crate) struct Striped<T>([Padded<T>; STRIPES]);

/// Deals stripe indices round-robin off `counter`.
fn next_index(counter: &AtomicUsize) -> usize {
    counter.fetch_add(1, Ordering::Relaxed) % STRIPES
}

static DEALT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's stripe, dealt on its first use of any [`Striped`].
    static MINE: usize = next_index(&DEALT);
}

impl<T> Striped<T> {
    /// The calling thread's cell.
    pub(crate) fn mine(&self) -> &T {
        &self.0[MINE.with(|index| *index)].0
    }

    /// Every cell, in stripe order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> {
        self.0.iter().map(|cell| &cell.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_dealt_consecutively_modulo_the_stripe_count() {
        let counter = AtomicUsize::new(STRIPES - 2);
        let dealt: Vec<usize> = (0..STRIPES + 3).map(|_| next_index(&counter)).collect();
        let expect: Vec<usize> = (0..STRIPES + 3)
            .map(|i| (STRIPES - 2 + i) % STRIPES)
            .collect();
        assert_eq!(dealt, expect);
    }

    #[test]
    fn a_thread_keeps_its_stripe_and_cells_do_not_share_lines() {
        let striped = Striped::<u8>::default();
        assert!(std::ptr::eq(striped.mine(), striped.mine()));
        let cells: Vec<*const u8> = striped.iter().map(std::ptr::from_ref).collect();
        assert_eq!(cells.len(), STRIPES);
        for pair in cells.windows(2) {
            assert_eq!(pair[1] as usize - pair[0] as usize, 128);
        }
        assert_eq!(cells[0] as usize % 128, 0);
    }
}
