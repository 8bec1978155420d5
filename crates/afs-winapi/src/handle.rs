//! Handles and the per-API handle table.
//!
//! The prototype returns a "fictitious handle" for active files and keeps
//! "an association … between the dummy handle and the two or three pipe
//! handles" (Appendix A.2). [`HandleTable`] provides exactly that
//! association: opaque [`Handle`] values mapped to arbitrary per-open
//! state.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::{ApiResult, Win32Error};

/// An opaque file handle, as returned by `CreateFile`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Handle(u64);

impl Handle {
    /// The invalid handle value (`INVALID_HANDLE_VALUE`).
    pub const INVALID: Handle = Handle(u64::MAX);

    /// The raw handle number (diagnostic).
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for Handle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Handle({})", self.0)
    }
}

/// Shards per [`HandleTable`].
const SHARDS: usize = 8;

/// Hashes a handle number with one multiply (and a rotate, so that the
/// low bits a map indexes by depend on every bit). Handle numbers are
/// sequential and never reused, so they need spreading, not SipHash's
/// defence against chosen keys.
#[derive(Debug, Default)]
struct HandleHasher(u64);

impl Hasher for HandleHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&byte| self.write_u64(byte.into()));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .rotate_left(26);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// One shard's handles.
type Handles<T> = HashMap<u64, Arc<T>, BuildHasherDefault<HandleHasher>>;

/// One shard of the map, on cache lines of its own: operations on
/// handles in different shards write nothing in common.
#[derive(Debug)]
#[repr(align(128))]
struct Shard<T>(Mutex<Handles<T>>);

/// A concurrent map from [`Handle`] to per-open state `T`, sharded by
/// handle number (consecutive opens land in different shards).
///
/// Handle values are never reused within one table, mirroring the
/// practical uniqueness guarantees applications rely on.
#[derive(Debug)]
pub struct HandleTable<T> {
    next: AtomicU64,
    shards: [Shard<T>; SHARDS],
}

impl<T> Default for HandleTable<T> {
    fn default() -> Self {
        HandleTable::new()
    }
}

impl<T> HandleTable<T> {
    /// Creates an empty table. The first issued handle is 16, leaving room
    /// below for well-known pseudo-handles.
    pub fn new() -> Self {
        HandleTable::with_start(16)
    }

    /// Creates an empty table whose first handle is `start`. Layered APIs
    /// use disjoint ranges so a handle can be routed to the layer that
    /// issued it.
    pub fn with_start(start: u64) -> Self {
        HandleTable {
            next: AtomicU64::new(start),
            shards: std::array::from_fn(|_| Shard(Mutex::default())),
        }
    }

    fn shard(&self, id: u64) -> &Mutex<Handles<T>> {
        &self.shards[(id % SHARDS as u64) as usize].0
    }

    /// Registers `state` and returns its new handle.
    pub fn insert(&self, state: T) -> Handle {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        self.shard(id).lock().insert(id, Arc::new(state));
        Handle(id)
    }

    /// Looks up the state for `handle`.
    ///
    /// # Errors
    ///
    /// [`Win32Error::InvalidHandle`] if the handle is unknown or closed.
    pub fn get(&self, handle: Handle) -> ApiResult<Arc<T>> {
        self.shard(handle.0)
            .lock()
            .get(&handle.0)
            .cloned()
            .ok_or(Win32Error::InvalidHandle)
    }

    /// Removes the handle, returning its state.
    ///
    /// # Errors
    ///
    /// [`Win32Error::InvalidHandle`] if the handle is unknown or already
    /// closed.
    pub fn remove(&self, handle: Handle) -> ApiResult<Arc<T>> {
        self.shard(handle.0)
            .lock()
            .remove(&handle.0)
            .ok_or(Win32Error::InvalidHandle)
    }

    /// Removes every open handle, returning the abandoned states so the
    /// caller controls when they drop (world teardown closes all active
    /// handles before shutting sentinels down).
    pub fn drain(&self) -> Vec<Arc<T>> {
        let mut states = Vec::new();
        for shard in &self.shards {
            states.extend(shard.0.lock().drain().map(|(_, state)| state));
        }
        states
    }

    /// Number of open handles.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|shard| shard.0.lock().len()).sum()
    }

    /// `true` if no handles are open.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_lifecycle() {
        let table: HandleTable<String> = HandleTable::new();
        let h = table.insert("state".to_owned());
        assert_ne!(h, Handle::INVALID);
        assert_eq!(*table.get(h).expect("get"), "state");
        assert_eq!(table.len(), 1);
        table.remove(h).expect("remove");
        assert_eq!(table.get(h), Err(Win32Error::InvalidHandle));
        assert!(table.is_empty());
    }

    /// The numbers one shard holds (16 + 8k) spread over the low bits a
    /// map indexes its buckets by: a multiply alone would leave three of
    /// them fixed and reach one bucket in eight.
    #[test]
    fn one_shards_handle_numbers_spread_over_the_low_bits() {
        let buckets: std::collections::HashSet<u64> = (0..1024u64)
            .map(|k| {
                let mut hasher = HandleHasher::default();
                hasher.write_u64(16 + 8 * k);
                hasher.finish() % 1024
            })
            .collect();
        assert!(buckets.len() > 600, "{} of 1024 buckets", buckets.len());
    }

    #[test]
    fn handles_are_unique_and_not_reused() {
        let table: HandleTable<u32> = HandleTable::new();
        let a = table.insert(1);
        table.remove(a).expect("remove");
        let b = table.insert(2);
        assert_ne!(a, b);
    }

    #[test]
    fn double_close_is_invalid_handle() {
        let table: HandleTable<u32> = HandleTable::new();
        let h = table.insert(1);
        table.remove(h).expect("first close");
        assert_eq!(table.remove(h), Err(Win32Error::InvalidHandle));
    }

    #[test]
    fn drain_empties_the_table_and_returns_states() {
        let table: HandleTable<u32> = HandleTable::new();
        table.insert(1);
        table.insert(2);
        let states = table.drain();
        assert_eq!(states.len(), 2);
        assert!(table.is_empty());
        assert_eq!(table.get(Handle(16)), Err(Win32Error::InvalidHandle));
    }

    /// Eight threads open, look up and close side by side, each leaving
    /// every fourth handle open: no handle is issued twice, every lookup
    /// finds its own state, and at rest the shards together hold exactly
    /// what was left open.
    #[test]
    fn sharded_table_is_exact_under_threads() {
        let table: HandleTable<(u64, u64)> = HandleTable::new();
        let start = std::sync::Barrier::new(8);
        let per_thread: Vec<Vec<(Handle, bool)>> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..8u64)
                .map(|t| {
                    let (table, start) = (&table, &start);
                    scope.spawn(move || {
                        start.wait();
                        (0..1_000u64)
                            .map(|i| {
                                let h = table.insert((t, i));
                                assert_eq!(*table.get(h).expect("own handle"), (t, i));
                                let keep = i % 4 == 0;
                                if !keep {
                                    assert_eq!(*table.remove(h).expect("close"), (t, i));
                                    assert_eq!(table.remove(h), Err(Win32Error::InvalidHandle));
                                    assert_eq!(table.get(h), Err(Win32Error::InvalidHandle));
                                }
                                (h, keep)
                            })
                            .collect()
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("worker"))
                .collect()
        });
        let issued: Vec<(Handle, bool)> = per_thread.into_iter().flatten().collect();
        let unique: std::collections::HashSet<Handle> = issued.iter().map(|(h, _)| *h).collect();
        assert_eq!(unique.len(), 8_000, "every handle unique");
        let kept = issued.iter().filter(|(_, keep)| *keep).count();
        assert_eq!((table.len(), kept), (2_000, 2_000));
        let mut drained: Vec<(u64, u64)> = table.drain().iter().map(|state| **state).collect();
        drained.sort_unstable();
        let expect: Vec<(u64, u64)> = (0..8)
            .flat_map(|t| (0..1_000).step_by(4).map(move |i| (t, i)))
            .collect();
        assert_eq!(drained, expect, "drain returns every open state");
        assert!(table.is_empty());
    }

    #[test]
    fn invalid_constant_never_collides() {
        let table: HandleTable<u32> = HandleTable::new();
        for _ in 0..1000 {
            assert_ne!(table.insert(0), Handle::INVALID);
        }
    }
}
