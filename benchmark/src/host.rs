//! Host-side measurement plumbing: CPU pinning and scheduling policy,
//! process CPU time and context switches, peak RSS, the yardstick that
//! says how fast the core is running, and the counting allocator.
//! Everything here reads the *host* clock or the host kernel — never
//! `afs_sim::clock`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

// The container bakes in no `libc` crate; these are the four glibc
// symbols the benchmark needs, declared with their Linux x86-64/aarch64
// C signatures.
extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// `struct rusage` on 64-bit Linux: two `timeval`s then fourteen longs,
/// the last two of which count voluntary and involuntary context
/// switches.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime_sec: i64,
    utime_usec: i64,
    stime_sec: i64,
    stime_usec: i64,
    rest: [i64; 12],
    nvcsw: i64,
    nivcsw: i64,
}

/// Words in the affinity mask handed to the kernel (1024 CPUs).
const MASK_WORDS: usize = 16;

/// The CPUs this process may run on, ascending.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the byte
    // length passed; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..MASK_WORDS * 64)
        .filter(|cpu| mask[cpu / 64] & (1u64 << (cpu % 64)) != 0)
        .collect()
}

/// Pins the calling thread (and every thread it spawns afterwards) to
/// `cpus`. Returns `false` when the kernel refuses.
pub fn pin_current_thread(cpus: &[usize]) -> bool {
    let mut mask = [0u64; MASK_WORDS];
    for &cpu in cpus {
        if cpu >= MASK_WORDS * 64 {
            return false;
        }
        mask[cpu / 64] |= 1u64 << (cpu % 64);
    }
    if cpus.is_empty() {
        return false;
    }
    // SAFETY: `mask` is a live buffer of exactly the byte length passed;
    // pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// Puts the calling thread, and every thread it spawns afterwards,
/// under `SCHED_BATCH`, which needs no privilege. A woken batch thread
/// never preempts the running one, so on one CPU an app↔sentinel
/// round trip is exactly two context switches — the app runs until it
/// blocks, the sentinel runs until it parks. Under the default policy
/// the woken side sometimes preempts and sometimes does not, depending
/// on scheduler state that outlives a run, and the same binary moves
/// between 88 k, 105 k and 134 k ops/s on `fig6-thread-read`. Returns
/// `false` when the kernel refuses.
pub fn use_batch_scheduling() -> bool {
    const SCHED_BATCH: i32 = 3;
    // `struct sched_param` is one int, the static priority: 0 for
    // every non-realtime policy.
    let param = 0i32;
    // SAFETY: `param` is a live `struct sched_param`; pid 0 names the
    // calling thread.
    unsafe { sched_setscheduler(0, SCHED_BATCH, &param) == 0 }
}

/// CPU time and context switches of the whole process so far
/// (`getrusage(RUSAGE_SELF)`: every thread, sentinel workers included).
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcessUsage {
    /// User + system CPU time, µs.
    pub cpu_us: u64,
    /// Voluntary + involuntary context switches.
    pub ctx_switches: u64,
}

impl ProcessUsage {
    /// Reads the counters now; zeroes if the kernel refuses.
    pub fn now() -> ProcessUsage {
        let mut usage = Rusage::default();
        // SAFETY: `usage` is a live, writable `struct rusage`; 0 is
        // RUSAGE_SELF.
        let rc = unsafe { getrusage(0, &mut usage) };
        if rc != 0 {
            return ProcessUsage::default();
        }
        let us =
            (usage.utime_sec + usage.stime_sec) * 1_000_000 + usage.utime_usec + usage.stime_usec;
        ProcessUsage {
            cpu_us: us.max(0) as u64,
            ctx_switches: (usage.nvcsw + usage.nivcsw).max(0) as u64,
        }
    }
}

/// The yardstick: a fixed piece of work that calls nothing of the repo
/// — a hashed lookup, a branch on its result, a 128-byte copy under an
/// uncontended lock — roughly the instruction mix of an in-process
/// file op. How long it takes says how fast this core is running right
/// now. The sandbox shares its host: the same binary runs 35 % slower
/// for minutes at a time when a neighbour is busy, and the yardstick
/// slows with it (a serial register-only spin does not), so host times
/// divided by it repeat where raw host times do not.
pub struct Yardstick {
    table: HashMap<u64, u64>,
    block: [u8; 128],
    sink: Mutex<[u8; 128]>,
    key: u64,
}

/// Steps of one yardstick run (about 0.4 ms).
pub const YARDSTICK_STEPS: u64 = 1 << 14;

/// What one yardstick run takes on the reference core, ns: 25 ns a
/// step, the sandbox's own speed when its host is quiet. Times scaled
/// to it (`ref_*` metrics, `setup_s`) read as host times do on a quiet
/// sandbox.
pub const YARDSTICK_REF_NS: f64 = 25.0 * YARDSTICK_STEPS as f64;

impl Default for Yardstick {
    fn default() -> Self {
        Yardstick {
            table: (0..1024u64)
                .map(|k| (k, k.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
                .collect(),
            block: [0x5A; 128],
            sink: Mutex::new([0; 128]),
            key: 1,
        }
    }
}

impl Yardstick {
    /// Runs the yardstick once and returns the host ns it took.
    pub fn run_ns(&mut self) -> u64 {
        let start = Instant::now();
        for _ in 0..YARDSTICK_STEPS {
            let hit = self.table.get(&(self.key & 1023)).copied().unwrap_or(0);
            self.key = if hit & 1 == 0 {
                self.key
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(hit)
            } else {
                self.key.rotate_left(17) ^ hit
            };
            self.block[(self.key & 127) as usize] = hit as u8;
            *self.sink.lock().expect("yardstick lock") = self.block;
        }
        std::hint::black_box(&self.sink);
        start.elapsed().as_nanos() as u64
    }
}

fn proc_status_kib(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    proc_status_kib("VmHWM:").unwrap_or(0) as f64 / 1024.0
}

/// The 1-minute load average, as the kernel prints it.
pub fn loadavg_1m() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

/// Counting allocator: forwards to the system allocator and, while
/// [`arm_alloc_counter`] is in force, counts every allocation in a
/// per-thread-slot cell so client and sentinel threads never share a
/// cache line. Disarmed it costs one relaxed load per allocation.
pub struct CountingAlloc;

const SLOTS: usize = 64;

#[repr(align(64))]
struct Slot(AtomicU64);

static ARMED: AtomicBool = AtomicBool::new(false);
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);
static COUNTS: [Slot; SLOTS] = [const { Slot(AtomicU64::new(0)) }; SLOTS];

thread_local! {
    // `usize::MAX` = not yet assigned. Const-initialised and
    // destructor-free, so touching it inside the allocator cannot
    // itself allocate.
    static MY_SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn note_alloc() {
    if !ARMED.load(Ordering::Relaxed) {
        return;
    }
    // `try_with`: a thread tearing down its TLS still allocates.
    let slot = MY_SLOT
        .try_with(|s| {
            if s.get() == usize::MAX {
                s.set(NEXT_SLOT.fetch_add(1, Ordering::Relaxed) % SLOTS);
            }
            s.get()
        })
        .unwrap_or(0);
    COUNTS[slot].0.fetch_add(1, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter touches no
// allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: the caller's `layout` obligations pass straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via this allocator with the
        // same `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: as `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        // SAFETY: `ptr`/`layout` came from this allocator; `new_size`
        // is the caller's obligation.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Starts (or stops) counting allocations.
pub fn arm_alloc_counter(on: bool) {
    ARMED.store(on, Ordering::SeqCst);
}

/// Whether the counter is armed — the timed pass asserts it is not.
pub fn alloc_counter_armed() -> bool {
    ARMED.load(Ordering::SeqCst)
}

/// Allocations counted so far across every thread.
pub fn allocs_counted() -> u64 {
    COUNTS.iter().map(|s| s.0.load(Ordering::Relaxed)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allowed_cpus_is_not_empty_and_pinning_to_them_succeeds() {
        let cpus = allowed_cpus();
        assert!(!cpus.is_empty());
        std::thread::spawn(move || assert!(pin_current_thread(&cpus[..1])))
            .join()
            .expect("pin thread");
    }

    #[test]
    fn host_probes_read_something() {
        assert!(peak_rss_mib() > 0.0);
        let before = ProcessUsage::now().cpu_us;
        let mut x = 0u64;
        for i in 0..50_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(ProcessUsage::now().cpu_us >= before);
        assert!(Yardstick::default().run_ns() > 0);
    }
}
