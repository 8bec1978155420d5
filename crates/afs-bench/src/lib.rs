//! Benchmark harness regenerating the paper's evaluation (Figure 6).
//!
//! §6 of the paper measures "an application that reads and writes
//! fixed-size blocks from an active file", for block sizes 8–2048 bytes,
//! timing 1000 calls per configuration, across three implementations
//! (process-with-control, DLL-with-thread, DLL-only) and three critical
//! caching paths (remote source, on-disk cache, in-memory cache).
//!
//! [`measure`] runs exactly that experiment over the real runtime with the
//! calibrated Pentium-II cost model and per-thread virtual clocks;
//! [`grid`] measures every cell the harness can print exactly once, into
//! the one document the bench gate holds; [`render`] prints every table
//! from that document; and `tests/figure6_shape.rs` asserts the
//! reproduction claims (ordering, growth, read/write asymmetry).

pub mod cluster;
pub mod gate;
pub mod view;
pub mod workload;

pub use gate::{bench_json, compare, grid, parse_bench_doc, BenchDoc, Cell};
pub use view::render;

use std::sync::Arc;

use afs_core::{AfsWorld, Backing, SentinelSpec, Strategy};
use afs_interpose::ApiHandle;
use afs_net::Service;
use afs_remote::{FileClient, FileServer};
use afs_sim::{clock, CostSnapshot, HardwareProfile, Series};
use afs_vfs::VPath;
use afs_winapi::{Access, Disposition, FileApi, Handle, SeekMethod};

/// The block sizes of Figure 6.
pub const BLOCK_SIZES: [usize; 5] = [8, 32, 128, 512, 2048];

/// Calls per configuration ("time 1000 calls of each", §6).
pub const DEFAULT_OPS: usize = 1000;

/// The three implementation series of Figure 6 (the simple process
/// strategy of §4.1 is not plotted in the paper; the harness still runs
/// it as a column of its own).
pub const FIGURE6_STRATEGIES: [Strategy; 3] = [
    Strategy::ProcessControl,
    Strategy::DllThread,
    Strategy::DllOnly,
];

/// The critical path the sentinel exercises (Figure 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathKind {
    /// Panel (a): the sentinel contacts a remote file server per
    /// operation.
    Remote,
    /// Panel (b): the sentinel uses the on-disk cache (the data part).
    Disk,
    /// Panel (c): the sentinel uses an in-memory cache.
    Memory,
}

impl PathKind {
    /// All panels in paper order.
    pub const ALL: [PathKind; 3] = [PathKind::Remote, PathKind::Disk, PathKind::Memory];

    /// Panel letter used in output ("a", "b", "c").
    pub fn panel(self) -> &'static str {
        match self {
            PathKind::Remote => "a",
            PathKind::Disk => "b",
            PathKind::Memory => "c",
        }
    }

    /// Human description matching the figure caption.
    pub fn describe(self) -> &'static str {
        match self {
            PathKind::Remote => "sentinel uses a remote source",
            PathKind::Disk => "sentinel uses a local on-disk cache",
            PathKind::Memory => "sentinel uses an in-memory cache",
        }
    }
}

/// Read or write direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// `ReadFile` latency.
    Read,
    /// `WriteFile` cost.
    Write,
}

impl Direction {
    /// Both directions, reads first.
    pub const BOTH: [Direction; 2] = [Direction::Read, Direction::Write];

    /// Lower-case name used in cell names ("read", "write").
    pub fn label(self) -> &'static str {
        match self {
            Direction::Read => "read",
            Direction::Write => "write",
        }
    }
}

/// One measured cell of Figure 6.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Per-operation virtual durations.
    pub series: Series,
    /// Counter deltas over the whole run (copies, switches, …).
    pub counters: CostSnapshot,
}

impl Measurement {
    /// Mean per-op time in µs — the unit the paper plots.
    pub fn mean_us(&self) -> f64 {
        self.series.summarize().mean_us()
    }
}

/// The one place a bench world is built: a `mirror` sentinel under
/// `strategy` in front of `extent` — on a remote file server, or in the
/// data part for the disk and memory caches — with `keys` appended to its
/// spec. Returns the world and the active file's path.
pub(crate) fn build_world(
    path: PathKind,
    strategy: Strategy,
    profile: HardwareProfile,
    extent: &[u8],
    keys: &[(&str, &str)],
) -> (AfsWorld, &'static str) {
    let world = AfsWorld::builder().profile(profile).build();
    afs_sentinels::register_all(world.sentinels());
    let file = "/bench.af";
    let mut spec = SentinelSpec::new("mirror", strategy);
    spec = match path {
        PathKind::Remote => {
            let server = FileServer::new();
            server.seed("/blob", extent);
            world.net().register("files", server as Arc<dyn Service>);
            spec.with("service", "files").with("remote", "/blob")
        }
        PathKind::Disk => spec.backing(Backing::Disk),
        PathKind::Memory => spec.backing(Backing::Memory),
    };
    for (key, value) in keys {
        spec = spec.with(key, value);
    }
    world
        .install_active_file(file, &spec)
        .expect("install mirror");
    if path != PathKind::Remote {
        // Pre-populate the data part so reads have bytes to return (the
        // memory cache warms from it on open).
        world
            .vfs()
            .write_stream_replace(&VPath::parse(file).expect("path"), extent)
            .expect("seed data part");
    }
    (world, file)
}

/// The extent every Figure 6 cell reads: `bytes` of one filler value.
pub(crate) fn filler(bytes: usize) -> Vec<u8> {
    vec![0xA5u8; bytes]
}

/// Runs one Figure 6 cell: `ops` sequential operations of `block` bytes
/// through the given strategy and path, under the given hardware profile.
/// Returns per-op virtual durations and counter deltas.
pub fn measure(
    path: PathKind,
    strategy: Strategy,
    direction: Direction,
    block: usize,
    ops: usize,
    profile: HardwareProfile,
) -> Measurement {
    let (world, file) = build_world(path, strategy, profile, &filler(block * ops), &[]);
    run_blocks(&world, file, direction, block, ops)
}

/// Runs a small sequential-read workload through all four §4 strategies
/// with telemetry enabled and renders every collected span as one
/// chrome://tracing JSON document (one trace-viewer "process" per
/// strategy). Backs `figure6 --spans out.json`.
pub fn span_trace(ops: usize, profile: HardwareProfile) -> String {
    const BLOCK: usize = 128;
    let strategies = [
        Strategy::Process,
        Strategy::ProcessControl,
        Strategy::DllThread,
        Strategy::DllOnly,
    ];
    let groups: Vec<(&str, Vec<afs_telemetry::SpanRecord>)> = strategies
        .into_iter()
        .map(|strategy| {
            let extent = filler(BLOCK * ops);
            let (world, file) =
                build_world(PathKind::Memory, strategy, profile.clone(), &extent, &[]);
            world.telemetry().set_enabled(true);
            run_blocks(&world, file, Direction::Read, BLOCK, ops);
            (strategy.label(), world.telemetry().spans())
        })
        .collect();
    afs_telemetry::chrome_trace(&groups)
}

/// The `ablation_trace` cell: the `Thread` gate cell (memory path,
/// DLL-with-thread, 128-byte sequential reads) re-run with telemetry fully
/// on — span capture, slow-op scanning and a flight bundle cut at every
/// slow op all active. Because latency is virtual time and spans charge
/// nothing, it must equal the `Thread` cell in every field.
pub fn measure_instrumented(ops: usize, profile: HardwareProfile) -> Measurement {
    const BLOCK: usize = 128;
    let (world, file) = build_world(
        PathKind::Memory,
        Strategy::DllThread,
        profile,
        &filler(BLOCK * ops),
        &[],
    );
    world.telemetry().set_enabled(true);
    // A slow-op threshold low enough to scan every op.
    world.telemetry().set_slow_threshold_ns(1);
    run_blocks(&world, file, Direction::Read, BLOCK, ops)
}

/// Block size used by the batching ablation (the Figure 6 midpoint).
pub const BATCH_BLOCK: usize = 128;

/// Ring depth used by the batching ablation and the `ablation_batch-on`
/// gate cell.
pub const BATCH_RING_DEPTH: usize = 8;

/// The `ablation_batch-on` cell: the `Thread` gate cell with `batch=on` /
/// `ring_depth=`[`BATCH_RING_DEPTH`], so the boundary is a
/// submission/completion ring. The seeded extent carries a varying byte
/// pattern and the reads must return it byte for byte, so an offset error
/// fails the measurement, not just a length error.
pub fn measure_batched(ops: usize, profile: HardwareProfile) -> Measurement {
    let extent: Vec<u8> = (0..BATCH_BLOCK * ops).map(|i| (i % 251) as u8).collect();
    let depth = BATCH_RING_DEPTH.to_string();
    let (world, file) = build_world(
        PathKind::Memory,
        Strategy::DllThread,
        profile,
        &extent,
        &[("batch", "on"), ("ring_depth", depth.as_str())],
    );
    let mut transcript = Vec::with_capacity(extent.len());
    let mut buf = vec![0u8; BATCH_BLOCK];
    let m = run_cell(&world, file, Access::read_only(), ops, |api, h| {
        let n = api.read_file(h, &mut buf).expect("read");
        assert_eq!(n, BATCH_BLOCK, "seeded file must satisfy full blocks");
        transcript.extend_from_slice(&buf[..n]);
    });
    assert!(
        transcript == extent,
        "batched reads must return the seeded extent byte for byte"
    );
    m
}

/// The one timed loop: opens `file`, runs `op` `ops` times with each call
/// timed under a fresh virtual clock, and closes the handle. Returns the
/// per-call durations and the counter deltas over the loop.
fn run_cell(
    world: &AfsWorld,
    file: &str,
    access: Access,
    ops: usize,
    mut op: impl FnMut(&ApiHandle, Handle),
) -> Measurement {
    let api = world.api();
    let model = world.model().clone();
    let _guard = clock::install(0);
    let h = api
        .create_file(file, access, Disposition::OpenExisting)
        .expect("open bench file");
    let mut series = Series::with_capacity(ops);
    let before = model.snapshot();
    for _ in 0..ops {
        let start = clock::now();
        op(&api, h);
        series.push(clock::now() - start);
    }
    let counters = model.snapshot().since(&before);
    api.close_handle(h).expect("close");
    Measurement { series, counters }
}

/// [`run_cell`] over `ops` sequential reads or writes of `block` bytes.
fn run_blocks(
    world: &AfsWorld,
    file: &str,
    direction: Direction,
    block: usize,
    ops: usize,
) -> Measurement {
    let mut buf = vec![0u8; block];
    match direction {
        // A §4.1 stream is a pipe, and `ReadFile` on a pipe returns what
        // is there: read until the block is full. (The command strategies
        // fill it on the first call.)
        Direction::Read => run_cell(world, file, Access::read_only(), ops, |api, h| {
            let mut filled = 0;
            while filled < block {
                let n = api.read_file(h, &mut buf[filled..]).expect("read");
                assert_ne!(n, 0, "seeded file must satisfy full blocks");
                filled += n;
            }
        }),
        // Writes start at offset 0 so the disk/memory cache does not grow
        // unboundedly relative to reads; the pointer advances naturally
        // like the paper's streaming writer.
        Direction::Write => run_cell(world, file, Access::read_write(), ops, |api, h| {
            let n = api.write_file(h, &buf).expect("write");
            assert_eq!(n, block);
        }),
    }
}

/// Direct (uninstrumented) access to the same path — the baseline the
/// figure caption says is "indistinguishable from the DLL-only case".
pub fn measure_baseline(
    path: PathKind,
    direction: Direction,
    block: usize,
    ops: usize,
    profile: HardwareProfile,
) -> Measurement {
    let total = block * ops;
    let world = AfsWorld::builder().profile(profile).build();
    let model = world.model().clone();
    let _guard = clock::install(0);
    let mut series = Series::with_capacity(ops);
    let before_counters = model.snapshot();
    match path {
        PathKind::Remote => {
            let server = FileServer::new();
            server.seed("/blob", &filler(total));
            world.net().register("files", server as Arc<dyn Service>);
            let client = FileClient::new(world.net().endpoint(["files"]));
            let payload = vec![0u8; block];
            for i in 0..ops {
                let offset = (i * block) as u64;
                let start = clock::now();
                match direction {
                    Direction::Read => {
                        let data = client.get("/blob", offset, block).expect("get");
                        assert_eq!(data.len(), block);
                    }
                    Direction::Write => {
                        client.put_async("/blob", offset, &payload).expect("put");
                    }
                }
                series.push(clock::now() - start);
            }
        }
        PathKind::Disk | PathKind::Memory => {
            // Direct application access to a passive local file: the cost
            // the application would pay without any sentinel. Disk costs
            // are charged manually, mirroring what the sentinel's cache
            // charges for the same medium.
            let api = world.api();
            let vpath = "/plain.bin";
            let h = api
                .create_file(vpath, Access::read_write(), Disposition::CreateAlways)
                .expect("create");
            api.write_file(h, &filler(total)).expect("seed");
            api.set_file_pointer(h, 0, SeekMethod::Begin)
                .expect("rewind");
            let payload = vec![0u8; block];
            let mut buf = vec![0u8; block];
            for _ in 0..ops {
                let start = clock::now();
                if path == PathKind::Disk {
                    // Reads pay the access (seek + rotation); writes land
                    // in the drive's write cache, exactly as the
                    // sentinel's disk-backed CacheStore charges.
                    match direction {
                        Direction::Read => {
                            model.charge(afs_sim::Cost::DiskAccess);
                            model.charge(afs_sim::Cost::DiskReadBytes { bytes: block });
                        }
                        Direction::Write => {
                            model.charge(afs_sim::Cost::DiskWriteBytes { bytes: block });
                        }
                    }
                }
                match direction {
                    Direction::Read => {
                        api.read_file(h, &mut buf).expect("read");
                    }
                    Direction::Write => {
                        api.write_file(h, &payload).expect("write");
                    }
                }
                series.push(clock::now() - start);
            }
            api.close_handle(h).expect("close");
        }
    }
    let counters = model.snapshot().since(&before_counters);
    Measurement { series, counters }
}

/// Client counts swept by the concurrency ablation.
pub const MUX_CLIENTS: [usize; 4] = [1, 2, 8, 32];

/// Block size used by the concurrency ablation (the Figure 6 midpoint).
pub const MUX_BLOCK: usize = 128;

/// Runs one concurrency cell: `clients` threads each open the bench file
/// (ProcessControl strategy, memory cache), seek to a private region, and
/// issue `ops_per_client` sequential writes of [`MUX_BLOCK`] bytes, with
/// the sentinel either shared (session-multiplexed) or private per open
/// (`share=off`), over the pair lane or, `batched`, a ring (`batch=on
/// ring_depth=8`). Returns every client's per-write latency, pooled, and
/// the counter deltas over the whole run (opens and closes included).
///
/// Barriers fence the write phase on both sides so every write runs with
/// all sessions attached: shared-sentinel staging behaviour (and thus the
/// latency distribution) is deterministic, which lets the bench gate hold
/// these numbers to the same threshold as the Figure 6 cells.
pub fn measure_concurrency(
    clients: usize,
    shared: bool,
    batched: bool,
    ops_per_client: usize,
    profile: HardwareProfile,
) -> Measurement {
    let block = MUX_BLOCK;
    let region = ops_per_client * block;
    let mut keys = Vec::new();
    if !shared {
        keys.push(("share", "off"));
    }
    if batched {
        keys.extend([("batch", "on"), ("ring_depth", "8")]);
    }
    let (world, file) = build_world(
        PathKind::Memory,
        Strategy::ProcessControl,
        profile,
        &filler(region * clients),
        &keys,
    );

    let model = world.model().clone();
    let before = model.snapshot();
    let barrier = Arc::new(std::sync::Barrier::new(clients));
    let mut joins = Vec::new();
    for idx in 0..clients {
        let api = world.api();
        let barrier = Arc::clone(&barrier);
        joins.push(afs_sim::spawn(format!("mux-{idx}"), Some(0), move || {
            let h = api
                .create_file(file, Access::read_write(), Disposition::OpenExisting)
                .expect("open mux file");
            api.set_file_pointer(h, (idx * region) as i64, SeekMethod::Begin)
                .expect("seek to region");
            let buf = vec![idx as u8; block];
            let mut latencies = Vec::with_capacity(ops_per_client);
            barrier.wait();
            for _ in 0..ops_per_client {
                let start = clock::now();
                let n = api.write_file(h, &buf).expect("write");
                assert_eq!(n, block);
                latencies.push(clock::now() - start);
            }
            // Hold the session open until every client has finished its
            // writes: the session count (and with it the staging
            // behaviour) stays constant across the measured phase.
            barrier.wait();
            api.close_handle(h).expect("close");
            latencies
        }));
    }
    let mut series = Series::with_capacity(clients * ops_per_client);
    for join in joins {
        series.extend(join.join().expect("client thread"));
    }
    let counters = model.snapshot().since(&before);
    Measurement { series, counters }
}

/// Fleet sizes of the fleet panel — the headline claim is the last point:
/// ten thousand concurrent active files on a bounded pool. Debug builds
/// (the in-repo test suite) stop at one thousand so `cargo test` stays
/// quick; the cell name carries the size, so a debug-produced document
/// can never pass silently against the release baseline.
pub const FLEET_SIZES: &[usize] = if cfg!(debug_assertions) {
    &[100, 1_000]
} else {
    &[100, 1_000, 10_000]
};

/// Block size used by the fleet panel (the Figure 6 midpoint).
pub const FLEET_BLOCK: usize = 128;

/// One cell of the fleet panel: `files` concurrently-open active files
/// multiplexed over the bounded sentinel executor.
#[derive(Debug, Clone)]
pub struct FleetMeasurement {
    /// Per-read virtual latencies across every file.
    pub summary: afs_sim::Summary,
    /// Executor gauges sampled while every sentinel was live.
    pub fleet: afs_telemetry::FleetSnapshot,
}

/// Runs one fleet cell: installs `files` DLL-thread active files (memory
/// cache), opens them *all* — every sentinel is registered with the
/// executor at once — then issues `ops_per_file` sequential 128-byte
/// reads against each, timing every read under the virtual clock.
///
/// `workers` pins the pool bound; `None` uses the world default (one per
/// core). The virtual latencies are identical either
/// way — the executor schedules real threads, the costs are charged on
/// virtual clocks — which is exactly what `tests/fleet_equivalence.rs`
/// asserts.
pub fn measure_fleet(
    files: usize,
    ops_per_file: usize,
    workers: Option<usize>,
    profile: HardwareProfile,
) -> FleetMeasurement {
    let mut builder = AfsWorld::builder().profile(profile);
    if let Some(w) = workers {
        builder = builder.fleet_workers(w);
    }
    let world = builder.build();
    afs_sentinels::register_all(world.sentinels());
    let _guard = clock::install(0);
    let api = world.api();
    let extent = vec![0xA5u8; FLEET_BLOCK * ops_per_file];
    let mut handles = Vec::with_capacity(files);
    for idx in 0..files {
        let path = format!("/fleet/{idx}.af");
        world
            .install_active_file(
                &path,
                &SentinelSpec::new("mirror", Strategy::DllThread).backing(Backing::Memory),
            )
            .expect("install fleet file");
        world
            .vfs()
            .write_stream_replace(&VPath::parse(&path).expect("path"), &extent)
            .expect("seed data part");
        handles.push(
            api.create_file(&path, Access::read_only(), Disposition::OpenExisting)
                .expect("open fleet file"),
        );
    }
    let mut series = Series::with_capacity(files * ops_per_file);
    let mut buf = vec![0u8; FLEET_BLOCK];
    for &h in &handles {
        for _ in 0..ops_per_file {
            let start = clock::now();
            let n = api.read_file(h, &mut buf).expect("fleet read");
            assert_eq!(n, FLEET_BLOCK, "seeded file must satisfy full blocks");
            series.push(clock::now() - start);
        }
    }
    // Sample the gauges while every file is still open: `sentinels` is the
    // concurrent-fleet size, `workers` the pool's actual thread count.
    let fleet = world.telemetry().fleet().snapshot();
    for h in handles {
        api.close_handle(h).expect("close fleet file");
    }
    FleetMeasurement {
        summary: series.summarize(),
        fleet,
    }
}

/// Block size of the durable-store cells.
pub const STORE_BLOCK: usize = 128;

fn durable_null_spec() -> SentinelSpec {
    SentinelSpec::new("null", Strategy::DllOnly)
        .backing(Backing::Disk)
        .with("durable", "on")
        .with("sync", "commit")
        .with("checkpoint_pages", "0")
}

/// The `store-durable` cell: `ops` committed 128-byte writes through a
/// WAL-backed null sentinel (DLL-only, disk backing, `sync=commit`).
/// Every sample is one write + one flush, i.e. one group-committed WAL
/// batch with its fsync barrier — the §4 cost model charging durability
/// honestly.
pub fn measure_store(ops: usize, profile: HardwareProfile) -> Measurement {
    let world = AfsWorld::builder().profile(profile).build();
    let file = "/store.af";
    world
        .install_active_file(file, &durable_null_spec())
        .expect("install durable file");
    let buf = filler(STORE_BLOCK);
    run_cell(&world, file, Access::read_write(), ops, |api, h| {
        let n = api.write_file(h, &buf).expect("durable write");
        assert_eq!(n, STORE_BLOCK);
        api.flush_file_buffers(h).expect("commit");
    })
}

/// The `store-recovery` cell: virtual time to reopen a durable active
/// file whose WAL holds `commits` committed batches — spec decode,
/// sentinel instantiation, WAL scan, and redo replay, measured over
/// `reopens` cold opens of fresh worlds sharing the surviving disk.
pub fn measure_store_recovery(commits: usize, reopens: usize, profile: HardwareProfile) -> Series {
    let vfs = Arc::new(afs_vfs::Vfs::new());
    let file = "/recover.af";
    {
        let world = AfsWorld::builder()
            .profile(profile.clone())
            .vfs(Arc::clone(&vfs))
            .build();
        world
            .install_active_file(file, &durable_null_spec())
            .expect("install durable file");
        let _guard = clock::install(0);
        let api = world.api();
        let h = api
            .create_file(file, Access::read_write(), Disposition::OpenExisting)
            .expect("open durable file");
        let buf = vec![0x5Au8; STORE_BLOCK];
        for _ in 0..commits {
            api.write_file(h, &buf).expect("durable write");
            api.flush_file_buffers(h).expect("commit");
        }
        api.close_handle(h).expect("close");
    }
    let mut series = Series::with_capacity(reopens);
    for _ in 0..reopens {
        let world = AfsWorld::builder()
            .profile(profile.clone())
            .vfs(Arc::clone(&vfs))
            .build();
        let _guard = clock::install(0);
        let api = world.api();
        let start = clock::now();
        let h = api
            .create_file(file, Access::read_only(), Disposition::OpenExisting)
            .expect("reopen durable file");
        series.push(clock::now() - start);
        api.close_handle(h).expect("close");
    }
    series
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_returns_requested_sample_count() {
        let m = measure(
            PathKind::Memory,
            Strategy::DllOnly,
            Direction::Read,
            32,
            50,
            HardwareProfile::pentium_ii_300(),
        );
        assert_eq!(m.series.len(), 50);
        assert!(m.mean_us() > 0.0);
    }

    /// A §4.1 stream hands a block larger than its pipe chunk over in
    /// pieces; the cell still times whole blocks.
    #[test]
    fn simple_process_reads_fill_blocks_a_pipe_delivers_in_pieces() {
        let m = measure(
            PathKind::Remote,
            Strategy::Process,
            Direction::Read,
            2048,
            20,
            HardwareProfile::pentium_ii_300(),
        );
        assert_eq!(m.series.len(), 20);
    }

    #[test]
    fn remote_path_moves_network_bytes() {
        let m = measure(
            PathKind::Remote,
            Strategy::DllOnly,
            Direction::Read,
            128,
            10,
            HardwareProfile::pentium_ii_300(),
        );
        assert!(m.counters.net_bytes >= 10 * 128);
        assert_eq!(m.counters.net_round_trips, 10);
    }

    #[test]
    fn disk_path_hits_the_disk() {
        let m = measure(
            PathKind::Disk,
            Strategy::DllOnly,
            Direction::Read,
            128,
            10,
            HardwareProfile::pentium_ii_300(),
        );
        assert_eq!(m.counters.disk_accesses, 10);
    }

    #[test]
    fn process_strategy_pays_process_switches_thread_pays_thread() {
        let p = measure(
            PathKind::Memory,
            Strategy::ProcessControl,
            Direction::Read,
            64,
            20,
            HardwareProfile::pentium_ii_300(),
        );
        assert!(p.counters.process_switches >= 40, "2 crossings per op");
        let t = measure(
            PathKind::Memory,
            Strategy::DllThread,
            Direction::Read,
            64,
            20,
            HardwareProfile::pentium_ii_300(),
        );
        assert!(t.counters.thread_switches >= 40);
        assert_eq!(t.counters.process_switches, 0);
    }

    #[test]
    fn copies_per_transfer_follow_the_paper() {
        // Pipes: 2 copies per transfer; shared memory: 1; DLL-only: only
        // the logic's own memcpy.
        let p = measure(
            PathKind::Memory,
            Strategy::ProcessControl,
            Direction::Read,
            256,
            10,
            HardwareProfile::pentium_ii_300(),
        );
        assert!(p.counters.pipe_copy_bytes >= 2 * 10 * 256);
        let t = measure(
            PathKind::Memory,
            Strategy::DllThread,
            Direction::Read,
            256,
            10,
            HardwareProfile::pentium_ii_300(),
        );
        assert_eq!(t.counters.pipe_copy_bytes, 0);
        assert!(t.counters.memcpy_bytes >= 10 * 256);
    }

    /// The executor's headline, asserted: a fleet two orders of magnitude
    /// larger runs on the same bounded pool with a flat p99.
    #[test]
    fn fleet_scales_on_a_bounded_pool_with_flat_p99() {
        const WORKERS: usize = 2;
        let profile = HardwareProfile::pentium_ii_300();
        let big_files = *FLEET_SIZES.last().expect("a fleet size");
        let small = measure_fleet(100, 1, Some(WORKERS), profile.clone());
        let big = measure_fleet(big_files, 1, Some(WORKERS), profile);
        assert!(
            big.fleet.workers <= WORKERS as u64,
            "{big_files} files ran on {} workers (cap {WORKERS})",
            big.fleet.workers
        );
        assert_eq!(
            big.fleet.sentinels, big_files as u64,
            "every file's sentinel was live at once"
        );
        assert!(
            big.summary.p99_ns as f64 <= small.summary.p99_ns as f64 * 1.3,
            "p99 must stay flat as the fleet grows: {big_files} files {} ns vs 100 files {} ns",
            big.summary.p99_ns,
            small.summary.p99_ns
        );
    }

    /// Single-sentinel parity: one file on a one-worker pool costs what
    /// the plain Thread-strategy cell costs — the refactor moved the
    /// scheduling, not the charging.
    #[test]
    fn fleet_single_sentinel_parity_matches_thread_cell() {
        const OPS: usize = 100;
        let profile = HardwareProfile::pentium_ii_300();
        let thread = measure(
            PathKind::Memory,
            Strategy::DllThread,
            Direction::Read,
            FLEET_BLOCK,
            OPS,
            profile.clone(),
        )
        .series
        .summarize();
        let parity = measure_fleet(1, OPS, Some(1), profile).summary;
        let within = |a: u64, b: u64| {
            let (a, b) = (a as f64, b as f64);
            (a - b).abs() <= b * 0.05
        };
        assert!(
            within(parity.p99_ns, thread.p99_ns),
            "parity p99 {} ns vs Thread cell {} ns",
            parity.p99_ns,
            thread.p99_ns
        );
        assert!(
            within(parity.p50_ns, thread.p50_ns),
            "parity p50 {} ns vs Thread cell {} ns",
            parity.p50_ns,
            thread.p50_ns
        );
    }

    /// The tentpole claim of the ring, asserted at gate granularity: it
    /// cuts protection-domain crossings per sequential read by about the
    /// ring depth (and `measure_batched` itself checks the bytes).
    #[test]
    fn batch_ablation_cuts_crossings_by_about_ring_depth() {
        let profile = HardwareProfile::pentium_ii_300();
        let crossings = |m: &Measurement| {
            (m.counters.process_switches + m.counters.thread_switches) as f64
                / m.series.len() as f64
        };
        let plain = crossings(&measure(
            PathKind::Memory,
            Strategy::DllThread,
            Direction::Read,
            BATCH_BLOCK,
            64,
            profile.clone(),
        ));
        let ring = crossings(&measure_batched(64, profile));
        let reduction = plain / ring.max(f64::EPSILON);
        assert!(
            reduction >= BATCH_RING_DEPTH as f64 * 0.75,
            "crossings/op {plain:.2} -> {ring:.2} is only a {reduction:.1}x drop \
             (ring depth {BATCH_RING_DEPTH})"
        );
    }

    #[test]
    fn trace_ablation_is_free() {
        // The acceptance bound is <= 5% p99 overhead with zero extra §4
        // charges; in virtual time the two must in fact coincide, because
        // spans, slow-op scans and flight bundles charge the cost model
        // nothing — the 5% headroom is for the day that stops being true,
        // so the gate fails loudly rather than drifting.
        let profile = HardwareProfile::pentium_ii_300();
        let dark = measure(
            PathKind::Memory,
            Strategy::DllThread,
            Direction::Read,
            128,
            50,
            profile.clone(),
        );
        let traced = measure_instrumented(50, profile);
        assert_eq!(
            dark.counters, traced.counters,
            "tracing charged the §4 cost model"
        );
        let (dark, traced) = (dark.series.summarize(), traced.series.summarize());
        assert!(
            traced.p99_ns as f64 <= dark.p99_ns as f64 * 1.05,
            "instrumented p99 {} ns exceeds dark p99 {} ns by more than 5%",
            traced.p99_ns,
            dark.p99_ns
        );
        assert_eq!(
            traced.p50_ns, dark.p50_ns,
            "identical charges must mean identical virtual medians"
        );
    }
}
