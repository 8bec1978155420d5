//! Benchmark harness regenerating the paper's evaluation (Figure 6).
//!
//! §6 of the paper measures "an application that reads and writes
//! fixed-size blocks from an active file", for block sizes 8–2048 bytes,
//! timing 1000 calls per configuration, across three implementations
//! (process-with-control, DLL-with-thread, DLL-only) and three critical
//! caching paths (remote source, on-disk cache, in-memory cache).
//!
//! [`measure`] runs exactly that experiment over the real runtime with the
//! calibrated Pentium-II cost model and per-thread virtual clocks; the
//! `figure6` binary prints the six panels, and `tests/figure6_shape.rs`
//! asserts the reproduction claims (ordering, growth, read/write
//! asymmetry).

pub mod cluster;
pub mod gate;
pub mod workload;

pub use cluster::{
    cluster_panel_clients, measure_cluster, measure_cluster_mirror, measure_cluster_rebalance,
    render_cluster_panel, ClusterMeasurement, RebalanceMeasurement, CLUSTER_BLOCK, CLUSTER_COPIES,
    CLUSTER_FILES, CLUSTER_FLEET, CLUSTER_MIRROR_OPS, CLUSTER_REBALANCE_KEYS,
};
pub use gate::{bench_json, compare, parse_bench_doc, BenchDoc, StrategyStats};

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
/// strategy of §4.1 is not plotted in the paper; the harness can still
/// run it for the ablation).
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
    measure_traced(path, strategy, direction, block, ops, profile).0
}

/// Like [`measure`], but also returns the world's per-op trace summary —
/// the observed §4 cost profile (crossings and copies per operation) for
/// the cell, straight from the world's [`afs_sim::OpTrace`].
pub fn measure_traced(
    path: PathKind,
    strategy: Strategy,
    direction: Direction,
    block: usize,
    ops: usize,
    profile: HardwareProfile,
) -> (Measurement, Vec<afs_sim::OpSummary>) {
    let (world, file) = build_world(path, strategy, profile, &filler(block * ops), &[]);
    let m = run_blocks(&world, file, direction, block, ops);
    (m, world.trace().summary())
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

/// The tracing-overhead ablation: the same cell measured dark and fully
/// instrumented, plus whether the §4 charge deltas matched bit-for-bit.
#[derive(Debug, Clone)]
pub struct TraceAblation {
    /// Telemetry disabled — the dark baseline.
    pub base: afs_sim::Summary,
    /// Telemetry enabled (spans, slow-op scan, SLO windows, flight rings).
    pub traced: afs_sim::Summary,
    /// Whether both runs charged the cost model identically. Tracing is
    /// observability, not work: any divergence is a §4 accounting bug.
    pub charges_match: bool,
}

/// Measures the observability tax: one gate cell (memory path,
/// DLL-with-thread, 128-byte sequential reads) run dark, then re-run with
/// telemetry fully on — span capture, slow-op scanning, a declared SLO,
/// and the flight-recorder rings all active. Because latency is virtual
/// time and spans charge nothing, the two summaries must agree; the
/// `ablation_trace` gate cell pins the instrumented number.
pub fn measure_trace_ablation(ops: usize, profile: HardwareProfile) -> TraceAblation {
    const BLOCK: usize = 128;
    let run = |instrumented: bool| {
        // Everything the observability layer can switch on at once:
        // spans, a slow-op threshold low enough to scan every op, and a
        // declared SLO so the burn-rate windows tick per operation.
        let keys: &[(&str, &str)] = if instrumented {
            &[("slo_p99_us", "1000"), ("slo_err_ppm", "100000")]
        } else {
            &[]
        };
        let (world, file) = build_world(
            PathKind::Memory,
            Strategy::DllThread,
            profile.clone(),
            &filler(BLOCK * ops),
            keys,
        );
        if instrumented {
            world.telemetry().set_enabled(true);
            world.telemetry().set_slow_threshold_ns(1);
        }
        run_blocks(&world, file, Direction::Read, BLOCK, ops)
    };
    let base = run(false);
    let traced = run(true);
    TraceAblation {
        charges_match: base.counters == traced.counters,
        base: base.series.summarize(),
        traced: traced.series.summarize(),
    }
}

/// Block size used by the batching ablation (the Figure 6 midpoint).
pub const BATCH_BLOCK: usize = 128;

/// Ring depth used by the batching ablation and the `ablation_batch`
/// gate cells.
pub const BATCH_RING_DEPTH: usize = 8;

/// The ring-batching ablation: the same sequential-read cell measured
/// unbatched and with `batch=on`, plus the crossing counts the ring
/// exists to cut and the transcript-equivalence verdict.
#[derive(Debug, Clone)]
pub struct BatchAblation {
    /// Plain Thread-strategy cell — one round trip per read.
    pub unbatched: afs_sim::Summary,
    /// Ring-batched cell — one doorbell plus one round trip per
    /// [`BATCH_RING_DEPTH`] reads, readahead filling the ring.
    pub batched: afs_sim::Summary,
    /// Protection-domain crossings (process plus thread switches) per
    /// operation, unbatched.
    pub crossings_per_op_unbatched: f64,
    /// Crossings per operation, batched — the ~K× smaller number.
    pub crossings_per_op_batched: f64,
    /// Whether both runs returned byte-identical data for every read.
    /// Batching is a transport optimisation, not a semantic change: any
    /// divergence is a ring bug.
    pub transcripts_match: bool,
}

/// One side of the batching ablation: the memory-path, DLL-with-thread,
/// [`BATCH_BLOCK`]-byte sequential-read cell over the plain pair
/// transport, or with `batch=on` / `ring_depth=`[`BATCH_RING_DEPTH`] so
/// the boundary is a submission/completion ring. Returns the latency
/// summary, the crossings per operation and every byte the reads
/// returned. The seeded extent carries a varying byte pattern so a
/// transcript comparison catches offset errors, not just length errors.
pub(crate) fn measure_batch_side(
    batched: bool,
    ops: usize,
    profile: HardwareProfile,
) -> (afs_sim::Summary, f64, Vec<u8>) {
    let extent: Vec<u8> = (0..BATCH_BLOCK * ops).map(|i| (i % 251) as u8).collect();
    let depth = BATCH_RING_DEPTH.to_string();
    let ring = [("batch", "on"), ("ring_depth", depth.as_str())];
    let (world, file) = build_world(
        PathKind::Memory,
        Strategy::DllThread,
        profile,
        &extent,
        if batched { &ring } else { &[] },
    );
    let mut transcript = Vec::with_capacity(extent.len());
    let mut buf = vec![0u8; BATCH_BLOCK];
    let m = run_cell(&world, file, Access::read_only(), ops, |api, h| {
        let n = api.read_file(h, &mut buf).expect("read");
        assert_eq!(n, BATCH_BLOCK, "seeded file must satisfy full blocks");
        transcript.extend_from_slice(&buf[..n]);
    });
    let crossings = m.counters.process_switches + m.counters.thread_switches;
    (
        m.series.summarize(),
        crossings as f64 / ops.max(1) as f64,
        transcript,
    )
}

/// Measures the batching ablation: both sides of [`measure_batch_side`]
/// and whether their transcripts agree.
pub fn measure_batch_ablation(ops: usize, profile: HardwareProfile) -> BatchAblation {
    let (unbatched, crossings_per_op_unbatched, plain) =
        measure_batch_side(false, ops, profile.clone());
    let (batched, crossings_per_op_batched, ring) = measure_batch_side(true, ops, profile);
    BatchAblation {
        unbatched,
        batched,
        crossings_per_op_unbatched,
        crossings_per_op_batched,
        transcripts_match: plain == ring,
    }
}

/// Runs the batching ablation and renders it as the text table `figure6
/// --batch` prints.
pub fn render_batch_panel(ops: usize, profile: &HardwareProfile) -> String {
    let a = measure_batch_ablation(ops, profile.clone());
    let mut out = String::new();
    out.push_str(&format!(
        "Batching ablation — submission/completion ring vs per-op round trips \
         (Thread strategy, memory cache, {BATCH_BLOCK}-byte sequential reads, \
         ring_depth={BATCH_RING_DEPTH}, {ops} ops)\n"
    ));
    out.push_str(&format!(
        "{:>10} {:>12} {:>12} {:>12} {:>14}\n",
        "mode", "mean", "p50", "p99", "crossings/op"
    ));
    for (label, s, cross) in [
        ("unbatched", &a.unbatched, a.crossings_per_op_unbatched),
        ("batched", &a.batched, a.crossings_per_op_batched),
    ] {
        out.push_str(&format!(
            "{:>10} {:>10.1}us {:>10.1}us {:>10.1}us {:>14.2}\n",
            label,
            s.mean_ns as f64 / 1_000.0,
            s.p50_ns as f64 / 1_000.0,
            s.p99_ns as f64 / 1_000.0,
            cross,
        ));
    }
    out.push_str(&format!(
        "transcripts match: {}; crossing reduction: {:.1}x\n",
        if a.transcripts_match { "yes" } else { "NO" },
        a.crossings_per_op_unbatched / a.crossings_per_op_batched.max(f64::EPSILON),
    ));
    out
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

/// One cell of the concurrency ablation: `clients` concurrent writers on
/// one active file, with the sentinel either shared (session-multiplexed)
/// or private per open (`share=off`).
#[derive(Debug, Clone)]
pub struct MuxMeasurement {
    /// Number of concurrent clients.
    pub clients: usize,
    /// Whether opens shared one sentinel.
    pub shared: bool,
    /// Pooled per-write virtual latencies across every client.
    pub summary: afs_sim::Summary,
    /// Protection-domain crossings over the whole run (process plus
    /// thread switches) — the number session multiplexing exists to cut.
    pub total_crossings: u64,
}

/// Runs one concurrency cell: `clients` threads each open the bench file
/// (ProcessControl strategy, memory cache), seek to a private region, and
/// issue `ops_per_client` sequential writes of [`MUX_BLOCK`] bytes.
///
/// Barriers fence the write phase on both sides so every write runs with
/// all sessions attached: shared-sentinel staging behaviour (and thus the
/// latency distribution) is deterministic, which lets the bench gate hold
/// these numbers to the same threshold as the Figure 6 cells.
pub fn measure_concurrency(
    clients: usize,
    shared: bool,
    ops_per_client: usize,
    profile: HardwareProfile,
) -> MuxMeasurement {
    let block = MUX_BLOCK;
    let region = ops_per_client * block;
    let (world, file) = build_world(
        PathKind::Memory,
        Strategy::ProcessControl,
        profile,
        &filler(region * clients),
        if shared { &[] } else { &[("share", "off")] },
    );

    let model = world.model().clone();
    let before = model.snapshot();
    let barrier = Arc::new(std::sync::Barrier::new(clients));
    let mut joins = Vec::new();
    for idx in 0..clients {
        let api = world.api();
        let barrier = Arc::clone(&barrier);
        joins.push(std::thread::spawn(move || {
            let _guard = clock::install(0);
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
    MuxMeasurement {
        clients,
        shared,
        summary: series.summarize(),
        total_crossings: counters.process_switches + counters.thread_switches,
    }
}

/// Runs the full concurrency panel (shared and private at each client
/// count) and renders it as the text table `figure6 --concurrency`
/// prints.
pub fn render_concurrency_panel(ops_per_client: usize, profile: &HardwareProfile) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Concurrency ablation — shared sentinel vs per-open (Process strategy, \
         memory cache, {MUX_BLOCK}-byte writes, {ops_per_client} per client)\n"
    ));
    out.push_str(&format!(
        "{:>8} {:>12} {:>12} {:>12} {:>13} {:>13} {:>13}\n",
        "clients",
        "shared-p50",
        "shared-p99",
        "shared-cross",
        "private-p50",
        "private-p99",
        "private-cross"
    ));
    for clients in MUX_CLIENTS {
        let s = measure_concurrency(clients, true, ops_per_client, profile.clone());
        let p = measure_concurrency(clients, false, ops_per_client, profile.clone());
        out.push_str(&format!(
            "{:>8} {:>10.1}us {:>10.1}us {:>12} {:>11.1}us {:>11.1}us {:>13}\n",
            clients,
            s.summary.p50_ns as f64 / 1_000.0,
            s.summary.p99_ns as f64 / 1_000.0,
            s.total_crossings,
            p.summary.p50_ns as f64 / 1_000.0,
            p.summary.p99_ns as f64 / 1_000.0,
            p.total_crossings,
        ));
    }
    out
}

/// Fleet sizes swept by `figure6 --fleet` — the headline claim is the
/// last point: ten thousand concurrent active files on a bounded pool.
pub const FLEET_SIZES: [usize; 3] = [100, 1_000, 10_000];

/// Block size used by the fleet panel (the Figure 6 midpoint).
pub const FLEET_BLOCK: usize = 128;

/// One cell of the fleet panel: `files` concurrently-open active files
/// multiplexed over the bounded sentinel executor.
#[derive(Debug, Clone)]
pub struct FleetMeasurement {
    /// Number of concurrently-open active files.
    pub files: usize,
    /// The executor's worker cap (the pool bound `M`).
    pub worker_cap: usize,
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
/// core, `AFS_FLEET_WORKERS`). The virtual latencies are identical either
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
        files,
        worker_cap: world.fleet_workers(),
        summary: series.summarize(),
        fleet,
    }
}

/// Runs the fleet sweep ([`FLEET_SIZES`], one read per file) and renders
/// it as the text table `figure6 --fleet` prints. The flat p50/p99
/// columns against a fixed worker count are the executor's headline:
/// sentinel count scales without scaling threads.
pub fn render_fleet_panel(profile: &HardwareProfile, workers: Option<usize>) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Fleet panel — sharded sentinel executor (Thread strategy, memory cache, \
         {FLEET_BLOCK}-byte reads, one per file)\n"
    ));
    out.push_str(&format!(
        "{:>8} {:>10} {:>10} {:>9} {:>8} {:>10} {:>8} {:>9}\n",
        "files", "p50", "p99", "workers", "shards", "sentinels", "steals", "wakeups"
    ));
    for files in FLEET_SIZES {
        let m = measure_fleet(files, 1, workers, profile.clone());
        out.push_str(&format!(
            "{:>8} {:>8.1}us {:>8.1}us {:>4}/{:<4} {:>8} {:>10} {:>8} {:>9}\n",
            m.files,
            m.summary.p50_ns as f64 / 1_000.0,
            m.summary.p99_ns as f64 / 1_000.0,
            m.fleet.workers,
            m.worker_cap,
            m.fleet.shards,
            m.fleet.sentinels,
            m.fleet.steals,
            m.fleet.wakeups,
        ));
    }
    out
}

/// Block size of the durable-store cells.
pub const STORE_BLOCK: usize = 128;

/// One measured durable-store cell: per-commit (or per-recovery) virtual
/// latencies plus the store gauges after the run.
#[derive(Debug, Clone)]
pub struct StoreMeasurement {
    /// Per-sample virtual latencies.
    pub summary: afs_sim::Summary,
    /// WAL/fsync/checkpoint counters accumulated over the run.
    pub store: afs_telemetry::StoreSnapshot,
}

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
pub fn measure_store(ops: usize, profile: HardwareProfile) -> StoreMeasurement {
    let world = AfsWorld::builder().profile(profile).build();
    let file = "/store.af";
    world
        .install_active_file(file, &durable_null_spec())
        .expect("install durable file");
    let buf = filler(STORE_BLOCK);
    let m = run_cell(&world, file, Access::read_write(), ops, |api, h| {
        let n = api.write_file(h, &buf).expect("durable write");
        assert_eq!(n, STORE_BLOCK);
        api.flush_file_buffers(h).expect("commit");
    });
    StoreMeasurement {
        summary: m.series.summarize(),
        store: world.telemetry().store().snapshot(),
    }
}

/// The `store-recovery` cell: virtual time to reopen a durable active
/// file whose WAL holds `commits` committed batches — spec decode,
/// sentinel instantiation, WAL scan, and redo replay, measured over
/// `reopens` cold opens of fresh worlds sharing the surviving disk.
pub fn measure_store_recovery(
    commits: usize,
    reopens: usize,
    profile: HardwareProfile,
) -> StoreMeasurement {
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
    let mut store = afs_telemetry::StoreSnapshot::default();
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
        store = world.telemetry().store().snapshot();
    }
    StoreMeasurement {
        summary: series.summarize(),
        store,
    }
}

/// A full panel: mean µs per (strategy, block size), plus the baseline
/// row.
#[derive(Debug, Clone)]
pub struct Panel {
    /// Which caching path.
    pub path: PathKind,
    /// Read or write.
    pub direction: Direction,
    /// `rows[strategy_index][block_index]` mean µs, strategy order =
    /// [`FIGURE6_STRATEGIES`].
    pub rows: Vec<Vec<f64>>,
    /// Baseline mean µs per block size.
    pub baseline: Vec<f64>,
}

/// Runs one full panel of Figure 6.
pub fn run_panel(
    path: PathKind,
    direction: Direction,
    ops: usize,
    profile: &HardwareProfile,
) -> Panel {
    let mut rows = Vec::new();
    for strategy in FIGURE6_STRATEGIES {
        let mut row = Vec::new();
        for block in BLOCK_SIZES {
            row.push(measure(path, strategy, direction, block, ops, profile.clone()).mean_us());
        }
        rows.push(row);
    }
    let baseline = BLOCK_SIZES
        .iter()
        .map(|&block| measure_baseline(path, direction, block, ops, profile.clone()).mean_us())
        .collect();
    Panel {
        path,
        direction,
        rows,
        baseline,
    }
}

/// Renders a panel as the text table the `figure6` binary prints.
pub fn render_panel(panel: &Panel) -> String {
    let mut out = String::new();
    let dir = match panel.direction {
        Direction::Read => "Read",
        Direction::Write => "Write",
    };
    out.push_str(&format!(
        "Figure 6({}) — {} — {} (µs per call, mean of sweep)\n",
        panel.path.panel(),
        panel.path.describe(),
        dir
    ));
    out.push_str(&format!("{:>8}", "block"));
    for strategy in FIGURE6_STRATEGIES {
        out.push_str(&format!("{:>10}", strategy.label()));
    }
    out.push_str(&format!("{:>10}\n", "baseline"));
    for (bi, block) in BLOCK_SIZES.iter().enumerate() {
        out.push_str(&format!("{block:>8}"));
        for row in &panel.rows {
            out.push_str(&format!("{:>10.1}", row[bi]));
        }
        out.push_str(&format!("{:>10.1}\n", panel.baseline[bi]));
    }
    out
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
        let big_files = gate::gate_fleet_files();
        let small = measure_fleet(100, 1, Some(WORKERS), profile.clone());
        let big = measure_fleet(big_files, 1, Some(WORKERS), profile);
        assert!(
            big.fleet.workers <= WORKERS as u64,
            "{} files ran on {} workers (cap {WORKERS})",
            big.files,
            big.fleet.workers
        );
        assert_eq!(
            big.fleet.sentinels, big.files as u64,
            "every file's sentinel was live at once"
        );
        assert!(
            big.summary.p99_ns as f64 <= small.summary.p99_ns as f64 * 1.3,
            "p99 must stay flat as the fleet grows: {} files {} ns vs 100 files {} ns",
            big.files,
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

    #[test]
    fn render_panel_has_all_rows() {
        let profile = HardwareProfile::pentium_ii_300();
        let panel = run_panel(PathKind::Memory, Direction::Read, 10, &profile);
        let text = render_panel(&panel);
        assert!(text.contains("Process"));
        assert!(text.contains("Thread"));
        assert!(text.contains("DLL"));
        assert!(text.contains("2048"));
    }
}
