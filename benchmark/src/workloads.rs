//! The seven workloads: for each, how its world is built (set-up) and
//! what one generated op does. Every op goes through the public file
//! API (`create_file` / `read_file` / `write_file` / ...) or, for
//! `cluster-zipf`, the public `ClusterClient`; every byte read is
//! compared with the generator's shadow copy.

use std::any::Any;
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

use afs_bench::workload::Zipf;
use afs_core::{
    AfsWorld, Backing, NullSentinel, SentinelRegistry, SentinelSpec, Strategy, CTL_STORE_CHECKPOINT,
};
use afs_interpose::{ApiHandle, CallCounters, CountingLayer};
use afs_net::{Network, Service};
use afs_remote::{ClusterClient, FileServer};
use afs_sim::{clock, CostModel, HardwareProfile};
use afs_telemetry::{ClusterGauges, Telemetry};
use afs_vfs::{VPath, Vfs};
use afs_winapi::{Access, Disposition, FileApi, Handle, SeekMethod};

use crate::seams::{self, TimedLogic, TimedService, TimingLayer};
use crate::spec::{WorkloadSpec, HOST_SAMPLE_STRIDE};

/// Block size of every workload but `remote-mirror-read`.
pub const BLOCK: usize = 128;
/// Block size of `remote-mirror-read`.
pub const REMOTE_BLOCK: usize = 512;

/// Bytes per op of `workload`.
pub fn block_size(workload: &str) -> usize {
    if workload == "remote-mirror-read" {
        REMOTE_BLOCK
    } else {
        BLOCK
    }
}
/// Extent the single-file workloads run over.
pub const EXTENT: usize = 1 << 20;
/// Extent of each `dll-scale-2t` file: one open's worth of ops.
pub const SCALE_OPS_PER_OPEN: u64 = 1024;
const SCALE_EXTENT: usize = SCALE_OPS_PER_OPEN as usize * BLOCK;
/// `mux-shared-rw`: bytes written then read back per turn.
const TURN_BYTES: usize = 3 * BLOCK;
const CLUSTER_FLEET: usize = 5;
const CLUSTER_COPIES: usize = 2;
const CLUSTER_FILES: usize = 64;
const CLUSTER_THETA: f64 = 0.99;
const CLUSTER_STALENESS_MS: u64 = 10;
const CLUSTER_SESSION_OPS: u64 = 4;

/// What one client measured: outcome counts, sampled host latency, and
/// virtual latency.
#[derive(Debug, Default)]
pub struct Recorder {
    /// Ops issued.
    pub attempted: u64,
    /// Ops that errored, came back short, or read the wrong bytes.
    pub failed: u64,
    /// Host ns of every [`HOST_SAMPLE_STRIDE`]-th op.
    pub host_lat_ns: Vec<u32>,
    /// Sum of every op's virtual ns.
    pub sim_sum_ns: u64,
    /// Every op's virtual ns (fixed-count legs only).
    pub sim_lat_ns: Option<Vec<u64>>,
    /// Whether each op opens an `app.op` seam span.
    pub traced: bool,
    /// Added to the op index to form span op ids (keeps clients apart).
    pub op_base: u64,
}

impl Recorder {
    /// A recorder for client `client` expecting about `ops` ops.
    pub fn new(client: usize, ops: u64, keep_sim: bool, traced: bool) -> Recorder {
        Recorder {
            host_lat_ns: Vec::with_capacity((ops / HOST_SAMPLE_STRIDE) as usize + 16),
            sim_lat_ns: keep_sim.then(|| Vec::with_capacity(ops as usize)),
            traced,
            op_base: (client as u64) << 32,
            ..Recorder::default()
        }
    }

    /// Runs one op: `f` issues it and says whether the result was right.
    #[inline(always)]
    pub fn op(&mut self, f: impl FnOnce() -> bool) {
        let n = self.attempted;
        self.attempted += 1;
        let root = self.traced.then(|| seams::begin_op(self.op_base + n + 1));
        let sim_start = clock::now();
        let ok = if n.is_multiple_of(HOST_SAMPLE_STRIDE) {
            let start = Instant::now();
            let ok = f();
            self.host_lat_ns
                .push(start.elapsed().as_nanos().min(u32::MAX as u128) as u32);
            ok
        } else {
            f()
        };
        let sim = clock::now().saturating_sub(sim_start);
        self.sim_sum_ns += sim;
        if let Some(series) = self.sim_lat_ns.as_mut() {
            series.push(sim);
        }
        if let Some(root) = root {
            root.end();
        }
        if !ok {
            self.failed += 1;
        }
    }
}

/// One closed-loop client: issues its next op when the previous one
/// returns.
pub trait Client: Send {
    /// Issues `ops` generated ops.
    fn run(&mut self, ops: u64, rec: &mut Recorder);

    /// Reads back everything this client wrote and checks it.
    fn read_back(&mut self, rec: &mut Recorder);

    /// Hash of the seeded contents and every op generated so far.
    fn ops_hash(&self) -> u64;

    /// Inverts the shadow copy, so every read of bytes the client has
    /// not rewritten since must fail verification: the verifier's own
    /// test.
    fn corrupt_expectation(&mut self);
}

fn invert(bytes: &mut [u8]) {
    for b in bytes {
        *b = !*b;
    }
}

/// FNV-1a style running hash of what the generator produced.
#[derive(Debug, Clone, Copy)]
struct OpHash(u64);

impl OpHash {
    fn of_bytes(bytes: &[u8]) -> OpHash {
        let mut hash = OpHash(0xcbf2_9ce4_8422_2325);
        for word in bytes.chunks(8) {
            let mut le = [0u8; 8];
            le[..word.len()].copy_from_slice(word);
            hash.mix(u64::from_le_bytes(le));
        }
        hash
    }

    #[inline(always)]
    fn mix(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Where the per-layer counters of a rig are read from.
#[derive(Clone)]
pub struct Sources {
    /// The cost model every layer charges.
    pub model: CostModel,
    /// The simulated network.
    pub net: Network,
    /// The world's telemetry hub (none without a world).
    pub telemetry: Option<Arc<Telemetry>>,
    /// API call counts (traced rigs only).
    pub calls: Option<Arc<CallCounters>>,
    /// Cluster gauges (`cluster-zipf` only).
    pub cluster: Option<Arc<ClusterGauges>>,
}

/// A built, warmed-up workload instance.
pub struct Rig {
    /// The closed-loop clients, one per thread.
    pub clients: Vec<Box<dyn Client>>,
    /// Counter sources.
    pub sources: Sources,
    /// Each client's virtual clock after set-up, to resume from.
    pub sim_now: Vec<u64>,
    /// Failed ops during set-up (warm-up and the reopen check).
    pub setup_failed: u64,
    /// Ops attempted during set-up.
    pub setup_attempted: u64,
    // Worlds and servers the clients' handles live in; dropped last.
    _keep: Vec<Box<dyn Any>>,
}

impl Rig {
    /// Hash of every client's seeded contents and generated ops so far.
    /// Right after [`setup`] it covers a fixed op count, so it is a
    /// function of the seed alone.
    pub fn ops_hash(&self) -> u64 {
        let mut hash = OpHash(0xcbf2_9ce4_8422_2325);
        for client in &self.clients {
            hash.mix(client.ops_hash());
        }
        hash.0
    }
}

fn profile() -> HardwareProfile {
    HardwareProfile::pentium_ii_300()
}

fn seeded_bytes(rng: &mut SmallRng, len: usize) -> Vec<u8> {
    let mut bytes = vec![0u8; len];
    rng.fill_bytes(&mut bytes);
    bytes
}

fn rng_for(seed: u64, workload: &str, client: usize) -> SmallRng {
    // FNV-1a over the workload name keeps the seven streams apart.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in workload.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    SmallRng::seed_from_u64(seed ^ h ^ ((client as u64) << 56))
}

struct BuiltWorld {
    world: AfsWorld,
    calls: Option<Arc<CallCounters>>,
}

/// Builds a world; a traced one gets the seam wrappers, the call
/// counter and the program's own telemetry switched on.
fn build_world(spec: &WorkloadSpec, seed: u64, traced: bool, vfs: Option<Arc<Vfs>>) -> BuiltWorld {
    let mut builder = AfsWorld::builder()
        .profile(profile())
        .seed(seed)
        .fleet_workers(spec.cpus);
    if let Some(vfs) = vfs {
        builder = builder.vfs(vfs);
    }
    let world = builder.build();
    if !traced {
        afs_sentinels::register_all(world.sentinels());
        return BuiltWorld { world, calls: None };
    }
    let real = SentinelRegistry::new();
    afs_sentinels::register_all(&real);
    world.sentinels().register("mirror", move |spec| {
        Box::new(TimedLogic::new(
            real.instantiate(spec).expect("mirror is registered"),
        ))
    });
    world.sentinels().register_with_keys("null", &[], |_| {
        Box::new(TimedLogic::new(Box::new(NullSentinel::new())))
    });
    let calls = CallCounters::new();
    world
        .connector()
        .install(Arc::new(CountingLayer::new(Arc::clone(&calls))))
        .expect("fresh connector takes the counting layer");
    world
        .connector()
        .install(Arc::new(TimingLayer))
        .expect("fresh connector takes the timing layer");
    world.telemetry().set_enabled(true);
    BuiltWorld {
        world,
        calls: Some(calls),
    }
}

fn world_sources(built: &BuiltWorld) -> Sources {
    Sources {
        model: built.world.model().clone(),
        net: built.world.net().clone(),
        telemetry: Some(Arc::clone(built.world.telemetry())),
        calls: built.calls.clone(),
        cluster: None,
    }
}

fn install_seeded(world: &AfsWorld, path: &str, spec: &SentinelSpec, extent: &[u8]) {
    world
        .install_active_file(path, spec)
        .expect("install active file");
    world
        .vfs()
        .write_stream_replace(&VPath::parse(path).expect("path"), extent)
        .expect("seed data part");
}

fn open(api: &ApiHandle, path: &str, access: Access) -> Handle {
    api.create_file(path, access, Disposition::OpenExisting)
        .expect("open active file")
}

/// Sequential fixed-size reads over a seeded extent, rewinding at the
/// end (`fig6-thread-read`, `ring-batch-read`, `remote-mirror-read`).
struct SeqReader {
    api: ApiHandle,
    handle: Handle,
    block: usize,
    shadow: Arc<Vec<u8>>,
    pos: usize,
    buf: Vec<u8>,
    hash: OpHash,
}

impl Client for SeqReader {
    fn run(&mut self, ops: u64, rec: &mut Recorder) {
        for _ in 0..ops {
            let (api, handle, buf) = (&self.api, self.handle, &mut self.buf);
            let expect = &self.shadow[self.pos..self.pos + self.block];
            let before = rec.failed;
            self.hash.mix(self.pos as u64);
            rec.op(|| api.read_file(handle, buf) == Ok(expect.len()) && buf[..] == *expect);
            self.pos += self.block;
            if self.pos == self.shadow.len() {
                self.pos = 0;
            }
            if self.pos == 0 || rec.failed != before {
                // Rewind — or, after a bad read, put the pointer back
                // where the shadow copy thinks it is.
                let _ = api.set_file_pointer(handle, self.pos as i64, SeekMethod::Begin);
            }
        }
    }

    fn read_back(&mut self, _rec: &mut Recorder) {}

    fn ops_hash(&self) -> u64 {
        self.hash.0
    }

    fn corrupt_expectation(&mut self) {
        invert(Arc::make_mut(&mut self.shadow).as_mut_slice());
    }
}

/// Fills `payload` with a fresh generated stamp and folds the write
/// (`target`: where it goes) into `hash`.
fn fill_payload(rng: &mut SmallRng, payload: &mut [u8], hash: &mut OpHash, target: u64) {
    let stamp = rng.next_u64();
    hash.mix(target);
    hash.mix(stamp);
    let stamp = stamp.to_le_bytes();
    for chunk in payload.chunks_mut(8) {
        chunk.copy_from_slice(&stamp[..chunk.len()]);
    }
}

/// Reads `shadow.len()` bytes from offset 0 in 4 KiB calls and checks
/// them.
fn read_back_extent(api: &ApiHandle, handle: Handle, shadow: &[u8], rec: &mut Recorder) {
    let seek_ok = api.set_file_pointer(handle, 0, SeekMethod::Begin) == Ok(0);
    let mut buf = vec![0u8; 4096];
    for expect in shadow.chunks(4096) {
        let buf = &mut buf[..expect.len()];
        rec.op(|| seek_ok && api.read_file(handle, buf) == Ok(expect.len()) && *buf == *expect);
    }
}

/// `mux-shared-rw`: one thread, two handles on one shared sentinel.
struct MuxRw {
    api: ApiHandle,
    handles: [Handle; 2],
    shadow: Vec<u8>,
    rng: SmallRng,
    turn: usize,
    payload: [u8; BLOCK],
    buf: [u8; TURN_BYTES],
    hash: OpHash,
}

impl Client for MuxRw {
    fn run(&mut self, ops: u64, rec: &mut Recorder) {
        let api = &self.api;
        for _ in 0..ops / 4 {
            let writer = self.handles[self.turn & 1];
            let reader = self.handles[(self.turn & 1) ^ 1];
            self.turn += 1;
            let off = self.rng.gen_range(0..EXTENT / TURN_BYTES) * TURN_BYTES;
            for i in 0..3 {
                let target = (off + i * BLOCK) as u64;
                fill_payload(&mut self.rng, &mut self.payload, &mut self.hash, target);
                let payload = &self.payload;
                rec.op(|| {
                    (i > 0
                        || api
                            .set_file_pointer(writer, off as i64, SeekMethod::Begin)
                            .is_ok())
                        && api.write_file(writer, payload) == Ok(BLOCK)
                });
                self.shadow[off + i * BLOCK..off + (i + 1) * BLOCK].copy_from_slice(payload);
            }
            // Read back through the *other* session: the sentinel must
            // flush the writer's staged bytes before it replies.
            let expect = &self.shadow[off..off + TURN_BYTES];
            let buf = &mut self.buf;
            rec.op(|| {
                api.set_file_pointer(reader, off as i64, SeekMethod::Begin)
                    .is_ok()
                    && api.read_file(reader, buf) == Ok(TURN_BYTES)
                    && buf[..] == *expect
            });
        }
    }

    fn read_back(&mut self, rec: &mut Recorder) {
        read_back_extent(&self.api, self.handles[0], &self.shadow, rec);
    }

    fn ops_hash(&self) -> u64 {
        self.hash.0
    }

    fn corrupt_expectation(&mut self) {
        invert(&mut self.shadow);
    }
}

/// `durable-commit`: committed writes and random reads over the WAL
/// page store.
struct DurableCommit {
    api: ApiHandle,
    handle: Handle,
    shadow: Vec<u8>,
    rng: SmallRng,
    payload: [u8; BLOCK],
    buf: [u8; BLOCK],
    hash: OpHash,
}

impl Client for DurableCommit {
    fn run(&mut self, ops: u64, rec: &mut Recorder) {
        let (api, handle) = (&self.api, self.handle);
        for _ in 0..ops {
            let off = self.rng.gen_range(0..EXTENT / BLOCK) * BLOCK;
            let seek = |api: &ApiHandle| {
                api.set_file_pointer(handle, off as i64, SeekMethod::Begin)
                    .is_ok()
            };
            if self.rng.gen_range(0..4u32) < 3 {
                fill_payload(&mut self.rng, &mut self.payload, &mut self.hash, off as u64);
                let payload = &self.payload;
                rec.op(|| {
                    seek(api)
                        && api.write_file(handle, payload) == Ok(BLOCK)
                        && api.flush_file_buffers(handle).is_ok()
                });
                self.shadow[off..off + BLOCK].copy_from_slice(payload);
            } else {
                self.hash.mix(off as u64);
                let expect = &self.shadow[off..off + BLOCK];
                let buf = &mut self.buf;
                rec.op(|| {
                    seek(api) && api.read_file(handle, buf) == Ok(BLOCK) && buf[..] == *expect
                });
            }
        }
    }

    fn read_back(&mut self, rec: &mut Recorder) {
        read_back_extent(&self.api, self.handle, &self.shadow, rec);
    }

    fn ops_hash(&self) -> u64 {
        self.hash.0
    }

    fn corrupt_expectation(&mut self) {
        invert(&mut self.shadow);
    }
}

/// `dll-scale-2t`: open, 1024 sequential ops (3 reads : 1 write), close,
/// repeat — on this client's own file. Aligned so that two clients'
/// generator state never shares a cache line: what the threads contend
/// on must be the program's, not the benchmark's.
#[repr(align(128))]
struct DllScale {
    api: ApiHandle,
    path: String,
    handle: Option<Handle>,
    done_in_open: u64,
    shadow: Vec<u8>,
    rng: SmallRng,
    payload: [u8; BLOCK],
    buf: [u8; BLOCK],
    hash: OpHash,
}

impl Client for DllScale {
    fn run(&mut self, ops: u64, rec: &mut Recorder) {
        let api = &self.api;
        for _ in 0..ops {
            if self.done_in_open == SCALE_OPS_PER_OPEN {
                if let Some(handle) = self.handle.take() {
                    if api.close_handle(handle).is_err() {
                        rec.failed += 1;
                    }
                }
                self.done_in_open = 0;
            }
            let handle = *self
                .handle
                .get_or_insert_with(|| open(api, &self.path, Access::read_write()));
            let off = self.done_in_open as usize * BLOCK;
            self.done_in_open += 1;
            if self.rng.gen_range(0..4u32) < 3 {
                self.hash.mix(off as u64);
                let expect = &self.shadow[off..off + BLOCK];
                let buf = &mut self.buf;
                rec.op(|| api.read_file(handle, buf) == Ok(BLOCK) && buf[..] == *expect);
            } else {
                fill_payload(&mut self.rng, &mut self.payload, &mut self.hash, off as u64);
                let payload = &self.payload;
                rec.op(|| api.write_file(handle, payload) == Ok(BLOCK));
                self.shadow[off..off + BLOCK].copy_from_slice(payload);
            }
        }
    }

    fn read_back(&mut self, rec: &mut Recorder) {
        if let Some(handle) = self.handle.take() {
            let _ = self.api.close_handle(handle);
        }
        self.done_in_open = 0;
        let handle = open(&self.api, &self.path, Access::read_only());
        read_back_extent(&self.api, handle, &self.shadow, rec);
        let _ = self.api.close_handle(handle);
    }

    fn ops_hash(&self) -> u64 {
        self.hash.0
    }

    fn corrupt_expectation(&mut self) {
        invert(&mut self.shadow);
    }
}

/// `cluster-zipf`: short `ClusterClient` sessions; this client owns
/// region `index` of every file, so its reads must return its own last
/// write exactly (read-your-writes). Aligned like [`DllScale`].
#[repr(align(128))]
struct ClusterZipf {
    net: Network,
    gauges: Arc<ClusterGauges>,
    index: usize,
    paths: Arc<Vec<String>>,
    zipf: Zipf,
    rng: SmallRng,
    shadow: Vec<[u8; BLOCK]>,
    session: Option<ClusterClient>,
    left_in_session: u64,
    payload: [u8; BLOCK],
    hash: OpHash,
}

fn cluster_member(i: usize) -> String {
    format!("files-{i}")
}

impl ClusterZipf {
    fn new_session(&self) -> ClusterClient {
        let session =
            ClusterClient::new(self.net.clone(), CLUSTER_COPIES, Some(CLUSTER_STALENESS_MS));
        for i in 0..CLUSTER_FLEET {
            session.add_node(&cluster_member(i));
        }
        // Gauges attach after the initial membership: only real churn
        // counts as a rebalance.
        session.with_gauges(Arc::clone(&self.gauges))
    }
}

impl Client for ClusterZipf {
    fn run(&mut self, ops: u64, rec: &mut Recorder) {
        let offset = (self.index * BLOCK) as u64;
        for _ in 0..ops {
            if self.left_in_session == 0 {
                self.session = Some(self.new_session());
                self.left_in_session = CLUSTER_SESSION_OPS;
            }
            self.left_in_session -= 1;
            let session = self.session.as_ref().expect("session open");
            let file = self.zipf.sample(&mut self.rng);
            let path = &self.paths[file];
            if self.rng.gen_bool(0.9) {
                self.hash.mix(file as u64);
                let expect = &self.shadow[file];
                rec.op(|| {
                    session
                        .read(path, offset, BLOCK)
                        .is_ok_and(|data| data[..] == expect[..])
                });
            } else {
                fill_payload(
                    &mut self.rng,
                    &mut self.payload,
                    &mut self.hash,
                    file as u64,
                );
                let payload = &self.payload;
                rec.op(|| session.write(path, offset, payload) == Ok(BLOCK as u64));
                self.shadow[file] = *payload;
            }
        }
    }

    fn read_back(&mut self, rec: &mut Recorder) {
        let session = self.new_session();
        let offset = (self.index * BLOCK) as u64;
        for (path, expect) in self.paths.iter().zip(&self.shadow) {
            rec.op(|| {
                session
                    .read(path, offset, BLOCK)
                    .is_ok_and(|data| data[..] == expect[..])
            });
        }
    }

    fn ops_hash(&self) -> u64 {
        self.hash.0
    }

    fn corrupt_expectation(&mut self) {
        invert(self.shadow.as_flattened_mut());
    }
}

fn single_file_rig(
    spec: &WorkloadSpec,
    seed: u64,
    traced: bool,
) -> (BuiltWorld, Vec<Box<dyn Client>>) {
    let mut rng = rng_for(seed, spec.name, 0);
    let extent = seeded_bytes(&mut rng, EXTENT);
    let built = build_world(spec, seed, traced, None);
    let world = &built.world;
    let file = "/bench.af";
    let thread_memory = SentinelSpec::new("mirror", Strategy::DllThread).backing(Backing::Memory);
    let client: Box<dyn Client> = match spec.name {
        "fig6-thread-read" | "ring-batch-read" | "remote-mirror-read" => {
            match spec.name {
                "fig6-thread-read" => {
                    // share=off: the private DispatchTask loop, not a
                    // one-session MuxLoop (same virtual cost).
                    install_seeded(world, file, &thread_memory.with("share", "off"), &extent);
                }
                "ring-batch-read" => {
                    let batched = thread_memory.with("batch", "on").with("ring_depth", "8");
                    install_seeded(world, file, &batched, &extent);
                }
                _ => {
                    let server = FileServer::new();
                    server.seed("/blob", &extent);
                    let service = server as Arc<dyn Service>;
                    let service = if traced {
                        TimedService::wrap(service)
                    } else {
                        service
                    };
                    world.net().register("files", service);
                    let remote = SentinelSpec::new("mirror", Strategy::DllThread)
                        .backing(Backing::None)
                        .with("service", "files")
                        .with("remote", "/blob");
                    world
                        .install_active_file(file, &remote)
                        .expect("install remote mirror");
                }
            }
            let block = block_size(spec.name);
            let api = world.api();
            let handle = open(&api, file, Access::read_only());
            Box::new(SeqReader {
                api,
                handle,
                block,
                hash: OpHash::of_bytes(&extent),
                shadow: Arc::new(extent),
                pos: 0,
                buf: vec![0u8; block],
            })
        }
        "mux-shared-rw" => {
            let shared =
                SentinelSpec::new("mirror", Strategy::ProcessControl).backing(Backing::Memory);
            install_seeded(world, file, &shared, &extent);
            let api = world.api();
            let handles = [
                open(&api, file, Access::read_write()),
                open(&api, file, Access::read_write()),
            ];
            assert_eq!(
                world.shared_sentinels().first().map(|s| s.3),
                Some(2),
                "both handles must be sessions of one shared sentinel"
            );
            Box::new(MuxRw {
                api,
                handles,
                hash: OpHash::of_bytes(&extent),
                shadow: extent,
                rng,
                turn: 0,
                payload: [0; BLOCK],
                buf: [0; TURN_BYTES],
            })
        }
        other => unreachable!("not a single-file workload: {other}"),
    };
    (built, vec![client])
}

fn durable_spec() -> SentinelSpec {
    SentinelSpec::new("null", Strategy::DllOnly)
        .backing(Backing::Disk)
        .with("durable", "on")
        .with("sync", "commit")
        .with("checkpoint_pages", "64")
}

/// Sets a workload up: world build, sentinel registration, file
/// install, extent seeding, handle opens, and the warm-up pass.
pub fn setup(spec: &WorkloadSpec, seed: u64, traced: bool) -> Rig {
    let _clock = clock::install(0);
    let mut warm = Recorder::new(0, spec.warmup_ops, false, false);
    let mut keep: Vec<Box<dyn Any>> = Vec::new();
    let (mut clients, sources): (Vec<Box<dyn Client>>, Sources) = match spec.name {
        "durable-commit" => {
            let file = "/store.af";
            let mut rng = rng_for(seed, spec.name, 0);
            let extent = seeded_bytes(&mut rng, EXTENT);
            let vfs = Arc::new(Vfs::new());
            // First life: seed, warm up with real commits, then drop the
            // world — the "crash".
            let first = build_world(spec, seed, traced, Some(Arc::clone(&vfs)));
            install_seeded(&first.world, file, &durable_spec(), &extent);
            let api = first.world.api();
            let handle = open(&api, file, Access::read_write());
            // The store adopts the data part as its seed on first open,
            // but the seed is durable only from the next checkpoint on
            // (`PageStore::seed`): checkpoint now, as an application
            // installing a pre-filled durable file would, or a crash
            // before the first automatic checkpoint loses it.
            warm.op(|| {
                api.device_io_control(handle, CTL_STORE_CHECKPOINT, b"")
                    .is_ok()
            });
            let mut client = DurableCommit {
                handle,
                api,
                hash: OpHash::of_bytes(&extent),
                shadow: extent,
                rng,
                payload: [0; BLOCK],
                buf: [0; BLOCK],
            };
            client.run(spec.warmup_ops, &mut warm);
            drop(first);
            // Second life on the surviving disk: the open runs WAL redo;
            // everything committed before the drop must be there.
            let second = build_world(spec, seed, traced, Some(vfs));
            client.api = second.world.api();
            client.handle = open(&client.api, file, Access::read_write());
            client.read_back(&mut warm);
            let sources = world_sources(&second);
            keep.push(Box::new(second.world));
            (vec![Box::new(client) as Box<dyn Client>], sources)
        }
        "dll-scale-2t" => {
            let built = build_world(spec, seed, traced, None);
            let dll = SentinelSpec::new("mirror", Strategy::DllOnly).backing(Backing::Memory);
            let clients = (0..spec.clients)
                .map(|index| {
                    let mut rng = rng_for(seed, spec.name, index);
                    let extent = seeded_bytes(&mut rng, SCALE_EXTENT);
                    let path = format!("/scale/{index}.af");
                    install_seeded(&built.world, &path, &dll, &extent);
                    Box::new(DllScale {
                        api: built.world.api(),
                        path,
                        handle: None,
                        done_in_open: 0,
                        hash: OpHash::of_bytes(&extent),
                        shadow: extent,
                        rng,
                        payload: [0; BLOCK],
                        buf: [0; BLOCK],
                    }) as Box<dyn Client>
                })
                .collect();
            let sources = world_sources(&built);
            keep.push(Box::new(built.world));
            (clients, sources)
        }
        "cluster-zipf" => {
            let model = CostModel::new(profile());
            let net = Network::new(model.clone());
            net.set_seed(seed);
            let gauges = Arc::new(ClusterGauges::default());
            let paths: Arc<Vec<String>> = Arc::new(
                (0..CLUSTER_FILES)
                    .map(|rank| format!("/data/f{rank}.af"))
                    .collect(),
            );
            let mut rngs: Vec<SmallRng> = (0..spec.clients)
                .map(|index| rng_for(seed, spec.name, index))
                .collect();
            // Every file starts as one seeded 128-byte region per client.
            let regions: Vec<Vec<[u8; BLOCK]>> = rngs
                .iter_mut()
                .map(|rng| {
                    (0..CLUSTER_FILES)
                        .map(|_| {
                            let mut region = [0u8; BLOCK];
                            rng.fill_bytes(&mut region);
                            region
                        })
                        .collect()
                })
                .collect();
            for i in 0..CLUSTER_FLEET {
                let server = FileServer::new();
                for (file, path) in paths.iter().enumerate() {
                    let image: Vec<u8> = regions.iter().flat_map(|r| r[file]).collect();
                    server.seed(path, &image);
                }
                let service = server as Arc<dyn Service>;
                let service = if traced {
                    TimedService::wrap(service)
                } else {
                    service
                };
                net.register(&cluster_member(i), service);
            }
            let clients = rngs
                .into_iter()
                .zip(regions)
                .enumerate()
                .map(|(index, (rng, shadow))| {
                    Box::new(ClusterZipf {
                        net: net.clone(),
                        gauges: Arc::clone(&gauges),
                        index,
                        paths: Arc::clone(&paths),
                        zipf: Zipf::new(CLUSTER_FILES, CLUSTER_THETA),
                        rng,
                        hash: OpHash::of_bytes(shadow.as_flattened()),
                        shadow,
                        session: None,
                        left_in_session: 0,
                        payload: [0; BLOCK],
                    }) as Box<dyn Client>
                })
                .collect();
            let sources = Sources {
                model,
                net,
                telemetry: None,
                calls: None,
                cluster: Some(gauges),
            };
            (clients, sources)
        }
        _ => {
            let (built, clients) = single_file_rig(spec, seed, traced);
            let sources = world_sources(&built);
            keep.push(Box::new(built.world));
            (clients, sources)
        }
    };
    // Warm-up: pools, caches and the executor's workers exist before
    // timing. (`durable-commit` warmed up in its first life.)
    if spec.name != "durable-commit" {
        for client in &mut clients {
            client.run(spec.warmup_ops, &mut warm);
        }
    }
    let sim_now = vec![clock::now(); clients.len()];
    Rig {
        clients,
        sources,
        sim_now,
        setup_failed: warm.failed,
        setup_attempted: warm.attempted,
        _keep: keep,
    }
}
