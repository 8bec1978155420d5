//! Probes: the bench timing one layer's public functions directly, in
//! isolation, at the workload's op shape. All host time; cost models
//! are free unless the probe is about charging itself.

use std::sync::Arc;
use std::time::Instant;

use afs_core::{AfsWorld, Backing, SentinelSpec, Strategy};
use afs_interpose::MediatingConnector;
use afs_ipc::{Cqe, Event, Pipe, ResetMode, RingPair, SharedBuffer, Sqe};
use afs_net::{Network, Placement, Service, WireReader, WireWriter};
use afs_sim::{clock, Cost, CostModel, CrossingKind, HardwareProfile};
use afs_store::{MemMedium, PageStore, StoreOptions, SyncMode};
use afs_telemetry::{Layer, StoreGauges, Telemetry};
use afs_vfs::{VPath, Vfs};
use afs_winapi::{Access, Disposition, FileApi, Handle, HandleTable, PassiveFileApi, SeekMethod};

use crate::host;
use crate::stats;

/// Calls per timed batch; the median batch is reported.
const BATCH: u64 = 1024;

/// How much work the probes do: `calls(base)` is `base` at
/// `--seconds 10`.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// `--seconds / 10`.
    pub scale: f64,
    /// Two distinct CPUs for the two-thread probes, when the machine
    /// has them.
    pub two_cpus: Option<[usize; 2]>,
}

impl Budget {
    fn calls(&self, base: u64) -> u64 {
        let scaled = (base as f64 * self.scale) as u64;
        scaled.div_ceil(BATCH).max(2) * BATCH
    }
}

/// Median ns per call of `f` over `calls` calls timed in batches.
fn per_call_ns(calls: u64, mut f: impl FnMut()) -> f64 {
    let batches: Vec<f64> = (0..calls / BATCH)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..BATCH {
                f();
            }
            start.elapsed().as_nanos() as f64 / BATCH as f64
        })
        .collect();
    stats::median(&batches)
}

/// Wall ns for `f` to run to completion on each of `threads` threads at
/// once, pinned apart when two CPUs are there.
fn wall_ns_parallel(threads: usize, budget: &Budget, f: impl Fn(usize) + Sync) -> f64 {
    let line = std::sync::Barrier::new(threads + 1);
    std::thread::scope(|scope| {
        for t in 0..threads {
            let (f, line) = (&f, &line);
            scope.spawn(move || {
                if let Some(cpus) = budget.two_cpus {
                    host::pin_current_thread(&[cpus[t % 2]]);
                }
                line.wait();
                f(t);
                line.wait();
            });
        }
        line.wait();
        let start = Instant::now();
        line.wait();
        start.elapsed().as_nanos() as f64
    })
}

fn seeded_passive(len: usize) -> (Arc<PassiveFileApi>, Handle) {
    let passive = Arc::new(PassiveFileApi::new(Arc::new(Vfs::new()), CostModel::free()));
    let h = passive
        .create_file(
            "/probe.bin",
            Access::read_write(),
            Disposition::CreateAlways,
        )
        .expect("create probe file");
    passive.write_file(h, &vec![0x5Au8; len]).expect("seed");
    (passive, h)
}

/// Sequential `block`-byte reads over `api`, rewinding every batch.
fn read_loop_ns(api: &dyn FileApi, h: Handle, block: usize, calls: u64) -> f64 {
    let mut buf = vec![0u8; block];
    let mut left = 0u64;
    per_call_ns(calls, || {
        if left == 0 {
            api.set_file_pointer(h, 0, SeekMethod::Begin)
                .expect("rewind");
            left = BATCH;
        }
        left -= 1;
        assert_eq!(api.read_file(h, &mut buf), Ok(block));
        std::hint::black_box(&buf);
    })
}

fn interpose_and_winapi(block: usize, budget: &Budget, out: &mut Vec<(&'static str, f64)>) {
    let calls = budget.calls(256 * 1024);
    let (passive, h) = seeded_passive(block * BATCH as usize);
    let bare = read_loop_ns(&*passive, h, block, calls);
    let connector = MediatingConnector::new(Arc::clone(&passive) as Arc<dyn FileApi>);
    let via = read_loop_ns(&connector.api(), h, block, calls);
    out.push(("interpose.dispatch_ns", (via - bare).max(0.0)));
    out.push(("winapi.passive_read_ns", bare));

    let table: HandleTable<u64> = HandleTable::new();
    let handles: Vec<Handle> = (0..64).map(|i| table.insert(i)).collect();
    let mut i = 0usize;
    out.push((
        "winapi.handle_lookup_ns",
        per_call_ns(calls, || {
            i = (i + 1) % handles.len();
            std::hint::black_box(table.get(handles[i]).expect("live handle"));
        }),
    ));
}

fn vfs(block: usize, budget: &Budget, out: &mut Vec<(&'static str, f64)>) {
    let calls = budget.calls(256 * 1024);
    let vfs = Vfs::new();
    let extent = vec![0xA5u8; block * BATCH as usize];
    let paths: Vec<VPath> = (0..2)
        .map(|i| {
            let path = VPath::parse(&format!("/probe{i}.bin")).expect("path");
            vfs.create_file(&path).expect("create");
            vfs.write_stream_replace(&path, &extent).expect("seed");
            path
        })
        .collect();
    let read_all = |path: &VPath, calls: u64| {
        let mut buf = vec![0u8; block];
        for i in 0..calls {
            let offset = (i % BATCH) * block as u64;
            assert_eq!(vfs.read_stream(path, offset, &mut buf), Ok(block));
            std::hint::black_box(&buf);
        }
    };
    let mut buf = vec![0u8; block];
    let mut i = 0u64;
    out.push((
        "vfs.stream_read_ns",
        per_call_ns(calls, || {
            i = (i + 1) % BATCH;
            assert_eq!(
                vfs.read_stream(&paths[0], i * block as u64, &mut buf),
                Ok(block)
            );
            std::hint::black_box(&buf);
        }),
    ));
    let data = vec![0x3Cu8; block];
    out.push((
        "vfs.stream_write_ns",
        per_call_ns(calls, || {
            i = (i + 1) % BATCH;
            assert_eq!(
                vfs.write_stream(&paths[0], i * block as u64, &data),
                Ok(block)
            );
        }),
    ));
    // Distinct files, so only the namespace lock is shared.
    let one = wall_ns_parallel(1, budget, |t| read_all(&paths[t], calls));
    let two = wall_ns_parallel(2, budget, |t| read_all(&paths[t], calls));
    out.push(("vfs.read_2t_speedup", 2.0 * one / two.max(1.0)));
}

fn ipc(block: usize, budget: &Budget, out: &mut Vec<(&'static str, f64)>) {
    let round_trips = budget.calls(96 * 1024);
    let payload = vec![0x42u8; block];
    let model = CostModel::free;

    // Shared memory + events, the §4.3 wiring (Appendix A.3).
    let (request, reply) = (SharedBuffer::new(model()), SharedBuffer::new(model()));
    let (asked, answered) = (
        Event::new(model(), ResetMode::Auto),
        Event::new(model(), ResetMode::Auto),
    );
    let shm = std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut buf = vec![0u8; block];
            for _ in 0..round_trips {
                asked.wait();
                request.recv_into(&mut buf).expect("request");
                reply.send(&buf).expect("reply");
                answered.set();
            }
        });
        let mut buf = vec![0u8; block];
        per_call_ns(round_trips, || {
            request.send(&payload).expect("request");
            asked.set();
            answered.wait();
            reply.recv_into(&mut buf).expect("reply");
        })
    });
    out.push(("ipc.shm_roundtrip_ns", shm));

    // Kernel pipes, the §4.2 wiring.
    let (to_tx, to_rx) = Pipe::anonymous(model(), CrossingKind::InterProcess);
    let (from_tx, from_rx) = Pipe::anonymous(model(), CrossingKind::InterProcess);
    let pipe = std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut buf = vec![0u8; block];
            for _ in 0..round_trips {
                to_rx.read_exact(&mut buf).expect("request");
                from_tx.write(&buf).expect("reply");
            }
        });
        let mut buf = vec![0u8; block];
        per_call_ns(round_trips, || {
            to_tx.write(&payload).expect("request");
            from_rx.read_exact(&mut buf).expect("reply");
        })
    });
    out.push(("ipc.pipe_roundtrip_ns", pipe));

    // Submission/completion ring: submit 8, harvest 8.
    const DEPTH: u64 = 8;
    let batches = round_trips / DEPTH;
    let (transport, port) = RingPair::shared::<u64, u64>(model(), DEPTH as usize);
    let doorbell = Event::new(model(), ResetMode::Auto);
    let ring_bell = doorbell.clone();
    port.set_wakeup(Arc::new(move || ring_bell.set()));
    let ring = std::thread::scope(|scope| {
        scope.spawn(|| loop {
            doorbell.wait();
            loop {
                match port.poll_sqe() {
                    Ok(Some(sqe)) => {
                        let cqe = Cqe {
                            id: sqe.id,
                            reply: sqe.cmd,
                            data: sqe.payload,
                        };
                        if port.post(cqe).is_err() {
                            return;
                        }
                    }
                    Ok(None) => break,
                    Err(_) => return,
                }
            }
        });
        let mut next = 0u64;
        let ns = per_call_ns(batches.div_ceil(BATCH).max(2) * BATCH, || {
            let ids = next..next + DEPTH;
            next += DEPTH;
            let batch = ids
                .clone()
                .map(|id| Sqe {
                    id,
                    cmd: id,
                    payload: Some(payload.clone()),
                })
                .collect();
            transport.submit(batch).expect("submit");
            for id in ids {
                std::hint::black_box(transport.complete(id).expect("complete"));
            }
        });
        transport.shutdown();
        ns
    });
    out.push(("ipc.ring_batch_roundtrip_ns", ring));
}

fn probe_world() -> AfsWorld {
    let world = AfsWorld::builder()
        .profile(HardwareProfile::free())
        .seed(0)
        .fleet_workers(1)
        .build();
    afs_sentinels::register_all(world.sentinels());
    world
}

fn core_and_sentinels(budget: &Budget, out: &mut Vec<(&'static str, f64)>) {
    let world = probe_world();
    let api = world.api();
    let install = |path: &str, spec: &SentinelSpec, len: usize| {
        world.install_active_file(path, spec).expect("install");
        world
            .vfs()
            .write_stream_replace(&VPath::parse(path).expect("path"), &vec![0xA5u8; len])
            .expect("seed");
    };
    install(
        "/open.af",
        &SentinelSpec::new("mirror", Strategy::DllThread).backing(Backing::Memory),
        4096,
    );
    out.push((
        "core.open_close_ns",
        per_call_ns(budget.calls(16 * 1024), || {
            let h = api
                .create_file("/open.af", Access::read_only(), Disposition::OpenExisting)
                .expect("open");
            api.close_handle(h).expect("close");
        }),
    ));

    const FILTER_BLOCK: usize = 2048;
    install(
        "/cipher.af",
        &SentinelSpec::new("xor-cipher", Strategy::DllOnly)
            .backing(Backing::Memory)
            .with("key", "7"),
        FILTER_BLOCK * BATCH as usize,
    );
    let h = api
        .create_file("/cipher.af", Access::read_only(), Disposition::OpenExisting)
        .expect("open cipher");
    let per_read = read_loop_ns(&api, h, FILTER_BLOCK, budget.calls(32 * 1024));
    api.close_handle(h).expect("close");
    out.push((
        "sentinels.filter_ns_per_byte",
        per_read / FILTER_BLOCK as f64,
    ));
}

fn open_store(medium: MemMedium) -> (PageStore, afs_store::RecoveryReport) {
    let opts = StoreOptions {
        page_size: 4096,
        sync: SyncMode::Commit,
        checkpoint_pages: 0,
    };
    PageStore::open(
        Box::new(medium),
        opts,
        CostModel::free(),
        Arc::new(StoreGauges::default()),
    )
    .expect("open page store")
}

fn store(block: usize, budget: &Budget, out: &mut Vec<(&'static str, f64)>) {
    const EXTENT: u64 = 1 << 20;
    let data = vec![0x77u8; block];
    let (mut store, _) = open_store(MemMedium::new());
    store.seed(&vec![0u8; EXTENT as usize]);
    let mut offset = 0u64;
    let commits = budget.calls(128 * 1024);
    let batches: Vec<f64> = (0..commits / BATCH)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..BATCH {
                offset = (offset + 4096 + block as u64) % (EXTENT - block as u64);
                store.write_at(offset, &data).expect("write");
                store.commit().expect("commit");
            }
            let ns = start.elapsed().as_nanos() as f64 / BATCH as f64;
            // Untimed: keep the WAL from growing without bound.
            store.checkpoint().expect("checkpoint");
            ns
        })
        .collect();
    out.push(("store.commit_ns", stats::median(&batches)));

    let checkpoints: Vec<f64> = (0..budget.calls(2 * 1024))
        .map(|_| {
            for page in 0..64u64 {
                store.write_at(page * 4096, &data).expect("dirty a page");
            }
            store.commit().expect("commit");
            let start = Instant::now();
            store.checkpoint().expect("checkpoint");
            start.elapsed().as_nanos() as f64
        })
        .collect();
    out.push(("store.checkpoint_ns", stats::median(&checkpoints)));

    // Recovery: redo a WAL of 4096 committed writes.
    let medium = MemMedium::new();
    {
        let (mut store, _) = open_store(medium.clone());
        for i in 0..4096u64 {
            store
                .write_at((i * 4096 + i) % (EXTENT - block as u64), &data)
                .expect("write");
            store.commit().expect("commit");
        }
    }
    let (pages, wal) = medium.images();
    let reopens: Vec<f64> = (0..budget.calls(64).min(256))
        .map(|_| {
            let crashed = MemMedium::from_parts(pages.clone(), wal.clone());
            let start = Instant::now();
            let (store, report) = open_store(crashed);
            let ns = start.elapsed().as_nanos() as f64;
            std::hint::black_box(store);
            ns / report.recovered_records.max(1) as f64
        })
        .collect();
    out.push(("store.recovery_ns_per_record", stats::median(&reopens)));
}

struct Echo;

impl Service for Echo {
    fn handle(&self, request: &[u8]) -> afs_net::Result<Vec<u8>> {
        Ok(request.to_vec())
    }
}

fn net(block: usize, budget: &Budget, out: &mut Vec<(&'static str, f64)>) {
    let calls = budget.calls(256 * 1024);
    let network = Network::new(CostModel::free());
    network.register("echo", Arc::new(Echo));
    let request = vec![0x11u8; block];
    out.push((
        "net.rpc_ns",
        per_call_ns(calls, || {
            std::hint::black_box(network.rpc("echo", &request).expect("rpc"));
        }),
    ));
    out.push((
        "net.wire_roundtrip_ns",
        per_call_ns(calls, || {
            let mut w = WireWriter::new();
            w.u8(3).str("/data/f17.af").u64(4096).bytes(&request);
            let frame = w.finish();
            let mut r = WireReader::new(&frame);
            let parsed = (
                r.u8().expect("tag"),
                r.str().expect("path"),
                r.u64().expect("offset"),
                r.bytes().expect("payload"),
            );
            std::hint::black_box(parsed);
        }),
    ));
    let mut placement = Placement::new(2);
    for i in 0..5 {
        placement.add_node(&format!("files-{i}"));
    }
    let mut i = 0usize;
    let paths: Vec<String> = (0..64).map(|f| format!("/data/f{f}.af")).collect();
    out.push((
        "net.placement_lookup_ns",
        per_call_ns(calls, || {
            i = (i + 1) % paths.len();
            std::hint::black_box(placement.owners(&paths[i]));
        }),
    ));
}

fn sim(block: usize, budget: &Budget, out: &mut Vec<(&'static str, f64)>) {
    let calls = budget.calls(1024 * 1024);
    let model = CostModel::new(HardwareProfile::pentium_ii_300());
    let charge_all = |calls: u64| {
        let _clock = clock::install(0);
        for _ in 0..calls {
            model.charge(Cost::Memcpy { bytes: block });
        }
    };
    let one = wall_ns_parallel(1, budget, |_| charge_all(calls));
    let two = wall_ns_parallel(2, budget, |_| charge_all(calls));
    out.push(("sim.charge_ns", one / calls as f64));
    out.push(("sim.charge_2t_ns", two / calls as f64));
}

fn telemetry(budget: &Budget, out: &mut Vec<(&'static str, f64)>) {
    let hub = Telemetry::new();
    hub.set_enabled(true);
    out.push((
        "telemetry.span_record_ns",
        per_call_ns(budget.calls(256 * 1024), || {
            drop(std::hint::black_box(hub.span(Layer::Interpose, "probe")));
        }),
    ));
}

/// Runs every probe at op size `block`.
pub fn run_all(block: usize, budget: &Budget) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    interpose_and_winapi(block, budget, &mut out);
    vfs(block, budget, &mut out);
    ipc(block, budget, &mut out);
    core_and_sentinels(budget, &mut out);
    store(block, budget, &mut out);
    net(block, budget, &mut out);
    sim(block, budget, &mut out);
    telemetry(budget, &mut out);
    out
}
