//! Fault tolerance on the remote path: retries, backoff, replica
//! failover, circuit breaking, and degraded (stale-cache) operation —
//! all observed through the plain Win32-shaped file API an unmodified
//! application uses, and all deterministic under the world's seeded
//! fault streams and virtual clocks.

use std::sync::Arc;

use activefiles::prelude::*;
use activefiles::{
    clock, prometheus_text, BreakerConfig, CostModel, FileClient, FileServer, MailStore, NetError,
    Network, PopServer, ReliabilityPolicy, RetryPolicy, Service, CTL_QUERY_STALE,
};

const BODY: &[u8] = b"remote data bytes";

/// A world with a seeded `files` server and a policy-bearing mirror
/// active file at `/m.af`; extra spec keys come from `keys`.
fn reliable_world(keys: &[(&str, &str)]) -> (AfsWorld, Arc<FileServer>) {
    let world = AfsWorld::new();
    register_standard_sentinels(&world);
    let server = FileServer::new();
    server.seed("/blob", BODY);
    world
        .net()
        .register("files", Arc::clone(&server) as Arc<dyn Service>);
    let mut spec = SentinelSpec::new("mirror", Strategy::DllOnly)
        .backing(Backing::Memory)
        .with("service", "files")
        .with("remote", "/blob");
    for (k, v) in keys {
        spec = spec.with(k, v);
    }
    world.install_active_file("/m.af", &spec).expect("install");
    (world, server)
}

#[test]
fn flaky_remote_heals_invisibly_behind_retries() {
    let (world, _server) = reliable_world(&[("retry", "4")]);
    let plan = world.net().plan("files").expect("plan");
    plan.flaky(2); // two Partitioned failures, then healthy
    let api = world.api();
    let h = api
        .create_file("/m.af", Access::read_only(), Disposition::OpenExisting)
        .expect("open");
    let mut buf = [0u8; 17];
    assert_eq!(api.read_file(h, &mut buf).expect("read"), BODY.len());
    assert_eq!(&buf[..], BODY, "the application never saw the failures");
    api.close_handle(h).expect("close");
    assert_eq!(
        world.net().reliability().retries,
        2,
        "one backoff wait per flaky failure"
    );
}

#[test]
fn partition_window_heals_within_the_retry_deadline() {
    // The acceptance scenario: a scheduled partition strictly shorter
    // than the retry deadline must be invisible to the legacy
    // application, because backoff consumes virtual time and the window
    // expires while the transport waits.
    let (world, _server) = reliable_world(&[("retry", "8")]);
    let plan = world.net().plan("files").expect("plan");
    let _g = clock::install(0);
    plan.partition_window(0, 2_000_000); // down for the first 2 ms
    let api = world.api();
    let h = api
        .create_file("/m.af", Access::read_only(), Disposition::OpenExisting)
        .expect("open");
    let mut buf = [0u8; 17];
    assert_eq!(api.read_file(h, &mut buf).expect("read"), BODY.len());
    assert_eq!(&buf[..], BODY);
    api.close_handle(h).expect("close");
    let rel = world.net().reliability();
    assert!(rel.retries > 0, "the partition was ridden out: {rel:?}");
    assert!(
        clock::now() >= 2_000_000,
        "backoff advanced virtual time past the window"
    );
}

#[test]
fn retry_exhaustion_surfaces_a_network_error() {
    let (world, _server) = reliable_world(&[("retry", "3")]);
    let plan = world.net().plan("files").expect("plan");
    plan.set_partitioned(true); // never heals
    let api = world.api();
    let h = api
        .create_file("/m.af", Access::read_only(), Disposition::OpenExisting)
        .expect("open succeeds — no remote traffic yet");
    let mut buf = [0u8; 8];
    assert_eq!(
        api.read_file(h, &mut buf),
        Err(Win32Error::NetworkError),
        "after the attempts run out the original error surfaces"
    );
    assert_eq!(
        world.net().reliability().retries,
        2,
        "three attempts mean two waits"
    );
    plan.set_partitioned(false);
    api.read_file(h, &mut buf).expect("heals after the fact");
    api.close_handle(h).expect("close");
}

/// A read through a mirror whose service never answers, under `keys`
/// beside `retry=6` and a 100 µs first backoff: the retries it made and
/// the virtual time it took.
fn partitioned_read(keys: &[(&str, &str)]) -> (u64, u64) {
    let mut spec = vec![("retry", "6"), ("retry.backoff_us", "100")];
    spec.extend_from_slice(keys);
    let (world, _server) = reliable_world(&spec);
    world
        .net()
        .plan("files")
        .expect("plan")
        .set_partitioned(true);
    let _g = clock::install(0);
    let api = world.api();
    let h = api
        .create_file("/m.af", Access::read_only(), Disposition::OpenExisting)
        .expect("open");
    let started = clock::now();
    let mut buf = [0u8; 8];
    assert_eq!(api.read_file(h, &mut buf), Err(Win32Error::NetworkError));
    let elapsed = clock::now() - started;
    api.close_handle(h).expect("close");
    (world.net().reliability().retries, elapsed)
}

#[test]
fn backoff_cap_and_deadline_bound_the_retry_walk() {
    // Five waits of 100·2^k µs plus up to half again of jitter: capped at
    // 200 µs they sum to 900 µs (1 350 µs at most with jitter), uncapped
    // to 3 100 µs.
    let (retries, elapsed) = partitioned_read(&[("retry.max_backoff_us", "200")]);
    assert_eq!(retries, 5, "retry=6 allows five waits");
    assert!(
        (900_000..3_100_000).contains(&elapsed),
        "capped waits take at least their sum and less than the uncapped one: {elapsed} ns"
    );
    // A deadline below the capped sum ends the walk early.
    let (retries, elapsed) = partitioned_read(&[
        ("retry.max_backoff_us", "200"),
        ("retry.deadline_us", "500"),
    ]);
    assert!(
        (1..5).contains(&retries),
        "the deadline cut the walk short: {retries} retries"
    );
    assert!(elapsed < 900_000, "{elapsed} ns");
}

#[test]
fn failover_prefers_the_first_healthy_replica() {
    let (world, _primary) = reliable_world(&[("retry", "1"), ("replicas", "files-a,files-b")]);
    let replica_a = FileServer::new();
    replica_a.seed("/blob", b"replica A body !!");
    let replica_b = FileServer::new();
    replica_b.seed("/blob", b"replica B body !!");
    world
        .net()
        .register("files-a", replica_a as Arc<dyn Service>);
    world
        .net()
        .register("files-b", replica_b as Arc<dyn Service>);
    world
        .net()
        .plan("files")
        .expect("plan")
        .set_partitioned(true);
    let api = world.api();
    let h = api
        .create_file("/m.af", Access::read_only(), Disposition::OpenExisting)
        .expect("open");
    let mut buf = [0u8; 17];
    api.read_file(h, &mut buf).expect("read fails over");
    assert_eq!(&buf[..], b"replica A body !!", "first healthy replica wins");
    assert!(world.net().reliability().failovers >= 1);

    // With the first replica also down, the second serves.
    world
        .net()
        .plan("files-a")
        .expect("plan")
        .set_partitioned(true);
    api.set_file_pointer(h, 0, SeekMethod::Begin).expect("seek");
    api.read_file(h, &mut buf).expect("read fails over again");
    assert_eq!(&buf[..], b"replica B body !!");
    api.close_handle(h).expect("close");
}

/// `replicas=` names the owners after the service an endpoint reaches; a
/// mail client names its server per call and has none. While the list
/// was the whole network's policy, a POP `LIST` to a partitioned `pop1`
/// failed over to the listed file server — `LIST`'s op byte is the file
/// server's `PUT` — which answered with a malformed-request error.
#[test]
fn replicas_never_carry_mail_to_a_file_server() {
    use std::sync::atomic::{AtomicU64, Ordering};

    struct Counting(Arc<FileServer>, AtomicU64);
    impl Service for Counting {
        fn handle(&self, request: &[u8]) -> Result<Vec<u8>, NetError> {
            self.1.fetch_add(1, Ordering::SeqCst);
            self.0.handle(request)
        }
    }

    let world = AfsWorld::new();
    register_standard_sentinels(&world);
    let store = MailStore::new();
    store.deliver("x@y", "me@here", "s", "b");
    let pop1 = world
        .net()
        .register("pop1", PopServer::new(store) as Arc<dyn Service>);
    let files_b = Arc::new(Counting(FileServer::new(), AtomicU64::new(0)));
    world
        .net()
        .register("files-b", Arc::clone(&files_b) as Arc<dyn Service>);
    let spec = SentinelSpec::new("inbox", Strategy::DllOnly)
        .backing(Backing::Memory)
        .with("servers", "pop1")
        .with("user", "me@here")
        .with("replicas", "files-b")
        .with("retry", "1");
    world
        .install_active_file("/inbox.af", &spec)
        .expect("install");
    pop1.set_partitioned(true);
    assert_eq!(
        world
            .api()
            .create_file("/inbox.af", Access::read_only(), Disposition::OpenExisting),
        Err(Win32Error::NetworkError),
        "the partition's error reaches the application"
    );
    assert_eq!(
        files_b.1.load(Ordering::SeqCst),
        0,
        "no mail request reached the file server"
    );
}

#[test]
fn breaker_trips_open_then_recovers_through_half_open() {
    let net = Network::new(CostModel::free());
    let server = FileServer::new();
    server.seed("/blob", BODY);
    let plan = net.register("files", server as Arc<dyn Service>);
    let reliable = net.with_policy(ReliabilityPolicy {
        retry: RetryPolicy {
            attempts: 1,
            ..RetryPolicy::default()
        },
        breaker: Some(BreakerConfig {
            threshold: 3,
            cooldown_ns: 1_000_000,
        }),
    });
    let client = FileClient::new(reliable.endpoint(["files"]));
    let _g = clock::install(0);

    plan.set_partitioned(true);
    for _ in 0..3 {
        assert!(matches!(
            client.stat("/blob"),
            Err(NetError::Partitioned(_))
        ));
    }
    assert_eq!(net.reliability().breaker_trips, 1);
    assert_eq!(net.breaker_states(), vec![("files".to_owned(), "open")]);

    // While open, calls are rejected locally — the partitioned service
    // is never even consulted.
    assert!(matches!(
        client.stat("/blob"),
        Err(NetError::CircuitOpen(_))
    ));
    assert_eq!(net.reliability().breaker_rejections, 1);

    // After the cooldown one probe goes through; its success closes the
    // breaker for good.
    plan.set_partitioned(false);
    clock::advance(2_000_000);
    client.stat("/blob").expect("half-open probe succeeds");
    assert_eq!(net.breaker_states(), vec![("files".to_owned(), "closed")]);
    client.stat("/blob").expect("closed again");
}

#[test]
fn degraded_reads_serve_stale_cache_and_flag_it() {
    // `on` is the one boolean grammar's spelling; before the runtime keys
    // were one table it silently meant *off* here.
    for spelling in ["true", "on"] {
        degraded_scenario(spelling, |api, h, buf| api.read_file(h, buf));
    }
}

/// `ReadFileScatter` is a read like any other: it used to bypass the
/// last-good cache and fail with `NetworkError` on the same handle where
/// `ReadFile` served stale bytes.
#[test]
fn degraded_scatter_reads_serve_stale_cache_and_flag_it() {
    degraded_scenario("on", |api, h, buf| {
        let (head, tail) = buf.split_at_mut(8);
        api.read_file_scatter(h, &mut [head, tail])
    });
}

type ReadCall =
    fn(&activefiles::ApiHandle, activefiles::Handle, &mut [u8]) -> Result<usize, Win32Error>;

fn degraded_scenario(spelling: &str, read: ReadCall) {
    let (world, _server) = reliable_world(&[("degraded", spelling)]);
    let plan = world.net().plan("files").expect("plan");
    let api = world.api();
    let h = api
        .create_file("/m.af", Access::read_only(), Disposition::OpenExisting)
        .expect("open");
    let mut buf = [0u8; 17];
    read(&api, h, &mut buf).expect("warm the last-good cache");
    assert_eq!(&buf[..], BODY);
    assert_eq!(
        api.device_io_control(h, CTL_QUERY_STALE, &[]).expect("ctl"),
        vec![0u8],
        "fresh while the remote answers"
    );

    plan.set_partitioned(true);
    api.set_file_pointer(h, 0, SeekMethod::Begin).expect("seek");
    let mut stale_buf = [0u8; 17];
    read(&api, h, &mut stale_buf).expect("degraded read keeps the application running");
    assert_eq!(&stale_buf[..], BODY, "last-good bytes");
    assert_eq!(
        api.device_io_control(h, CTL_QUERY_STALE, &[]).expect("ctl"),
        vec![1u8],
        "stale is visible to anyone who asks"
    );
    assert!(world.net().reliability().degraded_reads >= 1);

    // Healing makes the next read fresh again.
    plan.set_partitioned(false);
    api.set_file_pointer(h, 0, SeekMethod::Begin).expect("seek");
    read(&api, h, &mut buf).expect("fresh read");
    assert_eq!(
        api.device_io_control(h, CTL_QUERY_STALE, &[]).expect("ctl"),
        vec![0u8]
    );
    api.close_handle(h).expect("close");
}

/// One row per grammar, through the file API an application uses: a
/// value outside a runtime key's grammar fails the open — it used to run
/// with the default (three attempts, degraded off, sharing on).
#[test]
fn bad_runtime_values_fail_the_open() {
    for (key, value) in [("retry", "3x"), ("degraded", "maybe"), ("share", "banana")] {
        let (world, _server) = reliable_world(&[(key, value)]);
        assert_eq!(
            world
                .api()
                .create_file("/m.af", Access::read_only(), Disposition::OpenExisting),
            Err(Win32Error::InvalidParameter),
            "{key}={value} must fail the open"
        );
        assert_eq!(world.open_sentinel_count(), 0, "nothing was launched");
    }
}

#[test]
fn queued_writes_replay_in_order_on_heal() {
    let (world, _server) = reliable_world(&[("degraded", "true")]);
    let plan = world.net().plan("files").expect("plan");
    let api = world.api();
    let h = api
        .create_file("/m.af", Access::read_write(), Disposition::OpenExisting)
        .expect("open");
    let mut buf = [0u8; 17];
    api.read_file(h, &mut buf).expect("warm the cache");

    plan.set_partitioned(true);
    api.set_file_pointer(h, 0, SeekMethod::Begin).expect("seek");
    api.write_file(h, b"EDIT").expect("accepted while down");
    assert!(world.net().reliability().queued_writes >= 1);
    // The local view already reflects the queued write.
    api.set_file_pointer(h, 0, SeekMethod::Begin).expect("seek");
    api.read_file(h, &mut buf).expect("degraded read-back");
    assert_eq!(&buf[..4], b"EDIT");
    assert_eq!(
        api.device_io_control(h, CTL_QUERY_STALE, &[]).expect("ctl"),
        vec![1u8]
    );

    // Heal; the next operation replays the queue before running.
    plan.set_partitioned(false);
    api.get_file_size(h).expect("post-heal op");
    assert!(world.net().reliability().replayed_writes >= 1);
    assert_eq!(
        api.device_io_control(h, CTL_QUERY_STALE, &[]).expect("ctl"),
        vec![0u8],
        "drained queue clears the stale flag"
    );
    api.close_handle(h).expect("close");
    // The remote caught up with the write made while it was down.
    let check = FileClient::new(world.net().endpoint(["files"]));
    assert_eq!(check.get("/blob", 0, 4).expect("remote read"), b"EDIT");
}

#[test]
fn reliability_counters_reach_the_prometheus_export() {
    let (world, _server) = reliable_world(&[("retry", "4")]);
    world.net().plan("files").expect("plan").flaky(2);
    let api = world.api();
    let h = api
        .create_file("/m.af", Access::read_only(), Disposition::OpenExisting)
        .expect("open");
    let mut buf = [0u8; 8];
    api.read_file(h, &mut buf).expect("read through retries");
    api.close_handle(h).expect("close");
    let prom = prometheus_text(&world.metrics().snapshot());
    for metric in [
        "afs_retries_total",
        "afs_failovers_total",
        "afs_breaker_trips_total",
        "afs_breaker_rejections_total",
        "afs_degraded_reads_total",
        "afs_queued_writes_total",
        "afs_replayed_writes_total",
        "afs_net_dropped_total",
    ] {
        assert!(prom.contains(metric), "{metric} missing from:\n{prom}");
    }
    assert!(
        prom.contains("afs_retries_total 2"),
        "retries counted in the export:\n{prom}"
    );
}

#[test]
fn halfopen_window_admits_exactly_one_concurrent_probe() {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Barrier, Condvar, Mutex};

    // A service that counts the calls reaching it and holds each one open
    // until released, so the half-open probe is verifiably *in flight*
    // while the rest of the herd races the breaker.
    struct Gate {
        calls: AtomicU64,
        held: Mutex<bool>,
        cv: Condvar,
    }
    impl Gate {
        fn release(&self) {
            *self.held.lock().expect("lock") = false;
            self.cv.notify_all();
        }
    }
    impl Service for Gate {
        fn handle(&self, _request: &[u8]) -> Result<Vec<u8>, NetError> {
            self.calls.fetch_add(1, Ordering::SeqCst);
            let mut held = self.held.lock().expect("lock");
            while *held {
                held = self.cv.wait(held).expect("wait");
            }
            Ok(Vec::new())
        }
    }

    let net = Network::new(CostModel::free());
    let gate = Arc::new(Gate {
        calls: AtomicU64::new(0),
        held: Mutex::new(true),
        cv: Condvar::new(),
    });
    let plan = net.register("svc", Arc::clone(&gate) as Arc<dyn Service>);
    let reliable = net.with_policy(ReliabilityPolicy {
        retry: RetryPolicy {
            attempts: 1,
            ..RetryPolicy::default()
        },
        breaker: Some(BreakerConfig {
            threshold: 1,
            cooldown_ns: 1_000,
        }),
    });

    // Trip the breaker; the partitioned call never reaches the service.
    let _g = clock::install(0);
    plan.set_partitioned(true);
    assert!(reliable.rpc("svc", b"x").is_err());
    plan.set_partitioned(false);

    // Seeded herd size so the CI sweep varies the contention shape.
    let seed = afs_sim::test_seed(42);
    let herd = 4 + (seed % 5) as usize;

    let rejections_before = net.reliability().breaker_rejections;
    let barrier = Arc::new(Barrier::new(herd + 1));
    let mut joins = Vec::new();
    for _ in 0..herd {
        let reliable = reliable.clone();
        let barrier = Arc::clone(&barrier);
        joins.push(std::thread::spawn(move || {
            // Each caller's virtual clock sits past the cooldown, so every
            // one of them is racing for the half-open window.
            let _g = clock::install(2_000);
            barrier.wait();
            reliable.rpc("svc", b"x")
        }));
    }
    barrier.wait();

    // Exactly one caller wins the probe slot and blocks inside the
    // service; everyone else must be refused locally while it is out.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while net.reliability().breaker_rejections - rejections_before < herd as u64 - 1 {
        assert!(
            std::time::Instant::now() < deadline,
            "herd never finished racing the half-open window"
        );
        std::thread::yield_now();
    }
    assert_eq!(
        gate.calls.load(Ordering::SeqCst),
        1,
        "exactly one RPC reached the recovering service"
    );
    gate.release();

    let results: Vec<_> = joins.into_iter().map(|j| j.join().expect("join")).collect();
    assert_eq!(
        results.iter().filter(|r| r.is_ok()).count(),
        1,
        "one probe succeeded"
    );
    assert_eq!(
        results
            .iter()
            .filter(|r| matches!(r, Err(NetError::CircuitOpen(_))))
            .count(),
        herd - 1,
        "the rest were refused without touching the wire"
    );
    // The successful probe closed the breaker for everyone.
    assert_eq!(net.breaker_states(), vec![("svc".to_owned(), "closed")]);
    reliable.rpc("svc", b"x").expect("closed after the probe");
    assert_eq!(gate.calls.load(Ordering::SeqCst), 2);
}

#[test]
fn seeded_worlds_reproduce_their_fault_streams() {
    // The seed-sweep CI job runs the suite under AFS_TEST_SEED; this
    // checks the property the sweep relies on — same seed, same losses.
    let observe = |seed: u64| {
        let net = Network::new(CostModel::free());
        let server = FileServer::new();
        server.seed("/blob", BODY);
        let plan = net.register("files", server as Arc<dyn Service>);
        net.set_seed(seed);
        plan.loss_ppm(400_000); // 40% loss
        let client = FileClient::new(net.endpoint(["files"]));
        (0..32)
            .map(|_| u8::from(client.stat("/blob").is_ok()))
            .collect::<Vec<u8>>()
    };
    assert_eq!(observe(7), observe(7), "deterministic for equal seeds");
    assert_ne!(
        observe(7),
        observe(8),
        "different seeds draw different streams"
    );
}
