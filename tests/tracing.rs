//! Distributed causal tracing: one trace id covers the whole
//! interposition chain — interpose > strategy > backend > net RPC —
//! including retries, backoff waits, circuit-breaker rejections, and
//! replica failovers as annotated child spans; a breaker trip freezes the
//! in-flight trace into a flight-recorder bundle; and none of it charges
//! the §4 cost model or consumes virtual time.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use activefiles::prelude::*;
use activefiles::{clock, prometheus_text, FileServer, Layer, Service, SpanRecord};

const REPLICA_BODY: &[u8] = b"replica B body !!";

/// A world with a partitionable `files` primary, a `files-b` replica, and
/// a mirror active file whose policy makes the acceptance schedule
/// deterministic for *any* backoff jitter: three rounds, 1 ms base
/// backoff, threshold-1 breaker with a 2 ms cooldown. Failed partitioned
/// calls charge nothing, so round 2 lands inside the cooldown (wait1 <=
/// 1.5 ms) and round 3 past it (wait1 + wait2 >= 3 ms).
fn failover_world() -> AfsWorld {
    let world = AfsWorld::new();
    register_standard_sentinels(&world);
    let primary = FileServer::new();
    primary.seed("/blob", b"primary body ----");
    world.net().register("files", primary as Arc<dyn Service>);
    let replica = FileServer::new();
    replica.seed("/blob", REPLICA_BODY);
    world.net().register("files-b", replica as Arc<dyn Service>);
    world
        .install_active_file(
            "/m.af",
            &SentinelSpec::new("mirror", Strategy::DllOnly)
                .backing(Backing::Memory)
                .with("service", "files")
                .with("remote", "/blob")
                .with("retry", "3")
                .with("retry.backoff_us", "1000")
                .with("replicas", "files-b")
                .with("breaker.threshold", "1")
                .with("breaker.cooldown_us", "2000"),
        )
        .expect("install");
    world
}

/// Schedules the acceptance faults: the primary is hard-partitioned and
/// the replica fails exactly once, so round 1 trips both breakers, round
/// 2 is rejected by both (inside the cooldown), and round 3 half-opens
/// them — the primary's probe re-trips while the replica's succeeds.
fn schedule_faults(world: &AfsWorld) {
    world
        .net()
        .plan("files")
        .expect("primary plan")
        .set_partitioned(true);
    world.net().plan("files-b").expect("replica plan").flaky(1);
}

#[test]
fn failover_read_yields_one_contiguous_causal_trace() {
    let world = failover_world();
    let _g = clock::install(0);
    schedule_faults(&world);
    world.telemetry().set_enabled(true);
    let api = world.api();
    let h = api
        .create_file("/m.af", Access::read_only(), Disposition::OpenExisting)
        .expect("open");
    let mut buf = [0u8; 17];
    assert_eq!(api.read_file(h, &mut buf).expect("read fails over"), 17);
    assert_eq!(&buf[..], REPLICA_BODY, "the replica served the read");
    api.close_handle(h).expect("close");

    let spans = world.telemetry().spans();
    let root = spans
        .iter()
        .find(|s| s.name == "ReadFile" && s.parent == 0)
        .expect("interpose root span");
    assert_eq!(root.trace, root.id, "a root starts its own trace");
    let trace: Vec<&SpanRecord> = spans.iter().filter(|s| s.trace == root.trace).collect();
    assert!(
        trace.len() >= 4,
        "the trace is more than the root: {trace:#?}"
    );
    // Contiguity: every non-root member is parent-linked into the set.
    for s in &trace {
        if s.id == root.id {
            continue;
        }
        assert!(
            trace.iter().any(|p| p.id == s.parent),
            "span {}#{} dangles outside the causal chain",
            s.name,
            s.id
        );
    }
    let layers: BTreeSet<&str> = trace.iter().map(|s| s.layer.label()).collect();
    for required in ["interpose", "strategy", "backend", "retry"] {
        assert!(
            layers.contains(required),
            "trace layers {layers:?} missing {required}"
        );
    }
    let has = |name: &str, note: &str| trace.iter().any(|s| s.name == name && s.note == note);
    assert!(
        has("breaker-reject", "cause=breaker_open"),
        "round 2's local refusals are annotated rejection spans: {trace:#?}"
    );
    assert!(
        has("failover", "cause=failover replica=files-b"),
        "the replica win is an annotated failover span: {trace:#?}"
    );
    assert!(
        has("retry", "cause=backoff"),
        "backoff waits are annotated child spans: {trace:#?}"
    );

    // The round-1 trip froze the in-flight op into a post-mortem bundle.
    let bundles = world.telemetry().flight().bundles();
    let bundle = bundles
        .iter()
        .find(|b| b.cause == "breaker_open")
        .expect("breaker trip dumped a flight bundle");
    assert!(
        bundle.detail.contains("service=files"),
        "the trigger names the tripped service: {}",
        bundle.detail
    );
    assert!(
        bundle.open.iter().any(|p| p.trace == root.trace),
        "the failing op's trace is frozen mid-flight in the bundle: {bundle:#?}"
    );
}

#[test]
fn trace_annotations_charge_nothing_to_the_cost_model() {
    // The whole observability layer — spans, notes, flight bundles, SLO
    // windows — must be free in §4 terms: bit-identical cost-model
    // charges and virtual-clock advance whether telemetry is on or off.
    let run = |telemetry_on: bool| {
        let world = failover_world();
        let _g = clock::install(0);
        schedule_faults(&world);
        world.telemetry().set_enabled(telemetry_on);
        let api = world.api();
        let h = api
            .create_file("/m.af", Access::read_only(), Disposition::OpenExisting)
            .expect("open");
        let mut buf = [0u8; 17];
        api.read_file(h, &mut buf).expect("read");
        api.close_handle(h).expect("close");
        (world.model().snapshot(), clock::now())
    };
    let (charges_on, clock_on) = run(true);
    let (charges_off, clock_off) = run(false);
    assert_eq!(
        charges_on, charges_off,
        "tracing added cost-model charges the silent run never saw"
    );
    assert_eq!(clock_on, clock_off, "tracing consumed virtual time");
}

#[test]
fn stolen_tasks_reparent_sentinel_spans_to_the_originating_op() {
    // A two-worker pool under eight files and four threads steals tasks
    // between shards; a migrated dispatch loop must still parent its
    // sentinel-side spans to the originating op's strategy span (via the
    // session's scope cell), never to whatever frame the stealing worker
    // happens to have open.
    const FILES: usize = 8;
    const THREADS: usize = 4;
    let world = Arc::new(AfsWorld::builder().fleet_workers(2).build());
    register_standard_sentinels(&world);
    for idx in 0..FILES {
        let strategy = if idx % 2 == 0 {
            Strategy::DllThread
        } else {
            Strategy::ProcessControl
        };
        world
            .install_active_file(
                &format!("/steal/f{idx}.af"),
                &SentinelSpec::new("null", strategy).backing(Backing::Memory),
            )
            .expect("install");
    }
    world.telemetry().set_enabled(true);

    let mut rounds = 0;
    while world.telemetry().fleet().snapshot().steals == 0 && rounds < 50 {
        rounds += 1;
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                let world = Arc::clone(&world);
                scope.spawn(move || {
                    let _g = clock::install(0);
                    let api = world.api();
                    for idx in 0..FILES {
                        let path = format!("/steal/f{idx}.af");
                        let h = api
                            .create_file(&path, Access::read_write(), Disposition::OpenExisting)
                            .expect("open");
                        let mut buf = [0u8; 4];
                        for _ in 0..5 {
                            api.write_file(h, b"spin").expect("write");
                            api.set_file_pointer(h, 0, SeekMethod::Begin).expect("seek");
                            api.read_file(h, &mut buf).expect("read");
                        }
                        api.close_handle(h).expect("close");
                    }
                });
            }
        });
    }
    assert!(
        world.telemetry().fleet().snapshot().steals > 0,
        "the two-worker pool never stole a task in {rounds} rounds"
    );

    let spans = world.telemetry().spans();
    let by_id: HashMap<u64, &SpanRecord> = spans.iter().map(|s| (s.id, s)).collect();
    let mut checked = 0u64;
    for s in spans
        .iter()
        .filter(|s| s.layer == Layer::Sentinel && s.parent != 0)
    {
        let Some(parent) = by_id.get(&s.parent) else {
            continue; // evicted from the bounded span ring
        };
        checked += 1;
        assert_eq!(
            parent.layer,
            Layer::Strategy,
            "sentinel span {}#{} parents to a {} span, not its op's strategy span",
            s.name,
            s.id,
            parent.layer.label()
        );
        assert_eq!(
            parent.trace, s.trace,
            "sentinel span {}#{} lost its originating trace",
            s.name, s.id
        );
    }
    assert!(checked > 0, "no sentinel spans survived to check");
    world.quiesce();
}

#[test]
fn slo_spec_keys_validate_and_export_burn_rates() {
    let world = AfsWorld::new();
    register_standard_sentinels(&world);
    world
        .install_active_file(
            "/bad.af",
            &SentinelSpec::new("null", Strategy::DllThread)
                .backing(Backing::Memory)
                .with("slo_p99_us", "fast"),
        )
        .expect("install is lazy about SLO values");
    let api = world.api();
    assert!(
        matches!(
            api.create_file("/bad.af", Access::read_only(), Disposition::OpenExisting),
            Err(Win32Error::InvalidParameter)
        ),
        "a malformed SLO key is rejected at open, not silently ignored"
    );

    world
        .install_active_file(
            "/slo.af",
            &SentinelSpec::new("null", Strategy::DllThread)
                .backing(Backing::Memory)
                .with("slo_p99_us", "500")
                .with("slo_err_ppm", "1000"),
        )
        .expect("install");
    world.telemetry().set_enabled(true);
    let h = api
        .create_file("/slo.af", Access::read_write(), Disposition::OpenExisting)
        .expect("open");
    api.write_file(h, b"slo payload").expect("write");
    let mut buf = [0u8; 4];
    for _ in 0..12 {
        api.set_file_pointer(h, 0, SeekMethod::Begin).expect("seek");
        api.read_file(h, &mut buf).expect("read");
    }
    api.close_handle(h).expect("close");

    let snap = world
        .telemetry()
        .slo_trackers()
        .iter()
        .map(|t| t.snapshot())
        .find(|s| s.file == "/slo.af")
        .expect("declaring slo_* keys registers a tracker at open");
    assert_eq!(snap.sentinel, "null");
    assert_eq!(snap.spec.p99_ns, Some(500_000), "microseconds scale to ns");
    assert_eq!(snap.spec.err_ppm, Some(1_000));
    assert!(
        snap.ops >= 12,
        "every traced op feeds the window: {}",
        snap.ops
    );
    assert_eq!(snap.errors, 0);

    let prom = prometheus_text(&world.metrics().snapshot());
    for metric in [
        "afs_slo_ops_total{",
        "afs_slo_latency_target_ns{",
        "afs_slo_error_budget_ppm{",
        "afs_slo_latency_burn_milli{",
        "afs_slo_error_burn_milli{",
        "afs_sentinel_ops_total{",
        "afs_sentinel_queue_depth_peak{",
    ] {
        assert!(prom.contains(metric), "{metric} missing from:\n{prom}");
    }
    assert!(
        prom.contains("file=\"/slo.af\""),
        "SLO series are labelled by file:\n{prom}"
    );
}
