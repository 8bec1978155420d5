//! Distributed causal tracing: one trace id covers the whole
//! interposition chain — interpose > strategy > backend > net RPC —
//! including retries, backoff waits, circuit-breaker rejections, and
//! replica failovers as annotated child spans; a breaker trip freezes the
//! in-flight trace into a flight-recorder bundle; and none of it charges
//! the §4 cost model or consumes virtual time.
//!
//! The seeded failover read writes its chrome trace and flight dump as
//! `trace.json` and `flight-dump.json` into Cargo's test scratch directory
//! (`target/tmp/` by default).

use std::collections::{BTreeSet, HashMap};
use std::fs;
use std::path::Path;
use std::sync::Arc;

use activefiles::prelude::*;
use activefiles::{
    chrome_trace, clock, Cost, CostModel, FileClient, FileServer, Fleet, HardwareProfile, Layer,
    Service, SpanRecord, VPath,
};
use afs_sim::CostSnapshot;
use afs_telemetry::json;

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
    let read = api.read_file(h, &mut buf);
    api.close_handle(h).expect("close");

    // The evidence is written before anything is asserted, so a failing
    // run leaves it too (CI uploads both files).
    let spans = world.telemetry().spans();
    let chrome = chrome_trace(&[("failover", spans.clone())]);
    let dump = world.flight_dump();
    let tmp = Path::new(env!("CARGO_TARGET_TMPDIR"));
    fs::write(tmp.join("trace.json"), &chrome).expect("write trace.json");
    fs::write(tmp.join("flight-dump.json"), &dump).expect("write flight-dump.json");

    assert_eq!(read, Ok(17), "the read fails over");
    assert_eq!(&buf[..], REPLICA_BODY, "the replica served the read");
    let events = json::parse(&chrome).expect("the chrome trace parses");
    let complete = events
        .as_array()
        .expect("an event array")
        .iter()
        .filter_map(json::Value::as_object)
        .filter(|e| e.get("ph").and_then(json::Value::as_str) == Some("X"))
        .count();
    assert_eq!(complete, spans.len(), "one complete event per span");

    let reads: Vec<&SpanRecord> = spans.iter().filter(|s| s.name == "ReadFile").collect();
    assert_eq!(reads.len(), 1, "the read is one trace: {reads:#?}");
    let root = reads[0];
    assert_eq!(root.parent, 0, "the read's span is its trace's root");
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
    assert!(json::parse(&dump).is_ok(), "the flight dump parses: {dump}");
}

/// What `script` charged to the cost model and how far it moved the
/// virtual clock, on a fresh `world()`, with telemetry on or off.
fn charged(
    world: &dyn Fn() -> AfsWorld,
    script: &dyn Fn(&AfsWorld),
    telemetry_on: bool,
) -> (CostSnapshot, u64) {
    let world = world();
    let _g = clock::install(0);
    world.telemetry().set_enabled(telemetry_on);
    script(&world);
    world.quiesce();
    (world.model().snapshot(), clock::now())
}

/// Asserts that `script` charges and advances the same with telemetry on
/// and off.
fn assert_free(carrier: &str, world: &dyn Fn() -> AfsWorld, script: &dyn Fn(&AfsWorld)) {
    let (charges_on, clock_on) = charged(world, script, true);
    let (charges_off, clock_off) = charged(world, script, false);
    assert_eq!(
        charges_on, charges_off,
        "{carrier}: tracing added cost-model charges the silent run never saw"
    );
    assert_eq!(
        clock_on, clock_off,
        "{carrier}: tracing consumed virtual time"
    );
}

#[test]
fn trace_annotations_charge_nothing_to_the_cost_model() {
    // The whole observability layer — spans, notes, flight bundles, the
    // trace context on every frame — must be free in §4 terms:
    // bit-identical cost-model charges and virtual-clock advance whether
    // telemetry is on or off, on every carrier.
    let failover = |world: &AfsWorld| {
        schedule_faults(world);
        let api = world.api();
        let h = api
            .create_file("/m.af", Access::read_only(), Disposition::OpenExisting)
            .expect("open");
        let mut buf = [0u8; 17];
        api.read_file(h, &mut buf).expect("read");
        api.close_handle(h).expect("close");
    };
    assert_free("remote dll-only", &failover_world, &failover);

    let null = |strategy| SentinelSpec::new("null", strategy).backing(Backing::Memory);
    let mut carriers = vec![("process", null(Strategy::Process), 1)];
    carriers.extend(write_carriers(null));
    for (carrier, spec, sessions) in carriers {
        let world = || {
            let world = AfsWorld::new();
            register_standard_sentinels(&world);
            world.install_active_file("/w.af", &spec).expect("install");
            world
                .vfs()
                .write_stream_replace(&VPath::parse("/w.af").expect("path"), b"0123456789abcdef")
                .expect("seed");
            world
        };
        let write_read_close = |world: &AfsWorld| {
            let api = world.api();
            let handles: Vec<_> = (0..sessions)
                .map(|_| {
                    api.create_file("/w.af", Access::read_write(), Disposition::OpenExisting)
                        .expect("open")
                })
                .collect();
            api.write_file(handles[0], b"data").expect("write");
            let mut buf = [0u8; 4];
            api.read_file(handles[0], &mut buf).expect("read");
            for h in handles {
                api.close_handle(h).expect("close");
            }
        };
        assert_free(carrier, &world, &write_read_close);
    }
}

#[test]
fn migrated_tasks_reparent_sentinel_spans_to_the_originating_op() {
    // A two-worker pool under eight files and four threads moves a file's
    // sentinel between workers; a migrated dispatch loop must still parent
    // its sentinel-side spans to the originating op's transport span
    // (carried on the command's frame), never to whatever frame the worker
    // that picked it up happens to have open — nor, for a posted write, to
    // the op the application has moved on to.
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
                &format!("/migrate/f{idx}.af"),
                &SentinelSpec::new("null", strategy).backing(Backing::Memory),
            )
            .expect("install");
    }
    world.telemetry().set_enabled(true);

    let mut rounds = 0;
    while !a_file_ran_on_two_workers(&world.telemetry().spans()) && rounds < 50 {
        rounds += 1;
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                let world = Arc::clone(&world);
                scope.spawn(move || {
                    let _g = clock::install(0);
                    let api = world.api();
                    for idx in 0..FILES {
                        let path = format!("/migrate/f{idx}.af");
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
        a_file_ran_on_two_workers(&world.telemetry().spans()),
        "no file's sentinel ran on both workers in {rounds} rounds"
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
            Layer::Transport,
            "sentinel span {}#{} parents to a {} span, not its op's transport span",
            s.name,
            s.id,
            parent.layer.label()
        );
        assert_eq!(
            parent.trace, s.trace,
            "sentinel span {}#{} lost its originating trace",
            s.name, s.id
        );
        let call = match s.name {
            "write" => "WriteFile",
            "read" => "ReadFile",
            "close" => "CloseHandle",
            other => panic!("unexpected sentinel op {other}"),
        };
        if let Some(root) = by_id.get(&s.trace) {
            assert_eq!(
                root.name, call,
                "sentinel span {}#{} is in another op's trace",
                s.name, s.id
            );
        }
    }
    assert!(checked > 0, "no sentinel spans survived to check");
    world.quiesce();
}

/// Whether one file's sentinel spans sit on two different worker lanes.
/// A lane that holds an application's `Interpose` span is an application
/// thread's (a caller that ran the sentinel itself); the rest are workers'.
/// A shared sentinel's spans name their file in the session note.
fn a_file_ran_on_two_workers(spans: &[SpanRecord]) -> bool {
    let app_lanes: BTreeSet<u64> = spans
        .iter()
        .filter(|s| s.layer == Layer::Interpose)
        .map(|s| s.thread)
        .collect();
    let mut lanes: HashMap<&str, BTreeSet<u64>> = HashMap::new();
    for s in spans {
        let file = s.note.split_once("file=").map(|(_, file)| file);
        if let (Layer::Sentinel, Some(file)) = (s.layer, file) {
            if !app_lanes.contains(&s.thread) {
                lanes.entry(file).or_default().insert(s.thread);
            }
        }
    }
    lanes.values().any(|workers| workers.len() >= 2)
}

/// Every carrier a posted write can take to its sentinel: the five that
/// carry it out of line, and the inline one. The third field is how many
/// sessions share the sentinel (the hub stages writes only with two); with
/// two, the read that flushes the write is the other session's.
fn write_carriers(
    spec: impl Fn(Strategy) -> SentinelSpec,
) -> [(&'static str, SentinelSpec, usize); 6] {
    [
        ("thread", spec(Strategy::DllThread).with("share", "off"), 1),
        (
            "process-control",
            spec(Strategy::ProcessControl).with("share", "off"),
            1,
        ),
        ("shared hub", spec(Strategy::DllThread), 2),
        (
            "ring",
            spec(Strategy::DllThread)
                .with("batch", "on")
                .with("ring_depth", "4"),
            1,
        ),
        (
            "shared ring",
            spec(Strategy::DllThread)
                .with("batch", "on")
                .with("ring_depth", "4"),
            2,
        ),
        ("dll-only", spec(Strategy::DllOnly), 1),
    ]
}

/// Runs `WriteFile` on the first of `sessions` handles, then
/// `SetFilePointer` → `ReadFile` on the last, on `/w.af` with telemetry
/// on, and returns the spans.
fn write_seek_read(world: &AfsWorld, sessions: usize) -> Vec<SpanRecord> {
    let _g = clock::install(0);
    world.telemetry().set_enabled(true);
    let api = world.api();
    let handles: Vec<_> = (0..sessions)
        .map(|_| {
            api.create_file("/w.af", Access::read_write(), Disposition::OpenExisting)
                .expect("open")
        })
        .collect();
    let (writer, reader) = (handles[0], handles[sessions - 1]);
    api.write_file(writer, b"data").expect("write");
    api.set_file_pointer(reader, 0, SeekMethod::Begin)
        .expect("seek");
    let mut buf = [0u8; 4];
    api.read_file(reader, &mut buf).expect("read");
    assert_eq!(&buf, b"data", "the read returns the posted write");
    for h in handles {
        api.close_handle(h).expect("close");
    }
    world.quiesce();
    world.telemetry().spans()
}

/// The one span named `name` on `layer`.
fn only<'a>(spans: &'a [SpanRecord], layer: Layer, name: &str, carrier: &str) -> &'a SpanRecord {
    let found: Vec<_> = spans
        .iter()
        .filter(|s| s.layer == layer && s.name == name)
        .collect();
    assert_eq!(found.len(), 1, "{carrier}: one {name} span: {spans:#?}");
    found[0]
}

#[test]
fn a_posted_write_is_served_in_its_own_trace_on_every_carrier() {
    // The sentinel runs a posted write only once the application has
    // moved on to its next op; the trace that write joins is the one its
    // frame carried, not whichever op is in flight when it is served.
    let mut wrong = Vec::new();
    let null = |strategy| SentinelSpec::new("null", strategy).backing(Backing::Memory);
    for (carrier, spec, sessions) in write_carriers(null) {
        let world = AfsWorld::new();
        register_standard_sentinels(&world);
        world.install_active_file("/w.af", &spec).expect("install");
        let spans = write_seek_read(&world, sessions);
        let root = only(&spans, Layer::Interpose, "WriteFile", carrier);
        let send = only(&spans, Layer::Transport, "send", carrier);
        let write = only(&spans, Layer::Sentinel, "write", carrier);
        assert_eq!(send.trace, root.trace, "{carrier}: send is the op's");
        if (write.trace, write.parent) != (root.trace, send.id) {
            wrong.push(format!(
                "null/{carrier}: write under {}",
                name_of(&spans, write.parent)
            ));
        }
    }

    // The server side of a write joins it through the sentinel's span.
    let mirror = |strategy| {
        SentinelSpec::new("mirror", strategy)
            .backing(Backing::Memory)
            .with("service", "files")
            .with("remote", "/blob")
    };
    for (carrier, spec, sessions) in write_carriers(mirror) {
        let world = AfsWorld::new();
        register_standard_sentinels(&world);
        let server = FileServer::new();
        server.seed("/blob", b"remote body");
        world.net().register("files", server as Arc<dyn Service>);
        world.install_active_file("/w.af", &spec).expect("install");
        let spans = write_seek_read(&world, sessions);
        let root = only(&spans, Layer::Interpose, "WriteFile", carrier);
        let put = only(&spans, Layer::Backend, "remote-put-async", carrier);
        if put.trace != root.trace {
            wrong.push(format!("mirror/{carrier}: put in trace #{}", put.trace));
        }
    }
    assert!(
        wrong.is_empty(),
        "writes served in another op's trace: {wrong:#?}"
    );
}

/// The name of the span with id `id` and the root of its trace, as
/// `name (in <root>)`.
fn name_of(spans: &[SpanRecord], id: u64) -> String {
    let find = |id| spans.iter().find(|s| s.id == id);
    match find(id) {
        Some(s) => format!("{} (in {})", s.name, find(s.trace).map_or("?", |r| r.name)),
        None => format!("#{id}"),
    }
}

/// What `delta`'s counters cost under `model`: every charge the read made.
fn priced(model: &CostModel, delta: &CostSnapshot) -> u64 {
    assert_eq!((delta.disk_accesses, delta.disk_bytes), (0, 0), "no disk");
    model.price(Cost::Syscall) * delta.syscalls
        + model.price(Cost::ProcessSwitch) * delta.process_switches
        + model.price(Cost::ThreadSwitch) * delta.thread_switches
        + model.price(Cost::Memcpy {
            bytes: delta.memcpy_bytes as usize,
        })
        + model.price(Cost::PipeCopy {
            bytes: delta.pipe_copy_bytes as usize,
        })
        + model.price(Cost::PipeMessage) * delta.pipe_messages
        + model.price(Cost::NetRoundTrip) * delta.net_round_trips
        + model.price(Cost::NetBytes {
            bytes: delta.net_bytes as usize,
        })
        + model.price(Cost::EventSignal) * delta.event_signals
}

#[test]
fn a_refused_fleet_read_is_one_trace_from_read_file_to_the_replica() {
    let world = AfsWorld::builder()
        .profile(HardwareProfile::pentium_ii_300())
        .build();
    register_standard_sentinels(&world);
    let net = world.net();
    let fleet = Fleet::new(2);
    for i in 0..3 {
        let name = format!("files-{i}");
        net.register(&name, FileServer::new() as Arc<dyn Service>);
        fleet.add_node(&name);
    }
    net.register_fleet("fleet", fleet);
    world
        .install_active_file(
            "/m.af",
            &SentinelSpec::new("mirror", Strategy::DllOnly)
                .with("service", "fleet")
                .with("remote", "/data/x.af")
                .with("staleness_ms", "2"),
        )
        .expect("install");
    let _g = clock::install(0);
    let api = world.api();
    let h = api
        .create_file("/m.af", Access::read_write(), Disposition::OpenExisting)
        .expect("open");
    // One acknowledged write whose replication cast the replica misses,
    // then the primary goes: the only reachable copy is behind the
    // session's floor.
    let owners = FileClient::new(net.endpoint(["fleet"])).owners("/data/x.af");
    net.plan(&owners[1]).expect("replica plan").drop_next(1);
    assert_eq!(api.write_file(h, b"acked").expect("write"), 5);
    net.plan(&owners[0])
        .expect("primary plan")
        .set_partitioned(true);
    api.set_file_pointer(h, 0, SeekMethod::Begin).expect("seek");

    world.telemetry().set_enabled(true);
    let (before, charged) = (clock::now(), world.model().snapshot());
    let mut buf = [0u8; 5];
    assert_eq!(api.read_file(h, &mut buf), Err(Win32Error::NetworkError));
    let charges = priced(world.model(), &world.model().snapshot().since(&charged));
    assert_eq!(
        clock::now() - before,
        charges + 2_000_000,
        "the read waited out exactly its 2 ms budget beyond what it was charged"
    );
    api.close_handle(h).expect("close");

    let spans = world.telemetry().spans();
    let root = spans
        .iter()
        .find(|s| s.name == "ReadFile" && s.parent == 0)
        .expect("interpose root span");
    let trace: Vec<&SpanRecord> = spans.iter().filter(|s| s.trace == root.trace).collect();
    for s in &trace {
        assert!(
            s.id == root.id || trace.iter().any(|p| p.id == s.parent),
            "span {}#{} dangles outside the causal chain: {trace:#?}",
            s.name,
            s.id
        );
    }
    // The chain from the refusal up to the application's call.
    let reject = trace
        .iter()
        .find(|s| s.name == "stale-reject")
        .expect("the refusal is a span");
    assert_eq!(
        reject.note,
        format!("cause=stale owner={} floor=1", owners[1]),
        "the reject names the replica that refused and the floor it missed"
    );
    let mut chain = vec![reject.name];
    let mut at = reject.parent;
    while at != 0 {
        let parent = trace.iter().find(|s| s.id == at).expect("parent in trace");
        chain.push(parent.name);
        at = parent.parent;
    }
    assert_eq!(chain.first(), Some(&"stale-reject"));
    assert_eq!(chain.last(), Some(&"ReadFile"), "{chain:?}");
    assert!(chain.contains(&"remote-get"), "{chain:?}");
    let sentinel = trace.iter().find(|s| s.layer == Layer::Sentinel);
    assert!(
        sentinel.is_some_and(|s| chain.contains(&s.name)),
        "the mirror's sentinel span is on the chain: {chain:?}"
    );
    let count = |name: &str| trace.iter().filter(|s| s.name == name).count();
    assert_eq!(count("stale-wait"), 2, "two 1 ms waits: {trace:#?}");
    assert_eq!(count("stale-reject"), 1);
    let get = trace.iter().find(|s| s.name == "remote-get").expect("get");
    assert!(
        trace
            .iter()
            .filter(|s| s.name.starts_with("stale-"))
            .all(|s| s.parent == get.id && s.layer == Layer::Retry),
        "the waits and the reject are the get's retry children: {trace:#?}"
    );
    assert_eq!(world.telemetry().cluster().snapshot().stale_rejects, 1);
}
