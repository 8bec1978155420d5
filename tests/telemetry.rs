//! End-to-end telemetry: every application-visible operation on an active
//! file yields a span tree covering the interposition chain (interpose >
//! strategy > transport, plus sentinel/backend layers where the strategy
//! has them), the latency histograms agree with the op trace, and the
//! exporters emit valid, non-empty documents.

use std::sync::Arc;

use activefiles::prelude::*;
use activefiles::{
    chrome_trace, json_is_valid, json_snapshot, prometheus_text, FileServer, Layer, Service,
    SpanRecord,
};

const ALL_STRATEGIES: [Strategy; 4] = [
    Strategy::Process,
    Strategy::ProcessControl,
    Strategy::DllThread,
    Strategy::DllOnly,
];

/// A world with one memory-backed null active file under `strategy`.
fn world_with(strategy: Strategy) -> (AfsWorld, &'static str) {
    let w = AfsWorld::new();
    register_standard_sentinels(&w);
    w.install_active_file(
        "/t.af",
        &SentinelSpec::new("null", strategy).backing(Backing::Memory),
    )
    .expect("install");
    let api = w.api();
    let h = api
        .create_file("/t.af", Access::read_write(), Disposition::OpenExisting)
        .expect("seed open");
    api.write_file(h, b"telemetry payload").expect("seed");
    api.close_handle(h).expect("seed close");
    (w, "/t.af")
}

/// Spans of the subtree rooted at `root`, found by walking parent links.
fn subtree<'a>(spans: &'a [SpanRecord], root: &'a SpanRecord) -> Vec<&'a SpanRecord> {
    let mut keep: Vec<&SpanRecord> = vec![root];
    let mut grew = true;
    while grew {
        grew = false;
        for s in spans {
            if keep.iter().any(|k| k.id == s.parent) && !keep.iter().any(|k| k.id == s.id) {
                keep.push(s);
                grew = true;
            }
        }
    }
    keep
}

#[test]
fn single_read_yields_a_span_tree_of_at_least_three_layers() {
    for strategy in ALL_STRATEGIES {
        let (w, file) = world_with(strategy);
        w.telemetry().set_enabled(true);
        let api = w.api();
        let h = api
            .create_file(file, Access::read_only(), Disposition::OpenExisting)
            .expect("open");
        let mut buf = [0u8; 8];
        assert_eq!(api.read_file(h, &mut buf).expect("read"), 8);
        let spans = w.telemetry().spans();
        let root = spans
            .iter()
            .find(|s| s.name == "ReadFile")
            .unwrap_or_else(|| panic!("{strategy:?}: interpose root span recorded"));
        assert_eq!(root.parent, 0, "{strategy:?}: ReadFile is a root");
        assert_eq!(root.layer, Layer::Interpose);
        let tree = subtree(&spans, root);
        let mut layers: Vec<&str> = tree.iter().map(|s| s.layer.label()).collect();
        layers.sort_unstable();
        layers.dedup();
        assert!(
            layers.len() >= 3,
            "{strategy:?}: read tree spans >= 3 layers, got {layers:?}"
        );
        assert!(layers.contains(&"strategy") && layers.contains(&"transport"));
        api.close_handle(h).expect("close");
    }
}

#[test]
fn children_close_within_their_parents() {
    // Containment is checked for read-driven spans: write-behind sentinel
    // work is *attributed* to the strategy span via the scope cell but may
    // drain after it closes, and §4.1 pump chunks are deliberate roots.
    for strategy in ALL_STRATEGIES {
        let (w, file) = world_with(strategy);
        w.telemetry().set_enabled(true);
        let api = w.api();
        let h = api
            .create_file(file, Access::read_only(), Disposition::OpenExisting)
            .expect("open");
        let mut buf = [0u8; 4];
        for _ in 0..3 {
            api.read_file(h, &mut buf).expect("read");
        }
        let spans = w.telemetry().spans();
        let read_roots: Vec<&SpanRecord> = spans
            .iter()
            .filter(|s| s.name == "ReadFile" && s.parent == 0)
            .collect();
        assert_eq!(read_roots.len(), 3, "{strategy:?}: one root per ReadFile");
        for root in read_roots {
            for child in subtree(&spans, root) {
                if child.id == root.id || child.thread != root.thread {
                    continue;
                }
                assert!(
                    child.start >= root.start && child.end <= root.end,
                    "{strategy:?}: same-thread child {} [{}, {}] inside root [{}, {}]",
                    child.name,
                    child.start,
                    child.end,
                    root.start,
                    root.end,
                );
            }
        }
        api.close_handle(h).expect("close");
    }
}

#[test]
fn strategy_span_counts_match_the_op_trace() {
    for strategy in ALL_STRATEGIES {
        let (w, file) = world_with(strategy);
        // Seeding ran with telemetry off but was traced; start both
        // observers from zero so the counts are comparable.
        w.trace().clear();
        w.telemetry().set_enabled(true);
        let api = w.api();
        let h = api
            .create_file(file, Access::read_write(), Disposition::OpenExisting)
            .expect("open");
        let mut buf = [0u8; 4];
        for _ in 0..5 {
            api.read_file(h, &mut buf).expect("read");
        }
        api.write_file(h, b"x").expect("write");
        if strategy != Strategy::Process {
            // §4.1 has no control lane, so size queries are unsupported.
            api.get_file_size(h).expect("size");
        }
        api.close_handle(h).expect("close");
        let traced: u64 = w.trace().summary().iter().map(|row| row.count).sum();
        let strategy_spans = w
            .telemetry()
            .spans()
            .iter()
            .filter(|s| s.layer == Layer::Strategy)
            .count() as u64;
        assert_eq!(
            strategy_spans, traced,
            "{strategy:?}: one strategy span per traced op"
        );
        // The histograms agree too: total samples == traced ops.
        let hist_samples: u64 = w
            .telemetry()
            .strategy_hist_snapshots()
            .iter()
            .map(|(_, h)| h.count)
            .sum();
        assert_eq!(hist_samples, traced, "{strategy:?}: histogram coverage");
    }
}

#[test]
fn exporters_emit_valid_non_empty_documents() {
    let (w, file) = world_with(Strategy::DllThread);
    w.telemetry().set_enabled(true);
    let api = w.api();
    let h = api
        .create_file(file, Access::read_only(), Disposition::OpenExisting)
        .expect("open");
    let mut buf = [0u8; 16];
    api.read_file(h, &mut buf).expect("read");
    api.close_handle(h).expect("close");

    let snapshot = w.metrics().snapshot();
    let prom = prometheus_text(&snapshot);
    assert!(prom.contains("afs_ops_total{"), "{prom}");
    assert!(prom.contains("afs_op_latency_ns_count{"), "{prom}");
    assert!(prom.contains("quantile=\"0.99\""), "{prom}");
    let json = json_snapshot(&snapshot);
    assert!(json_is_valid(&json), "snapshot JSON parses: {json}");

    let trace = chrome_trace(&[("Thread", w.telemetry().spans())]);
    assert!(json_is_valid(&trace), "chrome trace parses");
    assert!(
        trace.contains("ReadFile") && trace.contains("\"ph\""),
        "chrome trace carries span events: {trace}"
    );
}

#[test]
fn disabled_telemetry_records_nothing() {
    let (w, file) = world_with(Strategy::ProcessControl);
    // Never enabled: the default world must stay span-free.
    let api = w.api();
    let h = api
        .create_file(file, Access::read_write(), Disposition::OpenExisting)
        .expect("open");
    let mut buf = [0u8; 8];
    api.read_file(h, &mut buf).expect("read");
    api.write_file(h, b"y").expect("write");
    api.close_handle(h).expect("close");
    assert_eq!(w.telemetry().span_count(), 0);
    // Histograms are registered eagerly per handle but must hold no
    // samples while telemetry is off.
    assert!(w
        .telemetry()
        .strategy_hist_snapshots()
        .iter()
        .all(|(_, h)| h.count == 0));
    // The op trace is independent of telemetry and still sees the ops.
    assert!(!w.trace().summary().is_empty());
}

#[test]
fn slow_ops_carry_their_ancestry() {
    let (w, file) = world_with(Strategy::DllOnly);
    w.telemetry().set_enabled(true);
    w.telemetry().set_slow_threshold_ns(1);
    let api = w.api();
    let h = api
        .create_file(file, Access::read_only(), Disposition::OpenExisting)
        .expect("open");
    let mut buf = [0u8; 8];
    api.read_file(h, &mut buf).expect("read");
    api.close_handle(h).expect("close");
    let slow = w.telemetry().slow_ops();
    assert!(!slow.is_empty(), "1 ns threshold flags every op");
    let nested = slow
        .iter()
        .find(|s| s.ancestry.contains('>'))
        .expect("some slow span has ancestors");
    assert!(
        nested.ancestry.starts_with("ReadFile") || nested.ancestry.starts_with("CloseHandle"),
        "ancestry is rendered outermost-first: {}",
        nested.ancestry
    );
}

#[test]
fn slow_ops_across_mux_sessions_name_their_session_and_file() {
    // Two concurrent opens of one shared (mux) active file are two
    // sessions over one sentinel; a slow-op report must say *which*
    // session and file the slow sentinel work belonged to, rendered as a
    // `name[session=N file=...]` hop in the ancestry chain.
    let (w, file) = world_with(Strategy::DllThread);
    w.telemetry().set_enabled(true);
    w.telemetry().set_slow_threshold_ns(1);
    let api = w.api();
    let h1 = api
        .create_file(file, Access::read_only(), Disposition::OpenExisting)
        .expect("open session 1");
    let h2 = api
        .create_file(file, Access::read_only(), Disposition::OpenExisting)
        .expect("open session 2");
    let mut buf = [0u8; 8];
    api.read_file(h1, &mut buf).expect("read 1");
    api.read_file(h2, &mut buf).expect("read 2");
    api.close_handle(h1).expect("close 1");
    api.close_handle(h2).expect("close 2");

    let slow = w.telemetry().slow_ops();
    let tagged: Vec<&str> = slow
        .iter()
        .map(|s| s.ancestry.as_str())
        .filter(|a| a.contains("session="))
        .collect();
    assert!(
        !tagged.is_empty(),
        "mux sentinel spans carry session notes: {slow:#?}"
    );
    let file_tag = format!("file={file}");
    assert!(
        tagged.iter().all(|a| a.contains(&file_tag)),
        "every session-tagged report names the owning file: {tagged:#?}"
    );
    let sessions: std::collections::BTreeSet<&str> = tagged
        .iter()
        .filter_map(|a| {
            let rest = &a[a.find("session=")? + "session=".len()..];
            Some(rest.split([' ', ']']).next().unwrap_or(rest))
        })
        .collect();
    assert!(
        sessions.len() >= 2,
        "both sessions show up in the slow-op reports: {sessions:?}"
    );
    // The shared sentinel's resource accounting saw the ops too.
    assert!(
        w.telemetry()
            .sentinel_stats_snapshots()
            .iter()
            .any(|(name, s)| *name == "null" && s.ops > 0),
        "per-sentinel stats counted the mux traffic"
    );
}

#[test]
fn exported_span_trace_covers_the_interposition_chain() {
    // The CI gate formerly validated `figure6 --spans` output with a
    // python script; this is the same check in-tree. The exported
    // chrome-trace document must parse, carry complete ("ph": "X") span
    // events, and cover at least the interpose, strategy, and transport
    // layers across the four-strategy sweep.
    let trace = afs_bench::span_trace(20, activefiles::HardwareProfile::pentium_ii_300());
    assert!(json_is_valid(&trace), "chrome trace parses: {trace}");
    let root = afs_bench::gate::json::parse(&trace).expect("chrome trace JSON");
    let events = root.as_array().expect("trace is an event array");
    let spans: Vec<_> = events
        .iter()
        .filter_map(|e| e.as_object())
        .filter(|e| e.get("ph").and_then(|v| v.as_str()) == Some("X"))
        .collect();
    assert!(!spans.is_empty(), "no span events emitted");
    let layers: std::collections::BTreeSet<&str> = spans
        .iter()
        .filter_map(|e| e.get("cat").and_then(|v| v.as_str()))
        .collect();
    for required in ["interpose", "strategy", "transport"] {
        assert!(
            layers.contains(required),
            "span layers {layers:?} missing {required}"
        );
    }
}

#[test]
fn remote_reads_reach_the_backend_layer() {
    let w = AfsWorld::new();
    register_standard_sentinels(&w);
    let server = FileServer::new();
    server.seed("/doc", b"remote body");
    w.net()
        .register("files", Arc::clone(&server) as Arc<dyn Service>);
    w.install_active_file(
        "/r.af",
        &SentinelSpec::new("remote-file", Strategy::DllThread)
            .backing(Backing::Memory)
            .with("service", "files")
            .with("remote", "/doc"),
    )
    .expect("install");
    w.telemetry().set_enabled(true);
    let api = w.api();
    let h = api
        .create_file("/r.af", Access::read_write(), Disposition::OpenExisting)
        .expect("open");
    let mut buf = [0u8; 11];
    api.read_file(h, &mut buf).expect("read");
    api.write_file(h, b"edit").expect("write");
    // Flush pushes the dirty cache to the remote inside the sentinel's
    // dispatch frame, so the remote call shows up as a backend span.
    api.flush_file_buffers(h).expect("flush");
    api.close_handle(h).expect("close");
    let spans = w.telemetry().spans();
    assert!(
        spans
            .iter()
            .any(|s| s.layer == Layer::Backend && s.name.starts_with("remote-")),
        "remote write-back shows up as a backend span"
    );
    assert!(
        spans
            .iter()
            .any(|s| s.layer == Layer::Backend && s.name.starts_with("cache-")),
        "cache hits show up as backend spans"
    );
}

// ---- the declared metric families ------------------------------------------

/// `(exported name, kind)` of every declared family metric, family by
/// family in export order — read off the declarations, not retyped.
fn declared_families() -> Vec<(&'static str, &'static str)> {
    use afs_telemetry::{
        ClusterSnapshot, FleetSnapshot, RingSnapshot, SessionSnapshot, StoreSnapshot,
    };
    [
        activefiles::ReliabilitySnapshot::METRICS,
        activefiles::GaugesSnapshot::METRICS,
        SessionSnapshot::METRICS,
        FleetSnapshot::METRICS,
        StoreSnapshot::METRICS,
        RingSnapshot::METRICS,
        ClusterSnapshot::METRICS,
        activefiles::SentinelStatsSnapshot::METRICS,
    ]
    .concat()
}

/// The names `register_world_collectors` exported for the eight families
/// before they were declared as tables, in its order, plus the one the
/// hand-copied list had dropped (`afs_fleet_pinned_total`). Nothing else
/// may move.
const GOLDEN_FAMILY_NAMES: [&str; 58] = [
    "afs_retries_total",
    "afs_failovers_total",
    "afs_breaker_trips_total",
    "afs_breaker_rejections_total",
    "afs_degraded_reads_total",
    "afs_queued_writes_total",
    "afs_replayed_writes_total",
    "afs_pipe_buffered_bytes",
    "afs_pipe_buffered_peak_bytes",
    "afs_pipe_queue_messages_total",
    "afs_shm_pending_slots",
    "afs_shm_messages_total",
    "afs_pool_reuses_total",
    "afs_pool_allocations_total",
    "afs_sessions_current",
    "afs_sessions_peak",
    "afs_session_attaches_total",
    "afs_coalesced_writes_total",
    "afs_batch_flushes_total",
    "afs_fleet_sentinels",
    "afs_fleet_sentinels_peak",
    "afs_fleet_spawned_total",
    "afs_fleet_polls_total",
    "afs_fleet_steals_total",
    "afs_fleet_wakeups_total",
    "afs_fleet_parks_total",
    "afs_fleet_queue_depth_peak",
    "afs_fleet_workers",
    "afs_fleet_shards",
    "afs_fleet_abandoned_total",
    "afs_fleet_pinned_total",
    "afs_store_wal_appends_total",
    "afs_store_wal_bytes_total",
    "afs_store_fsyncs_total",
    "afs_store_commits_total",
    "afs_store_checkpoints_total",
    "afs_store_recovered_records_total",
    "afs_store_torn_detected_total",
    "afs_ring_batches_total",
    "afs_ring_ops_submitted_total",
    "afs_ring_occupancy_peak",
    "afs_ring_completions_total",
    "afs_ring_completions_out_of_order_total",
    "afs_ring_readahead_hits_total",
    "afs_cluster_writes_total",
    "afs_cluster_replications_total",
    "afs_cluster_replication_failures_total",
    "afs_cluster_reads_total",
    "afs_cluster_read_failovers_total",
    "afs_cluster_stale_waits_total",
    "afs_cluster_stale_rejects_total",
    "afs_cluster_nodes",
    "afs_cluster_rebalances_total",
    "afs_sentinel_ops_total",
    "afs_sentinel_errors_total",
    "afs_sentinel_bytes_in_total",
    "afs_sentinel_bytes_out_total",
    "afs_sentinel_queue_depth_peak",
];

/// Names exported by the collectors that are not families: their label
/// sets (or their very presence) depend on what ran.
const DYNAMIC_PREFIXES: [&str; 8] = [
    "afs_cost_",
    "afs_net_dropped_total",
    "afs_ops_total",
    "afs_op_",
    "afs_spans_total",
    "afs_sentinel_latency_ns",
    "afs_flight_",
    "afs_slo_",
];

/// A small workload that touches every layer a family counts: two shared
/// sessions over shared memory, a kernel-pipe sentinel, a batched ring, a
/// durable store, an SLO-tracked file, and a §3 composition open.
fn mixed_workload() -> AfsWorld {
    let w = AfsWorld::new();
    register_standard_sentinels(&w);
    let null = |strategy| SentinelSpec::new("null", strategy).backing(Backing::Memory);
    for (path, spec) in [
        ("/shared.af", null(Strategy::DllThread)),
        ("/pipes.af", null(Strategy::ProcessControl)),
        (
            "/ring.af",
            null(Strategy::DllThread)
                .with("batch", "on")
                .with("ring_depth", "4"),
        ),
        (
            "/ledger.af",
            null(Strategy::DllOnly)
                .with("durable", "on")
                .with("slo_p99_us", "1000"),
        ),
        ("/inner.af", null(Strategy::DllThread)),
        (
            "/outer.af",
            SentinelSpec::new("relay", Strategy::DllThread).with("target", "/inner.af"),
        ),
    ] {
        w.install_active_file(path, &spec).expect("install");
    }
    w.telemetry().set_enabled(true);
    let api = w.api();
    let open = |path| {
        api.create_file(path, Access::read_write(), Disposition::OpenExisting)
            .expect("open")
    };
    let (a, b) = (open("/shared.af"), open("/shared.af"));
    let mut buf = [0u8; 8];
    let rest = ["/pipes.af", "/ring.af", "/ledger.af", "/outer.af"].map(open);
    for h in [a, b].into_iter().chain(rest) {
        api.write_file(h, b"mixed workload").expect("write");
        api.set_file_pointer(h, 0, SeekMethod::Begin).expect("seek");
        api.read_file(h, &mut buf).expect("read");
        api.read_file(h, &mut buf[..4]).expect("read on");
        api.close_handle(h).expect("close");
    }
    w
}

#[test]
fn every_declared_metric_is_exported_once_with_its_kind() {
    use activefiles::MetricValue;
    let declared = declared_families();
    assert_eq!(
        declared.iter().map(|d| d.0).collect::<Vec<_>>(),
        GOLDEN_FAMILY_NAMES,
        "family declarations: names and export order"
    );
    let w = mixed_workload();
    let snapshot = w.metrics().snapshot();
    // Exported family series, in export order, follow the declarations:
    // once per family, once per sentinel for the labelled one.
    let exported: Vec<&activefiles::Metric> = snapshot
        .iter()
        .filter(|m| declared.iter().any(|d| d.0 == m.name))
        .collect();
    let sentinels: Vec<&str> = w
        .telemetry()
        .sentinel_stats_snapshots()
        .iter()
        .map(|(name, _)| *name)
        .collect();
    assert!(sentinels.contains(&"null") && sentinels.contains(&"relay"));
    let per_sentinel = activefiles::SentinelStatsSnapshot::METRICS.len();
    let (unlabelled, labelled) = declared.split_at(declared.len() - per_sentinel);
    // One `name kind sentinel` line per expected series.
    let mut want: Vec<String> = unlabelled
        .iter()
        .map(|(name, kind)| format!("{name} {kind} -"))
        .collect();
    for sentinel in &sentinels {
        for (name, kind) in labelled {
            want.push(format!("{name} {kind} {sentinel}"));
        }
    }
    let got: Vec<String> = exported
        .iter()
        .map(|m| {
            let kind = match m.value {
                MetricValue::Counter(_) => "counter",
                MetricValue::Gauge(_) => "gauge",
                MetricValue::Summary(_) => "summary",
            };
            let sentinel = match m.labels.as_slice() {
                [] => "-",
                [("sentinel", name)] => name,
                other => panic!("{}: unexpected labels {other:?}", m.name),
            };
            format!("{} {kind} {sentinel}", m.name)
        })
        .collect();
    assert_eq!(got, want);

    // Every exported `afs_*` name is a declared family metric or comes
    // from one of the few dynamic collectors — nothing is exported that
    // no table and no list accounts for.
    let prom = prometheus_text(&snapshot);
    for line in prom.lines() {
        let name = line.split(['{', ' ']).next().expect("series name");
        assert!(
            declared.iter().any(|d| d.0 == name)
                || DYNAMIC_PREFIXES.iter().any(|p| name.starts_with(p)),
            "`{name}` is exported but declared nowhere"
        );
    }
    for prefix in DYNAMIC_PREFIXES {
        assert!(prom.contains(prefix), "dynamic collector {prefix}* ran");
    }
}

#[test]
fn family_values_reach_the_export() {
    let value = |w: &AfsWorld, name: &str| {
        let hits: Vec<u64> = w
            .metrics()
            .snapshot()
            .iter()
            .filter(|m| m.name == name && m.labels.is_empty())
            .map(|m| match m.value {
                activefiles::MetricValue::Counter(v) | activefiles::MetricValue::Gauge(v) => v,
                activefiles::MetricValue::Summary(_) => panic!("{name} is a summary"),
            })
            .collect();
        assert_eq!(hits.len(), 1, "{name} exported once");
        hits[0]
    };
    // A plain open pins nothing …
    let (plain, file) = world_with(Strategy::DllThread);
    let h = plain
        .api()
        .create_file(file, Access::read_only(), Disposition::OpenExisting)
        .expect("open");
    plain.api().close_handle(h).expect("close");
    assert_eq!(value(&plain, "afs_fleet_pinned_total"), 0);
    // … a §3 composition open (the relay sentinel opening `/inner.af`
    // through its ctx's API) pins exactly the one sentinel it spawned.
    let w = mixed_workload();
    assert_eq!(value(&w, "afs_fleet_pinned_total"), 1);
    assert_eq!(w.telemetry().fleet().snapshot().pinned, 1);
    // One spot check per family that the exported value is the snapshot
    // field of the same declaration line.
    let t = w.telemetry();
    assert_eq!(
        value(&w, "afs_session_attaches_total"),
        t.sessions().snapshot().attaches
    );
    assert!(
        t.sessions().snapshot().attaches >= 2,
        "two sessions on one sentinel"
    );
    assert_eq!(
        value(&w, "afs_shm_messages_total"),
        t.gauges().snapshot().shm_messages
    );
    assert!(value(&w, "afs_pipe_queue_messages_total") > 0);
    assert_eq!(
        value(&w, "afs_ring_batches_total"),
        t.rings().snapshot().batches
    );
    assert!(value(&w, "afs_ring_ops_submitted_total") > 0);
    assert_eq!(
        value(&w, "afs_store_commits_total"),
        t.store().snapshot().commits
    );
    assert!(value(&w, "afs_store_wal_appends_total") > 0);
    assert_eq!(
        value(&w, "afs_fleet_spawned_total"),
        t.fleet().snapshot().spawned
    );
    assert_eq!(
        value(&w, "afs_retries_total"),
        w.net().reliability().retries
    );
    assert_eq!(
        value(&w, "afs_cluster_nodes"),
        0,
        "no cluster in this world"
    );
}

/// A §4.4 read lands in the caller's buffer (the scatter in the handle's
/// own scratch): the sentinel side stages nothing, so no pooled buffer is
/// taken, reused or fresh.
#[test]
fn inline_reads_take_no_pooled_buffer() {
    let (w, file) = world_with(Strategy::DllOnly);
    let api = w.api();
    let h = api
        .create_file(file, Access::read_only(), Disposition::OpenExisting)
        .expect("open");
    let pooled = || {
        let gauges = w.telemetry().gauges().snapshot();
        gauges.pool_reuses + gauges.pool_allocations
    };
    let before = pooled();
    let rewind = || {
        api.set_file_pointer(h, 0, SeekMethod::Begin)
            .expect("rewind")
    };
    let mut buf = [0u8; 9];
    for _ in 0..100 {
        rewind();
        assert_eq!(api.read_file(h, &mut buf), Ok(9));
    }
    assert_eq!(&buf, b"telemetry");
    rewind();
    let (mut a, mut b) = ([0u8; 9], [0u8; 8]);
    let n = api.read_file_scatter(h, &mut [&mut a[..], &mut b[..]]);
    assert_eq!((n, &a, &b), (Ok(17), b"telemetry", b" payload"));
    assert_eq!(pooled(), before, "101 inline reads pooled nothing");
    api.close_handle(h).expect("close");
}

/// `docs/OBSERVABILITY.md`'s metric reference is the family declarations,
/// rendered: same names, same kinds, same order.
#[test]
fn observability_md_lists_exactly_the_declared_metrics() {
    let doc = include_str!("../docs/OBSERVABILITY.md");
    let listed: Vec<(&str, &str)> = doc
        .lines()
        .filter_map(|l| l.strip_prefix("| `afs_"))
        .filter_map(|l| {
            let (name, rest) = l.split_once("` | ")?;
            Some((name, rest.split(" |").next()?))
        })
        .collect();
    let declared = declared_families();
    assert_eq!(listed.len(), declared.len(), "one doc row per metric");
    for ((name, kind), (want_name, want_kind)) in listed.iter().zip(&declared) {
        assert_eq!(format!("afs_{name}"), *want_name);
        assert_eq!(kind, want_kind, "{want_name}");
    }
}
