//! World assembly: one call to stand up the whole simulated system.
//!
//! An [`AfsWorld`] owns the local file system, the network with its remote
//! services, the sentinel registry, the named-sync namespace, the cost
//! model, and a [`MediatingConnector`] with the active-files layer
//! installed **securely** (the application cannot undo the interception,
//! §4). Applications, tests, examples, and benches all talk to
//! [`AfsWorld::api`].

use std::sync::Arc;

use afs_interpose::{ApiLayer, MediatingConnector};
use afs_ipc::SyncRegistry;
use afs_net::Network;
use afs_sim::{CostModel, HardwareProfile, OpTrace};
use afs_telemetry::{Metric, MetricsRegistry, Telemetry};
use afs_vfs::{VPath, Vfs, ACTIVE_STREAM};
use afs_winapi::{PassiveFileApi, Win32Error};

use crate::afs::ActiveFilesLayer;
use crate::registry::SentinelRegistry;
use crate::spec::SentinelSpec;

/// Builder for [`AfsWorld`].
pub struct AfsWorldBuilder {
    profile: HardwareProfile,
    user: String,
    signing_key: Option<u64>,
    seed: Option<u64>,
    fleet_workers: Option<usize>,
    vfs: Option<Arc<Vfs>>,
}

impl Default for AfsWorldBuilder {
    fn default() -> Self {
        AfsWorldBuilder {
            profile: HardwareProfile::free(),
            user: "user".to_owned(),
            signing_key: None,
            seed: None,
            fleet_workers: None,
            vfs: None,
        }
    }
}

impl AfsWorldBuilder {
    /// Selects the hardware profile (default: [`HardwareProfile::free`],
    /// i.e. semantics-only).
    pub fn profile(mut self, profile: HardwareProfile) -> Self {
        self.profile = profile;
        self
    }

    /// Sets the user id sentinels run under (§2.3).
    pub fn user(mut self, user: &str) -> Self {
        self.user = user.to_owned();
        self
    }

    /// Enables the code-signing policy (§2.3 extension): only active
    /// files whose `:active` stream verifies against `key` may launch
    /// sentinels. Sign files with [`AfsWorld::sign_active_file`].
    pub fn require_signed(mut self, key: u64) -> Self {
        self.signing_key = Some(key);
        self
    }

    /// Sets the deterministic seed for every random decision in the world
    /// (fault schedules, retry jitter). When not set, the `AFS_TEST_SEED`
    /// environment variable is honoured, so CI can sweep seeds without
    /// code changes; the final fallback is a fixed default.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Bounds the sentinel executor at `workers` worker threads (the pool
    /// every §4.2/§4.3 and shared-mux sentinel is multiplexed over). When
    /// not set, the `AFS_FLEET_WORKERS` environment variable is honoured;
    /// the final fallback is one worker per core.
    pub fn fleet_workers(mut self, workers: usize) -> Self {
        self.fleet_workers = Some(workers);
        self
    }

    /// Reuses an existing file system instead of creating a fresh one —
    /// "the disk that survives the crash". Durability tests build a
    /// world, crash it (drop), and rebuild another over the same `vfs` to
    /// exercise recovery of active files' `store.*` streams.
    pub fn vfs(mut self, vfs: Arc<Vfs>) -> Self {
        self.vfs = Some(vfs);
        self
    }

    /// Builds the world.
    pub fn build(self) -> AfsWorld {
        let model = CostModel::new(self.profile);
        let vfs = self.vfs.unwrap_or_else(|| Arc::new(Vfs::new()));
        let net = Network::new(model.clone());
        // An explicit builder seed wins; otherwise `AFS_TEST_SEED` is
        // validated centrally — malformed values clamp to the default
        // with a stderr warning rather than being silently ignored.
        let seed = self.seed.unwrap_or_else(crate::env::test_seed_from_env);
        net.set_seed(seed);
        let registry = SentinelRegistry::new();
        crate::world::register_builtin(&registry);
        let sync = SyncRegistry::new();
        let passive = Arc::new(PassiveFileApi::new(Arc::clone(&vfs), model.clone()));
        let connector = MediatingConnector::new(passive);
        let mut layer = ActiveFilesLayer::new(
            Arc::clone(&vfs),
            net.clone(),
            registry.clone(),
            sync.clone(),
            model.clone(),
            &self.user,
        );
        if let Some(key) = self.signing_key {
            layer = layer.with_signing_key(key);
        }
        if let Some(workers) = self.fleet_workers {
            layer = layer.with_fleet_workers(workers);
        }
        let layer = Arc::new(layer);
        connector
            .install_secure(Arc::clone(&layer) as Arc<dyn ApiLayer>)
            .expect("fresh connector accepts the active-files layer");
        let metrics = MetricsRegistry::new();
        register_world_collectors(
            &metrics,
            model.clone(),
            net.clone(),
            Arc::clone(layer.trace()),
            Arc::clone(layer.telemetry()),
        );
        AfsWorld {
            vfs,
            net,
            registry,
            sync,
            model,
            connector,
            layer,
            metrics,
            user: self.user,
        }
    }
}

/// Registers the world's standard collectors: cost-model counters, the
/// per-(strategy, op) trace aggregates, the telemetry latency summaries,
/// flight-recorder and SLO series, and the eight declared counter
/// families — each of which names its own metrics (see
/// `afs_telemetry::metric_family!`), so none is named here.
fn register_world_collectors(
    metrics: &MetricsRegistry,
    model: CostModel,
    net: Network,
    trace: Arc<OpTrace>,
    telemetry: Arc<Telemetry>,
) {
    metrics.register(move |out| {
        net.reliability().metrics(&[], out);
        let net_stats = net.stats();
        out.push(Metric::counter("afs_net_dropped_total", net_stats.dropped));
    });
    metrics.register(move |out| {
        let snap = model.snapshot();
        out.push(Metric::counter("afs_cost_syscalls_total", snap.syscalls));
        out.push(Metric::counter(
            "afs_cost_process_switches_total",
            snap.process_switches,
        ));
        out.push(Metric::counter(
            "afs_cost_thread_switches_total",
            snap.thread_switches,
        ));
        out.push(Metric::counter("afs_cost_copies_total", snap.copies));
        out.push(Metric::counter(
            "afs_cost_memcpy_bytes_total",
            snap.memcpy_bytes,
        ));
        out.push(Metric::counter(
            "afs_cost_pipe_copy_bytes_total",
            snap.pipe_copy_bytes,
        ));
        out.push(Metric::counter(
            "afs_cost_pipe_messages_total",
            snap.pipe_messages,
        ));
        out.push(Metric::counter(
            "afs_cost_event_signals_total",
            snap.event_signals,
        ));
        out.push(Metric::counter(
            "afs_cost_net_round_trips_total",
            snap.net_round_trips,
        ));
        out.push(Metric::counter("afs_cost_net_bytes_total", snap.net_bytes));
        out.push(Metric::counter(
            "afs_cost_disk_accesses_total",
            snap.disk_accesses,
        ));
    });
    metrics.register(move |out| {
        for row in trace.summary() {
            let tag = |m: Metric| {
                m.label("strategy", row.strategy)
                    .label("op", row.op.label())
            };
            out.push(tag(Metric::counter("afs_ops_total", row.count)));
            out.push(tag(Metric::counter("afs_op_bytes_total", row.bytes)));
            out.push(tag(Metric::counter(
                "afs_op_virtual_ns_total",
                row.elapsed_ns,
            )));
            out.push(tag(Metric::counter(
                "afs_op_crossings_total",
                row.crossings,
            )));
            out.push(tag(Metric::counter("afs_op_copies_total", row.copies)));
        }
    });
    metrics.register(move |out| {
        out.push(Metric::counter("afs_spans_total", telemetry.span_count()));
        for ((strategy, op), snap) in telemetry.strategy_hist_snapshots() {
            out.push(
                Metric::summary("afs_op_latency_ns", snap)
                    .label("strategy", strategy)
                    .label("op", op),
            );
        }
        for (sentinel, snap) in telemetry.sentinel_hist_snapshots() {
            out.push(Metric::summary("afs_sentinel_latency_ns", snap).label("sentinel", sentinel));
        }
        telemetry.gauges().snapshot().metrics(&[], out);
        telemetry.sessions().snapshot().metrics(&[], out);
        telemetry.fleet().snapshot().metrics(&[], out);
        telemetry.store().snapshot().metrics(&[], out);
        telemetry.rings().snapshot().metrics(&[], out);
        telemetry.cluster().snapshot().metrics(&[], out);
        out.push(Metric::counter(
            "afs_flight_triggers_total",
            telemetry.flight().trigger_count(),
        ));
        out.push(Metric::gauge(
            "afs_flight_bundles",
            telemetry.flight().bundles().len() as u64,
        ));
        for slo in telemetry.slo_trackers() {
            let s = slo.snapshot();
            let tag = |m: Metric| m.label("file", s.file).label("sentinel", s.sentinel);
            out.push(tag(Metric::counter("afs_slo_ops_total", s.ops)));
            out.push(tag(Metric::counter("afs_slo_errors_total", s.errors)));
            out.push(tag(Metric::counter(
                "afs_slo_latency_breaches_total",
                s.lat_breaches,
            )));
            if let Some(p99) = s.spec.p99_ns {
                out.push(tag(Metric::gauge("afs_slo_latency_target_ns", p99)));
            }
            if let Some(ppm) = s.spec.err_ppm {
                out.push(tag(Metric::gauge(
                    "afs_slo_error_budget_ppm",
                    u64::from(ppm),
                )));
            }
            for (window, rates) in [("short", &s.short), ("long", &s.long)] {
                out.push(
                    tag(Metric::gauge(
                        "afs_slo_latency_burn_milli",
                        rates.latency_milli,
                    ))
                    .label("window", window),
                );
                out.push(
                    tag(Metric::gauge("afs_slo_error_burn_milli", rates.error_milli))
                        .label("window", window),
                );
            }
        }
        for (sentinel, stats) in telemetry.sentinel_stats_snapshots() {
            stats.metrics(&[("sentinel", sentinel)], out);
        }
    });
}

/// A fully wired simulated system.
pub struct AfsWorld {
    vfs: Arc<Vfs>,
    net: Network,
    registry: SentinelRegistry,
    sync: SyncRegistry,
    model: CostModel,
    connector: MediatingConnector,
    layer: Arc<ActiveFilesLayer>,
    metrics: Arc<MetricsRegistry>,
    user: String,
}

impl std::fmt::Debug for AfsWorld {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AfsWorld")
            .field("user", &self.user)
            .field("services", &self.net.services())
            .finish_non_exhaustive()
    }
}

/// Registers the sentinels every world knows out of the box.
fn register_builtin(registry: &SentinelRegistry) {
    // The null sentinel has no keys of its own — only the runtime keys
    // (share, durable, sync, …) apply, and anything else is a typo.
    registry.register_with_keys("null", &[], |_| Box::new(crate::logic::NullSentinel::new()));
}

impl AfsWorld {
    /// Starts a builder.
    pub fn builder() -> AfsWorldBuilder {
        AfsWorldBuilder::default()
    }

    /// A semantics-only world (free cost model, default user).
    pub fn new() -> Self {
        AfsWorld::builder().build()
    }

    /// The application's file API — the simulated, already-intercepted
    /// IAT. Cheap to clone.
    pub fn api(&self) -> afs_interpose::ApiHandle {
        self.connector.api()
    }

    /// The local file system.
    pub fn vfs(&self) -> &Arc<Vfs> {
        &self.vfs
    }

    /// The network; register remote services here.
    pub fn net(&self) -> &Network {
        &self.net
    }

    /// The sentinel registry; register custom sentinels here.
    pub fn sentinels(&self) -> &SentinelRegistry {
        &self.registry
    }

    /// The named-synchronisation namespace.
    pub fn sync(&self) -> &SyncRegistry {
        &self.sync
    }

    /// The cost model shared by every component.
    pub fn model(&self) -> &CostModel {
        &self.model
    }

    /// The observability ring: every operation on every active handle in
    /// this world records strategy, op kind, bytes, elapsed simulated
    /// time, domain crossings, and data copies. Drive I/O, then inspect
    /// [`afs_sim::OpTrace::summary`] to see the §4 cost profiles live.
    pub fn trace(&self) -> &Arc<afs_sim::OpTrace> {
        self.layer.trace()
    }

    /// The telemetry hub: spans across the interposition chain, latency
    /// histograms, and queue gauges. Disabled (and free on the hot path)
    /// until [`Telemetry::set_enabled`] is called.
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        self.layer.telemetry()
    }

    /// The metrics registry: one snapshot API over the cost model, the op
    /// trace, and the telemetry hub. Feed the snapshot to
    /// [`afs_telemetry::prometheus_text`] or [`afs_telemetry::json_snapshot`]
    /// to export it.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// The post-mortem bundle: every frozen flight-recorder bundle plus
    /// the live context an operator needs to read them — the full metrics
    /// snapshot (cost model, store, fleet, SLO burn rates), per-service
    /// fault-plan state, and circuit-breaker states — as one JSON
    /// document (`afsh dump`).
    pub fn flight_dump(&self) -> String {
        fn esc(s: &str) -> String {
            let mut out = String::with_capacity(s.len());
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out
        }
        let telemetry = self.telemetry();
        let flight = afs_telemetry::flight_bundles_json(&telemetry.flight().bundles());
        let metrics = afs_telemetry::json_snapshot(&self.metrics.snapshot());
        let faults: Vec<String> = self
            .net
            .services()
            .into_iter()
            .filter_map(|name| {
                let plan = self.net.plan(&name)?;
                Some(format!(
                    "{{\"service\":\"{}\",\"state\":\"{}\"}}",
                    esc(&name),
                    esc(&plan.describe())
                ))
            })
            .collect();
        let breakers: Vec<String> = self
            .net
            .breaker_states()
            .into_iter()
            .map(|(name, state)| {
                format!("{{\"service\":\"{}\",\"state\":\"{state}\"}}", esc(&name))
            })
            .collect();
        format!(
            "{{\"flight\":{flight},\"metrics\":{metrics},\"faults\":[{}],\"breakers\":[{}]}}",
            faults.join(","),
            breakers.join(",")
        )
    }

    /// The interception manager (for tests that install extra layers).
    pub fn connector(&self) -> &MediatingConnector {
        &self.connector
    }

    /// The user sentinels run under.
    pub fn user(&self) -> &str {
        &self.user
    }

    /// Number of live sentinels (open active handles) in this world.
    pub fn open_sentinel_count(&self) -> usize {
        self.layer.open_sentinels()
    }

    /// Live shared sentinels: `(path, sentinel name, strategy label,
    /// session count)` per entry. Empty when every open is private
    /// (`share=off` specs, §4.1 streams) or nothing is open.
    pub fn shared_sentinels(&self) -> Vec<(String, String, &'static str, usize)> {
        self.layer.shared_sentinels()
    }

    /// The sentinel executor's worker-pool bound M: every §4.2/§4.3 and
    /// shared-mux sentinel in this world is multiplexed over at most this
    /// many threads (see [`AfsWorldBuilder::fleet_workers`]).
    pub fn fleet_workers(&self) -> usize {
        self.layer.fleet_workers()
    }

    /// Live sentinel tasks registered on the executor (§4.1 pump threads
    /// and §4.4 inline opens are not executor tasks).
    pub fn fleet_task_count(&self) -> u64 {
        self.layer.fleet_tasks()
    }

    /// Per-shard executor occupancy: `(shard, live, queued)` rows for
    /// diagnostics (`afsh fleet`).
    pub fn fleet_shards(&self) -> Vec<crate::FleetShardStat> {
        self.layer.fleet_shards()
    }

    /// Deterministic quiesce: closes every still-open active handle, waits
    /// for each sentinel's close hook, then joins the fleet workers. Ran
    /// automatically on drop; call it explicitly to assert post-conditions
    /// (no live tasks, no live workers) while telemetry is still
    /// reachable.
    pub fn quiesce(&self) {
        self.layer.quiesce();
    }

    /// Creates an active file at `path`: an empty data part plus the
    /// encoded `spec` in the `:active` stream. Parent directories are
    /// created as needed; an existing file gains the active part.
    ///
    /// # Errors
    ///
    /// [`Win32Error`] on invalid paths or VFS failures.
    pub fn install_active_file(&self, path: &str, spec: &SentinelSpec) -> Result<(), Win32Error> {
        // Reject specs carrying keys the sentinel does not declare — a
        // typo like `durabel=on` must fail here, loudly, not run with
        // silently different behaviour.
        if let Err(e) = self.registry.validate_spec(spec) {
            eprintln!("afs: rejecting active file {path}: {e}");
            return Err(Win32Error::InvalidParameter);
        }
        let vpath = VPath::parse(path)?;
        if let Some(parent) = vpath.parent() {
            self.vfs.create_dir_all(&parent)?;
        }
        if !self.vfs.is_file(&vpath.file_path()) {
            self.vfs.create_file(&vpath.file_path())?;
        }
        self.vfs
            .write_stream_replace(&vpath.with_stream(ACTIVE_STREAM), &spec.encode())?;
        Ok(())
    }

    /// Signs the active part of `path` with `key` (see
    /// [`AfsWorldBuilder::require_signed`]).
    ///
    /// # Errors
    ///
    /// [`Win32Error`] if the path or its active part is missing.
    pub fn sign_active_file(&self, path: &str, key: u64) -> Result<(), Win32Error> {
        let vpath = VPath::parse(path)?;
        crate::security::sign_active_file(&self.vfs, &vpath.file_path(), key)?;
        Ok(())
    }

    /// Reads back the spec installed at `path`, if any.
    pub fn active_spec(&self, path: &str) -> Option<SentinelSpec> {
        let vpath = VPath::parse(path).ok()?;
        let bytes = self
            .vfs
            .read_stream_to_end(&vpath.with_stream(ACTIVE_STREAM))
            .ok()?;
        SentinelSpec::decode(&bytes).ok()
    }
}

impl Default for AfsWorld {
    fn default() -> Self {
        AfsWorld::new()
    }
}

impl Drop for AfsWorld {
    fn drop(&mut self) {
        // Handle table first (dropping transports wakes the sentinels to
        // run their close hooks), then executor teardown — so worlds never
        // leak fleet workers or park sentinels forever.
        self.layer.quiesce();
    }
}
