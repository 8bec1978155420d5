//! The sentinel's execution context.
//!
//! A [`SentinelCtx`] is what the runtime hands a [`crate::SentinelLogic`]:
//! the identity of the active file, the opener's user id (sentinels run
//! "under the user-id of the application that opened the file", §2.3),
//! the configuration from the spec, the local cache, the network, the
//! local file system, and the named-synchronisation namespace.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use afs_ipc::{NamedSemaphore, SyncRegistry};
use afs_net::{Endpoint, NetError, Network};
use afs_sim::CostModel;
use afs_telemetry::{ClusterGauges, Telemetry};
use afs_vfs::{VPath, Vfs};
use afs_winapi::FileApi;

use crate::cache::CacheStore;
use crate::logic::{SentinelError, SentinelResult};
use crate::spec::{RuntimeSpec, SentinelSpec};

/// Everything a running sentinel can see and touch.
pub struct SentinelCtx {
    path: VPath,
    user: String,
    config: BTreeMap<String, String>,
    cache: CacheStore,
    vfs: Arc<Vfs>,
    net: Network,
    replicas: Vec<String>,
    sync: SyncRegistry,
    model: CostModel,
    api: Option<Arc<dyn FileApi>>,
    degraded: bool,
    stale: bool,
    stale_since_ns: Option<u64>,
    staleness_budget_ns: Option<u64>,
    cluster_gauges: Arc<ClusterGauges>,
    write_queue: Vec<(u64, Vec<u8>)>,
    heal_gen: Arc<AtomicU64>,
}

impl std::fmt::Debug for SentinelCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SentinelCtx")
            .field("path", &self.path)
            .field("user", &self.user)
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl SentinelCtx {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        path: VPath,
        user: String,
        spec: &SentinelSpec,
        rt: &RuntimeSpec,
        vfs: Arc<Vfs>,
        net: Network,
        sync: SyncRegistry,
        model: CostModel,
        telemetry: &Telemetry,
    ) -> SentinelResult<Self> {
        let cache = match rt.durable {
            Some(opts) => {
                let file = path.file_path();
                let gauges = Arc::clone(telemetry.store());
                CacheStore::new_durable(Arc::clone(&vfs), &file, model.clone(), opts, gauges)?.0
            }
            None => CacheStore::new(
                spec.backing_kind(),
                Arc::clone(&vfs),
                path.file_path(),
                model.clone(),
            ),
        };
        // A spec asking for retry/replicas/breaker gets a policy-carrying
        // network clone, so every walk this context's endpoints make runs
        // under it transparently.
        let net = match &rt.reliability {
            Some(policy) => net.with_policy(policy.clone()),
            None => net,
        };
        Ok(SentinelCtx {
            path,
            user,
            config: spec.config().clone(),
            cache,
            vfs,
            net,
            replicas: rt.replicas.clone(),
            sync,
            model,
            api: None,
            degraded: rt.degraded,
            stale: false,
            stale_since_ns: None,
            staleness_budget_ns: rt.staleness_ns,
            cluster_gauges: Arc::clone(telemetry.cluster()),
            write_queue: Vec::new(),
            heal_gen: Arc::new(AtomicU64::new(0)),
        })
    }

    pub(crate) fn set_api(&mut self, api: Arc<dyn FileApi>) {
        self.api = Some(api);
    }

    /// The *intercepted* file API of the world this sentinel lives in —
    /// opening a path through it goes through active-file detection
    /// again, so sentinels can consume other active files. This is §3's
    /// composition ("larger applications are constructed by composing
    /// these actions"). A sentinel that opens its own file recurses;
    /// don't.
    ///
    /// # Errors
    ///
    /// [`SentinelError::Unsupported`] in contexts constructed without a
    /// world (bare unit tests).
    pub fn api(&self) -> SentinelResult<&Arc<dyn FileApi>> {
        self.api.as_ref().ok_or(SentinelError::Unsupported)
    }

    /// The active file's path.
    pub fn path(&self) -> &VPath {
        &self.path
    }

    /// The user id of the process that opened the file.
    pub fn user(&self) -> &str {
        &self.user
    }

    /// The local cache (Figure 5's critical-path selector).
    pub fn cache(&mut self) -> &mut CacheStore {
        &mut self.cache
    }

    /// The local file system, for sentinels with local side effects
    /// (logs, notifications).
    pub fn vfs(&self) -> &Arc<Vfs> {
        &self.vfs
    }

    /// The simulated network, under the spec's reliability policy.
    pub fn net(&self) -> &Network {
        &self.net
    }

    /// The cost model this sentinel charges.
    pub fn model(&self) -> &CostModel {
        &self.model
    }

    // ---- degraded mode --------------------------------------------------------

    /// Whether the spec enabled degraded mode (`degraded=on`): when every
    /// replica is down, reads are served from the last-good cache (flagged
    /// stale) and writes are queued for replay on heal.
    pub fn degraded_enabled(&self) -> bool {
        self.degraded
    }

    /// Whether this file is currently serving stale data: the remote was
    /// unreachable and contents came from the last-good cache, or queued
    /// writes have not replayed yet. Applications query it with
    /// [`crate::strategy::CTL_QUERY_STALE`].
    pub fn is_stale(&self) -> bool {
        self.stale
    }

    pub(crate) fn set_stale(&mut self, stale: bool) {
        if stale && !self.stale {
            self.stale_since_ns = Some(afs_sim::clock::now());
        } else if !stale {
            self.stale_since_ns = None;
        }
        self.stale = stale;
    }

    /// Whether an op that failed with `err` may be served from the
    /// last-good cache: degraded mode is on, a cache is there, no owner
    /// answered (a refusal is an answer, and never served), and the handle
    /// has not yet gone longer than `staleness_ms` without a copy that
    /// holds its acknowledged writes.
    pub(crate) fn may_serve_last_good(&self, err: &NetError) -> bool {
        let within = match (self.staleness_budget_ns, self.stale_since_ns) {
            (Some(budget), Some(since)) => afs_sim::clock::now().saturating_sub(since) <= budget,
            _ => true,
        };
        self.degraded && err.is_fault() && self.cache.is_present() && within
    }

    /// Writes queued while the remote was down, in arrival order.
    pub(crate) fn write_queue(&mut self) -> &mut Vec<(u64, Vec<u8>)> {
        &mut self.write_queue
    }

    pub(crate) fn write_queue_len(&self) -> usize {
        self.write_queue.len()
    }

    /// The heal generation: bumped at the start of every queued-write
    /// replay so speculative readahead staged before the replay can be
    /// invalidated by the batched-ring driver (see
    /// [`crate::strategy`]'s `replay_queued_writes` and `batch.rs`).
    pub(crate) fn heal_generation(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.heal_gen)
    }

    pub(crate) fn bump_heal_generation(&self) {
        self.heal_gen.fetch_add(1, Ordering::SeqCst);
    }

    // ---- configuration ------------------------------------------------------

    /// Reads a configuration string.
    pub fn config_str(&self, key: &str) -> Option<&str> {
        self.config.get(key).map(String::as_str)
    }

    /// Reads a required configuration string.
    ///
    /// # Errors
    ///
    /// [`SentinelError::Other`] naming the missing key.
    pub fn require_str(&self, key: &str) -> SentinelResult<&str> {
        self.config_str(key)
            .ok_or_else(|| SentinelError::Other(format!("missing config key `{key}`")))
    }

    /// Reads a configuration integer.
    pub fn config_u64(&self, key: &str) -> Option<u64> {
        self.config_str(key).and_then(|v| v.parse().ok())
    }

    /// Reads a configuration boolean in the runtime keys' one grammar
    /// (`on|true|1` / `off|false|0`); absent or any other value is off.
    pub fn config_bool(&self, key: &str) -> bool {
        self.config_str(key)
            .and_then(crate::spec::flag)
            .unwrap_or(false)
    }

    // ---- remote services --------------------------------------------------------

    /// How this sentinel reaches `service`: over its network, under the
    /// spec's policy, walking `service` then the spec's `replicas=`, each
    /// once, in order — or, when `service` names a fleet, the owners its
    /// placement gives each path. It carries the spec's `staleness_ms`
    /// and, over a fleet, the world's cluster gauges to the session a typed
    /// client opens on it, e.g.
    /// `afs_remote::FileClient::new(ctx.endpoint("files"))`.
    pub fn endpoint(&self, service: &str) -> Endpoint {
        let replicas = self.replicas.iter().map(String::as_str);
        let owners = self.net.endpoint(std::iter::once(service).chain(replicas));
        let gauges = owners.fleet().map(|_| Arc::clone(&self.cluster_gauges));
        owners.for_session(self.staleness_budget_ns, gauges)
    }

    // ---- cross-sentinel synchronisation ---------------------------------------

    /// Opens a named semaphore shared by every sentinel in the world
    /// (§2.2's inter-sentinel synchronisation).
    ///
    /// # Errors
    ///
    /// Registry errors (currently infallible).
    pub fn semaphore(&self, name: &str, initial: u64, max: u64) -> SentinelResult<NamedSemaphore> {
        self.sync
            .semaphore(name, initial, max)
            .map_err(|e| SentinelError::Other(e.to_string()))
    }

    /// Opens a named mutex (binary semaphore).
    ///
    /// # Errors
    ///
    /// Registry errors (currently infallible).
    pub fn mutex(&self, name: &str) -> SentinelResult<NamedSemaphore> {
        self.sync
            .mutex(name)
            .map_err(|e| SentinelError::Other(e.to_string()))
    }

    /// Persists a memory cache back into the data part. The runtime calls
    /// this on close; hand-written process sentinels using
    /// [`crate::Backing::Memory`] call it themselves before returning.
    pub fn persist_cache(&mut self) {
        let path = self.path.file_path();
        let vfs = Arc::clone(&self.vfs);
        self.cache.persist(&vfs, &path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Backing, Strategy};

    fn ctx(spec: SentinelSpec) -> SentinelCtx {
        let vfs = Arc::new(Vfs::new());
        let path = VPath::parse("/t.af").expect("path");
        vfs.create_file(&path).expect("create");
        SentinelCtx::new(
            path,
            "tester".to_owned(),
            &spec,
            &RuntimeSpec::parse(&spec).expect("runtime keys"),
            vfs,
            Network::new(CostModel::free()),
            SyncRegistry::new(),
            CostModel::free(),
            &Telemetry::new(),
        )
        .expect("ctx")
    }

    #[test]
    fn config_accessors() {
        let spec = SentinelSpec::new("x", Strategy::DllOnly)
            .with("service", "files")
            .with("count", "42");
        let c = ctx(spec);
        assert_eq!(c.config_str("service"), Some("files"));
        assert_eq!(c.config_u64("count"), Some(42));
        for (spelling, value) in [
            ("on", true),
            ("true", true),
            ("1", true),
            ("off", false),
            ("false", false),
            ("0", false),
        ] {
            let c = ctx(SentinelSpec::new("x", Strategy::DllOnly).with("flag", spelling));
            assert_eq!(c.config_bool("flag"), value, "flag={spelling}");
        }
        assert!(!c.config_bool("absent"));
        assert_eq!(c.require_str("service").expect("present"), "files");
        assert!(c.require_str("missing").is_err());
    }

    #[test]
    fn cache_matches_backing() {
        use afs_store::BackendKind;
        let c = ctx(SentinelSpec::new("x", Strategy::DllOnly).backing(Backing::Memory));
        assert_eq!(c.cache.kind(), Some(BackendKind::Memory));
        let c = ctx(SentinelSpec::new("x", Strategy::DllOnly));
        assert_eq!(c.cache.kind(), None);
        let c = ctx(SentinelSpec::new("x", Strategy::DllOnly)
            .backing(Backing::Memory)
            .with("durable", "on"));
        assert_eq!(c.cache.kind(), Some(BackendKind::Durable));
    }

    #[test]
    fn named_sync_shared_through_ctx() {
        let c = ctx(SentinelSpec::new("x", Strategy::DllOnly));
        let s1 = c.mutex("shared").expect("mutex");
        let s2 = c.mutex("shared").expect("mutex again");
        assert!(s1.try_acquire());
        assert!(!s2.try_acquire());
    }

    #[test]
    fn persist_cache_writes_memory_back() {
        let mut c = ctx(SentinelSpec::new("x", Strategy::DllOnly).backing(Backing::Memory));
        c.cache().write_at(0, b"keep").expect("write");
        c.persist_cache();
        assert_eq!(
            c.vfs()
                .read_stream_to_end(&VPath::parse("/t.af").expect("p"))
                .expect("read"),
            b"keep"
        );
    }
}
