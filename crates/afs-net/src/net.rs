//! The network fabric: service registry, RPC/cast calls, cost accounting,
//! fault injection, and the reliability recovery loop.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use afs_sim::{clock, Cost, CostModel, SimRng};
use afs_telemetry::{flight_note, flight_trigger, intern, now_ns, retry_span_noted};

use crate::reliability::{
    CircuitBreaker, ReliabilityPolicy, ReliabilitySnapshot, ReliabilityStats,
};
use crate::{NetError, Result};

/// A remote information source: receives a request payload, returns a
/// response payload. Implementations live in `afs-remote`.
pub trait Service: Send + Sync {
    /// Handles one request.
    ///
    /// # Errors
    ///
    /// Application-level rejections surface as [`NetError::Rejected`].
    fn handle(&self, request: &[u8]) -> Result<Vec<u8>>;

    /// Handles a one-way message (default: same as `handle`, response
    /// discarded).
    fn handle_cast(&self, request: &[u8]) {
        let _ = self.handle(request);
    }
}

/// Deterministic fault injection for one service.
#[derive(Debug)]
struct Faults {
    /// Drop the next N messages (rpc or cast).
    drop_next: AtomicU64,
    /// Fail the next N messages with [`NetError::Partitioned`], then heal —
    /// a transient outage a retry policy should ride out.
    flaky_next: AtomicU64,
    /// While `true`, the service is unreachable.
    partitioned: AtomicBool,
    /// Unreachable while `now_ns()` lies in `[start, end)`. With a virtual
    /// clock installed, retry backoff advances the clock *through* the
    /// window, so a scheduled partition genuinely heals mid-call.
    window: Mutex<Option<(u64, u64)>>,
    /// Whether `window` holds one, stored under its lock: every message
    /// to a healthy service loads this instead of taking the lock.
    window_set: AtomicBool,
    /// Base injected latency per message, ns (charged to the caller's
    /// virtual clock).
    latency_ns: AtomicU64,
    /// Uniform jitter added on top of the base latency, ns.
    jitter_ns: AtomicU64,
    /// Probabilistic loss, parts per million.
    loss_ppm: AtomicU64,
    /// Per-service random stream, derived from the network seed and the
    /// service name so services stay independent.
    rng: Mutex<SimRng>,
}

impl Faults {
    fn seeded(seed: u64, name: &str) -> Self {
        Faults {
            drop_next: AtomicU64::new(0),
            flaky_next: AtomicU64::new(0),
            partitioned: AtomicBool::new(false),
            window: Mutex::new(None),
            window_set: AtomicBool::new(false),
            latency_ns: AtomicU64::new(0),
            jitter_ns: AtomicU64::new(0),
            loss_ppm: AtomicU64::new(0),
            rng: Mutex::new(SimRng::derive(seed, name)),
        }
    }

    fn set_window(&self, window: Option<(u64, u64)>) {
        let mut slot = self.window.lock();
        *slot = window;
        self.window_set.store(window.is_some(), Ordering::SeqCst);
    }
}

/// Atomically consumes one token from `counter` if any remain.
fn consume_token(counter: &AtomicU64) -> bool {
    let mut current = counter.load(Ordering::SeqCst);
    while current > 0 {
        match counter.compare_exchange(current, current - 1, Ordering::SeqCst, Ordering::SeqCst) {
            Ok(_) => return true,
            Err(actual) => current = actual,
        }
    }
    false
}

/// Handle for configuring faults against one service.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    service: String,
    faults: Arc<Faults>,
}

impl FaultPlan {
    /// Drops the next `n` messages sent to the service.
    pub fn drop_next(&self, n: u64) {
        self.faults.drop_next.store(n, Ordering::SeqCst);
    }

    /// Fails the next `n` messages with [`NetError::Partitioned`], then
    /// heals on its own — the transient-fault shape retry policies exist
    /// for.
    pub fn flaky(&self, n: u64) {
        self.faults.flaky_next.store(n, Ordering::SeqCst);
    }

    /// Partitions the service away (or heals it).
    pub fn set_partitioned(&self, partitioned: bool) {
        self.faults.partitioned.store(partitioned, Ordering::SeqCst);
    }

    /// Schedules a partition over the virtual-time interval
    /// `[start_ns, end_ns)`; the service is unreachable while the caller's
    /// `now_ns()` falls inside it.
    pub fn partition_window(&self, start_ns: u64, end_ns: u64) {
        self.faults.set_window(Some((start_ns, end_ns)));
    }

    /// Charges every message `base_ns` of latency plus a uniform jitter in
    /// `[0, jitter_ns]`, drawn from the service's deterministic stream.
    pub fn latency(&self, base_ns: u64, jitter_ns: u64) {
        self.faults.latency_ns.store(base_ns, Ordering::SeqCst);
        self.faults.jitter_ns.store(jitter_ns, Ordering::SeqCst);
    }

    /// Loses messages with probability `ppm` parts per million, rolled on
    /// the service's deterministic stream.
    pub fn loss_ppm(&self, ppm: u64) {
        self.faults
            .loss_ppm
            .store(ppm.min(1_000_000), Ordering::SeqCst);
    }

    /// Clears every configured fault (the RNG stream keeps its position).
    pub fn clear(&self) {
        self.faults.drop_next.store(0, Ordering::SeqCst);
        self.faults.flaky_next.store(0, Ordering::SeqCst);
        self.faults.partitioned.store(false, Ordering::SeqCst);
        self.faults.set_window(None);
        self.faults.latency_ns.store(0, Ordering::SeqCst);
        self.faults.jitter_ns.store(0, Ordering::SeqCst);
        self.faults.loss_ppm.store(0, Ordering::SeqCst);
    }

    /// The service this plan applies to.
    pub fn service(&self) -> &str {
        &self.service
    }

    /// One-line summary of the configured faults, for diagnostics.
    pub fn describe(&self) -> String {
        let mut parts = Vec::new();
        if self.faults.partitioned.load(Ordering::SeqCst) {
            parts.push("partitioned".to_owned());
        }
        if let Some((s, e)) = *self.faults.window.lock() {
            parts.push(format!("window=[{s},{e})ns"));
        }
        let drop = self.faults.drop_next.load(Ordering::SeqCst);
        if drop > 0 {
            parts.push(format!("drop_next={drop}"));
        }
        let flaky = self.faults.flaky_next.load(Ordering::SeqCst);
        if flaky > 0 {
            parts.push(format!("flaky={flaky}"));
        }
        let lat = self.faults.latency_ns.load(Ordering::SeqCst);
        let jit = self.faults.jitter_ns.load(Ordering::SeqCst);
        if lat > 0 || jit > 0 {
            parts.push(format!("latency={lat}ns±{jit}"));
        }
        let loss = self.faults.loss_ppm.load(Ordering::SeqCst);
        if loss > 0 {
            parts.push(format!("loss={loss}ppm"));
        }
        if parts.is_empty() {
            "healthy".to_owned()
        } else {
            parts.join(" ")
        }
    }
}

/// Aggregate traffic statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetworkStats {
    /// Completed request/response calls.
    pub rpcs: u64,
    /// Fire-and-forget messages delivered.
    pub casts: u64,
    /// Total request bytes accepted.
    pub bytes_sent: u64,
    /// Total response bytes returned.
    pub bytes_received: u64,
    /// Messages lost to fault injection.
    pub dropped: u64,
}

/// One registered service and its fault state: what a message needs,
/// behind one reference count.
struct Endpoint {
    service: Arc<dyn Service>,
    faults: Arc<Faults>,
}

/// Everything the clones of one network share, in one allocation: a clone
/// bumps one reference count for all of it, and the words every message
/// writes (the registry's reader count and the traffic counters) sit
/// together instead of on eight lines.
#[derive(Default)]
struct Shared {
    registry: RwLock<HashMap<String, Arc<Endpoint>>>,
    seed: AtomicU64,
    breakers: Mutex<HashMap<String, CircuitBreaker>>,
    reliability: ReliabilityStats,
    rpcs: AtomicU64,
    casts: AtomicU64,
    bytes_sent: AtomicU64,
    bytes_received: AtomicU64,
    dropped: AtomicU64,
}

/// The simulated network connecting sentinels to remote information
/// sources. Cloning is cheap; clones share the registry and statistics.
///
/// A clone produced by [`Network::with_policy`] additionally runs every
/// `rpc`/`cast` through the reliability loop: retry with deterministic
/// exponential backoff, replica failover, and per-service circuit
/// breaking. Breakers and reliability counters stay shared across all
/// clones, so one sentinel tripping a breaker protects every other caller.
#[derive(Clone)]
pub struct Network {
    model: CostModel,
    shared: Arc<Shared>,
    policy: Option<Arc<ReliabilityPolicy>>,
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl Network {
    /// Creates an empty network charging to `model`.
    pub fn new(model: CostModel) -> Self {
        Network {
            model,
            shared: Arc::default(),
            policy: None,
        }
    }

    /// The cost model traffic is charged against.
    pub fn model(&self) -> &CostModel {
        &self.model
    }

    /// Sets the seed all per-service fault streams and retry jitter derive
    /// from. Re-seeds the streams of already-registered services, so it can
    /// be called at any point during world construction.
    pub fn set_seed(&self, seed: u64) {
        self.shared.seed.store(seed, Ordering::SeqCst);
        for (name, endpoint) in self.shared.registry.read().iter() {
            *endpoint.faults.rng.lock() = SimRng::derive(seed, name);
        }
    }

    /// The current deterministic seed.
    pub fn seed(&self) -> u64 {
        self.shared.seed.load(Ordering::SeqCst)
    }

    /// Registers (or replaces) a service under `name`, returning the fault
    /// plan for it.
    pub fn register(&self, name: &str, service: Arc<dyn Service>) -> FaultPlan {
        let faults = Arc::new(Faults::seeded(self.seed(), name));
        let endpoint = Endpoint {
            service,
            faults: Arc::clone(&faults),
        };
        self.shared
            .registry
            .write()
            .insert(name.to_owned(), Arc::new(endpoint));
        FaultPlan {
            service: name.to_owned(),
            faults,
        }
    }

    /// The fault plan of an already-registered service, so tests and tools
    /// can inject faults without re-registering (and thereby resetting) it.
    pub fn plan(&self, name: &str) -> Option<FaultPlan> {
        self.shared.registry.read().get(name).map(|e| FaultPlan {
            service: name.to_owned(),
            faults: Arc::clone(&e.faults),
        })
    }

    /// Removes a service.
    pub fn unregister(&self, name: &str) {
        self.shared.registry.write().remove(name);
    }

    /// Names of registered services, sorted.
    pub fn services(&self) -> Vec<String> {
        let mut names: Vec<String> = self.shared.registry.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// A clone of this network that runs every call through `policy`:
    /// retry with deterministic backoff, replica failover, and (when
    /// configured) circuit breaking. The registry, statistics, breakers,
    /// and reliability counters remain shared with the original.
    pub fn with_policy(&self, policy: ReliabilityPolicy) -> Network {
        let mut clone = self.clone();
        clone.policy = Some(Arc::new(policy));
        clone
    }

    /// The reliability policy this clone enforces, if any.
    pub fn policy(&self) -> Option<&ReliabilityPolicy> {
        self.policy.as_deref()
    }

    /// Copies out the shared reliability counters.
    pub fn reliability(&self) -> ReliabilitySnapshot {
        self.shared.reliability.snapshot()
    }

    /// The live reliability counters, for layers above the transport
    /// (degraded reads, write queueing) to report into.
    pub fn reliability_stats(&self) -> &ReliabilityStats {
        &self.shared.reliability
    }

    /// Current circuit-breaker states, sorted by service name.
    pub fn breaker_states(&self) -> Vec<(String, &'static str)> {
        let map = self.shared.breakers.lock();
        let mut states: Vec<(String, &'static str)> = map
            .iter()
            .map(|(name, b)| (name.clone(), b.state_label()))
            .collect();
        states.sort();
        states
    }

    fn lookup(&self, name: &str) -> Result<Arc<Endpoint>> {
        self.shared
            .registry
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| NetError::ServiceNotFound(name.to_owned()))
    }

    fn check_faults(&self, name: &str, faults: &Faults) -> Result<()> {
        let base = faults.latency_ns.load(Ordering::SeqCst);
        let jitter = faults.jitter_ns.load(Ordering::SeqCst);
        if base > 0 || jitter > 0 {
            let extra = if jitter > 0 {
                faults.rng.lock().next_below(jitter + 1)
            } else {
                0
            };
            clock::advance(base.saturating_add(extra));
        }
        if faults.partitioned.load(Ordering::SeqCst) {
            return Err(NetError::Partitioned(name.to_owned()));
        }
        if faults.window_set.load(Ordering::SeqCst) {
            if let Some((start, end)) = *faults.window.lock() {
                let now = now_ns();
                if now >= start && now < end {
                    return Err(NetError::Partitioned(name.to_owned()));
                }
            }
        }
        if consume_token(&faults.flaky_next) {
            return Err(NetError::Partitioned(name.to_owned()));
        }
        if consume_token(&faults.drop_next) {
            self.shared.dropped.fetch_add(1, Ordering::Relaxed);
            return Err(NetError::Dropped(name.to_owned()));
        }
        let ppm = faults.loss_ppm.load(Ordering::SeqCst);
        if ppm > 0 && faults.rng.lock().roll_ppm(ppm) {
            self.shared.dropped.fetch_add(1, Ordering::Relaxed);
            return Err(NetError::Dropped(name.to_owned()));
        }
        Ok(())
    }

    /// Whether an error is worth retrying / failing over: transient
    /// transport faults, or a missing service (a replica may hold the
    /// data). Application-level rejections and codec errors are final.
    fn retryable(err: &NetError) -> bool {
        matches!(
            err,
            NetError::Dropped(_) | NetError::Partitioned(_) | NetError::ServiceNotFound(_)
        )
    }

    fn breaker_allow(&self, policy: &ReliabilityPolicy, name: &str) -> bool {
        let Some(cfg) = &policy.breaker else {
            return true;
        };
        let mut map = self.shared.breakers.lock();
        map.entry(name.to_owned())
            .or_insert_with(|| CircuitBreaker::new(cfg.clone()))
            .allow(now_ns())
    }

    fn breaker_success(&self, policy: &ReliabilityPolicy, name: &str) {
        if policy.breaker.is_none() {
            return;
        }
        if let Some(b) = self.shared.breakers.lock().get_mut(name) {
            b.on_success();
        }
    }

    fn breaker_failure(&self, policy: &ReliabilityPolicy, name: &str) {
        let Some(cfg) = &policy.breaker else {
            return;
        };
        let mut map = self.shared.breakers.lock();
        let tripped = map
            .entry(name.to_owned())
            .or_insert_with(|| CircuitBreaker::new(cfg.clone()))
            .on_failure(now_ns());
        if tripped {
            self.shared.reliability.note_breaker_trip();
            drop(map);
            // A breaker opening is a post-mortem moment: freeze the recent
            // spans and event rings while the failing op is still in
            // flight, so the bundle contains its causal trace.
            flight_trigger("breaker_open", format!("service={name}"));
        }
    }

    /// The recovery loop: tries the primary then each replica, breaker
    /// permitting; between rounds waits out an exponential backoff with
    /// deterministic jitter. Backoff consumes *virtual* time, so scheduled
    /// partitions ([`FaultPlan::partition_window`]) heal while we wait.
    fn call_reliable<T>(
        &self,
        policy: &ReliabilityPolicy,
        service: &str,
        mut call: impl FnMut(&str) -> Result<T>,
    ) -> Result<T> {
        let mut candidates: Vec<&str> = Vec::with_capacity(1 + policy.replicas.len());
        candidates.push(service);
        for replica in &policy.replicas {
            if replica != service && !candidates.contains(&replica.as_str()) {
                candidates.push(replica);
            }
        }
        let attempts = policy.retry.attempts.max(1);
        let start = now_ns();
        let mut jitter_rng = SimRng::derive(self.seed(), service);
        let mut last_err = None;
        // The retry span is opened lazily so the happy path stays span-free.
        let mut span_opened = false;
        let mut span = None;
        for attempt in 0..attempts {
            for candidate in &candidates {
                if !self.breaker_allow(policy, candidate) {
                    self.shared.reliability.note_breaker_rejection();
                    // The local refusal is part of the op's causal story:
                    // an annotated zero-work child span records it in the
                    // trace.
                    drop(retry_span_noted("breaker-reject", "cause=breaker_open"));
                    flight_note("net", format!("breaker_reject service={candidate}"));
                    last_err = Some(NetError::CircuitOpen((*candidate).to_owned()));
                    continue;
                }
                match call(candidate) {
                    Ok(value) => {
                        self.breaker_success(policy, candidate);
                        if *candidate != service {
                            self.shared.reliability.note_failover();
                            let _sp = retry_span_noted(
                                "failover",
                                intern(&format!("cause=failover replica={candidate}")),
                            );
                            flight_note(
                                "net",
                                format!("failover service={service} replica={candidate}"),
                            );
                        }
                        return Ok(value);
                    }
                    Err(err) if Self::retryable(&err) => {
                        self.breaker_failure(policy, candidate);
                        last_err = Some(err);
                    }
                    Err(err) => {
                        // An application-level rejection means the service
                        // answered: the transport is healthy, so a half-open
                        // probe resolves (and the failure streak resets)
                        // rather than staying in flight forever.
                        self.breaker_success(policy, candidate);
                        return Err(err);
                    }
                }
            }
            if attempt + 1 < attempts {
                let shift = attempt.min(20);
                let backoff = policy
                    .retry
                    .base_backoff_ns
                    .saturating_mul(1u64 << shift)
                    .min(policy.retry.max_backoff_ns);
                let wait = backoff.saturating_add(jitter_rng.next_below(backoff / 2 + 1));
                let elapsed = now_ns().saturating_sub(start);
                if elapsed.saturating_add(wait) > policy.retry.deadline_ns {
                    break;
                }
                if !span_opened {
                    span_opened = true;
                    span = retry_span_noted("retry", "cause=backoff");
                }
                clock::advance(wait);
                self.shared.reliability.note_retry();
            }
        }
        drop(span);
        Err(last_err.unwrap_or_else(|| NetError::ServiceNotFound(service.to_owned())))
    }

    fn rpc_once(&self, service: &str, request: &[u8]) -> Result<Vec<u8>> {
        let endpoint = self.lookup(service)?;
        self.check_faults(service, &endpoint.faults)?;
        self.model.charge(Cost::NetBytes {
            bytes: request.len(),
        });
        self.model.charge(Cost::NetRoundTrip);
        let response = endpoint.service.handle(request)?;
        self.model.charge(Cost::NetBytes {
            bytes: response.len(),
        });
        let stats = &self.shared;
        stats.rpcs.fetch_add(1, Ordering::Relaxed);
        stats
            .bytes_sent
            .fetch_add(request.len() as u64, Ordering::Relaxed);
        stats
            .bytes_received
            .fetch_add(response.len() as u64, Ordering::Relaxed);
        Ok(response)
    }

    fn cast_once(&self, service: &str, request: &[u8]) -> Result<()> {
        let endpoint = self.lookup(service)?;
        self.check_faults(service, &endpoint.faults)?;
        self.model.charge(Cost::NetBytes {
            bytes: request.len(),
        });
        endpoint.service.handle_cast(request);
        self.shared.casts.fetch_add(1, Ordering::Relaxed);
        self.shared
            .bytes_sent
            .fetch_add(request.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    /// Synchronous request/response to a service.
    ///
    /// Charged as: request bytes out + one round trip + response bytes
    /// back — the read critical path of Figure 5 path 1. On a
    /// policy-carrying clone ([`Network::with_policy`]) transient failures
    /// are retried and failed over per the policy.
    ///
    /// # Errors
    ///
    /// [`NetError::ServiceNotFound`], fault-injection errors,
    /// [`NetError::CircuitOpen`] when the breaker refuses the call, or
    /// whatever the service rejects with.
    pub fn rpc(&self, service: &str, request: &[u8]) -> Result<Vec<u8>> {
        match &self.policy {
            Some(policy) => self.call_reliable(policy, service, |candidate| {
                self.rpc_once(candidate, request)
            }),
            None => self.rpc_once(service, request),
        }
    }

    /// Fire-and-forget message to a service: charged only the outbound
    /// per-byte streaming cost, no round trip ("writes are issued without
    /// waiting for their completion", §6). On a policy-carrying clone
    /// transient failures are retried and failed over per the policy.
    ///
    /// # Errors
    ///
    /// [`NetError::ServiceNotFound`], fault-injection errors, and
    /// [`NetError::CircuitOpen`]; delivery itself cannot fail.
    pub fn cast(&self, service: &str, request: &[u8]) -> Result<()> {
        match &self.policy {
            Some(policy) => self.call_reliable(policy, service, |candidate| {
                self.cast_once(candidate, request)
            }),
            None => self.cast_once(service, request),
        }
    }

    /// Copies out aggregate statistics.
    pub fn stats(&self) -> NetworkStats {
        let stats = &self.shared;
        NetworkStats {
            rpcs: stats.rpcs.load(Ordering::Relaxed),
            casts: stats.casts.load(Ordering::Relaxed),
            bytes_sent: stats.bytes_sent.load(Ordering::Relaxed),
            bytes_received: stats.bytes_received.load(Ordering::Relaxed),
            dropped: stats.dropped.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reliability::{BreakerConfig, RetryPolicy};
    use afs_sim::{clock, HardwareProfile};

    /// Echo service used by the tests.
    struct Echo;

    impl Service for Echo {
        fn handle(&self, request: &[u8]) -> Result<Vec<u8>> {
            Ok(request.to_vec())
        }
    }

    /// Service answering with a fixed tag, to tell replicas apart.
    struct Tagged(&'static str);

    impl Service for Tagged {
        fn handle(&self, _request: &[u8]) -> Result<Vec<u8>> {
            Ok(self.0.as_bytes().to_vec())
        }
    }

    #[test]
    fn rpc_reaches_service_and_counts() {
        let net = Network::new(CostModel::free());
        net.register("echo", Arc::new(Echo));
        let out = net.rpc("echo", b"ping").expect("rpc");
        assert_eq!(out, b"ping");
        let stats = net.stats();
        assert_eq!(stats.rpcs, 1);
        assert_eq!(stats.bytes_sent, 4);
        assert_eq!(stats.bytes_received, 4);
    }

    #[test]
    fn unknown_service_errors() {
        let net = Network::new(CostModel::free());
        assert!(matches!(
            net.rpc("ghost", b""),
            Err(NetError::ServiceNotFound(_))
        ));
        assert!(matches!(
            net.cast("ghost", b""),
            Err(NetError::ServiceNotFound(_))
        ));
    }

    #[test]
    fn rpc_charges_round_trip_and_bytes() {
        let model = CostModel::new(HardwareProfile::pentium_ii_300());
        let net = Network::new(model.clone());
        net.register("echo", Arc::new(Echo));
        let _g = clock::install(0);
        net.rpc("echo", &[0u8; 1000]).expect("rpc");
        let expected =
            model.price(Cost::NetRoundTrip) + 2 * model.price(Cost::NetBytes { bytes: 1000 });
        assert_eq!(clock::now(), expected);
    }

    #[test]
    fn cast_charges_bandwidth_only() {
        let model = CostModel::new(HardwareProfile::pentium_ii_300());
        let net = Network::new(model.clone());
        net.register("echo", Arc::new(Echo));
        let _g = clock::install(0);
        net.cast("echo", &[0u8; 1000]).expect("cast");
        assert_eq!(clock::now(), model.price(Cost::NetBytes { bytes: 1000 }));
        assert_eq!(net.stats().casts, 1);
    }

    #[test]
    fn drop_next_loses_exactly_n_messages() {
        let net = Network::new(CostModel::free());
        let plan = net.register("echo", Arc::new(Echo));
        plan.drop_next(2);
        assert!(matches!(net.rpc("echo", b"1"), Err(NetError::Dropped(_))));
        assert!(matches!(net.cast("echo", b"2"), Err(NetError::Dropped(_))));
        assert!(net.rpc("echo", b"3").is_ok());
        assert_eq!(net.stats().dropped, 2);
    }

    #[test]
    fn partition_blocks_until_healed() {
        let net = Network::new(CostModel::free());
        let plan = net.register("echo", Arc::new(Echo));
        plan.set_partitioned(true);
        assert!(matches!(
            net.rpc("echo", b"x"),
            Err(NetError::Partitioned(_))
        ));
        plan.set_partitioned(false);
        assert!(net.rpc("echo", b"x").is_ok());
    }

    #[test]
    fn services_listing_is_sorted() {
        let net = Network::new(CostModel::free());
        net.register("zeta", Arc::new(Echo));
        net.register("alpha", Arc::new(Echo));
        assert_eq!(net.services(), vec!["alpha".to_owned(), "zeta".to_owned()]);
        net.unregister("alpha");
        assert_eq!(net.services(), vec!["zeta".to_owned()]);
    }

    #[test]
    fn clones_share_registry() {
        let net = Network::new(CostModel::free());
        let clone = net.clone();
        net.register("echo", Arc::new(Echo));
        assert!(clone.rpc("echo", b"hi").is_ok());
        assert_eq!(net.stats().rpcs, 1);
    }

    #[test]
    fn plan_looks_up_registered_services() {
        let net = Network::new(CostModel::free());
        net.register("echo", Arc::new(Echo));
        assert!(net.plan("ghost").is_none());
        let plan = net.plan("echo").expect("plan");
        plan.drop_next(1);
        assert!(matches!(net.rpc("echo", b"x"), Err(NetError::Dropped(_))));
        assert!(net.rpc("echo", b"x").is_ok());
    }

    #[test]
    fn flaky_fails_n_times_then_heals() {
        let net = Network::new(CostModel::free());
        let plan = net.register("echo", Arc::new(Echo));
        plan.flaky(2);
        assert!(matches!(
            net.rpc("echo", b"1"),
            Err(NetError::Partitioned(_))
        ));
        assert!(matches!(
            net.rpc("echo", b"2"),
            Err(NetError::Partitioned(_))
        ));
        assert!(net.rpc("echo", b"3").is_ok());
        // Flaky outages are partitions, not message loss.
        assert_eq!(net.stats().dropped, 0);
    }

    #[test]
    fn latency_advances_the_virtual_clock() {
        let net = Network::new(CostModel::free());
        let plan = net.register("echo", Arc::new(Echo));
        plan.latency(1_000, 0);
        let _g = clock::install(0);
        net.rpc("echo", b"x").expect("rpc");
        assert_eq!(clock::now(), 1_000);
        plan.latency(1_000, 500);
        net.rpc("echo", b"x").expect("rpc");
        let second = clock::now() - 1_000;
        assert!(
            (1_000..=1_500).contains(&second),
            "jitter in range: {second}"
        );
    }

    #[test]
    fn loss_ppm_is_deterministic_for_a_seed() {
        let run = |seed: u64| {
            let net = Network::new(CostModel::free());
            net.set_seed(seed);
            let plan = net.register("echo", Arc::new(Echo));
            plan.loss_ppm(500_000);
            (0..100).filter(|_| net.rpc("echo", b"x").is_err()).count()
        };
        let a = run(7);
        assert_eq!(a, run(7), "same seed, same losses");
        assert!(a > 10 && a < 90, "about half lost: {a}");
    }

    #[test]
    fn partition_window_blocks_only_inside_the_window() {
        let net = Network::new(CostModel::free());
        let plan = net.register("echo", Arc::new(Echo));
        plan.partition_window(1_000, 2_000);
        let _g = clock::install(0);
        assert!(net.rpc("echo", b"x").is_ok(), "before the window");
        clock::advance(1_500);
        assert!(matches!(
            net.rpc("echo", b"x"),
            Err(NetError::Partitioned(_))
        ));
        clock::advance(1_000);
        assert!(net.rpc("echo", b"x").is_ok(), "after the window");
    }

    #[test]
    fn policy_retries_through_a_flaky_service() {
        let net = Network::new(CostModel::free());
        let plan = net.register("echo", Arc::new(Echo));
        let reliable = net.with_policy(ReliabilityPolicy::default());
        plan.flaky(2);
        let _g = clock::install(0);
        assert_eq!(reliable.rpc("echo", b"hi").expect("recovered"), b"hi");
        assert!(net.reliability().retries >= 1, "backoff rounds counted");
        assert!(clock::now() > 0, "backoff consumed virtual time");
    }

    #[test]
    fn retry_exhaustion_returns_the_last_error() {
        let net = Network::new(CostModel::free());
        let plan = net.register("echo", Arc::new(Echo));
        let reliable = net.with_policy(ReliabilityPolicy::default());
        plan.set_partitioned(true);
        assert!(matches!(
            reliable.rpc("echo", b"x"),
            Err(NetError::Partitioned(_))
        ));
        assert!(net.reliability().retries >= 1);
    }

    #[test]
    fn rejections_are_not_retried() {
        struct Reject;
        impl Service for Reject {
            fn handle(&self, _request: &[u8]) -> Result<Vec<u8>> {
                Err(NetError::Rejected("no".to_owned()))
            }
        }
        let net = Network::new(CostModel::free());
        net.register("svc", Arc::new(Reject));
        let reliable = net.with_policy(ReliabilityPolicy::default());
        assert!(matches!(
            reliable.rpc("svc", b"x"),
            Err(NetError::Rejected(_))
        ));
        assert_eq!(net.reliability().retries, 0, "final errors return at once");
    }

    #[test]
    fn failover_prefers_the_first_healthy_replica() {
        let net = Network::new(CostModel::free());
        let plan = net.register("files", Arc::new(Tagged("primary")));
        net.register("files-a", Arc::new(Tagged("a")));
        net.register("files-b", Arc::new(Tagged("b")));
        let reliable = net.with_policy(ReliabilityPolicy {
            replicas: vec!["files-a".to_owned(), "files-b".to_owned()],
            ..ReliabilityPolicy::default()
        });
        assert_eq!(reliable.rpc("files", b"x").expect("rpc"), b"primary");
        assert_eq!(net.reliability().failovers, 0);
        plan.set_partitioned(true);
        assert_eq!(reliable.rpc("files", b"x").expect("failover"), b"a");
        assert_eq!(net.reliability().failovers, 1);
    }

    #[test]
    fn breaker_trips_open_and_rejects_locally() {
        let net = Network::new(CostModel::free());
        let plan = net.register("echo", Arc::new(Echo));
        let reliable = net.with_policy(ReliabilityPolicy {
            retry: RetryPolicy {
                attempts: 1,
                ..RetryPolicy::default()
            },
            breaker: Some(BreakerConfig {
                threshold: 2,
                cooldown_ns: u64::MAX,
            }),
            ..ReliabilityPolicy::default()
        });
        plan.set_partitioned(true);
        assert!(reliable.rpc("echo", b"x").is_err());
        assert!(reliable.rpc("echo", b"x").is_err());
        let snap = net.reliability();
        assert_eq!(snap.breaker_trips, 1);
        // The breaker is now open: the next call never reaches the wire.
        let rpcs_before = net.stats().rpcs;
        assert!(matches!(
            reliable.rpc("echo", b"x"),
            Err(NetError::CircuitOpen(_))
        ));
        assert_eq!(net.stats().rpcs, rpcs_before);
        assert!(net.reliability().breaker_rejections >= 1);
        assert_eq!(
            net.breaker_states(),
            vec![("echo".to_owned(), "open")],
            "clones share breaker state"
        );
    }

    #[test]
    fn breaker_halfopen_probe_closes_on_success() {
        let net = Network::new(CostModel::free());
        let plan = net.register("echo", Arc::new(Echo));
        let reliable = net.with_policy(ReliabilityPolicy {
            retry: RetryPolicy {
                attempts: 1,
                ..RetryPolicy::default()
            },
            breaker: Some(BreakerConfig {
                threshold: 1,
                cooldown_ns: 1_000,
            }),
            ..ReliabilityPolicy::default()
        });
        let _g = clock::install(0);
        plan.set_partitioned(true);
        assert!(reliable.rpc("echo", b"x").is_err());
        assert_eq!(net.breaker_states(), vec![("echo".to_owned(), "open")]);
        plan.set_partitioned(false);
        clock::advance(2_000);
        assert!(reliable.rpc("echo", b"x").is_ok(), "half-open probe");
        assert_eq!(net.breaker_states(), vec![("echo".to_owned(), "closed")]);
    }

    #[test]
    fn describe_reports_configured_faults() {
        let net = Network::new(CostModel::free());
        let plan = net.register("echo", Arc::new(Echo));
        assert_eq!(plan.describe(), "healthy");
        plan.set_partitioned(true);
        plan.partition_window(5, 9);
        plan.latency(10, 2);
        assert_eq!(plan.describe(), "partitioned window=[5,9)ns latency=10ns±2");
        plan.set_partitioned(false);
        assert_eq!(plan.describe(), "window=[5,9)ns latency=10ns±2");
        plan.clear();
        assert_eq!(plan.describe(), "healthy");
    }

    #[test]
    fn clear_heals_every_fault_it_reports() {
        let net = Network::new(CostModel::free());
        let plan = net.register("echo", Arc::new(Echo));
        let _g = clock::install(0);
        plan.set_partitioned(true);
        plan.partition_window(0, u64::MAX);
        plan.drop_next(3);
        plan.flaky(3);
        plan.loss_ppm(1_000_000);
        assert!(net.rpc("echo", b"x").is_err());
        plan.clear();
        assert_eq!(plan.describe(), "healthy");
        for _ in 0..8 {
            assert!(net.rpc("echo", b"x").is_ok(), "nothing is left armed");
        }
        // And the plan arms again after a clear.
        plan.set_partitioned(true);
        assert!(matches!(
            net.rpc("echo", b"x"),
            Err(NetError::Partitioned(_))
        ));
    }

    #[test]
    fn partition_window_can_be_cleared_and_set_again() {
        let net = Network::new(CostModel::free());
        let plan = net.register("echo", Arc::new(Echo));
        let _g = clock::install(1_500);
        let blocked = || matches!(net.rpc("echo", b"x"), Err(NetError::Partitioned(_)));
        plan.partition_window(1_000, 2_000);
        assert!(blocked(), "inside the first window");
        plan.clear();
        assert!(!blocked(), "cleared");
        plan.partition_window(3_000, 4_000);
        assert!(!blocked(), "the new window has not started");
        assert_eq!(plan.describe(), "window=[3000,4000)ns");
        clock::advance(2_000);
        assert!(blocked(), "inside the second window");
        plan.partition_window(0, 10);
        assert!(!blocked(), "a later call replaces the window");
    }
}
