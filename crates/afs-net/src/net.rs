//! The network fabric: service registry, RPC/cast calls, cost accounting,
//! fault injection, and the failover walk every call runs.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use afs_sim::{clock, Cost, CostModel, SimRng};
use afs_telemetry::{flight_note, flight_trigger, intern, now_ns, retry_span_noted, SpanGuard};

use crate::reliability::{
    BreakerConfig, CircuitBreaker, ReliabilityPolicy, ReliabilitySnapshot, ReliabilityStats,
    RetryPolicy,
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
struct Registered {
    service: Arc<dyn Service>,
    faults: Arc<Faults>,
}

/// Everything the clones of one network share, in one allocation: a clone
/// bumps one reference count for all of it, and the words every message
/// writes (the registry's reader count and the traffic counters) sit
/// together instead of on eight lines.
#[derive(Default)]
struct Shared {
    registry: RwLock<HashMap<String, Arc<Registered>>>,
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
/// Every call is a [`Network::walk`] over the owners its caller names —
/// one for [`Network::rpc`]/[`Network::cast`], an [`Endpoint`]'s list,
/// a cluster's placement. A clone produced by [`Network::with_policy`]
/// walks under that policy: retry with deterministic exponential backoff
/// and per-service circuit breaking. Breakers and reliability counters
/// stay shared across all clones, so one sentinel tripping a breaker
/// protects every other caller.
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
        let registered = Registered {
            service,
            faults: Arc::clone(&faults),
        };
        self.shared
            .registry
            .write()
            .insert(name.to_owned(), Arc::new(registered));
        FaultPlan { faults }
    }

    /// The fault plan of an already-registered service, so tests and tools
    /// can inject faults without re-registering (and thereby resetting) it.
    pub fn plan(&self, name: &str) -> Option<FaultPlan> {
        self.shared.registry.read().get(name).map(|e| FaultPlan {
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

    /// A clone of this network that walks every call under `policy`:
    /// retry with deterministic backoff and (when configured) circuit
    /// breaking. Which owners a call walks stays the caller's. The
    /// registry, statistics, breakers, and reliability counters remain
    /// shared with the original.
    pub fn with_policy(&self, policy: ReliabilityPolicy) -> Network {
        let mut clone = self.clone();
        clone.policy = Some(Arc::new(policy));
        clone
    }

    /// `owners`, primary first, as reached over this network and under
    /// its policy: each name once, in the order first given.
    pub fn endpoint<'a>(&self, owners: impl IntoIterator<Item = &'a str>) -> Endpoint {
        let mut names: Vec<String> = Vec::new();
        for name in owners {
            if !names.iter().any(|n| n == name) {
                names.push(name.to_owned());
            }
        }
        Endpoint {
            net: self.clone(),
            owners: names,
        }
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

    fn lookup(&self, name: &str) -> Result<Arc<Registered>> {
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

    /// Whether an error is a fault of the transport rather than an answer:
    /// the walk moves on to the next owner (a missing service counts —
    /// another owner may hold the data). Application-level rejections and
    /// codec errors are answers, and final.
    fn retryable(err: &NetError) -> bool {
        matches!(
            err,
            NetError::Dropped(_) | NetError::Partitioned(_) | NetError::ServiceNotFound(_)
        )
    }

    /// Runs `f` on `name`'s breaker, made from `cfg` on first use: only a
    /// service's first call under a breaker names it into the map.
    fn with_breaker<T>(
        &self,
        cfg: &BreakerConfig,
        name: &str,
        f: impl FnOnce(&mut CircuitBreaker) -> T,
    ) -> T {
        let mut map = self.shared.breakers.lock();
        if let Some(breaker) = map.get_mut(name) {
            return f(breaker);
        }
        f(map
            .entry(name.to_owned())
            .or_insert_with(|| CircuitBreaker::new(cfg.clone())))
    }

    fn breaker_allow(&self, cfg: Option<&BreakerConfig>, name: &str) -> bool {
        cfg.is_none_or(|cfg| self.with_breaker(cfg, name, |b| b.allow(now_ns())))
    }

    fn breaker_success(&self, cfg: Option<&BreakerConfig>, name: &str) {
        if cfg.is_some() {
            if let Some(b) = self.shared.breakers.lock().get_mut(name) {
                b.on_success();
            }
        }
    }

    fn breaker_failure(&self, cfg: Option<&BreakerConfig>, name: &str) {
        let Some(cfg) = cfg else {
            return;
        };
        if self.with_breaker(cfg, name, |b| b.on_failure(now_ns())) {
            self.shared.reliability.note_breaker_trip();
            // A breaker opening is a post-mortem moment: freeze the recent
            // spans and event rings while the failing op is still in
            // flight, so the bundle contains its causal trace.
            flight_trigger("breaker_open", format!("service={name}"));
        }
    }

    /// The failover walk, the tree's only one: asks `owners`, primary
    /// first, until one serves. `ask` gets each as an [`Owner`] taking one
    /// message and returns `Ok(Some(_))` (served), `Ok(None)` (answered,
    /// but not this owner — a copy behind the caller's floor, a file it
    /// lacks: the walk moves on, the caller keeps its own reading of why)
    /// or an error: a transport fault moves the walk on, any other ends it.
    ///
    /// Without a policy that is one pass and nothing else. Under
    /// [`Network::with_policy`] each owner's breaker is asked first, and a
    /// pass that met only faults is repeated after a jittered exponential
    /// backoff in *virtual* time (so a [`FaultPlan::partition_window`]
    /// heals while we wait), within the policy's attempts and deadline.
    ///
    /// # Errors
    ///
    /// The first answer that is not a fault; else the last fault or
    /// breaker refusal. A pass an owner declined in ends with `Ok(None)`.
    #[inline]
    pub fn walk<'a, T>(
        &self,
        owners: impl Iterator<Item = &'a str> + Clone,
        mut ask: impl FnMut(Owner<'_>) -> Result<Option<T>>,
    ) -> Result<Option<T>> {
        let primary = || owners.clone().next().unwrap_or_default();
        let policy = self.policy.as_deref();
        let breaker = policy.and_then(|p| p.breaker.as_ref());
        let start = if policy.is_some() { now_ns() } else { 0 };
        let mut last_fault = None;
        // Both made at the first backoff: the happy path is RNG- and
        // span-free.
        let (mut rng, mut span) = (None, None);
        for pass in 0.. {
            let mut declined = false;
            for (index, name) in owners.clone().enumerate() {
                if !self.breaker_allow(breaker, name) {
                    last_fault = Some(self.refused(name));
                    continue;
                }
                match ask(Owner {
                    net: self,
                    name,
                    index,
                }) {
                    Ok(None) => {
                        self.breaker_success(breaker, name);
                        declined = true;
                    }
                    Ok(served) => {
                        self.breaker_success(breaker, name);
                        if index != 0 && policy.is_some() {
                            self.failed_over(primary(), name);
                        }
                        return Ok(served);
                    }
                    Err(err) if Self::retryable(&err) => {
                        self.breaker_failure(breaker, name);
                        last_fault = Some(err);
                    }
                    Err(err) => {
                        // An application-level rejection means the service
                        // answered: the transport is healthy, so a half-open
                        // probe resolves (and the failure streak resets)
                        // rather than staying in flight forever.
                        self.breaker_success(breaker, name);
                        return Err(err);
                    }
                }
            }
            if declined {
                return Ok(None);
            }
            let Some(policy) = policy else {
                break;
            };
            if !self.back_off(&policy.retry, pass, start, primary(), &mut rng, &mut span) {
                break;
            }
        }
        drop(span);
        Err(last_fault.unwrap_or_else(|| NetError::ServiceNotFound(primary().to_owned())))
    }

    /// A breaker refused `name` locally: the refusal is part of the op's
    /// causal story, so an annotated zero-work child span records it.
    #[cold]
    fn refused(&self, name: &str) -> NetError {
        self.shared.reliability.note_breaker_rejection();
        drop(retry_span_noted("breaker-reject", "cause=breaker_open"));
        flight_note("net", format!("breaker_reject service={name}"));
        NetError::CircuitOpen(name.to_owned())
    }

    #[cold]
    fn failed_over(&self, primary: &str, replica: &str) {
        self.shared.reliability.note_failover();
        let _sp = retry_span_noted(
            "failover",
            intern(&format!("cause=failover replica={replica}")),
        );
        flight_note(
            "net",
            format!("failover service={primary} replica={replica}"),
        );
    }

    /// Waits out the backoff before the pass after `pass`, if `retry`
    /// allows one: exponential, plus jitter from `primary`'s stream
    /// (derived at the first wait), within the deadline counted from
    /// `start`. The retry span opens at the first wait.
    #[cold]
    fn back_off(
        &self,
        retry: &RetryPolicy,
        pass: u32,
        start: u64,
        primary: &str,
        rng: &mut Option<SimRng>,
        span: &mut Option<Option<SpanGuard>>,
    ) -> bool {
        if pass + 1 >= retry.attempts.max(1) {
            return false;
        }
        let backoff = retry
            .base_backoff_ns
            .saturating_mul(1u64 << pass.min(20))
            .min(retry.max_backoff_ns);
        let jitter = rng.get_or_insert_with(|| SimRng::derive(self.seed(), primary));
        let wait = backoff.saturating_add(jitter.next_below(backoff / 2 + 1));
        if now_ns().saturating_sub(start).saturating_add(wait) > retry.deadline_ns {
            return false;
        }
        span.get_or_insert_with(|| retry_span_noted("retry", "cause=backoff"));
        clock::advance(wait);
        self.shared.reliability.note_retry();
        true
    }

    /// A walk whose owners never decline.
    #[inline]
    fn call<'a, T>(
        &self,
        owners: impl Iterator<Item = &'a str> + Clone,
        mut once: impl FnMut(&str) -> Result<T>,
    ) -> Result<T> {
        self.walk(owners, |owner| once(owner.name).map(Some))
            .map(|served| served.expect("no owner declines"))
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
    /// back — the read critical path of Figure 5 path 1. A walk of one
    /// owner: on a policy-carrying clone ([`Network::with_policy`])
    /// transient failures are retried per the policy.
    ///
    /// # Errors
    ///
    /// [`NetError::ServiceNotFound`], fault-injection errors,
    /// [`NetError::CircuitOpen`] when the breaker refuses the call, or
    /// whatever the service rejects with.
    pub fn rpc(&self, service: &str, request: &[u8]) -> Result<Vec<u8>> {
        self.call(std::iter::once(service), |name| {
            self.rpc_once(name, request)
        })
    }

    /// Fire-and-forget message to a service: charged only the outbound
    /// per-byte streaming cost, no round trip ("writes are issued without
    /// waiting for their completion", §6). A walk of one owner, like
    /// [`Network::rpc`].
    ///
    /// # Errors
    ///
    /// [`NetError::ServiceNotFound`], fault-injection errors, and
    /// [`NetError::CircuitOpen`]; delivery itself cannot fail.
    pub fn cast(&self, service: &str, request: &[u8]) -> Result<()> {
        self.call(std::iter::once(service), |name| {
            self.cast_once(name, request)
        })
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

/// One owner as a [`Network::walk`] hands it to its caller: a message to
/// it is sent once, with no retry or failover of its own — the walk
/// around it is the only one.
#[derive(Clone, Copy)]
pub struct Owner<'a> {
    net: &'a Network,
    name: &'a str,
    index: usize,
}

impl Owner<'_> {
    /// Its place in the walk's owner list: 0 is the primary.
    pub fn index(&self) -> usize {
        self.index
    }

    /// One request/response, charged and failing as [`Network::rpc`] does
    /// (a breaker's refusal is the walk's).
    pub fn rpc(&self, request: &[u8]) -> Result<Vec<u8>> {
        self.net.rpc_once(self.name, request)
    }
}

/// A service as one caller reaches it: the caller's network, with its
/// policy if any, and the service's owners, primary first
/// ([`Network::endpoint`]). Every call is a [`Network::walk`] over them.
#[derive(Debug, Clone)]
pub struct Endpoint {
    net: Network,
    owners: Vec<String>,
}

impl Endpoint {
    fn owners(&self) -> impl Iterator<Item = &str> + Clone {
        self.owners.iter().map(String::as_str)
    }

    /// Request/response from the first owner to serve, charged as
    /// [`Network::rpc`]; its errors are [`Network::walk`]'s.
    pub fn rpc(&self, request: &[u8]) -> Result<Vec<u8>> {
        self.net
            .call(self.owners(), |name| self.net.rpc_once(name, request))
    }

    /// Fire-and-forget to the first owner to take it, charged as
    /// [`Network::cast`]; its errors are [`Network::walk`]'s.
    pub fn cast(&self, request: &[u8]) -> Result<()> {
        self.net
            .call(self.owners(), |name| self.net.cast_once(name, request))
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
        let reliable = net
            .with_policy(ReliabilityPolicy::default())
            .endpoint(["files", "files-a", "files-b"]);
        assert_eq!(reliable.rpc(b"x").expect("rpc"), b"primary");
        assert_eq!(net.reliability().failovers, 0);
        plan.set_partitioned(true);
        assert_eq!(reliable.rpc(b"x").expect("failover"), b"a");
        assert_eq!(net.reliability().failovers, 1);
    }

    /// Counts the messages that reach it.
    #[derive(Default)]
    struct Counted(std::sync::atomic::AtomicU64);

    impl Service for Counted {
        fn handle(&self, _request: &[u8]) -> Result<Vec<u8>> {
            self.0.fetch_add(1, Ordering::SeqCst);
            Ok(Vec::new())
        }
    }

    #[test]
    fn an_endpoint_asks_each_owner_once_in_the_order_given() {
        let net = Network::new(CostModel::free());
        let counts: Vec<Arc<Counted>> = (0..2).map(|_| Arc::default()).collect();
        let primary = net.register("a", Arc::clone(&counts[0]) as Arc<dyn Service>);
        net.register("b", Arc::clone(&counts[1]) as Arc<dyn Service>);
        let endpoint = net.endpoint(["a", "b", "a", "b"]);
        primary.set_partitioned(true);
        endpoint.cast(b"x").expect("the second owner takes it");
        net.plan("b").expect("plan").set_partitioned(true);
        let _g = clock::install(0);
        assert!(matches!(endpoint.rpc(b"x"), Err(NetError::Partitioned(_))));
        // Duplicates are dropped: a policy-free walk is one pass, each
        // owner asked once, and it counts no failover, retry or time.
        assert_eq!(net.stats().casts, 1);
        assert_eq!(counts[1].0.load(Ordering::SeqCst), 1);
        assert_eq!(net.reliability(), ReliabilitySnapshot::default());
        assert_eq!(clock::now(), 0);
    }

    #[test]
    fn a_pass_an_owner_declined_ends_the_walk() {
        let net = Network::new(CostModel::free());
        net.register("a", Arc::new(Echo));
        let plan = net.register("b", Arc::new(Echo));
        plan.set_partitioned(true);
        let reliable = net.with_policy(ReliabilityPolicy::default());
        let mut asked = Vec::new();
        let walked = reliable.walk(["a", "b"].into_iter(), |owner| {
            asked.push(owner.index());
            owner.rpc(b"x").map(|_| None::<()>)
        });
        // `a` answered but declined, `b` was partitioned: no backoff and
        // no second pass, whatever the policy allows.
        assert_eq!(walked, Ok(None));
        assert_eq!(asked, [0, 1]);
        assert_eq!(net.reliability().retries, 0);
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
