//! The network fabric: service registry, RPC/cast calls, cost accounting,
//! fault injection, and the failover walk every call runs.

use std::collections::HashMap;
use std::iter::once;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use afs_sim::{clock, Cost, CostModel, Generations, SimRng};
use afs_telemetry::{flight_trigger, intern, now_ns, retry_span, ClusterGauges, SpanGuard};

use crate::cluster::Fleet;
use crate::reliability::{
    BreakerConfig, CircuitBreaker, ReliabilityPolicy, ReliabilitySnapshot, ReliabilityStats,
    RetryPolicy,
};
use crate::spare::MessageBuf;
use crate::{NetError, Result, WireWriter};

/// Writes `request`, already encoded, as it is: what the owned forms of a
/// message send.
fn raw(request: &[u8]) -> impl Fn(&mut WireWriter) + '_ {
    move |w| {
        w.raw(request);
    }
}

/// What the owned forms of a message return: the reply buffer itself,
/// which its thread then does not get back, so the reply is not copied.
fn owned(reply: &mut Vec<u8>) -> Result<Vec<u8>> {
    Ok(std::mem::take(reply))
}

/// A remote information source: receives a request payload, returns a
/// response payload. Implementations live in `afs-remote`.
pub trait Service: Send + Sync {
    /// Handles one request.
    ///
    /// # Errors
    ///
    /// Application-level rejections surface as [`NetError::Rejected`].
    fn handle(&self, request: &[u8]) -> Result<Vec<u8>>;

    /// Handles one request, appending the response to `reply`: the network
    /// passes a buffer of the calling thread's, empty, so a service that
    /// writes its reply in place allocates nothing. By default it appends
    /// what [`handle`](Service::handle) returns.
    ///
    /// # Errors
    ///
    /// As [`handle`](Service::handle).
    fn handle_into(&self, request: &[u8], reply: &mut Vec<u8>) -> Result<()> {
        let handled = self.handle(request)?;
        if reply.is_empty() {
            *reply = handled;
        } else {
            reply.extend_from_slice(&handled);
        }
        Ok(())
    }

    /// Handles a one-way message (default: as
    /// [`handle_into`](Service::handle_into), into a buffer of the calling
    /// thread's, the response discarded).
    fn handle_cast(&self, request: &[u8]) {
        let _ = self.handle_into(request, &mut MessageBuf::take());
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

afs_telemetry::metric_family! {
    /// A network's traffic counters, one set per stripe: a message adds to
    /// its own thread's stripe, so two clients' messages write nothing in
    /// common.
    Traffic striped(TrafficCell) => NetworkStats {
        /// Completed request/response calls.
        rpcs: counter "afs_net_rpcs_total",
        /// Fire-and-forget messages delivered.
        casts: counter "afs_net_casts_total",
        /// Total request bytes accepted.
        bytes_sent: counter "afs_net_bytes_sent_total",
        /// Total response bytes returned.
        bytes_received: counter "afs_net_bytes_received_total",
        /// Messages lost to fault injection.
        dropped: counter "afs_net_dropped_total",
    }
}

/// The bits of a remembered registration that hold its index in the
/// registry; the rest hold the stamp of the registry it was found in.
const INDEX_BITS: u32 = 16;

/// The stamp of the next registry published by any network: unique in
/// the process, never 0 (a remembered registration of 0 is none).
static STAMPS: AtomicU64 = AtomicU64::new(1);

fn next_stamp() -> u64 {
    STAMPS.fetch_add(1, Ordering::Relaxed)
}

/// Where each of a list of owner names was last found in a registry: per
/// name, one word holding that registry's stamp and the name's index in
/// it, so a message to the owner finds its service without comparing
/// names until the registry changes. A clone starts over. A word publishes
/// nothing but itself (the registry it names is loaded with `Acquire` on
/// its own), so it is read and written `Relaxed`.
#[derive(Default)]
pub(crate) struct Registrations(Box<[AtomicU64]>);

impl Registrations {
    /// Nothing remembered for `names` names.
    pub(crate) fn new(names: usize) -> Registrations {
        Registrations((0..names).map(|_| AtomicU64::new(0)).collect())
    }
}

impl Clone for Registrations {
    fn clone(&self) -> Registrations {
        Registrations::new(self.0.len())
    }
}

impl std::fmt::Debug for Registrations {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registrations").finish_non_exhaustive()
    }
}

/// A service a message goes to: its name and, for a name of an owner
/// list, where the list remembers its registration.
#[derive(Debug, Clone, Copy)]
pub struct Target<'a> {
    name: &'a str,
    registration: Option<&'a AtomicU64>,
}

impl<'a> From<&'a str> for Target<'a> {
    fn from(name: &'a str) -> Target<'a> {
        Target {
            name,
            registration: None,
        }
    }
}

/// The owner names a path's walk draws from ([`Endpoint::with_owners`]),
/// each with where its registration is remembered.
#[derive(Debug, Clone, Copy)]
pub struct Members<'a> {
    names: &'a [String],
    registrations: &'a [AtomicU64],
}

impl<'a> Members<'a> {
    /// No members: an empty fleet's.
    pub(crate) const NONE: Members<'static> = Members {
        names: &[],
        registrations: &[],
    };

    pub(crate) fn new(names: &'a [String], registrations: &'a Registrations) -> Members<'a> {
        debug_assert_eq!(names.len(), registrations.0.len());
        Members {
            names,
            registrations: &registrations.0,
        }
    }

    /// The name of member `index`.
    pub fn name(&self, index: usize) -> &'a str {
        &self.names[index]
    }

    /// Member `index` as a message's target.
    pub fn target(&self, index: usize) -> Target<'a> {
        Target {
            name: &self.names[index],
            registration: self.registrations.get(index),
        }
    }
}

/// One registered service and its fault state: what a message needs.
struct Registered {
    name: String,
    service: Arc<dyn Service>,
    faults: Arc<Faults>,
}

/// The registry as it stood between two changes: the seed every fault
/// stream derives from, and the services, sorted by name. A change
/// publishes a new one, with a stamp of its own; the services it did not
/// touch are shared with the one before.
#[derive(Clone)]
struct Registry {
    /// Unique among every registry any network publishes: a remembered
    /// [`Registrations`] index is good exactly while the stamp it was
    /// found under is the newest registry's.
    stamp: u64,
    seed: u64,
    services: Vec<Arc<Registered>>,
}

impl Registry {
    /// The next registry: this one as `change` leaves it, newly stamped.
    fn next(&self, change: impl FnOnce(&mut Registry)) -> Registry {
        let mut next = self.clone();
        change(&mut next);
        next.stamp = next_stamp();
        next
    }

    /// Where `name` is (`Ok`) or belongs (`Err`).
    fn position(&self, name: &str) -> std::result::Result<usize, usize> {
        self.services
            .binary_search_by(|registered| registered.name.as_str().cmp(name))
    }

    fn get(&self, name: &str) -> Option<&Registered> {
        let at = self.position(name).ok()?;
        Some(&self.services[at])
    }
}

/// Everything the clones of one network share, in one allocation: a clone
/// moves one reference count for all of it. What a message does here is
/// load the newest registry and add to its own thread's traffic stripe,
/// so two clients' messages write nothing in common. The alignment puts
/// the reference count (the `Arc`'s header) on a line of its own, away
/// from the words every message loads.
#[repr(align(128))]
struct Shared {
    /// `register`, `unregister` and `set_seed` are its changes, and its
    /// change lock serialises them.
    registry: Generations<Registry>,
    model: CostModel,
    traffic: Traffic,
    breakers: Mutex<HashMap<String, CircuitBreaker>>,
    reliability: ReliabilityStats,
    /// The named fleets: read when an endpoint is made, never by a message.
    fleets: Mutex<Vec<(String, Fleet)>>,
}

/// The simulated network connecting sentinels to remote information
/// sources. A clone is one reference count (two under a policy); clones
/// share the registry, the cost model and the statistics.
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
        let shared = Shared {
            registry: Generations::new(Registry {
                stamp: next_stamp(),
                seed: 0,
                services: Vec::new(),
            }),
            model,
            traffic: Traffic::default(),
            breakers: Mutex::default(),
            reliability: ReliabilityStats::default(),
            fleets: Mutex::default(),
        };
        Network {
            shared: Arc::new(shared),
            policy: None,
        }
    }

    /// The registry as the newest change left it.
    fn registry(&self) -> &Registry {
        self.shared.registry.newest()
    }

    /// Sets the seed all per-service fault streams and retry jitter derive
    /// from. Re-seeds the streams of already-registered services, so it can
    /// be called at any point during world construction; a service
    /// registered concurrently is seeded from the one or the other seed,
    /// wholly, and re-seeded if it was the old one.
    pub fn set_seed(&self, seed: u64) {
        let mut change = self.shared.registry.change();
        let next = change.newest().next(|next| next.seed = seed);
        for registered in &next.services {
            *registered.faults.rng.lock() = SimRng::derive(seed, &registered.name);
        }
        change.publish(next);
    }

    /// The current deterministic seed.
    pub fn seed(&self) -> u64 {
        self.registry().seed
    }

    /// Registers (or replaces) a service under `name`, returning the fault
    /// plan for it. A call already in flight to a service it replaces
    /// finishes there; every call after it reaches the new one.
    pub fn register(&self, name: &str, service: Arc<dyn Service>) -> FaultPlan {
        let mut change = self.shared.registry.change();
        let faults = Arc::new(Faults::seeded(change.newest().seed, name));
        let registered = Arc::new(Registered {
            name: name.to_owned(),
            service,
            faults: Arc::clone(&faults),
        });
        let next = change.newest().next(|next| match next.position(name) {
            Ok(at) => next.services[at] = registered,
            Err(at) => next.services.insert(at, registered),
        });
        change.publish(next);
        FaultPlan { faults }
    }

    /// The fault plan of an already-registered service, so tests and tools
    /// can inject faults without re-registering (and thereby resetting) it.
    pub fn plan(&self, name: &str) -> Option<FaultPlan> {
        self.registry().get(name).map(|registered| FaultPlan {
            faults: Arc::clone(&registered.faults),
        })
    }

    /// Removes a service: every call after it answers
    /// [`NetError::ServiceNotFound`], a call already in flight finishes.
    pub fn unregister(&self, name: &str) {
        let mut change = self.shared.registry.change();
        if let Ok(at) = change.newest().position(name) {
            let next = change.newest().next(|next| drop(next.services.remove(at)));
            change.publish(next);
        }
    }

    /// Names of registered services, sorted.
    pub fn services(&self) -> Vec<String> {
        let services = &self.registry().services;
        services.iter().map(|r| r.name.clone()).collect()
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

    /// Names `fleet` (or replaces the fleet of that name): an endpoint
    /// asked for by the name alone is placed over it.
    pub fn register_fleet(&self, name: &str, fleet: Fleet) {
        let mut fleets = self.shared.fleets.lock();
        fleets.retain(|(named, _)| named != name);
        fleets.push((name.to_owned(), fleet));
    }

    /// `owners`, primary first, as reached over this network and under
    /// its policy: each name once, in the order first given. One name that
    /// [`register_fleet`](Network::register_fleet) gave a fleet is that
    /// fleet, placed ([`Network::placed`]).
    pub fn endpoint<'a>(&self, owners: impl IntoIterator<Item = &'a str>) -> Endpoint {
        let mut names: Vec<String> = Vec::new();
        for name in owners {
            if !names.iter().any(|n| n == name) {
                names.push(name.to_owned());
            }
        }
        if let [name] = &names[..] {
            let fleets = self.shared.fleets.lock();
            if let Some((_, fleet)) = fleets.iter().find(|(named, _)| named == name) {
                return self.placed(fleet.clone());
            }
        }
        let (ids, registrations) = ((0..names.len()).collect(), Registrations::new(names.len()));
        self.reach(Owners::Listed(names, ids, registrations))
    }

    /// `fleet` as reached over this network and under its policy: every
    /// path's owners are the ones its placement gives that path.
    pub fn placed(&self, fleet: Fleet) -> Endpoint {
        self.reach(Owners::Placed(fleet))
    }

    fn reach(&self, owners: Owners) -> Endpoint {
        Endpoint {
            net: self.clone(),
            owners,
            staleness_ns: None,
            gauges: None,
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

    /// The service a message to `target` reaches, borrowed from the newest
    /// registry: loads only, no lock and no reference count. A target that
    /// remembers its registration under this registry's stamp is found by
    /// that index; any other is searched for by name and, found, remembered.
    fn lookup(&self, target: Target<'_>) -> Result<&Registered> {
        let registry = self.registry();
        let remembered = target.registration.map_or(0, |r| r.load(Ordering::Relaxed));
        if remembered >> INDEX_BITS == registry.stamp {
            return Ok(&registry.services[(remembered & ((1 << INDEX_BITS) - 1)) as usize]);
        }
        let at = registry
            .position(target.name)
            .map_err(|_| NetError::ServiceNotFound(target.name.to_owned()))?;
        if let Some(registration) = target.registration.filter(|_| at >> INDEX_BITS == 0) {
            registration.store(registry.stamp << INDEX_BITS | at as u64, Ordering::Relaxed);
        }
        Ok(&registry.services[at])
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
        let ppm = faults.loss_ppm.load(Ordering::SeqCst);
        if consume_token(&faults.drop_next) || (ppm > 0 && faults.rng.lock().roll_ppm(ppm)) {
            let (traffic, writer) = self.shared.traffic.cells.mine();
            traffic.dropped.add(writer, 1);
            return Err(NetError::Dropped(name.to_owned()));
        }
        Ok(())
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
            // A breaker opening is a post-mortem moment: freeze the span
            // ring and this thread's open chain while the failing op is
            // still in flight, so the bundle contains its causal trace.
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
    pub fn walk<'a, T, O: Into<Target<'a>>>(
        &self,
        owners: impl Iterator<Item = O> + Clone,
        mut ask: impl FnMut(Owner<'_>) -> Result<Option<T>>,
    ) -> Result<Option<T>> {
        let owners = owners.map(Into::into);
        let primary = || owners.clone().next().map_or("", |target| target.name);
        let policy = self.policy.as_deref();
        let breaker = policy.and_then(|p| p.breaker.as_ref());
        let start = if policy.is_some() { now_ns() } else { 0 };
        let mut last_fault = None;
        // Both made at the first backoff: the happy path is RNG- and
        // span-free.
        let (mut rng, mut span) = (None, None);
        for pass in 0.. {
            let mut declined = false;
            for (index, target) in owners.clone().enumerate() {
                let name = target.name;
                if !self.breaker_allow(breaker, name) {
                    last_fault = Some(self.refused(name));
                    continue;
                }
                match ask(Owner {
                    net: self,
                    target,
                    index,
                }) {
                    Ok(None) => {
                        self.breaker_success(breaker, name);
                        declined = true;
                    }
                    Ok(served) => {
                        self.breaker_success(breaker, name);
                        if index != 0 && policy.is_some() {
                            self.failed_over(name);
                        }
                        return Ok(served);
                    }
                    // A fault moves the walk on (a missing service counts:
                    // another owner may hold the data); an answer is final.
                    Err(err) if err.is_fault() => {
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
        drop(retry_span("breaker-reject", "cause=breaker_open"));
        NetError::CircuitOpen(name.to_owned())
    }

    #[cold]
    fn failed_over(&self, replica: &str) {
        self.shared.reliability.note_failover();
        drop(retry_span(
            "failover",
            intern(&format!("cause=failover replica={replica}")),
        ));
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
        span.get_or_insert_with(|| retry_span("retry", "cause=backoff"));
        clock::advance(wait);
        self.shared.reliability.note_retry();
        true
    }

    /// A walk whose owners never decline.
    #[inline]
    fn call<'a, T>(
        &self,
        owners: impl Iterator<Item = Target<'a>> + Clone,
        mut once: impl FnMut(Target<'_>) -> Result<T>,
    ) -> Result<T> {
        self.walk(owners, |owner| once(owner.target).map(Some))
            .map(|served| served.expect("no owner declines"))
    }

    /// The one request/response path every rpc form takes: the request is
    /// encoded into a buffer of the calling thread's and the service
    /// replies into a second, which `read` reads in place; both go back to
    /// the thread when it returns. Charged and counted by the lengths
    /// alone.
    fn rpc_once<T>(
        &self,
        target: Target<'_>,
        encode: impl FnOnce(&mut WireWriter),
        read: impl FnOnce(&mut Vec<u8>) -> Result<T>,
    ) -> Result<T> {
        let registered = self.lookup(target)?;
        self.check_faults(target.name, &registered.faults)?;
        let mut request = MessageBuf::take();
        request.encode(encode);
        let model = &self.shared.model;
        model.charge(Cost::NetBytes {
            bytes: request.len(),
        });
        model.charge(Cost::NetRoundTrip);
        let mut reply = MessageBuf::take();
        registered.service.handle_into(&request, &mut reply)?;
        model.charge(Cost::NetBytes { bytes: reply.len() });
        let (traffic, writer) = self.shared.traffic.cells.mine();
        traffic.rpcs.add(writer, 1);
        traffic.bytes_sent.add(writer, request.len() as u64);
        traffic.bytes_received.add(writer, reply.len() as u64);
        read(&mut reply)
    }

    /// The one one-way path: [`rpc_once`](Network::rpc_once)'s, with no
    /// reply to read.
    fn cast_once(&self, target: Target<'_>, encode: impl FnOnce(&mut WireWriter)) -> Result<()> {
        let registered = self.lookup(target)?;
        self.check_faults(target.name, &registered.faults)?;
        let mut request = MessageBuf::take();
        request.encode(encode);
        self.shared.model.charge(Cost::NetBytes {
            bytes: request.len(),
        });
        registered.service.handle_cast(&request);
        let (traffic, writer) = self.shared.traffic.cells.mine();
        traffic.casts.add(writer, 1);
        traffic.bytes_sent.add(writer, request.len() as u64);
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
        self.call(once(service.into()), |target| {
            self.rpc_once(target, raw(request), owned)
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
        self.cast_with(service, raw(request))
    }

    /// [`cast`](Network::cast) of the request `encode` writes, into a
    /// buffer of the calling thread's.
    ///
    /// # Errors
    ///
    /// As [`Network::cast`].
    pub fn cast_with<'a>(
        &self,
        service: impl Into<Target<'a>>,
        mut encode: impl FnMut(&mut WireWriter),
    ) -> Result<()> {
        self.call(once(service.into()), |target| {
            self.cast_once(target, &mut encode)
        })
    }

    /// Copies out aggregate statistics, summed over every stripe.
    pub fn stats(&self) -> NetworkStats {
        self.shared.traffic.snapshot()
    }
}

/// One owner as a [`Network::walk`] hands it to its caller: a message to
/// it is sent once, with no retry or failover of its own — the walk
/// around it is the only one.
#[derive(Clone, Copy)]
pub struct Owner<'a> {
    net: &'a Network,
    target: Target<'a>,
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
        self.net.rpc_once(self.target, raw(request), owned)
    }

    /// [`rpc`](Owner::rpc) of the request `encode` writes, whose reply
    /// `read` reads where it landed: both are buffers of the calling
    /// thread's, so the message allocates nothing.
    ///
    /// # Errors
    ///
    /// As [`rpc`](Owner::rpc), and whatever `read` returns.
    pub fn rpc_with<T>(
        &self,
        encode: impl FnOnce(&mut WireWriter),
        read: impl FnOnce(&[u8]) -> Result<T>,
    ) -> Result<T> {
        self.net.rpc_once(self.target, encode, |reply| read(reply))
    }
}

/// Owner lists up to this long are walked from the stack, not the heap.
const INLINE_OWNERS: usize = 8;

/// Who owns a path at an endpoint.
#[derive(Debug, Clone)]
enum Owners {
    /// The same owners for every path, primary first, their indices and
    /// where their registrations are remembered.
    Listed(Vec<String>, Vec<usize>, Registrations),
    /// The owners a fleet's placement gives each path.
    Placed(Fleet),
}

/// A service as one caller reaches it: the caller's network and policy;
/// the owners, listed ([`Network::endpoint`]) or placed per path over a
/// fleet ([`Network::placed`]); and what a session over it reads under.
/// Every call is a [`Network::walk`] over one path's owners.
#[derive(Debug, Clone)]
pub struct Endpoint {
    net: Network,
    owners: Owners,
    staleness_ns: Option<u64>,
    gauges: Option<Arc<ClusterGauges>>,
}

impl Endpoint {
    /// This endpoint for a session that reads within `staleness_ns` (how
    /// long a read may go without a copy that holds the session's
    /// acknowledged writes; `None`: it fails at once) and feeds `gauges`.
    pub fn for_session(
        mut self,
        staleness_ns: Option<u64>,
        gauges: Option<Arc<ClusterGauges>>,
    ) -> Endpoint {
        (self.staleness_ns, self.gauges) = (staleness_ns, gauges);
        self
    }

    /// The session's staleness budget, ns.
    pub fn staleness_ns(&self) -> Option<u64> {
        self.staleness_ns
    }

    /// The gauges a session over this endpoint feeds, if it was given any.
    pub fn gauges(&self) -> Option<&Arc<ClusterGauges>> {
        self.gauges.as_ref()
    }

    /// The fleet this endpoint is placed over, if it is.
    pub fn fleet(&self) -> Option<&Fleet> {
        match &self.owners {
            Owners::Placed(fleet) => Some(fleet),
            Owners::Listed(..) => None,
        }
    }

    /// The network its calls travel, under the caller's policy.
    pub fn net(&self) -> &Network {
        &self.net
    }

    /// Runs `walk` over the owner names and, as indices into them,
    /// `path`'s owners, primary first, borrowed: up to eight owners,
    /// nothing is allocated. Over a fleet it runs under the fleet's read
    /// side, which `walk` must not take again (nested behind a waiting
    /// change, it deadlocks); an empty fleet answers `ServiceNotFound`.
    pub fn with_owners<T>(
        &self,
        path: &str,
        walk: impl FnOnce(Members<'_>, &[usize]) -> Result<T>,
    ) -> Result<T> {
        let fleet = match &self.owners {
            Owners::Listed(names, ids, registrations) => {
                return walk(Members::new(names, registrations), ids)
            }
            Owners::Placed(fleet) => fleet,
        };
        let membership = fleet.0.read();
        let placement = &membership.placement;
        let (mut inline, mut spilled) = ([0; INLINE_OWNERS], Vec::new());
        let ids = if placement.copies() <= INLINE_OWNERS {
            &mut inline[..]
        } else {
            spilled.resize(placement.copies(), 0);
            &mut spilled[..]
        };
        let ids = placement.owner_indices(path, ids);
        if ids.is_empty() {
            return Err(NetError::ServiceNotFound("empty cluster".to_owned()));
        }
        walk(placement.members(), ids)
    }

    /// A walk of one message to the first of `path`'s owners to take it.
    fn call<T>(&self, path: &str, once: impl FnMut(Target<'_>) -> Result<T>) -> Result<T> {
        self.with_owners(path, |members, ids| {
            self.net
                .call(ids.iter().map(|&id| members.target(id)), once)
        })
    }

    /// Request/response from the first of `path`'s owners to serve,
    /// charged as [`Network::rpc`]; its errors are [`Network::walk`]'s.
    pub fn rpc_at(&self, path: &str, request: &[u8]) -> Result<Vec<u8>> {
        self.call(path, |target| {
            self.net.rpc_once(target, raw(request), owned)
        })
    }

    /// [`rpc_at`](Endpoint::rpc_at) of the request `encode` writes: `read`
    /// reads the reply of the owner that served, where it landed
    /// ([`Owner::rpc_with`]).
    ///
    /// # Errors
    ///
    /// [`Network::walk`]'s.
    pub fn rpc_at_with<T>(
        &self,
        path: &str,
        mut encode: impl FnMut(&mut WireWriter),
        mut read: impl FnMut(&[u8]) -> T,
    ) -> Result<T> {
        self.call(path, |target| {
            self.net
                .rpc_once(target, &mut encode, |reply| Ok(read(reply)))
        })
    }

    /// [`rpc_at`](Endpoint::rpc_at) for a service that owns no paths:
    /// over a fleet, the owners of the empty one.
    pub fn rpc(&self, request: &[u8]) -> Result<Vec<u8>> {
        self.rpc_at("", request)
    }

    /// Fire-and-forget to the first of `path`'s owners to take it, charged
    /// as [`Network::cast`]; its errors are [`Network::walk`]'s.
    pub fn cast_at(&self, path: &str, request: &[u8]) -> Result<()> {
        self.cast_at_with(path, raw(request))
    }

    /// [`cast_at`](Endpoint::cast_at) of the request `encode` writes.
    ///
    /// # Errors
    ///
    /// [`Network::walk`]'s.
    pub fn cast_at_with(&self, path: &str, mut encode: impl FnMut(&mut WireWriter)) -> Result<()> {
        self.call(path, |target| self.net.cast_once(target, &mut encode))
    }

    /// [`cast_at`](Endpoint::cast_at) for a service that owns no paths.
    pub fn cast(&self, request: &[u8]) -> Result<()> {
        self.cast_at("", request)
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
    fn a_remembered_registration_follows_the_registry() {
        let net = Network::new(CostModel::free());
        net.register("b", Arc::new(Tagged("b")));
        let endpoint = net.endpoint(["b"]);
        assert_eq!(endpoint.rpc(b"x").expect("rpc"), b"b");
        // A service sorted ahead of it moves it one index on, and one of
        // its name replaces it.
        net.register("a", Arc::new(Tagged("a")));
        assert_eq!(endpoint.rpc(b"x").expect("rpc"), b"b");
        net.register("b", Arc::new(Tagged("b2")));
        assert_eq!(endpoint.rpc(b"x").expect("rpc"), b"b2");
        net.unregister("a");
        assert_eq!(endpoint.rpc(b"x").expect("rpc"), b"b2");
        net.unregister("b");
        assert!(matches!(
            endpoint.rpc(b"x"),
            Err(NetError::ServiceNotFound(_))
        ));
        // One fleet placed over two networks: each message finds its own
        // network's service, at whatever index it has there.
        let fleet = Fleet::new(1);
        fleet.add_node("m");
        let (one, two) = (
            Network::new(CostModel::free()),
            Network::new(CostModel::free()),
        );
        one.register("a", Arc::new(Tagged("a")));
        one.register("m", Arc::new(Tagged("m on one")));
        two.register("m", Arc::new(Tagged("m on two")));
        let (at_one, at_two) = (one.placed(fleet.clone()), two.placed(fleet));
        for _ in 0..3 {
            assert_eq!(at_one.rpc_at("/f", b"x").expect("one"), b"m on one");
            assert_eq!(at_two.rpc_at("/f", b"x").expect("two"), b"m on two");
        }
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
    fn stats_are_exact_after_two_threads_of_traffic() {
        const N: u64 = 2_000;
        let net = Network::new(CostModel::free());
        net.register("echo", Arc::new(Echo));
        net.register("lossy", Arc::new(Echo)).drop_next(2 * N);
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    start.wait();
                    for _ in 0..N {
                        assert_eq!(net.rpc("echo", b"ping").expect("rpc"), b"ping");
                        net.cast("echo", b"abc").expect("cast");
                        let lost = net.rpc("lossy", b"x");
                        assert!(matches!(lost, Err(NetError::Dropped(_))));
                    }
                });
            }
        });
        let expect = NetworkStats {
            rpcs: 2 * N,
            casts: 2 * N,
            bytes_sent: 2 * N * 7,
            bytes_received: 2 * N * 4,
            dropped: 2 * N,
        };
        assert_eq!(net.stats(), expect);
    }

    /// Blocks each request until the test lets it through.
    struct Gate {
        entered: std::sync::Barrier,
        release: std::sync::Barrier,
    }

    impl Service for Gate {
        fn handle(&self, request: &[u8]) -> Result<Vec<u8>> {
            self.entered.wait();
            self.release.wait();
            Ok(request.to_vec())
        }
    }

    #[test]
    fn registry_changes_reach_a_thread_mid_traffic_at_its_next_call() {
        use std::sync::atomic::AtomicU8;

        // What the changing thread has done: 1 after `register` returned,
        // 2 before `unregister` is called, 3 after it returned.
        const REGISTERED: u8 = 1;
        const UNREGISTERING: u8 = 2;
        const GONE: u8 = 3;
        let net = Network::new(CostModel::free());
        net.register("echo", Arc::new(Echo));
        let phase = AtomicU8::new(0);
        let (mut reached, mut refused) = (0u64, 0u64);
        std::thread::scope(|scope| {
            let traffic = scope.spawn(|| {
                let mut before = 0;
                while before != GONE {
                    net.rpc("echo", b"x").expect("the other service stays");
                    // A call started after a change returned sees it.
                    before = phase.load(Ordering::SeqCst);
                    match net.rpc("late", b"hi") {
                        Ok(reply) => {
                            assert_ne!(before, GONE, "reached after unregister returned");
                            assert_eq!(reply, b"late");
                            reached += 1;
                        }
                        Err(NetError::ServiceNotFound(_)) => {
                            // Only a miss with the service registered from
                            // before the call to after it is one: an
                            // unregister may have begun in between.
                            let after = phase.load(Ordering::SeqCst);
                            assert!(
                                (before, after) != (REGISTERED, REGISTERED),
                                "missed after register returned"
                            );
                            refused += 1;
                        }
                        Err(err) => panic!("{err:?}"),
                    }
                }
            });
            while net.stats().rpcs < 1_000 {
                std::thread::yield_now();
            }
            net.register("late", Arc::new(Tagged("late")));
            phase.store(REGISTERED, Ordering::SeqCst);
            let at = net.stats().rpcs;
            while net.stats().rpcs < at + 2_000 {
                std::thread::yield_now();
            }
            phase.store(UNREGISTERING, Ordering::SeqCst);
            net.unregister("late");
            phase.store(GONE, Ordering::SeqCst);
            traffic.join().expect("traffic");
        });
        assert!(reached > 0 && refused > 0, "{reached} / {refused}");

        // A call already in flight when its service goes finishes there.
        let gate = Arc::new(Gate {
            entered: std::sync::Barrier::new(2),
            release: std::sync::Barrier::new(2),
        });
        net.register("gate", Arc::clone(&gate) as Arc<dyn Service>);
        std::thread::scope(|scope| {
            let call = scope.spawn(|| net.rpc("gate", b"in flight"));
            gate.entered.wait();
            net.unregister("gate");
            gate.release.wait();
            assert_eq!(call.join().expect("call"), Ok(b"in flight".to_vec()));
        });
        assert!(matches!(
            net.rpc("gate", b"x"),
            Err(NetError::ServiceNotFound(_))
        ));
    }

    #[test]
    fn a_service_registered_while_the_seed_changes_takes_the_new_seed() {
        let losses = |net: &Network, plan: &FaultPlan| {
            plan.loss_ppm(500_000);
            (0..64)
                .map(|_| net.rpc("svc", b"x").is_err())
                .collect::<Vec<bool>>()
        };
        let seeded = Network::new(CostModel::free());
        seeded.set_seed(2);
        let plan = seeded.register("svc", Arc::new(Echo));
        let expect = losses(&seeded, &plan);
        for round in 0..500 {
            let net = Network::new(CostModel::free());
            net.set_seed(1);
            // Both sides spin, so the two calls start within a few
            // nanoseconds of each other (a barrier's wake-up is slower
            // than the whole race).
            let (ready, go) = (AtomicBool::new(false), AtomicBool::new(false));
            let plan = std::thread::scope(|scope| {
                scope.spawn(|| {
                    ready.store(true, Ordering::SeqCst);
                    while !go.load(Ordering::SeqCst) {
                        std::hint::spin_loop();
                    }
                    net.set_seed(2);
                });
                while !ready.load(Ordering::SeqCst) {
                    std::hint::spin_loop();
                }
                go.store(true, Ordering::SeqCst);
                net.register("svc", Arc::new(Echo))
            });
            // Registered before the change, the service was re-seeded;
            // after it, seeded from the new seed: never the old stream.
            assert_eq!(losses(&net, &plan), expect, "round {round}");
        }
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
