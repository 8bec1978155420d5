//! The reliability layer: retry policies, per-service circuit breakers,
//! replica failover, and the shared counters the telemetry exports.
//!
//! The paper's sentinels mediate between a legacy application and remote
//! services; the related middleware literature (fault-tolerant dispatch to
//! legacy workers, confined IPC) argues the mediation layer is the right
//! place to absorb faults. Here that layer is the [`Network`] itself: a
//! sentinel whose spec carries `retry`/`replicas`/`breaker.*` keys gets a
//! policy-carrying network clone ([`Network::with_policy`]), and every
//! remote call it makes — through any typed client — runs the recovery
//! loop in `net.rs` governed by the types in this module.
//!
//! [`Network`]: crate::Network

use std::sync::atomic::Ordering;

/// How a failed remote call is retried.
///
/// Backoff is exponential from [`RetryPolicy::base_backoff_ns`] up to
/// [`RetryPolicy::max_backoff_ns`], plus deterministic jitter drawn from
/// the world's seeded RNG. Backoff consumes *virtual* time (the per-thread
/// [`afs_sim::clock`]), so a partition scheduled to heal at a virtual
/// instant genuinely heals while the caller "waits".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per candidate round (1 = no retry).
    pub attempts: u32,
    /// Give up once the next backoff would pass this many ns after the
    /// first attempt started.
    pub deadline_ns: u64,
    /// First backoff duration, ns.
    pub base_backoff_ns: u64,
    /// Backoff cap, ns.
    pub max_backoff_ns: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 3,
            deadline_ns: 1_000_000_000, // 1 virtual second
            base_backoff_ns: 100_000,   // 100 µs
            max_backoff_ns: 10_000_000, // 10 ms
        }
    }
}

/// Circuit-breaker thresholds for one policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive failures that trip the breaker open.
    pub threshold: u32,
    /// How long an open breaker refuses calls before allowing a
    /// half-open probe, ns.
    pub cooldown_ns: u64,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            threshold: 5,
            cooldown_ns: 100_000_000, // 100 ms
        }
    }
}

/// The full reliability policy one sentinel's network clone enforces.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReliabilityPolicy {
    /// Retry schedule.
    pub retry: RetryPolicy,
    /// Fallback services tried, in order, when the requested one fails.
    pub replicas: Vec<String>,
    /// Circuit breaker, if enabled.
    pub breaker: Option<BreakerConfig>,
}

/// One service's circuit breaker: closed → open → half-open → closed.
///
/// * **closed** — calls flow; consecutive failures count up.
/// * **open** — calls are refused locally ([`crate::NetError::CircuitOpen`])
///   until the cooldown elapses.
/// * **half-open** — exactly **one** probe is allowed through; while it is
///   in flight every other caller is refused, so a recovering service never
///   sees a thundering herd the instant the cooldown elapses. The probe's
///   success closes the breaker, its failure re-opens it. A probe that
///   stays unresolved for a full cooldown is presumed lost and a fresh
///   probe is admitted — a vanished caller cannot wedge the breaker.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    state: BreakerState,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BreakerState {
    Closed {
        failures: u32,
    },
    Open {
        until_ns: u64,
    },
    /// One probe is in flight, admitted at `probe_started_ns`; further
    /// callers are refused until `on_success`/`on_failure` resolves it.
    /// A probe silent for a full cooldown is presumed lost (its caller
    /// panicked, or bypassed the resolve contract) and a fresh probe is
    /// admitted, so a wedged probe can never refuse callers forever.
    HalfOpen {
        probe_started_ns: u64,
    },
}

impl CircuitBreaker {
    /// A closed breaker with the given thresholds.
    pub fn new(config: BreakerConfig) -> Self {
        CircuitBreaker {
            config,
            state: BreakerState::Closed { failures: 0 },
        }
    }

    /// Whether a call may proceed at time `now_ns`. An open breaker whose
    /// cooldown has elapsed transitions to half-open and admits **one**
    /// probe; until that probe resolves every further caller is refused.
    /// A probe unresolved for a full cooldown is presumed lost and its
    /// slot re-armed, so a caller that dies without resolving cannot
    /// wedge the breaker permanently.
    pub fn allow(&mut self, now_ns: u64) -> bool {
        match self.state {
            BreakerState::Closed { .. } => true,
            BreakerState::HalfOpen { probe_started_ns } => {
                if now_ns < probe_started_ns.saturating_add(self.config.cooldown_ns) {
                    return false;
                }
                self.state = BreakerState::HalfOpen {
                    probe_started_ns: now_ns,
                };
                true
            }
            BreakerState::Open { until_ns } => {
                if now_ns >= until_ns {
                    self.state = BreakerState::HalfOpen {
                        probe_started_ns: now_ns,
                    };
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Records a successful call: any state closes.
    pub fn on_success(&mut self) {
        self.state = BreakerState::Closed { failures: 0 };
    }

    /// Records a failed call at `now_ns`. Returns `true` when this failure
    /// trips the breaker open (for the trip counter).
    pub fn on_failure(&mut self, now_ns: u64) -> bool {
        match self.state {
            BreakerState::Closed { failures } => {
                let failures = failures + 1;
                if failures >= self.config.threshold {
                    self.state = BreakerState::Open {
                        until_ns: now_ns.saturating_add(self.config.cooldown_ns),
                    };
                    true
                } else {
                    self.state = BreakerState::Closed { failures };
                    false
                }
            }
            BreakerState::HalfOpen { .. } => {
                self.state = BreakerState::Open {
                    until_ns: now_ns.saturating_add(self.config.cooldown_ns),
                };
                true
            }
            BreakerState::Open { .. } => false,
        }
    }

    /// Human-readable state name: `"closed"`, `"open"`, or `"half-open"`.
    pub fn state_label(&self) -> &'static str {
        match self.state {
            BreakerState::Closed { .. } => "closed",
            BreakerState::Open { .. } => "open",
            BreakerState::HalfOpen { .. } => "half-open",
        }
    }
}

afs_telemetry::metric_family! {
    /// Shared reliability counters — one set per [`crate::Network`] (clones
    /// share it), exported to Prometheus by the world's metrics collector.
    ReliabilityStats => ReliabilitySnapshot {
        /// Backoff-then-reattempt rounds performed.
        retries: counter "afs_retries_total",
        /// Calls answered by a non-primary replica.
        failovers: counter "afs_failovers_total",
        /// Times a circuit breaker tripped open.
        breaker_trips: counter "afs_breaker_trips_total",
        /// Calls refused locally by an open breaker.
        breaker_rejections: counter "afs_breaker_rejections_total",
        /// Reads served from stale cache in degraded mode.
        degraded_reads: counter "afs_degraded_reads_total",
        /// Writes queued for replay while the remote was down.
        queued_writes: counter "afs_queued_writes_total",
        /// Queued writes successfully replayed after heal.
        replayed_writes: counter "afs_replayed_writes_total",
    }
}

impl ReliabilityStats {
    /// One retry round (backoff consumed, attempts restarting).
    pub fn note_retry(&self) {
        self.retries.fetch_add(1, Ordering::Relaxed);
    }

    /// A call succeeded on a fallback replica.
    pub fn note_failover(&self) {
        self.failovers.fetch_add(1, Ordering::Relaxed);
    }

    /// A breaker tripped open.
    pub fn note_breaker_trip(&self) {
        self.breaker_trips.fetch_add(1, Ordering::Relaxed);
    }

    /// An open breaker refused a call.
    pub fn note_breaker_rejection(&self) {
        self.breaker_rejections.fetch_add(1, Ordering::Relaxed);
    }

    /// A read was served from last-good cache, flagged stale.
    pub fn note_degraded_read(&self) {
        self.degraded_reads.fetch_add(1, Ordering::Relaxed);
    }

    /// A write was queued for replay.
    pub fn note_queued_write(&self) {
        self.queued_writes.fetch_add(1, Ordering::Relaxed);
    }

    /// A queued write replayed successfully.
    pub fn note_replayed_write(&self) {
        self.replayed_writes.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(threshold: u32, cooldown_ns: u64) -> BreakerConfig {
        BreakerConfig {
            threshold,
            cooldown_ns,
        }
    }

    #[test]
    fn breaker_walks_closed_open_halfopen_closed() {
        let mut b = CircuitBreaker::new(cfg(2, 100));
        assert_eq!(b.state_label(), "closed");
        assert!(!b.on_failure(0), "first failure stays closed");
        assert!(b.on_failure(0), "second failure trips");
        assert_eq!(b.state_label(), "open");
        assert!(!b.allow(50), "cooldown still running");
        assert!(b.allow(100), "cooldown elapsed admits a probe");
        assert_eq!(b.state_label(), "half-open");
        b.on_success();
        assert_eq!(b.state_label(), "closed");
    }

    #[test]
    fn halfopen_failure_reopens() {
        let mut b = CircuitBreaker::new(cfg(1, 100));
        assert!(b.on_failure(0));
        assert!(b.allow(150));
        assert_eq!(b.state_label(), "half-open");
        assert!(b.on_failure(150), "half-open failure re-trips");
        assert_eq!(b.state_label(), "open");
        assert!(!b.allow(200), "new cooldown counted from the re-trip");
        assert!(b.allow(250));
    }

    #[test]
    fn halfopen_admits_exactly_one_probe() {
        let mut b = CircuitBreaker::new(cfg(1, 100));
        assert!(b.on_failure(0), "trips open");
        assert!(b.allow(100), "cooldown elapsed admits the probe");
        assert_eq!(b.state_label(), "half-open");
        assert!(!b.allow(100), "second caller refused while probing");
        assert!(!b.allow(199), "still refused within the probe deadline");
        b.on_success();
        assert_eq!(b.state_label(), "closed");
        assert!(b.allow(500), "closed again after the probe resolves");
    }

    #[test]
    fn stalled_probe_rearms_after_a_cooldown() {
        let mut b = CircuitBreaker::new(cfg(1, 100));
        assert!(b.on_failure(0));
        assert!(b.allow(100), "first probe admitted");
        // The probe's caller vanishes without resolving it: after a
        // cooldown of silence the slot re-arms instead of refusing
        // every caller forever.
        assert!(!b.allow(199), "slot held while the probe is live");
        assert!(b.allow(200), "stalled probe presumed lost, fresh probe");
        assert!(!b.allow(250), "and again only one in flight");
        b.on_success();
        assert_eq!(b.state_label(), "closed");
    }

    #[test]
    fn failed_probe_reopens_and_rearms_the_next_window() {
        let mut b = CircuitBreaker::new(cfg(1, 100));
        assert!(b.on_failure(0));
        assert!(b.allow(100), "first probe");
        assert!(!b.allow(100), "concurrent caller refused");
        assert!(b.on_failure(100), "probe failure re-trips");
        assert!(!b.allow(150), "back in cooldown");
        assert!(b.allow(200), "next window admits a fresh probe");
        assert!(!b.allow(200), "and again only one");
    }

    #[test]
    fn success_resets_the_failure_count() {
        let mut b = CircuitBreaker::new(cfg(2, 100));
        assert!(!b.on_failure(0));
        b.on_success();
        assert!(!b.on_failure(0), "count restarted after success");
        assert_eq!(b.state_label(), "closed");
    }

    #[test]
    fn stats_count_and_snapshot() {
        let s = ReliabilityStats::default();
        s.note_retry();
        s.note_retry();
        s.note_failover();
        s.note_breaker_trip();
        s.note_breaker_rejection();
        s.note_degraded_read();
        s.note_queued_write();
        s.note_replayed_write();
        let snap = s.snapshot();
        assert_eq!(snap.retries, 2);
        assert_eq!(snap.failovers, 1);
        assert_eq!(snap.breaker_trips, 1);
        assert_eq!(snap.breaker_rejections, 1);
        assert_eq!(snap.degraded_reads, 1);
        assert_eq!(snap.queued_writes, 1);
        assert_eq!(snap.replayed_writes, 1);
    }

    #[test]
    fn defaults_are_sane() {
        let r = RetryPolicy::default();
        assert!(r.attempts >= 2);
        assert!(r.base_backoff_ns < r.max_backoff_ns);
        assert!(r.max_backoff_ns < r.deadline_ns);
        let b = BreakerConfig::default();
        assert!(b.threshold > 0);
    }
}
