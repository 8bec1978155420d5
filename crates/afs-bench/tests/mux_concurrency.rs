//! Shape assertions for the shared-sentinel concurrency ablation — the
//! acceptance claims of the session-multiplexing change:
//!
//! 1. At 8+ concurrent clients the shared sentinel beats one-sentinel-
//!    per-open on *both* per-write p99 latency and total protection-
//!    domain crossings.
//! 2. With a single client the shared path costs the same as a private
//!    sentinel (multiplexing must not tax the uncontended case).
//! 3. The measurements are deterministic (virtual time), so the bench
//!    gate can hold them to a threshold without flakiness.

use afs_bench::{measure_concurrency, Measurement};
use afs_sim::HardwareProfile;

const OPS: usize = 100;

/// Protection-domain crossings over the whole run.
fn crossings(m: &Measurement) -> u64 {
    m.counters.process_switches + m.counters.thread_switches
}

fn profile() -> HardwareProfile {
    HardwareProfile::pentium_ii_300()
}

#[test]
fn shared_beats_private_at_eight_clients() {
    let shared = measure_concurrency(8, true, OPS, profile());
    let private = measure_concurrency(8, false, OPS, profile());
    assert!(
        shared.series.summarize().p99_ns < private.series.summarize().p99_ns,
        "shared p99 {} ns must beat private p99 {} ns",
        shared.series.summarize().p99_ns,
        private.series.summarize().p99_ns
    );
    assert!(
        crossings(&shared) < crossings(&private),
        "shared crossings {} must beat private crossings {}",
        crossings(&shared),
        crossings(&private)
    );
}

#[test]
fn single_client_shared_costs_the_same_as_private() {
    let shared = measure_concurrency(1, true, OPS, profile());
    let private = measure_concurrency(1, false, OPS, profile());
    // With one session the hub transmits immediately (no staging), so the
    // per-write cost is identical to a private transport.
    assert_eq!(
        shared.series.summarize().p99_ns,
        private.series.summarize().p99_ns,
        "uncontended mux must not add latency"
    );
    assert_eq!(
        crossings(&shared),
        crossings(&private),
        "uncontended mux must not add crossings"
    );
}

#[test]
fn crossings_scale_with_clients_only_when_private() {
    let shared_2 = measure_concurrency(2, true, OPS, profile());
    let shared_8 = measure_concurrency(8, true, OPS, profile());
    let private_2 = measure_concurrency(2, false, OPS, profile());
    let private_8 = measure_concurrency(8, false, OPS, profile());
    // Private sentinels pay per-op crossings per client: 4x the clients
    // is ~4x the crossings. The shared sentinel batches, so its growth
    // must be well under that.
    let private_growth = crossings(&private_8) as f64 / crossings(&private_2) as f64;
    let shared_growth = crossings(&shared_8) as f64 / crossings(&shared_2).max(1) as f64;
    assert!(
        private_growth > 3.0,
        "private crossings grow with clients (got {private_growth:.2})"
    );
    assert!(
        shared_growth < private_growth,
        "shared crossings must grow slower than private \
         ({shared_growth:.2} vs {private_growth:.2})"
    );
}

#[test]
fn concurrency_measurements_are_deterministic() {
    for (clients, shared) in [(2, true), (8, true), (2, false)] {
        let a = measure_concurrency(clients, shared, OPS, profile());
        let b = measure_concurrency(clients, shared, OPS, profile());
        assert_eq!(
            a.series.summarize(),
            b.series.summarize(),
            "virtual-time latencies reproduce ({clients} clients, shared={shared})"
        );
        assert_eq!(
            crossings(&a),
            crossings(&b),
            "crossings reproduce ({clients} clients, shared={shared})"
        );
    }
}
