//! The metrics registry: one snapshot API over scattered counters.
//!
//! Subsystems register *collector* closures; a snapshot invokes every
//! collector and returns the combined flat list of [`Metric`]s. Collectors
//! own whatever `Arc`s they need (a `CostModel`, an `OpTrace`, a
//! `Telemetry` hub, a `CallCounters`), so the registry itself has no
//! dependencies on the things it aggregates.

use parking_lot::Mutex;

use afs_sim::Metric;

/// A collector closure: appends its metrics to the snapshot under way.
type Collector = Box<dyn Fn(&mut Vec<Metric>) + Send + Sync>;

/// A set of registered collectors producing unified metric snapshots.
#[derive(Default)]
pub struct MetricsRegistry {
    collectors: Mutex<Vec<Collector>>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("collectors", &self.collectors.lock().len())
            .finish()
    }
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> std::sync::Arc<Self> {
        std::sync::Arc::new(MetricsRegistry::default())
    }

    /// Registers a collector; it runs on every [`MetricsRegistry::snapshot`].
    pub fn register(&self, collector: impl Fn(&mut Vec<Metric>) + Send + Sync + 'static) {
        self.collectors.lock().push(Box::new(collector));
    }

    /// Runs every collector and returns the combined metric list.
    pub fn snapshot(&self) -> Vec<Metric> {
        let collectors = self.collectors.lock();
        let mut out = Vec::new();
        for collector in collectors.iter() {
            collector(&mut out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use afs_sim::MetricValue;

    use super::*;

    #[test]
    fn collectors_combine_into_one_snapshot() {
        let registry = MetricsRegistry::new();
        registry.register(|out| out.push(Metric::counter("a_total", 1)));
        registry.register(|out| {
            out.push(Metric::gauge("b_depth", 2).label("lane", "pipe"));
        });
        let snap = registry.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].name, "a_total");
        assert_eq!(snap[1].labels, vec![("lane", "pipe".to_owned())]);
    }

    #[test]
    fn snapshot_reruns_collectors() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        let counter = Arc::new(AtomicU64::new(0));
        let registry = MetricsRegistry::new();
        let c = Arc::clone(&counter);
        registry.register(move |out| {
            out.push(Metric::counter("live_total", c.load(Ordering::Relaxed)));
        });
        counter.store(5, Ordering::Relaxed);
        match registry.snapshot()[0].value {
            MetricValue::Counter(v) => assert_eq!(v, 5),
            _ => panic!("expected counter"),
        }
    }
}
