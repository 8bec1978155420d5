//! Post-mortem bundles: a cut of the span ring, taken when something goes
//! wrong.
//!
//! The span ring and each thread's stack of open frames are the only
//! recorders. When a *trigger* fires — circuit breaker opening,
//! degraded-mode entry or a slow op over the telemetry threshold, each on
//! the thread running the failing op, or torn-tail detection during WAL
//! recovery — the recorder freezes a [`FlightBundle`]: the span ring at
//! trigger time, the triggering thread's open spans, and the trigger
//! cause. Bundles are themselves ring-bounded; `afsh dump` and
//! `AfsWorld::flight_dump` render them (plus live metrics/fault/store
//! state) as a JSON artifact.

use parking_lot::Mutex;

use crate::span::{now_ns, SpanRecord};

/// Most post-mortem bundles retained (oldest evicted first).
const MAX_BUNDLES: usize = 8;

/// One post-mortem capture: everything the recorder knew when a trigger
/// fired.
#[derive(Debug, Clone)]
pub struct FlightBundle {
    /// Monotonic bundle sequence number (1-based, survives eviction).
    pub seq: u64,
    /// Trigger timestamp, ns.
    pub at_ns: u64,
    /// Trigger kind: `breaker_open`, `degraded_enter`, `torn_tail`,
    /// `slow_op`, or `manual`.
    pub cause: &'static str,
    /// Trigger detail line (cause-specific `key=value` text).
    pub detail: String,
    /// The span ring at trigger time (oldest first).
    pub spans: Vec<SpanRecord>,
    /// The triggering thread's open spans of the hub, outermost first,
    /// each with `end` 0: the failing op's chain, frozen mid-flight.
    pub open: Vec<SpanRecord>,
}

#[derive(Debug, Default)]
struct Kept {
    fired: u64,
    bundles: Vec<FlightBundle>,
}

/// The recorder itself. Owned by the telemetry hub (one per
/// `AfsWorld`); subsystems without a hub reference reach it through
/// [`crate::flight_trigger`] or an [`std::sync::Arc`] handed to them (the
/// durable store's torn-tail path).
#[derive(Debug, Default)]
pub struct FlightRecorder {
    kept: Mutex<Kept>,
}

impl FlightRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        FlightRecorder::default()
    }

    /// Captures a bundle with no span context — for subsystems that hold
    /// only the recorder (the durable store's torn-tail detection).
    pub fn trigger_basic(&self, cause: &'static str, detail: String) {
        self.capture(cause, detail, Vec::new(), Vec::new());
    }

    /// Captures a bundle — `Telemetry::flight_trigger` passes the span
    /// ring and the triggering thread's open chain.
    pub(crate) fn capture(
        &self,
        cause: &'static str,
        detail: String,
        spans: Vec<SpanRecord>,
        open: Vec<SpanRecord>,
    ) {
        let at_ns = now_ns();
        let mut kept = self.kept.lock();
        kept.fired += 1;
        if kept.bundles.len() == MAX_BUNDLES {
            kept.bundles.remove(0);
        }
        let seq = kept.fired;
        kept.bundles.push(FlightBundle {
            seq,
            at_ns,
            cause,
            detail,
            spans,
            open,
        });
    }

    /// Retained bundles, oldest first.
    pub fn bundles(&self) -> Vec<FlightBundle> {
        self.kept.lock().bundles.clone()
    }

    /// Total triggers ever fired (survives bundle eviction).
    pub fn trigger_count(&self) -> u64 {
        self.kept.lock().fired
    }
}

#[cfg(test)]
mod tests {
    use std::sync::{mpsc, Arc};

    use super::*;
    use crate::span::{Layer, Telemetry};

    #[test]
    fn bundles_are_bounded_and_sequenced() {
        let fr = FlightRecorder::new();
        for i in 0..(MAX_BUNDLES + 3) {
            fr.trigger_basic("manual", format!("n={i}"));
        }
        let bundles = fr.bundles();
        assert_eq!(bundles.len(), MAX_BUNDLES);
        assert_eq!(fr.trigger_count(), (MAX_BUNDLES + 3) as u64);
        // Oldest evicted; sequence numbers still monotonic.
        assert_eq!(bundles[0].seq, 4);
        assert_eq!(bundles.last().unwrap().seq, (MAX_BUNDLES + 3) as u64);
    }

    #[test]
    fn bundle_freezes_the_span_ring() {
        let tel = Telemetry::new();
        tel.set_enabled(true);
        let _clock = afs_sim::clock::install(0);
        drop(tel.span(Layer::Interpose, "before"));
        afs_sim::clock::advance(500);
        tel.flight_trigger("manual", String::new());
        drop(tel.span(Layer::Interpose, "after"));
        let bundles = tel.flight().bundles();
        let names: Vec<_> = bundles[0].spans.iter().map(|s| s.name).collect();
        assert_eq!(names, ["before"]);
        assert_eq!(bundles[0].at_ns, 500, "stamped at the trigger");
        assert_eq!(tel.spans().len(), 2);
    }

    #[test]
    fn bundle_holds_the_triggering_threads_chain() {
        let tel = Telemetry::new();
        tel.set_enabled(true);
        let (opened, open_rx) = mpsc::channel();
        let (release, release_rx) = mpsc::channel::<()>();
        std::thread::scope(|scope| {
            let other = Arc::clone(&tel);
            scope.spawn(move || {
                let span = other.span(Layer::Interpose, "other-op").expect("on");
                opened.send(span.trace()).expect("send");
                release_rx.recv().expect("release");
            });
            let other_trace = open_rx.recv().expect("other span open");
            let outer = tel.span(Layer::Interpose, "ReadFile").expect("on");
            let inner = tel.span(Layer::Strategy, "read").expect("on");
            tel.flight_trigger("manual", String::new());
            let bundle = tel.flight().bundles().pop().expect("a bundle");
            let open: Vec<_> = bundle.open.iter().map(|s| (s.id, s.end)).collect();
            assert_eq!(open, [(outer.id(), 0), (inner.id(), 0)]);
            assert!(bundle.open.iter().all(|s| s.trace != other_trace));
            release.send(()).expect("release");
        });
    }
}
