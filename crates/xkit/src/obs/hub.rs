//! The observability hub: one shared, scrape-ready view of a live run.
//!
//! An [`ObsHub`] is the meeting point between the pipeline (which
//! publishes) and the HTTP plane (which serves): the stream engine folds
//! its per-shard registries into the hub once per epoch, the driver
//! publishes the final merged snapshot and Chrome-trace spans when the
//! run completes, and every [`http`](crate::obs::http) endpoint reads
//! whatever is current. Publication replaces the whole snapshot
//! atomically (one mutex swap) or rewrites it under the same mutex, so
//! a scrape never sees a half-merged state — mid-run it sees a valid
//! prefix of the final metrics, after the run it sees exactly the final
//! document's metrics section.

use super::flight::FlightRecorder;
use super::metrics::Metrics;
use std::sync::{Arc, Mutex};

#[derive(Debug)]
struct Inner {
    metrics: Mutex<Metrics>,
    spans: Mutex<String>,
    flight: FlightRecorder,
}

/// Shared handle to the live metrics snapshot, span trace, and flight
/// recorder. Cloning shares all three.
#[derive(Debug, Clone)]
pub struct ObsHub {
    inner: Arc<Inner>,
}

impl ObsHub {
    /// A hub with an empty snapshot and a flight ring of `flight_capacity`
    /// events.
    pub(crate) fn new(flight_capacity: usize) -> ObsHub {
        ObsHub {
            inner: Arc::new(Inner {
                metrics: Mutex::new(Metrics::new()),
                // No spans yet: an empty Chrome trace-event array.
                spans: Mutex::new(String::from("[]")),
                flight: FlightRecorder::new(flight_capacity),
            }),
        }
    }

    /// Replace the published metrics snapshot.
    pub fn publish_metrics(&self, snapshot: Metrics) {
        match self.inner.metrics.lock() {
            Ok(mut guard) => *guard = snapshot,
            Err(poison) => *poison.into_inner() = snapshot,
        }
    }

    /// Rewrite the published snapshot in place. `rewrite` runs under the
    /// snapshot's lock, so a scrape sees the snapshot before or after it,
    /// never between two of its writes. For a publisher that owns the
    /// snapshot from its first [`publish_metrics`](ObsHub::publish_metrics)
    /// on and only overwrites values afterwards (the stream engine, once
    /// per epoch): nothing is allocated and nothing is dropped.
    pub fn update_metrics(&self, rewrite: impl FnOnce(&mut Metrics)) {
        match self.inner.metrics.lock() {
            Ok(mut guard) => rewrite(&mut guard),
            Err(poison) => rewrite(&mut poison.into_inner()),
        }
    }

    /// The current metrics snapshot (empty before the first publication).
    pub fn metrics(&self) -> Metrics {
        match self.inner.metrics.lock() {
            Ok(guard) => guard.clone(),
            Err(poison) => poison.into_inner().clone(),
        }
    }

    /// Replace the published span trace. `chrome_json` must already be
    /// Chrome trace-event JSON (see `SpanLog::to_chrome_trace`).
    pub fn publish_spans(&self, chrome_json: String) {
        match self.inner.spans.lock() {
            Ok(mut guard) => *guard = chrome_json,
            Err(poison) => *poison.into_inner() = chrome_json,
        }
    }

    /// The current span trace (`"[]"` before the first publication).
    pub(crate) fn spans_json(&self) -> String {
        match self.inner.spans.lock() {
            Ok(guard) => guard.clone(),
            Err(poison) => poison.into_inner().clone(),
        }
    }

    /// The hub's flight recorder (share it with whatever records events).
    pub fn flight(&self) -> &FlightRecorder {
        &self.inner.flight
    }
}

impl Default for ObsHub {
    fn default() -> ObsHub {
        ObsHub::new(256)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publication_replaces_wholesale() {
        let hub = ObsHub::default();
        assert!(hub.metrics().is_empty());
        assert_eq!(hub.spans_json(), "[]");

        let mut m = Metrics::new();
        m.add("zeek.frames_seen", 10);
        hub.publish_metrics(m.clone());
        assert_eq!(hub.metrics().counter("zeek.frames_seen"), 10);

        let mut m2 = Metrics::new();
        m2.add("zeek.frames_seen", 25);
        hub.publish_metrics(m2);
        let snap = hub.metrics();
        assert_eq!(snap.counter("zeek.frames_seen"), 25);
        assert_eq!(snap.len(), 1, "replace, not merge");

        hub.publish_spans("[{\"ph\":\"X\"}]".into());
        assert_eq!(hub.spans_json(), "[{\"ph\":\"X\"}]");
    }

    #[test]
    fn update_rewrites_in_place_and_publish_still_replaces() {
        let hub = ObsHub::default();
        let mut m = Metrics::new();
        m.add("zeek.frames_seen", 10);
        m.add("class.shared_cache", 4);
        hub.publish_metrics(m);
        hub.update_metrics(|m| m.set_counter("zeek.frames_seen", 25));
        let snap = hub.metrics();
        assert_eq!(snap.counter("zeek.frames_seen"), 25);
        assert_eq!(snap.counter("class.shared_cache"), 4, "update keeps other keys");

        let mut next = Metrics::new();
        next.add("zeek.frames_seen", 1);
        hub.publish_metrics(next);
        assert_eq!(hub.metrics().len(), 1, "a new publisher starts from nothing");
    }

    #[test]
    fn clones_share_state() {
        let hub = ObsHub::new(4);
        let viewer = hub.clone();
        hub.flight().record("epoch.release", "epoch 0", 1.0);
        let mut m = Metrics::new();
        m.add("x", 1);
        hub.publish_metrics(m);
        assert_eq!(viewer.metrics().counter("x"), 1);
        assert_eq!(viewer.flight().len(), 1);
    }
}
