//! Flight recorder: a fixed-capacity ring of recent structured events.
//!
//! Metrics answer "how much"; the flight recorder answers "what just
//! happened". Long-running stream runs record their notable moments —
//! epoch releases, state evictions, backpressure stalls, fault
//! rejections, parse degradations — into a bounded ring that drops the
//! oldest entry when full (with exact drop accounting, so a post-mortem
//! knows how much history it is missing). The recorder is cheap enough
//! to leave on: recording is one short mutex hold on paths that are
//! already rare (rejects) or per-epoch (releases), never per-packet.
//!
//! Event kinds are free-form `&'static str` tags; the conventional set
//! used by the pipeline is:
//!
//! | kind                 | emitted by                 | value            |
//! |----------------------|----------------------------|------------------|
//! | `epoch.release`      | `StreamEngine::end_epoch`  | rows released    |
//! | `state.evict`        | `StreamEngine` eviction    | entries evicted  |
//! | `backpressure.stall` | `pcapio::ring` push        | ring capacity    |
//! | `fault.reject`       | `Monitor` frame parse      | frames seen      |
//! | `parse.degrade`      | `Monitor` DNS decode       | payloads seen    |

use super::clock::{self, Mono};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// One recorded event.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightEvent {
    /// Monotone sequence number (0 = first event ever recorded).
    pub seq: u64,
    /// Nanoseconds since the recorder was created (wall-clock derived,
    /// so never part of a byte-compared section).
    pub t_ns: u64,
    /// Event kind tag (`epoch.release`, `state.evict`, ...).
    pub kind: &'static str,
    /// Human-readable detail (error name, epoch index, ...).
    pub detail: String,
    /// Headline numeric payload (rows released, entries evicted, ...).
    pub value: f64,
}

#[derive(Debug)]
struct State {
    ring: VecDeque<FlightEvent>,
    seq: u64,
    dropped: u64,
}

#[derive(Debug)]
struct Inner {
    cap: usize,
    origin: Mono,
    state: Mutex<State>,
}

/// A shared fixed-capacity event ring with drop-oldest semantics.
///
/// Cloning shares the ring. All methods are panic-free: a poisoned lock
/// (another thread panicked mid-record) is recovered, since the ring
/// contents stay structurally valid.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    inner: Arc<Inner>,
}

impl FlightRecorder {
    /// A recorder holding at most `capacity` events (clamped to ≥ 1).
    pub fn new(capacity: usize) -> FlightRecorder {
        let cap = capacity.max(1);
        FlightRecorder {
            inner: Arc::new(Inner {
                cap,
                origin: clock::now(),
                state: Mutex::new(State {
                    ring: VecDeque::with_capacity(cap),
                    seq: 0,
                    dropped: 0,
                }),
            }),
        }
    }

    fn with_state<R>(&self, f: impl FnOnce(&mut State) -> R) -> R {
        match self.inner.state.lock() {
            Ok(mut guard) => f(&mut guard),
            Err(poison) => f(&mut poison.into_inner()),
        }
    }

    /// Record one event, evicting the oldest when the ring is full.
    pub fn record(&self, kind: &'static str, detail: impl Into<String>, value: f64) {
        let t_ns = self.inner.origin.elapsed_ns();
        let detail = detail.into();
        self.with_state(|s| {
            if s.ring.len() == self.inner.cap {
                s.ring.pop_front();
                s.dropped += 1;
            }
            let seq = s.seq;
            s.seq += 1;
            s.ring.push_back(FlightEvent { seq, t_ns, kind, detail, value });
        });
    }

    /// Events currently held (≤ capacity).
    pub(crate) fn len(&self) -> usize {
        self.with_state(|s| s.ring.len())
    }

    /// True when no event has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The retained events, oldest first.
    pub fn snapshot(&self) -> Vec<FlightEvent> {
        self.with_state(|s| s.ring.iter().cloned().collect())
    }

    /// JSON dump: `{"capacity", "recorded", "dropped", "events": [...]}`.
    /// Events carry `seq`, `t_ns`, `kind`, `detail`, `value`.
    pub(crate) fn to_json(&self) -> String {
        let (events, recorded, dropped) =
            self.with_state(|s| (s.ring.iter().cloned().collect::<Vec<_>>(), s.seq, s.dropped));
        let mut out = format!(
            "{{\"capacity\": {}, \"recorded\": {recorded}, \"dropped\": {dropped}, \"events\": [",
            self.inner.cap
        );
        for (i, e) in events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n  {{\"seq\": {}, \"t_ns\": {}, \"kind\": {}, \"detail\": {}, \"value\": {}}}",
                e.seq,
                e.t_ns,
                crate::bench::json_string(e.kind),
                crate::bench::json_string(&e.detail),
                if e.value.is_finite() { format!("{}", e.value) } else { "null".into() },
            ));
        }
        out.push_str(if events.is_empty() { "]}" } else { "\n]}" });
        out
    }
}

impl Default for FlightRecorder {
    /// The pipeline's default ring: 256 recent events.
    fn default() -> FlightRecorder {
        FlightRecorder::new(256)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drop_oldest_accounting_is_exact() {
        let fr = FlightRecorder::new(3);
        for i in 0..10u64 {
            fr.record("epoch.release", format!("epoch {i}"), i as f64);
        }
        assert_eq!(fr.len(), 3);
        assert_eq!(fr.with_state(|s| s.seq), 10);
        assert_eq!(fr.with_state(|s| s.dropped), 7);
        let events = fr.snapshot();
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![7, 8, 9], "oldest dropped first, order kept");
        assert_eq!(events[0].detail, "epoch 7");
        // recorded = held + dropped at all times.
        fr.with_state(|s| assert_eq!(s.seq, s.ring.len() as u64 + s.dropped));
    }

    #[test]
    fn timestamps_are_monotone() {
        let fr = FlightRecorder::new(8);
        fr.record("a", "", 0.0);
        fr.record("b", "", 1.0);
        let ev = fr.snapshot();
        assert!(ev[0].t_ns <= ev[1].t_ns);
    }

    #[test]
    fn clones_share_the_ring() {
        let fr = FlightRecorder::new(4);
        let other = fr.clone();
        other.record("state.evict", "flows", 12.0);
        assert_eq!(fr.len(), 1);
        assert_eq!(fr.snapshot()[0].value, 12.0);
    }

    #[test]
    fn json_dump_parses_back() {
        let fr = FlightRecorder::new(2);
        fr.record("fault.reject", "TruncatedIp \"x\"", 1.0);
        fr.record("parse.degrade", "BadLabel", f64::NAN);
        fr.record("epoch.release", "epoch 0", 42.0);
        let v = crate::obs::json::parse(&fr.to_json()).expect("flight JSON is valid");
        assert_eq!(v.get("capacity").and_then(|x| x.as_f64()), Some(2.0));
        assert_eq!(v.get("recorded").and_then(|x| x.as_f64()), Some(3.0));
        assert_eq!(v.get("dropped").and_then(|x| x.as_f64()), Some(1.0));
        let events = v.get("events").and_then(|x| x.as_arr()).expect("events array");
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("kind").and_then(|x| x.as_str()), Some("epoch.release"));
        assert_eq!(events[0].get("value"), Some(&crate::obs::json::Value::Null));
    }

    #[test]
    fn empty_dump_is_valid_json() {
        let fr = FlightRecorder::new(1);
        let v = crate::obs::json::parse(&fr.to_json()).unwrap();
        assert_eq!(v.get("events").and_then(|x| x.as_arr()).map(<[_]>::len), Some(0));
    }

    #[test]
    fn capacity_is_clamped() {
        assert_eq!(FlightRecorder::new(0).inner.cap, 1);
    }
}
