//! Lightweight stage spans: a nesting-aware log of named timers.
//!
//! A [`SpanLog`] is a single-threaded driver-side structure: the harness
//! opens a span per pipeline stage (`stage.zeek`, `stage.pair`, …),
//! attaches a few headline counters as notes, and renders the result as
//! an indented tree with wall times. Span timings come from the
//! [`clock`](crate::obs::clock) seam and are inherently non-deterministic;
//! they are reported next to — never inside — the byte-compared metrics
//! snapshot.

use super::clock::{self, Mono};
use std::fmt::Write as _;

/// Handle to an open span (index into the log's record list).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

/// One finished (or still-open) span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Span name (`stage.*` by convention).
    pub name: String,
    /// Nesting depth at open time (0 = top level).
    pub depth: usize,
    /// Open time, nanoseconds since the log's first span opened (the
    /// Chrome trace-event `ts` origin).
    pub start_ns: u64,
    /// Wall time from open to finish, nanoseconds (0 while open).
    pub wall_ns: u64,
    /// Headline values attached to the span (`key = value`).
    pub notes: Vec<(String, f64)>,
}

#[derive(Debug)]
struct Open {
    idx: usize,
    start: Mono,
}

/// An append-only span log with stack-based nesting.
#[derive(Debug, Default)]
pub struct SpanLog {
    records: Vec<SpanRecord>,
    stack: Vec<Open>,
    /// Trace origin, set when the first span opens; every `start_ns`
    /// is measured from here.
    origin: Option<Mono>,
}

impl SpanLog {
    /// An empty log.
    pub fn new() -> SpanLog {
        SpanLog::default()
    }

    /// Open a span nested under the innermost open span.
    pub fn start(&mut self, name: &str) -> SpanId {
        let now = clock::now();
        let origin = *self.origin.get_or_insert(now);
        let idx = self.records.len();
        self.records.push(SpanRecord {
            name: name.to_string(),
            depth: self.stack.len(),
            start_ns: u64::try_from(origin.delta(now).as_nanos()).unwrap_or(u64::MAX),
            wall_ns: 0,
            notes: Vec::new(),
        });
        self.stack.push(Open { idx, start: now });
        SpanId(idx)
    }

    /// Attach a headline value to a span (open or finished).
    pub fn note(&mut self, id: SpanId, key: &str, value: f64) {
        if let Some(r) = self.records.get_mut(id.0) {
            r.notes.push((key.to_string(), value));
        }
    }

    /// Close a span, recording its wall time. Closing out of order also
    /// closes every span nested deeper (a span cannot outlive its
    /// parent); closing an unknown id is a no-op.
    pub fn finish(&mut self, id: SpanId) {
        let Some(pos) = self.stack.iter().position(|o| o.idx == id.0) else {
            return;
        };
        while self.stack.len() > pos {
            if let Some(open) = self.stack.pop() {
                self.records[open.idx].wall_ns = open.start.elapsed_ns();
            }
        }
    }

    /// Run `f` inside a span named `name`; the span closes when `f`
    /// returns.
    pub fn scope<R>(&mut self, name: &str, f: impl FnOnce(&mut SpanLog) -> R) -> R {
        let id = self.start(name);
        let out = f(self);
        self.finish(id);
        out
    }

    /// All spans, in open order (preorder of the tree).
    pub fn records(&self) -> &[SpanRecord] {
        &self.records
    }

    /// Wall time of a span, nanoseconds.
    pub fn wall_ns(&self, id: SpanId) -> u64 {
        self.records.get(id.0).map_or(0, |r| r.wall_ns)
    }

    /// Render the indented span tree with wall times and notes.
    pub fn render_tree(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            out.push_str(&"  ".repeat(r.depth));
            let _ = write!(out, "{} · {}", r.name, fmt_ns(r.wall_ns));
            for (k, v) in &r.notes {
                let _ = write!(out, " · {k}={}", fmt_note(*v));
            }
            out.push('\n');
        }
        out
    }

    /// JSON array of span objects (`name`, `depth`, `start_ns`,
    /// `wall_ns`, `notes`).
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, r) in self.records.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n  {\"name\": ");
            out.push_str(&crate::bench::json_string(&r.name));
            let _ = write!(
                out,
                ", \"depth\": {}, \"start_ns\": {}, \"wall_ns\": {}, \"notes\": {{",
                r.depth, r.start_ns, r.wall_ns
            );
            for (j, (k, v)) in r.notes.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&crate::bench::json_string(k));
                out.push_str(": ");
                out.push_str(&if v.is_finite() { format!("{v}") } else { "null".into() });
            }
            out.push_str("}}");
        }
        out.push_str("\n]");
        out
    }

    /// Chrome trace-event JSON: an array of complete (`"ph": "X"`)
    /// events with `ts`/`dur` in microseconds, loadable in Perfetto or
    /// `chrome://tracing`. Nesting is reconstructed by the viewer from
    /// the shared `tid` and the `ts`/`dur` containment the span stack
    /// guarantees; notes ride along as `args`.
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::from("[");
        for (i, r) in self.records.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n  {\"name\": ");
            out.push_str(&crate::bench::json_string(&r.name));
            let _ = write!(
                out,
                ", \"ph\": \"X\", \"ts\": {}, \"dur\": {}, \"pid\": 1, \"tid\": 1, \"args\": {{",
                r.start_ns as f64 / 1e3,
                r.wall_ns as f64 / 1e3
            );
            for (j, (k, v)) in r.notes.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&crate::bench::json_string(k));
                out.push_str(": ");
                out.push_str(&if v.is_finite() { format!("{v}") } else { "null".into() });
            }
            out.push_str("}}");
        }
        out.push_str(if self.records.is_empty() { "]" } else { "\n]" });
        out
    }
}

/// Human-readable nanoseconds.
fn fmt_ns(ns: u64) -> String {
    let ns = ns as f64;
    if ns < 1e3 {
        format!("{ns:.0} ns")
    } else if ns < 1e6 {
        format!("{:.2} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.3} s", ns / 1e9)
    }
}

/// Notes print as integers when they are integral (counters mostly are).
fn fmt_note(v: f64) -> String {
    if v.is_finite() && v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_depths_follow_open_order() {
        let mut log = SpanLog::new();
        let outer = log.start("outer");
        let inner = log.start("inner");
        log.finish(inner);
        let sibling = log.start("sibling");
        log.finish(sibling);
        log.finish(outer);
        let depths: Vec<usize> = log.records().iter().map(|r| r.depth).collect();
        assert_eq!(depths, vec![0, 1, 1]);
        assert!(log.records().iter().all(|r| r.wall_ns > 0));
    }

    #[test]
    fn out_of_order_finish_closes_children() {
        let mut log = SpanLog::new();
        let outer = log.start("outer");
        let _inner = log.start("inner");
        log.finish(outer); // closes inner too
        assert!(log.records().iter().all(|r| r.wall_ns > 0));
        log.finish(outer); // double-finish is a no-op
    }

    #[test]
    fn scope_notes_and_tree_render() {
        let mut log = SpanLog::new();
        let id = log.scope("stage.zeek", |log| {
            log.scope("stage.zeek.read", |_| {});
            let id = log.start("stage.zeek.track");
            log.finish(id);
            id
        });
        log.note(id, "rows", 42.0);
        let tree = log.render_tree();
        assert!(tree.contains("stage.zeek ·"));
        assert!(tree.contains("  stage.zeek.read"));
        assert!(tree.contains("rows=42"));
        let json = log.to_json();
        assert!(json.contains("\"name\": \"stage.zeek\""));
        assert!(json.contains("\"rows\": 42"));
    }

    #[test]
    fn start_times_are_monotone_from_the_trace_origin() {
        let mut log = SpanLog::new();
        let a = log.start("a");
        log.finish(a);
        let b = log.start("b");
        log.finish(b);
        let r = log.records();
        assert_eq!(r[0].start_ns, 0, "origin is the first span's open");
        assert!(r[1].start_ns >= r[0].start_ns);
        assert!(log.to_json().contains("\"start_ns\": 0"));
    }

    #[test]
    fn chrome_trace_matches_the_trace_event_schema() {
        let mut log = SpanLog::new();
        let id = log.scope("stage.zeek", |log| {
            log.scope("stage.zeek.read", |_| {});
            SpanId(0)
        });
        log.note(id, "rows", 42.0);
        log.note(id, "bad", f64::NAN);
        let trace = log.to_chrome_trace();
        let v = crate::obs::json::parse(&trace).expect("trace is valid JSON");
        let events = v.as_arr().expect("trace is an array");
        assert_eq!(events.len(), 2);
        for e in events {
            assert_eq!(e.get("ph").and_then(|x| x.as_str()), Some("X"));
            let ts = e.get("ts").and_then(|x| x.as_f64()).expect("ts");
            let dur = e.get("dur").and_then(|x| x.as_f64()).expect("dur");
            assert!(ts >= 0.0 && dur >= 0.0, "ts/dur in µs, non-negative");
            assert!(e.get("pid").is_some() && e.get("tid").is_some());
        }
        // The child event nests inside its parent on the timeline.
        let parent = &events[0];
        let child = &events[1];
        let end = |e: &crate::obs::json::Value| {
            e.get("ts").and_then(|x| x.as_f64()).unwrap_or(0.0)
                + e.get("dur").and_then(|x| x.as_f64()).unwrap_or(0.0)
        };
        assert!(end(child) <= end(parent) + 1.0, "child ends within parent (±1 µs)");
        assert_eq!(
            parent.get("args").and_then(|a| a.get("rows")).and_then(|x| x.as_f64()),
            Some(42.0)
        );
        assert_eq!(
            parent.get("args").and_then(|a| a.get("bad")),
            Some(&crate::obs::json::Value::Null)
        );
        assert_eq!(SpanLog::new().to_chrome_trace(), "[]");
    }

    #[test]
    fn note_on_unknown_id_is_ignored() {
        let mut log = SpanLog::new();
        log.note(SpanId(99), "k", 1.0);
        log.finish(SpanId(99));
        assert!(log.records().is_empty());
    }
}
