//! Mergeable metric snapshots: counters, gauges, log-scale histograms.
//!
//! [`Metrics`] is the single transport every pipeline stage speaks: a
//! name-ordered map of [`Metric`] values that merges deterministically.
//! Merging is exact — counters and histogram buckets are `u64` sums,
//! gauges take the maximum, histogram `min`/`max` take the extrema — so
//! folding per-shard snapshots in shard order yields byte-identical
//! results for any worker count, the same discipline the simulator uses
//! for its logs. Histograms deliberately carry **no floating-point running
//! sum**: float addition is not associative, and an approximate sum would
//! break the merge-order-independence the whole layer is built on. (The
//! Prometheus `_sum` line is estimated from bucket midpoints at export
//! time instead.)

use std::collections::BTreeMap;

/// Shape of a fixed-bucket log-scale histogram: `decades * per_decade`
/// buckets spanning `[lo, lo * 10^decades)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistSpec {
    /// Lower edge of the first bucket (must be positive and finite).
    pub lo: f64,
    /// Number of powers of ten covered.
    pub decades: u32,
    /// Buckets per decade.
    pub per_decade: u32,
}

impl HistSpec {
    /// A log-scale spec, clamped to sane shape (at least one decade and
    /// one bucket per decade, at most 4096 buckets, positive finite `lo`).
    pub(crate) fn log(lo: f64, decades: u32, per_decade: u32) -> HistSpec {
        let lo = if lo.is_finite() && lo > 0.0 { lo } else { 1e-3 };
        let decades = decades.clamp(1, 64);
        let per_decade = per_decade.clamp(1, 64);
        HistSpec { lo, decades, per_decade }
    }

    /// Default spec for durations in milliseconds: 1 µs .. ~16.7 min,
    /// four buckets per decade.
    pub fn time_ms() -> HistSpec {
        HistSpec::log(1e-3, 9, 4)
    }

    /// Number of in-range buckets.
    fn buckets(&self) -> usize {
        (self.decades * self.per_decade) as usize
    }

    /// The `buckets() + 1` bucket edges, ascending. Decade edges are the
    /// exact products `lo * 10^k` (integer `powi`), so bucket boundaries
    /// are reproducible and testable.
    fn bounds(&self) -> Vec<f64> {
        let pd = self.per_decade;
        (0..=self.buckets() as u32)
            .map(|i| {
                let (dec, rem) = (i / pd, i % pd);
                self.lo * 10f64.powi(dec as i32) * 10f64.powf(rem as f64 / pd as f64)
            })
            .collect()
    }
}

/// Where a value lands in a histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    Bucket(usize),
    Underflow,
    Overflow,
    Nonfinite,
}

/// A fixed-bucket log-scale histogram with exact (`u64`) merge.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    spec: HistSpec,
    bounds: Vec<f64>,
    counts: Vec<u64>,
    underflow: u64,
    overflow: u64,
    nonfinite: u64,
    count: u64,
    min: f64,
    max: f64,
}

impl Histogram {
    /// An empty histogram with the given spec.
    pub(crate) fn new(spec: HistSpec) -> Histogram {
        let bounds = spec.bounds();
        let buckets = spec.buckets();
        Histogram {
            spec,
            bounds,
            counts: vec![0; buckets],
            underflow: 0,
            overflow: 0,
            nonfinite: 0,
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    fn slot(&self, v: f64) -> Slot {
        if !v.is_finite() {
            return Slot::Nonfinite;
        }
        if v < self.bounds[0] {
            return Slot::Underflow;
        }
        if v >= self.bounds[self.bounds.len() - 1] {
            return Slot::Overflow;
        }
        // First edge strictly greater than v; v lives in the bucket below.
        let idx = self.bounds.partition_point(|b| *b <= v);
        Slot::Bucket(idx - 1)
    }

    /// Record one value. Finite values update `count`/`min`/`max` and one
    /// of the bucket / underflow / overflow counters; non-finite values
    /// only bump the `nonfinite` counter.
    fn observe(&mut self, v: f64) {
        self.observe_n(v, 1)
    }

    /// Record the same value `n` times in O(1).
    fn observe_n(&mut self, v: f64, n: u64) {
        if n == 0 {
            return;
        }
        match self.slot(v) {
            Slot::Nonfinite => {
                self.nonfinite += n;
                return;
            }
            Slot::Underflow => self.underflow += n,
            Slot::Overflow => self.overflow += n,
            Slot::Bucket(i) => self.counts[i] += n,
        }
        self.count += n;
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
    }

    /// Fold another histogram into this one.
    ///
    /// Same-spec merges are exact `u64` sums (associative and commutative,
    /// so merge order never changes the result). A cross-spec merge
    /// re-records the other histogram's bucket geometric midpoints, which
    /// preserves `count` and `min`/`max` exactly and bucket placement
    /// approximately.
    pub(crate) fn merge(&mut self, other: &Histogram) {
        if self.spec == other.spec {
            for (a, b) in self.counts.iter_mut().zip(&other.counts) {
                *a += *b;
            }
            self.underflow += other.underflow;
            self.overflow += other.overflow;
            self.nonfinite += other.nonfinite;
            self.count += other.count;
        } else {
            // Re-recording midpoints must not perturb the exact extrema:
            // snapshot them, re-record, then restore.
            let (min, max) = (self.min, self.max);
            for (i, &n) in other.counts.iter().enumerate() {
                let mid = (other.bounds[i] * other.bounds[i + 1]).sqrt();
                self.observe_n(mid, n);
            }
            self.observe_n(other.bounds[0] / 2.0, other.underflow);
            self.observe_n(other.bounds[other.bounds.len() - 1], other.overflow);
            self.nonfinite += other.nonfinite;
            self.min = min;
            self.max = max;
        }
        if other.min < self.min {
            self.min = other.min;
        }
        if other.max > self.max {
            self.max = other.max;
        }
    }

    /// Overwrite this histogram with `other`'s contents, reusing the
    /// bucket storage already held (no allocation when the specs match).
    fn assign_from(&mut self, other: &Histogram) {
        self.bounds.clone_from(&other.bounds);
        self.counts.clone_from(&other.counts);
        self.spec = other.spec;
        self.underflow = other.underflow;
        self.overflow = other.overflow;
        self.nonfinite = other.nonfinite;
        self.count = other.count;
        self.min = other.min;
        self.max = other.max;
    }

    /// Finite values recorded (includes underflow and overflow).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest finite value recorded, `None` when empty. Exact under
    /// merge.
    pub(crate) fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest finite value recorded, `None` when empty. Exact under
    /// merge.
    pub(crate) fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Conservative quantile estimate (`q` in `[0, 1]`): the **upper
    /// edge** of the bucket holding rank `round(q * (count - 1))`;
    /// `None` when empty. Underflow ranks resolve to the first bucket
    /// edge (every underflow value is below it), overflow ranks to
    /// `max(bounds[last], max)` — an upper bound like every other
    /// branch, never a bare observed value, so the estimator is
    /// monotone in `q` even when `max` was merged or rebuilt from
    /// parts and sits below the last edge. The estimate never
    /// understates the true quantile by construction — the pinned
    /// contract for `p50<=`/`p95<=`/`p99<=` table columns and the
    /// Prometheus `_q` lines.
    fn quantile_upper(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let rank = (q.clamp(0.0, 1.0) * (self.count - 1) as f64).round() as u64;
        let mut seen = self.underflow;
        if rank < seen {
            return Some(self.bounds[0]);
        }
        for (i, &n) in self.counts.iter().enumerate() {
            seen += n;
            if rank < seen {
                return Some(self.bounds[i + 1]);
            }
        }
        Some(self.bounds[self.bounds.len() - 1].max(self.max))
    }

    /// Rebuild a histogram from exported parts (the inverse of the
    /// [`Metrics::to_json`] `hist` object). `count` is recomputed as
    /// `underflow + overflow + Σ counts`; `min`/`max` are required
    /// whenever that count is positive.
    fn from_parts(
        spec: HistSpec,
        counts: Vec<u64>,
        underflow: u64,
        overflow: u64,
        nonfinite: u64,
        min: Option<f64>,
        max: Option<f64>,
    ) -> Result<Histogram, String> {
        let mut h = Histogram::new(spec);
        if counts.len() != h.counts.len() {
            return Err(format!(
                "histogram has {} buckets, spec wants {}",
                counts.len(),
                h.counts.len()
            ));
        }
        h.count = counts
            .iter()
            .fold(underflow.saturating_add(overflow), |acc, n| acc.saturating_add(*n));
        h.counts = counts;
        h.underflow = underflow;
        h.overflow = overflow;
        h.nonfinite = nonfinite;
        if h.count > 0 {
            h.min = min.ok_or("non-empty histogram missing min")?;
            h.max = max.ok_or("non-empty histogram missing max")?;
        }
        Ok(h)
    }

    /// Estimated sum of recorded values (bucket geometric midpoints;
    /// under/overflow contribute `min`/`max`). Export-time convenience
    /// only — never merged, so it cannot perturb determinism.
    fn sum_estimate(&self) -> f64 {
        let mut sum = self.underflow as f64 * if self.underflow > 0 { self.min } else { 0.0 };
        sum += self.overflow as f64 * if self.overflow > 0 { self.max } else { 0.0 };
        for (i, &n) in self.counts.iter().enumerate() {
            if n > 0 {
                sum += n as f64 * (self.bounds[i] * self.bounds[i + 1]).sqrt();
            }
        }
        sum
    }
}

/// One metric value.
#[derive(Debug, Clone, PartialEq)]
pub enum Metric {
    /// Monotone event count; merges by summation.
    Counter(u64),
    /// Level/peak reading; merges by maximum (the only float gauge merge
    /// that is exact, associative, and commutative).
    Gauge(f64),
    /// Distribution; merges bucket-wise (see `Histogram::merge`).
    Hist(Histogram),
}

/// A name-ordered, deterministic-merge metric snapshot.
///
/// This is both the per-shard recorder on the hot paths and the snapshot
/// type every exporter reads — one merge path for everything.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    map: BTreeMap<String, Metric>,
}

impl Metrics {
    /// An empty snapshot.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Add `n` to the counter `name` (creating it at zero).
    pub fn add(&mut self, name: &str, n: u64) {
        match self.map.get_mut(name) {
            Some(Metric::Counter(c)) => *c += n,
            Some(_) => self.conflict(),
            None => {
                self.map.insert(name.to_string(), Metric::Counter(n));
            }
        }
    }

    /// Raise the gauge `name` to at least `v` (creating it at `v`).
    pub fn gauge_max(&mut self, name: &str, v: f64) {
        if !v.is_finite() {
            return;
        }
        match self.map.get_mut(name) {
            Some(Metric::Gauge(g)) => {
                if v > *g {
                    *g = v;
                }
            }
            Some(_) => self.conflict(),
            None => {
                self.map.insert(name.to_string(), Metric::Gauge(v));
            }
        }
    }

    /// Overwrite the counter `name` with `n` (creating it). Together with
    /// [`set_gauge`](Metrics::set_gauge) and
    /// [`assign_from`](Metrics::assign_from) this rewrites a snapshot in
    /// place: once every key exists, no call allocates.
    pub fn set_counter(&mut self, name: &str, n: u64) {
        match self.map.get_mut(name) {
            Some(Metric::Counter(c)) => *c = n,
            Some(_) => self.conflict(),
            None => {
                self.map.insert(name.to_string(), Metric::Counter(n));
            }
        }
    }

    /// Overwrite the gauge `name` with `v` (creating it); non-finite
    /// values are ignored, as in [`gauge_max`](Metrics::gauge_max).
    pub fn set_gauge(&mut self, name: &str, v: f64) {
        if !v.is_finite() {
            return;
        }
        match self.map.get_mut(name) {
            Some(Metric::Gauge(g)) => *g = v,
            Some(_) => self.conflict(),
            None => {
                self.map.insert(name.to_string(), Metric::Gauge(v));
            }
        }
    }

    /// Record `v` into the histogram `name`, creating it with `spec` on
    /// first use.
    pub fn observe_with(&mut self, name: &str, spec: HistSpec, v: f64) {
        match self.map.get_mut(name) {
            Some(Metric::Hist(h)) => h.observe(v),
            Some(_) => self.conflict(),
            None => {
                let mut h = Histogram::new(spec);
                h.observe(v);
                self.map.insert(name.to_string(), Metric::Hist(h));
            }
        }
    }

    /// A kind mismatch is a programming error, but the layer is panic-free
    /// by contract: record the conflict and keep the existing metric.
    fn conflict(&mut self) {
        let e = self
            .map
            .entry("obs.kind_conflicts".to_string())
            .or_insert(Metric::Counter(0));
        if let Metric::Counter(c) = e {
            *c += 1;
        }
    }

    /// The metric under `name`, if any.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.map.get(name)
    }

    /// Counter value (0 when absent or not a counter).
    pub fn counter(&self, name: &str) -> u64 {
        match self.map.get(name) {
            Some(Metric::Counter(c)) => *c,
            _ => 0,
        }
    }

    /// Gauge value, if present.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        match self.map.get(name) {
            Some(Metric::Gauge(g)) => Some(*g),
            _ => None,
        }
    }

    /// Sum of every counter whose name starts with `prefix` (invariant
    /// checks: `sum_counters("zeek.reject.")`).
    // lint: allow(unused-pub): tests/obs_pipeline.rs and crates/bench/tests/driver_cli.rs state the conservation identities with it
    pub fn sum_counters(&self, prefix: &str) -> u64 {
        self.map
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .filter_map(|(_, v)| match v {
                Metric::Counter(c) => Some(*c),
                _ => None,
            })
            .sum()
    }

    /// Iterate metrics in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Metric)> {
        self.map.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of metrics.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no metric has been recorded.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Fold another snapshot into this one (exact; order-independent for
    /// counters, gauges, and same-spec histograms).
    pub fn merge(&mut self, other: &Metrics) {
        for (name, metric) in &other.map {
            match (self.map.get_mut(name), metric) {
                (None, m) => {
                    self.map.insert(name.clone(), m.clone());
                }
                (Some(Metric::Counter(a)), Metric::Counter(b)) => *a += *b,
                (Some(Metric::Gauge(a)), Metric::Gauge(b)) => {
                    if *b > *a {
                        *a = *b;
                    }
                }
                (Some(Metric::Hist(a)), Metric::Hist(b)) => a.merge(b),
                (Some(_), _) => self.conflict(),
            }
        }
    }

    /// Overwrite every metric `other` carries with `other`'s value
    /// (creating missing ones); metrics only `self` has are untouched.
    /// Histogram counts are copied into the storage already held.
    pub fn assign_from(&mut self, other: &Metrics) {
        for (name, metric) in &other.map {
            match (self.map.get_mut(name), metric) {
                (None, m) => {
                    self.map.insert(name.clone(), m.clone());
                }
                (Some(Metric::Counter(a)), Metric::Counter(b)) => *a = *b,
                (Some(Metric::Gauge(a)), Metric::Gauge(b)) => *a = *b,
                (Some(Metric::Hist(a)), Metric::Hist(b)) => a.assign_from(b),
                (Some(_), _) => self.conflict(),
            }
        }
    }
}

/// Render a float as a JSON token (`null` for non-finite; shortest
/// round-trip decimal otherwise, so re-parsing is lossless).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

impl Metrics {
    /// Canonical JSON object, one line per metric, keys in name order.
    /// Two snapshots with equal contents render byte-identically, which
    /// is what the `--threads N` determinism check compares.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, metric)) in self.map.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n  ");
            out.push_str(&crate::bench::json_string(name));
            out.push_str(": ");
            match metric {
                Metric::Counter(c) => out.push_str(&c.to_string()),
                Metric::Gauge(g) => {
                    out.push_str("{\"gauge\": ");
                    out.push_str(&json_f64(*g));
                    out.push('}');
                }
                Metric::Hist(h) => {
                    out.push_str(&format!(
                        "{{\"hist\": {{\"lo\": {}, \"decades\": {}, \"per_decade\": {}, \
                         \"count\": {}, \"underflow\": {}, \"overflow\": {}, \
                         \"nonfinite\": {}, \"min\": {}, \"max\": {}, \"counts\": [",
                        json_f64(h.spec.lo),
                        h.spec.decades,
                        h.spec.per_decade,
                        h.count,
                        h.underflow,
                        h.overflow,
                        h.nonfinite,
                        h.min().map_or("null".into(), json_f64),
                        h.max().map_or("null".into(), json_f64),
                    ));
                    for (j, n) in h.counts.iter().enumerate() {
                        if j > 0 {
                            out.push_str(", ");
                        }
                        out.push_str(&n.to_string());
                    }
                    out.push_str("]}}");
                }
            }
        }
        out.push_str("\n}");
        out
    }

    /// Human-readable aligned table.
    pub fn render_table(&self) -> String {
        let width = self.map.keys().map(|k| k.len()).max().unwrap_or(6).max(6);
        let mut out = String::new();
        for (name, metric) in &self.map {
            let value = match metric {
                Metric::Counter(c) => c.to_string(),
                Metric::Gauge(g) => format!("{g} (gauge)"),
                Metric::Hist(h) => match (h.min(), h.max()) {
                    (Some(min), Some(max)) => {
                        let (p50, p95, p99) = (
                            h.quantile_upper(0.5).unwrap_or(max),
                            h.quantile_upper(0.95).unwrap_or(max),
                            h.quantile_upper(0.99).unwrap_or(max),
                        );
                        format!(
                            "n={} min={min:.3} p50<={p50:.3} p95<={p95:.3} p99<={p99:.3} max={max:.3}",
                            h.count()
                        )
                    }
                    _ => format!("n=0 (+{} nonfinite)", h.nonfinite),
                },
            };
            out.push_str(&format!("{name:width$}  {value}\n"));
        }
        out
    }

    /// Prometheus text exposition format. Metric names are prefixed with
    /// `namespace_` and sanitized (every non `[a-zA-Z0-9_:]` byte becomes
    /// `_`); histograms emit cumulative `_bucket{le=...}` lines plus the
    /// conventional `_sum` (midpoint estimate) and `_count`.
    pub fn to_prometheus(&self, namespace: &str) -> String {
        let sanitize = |s: &str| -> String {
            s.chars()
                .map(|c| if c.is_ascii_alphanumeric() || c == '_' || c == ':' { c } else { '_' })
                .collect()
        };
        let mut out = String::new();
        for (name, metric) in &self.map {
            let full = format!("{}_{}", sanitize(namespace), sanitize(name));
            match metric {
                Metric::Counter(c) => {
                    out.push_str(&format!("# TYPE {full} counter\n{full} {c}\n"));
                }
                Metric::Gauge(g) => {
                    out.push_str(&format!("# TYPE {full} gauge\n{full} {g}\n"));
                }
                Metric::Hist(h) => {
                    out.push_str(&format!("# TYPE {full} histogram\n"));
                    let mut cum = h.underflow;
                    for (i, n) in h.counts.iter().enumerate() {
                        cum += n;
                        out.push_str(&format!(
                            "{full}_bucket{{le=\"{}\"}} {cum}\n",
                            h.bounds[i + 1]
                        ));
                    }
                    cum += h.overflow;
                    out.push_str(&format!("{full}_bucket{{le=\"+Inf\"}} {cum}\n"));
                    out.push_str(&format!("{full}_sum {}\n", h.sum_estimate()));
                    out.push_str(&format!("{full}_count {}\n", h.count));
                    // Summary-style quantile estimates (bucket upper
                    // bounds), emitted as a sibling gauge family so the
                    // histogram TYPE above stays well-formed.
                    if h.count > 0 {
                        out.push_str(&format!("# TYPE {full}_q gauge\n"));
                        for q in [0.5, 0.95, 0.99] {
                            if let Some(v) = h.quantile_upper(q) {
                                out.push_str(&format!("{full}_q{{quantile=\"{q}\"}} {v}\n"));
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// Rebuild a snapshot from parsed [`to_json`](Metrics::to_json)
    /// output. Lossless for counters below 2^53 (JSON numbers are f64)
    /// and for everything else exactly — `to_json` writes shortest
    /// round-trip floats — so
    /// `from_json_value(&parse(&m.to_json())?)? == m`. This is how
    /// `repro obs-check` verifies a scraped `/snapshot` against the
    /// `/metrics` exposition.
    pub fn from_json_value(v: &crate::obs::json::Value) -> Result<Metrics, String> {
        use crate::obs::json::Value;
        let as_f64 = |v: &Value| match v {
            Value::Num(n) => Some(*n),
            // `to_json` writes non-finite floats as null.
            Value::Null => Some(f64::NAN),
            _ => None,
        };
        let as_u64 = |name: &str, v: Option<&Value>, what: &str| -> Result<u64, String> {
            let n = v
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("metric {name}: missing {what}"))?;
            if n < 0.0 || n.fract() != 0.0 {
                return Err(format!("metric {name}: {what} is not a u64 ({n})"));
            }
            Ok(n as u64)
        };
        let members = v.as_obj().ok_or("metrics document must be a JSON object")?;
        let mut out = Metrics::new();
        for (name, val) in members {
            let metric = match val {
                Value::Num(_) => Metric::Counter(as_u64(name, Some(val), "counter")?),
                Value::Obj(_) => {
                    if let Some(g) = val.get("gauge") {
                        let g = as_f64(g)
                            .ok_or_else(|| format!("metric {name}: gauge is not numeric"))?;
                        Metric::Gauge(g)
                    } else if let Some(h) = val.get("hist") {
                        let spec = HistSpec::log(
                            h.get("lo").and_then(Value::as_f64).unwrap_or(f64::NAN),
                            as_u64(name, h.get("decades"), "decades")? as u32,
                            as_u64(name, h.get("per_decade"), "per_decade")? as u32,
                        );
                        let counts = h
                            .get("counts")
                            .and_then(Value::as_arr)
                            .ok_or_else(|| format!("metric {name}: missing counts"))?
                            .iter()
                            .map(|c| as_u64(name, Some(c), "bucket count"))
                            .collect::<Result<Vec<u64>, String>>()?;
                        let hist = Histogram::from_parts(
                            spec,
                            counts,
                            as_u64(name, h.get("underflow"), "underflow")?,
                            as_u64(name, h.get("overflow"), "overflow")?,
                            as_u64(name, h.get("nonfinite"), "nonfinite")?,
                            h.get("min").and_then(Value::as_f64),
                            h.get("max").and_then(Value::as_f64),
                        )
                        .map_err(|e| format!("metric {name}: {e}"))?;
                        Metric::Hist(hist)
                    } else {
                        return Err(format!("metric {name}: unknown object shape"));
                    }
                }
                _ => return Err(format!("metric {name}: unsupported value kind")),
            };
            out.map.insert(name.clone(), metric);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_bounds_are_exact_at_decades() {
        let spec = HistSpec::log(1e-3, 3, 4);
        let b = spec.bounds();
        assert_eq!(b.len(), 13);
        assert_eq!(b[0], 1e-3);
        assert_eq!(b[4], 1e-3 * 10.0);
        assert_eq!(b[8], 1e-3 * 100.0);
        assert_eq!(b[12], 1e-3 * 1000.0);
        assert!(b.windows(2).all(|w| w[0] < w[1]), "edges strictly ascending");
    }

    #[test]
    fn bucket_boundaries_are_half_open() {
        let mut h = Histogram::new(HistSpec::log(1.0, 2, 2));
        let bounds = h.bounds.clone();
        // A value exactly on edge i belongs to bucket i, not i-1.
        for (i, &edge) in bounds.iter().enumerate().take(bounds.len() - 1) {
            h.observe(edge);
            assert_eq!(h.counts[i], 1, "edge {edge} lands in bucket {i}");
        }
        // The last edge overflows.
        h.observe(bounds[bounds.len() - 1]);
        assert_eq!(h.overflow, 1);
        // Just below the first edge underflows.
        h.observe(bounds[0] * 0.999);
        assert_eq!(h.underflow, 1);
    }

    #[test]
    fn log_scale_edge_values() {
        let mut h = Histogram::new(HistSpec::time_ms());
        h.observe(0.0); // below lo=1e-3
        h.observe(-5.0);
        h.observe(f64::NAN);
        h.observe(f64::INFINITY);
        h.observe(f64::NEG_INFINITY);
        h.observe(1e-3); // exactly lo → first bucket
        h.observe(1e9); // way past the top
        assert_eq!(h.underflow, 2);
        assert_eq!(h.nonfinite, 3);
        assert_eq!(h.overflow, 1);
        assert_eq!(h.counts[0], 1);
        assert_eq!(h.count(), 4, "nonfinite never enters count");
        assert_eq!(h.min(), Some(-5.0));
        assert_eq!(h.max(), Some(1e9));
    }

    fn filled(seed: u64, n: usize) -> Histogram {
        let mut h = Histogram::new(HistSpec::time_ms());
        let mut x = seed.wrapping_mul(2).wrapping_add(1);
        for _ in 0..n {
            // Cheap LCG spread across many decades.
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            h.observe((x % 1_000_000) as f64 / 7.0 + 1e-4);
        }
        h
    }

    #[test]
    fn merge_is_commutative_and_associative() {
        let (a, b, c) = (filled(1, 500), filled(2, 700), filled(3, 300));
        // a+(b+c) == (a+b)+c
        let mut bc = b.clone();
        bc.merge(&c);
        let mut left = a.clone();
        left.merge(&bc);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut right = ab;
        right.merge(&c);
        assert_eq!(left, right, "associativity");
        // a+b == b+a
        let mut ab2 = a.clone();
        ab2.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab2, ba, "commutativity");
        assert_eq!(left.count(), a.count() + b.count() + c.count());
    }

    #[test]
    fn cross_spec_merge_preserves_count_and_extrema() {
        let mut a = Histogram::new(HistSpec::time_ms());
        a.observe(5.0);
        let mut b = Histogram::new(HistSpec::log(1.0, 12, 2));
        b.observe(2.0);
        b.observe(1e14); // overflow in b
        b.observe(f64::NAN);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.nonfinite, 1);
        assert_eq!(a.min(), Some(2.0));
        assert_eq!(a.max(), Some(1e14));
    }

    #[test]
    fn quantile_and_sum_are_sane() {
        let mut h = Histogram::new(HistSpec::time_ms());
        for _ in 0..100 {
            h.observe(10.0);
        }
        let p50 = h.quantile_upper(0.5).unwrap();
        assert!((5.0..=20.0).contains(&p50), "p50 {p50} near 10");
        let sum = h.sum_estimate();
        assert!((500.0..=2000.0).contains(&sum), "sum {sum} near 1000");
        assert_eq!(Histogram::new(HistSpec::time_ms()).quantile_upper(0.5), None);
    }

    #[test]
    fn quantile_upper_pins_bucket_upper_bounds() {
        // 10.0 sits exactly on a decade edge of time_ms (1e-3 * 10^4,
        // edge index 16), so every sample lands in bucket 16 and the
        // upper-bound estimate is exactly edge 17 — no tolerance needed.
        let mut h = Histogram::new(HistSpec::time_ms());
        for _ in 0..100 {
            h.observe(10.0);
        }
        let bounds = h.bounds.clone();
        assert_eq!(h.quantile_upper(0.5), Some(bounds[17]));
        assert_eq!(h.quantile_upper(0.95), Some(bounds[17]));
        assert_eq!(h.quantile_upper(0.99), Some(bounds[17]));
        assert!(h.quantile_upper(0.5).unwrap() >= 10.0, "never understates");

        // Underflow ranks resolve to the first edge; overflow ranks to
        // max(bounds[last], max). For a naturally observed overflow the
        // observed max is >= the last edge, so this is still the max.
        let mut u = Histogram::new(HistSpec::time_ms());
        u.observe(1e-9);
        assert_eq!(u.quantile_upper(0.0), Some(u.bounds[0]));
        let mut o = Histogram::new(HistSpec::time_ms());
        o.observe(5e9);
        assert!(5e9 >= *o.bounds.last().unwrap());
        assert_eq!(o.quantile_upper(1.0), Some(5e9));

        // Rank selection across buckets: 90 low + 10 high samples.
        let mut m = Histogram::new(HistSpec::time_ms());
        m.observe_n(1.0, 90); // edge 12 (1e-3 * 10^3) → bucket 12
        m.observe_n(100.0, 10); // edge 20 → bucket 20
        assert_eq!(m.quantile_upper(0.5), Some(m.bounds[13]));
        assert_eq!(m.quantile_upper(0.95), Some(m.bounds[21]));
        assert_eq!(Histogram::new(HistSpec::time_ms()).quantile_upper(0.5), None);
    }

    #[test]
    fn quantile_upper_is_monotone_even_with_a_stale_max() {
        // Regression: a histogram rebuilt from parts (or merged from a
        // shard that saw smaller values) can carry max < bounds[last]
        // while overflow > 0. The old overflow branch returned the raw
        // `max` — an *observed value*, not an upper bound — so p99
        // (overflow rank) could come out below p95 (bucket rank). The
        // overflow branch must return max(bounds[last], max).
        let spec = HistSpec::time_ms();
        let probe = Histogram::new(spec.clone());
        let n_buckets = probe.counts.len();
        let mut counts = vec![0u64; n_buckets];
        counts[n_buckets - 1] = 95; // p95 rank lands here → bounds[last]
        let h = Histogram::from_parts(spec, counts, 0, 5, 0, Some(1.0), Some(1.0))
            .expect("parts accepted");
        let last_edge = *h.bounds.last().unwrap();
        let p95 = h.quantile_upper(0.95).unwrap();
        let p99 = h.quantile_upper(0.99).unwrap();
        assert_eq!(p95, last_edge);
        assert_eq!(p99, last_edge, "overflow rank resolves to an upper bound");
        assert!(p99 >= p95, "quantile_upper must be monotone in q: p99 {p99} < p95 {p95}");
    }

    #[test]
    fn histogram_from_parts_round_trips() {
        let h = filled(9, 400);
        let rebuilt = Histogram::from_parts(
            h.spec,
            h.counts.to_vec(),
            h.underflow,
            h.overflow,
            h.nonfinite,
            h.min(),
            h.max(),
        )
        .expect("parts are consistent");
        assert_eq!(rebuilt, h);
        // Wrong bucket count is an error, not a panic.
        assert!(Histogram::from_parts(
            HistSpec::time_ms(),
            vec![0; 3],
            0,
            0,
            0,
            None,
            None
        )
        .is_err());
        // A non-empty histogram must carry extrema.
        assert!(
            Histogram::from_parts(HistSpec::time_ms(), vec![1; 36], 0, 0, 0, None, None).is_err()
        );
    }

    #[test]
    fn metrics_json_round_trips_through_from_json_value() {
        let mut m = Metrics::new();
        m.add("zeek.frames_seen", 12345);
        m.gauge_max("stream.live_flows", 77.25);
        m.map.insert("h".into(), Metric::Hist(filled(4, 250)));
        m.observe_with("empty-ish", HistSpec::time_ms(), f64::NAN); // nonfinite-only histogram
        let v = crate::obs::json::parse(&m.to_json()).expect("valid JSON");
        let back = Metrics::from_json_value(&v).expect("reconstructs");
        assert_eq!(back, m);
        assert_eq!(back.to_json(), m.to_json());
        assert_eq!(back.to_prometheus("ns"), m.to_prometheus("ns"));
        // Junk shapes error instead of panicking.
        for bad in ["[1]", "{\"x\": true}", "{\"x\": {\"weird\": 1}}", "{\"x\": -3}"] {
            let v = crate::obs::json::parse(bad).unwrap();
            assert!(Metrics::from_json_value(&v).is_err(), "{bad} must not reconstruct");
        }
    }

    #[test]
    fn metrics_counters_gauges_and_conflicts() {
        let mut m = Metrics::new();
        m.add("a.x", 1);
        m.add("a.x", 4);
        m.gauge_max("g", 2.0);
        m.gauge_max("g", 1.0);
        m.gauge_max("g", 7.5);
        m.gauge_max("g", f64::NAN);
        assert_eq!(m.counter("a.x"), 5);
        assert_eq!(m.gauge("g"), Some(7.5));
        // Kind conflict: recorded, never panics, existing metric kept.
        m.gauge_max("a.x", 1.0);
        assert_eq!(m.counter("a.x"), 5);
        assert_eq!(m.counter("obs.kind_conflicts"), 1);
    }

    #[test]
    fn metrics_merge_matches_single_stream() {
        let mut whole = Metrics::new();
        let mut parts: Vec<Metrics> = (0..4).map(|_| Metrics::new()).collect();
        for i in 0..1000u64 {
            let v = (i % 97) as f64 + 0.5;
            whole.add("n", 1);
            whole.observe_with("h", HistSpec::time_ms(), v);
            whole.gauge_max("g", v);
            let p = &mut parts[(i % 4) as usize];
            p.add("n", 1);
            p.observe_with("h", HistSpec::time_ms(), v);
            p.gauge_max("g", v);
        }
        let mut merged = Metrics::new();
        for p in &parts {
            merged.merge(p);
        }
        assert_eq!(merged, whole);
        assert_eq!(merged.to_json(), whole.to_json());
    }

    #[test]
    fn in_place_rewrite_equals_a_fresh_build() {
        // A snapshot rewritten with set_*/assign_from must equal the one
        // built from scratch with add/gauge_max/merge, whatever it held.
        let mut acc = Metrics::new();
        acc.add("pair.hit", 7);
        acc.map.insert("pair.gap_ms".into(), Metric::Hist(filled(5, 300)));
        let mut fresh = Metrics::new();
        fresh.add("zeek.conn_rows", 40);
        fresh.gauge_max("stream.live_flows", 3.0);
        fresh.merge(&acc);

        let mut reused = Metrics::new();
        reused.set_counter("zeek.conn_rows", 90);
        reused.set_gauge("stream.live_flows", 12.0);
        reused.add("pair.hit", 100);
        reused.map.insert("pair.gap_ms".into(), Metric::Hist(filled(6, 900)));
        reused.set_counter("zeek.conn_rows", 40);
        reused.set_gauge("stream.live_flows", 3.0); // gauges may fall
        reused.set_gauge("stream.live_flows", f64::NAN);
        reused.assign_from(&acc);
        assert_eq!(reused, fresh);
        assert_eq!(reused.to_json(), fresh.to_json());

        // Kind mismatches are recorded, never applied.
        reused.set_gauge("pair.hit", 1.0);
        reused.set_counter("stream.live_flows", 1);
        assert_eq!(reused.counter("obs.kind_conflicts"), 2);
        assert_eq!(reused.counter("pair.hit"), 7);
    }

    #[test]
    fn sum_counters_by_prefix() {
        let mut m = Metrics::new();
        m.add("zeek.reject.a", 2);
        m.add("zeek.reject.b", 3);
        m.add("zeek.other", 100);
        m.gauge_max("zeek.reject.gauge", 9.0);
        assert_eq!(m.sum_counters("zeek.reject."), 5);
    }

    #[test]
    fn exports_render() {
        let mut m = Metrics::new();
        m.add("pair.hit", 3);
        m.gauge_max("zeek.peak", 4.0);
        m.observe_with("pair.gap_ms", HistSpec::time_ms(), 12.0);
        let table = m.render_table();
        assert!(table.contains("pair.hit"));
        assert!(table.contains("n=1"));
        let prom = m.to_prometheus("dnsctx");
        assert!(prom.contains("# TYPE dnsctx_pair_hit counter"));
        assert!(prom.contains("dnsctx_pair_gap_ms_bucket{le=\"+Inf\"} 1"));
        assert!(prom.contains("dnsctx_pair_gap_ms_count 1"));
        assert!(prom.contains("# TYPE dnsctx_zeek_peak gauge"));
    }
}
