//! Order statistics and comparisons the benchmark reports with.
//!
//! Every timing metric is a median of repetitions (see the README's
//! noise finding); quartiles use the same rule as Python's
//! `statistics.quantiles(values, n=4)`, which is what the driver judges
//! the spread of ten runs with, so a spread computed here and there
//! agree.

use xkit::obs::SpanRecord;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// `[q1, median, q3]` by the exclusive method (Python's default). Fewer
/// than two samples have no spread: all three are the sample itself
/// (0 for none).
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return [v.first().copied().unwrap_or(0.0); 3];
    }
    [1usize, 2, 3].map(|i| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

/// The median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values)[1]
}

/// The `want` percentile (nearest rank), lowered to the highest
/// percentile that still has ten samples beyond it. Returns the value
/// and the percentile actually reported; with eleven samples or fewer
/// that is the median.
pub fn percentile_with_ten_beyond(values: &[f64], want: f64) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n == 0 {
        return (0.0, 0.0);
    }
    if n <= 11 {
        return (median(&v), 50.0);
    }
    let wanted_rank = ((want / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    let rank = wanted_rank.min(n - 10);
    let actual = if rank == wanted_rank {
        want
    } else {
        100.0 * rank as f64 / n as f64
    };
    (v[rank - 1], actual)
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    /// As `BENCHMARK.json` spells it (a unit test compares the two).
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// The share of `base` by which `new` is worse (negative when it is
/// better). A regression bound `b` is met when this is at most `b`.
pub fn worsening(better: Better, base: f64, new: f64) -> f64 {
    match better {
        Better::Lower => (new - base) / base,
        Better::Higher => (base - new) / base,
    }
}

/// A parent's self time: what is left of it once the standalone passes
/// of the layers it calls are taken out (never negative — the passes
/// are measured apart, so noise can make them sum past the parent).
pub fn self_time(parent: f64, children: &[f64]) -> f64 {
    (parent - children.iter().sum::<f64>()).max(0.0)
}

/// Per span, its wall time minus the wall time of its direct children,
/// in nanoseconds. `records` is a `SpanLog`'s preorder list.
pub fn span_self_ns(records: &[SpanRecord]) -> Vec<u64> {
    let mut own: Vec<u64> = records.iter().map(|r| r.wall_ns).collect();
    let mut open: Vec<usize> = Vec::new();
    for (i, r) in records.iter().enumerate() {
        open.truncate(r.depth);
        if let Some(&parent) = open.last() {
            own[parent] = own[parent].saturating_sub(r.wall_ns);
        }
        open.push(i);
    }
    own
}

/// The note a top-level span carries: mean seconds of the host-speed
/// probes either side of it.
pub const PROBE_NOTE: &str = "host_probe_s";

/// The factor that takes times measured under the top-level span `root`
/// to the host's full speed: `fastest_probe_s` over the root's probe
/// note (1 for a root without one).
pub fn full_speed(root: &SpanRecord, fastest_probe_s: f64) -> f64 {
    root.notes
        .iter()
        .find(|(key, _)| key == PROBE_NOTE)
        .map_or(1.0, |(_, probe_s)| fastest_probe_s / probe_s)
}

/// Wall times (ns) of the spans called `name`, grouped by the top-level
/// span called `root` they ran under (one group per traced repetition,
/// in order). Top-level spans of another name are skipped. Times are
/// taken at the host's full speed, by the root's [`full_speed`] factor.
pub fn spans_by_rep(
    records: &[SpanRecord],
    root: &str,
    name: &str,
    fastest_probe_s: f64,
) -> Vec<Vec<f64>> {
    let mut reps: Vec<Vec<f64>> = Vec::new();
    let (mut in_rep, mut speed) = (false, 1.0);
    for r in records {
        if r.depth == 0 {
            in_rep = r.name == root;
            if in_rep {
                reps.push(Vec::new());
                speed = full_speed(r, fastest_probe_s);
            }
        }
        if in_rep && r.name == name {
            if let Some(rep) = reps.last_mut() {
                rep.push(r.wall_ns as f64 * speed);
            }
        }
    }
    reps
}

/// Median over repetitions of the full-speed seconds each spent in
/// spans called `name`.
pub fn span_median_s(records: &[SpanRecord], root: &str, name: &str, fastest_probe_s: f64) -> f64 {
    let per_rep: Vec<f64> = spans_by_rep(records, root, name, fastest_probe_s)
        .iter()
        .map(|walls| walls.iter().sum::<f64>() / 1e9)
        .collect();
    median(&per_rep)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, depth: usize, wall_ns: u64) -> SpanRecord {
        SpanRecord {
            name: name.into(),
            depth,
            start_ns: 0,
            wall_ns,
            notes: Vec::new(),
        }
    }

    #[test]
    fn quartiles_follow_the_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        // p90 of 200 has twenty beyond it: reported as asked.
        assert_eq!(percentile_with_ten_beyond(&v, 90.0), (180.0, 90.0));
        // p99 has only two beyond: lowered to rank 190 of 200.
        assert_eq!(percentile_with_ten_beyond(&v, 99.0), (190.0, 95.0));
        let few: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile_with_ten_beyond(&few, 90.0), (10.0, 50.0));
        let tiny: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(percentile_with_ten_beyond(&tiny, 90.0), (3.0, 50.0));
        assert_eq!(percentile_with_ten_beyond(&[], 90.0), (0.0, 0.0));
    }

    #[test]
    fn worsening_is_signed_by_direction() {
        assert!((worsening(Better::Lower, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worsening(Better::Lower, 10.0, 9.0) + 0.1).abs() < 1e-12);
        assert!((worsening(Better::Higher, 10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!(worsening(Better::Higher, 10.0, 12.0) < 0.0);
    }

    #[test]
    fn self_time_subtracts_children_and_floors_at_zero() {
        assert_eq!(self_time(1.0, &[0.25, 0.5]), 0.25);
        assert_eq!(self_time(1.0, &[0.75, 0.5]), 0.0);
        let records = [
            span("rep", 0, 100),
            span("a", 1, 30),
            span("a.inner", 2, 10),
            span("b", 1, 50),
            span("rep", 0, 40),
            span("a", 1, 40),
            span("a", 0, 99),
        ];
        assert_eq!(span_self_ns(&records), vec![20, 20, 10, 50, 0, 40, 99]);
        assert_eq!(
            spans_by_rep(&records, "rep", "a", 1.0),
            vec![vec![30.0], vec![40.0]]
        );
        assert_eq!(
            spans_by_rep(&records, "rep", "b", 1.0),
            vec![vec![50.0], vec![]]
        );
        assert!((span_median_s(&records, "rep", "a", 1.0) - 35e-9).abs() < 1e-18);
    }

    #[test]
    fn spans_under_a_probed_root_are_taken_at_full_speed() {
        let mut slow_rep = span("rep", 0, 100);
        slow_rep.notes.push((PROBE_NOTE.into(), 2.0));
        let records = [
            slow_rep,
            span("a", 1, 30),
            span("rep", 0, 40),
            span("a", 1, 20),
        ];
        // The host ran the first repetition's probes at half its fastest
        // speed; the second carries no note and stays as measured.
        assert_eq!(
            spans_by_rep(&records, "rep", "a", 1.0),
            vec![vec![15.0], vec![20.0]]
        );
    }
}
