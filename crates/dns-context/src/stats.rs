//! Small statistics toolkit: empirical CDFs, quantiles, summaries.

use std::fmt;

/// An empirical cumulative distribution over `f64` samples.
///
/// Construction sorts once; queries are O(log n). NaN samples are
/// filtered out at construction — NaN has no place in an order statistic
/// (it would poison the sort and make `sorted` non-monotone), so a NaN
/// simply does not become a sample.
#[derive(Debug, Clone)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Build from samples, silently dropping any NaN values.
    pub fn new(mut samples: Vec<f64>) -> Ecdf {
        samples.retain(|x| !x.is_nan());
        // A comparison sort needs no second buffer. Only §6's three
        // ECDFs take the radix kernel (`Ecdf::radix`, same order bit for
        // bit): `perf` already holds a buffer as long as them to lend.
        // The other callers hold none and would allocate one each.
        // Samples equal under `total_cmp` are bit-identical, so an
        // unstable sort orders them exactly as a stable one would.
        samples.sort_unstable_by(|a, b| a.total_cmp(b));
        Ecdf { sorted: samples }
    }

    /// [`Ecdf::new`] through the radix kernel, with `scratch` (at least
    /// as long as `samples`) as its second buffer. The keys are the
    /// samples' [`total_order_bits`](crate::radix::total_order_bits), so
    /// the order is `new`'s, bit for bit.
    pub(crate) fn radix(mut samples: Vec<f64>, scratch: &mut [f64]) -> Ecdf {
        samples.retain(|x| !x.is_nan());
        crate::radix::sort(&mut samples, scratch, |x| crate::radix::total_order_bits(*x));
        Ecdf { sorted: samples }
    }

    /// The distribution of `a`'s and `b`'s samples together, merged into
    /// `into`'s buffer (cleared first): what [`Ecdf::new`] of their union
    /// gives, without sorting again.
    pub(crate) fn merge(a: &Ecdf, b: &Ecdf, mut into: Vec<f64>) -> Ecdf {
        into.clear();
        let (mut a, mut b) = (&a.sorted[..], &b.sorted[..]);
        while let (Some(x), Some(y)) = (a.first(), b.first()) {
            if y.total_cmp(x).is_lt() {
                into.push(*y);
                b = &b[1..];
            } else {
                into.push(*x);
                a = &a[1..];
            }
        }
        into.extend_from_slice(a);
        into.extend_from_slice(b);
        Ecdf { sorted: into }
    }

    /// Number of samples.
    pub(crate) fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when there are no samples.
    pub(crate) fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The q-quantile (0 ≤ q ≤ 1), by the nearest-rank method.
    /// Returns `None` on an empty distribution. Out-of-range and NaN
    /// `q` clamp to the nearest valid probability.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        let q = if q.is_nan() { 0.0 } else { q.clamp(0.0, 1.0) };
        let idx = ((q * self.sorted.len() as f64).ceil() as usize).saturating_sub(1);
        Some(self.sorted[idx.min(self.sorted.len() - 1)])
    }

    /// Median, or `None` when empty.
    pub fn median(&self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// Fraction of samples ≤ `x` (the CDF evaluated at `x`).
    pub fn fraction_at_or_below(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let count = self.sorted.partition_point(|v| *v <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// Fraction of samples strictly above `x`.
    pub fn fraction_above(&self, x: f64) -> f64 {
        1.0 - self.fraction_at_or_below(x)
    }

    /// Smallest sample, or `None` when empty.
    pub(crate) fn min(&self) -> Option<f64> {
        self.sorted.first().copied()
    }

    /// Largest sample, or `None` when empty.
    pub(crate) fn max(&self) -> Option<f64> {
        self.sorted.last().copied()
    }

    /// Arithmetic mean, or `None` when empty.
    fn mean(&self) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        Some(self.sorted.iter().sum::<f64>() / self.sorted.len() as f64)
    }

    /// `points` evenly-spaced (in probability) CDF points `(x, F(x))`,
    /// suitable for plotting or CSV export. Fewer points than requested
    /// come back when there are fewer samples.
    pub(crate) fn curve(&self, points: usize) -> Vec<(f64, f64)> {
        if self.sorted.is_empty() || points == 0 {
            return Vec::new();
        }
        let n = points.min(self.sorted.len());
        (1..=n)
            .map(|k| {
                let q = k as f64 / n as f64;
                let idx = ((q * self.sorted.len() as f64).ceil() as usize - 1).min(self.sorted.len() - 1);
                (self.sorted[idx], q)
            })
            .collect()
    }

    /// Read-only view of the sorted samples.
    pub fn samples(&self) -> &[f64] {
        &self.sorted
    }
}

/// Five-number-plus summary of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub count: usize,
    /// Minimum.
    pub min: f64,
    /// 25th percentile.
    pub p25: f64,
    /// Median.
    pub median: f64,
    /// 75th percentile.
    pub p75: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum.
    pub max: f64,
    /// Mean.
    pub mean: f64,
}

impl Summary {
    /// Summarise an ECDF; `None` when empty.
    pub(crate) fn of(e: &Ecdf) -> Option<Summary> {
        Some(Summary {
            count: e.len(),
            min: e.min()?,
            p25: e.quantile(0.25)?,
            median: e.median()?,
            p75: e.quantile(0.75)?,
            p90: e.quantile(0.90)?,
            p99: e.quantile(0.99)?,
            max: e.max()?,
            mean: e.mean()?,
        })
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} min={:.3} p25={:.3} med={:.3} p75={:.3} p90={:.3} p99={:.3} max={:.3} mean={:.3}",
            self.count, self.min, self.p25, self.median, self.p75, self.p90, self.p99, self.max, self.mean
        )
    }
}

/// Percentage with one decimal — the paper's reporting style.
pub(crate) fn pct(part: usize, whole: usize) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_nearest_rank() {
        let e = Ecdf::new(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]);
        assert_eq!(e.quantile(0.5), Some(5.0));
        assert_eq!(e.quantile(0.1), Some(1.0));
        assert_eq!(e.quantile(1.0), Some(10.0));
        assert_eq!(e.quantile(0.0), Some(1.0));
        assert_eq!(e.median(), Some(5.0));
    }

    #[test]
    fn fractions() {
        let e = Ecdf::new(vec![1.0, 2.0, 2.0, 3.0]);
        assert_eq!(e.fraction_at_or_below(2.0), 0.75);
        assert_eq!(e.fraction_at_or_below(0.5), 0.0);
        assert_eq!(e.fraction_at_or_below(99.0), 1.0);
        assert!((e.fraction_above(2.0) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn empty_distribution() {
        let e = Ecdf::new(vec![]);
        assert!(e.is_empty());
        assert_eq!(e.median(), None);
        assert_eq!(e.fraction_at_or_below(1.0), 0.0);
        assert!(e.curve(10).is_empty());
        assert!(Summary::of(&e).is_none());
    }

    #[test]
    fn unsorted_input_handled() {
        let e = Ecdf::new(vec![5.0, 1.0, 3.0]);
        assert_eq!(e.min(), Some(1.0));
        assert_eq!(e.max(), Some(5.0));
        assert_eq!(e.samples(), &[1.0, 3.0, 5.0]);
    }

    #[test]
    fn nan_filtered_at_construction() {
        let e = Ecdf::new(vec![f64::NAN, 1.0, f64::NAN, 3.0]);
        assert_eq!(e.len(), 2);
        assert_eq!(e.samples(), &[1.0, 3.0]);
        assert_eq!(e.median(), Some(1.0));
        // All-NaN input degenerates to the empty distribution.
        let empty = Ecdf::new(vec![f64::NAN]);
        assert!(empty.is_empty());
        assert_eq!(empty.quantile(0.5), None);
    }

    #[test]
    fn unstable_construction_is_bit_identical_to_a_stable_sort() {
        // Duplicates, both zeros, infinities and NaNs of two payloads, in
        // a seeded shuffle: `total_cmp` ties only bit-identical values, so
        // the unstable sort's order of ties cannot show.
        let pool = [
            1.5, -0.0, 0.0, 2.0, -3.25, 7.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN,
            -f64::NAN, f64::MIN_POSITIVE, -f64::MIN_POSITIVE,
        ];
        let mut r = xkit::rng::StdRng::seed_from_u64(0xECDF);
        for n in [0usize, 1, 2, 19, 20, 21, 500] {
            let input: Vec<f64> = (0..n).map(|_| *r.choose(&pool).expect("pool")).collect();
            let mut stable: Vec<f64> = input.iter().copied().filter(|x| !x.is_nan()).collect();
            stable.sort_by(|a, b| a.total_cmp(b));
            let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
            let e = Ecdf::new(input);
            assert_eq!(bits(e.samples()), bits(&stable), "{n} samples");
            let reference = Ecdf { sorted: stable };
            for q in [0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
                let (got, want) = (e.quantile(q), reference.quantile(q));
                assert_eq!(got.map(f64::to_bits), want.map(f64::to_bits), "{n} samples, q {q}");
            }
        }
    }

    #[test]
    fn radix_construction_and_merge_build_what_new_builds() {
        let pool = [1.5, -0.0, 0.0, 2.0, 7.0, f64::INFINITY, f64::NAN, f64::MIN_POSITIVE / 4.0];
        let mut r = xkit::rng::StdRng::seed_from_u64(0xECDF + 1);
        for (n, m) in [(0usize, 0usize), (0, 3), (1, 0), (40, 2), (300, 700)] {
            let mut draw = |k: usize| (0..k).map(|_| *r.choose(&pool).expect("pool")).collect::<Vec<f64>>();
            let (a, b) = (draw(n), draw(m));
            let both = Ecdf::new(a.iter().chain(&b).copied().collect());
            let mut scratch = vec![0.0; n + m];
            let (ra, rb) = (Ecdf::radix(a.clone(), &mut scratch), Ecdf::radix(b, &mut scratch));
            let bits = |e: &Ecdf| e.samples().iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
            assert_eq!(bits(&ra), bits(&Ecdf::new(a)), "{n} samples");
            assert_eq!(bits(&Ecdf::merge(&ra, &rb, scratch)), bits(&both), "{n} + {m} samples");
        }
    }

    #[test]
    fn quantile_edges_on_tiny_distributions() {
        // Nearest-rank pins for q ∈ {0, 0.5, 1} on 1-, 2- and 3-element
        // sets: idx = ceil(q·n) − 1, clamped into range.
        let one = Ecdf::new(vec![7.0]);
        assert_eq!(one.quantile(0.0), Some(7.0));
        assert_eq!(one.quantile(0.5), Some(7.0));
        assert_eq!(one.quantile(1.0), Some(7.0));

        let two = Ecdf::new(vec![1.0, 2.0]);
        assert_eq!(two.quantile(0.0), Some(1.0));
        assert_eq!(two.quantile(0.5), Some(1.0));
        assert_eq!(two.quantile(1.0), Some(2.0));

        let three = Ecdf::new(vec![1.0, 2.0, 3.0]);
        assert_eq!(three.quantile(0.0), Some(1.0));
        assert_eq!(three.quantile(0.5), Some(2.0));
        assert_eq!(three.quantile(1.0), Some(3.0));

        // Out-of-range q clamps rather than panicking or indexing wild.
        assert_eq!(three.quantile(-1.0), Some(1.0));
        assert_eq!(three.quantile(2.0), Some(3.0));
        // A NaN probability clamps to 0 (f64::clamp would propagate it).
        assert_eq!(three.quantile(f64::NAN), Some(1.0));
    }

    #[test]
    fn curve_is_monotonic() {
        let e = Ecdf::new((0..1000).map(|i| ((i * 37) % 911) as f64).collect());
        let c = e.curve(50);
        assert_eq!(c.len(), 50);
        for w in c.windows(2) {
            assert!(w[1].0 >= w[0].0);
            assert!(w[1].1 > w[0].1);
        }
        assert!((c.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn summary_matches_quantiles() {
        let e = Ecdf::new((1..=100).map(|i| i as f64).collect());
        let s = Summary::of(&e).unwrap();
        assert_eq!(s.count, 100);
        assert_eq!(s.median, 50.0);
        assert_eq!(s.p90, 90.0);
        assert_eq!(s.mean, 50.5);
    }

    #[test]
    fn pct_helper() {
        assert_eq!(pct(1, 4), 25.0);
        assert_eq!(pct(0, 0), 0.0);
    }
}
