//! Random distributions the workload model needs, implemented from scratch
//! on top of `xkit::rng`'s uniform primitives (no external distribution
//! crate is a dependency of this workspace).

use xkit::rng::StdRng;

/// Log-normal distribution parameterised by the *median* and the shape
/// `sigma` (standard deviation of the underlying normal). Medians are how
/// measurement papers report skewed delays, so this parameterisation keeps
/// the config readable.
#[derive(Debug, Clone, Copy)]
pub struct LogNormal {
    /// ln(median).
    mu: f64,
    /// Shape.
    sigma: f64,
}

impl LogNormal {
    /// A log-normal with the given median and shape.
    pub(crate) fn from_median(median: f64, sigma: f64) -> LogNormal {
        assert!(median > 0.0 && sigma >= 0.0);
        LogNormal { mu: median.ln(), sigma }
    }

    /// Draw a sample.
    pub(crate) fn sample(&self, rng: &mut StdRng) -> f64 {
        (self.mu + self.sigma * standard_normal(rng)).exp()
    }

    /// Draw a sample clamped to `[lo, hi]` (delay models need bounded
    /// tails so one outlier cannot dominate a small run).
    pub(crate) fn sample_clamped(&self, rng: &mut StdRng, lo: f64, hi: f64) -> f64 {
        self.sample(rng).clamp(lo, hi)
    }
}

/// One draw from the standard normal via Box–Muller.
fn standard_normal(rng: &mut StdRng) -> f64 {
    // Avoid ln(0) by sampling the half-open (0, 1].
    let u1: f64 = 1.0 - rng.random::<f64>();
    let u2: f64 = rng.random();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Bounded Pareto distribution — heavy-tailed sizes with a hard cap.
#[derive(Debug, Clone, Copy)]
pub struct BoundedPareto {
    /// Shape (smaller = heavier tail). Typical traffic models use 1.0–1.5.
    alpha: f64,
    /// Minimum value.
    lo: f64,
    /// Maximum value.
    hi: f64,
}

impl BoundedPareto {
    /// A bounded Pareto on `[lo, hi]` with shape `alpha`.
    pub(crate) fn new(alpha: f64, lo: f64, hi: f64) -> BoundedPareto {
        assert!(alpha > 0.0 && lo > 0.0 && hi > lo);
        BoundedPareto { alpha, lo, hi }
    }

    /// Draw a sample (inverse-CDF method).
    pub(crate) fn sample(&self, rng: &mut StdRng) -> f64 {
        let u: f64 = rng.random();
        let la = self.lo.powf(self.alpha);
        let ha = self.hi.powf(self.alpha);
        // Inverse CDF of the truncated Pareto.
        (-(u * ha - u * la - ha) / (ha * la)).powf(-1.0 / self.alpha)
    }
}

/// Exponential distribution with the given mean (inter-arrival times).
#[derive(Debug, Clone, Copy)]
pub struct Exponential {
    mean: f64,
}

impl Exponential {
    /// An exponential with the given mean.
    pub(crate) fn new(mean: f64) -> Exponential {
        assert!(mean > 0.0);
        Exponential { mean }
    }

    /// Draw a sample.
    pub(crate) fn sample(&self, rng: &mut StdRng) -> f64 {
        let u: f64 = 1.0 - rng.random::<f64>();
        -self.mean * u.ln()
    }
}

/// Zipf-like sampler over ranks `0..n` using the rejection-inversion-free
/// approximate inverse-CDF for the Zipf–Mandelbrot family. Exact enough
/// for popularity modelling and O(1) per sample.
#[derive(Debug, Clone)]
pub struct Zipf {
    n: usize,
    s: f64,
    /// Precomputed normalising integral H(n).
    h_n: f64,
}

impl Zipf {
    /// A Zipf sampler over `n` items with exponent `s` (s ≠ 1 handled via
    /// the generalised harmonic integral; s near 1 is fine).
    pub(crate) fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0 && s > 0.0);
        Zipf { n, s, h_n: Self::h(n as f64 + 0.5, s) }
    }

    /// The continuous approximation of the generalised harmonic number:
    /// ∫ x^-s dx from 0.5 to x.
    fn h(x: f64, s: f64) -> f64 {
        if (s - 1.0).abs() < 1e-9 {
            (x / 0.5).ln()
        } else {
            (x.powf(1.0 - s) - 0.5f64.powf(1.0 - s)) / (1.0 - s)
        }
    }

    fn h_inv(&self, y: f64) -> f64 {
        if (self.s - 1.0).abs() < 1e-9 {
            0.5 * y.exp()
        } else {
            ((1.0 - self.s) * y + 0.5f64.powf(1.0 - self.s)).powf(1.0 / (1.0 - self.s))
        }
    }

    /// Draw a rank in `0..n` (0 = most popular).
    pub(crate) fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.random();
        let x = self.h_inv(u * self.h_n);
        (x.round() as usize).clamp(1, self.n) - 1
    }
}

/// Weighted choice over a small static set.
pub(crate) fn weighted_index(rng: &mut StdRng, weights: &[f64]) -> usize {
    debug_assert!(!weights.is_empty());
    let total: f64 = weights.iter().sum();
    let mut x = rng.random::<f64>() * total;
    for (i, w) in weights.iter().enumerate() {
        x -= w;
        if x <= 0.0 {
            return i;
        }
    }
    weights.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn lognormal_median_is_close() {
        let d = LogNormal::from_median(8.0, 0.8);
        let mut r = rng();
        let mut v: Vec<f64> = (0..20_000).map(|_| d.sample(&mut r)).collect();
        v.sort_by(|a, b| a.total_cmp(b));
        let median = v[v.len() / 2];
        assert!((median - 8.0).abs() < 0.5, "median = {median}");
        assert!(v.iter().all(|x| *x > 0.0));
    }

    #[test]
    fn lognormal_clamped_respects_bounds() {
        let d = LogNormal::from_median(10.0, 2.0);
        let mut r = rng();
        for _ in 0..5_000 {
            let x = d.sample_clamped(&mut r, 1.0, 100.0);
            assert!((1.0..=100.0).contains(&x));
        }
    }

    #[test]
    fn standard_normal_moments() {
        let mut r = rng();
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut r)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.05, "var = {var}");
    }

    #[test]
    fn bounded_pareto_stays_in_bounds_and_is_skewed() {
        let d = BoundedPareto::new(1.2, 1_000.0, 1e9);
        let mut r = rng();
        let samples: Vec<f64> = (0..20_000).map(|_| d.sample(&mut r)).collect();
        assert!(samples.iter().all(|x| (1_000.0..=1e9).contains(x)));
        let mut v = samples.clone();
        v.sort_by(|a, b| a.total_cmp(b));
        let median = v[v.len() / 2];
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!(mean > 2.0 * median, "heavy tail expected: mean {mean}, median {median}");
    }

    #[test]
    fn exponential_mean() {
        let d = Exponential::new(30.0);
        let mut r = rng();
        let n = 50_000;
        let mean = (0..n).map(|_| d.sample(&mut r)).sum::<f64>() / n as f64;
        assert!((mean - 30.0).abs() < 1.0, "mean = {mean}");
    }

    #[test]
    fn zipf_rank_zero_most_popular() {
        let z = Zipf::new(1_000, 0.95);
        let mut r = rng();
        let mut counts = vec![0usize; 1_000];
        for _ in 0..100_000 {
            counts[z.sample(&mut r)] += 1;
        }
        assert!(counts[0] > counts[10]);
        assert!(counts[10] > counts[500]);
        // Head heaviness: top-10 ranks should hold a large share.
        let head: usize = counts[..10].iter().sum();
        assert!(head > 15_000, "head = {head}");
    }

    #[test]
    fn zipf_covers_full_range() {
        let z = Zipf::new(50, 0.9);
        let mut r = rng();
        let mut seen = vec![false; 50];
        for _ in 0..50_000 {
            seen[z.sample(&mut r)] = true;
        }
        assert!(seen.iter().filter(|s| **s).count() > 45);
    }

    #[test]
    fn weighted_index_distribution() {
        let mut r = rng();
        let weights = [7.0, 2.0, 1.0];
        let mut counts = [0usize; 3];
        for _ in 0..50_000 {
            counts[weighted_index(&mut r, &weights)] += 1;
        }
        assert!((counts[0] as f64 / 50_000.0 - 0.7).abs() < 0.02);
        assert!((counts[2] as f64 / 50_000.0 - 0.1).abs() < 0.01);
    }
}
