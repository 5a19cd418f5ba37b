//! Seeded pseudo-random numbers: SplitMix64 seeding, Xoshiro256++ streams.
//!
//! One type, [`StdRng`]: `seed_from_u64`, `random::<T>()`,
//! `random_range(..)`, `random_bool(p)`, `choose`. On top of that,
//! [`StdRng::split`] derives statistically independent child streams
//! from a parent state and a label, which is what makes sharded
//! simulation bit-reproducible regardless of how many worker threads
//! execute the shards. A golden test pins the streams: a seed yields the
//! same values on every release.

/// One step of the SplitMix64 sequence (also the seed expander).
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Types [`StdRng::random`] can draw uniformly.
pub trait Sample: Sized {
    /// Draw one value.
    fn sample(rng: &mut StdRng) -> Self;
}

impl Sample for u64 {
    #[inline]
    fn sample(rng: &mut StdRng) -> Self {
        rng.next_u64()
    }
}

impl Sample for u32 {
    #[inline]
    fn sample(rng: &mut StdRng) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl Sample for u16 {
    #[inline]
    fn sample(rng: &mut StdRng) -> Self {
        (rng.next_u64() >> 48) as u16
    }
}

impl Sample for u8 {
    #[inline]
    fn sample(rng: &mut StdRng) -> Self {
        (rng.next_u64() >> 56) as u8
    }
}

impl Sample for bool {
    #[inline]
    fn sample(rng: &mut StdRng) -> Self {
        rng.next_u64() >> 63 == 1
    }
}

impl Sample for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    #[inline]
    fn sample(rng: &mut StdRng) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Element types [`StdRng::random_range`] can draw uniformly.
pub trait Uniform: Copy + PartialOrd {
    /// Uniform draw from `[lo, hi)` (`inclusive = false`) or `[lo, hi]`
    /// (`inclusive = true`). Panics on an empty range.
    fn sample_range(rng: &mut StdRng, lo: Self, hi: Self, inclusive: bool) -> Self;
}

/// Unbiased uniform draw in `[0, n)` via Lemire's widening-multiply
/// rejection method.
#[inline]
fn uniform_below(rng: &mut StdRng, n: u64) -> u64 {
    debug_assert!(n > 0);
    let threshold = n.wrapping_neg() % n;
    loop {
        let m = (rng.next_u64() as u128).wrapping_mul(n as u128);
        if (m as u64) >= threshold {
            return (m >> 64) as u64;
        }
    }
}

macro_rules! int_uniform {
    ($($t:ty),*) => {$(
        impl Uniform for $t {
            #[inline]
            fn sample_range(rng: &mut StdRng, lo: $t, hi: $t, inclusive: bool) -> $t {
                if inclusive {
                    assert!(lo <= hi, "empty range");
                    let span = (hi as i128 - lo as i128) as u128 + 1;
                    if span > u64::MAX as u128 {
                        // Full 64-bit domain: every output is valid.
                        return lo.wrapping_add(rng.next_u64() as $t);
                    }
                    lo.wrapping_add(uniform_below(rng, span as u64) as $t)
                } else {
                    assert!(lo < hi, "empty range");
                    let span = (hi as i128 - lo as i128) as u64;
                    lo.wrapping_add(uniform_below(rng, span) as $t)
                }
            }
        }
    )*};
}

int_uniform!(u8, u16, u32, u64, usize);

macro_rules! float_uniform {
    ($($t:ty),*) => {$(
        impl Uniform for $t {
            #[inline]
            fn sample_range(rng: &mut StdRng, lo: $t, hi: $t, _inclusive: bool) -> $t {
                assert!(lo < hi, "empty range");
                let u: $t = Sample::sample(rng);
                lo + u * (hi - lo)
            }
        }
    )*};
}

float_uniform!(f64);

/// Ranges that can be sampled uniformly (`lo..hi`, `lo..=hi`).
pub trait SampleRange<T> {
    /// Draw one value from the range. Panics on an empty range.
    fn sample_from(self, rng: &mut StdRng) -> T;
}

impl<T: Uniform> SampleRange<T> for core::ops::Range<T> {
    #[inline]
    fn sample_from(self, rng: &mut StdRng) -> T {
        T::sample_range(rng, self.start, self.end, false)
    }
}

impl<T: Uniform> SampleRange<T> for core::ops::RangeInclusive<T> {
    #[inline]
    fn sample_from(self, rng: &mut StdRng) -> T {
        T::sample_range(rng, *self.start(), *self.end(), true)
    }
}

/// The workspace's standard generator: Xoshiro256++ seeded via SplitMix64.
///
/// Fast (one rotate-add-xor round per draw), 256-bit state, passes BigCrush,
/// and the stream is stable across releases, which the reproduction tests
/// rely on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StdRng {
    s: [u64; 4],
}

impl StdRng {
    /// Build a generator whose stream is fully determined by `seed`.
    pub fn seed_from_u64(mut seed: u64) -> StdRng {
        let mut s = [0u64; 4];
        for w in &mut s {
            *w = splitmix64(&mut seed);
        }
        if s == [0; 4] {
            // Xoshiro's one forbidden state; unreachable from SplitMix64
            // expansion in practice, but cheap to rule out entirely.
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        StdRng { s }
    }

    /// Derive a statistically independent child stream from this
    /// generator's current state and a caller-chosen `label`, without
    /// advancing the parent.
    ///
    /// Shard `i` of a parallel run takes `master.split(i as u64)`: the
    /// child streams depend only on (parent state, label), never on how
    /// many threads execute the shards or in what order they finish, so a
    /// fixed seed yields bit-identical output at any `--threads` value.
    pub fn split(&self, label: u64) -> StdRng {
        let mut acc = self.s[0]
            ^ self.s[1].rotate_left(16)
            ^ self.s[2].rotate_left(32)
            ^ self.s[3].rotate_left(48);
        let mut label_state = label;
        acc ^= splitmix64(&mut label_state);
        acc = acc.wrapping_add(label.wrapping_mul(0xA24B_AED4_963E_E407));
        StdRng::seed_from_u64(acc)
    }

    /// The next 64 uniformly distributed bits (`random::<u64>()` outside
    /// this crate).
    #[inline]
    pub(crate) fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Draw a uniform value of type `T` (`f64` in `[0, 1)`, integers over
    /// their whole domain).
    #[inline]
    pub fn random<T: Sample>(&mut self) -> T {
        T::sample(self)
    }

    /// Draw uniformly from `lo..hi` or `lo..=hi`.
    #[inline]
    pub fn random_range<T: Uniform, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_from(self)
    }

    /// Bernoulli draw: `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn random_bool(&mut self, p: f64) -> bool {
        let u: f64 = Sample::sample(self);
        u < p
    }

    /// A uniformly chosen element, or `None` on an empty slice.
    #[inline]
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            Some(&slice[uniform_below(self, slice.len() as u64) as usize])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Taken from the commit before the traits became inherent methods:
    /// "the stream is stable across releases" as a test.
    #[test]
    fn golden_streams() {
        let mut rng = StdRng::seed_from_u64(42);
        let first: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        assert_eq!(
            first,
            [0xd0764d4f4476689f, 0x519e4174576f3791, 0xfbe07cfb0c24ed8c, 0xb37d9f600cd835b8]
        );
        assert_eq!(StdRng::seed_from_u64(42).split(3).next_u64(), 0x3d065c164bdb13c5);
        let mut rng = StdRng::seed_from_u64(7);
        assert_eq!(rng.random_range(0..10u32), 0);
        assert_eq!(rng.random::<f64>(), 0.17211585444811772);
        assert!(!rng.random_bool(0.5));
        assert_eq!(rng.random_range(1u8..=255), 109);
    }

    #[test]
    fn streams_are_deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        let mut c = StdRng::seed_from_u64(43);
        let xs: Vec<u64> = (0..32).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..32).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..32).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn split_is_stable_and_label_sensitive() {
        let parent = StdRng::seed_from_u64(7);
        let mut c1 = parent.split(0);
        let mut c1b = parent.split(0);
        let mut c2 = parent.split(1);
        let a: Vec<u64> = (0..16).map(|_| c1.next_u64()).collect();
        let b: Vec<u64> = (0..16).map(|_| c1b.next_u64()).collect();
        let c: Vec<u64> = (0..16).map(|_| c2.next_u64()).collect();
        assert_eq!(a, b, "same label must reproduce the same stream");
        assert_ne!(a, c, "different labels must diverge");
        // Non-mutating: the parent still produces its own stream.
        let mut p1 = parent.clone();
        let mut p2 = parent.clone();
        assert_eq!(p1.next_u64(), p2.next_u64());
    }

    #[test]
    fn split_children_do_not_collide_with_parent() {
        let parent = StdRng::seed_from_u64(9);
        let mut p = parent.clone();
        let mut child = parent.split(3);
        let pa: Vec<u64> = (0..64).map(|_| p.next_u64()).collect();
        let ch: Vec<u64> = (0..64).map(|_| child.next_u64()).collect();
        assert_ne!(pa, ch);
    }

    #[test]
    fn f64_is_uniform_unit_interval() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 100_000;
        let mut sum = 0.0;
        let mut min = f64::MAX;
        let mut max = f64::MIN;
        for _ in 0..n {
            let x: f64 = rng.random();
            assert!((0.0..1.0).contains(&x));
            sum += x;
            min = min.min(x);
            max = max.max(x);
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
        assert!(min < 0.01 && max > 0.99);
    }

    #[test]
    fn ranges_cover_and_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            let v = rng.random_range(3..13usize);
            assert!((3..13).contains(&v));
            seen[v - 3] = true;
        }
        assert!(seen.iter().all(|&s| s), "all 10 values hit in 1k draws");
        for _ in 0..1_000 {
            let v = rng.random_range(5..=7u32);
            assert!((5..=7).contains(&v));
            let f = rng.random_range(-2.0..3.0f64);
            assert!((-2.0..3.0).contains(&f));
        }
    }

    #[test]
    fn uniform_below_is_unbiased_over_small_moduli() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut counts = [0usize; 7];
        let n = 70_000;
        for _ in 0..n {
            counts[uniform_below(&mut rng, 7) as usize] += 1;
        }
        for c in counts {
            let dev = (c as f64 - n as f64 / 7.0).abs() / (n as f64 / 7.0);
            assert!(dev < 0.05, "bucket off by {dev:.3}");
        }
    }

    #[test]
    fn random_bool_matches_probability() {
        let mut rng = StdRng::seed_from_u64(4);
        let hits = (0..100_000).filter(|_| rng.random_bool(0.3)).count();
        let rate = hits as f64 / 100_000.0;
        assert!((rate - 0.3).abs() < 0.01, "rate {rate}");
        assert!(!(0..100).any(|_| rng.random_bool(0.0)));
        assert!((0..100).all(|_| rng.random_bool(1.0)));
    }

    #[test]
    fn choose_is_seeded() {
        let mut rng = StdRng::seed_from_u64(5);
        assert!(rng.choose::<u8>(&[]).is_none());
        let items = [10, 20, 30];
        for _ in 0..100 {
            assert!(items.contains(rng.choose(&items).unwrap()));
        }
    }
}
