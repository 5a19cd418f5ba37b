//! A stable least-significant-digit radix sort for the batch analysis'
//! row-sized vectors.
//!
//! [`sort`] orders a slice by an integer key one byte at a time, lowest
//! byte first, each pass a stable counting scatter between the slice
//! and a scratch slice the caller lends: a tail of a buffer it already
//! holds, so the sort allocates nothing. One counting pass reads every
//! byte of every key first, and a byte that every element shares takes
//! no scatter pass.
//!
//! The batch pairer sorts each client's address answers and connections
//! by destination with it (`crate::pairing`), and §6's ECDFs sort their
//! samples by [`total_order_bits`] (`crate::stats`).

/// A key [`sort`] reads a byte at a time, least significant first;
/// `BYTES` is its width, which sizes the sort's count table.
pub(crate) trait RadixKey<const BYTES: usize>: Copy + Ord {
    /// Byte `i`, counted from the least significant.
    fn byte(self, i: usize) -> u8;
}

impl RadixKey<4> for u32 {
    fn byte(self, i: usize) -> u8 {
        (self >> (8 * i)) as u8
    }
}

impl RadixKey<8> for u64 {
    fn byte(self, i: usize) -> u8 {
        (self >> (8 * i)) as u8
    }
}

/// At or below this many elements an insertion sort beats the counting
/// passes, whose tables alone are 256 slots a byte. Timed on an x86-64
/// Xeon over 24-byte elements with random `u32` keys, a third of them
/// distinct, like a client's address answers: at 48 elements insertion
/// took 1.10–1.12 µs and the counting passes 1.22–1.27; at 56 they were
/// even; at 64 insertion took 1.66–1.81 µs and the passes 1.19–1.38.
const SMALL: usize = 48;

/// Sort `v` by `key`, stably, through `scratch[..v.len()]`, whose
/// contents are overwritten. Panics if `scratch` is shorter than `v` or
/// `v` has `u32::MAX` elements or more.
pub(crate) fn sort<T: Copy, K: RadixKey<B>, const B: usize>(v: &mut [T], scratch: &mut [T], key: impl Fn(&T) -> K) {
    let n = v.len();
    if n <= SMALL {
        insertion_sort(v, &key);
        return;
    }
    assert!(u32::try_from(n).is_ok(), "{n} elements exceed the radix counts");
    let scratch = &mut scratch[..n];
    let mut counts = [[0u32; 256]; B];
    for x in v.iter() {
        let k = key(x);
        for (i, count) in counts.iter_mut().enumerate() {
            count[usize::from(k.byte(i))] += 1;
        }
    }
    let first = key(&v[0]);
    let mut in_scratch = false;
    for (i, count) in counts.iter_mut().enumerate() {
        if count[usize::from(first.byte(i))] as usize == n {
            continue;
        }
        let mut start = 0;
        for slot in count.iter_mut() {
            start += std::mem::replace(slot, start);
        }
        let (src, dst) = if in_scratch { (&*scratch, &mut *v) } else { (&*v, &mut *scratch) };
        for x in src {
            let slot = &mut count[usize::from(key(x).byte(i))];
            dst[*slot as usize] = *x;
            *slot += 1;
        }
        in_scratch = !in_scratch;
    }
    if in_scratch {
        v.copy_from_slice(scratch);
    }
}

/// Stable and in place: each element moves left past the greater keys.
fn insertion_sort<T: Copy, K: Ord>(v: &mut [T], key: &impl Fn(&T) -> K) {
    for i in 1..v.len() {
        let x = v[i];
        let k = key(&x);
        let mut j = i;
        while j > 0 && key(&v[j - 1]) > k {
            v[j] = v[j - 1];
            j -= 1;
        }
        v[j] = x;
    }
}

/// `x`'s bits mapped so that their unsigned order is
/// [`f64::total_cmp`]'s order: a negative value's bits inverted, a
/// positive value's sign bit set.
pub(crate) fn total_order_bits(x: f64) -> u64 {
    let bits = x.to_bits();
    bits ^ ((((bits as i64) >> 63) as u64) | 1 << 63)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xkit::rng::StdRng;

    /// The kernel against the standard library's stable sort: the tag
    /// is each element's input position, so an unstable tie shows.
    fn check_u32(keys: &[u32]) {
        let mut got: Vec<(u32, u32)> = keys.iter().zip(0..).map(|(&k, i)| (k, i)).collect();
        let mut want = got.clone();
        want.sort_by_key(|x| x.0);
        let mut scratch = vec![(0, 0); got.len() + 3];
        sort(&mut got, &mut scratch, |x| x.0);
        assert_eq!(got, want, "{} keys", keys.len());
    }

    #[test]
    fn u32_keys_sort_as_a_stable_sort_does() {
        check_u32(&[]);
        check_u32(&[7]);
        check_u32(&[2, 1]);
        check_u32(&[1, 2]);
        check_u32(&[5, 5]);
        let mut r = StdRng::seed_from_u64(0x5AD1C5);
        for n in [3, SMALL, SMALL + 1, 100, 1_000, 5_000] {
            check_u32(&vec![0xDEAD_BEEF; n]);
            check_u32(&(0..n as u32).rev().collect::<Vec<_>>());
            // Shared high bytes: the passes over them are skipped.
            for shared in 1..=3 {
                let low = u32::MAX >> (8 * shared);
                let keys: Vec<u32> = (0..n).map(|_| 0xA5A5_A5A5 & !low | r.random::<u32>() & low).collect();
                check_u32(&keys);
            }
            // A shared low byte and a shared middle byte.
            check_u32(&(0..n).map(|_| r.random::<u32>() | 0xFF).collect::<Vec<_>>());
            check_u32(&(0..n).map(|_| r.random::<u32>() & 0xFF00_FFFF).collect::<Vec<_>>());
            // Few distinct keys: long runs of duplicates.
            check_u32(&(0..n).map(|_| r.random::<u32>() % 5 * 0x0101_0101).collect::<Vec<_>>());
            check_u32(&(0..n).map(|_| r.random::<u32>()).collect::<Vec<_>>());
        }
    }

    #[test]
    fn f64_keys_sort_bit_identically_to_total_cmp() {
        let pool = [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 8.0,
            -f64::MIN_POSITIVE / 3.0,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::MAX,
            f64::MIN,
            f64::NAN,
            -f64::NAN,
            1.0,
            -1.0,
            12.5,
            99.999,
            1e-300,
        ];
        let mut r = StdRng::seed_from_u64(0xF64);
        for n in [0, 1, 2, 19, SMALL, SMALL + 1, 500, 4_000] {
            let input: Vec<f64> = (0..n)
                .map(|_| match r.random::<u32>() % 3 {
                    0 => *r.choose(&pool).expect("pool"),
                    1 => f64::from_bits(r.random::<u64>()),
                    _ => f64::from(r.random::<u32>() % 1_000) / 8.0,
                })
                .collect();
            let mut want = input.clone();
            want.sort_unstable_by(|a, b| a.total_cmp(b));
            let mut got = input;
            let mut scratch = vec![0.0; n];
            sort(&mut got, &mut scratch, |x| total_order_bits(*x));
            let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
            assert_eq!(bits(&got), bits(&want), "{n} samples");
        }
    }

    #[test]
    fn total_order_bits_order_as_total_cmp_does() {
        let xs = [f64::NEG_INFINITY, -1.0, -f64::from_bits(1), -0.0, 0.0, f64::from_bits(1), 1.0, f64::INFINITY];
        for w in xs.windows(2) {
            assert!(w[0].total_cmp(&w[1]).is_lt());
            assert!(total_order_bits(w[0]) < total_order_bits(w[1]), "{} vs {}", w[0], w[1]);
        }
    }
}
