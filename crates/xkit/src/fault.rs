//! Seeded, deterministic fault injection for captured-frame streams.
//!
//! The injector models the capture-side damage a week of residential
//! monitoring actually sees — dropped frames, snaplen clips, flipped bits,
//! duplicated and reordered deliveries — as a pure function of
//! (configuration, RNG stream). Feeding the same frames through an
//! injector built from the same [`rng::StdRng`](crate::rng::StdRng) split
//! always yields the same corrupted stream, so every fuzz run is
//! byte-reproducible.
//!
//! A zero-rate configuration is special-cased: it never consumes RNG state
//! and passes every frame through untouched, which is what lets the test
//! suite assert that a rate-0 fuzz run is byte-identical to the clean
//! pipeline.

use crate::rng::StdRng;

/// Per-kind fault probabilities, each in `[0, 1]`, summed at most 1.
///
/// Exactly one fault (or none) is applied per frame: a single uniform draw
/// is compared against the cumulative rates, so the kinds are mutually
/// exclusive and the per-frame RNG cost is constant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Probability the frame is silently dropped.
    pub drop: f64,
    /// Probability the captured bytes are clipped to a random prefix
    /// (the original wire length is preserved, like a snaplen cut).
    pub truncate: f64,
    /// Probability a single random bit of the captured bytes is flipped.
    pub bit_flip: f64,
    /// Probability the frame is delivered twice back-to-back.
    pub duplicate: f64,
    /// Probability the frame is held back and delivered after its
    /// successor (a one-slot adjacent swap).
    pub reorder: f64,
}

impl FaultConfig {
    /// No faults at all; the injector becomes a pass-through.
    pub fn clean() -> FaultConfig {
        FaultConfig { drop: 0.0, truncate: 0.0, bit_flip: 0.0, duplicate: 0.0, reorder: 0.0 }
    }

    /// Split a total fault rate evenly across the five kinds.
    ///
    /// `uniform(0.05)` gives each kind a 1% chance per frame.
    pub fn uniform(total: f64) -> FaultConfig {
        let each = total / 5.0;
        FaultConfig { drop: each, truncate: each, bit_flip: each, duplicate: each, reorder: each }
    }

    /// Sum of all per-kind rates (the per-frame fault probability).
    pub fn total(&self) -> f64 {
        self.drop + self.truncate + self.bit_flip + self.duplicate + self.reorder
    }

    /// True when every rate is zero and the injector must not perturb the
    /// stream (or the RNG).
    pub fn is_clean(&self) -> bool {
        self.total() == 0.0
    }

    /// Validate rates: each in `[0, 1]`, sum at most 1.
    pub fn validate(&self) -> Result<(), String> {
        let rates = [self.drop, self.truncate, self.bit_flip, self.duplicate, self.reorder];
        for r in rates {
            if !(0.0..=1.0).contains(&r) || !r.is_finite() {
                return Err(format!("fault rate {r} outside [0, 1]"));
            }
        }
        if self.total() > 1.0 {
            return Err(format!("fault rates sum to {} > 1", self.total()));
        }
        Ok(())
    }
}

/// Counters for what the injector actually did to a stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Frames offered to the injector.
    pub frames_in: u64,
    /// Frames emitted (after drops, duplicates, and flush).
    pub frames_out: u64,
    /// Frames silently discarded.
    pub dropped: u64,
    /// Frames clipped to a shorter capture.
    pub truncated: u64,
    /// Frames with one bit flipped.
    pub bit_flipped: u64,
    /// Frames emitted twice.
    pub duplicated: u64,
    /// Frames swapped past their successor.
    pub reordered: u64,
}

impl FaultStats {
    /// Fold another stats block into this one (shard-wise merge).
    pub fn merge(&mut self, other: &FaultStats) {
        self.frames_in += other.frames_in;
        self.frames_out += other.frames_out;
        self.dropped += other.dropped;
        self.truncated += other.truncated;
        self.bit_flipped += other.bit_flipped;
        self.duplicated += other.duplicated;
        self.reordered += other.reordered;
    }

    /// Express the counters as an obs snapshot.
    ///
    /// Damage events live under `fault.*` (`fault.dropped`,
    /// `fault.truncated`, …) so a clean run is recognizable as "every
    /// `fault.*` damage counter is zero"; the pass-through frame counts
    /// live under `fault.io.*` because they increment even when nothing
    /// was damaged. Merging these snapshots is equivalent to
    /// [`FaultStats::merge`].
    pub fn to_metrics(&self) -> crate::obs::Metrics {
        let mut m = crate::obs::Metrics::new();
        m.add("fault.io.frames_in", self.frames_in);
        m.add("fault.io.frames_out", self.frames_out);
        m.add("fault.dropped", self.dropped);
        m.add("fault.truncated", self.truncated);
        m.add("fault.bit_flipped", self.bit_flipped);
        m.add("fault.duplicated", self.duplicated);
        m.add("fault.reordered", self.reordered);
        m
    }
}

/// One captured frame: timestamp, original wire length, captured bytes.
///
/// The workspace's one owned frame record: `pcapio` re-exports it as
/// `PcapRecord`, so a capture passes through the injector by move.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawFrame {
    /// Capture timestamp in nanoseconds since the epoch.
    pub ts_nanos: u64,
    /// Length of the frame on the wire, before any snaplen clip.
    pub orig_len: u32,
    /// Captured bytes (possibly fewer than `orig_len`).
    pub data: Vec<u8>,
}

/// The deterministic fault injector.
///
/// Feed frames through [`apply`](FaultInjector::apply) in capture order and
/// call [`flush`](FaultInjector::flush) at end-of-stream to release a frame
/// held back by a pending reorder.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    cfg: FaultConfig,
    rng: StdRng,
    stats: FaultStats,
    /// A frame held back by a reorder fault, emitted after its successor.
    held: Option<RawFrame>,
}

impl FaultInjector {
    /// Build an injector from a validated config and a dedicated RNG
    /// stream (use [`StdRng::split`] so the stream is independent of every
    /// other consumer).
    ///
    /// # Panics
    /// Panics if the config fails [`FaultConfig::validate`]; rates are
    /// caller-supplied constants, so this is a programming error.
    pub fn new(cfg: FaultConfig, rng: StdRng) -> FaultInjector {
        if let Err(e) = cfg.validate() {
            panic!("invalid FaultConfig: {e}");
        }
        FaultInjector { cfg, rng, stats: FaultStats::default(), held: None }
    }

    /// What the injector has done so far.
    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }

    /// Apply at most one fault to `frame`, returning the frames to emit
    /// now (empty for a drop or a reorder holdback, two for a duplicate).
    pub fn apply(&mut self, frame: RawFrame) -> Vec<RawFrame> {
        self.stats.frames_in += 1;
        // Clean configs must not consume RNG state: a rate-0 run is
        // byte-identical to never having constructed an injector.
        if self.cfg.is_clean() {
            self.stats.frames_out += 1;
            return vec![frame];
        }
        let u: f64 = self.rng.random();
        let mut out = self.fault_for(u, frame);
        // A pending reorder releases its frame after the next emission.
        if !out.is_empty() {
            if let Some(held) = self.held.take() {
                out.push(held);
            }
        }
        self.stats.frames_out += out.len() as u64;
        out
    }

    /// End-of-stream: release a frame still held by a pending reorder.
    pub fn flush(&mut self) -> Vec<RawFrame> {
        let out: Vec<RawFrame> = self.held.take().into_iter().collect();
        self.stats.frames_out += out.len() as u64;
        out
    }

    /// Decide and apply the fault selected by the uniform draw `u`.
    fn fault_for(&mut self, u: f64, mut frame: RawFrame) -> Vec<RawFrame> {
        let c = self.cfg;
        let mut edge = c.drop;
        if u < edge {
            self.stats.dropped += 1;
            return Vec::new();
        }
        edge += c.truncate;
        if u < edge {
            if !frame.data.is_empty() {
                let keep = self.rng.random_range(0..frame.data.len());
                frame.data.truncate(keep);
                self.stats.truncated += 1;
            }
            return vec![frame];
        }
        edge += c.bit_flip;
        if u < edge {
            if !frame.data.is_empty() {
                let bit = self.rng.random_range(0..frame.data.len() * 8);
                frame.data[bit / 8] ^= 1 << (bit % 8);
                self.stats.bit_flipped += 1;
            }
            return vec![frame];
        }
        edge += c.duplicate;
        if u < edge {
            self.stats.duplicated += 1;
            return vec![frame.clone(), frame];
        }
        edge += c.reorder;
        if u < edge {
            self.stats.reordered += 1;
            // Hold this frame until the next emission; if a frame is
            // already held (two reorders in a row), release it now so the
            // holdback slot never grows beyond one frame.
            return match self.held.replace(frame) {
                Some(prev) => vec![prev],
                None => Vec::new(),
            };
        }
        vec![frame]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every frame through one injector, reorder slot flushed.
    fn corrupt_stream(
        frames: Vec<RawFrame>,
        cfg: FaultConfig,
        rng: StdRng,
    ) -> (Vec<RawFrame>, FaultStats) {
        let mut inj = FaultInjector::new(cfg, rng);
        let mut out = Vec::new();
        for f in frames {
            out.extend(inj.apply(f));
        }
        out.extend(inj.flush());
        (out, *inj.stats())
    }

    /// Frames a fault touched.
    fn faulted(st: &FaultStats) -> u64 {
        st.dropped + st.truncated + st.bit_flipped + st.duplicated + st.reordered
    }

    fn frames(n: usize) -> Vec<RawFrame> {
        (0..n)
            .map(|i| RawFrame {
                ts_nanos: i as u64 * 1_000,
                orig_len: 64,
                data: vec![i as u8; 64],
            })
            .collect()
    }

    #[test]
    fn clean_config_is_identity_and_consumes_no_rng() {
        let rng = StdRng::seed_from_u64(1);
        let mut inj = FaultInjector::new(FaultConfig::clean(), rng.clone());
        let input = frames(100);
        let mut out = Vec::new();
        for f in input.clone() {
            out.extend(inj.apply(f));
        }
        out.extend(inj.flush());
        assert_eq!(out, input);
        assert_eq!(faulted(inj.stats()), 0);
        assert_eq!(inj.stats().frames_in, 100);
        assert_eq!(inj.stats().frames_out, 100);
        // The injector's RNG state is untouched.
        let mut a = inj.rng.clone();
        let mut b = rng.clone();
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn same_seed_reproduces_byte_identical_streams() {
        let cfg = FaultConfig::uniform(0.3);
        let (out1, st1) = corrupt_stream(frames(500), cfg, StdRng::seed_from_u64(9));
        let (out2, st2) = corrupt_stream(frames(500), cfg, StdRng::seed_from_u64(9));
        let (out3, _) = corrupt_stream(frames(500), cfg, StdRng::seed_from_u64(10));
        assert_eq!(out1, out2);
        assert_eq!(st1, st2);
        assert_ne!(out1, out3, "different seeds must corrupt differently");
    }

    #[test]
    fn stats_account_for_every_frame() {
        let cfg = FaultConfig::uniform(0.5);
        let (out, st) = corrupt_stream(frames(2_000), cfg, StdRng::seed_from_u64(3));
        assert_eq!(st.frames_in, 2_000);
        assert_eq!(st.frames_out as usize, out.len());
        // drop removes one, duplicate adds one, the rest preserve count.
        assert_eq!(
            st.frames_out as i64,
            st.frames_in as i64 - st.dropped as i64 + st.duplicated as i64
        );
        // With a 10% per-kind rate over 2k frames, every kind fires.
        assert!(st.dropped > 0 && st.truncated > 0 && st.bit_flipped > 0);
        assert!(st.duplicated > 0 && st.reordered > 0);
    }

    #[test]
    fn fault_rates_land_near_configured_probability() {
        let cfg = FaultConfig::uniform(0.2);
        let (_, st) = corrupt_stream(frames(20_000), cfg, StdRng::seed_from_u64(5));
        let rate = faulted(&st) as f64 / st.frames_in as f64;
        assert!((rate - 0.2).abs() < 0.02, "observed fault rate {rate}");
    }

    #[test]
    fn truncate_only_shortens_and_preserves_orig_len() {
        let cfg = FaultConfig { truncate: 1.0, ..FaultConfig::clean() };
        let (out, st) = corrupt_stream(frames(50), cfg, StdRng::seed_from_u64(7));
        assert_eq!(st.truncated, 50);
        for f in &out {
            assert!(f.data.len() < 64);
            assert_eq!(f.orig_len, 64);
        }
    }

    #[test]
    fn bit_flip_changes_exactly_one_bit() {
        let cfg = FaultConfig { bit_flip: 1.0, ..FaultConfig::clean() };
        let input = frames(50);
        let (out, st) = corrupt_stream(input.clone(), cfg, StdRng::seed_from_u64(8));
        assert_eq!(st.bit_flipped, 50);
        for (a, b) in input.iter().zip(&out) {
            let diff: u32 = a
                .data
                .iter()
                .zip(&b.data)
                .map(|(x, y)| (x ^ y).count_ones())
                .sum();
            assert_eq!(diff, 1);
        }
    }

    #[test]
    fn reorder_holdback_preserves_frames_and_flush_drains() {
        // 50% so holdbacks interleave with pass-throughs and actually swap
        // (an all-reorder stream degenerates to a uniform one-frame delay).
        let cfg = FaultConfig { reorder: 0.5, ..FaultConfig::clean() };
        let input = frames(64);
        let (out, st) = corrupt_stream(input.clone(), cfg, StdRng::seed_from_u64(11));
        assert!(st.reordered > 0);
        assert_eq!(out.len(), 64, "reorder must never lose frames");
        let mut sorted = out.clone();
        sorted.sort_by_key(|f| f.ts_nanos);
        assert_eq!(sorted, input);
        assert_ne!(out, input, "reordered stream must leave capture order");
    }

    #[test]
    fn empty_frames_survive_truncate_and_flip() {
        let cfg = FaultConfig { truncate: 0.5, bit_flip: 0.5, ..FaultConfig::clean() };
        let empty = vec![
            RawFrame { ts_nanos: 0, orig_len: 0, data: Vec::new() };
            20
        ];
        let (out, st) = corrupt_stream(empty.clone(), cfg, StdRng::seed_from_u64(13));
        assert_eq!(out, empty, "zero-length frames pass through unchanged");
        assert_eq!(st.truncated + st.bit_flipped, 0);
    }

    #[test]
    fn validate_rejects_bad_rates() {
        assert!(FaultConfig { drop: -0.1, ..FaultConfig::clean() }.validate().is_err());
        assert!(FaultConfig { drop: 0.6, truncate: 0.6, ..FaultConfig::clean() }
            .validate()
            .is_err());
        assert!(FaultConfig::uniform(1.0).validate().is_ok());
        assert!(FaultConfig { drop: f64::NAN, ..FaultConfig::clean() }.validate().is_err());
    }

    #[test]
    fn stats_merge_sums_counters() {
        let cfg = FaultConfig::uniform(0.4);
        let (_, a) = corrupt_stream(frames(300), cfg, StdRng::seed_from_u64(1));
        let (_, b) = corrupt_stream(frames(200), cfg, StdRng::seed_from_u64(2));
        let mut m = a;
        m.merge(&b);
        assert_eq!(m.frames_in, 500);
        assert_eq!(faulted(&m), faulted(&a) + faulted(&b));
    }
}
