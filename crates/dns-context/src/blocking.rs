//! The blocking heuristic (paper §4, Figure 1).
//!
//! The interval between a lookup's completion and the start of the
//! connection using it separates two behaviours: connections *blocked*
//! waiting for the answer (small gaps, knee around 20 ms) and connections
//! using information already on hand (gaps of seconds to hours). The paper
//! validates the split with first-use rates — 91 % of sub-20 ms-gap
//! connections are the first to use their lookup, versus 21 % beyond — and
//! then adopts a conservative 100 ms threshold.

use crate::pairing::Pairing;
use crate::stats::Ecdf;
use zeek_lite::Duration;

/// The knee Figure 1's first-use split is taken at (paper: 20 ms).
pub(crate) const KNEE: Duration = Duration::from_millis(20);

/// Figure 1's ingredients.
#[derive(Debug)]
pub struct GapAnalysis {
    /// Gap distribution in milliseconds, over paired connections.
    pub gaps_ms: Ecdf,
    /// Of connections with gap < [`KNEE`]: fraction that are first use.
    pub first_use_within_knee: f64,
    /// Of connections with gap ≥ [`KNEE`]: fraction that are first use.
    pub first_use_beyond_knee: f64,
}

impl GapAnalysis {
    /// Compute the gap distribution and the first-use split at [`KNEE`].
    pub fn compute(pairing: &Pairing) -> GapAnalysis {
        let mut gaps = Vec::new();
        let mut within = (0usize, 0usize); // (first_use, total)
        let mut beyond = (0usize, 0usize);
        for p in &pairing.pairs {
            let Some(gap) = p.gap else { continue };
            gaps.push(gap.as_millis_f64());
            let bucket = if gap < KNEE { &mut within } else { &mut beyond };
            bucket.1 += 1;
            if p.first_use {
                bucket.0 += 1;
            }
        }
        GapAnalysis {
            gaps_ms: Ecdf::new(gaps),
            first_use_within_knee: ratio(within),
            first_use_beyond_knee: ratio(beyond),
        }
    }

    /// Estimate the knee of the gap distribution — where the CDF's slope
    /// (in log-time) collapses after the blocked mode (the paper reads
    /// ≈20 ms off its Figure 1 by eye).
    ///
    /// Method: walk candidate thresholds on a logarithmic grid between
    /// 1 ms and 100 s; the knee is the left edge of the first grid cell —
    /// after the distribution's steepest cell — whose per-cell CDF mass
    /// falls below `flat_fraction` of the steepest cell's mass. Returns
    /// `None` when the distribution is empty or never flattens (no
    /// plateau, hence no meaningful blocking threshold).
    pub fn estimate_knee(&self, flat_fraction: f64) -> Option<Duration> {
        if self.gaps_ms.is_empty() {
            return None;
        }
        // 8 cells per decade over [1 ms, 1e5 ms].
        const CELLS_PER_DECADE: usize = 8;
        let grid: Vec<f64> = (0..=(5 * CELLS_PER_DECADE))
            .map(|i| 10f64.powf(i as f64 / CELLS_PER_DECADE as f64))
            .collect();
        let mass: Vec<f64> = grid
            .windows(2)
            .map(|w| {
                self.gaps_ms.fraction_at_or_below(w[1]) - self.gaps_ms.fraction_at_or_below(w[0])
            })
            .collect();
        let (steepest, peak) = mass
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, m)| (i, *m))?;
        if peak <= 0.0 {
            return None;
        }
        for (i, m) in mass.iter().enumerate().skip(steepest + 1) {
            if *m < peak * flat_fraction {
                return Some(Duration::from_secs_f64(grid[i] / 1e3));
            }
        }
        None
    }
}

fn ratio((num, den): (usize, usize)) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pairing::PairedConn;

    fn pair(gap_ms: Option<u64>, first_use: bool) -> PairedConn {
        PairedConn {
            conn: 0,
            dns: gap_ms.map(|_| 0),
            gap: gap_ms.map(Duration::from_millis),
            expired: false,
            candidates: 1,
            first_use,
        }
    }

    fn pairing_of(pairs: Vec<PairedConn>) -> Pairing {
        Pairing {
            dns_used: vec![true],
            pairs,
        }
    }

    #[test]
    fn splits_first_use_rates_at_knee() {
        let p = pairing_of(vec![
            pair(Some(5), true),
            pair(Some(8), true),
            pair(Some(12), false),
            pair(Some(500), false),
            pair(Some(900), true),
            pair(None, false),
        ]);
        let g = GapAnalysis::compute(&p);
        assert_eq!(g.gaps_ms.len(), 5);
        assert!((g.first_use_within_knee - 2.0 / 3.0).abs() < 1e-12);
        assert!((g.first_use_beyond_knee - 0.5).abs() < 1e-12);
    }

    #[test]
    fn fraction_within_threshold() {
        let p = pairing_of(vec![pair(Some(5), true), pair(Some(50), false), pair(Some(5_000), false)]);
        let g = GapAnalysis::compute(&p);
        assert!((g.gaps_ms.fraction_at_or_below(100.0) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_pairing() {
        let g = GapAnalysis::compute(&pairing_of(vec![]));
        assert!(g.gaps_ms.is_empty());
        assert_eq!(g.first_use_within_knee, 0.0);
        assert_eq!(g.estimate_knee(0.1), None);
    }

    #[test]
    fn knee_found_in_bimodal_distribution() {
        // Blocked mode: tight cluster 1–8 ms. Cache-reuse mode: seconds to
        // hours. The knee should land between them.
        let mut pairs = Vec::new();
        for i in 0..600u64 {
            pairs.push(pair(Some(1 + i % 8), true));
        }
        for i in 0..400u64 {
            pairs.push(pair(Some(2_000 + i * 40_000), false));
        }
        let g = GapAnalysis::compute(&pairing_of(pairs));
        let knee = g.estimate_knee(0.10).expect("knee exists");
        let ms = knee.as_millis_f64();
        assert!(
            (8.0..=2_000.0).contains(&ms),
            "knee {ms} ms should separate the modes"
        );
    }

    #[test]
    fn unimodal_distribution_flattens_right_after_its_mode() {
        // All gaps in one tight cluster: the knee lands just past it.
        let pairs: Vec<PairedConn> = (0..200).map(|i| pair(Some(10 + i % 3), true)).collect();
        let g = GapAnalysis::compute(&pairing_of(pairs));
        let knee = g.estimate_knee(0.10).expect("flattens after the cluster");
        assert!(knee.as_millis_f64() > 10.0);
        assert!(knee.as_millis_f64() < 200.0);
    }
}
