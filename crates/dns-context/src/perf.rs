//! DNS performance implications (paper §6, Figure 2).
//!
//! For connections that block on DNS (`SC` ∪ `R`): the absolute lookup
//! delay, the lookup's percentage contribution to the total transaction
//! time, and the 2×2 significance decomposition (absolute > 20 ms ×
//! relative > 1 %).

use crate::classify::ConnClass;
use crate::pairing::Pairing;
use crate::stats::Ecdf;
use zeek_lite::{ConnColumns, DnsColumns};

/// One blocked connection's performance figures.
#[derive(Debug, Clone, Copy)]
pub struct BlockedPerf {
    /// Lookup duration, milliseconds (the `D` of §6).
    pub dns_ms: f64,
    /// Application transfer duration, milliseconds (the `A` of §6).
    pub app_ms: f64,
    /// Whether the connection was `SC` (vs `R`).
    pub shared_cache: bool,
}

impl BlockedPerf {
    /// DNS' percentage contribution to the total time, `100·D/(D+A)`.
    fn contribution_pct(&self) -> f64 {
        let total = self.dns_ms + self.app_ms;
        if total <= 0.0 {
            // A zero-length transaction is all DNS.
            return 100.0;
        }
        100.0 * self.dns_ms / total
    }
}

/// §6's distributions and headline numbers.
#[derive(Debug)]
pub struct PerfAnalysis {
    /// Per-blocked-connection figures.
    pub blocked: Vec<BlockedPerf>,
    /// Lookup delays (ms) over SC ∪ R (Figure 2 top).
    pub delay_ms: Ecdf,
    /// Contribution (%) over SC ∪ R (Figure 2 bottom, black line).
    pub contribution_pct: Ecdf,
    /// Contribution (%) for SC only (blue line).
    pub contribution_sc_pct: Ecdf,
    /// Contribution (%) for R only (red line).
    pub contribution_r_pct: Ecdf,
}

/// §6 absolute significance threshold, ms (paper: 20).
pub(crate) const SIGNIFICANCE_ABS_MS: f64 = 20.0;
/// §6 relative significance threshold, percent (paper: 1).
pub(crate) const SIGNIFICANCE_REL_PCT: f64 = 1.0;

/// The §6 significance quadrants (shares of SC ∪ R, percent).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Significance {
    /// ≤ abs and ≤ rel: insignificant by both criteria (paper: 64.0 %).
    pub neither_pct: f64,
    /// > rel but ≤ abs (paper: 11.5 %).
    pub rel_only_pct: f64,
    /// > abs but ≤ rel (paper: 15.9 %).
    pub abs_only_pct: f64,
    /// > abs and > rel: significant (paper: 8.6 %).
    pub both_pct: f64,
    /// `both` as a share of ALL connections (paper: 3.6 %).
    pub both_share_of_all_pct: f64,
}

impl PerfAnalysis {
    /// Build from the classified pairing. Scans the dns rtt column and
    /// the conn duration column.
    pub(crate) fn compute(
        conns: &ConnColumns,
        dns: &DnsColumns,
        pairing: &Pairing,
        classes: &[ConnClass],
    ) -> PerfAnalysis {
        let mut blocked = Vec::new();
        for (pair, class) in pairing.pairs.iter().zip(classes) {
            let shared_cache = match class {
                ConnClass::SharedCache => true,
                ConnClass::Resolution => false,
                _ => continue,
            };
            let di = pair.dns.expect("blocked conns are paired");
            let dns_ms = dns.rtt[di].expect("paired lookups answered").as_millis_f64();
            let app_ms = conns.duration[pair.conn].as_millis_f64();
            blocked.push(BlockedPerf { dns_ms, app_ms, shared_cache });
        }
        let delay_ms = Ecdf::new(blocked.iter().map(|b| b.dns_ms).collect());
        let contribution_pct = Ecdf::new(blocked.iter().map(|b| b.contribution_pct()).collect());
        let contribution_sc_pct = Ecdf::new(
            blocked.iter().filter(|b| b.shared_cache).map(|b| b.contribution_pct()).collect(),
        );
        let contribution_r_pct = Ecdf::new(
            blocked.iter().filter(|b| !b.shared_cache).map(|b| b.contribution_pct()).collect(),
        );
        PerfAnalysis { blocked, delay_ms, contribution_pct, contribution_sc_pct, contribution_r_pct }
    }

    /// The quadrant decomposition at [`SIGNIFICANCE_ABS_MS`] and
    /// [`SIGNIFICANCE_REL_PCT`], with the total connection count for the
    /// all-connections share.
    pub(crate) fn significance(&self, total_conns: usize) -> Significance {
        let n = self.blocked.len();
        if n == 0 {
            return Significance {
                neither_pct: 0.0,
                rel_only_pct: 0.0,
                abs_only_pct: 0.0,
                both_pct: 0.0,
                both_share_of_all_pct: 0.0,
            };
        }
        let mut q = [0usize; 4];
        for b in &self.blocked {
            let abs = b.dns_ms > SIGNIFICANCE_ABS_MS;
            let rel = b.contribution_pct() > SIGNIFICANCE_REL_PCT;
            let idx = (abs as usize) << 1 | rel as usize;
            q[idx] += 1;
        }
        let p = |c: usize| 100.0 * c as f64 / n as f64;
        Significance {
            neither_pct: p(q[0b00]),
            rel_only_pct: p(q[0b01]),
            abs_only_pct: p(q[0b10]),
            both_pct: p(q[0b11]),
            both_share_of_all_pct: if total_conns == 0 {
                0.0
            } else {
                100.0 * q[0b11] as f64 / total_conns as f64
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn perf_with(blocked: Vec<BlockedPerf>) -> PerfAnalysis {
        let delay_ms = Ecdf::new(blocked.iter().map(|b| b.dns_ms).collect());
        let contribution_pct = Ecdf::new(blocked.iter().map(|b| b.contribution_pct()).collect());
        let contribution_sc_pct = Ecdf::new(
            blocked.iter().filter(|b| b.shared_cache).map(|b| b.contribution_pct()).collect(),
        );
        let contribution_r_pct = Ecdf::new(
            blocked.iter().filter(|b| !b.shared_cache).map(|b| b.contribution_pct()).collect(),
        );
        PerfAnalysis { blocked, delay_ms, contribution_pct, contribution_sc_pct, contribution_r_pct }
    }

    #[test]
    fn contribution_formula() {
        let b = BlockedPerf { dns_ms: 10.0, app_ms: 90.0, shared_cache: true };
        assert!((b.contribution_pct() - 10.0).abs() < 1e-12);
        let zero = BlockedPerf { dns_ms: 5.0, app_ms: 0.0, shared_cache: true };
        assert_eq!(zero.contribution_pct(), 100.0);
    }

    #[test]
    fn quadrants_partition() {
        let p = perf_with(vec![
            BlockedPerf { dns_ms: 5.0, app_ms: 10_000.0, shared_cache: true }, // neither
            BlockedPerf { dns_ms: 5.0, app_ms: 50.0, shared_cache: true },     // rel only
            BlockedPerf { dns_ms: 50.0, app_ms: 100_000.0, shared_cache: false }, // abs only
            BlockedPerf { dns_ms: 50.0, app_ms: 50.0, shared_cache: false },   // both
        ]);
        let s = p.significance(8);
        assert_eq!(s.neither_pct, 25.0);
        assert_eq!(s.rel_only_pct, 25.0);
        assert_eq!(s.abs_only_pct, 25.0);
        assert_eq!(s.both_pct, 25.0);
        assert_eq!(s.both_share_of_all_pct, 12.5);
        let total = s.neither_pct + s.rel_only_pct + s.abs_only_pct + s.both_pct;
        assert!((total - 100.0).abs() < 1e-9);
    }

    #[test]
    fn empty_blocked_set() {
        let p = perf_with(vec![]);
        let s = p.significance(0);
        assert_eq!(s.both_pct, 0.0);
        assert!(p.delay_ms.is_empty());
    }
}
