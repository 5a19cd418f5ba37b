//! The one-stop analysis facade.

use crate::blocking::GapAnalysis;
use crate::classify::{
    classify_parallel, count_classes, no_dns_breakdown, resolver_thresholds, ttl_stats,
    ClassCounts, ConnClass, NoDnsBreakdown, ThresholdRule, TtlStats,
};
use crate::kernel::{store_class_metrics, store_cover, store_threshold_metrics, Tally};
use crate::pairing::{Pairing, PairingPolicy};
use crate::perf::{PerfAnalysis, Significance};
use crate::resolver::{platform_reports, PlatformMap, PlatformReport};
use std::collections::HashMap;
use std::net::Ipv4Addr;
use zeek_lite::{ConnColumns, DnsColumns, Duration, Logs};

/// Analysis knobs, defaulting to the paper's choices.
#[derive(Debug, Clone)]
pub struct AnalysisConfig {
    /// Pairing policy (paper main result: most recent).
    pub policy: PairingPolicy,
    /// Blocking threshold (paper: 100 ms, conservative vs the 20 ms knee).
    pub block_threshold: Duration,
    /// SC/R resolver threshold derivation.
    pub threshold_rule: ThresholdRule,
    /// Resolver-address → platform mapping.
    pub platform_map: PlatformMap,
    /// Worker threads for the independent batch analysis stages (0 = one
    /// per core). Results are identical for every value. The stream
    /// engine pairs on its own thread and ignores it.
    pub threads: usize,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig {
            policy: PairingPolicy::MostRecent,
            block_threshold: Duration::from_millis(100),
            threshold_rule: ThresholdRule::default(),
            platform_map: PlatformMap::default(),
            threads: 0,
        }
    }
}

/// How complete the analysed input actually was.
///
/// The pipeline never refuses partial logs — damaged frames are rejected
/// upstream and counted in [`zeek_lite::DegradationStats`] — so every
/// result should be read next to this report: upstream acceptance ratios
/// plus the fraction of application connections the pairing could still
/// attribute to a lookup.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Coverage {
    /// Fraction of captured frames that parsed (1.0 for direct-log runs).
    pub frame_acceptance: f64,
    /// Fraction of port-53 payloads that decoded (1.0 for direct-log runs).
    pub dns_acceptance: f64,
    /// Application connections analysed.
    pub app_conns: usize,
    /// Of those, how many paired with a DNS lookup.
    pub paired: usize,
}

impl Coverage {
    /// Fraction of application connections that paired with a lookup,
    /// in `[0, 1]` (1.0 when there were no connections at all).
    pub fn pair_coverage(&self) -> f64 {
        if self.app_conns == 0 {
            1.0
        } else {
            self.paired as f64 / self.app_conns as f64
        }
    }
}

impl std::fmt::Display for Coverage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "frames {:.2}% · dns {:.2}% · pairs {}/{} ({:.2}%)",
            self.frame_acceptance * 100.0,
            self.dns_acceptance * 100.0,
            self.paired,
            self.app_conns,
            self.pair_coverage() * 100.0
        )
    }
}

/// The full pipeline, run once over a set of logs.
pub struct Analysis<'a> {
    logs: &'a Logs,
    cfg: AnalysisConfig,
    /// Columnar projection of the connection log (index-aligned).
    conn_cols: ConnColumns,
    /// Columnar projection of the DNS log scalars (index-aligned).
    dns_cols: DnsColumns,
    /// Pairing results (one entry per application connection).
    pub pairing: Pairing,
    /// Per-connection class, aligned with `pairing.pairs`.
    pub classes: Vec<ConnClass>,
    /// Derived per-resolver SC/R thresholds.
    pub thresholds: HashMap<Ipv4Addr, Duration>,
}

impl<'a> Analysis<'a> {
    /// Run pairing, threshold derivation, and classification.
    ///
    /// The pairing index and the per-resolver thresholds read disjoint
    /// inputs, so they are built concurrently; classification then fans
    /// out over contiguous chunks of the pairing. Every stage is a pure
    /// function of the logs, so the thread count never changes a result.
    pub fn run(logs: &'a Logs, cfg: AnalysisConfig) -> Analysis<'a> {
        // The columns downstream stages scan (thresholds, classification,
        // §5.2, §6) are projected once up front.
        let conn_cols = logs.conn_columns();
        let dns_cols = logs.dns_columns();
        let (pairing, thresholds) = xkit::par::join(
            cfg.threads,
            || Pairing::build(&logs.conns, &logs.dns, cfg.policy),
            || resolver_thresholds(&dns_cols, cfg.threshold_rule),
        );
        let classes = classify_parallel(
            cfg.threads,
            &dns_cols,
            &pairing,
            cfg.block_threshold,
            &thresholds,
            cfg.threshold_rule.floor(),
        );
        Analysis { logs, cfg, conn_cols, dns_cols, pairing, classes, thresholds }
    }

    /// The logs under analysis.
    pub fn logs(&self) -> &Logs {
        self.logs
    }

    /// How much of the capture survived into this analysis.
    pub fn coverage(&self) -> Coverage {
        Coverage {
            frame_acceptance: self.logs.degradation.frame_acceptance(),
            dns_acceptance: self.logs.degradation.dns_acceptance(),
            app_conns: self.pairing.app_conn_count(),
            paired: self.pairing.pairs.iter().filter(|p| p.dns.is_some()).count(),
        }
    }

    /// Table 2.
    pub fn class_counts(&self) -> ClassCounts {
        count_classes(&self.classes)
    }

    /// Figure 1.
    pub fn gap_analysis(&self) -> GapAnalysis {
        GapAnalysis::compute(&self.pairing)
    }

    /// §5.1.
    pub fn no_dns_breakdown(&self) -> NoDnsBreakdown {
        no_dns_breakdown(&self.logs.conns, &self.pairing, &self.classes)
    }

    /// §5.2.
    pub fn ttl_stats(&self) -> TtlStats {
        ttl_stats(&self.conn_cols, &self.dns_cols, &self.pairing, &self.classes)
    }

    /// §6 / Figure 2.
    pub fn perf(&self) -> PerfAnalysis {
        PerfAnalysis::compute(&self.conn_cols, &self.dns_cols, &self.pairing, &self.classes)
    }

    /// §6's quadrants at the paper's thresholds.
    pub fn significance(&self) -> Significance {
        self.perf().significance(self.pairing.app_conn_count())
    }

    /// Diurnal (hour-of-day) classification profile.
    pub fn diurnal_profile(&self) -> [(u8, ClassCounts); 24] {
        crate::timeseries::hour_of_day_profile(&self.logs.conns, &self.pairing, &self.classes)
    }

    /// Per-house breakdown (operator view; not a paper artifact).
    pub fn house_reports(&self) -> Vec<crate::house::HouseReport> {
        crate::house::house_reports(&self.logs.conns, &self.logs.dns, &self.pairing, &self.classes)
    }

    /// Everything the analysis can report as one obs snapshot: the
    /// `pair.*` outcomes, `class.*` counts, per-resolver `threshold.*`
    /// gauges, `perf.*` blocked-connection figures, and the `cover.*`
    /// view. Pure function of the logs, so identical for any thread
    /// count.
    pub fn metrics(&self) -> xkit::obs::Metrics {
        let mut m = xkit::obs::Metrics::new();
        let mut tally = Tally::default();
        for (p, class) in self.pairing.pairs.iter().zip(&self.classes) {
            tally.pair(&mut m, p.outcome());
            if matches!(class, ConnClass::SharedCache | ConnClass::Resolution) {
                let di = p.dns.expect("blocked conns are paired");
                let rtt = self.dns_cols.rtt[di].expect("paired lookups answered");
                tally.blocked(&mut m, rtt.as_millis_f64());
            }
        }
        tally.store_pair(&mut m);
        tally.store_perf(&mut m);
        store_cover(&mut m, &self.coverage());
        store_class_metrics(&mut m, &self.class_counts());
        store_threshold_metrics(&mut m, &self.thresholds);
        m
    }

    /// Table 1 / §7 / Figure 3.
    pub fn platform_reports(&self) -> Vec<PlatformReport> {
        platform_reports(
            &self.logs.conns,
            &self.logs.dns,
            &self.logs.names,
            &self.pairing,
            &self.classes,
            &self.cfg.platform_map,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zeek_lite::{Answer, ConnRecord, ConnState, DnsTransaction, FiveTuple, Proto, Timestamp};

    fn small_logs() -> Logs {
        let house = std::net::Ipv4Addr::new(10, 77, 0, 1);
        let resolver = std::net::Ipv4Addr::new(198, 51, 100, 53);
        let server = std::net::Ipv4Addr::new(104, 16, 0, 1);
        let mut names = zeek_lite::NameTable::default();
        let dns = vec![DnsTransaction {
            ts: Timestamp::from_millis(1_000),
            client: house,
            resolver,
            trans_id: 1,
            query: names.intern("www.example.com"),
            qtype: dns_wire::RrType::A,
            rcode: Some(dns_wire::Rcode::NoError),
            rtt: Some(Duration::from_millis(4)),
            answers: [Answer::addr(server, 300)].into(),
        }];
        let mk_conn = |ts_ms: u64, uid: u64| ConnRecord {
            uid,
            ts: Timestamp::from_millis(ts_ms),
            id: FiveTuple {
                orig_addr: house,
                orig_port: 50_000 + uid as u16,
                resp_addr: server,
                resp_port: 443,
                proto: Proto::Tcp,
            },
            duration: Duration::from_millis(900),
            orig_bytes: 500,
            resp_bytes: 60_000,
            orig_pkts: 6,
            resp_pkts: 40,
            state: ConnState::SF,
            history: "ShAaFf".into(),
            service: Some("ssl"),
        };
        let mut logs = Logs {
            conns: vec![mk_conn(1_006, 0), mk_conn(30_000, 1)],
            dns,
            names,
            ..Default::default()
        };
        logs.sort();
        logs
    }

    #[test]
    fn pipeline_runs_end_to_end() {
        let logs = small_logs();
        let mut cfg = AnalysisConfig::default();
        cfg.threshold_rule.min_lookups = 1;
        let a = Analysis::run(&logs, cfg);
        let counts = a.class_counts();
        assert_eq!(counts.total(), 2);
        // First conn blocks (gap 2 ms) on a fast lookup → SC;
        // second reuses it 29 s later → LC.
        assert_eq!(counts.shared_cache, 1);
        assert_eq!(counts.local_cache, 1);
        let gaps = a.gap_analysis();
        assert_eq!(gaps.gaps_ms.len(), 2);
        let perf = a.perf();
        assert_eq!(perf.blocked.len(), 1);
        let sig = a.significance();
        assert_eq!(sig.neither_pct, 100.0);
        let reports = a.platform_reports();
        let local = reports.iter().find(|r| r.name == "Local").unwrap();
        assert_eq!(local.conns_pct, 100.0);
        let cov = a.coverage();
        assert_eq!(cov.app_conns, 2);
        assert_eq!(cov.paired, 2);
        assert_eq!(cov.pair_coverage(), 1.0);
        // Direct-log runs saw no frames, so acceptance reads as complete.
        assert_eq!(cov.frame_acceptance, 1.0);
        assert_eq!(cov.dns_acceptance, 1.0);
    }

    #[test]
    fn metrics_snapshot_is_consistent_with_views() {
        let logs = small_logs();
        let mut cfg = AnalysisConfig::default();
        cfg.threshold_rule.min_lookups = 1;
        let a = Analysis::run(&logs, cfg);
        let m = a.metrics();
        // Pairing outcomes partition the application connections.
        let app = m.counter("pair.app_conns");
        assert_eq!(m.counter("pair.hit") + m.counter("pair.fallback") + m.counter("pair.miss"), app);
        assert_eq!(app, a.pairing.app_conn_count() as u64);
        // Per-class counts sum to the total.
        assert_eq!(m.sum_counters("class."), a.class_counts().total() as u64);
        // The `cover.*` keys are the coverage report.
        let cov = a.coverage();
        assert_eq!(m.gauge("cover.frame_acceptance"), Some(cov.frame_acceptance));
        assert_eq!(m.gauge("cover.dns_acceptance"), Some(cov.dns_acceptance));
        assert_eq!(m.counter("cover.app_conns"), cov.app_conns as u64);
        assert_eq!(m.counter("cover.paired"), cov.paired as u64);
        // Every derived resolver threshold appears as a gauge.
        assert_eq!(m.counter("threshold.resolvers"), a.thresholds.len() as u64);
        for (addr, thr) in &a.thresholds {
            let g = m.gauge(&format!("threshold.{addr}.ms")).unwrap();
            assert_eq!(g, thr.as_millis_f64());
        }
        assert_eq!(m.counter("perf.blocked_conns"), a.perf().blocked.len() as u64);
    }

    #[test]
    fn default_config_matches_paper_choices() {
        let cfg = AnalysisConfig::default();
        assert_eq!(cfg.block_threshold, Duration::from_millis(100));
        assert_eq!(crate::blocking::KNEE, Duration::from_millis(20));
        assert_eq!(crate::perf::SIGNIFICANCE_ABS_MS, 20.0);
        assert_eq!(crate::perf::SIGNIFICANCE_REL_PCT, 1.0);
        assert_eq!(cfg.threshold_rule.floor_ms, 5.0);
    }
}
