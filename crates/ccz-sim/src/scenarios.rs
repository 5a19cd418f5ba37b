//! Prebuilt workload scenarios.
//!
//! The default [`WorkloadConfig`] is calibrated against the paper's CCZ
//! measurements; these presets bend single mechanisms to explore how the
//! paper's conclusions shift under different populations — the kind of
//! what-if a downstream user reaches for first.

use crate::config::{ScaleKnobs, WorkloadConfig};

/// The paper's setting: 100 houses, one week, at the given activity
/// fraction (1.0 ≈ the CCZ's ~11 M connections; heavy).
pub fn paper_week(activity: f64) -> WorkloadConfig {
    WorkloadConfig {
        scale: ScaleKnobs { houses: 100, days: 7.0, activity },
        ..WorkloadConfig::default()
    }
}

/// A neighbourhood of cord-cutters: streaming dominates, little P2P.
/// Expect the LC share to grow (segment fetches re-use cached names) and
/// the blocked share to shrink.
pub fn streaming_heavy(activity: f64) -> WorkloadConfig {
    WorkloadConfig {
        stream_gap_secs: 3_000.0,
        stream_len_secs: 4_800.0,
        p_house_p2p: 0.05,
        ..paper_week(activity)
    }
}

/// A P2P-heavy population: the N class balloons, and DNS matters for a
/// smaller slice of traffic.
pub fn p2p_heavy(activity: f64) -> WorkloadConfig {
    WorkloadConfig {
        p_house_p2p: 0.6,
        p2p_burst_gap_secs: 700.0,
        p2p_burst_conns: (20, 80),
        ..paper_week(activity)
    }
}

/// A low-TTL world (CDNs pushing 30–60 s TTLs everywhere): caching decays
/// and the blocked share climbs — the counterfactual behind the paper's
/// §8 refresh costs.
pub fn short_ttl_world(activity: f64) -> WorkloadConfig {
    WorkloadConfig {
        ttl_classes: vec![(30, 0.45), (60, 0.35), (300, 0.20)],
        ..paper_week(activity)
    }
}

/// Devices that perfectly honour TTLs (no stale reuse): the §5.2
/// violation rates drop to zero and the blocked share rises.
pub fn ttl_honest(activity: f64) -> WorkloadConfig {
    WorkloadConfig {
        p_stale_reuse: 0.0,
        ..paper_week(activity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Simulation;

    fn shrink(mut cfg: WorkloadConfig) -> WorkloadConfig {
        cfg.scale = ScaleKnobs { houses: 6, days: 0.08, activity: 1.0 };
        cfg.services = 250;
        cfg.shared_services = 40;
        cfg
    }

    #[test]
    fn all_scenarios_validate_and_run() {
        for cfg in [
            paper_week(0.1),
            streaming_heavy(0.1),
            p2p_heavy(0.1),
            short_ttl_world(0.1),
            ttl_honest(0.1),
        ] {
            cfg.validate().unwrap();
            let out = Simulation::new(shrink(cfg), 3).unwrap().run();
            assert!(!out.logs.conns.is_empty());
        }
    }

    #[test]
    fn p2p_heavy_raises_no_dns_share() {
        let base = Simulation::new(shrink(paper_week(1.0)), 9).unwrap().run();
        let p2p = Simulation::new(shrink(p2p_heavy(1.0)), 9).unwrap().run();
        let share = |o: &crate::SimOutput| o.truth.class_share(crate::ConnClass::NoDns);
        assert!(
            share(&p2p) > 2.0 * share(&base),
            "p2p scenario should balloon N: {:.3} vs {:.3}",
            share(&p2p),
            share(&base)
        );
    }

    #[test]
    fn local_only_uses_single_platform() {
        // Every house pinned to the ISP resolvers (the paper's
        // hypothesised forwarder-intercept configuration, network-wide).
        let local_only = WorkloadConfig {
            p_house_forwarder_only: 1.0,
            p_house_opendns: 0.0,
            p_house_cloudflare: 0.0,
            ..paper_week(1.0)
        };
        let out = Simulation::new(shrink(local_only), 5).unwrap().run();
        // Every lookup went to Local, so no other platform saw one.
        let m = &out.metrics;
        assert!(m.counter("sim.dns_lookups") > 0);
        assert_eq!(m.counter("resolver.local.queries"), m.counter("sim.dns_lookups"));
    }

    #[test]
    fn ttl_honest_has_no_stale_conns() {
        let out = Simulation::new(shrink(ttl_honest(1.0)), 5).unwrap().run();
        assert!(out.truth.conns.iter().all(|c| !c.stale));
    }

    #[test]
    fn typo_traffic_produces_unpaired_nxdomain() {
        // Two percent of page views also fire a dead-name lookup.
        let typo_traffic = WorkloadConfig { p_nxdomain: 0.02, ..paper_week(1.0) };
        let out = Simulation::new(shrink(typo_traffic), 5).unwrap().run();
        let nx: Vec<_> = out
            .logs
            .dns
            .iter()
            .filter(|t| t.rcode == Some(dns_wire::Rcode::NxDomain))
            .collect();
        assert!(!nx.is_empty(), "typo scenario must emit NXDOMAIN lookups");
        for t in nx {
            assert!(t.answers.is_empty());
            assert!(t.rtt.is_some());
        }
    }

    #[test]
    fn short_ttl_world_blocks_more() {
        let base = Simulation::new(shrink(paper_week(1.0)), 11).unwrap().run();
        let short = Simulation::new(shrink(short_ttl_world(1.0)), 11).unwrap().run();
        let blocked = |o: &crate::SimOutput| {
            o.truth.class_share(crate::ConnClass::SharedCache)
                + o.truth.class_share(crate::ConnClass::Resolution)
        };
        assert!(
            blocked(&short) > blocked(&base),
            "short TTLs should force more blocking: {:.3} vs {:.3}",
            blocked(&short),
            blocked(&base)
        );
    }
}
