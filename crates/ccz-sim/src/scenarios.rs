//! Prebuilt workload scenarios.
//!
//! The default [`WorkloadConfig`] is calibrated against the paper's CCZ
//! measurements; [`paper_week`] is that calibration at the paper's own
//! size and a chosen activity.

use crate::config::{ScaleKnobs, WorkloadConfig};

/// The paper's setting: 100 houses, one week, at the given activity
/// fraction (1.0 ≈ the CCZ's ~11 M connections; heavy).
pub fn paper_week(activity: f64) -> WorkloadConfig {
    WorkloadConfig {
        scale: ScaleKnobs { houses: 100, days: 7.0, activity },
        ..WorkloadConfig::default()
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
        let cfg = paper_week(0.1);
        cfg.validate().unwrap();
        let out = Simulation::new(shrink(cfg), 3).unwrap().run();
        assert!(!out.logs.conns.is_empty());
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
}
