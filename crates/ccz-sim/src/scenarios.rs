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
}
