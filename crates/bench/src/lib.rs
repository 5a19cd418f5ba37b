//! What the `repro` harness and the bench ladder (`benchmark/`) share:
//! the [`sim`] fixture, the [`pipeline`] driver behind `repro
//! stream`/`ingest`, and the [`serve`] daemon that runs it once per tenant.

pub mod pipeline;
pub mod serve;

use dnsctx::ccz_sim::{ScaleKnobs, Simulation, WorkloadConfig};

/// Build a simulation at the given size (houses, days, activity).
pub fn sim(houses: usize, days: f64, activity: f64, seed: u64) -> Simulation {
    let cfg = WorkloadConfig {
        scale: ScaleKnobs { houses, days, activity },
        ..WorkloadConfig::default()
    };
    Simulation::new(cfg, seed).expect("valid config")
}

#[cfg(test)]
mod tests {
    #[test]
    fn fixtures_build() {
        let out = super::sim(6, 0.1, 1.0, 3).run();
        assert!(!out.logs.conns.is_empty());
    }
}
