//! Shared fixtures for the `xkit::bench` benches and the `repro`
//! harness, the [`pipeline`] driver behind `repro stream`/`ingest`, and
//! the [`serve`] daemon that runs it once per tenant.

pub mod pipeline;
pub mod serve;

use dnsctx::ccz_sim::{ScaleKnobs, SimOutput, Simulation, WorkloadConfig};

/// Build a simulation at the given size (houses, days, activity).
pub fn sim(houses: usize, days: f64, activity: f64, seed: u64) -> Simulation {
    let cfg = WorkloadConfig {
        scale: ScaleKnobs { houses, days, activity },
        ..WorkloadConfig::default()
    };
    Simulation::new(cfg, seed).expect("valid config")
}

/// Run a small fixed workload once (bench fixtures reuse the output).
pub fn small_output(seed: u64) -> SimOutput {
    sim(6, 0.1, 1.0, seed).run()
}

#[cfg(test)]
mod tests {
    #[test]
    fn fixtures_build() {
        let out = super::small_output(3);
        assert!(!out.logs.conns.is_empty());
    }
}
