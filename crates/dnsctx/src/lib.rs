//! One-stop façade for the *Putting DNS in Context* reproduction.
//!
//! The workspace is layered (wire formats → capture → monitor → simulator
//! → analysis → cache simulations); this crate re-exports each layer and
//! adds the [`pipeline`] helpers the examples, harness, and integration
//! tests share.
//!
//! ```
//! use dnsctx::pipeline;
//!
//! // A small synthetic CCZ week, directly to logs, then the paper's
//! // Table 2 classification.
//! let study = pipeline::quick_study(8, 0.05, 42);
//! let counts = study.analysis().class_counts();
//! assert!(counts.total() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use cache_sim;
pub use ccz_sim;
pub use dns_context;
pub use dns_wire;
pub use netpkt;
pub use pcapio;
pub use xkit;
pub use zeek_lite;

pub mod pipeline {
    //! Prebuilt end-to-end pipelines.

    use ccz_sim::{ScaleKnobs, SimOutput, Simulation, WorkloadConfig};
    use dns_context::{Analysis, AnalysisConfig};
    use zeek_lite::Logs;

    /// A simulation output bundled with the analysis configuration, ready
    /// to serve every table and figure.
    pub struct Study {
        /// Raw simulation output (logs + ground truth + workload metrics).
        pub sim: SimOutput,
        /// Analysis configuration used by [`Study::analysis`].
        pub analysis_cfg: AnalysisConfig,
    }

    impl Study {
        /// Run the paper's analysis pipeline over the study's logs.
        /// Recomputed on call; hold on to the result when serving several
        /// tables.
        pub fn analysis(&self) -> Analysis<'_> {
            Analysis::run(&self.sim.logs, self.analysis_cfg.clone())
        }

        /// The observable logs.
        pub fn logs(&self) -> &Logs {
            &self.sim.logs
        }
    }

    /// Simulate a CCZ-like week and return it with default analysis
    /// settings. `houses` and `activity` control volume; `seed` fixes
    /// the randomness.
    pub fn quick_study(houses: usize, activity: f64, seed: u64) -> Study {
        let cfg = WorkloadConfig {
            scale: ScaleKnobs { houses, days: 1.0, activity },
            ..WorkloadConfig::default()
        };
        study_with(cfg, seed)
    }

    /// Full control over the workload; analysis settings stay at the
    /// paper's defaults.
    pub fn study_with(cfg: WorkloadConfig, seed: u64) -> Study {
        let sim = Simulation::new(cfg, seed).expect("valid workload config").run();
        Study { sim, analysis_cfg: AnalysisConfig::default() }
    }
}

#[cfg(test)]
mod tests {
    use super::pipeline;

    #[test]
    fn quick_study_produces_analysable_logs() {
        let study = pipeline::quick_study(4, 0.2, 7);
        assert!(!study.logs().conns.is_empty());
        assert!(!study.logs().dns.is_empty());
        let analysis = study.analysis();
        let counts = analysis.class_counts();
        assert_eq!(counts.total(), analysis.pairing.app_conn_count());
    }
}
