//! Randomized tests for the simulator: determinism, config robustness,
//! and structural invariants of the generated logs across many seeds.
//!
//! Cases come from a fixed `xkit::rng` stream, so every run exercises
//! the same inputs. Seeds 0 and 47 are pinned explicitly: both were
//! shrunk failure cases in earlier development and must stay covered.

use ccz_sim::{ConnClass, ScaleKnobs, Simulation, WorkloadConfig};
use xkit::rng::StdRng;

const CASES: usize = 16;

/// Regression seeds from past failures, always re-run first.
const REGRESSION_SEEDS: [u64; 2] = [0, 47];

/// The pinned regressions followed by `CASES` seeds from a fixed stream.
fn case_seeds(label: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(0xCC2_51A1 ^ label);
    REGRESSION_SEEDS
        .into_iter()
        .chain((0..CASES).map(|_| rng.random::<u64>()))
        .collect()
}

fn tiny(houses: usize, days: f64) -> WorkloadConfig {
    WorkloadConfig {
        scale: ScaleKnobs { houses, days, activity: 1.0 },
        services: 150,
        shared_services: 25,
        ..WorkloadConfig::default()
    }
}

/// Any seed: same seed twice gives identical logs; different seeds
/// give different logs.
#[test]
fn deterministic_per_seed() {
    for seed in case_seeds(1) {
        let sim = Simulation::new(tiny(3, 0.02), seed).unwrap();
        let a = sim.run();
        let b = sim.run();
        assert_eq!(a.logs.conns, b.logs.conns, "seed {seed}");
        assert_eq!(a.logs.dns, b.logs.dns, "seed {seed}");
        let other = Simulation::new(tiny(3, 0.02), seed.wrapping_add(1)).unwrap().run();
        assert!(
            a.logs.conns != other.logs.conns || a.logs.dns != other.logs.dns,
            "seed {seed} and {} produced identical logs",
            seed.wrapping_add(1)
        );
    }
}

/// Structural invariants hold for arbitrary seeds: truth aligns with
/// logs, timestamps ordered, DNS-using conns reference valid lookups
/// that completed before the conn and contain the destination.
#[test]
fn structural_invariants() {
    for seed in case_seeds(2) {
        let out = Simulation::new(tiny(4, 0.03), seed).unwrap().run();
        assert_eq!(out.truth.conns.len(), out.logs.conns.len());
        assert_eq!(out.truth.dns.len(), out.logs.dns.len());
        // Logs sorted.
        assert!(out.logs.conns.windows(2).all(|w| w[0].ts <= w[1].ts));
        assert!(out.logs.dns.windows(2).all(|w| w[0].ts <= w[1].ts));
        for conn in &out.logs.conns {
            let t = &out.truth.conns[conn.uid as usize];
            assert_eq!(t.resp_addr, conn.id.resp_addr);
            match t.class {
                ConnClass::NoDns => assert!(t.dns_index.is_none()),
                _ => {
                    let di = t.dns_index.unwrap();
                    assert!(di < out.logs.dns.len(), "seed {seed}: dns_index out of range");
                    let txn = &out.logs.dns[di];
                    assert!(txn.completed_at().unwrap() <= conn.ts);
                    assert!(txn.addrs().any(|a| a == conn.id.resp_addr));
                    // Blocked classes start within the app-delay budget.
                    if matches!(t.class, ConnClass::SharedCache | ConnClass::Resolution) {
                        let gap = conn.ts.since(txn.completed_at().unwrap());
                        assert!(gap.as_millis_f64() <= 450.0, "seed {seed}: blocked gap {gap}");
                    }
                }
            }
        }
        // The per-platform tally accounts for every lookup.
        let m = &out.metrics;
        let total: u64 = m
            .iter()
            .filter(|(k, _)| k.starts_with("resolver.") && k.ends_with(".queries"))
            .map(|(k, _)| m.counter(k))
            .sum();
        assert_eq!(total as usize, out.logs.dns.len(), "seed {seed}");
    }
}

/// Volume scales roughly linearly with houses. Per-house variance is
/// heavy-tailed (device counts, P2P flags), so the bounds are generous
/// and the sample sizes large enough to average over it.
#[test]
fn volume_scales_with_houses() {
    let mut rng = StdRng::seed_from_u64(0xCC2_51A1 ^ 3);
    let seeds = REGRESSION_SEEDS
        .into_iter()
        .chain((0..CASES).map(|_| rng.random_range(0u64..100)));
    for seed in seeds {
        let small = Simulation::new(tiny(4, 0.05), seed).unwrap().run();
        let large = Simulation::new(tiny(16, 0.05), seed).unwrap().run();
        let ratio = large.logs.conns.len() as f64 / small.logs.conns.len().max(1) as f64;
        assert!(ratio > 1.4 && ratio < 12.0, "seed {seed}: ratio {ratio}");
    }
}

#[test]
fn invalid_configs_are_rejected() {
    let mut c = tiny(1, 0.01);
    c.scale.activity = 0.0;
    assert!(Simulation::new(c, 1).is_err());

    let mut c = tiny(1, 0.01);
    c.p_house_cloudflare = -0.5;
    assert!(Simulation::new(c, 1).is_err());

    let mut c = tiny(1, 0.01);
    c.services = 0;
    assert!(Simulation::new(c, 1).is_err());
}
