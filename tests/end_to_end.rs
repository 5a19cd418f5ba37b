//! End-to-end semantic checks: the paper's heuristics, run over the
//! observable logs alone, must largely recover the simulator's ground
//! truth — and the derived analyses must satisfy their invariants.
//!
//! Two shared studies over the same workload and seed:
//!
//! * `truth_study` — the direct log backend, where connection uid =
//!   ground-truth index (the LogSink contract). Only the tests that join
//!   analysis results back to the ground truth use it.
//! * `ring_study` — the packet path fed to the monitor through the
//!   in-memory ring `RecordSource`, i.e. the deployment-shaped pipeline.
//!   The monitor assigns its own uids, so no truth joins; everything
//!   else (class mix, significance, gaps, cache models, pairing) runs
//!   over these logs, and a regression pin keeps the ring byte-identical
//!   to the file backend.

use std::sync::OnceLock;

use dnsctx::cache_sim;
use dnsctx::ccz_sim::{
    ConnClass as TruthClass, ScaleKnobs, SimOutput, Simulation, WorkloadConfig,
};
use dnsctx::dns_context::{Analysis, AnalysisConfig, ConnClass};
use dnsctx::pcapio::{self, Backpressure};
use dnsctx::zeek_lite::{logfmt, Duration, Logs, Monitor, MonitorConfig};

const SEED: u64 = 42;

fn base_cfg() -> WorkloadConfig {
    WorkloadConfig {
        scale: ScaleKnobs { houses: 12, days: 0.3, activity: 1.0 },
        ..WorkloadConfig::default()
    }
}

fn study_acfg() -> AnalysisConfig {
    let mut acfg = AnalysisConfig::default();
    acfg.threshold_rule.min_lookups = 200;
    acfg
}

/// Direct-log study, shared across the truth-join tests.
fn truth_study() -> &'static (SimOutput, AnalysisConfig) {
    static STUDY: OnceLock<(SimOutput, AnalysisConfig)> = OnceLock::new();
    STUDY.get_or_init(|| {
        let out = Simulation::new(base_cfg(), SEED).unwrap().run();
        (out, study_acfg())
    })
}

/// Ring-driven monitor study, shared across the invariant tests: the
/// simulator pushes frames into the SPSC ring from a producer thread and
/// the monitor pulls them out through the `RecordSource` seam.
fn ring_study() -> &'static (Logs, AnalysisConfig) {
    static STUDY: OnceLock<(Logs, AnalysisConfig)> = OnceLock::new();
    STUDY.get_or_init(|| {
        let (mut tx, mut rx) = pcapio::ring::channel(1 << 20, 65_535, Backpressure::Block);
        let producer = std::thread::spawn(move || {
            let sim = Simulation::new(base_cfg(), SEED).unwrap();
            sim.run_ring(&mut tx);
        });
        let logs = Monitor::process_source(&mut rx, MonitorConfig::default()).unwrap();
        producer.join().unwrap();
        (logs, study_acfg())
    })
}

fn truth_of(analysis_class: ConnClass) -> TruthClass {
    match analysis_class {
        ConnClass::NoDns => TruthClass::NoDns,
        ConnClass::LocalCache => TruthClass::LocalCache,
        ConnClass::Prefetched => TruthClass::Prefetched,
        ConnClass::SharedCache => TruthClass::SharedCache,
        ConnClass::Resolution => TruthClass::Resolution,
    }
}

/// Regression pin for the ingestion seam: the ring-fed monitor must be
/// indistinguishable from the classic file backend over the same
/// workload — logs and monitor metrics byte-identical.
#[test]
fn ring_study_is_byte_identical_to_file_backend() {
    let (ring_logs, _) = ring_study();
    let sim = Simulation::new(base_cfg(), SEED).unwrap();
    let mut pcap = Vec::new();
    sim.run_pcap(&mut pcap, 65_535).unwrap();
    let file_logs = Monitor::process_pcap(&pcap[..], MonitorConfig::default()).unwrap();

    let render = |logs: &Logs| {
        let mut buf = Vec::new();
        logfmt::write_conn_log(&mut buf, &logs.conns).unwrap();
        logfmt::write_dns_log(&mut buf, &logs.names, &logs.dns).unwrap();
        buf
    };
    assert_eq!(render(ring_logs), render(&file_logs), "rendered logs must match");
    assert_eq!(
        ring_logs.metrics().render_table(),
        file_logs.metrics().render_table(),
        "monitor metrics must match"
    );
}

#[test]
fn analysis_recovers_ground_truth_classes() {
    let (out, acfg) = truth_study();
    let analysis = Analysis::run(&out.logs, acfg.clone());

    // Connection uid = ground-truth index (LogSink contract), so the
    // analysis classification can be joined to the truth exactly.
    let mut agree = 0usize;
    let mut total = 0usize;
    let mut blocked_agree = 0usize;
    let mut blocked_total = 0usize;
    for (pair, class) in analysis.pairing.pairs.iter().zip(&analysis.classes) {
        let conn = &out.logs.conns[pair.conn];
        let truth = &out.truth.conns[conn.uid as usize];
        total += 1;
        if truth.class == truth_of(*class) {
            agree += 1;
        }
        // Blocked-vs-not is the coarser, more important call.
        let truth_blocked = matches!(truth.class, TruthClass::SharedCache | TruthClass::Resolution);
        let ana_blocked = matches!(class, ConnClass::SharedCache | ConnClass::Resolution);
        blocked_total += 1;
        if truth_blocked == ana_blocked {
            blocked_agree += 1;
        }
    }
    let acc = agree as f64 / total as f64;
    let blocked_acc = blocked_agree as f64 / blocked_total as f64;
    assert!(total > 5_000, "too little data: {total}");
    assert!(
        acc > 0.85,
        "classification accuracy vs ground truth too low: {acc:.3} over {total}"
    );
    assert!(
        blocked_acc > 0.93,
        "blocked/non-blocked accuracy too low: {blocked_acc:.3}"
    );
}

#[test]
fn classes_partition_and_shares_sum() {
    let (logs, acfg) = ring_study();
    let analysis = Analysis::run(logs, acfg.clone());
    let counts = analysis.class_counts();
    assert_eq!(counts.total(), analysis.pairing.app_conn_count());
    let share_sum: f64 = ConnClass::all().iter().map(|c| counts.share_pct(*c)).sum();
    assert!((share_sum - 100.0).abs() < 1e-9, "shares sum to {share_sum}");
    // Every class occurs in a realistic workload.
    for class in ConnClass::all() {
        assert!(counts.get(class) > 0, "class {class:?} absent");
    }
}

#[test]
fn significance_quadrants_partition() {
    let (logs, acfg) = ring_study();
    let analysis = Analysis::run(logs, acfg.clone());
    let sig = analysis.significance();
    let sum = sig.neither_pct + sig.rel_only_pct + sig.abs_only_pct + sig.both_pct;
    assert!((sum - 100.0).abs() < 1e-9, "quadrants sum to {sum}");
    assert!(sig.both_share_of_all_pct <= sig.both_pct);
}

#[test]
fn first_use_gap_split_is_discriminative() {
    // The Figure 1 rationale: short gaps are dominated by first uses,
    // long gaps by cache reuse.
    let (logs, acfg) = ring_study();
    let analysis = Analysis::run(logs, acfg.clone());
    let gaps = analysis.gap_analysis();
    assert!(
        gaps.first_use_within_knee > 0.75,
        "within-knee first-use rate {:.2} (paper: 0.91)",
        gaps.first_use_within_knee
    );
    assert!(
        gaps.first_use_beyond_knee < 0.45,
        "beyond-knee first-use rate {:.2} (paper: 0.21)",
        gaps.first_use_beyond_knee
    );
    assert!(gaps.first_use_within_knee > gaps.first_use_beyond_knee + 0.3);
}

#[test]
fn shared_cache_truth_recovered_by_duration_threshold() {
    let (out, acfg) = truth_study();
    let analysis = Analysis::run(&out.logs, acfg.clone());
    // For blocked conns, compare the SC/R call against the resolver's
    // ground truth (did the platform actually answer from cache?).
    let mut agree = 0usize;
    let mut total = 0usize;
    for (pair, class) in analysis.pairing.pairs.iter().zip(&analysis.classes) {
        let ana_sc = match class {
            ConnClass::SharedCache => true,
            ConnClass::Resolution => false,
            _ => continue,
        };
        let conn = &out.logs.conns[pair.conn];
        let truth = &out.truth.conns[conn.uid as usize];
        let Some(di) = truth.dns_index else { continue };
        total += 1;
        if out.truth.dns[di].shared_cache_hit == ana_sc {
            agree += 1;
        }
    }
    let acc = agree as f64 / total as f64;
    assert!(total > 1_000);
    assert!(acc > 0.85, "SC/R recovery too weak: {acc:.3} over {total}");
}

#[test]
fn cache_simulations_have_consistent_reports() {
    let (logs, acfg) = ring_study();
    let analysis = Analysis::run(logs, acfg.clone());

    let wh = cache_sim::whole_house(logs, &analysis);
    assert!(wh.moved <= wh.sc_conns + wh.r_conns);
    assert!(wh.moved_share_of_all_pct <= 100.0);
    assert!(wh.moved > 0, "a shared house cache must absorb something");

    let r = cache_sim::refresh(logs, &analysis, Duration::from_secs(10));
    assert!((r.standard.hit_pct + r.standard.miss_pct - 100.0).abs() < 1e-9);
    assert!((r.refresh_all.hit_pct + r.refresh_all.miss_pct - 100.0).abs() < 1e-9);
    assert!(r.refresh_all.hit_pct > r.standard.hit_pct, "refreshing must help hits");
    assert!(r.refresh_all.lookups > r.standard.lookups, "refreshing must cost lookups");
    assert!(r.lookup_ratio() > 5.0, "cost blow-up should be large: {:.1}", r.lookup_ratio());

    // Selective refresh sits between the two policies.
    let sel = cache_sim::refresh_selective(
        logs,
        &analysis,
        Duration::from_secs(10),
        3,
        Duration::from_secs(3_600),
    );
    assert!(sel.lookups <= r.refresh_all.lookups);
    assert!(sel.hit_pct >= r.standard.hit_pct - 1e-9);
}

#[test]
fn pairing_ambiguity_mostly_single_candidate() {
    let (logs, acfg) = ring_study();
    let analysis = Analysis::run(logs, acfg.clone());
    let share = analysis.pairing.single_candidate_share();
    assert!(
        share > 0.55 && share < 0.999,
        "single-candidate share {share:.3} (paper: 0.82) — co-hosting should create some ambiguity"
    );
}

#[test]
fn random_pairing_policy_shifts_results_only_slightly() {
    // The paper's robustness check: re-running with random candidate
    // selection must leave the high-level class mix close to the default.
    let (logs, acfg) = ring_study();
    let a1 = Analysis::run(logs, acfg.clone());
    let mut cfg2 = acfg.clone();
    cfg2.policy = dnsctx::dns_context::PairingPolicy::RandomNonExpired;
    let a2 = Analysis::run(logs, cfg2);
    let c1 = a1.class_counts();
    let c2 = a2.class_counts();
    for class in ConnClass::all() {
        let d = (c1.share_pct(class) - c2.share_pct(class)).abs();
        assert!(d < 8.0, "{class:?} share moved {d:.2} points under random pairing");
    }
}

#[test]
fn random_pairing_policy_draw_sequence_is_pinned() {
    // The seeded policy draws once per connection with a live candidate,
    // in connection order; a change to the candidate scan that shifts one
    // draw moves these counts. The capture is `stream_agreement`'s.
    let cfg = WorkloadConfig {
        scale: ScaleKnobs { houses: 4, days: 0.03, activity: 1.0 },
        services: 200,
        shared_services: 30,
    };
    let mut pcap = Vec::new();
    Simulation::new(cfg, SEED).unwrap().run_pcap(&mut pcap, 600).unwrap();
    let logs = Monitor::process_pcap(&pcap[..], MonitorConfig::default()).unwrap();
    let mut acfg = AnalysisConfig::default();
    acfg.threshold_rule.min_lookups = 50;
    acfg.policy = dnsctx::dns_context::PairingPolicy::RandomNonExpired;
    let c = Analysis::run(&logs, acfg).class_counts();
    assert_eq!(
        [c.no_dns, c.local_cache, c.prefetched, c.shared_cache, c.resolution],
        [243, 70, 27, 64, 25]
    );
}

/// FNV-1a over every `PairedConn` field and `dns_used`, per policy, on
/// `quick_study(12, 0.5, seed)` for seeds 1-8, as `(app conns, digest)`
/// recorded from the commit before the batch pairer dropped its staging
/// buffer. Any change to which lookup a connection pairs with, its gap,
/// expiry, ambiguity count, first use or the random draw moves it.
#[test]
fn pairing_matches_the_recorded_digest_over_seeds() {
    use dnsctx::dns_context::{Pairing, PairingPolicy};
    const RECORDED: [(u64, [(usize, u64); 2]); 8] = [
        (1, [(31250, 0x497e_f63e_a098_ad2b), (31250, 0xa20a_86a3_bd64_20cb)]),
        (2, [(28405, 0x9cb9_8900_2aec_cc9d), (28405, 0xe6e7_97e1_d2b6_d99f)]),
        (3, [(24401, 0x8122_aa1b_a0cd_39cd), (24401, 0x828f_3f7f_b7c2_acb8)]),
        (4, [(33007, 0xccc4_c711_0475_e6b0), (33007, 0x1cfa_3be3_9de0_1829)]),
        (5, [(28038, 0xa10b_247d_d951_bed2), (28038, 0xf125_1799_a397_5adb)]),
        (6, [(27391, 0x801a_ad45_6b30_f64f), (27391, 0x94ce_017f_da71_5320)]),
        (7, [(28651, 0xcc54_675e_48b6_8333), (28651, 0x85c1_7404_035e_b468)]),
        (8, [(24415, 0x5c25_9201_d818_afb2), (24415, 0x8ca0_24bc_5099_ad74)]),
    ];
    let word = |h: u64, w: u64| {
        w.to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
    };
    for (seed, recorded) in RECORDED {
        let study = dnsctx::pipeline::quick_study(12, 0.5, seed);
        let logs = study.logs();
        let got = [PairingPolicy::MostRecent, PairingPolicy::RandomNonExpired].map(|policy| {
            let p = Pairing::build(&logs.conns, &logs.dns, policy);
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for x in &p.pairs {
                for w in [
                    x.conn as u64,
                    x.dns.map_or(u64::MAX, |d| d as u64),
                    x.gap.map_or(u64::MAX, |g| g.0),
                    u64::from(x.expired),
                    x.candidates as u64,
                    u64::from(x.first_use),
                ] {
                    h = word(h, w);
                }
            }
            for &used in &p.dns_used {
                h = word(h, u64::from(used));
            }
            (p.pairs.len(), h)
        });
        assert_eq!(got, recorded, "seed {seed}: [MostRecent, RandomNonExpired]");
    }
}

/// FNV-1a over the sample bits of §6's four ECDFs (delay, contribution
/// over SC ∪ R, SC only, R only) and over the `{:?}` of the
/// `whole_house` and `refresh` (10 s floor) reports, on
/// `quick_study(12, 0.5, seed)` for seeds 1-8, as `(blocked conns,
/// digest)` recorded from the commit before the ECDFs were radix-sorted
/// and `FastMap`'s hash was finished with a rotation. A sort that moves
/// one sample or a replay whose outcome depends on bucket order moves it.
#[test]
fn perf_and_cache_reports_match_the_recorded_digest_over_seeds() {
    const RECORDED: [(u64, usize, u64); 8] = [
        (1, 13221, 0xf0d2_a47d_265f_f967),
        (2, 12190, 0xefd7_82f1_0846_a090),
        (3, 9853, 0xe696_3e2f_fc35_4a6f),
        (4, 11529, 0xc676_ccb3_f5a7_fb59),
        (5, 10843, 0x0b9d_388e_63c8_6e61),
        (6, 11091, 0xd9dd_2371_eb0c_7e79),
        (7, 13664, 0x9aff_d056_9ef8_a1dc),
        (8, 10013, 0xfb06_a20a_82c7_9028),
    ];
    let fnv = |h: u64, bytes: &[u8]| {
        bytes.iter().fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
    };
    for (seed, blocked, digest) in RECORDED {
        let study = dnsctx::pipeline::quick_study(12, 0.5, seed);
        let logs = study.logs();
        let analysis = study.analysis();
        let perf = analysis.perf();
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let ecdfs = [&perf.delay_ms, &perf.contribution_pct, &perf.contribution_sc_pct, &perf.contribution_r_pct];
        for ecdf in ecdfs {
            h = fnv(h, &(ecdf.samples().len() as u64).to_le_bytes());
            for x in ecdf.samples() {
                h = fnv(h, &x.to_bits().to_le_bytes());
            }
        }
        let wh = cache_sim::whole_house(logs, &analysis);
        let r = cache_sim::refresh(logs, &analysis, Duration::from_secs(10));
        h = fnv(h, format!("{wh:?}{r:?}").as_bytes());
        assert_eq!((perf.blocked.len(), h), (blocked, digest), "seed {seed}");
    }
}
