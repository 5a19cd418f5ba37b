//! End-to-end fault injection: corrupt a simulated capture at increasing
//! rates and hold the pipeline to its graceful-degradation contract —
//! zero panics, monotone coverage loss, and a rate-0 pass that is
//! byte-identical to the clean pipeline.

use dnsctx::ccz_sim::{ScaleKnobs, Simulation, WorkloadConfig};
use dnsctx::dns_context::{Analysis, AnalysisConfig};
use dnsctx::pcapio;
use dnsctx::zeek_lite::{logfmt, AnswerData, Logs, Monitor, MonitorConfig};
use xkit::fault::{FaultConfig, FaultInjector};
use xkit::rng::StdRng;

fn small_capture(seed: u64) -> Vec<u8> {
    capture(ScaleKnobs { houses: 5, days: 0.1, activity: 0.1 }, seed)
}

fn capture(scale: ScaleKnobs, seed: u64) -> Vec<u8> {
    let cfg = WorkloadConfig { scale, ..WorkloadConfig::default() };
    let sim = Simulation::new(cfg, seed).expect("valid config").with_threads(1);
    let mut pcap = Vec::new();
    let (_, frames) = sim.run_pcap(&mut pcap, 65_535).expect("in-memory pcap");
    assert!(frames > 100, "workload too small to exercise anything");
    pcap
}

fn corrupt(pcap: &[u8], cfg: FaultConfig, rng: StdRng) -> Vec<u8> {
    let mut out = Vec::new();
    let mut injector = FaultInjector::new(cfg, rng);
    pcapio::rewrite(pcap, &mut out, &mut injector).expect("in-memory rewrite");
    out
}

fn render_logs(logs: &Logs) -> Vec<u8> {
    let mut buf = Vec::new();
    logfmt::write_conn_log(&mut buf, &logs.conns).expect("in-memory write");
    logfmt::write_dns_log(&mut buf, &logs.names, &logs.dns).expect("in-memory write");
    buf
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

/// The monitor's logs over a 12-house capture, clean and at 5 % faults —
/// where reordered and duplicated frames move the flow-table sweeps and
/// the order rows complete in — as row counts and the FNV-1a digest of
/// their rendering, recorded on the commit before the flow table was
/// keyed by packed words.
#[test]
fn monitor_logs_match_the_recorded_digest() {
    let clean = capture(ScaleKnobs { houses: 12, days: 0.1, activity: 0.3 }, 12);
    let faulted = corrupt(&clean, FaultConfig::uniform(0.05), StdRng::seed_from_u64(12));
    let digest = |pcap: &[u8]| {
        let mut source = pcapio::source::file(pcap).expect("in-memory pcap");
        let logs = Monitor::process_source(&mut source, MonitorConfig::default()).expect("in-memory pcap");
        (logs.conns.len(), logs.dns.len(), fnv1a(&render_logs(&logs)))
    };
    assert_eq!(digest(&clean), (2_344, 954, 0x36df_09e8_210a_fc8a), "clean");
    assert_eq!(digest(&faulted), (2_352, 933, 0x2e6b_cf92_6606_cda9), "5 % faults");
}

/// The simulator's direct logs (`Simulation::run`, no packets) over a
/// 60-house world — three shards, whose sinks `LogSink::absorb` merges —
/// as row counts and the FNV-1a digest of their rendering, recorded on
/// the commit before a DNS row named its query and CNAME targets by id.
#[test]
fn direct_logs_match_the_recorded_digest() {
    let scale = ScaleKnobs { houses: 60, days: 0.05, activity: 0.2 };
    let cfg = WorkloadConfig { scale, ..WorkloadConfig::default() };
    let logs = Simulation::new(cfg, 60).expect("valid config").with_threads(2).run().logs;
    let answers = logs.dns.iter().flat_map(|d| d.answers.iter());
    let cnames = answers.filter(|a| matches!(a.data, AnswerData::Cname(_))).count();
    assert!(cnames > 100, "the digest must cover CNAME targets: {cnames}");
    let digest = (logs.conns.len(), logs.dns.len(), fnv1a(&render_logs(&logs)));
    assert_eq!(digest, (1_421, 1_206, 0x02f2_f6fe_4fff_a2dc));
}

#[test]
fn rate_zero_is_byte_identical_to_clean_pipeline() {
    let clean = small_capture(0);
    let master = StdRng::seed_from_u64(0);
    let rewritten = corrupt(&clean, FaultConfig::clean(), master.split(0));
    assert_eq!(rewritten, clean, "rate-0 rewrite must not change a byte of the capture");

    let base = Monitor::process_pcap(&clean[..], MonitorConfig::default()).unwrap();
    let logs = Monitor::process_pcap(&rewritten[..], MonitorConfig::default()).unwrap();
    assert_eq!(render_logs(&logs), render_logs(&base), "rate-0 logs must match the clean run");
    assert!(logs.degradation.is_clean());
    assert_eq!(logs.degradation.frames_seen, logs.degradation.frames_accepted);
}

#[test]
fn corruption_sweep_never_panics_and_degrades_monotonically() {
    let clean = small_capture(1);
    let master = StdRng::seed_from_u64(7);
    let mut cfg = AnalysisConfig::default();
    cfg.threads = 1;

    let mut acceptances = Vec::new();
    let mut coverages = Vec::new();
    for (i, rate) in [0.0, 0.05, 0.25].into_iter().enumerate() {
        let corrupted = corrupt(&clean, FaultConfig::uniform(rate), master.split(i as u64));
        let logs = Monitor::process_pcap(&corrupted[..], MonitorConfig::default())
            .expect("per-record corruption must never break the pcap container");
        let analysis = Analysis::run(&logs, cfg.clone());
        let cov = analysis.coverage();
        acceptances.push(cov.frame_acceptance);
        coverages.push(cov.pair_coverage());
    }
    for i in 1..acceptances.len() {
        assert!(
            acceptances[i] <= acceptances[i - 1] + 1e-9,
            "frame acceptance rose: {acceptances:?}"
        );
        assert!(
            coverages[i] <= coverages[i - 1] + 0.05,
            "pair coverage rose beyond slack: {coverages:?}"
        );
    }
    assert!(acceptances[2] < acceptances[0], "25% faults must reject frames");
}

#[test]
fn corruption_is_reproducible_for_a_fixed_seed() {
    let clean = small_capture(2);
    let a = corrupt(&clean, FaultConfig::uniform(0.2), StdRng::seed_from_u64(99));
    let b = corrupt(&clean, FaultConfig::uniform(0.2), StdRng::seed_from_u64(99));
    let c = corrupt(&clean, FaultConfig::uniform(0.2), StdRng::seed_from_u64(100));
    assert_eq!(a, b, "same seed must corrupt identically");
    assert_ne!(a, c, "different seeds must corrupt differently");
    assert_ne!(a, clean, "20% faults must actually change the capture");
}

#[test]
fn degradation_stats_merge_across_shards_like_one_pass() {
    let clean = small_capture(3);
    let corrupted = corrupt(&clean, FaultConfig::uniform(0.2), StdRng::seed_from_u64(5));
    let whole = Monitor::process_pcap(&corrupted[..], MonitorConfig::default()).unwrap();

    // Re-reading the same capture twice and merging must double every
    // degradation bucket — the merge is a plain sum.
    let mut twice = Monitor::process_pcap(&corrupted[..], MonitorConfig::default()).unwrap();
    let again = Monitor::process_pcap(&corrupted[..], MonitorConfig::default()).unwrap();
    twice.merge(again);
    assert_eq!(twice.degradation.frames_seen, 2 * whole.degradation.frames_seen);
    assert_eq!(twice.degradation.frames_accepted, 2 * whole.degradation.frames_accepted);
    assert_eq!(twice.degradation.dns_payloads, 2 * whole.degradation.dns_payloads);
    assert_eq!(twice.degradation.dns_accepted, 2 * whole.degradation.dns_accepted);
    assert!(!whole.degradation.is_clean(), "20% faults must reject something");
}
