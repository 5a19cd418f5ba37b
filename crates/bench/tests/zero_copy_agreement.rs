//! Zero-copy agreement suite.
//!
//! The hot path now parses borrowed records over a reusable read buffer,
//! pairs through a flat entry arena, and scans columnar log projections.
//! None of that may be observable: these tests pin that capture bytes,
//! rendered (sorted) logs, class counts, and the metrics snapshot are
//! byte-identical for worker threads {1, 8} × epoch windows {30 s, ∞},
//! and that the owned-record fallback (the fault-rewrite seam, the one
//! sanctioned exit from the zero-copy path) agrees with the borrowed
//! reader.

use dnsctx::ccz_sim::{ScaleKnobs, Simulation, WorkloadConfig};
use dnsctx::dns_context::{stream, Analysis, AnalysisConfig};
use dnsctx::pcapio;
use dnsctx::zeek_lite::{logfmt, Duration, Logs, Monitor, MonitorConfig};
use xkit::fault::{FaultConfig, FaultInjector};
use xkit::rng::StdRng;

const SEED: u64 = 1303;

/// Small-but-busy workload, at integration-test scale: each test holds
/// whole captures in memory.
fn workload() -> WorkloadConfig {
    WorkloadConfig {
        scale: ScaleKnobs { houses: 12, days: 0.25, activity: 0.5 },
        ..WorkloadConfig::default()
    }
}

/// Render the capture produced with `threads` simulation workers.
fn capture_bytes(threads: usize) -> Vec<u8> {
    let sim = Simulation::new(workload(), SEED).expect("valid config").with_threads(threads);
    let mut bytes = Vec::new();
    let (_, frames) = sim.run_pcap(&mut bytes, 65_535).expect("in-memory pcap");
    assert!(frames > 0, "workload must produce traffic");
    bytes
}

/// Canonical byte form of both logs (Zeek-style TSV, sorted by the
/// monitor's own ordering guarantees).
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

fn analysis_cfg(threads: usize) -> AnalysisConfig {
    AnalysisConfig { threads, ..AnalysisConfig::default() }
}

#[test]
fn capture_bytes_are_thread_invariant() {
    let t1 = capture_bytes(1);
    let t8 = capture_bytes(8);
    assert!(!t1.is_empty());
    assert_eq!(t1, t8, "pcap bytes must not depend on simulation threads");
    // And the run is reproducible at a fixed seed.
    assert_eq!(t1, capture_bytes(1), "same seed, same bytes");
}

/// The simulator's DNS encoder makes the compression decisions it made
/// with the `HashMap<Name, usize>` compressor: the capture's FNV-1a
/// digest is the one recorded on that commit.
#[test]
fn capture_bytes_match_the_recorded_digest() {
    let bytes = capture_bytes(1);
    assert_eq!((bytes.len(), fnv1a(&bytes)), (4_504_520, 0xb9f3_793c_8430_003c));
}

/// A 60-house world: three simulator shards.
fn sharded_workload() -> WorkloadConfig {
    WorkloadConfig {
        scale: ScaleKnobs { houses: 60, days: 0.05, activity: 0.5 },
        ..WorkloadConfig::default()
    }
}

/// `(frames, bytes, FNV-1a)` of the three-shard capture at snaplen 96.
const SHARDED_TRUNCATED: (u64, usize, u64) = (31_634, 2_382_650, 0xdff0_b30c_af17_f0c8);

/// Three shards and a snaplen that cuts every DNS response: the shards'
/// frames merged into one time order and truncated, as recorded on the
/// commit before the sink wrote into a byte arena.
#[test]
fn sharded_truncated_capture_matches_the_recorded_digest() {
    for threads in [1usize, 8] {
        let sim = Simulation::new(sharded_workload(), SEED).expect("valid config").with_threads(threads);
        let mut bytes = Vec::new();
        let (_, frames) = sim.run_pcap(&mut bytes, 96).expect("in-memory pcap");
        assert_eq!((frames, bytes.len(), fnv1a(&bytes)), SHARDED_TRUNCATED, "threads {threads}");
    }
}

/// The ring door of the same three-shard world: every record drained
/// from the ring, framed as a pcap, is the file door's capture byte for
/// byte.
#[test]
fn sharded_truncated_ring_matches_the_recorded_digest() {
    for threads in [1usize, 8] {
        let sim = Simulation::new(sharded_workload(), SEED).expect("valid config").with_threads(threads);
        let (mut tx, mut rx) = pcapio::ring::channel(1 << 16, 96, pcapio::Backpressure::Block);
        let (bytes, offered) = xkit::par::join(
            2,
            || {
                let mut w = pcapio::PcapWriter::new(Vec::new(), 96).expect("header");
                while let Some(rec) = pcapio::RecordSource::next(&mut rx).expect("ring read") {
                    w.write_packet(rec.ts_nanos, rec.data, rec.orig_len).expect("in-memory write");
                }
                w.into_inner().expect("in-memory flush")
            },
            move || sim.run_ring(&mut tx).1,
        );
        assert_eq!((offered, bytes.len(), fnv1a(&bytes)), SHARDED_TRUNCATED, "threads {threads}");
    }
}

#[test]
fn batch_pipeline_agrees_across_threads() {
    let bytes = capture_bytes(1);
    let logs = Monitor::process_pcap(&bytes[..], MonitorConfig::default())
        .expect("clean capture parses");
    let rendered = render_logs(&logs);
    assert!(!rendered.is_empty());

    let a1 = Analysis::run(&logs, analysis_cfg(1));
    let a8 = Analysis::run(&logs, analysis_cfg(8));
    assert_eq!(a1.class_counts(), a8.class_counts(), "class counts must be thread-invariant");
    assert_eq!(
        logs.metrics().render_table(),
        Monitor::process_pcap(&bytes[..], MonitorConfig::default())
            .expect("clean capture parses")
            .metrics()
            .render_table(),
        "monitor metrics must be reproducible"
    );
}

#[test]
fn stream_agrees_for_all_windows_and_threads() {
    let bytes = capture_bytes(1);
    let batch_logs = Monitor::process_pcap(&bytes[..], MonitorConfig::default())
        .expect("clean capture parses");
    let batch_rendered = render_logs(&batch_logs);
    let batch_counts = Analysis::run(&batch_logs, analysis_cfg(1)).class_counts();

    let mut metric_snapshots = Vec::new();
    for window in [Duration::from_secs(30), Duration::ZERO] {
        for threads in [1usize, 8] {
            let mut released = Logs::default();
            let result = stream::process_source_observed(
                &mut pcapio::source::file(&bytes[..]).expect("pcap header"),
                window,
                MonitorConfig::default(),
                analysis_cfg(threads),
                None,
                |epoch| {
                    released.conns.extend(epoch.conns.iter().cloned());
                    released.dns.extend(epoch.dns.iter().cloned());
                },
            )
            .expect("stream run");
            released.conns.extend(result.tail.conns);
            released.dns.extend(result.tail.dns);
            released.names = result.names;

            assert_eq!(
                render_logs(&released),
                batch_rendered,
                "stream rows (window {window:?}, threads {threads}) must equal batch logs"
            );
            assert_eq!(
                result.class_counts, batch_counts,
                "stream class counts (window {window:?}, threads {threads}) must equal batch"
            );
            metric_snapshots.push(result.analysis_metrics.render_table());
        }
    }
    for s in &metric_snapshots[1..] {
        assert_eq!(
            s, &metric_snapshots[0],
            "analysis metrics must be byte-identical across windows x threads"
        );
    }
}

#[test]
fn owned_fallback_rewrite_agrees_with_borrowed_reader() {
    let clean = capture_bytes(1);

    // Rate 0: the owned round-trip must reproduce the capture bit for
    // bit, and its logs must match the borrowed reader's.
    let mut copied = Vec::new();
    let mut identity = FaultInjector::new(FaultConfig::clean(), StdRng::seed_from_u64(SEED));
    pcapio::rewrite(&clean[..], &mut copied, &mut identity).expect("in-memory rewrite");
    assert_eq!(copied, clean, "rate-0 rewrite must be byte-identical");
    let borrowed = Monitor::process_pcap(&clean[..], MonitorConfig::default()).expect("parses");
    let owned = Monitor::process_pcap(&copied[..], MonitorConfig::default()).expect("parses");
    assert_eq!(render_logs(&owned), render_logs(&borrowed));

    // A lossy rewrite is still fully deterministic: same seed, same
    // corrupted bytes, and the downstream analysis is thread-invariant.
    let corrupt_once = || {
        let mut out = Vec::new();
        let mut injector =
            FaultInjector::new(FaultConfig::uniform(0.05), StdRng::seed_from_u64(SEED));
        pcapio::rewrite(&clean[..], &mut out, &mut injector).expect("in-memory rewrite");
        out
    };
    let corrupted = corrupt_once();
    assert_eq!(corrupted, corrupt_once(), "fault rewrite must be seed-deterministic");
    assert_ne!(corrupted, clean, "a 5% fault rate must actually corrupt something");

    let logs = Monitor::process_pcap(&corrupted[..], MonitorConfig::default())
        .expect("corrupted capture still reads record-by-record");
    let c1 = Analysis::run(&logs, analysis_cfg(1)).class_counts();
    let c8 = Analysis::run(&logs, analysis_cfg(8)).class_counts();
    assert_eq!(c1, c8, "post-fault class counts must be thread-invariant");
    assert_eq!(
        logs.metrics().render_table(),
        Monitor::process_pcap(&corrupted[..], MonitorConfig::default())
            .expect("parses")
            .metrics()
            .render_table(),
        "post-fault metrics must be reproducible"
    );
}
