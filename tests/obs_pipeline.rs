//! End-to-end counter invariants for the observability layer.
//!
//! Runs the full packet pipeline (simulate → ring → monitor → analysis)
//! with every stage contributing to one merged [`Metrics`] snapshot, then
//! checks the accounting identities that make the counters trustworthy:
//! frames in balance against accepted + rejected, class counts partition
//! the connection population, a clean run carries zero `fault.*` damage,
//! and the snapshot is identical for 1/2/8 worker threads.
//!
//! The pipeline is fed through the in-memory ring `RecordSource` — the
//! zero-serialization path — and one regression pin re-runs it through
//! the classic pcap-bytes file backend and demands the same snapshot.

use dnsctx::ccz_sim::{ScaleKnobs, Simulation, WorkloadConfig};
use dnsctx::dns_context::{Analysis, AnalysisConfig};
use dnsctx::xkit::obs::Metrics;
use dnsctx::pcapio::{self, Backpressure, RecordSource};
use dnsctx::xkit::fault::{FaultConfig, FaultInjector, RawFrame};
use dnsctx::xkit::rng::StdRng;
use dnsctx::zeek_lite::{Monitor, MonitorConfig, Timestamp};

/// 30 houses spans two simulation shards (25 houses per shard), so the
/// thread-invariance checks exercise a real multi-shard merge.
fn small_cfg() -> WorkloadConfig {
    WorkloadConfig {
        scale: ScaleKnobs { houses: 30, days: 0.05, activity: 1.0 },
        services: 300,
        shared_services: 40,
    }
}

/// The whole packet pipeline, instrumented: simulator frames cross an
/// in-memory ring into the monitor, and every stage's counters merge
/// into the returned snapshot.
fn pipeline_metrics(threads: usize) -> Metrics {
    let sim = Simulation::new(small_cfg(), 9).unwrap().with_threads(threads);
    let (mut tx, mut rx) = pcapio::ring::channel(1 << 18, 65_535, Backpressure::Block);
    let producer = std::thread::spawn(move || {
        let (_truth, _frames, m) = sim.run_ring(&mut tx);
        m
    });

    let mut monitor = Monitor::new(MonitorConfig::default());
    while let Some(record) = rx.next().unwrap() {
        monitor.handle_frame(Timestamp(record.ts_nanos), record.data, record.orig_len);
    }
    let mut m = producer.join().unwrap();
    m.merge(&rx.metrics());
    let logs = monitor.finish();
    m.merge(&logs.metrics());

    let mut acfg = AnalysisConfig::default();
    acfg.threads = threads;
    m.merge(&Analysis::run(&logs, acfg).metrics());
    m
}

/// The same pipeline over the serialized file backend (pcap bytes in
/// memory, pulled through the seam's file source).
fn file_pipeline_metrics(threads: usize) -> Metrics {
    let sim = Simulation::new(small_cfg(), 9).unwrap().with_threads(threads);
    let mut pcap = Vec::new();
    let (_truth, _frames, mut m) = sim.run_pcap_observed(&mut pcap, 65_535).unwrap();

    let mut source = pcapio::source::file(&pcap[..]).unwrap();
    let mut monitor = Monitor::new(MonitorConfig::default());
    while let Some(record) = source.next().unwrap() {
        monitor.handle_frame(Timestamp(record.ts_nanos), record.data, record.orig_len);
    }
    m.merge(&source.metrics());
    let logs = monitor.finish();
    m.merge(&logs.metrics());

    let mut acfg = AnalysisConfig::default();
    acfg.threads = threads;
    m.merge(&Analysis::run(&logs, acfg).metrics());
    m
}

#[test]
fn frame_accounting_balances() {
    let m = pipeline_metrics(1);
    // Every frame the ring delivered reached the monitor...
    assert!(m.counter("capture.frames_read") > 1_000);
    assert_eq!(m.counter("capture.frames_read"), m.counter("zeek.frames_seen"));
    assert_eq!(m.counter("capture.frames_rejected"), 0);
    // ...and the ring shed nothing: what the simulator offered is what
    // the reader consumed.
    assert_eq!(m.counter("sim.frames_written"), m.counter("capture.frames_read"));
    // ...and each one was either accepted or rejected for a counted reason.
    assert_eq!(
        m.counter("zeek.frames_seen"),
        m.counter("zeek.frames_accepted") + m.sum_counters("zeek.reject.")
    );
    // Same identity one layer up, for DNS payloads.
    assert_eq!(
        m.counter("zeek.dns_payloads"),
        m.counter("zeek.dns_accepted") + m.sum_counters("zeek.reject_dns.")
    );
}

#[test]
fn class_counts_partition_connections() {
    let m = pipeline_metrics(1);
    let total = m.sum_counters("class.");
    assert!(total > 0);
    assert_eq!(total, m.counter("pair.app_conns"));
    assert_eq!(total, m.counter("cover.app_conns"));
    // Pairing outcomes partition the same population.
    assert_eq!(
        m.counter("pair.hit") + m.counter("pair.fallback") + m.counter("pair.miss"),
        total
    );
    // Paired (hit or fallback) is what coverage reports as paired.
    assert_eq!(m.counter("pair.hit") + m.counter("pair.fallback"), m.counter("cover.paired"));
}

#[test]
fn clean_run_has_zero_fault_increments() {
    // The clean pipeline never constructs an injector: no `fault.*`
    // metric exists at all, so the damage sum is exactly zero.
    let m = pipeline_metrics(1);
    assert_eq!(m.sum_counters("fault."), 0);

    // And a rate-0 injector, if one IS constructed, passes frames through
    // untouched: `fault.io.*` counts traffic, every damage counter stays 0.
    let mut inj = FaultInjector::new(FaultConfig::uniform(0.0), StdRng::seed_from_u64(1));
    for i in 0..100u64 {
        let out = inj.apply(RawFrame { ts_nanos: i, orig_len: 64, data: vec![0xAB; 64] });
        assert_eq!(out.len(), 1);
    }
    inj.flush();
    let fm = inj.stats().to_metrics();
    assert_eq!(fm.counter("fault.io.frames_in"), 100);
    assert_eq!(fm.counter("fault.io.frames_out"), 100);
    for damage in ["dropped", "truncated", "bit_flipped", "duplicated", "reordered"] {
        assert_eq!(fm.counter(&format!("fault.{damage}")), 0, "{damage} on a rate-0 injector");
    }
}

#[test]
fn snapshot_identical_across_thread_counts() {
    let a = pipeline_metrics(1);
    let b = pipeline_metrics(2);
    let c = pipeline_metrics(8);
    assert_eq!(a.to_json(), b.to_json(), "1 vs 2 threads");
    assert_eq!(a.to_json(), c.to_json(), "1 vs 8 threads");
}

/// Regression pin for the ingestion seam: swapping the ring for the
/// serialized pcap file path may not move a single counter.
#[test]
fn snapshot_identical_across_backends() {
    assert_eq!(
        pipeline_metrics(1).to_json(),
        file_pipeline_metrics(1).to_json(),
        "ring vs file backend"
    );
}

#[test]
fn study_metrics_facade_agrees_with_views() {
    let study = dnsctx::pipeline::quick_study(4, 0.2, 7);
    let mut m = study.sim.metrics.clone();
    m.merge(&study.sim.logs.metrics());
    m.merge(&study.analysis().metrics());
    assert_eq!(m.counter("sim.conns"), study.sim.truth.conns.len() as u64);
    assert_eq!(m.counter("zeek.conn_rows"), study.logs().conns.len() as u64);
    assert_eq!(m.sum_counters("class."), study.analysis().class_counts().total() as u64);
}
