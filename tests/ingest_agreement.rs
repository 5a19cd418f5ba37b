//! Ingest agreement suite.
//!
//! The monitor now pulls frames through the `pcapio::RecordSource` seam,
//! and the simulator can feed it three ways: a rendered pcap byte stream
//! (file backend), the in-memory SPSC ring (no serialization round
//! trip), or a live `AF_PACKET` socket. The first two must be
//! indistinguishable downstream — this suite pins that the raw record
//! stream, the rendered (sorted) logs, the class counts, and the metrics
//! snapshots are byte-identical for file vs ring, across worker threads
//! {1, 8} × epoch windows {30 s, ∞}, mirroring `zero_copy_agreement`.

use dnsctx::ccz_sim::{ScaleKnobs, Simulation, WorkloadConfig};
use dnsctx::dns_context::{stream, Analysis, AnalysisConfig};
use dnsctx::pcapio::{self, Backpressure, RecordSource, RingSource};
use dnsctx::zeek_lite::{logfmt, Duration, Logs, Monitor, MonitorConfig};

const SEED: u64 = 1303;
const SNAPLEN: u32 = 65_535;

/// Seeds of the record-stream and capacity checks, each on a
/// [`small_workload`] world.
const SEEDS: std::ops::RangeInclusive<u64> = 1..=8;

/// Ring capacities of the same checks: 512 B and 4 KiB force edge wraps,
/// partial batches and parks on either side; `1 << 18` is the serve
/// daemon's ring; 5 003 bytes is not a multiple of 8, so no batch limit
/// or frame boundary lines up with the edge.
const CAPACITIES: [usize; 4] = [512, 4096, 1 << 18, 5_003];

/// Small-but-busy workload, at integration-test scale: the file door
/// holds whole captures in memory (same shape as the zero-copy agreement
/// suite).
fn workload() -> WorkloadConfig {
    WorkloadConfig {
        scale: ScaleKnobs { houses: 12, days: 0.25, activity: 0.5 },
        ..WorkloadConfig::default()
    }
}

/// A world small enough to run at every seed and capacity.
fn small_workload() -> WorkloadConfig {
    WorkloadConfig {
        scale: ScaleKnobs { houses: 4, days: 0.05, activity: 0.5 },
        ..WorkloadConfig::default()
    }
}

/// Render a world to pcap bytes — the file backend's input.
fn capture_bytes(config: WorkloadConfig, seed: u64) -> Vec<u8> {
    let sim = Simulation::new(config, seed).expect("valid config");
    let mut bytes = Vec::new();
    let (_, frames) = sim.run_pcap(&mut bytes, SNAPLEN).expect("in-memory pcap");
    assert!(frames > 0, "workload must produce traffic");
    bytes
}

/// Feed a world into a fresh ring from a producer thread and
/// hand back the consumer end. The join handle resolves to
/// `(offered, produced, dropped)` from the sink side once the producer
/// is done; dropping the sink inside the thread closes the ring, so a
/// full drain on `rx` terminates with EOF.
fn ring_source(
    config: WorkloadConfig,
    seed: u64,
    capacity: usize,
) -> (RingSource, std::thread::JoinHandle<(u64, u64, u64)>) {
    let sim = Simulation::new(config, seed).expect("valid config");
    let (mut tx, rx) = pcapio::ring::channel(capacity, SNAPLEN, Backpressure::Block);
    let producer = std::thread::spawn(move || {
        let (_, offered, _) = sim.run_ring(&mut tx);
        (offered, tx.produced(), tx.dropped())
    });
    (rx, producer)
}

/// Canonical byte form of both logs (Zeek-style TSV, sorted by the
/// monitor's own ordering guarantees).
fn render_logs(logs: &Logs) -> Vec<u8> {
    let mut buf = Vec::new();
    logfmt::write_conn_log(&mut buf, &logs.conns).expect("in-memory write");
    logfmt::write_dns_log(&mut buf, &logs.names, &logs.dns).expect("in-memory write");
    buf
}

fn analysis_cfg(threads: usize) -> AnalysisConfig {
    AnalysisConfig { threads, ..AnalysisConfig::default() }
}

/// Drain any source into owned `(ts, orig_len, payload)` triples.
fn drain<S: RecordSource + ?Sized>(source: &mut S) -> Vec<(u64, u32, Vec<u8>)> {
    let mut out = Vec::new();
    while let Some(rec) = source.next().expect("record") {
        out.push((rec.ts_nanos, rec.orig_len, rec.data.to_owned()));
    }
    out
}

#[test]
fn record_streams_are_identical_file_vs_ring() {
    for seed in SEEDS {
        let bytes = capture_bytes(small_workload(), seed);
        let mut file = pcapio::source::file(&bytes[..]).expect("pcap header");
        let from_file = drain(&mut file);
        assert!(!from_file.is_empty(), "seed {seed}: the world must produce traffic");
        // Block policy means no capacity is observable: the small rings
        // wrap constantly and split frames at the buffer edge.
        for capacity in CAPACITIES {
            let (mut ring, producer) = ring_source(small_workload(), seed, capacity);
            assert_eq!(file.header(), ring.header(), "both backends advertise the same header");

            let from_ring = drain(&mut ring);
            let (offered, produced, dropped) = producer.join().expect("producer thread");

            assert!(
                from_file == from_ring,
                "seed {seed}, capacity {capacity}: record streams must be identical"
            );
            assert_eq!(dropped, 0, "seed {seed}, capacity {capacity}: Block policy must not drop");
            assert_eq!(offered, produced, "every offered record is accounted as produced");
            assert_eq!(produced, ring.consumed(), "full drain consumes everything produced");

            // The capture metrics are part of the contract: same counter
            // names, same values, rendered identically.
            assert_eq!(
                file.metrics().to_json(),
                ring.metrics().to_json(),
                "seed {seed}, capacity {capacity}: capture.* metrics must be byte-identical"
            );
        }
    }
}

#[test]
fn batch_monitor_agrees_file_vs_ring() {
    let bytes = capture_bytes(workload(), SEED);
    let batch = Monitor::process_pcap(&bytes[..], MonitorConfig::default())
        .expect("clean capture parses");

    let (mut ring, producer) = ring_source(workload(), SEED, 1 << 16);
    let ring_logs =
        Monitor::process_source(&mut ring, MonitorConfig::default()).expect("ring run");
    producer.join().expect("producer thread");

    assert_eq!(
        render_logs(&ring_logs),
        render_logs(&batch),
        "ring-fed monitor logs must equal the file-fed logs"
    );
    assert_eq!(
        ring_logs.metrics().render_table(),
        batch.metrics().render_table(),
        "monitor metrics must be backend-invariant"
    );
    assert_eq!(
        Analysis::run(&ring_logs, analysis_cfg(1)).class_counts(),
        Analysis::run(&batch, analysis_cfg(1)).class_counts(),
        "class counts must be backend-invariant"
    );
}

#[test]
fn stream_agrees_for_all_windows_and_threads() {
    let bytes = capture_bytes(workload(), SEED);
    let batch_logs = Monitor::process_pcap(&bytes[..], MonitorConfig::default())
        .expect("clean capture parses");
    let batch_rendered = render_logs(&batch_logs);
    let batch_counts = Analysis::run(&batch_logs, analysis_cfg(1)).class_counts();

    for window in [Duration::from_secs(30), Duration::ZERO] {
        for threads in [1usize, 8] {
            // File backend through the seam.
            let mut file_released = Logs::default();
            let file_result = stream::process_source_observed(
                &mut pcapio::source::file(&bytes[..]).expect("pcap header"),
                window,
                MonitorConfig::default(),
                analysis_cfg(threads),
                None,
                |epoch| {
                    file_released.conns.extend(epoch.conns.iter().cloned());
                    file_released.dns.extend(epoch.dns.iter().cloned());
                },
            )
            .expect("file stream run");
            file_released.conns.extend(file_result.tail.conns);
            file_released.dns.extend(file_result.tail.dns);
            file_released.names = file_result.names;

            // Ring backend through the same seam.
            let (mut ring, producer) = ring_source(workload(), SEED, 1 << 16);
            let mut ring_released = Logs::default();
            let ring_result = stream::process_source_observed(
                &mut ring,
                window,
                MonitorConfig::default(),
                analysis_cfg(threads),
                None,
                |epoch| {
                    ring_released.conns.extend(epoch.conns.iter().cloned());
                    ring_released.dns.extend(epoch.dns.iter().cloned());
                },
            )
            .expect("ring stream run");
            ring_released.conns.extend(ring_result.tail.conns);
            ring_released.dns.extend(ring_result.tail.dns);
            ring_released.names = ring_result.names;
            producer.join().expect("producer thread");

            let file_rendered = render_logs(&file_released);
            assert_eq!(
                file_rendered, batch_rendered,
                "file stream rows (window {window:?}, threads {threads}) must equal batch"
            );
            assert_eq!(
                render_logs(&ring_released),
                file_rendered,
                "ring stream rows (window {window:?}, threads {threads}) must equal file"
            );
            assert_eq!(
                ring_result.class_counts, file_result.class_counts,
                "class counts (window {window:?}, threads {threads}) must be backend-invariant"
            );
            assert_eq!(ring_result.class_counts, batch_counts);
            assert_eq!(
                ring_result.analysis_metrics.render_table(),
                file_result.analysis_metrics.render_table(),
                "analysis metrics (window {window:?}, threads {threads}) must be backend-invariant"
            );
            assert_eq!(
                ring_result.stream_metrics.render_table(),
                file_result.stream_metrics.render_table(),
                "stream metrics (window {window:?}, threads {threads}) must be backend-invariant"
            );
        }
    }
}

#[test]
fn ring_capacity_does_not_leak_into_results() {
    // The ring's capacity controls scheduling (how often either side
    // parks), never content: one answer per seed, at every capacity.
    for seed in SEEDS {
        let mut rendered = Vec::new();
        for capacity in CAPACITIES {
            let (mut ring, producer) = ring_source(small_workload(), seed, capacity);
            let logs =
                Monitor::process_source(&mut ring, MonitorConfig::default()).expect("ring run");
            let (_, produced, dropped) = producer.join().expect("producer thread");
            assert_eq!(dropped, 0, "seed {seed}, capacity {capacity}: Block policy never drops");
            assert_eq!(
                produced,
                ring.consumed(),
                "seed {seed}, capacity {capacity}: conservation after drain"
            );
            rendered.push(render_logs(&logs));
        }
        for (capacity, logs) in CAPACITIES.iter().zip(&rendered).skip(1) {
            assert!(logs == &rendered[0], "seed {seed}: the {capacity}-byte ring disagrees");
        }
    }
}
