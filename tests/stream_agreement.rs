//! Streamed vs batch agreement: the bounded-memory epoch pipeline must be
//! indistinguishable from the batch pipeline — byte-identical rendered
//! logs, identical classification counts, and an identical metrics
//! snapshot — for every window size and thread count, while holding
//! strictly less state than the batch path for any finite window.

use dnsctx::ccz_sim::{ScaleKnobs, Simulation, WorkloadConfig};
use dnsctx::dns_context::{stream, Analysis, AnalysisConfig};
use dnsctx::zeek_lite::{logfmt, Duration, Logs, Monitor, MonitorConfig};

fn small_cfg() -> WorkloadConfig {
    WorkloadConfig {
        scale: ScaleKnobs { houses: 4, days: 0.03, activity: 1.0 },
        services: 200,
        shared_services: 30,
    }
}

fn analysis_cfg(threads: usize) -> AnalysisConfig {
    let mut cfg = AnalysisConfig::default();
    cfg.threshold_rule.min_lookups = 50;
    cfg.threads = threads;
    cfg
}

fn render_logs(logs: &Logs) -> Vec<u8> {
    let mut buf = Vec::new();
    logfmt::write_conn_log(&mut buf, &logs.conns).unwrap();
    logfmt::write_dns_log(&mut buf, &logs.names, &logs.dns).unwrap();
    buf
}

/// One capture, its batch pipeline, and the batch snapshot that every
/// streamed run must reproduce.
struct Batch {
    pcap: Vec<u8>,
    rendered: Vec<u8>,
    metrics_json: String,
    class_counts: dnsctx::dns_context::ClassCounts,
    conn_rows: u64,
    dns_rows: u64,
}

fn batch_oracle() -> Batch {
    batch_of(small_cfg(), 42)
}

fn batch_of(workload: WorkloadConfig, seed: u64) -> Batch {
    let sim = Simulation::new(workload, seed).unwrap();
    let mut pcap = Vec::new();
    sim.run_pcap(&mut pcap, 600).unwrap();
    let logs = Monitor::process_pcap(&pcap[..], MonitorConfig::default()).unwrap();
    let analysis = Analysis::run(&logs, analysis_cfg(1));
    let mut metrics = logs.metrics();
    metrics.merge(&analysis.metrics());
    Batch {
        rendered: render_logs(&logs),
        metrics_json: metrics.to_json(),
        class_counts: analysis.class_counts(),
        conn_rows: logs.conns.len() as u64,
        dns_rows: logs.dns.len() as u64,
        pcap,
    }
}

/// Run the streaming engine over the capture, concatenating the per-epoch
/// releases *in release order* — no re-sort — into one `Logs`.
fn streamed(batch: &Batch, window: Duration, threads: usize) -> (Logs, stream::StreamResult) {
    let mut out = Logs::default();
    let result = stream::process_source_observed(
        &mut dnsctx::pcapio::source::file(&batch.pcap[..]).expect("pcap header"),
        window,
        MonitorConfig::default(),
        analysis_cfg(threads),
        None,
        |epoch| {
            out.conns.extend(epoch.conns.iter().cloned());
            out.dns.extend(epoch.dns.iter().cloned());
        },
    )
    .unwrap();
    out.conns.extend(result.tail.conns.iter().cloned());
    out.dns.extend(result.tail.dns.iter().cloned());
    // Every release named its rows in the one table the run hands over.
    out.names = result.names.clone();
    (out, result)
}

/// Stream `batch`'s capture at `window` on `threads` and require the
/// batch pipeline's logs, classes and snapshot, byte for byte.
fn assert_agrees(
    batch: &Batch,
    window_secs: u64,
    threads: usize,
    what: &str,
) -> stream::StreamResult {
    let (logs, result) = streamed(batch, Duration::from_secs(window_secs), threads);

    // The concatenated releases ARE the batch-sorted logs: same rows,
    // same order, byte for byte — without ever re-sorting.
    assert_eq!(
        render_logs(&logs),
        batch.rendered,
        "rendered logs diverged at window={window_secs}s threads={threads} ({what})"
    );

    // Table 2 and the whole metrics snapshot agree exactly.
    assert_eq!(
        result.class_counts, batch.class_counts,
        "class counts diverged at window={window_secs}s threads={threads} ({what})"
    );
    assert_eq!(
        result.analysis_metrics.to_json(),
        batch.metrics_json,
        "metrics snapshot diverged at window={window_secs}s threads={threads} ({what})"
    );
    result
}

#[test]
fn streamed_output_is_byte_identical_to_batch() {
    let batch = batch_oracle();
    assert!(batch.conn_rows > 100 && batch.dns_rows > 100, "workload too small to be probative");

    for window_secs in [30u64, 300, 0] {
        for threads in [1usize, 8] {
            assert_agrees(&batch, window_secs, threads, "seed 42");
        }
    }
}

/// The same agreement over eight smaller worlds than seed 42's, at a 1 s
/// window (a cut every second, so the index is pruned between almost
/// every pair of lookups of a key), 30 s and one epoch: what is evicted,
/// and when, differs from seed to seed, and the output must not.
#[test]
fn streamed_output_is_byte_identical_to_batch_over_seeds() {
    let workload = WorkloadConfig {
        scale: ScaleKnobs { houses: 3, days: 0.03, activity: 1.0 },
        ..small_cfg()
    };
    let mut evicted = 0u64;
    for seed in 1..=8u64 {
        let batch = batch_of(workload.clone(), seed);
        let size = (batch.conn_rows, batch.dns_rows);
        assert!(size.0 > 100 && size.1 > 50, "seed {seed}: {size:?} rows, too few to be probative");
        for window_secs in [1u64, 30, 0] {
            let result = assert_agrees(&batch, window_secs, 1, &format!("seed {seed}"));
            evicted += result.stream_metrics.counter("stream.evicted_answers");
        }
    }
    assert!(evicted > 500, "worlds too tame to exercise eviction: {evicted} drops");
}

#[test]
fn finite_windows_bound_live_state() {
    let batch = batch_oracle();
    for window_secs in [30u64, 300] {
        let (_, result) = streamed(&batch, Duration::from_secs(window_secs), 1);
        let s = &result.stream_metrics;
        let peak_flows = s.gauge("stream.peak_live_flows").unwrap_or(f64::MAX) as u64;
        let peak_answers = s.gauge("stream.peak_live_answers").unwrap_or(f64::MAX) as u64;
        assert!(
            peak_flows < batch.conn_rows,
            "window={window_secs}s: peak live flows {peak_flows} not below {} rows",
            batch.conn_rows
        );
        assert!(
            peak_answers < batch.dns_rows,
            "window={window_secs}s: peak live answers {peak_answers} not below {} rows",
            batch.dns_rows
        );
        assert!(s.counter("stream.epochs") > 1, "finite window must produce multiple epochs");
        assert!(
            s.counter("stream.evicted_answers") > 0,
            "finite window must actually evict expired answers"
        );
    }

    // The unwindowed run is the degenerate case: one epoch, no eviction,
    // everything released at finish.
    let (_, result) = streamed(&batch, Duration::from_secs(0), 1);
    assert_eq!(result.stream_metrics.counter("stream.epochs"), 1);
    assert_eq!(result.stream_metrics.counter("stream.evicted_flows"), 0);
}

/// The eviction schedule on the seed-42 capture, as the rule applied to
/// every key at every boundary gives it: what is dropped, and when, is
/// part of the engine's contract, so a lazier or more eager policy shows
/// up here even though the analysis agrees.
#[test]
fn eviction_schedule_is_pinned() {
    let batch = batch_oracle();
    // (window s, epochs, evicted answers, evicted flows, peak flows, peak answers)
    for (window_secs, epochs, evicted_answers, evicted_flows, peak_flows, peak_answers) in
        [(30u64, 83u64, 81u64, 561u64, 223.0, 127.0), (300, 9, 81, 561, 240.0, 131.0)]
    {
        let (_, result) = streamed(&batch, Duration::from_secs(window_secs), 1);
        let s = &result.stream_metrics;
        let got = (
            s.counter("stream.epochs"),
            s.counter("stream.evicted_answers"),
            s.counter("stream.evicted_flows"),
            s.gauge("stream.peak_live_flows"),
            s.gauge("stream.peak_live_answers"),
        );
        assert_eq!(
            got,
            (epochs, evicted_answers, evicted_flows, Some(peak_flows), Some(peak_answers)),
            "window={window_secs}s"
        );
    }
}
