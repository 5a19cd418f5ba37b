//! The three single-process workloads: `batch-week`, `pcap-batch` and
//! `pcap-stream-w30`. (`serve-ring` has its own module.)

use crate::harness::{span_median_s, standalone, Workload, REP_ROOT};
use crate::layers::{
    analysis_cfg, collect_frames, columns_pass, drive_monitor, drive_stream, monitor_layers,
    obs_passes, pcap_read_pass, stage, stream_layers, wire_passes, MemSource, MONITOR_PASS,
    REPLAY_SWEEP, SNAPLEN,
};
use crate::metrics::Layers;
use dnsctx::cache_sim::{self, CacheReplay};
use dnsctx::ccz_sim::{scenarios, Simulation};
use dnsctx::dns_context::classify::{classify_parallel, resolver_thresholds};
use dnsctx::dns_context::{stream, Analysis, ClassCounts, Pairing};
use dnsctx::pcapio;
use dnsctx::zeek_lite::{Duration, Logs, Monitor, MonitorConfig};
use std::hint::black_box;
use xkit::bench::alloc;
use xkit::obs::{Metrics, ObsHub, SpanLog};

/// The paper's floor below which the refresh policy leaves entries alone.
const REFRESH_MIN_TTL: Duration = Duration::from_secs(10);

/// What the batch analysis hands to the output checks.
pub struct AnalysisOut {
    hit: u64,
    fallback: u64,
    miss: u64,
    app_conns: u64,
    classes: ClassCounts,
}

/// The batch kernel as every batch user runs it: `Analysis::run`, then
/// `perf()` and `metrics()`. `then` runs while the analysis is alive.
/// Returns the summary and the allocation events of `Analysis::run`.
fn analyse<T>(
    spans: &mut Option<&mut SpanLog>,
    logs: &Logs,
    then: impl FnOnce(&mut Option<&mut SpanLog>, &Analysis<'_>) -> T,
) -> (AnalysisOut, u64, T) {
    let allocs_before = alloc::snapshot().allocs;
    let analysis = stage(spans, "dns-context.analysis_run", || {
        Analysis::run(logs, analysis_cfg())
    });
    let run_allocs = alloc::snapshot().allocs - allocs_before;
    stage(spans, "dns-context.perf", || {
        black_box(analysis.perf().blocked.len())
    });
    let metrics = stage(spans, "dns-context.metrics", || analysis.metrics());
    let extra = then(spans, &analysis);
    let out = AnalysisOut {
        hit: metrics.counter("pair.hit"),
        fallback: metrics.counter("pair.fallback"),
        miss: metrics.counter("pair.miss"),
        app_conns: metrics.counter("pair.app_conns"),
        classes: analysis.class_counts(),
    };
    stage(spans, "teardown", || drop((analysis, metrics)));
    (out, run_allocs, extra)
}

/// `dns-context.*` batch-kernel layers: the public calls from the traced
/// repetitions' spans, and standalone passes over the stages
/// `Analysis::run` calls inside.
fn analysis_layers(spans: &mut SpanLog, logs: &Logs, run_allocs: u64, out: &mut Layers) {
    let cfg = analysis_cfg();
    out.set(
        "dns-context.analysis_run_s",
        span_median_s(spans, REP_ROOT, "dns-context.analysis_run"),
    );
    out.set(
        "dns-context.perf_s",
        span_median_s(spans, REP_ROOT, "dns-context.perf"),
    );
    out.set(
        "dns-context.metrics_s",
        span_median_s(spans, REP_ROOT, "dns-context.metrics"),
    );
    out.set("dns-context.analysis_allocs", run_allocs as f64);

    columns_pass(spans, logs, out);
    let (pair_s, pairing) = standalone(spans, "standalone.dns-context.pair", |_| {
        Pairing::build(&logs.conns, &logs.dns, cfg.policy)
    });
    let pair = pairing.metrics();
    let app_conns = pair.counter("pair.app_conns") as f64;
    out.set("dns-context.pair_s", pair_s);
    out.set("dns-context.pair_conns_per_s", app_conns / pair_s);
    out.set(
        "dns-context.pair_hit_share",
        pair.counter("pair.hit") as f64 / app_conns,
    );
    out.set(
        "dns-context.pair_fallback_share",
        pair.counter("pair.fallback") as f64 / app_conns,
    );

    let dns_cols = logs.dns_columns();
    let (thresholds_s, thresholds) = standalone(spans, "standalone.dns-context.thresholds", |_| {
        resolver_thresholds(&dns_cols, cfg.threshold_rule)
    });
    out.set("dns-context.thresholds_s", thresholds_s);
    let floor = Duration::from_secs_f64(cfg.threshold_rule.floor_ms / 1e3);
    let (classify_s, _) = standalone(spans, "standalone.dns-context.classify", |_| {
        classify_parallel(
            cfg.threads,
            &dns_cols,
            &pairing,
            cfg.block_threshold,
            &thresholds,
            floor,
        )
    });
    out.set("dns-context.classify_s", classify_s);
}

/// `ccz-sim.*` for a workload whose set-up is one simulator call: its
/// time is `setup_s`; one more build counts its allocations.
fn sim_layers(
    time_metric: &'static str,
    setup_s: f64,
    records: u64,
    build: impl FnOnce(),
    out: &mut Layers,
) {
    let ((), allocs) = alloc::measure(build);
    out.set(time_metric, setup_s);
    out.set(
        "ccz-sim.allocs_per_kframe",
        allocs.allocs as f64 * 1e3 / records as f64,
    );
}

// ---------------------------------------------------------------------
// batch-week
// ---------------------------------------------------------------------

/// `Simulation::run()` logs at paper scale through the batch analysis
/// and the two cache simulations. Record = log row, conn.log and dns.log
/// together: the analysis allocates per dns row and holds bytes per row
/// of either log, so per-row figures move half as much from one trace to
/// the next as per-connection ones.
pub struct BatchWeek {
    seed: u64,
    logs: Logs,
    first_classes: Option<ClassCounts>,
    run_allocs: u64,
}

fn paper_week_logs(seed: u64) -> Logs {
    Simulation::new(scenarios::paper_week(0.1), seed)
        .expect("valid scenario")
        .run()
        .logs
}

impl BatchWeek {
    fn run(&mut self, mut spans: Option<&mut SpanLog>) -> AnalysisOut {
        let logs = &self.logs;
        let (out, run_allocs, ()) = analyse(&mut spans, logs, |spans, analysis| {
            stage(spans, "cache-sim.whole_house", || {
                black_box(cache_sim::whole_house(logs, analysis))
            });
            stage(spans, "cache-sim.refresh", || {
                black_box(cache_sim::refresh(logs, analysis, REFRESH_MIN_TTL));
            });
        });
        self.run_allocs = run_allocs;
        out
    }
}

impl Workload for BatchWeek {
    const NAME: &'static str = "batch-week";
    type Input = Logs;
    type Output = AnalysisOut;

    fn build_input(seed: u64) -> Logs {
        paper_week_logs(seed)
    }

    fn prepare(seed: u64, logs: Logs) -> BatchWeek {
        BatchWeek {
            seed,
            logs,
            first_classes: None,
            run_allocs: 0,
        }
    }

    fn records(&self) -> u64 {
        (self.logs.conns.len() + self.logs.dns.len()) as u64
    }

    fn input_bytes(&self) -> u64 {
        (std::mem::size_of_val(&self.logs.conns[..]) + std::mem::size_of_val(&self.logs.dns[..]))
            as u64
    }

    fn rep(&mut self) -> AnalysisOut {
        self.run(None)
    }

    fn check(&mut self, out: AnalysisOut) -> bool {
        let first = *self.first_classes.get_or_insert(out.classes);
        out.app_conns > 0
            && out.hit + out.fallback + out.miss == out.app_conns
            && out.classes == first
    }

    fn traced_rep(&mut self, spans: &mut SpanLog) -> AnalysisOut {
        self.run(Some(spans))
    }

    fn layers(&mut self, spans: &mut SpanLog, setup_s: f64, out: &mut Layers) {
        let seed = self.seed;
        sim_layers(
            "ccz-sim.run_s",
            setup_s,
            self.records(),
            || drop(paper_week_logs(seed)),
            out,
        );
        analysis_layers(spans, &self.logs, self.run_allocs, out);
        out.set(
            "cache-sim.whole_house_s",
            span_median_s(spans, REP_ROOT, "cache-sim.whole_house"),
        );
        out.set(
            "cache-sim.refresh_s",
            span_median_s(spans, REP_ROOT, "cache-sim.refresh"),
        );
    }
}

// ---------------------------------------------------------------------
// the shared capture
// ---------------------------------------------------------------------

/// The in-memory pcap both pcap workloads read: 50 houses, half a day,
/// activity 0.3, nothing truncated.
pub struct Capture {
    bytes: Vec<u8>,
    frames: u64,
}

impl Capture {
    fn build(seed: u64) -> Capture {
        let mut bytes = Vec::new();
        let (_truth, frames) = bench::sim(50, 0.5, 0.3, seed)
            .run_pcap(&mut bytes, SNAPLEN)
            .expect("in-memory pcap");
        Capture { bytes, frames }
    }

    fn source(&self) -> pcapio::PcapReader<&[u8]> {
        pcapio::source::file(&self.bytes[..]).expect("pcap header")
    }

    /// `ccz-sim.*`, `pcapio.read_*`, `netpkt.*`, `dns-wire.*`; returns
    /// the frames and the read, parse and decode times.
    fn layers(&self, seed: u64, spans: &mut SpanLog, setup_s: f64, out: &mut Layers) -> [f64; 3] {
        sim_layers(
            "ccz-sim.run_pcap_s",
            setup_s,
            self.frames,
            || drop(Capture::build(seed)),
            out,
        );
        out.set("ccz-sim.frames", self.frames as f64);
        let read_s = pcap_read_pass(spans, &self.bytes, out);
        let frames = collect_frames(&mut self.source());
        let [parse_s, decode_s] = wire_passes(spans, &frames, out);
        [read_s, parse_s, decode_s]
    }
}

// ---------------------------------------------------------------------
// pcap-batch
// ---------------------------------------------------------------------

/// The capture through `Monitor::process_source`, then the batch
/// analysis. Record = frame.
pub struct PcapBatch {
    seed: u64,
    capture: Capture,
    /// Logs and monitor-stage allocations of the last traced repetition.
    monitored: (Logs, u64),
    run_allocs: u64,
}

pub struct PcapBatchOut {
    frames_read: u64,
    analysis: AnalysisOut,
}

impl Workload for PcapBatch {
    const NAME: &'static str = "pcap-batch";
    type Input = Capture;
    type Output = PcapBatchOut;

    fn build_input(seed: u64) -> Capture {
        Capture::build(seed)
    }

    fn prepare(seed: u64, capture: Capture) -> PcapBatch {
        PcapBatch {
            seed,
            capture,
            monitored: (Logs::default(), 0),
            run_allocs: 0,
        }
    }

    fn records(&self) -> u64 {
        self.capture.frames
    }

    fn input_bytes(&self) -> u64 {
        self.capture.bytes.len() as u64
    }

    fn rep(&mut self) -> PcapBatchOut {
        let mut source = self.capture.source();
        let logs =
            Monitor::process_source(&mut source, MonitorConfig::default()).expect("monitor run");
        let (analysis, _, ()) = analyse(&mut None, &logs, |_, _| ());
        PcapBatchOut {
            frames_read: source.metrics().counter("capture.frames_read"),
            analysis,
        }
    }

    fn check(&mut self, out: PcapBatchOut) -> bool {
        let a = &out.analysis;
        out.frames_read == self.capture.frames
            && a.app_conns > 0
            && a.classes.total() as u64 == a.app_conns
    }

    fn traced_rep(&mut self, spans: &mut SpanLog) -> PcapBatchOut {
        let mut source = self.capture.source();
        let monitored = drive_monitor(spans, &mut source);
        let (analysis, run_allocs, ()) = analyse(&mut Some(&mut *spans), &monitored.0, |_, _| ());
        self.run_allocs = run_allocs;
        spans.scope("teardown", |_| self.monitored = monitored);
        PcapBatchOut {
            frames_read: source.metrics().counter("capture.frames_read"),
            analysis,
        }
    }

    fn layers(&mut self, spans: &mut SpanLog, setup_s: f64, out: &mut Layers) {
        let inner_s = self.capture.layers(self.seed, spans, setup_s, out);
        let (logs, allocs) = &self.monitored;
        let rows = [logs.conns.len(), logs.dns.len()];
        monitor_layers(
            spans,
            REP_ROOT,
            self.capture.frames,
            rows,
            *allocs,
            &inner_s,
            out,
        );
        analysis_layers(spans, &self.monitored.0, self.run_allocs, out);
    }
}

// ---------------------------------------------------------------------
// pcap-stream-w30
// ---------------------------------------------------------------------

/// The same bytes through the stream engine at a 30 s window, with an
/// `ObsHub` attached and a `CacheReplay` sink — the `repro stream` /
/// `ingest --source file` path. Record = frame.
pub struct PcapStream {
    seed: u64,
    capture: Capture,
    hub: ObsHub,
    /// `analysis_metrics` JSON of the batch pipeline on the same bytes.
    reference_json: String,
    /// Result and replay of the last traced repetition.
    last_drive: Vec<(stream::StreamResult, CacheReplay)>,
}

const WINDOW: Duration = Duration::from_secs(30);

impl PcapStream {
    /// One whole run as the CLI makes it; `hub` off and `window` 0 are
    /// the two standalone comparisons.
    fn run(&self, window: Duration, hub: Option<&ObsHub>) -> Metrics {
        let mut source = self.capture.source();
        let mut replay = CacheReplay::new(REPLAY_SWEEP);
        let result = stream::process_source_observed(
            &mut source,
            window,
            MonitorConfig::default(),
            analysis_cfg(),
            hub,
            |released| {
                for txn in &released.dns {
                    replay.offer(txn);
                }
            },
        )
        .expect("stream run");
        for txn in &result.tail.dns {
            replay.offer(txn);
        }
        black_box(replay.hits());
        result.analysis_metrics
    }
}

impl Workload for PcapStream {
    const NAME: &'static str = "pcap-stream-w30";
    type Input = Capture;
    type Output = Metrics;

    fn build_input(seed: u64) -> Capture {
        Capture::build(seed)
    }

    fn prepare(seed: u64, capture: Capture) -> PcapStream {
        let logs = Monitor::process_source(&mut capture.source(), MonitorConfig::default())
            .expect("reference monitor run");
        let mut reference = logs.metrics();
        reference.merge(&Analysis::run(&logs, analysis_cfg()).metrics());
        PcapStream {
            seed,
            capture,
            hub: ObsHub::default(),
            reference_json: reference.to_json(),
            last_drive: Vec::new(),
        }
    }

    fn records(&self) -> u64 {
        self.capture.frames
    }

    fn input_bytes(&self) -> u64 {
        self.capture.bytes.len() as u64
    }

    fn rep(&mut self) -> Metrics {
        self.run(WINDOW, Some(&self.hub))
    }

    fn check(&mut self, analysis_metrics: Metrics) -> bool {
        analysis_metrics.to_json() == self.reference_json
    }

    fn traced_rep(&mut self, spans: &mut SpanLog) -> Metrics {
        let drive = drive_stream(spans, &mut self.capture.source(), WINDOW, Some(&self.hub));
        let analysis_metrics = drive.0.analysis_metrics.clone();
        spans.scope("teardown", |_| self.last_drive = vec![drive]);
        analysis_metrics
    }

    fn layers(&mut self, spans: &mut SpanLog, setup_s: f64, out: &mut Layers) {
        let [_, parse_s, decode_s] = self.capture.layers(self.seed, spans, setup_s, out);
        stream_layers(spans, REP_ROOT, &self.last_drive, out);

        // The monitor inside the engine, measured apart on the same
        // frames (from memory: the engine's share of the pcap read is in
        // `pcapio.read_s`).
        let frames = collect_frames(&mut self.capture.source());
        let (_, (logs, allocs)) = standalone(spans, MONITOR_PASS, |spans| {
            drive_monitor(spans, &mut MemSource::new(&frames))
        });
        let rows = [logs.conns.len(), logs.dns.len()];
        monitor_layers(
            spans,
            MONITOR_PASS,
            self.capture.frames,
            rows,
            allocs,
            &[parse_s, decode_s],
            out,
        );

        let (w0_s, _) = standalone(spans, "standalone.stream.w0", |_| {
            self.run(Duration::ZERO, Some(&self.hub))
        });
        out.set("dns-context.stream.w0_s", w0_s);
        let (nohub_s, _) = standalone(spans, "standalone.stream.nohub", |_| self.run(WINDOW, None));
        out.set("dns-context.stream.nohub_s", nohub_s);
        if let Some((result, _)) = self.last_drive.last() {
            obs_passes(&result.settled_metrics(), out);
        }
    }
}
