//! Layer-by-layer drives and standalone passes shared by the workloads.
//!
//! Nothing inside the crates is instrumented: a layer that is a public
//! call gets a span around the call, and a leaf layer reachable only
//! inside another call (packet parse and DNS decode inside the monitor)
//! gets a pass of its own over the same frames, whose time is taken out
//! of the parent to give the parent's self time.

use crate::harness::{host, probed, span_median_s, standalone, ANALYSIS_THREADS};
use crate::metrics::Layers;
use crate::stats::{median, percentile_with_ten_beyond, self_time, spans_by_rep};
use dnsctx::cache_sim::CacheReplay;
use dnsctx::dns_context::stream::{StreamEngine, StreamResult};
use dnsctx::dns_context::AnalysisConfig;
use dnsctx::dns_wire::{Message, DNS_PORT};
use dnsctx::netpkt::{Packet, Transport};
use dnsctx::pcapio::{self, PcapError, PcapRecord, RecordRef, RecordSource, SourceHeader};
use dnsctx::zeek_lite::{Duration, Logs, Monitor, MonitorConfig, Timestamp};
use std::hint::black_box;
use xkit::bench::alloc;
use xkit::obs::{Metrics, ObsHub, SpanLog};

/// Snaplen of every capture the benchmark generates: nothing truncated.
pub const SNAPLEN: u32 = 65_535;

/// Sweep interval of the whole-house cache replay, as `repro stream`
/// and the serve daemon set it.
pub const REPLAY_SWEEP: Duration = Duration::from_secs(60);

/// The analysis configuration every workload uses.
pub fn analysis_cfg() -> AnalysisConfig {
    AnalysisConfig {
        threads: ANALYSIS_THREADS,
        ..AnalysisConfig::default()
    }
}

/// Frames already in memory as a `RecordSource`: what a ring tenant's
/// engine reads, without the producer beside it.
pub struct MemSource<'a> {
    frames: std::slice::Iter<'a, PcapRecord>,
    read: u64,
    bytes: u64,
}

impl<'a> MemSource<'a> {
    pub fn new(frames: &'a [PcapRecord]) -> MemSource<'a> {
        MemSource {
            frames: frames.iter(),
            read: 0,
            bytes: 0,
        }
    }
}

impl RecordSource for MemSource<'_> {
    fn header(&self) -> SourceHeader {
        SourceHeader {
            link_type: pcapio::LINKTYPE_ETHERNET,
            snaplen: SNAPLEN,
        }
    }

    fn next(&mut self) -> Result<Option<RecordRef<'_>>, PcapError> {
        Ok(self.frames.next().map(|f| {
            self.read += 1;
            self.bytes += f.data.len() as u64;
            RecordRef {
                ts_nanos: f.ts_nanos,
                orig_len: f.orig_len,
                data: &f.data,
            }
        }))
    }

    fn metrics(&self) -> Metrics {
        let mut m = Metrics::new();
        m.add("capture.frames_read", self.read);
        m.add("capture.bytes_read", self.bytes);
        m.add("capture.frames_rejected", 0);
        m
    }
}

/// Run `f` under a span when tracing, bare otherwise.
pub fn stage<T>(spans: &mut Option<&mut SpanLog>, name: &str, f: impl FnOnce() -> T) -> T {
    match spans {
        Some(spans) => spans.scope(name, |_| f()),
        None => f(),
    }
}

/// Drain a source into owned frames.
pub fn collect_frames<S: RecordSource + ?Sized>(source: &mut S) -> Vec<PcapRecord> {
    let mut frames = Vec::new();
    while let Some(record) = source.next().expect("generated capture reads cleanly") {
        frames.push(record.to_owned());
    }
    frames
}

/// `pcapio.read_*`: pull every record of the capture, nothing downstream.
pub fn pcap_read_pass(spans: &mut SpanLog, pcap: &[u8], out: &mut Layers) -> f64 {
    let (secs, (records, bytes)) = standalone(spans, "standalone.pcapio.read", |_| {
        let mut source = pcapio::source::file(pcap).expect("pcap header");
        let (mut records, mut bytes) = (0u64, 0u64);
        while let Some(record) = source.next().expect("generated capture reads cleanly") {
            records += 1;
            bytes += black_box(record.data).len() as u64;
        }
        (records, bytes)
    });
    out.set("pcapio.read_s", secs);
    out.set("pcapio.read_records_per_s", records as f64 / secs);
    out.set("pcapio.read_bytes_per_s", bytes as f64 / secs);
    secs
}

/// `netpkt.*` and `dns-wire.*`: parse every frame, and decode every
/// port-53 UDP payload, exactly the calls the monitor makes per frame.
/// Returns the two times, for the monitor's self time.
pub fn wire_passes(spans: &mut SpanLog, frames: &[PcapRecord], out: &mut Layers) -> [f64; 2] {
    let (parse_s, rejects) = standalone(spans, "standalone.netpkt.parse", |_| {
        frames
            .iter()
            .filter(|f| Packet::parse(black_box(&f.data), f.orig_len as usize).is_err())
            .count()
    });
    out.set("netpkt.parse_s", parse_s);
    out.set("netpkt.parse_frames_per_s", frames.len() as f64 / parse_s);
    out.set("netpkt.parse_rejects", rejects as f64);

    let payloads: Vec<&[u8]> = frames
        .iter()
        .filter_map(|f| match Packet::parse(&f.data, f.orig_len as usize) {
            Ok(Packet {
                transport: Transport::Udp(udp),
                payload,
                ..
            }) if udp.src_port == DNS_PORT || udp.dst_port == DNS_PORT => Some(payload),
            _ => None,
        })
        .collect();
    let (decode_s, rejects) = standalone(spans, "standalone.dns-wire.decode", |_| {
        payloads
            .iter()
            .filter(|p| Message::decode(black_box(p)).is_err())
            .count()
    });
    out.set("dns-wire.decode_s", decode_s);
    out.set(
        "dns-wire.decode_msgs_per_s",
        payloads.len() as f64 / decode_s,
    );
    out.set("dns-wire.decode_rejects", rejects as f64);
    [parse_s, decode_s]
}

/// The monitor driven stage by stage: frames in, then `finish()`.
/// Returns the logs and the allocation events of the stage.
pub fn drive_monitor<S: RecordSource + ?Sized>(spans: &mut SpanLog, source: &mut S) -> (Logs, u64) {
    let allocs_before = alloc::snapshot().allocs;
    let logs = spans.scope("zeek-lite.monitor", |spans| {
        let mut monitor = Monitor::new(MonitorConfig::default());
        spans.scope("zeek-lite.monitor.frames", |_| {
            while let Some(record) = source.next().expect("generated capture reads cleanly") {
                monitor.handle_frame(Timestamp(record.ts_nanos), record.data, record.orig_len);
            }
        });
        spans.scope("zeek-lite.finish", |_| monitor.finish())
    });
    (logs, alloc::snapshot().allocs - allocs_before)
}

/// Root span of a standalone monitor pass (where the monitor runs
/// inside another call in the repetition itself).
pub const MONITOR_PASS: &str = "standalone.zeek-lite.monitor";

/// `zeek-lite.*` from `drive_monitor` spans under top-level spans called
/// `root`. `rows` are the conn and dns rows logged, `allocs` the stage's
/// allocation events, and `inner_s` the standalone times of the layers
/// the monitor calls per frame (pcap read where it reads a file, parse,
/// decode).
pub fn monitor_layers(
    spans: &SpanLog,
    root: &str,
    frames: u64,
    rows: [usize; 2],
    allocs: u64,
    inner_s: &[f64],
    out: &mut Layers,
) {
    let monitor_s = span_median_s(spans, root, "zeek-lite.monitor");
    out.set("zeek-lite.monitor_s", monitor_s);
    out.set("zeek-lite.monitor_self_s", self_time(monitor_s, inner_s));
    out.set("zeek-lite.monitor_frames_per_s", frames as f64 / monitor_s);
    out.set(
        "zeek-lite.finish_s",
        span_median_s(spans, root, "zeek-lite.finish"),
    );
    out.set("zeek-lite.conn_rows", rows[0] as f64);
    out.set("zeek-lite.dns_rows", rows[1] as f64);
    out.set(
        "zeek-lite.allocs_per_kframe",
        allocs as f64 * 1e3 / frames as f64,
    );
}

/// `zeek-lite.columns_s`: the columnar projections `Analysis::run`
/// builds first.
pub fn columns_pass(spans: &mut SpanLog, logs: &Logs, out: &mut Layers) -> f64 {
    let (secs, _) = standalone(spans, "standalone.zeek-lite.columns", |_| {
        (logs.conn_columns(), logs.dns_columns())
    });
    out.set("zeek-lite.columns_s", secs);
    secs
}

/// The stream engine driven stage by stage with the whole-house cache
/// replay as its sink — `stream::process_source_observed` unrolled, with
/// the same epoch arithmetic (epoch k covers `[k*window, (k+1)*window)`,
/// the index clamped monotone, the first record opens its epoch, window
/// 0 is one epoch with no boundary). The clock is read at epoch
/// boundaries only, never per frame.
pub fn drive_stream<S: RecordSource + ?Sized>(
    spans: &mut SpanLog,
    source: &mut S,
    window: Duration,
    hub: Option<&ObsHub>,
) -> (StreamResult, CacheReplay) {
    let mut engine = StreamEngine::new(MonitorConfig::default(), analysis_cfg());
    if let Some(hub) = hub {
        engine.set_hub(hub.clone());
    }
    let mut replay = CacheReplay::new(REPLAY_SWEEP);
    let window_nanos = window.nanos();
    let boundary_after = |epoch: u64| {
        (window_nanos > 0).then(|| Timestamp((epoch + 1).saturating_mul(window_nanos)))
    };
    let mut close_epoch = |spans: &mut SpanLog, engine: &mut StreamEngine, epoch: u64| {
        let released = spans.scope("dns-context.stream.end_epoch", |_| {
            engine.end_epoch(boundary_after(epoch))
        });
        spans.scope("cache-sim.replay", |_| {
            for txn in &released.dns {
                replay.offer(txn);
            }
        });
    };

    let mut current_epoch = 0u64;
    let mut started = false;
    let mut frames_span = spans.start("dns-context.stream.frames");
    while let Some(rec) = source.next().expect("generated capture reads cleanly") {
        let epoch = rec
            .ts_nanos
            .checked_div(window_nanos)
            .map_or(0, |epoch| epoch.max(current_epoch));
        if !started {
            started = true;
            current_epoch = epoch;
        } else if epoch != current_epoch {
            spans.finish(frames_span);
            close_epoch(spans, &mut engine, current_epoch);
            current_epoch = epoch;
            frames_span = spans.start("dns-context.stream.frames");
        }
        engine.handle_frame(Timestamp(rec.ts_nanos), rec.data, rec.orig_len);
    }
    spans.finish(frames_span);
    if started {
        close_epoch(spans, &mut engine, current_epoch);
    }
    let result = spans.scope("dns-context.stream.finish", |_| engine.finish());
    spans.scope("cache-sim.replay", |_| {
        for txn in &result.tail.dns {
            replay.offer(txn);
        }
    });
    (result, replay)
}

/// `dns-context.stream.*` and `cache-sim.replay_*` from `drive_stream`
/// spans under top-level spans called `root`, plus the counters of the
/// last drive. With several tenants under one root, times sum and peaks
/// take the largest tenant.
pub fn stream_layers(
    spans: &SpanLog,
    root: &str,
    drives: &[(StreamResult, CacheReplay)],
    out: &mut Layers,
) {
    out.set(
        "dns-context.stream.frames_s",
        span_median_s(spans, root, "dns-context.stream.frames"),
    );
    out.set(
        "dns-context.stream.end_epoch_s",
        span_median_s(spans, root, "dns-context.stream.end_epoch"),
    );
    out.set(
        "dns-context.stream.finish_s",
        span_median_s(spans, root, "dns-context.stream.finish"),
    );
    let epoch_us: Vec<f64> = spans_by_rep(
        spans.records(),
        root,
        "dns-context.stream.end_epoch",
        host::fastest_probe_s(),
    )
    .into_iter()
    .flatten()
    .map(|ns| ns / 1e3)
    .collect();
    out.set("dns-context.stream.end_epoch_us_p50", median(&epoch_us));
    out.set(
        "dns-context.stream.end_epoch_us_p99",
        percentile_with_ten_beyond(&epoch_us, 99.0).0,
    );

    let (mut epochs, mut flows, mut answers) = (0u64, 0f64, 0f64);
    let (mut hits, mut rows) = (0u64, 0u64);
    for (result, replay) in drives {
        let m = &result.stream_metrics;
        epochs += m.counter("stream.epochs");
        flows = flows.max(m.gauge("stream.peak_live_flows").unwrap_or(0.0));
        answers = answers.max(m.gauge("stream.peak_live_answers").unwrap_or(0.0));
        hits += replay.hits();
        rows += replay.hits() + replay.misses();
    }
    out.set("dns-context.stream.epochs", epochs as f64);
    out.set("dns-context.stream.peak_live_flows", flows);
    out.set("dns-context.stream.peak_live_answers", answers);
    let replay_s = span_median_s(spans, root, "cache-sim.replay");
    out.set("cache-sim.replay_s", replay_s);
    out.set("cache-sim.replay_rows_per_s", rows as f64 / replay_s);
    out.set("cache-sim.replay_hit_share", hits as f64 / rows as f64);
}

/// Median full-speed microseconds of a short operation over 200 calls.
pub fn median_us<T>(mut op: impl FnMut() -> T) -> f64 {
    let calls = probed(|| {
        (0..200)
            .map(|_| {
                let t = xkit::obs::clock::now();
                black_box(op());
                t.elapsed_secs() * 1e6
            })
            .collect::<Vec<f64>>()
    });
    median(&calls.out) * calls.speed()
}

/// `xkit.obs.*` costs on a settled snapshot: what one epoch publish
/// (clone into the hub), one aggregate step (clone and merge) and one
/// `/metrics` render cost.
pub fn obs_passes(settled: &Metrics, out: &mut Layers) {
    let hub = ObsHub::default();
    out.set(
        "xkit.obs.hub.publish_us",
        median_us(|| hub.publish_metrics(settled.clone())),
    );
    out.set(
        "xkit.obs.metrics.clone_merge_us",
        median_us(|| {
            let mut folded = settled.clone();
            folded.merge(settled);
            folded
        }),
    );
    out.set(
        "xkit.obs.prometheus_render_us",
        median_us(|| settled.to_prometheus("dnsctx")),
    );
}
