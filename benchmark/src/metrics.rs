//! The benchmark's vocabulary: workload names, end-to-end metrics with
//! their regression bounds, and per-layer metric names. `BENCHMARK.json`
//! at the repository root lists the same tables (a unit test keeps the
//! two in step); later issues refer to workloads and metrics by these
//! names.

use crate::stats::Better::{self, Higher, Lower};
use std::collections::BTreeMap;

/// A workload and the one-line reason it exists.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "batch-week",
        "paper-scale logs through the batch analysis and cache simulations: the paper's own use, no wire or stream layer runs",
    ),
    (
        "pcap-batch",
        "a pcap through the monitor, then batch analysis: decode and zeek-lite dominate, dns-context is a minority",
    ),
    (
        "pcap-stream-w30",
        "the same pcap bytes through the 30 s-window stream engine with hub and cache replay: the other pairing kernel, per-epoch work dominates",
    ),
    (
        "serve-ring",
        "four simulator-fed ring tenants through the serve daemon under a 100 ms scraper: the only use of ring, pool, registry and http",
    ),
];

/// A metric a user of the system would see.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "records_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "allocs_per_krecord",
        unit: "count",
        better: Lower,
        bound: 0.12,
    },
    EndToEnd {
        name: "alloc_bytes_per_record",
        unit: "B",
        better: Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "peak_live_mib",
        unit: "MiB",
        better: Lower,
        bound: 0.18,
    },
];

/// A metric of one layer, from the traced run. No bound: these explain
/// an end-to-end change, they do not gate one.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    /// Recorded in `BENCHMARK.json` only (a unit test compares the two).
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

pub const PER_LAYER: [PerLayer; 73] = [
    layer("ccz-sim.run_s", "s", Lower),
    layer("ccz-sim.run_pcap_s", "s", Lower),
    layer("ccz-sim.run_ring_s", "s", Lower),
    layer("ccz-sim.frames", "count", Higher),
    layer("ccz-sim.allocs_per_kframe", "count", Lower),
    layer("pcapio.read_s", "s", Lower),
    layer("pcapio.read_records_per_s", "1/s", Higher),
    layer("pcapio.read_bytes_per_s", "B/s", Higher),
    layer("pcapio.ring.hop_s", "s", Lower),
    layer("pcapio.ring.records_per_s", "1/s", Higher),
    layer("pcapio.ring.push_wait_s", "s", Lower),
    layer("pcapio.ring.dropped", "count", Lower),
    layer("netpkt.parse_s", "s", Lower),
    layer("netpkt.parse_frames_per_s", "1/s", Higher),
    layer("netpkt.parse_rejects", "count", Lower),
    layer("dns-wire.decode_s", "s", Lower),
    layer("dns-wire.decode_msgs_per_s", "1/s", Higher),
    layer("dns-wire.decode_rejects", "count", Lower),
    layer("zeek-lite.monitor_s", "s", Lower),
    layer("zeek-lite.monitor_self_s", "s", Lower),
    layer("zeek-lite.monitor_frames_per_s", "1/s", Higher),
    layer("zeek-lite.finish_s", "s", Lower),
    layer("zeek-lite.columns_s", "s", Lower),
    layer("zeek-lite.conn_rows", "count", Higher),
    layer("zeek-lite.dns_rows", "count", Higher),
    layer("zeek-lite.allocs_per_kframe", "count", Lower),
    layer("dns-context.analysis_run_s", "s", Lower),
    layer("dns-context.pair_s", "s", Lower),
    layer("dns-context.pair_conns_per_s", "1/s", Higher),
    layer("dns-context.pair_hit_share", "share", Higher),
    layer("dns-context.pair_fallback_share", "share", Lower),
    layer("dns-context.thresholds_s", "s", Lower),
    layer("dns-context.classify_s", "s", Lower),
    layer("dns-context.perf_s", "s", Lower),
    layer("dns-context.metrics_s", "s", Lower),
    layer("dns-context.analysis_allocs", "count", Lower),
    layer("dns-context.stream.frames_s", "s", Lower),
    layer("dns-context.stream.end_epoch_s", "s", Lower),
    layer("dns-context.stream.end_epoch_us_p50", "us", Lower),
    layer("dns-context.stream.end_epoch_us_p99", "us", Lower),
    layer("dns-context.stream.finish_s", "s", Lower),
    layer("dns-context.stream.epochs", "count", Lower),
    layer("dns-context.stream.peak_live_flows", "count", Lower),
    layer("dns-context.stream.peak_live_answers", "count", Lower),
    layer("dns-context.stream.w0_s", "s", Lower),
    layer("dns-context.stream.nohub_s", "s", Lower),
    layer("cache-sim.whole_house_s", "s", Lower),
    layer("cache-sim.refresh_s", "s", Lower),
    layer("cache-sim.replay_s", "s", Lower),
    layer("cache-sim.replay_rows_per_s", "1/s", Higher),
    layer("cache-sim.replay_hit_share", "share", Higher),
    layer("xkit.obs.hub.publish_us", "us", Lower),
    layer("xkit.obs.metrics.clone_merge_us", "us", Lower),
    layer("xkit.obs.tenants.aggregate_us", "us", Lower),
    layer("xkit.obs.prometheus_render_us", "us", Lower),
    layer("xkit.obs.http.scrape_ms_p50", "ms", Lower),
    layer("xkit.obs.http.scrape_ms_p90", "ms", Lower),
    layer("xkit.obs.http.scrapes", "count", Higher),
    layer("xkit.obs.http.scrape_failures", "count", Lower),
    layer("bench.serve.sequential_s", "s", Lower),
    layer("bench.serve.drain_s", "s", Lower),
    layer("bench.serve.shutdown_s", "s", Lower),
    layer("bench.serve.speedup_x", "x", Higher),
    layer("e2e.rep_s_median", "s", Lower),
    layer("e2e.rep_s_q1", "s", Lower),
    layer("e2e.rep_s_q3", "s", Lower),
    layer("e2e.rep_s_best", "s", Lower),
    layer("e2e.reps", "count", Higher),
    layer("closure.layers_sum_s", "s", Lower),
    layer("closure.residual_share", "share", Lower),
    layer("trace.overhead_share", "share", Lower),
    layer("host.probe_us_fastest", "us", Lower),
    layer("host.slowdown_median", "x", Lower),
];

/// The per-layer values one workload measured. A layer the workload
/// never enters keeps the value 0 — that absence is itself the finding
/// the interaction table predicts.
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "unknown per-layer metric {name}"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}
