//! The one stream-pipeline driver behind `repro stream`, `repro ingest`
//! and `repro serve`.
//!
//! A [`RunSpec`] describes a run — where the records come from, the
//! epoch window, the worker count — and [`run`] takes it through the
//! paper's single pass: source → monitor → `StreamEngine` (pairing and
//! N/LC/P/SC/R classification, epoch by epoch) → whole-house cache
//! replay. The subcommands are presets over this description; a serve
//! tenant is an id plus one.

use dnsctx::ccz_sim::{ScaleKnobs, Simulation};
use dnsctx::dns_context::{stream, AnalysisConfig};
use dnsctx::zeek_lite::{Duration, MonitorConfig};
use dnsctx::{cache_sim, pcapio};
use pcapio::RecordSource;
use xkit::obs::{Metrics, ObsHub};

/// Stored bytes per record, every backend.
const SNAPLEN: u32 = 65_535;
/// Bytes in the ring between a simulator and its engine.
const RING_BYTES: usize = 1 << 18;

/// Where a run's records come from.
#[derive(Debug, Clone)]
pub enum Source {
    /// Replay an in-memory pcap byte stream (the file backend).
    Pcap(Vec<u8>),
    /// Simulate the world, render it to pcap bytes, replay those.
    SimPcap { scale: ScaleKnobs, seed: u64 },
    /// Simulate the world straight into a `Block`-policy SPSC ring read
    /// by the engine as it fills: no pcap round trip, and since nothing
    /// drops, the same settled snapshot as [`Source::SimPcap`].
    SimRing { scale: ScaleKnobs, seed: u64 },
}

/// One run of the stream pipeline. Its settled snapshot is a pure
/// function of this struct.
#[derive(Debug, Clone)]
pub struct RunSpec {
    pub source: Source,
    /// Epoch window in seconds (0 = one epoch, released at the end).
    pub window_secs: f64,
    /// Workers for the simulation (0 = one per core; the stream engine
    /// itself runs on the calling thread); the snapshot is the same for
    /// every value.
    pub threads: usize,
}

impl RunSpec {
    /// The epoch window as the engine takes it (negative clamps to 0).
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.window_secs.max(0.0))
    }
}

fn simulation(scale: &ScaleKnobs, seed: u64, threads: usize) -> Simulation {
    crate::sim(scale.houses, scale.days, scale.activity, seed).with_threads(threads)
}

/// Simulate a world into in-memory pcap bytes: `(pcap, frames, sim.*)`.
pub fn capture_pcap(scale: &ScaleKnobs, seed: u64, threads: usize) -> (Vec<u8>, u64, Metrics) {
    let mut pcap = Vec::new();
    let (_truth, frames, sim_metrics) = simulation(scale, seed, threads)
        .run_pcap_observed(&mut pcap, SNAPLEN)
        .expect("in-memory pcap");
    (pcap, frames, sim_metrics)
}

/// Run `spec` to completion and return its settled snapshot: `sim.*`
/// (simulated sources), `capture.*`, `zeek.*`, `pair.*`, `class.*`,
/// `stream.*` and `cache.*`. With a hub, every epoch boundary publishes
/// a prefix-valid snapshot and the settled one replaces it at the end.
pub fn run(spec: &RunSpec, hub: Option<&ObsHub>) -> Metrics {
    let metrics = match &spec.source {
        Source::Pcap(bytes) => drive(
            &mut pcapio::source::file(&bytes[..]).expect("pcap header"),
            spec,
            hub,
        ),
        Source::SimPcap { scale, seed } => {
            let (pcap, _frames, mut metrics) = capture_pcap(scale, *seed, spec.threads);
            let mut source = pcapio::source::file(&pcap[..]).expect("pcap header");
            metrics.merge(&drive(&mut source, spec, hub));
            metrics
        }
        Source::SimRing { scale, seed } => {
            let sim = simulation(scale, *seed, spec.threads);
            let (mut tx, mut rx) =
                pcapio::ring::channel(RING_BYTES, SNAPLEN, pcapio::Backpressure::Block);
            // Producer-side stalls land in the flight ring the consumer
            // serves, so `/events` shows backpressure live.
            if let Some(hub) = hub {
                tx.set_flight(hub.flight().clone());
            }
            // The producer owns the sink; dropping it at the end of its
            // closure closes the ring and the engine sees EOF. The scoped
            // join is the sanctioned spawn seam (thread-spawn-fence).
            let (mut metrics, sim_metrics) = xkit::par::join(
                2,
                || drive(&mut rx, spec, hub),
                move || sim.run_ring(&mut tx).2,
            );
            metrics.merge(&sim_metrics);
            metrics
        }
    };
    if let Some(hub) = hub {
        hub.publish_metrics(metrics.clone());
    }
    metrics
}

/// One pass over an open source: the engine cuts epochs, each epoch's
/// released DNS rows replay through the whole-house cache model and are
/// dropped. Returns `capture.*`, the engine's settled metrics and
/// `cache.*`.
fn drive<S: RecordSource>(source: &mut S, spec: &RunSpec, hub: Option<&ObsHub>) -> Metrics {
    let mut cfg = AnalysisConfig::default();
    cfg.threads = spec.threads;
    let mut replay = cache_sim::CacheReplay::new(Duration::from_secs(60));
    let result = stream::process_source_observed(
        source,
        spec.window(),
        MonitorConfig::default(),
        cfg,
        hub,
        |out| {
            for txn in &out.dns {
                replay.offer(txn);
            }
        },
    )
    .expect("a read error ends the stream, it is not returned");
    for txn in &result.tail.dns {
        replay.offer(txn);
    }

    let mut metrics = source.metrics();
    metrics.merge(&result.settled_metrics());
    metrics.add("cache.hits", replay.hits());
    metrics.add("cache.misses", replay.misses());
    metrics.add("cache.evicted", replay.evicted());
    metrics.gauge_max("cache.peak_live", replay.peak_live() as f64);
    metrics
}
