//! The discrete-event engine tying the workload model together.

use crate::config::{
    platform, WorkloadConfig, APP_START_DELAY_MS, APP_START_SIGMA, CONNECTIVITY_CHECK_GAP_SECS,
    DWELL_MEDIAN_SECS, EMBEDDED_NAMES_PER_PAGE, MAX_STALE_SECS, P2P_BURST_CONNS, P2P_BURST_GAP_SECS,
    PAGES_PER_SESSION, PLATFORMS, POLL_GAP_SECS, PREFETCH_LINKS_PER_PAGE, P_HOUSE_ALARMNET,
    P_HOUSE_CLOUDFLARE, P_HOUSE_FORWARDER_ONLY, P_HOUSE_OOMA, P_HOUSE_OPENDNS, P_HOUSE_P2P,
    P_HOUSE_TPLINK_NTP, P_PREFETCH_CLICK, P_SECOND_CONN, P_STALE_REUSE, P_STUB_BYPASS,
    SESSION_GAP_SECS, STREAM_GAP_SECS, STREAM_LEN_SECS, STREAM_SEGMENT_GAP_SECS,
};
use crate::dists::{BoundedPareto, Exponential, LogNormal};
use crate::names::{NameId, NameUniverse, ServiceId};
use crate::output::{ConnEmission, ConnFate, DnsEmission, LogSink, PcapSink, Sink};
use crate::resolvers::ResolverPlatform;
use crate::truth::{ConnClass, GroundTruth, TruthConn, TruthDns};
use xkit::obs::Metrics;
use xkit::rng::StdRng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use xkit::collections::FastMap;
use std::io::{self, Write};
use std::net::Ipv4Addr;
use zeek_lite::{Duration, Logs, Proto, Timestamp};

/// Capture epoch: 2019-02-06 00:00:00 UTC, the start of the paper's week.
const EPOCH_UNIX: u64 = 1_549_411_200;

/// Hard-coded server addresses (the paper's §5.1 examples).
mod hardcoded {
    use std::net::Ipv4Addr;
    /// The retired public NTP server TP-Link devices keep contacting.
    pub const TPLINK_NTP: Ipv4Addr = Ipv4Addr::new(192, 0, 32, 10);
    /// Ooma's two hard-coded NTP servers.
    pub const OOMA_NTP: [Ipv4Addr; 2] = [Ipv4Addr::new(208, 83, 246, 20), Ipv4Addr::new(208, 83, 246, 21)];
    /// AlarmNet's two monitoring endpoints.
    pub const ALARMNET: [Ipv4Addr; 2] = [Ipv4Addr::new(204, 141, 57, 10), Ipv4Addr::new(204, 141, 57, 11)];
}

/// What one simulation run produced.
pub struct SimOutput {
    /// Observable logs (direct mode) — what the monitor would have seen.
    pub logs: Logs,
    /// Ground truth aligned with the logs (conn uid = truth index).
    pub truth: GroundTruth,
    /// Workload-side obs snapshot: `sim.*` event/emission counters and
    /// `resolver.<platform>.*` query/hit counters, merged in shard order
    /// so the snapshot is identical for any thread count.
    pub metrics: Metrics,
}

/// Houses per simulation shard — the unit of parallelism. The partition
/// is a pure function of the house count (never of the thread count), so
/// a run's output is bit-identical however many workers execute it; small
/// test configs collapse to a single shard.
const HOUSES_PER_SHARD: usize = 25;

/// Simulated time every shard advances by between two releases of final
/// frames in packet mode. Frames pending across it are those of
/// connections still open, so it bounds memory by live flows, not by
/// the trace's length.
const SLICE: Duration = Duration::from_secs(60);

/// Balanced contiguous house ranges, one per shard.
fn shard_spans(houses: usize) -> Vec<std::ops::Range<usize>> {
    let shards = houses.div_ceil(HOUSES_PER_SHARD).max(1);
    let base = houses / shards;
    let rem = houses % shards;
    let mut spans = Vec::with_capacity(shards);
    let mut lo = 0;
    for k in 0..shards {
        let len = base + usize::from(k < rem);
        spans.push(lo..lo + len);
        lo += len;
    }
    spans
}

/// Immutable world state shared read-only by every shard: the name
/// universe and the P2P peer pool, generated once from the master seed.
/// The master RNG's post-generation state is the base each shard's
/// independent stream is split from.
struct SharedWorld {
    names: NameUniverse,
    p2p_peers: Vec<Ipv4Addr>,
    base_rng: StdRng,
}

impl SharedWorld {
    fn prepare(cfg: &WorkloadConfig, seed: u64) -> SharedWorld {
        let mut rng = StdRng::seed_from_u64(seed);
        let names = NameUniverse::generate(cfg, &mut rng);
        let p2p_peers = (0..2_000)
            .map(|_| {
                // Random "public" peers well away from our other ranges.
                Ipv4Addr::from(0x3A00_0000u32 + rng.random_range(0..0x00FF_FFFFu32))
            })
            .collect();
        SharedWorld { names, p2p_peers, base_rng: rng }
    }
}

/// A configured simulation; [`run`](Simulation::run) is a pure function of
/// (config, seed). The thread count only changes wall-clock time, never
/// the output: houses are partitioned into fixed shards with independent
/// RNG streams, and shard outputs merge in partition order.
pub struct Simulation {
    cfg: WorkloadConfig,
    seed: u64,
    threads: usize,
}

impl Simulation {
    /// Validate the config and build a simulation.
    pub fn new(cfg: WorkloadConfig, seed: u64) -> Result<Simulation, String> {
        cfg.validate()?;
        Ok(Simulation { cfg, seed, threads: 0 })
    }

    /// Set the worker-thread count for sharded runs (0 = one per core).
    /// Output is bit-identical for every value.
    pub fn with_threads(mut self, threads: usize) -> Simulation {
        self.threads = threads;
        self
    }

    /// Set up every shard, run `step` on each in lock-step rounds (in
    /// parallel when threads allow) until `between` says stop, and merge
    /// the ground truth in shard order. Returns the sinks in that same
    /// order, plus merged truth and merged metrics. The merged truth's dns
    /// indices point into the concatenated emission order.
    fn drive_all<S, F, G>(&self, sink: fn() -> S, step: F, between: G) -> (Vec<S>, GroundTruth, Metrics)
    where
        S: Sink + Send,
        F: Fn(&mut Engine<'_, S>) + Sync,
        G: FnMut(&mut [&mut Engine<'_, S>]) -> bool,
    {
        let shared = SharedWorld::prepare(&self.cfg, self.seed);
        let mut shards: Vec<Engine<'_, S>> = shard_spans(self.cfg.scale.houses)
            .into_iter()
            .enumerate()
            .map(|(k, span)| Engine::start(&self.cfg, &shared, k as u64, span, sink()))
            .collect();
        xkit::par::lockstep(self.threads, &mut shards, step, between);
        let mut sinks = Vec::with_capacity(shards.len());
        let mut truth = GroundTruth::default();
        let mut metrics = Metrics::new();
        for shard in shards {
            let (sink, mut shard_truth, shard_metrics) = shard.finish();
            metrics.merge(&shard_metrics);
            let dns_off = truth.dns.len();
            for tc in &mut shard_truth.conns {
                if let Some(di) = tc.dns_index {
                    tc.dns_index = Some(di + dns_off);
                }
            }
            truth.conns.extend(shard_truth.conns);
            truth.dns.extend(shard_truth.dns);
            sinks.push(sink);
        }
        (sinks, truth, metrics)
    }

    /// Run in direct-log mode: one round runs every shard to its end.
    pub fn run(&self) -> SimOutput {
        let (sinks, mut truth, metrics) =
            self.drive_all(LogSink::new, |shard| shard.advance_to(Timestamp(u64::MAX)), |_| false);
        let mut merged = LogSink::new();
        for s in sinks {
            merged.absorb(s);
        }
        let (logs, dns_perm) = merged.into_logs_and_dns_perm();
        // Emission order is only approximately time-ordered; remap the
        // ground truth through the sort so truth.dns[i] corresponds to
        // logs.dns[i] and every dns_index points into the sorted log.
        let mut remapped: Vec<Option<crate::truth::TruthDns>> = vec![None; truth.dns.len()];
        for (emission_idx, td) in truth.dns.into_iter().enumerate() {
            remapped[dns_perm[emission_idx]] = Some(td);
        }
        truth.dns = remapped.into_iter().map(|t| t.expect("bijection")).collect();
        for tc in &mut truth.conns {
            if let Some(di) = tc.dns_index {
                tc.dns_index = Some(dns_perm[di]);
            }
        }
        SimOutput { logs, truth, metrics }
    }

    /// Packet mode's one path, shared by the file and the ring. Every
    /// shard advances in lock-step, one [`SLICE`] of simulated time at a
    /// time. An event at `t` emits no frame stamped before `t`, so once
    /// every event before a slice's horizon has run, every frame stamped
    /// before it is final. Those frames leave through a merge on
    /// `(ts, shard, seq)`: the order one sort of the whole capture would
    /// give. Each final frame goes to `emit` as `(ts_nanos, orig_len,
    /// stored bytes cut to snaplen)`.
    fn stream_packets(&self, snaplen: u32, mut emit: impl FnMut(u64, u32, &[u8])) -> (GroundTruth, u64, Metrics) {
        let mut cursors = Vec::new();
        let mut frames = 0u64;
        // A slice: forget the frames the last merge emitted, run the next
        // SLICE of events, and seal the frames stamped before its horizon.
        let slice = |shard: &mut Engine<'_, PcapSink>| {
            shard.sink.compact();
            shard.advance_to(shard.clock + SLICE);
            shard.sink.seal(shard.clock);
        };
        let (_, truth, mut metrics) = self.drive_all(PcapSink::new, slice, |shards| {
            let done = shards.iter().all(|shard| shard.heap.is_empty());
            if done {
                for shard in shards.iter_mut() {
                    shard.sink.seal(Timestamp(u64::MAX));
                }
            }
            cursors.clear();
            cursors.resize(shards.len(), 0usize);
            loop {
                // The earliest head; a tie goes to the lower shard.
                let next = (0..shards.len())
                    .filter_map(|k| Some((k, shards[k].sink.released(cursors[k], snaplen)?)))
                    .min_by_key(|&(k, (ts_nanos, ..))| (ts_nanos, k));
                let Some((k, (ts_nanos, orig_len, data))) = next else { break };
                emit(ts_nanos, orig_len, data);
                cursors[k] += 1;
                frames += 1;
            }
            !done
        });
        metrics.add("sim.frames_written", frames);
        (truth, frames, metrics)
    }

    /// Run in packet mode: write a pcap capture of the whole trace to
    /// `out` and return the ground truth plus the frame count. Feed the
    /// bytes to [`zeek_lite::Monitor::process_pcap`] to obtain logs the
    /// hard way.
    pub fn run_pcap<W: Write>(&self, out: W, snaplen: u32) -> io::Result<(GroundTruth, u64)> {
        self.run_pcap_observed(out, snaplen).map(|(truth, frames, _)| (truth, frames))
    }

    /// Packet mode with the workload-side obs snapshot alongside: the
    /// shard-merged `sim.*`/`resolver.*` counters plus
    /// `sim.frames_written` for the capture itself.
    pub fn run_pcap_observed<W: Write>(
        &self,
        out: W,
        snaplen: u32,
    ) -> io::Result<(GroundTruth, u64, Metrics)> {
        let mut w = pcapio::PcapWriter::new(out, snaplen)?;
        let mut written = Ok(());
        let (truth, frames, metrics) = self.stream_packets(snaplen, |ts_nanos, orig_len, data| {
            if written.is_ok() {
                written = w.write_packet(ts_nanos, data, orig_len);
            }
        });
        written?;
        debug_assert_eq!(frames, w.packets_written());
        w.into_inner()?;
        Ok((truth, frames, metrics))
    }

    /// Packet mode over the in-memory ring: the frames
    /// [`Simulation::run_pcap`] writes, in the same order, pushed straight
    /// into `sink` as they become final — no pcap serialization, no parse
    /// on the other side. Blocks on a full ring when the sink's policy
    /// says to, so run the consumer concurrently; records rejected by the
    /// ring (drop policy / oversize) are counted in the sink's `dropped`.
    ///
    /// Returns the ground truth, the record count offered to the ring,
    /// and the same metrics snapshot as [`Simulation::run_pcap_observed`]
    /// (`sim.frames_written` counts offered records, so a lossless run is
    /// metric-identical to the file backend).
    pub fn run_ring(
        &self,
        sink: &mut pcapio::RingSink,
    ) -> (GroundTruth, u64, Metrics) {
        self.stream_packets(sink.snaplen(), |ts_nanos, orig_len, data| {
            sink.push(ts_nanos, orig_len, data);
        })
    }
}

// ---------------------------------------------------------------------
// Internal model state
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
struct StubEntry {
    completed: Timestamp,
    expires: Timestamp,
    used: bool,
    dns_index: usize,
    platform: usize,
    addr: Ipv4Addr,
    cdn_hosted: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DeviceKind {
    /// Laptop/desktop: browsing, polling, streaming.
    Computer,
    /// Android phone: browsing (via Google DNS) and connectivity checks.
    Android,
    /// DNS-using IoT gadget phoning home.
    Iot,
}

struct Device {
    kind: DeviceKind,
    /// Resolver platform index for this device's lookups.
    platform: usize,
    /// Multiplier on the browsing session gap (phones browse less).
    browse_gap: f64,
    /// Per-device stub cache. `FastMap` (FxHash) because this map
    /// is hit several times per name use and is only ever addressed
    /// by key — never iterated (`xkit::collections` determinism rule).
    stub: FastMap<NameId, StubEntry>,
    violates_ttl: bool,
    poll_names: Vec<NameId>,
    iot_name: Option<NameId>,
    streams: bool,
}

struct House {
    addr: Ipv4Addr,
    devices: Vec<Device>,
    /// Services the household frequents — shared across its devices.
    /// Different devices resolving the same favourite within one TTL is
    /// the duplication a whole-house cache (paper §8) would absorb.
    favorites: Vec<ServiceId>,
    next_port: u16,
    next_dns_id: u16,
}

impl House {
    fn port(&mut self) -> u16 {
        let p = self.next_port;
        self.next_port = if p >= 59_999 { 10_000 } else { p + 1 };
        p
    }

    fn dns_id(&mut self) -> u16 {
        let id = self.next_dns_id;
        self.next_dns_id = self.next_dns_id.wrapping_add(1);
        id
    }
}

/// Events driving the model. Cheap to copy except for prefetch lists.
enum Ev {
    BrowseSession { h: u32, d: u32 },
    /// Resolve-and-connect for one name at this instant.
    NameUse { h: u32, d: u32, name: NameId, profile: Profile },
    /// Speculative resolution only.
    Prefetch { h: u32, d: u32, name: NameId },
    PageView { h: u32, d: u32, svc: ServiceId, pages_left: u32, via_prefetch: Option<NameId> },
    Poll { h: u32, d: u32 },
    StreamStart { h: u32, d: u32 },
    StreamSegment { h: u32, d: u32, name: NameId, until: Timestamp },
    ConnCheck { h: u32, d: u32 },
    P2pBurst { h: u32 },
    IotBeat { h: u32, d: u32 },
    NtpProbe { h: u32, dst: Ipv4Addr, mean_gap: f64 },
    AlarmBeat { h: u32 },
    Compact,
}

struct HeapEntry {
    ts: Timestamp,
    seq: u64,
    ev: Ev,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.ts == other.ts && self.seq == other.seq
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.ts, self.seq).cmp(&(other.ts, other.seq))
    }
}

/// Profile of a connection to be created.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Profile {
    PageMain,
    WebObject,
    StreamSegment,
    Poll,
    ConnCheck,
    IotBeat,
    P2pTcp,
    P2pUdp,
}

struct Engine<'a, S: Sink> {
    cfg: &'a WorkloadConfig,
    rng: StdRng,
    names: &'a NameUniverse,
    /// This shard's resolver platform instances. Semantically each shard's
    /// houses land on a distinct anycast frontend group of the platform;
    /// sharing with the platform's users outside the shard rides on the
    /// external-warmth model.
    platforms: Vec<ResolverPlatform>,
    houses: Vec<House>,
    heap: BinaryHeap<Reverse<HeapEntry>>,
    sink: S,
    truth: GroundTruth,
    end: Timestamp,
    /// Every event before this instant has run.
    clock: Timestamp,
    seq: u64,
    /// Events actually processed (popped within the trace window); plain
    /// u64s here, folded into an obs snapshot once per shard.
    events: u64,
    /// Reusable answer-address buffer: every lookup borrows this slice
    /// into its [`DnsEmission`] instead of allocating a fresh `Vec`.
    addr_scratch: Vec<Ipv4Addr>,
    /// Reusable embedded-name buffer for page views (same idea).
    name_scratch: Vec<NameId>,
    // Cached distributions.
    dwell: LogNormal,
    app_delay: LogNormal,
    server_rtt: LogNormal,
    web_bytes: BoundedPareto,
    rate: LogNormal,
    p2p_peers: &'a [Ipv4Addr],
}

impl<'a, S: Sink> Engine<'a, S> {
    /// Set up one shard: the houses in `span` (global indices — addresses,
    /// ports and DNS ids stay partition-invariant), on an RNG stream split
    /// off the master state by shard index. No event has run yet.
    fn start(
        cfg: &'a WorkloadConfig,
        shared: &'a SharedWorld,
        shard: u64,
        span: std::ops::Range<usize>,
        sink: S,
    ) -> Engine<'a, S> {
        let rng = shared.base_rng.split(shard);
        let platforms: Vec<ResolverPlatform> = PLATFORMS.into_iter().map(ResolverPlatform::new).collect();
        let clock = Timestamp::from_secs(EPOCH_UNIX);
        let end = clock + Duration::from_secs_f64(cfg.scale.duration_secs());
        let mut e = Engine {
            cfg,
            names: &shared.names,
            platforms,
            houses: Vec::new(),
            heap: BinaryHeap::new(),
            sink,
            truth: GroundTruth::default(),
            end,
            clock,
            seq: 0,
            events: 0,
            addr_scratch: Vec::new(),
            name_scratch: Vec::new(),
            dwell: LogNormal::from_median(DWELL_MEDIAN_SECS, 1.1),
            app_delay: LogNormal::from_median(APP_START_DELAY_MS, APP_START_SIGMA),
            server_rtt: LogNormal::from_median(25.0, 0.5),
            web_bytes: BoundedPareto::new(1.15, 2_000.0, 5e8),
            rate: LogNormal::from_median(12e6, 1.0),
            p2p_peers: &shared.p2p_peers,
            rng,
        };
        e.setup(span);
        e
    }

    /// Hand back the sink, the shard's ground truth and its obs snapshot,
    /// once every event has run.
    fn finish(self) -> (S, GroundTruth, Metrics) {
        debug_assert!(self.heap.is_empty(), "finished with events left");
        let mut m = Metrics::new();
        m.add("sim.shards", 1);
        m.add("sim.houses", self.houses.len() as u64);
        m.add("sim.events", self.events);
        m.add("sim.conns", self.truth.conns.len() as u64);
        m.add("sim.dns_lookups", self.truth.dns.len() as u64);
        for p in &self.platforms {
            let key = p.cfg.name.to_ascii_lowercase();
            m.add(format!("resolver.{key}.queries"), p.queries);
            m.add(format!("resolver.{key}.hits"), p.hits);
        }
        (self.sink, self.truth, m)
    }

    // ---------------- setup ----------------

    fn setup(&mut self, span: std::ops::Range<usize>) {
        let start = Timestamp::from_secs(EPOCH_UNIX);
        for hi in span {
            let house_addr = Ipv4Addr::from(u32::from(Ipv4Addr::new(10, 77, 0, 0)) + hi as u32 + 1);
            let forwarder_only = self.rng.random_bool(P_HOUSE_FORWARDER_ONLY);
            let opendns_house = !forwarder_only && self.rng.random_bool(P_HOUSE_OPENDNS);
            let cloudflare_house = !forwarder_only && !opendns_house && self.rng.random_bool(P_HOUSE_CLOUDFLARE);
            let p2p = self.rng.random_bool(P_HOUSE_P2P);
            let favorites: Vec<ServiceId> = (0..15)
                .map(|_| self.names.pick_service(&mut self.rng))
                .collect();
            let mut devices = Vec::new();

            let n_computers = 1 + self.rng.random_range(0..3usize);
            for ci in 0..n_computers {
                let plat = if forwarder_only {
                    platform::LOCAL
                } else if cloudflare_house {
                    platform::CLOUDFLARE
                } else if opendns_house && (ci == 0 || self.rng.random_bool(0.15)) {
                    platform::OPENDNS
                } else {
                    platform::LOCAL
                };
                devices.push(self.make_device(DeviceKind::Computer, plat, &favorites));
            }
            let n_android = crate::dists::weighted_index(&mut self.rng, &[0.05, 0.55, 0.40]);
            for _ in 0..n_android {
                let plat = if forwarder_only { platform::LOCAL } else { platform::GOOGLE };
                devices.push(self.make_device(DeviceKind::Android, plat, &favorites));
            }
            if self.rng.random_bool(0.5) {
                devices.push(self.make_device(DeviceKind::Iot, platform::LOCAL, &favorites));
            }

            let h = self.houses.len() as u32;
            self.houses.push(House {
                addr: house_addr,
                devices,
                favorites,
                next_port: 10_000 + ((hi as u32 * 971) % 40_000) as u16,
                next_dns_id: (hi as u16).wrapping_mul(257),
            });

            // Initial per-device events, phase-randomised.
            let n_dev = self.houses[h as usize].devices.len();
            for d in 0..n_dev {
                let kind = self.houses[h as usize].devices[d].kind;
                let streams = self.houses[h as usize].devices[d].streams;
                match kind {
                    DeviceKind::Computer => {
                        let t0 = start + self.uniform_dur(0.0, 2.0 * SESSION_GAP_SECS / self.cfg.scale.activity);
                        self.schedule(t0, Ev::BrowseSession { h, d: d as u32 });
                        let tp = start + self.uniform_dur(0.0, POLL_GAP_SECS / self.cfg.scale.activity);
                        self.schedule(tp, Ev::Poll { h, d: d as u32 });
                        if streams {
                            let tv = start + self.uniform_dur(0.0, STREAM_GAP_SECS / self.cfg.scale.activity);
                            self.schedule(tv, Ev::StreamStart { h, d: d as u32 });
                        }
                    }
                    DeviceKind::Android => {
                        let t0 = start + self.uniform_dur(0.0, 3.0 * SESSION_GAP_SECS / self.cfg.scale.activity);
                        self.schedule(t0, Ev::BrowseSession { h, d: d as u32 });
                        let tc = start + self.uniform_dur(0.0, CONNECTIVITY_CHECK_GAP_SECS / self.cfg.scale.activity);
                        self.schedule(tc, Ev::ConnCheck { h, d: d as u32 });
                        if streams {
                            let tv = start + self.uniform_dur(0.0, STREAM_GAP_SECS / self.cfg.scale.activity);
                            self.schedule(tv, Ev::StreamStart { h, d: d as u32 });
                        }
                    }
                    DeviceKind::Iot => {
                        let ti = start + self.uniform_dur(0.0, 600.0 / self.cfg.scale.activity);
                        self.schedule(ti, Ev::IotBeat { h, d: d as u32 });
                    }
                }
            }
            if p2p {
                let t = start + self.uniform_dur(0.0, P2P_BURST_GAP_SECS / self.cfg.scale.activity);
                self.schedule(t, Ev::P2pBurst { h });
            }
            if self.rng.random_bool(P_HOUSE_TPLINK_NTP) {
                let t = start + self.uniform_dur(0.0, 800.0 / self.cfg.scale.activity);
                self.schedule(t, Ev::NtpProbe { h, dst: hardcoded::TPLINK_NTP, mean_gap: 800.0 });
            }
            if self.rng.random_bool(P_HOUSE_OOMA) {
                for dst in hardcoded::OOMA_NTP {
                    let t = start + self.uniform_dur(0.0, 3_000.0 / self.cfg.scale.activity);
                    self.schedule(t, Ev::NtpProbe { h, dst, mean_gap: 3_000.0 });
                }
            }
            if self.rng.random_bool(P_HOUSE_ALARMNET) {
                let t = start + self.uniform_dur(0.0, 600.0 / self.cfg.scale.activity);
                self.schedule(t, Ev::AlarmBeat { h });
            }
        }
        self.schedule(start + Duration::from_secs(3_600), Ev::Compact);
    }

    fn make_device(&mut self, kind: DeviceKind, plat: usize, favorites: &[ServiceId]) -> Device {
        // Household members poll overlapping services (same mail/chat
        // providers), mostly drawn from the shared favourites.
        let poll_names = (0..1 + self.rng.random_range(0..3usize))
            .map(|_| {
                let svc = if self.rng.random_bool(0.6) {
                    favorites[self.rng.random_range(0..favorites.len())]
                } else {
                    self.names.pick_service(&mut self.rng)
                };
                self.names.primary(svc)
            })
            .collect();
        let iot_name = if kind == DeviceKind::Iot {
            let svc = self.names.pick_service(&mut self.rng);
            Some(self.names.primary(svc))
        } else {
            None
        };
        Device {
            kind,
            platform: plat,
            browse_gap: if kind == DeviceKind::Android { 7.0 } else { 1.0 },
            stub: FastMap::default(),
            violates_ttl: self.rng.random_bool(0.55),
            poll_names,
            iot_name,
            streams: match kind {
                DeviceKind::Computer => self.rng.random_bool(0.5),
                DeviceKind::Android => self.rng.random_bool(0.12),
                DeviceKind::Iot => false,
            },
        }
    }

    // ---------------- event loop ----------------

    /// Run every event stamped before `horizon`, in `(ts, seq)` order.
    /// Pausing between calls changes nothing: the events pop in the order
    /// one uninterrupted run would pop them.
    fn advance_to(&mut self, horizon: Timestamp) {
        while self.heap.peek().is_some_and(|Reverse(next)| next.ts < horizon) {
            let Some(Reverse(entry)) = self.heap.pop() else { break };
            let t = entry.ts;
            self.events += 1;
            match entry.ev {
                Ev::BrowseSession { h, d } => self.ev_browse_session(h, d, t),
                Ev::NameUse { h, d, name, profile } => self.use_and_connect(h, d, name, t, profile),
                Ev::Prefetch { h, d, name } => self.prefetch(h, d, name, t),
                Ev::PageView { h, d, svc, pages_left, via_prefetch } => {
                    self.ev_page_view(h, d, svc, pages_left, via_prefetch, t)
                }
                Ev::Poll { h, d } => self.ev_poll(h, d, t),
                Ev::StreamStart { h, d } => self.ev_stream_start(h, d, t),
                Ev::StreamSegment { h, d, name, until } => self.ev_stream_segment(h, d, name, until, t),
                Ev::ConnCheck { h, d } => self.ev_conn_check(h, d, t),
                Ev::P2pBurst { h } => self.ev_p2p_burst(h, t),
                Ev::IotBeat { h, d } => self.ev_iot_beat(h, d, t),
                Ev::NtpProbe { h, dst, mean_gap } => self.ev_ntp_probe(h, dst, mean_gap, t),
                Ev::AlarmBeat { h } => self.ev_alarm_beat(h, t),
                Ev::Compact => {
                    for p in &mut self.platforms {
                        p.compact(t);
                    }
                    self.schedule(t + Duration::from_secs(3_600), Ev::Compact);
                }
            }
        }
        self.clock = horizon;
    }

    fn schedule(&mut self, ts: Timestamp, ev: Ev) {
        if ts > self.end {
            return;
        }
        self.seq += 1;
        self.heap.push(Reverse(HeapEntry { ts, seq: self.seq, ev }));
    }

    // ---------------- time helpers ----------------

    /// Exponential gap with the configured mean, modulated by activity and
    /// time of day.
    fn gap(&mut self, mean_secs: f64, now: Timestamp) -> Duration {
        let m = diurnal(now) * self.cfg.scale.activity;
        let d = Exponential::new(mean_secs / m).sample(&mut self.rng);
        Duration::from_secs_f64(d.min(7.0 * 86_400.0))
    }

    fn uniform_dur(&mut self, lo_secs: f64, hi_secs: f64) -> Duration {
        Duration::from_secs_f64(self.rng.random_range(lo_secs..hi_secs.max(lo_secs + 1e-9)))
    }

    // ---------------- DNS machinery ----------------

    /// Perform a recursive lookup for `name` from (house, device) at `t`.
    /// Updates the stub cache, emits the DNS transaction, records truth.
    /// Returns the stub entry (freshly inserted).
    fn lookup(&mut self, h: u32, d: u32, name: NameId, t: Timestamp, speculative: bool) -> StubEntry {
        // `names` outlives the engine borrow ('a), so the emission can
        // borrow the fqdn/cname straight out of the universe.
        let names = self.names;
        let dev_platform = self.houses[h as usize].devices[d as usize].platform;
        let pop = names.popularity(name);
        let info = names.info(name);
        let outcome = self.platforms[dev_platform].query(name, pop, info.ttl, t, &mut self.rng);
        let resolver = self.platforms[dev_platform].addr(&mut self.rng);
        let (cname, _) = names.answers_into(name, &mut self.rng, &mut self.addr_scratch);
        let house = &mut self.houses[h as usize];
        let trans_id = house.dns_id();
        let client_port = house.port();
        let client = house.addr;
        self.sink.dns(&DnsEmission {
            ts: t,
            client,
            resolver,
            trans_id,
            client_port,
            query: info.fqdn,
            rtt: outcome.duration,
            cname,
            addrs: &self.addr_scratch,
            ttl: outcome.response_ttl,
        });
        let dns_index = self.truth.dns.len();
        self.truth.dns.push(TruthDns {
            ts: t,
            shared_cache_hit: outcome.cache_hit,
            speculative,
            platform: dev_platform,
        });
        let completed = t + outcome.duration;
        let entry = StubEntry {
            completed,
            expires: completed + Duration::from_secs(outcome.response_ttl as u64),
            used: false,
            dns_index,
            platform: dev_platform,
            addr: self.addr_scratch[0],
            cdn_hosted: info.cdn_hosted,
        };
        self.houses[h as usize].devices[d as usize]
            .stub
            .insert(name, entry);
        entry
    }

    /// Resolve-and-use: returns when the mapping is available, its class,
    /// and the address to connect to. Mutates stub/truth state.
    fn name_use(&mut self, h: u32, d: u32, name: NameId, t: Timestamp) -> (Timestamp, ConnClass, bool, usize, Ipv4Addr, usize, bool) {
        let dev = &self.houses[h as usize].devices[d as usize];
        let violates = dev.violates_ttl;
        // A fraction of uses come from a process with its own empty DNS
        // cache and never consult the device stub.
        let cached = if self.rng.random_bool(P_STUB_BYPASS) {
            None
        } else {
            dev.stub.get(&name).copied()
        };
        let max_stale = Duration::from_secs_f64(MAX_STALE_SECS);
        if let Some(entry) = cached {
            // A lookup still in flight: the stub coalesces this use onto
            // the pending query (as real resolvers do) — the connection
            // blocks until the answer lands.
            if entry.completed > t {
                let shared_hit = self.truth.dns[entry.dns_index].shared_cache_hit;
                let class = if shared_hit { ConnClass::SharedCache } else { ConnClass::Resolution };
                let start = entry.completed
                    + Duration::from_secs_f64(self.app_delay.sample_clamped(&mut self.rng, 0.2, 400.0) / 1e3);
                self.houses[h as usize].devices[d as usize]
                    .stub
                    .get_mut(&name)
                    .unwrap()
                    .used = true;
                return (start, class, false, entry.dns_index, entry.addr, entry.platform, entry.cdn_hosted);
            }
            let fresh = entry.expires > t;
            let staleness_ok = t.since(entry.expires) < max_stale;
            let reuse_stale = !fresh
                && violates
                && staleness_ok
                && self.rng.random_bool(P_STALE_REUSE);
            if fresh || reuse_stale {
                let class = if entry.used { ConnClass::LocalCache } else { ConnClass::Prefetched };
                let stale = !fresh;
                self.houses[h as usize].devices[d as usize]
                    .stub
                    .get_mut(&name)
                    .unwrap()
                    .used = true;
                return (t, class, stale, entry.dns_index, entry.addr, entry.platform, entry.cdn_hosted);
            }
        }
        // Fresh lookup; the connection blocks until the answer arrives.
        let entry = self.lookup(h, d, name, t, false);
        let shared_hit = self.truth.dns[entry.dns_index].shared_cache_hit;
        let class = if shared_hit { ConnClass::SharedCache } else { ConnClass::Resolution };
        let start = entry.completed
            + Duration::from_secs_f64(self.app_delay.sample_clamped(&mut self.rng, 0.2, 400.0) / 1e3);
        self.houses[h as usize].devices[d as usize]
            .stub
            .get_mut(&name)
            .unwrap()
            .used = true;
        (start, class, false, entry.dns_index, entry.addr, entry.platform, entry.cdn_hosted)
    }

    /// Speculative lookup (prefetch): only goes to the network when the
    /// stub has no fresh entry. Never blocks anything.
    fn prefetch(&mut self, h: u32, d: u32, name: NameId, t: Timestamp) {
        let fresh = self.houses[h as usize].devices[d as usize]
            .stub
            .get(&name)
            .map(|e| e.expires > t)
            .unwrap_or(false);
        if !fresh {
            self.lookup(h, d, name, t, true);
        }
    }

    // ---------------- connection machinery ----------------

    /// Emit a DNS-using connection and its ground truth.
    #[allow(clippy::too_many_arguments)]
    fn connect(
        &mut self,
        h: u32,
        start: Timestamp,
        class: ConnClass,
        stale: bool,
        dns_index: usize,
        dst: Ipv4Addr,
        plat: usize,
        cdn: bool,
        profile: Profile,
    ) {
        let (proto, dst_port, mut orig_bytes, mut resp_bytes) = self.shape(profile);
        // A kept-alive web connection is reused for several fetches, so it
        // carries correspondingly more payload than a one-shot fetch.
        let reused = matches!(profile, Profile::PageMain | Profile::WebObject)
            && self.rng.random_bool(0.80);
        if reused {
            let objects = 1 + self.rng.random_range(0..6u64);
            orig_bytes *= objects;
            resp_bytes = resp_bytes.saturating_mul(objects);
        }
        let mult = self.edge_multiplier(plat, cdn, resp_bytes);
        let mut duration = self.transfer_duration(orig_bytes + resp_bytes, mult);
        // Persistent protocols (HTTP keep-alive, connection reuse, app
        // sockets) hold the connection open long after the transfer; Bro
        // durations are first-to-last packet, so the idle tail counts.
        // This is the mechanism that makes DNS a small *relative* cost in
        // the paper's Figure 2.
        let keepalive = match profile {
            Profile::PageMain | Profile::WebObject => {
                if reused {
                    Some(LogNormal::from_median(30.0, 1.0))
                } else {
                    None
                }
            }
            Profile::Poll | Profile::IotBeat | Profile::ConnCheck => {
                Some(LogNormal::from_median(6.0, 0.8))
            }
            Profile::StreamSegment => Some(LogNormal::from_median(15.0, 0.6)),
            _ => None,
        };
        if let Some(tail) = keepalive {
            let idle = tail.sample_clamped(&mut self.rng, 0.5, 600.0);
            duration += Duration::from_secs_f64(idle);
        }
        let rtt = Duration::from_secs_f64(self.server_rtt.sample_clamped(&mut self.rng, 3.0, 300.0) / 1e3);
        let orig_port = self.houses[h as usize].port();
        let house_addr = self.houses[h as usize].addr;
        self.sink.conn(&ConnEmission {
            ts: start,
            house: house_addr,
            orig_port,
            dst,
            dst_port,
            proto,
            duration,
            orig_bytes,
            resp_bytes,
            rtt,
            fate: ConnFate::Established,
        });
        self.truth.conns.push(TruthConn {
            ts: start,
            orig_addr: house_addr,
            resp_addr: dst,
            resp_port: dst_port,
            class,
            stale,
            dns_index: Some(dns_index),
        });
    }

    /// Emit a no-DNS connection (class N) and its truth.
    fn connect_nodns(
        &mut self,
        h: u32,
        start: Timestamp,
        dst: Ipv4Addr,
        dst_port: u16,
        proto: Proto,
        orig_bytes: u64,
        resp_bytes: u64,
        duration: Duration,
        fate: ConnFate,
    ) {
        let orig_port = self.houses[h as usize].port();
        let house_addr = self.houses[h as usize].addr;
        let rtt = Duration::from_secs_f64(self.server_rtt.sample_clamped(&mut self.rng, 5.0, 300.0) / 1e3);
        self.sink.conn(&ConnEmission {
            ts: start,
            house: house_addr,
            orig_port,
            dst,
            dst_port,
            proto,
            duration,
            orig_bytes,
            resp_bytes,
            rtt,
            fate,
        });
        self.truth.conns.push(TruthConn {
            ts: start,
            orig_addr: house_addr,
            resp_addr: dst,
            resp_port: dst_port,
            class: ConnClass::NoDns,
            stale: false,
            dns_index: None,
        });
    }

    /// Full pipeline for one name-use followed by a connection.
    fn use_and_connect(&mut self, h: u32, d: u32, name: NameId, t: Timestamp, profile: Profile) {
        let (start, class, stale, dns_index, dst, plat, cdn) = self.name_use(h, d, name, t);
        self.connect(h, start, class, stale, dns_index, dst, plat, cdn, profile);
        // Occasionally the application opens a second parallel connection
        // reusing the just-obtained mapping (drives the non-first-use tail
        // inside the paper's 20 ms window). It keeps the first's origin
        // class: the same mapping, just not the first user (the analysis
        // still calls it SC/R inside the blocked window; truth mirrors the
        // paper's semantics by class of information origin).
        if matches!(profile, Profile::WebObject | Profile::PageMain)
            && self.rng.random_bool(P_SECOND_CONN)
        {
            let dt = self.uniform_dur(0.005, 0.080);
            self.connect(h, start + dt, class, stale, dns_index, dst, plat, cdn, profile);
        }
    }

    /// Bytes/ports per connection profile.
    fn shape(&mut self, profile: Profile) -> (Proto, u16, u64, u64) {
        let r = &mut self.rng;
        match profile {
            Profile::PageMain | Profile::WebObject => {
                let port = if r.random_bool(0.85) { 443 } else { 80 };
                let proto = if port == 443 && r.random_bool(0.25) { Proto::Udp } else { Proto::Tcp };
                let orig = r.random_range(300..2_500);
                let resp = self.web_bytes.sample(r) as u64;
                (proto, port, orig, resp)
            }
            Profile::StreamSegment => {
                let resp = 300_000 + (self.web_bytes.sample(r) as u64).min(6_000_000);
                (Proto::Tcp, 443, r.random_range(400..1_200), resp)
            }
            Profile::Poll | Profile::IotBeat => {
                (Proto::Tcp, 443, r.random_range(200..1_500), r.random_range(300..8_000))
            }
            Profile::ConnCheck => (Proto::Tcp, 443, r.random_range(150..400), r.random_range(100..400)),
            Profile::P2pTcp => {
                let resp = self.web_bytes.sample(r) as u64;
                (Proto::Tcp, 1_024 + r.random_range(0..60_000), r.random_range(100..200_000), resp)
            }
            Profile::P2pUdp => (Proto::Udp, 1_024 + r.random_range(0..60_000), r.random_range(100..2_000), r.random_range(100..4_000)),
        }
    }

    /// CDN edge quality by resolver platform (paper §7 / Figure 3 bottom):
    /// Cloudflare's resolver maps small transfers to farther edges; Google
    /// has a slight large-transfer advantage.
    fn edge_multiplier(&self, plat: usize, cdn: bool, resp_bytes: u64) -> f64 {
        if !cdn {
            return 1.0;
        }
        let (small, large) = match plat {
            platform::CLOUDFLARE => (0.55, 1.0),
            platform::GOOGLE => (1.0, 1.35),
            _ => (1.0, 1.0),
        };
        let w = ((resp_bytes as f64).log10() - 4.5) / 2.0;
        let w = w.clamp(0.0, 1.0);
        small * (1.0 - w) + large * w
    }

    fn transfer_duration(&mut self, bytes: u64, mult: f64) -> Duration {
        let rate = self.rate.sample_clamped(&mut self.rng, 2e5, 9e8);
        let xfer = bytes as f64 * 8.0 / rate;
        let floor = self.rng.random_range(0.05..0.4);
        // A worse CDN edge (mult < 1) stretches the whole transaction:
        // longer paths raise both the handshake floor and transfer time.
        Duration::from_secs_f64(((xfer + floor) / mult).min(6.0 * 3_600.0))
    }

    // ---------------- app behaviours ----------------

    fn pick_browse_service(&mut self, h: u32) -> ServiceId {
        if self.rng.random_bool(0.5) {
            let favs = &self.houses[h as usize].favorites;
            favs[self.rng.random_range(0..favs.len())]
        } else {
            self.names.pick_service(&mut self.rng)
        }
    }

    fn ev_browse_session(&mut self, h: u32, d: u32, t: Timestamp) {
        let pages = 1 + (Exponential::new(PAGES_PER_SESSION - 1.0).sample(&mut self.rng)) as u32;
        let svc = self.pick_browse_service(h);
        self.schedule(t, Ev::PageView { h, d, svc, pages_left: pages, via_prefetch: None });
        let factor = self.houses[h as usize].devices[d as usize].browse_gap;
        let next = t + self.gap(SESSION_GAP_SECS * factor, t);
        self.schedule(next, Ev::BrowseSession { h, d });
    }

    fn ev_page_view(&mut self, h: u32, d: u32, svc: ServiceId, pages_left: u32, via: Option<NameId>, t: Timestamp) {
        let main_name = via.unwrap_or_else(|| self.names.primary(svc));
        self.use_and_connect(h, d, main_name, t, Profile::PageMain);

        // Embedded objects: dedup within the page. The name buffer is
        // engine-owned scratch, taken out for the duration of the loop
        // (schedule() needs `&mut self`) and put back afterwards so its
        // capacity is reused by every page view.
        let (lo, hi) = EMBEDDED_NAMES_PER_PAGE;
        let n_embedded = self.rng.random_range(lo..=hi);
        let mut embedded = std::mem::take(&mut self.name_scratch);
        self.names
            .embedded_for_page_into(svc, n_embedded, &mut self.rng, &mut embedded);
        embedded.sort();
        embedded.dedup();
        for &name in &embedded {
            if self.rng.random_bool(0.08) {
                // Below-the-fold object: resolved with the page's
                // dns-prefetch pass, fetched only when scrolled into view.
                let resolve_at = t + self.uniform_dur(0.2, 0.8);
                self.schedule(resolve_at, Ev::Prefetch { h, d, name });
                let fetch_at = t + self.uniform_dur(3.0, 25.0);
                self.schedule(fetch_at, Ev::NameUse { h, d, name, profile: Profile::WebObject });
            } else {
                let at = t + self.uniform_dur(0.05, 1.2);
                self.schedule(at, Ev::NameUse { h, d, name, profile: Profile::WebObject });
            }
        }

        // Speculative link resolution — reuses the same scratch buffer
        // (the embedded loop above is done with it).
        let (plo, phi) = PREFETCH_LINKS_PER_PAGE;
        let n_links = self.rng.random_range(plo..=phi);
        let mut links = embedded;
        links.clear();
        for _ in 0..n_links {
            let target = self.names.pick_link_target(&mut self.rng);
            links.push(target);
        }
        links.sort();
        links.dedup();
        for name in &links {
            let at = t + self.uniform_dur(0.5, 2.5);
            self.schedule(at, Ev::Prefetch { h, d, name: *name });
        }

        if pages_left > 1 {
            let dwell = Duration::from_secs_f64(self.dwell.sample_clamped(&mut self.rng, 3.0, 1_800.0));
            let at = t + dwell;
            let clicked = !links.is_empty() && self.rng.random_bool(P_PREFETCH_CLICK);
            if clicked {
                let target = links[self.rng.random_range(0..links.len())];
                let next_svc = self.names.service_of_primary(target).unwrap_or(svc);
                self.schedule(at, Ev::PageView { h, d, svc: next_svc, pages_left: pages_left - 1, via_prefetch: Some(target) });
            } else {
                let next_svc = if self.rng.random_bool(0.5) {
                    svc
                } else {
                    self.pick_browse_service(h)
                };
                self.schedule(at, Ev::PageView { h, d, svc: next_svc, pages_left: pages_left - 1, via_prefetch: None });
            }
        }
        self.name_scratch = links;
    }

    fn ev_poll(&mut self, h: u32, d: u32, t: Timestamp) {
        let dev = &self.houses[h as usize].devices[d as usize];
        let name = dev.poll_names[self.rng.random_range(0..dev.poll_names.len())];
        if self.rng.random_bool(0.25) {
            // Speculative refresh without a transaction (an unused lookup).
            self.prefetch(h, d, name, t);
        } else {
            self.use_and_connect(h, d, name, t, Profile::Poll);
        }
        let next = t + self.gap(POLL_GAP_SECS, t);
        self.schedule(next, Ev::Poll { h, d });
    }

    fn ev_stream_start(&mut self, h: u32, d: u32, t: Timestamp) {
        let svc = self.pick_browse_service(h);
        let name = self.names.primary(svc);
        let len = Exponential::new(STREAM_LEN_SECS).sample(&mut self.rng);
        let until = t + Duration::from_secs_f64(len.clamp(120.0, 4.0 * 3_600.0));
        // The player resolves the CDN hostname up front, then starts
        // fetching once the UI settles — a natural prefetch.
        self.prefetch(h, d, name, t);
        let first = t + self.uniform_dur(0.5, 3.0);
        self.schedule(first, Ev::StreamSegment { h, d, name, until });
        let next = t + self.gap(STREAM_GAP_SECS, t);
        self.schedule(next, Ev::StreamStart { h, d });
    }

    fn ev_stream_segment(&mut self, h: u32, d: u32, name: NameId, until: Timestamp, t: Timestamp) {
        self.use_and_connect(h, d, name, t, Profile::StreamSegment);
        let gap = self.uniform_dur(STREAM_SEGMENT_GAP_SECS * 0.6, STREAM_SEGMENT_GAP_SECS * 1.6);
        let next = t + gap;
        if next < until {
            self.schedule(next, Ev::StreamSegment { h, d, name, until });
        }
    }

    fn ev_conn_check(&mut self, h: u32, d: u32, t: Timestamp) {
        let cc = self.names.connectivity_check();
        self.use_and_connect(h, d, cc, t, Profile::ConnCheck);
        let next = t + self.gap(CONNECTIVITY_CHECK_GAP_SECS, t);
        self.schedule(next, Ev::ConnCheck { h, d });
    }

    fn ev_p2p_burst(&mut self, h: u32, t: Timestamp) {
        let (lo, hi) = P2P_BURST_CONNS;
        let n = self.rng.random_range(lo..=hi);
        for _ in 0..n {
            let at = t + self.uniform_dur(0.0, 120.0);
            let dst = self.p2p_peers[self.rng.random_range(0..self.p2p_peers.len())];
            let udp = self.rng.random_bool(0.25);
            let profile = if udp { Profile::P2pUdp } else { Profile::P2pTcp };
            let (proto, port, ob, rb) = self.shape(profile);
            let fate = match crate::dists::weighted_index(&mut self.rng, &[0.55, 0.25, 0.20]) {
                0 => ConnFate::Established,
                1 => ConnFate::NoAnswer,
                _ => ConnFate::Refused,
            };
            let duration = if fate == ConnFate::Established {
                self.transfer_duration(ob + rb, 1.0)
            } else {
                Duration::from_secs(if fate == ConnFate::NoAnswer { 3 } else { 0 })
            };
            self.connect_nodns(h, at, dst, port, proto, ob, rb, duration, fate);
        }
        let next = t + self.gap(P2P_BURST_GAP_SECS, t);
        self.schedule(next, Ev::P2pBurst { h });
    }

    fn ev_iot_beat(&mut self, h: u32, d: u32, t: Timestamp) {
        let name = self.houses[h as usize].devices[d as usize].iot_name.unwrap();
        self.use_and_connect(h, d, name, t, Profile::IotBeat);
        let next = t + self.gap(600.0, t);
        self.schedule(next, Ev::IotBeat { h, d });
    }

    fn ev_ntp_probe(&mut self, h: u32, dst: Ipv4Addr, mean_gap: f64, t: Timestamp) {
        self.connect_nodns(h, t, dst, 123, Proto::Udp, 48, 0, Duration::from_secs(2), ConnFate::NoAnswer);
        let next = t + self.gap(mean_gap, t);
        self.schedule(next, Ev::NtpProbe { h, dst, mean_gap });
    }

    fn ev_alarm_beat(&mut self, h: u32, t: Timestamp) {
        let dst = hardcoded::ALARMNET[self.rng.random_range(0..2)];
        let dur = self.uniform_dur(0.2, 2.0);
        let (ob, rb) = (self.rng.random_range(200..600), self.rng.random_range(200..600));
        self.connect_nodns(h, t, dst, 443, Proto::Tcp, ob, rb, dur, ConnFate::Established);
        let next = t + self.gap(600.0, t);
        self.schedule(next, Ev::AlarmBeat { h });
    }
}

/// Diurnal activity multiplier in [0.35, 1.65], peaking in the evening.
fn diurnal(t: Timestamp) -> f64 {
    let secs = t.nanos() as f64 / 1e9;
    let hour = (secs / 3_600.0) % 24.0;
    1.0 + 0.65 * ((std::f64::consts::TAU * (hour - 20.5) / 24.0).cos())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ScaleKnobs;

    fn tiny_cfg() -> WorkloadConfig {
        WorkloadConfig {
            scale: ScaleKnobs { houses: 6, days: 0.1, activity: 1.0 },
            services: 300,
            shared_services: 40,
        }
    }

    /// Lookups summed over every platform's `resolver.<platform>.queries`.
    fn resolver_queries(m: &Metrics) -> u64 {
        m.iter()
            .filter(|(key, _)| key.starts_with("resolver.") && key.ends_with(".queries"))
            .map(|(key, _)| m.counter(key))
            .sum()
    }

    #[test]
    fn diurnal_multiplier_bounded_and_peaks_in_evening() {
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut peak_hour = 0u64;
        for h in 0..24u64 {
            let m = diurnal(Timestamp::from_secs(h * 3_600));
            min = min.min(m);
            max = max.max(m);
            if m == max {
                peak_hour = h;
            }
        }
        assert!(min >= 0.349 && max <= 1.651, "bounds: [{min}, {max}]");
        assert!((1.0 - (min + max) / 2.0).abs() < 0.01, "mean-centred");
        assert!((18..=23).contains(&peak_hour), "peak at {peak_hour}h");
    }

    #[test]
    fn house_port_allocation_cycles() {
        let mut house = House {
            addr: Ipv4Addr::new(10, 77, 0, 1),
            devices: Vec::new(),
            favorites: Vec::new(),
            next_port: 59_998,
            next_dns_id: 0,
        };
        assert_eq!(house.port(), 59_998);
        assert_eq!(house.port(), 59_999);
        assert_eq!(house.port(), 10_000, "wraps to the bottom of the range");
        for _ in 0..100_000 {
            let p = house.port();
            assert!((10_000..=59_999).contains(&p));
        }
    }

    #[test]
    fn run_is_deterministic() {
        let sim = Simulation::new(tiny_cfg(), 42).unwrap();
        let a = sim.run();
        let b = sim.run();
        assert_eq!(a.logs.conns.len(), b.logs.conns.len());
        assert_eq!(a.logs.dns.len(), b.logs.dns.len());
        assert_eq!(a.logs.conns, b.logs.conns);
        assert_eq!(a.logs.dns, b.logs.dns);
    }

    #[test]
    fn different_seeds_differ() {
        let a = Simulation::new(tiny_cfg(), 1).unwrap().run();
        let b = Simulation::new(tiny_cfg(), 2).unwrap().run();
        assert_ne!(a.logs.conns.len(), b.logs.conns.len());
    }

    #[test]
    fn produces_all_ground_truth_classes() {
        let out = Simulation::new(tiny_cfg(), 42).unwrap().run();
        for class in [
            ConnClass::NoDns,
            ConnClass::LocalCache,
            ConnClass::Prefetched,
            ConnClass::SharedCache,
            ConnClass::Resolution,
        ] {
            assert!(
                out.truth.class_count(class) > 0,
                "missing class {:?} in {} conns",
                class,
                out.truth.conns.len()
            );
        }
    }

    #[test]
    fn truth_aligns_with_conn_uids() {
        let out = Simulation::new(tiny_cfg(), 7).unwrap().run();
        assert_eq!(out.truth.conns.len(), out.logs.conns.len());
        for c in &out.logs.conns {
            let t = &out.truth.conns[c.uid as usize];
            assert_eq!(t.ts, c.ts);
            assert_eq!(t.orig_addr, c.id.orig_addr);
            assert_eq!(t.resp_addr, c.id.resp_addr);
            assert_eq!(t.resp_port, c.id.resp_port);
        }
    }

    #[test]
    fn dns_truth_aligns_with_dns_log() {
        let out = Simulation::new(tiny_cfg(), 7).unwrap().run();
        assert_eq!(out.truth.dns.len(), out.logs.dns.len());
    }

    #[test]
    fn blocked_conns_start_shortly_after_lookup() {
        let out = Simulation::new(tiny_cfg(), 42).unwrap().run();
        // Ground-truth SC/R conns must start within ~0.5 s of their lookup
        // completing (app delay is clamped at 400 ms).
        let mut checked = 0;
        for tc in &out.truth.conns {
            if matches!(tc.class, ConnClass::SharedCache | ConnClass::Resolution) {
                // dns truth index ties to dns log index (same emission order).
                let di = tc.dns_index.unwrap();
                let dt = &out.truth.dns[di];
                assert!(tc.ts >= dt.ts, "conn before its lookup");
                assert!(tc.ts.since(dt.ts) < Duration::from_secs(3));
                checked += 1;
            }
        }
        assert!(checked > 50, "not enough blocked conns to check: {checked}");
    }

    #[test]
    fn stale_flags_only_on_cache_classes() {
        let out = Simulation::new(tiny_cfg(), 42).unwrap().run();
        for tc in &out.truth.conns {
            if tc.stale {
                assert!(matches!(tc.class, ConnClass::LocalCache | ConnClass::Prefetched));
            }
        }
    }

    #[test]
    fn platform_stats_cover_all_queries() {
        let out = Simulation::new(tiny_cfg(), 42).unwrap().run();
        let total = resolver_queries(&out.metrics);
        assert_eq!(total as usize, out.logs.dns.len());
        // Local must dominate.
        assert!(out.metrics.counter("resolver.local.queries") > total / 3);
    }

    #[test]
    fn timestamps_within_trace_window() {
        let cfg = tiny_cfg();
        let end = Timestamp::from_secs(EPOCH_UNIX) + Duration::from_secs_f64(cfg.scale.duration_secs());
        let out = Simulation::new(cfg, 42).unwrap().run();
        for c in &out.logs.conns {
            assert!(c.ts >= Timestamp::from_secs(EPOCH_UNIX));
            // Starts are bounded by end + blocked-start slack.
            assert!(c.ts <= end + Duration::from_secs(5), "conn at {}", c.ts);
        }
    }

    #[test]
    fn shard_spans_partition_houses() {
        for houses in [1, 6, 24, 25, 26, 50, 99, 100, 101, 250] {
            let spans = shard_spans(houses);
            assert!(!spans.is_empty());
            assert_eq!(spans[0].start, 0);
            assert_eq!(spans.last().unwrap().end, houses);
            for w in spans.windows(2) {
                assert_eq!(w[0].end, w[1].start, "contiguous");
                // Balanced: lengths differ by at most one.
                assert!(w[0].len().abs_diff(w[1].len()) <= 1);
            }
            assert!(spans.iter().all(|s| s.len() <= HOUSES_PER_SHARD));
        }
    }

    /// The headline determinism guarantee: the thread count changes only
    /// wall-clock time, never a byte of output — logs, ground truth, and
    /// the per-platform tally all match between a 1-thread and an
    /// N-thread run of a multi-shard config.
    #[test]
    fn sim_metrics_match_output_and_platform_stats() {
        let out = Simulation::new(tiny_cfg(), 42).unwrap().run();
        let m = &out.metrics;
        assert_eq!(m.counter("sim.houses"), 6);
        assert_eq!(m.counter("sim.conns"), out.truth.conns.len() as u64);
        assert_eq!(m.counter("sim.dns_lookups"), out.truth.dns.len() as u64);
        assert!(m.counter("sim.events") >= m.counter("sim.conns"));
        // Every configured platform carries its tally, used or not.
        for p in &PLATFORMS {
            let key = p.name.to_ascii_lowercase();
            let queries = format!("resolver.{key}.queries");
            assert!(m.get(&queries).is_some(), "{queries} missing");
            assert!(m.counter(&format!("resolver.{key}.hits")) <= m.counter(&queries));
        }
        assert_eq!(resolver_queries(m), m.counter("sim.dns_lookups"));
    }

    #[test]
    fn thread_count_does_not_change_output() {
        let cfg = WorkloadConfig {
            scale: ScaleKnobs { houses: 30, days: 0.05, activity: 1.0 },
            services: 300,
            shared_services: 40,
        };
        assert!(shard_spans(cfg.scale.houses).len() > 1, "config must span shards");
        let seq = Simulation::new(cfg.clone(), 11).unwrap().with_threads(1).run();
        let par = Simulation::new(cfg, 11).unwrap().with_threads(4).run();
        assert_eq!(seq.logs.conns, par.logs.conns);
        assert_eq!(seq.logs.dns, par.logs.dns);
        assert_eq!(seq.metrics.to_json(), par.metrics.to_json(), "obs snapshot must be thread-invariant");
        assert_eq!(seq.truth.conns.len(), par.truth.conns.len());
        for (a, b) in seq.truth.conns.iter().zip(&par.truth.conns) {
            assert_eq!(a.class, b.class);
            assert_eq!(a.dns_index, b.dns_index);
            assert_eq!(a.ts, b.ts);
        }
        for (a, b) in seq.truth.dns.iter().zip(&par.truth.dns) {
            assert_eq!(a.ts, b.ts);
            assert_eq!(a.shared_cache_hit, b.shared_cache_hit);
        }
    }

    #[test]
    fn thread_count_does_not_change_pcap_bytes() {
        let cfg = WorkloadConfig {
            scale: ScaleKnobs { houses: 30, days: 0.02, activity: 1.0 },
            services: 200,
            shared_services: 30,
        };
        let mut seq_buf = Vec::new();
        let mut par_buf = Vec::new();
        Simulation::new(cfg.clone(), 3).unwrap().with_threads(1).run_pcap(&mut seq_buf, 600).unwrap();
        Simulation::new(cfg, 3).unwrap().with_threads(4).run_pcap(&mut par_buf, 600).unwrap();
        assert_eq!(seq_buf, par_buf, "pcap byte streams must be identical");
    }

    #[test]
    fn sharded_run_uses_all_houses() {
        // 30 houses across 2 shards: every house address must appear in
        // the logs, and addresses must cover exactly the configured range.
        let cfg = WorkloadConfig {
            scale: ScaleKnobs { houses: 30, days: 0.05, activity: 1.0 },
            services: 300,
            shared_services: 40,
        };
        let out = Simulation::new(cfg, 42).unwrap().run();
        let mut seen: std::collections::BTreeSet<Ipv4Addr> = std::collections::BTreeSet::new();
        for c in &out.logs.conns {
            seen.insert(c.id.orig_addr);
        }
        let expected: std::collections::BTreeSet<Ipv4Addr> = (0..30u32)
            .map(|hi| Ipv4Addr::from(u32::from(Ipv4Addr::new(10, 77, 0, 0)) + hi + 1))
            .collect();
        assert_eq!(seen, expected);
    }

    #[test]
    fn pcap_mode_round_trips_through_monitor() {
        let cfg = WorkloadConfig {
            scale: ScaleKnobs { houses: 3, days: 0.02, activity: 1.0 },
            services: 100,
            shared_services: 20,
        };
        let sim = Simulation::new(cfg.clone(), 5).unwrap();
        let direct = sim.run();
        let mut buf = Vec::new();
        let (truth, frames) = sim.run_pcap(&mut buf, 600).unwrap();
        assert!(frames > 100);
        assert_eq!(truth.conns.len(), direct.truth.conns.len());
        let logs = zeek_lite::Monitor::process_pcap(&buf[..], zeek_lite::MonitorConfig::default()).unwrap();
        // The monitor's app-conn count must match the direct backend.
        assert_eq!(logs.app_conns().count(), direct.logs.conns.len());
        assert_eq!(logs.dns.len(), direct.logs.dns.len());
        // Byte totals agree.
        let direct_bytes: u64 = direct.logs.conns.iter().map(|c| c.total_bytes()).sum();
        let pcap_bytes: u64 = logs.app_conns().map(|c| c.total_bytes()).sum();
        assert_eq!(direct_bytes, pcap_bytes);
    }
}
