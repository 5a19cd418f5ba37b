//! Streaming bounded-memory pipeline: the whole packet→log→pairing→
//! classification path driven in time windows ("epochs") with explicit
//! state eviction, so peak memory is O(window), not O(trace).
//!
//! # Model
//!
//! Frames are fed to an embedded [`zeek_lite::Monitor`] one epoch at a
//! time. At each epoch boundary the engine computes two *watermarks*:
//!
//! - `w_dns  = min(oldest pending DNS query, epoch end)` — every DNS row
//!   the monitor will emit in the future carries a query timestamp at or
//!   after this instant (responses and timeouts inherit the query stamp).
//! - `w_conn = min(oldest active flow start, epoch end)` — every future
//!   connection record starts at or after this instant.
//!
//! Rows stamped strictly before their watermark are *released*: sorted
//! into the canonical log order ([`zeek_lite::Logs::sort`]'s total order)
//! and flushed downstream. Because later releases can only contain rows
//! at or after the previous watermark, the concatenation of all released
//! blocks *is* the batch-sorted log, byte for byte — for any window size.
//!
//! `w_conn <= w_dns` always holds: a pending DNS query's own UDP flow is
//! still active (the flow-timeout exceeds the query timeout and both
//! sweeps fire on the same frames), so released connections only ever
//! look up lookups that have already been released into the pairing
//! index. The index assigns each released row its batch `dns_idx`
//! ordinal, which makes candidate selection — `partition_point` on
//! `(completed, dns_idx)` order, most-recent-live or expired-fallback —
//! identical to [`Pairing::build`] over the full logs.
//!
//! # Eviction
//!
//! An index entry can be dropped once it is expired for every future
//! connection (`expires <= w_conn`) *and* a newer entry under the same
//! `(client, address)` key has already completed (`completed <= w_conn`),
//! because the batch pairing would always prefer that newer entry, live
//! or as the expired fallback. The newest entry per key is never dropped
//! — the expired-fallback rule can reach arbitrarily far back — so the
//! irreducible residue is O(distinct (client, address) pairs), not
//! O(lookups). Per-lookup claim state (first-use) is reference-counted
//! and freed when a lookup's last index entry goes.
//!
//! # Deferred SC/R split
//!
//! The per-resolver SC/R thresholds need the *whole* trace (minimum
//! observed duration and lookup count per resolver), so blocked
//! connections cannot be split into `SC`/`R` at release time. Instead the
//! engine folds, per resolver, the threshold inputs online plus a
//! bucketed count of blocked-lookup durations (integer ceil-milliseconds
//! — exact, because derived thresholds are whole milliseconds) and an
//! exact `<= floor` count for resolvers that end below `min_lookups`.
//! [`StreamEngine::finish`] settles the split; `N`/`LC`/`P` counts,
//! pairing outcomes, and every histogram are folded at release time.
//!
//! # Assumptions
//!
//! - Frame timestamps are monotone non-decreasing (true for the
//!   simulator's captures; disordered input degrades the watermarks to
//!   conservative — rows release later — never to incorrect).
//! - The pairing policy is [`PairingPolicy::MostRecent`]. The random
//!   policy draws from one RNG in conn order interleaved with index
//!   state, which has no bounded-memory equivalent; `new` asserts this.

use crate::classify::ThresholdRule;
use crate::pairing::PairingPolicy;
use crate::{AnalysisConfig, ClassCounts};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::net::Ipv4Addr;
use xkit::obs::{HistSpec, Metrics};
use zeek_lite::{ConnRecord, DnsTransaction, Duration, Monitor, MonitorConfig, Timestamp};

/// One lookup's relevance to one `(client, address)` key, carrying enough
/// of the transaction to classify a released connection without retaining
/// the DNS log itself.
#[derive(Debug, Clone, Copy)]
struct StreamEntry {
    completed: Timestamp,
    expires: Timestamp,
    /// The lookup's position in the (virtual) batch dns.log.
    dns_idx: usize,
    resolver: Ipv4Addr,
    rtt: Duration,
}

/// Per-resolver accumulators: threshold inputs plus the deferred SC/R
/// bucket counts. Bounded by the resolver population, not the trace.
#[derive(Debug, Default)]
struct ResolverAcc {
    /// Minimum observed lookup duration, ms (threshold anchor).
    min_ms: f64,
    /// Answered lookups seen (threshold eligibility).
    answered: usize,
    /// Blocked-connection lookup durations, bucketed by ceil-milliseconds.
    blocked_ceil_ms: BTreeMap<u64, u64>,
    /// Blocked connections with duration `<= floor` (used when the
    /// resolver ends below `min_lookups`).
    blocked_le_floor: u64,
    /// All blocked connections attributed to this resolver.
    blocked_total: u64,
}

impl ResolverAcc {
    fn new() -> ResolverAcc {
        ResolverAcc { min_ms: f64::INFINITY, ..ResolverAcc::default() }
    }
}

/// A released connection's pairing outcome, before the sequential
/// first-use / metrics fold (pure function of the index, so it can be
/// computed in parallel).
#[derive(Debug, Clone, Copy)]
struct PairedLite {
    dns_idx: Option<usize>,
    gap: Duration,
    expired: bool,
    resolver: Ipv4Addr,
    rtt: Duration,
}

/// The rows released at one epoch boundary, in canonical log order.
/// Concatenating every epoch's output (plus [`StreamEngine::finish`]'s
/// tail) reproduces the batch logs byte-for-byte.
#[derive(Debug, Default)]
pub struct EpochOutput {
    /// Connection records released this epoch, `(ts, uid)`-sorted.
    pub conns: Vec<ConnRecord>,
    /// DNS rows released this epoch, in [`DnsTransaction::log_order`].
    pub dns: Vec<DnsTransaction>,
}

/// What a completed streaming run settles to.
#[derive(Debug)]
pub struct StreamResult {
    /// Rows still held when the input ended (the final release).
    pub tail: EpochOutput,
    /// The analysis snapshot: byte-identical to the batch pipeline's
    /// `logs.metrics()` merged with `Analysis::metrics()`.
    pub analysis_metrics: Metrics,
    /// The engine's own `stream.*` counters and peak gauges.
    pub stream_metrics: Metrics,
    /// Table 2 counts (SC/R settled from the deferred buckets).
    pub class_counts: ClassCounts,
    /// Derived per-resolver SC/R thresholds.
    pub thresholds: HashMap<Ipv4Addr, Duration>,
}

impl StreamResult {
    /// The settled snapshot: `analysis_metrics` merged with
    /// `stream_metrics` — exactly what `finish()` publishes to the hub,
    /// and what the serve daemon folds per tenant into its aggregate.
    /// Key spaces are disjoint, so the merge is a plain union.
    pub fn settled_metrics(&self) -> Metrics {
        let mut all = self.analysis_metrics.clone();
        all.merge(&self.stream_metrics);
        all
    }
}

/// The streaming engine: feed frames, close epochs, finish.
///
/// ```
/// use dns_context::{stream::StreamEngine, AnalysisConfig};
/// use zeek_lite::MonitorConfig;
///
/// let mut engine = StreamEngine::new(MonitorConfig::default(), AnalysisConfig::default());
/// // for each epoch: engine.handle_frame(...) per frame, then
/// let released = engine.end_epoch(None);
/// assert!(released.conns.is_empty());
/// let result = engine.finish();
/// assert_eq!(result.class_counts.total(), 0);
/// ```
pub struct StreamEngine {
    monitor: Monitor,
    cfg: AnalysisConfig,
    floor: Duration,
    /// Completed-but-unreleased rows; bounded by the window, not the trace.
    buf_conns: Vec<ConnRecord>,
    buf_dns: Vec<DnsTransaction>,
    /// The streaming pairing index, per-key sorted by `(completed, dns_idx)`.
    index: HashMap<(Ipv4Addr, Ipv4Addr), Vec<StreamEntry>>,
    live_entries: u64,
    /// dns_idx → number of live index entries referencing it.
    refcount: HashMap<usize, usize>,
    /// Lookups already claimed by a first-use connection.
    claimed: HashSet<usize>,
    next_dns_idx: usize,
    resolvers: HashMap<Ipv4Addr, ResolverAcc>,
    /// Incrementally folded counters and histograms (`pair.*`, `perf.*`,
    /// `zeek.dns_rtt_ms`, class N/LC/P).
    acc: Metrics,
    class_no_dns: u64,
    class_local_cache: u64,
    class_prefetched: u64,
    released_conns: u64,
    released_dns: u64,
    released_app: u64,
    paired: u64,
    epochs: u64,
    evicted_answers: u64,
    evicted_flows: u64,
    peak_live_flows: u64,
    peak_live_answers: u64,
    /// Live observability plane, when attached: prefix snapshots publish
    /// here at every epoch boundary and notable moments hit its flight
    /// recorder. `None` costs nothing on the frame path.
    hub: Option<xkit::obs::ObsHub>,
}

impl StreamEngine {
    /// Build an engine. Panics on [`PairingPolicy::RandomNonExpired`],
    /// which has no bounded-memory equivalent (see module docs).
    pub fn new(monitor: MonitorConfig, cfg: AnalysisConfig) -> StreamEngine {
        assert!(
            matches!(cfg.policy, PairingPolicy::MostRecent),
            "streaming supports the MostRecent pairing policy only"
        );
        let floor = Duration::from_secs_f64(cfg.threshold_rule.floor_ms / 1e3);
        StreamEngine {
            monitor: Monitor::new(monitor),
            cfg,
            floor,
            buf_conns: Vec::new(),
            buf_dns: Vec::new(),
            index: HashMap::new(),
            live_entries: 0,
            refcount: HashMap::new(),
            claimed: HashSet::new(),
            next_dns_idx: 0,
            resolvers: HashMap::new(),
            acc: Metrics::new(),
            class_no_dns: 0,
            class_local_cache: 0,
            class_prefetched: 0,
            released_conns: 0,
            released_dns: 0,
            released_app: 0,
            paired: 0,
            epochs: 0,
            evicted_answers: 0,
            evicted_flows: 0,
            peak_live_flows: 0,
            peak_live_answers: 0,
            hub: None,
        }
    }

    /// Attach a live observability hub: the embedded monitor feeds the
    /// hub's flight recorder (`fault.reject`/`parse.degrade`), the engine
    /// records `epoch.release`/`state.evict` events, and every epoch
    /// boundary publishes a snapshot that is a valid prefix of the final
    /// metrics (all counters monotone; finish-only keys — the settled
    /// SC/R split and per-resolver thresholds — stay absent mid-run).
    pub fn set_hub(&mut self, hub: xkit::obs::ObsHub) {
        self.monitor.set_flight(hub.flight().clone());
        self.hub = Some(hub);
    }

    /// Fold current state into the hub (no-op without one). Published
    /// counters are the already-folded accumulators, so a scrape between
    /// two epochs never exceeds the final value of any counter and the
    /// degradation identities hold at every instant; the `stream.live_*`
    /// and `stream.w_*` gauges are point-in-time readings.
    fn publish_live(&self, w_conn: Timestamp, w_dns: Timestamp) {
        let Some(hub) = &self.hub else { return };
        let mut m = self.monitor.live_metrics();
        m.add("zeek.conn_rows", self.released_conns);
        m.add("zeek.dns_rows", self.released_dns);
        m.add("zeek.app_conns", self.released_app);
        m.merge(&self.acc);
        m.add("cover.app_conns", self.released_app);
        m.add("cover.paired", self.paired);
        m.add("class.no_dns", self.class_no_dns);
        m.add("class.local_cache", self.class_local_cache);
        m.add("class.prefetched", self.class_prefetched);
        m.add("stream.epochs", self.epochs);
        m.add("stream.evicted_answers", self.evicted_answers);
        m.add("stream.evicted_flows", self.evicted_flows);
        m.gauge_max("stream.peak_live_flows", self.peak_live_flows as f64);
        m.gauge_max("stream.peak_live_answers", self.peak_live_answers as f64);
        let (flows, answers) = self.live_state();
        m.gauge_max("stream.live_flows", flows as f64);
        m.gauge_max("stream.live_answers", answers as f64);
        m.gauge_max("stream.w_conn_s", w_conn.0 as f64 / 1e9);
        m.gauge_max("stream.w_dns_s", w_dns.0 as f64 / 1e9);
        hub.publish_metrics(m);
    }

    /// Feed one captured frame to the embedded monitor.
    pub fn handle_frame(&mut self, ts: Timestamp, captured: &[u8], orig_len: u32) {
        self.monitor.handle_frame(ts, captured, orig_len);
    }

    /// Close the current epoch. `boundary` is the epoch's exclusive end
    /// (`None` for an unwindowed run, which releases nothing until
    /// [`finish`](StreamEngine::finish)). Returns the rows released by
    /// the watermarks; the engine retains nothing about them beyond the
    /// folded counters.
    pub fn end_epoch(&mut self, boundary: Option<Timestamp>) -> EpochOutput {
        self.epochs += 1;
        self.buf_conns.extend(self.monitor.drain_conns());
        self.buf_dns.extend(self.monitor.drain_dns());

        // High-water marks over everything currently held in memory,
        // measured before the release empties the buffers.
        let live_flows = self.monitor.active_flows() as u64 + self.buf_conns.len() as u64;
        self.peak_live_flows = self.peak_live_flows.max(live_flows);
        // Answers are counted per *lookup* (a multi-address response pins
        // one row however many index entries it fans out to), so the peak
        // compares directly against the full-trace dns.log row count.
        let live_answers = self.refcount.len() as u64
            + self.buf_dns.len() as u64
            + self.monitor.pending_dns() as u64;
        self.peak_live_answers = self.peak_live_answers.max(live_answers);

        let cap = boundary.unwrap_or(Timestamp::ZERO);
        if boundary.is_none() {
            // Unwindowed: nothing is safe to release before end of input,
            // but the live plane still sees the folded counters.
            self.publish_live(Timestamp::ZERO, Timestamp::ZERO);
            return EpochOutput::default();
        }
        let w_dns = self.monitor.oldest_pending_dns_ts().map_or(cap, |t| t.min(cap));
        let w_conn = self.monitor.oldest_active_flow_start().map_or(cap, |t| t.min(cap));
        // The invariant w_conn <= w_dns holds for monotone input (module
        // docs); the clamp keeps disordered input conservative.
        let w_conn = w_conn.min(w_dns);
        let evicted_before = self.evicted_answers;
        let out = self.release(w_conn, w_dns);
        self.evicted_flows += out.conns.len() as u64;
        self.evict(w_conn);
        if let Some(hub) = &self.hub {
            hub.flight().record(
                "epoch.release",
                format!(
                    "epoch {}: {} conn + {} dns rows",
                    self.epochs,
                    out.conns.len(),
                    out.dns.len()
                ),
                (out.conns.len() + out.dns.len()) as f64,
            );
            let evicted = self.evicted_answers - evicted_before;
            if evicted > 0 {
                hub.flight().record(
                    "state.evict",
                    format!("epoch {}: index entries dropped", self.epochs),
                    evicted as f64,
                );
            }
        }
        self.publish_live(w_conn, w_dns);
        out
    }

    /// Flush everything: drain the monitor, release all remaining rows,
    /// settle the deferred SC/R split, and assemble both snapshots.
    pub fn finish(mut self) -> StreamResult {
        let monitor =
            std::mem::replace(&mut self.monitor, Monitor::new(MonitorConfig::default()));
        let residual = monitor.finish();
        let zeek_lite::Logs { conns, dns, stats, degradation } = residual;
        self.buf_conns.extend(conns);
        self.buf_dns.extend(dns);
        let tail = self.release(Timestamp(u64::MAX), Timestamp(u64::MAX));

        // Settle the deferred SC/R split from the per-resolver buckets.
        let rule: ThresholdRule = self.cfg.threshold_rule;
        let mut thresholds: HashMap<Ipv4Addr, Duration> = HashMap::new();
        let mut shared_cache = 0u64;
        let mut resolution = 0u64;
        // lint: allow(no-map-iteration): order-insensitive integer folds per resolver
        for (addr, acc) in &self.resolvers {
            if acc.answered >= rule.min_lookups {
                let thr_ms = (acc.min_ms * rule.mult + rule.add_ms).max(rule.floor_ms).ceil();
                thresholds.insert(*addr, Duration::from_secs_f64(thr_ms / 1e3));
                // Derived thresholds are whole milliseconds, so
                // `dur <= thr` is exactly `ceil_ms(dur) <= thr_ms`.
                let sc: u64 = acc.blocked_ceil_ms.range(..=thr_ms as u64).map(|(_, n)| n).sum();
                shared_cache += sc;
                resolution += acc.blocked_total - sc;
            } else {
                shared_cache += acc.blocked_le_floor;
                resolution += acc.blocked_total - acc.blocked_le_floor;
            }
        }
        let class_counts = ClassCounts {
            no_dns: self.class_no_dns as usize,
            local_cache: self.class_local_cache as usize,
            prefetched: self.class_prefetched as usize,
            shared_cache: shared_cache as usize,
            resolution: resolution as usize,
        };

        // The analysis snapshot, assembled to match the batch pipeline's
        // `logs.metrics()` merged with `Analysis::metrics()` exactly.
        let mut m = stats.to_metrics();
        m.merge(&degradation.to_metrics());
        m.add("zeek.conn_rows", self.released_conns);
        m.add("zeek.dns_rows", self.released_dns);
        m.add("zeek.app_conns", self.released_app);
        // The batch snapshot always carries this key, even at zero.
        m.add("perf.blocked_conns", 0);
        m.merge(&self.acc);
        m.gauge_max("cover.frame_acceptance", degradation.frame_acceptance());
        m.gauge_max("cover.dns_acceptance", degradation.dns_acceptance());
        m.add("cover.app_conns", self.released_app);
        m.add("cover.paired", self.paired);
        m.add("class.no_dns", self.class_no_dns);
        m.add("class.local_cache", self.class_local_cache);
        m.add("class.prefetched", self.class_prefetched);
        m.add("class.shared_cache", shared_cache);
        m.add("class.resolution", resolution);
        m.add("threshold.resolvers", thresholds.len() as u64);
        // lint: allow(no-map-iteration): one metrics key per map key; Metrics stores sorted
        for (addr, thr) in &thresholds {
            m.gauge_max(&format!("threshold.{addr}.ms"), thr.as_millis_f64());
        }

        let mut s = Metrics::new();
        s.add("stream.epochs", self.epochs);
        s.add("stream.evicted_answers", self.evicted_answers);
        s.add("stream.evicted_flows", self.evicted_flows);
        s.gauge_max("stream.peak_live_flows", self.peak_live_flows as f64);
        s.gauge_max("stream.peak_live_answers", self.peak_live_answers as f64);

        // The last published snapshot is the settled one: every mid-run
        // scrape was a prefix of it.
        if let Some(hub) = &self.hub {
            let mut all = m.clone();
            all.merge(&s);
            hub.publish_metrics(all);
        }

        StreamResult {
            tail,
            analysis_metrics: m,
            stream_metrics: s,
            class_counts,
            thresholds,
        }
    }

    /// Release buffered rows below the watermarks: DNS first (the index
    /// must contain every lookup a released connection could pair with),
    /// then connections.
    fn release(&mut self, w_conn: Timestamp, w_dns: Timestamp) -> EpochOutput {
        let (mut dns_out, keep): (Vec<_>, Vec<_>) =
            std::mem::take(&mut self.buf_dns).into_iter().partition(|d| d.ts < w_dns);
        self.buf_dns = keep;
        dns_out.sort_by(DnsTransaction::log_order);
        for txn in &dns_out {
            self.ingest_dns(txn);
        }

        let (mut conn_out, keep): (Vec<_>, Vec<_>) =
            std::mem::take(&mut self.buf_conns).into_iter().partition(|c| c.ts < w_conn);
        self.buf_conns = keep;
        conn_out.sort_by_key(|c| (c.ts, c.uid));
        self.absorb_conns(&conn_out);

        EpochOutput { conns: conn_out, dns: dns_out }
    }

    /// Give one released DNS row its batch ordinal and fold it into the
    /// index, the threshold accumulators, and the RTT histogram.
    fn ingest_dns(&mut self, txn: &DnsTransaction) {
        self.released_dns += 1;
        let idx = self.next_dns_idx;
        self.next_dns_idx += 1;
        if let Some(rtt) = txn.rtt {
            self.acc.observe_with("zeek.dns_rtt_ms", HistSpec::time_ms(), rtt.as_millis_f64());
            let acc = self.resolvers.entry(txn.resolver).or_insert_with(ResolverAcc::new);
            acc.min_ms = acc.min_ms.min(rtt.as_millis_f64());
            acc.answered += 1;
        }
        let (Some(completed), Some(expires)) = (txn.completed_at(), txn.expires_at()) else {
            return;
        };
        let rtt = txn.rtt.expect("completed lookups are answered");
        for addr in txn.addrs() {
            let entries = self.index.entry((txn.client, addr)).or_default();
            let pos = entries.partition_point(|e| (e.completed, e.dns_idx) <= (completed, idx));
            entries.insert(
                pos,
                StreamEntry { completed, expires, dns_idx: idx, resolver: txn.resolver, rtt },
            );
            self.live_entries += 1;
            *self.refcount.entry(idx).or_insert(0) += 1;
        }
    }

    /// Pair one application connection against the index — the exact
    /// per-connection rule of [`Pairing::build`], over released lookups.
    fn pair_conn(
        index: &HashMap<(Ipv4Addr, Ipv4Addr), Vec<StreamEntry>>,
        conn: &ConnRecord,
    ) -> PairedLite {
        let unpaired = PairedLite {
            dns_idx: None,
            gap: Duration::ZERO,
            expired: false,
            resolver: Ipv4Addr::UNSPECIFIED,
            rtt: Duration::ZERO,
        };
        let Some(entries) = index.get(&(conn.id.orig_addr, conn.id.resp_addr)) else {
            return unpaired;
        };
        let upto = entries.partition_point(|e| e.completed <= conn.ts);
        if upto == 0 {
            return unpaired;
        }
        let prior = &entries[..upto];
        // Streaming is MostRecent-only, so one reverse scan for the newest
        // live entry replaces collecting candidates into a Vec.
        let last_live = prior.iter().rev().find(|e| e.expires > conn.ts);
        let (chosen, expired) = if let Some(last_live) = last_live {
            (*last_live, false)
        } else {
            (*prior.last().expect("upto > 0"), true)
        };
        PairedLite {
            dns_idx: Some(chosen.dns_idx),
            gap: conn.ts.since(chosen.completed),
            expired,
            resolver: chosen.resolver,
            rtt: chosen.rtt,
        }
    }

    /// Fold a `(ts, uid)`-sorted release batch of connections into the
    /// pairing/classification accumulators. Candidate lookup fans out
    /// over the configured worker threads (a pure read of the index);
    /// the first-use claim pass and the metric folds stay sequential, so
    /// results are identical for every thread count.
    fn absorb_conns(&mut self, conns: &[ConnRecord]) {
        self.released_conns += conns.len() as u64;
        let app: Vec<&ConnRecord> = conns.iter().filter(|c| !c.is_dns()).collect();
        if app.is_empty() {
            return;
        }
        let index = &self.index;
        let workers = xkit::par::resolve_threads(self.cfg.threads).min(app.len());
        let lite: Vec<PairedLite> = if workers <= 1 {
            app.iter().map(|c| Self::pair_conn(index, c)).collect()
        } else {
            let chunks: Vec<&[&ConnRecord]> = app.chunks(app.len().div_ceil(workers)).collect();
            xkit::par::par_map(self.cfg.threads, chunks, |_, chunk| {
                chunk.iter().map(|c| Self::pair_conn(index, c)).collect::<Vec<PairedLite>>()
            })
            .into_iter()
            .flatten()
            .collect()
        };

        let mut hit = 0u64;
        let mut fallback = 0u64;
        let mut miss = 0u64;
        let mut first_uses = 0u64;
        for p in &lite {
            self.released_app += 1;
            let Some(di) = p.dns_idx else {
                miss += 1;
                self.class_no_dns += 1;
                continue;
            };
            self.paired += 1;
            if p.expired {
                fallback += 1;
            } else {
                hit += 1;
            }
            self.acc.observe_with("pair.gap_ms", HistSpec::time_ms(), p.gap.as_millis_f64());
            let first_use = self.claimed.insert(di);
            first_uses += u64::from(first_use);
            if p.gap > self.cfg.block_threshold {
                if first_use {
                    self.class_prefetched += 1;
                } else {
                    self.class_local_cache += 1;
                }
            } else {
                // Blocked: SC vs R settles at finish; everything else
                // about the connection is already known.
                self.acc.add("perf.blocked_conns", 1);
                self.acc.observe_with(
                    "perf.blocked_dns_ms",
                    HistSpec::time_ms(),
                    p.rtt.as_millis_f64(),
                );
                let acc = self.resolvers.entry(p.resolver).or_insert_with(ResolverAcc::new);
                acc.blocked_total += 1;
                *acc.blocked_ceil_ms.entry(p.rtt.nanos().div_ceil(1_000_000)).or_insert(0) += 1;
                if p.rtt <= self.floor {
                    acc.blocked_le_floor += 1;
                }
            }
        }
        self.acc.add("pair.hit", hit);
        self.acc.add("pair.fallback", fallback);
        self.acc.add("pair.miss", miss);
        self.acc.add("pair.first_use", first_uses);
        self.acc.add("pair.app_conns", app.len() as u64);
    }

    /// Drop index entries no future connection can pair with (module
    /// docs), releasing per-lookup claim state when the last entry goes.
    fn evict(&mut self, w: Timestamp) {
        let mut dropped: Vec<usize> = Vec::new();
        // lint: allow(no-map-iteration): each key's run is pruned independently
        for entries in self.index.values_mut() {
            let cut = entries.partition_point(|e| e.completed <= w);
            if cut < 2 {
                // No entry has both a newer completed witness and a
                // position before it.
                continue;
            }
            let last_keep = cut - 1;
            let mut pos = 0usize;
            entries.retain(|e| {
                let gone = pos < last_keep && e.expires <= w;
                pos += 1;
                if gone {
                    dropped.push(e.dns_idx);
                }
                !gone
            });
        }
        for di in dropped {
            self.evicted_answers += 1;
            self.live_entries -= 1;
            let rc = self.refcount.get_mut(&di).expect("evicted entries are refcounted");
            *rc -= 1;
            if *rc == 0 {
                self.refcount.remove(&di);
                self.claimed.remove(&di);
            }
        }
    }

    /// Live state right now: `(flows, answers)` — tracker + buffered
    /// connections, and pinned + buffered + pending DNS lookups.
    pub fn live_state(&self) -> (u64, u64) {
        (
            self.monitor.active_flows() as u64 + self.buf_conns.len() as u64,
            self.refcount.len() as u64
                + self.buf_dns.len() as u64
                + self.monitor.pending_dns() as u64,
        )
    }
}

/// Drive any [`pcapio::RecordSource`] — file reader, in-memory ring, or
/// live interface — through a [`StreamEngine`] in `window`-sized epochs,
/// handing each epoch's released rows to `sink`. A zero `window` runs a
/// single epoch (everything releases at
/// [`finish`](StreamEngine::finish), as in the batch pipeline).
///
/// This is the streaming counterpart of `Monitor::process_source`
/// followed by `Analysis::run`: same rows, same metrics, O(window) peak
/// memory.
pub fn process_source<S: pcapio::RecordSource + ?Sized>(
    source: &mut S,
    window: Duration,
    monitor: MonitorConfig,
    cfg: AnalysisConfig,
    sink: impl FnMut(EpochOutput),
) -> Result<StreamResult, pcapio::PcapError> {
    process_source_observed(source, window, monitor, cfg, None, sink)
}

/// [`process_source`] with an optional live observability hub attached to
/// the engine (see [`StreamEngine::set_hub`]): every epoch boundary
/// publishes a prefix snapshot and feeds the hub's flight recorder, so an
/// HTTP scrape at any instant sees internally consistent counters.
pub fn process_source_observed<S: pcapio::RecordSource + ?Sized>(
    source: &mut S,
    window: Duration,
    monitor: MonitorConfig,
    cfg: AnalysisConfig,
    hub: Option<&xkit::obs::ObsHub>,
    mut sink: impl FnMut(EpochOutput),
) -> Result<StreamResult, pcapio::PcapError> {
    let mut engine = StreamEngine::new(monitor, cfg);
    if let Some(hub) = hub {
        engine.set_hub(hub.clone());
    }
    let window_nanos = window.nanos();
    // Epoch windowing over the source's borrowed records (the frames
    // feed the engine immediately, so nothing needs to be owned) — the
    // workspace's one copy of the rule: epoch k covers
    // [k*window, (k+1)*window) ns, the epoch index is clamped monotone on
    // disordered input, the first record opens its own epoch, window 0 is
    // a single epoch with no boundary, and a read error ends the stream
    // after the records already consumed (the failing record is counted
    // in `capture.frames_rejected`).
    let mut current_epoch = 0u64;
    let mut started = false;
    loop {
        let rec = match source.next() {
            Ok(Some(rec)) => rec,
            Ok(None) | Err(_) => break,
        };
        let e = if window_nanos == 0 {
            0
        } else {
            (rec.ts_nanos / window_nanos).max(current_epoch)
        };
        if !started {
            started = true;
            current_epoch = e;
        } else if e != current_epoch {
            let boundary = Some(Timestamp((current_epoch + 1).saturating_mul(window_nanos)));
            sink(engine.end_epoch(boundary));
            current_epoch = e;
        }
        engine.handle_frame(Timestamp(rec.ts_nanos), rec.data, rec.orig_len);
    }
    if started {
        let boundary = if window_nanos == 0 {
            None
        } else {
            Some(Timestamp((current_epoch + 1).saturating_mul(window_nanos)))
        };
        sink(engine.end_epoch(boundary));
    }
    Ok(engine.finish())
}

/// The file-backend spelling of [`process_source`]: parse the pcap
/// global header from `input` and stream the records through the engine.
pub fn process_pcap<R: std::io::Read>(
    input: R,
    window: Duration,
    monitor: MonitorConfig,
    cfg: AnalysisConfig,
    sink: impl FnMut(EpochOutput),
) -> Result<StreamResult, pcapio::PcapError> {
    let mut source = pcapio::source::file(input)?;
    process_source(&mut source, window, monitor, cfg, sink)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Analysis;
    use std::net::Ipv4Addr;
    use zeek_lite::{Answer, ConnState, FiveTuple, Logs, Proto};

    const HOUSE: Ipv4Addr = Ipv4Addr::new(10, 77, 0, 1);
    const RESOLVER: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 53);
    const SERVER: Ipv4Addr = Ipv4Addr::new(104, 16, 0, 1);

    fn txn(ts_ms: u64, id: u16, ttl: u32) -> DnsTransaction {
        DnsTransaction {
            ts: Timestamp::from_millis(ts_ms),
            client: HOUSE,
            resolver: RESOLVER,
            trans_id: id,
            query: format!("q{id}.example.com"),
            qtype: dns_wire::RrType::A,
            rcode: Some(dns_wire::Rcode::NoError),
            rtt: Some(Duration::from_millis(4)),
            answers: vec![Answer::addr(SERVER, ttl)],
        }
    }

    fn conn(ts_ms: u64, uid: u64) -> ConnRecord {
        ConnRecord {
            uid,
            ts: Timestamp::from_millis(ts_ms),
            id: FiveTuple {
                orig_addr: HOUSE,
                orig_port: 50_000 + uid as u16,
                resp_addr: SERVER,
                resp_port: 443,
                proto: Proto::Tcp,
            },
            duration: Duration::from_millis(500),
            orig_bytes: 100,
            resp_bytes: 1_000,
            orig_pkts: 4,
            resp_pkts: 4,
            state: ConnState::SF,
            history: "ShAaFf".into(),
            service: Some("ssl"),
        }
    }

    /// Drive pre-built log rows through the engine's release path directly
    /// (bypassing the monitor) by staging them in the buffers, one epoch
    /// per row timestamp window.
    fn stream_rows(
        conns: Vec<ConnRecord>,
        dns: Vec<DnsTransaction>,
        boundaries_ms: &[u64],
        mut cfg: AnalysisConfig,
    ) -> (Vec<ConnRecord>, Vec<DnsTransaction>, StreamResult) {
        cfg.threads = 1;
        let mut engine = StreamEngine::new(MonitorConfig::default(), cfg);
        engine.buf_conns = conns;
        engine.buf_dns = dns;
        let mut got_conns = Vec::new();
        let mut got_dns = Vec::new();
        for &b in boundaries_ms {
            let out = engine.end_epoch(Some(Timestamp::from_millis(b)));
            got_conns.extend(out.conns);
            got_dns.extend(out.dns);
        }
        let result = engine.finish();
        got_conns.extend(result.tail.conns.iter().cloned());
        got_dns.extend(result.tail.dns.iter().cloned());
        (got_conns, got_dns, result)
    }

    #[test]
    fn streamed_release_matches_batch_pairing() {
        let mut cfg = AnalysisConfig::default();
        cfg.threshold_rule.min_lookups = 1;
        // Lookup at 1s (TTL 300); conns at 1.01s (blocked), 30s (LC),
        // and a second lookup at 60s with a conn at 60.2s (prefetched
        // would need first use; it's LC since lookup 1 still live... the
        // batch run is the oracle either way).
        let dns = vec![txn(1_000, 1, 300), txn(60_000, 2, 300)];
        let conns = vec![conn(1_010, 1), conn(30_000, 2), conn(60_200, 3)];
        let mut logs = Logs { conns: conns.clone(), dns: dns.clone(), ..Default::default() };
        logs.sort();
        let analysis = Analysis::run(&logs, cfg.clone());
        let mut batch = logs.metrics();
        batch.merge(&analysis.metrics());

        let (got_conns, got_dns, result) =
            stream_rows(conns, dns, &[10_000, 45_000, 70_000], cfg);
        assert_eq!(got_conns, logs.conns);
        assert_eq!(got_dns, logs.dns);
        assert_eq!(result.class_counts, analysis.class_counts());
        assert_eq!(result.thresholds, analysis.thresholds);
        // Stats/degradation come from the monitor (zero here, both
        // sides); everything analysis-side must agree byte for byte.
        assert_eq!(result.analysis_metrics.to_json(), batch.to_json());
    }

    #[test]
    fn eviction_keeps_expired_fallback_reachable() {
        let mut cfg = AnalysisConfig::default();
        cfg.threshold_rule.min_lookups = 1;
        // Two short-TTL lookups; a conn long after both must still take
        // the newest as expired fallback, even though the older one was
        // evicted in between.
        let dns = vec![txn(1_000, 1, 1), txn(2_000, 2, 1)];
        let conns = vec![conn(500_000, 1)];
        let mut logs = Logs { conns: conns.clone(), dns: dns.clone(), ..Default::default() };
        logs.sort();
        let analysis = Analysis::run(&logs, cfg.clone());
        let mut batch = logs.metrics();
        batch.merge(&analysis.metrics());

        let (_, _, result) = stream_rows(conns, dns, &[100_000, 400_000], cfg);
        let evicted = result.stream_metrics.counter("stream.evicted_answers");
        assert_eq!(evicted, 1, "the older expired entry must be evicted");
        assert_eq!(result.analysis_metrics.to_json(), batch.to_json());
        assert_eq!(result.class_counts, analysis.class_counts());
    }

    #[test]
    fn unwindowed_epoch_releases_nothing_until_finish() {
        let cfg = AnalysisConfig::default();
        let mut engine = StreamEngine::new(MonitorConfig::default(), cfg);
        engine.buf_conns = vec![conn(1_000, 1)];
        engine.buf_dns = vec![txn(500, 1, 60)];
        let out = engine.end_epoch(None);
        assert!(out.conns.is_empty() && out.dns.is_empty());
        let result = engine.finish();
        assert_eq!(result.tail.conns.len(), 1);
        assert_eq!(result.tail.dns.len(), 1);
        assert_eq!(result.stream_metrics.counter("stream.epochs"), 1);
    }

    #[test]
    fn hub_sees_prefix_snapshots_and_flight_events() {
        let mut cfg = AnalysisConfig::default();
        cfg.threshold_rule.min_lookups = 1;
        cfg.threads = 1;
        let hub = xkit::obs::ObsHub::default();
        let mut engine = StreamEngine::new(MonitorConfig::default(), cfg);
        engine.set_hub(hub.clone());
        engine.buf_dns = vec![txn(1_000, 1, 1), txn(2_000, 2, 1)];
        engine.buf_conns = vec![conn(500_000, 1)];

        engine.end_epoch(Some(Timestamp::from_millis(100_000)));
        let mid = hub.metrics();
        assert_eq!(mid.counter("stream.epochs"), 1);
        assert_eq!(mid.counter("zeek.dns_rows"), 2);
        // Mid-run snapshots never carry finish-only keys.
        assert_eq!(mid.counter("class.shared_cache"), 0);

        engine.end_epoch(Some(Timestamp::from_millis(400_000)));
        let result = engine.finish();
        let fin = hub.metrics();
        // The finish-time publication is the settled snapshot, and every
        // mid-run counter is bounded by its final value.
        assert_eq!(fin.to_json(), result.settled_metrics().to_json());
        for (name, v) in [("stream.epochs", 1), ("zeek.dns_rows", 2)] {
            assert!(mid.counter(name) >= v && mid.counter(name) <= fin.counter(name));
        }

        let events = hub.flight().snapshot();
        assert!(events.iter().any(|e| e.kind == "epoch.release"));
        assert!(
            events.iter().any(|e| e.kind == "state.evict" && e.value == 1.0),
            "the older expired entry's eviction must hit the flight ring"
        );
    }

    /// `stream.epochs` after streaming a capture of one-byte frames
    /// stamped `stamps` (ns) through [`process_source`] at `window_nanos`.
    fn epochs_cut(stamps: &[u64], window_nanos: u64) -> u64 {
        let mut buf = Vec::new();
        let mut w = pcapio::PcapWriter::new(&mut buf, 96, pcapio::TsPrecision::Nano).unwrap();
        for ts in stamps {
            w.write_packet(*ts, &[*ts as u8], None).unwrap();
        }
        let mut sunk = 0u64;
        let result = process_source(
            &mut pcapio::source::file(&buf[..]).unwrap(),
            Duration(window_nanos),
            MonitorConfig::default(),
            AnalysisConfig::default(),
            |_| sunk += 1,
        )
        .unwrap();
        assert_eq!(result.analysis_metrics.counter("zeek.frames_seen"), stamps.len() as u64);
        let epochs = result.stream_metrics.counter("stream.epochs");
        assert_eq!(sunk, epochs, "every epoch reaches the sink exactly once");
        epochs
    }

    #[test]
    fn epochs_split_on_window_boundaries() {
        // Window of 10 ns: [0,10), [10,20), [30,40) — empty windows open
        // no epoch.
        assert_eq!(epochs_cut(&[1, 5, 9, 10, 19, 35], 10), 3);
    }

    #[test]
    fn epochs_clamp_monotone_on_disordered_input() {
        // 25 opens epoch 2; the out-of-order 4 stays in epoch 2 rather
        // than reopening epoch 0.
        assert_eq!(epochs_cut(&[25, 4, 31], 10), 2);
    }

    #[test]
    fn epochs_empty_capture_yields_nothing() {
        assert_eq!(epochs_cut(&[], 10), 0);
    }

    #[test]
    fn epochs_zero_window_is_single_epoch() {
        assert_eq!(epochs_cut(&[1, 500, 1_000_000], 0), 1);
    }

    #[test]
    fn epochs_concatenation_is_lossless() {
        // 100 frames over 11 windows: `epochs_cut` checks none is lost.
        let stamps: Vec<u64> = (0..100).map(|i| i * 7).collect();
        assert_eq!(epochs_cut(&stamps, 64), 11);
    }

    #[test]
    fn random_policy_is_rejected() {
        let mut cfg = AnalysisConfig::default();
        cfg.policy = PairingPolicy::RandomNonExpired;
        let err = std::panic::catch_unwind(|| {
            StreamEngine::new(MonitorConfig::default(), cfg);
        });
        assert!(err.is_err());
    }
}
