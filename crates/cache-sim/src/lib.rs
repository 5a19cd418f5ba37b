//! Trace-driven simulations of local DNS improvements (paper §8).
//!
//! Two mechanisms are studied on top of the observed logs:
//!
//! * [`whole_house`] — a shared cache in each home's router: repeated
//!   lookups for the same record within its TTL, from the same house,
//!   would be absorbed; the connections that blocked on those lookups
//!   move from `SC`/`R` to `LC` (paper: 9.8 % of all connections move,
//!   ≈22 % of SC and ≈25 % of R benefit).
//! * [`refresh`] — the same whole-house cache, additionally re-resolving
//!   every entry as it expires (Table 3: the hit rate jumps from 61 % to
//!   96.6 %, at the cost of ~144× more lookups). Following the paper, the
//!   authoritative TTL of a name is the *maximum* TTL observed for it in
//!   the trace, and names with TTLs under 10 s are not refreshed.
//! * [`refresh_selective`] — the paper's closing open question ("can we
//!   approach the 96.6 % at sane cost?"): refresh only names a house
//!   actually used at least `min_uses` times, and stop refreshing a name
//!   once it has gone unused for `idle_cutoff`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dns_context::{Analysis, ConnClass};
use std::collections::{HashMap, HashSet};
use std::net::Ipv4Addr;
use zeek_lite::{DnsTransaction, Duration, Logs, Timestamp};

/// Result of the whole-house cache simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WholeHouseReport {
    /// Application connections examined.
    pub total_conns: usize,
    /// SC connections in the baseline classification.
    pub sc_conns: usize,
    /// R connections in the baseline classification.
    pub r_conns: usize,
    /// Connections that would move to `LC` given a whole-house cache.
    pub moved: usize,
    /// `moved` as a share of all connections, percent (paper: 9.8 %).
    pub moved_share_of_all_pct: f64,
    /// Share of SC connections that move, percent (paper: ~22 %).
    pub sc_benefit_pct: f64,
    /// Share of R connections that move, percent (paper: ~25 %).
    pub r_benefit_pct: f64,
}

/// Simulate a per-house shared cache over the observed lookup stream.
///
/// A lookup that finds its query name still live in the simulated house
/// cache (populated by the house's earlier lookups, honouring response
/// TTLs) would never have left the house — so every connection that
/// blocked on it becomes a local-cache connection.
pub fn whole_house(logs: &Logs, analysis: &Analysis<'_>) -> WholeHouseReport {
    // Replay the DNS log per house and decide, for each transaction,
    // whether a house cache would have answered it. The replay is the
    // streaming [`CacheReplay`] engine, so eviction semantics (and the
    // expiry boundary) are pinned in exactly one place.
    let mut replay = CacheReplay::new(Duration::from_secs(60));
    let absorbed: Vec<bool> = logs.dns.iter().map(|txn| replay.offer(txn)).collect();

    let mut sc = 0usize;
    let mut r = 0usize;
    let mut moved_sc = 0usize;
    let mut moved_r = 0usize;
    for (pair, class) in analysis.pairing.pairs.iter().zip(&analysis.classes) {
        let (blocked, moved) = match class {
            ConnClass::SharedCache => (&mut sc, &mut moved_sc),
            ConnClass::Resolution => (&mut r, &mut moved_r),
            _ => continue,
        };
        *blocked += 1;
        if absorbed[pair.dns.expect("blocked conns are paired")] {
            *moved += 1;
        }
    }
    let total = analysis.pairing.app_conn_count();
    let moved = moved_sc + moved_r;
    WholeHouseReport {
        total_conns: total,
        sc_conns: sc,
        r_conns: r,
        moved,
        moved_share_of_all_pct: pct(moved as u64, total as u64),
        sc_benefit_pct: pct(moved_sc as u64, sc as u64),
        r_benefit_pct: pct(moved_r as u64, r as u64),
    }
}

/// A streaming whole-house cache replay with bounded live state.
///
/// Feed DNS transactions in timestamp order (the order `Logs::sort`
/// produces — epoch-released streams satisfy it too) via [`offer`],
/// which answers whether a per-house shared cache would have absorbed
/// the lookup. Two properties distinguish this from a naive map replay:
///
/// * **Boundary**: an entry answering at its own expiry instant is
///   already dead (`expiry > ts`, strict) — the same liveness rule the
///   pairing index uses, so the two simulations cannot drift apart.
/// * **Eviction**: expired entries are removed the moment they fail a
///   liveness check, and a periodic sweep clears entries nothing asks
///   for again, so live state is bounded by the working set rather than
///   growing with the trace. Because timestamps only move forward, an
///   expired entry can never hit again; eviction is decision-neutral.
///
/// [`offer`]: CacheReplay::offer
#[derive(Debug)]
pub struct CacheReplay {
    /// Per house: query name → expiry of the cached record.
    cache: HashMap<Ipv4Addr, HashMap<String, Timestamp>>,
    sweep_interval: Duration,
    last_sweep: Timestamp,
    live: u64,
    peak_live: u64,
    evicted: u64,
    hits: u64,
    misses: u64,
}

impl CacheReplay {
    /// New replay; `sweep_interval` bounds how long an expired entry may
    /// linger when no lookup touches it again.
    pub fn new(sweep_interval: Duration) -> CacheReplay {
        CacheReplay {
            cache: HashMap::new(),
            sweep_interval,
            last_sweep: Timestamp::ZERO,
            live: 0,
            peak_live: 0,
            evicted: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Replay one transaction; true when the house cache absorbs it.
    pub fn offer(&mut self, txn: &DnsTransaction) -> bool {
        self.maybe_sweep(txn.ts);
        let house = self.cache.entry(txn.client).or_default();
        let hit = match house.get(txn.query.as_str()) {
            Some(expiry) if *expiry > txn.ts => true,
            Some(_) => {
                // Expired at (or before) this instant: evict.
                house.remove(txn.query.as_str());
                self.live -= 1;
                self.evicted += 1;
                false
            }
            None => false,
        };
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
            if let Some(expires) = txn.expires_at() {
                if house.insert(txn.query.clone(), expires).is_none() {
                    self.live += 1;
                }
            }
        }
        self.peak_live = self.peak_live.max(self.live);
        hit
    }

    fn maybe_sweep(&mut self, now: Timestamp) {
        if now.since(self.last_sweep) < self.sweep_interval {
            return;
        }
        self.last_sweep = now;
        let mut dropped = 0u64;
        // lint: allow(no-map-iteration): each house is pruned independently
        for house in self.cache.values_mut() {
            house.retain(|_, expiry| {
                let alive = *expiry > now;
                if !alive {
                    dropped += 1;
                }
                alive
            });
        }
        self.cache.retain(|_, house| !house.is_empty());
        self.live -= dropped;
        self.evicted += dropped;
    }

    /// Lookups the cache absorbed.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that went to the resolver.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Entries removed by expiry (lazy check or sweep).
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Currently-live entries.
    pub fn live(&self) -> u64 {
        self.live
    }

    /// High-water mark of live entries over the replay so far.
    pub fn peak_live(&self) -> u64 {
        self.peak_live
    }
}

/// One column of Table 3.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CachePolicyReport {
    /// DNS-using connections driven through the cache.
    pub conns: usize,
    /// Lookups the policy performs (demand misses + refreshes).
    pub lookups: u64,
    /// Lookups per second per house.
    pub lookups_per_sec_per_house: f64,
    /// Demand hit rate, percent.
    pub hit_pct: f64,
    /// Demand miss rate, percent.
    pub miss_pct: f64,
}

/// Table 3: standard cache vs refresh-all (plus the trace geometry used
/// for the rate computations).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefreshReport {
    /// Standard demand-driven whole-house cache.
    pub standard: CachePolicyReport,
    /// Cache that refreshes every entry at expiry.
    pub refresh_all: CachePolicyReport,
    /// Trace length used for rates, seconds.
    pub trace_secs: f64,
    /// Houses observed.
    pub houses: usize,
}

impl RefreshReport {
    /// The headline cost blow-up: refresh lookups per standard lookup
    /// (paper: ≈144×).
    pub fn lookup_ratio(&self) -> f64 {
        if self.standard.lookups == 0 {
            0.0
        } else {
            self.refresh_all.lookups as f64 / self.standard.lookups as f64
        }
    }
}

/// A name need: one DNS-using connection replayed against a house cache.
struct Need {
    ts: Timestamp,
    house: Ipv4Addr,
    /// Index into the interned name table.
    name: usize,
}

/// What the refresh policies replay, built once per call.
struct Trace {
    /// The DNS-using connections, in start order.
    needs: Vec<Need>,
    /// Per interned name, its authoritative TTL in seconds: the maximum
    /// observed for it (per the paper), at least 1.
    ttl_secs: Vec<u32>,
    /// Trace length for the rates: first record to the last record of
    /// either log, seconds (at least 1).
    secs: f64,
    /// Houses observed (at least 1).
    houses: usize,
    /// Where refreshing stops: the last connection's start. No need
    /// comes later, whatever the DNS log still holds.
    refresh_end: Timestamp,
}

impl Trace {
    fn new(logs: &Logs, analysis: &Analysis<'_>) -> Trace {
        let mut name_ids: HashMap<&str, usize> = HashMap::new();
        let mut ttl_secs: Vec<u32> = Vec::new();
        for txn in &logs.dns {
            let id = *name_ids.entry(txn.query.as_str()).or_insert_with(|| {
                ttl_secs.push(1);
                ttl_secs.len() - 1
            });
            if let Some(ttl) = txn.min_ttl() {
                ttl_secs[id] = ttl_secs[id].max(ttl);
            }
        }
        let mut needs = Vec::new();
        for pair in &analysis.pairing.pairs {
            let Some(di) = pair.dns else { continue };
            let conn = &logs.conns[pair.conn];
            needs.push(Need {
                ts: conn.ts,
                house: conn.id.orig_addr,
                name: name_ids[logs.dns[di].query.as_str()],
            });
        }
        needs.sort_by_key(|n| n.ts);

        let houses: HashSet<Ipv4Addr> = logs.dns.iter().map(|t| t.client).collect();
        let first_dns = logs.dns.first().map(|d| d.ts);
        let last_conn = logs.conns.last().map(|c| c.ts);
        let start = logs.conns.first().map(|c| c.ts).or(first_dns).unwrap_or(Timestamp::ZERO);
        let end = last_conn.unwrap_or(start).max(logs.dns.last().map_or(start, |d| d.ts));
        Trace {
            needs,
            ttl_secs,
            secs: end.since(start).as_secs_f64().max(1.0),
            houses: houses.len().max(1),
            refresh_end: last_conn.unwrap_or(Timestamp::ZERO),
        }
    }

    fn ttl(&self, name: usize) -> Duration {
        Duration::from_secs(u64::from(self.ttl_secs[name]))
    }

    /// Refreshes that keep `name` fresh from `from` to `to`: one per TTL.
    fn refreshes(&self, name: usize, from: Timestamp, to: Timestamp) -> u64 {
        (to.since(from).as_secs_f64() / f64::from(self.ttl_secs[name])).floor() as u64
    }

    /// One Table 3 column from a policy's tallies.
    fn report(&self, lookups: u64, hits: u64, misses: u64) -> CachePolicyReport {
        CachePolicyReport {
            conns: self.needs.len(),
            lookups,
            lookups_per_sec_per_house: lookups as f64 / self.secs / self.houses as f64,
            hit_pct: pct(hits, hits + misses),
            miss_pct: pct(misses, hits + misses),
        }
    }
}

/// A demand cache of `(house, name)` → expiry of the cached record.
type DemandCache = HashMap<(Ipv4Addr, usize), Option<Timestamp>>;

/// The demand cache, spelled once: a use at `ts` hits while the cached
/// record is live (`expiry > ts`, strict — [`CacheReplay::offer`]'s
/// boundary); otherwise it misses and the lookup re-primes the slot for
/// `ttl`.
fn demand_hit(expiry: &mut Option<Timestamp>, ts: Timestamp, ttl: Duration) -> bool {
    if expiry.is_some_and(|e| e > ts) {
        return true;
    }
    *expiry = Some(ts + ttl);
    false
}

/// Run Table 3's two policies. `refresh_min_ttl` is the paper's 10 s
/// floor below which entries are not refreshed.
pub fn refresh(logs: &Logs, analysis: &Analysis<'_>, refresh_min_ttl: Duration) -> RefreshReport {
    let trace = Trace::new(logs, analysis);

    // ---- standard policy ----
    let mut cache = DemandCache::new();
    let mut std_hits = 0u64;
    let mut std_misses = 0u64;
    for n in &trace.needs {
        if demand_hit(cache.entry((n.house, n.name)).or_default(), n.ts, trace.ttl(n.name)) {
            std_hits += 1;
        } else {
            std_misses += 1;
        }
    }

    // ---- refresh-all policy ----
    // After the first demand miss for (house, name), the entry is kept
    // perpetually fresh until the end of the trace; the cost is one
    // lookup per TTL interval. Names below the TTL floor fall back to
    // demand behaviour (the paper excludes them from refreshing).
    let mut first_seen: HashMap<(Ipv4Addr, usize), Timestamp> = HashMap::new();
    let mut ref_hits = 0u64;
    let mut ref_misses = 0u64;
    let mut low_ttl = DemandCache::new();
    for n in &trace.needs {
        let ttl = trace.ttl(n.name);
        let hit = if ttl >= refresh_min_ttl {
            let seen = first_seen.contains_key(&(n.house, n.name));
            if !seen {
                first_seen.insert((n.house, n.name), n.ts);
            }
            seen
        } else {
            demand_hit(low_ttl.entry((n.house, n.name)).or_default(), n.ts, ttl)
        };
        if hit {
            ref_hits += 1;
        } else {
            ref_misses += 1;
        }
    }
    // Refresh lookup cost: every demand miss (both kinds) is one lookup,
    // plus one refresh per TTL interval from first sight to trace end for
    // each refreshed (house, name).
    let mut refresh_lookups: u64 = ref_misses;
    // lint: allow(no-map-iteration): order-insensitive integer fold
    for ((_, name), t0) in &first_seen {
        refresh_lookups += trace.refreshes(*name, *t0, trace.refresh_end);
    }

    RefreshReport {
        standard: trace.report(std_misses, std_hits, std_misses),
        refresh_all: trace.report(refresh_lookups, ref_hits, ref_misses),
        trace_secs: trace.secs,
        houses: trace.houses,
    }
}

/// A serve-stale (RFC 8767) whole-house cache: a demand miss that finds
/// an expired entry answers *immediately* from the stale record (no
/// blocking — counted as a hit) while one background lookup refreshes it.
/// Only truly cold names miss. The lookup cost equals the standard
/// cache's (one per expiry-crossing use, plus cold misses), making this
/// the natural candidate answer to the paper's closing open question.
pub fn serve_stale(
    logs: &Logs,
    analysis: &Analysis<'_>,
    max_stale: Duration,
) -> CachePolicyReport {
    let trace = Trace::new(logs, analysis);
    // Entry state: expiry of the freshest copy ever fetched.
    let mut cache = DemandCache::new();
    let mut hits = 0u64;
    let mut misses = 0u64;
    let mut lookups = 0u64;
    for n in &trace.needs {
        let slot = cache.entry((n.house, n.name)).or_default();
        let stale = *slot;
        if demand_hit(slot, n.ts, trace.ttl(n.name)) {
            hits += 1;
            continue;
        }
        lookups += 1;
        match stale {
            // Stale-but-usable: served at once, refreshed in the background.
            Some(expiry) if n.ts.since(expiry) <= max_stale => hits += 1,
            // Cold (or too stale to serve): the client blocks.
            _ => misses += 1,
        }
    }
    trace.report(lookups, hits, misses)
}

/// The future-work policy: refresh only names the house used at least
/// `min_uses` times, and stop refreshing a name once `idle_cutoff` passes
/// without a use.
pub fn refresh_selective(
    logs: &Logs,
    analysis: &Analysis<'_>,
    refresh_min_ttl: Duration,
    min_uses: usize,
    idle_cutoff: Duration,
) -> CachePolicyReport {
    let trace = Trace::new(logs, analysis);

    // Pass 1: per (house, name), the use timestamps.
    let mut uses: HashMap<(Ipv4Addr, usize), Vec<Timestamp>> = HashMap::new();
    for n in &trace.needs {
        uses.entry((n.house, n.name)).or_default().push(n.ts);
    }

    let mut hits = 0u64;
    let mut misses = 0u64;
    let mut lookups = 0u64;
    // lint: allow(no-map-iteration): order-insensitive integer fold per key
    for ((_house, name), times) in &uses {
        let ttl = trace.ttl(*name);
        let qualifies = times.len() >= min_uses && ttl >= refresh_min_ttl;
        if !qualifies {
            // Standard demand behaviour for this (house, name).
            let mut expiry = None;
            for t in times {
                if demand_hit(&mut expiry, *t, ttl) {
                    hits += 1;
                } else {
                    misses += 1;
                    lookups += 1;
                }
            }
            continue;
        }
        // Refresh while "warm": from each use, keep refreshing until
        // idle_cutoff elapses with no further use (or the trace ends).
        misses += 1; // first use is a cold miss
        hits += (times.len() - 1) as u64;
        lookups += 1;
        let mut horizon = times[0];
        for (i, t) in times.iter().enumerate() {
            let next_use = times.get(i + 1).copied();
            let warm_until = (*t + idle_cutoff).min(trace.refresh_end);
            let warm_until = match next_use {
                Some(nu) if nu <= warm_until => nu,
                _ => warm_until,
            };
            if warm_until > horizon {
                lookups += trace.refreshes(*name, horizon, warm_until);
                horizon = warm_until;
            }
        }
    }
    trace.report(lookups, hits, misses)
}

fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_context::AnalysisConfig;
    use zeek_lite::{Answer, ConnRecord, ConnState, DnsTransaction, FiveTuple, Proto};

    const HOUSE: Ipv4Addr = Ipv4Addr::new(10, 77, 0, 1);
    const RESOLVER: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 53);
    const SERVER: Ipv4Addr = Ipv4Addr::new(104, 16, 0, 1);

    fn txn(ts_ms: u64, query: &str, addr: Ipv4Addr, ttl: u32, rtt_ms: u64) -> DnsTransaction {
        DnsTransaction {
            ts: Timestamp::from_millis(ts_ms),
            client: HOUSE,
            resolver: RESOLVER,
            trans_id: 1,
            query: query.into(),
            qtype: dns_wire::RrType::A,
            rcode: Some(dns_wire::Rcode::NoError),
            rtt: Some(Duration::from_millis(rtt_ms)),
            answers: vec![Answer::addr(addr, ttl)],
        }
    }

    fn conn(ts_ms: u64, dst: Ipv4Addr, uid: u64) -> ConnRecord {
        ConnRecord {
            uid,
            ts: Timestamp::from_millis(ts_ms),
            id: FiveTuple {
                orig_addr: HOUSE,
                orig_port: 50_000 + uid as u16,
                resp_addr: dst,
                resp_port: 443,
                proto: Proto::Tcp,
            },
            duration: Duration::from_millis(500),
            orig_bytes: 100,
            resp_bytes: 10_000,
            orig_pkts: 4,
            resp_pkts: 8,
            state: ConnState::SF,
            history: zeek_lite::History::new(),
            service: Some("ssl"),
        }
    }

    /// Two blocked lookups for the same name within its TTL: a whole-house
    /// cache would absorb the second, moving its connection.
    #[test]
    fn whole_house_moves_duplicate_lookups() {
        let mut logs = Logs::default();
        logs.dns = vec![
            txn(0, "a.example.com", SERVER, 300, 4),
            txn(30_000, "a.example.com", SERVER, 300, 4),
        ];
        logs.conns = vec![conn(6, SERVER, 0), conn(30_006, SERVER, 1)];
        logs.sort();
        let mut cfg = AnalysisConfig::default();
        cfg.threshold_rule.min_lookups = 1;
        let analysis = Analysis::run(&logs, cfg);
        // Both conns block (gap ≈ 2 ms each).
        let counts = analysis.class_counts();
        assert_eq!(counts.shared_cache + counts.resolution, 2);
        let report = whole_house(&logs, &analysis);
        assert_eq!(report.moved, 1);
        assert_eq!(report.moved_share_of_all_pct, 50.0);
    }

    /// A lookup past the TTL would still miss the house cache.
    #[test]
    fn whole_house_respects_ttl() {
        let mut logs = Logs::default();
        logs.dns = vec![
            txn(0, "a.example.com", SERVER, 10, 4),
            txn(60_000, "a.example.com", SERVER, 10, 4), // 60 s later, TTL 10 s
        ];
        logs.conns = vec![conn(6, SERVER, 0), conn(60_006, SERVER, 1)];
        logs.sort();
        let mut cfg = AnalysisConfig::default();
        cfg.threshold_rule.min_lookups = 1;
        let analysis = Analysis::run(&logs, cfg);
        let report = whole_house(&logs, &analysis);
        assert_eq!(report.moved, 0);
    }

    fn many_need_logs() -> Logs {
        // One name, TTL 100 s, used every 60 s for 10 minutes → standard
        // cache alternates hit/miss; refresh-all hits everything but the
        // first.
        let mut logs = Logs::default();
        for i in 0..10u64 {
            let t = i * 60_000;
            logs.dns.push(txn(t, "a.example.com", SERVER, 100, 4));
            logs.conns.push(conn(t + 6, SERVER, i));
        }
        logs.sort();
        logs
    }

    #[test]
    fn refresh_all_beats_standard_hit_rate() {
        let logs = many_need_logs();
        let mut cfg = AnalysisConfig::default();
        cfg.threshold_rule.min_lookups = 1;
        let analysis = Analysis::run(&logs, cfg);
        let r = refresh(&logs, &analysis, Duration::from_secs(10));
        assert_eq!(r.standard.conns, 10);
        // TTL 100 s, uses every 60 s: hit, miss, hit, miss... from the
        // second use on: uses at 0(m),60(h),120(m),180(h)... → 5 misses.
        assert_eq!(r.standard.lookups, 5);
        assert!((r.standard.hit_pct - 50.0).abs() < 1e-9);
        // Refresh-all: only the first use misses.
        assert!((r.refresh_all.hit_pct - 90.0).abs() < 1e-9);
        assert!(r.refresh_all.lookups > r.standard.lookups);
        assert!(r.lookup_ratio() > 1.0);
        assert_eq!(r.houses, 1);
    }

    #[test]
    fn refresh_respects_ttl_floor() {
        // TTL 5 s < 10 s floor → no refreshing; both policies identical.
        let mut logs = Logs::default();
        for i in 0..5u64 {
            let t = i * 60_000;
            logs.dns.push(txn(t, "b.example.com", SERVER, 5, 4));
            logs.conns.push(conn(t + 6, SERVER, i));
        }
        logs.sort();
        let mut cfg = AnalysisConfig::default();
        cfg.threshold_rule.min_lookups = 1;
        let analysis = Analysis::run(&logs, cfg);
        let r = refresh(&logs, &analysis, Duration::from_secs(10));
        assert_eq!(r.standard.lookups, r.refresh_all.lookups);
        assert_eq!(r.standard.hit_pct, r.refresh_all.hit_pct);
    }

    #[test]
    fn selective_refresh_cheaper_than_refresh_all() {
        let logs = many_need_logs();
        let mut cfg = AnalysisConfig::default();
        cfg.threshold_rule.min_lookups = 1;
        let analysis = Analysis::run(&logs, cfg);
        let all = refresh(&logs, &analysis, Duration::from_secs(10));
        let sel = refresh_selective(
            &logs,
            &analysis,
            Duration::from_secs(10),
            2,
            Duration::from_secs(120),
        );
        assert!(sel.lookups <= all.refresh_all.lookups);
        assert!(sel.hit_pct >= all.standard.hit_pct);
    }

    #[test]
    fn serve_stale_hits_like_refresh_at_standard_cost() {
        let logs = many_need_logs();
        let mut cfg = AnalysisConfig::default();
        cfg.threshold_rule.min_lookups = 1;
        let analysis = Analysis::run(&logs, cfg);
        let base = refresh(&logs, &analysis, Duration::from_secs(10));
        let ss = serve_stale(&logs, &analysis, Duration::from_secs(86_400));
        // Same demand stream; only the first use misses (like refresh-all).
        assert_eq!(ss.hit_pct, base.refresh_all.hit_pct);
        // Cost stays at the standard cache's level.
        assert_eq!(ss.lookups, base.standard.lookups);
        assert!(ss.lookups < base.refresh_all.lookups);
    }

    #[test]
    fn serve_stale_respects_staleness_bound() {
        // Uses 60 s apart, TTL 100 s, max_stale 10 s: the stale window is
        // exceeded on every other use, so those block again.
        let logs = many_need_logs();
        let mut cfg = AnalysisConfig::default();
        cfg.threshold_rule.min_lookups = 1;
        let analysis = Analysis::run(&logs, cfg);
        let tight = serve_stale(&logs, &analysis, Duration::from_secs(10));
        let loose = serve_stale(&logs, &analysis, Duration::from_secs(86_400));
        assert!(tight.hit_pct < loose.hit_pct);
    }

    #[test]
    fn cache_expiry_boundary_is_strict() {
        // txn(0, ttl=10 s, rtt=4 ms) caches until exactly 10_004 ms.
        let first = txn(0, "a.example.com", SERVER, 10, 4);
        let expiry_ms = 10_004;

        // One nanosecond (here: one millisecond) before expiry: hit.
        let mut replay = CacheReplay::new(Duration::from_secs(60));
        assert!(!replay.offer(&first));
        assert!(replay.offer(&txn(expiry_ms - 1, "a.example.com", SERVER, 10, 4)));

        // At exactly the expiry instant: dead, by the same strict `>`
        // rule the pairing index applies — and the corpse is evicted.
        let mut replay = CacheReplay::new(Duration::from_secs(60));
        assert!(!replay.offer(&first));
        assert!(!replay.offer(&txn(expiry_ms, "a.example.com", SERVER, 10, 4)));
        assert_eq!(replay.evicted(), 1);
        // The miss re-primed the cache.
        assert_eq!(replay.live(), 1);
    }

    /// The policies' demand cache has `CacheReplay`'s boundary: a use at
    /// the expiry instant finds the record dead, one tick earlier live.
    #[test]
    fn demand_expiry_boundary_is_strict_in_refresh_and_serve_stale() {
        let ttl_ns = 10_000_000_000u64;
        for (gap_ns, lookups, hit_pct) in [(ttl_ns - 1, 1, 50.0), (ttl_ns, 2, 0.0)] {
            // One name, TTL 10 s, used at t0 (primes the cache until
            // t0 + 10 s) and again `gap_ns` later.
            let mut logs = Logs::default();
            logs.dns = vec![txn(0, "a.example.com", SERVER, 10, 4)];
            let (first, mut second) = (conn(6, SERVER, 0), conn(6, SERVER, 1));
            second.ts = Timestamp(first.ts.nanos() + gap_ns);
            logs.conns = vec![first, second];
            logs.sort();
            let analysis = Analysis::run(&logs, AnalysisConfig::default());

            // A floor above the TTL sends the refresh-all column down its
            // low-TTL demand fallback too.
            let r = refresh(&logs, &analysis, Duration::from_secs(3_600));
            assert_eq!(r.standard.conns, 2);
            assert_eq!((r.standard.lookups, r.standard.hit_pct), (lookups, hit_pct), "gap {gap_ns}");
            assert_eq!(r.refresh_all, r.standard, "gap {gap_ns}");
            // At its expiry instant the record is stale: served, re-fetched.
            let ss = serve_stale(&logs, &analysis, Duration::ZERO);
            assert_eq!((ss.lookups, ss.hit_pct), (lookups, 50.0), "gap {gap_ns}");
        }
    }

    #[test]
    fn cache_replay_state_stays_bounded() {
        // Short-TTL names looked up once each, minutes apart: the sweep
        // clears them, so live state never accumulates.
        let mut replay = CacheReplay::new(Duration::from_secs(60));
        for i in 0..50u64 {
            let name = format!("n{i}.example.com");
            assert!(!replay.offer(&txn(i * 120_000, &name, SERVER, 5, 4)));
        }
        assert!(replay.peak_live() <= 2, "peak {}", replay.peak_live());
        assert_eq!(replay.misses(), 50);
        assert_eq!(replay.evicted() + replay.live(), 50);
    }

    #[test]
    fn empty_logs_do_not_panic() {
        let logs = Logs::default();
        let analysis = Analysis::run(&logs, AnalysisConfig::default());
        let wh = whole_house(&logs, &analysis);
        assert_eq!(wh.total_conns, 0);
        let r = refresh(&logs, &analysis, Duration::from_secs(10));
        assert_eq!(r.standard.conns, 0);
        assert_eq!(r.lookup_ratio(), 0.0);
    }
}
