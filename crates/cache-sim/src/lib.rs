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
//!
//! Every cache keys on the name ids the logs' [`zeek_lite::NameTable`]
//! issued: the batch entry points run on `(house, name id)` packed into
//! one word, [`whole_house`] one such cache per query type, and the
//! streaming [`CacheReplay`] on `(house, qtype, name id)`. No cache holds
//! text of its own. A record is live while `expiry > ts`, strict:
//! `demand_hit` alone says so.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dns_context::{Analysis, ConnClass};
use dns_wire::RrType;
use std::collections::HashMap;
use std::net::Ipv4Addr;
use xkit::collections::FastMap;
use zeek_lite::{DnsTransaction, Duration, Logs, NameId, Timestamp};

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
/// A lookup that finds its `(house, qtype, name)` still live in the
/// simulated house cache (populated by the house's earlier lookups,
/// honouring response TTLs) would never have left the house — so every
/// connection that blocked on it becomes a local-cache connection.
pub fn whole_house(logs: &Logs, analysis: &Analysis<'_>) -> WholeHouseReport {
    // Replay the DNS log and decide, for each transaction, whether a
    // house cache would have answered it: one `DemandCache` per query
    // type (a handful, addressed by key only), each row's own expiry as
    // the fresh one. Nothing is evicted: an expired slot never hits again.
    let mut caches: FastMap<RrType, DemandCache> = FastMap::default();
    let absorbed: Vec<bool> = logs
        .dns
        .iter()
        .map(|txn| {
            let slot = caches.entry(txn.qtype).or_default().entry(pack_key(txn.client, txn.query));
            // An unanswered lookup caches nothing: its slot stays dead.
            demand_hit(slot.or_default(), txn.ts, txn.expires_at().unwrap_or(NEVER))
        })
        .collect();

    // Per blocked class, [connections, of which their lookup was absorbed].
    let (mut sc, mut r) = ([0usize; 2], [0usize; 2]);
    for (pair, class) in analysis.pairing.pairs.iter().zip(&analysis.classes) {
        let tally = match class {
            ConnClass::SharedCache => &mut sc,
            ConnClass::Resolution => &mut r,
            _ => continue,
        };
        tally[0] += 1;
        tally[1] += usize::from(absorbed[pair.dns.expect("blocked conns are paired")]);
    }
    let total = analysis.pairing.app_conn_count();
    let moved = sc[1] + r[1];
    WholeHouseReport {
        total_conns: total,
        sc_conns: sc[0],
        r_conns: r[0],
        moved,
        moved_share_of_all_pct: pct(moved as u64, total as u64),
        sc_benefit_pct: pct(sc[1] as u64, sc[0] as u64),
        r_benefit_pct: pct(r[1] as u64, r[0] as u64),
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
///   already dead (`demand_hit`'s strict `expiry > ts`) — the same
///   liveness rule the pairing index uses, so the simulations cannot
///   drift apart.
/// * **Eviction**: an expired entry is re-primed in place (or removed,
///   when the lookup went unanswered) the moment it fails a liveness
///   check, and a periodic sweep clears entries nothing asks for again,
///   so live state is bounded by the working set rather than growing
///   with the trace. Because timestamps only move forward, an expired
///   entry can never hit again; eviction is decision-neutral.
///
/// Rows name their query by id, so every row offered must come from one
/// name table (a stream's is its monitor's, append-only for the run).
///
/// [`offer`]: CacheReplay::offer
#[derive(Debug)]
pub struct CacheReplay {
    /// `(house, qtype, query name)` → expiry of the cached record. Keyed
    /// on the std hasher: the ids stand for names off the wire.
    cache: HashMap<(Ipv4Addr, RrType, NameId), Timestamp>,
    sweep_interval: Duration,
    last_sweep: Timestamp,
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
            peak_live: 0,
            evicted: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Replay one transaction; true when the house cache absorbs it.
    pub fn offer(&mut self, txn: &DnsTransaction) -> bool {
        self.maybe_sweep(txn.ts);
        let fresh = txn.expires_at();
        let key = (txn.client, txn.qtype, txn.query);
        let hit = match self.cache.get_mut(&key) {
            Some(expiry) => {
                let hit = demand_hit(expiry, txn.ts, fresh.unwrap_or(NEVER));
                if !hit {
                    // Expired at (or before) this instant: evicted. The
                    // answer took the slot in place; without one it goes.
                    self.evicted += 1;
                    if fresh.is_none() {
                        self.cache.remove(&key);
                    }
                }
                hit
            }
            None => {
                // Only a row that leaves an entry behind adds one.
                if let Some(expires) = fresh {
                    self.cache.insert(key, expires);
                }
                false
            }
        };
        self.hits += u64::from(hit);
        self.misses += u64::from(!hit);
        self.peak_live = self.peak_live.max(self.live());
        hit
    }

    fn maybe_sweep(&mut self, now: Timestamp) {
        if now.since(self.last_sweep) < self.sweep_interval {
            return;
        }
        self.last_sweep = now;
        let live = self.live();
        self.cache.retain(|_, expiry| *expiry > now);
        self.evicted += live - self.live();
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
        self.cache.len() as u64
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
    /// The paired lookup's query.
    name: NameId,
}

impl Need {
    fn key(&self) -> u64 {
        pack_key(self.house, self.name)
    }
}

/// What the refresh policies replay, built once per call.
struct Trace {
    /// The DNS-using connections, in start order.
    needs: Vec<Need>,
    /// Per name id, its authoritative TTL in seconds: the maximum
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
        let mut ttl_secs = vec![1u32; logs.names.len()];
        for txn in &logs.dns {
            if let Some(ttl) = txn.min_ttl() {
                let max = &mut ttl_secs[txn.query.0 as usize];
                *max = (*max).max(ttl);
            }
        }
        let mut needs = Vec::with_capacity(analysis.pairing.pairs.len());
        for pair in &analysis.pairing.pairs {
            let Some(di) = pair.dns else { continue };
            let conn = &logs.conns[pair.conn];
            needs.push(Need { ts: conn.ts, house: conn.id.orig_addr, name: logs.dns[di].query });
        }
        // `pairs` follow the conn log, which is ts-sorted.
        debug_assert!(needs.is_sorted_by_key(|n| n.ts));

        // Counted, never iterated.
        let houses: FastMap<u32, ()> = logs.dns.iter().map(|t| (u32::from(t.client), ())).collect();
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

    /// The expiry of a record for `n`'s name fetched at `n`'s start.
    fn fresh(&self, n: &Need) -> Timestamp {
        n.ts + self.ttl(n.name)
    }

    fn ttl(&self, name: NameId) -> Duration {
        Duration::from_secs(u64::from(self.ttl_secs[name.0 as usize]))
    }

    /// Refreshes that keep `name` fresh from `from` to `to`: one per TTL.
    fn refreshes(&self, name: NameId, from: Timestamp, to: Timestamp) -> u64 {
        (to.since(from).as_secs_f64() / f64::from(self.ttl_secs[name.0 as usize])).floor() as u64
    }

    /// One Table 3 column from a policy's tallies.
    fn report(&self, lookups: u64, hits: u64) -> CachePolicyReport {
        let conns = self.needs.len();
        CachePolicyReport {
            conns,
            lookups,
            lookups_per_sec_per_house: lookups as f64 / self.secs / self.houses as f64,
            hit_pct: pct(hits, conns as u64),
            miss_pct: pct(conns as u64 - hits, conns as u64),
        }
    }
}

/// A demand cache: `(house, name id)` in one word ([`pack_key`]) → expiry
/// of the cached record, [`NEVER`] in a slot no lookup has primed. FxHash:
/// addressed by key only, never iterated.
type DemandCache = FastMap<u64, Timestamp>;

/// The expiry no answered lookup leaves behind, dead at every instant.
const NEVER: Timestamp = Timestamp::ZERO;

fn pack_key(house: Ipv4Addr, name: NameId) -> u64 {
    (u64::from(u32::from(house)) << 32) | u64::from(name.0)
}

/// The demand cache, spelled once: a use at `ts` hits while the cached
/// record is live (`expiry > ts`, strict); otherwise it misses and the
/// lookup re-primes the slot with the `fresh` expiry.
fn demand_hit(expiry: &mut Timestamp, ts: Timestamp, fresh: Timestamp) -> bool {
    if *expiry > ts {
        return true;
    }
    *expiry = fresh;
    false
}

/// Run Table 3's two policies. `refresh_min_ttl` is the paper's 10 s
/// floor below which entries are not refreshed.
pub fn refresh(logs: &Logs, analysis: &Analysis<'_>, refresh_min_ttl: Duration) -> RefreshReport {
    let trace = Trace::new(logs, analysis);
    // One standard cache serves both columns. Refresh-all: after the
    // first demand miss for (house, name) — its slot was unprimed — the
    // entry is kept fresh until the end of the trace, at one lookup per
    // TTL interval from that first sight. Names below the TTL floor (the
    // paper excludes them) behave exactly as in the standard cache.
    let mut cache = DemandCache::default();
    let mut std_hits = 0u64;
    let mut ref_hits = 0u64;
    let mut refreshes = 0u64;
    for n in &trace.needs {
        let slot = cache.entry(n.key()).or_default();
        let seen = *slot != NEVER;
        let std_hit = demand_hit(slot, n.ts, trace.fresh(n));
        let refreshed = trace.ttl(n.name) >= refresh_min_ttl;
        if refreshed && !seen {
            refreshes += trace.refreshes(n.name, n.ts, trace.refresh_end);
        }
        std_hits += u64::from(std_hit);
        ref_hits += u64::from(if refreshed { seen } else { std_hit });
    }
    // Every demand miss is one lookup, in both columns.
    let conns = trace.needs.len() as u64;
    RefreshReport {
        standard: trace.report(conns - std_hits, std_hits),
        refresh_all: trace.report(conns - ref_hits + refreshes, ref_hits),
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
pub fn serve_stale(logs: &Logs, analysis: &Analysis<'_>, max_stale: Duration) -> CachePolicyReport {
    let trace = Trace::new(logs, analysis);
    // Entry state: expiry of the freshest copy ever fetched.
    let mut cache = DemandCache::default();
    let mut hits = 0u64;
    let mut lookups = 0u64;
    for n in &trace.needs {
        let slot = cache.entry(n.key()).or_default();
        let stale = *slot;
        let hit = demand_hit(slot, n.ts, trace.fresh(n));
        lookups += u64::from(!hit);
        // Stale-but-usable: served at once, refreshed in the background.
        // Cold (or too stale to serve): the client blocks.
        hits += u64::from(hit || (stale != NEVER && n.ts.since(stale) <= max_stale));
    }
    trace.report(lookups, hits)
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
    let mut trace = Trace::new(logs, analysis);
    // Per (house, name), its uses in time order. Needs with an equal
    // (key, ts) are the same value, so the unstable sort is exact.
    trace.needs.sort_unstable_by_key(|n| (n.key(), n.ts));
    let mut hits = 0u64;
    let mut lookups = 0u64;
    for uses in trace.needs.chunk_by(|a, b| a.key() == b.key()) {
        let name = uses[0].name;
        if uses.len() < min_uses || trace.ttl(name) < refresh_min_ttl {
            // Standard demand behaviour for this (house, name).
            let mut expiry = NEVER;
            for n in uses {
                let hit = demand_hit(&mut expiry, n.ts, trace.fresh(n));
                hits += u64::from(hit);
                lookups += u64::from(!hit);
            }
            continue;
        }
        // Refresh while "warm": from each use, keep refreshing until
        // idle_cutoff elapses with no further use (or the trace ends).
        // Only the first use is a (cold) miss.
        hits += (uses.len() - 1) as u64;
        lookups += 1;
        let mut horizon = uses[0].ts;
        for (i, n) in uses.iter().enumerate() {
            let warm_until = (n.ts + idle_cutoff).min(trace.refresh_end);
            let warm_until = match uses.get(i + 1) {
                Some(next) if next.ts <= warm_until => next.ts,
                _ => warm_until,
            };
            if warm_until > horizon {
                lookups += trace.refreshes(name, horizon, warm_until);
                horizon = warm_until;
            }
        }
    }
    trace.report(lookups, hits)
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
    use zeek_lite::{Answer, ConnRecord, ConnState, DnsTransaction, FiveTuple, NameTable, Proto};

    const HOUSE: Ipv4Addr = Ipv4Addr::new(10, 77, 0, 1);
    const RESOLVER: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 53);
    const SERVER: Ipv4Addr = Ipv4Addr::new(104, 16, 0, 1);

    fn txn(ts_ms: u64, query: NameId, addr: Ipv4Addr, ttl: u32, rtt_ms: u64) -> DnsTransaction {
        DnsTransaction {
            ts: Timestamp::from_millis(ts_ms),
            client: HOUSE,
            resolver: RESOLVER,
            trans_id: 1,
            query,
            qtype: dns_wire::RrType::A,
            rcode: Some(dns_wire::Rcode::NoError),
            rtt: Some(Duration::from_millis(rtt_ms)),
            answers: [Answer::addr(addr, ttl)].into(),
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
        let a = logs.names.intern("a.example.com");
        logs.dns = vec![
            txn(0, a, SERVER, 300, 4),
            txn(30_000, a, SERVER, 300, 4),
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
        let a = logs.names.intern("a.example.com");
        logs.dns = vec![
            txn(0, a, SERVER, 10, 4),
            txn(60_000, a, SERVER, 10, 4), // 60 s later, TTL 10 s
        ];
        logs.conns = vec![conn(6, SERVER, 0), conn(60_006, SERVER, 1)];
        logs.sort();
        let mut cfg = AnalysisConfig::default();
        cfg.threshold_rule.min_lookups = 1;
        let analysis = Analysis::run(&logs, cfg);
        let report = whole_house(&logs, &analysis);
        assert_eq!(report.moved, 0);
    }

    /// The cache holds records, not names: an `AAAA` answer does not
    /// absorb the `A` lookup a dual-stack stub sends beside it (the
    /// fixture's `AAAA` rows carry an address so their connections pair).
    #[test]
    fn whole_house_keys_on_the_query_type() {
        use dns_wire::RrType::{Aaaa, A};
        for (first, second, moved) in [(A, Aaaa, 0), (Aaaa, A, 0), (A, A, 1)] {
            let mut logs = Logs::default();
            let a = logs.names.intern("a.example.com");
            logs.dns = vec![
                DnsTransaction { qtype: first, ..txn(0, a, SERVER, 300, 4) },
                DnsTransaction { qtype: second, ..txn(30_000, a, SERVER, 300, 4) },
            ];
            logs.conns = vec![conn(6, SERVER, 0), conn(30_006, SERVER, 1)];
            logs.sort();
            let mut cfg = AnalysisConfig::default();
            cfg.threshold_rule.min_lookups = 1;
            let analysis = Analysis::run(&logs, cfg);
            assert_eq!(whole_house(&logs, &analysis).moved, moved, "{first:?} then {second:?}");

            let mut replay = CacheReplay::new(Duration::from_secs(60));
            let absorbed: Vec<bool> = logs.dns.iter().map(|t| replay.offer(t)).collect();
            assert_eq!(absorbed, [false, moved == 1], "{first:?} then {second:?}");
            assert_eq!(replay.live(), 2 - moved as u64);
        }
    }

    /// A lookup that finds its record expired takes the slot over in
    /// place; one that went unanswered leaves nothing behind.
    #[test]
    fn cache_replay_reprimes_in_place_and_drops_what_nothing_answers() {
        let mut replay = CacheReplay::new(Duration::from_secs(3_600));
        let a = NameTable::default().intern("a.example.com");
        let unanswered = |ts_ms| DnsTransaction {
            rcode: None,
            rtt: None,
            answers: Default::default(),
            ..txn(ts_ms, a, SERVER, 10, 4)
        };
        assert!(!replay.offer(&unanswered(0)));
        assert_eq!((replay.live(), replay.evicted()), (0, 0));
        assert!(!replay.offer(&txn(1_000, a, SERVER, 10, 4)));
        assert!(!replay.offer(&txn(20_000, a, SERVER, 10, 4)));
        assert_eq!((replay.live(), replay.evicted(), replay.peak_live()), (1, 1, 1));
        assert!(replay.offer(&txn(21_000, a, SERVER, 10, 4)));
        assert!(!replay.offer(&unanswered(40_000)));
        assert_eq!((replay.live(), replay.evicted(), replay.peak_live()), (0, 2, 1));
        assert_eq!((replay.hits(), replay.misses()), (1, 4));
    }

    fn many_need_logs() -> Logs {
        // One name, TTL 100 s, used every 60 s for 10 minutes → standard
        // cache alternates hit/miss; refresh-all hits everything but the
        // first.
        let mut logs = Logs::default();
        let a = logs.names.intern("a.example.com");
        for i in 0..10u64 {
            let t = i * 60_000;
            logs.dns.push(txn(t, a, SERVER, 100, 4));
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
        let b = logs.names.intern("b.example.com");
        for i in 0..5u64 {
            let t = i * 60_000;
            logs.dns.push(txn(t, b, SERVER, 5, 4));
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
        let a = NameTable::default().intern("a.example.com");
        let first = txn(0, a, SERVER, 10, 4);
        let expiry_ms = 10_004;

        // One nanosecond (here: one millisecond) before expiry: hit.
        let mut replay = CacheReplay::new(Duration::from_secs(60));
        assert!(!replay.offer(&first));
        assert!(replay.offer(&txn(expiry_ms - 1, a, SERVER, 10, 4)));

        // At exactly the expiry instant: dead, by the same strict `>`
        // rule the pairing index applies — and the corpse is evicted.
        let mut replay = CacheReplay::new(Duration::from_secs(60));
        assert!(!replay.offer(&first));
        assert!(!replay.offer(&txn(expiry_ms, a, SERVER, 10, 4)));
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
            let a = logs.names.intern("a.example.com");
            logs.dns = vec![txn(0, a, SERVER, 10, 4)];
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
        let mut names = NameTable::default();
        for i in 0..50u64 {
            let name = names.intern(&format!("n{i}.example.com"));
            assert!(!replay.offer(&txn(i * 120_000, name, SERVER, 5, 4)));
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
