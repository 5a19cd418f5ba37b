//! Connection classification (paper §5, Table 2) and the §5.1/§5.2
//! in-text analyses.

use crate::kernel::{blocked_class, release_class};
pub use crate::kernel::ThresholdRule;
use crate::pairing::{PairedConn, Pairing};
use crate::stats::{pct, Ecdf};
use std::collections::HashMap;
use std::net::Ipv4Addr;
use zeek_lite::{ConnColumns, ConnRecord, DnsColumns, Duration};

/// The paper's five connection classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConnClass {
    /// No DNS information involved.
    NoDns,
    /// Local-cache information, previously used.
    LocalCache,
    /// Previously-unused (speculative) information, used >100 ms later.
    Prefetched,
    /// Blocked; answered from the shared resolver's cache.
    SharedCache,
    /// Blocked; required authoritative resolution.
    Resolution,
}

impl ConnClass {
    /// The paper's symbol.
    pub fn symbol(self) -> &'static str {
        match self {
            ConnClass::NoDns => "N",
            ConnClass::LocalCache => "LC",
            ConnClass::Prefetched => "P",
            ConnClass::SharedCache => "SC",
            ConnClass::Resolution => "R",
        }
    }

    /// The paper's description (Table 2's second column).
    pub fn description(self) -> &'static str {
        match self {
            ConnClass::NoDns => "No DNS",
            ConnClass::LocalCache => "Local Cache",
            ConnClass::Prefetched => "Prefetched",
            ConnClass::SharedCache => "Shared Resolver Cache",
            ConnClass::Resolution => "Requires Resolution",
        }
    }

    /// All five classes in Table 2's order.
    pub fn all() -> [ConnClass; 5] {
        [
            ConnClass::NoDns,
            ConnClass::LocalCache,
            ConnClass::Prefetched,
            ConnClass::SharedCache,
            ConnClass::Resolution,
        ]
    }
}

/// Table 2: counts per class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassCounts {
    /// `N` count.
    pub no_dns: usize,
    /// `LC` count.
    pub local_cache: usize,
    /// `P` count.
    pub prefetched: usize,
    /// `SC` count.
    pub shared_cache: usize,
    /// `R` count.
    pub resolution: usize,
}

impl ClassCounts {
    /// Total connections.
    pub fn total(&self) -> usize {
        self.no_dns + self.local_cache + self.prefetched + self.shared_cache + self.resolution
    }

    /// Count for one class.
    pub fn get(&self, class: ConnClass) -> usize {
        match class {
            ConnClass::NoDns => self.no_dns,
            ConnClass::LocalCache => self.local_cache,
            ConnClass::Prefetched => self.prefetched,
            ConnClass::SharedCache => self.shared_cache,
            ConnClass::Resolution => self.resolution,
        }
    }

    /// Count one connection of `class`.
    pub(crate) fn record(&mut self, class: ConnClass) {
        match class {
            ConnClass::NoDns => self.no_dns += 1,
            ConnClass::LocalCache => self.local_cache += 1,
            ConnClass::Prefetched => self.prefetched += 1,
            ConnClass::SharedCache => self.shared_cache += 1,
            ConnClass::Resolution => self.resolution += 1,
        }
    }

    /// Percentage for one class (Table 2's last column).
    pub fn share_pct(&self, class: ConnClass) -> f64 {
        pct(self.get(class), self.total())
    }

    /// Shared-cache hit rate among blocked connections
    /// (SC / (SC + R); the paper reports 62.6 %).
    pub fn shared_hit_rate(&self) -> f64 {
        let blocked = self.shared_cache + self.resolution;
        if blocked == 0 {
            0.0
        } else {
            self.shared_cache as f64 / blocked as f64
        }
    }

    /// Share of connections that block on DNS (SC + R; paper: 42.1 %).
    pub fn blocked_share_pct(&self) -> f64 {
        pct(self.shared_cache + self.resolution, self.total())
    }
}

/// Compute per-resolver SC/R thresholds from the lookup-duration
/// distributions (paper §5.3). Scans the resolver and rtt columns.
pub fn resolver_thresholds(dns: &DnsColumns, rule: ThresholdRule) -> HashMap<Ipv4Addr, Duration> {
    let mut by_resolver: HashMap<Ipv4Addr, (f64, usize)> = HashMap::new();
    for (resolver, rtt) in dns.resolver.iter().zip(&dns.rtt) {
        if let Some(rtt) = rtt {
            let e = by_resolver.entry(*resolver).or_insert((f64::INFINITY, 0));
            e.0 = e.0.min(rtt.as_millis_f64());
            e.1 += 1;
        }
    }
    by_resolver
        // lint: allow(no-map-iteration): map-to-map transform, no order reaches output
        .into_iter()
        .filter_map(|(addr, (min_ms, n))| Some((addr, rule.threshold(min_ms, n)?)))
        .collect()
}

/// Classify every analysed connection. `thresholds` comes from
/// [`resolver_thresholds`]; resolvers missing from it use the rule's floor.
pub fn classify(
    dns: &DnsColumns,
    pairing: &Pairing,
    block_threshold: Duration,
    thresholds: &HashMap<Ipv4Addr, Duration>,
    floor: Duration,
) -> Vec<ConnClass> {
    pairing
        .pairs
        .iter()
        .map(|p| classify_pair(p, dns, block_threshold, thresholds, floor))
        .collect()
}

/// One connection's class: what pairing alone decides
/// ([`release_class`]), else SC/R by the paired lookup's duration against
/// its resolver's threshold. Reads only the resolver and rtt columns of
/// the paired lookup.
fn classify_pair(
    p: &PairedConn,
    dns: &DnsColumns,
    block_threshold: Duration,
    thresholds: &HashMap<Ipv4Addr, Duration>,
    floor: Duration,
) -> ConnClass {
    release_class(p.outcome(), block_threshold).unwrap_or_else(|| {
        let di = p.dns.expect("blocked conns are paired");
        let thr = thresholds.get(&dns.resolver[di]).copied().unwrap_or(floor);
        blocked_class(dns.rtt[di].unwrap_or(Duration::ZERO), thr)
    })
}

/// [`classify`] fanned out over worker threads: contiguous chunks of the
/// pairing are classified independently and concatenated in order. Each
/// pair's class is a pure function of that pair, so the result is
/// identical to the sequential call for every thread count.
pub fn classify_parallel(
    threads: usize,
    dns: &DnsColumns,
    pairing: &Pairing,
    block_threshold: Duration,
    thresholds: &HashMap<Ipv4Addr, Duration>,
    floor: Duration,
) -> Vec<ConnClass> {
    let n = pairing.pairs.len();
    let workers = xkit::par::resolve_threads(threads).min(n.max(1));
    if workers <= 1 {
        return classify(dns, pairing, block_threshold, thresholds, floor);
    }
    let chunks: Vec<&[PairedConn]> = pairing.pairs.chunks(n.div_ceil(workers)).collect();
    xkit::par::par_map(threads, chunks, |_, chunk| {
        chunk
            .iter()
            .map(|p| classify_pair(p, dns, block_threshold, thresholds, floor))
            .collect::<Vec<ConnClass>>()
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Tally classes into Table 2's counts.
pub fn count_classes(classes: &[ConnClass]) -> ClassCounts {
    let mut c = ClassCounts::default();
    for class in classes {
        c.record(*class);
    }
    c
}

/// §5.1: the anatomy of the no-DNS connections.
#[derive(Debug, Clone)]
pub struct NoDnsBreakdown {
    /// Total `N` connections.
    pub total: usize,
    /// Of those, both ports ≥ 1024 (P2P hallmark; paper: 81.6 %).
    pub both_high_ports: usize,
    /// Reserved-port `N` connections grouped by (address, port), sorted by
    /// count descending — the paper's hard-coded NTP/AlarmNet stories.
    pub reserved_port_endpoints: Vec<((Ipv4Addr, u16), usize)>,
    /// Connections on the DoT port anywhere in the trace (paper: none).
    pub dot_port_conns: usize,
    /// Share of *all* application connections that are both unpaired and
    /// not high-high (the paper's ≤1.3 % possibly-encrypted bound).
    pub unpaired_not_p2p_share_pct: f64,
}

/// Compute the §5.1 breakdown.
pub(crate) fn no_dns_breakdown(
    conns: &[ConnRecord],
    pairing: &Pairing,
    classes: &[ConnClass],
) -> NoDnsBreakdown {
    let mut total = 0usize;
    let mut both_high = 0usize;
    let mut reserved: HashMap<(Ipv4Addr, u16), usize> = HashMap::new();
    let mut unpaired_not_p2p = 0usize;
    let mut dot = 0usize;
    for (pair, class) in pairing.pairs.iter().zip(classes) {
        let conn = &conns[pair.conn];
        if conn.id.resp_port == 853 || conn.id.orig_port == 853 {
            dot += 1;
        }
        if *class != ConnClass::NoDns {
            continue;
        }
        total += 1;
        if conn.id.both_high_ports() {
            both_high += 1;
        } else {
            *reserved.entry((conn.id.resp_addr, conn.id.resp_port)).or_default() += 1;
            unpaired_not_p2p += 1;
        }
    }
    // lint: allow(no-map-iteration): sorted just below under a total order
    let mut reserved_port_endpoints: Vec<_> = reserved.into_iter().collect();
    reserved_port_endpoints.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    NoDnsBreakdown {
        total,
        both_high_ports: both_high,
        reserved_port_endpoints,
        dot_port_conns: dot,
        unpaired_not_p2p_share_pct: pct(unpaired_not_p2p, pairing.pairs.len()),
    }
}

/// §5.2: TTL violations and prefetch efficacy.
#[derive(Debug)]
pub struct TtlStats {
    /// Share of LC connections using expired records (paper: 22.2 %).
    pub lc_violation_share_pct: f64,
    /// Share of P connections using expired records (paper: 12.4 %).
    pub p_violation_share_pct: f64,
    /// Distribution of how stale violated records were, seconds
    /// (paper: 82 % > 30 s, median 890 s, p90 ≈ 19 ks).
    pub violation_staleness_secs: Ecdf,
    /// Median lookup-to-use gap for P connections, seconds (paper: 310 s).
    pub p_use_gap_median_secs: Option<f64>,
    /// Median lookup-to-use gap for LC connections, seconds (paper: 1033 s).
    pub lc_use_gap_median_secs: Option<f64>,
    /// Lookups never used by any connection (paper: 3.1 M / 37.8 %).
    pub unused_lookups: usize,
    /// Unused share of eligible lookups.
    pub unused_share_pct: f64,
    /// Treating unused lookups as speculative: the share of speculative
    /// lookups ultimately used (paper: 22.3 %).
    pub speculative_used_share_pct: f64,
}

/// Compute the §5.2 statistics. Scans the conn ts column and the dns
/// expiry column.
pub(crate) fn ttl_stats(
    conns: &ConnColumns,
    dns: &DnsColumns,
    pairing: &Pairing,
    classes: &[ConnClass],
) -> TtlStats {
    let mut lc = (0usize, 0usize); // (violations, total)
    let mut p = (0usize, 0usize);
    let mut staleness = Vec::new();
    let mut p_gaps = Vec::new();
    let mut lc_gaps = Vec::new();
    let mut p_first_lookups = std::collections::HashSet::new();
    for (pair, class) in pairing.pairs.iter().zip(classes) {
        let counters = match class {
            ConnClass::LocalCache => &mut lc,
            ConnClass::Prefetched => &mut p,
            _ => continue,
        };
        counters.1 += 1;
        let di = pair.dns.expect("LC/P are paired");
        if *class == ConnClass::Prefetched {
            p_first_lookups.insert(di);
            p_gaps.push(pair.gap.unwrap().as_secs_f64());
        } else {
            lc_gaps.push(pair.gap.unwrap().as_secs_f64());
        }
        if pair.expired {
            counters.0 += 1;
            if let Some(expires) = dns.expires[di] {
                staleness.push(conns.ts[pair.conn].since(expires).as_secs_f64());
            }
        }
    }
    let (unused_lookups, unused_share) = pairing.unused_lookups(dns);
    let speculative_total = unused_lookups + p_first_lookups.len();
    TtlStats {
        lc_violation_share_pct: pct(lc.0, lc.1),
        p_violation_share_pct: pct(p.0, p.1),
        violation_staleness_secs: Ecdf::new(staleness),
        p_use_gap_median_secs: Ecdf::new(p_gaps).median(),
        lc_use_gap_median_secs: Ecdf::new(lc_gaps).median(),
        unused_lookups,
        unused_share_pct: unused_share * 100.0,
        speculative_used_share_pct: pct(p_first_lookups.len(), speculative_total),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pairing::PairingPolicy;
    use zeek_lite::{Answer, ConnState, DnsTransaction, FiveTuple, Proto, Timestamp};

    const HOUSE: Ipv4Addr = Ipv4Addr::new(10, 77, 0, 1);
    const RES_FAST: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 53);
    const SERVER: Ipv4Addr = Ipv4Addr::new(104, 16, 0, 1);

    fn txn(ts_ms: u64, rtt_ms: u64, ttl: u32) -> DnsTransaction {
        DnsTransaction {
            ts: Timestamp::from_millis(ts_ms),
            client: HOUSE,
            resolver: RES_FAST,
            trans_id: 1,
            query: zeek_lite::NameTable::default().intern("www.example.com"),
            qtype: dns_wire::RrType::A,
            rcode: Some(dns_wire::Rcode::NoError),
            rtt: Some(Duration::from_millis(rtt_ms)),
            answers: [Answer::addr(SERVER, ttl)].into(),
        }
    }

    fn conn(ts_ms: u64, dst: Ipv4Addr, orig_port: u16, resp_port: u16) -> ConnRecord {
        ConnRecord {
            uid: ts_ms,
            ts: Timestamp::from_millis(ts_ms),
            id: FiveTuple {
                orig_addr: HOUSE,
                orig_port,
                resp_addr: dst,
                resp_port,
                proto: Proto::Tcp,
            },
            duration: Duration::from_millis(400),
            orig_bytes: 10,
            resp_bytes: 10,
            orig_pkts: 2,
            resp_pkts: 2,
            state: ConnState::SF,
            history: zeek_lite::History::new(),
            service: None,
        }
    }

    fn run(
        conns: &[ConnRecord],
        dns: &[DnsTransaction],
    ) -> (Pairing, Vec<ConnClass>, HashMap<Ipv4Addr, Duration>) {
        let pairing = Pairing::build(conns, dns, PairingPolicy::MostRecent);
        let dns_cols = DnsColumns::from_rows(dns);
        let rule = ThresholdRule { min_lookups: 1, ..ThresholdRule::default() };
        let thr = resolver_thresholds(&dns_cols, rule);
        let classes = classify(
            &dns_cols,
            &pairing,
            Duration::from_millis(100),
            &thr,
            Duration::from_millis(5),
        );
        (pairing, classes, thr)
    }

    #[test]
    fn blocked_fast_lookup_is_sc() {
        // Two lookups so the min anchors at 4 ms; the 4 ms lookup's conn
        // is SC, and a much slower one lands R.
        let dns = vec![txn(0, 4, 300), txn(10_000, 80, 300)];
        let conns = vec![conn(10, SERVER, 50_000, 443), conn(10_085, SERVER, 50_001, 443)];
        let (_, classes, thr) = run(&conns, &dns);
        // Threshold: ceil(4 * 1.3 + 2) = 8 ms.
        assert_eq!(thr[&RES_FAST], Duration::from_millis(8));
        assert_eq!(classes[0], ConnClass::SharedCache);
        assert_eq!(classes[1], ConnClass::Resolution);
    }

    #[test]
    fn non_blocked_first_use_is_prefetched_then_lc() {
        let dns = vec![txn(0, 5, 3_600)];
        let conns = vec![
            conn(30_000, SERVER, 50_000, 443), // 30 s later: first use → P
            conn(60_000, SERVER, 50_001, 443), // second use → LC
        ];
        let (_, classes, _) = run(&conns, &dns);
        assert_eq!(classes[0], ConnClass::Prefetched);
        assert_eq!(classes[1], ConnClass::LocalCache);
    }

    #[test]
    fn unpaired_is_no_dns() {
        let dns = vec![txn(0, 5, 300)];
        let conns = vec![conn(10, Ipv4Addr::new(9, 9, 9, 9), 51_413, 51_413)];
        let (_, classes, _) = run(&conns, &dns);
        assert_eq!(classes[0], ConnClass::NoDns);
    }

    #[test]
    fn class_counts_and_shares() {
        let classes = vec![
            ConnClass::NoDns,
            ConnClass::LocalCache,
            ConnClass::LocalCache,
            ConnClass::SharedCache,
            ConnClass::Resolution,
        ];
        let c = count_classes(&classes);
        assert_eq!(c.total(), 5);
        assert_eq!(c.share_pct(ConnClass::LocalCache), 40.0);
        assert_eq!(c.shared_hit_rate(), 0.5);
        assert_eq!(c.blocked_share_pct(), 40.0);
    }

    #[test]
    fn threshold_rule_respects_floor_and_min_lookups() {
        let dns = DnsColumns::from_rows(&[txn(0, 1, 300)]); // min 1 ms → raw thr 3.3 → floor 5
        let rule = ThresholdRule { min_lookups: 1, ..ThresholdRule::default() };
        let thr = resolver_thresholds(&dns, rule);
        assert_eq!(thr[&RES_FAST], Duration::from_millis(5));
        // Below min_lookups: resolver gets no entry.
        let thr2 = resolver_thresholds(&dns, ThresholdRule::default());
        assert!(thr2.is_empty());
    }

    #[test]
    fn no_dns_breakdown_reports_ports() {
        let dns = vec![txn(0, 5, 300)];
        let conns = vec![
            conn(10, Ipv4Addr::new(58, 1, 2, 3), 51_000, 52_000), // p2p-ish
            conn(20, Ipv4Addr::new(192, 0, 32, 10), 50_000, 123), // hard-coded NTP
            conn(30, Ipv4Addr::new(192, 0, 32, 10), 50_001, 123),
        ];
        let pairing = Pairing::build(&conns, &dns, PairingPolicy::MostRecent);
        let classes = vec![ConnClass::NoDns; 3];
        let b = no_dns_breakdown(&conns, &pairing, &classes);
        assert_eq!(b.total, 3);
        assert_eq!(b.both_high_ports, 1);
        assert_eq!(b.reserved_port_endpoints[0], ((Ipv4Addr::new(192, 0, 32, 10), 123), 2));
        assert_eq!(b.dot_port_conns, 0);
    }

    #[test]
    fn ttl_stats_capture_violations() {
        // TTL 1 s lookup; first conn fresh (P), later conns stale.
        let dns = vec![txn(0, 5, 1)];
        let conns = vec![
            conn(500, SERVER, 50_000, 443),    // fresh, first use → P
            conn(40_000, SERVER, 50_001, 443), // expired → LC violation
        ];
        let (pairing, classes, _) = run(&conns, &dns);
        assert_eq!(classes, vec![ConnClass::Prefetched, ConnClass::LocalCache]);
        let stats = ttl_stats(
            &ConnColumns::from_rows(&conns),
            &DnsColumns::from_rows(&dns),
            &pairing,
            &classes,
        );
        assert_eq!(stats.lc_violation_share_pct, 100.0);
        assert_eq!(stats.p_violation_share_pct, 0.0);
        assert_eq!(stats.violation_staleness_secs.len(), 1);
        // Staleness: conn at 40 s, expiry at 0 + 5 ms + 1 s.
        let s = stats.violation_staleness_secs.samples()[0];
        assert!((s - 38.995).abs() < 1e-6, "staleness {s}");
        assert_eq!(stats.unused_lookups, 0);
        assert_eq!(stats.speculative_used_share_pct, 100.0);
    }
}
