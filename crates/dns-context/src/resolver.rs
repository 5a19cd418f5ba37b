//! Resolver platform attribution and comparison (Table 1, §7, Figure 3).

use crate::classify::ConnClass;
use crate::pairing::Pairing;
use crate::stats::{pct, Ecdf};
use std::collections::{HashMap, HashSet};
use std::net::Ipv4Addr;
use zeek_lite::{ConnRecord, DnsTransaction, NameTable};

/// Maps resolver addresses to platform names.
///
/// Known public-platform addresses are matched exactly; anything else is
/// attributed to the catch-all platform (the local ISP's resolvers, from
/// the monitor's point of view). This is how the paper could label
/// platforms without instrumenting them.
#[derive(Debug, Clone)]
pub struct PlatformMap {
    /// (platform name, addresses). Checked in order.
    pub entries: Vec<(String, Vec<Ipv4Addr>)>,
    /// Name for resolvers not matching any entry.
    pub catch_all: String,
}

impl Default for PlatformMap {
    fn default() -> Self {
        let ip = |a: [u8; 4]| Ipv4Addr::new(a[0], a[1], a[2], a[3]);
        PlatformMap {
            entries: vec![
                ("Google".into(), vec![ip([8, 8, 8, 8]), ip([8, 8, 4, 4])]),
                (
                    "OpenDNS".into(),
                    vec![ip([208, 67, 222, 222]), ip([208, 67, 220, 220])],
                ),
                ("Cloudflare".into(), vec![ip([1, 1, 1, 1]), ip([1, 0, 0, 1])]),
            ],
            catch_all: "Local".into(),
        }
    }
}

impl PlatformMap {
    /// Platform name for a resolver address.
    fn platform_of(&self, addr: Ipv4Addr) -> &str {
        for (name, addrs) in &self.entries {
            if addrs.contains(&addr) {
                return name;
            }
        }
        &self.catch_all
    }

    /// All platform names, catch-all first (Table 1's row order).
    pub(crate) fn names(&self) -> Vec<String> {
        let mut v = vec![self.catch_all.clone()];
        v.extend(self.entries.iter().map(|(n, _)| n.clone()));
        v
    }
}

/// One row of Table 1 plus the §7/Figure 3 per-platform material.
#[derive(Debug)]
pub struct PlatformReport {
    /// Platform name.
    pub name: String,
    /// % of houses with at least one lookup to the platform.
    pub houses_pct: f64,
    /// % of lookups handled.
    pub lookups_pct: f64,
    /// % of paired connections attributed.
    pub conns_pct: f64,
    /// % of paired-connection bytes attributed.
    pub bytes_pct: f64,
    /// §7 shared-cache hit rate: SC / (SC + R) among this platform's
    /// blocked connections, percent.
    pub hit_rate_pct: f64,
    /// Figure 3 top: lookup durations (ms) behind this platform's R conns.
    pub r_delay_ms: Ecdf,
    /// Figure 3 bottom: throughput (bit/s) of this platform's SC ∪ R conns.
    pub throughput_bps: Ecdf,
    /// Google only: throughput with connectivitycheck conns removed
    /// (the dashed line). Empty for other platforms.
    pub throughput_no_artifact_bps: Ecdf,
    /// Share of this platform's SC ∪ R conns caused by the
    /// connectivity-check hostname (paper: 23.5 % for Google).
    pub artifact_conn_share_pct: f64,
}

/// The Android captive-portal-detection hostname the paper singles out.
const CONNECTIVITY_CHECK: &str = "connectivitycheck.gstatic.com";

/// Build Table 1 / §7 / Figure 3 for every platform; `names` holds the
/// names `dns` refers to.
pub(crate) fn platform_reports(
    conns: &[ConnRecord],
    dns: &[DnsTransaction],
    names: &NameTable,
    pairing: &Pairing,
    classes: &[ConnClass],
    map: &PlatformMap,
) -> Vec<PlatformReport> {
    // ---- lookups and houses ----
    let mut lookups: HashMap<&str, usize> = HashMap::new();
    let mut houses: HashMap<&str, HashSet<Ipv4Addr>> = HashMap::new();
    let mut all_houses: HashSet<Ipv4Addr> = HashSet::new();
    for t in dns {
        let p = map.platform_of(t.resolver);
        *lookups.entry(p).or_default() += 1;
        houses.entry(p).or_default().insert(t.client);
        all_houses.insert(t.client);
    }
    // lint: allow(no-map-iteration): order-insensitive integer sum
    let total_lookups: usize = lookups.values().sum();

    // ---- paired connections ----
    let connectivity_check = names.get(CONNECTIVITY_CHECK);
    let mut conn_counts: HashMap<&str, usize> = HashMap::new();
    let mut byte_counts: HashMap<&str, u64> = HashMap::new();
    let mut blocked: HashMap<&str, (usize, usize)> = HashMap::new(); // (sc, r)
    let mut r_delays: HashMap<&str, Vec<f64>> = HashMap::new();
    let mut tp: HashMap<&str, Vec<f64>> = HashMap::new();
    let mut tp_clean: HashMap<&str, Vec<f64>> = HashMap::new();
    let mut artifact: HashMap<&str, (usize, usize)> = HashMap::new(); // (artifact, total blocked)
    let mut total_paired = 0usize;
    let mut total_bytes = 0u64;
    for (pair, class) in pairing.pairs.iter().zip(classes) {
        let Some(di) = pair.dns else { continue };
        let txn = &dns[di];
        let p = map.platform_of(txn.resolver);
        let conn = &conns[pair.conn];
        total_paired += 1;
        total_bytes += conn.total_bytes();
        *conn_counts.entry(p).or_default() += 1;
        *byte_counts.entry(p).or_default() += conn.total_bytes();
        let is_blocked = matches!(class, ConnClass::SharedCache | ConnClass::Resolution);
        if is_blocked {
            let b = blocked.entry(p).or_default();
            let a = artifact.entry(p).or_default();
            a.1 += 1;
            let is_artifact = Some(txn.query) == connectivity_check;
            if is_artifact {
                a.0 += 1;
            }
            match class {
                ConnClass::SharedCache => b.0 += 1,
                ConnClass::Resolution => {
                    b.1 += 1;
                    r_delays
                        .entry(p)
                        .or_default()
                        .push(txn.rtt.expect("paired lookups answered").as_millis_f64());
                }
                _ => unreachable!(),
            }
            if let Some(bps) = conn.throughput_bps() {
                tp.entry(p).or_default().push(bps);
                if !is_artifact {
                    tp_clean.entry(p).or_default().push(bps);
                }
            }
        }
    }

    map.names()
        .into_iter()
        .map(|name| {
            let key = name.as_str();
            let (sc, r) = blocked.get(key).copied().unwrap_or((0, 0));
            let (art, art_total) = artifact.get(key).copied().unwrap_or((0, 0));
            PlatformReport {
                houses_pct: pct(
                    houses.get(key).map(|s| s.len()).unwrap_or(0),
                    all_houses.len(),
                ),
                lookups_pct: pct(lookups.get(key).copied().unwrap_or(0), total_lookups),
                conns_pct: pct(conn_counts.get(key).copied().unwrap_or(0), total_paired),
                bytes_pct: if total_bytes == 0 {
                    0.0
                } else {
                    100.0 * byte_counts.get(key).copied().unwrap_or(0) as f64 / total_bytes as f64
                },
                hit_rate_pct: if sc + r == 0 { 0.0 } else { 100.0 * sc as f64 / (sc + r) as f64 },
                r_delay_ms: Ecdf::new(r_delays.remove(key).unwrap_or_default()),
                throughput_bps: Ecdf::new(tp.remove(key).unwrap_or_default()),
                throughput_no_artifact_bps: Ecdf::new(tp_clean.remove(key).unwrap_or_default()),
                artifact_conn_share_pct: pct(art, art_total),
                name,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pairing::PairingPolicy;
    use zeek_lite::{Answer, ConnState, Duration, FiveTuple, NameId, Proto, Timestamp};

    const HOUSE1: Ipv4Addr = Ipv4Addr::new(10, 77, 0, 1);
    const HOUSE2: Ipv4Addr = Ipv4Addr::new(10, 77, 0, 2);
    const LOCAL: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 53);
    const GOOGLE: Ipv4Addr = Ipv4Addr::new(8, 8, 8, 8);
    const SERVER: Ipv4Addr = Ipv4Addr::new(104, 16, 0, 1);
    const SERVER2: Ipv4Addr = Ipv4Addr::new(104, 16, 0, 2);

    fn txn(ts_ms: u64, client: Ipv4Addr, resolver: Ipv4Addr, addr: Ipv4Addr, rtt_ms: u64, q: NameId) -> DnsTransaction {
        DnsTransaction {
            ts: Timestamp::from_millis(ts_ms),
            client,
            resolver,
            trans_id: 1,
            query: q,
            qtype: dns_wire::RrType::A,
            rcode: Some(dns_wire::Rcode::NoError),
            rtt: Some(Duration::from_millis(rtt_ms)),
            answers: [Answer::addr(addr, 300)].into(),
        }
    }

    fn conn(ts_ms: u64, client: Ipv4Addr, dst: Ipv4Addr, bytes: u64) -> ConnRecord {
        ConnRecord {
            uid: ts_ms,
            ts: Timestamp::from_millis(ts_ms),
            id: FiveTuple {
                orig_addr: client,
                orig_port: 50_000,
                resp_addr: dst,
                resp_port: 443,
                proto: Proto::Tcp,
            },
            duration: Duration::from_millis(1_000),
            orig_bytes: 100,
            resp_bytes: bytes,
            orig_pkts: 4,
            resp_pkts: 8,
            state: ConnState::SF,
            history: zeek_lite::History::new(),
            service: Some("ssl"),
        }
    }

    #[test]
    fn platform_map_defaults() {
        let m = PlatformMap::default();
        assert_eq!(m.platform_of(GOOGLE), "Google");
        assert_eq!(m.platform_of(Ipv4Addr::new(1, 1, 1, 1)), "Cloudflare");
        assert_eq!(m.platform_of(LOCAL), "Local");
        assert_eq!(m.names()[0], "Local");
    }

    #[test]
    fn reports_attribute_by_resolver() {
        let mut names = NameTable::default();
        let (a, b) = (names.intern("a.com"), names.intern("b.com"));
        let dns = vec![
            txn(0, HOUSE1, LOCAL, SERVER, 3, a),
            txn(0, HOUSE2, GOOGLE, SERVER2, 25, b),
            txn(10_000, HOUSE1, LOCAL, SERVER, 3, a),
        ];
        let conns = vec![
            conn(5, HOUSE1, SERVER, 10_000),   // blocked on local lookup
            conn(30, HOUSE2, SERVER2, 50_000), // blocked on google lookup
        ];
        let pairing = Pairing::build(&conns, &dns, PairingPolicy::MostRecent);
        let classes = vec![ConnClass::SharedCache, ConnClass::Resolution];
        let reports = platform_reports(&conns, &dns, &names, &pairing, &classes, &PlatformMap::default());
        let local = reports.iter().find(|r| r.name == "Local").unwrap();
        let google = reports.iter().find(|r| r.name == "Google").unwrap();
        assert_eq!(local.houses_pct, 50.0);
        assert_eq!(google.houses_pct, 50.0);
        assert!((local.lookups_pct - 200.0 / 3.0).abs() < 1e-9);
        assert_eq!(local.conns_pct, 50.0);
        assert_eq!(local.hit_rate_pct, 100.0);
        assert_eq!(google.hit_rate_pct, 0.0);
        assert_eq!(google.r_delay_ms.len(), 1);
        assert_eq!(local.r_delay_ms.len(), 0);
        assert_eq!(google.throughput_bps.len(), 1);
        // Bytes: local conn 10100 of 60200 total.
        assert!((local.bytes_pct - 100.0 * 10_100.0 / 60_250.0).abs() < 0.2);
    }

    #[test]
    fn connectivity_check_artifact_split() {
        // The real name is interned first: the check is found by its text.
        let mut names = NameTable::default();
        let real = names.intern("real.example.com");
        let check = names.intern(CONNECTIVITY_CHECK);
        let dns = vec![
            txn(0, HOUSE1, GOOGLE, SERVER, 20, check),
            txn(10_000, HOUSE1, GOOGLE, SERVER2, 20, real),
        ];
        let conns = vec![conn(25, HOUSE1, SERVER, 200), conn(10_025, HOUSE1, SERVER2, 100_000)];
        let pairing = Pairing::build(&conns, &dns, PairingPolicy::MostRecent);
        let classes = vec![ConnClass::SharedCache, ConnClass::SharedCache];
        let reports = platform_reports(&conns, &dns, &names, &pairing, &classes, &PlatformMap::default());
        let google = reports.iter().find(|r| r.name == "Google").unwrap();
        assert_eq!(google.artifact_conn_share_pct, 50.0);
        assert_eq!(google.throughput_bps.len(), 2);
        assert_eq!(google.throughput_no_artifact_bps.len(), 1);
        // Read through a table where the check's id names another host,
        // the same rows count no artifact.
        let mut other = NameTable::default();
        other.intern("real.example.com");
        other.intern("x.example.com");
        let reports = platform_reports(&conns, &dns, &other, &pairing, &classes, &PlatformMap::default());
        let google = reports.iter().find(|r| r.name == "Google").unwrap();
        assert_eq!(google.artifact_conn_share_pct, 0.0);
    }
}
