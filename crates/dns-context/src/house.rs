//! Per-house breakdowns.
//!
//! The paper reports aggregates over ~100 NATed houses; operators running
//! this pipeline on their own network want the same numbers *per house*
//! (which homes suffer DNS delays, which run P2P, which would benefit
//! from a caching router). Everything here is derived from the shared
//! [`Analysis`](crate::Analysis) result.

use crate::classify::{ClassCounts, ConnClass};
use crate::pairing::Pairing;
use crate::stats::Ecdf;
use std::collections::HashMap;
use std::net::Ipv4Addr;
use zeek_lite::{ConnRecord, DnsTransaction};

/// One house's slice of the analysis.
#[derive(Debug)]
pub struct HouseReport {
    /// The house's (NAT) address.
    pub addr: Ipv4Addr,
    /// Class mix of the house's connections.
    pub classes: ClassCounts,
    /// DNS lookups issued by the house.
    pub lookups: usize,
    /// Total bytes across the house's application connections.
    pub bytes: u64,
    /// Blocked-lookup delays (ms) for the house's SC∪R connections.
    pub blocked_delay_ms: Ecdf,
}

impl HouseReport {
    /// Share of this house's connections that block on DNS, percent.
    pub fn blocked_share_pct(&self) -> f64 {
        self.classes.blocked_share_pct()
    }
}

/// Build a per-house report table, sorted by connection count descending.
pub(crate) fn house_reports(
    conns: &[ConnRecord],
    dns: &[DnsTransaction],
    pairing: &Pairing,
    classes: &[ConnClass],
) -> Vec<HouseReport> {
    struct Acc {
        classes: ClassCounts,
        lookups: usize,
        bytes: u64,
        delays: Vec<f64>,
    }
    let mut by_house: HashMap<Ipv4Addr, Acc> = HashMap::new();
    fn acc(m: &mut HashMap<Ipv4Addr, Acc>, a: Ipv4Addr) -> &mut Acc {
        m.entry(a).or_insert_with(|| Acc {
            classes: ClassCounts::default(),
            lookups: 0,
            bytes: 0,
            delays: Vec::new(),
        })
    }
    for txn in dns {
        acc(&mut by_house, txn.client).lookups += 1;
    }
    for (pair, class) in pairing.pairs.iter().zip(classes) {
        let conn = &conns[pair.conn];
        let a = acc(&mut by_house, conn.id.orig_addr);
        a.classes.record(*class);
        a.bytes += conn.total_bytes();
        if matches!(class, ConnClass::SharedCache | ConnClass::Resolution) {
            if let Some(di) = pair.dns {
                if let Some(rtt) = dns[di].rtt {
                    a.delays.push(rtt.as_millis_f64());
                }
            }
        }
    }
    let mut reports: Vec<HouseReport> = by_house
        // lint: allow(no-map-iteration): sorted just below under a total order
        .into_iter()
        .map(|(addr, a)| HouseReport {
            addr,
            classes: a.classes,
            lookups: a.lookups,
            bytes: a.bytes,
            blocked_delay_ms: Ecdf::new(a.delays),
        })
        .collect();
    reports.sort_by(|x, y| y.classes.total().cmp(&x.classes.total()).then(x.addr.cmp(&y.addr)));
    reports
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pairing::PairingPolicy;
    use zeek_lite::{Answer, ConnState, Duration, FiveTuple, Proto, Timestamp};

    const H1: Ipv4Addr = Ipv4Addr::new(10, 77, 0, 1);
    const H2: Ipv4Addr = Ipv4Addr::new(10, 77, 0, 2);
    const RES: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 53);
    const S: Ipv4Addr = Ipv4Addr::new(104, 16, 0, 1);

    fn txn(ts_ms: u64, client: Ipv4Addr) -> DnsTransaction {
        DnsTransaction {
            ts: Timestamp::from_millis(ts_ms),
            client,
            resolver: RES,
            trans_id: 1,
            query: zeek_lite::NameTable::default().intern("x.example.com"),
            qtype: dns_wire::RrType::A,
            rcode: Some(dns_wire::Rcode::NoError),
            rtt: Some(Duration::from_millis(4)),
            answers: [Answer::addr(S, 300)].into(),
        }
    }

    fn conn(ts_ms: u64, client: Ipv4Addr, bytes: u64) -> ConnRecord {
        ConnRecord {
            uid: ts_ms,
            ts: Timestamp::from_millis(ts_ms),
            id: FiveTuple {
                orig_addr: client,
                orig_port: 50_000,
                resp_addr: S,
                resp_port: 443,
                proto: Proto::Tcp,
            },
            duration: Duration::from_millis(500),
            orig_bytes: 10,
            resp_bytes: bytes,
            orig_pkts: 2,
            resp_pkts: 4,
            state: ConnState::SF,
            history: zeek_lite::History::new(),
            service: Some("ssl"),
        }
    }

    #[test]
    fn splits_by_house() {
        let dns = vec![txn(0, H1), txn(0, H2)];
        let conns = vec![
            conn(6, H1, 1_000),   // blocked -> SC/R for H1
            conn(30_000, H1, 50), // reuse -> LC for H1
            conn(6, H2, 2_000),   // blocked for H2
        ];
        let pairing = Pairing::build(&conns, &dns, PairingPolicy::MostRecent);
        let classes = crate::classify::classify(
            &zeek_lite::DnsColumns::from_rows(&dns),
            &pairing,
            Duration::from_millis(100),
            &HashMap::new(),
            Duration::from_millis(5),
        );
        let reports = house_reports(&conns, &dns, &pairing, &classes);
        assert_eq!(reports.len(), 2);
        // H1 has more conns, so it sorts first.
        assert_eq!(reports[0].addr, H1);
        assert_eq!(reports[0].classes.total(), 2);
        assert_eq!(reports[0].lookups, 1);
        assert_eq!(reports[0].bytes, 1_000 + 10 + 50 + 10);
        assert_eq!(reports[0].blocked_delay_ms.len(), 1);
        assert_eq!(reports[1].addr, H2);
        assert_eq!(reports[1].classes.shared_cache + reports[1].classes.resolution, 1);
    }

    #[test]
    fn empty_inputs() {
        let pairing = Pairing::build(&[], &[], PairingPolicy::MostRecent);
        let reports = house_reports(&[], &[], &pairing, &[]);
        assert!(reports.is_empty());
    }
}
