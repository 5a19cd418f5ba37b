//! Columnar (struct-of-arrays) projections of the log tables.
//!
//! The row structs ([`ConnRecord`], [`DnsTransaction`]) stay the
//! workspace's interchange format — sorting, merging, and serialisation
//! all speak rows. But the analysis hot loops (pairing, classification,
//! §6 performance) each read only two or three fields per record, and
//! scanning them through 100-byte rows wastes most of every cache line.
//! These projections lay the scanned fields out as contiguous columns:
//!
//! * [`ConnColumns`] carries *every* conn.log field (all are `Copy`), so
//!   it can also reconstruct exact rows ([`ConnColumns::row`]).
//! * [`DnsColumns`] carries only the per-transaction scalars the
//!   analyses scan (client, resolver, rtt, derived completion/expiry);
//!   variable-length data (query names, answer sets) stays in the rows.
//!
//! Invariant: a projection is positionally aligned with the rows it was
//! built from — index `i` in every column refers to row `i`. Projections
//! are derived data; rebuild them after any mutation of the rows.

use crate::dns::DnsTransaction;
use crate::history::History;
use crate::time::{Duration, Timestamp};
use crate::tracker::{ConnRecord, ConnState};
use crate::types::{FiveTuple, Proto};
use std::net::Ipv4Addr;

/// Struct-of-arrays projection of a conn.log (all fields).
#[derive(Debug, Clone, Default)]
pub struct ConnColumns {
    /// First-packet times.
    pub ts: Vec<Timestamp>,
    /// Capture-unique ids.
    pub uid: Vec<u64>,
    /// Originator addresses.
    pub orig_addr: Vec<Ipv4Addr>,
    /// Originator ports.
    pub orig_port: Vec<u16>,
    /// Responder addresses.
    pub resp_addr: Vec<Ipv4Addr>,
    /// Responder ports.
    pub resp_port: Vec<u16>,
    /// Transport protocols.
    pub proto: Vec<Proto>,
    /// Guessed services.
    pub service: Vec<Option<&'static str>>,
    /// Connection durations.
    pub duration: Vec<Duration>,
    /// Originator payload bytes.
    pub orig_bytes: Vec<u64>,
    /// Responder payload bytes.
    pub resp_bytes: Vec<u64>,
    /// Terminal states.
    pub state: Vec<ConnState>,
    /// Originator packets.
    pub orig_pkts: Vec<u64>,
    /// Responder packets.
    pub resp_pkts: Vec<u64>,
    /// Event histories.
    pub history: Vec<History>,
    /// Cached `ConnRecord::is_dns` per row.
    pub is_dns: Vec<bool>,
}

impl ConnColumns {
    /// Project rows into columns (index-aligned).
    pub fn from_rows(conns: &[ConnRecord]) -> ConnColumns {
        let mut c = ConnColumns::default();
        c.reserve(conns.len());
        for r in conns {
            c.push(r);
        }
        c
    }

    fn reserve(&mut self, n: usize) {
        self.ts.reserve(n);
        self.uid.reserve(n);
        self.orig_addr.reserve(n);
        self.orig_port.reserve(n);
        self.resp_addr.reserve(n);
        self.resp_port.reserve(n);
        self.proto.reserve(n);
        self.service.reserve(n);
        self.duration.reserve(n);
        self.orig_bytes.reserve(n);
        self.resp_bytes.reserve(n);
        self.state.reserve(n);
        self.orig_pkts.reserve(n);
        self.resp_pkts.reserve(n);
        self.history.reserve(n);
        self.is_dns.reserve(n);
    }

    /// Append one row to every column.
    pub fn push(&mut self, r: &ConnRecord) {
        self.ts.push(r.ts);
        self.uid.push(r.uid);
        self.orig_addr.push(r.id.orig_addr);
        self.orig_port.push(r.id.orig_port);
        self.resp_addr.push(r.id.resp_addr);
        self.resp_port.push(r.id.resp_port);
        self.proto.push(r.id.proto);
        self.service.push(r.service);
        self.duration.push(r.duration);
        self.orig_bytes.push(r.orig_bytes);
        self.resp_bytes.push(r.resp_bytes);
        self.state.push(r.state);
        self.orig_pkts.push(r.orig_pkts);
        self.resp_pkts.push(r.resp_pkts);
        self.history.push(r.history);
        self.is_dns.push(r.is_dns());
    }

    /// Number of rows projected.
    pub fn len(&self) -> usize {
        self.ts.len()
    }

    /// Whether the projection is empty.
    pub fn is_empty(&self) -> bool {
        self.ts.is_empty()
    }

    /// Reassemble row `i` exactly (every conn.log field is `Copy`, so
    /// this allocates nothing).
    pub fn row(&self, i: usize) -> ConnRecord {
        ConnRecord {
            uid: self.uid[i],
            ts: self.ts[i],
            id: FiveTuple {
                orig_addr: self.orig_addr[i],
                orig_port: self.orig_port[i],
                resp_addr: self.resp_addr[i],
                resp_port: self.resp_port[i],
                proto: self.proto[i],
            },
            duration: self.duration[i],
            orig_bytes: self.orig_bytes[i],
            resp_bytes: self.resp_bytes[i],
            orig_pkts: self.orig_pkts[i],
            resp_pkts: self.resp_pkts[i],
            state: self.state[i],
            history: self.history[i],
            service: self.service[i],
        }
    }

    /// Row views in order.
    pub fn rows(&self) -> impl Iterator<Item = ConnRecord> + '_ {
        (0..self.len()).map(|i| self.row(i))
    }
}

/// Struct-of-arrays projection of the dns.log scalars the analyses scan.
///
/// Completion and expiry are derived once here ([`DnsTransaction`]
/// computes them from `ts + rtt` and the minimum answer TTL), so hot
/// loops read plain columns instead of re-deriving per access.
#[derive(Debug, Clone, Default)]
pub struct DnsColumns {
    /// Querying clients.
    pub client: Vec<Ipv4Addr>,
    /// Serving resolvers.
    pub resolver: Vec<Ipv4Addr>,
    /// Lookup durations (`None` for unanswered queries).
    pub rtt: Vec<Option<Duration>>,
    /// `DnsTransaction::completed_at` per row.
    pub completed: Vec<Option<Timestamp>>,
    /// `DnsTransaction::expires_at` per row.
    pub expires: Vec<Option<Timestamp>>,
    /// `DnsTransaction::has_addrs` per row.
    pub has_addrs: Vec<bool>,
}

impl DnsColumns {
    /// Project rows into columns (index-aligned).
    pub fn from_rows(dns: &[DnsTransaction]) -> DnsColumns {
        let mut c = DnsColumns {
            client: Vec::with_capacity(dns.len()),
            resolver: Vec::with_capacity(dns.len()),
            rtt: Vec::with_capacity(dns.len()),
            completed: Vec::with_capacity(dns.len()),
            expires: Vec::with_capacity(dns.len()),
            has_addrs: Vec::with_capacity(dns.len()),
        };
        for t in dns {
            c.client.push(t.client);
            c.resolver.push(t.resolver);
            c.rtt.push(t.rtt);
            c.completed.push(t.completed_at());
            c.expires.push(t.expires_at());
            c.has_addrs.push(t.has_addrs());
        }
        c
    }

    /// Number of rows projected.
    pub fn len(&self) -> usize {
        self.client.len()
    }

    /// Whether the projection is empty.
    pub fn is_empty(&self) -> bool {
        self.client.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dns::Answer;
    use dns_wire::{Rcode, RrType};

    fn sample_conns() -> Vec<ConnRecord> {
        (0..5u64)
            .map(|i| ConnRecord {
                uid: i,
                ts: Timestamp(i * 1_000_000_007),
                id: FiveTuple {
                    orig_addr: Ipv4Addr::new(10, 0, 0, i as u8 + 1),
                    orig_port: 50_000 + i as u16,
                    resp_addr: Ipv4Addr::new(93, 184, 216, 34),
                    resp_port: if i == 0 { 53 } else { 443 },
                    proto: if i == 0 { Proto::Udp } else { Proto::Tcp },
                },
                duration: Duration::from_millis(100 + i),
                orig_bytes: i * 10,
                resp_bytes: i * 100,
                orig_pkts: i,
                resp_pkts: i * 2,
                state: ConnState::SF,
                history: "ShAaFf".into(),
                service: if i == 0 { Some("dns") } else { Some("ssl") },
            })
            .collect()
    }

    #[test]
    fn conn_rows_round_trip_exactly() {
        let rows = sample_conns();
        let cols = ConnColumns::from_rows(&rows);
        assert_eq!(cols.len(), rows.len());
        let back: Vec<ConnRecord> = cols.rows().collect();
        assert_eq!(back, rows);
        assert!(cols.is_dns[0]);
        assert!(!cols.is_dns[1]);
    }

    #[test]
    fn dns_columns_match_row_derivations() {
        let answered = DnsTransaction {
            ts: Timestamp::from_millis(1_000),
            client: Ipv4Addr::new(10, 0, 0, 1),
            resolver: Ipv4Addr::new(8, 8, 8, 8),
            trans_id: 1,
            query: "www.example.com".into(),
            qtype: RrType::A,
            rcode: Some(Rcode::NoError),
            rtt: Some(Duration::from_millis(10)),
            answers: vec![Answer::addr(Ipv4Addr::new(203, 0, 113, 7), 60)],
        };
        let mut unanswered = answered.clone();
        unanswered.rcode = None;
        unanswered.rtt = None;
        unanswered.answers.clear();
        let rows = vec![answered, unanswered];
        let cols = DnsColumns::from_rows(&rows);
        for (i, t) in rows.iter().enumerate() {
            assert_eq!(cols.client[i], t.client);
            assert_eq!(cols.resolver[i], t.resolver);
            assert_eq!(cols.rtt[i], t.rtt);
            assert_eq!(cols.completed[i], t.completed_at());
            assert_eq!(cols.expires[i], t.expires_at());
            assert_eq!(cols.has_addrs[i], t.has_addrs());
        }
    }
}
