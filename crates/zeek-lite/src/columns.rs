//! Columnar (struct-of-arrays) projections of the log tables.
//!
//! The row structs ([`ConnRecord`], [`DnsTransaction`]) stay the
//! workspace's interchange format — sorting, merging, and serialisation
//! all speak rows, and a stage that visits a row once reads it there.
//! A column exists when a non-test analysis stage scans it: §5.2 and §6
//! read a connection's start and duration, thresholds and classification
//! read a lookup's resolver and duration, §5.2 its expiry and whether it
//! carried addresses. Adding a column means naming the stage that scans
//! it; `tests/analysis_alloc.rs` holds the batch run to the bytes these
//! six cost.
//!
//! Invariant: a projection is positionally aligned with the rows it was
//! built from — index `i` in every column refers to row `i`. Projections
//! are derived data; rebuild them after any mutation of the rows.

use crate::dns::DnsTransaction;
use crate::time::{Duration, Timestamp};
use crate::tracker::ConnRecord;
use std::net::Ipv4Addr;

/// Struct-of-arrays projection of the conn.log fields the analyses scan.
#[derive(Debug, Clone, Default)]
pub struct ConnColumns {
    /// First-packet times.
    pub ts: Vec<Timestamp>,
    /// Connection durations.
    pub duration: Vec<Duration>,
}

impl ConnColumns {
    /// Project rows into columns (index-aligned).
    pub fn from_rows(conns: &[ConnRecord]) -> ConnColumns {
        let mut c = ConnColumns {
            ts: Vec::with_capacity(conns.len()),
            duration: Vec::with_capacity(conns.len()),
        };
        for r in conns {
            c.ts.push(r.ts);
            c.duration.push(r.duration);
        }
        c
    }
}

/// Struct-of-arrays projection of the dns.log scalars the analyses scan.
///
/// Expiry is derived once here ([`DnsTransaction`] computes it from
/// `ts + rtt` and the minimum answer TTL), so hot loops read a plain
/// column instead of re-deriving per access.
#[derive(Debug, Clone, Default)]
pub struct DnsColumns {
    /// Serving resolvers.
    pub resolver: Vec<Ipv4Addr>,
    /// Lookup durations (`None` for unanswered queries).
    pub rtt: Vec<Option<Duration>>,
    /// `DnsTransaction::expires_at` per row.
    pub expires: Vec<Option<Timestamp>>,
    /// `DnsTransaction::has_addrs` per row.
    pub has_addrs: Vec<bool>,
}

impl DnsColumns {
    /// Project rows into columns (index-aligned).
    pub fn from_rows(dns: &[DnsTransaction]) -> DnsColumns {
        let mut c = DnsColumns {
            resolver: Vec::with_capacity(dns.len()),
            rtt: Vec::with_capacity(dns.len()),
            expires: Vec::with_capacity(dns.len()),
            has_addrs: Vec::with_capacity(dns.len()),
        };
        for t in dns {
            c.resolver.push(t.resolver);
            c.rtt.push(t.rtt);
            c.expires.push(t.expires_at());
            c.has_addrs.push(t.has_addrs());
        }
        c
    }

    /// Number of rows projected.
    #[allow(clippy::len_without_is_empty)] // no caller asks for emptiness
    pub fn len(&self) -> usize {
        self.resolver.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dns::Answer;
    use crate::tracker::ConnState;
    use crate::types::{FiveTuple, Proto};
    use crate::Logs;
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

    /// One answered lookup and the same lookup unanswered.
    fn sample_dns() -> Vec<DnsTransaction> {
        let answered = DnsTransaction {
            ts: Timestamp::from_millis(1_000),
            client: Ipv4Addr::new(10, 0, 0, 1),
            resolver: Ipv4Addr::new(8, 8, 8, 8),
            trans_id: 1,
            query: crate::NameTable::default().intern("www.example.com"),
            qtype: RrType::A,
            rcode: Some(Rcode::NoError),
            rtt: Some(Duration::from_millis(10)),
            answers: vec![Answer::addr(Ipv4Addr::new(203, 0, 113, 7), 60)],
        };
        let mut unanswered = answered.clone();
        unanswered.rcode = None;
        unanswered.rtt = None;
        unanswered.answers.clear();
        vec![answered, unanswered]
    }

    #[test]
    fn projections_align_with_the_logs() {
        let logs = Logs { conns: sample_conns(), dns: sample_dns(), ..Default::default() };
        let conns = logs.conn_columns();
        assert_eq!((conns.ts.len(), conns.duration.len()), (logs.conns.len(), logs.conns.len()));
        for (i, r) in logs.conns.iter().enumerate() {
            assert_eq!((conns.ts[i], conns.duration[i]), (r.ts, r.duration));
        }
        let dns = logs.dns_columns();
        let lens = [dns.resolver.len(), dns.rtt.len(), dns.expires.len(), dns.has_addrs.len()];
        assert_eq!((dns.len(), lens), (logs.dns.len(), [logs.dns.len(); 4]));
    }

    #[test]
    fn dns_columns_match_row_derivations() {
        let rows = sample_dns();
        let cols = DnsColumns::from_rows(&rows);
        for (i, t) in rows.iter().enumerate() {
            assert_eq!(cols.resolver[i], t.resolver);
            assert_eq!(cols.rtt[i], t.rtt);
            assert_eq!(cols.expires[i], t.expires_at());
            assert_eq!(cols.has_addrs[i], t.has_addrs());
        }
        assert!(cols.has_addrs[0] && cols.expires[0].is_some());
        assert!(!cols.has_addrs[1] && cols.expires[1].is_none());
    }
}
