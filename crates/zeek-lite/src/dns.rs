//! The DNS transaction record — one query/response pair as a monitor logs it.

use crate::names::{NameId, NameTable};
use crate::time::{Duration, Timestamp};
use dns_wire::{Rcode, RrType};
use std::net::Ipv4Addr;

/// Typed payload of one answer record, as retained by the log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnswerData {
    /// An A record's address — what connection pairing keys on.
    Addr(Ipv4Addr),
    /// A CNAME alias target.
    Cname(NameId),
    /// Any other record type, kept as its type's log name.
    Other(String),
}

/// One record from a response's answer section.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Answer {
    /// Record payload.
    pub data: AnswerData,
    /// Record TTL in seconds.
    pub ttl: u32,
}

impl Answer {
    /// Convenience constructor for an address answer.
    pub fn addr(a: Ipv4Addr, ttl: u32) -> Answer {
        Answer { data: AnswerData::Addr(a), ttl }
    }

    /// The address if this is an A answer.
    fn as_addr(&self) -> Option<Ipv4Addr> {
        match self.data {
            AnswerData::Addr(a) => Some(a),
            _ => None,
        }
    }
}

/// A DNS transaction: one query matched with its response (if any).
///
/// Mirrors the fields of Bro's dns.log that the paper's analysis needs:
/// timestamps, the client and resolver addresses, the query, and the full
/// answer set with TTLs. Names are ids into the [`NameTable`] of the logs
/// the row belongs to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DnsTransaction {
    /// When the query left the client.
    pub ts: Timestamp,
    /// Client (stub resolver) address — the house-side endpoint.
    pub client: Ipv4Addr,
    /// Recursive resolver address the query was sent to.
    pub resolver: Ipv4Addr,
    /// DNS transaction id.
    pub trans_id: u16,
    /// Query name; its text is in presentation form (lower-cased).
    pub query: NameId,
    /// Query type.
    pub qtype: RrType,
    /// Response code; `None` when no response was observed.
    pub rcode: Option<Rcode>,
    /// Lookup duration (response time − query time); `None` when no
    /// response was observed.
    pub rtt: Option<Duration>,
    /// Answer records from the response, in order.
    pub answers: Vec<Answer>,
}

impl DnsTransaction {
    /// When the response arrived — the instant the mapping became usable.
    /// `None` for unanswered queries.
    pub fn completed_at(&self) -> Option<Timestamp> {
        self.rtt.map(|d| self.ts + d)
    }

    /// All IPv4 addresses in the answer set.
    pub fn addrs(&self) -> impl Iterator<Item = Ipv4Addr> + '_ {
        self.answers.iter().filter_map(|a| a.as_addr())
    }

    /// The minimum TTL across address answers — the effective lifetime of
    /// the mapping (CNAME chain TTLs cap it too, so take the overall min).
    pub fn min_ttl(&self) -> Option<u32> {
        self.answers.iter().map(|a| a.ttl).min()
    }

    /// The instant the mapping expires: completion + min TTL. `None` when
    /// unanswered or answerless.
    pub fn expires_at(&self) -> Option<Timestamp> {
        match (self.completed_at(), self.min_ttl()) {
            (Some(done), Some(ttl)) => Some(done + Duration::from_secs(ttl as u64)),
            _ => None,
        }
    }

    /// Whether the response carried at least one usable address.
    pub fn has_addrs(&self) -> bool {
        self.answers.iter().any(|a| a.as_addr().is_some())
    }

    /// The canonical dns.log ordering: query time, then the transaction's
    /// identifying fields as tiebreakers, the query by its text in
    /// `names`. This is a total order over any transactions the monitor
    /// can actually emit (two distinct rows with every compared field
    /// equal would have collided in the pending-query table), so a log
    /// sorted with it comes out byte-identical no matter how the rows
    /// were accumulated or their names numbered — the property the
    /// streaming engine's per-epoch releases rely on.
    pub fn log_order(names: &NameTable, a: &DnsTransaction, b: &DnsTransaction) -> std::cmp::Ordering {
        (a.ts, a.client, a.resolver, a.trans_id)
            .cmp(&(b.ts, b.client, b.resolver, b.trans_id))
            .then_with(|| names.name(a.query).cmp(names.name(b.query)))
            .then_with(|| (a.qtype.to_u16(), a.rtt).cmp(&(b.qtype.to_u16(), b.rtt)))
    }

    /// Move the row's names to another table: `map[id.0]` is the new id
    /// of `id` (what [`NameTable::absorb`] returns).
    pub fn remap_names(&mut self, map: &[NameId]) {
        self.query = map[self.query.0 as usize];
        for answer in &mut self.answers {
            if let AnswerData::Cname(target) = &mut answer.data {
                *target = map[target.0 as usize];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn txn() -> DnsTransaction {
        DnsTransaction {
            ts: Timestamp::from_secs(100),
            client: Ipv4Addr::new(10, 1, 1, 2),
            resolver: Ipv4Addr::new(192, 0, 2, 53),
            trans_id: 7,
            query: NameId(0),
            qtype: RrType::A,
            rcode: Some(Rcode::NoError),
            rtt: Some(Duration::from_millis(8)),
            answers: vec![
                Answer { data: AnswerData::Cname(NameId(1)), ttl: 300 },
                Answer::addr(Ipv4Addr::new(203, 0, 113, 7), 60),
                Answer::addr(Ipv4Addr::new(203, 0, 113, 8), 60),
            ],
        }
    }

    #[test]
    fn log_order_reads_the_query_text_and_remap_moves_every_name() {
        let mut names = NameTable::default();
        let (b, a) = (names.intern("b.example.com"), names.intern("a.example.com"));
        let first = DnsTransaction { query: a, ..txn() };
        let second = DnsTransaction { query: b, ..txn() };
        // `b` holds the smaller id; the text decides.
        assert_eq!(DnsTransaction::log_order(&names, &first, &second), std::cmp::Ordering::Less);
        let mut t = txn();
        t.remap_names(&[NameId(5), NameId(3)]);
        assert_eq!(t.query, NameId(5));
        assert_eq!(t.answers[0].data, AnswerData::Cname(NameId(3)));
    }

    #[test]
    fn completion_and_expiry() {
        let t = txn();
        assert_eq!(t.completed_at().unwrap(), Timestamp(100_008_000_000));
        assert_eq!(t.min_ttl(), Some(60));
        assert_eq!(t.expires_at().unwrap(), Timestamp(160_008_000_000));
    }

    #[test]
    fn addr_extraction() {
        let t = txn();
        let addrs: Vec<_> = t.addrs().collect();
        assert_eq!(addrs.len(), 2);
        assert!(t.has_addrs());
    }

    #[test]
    fn unanswered_has_no_completion() {
        let mut t = txn();
        t.rtt = None;
        t.rcode = None;
        t.answers.clear();
        assert_eq!(t.completed_at(), None);
        assert_eq!(t.expires_at(), None);
        assert!(!t.has_addrs());
    }
}
