//! The DNS transaction record — one query/response pair as a monitor logs it.

use crate::names::{NameId, NameTable};
use crate::time::{Duration, Timestamp};
use dns_wire::{Rcode, RrType};
use std::fmt;
use std::net::Ipv4Addr;
use std::ops::{Deref, DerefMut};

/// Typed payload of one answer record, as retained by the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnswerData {
    /// An A record's address — what connection pairing keys on.
    Addr(Ipv4Addr),
    /// A CNAME alias target.
    Cname(NameId),
    /// Any other record, kept as its type.
    Other(RrType),
}

/// One record from a response's answer section.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

/// How many answers a row holds without a heap block: one CNAME and the
/// simulator's three addresses, the most any response it makes carries.
const INLINE: usize = 4;

/// What an inline slot past the row's last answer holds; never read.
const VACANT: Answer = Answer { data: AnswerData::Addr(Ipv4Addr::UNSPECIFIED), ttl: 0 };

/// A row's answer records, in order. Up to four of them live in the
/// row itself; a longer answer section moves to one heap block. It
/// reads and writes as a `[Answer]`, and two sets with the same answers
/// are equal however they are held.
#[derive(Clone)]
pub struct Answers(Repr);

#[derive(Clone)]
enum Repr {
    Inline { len: u8, buf: [Answer; INLINE] },
    Spilled(Vec<Answer>),
}

impl Answers {
    /// Append one answer. The fifth moves the set to the heap, with room
    /// for as many again.
    pub fn push(&mut self, answer: Answer) {
        match &mut self.0 {
            Repr::Inline { len, buf } if usize::from(*len) < INLINE => {
                buf[usize::from(*len)] = answer;
                *len += 1;
            }
            Repr::Inline { buf, .. } => {
                let mut spilled = Vec::with_capacity(2 * INLINE);
                spilled.extend_from_slice(buf);
                spilled.push(answer);
                self.0 = Repr::Spilled(spilled);
            }
            Repr::Spilled(spilled) => spilled.push(answer),
        }
    }
}

impl Default for Answers {
    fn default() -> Self {
        Answers(Repr::Inline { len: 0, buf: [VACANT; INLINE] })
    }
}

impl Deref for Answers {
    type Target = [Answer];

    fn deref(&self) -> &[Answer] {
        match &self.0 {
            Repr::Inline { len, buf } => &buf[..usize::from(*len)],
            Repr::Spilled(spilled) => spilled,
        }
    }
}

impl DerefMut for Answers {
    fn deref_mut(&mut self) -> &mut [Answer] {
        match &mut self.0 {
            Repr::Inline { len, buf } => &mut buf[..usize::from(*len)],
            Repr::Spilled(spilled) => spilled,
        }
    }
}

impl FromIterator<Answer> for Answers {
    fn from_iter<I: IntoIterator<Item = Answer>>(iter: I) -> Self {
        let mut answers = Answers::default();
        for answer in iter {
            answers.push(answer);
        }
        answers
    }
}

impl<const N: usize> From<[Answer; N]> for Answers {
    fn from(answers: [Answer; N]) -> Self {
        answers.into_iter().collect()
    }
}

impl PartialEq for Answers {
    fn eq(&self, other: &Answers) -> bool {
        **self == **other
    }
}

impl Eq for Answers {}

impl fmt::Debug for Answers {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
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
    pub answers: Answers,
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
        for answer in self.answers.iter_mut() {
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
            answers: [
                Answer { data: AnswerData::Cname(NameId(1)), ttl: 300 },
                Answer::addr(Ipv4Addr::new(203, 0, 113, 7), 60),
                Answer::addr(Ipv4Addr::new(203, 0, 113, 8), 60),
            ]
            .into(),
        }
    }

    /// An address answer whose TTL is its host number.
    fn addr(host: u8) -> Answer {
        Answer::addr(Ipv4Addr::new(203, 0, 113, host), u32::from(host))
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
    fn remap_reaches_the_names_of_a_spilled_row() {
        let mut t = txn();
        for host in 0..3 {
            t.answers.push(addr(host));
        }
        t.answers.push(Answer { data: AnswerData::Cname(NameId(2)), ttl: 5 });
        assert!(matches!(t.answers.0, Repr::Spilled(_)));
        t.remap_names(&[NameId(9), NameId(8), NameId(7)]);
        assert_eq!(t.query, NameId(9));
        let targets: Vec<_> = t
            .answers
            .iter()
            .filter_map(|a| match a.data {
                AnswerData::Cname(target) => Some(target),
                _ => None,
            })
            .collect();
        assert_eq!(targets, [NameId(8), NameId(7)]);
    }

    #[test]
    fn the_fifth_answer_moves_the_set_to_the_heap_with_room_to_spare() {
        let mut answers = Answers::default();
        for host in 0..4 {
            answers.push(addr(host));
            assert!(matches!(answers.0, Repr::Inline { .. }), "{} answers spilled", answers.len());
        }
        answers.push(addr(4));
        let Repr::Spilled(spilled) = &answers.0 else { panic!("5 answers held inline") };
        assert_eq!(spilled.capacity(), 2 * INLINE);
        assert_eq!(*answers, (0..5).map(addr).collect::<Vec<_>>()[..]);
    }

    #[test]
    fn inline_and_spilled_sets_of_the_same_answers_are_equal() {
        let inline = Answers::from([addr(1), addr(2)]);
        let spilled = Answers(Repr::Spilled(vec![addr(1), addr(2)]));
        assert!(matches!(inline.0, Repr::Inline { .. }));
        assert_eq!(inline, spilled);
        assert_eq!(format!("{inline:?}"), format!("{spilled:?}"));
        assert_ne!(inline, Answers(Repr::Spilled(vec![addr(1)])));
        assert_ne!(inline, Answers::from([addr(2), addr(1)]));
    }

    #[test]
    fn writes_through_the_slice_land_in_either_form() {
        let mut inline = Answers::from([addr(1), addr(2)]);
        let mut spilled: Answers = (1..=6).map(addr).collect();
        for answers in [&mut inline, &mut spilled] {
            answers[0].ttl = 0;
            answers.sort_by_key(|a| std::cmp::Reverse(a.ttl));
            assert_eq!(answers.last().map(|a| a.ttl), Some(0));
        }
        assert_eq!(*inline, [addr(2), Answer { ttl: 0, ..addr(1) }]);
        assert_eq!(spilled.len(), 6);
    }

    #[test]
    fn an_answer_is_twelve_bytes() {
        assert_eq!(std::mem::size_of::<Answer>(), 12);
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
        t.answers = Answers::default();
        assert_eq!(t.completed_at(), None);
        assert_eq!(t.expires_at(), None);
        assert!(!t.has_addrs());
    }
}
