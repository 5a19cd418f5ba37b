//! A reference pairer written from the paper, for differential tests.
//!
//! Paper §4: *"We pair that connection with the most recent non-expired
//! DNS lookup conducted by L that contains R in the answer (if such
//! exists). If all previous DNS lookups containing R are expired, we use
//! the most recent."* This module is that sentence and nothing else: for
//! every connection it scans the whole dns.log (O(conns × lookups)),
//! builds no index, keeps no scratch between connections, and calls
//! nothing in `dns_context`. Its only virtue is that it is obviously the
//! paper; `Pairing::build` is checked against it field by field.
//!
//! The reading of the sentence it spells out:
//! - a lookup is a candidate for a connection when the connection's
//!   client issued it, it was answered, it completed (query time + rtt)
//!   no later than the connection's start, and an address answer names
//!   the connection's destination;
//! - its record lives until completion + the smallest TTL of its answer
//!   section, and is live for a connection starting strictly before
//!   then (a TTL-0 record is never live);
//! - "most recent" is the latest completion; equal completions go to
//!   the lookup later in the dns.log;
//! - the ambiguity count is one per live address answer naming the
//!   destination, so a lookup that lists the address twice counts twice;
//! - a connection is the first use of its lookup when no connection
//!   earlier in the conn.log paired with it;
//! - the paper's robustness check (a random non-expired candidate)
//!   replaces "most recent non-expired" with one draw per connection
//!   that has a live candidate, in conn.log order, uniform over its live
//!   candidate answers listed oldest first (completion, then dns.log
//!   position), from an RNG the caller seeds.
//!
//! DNS-service connections are not application connections and are left
//! out, as in the paper.

use std::net::Ipv4Addr;
use xkit::rng::StdRng;
use zeek_lite::{ConnRecord, DnsTransaction, Duration, Timestamp};

/// The reference outcome for one application connection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Expected {
    /// Index into the conn.log.
    pub conn: usize,
    /// Index into the dns.log of the chosen lookup.
    pub dns: Option<usize>,
    /// Connection start minus the chosen lookup's completion.
    pub gap: Option<Duration>,
    /// Every candidate had expired; the choice is the fallback.
    pub expired: bool,
    /// Live candidate answers at the connection's start.
    pub candidates: usize,
    /// No earlier connection paired with the chosen lookup.
    pub first_use: bool,
}

/// One candidate lookup: its dns.log index, completion and expiry.
#[derive(Clone, Copy)]
struct Candidate {
    idx: usize,
    completed: Timestamp,
    expires: Timestamp,
}

impl Candidate {
    /// The more recent of two candidates: later completion, then later
    /// in the dns.log.
    fn newer(self, other: Option<Candidate>) -> Candidate {
        match other {
            Some(o) if (o.completed, o.idx) > (self.completed, self.idx) => o,
            _ => self,
        }
    }
}

/// Pair every application connection of `conns` with a lookup of `dns`
/// by the paper's rule: the most recent non-expired candidate, or with
/// `random` a uniform draw among the non-expired ones. Returns one
/// outcome per application connection, in conn.log order, and for each
/// dns.log row whether any connection chose it.
pub fn pair(
    conns: &[ConnRecord],
    dns: &[DnsTransaction],
    mut random: Option<&mut StdRng>,
) -> (Vec<Expected>, Vec<bool>) {
    let mut used = vec![false; dns.len()];
    let mut out = Vec::new();
    for (ci, conn) in conns.iter().enumerate() {
        if conn.service == Some("dns") {
            continue;
        }
        let (client, dest, start) = (conn.id.orig_addr, conn.id.resp_addr, conn.ts);
        let mut newest_live: Option<Candidate> = None;
        let mut newest_any: Option<Candidate> = None;
        // One element per live address answer naming `dest`.
        let mut live_answers: Vec<Candidate> = Vec::new();
        for (idx, txn) in dns.iter().enumerate() {
            let Some(c) = candidate(idx, txn, client, dest, start) else { continue };
            let live = c.expires > start;
            newest_any = Some(c.newer(newest_any));
            if live {
                newest_live = Some(c.newer(newest_live));
                live_answers.extend(std::iter::repeat_n(c, answers_naming(txn, dest)));
            }
        }
        let candidates = live_answers.len();
        let mut chosen = newest_live.or(newest_any);
        if let (Some(rng), false) = (random.as_deref_mut(), live_answers.is_empty()) {
            live_answers.sort_by_key(|c| (c.completed, c.idx));
            chosen = Some(live_answers[rng.random_range(0..candidates)]);
        }
        let first_use = chosen.is_some_and(|c| !used[c.idx]);
        if let Some(c) = chosen {
            used[c.idx] = true;
        }
        out.push(Expected {
            conn: ci,
            dns: chosen.map(|c| c.idx),
            gap: chosen.map(|c| Duration(start.0 - c.completed.0)),
            expired: chosen.is_some() && newest_live.is_none(),
            candidates,
            first_use,
        });
    }
    (out, used)
}

/// `txn` as a candidate for a connection from `client` to `dest`
/// starting at `start`, if it is one.
fn candidate(
    idx: usize,
    txn: &DnsTransaction,
    client: Ipv4Addr,
    dest: Ipv4Addr,
    start: Timestamp,
) -> Option<Candidate> {
    let rtt = txn.rtt?;
    let min_ttl = txn.answers.iter().map(|a| a.ttl).min()?;
    let completed = Timestamp(txn.ts.0 + rtt.0);
    if txn.client != client || completed > start || answers_naming(txn, dest) == 0 {
        return None;
    }
    let expires = Timestamp(completed.0 + Duration::from_secs(u64::from(min_ttl)).0);
    Some(Candidate { idx, completed, expires })
}

/// How many of `txn`'s address answers name `dest`.
fn answers_naming(txn: &DnsTransaction, dest: Ipv4Addr) -> usize {
    txn.answers.iter().filter(|a| a.data == zeek_lite::AnswerData::Addr(dest)).count()
}
