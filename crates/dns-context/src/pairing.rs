//! DN-Hunter pairing: matching connections with the DNS lookups they use.
//!
//! The paper (§4): *"Consider an application connection originating from
//! local IP address L and destined for remote IP address R. We pair that
//! connection with the most recent non-expired DNS lookup conducted by L
//! that contains R in the answer (if such exists). If all previous DNS
//! lookups containing R are expired, we use the most recent."*
//!
//! Pairing ambiguity (several non-expired lookups containing R, from CDN
//! co-hosting) is counted, and the alternate random-candidate policy the
//! paper used as a robustness check is available as
//! [`PairingPolicy::RandomNonExpired`].
//!
//! The rule only ever compares a connection with lookups of its own
//! client `L`, so [`Pairing::build`] is a sort-merge join partitioned by
//! client: each client's address answers, sorted by `(R, completion)`,
//! meet its connections, sorted by `(R, conn-log position)`, one run of
//! [`kernel::select`](crate::kernel::select) per destination. Both sorts
//! are the stable radix kernel's ([`crate::radix`]) by `R` alone: the
//! log orders the rest.

use crate::kernel::{select, Candidate, Paired, Tally};
use crate::radix;
use xkit::collections::FastMap;
use xkit::rng::StdRng;
use zeek_lite::{ConnRecord, DnsTransaction, Duration, Timestamp};

/// Which candidate lookup a connection pairs with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PairingPolicy {
    /// The paper's main policy: the most recent non-expired candidate.
    MostRecent,
    /// The paper's robustness check: a uniformly random non-expired
    /// candidate (seeded for reproducibility).
    RandomNonExpired,
}

/// Pairing outcome for one application connection; the default is an
/// unpaired one.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PairedConn {
    /// Index into the connection log.
    pub conn: usize,
    /// Index into the DNS log of the paired lookup, if any.
    pub dns: Option<usize>,
    /// Connection start minus lookup completion (`None` when unpaired).
    pub gap: Option<Duration>,
    /// The paired lookup's record had expired before the connection began.
    pub expired: bool,
    /// Number of non-expired candidate lookups at connection start
    /// (the paper's ambiguity measure; 0 when only expired candidates).
    // Between `Pairing::build`'s two passes over the conn log, and only
    // there, this holds the row's client number + 1 (0: none); the
    // second pass takes it back before the join writes the count.
    pub candidates: u32,
    /// This connection is the earliest to use its paired lookup.
    pub first_use: bool,
}

// 48 B: `pairs` holds one per application connection, the largest
// vector the batch analysis keeps alive.
const _: () = assert!(std::mem::size_of::<PairedConn>() <= 48);

impl PairedConn {
    /// The pairing as the kernel's class rule and tally take it.
    pub(crate) fn outcome(&self) -> Option<Paired> {
        self.gap.map(|gap| Paired { gap, expired: self.expired, first_use: self.first_use })
    }
}

/// One address answer of an answered lookup, in its client's slice of
/// the arena. The merge reads the slice in `(addr, completed, dns_idx)`
/// order, one run of the kernel's rule per address: the slice is sorted
/// stably by `addr`, which leaves each run in dns-log order, and the
/// merge sorts each run it reaches whose completions do not ascend. The
/// log is sorted by query time and a completion is the query time plus
/// its rtt, so a run is out of order only where a slow lookup completes
/// after a faster, later one.
#[derive(Debug, Clone, Copy)]
struct ClientEntry {
    completed: Timestamp,
    expires: Timestamp,
    addr: u32,
    /// The lookup's dns-log row (the log has fewer than `u32::MAX` rows).
    dns_idx: u32,
}

// 24 B: the arena holds one per address answer, the largest thing
// `build` allocates.
const _: () = assert!(std::mem::size_of::<ClientEntry>() == 24);

impl Candidate for ClientEntry {
    fn completed(&self) -> Timestamp {
        self.completed
    }

    fn expires(&self) -> Timestamp {
        self.expires
    }
}

/// One application connection of a client, as the merge reads it: its
/// start, destination and conn-log row. A client's probes are gathered
/// in row order and sorted stably by `addr`, so they are in `(addr,
/// row)` order.
#[derive(Debug, Clone, Copy)]
struct Probe {
    ts: Timestamp,
    addr: u32,
    row: u32,
}

/// The `conn` of a DNS-service row's slot in `pairs` until the final
/// pass of [`Pairing::build`] drops it.
const NOT_APP: usize = usize::MAX;

/// Assert that `len` rows fit the join's 32-bit row numbers and
/// offsets, so the `as u32` casts below cannot wrap.
fn assert_u32_rows(len: usize, what: &str) {
    assert!(u32::try_from(len).is_ok(), "{len} {what} exceed u32 offsets");
}

/// Call `f` with every answered lookup of `dns`, in dns-log order, and
/// its entry less the address: the lookup's index entries are that entry
/// at each of its address answers. Both passes of the counting sort walk
/// the log through it, so they cannot disagree on what an entry is.
fn each_answered(dns: &[DnsTransaction], mut f: impl FnMut(&DnsTransaction, ClientEntry)) {
    for (dns_idx, txn) in dns.iter().enumerate() {
        let (Some(completed), Some(expires)) = (txn.completed_at(), txn.expires_at()) else {
            continue;
        };
        f(txn, ClientEntry { completed, expires, addr: 0, dns_idx: dns_idx as u32 });
    }
}

/// Turn per-slice sizes `bounds[1..]` (with `bounds[0] == 0`) into each
/// slice's start, shifted one place: `bounds[s + 1]` becomes slice `s`'s
/// placement cursor, which ends at slice `s + 1`'s start, so that once
/// every element is placed slice `s` is `bounds[s]..bounds[s + 1]`.
/// Returns the total size and the largest slice's.
fn carve(bounds: &mut [u32]) -> (usize, usize) {
    let (mut offset, mut widest) = (0, 0);
    for bound in &mut bounds[1..] {
        widest = widest.max(*bound);
        offset += std::mem::replace(bound, offset);
    }
    (offset as usize, widest as usize)
}

#[cfg(debug_assertions)]
thread_local! {
    /// Entries [`live_span`] has looked at on this thread: the work the
    /// prefix-maximum bound saves, pinned by a test.
    static VISITS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Refill `reach` with the prefix maximum of `run`'s expiries, which
/// bounds [`live_span`]'s walk, and say whether the run's completions
/// ascend. A run in dns-log order whose completions ascend is in
/// `(completed, dns_idx)` order already.
fn fill_reach<'a>(run: impl Iterator<Item = &'a ClientEntry>, reach: &mut Vec<Timestamp>) -> bool {
    reach.clear();
    let (mut latest, mut last, mut ascending) = (Timestamp::ZERO, Timestamp::ZERO, true);
    for e in run {
        ascending &= last <= e.completed;
        last = e.completed;
        latest = latest.max(e.expires);
        reach.push(latest);
    }
    ascending
}

/// The live entries among `run[..prior]`, the entries completed by `ts`:
/// how many, and where the oldest is (`prior` if none). `reach[i]` is the
/// latest expiry in `run[..=i]`, so the walk back from the newest stops
/// at the first entry before which nothing is live.
fn live_span(run: &[ClientEntry], reach: &[Timestamp], prior: usize, ts: Timestamp) -> (u32, usize) {
    let (mut live, mut oldest) = (0, prior);
    for i in (0..prior).rev() {
        #[cfg(debug_assertions)]
        VISITS.with(|v| v.set(v.get() + 1));
        if reach[i] <= ts {
            break;
        }
        if run[i].live_at(ts) {
            live += 1;
            oldest = i;
        }
    }
    (live, oldest)
}

/// The pairing index and results.
pub struct Pairing {
    /// One entry per *application* connection, in connection-log order.
    pub pairs: Vec<PairedConn>,
    /// For each DNS-log index: whether any connection paired with it.
    pub dns_used: Vec<bool>,
}

impl Pairing {
    /// Pair every application connection in `conns` against `dns`.
    ///
    /// Both logs must be time-sorted ([`zeek_lite::Logs`] guarantees it).
    /// DNS-service connections are excluded from the application set, as
    /// in the paper (the DNS log is its own dataset). The random policy
    /// draws from a fixed-seed RNG so analyses are reproducible.
    pub fn build(conns: &[ConnRecord], dns: &[DnsTransaction], policy: PairingPolicy) -> Pairing {
        assert_u32_rows(dns.len(), "dns log rows");
        // Counting sort of the address answers by client into one
        // exactly sized arena: the first pass numbers the clients in
        // first-seen order and counts their entries, the second writes
        // each entry into its client's next slot. The client map is
        // addressed by key only, never iterated (bucket order must not
        // leak into output), and keyed by the address as a number.
        let mut clients: FastMap<u32, u32> = FastMap::default();
        let mut entry_bounds: Vec<u32> = vec![0];
        let mut entries = 0usize;
        each_answered(dns, |txn, _| {
            let n = txn.addrs().count();
            if n == 0 {
                return;
            }
            entries += n;
            let fresh = entry_bounds.len() as u32 - 1;
            let c = *clients.entry(u32::from(txn.client)).or_insert(fresh);
            if c == fresh {
                entry_bounds.push(0);
            }
            entry_bounds[c as usize + 1] += n as u32;
        });
        assert_u32_rows(entries, "index entries");
        // Past the entries, room for the widest client's: the sorts'
        // scratch.
        let (entries, widest_entries) = carve(&mut entry_bounds);
        let unplaced = ClientEntry { completed: Timestamp::ZERO, expires: Timestamp::ZERO, addr: 0, dns_idx: 0 };
        let mut arena = vec![unplaced; entries + widest_entries];
        each_answered(dns, |txn, entry| {
            let Some(&c) = clients.get(&u32::from(txn.client)) else { return };
            let cursor = &mut entry_bounds[c as usize + 1];
            for addr in txn.addrs() {
                arena[*cursor as usize] = ClientEntry { addr: u32::from(addr), ..entry };
                *cursor += 1;
            }
        });

        // One unpaired slot per conn-log row, so the join writes an
        // outcome by row, and the same counting sort of the application
        // connections' rows by client into one permutation. A client
        // without answers pairs nothing and stays out of it. The first
        // pass parks each row's client number + 1 in its slot's
        // `candidates` (0: none) and the second takes it back, so the
        // conn log is read and the client map probed once per row.
        assert_u32_rows(conns.len(), "conn log rows");
        let mut pairs = Vec::with_capacity(conns.len());
        let mut conn_bounds = vec![0u32; entry_bounds.len()];
        for (ci, conn) in conns.iter().enumerate() {
            let mut pair = PairedConn { conn: NOT_APP, ..PairedConn::default() };
            if !conn.is_dns() {
                pair.conn = ci;
                if let Some(&c) = clients.get(&u32::from(conn.id.orig_addr)) {
                    conn_bounds[c as usize + 1] += 1;
                    pair.candidates = c + 1;
                }
            }
            pairs.push(pair);
        }
        let (placed, widest_conns) = carve(&mut conn_bounds);
        let mut order = vec![0u32; placed];
        for (ci, pair) in pairs.iter_mut().enumerate() {
            let Some(c) = std::mem::take(&mut pair.candidates).checked_sub(1) else { continue };
            let cursor = &mut conn_bounds[c as usize + 1];
            order[*cursor as usize] = ci as u32;
            *cursor += 1;
        }

        // Per client with connections: sort its entries and its
        // connections by addr, then merge. Each address's run goes to the
        // kernel's rule in place. The scratch is sized once, for the
        // widest client: the probes' half of one buffer, the entries'
        // the arena's tail.
        let random = policy == PairingPolicy::RandomNonExpired;
        // Under the random policy: each row's oldest live entry, where
        // its draw starts.
        let mut live_from = if random { vec![0u32; conns.len()] } else { Vec::new() };
        let (arena, entry_scratch) = arena.split_at_mut(entries);
        let mut probe_buf = vec![Probe { ts: Timestamp::ZERO, addr: 0, row: 0 }; 2 * widest_conns];
        let (probe_slots, probe_scratch) = probe_buf.split_at_mut(widest_conns);
        let mut reach: Vec<Timestamp> = Vec::with_capacity(widest_entries);
        for (spans, calls) in entry_bounds.windows(2).zip(conn_bounds.windows(2)) {
            let rows = &order[calls[0] as usize..calls[1] as usize];
            if rows.is_empty() {
                continue;
            }
            let base = spans[0] as usize;
            let own = &mut arena[base..spans[1] as usize];
            radix::sort(own, entry_scratch, |e| e.addr);
            let probes = &mut probe_slots[..rows.len()];
            for (probe, &row) in probes.iter_mut().zip(rows) {
                let conn = &conns[row as usize];
                *probe = Probe { ts: conn.ts, addr: u32::from(conn.id.resp_addr), row };
            }
            radix::sort(probes, probe_scratch, |p| p.addr);
            let mut start = 0;
            for group in probes.chunk_by(|a, b| a.addr == b.addr) {
                let addr = group[0].addr;
                while own.get(start).is_some_and(|e| e.addr < addr) {
                    start += 1;
                }
                if !fill_reach(own[start..].iter().take_while(|e| e.addr == addr), &mut reach) {
                    // Entries tied on the key are one lookup's answers
                    // naming the address twice, identical in every field.
                    let run = &mut own[start..start + reach.len()];
                    run.sort_unstable_by_key(|e| (e.completed, e.dns_idx));
                    fill_reach(run.iter(), &mut reach);
                }
                let run = &own[start..start + reach.len()];
                for probe in group {
                    let Some(found) = select(run, probe.ts) else { continue };
                    let (live, oldest) = live_span(run, &reach, found.prior.len(), probe.ts);
                    let pair = &mut pairs[probe.row as usize];
                    pair.dns = Some(found.chosen.dns_idx as usize);
                    pair.gap = Some(probe.ts.since(found.chosen.completed));
                    pair.expired = found.expired;
                    pair.candidates = live;
                    if random {
                        live_from[probe.row as usize] = (base + start + oldest) as u32;
                    }
                }
                start += run.len();
            }
        }

        // In conn-log order: the random draws and first use, compacting
        // the application connections' slots to the front. The conn log
        // is ts-sorted, so the first connection to pair with a lookup is
        // its earliest use.
        let mut rng = StdRng::seed_from_u64(0x5ca1ab1e);
        let mut dns_used = vec![false; dns.len()];
        let mut kept = 0;
        for row in 0..pairs.len() {
            let mut pair = pairs[row];
            if pair.conn == NOT_APP {
                continue;
            }
            if random && pair.candidates > 0 {
                // One draw per connection with a live candidate, over the
                // candidates oldest first.
                let ts = conns[row].ts;
                let k = rng.random_range(0..pair.candidates as usize);
                let mut live = arena[live_from[row] as usize..].iter().filter(|e| e.live_at(ts));
                let chosen = live.nth(k).expect("k < live candidates");
                pair.dns = Some(chosen.dns_idx as usize);
                pair.gap = Some(ts.since(chosen.completed));
            }
            if let Some(d) = pair.dns {
                pair.first_use = !std::mem::replace(&mut dns_used[d], true);
            }
            pairs[kept] = pair;
            kept += 1;
        }
        pairs.truncate(kept);

        Pairing { pairs, dns_used }
    }

    /// Number of application connections analysed.
    pub fn app_conn_count(&self) -> usize {
        self.pairs.len()
    }

    /// Pairing outcomes as an obs snapshot: `pair.hit` (non-expired
    /// pairing), `pair.fallback` (expired-record pairing), `pair.miss`
    /// (no candidate lookup), `pair.first_use`, `pair.app_conns`, and a
    /// `pair.gap_ms` histogram over connection-start − lookup-completion
    /// gaps. `hit + fallback + miss == app_conns` by construction.
    pub fn metrics(&self) -> xkit::obs::Metrics {
        let mut m = xkit::obs::Metrics::new();
        let mut tally = Tally::default();
        for p in &self.pairs {
            tally.pair(&mut m, p.outcome());
        }
        tally.store_pair(&mut m);
        m
    }

    /// Fraction of *paired* connections with exactly one non-expired
    /// candidate (the paper reports 82 %).
    // lint: allow(unused-pub): the paper's 82 %, pinned through this by tests/end_to_end.rs and tests/reproduction_bands.rs
    pub fn single_candidate_share(&self) -> f64 {
        let paired_live: Vec<&PairedConn> = self
            .pairs
            .iter()
            .filter(|p| p.dns.is_some() && !p.expired)
            .collect();
        if paired_live.is_empty() {
            return 0.0;
        }
        let single = paired_live.iter().filter(|p| p.candidates == 1).count();
        single as f64 / paired_live.len() as f64
    }

    /// Count and share of answered-with-addresses lookups never used by
    /// any connection (the paper's 37.8 % unused lookups). One pass over
    /// the has_addrs and rtt columns.
    pub fn unused_lookups(&self, dns: &zeek_lite::DnsColumns) -> (usize, f64) {
        let mut eligible = 0usize;
        let mut unused = 0usize;
        for i in 0..dns.len() {
            if dns.has_addrs[i] && dns.rtt[i].is_some() {
                eligible += 1;
                unused += usize::from(!self.dns_used[i]);
            }
        }
        if eligible == 0 {
            return (0, 0.0);
        }
        (unused, unused as f64 / eligible as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;
    use zeek_lite::{Answer, ConnState, FiveTuple, Proto};

    const HOUSE: Ipv4Addr = Ipv4Addr::new(10, 77, 0, 1);
    const OTHER_HOUSE: Ipv4Addr = Ipv4Addr::new(10, 77, 0, 2);
    const RESOLVER: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 53);
    const SERVER: Ipv4Addr = Ipv4Addr::new(104, 16, 0, 1);

    fn txn(ts_ms: u64, client: Ipv4Addr, addr: Ipv4Addr, ttl: u32) -> DnsTransaction {
        DnsTransaction {
            ts: Timestamp::from_millis(ts_ms),
            client,
            resolver: RESOLVER,
            trans_id: 1,
            query: zeek_lite::NameTable::default().intern("www.example.com"),
            qtype: dns_wire::RrType::A,
            rcode: Some(dns_wire::Rcode::NoError),
            rtt: Some(Duration::from_millis(10)),
            answers: [Answer::addr(addr, ttl)].into(),
        }
    }

    fn conn(ts_ms: u64, client: Ipv4Addr, dst: Ipv4Addr, port: u16) -> ConnRecord {
        ConnRecord {
            uid: ts_ms,
            ts: Timestamp::from_millis(ts_ms),
            id: FiveTuple {
                orig_addr: client,
                orig_port: 50_000,
                resp_addr: dst,
                resp_port: port,
                proto: Proto::Tcp,
            },
            duration: Duration::from_millis(500),
            orig_bytes: 100,
            resp_bytes: 1_000,
            orig_pkts: 4,
            resp_pkts: 4,
            state: ConnState::SF,
            history: zeek_lite::History::new(),
            service: zeek_lite::service_for_port(Proto::Tcp, port),
        }
    }

    #[test]
    fn pairs_with_most_recent_non_expired() {
        // Two lookups for the same address; conn starts after both.
        let dns = vec![
            txn(0, HOUSE, SERVER, 300),
            txn(5_000, HOUSE, SERVER, 300),
        ];
        let conns = vec![conn(6_000, HOUSE, SERVER, 443)];
        let p = Pairing::build(&conns, &dns, PairingPolicy::MostRecent);
        assert_eq!(p.pairs.len(), 1);
        let pair = &p.pairs[0];
        assert_eq!(pair.dns, Some(1));
        assert!(!pair.expired);
        assert_eq!(pair.candidates, 2);
        // Gap = 6000 − (5000 + 10 rtt).
        assert_eq!(pair.gap, Some(Duration::from_millis(990)));
    }

    #[test]
    fn expired_fallback_uses_most_recent() {
        let dns = vec![txn(0, HOUSE, SERVER, 1), txn(2_000, HOUSE, SERVER, 1)];
        // Conn starts long after both TTLs (1 s) expired.
        let conns = vec![conn(60_000, HOUSE, SERVER, 443)];
        let p = Pairing::build(&conns, &dns, PairingPolicy::MostRecent);
        let pair = &p.pairs[0];
        assert_eq!(pair.dns, Some(1));
        assert!(pair.expired);
        assert_eq!(pair.candidates, 0);
    }

    #[test]
    fn unpaired_when_no_lookup_contains_address() {
        let dns = vec![txn(0, HOUSE, SERVER, 300)];
        let conns = vec![conn(1_000, HOUSE, Ipv4Addr::new(9, 9, 9, 9), 443)];
        let p = Pairing::build(&conns, &dns, PairingPolicy::MostRecent);
        assert_eq!(p.pairs[0].dns, None);
    }

    #[test]
    fn other_clients_lookups_do_not_pair() {
        let dns = vec![txn(0, OTHER_HOUSE, SERVER, 300)];
        let conns = vec![conn(1_000, HOUSE, SERVER, 443)];
        let p = Pairing::build(&conns, &dns, PairingPolicy::MostRecent);
        assert_eq!(p.pairs[0].dns, None);
    }

    #[test]
    fn lookup_completing_after_conn_start_is_ignored() {
        // Lookup at t=1000 ms completes at 1010; conn starts at 1005.
        let dns = vec![txn(1_000, HOUSE, SERVER, 300)];
        let conns = vec![conn(1_005, HOUSE, SERVER, 443)];
        let p = Pairing::build(&conns, &dns, PairingPolicy::MostRecent);
        assert_eq!(p.pairs[0].dns, None);
    }

    #[test]
    fn dns_conns_excluded_from_app_set() {
        let dns = vec![txn(0, HOUSE, SERVER, 300)];
        let conns = vec![conn(1_000, HOUSE, RESOLVER, 53), conn(2_000, HOUSE, SERVER, 443)];
        let p = Pairing::build(&conns, &dns, PairingPolicy::MostRecent);
        assert_eq!(p.app_conn_count(), 1);
        assert_eq!(p.pairs[0].conn, 1);
    }

    #[test]
    fn first_use_marks_exactly_one_conn_per_lookup() {
        let dns = vec![txn(0, HOUSE, SERVER, 300)];
        let conns = vec![
            conn(1_000, HOUSE, SERVER, 443),
            conn(2_000, HOUSE, SERVER, 443),
            conn(3_000, HOUSE, SERVER, 443),
        ];
        let p = Pairing::build(&conns, &dns, PairingPolicy::MostRecent);
        let firsts: Vec<bool> = p.pairs.iter().map(|x| x.first_use).collect();
        assert_eq!(firsts, vec![true, false, false]);
    }

    #[test]
    fn unused_lookup_accounting() {
        let dns = vec![txn(0, HOUSE, SERVER, 300), txn(100, HOUSE, Ipv4Addr::new(9, 9, 9, 9), 300)];
        let conns = vec![conn(1_000, HOUSE, SERVER, 443)];
        let p = Pairing::build(&conns, &dns, PairingPolicy::MostRecent);
        let (unused, share) = p.unused_lookups(&zeek_lite::DnsColumns::from_rows(&dns));
        assert_eq!(unused, 1);
        assert!((share - 0.5).abs() < 1e-12);
    }

    #[test]
    fn single_candidate_share_counts_ambiguity() {
        let dns = vec![
            txn(0, HOUSE, SERVER, 3_000),
            txn(1_000, HOUSE, SERVER, 3_000),
        ];
        let conns = vec![conn(5_000, HOUSE, SERVER, 443)];
        let p = Pairing::build(&conns, &dns, PairingPolicy::MostRecent);
        assert_eq!(p.pairs[0].candidates, 2);
        assert_eq!(p.single_candidate_share(), 0.0);
    }

    #[test]
    fn row_counts_past_u32_are_refused() {
        // Zero-sized rows: a boundary-length slice costs no memory.
        let rows = vec![(); u32::MAX as usize];
        assert_u32_rows(rows.len(), "rows");
        let rows = vec![(); u32::MAX as usize + 1];
        assert!(std::panic::catch_unwind(|| assert_u32_rows(rows.len(), "rows")).is_err());
    }

    /// The candidate walk stops where nothing older is live: on a
    /// simulated day (`quick_study(12, 1.0, 42)`'s workload) it looks at
    /// no more than two entries per live candidate, plus the one per
    /// connection that stops it.
    #[cfg(debug_assertions)]
    #[test]
    fn the_candidate_walk_is_bounded_by_the_live_candidates() {
        let cfg = ccz_sim::WorkloadConfig {
            scale: ccz_sim::ScaleKnobs { houses: 12, days: 1.0, activity: 1.0 },
            ..ccz_sim::WorkloadConfig::default()
        };
        let logs = ccz_sim::Simulation::new(cfg, 42).unwrap().run().logs;
        VISITS.with(|v| v.set(0));
        let p = Pairing::build(&logs.conns, &logs.dns, PairingPolicy::MostRecent);
        let visits = VISITS.with(|v| v.get());
        let live: u64 = p.pairs.iter().map(|x| u64::from(x.candidates)).sum();
        let conns = p.app_conn_count() as u64;
        eprintln!("{visits} visits, {live} live candidates, {conns} conns");
        assert!(conns > 10_000, "a simulated day of {conns} application connections");
        assert!(visits <= 2 * live + conns, "{visits} visits for {live} live candidates over {conns} conns");
    }

    /// A hostile capture: one client looks one address up 4 096 times,
    /// each lookup slower than the last by more than the spacing of
    /// their queries, so completion order is dns-log order reversed. A
    /// spread of connections meets the run before, during and after the
    /// completions and past some expiries; both policies must pair them
    /// as the paper's sentence does.
    #[test]
    fn a_reversed_completion_run_agrees_with_the_oracle() {
        const K: u64 = 4_096;
        let dns: Vec<DnsTransaction> = (0..K)
            .map(|i| DnsTransaction {
                rtt: Some(Duration::from_millis(2 * K - 2 * i)),
                ..txn(i, HOUSE, SERVER, 1 + (i % 3) as u32)
            })
            .collect();
        assert!(dns.windows(2).all(|w| w[1].completed_at() < w[0].completed_at()));
        let conns: Vec<ConnRecord> = (0..300).map(|j| conn(4_000 + 40 * j, HOUSE, SERVER, 443)).collect();
        for policy in [PairingPolicy::MostRecent, PairingPolicy::RandomNonExpired] {
            let p = Pairing::build(&conns, &dns, policy);
            let mut rng = StdRng::seed_from_u64(0x5ca1ab1e);
            let random = (policy == PairingPolicy::RandomNonExpired).then_some(&mut rng);
            let (want, used) = crate::oracle::pair(&conns, &dns, random);
            assert_eq!(p.pairs.len(), want.len(), "{policy:?}");
            for (got, want) in p.pairs.iter().zip(&want) {
                let got = (got.conn, got.dns, got.gap, got.expired, got.candidates as usize, got.first_use);
                let want = (want.conn, want.dns, want.gap, want.expired, want.candidates, want.first_use);
                assert_eq!(got, want, "{policy:?}");
            }
            assert_eq!(p.dns_used, used, "{policy:?}");
            assert!(p.pairs.iter().any(|x| x.expired) && p.pairs.iter().any(|x| x.candidates > 1));
        }
    }

    #[test]
    fn random_policy_picks_live_candidates() {
        let dns = vec![
            txn(0, HOUSE, SERVER, 3_000),
            txn(1_000, HOUSE, SERVER, 3_000),
            txn(2_000, HOUSE, SERVER, 3_000),
        ];
        let conns: Vec<ConnRecord> = (0..50).map(|i| conn(5_000 + i, HOUSE, SERVER, 443)).collect();
        let p = Pairing::build(&conns, &dns, PairingPolicy::RandomNonExpired);
        let mut seen = std::collections::HashSet::new();
        for pair in &p.pairs {
            assert!(!pair.expired);
            seen.insert(pair.dns.unwrap());
        }
        assert!(seen.len() > 1, "random policy should spread: {seen:?}");
        // The seeded draw sequence, recorded before the candidate scan
        // moved into the kernel.
        let chosen: Vec<usize> = p.pairs.iter().map(|x| x.dns.unwrap()).collect();
        let pinned = [
            0, 1, 1, 2, 2, 0, 1, 1, 1, 0, 2, 0, 0, 2, 0, 1, 1, 1, 1, 2, 2, 1, 2, 2, 1, 0, 1, 1, 1,
            0, 2, 1, 1, 1, 0, 0, 0, 0, 1, 2, 2, 1, 2, 1, 2, 2, 2, 2, 0, 1,
        ];
        assert_eq!(chosen, pinned);
    }
}
