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

use crate::kernel::{pack_key, select, Entry, Paired, Tally};
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

/// Call `f` with every `(packed key, entry)` of the answered lookups in
/// `dns`, in dns-log order: one entry per address answer. Both passes of
/// [`Pairing::build`] walk the log through it, so they cannot disagree
/// on what an entry is. A plain loop that takes the pass as a closure:
/// an iterator of nested `flat_map`s built the index measurably slower.
fn each_keyed(dns: &[DnsTransaction], mut f: impl FnMut(u64, Entry)) {
    for (dns_idx, txn) in dns.iter().enumerate() {
        let (Some(completed), Some(expires)) = (txn.completed_at(), txn.expires_at()) else {
            continue;
        };
        for addr in txn.addrs() {
            f(pack_key(txn.client, addr), Entry { completed, expires, dns_idx });
        }
    }
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
        // Flat arena of (client, answer address) entries, grouped into
        // per-key runs by a counting sort over the dns log itself, in two
        // passes of one walk (`each_keyed`): the first numbers the keys in
        // first-seen order and counts their entries, the runs are carved
        // in that order, and the second pass writes each entry straight
        // into its run's next slot of an exactly-sized arena; then each
        // run is sorted by (completed, dns_idx). Nothing is staged: an
        // entry's key exists only while it is counted or placed. Run
        // contents and internal order match what a global (key,
        // completed, dns_idx) sort produces; only the cross-key
        // arrangement differs, and no consumer observes that — every read
        // goes through `runs`. The dns log is ts-sorted, so each run
        // arrives nearly sorted by completion time and its per-run sort
        // is close to linear.
        //
        // `packed key -> run number`. FxHash map: addressed by key only,
        // never iterated (bucket order must not leak into output); the
        // first-seen run numbers are the deterministic order instead.
        let mut runs: FastMap<u64, u32> = FastMap::default();
        // Run `r` is `arena[bounds[r]..bounds[r + 1]]`. While counting,
        // `bounds[r + 1]` is run `r`'s size; while placing, its cursor,
        // which stops at the next run's start.
        let mut bounds: Vec<u32> = vec![0];
        let mut entries = 0usize;
        each_keyed(dns, |key, _| {
            entries += 1;
            let fresh = bounds.len() as u32 - 1;
            let r = *runs.entry(key).or_insert(fresh);
            if r == fresh {
                bounds.push(0);
            }
            bounds[r as usize + 1] += 1;
        });
        assert!(entries <= u32::MAX as usize, "index exceeds u32 arena offsets");
        let mut offset = 0;
        for bound in &mut bounds[1..] {
            offset += std::mem::replace(bound, offset);
        }
        let unplaced = Entry { completed: Timestamp::ZERO, expires: Timestamp::ZERO, dns_idx: 0 };
        let mut arena = vec![unplaced; entries];
        each_keyed(dns, |key, e| {
            let r = *runs.get(&key).expect("counted key") as usize;
            arena[bounds[r + 1] as usize] = e;
            bounds[r + 1] += 1;
        });
        for run in bounds.windows(2) {
            arena[run[0] as usize..run[1] as usize].sort_unstable_by_key(|en| (en.completed, en.dns_idx));
        }

        let mut rng = StdRng::seed_from_u64(0x5ca1ab1e);
        let mut pairs = Vec::with_capacity(conns.len());
        let mut dns_used = vec![false; dns.len()];

        for (ci, conn) in conns.iter().enumerate() {
            if conn.is_dns() {
                continue;
            }
            let mut pair = PairedConn { conn: ci, ..PairedConn::default() };
            let key = pack_key(conn.id.orig_addr, conn.id.resp_addr);
            let run = runs.get(&key).map_or(&[][..], |&r| {
                let r = r as usize;
                &arena[bounds[r] as usize..bounds[r + 1] as usize]
            });
            if let Some(found) = select(run, conn.ts) {
                let live = || found.prior.iter().filter(|e| e.live_at(conn.ts));
                pair.expired = found.expired;
                let candidates = live().count();
                // The arena holds fewer than u32::MAX entries (asserted).
                pair.candidates = candidates as u32;
                let chosen = match policy {
                    // One draw per connection with a live candidate, in
                    // connection order, over the candidates oldest first.
                    PairingPolicy::RandomNonExpired if !found.expired => {
                        let k = rng.random_range(0..candidates);
                        live().nth(k).expect("k < live candidates")
                    }
                    _ => found.chosen,
                };
                pair.dns = Some(chosen.dns_idx);
                pair.gap = Some(conn.ts.since(chosen.completed));
                // The conn log is ts-sorted, so the first connection to
                // pair with a lookup is its earliest use.
                pair.first_use = !std::mem::replace(&mut dns_used[chosen.dns_idx], true);
            }
            pairs.push(pair);
        }

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
