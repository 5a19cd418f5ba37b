//! Test-only reference for the batch `whole_house`: what it was before it
//! got a replay of its own — the streaming `CacheReplay` driven over the
//! whole dns log, sweeps, evictions and all — then the same tally.

use cache_sim::{CacheReplay, WholeHouseReport};
use dns_context::{Analysis, ConnClass};
use std::net::Ipv4Addr;
use zeek_lite::{
    Answer, ConnRecord, ConnState, DnsTransaction, Duration, FiveTuple, Logs, Proto, Timestamp,
};

const RESOLVER: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 53);
/// Every fixture lookup is answered (if at all) after this long.
pub const RTT_MS: u64 = 4;

/// Append an `A` lookup of `query` by `client` at `ts_ms` — answered with
/// `server` for `ttl` seconds, or never (`None`) — and a connection from
/// `client` to `server` starting `delay_ms` after the answer. Returns the
/// lookup, for a caller that wants it otherwise.
pub fn push_lookup_and_conn<'a>(
    logs: &'a mut Logs,
    (client, server): (Ipv4Addr, Ipv4Addr),
    query: &str,
    ts_ms: u64,
    ttl: Option<u32>,
    delay_ms: u64,
) -> &'a mut DnsTransaction {
    let i = logs.conns.len();
    logs.conns.push(ConnRecord {
        uid: i as u64,
        ts: Timestamp::from_millis(ts_ms + RTT_MS + delay_ms),
        id: FiveTuple {
            orig_addr: client,
            orig_port: 40_000 + i as u16,
            resp_addr: server,
            resp_port: 443,
            proto: Proto::Tcp,
        },
        duration: Duration::from_millis(500),
        orig_bytes: 100,
        resp_bytes: 1_000,
        orig_pkts: 4,
        resp_pkts: 4,
        state: ConnState::SF,
        history: zeek_lite::History::new(),
        service: Some("ssl"),
    });
    logs.dns.push(DnsTransaction {
        ts: Timestamp::from_millis(ts_ms),
        client,
        resolver: RESOLVER,
        trans_id: i as u16,
        query: logs.names.intern(query),
        qtype: dns_wire::RrType::A,
        rcode: ttl.map(|_| dns_wire::Rcode::NoError),
        rtt: ttl.map(|_| Duration::from_millis(RTT_MS)),
        answers: ttl.map(|ttl| Answer::addr(server, ttl)).into_iter().collect(),
    });
    logs.dns.last_mut().expect("just pushed")
}

pub fn reference_whole_house(logs: &Logs, analysis: &Analysis<'_>) -> WholeHouseReport {
    let mut replay = CacheReplay::new(Duration::from_secs(60));
    let absorbed: Vec<bool> = logs.dns.iter().map(|txn| replay.offer(txn)).collect();
    let (mut sc, mut r, mut moved_sc, mut moved_r) = (0usize, 0usize, 0usize, 0usize);
    for (pair, class) in analysis.pairing.pairs.iter().zip(&analysis.classes) {
        let (blocked, moved) = match class {
            ConnClass::SharedCache => (&mut sc, &mut moved_sc),
            ConnClass::Resolution => (&mut r, &mut moved_r),
            _ => continue,
        };
        *blocked += 1;
        *moved += usize::from(absorbed[pair.dns.expect("blocked conns are paired")]);
    }
    let pct = |part: usize, whole: usize| if whole == 0 { 0.0 } else { 100.0 * part as f64 / whole as f64 };
    let total = analysis.pairing.app_conn_count();
    WholeHouseReport {
        total_conns: total,
        sc_conns: sc,
        r_conns: r,
        moved: moved_sc + moved_r,
        moved_share_of_all_pct: pct(moved_sc + moved_r, total),
        sc_benefit_pct: pct(moved_sc, sc),
        r_benefit_pct: pct(moved_r, r),
    }
}
