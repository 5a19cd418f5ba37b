//! Invariants of `Logs::merge` / `sort`: the shard-merge path must be
//! indistinguishable from a single pass.

use std::net::Ipv4Addr;
use zeek_lite::{
    Answer, ConnRecord, ConnState, DegradationStats, DnsTransaction, Duration, FiveTuple, Logs,
    NameTable, Proto, Timestamp,
};

fn conn(ts_ms: u64, uid: u64) -> ConnRecord {
    ConnRecord {
        uid,
        ts: Timestamp::from_millis(ts_ms),
        id: FiveTuple {
            orig_addr: Ipv4Addr::new(10, 0, 0, (uid % 200) as u8 + 1),
            orig_port: 40_000 + uid as u16,
            resp_addr: Ipv4Addr::new(104, 16, 0, 1),
            resp_port: 443,
            proto: Proto::Tcp,
        },
        duration: Duration::from_millis(100),
        orig_bytes: 100,
        resp_bytes: 1_000,
        orig_pkts: 3,
        resp_pkts: 5,
        state: ConnState::SF,
        history: "ShAaFf".into(),
        service: Some("ssl"),
    }
}

fn dns(names: &mut NameTable, ts_ms: u64, id: u16) -> DnsTransaction {
    DnsTransaction {
        ts: Timestamp::from_millis(ts_ms),
        client: Ipv4Addr::new(10, 0, 0, 1),
        resolver: Ipv4Addr::new(198, 51, 100, 53),
        trans_id: id,
        query: names.intern(&format!("q{id}.example.com")),
        qtype: dns_wire::RrType::A,
        rcode: Some(dns_wire::Rcode::NoError),
        rtt: Some(Duration::from_millis(5)),
        answers: vec![Answer::addr(Ipv4Addr::new(104, 16, 0, 1), 300)],
    }
}

fn logs_with(conn_ts: &[u64], dns_ts: &[u64]) -> Logs {
    let mut names = NameTable::default();
    let mut logs = Logs {
        conns: conn_ts.iter().enumerate().map(|(i, &t)| conn(t, i as u64)).collect(),
        dns: dns_ts.iter().enumerate().map(|(i, &t)| dns(&mut names, t, i as u16)).collect(),
        names,
        ..Default::default()
    };
    logs.sort();
    logs
}

#[test]
fn merge_preserves_counts_and_resorts() {
    let a = logs_with(&[5_000, 1_000], &[4_000]);
    let b = logs_with(&[3_000, 2_000], &[500, 6_000]);
    let mut merged = a.clone();
    merged.merge(b.clone());
    assert_eq!(merged.conns.len(), a.conns.len() + b.conns.len());
    assert_eq!(merged.dns.len(), a.dns.len() + b.dns.len());
    assert!(merged.conns.windows(2).all(|w| w[0].ts <= w[1].ts), "conns must be time-sorted");
    assert!(merged.dns.windows(2).all(|w| w[0].ts <= w[1].ts), "dns must be time-sorted");
}

#[test]
fn merge_is_associative_on_record_streams() {
    let a = logs_with(&[1_000], &[100]);
    let b = logs_with(&[2_000], &[200]);
    let c = logs_with(&[3_000], &[300]);
    let mut left = a.clone();
    left.merge(b.clone());
    left.merge(c.clone());
    let mut bc = b;
    bc.merge(c);
    let mut right = a;
    right.merge(bc);
    assert_eq!(left.conns, right.conns);
    assert_eq!(left.dns, right.dns);
    assert_eq!(left.degradation, right.degradation);
}

#[test]
fn merge_sums_degradation_stats() {
    let mut a = logs_with(&[1_000], &[]);
    a.degradation = DegradationStats {
        frames_seen: 10,
        frames_accepted: 8,
        truncated_ipv4: 2,
        dns_payloads: 4,
        dns_accepted: 3,
        dns_truncated: 1,
        ..Default::default()
    };
    let mut b = logs_with(&[2_000], &[]);
    b.degradation = DegradationStats {
        frames_seen: 5,
        frames_accepted: 5,
        dns_payloads: 2,
        dns_accepted: 2,
        ..Default::default()
    };
    a.merge(b);
    assert_eq!(a.degradation.frames_seen, 15);
    assert_eq!(a.degradation.frames_accepted, 13);
    assert_eq!(a.degradation.truncated_ipv4, 2);
    assert_eq!(a.degradation.frames_seen - a.degradation.frames_accepted, 2);
    assert_eq!(a.degradation.dns_payloads, 6);
    assert_eq!(a.degradation.dns_payloads - a.degradation.dns_accepted, 1);
    assert!(!a.degradation.is_clean());
}

#[test]
fn sort_order_is_total_and_input_order_independent() {
    // Equal timestamps break ties on uid, so the sorted log is a pure
    // function of the record *set* — the property that lets streamed
    // per-epoch releases concatenate into the exact batch log.
    let mut logs = Logs {
        conns: vec![conn(1_000, 7), conn(1_000, 3), conn(500, 9)],
        ..Default::default()
    };
    logs.sort();
    let uids: Vec<u64> = logs.conns.iter().map(|c| c.uid).collect();
    assert_eq!(uids, vec![9, 3, 7]);

    let mut reversed = Logs {
        conns: vec![conn(500, 9), conn(1_000, 3), conn(1_000, 7)],
        ..Default::default()
    };
    reversed.sort();
    assert_eq!(reversed.conns, logs.conns);

    // Same for dns rows with identical stamps: the log_order tiebreak
    // (here: trans_id, then the query's text, whatever its id) makes the
    // result accumulation-independent.
    let sorted = |ids: [u16; 3]| {
        let mut logs = Logs::default();
        for id in ids {
            let row = dns(&mut logs.names, 1_000, id);
            logs.dns.push(DnsTransaction { trans_id: id.min(2), ..row });
        }
        logs.sort();
        logs.dns.iter().map(|t| (t.trans_id, logs.names.name(t.query).to_string())).collect::<Vec<_>>()
    };
    let want = [(1, "q1.example.com"), (2, "q2.example.com"), (2, "q3.example.com")];
    let want = want.map(|(id, q)| (id, q.to_string()));
    assert_eq!(sorted([3, 2, 1]), want);
    assert_eq!(sorted([1, 2, 3]), want);
    assert_eq!(sorted([2, 3, 1]), want);
}
