//! Randomized tests for the §8 cache simulators over random workloads,
//! driven by fixed `xkit::rng` streams so every run exercises the same
//! cases.

use cache_sim::{refresh, refresh_selective, serve_stale, whole_house};
use dns_context::{Analysis, AnalysisConfig};
use std::net::Ipv4Addr;
use xkit::rng::StdRng;
use zeek_lite::{
    Answer, ConnRecord, ConnState, DnsTransaction, Duration, FiveTuple, Logs, Proto, Timestamp,
};

const CASES: usize = 128;

fn rng(label: u64) -> StdRng {
    StdRng::seed_from_u64(0xCAC_0E5 ^ label)
}

const RESOLVER: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 53);

fn client(i: u8) -> Ipv4Addr {
    Ipv4Addr::new(10, 77, 0, 1 + (i % 3))
}
fn server(i: u8) -> Ipv4Addr {
    Ipv4Addr::new(104, 16, 0, 1 + (i % 3))
}

/// Random (lookup, conn) workloads where each lookup is soon followed by
/// a connection to the looked-up address from the same house.
fn gen_logs(r: &mut StdRng) -> Logs {
    let mut logs = Logs::default();
    for i in 0..r.random_range(1..40usize) {
        let ts_ms = r.random_range(0u64..500_000);
        let c = r.random::<u8>();
        let s = r.random::<u8>();
        let ttl = r.random_range(1u32..900);
        let delay_ms = r.random_range(1u64..200);
        logs.dns.push(DnsTransaction {
            ts: Timestamp::from_millis(ts_ms),
            client: client(c),
            resolver: RESOLVER,
            trans_id: i as u16,
            query: format!("svc-{}.example", s % 5),
            qtype: dns_wire::RrType::A,
            rcode: Some(dns_wire::Rcode::NoError),
            rtt: Some(Duration::from_millis(4)),
            answers: vec![Answer::addr(server(s), ttl)],
        });
        logs.conns.push(ConnRecord {
            uid: i as u64,
            ts: Timestamp::from_millis(ts_ms + 4 + delay_ms),
            id: FiveTuple {
                orig_addr: client(c),
                orig_port: 40_000 + i as u16,
                resp_addr: server(s),
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
    }
    logs.sort();
    logs
}

fn acfg() -> AnalysisConfig {
    let mut cfg = AnalysisConfig::default();
    cfg.threshold_rule.min_lookups = 1;
    cfg
}

/// Hit/miss rates always partition; moved conns bounded by blocked.
#[test]
fn reports_are_internally_consistent() {
    let mut r = rng(1);
    for _ in 0..CASES {
        let logs = gen_logs(&mut r);
        let a = Analysis::run(&logs, acfg());
        let wh = whole_house(&logs, &a);
        assert!(wh.moved <= wh.sc_conns + wh.r_conns);
        assert!(wh.moved_share_of_all_pct <= 100.0 + 1e-9);
        let rr = refresh(&logs, &a, Duration::from_secs(10));
        assert!(
            (rr.standard.hit_pct + rr.standard.miss_pct - 100.0).abs() < 1e-9
                || rr.standard.conns == 0
        );
        assert!(
            (rr.refresh_all.hit_pct + rr.refresh_all.miss_pct - 100.0).abs() < 1e-9
                || rr.refresh_all.conns == 0
        );
        assert_eq!(rr.standard.conns, rr.refresh_all.conns);
    }
}

/// Refresh-all never hits less, and never costs less, than standard.
#[test]
fn refresh_dominates_standard() {
    let mut r = rng(2);
    for _ in 0..CASES {
        let logs = gen_logs(&mut r);
        let a = Analysis::run(&logs, acfg());
        let rr = refresh(&logs, &a, Duration::from_secs(10));
        assert!(rr.refresh_all.hit_pct + 1e-9 >= rr.standard.hit_pct);
        assert!(rr.refresh_all.lookups >= rr.standard.lookups);
    }
}

/// Serve-stale with an unbounded staleness window matches refresh-all's
/// hit rate at no more than the standard cache's lookup cost.
#[test]
fn serve_stale_bounds() {
    let mut r = rng(3);
    for _ in 0..CASES {
        let logs = gen_logs(&mut r);
        let a = Analysis::run(&logs, acfg());
        let rr = refresh(&logs, &a, Duration::from_secs(10));
        let ss = serve_stale(&logs, &a, Duration(u64::MAX / 4));
        assert!(ss.lookups <= rr.standard.lookups);
        assert!(ss.hit_pct + 1e-9 >= rr.refresh_all.hit_pct);
        // And a zero staleness window degenerates to the standard cache.
        let ss0 = serve_stale(&logs, &a, Duration::ZERO);
        assert_eq!(ss0.lookups, rr.standard.lookups);
        assert!((ss0.hit_pct - rr.standard.hit_pct).abs() < 1e-9);
    }
}

/// Selective refresh interpolates: cost between standard and
/// refresh-all, hit rate at least standard's.
#[test]
fn selective_interpolates() {
    let mut r = rng(4);
    for _ in 0..CASES {
        let logs = gen_logs(&mut r);
        let min_uses = r.random_range(1usize..6);
        let idle = r.random_range(60u64..7_200);
        let a = Analysis::run(&logs, acfg());
        let rr = refresh(&logs, &a, Duration::from_secs(10));
        let sel =
            refresh_selective(&logs, &a, Duration::from_secs(10), min_uses, Duration::from_secs(idle));
        assert!(sel.lookups <= rr.refresh_all.lookups);
        assert!(sel.hit_pct + 1e-9 >= rr.standard.hit_pct);
        assert_eq!(sel.conns, rr.standard.conns);
    }
}

/// Raising the refresh TTL floor never increases the lookup cost.
#[test]
fn ttl_floor_monotone() {
    let mut r = rng(5);
    for _ in 0..CASES {
        let logs = gen_logs(&mut r);
        let a = Analysis::run(&logs, acfg());
        let mut last = u64::MAX;
        for floor in [1u64, 10, 60, 600, 86_400] {
            let rr = refresh(&logs, &a, Duration::from_secs(floor));
            assert!(
                rr.refresh_all.lookups <= last,
                "floor {floor}s raised cost: {} > {last}",
                rr.refresh_all.lookups
            );
            last = rr.refresh_all.lookups;
        }
    }
}
