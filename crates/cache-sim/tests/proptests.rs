//! Randomized tests for the §8 cache simulators over random workloads,
//! driven by fixed `xkit::rng` streams so every run exercises the same
//! cases.

mod common;

use cache_sim::{refresh, refresh_selective, serve_stale, whole_house};
use common::{push_lookup_and_conn, reference_whole_house};
use dns_context::{Analysis, AnalysisConfig};
use std::net::Ipv4Addr;
use xkit::rng::StdRng;
use zeek_lite::{Duration, Logs};

const CASES: usize = 128;

fn rng(label: u64) -> StdRng {
    StdRng::seed_from_u64(0xCAC_0E5 ^ label)
}

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
    for _ in 0..r.random_range(1..40usize) {
        let ts_ms = r.random_range(0u64..500_000);
        let c = r.random::<u8>();
        let s = r.random::<u8>();
        let ttl = r.random_range(1u32..900);
        let delay_ms = r.random_range(1u64..200);
        let query = format!("svc-{}.example", s % 5);
        push_lookup_and_conn(&mut logs, (client(c), server(s)), &query, ts_ms, Some(ttl), delay_ms);
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

/// The batch `whole_house` is the streaming replay it used to be, field
/// for field — also once some lookups ask `AAAA`, go unanswered or come
/// back with TTL 0.
#[test]
fn whole_house_matches_the_streaming_replay() {
    let mut r = rng(6);
    let mut moved = 0;
    for case in 0..2 * CASES {
        let mut logs = gen_logs(&mut r);
        if case >= CASES {
            for txn in &mut logs.dns {
                match r.random_range(0u8..8) {
                    0 | 1 => txn.qtype = dns_wire::RrType::Aaaa,
                    2 => (txn.rcode, txn.rtt, txn.answers) = (None, None, Default::default()),
                    3 => txn.answers[0].ttl = 0,
                    _ => {}
                }
            }
            logs.sort();
        }
        let a = Analysis::run(&logs, acfg());
        let wh = whole_house(&logs, &a);
        assert_eq!(wh, reference_whole_house(&logs, &a), "case {case}");
        moved += wh.moved;
    }
    assert!(moved > CASES, "the worlds move too little to compare: {moved}");
}
