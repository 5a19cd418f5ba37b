//! The batch `whole_house` against the streaming replay it used to be
//! (`common::reference_whole_house`), on simulated days at several seeds
//! and on rows forced onto every boundary; and the three Table 3 policies
//! against the reports the commit before they moved onto packed keys
//! printed for the same days; and the streaming replay's own counters
//! against what the commit before it reused its name buffers counted.

mod common;

use cache_sim::{refresh, refresh_selective, serve_stale, whole_house, CacheReplay};
use ccz_sim::{ScaleKnobs, Simulation, WorkloadConfig};
use common::{push_lookup_and_conn, reference_whole_house, RTT_MS};
use dns_context::{Analysis, AnalysisConfig};
use dns_wire::RrType;
use std::net::Ipv4Addr;
use zeek_lite::{Duration, Logs};

/// Per seed, `{:?}` of `refresh(.., 10 s)`, `serve_stale(.., 1 h)` and
/// `refresh_selective(.., 10 s, 3 uses, 1 h)` on `quick_study(12, 0.5, seed)`,
/// recorded from the parent commit.
const RECORDED: [(u64, &str, &str, &str); 8] = [
    (1, "RefreshReport { standard: CachePolicyReport { conns: 29288, lookups: 11554, lookups_per_sec_per_house: 0.01114671449672021, hit_pct: 60.55039606664846, miss_pct: 39.44960393335154 }, refresh_all: CachePolicyReport { conns: 29288, lookups: 882023, lookups_per_sec_per_house: 0.8509311546252943, hit_pct: 85.16115815350997, miss_pct: 14.83884184649003 }, trace_secs: 86378.217870085, houses: 12 }",
     "CachePolicyReport { conns: 29288, lookups: 11554, lookups_per_sec_per_house: 0.01114671449672021, hit_pct: 75.58044250204863, miss_pct: 24.41955749795138 }",
     "CachePolicyReport { conns: 29288, lookups: 240357, lookups_per_sec_per_house: 0.23188427006129306, hit_pct: 84.3143949740508, miss_pct: 15.685605025949194 }"),
    (2, "RefreshReport { standard: CachePolicyReport { conns: 25443, lookups: 11377, lookups_per_sec_per_house: 0.010974526960900129, hit_pct: 55.284361120937, miss_pct: 44.715638879063 }, refresh_all: CachePolicyReport { conns: 25443, lookups: 760155, lookups_per_sec_per_house: 0.7332637375374033, hit_pct: 83.95236410800614, miss_pct: 16.04763589199387 }, trace_secs: 86389.44864878, houses: 12 }",
     "CachePolicyReport { conns: 25443, lookups: 11377, lookups_per_sec_per_house: 0.010974526960900129, hit_pct: 73.57622921825256, miss_pct: 26.423770781747436 }",
     "CachePolicyReport { conns: 25443, lookups: 221150, lookups_per_sec_per_house: 0.21332659201925494, hit_pct: 83.05624336752741, miss_pct: 16.943756632472585 }"),
    (3, "RefreshReport { standard: CachePolicyReport { conns: 20401, lookups: 8284, lookups_per_sec_per_house: 0.00799330984716004, hit_pct: 59.394147345718345, miss_pct: 40.605852654281655 }, refresh_all: CachePolicyReport { conns: 20401, lookups: 705449, lookups_per_sec_per_house: 0.6806944034728638, hit_pct: 82.92240576442332, miss_pct: 17.077594235576687 }, trace_secs: 86363.890119761, houses: 12 }",
     "CachePolicyReport { conns: 20401, lookups: 8284, lookups_per_sec_per_house: 0.00799330984716004, hit_pct: 74.24145875202196, miss_pct: 25.75854124797804 }",
     "CachePolicyReport { conns: 20401, lookups: 201948, lookups_per_sec_per_house: 0.1948615327153882, hit_pct: 82.04009607372187, miss_pct: 17.959903926278123 }"),
    (4, "RefreshReport { standard: CachePolicyReport { conns: 28808, lookups: 10844, lookups_per_sec_per_house: 0.010464909404145925, hit_pct: 62.35767842266037, miss_pct: 37.64232157733963 }, refresh_all: CachePolicyReport { conns: 28808, lookups: 873717, lookups_per_sec_per_house: 0.8431731141518042, hit_pct: 84.54943071369064, miss_pct: 15.450569286309358 }, trace_secs: 86352.077382405, houses: 12 }",
     "CachePolicyReport { conns: 28808, lookups: 10844, lookups_per_sec_per_house: 0.010464909404145925, hit_pct: 76.55512357678423, miss_pct: 23.444876423215774 }",
     "CachePolicyReport { conns: 28808, lookups: 187838, lookups_per_sec_per_house: 0.1812714545053451, hit_pct: 83.59483476811997, miss_pct: 16.405165231880034 }"),
    (5, "RefreshReport { standard: CachePolicyReport { conns: 23115, lookups: 9865, lookups_per_sec_per_house: 0.00952210754551122, hit_pct: 57.3220852260437, miss_pct: 42.6779147739563 }, refresh_all: CachePolicyReport { conns: 23115, lookups: 778279, lookups_per_sec_per_house: 0.7512272010555425, hit_pct: 83.5907419424616, miss_pct: 16.409258057538395 }, trace_secs: 86334.178584327, houses: 12 }",
     "CachePolicyReport { conns: 23115, lookups: 9865, lookups_per_sec_per_house: 0.00952210754551122, hit_pct: 73.41120484533853, miss_pct: 26.588795154661476 }",
     "CachePolicyReport { conns: 23115, lookups: 213813, lookups_per_sec_per_house: 0.20638118404748004, hit_pct: 82.57408609128272, miss_pct: 17.425913908717284 }"),
    (6, "RefreshReport { standard: CachePolicyReport { conns: 23362, lookups: 9842, lookups_per_sec_per_house: 0.009495866203712264, hit_pct: 57.87175755500385, miss_pct: 42.12824244499615 }, refresh_all: CachePolicyReport { conns: 23362, lookups: 832204, lookups_per_sec_per_house: 0.8029361753905874, hit_pct: 83.54164883143567, miss_pct: 16.458351168564334 }, trace_secs: 86370.916467424, houses: 12 }",
     "CachePolicyReport { conns: 23362, lookups: 9842, lookups_per_sec_per_house: 0.009495866203712264, hit_pct: 73.56390719972605, miss_pct: 26.43609280027395 }",
     "CachePolicyReport { conns: 23362, lookups: 249361, lookups_per_sec_per_house: 0.24059121036617495, hit_pct: 82.54430271380875, miss_pct: 17.45569728619125 }"),
    (7, "RefreshReport { standard: CachePolicyReport { conns: 25765, lookups: 12202, lookups_per_sec_per_house: 0.011756817917534098, hit_pct: 52.641179895206676, miss_pct: 47.358820104793324 }, refresh_all: CachePolicyReport { conns: 25765, lookups: 869407, lookups_per_sec_per_house: 0.8376872476011775, hit_pct: 84.70017465554047, miss_pct: 15.299825344459538 }, trace_secs: 86488.822100139, houses: 12 }",
     "CachePolicyReport { conns: 25765, lookups: 12202, lookups_per_sec_per_house: 0.011756817917534098, hit_pct: 75.35028138948185, miss_pct: 24.649718610518146 }",
     "CachePolicyReport { conns: 25765, lookups: 264324, lookups_per_sec_per_house: 0.2546803097225277, hit_pct: 83.90452163788085, miss_pct: 16.095478362119152 }"),
    (8, "RefreshReport { standard: CachePolicyReport { conns: 21321, lookups: 9029, lookups_per_sec_per_house: 0.00871243091322699, hit_pct: 57.65208010881291, miss_pct: 42.34791989118709 }, refresh_all: CachePolicyReport { conns: 21321, lookups: 696197, lookups_per_sec_per_house: 0.6717873811602493, hit_pct: 83.86098213029408, miss_pct: 16.139017869705924 }, trace_secs: 86361.277829402, houses: 12 }",
     "CachePolicyReport { conns: 21321, lookups: 9029, lookups_per_sec_per_house: 0.00871243091322699, hit_pct: 74.74790113034098, miss_pct: 25.252098869659022 }",
     "CachePolicyReport { conns: 21321, lookups: 153130, lookups_per_sec_per_house: 0.14776105280124588, hit_pct: 82.95108109375732, miss_pct: 17.048918906242672 }"),
];

/// Per seed, `[hits, misses, evicted, live, peak_live]` of a 60 s-sweep
/// [`CacheReplay`] over the same day's dns log, recorded from the commit
/// before the replay kept its evicted entries' name buffers.
const REPLAYED: [[u64; 5]; 8] = [
    [2364, 19066, 18038, 1028, 1065],
    [1430, 18413, 17575, 838, 929],
    [1510, 13983, 13054, 929, 972],
    [2214, 17222, 16273, 949, 1059],
    [1579, 15650, 14836, 814, 907],
    [1709, 16152, 15207, 945, 996],
    [1456, 19424, 18508, 916, 974],
    [1311, 14532, 13774, 758, 775],
];

#[test]
fn simulated_days_agree_with_the_replay_and_the_recorded_policies() {
    for ((seed, refreshed, stale, selective), replayed) in std::iter::zip(RECORDED, REPLAYED) {
        // `dnsctx::pipeline::quick_study(12, 0.5, seed)`, without the cycle.
        let cfg = WorkloadConfig {
            scale: ScaleKnobs { houses: 12, days: 1.0, activity: 0.5 },
            ..WorkloadConfig::default()
        };
        let logs = Simulation::new(cfg, seed).expect("valid workload config").run().logs;
        let a = Analysis::run(&logs, AnalysisConfig::default());

        let wh = whole_house(&logs, &a);
        assert!(wh.moved > 100, "seed {seed}: the day moves too little to compare: {wh:?}");
        assert_eq!(wh, reference_whole_house(&logs, &a), "seed {seed}");

        let mut replay = CacheReplay::new(Duration::from_secs(60));
        for txn in &logs.dns {
            replay.offer(txn);
        }
        let counted =
            [replay.hits(), replay.misses(), replay.evicted(), replay.live(), replay.peak_live()];
        assert_eq!(counted, replayed, "seed {seed}: the replay's cache.* counters");

        let hour = Duration::from_secs(3_600);
        let floor = Duration::from_secs(10);
        assert_eq!(format!("{:?}", refresh(&logs, &a, floor)), refreshed, "seed {seed}");
        assert_eq!(format!("{:?}", serve_stale(&logs, &a, hour)), stale, "seed {seed}");
        assert_eq!(format!("{:?}", refresh_selective(&logs, &a, floor, 3, hour)), selective, "seed {seed}");
    }
}

const SERVER: Ipv4Addr = Ipv4Addr::new(104, 16, 0, 1);

/// Each case is a handful of lookups for one name, `(house, ts_ms, qtype,
/// ttl)`, then how many of their connections blocked and how many of
/// those a house cache moves.
#[test]
fn forced_boundary_rows_agree_with_the_replay() {
    use RrType::{Aaaa, A};
    // A 10 s record fetched at 0 expires at 10 s + RTT_MS.
    let expiry_ms = 10_000 + RTT_MS;
    type Row = (u8, u64, RrType, Option<u32>);
    let cases: [(&str, &[Row], (usize, usize)); 7] = [
        ("one tick before expiry", &[(1, 0, A, Some(10)), (1, expiry_ms - 1, A, Some(10))], (2, 1)),
        ("expiry exactly at the next lookup", &[(1, 0, A, Some(10)), (1, expiry_ms, A, Some(10))], (2, 0)),
        ("ttl 0 caches nothing", &[(1, 0, A, Some(0)), (1, RTT_MS, A, Some(0)), (1, 20, A, Some(0))], (3, 0)),
        // The unanswered lookup finds the record live; its connection
        // pairs with the first lookup, a second ago, and does not block.
        (
            "an unanswered lookup under a live record",
            &[(1, 0, A, Some(300)), (1, 1_000, A, None), (1, 2_000, A, Some(300))],
            (2, 1),
        ),
        // ... and here finds it expired: evicted, nothing cached in its
        // place, so the third lookup misses and only the fourth hits.
        (
            "an unanswered lookup over an expired record",
            &[(1, 0, A, Some(1)), (1, 1_500, A, None), (1, 2_000, A, Some(300)), (1, 3_000, A, Some(300))],
            (3, 1),
        ),
        (
            "the same name in two houses",
            &[(1, 0, A, Some(300)), (2, 1_000, A, Some(300)), (1, 2_000, A, Some(300))],
            (3, 1),
        ),
        (
            "the same name under two qtypes",
            &[(1, 0, A, Some(300)), (1, 5, Aaaa, Some(300)), (1, 1_000, Aaaa, Some(300)), (1, 2_000, A, Some(300))],
            (4, 2),
        ),
    ];
    for (what, rows, blocked_moved) in cases {
        let mut logs = Logs::default();
        for &(h, ts_ms, qtype, ttl) in rows {
            // The connection starts 2 ms after the answer: it blocked.
            let ends = (Ipv4Addr::new(10, 77, 0, h), SERVER);
            push_lookup_and_conn(&mut logs, ends, "a.example.com", ts_ms, ttl, 2).qtype = qtype;
        }
        logs.sort();
        let mut cfg = AnalysisConfig::default();
        cfg.threshold_rule.min_lookups = 1;
        let a = Analysis::run(&logs, cfg);
        let wh = whole_house(&logs, &a);
        assert_eq!(wh, reference_whole_house(&logs, &a), "{what}");
        assert_eq!((wh.sc_conns + wh.r_conns, wh.moved), blocked_moved, "{what}: {wh:?}");
    }
}
