//! Lifecycle tests for the multi-tenant serve daemon (DESIGN.md §15).
//!
//! Pinned contracts: N≥8 tenants run concurrently with bounded
//! per-tenant state; mid-run per-tenant scrapes are valid prefixes of
//! the settled snapshot; the post-drain aggregate is byte-identical to
//! the sequential id-ordered fold for any pool width; and removing a
//! tenant frees its state (its peak gauges drop out of the aggregate).

use bench::pipeline::{RunSpec, Source};
use bench::serve::{sequential_aggregate, Daemon, DaemonConfig, TenantSpec};
use xkit::obs::{http, json, Metric, Metrics, TenantState};

/// Eight small tenants: six simulation-fed rings plus two pcap replays
/// of other worlds, so both source kinds ride the same pool.
fn specs() -> Vec<TenantSpec> {
    let mut specs: Vec<TenantSpec> = (0..6)
        .map(|k| {
            let mut spec = TenantSpec::sim(&format!("t{k:03}"), 4, 0.05, 0.1, 100 + k as u64);
            spec.run.window_secs = 30.0;
            spec
        })
        .collect();
    for (k, seed) in [(6, 900u64), (7, 901u64)] {
        let mut pcap = Vec::new();
        bench::sim(3, 0.04, 0.1, seed)
            .run_pcap_observed(&mut pcap, 65_535)
            .expect("in-memory pcap");
        specs.push(TenantSpec {
            id: format!("t{k:03}"),
            run: RunSpec { source: Source::Pcap(pcap), window_secs: 30.0, threads: 1 },
        });
    }
    specs
}

fn drained_daemon(threads: usize, serve: bool) -> (Daemon, Vec<TenantSpec>) {
    let daemon =
        Daemon::new(DaemonConfig { threads, serve: serve.then(|| "127.0.0.1:0".to_string()) })
            .expect("daemon");
    let specs = specs();
    for spec in &specs {
        daemon.add_tenant(spec.clone()).expect("unique id");
    }
    (daemon, specs)
}

#[test]
fn post_drain_aggregate_is_byte_identical_to_the_sequential_fold() {
    let (wide, specs) = drained_daemon(4, false);
    wide.drain();
    let wide_agg = wide.aggregate().to_json();

    let (narrow, _) = drained_daemon(1, false);
    narrow.drain();
    let narrow_agg = narrow.aggregate().to_json();

    let sequential = sequential_aggregate(&specs).to_json();
    assert_eq!(wide_agg, sequential, "4-worker fold != sequential fold");
    assert_eq!(narrow_agg, sequential, "1-worker fold != sequential fold");

    // Every tenant settled, none failed, and per-tenant state stayed
    // bounded: the engines ran with a finite window, so the aggregate
    // peak gauges sit far below the total row counts.
    for (id, state) in wide.tenants() {
        assert_eq!(state, TenantState::Drained, "tenant {id}");
    }
    assert_eq!(wide.panicked(), 0);
    let agg = wide.aggregate();
    assert!(agg.counter("stream.epochs") > 8, "windowing is active");
    let peak = agg.gauge("stream.peak_live_answers").expect("peak gauge");
    assert!(
        peak < agg.counter("zeek.dns_rows") as f64,
        "peak live answers {peak} not bounded below total dns rows"
    );
    assert_eq!(wide.shutdown().to_json(), sequential);
}

#[test]
fn mid_run_tenant_scrapes_are_prefix_valid() {
    let (daemon, _) = drained_daemon(4, true);
    let addr = daemon.addr().expect("serving").to_string();

    // Scrape one tenant while the fleet runs. The roster route answers
    // from the first instant; the snapshot may be empty until the
    // tenant's first epoch releases, and any non-empty scrape must be
    // a prefix of the settled snapshot.
    let mut mid: Option<Metrics> = None;
    loop {
        let (status, body) = http::get(&addr, "/tenants/t000/snapshot").expect("scrape");
        assert_eq!(status, 200);
        let v = json::parse(&body).expect("mid-run snapshot parses");
        let snap = Metrics::from_json_value(&v).expect("mid-run snapshot is a metrics doc");
        if !snap.is_empty() {
            mid = Some(snap);
            break;
        }
        if daemon.registry().state("t000") == Some(TenantState::Drained) {
            break;
        }
        std::thread::yield_now();
    }
    let (status, _) = http::get(&addr, "/tenants").expect("roster");
    assert_eq!(status, 200);

    daemon.drain();
    let fin = daemon.registry().hub("t000").expect("t000 hub").metrics();
    if let Some(mid) = mid {
        for (name, metric) in mid.iter() {
            match metric {
                Metric::Counter(n) => assert!(
                    *n <= fin.counter(name),
                    "counter {name}: mid {n} > final {}",
                    fin.counter(name)
                ),
                // Peak gauges are monotone; level gauges (live_*) track
                // the current state and legitimately shrink at drain.
                Metric::Gauge(g) if name.contains("peak") => {
                    let f = fin.gauge(name).unwrap_or(0.0);
                    assert!(*g <= f, "gauge {name}: mid {g} > final {f}");
                }
                Metric::Gauge(_) => {}
                Metric::Hist(h) => {
                    let f = match fin.get(name) {
                        Some(Metric::Hist(f)) => f.count(),
                        _ => 0,
                    };
                    assert!(h.count() <= f, "hist {name}: mid count {} > final {f}", h.count());
                }
            }
        }
    }
    daemon.shutdown();
}

#[test]
fn remove_frees_tenant_state_and_peak_gauges_drop() {
    let daemon = Daemon::new(DaemonConfig { threads: 2, serve: Some("127.0.0.1:0".to_string()) })
        .expect("daemon");
    let addr = daemon.addr().expect("serving").to_string();

    let big = TenantSpec::sim("big", 8, 0.08, 0.2, 7);
    let small = TenantSpec::sim("small", 2, 0.02, 0.1, 8);
    daemon.add_tenant(big).expect("big");
    daemon.add_tenant(small.clone()).expect("small");
    assert!(
        daemon.add_tenant(TenantSpec::sim("big", 1, 0.01, 0.1, 9)).is_err(),
        "duplicate ids are rejected"
    );
    daemon.drain();

    let before = daemon.aggregate();
    let small_only = daemon.registry().hub("small").expect("small hub").metrics();
    let big_peak = daemon.registry().hub("big").expect("big hub").metrics();
    let big_peak = big_peak.gauge("stream.peak_live_answers").expect("big peak");
    assert_eq!(before.gauge("stream.peak_live_answers"), Some(big_peak));

    // Removal frees the hub: the aggregate collapses to the surviving
    // tenant's snapshot byte for byte, and the HTTP plane 404s.
    assert!(daemon.remove_tenant("big"));
    assert!(!daemon.remove_tenant("big"), "second remove is a no-op");
    assert!(!daemon.remove_tenant("never-added"));
    let after = daemon.aggregate();
    assert_eq!(after.to_json(), small_only.to_json());
    assert!(
        after.gauge("stream.peak_live_answers").expect("small peak") < big_peak,
        "the removed tenant's peak must drop out of the aggregate"
    );
    let (status, _) = http::get(&addr, "/tenants/big/snapshot").expect("scrape");
    assert_eq!(status, 404);
    let (status, body) = http::get(&addr, "/tenants").expect("roster");
    assert_eq!(status, 200);
    assert!(!body.contains("\"big\""), "roster still lists big: {body}");

    // The removed tenant's settled snapshot is reproducible from its
    // spec alone — state was freed, not lost.
    assert_eq!(
        daemon.shutdown().to_json(),
        sequential_aggregate(&[small]).to_json()
    );
}

#[test]
fn lifecycle_events_land_in_the_root_flight_ring() {
    let (daemon, _) = drained_daemon(2, false);
    daemon.drain();
    daemon.remove_tenant("t007");
    let events = daemon.root().flight().snapshot();
    for kind in ["tenant.add", "tenant.drain", "tenant.remove"] {
        assert!(events.iter().any(|e| e.kind == kind), "missing {kind} event");
    }
    daemon.shutdown();
}
