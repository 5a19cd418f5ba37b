//! Live-plane validity: a scrape of the observability hub at any epoch
//! boundary is a valid prefix of the final snapshot — every counter
//! monotone across scrapes and bounded by its final value, the frame
//! accounting identity intact at every instant, finish-only keys absent
//! until finish — and the HTTP endpoints answer while the stream run is
//! still in flight.

use std::collections::BTreeMap;

use dnsctx::ccz_sim::{ScaleKnobs, Simulation, WorkloadConfig};
use dnsctx::dns_context::{stream, AnalysisConfig};
use dnsctx::xkit::obs::{http, json, Metrics, ObsHub};
use dnsctx::pcapio;
use dnsctx::zeek_lite::{Duration, MonitorConfig};

fn small_cfg() -> WorkloadConfig {
    WorkloadConfig {
        scale: ScaleKnobs { houses: 4, days: 0.03, activity: 1.0 },
        services: 200,
        shared_services: 30,
        ..WorkloadConfig::default()
    }
}

fn analysis_cfg() -> AnalysisConfig {
    let mut cfg = AnalysisConfig::default();
    cfg.threshold_rule.min_lookups = 50;
    cfg.threads = 1;
    cfg
}

fn capture() -> Vec<u8> {
    let sim = Simulation::new(small_cfg(), 42).unwrap();
    let mut pcap = Vec::new();
    sim.run_pcap(&mut pcap, 600).unwrap();
    pcap
}

/// The counters of a snapshot, read back from its canonical JSON: bare
/// numbers are counters; `{"gauge":..}` and `{"hist":..}` objects are
/// not and carry no prefix guarantee.
fn counters(m: &Metrics) -> BTreeMap<String, u64> {
    let v = json::parse(&m.to_json()).expect("canonical metrics JSON parses");
    v.as_obj()
        .expect("metrics JSON is an object")
        .iter()
        .filter_map(|(k, val)| val.as_f64().map(|n| (k.clone(), n as u64)))
        .collect()
}

/// `zeek.frames_seen == zeek.frames_accepted + Σ zeek.reject.*` — the
/// degradation identity must hold in every published snapshot, not just
/// the final one.
fn assert_frame_identity(cs: &BTreeMap<String, u64>, when: &str) {
    let seen = cs.get("zeek.frames_seen").copied().unwrap_or(0);
    let accepted = cs.get("zeek.frames_accepted").copied().unwrap_or(0);
    let rejected: u64 = cs
        .iter()
        .filter(|(k, _)| k.starts_with("zeek.reject."))
        .map(|(_, v)| *v)
        .sum();
    assert_eq!(seen, accepted + rejected, "frame identity broken {when}");
}

#[test]
fn midrun_scrapes_are_valid_prefixes_of_the_final_snapshot() {
    let pcap = capture();
    let hub = ObsHub::default();
    let mut scrapes: Vec<Metrics> = Vec::new();
    let mut source = pcapio::source::file(&pcap[..]).unwrap();
    let result = stream::process_source_observed(
        &mut source,
        Duration::from_secs(30),
        MonitorConfig::default(),
        analysis_cfg(),
        Some(&hub),
        |_| scrapes.push(hub.metrics()),
    )
    .unwrap();
    assert!(scrapes.len() > 2, "workload too small to produce mid-run scrapes");

    // finish() publishes the settled snapshot: the hub's final state is
    // exactly the merged analysis + stream metrics.
    let mut merged = result.analysis_metrics.clone();
    merged.merge(&result.stream_metrics);
    assert_eq!(hub.metrics().to_json(), merged.to_json());
    let final_cs = counters(&merged);

    let mut prev: Option<BTreeMap<String, u64>> = None;
    for (i, m) in scrapes.iter().enumerate() {
        let cs = counters(m);
        assert_frame_identity(&cs, &format!("at scrape {i}"));

        // Monotone: every counter a previous scrape carried is still
        // there and never decreased.
        if let Some(prev) = &prev {
            for (k, v) in prev {
                let now = cs.get(k).copied().unwrap_or(0);
                assert!(now >= *v, "counter {k} fell from {v} to {now} at scrape {i}");
            }
        }

        // Prefix: no mid-run counter exceeds its final value.
        for (k, v) in &cs {
            let fin = final_cs.get(k).copied().unwrap_or(0);
            assert!(*v <= fin, "counter {k} = {v} at scrape {i} exceeds final {fin}");
        }

        // The deferred SC/R split settles only at finish.
        assert!(
            !cs.contains_key("class.shared_cache") && !cs.contains_key("class.resolution"),
            "finish-only keys leaked into mid-run scrape {i}"
        );
        prev = Some(cs);
    }
    assert_frame_identity(&final_cs, "at finish");
    assert!(final_cs.contains_key("class.shared_cache"));
}

/// A hub outlives an engine (the bench ladder reuses one across
/// repetitions, `serve` re-adds tenants): a second run publishing into
/// the hub the first one settled must start from nothing — none of the
/// first run's finish-only keys, no counter above the second run's own
/// final value — although later epochs overwrite the snapshot in place.
#[test]
fn a_second_run_on_the_same_hub_publishes_its_own_prefixes() {
    let hub = ObsHub::default();
    let run = |cfg: WorkloadConfig, seed: u64| {
        let mut pcap = Vec::new();
        Simulation::new(cfg, seed).unwrap().run_pcap(&mut pcap, 600).unwrap();
        let mut scrapes: Vec<Metrics> = Vec::new();
        let result = stream::process_source_observed(
            &mut pcapio::source::file(&pcap[..]).unwrap(),
            Duration::from_secs(30),
            MonitorConfig::default(),
            analysis_cfg(),
            Some(&hub),
            |_| scrapes.push(hub.metrics()),
        )
        .unwrap();
        assert_eq!(hub.metrics().to_json(), result.settled_metrics().to_json());
        (scrapes, counters(&result.settled_metrics()))
    };

    // The larger run first, so anything it leaves behind would stand out.
    let (_, first_final) = run(small_cfg(), 42);
    let smaller = WorkloadConfig {
        scale: ScaleKnobs { houses: 2, days: 0.02, activity: 1.0 },
        ..small_cfg()
    };
    let (scrapes, final_cs) = run(smaller, 7);
    assert!(scrapes.len() > 2, "second workload too small to produce mid-run scrapes");
    assert!(first_final["zeek.frames_seen"] > final_cs["zeek.frames_seen"]);
    for (i, m) in scrapes.iter().enumerate() {
        let cs = counters(m);
        assert_frame_identity(&cs, &format!("at scrape {i} of the second run"));
        for (k, v) in &cs {
            let fin = final_cs.get(k).copied().unwrap_or(0);
            assert!(*v <= fin, "second run: {k} = {v} at scrape {i} exceeds its final {fin}");
        }
        let leaked = m.iter().map(|(k, _)| k).find(|k| {
            *k == "class.shared_cache" || *k == "class.resolution" || k.starts_with("threshold.")
        });
        assert_eq!(leaked, None, "finish-only key of the first run in scrape {i} of the second");
    }
}

#[test]
fn endpoints_answer_during_a_live_run() {
    let pcap = capture();
    let hub = ObsHub::default();
    let server = http::serve("127.0.0.1:0", "dnsctx", hub.clone()).unwrap();
    let addr = server.addr().to_string();

    // Scrape over HTTP from inside the sink: the run is mid-flight, the
    // monitor mid-state, and the endpoints must still answer with an
    // internally consistent document.
    let mut midrun_snapshot = None;
    let mut source = pcapio::source::file(&pcap[..]).unwrap();
    let result = stream::process_source_observed(
        &mut source,
        Duration::from_secs(30),
        MonitorConfig::default(),
        analysis_cfg(),
        Some(&hub),
        |_| {
            if midrun_snapshot.is_none() {
                let (status, body) = http::get(&addr, "/healthz").expect("live /healthz");
                assert_eq!((status, body.as_str()), (200, "ok\n"));
                let (status, body) = http::get(&addr, "/snapshot").expect("live /snapshot");
                assert_eq!(status, 200);
                midrun_snapshot = Some(body);
            }
        },
    )
    .unwrap();
    let midrun = midrun_snapshot.expect("at least one epoch boundary");

    // Settle the hub the way the CLI does after the run.
    let mut merged = result.analysis_metrics.clone();
    merged.merge(&result.stream_metrics);
    hub.publish_metrics(merged.clone());

    // The mid-run scrape folds back into Metrics and is a prefix of the
    // final snapshot.
    let parsed =
        Metrics::from_json_value(&json::parse(&midrun).unwrap()).expect("snapshot folds back");
    for (k, v) in counters(&parsed) {
        assert!(v <= merged.counter(&k), "mid-run {k} = {v} exceeds final");
    }

    // Settled: /metrics is exactly the Prometheus rendering of /snapshot.
    let (s1, snap) = http::get(&addr, "/snapshot").unwrap();
    let (s2, prom) = http::get(&addr, "/metrics").unwrap();
    assert_eq!((s1, s2), (200, 200));
    let settled = Metrics::from_json_value(&json::parse(&snap).unwrap()).unwrap();
    assert_eq!(prom, settled.to_prometheus("dnsctx"));
    assert_eq!(snap, merged.to_json());

    // /events carries the flight ring (epoch releases at minimum) and
    // /spans is a valid (here empty) Chrome trace array.
    let (status, events) = http::get(&addr, "/events").unwrap();
    assert_eq!(status, 200);
    let ev = json::parse(&events).unwrap();
    assert!(
        ev.get("events")
            .and_then(|e| e.as_arr())
            .is_some_and(|e| e.iter().any(|r| {
                r.get("kind").and_then(|k| k.as_str()) == Some("epoch.release")
            })),
        "flight ring must have recorded epoch releases"
    );
    let (status, spans) = http::get(&addr, "/spans").unwrap();
    assert_eq!(status, 200);
    assert!(json::parse(&spans).unwrap().as_arr().is_some());

    drop(server);
}
