//! Integration coverage for the beyond-the-paper extensions: time series,
//! per-house reports, serve-stale, knee estimation, capture merging.

use dnsctx::cache_sim;
use dnsctx::dns_context::ConnClass;
use dnsctx::pipeline;
use dnsctx::zeek_lite::{Duration, Logs, Monitor, MonitorConfig, Timestamp};

fn study() -> dnsctx::pipeline::Study {
    pipeline::quick_study(10, 0.2, 42)
}

#[test]
fn timeseries_buckets_cover_every_connection() {
    let study = study();
    let a = study.analysis();
    let buckets = a.timeseries(Duration::from_secs(3_600));
    let total: usize = buckets.iter().map(|b| b.total()).sum();
    assert_eq!(total, a.pairing.app_conn_count());
    // Evenly spaced starts.
    for w in buckets.windows(2) {
        assert_eq!(w[1].start.since(w[0].start), Duration::from_secs(3_600));
    }
    // A day of traffic spans about 24 buckets.
    assert!((20..=28).contains(&buckets.len()), "{} buckets", buckets.len());
}

#[test]
fn diurnal_profile_shows_evening_peak() {
    // Full activity so the time-of-day modulation expresses against the
    // inter-session gaps (at low activity the gaps dwarf the day cycle).
    let study = pipeline::quick_study(6, 1.0, 42);
    let a = study.analysis();
    let profile = a.diurnal_profile();
    let total: usize = profile.iter().map(|(_, c)| c.total()).sum();
    assert_eq!(total, a.pairing.app_conn_count());
    // The workload peaks in the evening hours and troughs in the morning.
    let evening: usize = (18..24).map(|h| profile[h].1.total()).sum();
    let morning: usize = (4..10).map(|h| profile[h].1.total()).sum();
    assert!(
        evening as f64 > morning as f64 * 1.2,
        "evening {evening} should exceed morning {morning}"
    );
}

#[test]
fn house_reports_partition_the_traffic() {
    let study = study();
    let a = study.analysis();
    let reports = a.house_reports();
    assert_eq!(reports.len(), study.logs().houses().len());
    let conns: usize = reports.iter().map(|h| h.classes.total()).sum();
    assert_eq!(conns, a.pairing.app_conn_count());
    let lookups: usize = reports.iter().map(|h| h.lookups).sum();
    assert_eq!(lookups, study.logs().dns.len());
    // Sorted by size.
    for w in reports.windows(2) {
        assert!(w[0].classes.total() >= w[1].classes.total());
    }
}

#[test]
fn serve_stale_answers_the_open_question() {
    let study = study();
    let a = study.analysis();
    let r = cache_sim::refresh(study.logs(), &a, Duration::from_secs(10));
    let ss = cache_sim::serve_stale(study.logs(), &a, Duration::from_secs(86_400));
    // The headline: refresh-all's hit rate at (at most) standard cost.
    assert!(ss.hit_pct + 1e-9 >= r.refresh_all.hit_pct);
    assert!(ss.lookups <= r.standard.lookups);
}

#[test]
fn knee_estimate_is_sane_on_simulated_traffic() {
    let study = study();
    let a = study.analysis();
    let knee = a.gap_analysis().estimate_knee(0.10).expect("bimodal traffic has a knee");
    let ms = knee.as_millis_f64();
    // Between the blocked mode and the cache-reuse mass.
    assert!((5.0..=2_000.0).contains(&ms), "knee at {ms} ms");
}

#[test]
fn captures_merge_and_reanalyse() {
    // Split one simulated capture into two halves by time, merge them
    // back into one capture, and confirm the monitor sees the same world.
    let cfg = dnsctx::ccz_sim::WorkloadConfig {
        scale: dnsctx::ccz_sim::ScaleKnobs { houses: 3, days: 0.02, activity: 1.0 },
        services: 120,
        shared_services: 20,
        ..dnsctx::ccz_sim::WorkloadConfig::default()
    };
    let sim = dnsctx::ccz_sim::Simulation::new(cfg, 8).unwrap();
    let mut full = Vec::new();
    sim.run_pcap(&mut full, 600).unwrap();
    let full_logs = Monitor::process_pcap(&full[..], MonitorConfig::default()).unwrap();

    // Re-split the capture at its median record time.
    use dnsctx::pcapio::RecordSource;
    let mut source = dnsctx::pcapio::source::file(&full[..]).unwrap();
    let mut records = Vec::new();
    while let Some(rec) = source.next().unwrap() {
        records.push(rec.to_owned());
    }
    let cut = records[records.len() / 2].ts_nanos;
    let (first, second): (Vec<_>, Vec<_>) = records.iter().partition(|r| r.ts_nanos < cut);
    // The halves do not overlap in time, so the merge is the first half,
    // then the second.
    let mut merged = Vec::new();
    let mut w = dnsctx::pcapio::PcapWriter::new(&mut merged, 600, dnsctx::pcapio::TsPrecision::Nano).unwrap();
    for r in first.iter().chain(&second) {
        w.write_packet(r.ts_nanos, &r.data, Some(r.orig_len)).unwrap();
    }
    assert_eq!(w.packets_written() as usize, records.len());
    drop(w);
    assert!(merged == full, "the merged capture is the original, byte for byte");
    let merged_logs = Monitor::process_pcap(&merged[..], MonitorConfig::default()).unwrap();
    assert_eq!(merged_logs.dns.len(), full_logs.dns.len());
    assert_eq!(merged_logs.app_conns().count(), full_logs.app_conns().count());
}

#[test]
fn nxdomain_traffic_round_trips_through_packets() {
    let mut cfg = dnsctx::ccz_sim::scenarios::paper_week(1.0);
    cfg.scale = dnsctx::ccz_sim::ScaleKnobs { houses: 4, days: 0.03, activity: 1.0 };
    cfg.p_nxdomain = 0.2; // make sure some occur in the short window
    let sim = dnsctx::ccz_sim::Simulation::new(cfg, 6).unwrap();
    let direct = sim.run();
    let nx_direct = direct
        .logs
        .dns
        .iter()
        .filter(|t| t.rcode == Some(dnsctx::dns_wire::Rcode::NxDomain))
        .count();
    assert!(nx_direct > 0);
    let mut pcap = Vec::new();
    sim.run_pcap(&mut pcap, 600).unwrap();
    let logs = Monitor::process_pcap(&pcap[..], MonitorConfig::default()).unwrap();
    let nx_pcap: Vec<_> = logs
        .dns
        .iter()
        .filter(|t| t.rcode == Some(dnsctx::dns_wire::Rcode::NxDomain))
        .collect();
    assert_eq!(nx_pcap.len(), nx_direct, "every negative response survives the wire");
    for t in nx_pcap {
        assert!(!t.has_addrs(), "negative answers carry no addresses");
        assert!(t.rtt.is_some());
    }
    // Dead names never pair with connections.
    let a = dnsctx::dns_context::Analysis::run(&logs, Default::default());
    for pair in &a.pairing.pairs {
        if let Some(di) = pair.dns {
            assert_ne!(logs.dns[di].rcode, Some(dnsctx::dns_wire::Rcode::NxDomain));
        }
    }
}

#[test]
fn window_analysis_is_consistent_with_full() {
    // Analysing a window of the logs classifies at most the window's
    // connections, and unpaired-in-window can only grow (lookups before
    // the window are invisible).
    let study = study();
    let full = study.analysis();
    let logs = study.logs();
    let start = logs.conns[0].ts.min(logs.dns[0].ts);
    let end = logs.conns.last().unwrap().ts.max(logs.dns.last().unwrap().ts);
    let mid = Timestamp(start.nanos() + (end.nanos() - start.nanos()) / 2);
    let late = Logs {
        conns: logs.conns.iter().filter(|c| c.ts >= mid).cloned().collect(),
        dns: logs.dns.iter().filter(|d| d.ts >= mid).cloned().collect(),
        ..logs.clone()
    };
    let a2 = dnsctx::dns_context::Analysis::run(&late, study.analysis_cfg.clone());
    assert!(a2.pairing.app_conn_count() < full.pairing.app_conn_count());
    let full_n_share = full.class_counts().share_pct(ConnClass::NoDns);
    let late_n_share = a2.class_counts().share_pct(ConnClass::NoDns);
    assert!(
        late_n_share + 1e-9 >= full_n_share,
        "truncating history can only lose pairings: {late_n_share} vs {full_n_share}"
    );
}
