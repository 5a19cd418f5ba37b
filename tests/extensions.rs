//! Integration coverage for the beyond-the-paper extensions: the diurnal
//! profile, per-house reports, serve-stale, knee estimation, capture
//! merging, negative answers spliced into a capture.

use dnsctx::cache_sim;
use dnsctx::dns_context::ConnClass;
use dnsctx::pipeline;
use dnsctx::zeek_lite::{Duration, Logs, Monitor, MonitorConfig, Timestamp};

fn study() -> dnsctx::pipeline::Study {
    pipeline::quick_study(10, 0.2, 42)
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
    let mut w = dnsctx::pcapio::PcapWriter::new(&mut merged, 600).unwrap();
    for r in first.iter().chain(&second) {
        w.write_packet(r.ts_nanos, &r.data, r.orig_len).unwrap();
    }
    assert_eq!(w.packets_written() as usize, records.len());
    drop(w);
    assert!(merged == full, "the merged capture is the original, byte for byte");
    let merged_logs = Monitor::process_pcap(&merged[..], MonitorConfig::default()).unwrap();
    assert_eq!(merged_logs.dns.len(), full_logs.dns.len());
    assert_eq!(merged_logs.app_conns().count(), full_logs.app_conns().count());
}

/// The simulator answers every name it asks, so negative answers come
/// from outside it: typo lookups (a query, then an RFC 2308 NXDOMAIN
/// carrying the zone's SOA) spliced into a simulated capture each come
/// out as one answerless row, and none pairs with a connection.
#[test]
fn nxdomain_traffic_round_trips_through_packets() {
    use dnsctx::dns_wire::{Compressor, Flags, MessageWriter, NameBuf, Rcode, RrType};
    use dnsctx::netpkt::{frame, MacAddr};
    use dnsctx::pcapio::{PcapRecord, RecordSource};

    let mut cfg = dnsctx::ccz_sim::scenarios::paper_week(1.0);
    cfg.scale = dnsctx::ccz_sim::ScaleKnobs { houses: 4, days: 0.03, activity: 1.0 };
    let mut pcap = Vec::new();
    dnsctx::ccz_sim::Simulation::new(cfg, 6).unwrap().run_pcap(&mut pcap, 600).unwrap();
    let base = Monitor::process_pcap(&pcap[..], MonitorConfig::default()).unwrap();
    let (house, resolver) = (base.dns[0].client, base.dns[0].resolver);

    let mut records = Vec::new();
    let mut source = dnsctx::pcapio::source::file(&pcap[..]).unwrap();
    while let Some(rec) = source.next().unwrap() {
        records.push(rec.to_owned());
    }
    // Typo lookups spread over the trace from ports the simulator never
    // uses, each answered 15 ms later; a stable sort by time splices them
    // in and keeps the simulated frames in their order.
    const TYPOS: u64 = 20;
    let [zone, mname, rname] = ["typo.example", "ns1.typo.example", "hostmaster.typo.example"]
        .map(|n| n.parse::<NameBuf>().unwrap());
    let (first, last) = (records[0].ts_nanos, records[records.len() - 1].ts_nanos);
    for k in 0..TYPOS {
        let name: NameBuf = format!("wwww{k}.typo.example").parse().unwrap();
        let (port, id) = (60_000 + k as u16, 0x7000 + k as u16);
        let message = |response: bool| {
            let mut out = Vec::new();
            let write = |out: &mut Vec<u8>| {
                let mut comp = Compressor::default();
                let flags = if response { Flags::response(Rcode::NxDomain) } else { Flags::query() };
                let mut w = MessageWriter::new(out, &mut comp, id, flags);
                w.question(&name, RrType::A);
                if response {
                    w.soa(&zone, 300, &mname, &rname, [2019_02_06, 7_200, 3_600, 1_209_600, 300]);
                }
                w.finish();
            };
            match response {
                false => frame::udp(&mut out, MacAddr::LOCAL, MacAddr::UPSTREAM, house, resolver, port, 53, write),
                true => frame::udp(&mut out, MacAddr::UPSTREAM, MacAddr::LOCAL, resolver, house, 53, port, write),
            }
            out
        };
        let at = first + (last - first) / TYPOS * k;
        for (ts_nanos, data) in [(at, message(false)), (at + 15_000_000, message(true))] {
            records.push(PcapRecord { ts_nanos, orig_len: data.len() as u32, data });
        }
    }
    records.sort_by_key(|r| r.ts_nanos);
    let mut spliced = Vec::new();
    let mut w = dnsctx::pcapio::PcapWriter::new(&mut spliced, 600).unwrap();
    for r in &records {
        w.write_packet(r.ts_nanos, &r.data, r.orig_len).unwrap();
    }
    drop(w);

    let logs = Monitor::process_pcap(&spliced[..], MonitorConfig::default()).unwrap();
    let nx: Vec<_> = logs.dns.iter().filter(|t| t.rcode == Some(Rcode::NxDomain)).collect();
    assert_eq!(nx.len(), TYPOS as usize, "every negative response survives the wire");
    for t in nx {
        assert!(logs.names.name(t.query).ends_with(".typo.example"));
        assert!(t.answers.is_empty(), "negative answers carry no records");
        assert_eq!(t.rtt, Some(Duration::from_millis(15)));
    }
    assert_eq!(logs.dns.len(), base.dns.len() + TYPOS as usize);
    // Dead names never pair with connections.
    let a = dnsctx::dns_context::Analysis::run(&logs, Default::default());
    for pair in &a.pairing.pairs {
        if let Some(di) = pair.dns {
            assert_ne!(logs.dns[di].rcode, Some(Rcode::NxDomain));
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
