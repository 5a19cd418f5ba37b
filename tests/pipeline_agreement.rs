//! Cross-backend agreement: the packet path (simulator → pcap → monitor)
//! must reproduce what the direct log backend emits, and the Zeek-style
//! TSV logs must round-trip losslessly.

use dnsctx::ccz_sim::{ScaleKnobs, Simulation, WorkloadConfig};
use dnsctx::dns_context::{Analysis, AnalysisConfig};
use dnsctx::zeek_lite::{logfmt, Monitor, MonitorConfig};

fn small_cfg() -> WorkloadConfig {
    WorkloadConfig {
        scale: ScaleKnobs { houses: 4, days: 0.03, activity: 1.0 },
        services: 200,
        shared_services: 30,
    }
}

#[test]
fn pcap_and_direct_backends_agree() {
    let sim = Simulation::new(small_cfg(), 11).unwrap();
    let direct = sim.run();

    let mut pcap = Vec::new();
    let (truth, frames) = sim.run_pcap(&mut pcap, 600).unwrap();
    assert!(frames > 200, "capture too small: {frames} frames");
    assert_eq!(truth.conns.len(), direct.truth.conns.len());

    let logs = Monitor::process_pcap(&pcap[..], MonitorConfig::default()).unwrap();

    // Identical connection and transaction counts.
    assert_eq!(logs.app_conns().count(), direct.logs.conns.len());
    assert_eq!(logs.dns.len(), direct.logs.dns.len());

    // Byte-exact volume agreement (TCP via sequence space, UDP via
    // declared datagram lengths).
    let monitor_bytes: u64 = logs.app_conns().map(|c| c.total_bytes()).sum();
    let direct_bytes: u64 = direct.logs.conns.iter().map(|c| c.total_bytes()).sum();
    assert_eq!(monitor_bytes, direct_bytes);

    // DNS transactions agree pairwise (both sorted by query time), each
    // query read through its own logs' table.
    for (m, d) in logs.dns.iter().zip(&direct.logs.dns) {
        assert_eq!(m.ts, d.ts);
        assert_eq!(logs.names.name(m.query), direct.logs.names.name(d.query));
        assert_eq!(m.rtt, d.rtt);
        assert_eq!(m.client, d.client);
        assert_eq!(m.resolver, d.resolver);
        assert_eq!(m.addrs().collect::<Vec<_>>(), d.addrs().collect::<Vec<_>>());
        assert_eq!(m.min_ttl(), d.min_ttl());
    }

    // No encrypted DNS anywhere (paper's §5.1 check).
    assert_eq!(logs.stats.dot_port_packets, 0);
    assert!(logs.degradation.is_clean());
}

#[test]
fn classification_identical_across_backends() {
    let sim = Simulation::new(small_cfg(), 23).unwrap();
    let direct = sim.run();
    let mut pcap = Vec::new();
    sim.run_pcap(&mut pcap, 600).unwrap();
    let monitor_logs = Monitor::process_pcap(&pcap[..], MonitorConfig::default()).unwrap();

    let mut cfg = AnalysisConfig::default();
    cfg.threshold_rule.min_lookups = 50;
    let a1 = Analysis::run(&direct.logs, cfg.clone());
    let a2 = Analysis::run(&monitor_logs, cfg);
    let c1 = a1.class_counts();
    let c2 = a2.class_counts();
    assert_eq!(c1.total(), c2.total());
    // Timing recovered from packets is identical to the direct emission,
    // so the classification must agree exactly.
    assert_eq!(c1, c2);
}

#[test]
fn tsv_logs_round_trip_simulated_data() {
    let sim = Simulation::new(small_cfg(), 31).unwrap();
    let out = sim.run();

    let mut conn_buf = Vec::new();
    logfmt::write_conn_log(&mut conn_buf, &out.logs.conns).unwrap();
    let conns_back = logfmt::read_conn_log(&conn_buf[..]).unwrap();
    assert_eq!(conns_back, out.logs.conns);

    // Read into a copy of the table, every name is already there, so the
    // rows come back id for id; into a fresh one, they render the same.
    let mut dns_buf = Vec::new();
    logfmt::write_dns_log(&mut dns_buf, &out.logs.names, &out.logs.dns).unwrap();
    let mut names = out.logs.names.clone();
    let dns_back = logfmt::read_dns_log(&dns_buf[..], &mut names).unwrap();
    assert_eq!(dns_back, out.logs.dns);
    assert_eq!(names.len(), out.logs.names.len());
    let mut names = dnsctx::zeek_lite::NameTable::default();
    let dns_back = logfmt::read_dns_log(&dns_buf[..], &mut names).unwrap();
    let mut again = Vec::new();
    logfmt::write_dns_log(&mut again, &names, &dns_back).unwrap();
    assert_eq!(again, dns_buf);

    // Analyses over original and round-tripped logs are identical.
    let logs2 = dnsctx::zeek_lite::Logs {
        conns: conns_back,
        dns: dns_back,
        names,
        ..Default::default()
    };
    let a1 = Analysis::run(&out.logs, AnalysisConfig::default());
    let a2 = Analysis::run(&logs2, AnalysisConfig::default());
    assert_eq!(a1.class_counts(), a2.class_counts());
}

#[test]
fn snaplen_variations_do_not_change_results() {
    // DNS payloads fit in modest snaplens; byte counts come from headers
    // and sequence numbers, so a larger snaplen must change nothing.
    let sim = Simulation::new(small_cfg(), 47).unwrap();
    let mut small = Vec::new();
    sim.run_pcap(&mut small, 600).unwrap();
    let mut large = Vec::new();
    sim.run_pcap(&mut large, 65_535).unwrap();
    let l1 = Monitor::process_pcap(&small[..], MonitorConfig::default()).unwrap();
    let l2 = Monitor::process_pcap(&large[..], MonitorConfig::default()).unwrap();
    assert_eq!(l1.dns.len(), l2.dns.len());
    assert_eq!(l1.app_conns().count(), l2.app_conns().count());
    let b1: u64 = l1.app_conns().map(|c| c.total_bytes()).sum();
    let b2: u64 = l2.app_conns().map(|c| c.total_bytes()).sum();
    assert_eq!(b1, b2);
}

#[test]
fn oversize_udp_flow_is_split_by_size_without_a_cap() {
    // This world holds a UDP flow above 245 MB — more than 4096 datagrams
    // of 60 000 bytes — which a capped split packed into datagrams
    // declaring more than a UDP length field can hold.
    let cfg = WorkloadConfig {
        scale: ScaleKnobs { houses: 12, days: 0.1, activity: 1.0 },
        ..WorkloadConfig::default()
    };
    let sim = Simulation::new(cfg, 42_303).unwrap();
    let direct = sim.run();
    assert!(
        direct.logs.conns.iter().any(|c| c.orig_bytes.max(c.resp_bytes) > 4096 * 60_000),
        "the world lost its oversize flow"
    );

    let mut pcap = Vec::new();
    sim.run_pcap(&mut pcap, 600).unwrap();
    let logs = Monitor::process_pcap(&pcap[..], MonitorConfig::default()).unwrap();

    let flows = |conns: &mut dyn Iterator<Item = &dnsctx::zeek_lite::ConnRecord>| {
        let mut rows: Vec<_> = conns
            .map(|c| (c.ts, format!("{:?}", c.id), c.orig_bytes, c.resp_bytes))
            .collect();
        rows.sort();
        rows
    };
    assert_eq!(flows(&mut logs.app_conns()), flows(&mut direct.logs.conns.iter()));
}
