//! `repro stream`, `repro ingest` and `repro serve` are presets over one
//! driver (`bench::pipeline::run`), so at the same seed, scale and
//! window their `metrics` sections are the same document: `stream` ≡
//! `ingest --source file`, and a one-tenant `serve` aggregate ≡
//! `ingest --source ring`.
//!
//! Also pinned here, because nothing else drives them at the CLI: the
//! `--seeds K` sweep is independent of `--threads`; an unknown
//! experiment or flag, or a bad flag value, is a usage error before any
//! work; a failed self-check, or a `--serve` address that cannot be
//! bound, is one line and exit 1, not a panic; the monitor's counters are
//! exported once; and `repro obs` publishes exactly the library's fold.

use std::process::{Command, Output};
use xkit::obs::json;

const WORKLOAD: &[&str] = &[
    "--houses",
    "6",
    "--days",
    "0.05",
    "--scale",
    "0.5",
    "--seed",
    "7",
    "--window-secs",
    "30",
];

/// Run `repro <args>` to completion.
fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro")
}

/// The rendered `metrics` section of the document `repro <args>` prints
/// on [`WORKLOAD`].
fn metrics_of(args: &[&str]) -> String {
    let output = repro(&[args, WORKLOAD].concat());
    assert!(output.status.success(), "repro {args:?} failed: {output:?}");
    let doc = String::from_utf8(output.stdout).expect("utf8 stdout");
    let v = json::parse(&doc).expect("one JSON document on stdout");
    let metrics = v.get("metrics").expect("metrics section").render();
    assert!(
        metrics.contains("\"class.local_cache\""),
        "not a settled snapshot: {metrics}"
    );
    metrics
}

#[test]
fn stream_metrics_equal_ingest_file_metrics() {
    assert_eq!(
        metrics_of(&["stream"]),
        metrics_of(&["ingest", "--source", "file"])
    );
}

#[test]
fn one_tenant_serve_aggregate_equals_ingest_ring_metrics() {
    assert_eq!(
        metrics_of(&["serve", "--tenants", "1"]),
        metrics_of(&["ingest", "--source", "ring"])
    );
}

#[test]
fn seed_sweep_is_thread_invariant() {
    let sweep = |threads: &str| {
        let output = repro(&[
            "table2", "--houses", "6", "--days", "0.05", "--scale", "1.0", "--seeds", "3",
            "--threads", threads,
        ]);
        assert!(output.status.success(), "sweep at --threads {threads} failed: {output:?}");
        assert!(!output.stdout.is_empty(), "sweep printed no table");
        output.stdout
    };
    assert_eq!(sweep("1"), sweep("4"));
}

#[test]
fn unknown_experiment_or_flag_is_a_usage_error_before_any_work() {
    for args in [
        &["bench"][..],
        &["nosuch"],
        &["table2", "--seedz", "1"],
        &["table2", "--houses"],
        &["table2", "--houses", "abc"],
        &["table2", "--houses", "0"],
        &["stream", "--window-secs", "-5"],
        &["serve", "--tenants", "0"],
        &["ingest", "--source", "bogus"],
        &["ingest", "--source", "iface"],
        &["ingest", "--iface", "lo"],
        &["obs", "--obs-out", "x"],
    ] {
        let output = repro(args);
        assert_eq!(output.status.code(), Some(2), "repro {args:?}: {output:?}");
        assert!(output.stdout.is_empty(), "repro {args:?} wrote to stdout: {output:?}");
        let stderr = String::from_utf8(output.stderr).expect("utf8 stderr");
        assert!(stderr.contains("usage: repro"), "repro {args:?} printed no usage: {stderr}");
        assert!(!stderr.contains("# "), "repro {args:?} started work: {stderr}");
        assert!(!stderr.contains("panicked"), "repro {args:?} panicked: {stderr}");
    }
}

#[test]
fn a_failed_self_check_is_one_line_and_exit_one() {
    // Every flow of a 14-minute trace is still open at one 60 s boundary,
    // so the finite-window bound on live state does not hold.
    let output = repro(&["stream", "--houses", "2", "--days", "0.01"]);
    assert_eq!(output.status.code(), Some(1), "{output:?}");
    assert!(output.stdout.is_empty(), "the document comes after the check: {output:?}");
    let stderr = String::from_utf8(output.stderr).expect("utf8 stderr");
    assert_eq!(stderr.matches("repro stream: check failed: ").count(), 1, "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn an_address_that_cannot_be_served_is_one_line_and_exit_one() {
    // Neither address reaches a resolver: the first has no port, the
    // second is a literal no local interface holds.
    for args in [
        &["stream", "--houses", "3", "--days", "0.02", "--serve", "not-an-addr"][..],
        &["serve", "--tenants", "1", "--houses", "2", "--days", "0.01", "--serve", "192.0.2.1:1"],
    ] {
        let output = repro(args);
        assert_eq!(output.status.code(), Some(1), "repro {args:?}: {output:?}");
        assert!(output.stdout.is_empty(), "repro {args:?} wrote to stdout: {output:?}");
        let stderr = String::from_utf8(output.stderr).expect("utf8 stderr");
        let line = format!("repro {}: cannot serve on {}: ", args[0], args[args.len() - 1]);
        assert_eq!(stderr.matches(&line).count(), 1, "{stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
    }
}

/// Each monitor fact is exported under one key: the five counters that
/// repeated `zeek.frames_seen`, `zeek.reject.*`, `zeek.dns_accepted` and
/// `zeek.reject_dns.*` are gone from every document, and the identity
/// they shadowed still holds.
#[test]
fn monitor_counters_are_exported_once() {
    for args in [
        &["obs"][..],
        &["stream"],
        &["ingest", "--source", "ring"],
        &["serve", "--tenants", "2"],
    ] {
        let output = repro(&[args, WORKLOAD].concat());
        assert!(output.status.success(), "repro {args:?} failed: {output:?}");
        let doc = String::from_utf8(output.stdout).expect("utf8 stdout");
        let v = json::parse(&doc).expect("one JSON document on stdout");
        let m = xkit::obs::Metrics::from_json_value(v.get("metrics").expect("metrics section"))
            .expect("a metrics snapshot");
        for gone in ["packets", "non_ipv4", "parse_errors", "dns_messages", "dns_decode_errors"] {
            assert!(m.get(&format!("zeek.{gone}")).is_none(), "repro {args:?} exports zeek.{gone}");
        }
        assert!(m.counter("zeek.frames_seen") > 0, "repro {args:?} saw no frames");
        assert_eq!(
            m.counter("zeek.frames_seen"),
            m.counter("zeek.frames_accepted") + m.sum_counters("zeek.reject."),
            "repro {args:?}"
        );
    }
}

/// `repro table3` prints the two answers to the paper's open question
/// beside Table 3. On a trace shorter than its 24 h staleness bound,
/// serve-stale hits at least as often as refresh-all, for no more
/// lookups than the standard cache.
#[test]
fn table3_prints_the_selective_and_serve_stale_columns() {
    let output = repro(&["table3", "--houses", "6", "--days", "0.5", "--scale", "0.5", "--seed", "7"]);
    assert!(output.status.success(), "repro table3 failed: {output:?}");
    let doc = String::from_utf8(output.stdout).expect("utf8 stdout");
    assert!(doc.contains("Selective (K=2, 1 h)") && doc.contains("Serve-stale (24 h)"), "{doc}");
    // A row's cells: standard, refresh-all, selective, serve-stale.
    let cells = |label: &str| -> Vec<f64> {
        let line = doc.lines().find(|l| l.starts_with(label)).unwrap_or_else(|| panic!("no {label} row: {doc}"));
        line[label.len()..]
            .split_whitespace()
            .map(|c| c.trim_end_matches('%').replace(',', "").parse().expect("a numeric cell"))
            .collect()
    };
    let [standard_lookups, _, _, stale_lookups] = cells("DNS Lookups")[..] else { panic!("four columns: {doc}") };
    let [_, refresh_all_hits, _, stale_hits] = cells("Cache Hits")[..] else { panic!("four columns: {doc}") };
    assert!(stale_hits >= refresh_all_hits, "serve-stale {stale_hits}% < refresh-all {refresh_all_hits}%");
    assert!(stale_lookups <= standard_lookups, "serve-stale {stale_lookups} > standard {standard_lookups} lookups");
}

#[test]
fn obs_metrics_are_the_library_fold() {
    use dnsctx::ccz_sim::ScaleKnobs;
    use dnsctx::dns_context::{Analysis, AnalysisConfig};
    use dnsctx::zeek_lite::{Monitor, MonitorConfig};

    let output = repro(&["obs", "--houses", "30", "--days", "0.02", "--scale", "0.3"]);
    assert!(output.status.success(), "repro obs failed: {output:?}");
    let doc = String::from_utf8(output.stdout).expect("utf8 stdout");
    let cli = json::parse(&doc).expect("one JSON document on stdout");

    // sim.* ∪ capture.* ∪ Logs::metrics() ∪ Analysis::metrics(), in process.
    let scale = ScaleKnobs { houses: 30, days: 0.02, activity: 0.3 };
    let (pcap, _frames, mut fold) = bench::pipeline::capture_pcap(&scale, 42, 0);
    let mut source = dnsctx::pcapio::source::file(&pcap[..]).expect("pcap header");
    let logs = Monitor::process_source(&mut source, MonitorConfig::default()).expect("reads");
    fold.merge(&source.metrics());
    fold.merge(&logs.metrics());
    fold.merge(&Analysis::run(&logs, AnalysisConfig::default()).metrics());

    let lib = json::parse(&fold.to_json()).expect("canonical snapshot");
    assert_eq!(cli.get("metrics").expect("metrics section").render(), lib.render());
}
