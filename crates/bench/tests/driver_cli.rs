//! `repro stream`, `repro ingest` and `repro serve` are presets over one
//! driver (`bench::pipeline::run`), so at the same seed, scale and
//! window their `metrics` sections are the same document: `stream` ≡
//! `ingest --source file`, and a one-tenant `serve` aggregate ≡
//! `ingest --source ring`.

use std::process::Command;
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

/// The rendered `metrics` section of the document `repro <args>` prints.
fn metrics_of(args: &[&str]) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .args(WORKLOAD)
        .output()
        .expect("spawn repro");
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
