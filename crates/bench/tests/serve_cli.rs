//! CLI-level checks for the live observability plane: `--serve` must not
//! perturb the stdout document (byte-identical for `ingest`, identical
//! meta + metrics sections for `stream`, whose span wall times are
//! non-deterministic by nature), `--serve-check` must pass against our
//! own endpoints, and `obs-check --url` must validate a live server.

use std::process::Command;
use xkit::obs::json;

const WORKLOAD: &[&str] =
    &["--houses", "6", "--days", "0.05", "--scale", "0.5", "--window-secs", "30"];

fn run(args: &[&str]) -> (String, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro");
    assert!(output.status.success(), "repro {args:?} failed: {output:?}");
    (
        String::from_utf8(output.stdout).expect("utf8 stdout"),
        String::from_utf8(output.stderr).expect("utf8 stderr"),
    )
}

#[test]
fn stream_stdout_is_unperturbed_by_serving() {
    let (plain, _) = run(&[&["stream"], WORKLOAD].concat());
    let (served, err) = run(&[
        &["stream"],
        WORKLOAD,
        &["--serve", "127.0.0.1:0", "--serve-check"],
    ]
    .concat());
    assert!(err.contains("serve-check OK"), "serve-check must pass: {err}");

    let vp = json::parse(&plain).expect("plain stream JSON");
    let vs = json::parse(&served).expect("served stream JSON");
    assert_eq!(
        vp.get("meta").expect("meta").render(),
        vs.get("meta").expect("meta").render(),
        "--serve must not change the meta section"
    );
    assert_eq!(
        vp.get("metrics").expect("metrics").render(),
        vs.get("metrics").expect("metrics").render(),
        "--serve must not change the metrics section"
    );
}

#[test]
fn ingest_stdout_is_byte_identical_with_serving() {
    let (plain, _) = run(&[&["ingest", "--source", "file"], WORKLOAD].concat());
    let (served, err) = run(&[
        &["ingest", "--source", "file"],
        WORKLOAD,
        &["--serve", "127.0.0.1:0", "--serve-check"],
    ]
    .concat());
    assert!(err.contains("serve-check OK"), "serve-check must pass: {err}");
    assert_eq!(plain, served, "--serve must leave the ingest document byte-identical");
}

#[test]
fn serve_daemon_cli_is_deterministic_across_pool_widths() {
    // The daemon experiment: 8 tenants, serve-check over the tenant
    // routes, and a post-drain aggregate that is byte-identical for
    // any worker count (only meta.threads may differ).
    let base: &[&str] = &["serve", "--tenants", "8", "--houses", "4", "--days", "0.05"];
    let (narrow, _) = run(&[base, WORKLOAD, &["--threads", "1"]].concat());
    let (wide, err) = run(&[
        base,
        WORKLOAD,
        &["--threads", "4", "--serve", "127.0.0.1:0", "--serve-check"],
    ]
    .concat());
    assert!(err.contains("serve-check OK"), "serve-check must pass: {err}");
    assert!(err.contains("drained 8 tenants"), "stderr summary: {err}");

    let vn = json::parse(&narrow).expect("narrow serve JSON");
    let vw = json::parse(&wide).expect("wide serve JSON");
    assert_eq!(
        vn.get("metrics").expect("metrics").render(),
        vw.get("metrics").expect("metrics").render(),
        "the aggregate fold must not depend on the pool width"
    );
    assert_eq!(
        vn.get("tenants").expect("tenants").render(),
        vw.get("tenants").expect("tenants").render(),
        "the drained roster must not depend on the pool width"
    );
    let roster = vn.get("tenants").and_then(|t| t.as_arr()).expect("roster").to_vec();
    assert_eq!(roster.len(), 8);
    for entry in &roster {
        assert_eq!(entry.get("state").and_then(|s| s.as_str()), Some("drained"));
    }
}

#[test]
fn obs_check_url_validates_a_live_server() {
    // Serve a real snapshot from this process, then point the CLI's
    // live-endpoint checker at it.
    let hub = xkit::obs::ObsHub::default();
    let mut m = xkit::obs::Metrics::new();
    m.add("zeek.frames_seen", 12);
    m.gauge_max("stream.peak_live_flows", 3.0);
    m.observe("zeek.dns_rtt_ms", 4.0);
    hub.publish_metrics(m);
    hub.flight().record("epoch.release", "epoch 0: 1 conn + 1 dns rows", 2.0);
    let server = xkit::obs::http::serve("127.0.0.1:0", "dnsctx", hub).unwrap();

    let addr = server.addr().to_string();
    let (stdout, _) = run(&["obs-check", "--url", &addr]);
    assert!(stdout.contains("obs-check OK"), "unexpected output: {stdout}");

    // A dead server must fail the check with a non-zero exit.
    drop(server);
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["obs-check", "--url", &addr])
        .output()
        .expect("spawn repro");
    assert!(!output.status.success(), "obs-check must fail against a dead server");
}
