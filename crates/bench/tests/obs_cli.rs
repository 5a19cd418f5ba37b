//! CLI-level checks for `repro obs`: stdout carries exactly one valid
//! JSON document, the `metrics` section is byte-identical across thread
//! counts, and every pipeline stage appears as a named span with a wall
//! time and at least one counter note.

use std::process::Command;
use xkit::obs::json;

fn run_obs(threads: usize) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["obs", "--houses", "30", "--days", "0.02", "--scale", "0.3"])
        .args(["--threads", &threads.to_string()])
        .output()
        .expect("spawn repro");
    assert!(output.status.success(), "repro obs failed: {output:?}");
    String::from_utf8(output.stdout).expect("utf8 stdout")
}

#[test]
fn obs_json_parses_back_and_is_thread_invariant() {
    // stdout is one valid JSON document.
    let v1 = json::parse(&run_obs(1)).expect("valid JSON on stdout (t1)");
    let v8 = json::parse(&run_obs(8)).expect("valid JSON on stdout (t8)");

    // The metrics section is byte-identical for any thread count
    // (canonical render; wall times live only under "spans").
    let m1 = v1.get("metrics").expect("metrics section").render();
    let m8 = v8.get("metrics").expect("metrics section").render();
    assert_eq!(m1, m8, "metrics snapshot must be thread-invariant");

    // Every pipeline stage shows up as a span with a time and a counter.
    let spans = v1.get("spans").and_then(|s| s.as_arr()).expect("spans array");
    let names: Vec<&str> = spans
        .iter()
        .filter_map(|s| s.get("name").and_then(|n| n.as_str()))
        .collect();
    let stages = ["stage.capture", "stage.zeek", "stage.analysis", "stage.perf", "stage.report"];
    assert_eq!(names, stages, "obs is five stages over `Analysis`");
    for s in spans {
        let wall = s.get("wall_ns").and_then(|w| w.as_f64()).expect("wall_ns");
        assert!(wall >= 0.0);
        let notes = s.get("notes").and_then(|n| n.as_obj()).expect("notes object");
        assert!(!notes.is_empty(), "every stage span carries >=1 counter note");
    }

    // Key counters made it through the pipe.
    let metrics = v1.get("metrics").expect("metrics");
    for key in ["capture.frames_read", "zeek.frames_accepted", "pair.app_conns"] {
        let n = metrics.get(key).and_then(|v| v.as_f64()).unwrap_or(0.0);
        assert!(n > 0.0, "expected non-zero {key}");
    }
}
