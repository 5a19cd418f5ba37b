//! The bench ladder: four named workloads, five end-to-end metrics each
//! (operations failed over operations attempted is reported beside them),
//! and a traced run that attributes a repetition to the layers it passes
//! through. See `README.md` beside this package, and `BENCHMARK.json` at
//! the repository root for the contract the driver runs it by.
//!
//! ```text
//! benchmark [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1] [--selfcheck]
//! ```
//!
//! The last line of stdout is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1` (which also
//! writes `out/<workload>.trace.json`). With `--workload all` (the
//! default) `metrics` holds one such object per workload. A line of run
//! facts (`meta`) precedes it for each workload.

mod harness;
mod layers;
mod metrics;
mod serve_ring;
mod stats;
mod workloads;

use harness::{run_workload, Outcome};
use metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use stats::worsening;
use std::path::PathBuf;
use xkit::bench::json_string;

#[global_allocator]
static ALLOC: xkit::bench::alloc::CountingAlloc = xkit::bench::alloc::CountingAlloc;

/// Timed seconds per workload unless `--seconds` says otherwise; also
/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;

struct Opts {
    /// `None` runs every workload.
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    selfcheck: bool,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: None,
        seed: 42,
        seconds: DEFAULT_SECONDS,
        trace: false,
        selfcheck: false,
    };
    let mut args = args;
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if name != "all" {
                    if !WORKLOADS.iter().any(|(known, _)| *known == name) {
                        let known: Vec<&str> = WORKLOADS.iter().map(|(name, _)| *name).collect();
                        return Err(format!(
                            "unknown workload {name:?} (known: {})",
                            known.join(", ")
                        ));
                    }
                    opts.workload = Some(name);
                }
            }
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds > 0.0 && opts.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--selfcheck" => opts.selfcheck = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(opts)
}

/// The benchmark package's directory: where `out/` goes.
fn bench_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

fn run_named(name: &str, opts: &Opts) -> Outcome {
    let (seed, seconds, trace) = (opts.seed, opts.seconds, opts.trace);
    match name {
        "batch-week" => run_workload::<workloads::BatchWeek>(seed, seconds, trace),
        "pcap-batch" => run_workload::<workloads::PcapBatch>(seed, seconds, trace),
        "pcap-stream-w30" => run_workload::<workloads::PcapStream>(seed, seconds, trace),
        "serve-ring" => run_workload::<serve_ring::ServeRing>(seed, seconds, trace),
        other => unreachable!("parse_args admits known workloads only, got {other}"),
    }
}

/// A JSON number with every digit measured.
fn num(v: f64) -> String {
    assert!(v.is_finite(), "a metric came out as {v}");
    format!("{v}")
}

fn list(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|v| num(*v)).collect();
    format!("[{}]", items.join(", "))
}

fn meta_json(o: &Outcome) -> String {
    let m = &o.meta;
    format!(
        "{{\"workload\": {}, \"meta\": {{\"seed\": {}, \"seconds\": {}, \"nproc\": {}, \
         \"analysis_threads\": {}, \"pool_width\": {}, \"inputs\": {}, \"records\": {}, \"input_bytes\": {}, \
         \"setup_builds_s\": {}, \"rep_wall_s_q1_median_q3\": {}, \"rep_wall_s_best\": {}, \"reps\": {}, \
         \"probe_s_fastest\": {}, \"slowdown_median\": {}}}}}",
        json_string(o.workload),
        m.seed,
        num(m.seconds),
        m.nproc,
        m.analysis_threads,
        m.pool_width,
        m.inputs,
        m.records,
        m.input_bytes,
        list(&m.setup_builds_s),
        list(&m.rep_wall_s),
        num(m.rep_wall_s_best),
        m.reps,
        num(m.probe_s_fastest),
        num(m.slowdown_median),
    )
}

/// `{"name": {"value": v, "unit": "u"}, ...}`: the end-to-end metrics of
/// an untraced run, the per-layer metrics of a traced one.
fn metrics_json(o: &Outcome) -> String {
    let entry = |name: &str, value: f64, unit: &str| {
        format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_string(name),
            num(value),
            json_string(unit)
        )
    };
    let entries: Vec<String> = match &o.traced {
        None => END_TO_END
            .iter()
            .zip(o.end_to_end)
            .map(|(m, v)| entry(m.name, v, m.unit))
            .collect(),
        Some((layers, _)) => PER_LAYER
            .iter()
            .map(|m| entry(m.name, layers.get(m.name), m.unit))
            .collect(),
    };
    format!("{{{}}}", entries.join(", "))
}

fn result_json(outcomes: &[Outcome], nested: bool) -> String {
    let attempted: u64 = outcomes.iter().map(|o| o.attempted).sum();
    let failed: u64 = outcomes.iter().map(|o| o.failed).sum();
    let metrics = if nested {
        let per_workload: Vec<String> = outcomes
            .iter()
            .map(|o| format!("{}: {}", json_string(o.workload), metrics_json(o)))
            .collect();
        format!("{{{}}}", per_workload.join(", "))
    } else {
        metrics_json(&outcomes[0])
    };
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics}}}",
        failed == 0
    )
}

/// Run the chosen workloads, print their run facts, write their traces.
fn run_suite(opts: &Opts) -> Vec<Outcome> {
    let names: Vec<&str> = match &opts.workload {
        Some(name) => vec![name.as_str()],
        None => WORKLOADS.iter().map(|(name, _)| *name).collect(),
    };
    names
        .into_iter()
        .map(|name| {
            eprintln!(
                "# benchmark: {name} (seed {}, {} s, trace {}) ...",
                opts.seed, opts.seconds, opts.trace
            );
            let outcome = run_named(name, opts);
            println!("{}", meta_json(&outcome));
            if let Some((_, chrome_trace)) = &outcome.traced {
                let dir = bench_dir().join("out");
                let path = dir.join(format!("{name}.trace.json"));
                std::fs::create_dir_all(&dir)
                    .and_then(|()| std::fs::write(&path, chrome_trace))
                    .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
                eprintln!("# benchmark: wrote {}", path.display());
            }
            outcome
        })
        .collect()
}

/// Every end-to-end metric × workload on which two sets of runs of the
/// same code disagree by more than the metric's bound, in either
/// direction, plus any workload with a failed operation.
fn disagreements(first: &[Outcome], second: &[Outcome]) -> Vec<String> {
    let mut found = Vec::new();
    for (a, b) in first.iter().zip(second) {
        if a.failed + b.failed > 0 {
            found.push(format!(
                "{}: {} operations failed",
                a.workload,
                a.failed + b.failed
            ));
        }
        for ((m, x), y) in END_TO_END.iter().zip(a.end_to_end).zip(b.end_to_end) {
            let apart = worsening(m.better, x, y).max(worsening(m.better, y, x));
            if apart > m.bound {
                found.push(format!(
                    "{} x {}: {x} vs {y} {} is {:.1} % apart, bound {:.1} %",
                    m.name,
                    a.workload,
                    m.unit,
                    apart * 100.0,
                    m.bound * 100.0
                ));
            }
        }
    }
    found
}

fn main() {
    if cfg!(debug_assertions) {
        eprintln!("benchmark: refusing to measure a debug build; run with `cargo run --release`");
        std::process::exit(2);
    }
    let opts = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("benchmark: {e}");
        eprintln!("usage: benchmark [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1] [--selfcheck]");
        std::process::exit(2);
    });
    let nested = opts.workload.is_none();
    let outcomes = run_suite(&opts);
    println!("{}", result_json(&outcomes, nested));
    if opts.selfcheck {
        let again = run_suite(&opts);
        println!("{}", result_json(&again, nested));
        let found = disagreements(&outcomes, &again);
        for line in &found {
            eprintln!("benchmark: selfcheck: {line}");
        }
        let quoted: Vec<String> = found.iter().map(|line| json_string(line)).collect();
        println!(
            "{{\"selfcheck\": {}, \"disagreements\": [{}]}}",
            found.is_empty(),
            quoted.join(", ")
        );
        if !found.is_empty() {
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harness::Workload;
    use xkit::obs::json::{self, Value};

    fn args(line: &str) -> Result<Opts, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn arguments_parse_as_the_driver_passes_them() {
        let opts =
            args("--workload serve-ring --seed 7 --seconds 10 --trace 1").expect("driver line");
        assert_eq!(opts.workload.as_deref(), Some("serve-ring"));
        assert_eq!(
            (opts.seed, opts.seconds, opts.trace, opts.selfcheck),
            (7, 10.0, true, false)
        );
        let defaults = args("").expect("no arguments");
        assert_eq!(
            (defaults.workload, defaults.seed, defaults.seconds),
            (None, 42, DEFAULT_SECONDS)
        );
        assert!(args("--workload all --selfcheck")
            .expect("all")
            .workload
            .is_none());
        for bad in [
            "--workload nope",
            "--trace yes",
            "--seconds 0",
            "--seed",
            "--frobnicate",
        ] {
            assert!(args(bad).is_err(), "{bad} must be refused");
        }
    }

    fn str_of<'a>(v: &'a Value, key: &str) -> &'a str {
        v.get(key)
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("{key} missing"))
    }

    /// `BENCHMARK.json` and the tables in `metrics.rs` say the same.
    #[test]
    fn benchmark_json_lists_this_benchmark() {
        let path = bench_dir().join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let arr = |key: &str| {
            doc.get(key)
                .and_then(Value::as_arr)
                .unwrap_or_else(|| panic!("{key} missing"))
        };

        let paths: Vec<&str> = arr("paths").iter().filter_map(Value::as_str).collect();
        assert_eq!(paths, ["benchmark"]);
        assert!(arr("command")
            .iter()
            .any(|a| a.as_str() == Some("benchmark/Cargo.toml")));
        assert_eq!(
            doc.get("run_seconds").and_then(Value::as_f64),
            Some(DEFAULT_SECONDS)
        );

        let workloads: Vec<(&str, &str)> = arr("workloads")
            .iter()
            .map(|w| (str_of(w, "name"), str_of(w, "why")))
            .collect();
        assert_eq!(workloads, WORKLOADS);
        assert!(WORKLOADS
            .iter()
            .all(|(_, why)| why.len() <= 200 && !why.contains('\n')));

        let listed: Vec<(&str, &str, &str, f64)> = arr("end_to_end")
            .iter()
            .map(|m| {
                (
                    str_of(m, "name"),
                    str_of(m, "unit"),
                    str_of(m, "better"),
                    m.get("bound").and_then(Value::as_f64).expect("bound"),
                )
            })
            .collect();
        let ours: Vec<(&str, &str, &str, f64)> = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit, m.better.as_str(), m.bound))
            .collect();
        assert_eq!(listed, ours);
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));

        let listed: Vec<(&str, &str, &str)> = arr("per_layer")
            .iter()
            .map(|m| (str_of(m, "name"), str_of(m, "unit"), str_of(m, "better")))
            .collect();
        let ours: Vec<(&str, &str, &str)> = PER_LAYER
            .iter()
            .map(|m| (m.name, m.unit, m.better.as_str()))
            .collect();
        assert_eq!(listed, ours);
    }

    #[test]
    fn selfcheck_names_the_metric_and_workload_that_disagree() {
        let outcome = |records_per_s: f64| Outcome {
            workload: "pcap-batch",
            attempted: 10,
            failed: 0,
            meta: harness::Meta {
                seed: 42,
                seconds: 1.0,
                nproc: 2,
                analysis_threads: 1,
                pool_width: 1,
                inputs: 1,
                records: 1,
                input_bytes: 1,
                setup_builds_s: vec![1.0],
                rep_wall_s: [1.0; 3],
                rep_wall_s_best: 1.0,
                reps: 10,
                probe_s_fastest: 1.0,
                slowdown_median: 1.0,
            },
            end_to_end: [1.0, records_per_s, 1.0, 1.0, 1.0],
            traced: None,
        };
        assert!(disagreements(&[outcome(100.0)], &[outcome(80.0)]).is_empty());
        let found = disagreements(&[outcome(100.0)], &[outcome(70.0)]);
        assert_eq!(found.len(), 1);
        assert!(
            found[0].starts_with("records_per_s x pcap-batch"),
            "{}",
            found[0]
        );
        // Either direction counts: the faster set is no more right.
        assert_eq!(disagreements(&[outcome(70.0)], &[outcome(100.0)]).len(), 1);
    }

    /// One traced second of a workload: every repetition passes its
    /// output check, every end-to-end metric is positive, the result
    /// line parses, and the trace is Chrome trace-event JSON.
    fn smoke<W: Workload>(present: &[&str], absent: &[&str]) {
        let outcome = run_workload::<W>(42, 1.0, true);
        assert_eq!(outcome.failed, 0, "{}: an output check failed", W::NAME);
        assert!(
            outcome.attempted >= 2,
            "one untraced and one traced repetition at least"
        );
        assert!(
            outcome.end_to_end.iter().all(|v| *v > 0.0),
            "{:?}",
            outcome.end_to_end
        );
        let doc = json::parse(&result_json(std::slice::from_ref(&outcome), false))
            .expect("result line parses");
        assert_eq!(doc.get("correct"), Some(&Value::Bool(true)));
        let listed = doc
            .get("metrics")
            .and_then(Value::as_obj)
            .expect("metrics object");
        assert_eq!(listed.len(), PER_LAYER.len());
        let (layers, chrome_trace) = outcome.traced.as_ref().expect("traced run");
        for name in present {
            assert!(
                layers.get(name) > 0.0,
                "{}: {name} should be measured",
                W::NAME
            );
        }
        for name in absent {
            assert_eq!(
                layers.get(name),
                0.0,
                "{}: {name} should do no work",
                W::NAME
            );
        }
        let events = json::parse(chrome_trace).expect("trace parses");
        assert!(events.as_arr().is_some_and(|events| !events.is_empty()));
    }

    #[test]
    fn smoke_batch_week() {
        smoke::<workloads::BatchWeek>(
            &[
                "dns-context.pair_s",
                "cache-sim.refresh_s",
                "ccz-sim.run_s",
                "closure.layers_sum_s",
            ],
            &[
                "zeek-lite.monitor_s",
                "dns-context.stream.end_epoch_s",
                "pcapio.read_s",
            ],
        );
    }

    #[test]
    fn smoke_pcap_batch() {
        smoke::<workloads::PcapBatch>(
            &[
                "zeek-lite.monitor_s",
                "netpkt.parse_s",
                "dns-wire.decode_s",
                "dns-context.analysis_run_s",
            ],
            &[
                "dns-context.stream.end_epoch_s",
                "cache-sim.refresh_s",
                "pcapio.ring.hop_s",
            ],
        );
    }

    #[test]
    fn smoke_pcap_stream_w30() {
        smoke::<workloads::PcapStream>(
            &[
                "dns-context.stream.end_epoch_s",
                "dns-context.stream.w0_s",
                "cache-sim.replay_s",
                "xkit.obs.hub.publish_us",
            ],
            &["dns-context.pair_s", "bench.serve.drain_s"],
        );
    }

    #[test]
    fn smoke_serve_ring() {
        smoke::<serve_ring::ServeRing>(
            &[
                "bench.serve.drain_s",
                "pcapio.ring.hop_s",
                "ccz-sim.run_ring_s",
                "xkit.obs.tenants.aggregate_us",
            ],
            &[
                "dns-context.pair_s",
                "pcapio.read_s",
                "pcapio.ring.dropped",
                "xkit.obs.http.scrape_failures",
            ],
        );
    }
}
