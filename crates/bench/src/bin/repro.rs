//! The reproduction harness: regenerates every table and figure of
//! *Putting DNS in Context* (Allman, IMC 2020) from a seeded simulation
//! of a CCZ-like residential network.
//!
//! ```sh
//! cargo run --release -p bench --bin repro -- all
//! cargo run --release -p bench --bin repro -- table2 --scale 0.3 --seed 7
//! cargo run --release -p bench --bin repro -- fig2 --csv
//! cargo run --release -p bench --bin repro -- --help
//! ```
//!
//! [`EXPERIMENTS`] is the one table of what `repro` runs; dispatch, the
//! `--help` text and the unknown-name check all read it. The paper's
//! artifacts print from one shared simulate-and-analyse run (`all`, the
//! default, prints every one); the other experiments drive the packet
//! path at their own capped scale and put one JSON document on stdout,
//! everything human-readable on stderr. An unknown experiment or flag,
//! or a flag value that is missing, unparsable or out of range, prints
//! the usage on stderr and exits 2 before any work; a `stream` or `fuzz`
//! run whose own result fails its self-check exits 1 with one line.
//!
//! Timing lives in the bench ladder (`benchmark/`, contract in
//! `BENCHMARK.json`), not here.

use bench::pipeline::{self, capture_pcap, RunSpec, Source};
use dnsctx::cache_sim;
use dnsctx::ccz_sim::{ScaleKnobs, Simulation, WorkloadConfig};
use dnsctx::dns_context::classify::ThresholdRule;
use dnsctx::dns_context::report::{cdf_series, cdf_strip, count, f1, f2, Table};
use dnsctx::dns_context::{
    Analysis, AnalysisConfig, ClassCounts, ConnClass, Ecdf, PairingPolicy,
};
use dnsctx::zeek_lite::{Duration, Logs};
use xkit::obs::SpanLog;

struct Opts {
    houses: usize,
    days: f64,
    scale: f64,
    seed: u64,
    seeds: usize,
    threads: usize,
    csv: bool,
    serve: String,
    serve_check: bool,
    window_secs: f64,
    tenants: usize,
    source: String,
    format: String,
    rule: String,
    root: String,
    experiments: Vec<String>,
}

impl Opts {
    /// The analysis configuration these options imply.
    fn analysis_cfg(&self) -> AnalysisConfig {
        let mut cfg = AnalysisConfig::default();
        cfg.threads = self.threads;
        cfg
    }

    /// The simulated world these options ask for, capped for the
    /// experiments that hold every frame in memory.
    fn scale_capped(&self, max_houses: usize, max_days: f64) -> ScaleKnobs {
        ScaleKnobs {
            houses: self.houses.min(max_houses),
            days: self.days.min(max_days),
            activity: self.scale,
        }
    }

    /// The `meta` pairs every stdout document opens with.
    fn meta(&self, experiment: &str, world: &ScaleKnobs) -> Vec<(&'static str, String)> {
        vec![
            ("experiment", format!("\"{experiment}\"")),
            ("houses", world.houses.to_string()),
            ("days", world.days.to_string()),
            ("activity", world.activity.to_string()),
            ("seed", self.seed.to_string()),
            ("threads", self.threads.to_string()),
        ]
    }
}

/// The one stdout document of `obs`, `stream`, `ingest` and `serve`: a
/// `meta` object, then each section, all from ordered `(key, rendered
/// JSON value)` pairs.
fn document(meta: &[(&str, String)], sections: &[(&str, String)]) -> String {
    let members = |pairs: &[(&str, String)]| {
        let rendered: Vec<String> = pairs.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
        rendered.join(",")
    };
    format!("{{\"meta\":{{{}}},{}}}", members(meta), members(sections))
}

/// A class mix as N/LC/P/SC/R shares, percent.
fn shares(c: &ClassCounts) -> [f64; 5] {
    ConnClass::all().map(|class| c.share_pct(class))
}

/// How an experiment runs.
enum Runner {
    /// Prints from the shared simulate-and-analyse run.
    Report(fn(&Opts, &Analysis<'_>)),
    /// Every `Report`, in table order.
    All,
    /// Drives its own world (or none) and is the whole run.
    Own(fn(&Opts)),
}

/// Every experiment `repro` accepts: `(name, help, runner)`. `Report`
/// rows are in the order `all` prints them; when several `Own` rows are
/// named, the first in the table runs.
const EXPERIMENTS: &[(&str, &str, Runner)] = &[
    ("table1", "use of resolver platforms", Runner::Report(table1)),
    ("table2", "DNS information origin by connection (N/LC/P/SC/R)", Runner::Report(table2)),
    ("fig1", "gap between DNS completion and connection start", Runner::Report(fig1)),
    ("sec51", "connections using no DNS", Runner::Report(sec51)),
    ("sec52", "local caching, prefetching, TTL violations", Runner::Report(sec52)),
    ("fig2", "lookup delay, DNS contribution, significance quadrants", Runner::Report(fig2)),
    ("sec7", "shared-cache hit rate by platform", Runner::Report(sec7)),
    ("fig3", "R-lookup delay and throughput per platform", Runner::Report(fig3)),
    ("sec8", "a whole-house cache", Runner::Report(sec8)),
    ("table3", "efficacy of refreshing expiring names", Runner::Report(table3)),
    ("diurnal", "class mix by hour of day (extension)", Runner::Report(diurnal)),
    ("houses", "per-house DNS exposure (extension)", Runner::Report(houses)),
    ("ablate-threshold", "blocking-threshold sweep", Runner::Report(ablate_threshold)),
    ("ablate-pairing", "pairing policy: most-recent vs random", Runner::Report(ablate_pairing)),
    ("ablate-scr", "SC/R resolver-threshold rule", Runner::Report(ablate_scr)),
    ("all", "every table and figure above (the default)", Runner::All),
    (
        "obs",
        "instrumented packet pipeline: capture -> monitor -> Analysis under stage.* spans;\n\
         snapshot JSON on stdout",
        Runner::Own(obs),
    ),
    (
        "lint",
        "token-aware invariant checker over the workspace sources\n\
         [--format human|json] [--rule ID] [--root PATH]; exits 1 on violations",
        Runner::Own(lint),
    ),
    (
        "stream",
        "bounded-memory epoch pipeline (window set by --window-secs, 0 = unwindowed);\n\
         --serve ADDR exposes /metrics /snapshot /spans /events /healthz live during the\n\
         run (stream and ingest; --serve-check self-validates every endpoint)",
        Runner::Own(stream),
    ),
    (
        "ingest",
        "stream pipeline behind the RecordSource seam; --source picks the backend\n\
         (file = pcap round trip, ring = in-memory SPSC ring)",
        Runner::Own(ingest),
    ),
    (
        "serve",
        "multi-tenant streaming daemon; --tenants N concurrent simulated vantage points\n\
         sharded over --threads workers, tenant-routed observability on --serve ADDR\n\
         (/tenants, /tenants/<id>/snapshot|metrics + aggregate views)",
        Runner::Own(serve_daemon),
    ),
    (
        "fuzz",
        "fault-rate sweep (drop/truncate/bit-flip/duplicate/reorder) over a capture;\n\
         checks graceful degradation",
        Runner::Own(fuzz),
    ),
];

const FLAGS: &str = "\
flags: --houses N (100)  --days D (7)  --scale A (0.1 activity)  --seed S (42)
       --seeds K (1; >1 runs a parallel seed sweep)  --csv (CDF point series for the figures)
       --threads N (0 = one worker per core; output is identical for every value)
       --serve ADDR  --serve-check  --window-secs W (60)  --tenants N (8)
       --source file|ring (file)
obs-check <snapshot.json>: validate a snapshot written by `repro obs`
obs-check --url ADDR: validate the live endpoints of a running --serve instance
timing: the bench ladder (benchmark/, contract in BENCHMARK.json), not this binary";

/// The `--help` text, from the table.
fn usage() -> String {
    let mut out = String::from("usage: repro <experiment...> [flags]\nexperiments:\n");
    for (name, help, _) in EXPERIMENTS {
        out.push_str(&format!("  {name:<17}{}\n", help.replace('\n', "\n                   ")));
    }
    out + FLAGS
}

/// Print `repro: <msg>` and the usage on stderr, exit 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("repro: {msg}\n{}", usage());
    std::process::exit(2);
}

/// An experiment's self-check on its own result: a failure prints
/// `repro <experiment>: check failed: <message>` on stderr and exits 1.
fn check(experiment: &str, ok: bool, message: &str) {
    if !ok {
        eprintln!("repro {experiment}: check failed: {message}");
        std::process::exit(1);
    }
}

/// A `--serve` address that cannot be bound is the environment's
/// fault, not a bug: one line on stderr, exit 1, before any work.
fn cannot_serve(experiment: &str, addr: &str, err: &std::io::Error) -> ! {
    eprintln!("repro {experiment}: cannot serve on {addr}: {err}");
    std::process::exit(1);
}

fn parse_args() -> Opts {
    let mut opts = Opts {
        houses: 100,
        days: 7.0,
        scale: 0.1,
        seed: 42,
        seeds: 1,
        threads: 0,
        csv: false,
        serve: String::new(),
        serve_check: false,
        window_secs: 60.0,
        tenants: 8,
        source: "file".into(),
        format: "human".into(),
        rule: String::new(),
        root: ".".into(),
        experiments: Vec::new(),
    };
    let mut args = std::env::args().skip(1);
    /// The value after `flag`, parsed and in range, or the usage error.
    fn value<T: std::str::FromStr>(
        args: &mut impl Iterator<Item = String>,
        flag: &str,
        in_range: impl Fn(&T) -> bool,
    ) -> T {
        match args.next().and_then(|v| v.parse().ok()).filter(in_range) {
            Some(v) => v,
            None => usage_error(&format!("bad value for {flag}")),
        }
    }
    fn any<T>(_: &T) -> bool {
        true
    }
    let positive = |x: &f64| x.is_finite() && *x > 0.0;
    while let Some(a) = args.next() {
        let flag = a.as_str();
        match flag {
            "--houses" => opts.houses = value(&mut args, flag, |n| *n > 0),
            "--days" => opts.days = value(&mut args, flag, positive),
            "--scale" => opts.scale = value(&mut args, flag, positive),
            "--seed" => opts.seed = value(&mut args, flag, any),
            "--seeds" => opts.seeds = value(&mut args, flag, |k| *k > 0),
            "--threads" => opts.threads = value(&mut args, flag, any),
            "--csv" => opts.csv = true,
            "--serve" => opts.serve = value(&mut args, flag, any),
            "--serve-check" => opts.serve_check = true,
            "--window-secs" => {
                opts.window_secs = value(&mut args, flag, |w: &f64| w.is_finite() && *w >= 0.0)
            }
            "--tenants" => opts.tenants = value(&mut args, flag, |n| *n > 0),
            "--source" => {
                opts.source = value(&mut args, flag, |s: &String| s == "file" || s == "ring")
            }
            "--format" => opts.format = value(&mut args, flag, any),
            "--rule" => opts.rule = value(&mut args, flag, any),
            "--root" => opts.root = value(&mut args, flag, any),
            "--help" | "-h" => {
                println!("{}", usage());
                std::process::exit(0);
            }
            exp => opts.experiments.push(exp.to_string()),
        }
    }
    // `obs-check` takes free-form operands (a path, or `--url ADDR`) and
    // prints its own usage; everything else must be in the table.
    if opts.experiments.first().map(String::as_str) != Some("obs-check") {
        let known = |e: &String| EXPERIMENTS.iter().any(|(name, ..)| name == e);
        if let Some(bad) = opts.experiments.iter().find(|e| !known(e)) {
            let kind = if bad.starts_with('-') { "flag" } else { "experiment" };
            usage_error(&format!("unknown {kind} `{bad}`"));
        }
    }
    if opts.experiments.is_empty() {
        opts.experiments.push("all".into());
    }
    opts
}

fn main() {
    let opts = parse_args();
    // `obs-check PATH` parses a snapshot back and checks its contract;
    // `obs-check --url ADDR` does the same against a live server.
    if opts.experiments.first().map(String::as_str) == Some("obs-check") {
        match (opts.experiments.get(1).map(String::as_str), opts.experiments.get(2)) {
            (Some("--url"), Some(addr)) => obs_check_url(addr),
            (Some(path), _) if path != "--url" => obs_check(path),
            _ => {
                eprintln!("usage: repro obs-check <snapshot.json> | repro obs-check --url ADDR");
                std::process::exit(2);
            }
        }
        return;
    }
    let named = |name: &str| opts.experiments.iter().any(|e| e == name);
    for (name, _, runner) in EXPERIMENTS {
        if let (Runner::Own(run), true) = (runner, named(name)) {
            return run(&opts);
        }
    }
    let cfg = WorkloadConfig {
        scale: ScaleKnobs { houses: opts.houses, days: opts.days, activity: opts.scale },
        ..WorkloadConfig::default()
    };
    if opts.seeds > 1 {
        multi_seed(&cfg, &opts);
        return;
    }
    eprintln!(
        "# simulating {} houses x {} days at activity {} (seed {}) ...",
        opts.houses, opts.days, opts.scale, opts.seed
    );
    let t0 = xkit::obs::clock::now();
    let out = Simulation::new(cfg, opts.seed)
        .expect("valid config")
        .with_threads(opts.threads)
        .run();
    eprintln!(
        "# {} connections, {} DNS transactions in {:.1}s; running analysis ...",
        count(out.logs.conns.len()),
        count(out.logs.dns.len()),
        t0.elapsed_secs()
    );
    let analysis = Analysis::run(&out.logs, opts.analysis_cfg());
    eprintln!("# analysis done in {:.1}s total\n", t0.elapsed_secs());

    let all = EXPERIMENTS.iter().any(|(name, _, r)| matches!(r, Runner::All) && named(name));
    for (name, _, runner) in EXPERIMENTS {
        if let (Runner::Report(run), true) = (runner, all || named(name)) {
            run(&opts, &analysis);
        }
    }
}

/// `repro lint [--format human|json] [--rule ID] [--root PATH]` — run
/// the lintkit invariant checker over the workspace. Human diagnostics
/// go to stderr (stdout stays reserved for the one JSON document that
/// `--format json` emits). Exit codes: 0 clean, 1 violations, 2 usage
/// or IO error.
fn lint(opts: &Opts) {
    let fail = |msg: String| -> ! {
        eprintln!("repro lint: {msg}");
        std::process::exit(2);
    };
    match opts.format.as_str() {
        "human" | "json" => {}
        other => fail(format!("unknown --format `{other}` (human|json)")),
    }
    let root = std::path::Path::new(&opts.root);
    if !root.join("crates").is_dir() {
        fail(format!(
            "`{}` does not look like the workspace root (no crates/); pass --root",
            opts.root
        ));
    }
    let only = if opts.rule.is_empty() { None } else { Some(opts.rule.as_str()) };
    let report = match lintkit::lint_workspace(root, only) {
        Ok(r) => r,
        Err(e) => fail(e),
    };
    if opts.format == "json" {
        println!("{}", report.to_json());
        eprintln!(
            "lint: {} ({} files checked)",
            if report.ok() { "clean" } else { "violations found" },
            report.files_checked
        );
    } else {
        eprint!("{}", report.render_human());
    }
    std::process::exit(if report.ok() { 0 } else { 1 });
}

fn table1(_: &Opts, analysis: &Analysis<'_>) {
    let reports = analysis.platform_reports();
    let mut t = Table::new(
        "Table 1: use of resolver platforms (paper: Local 92.4/72.8/74.0/70.8, Google 83.5/12.9/8.3/9.2, OpenDNS 25.3/9.4/14.2/13.5, Cloudflare 3.8/3.9/2.9/5.7)",
        &["Resolver", "% Houses", "% Lookups", "% Conns", "% Bytes"],
    );
    for r in &reports {
        t.row(&[
            r.name.clone(),
            f1(r.houses_pct),
            f1(r.lookups_pct),
            f1(r.conns_pct),
            f1(r.bytes_pct),
        ]);
    }
    println!("{}", t.render());
}

fn table2(_: &Opts, analysis: &Analysis<'_>) {
    let c = analysis.class_counts();
    let mut t = Table::new(
        "Table 2: DNS information origin by connection (paper: N 7.2, LC 42.9, P 7.8, SC 26.3, R 15.7)",
        &["Class", "Desc.", "Conns", "% Conns"],
    );
    for class in ConnClass::all() {
        t.row(&[
            class.symbol().into(),
            class.description().into(),
            count(c.get(class)),
            f1(c.share_pct(class)),
        ]);
    }
    println!("{}", t.render());
    println!(
        "blocked on DNS: {:.1}% (paper 42.1%)   shared-cache hit rate: {:.1}% (paper 62.6%)\n",
        c.blocked_share_pct(),
        100.0 * c.shared_hit_rate()
    );
}

fn fig1(opts: &Opts, analysis: &Analysis<'_>) {
    let g = analysis.gap_analysis();
    println!("== Figure 1: gap between DNS completion and connection start ==");
    print!("{}", cdf_strip("gap (ms)", &g.gaps_ms, ""));
    for anchor_ms in [1.0, 5.0, 20.0, 100.0, 1_000.0, 60_000.0] {
        println!(
            "   P(gap <= {:>8} ms) = {:.3}",
            anchor_ms,
            g.gaps_ms.fraction_at_or_below(anchor_ms)
        );
    }
    println!(
        "first-use share:  within 20 ms knee {:.1}% (paper 91%)   beyond {:.1}% (paper 21%)",
        100.0 * g.first_use_within_knee,
        100.0 * g.first_use_beyond_knee
    );
    match g.estimate_knee(0.10) {
        Some(k) => println!(
            "estimated knee: {:.0} ms (paper eyeballs ~20 ms; 100 ms threshold stays conservative)\n",
            k.as_millis_f64()
        ),
        None => println!("estimated knee: none (distribution does not flatten)\n"),
    }
    if opts.csv {
        print!("{}", cdf_series("fig1_gap_ms", &g.gaps_ms, 200));
    }
}

fn sec51(_: &Opts, analysis: &Analysis<'_>) {
    let logs = analysis.logs();
    let b = analysis.no_dns_breakdown();
    println!("== par.5.1: connections using no DNS ==");
    println!(
        "N connections: {}   both-high-ports: {:.1}% (paper 81.6%)",
        count(b.total),
        100.0 * b.both_high_ports as f64 / b.total.max(1) as f64
    );
    println!("top hard-coded (reserved-port) endpoints:");
    for ((addr, port), n) in b.reserved_port_endpoints.iter().take(6) {
        println!("   {addr}:{port:<5}  {} conns", count(*n));
    }
    println!(
        "DoT (port 853) connections: {}   DoT packets seen by monitor: {}",
        b.dot_port_conns, logs.stats.dot_port_packets
    );
    println!(
        "unpaired AND not peer-to-peer: {:.2}% of all conns (paper <= 1.3%)\n",
        b.unpaired_not_p2p_share_pct
    );
}

fn sec52(_: &Opts, analysis: &Analysis<'_>) {
    let t = analysis.ttl_stats();
    println!("== par.5.2: local caching, prefetching, TTL violations ==");
    println!(
        "LC using expired records: {:.1}% (paper 22.2%)   P: {:.1}% (paper 12.4%)",
        t.lc_violation_share_pct, t.p_violation_share_pct
    );
    if let Some(med) = t.violation_staleness_secs.median() {
        println!(
            "violation staleness: >30s for {:.0}% (paper 82%)   median {:.0}s (paper 890s)   p90 {:.0}s (paper ~19,000s)",
            100.0 * t.violation_staleness_secs.fraction_above(30.0),
            med,
            t.violation_staleness_secs.quantile(0.9).unwrap()
        );
    }
    println!(
        "unused lookups: {} = {:.1}% (paper 3.1M = 37.8%)   speculative ultimately used: {:.1}% (paper 22.3%)",
        count(t.unused_lookups),
        t.unused_share_pct,
        t.speculative_used_share_pct
    );
    println!(
        "median lookup-to-use gap: P {:.0}s (paper 310s)   LC {:.0}s (paper 1033s)\n",
        t.p_use_gap_median_secs.unwrap_or(0.0),
        t.lc_use_gap_median_secs.unwrap_or(0.0)
    );
}

fn fig2(opts: &Opts, analysis: &Analysis<'_>) {
    let p = analysis.perf();
    println!("== Figure 2 (top): lookup delay for SC+R connections ==");
    print!("{}", cdf_strip("delay", &p.delay_ms, "ms"));
    println!(
        "   median {:.1} ms (paper 8.5)   p75 {:.1} ms (paper 20)   >100 ms: {:.1}% (paper 3.3%)",
        p.delay_ms.median().unwrap_or(0.0),
        p.delay_ms.quantile(0.75).unwrap_or(0.0),
        100.0 * p.delay_ms.fraction_above(100.0)
    );
    println!("\n== Figure 2 (bottom): DNS %% contribution to transaction time ==");
    print!("{}", cdf_strip("all SC+R", &p.contribution_pct, "%"));
    print!("{}", cdf_strip("SC only", &p.contribution_sc_pct, "%"));
    print!("{}", cdf_strip("R only", &p.contribution_r_pct, "%"));
    println!(
        "   contribution >1%: {:.1}% of blocked (paper 20%)   >=10%: {:.1}% (paper 8%)   R-only >1%: {:.1}% (paper 30%)",
        100.0 * p.contribution_pct.fraction_above(1.0),
        100.0 * p.contribution_pct.fraction_above(10.0 - 1e-9),
        100.0 * p.contribution_r_pct.fraction_above(1.0)
    );
    let s = analysis.significance();
    println!("\n== par.6: significance quadrants (abs > 20 ms x rel > 1%) ==");
    println!("   insignificant by both:     {:.1}% (paper 64.0%)", s.neither_pct);
    println!("   relative-only:             {:.1}% (paper 11.5%)", s.rel_only_pct);
    println!("   absolute-only:             {:.1}% (paper 15.9%)", s.abs_only_pct);
    println!("   significant (both):        {:.1}% (paper 8.6%)", s.both_pct);
    println!("   significant, of ALL conns: {:.1}% (paper 3.6%)\n", s.both_share_of_all_pct);
    if opts.csv {
        print!("{}", cdf_series("fig2_delay_ms", &p.delay_ms, 200));
        print!("{}", cdf_series("fig2_contrib_all_pct", &p.contribution_pct, 200));
        print!("{}", cdf_series("fig2_contrib_sc_pct", &p.contribution_sc_pct, 200));
        print!("{}", cdf_series("fig2_contrib_r_pct", &p.contribution_r_pct, 200));
    }
}

fn sec7(_: &Opts, analysis: &Analysis<'_>) {
    let reports = analysis.platform_reports();
    let mut t = Table::new(
        "par.7: shared-cache hit rate by platform (paper: Cloudflare 83.6, Local 71.2, OpenDNS 58.8, Google 23.0)",
        &["Resolver", "Hit rate %"],
    );
    let mut sorted: Vec<_> = reports.iter().collect();
    sorted.sort_by(|a, b| b.hit_rate_pct.total_cmp(&a.hit_rate_pct));
    for r in sorted {
        t.row(&[r.name.clone(), f1(r.hit_rate_pct)]);
    }
    println!("{}", t.render());
}

fn fig3(opts: &Opts, analysis: &Analysis<'_>) {
    let reports = analysis.platform_reports();
    println!("== Figure 3 (top): lookup delay for R connections, per platform ==");
    for r in &reports {
        print!("{}", cdf_strip(&r.name, &r.r_delay_ms, "ms"));
    }
    println!("\n== Figure 3 (bottom): throughput of SC+R connections, per platform (Mbit/s) ==");
    for r in &reports {
        let mbps = Ecdf::new(r.throughput_bps.samples().iter().map(|b| b / 1e6).collect());
        print!("{}", cdf_strip(&r.name, &mbps, ""));
        if r.name == "Google" {
            let clean = Ecdf::new(
                r.throughput_no_artifact_bps.samples().iter().map(|b| b / 1e6).collect(),
            );
            print!("{}", cdf_strip("Google (no conncheck)", &clean, ""));
            println!(
                "   connectivitycheck share of Google SC+R conns: {:.1}% (paper 23.5%)",
                r.artifact_conn_share_pct
            );
        }
    }
    println!();
    if opts.csv {
        for r in &reports {
            print!("{}", cdf_series(&format!("fig3_rdelay_ms_{}", r.name), &r.r_delay_ms, 200));
            print!("{}", cdf_series(&format!("fig3_tput_bps_{}", r.name), &r.throughput_bps, 200));
            if r.name == "Google" {
                print!(
                    "{}",
                    cdf_series("fig3_tput_bps_Google_clean", &r.throughput_no_artifact_bps, 200)
                );
            }
        }
    }
}

fn sec8(_: &Opts, analysis: &Analysis<'_>) {
    let wh = cache_sim::whole_house(analysis.logs(), analysis);
    println!("== par.8: a whole-house cache ==");
    println!(
        "conns moving SC/R -> LC: {} of {} = {:.1}% (paper 9.8%)",
        count(wh.moved),
        count(wh.total_conns),
        wh.moved_share_of_all_pct
    );
    println!(
        "benefiting: {:.1}% of SC (paper 22%)   {:.1}% of R (paper 25%)\n",
        wh.sc_benefit_pct, wh.r_benefit_pct
    );
}

/// Table 3, plus two answers to the paper's closing open question (can
/// refresh-all's hit rate be had at sane cost?): refresh only names a
/// house used twice, until an hour passes unused; and serve-stale
/// (RFC 8767), which answers from an expired record while refreshing it.
fn table3(_: &Opts, analysis: &Analysis<'_>) {
    let logs = analysis.logs();
    let floor = Duration::from_secs(10);
    let r = cache_sim::refresh(logs, analysis, floor);
    let selective = cache_sim::refresh_selective(logs, analysis, floor, 2, Duration::from_secs(3_600));
    let stale = cache_sim::serve_stale(logs, analysis, Duration::from_secs(86_400));
    let policies = [r.standard, r.refresh_all, selective, stale];
    let mut t = Table::new(
        "Table 3: efficacy of refreshing expiring names (paper: hits 61.0%->96.6%, lookups 8.4M->1.2B, 0.2->25.2 q/s/house)",
        &["", "Standard", "Refresh All", "Selective (K=2, 1 h)", "Serve-stale (24 h)"],
    );
    let mut row = |label: &str, cell: fn(&cache_sim::CachePolicyReport) -> String| {
        let mut cells = vec![label.to_string()];
        cells.extend(policies.iter().map(cell));
        t.row(&cells);
    };
    row("Conns.", |p| count(p.conns));
    row("DNS Lookups", |p| count(p.lookups as usize));
    row("Lookups/sec/house", |p| f2(p.lookups_per_sec_per_house));
    row("Cache Hits", |p| f1(p.hit_pct) + "%");
    row("Cache Misses", |p| f1(p.miss_pct) + "%");
    println!("{}", t.render());
    println!("lookup blow-up: {:.0}x (paper ~144x)\n", r.lookup_ratio());
}

fn diurnal(_: &Opts, analysis: &Analysis<'_>) {
    println!("== diurnal profile: class mix by hour of day (extension; not a paper artifact) ==");
    let mut t = Table::new(
        "hour-of-day classification",
        &["hour", "conns", "LC %", "blocked %"],
    );
    for (hour, c) in analysis.diurnal_profile() {
        if c.total() == 0 {
            continue;
        }
        t.row(&[
            format!("{hour:02}"),
            count(c.total()),
            f1(c.share_pct(ConnClass::LocalCache)),
            f1(c.blocked_share_pct()),
        ]);
    }
    println!("{}", t.render());
}

fn houses(_: &Opts, analysis: &Analysis<'_>) {
    println!("== per-house DNS exposure (extension; not a paper artifact) ==");
    let mut t = Table::new(
        "top 12 houses by connection count",
        &["house", "conns", "lookups", "blocked %", "p95 blocked ms"],
    );
    for h in analysis.house_reports().into_iter().take(12) {
        t.row(&[
            h.addr.to_string(),
            count(h.classes.total()),
            count(h.lookups),
            f1(h.blocked_share_pct()),
            h.blocked_delay_ms
                .quantile(0.95)
                .map(|v| format!("{v:.1}"))
                .unwrap_or_else(|| "-".into()),
        ]);
    }
    println!("{}", t.render());
}

fn ablate_threshold(opts: &Opts, analysis: &Analysis<'_>) {
    let logs = analysis.logs();
    println!("== ablation: blocking threshold sweep (paper footnote 5) ==");
    let mut t = Table::new(
        "class mix vs blocking threshold",
        &["threshold ms", "N %", "LC %", "P %", "SC %", "R %", "blocked %"],
    );
    for ms in [10u64, 20, 50, 100, 200, 500] {
        let mut cfg = opts.analysis_cfg();
        cfg.block_threshold = Duration::from_millis(ms);
        let a = Analysis::run(logs, cfg);
        let c = a.class_counts();
        let mut row = vec![ms.to_string()];
        row.extend(shares(&c).map(f1));
        row.push(f1(c.blocked_share_pct()));
        t.row(&row);
    }
    println!("{}", t.render());
}

fn ablate_pairing(opts: &Opts, analysis: &Analysis<'_>) {
    let logs = analysis.logs();
    println!("== ablation: pairing policy (paper par.4 robustness check) ==");
    let mut t = Table::new(
        "class mix vs pairing policy",
        &["policy", "N %", "LC %", "P %", "SC %", "R %"],
    );
    for (name, policy) in [
        ("most-recent", PairingPolicy::MostRecent),
        ("random", PairingPolicy::RandomNonExpired),
    ] {
        let mut cfg = opts.analysis_cfg();
        cfg.policy = policy;
        let a = Analysis::run(logs, cfg);
        let mut row = vec![name.to_string()];
        row.extend(shares(&a.class_counts()).map(f1));
        t.row(&row);
    }
    println!("{}", t.render());
}

fn ablate_scr(opts: &Opts, analysis: &Analysis<'_>) {
    let logs = analysis.logs();
    println!("== ablation: SC/R resolver-threshold rule (paper par.5.3, footnote 7) ==");
    let mut t = Table::new(
        "SC/R split vs threshold multiplier",
        &["multiplier", "floor ms", "SC %", "R %", "hit rate %"],
    );
    for (mult, floor) in [(1.0, 3.0), (1.3, 5.0), (1.6, 5.0), (2.0, 8.0), (3.0, 10.0)] {
        let mut cfg = opts.analysis_cfg();
        cfg.threshold_rule = ThresholdRule { mult, floor_ms: floor, ..cfg.threshold_rule };
        let a = Analysis::run(logs, cfg);
        let c = a.class_counts();
        t.row(&[
            f2(mult),
            f1(floor),
            f1(c.share_pct(ConnClass::SharedCache)),
            f1(c.share_pct(ConnClass::Resolution)),
            f1(100.0 * c.shared_hit_rate()),
        ]);
    }
    println!("{}", t.render());
}

/// The spans of a `repro obs` run, in order.
const OBS_STAGES: [&str; 5] =
    ["stage.capture", "stage.zeek", "stage.analysis", "stage.perf", "stage.report"];

/// Parse a snapshot written by `repro obs` back with the in-tree JSON
/// parser and check its contract: a `meta` section, a non-empty
/// `metrics` object, and one `stage.*` span per pipeline stage, each
/// with a wall time and at least one note. Exits non-zero on any
/// violation, so scripts can gate on it.
fn obs_check(path: &str) {
    let fail = |msg: String| -> ! {
        eprintln!("obs-check: {msg}");
        std::process::exit(1);
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => fail(format!("cannot read {path}: {e}")),
    };
    let v = match xkit::obs::json::parse(&text) {
        Ok(v) => v,
        Err(e) => fail(format!("invalid JSON in {path}: {e}")),
    };
    if v.get("meta").and_then(|m| m.as_obj()).is_none() {
        fail(format!("{path}: missing `meta` object"));
    }
    let metrics = match v.get("metrics").and_then(|m| m.as_obj()) {
        Some(m) if !m.is_empty() => m,
        _ => fail(format!("{path}: missing or empty `metrics` object")),
    };
    let spans = match v.get("spans").and_then(|s| s.as_arr()) {
        Some(s) => s,
        None => fail(format!("{path}: missing `spans` array")),
    };
    for name in OBS_STAGES {
        let span = spans
            .iter()
            .find(|s| s.get("name").and_then(|n| n.as_str()) == Some(name))
            .unwrap_or_else(|| fail(format!("{path}: missing span {name}")));
        if span.get("wall_ns").and_then(|w| w.as_f64()).is_none() {
            fail(format!("{path}: span {name} has no wall_ns"));
        }
        match span.get("notes").and_then(|n| n.as_obj()) {
            Some(notes) if !notes.is_empty() => {}
            _ => fail(format!("{path}: span {name} carries no counter notes")),
        }
    }
    println!(
        "obs-check OK: {path} ({} metrics, {} spans)",
        metrics.len(),
        spans.len()
    );
}

/// GET `path` from the observability server on `addr`, expecting 200.
fn fetch(addr: &str, path: &str) -> Result<String, String> {
    match xkit::obs::http::get(addr, path).map_err(|e| format!("GET {path}: {e}"))? {
        (200, body) => Ok(body),
        (status, _) => Err(format!("GET {path}: status {status}")),
    }
}

/// `<prefix>/snapshot` parses back through the in-tree JSON parser into a
/// [`xkit::obs::Metrics`] and `<prefix>/metrics` is exactly the
/// Prometheus rendering of that snapshot. The hub publishes whole
/// snapshots atomically, so between two scrapes of a settled run these
/// must agree byte for byte.
fn check_snapshot_views(addr: &str, prefix: &str) -> Result<(), String> {
    use xkit::obs::{json, Metrics};
    let path = format!("{prefix}/snapshot");
    let v = json::parse(&fetch(addr, &path)?).map_err(|e| format!("{path}: {e}"))?;
    let parsed = Metrics::from_json_value(&v).map_err(|e| format!("{path}: {e}"))?;
    let path = format!("{prefix}/metrics");
    if fetch(addr, &path)? != parsed.to_prometheus("dnsctx") {
        return Err(format!("{path} is not the Prometheus rendering of the snapshot"));
    }
    Ok(())
}

/// Fetch every endpoint of a running observability server and check the
/// DESIGN.md §13 contract: `/healthz` answers, `/snapshot` and `/metrics`
/// are two views of one snapshot, `/spans` is a Chrome trace-event array
/// (`ph:"X"`, numeric `ts`/`dur` in microseconds), and `/events` is a
/// well-formed flight-recorder dump.
fn check_live_endpoints(addr: &str) -> Result<(), String> {
    use xkit::obs::json;
    let health = fetch(addr, "/healthz")?;
    if health != "ok\n" {
        return Err(format!("/healthz body {health:?}"));
    }
    check_snapshot_views(addr, "")?;

    let sv = json::parse(&fetch(addr, "/spans")?).map_err(|e| format!("/spans: {e}"))?;
    let trace = sv.as_arr().ok_or("/spans: not an array")?;
    for ev in trace {
        if ev.get("ph").and_then(|p| p.as_str()) != Some("X") {
            return Err("/spans: event without ph=\"X\"".into());
        }
        for key in ["ts", "dur"] {
            if ev.get(key).and_then(|t| t.as_f64()).is_none() {
                return Err(format!("/spans: event missing numeric {key}"));
            }
        }
    }

    let fv = json::parse(&fetch(addr, "/events")?).map_err(|e| format!("/events: {e}"))?;
    for key in ["capacity", "recorded", "dropped"] {
        if fv.get(key).and_then(|n| n.as_f64()).is_none() {
            return Err(format!("/events: missing {key}"));
        }
    }
    if fv.get("events").and_then(|e| e.as_arr()).is_none() {
        return Err("/events: missing events array".into());
    }
    Ok(())
}

/// `obs-check --url ADDR`: the live-server spelling of the snapshot
/// contract check.
fn obs_check_url(addr: &str) {
    match check_live_endpoints(addr) {
        Ok(()) => println!("obs-check OK: live endpoints on {addr}"),
        Err(e) => {
            eprintln!("obs-check: {e}");
            std::process::exit(1);
        }
    }
}

/// Start the live observability plane when `--serve ADDR` was given:
/// returns the hub the pipeline publishes into plus the running server.
/// The server answers from its first instant (empty-but-valid snapshot)
/// and shuts down when the returned guard drops.
fn start_serving(
    opts: &Opts,
    who: &str,
) -> (Option<xkit::obs::ObsHub>, Option<xkit::obs::http::ObsServer>) {
    if opts.serve.is_empty() {
        return (None, None);
    }
    let hub = xkit::obs::ObsHub::default();
    let server = xkit::obs::http::serve(&opts.serve, "dnsctx", hub.clone())
        .unwrap_or_else(|e| cannot_serve(who, &opts.serve, &e));
    eprintln!(
        "# {who}: serving /metrics /snapshot /spans /events /healthz on http://{}",
        server.addr()
    );
    (Some(hub), Some(server))
}

/// `--serve-check`: validate the endpoints of our own server on `addr`
/// (the tenant routes too when `tenants` is given). Exits non-zero on
/// any contract violation.
fn serve_check(who: &str, addr: &str, tenants: Option<usize>) {
    let checked = check_live_endpoints(addr)
        .and_then(|()| tenants.map_or(Ok(()), |n| check_tenant_endpoints(addr, n)));
    match checked {
        Ok(()) => eprintln!("# {who}: serve-check OK on {addr}"),
        Err(e) => {
            eprintln!("# {who}: serve-check FAILED: {e}");
            std::process::exit(1);
        }
    }
}

/// Run `--serve-check` against the `--serve` server, then shut it down.
fn finish_serving(opts: &Opts, who: &str, server: Option<xkit::obs::http::ObsServer>) {
    let Some(mut server) = server else { return };
    if opts.serve_check {
        serve_check(who, &server.addr().to_string(), None);
    }
    server.shutdown();
}

/// `obs` experiment: the packet pipeline end to end with full
/// instrumentation.
///
/// Capture, monitor, [`Analysis::run`] (the one batch pipeline), the §6
/// figures and the report each run under one of the [`OBS_STAGES`] spans
/// (monotonic wall time plus at least one counter note). The snapshot is
/// `sim.*` ∪ `capture.*` ∪ `Logs::metrics()` ∪ `Analysis::metrics()`, a
/// pure function of (config, seed), so the JSON `metrics` section is
/// byte-identical for every `--threads` value; wall-clock times live
/// only in the `spans` section. Human-readable output (span tree,
/// metrics table) goes to stderr; stdout carries exactly one JSON
/// document.
fn obs(opts: &Opts) {
    use dnsctx::zeek_lite::{Monitor, MonitorConfig};

    // The capture is held in memory, so cap the workload — but keep
    // it above one simulation shard (25 houses) so the thread-invariance
    // of the snapshot exercises a real multi-shard merge.
    let scale = opts.scale_capped(50, 1.0);
    eprintln!(
        "# obs: simulating {} houses x {} days at activity {} (seed {}, threads {}) ...",
        scale.houses, scale.days, opts.scale, opts.seed, opts.threads
    );
    let mut spans = SpanLog::new();
    let [capture, zeek, analyse, perf, report] = OBS_STAGES;

    let s = spans.start(capture);
    let (pcap, frames, mut metrics) = capture_pcap(&scale, opts.seed, opts.threads);
    spans.note(s, "frames", frames as f64);
    spans.note(s, "pcap_bytes", pcap.len() as f64);
    spans.finish(s);

    // Borrowed records over the file backend's reusable buffer: no
    // per-frame allocation.
    let s = spans.start(zeek);
    let mut source = dnsctx::pcapio::source::file(&pcap[..]).expect("pcap header");
    let logs = Monitor::process_source(&mut source, MonitorConfig::default()).expect("pcap record");
    metrics.merge(&source.metrics());
    spans.note(s, "conn_rows", logs.conns.len() as f64);
    spans.note(s, "dns_rows", logs.dns.len() as f64);
    spans.finish(s);

    let s = spans.start(analyse);
    let analysis = Analysis::run(&logs, opts.analysis_cfg());
    spans.note(s, "app_conns", analysis.pairing.app_conn_count() as f64);
    spans.note(s, "resolvers", analysis.thresholds.len() as f64);
    spans.note(s, "classified", analysis.classes.len() as f64);
    spans.finish(s);

    let s = spans.start(perf);
    spans.note(s, "blocked_conns", analysis.perf().blocked.len() as f64);
    spans.finish(s);

    let s = spans.start(report);
    metrics.merge(&logs.metrics());
    metrics.merge(&analysis.metrics());
    let table = metrics.render_table();
    spans.note(s, "metrics", metrics.len() as f64);
    spans.finish(s);

    eprintln!("# obs: coverage {}", analysis.coverage());
    eprint!("{table}");
    eprint!("{}", spans.render_tree());

    let sections = [("metrics", metrics.to_json()), ("spans", spans.to_json())];
    println!("{}", document(&opts.meta("obs", &scale), &sections));
}

/// `stream` experiment: run the bounded-memory epoch pipeline over a
/// simulated capture and publish the merged analysis + `stream.*`
/// snapshot as one JSON document on stdout (same discipline as `obs`).
///
/// The released DNS rows also feed a windowed `cache_sim` replay, so the
/// whole-house cache numbers come out of the same single pass. For a
/// finite window the peak-live gauges must come in strictly below the
/// full-trace row totals — that is the point of the exercise, and the
/// run checks it.
fn stream(opts: &Opts) {
    // The pcap bytes live in memory, so cap the workload like `obs` does.
    let scale = opts.scale_capped(50, 1.0);
    let (houses, days) = (scale.houses, scale.days);
    eprintln!(
        "# stream: {houses} houses x {days} days at activity {} (seed {}, threads {}, window {}s) ...",
        opts.scale, opts.seed, opts.threads, opts.window_secs
    );
    let mut spans = SpanLog::new();
    let (hub, server) = start_serving(opts, "stream");

    // stage.capture: simulate the trace and render it to pcap bytes.
    let s = spans.start("stage.capture");
    let (pcap, frames, mut metrics) = capture_pcap(&scale, opts.seed, opts.threads);
    spans.note(s, "frames", frames as f64);
    spans.note(s, "pcap_bytes", pcap.len() as f64);
    spans.finish(s);

    // stage.stream: the driver's one pass over the capture, epoch by
    // epoch. With `--serve`, every epoch boundary also publishes a
    // prefix snapshot to the hub.
    let s = spans.start("stage.stream");
    let spec = RunSpec {
        source: Source::Pcap(pcap),
        window_secs: opts.window_secs,
        threads: opts.threads,
    };
    metrics.merge(&pipeline::run(&spec, hub.as_ref()));
    spans.note(s, "epochs", metrics.counter("stream.epochs") as f64);
    spans.note(s, "conn_rows", metrics.counter("zeek.conn_rows") as f64);
    spans.note(s, "dns_rows", metrics.counter("zeek.dns_rows") as f64);
    spans.finish(s);

    let conn_rows = metrics.counter("zeek.conn_rows");
    let dns_rows = metrics.counter("zeek.dns_rows");
    let peak_flows = metrics.gauge("stream.peak_live_flows").unwrap_or(0.0);
    let peak_answers = metrics.gauge("stream.peak_live_answers").unwrap_or(0.0);
    eprintln!(
        "# stream: {} epochs; peak live flows {} of {} rows, peak live answers {} of {} rows",
        metrics.counter("stream.epochs"),
        peak_flows,
        count(conn_rows as usize),
        peak_answers,
        count(dns_rows as usize),
    );
    eprintln!(
        "# stream: cache replay {} hits / {} misses (peak {} live)",
        count(metrics.counter("cache.hits") as usize),
        count(metrics.counter("cache.misses") as usize),
        metrics.gauge("cache.peak_live").unwrap_or(0.0)
    );
    check(
        "stream",
        spec.window().nanos() == 0
            || ((peak_flows as u64) < conn_rows && (peak_answers as u64) < dns_rows),
        "finite window must bound live state below the full-trace totals",
    );

    // The settled snapshot: the driver's plus `sim.*`, so `/snapshot`
    // matches the stdout document's metrics section, and `/spans`
    // carries the Chrome trace.
    if let Some(hub) = &hub {
        hub.publish_metrics(metrics.clone());
        hub.publish_spans(spans.to_chrome_trace());
    }
    finish_serving(opts, "stream", server);

    let mut meta = opts.meta("stream", &scale);
    meta.push(("window_secs", opts.window_secs.to_string()));
    println!("{}", document(&meta, &[("metrics", metrics.to_json()), ("spans", spans.to_json())]));
}

/// `ingest` experiment: the driver's pass with the `RecordSource`
/// backend picked on the command line.
///
/// `--source file` renders the simulated capture to in-memory pcap bytes
/// and replays them through the file backend. `--source ring` pipes the
/// same frames from a producer thread straight into the monitor over the
/// in-memory ring — no pcap serialization, no parse on the consumer
/// side.
///
/// The stdout document carries only the deterministic metrics snapshot —
/// no spans, and no backend name in the meta — so a `file` run and a
/// `ring` run over the same workload emit byte-identical JSON.
/// `verify.sh` pins that equivalence.
fn ingest(opts: &Opts) {
    // Same workload cap as `stream`: the frames live in memory either way.
    let scale = opts.scale_capped(50, 1.0);
    let (houses, days) = (scale.houses, scale.days);
    eprintln!(
        "# ingest: source {} ({houses} houses x {days} days at activity {}, seed {}, threads {}, window {}s) ...",
        opts.source, opts.scale, opts.seed, opts.threads, opts.window_secs
    );
    let mut meta = opts.meta("ingest", &scale);
    meta.push(("window_secs", opts.window_secs.to_string()));
    // `parse_args` admits `file` and `ring` only.
    let source = if opts.source == "ring" {
        Source::SimRing { scale, seed: opts.seed }
    } else {
        Source::SimPcap { scale, seed: opts.seed }
    };
    let spec = RunSpec { source, window_secs: opts.window_secs, threads: opts.threads };
    let (hub, server) = start_serving(opts, "ingest");
    // The driver settles the live plane: `/snapshot` matches the stdout
    // metrics section exactly. `ingest` has no spans, so `/spans` stays `[]`.
    let metrics = pipeline::run(&spec, hub.as_ref());

    eprintln!(
        "# ingest[{}]: {} frames in, {} epochs, {} conn rows / {} dns rows",
        opts.source,
        count(metrics.counter("capture.frames_read") as usize),
        metrics.counter("stream.epochs"),
        count(metrics.counter("zeek.conn_rows") as usize),
        count(metrics.counter("zeek.dns_rows") as usize),
    );
    finish_serving(opts, "ingest", server);

    println!("{}", document(&meta, &[("metrics", metrics.to_json())]));
}

/// `serve` experiment: the multi-tenant streaming daemon (DESIGN.md
/// §15). `--tenants N` simulated vantage points (seeds staggered off
/// `--seed`) are registered with a [`bench::serve::Daemon`], sharded
/// over `--threads` pool workers, and served live over the
/// tenant-routed observability plane (`/tenants`,
/// `/tenants/<id>/snapshot|metrics`, aggregate `/snapshot` +
/// `/metrics`). After the drain barrier the daemon shuts down
/// gracefully — every engine flushed through `finish()` before the
/// accept thread exits — and stdout carries one JSON document: the
/// tenant roster plus the id-ordered aggregate fold, whose `metrics`
/// section is byte-identical for any `--threads` value.
fn serve_daemon(opts: &Opts) {
    use bench::serve::{Daemon, DaemonConfig, TenantSpec};

    // Per-tenant workload cap, same spirit as stream/ingest: the daemon
    // scales by tenant count, not per-tenant size.
    let scale = opts.scale_capped(12, 0.25);
    let ScaleKnobs { houses, days, activity } = scale;
    let tenants = opts.tenants;
    let addr = if opts.serve.is_empty() { "127.0.0.1:0" } else { &opts.serve };
    eprintln!(
        "# serve: {tenants} tenants ({houses} houses x {days} days at activity {activity}, base seed {}, threads {}, window {}s)",
        opts.seed, opts.threads, opts.window_secs
    );

    let daemon = Daemon::new(DaemonConfig { threads: opts.threads, serve: Some(addr.to_string()) })
        .unwrap_or_else(|e| cannot_serve("serve", addr, &e));
    let bound = daemon.addr().expect("daemon serves");
    eprintln!("# serve: tenant-routed observability on http://{bound}");

    for k in 0..tenants {
        let seed = opts.seed.wrapping_add(k as u64);
        let mut spec = TenantSpec::sim(&format!("t{k:03}"), houses, days, activity, seed);
        spec.run.window_secs = opts.window_secs;
        daemon.add_tenant(spec).expect("unique tenant id");
    }

    daemon.drain();
    if daemon.panicked() > 0 {
        eprintln!("# serve: {} tenant(s) failed", daemon.panicked());
        std::process::exit(1);
    }
    if opts.serve_check {
        serve_check("serve", &bound.to_string(), Some(tenants));
    }

    let roster = daemon.tenants();
    let aggregate = daemon.shutdown();
    eprintln!(
        "# serve: drained {} tenants, {} frames in, {} epochs, {} conn rows / {} dns rows",
        roster.len(),
        count(aggregate.counter("capture.frames_read") as usize),
        aggregate.counter("stream.epochs"),
        count(aggregate.counter("zeek.conn_rows") as usize),
        count(aggregate.counter("zeek.dns_rows") as usize),
    );

    let roster_json: Vec<String> = roster
        .iter()
        .map(|(id, state)| format!("{{\"id\":\"{id}\",\"state\":\"{}\"}}", state.as_str()))
        .collect();
    let mut meta = opts.meta("serve", &scale);
    meta.insert(1, ("tenants", tenants.to_string()));
    meta.push(("window_secs", opts.window_secs.to_string()));
    let sections =
        [("tenants", format!("[{}]", roster_json.join(","))), ("metrics", aggregate.to_json())];
    println!("{}", document(&meta, &sections));
}

/// The tenant-plane half of `--serve-check`: `/tenants` lists exactly
/// the drained roster, every tenant's snapshot parses back and its
/// Prometheus view agrees, and unknown tenants 404.
fn check_tenant_endpoints(addr: &str, expect: usize) -> Result<(), String> {
    use xkit::obs::{http, json, TenantState};
    let v = json::parse(&fetch(addr, "/tenants")?).map_err(|e| format!("/tenants: {e}"))?;
    let roster = v
        .get("tenants")
        .and_then(|t| t.as_arr())
        .ok_or("/tenants: missing tenants array")?
        .to_vec();
    if roster.len() != expect {
        return Err(format!("/tenants lists {} tenants, want {expect}", roster.len()));
    }
    for entry in &roster {
        let id = entry
            .get("id")
            .and_then(|x| x.as_str())
            .ok_or("/tenants: entry without id")?;
        let state = entry.get("state").and_then(|x| x.as_str()).unwrap_or("?");
        if state != TenantState::Drained.as_str() {
            return Err(format!("tenant {id} in state {state:?} after drain"));
        }
        check_snapshot_views(addr, &format!("/tenants/{id}"))?;
    }
    let (status, _) = http::get(addr, "/tenants/no-such-tenant/snapshot")
        .map_err(|e| format!("GET unknown tenant: {e}"))?;
    if status != 404 {
        return Err(format!("unknown tenant answered {status}, want 404"));
    }
    Ok(())
}

/// `fuzz` experiment: corrupt a simulated capture at increasing fault
/// rates and verify the pipeline degrades gracefully.
///
/// One simulation is rendered to pcap bytes once; each rate then streams
/// those bytes through a seeded [`xkit::fault::FaultInjector`] (split off
/// the master RNG per rate, so every run is byte-reproducible), re-parses
/// the corrupted capture with the monitor, and runs the full analysis.
/// Checked invariants: the sweep completes without a panic, frame
/// acceptance and pair coverage degrade monotonically with the rate, and
/// the rate-0 capture and its logs are byte-identical to the clean
/// pipeline's.
fn fuzz(opts: &Opts) {
    use dnsctx::pcapio;
    use dnsctx::zeek_lite::{logfmt, Monitor, MonitorConfig};
    use xkit::fault::{FaultConfig, FaultInjector};
    use xkit::rng::StdRng;

    /// Serialize both logs to their Zeek-style TSV form for byte-exact
    /// comparison.
    fn render_logs(logs: &Logs) -> Vec<u8> {
        let mut buf = Vec::new();
        logfmt::write_conn_log(&mut buf, &logs.conns).expect("in-memory write");
        logfmt::write_dns_log(&mut buf, &logs.names, &logs.dns).expect("in-memory write");
        buf
    }

    // The capture is held in memory, so cap the workload well below
    // the analysis default (still overridable downward via the flags).
    let scale = opts.scale_capped(25, 1.0);
    eprintln!(
        "# fuzz: simulating {} houses x {} days at activity {} (seed {}) ...",
        scale.houses, scale.days, opts.scale, opts.seed
    );
    let (clean, frames, _) = capture_pcap(&scale, opts.seed, opts.threads);
    eprintln!("# fuzz: {} frames, {} pcap bytes", count(frames as usize), count(clean.len()));

    let baseline = Monitor::process_pcap(&clean[..], MonitorConfig::default())
        .expect("clean capture parses");
    let baseline_fmt = render_logs(&baseline);

    let master = StdRng::seed_from_u64(opts.seed);
    let rates = [0.0, 0.01, 0.05, 0.2];
    let mut acceptances = Vec::new();
    let mut coverages = Vec::new();
    for (i, &rate) in rates.iter().enumerate() {
        let mut corrupted = Vec::new();
        let mut injector = FaultInjector::new(FaultConfig::uniform(rate), master.split(i as u64));
        pcapio::rewrite(&clean[..], &mut corrupted, &mut injector).expect("in-memory rewrite");
        let fs = *injector.stats();
        let logs = Monitor::process_pcap(&corrupted[..], MonitorConfig::default())
            .expect("corrupted capture still reads record-by-record");
        let analysis = Analysis::run(&logs, opts.analysis_cfg());
        let cov = analysis.coverage();

        println!("== fuzz: fault rate {rate} ==");
        println!(
            "injector: {} in / {} out — {} dropped, {} truncated, {} bit-flipped, {} duplicated, {} reordered",
            fs.frames_in, fs.frames_out, fs.dropped, fs.truncated, fs.bit_flipped, fs.duplicated, fs.reordered
        );
        print!("{}", logs.degradation);
        println!("coverage: {cov}");
        let [n, lc, p, sc, r] = shares(&analysis.class_counts());
        println!("class mix: N {n:.1}%  LC {lc:.1}%  P {p:.1}%  SC {sc:.1}%  R {r:.1}%\n");

        if rate == 0.0 {
            let same_bytes = corrupted == clean;
            check("fuzz", same_bytes, "rate-0 rewrite must be byte-identical to the capture");
            let same_logs = render_logs(&logs) == baseline_fmt;
            check("fuzz", same_logs, "rate-0 logs must be byte-identical to the clean pipeline");
            check("fuzz", logs.degradation.is_clean(), "rate-0 run must reject nothing");
        }
        acceptances.push(cov.frame_acceptance);
        coverages.push(cov.pair_coverage());
    }

    // Monotone degradation: frame acceptance tracks the rate exactly;
    // pair coverage follows with a small stochastic slack (corrupting a
    // SYN removes the connection from the denominator too).
    for i in 1..rates.len() {
        let rose = |what: &str, v: &[f64]| {
            let (lo, hi) = (rates[i - 1], rates[i]);
            format!("{what} rose between rates {lo} and {hi}: {} -> {}", v[i - 1], v[i])
        };
        check(
            "fuzz",
            acceptances[i] <= acceptances[i - 1] + 1e-9,
            &rose("frame acceptance", &acceptances),
        );
        check("fuzz", coverages[i] <= coverages[i - 1] + 0.02, &rose("pair coverage", &coverages));
    }
    let last = rates.len() - 1;
    check("fuzz", acceptances[last] < acceptances[0], "20% faults must reject frames");
    check("fuzz", coverages[last] < coverages[0], "20% faults must cost pair coverage");
    println!(
        "fuzz OK: rates {rates:?}, zero panics, monotone degradation, rate-0 byte-identical"
    );
}

/// One seed's headline statistics, a row of the multi-seed table: the
/// N/LC/P/SC/R shares, blocked share, shared-cache hit rate and the
/// significant share of all connections, percent.
type Headline = [f64; 8];

/// Run one full simulation + analysis and distill the headline numbers.
/// Each worker runs its simulation single-threaded: in a seed sweep the
/// parallelism budget is spent across seeds, not within one.
fn headline_for_seed(cfg: &WorkloadConfig, seed: u64) -> Headline {
    let out = Simulation::new(cfg.clone(), seed)
        .expect("valid config")
        .with_threads(1)
        .run();
    let mut acfg = AnalysisConfig::default();
    acfg.threads = 1;
    let analysis = Analysis::run(&out.logs, acfg);
    let c = analysis.class_counts();
    let [n, lc, p, sc, r] = shares(&c);
    let significant = analysis.significance().both_share_of_all_pct;
    [n, lc, p, sc, r, c.blocked_share_pct(), 100.0 * c.shared_hit_rate(), significant]
}

/// Multi-seed mode: run K simulations in parallel and report the spread
/// of the headline statistics — a confidence check that no conclusion
/// hangs on one lucky seed.
fn multi_seed(cfg: &WorkloadConfig, opts: &Opts) {
    // Seeds follow `--seed` and wrap past u64::MAX, as serve's tenants do.
    let seeds: Vec<u64> = (0..opts.seeds as u64).map(|k| opts.seed.wrapping_add(k)).collect();
    eprintln!(
        "# running {} seeds ({}..{}) across {} worker(s) ...",
        opts.seeds,
        seeds[0],
        seeds[seeds.len() - 1],
        xkit::par::resolve_threads(opts.threads).min(opts.seeds)
    );
    // par_map preserves input order: the rows come back seed-sorted.
    let rows: Vec<Headline> =
        xkit::par::par_map(opts.threads, seeds.clone(), |_, seed| headline_for_seed(cfg, seed));

    let mut t = Table::new(
        "headline statistics across seeds (paper: N 7.2, LC 42.9, P 7.8, SC 26.3, R 15.7; blocked 42.1; hit 62.6; signif 3.6)",
        &["seed", "N %", "LC %", "P %", "SC %", "R %", "blocked %", "hit %", "signif %"],
    );
    for (seed, h) in seeds.iter().zip(&rows) {
        let mut row = vec![seed.to_string()];
        row.extend(h.map(f1));
        t.row(&row);
    }
    let mut mean_row = vec!["mean".to_string()];
    let mut spread_row = vec!["spread".to_string()];
    for col in 0..rows[0].len() {
        let vals = rows.iter().map(|h| h[col]);
        let mean = vals.clone().sum::<f64>() / rows.len() as f64;
        let spread = vals.clone().fold(f64::NEG_INFINITY, f64::max)
            - vals.fold(f64::INFINITY, f64::min);
        mean_row.push(f1(mean));
        spread_row.push(f1(spread));
    }
    t.row(&mean_row);
    t.row(&spread_row);
    println!("{}", t.render());
}
