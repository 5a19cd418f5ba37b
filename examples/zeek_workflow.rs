//! The operator workflow: write Zeek-style conn.log / dns.log files,
//! read them back (as you would with logs from a real Zeek deployment),
//! run the paper's analysis, and print a per-house report.
//!
//! ```sh
//! cargo run --release -p dnsctx --example zeek_workflow [logdir]
//! ```

use dnsctx::dns_context::report::{count, f1, Table};
use dnsctx::dns_context::{Analysis, AnalysisConfig};
use dnsctx::pipeline;
use dnsctx::zeek_lite::{logfmt, Logs, NameTable};
use std::fs::File;
use std::io::BufWriter;
use std::path::PathBuf;

fn main() {
    let dir: PathBuf = std::env::args()
        .nth(1)
        .map(Into::into)
        .unwrap_or_else(std::env::temp_dir);
    let conn_path = dir.join("conn.log");
    let dns_path = dir.join("dns.log");

    // 1. Produce logs (stand-in for a day of Zeek output).
    let study = pipeline::quick_study(15, 0.15, 42);
    logfmt::write_conn_log(
        BufWriter::new(File::create(&conn_path).expect("create conn.log")),
        &study.logs().conns,
    )
    .expect("write conn.log");
    logfmt::write_dns_log(
        BufWriter::new(File::create(&dns_path).expect("create dns.log")),
        &study.logs().names,
        &study.logs().dns,
    )
    .expect("write dns.log");
    println!(
        "wrote {} conns -> {}\nwrote {} dns txns -> {}\n",
        count(study.logs().conns.len()),
        conn_path.display(),
        count(study.logs().dns.len()),
        dns_path.display()
    );

    // 2. Read them back, exactly as an operator with real Zeek logs would.
    let conns = logfmt::read_conn_log(File::open(&conn_path).expect("open conn.log")).expect("parse conn.log");
    let mut names = NameTable::default();
    let dns = logfmt::read_dns_log(File::open(&dns_path).expect("open dns.log"), &mut names)
        .expect("parse dns.log");
    let mut logs = Logs { conns, dns, names, ..Default::default() };
    logs.sort();

    // 3. Analyse.
    let analysis = Analysis::run(&logs, AnalysisConfig::default());
    let total = analysis.class_counts();
    println!(
        "network-wide: {:.1}% of connections block on DNS, {:.1}% pay a significant cost\n",
        total.blocked_share_pct(),
        analysis.significance().both_share_of_all_pct
    );

    // 4. Per-house operator report.
    let mut table = Table::new(
        "per-house DNS exposure (top 10 by connection count)",
        &["house", "conns", "lookups", "blocked %", "p95 blocked delay ms", "MB"],
    );
    for h in analysis.house_reports().into_iter().take(10) {
        table.row(&[
            h.addr.to_string(),
            count(h.classes.total()),
            count(h.lookups),
            f1(h.blocked_share_pct()),
            h.blocked_delay_ms
                .quantile(0.95)
                .map(|v| format!("{v:.1}"))
                .unwrap_or_else(|| "-".into()),
            format!("{:.1}", h.bytes as f64 / 1e6),
        ]);
    }
    println!("{}", table.render());

    let mut svc = Table::new("traffic by service", &["service", "conns", "MB"]);
    for (name, conns, bytes) in logs.service_breakdown().into_iter().take(8) {
        svc.row(&[name, count(conns), format!("{:.1}", bytes as f64 / 1e6)]);
    }
    println!("{}", svc.render());
}
