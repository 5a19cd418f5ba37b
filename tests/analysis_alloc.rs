//! What the batch analysis requests from the heap is sized by what its
//! stages read: the pairing arena, the outcome vectors, and one column
//! per scanned field (`zeek_lite::columns`) — not a copy of every log
//! field, nor of the index entries before they are placed. Counted with
//! the allocation counter (a `realloc` is an event), not timed. One test
//! in this binary, so nothing else allocates while it measures.

use dnsctx::dns_context::{Analysis, AnalysisConfig, Pairing};
use dnsctx::pipeline::quick_study;
use dnsctx::xkit::bench::alloc::{self, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn the_batch_run_allocates_for_what_it_reads() {
    let study = quick_study(12, 0.5, 42);
    let logs = study.logs();
    let rows = (logs.conns.len() + logs.dns.len()) as u64;
    assert!(rows > 10_000, "world too small to amortise the fixed allocations: {rows} rows");

    let cfg = AnalysisConfig { threads: 1, ..AnalysisConfig::default() };
    let (blocked, spent) = alloc::measure(|| {
        let analysis = Analysis::run(logs, cfg);
        let blocked = analysis.perf().blocked.len();
        let _ = analysis.ttl_stats();
        blocked
    });
    assert!(blocked > 0, "nothing blocked, §6 did not run");

    // With all 16 conn.log fields and 6 dns.log scalars projected this
    // read 265.6 B per row in 162 events; the six scanned columns read
    // 203.2 B in 145. Indexing the dns log in place (no staged copy of
    // its keyed entries), 48 B pairs and exactly-sized §6 vectors read
    // 117.8 B in 90 (114.5 B in 91 when re-measured beside the next
    // step). Pairing as a sort-merge join by client, with no per-key map,
    // reads 101.7 B in 75.
    let per_row = spent.bytes as f64 / rows as f64;
    assert!(
        per_row <= 130.0 && spent.allocs <= 100,
        "{per_row:.1} B per log row in {} allocation events over {rows} rows",
        spent.allocs
    );

    // Pairing alone allocates per client, not per row or per key: the
    // same twelve houses at four times the activity cost the same
    // number of events (14 at both; the per-key index made 30 and 32).
    let pairing_events = |logs: &dnsctx::zeek_lite::Logs| {
        let policy = AnalysisConfig::default().policy;
        alloc::measure(|| Pairing::build(&logs.conns, &logs.dns, policy).pairs.len()).1.allocs
    };
    let busier = quick_study(12, 2.0, 42);
    let busier_rows = (busier.logs().conns.len() + busier.logs().dns.len()) as u64;
    assert!(busier_rows > 3 * rows, "{busier_rows} rows against {rows}");
    let (quiet, busy) = (pairing_events(logs), pairing_events(busier.logs()));
    assert_eq!(quiet, busy, "pairing allocation events at {rows} and at {busier_rows} rows");
}
