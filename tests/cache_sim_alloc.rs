//! What §8's batch replays request from the heap is sized by the tables
//! they keep — a TTL per name id, the needs, one packed-key cache per
//! policy — not by the rows they replay: a lookup that misses costs a
//! map slot, never a `String`. Counted with the
//! allocation counter (a `realloc` is an event), not timed. One test in
//! this binary, so nothing else allocates while it measures.

use dnsctx::cache_sim;
use dnsctx::pipeline::quick_study;
use dnsctx::xkit::bench::alloc::{self, CountingAlloc};
use dnsctx::zeek_lite::Duration;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocation events of `whole_house` + `refresh` over one simulated day.
fn events(activity: f64) -> (u64, usize) {
    let study = quick_study(12, activity, 42);
    let analysis = study.analysis();
    let (moved, spent) = alloc::measure(|| {
        let moved = cache_sim::whole_house(study.logs(), &analysis).moved;
        let _ = cache_sim::refresh(study.logs(), &analysis, Duration::from_secs(10));
        moved
    });
    assert!(moved > 0, "nothing moved, the replay did not run");
    (spent.allocs, study.logs().dns.len())
}

#[test]
fn the_batch_replays_allocate_for_their_tables_not_their_rows() {
    // Measured: 30 events over 17 070 dns rows, then 31 over 31 599 (the
    // maps double a few more times). Interning the names once per call
    // read 75 and 78; the replay before that cloned the name of every
    // lookup that missed: 15 680 events, then 28 406.
    const BOUND: u64 = 40;
    let (half, half_rows) = events(0.5);
    let (full, full_rows) = events(1.0);
    assert!(full_rows > half_rows * 3 / 2, "{half_rows} then {full_rows} dns rows: not a bigger day");
    assert!(
        half <= BOUND && full <= BOUND,
        "{half} allocation events over {half_rows} dns rows, {full} over {full_rows}; bound {BOUND}"
    );
}
