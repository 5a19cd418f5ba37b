//! The streamed path allocates for the rows the monitor builds and for
//! little else: a capture through the engine into the cache replay makes,
//! beyond the allocation events the monitor alone makes on the same
//! bytes, a small fraction of an event per released row, at a 30 s
//! window and in a single epoch (window 0, every row through the buffers
//! at once) alike; and the 30 s run requests at most half the bytes of
//! the single epoch, whose buffers and output grow to the whole trace.
//! Counted with the allocation counter (a `realloc` is an event), not
//! timed. One test in this binary, so nothing else allocates while it
//! measures.

use dnsctx::cache_sim::CacheReplay;
use dnsctx::ccz_sim::{ScaleKnobs, Simulation, WorkloadConfig};
use dnsctx::dns_context::{stream, AnalysisConfig};
use dnsctx::pcapio;
use dnsctx::xkit::bench::alloc::{self, CountingAlloc, StageAllocs};
use dnsctx::xkit::obs::ObsHub;
use dnsctx::zeek_lite::{Duration, Monitor, MonitorConfig};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// What one whole streamed run at `window` allocated, hub attached and
/// replay fed as `repro stream` does, and the rows it released.
fn streamed(pcap: &[u8], window: Duration) -> (StageAllocs, usize) {
    let hub = ObsHub::default();
    let ((rows, hits), spent) = alloc::measure(|| {
        let mut replay = CacheReplay::new(Duration::from_secs(60));
        let mut rows = 0usize;
        let result = stream::process_source_observed(
            &mut pcapio::source::file(pcap).expect("pcap header"),
            window,
            MonitorConfig::default(),
            AnalysisConfig::default(),
            Some(&hub),
            |released| {
                rows += released.conns.len() + released.dns.len();
                for txn in &released.dns {
                    replay.offer(txn);
                }
            },
        )
        .expect("in-memory capture");
        rows += result.tail.conns.len() + result.tail.dns.len();
        for txn in &result.tail.dns {
            replay.offer(txn);
        }
        (rows, replay.hits())
    });
    assert!(hits > 0, "the replay absorbed nothing");
    (spent, rows)
}

#[test]
fn the_streamed_run_allocates_little_more_than_its_monitor() {
    let cfg = WorkloadConfig {
        scale: ScaleKnobs { houses: 12, days: 0.2, activity: 1.0 },
        ..WorkloadConfig::default()
    };
    let mut pcap = Vec::new();
    let (_truth, frames) =
        Simulation::new(cfg, 7).expect("valid workload config").run_pcap(&mut pcap, 600).unwrap();
    assert!(frames > 50_000, "capture too small to amortise what is fixed: {frames} frames");

    let (logs, monitor) = alloc::measure(|| {
        let mut source = pcapio::source::file(&pcap[..]).expect("pcap header");
        Monitor::process_source(&mut source, MonitorConfig::default()).expect("in-memory capture")
    });
    let rows = logs.conns.len() + logs.dns.len();
    drop(logs);

    let (w30, w30_rows) = streamed(&pcap, Duration::from_secs(30));
    let (w0, w0_rows) = streamed(&pcap, Duration::ZERO);
    assert_eq!((w30_rows, w0_rows), (rows, rows), "every row is released once");

    // The engine's own events, per released row: the slabs, maps, heaps
    // and lent output of its peak, the flight ring's first 256 events and
    // the replay's map doublings. Bounded per row, not as a multiple of
    // the monitor's events, which fall whenever the monitor gets cheaper.
    // Measured 0.0167 at 30 s and 0.0102 in one epoch, since index runs
    // live in size-class slabs. With a vector per spilled run drawn from
    // a pool of spares it read 0.043 and 0.114; with two output vectors
    // and a `String` per flight event each epoch, and a run vector kept by
    // every key that ever held two, 0.141 at 30 s (4 152 events over
    // 29 358 rows), and with a `String` per live name in the replay 0.19.
    // (With a fresh row vector per epoch, a B-tree node per six buffered
    // rows, a `Vec` per index key and a `String` per cache miss the whole
    // run read x 2.05 the monitor's.)
    for (window, spent, bound) in [("a 30 s window", w30, 0.025), ("one epoch", w0, 0.02)] {
        let own = spent.allocs.saturating_sub(monitor.allocs) as f64 / rows as f64;
        assert!(
            own <= bound,
            "{} allocation events streamed in {window}, {} in the monitor alone: {own:.4} per row over {rows}",
            spent.allocs,
            monitor.allocs
        );
    }
    // One epoch grows its heaps and output to the whole trace; a window
    // holds a window's worth and reuses it. (Measured 3.14 MB against
    // 40.9 MB. Until index runs moved into slabs this compared events,
    // which the single epoch's per-key run vectors dominated.)
    assert!(
        w30.bytes as f64 <= 0.5 * w0.bytes as f64,
        "{} bytes requested at a 30 s window, {} in one epoch",
        w30.bytes,
        w0.bytes
    );
}
