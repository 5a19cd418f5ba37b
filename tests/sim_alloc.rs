//! The simulator's packet backend allocates for the world it builds and
//! for buffer doublings, not per frame: a run three times as long makes
//! within a couple of hundred allocation events of the short one, the
//! ring door makes no more than the file door, and the fixed cost of a
//! run (the name universe, the resolver caches, the houses) stays small.
//! Counted with the allocation counter (a `realloc` is an event), not
//! timed. One test in this binary, so nothing else allocates while it
//! measures.

use dnsctx::ccz_sim::{ScaleKnobs, Simulation, WorkloadConfig};
use dnsctx::pcapio::ring::{self, Backpressure};
use dnsctx::pcapio::RecordSource;
use dnsctx::xkit::bench::alloc::{self, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const SNAPLEN: u32 = 65_535;

/// One `serve-ring` tenant of the ladder, at `days` of trace.
fn sim(days: f64) -> Simulation {
    let cfg = WorkloadConfig {
        scale: ScaleKnobs { houses: 12, days, activity: 1.0 },
        ..WorkloadConfig::default()
    };
    Simulation::new(cfg, 7_000).expect("valid workload config").with_threads(1)
}

/// Allocation events and frames of one `run_pcap` into a `Vec` that is
/// already large enough.
fn pcap_run(days: f64) -> (u64, u64) {
    let sim = sim(days);
    let mut bytes = Vec::with_capacity(32 << 20);
    let ((_truth, frames), spent) =
        alloc::measure(|| sim.run_pcap(&mut bytes, SNAPLEN).expect("in-memory pcap"));
    assert!(bytes.len() < 32 << 20, "the output vector grew inside the measurement");
    (spent.allocs, frames)
}

#[test]
fn the_packet_backend_allocates_per_run_not_per_frame() {
    let (short, short_frames) = pcap_run(0.1);
    let (long, long_frames) = pcap_run(0.4);
    assert!(short_frames > 40_000 && long_frames > 3 * short_frames, "{short_frames} / {long_frames} frames");
    // Arena, index and table doublings; a `Vec` per frame is 100 000 here.
    assert!(
        long.abs_diff(short) < 200,
        "{} more frames cost {} more allocation events ({short} -> {long})",
        long_frames - short_frames,
        long.abs_diff(short)
    );
    // The world: ~6 000 hostnames in one text arena, 500 CNAME targets
    // built once, one cache table per resolver platform, the houses. A
    // `String` or a `Vec` per hostname is thousands of events.
    assert!(short <= 1_000, "a run's fixed cost: {short} events for {short_frames} frames");

    // The ring door: the same frames into a consumer that only counts.
    let sim = sim(0.1);
    let (mut tx, mut rx) = ring::channel(1 << 20, SNAPLEN, Backpressure::Block);
    let ((read, offered), ring) = alloc::measure(|| {
        dnsctx::xkit::par::join(
            2,
            || {
                let mut read = 0u64;
                while rx.next().expect("ring read").is_some() {
                    read += 1;
                }
                read
            },
            move || sim.run_ring(&mut tx).1,
        )
    });
    assert_eq!((read, offered), (short_frames, short_frames));
    // Spawning the producer's thread is the slack.
    assert!(ring.allocs <= short + 20, "ring door {} events, file door {short}", ring.allocs);
}
