//! The simulator's packet backend allocates for the world it builds and
//! for buffer doublings, not per frame: a run three times as long makes
//! within a couple of hundred allocation events of the short one, the
//! ring door makes no more than the file door, and the fixed cost of a
//! run (the name universe, the resolver caches, the houses) stays small.
//! Frames leave as soon as they are final, so what the producer holds
//! live follows the connections open at once, not the capture's length.
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
const MIB: u64 = 1 << 20;

/// `houses` homes of a `serve-ring` tenant of the ladder, at `days` of
/// trace, on one thread.
fn sim(houses: usize, days: f64) -> Simulation {
    let cfg = WorkloadConfig {
        scale: ScaleKnobs { houses, days, activity: 1.0 },
        ..WorkloadConfig::default()
    };
    Simulation::new(cfg, 7_000).expect("valid workload config").with_threads(1)
}

/// Allocation events and frames of one `run_pcap` into a `Vec` that is
/// already large enough.
fn pcap_run(days: f64) -> (u64, u64) {
    let sim = sim(12, days);
    let mut bytes = Vec::with_capacity(32 << 20);
    let ((_truth, frames), spent) =
        alloc::measure(|| sim.run_pcap(&mut bytes, SNAPLEN).expect("in-memory pcap"));
    assert!(bytes.len() < 32 << 20, "the output vector grew inside the measurement");
    (spent.allocs, frames)
}

/// One `run_ring` into a consumer that only counts: the frames, the
/// allocation events, and the peak bytes live above what was live
/// before (the ring's own buffer is allocated outside).
fn ring_run(sim: Simulation) -> (u64, u64, u64) {
    let (mut tx, mut rx) = ring::channel(1 << 20, SNAPLEN, Backpressure::Block);
    let before = alloc::snapshot().live;
    let ((read, offered), spent) = alloc::measure(|| {
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
    assert_eq!(read, offered, "the consumer reads every offered frame");
    (offered, spent.allocs, spent.peak_live - before)
}

#[test]
fn the_packet_backend_allocates_per_run_not_per_frame() {
    let (short, short_frames) = pcap_run(0.1);
    let (long, long_frames) = pcap_run(0.4);
    assert!(short_frames > 40_000 && long_frames > 3 * short_frames, "{short_frames} / {long_frames} frames");
    // Arena, index and table doublings; a `Vec` per frame is 100 000
    // here, and one per 60 s slice several hundred.
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
    let (offered, ring_allocs, _) = ring_run(sim(12, 0.1));
    assert_eq!(offered, short_frames);
    // Spawning the producer's thread is the slack.
    assert!(ring_allocs <= short + 20, "ring door {ring_allocs} events, file door {short}");

    // What the producer holds live. Holding the whole capture until its
    // end took 26.9 MiB at 12 houses x 0.4 day and 149 MiB at 50 houses
    // x 0.5 day (two shards); what is left grows with the ground truth.
    let (offered, _, peak) = ring_run(sim(12, 0.4));
    assert_eq!(offered, long_frames);
    assert!(peak < 4 * MIB, "12 houses x 0.4 day: {:.2} MiB live at peak", peak as f64 / MIB as f64);
    let (_, _, peak) = ring_run(sim(50, 0.5));
    assert!(peak < 16 * MIB, "50 houses x 0.5 day: {:.2} MiB live at peak", peak as f64 / MIB as f64);
}
