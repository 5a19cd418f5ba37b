//! `serve-ring`: the serve daemon with four simulator-fed ring tenants,
//! under a scraper on a 100 ms schedule.
//!
//! The only workload where `ccz-sim` as live producer, `pcapio::ring`,
//! `xkit::par::Pool`, `HubRegistry::aggregate` and `xkit::obs::http` do
//! work. Record = frame.

use crate::harness::{pool_width, span_median_s, standalone, Workload, REP_ROOT};
use crate::layers::{
    collect_frames, drive_monitor, drive_stream, median_us, monitor_layers, obs_passes, stage,
    stream_layers, wire_passes, MemSource, MONITOR_PASS, SNAPLEN,
};
use crate::metrics::Layers;
use crate::stats::{median, percentile_with_ten_beyond};
use bench::serve::{run_tenant, sequential_aggregate, Daemon, DaemonConfig, TenantSpec};
use dnsctx::pcapio::ring::{self, PushOutcome};
use dnsctx::pcapio::{Backpressure, PcapRecord, RecordSource};
use dnsctx::zeek_lite::Duration;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use xkit::bench::alloc;
use xkit::obs::{clock, http, HubRegistry, Metrics, ObsHub, SpanLog};

const TENANTS: u64 = 4;
const HOUSES: usize = 12;
const DAYS: f64 = 0.1;
const ACTIVITY: f64 = 1.0;
/// Ring capacity and epoch window `TenantSpec::sim` gives its tenants.
const RING_BYTES: usize = 1 << 18;
const WINDOW: Duration = Duration::from_secs(60);
const SCRAPE_PERIOD: std::time::Duration = std::time::Duration::from_millis(100);

fn specs(seed: u64) -> Vec<TenantSpec> {
    (0..TENANTS)
        .map(|k| TenantSpec::sim(&format!("t{k}"), HOUSES, DAYS, ACTIVITY, seed + k))
        .collect()
}

// ---------------------------------------------------------------------
// the scraper
// ---------------------------------------------------------------------

#[derive(Default)]
struct ScrapeLog {
    /// Completion time minus due time of every scrape sent.
    latency_ms: Vec<f64>,
    failures: u64,
}

struct ScrapeShared {
    /// Address of the daemon to scrape; `None` between repetitions. Held
    /// for the length of a scrape, so the daemon is never shut down
    /// under a request in flight.
    target: Mutex<Option<String>>,
    log: Mutex<ScrapeLog>,
    stop: AtomicBool,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().expect("scraper state is only ever replaced whole")
}

/// One connection at a time GETs root `/metrics` every 100 ms, open
/// loop: each scrape is due on the schedule whatever the last one took,
/// and its latency runs from the due time, so a stall shows in every
/// scrape it delayed. A tick with no daemon up is not sent.
struct Scraper {
    shared: Arc<ScrapeShared>,
    thread: Option<JoinHandle<()>>,
}

impl Scraper {
    fn start() -> Scraper {
        let shared = Arc::new(ScrapeShared {
            target: Mutex::new(None),
            log: Mutex::new(ScrapeLog::default()),
            stop: AtomicBool::new(false),
        });
        let thread_shared = Arc::clone(&shared);
        let thread = std::thread::Builder::new()
            .name("bench-scraper".into())
            .spawn(move || scrape_loop(&thread_shared))
            .expect("spawn scraper");
        Scraper {
            shared,
            thread: Some(thread),
        }
    }

    /// Point the scraper at a daemon, or at nothing. Waits for a scrape
    /// in flight: at most one scrape's latency, never the period.
    fn set_target(&self, addr: Option<String>) {
        *lock(&self.shared.target) = addr;
    }

    fn stop(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(thread) = self.thread.take() {
            thread.join().expect("scraper thread panicked");
        }
    }
}

impl Drop for Scraper {
    fn drop(&mut self) {
        self.stop();
    }
}

fn scrape_loop(shared: &ScrapeShared) {
    let start = clock::now();
    for tick in 0u32.. {
        let due = SCRAPE_PERIOD * tick;
        if let Some(wait) = due.checked_sub(start.elapsed()) {
            std::thread::sleep(wait);
        }
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        let target = lock(&shared.target);
        let Some(addr) = target.as_deref() else {
            continue;
        };
        let ok = matches!(http::get(addr, "/metrics"), Ok((200, _)));
        let latency_ms = (start.elapsed().saturating_sub(due)).as_secs_f64() * 1e3;
        drop(target);
        let mut log = lock(&shared.log);
        log.latency_ms.push(latency_ms);
        log.failures += u64::from(!ok);
    }
}

// ---------------------------------------------------------------------
// the workload
// ---------------------------------------------------------------------

pub struct ServeRing {
    seed: u64,
    specs: Vec<TenantSpec>,
    /// `sequential_aggregate(&specs)`: what every repetition must equal.
    reference: Metrics,
    reference_json: String,
    scraper: Scraper,
    /// Frames the ring lost (offered by the simulators, never read).
    dropped: u64,
}

pub struct ServeOut {
    aggregate: Metrics,
    panicked: u64,
}

impl ServeRing {
    fn run(&mut self, mut spans: Option<&mut SpanLog>) -> ServeOut {
        let cfg = DaemonConfig {
            threads: pool_width(),
            serve: Some("127.0.0.1:0".to_string()),
            ..DaemonConfig::default()
        };
        let daemon = stage(&mut spans, "bench.serve.new", || {
            Daemon::new(cfg).expect("bind loopback")
        });
        self.scraper
            .set_target(daemon.addr().map(|addr| addr.to_string()));
        stage(&mut spans, "bench.serve.add_tenants", || {
            for spec in &self.specs {
                daemon
                    .add_tenant(spec.clone())
                    .expect("distinct tenant ids");
            }
        });
        stage(&mut spans, "bench.serve.drain", || daemon.drain());
        let panicked = daemon.panicked();
        self.scraper.set_target(None);
        let aggregate = stage(&mut spans, "bench.serve.shutdown", || daemon.shutdown());
        ServeOut {
            aggregate,
            panicked,
        }
    }
}

impl Workload for ServeRing {
    const NAME: &'static str = "serve-ring";
    type Input = Metrics;
    type Output = ServeOut;

    /// Set-up builds the expected output: the single-threaded fold of
    /// the same tenants, simulators included.
    fn build_input(seed: u64) -> Metrics {
        sequential_aggregate(&specs(seed))
    }

    fn prepare(seed: u64, reference: Metrics) -> ServeRing {
        ServeRing {
            seed,
            specs: specs(seed),
            reference_json: reference.to_json(),
            reference,
            scraper: Scraper::start(),
            dropped: 0,
        }
    }

    fn records(&self) -> u64 {
        self.reference.counter("capture.frames_read")
    }

    fn input_bytes(&self) -> u64 {
        self.reference.counter("capture.bytes_read")
    }

    fn rep(&mut self) -> ServeOut {
        self.run(None)
    }

    fn check(&mut self, out: ServeOut) -> bool {
        let offered = out.aggregate.counter("sim.frames_written");
        let read = out.aggregate.counter("capture.frames_read");
        self.dropped += offered.saturating_sub(read);
        out.panicked == 0 && offered == read && out.aggregate.to_json() == self.reference_json
    }

    fn traced_rep(&mut self, spans: &mut SpanLog) -> ServeOut {
        self.run(Some(spans))
    }

    fn layers(&mut self, spans: &mut SpanLog, setup_s: f64, out: &mut Layers) {
        out.set("bench.serve.sequential_s", setup_s);
        out.set(
            "bench.serve.drain_s",
            span_median_s(spans, REP_ROOT, "bench.serve.drain"),
        );
        out.set(
            "bench.serve.shutdown_s",
            span_median_s(spans, REP_ROOT, "bench.serve.shutdown"),
        );
        out.set(
            "bench.serve.speedup_x",
            setup_s / out.get("e2e.rep_s_median"),
        );

        {
            let log = lock(&self.scraper.shared.log);
            out.set("xkit.obs.http.scrape_ms_p50", median(&log.latency_ms));
            out.set(
                "xkit.obs.http.scrape_ms_p90",
                percentile_with_ten_beyond(&log.latency_ms, 90.0).0,
            );
            out.set("xkit.obs.http.scrapes", log.latency_ms.len() as f64);
            out.set("xkit.obs.http.scrape_failures", log.failures as f64);
        }

        // The registry as it stands after a drain: one settled hub per
        // tenant, folded on every root scrape.
        let registry = HubRegistry::new();
        for spec in &self.specs {
            let hub = ObsHub::default();
            hub.publish_metrics(run_tenant(spec, None));
            registry.add(&spec.id, hub).expect("distinct tenant ids");
        }
        out.set(
            "xkit.obs.tenants.aggregate_us",
            median_us(|| registry.aggregate()),
        );
        obs_passes(&registry.aggregate(), out);

        // The simulators as live producers, against a consumer that only
        // counts: generation plus the push side of the ring.
        let sims = || (0..TENANTS).map(|k| bench::sim(HOUSES, DAYS, ACTIVITY, self.seed + k));
        let (run_ring_s, (frames, allocs)) =
            standalone(spans, "standalone.ccz-sim.run_ring", |_| {
                let allocs_before = alloc::snapshot().allocs;
                let mut frames = 0u64;
                for sim in sims() {
                    let (mut tx, mut rx) = ring::channel(RING_BYTES, SNAPLEN, Backpressure::Block);
                    let (read, _) = xkit::par::join(
                        2,
                        || {
                            let mut read = 0u64;
                            while rx.next().expect("ring read").is_some() {
                                read += 1;
                            }
                            read
                        },
                        move || sim.run_ring(&mut tx).1,
                    );
                    frames += read;
                }
                (frames, alloc::snapshot().allocs - allocs_before)
            });
        out.set("ccz-sim.run_ring_s", run_ring_s);
        out.set("ccz-sim.frames", frames as f64);
        out.set(
            "ccz-sim.allocs_per_kframe",
            allocs as f64 * 1e3 / frames as f64,
        );

        // The same records, already decoded, for the layers below.
        let mut all_frames: Vec<PcapRecord> = Vec::new();
        let mut bounds = vec![0usize];
        for sim in sims() {
            let (mut tx, mut rx) = ring::channel(RING_BYTES, SNAPLEN, Backpressure::Block);
            let (delivered, _) = xkit::par::join(
                2,
                || collect_frames(&mut rx),
                move || sim.run_ring(&mut tx).1,
            );
            all_frames.extend(delivered);
            bounds.push(all_frames.len());
        }
        let tenants: Vec<&[PcapRecord]> =
            bounds.windows(2).map(|w| &all_frames[w[0]..w[1]]).collect();

        // A bare ring hop: records pushed under `Block` to a consumer
        // that only counts. The clock is read on the blocked path only.
        let (hop_s, (push_wait_s, hop_dropped)) =
            standalone(spans, "standalone.pcapio.ring.hop", |_| {
                let (mut push_wait_s, mut dropped) = (0.0, 0u64);
                for frames in &tenants {
                    let (mut tx, mut rx) = ring::channel(RING_BYTES, SNAPLEN, Backpressure::Block);
                    let (_, (wait_s, lost)) = xkit::par::join(
                        2,
                        || while rx.next().expect("ring read").is_some() {},
                        move || {
                            let mut wait_s = 0.0;
                            for f in *frames {
                                if tx.try_push(f.ts_nanos, f.orig_len, &f.data)
                                    == PushOutcome::WouldBlock
                                {
                                    let blocked = clock::now();
                                    tx.push(f.ts_nanos, f.orig_len, &f.data);
                                    wait_s += blocked.elapsed_secs();
                                }
                            }
                            (wait_s, tx.dropped())
                        },
                    );
                    push_wait_s += wait_s;
                    dropped += lost;
                }
                (push_wait_s, dropped)
            });
        out.set("pcapio.ring.hop_s", hop_s);
        out.set("pcapio.ring.records_per_s", frames as f64 / hop_s);
        out.set("pcapio.ring.push_wait_s", push_wait_s);
        out.set("pcapio.ring.dropped", (self.dropped + hop_dropped) as f64);

        let inner_s = wire_passes(spans, &all_frames, out);

        // Each tenant's monitor and engine, one after another on this
        // thread, on the frames its ring delivered.
        let (_, (rows, allocs)) = standalone(spans, MONITOR_PASS, |spans| {
            let (mut rows, mut allocs) = ([0usize; 2], 0u64);
            for frames in &tenants {
                let (logs, stage_allocs) = drive_monitor(spans, &mut MemSource::new(frames));
                rows[0] += logs.conns.len();
                rows[1] += logs.dns.len();
                allocs += stage_allocs;
            }
            (rows, allocs)
        });
        monitor_layers(spans, MONITOR_PASS, frames, rows, allocs, &inner_s, out);

        const STREAM_PASS: &str = "standalone.dns-context.stream";
        let hub = ObsHub::default();
        let (_, drives) = standalone(spans, STREAM_PASS, |spans| {
            tenants
                .iter()
                .map(|frames| drive_stream(spans, &mut MemSource::new(frames), WINDOW, Some(&hub)))
                .collect::<Vec<_>>()
        });
        stream_layers(spans, STREAM_PASS, &drives, out);
    }

    fn finish(mut self) -> (u64, u64) {
        self.scraper.stop();
        let log = lock(&self.scraper.shared.log);
        (log.latency_ms.len() as u64, log.failures)
    }
}
