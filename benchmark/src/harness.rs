//! The method every workload is measured by: build the inputs (set-up,
//! timed), then repeat the operation back-to-back in a closed loop from
//! this one process for the window, rotating through the inputs and
//! checking every repetition's output. Timing metrics are medians of
//! repetitions, taken at the host's full speed (see [`host`]);
//! allocation metrics come from the counting allocator, read around each
//! repetition.

use crate::metrics::Layers;
use crate::stats::{self, median, quartiles, span_self_ns, PROBE_NOTE};
use std::hint::black_box;
use xkit::bench::alloc;
use xkit::obs::{clock, SpanLog};

/// Name of the root span of every traced repetition.
pub const REP_ROOT: &str = "rep";

/// Inputs a run generates from its seed and rotates its repetitions
/// through. Allocation and timing figures per record differ by several
/// percent from one simulated trace to the next (the name universe is
/// drawn once per trace), so one trace per run would make every metric
/// carry that draw; five cut it by more than half. An odd count, so the
/// median set-up time is one that was measured.
pub const INPUTS: usize = 5;

/// Heap touched once before anything is timed: more than a run's set-up
/// and inputs need together. This host backs a guest page on first touch,
/// at up to 10 us a page once the guest has sat idle for some seconds, so
/// the same build took 0.23 s or 0.78 s by what ran before it; with the
/// pages touched beforehand it takes 0.27 to 0.40 s. Users pay that cost
/// to their hypervisor, not to this program.
const WARM_UP_BYTES: usize = 1 << 30;

fn warm_up_memory() {
    let mut block = vec![0u8; WARM_UP_BYTES];
    for page in block.chunks_mut(4096) {
        page[0] = 1;
    }
    black_box(&block);
}

/// Share of a traced run's window spent on untraced repetitions, and on
/// traced ones; the standalone layer passes take what is left.
const TRACE_WINDOW_SHARE: f64 = 0.3;

/// The seed of a run's `k`-th input. Every run owns a block of 1000
/// seeds and every input 100 of them (`serve-ring` gives each tenant its
/// own), so runs with neighbouring `--seed` values share no trace.
pub fn input_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_mul(1000).wrapping_add(100 * k as u64)
}

/// The host's speed, sampled beside everything that is timed.
///
/// This benchmark's host runs in one of two states — the same dependent
/// integer arithmetic takes 1.27x longer in the slow one — and switches
/// between them every few seconds, so the median of a window's plain
/// wall-clock times lands in either state from run to run (±25 %). A
/// probe of fixed work runs before and after each timed call; the ratio
/// of their mean to the fastest probe the process has seen is the
/// slowdown the host imposed on that call, and the call's time divided
/// by it is its time at the host's full speed. On a quiet host every
/// probe reads the same and nothing changes.
pub mod host {
    use std::hint::black_box;
    use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
    use xkit::obs::clock;

    /// Length of the dependent multiply-add chain: about a millisecond,
    /// long against timer resolution, short against a repetition.
    const PROBE_STEPS: u64 = 6_000_000;

    /// Nanoseconds of the fastest probe so far (a statistic: it
    /// publishes no other data).
    static FASTEST_NS: AtomicU64 = AtomicU64::new(u64::MAX);

    /// Run the probe; returns its seconds.
    pub fn probe() -> f64 {
        let t = clock::now();
        let mut x = black_box(1u64);
        for i in 0..PROBE_STEPS {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
        }
        black_box(x);
        let ns = t.elapsed_ns().max(1);
        FASTEST_NS.fetch_min(ns, Relaxed);
        ns as f64 / 1e9
    }

    /// Seconds of the fastest probe so far (probes once if none ran).
    pub fn fastest_probe_s() -> f64 {
        if FASTEST_NS.load(Relaxed) == u64::MAX {
            probe();
        }
        FASTEST_NS.load(Relaxed) as f64 / 1e9
    }

    /// The factor that takes a time measured beside probes of `probe_s`
    /// seconds to the host's full speed.
    pub fn speed(probe_s: f64) -> f64 {
        fastest_probe_s() / probe_s
    }
}

/// A timed call with the host-speed probes either side of it.
pub struct Probed<T> {
    pub out: T,
    /// Wall-clock seconds of the call.
    pub secs: f64,
    /// Mean seconds of the two probes.
    pub probe_s: f64,
}

impl<T> Probed<T> {
    /// The factor that takes a time measured inside the call to the
    /// host's full speed.
    pub fn speed(&self) -> f64 {
        host::speed(self.probe_s)
    }

    /// The call's seconds at the host's full speed.
    fn full_speed_secs(&self) -> f64 {
        self.secs * self.speed()
    }
}

/// Time `f`, probing the host before and after.
pub fn probed<T>(f: impl FnOnce() -> T) -> Probed<T> {
    let before = host::probe();
    let t = clock::now();
    let out = black_box(f());
    let secs = t.elapsed_secs();
    Probed {
        out,
        secs,
        probe_s: (before + host::probe()) / 2.0,
    }
}

/// Run `f` under a top-level span, probing the host before and after;
/// the probes' mean is noted on the span, so times read from the spans
/// below it can be taken at full speed too.
pub fn probed_span<T>(
    spans: &mut SpanLog,
    name: &str,
    f: impl FnOnce(&mut SpanLog) -> T,
) -> Probed<T> {
    let before = host::probe();
    let id = spans.start(name);
    let out = black_box(f(spans));
    spans.finish(id);
    let probe_s = (before + host::probe()) / 2.0;
    spans.note(id, PROBE_NOTE, probe_s);
    Probed {
        out,
        secs: spans.wall_ns(id) as f64 / 1e9,
        probe_s,
    }
}

/// Median over the repetitions under top-level spans called `root` of the
/// full-speed seconds each spent in spans called `name`.
pub fn span_median_s(spans: &SpanLog, root: &str, name: &str) -> f64 {
    stats::span_median_s(spans.records(), root, name, host::fastest_probe_s())
}

/// One of the four named workloads, over one generated input.
pub trait Workload: Sized {
    const NAME: &'static str;
    /// What set-up generates from the seed.
    type Input;
    /// What one repetition hands to the output check.
    type Output;

    /// Generate the input. Timed: this is `setup_s`.
    fn build_input(seed: u64) -> Self::Input;
    /// Everything else needed before the window opens (reference
    /// outputs, background load). Not timed.
    fn prepare(seed: u64, input: Self::Input) -> Self;
    /// Records one repetition processes (the workload's natural record).
    fn records(&self) -> u64;
    /// Size of the generated input.
    fn input_bytes(&self) -> u64;
    /// The timed operation: calls into the crates' public functions only.
    fn rep(&mut self) -> Self::Output;
    /// The output check, run on every repetition.
    fn check(&mut self, out: Self::Output) -> bool;
    /// The same pipeline driven stage by stage, one span per public
    /// call; the harness nests them under one root span per repetition.
    fn traced_rep(&mut self, spans: &mut SpanLog) -> Self::Output;
    /// Fill the per-layer metrics from the traced repetitions' spans
    /// plus standalone passes over leaf layers. `setup_s` is the median
    /// set-up time at full speed, like every time among the layers.
    fn layers(&mut self, spans: &mut SpanLog, setup_s: f64, out: &mut Layers);
    /// Operations attempted and failed outside the repetitions
    /// (background load). Ends that load.
    fn finish(self) -> (u64, u64) {
        (0, 0)
    }
}

/// What the window measured in one repetition.
struct Sample {
    input: usize,
    secs: f64,
    probe_s: f64,
    allocs: f64,
    alloc_bytes: f64,
    peak_live: f64,
}

impl Sample {
    /// How much longer than its fastest the host's probe took beside
    /// this repetition.
    fn slowdown(&self) -> f64 {
        1.0 / host::speed(self.probe_s)
    }

    fn full_speed_secs(&self) -> f64 {
        self.secs * host::speed(self.probe_s)
    }
}

/// What the window measured.
#[derive(Default)]
pub struct Reps {
    samples: Vec<Sample>,
    pub failed: u64,
}

impl Reps {
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    fn all(&self, value: impl Fn(&Sample) -> f64) -> Vec<f64> {
        self.samples.iter().map(value).collect()
    }

    /// What one round through the inputs costs: per input, the median of
    /// `value` over its repetitions, summed.
    fn per_round(&self, inputs: usize, value: impl Fn(&Sample) -> f64) -> f64 {
        (0..inputs)
            .map(|input| {
                let own: Vec<f64> = self
                    .samples
                    .iter()
                    .filter(|s| s.input == input)
                    .map(&value)
                    .collect();
                median(&own)
            })
            .sum()
    }
}

/// Repeat `run` back-to-back, input after input in rotation, until
/// `seconds` have passed and every input has run; each output goes to
/// `check`. Only `run`'s own timed call counts.
pub fn closed_loop<S, T>(
    seconds: f64,
    inputs: usize,
    state: &mut S,
    run: impl Fn(&mut S, usize) -> Probed<T>,
    check: impl Fn(&mut S, usize, T) -> bool,
) -> Reps {
    let mut reps = Reps::default();
    let window = clock::now();
    for input in (0..inputs).cycle() {
        alloc::reset_peak();
        let before = alloc::snapshot();
        let timed = run(state, input);
        let after = alloc::snapshot();
        reps.samples.push(Sample {
            input,
            secs: timed.secs,
            probe_s: timed.probe_s,
            allocs: (after.allocs - before.allocs) as f64,
            alloc_bytes: (after.bytes - before.bytes) as f64,
            peak_live: after.peak.saturating_sub(before.live) as f64,
        });
        if !check(state, input, timed.out) {
            reps.failed += 1;
        }
        if window.elapsed_secs() >= seconds && reps.len() >= inputs {
            break;
        }
    }
    reps
}

/// Run-level facts recorded next to the metrics.
pub struct Meta {
    pub seed: u64,
    pub seconds: f64,
    pub nproc: usize,
    pub analysis_threads: usize,
    pub pool_width: usize,
    /// Inputs the repetitions rotated through.
    pub inputs: usize,
    /// Records and bytes of those inputs together.
    pub records: u64,
    pub input_bytes: u64,
    /// Wall-clock seconds of each input's build.
    pub setup_builds_s: Vec<f64>,
    /// `[q1, median, q3]` and fastest of the untraced repetitions'
    /// wall-clock times, as measured (not taken to full speed).
    pub rep_wall_s: [f64; 3],
    pub rep_wall_s_best: f64,
    pub reps: usize,
    /// Seconds of the fastest host-speed probe, and the median slowdown
    /// of the untraced repetitions against it.
    pub probe_s_fastest: f64,
    pub slowdown_median: f64,
}

/// One workload's result.
pub struct Outcome {
    pub workload: &'static str,
    pub attempted: u64,
    pub failed: u64,
    pub meta: Meta,
    /// End-to-end values, in `END_TO_END` order.
    pub end_to_end: [f64; 5],
    /// Per-layer values and the Chrome trace; traced runs only.
    pub traced: Option<(Layers, String)>,
}

/// Analysis stages run on one thread in every workload.
pub const ANALYSIS_THREADS: usize = 1;

/// Width of the serve daemon's pool. Each tenant slot runs a producer
/// and an engine thread, so half the cores keeps busy threads ≤ nproc.
pub fn pool_width() -> usize {
    (xkit::par::available_threads() / 2).max(1)
}

pub fn run_workload<W: Workload>(seed: u64, seconds: f64, trace: bool) -> Outcome {
    warm_up_memory();
    let (mut setup_builds_s, mut setup_full_speed_s) =
        (Vec::with_capacity(INPUTS), Vec::with_capacity(INPUTS));
    let mut ws: Vec<W> = Vec::with_capacity(INPUTS);
    for k in 0..INPUTS {
        let input_seed = input_seed(seed, k);
        let built = probed(|| W::build_input(input_seed));
        setup_builds_s.push(built.secs);
        setup_full_speed_s.push(built.full_speed_secs());
        ws.push(W::prepare(input_seed, built.out));
    }
    let records: Vec<u64> = ws.iter().map(W::records).collect();

    // A traced run attributes one input's repetition to its layers, so
    // both of its windows stay on that input.
    let (window, inputs) = if trace {
        (seconds * TRACE_WINDOW_SHARE, 1)
    } else {
        (seconds, INPUTS)
    };
    let reps = closed_loop(
        window,
        inputs,
        &mut ws,
        |ws, k| probed(|| ws[k].rep()),
        |ws, k, out| ws[k].check(out),
    );
    let wall_s = reps.all(|s| s.secs);
    let mut attempted = reps.len() as u64;
    let mut failed = reps.failed;

    let traced = trace.then(|| {
        let w = &mut ws[0];
        let mut spans = SpanLog::new();
        let traced_reps = closed_loop(
            window,
            1,
            &mut (&mut *w, &mut spans),
            |(w, spans), _| probed_span(spans, REP_ROOT, |spans| w.traced_rep(spans)),
            |(w, _), _, out| w.check(out),
        );
        attempted += traced_reps.len() as u64;
        failed += traced_reps.failed;

        let mut layers = Layers::default();
        // Closure: the repetition against the layers it is made of, both
        // from the same traced repetitions.
        let own = span_self_ns(spans.records());
        let (mut roots, mut residuals) = (Vec::new(), Vec::new());
        for (r, own_ns) in spans
            .records()
            .iter()
            .zip(&own)
            .filter(|(r, _)| r.depth == 0)
        {
            let speed = stats::full_speed(r, host::fastest_probe_s());
            roots.push(r.wall_ns as f64 * speed / 1e9);
            residuals.push(*own_ns as f64 * speed / 1e9);
        }
        let (root_s, residual_s) = (median(&roots), median(&residuals));
        layers.set("closure.layers_sum_s", root_s - residual_s);
        layers.set("closure.residual_share", residual_s / root_s);
        let rep_s = reps.all(Sample::full_speed_secs);
        let [q1, rep_s_median, q3] = quartiles(&rep_s);
        layers.set(
            "trace.overhead_share",
            median(&traced_reps.all(Sample::full_speed_secs)) / rep_s_median - 1.0,
        );
        layers.set("e2e.rep_s_q1", q1);
        layers.set("e2e.rep_s_median", rep_s_median);
        layers.set("e2e.rep_s_q3", q3);
        layers.set(
            "e2e.rep_s_best",
            rep_s.iter().copied().fold(f64::INFINITY, f64::min),
        );
        layers.set("e2e.reps", reps.len() as f64);
        layers.set("host.probe_us_fastest", host::fastest_probe_s() * 1e6);
        layers.set("host.slowdown_median", median(&reps.all(Sample::slowdown)));
        w.layers(&mut spans, median(&setup_full_speed_s), &mut layers);
        (layers, spans.to_chrome_trace())
    });

    let input_bytes = ws[..inputs].iter().map(W::input_bytes).sum();
    for w in ws {
        let (extra_attempted, extra_failed) = w.finish();
        attempted += extra_attempted;
        failed += extra_failed;
    }
    let round_records = records[..inputs].iter().sum::<u64>() as f64;
    Outcome {
        workload: W::NAME,
        attempted,
        failed,
        end_to_end: [
            // As measured: set-up is allocation and page faults, which the
            // probe's arithmetic does not track; taken to full speed it
            // spread up to three times wider from run to run.
            median(&setup_builds_s),
            round_records / reps.per_round(inputs, Sample::full_speed_secs),
            reps.per_round(inputs, |s| s.allocs) / round_records * 1e3,
            reps.per_round(inputs, |s| s.alloc_bytes) / round_records,
            reps.per_round(inputs, |s| s.peak_live) / inputs as f64 / (1024.0 * 1024.0),
        ],
        meta: Meta {
            seed,
            seconds,
            nproc: xkit::par::available_threads(),
            analysis_threads: ANALYSIS_THREADS,
            pool_width: pool_width(),
            inputs,
            records: round_records as u64,
            input_bytes,
            setup_builds_s,
            rep_wall_s: quartiles(&wall_s),
            rep_wall_s_best: wall_s.iter().copied().fold(f64::INFINITY, f64::min),
            reps: reps.len(),
            probe_s_fastest: host::fastest_probe_s(),
            slowdown_median: median(&reps.all(Sample::slowdown)),
        },
        traced,
    }
}

/// Run a standalone pass three times, each under a top-level span, and
/// return the median full-speed seconds with the last pass's result.
pub fn standalone<T>(
    spans: &mut SpanLog,
    name: &str,
    mut pass: impl FnMut(&mut SpanLog) -> T,
) -> (f64, T) {
    let mut secs = Vec::with_capacity(3);
    let mut last = None;
    for _ in 0..3 {
        let timed = probed_span(spans, name, &mut pass);
        secs.push(timed.full_speed_secs());
        last = Some(timed.out);
    }
    (median(&secs), last.expect("three passes ran"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn neighbouring_seeds_share_no_input_seed() {
        let of = |seed: u64| {
            (0..INPUTS).flat_map(move |k| (0..4).map(move |tenant| input_seed(seed, k) + tenant))
        };
        let mut seen: Vec<u64> = (0..20).flat_map(of).collect();
        let drawn = seen.len();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), drawn);
        assert_eq!(input_seed(7, 0), input_seed(7, 0));
    }

    #[test]
    fn the_loop_rotates_through_every_input_and_checks_every_output() {
        // A window already over still runs each input once.
        let mut seen = Vec::new();
        let reps = closed_loop(
            0.0,
            3,
            &mut seen,
            |seen, input| {
                seen.push(input);
                probed(|| input)
            },
            |_, input, out| out == input && input != 1,
        );
        assert_eq!(seen, [0, 1, 2]);
        assert_eq!((reps.len(), reps.failed), (3, 1));
    }

    #[test]
    fn a_round_sums_the_median_of_each_input() {
        let sample = |input, secs| Sample {
            input,
            secs,
            probe_s: 1.0,
            allocs: 0.0,
            alloc_bytes: 0.0,
            peak_live: 0.0,
        };
        let reps = Reps {
            samples: vec![
                sample(0, 1.0),
                sample(1, 10.0),
                sample(0, 3.0),
                sample(1, 20.0),
                sample(0, 2.0),
            ],
            failed: 0,
        };
        assert_eq!(reps.per_round(2, |s| s.secs), 2.0 + 15.0);
    }

    #[test]
    fn a_time_beside_a_slow_probe_is_taken_to_full_speed() {
        let fastest = host::fastest_probe_s();
        let slow = Probed {
            out: (),
            secs: 3.0,
            probe_s: fastest * 1.5,
        };
        assert!((slow.full_speed_secs() - 2.0).abs() < 1e-9);
        let timed = probed(|| std::hint::black_box(1 + 1));
        assert!(timed.secs >= 0.0 && timed.probe_s >= host::fastest_probe_s());
    }
}
