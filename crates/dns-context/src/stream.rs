//! Streaming bounded-memory pipeline: the whole packet→log→pairing→
//! classification path driven in time windows ("epochs") with explicit
//! state eviction, so peak memory is O(window), not O(trace).
//!
//! # Model
//!
//! Frames are fed to an embedded [`zeek_lite::Monitor`] one epoch at a
//! time. At each epoch boundary the engine computes two *watermarks*:
//!
//! - `w_dns  = min(oldest pending DNS query, epoch end)` — every DNS row
//!   the monitor will emit in the future carries a query timestamp at or
//!   after this instant (responses and timeouts inherit the query stamp).
//! - `w_conn = min(oldest active flow start, epoch end)` — every future
//!   connection record starts at or after this instant.
//!
//! Rows stamped strictly before their watermark are *released*: sorted
//! into the canonical log order ([`zeek_lite::Logs::sort`]'s total order)
//! and flushed downstream. Because later releases can only contain rows
//! at or after the previous watermark, the concatenation of all released
//! blocks *is* the batch-sorted log, byte for byte — for any window size.
//!
//! `w_conn <= w_dns` always holds: a pending DNS query's own UDP flow is
//! still active (the flow-timeout exceeds the query timeout and both
//! sweeps fire on the same frames), so released connections only ever
//! look up lookups that have already been released into the pairing
//! index. The index assigns each released row its batch `dns_idx`
//! ordinal, so each key's run holds, in the same `(completed, dns_idx)`
//! order, the entries of the batch arena's run that a future connection
//! can still select, and candidate selection is the one function
//! [`Pairing::build`] calls over the full logs: `kernel::select`.
//!
//! # Eviction
//!
//! An index entry can be dropped once it is expired for every future
//! connection (`expires <= w_conn`) *and* a newer entry under the same
//! `(client, address)` key has already completed (`completed <= w_conn`),
//! because the batch pairing would always prefer that newer entry, live
//! or as the expired fallback. The newest entry per key is never dropped
//! — the expired-fallback rule can reach arbitrarily far back — so the
//! irreducible residue is O(distinct (client, address) pairs), not
//! O(lookups). Per-lookup claim state (first-use) is reference-counted
//! and freed when a lookup's last index entry goes.
//!
//! # Cost of a boundary
//!
//! Closing an epoch costs time in proportion to the rows that arrived,
//! were released, or were evicted in it, not to the rows and index
//! entries merely held, and once the engine has held its peak it
//! allocates nothing. The two release watermarks are the exception: they
//! are O(live) scans, [`Monitor::oldest_active_flow_start`] over every
//! live flow and [`Monitor::oldest_pending_dns_ts`] over every pending
//! query, once per boundary (on `pcap-stream-w30`'s capture, seed 42000,
//! 1 440 boundaries: about 0.8 ms for the flow scans and 0.1 ms for the
//! query scans of a ~110 ms run). Every
//! entry that has a successor under its key sits in a min-heap keyed by
//! the instant it becomes droppable (`max(expires, successor.completed)`),
//! so eviction pops exactly the keys that drop something and
//! single-entry keys are never visited; unreleased rows wait in a binary
//! min-heap on `(ts, arrival)`, so a release pops a prefix in that order
//! — arrival breaks every tie, which is what a stable sort of the
//! arrival-ordered rows would do — and the retained rows cost nothing;
//! and after an engine's first publication the hub's snapshot is
//! overwritten value by value under its lock. The heaps, the release
//! scratch, the monitor's row vectors and the engine's one
//! [`EpochOutput`], which [`StreamEngine::end_epoch`] lends out until
//! the next boundary, keep their capacity from epoch to epoch. A key
//! with one index entry stores it in its map slot; a longer run lives in
//! a block of an engine-owned slab for its size class (2, 4, 8, …
//! entries), moves up a class when its block is full, and returns to the
//! slot when cut back to one, freeing its block for the next run of that
//! class. Slabs grow by doubling, so a spill allocates only when its
//! class needs more blocks than it ever held. Flight events are written
//! into the text of the events they evict. A boundary allocates only
//! where one of these grows past its peak.
//!
//! # Deferred SC/R split
//!
//! The per-resolver SC/R thresholds need the *whole* trace (minimum
//! observed duration and lookup count per resolver), so blocked
//! connections cannot be split into `SC`/`R` at release time. Instead the
//! engine folds, per resolver, the threshold inputs online plus a
//! bucketed count of blocked-lookup durations (integer ceil-milliseconds
//! — exact, because derived thresholds are whole milliseconds) and an
//! exact `<= floor` count for resolvers that end below `min_lookups`.
//! [`StreamEngine::finish`] settles the split; `N`/`LC`/`P` counts,
//! pairing outcomes, and every histogram are folded at release time.
//!
//! # Assumptions
//!
//! - Frame timestamps are monotone non-decreasing (true for the
//!   simulator's captures; disordered input degrades the watermarks to
//!   conservative — rows release later — never to incorrect).
//! - The pairing policy is [`PairingPolicy::MostRecent`]. The random
//!   policy draws from one RNG in conn order interleaved with index
//!   state, which has no bounded-memory equivalent; `new` asserts this.

use crate::kernel::{store_class_metrics, store_threshold_metrics};
use crate::kernel::{
    blocked_class, pack_key, release_class, select, store_cover, store_release_classes, Entry,
    Paired, Tally,
};
use crate::pairing::PairingPolicy;
use crate::{AnalysisConfig, ClassCounts, ConnClass, Coverage};
use std::cmp::{Ordering, Reverse};
use std::collections::hash_map::Entry as Slot;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::net::Ipv4Addr;
use xkit::collections::FastMap;
use xkit::obs::Metrics;
use zeek_lite::{
    ConnRecord, DegradationStats, DnsTransaction, Duration, Monitor, MonitorConfig, NameTable,
    Timestamp,
};

/// Per-resolver accumulators: threshold inputs plus the deferred SC/R
/// bucket counts. Bounded by the resolver population, not the trace.
#[derive(Debug, Default)]
struct ResolverAcc {
    /// Minimum observed lookup duration, ms (threshold anchor).
    min_ms: f64,
    /// Answered lookups seen (threshold eligibility).
    answered: usize,
    /// Blocked-connection lookup durations, bucketed by ceil-milliseconds.
    blocked_ceil_ms: BTreeMap<u64, u64>,
    /// Blocked connections with duration `<= floor` (used when the
    /// resolver ends below `min_lookups`).
    blocked_le_floor: u64,
}

impl ResolverAcc {
    fn new() -> ResolverAcc {
        ResolverAcc { min_ms: f64::INFINITY, ..ResolverAcc::default() }
    }

    /// Fold one blocked connection whose lookup took `rtt`.
    fn block(&mut self, rtt: Duration, floor: Duration) {
        *self.blocked_ceil_ms.entry(rtt.nanos().div_ceil(1_000_000)).or_insert(0) += 1;
        if blocked_class(rtt, floor) == ConnClass::SharedCache {
            self.blocked_le_floor += 1;
        }
    }

    /// How many of the blocked connections settle as `SC` under the
    /// resolver's `own` threshold (`None`: the floor). An own threshold
    /// is a whole number of milliseconds, so a bucket's bound decides for
    /// every duration in it.
    fn shared_cache(&self, own: Option<Duration>) -> u64 {
        let Some(thr) = own else { return self.blocked_le_floor };
        let shared =
            |ms: u64| blocked_class(Duration::from_millis(ms), thr) == ConnClass::SharedCache;
        self.blocked_ceil_ms.iter().filter(|(ms, _)| shared(**ms)).map(|(_, n)| n).sum()
    }
}

/// Per-lookup state shared by all of a lookup's index entries: enough of
/// the transaction to classify a released connection without retaining
/// the DNS log itself.
#[derive(Debug)]
struct Lookup {
    /// Live index entries referencing this lookup.
    refs: usize,
    /// Whether a first-use connection has claimed it.
    claimed: bool,
    resolver: Ipv4Addr,
    rtt: Duration,
}

/// A buffered row under its `(ts, arrival)` key. Ordered by the key
/// alone, reversed, so a [`BinaryHeap`] pops the smallest key first.
struct Held<T> {
    at: (Timestamp, u64),
    row: T,
}

impl<T> PartialEq for Held<T> {
    fn eq(&self, other: &Held<T>) -> bool {
        self.at == other.at
    }
}

impl<T> Eq for Held<T> {}

impl<T> PartialOrd for Held<T> {
    fn partial_cmp(&self, other: &Held<T>) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Held<T> {
    fn cmp(&self, other: &Held<T>) -> Ordering {
        other.at.cmp(&self.at)
    }
}

/// Completed-but-unreleased rows. Both release predicates are on `ts`,
/// so releasing pops a prefix of the `(ts, arrival)` order; rows that
/// stay are not visited.
struct Pending<T> {
    heap: BinaryHeap<Held<T>>,
    /// Rows buffered so far: the arrival half of the next key.
    arrived: u64,
    /// The rows of the release in hand; empty, capacity kept, between
    /// releases.
    scratch: Vec<Held<T>>,
}

impl<T> Pending<T> {
    fn new() -> Pending<T> {
        Pending { heap: BinaryHeap::new(), arrived: 0, scratch: Vec::new() }
    }

    fn len(&self) -> usize {
        self.heap.len()
    }

    /// Buffer `rows`, in the order given, each under its `ts`.
    fn extend(&mut self, rows: impl IntoIterator<Item = T>, ts: impl Fn(&T) -> Timestamp) {
        for row in rows {
            self.heap.push(Held { at: (ts(&row), self.arrived), row });
            self.arrived += 1;
        }
    }

    /// Replace the rows in `out` with the rows stamped strictly before
    /// `w`, removed from the buffer, in `log_order`, arrival order among
    /// rows it holds equal — a total key, so the sort is in place. `out`
    /// is the caller's and keeps its capacity.
    fn release_before(
        &mut self,
        w: Timestamp,
        log_order: impl Fn(&T, &T) -> Ordering,
        out: &mut Vec<T>,
    ) {
        while let Some(first) = self.heap.peek() {
            if first.at.0 >= w {
                break;
            }
            self.scratch.extend(self.heap.pop());
        }
        self.scratch
            .sort_unstable_by(|a, b| log_order(&a.row, &b.row).then(a.at.1.cmp(&b.at.1)));
        out.clear();
        out.extend(self.scratch.drain(..).map(|held| held.row));
    }
}

/// One size class of spilled runs: blocks of `size` entries end to end in
/// one vector, and the numbers of the blocks no run holds.
struct Slab {
    size: usize,
    entries: Vec<Entry>,
    free: Vec<u32>,
}

impl Slab {
    fn block(&self, block: u32) -> &[Entry] {
        let start = block as usize * self.size;
        &self.entries[start..start + self.size]
    }

    fn block_mut(&mut self, block: u32) -> &mut [Entry] {
        let start = block as usize * self.size;
        &mut self.entries[start..start + self.size]
    }
}

/// Where every run of two or more entries lives: class `k` holds blocks
/// of `2 << k` entries. A slab grows by doubling, so the engine allocates
/// a few times per class over its life, not once per spilled run, and a
/// freed block is the next one its class hands out.
#[derive(Default)]
struct Spills {
    classes: Vec<Slab>,
}

impl Spills {
    fn block(&self, class: u8, block: u32) -> &[Entry] {
        self.classes[usize::from(class)].block(block)
    }

    fn block_mut(&mut self, class: u8, block: u32) -> &mut [Entry] {
        self.classes[usize::from(class)].block_mut(block)
    }

    /// A block of `class` for a run to fill: the last freed, else a new
    /// one at the end of the slab.
    fn take(&mut self, class: u8) -> u32 {
        while self.classes.len() <= usize::from(class) {
            let size = 2 << self.classes.len();
            self.classes.push(Slab { size, entries: Vec::new(), free: Vec::new() });
        }
        let slab = &mut self.classes[usize::from(class)];
        if let Some(block) = slab.free.pop() {
            return block;
        }
        let block = u32::try_from(slab.entries.len() / slab.size).expect("fewer than 2^32 blocks");
        let blank = Entry { completed: Timestamp::ZERO, expires: Timestamp::ZERO, dns_idx: 0 };
        slab.entries.resize(slab.entries.len() + slab.size, blank);
        block
    }

    fn free(&mut self, class: u8, block: u32) {
        self.classes[usize::from(class)].free.push(block);
    }

    /// Copy a full block of `class` to the front of a block of the next
    /// class, free the old one, and return the new one.
    fn grow(&mut self, class: u8, block: u32) -> u32 {
        let grown = self.take(class + 1);
        let (lower, upper) = self.classes.split_at_mut(usize::from(class) + 1);
        let full = lower[usize::from(class)].block(block);
        upper[0].block_mut(grown)[..full.len()].copy_from_slice(full);
        self.free(class, block);
        grown
    }
}

/// One key's index entries, sorted by `(completed, dns_idx)`. Most keys
/// only ever hold one, which lives in the map slot. A second spills the
/// run into a block of the engine's [`Spills`]; a run cut back to one
/// entry returns to the slot and frees its block.
enum Run {
    One(Entry),
    /// The first `len` entries of block `block` of size class `class`.
    Many { class: u8, block: u32, len: u32 },
}

// One `Run` per index key: spilling must not widen the map's slots.
const _: () = assert!(std::mem::size_of::<Run>() <= 32);

impl Run {
    fn as_slice<'a>(&'a self, spills: &'a Spills) -> &'a [Entry] {
        match self {
            Run::One(entry) => std::slice::from_ref(entry),
            Run::Many { class, block, len } => &spills.block(*class, *block)[..*len as usize],
        }
    }

    /// Insert `entry` at its sorted position and return that position. A
    /// run of one spills into a block of class 0; a full block moves up
    /// one class.
    fn insert(&mut self, entry: Entry, spills: &mut Spills) -> usize {
        let at = (entry.completed, entry.dns_idx);
        let pos = self.as_slice(spills).partition_point(|e| (e.completed, e.dns_idx) <= at);
        let (class, block, len) = match *self {
            Run::One(first) => {
                let block = spills.take(0);
                spills.block_mut(0, block)[0] = first;
                (0, block, 1)
            }
            Run::Many { class, block, len } if len as usize == 2 << class => {
                (class + 1, spills.grow(class, block), len)
            }
            Run::Many { class, block, len } => (class, block, len),
        };
        let entries = &mut spills.block_mut(class, block)[..=len as usize];
        entries.copy_within(pos..len as usize, pos + 1);
        entries[pos] = entry;
        *self = Run::Many { class, block, len: len + 1 };
        pos
    }

    /// Keep the entries `keep` accepts, compacted in place. Eviction never
    /// drops a key's newest entry, so a run of one has nothing to offer,
    /// and a run left with one returns to the slot and frees its block.
    fn retain(&mut self, spills: &mut Spills, mut keep: impl FnMut(&Entry) -> bool) {
        let Run::Many { class, block, len } = *self else { return };
        let entries = spills.block_mut(class, block);
        let mut kept = 0;
        for at in 0..len as usize {
            let entry = entries[at];
            if keep(&entry) {
                entries[kept] = entry;
                kept += 1;
            }
        }
        *self = if kept == 1 {
            let only = entries[0];
            spills.free(class, block);
            Run::One(only)
        } else {
            Run::Many { class, block, len: kept as u32 }
        };
    }
}

/// The rows released at one epoch boundary, in canonical log order.
/// Concatenating every epoch's output (plus [`StreamEngine::finish`]'s
/// tail) reproduces the batch logs byte-for-byte. The DNS rows name
/// their query and CNAME targets by id into the engine's monitor table,
/// which [`StreamResult::names`] hands over at the end. The engine owns
/// one and lends it from each [`StreamEngine::end_epoch`] until the
/// next: clone a row to keep it.
#[derive(Debug, Default)]
pub struct EpochOutput {
    /// Connection records released this epoch, `(ts, uid)`-sorted.
    pub conns: Vec<ConnRecord>,
    /// DNS rows released this epoch, in [`DnsTransaction::log_order`].
    pub dns: Vec<DnsTransaction>,
}

/// What a completed streaming run settles to.
#[derive(Debug)]
pub struct StreamResult {
    /// Rows still held when the input ended (the final release).
    pub tail: EpochOutput,
    /// The names every released DNS row refers to, tail included.
    pub names: NameTable,
    /// The analysis snapshot: byte-identical to the batch pipeline's
    /// `logs.metrics()` merged with `Analysis::metrics()`.
    pub analysis_metrics: Metrics,
    /// The engine's own `stream.*` counters and peak gauges.
    pub stream_metrics: Metrics,
    /// Table 2 counts (SC/R settled from the deferred buckets).
    pub class_counts: ClassCounts,
    /// Derived per-resolver SC/R thresholds.
    pub thresholds: HashMap<Ipv4Addr, Duration>,
}

impl StreamResult {
    /// The settled snapshot: `analysis_metrics` merged with
    /// `stream_metrics` — exactly what `finish()` publishes to the hub,
    /// and what the serve daemon folds per tenant into its aggregate.
    /// Key spaces are disjoint, so the merge is a plain union.
    pub fn settled_metrics(&self) -> Metrics {
        let mut all = self.analysis_metrics.clone();
        all.merge(&self.stream_metrics);
        all
    }
}

/// The streaming engine: feed frames, close epochs, finish.
///
/// ```
/// use dns_context::{stream::StreamEngine, AnalysisConfig};
/// use zeek_lite::MonitorConfig;
///
/// let mut engine = StreamEngine::new(MonitorConfig::default(), AnalysisConfig::default());
/// // for each epoch: engine.handle_frame(...) per frame, then
/// let released = engine.end_epoch(None);
/// assert!(released.conns.is_empty());
/// let result = engine.finish();
/// assert_eq!(result.class_counts.total(), 0);
/// ```
pub struct StreamEngine {
    monitor: Monitor,
    cfg: AnalysisConfig,
    floor: Duration,
    /// Completed-but-unreleased rows; bounded by the window, not the trace.
    buf_conns: Pending<ConnRecord>,
    buf_dns: Pending<DnsTransaction>,
    /// The release [`end_epoch`](Self::end_epoch) lends out; its vectors
    /// keep their capacity from boundary to boundary.
    out: EpochOutput,
    /// The streaming pairing index, per-key sorted by `(completed, dns_idx)`.
    /// Addressed by key only, never iterated.
    index: FastMap<u64, Run>,
    /// The blocks of every run of two or more entries.
    spills: Spills,
    /// `(droppable at, key)` for every index entry that has a successor
    /// under its key: `max(expires, successor.completed)` is the first
    /// watermark at which the eviction rule drops it. An insert between
    /// two entries pushes the predecessor's earlier instant and leaves
    /// the old item behind; popping that one later prunes nothing.
    droppable: BinaryHeap<Reverse<(Timestamp, u64)>>,
    /// dns_idx → refcount and first-use claim of every indexed lookup.
    lookups: FastMap<usize, Lookup>,
    next_dns_idx: usize,
    resolvers: HashMap<Ipv4Addr, ResolverAcc>,
    /// Incrementally folded histograms (`pair.gap_ms`,
    /// `perf.blocked_dns_ms`, `zeek.dns_rtt_ms`).
    acc: Metrics,
    /// Pairing outcomes of the released application connections.
    tally: Tally,
    /// Their classes; `SC`/`R` stay zero until [`finish`](Self::finish).
    classes: ClassCounts,
    released_conns: u64,
    released_dns: u64,
    epochs: u64,
    evicted_answers: u64,
    evicted_flows: u64,
    peak_live_flows: u64,
    peak_live_answers: u64,
    /// Live observability plane, when attached: prefix snapshots publish
    /// here at every epoch boundary and notable moments hit its flight
    /// recorder. `None` costs nothing on the frame path.
    hub: Option<xkit::obs::ObsHub>,
    /// Whether this engine has published to `hub` yet: a hub outlives
    /// engines, so the first publication replaces whatever it holds and
    /// only later ones overwrite in place.
    published: bool,
}

impl StreamEngine {
    /// Build an engine. Panics on [`PairingPolicy::RandomNonExpired`],
    /// which has no bounded-memory equivalent (see module docs).
    pub fn new(monitor: MonitorConfig, cfg: AnalysisConfig) -> StreamEngine {
        assert!(
            matches!(cfg.policy, PairingPolicy::MostRecent),
            "streaming supports the MostRecent pairing policy only"
        );
        StreamEngine {
            monitor: Monitor::new(monitor),
            floor: cfg.threshold_rule.floor(),
            cfg,
            buf_conns: Pending::new(),
            buf_dns: Pending::new(),
            out: EpochOutput::default(),
            index: FastMap::default(),
            spills: Spills::default(),
            droppable: BinaryHeap::new(),
            lookups: FastMap::default(),
            next_dns_idx: 0,
            resolvers: HashMap::new(),
            acc: Metrics::new(),
            tally: Tally::default(),
            classes: ClassCounts::default(),
            released_conns: 0,
            released_dns: 0,
            epochs: 0,
            evicted_answers: 0,
            evicted_flows: 0,
            peak_live_flows: 0,
            peak_live_answers: 0,
            hub: None,
            published: false,
        }
    }

    /// Attach a live observability hub: the embedded monitor feeds the
    /// hub's flight recorder (`fault.reject`/`parse.degrade`), the engine
    /// records `epoch.release`/`state.evict` events, and every epoch
    /// boundary publishes a snapshot that is a valid prefix of the final
    /// metrics (all counters monotone; finish-only keys — the settled
    /// SC/R split and per-resolver thresholds — stay absent mid-run).
    pub fn set_hub(&mut self, hub: xkit::obs::ObsHub) {
        self.monitor.set_flight(hub.flight().clone());
        self.hub = Some(hub);
        self.published = false;
    }

    /// Fold current state into the hub (no-op without one). Published
    /// counters are the already-folded accumulators, so a scrape between
    /// two epochs never exceeds the final value of any counter and the
    /// degradation identities hold at every instant; the `stream.live_*`
    /// and `stream.w_*` gauges are point-in-time readings.
    fn publish_live(&mut self, w_conn: Timestamp, w_dns: Timestamp) {
        let Some(hub) = &self.hub else { return };
        if self.published {
            hub.update_metrics(|m| self.store_live(m, w_conn, w_dns));
        } else {
            let mut m = Metrics::new();
            self.store_live(&mut m, w_conn, w_dns);
            hub.publish_metrics(m);
            self.published = true;
        }
    }

    /// Write the live snapshot over `m`. Every key is overwritten and the
    /// key set only grows during a run, so the result is the same whether
    /// `m` is empty or this engine's previous snapshot.
    fn store_live(&self, m: &mut Metrics, w_conn: Timestamp, w_dns: Timestamp) {
        self.monitor.store_live_metrics(m);
        self.store_released(m, self.monitor.degradation());
        self.store_stream(m);
        let (flows, answers) = self.live_state();
        m.set_gauge("stream.live_flows", flows as f64);
        m.set_gauge("stream.live_answers", answers as f64);
        m.set_gauge("stream.w_conn_s", w_conn.0 as f64 / 1e9);
        m.set_gauge("stream.w_dns_s", w_dns.0 as f64 / 1e9);
    }

    /// What the released rows have folded to so far: row counts, the
    /// histograms, pairing outcomes, coverage (against the monitor's
    /// `degradation` as of now) and the classes known at release time.
    fn store_released(&self, m: &mut Metrics, degradation: &DegradationStats) {
        m.set_counter("zeek.conn_rows", self.released_conns);
        m.set_counter("zeek.dns_rows", self.released_dns);
        m.set_counter("zeek.app_conns", self.tally.app_conns());
        m.assign_from(&self.acc);
        self.tally.store_pair(m);
        self.tally.store_perf(m);
        let cover = Coverage {
            frame_acceptance: degradation.frame_acceptance(),
            dns_acceptance: degradation.dns_acceptance(),
            app_conns: self.tally.app_conns() as usize,
            paired: self.tally.paired() as usize,
        };
        store_cover(m, &cover);
        store_release_classes(m, &self.classes);
    }

    /// The engine's own `stream.*` totals and peaks.
    fn store_stream(&self, m: &mut Metrics) {
        m.set_counter("stream.epochs", self.epochs);
        m.set_counter("stream.evicted_answers", self.evicted_answers);
        m.set_counter("stream.evicted_flows", self.evicted_flows);
        m.set_gauge("stream.peak_live_flows", self.peak_live_flows as f64);
        m.set_gauge("stream.peak_live_answers", self.peak_live_answers as f64);
    }

    /// Feed one captured frame to the embedded monitor.
    pub fn handle_frame(&mut self, ts: Timestamp, captured: &[u8], orig_len: u32) {
        self.monitor.handle_frame(ts, captured, orig_len);
    }

    /// Close the current epoch. `boundary` is the epoch's exclusive end
    /// (`None` for an unwindowed run, which releases nothing until
    /// [`finish`](StreamEngine::finish)). Returns the rows released by
    /// the watermarks, lent until the next call (clone a row to keep
    /// it); the engine retains nothing about them beyond the folded
    /// counters.
    pub fn end_epoch(&mut self, boundary: Option<Timestamp>) -> &EpochOutput {
        self.epochs += 1;
        self.buf_conns.extend(self.monitor.drain_conns(), |c| c.ts);
        self.buf_dns.extend(self.monitor.drain_dns(), |t| t.ts);

        // High-water marks over everything currently held in memory,
        // measured before the release empties the buffers.
        let live_flows = self.monitor.active_flows() as u64 + self.buf_conns.len() as u64;
        self.peak_live_flows = self.peak_live_flows.max(live_flows);
        // Answers are counted per *lookup* (a multi-address response pins
        // one row however many index entries it fans out to), so the peak
        // compares directly against the full-trace dns.log row count.
        let live_answers = self.lookups.len() as u64
            + self.buf_dns.len() as u64
            + self.monitor.pending_dns() as u64;
        self.peak_live_answers = self.peak_live_answers.max(live_answers);

        let cap = boundary.unwrap_or(Timestamp::ZERO);
        if boundary.is_none() {
            // Unwindowed: nothing is safe to release before end of input,
            // but the live plane still sees the folded counters.
            self.out.conns.clear();
            self.out.dns.clear();
            self.publish_live(Timestamp::ZERO, Timestamp::ZERO);
            return &self.out;
        }
        let w_dns = self.monitor.oldest_pending_dns_ts().map_or(cap, |t| t.min(cap));
        let w_conn = self.monitor.oldest_active_flow_start().map_or(cap, |t| t.min(cap));
        // The invariant w_conn <= w_dns holds for monotone input (module
        // docs); the clamp keeps disordered input conservative.
        let w_conn = w_conn.min(w_dns);
        let evicted_before = self.evicted_answers;
        let names = self.monitor.names();
        self.buf_dns.release_before(
            w_dns,
            |a, b| DnsTransaction::log_order(names, a, b),
            &mut self.out.dns,
        );
        self.release(w_conn);
        let (conns, dns) = (self.out.conns.len(), self.out.dns.len());
        self.evicted_flows += conns as u64;
        self.evict(w_conn);
        if let Some(hub) = &self.hub {
            hub.flight().record(
                "epoch.release",
                format_args!("epoch {}: {conns} conn + {dns} dns rows", self.epochs),
                (conns + dns) as f64,
            );
            let evicted = self.evicted_answers - evicted_before;
            if evicted > 0 {
                hub.flight().record(
                    "state.evict",
                    format_args!("epoch {}: index entries dropped", self.epochs),
                    evicted as f64,
                );
            }
        }
        self.publish_live(w_conn, w_dns);
        &self.out
    }

    /// Flush everything: drain the monitor, release all remaining rows,
    /// settle the deferred SC/R split, and assemble both snapshots.
    pub fn finish(mut self) -> StreamResult {
        let monitor =
            std::mem::replace(&mut self.monitor, Monitor::new(MonitorConfig::default()));
        // The residual logs own the monitor's table from here on.
        let zeek_lite::Logs { conns, dns, names, stats, degradation } = monitor.finish();
        self.buffer(conns, dns);
        let end = Timestamp(u64::MAX);
        self.buf_dns.release_before(
            end,
            |a, b| DnsTransaction::log_order(&names, a, b),
            &mut self.out.dns,
        );
        self.release(end);
        let tail = std::mem::take(&mut self.out);

        // Settle the deferred SC/R split from the per-resolver buckets.
        let mut thresholds: HashMap<Ipv4Addr, Duration> = HashMap::new();
        // lint: allow(no-map-iteration): order-insensitive integer folds per resolver
        for (addr, acc) in &self.resolvers {
            let own = self.cfg.threshold_rule.threshold(acc.min_ms, acc.answered);
            thresholds.extend(own.map(|thr| (*addr, thr)));
            let blocked: u64 = acc.blocked_ceil_ms.values().sum();
            let shared_cache = acc.shared_cache(own);
            self.classes.shared_cache += shared_cache as usize;
            self.classes.resolution += (blocked - shared_cache) as usize;
        }

        // The analysis snapshot, assembled to match the batch pipeline's
        // `logs.metrics()` merged with `Analysis::metrics()` exactly.
        let mut m = stats.to_metrics();
        degradation.store_metrics(&mut m);
        self.store_released(&mut m, &degradation);
        store_class_metrics(&mut m, &self.classes);
        store_threshold_metrics(&mut m, &thresholds);

        let mut s = Metrics::new();
        self.store_stream(&mut s);

        let result = StreamResult {
            tail,
            names,
            analysis_metrics: m,
            stream_metrics: s,
            class_counts: self.classes,
            thresholds,
        };
        // The last published snapshot is the settled one: every mid-run
        // scrape was a prefix of it.
        if let Some(hub) = &self.hub {
            hub.publish_metrics(result.settled_metrics());
        }
        result
    }

    /// Buffer completed rows, in the order given, until a watermark
    /// releases them.
    fn buffer(&mut self, conns: Vec<ConnRecord>, dns: Vec<DnsTransaction>) {
        self.buf_conns.extend(conns, |c| c.ts);
        self.buf_dns.extend(dns, |t| t.ts);
    }

    /// Fold `out.dns`, the rows the caller released from `buf_dns` below
    /// their watermark (their log order reads the name table, which the
    /// monitor owns until [`finish`](Self::finish) and the residual logs
    /// after), into the index, then release the buffered connections
    /// below `w_conn` into `out.conns`: DNS first, because the index must
    /// contain every lookup a released connection could pair with.
    fn release(&mut self, w_conn: Timestamp) {
        let mut out = std::mem::take(&mut self.out);
        for txn in &out.dns {
            self.ingest_dns(txn);
        }
        self.buf_conns.release_before(
            w_conn,
            |a, b| (a.ts, a.uid).cmp(&(b.ts, b.uid)),
            &mut out.conns,
        );
        self.absorb_conns(&out.conns);
        self.out = out;
    }

    /// Give one released DNS row its batch ordinal and fold it into the
    /// index, the threshold accumulators, and the RTT histogram.
    fn ingest_dns(&mut self, txn: &DnsTransaction) {
        self.released_dns += 1;
        let idx = self.next_dns_idx;
        self.next_dns_idx += 1;
        if let Some(rtt) = txn.rtt {
            self.acc.observe("zeek.dns_rtt_ms", rtt.as_millis_f64());
            let acc = self.resolvers.entry(txn.resolver).or_insert_with(ResolverAcc::new);
            acc.min_ms = acc.min_ms.min(rtt.as_millis_f64());
            acc.answered += 1;
        }
        let (Some(completed), Some(expires)) = (txn.completed_at(), txn.expires_at()) else {
            return;
        };
        let rtt = txn.rtt.expect("completed lookups are answered");
        for addr in txn.addrs() {
            let key = pack_key(txn.client, addr);
            let entry = Entry { completed, expires, dns_idx: idx };
            match self.index.entry(key) {
                Slot::Vacant(slot) => {
                    slot.insert(Run::One(entry));
                }
                Slot::Occupied(slot) => {
                    let run = slot.into_mut();
                    let pos = run.insert(entry, &mut self.spills);
                    let entries = run.as_slice(&self.spills);
                    // The new entry is droppable once its successor has
                    // completed; its predecessor's successor is now the
                    // new entry.
                    if let Some(next) = entries.get(pos + 1) {
                        self.droppable.push(Reverse((expires.max(next.completed), key)));
                    }
                    if pos > 0 {
                        let before = entries[pos - 1].expires.max(completed);
                        self.droppable.push(Reverse((before, key)));
                    }
                }
            }
            let lookup = Lookup { refs: 0, claimed: false, resolver: txn.resolver, rtt };
            self.lookups.entry(idx).or_insert(lookup).refs += 1;
        }
    }

    /// Fold a `(ts, uid)`-sorted release batch of connections into the
    /// pairing/classification accumulators, one connection at a time on
    /// the engine thread (a release batch at a finite window is tens of
    /// rows; fanning the look-ups out measured slower at every window).
    fn absorb_conns(&mut self, conns: &[ConnRecord]) {
        self.released_conns += conns.len() as u64;
        for conn in conns.iter().filter(|c| !c.is_dns()) {
            let run = self.index.get(&pack_key(conn.id.orig_addr, conn.id.resp_addr));
            let found = run.and_then(|run| select(run.as_slice(&self.spills), conn.ts)).map(|found| {
                let lookup = self
                    .lookups
                    .get_mut(&found.chosen.dns_idx)
                    .expect("indexed lookups are refcounted");
                // Releases are in log order, so the first to pair claims.
                let first_use = !std::mem::replace(&mut lookup.claimed, true);
                let gap = conn.ts.since(found.chosen.completed);
                (Paired { gap, expired: found.expired, first_use }, &*lookup)
            });
            let paired = found.map(|(paired, _)| paired);
            self.tally.pair(&mut self.acc, paired);
            if let Some(class) = release_class(paired, self.cfg.block_threshold) {
                self.classes.record(class);
                continue;
            }
            // Blocked: SC vs R settles at finish; everything else about
            // the connection is already known.
            let (_, lookup) = found.expect("blocked conns are paired");
            self.tally.blocked(&mut self.acc, lookup.rtt.as_millis_f64());
            let acc = self.resolvers.entry(lookup.resolver).or_insert_with(ResolverAcc::new);
            acc.block(lookup.rtt, self.floor);
        }
    }

    /// Drop index entries no future connection can pair with (module
    /// docs), releasing per-lookup claim state when the last entry goes.
    /// Only keys with an entry whose droppable instant has passed are
    /// visited; each gets the whole rule, so a key visited twice in one
    /// pass (or through a superseded heap item) is pruned once.
    fn evict(&mut self, w: Timestamp) {
        while let Some(&Reverse((at, key))) = self.droppable.peek() {
            if at > w {
                break;
            }
            self.droppable.pop();
            let run = self.index.get_mut(&key).expect("keys keep their newest entry");
            let cut = run.as_slice(&self.spills).partition_point(|e| e.completed <= w);
            if cut < 2 {
                // No entry has both a newer completed witness and a
                // position before it.
                continue;
            }
            let last_keep = cut - 1;
            let mut pos = 0usize;
            run.retain(&mut self.spills, |e| {
                let gone = pos < last_keep && e.expires <= w;
                pos += 1;
                if gone {
                    self.evicted_answers += 1;
                    let lookup =
                        self.lookups.get_mut(&e.dns_idx).expect("evicted entries are refcounted");
                    lookup.refs -= 1;
                    if lookup.refs == 0 {
                        self.lookups.remove(&e.dns_idx);
                    }
                }
                !gone
            });
        }
    }

    /// Live state right now: `(flows, answers)` — tracker + buffered
    /// connections, and pinned + buffered + pending DNS lookups.
    fn live_state(&self) -> (u64, u64) {
        (
            self.monitor.active_flows() as u64 + self.buf_conns.len() as u64,
            self.lookups.len() as u64
                + self.buf_dns.len() as u64
                + self.monitor.pending_dns() as u64,
        )
    }
}

/// Drive any [`pcapio::RecordSource`] — file reader or in-memory ring —
/// through a [`StreamEngine`] in `window`-sized epochs, lending each
/// epoch's released rows to `sink` until the next boundary (clone a row
/// to keep it). A zero `window` runs a single epoch
/// (everything releases at [`finish`](StreamEngine::finish), as in the
/// batch pipeline).
///
/// This is the streaming counterpart of `Monitor::process_source`
/// followed by `Analysis::run`: same rows, same metrics, O(window) peak
/// memory. With a `hub` (see [`StreamEngine::set_hub`]) every epoch
/// boundary publishes a prefix snapshot and feeds the hub's flight
/// recorder, so an HTTP scrape at any instant sees internally consistent
/// counters.
pub fn process_source_observed<S: pcapio::RecordSource + ?Sized>(
    source: &mut S,
    window: Duration,
    monitor: MonitorConfig,
    cfg: AnalysisConfig,
    hub: Option<&xkit::obs::ObsHub>,
    mut sink: impl FnMut(&EpochOutput),
) -> Result<StreamResult, pcapio::PcapError> {
    let mut engine = StreamEngine::new(monitor, cfg);
    if let Some(hub) = hub {
        engine.set_hub(hub.clone());
    }
    let window_nanos = window.nanos();
    // Epoch windowing over the source's borrowed records (the frames
    // feed the engine immediately, so nothing needs to be owned) — the
    // workspace's one copy of the rule: epoch k covers
    // [k*window, (k+1)*window) ns, the epoch index is clamped monotone on
    // disordered input, the first record opens its own epoch, window 0 is
    // a single epoch with no boundary, and a read error ends the stream
    // after the records already consumed (the failing record is counted
    // in `capture.frames_rejected`).
    let mut current_epoch = 0u64;
    let mut started = false;
    loop {
        let rec = match source.next() {
            Ok(Some(rec)) => rec,
            Ok(None) | Err(_) => break,
        };
        let e = if window_nanos == 0 {
            0
        } else {
            (rec.ts_nanos / window_nanos).max(current_epoch)
        };
        if !started {
            started = true;
            current_epoch = e;
        } else if e != current_epoch {
            let boundary = Some(Timestamp((current_epoch + 1).saturating_mul(window_nanos)));
            sink(engine.end_epoch(boundary));
            current_epoch = e;
        }
        engine.handle_frame(Timestamp(rec.ts_nanos), rec.data, rec.orig_len);
    }
    if started {
        let boundary = if window_nanos == 0 {
            None
        } else {
            Some(Timestamp((current_epoch + 1).saturating_mul(window_nanos)))
        };
        sink(engine.end_epoch(boundary));
    }
    Ok(engine.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Analysis;
    use std::net::Ipv4Addr;
    use xkit::rng::StdRng;
    use zeek_lite::{Answer, Answers, ConnState, FiveTuple, Logs, NameId, Proto};

    const HOUSE: Ipv4Addr = Ipv4Addr::new(10, 77, 0, 1);
    const RESOLVER: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 53);
    const SERVER: Ipv4Addr = Ipv4Addr::new(104, 16, 0, 1);

    /// The table the rows of these tests name their queries in:
    /// `q{id}.example.com` under id `id`.
    fn names() -> NameTable {
        let mut names = NameTable::default();
        for id in 0..16 {
            names.intern(&format!("q{id}.example.com"));
        }
        names
    }

    fn txn(ts_ms: u64, id: u16, ttl: u32) -> DnsTransaction {
        DnsTransaction {
            ts: Timestamp::from_millis(ts_ms),
            client: HOUSE,
            resolver: RESOLVER,
            trans_id: id,
            query: NameId(u32::from(id)),
            qtype: dns_wire::RrType::A,
            rcode: Some(dns_wire::Rcode::NoError),
            rtt: Some(Duration::from_millis(4)),
            answers: [Answer::addr(SERVER, ttl)].into(),
        }
    }

    fn conn(ts_ms: u64, uid: u64) -> ConnRecord {
        ConnRecord {
            uid,
            ts: Timestamp::from_millis(ts_ms),
            id: FiveTuple {
                orig_addr: HOUSE,
                orig_port: 50_000 + uid as u16,
                resp_addr: SERVER,
                resp_port: 443,
                proto: Proto::Tcp,
            },
            duration: Duration::from_millis(500),
            orig_bytes: 100,
            resp_bytes: 1_000,
            orig_pkts: 4,
            resp_pkts: 4,
            state: ConnState::SF,
            history: "ShAaFf".into(),
            service: Some("ssl"),
        }
    }

    /// Drive pre-built log rows through the engine's release path directly
    /// (bypassing the monitor) by staging them in the buffers, one epoch
    /// per row timestamp window. The rows name their queries in
    /// [`names`], not in the engine's (empty) monitor table; no two of
    /// them tie before the name in the log order, so the release never
    /// reads it.
    fn stream_rows(
        conns: Vec<ConnRecord>,
        dns: Vec<DnsTransaction>,
        boundaries_ms: &[u64],
        cfg: AnalysisConfig,
    ) -> (Vec<ConnRecord>, Vec<DnsTransaction>, StreamResult) {
        let mut engine = StreamEngine::new(MonitorConfig::default(), cfg);
        engine.buffer(conns, dns);
        let mut got_conns = Vec::new();
        let mut got_dns = Vec::new();
        for &b in boundaries_ms {
            let w = Timestamp::from_millis(b);
            let out = engine.end_epoch(Some(w));
            // A row stamped exactly at the cut stays behind.
            assert!(out.conns.iter().all(|c| c.ts < w) && out.dns.iter().all(|d| d.ts < w));
            got_conns.extend(out.conns.iter().cloned());
            got_dns.extend(out.dns.iter().cloned());
            let held_conns = engine.buf_conns.heap.iter().map(|h| h.at.0);
            assert!(held_conns.chain(engine.buf_dns.heap.iter().map(|h| h.at.0)).all(|ts| ts >= w));
            // With no monitor state both watermarks are the boundary. The
            // rule applied to every key (the walk the heap replaces) must
            // find nothing left to drop, and every lookup's refcount must
            // be its surviving entries.
            let mut refs: HashMap<usize, usize> = HashMap::new();
            for run in engine.index.values() {
                let entries = run.as_slice(&engine.spills);
                assert!(entries.is_sorted_by_key(|e| (e.completed, e.dns_idx)));
                let cut = entries.partition_point(|e| e.completed <= w);
                let prefix = &entries[..cut.saturating_sub(1)];
                assert!(prefix.iter().all(|e| e.expires > w), "entry left droppable at {b} ms");
                for e in entries {
                    *refs.entry(e.dns_idx).or_insert(0) += 1;
                }
            }
            assert_eq!(refs.len(), engine.lookups.len(), "lookup state leaked at {b} ms");
            for (di, n) in refs {
                assert_eq!(engine.lookups[&di].refs, n, "refcount of lookup {di} at {b} ms");
            }
        }
        let result = engine.finish();
        got_conns.extend(result.tail.conns.iter().cloned());
        got_dns.extend(result.tail.dns.iter().cloned());
        (got_conns, got_dns, result)
    }

    #[test]
    fn streamed_release_matches_batch_pairing() {
        let mut cfg = AnalysisConfig::default();
        cfg.threshold_rule.min_lookups = 1;
        // Lookup at 1s (TTL 300); conns at 1.01s (blocked), 30s (LC),
        // and a second lookup at 60s with a conn at 60.2s (prefetched
        // would need first use; it's LC since lookup 1 still live... the
        // batch run is the oracle either way).
        let dns = vec![txn(1_000, 1, 300), txn(60_000, 2, 300)];
        let conns = vec![conn(1_010, 1), conn(30_000, 2), conn(60_200, 3)];
        let mut logs = Logs { conns: conns.clone(), dns: dns.clone(), names: names(), ..Default::default() };
        logs.sort();
        let analysis = Analysis::run(&logs, cfg.clone());
        let mut batch = logs.metrics();
        batch.merge(&analysis.metrics());

        let (got_conns, got_dns, result) =
            stream_rows(conns, dns, &[10_000, 45_000, 70_000], cfg);
        assert_eq!(got_conns, logs.conns);
        assert_eq!(got_dns, logs.dns);
        assert_eq!(result.class_counts, analysis.class_counts());
        assert_eq!(result.thresholds, analysis.thresholds);
        // Stats/degradation come from the monitor (zero here, both
        // sides); everything analysis-side must agree byte for byte.
        assert_eq!(result.analysis_metrics.to_json(), batch.to_json());
    }

    #[test]
    fn eviction_keeps_expired_fallback_reachable() {
        let mut cfg = AnalysisConfig::default();
        cfg.threshold_rule.min_lookups = 1;
        // Two short-TTL lookups; a conn long after both must still take
        // the newest as expired fallback, even though the older one was
        // evicted in between.
        let dns = vec![txn(1_000, 1, 1), txn(2_000, 2, 1)];
        let conns = vec![conn(500_000, 1)];
        let mut logs = Logs { conns: conns.clone(), dns: dns.clone(), names: names(), ..Default::default() };
        logs.sort();
        let analysis = Analysis::run(&logs, cfg.clone());
        let mut batch = logs.metrics();
        batch.merge(&analysis.metrics());

        let (_, _, result) = stream_rows(conns, dns, &[100_000, 400_000], cfg);
        let evicted = result.stream_metrics.counter("stream.evicted_answers");
        assert_eq!(evicted, 1, "the older expired entry must be evicted");
        assert_eq!(result.analysis_metrics.to_json(), batch.to_json());
        assert_eq!(result.class_counts, analysis.class_counts());
    }

    fn entry((completed_ms, dns_idx): (u64, usize)) -> Entry {
        let completed = Timestamp::from_millis(completed_ms);
        Entry { completed, expires: completed, dns_idx }
    }

    /// A run as `(completed ms, dns_idx)` pairs, checked sorted.
    fn keys(run: &Run, spills: &Spills) -> Vec<(u64, usize)> {
        let entries = run.as_slice(spills);
        assert!(entries.is_sorted_by_key(|e| (e.completed, e.dns_idx)));
        entries.iter().map(|e| (e.completed.nanos() / 1_000_000, e.dns_idx)).collect()
    }

    #[test]
    fn a_run_stays_sorted_across_the_spill_and_back_to_one_entry() {
        // The second entry before, level with (lower and higher ordinal)
        // and after the inline one; then a third at every position.
        for second in [(5, 9), (10, 3), (10, 7), (20, 0)] {
            for third in [(1, 1), (10, 6), (30, 1)] {
                let mut spills = Spills::default();
                let mut run = Run::One(entry((10, 5)));
                assert_eq!(keys(&run, &spills), [(10, 5)]);
                let mut want = vec![(10, 5), second];
                want.sort_unstable();
                assert_eq!(run.insert(entry(second), &mut spills), usize::from(second > (10, 5)));
                assert_eq!(keys(&run, &spills), want);
                want.push(third);
                want.sort_unstable();
                let third_pos = want.iter().position(|k| *k == third).unwrap();
                let pos = run.insert(entry(third), &mut spills);
                assert_eq!(pos, third_pos, "{second:?} then {third:?}");
                assert_eq!(keys(&run, &spills), want);

                // Down to the newest entry, and up again.
                let newest = want[2];
                let newest_at = (entry(newest).completed, newest.1);
                run.retain(&mut spills, |e| (e.completed, e.dns_idx) == newest_at);
                assert_eq!(keys(&run, &spills), [newest]);
                assert_eq!(run.insert(entry((0, 2)), &mut spills), 0);
                assert_eq!(run.insert(entry((40, 0)), &mut spills), 2);
                assert_eq!(keys(&run, &spills), [(0, 2), newest, (40, 0)]);
            }
        }
        // A run of one is its key's newest entry: nothing to drop.
        let mut run = Run::One(entry((10, 5)));
        let mut spills = Spills::default();
        run.retain(&mut spills, |_| false);
        assert_eq!(keys(&run, &spills), [(10, 5)]);
    }

    /// `(completed, expires, dns_idx)` of each entry, in order.
    fn full_keys(entries: &[Entry]) -> Vec<(Timestamp, Timestamp, usize)> {
        entries.iter().map(|e| (e.completed, e.expires, e.dns_idx)).collect()
    }

    #[test]
    fn a_run_matches_a_sorted_vector_under_random_inserts_and_evictions() {
        // One key's run against the plainest model of it. A clock on a
        // 10 ms grid makes ties on `completed` common; entries land up to
        // 30 ms behind the newest, so `dns_idx` order is not `completed`
        // order. Growth phases (few cuts) take the run past 40 entries;
        // pruning phases cut it with the eviction rule's shape: only
        // entries before the newest completed by `w`, only once expired.
        let mut rng = StdRng::seed_from_u64(34);
        let mut spills = Spills::default();
        let first = Entry { completed: Timestamp::ZERO, expires: Timestamp::ZERO, dns_idx: 0 };
        let mut run = Run::One(first);
        let mut model = vec![first];
        // `ticks` grid steps before `ms`.
        let before = |ms: u64, ticks: u64| Timestamp::from_millis(ms.saturating_sub(10 * ticks));
        let (mut now_ms, mut inserts, mut longest, mut back_to_one) = (0u64, 0usize, 0, 0);
        for step in 0..18_000usize {
            now_ms += 10 * rng.random_range(0..=1u64);
            let growing = (step / 800) % 2 == 0;
            if rng.random_bool(if growing { 0.97 } else { 0.25 }) {
                inserts += 1;
                let completed = before(now_ms, rng.random_range(0..4));
                let expires = Timestamp(completed.0 + 10_000_000 * rng.random_range(0..12u64));
                let e = Entry { completed, expires, dns_idx: inserts };
                let at = (completed, inserts);
                let want = model.partition_point(|m| (m.completed, m.dns_idx) <= at);
                model.insert(want, e);
                assert_eq!(run.insert(e, &mut spills), want, "insert at step {step}");
            } else {
                let w = before(now_ms, rng.random_range(0..if growing { 20 } else { 3 }));
                let cut = model.partition_point(|e| e.completed <= w);
                let last_keep = cut.saturating_sub(1);
                let was_many = model.len() > 1;
                let keep = || {
                    let mut pos = 0usize;
                    move |e: &Entry| {
                        let gone = pos < last_keep && e.expires <= w;
                        pos += 1;
                        !gone
                    }
                };
                model.retain(keep());
                run.retain(&mut spills, keep());
                back_to_one += usize::from(was_many && model.len() == 1);
                assert!(!model.is_empty(), "a cut keeps the newest entry");
            }
            longest = longest.max(model.len());
            assert_eq!(full_keys(run.as_slice(&spills)), full_keys(&model), "step {step}");
            assert_eq!(matches!(run, Run::One(_)), model.len() == 1, "step {step}");
        }
        assert!(inserts >= 10_000, "{inserts} inserts");
        assert!(longest >= 40, "runs reached only {longest} entries");
        assert!(back_to_one >= 10, "runs were cut back to one entry only {back_to_one} times");
    }

    /// Where a spilled run lives: `(class, block, len)`.
    fn place(run: &Run) -> (u8, u32, u32) {
        let Run::Many { class, block, len } = *run else { panic!("a run of one is in its slot") };
        (class, block, len)
    }

    #[test]
    fn a_run_cut_to_one_entry_frees_the_block_the_next_spill_takes() {
        let mut spills = Spills::default();
        // Another key holds block 0 throughout.
        let mut held = Run::One(entry((1, 9)));
        held.insert(entry((2, 8)), &mut spills);
        let mut run = Run::One(entry((10, 0)));
        run.insert(entry((20, 1)), &mut spills);
        assert_eq!(place(&run), (0, 1, 2));
        // Pruned to its newest entry, the run is back in its slot and its
        // block is free.
        run.retain(&mut spills, |e| e.dns_idx == 1);
        assert!(matches!(run, Run::One(e) if e.dns_idx == 1));
        assert_eq!(spills.classes[0].free, [1]);
        // The next spill takes that block: the slab does not grow.
        let slab = spills.classes[0].entries.len();
        let mut other = Run::One(entry((5, 3)));
        assert_eq!(other.insert(entry((6, 4)), &mut spills), 1);
        assert_eq!(place(&other), (0, 1, 2));
        assert!(spills.classes[0].free.is_empty());
        assert_eq!(spills.classes[0].entries.len(), slab);
        assert_eq!(keys(&other, &spills), [(5, 3), (6, 4)]);
        assert_eq!(keys(&held, &spills), [(1, 9), (2, 8)]);
    }

    #[test]
    fn a_growing_run_moves_up_the_classes_in_order_and_frees_what_it_outgrew() {
        // The smallest class whose blocks hold `len` entries.
        let fits = |len: u32| (0u8..).find(|k| 2u32 << k >= len).unwrap();
        let mut spills = Spills::default();
        let mut run = Run::One(entry((0, 0)));
        let mut want = vec![(0, 0)];
        // Keys land at the front, the back and in between, so every move
        // up a class carries entries on both sides of the new one.
        for i in 1..=40usize {
            let k = ((i as u64 * 37) % 41, i);
            want.push(k);
            want.sort_unstable();
            let pos = run.insert(entry(k), &mut spills);
            assert_eq!(want[pos], k, "entry {i}");
            assert_eq!(keys(&run, &spills), want, "entry {i}");
            let (class, block, len) = place(&run);
            assert_eq!((class, block, len as usize), (fits(len), 0, want.len()), "entry {i}");
        }
        // 41 entries sit in class 5; each class below has the block the run
        // outgrew free, and nothing else in it.
        for class in 0..5 {
            assert_eq!(spills.classes[class].free, [0], "class {class}");
            assert_eq!(spills.classes[class].entries.len(), 2 << class, "class {class}");
        }
        // A second run growing through those classes takes the same blocks.
        let mut second = Run::One(entry((0, 100)));
        for i in 1..=20 {
            second.insert(entry((i, 100 + i as usize)), &mut spills);
        }
        assert_eq!(place(&second), (4, 0, 21));
        for class in 0..5 {
            assert_eq!(spills.classes[class].entries.len(), 2 << class, "class {class}");
        }
        assert!(spills.classes[4].free.is_empty());
        assert_eq!(place(&run), (5, 0, 41));
        assert_eq!(keys(&run, &spills), want);
    }

    #[test]
    fn pending_rows_leave_in_ts_then_arrival_order_and_the_watermark_row_stays() {
        // (ts, payload): payloads of equal ts arrive 3, 1, 2, and a row
        // stamped later arrives before them all.
        let mut rows: Pending<(u64, u32)> = Pending::new();
        rows.extend([(30, 0), (10, 3), (20, 9), (10, 1), (10, 2), (20, 8)], |r| Timestamp(r.0));
        // An order that holds every row equal: arrival alone decides ties.
        let by_ts = |a: &(u64, u32), b: &(u64, u32)| a.0.cmp(&b.0);
        // The output is the caller's, and a release replaces what it held.
        let mut out = Vec::with_capacity(8);
        out.push((99, 99));
        let buffer = out.as_ptr();
        rows.release_before(Timestamp(10), by_ts, &mut out);
        assert_eq!(out, []);
        rows.release_before(Timestamp(20), by_ts, &mut out);
        assert_eq!(out, [(10, 3), (10, 1), (10, 2)]);
        assert_eq!(rows.len(), 3, "rows stamped at the watermark stay");
        // The caller's order wins where it tells rows apart.
        rows.extend([(20, 7)], |r| Timestamp(r.0));
        rows.release_before(Timestamp(31), |a, b| a.cmp(b), &mut out);
        assert_eq!(out, [(20, 7), (20, 8), (20, 9), (30, 0)]);
        assert!(rows.len() == 0 && rows.scratch.is_empty());
        assert_eq!(out.as_ptr(), buffer, "the output vector is reused");
    }

    #[test]
    fn unwindowed_epoch_releases_nothing_until_finish() {
        let cfg = AnalysisConfig::default();
        let mut engine = StreamEngine::new(MonitorConfig::default(), cfg);
        engine.buffer(vec![conn(1_000, 1)], vec![txn(500, 1, 60)]);
        let out = engine.end_epoch(None);
        assert!(out.conns.is_empty() && out.dns.is_empty());
        let result = engine.finish();
        assert_eq!(result.tail.conns.len(), 1);
        assert_eq!(result.tail.dns.len(), 1);
        assert_eq!(result.stream_metrics.counter("stream.epochs"), 1);
    }

    #[test]
    fn hub_sees_prefix_snapshots_and_flight_events() {
        let mut cfg = AnalysisConfig::default();
        cfg.threshold_rule.min_lookups = 1;
        let hub = xkit::obs::ObsHub::default();
        let mut engine = StreamEngine::new(MonitorConfig::default(), cfg);
        engine.set_hub(hub.clone());
        engine.buffer(vec![conn(500_000, 1)], vec![txn(1_000, 1, 1), txn(2_000, 2, 1)]);

        engine.end_epoch(Some(Timestamp::from_millis(100_000)));
        let mid = hub.metrics();
        assert_eq!(mid.counter("stream.epochs"), 1);
        assert_eq!(mid.counter("zeek.dns_rows"), 2);
        // Mid-run snapshots never carry finish-only keys.
        assert_eq!(mid.counter("class.shared_cache"), 0);

        engine.end_epoch(Some(Timestamp::from_millis(400_000)));
        let result = engine.finish();
        let fin = hub.metrics();
        // The finish-time publication is the settled snapshot, and every
        // mid-run counter is bounded by its final value.
        assert_eq!(fin.to_json(), result.settled_metrics().to_json());
        for (name, v) in [("stream.epochs", 1), ("zeek.dns_rows", 2)] {
            assert!(mid.counter(name) >= v && mid.counter(name) <= fin.counter(name));
        }

        let events = hub.flight().snapshot();
        assert!(events.iter().any(|e| e.kind == "epoch.release"));
        assert!(
            events.iter().any(|e| e.kind == "state.evict" && e.value == 1.0),
            "the older expired entry's eviction must hit the flight ring"
        );
    }

    /// A seeded tiny world on a 100 ms grid: two clients, three addresses,
    /// TTLs of 0–5 s and lookups that take up to 1.5 s, so completion,
    /// expiry and connection start collide with each other and with the
    /// cuts; a slow answer lands between older entries of its key
    /// (completed order ≠ `dns_idx` order); short TTLs prune a key to one
    /// entry before it regrows; a two-address answer spreads one lookup
    /// over two keys that evict at different times. Rows come back in
    /// shuffled (arrival) order.
    fn tiny_world(rng: &mut StdRng) -> (Vec<ConnRecord>, Vec<DnsTransaction>) {
        let clients = [HOUSE, Ipv4Addr::new(10, 77, 0, 2)];
        let addrs = [SERVER, Ipv4Addr::new(104, 16, 0, 2), Ipv4Addr::new(104, 16, 0, 3)];
        let resolvers = [RESOLVER, Ipv4Addr::new(198, 51, 100, 54)];
        let n_dns = rng.random_range(1..=14usize);
        let n_conns = rng.random_range(0..=14usize);
        let mut dns: Vec<DnsTransaction> = (0..n_dns)
            .map(|i| {
                let ttl = *rng.choose(&[0u32, 1, 1, 2, 5]).unwrap();
                let first = rng.random_range(0..addrs.len());
                let mut answers = Answers::from([Answer::addr(addrs[first], ttl)]);
                if rng.random_bool(0.3) {
                    answers.push(Answer::addr(addrs[(first + 1) % addrs.len()], ttl));
                }
                if rng.random_bool(0.1) {
                    answers = Answers::default();
                }
                let rtt_ms = *rng.choose(&[0u64, 100, 100, 200, 300, 1_500]).unwrap();
                DnsTransaction {
                    client: *rng.choose(&clients).unwrap(),
                    resolver: *rng.choose(&resolvers).unwrap(),
                    rtt: (!rng.random_bool(0.1)).then(|| Duration::from_millis(rtt_ms)),
                    answers,
                    ..txn(100 * rng.random_range(0..100u64), i as u16, ttl)
                }
            })
            .collect();
        let mut conns: Vec<ConnRecord> = (0..n_conns)
            .map(|j| {
                let mut c = conn(100 * rng.random_range(0..120u64), j as u64);
                c.id.orig_addr = *rng.choose(&clients).unwrap();
                c.id.resp_addr = *rng.choose(&addrs).unwrap();
                if rng.random_bool(0.1) {
                    c.service = Some("dns");
                }
                c
            })
            .collect();
        shuffle(rng, &mut dns);
        shuffle(rng, &mut conns);
        (conns, dns)
    }

    /// Fisher–Yates.
    fn shuffle<T>(rng: &mut StdRng, rows: &mut [T]) {
        for i in (1..rows.len()).rev() {
            rows.swap(i, rng.random_range(0..=i));
        }
    }

    #[test]
    fn eviction_differential_over_seeded_tiny_worlds() {
        let mut cfg = AnalysisConfig::default();
        cfg.threshold_rule.min_lookups = 1;
        let mut evicted = 0u64;
        for seed in 0..320u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (conns, dns) = tiny_world(&mut rng);
            let size = format!("seed {seed}, {} dns + {} conn rows", dns.len(), conns.len());
            let mut logs = Logs { conns: conns.clone(), dns: dns.clone(), names: names(), ..Default::default() };
            logs.sort();
            let analysis = Analysis::run(&logs, cfg.clone());
            let mut batch = logs.metrics();
            batch.merge(&analysis.metrics());

            // One epoch; every grid instant its own epoch (so a cut falls
            // exactly on every `ts`, `completed` and `expires`, and every
            // row is alone with the rows of its instant); random cuts on
            // and off the grid.
            let every_tick: Vec<u64> = (0..=180).map(|t| 100 * t).collect();
            let mut random: Vec<u64> = (0..rng.random_range(1..=8usize))
                .map(|_| 50 * rng.random_range(0..360u64))
                .collect();
            random.sort_unstable();
            for (cuts, boundaries) in
                [("one epoch", vec![18_000]), ("every tick", every_tick), ("random", random)]
            {
                let (got_conns, got_dns, result) =
                    stream_rows(conns.clone(), dns.clone(), &boundaries, cfg.clone());
                assert_eq!(got_conns, logs.conns, "conn releases, {cuts} cuts, {size}");
                assert_eq!(got_dns, logs.dns, "dns releases, {cuts} cuts, {size}");
                assert_eq!(
                    result.class_counts,
                    analysis.class_counts(),
                    "class counts, {cuts} cuts, {size}"
                );
                assert_eq!(
                    result.analysis_metrics.to_json(),
                    batch.to_json(),
                    "analysis metrics, {cuts} cuts, {size}"
                );
                evicted += result.stream_metrics.counter("stream.evicted_answers");
            }
        }
        assert!(evicted > 1_000, "worlds too tame to exercise eviction: {evicted} drops");
    }

    /// `stream.epochs` after streaming a capture of one-byte frames
    /// stamped `stamps` (ns) through [`process_source_observed`] at
    /// `window_nanos`.
    fn epochs_cut(stamps: &[u64], window_nanos: u64) -> u64 {
        let mut buf = Vec::new();
        let mut w = pcapio::PcapWriter::new(&mut buf, 96).unwrap();
        for ts in stamps {
            w.write_packet(*ts, &[*ts as u8], 1).unwrap();
        }
        let mut sunk = 0u64;
        let result = process_source_observed(
            &mut pcapio::source::file(&buf[..]).unwrap(),
            Duration(window_nanos),
            MonitorConfig::default(),
            AnalysisConfig::default(),
            None,
            |_| sunk += 1,
        )
        .unwrap();
        assert_eq!(result.analysis_metrics.counter("zeek.frames_seen"), stamps.len() as u64);
        let epochs = result.stream_metrics.counter("stream.epochs");
        assert_eq!(sunk, epochs, "every epoch reaches the sink exactly once");
        epochs
    }

    #[test]
    fn epochs_split_on_window_boundaries() {
        // Window of 10 ns: [0,10), [10,20), [30,40) — empty windows open
        // no epoch.
        assert_eq!(epochs_cut(&[1, 5, 9, 10, 19, 35], 10), 3);
    }

    #[test]
    fn epochs_clamp_monotone_on_disordered_input() {
        // 25 opens epoch 2; the out-of-order 4 stays in epoch 2 rather
        // than reopening epoch 0.
        assert_eq!(epochs_cut(&[25, 4, 31], 10), 2);
    }

    #[test]
    fn epochs_empty_capture_yields_nothing() {
        assert_eq!(epochs_cut(&[], 10), 0);
    }

    #[test]
    fn epochs_zero_window_is_single_epoch() {
        assert_eq!(epochs_cut(&[1, 500, 1_000_000], 0), 1);
    }

    #[test]
    fn epochs_concatenation_is_lossless() {
        // 100 frames over 11 windows: `epochs_cut` checks none is lost.
        let stamps: Vec<u64> = (0..100).map(|i| i * 7).collect();
        assert_eq!(epochs_cut(&stamps, 64), 11);
    }

    #[test]
    fn random_policy_is_rejected() {
        let mut cfg = AnalysisConfig::default();
        cfg.policy = PairingPolicy::RandomNonExpired;
        let err = std::panic::catch_unwind(|| {
            StreamEngine::new(MonitorConfig::default(), cfg);
        });
        assert!(err.is_err());
    }
}
