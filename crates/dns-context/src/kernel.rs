//! The paper's rule, spelled once.
//!
//! The method of §4–§5 is four small decisions: which lookup a
//! connection pairs with, whether it blocked on that lookup, `P` vs `LC`
//! by first use, and `SC` vs `R` by a per-resolver duration threshold.
//! The batch pairer ([`crate::pairing`], a flat counting-sorted arena over
//! the whole log) and the stream engine ([`crate::stream`], keyed runs
//! with eviction) *store* candidate lookups differently; everything they
//! decide about them — and every snapshot key they publish about the
//! outcome — is in this file, so the two cannot drift.

use crate::analysis::Coverage;
use crate::classify::{ClassCounts, ConnClass};
use std::collections::HashMap;
use std::net::Ipv4Addr;
use xkit::obs::{HistSpec, Metrics};
use zeek_lite::{Duration, Timestamp};

/// The index key: `(client, answer address)` packed into one word.
#[inline]
pub(crate) fn pack_key(client: Ipv4Addr, addr: Ipv4Addr) -> u64 {
    (u64::from(u32::from(client)) << 32) | u64::from(u32::from(addr))
}

/// One lookup's relevance to one `(client, address)` key. A key's *run*
/// is its entries sorted by `(completed, dns_idx)`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Entry {
    pub completed: Timestamp,
    pub expires: Timestamp,
    /// The lookup's position in the (for the stream: virtual) dns.log.
    pub dns_idx: usize,
}

impl Entry {
    /// Whether the record is still live for a connection starting at
    /// `ts`. Strict: a record expiring at `ts` — any TTL-0 answer — is not.
    pub(crate) fn live_at(&self, ts: Timestamp) -> bool {
        self.expires > ts
    }
}

/// What [`select`] found for one connection.
pub(crate) struct Selected<'a> {
    /// The run's entries completed at or before the connection start:
    /// every candidate, live or expired, oldest first.
    pub prior: &'a [Entry],
    /// The paper's choice among them.
    pub chosen: &'a Entry,
    /// No candidate was live; `chosen` is the expired fallback.
    pub expired: bool,
}

/// Candidate selection (§4) over one key's run for a connection starting
/// at `ts`: the most recent lookup completed by `ts` whose record is
/// still live, else the most recent one, expired. `None` when no lookup
/// completed by `ts`.
pub(crate) fn select(run: &[Entry], ts: Timestamp) -> Option<Selected<'_>> {
    let prior = &run[..run.partition_point(|e| e.completed <= ts)];
    let newest = prior.last()?;
    let live = prior.iter().rev().find(|e| e.live_at(ts));
    Some(Selected { prior, chosen: live.unwrap_or(newest), expired: live.is_none() })
}

/// How the SC/R resolver thresholds are derived (paper §5.3): anchor on
/// the minimum observed duration per resolver (≈ the network RTT), scale
/// and pad slightly, and never go below the floor used for unpopular
/// resolvers.
#[derive(Debug, Clone, Copy)]
pub struct ThresholdRule {
    /// Minimum lookups a resolver needs for its own threshold.
    pub min_lookups: usize,
    /// Multiplier on the minimum duration.
    pub mult: f64,
    /// Additive pad, milliseconds.
    pub add_ms: f64,
    /// Default/floor threshold, milliseconds (the paper's 5 ms).
    pub floor_ms: f64,
}

impl Default for ThresholdRule {
    fn default() -> Self {
        ThresholdRule { min_lookups: 1_000, mult: 1.5, add_ms: 2.0, floor_ms: 5.0 }
    }
}

impl ThresholdRule {
    /// The threshold of a resolver whose fastest of `answered` lookups
    /// took `min_ms`: a whole number of milliseconds, or `None` below
    /// `min_lookups` (such resolvers use [`floor`](ThresholdRule::floor)).
    pub(crate) fn threshold(&self, min_ms: f64, answered: usize) -> Option<Duration> {
        (answered >= self.min_lookups).then(|| {
            let ms = (min_ms * self.mult + self.add_ms).max(self.floor_ms).ceil();
            Duration::from_secs_f64(ms / 1e3)
        })
    }

    /// The threshold of every resolver without one of its own.
    pub(crate) fn floor(&self) -> Duration {
        Duration::from_secs_f64(self.floor_ms / 1e3)
    }
}

/// How one application connection paired with a lookup.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Paired {
    /// Connection start minus lookup completion.
    pub gap: Duration,
    /// The lookup was the expired fallback.
    pub expired: bool,
    /// This connection is the earliest to use the lookup.
    pub first_use: bool,
}

/// The part of a connection's class that is known as soon as it is
/// paired (§4–§5): unpaired is `N`; a connection starting more than
/// `block` (the blocking threshold) after its lookup completed did not
/// wait for it, and is `P` if it is the lookup's first use, else `LC`.
/// `None` means the connection blocked: [`blocked_class`] decides.
pub(crate) fn release_class(paired: Option<Paired>, block: Duration) -> Option<ConnClass> {
    let Some(p) = paired else { return Some(ConnClass::NoDns) };
    let unblocked = if p.first_use { ConnClass::Prefetched } else { ConnClass::LocalCache };
    (p.gap > block).then_some(unblocked)
}

/// A blocked connection's class (§5.3): a lookup no slower than its
/// resolver's threshold was answered from the shared cache.
pub(crate) fn blocked_class(lookup: Duration, threshold: Duration) -> ConnClass {
    if lookup <= threshold {
        ConnClass::SharedCache
    } else {
        ConnClass::Resolution
    }
}

/// The running tally behind the `pair.*` and `perf.blocked_*` keys, one
/// application connection at a time. The two histograms go straight into
/// the snapshot they are folded for and appear with their first value;
/// the counters are written by `store_*`, at zero too.
#[derive(Debug, Default)]
pub(crate) struct Tally {
    hit: u64,
    fallback: u64,
    miss: u64,
    first_use: u64,
    blocked: u64,
}

impl Tally {
    /// Fold one connection's pairing outcome (`None` if unpaired).
    pub(crate) fn pair(&mut self, hists: &mut Metrics, paired: Option<Paired>) {
        let Some(p) = paired else {
            self.miss += 1;
            return;
        };
        if p.expired {
            self.fallback += 1;
        } else {
            self.hit += 1;
        }
        self.first_use += u64::from(p.first_use);
        hists.observe_with("pair.gap_ms", HistSpec::time_ms(), p.gap.as_millis_f64());
    }

    /// Fold one blocked connection's lookup duration.
    pub(crate) fn blocked(&mut self, hists: &mut Metrics, lookup_ms: f64) {
        self.blocked += 1;
        hists.observe_with("perf.blocked_dns_ms", HistSpec::time_ms(), lookup_ms);
    }

    /// Application connections folded so far.
    pub(crate) fn app_conns(&self) -> u64 {
        self.hit + self.fallback + self.miss
    }

    /// Of those, how many paired with a lookup.
    pub(crate) fn paired(&self) -> u64 {
        self.hit + self.fallback
    }

    /// Write the `pair.*` counters: `hit + fallback + miss == app_conns`.
    pub(crate) fn store_pair(&self, m: &mut Metrics) {
        m.set_counter("pair.hit", self.hit);
        m.set_counter("pair.fallback", self.fallback);
        m.set_counter("pair.miss", self.miss);
        m.set_counter("pair.first_use", self.first_use);
        m.set_counter("pair.app_conns", self.app_conns());
    }

    /// Write `perf.blocked_conns`.
    pub(crate) fn store_perf(&self, m: &mut Metrics) {
        m.set_counter("perf.blocked_conns", self.blocked);
    }
}

/// Write the `cover.*` view: acceptance ratios as gauges, connection
/// counts as counters.
pub(crate) fn store_cover(m: &mut Metrics, c: &Coverage) {
    m.set_gauge("cover.frame_acceptance", c.frame_acceptance);
    m.set_gauge("cover.dns_acceptance", c.dns_acceptance);
    m.set_counter("cover.app_conns", c.app_conns as u64);
    m.set_counter("cover.paired", c.paired as u64);
}

/// Write the `class.*` counters [`release_class`] decides. A stream
/// snapshot carries only these until the run settles.
pub(crate) fn store_release_classes(m: &mut Metrics, c: &ClassCounts) {
    m.set_counter("class.no_dns", c.no_dns as u64);
    m.set_counter("class.local_cache", c.local_cache as u64);
    m.set_counter("class.prefetched", c.prefetched as u64);
}

/// Write all five `class.*` counters of a settled classification.
pub(crate) fn store_class_metrics(m: &mut Metrics, c: &ClassCounts) {
    store_release_classes(m, c);
    m.set_counter("class.shared_cache", c.shared_cache as u64);
    m.set_counter("class.resolution", c.resolution as u64);
}

/// Write the `threshold.*` keys: how many resolvers earned a threshold of
/// their own, and each one's, in milliseconds.
pub(crate) fn store_threshold_metrics(m: &mut Metrics, thresholds: &HashMap<Ipv4Addr, Duration>) {
    m.set_counter("threshold.resolvers", thresholds.len() as u64);
    // lint: allow(no-map-iteration): one metrics key per map key; Metrics stores sorted
    for (addr, thr) in thresholds {
        m.set_gauge(&format!("threshold.{addr}.ms"), thr.as_millis_f64());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(completed, expires, dns_idx)`, instants in ms.
    fn run(entries: &[(u64, u64, usize)]) -> Vec<Entry> {
        let at = Timestamp::from_millis;
        let mut run: Vec<Entry> = entries
            .iter()
            .map(|&(c, x, dns_idx)| Entry { completed: at(c), expires: at(x), dns_idx })
            .collect();
        run.sort_by_key(|e| (e.completed, e.dns_idx));
        run
    }

    #[test]
    fn selection_boundaries() {
        // (case, run, connection start, expected (chosen dns_idx, expired,
        // lookups completed by then))
        type Case = (&'static str, &'static [(u64, u64, usize)], u64, Option<(usize, bool, usize)>);
        let cases: [Case; 9] = [
            ("empty run", &[], 10, None),
            ("all complete after the start", &[(11, 99, 0), (12, 99, 1)], 10, None),
            ("completed == ts is eligible", &[(10, 99, 0)], 10, Some((0, false, 1))),
            ("expires == ts is expired", &[(5, 10, 0)], 10, Some((0, true, 1))),
            ("TTL 0 is the fallback at its own instant", &[(10, 10, 0)], 10, Some((0, true, 1))),
            ("TTL 0 is the fallback ever after", &[(10, 10, 0)], 11, Some((0, true, 1))),
            ("equal completed: higher dns_idx", &[(5, 99, 7), (5, 99, 3)], 10, Some((7, false, 2))),
            ("only expired: newest", &[(1, 4, 0), (3, 5, 1), (2, 6, 2)], 10, Some((1, true, 3))),
            ("live beats a newer expired one", &[(2, 99, 0), (6, 8, 1)], 10, Some((0, false, 2))),
        ];
        for (case, entries, ts, want) in cases {
            let run = run(entries);
            let got = select(&run, Timestamp::from_millis(ts));
            let got = got.map(|s| (s.chosen.dns_idx, s.expired, s.prior.len()));
            assert_eq!(got, want, "{case}");
        }
    }

    #[test]
    fn class_boundaries() {
        let block = Duration::from_millis(100);
        let paired = |gap_ms, first_use| {
            Some(Paired { gap: Duration::from_millis(gap_ms), expired: false, first_use })
        };
        assert_eq!(release_class(None, block), Some(ConnClass::NoDns));
        // A gap of exactly the threshold still blocks.
        assert_eq!(release_class(paired(100, true), block), None);
        assert_eq!(release_class(paired(101, true), block), Some(ConnClass::Prefetched));
        assert_eq!(release_class(paired(101, false), block), Some(ConnClass::LocalCache));
        // A lookup of exactly the threshold came from the shared cache.
        let thr = Duration::from_millis(8);
        assert_eq!(blocked_class(thr, thr), ConnClass::SharedCache);
        assert_eq!(blocked_class(Duration(thr.nanos() + 1), thr), ConnClass::Resolution);
    }

    #[test]
    fn every_counter_of_a_family_is_written_at_zero() {
        let mut m = Metrics::new();
        let tally = Tally::default();
        tally.store_pair(&mut m);
        tally.store_perf(&mut m);
        store_class_metrics(&mut m, &ClassCounts::default());
        store_threshold_metrics(&mut m, &HashMap::new());
        let keys: Vec<&str> = m.iter().map(|(k, _)| k).collect();
        let want = [
            "class.local_cache",
            "class.no_dns",
            "class.prefetched",
            "class.resolution",
            "class.shared_cache",
            "pair.app_conns",
            "pair.fallback",
            "pair.first_use",
            "pair.hit",
            "pair.miss",
            "perf.blocked_conns",
            "threshold.resolvers",
        ];
        assert_eq!(keys, want);
    }
}
