//! Ground-truth labels the simulator records alongside its observable
//! output.
//!
//! The analysis crate classifies connections using only what a passive
//! monitor can see (the paper's methodology). The simulator *knows* the
//! truth — which cache served each mapping, whether a record was stale,
//! which lookups were speculative — so integration tests can measure how
//! well the paper's heuristics recover reality, and the §8 cache
//! simulations can be validated.

use std::net::Ipv4Addr;
use zeek_lite::Timestamp;

/// Where a connection's DNS information actually came from — the
/// simulator's ground truth for the paper's five classes (Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConnClass {
    /// No DNS was involved (peer-to-peer, hard-coded addresses).
    NoDns,
    /// Served from the device's local cache, previously used.
    LocalCache,
    /// Served from a speculative (prefetched, not yet used) lookup.
    Prefetched,
    /// Blocked on a lookup answered from the shared resolver's cache.
    SharedCache,
    /// Blocked on a lookup that required authoritative resolution.
    Resolution,
}

impl ConnClass {
    /// The paper's symbol for the class.
    pub fn symbol(self) -> &'static str {
        match self {
            ConnClass::NoDns => "N",
            ConnClass::LocalCache => "LC",
            ConnClass::Prefetched => "P",
            ConnClass::SharedCache => "SC",
            ConnClass::Resolution => "R",
        }
    }
}

/// Ground truth for one connection, aligned by index with the emitted
/// connection records.
#[derive(Debug, Clone)]
pub struct TruthConn {
    /// Start time (matches the connection record's `ts`).
    pub ts: Timestamp,
    /// Originator (house) address.
    pub orig_addr: Ipv4Addr,
    /// Responder address.
    pub resp_addr: Ipv4Addr,
    /// Responder port.
    pub resp_port: u16,
    /// True class.
    pub class: ConnClass,
    /// The mapping used was past its TTL (only meaningful for
    /// `LocalCache`/`Prefetched`).
    pub stale: bool,
    /// Index into the DNS truth vector of the lookup this connection used,
    /// if any.
    pub dns_index: Option<usize>,
}

/// Ground truth for one DNS transaction, aligned by index with the emitted
/// DNS log.
#[derive(Debug, Clone)]
pub struct TruthDns {
    /// Query time.
    pub ts: Timestamp,
    /// Whether the *shared resolver* answered from its cache (SC) rather
    /// than contacting authoritative servers (R).
    pub shared_cache_hit: bool,
    /// Whether the lookup was speculative (issued ahead of need).
    pub speculative: bool,
    /// Resolver platform index (into the platform table) the query went to.
    pub platform: usize,
}

/// All ground truth from one run.
#[derive(Debug, Clone, Default)]
pub struct GroundTruth {
    /// Per-connection truth, in emission order (pre-sort; match by
    /// timestamp + endpoints when comparing against sorted logs).
    pub conns: Vec<TruthConn>,
    /// Per-DNS-transaction truth, in emission order.
    pub dns: Vec<TruthDns>,
}

impl GroundTruth {
    /// Count of connections with the given true class.
    pub(crate) fn class_count(&self, class: ConnClass) -> usize {
        self.conns.iter().filter(|c| c.class == class).count()
    }

    /// Share (0..1) of connections with the given true class.
    // lint: allow(unused-pub): the scenario presets' tests (scenarios.rs) read ground-truth shares through it
    pub fn class_share(&self, class: ConnClass) -> f64 {
        if self.conns.is_empty() {
            return 0.0;
        }
        self.class_count(class) as f64 / self.conns.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symbols() {
        assert_eq!(ConnClass::NoDns.symbol(), "N");
        assert_eq!(ConnClass::LocalCache.symbol(), "LC");
        assert_eq!(ConnClass::Prefetched.symbol(), "P");
        assert_eq!(ConnClass::SharedCache.symbol(), "SC");
        assert_eq!(ConnClass::Resolution.symbol(), "R");
    }

    #[test]
    fn shares() {
        let mut gt = GroundTruth::default();
        assert_eq!(gt.class_share(ConnClass::NoDns), 0.0);
        for class in [ConnClass::NoDns, ConnClass::NoDns, ConnClass::LocalCache, ConnClass::Resolution] {
            gt.conns.push(TruthConn {
                ts: Timestamp::ZERO,
                orig_addr: Ipv4Addr::UNSPECIFIED,
                resp_addr: Ipv4Addr::UNSPECIFIED,
                resp_port: 0,
                class,
                stale: false,
                dns_index: None,
            });
        }
        assert_eq!(gt.class_count(ConnClass::NoDns), 2);
        assert!((gt.class_share(ConnClass::NoDns) - 0.5).abs() < 1e-12);
    }
}
