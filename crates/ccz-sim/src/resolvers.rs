//! Resolver platform model: shared caches, frontend fan-out, delays.
//!
//! Each platform (Local ISP, Google, OpenDNS, Cloudflare) is a set of
//! independent backend caches. A query lands on a uniformly-random backend
//! (anycast/ECMP fan-out — the mechanism behind Google's low effective
//! cache hit rate in the paper's §7). A backend answers from cache when
//!
//! * this network's own earlier queries left the name cached there, or
//! * background traffic from the platform's *other* users kept it warm —
//!   modelled as a Poisson process whose rate scales with the name's
//!   global popularity and the platform's `external_warmth`.
//!
//! Cache answers return *decremented* TTLs, as real resolvers do; misses
//! add an authoritative-resolution delay drawn from the platform's
//! log-normal (capped — Google's serve-stale behaviour gives it a short
//! tail, which is how the paper's Figure 3 crossover arises).

use crate::config::PlatformConfig;
use crate::dists::LogNormal;
use crate::names::NameId;
use xkit::collections::FastMap;
use xkit::rng::StdRng;
use std::net::Ipv4Addr;
use zeek_lite::{Duration, Timestamp};

/// Result of one recursive query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LookupOutcome {
    /// Client-observed lookup duration.
    pub duration: Duration,
    /// Whether the shared cache answered (SC ground truth); false means
    /// authoritative servers were contacted (R ground truth).
    pub cache_hit: bool,
    /// TTL carried by the response (decremented on cache hits).
    pub response_ttl: u32,
}

/// One resolver platform's live state.
pub struct ResolverPlatform {
    /// Static parameters.
    pub cfg: PlatformConfig,
    rtt: LogNormal,
    auth: LogNormal,
    /// Every backend's cache in one map: (backend, name) → expiry
    /// instant, so a platform of a thousand backends grows one table,
    /// not a thousand. FxHash map: hit on every query, addressed by key;
    /// `retain` removal is the only traversal and is order-independent.
    cache: FastMap<(usize, NameId), Timestamp>,
    /// Counters for the run summary.
    pub queries: u64,
    /// Cache hits among those queries.
    pub hits: u64,
}

impl ResolverPlatform {
    /// Build a platform from its config.
    pub(crate) fn new(cfg: PlatformConfig) -> ResolverPlatform {
        ResolverPlatform {
            rtt: LogNormal::from_median(cfg.rtt_ms, cfg.rtt_sigma),
            auth: LogNormal::from_median(cfg.auth_delay_ms, cfg.auth_sigma),
            cache: FastMap::default(),
            cfg,
            queries: 0,
            hits: 0,
        }
    }

    /// One of the platform's service addresses (clients alternate).
    pub(crate) fn addr(&self, rng: &mut StdRng) -> Ipv4Addr {
        let a = rng.choose(self.cfg.addrs).expect("every platform has an address");
        Ipv4Addr::new(a[0], a[1], a[2], a[3])
    }

    /// Process one recursive query for `name` with authoritative TTL
    /// `auth_ttl` and global popularity `pop` at time `now`.
    pub(crate) fn query(
        &mut self,
        name: NameId,
        pop: f64,
        auth_ttl: u32,
        now: Timestamp,
        rng: &mut StdRng,
    ) -> LookupOutcome {
        self.queries += 1;
        let key = (rng.random_range(0..self.cfg.backends), name);
        let rtt = Duration::from_secs_f64(self.rtt.sample_clamped(rng, 0.3, 500.0) / 1e3);

        // Our own traffic's cache entry, if still valid.
        let own_expiry = self.cache.get(&key).copied().filter(|e| *e > now);
        if let Some(expiry) = own_expiry {
            self.hits += 1;
            let remaining = expiry.since(now).as_secs().max(1) as u32;
            return LookupOutcome { duration: rtt, cache_hit: true, response_ttl: remaining.min(auth_ttl) };
        }

        // External warmth: probability the platform's other users kept the
        // name cached on this backend within the last TTL window.
        let lambda = self.cfg.external_warmth * pop; // background queries/sec/backend
        let p_warm = 1.0 - (-lambda * auth_ttl as f64).exp();
        if rng.random_bool(p_warm.clamp(0.0, 1.0)) {
            self.hits += 1;
            // Uniform residual lifetime for a record cached at a uniformly
            // random point in its TTL window.
            let remaining = rng.random_range(1..=auth_ttl.max(1));
            self.cache.insert(key, now + Duration::from_secs(remaining as u64));
            return LookupOutcome { duration: rtt, cache_hit: true, response_ttl: remaining };
        }

        // Miss: contact authoritative servers.
        let auth_ms = self
            .auth
            .sample_clamped(rng, 12.0, self.cfg.auth_cap_ms);
        let duration = rtt + Duration::from_secs_f64(auth_ms / 1e3);
        self.cache.insert(key, now + Duration::from_secs(auth_ttl as u64));
        LookupOutcome { duration, cache_hit: false, response_ttl: auth_ttl }
    }

    /// Drop expired entries (bounds memory on long runs).
    pub(crate) fn compact(&mut self, now: Timestamp) {
        self.cache.retain(|_, expiry| *expiry > now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PLATFORMS;

    fn platform(i: usize) -> ResolverPlatform {
        ResolverPlatform::new(PLATFORMS[i])
    }

    #[test]
    fn own_traffic_warms_the_cache() {
        let mut p = platform(crate::config::platform::LOCAL);
        let mut rng = StdRng::seed_from_u64(1);
        let t0 = Timestamp::from_secs(100);
        let first = p.query(NameId(1), 1e-9, 300, t0, &mut rng);
        assert!(!first.cache_hit, "cold cache must miss");
        assert_eq!(first.response_ttl, 300);
        let second = p.query(NameId(1), 1e-9, 300, t0 + Duration::from_secs(50), &mut rng);
        assert!(second.cache_hit);
        assert!(second.response_ttl <= 250, "ttl must be decremented: {}", second.response_ttl);
        assert!(second.duration < first.duration);
    }

    #[test]
    fn expired_entries_miss_again() {
        let mut p = platform(crate::config::platform::LOCAL);
        let mut rng = StdRng::seed_from_u64(2);
        let t0 = Timestamp::from_secs(100);
        p.query(NameId(1), 1e-9, 60, t0, &mut rng);
        let later = p.query(NameId(1), 1e-9, 60, t0 + Duration::from_secs(120), &mut rng);
        assert!(!later.cache_hit);
    }

    #[test]
    fn popular_names_are_externally_warm() {
        let mut cf = platform(crate::config::platform::CLOUDFLARE);
        let mut rng = StdRng::seed_from_u64(3);
        let mut hits = 0;
        for i in 0..1000u32 {
            // Distinct names so our own cache never helps.
            let o = cf.query(NameId(1000 + i), 0.01, 300, Timestamp::from_secs(i as u64), &mut rng);
            if o.cache_hit {
                hits += 1;
            }
        }
        assert!(hits > 900, "popular name on warm platform: {hits}/1000");
    }

    #[test]
    fn unpopular_names_are_cold() {
        let mut g = platform(crate::config::platform::GOOGLE);
        let mut rng = StdRng::seed_from_u64(4);
        let mut hits = 0;
        for i in 0..1000u32 {
            let o = g.query(NameId(1000 + i), 1e-6, 300, Timestamp::from_secs(i as u64), &mut rng);
            if o.cache_hit {
                hits += 1;
            }
        }
        assert!(hits < 50, "unpopular names should miss: {hits}/1000");
    }

    #[test]
    fn fanout_lowers_effective_hit_rate() {
        // Same (moderate) name popularity; many-backend platform should
        // see fewer *own-traffic* hits than a single-backend one.
        let mut rng = StdRng::seed_from_u64(5);
        let mut rates = Vec::new();
        for backends in [1usize, 64] {
            let mut cfg = PLATFORMS[crate::config::platform::LOCAL];
            cfg.backends = backends;
            cfg.external_warmth = 0.0;
            let mut p = ResolverPlatform::new(cfg);
            for q in 0..2000u64 {
                // One name re-queried every 10 s with a 300 s TTL.
                p.query(NameId(7), 0.0, 300, Timestamp::from_secs(q * 10), &mut rng);
            }
            rates.push(p.hits as f64 / p.queries as f64);
        }
        assert!(rates[0] > 0.9, "single backend should stay warm: {}", rates[0]);
        assert!(rates[1] < rates[0] - 0.2, "fan-out must cool the cache: {rates:?}");
    }

    #[test]
    fn auth_delay_respects_cap() {
        let mut g = platform(crate::config::platform::GOOGLE);
        let cap_ms = g.cfg.auth_cap_ms;
        let rtt_budget_ms = 550.0; // rtt clamp upper bound + slack
        let mut rng = StdRng::seed_from_u64(6);
        for i in 0..500u32 {
            let o = g.query(NameId(50_000 + i), 1e-12, 60, Timestamp::from_secs(i as u64 * 100), &mut rng);
            assert!(!o.cache_hit);
            assert!(o.duration.as_millis_f64() < cap_ms + rtt_budget_ms);
        }
    }

    #[test]
    fn compact_drops_expired() {
        let mut p = platform(crate::config::platform::LOCAL);
        let mut rng = StdRng::seed_from_u64(7);
        for i in 0..100u32 {
            p.query(NameId(i), 0.0, 60, Timestamp::from_secs(0), &mut rng);
        }
        p.compact(Timestamp::from_secs(1_000));
        let total = p.cache.len();
        assert_eq!(total, 0);
    }

    #[test]
    fn owns_and_addr() {
        let mut rng = StdRng::seed_from_u64(8);
        let p = platform(crate::config::platform::GOOGLE);
        let a = p.addr(&mut rng);
        assert!(p.cfg.addrs.contains(&a.octets()));
    }
}
