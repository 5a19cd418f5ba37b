//! Simulation configuration.
//!
//! Defaults are calibrated (at seed 42) so the analysis pipeline measures
//! values near the paper's headline numbers; EXPERIMENTS.md records the
//! fidelity actually achieved. Every mechanism the paper observes has an
//! explicit parameter here. [`WorkloadConfig`] holds the few a caller
//! varies: the volume, the size of the name universe, and the
//! probabilities tests move to drive one path end to end. Every other
//! parameter has one value in use, so it is a `const` below.

/// Output size knobs, separated from behavioural parameters so sweeps can
/// vary volume without touching behaviour.
#[derive(Debug, Clone)]
pub struct ScaleKnobs {
    /// Number of houses (the CCZ had roughly 100).
    pub houses: usize,
    /// Trace length in days (the paper used 7).
    pub days: f64,
    /// Multiplier on per-device activity rates. 1.0 approximates the CCZ's
    /// ~11 M connections/week; the default 0.1 keeps harness runs fast
    /// while leaving distributions unchanged.
    pub activity: f64,
}

impl ScaleKnobs {
    /// Trace length in seconds.
    pub(crate) fn duration_secs(&self) -> f64 {
        self.days * 86_400.0
    }
}

/// Per-resolver-platform model parameters.
#[derive(Debug, Clone, Copy)]
pub struct PlatformConfig {
    /// Human name ("Local", "Google", ...).
    pub name: &'static str,
    /// Anycast/service addresses of the platform.
    pub addrs: &'static [[u8; 4]],
    /// Median client↔resolver RTT in milliseconds.
    pub rtt_ms: f64,
    /// RTT jitter shape (log-normal sigma).
    pub rtt_sigma: f64,
    /// Number of independent backend caches queries are spread over
    /// (models frontend fan-out; more backends = colder caches).
    pub backends: usize,
    /// External-traffic warmth multiplier: scales the Poisson rate of
    /// background queries (from the platform's other users) that keep
    /// popular names cached. Zero for a resolver serving only this network.
    pub external_warmth: f64,
    /// Median authoritative-resolution delay added on a cache miss, ms.
    pub auth_delay_ms: f64,
    /// Authoritative delay shape (log-normal sigma).
    pub auth_sigma: f64,
    /// Hard cap on authoritative delay, ms (Google's serve-stale behaviour
    /// gives it a short tail; others are allowed longer).
    pub auth_cap_ms: f64,
}

/// The workload values a caller varies; the rest of the model is the
/// constants below.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// Volume knobs.
    pub scale: ScaleKnobs,

    // ---- name universe ----
    /// Number of distinct web services (each with a handful of hostnames).
    pub services: usize,
    /// Number of shared third-party services (ads/analytics/CDN hostnames
    /// embedded across many sites).
    pub shared_services: usize,

    // ---- house composition ----
    /// Probability a house routes every device through the ISP resolvers
    /// (the paper's hypothesised DNS-forwarder houses, ~16%).
    pub p_house_forwarder_only: f64,
    /// Probability a (non-forwarder) house has devices using OpenDNS.
    pub p_house_opendns: f64,
    /// Probability a (non-forwarder) house has devices using Cloudflare.
    pub p_house_cloudflare: f64,

    // ---- negative answers ----
    /// Probability a page view also fires a lookup for a non-existent
    /// name (typos, dead links, software probing retired hostnames).
    /// NXDOMAIN responses carry no addresses, so these lookups never pair
    /// with a connection. Default 0 (the paper does not separate them).
    pub p_nxdomain: f64,
}

// ---- name universe ----
/// Zipf exponent of service popularity.
pub(crate) const ZIPF_EXPONENT: f64 = 0.95;
/// TTL mixture: (seconds, weight).
// Weighted toward the short TTLs CDNs use; drives both cache efficacy and
// the TTL-violation delay distribution.
pub(crate) const TTL_CLASSES: [(u32, f64); 5] = [
    (30, 0.06),
    (60, 0.14),
    (300, 0.35),
    (3_600, 0.32),
    (86_400, 0.13),
];
/// Fraction of services hosted on shared CDN addresses (several names
/// resolving to one IP — the pairing-ambiguity mechanism).
pub(crate) const COHOST_FRACTION: f64 = 0.35;
/// Fraction of lookups answered with a CNAME chain ahead of the A records.
pub(crate) const CNAME_FRACTION: f64 = 0.30;

// ---- house / device composition ----
/// Probability a house runs a peer-to-peer client.
pub(crate) const P_HOUSE_P2P: f64 = 0.20;
/// Probability a house contains a TP-Link-style device with a
/// hard-coded (and retired) NTP server address.
pub(crate) const P_HOUSE_TPLINK_NTP: f64 = 0.25;
/// Probability a house has an Ooma VoIP box (hard-coded NTP servers).
pub(crate) const P_HOUSE_OOMA: f64 = 0.04;
/// Probability a house has an AlarmNet-style security panel
/// (hard-coded HTTPS endpoints).
pub(crate) const P_HOUSE_ALARMNET: f64 = 0.10;

// ---- stub-cache / TTL-violation model ----
/// Probability a device reuses an expired cache entry instead of
/// re-resolving (drives the paper's §5.2 violation rates).
pub(crate) const P_STALE_REUSE: f64 = 0.70;
/// Maximum staleness a violating device tolerates, seconds.
pub(crate) const MAX_STALE_SECS: f64 = 26_000.0;
/// Probability a name use bypasses the device's stub cache entirely
/// (a different process/browser with its own empty cache): the same
/// house then re-queries a record within its TTL — exactly the
/// duplication the paper's whole-house cache (§8) absorbs.
pub(crate) const P_STUB_BYPASS: f64 = 0.05;

// ---- browsing model ----
/// Mean think time between browsing sessions per device, seconds
/// (before diurnal modulation and the activity knob).
pub(crate) const SESSION_GAP_SECS: f64 = 2_400.0;
/// Mean pages per browsing session (geometric).
pub(crate) const PAGES_PER_SESSION: f64 = 8.0;
/// Page dwell time: median seconds (log-normal).
pub(crate) const DWELL_MEDIAN_SECS: f64 = 240.0;
/// Embedded third-party/site object names per page (uniform range).
pub(crate) const EMBEDDED_NAMES_PER_PAGE: (usize, usize) = (4, 9);
/// Links speculatively resolved per page (uniform range).
pub(crate) const PREFETCH_LINKS_PER_PAGE: (usize, usize) = (2, 4);
/// Probability a prefetched link is clicked (paper: ~22 % of
/// speculative lookups end up used).
pub(crate) const P_PREFETCH_CLICK: f64 = 0.62;
/// Probability an embedded name-use opens a second parallel connection.
pub(crate) const P_SECOND_CONN: f64 = 0.25;

// ---- other apps ----
/// Mean gap between background app polls per device, seconds.
pub(crate) const POLL_GAP_SECS: f64 = 1_200.0;
/// Mean gap between streaming sessions per streaming device, seconds.
pub(crate) const STREAM_GAP_SECS: f64 = 8_400.0;
/// Mean streaming session length, seconds.
pub(crate) const STREAM_LEN_SECS: f64 = 2_400.0;
/// Gap between video segment fetches, seconds.
pub(crate) const STREAM_SEGMENT_GAP_SECS: f64 = 35.0;
/// Mean gap between Android connectivity checks, seconds.
pub(crate) const CONNECTIVITY_CHECK_GAP_SECS: f64 = 1_500.0;
/// Mean gap between P2P bursts (per P2P house), seconds.
pub(crate) const P2P_BURST_GAP_SECS: f64 = 1_700.0;
/// Connections per P2P burst (uniform range).
pub(crate) const P2P_BURST_CONNS: (usize, usize) = (12, 55);

// ---- timing detail ----
/// Application processing delay between a DNS answer arriving and the
/// SYN leaving, milliseconds (log-normal median; keeps most blocked
/// connections inside the paper's 20 ms knee).
pub(crate) const APP_START_DELAY_MS: f64 = 1.5;
/// Shape of the app start delay (its tail creates the 20–100 ms
/// stragglers the paper's conservative threshold absorbs).
pub(crate) const APP_START_SIGMA: f64 = 1.0;

/// Platform table indices (fixed by convention).
pub mod platform {
    /// Local ISP resolvers.
    pub const LOCAL: usize = 0;
    /// Google Public DNS.
    pub const GOOGLE: usize = 1;
    /// OpenDNS.
    pub const OPENDNS: usize = 2;
    /// Cloudflare.
    pub const CLOUDFLARE: usize = 3;
}

/// Resolver platform table, in [`platform`] order: Local ISP, Google,
/// OpenDNS, Cloudflare (Table 1's rows).
pub(crate) const PLATFORMS: [PlatformConfig; 4] = [
    PlatformConfig {
        name: "Local",
        addrs: &[[198, 51, 100, 53], [198, 51, 100, 54]],
        rtt_ms: 2.0,
        rtt_sigma: 0.08,
        backends: 2,
        // The two ISP resolvers also serve the rest of the ISP's
        // customers; warmth beyond intra-CCZ sharing models that base
        // (scale-independent calibration).
        external_warmth: 3.6,
        auth_delay_ms: 22.0,
        auth_sigma: 0.7,
        auth_cap_ms: 4_000.0,
    },
    PlatformConfig {
        name: "Google",
        addrs: &[[8, 8, 8, 8], [8, 8, 4, 4]],
        rtt_ms: 20.0,
        rtt_sigma: 0.08,
        // Heavy frontend fan-out: queries rarely land on a backend the
        // name is warm in (paper: 23 % hit rate).
        backends: 1_024,
        external_warmth: 0.008,
        auth_delay_ms: 55.0,
        auth_sigma: 0.5,
        // Serve-stale-style short tail (paper: Google's R distribution
        // crosses below the others at p75).
        auth_cap_ms: 350.0,
    },
    PlatformConfig {
        name: "OpenDNS",
        addrs: &[[208, 67, 222, 222], [208, 67, 220, 220]],
        rtt_ms: 20.0,
        rtt_sigma: 0.08,
        backends: 6,
        external_warmth: 1.0,
        auth_delay_ms: 38.0,
        auth_sigma: 0.7,
        auth_cap_ms: 4_000.0,
    },
    PlatformConfig {
        name: "Cloudflare",
        addrs: &[[1, 1, 1, 1], [1, 0, 0, 1]],
        rtt_ms: 9.0,
        rtt_sigma: 0.08,
        backends: 2,
        external_warmth: 60.0,
        auth_delay_ms: 36.0,
        auth_sigma: 0.7,
        auth_cap_ms: 4_000.0,
    },
];

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            scale: ScaleKnobs { houses: 100, days: 7.0, activity: 0.1 },

            services: 3_000,
            shared_services: 120,

            p_house_forwarder_only: 0.16,
            p_house_opendns: 0.33,
            p_house_cloudflare: 0.045,

            p_nxdomain: 0.0,
        }
    }
}

impl WorkloadConfig {
    /// Validate internal consistency (volume and universe positive,
    /// probabilities in range).
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.scale.houses == 0 {
            return Err("houses must be positive".into());
        }
        if self.scale.days <= 0.0 || self.scale.activity <= 0.0 {
            return Err("days and activity must be positive".into());
        }
        if self.services == 0 || self.shared_services == 0 {
            return Err("name universe must be non-empty".into());
        }
        for p in [
            self.p_house_forwarder_only,
            self.p_house_opendns,
            self.p_house_cloudflare,
            self.p_nxdomain,
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("probability {p} out of [0,1]"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        WorkloadConfig::default().validate().unwrap();
    }

    #[test]
    fn validation_catches_errors() {
        let mut c = WorkloadConfig::default();
        c.scale.houses = 0;
        assert!(c.validate().is_err());

        let mut c = WorkloadConfig::default();
        c.p_nxdomain = 1.5;
        assert!(c.validate().is_err());

        let mut c = WorkloadConfig::default();
        c.p_house_opendns = -0.1;
        assert!(c.validate().is_err());

        let mut c = WorkloadConfig::default();
        c.shared_services = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn duration() {
        let s = ScaleKnobs { houses: 1, days: 2.0, activity: 1.0 };
        assert_eq!(s.duration_secs(), 172_800.0);
    }

    #[test]
    fn platform_indices_match_table() {
        assert_eq!(PLATFORMS[platform::LOCAL].name, "Local");
        assert_eq!(PLATFORMS[platform::GOOGLE].name, "Google");
        assert_eq!(PLATFORMS[platform::OPENDNS].name, "OpenDNS");
        assert_eq!(PLATFORMS[platform::CLOUDFLARE].name, "Cloudflare");
    }

    /// Positive TTL classes, probabilities in [0, 1], and platforms with
    /// an address and a backend (their order is
    /// `platform_indices_match_table`'s).
    #[test]
    fn calibration_constants_are_well_formed() {
        assert!(TTL_CLASSES.iter().all(|&(ttl, weight)| ttl > 0 && weight > 0.0));
        for p in [
            COHOST_FRACTION,
            CNAME_FRACTION,
            P_HOUSE_P2P,
            P_HOUSE_TPLINK_NTP,
            P_HOUSE_OOMA,
            P_HOUSE_ALARMNET,
            P_STALE_REUSE,
            P_STUB_BYPASS,
            P_PREFETCH_CLICK,
            P_SECOND_CONN,
        ] {
            assert!((0.0..=1.0).contains(&p), "probability {p} out of [0,1]");
        }
        for p in &PLATFORMS {
            assert!(!p.addrs.is_empty() && p.backends > 0, "platform {} malformed", p.name);
        }
    }
}
