//! Simulation configuration.
//!
//! Defaults are calibrated (at seed 42) so the analysis pipeline measures
//! values near the paper's headline numbers; EXPERIMENTS.md records the
//! fidelity actually achieved. Every mechanism the paper observes has an
//! explicit knob here, so the benches can also ablate them.

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
    pub fn duration_secs(&self) -> f64 {
        self.days * 86_400.0
    }
}

/// Per-resolver-platform model parameters.
#[derive(Debug, Clone)]
pub struct PlatformConfig {
    /// Human name ("Local", "Google", ...).
    pub name: &'static str,
    /// Anycast/service addresses of the platform.
    pub addrs: Vec<[u8; 4]>,
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

/// The full workload model.
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
    /// Zipf exponent of service popularity.
    pub zipf_exponent: f64,
    /// TTL mixture: (seconds, weight).
    pub ttl_classes: Vec<(u32, f64)>,
    /// Fraction of services hosted on shared CDN addresses (several names
    /// resolving to one IP — the pairing-ambiguity mechanism).
    pub cohost_fraction: f64,
    /// Fraction of lookups answered with a CNAME chain ahead of the A records.
    pub cname_fraction: f64,

    // ---- house / device composition ----
    /// Probability a house routes every device through the ISP resolvers
    /// (the paper's hypothesised DNS-forwarder houses, ~16%).
    pub p_house_forwarder_only: f64,
    /// Probability a (non-forwarder) house has devices using OpenDNS.
    pub p_house_opendns: f64,
    /// Probability a (non-forwarder) house has devices using Cloudflare.
    pub p_house_cloudflare: f64,
    /// Probability a house runs a peer-to-peer client.
    pub p_house_p2p: f64,
    /// Probability a house contains a TP-Link-style device with a
    /// hard-coded (and retired) NTP server address.
    pub p_house_tplink_ntp: f64,
    /// Probability a house has an Ooma VoIP box (hard-coded NTP servers).
    pub p_house_ooma: f64,
    /// Probability a house has an AlarmNet-style security panel
    /// (hard-coded HTTPS endpoints).
    pub p_house_alarmnet: f64,

    // ---- stub-cache / TTL-violation model ----
    /// Probability a device reuses an expired cache entry instead of
    /// re-resolving (drives the paper's §5.2 violation rates).
    pub p_stale_reuse: f64,
    /// Maximum staleness a violating device tolerates, seconds.
    pub max_stale_secs: f64,
    /// Probability a page view also fires a lookup for a non-existent
    /// name (typos, dead links, software probing retired hostnames).
    /// NXDOMAIN responses carry no addresses, so these lookups never pair
    /// with a connection. Default 0 (the paper does not separate them).
    pub p_nxdomain: f64,
    /// Probability a name use bypasses the device's stub cache entirely
    /// (a different process/browser with its own empty cache): the same
    /// house then re-queries a record within its TTL — exactly the
    /// duplication the paper's whole-house cache (§8) absorbs.
    pub p_stub_bypass: f64,

    // ---- browsing model ----
    /// Mean think time between browsing sessions per device, seconds
    /// (before diurnal modulation and the activity knob).
    pub session_gap_secs: f64,
    /// Mean pages per browsing session (geometric).
    pub pages_per_session: f64,
    /// Page dwell time: median seconds (log-normal).
    pub dwell_median_secs: f64,
    /// Embedded third-party/site object names per page (uniform range).
    pub embedded_names_per_page: (usize, usize),
    /// Links speculatively resolved per page (uniform range).
    pub prefetch_links_per_page: (usize, usize),
    /// Probability a prefetched link is clicked (paper: ~22 % of
    /// speculative lookups end up used).
    pub p_prefetch_click: f64,
    /// Probability an embedded name-use opens a second parallel connection.
    pub p_second_conn: f64,

    // ---- other apps ----
    /// Mean gap between background app polls per device, seconds.
    pub poll_gap_secs: f64,
    /// Mean gap between streaming sessions per streaming device, seconds.
    pub stream_gap_secs: f64,
    /// Mean streaming session length, seconds.
    pub stream_len_secs: f64,
    /// Gap between video segment fetches, seconds.
    pub stream_segment_gap_secs: f64,
    /// Mean gap between Android connectivity checks, seconds.
    pub connectivity_check_gap_secs: f64,
    /// Mean gap between P2P bursts (per P2P house), seconds.
    pub p2p_burst_gap_secs: f64,
    /// Connections per P2P burst (uniform range).
    pub p2p_burst_conns: (usize, usize),

    // ---- timing detail ----
    /// Application processing delay between a DNS answer arriving and the
    /// SYN leaving, milliseconds (log-normal median; keeps most blocked
    /// connections inside the paper's 20 ms knee).
    pub app_start_delay_ms: f64,
    /// Shape of the app start delay (its tail creates the 20–100 ms
    /// stragglers the paper's conservative threshold absorbs).
    pub app_start_sigma: f64,

    /// Resolver platform table: index 0 = Local ISP, 1 = Google,
    /// 2 = OpenDNS, 3 = Cloudflare (Table 1's rows).
    pub platforms: Vec<PlatformConfig>,
}

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

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            scale: ScaleKnobs { houses: 100, days: 7.0, activity: 0.1 },

            services: 3_000,
            shared_services: 120,
            zipf_exponent: 0.95,
            // Weighted toward the short TTLs CDNs use; drives both cache
            // efficacy and the TTL-violation delay distribution.
            ttl_classes: vec![
                (30, 0.06),
                (60, 0.14),
                (300, 0.35),
                (3_600, 0.32),
                (86_400, 0.13),
            ],
            cohost_fraction: 0.35,
            cname_fraction: 0.30,

            p_house_forwarder_only: 0.16,
            p_house_opendns: 0.33,
            p_house_cloudflare: 0.045,
            p_house_p2p: 0.20,
            p_house_tplink_ntp: 0.25,
            p_house_ooma: 0.04,
            p_house_alarmnet: 0.10,

            p_stale_reuse: 0.70,
            max_stale_secs: 26_000.0,
            p_nxdomain: 0.0,
            p_stub_bypass: 0.05,

            session_gap_secs: 2_400.0,
            pages_per_session: 8.0,
            dwell_median_secs: 240.0,
            embedded_names_per_page: (4, 9),
            prefetch_links_per_page: (2, 4),
            p_prefetch_click: 0.62,
            p_second_conn: 0.25,

            poll_gap_secs: 1_200.0,
            stream_gap_secs: 8_400.0,
            stream_len_secs: 2_400.0,
            stream_segment_gap_secs: 35.0,
            connectivity_check_gap_secs: 1_500.0,
            p2p_burst_gap_secs: 1_700.0,
            p2p_burst_conns: (12, 55),

            app_start_delay_ms: 1.5,
            app_start_sigma: 1.0,

            platforms: vec![
                PlatformConfig {
                    name: "Local",
                    addrs: vec![[198, 51, 100, 53], [198, 51, 100, 54]],
                    rtt_ms: 2.0,
                    rtt_sigma: 0.08,
                    backends: 2,
                    // The two ISP resolvers also serve the rest of the
                    // ISP's customers; warmth beyond intra-CCZ sharing
                    // models that base (scale-independent calibration).
                    external_warmth: 3.6,
                    auth_delay_ms: 22.0,
                    auth_sigma: 0.7,
                    auth_cap_ms: 4_000.0,
                },
                PlatformConfig {
                    name: "Google",
                    addrs: vec![[8, 8, 8, 8], [8, 8, 4, 4]],
                    rtt_ms: 20.0,
                    rtt_sigma: 0.08,
                    // Heavy frontend fan-out: queries rarely land on a
                    // backend the name is warm in (paper: 23 % hit rate).
                    backends: 1_024,
                    external_warmth: 0.008,
                    auth_delay_ms: 55.0,
                    auth_sigma: 0.5,
                    // Serve-stale-style short tail (paper: Google's R
                    // distribution crosses below the others at p75).
                    auth_cap_ms: 350.0,
                    },
                PlatformConfig {
                    name: "OpenDNS",
                    addrs: vec![[208, 67, 222, 222], [208, 67, 220, 220]],
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
                    addrs: vec![[1, 1, 1, 1], [1, 0, 0, 1]],
                    rtt_ms: 9.0,
                    rtt_sigma: 0.08,
                    backends: 2,
                    external_warmth: 60.0,
                    auth_delay_ms: 36.0,
                    auth_sigma: 0.7,
                    auth_cap_ms: 4_000.0,
                },
            ],
        }
    }
}

impl WorkloadConfig {
    /// Validate internal consistency (weights positive, probabilities in
    /// range, platform table shaped as the `platform` module expects).
    pub fn validate(&self) -> Result<(), String> {
        if self.scale.houses == 0 {
            return Err("houses must be positive".into());
        }
        if self.scale.days <= 0.0 || self.scale.activity <= 0.0 {
            return Err("days and activity must be positive".into());
        }
        if self.services == 0 || self.shared_services == 0 {
            return Err("name universe must be non-empty".into());
        }
        if self.ttl_classes.is_empty() || self.ttl_classes.iter().any(|(t, w)| *t == 0 || *w <= 0.0) {
            return Err("ttl_classes must be non-empty with positive entries".into());
        }
        for p in [
            self.cohost_fraction,
            self.cname_fraction,
            self.p_house_forwarder_only,
            self.p_house_opendns,
            self.p_house_cloudflare,
            self.p_house_p2p,
            self.p_stale_reuse,
            self.p_prefetch_click,
            self.p_second_conn,
            self.p_nxdomain,
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("probability {p} out of [0,1]"));
            }
        }
        if self.platforms.len() != 4 {
            return Err("platform table must have the 4 canonical entries".into());
        }
        for p in &self.platforms {
            if p.addrs.is_empty() || p.backends == 0 {
                return Err(format!("platform {} malformed", p.name));
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
        c.p_prefetch_click = 1.5;
        assert!(c.validate().is_err());

        let mut c = WorkloadConfig::default();
        c.platforms.pop();
        assert!(c.validate().is_err());

        let mut c = WorkloadConfig::default();
        c.ttl_classes.clear();
        assert!(c.validate().is_err());
    }

    #[test]
    fn duration() {
        let s = ScaleKnobs { houses: 1, days: 2.0, activity: 1.0 };
        assert_eq!(s.duration_secs(), 172_800.0);
    }

    #[test]
    fn platform_indices_match_table() {
        let c = WorkloadConfig::default();
        assert_eq!(c.platforms[platform::LOCAL].name, "Local");
        assert_eq!(c.platforms[platform::GOOGLE].name, "Google");
        assert_eq!(c.platforms[platform::OPENDNS].name, "OpenDNS");
        assert_eq!(c.platforms[platform::CLOUDFLARE].name, "Cloudflare");
    }
}
