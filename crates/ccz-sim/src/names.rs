//! The simulated name universe: services, hostnames, TTLs, hosting.

use crate::config::{WorkloadConfig, CNAME_FRACTION, COHOST_FRACTION, TTL_CLASSES, ZIPF_EXPONENT};
use crate::dists::{weighted_index, Zipf};
use std::net::Ipv4Addr;
use xkit::rng::StdRng;

/// Index of a hostname in the universe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NameId(pub u32);

/// Index of a service (a site: one primary hostname plus extras).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ServiceId(pub u32);

/// Everything known about one hostname, borrowed from the universe.
#[derive(Debug, Clone, Copy)]
pub struct NameInfo<'a> {
    /// Fully-qualified name in presentation form.
    pub fqdn: &'a str,
    /// Authoritative TTL, seconds.
    pub ttl: u32,
    /// Addresses returned for the name (stable across the run; CDN
    /// rotation is modelled by answer-order rotation, not set changes).
    pub addrs: &'a [Ipv4Addr],
    /// Optional CNAME the answer chain goes through.
    pub cname: Option<&'a str>,
    /// Whether the name is served from shared CDN infrastructure (several
    /// names on one address; resolver choice affects edge quality).
    pub cdn_hosted: bool,
}

/// A name never resolves to more addresses than this.
const MAX_ADDRS: usize = 3;

/// How many distinct `edge-N.cdnint.net` CNAME targets there are.
const CNAME_TARGETS: u32 = 500;

/// A string in the universe's text arena.
type Span = std::ops::Range<u32>;

/// One hostname as the universe stores it: plain data, its strings in
/// the shared text arena.
struct NameEntry {
    fqdn: Span,
    ttl: u32,
    addrs: [Ipv4Addr; MAX_ADDRS],
    n_addrs: u8,
    /// Index into the CNAME targets.
    cname: Option<u16>,
    cdn_hosted: bool,
}

/// One service: a site with a primary hostname and auxiliary hostnames.
#[derive(Debug, Clone)]
pub struct ServiceInfo {
    /// Primary hostname (what a user "visits").
    pub primary: NameId,
    /// How many auxiliary hostnames (api., img., ...) embedded objects
    /// use; their ids follow the primary's.
    pub n_extras: u32,
}

impl ServiceInfo {
    /// The auxiliary hostnames.
    fn extras(&self) -> impl Iterator<Item = NameId> + '_ {
        (1..=self.n_extras).map(move |k| NameId(self.primary.0 + k))
    }
}

/// The generated universe.
pub struct NameUniverse {
    /// Every hostname and CNAME target, end to end.
    text: String,
    /// The CNAME targets, built once; names refer to them by index.
    cname_targets: Vec<Span>,
    names: Vec<NameEntry>,
    services: Vec<ServiceInfo>,
    /// Shared third-party hostnames (ads, analytics, CDN libraries).
    shared: Vec<NameId>,
    /// Per-name popularity weight, indexed by `NameId` (O(1) lookup; the
    /// resolver warmth model consults this on every query).
    pop: Vec<f64>,
    service_pop: Zipf,
    shared_pop: Zipf,
    connectivity_check: NameId,
}

const TLDS: [&str; 5] = ["com", "net", "org", "io", "tv"];

impl NameUniverse {
    /// Generate a universe per the config. Deterministic given the RNG.
    pub(crate) fn generate(cfg: &WorkloadConfig, rng: &mut StdRng) -> NameUniverse {
        use std::fmt::Write;
        let ttl_weights = TTL_CLASSES.map(|(_, w)| w);
        let mut names: Vec<NameEntry> = Vec::new();
        let mut text = String::new();
        // Append one string to the arena; formatting into a `String` cannot fail.
        let mut intern = |args: std::fmt::Arguments<'_>| -> Span {
            let start = text.len() as u32;
            let _ = text.write_fmt(args);
            start..text.len() as u32
        };
        let cname_targets: Vec<Span> =
            (0..CNAME_TARGETS).map(|n| intern(format_args!("edge-{n}.cdnint.net"))).collect();
        // Shared CDN edge pool: many names resolve into these addresses.
        let edge = |i: u32| Ipv4Addr::from(u32::from(Ipv4Addr::new(104, 16, 0, 0)) + i);
        const EDGE_POOL: usize = 900;
        let mut dedicated_counter: u32 = 0;
        let mut alloc_dedicated = || {
            dedicated_counter += 1;
            // 185.0.0.0/8 style dedicated hosting, skipping .0/.255 octets.
            Ipv4Addr::from(u32::from(Ipv4Addr::new(185, 0, 0, 0)) + dedicated_counter * 7 % 0x00FF_FFFF)
        };
        // The order and number of RNG draws here is what every seeded
        // output in the tree starts from.
        let mut make_name = |fqdn: Span, cdn: bool, rng: &mut StdRng, names: &mut Vec<NameEntry>| -> NameId {
            let ttl = TTL_CLASSES[weighted_index(rng, &ttl_weights)].0;
            let n_addrs = 1 + rng.random_range(0..3usize).min(1 + rng.random_range(0..2));
            let mut addrs = [Ipv4Addr::UNSPECIFIED; MAX_ADDRS];
            for a in &mut addrs[..n_addrs] {
                *a = if cdn { edge(rng.random_range(0..EDGE_POOL) as u32) } else { alloc_dedicated() };
            }
            let cname = rng
                .random_bool(CNAME_FRACTION)
                .then(|| rng.random_range(0..CNAME_TARGETS) as u16);
            let id = NameId(names.len() as u32);
            names.push(NameEntry { fqdn, ttl, addrs, n_addrs: n_addrs as u8, cname, cdn_hosted: cdn });
            id
        };

        let mut services = Vec::with_capacity(cfg.services);
        for i in 0..cfg.services {
            let tld = TLDS[i % TLDS.len()];
            let cdn = rng.random_bool(COHOST_FRACTION);
            let primary = make_name(intern(format_args!("www.s{i:04}.{tld}")), cdn, rng, &mut names);
            let n_extras = rng.random_range(0..3usize);
            for sub in &["api", "img", "static"][..n_extras] {
                make_name(intern(format_args!("{sub}.s{i:04}.{tld}")), cdn, rng, &mut names);
            }
            services.push(ServiceInfo { primary, n_extras: n_extras as u32 });
        }

        // Big third-party infrastructure publishes longer TTLs than
        // per-site CDN entries; this locality is what makes cross-page
        // cache reuse (the paper's dominant LC source) survive page dwell
        // times.
        let shared_ttls = [(300u32, 0.30), (3_600, 0.50), (86_400, 0.20)];
        let shared_weights = shared_ttls.map(|(_, w)| w);
        let shared: Vec<NameId> = (0..cfg.shared_services)
            .map(|j| {
                let kind = ["ads", "metrics", "cdn", "fonts", "social"][j % 5];
                let fqdn = intern(format_args!("{kind}{j:03}.thirdparty.net"));
                let id = make_name(fqdn, true, rng, &mut names);
                names[id.0 as usize].ttl = shared_ttls[weighted_index(rng, &shared_weights)].0;
                id
            })
            .collect();

        // connectivitycheck.gstatic.com: Google-hosted, modest TTL, tiny
        // responses; Android devices hit it incessantly (paper §7).
        let cc_id = NameId(names.len() as u32);
        let mut cc_addrs = [Ipv4Addr::UNSPECIFIED; MAX_ADDRS];
        cc_addrs[0] = Ipv4Addr::new(142, 250, 65, 99);
        names.push(NameEntry {
            fqdn: intern(format_args!("connectivitycheck.gstatic.com")),
            ttl: 300,
            addrs: cc_addrs,
            n_addrs: 1,
            cname: None,
            cdn_hosted: false,
        });

        // Precompute popularity weights: service hostnames inherit their
        // service's Zipf rank, shared third parties are globally hot, the
        // connectivity check hottest of all.
        let mut pop = vec![1e-6f64; names.len()];
        for (rank, s) in services.iter().enumerate() {
            let w = 0.01 / (1.0 + rank as f64).powf(ZIPF_EXPONENT);
            pop[s.primary.0 as usize] = w;
            for e in s.extras() {
                pop[e.0 as usize] = w * 0.6;
            }
        }
        for (rank, n) in shared.iter().enumerate() {
            pop[n.0 as usize] = 0.02 / (1.0 + rank as f64).powf(0.9);
        }
        pop[cc_id.0 as usize] = 2.0;

        NameUniverse {
            text,
            cname_targets,
            names,
            services,
            shared,
            pop,
            service_pop: Zipf::new(cfg.services, ZIPF_EXPONENT),
            shared_pop: Zipf::new(cfg.shared_services, 1.35),
            connectivity_check: cc_id,
        }
    }

    /// Look up a name's details.
    pub(crate) fn info(&self, id: NameId) -> NameInfo<'_> {
        let e = &self.names[id.0 as usize];
        let text = |span: &Span| &self.text[span.start as usize..span.end as usize];
        NameInfo {
            fqdn: text(&e.fqdn),
            ttl: e.ttl,
            addrs: &e.addrs[..e.n_addrs as usize],
            cname: e.cname.map(|t| text(&self.cname_targets[t as usize])),
            cdn_hosted: e.cdn_hosted,
        }
    }

    /// Draw a service by popularity.
    pub(crate) fn pick_service(&self, rng: &mut StdRng) -> ServiceId {
        ServiceId(self.service_pop.sample(rng) as u32)
    }

    /// A service's primary hostname.
    pub(crate) fn primary(&self, svc: ServiceId) -> NameId {
        self.services[svc.0 as usize].primary
    }

    /// Names fetched by a page of the given service: a mix of the
    /// service's own auxiliary hostnames and popular shared third
    /// parties. Fills `out` (cleared first).
    pub(crate) fn embedded_for_page_into(
        &self,
        svc: ServiceId,
        count: usize,
        rng: &mut StdRng,
        out: &mut Vec<NameId>,
    ) {
        let s = &self.services[svc.0 as usize];
        out.clear();
        out.extend((0..count).map(|_| {
            if s.n_extras > 0 && rng.random_bool(0.55) {
                NameId(s.primary.0 + 1 + rng.random_range(0..s.n_extras as usize) as u32)
            } else {
                self.shared[self.shared_pop.sample(rng)]
            }
        }));
    }

    /// The normalised popularity weight of a name (used by the resolver
    /// cache warmth model): approximately the Zipf mass of its service.
    pub(crate) fn popularity(&self, id: NameId) -> f64 {
        self.pop[id.0 as usize]
    }

    /// Draw a target for a speculative link (any service's primary).
    pub(crate) fn pick_link_target(&self, rng: &mut StdRng) -> NameId {
        self.primary(self.pick_service(rng))
    }

    /// Map a primary hostname back to its service (links point at
    /// primaries; a clicked link needs the service to render its page).
    pub(crate) fn service_of_primary(&self, id: NameId) -> Option<ServiceId> {
        // Primaries are allocated in service order with gaps for extras; a
        // binary search over primaries (which are ascending) finds it.
        let idx = self
            .services
            .binary_search_by(|s| s.primary.cmp(&id))
            .ok()?;
        Some(ServiceId(idx as u32))
    }

    /// The Android connectivity-check hostname.
    pub(crate) fn connectivity_check(&self) -> NameId {
        self.connectivity_check
    }

    /// Answer-set for one response: the addresses in rotated order
    /// (round-robin CDNs) land in `out` (cleared first), the CNAME if the
    /// name has one is borrowed from the universe. Allocation-free once
    /// `out` has grown.
    pub(crate) fn answers_into<'a>(
        &'a self,
        id: NameId,
        rng: &mut StdRng,
        out: &mut Vec<Ipv4Addr>,
    ) -> (Option<&'a str>, u32) {
        let info = self.info(id);
        out.clear();
        out.extend_from_slice(info.addrs);
        if out.len() > 1 {
            let rot = rng.random_range(0..out.len());
            out.rotate_left(rot);
        }
        (info.cname, info.ttl)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn universe() -> NameUniverse {
        let cfg = WorkloadConfig::default();
        let mut rng = StdRng::seed_from_u64(7);
        NameUniverse::generate(&cfg, &mut rng)
    }

    #[test]
    fn generation_is_deterministic() {
        let a = universe();
        let b = universe();
        assert_eq!(a.names.len(), b.names.len());
        for i in 0..a.names.len() {
            let (x, y) = (a.info(NameId(i as u32)), b.info(NameId(i as u32)));
            assert_eq!(x.fqdn, y.fqdn);
            assert_eq!(x.addrs, y.addrs);
            assert_eq!(x.ttl, y.ttl);
        }
    }

    #[test]
    fn all_names_are_valid_hostnames() {
        let u = universe();
        for i in 0..u.names.len() {
            let info = u.info(NameId(i as u32));
            assert!(info.fqdn.parse::<dns_wire::NameBuf>().is_ok(), "{}", info.fqdn);
            assert!(info.cname.is_none_or(|c| c.parse::<dns_wire::NameBuf>().is_ok()));
            assert!(!info.addrs.is_empty());
            assert!(info.ttl > 0);
        }
    }

    #[test]
    fn ttls_follow_configured_classes() {
        let u = universe();
        let allowed = TTL_CLASSES.map(|(t, _)| t);
        for i in 0..u.names.len() {
            let ttl = u.info(NameId(i as u32)).ttl;
            assert!(allowed.contains(&ttl) || ttl == 300, "ttl {ttl}");
        }
    }

    #[test]
    fn cohosting_creates_address_sharing() {
        let u = universe();
        use std::collections::HashMap;
        let mut by_addr: HashMap<Ipv4Addr, usize> = HashMap::new();
        for i in 0..u.names.len() {
            for a in u.info(NameId(i as u32)).addrs {
                *by_addr.entry(*a).or_default() += 1;
            }
        }
        let shared_addrs = by_addr.values().filter(|c| **c > 1).count();
        assert!(shared_addrs > 50, "expected co-hosting, got {shared_addrs} shared addrs");
    }

    #[test]
    fn popular_services_picked_more() {
        let u = universe();
        let mut rng = StdRng::seed_from_u64(1);
        let mut head = 0;
        const DRAWS: usize = 20_000;
        for _ in 0..DRAWS {
            if u.pick_service(&mut rng).0 < 30 {
                head += 1;
            }
        }
        assert!(head > DRAWS / 10, "zipf head too light: {head}");
    }

    #[test]
    fn embedded_mix_includes_shared_and_own() {
        let u = universe();
        let mut rng = StdRng::seed_from_u64(2);
        // Find a service with extras.
        let svc = (0..u.services.len())
            .map(|i| ServiceId(i as u32))
            .find(|s| u.services[s.0 as usize].n_extras > 0)
            .unwrap();
        let mut own = 0;
        let mut shared = 0;
        let mut page = Vec::new();
        for _ in 0..200 {
            u.embedded_for_page_into(svc, 6, &mut rng, &mut page);
            for &id in &page {
                if u.services[svc.0 as usize].extras().any(|e| e == id) {
                    own += 1;
                } else {
                    shared += 1;
                }
            }
        }
        assert!(own > 0 && shared > 0);
    }

    #[test]
    fn answers_rotate_but_preserve_set() {
        let u = universe();
        let mut rng = StdRng::seed_from_u64(3);
        // Find a multi-address name.
        let id = (0..u.names.len())
            .map(|i| NameId(i as u32))
            .find(|n| u.info(*n).addrs.len() > 1)
            .unwrap();
        let reference: std::collections::BTreeSet<_> = u.info(id).addrs.iter().copied().collect();
        let mut addrs = Vec::new();
        for _ in 0..20 {
            let (_, ttl) = u.answers_into(id, &mut rng, &mut addrs);
            let set: std::collections::BTreeSet<_> = addrs.iter().copied().collect();
            assert_eq!(set, reference);
            assert_eq!(ttl, u.info(id).ttl);
        }
    }

    #[test]
    fn connectivity_check_is_special() {
        let u = universe();
        let cc = u.connectivity_check();
        assert_eq!(u.info(cc).fqdn, "connectivitycheck.gstatic.com");
        assert!(u.popularity(cc) > 0.01);
    }
}
