//! What a scrape of the serve daemon costs, counted with the allocation
//! counter rather than timed. Metric names are borrowed literals, so
//! folding four settled tenant hubs into the aggregate allocates map
//! nodes, histogram storage and the few names built at run time, not one
//! string per key; the Prometheus exposition formats every line into its
//! one output string; and cloning a snapshot whose names are all
//! literals allocates its tree nodes and each histogram's counts only.
//! One test in this binary, so nothing else allocates while it measures.

use bench::serve::{run_tenant, TenantSpec};
use xkit::bench::alloc::{self, CountingAlloc};
use xkit::obs::{HubRegistry, Metric, Metrics, ObsHub};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// A snapshot of `m`'s shape whose every name is a `&'static str`: the
/// names are leaked once, here, so the clone below copies none of them.
fn all_literal(m: &Metrics) -> Metrics {
    let mut lit = Metrics::new();
    for (name, metric) in m.iter() {
        let name: &'static str = Box::leak(name.to_owned().into_boxed_str());
        match metric {
            Metric::Counter(c) => lit.add(name, *c),
            Metric::Gauge(g) => lit.set_gauge(name, *g),
            Metric::Hist(_) => lit.observe(name, 1.0),
        }
    }
    lit
}

#[test]
fn a_scrape_allocates_per_metric_storage_not_per_name() {
    let registry = HubRegistry::new();
    for k in 0..4u64 {
        let spec = TenantSpec::sim(&format!("t{k}"), 4, 0.05, 0.1, 42_000 + k);
        let hub = ObsHub::default();
        run_tenant(&spec, Some(&hub));
        registry.add(&spec.id, hub).expect("distinct tenant ids");
    }

    // A string per key costs about 430 events here, a temporary per
    // exported line about 840, a copied name per key in the clone 70.
    let (agg, folded) = alloc::measure(|| registry.aggregate());
    assert!(
        agg.len() > 40,
        "a settled tenant exports its books: {} keys",
        agg.len()
    );
    assert!(
        folded.allocs <= 48,
        "aggregate of 4 hubs, {} keys: {folded:?}",
        agg.len()
    );

    let (text, rendered) = alloc::measure(|| agg.to_prometheus("dnsctx"));
    assert!(text.len() > 4_096, "{} bytes", text.len());
    assert!(
        rendered.allocs <= 24,
        "to_prometheus, {} bytes: {rendered:?}",
        text.len()
    );

    let lit = all_literal(&agg);
    let hists = lit
        .iter()
        .filter(|(_, m)| matches!(m, Metric::Hist(_)))
        .count() as u64;
    let (copy, cloned) = alloc::measure(|| lit.clone());
    assert_eq!(copy, lit);
    let bound = lit.len() as u64 / 4 + 2 * hists;
    assert!(
        cloned.allocs < bound,
        "clone of {} literal keys, {hists} histograms: {cloned:?} (bound {bound})",
        lit.len()
    );

    // One histogram under a literal name: its map node and its counts,
    // nothing else (the bucket edges are shared by every histogram).
    let mut one = Metrics::new();
    one.observe("zeek.dns_rtt_ms", 4.0);
    let (copy, cloned) = alloc::measure(|| one.clone());
    assert_eq!(copy, one);
    assert_eq!(cloned.allocs, 2, "clone of one literal-named histogram: {cloned:?}");
}
