//! The multi-tenant streaming daemon behind `repro serve`.
//!
//! Each tenant is one capture stream — a simulated ISP/CCZ vantage
//! point — owning a `pcapio::RecordSource` and a `StreamEngine` run to
//! completion with bounded state (epoch windowing + watermark
//! eviction). Tenants are sharded across a long-lived [`xkit::par::Pool`];
//! their engines publish prefix-valid snapshots into per-tenant
//! [`ObsHub`]s collected in an [`xkit::obs::HubRegistry`], which the
//! extended `xkit::obs::http` server routes live (`/tenants`,
//! `/tenants/<id>/snapshot`, `/tenants/<id>/metrics`) and folds — in
//! tenant-id order — into the global `/snapshot` + `/metrics` views.
//!
//! Determinism contract (DESIGN.md §15): every tenant's settled
//! snapshot is a pure function of its [`TenantSpec`] (engines run
//! single-threaded; parallelism lives *across* tenants), and the
//! aggregate is an id-ordered fold of settled snapshots — so the
//! post-drain aggregate is byte-identical for any worker count, and
//! byte-identical to running the tenants sequentially.
//!
//! Shutdown ordering: [`Daemon::shutdown`] drains the pool first (every
//! engine's `finish()` has published its settled snapshot), publishes
//! the final aggregate into the root hub, and only then stops the HTTP
//! accept thread — a scrape that raced shutdown saw either a live
//! prefix or the settled aggregate, never a torn state.

use crate::pipeline::{self, RunSpec, Source};
use dnsctx::ccz_sim::ScaleKnobs;
use xkit::obs::http::{self, ObsServer};
use xkit::obs::{HubRegistry, Metrics, ObsHub, TenantState};
use xkit::par::Pool;

/// One tenant stream: a stable id plus the run description its engine
/// executes. The settled snapshot is a pure function of this struct —
/// the root of the daemon's determinism argument.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    pub id: String,
    pub run: RunSpec,
}

impl TenantSpec {
    /// A simulation-fed ring tenant at the given scale, on 60 s epochs.
    /// One thread per tenant: parallelism lives across tenants, so the
    /// settled snapshot cannot depend on the pool width.
    pub fn sim(id: &str, houses: usize, days: f64, activity: f64, seed: u64) -> TenantSpec {
        let source = Source::SimRing { scale: ScaleKnobs { houses, days, activity }, seed };
        TenantSpec { id: id.to_string(), run: RunSpec { source, window_secs: 60.0, threads: 1 } }
    }
}

/// Prometheus metric-name prefix of every daemon's `/metrics` view.
const NAMESPACE: &str = "dnsctx";

/// Daemon construction knobs.
#[derive(Debug, Clone, Default)]
pub struct DaemonConfig {
    /// Pool width (0 = one worker per core). Tenant *engines* are
    /// always single-threaded; this is cross-tenant parallelism only.
    pub threads: usize,
    /// `Some(addr)` serves the tenant-routed observability plane
    /// (`127.0.0.1:0` binds an ephemeral port).
    pub serve: Option<String>,
}

/// The long-running serve daemon: a tenant registry, a worker pool, and
/// (optionally) the HTTP plane. See the module docs for the
/// determinism and shutdown-ordering contracts.
pub struct Daemon {
    registry: HubRegistry,
    root: ObsHub,
    pool: Pool,
    server: Option<ObsServer>,
}

impl Daemon {
    pub fn new(cfg: DaemonConfig) -> std::io::Result<Daemon> {
        let registry = HubRegistry::new();
        let root = ObsHub::default();
        let server = match &cfg.serve {
            Some(addr) => {
                Some(http::serve_tenants(addr, NAMESPACE, root.clone(), registry.clone())?)
            }
            None => None,
        };
        Ok(Daemon { registry, root, pool: Pool::new(cfg.threads), server })
    }

    /// The bound HTTP address, when serving.
    pub fn addr(&self) -> Option<std::net::SocketAddr> {
        self.server.as_ref().map(|s| s.addr())
    }

    /// The registry the HTTP plane routes (shared, live).
    pub fn registry(&self) -> &HubRegistry {
        &self.registry
    }

    /// The root hub (`/spans`, `/events`): daemon lifecycle events land
    /// in its flight recorder.
    pub fn root(&self) -> &ObsHub {
        &self.root
    }

    /// Register a tenant and enqueue its stream on the pool. Errors on
    /// duplicate or malformed ids; the tenant starts in state `queued`,
    /// moves to `running` when a worker picks it up, and settles as
    /// `drained` (or `failed` if its job panicked).
    pub fn add_tenant(&self, spec: TenantSpec) -> Result<(), String> {
        let hub = ObsHub::default();
        self.registry.add(&spec.id, hub.clone())?;
        self.root.flight().record("tenant.add", &spec.id, self.registry.len() as f64);
        let registry = self.registry.clone();
        let root = self.root.clone();
        self.pool.submit(move || {
            let id = spec.id.clone();
            registry.set_state(&id, TenantState::Running);
            // Contained by the pool's panic fence: a tenant whose run
            // panics is marked failed and the daemon keeps serving.
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_tenant(&spec, Some(&hub))
            }));
            match outcome {
                Ok(_) => {
                    registry.set_state(&id, TenantState::Drained);
                    root.flight().record("tenant.drain", &id, 0.0);
                }
                Err(payload) => {
                    registry.set_state(&id, TenantState::Failed);
                    root.flight().record("tenant.fail", &id, 0.0);
                    std::panic::resume_unwind(payload);
                }
            }
        });
        Ok(())
    }

    /// Drain barrier: block until every queued/running tenant settles.
    pub fn drain(&self) {
        self.pool.wait_idle();
    }

    /// Remove a tenant and free its state (hub, snapshots, peak
    /// gauges). Waits for the pool to go idle first when the tenant has
    /// not settled yet — removal never races a running engine.
    // lint: allow(unused-pub): serve_daemon.rs pins removal, and the scrapes after it, through it
    pub fn remove_tenant(&self, id: &str) -> bool {
        match self.registry.state(id) {
            None => return false,
            Some(state) if !state.settled() => self.drain(),
            Some(_) => {}
        }
        let removed = self.registry.remove(id);
        if removed {
            self.root.flight().record("tenant.remove", id, self.registry.len() as f64);
        }
        removed
    }

    /// `(id, state)` pairs in tenant-id order.
    pub fn tenants(&self) -> Vec<(String, TenantState)> {
        self.registry.tenants()
    }

    /// The id-ordered aggregate fold of every registered tenant's
    /// current snapshot (settled after [`drain`](Daemon::drain)).
    pub fn aggregate(&self) -> Metrics {
        self.registry.aggregate()
    }

    /// Jobs that panicked (tenants in state `failed`).
    pub fn panicked(&self) -> u64 {
        self.pool.panicked()
    }

    /// Graceful shutdown: drain every engine through `finish()`,
    /// publish the settled aggregate into the root hub, and only then
    /// stop the accept thread. Returns the settled aggregate.
    pub fn shutdown(mut self) -> Metrics {
        self.drain();
        let settled = self.aggregate();
        self.root.publish_metrics(settled.clone());
        if let Some(server) = &mut self.server {
            server.shutdown();
        }
        self.pool.shutdown();
        settled
    }
}

/// Run one tenant's stream to completion through [`pipeline::run`]:
/// prefix-valid snapshots into `hub` along the way, then — returned and
/// published as the tenant's settled snapshot — the same document a
/// standalone `repro ingest` of that description prints.
pub fn run_tenant(spec: &TenantSpec, hub: Option<&ObsHub>) -> Metrics {
    pipeline::run(&spec.run, hub)
}

/// The sequential reference fold: run every spec in id order on this
/// thread and merge the settled snapshots. The daemon's post-drain
/// [`Daemon::aggregate`] must be byte-identical to this for any pool
/// width — the lifecycle tests pin it.
pub fn sequential_aggregate(specs: &[TenantSpec]) -> Metrics {
    let mut sorted: Vec<&TenantSpec> = specs.iter().collect();
    sorted.sort_by(|a, b| a.id.cmp(&b.id));
    let mut folded = Metrics::new();
    for spec in sorted {
        folded.merge(&run_tenant(spec, None));
    }
    folded
}
