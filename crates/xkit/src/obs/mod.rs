//! Zero-dependency observability: metrics, spans, and the clock seam.
//!
//! The pipeline computes the paper's per-stage aggregates — pairing
//! coverage, class mix, blocking delay — and this module is how every
//! stage reports what it did. The pieces:
//!
//! * [`clock`] — the workspace's only monotonic-clock access point.
//!   `scripts/verify.sh` denies `Instant::now()` outside `xkit`, so all
//!   timing flows through here.
//! * [`Metrics`] — a name-ordered snapshot of counters, max-merged
//!   gauges, and log-scale [`Histogram`]s of milliseconds, all on one
//!   fixed set of buckets, whose merge is exact (`u64` arithmetic, no
//!   float sums). Per-shard snapshots folded
//!   in shard order are byte-identical for any `--threads N`, the same
//!   discipline the simulator uses for its logs.
//! * [`SpanLog`] — driver-side stage timers rendered as an indented tree
//!   or exported as Chrome trace-event JSON
//!   ([`SpanLog::to_chrome_trace`]). Span wall times are
//!   non-deterministic by nature and live next to — never inside — the
//!   byte-compared metrics section.
//! * [`FlightRecorder`] — a bounded drop-oldest ring of recent
//!   structured events (epoch releases, evictions, stalls, rejects)
//!   for live post-mortems.
//! * [`ObsHub`] + [`http`] — the live plane: the pipeline publishes
//!   snapshots into a shared hub, and a zero-dependency HTTP/1.1 server
//!   exposes `/metrics`, `/snapshot`, `/spans`, `/events`, `/healthz`
//!   (DESIGN.md §13).
//! * [`HubRegistry`] — the serve daemon's tenant plane: one hub per
//!   tenant stream, folded in tenant-id order into a deterministic
//!   aggregate, with per-tenant routing (`/tenants`,
//!   `/tenants/<id>/snapshot|metrics`) in [`http`] (DESIGN.md §15).
//!
//! Exporters: [`Metrics::render_table`] (human), [`Metrics::to_json`]
//! (canonical, re-parseable via [`json`]), and
//! [`Metrics::to_prometheus`] (text exposition format).
//!
//! Naming conventions (see DESIGN.md §9): `stage.*` spans, `capture.*`
//! pcap I/O, `zeek.*` monitor + degradation, `sim.*`/`resolver.*`
//! simulator, `pair.*`/`class.*`/`threshold.*`/`perf.*`/`cover.*`
//! analysis, `fault.*` injector damage.

pub mod clock;
mod flight;
mod hub;
pub mod http;
pub mod json;
mod metrics;
mod span;
mod tenants;

pub use flight::{FlightEvent, FlightRecorder};
pub use hub::ObsHub;
pub use metrics::{Histogram, Metric, Metrics};
pub use span::{SpanId, SpanLog, SpanRecord};
pub use tenants::{HubRegistry, TenantState};
