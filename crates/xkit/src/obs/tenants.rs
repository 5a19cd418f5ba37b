//! Multi-tenant hub registry for the serve daemon.
//!
//! Each tenant (one capture stream / vantage point) owns an [`ObsHub`]
//! that its engine publishes prefix-valid snapshots into. The registry
//! is the daemon's single source of truth for which tenants exist, what
//! lifecycle state they are in, and how their snapshots fold into the
//! global view:
//!
//! * **Deterministic aggregate.** [`HubRegistry::aggregate`] folds
//!   per-tenant snapshots in tenant-id order (the `BTreeMap` iteration
//!   order), so the global `/snapshot` and `/metrics` documents are
//!   byte-identical no matter how many workers raced the tenants to
//!   completion — the same shard-fold discipline the analysis pipeline
//!   uses for `--threads N` invariance (DESIGN.md §15).
//! * **Lifecycle as data.** A [`TenantState`] is set by the daemon;
//!   the registry only stores and reports it, it never schedules.
//! * **Removal frees state.** [`HubRegistry::remove`] drops the
//!   tenant's hub (and with it the last reference to its snapshots), so
//!   peak gauges from a removed tenant vanish from the aggregate.
//!
//! Tenant ids are fenced to `[A-Za-z0-9._-]` so they embed verbatim in
//! URL paths (`/tenants/<id>/snapshot`) and JSON without escaping.

use super::hub::ObsHub;
use super::metrics::Metrics;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// Where a tenant is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TenantState {
    /// Registered, waiting for a pool worker.
    Queued,
    /// A worker is running its engine.
    Running,
    /// The engine finished and published its settled snapshot.
    Drained,
    /// Its job panicked.
    Failed,
}

impl TenantState {
    /// The word `/tenants` and the `serve` roster render.
    pub fn as_str(self) -> &'static str {
        match self {
            TenantState::Queued => "queued",
            TenantState::Running => "running",
            TenantState::Drained => "drained",
            TenantState::Failed => "failed",
        }
    }

    /// `true` once the tenant's engine has stopped (drained or failed).
    pub fn settled(self) -> bool {
        matches!(self, TenantState::Drained | TenantState::Failed)
    }
}

#[derive(Debug)]
struct Tenant {
    hub: ObsHub,
    state: TenantState,
}

/// A shared, id-ordered map of tenant observability hubs. Cheap to
/// clone (`Arc` inside); every clone views the same registry.
#[derive(Debug, Clone, Default)]
pub struct HubRegistry {
    inner: Arc<Mutex<BTreeMap<String, Tenant>>>,
}

/// `true` when `id` is non-empty and uses only URL/JSON-safe bytes.
fn valid_tenant_id(id: &str) -> bool {
    !id.is_empty()
        && id.len() <= 128
        && id
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'.' || b == b'_' || b == b'-')
}

impl HubRegistry {
    /// An empty registry.
    pub fn new() -> HubRegistry {
        HubRegistry::default()
    }

    fn lock(&self) -> MutexGuard<'_, BTreeMap<String, Tenant>> {
        // Same poisoning stance as ObsHub: a panicking publisher must
        // not take the exporter down with it.
        self.inner
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Register `id` with its hub in state `queued`. Errors on a
    /// duplicate or malformed id.
    pub fn add(&self, id: &str, hub: ObsHub) -> Result<(), String> {
        if !valid_tenant_id(id) {
            return Err(format!(
                "invalid tenant id {id:?} (want [A-Za-z0-9._-]{{1,128}})"
            ));
        }
        let mut map = self.lock();
        if map.contains_key(id) {
            return Err(format!("duplicate tenant id {id:?}"));
        }
        let state = TenantState::Queued;
        map.insert(id.to_string(), Tenant { hub, state });
        Ok(())
    }

    /// Drop `id` and its hub entirely; `false` if it was never
    /// registered. After removal the tenant no longer contributes to
    /// [`aggregate`](HubRegistry::aggregate) — peak gauges it held
    /// drop out of the global view.
    pub fn remove(&self, id: &str) -> bool {
        self.lock().remove(id).is_some()
    }

    /// The tenant's hub, if registered.
    pub fn hub(&self, id: &str) -> Option<ObsHub> {
        self.lock().get(id).map(|t| t.hub.clone())
    }

    /// Set the tenant's lifecycle state; `false` if unknown.
    pub fn set_state(&self, id: &str, state: TenantState) -> bool {
        match self.lock().get_mut(id) {
            Some(t) => {
                t.state = state;
                true
            }
            None => false,
        }
    }

    /// The tenant's lifecycle state, if registered.
    pub fn state(&self, id: &str) -> Option<TenantState> {
        self.lock().get(id).map(|t| t.state)
    }

    /// `(id, state)` pairs in tenant-id order.
    pub fn tenants(&self) -> Vec<(String, TenantState)> {
        self.lock()
            .iter()
            .map(|(id, t)| (id.clone(), t.state))
            .collect()
    }

    /// Number of registered tenants.
    #[allow(clippy::len_without_is_empty)] // no caller asks for emptiness
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Fold every tenant's current snapshot into one [`Metrics`], in
    /// tenant-id order. Merge is exact (`u64` adds, max-gauges), so the
    /// result is byte-identical for any worker count once the tenants
    /// have settled — and a valid prefix view while they are live.
    pub fn aggregate(&self) -> Metrics {
        let map = self.lock();
        let mut folded = Metrics::new();
        for tenant in map.values() {
            folded.merge(&tenant.hub.metrics());
        }
        folded
    }

    /// The `/tenants` document: `{"tenants": [{"id", "state"}, ...]}`
    /// in tenant-id order. Ids are fenced to a safe charset at
    /// [`add`](HubRegistry::add), so plain quoting is already valid
    /// JSON.
    pub(crate) fn to_json(&self) -> String {
        let map = self.lock();
        let mut out = String::from("{\n  \"tenants\": [");
        for (i, (id, tenant)) in map.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"id\": \"{id}\", \"state\": \"{}\"}}",
                tenant.state.as_str()
            ));
        }
        if !map.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_remove_and_states() {
        let reg = HubRegistry::new();
        assert_eq!(reg.len(), 0);
        reg.add("t1", ObsHub::new(1)).expect("t1");
        reg.add("t0", ObsHub::new(1)).expect("t0");
        assert_eq!(
            reg.add("t1", ObsHub::new(1))
                .unwrap_err()
                .contains("duplicate"),
            true
        );
        assert!(reg.add("no spaces", ObsHub::new(1)).is_err());
        assert!(reg.add("", ObsHub::new(1)).is_err());
        assert!(reg.add("a/b", ObsHub::new(1)).is_err());
        assert_eq!(reg.len(), 2);

        // Id-ordered listing regardless of insertion order.
        let ids: Vec<String> = reg.tenants().into_iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec!["t0".to_string(), "t1".to_string()]);
        assert_eq!(reg.state("t0"), Some(TenantState::Queued));
        assert!(reg.set_state("t0", TenantState::Running));
        assert_eq!(reg.state("t0"), Some(TenantState::Running));
        assert!(!reg.set_state("missing", TenantState::Running));

        assert!(reg.remove("t0"));
        assert!(!reg.remove("t0"));
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn aggregate_folds_in_id_order_and_removal_drops_gauges() {
        let reg = HubRegistry::new();
        let big = ObsHub::new(1);
        let mut m = Metrics::new();
        m.add("zeek.frames_seen", 100);
        m.gauge_max("stream.peak_live_answers", 500.0);
        big.publish_metrics(m);
        let small = ObsHub::new(1);
        let mut m = Metrics::new();
        m.add("zeek.frames_seen", 7);
        m.gauge_max("stream.peak_live_answers", 3.0);
        small.publish_metrics(m);
        reg.add("big", big).expect("big");
        reg.add("small", small).expect("small");

        let agg = reg.aggregate();
        assert_eq!(agg.counter("zeek.frames_seen"), 107);
        assert_eq!(agg.gauge("stream.peak_live_answers"), Some(500.0));

        // Removing a tenant frees its contribution: the max-gauge
        // drops to the surviving tenant's peak.
        assert!(reg.remove("big"));
        let agg = reg.aggregate();
        assert_eq!(agg.counter("zeek.frames_seen"), 7);
        assert_eq!(agg.gauge("stream.peak_live_answers"), Some(3.0));
    }

    #[test]
    fn tenants_json_is_canonical() {
        let reg = HubRegistry::new();
        assert_eq!(reg.to_json(), "{\n  \"tenants\": []\n}");
        reg.add("b", ObsHub::new(1)).expect("b");
        reg.add("a", ObsHub::new(1)).expect("a");
        reg.set_state("b", TenantState::Drained);
        let doc = reg.to_json();
        let v = crate::obs::json::parse(&doc).expect("valid JSON");
        let arr = v
            .get("tenants")
            .and_then(|t| t.as_arr())
            .expect("array")
            .to_vec();
        assert_eq!(arr.len(), 2);
        assert_eq!(arr[0].get("id").and_then(|x| x.as_str()), Some("a"));
        assert_eq!(arr[0].get("state").and_then(|x| x.as_str()), Some("queued"));
        assert_eq!(arr[1].get("id").and_then(|x| x.as_str()), Some("b"));
        assert_eq!(
            arr[1].get("state").and_then(|x| x.as_str()),
            Some("drained")
        );
    }
}
