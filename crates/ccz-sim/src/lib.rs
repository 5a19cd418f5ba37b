//! A discrete-event simulator of a CCZ-like residential FTTH network.
//!
//! The reproduced study ("Putting DNS in Context", IMC 2020) analysed one
//! week of DNS and connection logs from the Case Connection Zone — roughly
//! 100 houses behind NAT gateways, two ISP resolvers plus the big public
//! resolver platforms, and ordinary residential traffic. That trace is
//! proprietary; this crate generates the closest synthetic equivalent by
//! explicitly modelling every mechanism the paper measures:
//!
//! * houses with device mixes (browsers with DNS prefetching, Android
//!   phones doing connectivity checks via Google DNS, IoT gear with
//!   hard-coded server addresses, peer-to-peer clients, streaming boxes);
//! * per-device stub caches, including configurable TTL-violation
//!   behaviour (stale records being reused long past expiry);
//! * four resolver platforms with distinct RTTs, shared caches warmed by
//!   external background traffic, and authoritative-lookup delay models;
//! * a name universe with Zipf popularity, a realistic TTL mixture, CNAME
//!   chains and CDN co-hosting (several names resolving to one address).
//!
//! Two output backends produce identical log semantics:
//!
//! * [`Simulation::run`] emits [`zeek_lite::Logs`] directly (fast; used
//!   for large parameter sweeps), alongside per-record ground truth; and
//! * [`Simulation::run_pcap`] serialises every DNS message and every
//!   connection's packets as real Ethernet/IPv4 frames into a libpcap
//!   stream (or [`Simulation::run_ring`] into an in-memory ring), each
//!   frame as soon as no later event can precede it, to be re-parsed by
//!   the [`zeek_lite::Monitor`] — proving the whole observation pipeline
//!   end to end.
//!
//! Determinism: a run is a pure function of (config, seed). Nothing reads
//! the wall clock.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod dists;
mod engine;
pub mod names;
pub mod output;
pub mod resolvers;
pub mod scenarios;
pub mod truth;

pub use config::{ScaleKnobs, WorkloadConfig};
pub use engine::{SimOutput, Simulation};
pub use truth::{ConnClass, GroundTruth, TruthConn, TruthDns};
