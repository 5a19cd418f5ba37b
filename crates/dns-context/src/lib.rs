//! The paper's analysis pipeline: DNS *in the context of* the application
//! transactions that use it.
//!
//! Implements the methodology of *Putting DNS in Context* (Allman,
//! IMC 2020) over [`zeek_lite::Logs`] — regardless of whether those logs
//! came from a real capture, from the packet pipeline, or from the
//! simulator's direct backend:
//!
//! 1. **Pairing** ([`pairing`]) — DN-Hunter: each application connection is
//!    matched with the most recent non-expired DNS lookup by the same
//!    client whose answers contain the connection's destination address
//!    (falling back to the most recent expired one).
//! 2. **Blocking** ([`blocking`]) — connections starting within 100 ms of
//!    their lookup's completion are "blocked" on DNS; the gap distribution
//!    (Figure 1) justifies the threshold.
//! 3. **Classification** ([`classify`]) — Table 2's five classes:
//!    `N` (no DNS), `LC` (local cache), `P` (prefetched),
//!    `SC` (shared-resolver cache), `R` (authoritative resolution), with
//!    the per-resolver duration threshold separating SC from R.
//! 4. **Performance** ([`perf`]) — Figure 2 and §6: absolute lookup delays
//!    and DNS' relative contribution to transaction time, plus the 2×2
//!    significance decomposition.
//! 5. **Resolver comparison** ([`resolver`]) — Table 1, §7 and Figure 3:
//!    per-platform usage, cache hit rates, R-lookup delays, and
//!    application throughput (including the connectivitycheck artifact).
//!
//! [`Analysis`] runs the whole pipeline once and serves every table and
//! figure from the shared result.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blocking;
pub mod classify;
pub mod house;
pub mod pairing;
pub mod perf;
pub mod report;
pub mod resolver;
pub mod stats;
pub mod stream;

mod analysis;
mod kernel;
mod radix;
mod timeseries;

/// The reference pairer from the paper's sentence, shared with the
/// integration tests, for unit tests that also read crate-private
/// counters.
#[cfg(test)]
#[path = "../tests/oracle/mod.rs"]
mod oracle;

pub use analysis::{Analysis, AnalysisConfig, Coverage};
pub use classify::{ClassCounts, ConnClass};
pub use pairing::{PairedConn, Pairing, PairingPolicy};
pub use stats::Ecdf;
pub use stream::{EpochOutput, StreamEngine, StreamResult};
