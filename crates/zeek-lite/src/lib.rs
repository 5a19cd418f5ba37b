//! A passive network monitor in the spirit of Bro/Zeek.
//!
//! The reproduced study's two datasets are Bro connection summaries and DNS
//! transaction summaries collected at a residential ISP's first aggregation
//! point. This crate rebuilds that observation layer:
//!
//! * [`Monitor`] consumes captured frames (e.g. from a
//!   [`pcapio::PcapReader`]) and produces
//! * [`ConnRecord`]s — TCP connections delineated by SYN/FIN/RST tracking,
//!   UDP "connections" delineated by a 60-second inactivity timeout (Bro's
//!   definition, which the paper adopts; QUIC is implicitly covered as UDP),
//!   with byte counts recovered from TCP sequence space the way Zeek does,
//!   so snaplen-truncated captures still yield correct volumes; and
//! * [`DnsTransaction`]s — query/response pairs matched on (client,
//!   resolver, transaction id, question), with lookup durations and full
//!   answer sets. A row names its query and CNAME targets by [`NameId`]
//!   into the [`NameTable`] its [`Logs`] own.
//!
//! The record types here are also the lingua franca of the workspace: the
//! traffic simulator can emit them directly (fast path) or via real packets
//! through this monitor (faithful path), and the analysis crates consume
//! them without caring which path produced them.
//!
//! Zeek-style TSV serialisation lives in [`logfmt`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod columns;
mod counters;
mod degradation;
pub mod dns;
pub mod history;
pub mod logfmt;
mod monitor;
mod names;
pub mod time;
mod tracker;
pub mod types;

pub use columns::{ConnColumns, DnsColumns};
pub use counters::{DegradationStats, MonitorStats};
pub use dns::{Answer, AnswerData, Answers, DnsTransaction};
pub use history::History;
pub use monitor::{Logs, Monitor, MonitorConfig};
pub use names::{NameId, NameTable};
pub use time::{Duration, Timestamp};
pub use tracker::{service_for_port, ConnRecord, ConnState};
pub use types::{FiveTuple, Proto};
