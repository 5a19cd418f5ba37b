//! Ethernet II / IPv4 / UDP / TCP packet encoding and parsing.
//!
//! This crate provides exactly what a passive residential-ISP monitor and
//! its traffic simulator need: building well-formed frames (with correct
//! internet checksums) and parsing captured frames back into typed headers.
//!
//! Design notes, following the smoltcp school of thought:
//!
//! * simplicity over generality — IPv4 only (the reproduced study is a 2019
//!   residential IPv4 dataset), no options interpretation beyond carrying
//!   the raw bytes, no reassembly (the simulator never fragments);
//! * strict parsing — malformed input yields [`PktError`], never a panic;
//! * honest truncation — captures are often snaplen-limited, so parsers
//!   distinguish *declared* lengths (from headers) from *captured* bytes,
//!   exactly like a real pcap consumer must.
//!
//! # Example
//!
//! ```
//! use netpkt::{Frame, MacAddr, TcpHeader};
//! use std::net::Ipv4Addr;
//!
//! let syn = Frame::tcp(
//!     MacAddr::LOCAL, MacAddr::UPSTREAM,
//!     Ipv4Addr::new(10, 1, 1, 2), Ipv4Addr::new(93, 184, 216, 34),
//!     TcpHeader::syn(49152, 443, 1_000),
//!     &[],
//! );
//! let bytes = syn.encode();
//! let parsed = netpkt::Packet::parse(&bytes, bytes.len()).unwrap();
//! assert_eq!(parsed.transport.dst_port(), Some(443));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checksum;
mod error;
mod ethernet;
pub mod frame;
mod ipv4;
mod tcp;
mod udp;

pub use error::PktError;
pub use ethernet::{EtherType, EthernetHeader, MacAddr, ETHERNET_HEADER_LEN};
pub use frame::{Frame, Packet, Transport};
pub use ipv4::{IpProtocol, Ipv4Header, IPV4_HEADER_LEN};
pub use tcp::{TcpFlags, TcpHeader};
pub use udp::{UdpHeader, UDP_HEADER_LEN};
