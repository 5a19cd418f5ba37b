//! RFC 1034/1035 DNS wire format.
//!
//! This crate implements the subset of the DNS protocol needed by a passive
//! network monitor and a traffic simulator:
//!
//! * [`Name`] — domain names with the RFC 1035 length limits, case-insensitive
//!   comparison, and wire encoding/decoding including message compression
//!   pointers (§4.1.4).
//! * [`Message`] / [`Header`] / [`Question`] / [`Record`] — full message
//!   encode and decode for the common record types (see [`RData`]).
//! * [`MessageWriter`] — the one encoder: header, questions and records
//!   appended to a caller's buffer from flat names ([`NameBuf`]), counts
//!   patched at the end. The owned encode is a loop over it.
//! * [`MessageView`] — the same decode checks over a borrowed buffer,
//!   allocating nothing: id, flags, the first question and the answer
//!   records, names read into a caller-owned [`NameBuf`]. The owned decode
//!   is this view, collected.
//! * [`tcp_frame`] — the 2-byte length prefix used for DNS over TCP (§4.2.2).
//!
//! The codec is strict on decode (malformed packets return [`WireError`]
//! rather than panicking — a passive monitor must survive arbitrary input)
//! and canonical on encode (names are compressed against earlier
//! occurrences, as real resolvers do).
//!
//! # Example
//!
//! ```
//! use dns_wire::{Compressor, Flags, Message, MessageWriter, Name, NameBuf, Rcode, RrType};
//! use std::net::Ipv4Addr;
//!
//! let q = Message::query(0x1234, Name::parse("www.example.com").unwrap(), RrType::A);
//! let wire = q.encode();
//! let back = Message::decode(&wire).unwrap();
//! assert_eq!(back.questions[0].name.to_string(), "www.example.com");
//!
//! // The response, written straight into a buffer.
//! let name: NameBuf = "www.example.com".parse().unwrap();
//! let (mut wire, mut comp) = (Vec::new(), Compressor::default());
//! let mut resp = MessageWriter::new(&mut wire, &mut comp, back.id, Flags::response(Rcode::NoError));
//! resp.question(&name, RrType::A);
//! resp.a(&name, 300, Ipv4Addr::new(93, 184, 216, 34));
//! resp.finish();
//! assert_eq!(Message::decode(&wire).unwrap().answers.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod header;
mod message;
mod name;
mod question;
mod rdata;
mod record;
pub mod tcp_frame;

pub use error::WireError;
pub use header::{Flags, Header, Opcode, Rcode};
pub use message::{Message, MessageView, MessageWriter};
pub use name::{Compressor, Name, NameBuf, NameRef};
pub use question::{Question, QuestionView};
pub use rdata::{RData, SoaData, SrvData};
pub use record::{Record, RecordView, RrClass, RrType};

/// Conventional DNS server port.
pub const DNS_PORT: u16 = 53;

/// DNS-over-TLS port (RFC 7858). The monitor checks that no traffic uses it.
pub const DOT_PORT: u16 = 853;
