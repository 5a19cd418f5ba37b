//! RFC 1034/1035 DNS wire format.
//!
//! This crate implements the subset of the DNS protocol needed by a passive
//! network monitor and a traffic simulator, one writer and one reader:
//!
//! * [`MessageWriter`] — the encoder: header, questions and records
//!   appended to a caller's buffer from flat names ([`NameBuf`], set from a
//!   presentation string with the RFC 1035 length limits), names
//!   compressed against earlier occurrences (§4.1.4), counts patched at
//!   the end.
//! * [`MessageView`] — the decoder: every section checked in place over a
//!   borrowed buffer, allocating nothing; it hands out id, flags, the
//!   first question and the answer records, names read, lower-cased, into
//!   a caller-owned [`NameBuf`].
//! * [`Message`] / [`Question`] / [`Record`] / [`RData`] — the view
//!   collected into owned sections by [`Message::decode`], for callers
//!   that time or keep a whole message.
//!
//! The codec is strict on decode (malformed packets return [`WireError`]
//! rather than panicking — a passive monitor must survive arbitrary input)
//! and canonical on encode (names are compressed against earlier
//! occurrences, as real resolvers do).
//!
//! # Example
//!
//! ```
//! use dns_wire::{Compressor, Flags, MessageView, MessageWriter, NameBuf, Rcode, RrType};
//! use std::net::Ipv4Addr;
//!
//! // A response, written straight into a buffer.
//! let name: NameBuf = "WWW.Example.com".parse().unwrap();
//! let (mut wire, mut comp) = (Vec::new(), Compressor::default());
//! let mut resp = MessageWriter::new(&mut wire, &mut comp, 0x1234, Flags::response(Rcode::NoError));
//! resp.question(&name, RrType::A);
//! resp.a(&name, 300, Ipv4Addr::new(93, 184, 216, 34));
//! resp.finish();
//!
//! // Read back in place, the name into a reused buffer.
//! let view = MessageView::parse(&wire).unwrap();
//! let (mut buf, mut text) = (NameBuf::new(), String::new());
//! view.question().unwrap().name.read_into(&mut buf);
//! buf.write_presentation(&mut text);
//! assert_eq!((view.id(), text.as_str()), (0x1234, "www.example.com"));
//! let answer = view.answers().next().unwrap();
//! assert_eq!((answer.ttl, answer.a()), (300, Some(Ipv4Addr::new(93, 184, 216, 34))));
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

pub use error::WireError;
pub use header::{Flags, Opcode, Rcode};
pub use message::{Message, MessageView, MessageWriter};
pub use name::{Compressor, Name, NameBuf, NameRef};
pub use question::{Question, QuestionView};
pub use rdata::{RData, SoaData, SrvData};
pub use record::{Record, RecordView, RrClass, RrType};

/// Conventional DNS server port.
pub const DNS_PORT: u16 = 53;

/// DNS-over-TLS port (RFC 7858). The monitor checks that no traffic uses it.
pub const DOT_PORT: u16 = 853;
