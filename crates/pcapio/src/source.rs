//! The ingestion seam: a pull-based abstraction over "where packets
//! come from".
//!
//! Every consumer of capture data — the zeek-lite monitor, the streaming
//! analysis engine, the repro CLI — drives a [`RecordSource`] instead of
//! constructing a [`PcapReader`] directly. Two backends implement the
//! trait:
//!
//! * **file** — [`PcapReader`], constructed through [`file`]; unchanged
//!   semantics, byte-identical output to the pre-seam pipeline;
//! * **in-memory ring** — [`crate::ring::RingSource`], the consumer end
//!   of a fixed-capacity SPSC ring, so a simulator (or any producer)
//!   pipes frames straight to the monitor with no serialize/parse round
//!   trip.
//!
//! The contract mirrors `PcapReader::next_record` exactly: each call
//! yields a borrowed [`RecordRef`] valid until the next call (backends
//! reuse an internal read buffer), `Ok(None)` is end of stream, and a
//! malformed record is a typed error that leaves the source usable for
//! the caller to decide whether to continue.

use std::io::Read;

use crate::{PcapError, PcapReader, RecordRef, LINKTYPE_ETHERNET};

/// The per-stream invariants a backend advertises up front — the moral
/// equivalent of the pcap global header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SourceHeader {
    /// Link-layer type of every record (`LINKTYPE_*`; all in-tree
    /// backends produce Ethernet).
    pub link_type: u32,
    /// Maximum stored bytes per record; `orig_len` may exceed this.
    pub snaplen: u32,
}

/// A pull-based stream of capture records.
///
/// Implementations hand out records borrowed from an internal reusable
/// buffer: a [`RecordRef`] is valid until the next call to
/// [`RecordSource::next`]. This keeps every backend on the zero-copy
/// discipline the file reader established (`RecordRef::to_owned` remains
/// the sanctioned owned exit).
pub trait RecordSource {
    /// Stream-level header: link type and snaplen.
    fn header(&self) -> SourceHeader;

    /// Pull the next record. `Ok(None)` means the stream is exhausted
    /// (end of file, or the producer closed the ring).
    fn next(&mut self) -> Result<Option<RecordRef<'_>>, PcapError>;

    /// Source-side counters as an obs snapshot, using the same
    /// `capture.frames_read` / `capture.bytes_read` /
    /// `capture.frames_rejected` names for every backend so downstream
    /// accounting identities hold regardless of where frames came from.
    fn metrics(&self) -> xkit::obs::Metrics;
}

impl<R: Read> RecordSource for PcapReader<R> {
    fn header(&self) -> SourceHeader {
        SourceHeader { link_type: LINKTYPE_ETHERNET, snaplen: self.snaplen() }
    }

    fn next(&mut self) -> Result<Option<RecordRef<'_>>, PcapError> {
        self.next_record()
    }

    fn metrics(&self) -> xkit::obs::Metrics {
        PcapReader::metrics(self)
    }
}

/// Open the file backend: parse a pcap global header from `input` and
/// return the reader as a [`RecordSource`].
///
/// This is the one constructor of the file backend outside this crate:
/// `PcapReader::new` is crate-private, and lintkit's `ingest-seam` rule
/// flags any other spelling of it, so every consumer stays behind the
/// seam.
pub fn file<R: Read>(input: R) -> Result<PcapReader<R>, PcapError> {
    PcapReader::new(input)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PcapWriter;

    #[test]
    fn file_backend_matches_reader_semantics() {
        let mut buf = Vec::new();
        let mut w = PcapWriter::new(&mut buf, 96).unwrap();
        w.write_packet(7, b"abc", 3).unwrap();
        w.write_packet(9, b"defg", 4).unwrap();
        drop(w);

        let mut src = file(&buf[..]).unwrap();
        assert_eq!(src.header(), SourceHeader { link_type: LINKTYPE_ETHERNET, snaplen: 96 });
        let r = src.next().unwrap().unwrap();
        assert_eq!((r.ts_nanos, r.orig_len, r.data), (7, 3, &b"abc"[..]));
        let r = src.next().unwrap().unwrap();
        assert_eq!((r.ts_nanos, r.orig_len, r.data), (9, 4, &b"defg"[..]));
        assert!(src.next().unwrap().is_none());

        let m = RecordSource::metrics(&src);
        assert_eq!(m.counter("capture.frames_read"), 2);
        assert_eq!(m.counter("capture.bytes_read"), 7);
        assert_eq!(m.counter("capture.frames_rejected"), 0);
    }
}
