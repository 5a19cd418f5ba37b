//! Reader and writer for the classic libpcap capture file format.
//!
//! Supports both byte orders and both timestamp precisions (microsecond
//! magic `0xA1B2C3D4`, nanosecond magic `0xA1B23C4D`), Ethernet link type,
//! and snaplen truncation on write — everything needed to serialise a
//! simulated capture and read it back as a production monitor would.
//!
//! The format is the original fixed 24-byte global header followed by
//! 16-byte per-packet record headers; see the Wireshark wiki's
//! "Development/LibpcapFileFormat" page.
//!
//! Beyond the file format, the crate owns the monitor's **ingestion
//! seam**: [`RecordSource`] abstracts "where packets come from" behind a
//! pull-based one-record-at-a-time contract, with two backends — the
//! file reader ([`PcapReader`], via [`source::file`]) and a
//! fixed-capacity SPSC in-memory ring ([`ring::channel`]) that lets a
//! producer hand frames to the monitor with no serialize/parse round
//! trip.
//!
//! # Example
//!
//! ```
//! use pcapio::{PcapWriter, PcapReader, TsPrecision};
//!
//! let mut buf = Vec::new();
//! let mut w = PcapWriter::new(&mut buf, 96, TsPrecision::Nano).unwrap();
//! w.write_packet(1_549_497_600_000_000_123, b"frame bytes", None).unwrap();
//! drop(w);
//!
//! let r = PcapReader::new(&buf[..]).unwrap();
//! let rec = r.records().next().unwrap().unwrap();
//! assert_eq!(rec.ts_nanos, 1_549_497_600_000_000_123);
//! assert_eq!(rec.data, b"frame bytes");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::io::{self, Read, Write};

pub mod ring;
pub mod source;

pub use ring::{Backpressure, RingSink, RingSource};
pub use source::{RecordSource, SourceHeader};

/// Magic number for microsecond-precision captures.
const MAGIC_MICRO: u32 = 0xA1B2_C3D4;
/// Magic number for nanosecond-precision captures.
const MAGIC_NANO: u32 = 0xA1B2_3C4D;
/// Link type for Ethernet frames.
pub const LINKTYPE_ETHERNET: u32 = 1;
/// Size of the global file header.
const GLOBAL_HEADER_LEN: usize = 24;
/// Size of each per-packet record header.
const RECORD_HEADER_LEN: usize = 16;

/// Timestamp precision of a capture file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TsPrecision {
    /// Microseconds (the common default).
    Micro,
    /// Nanoseconds.
    Nano,
}

/// Errors from reading a capture file.
#[derive(Debug)]
pub enum PcapError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The magic number was not a known pcap magic.
    BadMagic(u32),
    /// Unsupported major/minor version.
    BadVersion(u16, u16),
    /// A record claimed more captured bytes than its original length,
    /// or exceeded the file's snaplen by an implausible margin.
    BadRecord {
        /// Captured length from the record header.
        incl_len: u32,
        /// Original length from the record header.
        orig_len: u32,
    },
    /// File ended in the middle of a structure.
    TruncatedFile,
}

impl fmt::Display for PcapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PcapError::Io(e) => write!(f, "i/o error: {e}"),
            PcapError::BadMagic(m) => write!(f, "unknown pcap magic {m:#010x}"),
            PcapError::BadVersion(maj, min) => write!(f, "unsupported pcap version {maj}.{min}"),
            PcapError::BadRecord { incl_len, orig_len } => {
                write!(f, "implausible record: incl_len {incl_len}, orig_len {orig_len}")
            }
            PcapError::TruncatedFile => write!(f, "capture file truncated"),
        }
    }
}

impl std::error::Error for PcapError {}

impl From<io::Error> for PcapError {
    fn from(e: io::Error) -> Self {
        PcapError::Io(e)
    }
}

/// One captured packet as stored in the file: the frame record
/// [`xkit::fault`] corrupts, under the name this crate's callers use.
pub use xkit::fault::RawFrame as PcapRecord;

/// A borrowed view of one captured packet.
///
/// Returned by `PcapReader::next_record`: `data` points into the
/// reader's internal buffer, which is overwritten by the next read. This
/// is the zero-copy hot path — one buffer serves the whole capture instead
/// of one `Vec` per frame. Call [`RecordRef::to_owned`] only where a
/// record must outlive the next read (e.g. the fault-rewrite seam).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordRef<'a> {
    /// Timestamp in nanoseconds since the epoch.
    pub ts_nanos: u64,
    /// Length the packet had on the wire.
    pub orig_len: u32,
    /// Bytes actually stored (at most snaplen), valid until the next read.
    pub data: &'a [u8],
}

impl RecordRef<'_> {
    /// Copy into an owned [`PcapRecord`] (the owned fallback for
    /// consumers that must hold records across reads).
    pub fn to_owned(&self) -> PcapRecord {
        PcapRecord {
            ts_nanos: self.ts_nanos,
            orig_len: self.orig_len,
            data: self.data.to_vec(), // lint: allow(no-owned-copy-hotpath): leaves the zero-copy path by design
        }
    }
}

/// Streaming pcap writer.
///
/// Writes the global header on construction and one record per
/// [`write_packet`](PcapWriter::write_packet) call, truncating stored bytes
/// at the configured snaplen (the recorded `orig_len` is preserved).
pub struct PcapWriter<W: Write> {
    out: W,
    snaplen: u32,
    precision: TsPrecision,
    packets_written: u64,
}

impl<W: Write> PcapWriter<W> {
    /// Create a writer with the given snaplen and timestamp precision and
    /// emit the global header. Always writes native little-endian captures
    /// (the reader handles both orders).
    pub fn new(mut out: W, snaplen: u32, precision: TsPrecision) -> io::Result<PcapWriter<W>> {
        let magic = match precision {
            TsPrecision::Micro => MAGIC_MICRO,
            TsPrecision::Nano => MAGIC_NANO,
        };
        out.write_all(&magic.to_le_bytes())?;
        out.write_all(&2u16.to_le_bytes())?; // version major
        out.write_all(&4u16.to_le_bytes())?; // version minor
        out.write_all(&0i32.to_le_bytes())?; // thiszone
        out.write_all(&0u32.to_le_bytes())?; // sigfigs
        out.write_all(&snaplen.to_le_bytes())?;
        out.write_all(&LINKTYPE_ETHERNET.to_le_bytes())?;
        Ok(PcapWriter { out, snaplen, precision, packets_written: 0 })
    }

    /// Append one packet. `ts_nanos` is nanoseconds since the epoch;
    /// `frame` holds the bytes available for storage; `orig_len` overrides
    /// the on-wire length when the frame is already a partial view (pass
    /// `None` when `frame` is the complete packet).
    pub fn write_packet(&mut self, ts_nanos: u64, frame: &[u8], orig_len: Option<u32>) -> io::Result<()> {
        let stored = frame.len().min(self.snaplen as usize);
        let orig = orig_len.unwrap_or(frame.len() as u32);
        debug_assert!(orig as usize >= frame.len());
        let (secs, subsec) = match self.precision {
            TsPrecision::Micro => (ts_nanos / 1_000_000_000, (ts_nanos % 1_000_000_000) / 1_000),
            TsPrecision::Nano => (ts_nanos / 1_000_000_000, ts_nanos % 1_000_000_000),
        };
        self.out.write_all(&(secs as u32).to_le_bytes())?;
        self.out.write_all(&(subsec as u32).to_le_bytes())?;
        self.out.write_all(&(stored as u32).to_le_bytes())?;
        self.out.write_all(&orig.to_le_bytes())?;
        self.out.write_all(&frame[..stored])?;
        self.packets_written += 1;
        Ok(())
    }

    /// Number of records written so far.
    pub fn packets_written(&self) -> u64 {
        self.packets_written
    }

    /// Flush and return the underlying writer.
    pub fn into_inner(mut self) -> io::Result<W> {
        self.out.flush()?;
        Ok(self.out)
    }
}

/// Streaming pcap reader.
pub struct PcapReader<R: Read> {
    input: R,
    swapped: bool,
    precision: TsPrecision,
    snaplen: u32,
    records_read: u64,
    bytes_read: u64,
    records_rejected: u64,
    /// Reusable record body buffer backing [`PcapReader::next_record`];
    /// grows to the largest record seen and is never shrunk.
    buf: Vec<u8>,
}

impl<R: Read> PcapReader<R> {
    /// Read and validate the global header, auto-detecting byte order and
    /// timestamp precision from the magic number.
    pub fn new(mut input: R) -> Result<PcapReader<R>, PcapError> {
        let mut header = [0u8; GLOBAL_HEADER_LEN];
        input.read_exact(&mut header).map_err(|_| PcapError::TruncatedFile)?;
        let magic_raw = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
        let (swapped, precision) = match magic_raw {
            MAGIC_MICRO => (false, TsPrecision::Micro),
            MAGIC_NANO => (false, TsPrecision::Nano),
            m if m.swap_bytes() == MAGIC_MICRO => (true, TsPrecision::Micro),
            m if m.swap_bytes() == MAGIC_NANO => (true, TsPrecision::Nano),
            other => return Err(PcapError::BadMagic(other)),
        };
        let rd16 = |i: usize| {
            let v = u16::from_le_bytes([header[i], header[i + 1]]);
            if swapped {
                v.swap_bytes()
            } else {
                v
            }
        };
        let rd32 = |i: usize| {
            let v = u32::from_le_bytes([header[i], header[i + 1], header[i + 2], header[i + 3]]);
            if swapped {
                v.swap_bytes()
            } else {
                v
            }
        };
        let (major, minor) = (rd16(4), rd16(6));
        if major != 2 {
            return Err(PcapError::BadVersion(major, minor));
        }
        Ok(PcapReader {
            input,
            swapped,
            precision,
            snaplen: rd32(16),
            records_read: 0,
            bytes_read: 0,
            records_rejected: 0,
            buf: Vec::new(),
        })
    }

    /// The file's snaplen.
    pub(crate) fn snaplen(&self) -> u32 {
        self.snaplen
    }

    /// Reader-side counters as an obs snapshot (`capture.frames_read`,
    /// `capture.bytes_read`, `capture.frames_rejected`).
    pub fn metrics(&self) -> xkit::obs::Metrics {
        let mut m = xkit::obs::Metrics::new();
        m.add("capture.frames_read", self.records_read);
        m.add("capture.bytes_read", self.bytes_read);
        m.add("capture.frames_rejected", self.records_rejected);
        m
    }

    /// Read the next record as a borrowed view over the reader's internal
    /// buffer, or `Ok(None)` at a clean end of file.
    ///
    /// The returned slice is valid until the next call on this reader;
    /// use [`RecordRef::to_owned`] (or [`PcapReader::next_packet`]) when a
    /// record must be kept across reads.
    pub(crate) fn next_record(&mut self) -> Result<Option<RecordRef<'_>>, PcapError> {
        let mut rh = [0u8; RECORD_HEADER_LEN];
        match self.input.read_exact(&mut rh) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
                return Ok(None);
            }
            Err(e) => return Err(e.into()),
        }
        let rd32 = |i: usize| {
            let v = u32::from_le_bytes([rh[i], rh[i + 1], rh[i + 2], rh[i + 3]]);
            if self.swapped {
                v.swap_bytes()
            } else {
                v
            }
        };
        let secs = rd32(0) as u64;
        let subsec = rd32(4) as u64;
        let incl_len = rd32(8);
        let orig_len = rd32(12);
        if incl_len > orig_len || incl_len > self.snaplen.saturating_add(65535) {
            self.records_rejected += 1;
            return Err(PcapError::BadRecord { incl_len, orig_len });
        }
        let ts_nanos = match self.precision {
            TsPrecision::Micro => secs * 1_000_000_000 + subsec * 1_000,
            TsPrecision::Nano => secs * 1_000_000_000 + subsec,
        };
        let n = incl_len as usize;
        if self.buf.len() < n {
            // Zero-fill only on growth; steady state re-reads in place.
            self.buf.resize(n, 0);
        }
        self.input.read_exact(&mut self.buf[..n]).map_err(|_| {
            self.records_rejected += 1;
            PcapError::TruncatedFile
        })?;
        self.records_read += 1;
        self.bytes_read += n as u64;
        Ok(Some(RecordRef { ts_nanos, orig_len, data: &self.buf[..n] }))
    }

    /// Read the next record into an owned [`PcapRecord`], or `Ok(None)` at
    /// a clean end of file. Allocates per record; prefer
    /// [`PcapReader::next_record`] on hot paths.
    fn next_packet(&mut self) -> Result<Option<PcapRecord>, PcapError> {
        Ok(self.next_record()?.map(|r| r.to_owned()))
    }

    /// Iterate over all remaining records.
    pub fn records(self) -> Records<R> {
        Records { reader: self }
    }
}

/// Iterator adapter over a [`PcapReader`].
pub struct Records<R: Read> {
    reader: PcapReader<R>,
}

impl<R: Read> Iterator for Records<R> {
    type Item = Result<PcapRecord, PcapError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.reader.next_packet().transpose()
    }
}

/// Merge two time-sorted captures into one (the `mergecap` operation):
/// records are interleaved by timestamp, ties favouring the first input.
/// The output uses nanosecond precision and the larger of the two
/// snaplens. Inputs must themselves be time-sorted; out-of-order inputs
/// produce an out-of-order output rather than an error (as mergecap does).
pub fn merge<R1: Read, R2: Read, W: Write>(a: R1, b: R2, out: W) -> Result<u64, PcapError> {
    let ra = PcapReader::new(a)?;
    let rb = PcapReader::new(b)?;
    let snaplen = ra.snaplen().max(rb.snaplen());
    let mut w = PcapWriter::new(out, snaplen, TsPrecision::Nano)?;
    let mut ia = ra.records();
    let mut ib = rb.records();
    let mut next_a = ia.next().transpose()?;
    let mut next_b = ib.next().transpose()?;
    loop {
        let take_a = match (&next_a, &next_b) {
            (None, None) => break,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (Some(x), Some(y)) => x.ts_nanos <= y.ts_nanos,
        };
        let rec = if take_a {
            std::mem::replace(&mut next_a, ia.next().transpose()?).unwrap()
        } else {
            std::mem::replace(&mut next_b, ib.next().transpose()?).unwrap()
        };
        w.write_packet(rec.ts_nanos, &rec.data, Some(rec.orig_len))?;
    }
    let n = w.packets_written();
    w.into_inner()?;
    Ok(n)
}

/// Copy a capture record by record through a fault injector: the
/// fault→pcap bridge.
///
/// Each input record maps to zero or more output records (drop, modify,
/// duplicate); the injector's [`flush`](xkit::fault::FaultInjector::flush)
/// runs once after the last input record. The output keeps the input's
/// snaplen and is written at nanosecond precision. Returns the number of
/// records written.
///
/// The capture never has to be fully materialised to be corrupted.
pub fn rewrite<R: Read, W: Write>(
    input: R,
    out: W,
    injector: &mut xkit::fault::FaultInjector,
) -> Result<u64, PcapError> {
    let mut reader = PcapReader::new(input)?;
    let mut w = PcapWriter::new(out, reader.snaplen(), TsPrecision::Nano)?;
    while let Some(rec) = reader.next_packet()? {
        for r in injector.apply(rec) {
            w.write_packet(r.ts_nanos, &r.data, Some(r.orig_len))?;
        }
    }
    for r in injector.flush() {
        w.write_packet(r.ts_nanos, &r.data, Some(r.orig_len))?;
    }
    let n = w.packets_written();
    w.into_inner()?;
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xkit::fault::{FaultConfig, FaultInjector};

    fn write_capture(precision: TsPrecision, snaplen: u32, frames: &[(&[u8], Option<u32>)]) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut w = PcapWriter::new(&mut buf, snaplen, precision).unwrap();
        for (i, (frame, orig)) in frames.iter().enumerate() {
            w.write_packet(1_000_000_000 + i as u64 * 1_000, frame, *orig).unwrap();
        }
        assert_eq!(w.packets_written(), frames.len() as u64);
        buf
    }

    #[test]
    fn round_trip_nano() {
        let buf = write_capture(TsPrecision::Nano, 65535, &[(b"abc", None), (b"defgh", None)]);
        let r = PcapReader::new(&buf[..]).unwrap();
        assert_eq!(r.precision, TsPrecision::Nano);
        let recs: Vec<_> = r.records().map(|r| r.unwrap()).collect();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].data, b"abc");
        assert_eq!(recs[0].ts_nanos, 1_000_000_000);
        assert_eq!(recs[1].ts_nanos, 1_000_001_000);
    }

    #[test]
    fn micro_precision_rounds_down() {
        let mut buf = Vec::new();
        let mut w = PcapWriter::new(&mut buf, 65535, TsPrecision::Micro).unwrap();
        w.write_packet(1_000_000_999, b"x", None).unwrap();
        drop(w);
        let mut r = PcapReader::new(&buf[..]).unwrap();
        let rec = r.next_packet().unwrap().unwrap();
        // 999 ns rounds down to 0 µs.
        assert_eq!(rec.ts_nanos, 1_000_000_000);
    }

    #[test]
    fn snaplen_truncates_but_preserves_orig_len() {
        let buf = write_capture(TsPrecision::Nano, 4, &[(b"0123456789", None)]);
        let mut r = PcapReader::new(&buf[..]).unwrap();
        let rec = r.next_packet().unwrap().unwrap();
        assert_eq!(rec.data, b"0123");
        assert_eq!(rec.orig_len, 10);
    }

    #[test]
    fn explicit_orig_len_for_virtual_payload() {
        let buf = write_capture(TsPrecision::Nano, 96, &[(b"hdrs", Some(1500))]);
        let mut r = PcapReader::new(&buf[..]).unwrap();
        let rec = r.next_packet().unwrap().unwrap();
        assert_eq!(rec.data, b"hdrs");
        assert_eq!(rec.orig_len, 1500);
    }

    #[test]
    fn byte_swapped_capture_reads_back() {
        // Hand-build a big-endian header + one record.
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC_MICRO.to_be_bytes());
        buf.extend_from_slice(&2u16.to_be_bytes());
        buf.extend_from_slice(&4u16.to_be_bytes());
        buf.extend_from_slice(&0i32.to_be_bytes());
        buf.extend_from_slice(&0u32.to_be_bytes());
        buf.extend_from_slice(&96u32.to_be_bytes());
        buf.extend_from_slice(&LINKTYPE_ETHERNET.to_be_bytes());
        buf.extend_from_slice(&7u32.to_be_bytes()); // secs
        buf.extend_from_slice(&5u32.to_be_bytes()); // usecs
        buf.extend_from_slice(&3u32.to_be_bytes()); // incl
        buf.extend_from_slice(&3u32.to_be_bytes()); // orig
        buf.extend_from_slice(b"xyz");
        let mut r = PcapReader::new(&buf[..]).unwrap();
        assert_eq!(r.snaplen(), 96);
        let rec = r.next_packet().unwrap().unwrap();
        assert_eq!(rec.ts_nanos, 7_000_005_000);
        assert_eq!(rec.data, b"xyz");
    }

    #[test]
    fn bad_magic_rejected() {
        let buf = [0u8; GLOBAL_HEADER_LEN];
        assert!(matches!(PcapReader::new(&buf[..]), Err(PcapError::BadMagic(0))));
    }

    #[test]
    fn bad_version_rejected() {
        let mut buf = write_capture(TsPrecision::Micro, 96, &[]);
        buf[4] = 9; // version major
        assert!(matches!(PcapReader::new(&buf[..]), Err(PcapError::BadVersion(9, 4))));
    }

    #[test]
    fn truncated_global_header_rejected() {
        let buf = [0u8; 10];
        assert!(matches!(PcapReader::new(&buf[..]), Err(PcapError::TruncatedFile)));
    }

    #[test]
    fn truncated_record_body_rejected() {
        let mut buf = write_capture(TsPrecision::Nano, 96, &[(b"abcdef", None)]);
        buf.truncate(buf.len() - 2);
        let mut r = PcapReader::new(&buf[..]).unwrap();
        assert!(matches!(r.next_packet(), Err(PcapError::TruncatedFile)));
    }

    #[test]
    fn record_with_incl_exceeding_orig_rejected() {
        let mut buf = Vec::new();
        let mut w = PcapWriter::new(&mut buf, 96, TsPrecision::Nano).unwrap();
        w.write_packet(0, b"abc", None).unwrap();
        drop(w);
        // Corrupt orig_len (last 4 bytes of the record header) to 1.
        let off = GLOBAL_HEADER_LEN + 12;
        buf[off..off + 4].copy_from_slice(&1u32.to_le_bytes());
        let mut r = PcapReader::new(&buf[..]).unwrap();
        assert!(matches!(r.next_packet(), Err(PcapError::BadRecord { .. })));
    }

    #[test]
    fn empty_capture_yields_no_records() {
        let buf = write_capture(TsPrecision::Micro, 96, &[]);
        let r = PcapReader::new(&buf[..]).unwrap();
        assert_eq!(r.records().count(), 0);
    }

    #[test]
    fn merge_interleaves_by_time() {
        let mk = |stamps: &[u64], tag: u8| {
            let mut buf = Vec::new();
            let mut w = PcapWriter::new(&mut buf, 96, TsPrecision::Nano).unwrap();
            for ts in stamps {
                w.write_packet(*ts, &[tag, *ts as u8], None).unwrap();
            }
            buf
        };
        let a = mk(&[10, 30, 50], 0xAA);
        let b = mk(&[20, 30, 60, 70], 0xBB);
        let mut merged = Vec::new();
        let n = merge(&a[..], &b[..], &mut merged).unwrap();
        assert_eq!(n, 7);
        let recs: Vec<_> = PcapReader::new(&merged[..]).unwrap().records().map(|r| r.unwrap()).collect();
        let stamps: Vec<u64> = recs.iter().map(|r| r.ts_nanos).collect();
        assert_eq!(stamps, vec![10, 20, 30, 30, 50, 60, 70]);
        // The tie at 30 favours input A.
        assert_eq!(recs[2].data[0], 0xAA);
        assert_eq!(recs[3].data[0], 0xBB);
    }

    #[test]
    fn merge_with_empty_capture_is_identity() {
        let mut a = Vec::new();
        let mut w = PcapWriter::new(&mut a, 96, TsPrecision::Nano).unwrap();
        w.write_packet(5, b"x", None).unwrap();
        drop(w);
        let empty = {
            let mut e = Vec::new();
            PcapWriter::new(&mut e, 96, TsPrecision::Nano).unwrap();
            e
        };
        let mut merged = Vec::new();
        assert_eq!(merge(&a[..], &empty[..], &mut merged).unwrap(), 1);
        let recs: Vec<_> = PcapReader::new(&merged[..]).unwrap().records().map(|r| r.unwrap()).collect();
        assert_eq!(recs[0].data, b"x");
    }

    fn injector(cfg: FaultConfig) -> FaultInjector {
        FaultInjector::new(cfg, xkit::rng::StdRng::seed_from_u64(1))
    }

    #[test]
    fn rewrite_identity_preserves_records() {
        let buf = write_capture(TsPrecision::Nano, 96, &[(b"abc", None), (b"defgh", Some(1500))]);
        let mut out = Vec::new();
        // A clean injector draws nothing and passes every record through.
        let n = rewrite(&buf[..], &mut out, &mut injector(FaultConfig::clean())).unwrap();
        assert_eq!(n, 2);
        assert_eq!(out, buf, "identity rewrite of a nano capture is byte-identical");
    }

    #[test]
    fn rewrite_can_drop_duplicate_and_flush() {
        let buf = write_capture(TsPrecision::Nano, 96, &[(b"a", None), (b"b", None), (b"c", None)]);
        let through = |cfg: FaultConfig| {
            let mut out = Vec::new();
            let n = rewrite(&buf[..], &mut out, &mut injector(cfg)).unwrap();
            let recs: Vec<_> = PcapReader::new(&out[..]).unwrap().records().map(|r| r.unwrap()).collect();
            assert_eq!(n, recs.len() as u64);
            recs.iter().map(|r| r.data[0]).collect::<Vec<u8>>()
        };
        let clean = FaultConfig::clean();
        assert_eq!(through(FaultConfig { drop: 1.0, ..clean }), b"");
        assert_eq!(through(FaultConfig { duplicate: 1.0, ..clean }), b"aabbcc");
        // Every record is held back in turn: `b` releases `a`, and `c`
        // leaves only at the flush.
        assert_eq!(through(FaultConfig { reorder: 1.0, ..clean }), b"abc");
    }

    #[test]
    fn read_write_counters_account_for_every_byte() {
        let buf = write_capture(TsPrecision::Nano, 96, &[(b"abc", None), (b"defgh", None)]);
        let mut r = PcapReader::new(&buf[..]).unwrap();
        while let Some(_) = r.next_packet().unwrap() {}
        assert_eq!(r.records_read, 2);
        assert_eq!(r.bytes_read, 8);
        assert_eq!(r.records_rejected, 0);
        let m = r.metrics();
        assert_eq!(m.counter("capture.frames_read"), 2);
        assert_eq!(m.counter("capture.bytes_read"), 8);

        let mut w = PcapWriter::new(Vec::new(), 96, TsPrecision::Nano).unwrap();
        w.write_packet(1, b"abc", None).unwrap();
        w.write_packet(2, b"defgh", None).unwrap();
        assert_eq!(w.packets_written(), 2);
    }

    #[test]
    fn rejected_records_are_counted() {
        let mut buf = write_capture(TsPrecision::Nano, 96, &[(b"abcdef", None)]);
        buf.truncate(buf.len() - 2);
        let mut r = PcapReader::new(&buf[..]).unwrap();
        assert!(r.next_packet().is_err());
        assert_eq!(r.records_rejected, 1);
        assert_eq!(r.metrics().counter("capture.frames_rejected"), 1);
    }

    #[test]
    fn next_record_borrows_and_agrees_with_next_packet() {
        let frames: Vec<Vec<u8>> = (0..40u8).map(|i| vec![i; (i as usize % 17) + 1]).collect();
        let refs: Vec<(&[u8], Option<u32>)> = frames.iter().map(|f| (f.as_slice(), None)).collect();
        let buf = write_capture(TsPrecision::Nano, 65535, &refs);
        let mut borrowed = PcapReader::new(&buf[..]).unwrap();
        let mut owned = PcapReader::new(&buf[..]).unwrap();
        loop {
            let o = owned.next_packet().unwrap();
            match borrowed.next_record().unwrap() {
                Some(r) => {
                    let o = o.expect("owned reader must agree");
                    assert_eq!(r.ts_nanos, o.ts_nanos);
                    assert_eq!(r.orig_len, o.orig_len);
                    assert_eq!(r.data, &o.data[..]);
                    assert_eq!(r.to_owned(), o);
                }
                None => {
                    assert!(o.is_none());
                    break;
                }
            }
        }
        assert_eq!(borrowed.records_read, 40);
        assert_eq!(borrowed.bytes_read, owned.bytes_read);
    }

    #[test]
    fn next_record_shorter_frame_after_longer_is_exact() {
        // The internal buffer only grows; a short record after a long one
        // must still be sliced to its own length.
        let buf = write_capture(TsPrecision::Nano, 65535, &[(b"0123456789", None), (b"ab", None)]);
        let mut r = PcapReader::new(&buf[..]).unwrap();
        assert_eq!(r.next_record().unwrap().unwrap().data, b"0123456789");
        assert_eq!(r.next_record().unwrap().unwrap().data, b"ab");
        assert!(r.next_record().unwrap().is_none());
    }

    #[test]
    fn iterator_collects_all() {
        let frames: Vec<Vec<u8>> = (0..100u8).map(|i| vec![i; (i as usize % 32) + 1]).collect();
        let refs: Vec<(&[u8], Option<u32>)> = frames.iter().map(|f| (f.as_slice(), None)).collect();
        let buf = write_capture(TsPrecision::Nano, 65535, &refs);
        let recs: Vec<_> = PcapReader::new(&buf[..]).unwrap().records().map(|r| r.unwrap()).collect();
        assert_eq!(recs.len(), 100);
        for (rec, f) in recs.iter().zip(&frames) {
            assert_eq!(&rec.data, f);
        }
    }
}
