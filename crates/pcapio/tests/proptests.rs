//! Randomized tests: capture files round-trip and the reader survives
//! fuzz, driven by a fixed `xkit::rng` stream.

use pcapio::{PcapError, PcapRecord, PcapWriter, RecordSource};
use xkit::rng::StdRng;

/// The pcap global file header, fixed by the format.
const GLOBAL_HEADER_LEN: usize = 24;

const CASES: usize = 128;

fn rng(label: u64) -> StdRng {
    StdRng::seed_from_u64(0x9CA9_10 ^ label)
}

#[derive(Debug, Clone)]
struct Rec {
    ts_nanos: u64,
    data: Vec<u8>,
    extra_wire: u16,
}

fn gen_rec(r: &mut StdRng) -> Rec {
    Rec {
        ts_nanos: r.random_range(0..u32::MAX as u64 * 1_000_000_000),
        data: (0..r.random_range(0..200usize)).map(|_| r.random::<u8>()).collect(),
        extra_wire: r.random::<u16>(),
    }
}

fn gen_recs(r: &mut StdRng, min: usize, max: usize) -> Vec<Rec> {
    (0..r.random_range(min..max)).map(|_| gen_rec(r)).collect()
}

/// The capture's records up to its end or its first error, owned, and
/// that error.
fn read(buf: &[u8]) -> (Vec<PcapRecord>, Option<PcapError>) {
    let mut source = pcapio::source::file(buf).unwrap();
    let mut records = Vec::new();
    loop {
        match source.next() {
            Ok(Some(rec)) => records.push(rec.to_owned()),
            Ok(None) => return (records, None),
            Err(e) => return (records, Some(e)),
        }
    }
}

/// Every record of a well-formed capture.
fn read_all(buf: &[u8]) -> Vec<PcapRecord> {
    let (records, error) = read(buf);
    assert!(error.is_none(), "{error:?}");
    records
}

/// Write-then-read returns every record exactly (nanosecond files).
#[test]
fn nano_round_trip() {
    let mut r = rng(1);
    for _ in 0..CASES {
        let recs = gen_recs(&mut r, 0, 40);
        let mut buf = Vec::new();
        let mut w = PcapWriter::new(&mut buf, 65_535).unwrap();
        for rec in &recs {
            let orig = (rec.data.len() + rec.extra_wire as usize) as u32;
            w.write_packet(rec.ts_nanos, &rec.data, orig).unwrap();
        }
        drop(w);
        let got = read_all(&buf);
        assert_eq!(got.len(), recs.len());
        for (g, rec) in got.iter().zip(&recs) {
            assert_eq!(g.ts_nanos, rec.ts_nanos);
            assert_eq!(&g.data, &rec.data);
            assert_eq!(g.orig_len as usize, rec.data.len() + rec.extra_wire as usize);
        }
    }
}

/// Microsecond files, written by hand in either byte order as other
/// tools write them, read back with only sub-microsecond precision lost.
#[test]
fn micro_rounds_to_microseconds() {
    let mut r = rng(2);
    for _ in 0..CASES {
        let recs = gen_recs(&mut r, 1, 20);
        let big_endian = r.random_bool(0.5);
        let u32s = |v: u32| if big_endian { v.to_be_bytes() } else { v.to_le_bytes() };
        let mut buf = Vec::new();
        buf.extend(u32s(0xA1B2_C3D4)); // the microsecond magic
        buf.extend(if big_endian { [0, 2, 0, 4] } else { [2, 0, 4, 0] }); // version 2.4
        // thiszone, sigfigs, snaplen, Ethernet
        for field in [0, 0, 65_535, 1] {
            buf.extend(u32s(field));
        }
        for rec in &recs {
            let (secs, usecs) = (rec.ts_nanos / 1_000_000_000, rec.ts_nanos % 1_000_000_000 / 1_000);
            for field in [secs as u32, usecs as u32, rec.data.len() as u32, rec.data.len() as u32] {
                buf.extend(u32s(field));
            }
            buf.extend_from_slice(&rec.data);
        }
        let got = read_all(&buf);
        assert_eq!(got.len(), recs.len());
        for (g, rec) in got.iter().zip(&recs) {
            assert_eq!(g.ts_nanos, rec.ts_nanos / 1_000 * 1_000);
            assert_eq!(&g.data, &rec.data);
        }
    }
}

/// Snaplen truncation keeps the prefix and the true wire length.
#[test]
fn snaplen_truncation() {
    let mut r = rng(3);
    for _ in 0..CASES {
        let data: Vec<u8> = (0..r.random_range(0..300usize)).map(|_| r.random::<u8>()).collect();
        let snaplen = r.random_range(1u32..128);
        let mut buf = Vec::new();
        let mut w = PcapWriter::new(&mut buf, snaplen).unwrap();
        w.write_packet(7, &data, data.len() as u32).unwrap();
        drop(w);
        let rec = &read_all(&buf)[0];
        let expect = data.len().min(snaplen as usize);
        assert_eq!(&rec.data, &data[..expect]);
        assert_eq!(rec.orig_len as usize, data.len());
    }
}

/// The reader never panics on arbitrary bytes.
#[test]
fn reader_never_panics() {
    let mut r = rng(4);
    for _ in 0..CASES {
        let bytes: Vec<u8> = (0..r.random_range(0..400usize)).map(|_| r.random::<u8>()).collect();
        if let Ok(mut source) = pcapio::source::file(&bytes[..]) {
            // Bounded: each call consumes ≥16 bytes, ends or errors.
            while let Ok(Some(_)) = source.next() {}
        }
    }
}

/// A capture truncated anywhere reads back a prefix of the records,
/// then errors or ends — never panics, never fabricates data.
#[test]
fn truncated_capture_degrades_cleanly() {
    let mut buf = Vec::new();
    let mut w = PcapWriter::new(&mut buf, 96).unwrap();
    for i in 0..20u64 {
        w.write_packet(i, &[i as u8; 32], 32).unwrap();
    }
    drop(w);
    for cut in 0..=buf.len() {
        if cut < GLOBAL_HEADER_LEN {
            assert!(pcapio::source::file(&buf[..cut]).is_err());
            continue;
        }
        let (records, error) = read(&buf[..cut]);
        for (i, rec) in (0u64..).zip(&records) {
            assert_eq!(rec.ts_nanos, i);
            assert_eq!(rec.data, vec![i as u8; 32]);
        }
        // Records are 48 bytes with their headers: only a cut between
        // two of them ends cleanly.
        let (whole, inside) = ((cut - GLOBAL_HEADER_LEN) / 48, (cut - GLOBAL_HEADER_LEN) % 48);
        assert_eq!(records.len(), whole);
        assert_eq!(error.is_some(), inside > 0, "cut at {cut}: {error:?}");
    }
}
