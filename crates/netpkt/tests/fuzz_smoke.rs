//! Seeded fuzz smoke test: arbitrary bytes through the frame parser.
//!
//! The parser's contract is total: any input yields `Ok` or a typed
//! `Err`, never a panic. Pure random buffers mostly die at the ethertype
//! gate, so a second pass mutates valid frames to reach the deeper IPv4
//! and transport paths.

use netpkt::{frame, MacAddr, Packet, TcpHeader};
use std::net::Ipv4Addr;
use xkit::rng::StdRng;

const A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const B: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 7);

/// A UDP frame from A to B carrying `payload`.
fn udp(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    frame::udp(&mut out, MacAddr::LOCAL, MacAddr::UPSTREAM, A, B, 49152, 53, |o| o.extend_from_slice(payload));
    out
}

#[test]
fn random_buffers_never_panic() {
    let mut rng = StdRng::seed_from_u64(0xFACE);
    for _ in 0..10_000 {
        let len = rng.random_range(0..120usize);
        let buf: Vec<u8> = (0..len).map(|_| rng.random::<u8>()).collect();
        let orig_len = len + rng.random_range(0..64usize);
        if let Ok(pkt) = Packet::parse(&buf, orig_len) {
            // Whatever parsed must be internally consistent.
            assert!(pkt.payload.len() <= buf.len());
            assert!(pkt.declared_payload >= pkt.payload.len());
        }
    }
}

#[test]
fn mutated_valid_frames_never_panic() {
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    let mut tcp = Vec::new();
    frame::tcp(&mut tcp, MacAddr::LOCAL, MacAddr::UPSTREAM, A, B, TcpHeader::syn(50000, 443, 9), b"hi");
    for base in [&udp(b"payload bytes"), &tcp] {
        for _ in 0..5_000 {
            let mut buf = base.to_vec();
            for _ in 0..rng.random_range(1..6usize) {
                let i = rng.random_range(0..buf.len());
                buf[i] = rng.random::<u8>();
            }
            // A random cut on top of the mutations, half the time.
            if rng.random_bool(0.5) {
                buf.truncate(rng.random_range(0..buf.len() + 1));
            }
            let _ = Packet::parse(&buf, base.len());
        }
    }
}

#[test]
fn ok_parses_are_deterministic() {
    // Parsing is a pure function of the bytes: two calls agree exactly.
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let base = udp(b"abcd");
    for _ in 0..2_000 {
        let mut buf = base.clone();
        let i = rng.random_range(0..buf.len());
        buf[i] = rng.random::<u8>();
        let first = Packet::parse(&buf, base.len());
        let second = Packet::parse(&buf, base.len());
        assert_eq!(format!("{first:?}"), format!("{second:?}"));
    }
}
