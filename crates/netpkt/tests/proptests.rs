//! Randomized tests: frame build/parse round trips and parser
//! robustness, driven by a fixed `xkit::rng` stream.

use netpkt::{frame, MacAddr, Packet, PktError, TcpFlags, TcpHeader, Transport};
use std::net::Ipv4Addr;
use xkit::rng::StdRng;

const CASES: usize = 256;

fn rng(label: u64) -> StdRng {
    StdRng::seed_from_u64(0x9E7_0941 ^ label)
}

fn gen_addr(r: &mut StdRng) -> Ipv4Addr {
    Ipv4Addr::from(r.random::<u32>())
}

fn gen_bytes(r: &mut StdRng, max_len: usize) -> Vec<u8> {
    (0..r.random_range(0..max_len)).map(|_| r.random::<u8>()).collect()
}

/// A UDP frame carrying `payload` in full, as the capture stores it.
fn udp(src: Ipv4Addr, dst: Ipv4Addr, sport: u16, dport: u16, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    let (src_mac, dst_mac) = (MacAddr::LOCAL, MacAddr::UPSTREAM);
    frame::udp(&mut out, src_mac, dst_mac, src, dst, sport, dport, |o| o.extend_from_slice(payload));
    out
}

/// A TCP segment carrying `payload` in full.
fn tcp(src: Ipv4Addr, dst: Ipv4Addr, header: TcpHeader<'_>, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    frame::tcp(&mut out, MacAddr::LOCAL, MacAddr::UPSTREAM, src, dst, header, payload);
    out
}

/// UDP frames round-trip: ports, addresses, payload, declared length.
#[test]
fn udp_round_trips() {
    let mut r = rng(1);
    for _ in 0..CASES {
        let (src, dst) = (gen_addr(&mut r), gen_addr(&mut r));
        let (sport, dport) = (r.random::<u16>(), r.random::<u16>());
        let payload = gen_bytes(&mut r, 256);
        let bytes = udp(src, dst, sport, dport, &payload);
        let p = Packet::parse(&bytes, bytes.len()).unwrap();
        assert_eq!(p.ip.src, src);
        assert_eq!(p.ip.dst, dst);
        assert_eq!(p.transport.src_port(), Some(sport));
        assert_eq!(p.transport.dst_port(), Some(dport));
        assert_eq!(p.payload, &payload[..]);
        assert_eq!(p.declared_payload, payload.len());
    }
}

/// Virtual UDP frames declare exactly what they claim.
#[test]
fn udp_virtual_declares() {
    let mut r = rng(2);
    for _ in 0..CASES {
        let (src, dst) = (gen_addr(&mut r), gen_addr(&mut r));
        let declared = r.random_range(0usize..60_000);
        let mut bytes = Vec::new();
        frame::udp_virtual(&mut bytes, MacAddr::LOCAL, MacAddr::UPSTREAM, src, dst, 1, 2, declared);
        let p = Packet::parse(&bytes, bytes.len() + declared).unwrap();
        assert_eq!(p.declared_payload, declared);
        assert_eq!(p.payload.len(), 0);
    }
}

/// TCP frames round-trip header fields exactly.
#[test]
fn tcp_round_trips() {
    let mut r = rng(3);
    for _ in 0..CASES {
        let (src, dst) = (gen_addr(&mut r), gen_addr(&mut r));
        let (sport, dport) = (r.random::<u16>(), r.random::<u16>());
        let (seq, ack) = (r.random::<u32>(), r.random::<u32>());
        let flags = TcpFlags::from_u8(r.random_range(0u8..64));
        let payload = gen_bytes(&mut r, 128);
        let h = TcpHeader::segment(sport, dport, seq, ack, flags);
        let bytes = tcp(src, dst, h, &payload);
        let p = Packet::parse(&bytes, bytes.len()).unwrap();
        match p.transport {
            Transport::Tcp(t) => {
                assert_eq!(t.seq, seq);
                assert_eq!(t.ack, ack);
                assert_eq!(t.flags, flags);
                assert_eq!(t.src_port, sport);
            }
            other => panic!("expected tcp, got {other:?}"),
        }
        assert_eq!(p.payload, &payload[..]);
    }
}

/// The parser never panics on arbitrary bytes.
#[test]
fn parse_never_panics() {
    let mut r = rng(4);
    for _ in 0..CASES {
        let bytes = gen_bytes(&mut r, 200);
        let _ = Packet::parse(&bytes, bytes.len().max(1));
    }
}

/// Corrupting one byte of a valid frame either still parses or errors
/// cleanly (commonly a checksum failure) — never panics.
#[test]
fn corruption_is_detected_or_tolerated() {
    let mut r = rng(5);
    for _ in 0..CASES {
        let payload = gen_bytes(&mut r, 64);
        let mut bytes = udp(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2), 1000, 2000, &payload);
        let i = r.random::<u16>() as usize % bytes.len();
        bytes[i] ^= r.random_range(1u8..=255);
        match Packet::parse(&bytes, bytes.len()) {
            Ok(_) => {}
            Err(PktError::BadChecksum { .. })
            | Err(PktError::Truncated { .. })
            | Err(PktError::NotIpv4(_))
            | Err(PktError::BadIhl(_))
            | Err(PktError::BadTotalLength(_))
            | Err(PktError::UnsupportedEtherType(_))
            | Err(PktError::UnsupportedProtocol(_))
            | Err(PktError::BadDataOffset(_)) => {}
        }
    }
}

/// Truncated captures fail cleanly at every cut point.
#[test]
fn truncation_never_panics() {
    let bytes = tcp(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2), TcpHeader::syn(1, 2, 3), b"data");
    for cut in 0..=bytes.len() {
        let _ = Packet::parse(&bytes[..cut], bytes.len());
    }
}
