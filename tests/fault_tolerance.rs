//! Adversarial corpus: hand-crafted hostile bytes through every parse
//! path. Each case must come back as a typed `Err` — never a panic.

use dnsctx::dns_wire::{Compressor, Flags, Message, MessageView, MessageWriter, NameBuf, Rcode, RrType, WireError};
use dnsctx::netpkt::{frame, MacAddr, Packet, PktError, TcpHeader};
use std::net::Ipv4Addr;

const CLIENT: Ipv4Addr = Ipv4Addr::new(10, 9, 0, 2);
const RESOLVER: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 53);

/// Message `id` asking for `name`, with `addr` as its one answer if given.
fn dns_message(id: u16, name: &str, addr: Option<Ipv4Addr>) -> Vec<u8> {
    let name: NameBuf = name.parse().unwrap();
    let flags = if addr.is_some() { Flags::response(Rcode::NoError) } else { Flags::query() };
    let (mut out, mut comp) = (Vec::new(), Compressor::default());
    let mut w = MessageWriter::new(&mut out, &mut comp, id, flags);
    w.question(&name, RrType::A);
    if let Some(addr) = addr {
        w.a(&name, 300, addr);
    }
    w.finish();
    out
}

fn dns_query_bytes() -> Vec<u8> {
    dns_message(7, "www.example.com", None)
}

fn udp_frame_bytes() -> Vec<u8> {
    let mut out = Vec::new();
    frame::udp(&mut out, MacAddr::LOCAL, MacAddr::UPSTREAM, CLIENT, RESOLVER, 54321, 53, |payload| {
        payload.extend(dns_query_bytes())
    });
    out
}

fn tcp_frame_bytes() -> Vec<u8> {
    let mut out = Vec::new();
    let syn = TcpHeader::syn(49152, 443, 100);
    frame::tcp(&mut out, MacAddr::LOCAL, MacAddr::UPSTREAM, CLIENT, RESOLVER, syn, b"hello");
    out
}

/// The monitor's verdict on a DNS payload: the view, then its first
/// question read into a `NameBuf` and every answer's address and alias
/// target. The owned decode must reach the same verdict.
fn parse(msg: &[u8]) -> Result<(), WireError> {
    let view = MessageView::parse(msg);
    assert_eq!(view.as_ref().err(), Message::decode(msg).as_ref().err(), "the view and the owned decode disagree");
    let view = view?;
    let mut name = NameBuf::new();
    if let Some(q) = view.question() {
        q.name.read_into(&mut name);
    }
    for answer in view.answers() {
        let _ = answer.a();
        if let Some(target) = answer.cname() {
            target.read_into(&mut name);
        }
    }
    Ok(())
}

/// A 12-byte DNS header claiming the given section counts.
fn dns_header(qd: u16, an: u16) -> Vec<u8> {
    let mut h = vec![0u8; 12];
    h[0..2].copy_from_slice(&7u16.to_be_bytes());
    h[4..6].copy_from_slice(&qd.to_be_bytes());
    h[6..8].copy_from_slice(&an.to_be_bytes());
    h
}

#[test]
fn truncated_ethernet_header_is_err() {
    let full = udp_frame_bytes();
    for cut in 0..14 {
        let r = Packet::parse(&full[..cut], full.len());
        assert!(
            matches!(r, Err(PktError::Truncated { layer: "ethernet", .. })),
            "cut at {cut}: {r:?}"
        );
    }
}

#[test]
fn truncated_ipv4_header_is_err() {
    let full = udp_frame_bytes();
    for cut in 14..34 {
        let r = Packet::parse(&full[..cut], full.len());
        assert!(r.is_err(), "cut at {cut} must not parse: {r:?}");
    }
}

#[test]
fn truncated_transport_headers_are_err() {
    // UDP header needs 8 bytes after 34 bytes of eth+ip.
    let udp = udp_frame_bytes();
    for cut in 34..42 {
        let r = Packet::parse(&udp[..cut], udp.len());
        assert!(r.is_err(), "udp cut at {cut} must not parse: {r:?}");
    }
    // TCP header needs 20.
    let tcp = tcp_frame_bytes();
    for cut in 34..54 {
        let r = Packet::parse(&tcp[..cut], tcp.len());
        assert!(r.is_err(), "tcp cut at {cut} must not parse: {r:?}");
    }
}

#[test]
fn every_prefix_of_valid_frames_survives_parsing() {
    // The blanket guarantee behind the corpus above: no prefix length of
    // either frame panics, whatever the verdict.
    for full in [udp_frame_bytes(), tcp_frame_bytes()] {
        for cut in 0..=full.len() {
            let _ = Packet::parse(&full[..cut], full.len());
        }
    }
}

#[test]
fn self_pointing_compression_pointer_is_err() {
    // Owner name is a pointer to its own offset (12): no strictly-earlier
    // target, so the decoder must reject rather than chase it forever.
    // (Answer-section errors keep their variant; question-section errors
    // are flattened to CountMismatch, checked separately below.)
    let mut msg = dns_header(0, 1);
    msg.extend_from_slice(&[0xC0, 12]); // pointer -> offset 12 (itself)
    assert!(matches!(parse(&msg), Err(WireError::BadPointer { target: 12 })));

    // The same inside RDATA: a CNAME whose target points at itself (23).
    let mut msg = dns_header(0, 1);
    msg.extend_from_slice(&[0, 0, 5, 0, 1, 0, 0, 0, 60, 0, 2]); // root owner, CNAME, IN, ttl 60, RDLENGTH 2
    msg.extend_from_slice(&[0xC0, 23]);
    assert!(matches!(parse(&msg), Err(WireError::BadPointer { target: 23 })));
}

#[test]
fn forward_and_mutually_looping_pointers_are_err() {
    // Pointer at 12 targets offset 14, which holds a pointer back to 12:
    // the forward hop alone already violates strictly-decreasing targets.
    let mut msg = dns_header(0, 1);
    msg.extend_from_slice(&[0xC0, 14]);
    msg.extend_from_slice(&[0xC0, 12]);
    assert!(matches!(parse(&msg), Err(WireError::BadPointer { target: 14 })));
}

#[test]
fn out_of_bounds_pointer_is_err() {
    let mut msg = dns_header(0, 1);
    msg.extend_from_slice(&[0xC0, 0xFF]); // far past the end of the message
    assert!(matches!(parse(&msg), Err(WireError::BadPointer { target: 255 })));
}

#[test]
fn reserved_label_types_are_err() {
    for bad in [0x40u8, 0x80] {
        let mut msg = dns_header(0, 1);
        msg.extend_from_slice(&[bad, b'x', 0]);
        assert!(
            matches!(parse(&msg), Err(WireError::ReservedLabelType(b)) if b == bad),
            "label type {bad:#04x}"
        );
    }
}

#[test]
fn hostile_question_names_are_err() {
    // The question section flattens any malformed entry to CountMismatch;
    // the point here is only that hostile names never parse or panic.
    for tail in [&[0xC0u8, 12][..], &[0xC0, 0xFF], &[0x40, b'x', 0]] {
        let mut msg = dns_header(1, 0);
        msg.extend_from_slice(tail);
        msg.extend_from_slice(&[0, 1, 0, 1]);
        assert!(matches!(
            parse(&msg),
            Err(WireError::CountMismatch { section: "question" })
        ));
    }
}

#[test]
fn zero_length_rdata_for_address_record_is_err() {
    let mut msg = dns_header(0, 1);
    msg.extend_from_slice(&[0]); // root owner name
    msg.extend_from_slice(&1u16.to_be_bytes()); // TYPE A
    msg.extend_from_slice(&1u16.to_be_bytes()); // CLASS IN
    msg.extend_from_slice(&300u32.to_be_bytes()); // TTL
    msg.extend_from_slice(&0u16.to_be_bytes()); // RDLENGTH 0
    assert!(matches!(
        parse(&msg),
        Err(WireError::RdataLengthMismatch { declared: 0, actual: 4 })
    ));
}

#[test]
fn oversized_rdata_is_err() {
    // RDLENGTH promises far more bytes than the message holds.
    let mut msg = dns_header(0, 1);
    msg.extend_from_slice(&[0]);
    msg.extend_from_slice(&16u16.to_be_bytes()); // TYPE TXT
    msg.extend_from_slice(&1u16.to_be_bytes());
    msg.extend_from_slice(&300u32.to_be_bytes());
    msg.extend_from_slice(&u16::MAX.to_be_bytes()); // RDLENGTH 65535
    msg.extend_from_slice(&[4]); // one stray byte of "rdata"
    assert!(parse(&msg).is_err());
}

#[test]
fn section_counts_exceeding_message_are_err() {
    let mut msg = dns_header(9, 0); // promises 9 questions
    msg.extend_from_slice(&[0, 0, 1, 0, 1]); // delivers 1
    assert!(matches!(parse(&msg), Err(WireError::CountMismatch { .. })));
}

#[test]
fn every_cut_of_a_valid_message_is_err_not_panic() {
    let full = dns_message(3, "cut.example.com", Some(Ipv4Addr::new(192, 0, 2, 1)));
    assert!(parse(&full).is_ok());
    for cut in 0..full.len() {
        assert!(parse(&full[..cut]).is_err(), "cut at {cut} must be Err");
    }
}
