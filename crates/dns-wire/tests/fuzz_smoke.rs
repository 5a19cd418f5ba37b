//! Seeded fuzz smoke test: arbitrary bytes through the message decoder.
//!
//! The decoder's contract is total (`Ok` or typed `Err`, never a panic)
//! and every accepted message must survive an encode → decode round trip
//! unchanged — otherwise the monitor and the simulator would disagree
//! about what was on the wire.

use dns_wire::{tcp_frame, Flags, Message, Name, RData, Rcode, Record, RrClass, RrType};
use std::net::Ipv4Addr;
use xkit::rng::StdRng;

/// Decode, and if accepted, assert the round trip is lossless.
fn check(buf: &[u8]) {
    if let Ok(msg) = Message::decode(buf) {
        let enc = msg.encode();
        let back = Message::decode(&enc).expect("re-encoded message must decode");
        assert_eq!(back, msg, "encode/decode round trip changed the message");
    }
}

#[test]
fn random_buffers_never_panic() {
    let mut rng = StdRng::seed_from_u64(0xD15);
    for _ in 0..10_000 {
        let len = rng.random_range(0..96usize);
        let buf: Vec<u8> = (0..len).map(|_| rng.random::<u8>()).collect();
        check(&buf);
    }
}

#[test]
fn mutated_valid_messages_never_panic() {
    let mut rng = StdRng::seed_from_u64(0xC0DE);
    let base = {
        let name = Name::parse("fuzz.example.com").unwrap();
        Message {
            flags: Flags::response(Rcode::NoError),
            answers: vec![Record {
                name: name.clone(),
                class: RrClass::In,
                ttl: 300,
                rdata: RData::A(Ipv4Addr::new(192, 0, 2, 1)),
            }],
            ..Message::query(42, name, RrType::A)
        }
        .encode()
    };
    for _ in 0..10_000 {
        let mut buf = base.clone();
        for _ in 0..rng.random_range(1..5usize) {
            let i = rng.random_range(0..buf.len());
            buf[i] = rng.random::<u8>();
        }
        if rng.random_bool(0.3) {
            buf.truncate(rng.random_range(0..buf.len() + 1));
        }
        check(&buf);
    }
}

#[test]
fn random_tcp_streams_never_panic() {
    let mut rng = StdRng::seed_from_u64(0x7C9);
    for _ in 0..5_000 {
        let len = rng.random_range(0..64usize);
        let buf: Vec<u8> = (0..len).map(|_| rng.random::<u8>()).collect();
        if let Ok(msgs) = tcp_frame::deframe_all(&buf) {
            for m in msgs {
                check(m);
            }
        }
        let mut d = tcp_frame::Deframer::new();
        for chunk in buf.chunks(7) {
            for m in d.push(chunk) {
                check(&m);
            }
        }
    }
}
