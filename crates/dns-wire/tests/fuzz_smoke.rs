//! Seeded fuzz smoke test: arbitrary bytes through the decoder the
//! monitor runs.
//!
//! The view's contract is total (`Ok` or typed `Err`, never a panic),
//! and everything the monitor reads off an accepted message — the first
//! question's name, each answer's address and alias target — must read
//! without a panic too. The owned decode must reach the same verdict,
//! error for error.

use dns_wire::{Compressor, Flags, Message, MessageView, MessageWriter, NameBuf, Rcode, RrType};
use std::net::Ipv4Addr;
use xkit::rng::StdRng;

/// Parse as the monitor does, and assert the owned decode agrees.
fn check(buf: &[u8]) {
    let view = MessageView::parse(buf);
    assert_eq!(view.as_ref().err(), Message::decode(buf).as_ref().err(), "the view and the owned decode disagree");
    let Ok(view) = view else { return };
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
        let name: NameBuf = "fuzz.example.com".parse().unwrap();
        let (mut out, mut comp) = (Vec::new(), Compressor::default());
        let mut w = MessageWriter::new(&mut out, &mut comp, 42, Flags::response(Rcode::NoError));
        w.question(&name, RrType::A);
        w.a(&name, 300, Ipv4Addr::new(192, 0, 2, 1));
        w.finish();
        out
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
