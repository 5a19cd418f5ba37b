//! Randomized tests for the DNS wire codec, driven by a fixed
//! `xkit::rng` stream so every run exercises the same cases.

use dns_wire::{
    Compressor, Flags, Message, MessageView, Name, NameBuf, RData, Rcode, Record, RrClass, RrType,
    SoaData, SrvData,
};
use std::collections::BTreeMap;
use std::net::{Ipv4Addr, Ipv6Addr};
use xkit::rng::StdRng;

const CASES: usize = 256;

fn rng(label: u64) -> StdRng {
    StdRng::seed_from_u64(0xD_1135 ^ label)
}

const LABEL_FIRST: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789_";
const LABEL_REST: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789_-";

fn gen_label(r: &mut StdRng) -> String {
    let len = r.random_range(1..=21usize);
    let mut s = String::with_capacity(len);
    s.push(*r.choose(LABEL_FIRST).unwrap() as char);
    for _ in 1..len {
        s.push(*r.choose(LABEL_REST).unwrap() as char);
    }
    s
}

fn gen_name(r: &mut StdRng) -> Name {
    let labels: Vec<String> = (0..r.random_range(0..6usize)).map(|_| gen_label(r)).collect();
    Name::parse(&labels.join(".")).unwrap()
}

fn gen_bytes(r: &mut StdRng, max_len: usize) -> Vec<u8> {
    (0..r.random_range(0..max_len)).map(|_| r.random::<u8>()).collect()
}

fn gen_rdata(r: &mut StdRng) -> RData {
    match r.random_range(0..10u32) {
        0 => RData::A(Ipv4Addr::from(r.random::<u32>())),
        1 => {
            let mut o = [0u8; 16];
            o.iter_mut().for_each(|b| *b = r.random::<u8>());
            RData::Aaaa(Ipv6Addr::from(o))
        }
        2 => RData::Cname(gen_name(r)),
        3 => RData::Ns(gen_name(r)),
        4 => RData::Ptr(gen_name(r)),
        5 => RData::Mx(r.random::<u16>(), gen_name(r)),
        6 => RData::Txt((0..r.random_range(0..4usize)).map(|_| gen_bytes(r, 80)).collect()),
        7 => RData::Soa(SoaData {
            mname: gen_name(r),
            rname: gen_name(r),
            serial: r.random::<u32>(),
            refresh: r.random::<u32>(),
            retry: r.random::<u32>(),
            expire: r.random::<u32>(),
            minimum: r.random::<u32>(),
        }),
        8 => RData::Srv(SrvData {
            priority: r.random::<u16>(),
            weight: r.random::<u16>(),
            port: r.random::<u16>(),
            target: gen_name(r),
        }),
        _ => RData::Unknown(4242, gen_bytes(r, 64)),
    }
}

fn gen_record(r: &mut StdRng) -> Record {
    Record { name: gen_name(r), class: RrClass::In, ttl: r.random::<u32>(), rdata: gen_rdata(r) }
}

fn gen_message(r: &mut StdRng) -> Message {
    Message {
        id: r.random::<u16>(),
        flags: Flags::from_u16(r.random::<u16>() & !0x0070), // clear reserved Z bits
        questions: (0..r.random_range(0..3usize))
            .map(|_| dns_wire::Question::new(gen_name(r), RrType::A))
            .collect(),
        answers: (0..r.random_range(0..4usize)).map(|_| gen_record(r)).collect(),
        authorities: (0..r.random_range(0..3usize)).map(|_| gen_record(r)).collect(),
        additionals: (0..r.random_range(0..3usize)).map(|_| gen_record(r)).collect(),
    }
}

/// encode ∘ decode is the identity on well-formed messages.
#[test]
fn message_round_trips() {
    let mut r = rng(1);
    for i in 0..CASES {
        let m = gen_message(&mut r);
        let wire = m.encode();
        let back = Message::decode(&wire).unwrap();
        assert_eq!(back, m, "case {i}");
    }
}

/// The decoder never panics on arbitrary bytes.
#[test]
fn decode_never_panics() {
    let mut r = rng(2);
    for _ in 0..CASES {
        let bytes = gen_bytes(&mut r, 300);
        let _ = Message::decode(&bytes);
    }
}

/// Decoding a corrupted valid message never panics (and often errors).
#[test]
fn corrupted_message_never_panics() {
    let mut r = rng(3);
    for _ in 0..CASES {
        let m = gen_message(&mut r);
        let mut wire = m.encode();
        if wire.is_empty() {
            continue;
        }
        for _ in 0..r.random_range(1..8usize) {
            let i = r.random::<u16>() as usize % wire.len();
            wire[i] ^= r.random::<u8>();
        }
        let _ = Message::decode(&wire);
    }
}

/// Name parse/display round trip; display is lower-case.
#[test]
fn name_round_trips() {
    let mut r = rng(4);
    for _ in 0..CASES {
        let n = gen_name(&mut r);
        let s = n.to_string();
        let reparsed = Name::parse(&s).unwrap();
        assert_eq!(reparsed, n);
        assert_eq!(s.to_ascii_lowercase(), s);
    }
}

/// Compression never changes decoded content and never grows the
/// message beyond its uncompressed size.
#[test]
fn compression_is_lossless_and_never_larger() {
    let mut r = rng(5);
    for _ in 0..CASES {
        let names: Vec<Name> = (0..r.random_range(1..8usize)).map(|_| gen_name(&mut r)).collect();
        let mut compressed = Vec::new();
        let mut comp = Compressor::default();
        let mut uncompressed = Vec::new();
        for n in &names {
            n.encode_compressed(&mut compressed, &mut comp);
            n.encode_uncompressed(&mut uncompressed);
        }
        assert!(compressed.len() <= uncompressed.len());
        let mut pos = 0;
        for n in &names {
            let d = Name::decode(&compressed, &mut pos).unwrap();
            assert_eq!(&d, n);
        }
        assert_eq!(pos, compressed.len());
    }
}

/// The deepest name the 255-octet limit admits: 127 one-byte labels.
/// Its second spelling is one pointer, and it decodes back.
#[test]
fn deepest_name_compresses_to_one_pointer() {
    let deepest = Name::parse(&["a"; 127].join(".")).unwrap();
    assert_eq!(deepest.wire_len(), 255);
    assert!(Name::parse(&["a"; 128].join(".")).is_err());
    let mut buf = Vec::new();
    let mut comp = Compressor::default();
    deepest.encode_compressed(&mut buf, &mut comp);
    assert_eq!(buf.len(), 255);
    deepest.encode_compressed(&mut buf, &mut comp);
    assert_eq!(buf.len(), 257);
    // A sibling shares all but its first label.
    let sibling = Name::parse(&format!("b.{}", ["a"; 126].join("."))).unwrap();
    sibling.encode_compressed(&mut buf, &mut comp);
    assert_eq!(buf.len(), 257 + 2 + 2);
    let mut pos = 0;
    for n in [&deepest, &deepest, &sibling] {
        assert_eq!(&Name::decode(&buf, &mut pos).unwrap(), n);
    }
    assert_eq!(pos, buf.len());
}

/// Names first written at or past offset 0x4000 cannot be pointed at
/// (a pointer holds 14 bits): they are spelled out every time, while
/// suffixes registered below the limit keep compressing.
#[test]
fn names_past_the_pointer_limit_are_spelled_out() {
    let owner = Name::parse("big.example.com").unwrap();
    let late = Name::parse("late.example.org").unwrap();
    let mut m = Message {
        flags: Flags::response(Rcode::NoError),
        ..Message::query(1, owner.clone(), RrType::Txt)
    };
    // 70 records of ~250 bytes carry the message past 0x4000.
    for _ in 0..70 {
        m.answers.push(Record {
            name: owner.clone(),
            class: RrClass::In,
            ttl: 1,
            rdata: RData::Txt(vec![vec![b'x'; 240]]),
        });
    }
    for target in [&late, &owner] {
        m.additionals.push(Record {
            name: late.clone(),
            class: RrClass::In,
            ttl: 1,
            rdata: RData::Cname(target.clone()),
        });
    }
    let wire = m.encode();
    assert!(wire.len() > 0x4000 + 2 * late.wire_len());
    assert_eq!(Message::decode(&wire).unwrap(), m);
    // `late` is written in full three times; `owner` is a pointer each time.
    let spelled = wire.windows(5).filter(|w| w == b"\x04late").count();
    assert_eq!(spelled, 3);
    assert_eq!(wire.windows(4).filter(|w| w == b"\x03big").count(), 1);
}

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// 20 000 seeded corruptions of `gen_message` output, then every prefix
/// truncation of 200 valid messages.
fn hostile_corpus() -> Vec<Vec<u8>> {
    const POKES: &[u8] = &[0x00, 0x3F, 0x40, 0x80, 0xC0, 0xC1, 0xFF];
    let mut r = rng(7);
    let mut out = Vec::new();
    for _ in 0..20_000 {
        let mut wire = gen_message(&mut r).encode();
        for _ in 0..r.random_range(1..8usize) {
            let i = r.random_range(0..wire.len());
            if r.random_bool(0.5) {
                wire[i] ^= r.random::<u8>();
            } else {
                wire[i] = *r.choose(POKES).unwrap();
            }
        }
        out.push(wire);
    }
    let mut r = rng(8);
    for _ in 0..200 {
        let wire = gen_message(&mut r).encode();
        out.extend((0..wire.len()).map(|cut| wire[..cut].to_vec()));
    }
    out
}

/// The presentation form a monitor renders a name to.
fn shown(buf: &NameBuf) -> String {
    let mut out = String::new();
    buf.write_presentation(&mut out);
    out
}

/// What the view hands a monitor equals what the owned decode holds.
fn assert_view_agrees(view: &MessageView<'_>, owned: &Message) {
    assert_eq!((view.id(), view.flags()), (owned.id, owned.flags));
    let mut buf = NameBuf::new();
    match (view.question(), owned.questions.first()) {
        (None, None) => {}
        (Some(v), Some(o)) => {
            v.name.read_into(&mut buf);
            assert_eq!(shown(&buf), o.name.to_string());
            assert_eq!((v.rtype, v.rclass), (o.rtype, o.rclass));
        }
        _ => panic!("first question differs"),
    }
    assert_eq!(view.answers().count(), owned.answers.len());
    for (v, o) in view.answers().zip(&owned.answers) {
        let owned_a = match o.rdata {
            RData::A(a) => Some(a),
            _ => None,
        };
        assert_eq!((v.ttl, v.rtype, v.class, v.a()), (o.ttl, o.rtype(), o.class, owned_a));
        let target = v.cname().map(|n| {
            n.read_into(&mut buf);
            shown(&buf)
        });
        let owned_target = match &o.rdata {
            RData::Cname(n) => Some(n.to_string()),
            _ => None,
        };
        assert_eq!(target, owned_target);
    }
}

/// The decoder's verdict on hostile input, recorded on the commit before
/// the borrowed view existed: how many inputs decode, how many fail with
/// each error — payload included — and a digest over every outcome in
/// order (an accepted message contributes its re-encoding). The view must
/// reach the same verdict on every input.
#[test]
fn decode_outcomes_match_the_recorded_parent() {
    let corpus = hostile_corpus();
    assert_eq!(corpus.len(), 85_464);
    let mut outcomes: BTreeMap<String, usize> = BTreeMap::new();
    let mut digest = FNV_OFFSET;
    for buf in &corpus {
        let owned = Message::decode(buf);
        let view = MessageView::parse(buf);
        assert_eq!(view.as_ref().err(), owned.as_ref().err());
        let outcome = match &owned {
            Ok(m) => {
                assert_view_agrees(view.as_ref().unwrap(), m);
                fnv1a(&mut digest, b"Ok");
                fnv1a(&mut digest, &m.encode());
                "Ok".to_string()
            }
            Err(e) => {
                let e = format!("{e:?}");
                fnv1a(&mut digest, e.as_bytes());
                e
            }
        };
        *outcomes.entry(outcome).or_default() += 1;
    }
    let count = |prefix: &str| -> usize {
        outcomes.iter().filter(|(k, _)| k.starts_with(prefix)).map(|(_, n)| n).sum()
    };
    let section = |s: &str| count(&format!("CountMismatch {{ section: {s:?} }}"));
    let summary = format!("{outcomes:#?}");
    assert_eq!(count("Ok"), 11_908, "{summary}");
    assert_eq!(count("Truncated { context: \"header\" }"), 2_400, "{summary}");
    assert_eq!(count("Truncated"), 2_400, "{summary}");
    assert_eq!(
        [section("question"), section("answer"), section("authority"), section("additional")],
        [8_408, 25_841, 16_748, 16_378],
        "{summary}"
    );
    assert_eq!(count("BadPointer"), 1_172, "{summary}");
    assert_eq!(count("ReservedLabelType"), 2_253, "{summary}");
    assert_eq!(count("RdataLengthMismatch"), 352, "{summary}");
    assert_eq!(count("NameTooLong"), 4, "{summary}");
    assert_eq!(outcomes.len(), 979, "distinct outcomes, payloads included");
    assert_eq!(outcomes.values().sum::<usize>(), corpus.len());
    assert_eq!(digest, 0x3410_6532_c314_ceb0, "{summary}");
}

/// Compression decisions did not move: the encoder's bytes over 2 000
/// seeded messages hash to what the `HashMap<Name, usize>` compressor
/// produced.
#[test]
fn encode_bytes_match_the_recorded_parent() {
    let mut digest = FNV_OFFSET;
    for seed in 0..2_000u64 {
        fnv1a(&mut digest, &gen_message(&mut rng(1_000 + seed)).encode());
    }
    assert_eq!(digest, 0x4b6e_7b5f_ba90_45e1);
}

/// TCP framing round trips over concatenated messages.
#[test]
fn tcp_framing_round_trips() {
    let mut r = rng(6);
    for _ in 0..CASES {
        let payloads: Vec<Vec<u8>> =
            (0..r.random_range(1..5usize)).map(|_| gen_bytes(&mut r, 128)).collect();
        let mut stream = Vec::new();
        for p in &payloads {
            stream.extend(dns_wire::tcp_frame::frame(p));
        }
        let got = dns_wire::tcp_frame::deframe_all(&stream).unwrap();
        assert_eq!(got.len(), payloads.len());
        for (g, p) in got.iter().zip(&payloads) {
            assert_eq!(g, p);
        }
    }
}
