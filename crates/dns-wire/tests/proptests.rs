//! Randomized tests for the DNS wire codec, driven by a fixed
//! `xkit::rng` stream so every run exercises the same cases. Messages
//! are written with `MessageWriter` and read back with `MessageView`, the
//! two halves the simulator and the monitor run.

use dns_wire::{
    Compressor, Flags, Message, MessageView, MessageWriter, NameBuf, Opcode, RData, Rcode, RrClass, RrType,
    WireError,
};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;
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

/// A presentation name of up to five labels; the root is `""`.
fn gen_name(r: &mut StdRng) -> String {
    let labels: Vec<String> = (0..r.random_range(0..6usize)).map(|_| gen_label(r)).collect();
    labels.join(".")
}

fn gen_bytes(r: &mut StdRng, max_len: usize) -> Vec<u8> {
    (0..r.random_range(0..max_len)).map(|_| r.random::<u8>()).collect()
}

fn name(s: &str) -> NameBuf {
    s.parse().unwrap()
}

/// The presentation form a monitor renders a name to.
fn shown(buf: &NameBuf) -> String {
    let mut out = String::new();
    buf.write_presentation(&mut out);
    out
}

/// One answer record, as the writer takes it.
enum Answer {
    A { owner: String, ttl: u32, addr: Ipv4Addr },
    Cname { owner: String, ttl: u32, target: String },
}

/// The SOA of a negative response, as the writer takes it.
struct Soa {
    zone: String,
    ttl: u32,
    mname: String,
    rname: String,
    counters: [u32; 5],
}

/// A message as the simulator writes one: questions, A and CNAME
/// answers, SOA authorities.
struct Spec {
    id: u16,
    flags: Flags,
    questions: Vec<String>,
    answers: Vec<Answer>,
    authorities: Vec<Soa>,
}

/// Flags set field by field from one random header word, its reserved Z
/// bits left clear. Opcode and rcode are `Other` only for the codes that
/// have no named variant, as the decoder reads them back.
fn gen_flags(r: &mut StdRng) -> Flags {
    let bits = r.random::<u16>();
    let bit = |i: u32| bits & (1 << i) != 0;
    let opcode = match (bits >> 11) as u8 & 0x0F {
        0 => Opcode::Query,
        1 => Opcode::IQuery,
        2 => Opcode::Status,
        4 => Opcode::Notify,
        5 => Opcode::Update,
        other => Opcode::Other(other),
    };
    let rcode = match bits as u8 & 0x0F {
        0 => Rcode::NoError,
        1 => Rcode::FormErr,
        2 => Rcode::ServFail,
        3 => Rcode::NxDomain,
        4 => Rcode::NotImp,
        5 => Rcode::Refused,
        other => Rcode::Other(other),
    };
    Flags { qr: bit(15), opcode, aa: bit(10), tc: bit(9), rd: bit(8), ra: bit(7), rcode }
}

fn gen_message(r: &mut StdRng) -> Spec {
    Spec {
        id: r.random::<u16>(),
        flags: gen_flags(r),
        questions: (0..r.random_range(0..3usize)).map(|_| gen_name(r)).collect(),
        answers: (0..r.random_range(0..4usize))
            .map(|_| {
                let is_a = r.random_bool(0.5);
                let (owner, ttl) = (gen_name(r), r.random::<u32>());
                match is_a {
                    true => Answer::A { owner, ttl, addr: Ipv4Addr::from(r.random::<u32>()) },
                    false => Answer::Cname { owner, ttl, target: gen_name(r) },
                }
            })
            .collect(),
        authorities: (0..r.random_range(0..3usize))
            .map(|_| Soa {
                zone: gen_name(r),
                ttl: r.random::<u32>(),
                mname: gen_name(r),
                rname: gen_name(r),
                counters: [(); 5].map(|_| r.random::<u32>()),
            })
            .collect(),
    }
}

/// The message's bytes, from the writer.
fn write(m: &Spec) -> Vec<u8> {
    let (mut out, mut comp) = (Vec::new(), Compressor::default());
    let mut w = MessageWriter::new(&mut out, &mut comp, m.id, m.flags);
    for q in &m.questions {
        w.question(&name(q), RrType::A);
    }
    for a in &m.answers {
        match a {
            Answer::A { owner, ttl, addr } => w.a(&name(owner), *ttl, *addr),
            Answer::Cname { owner, ttl, target } => w.cname(&name(owner), *ttl, &name(target)),
        }
    }
    for s in &m.authorities {
        w.soa(&name(&s.zone), s.ttl, &name(&s.mname), &name(&s.rname), s.counters);
    }
    w.finish();
    out
}

/// One answer as a monitor reads it: ttl, type code, class, the address of an
/// A record and the target of a CNAME.
type ReadAnswer = (u32, u16, RrClass, Option<Ipv4Addr>, Option<String>);

/// What a monitor reads off a message: id, flags, the first question,
/// every answer.
type Read = (u16, Flags, Option<(String, RrType, RrClass)>, Vec<ReadAnswer>);

fn read(view: &MessageView<'_>) -> Read {
    let mut buf = NameBuf::new();
    let mut text = |n: dns_wire::NameRef<'_>| {
        n.read_into(&mut buf);
        shown(&buf)
    };
    let question = view.question().map(|q| (text(q.name), q.rtype, q.rclass));
    let answers =
        view.answers().map(|r| (r.ttl, r.rtype.to_u16(), r.class, r.a(), r.cname().map(&mut text))).collect();
    (view.id(), view.flags(), question, answers)
}

/// What the view must read off the message the writer wrote from `m`.
fn expected(m: &Spec) -> Read {
    let text = |s: &str| shown(&name(s));
    let question = m.questions.first().map(|q| (text(q), RrType::A, RrClass::In));
    let answers = m
        .answers
        .iter()
        .map(|a| match a {
            Answer::A { ttl, addr, .. } => (*ttl, 1, RrClass::In, Some(*addr), None),
            Answer::Cname { ttl, target, .. } => (*ttl, 5, RrClass::In, None, Some(text(target))),
        })
        .collect();
    (m.id, m.flags, question, answers)
}

/// The type code an owned record's data carries.
fn rtype(data: &RData) -> u16 {
    let known = match data {
        RData::A(_) => RrType::A,
        RData::Aaaa(_) => RrType::Aaaa,
        RData::Cname(_) => RrType::Cname,
        RData::Ns(_) => RrType::Ns,
        RData::Ptr(_) => RrType::Ptr,
        RData::Mx(..) => RrType::Mx,
        RData::Txt(_) => RrType::Txt,
        RData::Soa(_) => RrType::Soa,
        RData::Srv(_) => RrType::Srv,
        RData::Opt(_) => RrType::Opt,
        RData::Unknown(code, _) => return *code,
    };
    known.to_u16()
}

/// What the owned decode holds, in the shape `read` returns.
fn owned_read(m: &Message) -> Read {
    let question = m.questions.first().map(|q| (q.name.to_string(), q.rtype, q.rclass));
    let answers = m
        .answers
        .iter()
        .map(|r| {
            let (a, target) = match &r.rdata {
                RData::A(a) => (Some(*a), None),
                RData::Cname(n) => (None, Some(n.to_string())),
                _ => (None, None),
            };
            (r.ttl, rtype(&r.rdata), r.class, a, target)
        })
        .collect();
    (m.id, m.flags, question, answers)
}

/// The monitor's verdict on `buf` — the view, then everything it reads —
/// which the owned decode must share, error for error.
fn verdict(buf: &[u8]) -> Result<Read, WireError> {
    let owned = Message::decode(buf);
    let view = MessageView::parse(buf);
    assert_eq!(view.as_ref().err(), owned.as_ref().err());
    let got = read(&view?);
    assert_eq!(got, owned_read(&owned.unwrap()), "what the view reads differs from the owned decode");
    Ok(got)
}

/// writer ∘ view reads back every field written.
#[test]
fn message_round_trips() {
    let mut r = rng(1);
    for i in 0..CASES {
        let m = gen_message(&mut r);
        assert_eq!(verdict(&write(&m)).unwrap(), expected(&m), "case {i}");
    }
}

/// The view never panics on arbitrary bytes.
#[test]
fn decode_never_panics() {
    let mut r = rng(2);
    for _ in 0..CASES {
        let _ = verdict(&gen_bytes(&mut r, 300));
    }
}

/// Reading a corrupted valid message never panics (and often errors).
#[test]
fn corrupted_message_never_panics() {
    let mut r = rng(3);
    for _ in 0..CASES {
        let mut wire = write(&gen_message(&mut r));
        for _ in 0..r.random_range(1..8usize) {
            let i = r.random::<u16>() as usize % wire.len();
            wire[i] ^= r.random::<u8>();
        }
        let _ = verdict(&wire);
    }
}

/// Name set/present round trip; the presentation is lower-case.
#[test]
fn name_round_trips() {
    let mut r = rng(4);
    for _ in 0..CASES {
        let s = shown(&name(&gen_name(&mut r)));
        assert_eq!(shown(&name(&s)), s);
        assert_eq!(s.to_ascii_lowercase(), s);
    }
}

/// Octets a name takes on the wire uncompressed.
fn wire_len(s: &str) -> usize {
    if s.is_empty() {
        1
    } else {
        s.len() + 2
    }
}

/// A response whose answers are A records owned by `owners`, in order.
fn a_records(owners: &[&str]) -> Vec<u8> {
    write(&Spec {
        id: 1,
        flags: Flags::query(),
        questions: vec![],
        answers: owners
            .iter()
            .map(|o| Answer::A { owner: o.to_string(), ttl: 0, addr: Ipv4Addr::UNSPECIFIED })
            .collect(),
        authorities: vec![],
    })
}

/// The owner names of a message's answers, as the view reads them.
fn owners(wire: &[u8]) -> Vec<String> {
    let mut buf = NameBuf::new();
    let view = MessageView::parse(wire).unwrap();
    view.answers()
        .map(|r| {
            r.name.read_into(&mut buf);
            shown(&buf)
        })
        .collect()
}

/// Compression never changes what is read back and never grows the
/// message beyond its uncompressed size.
#[test]
fn compression_is_lossless_and_never_larger() {
    let mut r = rng(5);
    for _ in 0..CASES {
        let names: Vec<String> = (0..r.random_range(1..8usize)).map(|_| gen_name(&mut r)).collect();
        let owned: Vec<&str> = names.iter().map(String::as_str).collect();
        let wire = a_records(&owned);
        let uncompressed: usize = 12 + names.iter().map(|n| wire_len(n) + 14).sum::<usize>();
        assert!(wire.len() <= uncompressed);
        let want: Vec<String> = names.iter().map(|n| shown(&name(n))).collect();
        assert_eq!(owners(&wire), want);
    }
}

/// The deepest name the 255-octet limit admits: 127 one-byte labels.
/// Its second spelling is one pointer, and it reads back.
#[test]
fn deepest_name_compresses_to_one_pointer() {
    let deepest = ["a"; 127].join(".");
    assert_eq!(wire_len(&deepest), 255);
    assert!(["a"; 128].join(".").parse::<NameBuf>().is_err());
    // A sibling shares all but its first label.
    let sibling = format!("b.{}", ["a"; 126].join("."));
    let wire = a_records(&[&deepest, &deepest, &sibling]);
    // Header, the name spelled out, one pointer, one label and a pointer;
    // 14 octets of A record after each.
    assert_eq!(wire.len(), 12 + (255 + 14) + (2 + 14) + (2 + 2 + 14));
    assert_eq!(owners(&wire), [deepest.clone(), deepest, sibling]);
}

/// Names first written at or past offset 0x4000 cannot be pointed at
/// (a pointer holds 14 bits): they are spelled out every time, while
/// suffixes registered below the limit keep compressing.
#[test]
fn names_past_the_pointer_limit_are_spelled_out() {
    let (owner, late) = ("big.example.com", "late.example.org");
    // 90 records of 198 bytes, owned by names that share no suffix,
    // carry the message past 0x4000.
    let filler = |i: usize| [0, 1, 2].map(|k| format!("f{i:03}{k}{}", "x".repeat(55))).join(".");
    let mut answers: Vec<Answer> =
        (0..90).map(|i| Answer::A { owner: filler(i), ttl: 1, addr: Ipv4Addr::UNSPECIFIED }).collect();
    for target in [late, owner] {
        answers.push(Answer::Cname { owner: late.to_string(), ttl: 1, target: target.to_string() });
    }
    let m = Spec { id: 1, flags: Flags::query(), questions: vec![owner.to_string()], answers, authorities: vec![] };
    let wire = write(&m);
    assert!(wire.len() > 0x4000 + 2 * wire_len(late));
    assert_eq!(verdict(&wire).unwrap(), expected(&m));
    // `late` is written in full three times; `owner` once, then a pointer.
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

/// 20 000 seeded corruptions of writer-built messages, then every prefix
/// truncation of 200 valid ones.
fn hostile_corpus() -> Vec<Vec<u8>> {
    const POKES: &[u8] = &[0x00, 0x3F, 0x40, 0x80, 0xC0, 0xC1, 0xFF];
    let mut r = rng(7);
    let mut out = Vec::new();
    for _ in 0..20_000 {
        let mut wire = write(&gen_message(&mut r));
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
        let wire = write(&gen_message(&mut r));
        out.extend((0..wire.len()).map(|cut| wire[..cut].to_vec()));
    }
    out
}

/// The monitor's verdict on hostile input, recorded when the corpus was
/// first built from the writer: how many inputs parse, how many fail with
/// each error — payload included — and a digest over every outcome in
/// order (an accepted message contributes what the view reads off it).
/// The owned decode must reach the same verdict on every input.
#[test]
fn decode_outcomes_match_the_recorded_parent() {
    let corpus = hostile_corpus();
    assert_eq!(corpus.len(), 70_676);
    let mut outcomes: BTreeMap<String, usize> = BTreeMap::new();
    let mut digest = FNV_OFFSET;
    for buf in &corpus {
        let outcome = match verdict(buf) {
            Ok(read) => {
                fnv1a(&mut digest, b"Ok");
                fnv1a(&mut digest, format!("{read:?}").as_bytes());
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
    assert_eq!(count("Ok"), 11_139, "{summary}");
    assert_eq!(count("Truncated { context: \"header\" }"), 2_400, "{summary}");
    assert_eq!(count("Truncated"), 2_400, "{summary}");
    assert_eq!(
        [section("question"), section("answer"), section("authority"), section("additional")],
        [9_361, 19_787, 23_675, 498],
        "{summary}"
    );
    assert_eq!(count("BadPointer"), 1_165, "{summary}");
    assert_eq!(count("ReservedLabelType"), 2_298, "{summary}");
    assert_eq!(count("RdataLengthMismatch"), 351, "{summary}");
    assert_eq!(count("NameTooLong"), 2, "{summary}");
    assert_eq!(outcomes.len(), 948, "distinct outcomes, payloads included");
    assert_eq!(outcomes.values().sum::<usize>(), corpus.len());
    assert_eq!(digest, 0x258b_e999_d212_8fab, "{summary}");
}

/// Compression decisions do not move: the writer's bytes over 2 000
/// seeded messages hash to what was recorded when they were first built
/// from it.
#[test]
fn encode_bytes_match_the_recorded_parent() {
    let mut digest = FNV_OFFSET;
    for seed in 0..2_000u64 {
        fnv1a(&mut digest, &write(&gen_message(&mut rng(1_000 + seed))));
    }
    assert_eq!(digest, 0x9e8d_4320_22f1_f5cf);
}
