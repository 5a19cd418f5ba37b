//! Randomized tests for the monitor layer: TSV logs round-trip
//! arbitrary records, windowing partitions cleanly, and the monitor
//! survives arbitrary input frames. Cases come from fixed `xkit::rng`
//! streams so every run exercises the same inputs.

use dns_wire::{Rcode, RrType};
use std::net::Ipv4Addr;
use xkit::rng::StdRng;
use zeek_lite::{
    logfmt, Answer, AnswerData, ConnRecord, ConnState, DnsTransaction, Duration, FiveTuple,
    Monitor, MonitorConfig, NameTable, Proto, Timestamp,
};

const CASES: usize = 128;

fn rng(label: u64) -> StdRng {
    StdRng::seed_from_u64(0x2EE_C11 ^ label)
}

fn gen_addr(r: &mut StdRng) -> Ipv4Addr {
    Ipv4Addr::from(r.random::<u32>())
}

fn gen_string(r: &mut StdRng, charset: &[u8], min: usize, max: usize) -> String {
    (0..r.random_range(min..=max)).map(|_| *r.choose(charset).unwrap() as char).collect()
}

fn gen_state(r: &mut StdRng) -> ConnState {
    *r.choose(&[
        ConnState::S0,
        ConnState::S1,
        ConnState::SF,
        ConnState::Rej,
        ConnState::RstO,
        ConnState::RstR,
        ConnState::Oth,
    ])
    .unwrap()
}

fn gen_conn(r: &mut StdRng) -> ConnRecord {
    let proto = if r.random::<bool>() { Proto::Tcp } else { Proto::Udp };
    let ts_ms = r.random_range(0..u32::MAX as u64);
    let resp_port = r.random::<u16>();
    ConnRecord {
        uid: r.random::<u64>(),
        ts: Timestamp::from_millis(ts_ms),
        id: FiveTuple {
            orig_addr: gen_addr(r),
            orig_port: r.random::<u16>(),
            resp_addr: gen_addr(r),
            resp_port,
            proto,
        },
        duration: Duration::from_millis(ts_ms % 100_000),
        orig_bytes: r.random_range(0..1u64 << 40),
        resp_bytes: r.random_range(0..1u64 << 40),
        orig_pkts: r.random_range(0u64..1_000_000),
        resp_pkts: r.random_range(0u64..1_000_000),
        state: gen_state(r),
        history: gen_string(r, b"ShAaDdFfRr", 0, 8).into(),
        service: zeek_lite::service_for_port(proto, resp_port),
    }
}

fn gen_answer(r: &mut StdRng, names: &mut NameTable) -> Answer {
    let data = match r.random_range(0..3u32) {
        0 => AnswerData::Addr(gen_addr(r)),
        1 => {
            let labels: Vec<String> = (0..r.random_range(2..=4usize))
                .map(|_| gen_string(r, b"abcdefghijklmnopqrstuvwxyz0123456789-", 1, 12))
                .collect();
            AnswerData::Cname(names.intern(&labels.join(".")))
        }
        _ => AnswerData::Other(gen_string(r, b"ABCDEFGHIJKLMNOPQRSTUVWXYZ", 1, 6)),
    };
    Answer { data, ttl: r.random::<u32>() }
}

/// A row whose names go into `names`, its query first, the way
/// `read_dns_log` interns them.
fn gen_dns(r: &mut StdRng, names: &mut NameTable) -> DnsTransaction {
    let labels: Vec<String> = std::iter::once(gen_string(r, b"abcdefghijklmnopqrstuvwxyz0123456789_-", 1, 16))
        .chain(
            (0..r.random_range(0..=3usize))
                .map(|_| gen_string(r, b"abcdefghijklmnopqrstuvwxyz0123456789_-", 1, 10)),
        )
        .collect();
    let query = names.intern(&labels.join("."));
    let answered = r.random::<bool>();
    let (rtt, rcode, answers) = if answered {
        (
            Some(Duration(1_000 * r.random_range(0u64..60_000))),
            Some(Rcode::from_u8(r.random_range(0u8..6))),
            (0..r.random_range(0..5usize)).map(|_| gen_answer(r, names)).collect(),
        )
    } else {
        (None, None, Vec::new())
    };
    DnsTransaction {
        ts: Timestamp::from_millis(r.random_range(0..u32::MAX as u64)),
        client: gen_addr(r),
        resolver: gen_addr(r),
        trans_id: r.random::<u16>(),
        query,
        qtype: RrType::A,
        rcode,
        rtt,
        answers,
    }
}

/// conn.log round-trips arbitrary records exactly.
#[test]
fn conn_log_round_trips() {
    let mut r = rng(1);
    for _ in 0..CASES {
        let conns: Vec<ConnRecord> =
            (0..r.random_range(0..30usize)).map(|_| gen_conn(&mut r)).collect();
        let mut buf = Vec::new();
        logfmt::write_conn_log(&mut buf, &conns).unwrap();
        let back = logfmt::read_conn_log(&buf[..]).unwrap();
        assert_eq!(back, conns);
    }
}

/// dns.log round-trips arbitrary records exactly, and a fresh table
/// read from it numbers the names as the writer's table did.
#[test]
fn dns_log_round_trips() {
    let mut r = rng(2);
    for _ in 0..CASES {
        let mut names = NameTable::default();
        let txns: Vec<DnsTransaction> =
            (0..r.random_range(0..30usize)).map(|_| gen_dns(&mut r, &mut names)).collect();
        let mut buf = Vec::new();
        logfmt::write_dns_log(&mut buf, &names, &txns).unwrap();
        let mut back_names = NameTable::default();
        let back = logfmt::read_dns_log(&buf[..], &mut back_names).unwrap();
        assert_eq!(back, txns);
        assert_eq!(back_names.len(), names.len());
    }
}

/// The log reader never panics on arbitrary printable text.
#[test]
fn log_reader_never_panics() {
    let mut r = rng(3);
    // Printable ASCII plus a few multi-byte characters; no control chars
    // beyond the newlines we insert ourselves.
    let pool: Vec<char> = (0x20u8..0x7F).map(|b| b as char).chain(['é', 'λ', '中', '\u{2028}']).collect();
    for _ in 0..CASES {
        let mut text: String =
            (0..r.random_range(0..400usize)).map(|_| *r.choose(&pool).unwrap()).collect();
        // Sprinkle line breaks so multi-line parsing paths run too.
        if text.len() > 40 {
            let cut = r.random_range(1..text.len());
            if text.is_char_boundary(cut) {
                text.insert(cut, '\n');
            }
        }
        let _ = logfmt::read_conn_log(text.as_bytes());
        let _ = logfmt::read_dns_log(text.as_bytes(), &mut NameTable::default());
    }
}

/// The monitor never panics on arbitrary frames.
#[test]
fn monitor_survives_fuzz_frames() {
    let mut r = rng(4);
    for _ in 0..CASES {
        let frames: Vec<Vec<u8>> = (0..r.random_range(0..30usize))
            .map(|_| (0..r.random_range(0..120usize)).map(|_| r.random::<u8>()).collect())
            .collect();
        let mut m = Monitor::new(MonitorConfig::default());
        for (i, f) in frames.iter().enumerate() {
            m.handle_frame(Timestamp::from_millis(i as u64), f, f.len().max(1) as u32);
        }
        let logs = m.finish();
        assert_eq!(logs.degradation.frames_seen as usize, frames.len());
    }
}
