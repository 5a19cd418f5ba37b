//! What the monitor allocates for a DNS transaction is nothing of its
//! own: a row holds up to four answers inline, and its query and CNAME
//! targets are ids into the monitor's name table, where a new name costs
//! arena growth. Only an answer section past four pays for a heap block.
//! A packet that produces no row allocates nothing — after a drain too,
//! the row vector's capacity staying with the monitor. Expiring idle
//! flows costs only the doublings of the completed-row vector, and
//! `finish` sorts the conn log in place and the dns log through one index
//! permutation. Counted with the allocation counter (a `realloc` is an
//! event), not timed. One test in this binary, so nothing else allocates
//! while it measures.

use std::net::Ipv4Addr;

use dnsctx::dns_wire::{Compressor, Flags, MessageWriter, NameBuf, Rcode, RrType};
use dnsctx::netpkt::{frame, MacAddr, TcpFlags, TcpHeader};
use dnsctx::xkit::bench::alloc::{self, CountingAlloc};
use dnsctx::zeek_lite::{AnswerData, DnsTransaction, Monitor, MonitorConfig, Timestamp};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const HOUSE: Ipv4Addr = Ipv4Addr::new(10, 77, 0, 1);
const RESOLVER: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 53);
const SERVER: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 7);
const UP: MacAddr = MacAddr::UPSTREAM;
const DOWN: MacAddr = MacAddr::LOCAL;

/// A frame as the capture stores it: `(bytes, wire length)`.
type Stored = (Vec<u8>, u32);

/// A UDP frame stored whole, its payload written in place.
fn udp(
    macs: [MacAddr; 2],
    src: Ipv4Addr,
    dst: Ipv4Addr,
    ports: [u16; 2],
    payload: impl FnOnce(&mut Vec<u8>),
) -> Stored {
    let mut out = Vec::new();
    frame::udp(&mut out, macs[0], macs[1], src, dst, ports[0], ports[1], payload);
    let len = out.len() as u32;
    (out, len)
}

/// A TCP segment without payload.
fn tcp(macs: [MacAddr; 2], src: Ipv4Addr, dst: Ipv4Addr, header: TcpHeader<'_>) -> Stored {
    let mut out = Vec::new();
    frame::tcp(&mut out, macs[0], macs[1], src, dst, header, &[]);
    let len = out.len() as u32;
    (out, len)
}

/// Writes message `id` asking for `name`: the query, or, given
/// `answers`, the response whose answer section they write.
fn dns<'a>(
    id: u16,
    name: &'a NameBuf,
    answers: Option<&'a dyn Fn(&mut MessageWriter<'_>)>,
) -> impl FnOnce(&mut Vec<u8>) + 'a {
    move |out| {
        let flags = if answers.is_some() { Flags::response(Rcode::NoError) } else { Flags::query() };
        let mut comp = Compressor::default();
        let mut w = MessageWriter::new(out, &mut comp, id, flags);
        w.question(name, RrType::A);
        if let Some(answers) = answers {
            answers(&mut w);
        }
        w.finish();
    }
}

/// Query and response (a CNAME, then `addrs` A records) of lookup `i`
/// from client port `port`: two names no other lookup asks about. Every
/// name is as long as every other of its kind, so the first message sizes
/// the monitor's reused string for all of them.
fn lookup(i: u16, port: u16, addrs: u8) -> [Stored; 2] {
    let name: NameBuf = format!("w{i:05}.example.com").parse().unwrap();
    let edge: NameBuf = format!("e{i:05}.cdn.example.net").parse().unwrap();
    let answers = |w: &mut MessageWriter<'_>| {
        w.cname(&name, 300, &edge);
        for host in 1..=addrs {
            w.a(&edge, 60, Ipv4Addr::new(104, 16, (i >> 8) as u8, host));
        }
    };
    [
        udp([DOWN, UP], HOUSE, RESOLVER, [port, 53], dns(i, &name, None)),
        udp([UP, DOWN], RESOLVER, HOUSE, [53, port], dns(i, &name, Some(&answers))),
    ]
}

#[test]
fn a_matched_transaction_allocates_nothing_of_its_own() {
    const N: u16 = 1_000;
    let mut monitor = Monitor::new(MonitorConfig::default());
    let mut now_us = 0u64;
    let mut feed = |monitor: &mut Monitor, (bytes, wire_len): &Stored| {
        now_us += 500;
        monitor.handle_frame(Timestamp(now_us * 1_000), bytes, *wire_len);
    };

    // The first lookup sizes the reused string; it is not measured.
    let [warm_q, warm_r] = lookup(N, 20_000 + N, 2);
    feed(&mut monitor, &warm_q);

    // A retransmitted query, and a response nobody asked for (the id of a
    // lookup not made yet, on the flow the monitor already tracks).
    let seventh: NameBuf = "w00007.example.com".parse().unwrap();
    let answer = |w: &mut MessageWriter<'_>| w.a(&seventh, 60, SERVER);
    let stray = udp([UP, DOWN], RESOLVER, HOUSE, [53, 20_000 + N], dns(7, &seventh, Some(&answer)));
    let ((), idle) = alloc::measure(|| {
        feed(&mut monitor, &warm_q);
        feed(&mut monitor, &stray);
    });
    assert_eq!(idle.allocs, 0, "a retransmit plus an unmatched response allocated");
    feed(&mut monitor, &warm_r);

    // N matched lookups bringing 2N new names, each row holding its CNAME
    // and two addresses: the doublings of the flow table, the row vector
    // and the name table's arena, ends and index are all that allocates.
    // (An answer vector per row cost N more; owning the query and the
    // CNAME target as strings, 3N.)
    let frames: Vec<[Stored; 2]> = (0..N).map(|i| lookup(i, 20_000 + i, 2)).collect();
    let ((), matched) = alloc::measure(|| {
        for [q, r] in &frames {
            feed(&mut monitor, q);
            feed(&mut monitor, r);
        }
    });
    assert!(matched.allocs <= 64, "{} allocations for {N} transactions", matched.allocs);
    assert_eq!(monitor.names().len(), 2 * usize::from(N) + 2, "every query and target, once");

    // The rows handed over, the same lookups again: the row vector kept
    // its capacity, every table is sized and every name known.
    assert_eq!(monitor.drain_dns().count(), usize::from(N) + 1);
    let ((), again) = alloc::measure(|| {
        for [q, r] in &frames {
            feed(&mut monitor, q);
            feed(&mut monitor, r);
        }
    });
    assert_eq!(again.allocs, 0, "after a drain, {N} transactions allocated");

    // The rows hold what was answered, and their names are in the table.
    let rows: Vec<DnsTransaction> = monitor.drain_dns().collect();
    assert_eq!(rows.len(), usize::from(N));
    for t in &rows {
        assert_eq!(t.answers.len(), 3);
        let AnswerData::Cname(target) = t.answers[0].data else { panic!("no CNAME in {t:?}") };
        let (query, target) = (monitor.names().name(t.query), monitor.names().name(target));
        assert_eq!((&query[..2], &target[..2], query[1..6] == target[1..6]), ("w0", "e0", true));
    }

    // A CNAME and five addresses, past the four a row holds: one block.
    let [long_q, long_r] = lookup(0, 20_000, 5);
    let ((), long) = alloc::measure(|| {
        feed(&mut monitor, &long_q);
        feed(&mut monitor, &long_r);
    });
    assert_eq!(long.allocs, 1, "a six-answer response");

    // An established TCP flow: nothing per segment.
    let seg = |from_house: bool, seq: u32, ack: u32, flags: TcpFlags| {
        if from_house {
            tcp([DOWN, UP], HOUSE, SERVER, TcpHeader::segment(40_000, 443, seq, ack, flags))
        } else {
            tcp([UP, DOWN], SERVER, HOUSE, TcpHeader::segment(443, 40_000, seq, ack, flags))
        }
    };
    feed(&mut monitor, &tcp([DOWN, UP], HOUSE, SERVER, TcpHeader::syn(40_000, 443, 100)));
    feed(&mut monitor, &seg(false, 900, 101, TcpFlags::SYN_ACK));
    feed(&mut monitor, &seg(true, 101, 901, TcpFlags::ACK));
    let segments: Vec<Stored> = (0..10_000u32)
        .map(|k| seg(k % 2 == 0, 101 + 700 * k, 901 + 700 * k, TcpFlags::PSH_ACK))
        .collect();
    let ((), tcp) = alloc::measure(|| {
        for s in &segments {
            feed(&mut monitor, s);
        }
    });
    assert_eq!(tcp.allocs, 0, "segments on an established flow allocated");

    let logs = monitor.finish();
    assert_eq!(logs.dns.len(), 1);
    assert_eq!((logs.dns[0].answers.len(), logs.dns[0].addrs().count()), (6, 5));
    let tcp_flow = logs.app_conns().next().expect("the TCP flow");
    assert_eq!(tcp_flow.orig_pkts + tcp_flow.resp_pkts, 10_003);

    // K idle UDP flows, each from its own port, expired by one sweep
    // (every 10 s of trace time; the UDP timeout is 60 s) that the frame
    // of a new flow triggers. The rows move into the completed vector,
    // whose doublings to K (capacities 4, 8, …, 1024) are all the sweep
    // may allocate.
    const K: u16 = 1_000;
    let mut monitor = Monitor::new(MonitorConfig::default());
    let at = |monitor: &mut Monitor, ms: u64, (bytes, wire_len): &Stored| {
        monitor.handle_frame(Timestamp(ms * 1_000_000), bytes, *wire_len);
    };
    let idle: Vec<Stored> =
        (0..=K).map(|k| udp([DOWN, UP], HOUSE, SERVER, [30_000 + k, 443], |_| {})).collect();
    let (tick, idle) = idle.split_last().expect("K + 1 flows");
    for (k, flow) in (0..).zip(idle) {
        at(&mut monitor, k, flow);
    }
    let ((), sweep) = alloc::measure(|| at(&mut monitor, 70_000, tick));
    let doublings = u64::from(K.next_power_of_two().trailing_zeros()) - 1;
    assert!(sweep.allocs <= doublings, "{} allocations to expire {K} flows", sweep.allocs);
    assert_eq!(monitor.drain_conns().count(), usize::from(K));

    // Drained, the vector has the room: the next K expire for nothing.
    for (k, flow) in (0..).zip(idle) {
        at(&mut monitor, 80_000 + k, flow);
    }
    let ((), sweep) = alloc::measure(|| at(&mut monitor, 150_000, tick));
    assert_eq!(sweep.allocs, 0, "expiring {K} flows into a drained vector allocated");

    // N lookups on one more flow, answered last to first, so the rows
    // arrive against their query order.
    let lookups: Vec<[Stored; 2]> = (0..N).map(|i| lookup(i, 25_000, 2)).collect();
    for (k, [q, _]) in (0..).zip(&lookups) {
        at(&mut monitor, 150_001 + k, q);
    }
    for (k, [_, r]) in (0..).zip(lookups.iter().rev()) {
        at(&mut monitor, 151_001 + k, r);
    }

    // `finish` over those K + 1 conn rows, the live flows and N dns rows:
    // the conn rows are already in a vector with room and sort in place;
    // the dns rows sort through one `u32` index per row.
    let (logs, finish) = alloc::measure(|| monitor.finish());
    assert_eq!((logs.conns.len(), logs.dns.len()), (usize::from(K) + 3, usize::from(N)));
    assert!(logs.dns.windows(2).all(|w| w[0].ts < w[1].ts), "dns rows out of query order");
    let bound = 4 * u64::from(N) + 64;
    assert!(
        finish.allocs == 1 && finish.bytes <= bound,
        "finish over {N} dns rows: {} allocations, {} bytes (at most {bound})",
        finish.allocs,
        finish.bytes
    );
}
