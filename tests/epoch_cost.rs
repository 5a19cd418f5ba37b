//! The cost of closing an epoch follows the rows it moves, never the
//! state held, and once the engine has held its peak it is nothing. On a
//! hub whose flight ring is already full, an epoch that releases and
//! evicts nothing allocates nothing whether the engine holds a hundred
//! single-entry keys and buffered rows or ten thousand, and one that
//! buffers, releases and evicts rows over keys it already has allocates
//! nothing whether the rows are twenty or two thousand: the release is
//! lent, a spilled run takes a block its size class has freed, and a
//! flight event takes over the text of the one it evicts. Counted with
//! the allocation counter, not timed. One test in this binary, so
//! nothing else allocates while it measures.

use std::net::Ipv4Addr;

use dnsctx::dns_context::{stream::StreamEngine, AnalysisConfig};
use dnsctx::dns_wire::{Compressor, Flags, MessageWriter, NameBuf, Rcode, RrType};
use dnsctx::netpkt::{frame, MacAddr, TcpFlags, TcpHeader};
use dnsctx::xkit::obs::ObsHub;
use dnsctx::xkit::bench::alloc::{self, CountingAlloc, StageAllocs};
use dnsctx::zeek_lite::{Duration, MonitorConfig, Timestamp};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const HOUSE: Ipv4Addr = Ipv4Addr::new(10, 77, 0, 1);
const RESOLVER: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 53);
const SERVER: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 7);

/// Hand the engine a frame stored whole.
fn feed(engine: &mut StreamEngine, ts_us: u64, frame: &[u8]) {
    engine.handle_frame(Timestamp(ts_us * 1_000), frame, frame.len() as u32);
}

/// A UDP frame from the house to `peer` (`up`) or back, `ports` source
/// then destination, its payload written in place.
fn udp(up: bool, peer: Ipv4Addr, ports: [u16; 2], payload: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let (macs, ends) = match up {
        true => ([MacAddr::LOCAL, MacAddr::UPSTREAM], [HOUSE, peer]),
        false => ([MacAddr::UPSTREAM, MacAddr::LOCAL], [peer, HOUSE]),
    };
    let mut out = Vec::new();
    frame::udp(&mut out, macs[0], macs[1], ends[0], ends[1], ports[0], ports[1], payload);
    out
}

/// A TCP segment without payload from the house to the server.
fn tcp(header: TcpHeader<'_>) -> Vec<u8> {
    let mut out = Vec::new();
    frame::tcp(&mut out, MacAddr::LOCAL, MacAddr::UPSTREAM, HOUSE, SERVER, header, &[]);
    out
}

/// Query `id` for `name`, with `answer` (address, ttl) as the one A
/// record of a response if given.
fn dns(id: u16, name: &str, answer: Option<(Ipv4Addr, u32)>) -> impl FnOnce(&mut Vec<u8>) {
    let name: NameBuf = name.parse().unwrap();
    move |out| {
        let flags = if answer.is_some() { Flags::response(Rcode::NoError) } else { Flags::query() };
        let mut comp = Compressor::default();
        let mut w = MessageWriter::new(out, &mut comp, id, flags);
        w.question(&name, RrType::A);
        if let Some((addr, ttl)) = answer {
            w.a(&name, ttl, addr);
        }
        w.finish();
    }
}

/// One lookup of `name` answered with `addr` for `ttl` seconds: the
/// query at `ts_us`, the answer 500 µs later.
fn lookup(engine: &mut StreamEngine, ts_us: u64, id: u16, name: &str, addr: Ipv4Addr, ttl: u32) {
    feed(engine, ts_us, &udp(true, RESOLVER, [54321, 53], dns(id, name, None)));
    feed(engine, ts_us + 500, &udp(false, RESOLVER, [53, 54321], dns(id, name, Some((addr, ttl)))));
}

/// A hub whose flight ring (the default 256 events) is already full, so
/// every event an engine records on it evicts one.
fn full_hub() -> ObsHub {
    let hub = ObsHub::default();
    for _ in 0..256 {
        hub.flight().record("test.fill", "", 0.0);
    }
    hub
}

/// An engine holding `n` single-entry index keys, `n` buffered DNS rows
/// and `n` buffered connections that no watermark can release, then
/// three more epochs closed on it: what each of those allocated.
fn idle_epoch_allocs(n: u32) -> [StageAllocs; 3] {
    let monitor = MonitorConfig {
        udp_timeout: Duration::from_secs(5),
        tcp_timeout: Duration::from_secs(3_600),
        dns_query_timeout: Duration::from_secs(3_600),
    };
    let mut engine = StreamEngine::new(monitor, AnalysisConfig::default());
    let hub = full_hub();
    engine.set_hub(hub.clone());
    let addr = |i: u32| Ipv4Addr::from(u32::from(Ipv4Addr::new(104, 16, 0, 0)) + i);

    // A flow that never ends pins the connection watermark at 1 s.
    feed(&mut engine, 1_000_000, &tcp(TcpHeader::syn(40_000, 443, 100)));
    // Epoch 1: n lookups of n addresses, all released at its boundary —
    // n keys of one entry each.
    for i in 0..n {
        let ts_us = 2_000_000 + 1_000 * i as u64;
        lookup(&mut engine, ts_us, i as u16, &format!("a{i}.example.com"), addr(i), 86_400);
    }
    let out = engine.end_epoch(Some(Timestamp::from_millis(30_000)));
    assert_eq!((out.dns.len(), out.conns.len()), (n as usize, 0));

    // Epoch 2: a query that is never answered pins the DNS watermark at
    // 31 s; the n lookups and n one-packet flows after it complete but
    // cannot be released.
    let pending = udp(true, RESOLVER, [54321, 53], dns(65_000, "pending.example.com", None));
    feed(&mut engine, 31_000_000, &pending);
    for i in 0..n {
        let ts_us = 31_001_000 + 1_000 * i as u64;
        lookup(&mut engine, ts_us, i as u16, &format!("b{i}.example.com"), addr(i), 86_400);
        let quic = udp(true, SERVER, [10_000 + i as u16, 4433], |out| out.push(b'x'));
        feed(&mut engine, ts_us, &quic);
    }
    // One late packet on the pinned flow sweeps the idle UDP flows out.
    let ack = TcpHeader { flags: TcpFlags::ACK, ..TcpHeader::syn(40_000, 443, 101) };
    feed(&mut engine, 58_000_000, &tcp(ack));
    let out = engine.end_epoch(Some(Timestamp::from_millis(60_000)));
    assert_eq!((out.dns.len(), out.conns.len()), (0, 0));
    let live = hub.metrics();
    let flows = live.gauge("stream.live_flows").expect("published at the boundary");
    let answers = live.gauge("stream.live_answers").expect("published at the boundary");
    assert!(
        flows > f64::from(n) && answers > 2.0 * f64::from(n),
        "state not held: {flows} flows, {answers} answers"
    );

    [90_000, 120_000, 150_000].map(|boundary_ms| {
        let (out, allocs) =
            alloc::measure(|| engine.end_epoch(Some(Timestamp::from_millis(boundary_ms))));
        assert_eq!((out.dns.len(), out.conns.len()), (0, 0));
        allocs
    })
}

/// An engine holding 5 000 single-entry keys that nothing touches again,
/// then six 30 s epochs of `n` ten-second lookups over the same `n` other
/// keys, each followed by the connection it blocks: every boundary
/// releases the epoch's `n` DNS rows and `n + 2` connections and evicts
/// the `n` entries of the epoch before. What closing each of the last
/// two allocated, the first four having sized every buffer and map.
fn busy_epoch_allocs(n: u32) -> [StageAllocs; 2] {
    let monitor = MonitorConfig { udp_timeout: Duration::from_secs(5), ..MonitorConfig::default() };
    let mut engine = StreamEngine::new(monitor, AnalysisConfig::default());
    let hub = full_hub();
    engine.set_hub(hub.clone());
    let addr = |net: u8, i: u32| Ipv4Addr::from(u32::from(Ipv4Addr::new(104, net, 0, 0)) + i);
    for i in 0..5_000 {
        let name = format!("h{i}.example.com");
        lookup(&mut engine, 100_000 + 100 * i as u64, i as u16, &name, addr(16, i), 86_400);
    }

    let mut measured = Vec::new();
    for epoch in 0..6u64 {
        let base_us = epoch * 30_000_000;
        for i in 0..n {
            let ts_us = base_us + 1_000_000 + 1_000 * i as u64;
            let name = format!("b{i}.example.com");
            lookup(&mut engine, ts_us, i as u16, &name, addr(32, i), 10);
            let quic = udp(true, addr(32, i), [10_000 + i as u16, 4433], |out| out.push(b'x'));
            feed(&mut engine, ts_us + 600, &quic);
        }
        // A late packet on a flow of its own sweeps the epoch's flows out
        // and leaves the connection watermark at its own start.
        let late = udp(true, SERVER, [20_000 + epoch as u16, 4433], |out| out.push(b'x'));
        feed(&mut engine, base_us + 20_000_000, &late);
        let (out, allocs) =
            alloc::measure(|| engine.end_epoch(Some(Timestamp(1_000 * (base_us + 30_000_000)))));
        // The held lookups leave with the first epoch; the late flow of
        // each epoch with the next.
        let dns = n as usize + if epoch == 0 { 5_000 } else { 0 };
        let flows = n as usize + 1 + usize::from(epoch > 0);
        assert_eq!((out.dns.len(), out.conns.len()), (dns, flows));
        measured.push(allocs);
    }
    let live = hub.metrics();
    assert_eq!(live.counter("stream.evicted_answers"), 5 * u64::from(n));
    assert_eq!(live.counter("perf.blocked_conns"), 6 * u64::from(n), "a connection per lookup");
    assert_eq!(live.gauge("stream.live_answers"), Some(5_000.0 + f64::from(n)));
    [measured[4], measured[5]]
}

#[test]
fn an_epoch_costs_what_it_moves_not_what_is_held() {
    // Idle: the release event goes into the text of the one it evicts and
    // the snapshot is rewritten in place, holding 100 keys as holding
    // 10 000. (With a `String` per flight event this read 1.)
    for n in [100, 10_000] {
        for (epoch, spent) in idle_epoch_allocs(n).iter().enumerate() {
            let held = (spent.allocs, spent.bytes);
            assert_eq!(held, (0, 0), "idle epoch {epoch} holding {n} keys: (events, bytes)");
        }
    }
    // Busy: the rows go into the lent output and the spilled runs take the
    // slab blocks the last eviction freed, for 20 rows as for 2 000. (With two output vectors sized per epoch and a `String` per
    // flight event this read 4; on a B-tree node per six buffered rows,
    // output vectors grown by doubling and a merge buffer per sort, 17 and
    // 628.)
    for n in [20, 2_000] {
        for (epoch, spent) in busy_epoch_allocs(n).iter().enumerate() {
            let moved = (spent.allocs, spent.bytes);
            assert_eq!(moved, (0, 0), "busy epoch {epoch} moving {n} rows: (events, bytes)");
        }
    }
}
