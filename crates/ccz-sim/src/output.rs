//! Output backends: direct log emission and packet/pcap emission.
//!
//! The engine describes what happened (one DNS transaction, one
//! connection) and a sink turns that into either finished
//! [`zeek_lite::Logs`] records (fast path) or a time-ordered sequence of
//! real frames (faithful path, to be re-parsed by the monitor).

use std::net::Ipv4Addr;

use dns_wire::{Compressor, Flags, MessageWriter, NameBuf, Rcode, RrType};
use netpkt::{frame, MacAddr, TcpFlags, TcpHeader};
use zeek_lite::{
    Answer, AnswerData, Answers, ConnRecord, ConnState, DnsTransaction, Duration, FiveTuple,
    History, Logs, NameTable, Proto, Timestamp,
};

/// One DNS transaction as the engine describes it.
///
/// The name and answer fields *borrow* from the engine's name universe and
/// scratch buffers: an emission is a transient view handed to the sink,
/// which copies only what it actually keeps. This keeps the simulator's
/// hot path free of per-lookup heap allocations.
#[derive(Debug, Clone, Copy)]
pub struct DnsEmission<'a> {
    /// Query departure time.
    pub ts: Timestamp,
    /// House (NAT) address.
    pub client: Ipv4Addr,
    /// Resolver address queried.
    pub resolver: Ipv4Addr,
    /// Transaction id.
    pub trans_id: u16,
    /// Ephemeral client port.
    pub client_port: u16,
    /// Query name.
    pub query: &'a str,
    /// Lookup duration.
    pub rtt: Duration,
    /// Optional CNAME ahead of the address records.
    pub cname: Option<&'a str>,
    /// Address answers.
    pub addrs: &'a [Ipv4Addr],
    /// TTL on the answer records.
    pub ttl: u32,
}

/// One connection as the engine describes it.
#[derive(Debug, Clone)]
pub struct ConnEmission {
    /// First-packet time.
    pub ts: Timestamp,
    /// House (NAT) address.
    pub house: Ipv4Addr,
    /// Originator (ephemeral) port.
    pub orig_port: u16,
    /// Server address.
    pub dst: Ipv4Addr,
    /// Server port.
    pub dst_port: u16,
    /// Transport protocol.
    pub proto: Proto,
    /// Total lifetime (first packet to last).
    pub duration: Duration,
    /// Payload bytes house → server.
    pub orig_bytes: u64,
    /// Payload bytes server → house.
    pub resp_bytes: u64,
    /// Network RTT to the server (packet pacing in pcap mode).
    pub rtt: Duration,
    /// How the connection ended.
    pub fate: ConnFate,
}

/// Connection outcomes the simulator produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnFate {
    /// Established and closed cleanly.
    Established,
    /// No answer from the peer (hard-coded dead servers, gone P2P peers).
    NoAnswer,
    /// Actively refused (RST to the SYN).
    Refused,
}

/// Where engine emissions go.
pub trait Sink {
    /// Record one DNS transaction.
    fn dns(&mut self, e: &DnsEmission<'_>);
    /// Record one connection.
    fn conn(&mut self, e: &ConnEmission);
}

/// Builds `zeek_lite::Logs` directly, bypassing packets. Connection uids
/// equal the ground-truth index of the connection, which survives the
/// final time-sort and lets tests join logs back to truth exactly. Each
/// DNS row's names are interned into the sink's table.
pub struct LogSink {
    conns: Vec<ConnRecord>,
    dns: Vec<DnsTransaction>,
    names: NameTable,
}

impl LogSink {
    /// An empty sink.
    pub(crate) fn new() -> LogSink {
        LogSink { conns: Vec::new(), dns: Vec::new(), names: NameTable::default() }
    }

    /// Append another sink's emissions after this one's, keeping the
    /// uid = emission-index invariant by offsetting the absorbed uids and
    /// moving the absorbed rows' names into this sink's table.
    /// This is how per-shard sinks from a parallel run are merged back
    /// into one emission stream (in shard order, which is fixed by the
    /// house partition, not by worker scheduling).
    pub(crate) fn absorb(&mut self, other: LogSink) {
        let off = self.conns.len() as u64;
        if off == 0 {
            // First shard: take the buffer wholesale — uids are already
            // 0-based, so the remap below would be `+= 0` on every record.
            self.conns = other.conns;
        } else {
            self.conns.extend(other.conns.into_iter().map(|mut c| {
                c.uid += off;
                c
            }));
        }
        if self.dns.is_empty() {
            // Names come only with rows: take the table as it is.
            self.dns = other.dns;
            self.names = other.names;
        } else {
            let ids = self.names.absorb(&other.names);
            self.dns.extend(other.dns.into_iter().map(|mut t| {
                t.remap_names(&ids);
                t
            }));
        }
    }

    /// Finish into sorted logs, also returning the DNS permutation:
    /// `perm[emission_index] = sorted_index`. Emission order is only
    /// approximately time-ordered (the engine emits future-offset actions
    /// eagerly), so ground-truth indices must be remapped through this.
    /// Connection identity survives the sort via `uid`; DNS records have
    /// no uid field, hence the explicit permutation.
    pub(crate) fn into_logs_and_dns_perm(self) -> (Logs, Vec<usize>) {
        let mut order: Vec<usize> = (0..self.dns.len()).collect();
        // Unstable sort with the emission index as tiebreaker == stable
        // sort by ts (order starts ascending), minus the merge buffer.
        order.sort_unstable_by_key(|i| (self.dns[*i].ts, *i));
        let mut perm = vec![0usize; order.len()];
        for (sorted_pos, emission_idx) in order.iter().enumerate() {
            perm[*emission_idx] = sorted_pos;
        }
        let mut dns_sorted: Vec<Option<DnsTransaction>> = self.dns.into_iter().map(Some).collect();
        let dns: Vec<DnsTransaction> = order
            .iter()
            .map(|i| dns_sorted[*i].take().expect("permutation is a bijection"))
            .collect();
        let mut logs = Logs {
            conns: self.conns,
            dns,
            names: self.names,
            ..Default::default()
        };
        // uid == emission index, so (ts, uid) unstable == stable by ts.
        logs.conns.sort_unstable_by_key(|c| (c.ts, c.uid));
        (logs, perm)
    }
}

impl Default for LogSink {
    fn default() -> Self {
        Self::new()
    }
}

impl Sink for LogSink {
    fn dns(&mut self, e: &DnsEmission<'_>) {
        let query = self.names.intern(e.query);
        let mut answers = Answers::default();
        if let Some(c) = e.cname {
            answers.push(Answer { data: AnswerData::Cname(self.names.intern(c)), ttl: e.ttl });
        }
        for a in e.addrs {
            answers.push(Answer { data: AnswerData::Addr(*a), ttl: e.ttl });
        }
        self.dns.push(DnsTransaction {
            ts: e.ts,
            client: e.client,
            resolver: e.resolver,
            trans_id: e.trans_id,
            query,
            qtype: RrType::A,
            rcode: Some(Rcode::NoError),
            rtt: Some(e.rtt),
            answers,
        });
    }

    fn conn(&mut self, e: &ConnEmission) {
        let (state, resp_pkts, orig_pkts, history) = match e.fate {
            ConnFate::Established => {
                let op = 4 + e.orig_bytes / 1448;
                let rp = 3 + e.resp_bytes / 1448;
                (ConnState::SF, rp, op, History::from("ShAaFf"))
            }
            ConnFate::NoAnswer => (ConnState::S0, 0, 3, History::from("S")),
            ConnFate::Refused => (ConnState::Rej, 1, 1, History::from("Sr")),
        };
        let success = e.fate == ConnFate::Established;
        // Failure semantics mirror what a monitor recovers from packets:
        // a failed UDP "connection" still carried the originator's
        // datagrams; a failed TCP handshake carried no payload at all.
        let (orig_bytes, resp_bytes) = match (success, e.proto) {
            (true, _) => (e.orig_bytes, e.resp_bytes),
            (false, Proto::Udp) => (e.orig_bytes, 0),
            (false, Proto::Tcp) => (0, 0),
        };
        self.conns.push(ConnRecord {
            uid: self.conns.len() as u64,
            ts: e.ts,
            id: FiveTuple {
                orig_addr: e.house,
                orig_port: e.orig_port,
                resp_addr: e.dst,
                resp_port: e.dst_port,
                proto: e.proto,
            },
            duration: e.duration,
            orig_bytes,
            resp_bytes,
            orig_pkts,
            resp_pkts,
            state,
            history,
            service: zeek_lite::service_for_port(e.proto, e.dst_port),
        });
    }
}

/// Where one frame's stored bytes sit in the arena, and when and how
/// long it was on the wire. Plain data: nothing on the heap behind it.
struct FrameEntry {
    ts: Timestamp,
    /// Emission order, the tiebreak among equal timestamps.
    seq: u64,
    offset: usize,
    stored_len: u32,
    wire_len: u32,
}

/// Who a frame goes from and to: hardware and network addresses, source
/// first.
type Ends = (MacAddr, MacAddr, Ipv4Addr, Ipv4Addr);

/// Expands one shard's emissions into real frames, held until they are
/// final.
///
/// Every frame's stored bytes are written once, straight into a byte
/// arena, and indexed. Connections overlap, so emission order is not
/// capture order: [`seal`](PcapSink::seal) sorts the index and marks
/// the frames before a horizon final, the engine's merge emits them, and
/// [`compact`](PcapSink::compact) keeps only the rest. Memory follows the
/// frames pending at once — those of connections still open — not the
/// length of the trace.
pub(crate) struct PcapSink {
    arena: Vec<u8>,
    /// The arena [`compact`](PcapSink::compact) copies the pending
    /// frames into before the two swap.
    spare: Vec<u8>,
    index: Vec<FrameEntry>,
    /// How many frames at the head of the sorted index the last seal
    /// made final.
    released: usize,
    /// Frames pushed so far: the next frame's `seq`.
    pushed: u64,
    /// The last seal's horizon: no later frame may be stamped before it.
    horizon: Timestamp,
    comp: Compressor,
    /// The name being asked about, and its CNAME target if it has one.
    query: NameBuf,
    target: NameBuf,
}

impl PcapSink {
    /// An empty sink.
    pub(crate) fn new() -> PcapSink {
        PcapSink {
            // Doubling from a power of two keeps the capacity one: started
            // at the first frame's 42 bytes it would end at 42 << k.
            arena: Vec::with_capacity(1 << 16),
            spare: Vec::new(),
            index: Vec::new(),
            released: 0,
            pushed: 0,
            horizon: Timestamp::ZERO,
            comp: Compressor::default(),
            query: NameBuf::new(),
            target: NameBuf::new(),
        }
    }

    /// Index the frame written from `offset` to the arena's end, which
    /// declared `virtual_payload` bytes more than it carries.
    fn push(&mut self, ts: Timestamp, offset: usize, virtual_payload: usize) {
        debug_assert!(ts >= self.horizon, "a frame at {ts} behind the sealed horizon {}", self.horizon);
        let stored_len = self.arena.len() - offset;
        self.index.push(FrameEntry {
            ts,
            seq: self.pushed,
            offset,
            stored_len: stored_len as u32,
            wire_len: (stored_len + virtual_payload) as u32,
        });
        self.pushed += 1;
    }

    /// Mark every frame stamped before `horizon` final: sort the index
    /// into capture order and count its final head. The caller promises
    /// that no frame pushed from now on is stamped before `horizon`.
    pub(crate) fn seal(&mut self, horizon: Timestamp) {
        // `(ts, seq)` is a strict total order, so the unstable sort is
        // deterministic (and skips the stable sort's merge buffer).
        self.index.sort_unstable_by_key(|f| (f.ts, f.seq));
        self.released = self.index.partition_point(|f| f.ts < horizon);
        self.horizon = horizon;
    }

    /// The `i`-th frame the last seal made final, as `(ts_nanos,
    /// orig_len, stored bytes cut to snaplen)`.
    pub(crate) fn released(&self, i: usize, snaplen: u32) -> Option<(u64, u32, &[u8])> {
        let f = self.index[..self.released].get(i)?;
        let stored = f.stored_len.min(snaplen) as usize;
        Some((f.ts.nanos(), f.wire_len, &self.arena[f.offset..f.offset + stored]))
    }

    /// Forget the frames the last seal released: the pending frames'
    /// bytes move to the front of the spare arena, which becomes the
    /// arena. Allocates nothing once both arenas hold the most frames
    /// ever pending.
    pub(crate) fn compact(&mut self) {
        self.spare.clear();
        for f in &mut self.index[self.released..] {
            let offset = self.spare.len();
            self.spare.extend_from_slice(&self.arena[f.offset..f.offset + f.stored_len as usize]);
            f.offset = offset;
        }
        std::mem::swap(&mut self.arena, &mut self.spare);
        self.index.drain(..self.released);
        self.released = 0;
    }
}

impl Sink for PcapSink {
    fn dns(&mut self, e: &DnsEmission<'_>) {
        let up = (MacAddr::LOCAL, MacAddr::UPSTREAM, e.client, e.resolver);
        let down = (MacAddr::UPSTREAM, MacAddr::LOCAL, e.resolver, e.client);
        self.query.set(e.query).expect("simulator names are valid");
        let at = self.arena.len();
        dns_frame(&mut self.arena, &mut self.comp, up, (e.client_port, dns_wire::DNS_PORT), e.trans_id, Flags::query(), |w| {
            w.question(&self.query, RrType::A)
        });
        self.push(e.ts, at, 0);

        let at = self.arena.len();
        let ports = (dns_wire::DNS_PORT, e.client_port);
        let owner = match e.cname {
            Some(c) => {
                self.target.set(c).expect("valid cname");
                &self.target
            }
            None => &self.query,
        };
        dns_frame(&mut self.arena, &mut self.comp, down, ports, e.trans_id, Flags::response(Rcode::NoError), |w| {
            w.question(&self.query, RrType::A);
            if e.cname.is_some() {
                w.cname(&self.query, e.ttl, owner);
            }
            for a in e.addrs {
                w.a(owner, e.ttl, *a);
            }
        });
        self.push(e.ts + e.rtt, at, 0);
    }

    fn conn(&mut self, e: &ConnEmission) {
        match e.proto {
            Proto::Tcp => self.tcp_conn(e),
            Proto::Udp => self.udp_conn(e),
        }
    }
}

/// One DNS message in one UDP frame at the arena's end: `sections` writes
/// the question and records behind the header.
fn dns_frame(
    arena: &mut Vec<u8>,
    comp: &mut Compressor,
    (src_mac, dst_mac, src, dst): Ends,
    (src_port, dst_port): (u16, u16),
    id: u16,
    flags: Flags,
    sections: impl FnOnce(&mut MessageWriter<'_>),
) {
    frame::udp(arena, src_mac, dst_mac, src, dst, src_port, dst_port, |out| {
        let mut w = MessageWriter::new(out, comp, id, flags);
        sections(&mut w);
        w.finish();
    });
}

impl PcapSink {
    /// One payload-free TCP segment.
    fn tcp_frame(&mut self, ts: Timestamp, (src_mac, dst_mac, src, dst): Ends, header: TcpHeader<'_>) {
        let at = self.arena.len();
        frame::tcp(&mut self.arena, src_mac, dst_mac, src, dst, header, &[]);
        self.push(ts, at, 0);
    }

    fn tcp_conn(&mut self, e: &ConnEmission) {
        // Initial sequence numbers derived from the flow so replays are
        // deterministic.
        let isn_o = (e.ts.nanos() as u32).wrapping_mul(2654435761);
        let isn_r = isn_o.wrapping_add(0x1234_5678);
        let half = Duration(e.rtt.nanos() / 2);
        let syn = |seq| TcpHeader::syn(e.orig_port, e.dst_port, seq);
        let out = (MacAddr::LOCAL, MacAddr::UPSTREAM, e.house, e.dst);
        let back = (MacAddr::UPSTREAM, MacAddr::LOCAL, e.dst, e.house);
        match e.fate {
            ConnFate::NoAnswer => {
                // SYN + two retransmits, one second apart (classic backoff).
                for dt in [0u64, 1, 3] {
                    self.tcp_frame(e.ts + Duration::from_secs(dt), out, syn(isn_o));
                }
            }
            ConnFate::Refused => {
                self.tcp_frame(e.ts, out, syn(isn_o));
                self.tcp_frame(
                    e.ts + e.rtt,
                    back,
                    TcpHeader::segment(e.dst_port, e.orig_port, 0, isn_o + 1, TcpFlags::RST),
                );
            }
            ConnFate::Established => {
                self.tcp_frame(e.ts, out, syn(isn_o));
                self.tcp_frame(e.ts + half, back, TcpHeader {
                    flags: TcpFlags::SYN_ACK,
                    ..TcpHeader::syn(e.dst_port, e.orig_port, isn_r)
                });
                self.tcp_frame(e.ts + e.rtt, out, TcpHeader::segment(
                    e.orig_port, e.dst_port, isn_o.wrapping_add(1), isn_r.wrapping_add(1), TcpFlags::ACK,
                ));
                // Mid-connection sequence markers: enough to keep the
                // monitor's inactivity timers from splitting the flow, and
                // to spread byte progress across the lifetime. Byte counts
                // are carried purely in sequence space (payloads are not
                // materialised), exactly like a snaplen-limited capture.
                let end = e.ts + e.duration;
                let markers = (e.duration.as_secs() / 100).min(64) + 1;
                for k in 1..=markers {
                    let frac = k as f64 / markers as f64;
                    let at = e.ts + Duration((e.duration.nanos() as f64 * frac) as u64);
                    if at >= end {
                        break;
                    }
                    let o_prog = (e.orig_bytes as f64 * frac) as u32;
                    let r_prog = (e.resp_bytes as f64 * frac) as u32;
                    self.tcp_frame(at, out, TcpHeader::segment(
                        e.orig_port, e.dst_port,
                        isn_o.wrapping_add(1).wrapping_add(o_prog),
                        isn_r.wrapping_add(1).wrapping_add(r_prog),
                        TcpFlags::PSH_ACK,
                    ));
                    self.tcp_frame(at + half, back, TcpHeader::segment(
                        e.dst_port, e.orig_port,
                        isn_r.wrapping_add(1).wrapping_add(r_prog),
                        isn_o.wrapping_add(1).wrapping_add(o_prog),
                        TcpFlags::PSH_ACK,
                    ));
                }
                // Clean close carrying the final sequence positions.
                let fin_o = isn_o.wrapping_add(1).wrapping_add(e.orig_bytes as u32);
                let fin_r = isn_r.wrapping_add(1).wrapping_add(e.resp_bytes as u32);
                self.tcp_frame(end, out, TcpHeader::segment(
                    e.orig_port, e.dst_port, fin_o, fin_r, TcpFlags::FIN_ACK,
                ));
                self.tcp_frame(end + half, back, TcpHeader::segment(
                    e.dst_port, e.orig_port, fin_r, fin_o.wrapping_add(1), TcpFlags::FIN_ACK,
                ));
                self.tcp_frame(end + e.rtt, out, TcpHeader::segment(
                    e.orig_port, e.dst_port, fin_o.wrapping_add(1), fin_r.wrapping_add(1), TcpFlags::ACK,
                ));
            }
        }
    }

    /// One UDP datagram that declares `declared` payload bytes and
    /// carries none.
    fn udp_frame(&mut self, ts: Timestamp, (src_mac, dst_mac, src, dst): Ends, ports: (u16, u16), declared: u64) {
        let at = self.arena.len();
        frame::udp_virtual(&mut self.arena, src_mac, dst_mac, src, dst, ports.0, ports.1, declared as usize);
        self.push(ts, at, declared as usize);
    }

    fn udp_conn(&mut self, e: &ConnEmission) {
        let half = Duration(e.rtt.nanos() / 2);
        let out = (MacAddr::LOCAL, MacAddr::UPSTREAM, e.house, e.dst);
        let back = (MacAddr::UPSTREAM, MacAddr::LOCAL, e.dst, e.house);
        // Enough datagrams that (i) no inter-packet gap exceeds the
        // monitor's 60 s flow timeout and (ii) no single datagram declares
        // more than the UDP maximum. Both hold for any flow only because
        // the count is uncapped.
        let by_time = e.duration.as_secs() / 25 + 1;
        let by_size = (e.orig_bytes.max(e.resp_bytes) / 60_000) + 1;
        let steps = by_time.max(by_size);
        for k in 0..steps {
            let at = e.ts + Duration((e.duration.nanos() as f64 * k as f64 / steps as f64) as u64);
            self.udp_frame(at, out, (e.orig_port, e.dst_port), split_bytes(e.orig_bytes, steps, k));
            let resp = split_bytes(e.resp_bytes, steps, k);
            if e.fate == ConnFate::Established && resp > 0 {
                self.udp_frame(at + half, back, (e.dst_port, e.orig_port), resp);
            }
        }
    }
}

/// Chunk `k` of `total` bytes split into `steps` chunks that sum exactly.
/// A zero total yields all-zero chunks: the datagrams are still emitted (a
/// flow needs packets to exist) but declare no payload, matching the log
/// backend.
fn split_bytes(total: u64, steps: u64, k: u64) -> u64 {
    total / steps + u64::from(k < total % steps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use zeek_lite::{Monitor, MonitorConfig};

    fn dns_emission() -> DnsEmission<'static> {
        DnsEmission {
            ts: Timestamp::from_secs(10),
            client: Ipv4Addr::new(10, 77, 0, 1),
            resolver: Ipv4Addr::new(198, 51, 100, 53),
            trans_id: 99,
            client_port: 54000,
            query: "www.s0001.com",
            rtt: Duration::from_millis(6),
            cname: Some("edge-1.cdnint.net"),
            addrs: {
                const ADDRS: &[Ipv4Addr] = &[Ipv4Addr::new(104, 16, 0, 5)];
                ADDRS
            },
            ttl: 300,
        }
    }

    fn conn_emission(fate: ConnFate, proto: Proto) -> ConnEmission {
        ConnEmission {
            ts: Timestamp::from_secs(11),
            house: Ipv4Addr::new(10, 77, 0, 1),
            orig_port: 50001,
            dst: Ipv4Addr::new(104, 16, 0, 5),
            dst_port: 443,
            proto,
            duration: Duration::from_millis(800),
            orig_bytes: 1_200,
            resp_bytes: 250_000,
            rtt: Duration::from_millis(20),
            fate,
        }
    }

    /// One shard's part of a slice's release, as the engine makes it:
    /// seal at `horizon`, hand the frames that made final to `emit` in
    /// capture order, compact; returns the count.
    fn release(sink: &mut PcapSink, horizon: Timestamp, snaplen: u32, mut emit: impl FnMut(u64, u32, &[u8])) -> u64 {
        sink.seal(horizon);
        let mut n = 0;
        while let Some((ts_nanos, orig_len, data)) = sink.released(n, snaplen) {
            emit(ts_nanos, orig_len, data);
            n += 1;
        }
        sink.compact();
        n as u64
    }

    /// Every frame still pending, as the final flush releases them.
    const END: Timestamp = Timestamp(u64::MAX);

    /// The pcap capture of a final flush, and its frame count.
    fn capture(sink: &mut PcapSink, snaplen: u32) -> (Vec<u8>, u64) {
        let mut w = pcapio::PcapWriter::new(Vec::new(), snaplen).unwrap();
        let frames = release(sink, END, snaplen, |ts_nanos, orig_len, data| {
            w.write_packet(ts_nanos, data, orig_len).unwrap()
        });
        (w.into_inner().unwrap(), frames)
    }

    #[test]
    fn log_sink_produces_matching_records() {
        let mut sink = LogSink::new();
        sink.dns(&dns_emission());
        sink.conn(&conn_emission(ConnFate::Established, Proto::Tcp));
        let logs = sink.into_logs_and_dns_perm().0;
        assert_eq!(logs.dns.len(), 1);
        assert_eq!(logs.conns.len(), 1);
        let d = &logs.dns[0];
        assert_eq!(d.answers.len(), 2); // cname + addr
        assert_eq!(d.min_ttl(), Some(300));
        let c = &logs.conns[0];
        assert_eq!(c.state, ConnState::SF);
        assert_eq!(c.resp_bytes, 250_000);
        assert_eq!(c.service, Some("ssl"));
    }

    /// A later shard's rows keep their names through the merge: each id
    /// is remapped into the first shard's table, a name both know once.
    #[test]
    fn absorbed_sinks_share_one_name_table() {
        let mut first = LogSink::new();
        first.dns(&dns_emission());
        let mut second = LogSink::new();
        second.dns(&DnsEmission { query: "www.s0002.com", cname: None, ..dns_emission() });
        second.dns(&dns_emission());
        first.absorb(second);
        let logs = first.into_logs_and_dns_perm().0;
        let rows: Vec<_> = logs
            .dns
            .iter()
            .map(|t| {
                let cname = t.answers.iter().find_map(|a| match a.data {
                    AnswerData::Cname(target) => Some(logs.names.name(target)),
                    _ => None,
                });
                (logs.names.name(t.query), cname)
            })
            .collect();
        let edge = Some("edge-1.cdnint.net");
        assert_eq!(rows, [("www.s0001.com", edge), ("www.s0002.com", None), ("www.s0001.com", edge)]);
        assert_eq!(logs.names.len(), 3);
    }

    #[test]
    fn log_sink_failed_conns_have_no_bytes() {
        let mut sink = LogSink::new();
        sink.conn(&conn_emission(ConnFate::NoAnswer, Proto::Tcp));
        sink.conn(&conn_emission(ConnFate::Refused, Proto::Tcp));
        let logs = sink.into_logs_and_dns_perm().0;
        assert_eq!(logs.conns[0].state, ConnState::S0);
        assert_eq!(logs.conns[0].resp_bytes, 0);
        assert_eq!(logs.conns[1].state, ConnState::Rej);
    }

    /// The crucial fidelity property: pcap emission re-parsed by the real
    /// monitor must reproduce the same transactions and byte counts the
    /// log sink produces directly.
    #[test]
    fn pcap_sink_agrees_with_log_sink() {
        let d = dns_emission();
        let ct = conn_emission(ConnFate::Established, Proto::Tcp);
        let cu = {
            let mut c = conn_emission(ConnFate::Established, Proto::Udp);
            c.orig_port = 50002;
            c.duration = Duration::from_secs(130); // forces multiple datagrams
            c
        };
        let failed = {
            let mut c = conn_emission(ConnFate::NoAnswer, Proto::Udp);
            c.orig_port = 50003;
            c.dst_port = 123;
            c.orig_bytes = 48;
            c.resp_bytes = 0;
            c.duration = Duration::ZERO;
            c
        };

        let mut pcap = PcapSink::new();
        pcap.dns(&d);
        pcap.conn(&ct);
        pcap.conn(&cu);
        pcap.conn(&failed);
        // 192: both DNS frames are stored whole.
        let (buf, frames) = capture(&mut pcap, 192);
        assert!(frames > 8);

        let logs = Monitor::process_pcap(&buf[..], MonitorConfig::default()).unwrap();
        // DNS side: the row the log sink writes directly, names and all.
        let mut direct = LogSink::new();
        direct.dns(&d);
        let direct = direct.into_logs_and_dns_perm().0;
        assert_eq!(logs.dns, direct.dns);
        assert_eq!(logs.names.name(logs.dns[0].query), d.query);
        assert_eq!(logs.names.len(), direct.names.len());
        assert_eq!(logs.dns[0].rtt, Some(d.rtt));
        assert_eq!(logs.dns[0].rcode, Some(Rcode::NoError));
        assert_eq!(logs.dns[0].addrs().collect::<Vec<_>>(), d.addrs);
        // Connections: dns flow + tcp + udp + failed udp.
        let apps: Vec<_> = logs.app_conns().collect();
        assert_eq!(apps.len(), 3);
        let tcp = apps.iter().find(|c| c.id.proto == Proto::Tcp).unwrap();
        assert_eq!(tcp.state, ConnState::SF);
        assert_eq!(tcp.orig_bytes, ct.orig_bytes);
        assert_eq!(tcp.resp_bytes, ct.resp_bytes);
        assert_eq!(tcp.ts, ct.ts);
        assert_eq!(tcp.duration.as_secs(), ct.duration.as_secs() + 0); // close handshake adds < 1 s
        let udp_ok = apps
            .iter()
            .find(|c| c.id.proto == Proto::Udp && c.id.resp_port == 443)
            .unwrap();
        assert_eq!(udp_ok.orig_bytes, cu.orig_bytes);
        assert_eq!(udp_ok.resp_bytes, cu.resp_bytes);
        let ntp = apps
            .iter()
            .find(|c| c.id.resp_port == 123)
            .unwrap();
        assert_eq!(ntp.state, ConnState::S0);
        assert_eq!(ntp.resp_bytes, 0);

        // A snaplen below the 42 header bytes cuts what is stored, never
        // what the frame declares it was on the wire.
        let mut cut = PcapSink::new();
        cut.conn(&cu);
        let mut declared = 0u64;
        let frames = release(&mut cut, END, 40, |_, orig_len, data| {
            assert_eq!(data.len(), 40);
            declared += u64::from(orig_len) - 42;
        });
        assert!(frames >= 12, "130 s of UDP is at least six datagrams each way");
        assert_eq!(declared, cu.orig_bytes + cu.resp_bytes);
    }

    #[test]
    fn refused_tcp_parses_as_rej() {
        let mut pcap = PcapSink::new();
        pcap.conn(&conn_emission(ConnFate::Refused, Proto::Tcp));
        let (buf, _) = capture(&mut pcap, 128);
        let logs = Monitor::process_pcap(&buf[..], MonitorConfig::default()).unwrap();
        assert_eq!(logs.conns[0].state, ConnState::Rej);
    }

    #[test]
    fn long_tcp_conn_survives_inactivity_timeout() {
        let mut e = conn_emission(ConnFate::Established, Proto::Tcp);
        e.duration = Duration::from_secs(1_200); // 20 minutes
        let mut pcap = PcapSink::new();
        pcap.conn(&e);
        let (buf, _) = capture(&mut pcap, 128);
        let logs = Monitor::process_pcap(&buf[..], MonitorConfig::default()).unwrap();
        let apps: Vec<_> = logs.app_conns().collect();
        assert_eq!(apps.len(), 1, "flow must not be split by the tcp timeout");
        assert_eq!(apps[0].resp_bytes, e.resp_bytes);
    }

    /// Sealing at a horizon, releasing and compacting, slice after slice,
    /// hands out the frames one final flush would, in the same order; a
    /// frame pending across a compaction keeps its bytes.
    #[test]
    fn sliced_release_equals_one_flush() {
        let mut long = conn_emission(ConnFate::Established, Proto::Tcp);
        long.duration = Duration::from_secs(1_200);
        let mut udp = conn_emission(ConnFate::Established, Proto::Udp);
        udp.ts = Timestamp::from_secs(400);
        udp.duration = Duration::from_secs(130);
        fn record(out: &mut Vec<(u64, u32, Vec<u8>)>) -> impl FnMut(u64, u32, &[u8]) + '_ {
            |ts_nanos, orig_len, data| out.push((ts_nanos, orig_len, data.to_vec()))
        }

        let mut whole = PcapSink::new();
        whole.dns(&dns_emission());
        whole.conn(&long);
        whole.conn(&udp);
        let mut expected = Vec::new();
        release(&mut whole, END, 96, record(&mut expected));

        let mut sliced = PcapSink::new();
        sliced.dns(&dns_emission());
        sliced.conn(&long);
        let mut got = Vec::new();
        for horizon in [60, 400] {
            release(&mut sliced, Timestamp::from_secs(horizon), 96, record(&mut got));
        }
        sliced.conn(&udp);
        assert!(got.len() > 3 && sliced.index.len() > 3, "frames on both sides of the cut");
        release(&mut sliced, END, 96, record(&mut got));
        assert_eq!(got, expected);
    }

    #[test]
    fn split_bytes_sums_exactly() {
        for (total, steps) in [(0u64, 1u64), (10, 3), (60_001, 2), (1_000_000, 7)] {
            let chunks = (0..steps).map(|k| split_bytes(total, steps, k));
            assert_eq!(chunks.clone().sum::<u64>(), total);
            assert!(chunks.clone().max().unwrap() - chunks.min().unwrap() <= 1);
        }
    }
}
