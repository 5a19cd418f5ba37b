//! Flow tracking: turning a packet stream into connection records.
//!
//! TCP connections are delineated by SYN/FIN/RST the way Bro does it; UDP
//! "connections" are all packets sharing an endpoint pair, ended by a
//! 60-second inactivity timeout (the paper's stated methodology). TCP byte
//! counts are recovered from sequence space so that snaplen-truncated
//! captures still produce correct volumes — Zeek's approach.

use crate::history::History;
use crate::time::{Duration, Timestamp};
use crate::types::{FiveTuple, Proto};
use netpkt::TcpFlags;
use std::collections::hash_map::{Entry, HashMap};
use std::net::Ipv4Addr;

/// Terminal state of a connection, following Zeek's conn_state vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConnState {
    /// Connection attempt seen, no reply.
    S0,
    /// Established, never terminated (flushed at timeout or end of trace).
    S1,
    /// Normal establishment and termination.
    SF,
    /// Connection attempt rejected (SYN answered by RST).
    Rej,
    /// Established, originator aborted with RST.
    RstO,
    /// Established, responder aborted with RST.
    RstR,
    /// Midstream or otherwise unclassifiable traffic.
    Oth,
}

impl ConnState {
    /// Log spelling (Zeek's).
    pub fn log_name(self) -> &'static str {
        match self {
            ConnState::S0 => "S0",
            ConnState::S1 => "S1",
            ConnState::SF => "SF",
            ConnState::Rej => "REJ",
            ConnState::RstO => "RSTO",
            ConnState::RstR => "RSTR",
            ConnState::Oth => "OTH",
        }
    }

    /// Parse the log spelling back.
    pub fn from_log_name(s: &str) -> Option<ConnState> {
        Some(match s {
            "S0" => ConnState::S0,
            "S1" => ConnState::S1,
            "SF" => ConnState::SF,
            "REJ" => ConnState::Rej,
            "RSTO" => ConnState::RstO,
            "RSTR" => ConnState::RstR,
            "OTH" => ConnState::Oth,
            _ => return None,
        })
    }
}

/// One connection summary — the analogue of a Bro conn.log line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConnRecord {
    /// Unique id within the capture.
    pub uid: u64,
    /// Time of the first packet.
    pub ts: Timestamp,
    /// Oriented endpoints.
    pub id: FiveTuple,
    /// First-to-last-packet span.
    pub duration: Duration,
    /// Payload bytes from the originator.
    pub orig_bytes: u64,
    /// Payload bytes from the responder.
    pub resp_bytes: u64,
    /// Packets from the originator.
    pub orig_pkts: u64,
    /// Packets from the responder.
    pub resp_pkts: u64,
    /// Terminal state.
    pub state: ConnState,
    /// Order of notable events ('S' SYN, 'h' SYN-ACK, 'A'/'a' ACK,
    /// 'D'/'d' data, 'F'/'f' FIN, 'R'/'r' RST; upper = originator).
    pub history: History,
    /// Well-known service guessed from the responder port.
    pub service: Option<&'static str>,
}

impl ConnRecord {
    /// Total payload bytes in both directions.
    pub fn total_bytes(&self) -> u64 {
        self.orig_bytes + self.resp_bytes
    }

    /// Application-level throughput in bits/second (both directions), or
    /// `None` for zero-duration or zero-byte connections.
    pub fn throughput_bps(&self) -> Option<f64> {
        if self.duration == Duration::ZERO || self.total_bytes() == 0 {
            return None;
        }
        Some(self.total_bytes() as f64 * 8.0 / self.duration.as_secs_f64())
    }

    /// True for DNS traffic (which the analysis treats as its own dataset,
    /// not as application transactions).
    pub fn is_dns(&self) -> bool {
        self.service == Some("dns")
    }
}

/// Guess the service from the responder port, Zeek-style.
pub fn service_for_port(proto: Proto, resp_port: u16) -> Option<&'static str> {
    match (proto, resp_port) {
        (_, 53) => Some("dns"),
        (_, 853) => Some("dot"),
        (Proto::Tcp, 80) => Some("http"),
        (Proto::Tcp, 443) => Some("ssl"),
        (Proto::Udp, 443) => Some("quic"),
        (Proto::Udp, 123) => Some("ntp"),
        (Proto::Tcp, 25) | (Proto::Tcp, 465) | (Proto::Tcp, 587) => Some("smtp"),
        (Proto::Tcp, 993) => Some("imap"),
        (Proto::Udp, 5353) => Some("mdns"),
        _ => None,
    }
}

/// What the tracker needs to know about one packet.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PktMeta {
    pub ts: Timestamp,
    pub src: Ipv4Addr,
    pub dst: Ipv4Addr,
    pub src_port: u16,
    pub dst_port: u16,
    pub proto: Proto,
    /// TCP flags; `None` for UDP.
    pub tcp_flags: Option<TcpFlags>,
    /// TCP sequence number; `None` for UDP.
    pub seq: Option<u32>,
    /// Payload length declared by the headers.
    pub payload_len: u64,
}

#[derive(Debug, Default)]
struct DirStats {
    pkts: u64,
    /// Summed declared payload (UDP accounting).
    udp_bytes: u64,
    /// Initial sequence number from this direction's SYN.
    isn: Option<u64>,
    /// First sequence number seen (fallback when no SYN was captured).
    first_seq: Option<u64>,
    /// Highest extended sequence number consumed (seq + payload + SYN + FIN).
    max_end_seq: Option<u64>,
    /// End of the highest FIN segment seen (seq + payload + SYN + FIN), so
    /// the FIN's sequence number is only discounted when it actually falls
    /// inside the counted range.
    fin_end: Option<u64>,
    syn: bool,
    fin: bool,
    rst: bool,
    data_logged: bool,
    ack_logged: bool,
}

impl DirStats {
    /// Extend a 32-bit sequence number to 64 bits near the last seen value.
    fn extend_seq(&self, seq32: u32) -> u64 {
        let anchor = self.max_end_seq.or(self.isn).or(self.first_seq);
        match anchor {
            None => seq32 as u64,
            Some(last) => {
                let delta = seq32.wrapping_sub(last as u32) as i32 as i64;
                let v = last as i64 + delta;
                if v < 0 {
                    seq32 as u64
                } else {
                    v as u64
                }
            }
        }
    }

    /// Payload bytes this direction carried, from sequence space (TCP).
    fn tcp_bytes(&self) -> u64 {
        let start = match (self.isn, self.first_seq) {
            (Some(isn), _) => isn + 1, // SYN consumes one number
            (None, Some(first)) => first,
            (None, None) => return 0,
        };
        let end = match self.max_end_seq {
            Some(e) => e,
            None => return 0,
        };
        let mut bytes = end.saturating_sub(start);
        // The FIN consumes one sequence number (RFC 793 §3.3), but only
        // discount it when the FIN's number actually lies inside the range
        // we counted — an out-of-order FIN below data we already measured
        // must not shave a payload byte, and a FIN-only direction (start ==
        // end after the SYN adjustment) has nothing to shave.
        if let Some(fe) = self.fin_end {
            if fe > start && fe <= end {
                bytes = bytes.saturating_sub(1);
            }
        }
        bytes
    }
}

#[derive(Debug)]
struct Flow {
    uid: u64,
    tuple: FiveTuple,
    start: Timestamp,
    last: Timestamp,
    orig: DirStats,
    resp: DirStats,
    history: History,
}

impl Flow {
    fn state(&self) -> ConnState {
        match self.tuple.proto {
            Proto::Udp => {
                if self.resp.pkts > 0 {
                    ConnState::SF
                } else {
                    ConnState::S0
                }
            }
            Proto::Tcp => {
                if !self.orig.syn {
                    return ConnState::Oth;
                }
                if self.resp.rst && !self.resp.syn {
                    return ConnState::Rej;
                }
                if !self.resp.syn {
                    return if self.orig.rst { ConnState::Oth } else { ConnState::S0 };
                }
                if self.orig.rst {
                    return ConnState::RstO;
                }
                if self.resp.rst {
                    return ConnState::RstR;
                }
                if self.orig.fin && self.resp.fin {
                    return ConnState::SF;
                }
                ConnState::S1
            }
        }
    }

    fn terminated(&self) -> bool {
        match self.tuple.proto {
            Proto::Udp => false,
            Proto::Tcp => {
                (self.orig.fin && self.resp.fin)
                    || self.orig.rst
                    || self.resp.rst
            }
        }
    }

    fn into_record(self) -> ConnRecord {
        let state = self.state();
        let (orig_bytes, resp_bytes) = match self.tuple.proto {
            Proto::Tcp => (self.orig.tcp_bytes(), self.resp.tcp_bytes()),
            Proto::Udp => (self.orig.udp_bytes, self.resp.udp_bytes),
        };
        ConnRecord {
            uid: self.uid,
            ts: self.start,
            id: self.tuple,
            duration: self.last.since(self.start),
            orig_bytes,
            resp_bytes,
            orig_pkts: self.orig.pkts,
            resp_pkts: self.resp.pkts,
            state,
            history: self.history,
            service: service_for_port(self.tuple.proto, self.tuple.resp_port),
        }
    }
}

/// A flow's orientation-free table key: its two `(address, port)`
/// endpoints as 48-bit words, the lower one first, and the protocol, in
/// one `u128` — one keyed hash of 16 bytes per frame.
fn flow_key(a: Ipv4Addr, a_port: u16, b: Ipv4Addr, b_port: u16, proto: Proto) -> u128 {
    let a = (u64::from(u32::from(a)) << 16) | u64::from(a_port);
    let b = (u64::from(u32::from(b)) << 16) | u64::from(b_port);
    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
    (u128::from(lo) << 49) | (u128::from(hi) << 1) | proto as u128
}

/// The flow table.
pub(crate) struct FlowTracker {
    udp_timeout: Duration,
    tcp_timeout: Duration,
    /// Delay between a TCP connection terminating and its removal, so that
    /// stray retransmits do not spawn ghost flows.
    linger: Duration,
    flows: HashMap<u128, Flow>,
    completed: Vec<ConnRecord>,
    next_uid: u64,
    last_sweep: Timestamp,
    sweep_interval: Duration,
}

impl FlowTracker {
    pub fn new(udp_timeout: Duration, tcp_timeout: Duration) -> FlowTracker {
        FlowTracker {
            udp_timeout,
            tcp_timeout,
            linger: Duration::from_secs(5),
            flows: HashMap::new(),
            completed: Vec::new(),
            next_uid: 1,
            last_sweep: Timestamp::ZERO,
            sweep_interval: Duration::from_secs(10),
        }
    }

    pub fn handle(&mut self, m: PktMeta) {
        self.maybe_sweep(m.ts);
        let tuple = FiveTuple {
            orig_addr: m.src,
            orig_port: m.src_port,
            resp_addr: m.dst,
            resp_port: m.dst_port,
            proto: m.proto,
        };
        let key = flow_key(m.src, m.src_port, m.dst, m.dst_port, m.proto);
        let next_uid = &mut self.next_uid;
        let mut new_flow = || {
            let uid = *next_uid;
            *next_uid += 1;
            Flow {
                uid,
                tuple,
                start: m.ts,
                last: m.ts,
                orig: DirStats::default(),
                resp: DirStats::default(),
                history: History::new(),
            }
        };
        let flow = match self.flows.entry(key) {
            Entry::Occupied(slot) => {
                let flow = slot.into_mut();
                // A terminated TCP flow followed by a fresh SYN on the same
                // tuple starts a new connection (port reuse).
                let fresh_syn = m.tcp_flags.is_some_and(|f| f.syn && !f.ack);
                if fresh_syn && flow.terminated() {
                    self.completed.push(std::mem::replace(flow, new_flow()).into_record());
                }
                flow
            }
            Entry::Vacant(slot) => slot.insert(new_flow()),
        };
        flow.last = m.ts;
        let from_orig = m.src == flow.tuple.orig_addr && m.src_port == flow.tuple.orig_port;
        let (dir, hist_case): (&mut DirStats, fn(char) -> char) = if from_orig {
            (&mut flow.orig, |c| c.to_ascii_uppercase())
        } else {
            (&mut flow.resp, |c| c.to_ascii_lowercase())
        };
        dir.pkts += 1;
        match m.proto {
            Proto::Udp => {
                dir.udp_bytes += m.payload_len;
                if m.payload_len > 0 && !dir.data_logged {
                    dir.data_logged = true;
                    flow.history.push(hist_case('d'));
                }
            }
            Proto::Tcp => {
                let flags = m.tcp_flags.unwrap_or_default();
                let seq32 = m.seq.unwrap_or(0);
                let seq = dir.extend_seq(seq32);
                if flags.syn {
                    match dir.isn {
                        None => dir.isn = Some(seq),
                        // A SYN retransmitted with a *different* ISN before
                        // any data restarts the sequence space; re-anchor so
                        // the stale [old_isn, max_end) range cannot report
                        // phantom bytes.
                        Some(old) if old != seq && !dir.data_logged => {
                            dir.isn = Some(seq);
                            dir.first_seq = Some(seq);
                            dir.max_end_seq = None;
                        }
                        Some(_) => {}
                    }
                }
                if dir.first_seq.is_none() {
                    dir.first_seq = Some(seq);
                }
                let end = seq + m.payload_len + flags.syn as u64 + flags.fin as u64;
                if dir.max_end_seq.map(|e| end > e).unwrap_or(true) {
                    dir.max_end_seq = Some(end);
                }
                if flags.fin {
                    dir.fin_end = Some(dir.fin_end.map_or(end, |e| e.max(end)));
                }
                // History letters, first occurrence each.
                if flags.syn && !flags.ack && !flow.history.contains(hist_case('s')) {
                    flow.history.push(hist_case('s'));
                }
                if flags.syn && flags.ack && !flow.history.contains(hist_case('h')) {
                    flow.history.push(hist_case('h'));
                }
                if flags.ack && !flags.syn && !dir.ack_logged {
                    dir.ack_logged = true;
                    flow.history.push(hist_case('a'));
                }
                if m.payload_len > 0 && !dir.data_logged {
                    dir.data_logged = true;
                    flow.history.push(hist_case('d'));
                }
                if flags.fin && !dir.fin {
                    dir.fin = true;
                    flow.history.push(hist_case('f'));
                }
                if flags.rst && !dir.rst {
                    dir.rst = true;
                    flow.history.push(hist_case('r'));
                }
                if flags.syn {
                    dir.syn = true;
                }
            }
        }
    }

    fn maybe_sweep(&mut self, now: Timestamp) {
        if now.since(self.last_sweep) < self.sweep_interval {
            return;
        }
        self.last_sweep = now;
        let udp_t = self.udp_timeout;
        let tcp_t = self.tcp_timeout;
        let linger = self.linger;
        let expired = self.flows.extract_if(|_, flow| {
            let idle = now.since(flow.last);
            match flow.tuple.proto {
                Proto::Udp => idle >= udp_t,
                Proto::Tcp if flow.terminated() => idle >= linger,
                Proto::Tcp => idle >= tcp_t,
            }
        });
        // Expired flows leave in bucket order; the log sort is total.
        self.completed.extend(expired.map(|(_, flow)| flow.into_record()));
    }

    /// Drain connection records completed so far, in completion order.
    /// The vector keeps its capacity for the records to come.
    pub fn drain_completed(&mut self) -> std::vec::Drain<'_, ConnRecord> {
        self.completed.drain(..)
    }

    /// Flush every remaining flow (end of capture) and return all
    /// records: the completed ones in completion order, then the flushed
    /// ones in bucket order, for the caller to sort.
    pub fn finish(self) -> Vec<ConnRecord> {
        let mut out = self.completed;
        // lint: allow(no-map-iteration): the caller sorts under the total log order
        out.extend(self.flows.into_values().map(Flow::into_record));
        out
    }

    /// Number of currently-tracked flows.
    pub fn active_flows(&self) -> usize {
        self.flows.len()
    }

    /// Start time of the oldest flow still in the table, if any. The
    /// streaming engine uses this as a release watermark: every future
    /// connection record must start at or after this instant.
    pub fn oldest_active_flow_start(&self) -> Option<Timestamp> {
        // lint: allow(no-map-iteration): order-insensitive min
        self.flows.values().map(|f| f.start).min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const H: Ipv4Addr = Ipv4Addr::new(10, 1, 1, 2);
    const S: Ipv4Addr = Ipv4Addr::new(93, 184, 216, 34);

    fn tcp_pkt(ts_ms: u64, from_orig: bool, flags: TcpFlags, seq: u32, payload: u64) -> PktMeta {
        let (src, dst, sp, dp) = if from_orig {
            (H, S, 49152, 443)
        } else {
            (S, H, 443, 49152)
        };
        PktMeta {
            ts: Timestamp::from_millis(ts_ms),
            src,
            dst,
            src_port: sp,
            dst_port: dp,
            proto: Proto::Tcp,
            tcp_flags: Some(flags),
            seq: Some(seq),
            payload_len: payload,
        }
    }

    fn udp_pkt(ts_ms: u64, from_orig: bool, payload: u64) -> PktMeta {
        let (src, dst, sp, dp) = if from_orig {
            (H, S, 50000, 4433)
        } else {
            (S, H, 4433, 50000)
        };
        PktMeta {
            ts: Timestamp::from_millis(ts_ms),
            src,
            dst,
            src_port: sp,
            dst_port: dp,
            proto: Proto::Udp,
            tcp_flags: None,
            seq: None,
            payload_len: payload,
        }
    }

    /// Full handshake, data both ways (via seq advance), clean FIN close.
    fn drive_normal_tcp(t: &mut FlowTracker, base_ms: u64, orig_data: u32, resp_data: u32) {
        let isn_o = 1000u32;
        let isn_r = 9000u32;
        t.handle(tcp_pkt(base_ms, true, TcpFlags::SYN, isn_o, 0));
        t.handle(tcp_pkt(base_ms + 10, false, TcpFlags::SYN_ACK, isn_r, 0));
        t.handle(tcp_pkt(base_ms + 20, true, TcpFlags::ACK, isn_o + 1, 0));
        // Data represented by sequence advance.
        t.handle(tcp_pkt(base_ms + 30, true, TcpFlags::PSH_ACK, isn_o + 1, orig_data as u64));
        t.handle(tcp_pkt(base_ms + 40, false, TcpFlags::PSH_ACK, isn_r + 1, resp_data as u64));
        t.handle(tcp_pkt(base_ms + 50, true, TcpFlags::FIN_ACK, isn_o + 1 + orig_data, 0));
        t.handle(tcp_pkt(base_ms + 60, false, TcpFlags::FIN_ACK, isn_r + 1 + resp_data, 0));
    }

    #[test]
    fn canonical_key_is_orientation_free() {
        let key = flow_key(H, 49152, S, 443, Proto::Tcp);
        assert_eq!(key, flow_key(S, 443, H, 49152, Proto::Tcp));
        for other in [
            flow_key(H, 443, S, 49152, Proto::Tcp),
            flow_key(H, 49152, S, 443, Proto::Udp),
            flow_key(Ipv4Addr::new(10, 1, 1, 3), 49152, S, 443, Proto::Tcp),
            flow_key(H, 49152, Ipv4Addr::new(93, 184, 216, 35), 443, Proto::Tcp),
        ] {
            assert_ne!(key, other);
        }
    }

    #[test]
    fn normal_tcp_connection() {
        let mut t = FlowTracker::new(Duration::from_secs(60), Duration::from_secs(300));
        drive_normal_tcp(&mut t, 1000, 500, 70000);
        let recs = t.finish();
        assert_eq!(recs.len(), 1);
        let r = &recs[0];
        assert_eq!(r.state, ConnState::SF);
        assert_eq!(r.orig_bytes, 500);
        assert_eq!(r.resp_bytes, 70000);
        assert_eq!(r.orig_pkts, 4);
        assert_eq!(r.resp_pkts, 3);
        assert_eq!(r.duration, Duration::from_millis(60));
        assert_eq!(r.service, Some("ssl"));
        assert_eq!(r.id.orig_addr, H);
        assert!(r.history.starts_with("Sh"));
    }

    #[test]
    fn syn_no_answer_is_s0() {
        let mut t = FlowTracker::new(Duration::from_secs(60), Duration::from_secs(300));
        t.handle(tcp_pkt(0, true, TcpFlags::SYN, 1, 0));
        let recs = t.finish();
        assert_eq!(recs[0].state, ConnState::S0);
        assert_eq!(recs[0].orig_bytes, 0);
    }

    #[test]
    fn syn_rst_is_rej() {
        let mut t = FlowTracker::new(Duration::from_secs(60), Duration::from_secs(300));
        t.handle(tcp_pkt(0, true, TcpFlags::SYN, 1, 0));
        t.handle(tcp_pkt(10, false, TcpFlags::RST, 0, 0));
        let recs = t.finish();
        assert_eq!(recs[0].state, ConnState::Rej);
    }

    #[test]
    fn established_then_rst_by_orig() {
        let mut t = FlowTracker::new(Duration::from_secs(60), Duration::from_secs(300));
        t.handle(tcp_pkt(0, true, TcpFlags::SYN, 1, 0));
        t.handle(tcp_pkt(10, false, TcpFlags::SYN_ACK, 100, 0));
        t.handle(tcp_pkt(20, true, TcpFlags::ACK, 2, 0));
        t.handle(tcp_pkt(30, true, TcpFlags::RST, 2, 0));
        let recs = t.finish();
        assert_eq!(recs[0].state, ConnState::RstO);
    }

    #[test]
    fn midstream_traffic_is_oth() {
        let mut t = FlowTracker::new(Duration::from_secs(60), Duration::from_secs(300));
        t.handle(tcp_pkt(0, true, TcpFlags::PSH_ACK, 5000, 100));
        t.handle(tcp_pkt(10, false, TcpFlags::ACK, 800, 0));
        let recs = t.finish();
        assert_eq!(recs[0].state, ConnState::Oth);
        // Bytes still counted from first seen seq.
        assert_eq!(recs[0].orig_bytes, 100);
    }

    #[test]
    fn udp_flow_with_timeout() {
        let mut t = FlowTracker::new(Duration::from_secs(60), Duration::from_secs(300));
        t.handle(udp_pkt(0, true, 100));
        t.handle(udp_pkt(500, false, 2000));
        // 61 s later: a packet on another tuple triggers the sweep.
        t.handle(tcp_pkt(61_500, true, TcpFlags::SYN, 1, 0));
        let done: Vec<ConnRecord> = t.drain_completed().collect();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id.proto, Proto::Udp);
        assert_eq!(done[0].orig_bytes, 100);
        assert_eq!(done[0].resp_bytes, 2000);
        assert_eq!(done[0].state, ConnState::SF);
        assert_eq!(done[0].duration, Duration::from_millis(500));
    }

    #[test]
    fn udp_continued_activity_keeps_flow_open() {
        let mut t = FlowTracker::new(Duration::from_secs(60), Duration::from_secs(300));
        for i in 0..10 {
            t.handle(udp_pkt(i * 30_000, true, 10)); // every 30 s
        }
        assert_eq!(t.drain_completed().len(), 0);
        let recs = t.finish();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].orig_pkts, 10);
    }

    #[test]
    fn seq_wraparound_counts_bytes() {
        let mut t = FlowTracker::new(Duration::from_secs(60), Duration::from_secs(300));
        let isn = u32::MAX - 10;
        t.handle(tcp_pkt(0, true, TcpFlags::SYN, isn, 0));
        t.handle(tcp_pkt(10, false, TcpFlags::SYN_ACK, 0, 0));
        // Data that wraps the 32-bit space: seq isn+1, 100 bytes.
        t.handle(tcp_pkt(20, true, TcpFlags::PSH_ACK, isn.wrapping_add(1), 100));
        let recs = t.finish();
        assert_eq!(recs[0].orig_bytes, 100);
    }

    #[test]
    fn retransmission_does_not_double_count() {
        let mut t = FlowTracker::new(Duration::from_secs(60), Duration::from_secs(300));
        t.handle(tcp_pkt(0, true, TcpFlags::SYN, 100, 0));
        t.handle(tcp_pkt(10, false, TcpFlags::SYN_ACK, 500, 0));
        t.handle(tcp_pkt(20, true, TcpFlags::PSH_ACK, 101, 50));
        t.handle(tcp_pkt(30, true, TcpFlags::PSH_ACK, 101, 50)); // retransmit
        let recs = t.finish();
        assert_eq!(recs[0].orig_bytes, 50);
        assert_eq!(recs[0].orig_pkts, 3);
    }

    #[test]
    fn port_reuse_after_termination_starts_new_conn() {
        let mut t = FlowTracker::new(Duration::from_secs(60), Duration::from_secs(300));
        drive_normal_tcp(&mut t, 0, 10, 10);
        // Same 5-tuple, fresh SYN.
        drive_normal_tcp(&mut t, 10_000, 20, 20);
        // And again inside the linger, before a sweep has removed the
        // closed flow: its table entry is replaced in place.
        drive_normal_tcp(&mut t, 12_000, 30, 30);
        let recs = t.finish();
        assert_eq!(recs.iter().map(|r| r.orig_bytes).collect::<Vec<_>>(), [10, 20, 30]);
        assert_eq!(recs.iter().map(|r| r.uid).collect::<Vec<_>>(), [1, 2, 3]);
    }

    #[test]
    fn throughput_helper() {
        let mut t = FlowTracker::new(Duration::from_secs(60), Duration::from_secs(300));
        drive_normal_tcp(&mut t, 0, 0, 60_000);
        let recs = t.finish();
        let bps = recs[0].throughput_bps().unwrap();
        // 60 kB over 60 ms = 8 Mbit/s.
        assert!((bps - 8_000_000.0).abs() < 1.0, "bps = {bps}");
    }

    #[test]
    fn rst_after_clean_close_does_not_flip_state() {
        // Some stacks fire an RST after FIN exchange; Zeek keeps SF. Our
        // simplified machine reports RSTO — both are "terminated"; what
        // matters is the byte counts survive.
        let mut t = FlowTracker::new(Duration::from_secs(60), Duration::from_secs(300));
        drive_normal_tcp(&mut t, 0, 100, 200);
        t.handle(tcp_pkt(100, true, TcpFlags::RST, 1101, 0));
        let recs = t.finish();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].orig_bytes, 100);
        assert_eq!(recs[0].resp_bytes, 200);
        assert!(matches!(recs[0].state, ConnState::SF | ConnState::RstO));
    }

    #[test]
    fn syn_retransmits_counted_once_in_bytes() {
        let mut t = FlowTracker::new(Duration::from_secs(60), Duration::from_secs(300));
        t.handle(tcp_pkt(0, true, TcpFlags::SYN, 77, 0));
        t.handle(tcp_pkt(1_000, true, TcpFlags::SYN, 77, 0));
        t.handle(tcp_pkt(3_000, true, TcpFlags::SYN, 77, 0));
        let recs = t.finish();
        assert_eq!(recs[0].state, ConnState::S0);
        assert_eq!(recs[0].orig_pkts, 3);
        assert_eq!(recs[0].orig_bytes, 0);
    }

    #[test]
    fn tfo_style_data_on_syn_counted() {
        // TCP Fast Open: payload on the SYN itself.
        let mut t = FlowTracker::new(Duration::from_secs(60), Duration::from_secs(300));
        let mut syn = tcp_pkt(0, true, TcpFlags::SYN, 500, 0);
        syn.payload_len = 32;
        t.handle(syn);
        t.handle(tcp_pkt(10, false, TcpFlags::SYN_ACK, 900, 0));
        let recs = t.finish();
        assert_eq!(recs[0].orig_bytes, 32);
    }

    #[test]
    fn out_of_order_segments_do_not_shrink_bytes() {
        let mut t = FlowTracker::new(Duration::from_secs(60), Duration::from_secs(300));
        t.handle(tcp_pkt(0, true, TcpFlags::SYN, 1_000, 0));
        t.handle(tcp_pkt(5, false, TcpFlags::SYN_ACK, 2_000, 0));
        // Later data arrives first, then the earlier hole is filled.
        t.handle(tcp_pkt(20, true, TcpFlags::PSH_ACK, 1_501, 500));
        t.handle(tcp_pkt(25, true, TcpFlags::PSH_ACK, 1_001, 500));
        let recs = t.finish();
        assert_eq!(recs[0].orig_bytes, 1_000);
    }

    #[test]
    fn two_flows_same_ports_different_hosts_stay_separate() {
        let mut t = FlowTracker::new(Duration::from_secs(60), Duration::from_secs(300));
        let mut a = udp_pkt(0, true, 10);
        let mut b = udp_pkt(1, true, 20);
        b.src = Ipv4Addr::new(10, 1, 1, 3);
        a.dst_port = 443;
        b.dst_port = 443;
        t.handle(a);
        t.handle(b);
        let recs = t.finish();
        assert_eq!(recs.len(), 2);
    }

    #[test]
    fn fin_only_direction_reports_zero_bytes() {
        // A lone FIN carries no payload: its sequence number is consumed
        // but no data was transferred, so bytes must be exactly zero (and
        // never wrap through saturating arithmetic).
        let mut t = FlowTracker::new(Duration::from_secs(60), Duration::from_secs(300));
        t.handle(tcp_pkt(0, true, TcpFlags::SYN, 100, 0));
        t.handle(tcp_pkt(10, false, TcpFlags::SYN_ACK, 900, 0));
        t.handle(tcp_pkt(20, false, TcpFlags::FIN_ACK, 901, 0));
        let recs = t.finish();
        assert_eq!(recs[0].resp_bytes, 0);
        assert_eq!(recs[0].orig_bytes, 0);
    }

    #[test]
    fn data_plus_fin_counts_payload_exactly() {
        let mut t = FlowTracker::new(Duration::from_secs(60), Duration::from_secs(300));
        t.handle(tcp_pkt(0, true, TcpFlags::SYN, 100, 0));
        t.handle(tcp_pkt(10, false, TcpFlags::SYN_ACK, 900, 0));
        // 50 bytes of data, then a FIN carrying 10 more bytes.
        t.handle(tcp_pkt(20, true, TcpFlags::PSH_ACK, 101, 50));
        t.handle(tcp_pkt(30, true, TcpFlags::FIN_ACK, 151, 10));
        let recs = t.finish();
        assert_eq!(recs[0].orig_bytes, 60);
    }

    #[test]
    fn out_of_order_fin_below_data_does_not_undercount() {
        // Data advanced max_end_seq past the point where an old
        // (retransmitted, below-window) FIN lands: the FIN's sequence
        // number is outside the counted range, so no byte may be shaved.
        let mut t = FlowTracker::new(Duration::from_secs(60), Duration::from_secs(300));
        t.handle(tcp_pkt(0, true, TcpFlags::PSH_ACK, 5000, 100));
        t.handle(tcp_pkt(10, true, TcpFlags::FIN_ACK, 4000, 0));
        let recs = t.finish();
        assert_eq!(recs[0].orig_bytes, 100);
    }

    #[test]
    fn syn_retransmit_with_new_isn_reports_no_phantom_bytes() {
        // A client giving up and restarting with a fresh ISN (no data ever
        // sent) must not report the ISN delta as payload.
        let mut t = FlowTracker::new(Duration::from_secs(60), Duration::from_secs(300));
        t.handle(tcp_pkt(0, true, TcpFlags::SYN, 1_000, 0));
        t.handle(tcp_pkt(3_000, true, TcpFlags::SYN, 50_000, 0));
        let recs = t.finish();
        assert_eq!(recs[0].state, ConnState::S0);
        assert_eq!(recs[0].orig_bytes, 0);
    }

    #[test]
    fn oldest_active_flow_start_tracks_minimum() {
        let mut t = FlowTracker::new(Duration::from_secs(60), Duration::from_secs(300));
        assert_eq!(t.oldest_active_flow_start(), None);
        t.handle(udp_pkt(5_000, true, 10));
        let mut other = udp_pkt(9_000, true, 10);
        other.src = Ipv4Addr::new(10, 1, 1, 9);
        t.handle(other);
        assert_eq!(t.oldest_active_flow_start(), Some(Timestamp::from_millis(5_000)));
    }

    #[test]
    fn dns_service_detection() {
        let mut t = FlowTracker::new(Duration::from_secs(60), Duration::from_secs(300));
        let mut p = udp_pkt(0, true, 40);
        p.dst_port = 53;
        t.handle(p);
        let recs = t.finish();
        assert!(recs[0].is_dns());
    }
}
