//! The passive monitor: packets in, conn.log + dns.log out.

use crate::counters::{DegradationStats, MonitorStats};
use crate::dns::{Answer, AnswerData, Answers, DnsTransaction};
use crate::names::{NameId, NameTable};
use crate::time::{Duration, Timestamp};
use crate::tracker::{ConnRecord, FlowTracker, PktMeta};
use crate::types::Proto;
use dns_wire::{MessageView, NameBuf, RrType};
use netpkt::{Packet, Transport};
use std::collections::HashMap;
use std::io::Read;
use std::net::Ipv4Addr;
use xkit::obs::Metrics;

/// Monitor tuning knobs. Defaults follow Bro's, which the paper relies on.
#[derive(Debug, Clone)]
pub struct MonitorConfig {
    /// UDP flow inactivity timeout (Bro default 60 s; the paper states it).
    pub udp_timeout: Duration,
    /// TCP inactivity timeout for flows that never terminate.
    pub tcp_timeout: Duration,
    /// How long an unanswered DNS query is held before it is logged
    /// with an empty rtt.
    pub dns_query_timeout: Duration,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            udp_timeout: Duration::from_secs(60),
            tcp_timeout: Duration::from_secs(300),
            dns_query_timeout: Duration::from_secs(30),
        }
    }
}

/// Everything a capture produced.
#[derive(Debug, Clone, Default)]
pub struct Logs {
    /// Connection summaries, sorted by start time.
    pub conns: Vec<ConnRecord>,
    /// DNS transactions, sorted by query time.
    pub dns: Vec<DnsTransaction>,
    /// The names `dns` refers to by id.
    pub names: NameTable,
    /// Whole-capture counters.
    pub stats: MonitorStats,
    /// Classified rejection counters — how partial these logs are.
    pub degradation: DegradationStats,
}

impl Logs {
    /// Application connections only: everything that is not DNS traffic
    /// itself. The paper treats the DNS log and the connection log as
    /// separate datasets; DNS flows must not appear in both.
    pub fn app_conns(&self) -> impl Iterator<Item = &ConnRecord> {
        self.conns.iter().filter(|c| !c.is_dns())
    }

    /// Merge another capture's logs (e.g. from sharded generation),
    /// re-sorting both datasets by time. The other rows' names move into
    /// this table.
    pub fn merge(&mut self, other: Logs) {
        self.conns.extend(other.conns);
        let ids = self.names.absorb(&other.names);
        self.dns.extend(other.dns.into_iter().map(|mut t| {
            t.remap_names(&ids);
            t
        }));
        self.stats.merge(&other.stats);
        self.degradation.merge(&other.degradation);
        self.sort();
    }

    /// Everything these logs can report as one obs snapshot: the monitor
    /// counters, the degradation buckets, row counts
    /// (`zeek.conn_rows`/`zeek.dns_rows`/`zeek.app_conns`), and a
    /// `zeek.dns_rtt_ms` histogram over answered lookups. Histograms are
    /// multisets, so the snapshot is identical however the rows were
    /// sharded or ordered.
    pub fn metrics(&self) -> Metrics {
        let mut m = self.stats.to_metrics();
        self.degradation.store_metrics(&mut m);
        m.add("zeek.conn_rows", self.conns.len() as u64);
        m.add("zeek.dns_rows", self.dns.len() as u64);
        m.add("zeek.app_conns", self.app_conns().count() as u64);
        for d in &self.dns {
            if let Some(rtt) = d.rtt {
                m.observe("zeek.dns_rtt_ms", rtt.as_millis_f64());
            }
        }
        m
    }

    /// Sort both logs into their canonical order: connections by
    /// `(ts, uid)`, DNS transactions by [`DnsTransaction::log_order`].
    /// Both keys are total orders, so the result is independent of the
    /// order rows were accumulated in — a requirement for the streaming
    /// engine, whose per-epoch releases must byte-match the batch logs.
    pub fn sort(&mut self) {
        self.conns.sort_by_key(|c| (c.ts, c.uid));
        sort_dns(&self.names, &mut self.dns);
    }

    /// Columnar projection of the connection log (index-aligned with
    /// `conns`; see [`crate::columns`]). Derived data — rebuild after
    /// mutating the rows.
    pub fn conn_columns(&self) -> crate::columns::ConnColumns {
        crate::columns::ConnColumns::from_rows(&self.conns)
    }

    /// Columnar projection of the DNS log scalars (index-aligned with
    /// `dns`; see [`crate::columns`]). Derived data — rebuild after
    /// mutating the rows.
    pub fn dns_columns(&self) -> crate::columns::DnsColumns {
        crate::columns::DnsColumns::from_rows(&self.dns)
    }

    /// Distinct originator (house) addresses, sorted — the monitored
    /// population. Includes DNS clients so houses with only DNS traffic
    /// in the window still appear.
    pub fn houses(&self) -> Vec<Ipv4Addr> {
        let mut set: Vec<Ipv4Addr> = self
            .conns
            .iter()
            .map(|c| c.id.orig_addr)
            .chain(self.dns.iter().map(|d| d.client))
            .collect();
        set.sort();
        set.dedup();
        set
    }
}

#[derive(Hash, PartialEq, Eq, Clone, Copy)]
struct DnsKey {
    client: Ipv4Addr,
    resolver: Ipv4Addr,
    trans_id: u16,
    query: NameId,
    qtype: u16,
}

struct PendingQuery {
    ts: Timestamp,
    qtype: RrType,
}

/// The monitor itself. Feed frames with
/// [`handle_frame`](Monitor::handle_frame), then call
/// [`finish`](Monitor::finish).
pub struct Monitor {
    config: MonitorConfig,
    tracker: FlowTracker,
    pending_dns: HashMap<DnsKey, PendingQuery>,
    /// The name being read off the wire, and its presentation form,
    /// rendered once per name into a reused `String`.
    name: NameBuf,
    text: String,
    /// Every name a row refers to: interned at its query (or as a CNAME
    /// target), only looked up at a response.
    names: NameTable,
    dns_log: Vec<DnsTransaction>,
    stats: MonitorStats,
    degradation: DegradationStats,
    last_dns_sweep: Timestamp,
    flight: Option<xkit::obs::FlightRecorder>,
}

impl Monitor {
    /// Create a monitor with the given configuration.
    pub fn new(config: MonitorConfig) -> Monitor {
        Monitor {
            tracker: FlowTracker::new(config.udp_timeout, config.tcp_timeout),
            config,
            pending_dns: HashMap::new(),
            name: NameBuf::new(),
            text: String::new(),
            names: NameTable::default(),
            dns_log: Vec::new(),
            stats: MonitorStats::default(),
            degradation: DegradationStats::default(),
            last_dns_sweep: Timestamp::ZERO,
            flight: None,
        }
    }

    /// Attach a flight recorder: every rejected frame records a
    /// `fault.reject` event and every undecodable port-53 payload a
    /// `parse.degrade` event. Only rejection paths touch the recorder —
    /// the per-packet accept path stays recorder-free.
    pub fn set_flight(&mut self, flight: xkit::obs::FlightRecorder) {
        self.flight = Some(flight);
    }

    /// Mid-run snapshot: the monitor counters plus the degradation
    /// buckets, without finishing the capture, written over `m`. Every
    /// family is a monotone counter (plus the max-merged occupancy
    /// gauge), so any snapshot is a valid prefix of the final
    /// [`Logs::metrics`] — in particular `zeek.frames_seen =
    /// zeek.frames_accepted + Σ zeek.reject.*` holds at every instant.
    /// Every key is overwritten, none is allocated after the first call
    /// on the same snapshot.
    pub fn store_live_metrics(&self, m: &mut Metrics) {
        self.stats.store_metrics(m);
        self.degradation.store_metrics(m);
    }

    /// Process one captured frame. `captured` holds the stored bytes
    /// (possibly snaplen-truncated); `orig_len` is the on-wire length.
    pub fn handle_frame(&mut self, ts: Timestamp, captured: &[u8], orig_len: u32) {
        self.stats.wire_bytes += orig_len as u64;
        self.degradation.frames_seen += 1;
        let pkt = match Packet::parse(captured, orig_len as usize) {
            Ok(p) => p,
            Err(e) => {
                self.degradation.record_pkt_error(&e);
                if let Some(flight) = &self.flight {
                    flight.record(
                        "fault.reject",
                        format_args!("{e:?}"),
                        self.degradation.frames_seen as f64,
                    );
                }
                return;
            }
        };
        self.degradation.frames_accepted += 1;
        let (proto, src_port, dst_port, tcp_flags, seq) = match &pkt.transport {
            Transport::Udp(u) => (Proto::Udp, u.src_port, u.dst_port, None, None),
            Transport::Tcp(t) => (Proto::Tcp, t.src_port, t.dst_port, Some(t.flags), Some(t.seq)),
            Transport::Other(_) => {
                self.stats.non_udp_tcp += 1;
                return;
            }
        };
        if src_port == dns_wire::DOT_PORT || dst_port == dns_wire::DOT_PORT {
            self.stats.dot_port_packets += 1;
        }
        self.tracker.handle(PktMeta {
            ts,
            src: pkt.ip.src,
            dst: pkt.ip.dst,
            src_port,
            dst_port,
            proto,
            tcp_flags,
            seq,
            payload_len: pkt.declared_payload as u64,
        });
        self.stats.peak_active_flows =
            self.stats.peak_active_flows.max(self.tracker.active_flows() as u64);
        // DNS transaction extraction from UDP port-53 payloads.
        if proto == Proto::Udp && (src_port == dns_wire::DNS_PORT || dst_port == dns_wire::DNS_PORT) {
            self.handle_dns_payload(ts, pkt.ip.src, pkt.ip.dst, pkt.payload);
        }
        self.maybe_sweep_dns(ts);
    }

    fn handle_dns_payload(&mut self, ts: Timestamp, src: Ipv4Addr, dst: Ipv4Addr, payload: &[u8]) {
        self.degradation.dns_payloads += 1;
        let msg = match MessageView::parse(payload) {
            Ok(m) => m,
            Err(e) => {
                self.degradation.record_dns_error(&e);
                if let Some(flight) = &self.flight {
                    flight.record(
                        "parse.degrade",
                        format_args!("{e:?}"),
                        self.degradation.dns_payloads as f64,
                    );
                }
                return;
            }
        };
        self.degradation.dns_accepted += 1;
        let Some(q) = msg.question() else { return };
        let response = msg.flags().qr;
        // A query travels client -> resolver, its response back.
        let (client, resolver) = if response { (dst, src) } else { (src, dst) };
        q.name.read_into(&mut self.name);
        self.text.clear();
        self.name.write_presentation(&mut self.text);
        let query = if response {
            // A name nobody asked for matches no pending query.
            let Some(query) = self.names.get(&self.text) else { return };
            query
        } else {
            self.names.intern(&self.text)
        };
        let key = DnsKey { client, resolver, trans_id: msg.id(), query, qtype: q.rtype.to_u16() };
        if !response {
            // First query wins (retransmits keep the original timestamp,
            // matching Bro).
            self.pending_dns.entry(key).or_insert(PendingQuery { ts, qtype: q.rtype });
            return;
        }
        let Some(pending) = self.pending_dns.remove(&key) else {
            // Response without an observed query (e.g. capture started
            // mid-flight); skip rather than fabricate a timestamp.
            return;
        };
        let answers = msg
            .answers()
            .map(|r| Answer {
                ttl: r.ttl,
                data: if let Some(a) = r.a() {
                    AnswerData::Addr(a)
                } else if let Some(target) = r.cname() {
                    target.read_into(&mut self.name);
                    self.text.clear();
                    self.name.write_presentation(&mut self.text);
                    AnswerData::Cname(self.names.intern(&self.text))
                } else {
                    AnswerData::Other(r.rtype)
                },
            })
            .collect();
        self.dns_log.push(DnsTransaction {
            ts: pending.ts,
            client,
            resolver,
            trans_id: key.trans_id,
            query,
            qtype: pending.qtype,
            rcode: Some(msg.flags().rcode),
            rtt: Some(ts.since(pending.ts)),
            answers,
        });
    }

    fn maybe_sweep_dns(&mut self, now: Timestamp) {
        if now.since(self.last_dns_sweep) < Duration::from_secs(10) {
            return;
        }
        self.last_dns_sweep = now;
        let timeout = self.config.dns_query_timeout;
        // Expired rows are re-sorted by the total log order.
        self.pending_dns.retain(|key, pending| {
            let expired = now.since(pending.ts) >= timeout;
            if expired {
                self.dns_log.push(unanswered(key, pending));
            }
            !expired
        });
    }

    /// Hand over the connection records completed since the last call, in
    /// completion order. The one caller is the stream engine, once per
    /// epoch; the records are moved out and the monitor keeps the vector's
    /// capacity, so a steady run stops allocating for it.
    pub fn drain_conns(&mut self) -> std::vec::Drain<'_, ConnRecord> {
        self.tracker.drain_completed()
    }

    /// Hand over the DNS transactions recorded since the last call
    /// (matched responses and timed-out queries), in arrival order: the
    /// engine imposes the canonical log order itself, reading their names
    /// through [`names`](Monitor::names). Same contract as
    /// [`drain_conns`](Monitor::drain_conns): one caller, capacity stays.
    pub fn drain_dns(&mut self) -> std::vec::Drain<'_, DnsTransaction> {
        self.dns_log.drain(..)
    }

    /// The names the rows handed over so far refer to. Append-only: an
    /// id stays valid for the monitor's lifetime, and
    /// [`finish`](Monitor::finish) moves the table into the logs.
    pub fn names(&self) -> &NameTable {
        &self.names
    }

    /// Number of flows currently being tracked.
    pub fn active_flows(&self) -> usize {
        self.tracker.active_flows()
    }

    /// Number of DNS queries awaiting a response.
    pub fn pending_dns(&self) -> usize {
        self.pending_dns.len()
    }

    /// Start time of the oldest tracked flow. Every connection record the
    /// monitor emits in the future starts at or after this instant, which
    /// makes it the streaming engine's conn-release watermark.
    pub fn oldest_active_flow_start(&self) -> Option<Timestamp> {
        self.tracker.oldest_active_flow_start()
    }

    /// Query time of the oldest pending DNS query. Every DNS row emitted
    /// in the future carries a query timestamp at or after this instant
    /// (responses and timeouts inherit the query's stamp), making it the
    /// streaming engine's dns-release watermark.
    pub fn oldest_pending_dns_ts(&self) -> Option<Timestamp> {
        // lint: allow(no-map-iteration): order-insensitive min
        self.pending_dns.values().map(|p| p.ts).min()
    }

    /// Degradation buckets accumulated so far.
    pub fn degradation(&self) -> &DegradationStats {
        &self.degradation
    }

    /// Flush all state and return the logs, sorted by time.
    pub fn finish(mut self) -> Logs {
        // lint: allow(no-map-iteration): drained rows are re-sorted by the total log order
        for (key, pending) in self.pending_dns.drain() {
            self.dns_log.push(unanswered(&key, &pending));
        }
        // The order `Logs::sort` gives. Uids are unique within one monitor,
        // so `(ts, uid)` needs no stable sort and the conn log sorts in
        // place, without a scratch copy of its rows; the dns log too.
        let mut conns = self.tracker.finish();
        conns.sort_unstable_by_key(|c| (c.ts, c.uid));
        sort_dns(&self.names, &mut self.dns_log);
        Logs { conns, dns: self.dns_log, names: self.names, stats: self.stats, degradation: self.degradation }
    }

    /// Convenience: drain any [`pcapio::RecordSource`] — file reader,
    /// in-memory ring, or live interface — through a fresh monitor.
    /// Frames are parsed straight out of the source's reusable buffer —
    /// no per-record allocation.
    pub fn process_source<S: pcapio::RecordSource + ?Sized>(
        source: &mut S,
        config: MonitorConfig,
    ) -> Result<Logs, pcapio::PcapError> {
        let mut monitor = Monitor::new(config);
        while let Some(record) = source.next()? {
            monitor.handle_frame(Timestamp(record.ts_nanos), record.data, record.orig_len);
        }
        Ok(monitor.finish())
    }

    /// Convenience: run a whole pcap stream through a fresh monitor —
    /// the file-backend spelling of [`Monitor::process_source`].
    pub fn process_pcap<R: Read>(reader: R, config: MonitorConfig) -> Result<Logs, pcapio::PcapError> {
        let mut source = pcapio::source::file(reader)?;
        Self::process_source(&mut source, config)
    }
}

fn unanswered(key: &DnsKey, pending: &PendingQuery) -> DnsTransaction {
    DnsTransaction {
        ts: pending.ts,
        client: key.client,
        resolver: key.resolver,
        trans_id: key.trans_id,
        query: key.query,
        qtype: pending.qtype,
        rcode: None,
        rtt: None,
        answers: Answers::default(),
    }
}

/// Sort DNS rows into [`DnsTransaction::log_order`], rows that compare
/// equal keeping their arrival order: what a stable sort gives, without
/// its scratch copy of the rows. A `u32` permutation is sorted instead,
/// the arrival index its last tiebreak, then applied in place one cycle
/// at a time.
fn sort_dns(names: &NameTable, rows: &mut [DnsTransaction]) {
    let n = u32::try_from(rows.len()).expect("a dns log holds fewer than 2^32 rows");
    let mut order: Vec<u32> = (0..n).collect();
    order.sort_unstable_by(|&a, &b| {
        DnsTransaction::log_order(names, &rows[a as usize], &rows[b as usize]).then(a.cmp(&b))
    });
    // `order[at]` is the arrival index of the row that belongs at `at`.
    // Walking a cycle moves each of its rows once; a slot done points at
    // itself.
    for start in 0..rows.len() {
        let mut at = start;
        loop {
            let from = order[at] as usize;
            order[at] = at as u32;
            if from == start {
                break;
            }
            rows.swap(at, from);
            at = from;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_wire::{Compressor, Flags, MessageWriter, NameBuf, Rcode};
    use netpkt::{frame, MacAddr, TcpFlags, TcpHeader};

    const HOUSE: Ipv4Addr = Ipv4Addr::new(10, 1, 1, 2);
    const RESOLVER: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 53);
    const SERVER: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 7);

    /// Hand the monitor a frame stored whole.
    fn feed(m: &mut Monitor, ts_ms: u64, frame: &[u8]) {
        m.handle_frame(Timestamp::from_millis(ts_ms), frame, frame.len() as u32);
    }

    /// A UDP frame between the house's `port` and the resolver's port 53,
    /// its payload written in place.
    fn udp(to_resolver: bool, port: u16, payload: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let (up, down) = (MacAddr::UPSTREAM, MacAddr::LOCAL);
        let mut out = Vec::new();
        match to_resolver {
            true => frame::udp(&mut out, down, up, HOUSE, RESOLVER, port, 53, payload),
            false => frame::udp(&mut out, up, down, RESOLVER, HOUSE, 53, port, payload),
        }
        out
    }

    /// A TCP segment without payload; the house's side faces upstream.
    fn tcp(src: Ipv4Addr, dst: Ipv4Addr, header: TcpHeader<'_>) -> Vec<u8> {
        let (up, down) = (MacAddr::UPSTREAM, MacAddr::LOCAL);
        let (src_mac, dst_mac) = if src == HOUSE { (down, up) } else { (up, down) };
        let mut out = Vec::new();
        frame::tcp(&mut out, src_mac, dst_mac, src, dst, header, &[]);
        out
    }

    /// Lookup `id` of `name`: the query, or, given an answer, the
    /// response carrying it as one A record.
    fn dns_message(id: u16, name: &str, answer: Option<(Ipv4Addr, u32)>) -> Vec<u8> {
        let name: NameBuf = name.parse().unwrap();
        let flags = if answer.is_some() { Flags::response(Rcode::NoError) } else { Flags::query() };
        udp(answer.is_none(), 54321, |out| {
            let mut comp = Compressor::default();
            let mut w = MessageWriter::new(out, &mut comp, id, flags);
            w.question(&name, RrType::A);
            if let Some((addr, ttl)) = answer {
                w.a(&name, ttl, addr);
            }
            w.finish();
        })
    }

    fn dns_query(id: u16, name: &str) -> Vec<u8> {
        dns_message(id, name, None)
    }

    fn dns_response(id: u16, name: &str, addr: Ipv4Addr, ttl: u32) -> Vec<u8> {
        dns_message(id, name, Some((addr, ttl)))
    }

    #[test]
    fn dns_transaction_matched() {
        let mut m = Monitor::new(MonitorConfig::default());
        feed(&mut m, 1000, &dns_query(7, "www.example.com"));
        feed(&mut m, 1008, &dns_response(7, "www.example.com", SERVER, 300));
        let logs = m.finish();
        assert_eq!(logs.dns.len(), 1);
        let t = &logs.dns[0];
        assert_eq!(logs.names.name(t.query), "www.example.com");
        assert_eq!(t.rtt, Some(Duration::from_millis(8)));
        assert_eq!(t.addrs().collect::<Vec<_>>(), vec![SERVER]);
        assert_eq!(t.min_ttl(), Some(300));
        assert_eq!(logs.degradation.dns_accepted, 2);
        // The DNS flow also appears as a (dns-service) connection.
        assert_eq!(logs.conns.len(), 1);
        assert!(logs.conns[0].is_dns());
        assert_eq!(logs.app_conns().count(), 0);
    }

    /// Labels are arbitrary bytes on the wire; in the log a name is one
    /// tab-, comma- and newline-free token, so the row survives logfmt.
    #[test]
    fn hostile_names_log_as_one_escaped_row() {
        fn name(labels: &[&[u8]]) -> Vec<u8> {
            let mut out = Vec::new();
            for l in labels {
                out.push(l.len() as u8);
                out.extend_from_slice(l);
            }
            out.push(0);
            out
        }
        let message = |response: bool, answers: &[Vec<u8>]| {
            // Header: id 7; a recursive query (RD), or its NOERROR answer
            // (QR, RD, RA); one question, the answers, no other records.
            let flags: u16 = if response { 0x8180 } else { 0x0100 };
            let mut out = vec![0, 7];
            out.extend(flags.to_be_bytes());
            out.extend([0, 1]);
            out.extend((answers.len() as u16).to_be_bytes());
            out.extend([0, 0, 0, 0]);
            out.extend(name(&[b"A\tb", b"c.d", b"com"]));
            out.extend([0, 1, 0, 1]); // A, IN
            for target in answers {
                out.extend([0xC0, 12, 0, 5, 0, 1, 0, 0, 0, 60]); // owner = question, CNAME, IN, ttl 60
                out.extend((target.len() as u16).to_be_bytes());
                out.extend(target);
            }
            out
        };
        let targets = [name(&[b"x,y", b"z\nw", b"\\", b"\xe9"]), name(&[])];
        let mut m = Monitor::new(MonitorConfig::default());
        let query = udp(true, 54321, |out| out.extend(message(false, &[])));
        let response = udp(false, 54321, |out| out.extend(message(true, &targets)));
        feed(&mut m, 1000, &query);
        feed(&mut m, 1008, &response);
        let logs = m.finish();
        assert_eq!(logs.degradation.dns_accepted, logs.degradation.dns_payloads);
        assert_eq!(logs.dns.len(), 1);
        assert_eq!(logs.names.name(logs.dns[0].query), r"a\x09b.c\x2ed.com");
        let rendered: Vec<_> = logs.dns[0]
            .answers
            .iter()
            .map(|a| match a.data {
                AnswerData::Cname(target) => logs.names.name(target),
                _ => panic!("not a CNAME: {a:?}"),
            })
            .collect();
        assert_eq!(rendered, [r"x\x2cy.z\x0aw.\x5c.\xe9", "."]);
        // Read back into a fresh table, the names come back in the order
        // the monitor met them, so the ids do too.
        let mut text = Vec::new();
        crate::logfmt::write_dns_log(&mut text, &logs.names, &logs.dns).unwrap();
        let mut names = NameTable::default();
        assert_eq!(crate::logfmt::read_dns_log(&text[..], &mut names).unwrap(), logs.dns);
        assert_eq!(names.len(), logs.names.len());
    }

    /// A query interns its name; a response only looks it up, so one for
    /// a name nobody asked about adds nothing to the table.
    #[test]
    fn only_queries_and_cname_targets_add_names() {
        let mut m = Monitor::new(MonitorConfig::default());
        feed(&mut m, 1000, &dns_response(3, "stray.example.com", SERVER, 60));
        assert_eq!(m.names().len(), 0);
        feed(&mut m, 1010, &dns_query(4, "www.example.com"));
        feed(&mut m, 1020, &dns_query(4, "www.example.com"));
        feed(&mut m, 1030, &dns_response(4, "www.example.com", SERVER, 60));
        assert_eq!(m.names().len(), 1);
        assert_eq!(m.names().get("www.example.com"), Some(m.drain_dns().next().unwrap().query));
    }

    /// The dns sort gives what a stable sort gives: rows that compare
    /// equal (here they differ only in their answers) keep arrival order.
    #[test]
    fn dns_sort_matches_the_stable_sort() {
        let mut names = NameTable::default();
        let ids = [names.intern("b.example.com"), names.intern("a.example.com")];
        let rows: Vec<DnsTransaction> = (0..40u32)
            .map(|i| DnsTransaction {
                ts: Timestamp::from_millis(u64::from(i * 7 % 5)),
                client: HOUSE,
                resolver: RESOLVER,
                trans_id: (i % 3) as u16,
                query: ids[(i % 2) as usize],
                qtype: RrType::A,
                rcode: None,
                rtt: None,
                answers: [Answer::addr(SERVER, i)].into(),
            })
            .collect();
        let mut stable = rows.clone();
        stable.sort_by(|a, b| DnsTransaction::log_order(&names, a, b));
        let mut sorted = rows;
        sort_dns(&names, &mut sorted);
        assert_eq!(sorted, stable);
    }

    /// An RFC 2308 negative response (the question, no answers, the SOA
    /// of the missing name's zone in the authority section) closes its
    /// query as one answerless NXDOMAIN row with an rtt.
    #[test]
    fn nxdomain_response_logs_one_answerless_row() {
        let [name, zone, mname, rname] = ["typo.example.com", "example.com", "ns1.example.com", "hostmaster.example.com"]
            .map(|n| n.parse::<NameBuf>().unwrap());
        let response = udp(false, 54321, |out| {
            let mut comp = Compressor::default();
            let mut w = MessageWriter::new(out, &mut comp, 11, Flags::response(Rcode::NxDomain));
            w.question(&name, RrType::A);
            w.soa(&zone, 900, &mname, &rname, [2019_02_06, 7_200, 3_600, 1_209_600, 900]);
            w.finish();
        });
        let mut m = Monitor::new(MonitorConfig::default());
        feed(&mut m, 1000, &dns_query(11, "typo.example.com"));
        feed(&mut m, 1012, &response);
        let logs = m.finish();
        assert_eq!(logs.degradation.dns_accepted, 2);
        assert_eq!(logs.dns.len(), 1);
        let t = &logs.dns[0];
        assert_eq!(logs.names.name(t.query), "typo.example.com");
        assert_eq!(t.rcode, Some(Rcode::NxDomain));
        assert_eq!(t.rtt, Some(Duration::from_millis(12)));
        assert!(t.answers.is_empty());
    }

    #[test]
    fn unanswered_query_flushed_at_finish() {
        let mut m = Monitor::new(MonitorConfig::default());
        feed(&mut m, 1000, &dns_query(9, "dead.example.com"));
        let logs = m.finish();
        assert_eq!(logs.dns.len(), 1);
        assert_eq!(logs.dns[0].rtt, None);
        assert_eq!(logs.dns[0].rcode, None);
    }

    #[test]
    fn retransmitted_query_keeps_first_timestamp() {
        let mut m = Monitor::new(MonitorConfig::default());
        feed(&mut m, 1000, &dns_query(7, "www.example.com"));
        feed(&mut m, 2000, &dns_query(7, "www.example.com"));
        feed(&mut m, 2050, &dns_response(7, "www.example.com", SERVER, 300));
        let logs = m.finish();
        assert_eq!(logs.dns.len(), 1);
        assert_eq!(logs.dns[0].ts, Timestamp::from_millis(1000));
        assert_eq!(logs.dns[0].rtt, Some(Duration::from_millis(1050)));
    }

    #[test]
    fn tcp_connection_produces_app_conn() {
        let mut m = Monitor::new(MonitorConfig::default());
        let syn = tcp(HOUSE, SERVER, TcpHeader::syn(49152, 443, 100));
        let synack_header = TcpHeader { flags: TcpFlags::SYN_ACK, ..TcpHeader::syn(443, 49152, 900) };
        let synack = tcp(SERVER, HOUSE, synack_header);
        let fin_o = tcp(HOUSE, SERVER, TcpHeader::segment(49152, 443, 101 + 500, 901, TcpFlags::FIN_ACK));
        let fin_r = tcp(SERVER, HOUSE, TcpHeader::segment(443, 49152, 901 + 9000, 0, TcpFlags::FIN_ACK));
        feed(&mut m, 0, &syn);
        feed(&mut m, 20, &synack);
        feed(&mut m, 500, &fin_o);
        feed(&mut m, 520, &fin_r);
        let logs = m.finish();
        assert_eq!(logs.app_conns().count(), 1);
        let c = logs.app_conns().next().unwrap();
        assert_eq!(c.state, crate::ConnState::SF);
        // Bytes recovered purely from sequence numbers.
        assert_eq!(c.orig_bytes, 500);
        assert_eq!(c.resp_bytes, 9000);
        assert_eq!(c.service, Some("ssl"));
    }

    #[test]
    fn garbage_on_port_53_counted_as_decode_error() {
        let mut m = Monitor::new(MonitorConfig::default());
        let junk = udp(true, 50000, |out| out.extend_from_slice(b"not dns"));
        feed(&mut m, 0, &junk);
        let logs = m.finish();
        assert_eq!((logs.degradation.dns_payloads, logs.degradation.dns_accepted), (1, 0));
        assert!(logs.dns.is_empty());
    }

    #[test]
    fn dot_port_traffic_counted() {
        let mut m = Monitor::new(MonitorConfig::default());
        let f = tcp(HOUSE, RESOLVER, TcpHeader::syn(50000, 853, 1));
        feed(&mut m, 0, &f);
        let logs = m.finish();
        assert_eq!(logs.stats.dot_port_packets, 1);
    }

    #[test]
    fn merge_combines_and_sorts() {
        let mut m1 = Monitor::new(MonitorConfig::default());
        feed(&mut m1, 5000, &dns_query(1, "b.example.com"));
        feed(&mut m1, 5010, &dns_response(1, "b.example.com", SERVER, 60));
        let mut logs1 = m1.finish();
        let mut m2 = Monitor::new(MonitorConfig::default());
        feed(&mut m2, 1000, &dns_query(2, "a.example.com"));
        feed(&mut m2, 1010, &dns_response(2, "a.example.com", SERVER, 60));
        let logs2 = m2.finish();
        logs1.merge(logs2);
        assert_eq!(logs1.dns.len(), 2);
        // Both names now live in the one table, each row's id remapped.
        let queries: Vec<_> = logs1.dns.iter().map(|t| logs1.names.name(t.query)).collect();
        assert_eq!(queries, ["a.example.com", "b.example.com"]);
        assert_eq!(logs1.degradation.dns_accepted, 4);
    }

    #[test]
    fn process_pcap_end_to_end() {
        use pcapio::PcapWriter;
        let mut buf = Vec::new();
        {
            let mut w = PcapWriter::new(&mut buf, 65535).unwrap();
            let q = dns_query(3, "pcap.example.com");
            let r = dns_response(3, "pcap.example.com", SERVER, 120);
            w.write_packet(1_000_000_000, &q, q.len() as u32).unwrap();
            w.write_packet(1_004_000_000, &r, r.len() as u32).unwrap();
        }
        let logs = Monitor::process_pcap(&buf[..], MonitorConfig::default()).unwrap();
        assert_eq!(logs.dns.len(), 1);
        assert_eq!(logs.dns[0].rtt, Some(Duration::from_millis(4)));
    }

    #[test]
    fn stats_metrics_round_trip_and_peak_max_merge() {
        let mut m = Monitor::new(MonitorConfig::default());
        feed(&mut m, 1000, &dns_query(7, "peak.example.com"));
        feed(&mut m, 1008, &dns_response(7, "peak.example.com", SERVER, 300));
        let logs = m.finish();
        assert!(logs.stats.peak_active_flows >= 1);
        // Exact struct ↔ metrics round trip.
        let snap = logs.stats.to_metrics();
        assert_eq!(MonitorStats::from_metrics(&snap), logs.stats);
        // Counters sum, the occupancy peak takes the max.
        let mut a = MonitorStats {
            wire_bytes: 3,
            peak_active_flows: 5,
            ..MonitorStats::default()
        };
        let b = MonitorStats {
            wire_bytes: 4,
            peak_active_flows: 2,
            ..MonitorStats::default()
        };
        a.merge(&b);
        assert_eq!(a.wire_bytes, 7);
        assert_eq!(a.peak_active_flows, 5);
    }

    #[test]
    fn flight_hooks_fire_on_rejection_paths_only() {
        let flight = xkit::obs::FlightRecorder::new(16);
        let mut m = Monitor::new(MonitorConfig::default());
        m.set_flight(flight.clone());
        // Accepted traffic records nothing.
        feed(&mut m, 1000, &dns_query(7, "ok.example.com"));
        feed(&mut m, 1008, &dns_response(7, "ok.example.com", SERVER, 300));
        assert!(flight.is_empty());
        // A truncated frame is a fault rejection.
        let q = dns_query(8, "cut.example.com");
        m.handle_frame(Timestamp::from_millis(2000), &q[..10], q.len() as u32);
        // Garbage on port 53 is a parse degradation.
        feed(&mut m, 3000, &udp(true, 50000, |out| out.extend_from_slice(b"junk")));
        let kinds: Vec<&str> = flight.snapshot().iter().map(|e| e.kind).collect();
        assert_eq!(kinds, vec!["fault.reject", "parse.degrade"]);
        // Mid-run snapshot upholds the frames identity.
        let mut live = Metrics::new();
        m.store_live_metrics(&mut live);
        assert_eq!(
            live.counter("zeek.frames_seen"),
            live.counter("zeek.frames_accepted") + live.sum_counters("zeek.reject.")
        );
    }

    #[test]
    fn logs_metrics_cover_rows_and_rtt() {
        let mut m = Monitor::new(MonitorConfig::default());
        feed(&mut m, 1000, &dns_query(1, "a.example.com"));
        feed(&mut m, 1010, &dns_response(1, "a.example.com", SERVER, 60));
        feed(&mut m, 2000, &dns_query(2, "b.example.com"));
        let logs = m.finish();
        let snap = logs.metrics();
        assert_eq!(snap.counter("zeek.conn_rows"), logs.conns.len() as u64);
        assert_eq!(snap.counter("zeek.dns_rows"), 2);
        // Only the answered lookup lands in the RTT histogram.
        let Some(xkit::obs::Metric::Hist(h)) = snap.get("zeek.dns_rtt_ms") else {
            panic!("no RTT histogram in the snapshot");
        };
        assert_eq!(h.count(), 1);
        // Degradation counters ride along in the same snapshot.
        assert_eq!(snap.counter("zeek.frames_seen"), logs.degradation.frames_seen);
    }
}
