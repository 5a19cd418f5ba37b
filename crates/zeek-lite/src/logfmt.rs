//! Zeek-style TSV log serialisation.
//!
//! The reproduced study consumed Bro's `conn.log` and `dns.log`; this
//! module writes and reads the equivalent files so that captures can be
//! processed once and analysed many times (or inspected with awk, like the
//! originals). Layout follows Zeek conventions: `#`-prefixed header lines,
//! one tab-separated record per line, `-` for unset fields. A row's names
//! are written from, and read into, a [`NameTable`].
//!
//! Divergences from Zeek proper (documented, deliberate):
//! * timestamps are written as `seconds.nanoseconds` with full precision so
//!   a written log re-reads to exactly the same in-memory records;
//! * `dns.log` carries the fields the paper's analysis needs (client,
//!   resolver, answers with TTLs) rather than Zeek's full column set.

use crate::dns::{Answer, AnswerData, DnsTransaction};
use crate::history::History;
use crate::names::NameTable;
use crate::time::{Duration, Timestamp};
use crate::tracker::{ConnRecord, ConnState};
use crate::types::{FiveTuple, Proto};
use dns_wire::{Rcode, RrType};
use std::fmt;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::Ipv4Addr;
use std::str::FromStr;

/// Errors from reading a log file.
#[derive(Debug)]
pub enum LogError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A record line did not match the expected schema.
    BadLine {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        what: String,
    },
}

impl fmt::Display for LogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LogError::Io(e) => write!(f, "i/o error: {e}"),
            LogError::BadLine { line, what } => write!(f, "line {line}: {what}"),
        }
    }
}

impl std::error::Error for LogError {}

impl From<io::Error> for LogError {
    fn from(e: io::Error) -> Self {
        LogError::Io(e)
    }
}

const CONN_FIELDS: &str = "ts\tuid\tid.orig_h\tid.orig_p\tid.resp_h\tid.resp_p\tproto\tservice\tduration\torig_bytes\tresp_bytes\tconn_state\torig_pkts\tresp_pkts\thistory";
const DNS_FIELDS: &str = "ts\tclient\tresolver\ttrans_id\tquery\tqtype\trcode\trtt\tanswers\tttls";

fn fmt_ts(t: Timestamp) -> String {
    format!("{}.{:09}", t.nanos() / 1_000_000_000, t.nanos() % 1_000_000_000)
}

fn fmt_dur(d: Duration) -> String {
    format!("{}.{:09}", d.nanos() / 1_000_000_000, d.nanos() % 1_000_000_000)
}

fn parse_nanos(s: &str, line: usize, what: &str) -> Result<u64, LogError> {
    let bad = || LogError::BadLine { line, what: format!("bad {what}: {s:?}") };
    let (secs, frac) = s.split_once('.').ok_or_else(bad)?;
    let secs: u64 = secs.parse().map_err(|_| bad())?;
    if frac.len() != 9 {
        return Err(bad());
    }
    let nanos: u64 = frac.parse().map_err(|_| bad())?;
    Ok(secs * 1_000_000_000 + nanos)
}

fn parse_field<T: FromStr>(s: &str, line: usize, what: &str) -> Result<T, LogError> {
    s.parse().map_err(|_| LogError::BadLine { line, what: format!("bad {what}: {s:?}") })
}

fn write_conn_header<W: Write>(out: &mut W) -> io::Result<()> {
    writeln!(out, "#separator \\x09")?;
    writeln!(out, "#path\tconn")?;
    writeln!(out, "#fields\t{CONN_FIELDS}")
}

fn write_conn_line<W: Write>(out: &mut W, c: &ConnRecord) -> io::Result<()> {
    writeln!(
        out,
        "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
        fmt_ts(c.ts),
        c.uid,
        c.id.orig_addr,
        c.id.orig_port,
        c.id.resp_addr,
        c.id.resp_port,
        c.id.proto.log_name(),
        c.service.unwrap_or("-"),
        fmt_dur(c.duration),
        c.orig_bytes,
        c.resp_bytes,
        c.state.log_name(),
        c.orig_pkts,
        c.resp_pkts,
        if c.history.is_empty() { "-" } else { &c.history },
    )
}

/// Write a conn.log for the given records.
pub fn write_conn_log<W: Write>(mut out: W, conns: &[ConnRecord]) -> io::Result<()> {
    write_conn_header(&mut out)?;
    for c in conns {
        write_conn_line(&mut out, c)?;
    }
    Ok(())
}

/// Read a conn.log written by [`write_conn_log`].
// lint: allow(unused-pub): the oracle that parses the writer's output back, in this module's tests, zeek-lite's proptests and tests/pipeline_agreement.rs
pub fn read_conn_log<R: Read>(input: R) -> Result<Vec<ConnRecord>, LogError> {
    let reader = BufReader::new(input);
    let mut out = Vec::new();
    for (idx, line) in reader.lines().enumerate() {
        let line_no = idx + 1;
        let line = line?;
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let f: Vec<&str> = line.split('\t').collect();
        if f.len() != 15 {
            return Err(LogError::BadLine {
                line: line_no,
                what: format!("expected 15 fields, got {}", f.len()),
            });
        }
        let proto = Proto::from_log_name(f[6]).ok_or_else(|| LogError::BadLine {
            line: line_no,
            what: format!("bad proto {:?}", f[6]),
        })?;
        let state = ConnState::from_log_name(f[11]).ok_or_else(|| LogError::BadLine {
            line: line_no,
            what: format!("bad conn_state {:?}", f[11]),
        })?;
        let id = FiveTuple {
            orig_addr: parse_field(f[2], line_no, "orig_h")?,
            orig_port: parse_field(f[3], line_no, "orig_p")?,
            resp_addr: parse_field(f[4], line_no, "resp_h")?,
            resp_port: parse_field(f[5], line_no, "resp_p")?,
            proto,
        };
        out.push(ConnRecord {
            ts: Timestamp(parse_nanos(f[0], line_no, "ts")?),
            uid: parse_field(f[1], line_no, "uid")?,
            id,
            service: crate::tracker::service_for_port(proto, id.resp_port),
            duration: Duration(parse_nanos(f[8], line_no, "duration")?),
            orig_bytes: parse_field(f[9], line_no, "orig_bytes")?,
            resp_bytes: parse_field(f[10], line_no, "resp_bytes")?,
            state,
            orig_pkts: parse_field(f[12], line_no, "orig_pkts")?,
            resp_pkts: parse_field(f[13], line_no, "resp_pkts")?,
            history: if f[14] == "-" { History::new() } else { History::from(f[14]) },
        });
    }
    Ok(out)
}

fn rcode_from_log(s: &str) -> Option<Rcode> {
    Some(match s {
        "NOERROR" => Rcode::NoError,
        "FORMERR" => Rcode::FormErr,
        "SERVFAIL" => Rcode::ServFail,
        "NXDOMAIN" => Rcode::NxDomain,
        "NOTIMP" => Rcode::NotImp,
        "REFUSED" => Rcode::Refused,
        "OTHER" => Rcode::Other(6),
        _ => return None,
    })
}

fn qtype_from_log(s: &str) -> Option<RrType> {
    Some(match s {
        "A" => RrType::A,
        "NS" => RrType::Ns,
        "CNAME" => RrType::Cname,
        "SOA" => RrType::Soa,
        "PTR" => RrType::Ptr,
        "MX" => RrType::Mx,
        "TXT" => RrType::Txt,
        "AAAA" => RrType::Aaaa,
        "SRV" => RrType::Srv,
        "OPT" => RrType::Opt,
        "HTTPS" => RrType::Https,
        other => RrType::Other(other.strip_prefix("TYPE")?.parse().ok()?),
    })
}

fn answer_to_log(names: &NameTable, a: &AnswerData) -> String {
    match a {
        AnswerData::Addr(ip) => ip.to_string(),
        AnswerData::Cname(n) => names.name(*n).to_string(),
        AnswerData::Other(t) => format!("<{t}>"),
    }
}

fn answer_from_log(names: &mut NameTable, s: &str) -> AnswerData {
    if let Ok(ip) = Ipv4Addr::from_str(s) {
        return AnswerData::Addr(ip);
    }
    if let Some(t) = s.strip_prefix('<').and_then(|s| s.strip_suffix('>')) {
        return AnswerData::Other(t.to_string());
    }
    AnswerData::Cname(names.intern(s))
}

/// Write a dns.log for the given transactions, whose names are in `names`.
pub fn write_dns_log<W: Write>(mut out: W, names: &NameTable, txns: &[DnsTransaction]) -> io::Result<()> {
    writeln!(out, "#separator \\x09")?;
    writeln!(out, "#path\tdns")?;
    writeln!(out, "#fields\t{DNS_FIELDS}")?;
    for t in txns {
        let answers = if t.answers.is_empty() {
            "-".to_string()
        } else {
            t.answers.iter().map(|a| answer_to_log(names, &a.data)).collect::<Vec<_>>().join(",")
        };
        let ttls = if t.answers.is_empty() {
            "-".to_string()
        } else {
            t.answers.iter().map(|a| a.ttl.to_string()).collect::<Vec<_>>().join(",")
        };
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            fmt_ts(t.ts),
            t.client,
            t.resolver,
            t.trans_id,
            names.name(t.query),
            t.qtype.log_name(),
            t.rcode.map(|r| r.log_name()).unwrap_or("-"),
            t.rtt.map(fmt_dur).unwrap_or_else(|| "-".into()),
            answers,
            ttls,
        )?;
    }
    Ok(())
}

/// Read a dns.log written by [`write_dns_log`], interning its names into
/// `names` (a row's query before its answers).
// lint: allow(unused-pub): the oracle that parses the writer's output back, in this module's tests, zeek-lite's proptests and tests/pipeline_agreement.rs
pub fn read_dns_log<R: Read>(input: R, names: &mut NameTable) -> Result<Vec<DnsTransaction>, LogError> {
    let reader = BufReader::new(input);
    let mut out = Vec::new();
    for (idx, line) in reader.lines().enumerate() {
        let line_no = idx + 1;
        let line = line?;
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let f: Vec<&str> = line.split('\t').collect();
        if f.len() != 10 {
            return Err(LogError::BadLine {
                line: line_no,
                what: format!("expected 10 fields, got {}", f.len()),
            });
        }
        let qtype = qtype_from_log(f[5]).ok_or_else(|| LogError::BadLine {
            line: line_no,
            what: format!("bad qtype {:?}", f[5]),
        })?;
        let rcode = if f[6] == "-" {
            None
        } else {
            Some(rcode_from_log(f[6]).ok_or_else(|| LogError::BadLine {
                line: line_no,
                what: format!("bad rcode {:?}", f[6]),
            })?)
        };
        let rtt = if f[7] == "-" {
            None
        } else {
            Some(Duration(parse_nanos(f[7], line_no, "rtt")?))
        };
        let query = names.intern(f[4]);
        let answers = if f[8] == "-" {
            Vec::new()
        } else {
            let datas: Vec<AnswerData> = f[8].split(',').map(|s| answer_from_log(names, s)).collect();
            let ttls: Vec<u32> = f[9]
                .split(',')
                .map(|s| parse_field(s, line_no, "ttl"))
                .collect::<Result<_, _>>()?;
            if datas.len() != ttls.len() {
                return Err(LogError::BadLine {
                    line: line_no,
                    what: format!("{} answers but {} ttls", datas.len(), ttls.len()),
                });
            }
            datas
                .into_iter()
                .zip(ttls)
                .map(|(data, ttl)| Answer { data, ttl })
                .collect()
        };
        out.push(DnsTransaction {
            ts: Timestamp(parse_nanos(f[0], line_no, "ts")?),
            client: parse_field(f[1], line_no, "client")?,
            resolver: parse_field(f[2], line_no, "resolver")?,
            trans_id: parse_field(f[3], line_no, "trans_id")?,
            query,
            qtype,
            rcode,
            rtt,
            answers,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_conn() -> ConnRecord {
        ConnRecord {
            uid: 42,
            ts: Timestamp(1_234_567_890_123_456_789),
            id: FiveTuple {
                orig_addr: Ipv4Addr::new(10, 1, 1, 2),
                orig_port: 49152,
                resp_addr: Ipv4Addr::new(93, 184, 216, 34),
                resp_port: 443,
                proto: Proto::Tcp,
            },
            duration: Duration::from_millis(2500),
            orig_bytes: 1111,
            resp_bytes: 222_222,
            orig_pkts: 10,
            resp_pkts: 20,
            state: ConnState::SF,
            history: "ShADadFf".into(),
            service: Some("ssl"),
        }
    }

    /// A row and the table its names are in, interned query first, as
    /// [`read_dns_log`] interns them.
    fn sample_dns() -> (NameTable, DnsTransaction) {
        let mut names = NameTable::default();
        let txn = DnsTransaction {
            ts: Timestamp(999_000_000_001),
            client: Ipv4Addr::new(10, 1, 1, 2),
            resolver: Ipv4Addr::new(8, 8, 8, 8),
            trans_id: 7,
            query: names.intern("www.example.com"),
            qtype: RrType::A,
            rcode: Some(Rcode::NoError),
            rtt: Some(Duration(8_000_001)),
            answers: vec![
                Answer { data: AnswerData::Cname(names.intern("edge.example.net")), ttl: 300 },
                Answer::addr(Ipv4Addr::new(203, 0, 113, 7), 60),
            ],
        };
        (names, txn)
    }

    /// `txns` written with `names` and read back into a fresh table.
    fn round_trip(names: &NameTable, txns: &[DnsTransaction]) -> (NameTable, Vec<DnsTransaction>) {
        let mut buf = Vec::new();
        write_dns_log(&mut buf, names, txns).unwrap();
        let mut back = NameTable::default();
        let rows = read_dns_log(&buf[..], &mut back).unwrap();
        (back, rows)
    }

    #[test]
    fn conn_log_round_trips_exactly() {
        let conns = vec![sample_conn()];
        let mut buf = Vec::new();
        write_conn_log(&mut buf, &conns).unwrap();
        let back = read_conn_log(&buf[..]).unwrap();
        assert_eq!(back, conns);
    }

    #[test]
    fn dns_log_round_trips_exactly() {
        let (names, txn) = sample_dns();
        let (back_names, back) = round_trip(&names, &[txn.clone()]);
        assert_eq!(back, [txn]);
        assert_eq!(back_names.name(back[0].query), "www.example.com");
        assert_eq!(back_names.len(), 2);
    }

    #[test]
    fn unanswered_dns_round_trips() {
        let (names, mut t) = sample_dns();
        t.rcode = None;
        t.rtt = None;
        t.answers.clear();
        assert_eq!(round_trip(&names, std::slice::from_ref(&t)).1, vec![t]);
    }

    #[test]
    fn header_lines_are_skipped() {
        let mut buf = Vec::new();
        write_conn_log(&mut buf, &[sample_conn()]).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("#separator"));
        assert_eq!(text.lines().filter(|l| !l.starts_with('#')).count(), 1);
    }

    #[test]
    fn bad_field_count_reported_with_line() {
        let input = "#fields\tts\n1.000000000\tonly_two\n";
        match read_conn_log(input.as_bytes()) {
            Err(LogError::BadLine { line: 2, .. }) => {}
            other => panic!("expected BadLine, got {other:?}"),
        }
    }

    #[test]
    fn bad_timestamp_rejected() {
        let good = {
            let (names, txn) = sample_dns();
            let mut buf = Vec::new();
            write_dns_log(&mut buf, &names, &[txn]).unwrap();
            String::from_utf8(buf).unwrap()
        };
        let corrupted = good.replace("999.000000001", "notatime");
        assert!(read_dns_log(corrupted.as_bytes(), &mut NameTable::default()).is_err());
    }

    #[test]
    fn qtype_log_names_round_trip() {
        for t in [
            RrType::A,
            RrType::Ns,
            RrType::Cname,
            RrType::Soa,
            RrType::Ptr,
            RrType::Mx,
            RrType::Txt,
            RrType::Aaaa,
            RrType::Srv,
            RrType::Opt,
            RrType::Https,
            RrType::Other(999),
        ] {
            assert_eq!(qtype_from_log(&t.log_name()), Some(t), "{t:?}");
        }
        assert_eq!(qtype_from_log("BOGUS"), None);
    }

    #[test]
    fn answer_data_parsing_disambiguates() {
        let mut names = NameTable::default();
        assert_eq!(
            answer_from_log(&mut names, "203.0.113.7"),
            AnswerData::Addr(Ipv4Addr::new(203, 0, 113, 7))
        );
        let target = answer_from_log(&mut names, "www.example.com");
        assert_eq!(target, AnswerData::Cname(names.get("www.example.com").unwrap()));
        assert_eq!(answer_from_log(&mut names, "<TXT>"), AnswerData::Other("TXT".into()));
        assert_eq!(names.len(), 1);
    }

    #[test]
    fn many_records_round_trip() {
        let mut conns = Vec::new();
        for i in 0..500u64 {
            let mut c = sample_conn();
            c.uid = i;
            c.ts = Timestamp(i * 1_000_000_007);
            c.orig_bytes = i * 13;
            conns.push(c);
        }
        let mut buf = Vec::new();
        write_conn_log(&mut buf, &conns).unwrap();
        assert_eq!(read_conn_log(&buf[..]).unwrap(), conns);
    }
}
