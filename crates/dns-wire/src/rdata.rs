use crate::name::{write_compressed, Compressor, NameRef};
use crate::record::RrType;
use crate::{Name, WireError};
use std::net::{Ipv4Addr, Ipv6Addr};

/// SOA record data (RFC 1035 §3.3.13).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SoaData {
    /// Primary nameserver for the zone.
    pub mname: Name,
    /// Mailbox of the person responsible for the zone.
    pub rname: Name,
    /// Zone serial number.
    pub serial: u32,
    /// Secondary refresh interval, seconds.
    pub refresh: u32,
    /// Retry interval, seconds.
    pub retry: u32,
    /// Expiry limit, seconds.
    pub expire: u32,
    /// Negative-caching TTL (RFC 2308).
    pub minimum: u32,
}

/// SRV record data (RFC 2782).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SrvData {
    /// Selection priority (lower preferred).
    pub priority: u16,
    /// Selection weight among equal priorities.
    pub weight: u16,
    /// Service port.
    pub port: u16,
    /// Target host.
    pub target: Name,
}

/// Typed record data for the supported record types.
///
/// Types the codec does not interpret are preserved as raw bytes in
/// [`RData::Unknown`], so round-tripping a message never loses data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RData {
    /// IPv4 address.
    A(Ipv4Addr),
    /// IPv6 address.
    Aaaa(Ipv6Addr),
    /// Canonical-name alias.
    Cname(Name),
    /// Delegation to a nameserver.
    Ns(Name),
    /// Reverse-mapping pointer.
    Ptr(Name),
    /// Mail exchanger: preference and host.
    Mx(u16, Name),
    /// Text strings (each at most 255 octets on the wire).
    Txt(Vec<Vec<u8>>),
    /// Start of authority.
    Soa(SoaData),
    /// Service locator.
    Srv(SrvData),
    /// EDNS(0) pseudo-record payload, kept opaque.
    Opt(Vec<u8>),
    /// Any other type: numeric type code plus raw RDATA bytes.
    Unknown(u16, Vec<u8>),
}

impl RData {
    /// The TYPE code this data encodes as.
    pub fn rtype(&self) -> RrType {
        match self {
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
            RData::Unknown(t, _) => RrType::from_u16(*t),
        }
    }

    /// The IPv4 address if this is an A record.
    // lint: allow(unused-pub): pinned by rdata::tests::as_ipv4 alone since `Message::answer_ipv4` went; goes with it in a later removal slot
    pub fn as_ipv4(&self) -> Option<Ipv4Addr> {
        match self {
            RData::A(a) => Some(*a),
            _ => None,
        }
    }

    /// Encode RDATA (without the RDLENGTH prefix) appending to `out`.
    ///
    /// Names inside NS/CNAME/PTR/MX/SOA/SRV participate in compression,
    /// matching common server behaviour.
    pub fn encode(&self, out: &mut Vec<u8>, compressor: &mut Compressor) {
        match self {
            RData::A(a) => out.extend_from_slice(&a.octets()),
            RData::Aaaa(a) => out.extend_from_slice(&a.octets()),
            RData::Cname(n) | RData::Ns(n) | RData::Ptr(n) => n.encode_compressed(out, compressor),
            RData::Mx(pref, n) => {
                out.extend_from_slice(&pref.to_be_bytes());
                n.encode_compressed(out, compressor);
            }
            RData::Txt(strings) => {
                for s in strings {
                    debug_assert!(s.len() <= 255);
                    out.push(s.len() as u8);
                    out.extend_from_slice(s);
                }
            }
            RData::Soa(soa) => write_soa(
                out,
                compressor,
                soa.mname.flat(),
                soa.rname.flat(),
                [soa.serial, soa.refresh, soa.retry, soa.expire, soa.minimum],
            ),
            RData::Srv(srv) => {
                out.extend_from_slice(&srv.priority.to_be_bytes());
                out.extend_from_slice(&srv.weight.to_be_bytes());
                out.extend_from_slice(&srv.port.to_be_bytes());
                // RFC 2782: the SRV target must not be compressed.
                srv.target.encode_uncompressed(out);
            }
            RData::Opt(raw) | RData::Unknown(_, raw) => out.extend_from_slice(raw),
        }
    }

    /// Decode `rdlen` bytes of RDATA at `start` within the full message
    /// `msg` (the full message is required because RDATA names may contain
    /// compression pointers into earlier sections).
    pub fn decode(msg: &[u8], start: usize, rdlen: usize, rtype: RrType) -> Result<RData, WireError> {
        RDataView::parse(msg, start, rdlen, rtype).map(RData::from)
    }
}

/// SOA RDATA from flat names; `counters` is serial, refresh, retry,
/// expire, minimum.
pub(crate) fn write_soa(out: &mut Vec<u8>, compressor: &mut Compressor, mname: &[u8], rname: &[u8], counters: [u32; 5]) {
    write_compressed(mname, out, compressor);
    write_compressed(rname, out, compressor);
    for v in counters {
        out.extend_from_slice(&v.to_be_bytes());
    }
}

/// The `<character-string>`s of a TXT record, each checked against the
/// end of the RDATA as it is reached.
fn txt_strings(mut raw: &[u8]) -> impl Iterator<Item = Result<&[u8], WireError>> {
    std::iter::from_fn(move || {
        let (&len, rest) = raw.split_first()?;
        let Some((string, rest)) = rest.split_at_checked(len as usize) else {
            raw = &[];
            return Some(Err(WireError::Truncated { context: "TXT string" }));
        };
        raw = rest;
        Some(Ok(string))
    })
}

/// RDATA checked in place: fixed-size fields decoded, names and byte
/// strings left in the message. [`RDataView::parse`] holds the per-type
/// length checks; [`RData`] is this, collected.
#[derive(Clone, Copy)]
pub(crate) enum RDataView<'a> {
    A(Ipv4Addr),
    Aaaa(Ipv6Addr),
    Cname(NameRef<'a>),
    Ns(NameRef<'a>),
    Ptr(NameRef<'a>),
    Mx(u16, NameRef<'a>),
    Txt(&'a [u8]),
    Soa { mname: NameRef<'a>, rname: NameRef<'a>, counters: [u32; 5] },
    Srv { priority: u16, weight: u16, port: u16, target: NameRef<'a> },
    Opt(&'a [u8]),
    Unknown(u16, &'a [u8]),
}

impl<'a> RDataView<'a> {
    pub(crate) fn parse(
        msg: &'a [u8],
        start: usize,
        rdlen: usize,
        rtype: RrType,
    ) -> Result<Self, WireError> {
        let raw = start
            .checked_add(rdlen)
            .and_then(|end| msg.get(start..end))
            .ok_or(WireError::Truncated { context: "rdata" })?;
        // A name (and what follows it) must end exactly where RDLENGTH says.
        let ends_at = |pos: usize| {
            if pos == start + rdlen {
                Ok(())
            } else {
                Err(WireError::RdataLengthMismatch { declared: rdlen, actual: pos - start })
            }
        };
        let be16 = |at: usize| u16::from_be_bytes([raw[at], raw[at + 1]]);
        match rtype {
            RrType::A => {
                let octets: [u8; 4] = raw
                    .try_into()
                    .map_err(|_| WireError::RdataLengthMismatch { declared: rdlen, actual: 4 })?;
                Ok(RDataView::A(Ipv4Addr::from(octets)))
            }
            RrType::Aaaa => {
                let octets: [u8; 16] = raw
                    .try_into()
                    .map_err(|_| WireError::RdataLengthMismatch { declared: rdlen, actual: 16 })?;
                Ok(RDataView::Aaaa(Ipv6Addr::from(octets)))
            }
            RrType::Cname | RrType::Ns | RrType::Ptr => {
                let mut pos = start;
                let n = NameRef::parse(msg, &mut pos)?;
                ends_at(pos)?;
                Ok(match rtype {
                    RrType::Cname => RDataView::Cname(n),
                    RrType::Ns => RDataView::Ns(n),
                    _ => RDataView::Ptr(n),
                })
            }
            RrType::Mx => {
                if rdlen < 3 {
                    return Err(WireError::Truncated { context: "MX rdata" });
                }
                let mut pos = start + 2;
                let n = NameRef::parse(msg, &mut pos)?;
                ends_at(pos)?;
                Ok(RDataView::Mx(be16(0), n))
            }
            RrType::Txt => {
                txt_strings(raw).try_for_each(|s| s.map(drop))?;
                Ok(RDataView::Txt(raw))
            }
            RrType::Soa => {
                let mut pos = start;
                let mname = NameRef::parse(msg, &mut pos)?;
                let rname = NameRef::parse(msg, &mut pos)?;
                let fixed = msg
                    .get(pos..pos + 20)
                    .ok_or(WireError::Truncated { context: "SOA counters" })?;
                ends_at(pos + 20)?;
                let mut counters = [0u32; 5];
                for (v, b) in counters.iter_mut().zip(fixed.chunks_exact(4)) {
                    *v = u32::from_be_bytes([b[0], b[1], b[2], b[3]]);
                }
                Ok(RDataView::Soa { mname, rname, counters })
            }
            RrType::Srv => {
                if rdlen < 7 {
                    return Err(WireError::Truncated { context: "SRV rdata" });
                }
                let mut pos = start + 6;
                let target = NameRef::parse(msg, &mut pos)?;
                ends_at(pos)?;
                Ok(RDataView::Srv { priority: be16(0), weight: be16(2), port: be16(4), target })
            }
            RrType::Opt => Ok(RDataView::Opt(raw)),
            other => Ok(RDataView::Unknown(other.to_u16(), raw)),
        }
    }
}

impl From<RDataView<'_>> for RData {
    fn from(view: RDataView<'_>) -> RData {
        match view {
            RDataView::A(a) => RData::A(a),
            RDataView::Aaaa(a) => RData::Aaaa(a),
            RDataView::Cname(n) => RData::Cname(n.to_name()),
            RDataView::Ns(n) => RData::Ns(n.to_name()),
            RDataView::Ptr(n) => RData::Ptr(n.to_name()),
            RDataView::Mx(pref, n) => RData::Mx(pref, n.to_name()),
            // lint: allow(no-owned-copy-hotpath): TXT strings outlive the message buffer by design
            RDataView::Txt(raw) => RData::Txt(txt_strings(raw).flatten().map(|s| s.to_vec()).collect()),
            RDataView::Soa { mname, rname, counters: [serial, refresh, retry, expire, minimum] } => {
                RData::Soa(SoaData {
                    mname: mname.to_name(),
                    rname: rname.to_name(),
                    serial,
                    refresh,
                    retry,
                    expire,
                    minimum,
                })
            }
            RDataView::Srv { priority, weight, port, target } => {
                RData::Srv(SrvData { priority, weight, port, target: target.to_name() })
            }
            RDataView::Opt(raw) => RData::Opt(raw.to_vec()), // lint: allow(no-owned-copy-hotpath): opaque rdata kept owned
            RDataView::Unknown(t, raw) => RData::Unknown(t, raw.to_vec()), // lint: allow(no-owned-copy-hotpath): opaque rdata kept owned
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(rd: RData) {
        let mut buf = Vec::new();
        let mut comp = Compressor::default();
        let rtype = rd.rtype();
        rd.encode(&mut buf, &mut comp);
        let back = RData::decode(&buf, 0, buf.len(), rtype).unwrap();
        assert_eq!(back, rd);
    }

    #[test]
    fn round_trip_all_types() {
        round_trip(RData::A(Ipv4Addr::new(192, 0, 2, 1)));
        round_trip(RData::Aaaa("2001:db8::1".parse().unwrap()));
        round_trip(RData::Cname(Name::parse("alias.example.com").unwrap()));
        round_trip(RData::Ns(Name::parse("ns1.example.com").unwrap()));
        round_trip(RData::Ptr(Name::parse("host.example.com").unwrap()));
        round_trip(RData::Mx(10, Name::parse("mx.example.com").unwrap()));
        round_trip(RData::Txt(vec![b"v=spf1 -all".to_vec(), b"second".to_vec()]));
        round_trip(RData::Soa(SoaData {
            mname: Name::parse("ns1.example.com").unwrap(),
            rname: Name::parse("hostmaster.example.com").unwrap(),
            serial: 2019020601,
            refresh: 7200,
            retry: 3600,
            expire: 1209600,
            minimum: 300,
        }));
        round_trip(RData::Srv(SrvData {
            priority: 0,
            weight: 5,
            port: 5060,
            target: Name::parse("sip.example.com").unwrap(),
        }));
        round_trip(RData::Opt(vec![0, 1, 2, 3]));
        round_trip(RData::Unknown(4711, vec![9, 9, 9]));
    }

    #[test]
    fn a_with_wrong_length_rejected() {
        let buf = [1, 2, 3];
        assert!(matches!(
            RData::decode(&buf, 0, 3, RrType::A),
            Err(WireError::RdataLengthMismatch { declared: 3, actual: 4 })
        ));
    }

    #[test]
    fn txt_with_truncated_string_rejected() {
        let buf = [5, b'a', b'b'];
        assert!(RData::decode(&buf, 0, 3, RrType::Txt).is_err());
    }

    #[test]
    fn cname_with_trailing_garbage_rejected() {
        let mut buf = Vec::new();
        Name::parse("a.b").unwrap().encode_uncompressed(&mut buf);
        buf.push(0xFF);
        assert!(RData::decode(&buf, 0, buf.len(), RrType::Cname).is_err());
    }

    #[test]
    fn as_ipv4() {
        assert_eq!(
            RData::A(Ipv4Addr::new(1, 2, 3, 4)).as_ipv4(),
            Some(Ipv4Addr::new(1, 2, 3, 4))
        );
        assert_eq!(RData::Txt(vec![]).as_ipv4(), None);
    }
}
