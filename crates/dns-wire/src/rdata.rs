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

    /// Decode RDATA as `Message::decode` does.
    fn decode(msg: &[u8], start: usize, rdlen: usize, rtype: RrType) -> Result<RData, WireError> {
        RDataView::parse(msg, start, rdlen, rtype).map(RData::from)
    }

    /// A presentation name spelled out on the wire, uncompressed.
    fn wire(name: &str) -> Vec<u8> {
        let mut out = Vec::new();
        for label in name.split('.') {
            out.push(label.len() as u8);
            out.extend_from_slice(label.as_bytes());
        }
        out.push(0);
        out
    }

    fn name(s: &str) -> Name {
        NameRef::parse(&wire(s), &mut 0).unwrap().to_name()
    }

    /// `rdata`, the RDATA of a record of type `rtype`, decodes to `want`.
    fn decodes_to(rtype: RrType, rdata: &[&[u8]], want: RData) {
        let buf = rdata.concat();
        assert_eq!(decode(&buf, 0, buf.len(), rtype).unwrap(), want, "{rtype}");
    }

    #[test]
    fn round_trip_all_types() {
        decodes_to(RrType::A, &[&[192, 0, 2, 1]], RData::A(Ipv4Addr::new(192, 0, 2, 1)));
        let v6 = [0x20, 0x01, 0x0d, 0xb8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1];
        decodes_to(RrType::Aaaa, &[&v6], RData::Aaaa("2001:db8::1".parse().unwrap()));
        decodes_to(RrType::Cname, &[&wire("alias.example.com")], RData::Cname(name("alias.example.com")));
        decodes_to(RrType::Ns, &[&wire("ns1.example.com")], RData::Ns(name("ns1.example.com")));
        decodes_to(RrType::Ptr, &[&wire("host.example.com")], RData::Ptr(name("host.example.com")));
        decodes_to(RrType::Mx, &[&[0, 10], &wire("mx.example.com")], RData::Mx(10, name("mx.example.com")));
        decodes_to(
            RrType::Txt,
            &[b"\x0bv=spf1 -all", b"\x06second"],
            RData::Txt(vec![b"v=spf1 -all".to_vec(), b"second".to_vec()]),
        );
        let counters: Vec<u8> =
            [2019020601u32, 7200, 3600, 1209600, 300].iter().flat_map(|v| v.to_be_bytes()).collect();
        decodes_to(
            RrType::Soa,
            &[&wire("ns1.example.com"), &wire("hostmaster.example.com"), &counters],
            RData::Soa(SoaData {
                mname: name("ns1.example.com"),
                rname: name("hostmaster.example.com"),
                serial: 2019020601,
                refresh: 7200,
                retry: 3600,
                expire: 1209600,
                minimum: 300,
            }),
        );
        decodes_to(
            RrType::Srv,
            &[&[0, 0, 0, 5, 0x13, 0xc4], &wire("sip.example.com")],
            RData::Srv(SrvData { priority: 0, weight: 5, port: 5060, target: name("sip.example.com") }),
        );
        decodes_to(RrType::Opt, &[&[0, 1, 2, 3]], RData::Opt(vec![0, 1, 2, 3]));
        decodes_to(RrType::Other(4711), &[&[9, 9, 9]], RData::Unknown(4711, vec![9, 9, 9]));
    }

    #[test]
    fn a_with_wrong_length_rejected() {
        let buf = [1, 2, 3];
        assert!(matches!(
            decode(&buf, 0, 3, RrType::A),
            Err(WireError::RdataLengthMismatch { declared: 3, actual: 4 })
        ));
    }

    #[test]
    fn txt_with_truncated_string_rejected() {
        let buf = [5, b'a', b'b'];
        assert!(decode(&buf, 0, 3, RrType::Txt).is_err());
    }

    #[test]
    fn cname_with_trailing_garbage_rejected() {
        let mut buf = wire("a.b");
        buf.push(0xFF);
        assert!(decode(&buf, 0, buf.len(), RrType::Cname).is_err());
    }
}
