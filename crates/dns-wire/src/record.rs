use crate::name::{write_compressed, Compressor, NameRef};
use crate::rdata::{RData, RDataView};
use crate::{Name, WireError};
use std::fmt;
use std::net::Ipv4Addr;

/// DNS record (RR) types understood by the codec.
///
/// Unknown types are preserved numerically so a passive monitor never drops
/// a record it cannot interpret.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum RrType {
    A,
    Ns,
    Cname,
    Soa,
    Ptr,
    Mx,
    Txt,
    Aaaa,
    Srv,
    Opt,
    Https,
    Other(u16),
}

impl RrType {
    /// Numeric TYPE value.
    pub fn to_u16(self) -> u16 {
        match self {
            RrType::A => 1,
            RrType::Ns => 2,
            RrType::Cname => 5,
            RrType::Soa => 6,
            RrType::Ptr => 12,
            RrType::Mx => 15,
            RrType::Txt => 16,
            RrType::Aaaa => 28,
            RrType::Srv => 33,
            RrType::Opt => 41,
            RrType::Https => 65,
            RrType::Other(v) => v,
        }
    }

    /// Decode from the numeric TYPE value.
    pub(crate) fn from_u16(v: u16) -> Self {
        match v {
            1 => RrType::A,
            2 => RrType::Ns,
            5 => RrType::Cname,
            6 => RrType::Soa,
            12 => RrType::Ptr,
            15 => RrType::Mx,
            16 => RrType::Txt,
            28 => RrType::Aaaa,
            33 => RrType::Srv,
            41 => RrType::Opt,
            65 => RrType::Https,
            other => RrType::Other(other),
        }
    }
}

/// The type's name as Zeek-style logs spell it; `TYPE{n}` for a type
/// without one.
impl fmt::Display for RrType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RrType::A => "A",
            RrType::Ns => "NS",
            RrType::Cname => "CNAME",
            RrType::Soa => "SOA",
            RrType::Ptr => "PTR",
            RrType::Mx => "MX",
            RrType::Txt => "TXT",
            RrType::Aaaa => "AAAA",
            RrType::Srv => "SRV",
            RrType::Opt => "OPT",
            RrType::Https => "HTTPS",
            RrType::Other(v) => return write!(f, "TYPE{v}"),
        })
    }
}

/// DNS record classes. `In` covers all real resolution traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum RrClass {
    In,
    Ch,
    Hs,
    Any,
    Other(u16),
}

impl RrClass {
    /// Numeric CLASS value.
    pub(crate) fn to_u16(self) -> u16 {
        match self {
            RrClass::In => 1,
            RrClass::Ch => 3,
            RrClass::Hs => 4,
            RrClass::Any => 255,
            RrClass::Other(v) => v,
        }
    }

    /// Decode from the numeric CLASS value.
    pub(crate) fn from_u16(v: u16) -> Self {
        match v {
            1 => RrClass::In,
            3 => RrClass::Ch,
            4 => RrClass::Hs,
            255 => RrClass::Any,
            other => RrClass::Other(other),
        }
    }
}

/// A resource record: owner name, class, TTL and typed RDATA.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Owner name the record is about.
    pub name: Name,
    /// Record class (always `In` in resolution traffic).
    pub class: RrClass,
    /// Time-to-live in seconds.
    pub ttl: u32,
    /// Typed record data.
    pub rdata: RData,
}

/// The one record encoder, from a flat owner name: fixed fields (class
/// `In`), then whatever `rdata` appends, then RDLENGTH backfilled.
pub(crate) fn write(
    out: &mut Vec<u8>,
    compressor: &mut Compressor,
    name: &[u8],
    rtype: RrType,
    ttl: u32,
    rdata: impl FnOnce(&mut Vec<u8>, &mut Compressor),
) {
    write_compressed(name, out, compressor);
    out.extend_from_slice(&rtype.to_u16().to_be_bytes());
    out.extend_from_slice(&RrClass::In.to_u16().to_be_bytes());
    out.extend_from_slice(&ttl.to_be_bytes());
    let len_pos = out.len();
    out.extend_from_slice(&[0, 0]);
    rdata(out, compressor);
    let rdlen = out.len() - len_pos - 2;
    debug_assert!(rdlen <= u16::MAX as usize);
    out[len_pos..len_pos + 2].copy_from_slice(&(rdlen as u16).to_be_bytes());
}

/// One record checked in place: what a monitor reads off an answer
/// without owning any of it.
#[derive(Clone, Copy)]
pub struct RecordView<'a> {
    /// Owner name the record is about.
    pub name: NameRef<'a>,
    /// The record's type code.
    pub rtype: RrType,
    /// Record class (always `In` in resolution traffic).
    pub class: RrClass,
    /// Time-to-live in seconds.
    pub ttl: u32,
    rdata: RDataView<'a>,
}

impl<'a> RecordView<'a> {
    /// Check one record starting at `*pos` within `msg` and step over it.
    pub(crate) fn parse(msg: &'a [u8], pos: &mut usize) -> Result<Self, WireError> {
        let name = NameRef::parse(msg, pos)?;
        let fixed = msg
            .get(*pos..*pos + 10)
            .ok_or(WireError::Truncated { context: "record fixed fields" })?;
        let rtype = RrType::from_u16(u16::from_be_bytes([fixed[0], fixed[1]]));
        let class = RrClass::from_u16(u16::from_be_bytes([fixed[2], fixed[3]]));
        let ttl = u32::from_be_bytes([fixed[4], fixed[5], fixed[6], fixed[7]]);
        let rdlen = u16::from_be_bytes([fixed[8], fixed[9]]) as usize;
        *pos += 10;
        let rdata = RDataView::parse(msg, *pos, rdlen, rtype)?;
        *pos += rdlen;
        Ok(RecordView { name, rtype, class, ttl, rdata })
    }

    /// The address if this is an A record.
    pub fn a(&self) -> Option<Ipv4Addr> {
        match self.rdata {
            RDataView::A(a) => Some(a),
            _ => None,
        }
    }

    /// The alias target if this is a CNAME record.
    pub fn cname(&self) -> Option<NameRef<'a>> {
        match self.rdata {
            RDataView::Cname(target) => Some(target),
            _ => None,
        }
    }
}

impl From<RecordView<'_>> for Record {
    fn from(view: RecordView<'_>) -> Record {
        Record {
            name: view.name.to_name(),
            class: view.class,
            ttl: view.ttl,
            rdata: view.rdata.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rrtype_round_trip() {
        for v in 0u16..100 {
            assert_eq!(RrType::from_u16(v).to_u16(), v);
        }
        assert_eq!(RrType::from_u16(1), RrType::A);
        assert_eq!(RrType::Other(4711).to_u16(), 4711);
    }

    #[test]
    fn class_round_trip() {
        for v in [1u16, 3, 4, 255, 77] {
            assert_eq!(RrClass::from_u16(v).to_u16(), v);
        }
    }

    /// An A record for `x.test`, encoded as the message writer does.
    fn a_record() -> Vec<u8> {
        let mut buf = Vec::new();
        let owner: crate::NameBuf = "x.test".parse().unwrap();
        write(&mut buf, &mut Compressor::default(), owner.flat(), RrType::A, 60, |out, _| {
            out.extend_from_slice(&[10, 0, 0, 1])
        });
        buf
    }

    #[test]
    fn a_record_round_trip() {
        let buf = a_record();
        let mut pos = 0;
        let r = RecordView::parse(&buf, &mut pos).unwrap();
        assert_eq!((r.rtype, r.class, r.ttl), (RrType::A, RrClass::In, 60));
        assert_eq!(r.a(), Some(Ipv4Addr::new(10, 0, 0, 1)));
        assert_eq!(Record::from(r).name.to_string(), "x.test");
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn truncated_rdata_rejected() {
        let mut buf = a_record();
        buf.truncate(buf.len() - 1);
        let mut pos = 0;
        assert!(RecordView::parse(&buf, &mut pos).is_err());
    }

    #[test]
    fn rrtype_log_names() {
        assert_eq!(RrType::A.to_string(), "A");
        assert_eq!(RrType::Other(99).to_string(), "TYPE99");
    }
}
