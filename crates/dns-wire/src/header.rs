use crate::WireError;

/// Size of the fixed DNS header (RFC 1035 §4.1.1).
pub const HEADER_LEN: usize = 12;

/// DNS opcodes relevant to a monitor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Opcode {
    /// Standard query (the only opcode in normal resolution traffic).
    Query,
    /// Inverse query (obsolete, still seen in the wild).
    IQuery,
    /// Server status request.
    Status,
    /// Zone change notification (RFC 1996).
    Notify,
    /// Dynamic update (RFC 2136).
    Update,
    /// Anything else, preserved numerically.
    Other(u8),
}

impl Opcode {
    /// Numeric value as carried in the header.
    fn to_u8(self) -> u8 {
        match self {
            Opcode::Query => 0,
            Opcode::IQuery => 1,
            Opcode::Status => 2,
            Opcode::Notify => 4,
            Opcode::Update => 5,
            Opcode::Other(v) => v & 0x0F,
        }
    }

    /// Decode from the 4-bit field.
    fn from_u8(v: u8) -> Self {
        match v & 0x0F {
            0 => Opcode::Query,
            1 => Opcode::IQuery,
            2 => Opcode::Status,
            4 => Opcode::Notify,
            5 => Opcode::Update,
            other => Opcode::Other(other),
        }
    }
}

/// DNS response codes (RFC 1035 §4.1.1, extended by later RFCs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rcode {
    /// No error.
    NoError,
    /// Format error.
    FormErr,
    /// Server failure.
    ServFail,
    /// Name does not exist.
    NxDomain,
    /// Not implemented.
    NotImp,
    /// Query refused by policy.
    Refused,
    /// Anything else, preserved numerically.
    Other(u8),
}

impl Rcode {
    /// Numeric value as carried in the header.
    fn to_u8(self) -> u8 {
        match self {
            Rcode::NoError => 0,
            Rcode::FormErr => 1,
            Rcode::ServFail => 2,
            Rcode::NxDomain => 3,
            Rcode::NotImp => 4,
            Rcode::Refused => 5,
            Rcode::Other(v) => v & 0x0F,
        }
    }

    /// Decode from the 4-bit field.
    pub(crate) fn from_u8(v: u8) -> Self {
        match v & 0x0F {
            0 => Rcode::NoError,
            1 => Rcode::FormErr,
            2 => Rcode::ServFail,
            3 => Rcode::NxDomain,
            4 => Rcode::NotImp,
            5 => Rcode::Refused,
            other => Rcode::Other(other),
        }
    }

    /// Zeek-style textual name used in dns.log.
    pub fn log_name(self) -> &'static str {
        match self {
            Rcode::NoError => "NOERROR",
            Rcode::FormErr => "FORMERR",
            Rcode::ServFail => "SERVFAIL",
            Rcode::NxDomain => "NXDOMAIN",
            Rcode::NotImp => "NOTIMP",
            Rcode::Refused => "REFUSED",
            Rcode::Other(_) => "OTHER",
        }
    }
}

/// The flag bits of the DNS header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flags {
    /// Query (false) or response (true).
    pub qr: bool,
    /// Kind of query.
    pub opcode: Opcode,
    /// Authoritative answer.
    pub aa: bool,
    /// Truncated — response exceeded the transport limit.
    pub tc: bool,
    /// Recursion desired.
    pub rd: bool,
    /// Recursion available.
    pub ra: bool,
    /// Response code.
    pub rcode: Rcode,
}

impl Flags {
    /// Flags for a standard recursive query.
    pub fn query() -> Self {
        Flags {
            qr: false,
            opcode: Opcode::Query,
            aa: false,
            tc: false,
            rd: true,
            ra: false,
            rcode: Rcode::NoError,
        }
    }

    /// Flags for a recursive resolver's response.
    pub fn response(rcode: Rcode) -> Self {
        Flags {
            qr: true,
            opcode: Opcode::Query,
            aa: false,
            tc: false,
            rd: true,
            ra: true,
            rcode,
        }
    }

    /// Pack into the 16-bit wire field.
    pub(crate) fn to_u16(self) -> u16 {
        let mut v = 0u16;
        if self.qr {
            v |= 1 << 15;
        }
        v |= (self.opcode.to_u8() as u16) << 11;
        if self.aa {
            v |= 1 << 10;
        }
        if self.tc {
            v |= 1 << 9;
        }
        if self.rd {
            v |= 1 << 8;
        }
        if self.ra {
            v |= 1 << 7;
        }
        v |= self.rcode.to_u8() as u16;
        v
    }

    /// Unpack from the 16-bit wire field. Reserved Z bits are ignored, as
    /// resolvers do in practice.
    pub(crate) fn from_u16(v: u16) -> Self {
        Flags {
            qr: v & (1 << 15) != 0,
            opcode: Opcode::from_u8((v >> 11) as u8),
            aa: v & (1 << 10) != 0,
            tc: v & (1 << 9) != 0,
            rd: v & (1 << 8) != 0,
            ra: v & (1 << 7) != 0,
            rcode: Rcode::from_u8(v as u8),
        }
    }
}

/// The fixed 12-octet DNS message header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Header {
    /// Transaction identifier chosen by the querier.
    pub(crate) id: u16,
    /// Flag bits.
    pub(crate) flags: Flags,
    /// Entries in the question section.
    pub(crate) qdcount: u16,
    /// Entries in the answer section.
    pub(crate) ancount: u16,
    /// Entries in the authority section.
    pub(crate) nscount: u16,
    /// Entries in the additional section.
    pub(crate) arcount: u16,
}

impl Header {
    /// Encode into 12 octets appended to `out`.
    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.id.to_be_bytes());
        out.extend_from_slice(&self.flags.to_u16().to_be_bytes());
        out.extend_from_slice(&self.qdcount.to_be_bytes());
        out.extend_from_slice(&self.ancount.to_be_bytes());
        out.extend_from_slice(&self.nscount.to_be_bytes());
        out.extend_from_slice(&self.arcount.to_be_bytes());
    }

    /// Decode from the first 12 octets of `msg`.
    pub(crate) fn decode(msg: &[u8]) -> Result<Self, WireError> {
        if msg.len() < HEADER_LEN {
            return Err(WireError::Truncated { context: "header" });
        }
        let rd = |i: usize| u16::from_be_bytes([msg[i], msg[i + 1]]);
        Ok(Header {
            id: rd(0),
            flags: Flags::from_u16(rd(2)),
            qdcount: rd(4),
            ancount: rd(6),
            nscount: rd(8),
            arcount: rd(10),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_round_trip_all_combinations() {
        for qr in [false, true] {
            for aa in [false, true] {
                for tc in [false, true] {
                    for rd in [false, true] {
                        for ra in [false, true] {
                            for rc in 0u8..16 {
                                let f = Flags {
                                    qr,
                                    opcode: Opcode::Query,
                                    aa,
                                    tc,
                                    rd,
                                    ra,
                                    rcode: Rcode::from_u8(rc),
                                };
                                assert_eq!(Flags::from_u16(f.to_u16()), f);
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn opcode_round_trip() {
        for v in 0u8..16 {
            assert_eq!(Opcode::from_u8(v).to_u8(), v);
        }
    }

    #[test]
    fn header_round_trip() {
        let h = Header {
            id: 0xBEEF,
            flags: Flags::response(Rcode::NxDomain),
            qdcount: 1,
            ancount: 2,
            nscount: 3,
            arcount: 4,
        };
        let mut buf = Vec::new();
        h.encode(&mut buf);
        assert_eq!(buf.len(), HEADER_LEN);
        assert_eq!(Header::decode(&buf).unwrap(), h);
    }

    #[test]
    fn short_header_rejected() {
        assert!(Header::decode(&[0u8; 11]).is_err());
    }

    #[test]
    fn rcode_log_names() {
        assert_eq!(Rcode::NoError.log_name(), "NOERROR");
        assert_eq!(Rcode::NxDomain.log_name(), "NXDOMAIN");
    }
}
