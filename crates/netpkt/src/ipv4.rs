use crate::checksum::internet_checksum;
use crate::PktError;
use std::net::Ipv4Addr;

/// Length of an IPv4 header without options.
pub const IPV4_HEADER_LEN: usize = 20;

/// IP protocol numbers the monitor distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IpProtocol {
    /// TCP (6).
    Tcp,
    /// UDP (17).
    Udp,
    /// ICMP (1) — counted, not parsed.
    Icmp,
    /// Anything else, preserved numerically.
    Other(u8),
}

impl IpProtocol {
    /// Numeric protocol value.
    pub(crate) fn to_u8(self) -> u8 {
        match self {
            IpProtocol::Tcp => 6,
            IpProtocol::Udp => 17,
            IpProtocol::Icmp => 1,
            IpProtocol::Other(v) => v,
        }
    }

    /// Decode from the numeric protocol value.
    pub(crate) fn from_u8(v: u8) -> Self {
        match v {
            6 => IpProtocol::Tcp,
            17 => IpProtocol::Udp,
            1 => IpProtocol::Icmp,
            other => IpProtocol::Other(other),
        }
    }
}

/// An IPv4 header (options carried raw, never interpreted).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ipv4Header {
    /// Differentiated services byte.
    pub dscp_ecn: u8,
    /// Total datagram length (header + payload) as declared on the wire.
    /// This is the *declared* length; snaplen truncation may mean fewer
    /// bytes were actually captured.
    pub total_len: u16,
    /// Datagram identification (used only by fragmentation).
    pub identification: u16,
    /// Don't-fragment flag.
    pub dont_frag: bool,
    /// Time to live.
    pub ttl: u8,
    /// Transport protocol.
    pub protocol: IpProtocol,
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
}

impl Ipv4Header {
    /// A conventional header for a simulator-built datagram.
    pub(crate) fn new(src: Ipv4Addr, dst: Ipv4Addr, protocol: IpProtocol, payload_len: usize) -> Ipv4Header {
        Ipv4Header {
            dscp_ecn: 0,
            total_len: (IPV4_HEADER_LEN + payload_len) as u16,
            identification: 0,
            dont_frag: true,
            ttl: 64,
            protocol,
            src,
            dst,
        }
    }

    /// Encode (computing the header checksum) and append to `out`.
    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bytes());
    }

    /// The 20 header octets, checksum included: what [`encode`](Self::encode)
    /// appends, for a writer that fills the header in once the payload
    /// behind it is known.
    pub(crate) fn to_bytes(&self) -> [u8; IPV4_HEADER_LEN] {
        let mut b = [0u8; IPV4_HEADER_LEN];
        b[0] = 0x45; // version 4, IHL 5
        b[1] = self.dscp_ecn;
        b[2..4].copy_from_slice(&self.total_len.to_be_bytes());
        b[4..6].copy_from_slice(&self.identification.to_be_bytes());
        let frag = if self.dont_frag { 0x4000u16 } else { 0 };
        b[6..8].copy_from_slice(&frag.to_be_bytes());
        b[8] = self.ttl;
        b[9] = self.protocol.to_u8();
        b[12..16].copy_from_slice(&self.src.octets());
        b[16..20].copy_from_slice(&self.dst.octets());
        let cks = internet_checksum(&[&b]);
        b[10..12].copy_from_slice(&cks.to_be_bytes());
        b
    }

    /// Decode from the front of `buf`; returns the header and the offset of
    /// the transport payload within `buf`.
    ///
    /// The header checksum is verified only when the full header was
    /// captured — a snaplen shorter than the header surfaces as
    /// [`PktError::Truncated`] instead.
    pub(crate) fn decode(buf: &[u8]) -> Result<(Ipv4Header, usize), PktError> {
        if buf.len() < IPV4_HEADER_LEN {
            return Err(PktError::Truncated {
                layer: "ipv4",
                need: IPV4_HEADER_LEN,
                have: buf.len(),
            });
        }
        let version = buf[0] >> 4;
        if version != 4 {
            return Err(PktError::NotIpv4(version));
        }
        let ihl = buf[0] & 0x0F;
        if ihl < 5 {
            return Err(PktError::BadIhl(ihl));
        }
        let header_len = ihl as usize * 4;
        if buf.len() < header_len {
            return Err(PktError::Truncated {
                layer: "ipv4 options",
                need: header_len,
                have: buf.len(),
            });
        }
        if internet_checksum(&[&buf[..header_len]]) != 0 {
            return Err(PktError::BadChecksum { layer: "ipv4" });
        }
        let total_len = u16::from_be_bytes([buf[2], buf[3]]);
        if (total_len as usize) < header_len {
            return Err(PktError::BadTotalLength(total_len));
        }
        Ok((
            Ipv4Header {
                dscp_ecn: buf[1],
                total_len,
                identification: u16::from_be_bytes([buf[4], buf[5]]),
                dont_frag: buf[6] & 0x40 != 0,
                ttl: buf[8],
                protocol: IpProtocol::from_u8(buf[9]),
                src: Ipv4Addr::new(buf[12], buf[13], buf[14], buf[15]),
                dst: Ipv4Addr::new(buf[16], buf[17], buf[18], buf[19]),
            },
            header_len,
        ))
    }

    /// The pseudo-header used in UDP/TCP checksums (RFC 793 §3.1).
    pub(crate) fn pseudo_header(&self, transport_len: u16) -> [u8; 12] {
        let mut ph = [0u8; 12];
        ph[0..4].copy_from_slice(&self.src.octets());
        ph[4..8].copy_from_slice(&self.dst.octets());
        ph[9] = self.protocol.to_u8();
        ph[10..12].copy_from_slice(&transport_len.to_be_bytes());
        ph
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Ipv4Header {
        Ipv4Header::new(
            Ipv4Addr::new(10, 1, 1, 2),
            Ipv4Addr::new(8, 8, 8, 8),
            IpProtocol::Udp,
            100,
        )
    }

    #[test]
    fn round_trip() {
        let h = sample();
        let mut buf = Vec::new();
        h.encode(&mut buf);
        assert_eq!(buf.len(), IPV4_HEADER_LEN);
        let (back, off) = Ipv4Header::decode(&buf).unwrap();
        assert_eq!(back, h);
        assert_eq!(off, IPV4_HEADER_LEN);
    }

    #[test]
    fn checksum_is_valid_on_encode() {
        let mut buf = Vec::new();
        sample().encode(&mut buf);
        assert_eq!(internet_checksum(&[&buf]), 0);
    }

    #[test]
    fn corrupted_header_rejected() {
        let mut buf = Vec::new();
        sample().encode(&mut buf);
        buf[8] ^= 0xFF; // ttl
        assert!(matches!(
            Ipv4Header::decode(&buf),
            Err(PktError::BadChecksum { layer: "ipv4" })
        ));
    }

    #[test]
    fn non_ipv4_rejected() {
        let mut buf = Vec::new();
        sample().encode(&mut buf);
        buf[0] = 0x65; // version 6
        assert!(matches!(Ipv4Header::decode(&buf), Err(PktError::NotIpv4(6))));
    }

    #[test]
    fn short_buffer_rejected() {
        assert!(Ipv4Header::decode(&[0x45; 10]).is_err());
    }

    #[test]
    fn bad_total_length_rejected() {
        let mut buf = Vec::new();
        let mut h = sample();
        h.total_len = 5;
        h.encode(&mut buf);
        assert!(matches!(
            Ipv4Header::decode(&buf),
            Err(PktError::BadTotalLength(5))
        ));
    }

    #[test]
    fn protocol_round_trip() {
        for v in 0u8..=255 {
            assert_eq!(IpProtocol::from_u8(v).to_u8(), v);
        }
    }

    #[test]
    fn pseudo_header_layout() {
        let h = sample();
        let ph = h.pseudo_header(8);
        assert_eq!(&ph[0..4], &[10, 1, 1, 2]);
        assert_eq!(&ph[4..8], &[8, 8, 8, 8]);
        assert_eq!(ph[8], 0);
        assert_eq!(ph[9], 17);
        assert_eq!(&ph[10..12], &[0, 8]);
    }
}
