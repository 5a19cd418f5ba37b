use crate::PktError;
use std::fmt;

/// Length of an Ethernet II header (no 802.1Q tag).
pub const ETHERNET_HEADER_LEN: usize = 14;

/// A 48-bit MAC address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// Conventional address used by the simulator for customer-side frames.
    pub const LOCAL: MacAddr = MacAddr([0x02, 0x00, 0x00, 0x00, 0x00, 0x01]);
    /// Conventional address used by the simulator for the ISP aggregation router.
    pub const UPSTREAM: MacAddr = MacAddr([0x02, 0x00, 0x00, 0x00, 0x00, 0x02]);
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let o = self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            o[0], o[1], o[2], o[3], o[4], o[5]
        )
    }
}

/// EtherType values the monitor distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EtherType {
    /// IPv4 (0x0800) — the only type the parser descends into.
    Ipv4,
    /// IPv6 (0x86DD) — recognised so it can be counted, not parsed.
    Ipv6,
    /// ARP (0x0806) — recognised so it can be counted, not parsed.
    Arp,
    /// Anything else, preserved numerically.
    Other(u16),
}

impl EtherType {
    /// Numeric wire value.
    pub(crate) fn to_u16(self) -> u16 {
        match self {
            EtherType::Ipv4 => 0x0800,
            EtherType::Ipv6 => 0x86DD,
            EtherType::Arp => 0x0806,
            EtherType::Other(v) => v,
        }
    }

    /// Decode from the numeric wire value.
    fn from_u16(v: u16) -> Self {
        match v {
            0x0800 => EtherType::Ipv4,
            0x86DD => EtherType::Ipv6,
            0x0806 => EtherType::Arp,
            other => EtherType::Other(other),
        }
    }
}

/// An Ethernet II header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EthernetHeader {
    /// Destination hardware address.
    pub dst: MacAddr,
    /// Source hardware address.
    pub src: MacAddr,
    /// Payload type.
    pub ethertype: EtherType,
}

impl EthernetHeader {
    /// Encode to 14 octets appended to `out`.
    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.dst.0);
        out.extend_from_slice(&self.src.0);
        out.extend_from_slice(&self.ethertype.to_u16().to_be_bytes());
    }

    /// Decode from the front of `buf`; returns the header and payload offset.
    pub(crate) fn decode(buf: &[u8]) -> Result<(EthernetHeader, usize), PktError> {
        if buf.len() < ETHERNET_HEADER_LEN {
            return Err(PktError::Truncated {
                layer: "ethernet",
                need: ETHERNET_HEADER_LEN,
                have: buf.len(),
            });
        }
        let mut dst = [0u8; 6];
        let mut src = [0u8; 6];
        dst.copy_from_slice(&buf[0..6]);
        src.copy_from_slice(&buf[6..12]);
        Ok((
            EthernetHeader {
                dst: MacAddr(dst),
                src: MacAddr(src),
                ethertype: EtherType::from_u16(u16::from_be_bytes([buf[12], buf[13]])),
            },
            ETHERNET_HEADER_LEN,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let h = EthernetHeader {
            dst: MacAddr::UPSTREAM,
            src: MacAddr::LOCAL,
            ethertype: EtherType::Ipv4,
        };
        let mut buf = Vec::new();
        h.encode(&mut buf);
        assert_eq!(buf.len(), ETHERNET_HEADER_LEN);
        let (back, off) = EthernetHeader::decode(&buf).unwrap();
        assert_eq!(back, h);
        assert_eq!(off, ETHERNET_HEADER_LEN);
    }

    #[test]
    fn short_frame_rejected() {
        assert!(matches!(
            EthernetHeader::decode(&[0u8; 13]),
            Err(PktError::Truncated { layer: "ethernet", .. })
        ));
    }

    #[test]
    fn ethertype_round_trip() {
        for v in [0x0800u16, 0x86DD, 0x0806, 0x88CC] {
            assert_eq!(EtherType::from_u16(v).to_u16(), v);
        }
    }

    #[test]
    fn mac_display_and_flags() {
        assert_eq!(MacAddr::LOCAL.to_string(), "02:00:00:00:00:01");
    }
}
