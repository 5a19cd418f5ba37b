use crate::checksum::internet_checksum;
use crate::ipv4::Ipv4Header;
use crate::PktError;

/// Length of a UDP header.
pub const UDP_HEADER_LEN: usize = 8;

/// A UDP header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UdpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Declared length of header plus payload.
    pub length: u16,
}

impl UdpHeader {
    /// Header for a datagram with `payload_len` bytes of payload.
    pub(crate) fn new(src_port: u16, dst_port: u16, payload_len: usize) -> UdpHeader {
        UdpHeader {
            src_port,
            dst_port,
            length: (UDP_HEADER_LEN + payload_len) as u16,
        }
    }

    /// The 8 header octets with the checksum over the pseudo-header and
    /// `payload`, for a writer whose payload is already in place behind
    /// the header.
    pub(crate) fn to_bytes(self, ip: &Ipv4Header, payload: &[u8]) -> [u8; UDP_HEADER_LEN] {
        let mut b = [0u8; UDP_HEADER_LEN];
        b[0..2].copy_from_slice(&self.src_port.to_be_bytes());
        b[2..4].copy_from_slice(&self.dst_port.to_be_bytes());
        b[4..6].copy_from_slice(&self.length.to_be_bytes());
        let ph = ip.pseudo_header(self.length);
        let mut cks = internet_checksum(&[&ph, &b, payload]);
        // An all-zero transmitted checksum means "no checksum" in UDP;
        // a computed zero is sent as 0xFFFF (RFC 768).
        if cks == 0 {
            cks = 0xFFFF;
        }
        b[6..8].copy_from_slice(&cks.to_be_bytes());
        b
    }

    /// Decode from the front of `buf`; returns the header and payload offset.
    ///
    /// The checksum is *not* verified: a snaplen-truncated capture cannot
    /// reproduce it.
    pub(crate) fn decode(buf: &[u8]) -> Result<(UdpHeader, usize), PktError> {
        if buf.len() < UDP_HEADER_LEN {
            return Err(PktError::Truncated {
                layer: "udp",
                need: UDP_HEADER_LEN,
                have: buf.len(),
            });
        }
        Ok((
            UdpHeader {
                src_port: u16::from_be_bytes([buf[0], buf[1]]),
                dst_port: u16::from_be_bytes([buf[2], buf[3]]),
                length: u16::from_be_bytes([buf[4], buf[5]]),
            },
            UDP_HEADER_LEN,
        ))
    }

    /// Verify the checksum of a fully-captured datagram: the oracle the
    /// encoder's tests check it against.
    #[cfg(test)]
    fn verify(ip: &Ipv4Header, udp_bytes: &[u8]) -> Result<(), PktError> {
        if udp_bytes.len() < UDP_HEADER_LEN {
            return Err(PktError::Truncated {
                layer: "udp",
                need: UDP_HEADER_LEN,
                have: udp_bytes.len(),
            });
        }
        let transmitted = u16::from_be_bytes([udp_bytes[6], udp_bytes[7]]);
        if transmitted == 0 {
            return Ok(()); // checksum disabled by sender
        }
        let ph = ip.pseudo_header(udp_bytes.len() as u16);
        if internet_checksum(&[&ph, udp_bytes]) != 0 {
            return Err(PktError::BadChecksum { layer: "udp" });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ipv4::IpProtocol;
    use std::net::Ipv4Addr;

    fn ip_for(payload_len: usize) -> Ipv4Header {
        Ipv4Header::new(
            Ipv4Addr::new(10, 1, 1, 2),
            Ipv4Addr::new(8, 8, 8, 8),
            IpProtocol::Udp,
            UDP_HEADER_LEN + payload_len,
        )
    }

    #[test]
    fn round_trip_and_verify() {
        let payload = b"dns query bytes";
        let ip = ip_for(payload.len());
        let h = UdpHeader::new(49152, 53, payload.len());
        let mut buf = h.to_bytes(&ip, payload).to_vec();
        buf.extend_from_slice(payload);
        let (back, off) = UdpHeader::decode(&buf).unwrap();
        assert_eq!(back, h);
        assert_eq!(off, UDP_HEADER_LEN);
        UdpHeader::verify(&ip, &buf).unwrap();
    }

    #[test]
    fn corrupted_payload_fails_verify() {
        let payload = b"dns query bytes";
        let ip = ip_for(payload.len());
        let h = UdpHeader::new(49152, 53, payload.len());
        let mut buf = h.to_bytes(&ip, payload).to_vec();
        buf.extend_from_slice(payload);
        let last = buf.len() - 1;
        buf[last] ^= 0x01;
        assert!(matches!(
            UdpHeader::verify(&ip, &buf),
            Err(PktError::BadChecksum { layer: "udp" })
        ));
    }

    #[test]
    fn zero_checksum_means_disabled() {
        let payload = b"x";
        let ip = ip_for(payload.len());
        let h = UdpHeader::new(1, 2, payload.len());
        let mut buf = h.to_bytes(&ip, payload).to_vec();
        buf.extend_from_slice(payload);
        buf[6] = 0;
        buf[7] = 0;
        UdpHeader::verify(&ip, &buf).unwrap();
    }

    #[test]
    fn short_buffer_rejected() {
        assert!(UdpHeader::decode(&[0u8; 7]).is_err());
    }
}
