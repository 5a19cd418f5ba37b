use crate::checksum::internet_checksum;
use crate::ipv4::Ipv4Header;
use crate::PktError;
use std::fmt;

/// Length of a TCP header without options.
const TCP_HEADER_LEN: usize = 20;

/// The TCP flag bits a connection tracker cares about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TcpFlags {
    /// FIN — sender is done sending.
    pub fin: bool,
    /// SYN — synchronise sequence numbers.
    pub syn: bool,
    /// RST — abort the connection.
    pub rst: bool,
    /// PSH — push buffered data to the application.
    pub psh: bool,
    /// ACK — acknowledgement field is valid.
    pub ack: bool,
    /// URG — urgent pointer is valid (ignored by the monitor).
    pub urg: bool,
}

impl TcpFlags {
    /// Just SYN.
    // lint: allow(unused-pub): zeek-lite's tracker tests open their flows with it; non-test code goes through `TcpHeader::syn`
    pub const SYN: TcpFlags = TcpFlags { syn: true, fin: false, rst: false, psh: false, ack: false, urg: false };
    /// SYN+ACK.
    pub const SYN_ACK: TcpFlags = TcpFlags { syn: true, ack: true, fin: false, rst: false, psh: false, urg: false };
    /// Just ACK.
    pub const ACK: TcpFlags = TcpFlags { ack: true, syn: false, fin: false, rst: false, psh: false, urg: false };
    /// FIN+ACK.
    pub const FIN_ACK: TcpFlags = TcpFlags { fin: true, ack: true, syn: false, rst: false, psh: false, urg: false };
    /// RST.
    pub const RST: TcpFlags = TcpFlags { rst: true, syn: false, fin: false, psh: false, ack: false, urg: false };
    /// PSH+ACK, the usual data-segment flags.
    pub const PSH_ACK: TcpFlags = TcpFlags { psh: true, ack: true, syn: false, fin: false, rst: false, urg: false };

    /// Pack into the low byte of the flags field.
    pub fn to_u8(self) -> u8 {
        (self.fin as u8)
            | (self.syn as u8) << 1
            | (self.rst as u8) << 2
            | (self.psh as u8) << 3
            | (self.ack as u8) << 4
            | (self.urg as u8) << 5
    }

    /// Unpack from the low byte of the flags field.
    pub fn from_u8(v: u8) -> Self {
        TcpFlags {
            fin: v & 0x01 != 0,
            syn: v & 0x02 != 0,
            rst: v & 0x04 != 0,
            psh: v & 0x08 != 0,
            ack: v & 0x10 != 0,
            urg: v & 0x20 != 0,
        }
    }
}

impl fmt::Display for TcpFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (set, c) in [
            (self.syn, 'S'),
            (self.fin, 'F'),
            (self.rst, 'R'),
            (self.psh, 'P'),
            (self.ack, 'A'),
            (self.urg, 'U'),
        ] {
            if set {
                write!(f, "{c}")?;
            }
        }
        Ok(())
    }
}

/// A TCP header. Options are carried as a raw borrowed slice (padded to
/// 32-bit words on encode) and never interpreted — the monitor does not
/// need them, and borrowing keeps [`TcpHeader::decode`] allocation-free
/// on the per-frame hot path. Builders use `&'static []`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TcpHeader<'a> {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number.
    pub seq: u32,
    /// Acknowledgement number (valid when `flags.ack`).
    pub ack: u32,
    /// Flag bits.
    pub flags: TcpFlags,
    /// Receive window.
    pub window: u16,
    /// Raw option bytes (without padding).
    pub options: &'a [u8],
}

impl<'a> TcpHeader<'a> {
    /// An initial SYN segment.
    pub fn syn(src_port: u16, dst_port: u16, seq: u32) -> TcpHeader<'static> {
        TcpHeader {
            src_port,
            dst_port,
            seq,
            ack: 0,
            flags: TcpFlags::SYN,
            window: 65535,
            options: &[],
        }
    }

    /// A segment with the given flags, continuing an established flow.
    pub fn segment(
        src_port: u16,
        dst_port: u16,
        seq: u32,
        ack: u32,
        flags: TcpFlags,
    ) -> TcpHeader<'static> {
        TcpHeader {
            src_port,
            dst_port,
            seq,
            ack,
            flags,
            window: 65535,
            options: &[],
        }
    }

    /// Header length including padded options.
    pub fn header_len(&self) -> usize {
        TCP_HEADER_LEN + self.options.len().div_ceil(4) * 4
    }

    /// Encode (computing the checksum over the pseudo-header and payload)
    /// and append to `out`.
    pub fn encode(&self, out: &mut Vec<u8>, ip: &Ipv4Header, payload: &[u8]) {
        let start = out.len();
        out.extend_from_slice(&self.src_port.to_be_bytes());
        out.extend_from_slice(&self.dst_port.to_be_bytes());
        out.extend_from_slice(&self.seq.to_be_bytes());
        out.extend_from_slice(&self.ack.to_be_bytes());
        let data_offset_words = self.header_len() / 4;
        out.push((data_offset_words as u8) << 4);
        out.push(self.flags.to_u8());
        out.extend_from_slice(&self.window.to_be_bytes());
        out.extend_from_slice(&[0, 0]); // checksum placeholder
        out.extend_from_slice(&[0, 0]); // urgent pointer
        out.extend_from_slice(self.options);
        // Pad options to a word boundary with end-of-options octets.
        while (out.len() - start) % 4 != 0 {
            out.push(0);
        }
        let seg_len = (out.len() - start + payload.len()) as u16;
        let ph = ip.pseudo_header(seg_len);
        let cks = internet_checksum(&[&ph, &out[start..], payload]);
        out[start + 16..start + 18].copy_from_slice(&cks.to_be_bytes());
    }

    /// Decode from the front of `buf`; returns the header and payload offset.
    ///
    /// The checksum is not verified: that needs the full segment, which a
    /// snaplen-truncated capture does not hold.
    pub fn decode(buf: &'a [u8]) -> Result<(TcpHeader<'a>, usize), PktError> {
        if buf.len() < TCP_HEADER_LEN {
            return Err(PktError::Truncated {
                layer: "tcp",
                need: TCP_HEADER_LEN,
                have: buf.len(),
            });
        }
        let data_offset = buf[12] >> 4;
        if data_offset < 5 {
            return Err(PktError::BadDataOffset(data_offset));
        }
        let header_len = data_offset as usize * 4;
        if buf.len() < header_len {
            return Err(PktError::Truncated {
                layer: "tcp options",
                need: header_len,
                have: buf.len(),
            });
        }
        Ok((
            TcpHeader {
                src_port: u16::from_be_bytes([buf[0], buf[1]]),
                dst_port: u16::from_be_bytes([buf[2], buf[3]]),
                seq: u32::from_be_bytes([buf[4], buf[5], buf[6], buf[7]]),
                ack: u32::from_be_bytes([buf[8], buf[9], buf[10], buf[11]]),
                flags: TcpFlags::from_u8(buf[13]),
                window: u16::from_be_bytes([buf[14], buf[15]]),
                options: &buf[TCP_HEADER_LEN..header_len],
            },
            header_len,
        ))
    }

    /// Verify the checksum of a fully-captured segment: the oracle the
    /// encoder's tests check it against.
    #[cfg(test)]
    fn verify(ip: &Ipv4Header, tcp_bytes: &[u8]) -> Result<(), PktError> {
        if tcp_bytes.len() < TCP_HEADER_LEN {
            return Err(PktError::Truncated {
                layer: "tcp",
                need: TCP_HEADER_LEN,
                have: tcp_bytes.len(),
            });
        }
        let ph = ip.pseudo_header(tcp_bytes.len() as u16);
        if internet_checksum(&[&ph, tcp_bytes]) != 0 {
            return Err(PktError::BadChecksum { layer: "tcp" });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ipv4::IpProtocol;
    use std::net::Ipv4Addr;

    fn ip_for(seg_len: usize) -> Ipv4Header {
        Ipv4Header::new(
            Ipv4Addr::new(10, 1, 1, 2),
            Ipv4Addr::new(93, 184, 216, 34),
            IpProtocol::Tcp,
            seg_len,
        )
    }

    #[test]
    fn flags_round_trip() {
        for v in 0u8..64 {
            assert_eq!(TcpFlags::from_u8(v).to_u8(), v);
        }
        assert_eq!(TcpFlags::SYN_ACK.to_string(), "SA");
    }

    #[test]
    fn round_trip_no_options() {
        let h = TcpHeader::syn(49152, 443, 12345);
        let payload = b"";
        let ip = ip_for(h.header_len() + payload.len());
        let mut buf = Vec::new();
        h.encode(&mut buf, &ip, payload);
        assert_eq!(buf.len(), TCP_HEADER_LEN);
        let (back, off) = TcpHeader::decode(&buf).unwrap();
        assert_eq!(back, h);
        assert_eq!(off, TCP_HEADER_LEN);
        TcpHeader::verify(&ip, &buf).unwrap();
    }

    #[test]
    fn round_trip_with_options_and_payload() {
        let mut h = TcpHeader::segment(80, 50000, 7, 9, TcpFlags::PSH_ACK);
        h.options = &[2, 4, 5, 0xB4, 1]; // MSS option + NOP, needs padding
        let payload = b"HTTP/1.1 200 OK\r\n";
        let ip = ip_for(h.header_len() + payload.len());
        let mut buf = Vec::new();
        h.encode(&mut buf, &ip, payload);
        assert_eq!(buf.len() % 4, 0);
        buf.extend_from_slice(payload);
        let (back, off) = TcpHeader::decode(&buf).unwrap();
        assert_eq!(off, h.header_len());
        assert_eq!(back.src_port, 80);
        assert_eq!(&back.options[..5], h.options);
        TcpHeader::verify(&ip, &buf).unwrap();
    }

    #[test]
    fn corrupted_segment_fails_verify() {
        let h = TcpHeader::syn(1, 2, 3);
        let ip = ip_for(h.header_len());
        let mut buf = Vec::new();
        h.encode(&mut buf, &ip, b"");
        buf[4] ^= 0xFF;
        assert!(TcpHeader::verify(&ip, &buf).is_err());
    }

    #[test]
    fn bad_data_offset_rejected() {
        let h = TcpHeader::syn(1, 2, 3);
        let ip = ip_for(h.header_len());
        let mut buf = Vec::new();
        h.encode(&mut buf, &ip, b"");
        buf[12] = 0x40; // data offset 4
        assert!(matches!(TcpHeader::decode(&buf), Err(PktError::BadDataOffset(4))));
    }

    #[test]
    fn short_buffer_rejected() {
        assert!(TcpHeader::decode(&[0u8; 19]).is_err());
    }
}
