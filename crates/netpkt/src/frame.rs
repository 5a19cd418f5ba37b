//! Whole frames: the append-style writers the simulator's packet
//! backend fills its arena with, and [`Packet`], the parse of what a
//! capture stored.

use crate::ethernet::{EtherType, EthernetHeader, MacAddr};
use crate::ipv4::{IpProtocol, Ipv4Header, IPV4_HEADER_LEN};
use crate::tcp::TcpHeader;
use crate::udp::{UdpHeader, UDP_HEADER_LEN};
use crate::PktError;
use std::net::Ipv4Addr;

/// Append one UDP frame to `out`, its payload written in place by
/// `payload` (DNS, whose bytes the monitor must parse): Ethernet, then
/// room for the IPv4 and UDP headers, then whatever `payload` appends,
/// then the two headers filled in with the lengths and checksums that
/// payload gives them.
#[allow(clippy::too_many_arguments)]
pub fn udp(
    out: &mut Vec<u8>,
    src_mac: MacAddr,
    dst_mac: MacAddr,
    src: Ipv4Addr,
    dst: Ipv4Addr,
    src_port: u16,
    dst_port: u16,
    payload: impl FnOnce(&mut Vec<u8>),
) {
    EthernetHeader { dst: dst_mac, src: src_mac, ethertype: EtherType::Ipv4 }.encode(out);
    let ip_at = out.len();
    let payload_at = ip_at + IPV4_HEADER_LEN + UDP_HEADER_LEN;
    out.resize(payload_at, 0);
    payload(out);
    let payload_len = out.len() - payload_at;
    let ip = Ipv4Header::new(src, dst, IpProtocol::Udp, UDP_HEADER_LEN + payload_len);
    let udp = UdpHeader::new(src_port, dst_port, payload_len).to_bytes(&ip, &out[payload_at..]);
    out[ip_at..ip_at + IPV4_HEADER_LEN].copy_from_slice(&ip.to_bytes());
    out[ip_at + IPV4_HEADER_LEN..payload_at].copy_from_slice(&udp);
}

/// Append one UDP frame that *declares* `declared_payload` bytes but
/// carries none (checksum transmitted as zero = disabled, which is
/// legal for UDP and unavoidable when the payload is not materialised).
/// On the wire the frame was `declared_payload` longer than what is
/// appended.
#[allow(clippy::too_many_arguments)]
pub fn udp_virtual(
    out: &mut Vec<u8>,
    src_mac: MacAddr,
    dst_mac: MacAddr,
    src: Ipv4Addr,
    dst: Ipv4Addr,
    src_port: u16,
    dst_port: u16,
    declared_payload: usize,
) {
    debug_assert!(UDP_HEADER_LEN + declared_payload <= u16::MAX as usize);
    EthernetHeader { dst: dst_mac, src: src_mac, ethertype: EtherType::Ipv4 }.encode(out);
    Ipv4Header::new(src, dst, IpProtocol::Udp, UDP_HEADER_LEN + declared_payload).encode(out);
    let udp = UdpHeader::new(src_port, dst_port, declared_payload);
    out.extend_from_slice(&udp.src_port.to_be_bytes());
    out.extend_from_slice(&udp.dst_port.to_be_bytes());
    out.extend_from_slice(&udp.length.to_be_bytes());
    out.extend_from_slice(&[0, 0]); // checksum disabled
}

/// Append one TCP segment carrying `payload` in full. Bulk data is
/// represented by advancing `header.seq` between segments rather than
/// attaching payload; the monitor recovers byte counts from sequence
/// space, as Zeek does.
pub fn tcp(
    out: &mut Vec<u8>,
    src_mac: MacAddr,
    dst_mac: MacAddr,
    src: Ipv4Addr,
    dst: Ipv4Addr,
    header: TcpHeader<'_>,
    payload: &[u8],
) {
    EthernetHeader { dst: dst_mac, src: src_mac, ethertype: EtherType::Ipv4 }.encode(out);
    let ip = Ipv4Header::new(src, dst, IpProtocol::Tcp, header.header_len() + payload.len());
    ip.encode(out);
    header.encode(out, &ip, payload);
    out.extend_from_slice(payload);
}

/// Parsed transport layer of a captured packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Transport<'a> {
    /// UDP header.
    Udp(UdpHeader),
    /// TCP header.
    Tcp(TcpHeader<'a>),
    /// A protocol the monitor counts but does not parse.
    Other(IpProtocol),
}

impl Transport<'_> {
    /// Source port if the transport has ports.
    pub fn src_port(&self) -> Option<u16> {
        match self {
            Transport::Udp(u) => Some(u.src_port),
            Transport::Tcp(t) => Some(t.src_port),
            Transport::Other(_) => None,
        }
    }

    /// Destination port if the transport has ports.
    pub fn dst_port(&self) -> Option<u16> {
        match self {
            Transport::Udp(u) => Some(u.dst_port),
            Transport::Tcp(t) => Some(t.dst_port),
            Transport::Other(_) => None,
        }
    }
}

/// A fully-parsed captured packet.
#[derive(Debug, Clone)]
pub struct Packet<'a> {
    /// Link-layer header.
    pub eth: EthernetHeader,
    /// Network-layer header.
    pub ip: Ipv4Header,
    /// Transport header.
    pub transport: Transport<'a>,
    /// Payload bytes actually present in the capture.
    pub payload: &'a [u8],
    /// Payload length declared by the headers (may exceed `payload.len()`
    /// when the capture was snaplen-truncated).
    pub declared_payload: usize,
}

impl<'a> Packet<'a> {
    /// Parse a captured frame. `captured` holds the stored bytes;
    /// `orig_len` is the original wire length recorded by the capture.
    ///
    /// IPv6/ARP frames surface as [`PktError::UnsupportedEtherType`] so the
    /// caller can count them; a capture too short for the transport header
    /// is an error (the simulator's snaplen always covers headers).
    pub fn parse(captured: &'a [u8], orig_len: usize) -> Result<Packet<'a>, PktError> {
        debug_assert!(orig_len >= captured.len());
        let (eth, ip_off) = EthernetHeader::decode(captured)?;
        match eth.ethertype {
            EtherType::Ipv4 => {}
            other => return Err(PktError::UnsupportedEtherType(other.to_u16())),
        }
        let (ip, tp_rel) = Ipv4Header::decode(&captured[ip_off..])?;
        let tp_off = ip_off + tp_rel;
        let rest = &captured[tp_off..];
        let (transport, payload_rel, header_len) = match ip.protocol {
            IpProtocol::Udp => {
                let (u, off) = UdpHeader::decode(rest)?;
                (Transport::Udp(u), off, UDP_HEADER_LEN)
            }
            IpProtocol::Tcp => {
                let (t, off) = TcpHeader::decode(rest)?;
                let hl = t.header_len();
                (Transport::Tcp(t), off, hl)
            }
            other => (Transport::Other(other), 0, 0),
        };
        let payload = &rest[payload_rel..];
        let declared_payload = (ip.total_len as usize)
            .saturating_sub(tp_rel)
            .saturating_sub(header_len);
        Ok(Packet { eth, ip, transport, payload, declared_payload })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcp::TcpFlags;

    const A: Ipv4Addr = Ipv4Addr::new(10, 1, 1, 2);
    const B: Ipv4Addr = Ipv4Addr::new(8, 8, 8, 8);

    /// A UDP frame from A to B carrying `payload`.
    fn udp_frame(src_port: u16, dst_port: u16, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        let (src_mac, dst_mac) = (MacAddr::LOCAL, MacAddr::UPSTREAM);
        udp(&mut out, src_mac, dst_mac, A, B, src_port, dst_port, |o| o.extend_from_slice(payload));
        out
    }

    #[test]
    fn udp_frame_parses_back() {
        let bytes = udp_frame(49152, 53, b"payload");
        let p = Packet::parse(&bytes, bytes.len()).unwrap();
        assert_eq!(p.ip.src, A);
        assert_eq!(p.transport.dst_port(), Some(53));
        assert_eq!(p.payload, b"payload");
        assert_eq!(p.declared_payload, 7);
    }

    #[test]
    fn udp_virtual_declares_more_than_carried() {
        let mut bytes = Vec::new();
        udp_virtual(&mut bytes, MacAddr::LOCAL, MacAddr::UPSTREAM, A, B, 50000, 4433, 1200);
        let p = Packet::parse(&bytes, bytes.len() + 1200).unwrap();
        assert_eq!(p.payload.len(), 0);
        assert_eq!(p.declared_payload, 1200);
        match p.transport {
            Transport::Udp(u) => assert_eq!(u.length as usize, UDP_HEADER_LEN + 1200),
            _ => panic!("expected udp"),
        }
    }

    #[test]
    fn tcp_frame_parses_back() {
        let h = TcpHeader::segment(49152, 443, 100, 200, TcpFlags::PSH_ACK);
        let mut bytes = Vec::new();
        tcp(&mut bytes, MacAddr::LOCAL, MacAddr::UPSTREAM, A, B, h, b"hello");
        let p = Packet::parse(&bytes, bytes.len()).unwrap();
        match &p.transport {
            Transport::Tcp(t) => {
                assert_eq!(t.seq, 100);
                assert!(t.flags.psh && t.flags.ack);
            }
            _ => panic!("expected tcp"),
        }
        assert_eq!(p.payload, b"hello");
        assert_eq!(p.declared_payload, 5);
    }

    #[test]
    fn ipv6_reported_as_unsupported() {
        let mut bytes = udp_frame(1, 2, b"");
        bytes[12] = 0x86;
        bytes[13] = 0xDD;
        assert!(matches!(
            Packet::parse(&bytes, bytes.len()),
            Err(PktError::UnsupportedEtherType(0x86DD))
        ));
    }

    #[test]
    fn icmp_surfaces_as_other() {
        let mut bytes = udp_frame(1, 2, b"xy");
        // Rewrite the protocol field and fix the header checksum.
        bytes[14 + 9] = 1; // ICMP
        bytes[14 + 10] = 0;
        bytes[14 + 11] = 0;
        let cks = crate::checksum::internet_checksum(&[&bytes[14..34]]);
        bytes[14 + 10..14 + 12].copy_from_slice(&cks.to_be_bytes());
        let p = Packet::parse(&bytes, bytes.len()).unwrap();
        assert_eq!(p.transport, Transport::Other(IpProtocol::Icmp));
        assert_eq!(p.transport.src_port(), None);
    }
}
