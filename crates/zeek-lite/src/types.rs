//! Flow identity types shared by the monitor and the analysis layers.

use std::fmt;
use std::net::Ipv4Addr;

/// Transport protocol of a flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Proto {
    /// TCP.
    Tcp,
    /// UDP (covers QUIC implicitly, as in the paper).
    Udp,
}

impl Proto {
    /// Lower-case name used in logs.
    pub fn log_name(self) -> &'static str {
        match self {
            Proto::Tcp => "tcp",
            Proto::Udp => "udp",
        }
    }

    /// Parse the log name back.
    pub fn from_log_name(s: &str) -> Option<Proto> {
        match s {
            "tcp" => Some(Proto::Tcp),
            "udp" => Some(Proto::Udp),
            _ => None,
        }
    }
}

impl fmt::Display for Proto {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.log_name())
    }
}

/// Oriented five-tuple: originator (first sender) vs responder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FiveTuple {
    /// Originator address (the endpoint that sent the first packet).
    pub orig_addr: Ipv4Addr,
    /// Originator port.
    pub orig_port: u16,
    /// Responder address.
    pub resp_addr: Ipv4Addr,
    /// Responder port.
    pub resp_port: u16,
    /// Transport protocol.
    pub proto: Proto,
}

impl FiveTuple {
    /// True when both ports are ephemeral "high ports" (≥1024) — the
    /// hallmark of peer-to-peer traffic used by the paper's §5.1 analysis.
    pub fn both_high_ports(&self) -> bool {
        self.orig_port >= 1024 && self.resp_port >= 1024
    }
}

impl fmt::Display for FiveTuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{} -> {}:{}/{}",
            self.orig_addr, self.orig_port, self.resp_addr, self.resp_port, self.proto
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tup() -> FiveTuple {
        FiveTuple {
            orig_addr: Ipv4Addr::new(10, 1, 1, 2),
            orig_port: 49152,
            resp_addr: Ipv4Addr::new(93, 184, 216, 34),
            resp_port: 443,
            proto: Proto::Tcp,
        }
    }

    #[test]
    fn high_ports() {
        assert!(!tup().both_high_ports());
        let mut t = tup();
        t.resp_port = 51413;
        assert!(t.both_high_ports());
    }

    #[test]
    fn proto_names_round_trip() {
        for p in [Proto::Tcp, Proto::Udp] {
            assert_eq!(Proto::from_log_name(p.log_name()), Some(p));
        }
        assert_eq!(Proto::from_log_name("icmp"), None);
    }

    #[test]
    fn display() {
        assert_eq!(tup().to_string(), "10.1.1.2:49152 -> 93.184.216.34:443/tcp");
    }
}
