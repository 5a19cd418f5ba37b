//! Soft-error accounting: what the monitor rejected, and why.
//!
//! A production capture point sees damaged input constantly — clipped
//! snaplens, runt frames, flipped bits, malformed DNS. The monitor never
//! crashes on any of it; instead every rejection lands in exactly one
//! bucket here, so an analysis over partial logs can report *how* partial
//! they are. The struct rides on [`Logs`](crate::Logs) and merges
//! shard-wise like every other counter block.

use dns_wire::WireError;
use netpkt::PktError;
use std::fmt;
use xkit::obs::Metrics;

/// Field ↔ metric-name table shared by `to_metrics`, `from_metrics`, and
/// `merge`, so the struct and its obs counters cannot drift apart. Frame
/// rejections live under `zeek.reject.*` and DNS rejections under
/// `zeek.reject_dns.*` (disjoint prefixes, so prefix sums stay layered).
macro_rules! degradation_fields {
    ($mac:ident) => {
        $mac! {
            frames_seen => "zeek.frames_seen",
            frames_accepted => "zeek.frames_accepted",
            truncated_ethernet => "zeek.reject.truncated_ethernet",
            truncated_ipv4 => "zeek.reject.truncated_ipv4",
            truncated_transport => "zeek.reject.truncated_transport",
            unsupported_ethertype => "zeek.reject.unsupported_ethertype",
            not_ipv4 => "zeek.reject.not_ipv4",
            bad_ipv4_header => "zeek.reject.bad_ipv4_header",
            bad_checksum => "zeek.reject.bad_checksum",
            unsupported_protocol => "zeek.reject.unsupported_protocol",
            bad_tcp_offset => "zeek.reject.bad_tcp_offset",
            dns_payloads => "zeek.dns_payloads",
            dns_accepted => "zeek.dns_accepted",
            dns_truncated => "zeek.reject_dns.truncated",
            dns_bad_name => "zeek.reject_dns.bad_name",
            dns_bad_pointer => "zeek.reject_dns.bad_pointer",
            dns_length_mismatch => "zeek.reject_dns.length_mismatch",
            dns_other => "zeek.reject_dns.other",
        }
    };
}

/// Classified counts of every frame and DNS payload the monitor rejected.
///
/// `frames_seen = frames_accepted + sum(frame rejection buckets)` and
/// `dns_payloads = dns_accepted + sum(dns rejection buckets)` hold by
/// construction; the tests assert both.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DegradationStats {
    /// Frames offered to the monitor.
    pub frames_seen: u64,
    /// Frames that parsed through Ethernet/IPv4/transport.
    pub frames_accepted: u64,
    /// Frame ended inside the Ethernet header.
    pub truncated_ethernet: u64,
    /// Frame ended inside the IPv4 header or its options.
    pub truncated_ipv4: u64,
    /// Frame ended inside the UDP or TCP header.
    pub truncated_transport: u64,
    /// EtherType the monitor does not parse (ARP, IPv6, ...).
    pub unsupported_ethertype: u64,
    /// IP version field was not 4.
    pub not_ipv4: u64,
    /// Structurally bad IPv4 header (IHL/total-length fields).
    pub bad_ipv4_header: u64,
    /// A verified IPv4/UDP/TCP checksum did not match (bit damage).
    pub bad_checksum: u64,
    /// IP protocol that is neither TCP nor UDP.
    pub unsupported_protocol: u64,
    /// TCP data-offset field below the legal minimum.
    pub bad_tcp_offset: u64,
    /// Port-53 payloads offered to the DNS decoder.
    pub dns_payloads: u64,
    /// Payloads that decoded into a DNS message.
    pub dns_accepted: u64,
    /// DNS message ended mid-structure.
    pub dns_truncated: u64,
    /// Malformed name (label/name length, alphabet, empty label).
    pub dns_bad_name: u64,
    /// Bad or reserved compression pointer.
    pub dns_bad_pointer: u64,
    /// RDLENGTH or section-count fields inconsistent with the bytes.
    pub dns_length_mismatch: u64,
    /// Any other DNS decode failure.
    pub dns_other: u64,
}

impl DegradationStats {
    /// Classify one frame-level parse failure into its bucket.
    pub fn record_pkt_error(&mut self, err: &PktError) {
        match err {
            PktError::Truncated { layer, .. } => match *layer {
                "ethernet" => self.truncated_ethernet += 1,
                "ipv4" | "ipv4 options" => self.truncated_ipv4 += 1,
                _ => self.truncated_transport += 1,
            },
            PktError::UnsupportedEtherType(_) => self.unsupported_ethertype += 1,
            PktError::NotIpv4(_) => self.not_ipv4 += 1,
            PktError::BadIhl(_) | PktError::BadTotalLength(_) => self.bad_ipv4_header += 1,
            PktError::BadChecksum { .. } => self.bad_checksum += 1,
            PktError::UnsupportedProtocol(_) => self.unsupported_protocol += 1,
            PktError::BadDataOffset(_) => self.bad_tcp_offset += 1,
        }
    }

    /// Classify one DNS decode failure into its bucket.
    pub fn record_dns_error(&mut self, err: &WireError) {
        match err {
            WireError::Truncated { .. } => self.dns_truncated += 1,
            WireError::LabelTooLong(_)
            | WireError::NameTooLong(_)
            | WireError::BadLabelByte(_)
            | WireError::EmptyLabel
            | WireError::BadNameString(_) => self.dns_bad_name += 1,
            WireError::BadPointer { .. } | WireError::ReservedLabelType(_) => {
                self.dns_bad_pointer += 1
            }
            WireError::RdataLengthMismatch { .. } | WireError::CountMismatch { .. } => {
                self.dns_length_mismatch += 1
            }
            WireError::BadTcpFrame => self.dns_other += 1,
        }
    }

    /// Express the counters as an obs snapshot (the transport every
    /// stage shares); `from_metrics` inverts it exactly.
    pub fn to_metrics(&self) -> Metrics {
        let mut m = Metrics::new();
        self.store_metrics(&mut m);
        m
    }

    /// Overwrite this struct's keys in `m` with the current values
    /// (creating them): [`to_metrics`](DegradationStats::to_metrics) into
    /// a snapshot that already exists.
    pub fn store_metrics(&self, m: &mut Metrics) {
        macro_rules! emit {
            ($($field:ident => $name:literal,)*) => {
                $( m.set_counter($name, self.$field); )*
            };
        }
        degradation_fields!(emit);
    }

    /// Rebuild the struct view from an obs snapshot (absent counters read
    /// as zero, extra metrics are ignored).
    pub fn from_metrics(m: &Metrics) -> DegradationStats {
        let mut d = DegradationStats::default();
        macro_rules! load {
            ($($field:ident => $name:literal,)*) => {
                $( d.$field = m.counter($name); )*
            };
        }
        degradation_fields!(load);
        d
    }

    /// Fold another capture's (or shard's) counters into this one.
    ///
    /// Routed through the obs snapshot so there is exactly one merge path
    /// for these counters; this struct is a thin view over it.
    pub fn merge(&mut self, other: &DegradationStats) {
        let mut m = self.to_metrics();
        m.merge(&other.to_metrics());
        *self = DegradationStats::from_metrics(&m);
    }

    /// Frames rejected at any layer.
    fn frames_rejected(&self) -> u64 {
        self.truncated_ethernet
            + self.truncated_ipv4
            + self.truncated_transport
            + self.unsupported_ethertype
            + self.not_ipv4
            + self.bad_ipv4_header
            + self.bad_checksum
            + self.unsupported_protocol
            + self.bad_tcp_offset
    }

    /// Port-53 payloads the DNS decoder rejected.
    fn dns_rejected(&self) -> u64 {
        self.dns_truncated + self.dns_bad_name + self.dns_bad_pointer + self.dns_length_mismatch + self.dns_other
    }

    /// Fraction of offered frames that parsed, in `[0, 1]` (1.0 when no
    /// frames were offered).
    pub fn frame_acceptance(&self) -> f64 {
        if self.frames_seen == 0 {
            1.0
        } else {
            self.frames_accepted as f64 / self.frames_seen as f64
        }
    }

    /// Fraction of port-53 payloads that decoded, in `[0, 1]` (1.0 when
    /// none were offered).
    pub fn dns_acceptance(&self) -> f64 {
        if self.dns_payloads == 0 {
            1.0
        } else {
            self.dns_accepted as f64 / self.dns_payloads as f64
        }
    }

    /// True when nothing was rejected at any layer.
    pub fn is_clean(&self) -> bool {
        self.frames_rejected() == 0 && self.dns_rejected() == 0
    }
}

impl fmt::Display for DegradationStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "frames: {} seen, {} accepted ({:.2}%), {} rejected",
            self.frames_seen,
            self.frames_accepted,
            self.frame_acceptance() * 100.0,
            self.frames_rejected()
        )?;
        let frame_buckets = [
            ("truncated ethernet", self.truncated_ethernet),
            ("truncated ipv4", self.truncated_ipv4),
            ("truncated transport", self.truncated_transport),
            ("unsupported ethertype", self.unsupported_ethertype),
            ("not ipv4", self.not_ipv4),
            ("bad ipv4 header", self.bad_ipv4_header),
            ("bad checksum", self.bad_checksum),
            ("unsupported protocol", self.unsupported_protocol),
            ("bad tcp offset", self.bad_tcp_offset),
        ];
        for (label, n) in frame_buckets {
            if n > 0 {
                writeln!(f, "  {label}: {n}")?;
            }
        }
        writeln!(
            f,
            "dns payloads: {} seen, {} decoded ({:.2}%), {} rejected",
            self.dns_payloads,
            self.dns_accepted,
            self.dns_acceptance() * 100.0,
            self.dns_rejected()
        )?;
        let dns_buckets = [
            ("truncated", self.dns_truncated),
            ("bad name", self.dns_bad_name),
            ("bad pointer", self.dns_bad_pointer),
            ("length mismatch", self.dns_length_mismatch),
            ("other", self.dns_other),
        ];
        for (label, n) in dns_buckets {
            if n > 0 {
                writeln!(f, "  dns {label}: {n}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_pkt_error_lands_in_exactly_one_bucket() {
        let errors = [
            PktError::Truncated { layer: "ethernet", need: 14, have: 3 },
            PktError::Truncated { layer: "ipv4", need: 20, have: 6 },
            PktError::Truncated { layer: "ipv4 options", need: 24, have: 21 },
            PktError::Truncated { layer: "udp", need: 8, have: 2 },
            PktError::Truncated { layer: "tcp", need: 20, have: 9 },
            PktError::UnsupportedEtherType(0x0806),
            PktError::NotIpv4(6),
            PktError::BadIhl(3),
            PktError::BadTotalLength(4),
            PktError::BadChecksum { layer: "ipv4" },
            PktError::UnsupportedProtocol(1),
            PktError::BadDataOffset(2),
        ];
        let mut d = DegradationStats::default();
        for e in &errors {
            d.record_pkt_error(e);
        }
        assert_eq!(d.frames_rejected(), errors.len() as u64);
    }

    #[test]
    fn every_wire_error_lands_in_exactly_one_bucket() {
        let errors = [
            WireError::Truncated { context: "header" },
            WireError::LabelTooLong(64),
            WireError::NameTooLong(256),
            WireError::BadLabelByte(0),
            WireError::EmptyLabel,
            WireError::BadPointer { target: 99 },
            WireError::ReservedLabelType(0x40),
            WireError::RdataLengthMismatch { declared: 4, actual: 2 },
            WireError::CountMismatch { section: "answer" },
            WireError::BadTcpFrame,
            WireError::BadNameString("bad!".into()),
        ];
        let mut d = DegradationStats::default();
        for e in &errors {
            d.record_dns_error(e);
        }
        assert_eq!(d.dns_rejected(), errors.len() as u64);
    }

    #[test]
    fn merge_sums_and_acceptance_ratios() {
        let mut a = DegradationStats {
            frames_seen: 10,
            frames_accepted: 8,
            bad_checksum: 2,
            ..Default::default()
        };
        let b = DegradationStats {
            frames_seen: 10,
            frames_accepted: 10,
            dns_payloads: 4,
            dns_accepted: 3,
            dns_truncated: 1,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.frames_seen, 20);
        assert_eq!(a.frames_accepted, 18);
        assert_eq!(a.frames_rejected(), 2);
        assert!((a.frame_acceptance() - 0.9).abs() < 1e-12);
        assert!((a.dns_acceptance() - 0.75).abs() < 1e-12);
        assert!(!a.is_clean());
        assert!(DegradationStats::default().is_clean());
        assert_eq!(DegradationStats::default().frame_acceptance(), 1.0);
    }

    #[test]
    fn metrics_round_trip_is_exact() {
        // Populate every field with a distinct value so a dropped or
        // swapped mapping cannot cancel out.
        let mut d = DegradationStats::default();
        let errors: [PktError; 3] = [
            PktError::Truncated { layer: "ethernet", need: 14, have: 3 },
            PktError::BadChecksum { layer: "ipv4" },
            PktError::NotIpv4(6),
        ];
        for (i, e) in errors.iter().enumerate() {
            for _ in 0..=i {
                d.record_pkt_error(e);
            }
        }
        d.frames_seen = 100;
        d.frames_accepted = 94;
        d.dns_payloads = 40;
        d.dns_accepted = 37;
        d.record_dns_error(&WireError::EmptyLabel);
        d.record_dns_error(&WireError::BadTcpFrame);
        d.record_dns_error(&WireError::BadPointer { target: 9 });
        let m = d.to_metrics();
        assert_eq!(DegradationStats::from_metrics(&m), d);
        // The layered prefixes keep frame and dns rejects separable.
        assert_eq!(m.sum_counters("zeek.reject."), d.frames_rejected());
        assert_eq!(m.sum_counters("zeek.reject_dns."), d.dns_rejected());
        // The struct merge and the metrics merge are the same operation.
        let mut via_struct = d.clone();
        via_struct.merge(&d);
        let mut via_metrics = d.to_metrics();
        via_metrics.merge(&d.to_metrics());
        assert_eq!(via_struct.to_metrics(), via_metrics);
    }

    #[test]
    fn display_lists_only_nonzero_buckets() {
        let d = DegradationStats {
            frames_seen: 5,
            frames_accepted: 4,
            bad_checksum: 1,
            ..Default::default()
        };
        let s = d.to_string();
        assert!(s.contains("bad checksum: 1"));
        assert!(!s.contains("truncated ethernet"));
    }
}
