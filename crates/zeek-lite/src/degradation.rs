//! Soft-error accounting: what the monitor rejected, and why.
//!
//! A production capture point sees damaged input constantly — clipped
//! snaplens, runt frames, flipped bits, malformed DNS. The monitor never
//! crashes on any of it; instead every rejection lands in exactly one
//! bucket here, so an analysis over partial logs can report *how* partial
//! they are. The struct rides on [`Logs`](crate::Logs) and merges
//! shard-wise like every other counter block.

use crate::counters::DegradationStats;
use dns_wire::WireError;
use netpkt::PktError;
use std::fmt;

impl DegradationStats {
    /// Classify one frame-level parse failure into its bucket.
    pub(crate) fn record_pkt_error(&mut self, err: &PktError) {
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
    pub(crate) fn record_dns_error(&mut self, err: &WireError) {
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

    /// Frames rejected at any layer: `seen − accepted`, the identity the
    /// block keeps by construction.
    fn frames_rejected(&self) -> u64 {
        self.frames_seen.saturating_sub(self.frames_accepted)
    }

    /// Port-53 payloads the DNS decoder rejected.
    fn dns_rejected(&self) -> u64 {
        self.dns_payloads.saturating_sub(self.dns_accepted)
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
        // A bucket's label is its key suffix, `_` read as a space.
        let buckets = |f: &mut fmt::Formatter<'_>, prefix: &str, lead: &str| {
            for (key, _, n) in self.rows() {
                match key.strip_prefix(prefix) {
                    Some(label) if n > 0 => writeln!(f, "  {lead}{}: {n}", label.replace('_', " "))?,
                    _ => {}
                }
            }
            Ok(())
        };
        writeln!(
            f,
            "frames: {} seen, {} accepted ({:.2}%), {} rejected",
            self.frames_seen,
            self.frames_accepted,
            self.frame_acceptance() * 100.0,
            self.frames_rejected()
        )?;
        buckets(f, "zeek.reject.", "")?;
        writeln!(
            f,
            "dns payloads: {} seen, {} decoded ({:.2}%), {} rejected",
            self.dns_payloads,
            self.dns_accepted,
            self.dns_acceptance() * 100.0,
            self.dns_rejected()
        )?;
        buckets(f, "zeek.reject_dns.", "dns ")
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
        assert_eq!(d.to_metrics().sum_counters("zeek.reject."), errors.len() as u64);
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
        assert_eq!(d.to_metrics().sum_counters("zeek.reject_dns."), errors.len() as u64);
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
