//! The monitor's books: every `zeek.*` counter it exports, named once.
//!
//! One table row per counter — doc, merge rule, field, metric key —
//! yields the struct and its `store_metrics`/`from_metrics`/`merge`, so a
//! field and its exported key cannot drift apart. The two blocks hold
//! disjoint facts: [`DegradationStats`] counts what each layer was
//! offered, accepted and rejected; [`MonitorStats`] holds what those
//! counts do not say (bytes, ports, tracker occupancy).

use xkit::obs::Metrics;

/// How a row travels as a metric and folds across shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Rule {
    /// A counter: shards add.
    Sum,
    /// A high-water mark, exported as a gauge: shards take the maximum.
    Max,
}

impl Rule {
    #[inline]
    fn store(self, m: &mut Metrics, key: &str, v: u64) {
        match self {
            Rule::Sum => m.set_counter(key, v),
            Rule::Max => m.set_gauge(key, v as f64),
        }
    }

    #[cfg(test)]
    fn load(self, m: &Metrics, key: &str) -> u64 {
        match self {
            Rule::Sum => m.counter(key),
            Rule::Max => m.gauge(key).unwrap_or(0.0) as u64,
        }
    }

    #[inline]
    fn fold(self, a: u64, b: u64) -> u64 {
        match self {
            Rule::Sum => a + b,
            Rule::Max => a.max(b),
        }
    }
}

macro_rules! counter_block {
    (
        $(#[$block_doc:meta])*
        $name:ident {
            $( $(#[$doc:meta])* $rule:ident $field:ident => $key:literal, )*
        }
    ) => {
        $(#[$block_doc])*
        #[derive(Debug, Clone, Default, PartialEq, Eq)]
        pub struct $name {
            $( $(#[$doc])* pub $field: u64, )*
        }

        impl $name {
            /// The table, in declaration order: `(metric key, rule, value)`.
            pub(crate) fn rows(&self) -> impl Iterator<Item = (&'static str, Rule, u64)> {
                [ $( ($key, Rule::$rule, self.$field), )* ].into_iter()
            }

            /// Express the block as an obs snapshot (the transport every
            /// stage shares); `from_metrics` inverts it exactly.
            pub fn to_metrics(&self) -> Metrics {
                let mut m = Metrics::new();
                self.store_metrics(&mut m);
                m
            }

            /// Overwrite this block's keys in `m` with the current values
            /// (creating them): `to_metrics` into a snapshot that already
            /// exists, so a per-epoch publisher allocates nothing.
            pub fn store_metrics(&self, m: &mut Metrics) {
                self.rows().for_each(|(key, rule, v)| rule.store(m, key, v));
            }

            /// Rebuild the block from an obs snapshot (absent metrics read
            /// as zero, extra metrics are ignored): the inverse the
            /// round-trip tests state the table's bijection with.
            #[cfg(test)]
            pub(crate) fn from_metrics(m: &Metrics) -> $name {
                $name { $( $field: Rule::$rule.load(m, $key), )* }
            }

            /// Fold another capture's (or shard's) block into this one,
            /// row by row under each row's rule — the same fold
            /// `Metrics::merge` applies to the exported keys.
            pub(crate) fn merge(&mut self, other: &$name) {
                $( self.$field = Rule::$rule.fold(self.$field, other.$field); )*
            }
        }
    };
}

counter_block! {
    /// What the monitor saw that [`DegradationStats`] does not count.
    MonitorStats {
        /// Wire bytes represented by the frames offered (pcap `orig_len` sum).
        Sum wire_bytes => "zeek.wire_bytes",
        /// IPv4 packets that were neither TCP nor UDP.
        Sum non_udp_tcp => "zeek.non_udp_tcp",
        /// Packets to/from the DNS-over-TLS port (853) — the paper's §5.1
        /// encrypted-DNS presence check.
        Sum dot_port_packets => "zeek.dot_port_packets",
        /// Highest number of simultaneously tracked flows (tracker
        /// occupancy high-water mark).
        Max peak_active_flows => "zeek.peak_active_flows",
    }
}

counter_block! {
    /// Every frame and DNS payload the monitor was offered, accepted, or
    /// rejected — and why.
    ///
    /// Each rejection lands in exactly one bucket: frame rejections under
    /// `zeek.reject.*`, DNS rejections under `zeek.reject_dns.*` (disjoint
    /// prefixes, so prefix sums stay layered). The monitor bumps `seen`,
    /// then `accepted` or one bucket, so `frames_seen = frames_accepted +
    /// Σ zeek.reject.*` and `dns_payloads = dns_accepted +
    /// Σ zeek.reject_dns.*` hold at every instant; the tests assert both.
    DegradationStats {
        /// Frames offered to the monitor.
        Sum frames_seen => "zeek.frames_seen",
        /// Frames that parsed through Ethernet/IPv4/transport.
        Sum frames_accepted => "zeek.frames_accepted",
        /// Frame ended inside the Ethernet header.
        Sum truncated_ethernet => "zeek.reject.truncated_ethernet",
        /// Frame ended inside the IPv4 header or its options.
        Sum truncated_ipv4 => "zeek.reject.truncated_ipv4",
        /// Frame ended inside the UDP or TCP header.
        Sum truncated_transport => "zeek.reject.truncated_transport",
        /// EtherType the monitor does not parse (ARP, IPv6, ...).
        Sum unsupported_ethertype => "zeek.reject.unsupported_ethertype",
        /// IP version field was not 4.
        Sum not_ipv4 => "zeek.reject.not_ipv4",
        /// Structurally bad IPv4 header (IHL/total-length fields).
        Sum bad_ipv4_header => "zeek.reject.bad_ipv4_header",
        /// A verified IPv4/UDP/TCP checksum did not match (bit damage).
        Sum bad_checksum => "zeek.reject.bad_checksum",
        /// IP protocol that is neither TCP nor UDP.
        Sum unsupported_protocol => "zeek.reject.unsupported_protocol",
        /// TCP data-offset field below the legal minimum.
        Sum bad_tcp_offset => "zeek.reject.bad_tcp_offset",
        /// Port-53 payloads offered to the DNS decoder.
        Sum dns_payloads => "zeek.dns_payloads",
        /// Payloads that decoded into a DNS message.
        Sum dns_accepted => "zeek.dns_accepted",
        /// DNS message ended mid-structure.
        Sum dns_truncated => "zeek.reject_dns.truncated",
        /// Malformed name (label/name length, alphabet, empty label).
        Sum dns_bad_name => "zeek.reject_dns.bad_name",
        /// Bad or reserved compression pointer.
        Sum dns_bad_pointer => "zeek.reject_dns.bad_pointer",
        /// RDLENGTH or section-count fields inconsistent with the bytes.
        Sum dns_length_mismatch => "zeek.reject_dns.length_mismatch",
        /// Any other DNS decode failure.
        Sum dns_other => "zeek.reject_dns.other",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xkit::obs::Metric;

    /// Walk one block's table: distinct values per row survive
    /// `store_metrics` → `from_metrics`, every key is exported once with
    /// its rule's metric kind, and `merge` is `Metrics::merge`.
    macro_rules! walk {
        ($block:ident) => {{
            let mut m = Metrics::new();
            for (i, (key, rule, _)) in $block::default().rows().enumerate() {
                rule.store(&mut m, key, 100 + i as u64);
            }
            assert_eq!(m.len(), $block::default().rows().count(), "a key is listed twice");
            let block = $block::from_metrics(&m);
            assert_eq!(block.to_metrics(), m);
            for (i, (key, rule, v)) in block.rows().enumerate() {
                assert_eq!(v, 100 + i as u64, "{key}");
                let kind_matches = match (rule, m.get(key)) {
                    (Rule::Sum, Some(Metric::Counter(n))) => *n == v,
                    (Rule::Max, Some(Metric::Gauge(g))) => *g == v as f64,
                    _ => false,
                };
                assert!(kind_matches, "{key} travels as the wrong metric kind");
            }
            // Stored over a snapshot that already holds other values.
            let mut stale = $block::default().to_metrics();
            block.store_metrics(&mut stale);
            assert_eq!(stale, m);

            let mut twice = block.clone();
            twice.merge(&block);
            for ((key, rule, one), (_, _, two)) in block.rows().zip(twice.rows()) {
                assert_eq!(two, if rule == Rule::Max { one } else { 2 * one }, "{key}");
            }
            let mut folded = m.clone();
            folded.merge(&m);
            assert_eq!(twice.to_metrics(), folded);
            let mut from_empty = $block::default();
            from_empty.merge(&block);
            assert_eq!(from_empty, block);
        }};
    }

    #[test]
    fn every_counter_round_trips_and_merges_by_its_rule() {
        walk!(MonitorStats);
        walk!(DegradationStats);
        // The gauge takes the larger side whichever way the merge runs.
        let mut low = MonitorStats { wire_bytes: 3, peak_active_flows: 2, ..Default::default() };
        let high = MonitorStats { wire_bytes: 4, peak_active_flows: 5, ..Default::default() };
        low.merge(&high);
        assert_eq!((low.wire_bytes, low.peak_active_flows), (7, 5));
        // Under faults `Display` prints exactly the non-zero buckets, in
        // table order, labelled by key suffix.
        let damaged = DegradationStats {
            frames_seen: 10,
            frames_accepted: 7,
            truncated_ipv4: 1,
            bad_ipv4_header: 2,
            dns_payloads: 4,
            dns_accepted: 2,
            dns_bad_name: 1,
            dns_length_mismatch: 1,
            ..Default::default()
        };
        assert_eq!(
            damaged.to_string(),
            "frames: 10 seen, 7 accepted (70.00%), 3 rejected\n  truncated ipv4: 1\n  bad ipv4 header: 2\n\
             dns payloads: 4 seen, 2 decoded (50.00%), 2 rejected\n  dns bad name: 1\n  dns length mismatch: 1\n"
        );
        // The two blocks export disjoint keys.
        let mut both = MonitorStats::default().to_metrics();
        both.merge(&DegradationStats::default().to_metrics());
        assert_eq!(both.len(), 4 + 18);
    }
}
