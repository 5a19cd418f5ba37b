//! Time-series views of the analysis: how DNS' role varies over the day.
//!
//! The paper aggregates its week into single numbers; a diurnal breakdown
//! is the first question an operator asks next ("is the blocked share
//! worse at peak?"), and it doubles as a check that the workload model's
//! time-of-day structure is sane.

use crate::classify::{ClassCounts, ConnClass};
use crate::pairing::Pairing;
use zeek_lite::{ConnRecord, Duration, Timestamp};

/// One time bucket's classification summary.
#[derive(Debug, Clone)]
pub struct Bucket {
    /// Bucket start.
    pub start: Timestamp,
    /// Class tallies for connections starting in the bucket.
    pub classes: ClassCounts,
}

impl Bucket {
    /// Connections in the bucket.
    pub fn total(&self) -> usize {
        self.classes.total()
    }
}

/// Bucket the classified connections by start time.
///
/// Buckets are aligned to the first connection's timestamp; empty
/// buckets in the middle of the trace are preserved (their counts are
/// zero) so the series is evenly spaced.
pub fn bucketize(
    conns: &[ConnRecord],
    pairing: &Pairing,
    classes: &[ConnClass],
    width: Duration,
) -> Vec<Bucket> {
    assert!(width.nanos() > 0, "bucket width must be positive");
    let Some(first) = pairing.pairs.first().map(|p| conns[p.conn].ts) else {
        return Vec::new();
    };
    let mut buckets: Vec<Bucket> = Vec::new();
    for (pair, class) in pairing.pairs.iter().zip(classes) {
        let ts = conns[pair.conn].ts;
        let idx = (ts.since(first).nanos() / width.nanos()) as usize;
        while buckets.len() <= idx {
            let start = first + Duration(width.nanos() * buckets.len() as u64);
            buckets.push(Bucket { start, classes: ClassCounts::default() });
        }
        buckets[idx].classes.record(*class);
    }
    buckets
}

/// Fold buckets into 24 hour-of-day slots (UTC hours of the capture
/// timeline) — the diurnal profile. Returns `[(hour, ClassCounts); 24]`.
pub fn hour_of_day_profile(
    conns: &[ConnRecord],
    pairing: &Pairing,
    classes: &[ConnClass],
) -> [(u8, ClassCounts); 24] {
    let mut out: [(u8, ClassCounts); 24] =
        std::array::from_fn(|h| (h as u8, ClassCounts::default()));
    for (pair, class) in pairing.pairs.iter().zip(classes) {
        let secs = conns[pair.conn].ts.nanos() / 1_000_000_000;
        let hour = ((secs / 3_600) % 24) as usize;
        out[hour].1.record(*class);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pairing::PairingPolicy;
    use std::net::Ipv4Addr;
    use zeek_lite::{ConnState, FiveTuple, Proto};

    fn conn(ts_secs: u64, uid: u64) -> ConnRecord {
        ConnRecord {
            uid,
            ts: Timestamp::from_secs(ts_secs),
            id: FiveTuple {
                orig_addr: Ipv4Addr::new(10, 77, 0, 1),
                orig_port: 50_000,
                resp_addr: Ipv4Addr::new(9, 9, 9, 9),
                resp_port: 51_000,
                proto: Proto::Tcp,
            },
            duration: Duration::from_secs(1),
            orig_bytes: 1,
            resp_bytes: 1,
            orig_pkts: 1,
            resp_pkts: 1,
            state: ConnState::SF,
            history: zeek_lite::History::new(),
            service: None,
        }
    }

    fn classified(conns: &[ConnRecord]) -> (Pairing, Vec<ConnClass>) {
        let pairing = Pairing::build(conns, &[], PairingPolicy::MostRecent);
        let n = pairing.pairs.len();
        (pairing, vec![ConnClass::NoDns; n])
    }

    #[test]
    fn buckets_are_even_and_complete() {
        let conns: Vec<ConnRecord> = [0u64, 30, 100, 250, 260].iter().enumerate()
            .map(|(i, s)| conn(*s, i as u64))
            .collect();
        let (pairing, classes) = classified(&conns);
        let buckets = bucketize(&conns, &pairing, &classes, Duration::from_secs(60));
        assert_eq!(buckets.len(), 5); // spans [0, 260] in 60 s buckets
        assert_eq!(buckets[0].total(), 2);
        assert_eq!(buckets[1].total(), 1);
        assert_eq!(buckets[2].total(), 0); // preserved empty bucket
        assert_eq!(buckets[3].total(), 0);
        assert_eq!(buckets[4].total(), 2);
        let total: usize = buckets.iter().map(|b| b.total()).sum();
        assert_eq!(total, conns.len());
        assert_eq!(buckets[1].start, Timestamp::from_secs(60));
    }

    #[test]
    fn empty_input() {
        let (pairing, classes) = classified(&[]);
        assert!(bucketize(&[], &pairing, &classes, Duration::from_secs(60)).is_empty());
    }

    #[test]
    fn hour_profile_wraps_midnight() {
        // 23:30 and 00:30 on consecutive days land in hours 23 and 0.
        let conns = vec![conn(23 * 3_600 + 1_800, 0), conn(24 * 3_600 + 1_800, 1)];
        let (pairing, classes) = classified(&conns);
        let profile = hour_of_day_profile(&conns, &pairing, &classes);
        assert_eq!(profile[23].1.total(), 1);
        assert_eq!(profile[0].1.total(), 1);
        let total: usize = profile.iter().map(|(_, c)| c.total()).sum();
        assert_eq!(total, 2);
    }

    #[test]
    #[should_panic(expected = "bucket width")]
    fn zero_width_rejected() {
        let (pairing, classes) = classified(&[]);
        bucketize(&[], &pairing, &classes, Duration::ZERO);
    }
}
