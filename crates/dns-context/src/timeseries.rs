//! The diurnal view of the analysis: how DNS' role varies over the day.
//!
//! The paper aggregates its week into single numbers; a diurnal breakdown
//! is the first question an operator asks next ("is the blocked share
//! worse at peak?"), and it doubles as a check that the workload model's
//! time-of-day structure is sane.

use crate::classify::{ClassCounts, ConnClass};
use crate::pairing::Pairing;
use zeek_lite::ConnRecord;

/// Fold the classified connections into 24 hour-of-day slots (UTC hours
/// of the capture timeline) — the diurnal profile. Returns
/// `[(hour, ClassCounts); 24]`.
pub(crate) fn hour_of_day_profile(
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
    use zeek_lite::{ConnState, Duration, FiveTuple, Proto, Timestamp};

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
}
