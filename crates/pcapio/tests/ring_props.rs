//! Seeded property suite for the in-memory SPSC ring.
//!
//! Every schedule here is derived from `xkit::rng` split streams, so a
//! failure reproduces bit for bit. The invariants under test:
//!
//! * FIFO: records come out in offer order with exact timestamps,
//!   original lengths, and snaplen-truncated payloads, across byte-level
//!   wraparound and frames split at the buffer edge.
//! * Conservation: at all times `produced = consumed + dropped +
//!   pending`, also while the consumer holds a batch it has not handed
//!   out, and after close + drain, `produced = consumed + dropped`
//!   exactly.
//! * No panics at degenerate capacities (1, 2, 7 bytes — too small for
//!   even a frame header) where every record is an oversize drop.
//! * Liveness: a threaded Block run finishes at every geometry and
//!   consumer pacing, a consumer that closes frees a parked producer,
//!   and a producer that trickles less than a batch is delivered without
//!   closing. Each such case runs under a watchdog, so a lost wake-up
//!   fails within seconds instead of hanging the suite.

use std::collections::VecDeque;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::thread;
use std::time::Duration;

use pcapio::ring::{self, Backpressure, PushOutcome};
use pcapio::RecordSource;
use xkit::rng::StdRng;

const SNAPLEN: u32 = 256;
const FRAME_HEADER_LEN: usize = 16;

/// Deterministic patterned payload for record `seq`: content checks never
/// depend on rng draws, only lengths and schedules do.
fn payload(seq: u64, len: usize) -> Vec<u8> {
    (0..len).map(|i| (seq as usize + i) as u8).collect()
}

/// What the consumer must observe for an enqueued record: the stored
/// slice is the payload truncated to snaplen, the rest passes through.
fn expected(seq: u64, ts: u64, orig_len: u32, body: &[u8]) -> (u64, u32, Vec<u8>) {
    let stored = body.len().min(SNAPLEN as usize);
    let _ = seq;
    (ts, orig_len, body[..stored].to_vec())
}

#[test]
fn seeded_wraparound_at_every_capacity() {
    // Capacities in bytes. 1/2/7 cannot hold even a frame header, so
    // every offer is an oversize drop; 4096 wraps constantly at these
    // record sizes.
    for &capacity in &[1usize, 2, 7, 4096] {
        let mut rng = StdRng::seed_from_u64(0xD15C).split(capacity as u64);
        let (mut tx, mut rx) = ring::channel(capacity, SNAPLEN, Backpressure::Block);
        let mut model: VecDeque<(u64, u32, Vec<u8>)> = VecDeque::new();

        let mut seq = 0u64;
        while seq < 500 {
            let len = rng.random_range(0usize..=300);
            let ts = rng.random::<u64>();
            let body = payload(seq, len);
            match tx.try_push(ts, len as u32, &body) {
                PushOutcome::Enqueued => {
                    model.push_back(expected(seq, ts, len as u32, &body));
                    seq += 1;
                }
                PushOutcome::Dropped => {
                    // Oversize (tiny capacities) — never re-offered.
                    seq += 1;
                }
                PushOutcome::WouldBlock => {
                    // Single-threaded backpressure: drain one and retry.
                    let want = model.pop_front().expect("WouldBlock implies pending records");
                    let got = rx.try_next().expect("pending record");
                    assert_eq!((got.ts_nanos, got.orig_len, got.data.to_vec()), want);
                }
            }
        }

        drop(tx);
        while let Some(want) = model.pop_front() {
            let got = rx.next().expect("ring io").expect("model says records remain");
            assert_eq!(
                (got.ts_nanos, got.orig_len, got.data.to_vec()),
                want,
                "capacity {capacity}: FIFO order or content violated"
            );
        }
        assert!(
            rx.next().expect("ring io").is_none(),
            "capacity {capacity}: drained ring must report end of stream"
        );
        assert_eq!(
            500,
            rx.consumed() + rx.dropped(),
            "capacity {capacity}: produced = consumed + dropped after drain"
        );
    }
}

#[test]
fn record_larger_than_remaining_contiguous_space_splits_cleanly() {
    // Capacity 48: one 24-byte record needs 40 bytes framed. After the
    // first push/pop the write head sits at offset 40 with only 8
    // contiguous bytes before the edge, so the second record *must*
    // split across the wraparound — and so must every one after it, at a
    // different offset each time.
    let (mut tx, mut rx) = ring::channel(48, SNAPLEN, Backpressure::Block);
    for seq in 0..64u64 {
        let body = payload(seq, 24);
        assert_eq!(tx.try_push(seq, 24, &body), PushOutcome::Enqueued);
        let got = rx.try_next().expect("just pushed");
        assert_eq!(got.ts_nanos, seq);
        assert_eq!(got.orig_len, 24);
        assert_eq!(got.data, &body[..], "record {seq} corrupted across the buffer edge");
    }
    assert_eq!(rx.consumed(), 64);
    assert_eq!(rx.dropped(), 0);
}

#[test]
fn seeded_interleavings_preserve_fifo_under_drop_newest() {
    // Eight independent schedules, each a random walk of pushes and pops
    // against a model queue. DropNewest means a full ring sheds the
    // offered record instead of blocking, so the single-threaded schedule
    // is fully deterministic and the model can track drops exactly.
    let root = StdRng::seed_from_u64(0x51D3);
    for label in 0..8u64 {
        let mut rng = root.split(label);
        let capacity = *rng.choose(&[64usize, 256, 1024, 4096]).expect("non-empty");
        let (mut tx, mut rx) = ring::channel(capacity, SNAPLEN, Backpressure::DropNewest);
        let mut model: VecDeque<(u64, u32, Vec<u8>)> = VecDeque::new();
        let mut offered = 0u64;
        let mut model_dropped = 0u64;

        for step in 0..2_000u64 {
            if rng.random_bool(0.6) {
                let len = rng.random_range(0usize..=300);
                let ts = step;
                let body = payload(offered, len);
                match tx.try_push(ts, len as u32, &body) {
                    PushOutcome::Enqueued => {
                        model.push_back(expected(offered, ts, len as u32, &body));
                    }
                    PushOutcome::Dropped => model_dropped += 1,
                    PushOutcome::WouldBlock => {
                        unreachable!("DropNewest never reports WouldBlock")
                    }
                }
                offered += 1;
            } else {
                match rx.try_next() {
                    Some(got) => {
                        let want = model.pop_front().expect("ring has a record the model lacks");
                        assert_eq!(
                            (got.ts_nanos, got.orig_len, got.data.to_vec()),
                            want,
                            "schedule {label}: FIFO violated"
                        );
                    }
                    None => assert!(model.is_empty(), "schedule {label}: model out of sync"),
                }
            }
            // Conservation with pending records still in flight.
            assert_eq!(
                tx.produced(),
                rx.consumed() + rx.dropped() + model.len() as u64,
                "schedule {label}: produced = consumed + dropped + pending"
            );
        }

        drop(tx);
        while let Some(want) = model.pop_front() {
            let got = rx.next().expect("ring io").expect("pending record");
            assert_eq!((got.ts_nanos, got.orig_len, got.data.to_vec()), want);
        }
        assert!(rx.next().expect("ring io").is_none());
        assert_eq!(offered, rx.consumed() + rx.dropped(), "schedule {label}: exact conservation");
        assert_eq!(model_dropped, rx.dropped(), "schedule {label}: drop accounting");
    }
}

#[test]
fn forced_backpressure_counts_every_dropped_record() {
    // Room for exactly 4 framed 16-byte records, then 12 more offers with
    // no consumer: all 12 must be counted dropped, none silently lost.
    let body_len = 16usize;
    let capacity = 4 * (FRAME_HEADER_LEN + body_len);
    let (mut tx, mut rx) = ring::channel(capacity, SNAPLEN, Backpressure::DropNewest);
    for seq in 0..16u64 {
        let body = payload(seq, body_len);
        let outcome = tx.try_push(seq, body_len as u32, &body);
        let want = if seq < 4 { PushOutcome::Enqueued } else { PushOutcome::Dropped };
        assert_eq!(outcome, want, "offer {seq}");
    }
    assert_eq!(tx.produced(), 16);
    assert_eq!(tx.dropped(), 12);

    drop(tx);
    let mut drained = 0u64;
    while let Some(got) = rx.next().expect("ring io") {
        assert_eq!(got.ts_nanos, drained, "survivors are the oldest four, in order");
        drained += 1;
    }
    assert_eq!(drained, 4);
    assert_eq!(rx.consumed() + rx.dropped(), 16, "produced = consumed + dropped");
}

#[test]
fn threaded_block_policy_delivers_everything_in_order() {
    // A real producer thread against a deliberately tiny ring: the
    // producer parks on the full ring thousands of times, and none of
    // that scheduling may be visible — Block never drops, so the
    // consumed sequence is exactly the produced sequence.
    under_watchdog("capacity 96".to_string(), || {
        const RECORDS: u64 = 10_000;
        let (mut tx, mut rx) = ring::channel(96, SNAPLEN, Backpressure::Block);
        let producer = std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(0xB10C);
            for seq in 0..RECORDS {
                let len = rng.random_range(0usize..=40);
                let body = payload(seq, len);
                assert!(tx.push(seq, len as u32, &body), "Block policy must never drop");
            }
            (tx.produced(), tx.dropped())
        });

        let mut rng = StdRng::seed_from_u64(0xB10C);
        let mut next_seq = 0u64;
        while let Some(got) = rx.next().expect("ring io") {
            let len = rng.random_range(0usize..=40);
            assert_eq!(got.ts_nanos, next_seq, "delivery order");
            assert_eq!(got.orig_len, len as u32);
            assert_eq!(got.data, &payload(next_seq, len)[..], "payload integrity");
            next_seq += 1;
        }
        let (produced, dropped) = producer.join().expect("producer thread");
        assert_eq!(produced, RECORDS);
        assert_eq!(dropped, 0);
        assert_eq!(next_seq, RECORDS, "every record delivered exactly once");
    });
}

#[test]
fn snaplen_truncation_is_visible_only_in_stored_bytes() {
    let (mut tx, mut rx) = ring::channel(4096, 64, Backpressure::Block);
    let body = payload(0, 200);
    assert_eq!(tx.try_push(7, 200, &body), PushOutcome::Enqueued);
    let got = rx.try_next().expect("pushed record");
    assert_eq!(got.ts_nanos, 7);
    assert_eq!(got.orig_len, 200, "original length survives truncation");
    assert_eq!(got.data, &body[..64], "stored bytes cut at snaplen");
}

#[test]
fn consumed_counts_the_records_handed_out_while_a_batch_is_held() {
    // Ten 24-byte frames are 240 B, inside one 512 B batch of a 4 KiB
    // ring: the first pull copies all ten out and hands out one.
    for policy in [Backpressure::Block, Backpressure::DropNewest] {
        let (mut tx, mut rx) = ring::channel(4096, SNAPLEN, policy);
        for seq in 0..10u64 {
            assert_eq!(tx.try_push(seq, 8, &payload(seq, 8)), PushOutcome::Enqueued);
        }
        assert_eq!(rx.try_next().expect("pushed records").ts_nanos, 0);
        assert_eq!(rx.consumed(), 1, "{policy:?}: only the record handed out is consumed");
        assert_eq!(tx.produced(), rx.consumed() + rx.dropped() + 9, "{policy:?}: nine pending");

        // Offer until the ring refuses: DropNewest sheds, Block would park.
        let mut pending = 9u64;
        for seq in 10..400u64 {
            match tx.try_push(seq, 200, &payload(seq, 200)) {
                PushOutcome::Enqueued => pending += 1,
                PushOutcome::Dropped => assert_eq!(policy, Backpressure::DropNewest),
                PushOutcome::WouldBlock => {
                    assert_eq!(policy, Backpressure::Block);
                    break;
                }
            }
            assert_eq!(
                tx.produced(),
                rx.consumed() + rx.dropped() + pending,
                "{policy:?}: produced = consumed + dropped + pending"
            );
        }
        assert!(pending > 9, "{policy:?}: the ring took more records");
        drop(tx);
        let mut seq = 1u64;
        while let Some(got) = rx.next().expect("ring io") {
            assert_eq!(got.ts_nanos, seq, "{policy:?}: FIFO across the held batch");
            seq += 1;
            pending -= 1;
            assert_eq!(rx.consumed(), seq, "{policy:?}: one more handed out");
        }
        assert_eq!(pending, 0, "{policy:?}: every enqueued record delivered");
        let offered = if policy == Backpressure::Block { seq } else { 400 };
        assert_eq!(offered, rx.consumed() + rx.dropped(), "{policy:?}: exact conservation");
    }
}

/// How long one threaded case may take before it counts as a lost
/// wake-up.
const WATCHDOG: Duration = Duration::from_secs(20);

/// Ring capacities of the liveness cases: exactly one maximal record
/// (a 65 535-byte snaplen), 1 KiB, and the serve daemon's 256 KiB ring.
/// Each case's snaplen is `capacity - 16`, so records run up to a full
/// ring and some need more than half of it.
const GEOMETRIES: [usize; 3] = [FRAME_HEADER_LEN + 65_535, 1 << 10, 1 << 18];

/// Records per threaded liveness case.
const LIVE_RECORDS: u64 = 4_000;

/// How the consumer of a threaded case pulls.
#[derive(Debug, Clone, Copy)]
enum Pacing {
    /// `next` in a tight loop.
    Tight,
    /// `next`, with a seeded yield or short sleep every 1–64 records.
    Paced,
    /// `try_next` in a loop that yields while the ring is empty.
    Polling,
}

/// Run `case` on its own thread and fail if it has not finished within
/// [`WATCHDOG`]; a panic inside the case fails the test as itself.
fn under_watchdog(name: String, case: impl FnOnce() + Send + 'static) {
    let (done_tx, done_rx) = mpsc::channel();
    let worker = thread::spawn(move || {
        case();
        let _ = done_tx.send(());
    });
    match done_rx.recv_timeout(WATCHDOG) {
        Ok(()) | Err(RecvTimeoutError::Disconnected) => {
            if let Err(panic) = worker.join() {
                std::panic::resume_unwind(panic);
            }
        }
        Err(RecvTimeoutError::Timeout) => {
            panic!("{name}: no progress within {WATCHDOG:?}, a lost wake-up")
        }
    }
}

/// Payload source for every record of a liveness case: record `seq` of
/// length `len` is `body[seq % 256..][..len]`, which is byte for byte
/// [`payload`]`(seq, len)` without an allocation per record.
fn pattern(capacity: usize) -> Vec<u8> {
    (0..capacity + 256).map(|i| i as u8).collect()
}

/// Seeded stored length of the next record: mostly small, one in ten
/// drawn up to a full ring.
fn live_len(rng: &mut StdRng, capacity: usize) -> usize {
    let max = capacity - FRAME_HEADER_LEN;
    if rng.random_bool(0.1) {
        rng.random_range(0..=max)
    } else {
        rng.random_range(0..=max.min(200))
    }
}

/// One threaded Block run: every record arrives once and in order, and
/// the counters conserve exactly.
fn block_run(capacity: usize, pacing: Pacing) {
    let snaplen = (capacity - FRAME_HEADER_LEN) as u32;
    let (mut tx, mut rx) = ring::channel(capacity, snaplen, Backpressure::Block);
    let root = StdRng::seed_from_u64(0x11FE).split(capacity as u64);
    let mut producer_lens = root.split(0);
    let producer = thread::spawn(move || {
        let body = pattern(capacity);
        for seq in 0..LIVE_RECORDS {
            let len = live_len(&mut producer_lens, capacity);
            let data = &body[(seq % 256) as usize..][..len];
            assert!(tx.push(seq, len as u32, data), "Block policy must never drop");
        }
        (tx.produced(), tx.dropped())
    });

    let body = pattern(capacity);
    let mut lens = root.split(0);
    let mut pace = root.split(1);
    let mut until_pause = pace.random_range(1u32..=64);
    let mut seq = 0u64;
    loop {
        let got = match pacing {
            Pacing::Polling => match rx.try_next() {
                Some(got) => got,
                None if seq == LIVE_RECORDS => break,
                None => {
                    thread::yield_now();
                    continue;
                }
            },
            Pacing::Tight | Pacing::Paced => match rx.next().expect("ring io") {
                Some(got) => got,
                None => break,
            },
        };
        let len = live_len(&mut lens, capacity);
        assert_eq!((got.ts_nanos, got.orig_len), (seq, len as u32), "{pacing:?}: delivery order");
        assert!(got.data == &body[(seq % 256) as usize..][..len], "{pacing:?}: record {seq} corrupted");
        seq += 1;
        if let Pacing::Paced = pacing {
            until_pause -= 1;
            if until_pause == 0 {
                if pace.random_bool(0.5) {
                    thread::yield_now();
                } else {
                    thread::sleep(Duration::from_micros(pace.random_range(1u64..=200)));
                }
                until_pause = pace.random_range(1u32..=64);
            }
        }
    }
    assert!(rx.next().expect("ring io").is_none(), "a drained, closed ring reports end of stream");
    let (produced, dropped) = producer.join().expect("producer thread");
    assert_eq!(seq, LIVE_RECORDS, "every record delivered exactly once");
    assert_eq!((produced, dropped), (LIVE_RECORDS, 0));
    assert_eq!(rx.consumed(), produced, "produced = consumed + dropped after drain");
}

#[test]
fn threaded_block_runs_finish_at_every_geometry_and_pacing() {
    for capacity in GEOMETRIES {
        for pacing in [Pacing::Tight, Pacing::Paced, Pacing::Polling] {
            under_watchdog(format!("capacity {capacity}, {pacing:?}"), move || {
                block_run(capacity, pacing)
            });
        }
    }
}

#[test]
fn a_trickle_smaller_than_a_batch_is_delivered_without_a_close() {
    // The producer waits for each receipt before it pushes again, so a
    // consumer that held out for a whole 32 KiB batch would never see the
    // 24-byte records: it must take what is there.
    under_watchdog("trickle".to_string(), || {
        let (mut tx, mut rx) = ring::channel(1 << 18, SNAPLEN, Backpressure::Block);
        let (receipt_tx, receipts) = mpsc::channel();
        let consumer = thread::spawn(move || {
            while let Some(got) = rx.next().expect("ring io") {
                receipt_tx.send(got.ts_nanos).expect("the producer waits for receipts");
            }
            rx.consumed()
        });
        for seq in 0..5u64 {
            assert!(tx.push(seq, 8, &payload(seq, 8)));
            assert_eq!(receipts.recv().expect("consumer thread"), seq, "record {seq} delivered");
        }
        drop(tx);
        assert_eq!(consumer.join().expect("consumer thread"), 5);
    });
}

#[test]
fn a_consumer_closing_on_a_parked_producer_frees_it() {
    for capacity in GEOMETRIES {
        under_watchdog(format!("capacity {capacity}, close"), move || {
            let snaplen = (capacity - FRAME_HEADER_LEN) as u32;
            let (mut tx, mut rx) = ring::channel(capacity, snaplen, Backpressure::Block);
            let flight = xkit::obs::FlightRecorder::new(8);
            tx.set_flight(flight.clone());
            let root = StdRng::seed_from_u64(0xC105).split(capacity as u64);
            let mut producer_lens = root.split(0);
            let producer = thread::spawn(move || {
                let body = pattern(capacity);
                let mut enqueued = 0u64;
                loop {
                    let len = live_len(&mut producer_lens, capacity);
                    let data = &body[(enqueued % 256) as usize..][..len];
                    if !tx.push(enqueued, len as u32, data) {
                        break;
                    }
                    enqueued += 1;
                }
                for _ in 0..3 {
                    assert!(!tx.push(0, 0, &[]), "every push after the close drops");
                }
                (enqueued, tx.produced(), tx.dropped())
            });

            let mut lens = root.split(0);
            let reads = root.split(1).random_range(0u64..=32);
            for seq in 0..reads {
                let got = rx.next().expect("ring io").expect("the producer is live");
                assert_eq!(got.ts_nanos, seq);
                assert_eq!(got.orig_len, live_len(&mut lens, capacity) as u32);
            }
            // Let the producer fill what the reads freed and park again.
            while flight.is_empty() {
                thread::yield_now();
            }
            thread::sleep(Duration::from_millis(5));
            drop(rx);

            let (enqueued, produced, dropped) = producer.join().expect("producer thread");
            assert!(enqueued >= reads, "only enqueued records can have been read");
            assert_eq!(dropped, 4, "the parked push and the three after it drop");
            assert_eq!(produced, enqueued + dropped, "produced = consumed + dropped + pending");
            let pending: usize =
                (reads..enqueued).map(|_| FRAME_HEADER_LEN + live_len(&mut lens, capacity)).sum();
            assert!(pending <= capacity, "{pending} pending bytes fit a {capacity}-byte ring");
        });
    }
}
