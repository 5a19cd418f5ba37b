//! Seeded property suite for the in-memory SPSC ring.
//!
//! Every schedule here is derived from `xkit::rng` split streams, so a
//! failure reproduces bit for bit. The invariants under test:
//!
//! * FIFO: records come out in offer order with exact timestamps,
//!   original lengths, and snaplen-truncated payloads, across byte-level
//!   wraparound and frames split at the buffer edge.
//! * Conservation: at all times `produced = consumed + dropped +
//!   pending`, and after close + drain, `produced = consumed + dropped`
//!   exactly.
//! * No panics at degenerate capacities (1, 2, 7 bytes — too small for
//!   even a frame header) where every record is an oversize drop.

use std::collections::VecDeque;

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
