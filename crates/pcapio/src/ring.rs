//! Fixed-capacity SPSC in-memory ring: the zero-round-trip backend of
//! the ingestion seam.
//!
//! [`channel`] returns a producer half ([`RingSink`]) and a consumer
//! half ([`RingSource`], a [`RecordSource`]). The producer frames each
//! record as a 16-byte header (timestamp, on-wire length, stored length)
//! plus its payload — snaplen-truncated exactly like
//! [`crate::PcapWriter::write_packet`] — into a circular byte buffer of
//! fixed capacity. Records wrap around the buffer edge at byte
//! granularity.
//!
//! **Batches.** The consumer takes whole records out of the ring in one
//! locked copy, up to `capacity / 8` framed bytes and at least one
//! record, into its own buffer, and hands them out from there without
//! the lock. The copy makes a record that wrapped the edge contiguous,
//! so a [`RecordRef`] borrowed from the ring obeys the same "valid until
//! the next read" contract as the file reader's. The records of a batch
//! after the first still count against the capacity until the
//! consumer's next locked pull, so the bytes not yet handed out never
//! exceed `capacity`.
//!
//! **Backpressure** is explicit and chosen at construction:
//!
//! * [`Backpressure::Block`] — a full ring parks the producer until the
//!   consumer frees space. Nothing is dropped, so the consumed sequence
//!   equals the produced sequence *regardless of thread scheduling*:
//!   a seeded producer yields bit-identical downstream output every run.
//! * [`Backpressure::DropNewest`] — a full ring rejects the incoming
//!   record and counts it in `dropped`. Which records drop depends on
//!   the producer/consumer interleaving, so this mode is deterministic
//!   exactly when the interleaving is (e.g. the single-threaded seeded
//!   schedules the property suite drives); across free-running threads
//!   only the conservation law below is guaranteed.
//!
//! **Conservation**: every record offered to the ring is counted exactly
//! once — `produced = consumed + dropped + pending`, where `consumed`
//! counts the records handed out and `pending` is what sits in the
//! buffer or in the consumer's batch. After the producer closes and the
//! consumer drains to `Ok(None)`, `produced = consumed + dropped` holds
//! exactly. A record that can never fit (framed size exceeds the ring
//! capacity) is dropped under either policy rather than deadlocking a
//! blocking producer.
//!
//! **Wake-ups** go only to a parked peer. A side about to wait marks
//! itself under the lock — the consumer in `rx_parked`, the producer by
//! the framed size it waits for in `tx_needs` — so an uncontended push
//! or pull makes no `futex_wake` call at all. The consumer parks only on
//! an empty ring, and a push wakes it; it then takes whatever whole
//! records are there, up to a batch. A pull wakes a parked producer once
//! `max(tx_needs, capacity / 2)` bytes are free, so a blocked producer
//! refills in half-ring batches instead of once per record. That cannot
//! deadlock: the consumer never parks on a non-empty ring, and a
//! consumer that keeps pulling reaches an empty ring with nothing held
//! back, where `free = capacity ≥ tx_needs` (a larger record was dropped
//! as oversize) and the pull issues the wake before the consumer can
//! park. Closing either half wakes every waiter.

use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use crate::source::{RecordSource, SourceHeader};
use crate::{PcapError, RecordRef, LINKTYPE_ETHERNET};

/// Bytes of framing per record in the ring: timestamp (8) + on-wire
/// length (4) + stored length (4).
const FRAME_HEADER_LEN: usize = 16;

/// What a full ring does to the producer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backpressure {
    /// Park the producer until space frees up; nothing is ever dropped.
    Block,
    /// Reject the incoming record and count it in `dropped`.
    DropNewest,
}

/// Outcome of a non-blocking [`RingSink::try_push`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushOutcome {
    /// The record is in the ring (counted in `produced`).
    Enqueued,
    /// The record was rejected — ring full under
    /// [`Backpressure::DropNewest`], oversized for the capacity, or the
    /// consumer is gone (counted in `produced` and `dropped`).
    Dropped,
    /// Ring full under [`Backpressure::Block`]: nothing was counted; the
    /// caller should retry after the consumer makes progress.
    WouldBlock,
}

struct State {
    /// Circular byte storage; `head` is the read offset, `len` the bytes
    /// in use. Frames may wrap the buffer edge at byte granularity.
    buf: Box<[u8]>,
    head: usize,
    len: usize,
    /// Bytes of the consumer's batch it had not handed out at its last
    /// pull: still counted against the capacity, released at the next.
    held: usize,
    produced: u64,
    /// Records copied out into a batch (the consumer subtracts those it
    /// has not handed out).
    consumed: u64,
    dropped: u64,
    tx_closed: bool,
    rx_closed: bool,
    /// The consumer is waiting on `data` for a record.
    rx_parked: bool,
    /// Framed bytes the producer waits on `space` for; 0 when it is not
    /// parked.
    tx_needs: usize,
}

#[cfg(debug_assertions)]
thread_local! {
    /// `notify_one` calls this thread has made, `[data, space]`: a push
    /// waking the consumer, a pull waking the producer. Pinned by tests.
    static WAKES: std::cell::Cell<[u64; 2]> = const { std::cell::Cell::new([0; 2]) };
    /// Waits on `data` this thread has begun as the consumer. Pinned by
    /// tests.
    static PARKS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

#[cfg(debug_assertions)]
fn count_wake(side: usize) {
    WAKES.with(|w| {
        let mut n = w.get();
        n[side] += 1;
        w.set(n);
    });
}

impl State {
    fn free(&self) -> usize {
        self.buf.len() - self.len - self.held
    }

    /// Copy `src` in at the tail, wrapping at the edge.
    fn write_bytes(&mut self, src: &[u8]) {
        let cap = self.buf.len();
        let tail = (self.head + self.len) % cap;
        let first = src.len().min(cap - tail);
        self.buf[tail..tail + first].copy_from_slice(&src[..first]);
        self.buf[..src.len() - first].copy_from_slice(&src[first..]);
        self.len += src.len();
    }

    /// Copy `dst.len()` bytes out from the head, wrapping at the edge.
    fn read_bytes(&mut self, dst: &mut [u8]) {
        let n = dst.len();
        let cap = self.buf.len();
        let first = n.min(cap - self.head);
        dst[..first].copy_from_slice(&self.buf[self.head..self.head + first]);
        dst[first..].copy_from_slice(&self.buf[..n - first]);
        self.head = (self.head + n) % cap;
        self.len -= n;
    }

    /// Framed size of the record whose header starts at buffer offset
    /// `at`; the header may wrap the edge.
    fn frame_len_at(&self, at: usize) -> usize {
        let cap = self.buf.len();
        let mut word = [0u8; 4];
        let mut field = at + 12;
        if field >= cap {
            field -= cap;
        }
        if field + 4 <= cap {
            word.copy_from_slice(&self.buf[field..field + 4]);
        } else {
            for (i, b) in word.iter_mut().enumerate() {
                *b = self.buf[(field + i) % cap];
            }
        }
        FRAME_HEADER_LEN + u32::from_le_bytes(word) as usize
    }

    /// Move the next batch into `out`: whole records from the head while
    /// they fit in `limit` bytes, and at least one. Everything after the
    /// first record stays `held` until the consumer's next pull. Returns
    /// the number of records.
    fn take_batch(&mut self, out: &mut Vec<u8>, limit: usize) -> u64 {
        let cap = self.buf.len();
        let first = self.frame_len_at(self.head);
        let (mut bytes, mut records, mut at) = (first, 1, self.head + first);
        while bytes < self.len {
            if at >= cap {
                at -= cap;
            }
            let frame = self.frame_len_at(at);
            if bytes + frame > limit {
                break;
            }
            bytes += frame;
            records += 1;
            at += frame;
        }
        if out.len() < bytes {
            // Zero-fill only on growth: a record larger than a batch.
            out.resize(bytes, 0);
        }
        self.read_bytes(&mut out[..bytes]);
        self.held = bytes - first;
        self.consumed += records;
        records
    }

    /// After a pull: whether to wake the producer, which is parked and now
    /// has both its record's room and half the ring free. Clears the mark
    /// so one episode costs one wake.
    fn take_tx_wake(&mut self) -> bool {
        let wake = self.tx_needs > 0 && self.free() >= self.tx_needs.max(self.buf.len() / 2);
        if wake {
            self.tx_needs = 0;
            #[cfg(debug_assertions)]
            count_wake(1);
        }
        wake
    }
}

struct Shared {
    state: Mutex<State>,
    /// Producer waits here for free space (Block policy).
    space: Condvar,
    /// Consumer waits here for data.
    data: Condvar,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, State> {
        // A panicking peer must not cascade: the state itself is always
        // consistent (mutations happen fully inside the lock).
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Build a ring of `capacity` bytes with the given snaplen and
/// backpressure policy, returning the producer and consumer halves.
///
/// `capacity` bounds the framed bytes in flight (each record costs its
/// 16-byte frame header + its stored length); a record whose framed size
/// exceeds `capacity` outright is dropped-with-counter under either
/// policy.
pub fn channel(capacity: usize, snaplen: u32, policy: Backpressure) -> (RingSink, RingSource) {
    let capacity = capacity.max(1);
    let batch_limit = (capacity / 8).max(1);
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            buf: vec![0u8; capacity].into_boxed_slice(),
            head: 0,
            len: 0,
            held: 0,
            produced: 0,
            consumed: 0,
            dropped: 0,
            tx_closed: false,
            rx_closed: false,
            rx_parked: false,
            tx_needs: 0,
        }),
        space: Condvar::new(),
        data: Condvar::new(),
    });
    let sink = RingSink { shared: Arc::clone(&shared), policy, snaplen, flight: None };
    let source = RingSource {
        shared,
        batch: vec![0u8; batch_limit],
        batch_limit,
        next: 0,
        unread: 0,
        snaplen,
        frames_read: 0,
        bytes_read: 0,
    };
    (sink, source)
}

/// Producer half of the ring.
///
/// Dropping the sink closes the stream: once the consumer drains what
/// remains, [`RingSource::next`] returns `Ok(None)`.
pub struct RingSink {
    shared: Arc<Shared>,
    policy: Backpressure,
    snaplen: u32,
    flight: Option<xkit::obs::FlightRecorder>,
}

impl RingSink {
    /// The snaplen every stored record is truncated to.
    pub fn snaplen(&self) -> u32 {
        self.snaplen
    }

    /// Attach a flight recorder; each producer park episode (a full ring
    /// under [`Backpressure::Block`]) records one `backpressure.stall`
    /// event. Recording happens on the already-parked path only, so the
    /// uncontended push stays recorder-free.
    pub fn set_flight(&mut self, flight: xkit::obs::FlightRecorder) {
        self.flight = Some(flight);
    }

    /// Offer one record without blocking. Counters move only on
    /// [`PushOutcome::Enqueued`] / [`PushOutcome::Dropped`];
    /// [`PushOutcome::WouldBlock`] leaves the record unaccounted for the
    /// caller to retry.
    pub fn try_push(&mut self, ts_nanos: u64, orig_len: u32, data: &[u8]) -> PushOutcome {
        let stored = data.len().min(self.snaplen as usize);
        let needed = FRAME_HEADER_LEN + stored;
        let mut st = self.shared.lock();
        if needed > st.buf.len() || st.rx_closed {
            st.produced += 1;
            st.dropped += 1;
            return PushOutcome::Dropped;
        }
        if st.free() < needed {
            match self.policy {
                Backpressure::Block => return PushOutcome::WouldBlock,
                Backpressure::DropNewest => {
                    st.produced += 1;
                    st.dropped += 1;
                    return PushOutcome::Dropped;
                }
            }
        }
        let mut header = [0u8; FRAME_HEADER_LEN];
        header[..8].copy_from_slice(&ts_nanos.to_le_bytes());
        header[8..12].copy_from_slice(&orig_len.to_le_bytes());
        header[12..16].copy_from_slice(&(stored as u32).to_le_bytes());
        st.write_bytes(&header);
        st.write_bytes(&data[..stored]);
        st.produced += 1;
        let wake = std::mem::take(&mut st.rx_parked);
        drop(st);
        if wake {
            #[cfg(debug_assertions)]
            count_wake(0);
            self.shared.data.notify_one();
        }
        PushOutcome::Enqueued
    }

    /// Offer one record, honouring the backpressure policy: under
    /// [`Backpressure::Block`] this parks until space frees up. Returns
    /// whether the record was enqueued (`false` means it was counted
    /// dropped: ring full under DropNewest, oversized, or consumer gone).
    pub fn push(&mut self, ts_nanos: u64, orig_len: u32, data: &[u8]) -> bool {
        loop {
            match self.try_push(ts_nanos, orig_len, data) {
                PushOutcome::Enqueued => return true,
                PushOutcome::Dropped => return false,
                PushOutcome::WouldBlock => {
                    let stored = data.len().min(self.snaplen as usize);
                    let needed = FRAME_HEADER_LEN + stored;
                    if let Some(flight) = &self.flight {
                        flight.record(
                            "backpressure.stall",
                            format_args!("ring full, need {needed} B"),
                            needed as f64,
                        );
                    }
                    let mut st = self.shared.lock();
                    while st.free() < needed && !st.rx_closed {
                        st.tx_needs = needed;
                        st = self.shared.space.wait(st).unwrap_or_else(|e| e.into_inner());
                    }
                    st.tx_needs = 0;
                }
            }
        }
    }

    /// Records offered so far (enqueued + dropped).
    // lint: allow(unused-pub): the conservation identity in ring_props and tests/ingest_agreement.rs reads it
    pub fn produced(&self) -> u64 {
        self.shared.lock().produced
    }

    /// Records rejected so far (full ring under DropNewest, oversized,
    /// or consumer gone).
    pub fn dropped(&self) -> u64 {
        self.shared.lock().dropped
    }
}

impl Drop for RingSink {
    fn drop(&mut self) {
        let mut st = self.shared.lock();
        st.tx_closed = true;
        drop(st);
        self.shared.data.notify_all();
    }
}

/// Consumer half of the ring: a [`RecordSource`] whose records borrow
/// from the batch it last copied out, as the file reader's borrow from
/// its read buffer.
pub struct RingSource {
    shared: Arc<Shared>,
    /// Framed records of the current batch, contiguous. Sized once to
    /// the batch limit; it grows only for a record larger than that.
    batch: Vec<u8>,
    /// Framed bytes one batch may take: `capacity / 8`, at least 1.
    batch_limit: usize,
    /// Offset in `batch` of the next record to hand out.
    next: usize,
    /// Records of the batch not yet handed out.
    unread: u64,
    snaplen: u32,
    frames_read: u64,
    bytes_read: u64,
}

impl RingSource {
    /// Non-blocking pull: `None` when the ring is currently empty
    /// (whether or not the producer is still live).
    // lint: allow(unused-pub): ring_props' model checks drive it
    pub fn try_next(&mut self) -> Option<RecordRef<'_>> {
        if self.unread == 0 && !self.fill(false) {
            return None;
        }
        Some(self.hand_out())
    }

    /// Records handed out so far.
    // lint: allow(unused-pub): the conservation identity in ring_props and tests/ingest_agreement.rs reads it
    pub fn consumed(&self) -> u64 {
        self.shared.lock().consumed - self.unread
    }

    /// Producer-side drop count, visible from the consumer for
    /// conservation checks.
    pub fn dropped(&self) -> u64 {
        self.shared.lock().dropped
    }

    /// The one locked step of a pull, taken when the batch is used up:
    /// release its held bytes, then copy the next batch out. With
    /// `block`, park while the ring is empty and open. Returns whether a
    /// record was taken; `false` means the ring is empty (and, with
    /// `block`, closed).
    fn fill(&mut self, block: bool) -> bool {
        let mut st = self.shared.lock();
        st.held = 0;
        while block && st.len == 0 && !st.tx_closed {
            // The released bytes may be all a parked producer waits for.
            if st.take_tx_wake() {
                self.shared.space.notify_one();
            }
            st.rx_parked = true;
            #[cfg(debug_assertions)]
            PARKS.with(|p| p.set(p.get() + 1));
            st = self.shared.data.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        st.rx_parked = false;
        let records = if st.len > 0 { st.take_batch(&mut self.batch, self.batch_limit) } else { 0 };
        let wake = st.take_tx_wake();
        drop(st);
        if wake {
            self.shared.space.notify_one();
        }
        self.next = 0;
        self.unread = records;
        records > 0
    }

    /// Hand out the next record of the batch.
    fn hand_out(&mut self) -> RecordRef<'_> {
        let start = self.next + FRAME_HEADER_LEN;
        let header = &self.batch[self.next..start];
        let ts_nanos = u64::from_le_bytes([
            header[0], header[1], header[2], header[3], header[4], header[5], header[6], header[7],
        ]);
        let orig_len = u32::from_le_bytes([header[8], header[9], header[10], header[11]]);
        let stored = u32::from_le_bytes([header[12], header[13], header[14], header[15]]) as usize;
        self.next = start + stored;
        self.unread -= 1;
        self.frames_read += 1;
        self.bytes_read += stored as u64;
        RecordRef { ts_nanos, orig_len, data: &self.batch[start..self.next] }
    }

    /// Close the consumer half: a parked `Block`-policy producer unblocks
    /// and its subsequent pushes count as `Dropped`. Idempotent; `Drop`
    /// calls it.
    fn close(&mut self) {
        let mut st = self.shared.lock();
        st.rx_closed = true;
        drop(st);
        self.shared.space.notify_all();
    }
}

impl RecordSource for RingSource {
    fn header(&self) -> SourceHeader {
        SourceHeader { link_type: LINKTYPE_ETHERNET, snaplen: self.snaplen }
    }

    /// Blocking pull: parks until a record arrives or the producer
    /// closes; `Ok(None)` once the ring is closed *and* drained.
    fn next(&mut self) -> Result<Option<RecordRef<'_>>, PcapError> {
        if self.unread == 0 && !self.fill(true) {
            return Ok(None);
        }
        Ok(Some(self.hand_out()))
    }

    fn metrics(&self) -> xkit::obs::Metrics {
        let mut m = xkit::obs::Metrics::new();
        m.add("capture.frames_read", self.frames_read);
        m.add("capture.bytes_read", self.bytes_read);
        // The ring carries pre-validated records, so nothing is ever
        // rejected; the counter exists so backend snapshots stay
        // field-compatible with the file reader's.
        m.add("capture.frames_rejected", 0);
        m
    }
}

impl Drop for RingSource {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_and_eof_semantics() {
        let (mut tx, mut rx) = channel(1024, 65_535, Backpressure::Block);
        assert!(tx.push(1, 10, b"aaaa"));
        assert!(tx.push(2, 4, b"bb"));
        drop(tx);
        let r = rx.next().unwrap().unwrap();
        assert_eq!((r.ts_nanos, r.orig_len, r.data), (1, 10, &b"aaaa"[..]));
        let r = rx.next().unwrap().unwrap();
        assert_eq!((r.ts_nanos, r.orig_len, r.data), (2, 4, &b"bb"[..]));
        assert!(rx.next().unwrap().is_none());
        assert_eq!(rx.consumed(), 2);
        assert_eq!(rx.dropped(), 0);
    }

    #[test]
    fn snaplen_truncates_stored_bytes_only() {
        let (mut tx, mut rx) = channel(1024, 3, Backpressure::Block);
        assert!(tx.push(5, 9, b"abcdefghi"));
        drop(tx);
        let r = rx.next().unwrap().unwrap();
        assert_eq!((r.ts_nanos, r.orig_len, r.data), (5, 9, &b"abc"[..]));
        let m = RecordSource::metrics(&rx);
        assert_eq!(m.counter("capture.bytes_read"), 3);
    }

    #[test]
    fn blocked_producer_records_stall_events() {
        // Frame = 16-byte header + 16 bytes payload = 32 B; a 40 B ring
        // holds one frame, so the second push must park.
        let (mut tx, mut rx) = channel(40, 65_535, Backpressure::Block);
        let flight = xkit::obs::FlightRecorder::new(8);
        tx.set_flight(flight.clone());
        assert!(tx.push(1, 16, &[0u8; 16]));
        let producer = std::thread::spawn(move || tx.push(2, 16, &[0u8; 16]));
        // The stall event is recorded before the producer parks, so
        // waiting for it keeps the schedule deterministic.
        while flight.is_empty() {
            std::thread::yield_now();
        }
        assert_eq!(rx.next().unwrap().unwrap().ts_nanos, 1);
        assert!(producer.join().unwrap_or(false));
        assert_eq!(rx.next().unwrap().unwrap().ts_nanos, 2);
        let events = flight.snapshot();
        assert_eq!(events[0].kind, "backpressure.stall");
        assert_eq!(events[0].value, 32.0);
    }

    #[test]
    fn oversized_record_drops_under_block_policy() {
        let (mut tx, mut rx) = channel(32, 65_535, Backpressure::Block);
        assert!(!tx.push(1, 100, &[0u8; 100]), "cannot ever fit: must drop, not deadlock");
        assert_eq!(tx.produced(), 1);
        assert_eq!(tx.dropped(), 1);
        drop(tx);
        assert!(rx.next().unwrap().is_none());
    }

    /// Nobody parks when the ring holds everything, so a run that pushes
    /// every record and then drains them makes no `notify_one` call.
    #[cfg(debug_assertions)]
    #[test]
    fn an_uncontended_run_wakes_nobody() {
        let (mut tx, mut rx) = channel(1 << 16, 65_535, Backpressure::Block);
        WAKES.with(|w| w.set([0; 2]));
        for seq in 0..1_000u64 {
            assert!(tx.push(seq, 32, &[0u8; 32]));
        }
        drop(tx);
        let mut drained = 0u64;
        while rx.next().unwrap().is_some() {
            drained += 1;
        }
        assert_eq!(drained, 1_000);
        assert_eq!(WAKES.with(|w| w.get()), [0, 0], "[data, space] wake-ups");
    }

    /// A producer stuck behind a slow consumer is woken once per half
    /// ring, not once per record. Between a park (free < needed ≤ 80 B)
    /// and its wake (free ≥ capacity / 2) the consumer pops more than
    /// `capacity / 2 - 80` bytes, which at this geometry keeps the wakes
    /// within `2 · bytes / capacity + 2` on any schedule.
    #[cfg(debug_assertions)]
    #[test]
    fn a_slow_consumer_wakes_the_producer_once_per_half_ring() {
        const CAPACITY: usize = 1 << 16;
        const RECORDS: u64 = 40_000;
        let len = |seq: u64| (seq % 65) as usize;
        let (mut tx, mut rx) = channel(CAPACITY, 65_535, Backpressure::Block);
        let producer = std::thread::spawn(move || {
            for seq in 0..RECORDS {
                assert!(tx.push(seq, len(seq) as u32, &[0u8; 64][..len(seq)]));
            }
        });
        WAKES.with(|w| w.set([0; 2]));
        let mut bytes = 0;
        while let Some(got) = rx.next().unwrap() {
            assert_eq!(got.data.len(), len(got.ts_nanos));
            bytes += FRAME_HEADER_LEN + got.data.len();
            if got.ts_nanos % 256 == 0 {
                std::thread::sleep(std::time::Duration::from_micros(50));
            }
        }
        producer.join().unwrap();
        assert_eq!(rx.consumed(), RECORDS);
        let wakes = WAKES.with(|w| w.get())[1];
        assert!(wakes <= (2 * bytes / CAPACITY + 2) as u64, "{wakes} producer wakes for {bytes} B");
    }

    /// A push wakes the consumer only if it parked on the empty ring and
    /// clears the mark, so a counting consumer that outruns its producer
    /// is woken at most once per park, on any schedule.
    #[cfg(debug_assertions)]
    #[test]
    fn a_push_wakes_the_consumer_only_from_a_park() {
        const RECORDS: u64 = 40_000;
        let len = |seq: u64| (seq % 65) as usize;
        let (mut tx, mut rx) = channel(1 << 16, 65_535, Backpressure::Block);
        let producer = std::thread::spawn(move || {
            WAKES.with(|w| w.set([0; 2]));
            for seq in 0..RECORDS {
                assert!(tx.push(seq, len(seq) as u32, &[0u8; 64][..len(seq)]));
            }
            WAKES.with(|w| w.get())[0]
        });
        PARKS.with(|p| p.set(0));
        let mut records = 0u64;
        while let Some(got) = rx.next().unwrap() {
            assert_eq!((got.ts_nanos, got.data.len()), (records, len(records)));
            records += 1;
        }
        let wakes = producer.join().unwrap();
        let parks = PARKS.with(|p| p.get());
        assert_eq!(records, RECORDS);
        assert!(wakes <= parks, "{wakes} consumer wakes for {parks} parks");
    }

    #[test]
    fn close_unblocks_the_producer_and_conserves_counts() {
        // Same one-frame geometry as the stall test: the second push
        // parks until the consumer closes its half.
        let (mut tx, mut rx) = channel(40, 65_535, Backpressure::Block);
        let flight = xkit::obs::FlightRecorder::new(8);
        tx.set_flight(flight.clone());
        assert!(tx.push(1, 16, &[0u8; 16]));
        let producer = std::thread::spawn(move || {
            let parked = tx.push(2, 16, &[0u8; 16]);
            let after_close = tx.push(3, 16, &[0u8; 16]);
            (parked, after_close, tx.produced(), tx.dropped())
        });
        while flight.is_empty() {
            std::thread::yield_now();
        }
        rx.close();
        rx.close(); // idempotent
        let (parked, after_close, produced, dropped) = producer.join().unwrap();
        assert!(!parked, "the parked push unblocks as a drop, not a deadlock");
        assert!(!after_close, "every push after close drops");
        // Conservation: produced = consumed + dropped + pending.
        assert_eq!(produced, 3);
        assert_eq!(dropped, 2);
        assert_eq!(rx.consumed() + dropped, produced - 1, "frame 1 still pending");
    }
}
