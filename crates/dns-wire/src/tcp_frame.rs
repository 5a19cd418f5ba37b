//! The 2-byte length framing used when DNS runs over TCP (RFC 1035 §4.2.2).
//!
//! The CCZ dataset is UDP-only, but a monitor must still recognise TCP DNS,
//! so the framing lives here and is exercised by the monitor's tests.

use crate::WireError;

/// Prefix `payload` with its big-endian 16-bit length.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    debug_assert!(payload.len() <= u16::MAX as usize);
    let mut out = Vec::with_capacity(payload.len() + 2);
    out.extend_from_slice(&(payload.len() as u16).to_be_bytes());
    out.extend_from_slice(payload);
    out
}

/// Split one length-prefixed message off the front of `buf`.
///
/// Returns the message payload and the remaining bytes, or `Ok(None)` if
/// the buffer does not yet hold a complete message (streaming callers
/// accumulate and retry).
fn deframe(buf: &[u8]) -> Result<Option<(&[u8], &[u8])>, WireError> {
    if buf.len() < 2 {
        return Ok(None);
    }
    let len = u16::from_be_bytes([buf[0], buf[1]]) as usize;
    if buf.len() - 2 < len {
        return Ok(None);
    }
    let (msg, rest) = buf[2..].split_at(len);
    Ok(Some((msg, rest)))
}

/// Split a buffer into all complete framed messages, erroring on a
/// trailing partial frame (used when a whole TCP stream has been captured).
// lint: allow(unused-pub): nine floor tests (this module's, tests/fault_tolerance.rs, dns-wire's proptests and fuzz_smoke) pin TCP framing through it
pub fn deframe_all(mut buf: &[u8]) -> Result<Vec<&[u8]>, WireError> {
    let mut out = Vec::new();
    while !buf.is_empty() {
        match deframe(buf)? {
            Some((msg, rest)) => {
                out.push(msg);
                buf = rest;
            }
            None => return Err(WireError::BadTcpFrame),
        }
    }
    Ok(out)
}

/// Incremental deframer for DNS-over-TCP byte streams.
///
/// Feed arbitrarily-sized chunks (as a capture or socket delivers them);
/// complete messages come out as they finish. Holds at most one partial
/// message of buffered bytes.
#[derive(Debug, Default)]
pub struct Deframer {
    buf: Vec<u8>,
}

impl Deframer {
    /// An empty deframer.
    pub fn new() -> Deframer {
        Deframer::default()
    }

    /// Append stream bytes and pull out every now-complete message.
    pub fn push(&mut self, chunk: &[u8]) -> Vec<Vec<u8>> {
        self.buf.extend_from_slice(chunk);
        let mut out = Vec::new();
        loop {
            match deframe(&self.buf) {
                Ok(Some((msg, rest))) => {
                    out.push(msg.to_vec()); // lint: allow(no-owned-copy-hotpath): stream reassembly must buffer across chunks
                    self.buf = rest.to_vec(); // lint: allow(no-owned-copy-hotpath): stream reassembly must buffer across chunks
                }
                _ => break,
            }
        }
        out
    }

    /// Bytes currently buffered (a partial frame, or nothing).
    pub fn pending(&self) -> usize {
        self.buf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deframer_handles_arbitrary_chunking() {
        let mut stream = Vec::new();
        let msgs: Vec<Vec<u8>> = (0..5u8).map(|i| vec![i; (i as usize) * 7 + 1]).collect();
        for m in &msgs {
            stream.extend(frame(m));
        }
        // Feed one byte at a time — the worst case.
        let mut d = Deframer::new();
        let mut got = Vec::new();
        for b in &stream {
            got.extend(d.push(&[*b]));
        }
        assert_eq!(got, msgs);
        assert_eq!(d.pending(), 0);
    }

    #[test]
    fn deframer_reports_partial_tail() {
        let mut d = Deframer::new();
        let framed = frame(b"hello");
        assert!(d.push(&framed[..4]).is_empty());
        assert_eq!(d.pending(), 4);
        let got = d.push(&framed[4..]);
        assert_eq!(got, vec![b"hello".to_vec()]);
        assert_eq!(d.pending(), 0);
    }

    #[test]
    fn frame_deframe_round_trip() {
        let payload = b"hello dns";
        let framed = frame(payload);
        let (msg, rest) = deframe(&framed).unwrap().unwrap();
        assert_eq!(msg, payload);
        assert!(rest.is_empty());
    }

    #[test]
    fn incomplete_returns_none() {
        assert_eq!(deframe(&[0]).unwrap(), None);
        assert_eq!(deframe(&[0, 5, 1, 2]).unwrap(), None);
    }

    #[test]
    fn deframe_all_multiple() {
        let mut buf = frame(b"one");
        buf.extend(frame(b"two"));
        let msgs = deframe_all(&buf).unwrap();
        assert_eq!(msgs, vec![b"one".as_ref(), b"two".as_ref()]);
    }

    #[test]
    fn deframe_all_trailing_partial_is_error() {
        let mut buf = frame(b"one");
        buf.extend_from_slice(&[0, 9, 1]);
        assert!(deframe_all(&buf).is_err());
    }

    #[test]
    fn empty_payload() {
        let framed = frame(b"");
        let (msg, rest) = deframe(&framed).unwrap().unwrap();
        assert!(msg.is_empty());
        assert!(rest.is_empty());
    }
}
