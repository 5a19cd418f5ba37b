//! Inline connection-history codes.
//!
//! Zeek's `history` column is a short string of single-letter event codes
//! ('S' SYN, 'h' SYN-ACK, 'A'/'a' ACK, 'D'/'d' data, 'F'/'f' FIN, 'R'/'r'
//! RST; upper = originator). Each letter is logged at most once per
//! direction, so a real history never exceeds 12 bytes. Storing it as a
//! heap `String` put one allocation on every connection record in the hot
//! path; [`History`] is the interned replacement — a fixed inline buffer
//! that is `Copy`, allocation-free, and dereferences to `&str` so existing
//! call sites (`contains`, `starts_with`, `is_empty`, formatting) keep
//! working unchanged.

use std::fmt;
use std::ops::Deref;

/// A connection-history code string stored inline (no heap allocation).
///
/// Capacity is 15 bytes — comfortably above the 12-byte
/// maximum a well-formed history can reach. Pushes beyond capacity are
/// silently dropped rather than panicking, matching the "best-effort
/// annotation" role the column plays in Zeek.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct History {
    len: u8,
    buf: [u8; History::CAPACITY],
}

impl History {
    /// Maximum number of code bytes an instance can hold.
    const CAPACITY: usize = 15;

    /// The empty history.
    pub const fn new() -> History {
        History { len: 0, buf: [0; History::CAPACITY] }
    }

    /// Append one ASCII code character. Non-ASCII characters and pushes
    /// past capacity are ignored.
    pub fn push(&mut self, c: char) {
        if c.is_ascii() && (self.len as usize) < History::CAPACITY {
            self.buf[self.len as usize] = c as u8;
            self.len += 1;
        }
    }

    /// View the codes as a string slice.
    pub fn as_str(&self) -> &str {
        // Only ASCII bytes are ever stored, so this cannot fail; the
        // fallback keeps the accessor panic-free regardless.
        std::str::from_utf8(&self.buf[..self.len as usize]).unwrap_or("")
    }
}

impl Deref for History {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl From<&str> for History {
    fn from(s: &str) -> History {
        let mut h = History::new();
        for c in s.chars() {
            h.push(c);
        }
        h
    }
}

impl From<String> for History {
    fn from(s: String) -> History {
        History::from(s.as_str())
    }
}

impl PartialEq<&str> for History {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl fmt::Display for History {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for History {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_view() {
        let mut h = History::new();
        assert!(h.is_empty());
        for c in "ShAaDdFf".chars() {
            h.push(c);
        }
        assert_eq!(h.as_str(), "ShAaDdFf");
        assert_eq!(h.len(), 8);
        assert!(h.starts_with("Sh"));
        assert!(h.contains('D'));
        assert!(!h.contains('r'));
    }

    #[test]
    fn from_str_round_trips() {
        let h = History::from("ShADadFf");
        assert_eq!(h, "ShADadFf");
        assert_eq!(format!("{h}"), "ShADadFf");
        assert_eq!(format!("{h:?}"), "\"ShADadFf\"");
        assert_eq!(History::from(String::from("Sr")).as_str(), "Sr");
    }

    #[test]
    fn capacity_saturates_without_panic() {
        let mut h = History::new();
        for _ in 0..40 {
            h.push('D');
        }
        assert_eq!(h.len(), History::CAPACITY);
        let long = "ShAaDdFfRrShAaDdFfRr";
        let t = History::from(long);
        assert_eq!(t.as_str(), &long[..History::CAPACITY]);
    }

    #[test]
    fn equality_ignores_garbage_tail() {
        // Two identical sequences must compare equal however they were
        // built (derived Eq includes the buffer tail, which stays zeroed).
        let mut a = History::new();
        a.push('S');
        let b = History::from("S");
        assert_eq!(a, b);
        assert_ne!(a, History::new());
    }

    #[test]
    fn non_ascii_is_dropped() {
        let mut h = History::new();
        h.push('é');
        h.push('S');
        assert_eq!(h.as_str(), "S");
    }
}
