use crate::WireError;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};

/// Maximum total encoded length of a name, including the root octet.
const MAX_NAME_LEN: usize = 255;
/// Maximum length of one label.
const MAX_LABEL_LEN: usize = 63;
/// Upper bound on compression-pointer hops while decoding one name.
const MAX_POINTER_HOPS: usize = 64;

/// A fully-qualified domain name.
///
/// Stored as lower-cased labels (DNS names compare case-insensitively,
/// RFC 1035 §2.3.3; we normalise on construction so `Eq`/`Hash` are cheap).
/// The root name has zero labels and displays as `.`.
#[derive(Clone, Eq)]
pub struct Name {
    labels: Vec<Box<[u8]>>,
}

impl Name {
    /// The root name (zero labels).
    pub fn root() -> Self {
        Name { labels: Vec::new() }
    }

    /// Parse a presentation-format name such as `"www.example.com"`.
    ///
    /// A single trailing dot is accepted and ignored. Labels must be
    /// non-empty, at most 63 octets, and drawn from the letter/digit/hyphen/
    /// underscore alphabet (underscore appears in real traffic for SRV and
    /// DKIM names, so a monitor must accept it).
    pub fn parse(s: &str) -> Result<Self, WireError> {
        let s = s.strip_suffix('.').unwrap_or(s);
        if s.is_empty() {
            return Ok(Name::root());
        }
        let mut labels = Vec::new();
        let mut total = 1usize; // root octet
        for raw in s.split('.') {
            if raw.is_empty() {
                return Err(WireError::EmptyLabel);
            }
            if raw.len() > MAX_LABEL_LEN {
                return Err(WireError::LabelTooLong(raw.len()));
            }
            for &b in raw.as_bytes() {
                if !label_byte_ok(b) {
                    return Err(WireError::BadNameString(s.to_string()));
                }
            }
            total += 1 + raw.len();
            labels.push(raw.to_ascii_lowercase().into_bytes().into_boxed_slice());
        }
        if total > MAX_NAME_LEN {
            return Err(WireError::NameTooLong(total));
        }
        Ok(Name { labels })
    }

    /// Construct from already-validated labels. Used by the decoder.
    fn from_labels(labels: Vec<Box<[u8]>>) -> Self {
        Name { labels }
    }

    /// Encoded length on the wire without compression.
    pub fn wire_len(&self) -> usize {
        1 + self.labels.iter().map(|l| 1 + l.len()).sum::<usize>()
    }

    /// The parent name (one label removed), or `None` at the root.
    pub fn parent(&self) -> Option<Name> {
        if self.labels.is_empty() {
            return None;
        }
        Some(Name {
            labels: self.labels[1..].to_vec(), // lint: allow(no-owned-copy-hotpath): analysis-time name algebra, not per-frame decode
        })
    }

    /// The registrable-suffix heuristic used by log analysis: the last two
    /// labels (e.g. `example.com` for `www.example.com`). Names with fewer
    /// than two labels return themselves.
    pub fn base_domain(&self) -> Name {
        if self.labels.len() <= 2 {
            return self.clone(); // lint: allow(no-owned-copy-hotpath): analysis-time name algebra, not per-frame decode
        }
        Name {
            labels: self.labels[self.labels.len() - 2..].to_vec(), // lint: allow(no-owned-copy-hotpath): analysis-time name algebra
        }
    }

    /// Encode without compression, appending to `out`.
    pub fn encode_uncompressed(&self, out: &mut Vec<u8>) {
        for l in &self.labels {
            out.push(l.len() as u8);
            out.extend_from_slice(l);
        }
        out.push(0);
    }

    /// Encode with message compression.
    ///
    /// `compressor` maps previously-emitted names (as suffix strings) to
    /// their offsets. Offsets beyond the 14-bit pointer range are not
    /// registered, per RFC 1035 §4.1.4.
    pub fn encode_compressed(&self, out: &mut Vec<u8>, compressor: &mut HashMap<Name, usize>) {
        // Walk suffixes from the full name down; emit labels until a known
        // suffix is found, then emit a pointer.
        let mut idx = 0usize;
        while idx < self.labels.len() {
            let suffix = Name {
                labels: self.labels[idx..].to_vec(), // lint: allow(no-owned-copy-hotpath): encoder (simulator side), not the decode path
            };
            if let Some(&off) = compressor.get(&suffix) {
                debug_assert!(off < 0x4000);
                out.push(0xC0 | ((off >> 8) as u8));
                out.push((off & 0xFF) as u8);
                return;
            }
            if out.len() < 0x4000 {
                compressor.insert(suffix, out.len());
            }
            let l = &self.labels[idx];
            out.push(l.len() as u8);
            out.extend_from_slice(l);
            idx += 1;
        }
        out.push(0);
    }

    /// Decode a name starting at `*pos` within `msg` (the whole message,
    /// needed to chase compression pointers). Advances `*pos` past the name
    /// as it appears at the original location.
    pub fn decode(msg: &[u8], pos: &mut usize) -> Result<Self, WireError> {
        let mut labels = Vec::new();
        let mut cursor = *pos;
        let mut jumped = false;
        let mut hops = 0usize;
        let mut total = 1usize;
        loop {
            let len_octet = *msg
                .get(cursor)
                .ok_or(WireError::Truncated { context: "name length octet" })?;
            match len_octet & 0xC0 {
                0x00 => {
                    if len_octet == 0 {
                        if !jumped {
                            *pos = cursor + 1;
                        }
                        return Ok(Name::from_labels(labels));
                    }
                    let len = len_octet as usize;
                    let start = cursor + 1;
                    let end = start + len;
                    let bytes = msg
                        .get(start..end)
                        .ok_or(WireError::Truncated { context: "name label" })?;
                    total += 1 + len;
                    if total > MAX_NAME_LEN {
                        return Err(WireError::NameTooLong(total));
                    }
                    labels.push(bytes.to_ascii_lowercase().into_boxed_slice());
                    cursor = end;
                }
                0xC0 => {
                    let second = *msg
                        .get(cursor + 1)
                        .ok_or(WireError::Truncated { context: "pointer second octet" })?;
                    let target = (((len_octet & 0x3F) as usize) << 8) | second as usize;
                    // Pointers must reference earlier data; this also bounds
                    // the chase together with the hop budget.
                    if target >= cursor {
                        return Err(WireError::BadPointer { target });
                    }
                    hops += 1;
                    if hops > MAX_POINTER_HOPS {
                        return Err(WireError::BadPointer { target });
                    }
                    if !jumped {
                        *pos = cursor + 2;
                        jumped = true;
                    }
                    cursor = target;
                }
                other => return Err(WireError::ReservedLabelType(other)),
            }
        }
    }
}

fn label_byte_ok(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'-' || b == b'_'
}

impl PartialEq for Name {
    fn eq(&self, other: &Self) -> bool {
        self.labels == other.labels
    }
}

impl Hash for Name {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.labels.hash(state)
    }
}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Name {
    /// Canonical DNS ordering: compare label sequences from the root down.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.labels
            .iter()
            .rev()
            .cmp(other.labels.iter().rev())
            .then(self.labels.len().cmp(&other.labels.len()))
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.labels.is_empty() {
            return write!(f, ".");
        }
        for (i, l) in self.labels.iter().enumerate() {
            if i > 0 {
                write!(f, ".")?;
            }
            for &b in l.iter() {
                write!(f, "{}", b as char)?;
            }
        }
        Ok(())
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Name({self})")
    }
}

impl std::str::FromStr for Name {
    type Err = WireError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Name::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display_round_trip() {
        let n = Name::parse("WWW.Example.COM").unwrap();
        assert_eq!(n.to_string(), "www.example.com");
        assert_eq!(n.parent().unwrap().to_string(), "example.com");
    }

    #[test]
    fn trailing_dot_accepted() {
        assert_eq!(Name::parse("a.b.").unwrap(), Name::parse("a.b").unwrap());
    }

    #[test]
    fn root_name() {
        let r = Name::parse("").unwrap();
        assert_eq!(r, Name::root());
        assert!(r.parent().is_none());
        assert_eq!(r.to_string(), ".");
        assert_eq!(r.wire_len(), 1);
    }

    #[test]
    fn rejects_empty_interior_label() {
        assert!(matches!(Name::parse("a..b"), Err(WireError::EmptyLabel)));
    }

    #[test]
    fn rejects_long_label() {
        let l = "x".repeat(64);
        assert!(matches!(Name::parse(&l), Err(WireError::LabelTooLong(64))));
    }

    #[test]
    fn rejects_long_name() {
        let n = (0..40).map(|_| "abcdef").collect::<Vec<_>>().join(".");
        assert!(matches!(Name::parse(&n), Err(WireError::NameTooLong(_))));
    }

    #[test]
    fn rejects_bad_bytes() {
        assert!(Name::parse("exa mple.com").is_err());
        assert!(Name::parse("exa\u{7f}mple.com").is_err());
    }

    #[test]
    fn underscore_allowed() {
        assert!(Name::parse("_dmarc.example.com").is_ok());
    }

    #[test]
    fn case_insensitive_eq_and_hash() {
        use std::collections::HashSet;
        let a = Name::parse("A.B.C").unwrap();
        let b = Name::parse("a.b.c").unwrap();
        assert_eq!(a, b);
        let mut s = HashSet::new();
        s.insert(a);
        assert!(s.contains(&b));
    }

    #[test]
    fn uncompressed_encode_decode_round_trip() {
        let n = Name::parse("mail.example.org").unwrap();
        let mut buf = Vec::new();
        n.encode_uncompressed(&mut buf);
        assert_eq!(buf.len(), n.wire_len());
        let mut pos = 0;
        let back = Name::decode(&buf, &mut pos).unwrap();
        assert_eq!(back, n);
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn compression_emits_pointer_for_shared_suffix() {
        let mut buf = Vec::new();
        let mut comp = HashMap::new();
        let a = Name::parse("www.example.com").unwrap();
        let b = Name::parse("mail.example.com").unwrap();
        a.encode_compressed(&mut buf, &mut comp);
        let len_a = buf.len();
        b.encode_compressed(&mut buf, &mut comp);
        // "mail" label (5) + 2-byte pointer
        assert_eq!(buf.len() - len_a, 5 + 2);
        let mut pos = 0;
        assert_eq!(Name::decode(&buf, &mut pos).unwrap(), a);
        assert_eq!(pos, len_a);
        assert_eq!(Name::decode(&buf, &mut pos).unwrap(), b);
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn identical_name_compresses_to_single_pointer() {
        let mut buf = Vec::new();
        let mut comp = HashMap::new();
        let a = Name::parse("www.example.com").unwrap();
        a.encode_compressed(&mut buf, &mut comp);
        let len_a = buf.len();
        a.encode_compressed(&mut buf, &mut comp);
        assert_eq!(buf.len() - len_a, 2);
    }

    #[test]
    fn forward_pointer_rejected() {
        // Pointer to its own offset.
        let buf = [0xC0, 0x00];
        let mut pos = 0;
        assert!(matches!(
            Name::decode(&buf, &mut pos),
            Err(WireError::BadPointer { .. })
        ));
    }

    #[test]
    fn pointer_loop_rejected() {
        // Two pointers that point at each other.
        let buf = [0xC0, 0x02, 0xC0, 0x00];
        let mut pos = 2;
        assert!(Name::decode(&buf, &mut pos).is_err());
    }

    #[test]
    fn truncated_label_rejected() {
        let buf = [5, b'a', b'b'];
        let mut pos = 0;
        assert!(matches!(
            Name::decode(&buf, &mut pos),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn reserved_label_type_rejected() {
        let buf = [0x80, 0x00];
        let mut pos = 0;
        assert!(matches!(
            Name::decode(&buf, &mut pos),
            Err(WireError::ReservedLabelType(_))
        ));
    }

    #[test]
    fn base_domain() {
        assert_eq!(
            Name::parse("a.b.example.com").unwrap().base_domain().to_string(),
            "example.com"
        );
        assert_eq!(Name::parse("com").unwrap().base_domain().to_string(), "com");
    }

    #[test]
    fn canonical_ordering_groups_by_suffix() {
        let mut v = vec![
            Name::parse("b.com").unwrap(),
            Name::parse("a.org").unwrap(),
            Name::parse("a.com").unwrap(),
        ];
        v.sort();
        let s: Vec<String> = v.iter().map(|n| n.to_string()).collect();
        assert_eq!(s, vec!["a.com", "b.com", "a.org"]);
    }
}
