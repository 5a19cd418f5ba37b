use crate::WireError;
use std::fmt;

/// Maximum total encoded length of a name, including the root octet.
const MAX_NAME_LEN: usize = 255;
/// Maximum length of one label.
const MAX_LABEL_LEN: usize = 63;
/// Upper bound on compression-pointer hops while decoding one name.
const MAX_POINTER_HOPS: usize = 64;

/// The one walk of a name on the wire: starts at `*pos` within `msg`
/// (the whole message, needed to chase compression pointers), hands
/// every label to `label` as it sits on the wire, and advances `*pos`
/// past the name as it appears at the original location. The labels
/// handed out total at most 254 octets with their length prefixes.
fn walk_labels(msg: &[u8], pos: &mut usize, mut label: impl FnMut(&[u8])) -> Result<(), WireError> {
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
                    return Ok(());
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
                label(bytes);
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

/// The labels of a flat name — `[len][lower-cased bytes]` runs, the wire
/// form without its root octet — first to last.
fn labels(mut flat: &[u8]) -> impl Iterator<Item = &[u8]> {
    std::iter::from_fn(move || {
        let (&len, rest) = flat.split_first()?;
        let (label, rest) = rest.split_at_checked(len as usize)?;
        flat = rest;
        Some(label)
    })
}

/// The one presentation writer: labels joined by `.`, the root as `.`.
/// Every byte outside `0x21..=0x7e`, and `.` inside a label, `,` and `\`,
/// is written as `\xNN`, so a rendered name is one tab-, comma- and
/// newline-free token that maps back to exactly one wire name.
fn write_presentation(flat: &[u8], mut put: impl FnMut(char)) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    if flat.is_empty() {
        return put('.');
    }
    for (i, label) in labels(flat).enumerate() {
        if i > 0 {
            put('.');
        }
        for &b in label {
            if matches!(b, 0x21..=0x7e) && !matches!(b, b'.' | b',' | b'\\') {
                put(b as char);
            } else {
                put('\\');
                put('x');
                put(HEX[(b >> 4) as usize] as char);
                put(HEX[(b & 0x0F) as usize] as char);
            }
        }
    }
}

/// A caller-owned, fixed-size buffer holding one name, lower-cased and
/// flat, no heap behind it: read off the wire (see
/// [`NameRef::read_into`]) or set from a presentation string, and what a
/// [`MessageWriter`](crate::MessageWriter) writes names from.
pub struct NameBuf {
    len: u8,
    bytes: [u8; MAX_NAME_LEN],
}

impl NameBuf {
    /// An empty buffer (the root name).
    pub fn new() -> Self {
        NameBuf { len: 0, bytes: [0; MAX_NAME_LEN] }
    }

    pub(crate) fn flat(&self) -> &[u8] {
        &self.bytes[..self.len as usize]
    }

    /// Replace what the buffer held by a presentation-format name such as
    /// `"www.example.com"`.
    ///
    /// A single trailing dot is accepted and ignored. Labels must be
    /// non-empty, at most 63 octets, and drawn from the letter/digit/hyphen/
    /// underscore alphabet (underscore appears in real traffic for SRV and
    /// DKIM names, so a monitor must accept it). On an error the buffer
    /// holds the root name.
    pub fn set(&mut self, s: &str) -> Result<(), WireError> {
        self.len = 0;
        let s = s.strip_suffix('.').unwrap_or(s);
        if s.is_empty() {
            return Ok(());
        }
        // Every label is checked before the total is, so the error for a
        // name that is both too long and malformed names the label.
        let mut total = 1usize; // root octet
        for raw in s.split('.') {
            if raw.is_empty() {
                return Err(WireError::EmptyLabel);
            }
            if raw.len() > MAX_LABEL_LEN {
                return Err(WireError::LabelTooLong(raw.len()));
            }
            if !raw.bytes().all(label_byte_ok) {
                return Err(WireError::BadNameString(s.to_string()));
            }
            let at = total - 1;
            total += 1 + raw.len();
            if let Some(dst) = self.bytes.get_mut(at..total - 1) {
                dst[0] = raw.len() as u8;
                for (d, b) in dst[1..].iter_mut().zip(raw.bytes()) {
                    *d = b.to_ascii_lowercase();
                }
            }
        }
        if total > MAX_NAME_LEN {
            return Err(WireError::NameTooLong(total));
        }
        self.len = (total - 1) as u8;
        Ok(())
    }

    /// Read the name at `*pos`, replacing what the buffer held.
    fn read(&mut self, msg: &[u8], pos: &mut usize) -> Result<(), WireError> {
        self.len = 0;
        walk_labels(msg, pos, |label| {
            // The walk bounds the labels of one name to what fits here.
            let at = self.len as usize;
            if let Some(dst) = self.bytes.get_mut(at..at + 1 + label.len()) {
                dst[0] = label.len() as u8;
                for (d, s) in dst[1..].iter_mut().zip(label) {
                    *d = s.to_ascii_lowercase();
                }
                self.len += 1 + label.len() as u8;
            }
        })
    }

    fn to_name(&self) -> Name {
        Name { flat: self.flat().into() }
    }

    /// Append the presentation form (as [`Name`]'s `Display` writes it)
    /// to `out`.
    pub fn write_presentation(&self, out: &mut String) {
        write_presentation(self.flat(), |c| out.push(c));
    }
}

impl Default for NameBuf {
    fn default() -> Self {
        Self::new()
    }
}

impl std::str::FromStr for NameBuf {
    type Err = WireError;
    /// A buffer [`set`](NameBuf::set) from `s`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut buf = NameBuf::new();
        buf.set(s)?;
        Ok(buf)
    }
}

/// A name inside a message whose walk has been checked: reading it
/// cannot fail any more, and costs nothing until someone asks.
#[derive(Clone, Copy)]
pub struct NameRef<'a> {
    msg: &'a [u8],
    at: usize,
}

impl<'a> NameRef<'a> {
    /// Check the name at `*pos` and step over it.
    pub(crate) fn parse(msg: &'a [u8], pos: &mut usize) -> Result<Self, WireError> {
        let at = *pos;
        walk_labels(msg, pos, |_| {})?;
        Ok(NameRef { msg, at })
    }

    /// Write the name, lower-cased, into `buf`.
    pub fn read_into(&self, buf: &mut NameBuf) {
        let mut pos = self.at;
        // Cannot fail: `parse` walked these same bytes.
        let _ = buf.read(self.msg, &mut pos);
    }

    pub(crate) fn to_name(self) -> Name {
        let mut buf = NameBuf::new();
        self.read_into(&mut buf);
        buf.to_name()
    }
}

/// Where each name suffix a message has already spelled out starts.
/// The suffixes are kept as copies of their flat bytes in one buffer of
/// the compressor's own, so nothing is borrowed from the names being
/// encoded and one instance, [restarted](Compressor::restart), serves
/// message after message without allocating once it has grown.
#[derive(Default)]
pub struct Compressor {
    /// Where the message starts in the buffer it is written into.
    base: usize,
    /// Flat bytes of every name that registered a suffix, end to end.
    names: Vec<u8>,
    /// A registered suffix: where it sits in `names`, and the message
    /// offset a pointer to it holds. In registration order, one entry
    /// per distinct suffix.
    suffixes: Vec<(std::ops::Range<u32>, u16)>,
}

impl Compressor {
    /// Forget the last message; the next one starts at byte `base` of the
    /// buffer it is written into.
    pub(crate) fn restart(&mut self, base: usize) {
        self.base = base;
        self.names.clear();
        self.suffixes.clear();
    }

    /// Where the message being written starts in its buffer.
    pub(crate) fn base(&self) -> usize {
        self.base
    }

    fn find(&self, suffix: &[u8]) -> Option<u16> {
        self.suffixes
            .iter()
            .find(|(at, _)| &self.names[at.start as usize..at.end as usize] == suffix)
            .map(|(_, offset)| *offset)
    }
}

/// Write a flat name with message compression.
///
/// `compressor` maps the suffixes of previously-emitted names to their
/// offsets. Offsets beyond the 14-bit pointer range are not registered,
/// per RFC 1035 §4.1.4.
pub(crate) fn write_compressed(flat: &[u8], out: &mut Vec<u8>, compressor: &mut Compressor) {
    // Walk suffixes from the full name down; emit labels until a known
    // suffix is found, then emit a pointer.
    let mut suffix = flat;
    // Where this name's copy ends in `compressor.names`, once one of its
    // suffixes is registered: the shorter ones are tails of that copy.
    let mut copied_to = None;
    while let Some(label) = labels(suffix).next() {
        if let Some(off) = compressor.find(suffix) {
            out.extend_from_slice(&(0xC000 | off).to_be_bytes());
            return;
        }
        let offset = out.len() - compressor.base;
        if offset < 0x4000 {
            let end = *copied_to.get_or_insert_with(|| {
                compressor.names.extend_from_slice(suffix);
                compressor.names.len() as u32
            });
            compressor.suffixes.push((end - suffix.len() as u32..end, offset as u16));
        }
        // A flat label, length octet included, is its own wire form.
        let (wire, rest) = suffix.split_at(1 + label.len());
        out.extend_from_slice(wire);
        suffix = rest;
    }
    out.push(0);
}

/// A fully-qualified domain name.
///
/// Stored lower-cased (DNS names compare case-insensitively, RFC 1035
/// §2.3.3; normalising on construction keeps `Eq`/`Hash` a byte
/// comparison) as one flat buffer of length-prefixed labels — the
/// uncompressed wire form without its root octet. The root name is the
/// empty buffer and displays as `.`.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Name {
    flat: Box<[u8]>,
}

fn label_byte_ok(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'-' || b == b'_'
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use fmt::Write;
        let mut result = Ok(());
        write_presentation(&self.flat, |c| {
            if result.is_ok() {
                result = f.write_char(c);
            }
        });
        result
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Name({self})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn buf(s: &str) -> NameBuf {
        s.parse().unwrap()
    }

    fn name(s: &str) -> Name {
        buf(s).to_name()
    }

    /// What [`NameBuf::write_presentation`] writes into an empty string.
    fn shown(buf: &NameBuf) -> String {
        let mut out = String::new();
        buf.write_presentation(&mut out);
        out
    }

    /// The name at `*pos`, owned, as the owned decode reads it.
    fn decode(msg: &[u8], pos: &mut usize) -> Result<Name, WireError> {
        NameRef::parse(msg, pos).map(NameRef::to_name)
    }

    /// The name's uncompressed wire form: its flat labels, then the root.
    fn uncompressed(flat: &[u8]) -> Vec<u8> {
        let mut out = flat.to_vec();
        out.push(0);
        out
    }

    #[test]
    fn parse_and_display_round_trip() {
        assert_eq!(shown(&buf("WWW.Example.COM")), "www.example.com");
        assert_eq!(name("WWW.Example.COM").to_string(), "www.example.com");
    }

    /// Wire labels are arbitrary bytes; the presentation form stays one
    /// token that maps back to one name, and the view's buffer writes
    /// what `Display` writes.
    #[test]
    fn presentation_escapes_what_a_hostname_cannot_hold() {
        let wire = [3, b'A', b'.', b'b', 2, b'\t', b',', 1, b'\\', 1, 0x80, 1, b'~', 1, b' ', 1, b'\n', 0];
        let mut pos = 0;
        let n = decode(&wire, &mut pos).unwrap();
        assert_eq!(pos, wire.len());
        assert_eq!(n.to_string(), r"a\x2eb.\x09\x2c.\x5c.\x80.~.\x20.\x0a");
        let mut buf = NameBuf::new();
        NameRef::parse(&wire, &mut 0).unwrap().read_into(&mut buf);
        assert_eq!(shown(&buf), n.to_string());
        let mut line = String::from("query\t");
        buf.write_presentation(&mut line);
        assert_eq!(line, format!("query\t{n}"));
        // A reused buffer holds only the last name read.
        NameRef::parse(&[0], &mut 0).unwrap().read_into(&mut buf);
        assert_eq!(shown(&buf), ".");
    }

    /// One buffer set again and again: each name replaces the last, a
    /// rejected one leaves the root, and the label error wins over the
    /// length error.
    #[test]
    fn a_buffer_is_set_from_presentation_strings() {
        let mut buf = NameBuf::new();
        buf.set("WWW.Example.COM.").unwrap();
        assert_eq!(buf.flat(), b"\x03www\x07example\x03com");
        buf.set("a.b").unwrap();
        assert_eq!(shown(&buf), "a.b");
        assert!(matches!(buf.set("a..b"), Err(WireError::EmptyLabel)));
        assert_eq!(shown(&buf), ".");
        let long = ["abcdef"; 40].join(".");
        assert!(matches!(buf.set(&long), Err(WireError::NameTooLong(281))));
        assert!(matches!(buf.set(&format!("{long}.b d")), Err(WireError::BadNameString(_))));
        buf.set(&["a"; 127].join(".")).unwrap();
        assert_eq!(buf.flat().len(), 254);
        buf.set("").unwrap();
        assert_eq!(shown(&buf), ".");
    }

    #[test]
    fn trailing_dot_accepted() {
        assert_eq!(buf("a.b.").flat(), buf("a.b").flat());
    }

    #[test]
    fn root_name() {
        let r = buf("");
        assert!(r.flat().is_empty());
        assert_eq!(shown(&r), ".");
        assert_eq!(r.to_name().to_string(), ".");
        assert_eq!(uncompressed(r.flat()), [0]);
    }

    #[test]
    fn rejects_empty_interior_label() {
        assert!(matches!("a..b".parse::<NameBuf>(), Err(WireError::EmptyLabel)));
    }

    #[test]
    fn rejects_long_label() {
        let l = "x".repeat(64);
        assert!(matches!(l.parse::<NameBuf>(), Err(WireError::LabelTooLong(64))));
    }

    #[test]
    fn rejects_long_name() {
        let n = (0..40).map(|_| "abcdef").collect::<Vec<_>>().join(".");
        assert!(matches!(n.parse::<NameBuf>(), Err(WireError::NameTooLong(_))));
    }

    #[test]
    fn rejects_bad_bytes() {
        assert!("exa mple.com".parse::<NameBuf>().is_err());
        assert!("exa\u{7f}mple.com".parse::<NameBuf>().is_err());
    }

    #[test]
    fn underscore_allowed() {
        assert!("_dmarc.example.com".parse::<NameBuf>().is_ok());
    }

    #[test]
    fn case_insensitive_eq_and_hash() {
        use std::collections::HashSet;
        let a = name("A.B.C");
        let b = name("a.b.c");
        assert_eq!(a, b);
        let mut s = HashSet::new();
        s.insert(a);
        assert!(s.contains(&b));
    }

    #[test]
    fn uncompressed_encode_decode_round_trip() {
        let n = buf("mail.example.org");
        let wire = uncompressed(n.flat());
        assert_eq!(wire.len(), "mail.example.org".len() + 2);
        let mut pos = 0;
        assert_eq!(decode(&wire, &mut pos).unwrap(), n.to_name());
        assert_eq!(pos, wire.len());
    }

    #[test]
    fn compression_emits_pointer_for_shared_suffix() {
        let mut out = Vec::new();
        let mut comp = Compressor::default();
        let (a, b) = (buf("www.example.com"), buf("mail.example.com"));
        write_compressed(a.flat(), &mut out, &mut comp);
        let len_a = out.len();
        write_compressed(b.flat(), &mut out, &mut comp);
        // "mail" label (5) + 2-byte pointer
        assert_eq!(out.len() - len_a, 5 + 2);
        let mut pos = 0;
        assert_eq!(decode(&out, &mut pos).unwrap(), a.to_name());
        assert_eq!(pos, len_a);
        assert_eq!(decode(&out, &mut pos).unwrap(), b.to_name());
        assert_eq!(pos, out.len());
    }

    #[test]
    fn identical_name_compresses_to_single_pointer() {
        let mut out = Vec::new();
        let mut comp = Compressor::default();
        let a = buf("www.example.com");
        write_compressed(a.flat(), &mut out, &mut comp);
        let len_a = out.len();
        write_compressed(a.flat(), &mut out, &mut comp);
        assert_eq!(out.len() - len_a, 2);
    }

    #[test]
    fn forward_pointer_rejected() {
        // Pointer to its own offset.
        let buf = [0xC0, 0x00];
        let mut pos = 0;
        assert!(matches!(
            decode(&buf, &mut pos),
            Err(WireError::BadPointer { .. })
        ));
    }

    #[test]
    fn pointer_loop_rejected() {
        // Two pointers that point at each other.
        let buf = [0xC0, 0x02, 0xC0, 0x00];
        let mut pos = 2;
        assert!(decode(&buf, &mut pos).is_err());
    }

    #[test]
    fn truncated_label_rejected() {
        let buf = [5, b'a', b'b'];
        let mut pos = 0;
        assert!(matches!(
            decode(&buf, &mut pos),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn reserved_label_type_rejected() {
        let buf = [0x80, 0x00];
        let mut pos = 0;
        assert!(matches!(
            decode(&buf, &mut pos),
            Err(WireError::ReservedLabelType(_))
        ));
    }

    /// The label walk hands out a flat name's labels first to last, so
    /// the canonical DNS order (RFC 4034 §6.1: label sequences compared
    /// from the root down) is its output reversed.
    #[test]
    fn canonical_ordering_groups_by_suffix() {
        fn root_first(n: &NameBuf) -> Vec<&[u8]> {
            let mut from_root: Vec<&[u8]> = labels(n.flat()).collect();
            from_root.reverse();
            from_root
        }
        let mut v = [buf("b.com"), buf("a.org"), buf("a.com")];
        v.sort_by(|x, y| root_first(x).cmp(&root_first(y)));
        let s: Vec<String> = v.iter().map(shown).collect();
        assert_eq!(s, vec!["a.com", "b.com", "a.org"]);
    }
}
