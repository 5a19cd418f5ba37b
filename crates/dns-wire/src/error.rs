use std::fmt;

/// Errors produced while encoding or decoding DNS wire data.
///
/// A passive monitor feeds arbitrary captured bytes into the decoder, so
/// every malformed input maps to a variant here instead of a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the structure was complete.
    Truncated {
        /// What was being decoded when the data ran out.
        context: &'static str,
    },
    /// A label exceeded 63 octets (RFC 1035 §2.3.4).
    LabelTooLong(usize),
    /// An encoded name exceeded 255 octets (RFC 1035 §2.3.4).
    NameTooLong(usize),
    /// A label contained a byte outside the accepted hostname alphabet.
    BadLabelByte(u8),
    /// An empty label appeared somewhere other than the root position.
    EmptyLabel,
    /// A compression pointer pointed at or after its own position,
    /// or the pointer chain exceeded the loop budget.
    BadPointer {
        /// Offset the pointer referenced.
        target: usize,
    },
    /// The two high bits of a length octet were `01` or `10`, which RFC 1035
    /// reserves for future use.
    ReservedLabelType(u8),
    /// RDATA length did not match the actual RDATA encoding.
    RdataLengthMismatch {
        /// Declared RDLENGTH.
        declared: usize,
        /// Bytes actually present/consumed.
        actual: usize,
    },
    /// A count field in the header promised more records than the message holds.
    CountMismatch {
        /// Which section was short.
        section: &'static str,
    },
    /// A name string passed to [`crate::NameBuf::set`] was not a valid hostname.
    BadNameString(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { context } => write!(f, "truncated message while decoding {context}"),
            WireError::LabelTooLong(n) => write!(f, "label of {n} octets exceeds 63"),
            WireError::NameTooLong(n) => write!(f, "name of {n} octets exceeds 255"),
            WireError::BadLabelByte(b) => write!(f, "byte {b:#04x} not allowed in a label"),
            WireError::EmptyLabel => write!(f, "empty label inside a name"),
            WireError::BadPointer { target } => write!(f, "bad compression pointer to offset {target}"),
            WireError::ReservedLabelType(b) => write!(f, "reserved label type in length octet {b:#04x}"),
            WireError::RdataLengthMismatch { declared, actual } => {
                write!(f, "rdata length mismatch: declared {declared}, actual {actual}")
            }
            WireError::CountMismatch { section } => write!(f, "header count exceeds records in {section}"),
            WireError::BadNameString(s) => write!(f, "invalid domain name string {s:?}"),
        }
    }
}

impl std::error::Error for WireError {}
