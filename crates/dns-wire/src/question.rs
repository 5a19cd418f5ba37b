use crate::name::{write_compressed, Compressor, NameRef};
use crate::record::{RrClass, RrType};
use crate::{Name, WireError};

/// One entry of the question section (RFC 1035 §4.1.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Question {
    /// Name being asked about.
    pub name: Name,
    /// Type being asked for.
    pub rtype: RrType,
    /// Class (always `In` in resolution traffic).
    pub rclass: RrClass,
}

impl Question {
    /// A standard Internet-class question.
    pub fn new(name: Name, rtype: RrType) -> Question {
        Question {
            name,
            rtype,
            rclass: RrClass::In,
        }
    }
}

/// The one question encoder, from a flat name.
pub(crate) fn write(out: &mut Vec<u8>, compressor: &mut Compressor, name: &[u8], rtype: RrType, rclass: RrClass) {
    write_compressed(name, out, compressor);
    out.extend_from_slice(&rtype.to_u16().to_be_bytes());
    out.extend_from_slice(&rclass.to_u16().to_be_bytes());
}

/// One question checked in place.
#[derive(Clone, Copy)]
pub struct QuestionView<'a> {
    /// Name being asked about.
    pub name: NameRef<'a>,
    /// Type being asked for.
    pub rtype: RrType,
    /// Class (always `In` in resolution traffic).
    pub rclass: RrClass,
}

impl<'a> QuestionView<'a> {
    /// Check one question starting at `*pos` within `msg` and step over it.
    pub(crate) fn parse(msg: &'a [u8], pos: &mut usize) -> Result<Self, WireError> {
        let name = NameRef::parse(msg, pos)?;
        let fixed = msg
            .get(*pos..*pos + 4)
            .ok_or(WireError::Truncated { context: "question fixed fields" })?;
        let rtype = RrType::from_u16(u16::from_be_bytes([fixed[0], fixed[1]]));
        let rclass = RrClass::from_u16(u16::from_be_bytes([fixed[2], fixed[3]]));
        *pos += 4;
        Ok(QuestionView { name, rtype, rclass })
    }
}

impl From<QuestionView<'_>> for Question {
    fn from(view: QuestionView<'_>) -> Question {
        Question { name: view.name.to_name(), rtype: view.rtype, rclass: view.rclass }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Encode `q` as the message writer does.
    fn encode(q: &Question) -> Vec<u8> {
        let mut buf = Vec::new();
        write(&mut buf, &mut Compressor::default(), q.name.flat(), q.rtype, q.rclass);
        buf
    }

    /// Decode one question as `Message::decode` does.
    fn decode(msg: &[u8], pos: &mut usize) -> Result<Question, WireError> {
        QuestionView::parse(msg, pos).map(Question::from)
    }

    #[test]
    fn round_trip() {
        let q = Question::new(Name::parse("www.example.com").unwrap(), RrType::Aaaa);
        let buf = encode(&q);
        let mut pos = 0;
        assert_eq!(decode(&buf, &mut pos).unwrap(), q);
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn truncated_rejected() {
        let mut buf = encode(&Question::new(Name::parse("a.b").unwrap(), RrType::A));
        buf.truncate(buf.len() - 2);
        let mut pos = 0;
        assert!(decode(&buf, &mut pos).is_err());
    }
}
