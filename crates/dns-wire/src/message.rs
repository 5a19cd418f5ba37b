use crate::header::{Flags, Header, Rcode, HEADER_LEN};
use crate::name::Compressor;
use crate::question::{Question, QuestionView};
use crate::record::{Record, RecordView};
use crate::{Name, RrType, WireError};

/// A complete DNS message: header plus the four record sections.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Transaction id.
    pub id: u16,
    /// Header flag bits.
    pub flags: Flags,
    /// Question section.
    pub questions: Vec<Question>,
    /// Answer section.
    pub answers: Vec<Record>,
    /// Authority section.
    pub authorities: Vec<Record>,
    /// Additional section.
    pub additionals: Vec<Record>,
}

impl Message {
    /// Build a standard recursive query for `name`/`rtype`.
    pub fn query(id: u16, name: Name, rtype: RrType) -> Message {
        Message {
            id,
            flags: Flags::query(),
            questions: vec![Question::new(name, rtype)],
            answers: Vec::new(),
            authorities: Vec::new(),
            additionals: Vec::new(),
        }
    }

    /// Start a response to this query: same id and question, response
    /// flags, empty record sections for the caller to fill.
    pub fn answer_template(&self) -> Message {
        Message {
            id: self.id,
            flags: Flags::response(Rcode::NoError),
            questions: self.questions.clone(), // lint: allow(no-owned-copy-hotpath): response builder (simulator side), not the decode path
            answers: Vec::new(),
            authorities: Vec::new(),
            additionals: Vec::new(),
        }
    }

    /// Build a negative (NXDOMAIN) response to this query, carrying the
    /// zone's SOA in the authority section as RFC 2308 negative caching
    /// requires — the SOA's MINIMUM bounds how long the non-existence may
    /// be cached.
    pub fn nxdomain_response(&self, zone: Name, soa: crate::SoaData) -> Message {
        let mut m = self.answer_template();
        m.flags.rcode = Rcode::NxDomain;
        let negative_ttl = soa.minimum;
        m.authorities.push(Record {
            name: zone,
            class: crate::RrClass::In,
            ttl: negative_ttl,
            rdata: crate::RData::Soa(soa),
        });
        m
    }

    /// Encode to wire format with name compression.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        Header {
            id: self.id,
            flags: self.flags,
            qdcount: self.questions.len() as u16,
            ancount: self.answers.len() as u16,
            nscount: self.authorities.len() as u16,
            arcount: self.additionals.len() as u16,
        }
        .encode(&mut out);
        let mut comp = Compressor::default();
        for q in &self.questions {
            q.encode(&mut out, &mut comp);
        }
        for r in self.answers.iter().chain(&self.authorities).chain(&self.additionals) {
            r.encode(&mut out, &mut comp);
        }
        out
    }

    /// Decode a message from wire format.
    ///
    /// Trailing bytes after the records promised by the header are ignored
    /// (they occur in the wild, e.g. TSIG-stripped messages); short
    /// sections are an error.
    pub fn decode(msg: &[u8]) -> Result<Message, WireError> {
        let view = MessageView::parse(msg)?;
        let header = view.header;
        // The counts are honest by now, so each section is sized once.
        let mut questions = Vec::with_capacity(header.qdcount as usize);
        questions.extend(view.questions().map(Question::from));
        let sections = [header.ancount, header.nscount, header.arcount].map(usize::from);
        let mut records = view.records(sections.iter().sum());
        let [answers, authorities, additionals] = sections.map(|count| {
            let mut section = Vec::with_capacity(count);
            section.extend(records.by_ref().take(count).map(Record::from));
            section
        });
        Ok(Message { id: header.id, flags: header.flags, questions, answers, authorities, additionals })
    }
}

/// A message checked in place: every section walked once with the
/// checks [`Message::decode`] applies (which is this, collected), nothing
/// copied out. What a monitor needs — id, flags, the first question, the
/// answer records — is then read straight from the buffer.
pub struct MessageView<'a> {
    msg: &'a [u8],
    header: Header,
    /// Offset of the answer section.
    answers_at: usize,
}

impl<'a> MessageView<'a> {
    /// Check `msg` from header to the last record its counts promise.
    pub fn parse(msg: &'a [u8]) -> Result<Self, WireError> {
        let header = Header::decode(msg)?;
        let mut pos = HEADER_LEN;
        for _ in 0..header.qdcount {
            QuestionView::parse(msg, &mut pos)
                .map_err(|_| WireError::CountMismatch { section: "question" })?;
        }
        let answers_at = pos;
        let sections =
            [(header.ancount, "answer"), (header.nscount, "authority"), (header.arcount, "additional")];
        for (count, section) in sections {
            for _ in 0..count {
                RecordView::parse(msg, &mut pos).map_err(|e| match e {
                    WireError::Truncated { .. } => WireError::CountMismatch { section },
                    other => other,
                })?;
            }
        }
        Ok(MessageView { msg, header, answers_at })
    }

    /// Transaction id.
    pub fn id(&self) -> u16 {
        self.header.id
    }

    /// Header flag bits.
    pub fn flags(&self) -> Flags {
        self.header.flags
    }

    fn questions(&self) -> impl Iterator<Item = QuestionView<'a>> {
        let (msg, mut pos) = (self.msg, HEADER_LEN);
        // `parse` accepted exactly these questions, so none is lost to `ok()`.
        (0..self.header.qdcount).map_while(move |_| QuestionView::parse(msg, &mut pos).ok())
    }

    /// The first `count` records from the answer section on.
    fn records(&self, count: usize) -> impl Iterator<Item = RecordView<'a>> {
        let (msg, mut pos) = (self.msg, self.answers_at);
        // As in `questions`: these records have been accepted once already.
        (0..count).map_while(move |_| RecordView::parse(msg, &mut pos).ok())
    }

    /// The first question, if the message carries one.
    pub fn question(&self) -> Option<QuestionView<'a>> {
        self.questions().next()
    }

    /// How many records [`answers`](MessageView::answers) yields.
    pub fn answer_count(&self) -> usize {
        self.header.ancount as usize
    }

    /// The answer section, in order.
    pub fn answers(&self) -> impl Iterator<Item = RecordView<'a>> {
        self.records(self.answer_count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rdata::RData;
    use std::net::Ipv4Addr;

    fn sample_response() -> Message {
        let q = Message::query(7, Name::parse("www.example.com").unwrap(), RrType::A);
        let mut m = q.answer_template();
        m.answers.push(Record::cname(
            Name::parse("www.example.com").unwrap(),
            3600,
            Name::parse("edge.cdn.example.net").unwrap(),
        ));
        m.answers.push(Record::a(
            Name::parse("edge.cdn.example.net").unwrap(),
            30,
            Ipv4Addr::new(203, 0, 113, 7),
        ));
        m.authorities.push(Record {
            name: Name::parse("cdn.example.net").unwrap(),
            class: crate::RrClass::In,
            ttl: 86400,
            rdata: RData::Ns(Name::parse("ns1.cdn.example.net").unwrap()),
        });
        m.additionals.push(Record::a(
            Name::parse("ns1.cdn.example.net").unwrap(),
            86400,
            Ipv4Addr::new(198, 51, 100, 53),
        ));
        m
    }

    #[test]
    fn full_message_round_trip() {
        let m = sample_response();
        let wire = m.encode();
        let back = Message::decode(&wire).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn compression_shrinks_message() {
        let m = sample_response();
        let compressed = m.encode();
        // Rough check: shared example.net suffixes must compress.
        let uncompressed_len: usize = 12
            + m.questions.iter().map(|q| q.name.wire_len() + 4).sum::<usize>()
            + m.answers
                .iter()
                .chain(&m.authorities)
                .chain(&m.additionals)
                .map(|r| r.name.wire_len() + 10 + 64)
                .sum::<usize>();
        assert!(compressed.len() < uncompressed_len);
    }

    #[test]
    fn header_counts_must_match_body() {
        let m = sample_response();
        let mut wire = m.encode();
        // Claim one more answer than present.
        wire[7] += 1;
        assert!(matches!(
            Message::decode(&wire),
            Err(WireError::CountMismatch { .. })
        ));
    }

    #[test]
    fn trailing_bytes_tolerated() {
        let m = sample_response();
        let mut wire = m.encode();
        wire.extend_from_slice(&[0xDE, 0xAD]);
        assert_eq!(Message::decode(&wire).unwrap(), m);
    }

    #[test]
    fn empty_message_decodes() {
        let m = Message {
            id: 0,
            flags: Flags::query(),
            questions: vec![],
            answers: vec![],
            authorities: vec![],
            additionals: vec![],
        };
        assert_eq!(Message::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn nxdomain_response_carries_soa() {
        let q = Message::query(9, Name::parse("missing.example.com").unwrap(), RrType::A);
        let soa = crate::SoaData {
            mname: Name::parse("ns1.example.com").unwrap(),
            rname: Name::parse("hostmaster.example.com").unwrap(),
            serial: 1,
            refresh: 7200,
            retry: 3600,
            expire: 1209600,
            minimum: 300,
        };
        let resp = q.nxdomain_response(Name::parse("example.com").unwrap(), soa);
        assert_eq!(resp.flags.rcode, Rcode::NxDomain);
        assert!(resp.answers.is_empty());
        assert_eq!(resp.authorities.len(), 1);
        assert_eq!(resp.authorities[0].ttl, 300, "negative ttl = SOA minimum");
        // Round-trips on the wire.
        let back = Message::decode(&resp.encode()).unwrap();
        assert_eq!(back, resp);
        assert_eq!((back.id, &back.questions), (q.id, &q.questions));
    }

    #[test]
    fn garbage_rejected_not_panic() {
        for len in 0..64 {
            let buf: Vec<u8> = (0..len).map(|i| (i * 37) as u8).collect();
            let _ = Message::decode(&buf); // must not panic
        }
    }
}
