use crate::header::{Flags, Header, HEADER_LEN};
use crate::name::{write_compressed, Compressor, NameBuf};
use crate::question::{self, Question, QuestionView};
use crate::rdata::write_soa;
use crate::record::{self, Record, RecordView};
use crate::{Name, RrClass, RrType, WireError};
use std::net::Ipv4Addr;

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

    /// Encode to wire format with name compression.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        let mut comp = Compressor::default();
        let mut w = MessageWriter::new(&mut out, &mut comp, self.id, self.flags);
        for q in &self.questions {
            w.put_question(q.name.flat(), q.rtype, q.rclass);
        }
        for (section, records) in [(ANSWER, &self.answers), (AUTHORITY, &self.authorities), (ADDITIONAL, &self.additionals)] {
            for r in records {
                w.put_record(section, r.name.flat(), r.rtype(), r.class, r.ttl, |out, comp| r.rdata.encode(out, comp));
            }
        }
        w.finish();
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

/// Which of the header's four counts a question or record adds to.
const QUESTION: usize = 0;
const ANSWER: usize = 1;
const AUTHORITY: usize = 2;
const ADDITIONAL: usize = 3;

/// The one message encoder: writes a message straight into a buffer that
/// may already hold other bytes (a frame's headers, earlier frames) —
/// the header with empty counts, then questions and records in section
/// order, names from flat bytes and compressed against what this message
/// has spelled out; [`finish`](MessageWriter::finish) patches the counts.
/// Owns nothing: the buffer and the compressor are the caller's, so a
/// caller that keeps both writes message after message without
/// allocating.
pub struct MessageWriter<'a> {
    out: &'a mut Vec<u8>,
    comp: &'a mut Compressor,
    counts: [u16; 4],
}

impl<'a> MessageWriter<'a> {
    /// Start a message at the end of `out`; `comp` forgets the last one.
    pub fn new(out: &'a mut Vec<u8>, comp: &'a mut Compressor, id: u16, flags: Flags) -> Self {
        comp.restart(out.len());
        Header { id, flags, qdcount: 0, ancount: 0, nscount: 0, arcount: 0 }.encode(out);
        MessageWriter { out, comp, counts: [0; 4] }
    }

    /// A standard Internet-class question.
    pub fn question(&mut self, name: &NameBuf, rtype: RrType) {
        self.put_question(name.flat(), rtype, RrClass::In);
    }

    /// An A record in the answer section.
    pub fn a(&mut self, owner: &NameBuf, ttl: u32, addr: Ipv4Addr) {
        self.put_record(ANSWER, owner.flat(), RrType::A, RrClass::In, ttl, |out, _| {
            out.extend_from_slice(&addr.octets())
        });
    }

    /// A CNAME record in the answer section.
    pub fn cname(&mut self, owner: &NameBuf, ttl: u32, target: &NameBuf) {
        self.put_record(ANSWER, owner.flat(), RrType::Cname, RrClass::In, ttl, |out, comp| {
            write_compressed(target.flat(), out, comp)
        });
    }

    /// The SOA of `zone` in the authority section, as an RFC 2308
    /// negative response carries it; `counters` is serial, refresh,
    /// retry, expire, minimum, and the minimum bounds how long the
    /// non-existence may be cached.
    pub fn soa(&mut self, zone: &NameBuf, ttl: u32, mname: &NameBuf, rname: &NameBuf, counters: [u32; 5]) {
        self.put_record(AUTHORITY, zone.flat(), RrType::Soa, RrClass::In, ttl, |out, comp| {
            write_soa(out, comp, mname.flat(), rname.flat(), counters)
        });
    }

    /// Write the section counts into the header.
    pub fn finish(self) {
        let at = self.comp.base() + 4;
        for (count, field) in self.counts.iter().zip(self.out[at..at + 8].chunks_exact_mut(2)) {
            field.copy_from_slice(&count.to_be_bytes());
        }
    }

    fn put_question(&mut self, name: &[u8], rtype: RrType, rclass: RrClass) {
        debug_assert!(self.counts[ANSWER..] == [0; 3], "questions come first");
        question::write(self.out, self.comp, name, rtype, rclass);
        self.counts[QUESTION] += 1;
    }

    fn put_record(
        &mut self,
        section: usize,
        owner: &[u8],
        rtype: RrType,
        class: RrClass,
        ttl: u32,
        rdata: impl FnOnce(&mut Vec<u8>, &mut Compressor),
    ) {
        debug_assert!(self.counts[section + 1..].iter().all(|c| *c == 0), "sections come in order");
        record::write(self.out, self.comp, owner, rtype, class, ttl, rdata);
        self.counts[section] += 1;
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

    /// The answer section, in order.
    pub fn answers(&self) -> impl Iterator<Item = RecordView<'a>> {
        self.records(self.header.ancount as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::Rcode;
    use crate::rdata::{RData, SoaData};

    fn name(s: &str) -> NameBuf {
        s.parse().unwrap()
    }

    fn a_record(name: &str, ttl: u32, addr: Ipv4Addr) -> Record {
        Record { name: Name::parse(name).unwrap(), class: RrClass::In, ttl, rdata: RData::A(addr) }
    }

    fn sample_response() -> Message {
        Message {
            flags: Flags::response(Rcode::NoError),
            answers: vec![
                Record {
                    name: Name::parse("www.example.com").unwrap(),
                    class: RrClass::In,
                    ttl: 3600,
                    rdata: RData::Cname(Name::parse("edge.cdn.example.net").unwrap()),
                },
                a_record("edge.cdn.example.net", 30, Ipv4Addr::new(203, 0, 113, 7)),
            ],
            authorities: vec![Record {
                name: Name::parse("cdn.example.net").unwrap(),
                class: RrClass::In,
                ttl: 86400,
                rdata: RData::Ns(Name::parse("ns1.cdn.example.net").unwrap()),
            }],
            additionals: vec![a_record("ns1.cdn.example.net", 86400, Ipv4Addr::new(198, 51, 100, 53))],
            ..Message::query(7, Name::parse("www.example.com").unwrap(), RrType::A)
        }
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

    /// The writer behind a frame's headers, its compressor reused: the
    /// bytes are the owned encoder's, offsets counted from the message's
    /// own start.
    #[test]
    fn writer_appends_at_a_base_offset_and_reuses_its_compressor() {
        let (owner, target) = (name("www.example.com"), name("edge.cdn.example.net"));
        let mut out = vec![0xEE; 42];
        let mut comp = Compressor::default();
        for id in [7u16, 8] {
            let at = out.len();
            let mut w = MessageWriter::new(&mut out, &mut comp, id, Flags::response(Rcode::NoError));
            w.question(&owner, RrType::A);
            w.cname(&owner, 3600, &target);
            w.a(&target, 30, Ipv4Addr::new(203, 0, 113, 7));
            w.finish();
            let owned = Message {
                id,
                authorities: vec![],
                additionals: vec![],
                ..sample_response()
            };
            assert_eq!(out[at..], owned.encode()[..]);
            assert_eq!(Message::decode(&out[at..]).unwrap(), owned);
        }
        assert!(out[..42].iter().all(|b| *b == 0xEE));
    }

    #[test]
    fn nxdomain_response_carries_soa() {
        let missing = name("missing.example.com");
        let (mut wire, mut comp) = (Vec::new(), Compressor::default());
        let mut w = MessageWriter::new(&mut wire, &mut comp, 9, Flags::response(Rcode::NxDomain));
        w.question(&missing, RrType::A);
        w.soa(
            &missing.base_domain(),
            300,
            &name("ns1.example.com"),
            &name("hostmaster.example.com"),
            [1, 7200, 3600, 1209600, 300],
        );
        w.finish();
        let resp = Message::decode(&wire).unwrap();
        assert_eq!(resp.flags.rcode, Rcode::NxDomain);
        assert!(resp.answers.is_empty());
        assert_eq!(resp.authorities.len(), 1);
        assert_eq!(resp.authorities[0].name, Name::parse("example.com").unwrap());
        assert_eq!(resp.authorities[0].ttl, 300, "negative ttl = SOA minimum");
        assert_eq!(
            resp.authorities[0].rdata,
            RData::Soa(SoaData {
                mname: Name::parse("ns1.example.com").unwrap(),
                rname: Name::parse("hostmaster.example.com").unwrap(),
                serial: 1,
                refresh: 7200,
                retry: 3600,
                expire: 1209600,
                minimum: 300,
            })
        );
        // The owned encoder writes the same bytes.
        assert_eq!(resp.encode(), wire);
        let q = Message::query(9, Name::parse("missing.example.com").unwrap(), RrType::A);
        assert_eq!((resp.id, &resp.questions), (q.id, &q.questions));
    }

    #[test]
    fn garbage_rejected_not_panic() {
        for len in 0..64 {
            let buf: Vec<u8> = (0..len).map(|i| (i * 37) as u8).collect();
            let _ = Message::decode(&buf); // must not panic
        }
    }
}
