use crate::header::{Flags, Header, HEADER_LEN};
use crate::name::{write_compressed, Compressor, NameBuf};
use crate::question::{self, Question, QuestionView};
use crate::rdata::write_soa;
use crate::record::{self, Record, RecordView};
use crate::{RrType, WireError};
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

/// Which of the header's four counts a question or record adds to (the
/// fourth, additional, is never written).
const QUESTION: usize = 0;
const ANSWER: usize = 1;
const AUTHORITY: usize = 2;

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
        debug_assert!(self.counts[ANSWER..] == [0; 3], "questions come first");
        question::write(self.out, self.comp, name.flat(), rtype);
        self.counts[QUESTION] += 1;
    }

    /// An A record in the answer section.
    pub fn a(&mut self, owner: &NameBuf, ttl: u32, addr: Ipv4Addr) {
        self.put_record(ANSWER, owner.flat(), RrType::A, ttl, |out, _| {
            out.extend_from_slice(&addr.octets())
        });
    }

    /// A CNAME record in the answer section.
    pub fn cname(&mut self, owner: &NameBuf, ttl: u32, target: &NameBuf) {
        self.put_record(ANSWER, owner.flat(), RrType::Cname, ttl, |out, comp| {
            write_compressed(target.flat(), out, comp)
        });
    }

    /// The SOA of `zone` in the authority section, as an RFC 2308
    /// negative response carries it; `counters` is serial, refresh,
    /// retry, expire, minimum, and the minimum bounds how long the
    /// non-existence may be cached.
    // lint: allow(unused-pub): the negative responses in zeek-lite's monitor tests and tests/extensions.rs, and dns-wire's proptest corpus, whose digests include SOA records
    pub fn soa(&mut self, zone: &NameBuf, ttl: u32, mname: &NameBuf, rname: &NameBuf, counters: [u32; 5]) {
        self.put_record(AUTHORITY, zone.flat(), RrType::Soa, ttl, |out, comp| {
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

    fn put_record(
        &mut self,
        section: usize,
        owner: &[u8],
        rtype: RrType,
        ttl: u32,
        rdata: impl FnOnce(&mut Vec<u8>, &mut Compressor),
    ) {
        debug_assert!(self.counts[section + 1..].iter().all(|c| *c == 0), "sections come in order");
        record::write(self.out, self.comp, owner, rtype, ttl, rdata);
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
    use crate::{NameRef, RrClass};

    fn name(s: &str) -> NameBuf {
        s.parse().unwrap()
    }

    fn shown(n: NameRef<'_>) -> String {
        let (mut buf, mut out) = (NameBuf::new(), String::new());
        n.read_into(&mut buf);
        buf.write_presentation(&mut out);
        out
    }

    /// An answer as the view reads it: owner, ttl, address, alias target.
    type Answer = (String, u32, Option<Ipv4Addr>, Option<String>);

    fn answers(view: &MessageView<'_>) -> Vec<Answer> {
        view.answers().map(|r| (shown(r.name), r.ttl, r.a(), r.cname().map(shown))).collect()
    }

    /// A CNAME answer and the address it leads to, then the SOA of the
    /// CDN's zone, after `prefix` in the buffer.
    fn sample_response(prefix: Vec<u8>, comp: &mut Compressor, id: u16) -> Vec<u8> {
        let (owner, edge) = (name("www.example.com"), name("edge.cdn.example.net"));
        let mut out = prefix;
        let mut w = MessageWriter::new(&mut out, comp, id, Flags::response(Rcode::NoError));
        w.question(&owner, RrType::A);
        w.cname(&owner, 3600, &edge);
        w.a(&edge, 30, Ipv4Addr::new(203, 0, 113, 7));
        w.soa(&name("cdn.example.net"), 86400, &name("ns1.cdn.example.net"), &name("h.example.net"), [1; 5]);
        w.finish();
        out
    }

    fn sample_answers() -> Vec<Answer> {
        vec![
            ("www.example.com".into(), 3600, None, Some("edge.cdn.example.net".into())),
            ("edge.cdn.example.net".into(), 30, Some(Ipv4Addr::new(203, 0, 113, 7)), None),
        ]
    }

    #[test]
    fn full_message_round_trip() {
        let wire = sample_response(Vec::new(), &mut Compressor::default(), 7);
        let view = MessageView::parse(&wire).unwrap();
        assert_eq!((view.id(), view.flags()), (7, Flags::response(Rcode::NoError)));
        let q = view.question().unwrap();
        assert_eq!((shown(q.name).as_str(), q.rtype, q.rclass), ("www.example.com", RrType::A, RrClass::In));
        assert_eq!(answers(&view), sample_answers());
    }

    #[test]
    fn compression_shrinks_message() {
        let compressed = sample_response(Vec::new(), &mut Compressor::default(), 7);
        // Every name spelled out: the header, the question's name and
        // fixed fields, and per record its owner, fixed fields and data.
        let spelled = |names: &[&str]| names.iter().map(|s| s.len() + 2).sum::<usize>();
        let uncompressed = 12
            + spelled(&["www.example.com"]) + 4
            + spelled(&["www.example.com", "edge.cdn.example.net"]) + 10
            + spelled(&["edge.cdn.example.net"]) + 10 + 4
            + spelled(&["cdn.example.net", "ns1.cdn.example.net", "h.example.net"]) + 10 + 20;
        assert!(compressed.len() < uncompressed);
    }

    #[test]
    fn header_counts_must_match_body() {
        let mut wire = sample_response(Vec::new(), &mut Compressor::default(), 7);
        // Claim one more answer than present.
        wire[7] += 1;
        assert!(matches!(MessageView::parse(&wire), Err(WireError::CountMismatch { .. })));
    }

    #[test]
    fn trailing_bytes_tolerated() {
        let mut wire = sample_response(Vec::new(), &mut Compressor::default(), 7);
        wire.extend_from_slice(&[0xDE, 0xAD]);
        assert_eq!(answers(&MessageView::parse(&wire).unwrap()), sample_answers());
    }

    #[test]
    fn empty_message_decodes() {
        let mut wire = Vec::new();
        MessageWriter::new(&mut wire, &mut Compressor::default(), 0, Flags::query()).finish();
        assert_eq!(wire.len(), HEADER_LEN);
        let view = MessageView::parse(&wire).unwrap();
        assert_eq!((view.id(), view.flags()), (0, Flags::query()));
        assert!(view.question().is_none());
        assert_eq!(view.answers().count(), 0);
    }

    /// The writer behind a frame's headers, its compressor reused: the
    /// bytes are a fresh writer's, offsets counted from the message's own
    /// start.
    #[test]
    fn writer_appends_at_a_base_offset_and_reuses_its_compressor() {
        let mut out = vec![0xEE; 42];
        let mut comp = Compressor::default();
        for id in [7u16, 8] {
            let at = out.len();
            out = sample_response(out, &mut comp, id);
            let alone = sample_response(Vec::new(), &mut Compressor::default(), id);
            assert_eq!(out[at..], alone[..]);
            let view = MessageView::parse(&out[at..]).unwrap();
            assert_eq!((view.id(), answers(&view)), (id, sample_answers()));
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
            &name("example.com"),
            300,
            &name("ns1.example.com"),
            &name("hostmaster.example.com"),
            [1, 7200, 3600, 1209600, 300],
        );
        w.finish();
        let view = MessageView::parse(&wire).unwrap();
        assert_eq!((view.id(), view.flags().rcode), (9, Rcode::NxDomain));
        assert_eq!(shown(view.question().unwrap().name), "missing.example.com");
        assert_eq!(view.answers().count(), 0);
        // The authority section, which only the owned decode reads.
        let resp = Message::decode(&wire).unwrap();
        assert_eq!(resp.authorities.len(), 1);
        let soa = &resp.authorities[0];
        assert_eq!(soa.name.to_string(), "example.com");
        assert_eq!(soa.ttl, 300, "negative ttl = SOA minimum");
        let RData::Soa(SoaData { mname, rname, serial, refresh, retry, expire, minimum }) = &soa.rdata else {
            panic!("not an SOA: {soa:?}");
        };
        assert_eq!((mname.to_string().as_str(), rname.to_string().as_str()), ("ns1.example.com", "hostmaster.example.com"));
        assert_eq!([*serial, *refresh, *retry, *expire, *minimum], [1, 7200, 3600, 1209600, 300]);
    }

    #[test]
    fn garbage_rejected_not_panic() {
        for len in 0..64 {
            let buf: Vec<u8> = (0..len).map(|i| (i * 37) as u8).collect();
            let _ = MessageView::parse(&buf); // must not panic
        }
    }
}
