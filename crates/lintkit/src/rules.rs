//! The rule table: every source-level invariant the workspace enforces,
//! as data plus a handful of token-aware checks.
//!
//! Seven rules port the old `scripts/verify.sh` awk/grep deny-lists;
//! `no-map-iteration`, `unsafe-needs-safety-comment`,
//! `stdout-discipline`, and `no-wallclock` are new invariants the shell
//! could not express; `threshold-rule-fence` keeps the SC/R threshold
//! formula in the one file that defines it; `monitor-stays-borrowed`
//! keeps the owned DNS decode and per-packet strings out of the monitor
//! and its name table;
//! `sim-sink-stays-flat` keeps owned frames, owned messages and
//! per-emission vectors out of the simulator's packet sink;
//! `stream-epoch-stays-flat` keeps fresh vectors and strings, and a
//! vector per run or per key, out of the stream engine, whose epoch
//! boundaries allocate nothing once it has held its peak;
//! `obs-exports-write-in-place` keeps a temporary string per line out of
//! the obs exporters, which write into their one output string;
//! `batch-sorts-in-place` keeps stable sorts, and the scratch they
//! allocate, off the batch analysis' row-sized vectors (the radix
//! kernel borrows its scratch);
//! `pairing-joins-by-client` keeps the per-key hash index out of the
//! batch pairer, which merges each client's sorted lookups and
//! connections;
//! `unused-pub` is the one
//! workspace-wide pass (a `pub` item nothing outside its file uses);
//! `lints-inherit` keeps every crate under the workspace's
//! `[workspace.lints]` table, whose denied `dead_code` guards the
//! crate-private functions `unused-pub` does not see;
//! `verify-shell-discipline` is the meta-rule that keeps ad-hoc source
//! scanning from creeping back into verify.sh.
//!
//! Any diagnostic can be suppressed for one line by a comment on that
//! line (or in the comment block directly above it) containing
//! `lint: allow(<rule-id>)` — the one suppression syntax.

use crate::lexer::{Lexed, Lexeme};

/// Where a rule looks.
pub struct Scope {
    /// Workspace-relative path prefixes the rule applies to.
    pub roots: &'static [&'static str],
    /// Path prefixes (or exact files) the rule never applies to.
    pub exclude: &'static [&'static str],
    /// Restrict to `src/` trees (skip `tests/`, `benches/`, `examples/`).
    pub src_only: bool,
    /// Also scan `#[cfg(test)]`-scoped code and test trees.
    pub include_tests: bool,
}

/// How a rule matches.
pub enum Check {
    /// Literal needles searched in code tokens only, with identifier
    /// boundary guards (so `println!` never matches inside `eprintln!`).
    Needles(&'static [&'static str]),
    /// [`Check::Needles`], from the first occurrence of `anchor` in the
    /// file's code on; a file without the anchor is itself a hit.
    NeedlesFrom {
        /// Code text the fenced part of the file starts with.
        anchor: &'static str,
        /// What must not appear from there on.
        needles: &'static [&'static str],
    },
    /// Iteration over `FastMap`/`FastSet`/`HashMap`/`HashSet` bindings.
    MapIteration,
    /// `unsafe` blocks and `unsafe impl` need a `// SAFETY:` rationale.
    UnsafeSafety,
    /// Denied external crates in `Cargo.toml` manifests.
    DepDenylist(&'static [&'static str]),
    /// A crate manifest (`crates/*/Cargo.toml`) without `[lints]` +
    /// `workspace = true`.
    LintsInherit,
    /// awk/grep source scanning inside `scripts/verify.sh`.
    ShellScan,
    /// `pub` items with no reference outside their defining file. Needs
    /// every file at once: `lint_workspace` runs it, not `lint_file`.
    UnusedPub,
}

/// One invariant.
pub struct Rule {
    /// Stable id, used in diagnostics and `lint: allow(...)` markers.
    pub id: &'static str,
    /// One-line statement of the invariant.
    pub desc: &'static str,
    /// What to do instead when the rule fires.
    pub hint: &'static str,
    /// Where the rule looks.
    pub scope: Scope,
    /// How it matches.
    pub check: Check,
}

/// Map/set types whose bucket order is nondeterministic.
const HASHED_TYPES: [&str; 4] = ["FastMap", "FastSet", "HashMap", "HashSet"];

/// Methods that iterate a map in bucket order.
const ITER_METHODS: [&str; 9] = [
    "iter", "iter_mut", "into_iter", "keys", "values", "values_mut", "into_keys",
    "into_values", "drain",
];

/// The full rule table, in reporting order.
pub fn rules() -> Vec<Rule> {
    vec![
        Rule {
            id: "no-unwrap-parse",
            desc: "parse paths must not panic: no .unwrap()/.expect( in netpkt or dns-wire",
            hint: "return a typed Err (PktError/WireError); malformed input is data, not a bug",
            scope: Scope {
                roots: &["crates/netpkt/src", "crates/dns-wire/src"],
                exclude: &[],
                src_only: true,
                include_tests: false,
            },
            check: Check::Needles(&[".unwrap()", ".expect("]),
        },
        Rule {
            id: "no-owned-copy-hotpath",
            desc: "per-frame parse paths and the per-lookup cache replays stay copy-free: no .to_vec()/.clone() in pcapio, netpkt, dns-wire, cache-sim",
            hint: "borrow from the record buffer (cache-sim: key on the interned id); mark a sanctioned exit with `// lint: allow(no-owned-copy-hotpath): why`",
            scope: Scope {
                roots: &["crates/pcapio/src", "crates/netpkt/src", "crates/dns-wire/src", "crates/cache-sim/src"],
                exclude: &[],
                src_only: true,
                include_tests: false,
            },
            check: Check::Needles(&[".to_vec()", ".clone()"]),
        },
        Rule {
            id: "monitor-stays-borrowed",
            desc: "the monitor reads DNS through dns_wire::MessageView, builds no string and no per-row vector per packet (a row holds its answers in zeek_lite::Answers), and interning a new name only grows the table's arena: no Message::decode/.to_string()/.to_owned()/format!/Vec::with_capacity/vec! in zeek-lite's monitor.rs, tracker.rs and names.rs",
            hint: "read names through NameBuf and intern them, and collect a row's answers into its Answers; a report or rejection path may carry `// lint: allow(monitor-stays-borrowed): why`",
            scope: Scope {
                roots: &[
                    "crates/zeek-lite/src/monitor.rs",
                    "crates/zeek-lite/src/tracker.rs",
                    "crates/zeek-lite/src/names.rs",
                ],
                exclude: &[],
                src_only: true,
                include_tests: false,
            },
            check: Check::Needles(&[
                "Message::decode",
                ".to_string()",
                ".to_owned()",
                "format!",
                "Vec::with_capacity",
                "vec!",
            ]),
        },
        Rule {
            id: "sim-sink-stays-flat",
            desc: "the simulator's packet sink writes each frame once into its byte arena: from `impl Sink for PcapSink` on, output.rs names no Frame::, Message, Name::parse, .encode(), .to_vec(), Vec::with_capacity or vec!",
            hint: "append through netpkt::frame::{udp, udp_virtual, tcp} and dns_wire::MessageWriter; names go through the sink's NameBufs",
            scope: Scope {
                roots: &["crates/ccz-sim/src/output.rs"],
                exclude: &[],
                src_only: true,
                include_tests: false,
            },
            check: Check::NeedlesFrom {
                anchor: "impl Sink for PcapSink",
                needles: &["Frame::", "Message", "Name::parse", ".encode()", ".to_vec()", "Vec::with_capacity", "vec!"],
            },
        },
        Rule {
            id: "stream-epoch-stays-flat",
            desc: "closing an epoch allocates nothing once the stream engine has held its peak: no format!, Vec::with_capacity, vec!, .to_string() or Vec<Vec< in non-test dns-context/src/stream.rs",
            hint: "fill the engine's lent EpochOutput, keep a spilled run in a block of the engine's size-class slabs (never a vector of its own), and pass flight details as format_args!",
            scope: Scope {
                roots: &["crates/dns-context/src/stream.rs"],
                exclude: &[],
                src_only: true,
                include_tests: false,
            },
            check: Check::Needles(&["format!", "Vec::with_capacity", "vec!", ".to_string()", "Vec<Vec<"]),
        },
        Rule {
            id: "obs-exports-write-in-place",
            desc: "the obs exporters write each line into their one output string: no push_str(&format! in non-test crates/xkit/src/obs/",
            hint: "`let _ = write!(out, ...)` with `use std::fmt::Write as _;` formats straight into the output",
            scope: Scope {
                roots: &["crates/xkit/src/obs"],
                exclude: &[],
                src_only: true,
                include_tests: false,
            },
            check: Check::Needles(&["push_str(&format!"]),
        },
        Rule {
            id: "batch-sorts-in-place",
            desc: "the batch analysis sorts its row-sized vectors in place or with the radix kernel (dns-context/src/radix.rs): no .sort_by( or .sort_by_key( in non-test dns-context/src/{pairing,perf,stats}.rs and cache-sim/src/lib.rs",
            hint: "a stable sort allocates scratch of up to n elements per call; use radix::sort with scratch lent from a buffer the code already holds, sort_unstable_by/sort_unstable_by_key on a key under which ties are identical values, or debug_assert! an order the input already has",
            scope: Scope {
                roots: &[
                    "crates/dns-context/src/pairing.rs",
                    "crates/dns-context/src/perf.rs",
                    "crates/dns-context/src/stats.rs",
                    "crates/cache-sim/src/lib.rs",
                ],
                exclude: &[],
                src_only: true,
                include_tests: false,
            },
            check: Check::Needles(&[".sort_by(", ".sort_by_key("]),
        },
        Rule {
            id: "pairing-joins-by-client",
            desc: "batch pairing is a sort-merge join by client, not a per-key hash index: no pack_key and no FastMap/HashMap keyed by a packed u64 or an address pair in non-test dns-context/src/pairing.rs",
            hint: "pair inside each client's slice: sort its entries by (addr, completed, dns_idx) and its connections by (addr, row), then merge and hand each address's run to kernel::select; a per-key map costs a hash probe and a jump into the arena per connection",
            scope: Scope {
                roots: &["crates/dns-context/src/pairing.rs"],
                exclude: &[],
                src_only: true,
                include_tests: false,
            },
            check: Check::Needles(&["pack_key", "FastMap<u64", "HashMap<u64", "FastMap<(", "HashMap<("]),
        },
        Rule {
            id: "clock-seam",
            desc: "monotonic time is read in one place: no Instant::now outside crates/xkit",
            hint: "use xkit::obs::clock::now() so timing stays on the one seam",
            scope: Scope {
                roots: &["crates"],
                exclude: &["crates/xkit/"],
                src_only: false,
                include_tests: true,
            },
            check: Check::Needles(&["Instant::now"]),
        },
        Rule {
            id: "socket-fence",
            desc: "sockets stay behind one seam: no TcpListener/TcpStream/UdpSocket outside xkit::obs::http",
            hint: "serve through xkit::obs::http",
            scope: Scope {
                roots: &["crates"],
                exclude: &["crates/xkit/src/obs/http.rs"],
                src_only: true,
                include_tests: false,
            },
            check: Check::Needles(&["TcpListener", "TcpStream", "UdpSocket"]),
        },
        Rule {
            id: "ingest-seam",
            desc: "all ingestion goes through the RecordSource seam: no PcapReader::new outside pcapio",
            hint: "construct the file backend via pcapio::source::file",
            scope: Scope {
                roots: &["crates"],
                exclude: &["crates/pcapio/"],
                src_only: true,
                include_tests: false,
            },
            check: Check::Needles(&["PcapReader::new"]),
        },
        Rule {
            id: "no-batch-in-stream",
            desc: "the streaming engine must not fall back to a full-trace batch pass",
            hint: "stay on the windowed epoch path; the batch pipeline is only the test oracle",
            scope: Scope {
                roots: &["crates/dns-context/src/stream.rs"],
                exclude: &[],
                src_only: true,
                include_tests: false,
            },
            check: Check::Needles(&[
                "Pairing::build",
                "Analysis::run",
                "Monitor::process_pcap",
                ".finish().metrics()",
            ]),
        },
        Rule {
            id: "threshold-rule-fence",
            desc: "the SC/R threshold formula is written once: no .add_ms/.floor_ms reads outside the file that defines ThresholdRule",
            hint: "call ThresholdRule::threshold / ThresholdRule::floor",
            scope: Scope {
                roots: &["crates"],
                exclude: &["crates/dns-context/src/kernel.rs"],
                src_only: true,
                include_tests: false,
            },
            check: Check::Needles(&[".add_ms", ".floor_ms"]),
        },
        Rule {
            id: "dep-denylist",
            desc: "the workspace is zero-dependency: no external crates in any manifest",
            hint: "use the in-tree equivalent (xkit::rng, xkit::par, xkit::collections); timing goes in the bench ladder (benchmark/)",
            scope: Scope {
                roots: &["Cargo.toml", "crates"],
                exclude: &[],
                src_only: false,
                include_tests: true,
            },
            check: Check::DepDenylist(&["rand", "criterion", "proptest", "crossbeam", "parking_lot"]),
        },
        Rule {
            id: "no-map-iteration",
            desc: "FastMap/FastSet/HashMap/HashSet are never iterated on an output path (bucket order is not deterministic)",
            hint: "keep a first-seen key list or sort before iterating; order-insensitive folds may carry `// lint: allow(no-map-iteration): why`",
            scope: Scope {
                roots: &["crates"],
                exclude: &[],
                src_only: true,
                include_tests: false,
            },
            check: Check::MapIteration,
        },
        Rule {
            id: "unsafe-needs-safety-comment",
            desc: "every unsafe block / unsafe impl is preceded by a `// SAFETY:` rationale",
            hint: "state the invariant that makes the block sound, on or just above its line",
            scope: Scope {
                roots: &["crates"],
                exclude: &[],
                src_only: true,
                include_tests: false,
            },
            check: Check::UnsafeSafety,
        },
        Rule {
            id: "stdout-discipline",
            desc: "stdout carries exactly one JSON document: no println!/print!/dbg! in library crates",
            hint: "route human-readable output through eprintln! (stderr)",
            scope: Scope {
                roots: &["crates"],
                exclude: &["crates/bench/src/bin/"],
                src_only: true,
                include_tests: false,
            },
            check: Check::Needles(&["println!", "print!", "dbg!"]),
        },
        Rule {
            id: "no-wallclock",
            desc: "wall-clock reads stay on the sanctioned seams: no SystemTime::now/thread::sleep outside xkit clock + http",
            hint: "take timestamps through xkit::obs::clock or justify the seam with an allow marker",
            scope: Scope {
                roots: &["crates"],
                exclude: &["crates/xkit/src/obs/clock.rs", "crates/xkit/src/obs/http.rs"],
                src_only: true,
                include_tests: false,
            },
            check: Check::Needles(&["SystemTime::now", "thread::sleep"]),
        },
        Rule {
            id: "thread-spawn-fence",
            desc: "threads start behind the two seams: no thread::spawn, thread::scope or thread::Builder outside xkit::par and xkit::obs::http",
            hint: "submit to an xkit::par::Pool, borrow a scoped par helper (par_map, join, lockstep) or serve through xkit::obs::http",
            scope: Scope {
                roots: &["crates"],
                exclude: &["crates/xkit/src/par.rs", "crates/xkit/src/obs/http.rs"],
                src_only: true,
                include_tests: false,
            },
            check: Check::Needles(&["thread::spawn", "thread::scope", "thread::Builder"]),
        },
        Rule {
            id: "unused-pub",
            desc: "public surface has a user: a pub fn/const/static under crates/*/src is named by non-test code outside its file (other src, benchmark/src), a pub struct/enum/trait/type by anything but its own definition and impl headers; matching is by name, so a shared name counts as used, except that `Type::name` is no use of a module-level pub fn; crate-private functions are guarded by rustc's `dead_code`, denied workspace-wide, which resolves receivers exactly",
            hint: "delete it, or make it `pub(crate)` if only its crate uses it; an item the roadmap or an integration test needs carries `// lint: allow(unused-pub): why`",
            scope: Scope {
                roots: &["crates", "benchmark/src"],
                exclude: &[],
                src_only: false,
                include_tests: false,
            },
            check: Check::UnusedPub,
        },
        Rule {
            id: "lints-inherit",
            desc: "every crate inherits the workspace lint table: each crates/*/Cargo.toml carries `[lints]` with `workspace = true`, so rustc's denied `dead_code` covers it",
            hint: "add `[lints]` and `workspace = true` to the crate's manifest",
            scope: Scope {
                roots: &["crates"],
                exclude: &[],
                src_only: false,
                include_tests: true,
            },
            check: Check::LintsInherit,
        },
        Rule {
            id: "verify-shell-discipline",
            desc: "verify.sh contains no freestanding awk/grep source scans: invariants live in lintkit rules",
            hint: "add a lintkit rule instead of a shell deny-grep",
            scope: Scope {
                roots: &["scripts/verify.sh"],
                exclude: &[],
                src_only: false,
                include_tests: true,
            },
            check: Check::ShellScan,
        },
    ]
}

/// A raw hit inside one file: byte offset of the match.
pub struct Hit {
    /// Byte offset the diagnostic anchors to.
    pub at: usize,
    /// Needle or short description of what matched.
    pub what: String,
}

/// Run a needle check over the code tokens of a lexed file.
pub(crate) fn needle_hits(lexed: &Lexed<'_>, needles: &[&str]) -> Vec<Hit> {
    let mut hits = Vec::new();
    for (base, text) in lexed.code_segments() {
        for needle in needles {
            let nb = needle.as_bytes();
            let lead_guard = nb.first().is_some_and(|b| b.is_ascii_alphanumeric() || *b == b'_');
            let tail_guard = nb.last().is_some_and(|b| b.is_ascii_alphanumeric() || *b == b'_');
            let mut from = 0usize;
            while let Some(rel) = text[from..].find(needle) {
                let at = from + rel;
                from = at + 1;
                let bytes = text.as_bytes();
                if lead_guard
                    && at > 0
                    && (bytes[at - 1].is_ascii_alphanumeric() || bytes[at - 1] == b'_')
                {
                    continue;
                }
                let end = at + nb.len();
                if tail_guard
                    && end < bytes.len()
                    && (bytes[end].is_ascii_alphanumeric() || bytes[end] == b'_')
                {
                    continue;
                }
                hits.push(Hit { at: base + at, what: (*needle).to_string() });
            }
        }
    }
    hits.sort_by_key(|h| h.at);
    hits
}

/// [`needle_hits`] at or after the first `anchor` in the file's code; a
/// missing anchor is one hit at the top, so renaming what the fence
/// starts at cannot switch the rule off unnoticed.
pub(crate) fn needle_hits_from(lexed: &Lexed<'_>, anchor: &str, needles: &[&str]) -> Vec<Hit> {
    let Some(from) = needle_hits(lexed, &[anchor]).first().map(|h| h.at) else {
        return vec![Hit { at: 0, what: format!("no `{anchor}` to fence from") }];
    };
    let mut hits = needle_hits(lexed, needles);
    hits.retain(|h| h.at > from);
    hits
}

/// Token-aware map-iteration check: collect the file's bindings whose
/// declared (or constructed) type is one of [`HASHED_TYPES`], then flag
/// `binding.iter()`-style calls and bare `for … in [&mut] binding` loops
/// over them.
pub(crate) fn map_iteration_hits(lexed: &Lexed<'_>) -> Vec<Hit> {
    let toks = lexed.code_lexemes();
    let ident = |i: usize| match toks.get(i) {
        Some((_, Lexeme::Ident(s))) => Some(*s),
        _ => None,
    };
    let punct = |i: usize| match toks.get(i) {
        Some((_, Lexeme::Punct(b))) => Some(*b),
        _ => None,
    };

    // Pass A: `name: [&][mut]['a] FastMap<…>` (fields, params, lets).
    let mut bindings: Vec<&str> = Vec::new();
    for i in 0..toks.len() {
        let Some(name) = ident(i) else { continue };
        // A single `:` (not `::`) right after the name.
        if punct(i + 1) != Some(b':') || punct(i + 2) == Some(b':') {
            continue;
        }
        if i > 0 && punct(i - 1) == Some(b':') {
            continue;
        }
        let mut j = i + 2;
        loop {
            match toks.get(j) {
                Some((_, Lexeme::Punct(b'&'))) => j += 1,
                // A lifetime is the quote plus its identifier.
                Some((_, Lexeme::Punct(b'\''))) => j += 2,
                Some((_, Lexeme::Ident("mut"))) => j += 1,
                Some((_, Lexeme::Ident(ty))) => {
                    if HASHED_TYPES.contains(ty) && !bindings.contains(&name) {
                        bindings.push(name);
                    }
                    break;
                }
                _ => break,
            }
        }
    }
    // Pass A': `let [mut] name = … FastMap::…` / `… HashMap::new()` up
    // to the statement's `;`.
    for i in 0..toks.len() {
        if ident(i) != Some("let") {
            continue;
        }
        let mut j = i + 1;
        if ident(j) == Some("mut") {
            j += 1;
        }
        let Some(name) = ident(j) else { continue };
        let mut k = j + 1;
        while let Some(tok) = toks.get(k) {
            match tok.1 {
                Lexeme::Punct(b';') => break,
                Lexeme::Ident(ty)
                    if HASHED_TYPES.contains(&ty)
                        && punct(k + 1) == Some(b':')
                        && punct(k + 2) == Some(b':') =>
                {
                    if !bindings.contains(&name) {
                        bindings.push(name);
                    }
                    break;
                }
                _ => {}
            }
            k += 1;
        }
    }

    let mut hits = Vec::new();
    // U1: `binding.method(` with an iterating method.
    for i in 0..toks.len() {
        let Some(name) = ident(i) else { continue };
        if !bindings.contains(&name) {
            continue;
        }
        if punct(i + 1) != Some(b'.') {
            continue;
        }
        let Some(m) = ident(i + 2) else { continue };
        if ITER_METHODS.contains(&m) && punct(i + 3) == Some(b'(') {
            hits.push(Hit { at: toks[i + 2].0, what: format!("{name}.{m}()") });
        }
    }
    // U2: `for pat in [&][mut] [self.]binding {` — iteration by ref
    // without a method call.
    for i in 0..toks.len() {
        if ident(i) != Some("for") {
            continue;
        }
        // Find the matching `in` at bracket depth 0.
        let mut depth = 0i32;
        let mut j = i + 1;
        let in_at = loop {
            match toks.get(j) {
                None => break None,
                Some((_, Lexeme::Punct(b'(' | b'['))) => depth += 1,
                Some((_, Lexeme::Punct(b')' | b']'))) => depth -= 1,
                Some((_, Lexeme::Ident("in"))) if depth == 0 => break Some(j),
                Some((_, Lexeme::Punct(b'{'))) => break None,
                _ => {}
            }
            j += 1;
            if j > i + 64 {
                break None;
            }
        };
        let Some(in_at) = in_at else { continue };
        // Collect the iterated expression up to the loop body `{`.
        let mut expr: Vec<(usize, Lexeme<'_>)> = Vec::new();
        let mut k = in_at + 1;
        let mut simple = true;
        loop {
            match toks.get(k) {
                None => {
                    simple = false;
                    break;
                }
                Some((_, Lexeme::Punct(b'{'))) => break,
                Some(tok) => {
                    match tok.1 {
                        Lexeme::Punct(b'&' | b'.') | Lexeme::Ident(_) => expr.push(*tok),
                        _ => simple = false,
                    }
                }
            }
            k += 1;
            if k > in_at + 16 {
                simple = false;
                break;
            }
        }
        if !simple {
            continue;
        }
        if let Some((at, Lexeme::Ident(name))) = expr.last() {
            if *name != "mut" && bindings.contains(name) {
                hits.push(Hit { at: *at, what: format!("for … in {name}") });
            }
        }
    }
    hits.sort_by_key(|h| h.at);
    hits.dedup_by_key(|h| h.at);
    hits
}

/// `unsafe` blocks / impls without a `// SAFETY:` comment on their line
/// or within the three lines above.
pub(crate) fn unsafe_safety_hits(lexed: &Lexed<'_>) -> Vec<Hit> {
    let toks = lexed.code_lexemes();
    let mut hits = Vec::new();
    for i in 0..toks.len() {
        let (at, Lexeme::Ident("unsafe")) = toks[i] else { continue };
        // Only blocks (`unsafe {`) and impls (`unsafe impl`) assert an
        // invariant at this site; `unsafe fn`/`unsafe trait` declare one
        // for callers and are documented at the signature instead.
        let needs = match toks.get(i + 1) {
            Some((_, Lexeme::Punct(b'{'))) => true,
            Some((_, Lexeme::Ident("impl"))) => true,
            _ => false,
        };
        if !needs {
            continue;
        }
        let line = lexed.line_of(at);
        let covered = (line.saturating_sub(3)..=line).any(|l| l >= 1 && lexed.line_has_marker(l, "SAFETY:"));
        if !covered {
            hits.push(Hit { at, what: "unsafe without SAFETY: rationale".to_string() });
        }
    }
    hits
}

/// The `unused-pub` pass over every in-scope file at once; a hit carries
/// the index of its file. References are identifier tokens in non-test
/// code, not counting the name an item definition introduces, `pub use`
/// re-exports and `impl` headers. Items are bare-`pub` definitions under
/// `crates/*/src` outside test scope and outside nested `mod { }` blocks.
/// A name reached through a type path (`Upper::name`, `Self::name`) is a
/// method or an associated item, so it is no use of a module-level
/// `pub fn` of that name.
pub(crate) fn unused_pub_hits(files: &[(&str, Lexed<'_>)]) -> Vec<(usize, Hit)> {
    const VALUE_KW: [&str; 3] = ["fn", "const", "static"];
    const TYPE_KW: [&str; 4] = ["struct", "enum", "trait", "type"];
    struct Item<'a> {
        file: usize,
        at: usize,
        kw: &'a str,
        name: &'a str,
        /// A `fn` at brace depth 0: only calls not through a type reach it.
        free_fn: bool,
    }
    let mut items: Vec<Item<'_>> = Vec::new();
    // name -> (the first file that references it, whether a later one
    // does): `[0]` over every reference, `[1]` leaving out type paths.
    let mut users: [std::collections::HashMap<&str, (usize, bool)>; 2] = Default::default();

    for (file, (path, lexed)) in files.iter().enumerate() {
        let defines = path.starts_with("crates/") && path.contains("/src/");
        let toks: Vec<(usize, Lexeme<'_>)> = lexed
            .code_lexemes()
            .into_iter()
            .filter(|(at, _)| !lexed.in_test(*at))
            .collect();
        let ident = |i: usize| match toks.get(i) {
            Some((_, Lexeme::Ident(s))) => Some(*s),
            _ => None,
        };
        let punct = |i: usize| match toks.get(i) {
            Some((_, Lexeme::Punct(b))) => Some(*b),
            _ => None,
        };
        let mut depth = 0usize;
        // Brace depths at which a `mod name {` body opened.
        let mut mods: Vec<usize> = Vec::new();
        // Tokens before this index are a re-export or an impl header.
        let mut muted_until = 0usize;
        for i in 0..toks.len() {
            match toks[i].1 {
                Lexeme::Punct(b'{') => depth += 1,
                Lexeme::Punct(b'}') => {
                    if mods.last() == Some(&depth) {
                        mods.pop();
                    }
                    depth = depth.saturating_sub(1);
                }
                Lexeme::Punct(_) => {}
                Lexeme::Ident(_) if i < muted_until => {}
                Lexeme::Ident("mod") if punct(i + 2) == Some(b'{') => mods.push(depth + 1),
                // `impl` opening an item (not `impl Trait` in a type).
                Lexeme::Ident("impl")
                    if i == 0
                        || matches!(punct(i - 1), Some(b'}' | b';' | b']' | b'{'))
                        || ident(i - 1) == Some("unsafe") =>
                {
                    let body = (i..toks.len()).find(|&k| punct(k) == Some(b'{'));
                    muted_until = body.unwrap_or(toks.len());
                }
                Lexeme::Ident("pub") if punct(i + 1) != Some(b'(') => {
                    let mut j = i + 1;
                    while matches!(ident(j), Some("unsafe" | "async" | "extern"))
                        || (ident(j) == Some("const") && ident(j + 1) == Some("fn"))
                    {
                        j += 1;
                    }
                    let Some(kw) = ident(j) else { continue };
                    if kw == "use" {
                        let end = (j..toks.len()).find(|&k| punct(k) == Some(b';'));
                        muted_until = end.unwrap_or(toks.len());
                    }
                    let name = if ident(j + 1) == Some("mut") { ident(j + 2) } else { ident(j + 1) };
                    let is_item = VALUE_KW.contains(&kw) || TYPE_KW.contains(&kw);
                    if let (true, true, true, Some(name)) = (defines, is_item, mods.is_empty(), name) {
                        let free_fn = kw == "fn" && depth == 0;
                        items.push(Item { file, at: toks[i].0, kw, name, free_fn });
                    }
                }
                Lexeme::Ident(name) => {
                    let introduced = i > 0
                        && ident(i - 1).is_some_and(|kw| {
                            VALUE_KW.contains(&kw) || TYPE_KW.contains(&kw) || kw == "mod"
                        });
                    let through_type = i >= 3
                        && punct(i - 1) == Some(b':')
                        && punct(i - 2) == Some(b':')
                        && ident(i - 3).is_some_and(|q| q.starts_with(char::is_uppercase));
                    let counted = match (introduced, through_type) {
                        (true, _) => 0,
                        (false, true) => 1,
                        (false, false) => 2,
                    };
                    for map in &mut users[..counted] {
                        let (first, elsewhere) = map.entry(name).or_insert((file, false));
                        *elsewhere |= *first != file;
                    }
                }
            }
        }
    }

    let mut hits = Vec::new();
    for item in items {
        let used = users[usize::from(item.free_fn)].get(item.name).is_some_and(|(first, elsewhere)| {
            TYPE_KW.contains(&item.kw) || *first != item.file || *elsewhere
        });
        if !used {
            let what = format!("unused pub {} `{}`", item.kw, item.name);
            hits.push((item.file, Hit { at: item.at, what }));
        }
    }
    hits
}

/// Denied dependency declarations in a `Cargo.toml`: a denied crate
/// name opening a line (`rand = …`, `rand.workspace = …`) outside
/// comments.
pub(crate) fn dep_denylist_hits(src: &str, denied: &[&str]) -> Vec<(usize, String)> {
    let mut hits = Vec::new();
    let mut off = 0usize;
    for line in src.split_inclusive('\n') {
        let code = match line.find('#') {
            // TOML has no `#` inside bare keys; strings on dependency
            // lines never precede the key, so a plain split is enough.
            Some(h) => &line[..h],
            None => line,
        };
        let trimmed = code.trim_start();
        for name in denied {
            if trimmed.starts_with(name) {
                let rest = &trimmed[name.len()..];
                if rest.trim_start().starts_with('=')
                    || rest.starts_with('.')
                    || rest.starts_with(' ')
                    || rest.starts_with('\t')
                {
                    hits.push((off + (code.len() - trimmed.len()), format!("dependency `{name}`")));
                }
            }
        }
        off += line.len();
    }
    hits
}

/// A crate manifest that does not inherit the workspace lints: one hit
/// at the top of the file unless a `[lints]` table holds
/// `workspace = true`.
pub(crate) fn lints_inherit_hits(src: &str) -> Vec<(usize, String)> {
    let mut table = "";
    for line in src.lines() {
        let code = line.split('#').next().unwrap_or("").trim();
        if code.starts_with('[') {
            table = code;
        } else if table == "[lints]" && code.replace(' ', "") == "workspace=true" {
            return Vec::new();
        }
    }
    vec![(0, "no `[lints] workspace = true`".to_string())]
}

/// awk/grep source scanning inside verify.sh. Any `awk` at all is
/// flagged (a multi-line awk program hides its target paths from a
/// line-based scan, so the opener is the reliable anchor); recursive
/// greps and finds aimed at `.rs` files are flagged too. Sanctioned
/// numeric post-processing carries an allow marker on or above its
/// line.
pub(crate) fn shell_scan_hits(src: &str) -> Vec<(usize, String)> {
    let mut hits = Vec::new();
    let mut off = 0usize;
    for line in src.split_inclusive('\n') {
        let code = line.split('#').next().unwrap_or("");
        if code.contains("awk") {
            hits.push((off, "awk invocation (invariants belong in lintkit rules)".to_string()));
        } else if code.contains("grep") && (code.contains("*.rs") || code.contains("--include"))
        {
            hits.push((off, "recursive grep over Rust sources".to_string()));
        } else if code.contains("find ") && code.contains(".rs") {
            hits.push((off, "find over Rust sources".to_string()));
        }
        off += line.len();
    }
    hits
}
