//! Rule corpus: one positive and one negative fixture per rule, plus
//! the suppression paths (test scoping, allow markers, comment/literal
//! blindness) and the canonical-JSON rendering.

use lintkit::{lint_file, Diagnostic};

/// Diagnostics for `src` filed under `path`, all rules active.
fn diags(path: &str, src: &str) -> Vec<Diagnostic> {
    lint_file(path, src, None)
}

/// Ids of the rules that fired.
fn fired(path: &str, src: &str) -> Vec<String> {
    diags(path, src).into_iter().map(|d| d.rule).collect()
}

// ---- no-unwrap-parse ---------------------------------------------------

#[test]
fn unwrap_in_parse_path_fires() {
    let src = "pub fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
    let d = diags("crates/netpkt/src/lib.rs", src);
    assert_eq!(d.len(), 1);
    assert_eq!(d[0].rule, "no-unwrap-parse");
    assert_eq!((d[0].line, d[0].col), (1, 34));
    assert!(d[0].excerpt.contains("x.unwrap()"));
    assert!(!d[0].hint.is_empty());
}

#[test]
fn unwrap_outside_parse_crates_is_out_of_scope() {
    let src = "pub fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
    assert!(fired("crates/dns-context/src/lib.rs", src).iter().all(|r| r != "no-unwrap-parse"));
}

#[test]
fn unwrap_after_test_module_still_fires() {
    // The scoping fix: the test module exempts only its own extent.
    let src = "#[cfg(test)]\nmod tests { fn t(x: Option<u8>) { x.unwrap(); } }\n\
               pub fn live(x: Option<u8>) -> u8 { x.expect(\"live\") }\n";
    let d = diags("crates/dns-wire/src/lib.rs", src);
    assert_eq!(d.len(), 1, "{d:?}");
    assert_eq!(d[0].line, 3);
    assert_eq!(d[0].what, ".expect(");
}

#[test]
fn unwrap_in_comment_or_raw_string_is_inert() {
    let src = "// x.unwrap()\n/* x.unwrap() */\npub fn f() -> String { r#\".unwrap()\"#.into() }\n";
    assert!(diags("crates/netpkt/src/lib.rs", src).is_empty());
}

#[test]
fn allow_marker_suppresses_on_line_and_from_block_above() {
    let on_line = "pub fn f(x: Option<u8>) -> u8 { x.unwrap() } // lint: allow(no-unwrap-parse): proven Some\n";
    assert!(diags("crates/netpkt/src/lib.rs", on_line).is_empty());
    let above = "// lint: allow(no-unwrap-parse): slice length checked on\n\
                 // the previous line, so the tail comment spills over\n\
                 pub fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
    assert!(diags("crates/netpkt/src/lib.rs", above).is_empty());
    let detached = "// lint: allow(no-unwrap-parse): too far away\n\
                    \n\
                    pub fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
    assert_eq!(diags("crates/netpkt/src/lib.rs", detached).len(), 1, "a blank line breaks the block");
}

// ---- no-owned-copy-hotpath ---------------------------------------------

#[test]
fn clone_on_hot_path_fires_and_only_lint_allow_suppresses() {
    let src = "pub fn f(d: &[u8]) -> Vec<u8> { d.to_vec() }\n";
    assert_eq!(fired("crates/pcapio/src/lib.rs", src), vec!["no-owned-copy-hotpath"]);
    let marked = "pub fn f(d: &[u8]) -> Vec<u8> { d.to_vec() } // lint: allow(no-owned-copy-hotpath): rewrite seam\n";
    assert!(diags("crates/pcapio/src/lib.rs", marked).is_empty());
    // The pre-lintkit marker is no longer a second syntax.
    let legacy = "pub fn f(d: &[u8]) -> Vec<u8> { d.to_vec() } // owned-fallback: rewrite seam\n";
    assert_eq!(fired("crates/pcapio/src/lib.rs", legacy), vec!["no-owned-copy-hotpath"]);
}

#[test]
fn clone_outside_hot_crates_is_out_of_scope() {
    let src = "pub fn f(d: &[u8]) -> Vec<u8> { d.to_vec() }\n";
    assert!(diags("crates/dns-context/src/lib.rs", src).is_empty());
}

#[test]
fn a_per_lookup_string_in_the_cache_replays_fires() {
    // The batch replays key on interned ids; only the streaming replay,
    // whose rows are dropped behind it, may own a name — and says why.
    let src = "fn f(m: &mut M, q: &String) { m.insert(q.clone(), 0); }\n";
    assert_eq!(fired("crates/cache-sim/src/lib.rs", src), vec!["no-owned-copy-hotpath"]);
    let marked = "fn f(m: &mut M, q: &String) {\n    // lint: allow(no-owned-copy-hotpath): the stream\n    // drops its rows, so the key is owned\n    m.insert(q.clone(), 0);\n}\n";
    assert!(diags("crates/cache-sim/src/lib.rs", marked).is_empty());
    let in_test = "#[cfg(test)]\nmod tests {\n    fn f(q: &String) -> String { q.clone() }\n}\n";
    assert!(diags("crates/cache-sim/src/lib.rs", in_test).is_empty());
    assert!(diags("crates/cache-sim/tests/proptests.rs", src).is_empty());
}

// ---- monitor-stays-borrowed ----------------------------------------------

#[test]
fn owned_decode_and_per_packet_strings_fire_in_the_monitor() {
    let decode = "fn f(p: &[u8]) { let _ = dns_wire::Message::decode(p); }\n";
    let render = "fn f(n: &dns_wire::Name) -> String { n.to_string() }\n";
    let build = "fn f(e: u8) -> String { format!(\"{e:?}\") }\n";
    for file in ["crates/zeek-lite/src/monitor.rs", "crates/zeek-lite/src/tracker.rs"] {
        for src in [decode, render, build] {
            assert_eq!(fired(file, src), vec!["monitor-stays-borrowed"], "{file}: {src}");
        }
    }
    // The view is what the monitor reads through.
    let view = "fn f(p: &[u8]) { let _ = dns_wire::MessageView::parse(p); }\n";
    assert!(diags("crates/zeek-lite/src/monitor.rs", view).is_empty());
}

#[test]
fn an_owned_name_fires_in_the_name_table_and_its_arena_does_not() {
    // A new name is its bytes in the arena; a `String` per name is not.
    let table = "crates/zeek-lite/src/names.rs";
    let owned = "fn intern(&mut self, name: &str) { self.keys.push(name.to_owned()); }\n";
    assert_eq!(fired(table, owned), vec!["monitor-stays-borrowed"]);
    assert_eq!(fired("crates/zeek-lite/src/monitor.rs", owned), vec!["monitor-stays-borrowed"]);
    let arena = "fn intern(&mut self, name: &str) { self.text.push_str(name); }\n";
    assert!(diags(table, arena).is_empty());
}

#[test]
fn the_monitor_fence_exempts_marked_lines_tests_and_other_files() {
    let marked = "fn f(e: u8) -> String {\n    // lint: allow(monitor-stays-borrowed): rejection path\n    format!(\"{e:?}\")\n}\n";
    assert!(diags("crates/zeek-lite/src/monitor.rs", marked).is_empty());
    let in_test = "#[cfg(test)]\nmod tests {\n    fn f(n: u8) -> String { n.to_string() }\n}\n";
    assert!(diags("crates/zeek-lite/src/monitor.rs", in_test).is_empty());
    let render = "fn f(n: u8) -> String { n.to_string() }\n";
    assert!(diags("crates/zeek-lite/src/logfmt.rs", render).is_empty());
    assert!(diags("crates/dns-context/src/stream.rs", render).is_empty());
}

// ---- sim-sink-stays-flat -------------------------------------------------

const SINK: &str = "crates/ccz-sim/src/output.rs";

#[test]
fn owned_frames_and_messages_fire_in_the_packet_sink() {
    // What precedes the impl (the log sink) is not fenced.
    let head = "fn log_side(m: &M) -> Vec<u8> { let mut v = Vec::with_capacity(4); v.extend(m.encode()); v }\n\
                impl Sink for PcapSink {\n";
    for body in [
        "    fn conn(&mut self) { self.push(Frame::tcp()); }\n",
        "    fn dns(&mut self) { let q = dns_wire::Message::query(); }\n",
        "    fn dns(&mut self, e: &E) { let n = Name::parse(e.query); }\n",
        "    fn dns(&mut self, m: &M) { self.arena.extend(m.encode()); }\n",
        "    fn dns(&mut self, p: &[u8]) { self.keep(p.to_vec()); }\n",
        "    fn conn(&mut self, n: usize) { let per = Vec::with_capacity(n); }\n",
    ] {
        let src = format!("{head}{body}}}\n");
        let d = diags(SINK, &src);
        assert_eq!(d.len(), 1, "{src}: {d:?}");
        assert_eq!((d[0].rule.as_str(), d[0].line), ("sim-sink-stays-flat", 3), "{src}");
    }
    // What follows the impl is fenced too.
    let after = format!("{head}}}\nfn split(n: u64) -> Vec<u64> {{ vec![0; n as usize] }}\n");
    assert_eq!(fired(SINK, &after), vec!["sim-sink-stays-flat"]);
    // The writers are what the sink appends through.
    let flat = format!(
        "{head}    fn dns(&mut self) {{ frame::udp(&mut self.arena, |out| MessageWriter::new(out, &mut self.comp).finish()); }}\n}}\n"
    );
    assert!(diags(SINK, &flat).is_empty(), "{:?}", diags(SINK, &flat));
}

#[test]
fn the_sink_fence_needs_its_anchor_and_exempts_marks_tests_and_other_files() {
    let unanchored = "impl Sink for ArenaSink {\n    fn dns(&mut self) {}\n}\n";
    let d = diags(SINK, unanchored);
    assert_eq!(d.len(), 1, "{d:?}");
    assert_eq!((d[0].rule.as_str(), d[0].line), ("sim-sink-stays-flat", 1));
    assert!(d[0].what.contains("impl Sink for PcapSink"));
    let marked = "impl Sink for PcapSink {\n    // lint: allow(sim-sink-stays-flat): once per run\n    fn new() -> Vec<u8> { Vec::with_capacity(64) }\n}\n";
    assert!(diags(SINK, marked).is_empty());
    let in_test = "impl Sink for PcapSink {}\n#[cfg(test)]\nmod tests {\n    fn f() { let _ = Frame::tcp().encode(); }\n}\n";
    assert!(diags(SINK, in_test).is_empty());
    let elsewhere = "impl Sink for PcapSink { fn f() { let _ = Frame::tcp(); } }\n";
    assert!(diags("crates/ccz-sim/src/engine.rs", elsewhere).is_empty());
    assert!(diags("crates/zeek-lite/src/monitor.rs", elsewhere).is_empty());
}

// ---- clock-seam / no-wallclock -----------------------------------------

#[test]
fn instant_now_fires_everywhere_but_xkit() {
    let src = "pub fn f() -> std::time::Instant { std::time::Instant::now() }\n";
    assert_eq!(fired("crates/dns-context/src/lib.rs", src), vec!["clock-seam"]);
    assert!(diags("crates/xkit/src/bench.rs", src).is_empty());
}

#[test]
fn wallclock_fires_outside_the_clock_seam() {
    let src = "pub fn f() { let _ = std::time::SystemTime::now(); }\n";
    assert_eq!(fired("crates/pcapio/src/lib.rs", src), vec!["no-wallclock"]);
    assert!(diags("crates/xkit/src/obs/clock.rs", src).is_empty());
}

// ---- socket-fence / ingest-seam / no-batch-in-stream --------------------

#[test]
fn sockets_fire_outside_the_two_seams() {
    let src = "use std::net::TcpListener;\n";
    assert_eq!(fired("crates/dns-context/src/lib.rs", src), vec!["socket-fence"]);
    assert!(diags("crates/xkit/src/obs/http.rs", src).is_empty());
    // No other file is exempt, a capture backend's included.
    assert_eq!(fired("crates/pcapio/src/raw.rs", src), vec!["socket-fence"]);
}

// ---- thread-spawn-fence --------------------------------------------------

#[test]
fn bare_thread_spawn_fires_outside_the_spawn_seams() {
    let src = "pub fn f() { std::thread::spawn(|| {}); }\n";
    assert_eq!(fired("crates/bench/src/serve.rs", src), vec!["thread-spawn-fence"]);
    assert_eq!(fired("crates/dns-context/src/lib.rs", src), vec!["thread-spawn-fence"]);
    // The two sanctioned seams: the pool substrate and the accept loop.
    assert!(diags("crates/xkit/src/par.rs", src).is_empty());
    assert!(diags("crates/xkit/src/obs/http.rs", src).is_empty());
}

#[test]
fn thread_spawn_in_test_code_is_exempt() {
    let src = "#[cfg(test)]\nmod tests { fn t() { std::thread::spawn(|| {}); } }\n";
    assert!(diags("crates/pcapio/src/ring.rs", src).is_empty());
    assert!(diags("crates/bench/tests/serve_daemon.rs", src).is_empty());
}

#[test]
fn scoped_threads_fire_outside_the_spawn_seams() {
    // Scoped workers are threads too: they belong in a par helper.
    let src = "pub fn f() { std::thread::scope(|s| { s.spawn(|| {}); }); }\n";
    assert_eq!(fired("crates/ccz-sim/src/engine.rs", src), vec!["thread-spawn-fence"]);
    assert!(diags("crates/xkit/src/par.rs", src).is_empty());
    assert!(diags("crates/xkit/src/obs/http.rs", src).is_empty());
}

#[test]
fn thread_builders_fire_outside_the_spawn_seams() {
    let src = "pub fn f() { std::thread::Builder::new().name(n).spawn(|| {}).unwrap(); }\n";
    assert_eq!(fired("crates/bench/src/serve.rs", src), vec!["thread-spawn-fence"]);
    assert!(diags("crates/xkit/src/par.rs", src).is_empty());
    assert!(diags("crates/xkit/src/obs/http.rs", src).is_empty());
}

#[test]
fn pcap_reader_construction_fires_outside_pcapio() {
    let src = "pub fn f(b: &[u8]) { let _ = PcapReader::new(b); }\n";
    assert_eq!(fired("crates/dns-context/src/lib.rs", src), vec!["ingest-seam"]);
    assert!(diags("crates/pcapio/src/source.rs", src).is_empty());
}

#[test]
fn batch_entry_points_fire_only_in_stream_rs() {
    let src = "pub fn f() { Pairing::build(); }\n";
    assert_eq!(fired("crates/dns-context/src/stream.rs", src), vec!["no-batch-in-stream"]);
    assert!(diags("crates/dns-context/src/analysis.rs", src).is_empty());
}

// ---- threshold-rule-fence ------------------------------------------------

#[test]
fn threshold_formula_fields_fire_outside_the_kernel() {
    let src = "pub fn f(r: ThresholdRule) -> f64 { (r.add_ms).max(r.floor_ms) / 1e3 }\n";
    let stream = "crates/dns-context/src/stream.rs";
    assert_eq!(fired(stream, src), vec!["threshold-rule-fence"; 2]);
    assert_eq!(fired("crates/bench/src/bin/repro.rs", src), vec!["threshold-rule-fence"; 2]);
    assert!(diags("crates/dns-context/src/kernel.rs", src).is_empty());
}

#[test]
fn threshold_rule_construction_calls_and_tests_are_exempt() {
    // Setting the knobs in a literal and calling the two methods is the
    // sanctioned use; tests may read the fields to pin the defaults.
    let src = "pub fn f(r: ThresholdRule) -> Duration {\n\
               let r = ThresholdRule { add_ms: 1.0, floor_ms: 3.0, ..r };\n\
               r.threshold(4.0, 9).unwrap_or(r.floor())\n}\n\
               #[cfg(test)]\nmod tests { fn t(r: ThresholdRule) { assert_eq!(r.floor_ms, 5.0); } }\n";
    assert!(diags("crates/dns-context/src/analysis.rs", src).is_empty());
}

// ---- dep-denylist -------------------------------------------------------

/// What keeps `lints-inherit` quiet in a crate manifest fixture.
const INHERITS: &str = "\n[lints]\nworkspace = true\n";

#[test]
fn denied_dependency_fires_in_manifests() {
    let src = format!("[dependencies]\nrand = \"0.8\"\n{INHERITS}");
    let d = diags("crates/demo/Cargo.toml", &src);
    assert_eq!(d.len(), 1);
    assert_eq!(d[0].rule, "dep-denylist");
    assert_eq!(d[0].line, 2);
    assert!(d[0].what.contains("rand"));
}

#[test]
fn denylist_ignores_comments_prefix_words_and_non_manifests() {
    assert!(diags("crates/demo/Cargo.toml", &format!("# rand = \"0.8\"\n{INHERITS}")).is_empty());
    assert!(diags("crates/demo/Cargo.toml", &format!("randomize = \"1\"\n{INHERITS}")).is_empty());
    assert!(diags("crates/demo/Cargo.toml", &format!("parking_lot.workspace = true\n{INHERITS}")).len() == 1);
    assert!(diags("crates/demo/src/lib.rs", "// rand = \"0.8\"\n").is_empty());
}

// ---- lints-inherit ------------------------------------------------------

const MANIFEST: &str = "[package]\nname = \"demo\"\n\n[dependencies]\nxkit = { workspace = true }\n";

#[test]
fn a_crate_manifest_without_the_workspace_lints_fires() {
    let d = diags("crates/demo/Cargo.toml", MANIFEST);
    assert_eq!(d.len(), 1, "{d:?}");
    assert_eq!((d[0].rule.as_str(), d[0].line), ("lints-inherit", 1));
    // `workspace = true` under another table, or a commented-out
    // `[lints]`, is not the inheritance.
    let elsewhere = format!("{MANIFEST}# [lints]\n[lints.rust]\nworkspace = true\n");
    assert_eq!(fired("crates/demo/Cargo.toml", &elsewhere), vec!["lints-inherit"]);
}

#[test]
fn inheriting_manifests_and_other_manifests_are_quiet() {
    let inherits = format!("{MANIFEST}{INHERITS}\n[[test]]\nname = \"t\"\n");
    assert!(diags("crates/demo/Cargo.toml", &inherits).is_empty());
    let spaced = format!("{MANIFEST}[lints] # every crate\nworkspace=true\n");
    assert!(diags("crates/demo/Cargo.toml", &spaced).is_empty());
    // The root manifest defines the table; nested manifests are no crate.
    assert!(diags("Cargo.toml", MANIFEST).is_empty());
    assert!(diags("crates/demo/tests/fixture/Cargo.toml", MANIFEST).is_empty());
}

// ---- no-map-iteration ---------------------------------------------------

#[test]
fn map_method_iteration_fires() {
    let src = "pub fn f(m: &FastMap<u32, u32>) -> Vec<u32> { m.values().copied().collect() }\n";
    let d = diags("crates/dns-context/src/lib.rs", src);
    assert_eq!(d.len(), 1, "{d:?}");
    assert_eq!(d[0].rule, "no-map-iteration");
    assert_eq!(d[0].what, "m.values()");
}

#[test]
fn bare_for_loop_over_a_set_fires() {
    let src = "pub fn f() { let mut s = FastSet::default(); s.insert(1u32);\n\
               for x in &s { use_it(x); } }\n";
    let d = diags("crates/dns-context/src/lib.rs", src);
    assert_eq!(d.len(), 1, "{d:?}");
    assert_eq!(d[0].what, "for … in s");
}

#[test]
fn vec_iteration_and_keyed_lookups_are_fine() {
    let src = "pub fn f(m: &FastMap<u32, u32>, order: &[u32]) -> u32 {\n\
               let mut t = 0; for k in order { t += m.get(k).copied().unwrap_or(0); } t }\n";
    assert!(diags("crates/dns-context/src/lib.rs", src).is_empty());
}

#[test]
fn map_iteration_allow_marker_suppresses() {
    let src = "pub fn f(m: &FastMap<u32, u32>) -> u32 {\n\
               // lint: allow(no-map-iteration): order-insensitive sum\n\
               m.values().sum() }\n";
    assert!(diags("crates/dns-context/src/lib.rs", src).is_empty());
}

// ---- unsafe-needs-safety-comment ----------------------------------------

#[test]
fn unsafe_block_without_rationale_fires() {
    let src = "pub fn f(p: *const u8) -> u8 { unsafe { *p } }\n";
    let d = diags("crates/xkit/src/lib.rs", src);
    assert_eq!(d.len(), 1);
    assert_eq!(d[0].rule, "unsafe-needs-safety-comment");
}

#[test]
fn safety_comment_within_three_lines_covers() {
    let src = "pub fn f(p: *const u8) -> u8 {\n\
               // SAFETY: caller guarantees p is valid for reads.\n\
               unsafe { *p }\n}\n";
    assert!(diags("crates/xkit/src/lib.rs", src).is_empty());
}

#[test]
fn unsafe_fn_declaration_is_exempt_but_unsafe_impl_is_not() {
    let decl = "pub unsafe fn f() {}\n";
    assert!(diags("crates/xkit/src/lib.rs", decl).is_empty());
    let imp = "unsafe impl Send for Thing {}\n";
    assert_eq!(fired("crates/xkit/src/lib.rs", imp), vec!["unsafe-needs-safety-comment"]);
}

// ---- stdout-discipline --------------------------------------------------

#[test]
fn println_in_library_code_fires() {
    let src = "pub fn f() { println!(\"x\"); }\n";
    assert_eq!(fired("crates/dns-context/src/lib.rs", src), vec!["stdout-discipline"]);
}

#[test]
fn eprintln_and_bin_targets_are_fine() {
    assert!(diags("crates/dns-context/src/lib.rs", "pub fn f() { eprintln!(\"x\"); }\n").is_empty());
    assert!(diags("crates/bench/src/bin/repro.rs", "pub fn f() { println!(\"x\"); }\n").is_empty());
}

// ---- unused-pub ------------------------------------------------------------

/// What `unused-pub` reports, as `file: what`, on a throwaway workspace
/// holding `files`. It is the one workspace-wide pass, so the fixtures
/// go through the walk.
fn unused_pub(tag: &str, files: &[(&str, &str)]) -> Vec<String> {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../target")
        .join(format!("lintkit_unused_pub_{tag}_{}", std::process::id()));
    for (path, src) in files {
        let file = root.join(path);
        std::fs::create_dir_all(file.parent().expect("fixture paths have a directory"))
            .expect("mkdir");
        std::fs::write(file, src).expect("write fixture");
    }
    let report = lintkit::lint_workspace(&root, Some("unused-pub")).expect("fixture tree lints");
    std::fs::remove_dir_all(&root).ok();
    report.diagnostics.iter().map(|d| format!("{}: {}", d.file, d.what)).collect()
}

#[test]
fn unused_pub_fires_on_an_orphan_and_on_a_pub_only_its_own_file_uses() {
    let lib = "pub fn orphan() {}\npub fn helper() {}\npub fn entry() { helper() }\n";
    let got = unused_pub("orphan", &[("crates/a/src/lib.rs", lib)]);
    let want = [
        "crates/a/src/lib.rs: unused pub fn `orphan`",
        "crates/a/src/lib.rs: unused pub fn `helper`",
        "crates/a/src/lib.rs: unused pub fn `entry`",
    ];
    assert_eq!(got, want);
    let d = lint_file("crates/a/src/lib.rs", lib, None);
    assert!(d.is_empty(), "a single file cannot know: {d:?}");
}

#[test]
fn unused_pub_counts_another_src_and_the_ladder_but_not_an_example() {
    let lib = "pub fn by_crate() {}\npub fn by_example() {}\npub const BY_LADDER: u8 = 1;\n";
    let got = unused_pub(
        "used",
        &[
            ("crates/a/src/lib.rs", lib),
            ("crates/b/src/lib.rs", "fn f() { a::by_crate() }\n"),
            ("examples/demo.rs", "fn main() { a::by_example() }\n"),
            ("benchmark/src/main.rs", "fn main() { let _ = a::BY_LADDER; }\n"),
        ],
    );
    assert_eq!(got, ["crates/a/src/lib.rs: unused pub fn `by_example`"]);
}

#[test]
fn unused_pub_still_fires_when_only_tests_or_a_re_export_name_it() {
    let lib = "pub fn by_test_dir() {}\npub fn by_unit_test() {}\npub fn re_exported() {}\n\
               #[cfg(test)]\nmod tests { #[test] fn t() { super::by_unit_test() } }\n";
    let got = unused_pub(
        "tests",
        &[
            ("crates/a/src/imp.rs", lib),
            ("crates/a/src/lib.rs", "mod imp;\npub use imp::re_exported;\n"),
            ("crates/a/tests/it.rs", "#[test] fn t() { a::by_test_dir() }\n"),
            ("tests/root.rs", "#[test] fn t() { a::by_test_dir() }\n"),
        ],
    );
    let want = [
        "crates/a/src/imp.rs: unused pub fn `by_test_dir`",
        "crates/a/src/imp.rs: unused pub fn `by_unit_test`",
        "crates/a/src/imp.rs: unused pub fn `re_exported`",
    ];
    assert_eq!(got, want);
}

#[test]
fn unused_pub_types_count_any_naming_but_their_own_definition_and_impl_headers() {
    let lib = "pub struct Lonely;\nimpl Lonely { fn new() -> Self { Self } }\n\
               impl Default for Lonely { fn default() -> Self { Self::new() } }\n\
               pub struct Returned;\npub fn make() -> Returned { Returned }\n\
               mod nr { pub const SYSCALL: usize = 41; }\npub(crate) fn inner() {}\n";
    let got = unused_pub(
        "types",
        &[("crates/a/src/lib.rs", lib), ("crates/b/src/lib.rs", "fn f() { a::make(); }\n")],
    );
    assert_eq!(got, ["crates/a/src/lib.rs: unused pub struct `Lonely`"]);
}

#[test]
fn unused_pub_a_type_path_is_no_use_of_a_module_level_fn() {
    let lib = "pub fn process() {}\npub struct Thing;\nimpl Thing { pub fn process() {} }\n";
    let user = "fn f() { a::Thing::process(); }\nimpl a::Thing { fn g() { Self::process() } }\n";
    let got = unused_pub("typepath", &[("crates/a/src/lib.rs", lib), ("crates/b/src/lib.rs", user)]);
    assert_eq!(got, ["crates/a/src/lib.rs: unused pub fn `process`"]);
    // A call through a module path still reaches the free function.
    let user = "fn f() { a::process(); a::Thing::process(); }\n";
    let got = unused_pub("modpath", &[("crates/a/src/lib.rs", lib), ("crates/b/src/lib.rs", user)]);
    assert!(got.is_empty(), "{got:?}");
}

#[test]
fn unused_pub_allow_marker_is_honoured() {
    let lib = "/// Docs.\n// lint: allow(unused-pub): the next roadmap item needs it\n\
               pub fn kept() {}\npub fn dropped() {}\n";
    let got = unused_pub("allow", &[("crates/a/src/lib.rs", lib)]);
    assert_eq!(got, ["crates/a/src/lib.rs: unused pub fn `dropped`"]);
}

// ---- verify-shell-discipline --------------------------------------------

#[test]
fn awk_and_source_greps_fire_in_verify_sh() {
    let d = diags("scripts/verify.sh", "awk '/x/ { print }' file.rs\n");
    assert_eq!(d.len(), 1);
    assert_eq!(d[0].rule, "verify-shell-discipline");
    let d = diags("scripts/verify.sh", "grep -rn pat crates --include='*.rs'\n");
    assert_eq!(d.len(), 1);
    let d = diags("scripts/verify.sh", "find crates -name '*.rs' -exec cat {} +\n");
    assert_eq!(d.len(), 1);
}

#[test]
fn shell_scan_allows_markers_json_greps_and_other_scripts() {
    let marked = "# lint: allow(verify-shell-discipline): float gate\nawk 'BEGIN { exit (1 < 2) ? 0 : 1 }'\n";
    assert!(diags("scripts/verify.sh", marked).is_empty());
    assert!(diags("scripts/verify.sh", "grep -q '\"ok\":true' out.json\n").is_empty());
    assert!(diags("scripts/setup.sh", "awk '{ print }' notes.txt\n").is_empty());
}

// ---- engine-level behaviour ---------------------------------------------

#[test]
fn single_rule_filter_restricts_output() {
    let src = "pub fn f(x: Option<u8>) { x.unwrap(); println!(\"x\"); }\n";
    let all = lint_file("crates/netpkt/src/lib.rs", src, None);
    assert_eq!(all.len(), 2);
    let only = lint_file("crates/netpkt/src/lib.rs", src, Some("stdout-discipline"));
    assert_eq!(only.len(), 1);
    assert_eq!(only[0].rule, "stdout-discipline");
}

#[test]
fn diagnostics_sort_by_position_then_rule() {
    let src = "pub fn f(x: Option<u8>) { println!(\"a\"); x.unwrap(); }\n";
    let d = diags("crates/netpkt/src/lib.rs", src);
    assert_eq!(d.len(), 2);
    assert!(d[0].col < d[1].col);
}

#[test]
fn report_json_is_canonical_and_parses_back() {
    let report = lintkit::Report {
        diagnostics: diags("crates/netpkt/src/lib.rs", "pub fn f(x: Option<u8>) { x.unwrap(); }\n"),
        files_checked: 1,
    };
    let doc = report.to_json();
    let v = xkit::obs::json::parse(&doc).expect("canonical JSON parses back");
    assert_eq!(v.get("tool").and_then(|t| t.as_str()), Some("lintkit"));
    assert!(matches!(v.get("ok"), Some(xkit::obs::json::Value::Bool(false))));
    let counts = v.get("counts").expect("counts object");
    assert_eq!(counts.get("no-unwrap-parse").and_then(|n| n.as_f64()), Some(1.0));
    let rules = v.get("rules").and_then(|r| r.as_arr()).expect("rules array");
    assert_eq!(rules.len(), lintkit::rules::rules().len());
}

#[test]
fn the_workspace_itself_is_clean() {
    // The self-check behind `repro lint` in verify.sh: the real tree has
    // zero violations (every sanctioned exception carries its marker).
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = lintkit::lint_workspace(&root, None).expect("workspace lints");
    assert!(report.ok(), "workspace must lint clean:\n{}", report.render_human());
    assert!(report.files_checked > 50, "walk found {} files", report.files_checked);
}

#[test]
fn unused_pub_allowances_stay_few() {
    // "Keep it deleted": a marker is for an item the roadmap needs next or
    // an integration test pins, not a way to keep surface nobody uses.
    fn count(dir: &std::path::Path, marker: &str) -> usize {
        std::fs::read_dir(dir).expect("readable source tree").flatten().fold(0, |n, entry| {
            let path = entry.path();
            if path.is_dir() {
                n + count(&path, marker)
            } else {
                let src = std::fs::read_to_string(&path).unwrap_or_default();
                n + src.lines().filter(|l| l.trim_start().starts_with(marker)).count()
            }
        })
    }
    let crates = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let n = count(&crates, "// lint: allow(unused-pub):");
    assert!(n <= 11, "{n} unused-pub allow markers in crates/ (at most 11)");
}
