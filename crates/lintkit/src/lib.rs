//! lintkit — the workspace's source-level invariants as tested code.
//!
//! A zero-dependency static-analysis engine that replaces the awk/grep
//! deny-lists `scripts/verify.sh` used to carry. A hand-written Rust
//! lexer ([`lexer::Lexed`]) classifies every byte of a source file as
//! code, comment, or literal — with nested block comments, raw strings,
//! and char-vs-lifetime disambiguation — and resolves `#[cfg(test)]`
//! scoping by actual brace extent, so a test module mid-file no longer
//! exempts everything after it (the old first-match awk bug). Rules
//! ([`rules::rules`]) are declarative: an id, a path scope, a matcher,
//! and a fix hint. Diagnostics are span-accurate (`file:line:col`) and
//! render both human-readable and as one canonical JSON document that
//! parses back through `xkit::obs::json`.
//!
//! Inline allowlisting: a comment on the flagged line containing
//! `lint: allow(<rule-id>)` suppresses that rule there.
//!
//! Entry points: [`lint_workspace`] walks a workspace root;
//! [`lint_file`] checks one in-memory file against the per-file rules
//! (the fixture tests use it).

#![forbid(unsafe_code)]

pub mod lexer;
pub mod rules;

use lexer::Lexed;
use rules::{Check, Rule};
use std::path::{Path, PathBuf};
use xkit::obs::json::Value;

/// One rule violation, anchored to a source span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule id (see [`rules::rules`]).
    pub rule: String,
    /// Workspace-relative path, forward slashes.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based byte column.
    pub col: usize,
    /// What matched (needle or short description).
    pub what: String,
    /// The offending line, trimmed.
    pub excerpt: String,
    /// How to fix it.
    pub hint: String,
}

/// The result of a lint run.
pub struct Report {
    /// All violations, sorted by (file, line, col, rule).
    pub diagnostics: Vec<Diagnostic>,
    /// Number of files scanned.
    pub files_checked: usize,
}

impl Report {
    /// Whether the run is clean.
    pub fn ok(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Human-readable rendering, one block per diagnostic plus a
    /// summary line.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&format!(
                "{}:{}:{}: [{}] {}\n    {}\n    hint: {}\n",
                d.file, d.line, d.col, d.rule, d.what, d.excerpt, d.hint
            ));
        }
        if self.ok() {
            out.push_str(&format!("lint: clean ({} files checked)\n", self.files_checked));
        } else {
            out.push_str(&format!(
                "lint: {} violation(s) across {} file(s) ({} files checked)\n",
                self.diagnostics.len(),
                {
                    let mut files: Vec<&str> =
                        self.diagnostics.iter().map(|d| d.file.as_str()).collect();
                    files.dedup();
                    files.len()
                },
                self.files_checked
            ));
        }
        out
    }

    /// One canonical JSON document (parses back via `xkit::obs::json`).
    pub fn to_json(&self) -> String {
        let rule_table: Vec<Value> = rules::rules()
            .iter()
            .map(|r| {
                Value::Obj(vec![
                    ("id".into(), Value::Str(r.id.into())),
                    ("desc".into(), Value::Str(r.desc.into())),
                ])
            })
            .collect();
        let diags: Vec<Value> = self
            .diagnostics
            .iter()
            .map(|d| {
                Value::Obj(vec![
                    ("rule".into(), Value::Str(d.rule.clone())),
                    ("file".into(), Value::Str(d.file.clone())),
                    ("line".into(), Value::Num(d.line as f64)),
                    ("col".into(), Value::Num(d.col as f64)),
                    ("what".into(), Value::Str(d.what.clone())),
                    ("excerpt".into(), Value::Str(d.excerpt.clone())),
                    ("hint".into(), Value::Str(d.hint.clone())),
                ])
            })
            .collect();
        let counts: Vec<(String, Value)> = rules::rules()
            .iter()
            .map(|r| {
                let n = self.diagnostics.iter().filter(|d| d.rule == r.id).count();
                (r.id.to_string(), Value::Num(n as f64))
            })
            .collect();
        Value::Obj(vec![
            ("tool".into(), Value::Str("lintkit".into())),
            ("ok".into(), Value::Bool(self.ok())),
            ("files_checked".into(), Value::Num(self.files_checked as f64)),
            ("rules".into(), Value::Arr(rule_table)),
            ("counts".into(), Value::Obj(counts)),
            ("diagnostics".into(), Value::Arr(diags)),
        ])
        .render()
    }
}

/// Does `path` fall inside `rule`'s scope?
fn in_scope(rule: &Rule, path: &str) -> bool {
    let wanted_ext = match rule.check {
        Check::DepDenylist(_) => path == "Cargo.toml" || path.ends_with("/Cargo.toml"),
        Check::LintsInherit => path.ends_with("/Cargo.toml") && path.split('/').count() == 3,
        Check::ShellScan => path.ends_with(".sh"),
        _ => path.ends_with(".rs"),
    };
    if !wanted_ext {
        return false;
    }
    let rooted = rule
        .scope
        .roots
        .iter()
        .any(|r| path == *r || path.starts_with(&format!("{r}/")));
    if !rooted {
        return false;
    }
    if rule.scope.exclude.iter().any(|e| path == *e || path.starts_with(e)) {
        return false;
    }
    if rule.scope.src_only && !path.contains("/src/") {
        return false;
    }
    if !rule.scope.include_tests && (path.starts_with("tests/") || path.contains("/tests/")) {
        return false;
    }
    true
}

/// Lint one in-memory file under its workspace-relative path. Pass
/// `only` to restrict to a single rule id.
// lint: allow(unused-pub): crates/lintkit/tests/fixtures.rs checks each per-file rule on one snippet through it
pub fn lint_file(path: &str, src: &str, only: Option<&str>) -> Vec<Diagnostic> {
    let all = rules::rules();
    let active: Vec<&Rule> = all
        .iter()
        .filter(|r| only.is_none_or(|id| id == r.id))
        .filter(|r| in_scope(r, path))
        .collect();
    if active.is_empty() {
        return Vec::new();
    }

    let mut out = Vec::new();
    // Non-Rust checks work on raw lines; Rust checks share one lex.
    let needs_lex = active
        .iter()
        .any(|r| {
            matches!(
                r.check,
                Check::Needles(_) | Check::NeedlesFrom { .. } | Check::MapIteration | Check::UnsafeSafety
            )
        });
    let lexed = if needs_lex { Some(Lexed::lex(src)) } else { None };

    for rule in active {
        match &rule.check {
            Check::Needles(needles) => {
                let lexed = lexed.as_ref().expect("lexed");
                for hit in rules::needle_hits(lexed, needles) {
                    push_rust_hit(&mut out, rule, lexed, path, hit.at, hit.what);
                }
            }
            Check::NeedlesFrom { anchor, needles } => {
                let lexed = lexed.as_ref().expect("lexed");
                for hit in rules::needle_hits_from(lexed, anchor, needles) {
                    push_rust_hit(&mut out, rule, lexed, path, hit.at, hit.what);
                }
            }
            Check::MapIteration => {
                let lexed = lexed.as_ref().expect("lexed");
                for hit in rules::map_iteration_hits(lexed) {
                    push_rust_hit(&mut out, rule, lexed, path, hit.at, hit.what);
                }
            }
            Check::UnsafeSafety => {
                let lexed = lexed.as_ref().expect("lexed");
                for hit in rules::unsafe_safety_hits(lexed) {
                    push_rust_hit(&mut out, rule, lexed, path, hit.at, hit.what);
                }
            }
            Check::DepDenylist(denied) => {
                for (off, what) in rules::dep_denylist_hits(src, denied) {
                    push_line_hit(&mut out, rule, src, path, off, what);
                }
            }
            Check::LintsInherit => {
                for (off, what) in rules::lints_inherit_hits(src) {
                    push_line_hit(&mut out, rule, src, path, off, what);
                }
            }
            Check::ShellScan => {
                for (off, what) in rules::shell_scan_hits(src) {
                    push_line_hit(&mut out, rule, src, path, off, what);
                }
            }
            // Needs every file: `lint_workspace` runs it.
            Check::UnusedPub => {}
        }
    }
    sort_diagnostics(&mut out);
    out
}

/// Lint a set of `(workspace-relative path, source)` files: every
/// per-file rule on each, then the workspace-wide `unused-pub` pass over
/// all of them together.
fn lint_files(files: &[(&str, &str)], only: Option<&str>) -> Vec<Diagnostic> {
    let mut out: Vec<Diagnostic> =
        files.iter().flat_map(|(path, src)| lint_file(path, src, only)).collect();
    let workspace_pass = rules::rules()
        .into_iter()
        .find(|r| matches!(r.check, Check::UnusedPub) && only.is_none_or(|id| id == r.id));
    if let Some(rule) = workspace_pass {
        let scoped: Vec<(&str, Lexed<'_>)> = files
            .iter()
            .filter(|(path, _)| in_scope(&rule, path))
            .map(|(path, src)| (*path, Lexed::lex(src)))
            .collect();
        for (file, hit) in rules::unused_pub_hits(&scoped) {
            let (path, lexed) = &scoped[file];
            push_rust_hit(&mut out, &rule, lexed, path, hit.at, hit.what);
        }
    }
    sort_diagnostics(&mut out);
    out
}

fn sort_diagnostics(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| {
        (&a.file, a.line, a.col, &a.rule).cmp(&(&b.file, b.line, b.col, &b.rule))
    });
}

/// Append a hit from a lexed Rust file, applying test-scope and
/// allow-marker suppression.
fn push_rust_hit(
    out: &mut Vec<Diagnostic>,
    rule: &Rule,
    lexed: &Lexed<'_>,
    path: &str,
    at: usize,
    what: String,
) {
    if !rule.scope.include_tests && lexed.in_test(at) {
        return;
    }
    let (line, col) = lexed.line_col(at);
    // A marker suppresses the flagged line when it sits in a comment on
    // that line, or anywhere in the contiguous comment block directly
    // above it.
    let suppressed = |marker: &str| {
        if lexed.line_has_marker(line, marker) {
            return true;
        }
        let mut l = line;
        while l > 1 && lexed.line_text(l - 1).trim_start().starts_with("//") {
            l -= 1;
            if lexed.line_has_marker(l, marker) {
                return true;
            }
        }
        false
    };
    let allow = format!("lint: allow({})", rule.id);
    if suppressed(&allow) {
        return;
    }
    out.push(Diagnostic {
        rule: rule.id.to_string(),
        file: path.to_string(),
        line,
        col,
        what,
        excerpt: excerpt(lexed.line_text(line)),
        hint: rule.hint.to_string(),
    });
}

/// Append a hit from a raw-line check (TOML / shell), where the allow
/// marker may appear anywhere on the line.
fn push_line_hit(
    out: &mut Vec<Diagnostic>,
    rule: &Rule,
    src: &str,
    path: &str,
    off: usize,
    what: String,
) {
    let line = src[..off].bytes().filter(|b| *b == b'\n').count() + 1;
    let line_start = src[..off].rfind('\n').map(|p| p + 1).unwrap_or(0);
    let line_text = src[line_start..].lines().next().unwrap_or("");
    // For line-based files the allow marker may sit on the flagged line
    // or on its own line directly above (shell can't always carry a
    // trailing comment mid-command).
    let prev_text = src[..line_start.saturating_sub(1)]
        .rfind('\n')
        .map(|p| &src[p + 1..line_start.saturating_sub(1)])
        .unwrap_or(&src[..line_start.saturating_sub(1)]);
    let allow = format!("lint: allow({})", rule.id);
    if line_text.contains(&allow) || prev_text.contains(&allow) {
        return;
    }
    out.push(Diagnostic {
        rule: rule.id.to_string(),
        file: path.to_string(),
        line,
        col: off - line_start + 1,
        what,
        excerpt: excerpt(line_text),
        hint: rule.hint.to_string(),
    });
}

fn excerpt(line: &str) -> String {
    let t = line.trim();
    if t.len() > 160 {
        let mut end = 160;
        while !t.is_char_boundary(end) {
            end -= 1;
        }
        format!("{}…", &t[..end])
    } else {
        t.to_string()
    }
}

/// Lint a workspace: walks `crates/`, `tests/`, `scripts/`,
/// `benchmark/src/` and the root `Cargo.toml` under `root`, applies every
/// rule (or just `only`), and returns the sorted report. IO problems are
/// errors, not diagnostics.
pub fn lint_workspace(root: &Path, only: Option<&str>) -> Result<Report, String> {
    if let Some(id) = only {
        if !rules::rules().iter().any(|r| r.id == id) {
            let known: Vec<&str> = rules::rules().iter().map(|r| r.id).collect();
            return Err(format!("unknown rule `{id}` (known: {})", known.join(", ")));
        }
    }
    let mut files: Vec<PathBuf> = Vec::new();
    for top in ["crates", "tests", "scripts", "benchmark/src"] {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(&dir, &mut files)?;
        }
    }
    let root_manifest = root.join("Cargo.toml");
    if root_manifest.is_file() {
        files.push(root_manifest);
    }

    let mut rels: Vec<(String, PathBuf)> = files
        .into_iter()
        .filter_map(|p| {
            let rel = p.strip_prefix(root).ok()?.to_string_lossy().replace('\\', "/");
            Some((rel, p))
        })
        .collect();
    rels.sort();

    let mut sources: Vec<(&str, String)> = Vec::new();
    for (rel, path) in &rels {
        let relevant = rules::rules()
            .iter()
            .filter(|r| only.is_none_or(|id| id == r.id))
            .any(|r| in_scope(r, rel));
        if !relevant {
            continue;
        }
        let src = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        sources.push((rel, src));
    }
    let files: Vec<(&str, &str)> = sources.iter().map(|(rel, src)| (*rel, src.as_str())).collect();
    Ok(Report { diagnostics: lint_files(&files, only), files_checked: files.len() })
}

/// Recursive, sorted directory walk; skips build and VCS trees.
fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read dir {}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for entry in entries {
        let name = entry.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if name.starts_with('.') || name == "target" {
            continue;
        }
        if entry.is_dir() {
            walk(&entry, out)?;
        } else if name.ends_with(".rs") || name == "Cargo.toml" || name.ends_with(".sh") {
            out.push(entry);
        }
    }
    Ok(())
}
