//! The incremental lint cache: per-file phase-1 analyses keyed by content
//! digest, so a warm `repro lint` over an unchanged workspace re-lexes
//! nothing.
//!
//! ## What is cached, and why it's sound
//!
//! Only phase 1 ([`crate::engine::FileAnalysis`]) is cached: raw local
//! findings, directives, and call-graph facts — all pre-suppression, all
//! functions of a single file's bytes plus the config. Phase 2 (the graph
//! pass and suppression judgement) always runs fresh over the full fact
//! set, because its output depends on *other* files. A cached run and a
//! cold run therefore produce byte-identical diagnostics — CI asserts
//! exactly that.
//!
//! ## Invalidation
//!
//! The header carries [`RULES_VERSION`] and a config fingerprint (the
//! workspace `Digest` over a canonical rendering of every scope list).
//! Either changing discards the whole cache. Per entry, the key is the
//! file's content digest (`simcore::store`'s FNV-1a pair, the same
//! primitive the sweep store uses for content addressing): any edit
//! misses, and the store is rebuilt from the current file set on every
//! run so entries for deleted files age out immediately.
//!
//! ## Format
//!
//! A line-oriented text file. Free-text fields (diagnostic messages,
//! allocation descriptions, paths) are JSON-escaped and always last on
//! their line; everything else is space-separated fixed fields. Any parse
//! anomaly discards the whole cache — it is a cache, not a database.

use crate::diag::{json_escape, Diagnostic, RuleId, Severity};
use crate::engine::{Config, Directive, FileAnalysis};
use crate::graph::{AllocFact, CallFact, CallKind, DiscardFact, EventDef, FileFacts, FnFact};
use std::collections::BTreeMap;
use std::path::Path;

/// Bumped whenever rule semantics, fact extraction, or this format
/// change: a version mismatch discards the cache wholesale.
pub const RULES_VERSION: &str = "simlint-v2.0";

/// Fingerprint of everything that affects phase-1 output besides the file
/// bytes: the rules version and every config scope knob.
pub fn fingerprint(cfg: &Config) -> String {
    let mut canon = String::new();
    canon.push_str(RULES_VERSION);
    let mut section = |name: &str, items: &[String]| {
        canon.push('\x1f');
        canon.push_str(name);
        for it in items {
            canon.push('\x1e');
            canon.push_str(it);
        }
    };
    section("panic", &cfg.panic_scope);
    section("float", &cfg.float_scope);
    section("cast", &cfg.cast_scope);
    section("taint", &cfg.taint_scope);
    section("result", &cfg.result_scope);
    section("event", &cfg.event_construct_scope);
    section("trace_def", std::slice::from_ref(&cfg.trace_def_path));
    section("det_allow", &cfg.determinism_allow);
    simcore::store::Digest::of(canon.as_bytes()).hex()
}

/// The cache store: `rel → (content digest, analysis)`.
#[derive(Default)]
pub struct Cache {
    fingerprint: String,
    entries: BTreeMap<String, (String, FileAnalysis)>,
}

impl Cache {
    /// Load from `path`; any miss, version/fingerprint mismatch, or parse
    /// anomaly yields an empty cache (a cold run, never an error).
    pub fn load(path: &Path, fingerprint: &str) -> Cache {
        let Ok(text) = std::fs::read_to_string(path) else {
            return Cache { fingerprint: fingerprint.to_string(), entries: BTreeMap::new() };
        };
        parse(&text, fingerprint).unwrap_or_else(|| Cache {
            fingerprint: fingerprint.to_string(),
            entries: BTreeMap::new(),
        })
    }

    /// The cached analysis for `rel`, if its content digest still matches.
    pub fn get(&self, rel: &str, digest: &str) -> Option<&FileAnalysis> {
        let (d, a) = self.entries.get(rel)?;
        (d == digest).then_some(a)
    }

    /// A store of the current run: one entry per analysis (`digests` is
    /// parallel to `analyses`).
    pub fn build(fingerprint: &str, analyses: &[FileAnalysis], digests: &[String]) -> Cache {
        let mut entries = BTreeMap::new();
        for (a, d) in analyses.iter().zip(digests) {
            entries.insert(a.rel.clone(), (d.clone(), a.clone()));
        }
        Cache { fingerprint: fingerprint.to_string(), entries }
    }

    /// Atomically persist: write a sibling temp file, then rename over.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::new();
        out.push_str(&format!("simlint-cache {} {}\n", RULES_VERSION, self.fingerprint));
        for (rel, (digest, a)) in &self.entries {
            render_entry(&mut out, rel, digest, a);
        }
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, out)?;
        std::fs::rename(&tmp, path)
    }
}

fn render_entry(out: &mut String, rel: &str, digest: &str, a: &FileAnalysis) {
    out.push_str(&format!("file {} {}\n", digest, json_escape(rel)));
    for d in &a.local_diags {
        let sev = if d.severity == Severity::Error { 'E' } else { 'W' };
        out.push_str(&format!(
            "d {} {} {} {} {}\n",
            d.rule.id(),
            sev,
            d.line,
            d.col,
            json_escape(&d.message)
        ));
    }
    for v in &a.directives {
        let slugs: Vec<&str> = v.rules.iter().map(|r| r.slug()).collect();
        out.push_str(&format!("v {} {} {} {}\n", v.target, v.line, v.col, slugs.join(",")));
    }
    for f in &a.facts.fns {
        let mut flags = String::new();
        if f.is_test {
            flags.push('t');
        }
        if f.hot_root {
            flags.push('h');
        }
        if f.cold {
            flags.push('c');
        }
        if f.returns_result {
            flags.push('r');
        }
        if flags.is_empty() {
            flags.push('-');
        }
        out.push_str(&format!(
            "fn {} {} {} {} {} {}\n",
            f.line,
            f.col,
            flags,
            f.owner.as_deref().unwrap_or("-"),
            f.taint.as_deref().unwrap_or("-"),
            f.name
        ));
        for c in &f.calls {
            render_call(out, 'c', c.kind.tag(), c.line, c.col, &c.callee, &c.kind);
        }
        for x in &f.discards {
            render_call(out, 'x', x.kind.tag(), x.line, x.col, &x.callee, &x.kind);
        }
        for al in &f.allocs {
            out.push_str(&format!("a {} {} {}\n", al.line, al.col, json_escape(&al.what)));
        }
    }
    for e in &a.facts.events {
        out.push_str(&format!("e {} {} {}\n", e.line, e.col, e.name));
    }
    for u in &a.facts.event_uses {
        out.push_str(&format!("u {u}\n"));
    }
    out.push_str("end\n");
}

fn render_call(out: &mut String, rec: char, tag: char, line: u32, col: u32, callee: &str, kind: &CallKind) {
    match kind {
        CallKind::Qualified(q) => {
            out.push_str(&format!("{rec} {tag} {line} {col} {callee} {q}\n"))
        }
        _ => out.push_str(&format!("{rec} {tag} {line} {col} {callee}\n")),
    }
}

/// Undo [`json_escape`]. Cache files are machine-written; garbage in a
/// sequence decodes permissively (the digest key bounds the blast radius).
fn json_unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut it = s.chars();
    while let Some(c) = it.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match it.next() {
            Some('n') => out.push('\n'),
            Some('t') => out.push('\t'),
            Some('r') => out.push('\r'),
            Some('u') => {
                let hex: String = it.by_ref().take(4).collect();
                if let Some(ch) = u32::from_str_radix(&hex, 16).ok().and_then(char::from_u32) {
                    out.push(ch);
                }
            }
            Some(other) => out.push(other),
            None => {}
        }
    }
    out
}

fn parse(text: &str, want_fingerprint: &str) -> Option<Cache> {
    let mut lines = text.lines();
    let header = lines.next()?;
    let mut h = header.split(' ');
    if h.next()? != "simlint-cache"
        || h.next()? != RULES_VERSION
        || h.next()? != want_fingerprint
        || h.next().is_some()
    {
        return None;
    }

    let mut entries = BTreeMap::new();
    let mut cur: Option<(String, String, FileAnalysis)> = None;
    for line in lines {
        let mut w = line.splitn(2, ' ');
        let rec = w.next()?;
        let rest = w.next().unwrap_or("");
        match rec {
            "file" => {
                if cur.is_some() {
                    return None; // previous entry missing its `end`
                }
                let (digest, rel) = rest.split_once(' ')?;
                let rel = json_unescape(rel);
                cur = Some((
                    rel.clone(),
                    digest.to_string(),
                    FileAnalysis {
                        rel,
                        local_diags: Vec::new(),
                        directives: Vec::new(),
                        facts: FileFacts::default(),
                    },
                ));
            }
            "end" => {
                let (rel, digest, a) = cur.take()?;
                entries.insert(rel, (digest, a));
            }
            "d" => {
                let a = &mut cur.as_mut()?.2;
                let mut f = rest.splitn(5, ' ');
                let rule = RuleId::from_name(f.next()?)?;
                let sev = match f.next()? {
                    "E" => Severity::Error,
                    "W" => Severity::Warning,
                    _ => return None,
                };
                let line_no: u32 = f.next()?.parse().ok()?;
                let col: u32 = f.next()?.parse().ok()?;
                let message = json_unescape(f.next().unwrap_or(""));
                a.local_diags.push(Diagnostic {
                    rule,
                    severity: sev,
                    file: a.rel.clone(),
                    line: line_no,
                    col,
                    message,
                });
            }
            "v" => {
                let a = &mut cur.as_mut()?.2;
                let mut f = rest.split(' ');
                let target: u32 = f.next()?.parse().ok()?;
                let line_no: u32 = f.next()?.parse().ok()?;
                let col: u32 = f.next()?.parse().ok()?;
                let mut rules = Vec::new();
                for name in f.next()?.split(',') {
                    rules.push(RuleId::from_name(name)?);
                }
                a.directives.push(Directive { target, rules, line: line_no, col });
            }
            "fn" => {
                let a = &mut cur.as_mut()?.2;
                let mut f = rest.split(' ');
                let line_no: u32 = f.next()?.parse().ok()?;
                let col: u32 = f.next()?.parse().ok()?;
                let flags = f.next()?;
                let owner = match f.next()? {
                    "-" => None,
                    o => Some(o.to_string()),
                };
                let taint = match f.next()? {
                    "-" => None,
                    t => Some(t.to_string()),
                };
                let name = f.next()?.to_string();
                a.facts.fns.push(FnFact {
                    name,
                    owner,
                    line: line_no,
                    col,
                    is_test: flags.contains('t'),
                    returns_result: flags.contains('r'),
                    hot_root: flags.contains('h'),
                    cold: flags.contains('c'),
                    taint,
                    calls: Vec::new(),
                    allocs: Vec::new(),
                    discards: Vec::new(),
                });
            }
            "c" | "x" => {
                let a = &mut cur.as_mut()?.2;
                let mut f = rest.split(' ');
                let tag = f.next()?;
                let line_no: u32 = f.next()?.parse().ok()?;
                let col: u32 = f.next()?.parse().ok()?;
                let callee = f.next()?.to_string();
                let kind = match tag {
                    "F" => CallKind::Free,
                    "M" => CallKind::Method,
                    "Q" => CallKind::Qualified(f.next()?.to_string()),
                    _ => return None,
                };
                let fun = a.facts.fns.last_mut()?;
                if rec == "c" {
                    fun.calls.push(CallFact { kind, callee, line: line_no, col });
                } else {
                    fun.discards.push(DiscardFact { kind, callee, line: line_no, col });
                }
            }
            "a" => {
                let a = &mut cur.as_mut()?.2;
                let mut f = rest.splitn(3, ' ');
                let line_no: u32 = f.next()?.parse().ok()?;
                let col: u32 = f.next()?.parse().ok()?;
                let what = json_unescape(f.next().unwrap_or(""));
                a.facts.fns.last_mut()?.allocs.push(AllocFact { line: line_no, col, what });
            }
            "e" => {
                let a = &mut cur.as_mut()?.2;
                let mut f = rest.split(' ');
                let line_no: u32 = f.next()?.parse().ok()?;
                let col: u32 = f.next()?.parse().ok()?;
                let name = f.next()?.to_string();
                a.facts.events.push(EventDef { name, line: line_no, col });
            }
            "u" => {
                cur.as_mut()?.2.facts.event_uses.push(rest.to_string());
            }
            _ => return None,
        }
    }
    if cur.is_some() {
        return None; // truncated final entry
    }
    Some(Cache { fingerprint: want_fingerprint.to_string(), entries })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine;

    fn sample_analysis() -> FileAnalysis {
        let cfg = Config::everything("/");
        let src = "\
// simlint: hot-root
pub fn pump() -> Result<(), String> {
    process::step(); // simlint: allow(hot-path-alloc): fixture \"quote\" test
    Ok(())
}
fn weird() { let v: Vec<u8> = x.collect(); }
pub enum Event { Send, Probe }
fn emit() -> Event { Event::Send }
fn clock() { let t = Instant::now(); }
";
        engine::analyze_rust(&cfg, "crates/x/src/lib.rs", src)
    }

    #[test]
    fn round_trip_preserves_analysis_exactly() {
        let a = sample_analysis();
        let cache = Cache::build("fp", std::slice::from_ref(&a), &["0123abcd".to_string()]);
        let dir = std::env::temp_dir().join(format!("simlint-cache-rt-{}", std::process::id()));
        let path = dir.join("test.cache");
        cache.save(&path).expect("test: temp dir is writable");
        let loaded = Cache::load(&path, "fp");
        let b = loaded.get("crates/x/src/lib.rs", "0123abcd").expect("entry round-trips");
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wrong_digest_misses() {
        let a = sample_analysis();
        let cache = Cache::build("fp", &[a], &["0123abcd".to_string()]);
        assert!(cache.get("crates/x/src/lib.rs", "ffffffff").is_none());
        assert!(cache.get("crates/y/src/lib.rs", "0123abcd").is_none());
    }

    #[test]
    fn version_or_fingerprint_mismatch_discards() {
        let a = sample_analysis();
        let cache = Cache::build("fp", &[a], &["0123abcd".to_string()]);
        let dir = std::env::temp_dir().join(format!("simlint-cache-fp-{}", std::process::id()));
        let path = dir.join("test.cache");
        cache.save(&path).expect("test: temp dir is writable");
        assert!(Cache::load(&path, "other-fp").entries.is_empty());
        // Corrupt the version field: full discard, not an error.
        let text = std::fs::read_to_string(&path).expect("test: just written");
        std::fs::write(&path, text.replace(RULES_VERSION, "simlint-v0.0")).unwrap_or(());
        assert!(Cache::load(&path, "fp").entries.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_cache_discards() {
        let a = sample_analysis();
        let cache = Cache::build("fp", &[a], &["0123abcd".to_string()]);
        let dir = std::env::temp_dir().join(format!("simlint-cache-tr-{}", std::process::id()));
        let path = dir.join("test.cache");
        cache.save(&path).expect("test: temp dir is writable");
        let text = std::fs::read_to_string(&path).expect("test: just written");
        let cut = text.len() - "end\n".len();
        std::fs::write(&path, &text[..cut]).expect("test: rewrite");
        assert!(Cache::load(&path, "fp").entries.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fingerprint_tracks_config_knobs() {
        let a = Config::everything("/");
        let mut b = Config::everything("/");
        assert_eq!(fingerprint(&a), fingerprint(&b));
        b.taint_scope.push("crates/extra".to_string());
        assert_ne!(fingerprint(&a), fingerprint(&b));
    }

    #[test]
    fn unescape_round_trips() {
        for s in ["plain", "sp aces", "q\"uote", "back\\slash", "nl\nline", "tab\tx", "\u{1}ctl"] {
            assert_eq!(json_unescape(&json_escape(s)), s, "{s:?}");
        }
    }
}
