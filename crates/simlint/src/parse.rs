//! Item-level parser over the [`lexer`](crate::lexer) token stream.
//!
//! simlint v1 rules pattern-matched raw token windows, which works for
//! local properties (`.unwrap()`, `as f64`) but cannot answer "what does
//! this function call?". This module recovers just enough structure for
//! the call-graph rules in [`graph`](crate::graph): every `fn` item with
//! its name, impl/trait owner, in-file module path, signature and body
//! token ranges; and every `enum` item with its variants. It is *not* a
//! Rust parser — expressions stay flat token runs — and it is
//! deliberately conservative: unknown constructs are skipped, never
//! guessed at.
//!
//! Token indices in the output refer to the *same* token slice handed to
//! [`parse`], comments included, so callers can correlate items with
//! directive comments and re-scan bodies for calls.

use crate::lexer::{Token, TokenKind};

/// One `fn` item (free fn, method, trait method, or nested fn).
#[derive(Clone, Debug)]
pub struct FnItem {
    pub name: String,
    /// Enclosing `impl`/`trait` type name (last path segment), if the fn
    /// is a method. Nested fns inside a method body get `None` — they are
    /// not callable through the owner.
    pub owner: Option<String>,
    /// In-file module path (`"a::b"` for `mod a { mod b { … } }`, empty at
    /// the top level).
    pub module: String,
    /// Position of the fn *name* token — where diagnostics point.
    pub line: u32,
    pub col: u32,
    /// First line of the declaration, including qualifiers (`pub(crate)
    /// const unsafe …`) and attributes. Together with
    /// [`header_end_line`](Self::header_end_line) this bounds the region a
    /// `// simlint: hot-root` marker may attach to.
    pub decl_line: u32,
    /// Line of the body-opening `{` (or the `;` of a bodyless decl).
    pub header_end_line: u32,
    /// Token range `[fn_kw, body_open)` — the signature, generics, params
    /// and return type.
    pub sig: (usize, usize),
    /// Token indices of the body's `{` and matching `}` (inclusive), or
    /// `None` for bodyless trait/extern declarations.
    pub body: Option<(usize, usize)>,
    /// Whether `Result` appears in the return-type region. Conservative:
    /// a `Result` in a trailing `where` clause also counts.
    pub returns_result: bool,
}

impl FnItem {
    /// `true` when `line` falls inside the decl-to-body-open region, where
    /// a trailing or standalone simlint marker attaches to this fn.
    pub fn decl_region_contains(&self, line: u32) -> bool {
        self.decl_line <= line && line <= self.header_end_line
    }
}

/// One variant of a parsed `enum`.
#[derive(Clone, Debug)]
pub struct EnumVariant {
    pub name: String,
    pub line: u32,
    pub col: u32,
}

/// One `enum` item.
#[derive(Clone, Debug)]
pub struct EnumItem {
    pub name: String,
    pub module: String,
    pub line: u32,
    pub variants: Vec<EnumVariant>,
}

/// Everything [`parse`] recovers from one file's token stream.
#[derive(Clone, Debug, Default)]
pub struct ParsedFile {
    pub fns: Vec<FnItem>,
    pub enums: Vec<EnumItem>,
}

#[derive(Debug)]
enum ScopeKind {
    Mod(String),
    /// `impl` or `trait` body: fns declared directly inside are methods of
    /// this type name.
    Owner(String),
    /// A fn body: fns nested here are plain local items, not methods.
    FnBody,
}

struct Scope {
    kind: ScopeKind,
    /// Brace depth *after* the scope's `{` was consumed; the scope is
    /// popped when depth drops below this.
    depth: usize,
}

fn is_comment(t: &Token) -> bool {
    matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment)
}

/// Next non-comment token index at or after `i`.
fn next_code(toks: &[Token], mut i: usize) -> Option<usize> {
    while i < toks.len() {
        if !is_comment(&toks[i]) {
            return Some(i);
        }
        i += 1;
    }
    None
}

/// Previous non-comment token index strictly before `i`.
fn prev_code(toks: &[Token], i: usize) -> Option<usize> {
    let mut j = i;
    while j > 0 {
        j -= 1;
        if !is_comment(&toks[j]) {
            return Some(j);
        }
    }
    None
}

/// Index just past a `#[…]` / `#![…]` attribute starting at the `#` at
/// `i`; `i + 1` if it isn't one.
fn skip_attr_at(toks: &[Token], i: usize) -> usize {
    let mut j = i + 1;
    if let Some(k) = next_code(toks, j) {
        if toks[k].is_punct("!") {
            j = k + 1;
        }
    }
    let Some(open) = next_code(toks, j) else { return i + 1 };
    if !toks[open].is_punct("[") {
        return i + 1;
    }
    let mut depth = 0usize;
    for (off, t) in toks[open..].iter().enumerate() {
        if t.is_punct("[") {
            depth += 1;
        } else if t.is_punct("]") {
            depth -= 1;
            if depth == 0 {
                return open + off + 1;
            }
        }
    }
    toks.len()
}

/// Matching `}` for the `{` at `open` (same-token fallback at EOF).
fn matching_close(toks: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    for (off, t) in toks[open..].iter().enumerate() {
        if t.is_punct("{") {
            depth += 1;
        } else if t.is_punct("}") {
            depth -= 1;
            if depth == 0 {
                return open + off;
            }
        }
    }
    toks.len().saturating_sub(1)
}

/// Skip a generic parameter list whose `<` is at `i`; returns the index
/// just past the closing `>`. Handles `>>` closing two levels at once
/// (the lexer munches it as a single token).
fn skip_generics(toks: &[Token], i: usize) -> usize {
    let mut depth = 0isize;
    let mut j = i;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct("<") {
            depth += 1;
        } else if t.is_punct("<<") {
            depth += 2;
        } else if t.is_punct(">") {
            depth -= 1;
        } else if t.is_punct(">>") {
            depth -= 2;
        }
        j += 1;
        if depth <= 0 {
            break;
        }
    }
    j
}

/// First line of the declaration owning the `fn` keyword at `fn_idx`:
/// walks back over visibility/qualifier tokens (`pub(crate)`, `const`,
/// `async`, `unsafe`, `extern "C"`, …) and any stacked attributes.
fn decl_start_line(toks: &[Token], fn_idx: usize) -> u32 {
    let mut line = toks[fn_idx].line;
    let mut j = fn_idx;
    while let Some(p) = prev_code(toks, j) {
        let t = &toks[p];
        let qualifier = t.is_ident("pub")
            || t.is_ident("const")
            || t.is_ident("async")
            || t.is_ident("unsafe")
            || t.is_ident("extern")
            || t.is_ident("default")
            || t.is_ident("crate")
            || t.is_ident("super")
            || t.is_ident("self")
            || t.is_ident("in")
            || t.is_punct("(")
            || t.is_punct(")")
            || t.is_punct("::")
            || t.kind == TokenKind::Str;
        if qualifier {
            line = t.line;
            j = p;
            continue;
        }
        if t.is_punct("]") {
            // Walk back over a `#[…]` attribute to its `#`.
            let mut depth = 0usize;
            let mut k = p;
            let mut open = None;
            loop {
                let tk = &toks[k];
                if tk.is_punct("]") {
                    depth += 1;
                } else if tk.is_punct("[") {
                    depth -= 1;
                    if depth == 0 {
                        open = Some(k);
                        break;
                    }
                }
                let Some(pk) = prev_code(toks, k) else { break };
                k = pk;
            }
            if let Some(open) = open {
                if let Some(h) = prev_code(toks, open) {
                    if toks[h].is_punct("#") {
                        line = toks[h].line;
                        j = h;
                        continue;
                    }
                }
            }
        }
        break;
    }
    line
}

/// Last path-segment identifier in `toks[lo..hi]` *outside* any generic
/// brackets — `foo::bar::Baz<T>` → `Baz`. Used for impl owner extraction.
fn last_path_segment(toks: &[Token], lo: usize, hi: usize) -> Option<String> {
    let mut depth = 0isize;
    let mut seg = None;
    for t in &toks[lo..hi.min(toks.len())] {
        if t.is_punct("<") {
            depth += 1;
        } else if t.is_punct("<<") {
            depth += 2;
        } else if t.is_punct(">") {
            depth -= 1;
        } else if t.is_punct(">>") {
            depth -= 2;
        } else if depth == 0 && t.kind == TokenKind::Ident && !t.is_ident("dyn") {
            seg = Some(t.text.clone());
        }
    }
    seg
}

/// Parse one file's token stream into its items.
pub fn parse(toks: &[Token]) -> ParsedFile {
    let mut out = ParsedFile::default();
    let mut scopes: Vec<Scope> = Vec::new();
    let mut pending: Option<ScopeKind> = None;
    let mut depth = 0usize;
    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        if is_comment(t) {
            i += 1;
            continue;
        }
        if t.is_punct("{") {
            depth += 1;
            if let Some(kind) = pending.take() {
                scopes.push(Scope { kind, depth });
            }
            i += 1;
            continue;
        }
        if t.is_punct("}") {
            depth = depth.saturating_sub(1);
            while scopes.last().is_some_and(|s| s.depth > depth) {
                scopes.pop();
            }
            i += 1;
            continue;
        }
        if t.is_punct(";") {
            // An item header that never reached a `{` (e.g. `type F =
            // fn(u32);` after a misfired `impl` pend) resolves here.
            pending = None;
            i += 1;
            continue;
        }
        if t.is_punct("#") {
            i = skip_attr_at(toks, i);
            continue;
        }
        if t.kind == TokenKind::Ident {
            match t.text.as_str() {
                "mod" => {
                    if let Some(j) = next_code(toks, i + 1) {
                        if toks[j].kind == TokenKind::Ident {
                            pending = Some(ScopeKind::Mod(toks[j].text.clone()));
                            i = j + 1;
                            continue;
                        }
                    }
                    i += 1;
                }
                "impl" | "trait" => {
                    if let Some((kind, resume)) = parse_owner_header(toks, i) {
                        pending = Some(kind);
                        i = resume;
                    } else {
                        i += 1;
                    }
                }
                "fn" => {
                    if let Some((item, resume)) = parse_fn(toks, i, &scopes) {
                        // The body `{` is processed by the main loop next
                        // iteration; mark it as a fn-body scope so nested
                        // fns don't inherit the impl owner.
                        if item.body.is_some() {
                            pending = Some(ScopeKind::FnBody);
                        }
                        out.fns.push(item);
                        i = resume;
                    } else {
                        i += 1;
                    }
                }
                "enum" => {
                    if let Some((item, resume)) = parse_enum(toks, i, &scopes) {
                        out.enums.push(item);
                        i = resume;
                    } else {
                        i += 1;
                    }
                }
                _ => i += 1,
            }
            continue;
        }
        i += 1;
    }
    out
}

fn module_path(scopes: &[Scope]) -> String {
    let mut parts = Vec::new();
    for s in scopes {
        if let ScopeKind::Mod(m) = &s.kind {
            parts.push(m.as_str());
        }
    }
    parts.join("::")
}

fn owner_of(scopes: &[Scope]) -> Option<String> {
    // Innermost wins; a fn body between the fn and an impl breaks the
    // method association.
    for s in scopes.iter().rev() {
        match &s.kind {
            ScopeKind::FnBody => return None,
            ScopeKind::Owner(o) => return Some(o.clone()),
            ScopeKind::Mod(_) => {}
        }
    }
    None
}

/// Parse an `impl`/`trait` header starting at its keyword; returns the
/// scope to attach at the body `{` plus the index of that `{`.
fn parse_owner_header(toks: &[Token], kw: usize) -> Option<(ScopeKind, usize)> {
    if toks[kw].is_ident("trait") {
        let j = next_code(toks, kw + 1)?;
        if toks[j].kind != TokenKind::Ident {
            return None;
        }
        return Some((ScopeKind::Owner(toks[j].text.clone()), j + 1));
    }
    // impl: `impl<G> Type {`, `impl<G> Trait for Type where … {`, or a
    // non-block use (`-> impl Trait`, `type T = impl …;`) — the latter
    // never reaches a `{` before `;`/`)` and is rejected.
    let mut j = next_code(toks, kw + 1)?;
    if toks[j].is_punct("<") {
        j = skip_generics(toks, j);
    }
    let type_start = j;
    let mut for_at = None;
    let mut body_open = None;
    let mut k = j;
    while k < toks.len() {
        let t = &toks[k];
        if t.is_punct("{") {
            body_open = Some(k);
            break;
        }
        if t.is_punct(";") || t.is_punct(")") || t.is_punct(",") {
            return None;
        }
        if t.is_ident("for") {
            for_at = Some(k);
        }
        if t.is_ident("where") {
            // The owner type ends here; keep scanning for the `{`.
            let seg_end = k;
            let open = find_brace(toks, k)?;
            let lo = for_at.map_or(type_start, |f| f + 1);
            let owner = last_path_segment(toks, lo, seg_end)?;
            return Some((ScopeKind::Owner(owner), open));
        }
        k += 1;
    }
    let open = body_open?;
    let lo = for_at.map_or(type_start, |f| f + 1);
    let owner = last_path_segment(toks, lo, open)?;
    Some((ScopeKind::Owner(owner), open))
}

fn find_brace(toks: &[Token], from: usize) -> Option<usize> {
    toks[from..]
        .iter()
        .position(|t| t.is_punct("{"))
        .map(|off| from + off)
}

/// Parse a `fn` item whose keyword is at `kw`. Returns the item and the
/// resume index (the body `{` itself, so the main loop tracks its depth,
/// or just past the `;` of a bodyless decl). `None` for fn-pointer types
/// (`fn(` with no name).
fn parse_fn(toks: &[Token], kw: usize, scopes: &[Scope]) -> Option<(FnItem, usize)> {
    let name_at = next_code(toks, kw + 1)?;
    if toks[name_at].kind != TokenKind::Ident {
        return None;
    }
    let name = toks[name_at].text.clone();
    let mut j = next_code(toks, name_at + 1)?;
    if toks[j].is_punct("<") {
        j = skip_generics(toks, j);
        j = next_code(toks, j)?;
    }
    if !toks[j].is_punct("(") {
        return None;
    }
    // Balanced parameter list.
    let mut pdepth = 0usize;
    while j < toks.len() {
        if toks[j].is_punct("(") {
            pdepth += 1;
        } else if toks[j].is_punct(")") {
            pdepth -= 1;
            if pdepth == 0 {
                break;
            }
        }
        j += 1;
    }
    // Return type / where clause, up to the body `{` or a `;`.
    let mut returns_result = false;
    let mut end = None;
    let mut k = j + 1;
    while k < toks.len() {
        let t = &toks[k];
        if t.is_punct("{") || t.is_punct(";") {
            end = Some(k);
            break;
        }
        if t.is_ident("Result") {
            returns_result = true;
        }
        k += 1;
    }
    let end = end?;
    let (body, resume) = if toks[end].is_punct("{") {
        (Some((end, matching_close(toks, end))), end)
    } else {
        (None, end + 1)
    };
    let item = FnItem {
        name,
        owner: owner_of(scopes),
        module: module_path(scopes),
        line: toks[name_at].line,
        col: toks[name_at].col,
        decl_line: decl_start_line(toks, kw),
        header_end_line: toks[end].line,
        sig: (kw, end),
        body,
        returns_result,
    };
    Some((item, resume))
}

/// Parse an `enum` item whose keyword is at `kw`; resumes past the
/// closing `}` (the whole body is consumed here so payload types like
/// `fn(u32)` never reach the item scanner).
fn parse_enum(toks: &[Token], kw: usize, scopes: &[Scope]) -> Option<(EnumItem, usize)> {
    let name_at = next_code(toks, kw + 1)?;
    if toks[name_at].kind != TokenKind::Ident {
        return None;
    }
    let open = find_brace(toks, name_at + 1)?;
    // Guard against `enum` inside an expression context reaching an
    // unrelated brace: a `;` before the `{` means no body.
    if toks[name_at + 1..open].iter().any(|t| t.is_punct(";")) {
        return None;
    }
    let close = matching_close(toks, open);
    let mut variants = Vec::new();
    let mut j = open + 1;
    while j < close {
        // Variant-level position: skip attributes, then the first ident
        // is the variant name; skip its payload/discriminant to the
        // variant-separating comma.
        let Some(k) = next_code(toks, j) else { break };
        if k >= close {
            break;
        }
        if toks[k].is_punct("#") {
            j = skip_attr_at(toks, k);
            continue;
        }
        if toks[k].kind == TokenKind::Ident {
            variants.push(EnumVariant {
                name: toks[k].text.clone(),
                line: toks[k].line,
                col: toks[k].col,
            });
        }
        // Advance to just past the next top-level comma.
        let mut d = 0usize;
        let mut m = k;
        while m < close {
            let t = &toks[m];
            if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
                d += 1;
            } else if t.is_punct(")") || t.is_punct("]") || t.is_punct("}") {
                d = d.saturating_sub(1);
            } else if t.is_punct(",") && d == 0 {
                break;
            }
            m += 1;
        }
        j = m + 1;
    }
    let item = EnumItem {
        name: toks[name_at].text.clone(),
        module: module_path(scopes),
        line: toks[name_at].line,
        variants,
    };
    Some((item, close + 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> ParsedFile {
        parse(&lex(src))
    }

    #[test]
    fn free_fn_basics() {
        let p = parse_src("fn alpha(x: u32) -> u64 { x as u64 }\nfn beta() {}\n");
        assert_eq!(p.fns.len(), 2);
        let a = &p.fns[0];
        assert_eq!(a.name, "alpha");
        assert_eq!(a.owner, None);
        assert_eq!(a.module, "");
        assert_eq!((a.line, a.col), (1, 4));
        assert!(!a.returns_result);
        assert!(a.body.is_some());
        assert_eq!(p.fns[1].name, "beta");
        assert_eq!(p.fns[1].line, 2);
    }

    #[test]
    fn nested_generics_and_result_return() {
        // `>>` closes two generic levels in both the generics list and the
        // return type; `Result` in the return region is detected.
        let p = parse_src(
            "fn f<T: Into<Vec<u8>>>(v: Vec<Vec<u8>>) -> Result<Vec<Vec<u8>>, String> { todo() }",
        );
        assert_eq!(p.fns.len(), 1);
        let f = &p.fns[0];
        assert_eq!(f.name, "f");
        assert!(f.returns_result);
        let (open, close) = f.body.unwrap();
        assert!(open < close);
    }

    #[test]
    fn qualified_fn_headers() {
        let src = "\
pub(crate) const fn a() -> u32 { 1 }
pub async fn b() {}
pub(in crate::x) unsafe fn c() {}
extern \"C\" fn d() {}
";
        let p = parse_src(src);
        let names: Vec<&str> = p.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["a", "b", "c", "d"]);
        for f in &p.fns {
            // Qualifiers are on the same line, so decl_line == fn line.
            assert_eq!(f.decl_line, f.line, "{}", f.name);
        }
    }

    #[test]
    fn decl_line_walks_back_over_attributes_and_qualifiers() {
        let src = "\
#[inline]
#[must_use]
pub(crate)
fn hot() -> u32 {
    7
}
";
        let p = parse_src(src);
        let f = &p.fns[0];
        assert_eq!(f.line, 4);
        assert_eq!(f.decl_line, 1);
        assert_eq!(f.header_end_line, 4);
        assert!(f.decl_region_contains(2));
        assert!(!f.decl_region_contains(5));
    }

    #[test]
    fn impl_owner_and_trait_impl_owner() {
        let src = "\
struct Sender;
impl Sender {
    pub fn push(&mut self) {}
}
impl Iterator for Sender {
    type Item = u32;
    fn next(&mut self) -> Option<u32> { None }
}
impl<T: Clone> From<T> for Sender {
    fn from(_: T) -> Self { Sender }
}
";
        let p = parse_src(src);
        let got: Vec<(String, Option<String>)> =
            p.fns.iter().map(|f| (f.name.clone(), f.owner.clone())).collect();
        assert_eq!(
            got,
            vec![
                ("push".into(), Some("Sender".into())),
                ("next".into(), Some("Sender".into())),
                ("from".into(), Some("Sender".into())),
            ]
        );
    }

    #[test]
    fn trait_decls_and_bodyless_methods() {
        let src = "\
trait Cca {
    fn on_ack(&mut self, rtt: u64);
    fn cwnd(&self) -> f64 { 1.0 }
}
";
        let p = parse_src(src);
        assert_eq!(p.fns.len(), 2);
        assert_eq!(p.fns[0].owner.as_deref(), Some("Cca"));
        assert!(p.fns[0].body.is_none());
        assert_eq!(p.fns[1].owner.as_deref(), Some("Cca"));
        assert!(p.fns[1].body.is_some());
    }

    #[test]
    fn module_paths_nest() {
        let src = "\
mod outer {
    fn top() {}
    mod inner {
        fn deep() {}
    }
    fn late() {}
}
fn root() {}
";
        let p = parse_src(src);
        let got: Vec<(String, String)> =
            p.fns.iter().map(|f| (f.name.clone(), f.module.clone())).collect();
        assert_eq!(
            got,
            vec![
                ("top".into(), "outer".into()),
                ("deep".into(), "outer::inner".into()),
                ("late".into(), "outer".into()),
                ("root".into(), String::new()),
            ]
        );
    }

    #[test]
    fn nested_fn_in_method_body_is_not_a_method() {
        let src = "\
struct S;
impl S {
    fn outer(&self) {
        fn helper() {}
        helper();
    }
    fn after(&self) {}
}
";
        let p = parse_src(src);
        let got: Vec<(String, Option<String>)> =
            p.fns.iter().map(|f| (f.name.clone(), f.owner.clone())).collect();
        assert_eq!(
            got,
            vec![
                ("outer".into(), Some("S".into())),
                ("helper".into(), None),
                ("after".into(), Some("S".into())),
            ]
        );
    }

    #[test]
    fn fn_pointer_types_are_not_items() {
        let src = "\
type Hook = fn(u32) -> u32;
fn real(h: fn(u32) -> u32, g: Box<dyn Fn(u32) -> u32>) {}
";
        let p = parse_src(src);
        assert_eq!(p.fns.len(), 1);
        assert_eq!(p.fns[0].name, "real");
    }

    #[test]
    fn return_position_impl_trait_is_not_an_impl_block() {
        let src = "\
fn gen() -> impl Iterator<Item = u32> {
    (0..3).into_iter()
}
fn next_one() {}
";
        let p = parse_src(src);
        let names: Vec<&str> = p.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["gen", "next_one"]);
        assert!(p.fns.iter().all(|f| f.owner.is_none()));
    }

    #[test]
    fn enum_variants_with_payloads_and_discriminants() {
        let src = "\
pub enum Event {
    Send { flow: u32, seq: u64 },
    Drop(u32, Box<[u8]>),
    #[doc = \"tagged\"]
    Rto,
    Code = 4,
}
enum Empty {}
";
        let p = parse_src(src);
        assert_eq!(p.enums.len(), 2);
        let e = &p.enums[0];
        assert_eq!(e.name, "Event");
        let names: Vec<&str> = e.variants.iter().map(|v| v.name.as_str()).collect();
        assert_eq!(names, vec!["Send", "Drop", "Rto", "Code"]);
        assert_eq!(e.variants[0].line, 2);
        assert!(p.enums[1].variants.is_empty());
    }

    #[test]
    fn enum_payload_fn_pointer_does_not_create_an_item() {
        let p = parse_src("enum E { Cb(fn(u32) -> u32) }\nfn real() {}\n");
        assert_eq!(p.fns.len(), 1);
        assert_eq!(p.fns[0].name, "real");
    }

    #[test]
    fn impl_where_clause_keeps_the_owner() {
        let src = "\
struct W<T>(T);
impl<T> W<T> where T: Clone {
    fn get(&self) -> T { self.0.clone() }
}
";
        let p = parse_src(src);
        assert_eq!(p.fns.len(), 1);
        assert_eq!(p.fns[0].owner.as_deref(), Some("W"));
    }

    #[test]
    fn where_clause_result_bound_counts_as_result_return() {
        // Conservative by design: `Result` anywhere between params and
        // body counts, even in a where clause.
        let p = parse_src("fn f<F>(f: F) where F: Fn() -> Result<u32, ()> {}");
        assert!(p.fns[0].returns_result);
    }

    #[test]
    fn shebang_file_still_parses() {
        let p = parse_src("#!/usr/bin/env run\nfn main() {}\n");
        assert_eq!(p.fns.len(), 1);
        assert_eq!(p.fns[0].name, "main");
        assert_eq!(p.fns[0].line, 2);
    }
}
