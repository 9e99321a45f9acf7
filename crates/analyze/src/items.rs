//! Item-level parsing: functions, methods and the atoms inside their
//! bodies.
//!
//! This sits between the lexer and the call graph. One linear pass over a
//! file's token stream recovers every function item — free functions,
//! `impl`/`trait` methods (with their owning type), and nested test items
//! — along with the facts the graph rules need about each body:
//!
//! * **call sites** (`foo(..)`, `x.foo(..)`, `Type::foo(..)`) with an
//!   argument count, for conservative name+arity resolution;
//! * **bare function references** (`schedule_in(t, tick)`) so closures
//!   and fn pointers handed to the scheduler stay on the graph;
//! * **determinism-taint sources** (wall clock, host RNG, `RandomState`,
//!   thread identity, environment reads);
//! * **panic sites** (`unwrap`/`expect`/`panic!`/`unreachable!`/`todo!`
//!   and, optionally, slice indexing).
//!
//! The parser is deliberately approximate in the same way the lexer is:
//! rustc has already accepted the file, so on confusing input it prefers
//! recording too much (extra call edges make the analysis conservative)
//! over giving up. Closures are *not* separate items: their tokens belong
//! to the enclosing function, which is exactly the attribution the taint
//! pass wants for `schedule_at(move |sim| ...)` arms.

use crate::lexer::{Lexed, TokKind};

/// One function-like item.
#[derive(Debug)]
// Four independent facts about an item, not a state machine.
#[allow(clippy::struct_excessive_bools)]
pub struct Item {
    /// Crate directory name (`sim`, `core`, ...).
    pub crate_name: String,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Function name (raw-identifier prefix already stripped by the
    /// lexer).
    pub name: String,
    /// Owning `impl`/`trait` type, when this is a method.
    pub owner: Option<String>,
    /// Parameter count, excluding any `self` receiver.
    pub arity: usize,
    /// Whether the first parameter is a `self` receiver.
    pub has_self: bool,
    /// Whether the item is `pub` with unrestricted visibility
    /// (`pub(crate)` and narrower do not count: they are not API surface).
    pub is_pub: bool,
    /// Whether the item sits inside a `#[cfg(test)]` / `#[test]` region.
    pub is_test: bool,
    /// Whether the item is a method of a `trait` block or a `impl Trait
    /// for Type` block. Trait methods are dynamic-dispatch targets, so
    /// call resolution lets them be invoked from crates they depend on
    /// (the callback pattern: `os` dispatches a `PacketHandler` that
    /// `core` registered).
    pub trait_method: bool,
    /// Call sites in the body.
    pub calls: Vec<CallSite>,
    /// Bare references to function names (fn-pointer arguments).
    pub refs: Vec<RefSite>,
    /// Determinism-taint source atoms in the body.
    pub sources: Vec<SourceAtom>,
    /// Panic sites in the body.
    pub panics: Vec<PanicSite>,
}

impl Item {
    /// `crate::Owner::name` / `crate::name` display form used in
    /// diagnostics paths and the DOT export.
    pub fn qualified(&self) -> String {
        match &self.owner {
            Some(o) => format!("{}::{}::{}", self.crate_name, o, self.name),
            None => format!("{}::{}", self.crate_name, self.name),
        }
    }
}

/// One call site inside a body.
#[derive(Debug)]
pub struct CallSite {
    /// Callee name (last path segment).
    pub name: String,
    /// `Type` in `Type::name(...)` calls; `Self` is already rewritten to
    /// the enclosing impl owner.
    pub qualifier: Option<String>,
    /// Whether this is a `.name(...)` method call.
    pub method: bool,
    /// Number of call arguments (receiver not counted).
    pub arity: usize,
    /// 1-based source line.
    pub line: u32,
    /// First string literal among the arguments (metric/stage name
    /// extraction for the liveness pass).
    pub first_str: Option<String>,
    /// The first argument when it is a lone identifier (`record(ID, v)`
    /// resolves `ID` to the metric it was interned from).
    pub first_ident: Option<String>,
}

/// A bare identifier in argument position that may name a function
/// (fn-pointer / scheduled-arm reference).
#[derive(Debug)]
pub struct RefSite {
    /// The referenced name.
    pub name: String,
    /// 1-based source line.
    pub line: u32,
}

/// What class of determinism-taint source an atom is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceKind {
    /// `Instant` / `SystemTime` wall-clock reads.
    WallClock,
    /// `thread_rng` / `from_entropy` / `getrandom` / `rand::random`.
    HostRng,
    /// `RandomState` (per-process-seeded hashing).
    RandomState,
    /// `std::thread::current()` / `ThreadId` identity.
    ThreadId,
    /// `std::env::var` / `var_os` environment reads.
    EnvRead,
}

impl SourceKind {
    /// Human label used in diagnostics.
    pub fn label(self) -> &'static str {
        match self {
            SourceKind::WallClock => "wall-clock time",
            SourceKind::HostRng => "host randomness",
            SourceKind::RandomState => "RandomState hashing",
            SourceKind::ThreadId => "thread identity",
            SourceKind::EnvRead => "environment read",
        }
    }
}

/// A determinism-taint source atom.
#[derive(Debug)]
pub struct SourceAtom {
    /// Which class of source.
    pub kind: SourceKind,
    /// The offending token text (`Instant`, `thread_rng`, ...).
    pub what: String,
    /// 1-based source line.
    pub line: u32,
}

/// A site that can panic at runtime.
#[derive(Debug)]
pub struct PanicSite {
    /// Display form: `.unwrap()`, `panic!`, `[..]`, ...
    pub what: String,
    /// 1-based source line.
    pub line: u32,
    /// Whether this is a slice/array indexing site (reported only under
    /// the opt-in index policy; see `flow::FlowPolicy`).
    pub is_index: bool,
}

/// Keywords that look like calls when followed by `(`. A raw-identifier
/// function named after one of these (`fn r#loop`, called `r#loop()`)
/// is indistinguishable post-lex and its call sites go unrecorded — a
/// conservative gap accepted for a shape that does not occur in this
/// workspace (raw idents here are names like `r#type`, which is not in
/// this set).
const CALL_KEYWORDS: &[&str] = &[
    "if", "while", "match", "for", "loop", "return", "in", "as", "move", "box", "await", "fn",
    "let", "else", "unsafe", "ref", "mut", "dyn", "impl", "where",
];

/// Identifiers never recorded as bare function references.
const REF_EXCLUDED: &[&str] = &[
    "self", "Self", "None", "Some", "Ok", "Err", "true", "false", "crate", "super",
];

/// Parse every function item in a lexed file.
///
/// `test_regions` are the inclusive line ranges of `#[cfg(test)]` /
/// `#[test]` items (see `rules::test_regions`); items starting inside one
/// are flagged [`Item::is_test`].
pub fn parse_items(
    file: &str,
    crate_name: &str,
    lexed: &Lexed,
    test_regions: &[(u32, u32)],
) -> Vec<Item> {
    let mut items = Vec::new();
    let mut p = Parser {
        lx: lexed,
        file,
        crate_name,
        test_regions,
    };
    p.scan(0, lexed.toks.len(), None, false, &mut items);
    items
}

struct Parser<'a> {
    lx: &'a Lexed,
    file: &'a str,
    crate_name: &'a str,
    test_regions: &'a [(u32, u32)],
}

impl Parser<'_> {
    fn in_test(&self, line: u32) -> bool {
        self.test_regions
            .iter()
            .any(|&(a, b)| line >= a && line <= b)
    }

    /// Scan tokens in `[from, to)` for items, with `owner` naming the
    /// enclosing `impl`/`trait` type if any and `in_trait` set inside
    /// `trait` blocks and `impl Trait for Type` blocks.
    fn scan(
        &mut self,
        from: usize,
        to: usize,
        owner: Option<&str>,
        in_trait: bool,
        out: &mut Vec<Item>,
    ) {
        let mut i = from;
        while i < to {
            let Some(TokKind::Ident(word)) = self.lx.kind(i) else {
                i += 1;
                continue;
            };
            match word.as_str() {
                "impl" | "trait" => {
                    let is_trait_block = word == "trait";
                    let (name, saw_for, body) = self.impl_header(i, to);
                    match body {
                        Some((open, close)) => {
                            self.scan(
                                open + 1,
                                close,
                                name.as_deref(),
                                is_trait_block || saw_for,
                                out,
                            );
                            i = close + 1;
                        }
                        None => i += 1,
                    }
                }
                "mod" => {
                    // `mod name { ... }`: recurse; `mod name;` moves on.
                    let mut j = i + 1;
                    if matches!(self.lx.kind(j), Some(TokKind::Ident(_))) {
                        j += 1;
                    }
                    if self.lx.is_punct(j, '{') {
                        match matching_in(self.lx, j, to, '{', '}') {
                            Some(close) => {
                                self.scan(j + 1, close, None, false, out);
                                i = close + 1;
                            }
                            None => i = j + 1,
                        }
                    } else {
                        i = j;
                    }
                }
                "fn" => {
                    let (item, next) = self.fn_item(i, to, owner, in_trait);
                    if let Some(item) = item {
                        out.push(item);
                    }
                    i = next;
                }
                // `use`, `struct`, `enum`, `static`, `const`, ...: no
                // function bodies at this level worth special casing —
                // associated consts with block initializers are rare and
                // contain no scheduling logic; skipping one token keeps the
                // scan simple and safe.
                _ => i += 1,
            }
        }
    }

    /// Parse an `impl`/`trait` header starting at `at`; return the subject
    /// type name, whether a `for` keyword was seen (i.e. a trait impl),
    /// and the body brace range.
    fn impl_header(&self, at: usize, to: usize) -> (Option<String>, bool, Option<(usize, usize)>) {
        let lx = self.lx;
        let mut j = at + 1;
        if lx.is_punct(j, '<') {
            j = skip_angles(lx, j, to);
        }
        // Tokens up to `{`: `Type`, `Trait for Type`, `dyn Trait`, paths.
        // The subject is the last path segment seen outside generics — in
        // `impl fmt::Display for SimTime` that is `SimTime`, in
        // `impl Wheel<T>` it is `Wheel`.
        let mut name: Option<String> = None;
        let mut saw_for = false;
        while j < to && !lx.is_punct(j, '{') {
            match lx.kind(j) {
                Some(TokKind::Ident(s)) if s == "for" => {
                    name = None;
                    saw_for = true;
                    j += 1;
                }
                Some(TokKind::Ident(s)) if s == "where" => break,
                Some(TokKind::Ident(s)) if s != "dyn" && s != "mut" => {
                    name = Some(s.clone());
                    j += 1;
                }
                Some(TokKind::Punct('<')) => {
                    j = skip_angles(lx, j, to);
                }
                _ => j += 1,
            }
        }
        while j < to && !lx.is_punct(j, '{') {
            j += 1;
        }
        if j >= to {
            return (name, saw_for, None);
        }
        match matching_in(lx, j, to, '{', '}') {
            Some(close) => (name, saw_for, Some((j, close))),
            None => (name, saw_for, None),
        }
    }

    /// Parse one `fn` item starting at the `fn` keyword. Returns the item
    /// (None for bodyless trait declarations) and the index to resume at.
    fn fn_item(
        &self,
        at: usize,
        to: usize,
        owner: Option<&str>,
        in_trait: bool,
    ) -> (Option<Item>, usize) {
        let lx = self.lx;
        let line = lx.toks[at].line;
        let Some(TokKind::Ident(name)) = lx.kind(at + 1) else {
            return (None, at + 1);
        };
        let name = name.clone();
        let mut j = at + 2;
        if lx.is_punct(j, '<') {
            j = skip_angles(lx, j, to);
        }
        if !lx.is_punct(j, '(') {
            return (None, at + 1);
        }
        let Some(params_close) = matching_in(lx, j, to, '(', ')') else {
            return (None, at + 1);
        };
        let (arity, has_self) = param_shape(lx, j, params_close);

        // Skip return type / where clause to the body `{` or a `;`.
        let mut k = params_close + 1;
        let (mut paren, mut square) = (0i32, 0i32);
        while k < to {
            match lx.kind(k) {
                Some(TokKind::Punct('(')) => paren += 1,
                Some(TokKind::Punct(')')) => paren -= 1,
                Some(TokKind::Punct('[')) => square += 1,
                Some(TokKind::Punct(']')) => square -= 1,
                Some(TokKind::Punct('{')) if paren == 0 && square == 0 => break,
                Some(TokKind::Punct(';')) if paren == 0 && square == 0 => {
                    // Trait method declaration without a body.
                    return (None, k + 1);
                }
                _ => {}
            }
            k += 1;
        }
        if k >= to {
            return (None, to);
        }
        let Some(body_close) = matching_in(lx, k, to, '{', '}') else {
            return (None, to);
        };

        let mut item = Item {
            crate_name: self.crate_name.to_string(),
            file: self.file.to_string(),
            line,
            owner: owner.map(str::to_string),
            arity,
            has_self,
            is_pub: is_pub_at(lx, at),
            is_test: self.in_test(line),
            trait_method: in_trait,
            name,
            calls: Vec::new(),
            refs: Vec::new(),
            sources: Vec::new(),
            panics: Vec::new(),
        };
        scan_body(lx, k + 1, body_close, owner, &mut item);
        (Some(item), body_close + 1)
    }
}

/// Count parameters and detect a `self` receiver between paren indices
/// `open` and `close` (exclusive).
fn param_shape(lx: &Lexed, open: usize, close: usize) -> (usize, bool) {
    if close == open + 1 {
        return (0, false);
    }
    let (mut paren, mut square, mut brace, mut angle) = (0i32, 0i32, 0i32, 0i32);
    let mut commas = 0usize;
    let mut has_self = false;
    let mut saw_any = false;
    let mut first_segment = true;
    let mut j = open + 1;
    while j < close {
        match lx.kind(j) {
            Some(TokKind::Punct('(')) => paren += 1,
            Some(TokKind::Punct(')')) => paren -= 1,
            Some(TokKind::Punct('[')) => square += 1,
            Some(TokKind::Punct(']')) => square -= 1,
            Some(TokKind::Punct('{')) => brace += 1,
            Some(TokKind::Punct('}')) => brace -= 1,
            Some(TokKind::Punct('<')) => angle += 1,
            Some(TokKind::Punct('>')) => {
                // `->` in fn-pointer types is an arrow, not a close-angle.
                if !lx.is_punct(j - 1, '-') {
                    angle -= 1;
                }
            }
            Some(TokKind::Punct(',')) => {
                if paren == 0 && square == 0 && brace == 0 && angle == 0 {
                    commas += 1;
                    first_segment = false;
                    // Trailing comma: peek whether anything follows.
                    if j + 1 >= close {
                        commas -= 1;
                    }
                }
            }
            Some(TokKind::Ident(s)) => {
                saw_any = true;
                if first_segment && s == "self" && angle == 0 {
                    has_self = true;
                }
            }
            _ => saw_any = true,
        }
        j += 1;
    }
    let params = if saw_any { commas + 1 } else { 0 };
    (params.saturating_sub(usize::from(has_self)), has_self)
}

/// Whether the `fn` at `at` is `pub` with unrestricted visibility,
/// scanning back over `const` / `async` / `unsafe` / `extern "C"`.
fn is_pub_at(lx: &Lexed, at: usize) -> bool {
    let mut k = at;
    while k > 0 {
        match lx.kind(k - 1) {
            Some(TokKind::Ident(s)) => match s.as_str() {
                "pub" => return true,
                "const" | "async" | "unsafe" | "extern" => k -= 1,
                _ => return false,
            },
            // The ABI string of `extern "C" fn` sits between the
            // modifier and the `fn` keyword.
            Some(TokKind::Str(_)) => k -= 1,
            // Anything else — including the `)` closing a `pub(crate)` /
            // `pub(super)` visibility list — is not unrestricted-pub.
            _ => return false,
        }
    }
    false
}

/// Skip a matched `<...>` group starting at the `<` at `at`; returns the
/// index just past the closing `>`. Handles `->` arrows inside bounds.
fn skip_angles(lx: &Lexed, at: usize, to: usize) -> usize {
    let mut depth = 0i32;
    let mut j = at;
    while j < to {
        if lx.is_punct(j, '<') {
            depth += 1;
        } else if lx.is_punct(j, '>') && !lx.is_punct(j - 1, '-') {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    to
}

/// `matching` bounded by `to`.
fn matching_in(lx: &Lexed, at: usize, to: usize, open: char, close: char) -> Option<usize> {
    let mut depth = 0i32;
    for j in at..to {
        if lx.is_punct(j, open) {
            depth += 1;
        } else if lx.is_punct(j, close) {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// Scan a body token range for calls, refs, taint sources and panic
/// sites.
// One pass, one match arm per atom class; splitting it would scatter the
// token-window logic.
#[allow(clippy::too_many_lines)]
fn scan_body(lx: &Lexed, from: usize, to: usize, owner: Option<&str>, item: &mut Item) {
    let toks = &lx.toks;
    for i in from..to {
        let line = toks[i].line;
        match &toks[i].kind {
            TokKind::Ident(name) => {
                // Macro panic sites: `name!`.
                if lx.is_punct(i + 1, '!')
                    && matches!(
                        name.as_str(),
                        "panic" | "unreachable" | "todo" | "unimplemented"
                    )
                {
                    item.panics.push(PanicSite {
                        what: format!("{name}!"),
                        line,
                        is_index: false,
                    });
                    continue;
                }
                // Determinism-taint sources.
                if let Some(kind) = source_kind(lx, i, name) {
                    item.sources.push(SourceAtom {
                        kind,
                        what: name.clone(),
                        line,
                    });
                }
                if lx.is_punct(i + 1, '(') {
                    if CALL_KEYWORDS.contains(&name.as_str()) {
                        continue;
                    }
                    let method = i >= 1 && lx.is_punct(i - 1, '.');
                    // `.unwrap()` / `.expect(...)` panic sites.
                    if method && (name == "unwrap" || name == "expect") {
                        item.panics.push(PanicSite {
                            what: format!(".{name}()"),
                            line,
                            is_index: false,
                        });
                    }
                    let qualifier = if !method && i >= 2 && lx.is_path_sep(i - 2) && i >= 3 {
                        match lx.kind(i - 3) {
                            Some(TokKind::Ident(q)) if q == "Self" => owner.map(str::to_string),
                            Some(TokKind::Ident(q)) => Some(q.clone()),
                            _ => None,
                        }
                    } else {
                        None
                    };
                    let Some(close) = matching_in(lx, i + 1, to, '(', ')') else {
                        continue;
                    };
                    let (arity, _) = param_shape(lx, i + 1, close);
                    let first_str = toks[i + 2..close].iter().find_map(|t| match &t.kind {
                        TokKind::Str(s) => Some(s.clone()),
                        _ => None,
                    });
                    let first_ident =
                        crate::rules::first_ident_arg(lx, i + 1, close).map(str::to_string);
                    item.calls.push(CallSite {
                        name: name.clone(),
                        qualifier,
                        method,
                        arity,
                        line,
                        first_str,
                        first_ident,
                    });
                } else {
                    // Bare reference in argument position: `(tick)` or
                    // `, tick,` / `, tick)`.
                    let prev_ok = i >= 1 && (lx.is_punct(i - 1, '(') || lx.is_punct(i - 1, ','));
                    let next_ok = lx.is_punct(i + 1, ')') || lx.is_punct(i + 1, ',');
                    if prev_ok
                        && next_ok
                        && !REF_EXCLUDED.contains(&name.as_str())
                        && !CALL_KEYWORDS.contains(&name.as_str())
                        && name.chars().next().is_some_and(char::is_lowercase)
                    {
                        item.refs.push(RefSite {
                            name: name.clone(),
                            line,
                        });
                    }
                }
            }
            TokKind::Punct('[') => {
                // Indexing: `expr[...]` — previous token ends an
                // expression. Attribute literals (`#[...]`) and array
                // literals (`= [...]`, `&[...]`) don't index.
                let prev_is_expr_end = i >= 1
                    && (matches!(lx.kind(i - 1), Some(TokKind::Ident(_)))
                        || lx.is_punct(i - 1, ')')
                        || lx.is_punct(i - 1, ']'));
                if !prev_is_expr_end {
                    continue;
                }
                let Some(close) = matching_in(lx, i, to, '[', ']') else {
                    continue;
                };
                // A single integer-literal index on a fixed pattern is
                // still a panic site, but a lone `Num` is by far the most
                // common provably-bounded shape; everything else counts.
                let inner = &toks[i + 1..close];
                let literal_only = inner.len() == 1 && inner[0].kind == TokKind::Num;
                if !literal_only {
                    item.panics.push(PanicSite {
                        what: "[..] indexing".to_string(),
                        line,
                        is_index: true,
                    });
                }
            }
            _ => {}
        }
    }
}

/// Classify an identifier as a determinism-taint source, mirroring (and
/// extending) the per-site `wall-clock` / `ad-hoc-rng` lint conditions.
fn source_kind(lx: &Lexed, i: usize, name: &str) -> Option<SourceKind> {
    match name {
        "Instant" | "SystemTime" => {
            let called_now = lx.is_path_sep(i + 1) && lx.is_ident(i + 3, "now");
            let time_path = i >= 3 && lx.is_ident(i - 3, "time") && lx.is_path_sep(i - 2);
            (called_now || time_path).then_some(SourceKind::WallClock)
        }
        "thread_rng" | "from_entropy" | "getrandom" => Some(SourceKind::HostRng),
        "random" => (i >= 3 && lx.is_ident(i - 3, "rand") && lx.is_path_sep(i - 2))
            .then_some(SourceKind::HostRng),
        "RandomState" => Some(SourceKind::RandomState),
        "ThreadId" => Some(SourceKind::ThreadId),
        "current" => (i >= 3 && lx.is_ident(i - 3, "thread") && lx.is_path_sep(i - 2))
            .then_some(SourceKind::ThreadId),
        "var" | "var_os" => (i >= 3 && lx.is_ident(i - 3, "env") && lx.is_path_sep(i - 2))
            .then_some(SourceKind::EnvRead),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn items(src: &str) -> Vec<Item> {
        let lexed = lex(src);
        parse_items("crates/x/src/lib.rs", "x", &lexed, &[])
    }

    #[test]
    fn free_fns_and_methods_are_items() {
        let src = r"
            pub fn alpha(a: u32, b: &str) -> u32 { beta(a) }
            fn beta(x: u32) -> u32 { x }
            struct Foo;
            impl Foo {
                pub fn make(n: usize) -> Foo { Foo }
                fn helper(&self, v: Vec<Vec<u8>>) { self.other(1, 2) }
            }
            impl fmt::Display for Foo {
                fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result { Ok(()) }
            }
        ";
        let it = items(src);
        let names: Vec<(String, Option<String>, usize, bool, bool)> = it
            .iter()
            .map(|i| {
                (
                    i.name.clone(),
                    i.owner.clone(),
                    i.arity,
                    i.has_self,
                    i.is_pub,
                )
            })
            .collect();
        assert_eq!(
            names,
            vec![
                ("alpha".into(), None, 2, false, true),
                ("beta".into(), None, 1, false, false),
                ("make".into(), Some("Foo".into()), 1, false, true),
                ("helper".into(), Some("Foo".into()), 1, true, false),
                ("fmt".into(), Some("Foo".into()), 1, true, false),
            ]
        );
        // alpha's body calls beta with one argument.
        let alpha = &it[0];
        assert!(alpha
            .calls
            .iter()
            .any(|c| c.name == "beta" && c.arity == 1 && !c.method));
        // helper's body calls .other(1, 2).
        let helper = &it[3];
        assert!(helper
            .calls
            .iter()
            .any(|c| c.name == "other" && c.method && c.arity == 2));
    }

    #[test]
    fn qualified_and_self_calls_carry_the_owner() {
        let src = r"
            impl Wheel {
                pub fn new() -> Wheel { Self::with_slots(4096) }
                fn with_slots(n: usize) -> Wheel { Wheel }
            }
            fn free() { Wheel::new(); pool::reset(); }
        ";
        let it = items(src);
        let new = it.iter().find(|i| i.name == "new").unwrap();
        assert!(new
            .calls
            .iter()
            .any(|c| c.name == "with_slots" && c.qualifier.as_deref() == Some("Wheel")));
        let free = it.iter().find(|i| i.name == "free").unwrap();
        assert!(free
            .calls
            .iter()
            .any(|c| c.name == "new" && c.qualifier.as_deref() == Some("Wheel")));
        assert!(free
            .calls
            .iter()
            .any(|c| c.name == "reset" && c.qualifier.as_deref() == Some("pool")));
    }

    #[test]
    fn closures_attribute_to_the_enclosing_fn_and_fn_refs_are_refs() {
        let src = r"
            pub fn arm(sim: &mut Sim) {
                sim.schedule_at(t, move |s| { helper(s); });
                sim.schedule_in(t, tick);
            }
            fn helper(s: &mut Sim) {}
            fn tick(s: &mut Sim) {}
        ";
        let it = items(src);
        let arm = &it[0];
        assert!(arm.calls.iter().any(|c| c.name == "helper"));
        assert!(arm.refs.iter().any(|r| r.name == "tick"));
    }

    #[test]
    fn taint_sources_and_panic_sites_are_collected() {
        let src = r#"
            fn bad(map: &BTreeMap<u32, u32>, v: &[u8]) -> u32 {
                let t = std::time::Instant::now();
                let r = rand::random::<u64>();
                let h = RandomState::new();
                let e = std::env::var("SEED").unwrap();
                if v[compute()] > 3 { panic!("boom") }
                map.get(&1).expect("present");
                v[0];
                unreachable!()
            }
        "#;
        let it = items(src);
        let bad = &it[0];
        let kinds: Vec<SourceKind> = bad.sources.iter().map(|s| s.kind).collect();
        assert!(kinds.contains(&SourceKind::WallClock));
        assert!(kinds.contains(&SourceKind::HostRng));
        assert!(kinds.contains(&SourceKind::RandomState));
        assert!(kinds.contains(&SourceKind::EnvRead));
        let whats: Vec<&str> = bad.panics.iter().map(|p| p.what.as_str()).collect();
        assert!(whats.contains(&".unwrap()"));
        assert!(whats.contains(&".expect()"));
        assert!(whats.contains(&"panic!"));
        assert!(whats.contains(&"unreachable!"));
        // `v[compute()]` is an index site; `v[0]` is literal-only.
        assert_eq!(bad.panics.iter().filter(|p| p.is_index).count(), 1);
    }

    #[test]
    fn test_region_items_are_flagged() {
        let src = "fn live() {}\nfn probed() {}\n";
        let lexed = lex(src);
        let it = parse_items("crates/x/src/lib.rs", "x", &lexed, &[(2, 2)]);
        assert!(!it[0].is_test);
        assert!(it[1].is_test);
    }

    #[test]
    fn raw_identifier_fn_names_resolve_bare() {
        let it = items("fn r#type() {} fn caller() { r#type(); }");
        assert_eq!(it[0].name, "type");
        assert!(it[1].calls.iter().any(|c| c.name == "type"));
    }

    #[test]
    fn generics_with_fn_bounds_do_not_derail_the_signature() {
        let src = "pub fn schedule<F: FnOnce(&mut Sim) -> u32 + 'static>(at: SimTime, f: F) {}";
        let it = items(src);
        assert_eq!(it.len(), 1);
        assert_eq!(it[0].name, "schedule");
        assert_eq!(it[0].arity, 2);
        assert!(it[0].is_pub);
    }
}
