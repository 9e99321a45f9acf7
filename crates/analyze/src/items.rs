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
//! * **bare function references** (`schedule_in(t, tick)`,
//!   `.map(Congestion::new)`) so closures and fn pointers handed to the
//!   scheduler stay on the graph, and mentions of `SCREAMING_CASE`
//!   constants, which reach the fns their initializers name;
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

/// One function-like item: a fn, or a top-level `static`/`const` whose
/// initializer is read as its body ([`Item::is_data`]).
#[derive(Debug)]
// Five independent facts about an item, not a state machine.
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
    /// Whether this is a `static`/`const` rather than a fn. Its body is
    /// the initializer, so a table of fn pointers (`FAMILIES`) or a
    /// `metric_id(..)` const reaches what it names, and any body that
    /// mentions the constant reaches it.
    pub is_data: bool,
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
/// (fn-pointer / scheduled-arm reference, `Type::f` passed as a value),
/// or the mention of a `SCREAMING_CASE` constant anywhere in a body.
#[derive(Debug)]
pub struct RefSite {
    /// The referenced name.
    pub name: String,
    /// `Type` in a `Type::f` value path; `Self` is already rewritten to
    /// the enclosing impl owner.
    pub qualifier: Option<String>,
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
                "static" | "const" => {
                    let (item, next) = self.data_item(i, to, owner);
                    if let Some(item) = item {
                        out.push(item);
                    }
                    i = next;
                }
                // `use`, `struct`, `enum`, ...: no bodies to scan.
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
        let (params, has_self) = param_shape(lx, j, params_close);

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

        let mut item = self.item(at, name, owner);
        item.arity = params - usize::from(has_self);
        item.has_self = has_self;
        item.trait_method = in_trait;
        scan_body(lx, k + 1, body_close, owner, &mut item);
        (Some(item), body_close + 1)
    }

    /// Parse a `static`/`const` item starting at its keyword: the
    /// initializer between `=` and the closing `;` becomes the body.
    /// Returns None for `const fn` (the `fn` arm takes it) and for
    /// initializer-less trait consts.
    fn data_item(&self, at: usize, to: usize, owner: Option<&str>) -> (Option<Item>, usize) {
        let lx = self.lx;
        let mut j = at + 1;
        if lx.is_ident(j, "mut") {
            j += 1;
        }
        let Some(TokKind::Ident(name)) = lx.kind(j) else {
            return (None, at + 1);
        };
        if !lx.is_punct(j + 1, ':') {
            return (None, at + 1); // `const fn`, `const unsafe fn`, ...
        }
        // The type may hold `;` (`[u8; 4]`) and `=` (`Item = T`) inside
        // brackets; the initializer starts at the first `=` outside them.
        let (mut depth, mut angle) = (0i32, 0i32);
        let mut eq = None;
        let mut k = j + 2;
        while k < to {
            match lx.kind(k) {
                Some(TokKind::Punct('(' | '[' | '{')) => depth += 1,
                Some(TokKind::Punct(')' | ']' | '}')) => depth -= 1,
                Some(TokKind::Punct('<')) => angle += 1,
                Some(TokKind::Punct('>')) if !lx.is_punct(k - 1, '-') => angle -= 1,
                Some(TokKind::Punct(';')) if depth == 0 => break,
                Some(TokKind::Punct('=')) if depth == 0 && angle == 0 && eq.is_none() => {
                    eq = Some(k);
                }
                _ => {}
            }
            k += 1;
        }
        let Some(eq) = eq else {
            return (None, k + 1);
        };
        let mut item = self.item(at, name.clone(), owner);
        item.is_data = true;
        scan_body(lx, eq + 1, k.min(to), owner, &mut item);
        (Some(item), k + 1)
    }

    /// A bodiless item for the declaration whose keyword sits at `at`.
    fn item(&self, at: usize, name: String, owner: Option<&str>) -> Item {
        let line = self.lx.toks[at].line;
        Item {
            crate_name: self.crate_name.to_string(),
            file: self.file.to_string(),
            line,
            owner: owner.map(str::to_string),
            arity: 0,
            has_self: false,
            is_pub: is_pub_at(self.lx, at),
            is_test: self.in_test(line),
            trait_method: false,
            is_data: false,
            name,
            calls: Vec::new(),
            refs: Vec::new(),
            sources: Vec::new(),
            panics: Vec::new(),
        }
    }
}

/// Count the comma-separated entries between paren indices `open` and
/// `close` (exclusive) and detect a leading `self`. The count includes a
/// `self` receiver: a signature subtracts it, a call site must not
/// (`f(self.now, a, b)` passes three arguments).
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
    (if saw_any { commas + 1 } else { 0 }, has_self)
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
                // A turbofish `f::<T>(…)` is a call too: the `(` follows
                // the `::<…>` group (`>` always lexes as one punct).
                let open = if lx.is_path_sep(i + 1) && lx.is_punct(i + 3, '<') {
                    matching_in(lx, i + 3, to, '<', '>').map_or(i + 1, |gt| gt + 1)
                } else {
                    i + 1
                };
                if lx.is_punct(open, '(') {
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
                    let qualifier = if method {
                        None
                    } else {
                        path_qualifier(lx, i, owner)
                    };
                    let Some(close) = matching_in(lx, open, to, '(', ')') else {
                        continue;
                    };
                    let (arity, _) = param_shape(lx, open, close);
                    let first_str = toks[open + 1..close].iter().find_map(|t| match &t.kind {
                        TokKind::Str(s) => Some(s.clone()),
                        _ => None,
                    });
                    let first_ident =
                        crate::rules::first_ident_arg(lx, open, close).map(str::to_string);
                    item.calls.push(CallSite {
                        name: name.clone(),
                        qualifier,
                        method,
                        arity,
                        line,
                        first_str,
                        first_ident,
                    });
                } else if is_const_name(name) {
                    // A constant mentioned anywhere: `FAMILIES.iter()`,
                    // `record(SENT, 1)`.
                    item.refs.push(RefSite {
                        name: name.clone(),
                        qualifier: None,
                        line,
                    });
                } else {
                    // Bare reference in argument, element or field
                    // position: `(tick)`, `[a, b]`, `jobs: fig7_jobs,`, or
                    // a `Type::f` value path there (`.map(Congestion::new)`).
                    let qualifier = path_qualifier(lx, i, owner);
                    let start = if qualifier.is_some() { i - 3 } else { i };
                    let field =
                        start >= 2 && lx.is_punct(start - 1, ':') && !lx.is_punct(start - 2, ':');
                    let prev_ok = field
                        || (start >= 1
                            && ['(', '[', ','].iter().any(|&c| lx.is_punct(start - 1, c)));
                    let next_ok = [')', ']', '}', ','].iter().any(|&c| lx.is_punct(i + 1, c));
                    if prev_ok
                        && next_ok
                        && !REF_EXCLUDED.contains(&name.as_str())
                        && !CALL_KEYWORDS.contains(&name.as_str())
                        && name.chars().next().is_some_and(char::is_lowercase)
                    {
                        item.refs.push(RefSite {
                            name: name.clone(),
                            qualifier,
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

/// The `Type` of a `Type::name` path whose last segment is the token at
/// `i` (`Self` rewritten to `owner`), or None when `i` is not preceded by
/// `Ident ::`.
fn path_qualifier(lx: &Lexed, i: usize, owner: Option<&str>) -> Option<String> {
    if i < 3 || !lx.is_path_sep(i - 2) {
        return None;
    }
    match lx.kind(i - 3) {
        Some(TokKind::Ident(q)) if q == "Self" => owner.map(str::to_string),
        Some(TokKind::Ident(q)) => Some(q.clone()),
        _ => None,
    }
}

/// Whether `name` is `SCREAMING_CASE`, the shape of a `static`/`const`.
fn is_const_name(name: &str) -> bool {
    name.len() > 1
        && name.starts_with(|c: char| c.is_ascii_uppercase())
        && name
            .chars()
            .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
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
    fn a_self_argument_counts_at_a_call_site() {
        // Only a signature's receiver is subtracted: `f(self.now, a, b)`
        // passes three arguments.
        let it = items(
            "impl Sim { fn record(&mut self, id: u32, v: u64) { \
             self.timeline.record(self.now, id, v); f(self, 1); } }",
        );
        assert_eq!((it[0].arity, it[0].has_self), (2, true));
        let call = |name: &str| it[0].calls.iter().find(|c| c.name == name).unwrap().arity;
        assert_eq!(call("record"), 3);
        assert_eq!(call("f"), 2);
    }

    #[test]
    fn static_and_const_initializers_are_data_items() {
        let it = items(
            "pub static FAMILIES: [Family; 1] = [Family { jobs: fig7_jobs, run: |s| go(s) }];\n\
             const SENT: MetricId = metric_id(\"clic.sent\");\n\
             const fn helper() -> u32 { 0 }\n\
             const ROWS: [(u8, u8); 2] = [(1, 2), (3, 4)];\n\
             fn user() { for f in FAMILIES.iter() {} record(SENT, 1); }",
        );
        let names: Vec<(&str, bool)> = it.iter().map(|i| (i.name.as_str(), i.is_data)).collect();
        assert_eq!(
            names,
            vec![
                ("FAMILIES", true),
                ("SENT", true),
                ("helper", false),
                ("ROWS", true),
                ("user", false)
            ]
        );
        assert!(it[0].is_pub);
        assert!(it[0].refs.iter().any(|r| r.name == "fig7_jobs"));
        assert!(it[0].calls.iter().any(|c| c.name == "go"));
        assert!(it[1].calls.iter().any(|c| c.name == "metric_id"));
        let mentioned: Vec<&str> = it[4].refs.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(mentioned, vec!["FAMILIES", "SENT"]);
    }

    #[test]
    fn type_paths_passed_as_values_are_qualified_refs() {
        let it = items(
            "impl Cell { fn get(&mut self) { self.h.get_or_insert_with(Self::fresh); } }\n\
             fn build(v: Vec<u32>) { v.iter().map(Congestion::new); v.sort_by_key(Item::sort_key); }",
        );
        let refs: Vec<(&str, Option<&str>)> = it
            .iter()
            .flat_map(|i| &i.refs)
            .map(|r| (r.name.as_str(), r.qualifier.as_deref()))
            .collect();
        assert_eq!(
            refs,
            vec![
                ("fresh", Some("Cell")),
                ("new", Some("Congestion")),
                ("sort_key", Some("Item"))
            ]
        );
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
