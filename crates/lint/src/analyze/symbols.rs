//! Workspace symbol table: every `fn`, `struct`, `enum`, `trait`, type
//! alias, `const` and `static` item with its definition site, span, `cfg`
//! attribution, impl owner, visibility, and `// lint:hot-path` annotation
//! state.
//!
//! Extraction runs over the *masked* text (comments and string contents
//! blanked, byte layout preserved — see [`crate::lexer`]), so the token
//! walk never trips over braces in strings or `fn` in prose. `cfg`
//! attribute bodies, which may hold string literals, are read back from
//! the original text at the same byte offsets, which the mask guarantees
//! line up.
//!
//! The parser is a single forward token walk with an explicit scope
//! stack: inline `mod`/`impl`/`trait` blocks push a scope carrying their
//! own `cfg` attributes (and the impl'd type name), so an item's full
//! cfg context is its own attributes plus every enclosing scope's. Items
//! inside `#[cfg(test)]` scopes are marked and excluded from the call
//! graph. `mod name;` declarations are collected separately so a file
//! gated at its declaration site (`#[cfg(test)] mod tests;`) inherits
//! that cfg for every symbol it defines.

use crate::lexer::is_ident_byte;
use crate::workspace::SourceFile;

/// One parsed `#[cfg(...)]` atom, conservatively classified.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CfgAtom {
    /// `#[cfg(test)]`.
    Test,
    /// Anything else (`not(test)`, `target_arch`, ...) — kept verbatim and
    /// treated as live for reachability (over-approximation keeps it
    /// sound: we would rather scan dead code than skip live code).
    Other(String),
}

impl CfgAtom {
    /// Whether code under this atom is compiled outside tests.
    pub fn live(&self) -> bool {
        !matches!(self, CfgAtom::Test)
    }
}

/// One function item.
#[derive(Debug, Clone)]
pub struct FnSym {
    /// Function name.
    pub name: String,
    /// Index of the defining file in the analyzer's file list.
    pub file: usize,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Byte offset of the `fn` keyword.
    pub offset: usize,
    /// Body span `[open_brace, one_past_close)`; `None` for bodyless trait
    /// method declarations.
    pub body: Option<(usize, usize)>,
    /// The impl'd / trait type name of the nearest enclosing scope, if any.
    pub owner: Option<String>,
    /// Full cfg context: own attributes, then enclosing scopes, then the
    /// file's `mod` declaration chain.
    pub cfg: Vec<CfgAtom>,
    /// Line the item header starts on (first attribute, or the `fn` line)
    /// — the window a `// lint:hot-path` annotation must land in.
    pub header_line: usize,
    /// `true` when a `// lint:hot-path` annotation covers this fn.
    pub hot_annotated: bool,
    /// `true` when declared plain `pub` (not `pub(crate)` and the like).
    pub public: bool,
}

impl FnSym {
    /// `true` when any cfg atom is `test`.
    pub fn test_only(&self) -> bool {
        self.cfg.contains(&CfgAtom::Test)
    }
}

/// One item that is not a fn: a `struct` or `enum`, through whose field
/// types the call graph resolves receivers, or a `trait`, type alias,
/// `const` or `static`.
#[derive(Debug, Clone)]
pub struct TypeSym {
    /// Item name.
    pub name: String,
    /// The item keyword (`struct`, `enum`, `trait`, `type`, `const`,
    /// `static`).
    pub kind: &'static str,
    /// Defining file index.
    pub file: usize,
    /// 1-based line of the keyword.
    pub line: usize,
    /// Item span `[keyword, one past its closing brace or semicolon)`.
    pub span: (usize, usize),
    /// The impl'd type of an associated `const`.
    pub owner: Option<String>,
    /// `true` when declared plain `pub`.
    pub public: bool,
    /// Full cfg context (own + enclosing scopes + file).
    pub cfg: Vec<CfgAtom>,
    /// Named fields of a braced struct: `(field name, type idents)`. The
    /// ident list is every identifier in the field's type expression
    /// (`Option<ControlFsm>` → `["Option", "ControlFsm"]`), which lets the
    /// call graph resolve `self.field.method()` receivers through wrapper
    /// types without modelling generics.
    pub fields: Vec<(String, Vec<String>)>,
}

/// A `mod name;` declaration with its cfg attributes.
#[derive(Debug, Clone)]
pub struct ModDecl {
    /// Declared module name.
    pub name: String,
    /// Declaring file index.
    pub file: usize,
    /// The declaration's own cfg attributes plus enclosing scopes'.
    pub cfg: Vec<CfgAtom>,
}

/// A `// lint:hot-path` annotation comment.
#[derive(Debug, Clone)]
pub struct Annotation {
    /// File index.
    pub file: usize,
    /// 1-based line of the annotation comment.
    pub line: usize,
    /// The line the annotation targets (its own for trailing comments, the
    /// line after the comment block otherwise).
    pub target: usize,
}

/// Everything extracted from one file.
#[derive(Debug, Default)]
pub struct FileSymbols {
    /// Function items, in file order.
    pub fns: Vec<FnSym>,
    /// Type items, in file order.
    pub types: Vec<TypeSym>,
    /// `mod name;` declarations.
    pub mod_decls: Vec<ModDecl>,
    /// `// lint:hot-path` annotations.
    pub annotations: Vec<Annotation>,
}

/// The comment directive that marks a hot-path root at its definition
/// site.
pub const HOT_PATH_DIRECTIVE: &str = "lint:hot-path";

#[derive(Debug)]
struct Scope {
    /// cfg atoms this scope contributes.
    cfg: Vec<CfgAtom>,
    /// Impl'd / trait type name, if this scope is an impl/trait block.
    owner: Option<String>,
}

/// Idents that may sit between buffered attributes and the item keyword
/// without discarding the attributes.
const ITEM_PREFIXES: [&str; 9] = [
    "pub", "crate", "super", "self", "in", "async", "unsafe", "const", "extern",
];

/// Extracts all symbols from one masked file. `file` is the caller's index
/// for this file.
pub fn extract(file: usize, f: &SourceFile) -> FileSymbols {
    let masked = &f.masked.text;
    let original = &f.text;
    let bytes = masked.as_bytes();
    let mut out = FileSymbols::default();

    // Annotations come straight from the comment list. Adjacent comment
    // lines coalesce into one block, and the directive usually sits on the
    // last line of a doc block — so every line of the block is checked,
    // not just its head.
    for c in &f.masked.comments {
        let directive_line = c.text.lines().position(|l| {
            l.trim_start()
                .trim_start_matches(['/', '!', '*'])
                .trim_start()
                .starts_with(HOT_PATH_DIRECTIVE)
        });
        if let Some(off) = directive_line {
            let target = if c.trailing {
                c.start_line
            } else {
                c.end_line + 1
            };
            out.annotations.push(Annotation {
                file,
                line: c.start_line + off,
                target,
            });
        }
    }

    let mut scopes: Vec<Scope> = Vec::new();
    // A parsed mod/impl/trait header waiting for its `{`.
    let mut pending_scope: Option<Scope> = None;
    // Attribute cfg atoms + the line of the first buffered attribute.
    let mut attrs: Vec<CfgAtom> = Vec::new();
    let mut attr_line: Option<usize> = None;

    let mut i = 0usize;
    while i < bytes.len() {
        let b = bytes[i];
        if b.is_ascii_whitespace() {
            i += 1;
            continue;
        }
        // Attribute: `#[...]` buffers; `#![...]` (inner) is skipped.
        if b == b'#' && bytes.get(i + 1) == Some(&b'[') {
            let end = bracket_end(bytes, i + 1);
            if attr_line.is_none() {
                attr_line = Some(f.masked.line_of(i));
            }
            if let Some(atom) = parse_cfg_attr(&original[i..end]) {
                attrs.push(atom);
            }
            i = end;
            continue;
        }
        if b == b'#' && bytes.get(i + 1) == Some(&b'!') && bytes.get(i + 2) == Some(&b'[') {
            i = bracket_end(bytes, i + 2);
            continue;
        }
        if b == b'{' {
            scopes.push(pending_scope.take().unwrap_or(Scope {
                cfg: std::mem::take(&mut attrs),
                owner: None,
            }));
            attr_line = None;
            i += 1;
            continue;
        }
        if b == b'}' {
            scopes.pop();
            pending_scope = None;
            attrs.clear();
            attr_line = None;
            i += 1;
            continue;
        }
        if is_ident_byte(b) {
            let start = i;
            while i < bytes.len() && is_ident_byte(bytes[i]) {
                i += 1;
            }
            let word = &masked[start..i];
            match word {
                "fn" => {
                    let (sym, next) = parse_fn(
                        file, f, bytes, masked, i, start, &scopes, &attrs, attr_line, &out,
                    );
                    if let Some(s) = sym {
                        out.fns.push(s);
                    }
                    attrs.clear();
                    attr_line = None;
                    i = next;
                }
                "struct" | "enum" => {
                    let kind = if word == "struct" { "struct" } else { "enum" };
                    let (sym, next) =
                        parse_type(file, f, bytes, masked, i, start, kind, &scopes, &attrs);
                    if let Some(s) = sym {
                        out.types.push(s);
                    }
                    attrs.clear();
                    attr_line = None;
                    i = next;
                }
                "mod" => {
                    let (name, next) = next_ident(bytes, masked, i);
                    let after = skip_ws(bytes, next);
                    if bytes.get(after) == Some(&b';') {
                        // `mod name;` — a file-level cfg gate.
                        let mut cfg: Vec<CfgAtom> =
                            scopes.iter().flat_map(|s| s.cfg.clone()).collect();
                        cfg.append(&mut attrs);
                        out.mod_decls.push(ModDecl { name, file, cfg });
                        i = after + 1;
                    } else {
                        // Inline module: its `{` consumes the attrs.
                        pending_scope = Some(Scope {
                            cfg: std::mem::take(&mut attrs),
                            owner: None,
                        });
                        i = next;
                    }
                    attr_line = None;
                }
                "impl" => {
                    let (owner, next) = parse_impl_owner(bytes, masked, i);
                    pending_scope = Some(Scope {
                        cfg: std::mem::take(&mut attrs),
                        owner,
                    });
                    attr_line = None;
                    i = next;
                }
                "trait" => {
                    let (name, next) = next_ident(bytes, masked, i);
                    let open = next + masked[next..].find(['{', ';']).unwrap_or(0);
                    let end = match bytes.get(open) {
                        Some(b'{') => {
                            crate::lexer::matching_brace(bytes, open).map_or(open, |c| c + 1)
                        }
                        _ => open,
                    };
                    let sym = item_sym(
                        file,
                        f,
                        "trait",
                        name.clone(),
                        (start, end),
                        &scopes,
                        &attrs,
                    );
                    out.types.push(sym);
                    pending_scope = Some(Scope {
                        cfg: std::mem::take(&mut attrs),
                        owner: Some(name),
                    });
                    attr_line = None;
                    i = next;
                }
                "const" | "static" | "type" if start == 0 || bytes[start - 1] != b'\'' => {
                    let (mut name, mut next) = next_ident(bytes, masked, i);
                    if name == "mut" {
                        (name, next) = next_ident(bytes, masked, next);
                    }
                    // `const fn` and the like: a prefix of the fn item.
                    if !matches!(name.as_str(), "fn" | "unsafe" | "async" | "extern") {
                        let end = stmt_end(bytes, next);
                        if !name.is_empty() && name != "_" {
                            let kind = match word {
                                "const" => "const",
                                "static" => "static",
                                _ => "type",
                            };
                            let sym = item_sym(file, f, kind, name, (start, end), &scopes, &attrs);
                            out.types.push(sym);
                        }
                        attrs.clear();
                        attr_line = None;
                        i = end;
                    }
                }
                w if ITEM_PREFIXES.contains(&w) => {}
                "use" | "union" | "macro_rules" => {
                    // Items the analyzer does not model: their attrs are
                    // consumed so they cannot leak onto the next item.
                    attrs.clear();
                    attr_line = None;
                }
                _ => {
                    // Expression/statement identifier — any buffered attrs
                    // belonged to a construct we do not model.
                    attrs.clear();
                    attr_line = None;
                }
            }
            continue;
        }
        // Punctuation. `;`/`=` terminate whatever the attrs annotated.
        if b == b';' || b == b'=' {
            attrs.clear();
            attr_line = None;
        }
        i += 1;
    }
    out
}

#[allow(clippy::too_many_arguments)]
fn parse_fn(
    file: usize,
    f: &SourceFile,
    bytes: &[u8],
    masked: &str,
    after_kw: usize,
    kw_start: usize,
    scopes: &[Scope],
    attrs: &[CfgAtom],
    attr_line: Option<usize>,
    out: &FileSymbols,
) -> (Option<FnSym>, usize) {
    let (name, mut i) = next_ident(bytes, masked, after_kw);
    if name.is_empty() {
        return (None, after_kw);
    }
    // Find the body `{` (or the `;` of a bodyless trait method), skipping
    // the signature. Parens/brackets are skipped as groups so default
    // closure arguments cannot confuse the scan.
    let body = loop {
        i = skip_ws(bytes, i);
        match bytes.get(i) {
            Some(b'(') | Some(b'[') => i = group_end(bytes, i),
            Some(b'{') => {
                let close = crate::lexer::matching_brace(bytes, i);
                match close {
                    Some(c) => break Some((i, c + 1)),
                    None => break None,
                }
            }
            Some(b';') => {
                i += 1;
                break None;
            }
            Some(_) => i += 1,
            None => break None,
        }
    };
    let end = body.map(|(_, e)| e).unwrap_or(i);
    let line = f.masked.line_of(kw_start);
    let header_line = attr_line.unwrap_or(line);
    let mut cfg: Vec<CfgAtom> = scopes.iter().flat_map(|s| s.cfg.clone()).collect();
    cfg.extend(attrs.iter().cloned());
    let owner = scopes.iter().rev().find_map(|s| s.owner.clone());
    let hot_annotated = out
        .annotations
        .iter()
        .any(|a| a.target >= header_line && a.target <= line);
    (
        Some(FnSym {
            name,
            file,
            line,
            offset: kw_start,
            body,
            owner,
            cfg,
            header_line,
            hot_annotated,
            public: is_pub(masked, kw_start),
        }),
        end,
    )
}

#[allow(clippy::too_many_arguments)]
fn parse_type(
    file: usize,
    f: &SourceFile,
    bytes: &[u8],
    masked: &str,
    after_kw: usize,
    kw_start: usize,
    kind: &'static str,
    scopes: &[Scope],
    attrs: &[CfgAtom],
) -> (Option<TypeSym>, usize) {
    let (name, mut i) = next_ident(bytes, masked, after_kw);
    if name.is_empty() {
        return (None, after_kw);
    }
    // Skip generics, then take the `{...}` / `(...)` body or the `;`.
    let mut body = None;
    loop {
        i = skip_ws(bytes, i);
        match bytes.get(i) {
            Some(b'<') => i = angle_end(bytes, i),
            Some(b'{') => {
                if let Some(c) = crate::lexer::matching_brace(bytes, i) {
                    body = Some((i, c + 1));
                    i = c + 1;
                }
                break;
            }
            Some(b'(') => {
                let e = group_end(bytes, i);
                body = Some((i, e));
                i = e;
                break;
            }
            Some(b';') => {
                i += 1;
                break;
            }
            Some(_) => i += 1,
            None => break,
        }
    }
    let mut sym = item_sym(file, f, kind, name, (kw_start, i), scopes, attrs);
    if let Some((s, e)) = body.filter(|&(s, _)| kind == "struct" && bytes[s] == b'{') {
        sym.fields = struct_fields(&masked[s..e]);
    }
    (Some(sym), i)
}

/// A non-fn item spanning `span`, its cfg and owner taken from the
/// enclosing scopes and its own attributes.
fn item_sym(
    file: usize,
    f: &SourceFile,
    kind: &'static str,
    name: String,
    span: (usize, usize),
    scopes: &[Scope],
    attrs: &[CfgAtom],
) -> TypeSym {
    let mut cfg: Vec<CfgAtom> = scopes.iter().flat_map(|s| s.cfg.clone()).collect();
    cfg.extend(attrs.iter().cloned());
    TypeSym {
        name,
        kind,
        file,
        line: f.masked.line_of(span.0),
        span,
        owner: scopes.iter().rev().find_map(|s| s.owner.clone()),
        public: is_pub(&f.masked.text, span.0),
        cfg,
        fields: Vec::new(),
    }
}

/// `true` when the item whose keyword starts at `kw` is declared plain
/// `pub` (`pub const fn` included, `pub(crate)` not).
fn is_pub(masked: &str, kw: usize) -> bool {
    let mut head = masked[..kw].trim_end();
    loop {
        let word = head
            .rfind(|c: char| !is_ident_byte(c as u8) || !c.is_ascii())
            .map_or(0, |p| p + 1);
        match &head[word..] {
            "const" | "unsafe" | "async" | "extern" => head = head[..word].trim_end(),
            w => return w == "pub",
        }
    }
}

/// One past the first `;` at bracket depth 0 from `i`: the end of a
/// `const`, `static` or `type` item.
fn stmt_end(bytes: &[u8], mut i: usize) -> usize {
    let mut depth = 0usize;
    while i < bytes.len() {
        match bytes[i] {
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' | b'}' => depth = depth.saturating_sub(1),
            b';' if depth == 0 => return i + 1,
            _ => {}
        }
        i += 1;
    }
    bytes.len()
}

/// Named fields of a braced struct body (masked text, outer braces
/// included): `(name, type idents)` pairs. Angle brackets count as nesting
/// so generic argument commas (`BTreeMap<K, V>`) do not split fields —
/// struct bodies are pure type position, where `<` is never a comparison.
fn struct_fields(masked: &str) -> Vec<(String, Vec<String>)> {
    let bytes = masked.as_bytes();
    let mut out: Vec<(String, Vec<String>)> = Vec::new();
    let mut cur: Option<(String, Vec<String>)> = None;
    let mut last_ident: Option<(usize, usize)> = None;
    let mut depth = 0i32;
    let mut i = 0usize;
    while i < bytes.len() {
        let b = bytes[i];
        match b {
            b'{' | b'(' | b'[' | b'<' => {
                depth += 1;
                i += 1;
            }
            b'-' if bytes.get(i + 1) == Some(&b'>') => i += 2,
            b'}' | b')' | b']' | b'>' => {
                depth -= 1;
                i += 1;
            }
            b':' if depth == 1
                && bytes.get(i + 1) != Some(&b':')
                && (i == 0 || bytes[i - 1] != b':') =>
            {
                if let Some((s, e)) = last_ident {
                    if let Some(f) = cur.take() {
                        out.push(f);
                    }
                    cur = Some((masked[s..e].to_string(), Vec::new()));
                }
                i += 1;
            }
            b',' if depth == 1 => {
                if let Some(f) = cur.take() {
                    out.push(f);
                }
                last_ident = None;
                i += 1;
            }
            _ if is_ident_byte(b) => {
                let s = i;
                while i < bytes.len() && is_ident_byte(bytes[i]) {
                    i += 1;
                }
                last_ident = Some((s, i));
                if let Some((_, tys)) = cur.as_mut() {
                    let w = &masked[s..i];
                    if !bytes[s].is_ascii_digit() && !matches!(w, "dyn" | "mut" | "const" | "pub") {
                        tys.push(w.to_string());
                    }
                }
            }
            _ => i += 1,
        }
    }
    if let Some(f) = cur.take() {
        out.push(f);
    }
    out
}

/// The impl'd type name: `impl Foo {` → `Foo`, `impl Trait for Bar {` →
/// `Bar`, `impl<T> Producer<T> {` → `Producer`.
pub(crate) fn parse_impl_owner(
    bytes: &[u8],
    masked: &str,
    after_kw: usize,
) -> (Option<String>, usize) {
    let mut i = skip_ws(bytes, after_kw);
    // Leading generics parameter list.
    if bytes.get(i) == Some(&b'<') {
        i = angle_end(bytes, i);
    }
    let mut first: Option<String> = None;
    let mut after_for: Option<String> = None;
    let mut saw_for = false;
    while i < bytes.len() && bytes[i] != b'{' && bytes[i] != b';' {
        let b = bytes[i];
        if b == b'<' {
            i = angle_end(bytes, i);
            continue;
        }
        if b == b'-' && bytes.get(i + 1) == Some(&b'>') {
            i += 2;
            continue;
        }
        if is_ident_byte(b) {
            let start = i;
            while i < bytes.len() && is_ident_byte(bytes[i]) {
                i += 1;
            }
            let word = &masked[start..i];
            if word == "for" {
                saw_for = true;
            } else if word == "where" {
                break;
            } else if word != "dyn" && word != "mut" {
                if saw_for {
                    if after_for.is_none() {
                        after_for = Some(word.to_string());
                    }
                } else if first.is_none() {
                    first = Some(word.to_string());
                }
            }
            continue;
        }
        i += 1;
    }
    (after_for.or(first), i)
}

fn next_ident(bytes: &[u8], masked: &str, from: usize) -> (String, usize) {
    let mut i = skip_ws(bytes, from);
    let start = i;
    while i < bytes.len() && is_ident_byte(bytes[i]) {
        i += 1;
    }
    (masked[start..i].to_string(), i)
}

fn skip_ws(bytes: &[u8], mut i: usize) -> usize {
    while i < bytes.len() && bytes[i].is_ascii_whitespace() {
        i += 1;
    }
    i
}

/// One past the `]` matching the `[` at `open`.
fn bracket_end(bytes: &[u8], open: usize) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < bytes.len() {
        match bytes[i] {
            b'[' => depth += 1,
            b']' => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    bytes.len()
}

/// One past the delimiter matching the `(`/`[` at `open`.
fn group_end(bytes: &[u8], open: usize) -> usize {
    let (o, c) = match bytes[open] {
        b'(' => (b'(', b')'),
        _ => (b'[', b']'),
    };
    let mut depth = 0usize;
    let mut i = open;
    while i < bytes.len() {
        if bytes[i] == o {
            depth += 1;
        } else if bytes[i] == c {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    bytes.len()
}

/// One past the `>` matching the `<` at `open`; `->` pairs are skipped so
/// return-type arrows never close a generic group.
fn angle_end(bytes: &[u8], open: usize) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < bytes.len() {
        match bytes[i] {
            b'<' => depth += 1,
            b'-' if bytes.get(i + 1) == Some(&b'>') => {
                i += 2;
                continue;
            }
            b'>' => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    bytes.len()
}

/// Statement-level `#[cfg(...)]` guards inside a body.
///
/// Item-level cfg lands on [`FnSym::cfg`]; but this workspace also guards
/// individual statements, arguments, and struct-literal fields. For each
/// such attribute this
/// returns the byte range of the guarded statement/expression — attr end
/// to the first `;`/`,` at depth 0 or the close of the guarded block
/// (including `else` chains) — plus the parsed atom. Call sites and sinks
/// inside the range inherit the atom.
///
/// `masked` and `original` are the same byte span of the file (masked for
/// structure, original for the attribute text).
pub fn stmt_guards(masked: &str, original: &str) -> Vec<(std::ops::Range<usize>, CfgAtom)> {
    let bytes = masked.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i + 1 < bytes.len() {
        if !(bytes[i] == b'#' && bytes[i + 1] == b'[') {
            i += 1;
            continue;
        }
        let end = bracket_end(bytes, i + 1);
        let atom = parse_cfg_attr(&original[i..end]);
        let attr_start = i;
        i = end;
        let Some(atom) = atom else { continue };
        // Walk to the end of the guarded statement.
        let mut j = end;
        let mut depth = 0usize;
        let stop = loop {
            if j >= bytes.len() {
                break bytes.len();
            }
            match bytes[j] {
                b'(' | b'[' | b'{' => depth += 1,
                b')' | b']' => depth = depth.saturating_sub(1),
                b'}' => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        let k = skip_ws(bytes, j + 1);
                        if !masked[k..].starts_with("else") {
                            break j + 1;
                        }
                    }
                }
                b';' if depth == 0 => break j + 1,
                b',' if depth == 0 => break j,
                _ => {}
            }
            j += 1;
        };
        out.push((attr_start..stop, atom));
    }
    out
}

/// Parses one attribute's text (original, unmasked) into a cfg atom.
/// Returns `None` for non-cfg attributes.
fn parse_cfg_attr(attr: &str) -> Option<CfgAtom> {
    let inner = attr.strip_prefix("#[")?.trim_start();
    let rest = inner.strip_prefix("cfg")?.trim_start();
    let rest = rest.strip_prefix('(')?;
    // Up to the matching close paren (the attr text ends `...)]`).
    let body = rest.strip_suffix("]")?.trim_end().strip_suffix(')')?.trim();
    Some(classify_cfg(body))
}

fn classify_cfg(body: &str) -> CfgAtom {
    let body = body.trim();
    if body == "test" {
        return CfgAtom::Test;
    }
    CfgAtom::Other(body.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::SourceFile;

    fn syms(src: &str) -> FileSymbols {
        extract(0, &SourceFile::from_text("x.rs", src.to_string()))
    }

    #[test]
    fn finds_free_fns_and_methods_with_owners() {
        let s = syms(
            "pub fn alpha() { beta(); }\nimpl Ring { pub fn push(&mut self) {} }\nimpl<T: Send> Deref for Pad<T> { fn deref(&self) {} }\n",
        );
        assert_eq!(s.fns.len(), 3);
        assert_eq!(s.fns[0].name, "alpha");
        assert_eq!(s.fns[0].owner, None);
        assert_eq!(s.fns[1].name, "push");
        assert_eq!(s.fns[1].owner.as_deref(), Some("Ring"));
        assert_eq!(s.fns[2].name, "deref");
        assert_eq!(s.fns[2].owner.as_deref(), Some("Pad"));
    }

    #[test]
    fn cfg_attribution_through_scopes_and_attrs() {
        let s = syms(
            "#[cfg(target_arch = \"x86_64\")]\nmod simd {\n    pub fn record() {}\n}\n#[cfg(not(test))]\npub fn record() {}\n#[cfg(test)]\nmod tests { fn t() {} }\n",
        );
        assert_eq!(s.fns.len(), 3);
        let arch = CfgAtom::Other("target_arch = \"x86_64\"".to_string());
        assert_eq!(s.fns[0].cfg, vec![arch]);
        assert_eq!(s.fns[1].cfg, vec![CfgAtom::Other("not(test)".to_string())]);
        assert!(s.fns[2].test_only());
        assert!(s.fns[0].cfg.iter().all(CfgAtom::live));
        assert!(!s.fns[1].test_only());
    }

    #[test]
    fn mod_decls_carry_cfg() {
        let s = syms("#[cfg(test)]\nmod tests;\npub mod fabric;\n");
        assert_eq!(s.mod_decls.len(), 2);
        assert_eq!(s.mod_decls[0].name, "tests");
        assert_eq!(s.mod_decls[0].cfg, vec![CfgAtom::Test]);
        assert!(s.mod_decls[1].cfg.is_empty());
    }

    #[test]
    fn hot_path_annotation_attaches_through_attributes() {
        let s = syms(
            "// lint:hot-path\n#[inline]\npub fn fast() {}\n\npub fn cold() {}\n// lint:hot-path\npub struct NotAFn;\n",
        );
        assert_eq!(s.fns.len(), 2);
        assert!(s.fns[0].hot_annotated, "annotation spans the attr block");
        assert!(!s.fns[1].hot_annotated);
        assert_eq!(s.annotations.len(), 2);
    }

    #[test]
    fn every_type_shape_is_recorded() {
        let src = "struct Z;\nstruct F { a: u32 }\nstruct T(u8);\nenum E { A, B }\npub const C: [u8; 2] = [0; 2];\npub(crate) static mut S: u8 = 0;\npub type A = Vec<u8>;\npub trait R { fn r(&self); }\nimpl F { pub const K: u32 = 2; }\nconst fn f() {}\n";
        let s = syms(src);
        let shapes: Vec<(&str, &str, bool)> = s
            .types
            .iter()
            .map(|t| (t.name.as_str(), t.kind, t.public))
            .collect();
        assert_eq!(
            shapes,
            [
                ("Z", "struct", false),
                ("F", "struct", false),
                ("T", "struct", false),
                ("E", "enum", false),
                ("C", "const", true),
                ("S", "static", false),
                ("A", "type", true),
                ("R", "trait", true),
                ("K", "const", true),
            ],
            "`const fn` is a fn, not a const"
        );
        assert_eq!(s.types[3].line, 4);
        let text = |t: &TypeSym| &src[t.span.0..t.span.1];
        assert_eq!(text(&s.types[4]), "const C: [u8; 2] = [0; 2];");
        assert_eq!(text(&s.types[7]), "trait R { fn r(&self); }");
        assert_eq!(s.types[8].owner.as_deref(), Some("F"));
        assert_eq!(s.types[4].owner, None);
    }

    #[test]
    fn struct_fields_carry_type_idents() {
        let s = syms(
            "pub struct Fabric {\n    fsm: ControlFsm,\n    pub map: BTreeMap<u32, SlotState>,\n    shared: std::sync::Arc<SharedPressure>,\n}\nstruct T(u8);\n",
        );
        let f = &s.types[0].fields;
        assert_eq!(f.len(), 3, "{f:?}");
        assert_eq!(f[0], ("fsm".to_string(), vec!["ControlFsm".to_string()]));
        assert_eq!(f[1].0, "map");
        assert!(
            f[1].1.contains(&"SlotState".to_string()),
            "generic args kept"
        );
        assert!(
            f[2].1.contains(&"SharedPressure".to_string()),
            "path types kept"
        );
        assert!(
            s.types[1].fields.is_empty(),
            "tuple structs have no named fields"
        );
    }

    #[test]
    fn stmt_guards_cover_statements_and_blocks() {
        let src = "{\n    #[cfg(test)]\n    gate.tick();\n    always();\n    #[cfg(debug_assertions)]\n    if armed { inject(); } else { skip(); }\n    after();\n}";
        let guards = stmt_guards(src, src);
        assert_eq!(guards.len(), 2);
        let at = |needle: &str| src.find(needle).expect("needle present");
        assert!(guards[0].0.contains(&at("gate.tick")));
        assert!(!guards[0].0.contains(&at("always")));
        assert_eq!(guards[0].1, CfgAtom::Test);
        assert!(guards[1].0.contains(&at("inject")));
        assert!(guards[1].0.contains(&at("skip")), "else chain is guarded");
        assert!(!guards[1].0.contains(&at("after")));
    }

    #[test]
    fn bodyless_trait_methods_have_no_body() {
        let s = syms("trait Rank { fn rank(&self) -> u64; fn with_default(&self) -> u64 { 0 } }");
        assert_eq!(s.fns.len(), 2);
        assert!(s.fns[0].body.is_none());
        assert!(s.fns[1].body.is_some());
        assert_eq!(s.fns[0].owner.as_deref(), Some("Rank"));
    }
}
