//! Conservative workspace call graph over the symbol table, plus the
//! `call-graph` rule that keeps `// lint:hot-path` annotations honest.
//!
//! Edges are extracted from each function body by token shape:
//!
//! * `name(...)` — a bare call: resolved in the defining file first, then
//!   the defining crate (free functions), never wider.
//! * `Qual::name(...)` — a path call: resolved to symbols named `name`
//!   whose impl owner or defining module matches `Qual` (with `self`/
//!   `Self`/`crate` resolving to the caller's own file/owner); an
//!   unmatched qualifier falls back to any same-crate symbol of that name.
//! * `recv.name(...)` — a method call: resolved *through the receiver's
//!   type*. A `self.method()` receiver targets methods of the caller's
//!   own impl type; a `self.field.method()` (or deeper) chain walks the
//!   owner struct's field types — matching any ident in the field's type
//!   expression, so `Arc<SharedPressure>` resolves through the wrapper —
//!   and targets methods of the resulting type set. Receivers that are
//!   not a `self`-rooted field chain (locals, call results, derefs) stay
//!   unresolved: a method on an unknown receiver is indistinguishable
//!   from a `std` method of the same name, and name-matching those
//!   produced systematic false edges (`MaybeUninit::write` is not the
//!   SRAM model's `write`).
//!
//! Resolution is *conservative by over-approximation* within those
//! policies: a name that matches several symbols produces an edge to
//! each. Calls that resolve to nothing are external (`std`, shims) and
//! terminate the walk — the forbidden-token scan inside each body is
//! what catches external sinks like `Vec::new` or `format!`.
//!
//! Only product code enters the graph: files under a `tests/`, `benches/`,
//! `examples/`, or `shims/` path component are excluded, as are
//! `#[cfg(test)]` items inside product files.

use super::symbols::{self, Annotation, FileSymbols, FnSym, ModDecl, TypeSym};
use crate::config::Config;
use crate::lexer::is_ident_byte;
use crate::rules::find_token;
use crate::workspace::{SourceFile, Workspace};
use crate::Report;
use std::collections::BTreeMap;

/// The rule id.
pub const ID: &str = "call-graph";

/// How a call site was written — kept for witness-path rendering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallKind {
    /// `name(...)`.
    Bare,
    /// `Qual::name(...)`.
    Path,
    /// `recv.name(...)`.
    Method,
}

/// One resolved call edge.
#[derive(Debug, Clone)]
pub struct Edge {
    /// Callee symbol index (into [`Analysis::fns`]).
    pub callee: usize,
    /// 1-based line of the call site in the caller's file.
    pub line: usize,
    /// Call shape.
    pub kind: CallKind,
    /// Statement-level `#[cfg(...)]` guards covering the call site.
    pub cfg: Vec<symbols::CfgAtom>,
}

/// One forbidden-token hit inside a function body.
#[derive(Debug, Clone)]
pub struct Sink {
    /// The forbidden token.
    pub token: String,
    /// 1-based line of the hit.
    pub line: usize,
    /// Statement-level `#[cfg(...)]` guards covering the hit.
    pub cfg: Vec<symbols::CfgAtom>,
}

/// The analyzed workspace: symbol table, call graph, sinks.
#[derive(Debug)]
pub struct Analysis<'ws> {
    /// The underlying workspace.
    pub ws: &'ws Workspace,
    /// Files in graph scope, as `(workspace file index, rel path)`.
    pub files: Vec<usize>,
    /// All product-code function symbols.
    pub fns: Vec<FnSym>,
    /// All product-code type symbols.
    pub types: Vec<TypeSym>,
    /// Outgoing edges per function.
    pub edges: Vec<Vec<Edge>>,
    /// Forbidden-token hits per function body.
    pub sinks: Vec<Vec<Sink>>,
    /// Every `// lint:hot-path` annotation (matched or not).
    pub annotations: Vec<Annotation>,
    /// Annotations that did not attach to any function.
    pub orphan_annotations: Vec<Annotation>,
    /// name → symbol indices.
    by_name: BTreeMap<String, Vec<usize>>,
}

/// `true` when `rel` holds product code (enters the call graph).
pub fn in_graph_scope(rel: &str) -> bool {
    !rel.split('/').any(|c| {
        c == "tests" || c == "benches" || c == "examples" || c == "shims" || c == "fixtures"
    })
}

/// The crate prefix of a path (`crates/core/src/fabric.rs` → `crates/core`,
/// `src/lib.rs` → `src`).
pub fn crate_prefix(rel: &str) -> &str {
    match rel.strip_prefix("crates/") {
        Some(rest) => &rel[..7 + rest.find('/').unwrap_or(rest.len())],
        None => rel.split('/').next().unwrap_or(rel),
    }
}

/// The file's module stem (`crates/core/src/fabric.rs` → `fabric`).
fn module_stem(rel: &str) -> &str {
    let stem = rel
        .rsplit('/')
        .next()
        .unwrap_or(rel)
        .trim_end_matches(".rs");
    if stem == "mod" || stem == "lib" {
        // `a/mod.rs` → `a`; `lib.rs` → crate name-ish (unused).
        let mut parts = rel.rsplit('/');
        parts.next();
        parts.next().unwrap_or(stem)
    } else {
        stem
    }
}

impl<'ws> Analysis<'ws> {
    /// Builds the symbol table and call graph for the workspace.
    pub fn build(ws: &'ws Workspace, cfg: &Config) -> Analysis<'ws> {
        let mut files = Vec::new();
        let mut per_file: Vec<FileSymbols> = Vec::new();
        for (i, f) in ws.files.iter().enumerate() {
            if in_graph_scope(&f.rel) {
                per_file.push(symbols::extract(files.len(), f));
                files.push(i);
            }
        }

        // File-level cfg from `mod name;` declaration sites: the decl in
        // `crates/x/src/lib.rs` (or `.../m/mod.rs`) gates `crates/x/src/name.rs`
        // and `crates/x/src/name/mod.rs`.
        let mut mod_cfgs: BTreeMap<String, Vec<symbols::CfgAtom>> = BTreeMap::new();
        for (fi, fs) in per_file.iter().enumerate() {
            let rel = &ws.files[files[fi]].rel;
            let dir = match rel.rfind('/') {
                Some(p) => &rel[..p],
                None => "",
            };
            for ModDecl { name, cfg, .. } in &fs.mod_decls {
                if cfg.is_empty() {
                    continue;
                }
                for target in [format!("{dir}/{name}.rs"), format!("{dir}/{name}/mod.rs")] {
                    let t = target.trim_start_matches('/').to_string();
                    mod_cfgs.entry(t).or_default().extend(cfg.iter().cloned());
                }
            }
        }

        let mut fns = Vec::new();
        let mut types = Vec::new();
        let mut annotations = Vec::new();
        for (fi, fs) in per_file.into_iter().enumerate() {
            let rel = &ws.files[files[fi]].rel;
            let file_cfg = mod_cfgs.get(rel.as_str()).cloned().unwrap_or_default();
            for mut s in fs.fns {
                s.cfg.extend(file_cfg.iter().cloned());
                fns.push(s);
            }
            for mut t in fs.types {
                t.cfg.extend(file_cfg.iter().cloned());
                types.push(t);
            }
            annotations.extend(fs.annotations);
        }

        let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (i, s) in fns.iter().enumerate() {
            if !s.test_only() {
                by_name.entry(s.name.clone()).or_default().push(i);
            }
        }

        let mut analysis = Analysis {
            ws,
            files,
            fns,
            types,
            edges: Vec::new(),
            sinks: Vec::new(),
            annotations,
            orphan_annotations: Vec::new(),
            by_name,
        };
        analysis.orphan_annotations = analysis.find_orphans();
        analysis.extract_edges_and_sinks(cfg);
        analysis
    }

    /// The workspace source file a symbol lives in.
    pub fn file_of(&self, sym: &FnSym) -> &SourceFile {
        &self.ws.files[self.files[sym.file]]
    }

    /// All symbols named `name`.
    pub fn named(&self, name: &str) -> &[usize] {
        self.by_name.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    fn find_orphans(&self) -> Vec<Annotation> {
        self.annotations
            .iter()
            .filter(|a| {
                !self
                    .fns
                    .iter()
                    .any(|s| s.file == a.file && a.target >= s.header_line && a.target <= s.line)
            })
            .cloned()
            .collect()
    }

    fn extract_edges_and_sinks(&mut self, cfg: &Config) {
        let mut edges = Vec::with_capacity(self.fns.len());
        let mut sinks = Vec::with_capacity(self.fns.len());
        for i in 0..self.fns.len() {
            let sym = &self.fns[i];
            let f = self.file_of(sym);
            let Some((start, end)) = sym.body else {
                edges.push(Vec::new());
                sinks.push(Vec::new());
                continue;
            };
            let body = &f.masked.text[start..end];
            let guards = symbols::stmt_guards(body, &f.text[start..end]);
            let guards_at = |off: usize| -> Vec<symbols::CfgAtom> {
                guards
                    .iter()
                    .filter(|(r, _)| r.contains(&off))
                    .map(|(_, a)| a.clone())
                    .collect()
            };
            // Forbidden-token sinks inside this body.
            let mut my_sinks = Vec::new();
            for token in &cfg.hot_forbidden {
                for off in find_token(body, token) {
                    my_sinks.push(Sink {
                        token: token.clone(),
                        line: f.masked.line_of(start + off),
                        cfg: guards_at(off),
                    });
                }
            }
            sinks.push(my_sinks);
            // Call edges.
            let mut my_edges = Vec::new();
            for (name, kind, qual, recv, off) in call_sites(body) {
                let line = f.masked.line_of(start + off);
                let site_cfg = guards_at(off);
                for callee in self.resolve(i, &name, kind, qual.as_deref(), recv.as_deref()) {
                    if callee != i {
                        my_edges.push(Edge {
                            callee,
                            line,
                            kind,
                            cfg: site_cfg.clone(),
                        });
                    }
                }
            }
            edges.push(my_edges);
        }
        self.edges = edges;
        self.sinks = sinks;
    }

    /// Resolves one call site to candidate symbol indices. See the module
    /// docs for the (deliberately conservative) policy.
    fn resolve(
        &self,
        caller: usize,
        name: &str,
        kind: CallKind,
        qual: Option<&str>,
        recv: Option<&[String]>,
    ) -> Vec<usize> {
        let Some(candidates) = self.by_name.get(name) else {
            return Vec::new();
        };
        let caller_sym = &self.fns[caller];
        let caller_rel = &self.file_of(caller_sym).rel;
        let caller_crate = crate_prefix(caller_rel);
        let same_file: Vec<usize> = candidates
            .iter()
            .copied()
            .filter(|&c| self.fns[c].file == caller_sym.file)
            .collect();
        let same_crate = || -> Vec<usize> {
            candidates
                .iter()
                .copied()
                .filter(|&c| crate_prefix(&self.file_of(&self.fns[c]).rel) == caller_crate)
                .collect()
        };
        match kind {
            CallKind::Bare => {
                // Only free functions: an inherent method cannot be called
                // bare (and a bare name shadowed by a closure / fn-pointer
                // parameter resolves to that binding, not any method).
                let free = |v: Vec<usize>| -> Vec<usize> {
                    v.into_iter()
                        .filter(|&c| self.fns[c].owner.is_none())
                        .collect()
                };
                let own = free(same_file);
                if !own.is_empty() {
                    own
                } else {
                    free(same_crate())
                }
            }
            CallKind::Method => {
                // Typed receiver resolution: only `self`-rooted chains are
                // resolvable; everything else is treated as external.
                let Some(chain) = recv else {
                    return Vec::new();
                };
                if chain.first().map(String::as_str) != Some("self") {
                    return Vec::new();
                }
                let mut tys: Vec<String> = match &caller_sym.owner {
                    Some(o) => vec![o.clone()],
                    None => return Vec::new(),
                };
                for field in &chain[1..] {
                    let mut next: Vec<String> = Vec::new();
                    for t in &self.types {
                        if !tys.iter().any(|n| n == &t.name) {
                            continue;
                        }
                        for (fname, fidents) in &t.fields {
                            if fname == field {
                                next.extend(fidents.iter().cloned());
                            }
                        }
                    }
                    next.sort();
                    next.dedup();
                    if next.is_empty() {
                        return Vec::new(); // unknown / external field type
                    }
                    tys = next;
                }
                candidates
                    .iter()
                    .copied()
                    .filter(|&c| {
                        self.fns[c]
                            .owner
                            .as_deref()
                            .is_some_and(|o| tys.iter().any(|t| t == o))
                    })
                    .collect()
            }
            CallKind::Path => {
                let q = qual.unwrap_or("");
                if q == "self" || q == "Self" || q == "crate" {
                    let own: Vec<usize> = if q == "Self" {
                        candidates
                            .iter()
                            .copied()
                            .filter(|&c| {
                                self.fns[c].owner == caller_sym.owner
                                    && self.fns[c].file == caller_sym.file
                            })
                            .collect()
                    } else {
                        same_file.clone()
                    };
                    if !own.is_empty() {
                        return own;
                    }
                    return same_crate();
                }
                // Match the qualifier against impl owners and module stems.
                let by_qual: Vec<usize> = candidates
                    .iter()
                    .copied()
                    .filter(|&c| {
                        let s = &self.fns[c];
                        s.owner.as_deref() == Some(q) || module_stem(&self.file_of(s).rel) == q
                    })
                    .collect();
                if !by_qual.is_empty() {
                    by_qual
                } else {
                    // `ss_core::decision::order(...)`-style cross-crate
                    // paths: a `ss_x` qualifier narrows to that crate.
                    let crate_dir = q.strip_prefix("ss_").map(|c| format!("crates/{c}"));
                    match crate_dir {
                        Some(dir) => candidates
                            .iter()
                            .copied()
                            .filter(|&c| crate_prefix(&self.file_of(&self.fns[c]).rel) == dir)
                            .collect(),
                        None => Vec::new(),
                    }
                }
            }
        }
    }
}

/// Scans a masked body for call sites:
/// `(name, kind, qualifier, receiver chain, offset)`. The receiver chain
/// is the dotted ident path before a method call (`self.ring.push(x)` →
/// `["self", "ring"]`), or `None` when the receiver is not a plain ident
/// chain (call result, index/deref expression, literal).
#[allow(clippy::type_complexity)]
fn call_sites(body: &str) -> Vec<(String, CallKind, Option<String>, Option<Vec<String>>, usize)> {
    const KEYWORDS: [&str; 16] = [
        "if", "while", "for", "match", "loop", "return", "as", "in", "move", "let", "fn", "else",
        "break", "continue", "where", "impl",
    ];
    let bytes = body.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        if !is_ident_byte(bytes[i]) {
            i += 1;
            continue;
        }
        let start = i;
        while i < bytes.len() && is_ident_byte(bytes[i]) {
            i += 1;
        }
        let name = &body[start..i];
        if bytes[start].is_ascii_digit() || KEYWORDS.contains(&name) {
            continue;
        }
        // Optional turbofish between the name and the paren.
        let mut j = i;
        while j < bytes.len() && bytes[j].is_ascii_whitespace() {
            j += 1;
        }
        if body[j..].starts_with("::<") {
            let mut depth = 0usize;
            j += 2;
            while j < bytes.len() {
                match bytes[j] {
                    b'<' => depth += 1,
                    b'>' => {
                        depth -= 1;
                        if depth == 0 {
                            j += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            while j < bytes.len() && bytes[j].is_ascii_whitespace() {
                j += 1;
            }
        }
        if bytes.get(j) != Some(&b'(') {
            continue;
        }
        // Classify by what precedes the name.
        let mut p = start;
        while p > 0 && bytes[p - 1].is_ascii_whitespace() {
            p -= 1;
        }
        if p >= 1 && bytes[p - 1] == b'.' {
            // Exclude `1.0(`-style false hits (digits before the dot are
            // impossible here: tuple indexing is never called).
            let recv = recv_chain(bytes, body, p - 1);
            out.push((name.to_string(), CallKind::Method, None, recv, start));
        } else if p >= 2 && bytes[p - 2] == b':' && bytes[p - 1] == b':' {
            // Qualifier: the ident before the `::`.
            let mut qe = p - 2;
            while qe > 0 && bytes[qe - 1].is_ascii_whitespace() {
                qe -= 1;
            }
            // Skip a `<...>` generic group backwards, e.g. `Vec::<u8>` has
            // already been handled as turbofish; `Foo<T>::call` is rare and
            // resolved by owner name anyway.
            let mut qs = qe;
            while qs > 0 && is_ident_byte(bytes[qs - 1]) {
                qs -= 1;
            }
            let qual = (qs < qe).then(|| body[qs..qe].to_string());
            out.push((name.to_string(), CallKind::Path, qual, None, start));
        } else {
            out.push((name.to_string(), CallKind::Bare, None, None, start));
        }
    }
    out
}

/// The dotted ident chain ending at the `.` at byte `dot`, head first
/// (`self.ring.push` with `dot` at the second `.` → `["self", "ring"]`).
/// `None` when any segment is not a plain ident (tuple index, call
/// result `)`, index `]`, deref) or the chain continues from a `::` path.
fn recv_chain(bytes: &[u8], body: &str, dot: usize) -> Option<Vec<String>> {
    let mut chain = Vec::new();
    let mut k = dot; // index of the `.` whose left side we are reading
    loop {
        let mut e = k;
        while e > 0 && bytes[e - 1].is_ascii_whitespace() {
            e -= 1;
        }
        if e == 0 || !is_ident_byte(bytes[e - 1]) {
            return None;
        }
        let mut s = e;
        while s > 0 && is_ident_byte(bytes[s - 1]) {
            s -= 1;
        }
        if bytes[s].is_ascii_digit() {
            return None; // tuple index segment
        }
        chain.push(body[s..e].to_string());
        let mut q = s;
        while q > 0 && bytes[q - 1].is_ascii_whitespace() {
            q -= 1;
        }
        if q > 0 && bytes[q - 1] == b'.' {
            k = q - 1;
            continue;
        }
        if q > 0 && bytes[q - 1] == b':' {
            return None; // `path::item.method()` — not a field chain
        }
        chain.reverse();
        return Some(chain);
    }
}

/// Runs the `call-graph` rule: every `// lint:hot-path` annotation must
/// attach to a function definition.
pub fn check(analysis: &Analysis<'_>, report: &mut Report) {
    for s in &analysis.fns {
        if s.hot_annotated {
            report.stat("hot-path annotated roots");
        }
    }
    for _ in analysis.edges.iter().flatten() {
        report.stat("call edges resolved");
    }
    for a in &analysis.orphan_annotations {
        let rel = &analysis.ws.files[analysis.files[a.file]].rel;
        report.violation(
            ID,
            rel,
            a.line,
            "`// lint:hot-path` annotation does not attach to a function definition — place it directly above the fn (or its attributes)".to_string(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn call_site_shapes() {
        let sites = call_sites("{ helper(); self.ring.push(x); Vec::with_capacity(4); decision::order(a, b); max::<u64>(1, 2); if (x) {} }");
        let names: Vec<(String, CallKind, Option<String>)> =
            sites.into_iter().map(|(n, k, q, _, _)| (n, k, q)).collect();
        assert!(names.contains(&("helper".into(), CallKind::Bare, None)));
        assert!(names.contains(&("push".into(), CallKind::Method, None)));
        assert!(names.contains(&("with_capacity".into(), CallKind::Path, Some("Vec".into()))));
        assert!(names.contains(&("order".into(), CallKind::Path, Some("decision".into()))));
        assert!(
            names.contains(&("max".into(), CallKind::Bare, None)),
            "turbofish"
        );
        assert!(!names.iter().any(|(n, _, _)| n == "if"));
    }

    #[test]
    fn receiver_chains() {
        let sites = call_sites(
            "{ self.push(a); self.ring.write.store(v); (*slot.get()).write(v); local.hit(); ss_core::x.go(); }",
        );
        let by_name: std::collections::BTreeMap<String, Option<Vec<String>>> =
            sites.into_iter().map(|(n, _, _, r, _)| (n, r)).collect();
        assert_eq!(by_name["push"], Some(vec!["self".to_string()]));
        assert_eq!(
            by_name["store"],
            Some(vec![
                "self".to_string(),
                "ring".to_string(),
                "write".to_string()
            ])
        );
        assert_eq!(by_name["write"], None, "deref receiver is opaque");
        assert_eq!(by_name["hit"], Some(vec!["local".to_string()]));
        assert_eq!(by_name["go"], None, "path-qualified receiver is opaque");
    }

    #[test]
    fn macro_invocations_are_not_calls() {
        let sites = call_sites("{ vec![1]; println!(\"x\"); assert!(a); }");
        assert!(sites.is_empty(), "{sites:?}");
    }

    #[test]
    fn scope_filter() {
        assert!(in_graph_scope("crates/core/src/fabric.rs"));
        assert!(in_graph_scope("src/lib.rs"));
        assert!(!in_graph_scope("crates/lint/tests/self_test.rs"));
        assert!(!in_graph_scope("shims/rand/src/lib.rs"));
        assert!(!in_graph_scope("tests/zero_alloc.rs"));
        assert!(!in_graph_scope("examples/quickstart.rs"));
    }

    #[test]
    fn method_edges_resolve_through_receiver_types() {
        let ws = Workspace {
            root: std::path::PathBuf::from("."),
            files: vec![crate::workspace::SourceFile::from_text(
                "crates/a/src/lib.rs",
                concat!(
                    "pub struct Inner;\n",
                    "impl Inner { pub fn hit(&self) {} }\n",
                    "pub struct Outer { inner: Inner, buf: Vec<u8> }\n",
                    "impl Outer {\n",
                    "    pub fn go(&mut self) { self.inner.hit(); self.buf.clear(); stray.hit(); self.tidy(); }\n",
                    "    fn tidy(&mut self) {}\n",
                    "}\n",
                    "pub struct Other;\n",
                    "impl Other { pub fn clear(&mut self) {} pub fn hit(&self) {} }\n",
                )
                .to_string(),
            )],
        };
        let cfg = Config::parse("").expect("empty config");
        let a = Analysis::build(&ws, &cfg);
        let go = a.named("go")[0];
        let callees: Vec<&str> = a.edges[go]
            .iter()
            .map(|e| a.fns[e.callee].name.as_str())
            .collect();
        assert_eq!(callees, ["hit", "tidy"], "{callees:?}");
        let hit = a.edges[go][0].callee;
        assert_eq!(
            a.fns[hit].owner.as_deref(),
            Some("Inner"),
            "typed, not Other::hit"
        );
    }

    #[test]
    fn crate_prefixes_and_stems() {
        assert_eq!(crate_prefix("crates/core/src/fabric.rs"), "crates/core");
        assert_eq!(crate_prefix("src/lib.rs"), "src");
        assert_eq!(module_stem("crates/core/src/fabric.rs"), "fabric");
        assert_eq!(module_stem("crates/core/src/a/mod.rs"), "a");
    }
}
