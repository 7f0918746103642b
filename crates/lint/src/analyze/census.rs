//! The public-surface census: every plain-`pub` fn, method, type and const
//! of product code, classed by what reaches it. A report, not a rule: it
//! fails no run, and `ss-lint` prints it after the rule statistics.
//!
//! A file's code reaches items with the file's class: `tests-only` under a
//! `tests/` directory or inside a `#[cfg(test)]` item, `bench` under
//! `benches/` or in `crates/bench` and `crates/benchmark`, `product`
//! anywhere else (`examples/` included; `shims/` is not ours and reaches
//! nothing). Code inside a public product item reaches with that item's
//! own class, so what only a dead item calls is dead too. An item takes the
//! highest class that reaches it (product > bench > tests-only > none);
//! the classes are the least fixpoint of that rule.
//!
//! References are over-approximated, so the census can never call a live
//! item dead:
//!
//! * `recv.name(…)` is exact where the call graph resolves the receiver (a
//!   `self`-rooted field chain, see [`super::callgraph`]); any other
//!   receiver reaches every public method called `name`.
//! * `Qual::name` reaches `Qual`'s methods and consts called `name`, or,
//!   when `Qual` owns none, every public item called `name`.
//! * A bare `name` — called, passed, or named in a type — reaches every free
//!   fn, type and const called `name`.
//!
//! Not references: an item's name at its own definition, the impl'd type in
//! an `impl` header, and `use` declarations, which import or re-export (a
//! `use` still reaches traits, whose methods it brings into scope).
//! Comments and strings are masked, so doc links reach nothing.

use super::callgraph::{crate_prefix, recv_chain, Analysis, CallKind};
use super::symbols::parse_impl_owner;
use crate::lexer::is_ident_byte;
use std::collections::BTreeMap;

/// What reaches a public item, lowest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// Nothing.
    None,
    /// Only tests: `tests/` files and `#[cfg(test)]` items.
    TestsOnly,
    /// Benchmarks, and maybe tests.
    Bench,
    /// Product code.
    Product,
}

impl Class {
    /// Every class, in report order.
    pub const ALL: [Class; 4] = [Class::Product, Class::Bench, Class::TestsOnly, Class::None];

    /// The report's name for the class.
    pub fn name(self) -> &'static str {
        match self {
            Class::Product => "product",
            Class::Bench => "bench",
            Class::TestsOnly => "tests-only",
            Class::None => "none",
        }
    }
}

/// One public item and its class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// `Owner::name` for methods and associated consts, else `name`.
    pub item: String,
    /// Workspace-relative defining file.
    pub file: String,
    /// 1-based line of the item keyword.
    pub line: usize,
    /// What reaches it.
    pub class: Class,
}

/// The class `rel`'s code reaches items with; `None` under `shims/`.
pub fn file_class(rel: &str) -> Option<Class> {
    let has = |dir: &str| rel.split('/').any(|c| c == dir);
    if has("shims") {
        None
    } else if has("tests") {
        Some(Class::TestsOnly)
    } else if has("benches") || matches!(crate_prefix(rel), "crates/bench" | "crates/benchmark") {
        Some(Class::Bench)
    } else {
        Some(Class::Product)
    }
}

/// A census subject.
struct Subject {
    name: String,
    owner: Option<String>,
    method: bool,
    is_trait: bool,
    file: String,
    line: usize,
}

/// Where a reference's reach comes from: a fixed class, or the class of the
/// public item whose span holds it.
#[derive(Debug, Clone, Copy)]
enum Reach {
    Class(Class),
    Item(usize),
}

/// An item span of a graph file: `(start, end, enclosing fn, reach)`.
type Span = (usize, usize, Option<usize>, Reach);

/// Keywords whose next ident is the name being defined.
const DEFS: [&str; 9] = [
    "fn", "struct", "enum", "trait", "type", "const", "static", "mod", "union",
];

/// Classes every public item of the analyzed workspace's product files.
pub fn census(a: &Analysis<'_>) -> Vec<Entry> {
    let product = |file: usize| file_class(&a.ws.files[a.files[file]].rel) == Some(Class::Product);
    let mut subjects = Vec::new();
    let mut fn_subject = vec![None; a.fns.len()];
    for (i, s) in a.fns.iter().enumerate() {
        if s.public && !s.test_only() && product(s.file) {
            fn_subject[i] = Some(subjects.len());
            subjects.push(Subject {
                name: s.name.clone(),
                owner: s.owner.clone(),
                method: s.owner.is_some(),
                is_trait: false,
                file: a.file_of(s).rel.clone(),
                line: s.line,
            });
        }
    }
    let mut type_subject = vec![None; a.types.len()];
    for (i, t) in a.types.iter().enumerate() {
        if t.public && !t.cfg.iter().any(|c| !c.live()) && product(t.file) {
            type_subject[i] = Some(subjects.len());
            subjects.push(Subject {
                name: t.name.clone(),
                owner: t.owner.clone(),
                method: false,
                is_trait: t.kind == "trait",
                file: a.ws.files[a.files[t.file]].rel.clone(),
                line: t.line,
            });
        }
    }
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (k, s) in subjects.iter().enumerate() {
        by_name.entry(s.name.as_str()).or_default().push(k);
    }

    // Item spans per graph file, sorted by start.
    let mut spans: BTreeMap<usize, Vec<Span>> = BTreeMap::new();
    let reach = |test_only: bool, subject: Option<usize>, file: usize| match subject {
        _ if test_only => Reach::Class(Class::TestsOnly),
        Some(k) => Reach::Item(k),
        None => Reach::Class(file_class(&a.ws.files[a.files[file]].rel).unwrap_or(Class::None)),
    };
    for (i, s) in a.fns.iter().enumerate() {
        if let Some((_, end)) = s.body {
            let r = reach(s.test_only(), fn_subject[i], s.file);
            spans
                .entry(a.files[s.file])
                .or_default()
                .push((s.offset, end, Some(i), r));
        }
    }
    for (i, t) in a.types.iter().enumerate() {
        let r = reach(t.cfg.iter().any(|c| !c.live()), type_subject[i], t.file);
        spans
            .entry(a.files[t.file])
            .or_default()
            .push((t.span.0, t.span.1, None, r));
    }
    for v in spans.values_mut() {
        v.sort_by_key(|s| s.0);
    }

    let mut refs: Vec<(usize, Reach)> = Vec::new();
    for (wi, f) in a.ws.files.iter().enumerate() {
        let Some(class) = file_class(&f.rel) else {
            continue;
        };
        let spans = spans.get(&wi).map(Vec::as_slice).unwrap_or(&[]);
        let text = &f.masked.text;
        let bytes = text.as_bytes();
        let mut use_end = 0;
        let mut impl_self: Option<(String, usize)> = None;
        let mut i = 0;
        while i < bytes.len() {
            if !is_ident_byte(bytes[i]) {
                i += 1;
                continue;
            }
            let s = i;
            while i < bytes.len() && is_ident_byte(bytes[i]) {
                i += 1;
            }
            let word = &text[s..i];
            if bytes[s].is_ascii_digit() || (s > 0 && bytes[s - 1] == b'\'') {
                continue;
            }
            let prev = text[..s].trim_end();
            if word == "use" {
                use_end = s + text[s..].find(';').unwrap_or(0);
                continue;
            }
            if word == "impl"
                && (prev.is_empty()
                    || prev.ends_with(['}', ';', '{', ']'])
                    || prev.ends_with("unsafe"))
            {
                let (owner, end) = parse_impl_owner(bytes, text, i);
                impl_self = owner.map(|o| (o, end));
                continue;
            }
            let Some(cands) = by_name.get(word) else {
                continue;
            };
            let def_kw = ident_before(prev);
            let def_lead = prev[..prev.len() - def_kw.len()].trim_end();
            if DEFS.contains(&def_kw) && !def_lead.ends_with(['\'', '*']) {
                continue;
            }
            let next = text[i..].trim_start();
            let macro_call = next.starts_with('!') && !next.starts_with("!=");
            let own_impl = impl_self
                .as_ref()
                .is_some_and(|(o, end)| s < *end && o == word);
            if macro_call || own_impl {
                continue;
            }
            let at = spans.partition_point(|sp| sp.0 <= s);
            let (enclosing, from) = spans[..at]
                .iter()
                .rev()
                .find(|sp| s < sp.1)
                .map_or((None, Reach::Class(class)), |sp| (sp.2, sp.3));
            let mut targets: Vec<usize> = if prev.ends_with('.') && !prev.ends_with("..") {
                if !(next.starts_with('(') || next.starts_with("::<")) {
                    continue; // a field
                }
                let dot = prev.len() - 1;
                let exact = enclosing.map_or(Vec::new(), |fi| {
                    let recv = recv_chain(bytes, text, dot);
                    a.resolve(fi, word, CallKind::Method, None, recv.as_deref())
                });
                if exact.is_empty() {
                    cands
                        .iter()
                        .copied()
                        .filter(|&k| subjects[k].method)
                        .collect()
                } else {
                    exact.iter().filter_map(|&c| fn_subject[c]).collect()
                }
            } else if let Some(head) = prev.strip_suffix("::") {
                let qual = match ident_before(head) {
                    "Self" => enclosing.and_then(|fi| a.fns[fi].owner.as_deref()),
                    q => Some(q),
                };
                let owned: Vec<usize> = cands
                    .iter()
                    .copied()
                    .filter(|&k| {
                        subjects[k].owner.is_some() && subjects[k].owner.as_deref() == qual
                    })
                    .collect();
                if owned.is_empty() {
                    cands.clone()
                } else {
                    owned
                }
            } else {
                cands
                    .iter()
                    .copied()
                    .filter(|&k| subjects[k].owner.is_none())
                    .collect()
            };
            if s < use_end {
                targets.retain(|&k| subjects[k].is_trait);
            }
            refs.extend(targets.into_iter().map(|k| (k, from)));
        }
    }

    // Least fixpoint: every item starts at `none` and rises to what reaches it.
    let mut class = vec![Class::None; subjects.len()];
    let mut changed = true;
    while changed {
        changed = false;
        for &(k, from) in &refs {
            let c = match from {
                Reach::Class(c) => c,
                Reach::Item(j) => class[j],
            };
            if c > class[k] {
                class[k] = c;
                changed = true;
            }
        }
    }

    let mut out: Vec<Entry> = subjects
        .into_iter()
        .zip(class)
        .map(|(s, class)| Entry {
            item: match s.owner {
                Some(o) => format!("{o}::{}", s.name),
                None => s.name,
            },
            file: s.file,
            line: s.line,
            class,
        })
        .collect();
    out.sort_by(|x, y| (x.class, &x.file, x.line).cmp(&(y.class, &y.file, y.line)));
    out
}

/// The identifier `text` ends with (empty when it ends otherwise).
fn ident_before(text: &str) -> &str {
    let start = text
        .bytes()
        .rposition(|b| !is_ident_byte(b))
        .map_or(0, |p| p + 1);
    &text[start..]
}
