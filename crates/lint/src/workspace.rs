//! Workspace loading: walks the tree for `.rs` files, masks each one, and
//! collects `lint:allow(...)` waivers.

use crate::lexer::{mask_source, Masked};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// An explicit, per-site suppression parsed from a comment of the form
/// `// lint:allow(rule-id) -- rationale`. The waiver applies to code on the
/// comment's own line (trailing comments) or on the first line after the
/// comment block.
#[derive(Debug, Clone)]
pub struct Waiver {
    /// The rule id inside `lint:allow(...)`.
    pub rule: String,
    /// 1-based line the waiver comment starts on.
    pub line: usize,
    /// Lines the waiver covers.
    pub targets: Vec<usize>,
    /// The ` -- rationale` text (empty when missing — itself a violation).
    pub rationale: String,
}

/// One loaded source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Path relative to the workspace root, `/`-separated.
    pub rel: String,
    /// Original text.
    pub text: String,
    /// Masked view (comments/strings blanked) plus comment list.
    pub masked: Masked,
    /// Waivers declared in this file.
    pub waivers: Vec<Waiver>,
}

impl SourceFile {
    /// Loads and masks a single file.
    pub fn load(root: &Path, rel: &str) -> io::Result<SourceFile> {
        let text = fs::read_to_string(root.join(rel))?;
        Ok(SourceFile::from_text(rel, text))
    }

    /// Builds a source file from in-memory text (used by fixture tests).
    pub fn from_text(rel: &str, text: String) -> SourceFile {
        let masked = mask_source(&text);
        let waivers = collect_waivers(&masked);
        SourceFile {
            rel: rel.to_string(),
            text,
            masked,
            waivers,
        }
    }

    /// `true` when a waiver for `rule` covers `line`. Matching is exact on
    /// the rule id — a typo in the id simply never matches, and unknown ids
    /// are flagged separately, under [`crate::WAIVERS_ID`].
    pub fn waived(&self, rule: &str, line: usize) -> bool {
        self.waivers
            .iter()
            .any(|w| w.rule == rule && !w.rationale.is_empty() && w.targets.contains(&line))
    }
}

fn collect_waivers(masked: &Masked) -> Vec<Waiver> {
    let mut out = Vec::new();
    for c in &masked.comments {
        // Only a comment that *begins* with the directive is a waiver;
        // prose that merely mentions `lint:allow(...)` (docs, this file) is
        // not. Strip the `//`/`//!`/`///` opener first.
        let body = c.text.trim_start_matches(['/', '!', '*']).trim_start();
        if !body.starts_with("lint:allow(") {
            continue;
        }
        let rest = &body["lint:allow(".len()..];
        let Some(close) = rest.find(')') else {
            continue;
        };
        let rule = rest[..close].trim().to_string();
        let rationale = rest[close + 1..]
            .split_once("--")
            .map(|(_, r)| r.trim().to_string())
            .unwrap_or_default();
        // A trailing comment covers its own line; a standalone comment
        // covers the first line after the comment block.
        let targets = if c.trailing {
            vec![c.start_line]
        } else {
            vec![c.end_line + 1]
        };
        out.push(Waiver {
            rule,
            line: c.start_line,
            targets,
            rationale,
        });
    }
    out
}

/// The loaded workspace.
#[derive(Debug)]
pub struct Workspace {
    /// Absolute workspace root.
    pub root: PathBuf,
    /// Every `.rs` file in scope, masked, in path order.
    pub files: Vec<SourceFile>,
}

impl Workspace {
    /// Walks `root` for `.rs` files, skipping `target/`, VCS metadata, and
    /// the configured exclude prefixes.
    pub fn load(root: &Path, exclude: &[String]) -> io::Result<Workspace> {
        let mut rels = Vec::new();
        walk(root, root, exclude, &mut rels)?;
        rels.sort();
        let mut files = Vec::with_capacity(rels.len());
        for rel in &rels {
            files.push(SourceFile::load(root, rel)?);
        }
        Ok(Workspace {
            root: root.to_path_buf(),
            files,
        })
    }
}

fn walk(root: &Path, dir: &Path, exclude: &[String], out: &mut Vec<String>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        let rel = path
            .strip_prefix(root)
            .expect("walked paths live under root")
            .to_string_lossy()
            .replace('\\', "/");
        if exclude
            .iter()
            .any(|e| rel == *e || rel.starts_with(&format!("{e}/")))
        {
            continue;
        }
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            walk(root, &path, exclude, out)?;
        } else if name.ends_with(".rs") {
            out.push(rel);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waivers_parse_rule_targets_and_rationale() {
        let f = SourceFile::from_text(
            "x.rs",
            "// lint:allow(atomics-ordering) -- owner-side index\nx.load(r);\ny.store(); // lint:allow(hot-path-reachability) -- cold slow path\n".into(),
        );
        assert_eq!(f.waivers.len(), 2);
        assert!(f.waived("atomics-ordering", 2));
        assert!(!f.waived("atomics-ordering", 3));
        assert!(f.waived("hot-path-reachability", 3));
    }

    #[test]
    fn waiver_without_rationale_never_applies() {
        let f = SourceFile::from_text(
            "x.rs",
            "// lint:allow(atomics-ordering)\nx.load(Ordering::SeqCst);\n".into(),
        );
        assert_eq!(f.waivers.len(), 1);
        assert!(f.waivers[0].rationale.is_empty());
        assert!(!f.waived("atomics-ordering", 2));
    }
}
