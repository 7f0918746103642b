//! `lint.toml` loading: a deliberately small TOML subset plus the typed
//! configuration the rules consume.
//!
//! Supported TOML surface (everything the checked-in `lint.toml` needs, and
//! nothing more): `[table]` headers, `[[array-of-tables]]` headers, `#`
//! comments, and `key = value` pairs where value is a basic string, a bool,
//! an integer, or a (possibly multi-line) array of basic strings. Unknown
//! syntax is a hard error — better to reject a config than to silently
//! ignore half of it.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A basic `"..."` string.
    Str(String),
    /// `true` / `false`.
    Bool(bool),
    /// An integer.
    Int(i64),
    /// An array of basic strings.
    StrArray(Vec<String>),
}

/// One table: the keys of a `[header]` (or `[[header]]` element) section.
pub type Table = BTreeMap<String, Value>;

/// A parsed document: header path → the tables declared under it.
/// `[x]` yields one table; each `[[x]]` appends another.
#[derive(Debug, Default)]
pub struct Doc {
    tables: BTreeMap<String, Vec<Table>>,
}

/// Config-file error with a line number.
#[derive(Debug)]
pub struct ConfigError {
    /// 1-based line in `lint.toml` (0 for structural errors).
    pub line: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lint.toml:{}: {}", self.line, self.msg)
    }
}

fn err<T>(line: usize, msg: impl Into<String>) -> Result<T, ConfigError> {
    Err(ConfigError {
        line,
        msg: msg.into(),
    })
}

impl Doc {
    /// Parses the supported TOML subset.
    pub fn parse(src: &str) -> Result<Doc, ConfigError> {
        let mut doc = Doc::default();
        let mut current = String::new();
        doc.tables.insert(String::new(), vec![Table::new()]);
        let mut lines = src.lines().enumerate().peekable();
        while let Some((idx, raw)) = lines.next() {
            let lineno = idx + 1;
            let line = strip_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            if let Some(path) = line.strip_prefix("[[").and_then(|s| s.strip_suffix("]]")) {
                current = path.trim().to_string();
                doc.tables
                    .entry(current.clone())
                    .or_default()
                    .push(Table::new());
            } else if let Some(path) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
                current = path.trim().to_string();
                let slot = doc.tables.entry(current.clone()).or_default();
                if !slot.is_empty() {
                    return err(lineno, format!("table [{current}] declared twice"));
                }
                slot.push(Table::new());
            } else if let Some(eq) = line.find('=') {
                let key = line[..eq].trim().to_string();
                if key.is_empty() {
                    return err(lineno, "empty key");
                }
                let mut rhs = line[eq + 1..].trim().to_string();
                // Multi-line arrays: keep consuming lines until brackets
                // balance (strings in our subset never contain brackets,
                // but strip comments per-line first).
                while rhs.starts_with('[') && !bracket_balanced(&rhs) {
                    match lines.next() {
                        Some((_, next)) => {
                            rhs.push(' ');
                            rhs.push_str(strip_comment(next).trim());
                        }
                        None => return err(lineno, "unterminated array"),
                    }
                }
                let value = parse_value(rhs.trim(), lineno)?;
                let table = doc
                    .tables
                    .get_mut(&current)
                    .and_then(|v| v.last_mut())
                    .expect("current header always has at least one table");
                if table.insert(key.clone(), value).is_some() {
                    return err(lineno, format!("duplicate key `{key}`"));
                }
            } else {
                return err(lineno, format!("unsupported syntax: `{line}`"));
            }
        }
        Ok(doc)
    }

    /// The single table at `path`, if declared.
    pub fn table(&self, path: &str) -> Option<&Table> {
        self.tables.get(path).and_then(|v| v.first())
    }

    /// All `[[path]]` tables, in declaration order.
    pub fn tables(&self, path: &str) -> &[Table] {
        self.tables.get(path).map(Vec::as_slice).unwrap_or(&[])
    }
}

fn strip_comment(line: &str) -> &str {
    // A `#` inside a basic string would break this, but the subset's
    // strings (paths, idents, tokens) never contain `#` — enforced below.
    match line.find('#') {
        Some(p) => &line[..p],
        None => line,
    }
}

fn bracket_balanced(s: &str) -> bool {
    s.matches('[').count() == s.matches(']').count() && s.trim_end().ends_with(']')
}

fn parse_value(s: &str, lineno: usize) -> Result<Value, ConfigError> {
    if s == "true" {
        return Ok(Value::Bool(true));
    }
    if s == "false" {
        return Ok(Value::Bool(false));
    }
    if let Some(body) = s.strip_prefix('[') {
        let body = match body.strip_suffix(']') {
            Some(b) => b,
            None => return err(lineno, "unterminated array"),
        };
        let mut items = Vec::new();
        for part in body.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue; // trailing comma / blank continuation
            }
            match parse_value(part, lineno)? {
                Value::Str(v) => items.push(v),
                _ => return err(lineno, "arrays may only contain strings"),
            }
        }
        return Ok(Value::StrArray(items));
    }
    if let Some(body) = s.strip_prefix('"') {
        let body = match body.strip_suffix('"') {
            Some(b) => b,
            None => return err(lineno, "unterminated string"),
        };
        if body.contains('"') || body.contains('\\') || body.contains('#') {
            return err(lineno, "strings may not contain quotes, escapes, or `#`");
        }
        return Ok(Value::Str(body.to_string()));
    }
    if let Ok(n) = s.parse::<i64>() {
        return Ok(Value::Int(n));
    }
    err(lineno, format!("unsupported value: `{s}`"))
}

// ---------------------------------------------------------------------------
// Typed configuration
// ---------------------------------------------------------------------------

/// One declared atomics-protocol rule: in `file`, operation `op` on the
/// atomic field `atomic` must use exactly ordering `require`.
#[derive(Debug, Clone)]
pub struct ProtocolRule {
    /// Workspace-relative path the rule applies to.
    pub file: String,
    /// The atomic's field/variable name (the identifier before `.op(`).
    pub atomic: String,
    /// `load`, `store`, or an RMW method name.
    pub op: String,
    /// Required `Ordering::` variant.
    pub require: String,
}

/// One lock-free protocol registered for exhaustive interleaving
/// checking (`[[interleave.protocols]]`).
#[derive(Debug, Clone)]
pub struct InterleaveProtocol {
    /// Model kind: `spsc-ring` or `shared-pressure`.
    pub model: String,
    /// Workspace-relative file the orderings are extracted from.
    pub file: String,
    /// Maximum preemptive context switches explored (CHESS-style bound).
    pub preemption_bound: usize,
}

/// The full typed configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Path prefixes excluded from every rule.
    pub exclude: Vec<String>,
    /// Tokens forbidden in everything reachable from a `// lint:hot-path`
    /// annotated function.
    pub hot_forbidden: Vec<String>,
    /// Flag every `Ordering::SeqCst` site.
    pub flag_seqcst: bool,
    /// The declared acquire/release protocol.
    pub protocol: Vec<ProtocolRule>,
    /// Lock-free protocols explored by the interleaving checker.
    pub interleave: Vec<InterleaveProtocol>,
}

fn strings(t: &Table, key: &str) -> Vec<String> {
    match t.get(key) {
        Some(Value::StrArray(v)) => v.clone(),
        Some(Value::Str(s)) => vec![s.clone()],
        _ => Vec::new(),
    }
}

fn string(t: &Table, key: &str, what: &str) -> Result<String, ConfigError> {
    match t.get(key) {
        Some(Value::Str(s)) => Ok(s.clone()),
        _ => err(0, format!("{what}: missing string key `{key}`")),
    }
}

impl Config {
    /// Builds the typed config from a parsed document.
    pub fn from_doc(doc: &Doc) -> Result<Config, ConfigError> {
        let empty = Table::new();
        let ws = doc.table("workspace").unwrap_or(&empty);
        let hot = doc.table("hot_path").unwrap_or(&empty);
        let atomics = doc.table("atomics").unwrap_or(&empty);

        let mut protocol = Vec::new();
        for t in doc.tables("atomics.protocol") {
            protocol.push(ProtocolRule {
                file: string(t, "file", "[[atomics.protocol]]")?,
                atomic: string(t, "atomic", "[[atomics.protocol]]")?,
                op: string(t, "op", "[[atomics.protocol]]")?,
                require: string(t, "require", "[[atomics.protocol]]")?,
            });
        }
        let mut interleave = Vec::new();
        for t in doc.tables("interleave.protocols") {
            interleave.push(InterleaveProtocol {
                model: string(t, "model", "[[interleave.protocols]]")?,
                file: string(t, "file", "[[interleave.protocols]]")?,
                preemption_bound: match t.get("preemption_bound") {
                    Some(Value::Int(n)) if *n >= 0 => *n as usize,
                    None => 3,
                    _ => return err(
                        0,
                        "[[interleave.protocols]]: preemption_bound must be a non-negative integer",
                    ),
                },
            });
        }
        Ok(Config {
            exclude: strings(ws, "exclude"),
            hot_forbidden: strings(hot, "forbidden"),
            flag_seqcst: matches!(atomics.get("flag_seqcst"), Some(Value::Bool(true)) | None),
            protocol,
            interleave,
        })
    }

    /// Parses `lint.toml` source into the typed config.
    pub fn parse(src: &str) -> Result<Config, ConfigError> {
        Config::from_doc(&Doc::parse(src)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_supported_subset() {
        let src = r#"
# comment
[workspace]
exclude = ["target", "crates/lint/tests/fixtures"]

[hot_path]
forbidden = [
    "panic!",  # a comment inside the array
    "Vec::new",
]

[atomics]
flag_seqcst = true

[[atomics.protocol]]
file = "crates/endsystem/src/spsc.rs"
atomic = "write"
op = "store"
require = "Release"
"#;
        let cfg = Config::parse(src).expect("parses");
        assert_eq!(cfg.exclude.len(), 2);
        assert_eq!(cfg.hot_forbidden, ["panic!", "Vec::new"]);
        assert!(cfg.flag_seqcst);
        assert_eq!(cfg.protocol.len(), 1);
        assert_eq!(cfg.protocol[0].require, "Release");
    }

    #[test]
    fn rejects_unknown_syntax() {
        assert!(Doc::parse("key value-with-no-equals").is_err());
        assert!(Doc::parse("x = {inline = \"table\"}").is_err());
        assert!(Doc::parse("x = \"unterminated").is_err());
    }

    #[test]
    fn rejects_duplicate_tables_and_keys() {
        assert!(Doc::parse("[a]\nx = 1\n[a]\ny = 2").is_err());
        assert!(Doc::parse("[a]\nx = 1\nx = 2").is_err());
    }
}
