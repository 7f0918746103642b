//! A minimal Rust lexer: just enough to *mask* comments and string
//! literals out of a source file while preserving its exact byte layout.
//!
//! Every rule in this tool works on the masked text — a same-length copy of
//! the source in which comment bodies and string-literal *contents* are
//! replaced by spaces (string delimiters survive, so `""` stays
//! distinguishable from `"msg"`). Token scans over the masked text can then
//! use plain substring search without tripping over `// panic!` in a
//! comment or `".unwrap("` inside a string literal. Newlines are preserved
//! everywhere, so byte offsets and line numbers in the masked text match
//! the original exactly.
//!
//! The comment text itself is collected separately (with line spans) for
//! `lint:allow(...)` waivers and `// lint:hot-path` annotations.

/// One comment (line or block, including doc comments) with its line span.
#[derive(Debug, Clone)]
pub struct Comment {
    /// 1-based line the comment starts on.
    pub start_line: usize,
    /// 1-based line the comment ends on (== `start_line` for line comments).
    pub end_line: usize,
    /// `true` when source code precedes the comment on its start line
    /// (a trailing comment, e.g. `x.load(...); // SAFETY: ...`).
    pub trailing: bool,
    /// The comment text including its `//` / `/*` markers.
    pub text: String,
}

/// A source file with comments and string contents blanked out.
#[derive(Debug)]
pub struct Masked {
    /// Same byte length as the input; comment bodies and string contents
    /// are spaces, newlines are kept.
    pub text: String,
    /// All comments, in file order.
    pub comments: Vec<Comment>,
    /// Byte offset of the start of each line (index 0 = line 1).
    line_starts: Vec<usize>,
}

impl Masked {
    /// 1-based line number containing byte `offset`.
    pub fn line_of(&self, offset: usize) -> usize {
        match self.line_starts.binary_search(&offset) {
            Ok(i) => i + 1,
            Err(i) => i,
        }
    }

    /// Byte range `[start, end)` of 1-based `line`, excluding the newline.
    pub fn line_span(&self, line: usize) -> (usize, usize) {
        let start = self.line_starts[line - 1];
        let end = self
            .line_starts
            .get(line)
            .map(|s| s - 1)
            .unwrap_or(self.text.len());
        (start, end)
    }

    /// Number of lines in the file.
    pub fn line_count(&self) -> usize {
        self.line_starts.len()
    }
}

/// Is this byte an identifier character (`[A-Za-z0-9_]`)?
pub fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Masks `src`: comments and string contents become spaces, everything else
/// (including string delimiters and newlines) is kept byte-for-byte.
// `emit!` resets `line_has_code` on newline; at expansion sites with a
// constant non-newline byte rustc proves the reset dead and warns.
#[allow(unused_assignments)]
pub fn mask_source(src: &str) -> Masked {
    let bytes = src.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut comments = Vec::new();
    let mut line_starts = vec![0usize];
    let mut line = 1usize;
    let mut line_has_code = false;
    let mut i = 0usize;

    // Pushes a byte to the output, tracking line starts.
    macro_rules! emit {
        ($b:expr) => {{
            let b: u8 = $b;
            out.push(b);
            if b == b'\n' {
                line += 1;
                line_starts.push(out.len());
                line_has_code = false;
            }
        }};
    }
    // Blanks source bytes `from..to`, preserving newlines.
    macro_rules! blank {
        ($from:expr, $to:expr) => {
            for k in $from..$to {
                if bytes[k] == b'\n' {
                    emit!(b'\n');
                } else {
                    emit!(b' ');
                }
            }
        };
    }

    while i < bytes.len() {
        let b = bytes[i];
        // Line comment (incl. /// and //! doc comments).
        if b == b'/' && bytes.get(i + 1) == Some(&b'/') {
            let start = i;
            let start_line = line;
            let trailing = line_has_code;
            while i < bytes.len() && bytes[i] != b'\n' {
                i += 1;
            }
            comments.push(Comment {
                start_line,
                end_line: start_line,
                trailing,
                text: src[start..i].to_string(),
            });
            blank!(start, i);
            continue;
        }
        // Block comment, possibly nested (incl. /** and /*! doc comments).
        if b == b'/' && bytes.get(i + 1) == Some(&b'*') {
            let start = i;
            let start_line = line;
            let trailing = line_has_code;
            let mut depth = 1usize;
            i += 2;
            while i < bytes.len() && depth > 0 {
                if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                    depth += 1;
                    i += 2;
                } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                    depth -= 1;
                    i += 2;
                } else {
                    i += 1;
                }
            }
            let end_line = start_line + src[start..i].matches('\n').count();
            comments.push(Comment {
                start_line,
                end_line,
                trailing,
                text: src[start..i].to_string(),
            });
            blank!(start, i);
            continue;
        }
        // Raw string r"..." / r#"..."# (and byte-raw br...), any hash depth.
        if (b == b'r' || b == b'b')
            && !prev_is_ident(bytes, i)
            && raw_string_start(bytes, i).is_some()
        {
            let (open_len, hashes) =
                raw_string_start(bytes, i).expect("checked raw_string_start above");
            // Emit the prefix and opening delimiter verbatim.
            #[allow(clippy::needless_range_loop)]
            // emit! needs the index-free byte, not an iterator item with borrow conflicts on `out`
            for k in i..i + open_len {
                emit!(bytes[k]);
            }
            i += open_len;
            let body_start = i;
            // Scan for `"` followed by `hashes` hash marks.
            loop {
                if i >= bytes.len() {
                    break;
                }
                if bytes[i] == b'"'
                    && bytes[i + 1..].len() >= hashes
                    && bytes[i + 1..i + 1 + hashes].iter().all(|&h| h == b'#')
                {
                    break;
                }
                i += 1;
            }
            blank!(body_start, i);
            let close_end = (i + 1 + hashes).min(bytes.len());
            #[allow(clippy::needless_range_loop)]
            // same: emit! mutates `out`/`line_starts`, iterator form borrows
            for k in i..close_end {
                emit!(bytes[k]);
            }
            i = close_end;
            line_has_code = true;
            continue;
        }
        // Regular (or byte) string literal.
        if b == b'"' || (b == b'b' && bytes.get(i + 1) == Some(&b'"') && !prev_is_ident(bytes, i)) {
            if b == b'b' {
                emit!(b'b');
                i += 1;
            }
            emit!(b'"');
            i += 1;
            let body_start = i;
            while i < bytes.len() {
                match bytes[i] {
                    b'\\' => i += 2,
                    b'"' => break,
                    _ => i += 1,
                }
            }
            let body_end = i.min(bytes.len());
            blank!(body_start, body_end);
            if i < bytes.len() {
                emit!(b'"');
                i += 1;
            }
            line_has_code = true;
            continue;
        }
        // Char literal vs lifetime.
        if b == b'\'' && !prev_is_ident(bytes, i) {
            if let Some(end) = char_literal_end(bytes, i) {
                emit!(b'\'');
                blank!(i + 1, end - 1);
                emit!(b'\'');
                i = end;
                line_has_code = true;
                continue;
            }
            // A lifetime: emit the quote, the identifier stays code.
        }
        if b != b' ' && b != b'\t' && b != b'\n' && b != b'\r' {
            line_has_code = true;
        }
        emit!(b);
        i += 1;
    }

    Masked {
        text: String::from_utf8(out).expect("masking only replaces bytes with ASCII spaces"),
        comments: merge_comment_blocks(comments),
        line_starts,
    }
}

/// Merges runs of standalone `//` comments on consecutive lines into one
/// logical comment block, so a multi-line `// SAFETY: ...` argument counts
/// as adjacent to the code on the line after its *last* line. Trailing
/// comments never merge — they annotate their own line.
fn merge_comment_blocks(comments: Vec<Comment>) -> Vec<Comment> {
    let mut out: Vec<Comment> = Vec::with_capacity(comments.len());
    for c in comments {
        if let Some(prev) = out.last_mut() {
            if !prev.trailing && !c.trailing && c.start_line == prev.end_line + 1 {
                prev.end_line = c.end_line;
                prev.text.push('\n');
                prev.text.push_str(&c.text);
                continue;
            }
        }
        out.push(c);
    }
    out
}

/// `true` when the byte before `i` is an identifier byte (so `i` is inside
/// a word like `array` rather than starting an `r"..."` literal).
fn prev_is_ident(bytes: &[u8], i: usize) -> bool {
    i > 0 && is_ident_byte(bytes[i - 1])
}

/// If a raw string starts at `i` (`r`, `br`, any number of `#`, then `"`),
/// returns `(opening_length, hash_count)`.
fn raw_string_start(bytes: &[u8], i: usize) -> Option<(usize, usize)> {
    let mut j = i;
    if bytes[j] == b'b' {
        j += 1;
    }
    if bytes.get(j) != Some(&b'r') {
        return None;
    }
    j += 1;
    let mut hashes = 0usize;
    while bytes.get(j) == Some(&b'#') {
        hashes += 1;
        j += 1;
    }
    if bytes.get(j) == Some(&b'"') {
        Some((j + 1 - i, hashes))
    } else {
        None
    }
}

/// If a char literal starts at `i` (a `'`), returns the offset one past its
/// closing quote; `None` for lifetimes.
fn char_literal_end(bytes: &[u8], i: usize) -> Option<usize> {
    let mut j = i + 1;
    match bytes.get(j) {
        Some(b'\\') => {
            // Escape: skip the backslash and the escaped char, then any
            // hex/unicode tail up to the closing quote.
            j += 2;
            while j < bytes.len() && bytes[j] != b'\'' && bytes[j] != b'\n' {
                j += 1;
            }
            (bytes.get(j) == Some(&b'\'')).then_some(j + 1)
        }
        Some(&c) => {
            if is_ident_byte(c) {
                // `'a'` is a char literal; `'a` (no closing quote directly
                // after one ident char run) is a lifetime.
                let mut k = j;
                while k < bytes.len() && is_ident_byte(bytes[k]) {
                    k += 1;
                }
                (k == j + 1 && bytes.get(k) == Some(&b'\'')).then_some(k + 1)
            } else if c != b'\'' && bytes.get(j + 1) == Some(&b'\'') {
                // Single non-ident char, e.g. '+' or ' '.
                Some(j + 2)
            } else {
                None
            }
        }
        None => None,
    }
}

/// Finds every body of a function named `name` in masked text: byte ranges
/// from the `{` opening the body to one past its matching `}`. A name may
/// resolve to several bodies (the same method on different impl blocks) —
/// all of them are returned.
pub fn find_fn_bodies(masked: &str, name: &str) -> Vec<(usize, usize)> {
    let bytes = masked.as_bytes();
    let needle = format!("fn {name}");
    let mut out = Vec::new();
    let mut from = 0usize;
    while let Some(pos) = masked[from..].find(&needle) {
        let at = from + pos;
        from = at + needle.len();
        // Word boundaries: not `xfn name` and not `fn namex`.
        if at > 0 && is_ident_byte(bytes[at - 1]) {
            continue;
        }
        let after = at + needle.len();
        if after < bytes.len() && is_ident_byte(bytes[after]) {
            continue;
        }
        // The signature must continue with generics or an argument list.
        let mut j = after;
        while j < bytes.len() && (bytes[j] == b' ' || bytes[j] == b'\n') {
            j += 1;
        }
        if bytes.get(j) != Some(&b'(') && bytes.get(j) != Some(&b'<') {
            continue;
        }
        // First `{` after the signature opens the body (trait methods
        // ending in `;` have no body — skip those).
        while j < bytes.len() && bytes[j] != b'{' && bytes[j] != b';' {
            j += 1;
        }
        if bytes.get(j) != Some(&b'{') {
            continue;
        }
        let open = j;
        if let Some(close) = matching_brace(bytes, open) {
            out.push((open, close + 1));
        }
    }
    out
}

/// Offset of the `}` matching the `{` at `open` (masked text, so braces in
/// strings/comments are already gone).
pub fn matching_brace(bytes: &[u8], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (k, &b) in bytes.iter().enumerate().skip(open) {
        match b {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(k);
                }
            }
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_comments_and_strings_preserving_layout() {
        let src = "let x = \"panic!\"; // unwrap() here\nlet y = 1;\n";
        let m = mask_source(src);
        assert_eq!(m.text.len(), src.len());
        assert!(!m.text.contains("panic!"));
        assert!(!m.text.contains("unwrap"));
        assert!(m.text.contains("let y = 1;"));
        assert_eq!(m.comments.len(), 1);
        assert!(m.comments[0].trailing);
    }

    #[test]
    fn empty_string_literal_stays_empty() {
        let m = mask_source("a.expect(\"\"); b.expect(\"msg\");");
        assert!(m.text.contains("expect(\"\")"));
        assert!(m.text.contains("expect(\"   \")"));
    }

    #[test]
    fn raw_strings_and_nested_block_comments() {
        let src = "let r = r#\"unsafe { }\"#; /* outer /* unsafe */ still */ let z = 2;";
        let m = mask_source(src);
        assert!(!m.text.contains("unsafe"));
        assert!(m.text.contains("let z = 2;"));
        assert_eq!(m.comments.len(), 1);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> char { 'x' }";
        let m = mask_source(src);
        assert!(m.text.contains("<'a>"));
        assert!(m.text.contains("&'a str"));
        assert!(!m.text.contains("'x'") || m.text.contains("' '"));
    }

    #[test]
    fn finds_fn_bodies_by_name() {
        let src = "fn alpha() { inner(); }\nfn alphabet() { other(); }\nimpl B { fn alpha() { second(); } }\n";
        let bodies = find_fn_bodies(src, "alpha");
        assert_eq!(bodies.len(), 2);
        let (a, b) = bodies[0];
        assert!(src[a..b].contains("inner"));
        assert!(!src[a..b].contains("other"));
        assert!(src[bodies[1].0..bodies[1].1].contains("second"));
        assert!(find_fn_bodies(src, "beta").is_empty());
    }

    #[test]
    fn line_numbers_match() {
        let m = mask_source("a\nb\nc\n");
        assert_eq!(m.line_of(0), 1);
        assert_eq!(m.line_of(2), 2);
        assert_eq!(m.line_of(4), 3);
        assert_eq!(m.line_count(), 4); // trailing newline opens line 4
    }
}
