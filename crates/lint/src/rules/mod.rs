//! The per-file token rule, and the token helpers it shares with the
//! analyses.
//!
//! The rule works on masked source (see [`crate::lexer`]), reports
//! [`Violation`](crate::Violation)s with file:line positions, and honors
//! per-site `// lint:allow(rule-id) -- rationale` waivers.

pub mod atomics;

use crate::lexer::is_ident_byte;

/// Byte offsets of `token` in `text`, requiring identifier boundaries on
/// whichever ends of the token are identifier characters (so `vec!` does
/// not match `myvec!`, and `Vec::new` does not match `Vec::new_in`).
pub(crate) fn find_token(text: &str, token: &str) -> Vec<usize> {
    let bytes = text.as_bytes();
    let tok = token.as_bytes();
    let first_ident = tok.first().copied().map(is_ident_byte).unwrap_or(false);
    let last_ident = tok.last().copied().map(is_ident_byte).unwrap_or(false);
    let mut out = Vec::new();
    let mut from = 0usize;
    while let Some(pos) = text[from..].find(token) {
        let at = from + pos;
        from = at + 1;
        if first_ident && at > 0 && is_ident_byte(bytes[at - 1]) {
            continue;
        }
        if last_ident {
            if let Some(&next) = bytes.get(at + token.len()) {
                if is_ident_byte(next) {
                    continue;
                }
            }
        }
        out.push(at);
    }
    out
}

/// The identifier ending at byte `end` (exclusive) in `text`, if any.
pub(crate) fn ident_before(text: &str, end: usize) -> Option<&str> {
    let bytes = text.as_bytes();
    let mut start = end;
    while start > 0 && is_ident_byte(bytes[start - 1]) {
        start -= 1;
    }
    (start < end).then(|| &text[start..end])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_boundaries() {
        assert_eq!(find_token("myvec! vec! vec!x", "vec!").len(), 2);
        assert_eq!(find_token("x.unwrap() x.unwrap_or(1)", ".unwrap").len(), 1);
        assert_eq!(find_token("Vec::new() Vec::new_in(a)", "Vec::new").len(), 1);
    }

    #[test]
    fn ident_extraction() {
        let t = "self.ring.write.load(";
        assert_eq!(ident_before(t, t.len() - 6), Some("write"));
        assert_eq!(ident_before("  ", 1), None);
    }
}
