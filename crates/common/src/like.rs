//! SQL `LIKE` pattern matching.
//!
//! TBQL attribute filters use `%`-wildcards ("`%` matches any character
//! sequence", Section III-D) and they surface in two places: compiled SQL
//! predicates (relstore, whose `LIKE` access path also counts its rows for
//! the planner) and Cypher `CONTAINS`-family lowering (graphstore). The
//! matcher lives here so both share one semantics: `%` = any run, `_` =
//! any single character, no escape syntax (audit strings never need one).
//! It is allocation-free: a scan calls it once per distinct string.

/// Returns whether `text` matches the SQL LIKE `pattern`.
///
/// Iterative two-pointer algorithm with backtracking over the last `%` —
/// O(n·m) worst case, linear on patterns without `%` — over the strings in
/// place. A pattern without `_` is walked byte by byte: on valid UTF-8 a
/// literal run can only match where a character starts (a leading byte
/// never equals a continuation byte), and `%` never has to split a
/// character, so bytes decide exactly what characters would. `_` is one
/// *character*, which may be several bytes, so a pattern holding one is
/// walked a character at a time.
pub fn like_match(pattern: &str, text: &str) -> bool {
    if pattern.contains('_') {
        two_pointer(pattern, text, |s, i| s[i..].chars().next().map(|c| (c, c.len_utf8())))
    } else {
        // `char::from` is injective on bytes and maps no byte ≥ 0x80 to `%`.
        two_pointer(pattern, text, |s, i| s.as_bytes().get(i).map(|&b| (char::from(b), 1)))
    }
}

/// The matcher over units `unit(s, i)` decodes at byte `i` of `s`: the
/// unit and its width in bytes, `None` at the end.
#[inline(always)]
fn two_pointer(
    pattern: &str,
    text: &str,
    unit: impl Fn(&str, usize) -> Option<(char, usize)>,
) -> bool {
    let (mut pi, mut ti) = (0usize, 0usize);
    // Where the pattern resumes after the last `%`, and the text position
    // that `%` has absorbed up to.
    let mut star: Option<usize> = None;
    let mut star_ti = 0usize;
    while let Some((tc, tw)) = unit(text, ti) {
        match unit(pattern, pi) {
            Some(('%', pw)) => {
                star = Some(pi + pw);
                star_ti = ti;
                pi += pw;
            }
            Some((pc, pw)) if pc == '_' || pc == tc => {
                pi += pw;
                ti += tw;
            }
            _ => match star {
                // Backtrack: let the last % absorb one more unit.
                Some(s) => {
                    pi = s;
                    star_ti += unit(text, star_ti).map_or(1, |(_, w)| w);
                    ti = star_ti;
                }
                None => return false,
            },
        }
    }
    while let Some(('%', pw)) = unit(pattern, pi) {
        pi += pw;
    }
    pi == pattern.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_without_wildcards() {
        assert!(like_match("/bin/tar", "/bin/tar"));
        assert!(!like_match("/bin/tar", "/bin/tar "));
        assert!(!like_match("/bin/tar", "/bin/ta"));
    }

    #[test]
    fn percent_wildcards() {
        assert!(like_match("%/bin/tar%", "/bin/tar"));
        assert!(like_match("%/bin/tar%", "/usr/bin/tar"));
        assert!(like_match("%upload%", "/tmp/upload.tar.bz2"));
        assert!(like_match("%.tar", "/tmp/upload.tar"));
        assert!(like_match("/tmp/%", "/tmp/upload.tar"));
        assert!(!like_match("%passwd%", "/etc/shadow"));
        assert!(like_match("%", ""));
        assert!(like_match("%%", "anything"));
    }

    #[test]
    fn underscore_wildcard() {
        assert!(like_match("/tmp/upload.ta_", "/tmp/upload.tar"));
        assert!(!like_match("/tmp/upload.ta_", "/tmp/upload.t"));
        assert!(like_match("_%", "x"));
        assert!(!like_match("_", ""));
    }

    #[test]
    fn multiple_percents_backtrack() {
        assert!(like_match("%a%b%", "xxaxxbxx"));
        assert!(!like_match("%a%b%", "xxbxxaxx"));
        assert!(like_match("%ab%ab%", "ababab"));
    }

    #[test]
    fn multibyte_text() {
        // `_` is one character, however many bytes it takes.
        assert!(like_match("caf_", "café"));
        assert!(!like_match("caf__", "café"));
        assert!(like_match("_日_", "a日b"));
        assert!(like_match("%日%", "/tmp/日本"));
        assert!(!like_match("%日%", "/tmp/本"));
        assert!(like_match("%é", "café"));
    }

    #[test]
    fn percent_in_text_is_absorbed() {
        // A `%` in the text is a character like any other for the
        // pattern's `%` to absorb.
        assert!(like_match("%a", "%ba"));
        assert!(like_match("%20%", "/a%20b"));
    }
}
