//! SQL `LIKE` pattern semantics.
//!
//! The matcher itself lives in [`raptor_common::like`] (it is shared with
//! the graph store's predicate lowering); this module re-exports it and
//! adds literal-run extraction, so the trigram index can narrow the
//! dictionary strings a `LIKE` is tested on to those holding the rarest
//! trigram of its longest literal run.

pub use raptor_common::like::like_match;

/// The longest literal run of a LIKE pattern — a maximal stretch between
/// wildcards, `%` or `_` — if it is at least one trigram (3 bytes) long.
/// Every literal run of a pattern appears verbatim in any text matching
/// it, whatever the wildcards around it, so this is a necessary substring.
/// `None` when no run is long enough for the trigram index to prune with.
/// Of equally long runs the first is returned.
pub fn containment_literal(pattern: &str) -> Option<&str> {
    pattern.split(['%', '_']).filter(|run| run.len() >= 3).reduce(|best, run| {
        if run.len() > best.len() {
            run
        } else {
            best
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_extraction() {
        assert_eq!(containment_literal("%/bin/tar%"), Some("/bin/tar"));
        assert_eq!(containment_literal("%curl%"), Some("curl"));
        assert_eq!(containment_literal("/tmp/%"), Some("/tmp/"));
        // Several runs: the longest.
        assert_eq!(containment_literal("%a%bcd%"), Some("bcd"));
        assert_eq!(
            containment_literal("%/home/admin/executable_attach%"),
            Some("/home/admin/executable")
        );
        assert_eq!(containment_literal("%abc%def%"), Some("abc"));
        // `_` splits runs: no run reaches a trigram.
        assert_eq!(containment_literal("%ab_d%"), None);
        // Too short for a trigram.
        assert_eq!(containment_literal("%ab%"), None);
        assert_eq!(containment_literal("%%"), None);
    }

    #[test]
    fn extraction_is_sound() {
        // Every text matching the pattern contains the literal.
        let cases = [
            ("%/etc/passwd%", "/etc/passwd"),
            ("%upload%", "xx upload yy"),
            ("%a%bcd%", "xa-bcd"),
            ("%/home/admin/executable_attach%", "/home/admin/executable-attach.sh"),
            ("pass_mgr.exe", "pass-mgr.exe"),
        ];
        for (pat, text) in cases {
            assert!(like_match(pat, text), "{pat} / {text}");
            let lit = containment_literal(pat).unwrap();
            assert!(text.contains(lit), "{pat} / {text}");
        }
    }
}
