//! TBQL's tokens, as the shared lexer reads them under
//! [`raptor_common::lex::TBQL`].
//!
//! Notable tokens: `~>` and `->` (path arrows), `&&`/`||`, `!`, `~` (length
//! range separator), double-quoted strings (with `%` wildcards inside), and
//! identifiers/keywords (keywords are case-sensitive lowercase, like the
//! paper's examples).

#[cfg(test)]
mod tests {
    use raptor_common::error::Result;
    use raptor_common::lex::{Token, TokenKind, TBQL};

    fn lex(s: &str) -> Result<Vec<Token<'_>>> {
        TBQL.lex(s)
    }

    fn kinds(s: &str) -> Vec<TokenKind<'_>> {
        lex(s).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn event_pattern_tokens() {
        let ks = kinds(r#"proc p1["%/bin/tar%"] read file f1["%/etc/passwd%"] as evt1"#);
        assert_eq!(ks[0], TokenKind::Word("proc"));
        assert_eq!(ks[1], TokenKind::Word("p1"));
        assert_eq!(ks[2], TokenKind::Symbol("["));
        assert_eq!(ks[3], TokenKind::Str("%/bin/tar%"));
        assert!(ks.contains(&TokenKind::Word("as")));
    }

    #[test]
    fn path_arrows_and_ranges() {
        let ks = kinds("proc p ~>(2~4)[read] file f");
        assert!(ks.contains(&TokenKind::Symbol("~>")));
        assert!(ks.contains(&TokenKind::Symbol("~")));
        assert!(ks.contains(&TokenKind::Int(2)));
        let ks = kinds("proc p ->[open] file f");
        assert!(ks.contains(&TokenKind::Symbol("->")));
    }

    #[test]
    fn logical_operators() {
        let ks = kinds(r#"proc p[pid = 1 && exename != "%x%"] read || write file f"#);
        assert!(ks.contains(&TokenKind::Symbol("&&")));
        assert!(ks.contains(&TokenKind::Symbol("||")));
        assert!(ks.contains(&TokenKind::Symbol("!=")));
    }

    #[test]
    fn temporal_range() {
        let ks = kinds("with evt1 before[0-5 min] evt2");
        assert!(ks.contains(&TokenKind::Symbol("-")));
        assert!(ks.contains(&TokenKind::Word("min")));
    }

    #[test]
    fn string_escapes() {
        let TokenKind::Str(raw) = kinds(r#""a\"b""#)[0] else { panic!("not a string") };
        assert_eq!(TBQL.unescape(raw), "a\"b");
    }

    #[test]
    fn errors() {
        assert!(lex("proc p {").is_err());
        assert!(lex(r#""unterminated"#).is_err());
    }

    /// A non-ASCII character outside a string literal is reported, decoded,
    /// at its offset — neither a panic inside a multi-byte character nor
    /// its first byte misread as Latin-1.
    #[test]
    fn non_ascii_outside_strings_is_a_syntax_error() {
        for (ch, at) in [('日', 19), ('é', 19)] {
            let err = lex(&format!("proc p read file f {ch} 1")).unwrap_err();
            assert_eq!(err.kind, raptor_common::error::ErrorKind::Syntax);
            assert_eq!(err.offset, Some(at));
            assert_eq!(err.message, format!("unexpected character `{ch}`"));
        }
    }
}
