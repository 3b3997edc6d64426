//! SQL's tokens, as the shared lexer reads them under
//! [`raptor_common::lex::SQL`]: case-insensitive keywords, `'...'` strings
//! with doubled-quote escaping, signed integers, and `<>` read as `!=`.

#[cfg(test)]
mod tests {
    use raptor_common::error::Result;
    use raptor_common::lex::{Token, TokenKind, SQL};

    fn lex(s: &str) -> Result<Vec<Token<'_>>> {
        SQL.lex(s)
    }

    fn kinds(s: &str) -> Vec<TokenKind<'_>> {
        lex(s).unwrap().into_iter().map(|t| t.kind).collect()
    }

    /// The string literals of `s`, escapes resolved.
    fn strings(s: &str) -> Vec<String> {
        let raws = kinds(s).into_iter().filter_map(|k| match k {
            TokenKind::Str(raw) => Some(raw),
            _ => None,
        });
        raws.map(|raw| SQL.unescape(raw)).collect()
    }

    #[test]
    fn words_numbers_symbols() {
        let ks = kinds("SELECT a.b, 42 FROM t WHERE x >= -7");
        assert_eq!(ks[0], TokenKind::Word("SELECT"));
        assert_eq!(ks[1], TokenKind::Word("a"));
        assert_eq!(ks[2], TokenKind::Symbol("."));
        assert_eq!(ks[3], TokenKind::Word("b"));
        assert_eq!(ks[4], TokenKind::Symbol(","));
        assert_eq!(ks[5], TokenKind::Int(42));
        assert!(ks.contains(&TokenKind::Symbol(">=")));
        assert!(ks.contains(&TokenKind::Int(-7)));
        assert_eq!(*ks.last().unwrap(), TokenKind::Eof);
    }

    #[test]
    fn string_literals_with_escapes() {
        assert_eq!(strings("'it''s' '/bin/tar' '%like%'"), ["it's", "/bin/tar", "%like%"]);
    }

    #[test]
    fn ne_spellings() {
        assert_eq!(kinds("<>")[0], TokenKind::Symbol("!="));
        assert_eq!(kinds("!=")[0], TokenKind::Symbol("!="));
    }

    #[test]
    fn errors_carry_offsets() {
        let err = lex("a ; b").unwrap_err();
        assert_eq!(err.offset, Some(2));
        let err = lex("'open").unwrap_err();
        assert!(err.message.contains("unterminated"));
    }

    #[test]
    fn unicode_in_strings() {
        assert_eq!(strings("'café'"), ["café"]);
    }

    /// A non-ASCII character outside a string literal is reported, decoded,
    /// at its offset — neither a panic inside a multi-byte character nor
    /// its first byte misread as Latin-1.
    #[test]
    fn non_ascii_outside_strings_is_a_syntax_error() {
        for (ch, at) in [('日', 28), ('é', 28)] {
            let err = lex(&format!("SELECT id FROM events WHERE {ch} 1")).unwrap_err();
            assert_eq!(err.kind, raptor_common::error::ErrorKind::Syntax);
            assert_eq!(err.offset, Some(at));
            assert_eq!(err.message, format!("unexpected character `{ch}`"));
        }
    }
}
