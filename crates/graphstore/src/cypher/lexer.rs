//! Cypher's tokens, as the shared lexer reads them under
//! [`raptor_common::lex::CYPHER`]: relationship arrows, `*m..n` hop ranges,
//! `{k: v}` property maps and `'...'` strings.

#[cfg(test)]
mod tests {
    use raptor_common::error::Result;
    use raptor_common::lex::{Token, TokenKind, CYPHER};

    fn lex(s: &str) -> Result<Vec<Token<'_>>> {
        CYPHER.lex(s)
    }

    fn kinds(s: &str) -> Vec<TokenKind<'_>> {
        lex(s).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn relationship_arrows() {
        let ks = kinds("(p)-[e:EVENT*2..4]->(f)");
        assert!(ks.contains(&TokenKind::Symbol("->")));
        assert!(ks.contains(&TokenKind::Symbol("..")));
        assert!(ks.contains(&TokenKind::Symbol("*")));
        assert!(ks.contains(&TokenKind::Symbol("[")));
    }

    #[test]
    fn property_map() {
        let ks = kinds("{optype: 'read', n: 42}");
        assert!(ks.contains(&TokenKind::Str("read")));
        assert!(ks.contains(&TokenKind::Int(42)));
        assert!(ks.contains(&TokenKind::Symbol(":")));
    }

    #[test]
    fn ne_symbol() {
        assert_eq!(kinds("<>")[0], TokenKind::Symbol("<>"));
    }

    #[test]
    fn error_offset() {
        assert_eq!(lex("a ; b").unwrap_err().offset, Some(2));
    }

    /// A non-ASCII character outside a string literal is reported, decoded,
    /// at its offset — neither a panic inside a multi-byte character nor
    /// its first byte misread as Latin-1.
    #[test]
    fn non_ascii_outside_strings_is_a_syntax_error() {
        for (ch, at) in [('日', 16), ('é', 16)] {
            let err = lex(&format!("MATCH (n) WHERE {ch} 1")).unwrap_err();
            assert_eq!(err.kind, raptor_common::error::ErrorKind::Syntax);
            assert_eq!(err.offset, Some(at));
            assert_eq!(err.message, format!("unexpected character `{ch}`"));
        }
    }
}
