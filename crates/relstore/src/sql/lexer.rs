//! SQL lexer.

use raptor_common::error::{Error, Result};

/// A lexical token with its byte offset.
#[derive(Clone, PartialEq, Debug)]
pub struct Token {
    pub kind: TokenKind,
    pub offset: usize,
}

#[derive(Clone, PartialEq, Debug)]
pub enum TokenKind {
    /// Keyword or identifier (keywords are recognized case-insensitively by
    /// the parser; `text` preserves the original spelling, `upper` the
    /// normalized form).
    Word {
        text: String,
        upper: String,
    },
    Int(i64),
    Str(String),
    Symbol(&'static str),
    Eof,
}

impl TokenKind {
    pub fn describe(&self) -> String {
        match self {
            TokenKind::Word { text, .. } => format!("`{text}`"),
            TokenKind::Int(i) => format!("integer {i}"),
            TokenKind::Str(_) => "string literal".to_string(),
            TokenKind::Symbol(s) => format!("`{s}`"),
            TokenKind::Eof => "end of input".to_string(),
        }
    }
}

/// Tokenizes a SQL string.
pub fn lex(input: &str) -> Result<Vec<Token>> {
    let bytes = input.as_bytes();
    let mut i = 0usize;
    let mut out = Vec::new();
    while i < bytes.len() {
        let c = bytes[i] as char;
        if c.is_ascii_whitespace() {
            i += 1;
            continue;
        }
        let start = i;
        if c.is_ascii_alphabetic() || c == '_' {
            let mut j = i + 1;
            while j < bytes.len() {
                let d = bytes[j] as char;
                if d.is_ascii_alphanumeric() || d == '_' {
                    j += 1;
                } else {
                    break;
                }
            }
            let text = &input[i..j];
            out.push(Token {
                kind: TokenKind::Word { text: text.to_string(), upper: text.to_ascii_uppercase() },
                offset: start,
            });
            i = j;
        } else if c.is_ascii_digit()
            || (c == '-' && i + 1 < bytes.len() && (bytes[i + 1] as char).is_ascii_digit())
        {
            let mut j = i + 1;
            while j < bytes.len() && (bytes[j] as char).is_ascii_digit() {
                j += 1;
            }
            let n: i64 = input[i..j]
                .parse()
                .map_err(|_| Error::syntax("integer literal out of range", start))?;
            out.push(Token { kind: TokenKind::Int(n), offset: start });
            i = j;
        } else if c == '\'' {
            let mut s = String::new();
            let mut j = i + 1;
            loop {
                if j >= bytes.len() {
                    return Err(Error::syntax("unterminated string literal", start));
                }
                if bytes[j] == b'\'' {
                    if j + 1 < bytes.len() && bytes[j + 1] == b'\'' {
                        s.push('\'');
                        j += 2;
                        continue;
                    }
                    j += 1;
                    break;
                }
                // Strings are UTF-8; copy char-wise.
                let ch_len = utf8_len(bytes[j]);
                s.push_str(&input[j..j + ch_len]);
                j += ch_len;
            }
            out.push(Token { kind: TokenKind::Str(s), offset: start });
            i = j;
        } else {
            // (spelling, token): `<>` is another spelling of `!=`.
            const TWO: [(&str, &str); 4] = [("<=", "<="), (">=", ">="), ("!=", "!="), ("<>", "!=")];
            let two = TWO.into_iter().find(|(s, _)| bytes[i..].starts_with(s.as_bytes()));
            if let Some((_, sym)) = two {
                out.push(Token { kind: TokenKind::Symbol(sym), offset: start });
                i += 2;
                continue;
            }
            let one: &'static str = match c {
                '=' => "=",
                '<' => "<",
                '>' => ">",
                '(' => "(",
                ')' => ")",
                ',' => ",",
                '.' => ".",
                '*' => "*",
                _ => {
                    // The lexer stops on char boundaries: the char at `i`.
                    let c = input[i..].chars().next().unwrap_or(c);
                    return Err(Error::syntax(format!("unexpected character `{c}`"), start));
                }
            };
            out.push(Token { kind: TokenKind::Symbol(one), offset: start });
            i += 1;
        }
    }
    out.push(Token { kind: TokenKind::Eof, offset: input.len() });
    Ok(out)
}

fn utf8_len(first_byte: u8) -> usize {
    match first_byte {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(s: &str) -> Vec<TokenKind> {
        lex(s).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn words_numbers_symbols() {
        let ks = kinds("SELECT a.b, 42 FROM t WHERE x >= -7");
        assert!(matches!(&ks[0], TokenKind::Word { upper, .. } if upper == "SELECT"));
        assert!(matches!(&ks[1], TokenKind::Word { text, .. } if text == "a"));
        assert_eq!(ks[2], TokenKind::Symbol("."));
        assert!(matches!(&ks[3], TokenKind::Word { text, .. } if text == "b"));
        assert_eq!(ks[4], TokenKind::Symbol(","));
        assert_eq!(ks[5], TokenKind::Int(42));
        assert!(ks.contains(&TokenKind::Symbol(">=")));
        assert!(ks.contains(&TokenKind::Int(-7)));
        assert_eq!(*ks.last().unwrap(), TokenKind::Eof);
    }

    #[test]
    fn string_literals_with_escapes() {
        let ks = kinds("'it''s' '/bin/tar' '%like%'");
        assert_eq!(ks[0], TokenKind::Str("it's".into()));
        assert_eq!(ks[1], TokenKind::Str("/bin/tar".into()));
        assert_eq!(ks[2], TokenKind::Str("%like%".into()));
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
        let ks = kinds("'café'");
        assert_eq!(ks[0], TokenKind::Str("café".into()));
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
