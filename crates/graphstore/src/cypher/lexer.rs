//! Cypher lexer.

use raptor_common::error::{Error, Result};

#[derive(Clone, PartialEq, Debug)]
pub struct Token {
    pub kind: TokenKind,
    pub offset: usize,
}

#[derive(Clone, PartialEq, Debug)]
pub enum TokenKind {
    Word { text: String, upper: String },
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

/// Tokenizes Cypher. Multi-character symbols: `->`, `<-`, `..`, `<=`, `>=`,
/// `<>`.
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
            // A `-` directly followed by a digit is a negative literal; the
            // subset has no arithmetic, and relationship arrows are `->`/`-[`.
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
                let ch_len = match bytes[j] {
                    0x00..=0x7f => 1,
                    0xc0..=0xdf => 2,
                    0xe0..=0xef => 3,
                    _ => 4,
                };
                s.push_str(&input[j..j + ch_len]);
                j += ch_len;
            }
            out.push(Token { kind: TokenKind::Str(s), offset: start });
            i = j;
        } else {
            const TWO: [&str; 6] = ["->", "<-", "..", "<=", ">=", "<>"];
            if let Some(sym) = TWO.into_iter().find(|s| bytes[i..].starts_with(s.as_bytes())) {
                out.push(Token { kind: TokenKind::Symbol(sym), offset: start });
                i += 2;
                continue;
            }
            let one: &'static str = match c {
                '(' => "(",
                ')' => ")",
                '[' => "[",
                ']' => "]",
                '{' => "{",
                '}' => "}",
                ':' => ":",
                ',' => ",",
                '.' => ".",
                '-' => "-",
                '=' => "=",
                '<' => "<",
                '>' => ">",
                '*' => "*",
                _ => {
                    let c: String = input[i..].chars().take(1).collect();
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

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(s: &str) -> Vec<TokenKind> {
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
        assert!(ks.contains(&TokenKind::Str("read".into())));
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
