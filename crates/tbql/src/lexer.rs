//! TBQL lexer.
//!
//! Notable tokens: `~>` and `->` (path arrows), `&&`/`||`, `!`, `~` (length
//! range separator), double-quoted strings (with `%` wildcards inside), and
//! identifiers/keywords (keywords are case-sensitive lowercase, like the
//! paper's examples).

use raptor_common::error::{Error, Result};

#[derive(Clone, PartialEq, Debug)]
pub struct Token {
    pub kind: TokenKind,
    pub offset: usize,
}

#[derive(Clone, PartialEq, Debug)]
pub enum TokenKind {
    Word(String),
    Int(i64),
    Str(String),
    Symbol(&'static str),
    Eof,
}

impl TokenKind {
    pub fn describe(&self) -> String {
        match self {
            TokenKind::Word(w) => format!("`{w}`"),
            TokenKind::Int(i) => format!("integer {i}"),
            TokenKind::Str(_) => "string literal".to_string(),
            TokenKind::Symbol(s) => format!("`{s}`"),
            TokenKind::Eof => "end of input".to_string(),
        }
    }
}

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
            out.push(Token { kind: TokenKind::Word(input[i..j].to_string()), offset: start });
            i = j;
        } else if c.is_ascii_digit() {
            let mut j = i + 1;
            while j < bytes.len() && (bytes[j] as char).is_ascii_digit() {
                j += 1;
            }
            let n: i64 = input[i..j]
                .parse()
                .map_err(|_| Error::syntax("integer literal out of range", start))?;
            out.push(Token { kind: TokenKind::Int(n), offset: start });
            i = j;
        } else if c == '"' {
            let mut s = String::new();
            let mut j = i + 1;
            loop {
                if j >= bytes.len() {
                    return Err(Error::syntax("unterminated string literal", start));
                }
                if bytes[j] == b'"' {
                    j += 1;
                    break;
                }
                // Backslash escapes only `"` and `\`; any other backslash is
                // literal (Windows-path IOCs are full of them).
                if bytes[j] == b'\\'
                    && j + 1 < bytes.len()
                    && (bytes[j + 1] == b'"' || bytes[j + 1] == b'\\')
                {
                    s.push(bytes[j + 1] as char);
                    j += 2;
                    continue;
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
            const TWO: [&str; 7] = ["~>", "->", "&&", "||", "<=", ">=", "!="];
            if let Some(sym) = TWO.into_iter().find(|s| bytes[i..].starts_with(s.as_bytes())) {
                out.push(Token { kind: TokenKind::Symbol(sym), offset: start });
                i += 2;
                continue;
            }
            let one: &'static str = match c {
                '[' => "[",
                ']' => "]",
                '(' => "(",
                ')' => ")",
                ',' => ",",
                '.' => ".",
                '!' => "!",
                '~' => "~",
                '-' => "-",
                '=' => "=",
                '<' => "<",
                '>' => ">",
                _ => {
                    let c = input[i..].chars().next().expect("the lexer stops on char boundaries");
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
    fn event_pattern_tokens() {
        let ks = kinds(r#"proc p1["%/bin/tar%"] read file f1["%/etc/passwd%"] as evt1"#);
        assert_eq!(ks[0], TokenKind::Word("proc".into()));
        assert_eq!(ks[1], TokenKind::Word("p1".into()));
        assert_eq!(ks[2], TokenKind::Symbol("["));
        assert_eq!(ks[3], TokenKind::Str("%/bin/tar%".into()));
        assert!(ks.contains(&TokenKind::Word("as".into())));
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
        assert!(ks.contains(&TokenKind::Word("min".into())));
    }

    #[test]
    fn string_escapes() {
        assert_eq!(kinds(r#""a\"b""#)[0], TokenKind::Str("a\"b".into()));
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
