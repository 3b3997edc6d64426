//! The one tokenizer and token cursor of the three query languages: TBQL
//! and the SQL and Cypher subsets the engine compiles it to.
//!
//! A language is a [`Syntax`] value — its symbol table, string quoting,
//! integer sign rule, keyword case and reserved words — and nothing else:
//! [`TBQL`], [`SQL`] and [`CYPHER`]. Tokens borrow the text they were cut
//! from ([`Token`] is `Copy`), so lexing allocates only the token vector; a
//! string literal keeps its raw slice and is unescaped when a parser takes
//! it. Keywords are compared in place (`eq_ignore_ascii_case` where the
//! language folds case), never searched for in a case-folded copy, so an
//! offset is always a byte of the original text and a keyword inside a
//! literal is a literal.
//!
//! [`Cursor`] is the parsers' shared reader. Each language's boolean
//! expressions are a [`Logic`] value that [`Cursor::logic`] parses, the
//! only recursion that input can drive deep; it bounds how deep the tree
//! may nest ([`MAX_DEPTH`]), so hostile input is a syntax error rather than
//! a stack overflow in the parser or in the passes that walk its tree.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

use crate::error::{Error, Result};

/// The deepest tree a parser builds. Each `(`, each nesting `!` / `NOT`
/// and each operator of a left-deep `||` / `&&` / `OR` / `AND` chain is one
/// level, counted while its operand is parsed.
pub const MAX_DEPTH: usize = 256;

/// A query language's lexical rules.
#[derive(Debug)]
pub struct Syntax {
    /// `(spelling, token)` pairs, longer spellings first: the first whose
    /// spelling starts the rest of the input is the token.
    pub symbols: &'static [(&'static str, &'static str)],
    /// The byte that opens and closes a string literal.
    pub quote: u8,
    /// Inside a string literal, this byte followed by `quote` or by itself
    /// stands for the second byte; before anything else it is itself.
    pub escape: u8,
    /// Whether a `-` directly before a digit is the sign of an integer.
    pub signed_ints: bool,
    /// Whether keywords match regardless of ASCII case.
    pub fold_case: bool,
    /// Keywords that are never identifiers.
    pub reserved: &'static [&'static str],
}

/// TBQL: case-sensitive keywords, `"…"` strings with `\"` and `\\` (any
/// other backslash is literal: Windows-path IOCs are full of them), and `-`
/// a symbol of its own (`before[0-5 min]`).
#[rustfmt::skip]
pub const TBQL: Syntax = Syntax {
    symbols: &[
        ("~>", "~>"), ("->", "->"), ("&&", "&&"), ("||", "||"), ("<=", "<="), (">=", ">="),
        ("!=", "!="), ("[", "["), ("]", "]"), ("(", "("), (")", ")"), (",", ","), (".", "."),
        ("!", "!"), ("~", "~"), ("-", "-"), ("=", "="), ("<", "<"), (">", ">"),
    ],
    quote: b'"',
    escape: b'\\',
    signed_ints: false,
    fold_case: false,
    reserved: &[],
};

/// The SQL subset: `'…'` strings with `''`, signed integers, and `<>`
/// another spelling of `!=`.
#[rustfmt::skip]
pub const SQL: Syntax = Syntax {
    symbols: &[
        ("<=", "<="), (">=", ">="), ("!=", "!="), ("<>", "!="), ("=", "="), ("<", "<"),
        (">", ">"), ("(", "("), (")", ")"), (",", ","), (".", "."), ("*", "*"),
    ],
    quote: b'\'',
    escape: b'\'',
    signed_ints: true,
    fold_case: true,
    reserved: &[
        "SELECT", "DISTINCT", "FROM", "WHERE", "AND", "OR", "NOT", "LIKE", "IN", "AS", "ORDER",
        "BY", "LIMIT", "COUNT",
    ],
};

/// The Cypher subset: `'…'` strings with `''`, and signed integers (the
/// subset has no arithmetic; relationships are `-[…]->`).
#[rustfmt::skip]
pub const CYPHER: Syntax = Syntax {
    symbols: &[
        ("->", "->"), ("<-", "<-"), ("..", ".."), ("<=", "<="), (">=", ">="), ("<>", "<>"),
        ("(", "("), (")", ")"), ("[", "["), ("]", "]"), ("{", "{"), ("}", "}"), (":", ":"),
        (",", ","), (".", "."), ("-", "-"), ("=", "="), ("<", "<"), (">", ">"), ("*", "*"),
    ],
    quote: b'\'',
    escape: b'\'',
    signed_ints: true,
    fold_case: true,
    reserved: &[
        "MATCH", "WHERE", "RETURN", "DISTINCT", "LIMIT", "AND", "OR", "NOT", "CONTAINS",
        "STARTS", "ENDS", "WITH", "IN",
    ],
};

/// A token and the byte offset it starts at.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Token<'a> {
    pub kind: TokenKind<'a>,
    pub offset: usize,
}

#[derive(Clone, Copy, PartialEq, Debug)]
pub enum TokenKind<'a> {
    /// A keyword or identifier, as spelled.
    Word(&'a str),
    Int(i64),
    /// A string literal's text between its quotes, escapes unresolved
    /// ([`Syntax::unescape`]).
    Str(&'a str),
    Symbol(&'static str),
    Eof,
}

impl TokenKind<'_> {
    fn describe(&self) -> String {
        match self {
            TokenKind::Word(w) => format!("`{w}`"),
            TokenKind::Int(i) => format!("integer {i}"),
            TokenKind::Str(_) => "string literal".to_string(),
            TokenKind::Symbol(s) => format!("`{s}`"),
            TokenKind::Eof => "end of input".to_string(),
        }
    }
}

/// The end of the run of bytes from `i` that satisfy `keep`.
fn run(bytes: &[u8], mut i: usize, keep: impl Fn(u8) -> bool) -> usize {
    while bytes.get(i).is_some_and(|&b| keep(b)) {
        i += 1;
    }
    i
}

impl Syntax {
    /// Tokenizes `input`; the last token is [`TokenKind::Eof`] at its end.
    pub fn lex<'a>(&self, input: &'a str) -> Result<Vec<Token<'a>>> {
        let bytes = input.as_bytes();
        let mut out = Vec::new();
        let mut i = 0;
        while let Some(&c) = bytes.get(i) {
            let start = i;
            let kind = if c.is_ascii_whitespace() {
                i += 1;
                continue;
            } else if c.is_ascii_alphabetic() || c == b'_' {
                i = run(bytes, i + 1, |b| b.is_ascii_alphanumeric() || b == b'_');
                TokenKind::Word(&input[start..i])
            } else if c.is_ascii_digit()
                || (self.signed_ints
                    && c == b'-'
                    && bytes.get(i + 1).is_some_and(u8::is_ascii_digit))
            {
                i = run(bytes, i + 1, |b| b.is_ascii_digit());
                let n = input[start..i].parse();
                TokenKind::Int(n.map_err(|_| Error::syntax("integer literal out of range", start))?)
            } else if c == self.quote {
                // Quote and escape are ASCII, so no byte of a multi-byte
                // character is mistaken for either.
                i += 1;
                loop {
                    match bytes.get(i) {
                        None => return Err(Error::syntax("unterminated string literal", start)),
                        Some(&b) if b == self.escape && self.escapes(bytes.get(i + 1)) => i += 2,
                        Some(&b) if b == self.quote => break,
                        Some(_) => i += 1,
                    }
                }
                i += 1;
                TokenKind::Str(&input[start + 1..i - 1])
            } else if let Some(&(spelling, sym)) =
                self.symbols.iter().find(|(s, _)| bytes[i..].starts_with(s.as_bytes()))
            {
                i += spelling.len();
                TokenKind::Symbol(sym)
            } else {
                // Every token so far ended on an ASCII byte: `i` is a char
                // boundary, so the character is reported whole.
                let ch = input[i..].chars().next().unwrap_or(char::REPLACEMENT_CHARACTER);
                return Err(Error::syntax(format!("unexpected character `{ch}`"), start));
            };
            out.push(Token { kind, offset: start });
        }
        out.push(Token { kind: TokenKind::Eof, offset: input.len() });
        Ok(out)
    }

    fn escapes(&self, next: Option<&u8>) -> bool {
        next.is_some_and(|&n| n == self.quote || n == self.escape)
    }

    /// A string literal's text ([`TokenKind::Str`]) with its escapes
    /// resolved.
    pub fn unescape(&self, raw: &str) -> String {
        let (quote, escape) = (char::from(self.quote), char::from(self.escape));
        let mut out = String::with_capacity(raw.len());
        let mut chars = raw.chars().peekable();
        while let Some(c) = chars.next() {
            let escaped =
                if c == escape { chars.next_if(|&n| n == quote || n == escape) } else { None };
            out.push(escaped.unwrap_or(c));
        }
        out
    }

    /// `text` as a string literal, the inverse of [`Syntax::unescape`].
    pub fn quote(&self, text: &str) -> String {
        let (quote, escape) = (char::from(self.quote), char::from(self.escape));
        let mut out = String::with_capacity(text.len() + 2);
        out.push(quote);
        for c in text.chars() {
            if c == quote || c == escape {
                out.push(escape);
            }
            out.push(c);
        }
        out.push(quote);
        out
    }

    fn is_keyword(&self, word: &str, kw: &str) -> bool {
        if self.fold_case {
            word.eq_ignore_ascii_case(kw)
        } else {
            word == kw
        }
    }
}

/// A recursive-descent parser's reader over one text's tokens.
pub struct Cursor<'a> {
    syntax: &'static Syntax,
    tokens: Vec<Token<'a>>,
    pos: usize,
    depth: usize,
}

/// A language's boolean expressions: an `or` chain of `and` chains of
/// operands, each operand `not` and an operand, a parenthesised expression
/// or an `atom`. Chains are left-deep (`((a op b) op c) …`).
pub struct Logic<T> {
    pub or: Binary<T>,
    pub and: Binary<T>,
    pub not: Option<Unary<T>>,
    pub atom: fn(&mut Cursor) -> Result<T>,
}

/// A binary operator's spelling and the node it builds.
pub type Binary<T> = (&'static str, fn(Box<T>, Box<T>) -> T);
/// A unary operator's spelling and the node it builds.
pub type Unary<T> = (&'static str, fn(Box<T>) -> T);

impl<'a> Cursor<'a> {
    pub fn new(syntax: &'static Syntax, text: &'a str) -> Result<Self> {
        Ok(Cursor { syntax, tokens: syntax.lex(text)?, pos: 0, depth: 0 })
    }

    pub fn peek(&self) -> Token<'a> {
        self.tokens[self.pos]
    }

    /// The token after the next one, if any.
    pub fn peek2(&self) -> Option<Token<'a>> {
        self.tokens.get(self.pos + 1).copied()
    }

    /// Moves past the next token; [`TokenKind::Eof`] is never passed.
    pub fn advance(&mut self) {
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
    }

    /// Whether the next token is the symbol or the keyword `s`.
    pub fn at(&self, s: &str) -> bool {
        match self.peek().kind {
            TokenKind::Symbol(sym) => sym == s,
            TokenKind::Word(w) => self.syntax.is_keyword(w, s),
            _ => false,
        }
    }

    pub fn eat(&mut self, s: &str) -> bool {
        let at = self.at(s);
        if at {
            self.advance();
        }
        at
    }

    pub fn expect(&mut self, s: &str) -> Result<()> {
        if self.eat(s) {
            Ok(())
        } else {
            Err(self.unexpected(&format!("expected `{s}`")))
        }
    }

    /// Takes the next token if `table` spells it, as its value.
    pub fn eat_one_of<T: Copy>(&mut self, table: &[(&str, T)]) -> Option<T> {
        let &(_, value) = table.iter().find(|(s, _)| self.at(s))?;
        self.advance();
        Some(value)
    }

    /// `"{want}, found {the next token}"` at the next token.
    pub fn unexpected(&self, want: &str) -> Error {
        let t = self.peek();
        Error::syntax(format!("{want}, found {}", t.kind.describe()), t.offset)
    }

    /// Whether the next token is a word that is not reserved.
    pub fn at_identifier(&self) -> bool {
        let reserved = |w| self.syntax.reserved.iter().any(|r| self.syntax.is_keyword(w, r));
        matches!(self.peek().kind, TokenKind::Word(w) if !reserved(w))
    }

    pub fn identifier(&mut self) -> Result<String> {
        match self.peek().kind {
            TokenKind::Word(w) if self.at_identifier() => {
                self.advance();
                Ok(w.to_string())
            }
            _ => Err(self.unexpected("expected identifier")),
        }
    }

    /// Takes the next token if it is an integer ≥ 0.
    pub fn eat_count(&mut self) -> Option<usize> {
        match self.peek().kind {
            TokenKind::Int(n) if n >= 0 => {
                self.advance();
                Some(n as usize)
            }
            _ => None,
        }
    }

    /// Takes the next token if it is an integer ≥ 0; past `u32::MAX` it is
    /// a syntax error.
    pub fn eat_u32(&mut self) -> Result<Option<u32>> {
        let offset = self.peek().offset;
        let n = self.eat_count().map(u32::try_from).transpose();
        n.map_err(|_| Error::syntax("integer literal out of range", offset))
    }

    /// Takes an integer ≥ 0.
    pub fn count(&mut self, want: &str) -> Result<usize> {
        self.eat_count().ok_or_else(|| self.unexpected(want))
    }

    /// Takes a string literal, unescaped.
    pub fn string(&mut self, want: &str) -> Result<String> {
        match self.peek().kind {
            TokenKind::Str(raw) => {
                self.advance();
                Ok(self.syntax.unescape(raw))
            }
            _ => Err(self.unexpected(want)),
        }
    }

    /// Takes an integer or a string literal as the language's literal.
    pub fn literal<T>(
        &mut self,
        int: fn(i64) -> T,
        text: fn(String) -> T,
        want: &str,
    ) -> Result<T> {
        match self.peek().kind {
            TokenKind::Int(n) => {
                self.advance();
                Ok(int(n))
            }
            _ => self.string(want).map(text),
        }
    }

    /// One or more `item`s, separated by commas.
    pub fn list<T>(&mut self, mut item: impl FnMut(&mut Self) -> Result<T>) -> Result<Vec<T>> {
        let mut items = vec![item(self)?];
        while self.eat(",") {
            items.push(item(self)?);
        }
        Ok(items)
    }

    /// Succeeds at the end of the text.
    pub fn end(&self, want: &str) -> Result<()> {
        match self.peek().kind {
            TokenKind::Eof => Ok(()),
            _ => Err(self.unexpected(want)),
        }
    }

    /// Parses one of `g`'s expressions. Each `(`, each `not` and each
    /// chain operator is a level of nesting, open while its operand is
    /// parsed; past [`MAX_DEPTH`] levels the parse is a syntax error at the
    /// token that opens the next one.
    pub fn logic<T>(&mut self, g: &Logic<T>) -> Result<T> {
        let mut left = self.conjunction(g)?;
        let depth = self.depth;
        while self.nest(g.or.0)? {
            left = (g.or.1)(Box::new(left), Box::new(self.conjunction(g)?));
        }
        self.depth = depth;
        Ok(left)
    }

    fn conjunction<T>(&mut self, g: &Logic<T>) -> Result<T> {
        let mut left = self.operand(g)?;
        let depth = self.depth;
        while self.nest(g.and.0)? {
            left = (g.and.1)(Box::new(left), Box::new(self.operand(g)?));
        }
        self.depth = depth;
        Ok(left)
    }

    fn operand<T>(&mut self, g: &Logic<T>) -> Result<T> {
        let e = match g.not {
            Some((not, negate)) if self.nest(not)? => negate(Box::new(self.operand(g)?)),
            _ if self.nest("(")? => {
                let e = self.logic(g)?;
                self.expect(")")?;
                e
            }
            _ => return (g.atom)(self),
        };
        self.depth -= 1;
        Ok(e)
    }

    /// Takes `s`, if next, as one more level of nesting.
    fn nest(&mut self, s: &str) -> Result<bool> {
        if !self.at(s) {
            return Ok(false);
        }
        if self.depth == MAX_DEPTH {
            let msg = format!("expression nested deeper than {MAX_DEPTH} levels");
            return Err(Error::syntax(msg, self.peek().offset));
        }
        self.depth += 1;
        self.advance();
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each token of `text` — words and symbols as spelled, `#n` for an
    /// integer, a string as its unescaped value in `{…}` — or the error.
    fn tokens(syntax: &Syntax, text: &str) -> String {
        match syntax.lex(text) {
            Err(e) => format!("error at {}: {}", e.offset.unwrap_or(usize::MAX), e.message),
            Ok(ts) => ts
                .iter()
                .filter_map(|t| match t.kind {
                    TokenKind::Word(w) => Some(w.to_string()),
                    TokenKind::Int(n) => Some(format!("#{n}")),
                    TokenKind::Str(raw) => Some(format!("{{{}}}", syntax.unescape(raw))),
                    TokenKind::Symbol(s) => Some(s.to_string()),
                    TokenKind::Eof => None,
                })
                .collect::<Vec<_>>()
                .join(" "),
        }
    }

    /// Checks each `(text, tokens or error)` case ([`tokens`]).
    fn check(syntax: &Syntax, cases: &[(&str, &str)]) {
        for &(text, want) in cases {
            assert_eq!(tokens(syntax, text), want, "{text}");
        }
    }

    #[test]
    fn lexes_tbql() {
        check(
            &TBQL,
            &[
                (
                    r#"proc p1["%/bin/tar%"] read file f1["%/etc/passwd%"] as evt1"#,
                    "proc p1 [ {%/bin/tar%} ] read file f1 [ {%/etc/passwd%} ] as evt1",
                ),
                ("proc p ~>(2~4)[read] file f", "proc p ~> ( #2 ~ #4 ) [ read ] file f"),
                ("proc p ->[open] file f", "proc p -> [ open ] file f"),
                (
                    r#"proc p[pid = 1 && exename != "%x%"] read || write file f"#,
                    "proc p [ pid = #1 && exename != {%x%} ] read || write file f",
                ),
                ("with evt1 before[0-5 min] evt2", "with evt1 before [ #0 - #5 min ] evt2"),
                (r#""a\"b" "c\\" "d\x" "it''s""#, r#"{a"b} {c\} {d\x} {it''s}"#),
                ("proc p {", "error at 7: unexpected character `{`"),
                (r#""unterminated"#, "error at 0: unterminated string literal"),
                ("proc p read file f 日 1", "error at 19: unexpected character `日`"),
                ("proc p read file f é 1", "error at 19: unexpected character `é`"),
                ("Proc -7 <>", "Proc - #7 < >"),
            ],
        );
    }

    #[test]
    fn lexes_sql() {
        check(
            &SQL,
            &[
                ("SELECT a.b, 42 FROM t WHERE x >= -7", "SELECT a . b , #42 FROM t WHERE x >= #-7"),
                ("'it''s' '/bin/tar' '%like%'", "{it's} {/bin/tar} {%like%}"),
                ("<> != 0-5", "!= != #0 #-5"),
                ("a ; b", "error at 2: unexpected character `;`"),
                ("'open", "error at 0: unterminated string literal"),
                ("'café' 'a\\'", "{café} {a\\}"),
                ("SELECT id FROM events WHERE 日 1", "error at 28: unexpected character `日`"),
                ("SELECT id FROM events WHERE é 1", "error at 28: unexpected character `é`"),
                ("99999999999999999999", "error at 0: integer literal out of range"),
            ],
        );
    }

    #[test]
    fn lexes_cypher() {
        check(
            &CYPHER,
            &[
                ("(p)-[e:EVENT*2..4]->(f)", "( p ) - [ e : EVENT * #2 .. #4 ] -> ( f )"),
                ("{optype: 'read', n: 42}", "{ optype : {read} , n : #42 }"),
                ("<> <- 'MATCH' -1", "<> <- {MATCH} #-1"),
                ("a ; b", "error at 2: unexpected character `;`"),
                ("MATCH (n) WHERE 日 1", "error at 16: unexpected character `日`"),
                ("MATCH (n) WHERE é 1", "error at 16: unexpected character `é`"),
            ],
        );
    }

    /// No spelling starts with an earlier one, which would hide it.
    #[test]
    fn every_symbol_is_reachable() {
        for syntax in [&TBQL, &SQL, &CYPHER] {
            for (i, (early, _)) in syntax.symbols.iter().enumerate() {
                for (late, _) in &syntax.symbols[i + 1..] {
                    assert!(!late.starts_with(early), "`{late}` after `{early}`");
                }
            }
        }
    }

    /// The alphabet of the lexer fuzz: every symbol of the three
    /// languages, both quotes and escapes, a word, a digit, whitespace, and
    /// a 2-byte and a 3-byte character.
    const SOUP: &[char] = &[
        '~', '>', '-', '&', '|', '<', '=', '!', '[', ']', '(', ')', ',', '.', '*', '{', '}', ':',
        '"', '\'', '\\', 'a', 'Z', '_', '7', ' ', '\n', 'é', '日',
    ];

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(1024))]

        /// Any text lexes to tokens or an error in every language, never a
        /// panic, and each word and string is the text at its offset.
        #[test]
        fn lexing_never_panics(picks in proptest::collection::vec(0..SOUP.len(), 0..40)) {
            let text: String = picks.into_iter().map(|i| SOUP[i]).collect();
            for syntax in [&TBQL, &SQL, &CYPHER] {
                for t in syntax.lex(&text).unwrap_or_default() {
                    match t.kind {
                        TokenKind::Word(w) => assert!(text[t.offset..].starts_with(w)),
                        TokenKind::Str(raw) => assert!(text[t.offset + 1..].starts_with(raw)),
                        _ => {}
                    }
                }
            }
        }

        /// Any text, quoted, lexes back to one string literal of that text.
        #[test]
        fn quoting_round_trips(picks in proptest::collection::vec(0..SOUP.len(), 0..40)) {
            let text: String = picks.into_iter().map(|i| SOUP[i]).collect();
            for syntax in [&TBQL, &SQL, &CYPHER] {
                let quoted = syntax.quote(&text);
                let tokens = syntax.lex(&quoted).unwrap();
                let kinds: Vec<_> = tokens.iter().map(|t| t.kind).collect();
                let [TokenKind::Str(raw), TokenKind::Eof] = kinds[..] else { panic!("{kinds:?}") };
                assert_eq!(syntax.unescape(raw), text);
            }
        }
    }
}
