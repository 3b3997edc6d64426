//! Word/punctuation tokenization.
//!
//! Splits text into word and punctuation tokens, preserving byte offsets so
//! downstream stages (IOC restoration, relation ordering by text offset) can
//! map tokens back into the source. The tokenizer assumes IOC protection has
//! already replaced pathological strings; ordinary English conventions apply:
//! punctuation splits off words, sentence-internal hyphens stay inside words
//! ("command-and-control"), trailing periods split ("passwd.").
//!
//! A token borrows its text from the sentence it was cut from. Its
//! lowercased form borrows too when the text is ASCII without an uppercase
//! letter; only a token that needs case folding allocates its `lower`. The
//! output `Vec` is the tokenizer's only other allocation.

use std::borrow::Cow;

use crate::pos::{PosTag, VerbForm};

/// A token with its source span and (after tagging) POS information.
#[derive(Clone, Debug, PartialEq)]
pub struct Token<'a> {
    /// Original text of the token.
    pub text: &'a str,
    /// Lowercased text (tagging and lemmatization key off it): `text`
    /// itself when folding would not change it, else `text.to_lowercase()`.
    pub lower: Cow<'a, str>,
    /// Byte offset of the first byte in the source text.
    pub start: usize,
    /// Byte offset one past the last byte.
    pub end: usize,
    /// Part-of-speech tag (set by [`crate::pos::tag`]; defaults to `X`).
    pub pos: PosTag,
    /// Verb form detail for VERB/AUX tokens.
    pub verb_form: Option<VerbForm>,
}

impl<'a> Token<'a> {
    fn new(text: &'a str, start: usize) -> Self {
        let folded = text.bytes().all(|b| b.is_ascii() && !b.is_ascii_uppercase());
        Token {
            text,
            lower: if folded { Cow::Borrowed(text) } else { Cow::Owned(text.to_lowercase()) },
            start,
            end: start + text.len(),
            pos: PosTag::X,
            verb_form: None,
        }
    }

    /// Is this token a single punctuation mark?
    pub fn is_punct(&self) -> bool {
        self.text.len() == 1 && self.text.chars().next().is_some_and(|c| c.is_ascii_punctuation())
    }
}

fn is_word_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_' || c == '\''
}

/// Tokenizes one sentence (or any text span). `base` offsets all spans, so
/// tokens of a sentence can carry document-level offsets.
pub fn tokenize(text: &str, base: usize) -> Vec<Token<'_>> {
    let mut out = Vec::new();
    let bytes = text.as_bytes();
    let mut i = 0usize;
    while i < bytes.len() {
        let c = text[i..].chars().next().unwrap();
        if c.is_whitespace() {
            i += c.len_utf8();
            continue;
        }
        if is_word_char(c) {
            let start = i;
            let mut j = i;
            while j < bytes.len() {
                let d = text[j..].chars().next().unwrap();
                if is_word_char(d) {
                    j += d.len_utf8();
                } else if (d == '-' || d == '.') && j + d.len_utf8() < bytes.len() {
                    // Keep internal hyphens and internal dots only when a
                    // word character follows AND (for dots) one precedes —
                    // "e.g." stays whole, a sentence-final "." splits off.
                    let next = text[j + d.len_utf8()..].chars().next();
                    if next.is_some_and(is_word_char) {
                        j += d.len_utf8();
                    } else {
                        break;
                    }
                } else {
                    break;
                }
            }
            out.push(Token::new(&text[start..j], base + start));
            i = j;
        } else {
            // Punctuation: one token per mark.
            out.push(Token::new(&text[i..i + c.len_utf8()], base + i));
            i += c.len_utf8();
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(s: &str) -> Vec<&str> {
        tokenize(s, 0).into_iter().map(|t| t.text).collect()
    }

    #[test]
    fn basic_splitting() {
        assert_eq!(
            texts("The attacker used something to read credentials."),
            vec!["The", "attacker", "used", "something", "to", "read", "credentials", "."]
        );
    }

    #[test]
    fn punctuation_splits() {
        assert_eq!(
            texts("It wrote, then read; finally (it) stopped."),
            vec![
                "It", "wrote", ",", "then", "read", ";", "finally", "(", "it", ")", "stopped", "."
            ]
        );
    }

    #[test]
    fn internal_hyphen_and_dot_kept() {
        assert_eq!(texts("command-and-control"), vec!["command-and-control"]);
        assert_eq!(texts("e.g. test"), vec!["e.g", ".", "test"]);
        // Version-ish tokens keep internal dots.
        assert_eq!(texts("stage 2.1 server"), vec!["stage", "2.1", "server"]);
    }

    #[test]
    fn offsets_are_byte_accurate() {
        let toks = tokenize("ab cd.", 100);
        assert_eq!(toks[0].start, 100);
        assert_eq!(toks[0].end, 102);
        assert_eq!(toks[1].start, 103);
        assert_eq!(toks[2].text, ".");
        assert_eq!(toks[2].start, 105);
    }

    #[test]
    fn contractions_stay_joined() {
        assert_eq!(texts("attacker's tool"), vec!["attacker's", "tool"]);
    }

    #[test]
    fn empty_and_whitespace() {
        assert!(texts("").is_empty());
        assert!(texts("   \t\n ").is_empty());
    }

    #[test]
    fn unprotected_iocs_shatter() {
        // The failure mode IOC protection exists to avoid (Table V's
        // "-IOC Protection" row): raw file paths split at every slash, so
        // no single token carries the IOC and tagging/parsing degrade.
        assert_eq!(texts("/etc/passwd"), vec!["/", "etc", "/", "passwd"],);
        assert_eq!(texts("something").len(), 1);
    }

    #[test]
    fn lower_borrows_only_when_folding_is_the_identity() {
        let toks = tokenize("the Attacker read", 0);
        assert!(matches!(toks[0].lower, Cow::Borrowed("the")));
        assert!(matches!(&toks[1].lower, Cow::Owned(s) if s == "attacker"));
        for t in tokenize("Ärger ǅemal straße İd", 0) {
            assert_eq!(t.lower, t.text.to_lowercase(), "{}", t.text);
        }
    }

    #[test]
    fn is_punct_helper() {
        let toks = tokenize("a .", 0);
        assert!(!toks[0].is_punct());
        assert!(toks[1].is_punct());
    }
}
