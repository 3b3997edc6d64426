//! Sentence segmentation.
//!
//! Splits a text block into sentences at `.`, `!`, `?` followed by
//! whitespace and an uppercase/digit/opening-quote continuation, with an
//! abbreviation list preventing false splits. This runs *after* IOC
//! protection in the extraction pipeline — which is the paper's point: raw
//! IOCs like `/etc/passwd` or `192.168.29.128` are full of dots that destroy
//! naive segmentation, but the protected text is ordinary prose.

/// Abbreviations that do not end sentences.
const ABBREVIATIONS: &[&str] = &[
    "e.g", "i.e", "etc", "vs", "cf", "mr", "mrs", "ms", "dr", "prof", "fig", "sec", "no", "vol",
    "approx", "dept", "est", "inc", "ltd", "co", "corp",
];

/// A sentence span: byte offsets into the block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SentenceSpan {
    pub start: usize,
    pub end: usize,
}

/// Segments `text` into sentence spans.
pub fn segment(text: &str) -> Vec<SentenceSpan> {
    let bytes = text.as_bytes();
    let mut spans = Vec::new();
    let mut start = 0usize;
    let mut i = 0usize;
    while i < bytes.len() {
        let c = bytes[i] as char;
        if c == '.' || c == '!' || c == '?' {
            // Look back: abbreviation?
            let prev_word = last_word(&text[start..i]);
            let is_abbrev =
                c == '.' && ABBREVIATIONS.iter().any(|a| prev_word.eq_ignore_ascii_case(a));
            // Look ahead: whitespace then a sentence-opening character.
            let mut j = i + 1;
            // Absorb closing quotes/brackets right after the terminator.
            while j < bytes.len() && matches!(bytes[j] as char, '"' | '\'' | ')' | ']') {
                j += 1;
            }
            let mut k = j;
            while k < bytes.len() && (bytes[k] as char).is_whitespace() {
                k += 1;
            }
            // `k` follows ASCII bytes only, so it is a char boundary: test
            // the char there, not its lead byte read as Latin-1.
            let opens_sentence = text[k..].chars().next().is_none_or(|c| {
                c.is_uppercase() || c.is_ascii_digit() || matches!(c, '"' | '\'' | '(' | '/')
            });
            if !is_abbrev && k > j && opens_sentence || (!is_abbrev && k >= bytes.len()) {
                spans.push(SentenceSpan { start, end: j });
                start = k;
                i = k;
                continue;
            }
        }
        i += 1;
    }
    if start < text.len() {
        let tail = text[start..].trim();
        if !tail.is_empty() {
            spans.push(SentenceSpan { start, end: text.len() });
        }
    }
    spans
}

/// Sentences as string slices.
pub fn sentences(text: &str) -> Vec<&str> {
    segment(text)
        .into_iter()
        .map(|s| text[s.start..s.end].trim())
        .filter(|s| !s.is_empty())
        .collect()
}

fn last_word(s: &str) -> &str {
    s.rsplit(|c: char| c.is_whitespace() || c == '(' || c == ',').next().unwrap_or("")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_simple_sentences() {
        let s = sentences("The attacker used something. It wrote the data to something.");
        assert_eq!(s.len(), 2);
        assert_eq!(s[0], "The attacker used something.");
        assert_eq!(s[1], "It wrote the data to something.");
    }

    #[test]
    fn abbreviations_do_not_split() {
        let s = sentences("The tools, e.g. something, were used. Then it stopped.");
        assert_eq!(s.len(), 2);
        assert!(s[0].contains("e.g. something"));
    }

    #[test]
    fn question_and_exclamation() {
        let s = sentences("What happened? The host was compromised! Then data left.");
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn no_split_before_lowercase() {
        // A stray period followed by lowercase does not open a sentence.
        let s = sentences("The file ver. two was read. Done.");
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn non_ascii_continuations_split_only_when_uppercase() {
        // A lowercase non-ASCII word continues the sentence; its lead byte
        // 0xC3 read as a char is the uppercase 'Ã'.
        assert_eq!(sentences("He ran. état suivant."), vec!["He ran. état suivant."]);
        assert_eq!(sentences("He ran. État suivant."), vec!["He ran.", "État suivant."]);
    }

    #[test]
    fn trailing_text_without_terminator() {
        let s = sentences("First sentence. second half continues without cap");
        assert_eq!(s.len(), 1, "{s:?}");
        let s = sentences("No terminator at all");
        assert_eq!(s, vec!["No terminator at all"]);
    }

    #[test]
    fn ioc_terminated_sentences_split_where_protection_makes_them_uniform() {
        // A dotted IOC at a sentence boundary: the terminator of the first
        // sentence is the IOC's own final dot context — segmentation relies
        // on the following capital, which holds both raw and protected, but
        // the *raw* first sentence carries a mangled IOC while the protected
        // one is clean prose.
        let raw = "The malware connected to 192.168.29.128. Data was leaked.";
        let protected = "The malware connected to something. Data was leaked.";
        assert_eq!(sentences(protected).len(), 2);
        assert_eq!(sentences(raw).len(), 2);
        // The raw variant leaves a truncated IOC in sentence 1 (its trailing
        // ".128." is fused with the terminator) — exactly why protection
        // must happen before segmentation.
        assert!(sentences(raw)[0].ends_with("192.168.29.128."));
    }

    #[test]
    fn empty_input() {
        assert!(sentences("").is_empty());
        assert!(sentences("   ").is_empty());
    }

    #[test]
    fn spans_cover_offsets() {
        let text = "Alpha beta. Gamma delta.";
        let spans = segment(text);
        assert_eq!(spans.len(), 2);
        assert_eq!(&text[spans[0].start..spans[0].end], "Alpha beta.");
        assert_eq!(&text[spans[1].start..spans[1].end], "Gamma delta.");
    }
}
