//! Lemmatization.
//!
//! Maps inflected verb forms back to their base form so extracted relation
//! verbs are canonical ("wrote" → "write", "downloads" → "download").
//! Irregular table first, then suffix stripping with doubled-consonant and
//! silent-e restoration, validated against the verb lexicon when possible.
//!
//! Nothing here allocates: a lemma is either a `'static` entry of the
//! irregular table or the verb lexicon, or a slice of the word itself, and a
//! restored form ("us" + "e") is looked up without being built.

use crate::pos::{verb_entry, VERB_LEXICON};

const IRREGULARS: &[(&str, &str)] = &[
    ("began", "begin"),
    ("brought", "bring"),
    ("built", "build"),
    ("came", "come"),
    ("did", "do"),
    ("found", "find"),
    ("gave", "give"),
    ("got", "get"),
    ("had", "have"),
    ("held", "hold"),
    ("hid", "hide"),
    ("kept", "keep"),
    ("left", "leave"),
    ("made", "make"),
    ("ran", "run"),
    ("sent", "send"),
    ("sought", "seek"),
    ("stole", "steal"),
    ("took", "take"),
    ("was", "be"),
    ("went", "go"),
    ("were", "be"),
    ("wrote", "write"),
];

fn in_lexicon(s: &str) -> bool {
    VERB_LEXICON.binary_search(&s).is_ok()
}

/// Lemmatizes a (lowercased) verb form.
pub fn lemmatize_verb(lower: &str) -> &str {
    if let Ok(i) = IRREGULARS.binary_search_by_key(&lower, |&(w, _)| w) {
        return IRREGULARS[i].1;
    }
    if in_lexicon(lower) {
        return lower;
    }
    // -ies → -y ("copies" → "copy")
    if let Some(stem) = lower.strip_suffix("ies") {
        if let Some(lemma) = verb_entry(stem, "y") {
            return lemma;
        }
    }
    // -es / -s ("executes" → "execute", "downloads" → "download")
    for suf in ["es", "s"] {
        if let Some(stem) = lower.strip_suffix(suf) {
            if in_lexicon(stem) {
                return stem;
            }
        }
    }
    // -ed / -ing with silent-e and doubled-consonant restoration.
    for suf in ["ed", "ing"] {
        if let Some(stem) = lower.strip_suffix(suf) {
            if in_lexicon(stem) {
                return stem;
            }
            if let Some(lemma) = verb_entry(stem, "e") {
                return lemma;
            }
            if stem.len() >= 2 {
                let b = stem.as_bytes();
                // ASCII only: two equal trailing bytes of one multi-byte
                // char are no doubled consonant, nor a char boundary.
                if b[b.len() - 1].is_ascii() && b[b.len() - 1] == b[b.len() - 2] {
                    let undoubled = &stem[..stem.len() - 1];
                    if in_lexicon(undoubled) {
                        return undoubled;
                    }
                }
            }
            // Unknown verb: best-effort strip anyway ("beaconed" → "beacon").
            if stem.len() >= 3 {
                return stem;
            }
        }
    }
    lower
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn irregular_table_is_sorted() {
        let mut sorted = IRREGULARS.to_vec();
        sorted.sort_by_key(|&(w, _)| w);
        assert_eq!(sorted, IRREGULARS);
    }

    #[test]
    fn irregulars() {
        assert_eq!(lemmatize_verb("wrote"), "write");
        assert_eq!(lemmatize_verb("ran"), "run");
        assert_eq!(lemmatize_verb("stole"), "steal");
        assert_eq!(lemmatize_verb("sent"), "send");
    }

    #[test]
    fn regular_suffixes() {
        assert_eq!(lemmatize_verb("downloads"), "download");
        assert_eq!(lemmatize_verb("downloaded"), "download");
        assert_eq!(lemmatize_verb("downloading"), "download");
        assert_eq!(lemmatize_verb("executes"), "execute");
        assert_eq!(lemmatize_verb("executed"), "execute");
        assert_eq!(lemmatize_verb("reads"), "read");
        assert_eq!(lemmatize_verb("copies"), "copy");
    }

    #[test]
    fn silent_e_restoration() {
        assert_eq!(lemmatize_verb("used"), "use");
        assert_eq!(lemmatize_verb("using"), "use");
        assert_eq!(lemmatize_verb("compressed"), "compress");
        assert_eq!(lemmatize_verb("leveraged"), "leverage");
        assert_eq!(lemmatize_verb("encrypted"), "encrypt");
    }

    #[test]
    fn doubled_consonant() {
        assert_eq!(lemmatize_verb("dropped"), "drop");
        assert_eq!(lemmatize_verb("scanning"), "scan");
    }

    #[test]
    fn base_forms_pass_through() {
        assert_eq!(lemmatize_verb("read"), "read");
        assert_eq!(lemmatize_verb("connect"), "connect");
    }

    #[test]
    fn unknown_words_best_effort() {
        assert_eq!(lemmatize_verb("beaconed"), "beacon");
        assert_eq!(lemmatize_verb("frobnicate"), "frobnicate");
    }

    #[test]
    fn lemmas_slice_the_word_or_a_table() {
        let word = String::from("downloads");
        let lemma = lemmatize_verb(&word);
        assert_eq!(lemma, "download");
        assert_eq!(lemma.as_ptr(), word.as_ptr(), "a stripped suffix is a slice of the word");
        let word = String::from("using");
        let lemma = lemmatize_verb(&word);
        assert_eq!(lemma, "use");
        assert!(
            !word.as_bytes().as_ptr_range().contains(&lemma.as_ptr()),
            "a restored form is a table entry"
        );
    }

    #[test]
    fn multibyte_stems_do_not_split_a_char() {
        // U+4E38 is E4 B8 B8: its last two bytes are equal.
        assert_eq!(lemmatize_verb("\u{4e38}ed"), "\u{4e38}");
        assert_eq!(lemmatize_verb("x\u{4e38}ing"), "x\u{4e38}");
    }
}
