//! Part-of-speech tagging.
//!
//! A deterministic three-stage tagger: (1) closed-class lexicon lookup,
//! (2) morphology (suffix) rules with a security-verb lexicon, (3) context
//! repair passes (participles after determiners become adjectives,
//! infinitival `to`, modal complements, noun/verb disambiguation by the
//! preceding tag). Accuracy on the OSCTI register — short declarative
//! sentences about tools reading/writing/connecting — is what matters, not
//! newswire coverage.

use crate::tokenize::Token;

/// Coarse universal-style POS tags.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum PosTag {
    Noun,
    Propn,
    Verb,
    Aux,
    Det,
    Adj,
    Adv,
    Pron,
    /// Adposition (preposition).
    Adp,
    /// Coordinating conjunction.
    Cconj,
    /// Subordinating conjunction.
    Sconj,
    /// Particle (infinitival `to`).
    Part,
    Num,
    Punct,
    /// Unknown.
    X,
}

/// Verb form detail.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum VerbForm {
    Base,
    Past,
    Gerund,
    Participle,
    ThirdPerson,
}

/// Base-form verbs common in OSCTI text (the tagger recognizes their
/// inflections through [`crate::lemma`]).
pub const VERB_LEXICON: &[&str] = &[
    "access",
    "append",
    "archive",
    "attack",
    "attempt",
    "beacon",
    "browse",
    "bypass",
    "capture",
    "click",
    "collect",
    "communicate",
    "compress",
    "compromise",
    "conduct",
    "connect",
    "contact",
    "contain",
    "continue",
    "copy",
    "correspond",
    "crack",
    "create",
    "decode",
    "decrypt",
    "delete",
    "deploy",
    "distribute",
    "download",
    "drop",
    "dump",
    "employ",
    "encode",
    "encrypt",
    "escalate",
    "establish",
    "evade",
    "execute",
    "exfiltrate",
    "exploit",
    "extract",
    "fetch",
    "gather",
    "get",
    "hide",
    "host",
    "include",
    "infect",
    "inject",
    "install",
    "involve",
    "launch",
    "leak",
    "leverage",
    "load",
    "log",
    "mail",
    "maintain",
    "modify",
    "monitor",
    "move",
    "obfuscate",
    "obtain",
    "open",
    "overwrite",
    "pack",
    "penetrate",
    "perform",
    "persist",
    "phish",
    "proceed",
    "propagate",
    "query",
    "read",
    "receive",
    "record",
    "register",
    "remove",
    "rename",
    "represent",
    "resolve",
    "retrieve",
    "run",
    "save",
    "scan",
    "schedule",
    "scrape",
    "seek",
    "send",
    "serve",
    "spawn",
    "spread",
    "start",
    "steal",
    "stop",
    "store",
    "target",
    "transfer",
    "try",
    "unpack",
    "unzip",
    "upload",
    "use",
    "utilize",
    "visit",
    "wipe",
    "write",
    "zip",
];

/// Sorted, for binary search.
const NOUN_LEXICON: &[&str] = &[
    "activities",
    "activity",
    "address",
    "archive",
    "asset",
    "assets",
    "attachment",
    "attacker",
    "backdoor",
    "behavior",
    "behaviors",
    "browser",
    "command",
    "connection",
    "control",
    "credential",
    "credentials",
    "data",
    "detail",
    "details",
    "email",
    "extension",
    "file",
    "files",
    "host",
    "image",
    "information",
    "link",
    "machine",
    "malware",
    "metadata",
    "network",
    "password",
    "passwords",
    "payload",
    "process",
    "processes",
    "reconnaissance",
    "repository",
    "scanning",
    "script",
    "server",
    "service",
    "shell",
    "something",
    "stage",
    "step",
    "system",
    "text",
    "tool",
    "user",
    "users",
    "utility",
    "victim",
    "vulnerability",
];

fn closed_class(lower: &str) -> Option<PosTag> {
    Some(match lower {
        "the" | "a" | "an" | "this" | "these" | "those" | "its" | "his" | "her" | "their"
        | "all" | "each" | "every" | "any" | "some" | "no" | "both" => PosTag::Det,
        "it" | "he" | "she" | "they" | "them" | "him" | "itself" | "himself" | "themselves"
        | "who" | "whom" | "what" => PosTag::Pron,
        "which" | "that" => PosTag::Sconj, // repaired to Det/Pron contextually
        "from" | "to" | "into" | "onto" | "on" | "in" | "with" | "by" | "of" | "at" | "over"
        | "through" | "against" | "via" | "for" | "as" | "back" | "up" | "down" | "inside"
        | "within" | "without" | "across" | "after" | "before" | "during" | "under" => PosTag::Adp,
        "and" | "or" | "but" => PosTag::Cconj,
        "because" | "while" | "when" | "where" | "if" | "since" | "although" | "once" => {
            PosTag::Sconj
        }
        "is" | "are" | "was" | "were" | "be" | "been" | "being" | "am" | "has" | "have" | "had"
        | "do" | "does" | "did" | "will" | "would" | "can" | "could" | "may" | "might"
        | "should" | "must" | "shall" => PosTag::Aux,
        "then" | "finally" | "first" | "next" | "also" | "later" | "subsequently" | "mainly"
        | "remotely" | "locally" | "further" | "eventually" | "afterwards" | "not" => PosTag::Adv,
        _ => return None,
    })
}

fn is_irregular_past(lower: &str) -> bool {
    matches!(
        lower,
        "wrote"
            | "sent"
            | "ran"
            | "took"
            | "stole"
            | "got"
            | "began"
            | "hid"
            | "made"
            | "gave"
            | "went"
            | "came"
            | "found"
            | "left"
            | "put"
            | "set"
            | "kept"
            | "held"
            | "brought"
            | "built"
            | "sought"
            | "spread"
    )
}

fn in_verb_lexicon(lower: &str) -> bool {
    VERB_LEXICON.binary_search(&lower).is_ok()
}

/// The [`VERB_LEXICON`] entry spelled `stem` followed by `suffix`, found
/// without building the concatenation.
pub(crate) fn verb_entry(stem: &str, suffix: &str) -> Option<&'static str> {
    let word = || stem.bytes().chain(suffix.bytes());
    VERB_LEXICON.binary_search_by(|e| e.bytes().cmp(word())).ok().map(|i| VERB_LEXICON[i])
}

fn in_noun_lexicon(lower: &str) -> bool {
    NOUN_LEXICON.binary_search(&lower).is_ok()
}

/// Morphological guess for an open-class word, without context.
fn morphology(lower: &str) -> (PosTag, Option<VerbForm>) {
    if is_irregular_past(lower) {
        return (PosTag::Verb, Some(VerbForm::Past));
    }
    if in_verb_lexicon(lower) {
        return (PosTag::Verb, Some(VerbForm::Base));
    }
    if let Some(stem) = lower.strip_suffix("ing") {
        if stem.len() >= 2
            && (in_verb_lexicon(stem) || verb_entry(stem, "e").is_some() || is_cvc(stem))
        {
            return (PosTag::Verb, Some(VerbForm::Gerund));
        }
    }
    if let Some(stem) = lower.strip_suffix("ed") {
        if stem.len() >= 2 {
            return (PosTag::Verb, Some(VerbForm::Past));
        }
    }
    if lower.ends_with("ly") && lower.len() > 3 {
        return (PosTag::Adv, None);
    }
    if lower.ends_with("tion")
        || lower.ends_with("ment")
        || lower.ends_with("ness")
        || lower.ends_with("ity")
        || lower.ends_with("ance")
        || lower.ends_with("ence")
    {
        return (PosTag::Noun, None);
    }
    if let Some(stem) = lower.strip_suffix('s') {
        if in_verb_lexicon(stem) {
            // "downloads", "reads": verb (3rd person) or plural noun —
            // resolved contextually; default to verb.
            return (PosTag::Verb, Some(VerbForm::ThirdPerson));
        }
    }
    (PosTag::Noun, None)
}

/// Consonant-vowel-consonant ending with doubled final consonant stripped,
/// e.g. "stopping" → "stopp" → try "stop".
fn is_cvc(stem: &str) -> bool {
    if stem.len() >= 3 {
        let b = stem.as_bytes();
        if b[b.len() - 1].is_ascii() && b[b.len() - 1] == b[b.len() - 2] {
            let undoubled = &stem[..stem.len() - 1];
            return in_verb_lexicon(undoubled);
        }
    }
    false
}

/// Tags a token slice in place.
pub fn tag(tokens: &mut [Token<'_>]) {
    // Pass 1: context-free tags.
    for (i, tok) in tokens.iter_mut().enumerate() {
        if tok.is_punct() || tok.text.chars().all(|c| c.is_ascii_punctuation()) {
            tok.pos = PosTag::Punct;
            continue;
        }
        if tok.text.chars().next().is_some_and(|c| c.is_ascii_digit()) {
            tok.pos = PosTag::Num;
            continue;
        }
        if let Some(t) = closed_class(&tok.lower) {
            tok.pos = t;
            continue;
        }
        if in_noun_lexicon(&tok.lower) {
            tok.pos = PosTag::Noun;
            continue;
        }
        let (t, form) = morphology(&tok.lower);
        // Capitalized unknown word mid-sentence → proper noun
        // ("VPNFilter", "GnuPG", "Dropbox").
        let capitalized = tok.text.chars().next().is_some_and(char::is_uppercase);
        if capitalized && i > 0 && t == PosTag::Noun {
            tok.pos = PosTag::Propn;
        } else {
            tok.pos = t;
            tok.verb_form = form;
        }
    }

    // Pass 2: context repair.
    for i in 0..tokens.len() {
        let prev = if i > 0 { Some(tokens[i - 1].pos) } else { None };
        // The next token is read in place: this pass has not reached it.
        let next = tokens.get(i + 1);
        let next_is_verb = next.is_some_and(|t| matches!(t.pos, PosTag::Verb | PosTag::Aux));

        // Demonstrative directly before a verb is a pronoun subject
        // ("This corresponds to ...", "That connects to ...").
        if matches!(&*tokens[i].lower, "this" | "that" | "these" | "those")
            && tokens[i].pos == PosTag::Det
            && next_is_verb
        {
            tokens[i].pos = PosTag::Pron;
            continue;
        }
        // Infinitival `to`: ADP → PART when a base verb follows.
        if tokens[i].lower == "to"
            && tokens
                .get(i + 1)
                .is_some_and(|t| in_verb_lexicon(&t.lower) || is_irregular_past(&t.lower))
        {
            tokens[i].pos = PosTag::Part;
            continue;
        }
        // After infinitival `to` or a modal: base verb.
        if (matches!(prev, Some(PosTag::Part))
            || (i > 0 && tokens[i - 1].pos == PosTag::Aux && is_modal(&tokens[i - 1].lower)))
            && in_verb_lexicon(&tokens[i].lower)
        {
            tokens[i].pos = PosTag::Verb;
            tokens[i].verb_form = Some(VerbForm::Base);
            continue;
        }
        // Determiner/adjective + past-verb + noun → participial adjective
        // ("the gathered information", "the launched process").
        if matches!(prev, Some(PosTag::Det) | Some(PosTag::Adj))
            && tokens[i].pos == PosTag::Verb
            && matches!(tokens[i].verb_form, Some(VerbForm::Past))
        {
            let noun_follows = tokens
                .get(i + 1)
                .map(|t| matches!(t.pos, PosTag::Noun | PosTag::Propn | PosTag::Num))
                .unwrap_or(false);
            if noun_follows {
                tokens[i].pos = PosTag::Adj;
                tokens[i].verb_form = None;
                continue;
            }
        }
        // Determiner + verb-tagged word (not participle) → noun
        // ("a download", "the use").
        if matches!(prev, Some(PosTag::Det))
            && tokens[i].pos == PosTag::Verb
            && matches!(tokens[i].verb_form, Some(VerbForm::Base) | Some(VerbForm::ThirdPerson))
        {
            tokens[i].pos = PosTag::Noun;
            tokens[i].verb_form = None;
            continue;
        }
        // AUX + past form → passive participle ("was downloaded").
        if matches!(prev, Some(PosTag::Aux))
            && tokens[i].pos == PosTag::Verb
            && matches!(tokens[i].verb_form, Some(VerbForm::Past))
        {
            tokens[i].verb_form = Some(VerbForm::Participle);
        }
        // `which`/`that` before a verb acts as a relative pronoun.
        if matches!(&*tokens[i].lower, "which" | "that") {
            if next_is_verb {
                tokens[i].pos = PosTag::Pron;
            } else if tokens[i].lower == "that" {
                tokens[i].pos = PosTag::Det;
            }
        }
    }
}

fn is_modal(lower: &str) -> bool {
    matches!(
        lower,
        "will" | "would" | "can" | "could" | "may" | "might" | "should" | "must" | "shall"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenize::tokenize;

    fn tagged(s: &str) -> Vec<(&str, PosTag)> {
        let mut toks = tokenize(s, 0);
        tag(&mut toks);
        toks.into_iter().map(|t| (t.text, t.pos)).collect()
    }

    fn tags_of(s: &str) -> Vec<PosTag> {
        tagged(s).into_iter().map(|(_, t)| t).collect()
    }

    #[test]
    fn verb_lexicon_is_sorted_for_binary_search() {
        let mut sorted = VERB_LEXICON.to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, VERB_LEXICON);
    }

    #[test]
    fn noun_lexicon_is_sorted_for_binary_search() {
        let mut sorted = NOUN_LEXICON.to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, NOUN_LEXICON);
    }

    #[test]
    fn verb_entry_matches_the_concatenation() {
        for (stem, suffix) in [("us", "e"), ("leverag", "e"), ("cop", "y"), ("rea", "d"), ("", "")]
        {
            let word = format!("{stem}{suffix}");
            assert_eq!(verb_entry(stem, suffix), VERB_LEXICON.iter().copied().find(|&w| w == word));
        }
    }

    #[test]
    fn simple_declarative() {
        let t = tagged("The attacker used something to read credentials from something");
        assert_eq!(t[0].1, PosTag::Det);
        assert_eq!(t[1].1, PosTag::Noun); // attacker
        assert_eq!(t[2].1, PosTag::Verb); // used
        assert_eq!(t[3].1, PosTag::Noun); // something
        assert_eq!(t[4].1, PosTag::Part); // to (infinitival)
        assert_eq!(t[5].1, PosTag::Verb); // read
        assert_eq!(t[7].1, PosTag::Adp); // from
    }

    #[test]
    fn participial_adjective_after_det() {
        let t = tagged("It wrote the gathered information to a file");
        assert_eq!(t[1].1, PosTag::Verb); // wrote (irregular past)
        assert_eq!(t[3].1, PosTag::Adj); // gathered
        assert_eq!(t[4].1, PosTag::Noun); // information
        assert_eq!(t[5].1, PosTag::Adp); // to (prepositional: followed by DET)
    }

    #[test]
    fn passive_participle() {
        let mut toks = tokenize("the file was downloaded by the malware", 0);
        tag(&mut toks);
        assert_eq!(toks[3].pos, PosTag::Verb);
        assert_eq!(toks[3].verb_form, Some(VerbForm::Participle));
        assert_eq!(toks[4].pos, PosTag::Adp); // by
    }

    #[test]
    fn third_person_verbs() {
        let t = tagged("The malware downloads the payload");
        assert_eq!(t[1].1, PosTag::Noun);
        assert_eq!(t[2].1, PosTag::Verb); // downloads
        assert_eq!(t[4].1, PosTag::Noun);
    }

    #[test]
    fn proper_nouns_mid_sentence() {
        let t = tagged("The attacker connects to Dropbox");
        assert_eq!(t[4].1, PosTag::Propn);
    }

    #[test]
    fn gerund_after_noun() {
        let mut toks = tokenize("the process something reading from something", 0);
        tag(&mut toks);
        let reading = toks.iter().find(|t| t.lower == "reading").unwrap();
        assert_eq!(reading.pos, PosTag::Verb);
        assert_eq!(reading.verb_form, Some(VerbForm::Gerund));
    }

    #[test]
    fn relative_pronoun_which() {
        let t = tagged("the file which corresponds to the process");
        assert_eq!(t[2].1, PosTag::Pron); // which (verb follows)
    }

    #[test]
    fn numbers_and_punct() {
        let t = tags_of("stage 2 server , done .");
        assert_eq!(t[1], PosTag::Num);
        assert_eq!(t[3], PosTag::Punct);
        assert_eq!(t[5], PosTag::Punct);
    }

    #[test]
    fn coordination() {
        let t = tagged("something read from something and wrote to something");
        let and = &t[4];
        assert_eq!(and.1, PosTag::Cconj);
        assert_eq!(t[5].1, PosTag::Verb); // wrote
    }

    #[test]
    fn multibyte_words_tag_without_splitting_a_char() {
        // U+4E38 is E4 B8 B8: "x\u{4e38}ing" must not read as a doubled
        // consonant.
        assert_eq!(tags_of("it x\u{4e38}ing \u{4e38}ed")[1], PosTag::Noun);
    }

    #[test]
    fn noun_after_det_for_ambiguous_words() {
        let t = tagged("the download finished");
        assert_eq!(t[1].1, PosTag::Noun);
    }
}
