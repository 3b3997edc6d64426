//! Tree annotation and simplification (Steps 5–6 of Algorithm 1).
//!
//! After dependency parsing, the pipeline annotates the nodes that matter
//! for coreference and relation extraction: IOC nodes (dummy tokens aligned
//! through the replacement record), candidate relation verbs (a curated
//! keyword list, matched on lemmas), and pronouns. Trees with no candidate
//! verb or no IOC/pronoun node are marked inactive — the paper's
//! simplification step, which "does not influence the extraction outcome,
//! but helps speed up the performance".

use raptor_common::hash::{FxHashMap, FxHashSet};
use raptor_nlp::lemma::lemmatize_verb;
use raptor_nlp::{DepTree, PosTag, Token};

use crate::protect::ReplacementRecord;

/// Curated candidate IOC-relation verbs (lemmas). Only verbs on this list
/// can become relation edges — both coverage and precision come from here.
pub const RELATION_VERBS: &[&str] = &[
    "access",
    "beacon",
    "compress",
    "connect",
    "copy",
    "crack",
    "create",
    "decrypt",
    "delete",
    "download",
    "drop",
    "dump",
    "encrypt",
    "execute",
    "exfiltrate",
    "extract",
    "fetch",
    "gather",
    "inject",
    "install",
    "launch",
    "leak",
    "load",
    "modify",
    "open",
    "read",
    "receive",
    "rename",
    "retrieve",
    "run",
    "save",
    "scan",
    "send",
    "spawn",
    "start",
    "steal",
    "store",
    "transfer",
    "upload",
    "visit",
    "write",
];

/// Subject pronouns eligible for IOC coreference. Human pronouns (he/she/
/// they) refer to the attacker, never to a tool or file, and are excluded.
pub const SUBJECT_PRONOUNS: &[&str] = &["it", "this", "itself"];

/// An annotated dependency tree for one sentence. Its tokens borrow the
/// (protected) block text they were cut from.
#[derive(Clone, Debug)]
pub struct AnnTree<'a> {
    /// Tokens of the protected sentence (offsets are block-protected-text
    /// byte offsets).
    pub tokens: Vec<Token<'a>>,
    pub tree: DepTree,
    /// token index → block-level IOC index.
    pub ioc_of: FxHashMap<usize, usize>,
    /// Token indices whose lemma is a candidate relation verb.
    pub verb_candidates: FxHashSet<usize>,
    /// Lemmas of the verb candidates (parallel map), as their
    /// [`RELATION_VERBS`] entries.
    pub verb_lemma: FxHashMap<usize, &'static str>,
    /// Token indices that are subject-capable pronouns.
    pub pronouns: FxHashSet<usize>,
    /// Simplification flag: inactive trees are skipped downstream.
    pub active: bool,
    /// Coreference links: pronoun (or generic-NP head) token → block-level
    /// IOC index. Filled by [`crate::coref`].
    pub coref: FxHashMap<usize, usize>,
}

/// The [`RELATION_VERBS`] entry for `lemma`, if it is a candidate verb.
pub fn relation_verb(lemma: &str) -> Option<&'static str> {
    RELATION_VERBS.binary_search(&lemma).ok().map(|i| RELATION_VERBS[i])
}

/// Annotates a parsed sentence. `record` aligns dummy tokens to IOCs; when
/// running *without* IOC protection (`record = None`), tokens align to an
/// IOC only if the token span exactly equals an IOC span in `raw_spans` —
/// which is how shattered IOCs silently drop out of the pipeline.
pub fn annotate<'a>(
    tokens: Vec<Token<'a>>,
    tree: DepTree,
    record: Option<&ReplacementRecord>,
    raw_spans: &[(usize, usize, usize)],
) -> AnnTree<'a> {
    let mut ioc_of = FxHashMap::default();
    let mut verb_candidates = FxHashSet::default();
    let mut verb_lemma = FxHashMap::default();
    let mut pronouns = FxHashSet::default();
    for (i, tok) in tokens.iter().enumerate() {
        match record {
            Some(rec) => {
                if let Some(idx) = rec.ioc_at(tok.start, tok.end) {
                    ioc_of.insert(i, idx);
                    continue;
                }
            }
            None => {
                if let Some(&(_, _, idx)) =
                    raw_spans.iter().find(|&&(s, e, _)| s == tok.start && e == tok.end)
                {
                    ioc_of.insert(i, idx);
                    continue;
                }
            }
        }
        if tok.pos == PosTag::Verb {
            if let Some(lemma) = relation_verb(lemmatize_verb(&tok.lower)) {
                verb_candidates.insert(i);
                verb_lemma.insert(i, lemma);
            }
        }
        if tok.pos == PosTag::Pron && SUBJECT_PRONOUNS.contains(&&*tok.lower) {
            pronouns.insert(i);
        }
    }
    let active = !verb_candidates.is_empty() && (!ioc_of.is_empty() || !pronouns.is_empty());
    AnnTree {
        tokens,
        tree,
        ioc_of,
        verb_candidates,
        verb_lemma,
        pronouns,
        active,
        coref: FxHashMap::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ioc::scan_iocs;
    use crate::protect::protect;
    use raptor_nlp::{dep, pos, tokenize};

    fn build(text: &str) -> AnnTree<'static> {
        let iocs = scan_iocs(text);
        let p = protect(text, &iocs);
        let protected: &'static str = Box::leak(p.text.into_boxed_str());
        let mut toks = tokenize::tokenize(protected, 0);
        pos::tag(&mut toks);
        let tree = dep::parse(&toks);
        annotate(toks, tree, Some(&p.record), &[])
    }

    #[test]
    fn relation_verbs_sorted() {
        let mut v = RELATION_VERBS.to_vec();
        v.sort_unstable();
        assert_eq!(v, RELATION_VERBS);
    }

    #[test]
    fn iocs_and_verbs_annotated() {
        let t = build("The attacker used /bin/tar to read user credentials from /etc/passwd.");
        assert_eq!(t.ioc_of.len(), 2);
        // "read" is a candidate; "used" is not on the curated list.
        let lemmas: Vec<&str> = t.verb_lemma.values().copied().collect();
        assert_eq!(lemmas, vec!["read"]);
        assert!(t.active);
    }

    #[test]
    fn pronouns_annotated() {
        let t = build("It wrote the gathered information to a file /tmp/upload.tar.");
        assert_eq!(t.pronouns.len(), 1);
        assert_eq!(t.ioc_of.len(), 1);
        assert!(t.active);
    }

    #[test]
    fn inactive_without_verbs_or_iocs() {
        // No candidate relation verb.
        let t = build("The weather in /etc/passwd was pleasant.");
        assert!(!t.active);
        // Verb but no IOC and no pronoun.
        let t = build("The attacker read the document carefully.");
        assert!(!t.active);
    }

    #[test]
    fn unprotected_paths_fail_to_align() {
        // Without protection, /etc/passwd shatters; no token aligns.
        let text = "The tool read from /etc/passwd.";
        let iocs = scan_iocs(text);
        let spans: Vec<(usize, usize, usize)> =
            iocs.iter().enumerate().map(|(k, m)| (m.start, m.end, k)).collect();
        let mut toks = tokenize::tokenize(text, 0);
        pos::tag(&mut toks);
        let tree = dep::parse(&toks);
        let t = annotate(toks, tree, None, &spans);
        assert!(t.ioc_of.is_empty(), "shattered IOC must not align");
        // ...but a token-stable IOC (an IP) does align.
        let text2 = "The tool connects to 192.168.29.128 now.";
        let iocs2 = scan_iocs(text2);
        let spans2: Vec<(usize, usize, usize)> =
            iocs2.iter().enumerate().map(|(k, m)| (m.start, m.end, k)).collect();
        let mut toks2 = tokenize::tokenize(text2, 0);
        pos::tag(&mut toks2);
        let tree2 = dep::parse(&toks2);
        let t2 = annotate(toks2, tree2, None, &spans2);
        assert_eq!(t2.ioc_of.len(), 1);
    }
}
