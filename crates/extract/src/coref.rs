//! Within-block coreference resolution (Step 7 of Algorithm 1).
//!
//! CTI prose routinely refers back to a tool by pronoun or by a generic
//! noun phrase: "The attacker used **/bin/tar** to read ... **It** wrote the
//! gathered information to /tmp/upload.tar", or "the attacker downloaded
//! **/tmp/vpnfilter**. **The malware** then connects to ...". This pass
//! links subject pronouns and generic-NP subjects to the most recent
//! *agentive* IOC of a compatible type, across the trees of one block.

use raptor_nlp::{DepLabel, PosTag};

use crate::annotate::AnnTree;
use crate::ioc::IocType;

/// Generic noun heads that corefer with file-like IOCs (tools, binaries).
const FILE_LIKE_NOUNS: &[&str] = &[
    "archive",
    "attachment",
    "backdoor",
    "binary",
    "cracker",
    "dropper",
    "executable",
    "extension",
    "file",
    "image",
    "implant",
    "installer",
    "loader",
    "malware",
    "package",
    "payload",
    "program",
    "sample",
    "script",
    "tool",
    "utility",
];

/// Generic noun heads that corefer with network-like IOCs.
const NET_LIKE_NOUNS: &[&str] = &["address", "domain", "host", "server"];

/// An agentive mention: an IOC that acted as (or was used as) the doer.
#[derive(Clone, Copy, Debug)]
struct Agent {
    ioc: usize,
    file_like: bool,
    /// True for subjects, gerund-clause heads and use-verb instruments —
    /// the antecedents subject pronouns prefer (centering); plain direct
    /// objects are only antecedents for generic NPs ("the malware").
    subject_like: bool,
}

/// Is token `i` in a subject-ish position (nsubj of some verb, or the head
/// a gerund clause hangs off)?
fn is_subject_position(t: &AnnTree<'_>, i: usize) -> bool {
    matches!(t.tree.nodes[i].label, DepLabel::Nsubj | DepLabel::NsubjPass)
}

/// Collects agentive IOC mentions of a tree, in token order.
fn agents_of(t: &AnnTree<'_>, ioc_types: &[IocType]) -> Vec<Agent> {
    let mut out = Vec::new();
    for (&tok, &ioc) in &t.ioc_of {
        let lbl = t.tree.nodes[tok].label;
        let agentive = match lbl {
            // Direct subject.
            DepLabel::Nsubj => Some(true),
            // Direct object: an instrument ("used /bin/tar to ...") is
            // subject-like; a newly introduced artifact ("downloaded
            // /tmp/vpnfilter") is an antecedent only for generic NPs.
            DepLabel::Dobj => {
                let instrument = t.tree.nodes[tok].head.is_some_and(|h| {
                    matches!(
                        raptor_nlp::lemma::lemmatize_verb(&t.tokens[h].lower),
                        "use" | "leverage" | "utilize" | "employ"
                    )
                });
                Some(instrument)
            }
            // Head noun of a gerund clause ("process X reading from ...").
            _ => t.tree.nodes[tok]
                .children
                .iter()
                .any(|&c| t.tree.nodes[c].label == DepLabel::Acl)
                .then_some(true),
        };
        if let Some(subject_like) = agentive {
            let file_like = ioc_types.get(ioc).is_some_and(|ty| ty.is_file_like());
            out.push((tok, Agent { ioc, file_like, subject_like }));
        }
    }
    // Coreference-resolved subjects ("The dropper read ...") move the
    // discourse center to their antecedent IOC.
    for (&tok, &ioc) in &t.coref {
        if is_subject_position(t, tok) {
            let file_like = ioc_types.get(ioc).is_some_and(|ty| ty.is_file_like());
            out.push((tok, Agent { ioc, file_like, subject_like: true }));
        }
    }
    out.sort_by_key(|&(tok, _)| tok);
    out.into_iter().map(|(_, a)| a).collect()
}

/// Resolves coreference across the trees of one block. `ioc_types[i]` is the
/// type of block-level IOC `i`.
pub fn resolve(trees: &mut [AnnTree<'_>], ioc_types: &[IocType]) {
    let mut history: Vec<Agent> = Vec::new();
    #[allow(clippy::needless_range_loop)]
    for t_idx in 0..trees.len() {
        // Resolve this tree's anaphors against history (previous sentences).
        let mut links: Vec<(usize, usize)> = Vec::new();
        {
            let t = &trees[t_idx];
            if t.active {
                for i in 0..t.tokens.len() {
                    if !is_subject_position(t, i) {
                        continue;
                    }
                    if t.ioc_of.contains_key(&i) {
                        continue; // already an IOC subject
                    }
                    let is_pronoun = t.pronouns.contains(&i);
                    let want_file_like = if is_pronoun {
                        None // pronouns accept any kind, but prefer subjects
                    } else if t.tokens[i].pos == PosTag::Noun
                        && FILE_LIKE_NOUNS.contains(&&*t.tokens[i].lower)
                    {
                        Some(true)
                    } else if t.tokens[i].pos == PosTag::Noun
                        && NET_LIKE_NOUNS.contains(&&*t.tokens[i].lower)
                    {
                        Some(false)
                    } else {
                        continue; // "the attacker" etc. — not coreferable to an IOC
                    };
                    let kind_ok = |a: &&Agent| match want_file_like {
                        Some(want) => a.file_like == want,
                        None => true,
                    };
                    // Pronouns prefer the most recent subject-like agent
                    // (centering); generic NPs take the most recent of the
                    // right kind.
                    let found = if is_pronoun {
                        history
                            .iter()
                            .rev()
                            .find(|a| a.subject_like && kind_ok(a))
                            .or_else(|| history.iter().rev().find(kind_ok))
                    } else {
                        history.iter().rev().find(kind_ok)
                    };
                    if let Some(a) = found {
                        links.push((i, a.ioc));
                    }
                }
            }
        }
        for (tok, ioc) in links {
            trees[t_idx].coref.insert(tok, ioc);
        }
        // Record this tree's agents for later sentences.
        history.extend(agents_of(&trees[t_idx], ioc_types));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotate::annotate;
    use crate::ioc::scan_iocs;
    use crate::protect::protect;
    use raptor_nlp::{dep, pos, sentence, tokenize};

    fn build_block(text: &str) -> (Vec<AnnTree<'static>>, Vec<IocType>) {
        let iocs = scan_iocs(text);
        let types: Vec<IocType> = iocs.iter().map(|m| m.ioc_type).collect();
        let p = protect(text, &iocs);
        let protected: &'static str = Box::leak(p.text.into_boxed_str());
        let mut trees = Vec::new();
        for span in sentence::segment(protected) {
            let mut toks = tokenize::tokenize(&protected[span.start..span.end], span.start);
            pos::tag(&mut toks);
            let tree = dep::parse(&toks);
            trees.push(annotate(toks, tree, Some(&p.record), &[]));
        }
        let mut trees = trees;
        resolve(&mut trees, &types);
        (trees, types)
    }

    #[test]
    fn pronoun_resolves_to_instrument() {
        let (trees, _) = build_block(
            "The attacker used /bin/tar to read user credentials from /etc/passwd. \
             It wrote the gathered information to a file /tmp/upload.tar.",
        );
        assert_eq!(trees.len(), 2);
        // "It" in sentence 2 links to IOC 0 (/bin/tar).
        let t2 = &trees[1];
        assert_eq!(t2.coref.len(), 1);
        let (_, &ioc) = t2.coref.iter().next().unwrap();
        assert_eq!(ioc, 0);
    }

    #[test]
    fn generic_np_resolves_to_file_like() {
        let (trees, _) = build_block(
            "The attacker downloaded /tmp/vpnfilter from the C2 server. \
             The malware then connects to 192.168.29.100.",
        );
        let t2 = &trees[1];
        // "malware" subject → /tmp/vpnfilter (IOC 0); the IP is not a
        // candidate antecedent for a file-like noun.
        assert!(t2.coref.values().any(|&v| v == 0), "coref: {:?}", t2.coref);
    }

    #[test]
    fn subject_ioc_is_not_overwritten() {
        let (trees, _) = build_block(
            "/bin/bzip2 read from /tmp/upload.tar and wrote to /tmp/upload.tar.bz2. \
             /usr/bin/gpg read from /tmp/upload.tar.bz2.",
        );
        // Sentence 2's subject is already an IOC; nothing to resolve.
        assert!(trees[1].coref.is_empty());
    }

    #[test]
    fn no_antecedent_no_link() {
        let (trees, _) = build_block("It connects to 192.168.29.128.");
        assert!(trees[0].coref.is_empty());
    }
}
