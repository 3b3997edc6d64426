//! Dependency-path (LCA) IOC relation extraction (Step 9 of Algorithm 1).
//!
//! For every ordered pair of IOC-ish nodes (IOC tokens plus coreference-
//! resolved pronouns/generic NPs) in a tree, the extractor checks whether
//! the pair stands in a subject–object relation by examining the labels on
//! the two dependency paths from their LCA (plus the root→LCA part for verb
//! selection), then picks the candidate relation verb *closest to the
//! object* and lemmatizes it. A token only becomes the relation verb if it
//! is both on the curated keyword list and structurally on the pair's path.

use raptor_nlp::lemma::lemmatize_verb;
use raptor_nlp::DepLabel;

use crate::annotate::AnnTree;

/// One extracted triple, with block/tree provenance for ordering.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RawTriple {
    /// Block-level IOC index of the subject.
    pub subj: usize,
    /// Lemmatized relation verb.
    pub verb: String,
    /// Block-level IOC index of the object.
    pub obj: usize,
    /// Byte offset of the relation verb in the block's protected text
    /// (drives sequence numbering).
    pub verb_offset: usize,
}

/// Verbs whose direct object is an instrument acting as the subject of a
/// following infinitive ("used X to read Y").
const USE_VERBS: &[&str] = &["employ", "leverage", "use", "utilize"];

/// Prepositions that introduce the object of a dobj/pobj pair
/// ("downloaded X **from** Y", "transferred X **to** Y").
const OBJECT_PREPS: &[&str] = &["against", "at", "from", "into", "onto", "to", "toward", "towards"];

/// The IOC-ish node set of a tree: real IOC tokens plus coref-resolved ones.
fn ioc_nodes(t: &AnnTree<'_>) -> Vec<(usize, usize)> {
    let mut v: Vec<(usize, usize)> = t
        .ioc_of
        .iter()
        .map(|(&tok, &ioc)| (tok, ioc))
        .chain(t.coref.iter().map(|(&tok, &ioc)| (tok, ioc)))
        .collect();
    v.sort_unstable();
    v
}

/// Strips leading clause-link labels (Conj/Xcomp/Acl/RelCl) and trailing
/// Conj runs, leaving the grammatical-function core of a path.
fn core_labels(labels: &[DepLabel]) -> &[DepLabel] {
    let mut s = 0usize;
    while s < labels.len()
        && matches!(labels[s], DepLabel::Conj | DepLabel::Xcomp | DepLabel::Acl | DepLabel::RelCl)
    {
        s += 1;
    }
    let mut e = labels.len();
    while e > s && labels[e - 1] == DepLabel::Conj {
        e -= 1;
    }
    &labels[s..e]
}

/// The lowercased text of the first `Prep` node on the LCA → node path.
/// `below` is the node's root path under the LCA, node first.
fn first_prep<'t>(t: &'t AnnTree<'_>, below: &[usize]) -> Option<&'t str> {
    below
        .iter()
        .rev()
        .find(|&&i| t.tree.nodes[i].label == DepLabel::Prep)
        .map(|&i| &*t.tokens[i].lower)
}

/// Is `a` on the subject side of the pair? `below_a` is `a`'s root path
/// under the LCA, `a` first.
fn subject_side(
    t: &AnnTree<'_>,
    lca: usize,
    below_a: &[usize],
    la: &[DepLabel],
    lb: &[DepLabel],
) -> bool {
    // Active subject.
    if la == [DepLabel::Nsubj] {
        return true;
    }
    // Gerund clause: A is the LCA itself, B hangs off an acl.
    if la.is_empty() && lb.first() == Some(&DepLabel::Acl) {
        return true;
    }
    // Passive agent: "was downloaded by A" (the preposition is the node
    // right under the LCA).
    if la == [DepLabel::Prep, DepLabel::Pobj]
        && below_a.last().map(|&i| &*t.tokens[i].lower) == Some("by")
    {
        return true;
    }
    // Instrument: "used A to <verb> B".
    la == [DepLabel::Dobj]
        && lb.first() == Some(&DepLabel::Xcomp)
        && USE_VERBS.contains(&lemmatize_verb(&t.tokens[lca].lower))
}

/// Is `b` on the object side of the pair?
fn object_side(t: &AnnTree<'_>, below_b: &[usize], lb: &[DepLabel]) -> bool {
    match core_labels(lb) {
        [DepLabel::Dobj] | [DepLabel::NsubjPass] | [DepLabel::Dep] => true,
        // Any preposition except the agentive "by".
        [DepLabel::Prep, DepLabel::Pobj] => first_prep(t, below_b) != Some("by"),
        _ => false,
    }
}

/// The dobj/pobj pattern: "downloaded A from B", "transferred A to B".
fn dobj_pobj_pair(t: &AnnTree<'_>, la: &[DepLabel], lb: &[DepLabel], below_b: &[usize]) -> bool {
    core_labels(la) == [DepLabel::Dobj]
        && core_labels(lb) == [DepLabel::Prep, DepLabel::Pobj]
        && first_prep(t, below_b).is_some_and(|p| OBJECT_PREPS.contains(&p))
}

/// Selects the relation verb for a pair: candidate verbs on the LCA→B path
/// (nearest to B first), then the LCA itself, then the root→LCA path
/// (nearest to the LCA first). Returns `(token index, lemma)`.
fn select_verb(t: &AnnTree<'_>, lca: usize, below_b: &[usize]) -> Option<(usize, &'static str)> {
    below_b
        .iter()
        .copied()
        .chain(std::iter::once(lca))
        .chain(t.tree.ancestors(lca))
        .find(|c| t.verb_candidates.contains(c))
        .map(|c| (c, t.verb_lemma[&c]))
}

/// Extracts all triples from one annotated tree. Each IOC node's root path
/// is walked once; a pair reads its LCA and label lists off the two paths.
pub fn extract_from_tree(t: &AnnTree<'_>) -> Vec<RawTriple> {
    if !t.active {
        return Vec::new();
    }
    let nodes = ioc_nodes(t);
    let paths: Vec<Vec<usize>> = nodes.iter().map(|&(tok, _)| t.tree.path_to_root(tok)).collect();
    let (mut la, mut lb) = (Vec::new(), Vec::new());
    let mut out: Vec<RawTriple> = Vec::new();
    for (&(a_tok, a_ioc), pa) in nodes.iter().zip(&paths) {
        for (&(b_tok, b_ioc), pb) in nodes.iter().zip(&paths) {
            if a_tok == b_tok {
                continue;
            }
            let m = t.tree.meet(pa, pb);
            let (below_a, below_b) = (&pa[..m.below_a], &pb[..m.below_b]);
            t.tree.labels_down(below_a, &mut la);
            t.tree.labels_down(below_b, &mut lb);
            let subj_obj =
                subject_side(t, m.lca, below_a, &la, &lb) && object_side(t, below_b, &lb);
            if !subj_obj && !dobj_pobj_pair(t, &la, &lb, below_b) {
                continue;
            }
            let Some((verb_tok, verb)) = select_verb(t, m.lca, below_b) else {
                continue;
            };
            if !out.iter().any(|x| x.subj == a_ioc && x.obj == b_ioc && x.verb == verb) {
                out.push(RawTriple {
                    subj: a_ioc,
                    verb: verb.to_string(),
                    obj: b_ioc,
                    verb_offset: t.tokens[verb_tok].start,
                });
            }
        }
    }
    out
}

/// Extracts triples from all trees of one block.
pub fn extract_from_block(trees: &[AnnTree<'_>]) -> Vec<RawTriple> {
    let mut out = Vec::new();
    for t in trees {
        out.extend(extract_from_tree(t));
    }
    out.sort_by_key(|r| r.verb_offset);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotate::annotate;
    use crate::coref;
    use crate::ioc::{scan_iocs, IocType};
    use crate::protect::protect;
    use raptor_nlp::{dep, pos, sentence, tokenize};

    fn extract_block(text: &str) -> (Vec<RawTriple>, Vec<String>) {
        let iocs = scan_iocs(text);
        let types: Vec<IocType> = iocs.iter().map(|m| m.ioc_type).collect();
        let texts: Vec<String> = iocs.iter().map(|m| m.text.clone()).collect();
        let p = protect(text, &iocs);
        let protected = p.text.as_str();
        let mut trees = Vec::new();
        for span in sentence::segment(protected) {
            let mut toks = tokenize::tokenize(&protected[span.start..span.end], span.start);
            pos::tag(&mut toks);
            let tree = dep::parse(&toks);
            trees.push(annotate(toks, tree, Some(&p.record), &[]));
        }
        coref::resolve(&mut trees, &types);
        (extract_from_block(&trees), texts)
    }

    fn as_strings(triples: &[RawTriple], texts: &[String]) -> Vec<(String, String, String)> {
        triples
            .iter()
            .map(|t| (texts[t.subj].clone(), t.verb.clone(), texts[t.obj].clone()))
            .collect()
    }

    #[test]
    fn instrument_relation() {
        let (triples, texts) =
            extract_block("The attacker used /bin/tar to read user credentials from /etc/passwd.");
        assert_eq!(
            as_strings(&triples, &texts),
            vec![("/bin/tar".to_string(), "read".to_string(), "/etc/passwd".to_string())]
        );
    }

    #[test]
    fn coref_subject_relation() {
        let (triples, texts) = extract_block(
            "The attacker used /bin/tar to read user credentials from /etc/passwd. \
             It wrote the gathered information to a file /tmp/upload.tar.",
        );
        let s = as_strings(&triples, &texts);
        assert!(s.contains(&(
            "/bin/tar".to_string(),
            "read".to_string(),
            "/etc/passwd".to_string()
        )));
        assert!(
            s.contains(&(
                "/bin/tar".to_string(),
                "write".to_string(),
                "/tmp/upload.tar".to_string()
            )),
            "{s:?}"
        );
    }

    #[test]
    fn coordinated_verbs() {
        let (triples, texts) =
            extract_block("/bin/bzip2 read from /tmp/upload.tar and wrote to /tmp/upload.tar.bz2.");
        let s = as_strings(&triples, &texts);
        assert!(
            s.contains(&(
                "/bin/bzip2".to_string(),
                "read".to_string(),
                "/tmp/upload.tar".to_string()
            )),
            "{s:?}"
        );
        assert!(
            s.contains(&(
                "/bin/bzip2".to_string(),
                "write".to_string(),
                "/tmp/upload.tar.bz2".to_string()
            )),
            "{s:?}"
        );
        // The two file IOCs must not relate to each other.
        assert_eq!(s.len(), 2, "{s:?}");
    }

    #[test]
    fn gerund_clause_relation() {
        let (triples, texts) = extract_block(
            "This corresponds to the launched process /usr/bin/gpg reading from /tmp/upload.tar.bz2.",
        );
        let s = as_strings(&triples, &texts);
        assert!(
            s.contains(&(
                "/usr/bin/gpg".to_string(),
                "read".to_string(),
                "/tmp/upload.tar.bz2".to_string()
            )),
            "{s:?}"
        );
    }

    #[test]
    fn passive_agent_relation() {
        let (triples, texts) = extract_block("/tmp/payload.bin was downloaded by /usr/bin/curl.");
        let s = as_strings(&triples, &texts);
        assert!(
            s.contains(&(
                "/usr/bin/curl".to_string(),
                "download".to_string(),
                "/tmp/payload.bin".to_string()
            )),
            "{s:?}"
        );
    }

    #[test]
    fn dobj_pobj_relation() {
        let (triples, texts) =
            extract_block("The attacker downloaded /tmp/john.zip from 192.168.29.128.");
        let s = as_strings(&triples, &texts);
        assert!(
            s.contains(&(
                "/tmp/john.zip".to_string(),
                "download".to_string(),
                "192.168.29.128".to_string()
            )),
            "{s:?}"
        );
    }

    #[test]
    fn connect_via_using() {
        let (triples, texts) = extract_block(
            "He leaked the data by using /usr/bin/curl to connect to 192.168.29.128.",
        );
        let s = as_strings(&triples, &texts);
        assert!(
            s.contains(&(
                "/usr/bin/curl".to_string(),
                "connect".to_string(),
                "192.168.29.128".to_string()
            )),
            "{s:?}"
        );
    }

    #[test]
    fn non_keyword_verbs_produce_nothing() {
        let (triples, _) = extract_block("/bin/tar resembles /bin/gtar in many ways.");
        assert!(triples.is_empty());
    }

    #[test]
    fn ordering_by_verb_offset() {
        let (triples, _) =
            extract_block("/bin/bzip2 read from /tmp/upload.tar and wrote to /tmp/upload.tar.bz2.");
        assert!(triples.windows(2).all(|w| w[0].verb_offset <= w[1].verb_offset));
        assert_eq!(triples[0].verb, "read");
        assert_eq!(triples[1].verb, "write");
    }
}
