//! Deterministic dependency parsing.
//!
//! Produces UD-style trees for the OSCTI register: noun chunks are built
//! first (determiners, adjectives, compounds under a head noun), verb groups
//! collect their auxiliaries, clauses are linked (infinitival `xcomp`,
//! coordinated `conj`, relative `relcl`, gerund `acl`), and a left-to-right
//! attachment pass places subjects, objects and prepositional phrases.
//!
//! The constructions this parser must get right are exactly those that carry
//! threat behaviour in CTI reports:
//!
//! * "The attacker **used** X **to read** Y **from** Z" — instrument `dobj` +
//!   `xcomp` chain,
//! * "X **read from** A **and wrote to** B" — verb coordination with shared
//!   subject,
//! * "the file **was downloaded by** X" — passive with `by`-agent,
//! * "the launched process X **reading from** Y" — gerund `acl` whose logical
//!   subject is the modified noun,
//! * "..., **which connects to** Z" — relative clause on the preceding noun.

use crate::pos::{PosTag, VerbForm};
use crate::tokenize::Token;

/// Dependency labels (UD-flavoured).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum DepLabel {
    Root,
    Nsubj,
    NsubjPass,
    Dobj,
    Aux,
    AuxPass,
    Det,
    Amod,
    Advmod,
    NumMod,
    Compound,
    Prep,
    Pobj,
    Cc,
    Conj,
    Mark,
    Xcomp,
    /// Gerund / participial clause modifying a noun.
    Acl,
    /// Relative clause.
    RelCl,
    Punct,
    /// Fallback attachment.
    Dep,
}

/// One node of the tree; parallel to the token slice it was parsed from.
#[derive(Clone, Debug)]
pub struct DepNode {
    pub head: Option<usize>,
    pub label: DepLabel,
    pub children: Vec<usize>,
}

/// A dependency tree over one sentence.
#[derive(Clone, Debug)]
pub struct DepTree {
    pub nodes: Vec<DepNode>,
    pub root: usize,
}

impl DepTree {
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The heads above `i`, nearest first (bounded, so a malformed tree
    /// cannot loop).
    pub fn ancestors(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        std::iter::successors(self.nodes[i].head, |&h| self.nodes[h].head)
            .take(self.nodes.len() + 1)
    }

    /// Path of node indices from `i` up to the root (inclusive).
    pub fn path_to_root(&self, i: usize) -> Vec<usize> {
        std::iter::once(i).chain(self.ancestors(i)).collect()
    }

    /// Where two root paths (as [`DepTree::path_to_root`] returns them)
    /// meet: their lowest common ancestor, which is the root when they
    /// share no node.
    pub fn meet(&self, pa: &[usize], pb: &[usize]) -> Meet {
        for (below_a, &n) in pa.iter().enumerate() {
            if let Some(below_b) = pb.iter().position(|&m| m == n) {
                return Meet { lca: n, below_a, below_b };
            }
        }
        let below = |p: &[usize]| p.iter().position(|&n| n == self.root).unwrap_or(p.len());
        Meet { lca: self.root, below_a: below(pa), below_b: below(pb) }
    }

    /// Lowest common ancestor of two nodes.
    pub fn lca(&self, a: usize, b: usize) -> usize {
        self.meet(&self.path_to_root(a), &self.path_to_root(b)).lca
    }

    /// Fills `out` with the labels of `below` — nodes of a root path under
    /// its LCA, node first — in LCA → node order.
    pub fn labels_down(&self, below: &[usize], out: &mut Vec<DepLabel>) {
        out.clear();
        out.extend(below.iter().rev().map(|&i| self.nodes[i].label));
    }

    /// First child of `i` with the given label.
    pub fn child_with_label(&self, i: usize, label: DepLabel) -> Option<usize> {
        self.nodes[i].children.iter().copied().find(|&c| self.nodes[c].label == label)
    }

    /// Verifies single-headedness and acyclicity (used by tests).
    pub fn is_well_formed(&self) -> bool {
        if self.nodes.is_empty() {
            return true;
        }
        if self.nodes[self.root].head.is_some() {
            return false;
        }
        for i in 0..self.nodes.len() {
            let path = self.path_to_root(i);
            if path.last() != Some(&self.root) {
                return false;
            }
            // path_to_root guards against cycles; re-check length sanity.
            if path.len() > self.nodes.len() {
                return false;
            }
        }
        true
    }
}

/// Where two root paths meet (see [`DepTree::meet`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Meet {
    /// The lowest common ancestor.
    pub lca: usize,
    /// How many nodes of the first path lie below the LCA: `pa[..below_a]`.
    pub below_a: usize,
    /// How many nodes of the second path lie below the LCA.
    pub below_b: usize,
}

/// A noun chunk: token span plus head index.
#[derive(Clone, Copy, Debug)]
struct Chunk {
    start: usize,
    end: usize, // exclusive
    head: usize,
}

struct ParseState {
    head: Vec<Option<usize>>,
    label: Vec<DepLabel>,
}

impl ParseState {
    fn attach(&mut self, child: usize, parent: usize, label: DepLabel) {
        if child == parent {
            return;
        }
        // Never re-attach an already-attached node (first decision wins),
        // and never create a cycle.
        if self.head[child].is_some() {
            return;
        }
        let mut p = Some(parent);
        while let Some(x) = p {
            if x == child {
                return; // would create a cycle
            }
            p = self.head[x];
        }
        self.head[child] = Some(parent);
        self.label[child] = label;
    }
}

/// Parses one tagged sentence into a dependency tree.
pub fn parse(toks: &[Token<'_>]) -> DepTree {
    let n = toks.len();
    if n == 0 {
        return DepTree { nodes: Vec::new(), root: 0 };
    }
    let mut st = ParseState { head: vec![None; n], label: vec![DepLabel::Dep; n] };

    // --- noun chunks ---
    let chunks = find_chunks(toks);
    #[allow(clippy::needless_range_loop)]
    for c in &chunks {
        for i in c.start..c.end {
            if i == c.head {
                continue;
            }
            let lbl = match toks[i].pos {
                PosTag::Det => DepLabel::Det,
                PosTag::Adj => DepLabel::Amod,
                PosTag::Num => DepLabel::NumMod,
                PosTag::Noun | PosTag::Propn => DepLabel::Compound,
                PosTag::Pron => DepLabel::Compound,
                _ => DepLabel::Dep,
            };
            st.attach(i, c.head, lbl);
        }
    }
    let chunk_of = |i: usize| chunks.iter().find(|c| i >= c.start && i < c.end).copied();

    // --- verb groups ---
    let verbs: Vec<usize> = (0..n).filter(|&i| toks[i].pos == PosTag::Verb).collect();
    let mut passive = vec![false; n];
    let mut infinitive = vec![false; n];
    for &v in &verbs {
        // Scan backwards over AUX / ADV / PART(to).
        let mut j = v;
        while j > 0 {
            j -= 1;
            match toks[j].pos {
                PosTag::Aux => {
                    let is_be = matches!(
                        &*toks[j].lower,
                        "is" | "are" | "was" | "were" | "be" | "been" | "being" | "am"
                    );
                    if is_be && toks[v].verb_form == Some(VerbForm::Participle) {
                        passive[v] = true;
                        st.attach(j, v, DepLabel::AuxPass);
                    } else {
                        st.attach(j, v, DepLabel::Aux);
                    }
                }
                PosTag::Adv => st.attach(j, v, DepLabel::Advmod),
                PosTag::Part if toks[j].lower == "to" => {
                    infinitive[v] = true;
                    st.attach(j, v, DepLabel::Mark);
                }
                _ => break,
            }
        }
    }

    // --- clause linking ---
    // Root: first finite verb (not infinitive, not gerund); fallback chain.
    let root = verbs
        .iter()
        .copied()
        .find(|&v| !infinitive[v] && toks[v].verb_form != Some(VerbForm::Gerund))
        .or_else(|| verbs.first().copied())
        .or_else(|| chunks.first().map(|c| c.head))
        .unwrap_or(0);
    st.label[root] = DepLabel::Root;

    let mut prev_finite = root;
    for &v in &verbs {
        if v == root {
            prev_finite = v;
            continue;
        }
        if infinitive[v] {
            st.attach(v, prev_finite, DepLabel::Xcomp);
            prev_finite = v;
            continue;
        }
        // Look back (skipping the verb group's own aux/adv/mark tokens and
        // punctuation) for the construction that introduces this verb.
        let mut j = v;
        let mut introducer: Option<usize> = None;
        while j > 0 {
            j -= 1;
            match toks[j].pos {
                PosTag::Aux | PosTag::Adv | PosTag::Part | PosTag::Punct => continue,
                _ => {
                    introducer = Some(j);
                    break;
                }
            }
        }
        match introducer {
            Some(i) if toks[i].pos == PosTag::Cconj => {
                // Coordinated verb: shares the previous clause.
                let head = prev_clause_verb(&verbs, v, root);
                st.attach(v, head, DepLabel::Conj);
                st.attach(i, v, DepLabel::Cc);
            }
            Some(i)
                if toks[i].pos == PosTag::Pron
                    && matches!(&*toks[i].lower, "which" | "that" | "who") =>
            {
                // Relative clause on the nearest preceding noun-chunk head.
                let noun = chunks.iter().rev().find(|c| c.end <= i).map(|c| c.head);
                match noun {
                    Some(h) => {
                        st.attach(v, h, DepLabel::RelCl);
                        st.attach(i, v, DepLabel::Nsubj);
                    }
                    None => st.attach(v, prev_clause_verb(&verbs, v, root), DepLabel::Conj),
                }
            }
            Some(i) if toks[v].verb_form == Some(VerbForm::Gerund) && chunk_of(i).is_some() => {
                // Gerund right after a noun chunk: acl, logical subject =
                // the chunk head.
                st.attach(v, chunk_of(i).unwrap().head, DepLabel::Acl);
            }
            _ => {
                st.attach(v, prev_clause_verb(&verbs, v, root), DepLabel::Conj);
            }
        }
        prev_finite = v;
    }

    // --- linear attachment of chunks / prepositions ---
    let mut cur_verb: Option<usize> = None;
    let mut pending_subj: Option<usize> = None;
    let mut pending_prep: Option<usize> = None;
    let mut forward_preps: Vec<usize> = Vec::new();
    let mut pending_cc: Option<usize> = None;
    let mut last_noun: Option<usize> = None;
    let mut has_dobj: raptor_common::FxHashSet<usize> = Default::default();
    let mut has_subj: raptor_common::FxHashSet<usize> = Default::default();

    let mut i = 0usize;
    while i < n {
        match toks[i].pos {
            PosTag::Verb => {
                // A verb begins/continues a clause: flush pending subject.
                if let Some(s) = pending_subj.take() {
                    let lbl = if passive[i] { DepLabel::NsubjPass } else { DepLabel::Nsubj };
                    // Gerund-acl / relcl / xcomp verbs inherit subjects
                    // structurally; only clause heads get the pre-verbal one.
                    if !matches!(st.label[i], DepLabel::Acl | DepLabel::RelCl | DepLabel::Xcomp)
                        && !has_subj.contains(&i)
                    {
                        st.attach(s, i, lbl);
                        has_subj.insert(i);
                    }
                }
                cur_verb = Some(i);
                pending_prep = None;
                i += 1;
            }
            PosTag::Adp => {
                pending_prep = Some(i);
                i += 1;
            }
            PosTag::Cconj => {
                // Verb coordination was handled in clause linking (the CC
                // got attached there). If this CC is still unattached, it
                // coordinates nouns.
                if st.head[i].is_none() {
                    pending_cc = Some(i);
                }
                i += 1;
            }
            PosTag::Det
            | PosTag::Adj
            | PosTag::Num
            | PosTag::Noun
            | PosTag::Propn
            | PosTag::Pron => {
                if st.head[i].is_some() && !matches!(st.label[i], DepLabel::Dep) {
                    // Already attached (chunk interior, relative pronoun...).
                    i += 1;
                    continue;
                }
                let chunk = chunk_of(i);
                let (head, end) = match chunk {
                    Some(c) => (c.head, c.end),
                    None => (i, i + 1),
                };
                if st.head[head].is_some() {
                    i = end;
                    continue;
                }
                if let Some(p) = pending_prep.take() {
                    match cur_verb {
                        Some(v) => st.attach(p, v, DepLabel::Prep),
                        None => forward_preps.push(p),
                    }
                    st.attach(head, p, DepLabel::Pobj);
                    last_noun = Some(head);
                } else if let (Some(cc), Some(prev)) = (pending_cc, last_noun) {
                    st.attach(head, prev, DepLabel::Conj);
                    st.attach(cc, head, DepLabel::Cc);
                    pending_cc = None;
                } else {
                    match cur_verb {
                        None => {
                            pending_subj = Some(head);
                        }
                        Some(v) => {
                            if has_dobj.contains(&v) {
                                st.attach(head, v, DepLabel::Dep);
                            } else {
                                st.attach(head, v, DepLabel::Dobj);
                                has_dobj.insert(v);
                            }
                        }
                    }
                    last_noun = Some(head);
                }
                i = end;
            }
            PosTag::Punct => {
                // Clause boundary bookkeeping: a comma ends the influence of
                // a pending preposition.
                pending_prep = None;
                i += 1;
            }
            _ => {
                i += 1;
            }
        }
    }

    // Forward-pending prepositions (sentence-initial PPs) hang off the root.
    for p in forward_preps {
        st.attach(p, root, DepLabel::Prep);
    }
    // A pre-verbal subject with no verb (verbless fragment): child of root.
    if let Some(s) = pending_subj {
        st.attach(s, root, DepLabel::Dep);
    }

    // --- leftovers ---
    #[allow(clippy::needless_range_loop)]
    for i in 0..n {
        if i != root && st.head[i].is_none() {
            let lbl = match toks[i].pos {
                PosTag::Punct => DepLabel::Punct,
                PosTag::Adv => DepLabel::Advmod,
                _ => DepLabel::Dep,
            };
            st.attach(i, root, lbl);
        }
    }

    // Build child lists.
    let mut nodes: Vec<DepNode> = st
        .head
        .iter()
        .zip(st.label.iter())
        .map(|(&h, &l)| DepNode { head: h, label: l, children: Vec::new() })
        .collect();
    for i in 0..n {
        if let Some(h) = nodes[i].head {
            nodes[h].children.push(i);
        }
    }
    DepTree { nodes, root }
}

fn prev_clause_verb(verbs: &[usize], v: usize, root: usize) -> usize {
    verbs.iter().copied().rfind(|&x| x < v).unwrap_or(root)
}

fn find_chunks(toks: &[Token<'_>]) -> Vec<Chunk> {
    let mut chunks = Vec::new();
    let mut i = 0usize;
    let n = toks.len();
    while i < n {
        match toks[i].pos {
            PosTag::Pron => {
                // Pronouns are singleton chunks unless relative (handled in
                // clause linking).
                if !matches!(&*toks[i].lower, "which" | "that" | "who") {
                    chunks.push(Chunk { start: i, end: i + 1, head: i });
                }
                i += 1;
            }
            PosTag::Det | PosTag::Adj | PosTag::Num | PosTag::Noun | PosTag::Propn => {
                let start = i;
                let mut j = i;
                while j < n
                    && matches!(
                        toks[j].pos,
                        PosTag::Det | PosTag::Adj | PosTag::Num | PosTag::Noun | PosTag::Propn
                    )
                {
                    j += 1;
                }
                // Head: last NOUN/PROPN in the run, else last token.
                let head = (start..j)
                    .rev()
                    .find(|&k| matches!(toks[k].pos, PosTag::Noun | PosTag::Propn))
                    .unwrap_or(j - 1);
                chunks.push(Chunk { start, end: j, head });
                i = j;
            }
            _ => i += 1,
        }
    }
    chunks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pos::tag;
    use crate::tokenize::tokenize;

    fn parse_str(s: &str) -> (Vec<Token<'_>>, DepTree) {
        let mut toks = tokenize(s, 0);
        tag(&mut toks);
        let tree = parse(&toks);
        (toks, tree)
    }

    fn idx(toks: &[Token<'_>], word: &str) -> usize {
        toks.iter().position(|t| t.lower == word).unwrap()
    }

    fn nth_idx(toks: &[Token<'_>], word: &str, n: usize) -> usize {
        toks.iter().enumerate().filter(|(_, t)| t.lower == word).map(|(i, _)| i).nth(n).unwrap()
    }

    /// Labels on the path LCA → `node`, read off the two root paths.
    fn labels_from(tree: &DepTree, lca: usize, node: usize) -> Vec<DepLabel> {
        let m = tree.meet(&tree.path_to_root(node), &tree.path_to_root(lca));
        assert_eq!(m.lca, lca);
        let mut out = Vec::new();
        tree.labels_down(&tree.path_to_root(node)[..m.below_a], &mut out);
        out
    }

    #[test]
    fn instrument_xcomp_chain() {
        // "The attacker used something to read credentials from something."
        let (toks, tree) =
            parse_str("The attacker used something to read credentials from something .");
        assert!(tree.is_well_formed());
        let used = idx(&toks, "used");
        let read = idx(&toks, "read");
        let tool = nth_idx(&toks, "something", 0);
        let src = nth_idx(&toks, "something", 1);
        assert_eq!(tree.root, used);
        assert_eq!(tree.nodes[idx(&toks, "attacker")].label, DepLabel::Nsubj);
        assert_eq!(tree.nodes[idx(&toks, "attacker")].head, Some(used));
        assert_eq!(tree.nodes[tool].label, DepLabel::Dobj);
        assert_eq!(tree.nodes[tool].head, Some(used));
        assert_eq!(tree.nodes[read].label, DepLabel::Xcomp);
        assert_eq!(tree.nodes[read].head, Some(used));
        let from = idx(&toks, "from");
        assert_eq!(tree.nodes[from].label, DepLabel::Prep);
        assert_eq!(tree.nodes[from].head, Some(read));
        assert_eq!(tree.nodes[src].label, DepLabel::Pobj);
        assert_eq!(tree.nodes[src].head, Some(from));
    }

    #[test]
    fn verb_coordination_shares_subject() {
        // "/bin/bzip2 read from A and wrote to B." (protected)
        let (toks, tree) = parse_str("something read from something and wrote to something .");
        assert!(tree.is_well_formed());
        let read = idx(&toks, "read");
        let wrote = idx(&toks, "wrote");
        assert_eq!(tree.root, read);
        assert_eq!(tree.nodes[wrote].label, DepLabel::Conj);
        assert_eq!(tree.nodes[wrote].head, Some(read));
        let subj = nth_idx(&toks, "something", 0);
        assert_eq!(tree.nodes[subj].label, DepLabel::Nsubj);
        // Prepositional objects attach to their own verbs.
        let a = nth_idx(&toks, "something", 1);
        let b = nth_idx(&toks, "something", 2);
        let from = idx(&toks, "from");
        let to = idx(&toks, "to");
        assert_eq!(tree.nodes[a].head, Some(from));
        assert_eq!(tree.nodes[from].head, Some(read));
        assert_eq!(tree.nodes[b].head, Some(to));
        assert_eq!(tree.nodes[to].head, Some(wrote));
    }

    #[test]
    fn passive_with_agent() {
        let (toks, tree) = parse_str("The file was downloaded by the malware .");
        assert!(tree.is_well_formed());
        let dl = idx(&toks, "downloaded");
        assert_eq!(tree.root, dl);
        assert_eq!(tree.nodes[idx(&toks, "file")].label, DepLabel::NsubjPass);
        assert_eq!(tree.nodes[idx(&toks, "was")].label, DepLabel::AuxPass);
        let by = idx(&toks, "by");
        assert_eq!(tree.nodes[by].label, DepLabel::Prep);
        assert_eq!(tree.nodes[idx(&toks, "malware")].head, Some(by));
    }

    #[test]
    fn gerund_acl_on_noun() {
        // "the launched process /usr/bin/gpg reading from /tmp/upload.tar.bz2"
        let (toks, tree) =
            parse_str("It corresponds to the launched process something reading from something .");
        assert!(tree.is_well_formed());
        let reading = idx(&toks, "reading");
        let gpg = nth_idx(&toks, "something", 0);
        let bz2 = nth_idx(&toks, "something", 1);
        assert_eq!(tree.nodes[reading].label, DepLabel::Acl);
        assert_eq!(tree.nodes[reading].head, Some(gpg));
        let from = idx(&toks, "from");
        assert_eq!(tree.nodes[from].head, Some(reading));
        assert_eq!(tree.nodes[bz2].head, Some(from));
        // LCA of the IOC pair is the subject IOC itself.
        assert_eq!(tree.lca(gpg, bz2), gpg);
        assert_eq!(
            labels_from(&tree, gpg, bz2),
            vec![DepLabel::Acl, DepLabel::Prep, DepLabel::Pobj]
        );
    }

    #[test]
    fn relative_clause() {
        let (toks, tree) = parse_str("It downloaded the payload , which connects to something .");
        assert!(tree.is_well_formed());
        let connects = idx(&toks, "connects");
        let payload = idx(&toks, "payload");
        assert_eq!(tree.nodes[connects].label, DepLabel::RelCl);
        assert_eq!(tree.nodes[connects].head, Some(payload));
        assert_eq!(tree.nodes[idx(&toks, "which")].label, DepLabel::Nsubj);
    }

    #[test]
    fn noun_chunk_head_is_trailing_ioc() {
        // "a file /tmp/upload.tar" (protected): head = "something".
        let (toks, tree) = parse_str("It wrote the data to a file something .");
        let something = idx(&toks, "something");
        let file = idx(&toks, "file");
        assert!(tree.is_well_formed());
        assert_eq!(tree.nodes[file].label, DepLabel::Compound);
        assert_eq!(tree.nodes[file].head, Some(something));
        assert_eq!(tree.nodes[something].label, DepLabel::Pobj);
    }

    #[test]
    fn lca_and_paths() {
        let (toks, tree) =
            parse_str("The attacker used something to read credentials from something .");
        let used = idx(&toks, "used");
        let tool = nth_idx(&toks, "something", 0);
        let src = nth_idx(&toks, "something", 1);
        assert_eq!(tree.lca(tool, src), used);
        assert_eq!(labels_from(&tree, used, tool), vec![DepLabel::Dobj]);
        assert_eq!(
            labels_from(&tree, used, src),
            vec![DepLabel::Xcomp, DepLabel::Prep, DepLabel::Pobj]
        );
        let (pt, ps) = (tree.path_to_root(tool), tree.path_to_root(src));
        let m = tree.meet(&pt, &ps);
        assert_eq!((m.lca, m.below_a, m.below_b), (used, 1, 3));
        assert_eq!(tree.meet(&ps, &pt), Meet { lca: used, below_a: 3, below_b: 1 });
    }

    #[test]
    fn sentence_initial_pp_attaches_to_root() {
        let (toks, tree) = parse_str("After the reconnaissance , the attacker scans the system .");
        assert!(tree.is_well_formed());
        let scans = idx(&toks, "scans");
        assert_eq!(tree.root, scans);
        let after = idx(&toks, "after");
        assert_eq!(tree.nodes[after].label, DepLabel::Prep);
        assert_eq!(tree.nodes[after].head, Some(scans));
    }

    #[test]
    fn every_node_reaches_root() {
        for s in [
            "The attacker leveraged something utility to compress the tar file .",
            "Finally , the attacker leveraged the curl utility something to read the data from something .",
            "He leaked the gathered sensitive information back to the attacker C2 host by using something to connect to something .",
            "Then it stopped .",
            "something",
            "",
        ] {
            let (_, tree) = parse_str(s);
            assert!(tree.is_well_formed(), "sentence failed: {s}");
        }
    }

    #[test]
    fn noun_coordination() {
        let (toks, tree) = parse_str("It reads passwords and credentials from something .");
        assert!(tree.is_well_formed());
        let pw = idx(&toks, "passwords");
        let cr = idx(&toks, "credentials");
        assert_eq!(tree.nodes[cr].label, DepLabel::Conj);
        assert_eq!(tree.nodes[cr].head, Some(pw));
    }
}
