//! The end-to-end extraction pipeline (Algorithm 1).
//!
//! `document → blocks → scan IOCs & protect → (sentences → parse → restore
//! → annotate → simplify) → coref per block → scan&merge IOCs → relation
//! extraction → threat behavior graph`, with stage timings recorded for
//! Table VII. Each stage runs over every block before the next begins: the
//! trees borrow the protected block texts the scan stage produced, and each
//! stage records one `obs` span per document (`extract.ioc_scan`,
//! `extract.parse`, `extract.coref`, `extract.relation`,
//! `extract.merge_graph`).

use std::time::Instant;

use raptor_common::obs;
use raptor_nlp::{dep, pos, sentence, tokenize};
use serde::{Deserialize, Serialize};

use crate::annotate::{annotate, AnnTree};
use crate::coref;
use crate::graph::ThreatBehaviorGraph;
use crate::ioc::{scan_iocs, IocMatch, IocType};
use crate::merge;
use crate::protect::{protect, ProtectedText};
use crate::relation;

/// One extracted IOC occurrence (pre-merge), for entity-level scoring.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct IocEntity {
    pub text: String,
    pub ioc_type: IocType,
    /// Block the occurrence came from.
    pub block: usize,
    /// Byte offset in the original block text.
    pub offset: usize,
}

/// One extracted relation, as surface strings (for relation-level scoring).
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct IocRelationTriple {
    pub subj: String,
    pub verb: String,
    pub obj: String,
}

/// Stage timings (seconds), the rows of Table VII.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExtractTiming {
    /// Text → IOC entities & relations.
    pub text_to_er: f64,
    /// Entities & relations → threat behavior graph.
    pub er_to_graph: f64,
}

/// Everything the pipeline produces.
#[derive(Clone, Debug)]
pub struct ExtractionOutput {
    /// IOC occurrences that made it into the trees (annotated), pre-merge.
    pub entities: Vec<IocEntity>,
    /// Extracted relation triples (canonical node texts).
    pub triples: Vec<IocRelationTriple>,
    pub graph: ThreatBehaviorGraph,
    pub timing: ExtractTiming,
}

/// Splits a document into blocks (paragraphs separated by blank lines).
pub fn segment_blocks(document: &str) -> Vec<&str> {
    document.split("\n\n").map(str::trim).filter(|b| !b.is_empty()).collect()
}

/// Parses one block's sentences into annotated trees that borrow `text`:
/// the protected block when `protected` is set, else the raw block (the
/// ablation, where an IOC aligns only when the tokenizer keeps it whole).
fn parse_block<'a>(
    block: &'a str,
    matches: &[IocMatch],
    protected: Option<&'a ProtectedText>,
) -> Vec<AnnTree<'a>> {
    let (text, record) = match protected {
        Some(p) => (p.text.as_str(), Some(&p.record)),
        None => (block, None),
    };
    let raw_spans: Vec<(usize, usize, usize)> = match record {
        Some(_) => Vec::new(),
        None => matches.iter().enumerate().map(|(k, m)| (m.start, m.end, k)).collect(),
    };
    sentence::segment(text)
        .into_iter()
        .map(|span| {
            let mut toks = tokenize::tokenize(&text[span.start..span.end], span.start);
            pos::tag(&mut toks);
            let tree = dep::parse(&toks);
            annotate(toks, tree, record, &raw_spans)
        })
        .collect()
}

/// Runs the full pipeline with IOC protection (the system configuration).
pub fn extract(document: &str) -> ExtractionOutput {
    extract_with_options(document, true)
}

/// Runs the pipeline, optionally without IOC protection (the Table V
/// "-IOC Protection" ablation).
pub fn extract_with_options(document: &str, ioc_protection: bool) -> ExtractionOutput {
    let t0 = Instant::now();
    let blocks = segment_blocks(document);

    let mut sp = obs::span("extract.ioc_scan");
    let matches: Vec<Vec<IocMatch>> = blocks.iter().map(|b| scan_iocs(b)).collect();
    let protected: Vec<ProtectedText> = if ioc_protection {
        blocks.iter().zip(&matches).map(|(b, m)| protect(b, m)).collect()
    } else {
        Vec::new()
    };
    sp.attr("blocks", blocks.len() as u64);
    sp.attr("iocs", matches.iter().map(Vec::len).sum::<usize>() as u64);
    drop(sp);

    let mut sp = obs::span("extract.parse");
    let mut trees: Vec<Vec<AnnTree<'_>>> = Vec::with_capacity(blocks.len());
    for (bi, (b, m)) in blocks.iter().zip(&matches).enumerate() {
        trees.push(parse_block(b, m, protected.get(bi)));
    }
    sp.attr("sentences", trees.iter().map(Vec::len).sum::<usize>() as u64);
    sp.attr("tokens", trees.iter().flatten().map(|t| t.tokens.len()).sum::<usize>() as u64);
    drop(sp);

    let mut sp = obs::span("extract.coref");
    for (block_trees, m) in trees.iter_mut().zip(&matches) {
        let types: Vec<IocType> = m.iter().map(|m| m.ioc_type).collect();
        coref::resolve(block_trees, &types);
    }
    sp.attr("links", trees.iter().flatten().map(|t| t.coref.len()).sum::<usize>() as u64);
    drop(sp);

    // Flatten block-local IOCs into one list; block `b`'s IOC `k` is
    // `all_iocs[base[b] + k]`.
    let mut all_iocs: Vec<IocEntity> = Vec::new();
    let mut base: Vec<usize> = Vec::with_capacity(blocks.len());
    for (block, m) in matches.into_iter().enumerate() {
        base.push(all_iocs.len());
        all_iocs.extend(m.into_iter().map(|m| IocEntity {
            text: m.text,
            ioc_type: m.ioc_type,
            block,
            offset: m.start,
        }));
    }

    // Per-block relation extraction (block-local ioc ids → global ids).
    let mut sp = obs::span("extract.relation");
    let mut raw_triples: Vec<(usize, String, usize, (usize, usize))> = Vec::new();
    for (bi, block_trees) in trees.iter().enumerate() {
        for t in relation::extract_from_block(block_trees) {
            raw_triples.push((base[bi] + t.subj, t.verb, base[bi] + t.obj, (bi, t.verb_offset)));
        }
    }
    raw_triples.sort_by_key(|&(_, _, _, ord)| ord);
    sp.attr("triples", raw_triples.len() as u64);
    drop(sp);
    let text_to_er = t0.elapsed().as_secs_f64();

    // Entities "found" by the pipeline = occurrences annotated in some tree
    // (visible to the NLP pipeline).
    let mut annotated = vec![false; all_iocs.len()];
    for (bi, block_trees) in trees.iter().enumerate() {
        for &ioc in block_trees.iter().flat_map(|t| t.ioc_of.values()) {
            annotated[base[bi] + ioc] = true;
        }
    }
    let entities: Vec<IocEntity> =
        all_iocs.iter().zip(&annotated).filter(|(_, &a)| a).map(|(e, _)| e.clone()).collect();

    // Scan & merge across blocks, then build the graph.
    let t1 = Instant::now();
    let mut sp = obs::span("extract.merge_graph");
    let (group_of, canon) = merge::merge(&all_iocs);
    let ordered: Vec<(usize, String, usize)> =
        raw_triples.into_iter().map(|(s, v, o, _)| (group_of[s], v, group_of[o])).collect();
    let graph = ThreatBehaviorGraph::build(canon, ordered);
    let triples: Vec<IocRelationTriple> = graph
        .edges
        .iter()
        .map(|e| IocRelationTriple {
            subj: graph.nodes[e.src].text.clone(),
            verb: e.relation.clone(),
            obj: graph.nodes[e.dst].text.clone(),
        })
        .collect();
    sp.attr("nodes", graph.nodes.len() as u64);
    sp.attr("edges", graph.edges.len() as u64);
    drop(sp);
    let er_to_graph = t1.elapsed().as_secs_f64();

    ExtractionOutput { entities, triples, graph, timing: ExtractTiming { text_to_er, er_to_graph } }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Figure 2 report text (the paper's running example, case data_leak).
    pub const FIG2_TEXT: &str = "\
After the lateral movement stage, the attacker attempts to steal valuable assets \
from the host. As a first step, the attacker used /bin/tar to read user credentials \
from /etc/passwd. It wrote the gathered information to a file /tmp/upload.tar. \
Then, the attacker leveraged /bin/bzip2 utility to compress the tar file. \
/bin/bzip2 read from /tmp/upload.tar and wrote to /tmp/upload.tar.bz2. \
After compression, the attacker used the GnuPG tool to encrypt the zipped file, \
which corresponds to the launched process /usr/bin/gpg reading from /tmp/upload.tar.bz2. \
/usr/bin/gpg then wrote the sensitive information to /tmp/upload. \
Finally, the attacker leveraged the curl utility /usr/bin/curl to read the data from /tmp/upload. \
He leaked the gathered sensitive information back to the attacker C2 host by using \
/usr/bin/curl to connect to 192.168.29.128.";

    #[test]
    fn figure2_graph_has_the_eight_steps() {
        let out = extract(FIG2_TEXT);
        let g = &out.graph;
        let find = |s: &str| g.nodes.iter().find(|n| n.text == s).map(|n| n.id);
        let tar = find("/bin/tar");
        let passwd = find("/etc/passwd");
        let uptar = find("/tmp/upload.tar");
        let bzip = find("/bin/bzip2");
        let bz2 = find("/tmp/upload.tar.bz2");
        let gpg = find("/usr/bin/gpg");
        let upload = find("/tmp/upload");
        let curl = find("/usr/bin/curl");
        let ip = find("192.168.29.128");
        for (name, n) in [
            ("tar", tar),
            ("passwd", passwd),
            ("uptar", uptar),
            ("bzip", bzip),
            ("bz2", bz2),
            ("gpg", gpg),
            ("upload", upload),
            ("curl", curl),
            ("ip", ip),
        ] {
            assert!(
                n.is_some(),
                "node {name} missing; nodes: {:?}",
                g.nodes.iter().map(|n| &n.text).collect::<Vec<_>>()
            );
        }
        let has_edge = |s: Option<usize>, rel: &str, d: Option<usize>| {
            g.edges.iter().any(|e| Some(e.src) == s && Some(e.dst) == d && e.relation == rel)
        };
        assert!(has_edge(tar, "read", passwd), "{}", g.render());
        assert!(has_edge(tar, "write", uptar), "{}", g.render());
        assert!(has_edge(bzip, "read", uptar), "{}", g.render());
        assert!(has_edge(bzip, "write", bz2), "{}", g.render());
        assert!(has_edge(gpg, "read", bz2), "{}", g.render());
        assert!(has_edge(gpg, "write", upload), "{}", g.render());
        assert!(has_edge(curl, "read", upload), "{}", g.render());
        assert!(has_edge(curl, "connect", ip), "{}", g.render());
    }

    #[test]
    fn figure2_sequence_order_matches_narrative() {
        let out = extract(FIG2_TEXT);
        let g = &out.graph;
        let edge_seq = |rel: &str, dst_text: &str| {
            g.edges
                .iter()
                .find(|e| e.relation == rel && g.nodes[e.dst].text == dst_text)
                .map(|e| e.seq)
                .unwrap_or(0)
        };
        let read_passwd = edge_seq("read", "/etc/passwd");
        let write_uptar = edge_seq("write", "/tmp/upload.tar");
        let connect_ip = edge_seq("connect", "192.168.29.128");
        assert!(read_passwd < write_uptar, "{}", g.render());
        assert!(write_uptar < connect_ip, "{}", g.render());
    }

    #[test]
    fn entity_extraction_finds_annotated_iocs() {
        let out = extract(FIG2_TEXT);
        let texts: Vec<&str> = out.entities.iter().map(|e| e.text.as_str()).collect();
        assert!(texts.contains(&"/bin/tar"));
        assert!(texts.contains(&"192.168.29.128"));
    }

    #[test]
    fn without_protection_extraction_collapses() {
        let with = extract_with_options(FIG2_TEXT, true);
        let without = extract_with_options(FIG2_TEXT, false);
        assert!(without.entities.len() < with.entities.len());
        assert!(without.triples.len() < with.triples.len().max(1));
    }

    #[test]
    fn empty_and_iocless_documents() {
        let out = extract("");
        assert!(out.graph.nodes.is_empty());
        let out = extract("Nothing interesting happened today.\n\nStill nothing.");
        assert!(out.graph.edges.is_empty());
    }

    #[test]
    fn blocks_merge_same_ioc() {
        let doc = "The dropper wrote upload.tar to disk.\n\n\
                   Later /bin/bzip2 read from /tmp/upload.tar again.";
        let out = extract(doc);
        // "upload.tar" and "/tmp/upload.tar" become one node.
        let count = out.graph.nodes.iter().filter(|n| n.text.contains("upload.tar")).count();
        assert_eq!(count, 1, "{:?}", out.graph.nodes);
    }
}
