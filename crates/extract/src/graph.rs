//! Threat behavior graph (Step 10 of Algorithm 1).
//!
//! Nodes are merged IOCs, edges are IOC relations. Every edge carries a
//! *sequence number* assigned by iterating triples "sorted by the occurrence
//! offset of the relation verb in OSCTI text" — the temporal backbone that
//! query synthesis turns into `with evt1 before evt2 ...` clauses.

use crate::ioc::IocType;

/// A node: one merged IOC.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct GraphNode {
    pub id: usize,
    /// Canonical (longest) surface form.
    pub text: String,
    pub ioc_type: IocType,
}

/// An edge: a directed IOC relation with its step order.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct GraphEdge {
    pub src: usize,
    pub dst: usize,
    /// Lemmatized relation verb.
    pub relation: String,
    /// 1-based step order.
    pub seq: u32,
}

/// The threat behavior graph.
#[derive(Clone, Default, Debug)]
pub struct ThreatBehaviorGraph {
    pub nodes: Vec<GraphNode>,
    pub edges: Vec<GraphEdge>,
}

impl ThreatBehaviorGraph {
    /// Builds the graph from canonical nodes and globally-ordered triples
    /// (already sorted by verb occurrence). Duplicate (src, relation, dst)
    /// edges collapse into the earliest occurrence.
    pub fn build(
        canon: Vec<(String, IocType)>,
        ordered_triples: Vec<(usize, String, usize)>,
    ) -> Self {
        let nodes: Vec<GraphNode> = canon
            .into_iter()
            .enumerate()
            .map(|(id, (text, ioc_type))| GraphNode { id, text, ioc_type })
            .collect();
        let mut edges: Vec<GraphEdge> = Vec::new();
        for (src, relation, dst) in ordered_triples {
            if edges.iter().any(|e| e.src == src && e.dst == dst && e.relation == relation) {
                continue;
            }
            let seq = edges.len() as u32 + 1;
            edges.push(GraphEdge { src, dst, relation, seq });
        }
        ThreatBehaviorGraph { nodes, edges }
    }

    pub fn node(&self, id: usize) -> &GraphNode {
        &self.nodes[id]
    }

    /// Nodes with at least one incident edge.
    pub fn connected_nodes(&self) -> Vec<usize> {
        let mut seen = vec![false; self.nodes.len()];
        for e in &self.edges {
            seen[e.src] = true;
            seen[e.dst] = true;
        }
        (0..self.nodes.len()).filter(|&i| seen[i]).collect()
    }

    /// Human-readable rendering (one edge per line, in sequence order).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.edges {
            out.push_str(&format!(
                "{}. {} -[{}]-> {}\n",
                e.seq, self.nodes[e.src].text, e.relation, self.nodes[e.dst].text
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_assigns_sequence_numbers() {
        let canon = vec![
            ("/bin/tar".to_string(), IocType::FilePath),
            ("/etc/passwd".to_string(), IocType::FilePath),
            ("/tmp/upload.tar".to_string(), IocType::FilePath),
        ];
        let triples = vec![
            (0, "read".to_string(), 1),
            (0, "write".to_string(), 2),
            (0, "read".to_string(), 1), // duplicate collapses
        ];
        let g = ThreatBehaviorGraph::build(canon, triples);
        assert_eq!(g.edges.len(), 2);
        assert_eq!(g.edges[0].seq, 1);
        assert_eq!(g.edges[1].seq, 2);
        assert_eq!(g.edges[0].relation, "read");
        assert_eq!(g.connected_nodes(), vec![0, 1, 2]);
    }

    #[test]
    fn disconnected_nodes_reported() {
        let canon = vec![
            ("/bin/tar".to_string(), IocType::FilePath),
            ("10.0.0.1".to_string(), IocType::Ip),
        ];
        let g = ThreatBehaviorGraph::build(canon, Vec::new());
        assert!(g.connected_nodes().is_empty());
        assert_eq!(g.nodes.len(), 2);
    }

    #[test]
    fn render_is_ordered() {
        let canon =
            vec![("a".to_string(), IocType::FileName), ("b".to_string(), IocType::FileName)];
        let g = ThreatBehaviorGraph::build(canon, vec![(0, "read".to_string(), 1)]);
        assert_eq!(g.render(), "1. a -[read]-> b\n");
    }
}
