//! The graph's topology over the relational rows.
//!
//! A node is an entity: its class and its row in that class's table. An
//! edge is an event: its two endpoints, and its ordinal is its row of the
//! `events` table. The graph keeps no property, no label and no value
//! index; every read of a value goes to a cell of the relational store
//! (`raptor_relstore::Database`), which the read entry points take beside
//! the graph. Out-adjacency lists give index-free traversal along edges
//! (every walk follows edges forward, so no in-adjacency is kept).
//!
//! A node's ordinal is its entity id and an edge's ordinal its `events` row
//! by construction: the engine's loader feeds both stores the same records
//! in the same order, and both refuse the same bad records.

use raptor_common::error::{Error, Result};
use raptor_storage::EntityClass;

/// Node id (arena index): the entity's id.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub u32);

/// Edge id (arena index): the event's row of `events`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EdgeId(pub u32);

/// An entity: its class and its row of the class's table.
#[derive(Clone, Copy, Debug)]
pub struct Node {
    pub class: EntityClass,
    pub row: u32,
}

/// An event's endpoints.
#[derive(Clone, Copy, Debug)]
pub struct Edge {
    pub src: NodeId,
    pub dst: NodeId,
}

/// The graph: nodes, edges and each node's out-edges.
#[derive(Default)]
pub struct Graph {
    nodes: Vec<Node>,
    edges: Vec<Edge>,
    out: Vec<Vec<EdgeId>>,
    /// Per class, the nodes appended so far: the next one's row.
    rows: [u32; EntityClass::ALL.len()],
}

impl Graph {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The node of entity `id` — entity ids are node ordinals — if there
    /// is one. Range-checked before narrowing: `1 << 32` is not node 0.
    pub fn entity_node(&self, id: i64) -> Option<NodeId> {
        usize::try_from(id).ok().filter(|&i| i < self.node_count()).map(|i| NodeId(i as u32))
    }

    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    pub fn node(&self, id: NodeId) -> Node {
        self.nodes[id.0 as usize]
    }

    pub fn edge(&self, id: EdgeId) -> Edge {
        self.edges[id.0 as usize]
    }

    pub fn out_edges(&self, id: NodeId) -> &[EdgeId] {
        &self.out[id.0 as usize]
    }

    /// Appends the next entity of `class`: the class table's next row.
    pub fn add_node(&mut self, class: EntityClass) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        let row = &mut self.rows[class as usize];
        self.nodes.push(Node { class, row: *row });
        *row += 1;
        self.out.push(Vec::new());
        id
    }

    /// Appends the next event, `src -> dst`: the next row of `events`.
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId) -> Result<EdgeId> {
        if src.0 as usize >= self.nodes.len() || dst.0 as usize >= self.nodes.len() {
            return Err(Error::storage("edge endpoint does not exist"));
        }
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(Edge { src, dst });
        self.out[src.0 as usize].push(id);
        Ok(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> (Graph, [NodeId; 3]) {
        let mut g = Graph::new();
        let nodes =
            [EntityClass::Process, EntityClass::File, EntityClass::File].map(|c| g.add_node(c));
        g.add_edge(nodes[0], nodes[1]).unwrap();
        g.add_edge(nodes[0], nodes[2]).unwrap();
        (g, nodes)
    }

    #[test]
    fn adjacency() {
        let (g, [p, f, f2]) = tiny();
        assert_eq!(g.out_edges(p), &[EdgeId(0), EdgeId(1)]);
        assert!(g.out_edges(f).is_empty());
        assert_eq!(g.edge(EdgeId(0)).dst, f);
        assert_eq!(g.edge(EdgeId(1)).dst, f2);
        assert_eq!((g.node_count(), g.edge_count()), (3, 2));
    }

    /// Classes partition the nodes, each into its own table's rows, in
    /// order.
    #[test]
    fn labels_partition_nodes() {
        let (g, nodes) = tiny();
        let rows = nodes.map(|n| (g.node(n).class, g.node(n).row));
        assert_eq!(
            rows,
            [(EntityClass::Process, 0), (EntityClass::File, 0), (EntityClass::File, 1)]
        );
    }

    #[test]
    fn bad_edge_rejected() {
        let mut g = Graph::new();
        let n = g.add_node(EntityClass::File);
        assert!(g.add_edge(n, NodeId(99)).is_err());
        assert_eq!(g.edge_count(), 0);
    }
}
