//! The graph is a view of the relational rows.
//!
//! The relational store (`raptor_relstore::Database`) owns adjacency. A
//! node is an entity: its entry in the store's entity directory, which
//! gives its class and its row in that class's table. An edge is an event:
//! its ordinal is its row of `events`, its endpoints that row's `subject`
//! and `object` cells. A node's out-edges are its posting in the
//! entity-id index on `events.subject`, in append order (every walk
//! follows edges forward, so no in-adjacency is read). [`Topology`]
//! resolves those columns and slices once per request; it keeps nothing
//! per node or edge.
//!
//! [`Graph`] is a shim for the facade's `LoadedStores::graph`: two
//! counters fed through its `MutableBackend`, read by the benchmark and by
//! no engine path. Merging the two write seams (ROADMAP 8(a)) deletes it.

use raptor_common::error::{Error, Result};
use raptor_relstore::exec::table_named;
use raptor_relstore::index::EntityIndex;
use raptor_relstore::{Database, EntityRow};
use raptor_storage::{dense_entity_id, BackendStats, EntityClass, Field, MutableBackend};

/// Node id: the entity's id.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub u32);

/// Edge id: the event's row of `events`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EdgeId(pub u32);

/// An event's endpoints.
#[derive(Clone, Copy, Debug)]
pub struct Edge {
    pub src: NodeId,
    pub dst: NodeId,
}

/// The graph over a database's rows, resolved once: the entity directory,
/// the `events.subject` entity-id index and the two endpoint columns.
#[derive(Clone, Copy)]
pub struct Topology<'a> {
    entities: &'a [EntityRow],
    out: &'a EntityIndex,
    subject: &'a [i64],
    object: &'a [i64],
}

impl<'a> Topology<'a> {
    /// The graph of `db`. Both endpoint columns carry an entity-id index,
    /// so each of their cells is a node; without one it is a typed
    /// `Storage` error.
    pub fn of(db: &'a Database) -> Result<Topology<'a>> {
        let events = table_named(db, "events")?;
        let end = |name: &str| -> Result<(&'a EntityIndex, &'a [i64])> {
            let c = events.schema.require_column(name)?;
            let no_index = || Error::storage(format!("no entity-id index on `events.{name}`"));
            let index = db.entity_index("events", c).ok_or_else(no_index)?;
            Ok((index, events.int_cells(c).ok_or_else(no_index)?))
        };
        let ((out, subject), (_, object)) = (end("subject")?, end("object")?);
        Ok(Topology { entities: db.entities(), out, subject, object })
    }

    pub fn node_count(&self) -> usize {
        self.entities.len()
    }

    pub fn edge_count(&self) -> usize {
        self.subject.len()
    }

    /// The node of entity `id` — entity ids are node ordinals — if there
    /// is one. Range-checked before narrowing: `1 << 32` is not node 0.
    pub fn entity_node(&self, id: i64) -> Option<NodeId> {
        usize::try_from(id).ok().filter(|&i| i < self.node_count()).map(|i| NodeId(i as u32))
    }

    /// Node `n`'s class and class-table row.
    pub fn node(&self, n: NodeId) -> EntityRow {
        self.entities[n.0 as usize]
    }

    /// Edge `e`'s endpoints: its `events` row's `subject` and `object`.
    pub fn edge(&self, e: EdgeId) -> Edge {
        let i = e.0 as usize;
        Edge { src: NodeId(self.subject[i] as u32), dst: NodeId(self.object[i] as u32) }
    }

    /// Node `n`'s out-edges, in append order: its `subject` posting.
    pub fn out_edges(&self, n: NodeId) -> impl ExactSizeIterator<Item = EdgeId> + 'a {
        self.out.rows(n.0 as usize).iter().map(|&e| EdgeId(e))
    }
}

/// The facade's graph shim: how many nodes and edges were appended through
/// its `MutableBackend`, which refuses what the relational store refuses.
#[derive(Default)]
pub struct Graph {
    nodes: usize,
    edges: usize,
}

impl Graph {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn node_count(&self) -> usize {
        self.nodes
    }

    pub fn edge_count(&self) -> usize {
        self.edges
    }
}

impl MutableBackend for Graph {
    fn insert_entity(
        &mut self,
        _class: EntityClass,
        id: i64,
        _fields: &[Field<'_>],
        stats: &mut BackendStats,
    ) -> Result<()> {
        dense_entity_id(id, self.nodes)?;
        self.nodes += 1;
        stats.items_inserted += 1;
        Ok(())
    }

    fn insert_event(
        &mut self,
        _id: i64,
        subject: i64,
        object: i64,
        _fields: &[Field<'_>],
        stats: &mut BackendStats,
    ) -> Result<()> {
        for id in [subject, object] {
            if usize::try_from(id).map_or(true, |i| i >= self.nodes) {
                return Err(Error::storage(format!("event endpoint {id} is not a node")));
            }
        }
        self.edges += 1;
        stats.items_inserted += 1;
        Ok(())
    }
}
