//! Test stores: a relational database with one table per entity class and
//! `events`, and the graph over its rows, both fed every record through
//! their `MutableBackend`s, as the engine's loader feeds them.

use raptor_relstore::{ColumnDef, ColumnType, Database, TableSchema};
use raptor_storage::{BackendStats, EntityClass, Field, MutableBackend};

use crate::graph::{Graph, NodeId};

pub(crate) struct Stores {
    pub(crate) db: Database,
    pub(crate) g: Graph,
}

impl Stores {
    /// Each class table holds `id`, then `entity`; `events` holds `id`,
    /// `subject`, `object`, then `event`.
    pub(crate) fn new(entity: &[(&str, ColumnType)], event: &[(&str, ColumnType)]) -> Stores {
        let mut db = Database::new();
        let table = |name: &str, pinned: &[&str], cols: &[(&str, ColumnType)]| {
            let pinned = pinned.iter().map(|&c| (c, ColumnType::Int));
            let cols = pinned.chain(cols.iter().copied()).map(|(c, ty)| ColumnDef::new(c, ty));
            TableSchema::new(name, cols.collect())
        };
        for class in EntityClass::ALL {
            db.create_table(table(class.table_name(), &["id"], entity)).unwrap();
        }
        db.create_table(table("events", &["id", "subject", "object"], event)).unwrap();
        Stores { db, g: Graph::new() }
    }

    /// Appends the next entity (its id is the next node's).
    pub(crate) fn entity(&mut self, class: EntityClass, fields: &[Field<'_>]) -> NodeId {
        let (id, stats) = (self.g.node_count() as i64, &mut BackendStats::default());
        self.db.insert_entity(class, id, fields, stats).unwrap();
        self.g.insert_entity(class, id, fields, stats).unwrap();
        NodeId(id as u32)
    }

    pub(crate) fn event(&mut self, id: i64, s: NodeId, o: NodeId, fields: &[Field<'_>]) {
        let (s, o, stats) = (i64::from(s.0), i64::from(o.0), &mut BackendStats::default());
        self.db.insert_event(id, s, o, fields, stats).unwrap();
        self.g.insert_event(id, s, o, fields, stats).unwrap();
    }
}
