//! Test stores: a relational database with one table per entity class and
//! `events`, whose entity-id indexes make it a graph, fed every record
//! through its `MutableBackend`, as the engine's loader feeds it.

use raptor_relstore::{ColumnDef, ColumnType, Database, TableSchema};
use raptor_storage::{BackendStats, EntityClass, Field, MutableBackend};

use crate::graph::NodeId;

pub(crate) struct Stores {
    pub(crate) db: Database,
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
        for col in ["subject", "object"] {
            db.create_entity_index("events", col).unwrap();
        }
        Stores { db }
    }

    /// Appends the next entity (its id is the next node's).
    pub(crate) fn entity(&mut self, class: EntityClass, fields: &[Field<'_>]) -> NodeId {
        let id = self.db.entities().len() as i64;
        self.db.insert_entity(class, id, fields, &mut BackendStats::default()).unwrap();
        NodeId(id as u32)
    }

    pub(crate) fn event(&mut self, id: i64, s: NodeId, o: NodeId, fields: &[Field<'_>]) {
        let (s, o, stats) = (i64::from(s.0), i64::from(o.0), &mut BackendStats::default());
        self.db.insert_event(id, s, o, fields, stats).unwrap();
    }
}
