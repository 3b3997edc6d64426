//! The store's statistics: exact counts read from the indexes.
//!
//! Nothing here is maintained on the write path. A conjunct's count is the
//! length of the postings its access path (`exec::access_path`) would
//! read — a hash posting per `=` / `IN` key, a B-tree range, or the rows
//! under the distinct strings a `LIKE` passes — summed without copying a
//! row. The engine's scheduler orders event patterns by
//! [`Database::event_pattern_price`].

use raptor_common::error::Result;
use raptor_storage::{EventPatternQuery, Pred};

use crate::db::Database;
use crate::exec::{access_path, bind_pred, BExpr, Slot};
use crate::table::Table;

impl Database {
    /// Prices `q` by counting: `|events| × Π (count_i / |events|)` over the
    /// conjuncts of its event predicate that an index serves
    /// ([`Database::conjunct_count`]) and its seeded endpoints — the rows of
    /// `subject IN` / `object IN` its candidate ids, one posting length per
    /// id. Exact for one such conjunct, never above any single one's count,
    /// 0 over an empty table.
    pub fn event_pattern_price(&self, q: &EventPatternQuery) -> Result<f64> {
        let Some(events) = self.table("events").filter(|t| !t.is_empty()) else {
            return Ok(0.0);
        };
        let n = events.len() as f64;
        let mut price = n;
        for c in q.event_pred.iter().flat_map(Pred::conjuncts) {
            if let Some(count) = self.count(events, c)? {
                price *= count as f64 / n;
            }
        }
        for (sel, column) in [(&q.subject, "subject"), (&q.object, "object")] {
            let Some((ids, slot)) = sel.id_in.as_deref().zip(Slot::of(events, column).ok()) else {
                continue;
            };
            if let Some(path) = access_path(self, "events", &BExpr::InIds { slot, ids }) {
                price *= path.count() as f64 / n;
            }
        }
        Ok(price)
    }

    /// How many rows of `table` one conjunct selects, counted from the index
    /// its scan would read: a hash posting length per `=` / `IN` key, a
    /// B-tree range, or the rows under the distinct strings a `LIKE`
    /// passes. `None` when no index serves the conjunct's shape.
    pub fn conjunct_count(&self, table: &str, conjunct: &Pred) -> Result<Option<usize>> {
        self.table(table).map_or(Ok(None), |t| self.count(t, conjunct))
    }

    /// [`Database::conjunct_count`] over a resolved table. Only a leaf
    /// names one column, and a column the table lacks has no index.
    fn count(&self, table: &Table, c: &Pred) -> Result<Option<usize>> {
        let (Pred::Cmp { attr, .. } | Pred::Like { attr, .. } | Pred::InSet { attr, .. }) = c
        else {
            return Ok(None);
        };
        if table.schema.column_index(attr).is_none() {
            return Ok(None);
        }
        let path = access_path(self, &table.schema.name, &bind_pred(c, table)?);
        Ok(path.map(|path| path.count()))
    }
}

#[cfg(test)]
mod tests {
    use raptor_storage::{CmpOp, EntityClass, EntitySel, Value as SVal};

    use super::*;
    use crate::db::Ins;
    use crate::schema::{ColumnDef, ColumnType};
    use crate::TableSchema;

    fn events_table(db: &mut Database) {
        db.create_table(TableSchema::new(
            "events",
            vec![
                ColumnDef::new("id", ColumnType::Int),
                ColumnDef::new("subject", ColumnType::Int),
                ColumnDef::new("object", ColumnType::Int),
                ColumnDef::new("optype", ColumnType::Str),
                ColumnDef::new("kind", ColumnType::Str),
                ColumnDef::new("starttime", ColumnType::Time),
            ],
        ))
        .unwrap();
    }

    fn event(db: &mut Database, id: i64, subject: i64, op: &str, kind: &str, t: i64) {
        let cells = [Ins::Int(id), Ins::Int(subject), Ins::Int(0), Ins::Str(op), Ins::Str(kind)];
        db.insert("events", &[cells.as_slice(), &[Ins::Int(t)]].concat()).unwrap();
    }

    fn eq(db: &Database, attr: &str, v: &str) -> Pred {
        Pred::Cmp { attr: attr.into(), op: CmpOp::Eq, value: SVal::Str(db.dict().intern(v)) }
    }

    fn like(attr: &str, pattern: &str) -> Pred {
        Pred::Like { attr: attr.into(), pattern: pattern.into(), negated: false }
    }

    fn pattern(event_pred: Pred, subject_ids: Option<Vec<i64>>) -> EventPatternQuery {
        let mut subject = EntitySel::of(EntityClass::Process, None);
        subject.id_in = subject_ids;
        EventPatternQuery {
            subject,
            object: EntitySel::of(EntityClass::NetConn, None),
            event_pred: Some(event_pred),
            subject_is_object: false,
        }
    }

    /// A pattern's price multiplies the fractions its indexed conjuncts and
    /// seeds select; a conjunct no index serves prunes nothing.
    #[test]
    fn selectivity_composes() {
        let mut db = Database::new();
        events_table(&mut db);
        let price = |db: &Database, p: Pred| db.event_pattern_price(&pattern(p, None)).unwrap();
        assert_eq!(price(&db, eq(&db, "optype", "read")), 0.0);
        for column in ["subject", "optype", "kind"] {
            db.create_hash_index("events", column).unwrap();
        }
        db.create_btree_index("events", "starttime").unwrap();
        for id in 0..100 {
            let (op, kind, t) =
                if id < 80 { ("read", "file", 100) } else { ("connect", "network", 200) };
            event(&mut db, id, id % 10, op, kind, t);
        }
        // One conjunct: its exact count.
        assert_eq!(price(&db, eq(&db, "optype", "connect")), 20.0);
        let range = Pred::Cmp { attr: "starttime".into(), op: CmpOp::Ge, value: SVal::Int(150) };
        assert_eq!(price(&db, range), 20.0);
        // Two: 100 × 0.8 × 0.8, never above either one's count of 80.
        let both =
            Pred::And(Box::new(eq(&db, "optype", "read")), Box::new(eq(&db, "kind", "file")));
        assert!((price(&db, both) - 64.0).abs() < 1e-9);
        // No index serves an `Or` or an unknown column: no pruning assumed.
        let either =
            Pred::Or(Box::new(eq(&db, "optype", "read")), Box::new(eq(&db, "kind", "network")));
        assert_eq!(price(&db, either), 100.0);
        assert_eq!(price(&db, eq(&db, "missing", "x")), 100.0);
        // Seeded subjects: subject 0 owns 10 of the 100 events.
        let seeded = pattern(eq(&db, "optype", "connect"), Some(vec![0]));
        assert!((db.event_pattern_price(&seeded).unwrap() - 2.0).abs() < 1e-9);
        let none = pattern(eq(&db, "optype", "connect"), Some(vec![]));
        assert_eq!(db.event_pattern_price(&none).unwrap(), 0.0);
    }

    #[test]
    fn event_op_table() {
        let mut db = Database::new();
        events_table(&mut db);
        db.create_hash_index("events", "optype").unwrap();
        for (id, op) in ["read", "read", "write"].into_iter().enumerate() {
            event(&mut db, id as i64, 0, op, "file", 100);
        }
        let count = |p: &Pred| db.conjunct_count("events", p).unwrap();
        assert_eq!(count(&eq(&db, "optype", "read")), Some(2));
        assert_eq!(count(&eq(&db, "optype", "absent")), Some(0));
        let ops = ["read", "write", "read"].map(|op| SVal::Str(db.dict().intern(op)));
        let any = Pred::InSet { attr: "optype".into(), negated: false, values: ops.to_vec() };
        assert_eq!(count(&any), Some(3));
        // `kind` carries no index: nothing counts it.
        assert_eq!(count(&eq(&db, "kind", "file")), None);
    }

    /// A `LIKE` over an indexed ("tracked") column counts exactly the rows
    /// under the strings it passes, with or without trigram pruning.
    #[test]
    fn like_fraction_exact_when_tracked() {
        let mut db = Database::new();
        db.create_table(TableSchema::new(
            "files",
            vec![ColumnDef::new("id", ColumnType::Int), ColumnDef::new("name", ColumnType::Str)],
        ))
        .unwrap();
        let names = ["/etc/passwd", "/tmp/upload.tar", "/tmp/upload.tar.bz2", "/var/log/syslog"];
        for (id, name) in names.into_iter().enumerate() {
            db.insert("files", &[Ins::Int(id as i64), Ins::Str(name)]).unwrap();
        }
        let count = |db: &Database, p: &str| db.conjunct_count("files", &like("name", p)).unwrap();
        assert_eq!(count(&db, "%upload%"), None);
        db.create_hash_index("files", "name").unwrap();
        let expect = [("%upload%", 2), ("%", 4), ("%absent%", 0), ("/tmp/%.tar", 1)];
        for (p, n) in expect {
            assert_eq!(count(&db, p), Some(n), "{p}");
        }
        db.create_trigram_index("files", "name").unwrap();
        for (p, n) in expect {
            assert_eq!(count(&db, p), Some(n), "{p} with trigrams");
        }
    }
}
