//! The relational store's typed surface: [`Database::entity_candidates`],
//! [`Database::match_event_pattern`], [`Database::match_event_pattern_rows`],
//! [`Database::fetch_attr`] and the write seam ([`MutableBackend`]); the
//! counts the scheduler prices patterns by are in [`crate::stats`].
//!
//! Requests arrive as `raptor-storage` data structures; their predicates
//! bind straight to the store's one predicate form, `exec::BExpr` (each
//! attribute to its column, each string value is already a dictionary
//! handle, propagated ids are borrowed from the request), and the scan
//! compiles that into its kernels — the same form SQL text binds to. The
//! typed plane **scans and does not plan**: no `Select` or SQL `Expr` is
//! built, and the planner, the binder over joined aliases and the hash
//! joins serve SQL text only.
//!
//! * `entity_candidates` is one scan of the class table — the same access
//!   path (hash / B-tree / `LIKE` over the column's dictionary) a parsed
//!   single-table query takes. A one-conjunct IOC filter is tested once
//!   per distinct string and its rows come straight from the postings.
//! * `match_event_pattern` and `match_event_pattern_rows` are the one
//!   matcher, `exec::match_event_rows`: events come from a scan of the
//!   whole table (batch) or from a row range (a standing query's epoch),
//!   and each endpoint is found by id and its filter tested on its own
//!   row. The two cannot disagree about what a predicate means.
//! * `fetch_attr` finds each id's row: an entity by binary search of its
//!   class table's `id` column, an event through the `events.id` hash
//!   index.
//!
//! Entity ids are positions: [`MutableBackend::insert_entity`] refuses an
//! id that is not the next dense one, so each class table's `id` column
//! ascends and needs no index. Events may arrive in any order, so an
//! event's id is not its row: event fetches need the `events.id` hash
//! index (the engine's `load::empty` creates it) and without one return a
//! `Storage` error.

use std::ops::Range;

use raptor_common::error::{Error, Result};
use raptor_storage::{
    dense_entity_id, AttrSource, BackendStats, EntityClass, EventPatternQuery, Field, FieldValue,
    MutableBackend, PatternMatches, Pred, Value as SVal,
};

use crate::db::Database;
use crate::exec::{
    bind_conjuncts, entity_ids, match_event_rows, run_scan, table_named, BExpr, BLit, ExecStats,
    Slot,
};
use crate::sql::ast::CmpOp;
use crate::table::{RowId, Table};

fn absorb_exec(stats: &mut BackendStats, exec: &ExecStats) {
    stats.items_scanned += exec.rows_scanned;
    stats.items_built += exec.tuples_built;
    stats.index_scans += exec.index_scans;
    stats.full_scans += exec.full_scans;
}

impl Database {
    /// Resolves a filtered entity to its candidate ids (one small indexed
    /// lookup — the scheduler's seeding step). Returned ids are sorted and
    /// distinct.
    pub fn entity_candidates(
        &self,
        class: EntityClass,
        filter: &Pred,
        stats: &mut BackendStats,
    ) -> Result<Vec<i64>> {
        let name = class.table_name();
        let table = table_named(self, name)?;
        let mut exec_stats = ExecStats::default();
        let rows = run_scan(self, name, &bind_conjuncts(Some(filter), table)?, &mut exec_stats)?;
        absorb_exec(stats, &exec_stats);
        stats.items_built += rows.len();
        stats.data_queries += 1;
        // Rows come back ascending, and entity ids ascend with their rows:
        // the ids are sorted and distinct, as downstream propagation
        // (`Propagation::set` in the engine) relies on.
        let ids = entity_ids(table)?;
        Ok(rows.iter().map(|&r| ids[r as usize]).collect())
    }

    /// Matches one event pattern against the whole store; returns (subject,
    /// object, event, start, end) per match, in event row order.
    pub fn match_event_pattern(
        &self,
        q: &EventPatternQuery,
        stats: &mut BackendStats,
    ) -> Result<PatternMatches> {
        self.match_events(q, None, stats)
    }

    /// Matches `q` against rows `rows` of the `events` table only — how a
    /// standing query sees one epoch: tables are append-only and a row id
    /// is its ordinal, so what an epoch appended is one contiguous range.
    /// The result is what [`Database::match_event_pattern`] returns
    /// for the events in that range, and ranges that tile the table
    /// concatenate to its whole answer. Endpoints may be of any age: each
    /// is looked up by id and its filter tested on its own row. Work is
    /// proportional to the range — no index over `events` is consulted.
    /// The predicates bind on every call (microseconds) and intern
    /// nothing: the object class's `kind` is looked up in the dictionary,
    /// so a kind it lacks today matches nothing, and a later epoch that
    /// interns it matches.
    pub fn match_event_pattern_rows(
        &self,
        q: &EventPatternQuery,
        rows: Range<usize>,
        stats: &mut BackendStats,
    ) -> Result<PatternMatches> {
        self.match_events(q, Some(rows), stats)
    }

    fn match_events(
        &self,
        q: &EventPatternQuery,
        rows: Option<Range<usize>>,
        stats: &mut BackendStats,
    ) -> Result<PatternMatches> {
        // What `q` asks of the event itself: the kind its object class
        // implies, then the conjuncts of its own event predicate.
        let events = table_named(self, "events")?;
        let kind = q.object.class.event_kind();
        let kind = BExpr::CmpLit {
            slot: Slot::of(events, "kind")?,
            op: CmpOp::Eq,
            lit: self.dict().get(kind).map_or(BLit::Raw(kind), BLit::Sym),
        };
        let mut conjuncts = vec![kind];
        conjuncts.extend(bind_conjuncts(q.event_pred.as_ref(), events)?);
        // The propagated ids are conjuncts on the event's own `subject` /
        // `object`, so a batch scan can run through those hash indexes
        // instead of the larger `optype` one.
        for (sel, column) in [(&q.subject, "subject"), (&q.object, "object")] {
            if let Some(ids) = &sel.id_in {
                conjuncts.push(BExpr::InIds { slot: Slot::of(events, column)?, ids });
            }
        }
        let mut exec_stats = ExecStats::default();
        let [subj, obj, evt, start, end] = match_event_rows(
            self,
            rows,
            &conjuncts,
            &q.subject,
            &q.object,
            q.subject_is_object,
            &mut exec_stats,
        )?;
        absorb_exec(stats, &exec_stats);
        stats.data_queries += 1;
        Ok(PatternMatches { subj, obj, evt, start, end, has_event: true })
    }

    /// Fetches `attr` for the given ids; absent ids are simply missing from
    /// the result. Used by final projection and `with`-clause evaluation.
    pub fn fetch_attr(
        &self,
        source: AttrSource,
        attr: &str,
        ids: &[i64],
        stats: &mut BackendStats,
    ) -> Result<Vec<(i64, SVal)>> {
        let name = match source {
            AttrSource::Entity(class) => class.table_name(),
            AttrSource::Event => "events",
        };
        let table = table_named(self, name)?;
        let c = table.schema.require_column(attr)?;
        let mut out = Vec::with_capacity(ids.len());
        match source {
            AttrSource::Entity(_) => {
                let entities = entity_ids(table)?;
                for &id in ids {
                    if let Ok(r) = entities.binary_search(&id) {
                        out.push((id, table.cell(r as RowId, c)));
                    }
                }
            }
            AttrSource::Event => {
                let by_id = (table.schema.column_index("id"))
                    .and_then(|c| self.indexes(name, c)?.hash.as_ref())
                    .ok_or_else(|| Error::storage("no hash index on `events.id`"))?;
                for &id in ids {
                    out.extend(by_id.get(SVal::Int(id)).iter().map(|&r| (id, table.cell(r, c))));
                }
            }
        }
        stats.data_queries += 1;
        stats.index_scans += 1;
        stats.items_scanned += out.len();
        stats.items_built += out.len();
        Ok(out)
    }
}

impl MutableBackend for Database {
    fn insert_entity(
        &mut self,
        class: EntityClass,
        id: i64,
        fields: &[Field<'_>],
        stats: &mut BackendStats,
    ) -> Result<()> {
        // An entity's id is its position in the id space the class tables
        // share: the next one is how many entities they hold.
        let next: usize =
            EntityClass::ALL.map(|c| self.table(c.table_name()).map_or(0, Table::len)).iter().sum();
        dense_entity_id(id, next)?;
        let pinned = [("id", FieldValue::Int(id))];
        self.append_record(class as usize, class.table_name(), &pinned, fields)?;
        stats.items_inserted += 1;
        Ok(())
    }

    fn insert_event(
        &mut self,
        id: i64,
        subject: i64,
        object: i64,
        fields: &[Field<'_>],
        stats: &mut BackendStats,
    ) -> Result<()> {
        let pinned = [("id", id), ("subject", subject), ("object", object)]
            .map(|(name, v)| (name, FieldValue::Int(v)));
        self.append_record(EntityClass::ALL.len(), "events", &pinned, fields)?;
        stats.items_inserted += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::Ins;
    use crate::schema::{ColumnDef, ColumnType};
    use crate::TableSchema;
    use raptor_storage::EntitySel;

    /// tar reads /etc/passwd then writes /tmp/upload.tar; curl connects out.
    fn audit_db() -> Database {
        let mut db = Database::new();
        db.create_table(TableSchema::new(
            "processes",
            vec![
                ColumnDef::new("id", ColumnType::Int),
                ColumnDef::new("exename", ColumnType::Str),
                ColumnDef::new("user", ColumnType::Str),
            ],
        ))
        .unwrap();
        db.create_table(TableSchema::new(
            "files",
            vec![ColumnDef::new("id", ColumnType::Int), ColumnDef::new("name", ColumnType::Str)],
        ))
        .unwrap();
        db.create_table(TableSchema::new(
            "events",
            vec![
                ColumnDef::new("id", ColumnType::Int),
                ColumnDef::new("subject", ColumnType::Int),
                ColumnDef::new("object", ColumnType::Int),
                ColumnDef::new("optype", ColumnType::Str),
                ColumnDef::new("kind", ColumnType::Str),
                ColumnDef::new("starttime", ColumnType::Time),
                ColumnDef::new("endtime", ColumnType::Time),
            ],
        ))
        .unwrap();
        // Event fetches find rows by id, as over the audit schema.
        db.create_hash_index("events", "id").unwrap();
        db.insert("processes", &[Ins::Int(0), Ins::Str("/bin/tar"), Ins::Str("root")]).unwrap();
        db.insert("processes", &[Ins::Int(1), Ins::Str("/usr/bin/curl"), Ins::Str("root")])
            .unwrap();
        db.insert("files", &[Ins::Int(2), Ins::Str("/etc/passwd")]).unwrap();
        db.insert("files", &[Ins::Int(3), Ins::Str("/tmp/upload.tar")]).unwrap();
        for (id, s, o, op, t) in
            [(0, 0, 2, "read", 100), (1, 0, 3, "write", 200), (2, 1, 3, "read", 300)]
        {
            db.insert(
                "events",
                &[
                    Ins::Int(id),
                    Ins::Int(s),
                    Ins::Int(o),
                    Ins::Str(op),
                    Ins::Str("file"),
                    Ins::Int(t),
                    Ins::Int(t + 10),
                ],
            )
            .unwrap();
        }
        db
    }

    fn like(attr: &str, pattern: &str) -> Pred {
        Pred::Like { attr: attr.into(), pattern: pattern.into(), negated: false }
    }

    fn op_eq(db: &Database, name: &str) -> Pred {
        Pred::Cmp {
            attr: "optype".into(),
            op: raptor_storage::CmpOp::Eq,
            value: SVal::Str(db.dict().intern(name)),
        }
    }

    #[test]
    fn candidates_sorted_distinct() {
        let db = audit_db();
        let mut stats = BackendStats::default();
        let ids = db
            .entity_candidates(EntityClass::Process, &like("exename", "%bin%"), &mut stats)
            .unwrap();
        assert_eq!(ids, vec![0, 1]);
        assert_eq!(stats.data_queries, 1);
        assert_eq!(stats.text_parses, 0);
        // `=` / `!=` against a string holding `%` compare the string.
        for (op, want) in
            [(raptor_storage::CmpOp::Eq, vec![]), (raptor_storage::CmpOp::Ne, vec![0, 1])]
        {
            let bin = SVal::Str(db.dict().intern("%bin%"));
            let cmp = Pred::Cmp { attr: "exename".into(), op, value: bin };
            assert_eq!(db.entity_candidates(EntityClass::Process, &cmp, &mut stats).unwrap(), want);
        }
    }

    #[test]
    fn event_pattern_typed_match() {
        let db = audit_db();
        let mut stats = BackendStats::default();
        let q = EventPatternQuery {
            subject: EntitySel::of(EntityClass::Process, Some(like("exename", "%/bin/tar%"))),
            object: EntitySel::of(EntityClass::File, Some(like("name", "%/etc/passwd%"))),
            event_pred: Some(op_eq(&db, "read")),
            subject_is_object: false,
        };
        let m = db.match_event_pattern(&q, &mut stats).unwrap();
        assert_eq!(m.len(), 1);
        assert_eq!((m.subj[0], m.obj[0], m.evt[0], m.start[0], m.end[0]), (0, 2, 0, 100, 110));
        assert!(m.has_event);
    }

    #[test]
    fn propagated_ids_filter() {
        let db = audit_db();
        let mut stats = BackendStats::default();
        let mut subject = EntitySel::of(EntityClass::Process, None);
        subject.id_in = Some(vec![1]);
        let q = EventPatternQuery {
            subject,
            object: EntitySel::of(EntityClass::File, None),
            event_pred: Some(op_eq(&db, "read")),
            subject_is_object: false,
        };
        let m = db.match_event_pattern(&q, &mut stats).unwrap();
        assert_eq!(m.len(), 1);
        assert_eq!(m.subj[0], 1);
        // Empty propagation set matches nothing (and stays well-formed).
        let mut subject = EntitySel::of(EntityClass::Process, None);
        subject.id_in = Some(vec![]);
        let q = EventPatternQuery {
            subject,
            object: EntitySel::of(EntityClass::File, None),
            event_pred: None,
            subject_is_object: false,
        };
        assert!(db.match_event_pattern(&q, &mut stats).unwrap().is_empty());
    }

    /// Entity ids are positions: an id that is not the next dense one is a
    /// typed error, and nothing is appended.
    #[test]
    fn insert_entity_refuses_a_gap() {
        let (mut db, mut stats) = (audit_db(), BackendStats::default());
        let rows = db.total_rows();
        for id in [5, 3, -1] {
            let err = db.insert_entity(EntityClass::File, id, &[], &mut stats).unwrap_err();
            assert_eq!(err.kind, raptor_common::error::ErrorKind::Storage, "{id}: {err}");
        }
        assert_eq!((db.total_rows(), stats.items_inserted), (rows, 0));
        db.insert_entity(EntityClass::File, 4, &[], &mut stats).unwrap();
    }

    #[test]
    fn attr_fetch_typed() {
        let db = audit_db();
        let mut stats = BackendStats::default();
        let got = db
            .fetch_attr(
                AttrSource::Entity(EntityClass::Process),
                "exename",
                &[0, 1, 99],
                &mut stats,
            )
            .unwrap();
        assert_eq!(
            got,
            vec![
                (0, SVal::Str(db.dict().get("/bin/tar").unwrap())),
                (1, SVal::Str(db.dict().get("/usr/bin/curl").unwrap()))
            ]
        );
        let evs = db.fetch_attr(AttrSource::Event, "starttime", &[2], &mut stats).unwrap();
        assert_eq!(evs, vec![(2, SVal::Int(300))]);
    }
}
