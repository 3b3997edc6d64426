//! The relational store's typed surface: [`Database::entity_candidates`],
//! [`Database::match_event_pattern`], [`Database::match_event_pattern_rows`],
//! [`Database::fetch_attr`] and the write seam ([`MutableBackend`]).
//!
//! Requests arrive as `raptor-storage` data structures; their predicates
//! are lowered straight to SQL *expressions* (`sql::ast::Expr`, the lexer
//! and parser are never involved) and evaluated by the scan's own compiled
//! kernels. The typed plane **scans and does not plan**: no `Select` is
//! built, and the planner, the binder over joined aliases and the hash
//! joins serve SQL text only.
//!
//! * `entity_candidates` is one scan of the class table — the same
//!   statistics-chosen access path (hash / B-tree / trigram) a parsed
//!   single-table query takes.
//! * `match_event_pattern` and `match_event_pattern_rows` are the one
//!   matcher, `exec::match_event_rows`: events come from a scan of the
//!   whole table (batch) or from a row range (a standing query's epoch),
//!   and each endpoint is looked up by `id` and its filter tested on its
//!   own row. The two cannot disagree about what a predicate means.
//! * `fetch_attr` is a set of `id` hash-index probes.
//!
//! Endpoints and fetches need the `id` hash index every audit table
//! carries (the engine's `load::empty` creates it); without one they
//! return a `Storage` error.

use std::ops::Range;

use raptor_common::error::{Error, Result};
use raptor_common::intern::SharedDict;
use raptor_storage::{
    AttrSource, BackendStats, EntityClass, EntitySel, EventPatternQuery, Field, FieldValue,
    MutableBackend, PatternMatches, Pred, Value as SVal,
};

use crate::db::Database;
use crate::exec::{
    id_index, match_event_rows, run_scan, EndpointSel, ExecStats, EVENT_ALIAS as EVT,
};
use crate::sql::ast::{CmpOp, ColRef, Expr, Literal};

fn col(alias: &str, column: &str) -> ColRef {
    ColRef::new(Some(alias), column)
}

fn lit(v: &SVal) -> Result<Literal> {
    match v {
        SVal::Int(i) => Ok(Literal::Int(*i)),
        // Pre-interned: the executor binds the handle without a dictionary
        // lookup.
        SVal::Str(s) => Ok(Literal::Interned(*s)),
        SVal::Null => Err(Error::semantic("NULL literals are not valid in predicates")),
    }
}

fn cmp_op(op: raptor_storage::CmpOp) -> CmpOp {
    match op {
        raptor_storage::CmpOp::Eq => CmpOp::Eq,
        raptor_storage::CmpOp::Ne => CmpOp::Ne,
        raptor_storage::CmpOp::Lt => CmpOp::Lt,
        raptor_storage::CmpOp::Le => CmpOp::Le,
        raptor_storage::CmpOp::Gt => CmpOp::Gt,
        raptor_storage::CmpOp::Ge => CmpOp::Ge,
    }
}

/// Lowers a typed predicate to a SQL expression over `alias`.
fn pred_to_expr(alias: &str, p: &Pred, dict: &SharedDict) -> Result<Expr> {
    Ok(match p {
        Pred::Cmp { attr, op, value } => {
            // `= '%…%'` keeps LIKE semantics, exactly as the text compiler
            // did (defensive: the TBQL lowering already emits `Pred::Like`).
            let wildcard = value.as_sym().map(|s| dict.resolve(s)).filter(|s| s.contains('%'));
            match (op, wildcard) {
                (raptor_storage::CmpOp::Eq, Some(s)) => {
                    Expr::Like { col: col(alias, attr), pattern: s.to_string(), negated: false }
                }
                (raptor_storage::CmpOp::Ne, Some(s)) => {
                    Expr::Like { col: col(alias, attr), pattern: s.to_string(), negated: true }
                }
                _ => Expr::CmpLit { col: col(alias, attr), op: cmp_op(*op), lit: lit(value)? },
            }
        }
        Pred::Like { attr, pattern, negated } => {
            Expr::Like { col: col(alias, attr), pattern: pattern.clone(), negated: *negated }
        }
        Pred::InSet { attr, negated, values } => Expr::InList {
            col: col(alias, attr),
            list: values.iter().map(lit).collect::<Result<Vec<_>>>()?,
            negated: *negated,
        },
        Pred::And(a, b) => Expr::And(
            Box::new(pred_to_expr(alias, a, dict)?),
            Box::new(pred_to_expr(alias, b, dict)?),
        ),
        Pred::Or(a, b) => Expr::Or(
            Box::new(pred_to_expr(alias, a, dict)?),
            Box::new(pred_to_expr(alias, b, dict)?),
        ),
        Pred::Not(inner) => Expr::Not(Box::new(pred_to_expr(alias, inner, dict)?)),
    })
}

fn absorb_exec(stats: &mut BackendStats, exec: &ExecStats) {
    stats.items_scanned += exec.rows_scanned;
    stats.items_built += exec.tuples_built;
    stats.index_scans += exec.index_scans;
    stats.full_scans += exec.full_scans;
    stats.segments_scanned += exec.segments_scanned;
    stats.segments_pruned += exec.segments_pruned;
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
        let (name, alias) = (class.table_name(), "x");
        let mut exec_stats = ExecStats::default();
        let pred = pred_to_expr(alias, filter, self.dict())?;
        let rows = run_scan(self, name, alias, Some(&pred), &mut exec_stats)?;
        absorb_exec(stats, &exec_stats);
        stats.items_built += rows.len();
        stats.data_queries += 1;
        let table = self.table(name).expect("scanned above");
        let c = table.schema.require_column("id")?;
        // The one place candidates are canonicalized: downstream propagation
        // (`Propagation::set` in the engine) relies on the
        // sorted-distinct contract instead of re-sorting.
        let mut ids: Vec<i64> = rows.iter().filter_map(|&r| table.cell(r, c).as_int()).collect();
        ids.sort_unstable();
        ids.dedup();
        Ok(ids)
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
    /// The predicates are bound on every call (microseconds): a literal the
    /// dictionary lacks today folds to "matches nothing", and tomorrow's
    /// epoch may intern it.
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
        // implies, then the pattern's own event predicate.
        let mut conds = vec![Expr::CmpLit {
            col: col(EVT, "kind"),
            op: CmpOp::Eq,
            lit: Literal::Str(q.object.class.event_kind().to_string()),
        }];
        if let Some(p) = &q.event_pred {
            conds.push(pred_to_expr(EVT, p, self.dict())?);
        }
        // A batch scan also carries the propagated ids, so it can run
        // through the `subject` / `object` hash indexes instead of the
        // larger `optype` one; a row range tests them per endpoint.
        if rows.is_none() {
            for (sel, column) in [(&q.subject, "subject"), (&q.object, "object")] {
                if let Some(ids) = &sel.id_in {
                    let list = ids.iter().map(|&i| Literal::Int(i)).collect();
                    conds.push(Expr::InList { col: col(EVT, column), list, negated: false });
                }
            }
        }
        let event_filter = conds
            .into_iter()
            .reduce(|a, b| Expr::And(Box::new(a), Box::new(b)))
            .expect("the kind conjunct");
        let mut exec_stats = ExecStats::default();
        let [subj, obj, evt, start, end] = match_event_rows(
            self,
            rows,
            &event_filter,
            &self.endpoint(&q.subject, "s")?,
            &self.endpoint(&q.object, "o")?,
            q.subject_is_object,
            &mut exec_stats,
        )?;
        absorb_exec(stats, &exec_stats);
        stats.data_queries += 1;
        Ok(PatternMatches { subj, obj, evt, start, end, has_event: true })
    }

    fn endpoint<'a>(&self, sel: &'a EntitySel, alias: &'a str) -> Result<EndpointSel<'a>> {
        Ok(EndpointSel {
            table: sel.class.table_name(),
            alias,
            filter: sel.filter.as_ref().map(|p| pred_to_expr(alias, p, self.dict())).transpose()?,
            id_in: sel.id_in.as_deref(),
        })
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
        let by_id = id_index(self, name)?;
        let table = self.table(name).expect("indexed above");
        let c = table.schema.require_column(attr)?;
        let out: Vec<(i64, SVal)> = ids
            .iter()
            .flat_map(|&id| by_id.get(SVal::Int(id)).iter().map(move |&r| (id, table.cell(r, c))))
            .collect();
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
        // The typed reads find rows by id, as over the audit schema.
        for table in ["processes", "files", "events"] {
            db.create_hash_index(table, "id").unwrap();
        }
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
