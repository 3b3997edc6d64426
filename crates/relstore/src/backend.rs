//! The relational store's typed surface: [`Database::entity_candidates`],
//! [`Database::match_event_pattern`], [`Database::fetch_attr`] and the write
//! seam ([`MutableBackend`]).
//!
//! Requests arrive as `raptor-storage` data structures and are lowered
//! straight to SQL *AST* (`sql::ast::Select`) — the lexer/parser are never
//! involved. From there the normal planner and executor run, so the typed
//! plane shares every access path (hash/btree/trigram indexes, pushdown,
//! hash joins) with parsed queries.
//!
//! One entry point skips the planner: [`Database::match_event_pattern_rows`]
//! matches an event pattern against a row range of `events` — what a
//! standing query does with the rows an epoch appended. It lowers the same
//! predicates through the same `pred_to_expr` and evaluates them with the
//! scan's own compiled-predicate kernels, so it cannot disagree with
//! `match_event_pattern` about what a predicate means.

use raptor_common::error::{Error, Result};
use raptor_common::intern::SharedDict;
use raptor_storage::{
    AttrSource, BackendStats, EntityClass, EntitySel, EventPatternQuery, Field, FieldValue,
    MutableBackend, PatternMatches, Pred, Value as SVal, ValueColumn,
};

use crate::db::Database;
use crate::exec::{execute, match_event_rows, EndpointSel, ExecStats, EVENT_ALIAS as EVT};
use crate::plan::plan_select;
use crate::sql::ast::{CmpOp, ColRef, Expr, Literal, Projection, Select, TableRef};

/// Caps the per-statement `IN` chunk for attribute fetches.
const FETCH_CHUNK: usize = 4096;

pub fn table_for_class(class: EntityClass) -> &'static str {
    match class {
        EntityClass::File => "files",
        EntityClass::Process => "processes",
        EntityClass::NetConn => "netconns",
    }
}

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

fn id_in_expr(alias: &str, ids: &[i64]) -> Expr {
    // An empty candidate set must match nothing; `IN ()` is not
    // representable, so use the impossible id.
    let list = if ids.is_empty() {
        vec![Literal::Int(-1)]
    } else {
        ids.iter().map(|&i| Literal::Int(i)).collect()
    };
    Expr::InList { col: col(alias, "id"), list, negated: false }
}

fn in_expr_on(alias: &str, column: &str, ids: &[i64]) -> Expr {
    let list = if ids.is_empty() {
        vec![Literal::Int(-1)]
    } else {
        ids.iter().map(|&i| Literal::Int(i)).collect()
    };
    Expr::InList { col: col(alias, column), list, negated: false }
}

fn and_all(conds: Vec<Expr>) -> Option<Expr> {
    conds.into_iter().reduce(|a, b| Expr::And(Box::new(a), Box::new(b)))
}

impl Database {
    /// Plans and executes a programmatically-built SELECT (no SQL text).
    fn run_select(&self, sel: &Select, stats: &mut BackendStats) -> Result<QueryRows> {
        let plan = plan_select(self, sel)?;
        let (core, exec_stats) = execute(self, &plan)?;
        absorb_exec(stats, &exec_stats);
        stats.data_queries += 1;
        Ok(QueryRows { cols: core.cols })
    }

    /// What `q` asks of the event itself: the kind its object class
    /// implies, then the pattern's own event predicate.
    fn event_conds(&self, q: &EventPatternQuery) -> Result<Vec<Expr>> {
        let mut conds = vec![Expr::CmpLit {
            col: col(EVT, "kind"),
            op: CmpOp::Eq,
            lit: Literal::Str(q.object.class.event_kind().to_string()),
        }];
        if let Some(p) = &q.event_pred {
            conds.push(pred_to_expr(EVT, p, self.dict())?);
        }
        Ok(conds)
    }

    fn endpoint<'a>(&self, sel: &'a EntitySel, alias: &'a str) -> Result<EndpointSel<'a>> {
        Ok(EndpointSel {
            table: table_for_class(sel.class),
            alias,
            filter: sel.filter.as_ref().map(|p| pred_to_expr(alias, p, self.dict())).transpose()?,
            id_in: sel.id_in.as_deref(),
        })
    }

    /// Matches `q` against rows `rows` of the `events` table only — how a
    /// standing query sees one epoch: tables are append-only and a row id
    /// is its ordinal, so what an epoch appended is one contiguous range.
    /// The result is what [`Database::match_event_pattern`] returns
    /// for the events in that range (in event row order), and ranges that
    /// tile the table concatenate to its whole answer. Endpoints may be of
    /// any age: each is looked up by id and its filter tested on its own
    /// row. Work is proportional to the range — nothing is planned, and no
    /// index over `events` is consulted. The predicates are bound on every
    /// call (microseconds): a literal the dictionary lacks today folds to
    /// "matches nothing", and tomorrow's epoch may intern it.
    pub fn match_event_pattern_rows(
        &self,
        q: &EventPatternQuery,
        rows: std::ops::Range<usize>,
        stats: &mut BackendStats,
    ) -> Result<PatternMatches> {
        let event_filter = and_all(self.event_conds(q)?).expect("the kind conjunct");
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
}

/// A columnar result from the typed plane: one [`ValueColumn`] per
/// projected column, consumed column-wise (never re-materialized as rows).
struct QueryRows {
    cols: Vec<ValueColumn>,
}

impl QueryRows {
    fn n_rows(&self) -> usize {
        self.cols.first().map_or(0, ValueColumn::len)
    }

    /// Takes column `i` out as an `i64` vector. The typed audit id/time
    /// columns arrive as dense `ValueColumn::Int`, so this is a move, not a
    /// conversion; non-int cells (defensively) map to `-1`.
    fn take_ints(&mut self, i: usize) -> Vec<i64> {
        match std::mem::replace(&mut self.cols[i], ValueColumn::Int(Vec::new())) {
            ValueColumn::Int(v) => v,
            c => (0..c.len()).map(|r| c.get(r).as_int().unwrap_or(-1)).collect(),
        }
    }
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
        let alias = "x";
        let sel = Select {
            distinct: false,
            projections: vec![Projection::Col(col(alias, "id"))],
            from: vec![TableRef { table: table_for_class(class).to_string(), alias: alias.into() }],
            where_clause: Some(pred_to_expr(alias, filter, self.dict())?),
            order_by: vec![],
            limit: None,
        };
        let mut r = self.run_select(&sel, stats)?;
        // The one place candidates are canonicalized: downstream propagation
        // (`Propagation::set` in the engine) relies on the
        // sorted-distinct contract instead of re-sorting.
        let mut ids = r.take_ints(0);
        ids.sort_unstable();
        ids.dedup();
        Ok(ids)
    }

    /// Matches one event pattern against the whole store; returns (subject,
    /// object, event, start, end) per match.
    pub fn match_event_pattern(
        &self,
        q: &EventPatternQuery,
        stats: &mut BackendStats,
    ) -> Result<PatternMatches> {
        let (s, e, o) = ("s", EVT, "o");
        let mut conds: Vec<Expr> = vec![
            Expr::CmpCol { left: col(e, "subject"), op: CmpOp::Eq, right: col(s, "id") },
            Expr::CmpCol { left: col(e, "object"), op: CmpOp::Eq, right: col(o, "id") },
        ];
        conds.extend(self.event_conds(q)?);
        if let Some(p) = &q.subject.filter {
            conds.push(pred_to_expr(s, p, self.dict())?);
        }
        if let Some(p) = &q.object.filter {
            conds.push(pred_to_expr(o, p, self.dict())?);
        }
        // One TBQL variable bound as both subject and object: the text
        // compiler enforced this via a shared alias; here it is explicit.
        if q.subject_is_object {
            conds.push(Expr::CmpCol { left: col(s, "id"), op: CmpOp::Eq, right: col(o, "id") });
        }
        // Propagated ids constrain both the entity alias and — far more
        // importantly — the event columns, so the events scan runs through
        // the subject/object hash indexes instead of the larger optype one.
        for (sel, alias, evt_col) in [(&q.subject, s, "subject"), (&q.object, o, "object")] {
            if let Some(ids) = &sel.id_in {
                conds.push(id_in_expr(alias, ids));
                conds.push(in_expr_on(e, evt_col, ids));
            }
        }
        let sel = Select {
            distinct: false,
            projections: vec![
                Projection::Col(col(s, "id")),
                Projection::Col(col(o, "id")),
                Projection::Col(col(e, "id")),
                Projection::Col(col(e, "starttime")),
                Projection::Col(col(e, "endtime")),
            ],
            from: vec![
                TableRef { table: table_for_class(q.subject.class).to_string(), alias: s.into() },
                TableRef { table: "events".to_string(), alias: e.into() },
                TableRef { table: table_for_class(q.object.class).to_string(), alias: o.into() },
            ],
            where_clause: and_all(conds),
            order_by: vec![],
            limit: None,
        };
        let mut r = self.run_select(&sel, stats)?;
        // Struct-of-arrays straight from the columnar result: the five int
        // columns *are* the match vectors — moved, not rebuilt row by row.
        Ok(PatternMatches {
            subj: r.take_ints(0),
            obj: r.take_ints(1),
            evt: r.take_ints(2),
            start: r.take_ints(3),
            end: r.take_ints(4),
            has_event: true,
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
        let table = match source {
            AttrSource::Entity(class) => table_for_class(class),
            AttrSource::Event => "events",
        };
        let alias = "x";
        let mut out = Vec::with_capacity(ids.len());
        for chunk in ids.chunks(FETCH_CHUNK) {
            let sel = Select {
                distinct: false,
                projections: vec![
                    Projection::Col(col(alias, "id")),
                    Projection::Col(col(alias, attr)),
                ],
                from: vec![TableRef { table: table.to_string(), alias: alias.into() }],
                where_clause: Some(in_expr_on(alias, "id", chunk)),
                order_by: vec![],
                limit: None,
            };
            let r = self.run_select(&sel, stats)?;
            for i in 0..r.n_rows() {
                if let Some(id) = r.cols[0].get(i).as_int() {
                    out.push((id, r.cols[1].get(i)));
                }
            }
        }
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
