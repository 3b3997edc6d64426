//! The database facade.
//!
//! Holds a handle to the (possibly shared) string dictionary, owns tables
//! and indexes, and exposes the public API: DDL
//! ([`Database::create_table`], `create_*_index`), inserts, and
//! [`Database::query`] for the SQL subset.

use std::sync::atomic::{AtomicUsize, Ordering};

use raptor_common::error::{Error, Result};
use raptor_common::hash::FxHashMap;
use raptor_common::intern::SharedDict;
use raptor_common::pool::Pool;
use raptor_storage::{EntityClass, Field, FieldValue, StoreStats, ValueColumn};

use crate::exec::{execute, ExecStats};
use crate::index::{BTreeIndex, HashIndex, TrigramIndex};
use crate::plan::{plan_select, SchemaProvider};
use crate::schema::TableSchema;
use crate::sql::parse_select;
use crate::table::Table;
use crate::value::Value;

/// A value being inserted (strings are interned on the way in).
#[derive(Clone, Copy, Debug)]
pub enum Ins<'a> {
    Int(i64),
    Str(&'a str),
    Null,
}

/// A query result: projected column names, typed shared-plane **columns**,
/// and execution counters. Strings stay interned — `rendered_rows` (or the
/// engine's edge) resolves them through the carried dictionary handle.
#[derive(Clone, Debug)]
pub struct QueryResult {
    pub columns: Vec<String>,
    /// One [`ValueColumn`] per projected column (column-major; rows are
    /// materialized only on demand via [`QueryResult::rows`]).
    pub cols: Vec<ValueColumn>,
    pub stats: ExecStats,
    /// The dictionary plane `cols`' symbols resolve through.
    pub dict: SharedDict,
}

impl QueryResult {
    pub fn n_rows(&self) -> usize {
        self.cols.first().map_or(0, ValueColumn::len)
    }

    /// One row, materialized on demand.
    pub fn row(&self, i: usize) -> Vec<Value> {
        self.cols.iter().map(|c| c.get(i)).collect()
    }

    /// All rows, materialized row-major (tests and edge consumers).
    pub fn rows(&self) -> Vec<Vec<Value>> {
        (0..self.n_rows()).map(|i| self.row(i)).collect()
    }

    /// Renders rows as display strings (column order preserved).
    pub fn rendered_rows(&self) -> Vec<Vec<String>> {
        (0..self.n_rows())
            .map(|i| self.cols.iter().map(|c| c.render(i, &self.dict)).collect())
            .collect()
    }
}

/// The secondary indexes of one column.
#[derive(Default)]
pub(crate) struct ColumnIndexes {
    pub(crate) hash: Option<HashIndex>,
    pub(crate) btree: Option<BTreeIndex>,
    pub(crate) trigram: Option<TrigramIndex>,
}

/// One table with everything the appender addresses by ordinal, resolved
/// by name once, at `create_table` time.
struct Slot {
    table: Table,
    /// Per column, in schema order.
    indexes: Vec<ColumnIndexes>,
    /// The table's ordinal in [`StoreStats`], and each column's in it.
    stats_ord: usize,
    stats_cols: Vec<usize>,
    /// An audit entity table's class and `id` column.
    node: Option<(EntityClass, usize)>,
    /// The `events` table's `subject`, `object` and `optype` columns.
    edge: Option<(usize, usize, Option<usize>)>,
}

/// One `MutableBackend` record shape (the field names supplied for an
/// entity class or for events) resolved to schema column order: per column,
/// its position in `pinned ++ fields`, or `None` for NULL. Re-resolved
/// whenever the supplied names differ from the cached ones.
struct FieldPerm {
    table: usize,
    names: Vec<String>,
    cols: Vec<Option<usize>>,
}

/// The embedded relational database.
pub struct Database {
    dict: SharedDict,
    slots: Vec<Slot>,
    by_name: FxHashMap<String, usize>,
    /// SQL texts parsed over this database's lifetime. The typed entry
    /// points (`crate::backend`) never touch this — tests assert it.
    /// Atomic (not `Cell`) so the database stays `Sync` on the query path:
    /// the parallel execution plane shares `&Database` across workers.
    text_parses: AtomicUsize,
    /// Worker pool for partitioned scans and parallel hash-join probes
    /// (see `exec`). One thread ⇒ the exact sequential code paths.
    pool: Pool,
    /// Data statistics, maintained incrementally by [`Database::insert`]
    /// (every write path funnels through it) and served scan-free via
    /// [`Database::store_stats`].
    stats: StoreStats,
    /// The row being appended, in schema column order. Reused, so a row
    /// costs no allocation.
    row: Vec<Value>,
    /// One per entity class, then events.
    perms: [Option<FieldPerm>; 4],
}

impl SchemaProvider for Database {
    fn schema(&self, table: &str) -> Option<&TableSchema> {
        self.table(table).map(|t| &t.schema)
    }
}

impl Default for Database {
    fn default() -> Self {
        Self::with_dict(SharedDict::new())
    }
}

impl Database {
    /// A database over its own private dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// A database interning into `dict` — the shared dictionary plane. The
    /// engine hands one dictionary to both backends at `empty()`/`load()`
    /// time so equal strings compare as equal symbols across stores.
    pub fn with_dict(dict: SharedDict) -> Self {
        Database {
            stats: StoreStats::new(dict.clone()),
            dict,
            slots: Vec::new(),
            by_name: FxHashMap::default(),
            text_parses: AtomicUsize::new(0),
            pool: Pool::default(),
            row: Vec::new(),
            perms: Default::default(),
        }
    }

    pub fn dict(&self) -> &SharedDict {
        &self.dict
    }

    /// The worker pool query execution parallelizes on (scan filtering and
    /// hash-join probes). Defaults to `RAPTOR_THREADS` / available
    /// parallelism; see [`Database::set_threads`].
    pub fn pool(&self) -> Pool {
        self.pool
    }

    /// Pins the query-execution worker count (1 ⇒ strictly sequential).
    pub fn set_threads(&mut self, threads: usize) {
        self.pool = Pool::with_threads(threads);
    }

    /// Re-segments every table to `rows`-row segments, rebuilding zone maps
    /// in one pass. Cell storage is capacity-independent (whole-table
    /// columnar vectors), so this is cheap and callable at any time —
    /// results are byte-identical at every capacity, only scan granularity
    /// (and [`ExecStats`] segment counters) changes.
    pub fn set_segment_rows(&mut self, rows: usize) {
        for s in &mut self.slots {
            s.table.set_segment_rows(rows);
        }
    }

    pub fn table(&self, name: &str) -> Option<&Table> {
        self.by_name.get(name).map(|&ti| &self.slots[ti].table)
    }

    fn table_ord(&self, table: &str) -> Result<usize> {
        self.by_name
            .get(table)
            .copied()
            .ok_or_else(|| Error::storage(format!("unknown table `{table}`")))
    }

    /// The index slots of `table.col` (each `None` until created).
    pub(crate) fn indexes(&self, table: &str, col: &str) -> Option<&ColumnIndexes> {
        let slot = &self.slots[*self.by_name.get(table)?];
        Some(&slot.indexes[slot.table.schema.column_index(col)?])
    }

    /// Creates an empty table.
    pub fn create_table(&mut self, schema: TableSchema) -> Result<()> {
        if self.by_name.contains_key(&schema.name) {
            return Err(Error::storage(format!("table `{}` already exists", schema.name)));
        }
        let stats_ord = self.stats.table_ord(&schema.name);
        let ts = self.stats.table_at(stats_ord);
        let col = |name| schema.column_index(name);
        let edge = (col("subject").zip(col("object"))).filter(|_| schema.name == "events");
        self.by_name.insert(schema.name.clone(), self.slots.len());
        self.slots.push(Slot {
            indexes: schema.columns.iter().map(|_| ColumnIndexes::default()).collect(),
            stats_ord,
            stats_cols: schema.columns.iter().map(|c| ts.column_ord(&c.name)).collect(),
            node: EntityClass::ALL
                .into_iter()
                .find(|c| c.table_name() == schema.name)
                .zip(col("id")),
            edge: edge.map(|(s, o)| (s, o, col("optype"))),
            table: Table::new(schema),
        });
        Ok(())
    }

    /// The slot and column ordinal an index on `table.col` lives at.
    fn index_site(&mut self, table: &str, col: &str) -> Result<(&mut Slot, usize)> {
        let ti = self.table_ord(table)?;
        let slot = &mut self.slots[ti];
        let ci = slot.table.schema.require_column(col)?;
        Ok((slot, ci))
    }

    /// Creates a hash (equality) index. Rows already present are indexed
    /// (one pass down the column vector).
    pub fn create_hash_index(&mut self, table: &str, col: &str) -> Result<()> {
        let (slot, ci) = self.index_site(table, col)?;
        let mut idx = HashIndex::default();
        for rid in 0..slot.table.len() as u32 {
            idx.insert(slot.table.cell(rid, ci), rid);
        }
        slot.indexes[ci].hash = Some(idx);
        Ok(())
    }

    /// Creates a B-tree (range) index over an integer/time column.
    pub fn create_btree_index(&mut self, table: &str, col: &str) -> Result<()> {
        let (slot, ci) = self.index_site(table, col)?;
        let mut idx = BTreeIndex::default();
        for rid in 0..slot.table.len() as u32 {
            if let Value::Int(k) = slot.table.cell(rid, ci) {
                idx.insert(k, rid);
            }
        }
        slot.indexes[ci].btree = Some(idx);
        Ok(())
    }

    /// Creates a trigram index over a string column (used together with a
    /// hash index on the same column to accelerate `LIKE '%lit%'`).
    pub fn create_trigram_index(&mut self, table: &str, col: &str) -> Result<()> {
        let dict = self.dict.clone();
        let (slot, ci) = self.index_site(table, col)?;
        let mut idx = TrigramIndex::default();
        for rid in 0..slot.table.len() as u32 {
            if let Value::Str(s) = slot.table.cell(rid, ci) {
                idx.add_sym(s, &dict);
            }
        }
        slot.indexes[ci].trigram = Some(idx);
        Ok(())
    }

    /// Inserts one row, maintaining all indexes on the table.
    pub fn insert(&mut self, table: &str, row: &[Ins<'_>]) -> Result<()> {
        let ti = self.table_ord(table)?;
        self.row.clear();
        self.row.extend(row.iter().map(|v| match v {
            Ins::Int(i) => Value::Int(*i),
            Ins::Str(s) => Value::Str(self.dict.intern(s)),
            Ins::Null => Value::Null,
        }));
        self.append(ti)
    }

    /// Appends one `MutableBackend` record: `pinned` columns first, the rest
    /// looked up in `fields` by attribute name (absent attributes insert
    /// NULL, unknown fields are ignored, the first of a repeated name wins).
    pub(crate) fn append_record(
        &mut self,
        shape: usize,
        table: &str,
        pinned: &[Field<'_>],
        fields: &[Field<'_>],
    ) -> Result<()> {
        let cached = self.perms[shape]
            .as_ref()
            .is_some_and(|p| p.names.iter().map(String::as_str).eq(fields.iter().map(|f| f.0)));
        if !cached {
            let ti = self.table_ord(table)?;
            let supplied = || pinned.iter().chain(fields).map(|f| f.0);
            let columns = &self.slots[ti].table.schema.columns;
            let cols = columns.iter().map(|c| supplied().position(|n| n == c.name)).collect();
            let names = fields.iter().map(|f| f.0.to_string()).collect();
            self.perms[shape] = Some(FieldPerm { table: ti, names, cols });
        }
        let perm = self.perms[shape].as_ref().expect("resolved above");
        self.row.clear();
        self.row.extend(perm.cols.iter().map(|src| match *src {
            None => Value::Null,
            Some(i) => match pinned.get(i).unwrap_or_else(|| &fields[i - pinned.len()]).1 {
                FieldValue::Int(i) => Value::Int(i),
                FieldValue::Str(s) => Value::Str(self.dict.intern(s)),
                FieldValue::Sym(s) => Value::Str(s),
            },
        }));
        self.append(perm.table)
    }

    /// The one appender: appends `self.row` to table `ti`, then maintains
    /// the data statistics (row/column counts, degree summaries, path
    /// catalog) and every index on the table. Every write path funnels
    /// through here, so bulk load, streaming ingest and raw inserts produce
    /// identical stores.
    fn append(&mut self, ti: usize) -> Result<()> {
        let (slot, row) = (&mut self.slots[ti], &self.row);
        let rid = slot.table.insert(row)?;
        let cells = slot.stats_cols.iter().copied().zip(row.iter().copied());
        self.stats.table_at(slot.stats_ord).record_row(cells);
        if let Some((class, Value::Int(id))) = slot.node.map(|(class, ci)| (class, row[ci])) {
            self.stats.record_node(class, id);
        }
        if let Some((s, o, optype)) = slot.edge {
            if let (Value::Int(s), Value::Int(o)) = (row[s], row[o]) {
                self.stats.record_edge(s, o, optype.and_then(|ci| row[ci].as_sym()));
            }
        }
        for (ix, &v) in slot.indexes.iter_mut().zip(row) {
            if let Some(idx) = &mut ix.hash {
                idx.insert(v, rid);
            }
            if let (Some(idx), Value::Int(k)) = (&mut ix.btree, v) {
                idx.insert(k, rid);
            }
            if let (Some(idx), Value::Str(s)) = (&mut ix.trigram, v) {
                idx.add_sym(s, &self.dict);
            }
        }
        Ok(())
    }

    /// Parses, plans and executes a SELECT.
    pub fn query(&self, sql: &str) -> Result<QueryResult> {
        self.text_parses.fetch_add(1, Ordering::Relaxed);
        let sel = parse_select(sql)?;
        let plan = plan_select(self, &sel)?;
        let (core, stats) = execute(self, &plan)?;
        Ok(QueryResult { columns: core.columns, cols: core.cols, stats, dict: self.dict.clone() })
    }

    /// How many SQL texts this database has parsed (the typed backend path
    /// keeps this flat).
    pub fn text_parse_count(&self) -> usize {
        self.text_parses.load(Ordering::Relaxed)
    }

    /// The incrementally-maintained data statistics — the system's one
    /// copy. The planner consults these for index selection; the engine's
    /// cost-based scheduler for event- and path-pattern ordering.
    pub fn store_stats(&self) -> &StoreStats {
        &self.stats
    }

    /// Convenience: runs a `SELECT COUNT(*) ...` and returns the count.
    pub fn query_count(&self, sql: &str) -> Result<i64> {
        let r = self.query(sql)?;
        r.cols
            .first()
            .filter(|c| !c.is_empty())
            .and_then(|c| c.get(0).as_int())
            .ok_or_else(|| Error::execution("query did not return a count"))
    }

    /// Total rows across all tables (for stats displays).
    pub fn total_rows(&self) -> usize {
        self.slots.iter().map(|s| s.table.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnDef, ColumnType};

    fn db_with_audit_shape() -> Database {
        let mut db = Database::new();
        db.create_table(TableSchema::new(
            "processes",
            vec![
                ColumnDef::new("id", ColumnType::Int),
                ColumnDef::new("pid", ColumnType::Int),
                ColumnDef::new("exename", ColumnType::Str),
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
                ColumnDef::new("starttime", ColumnType::Time),
            ],
        ))
        .unwrap();
        // Entities.
        db.insert("processes", &[Ins::Int(0), Ins::Int(100), Ins::Str("/bin/tar")]).unwrap();
        db.insert("processes", &[Ins::Int(1), Ins::Int(101), Ins::Str("/bin/bzip2")]).unwrap();
        db.insert("processes", &[Ins::Int(2), Ins::Int(102), Ins::Str("/usr/bin/curl")]).unwrap();
        db.insert("files", &[Ins::Int(3), Ins::Str("/etc/passwd")]).unwrap();
        db.insert("files", &[Ins::Int(4), Ins::Str("/tmp/upload.tar")]).unwrap();
        // tar reads /etc/passwd, writes /tmp/upload.tar; bzip2 reads it.
        db.insert(
            "events",
            &[Ins::Int(0), Ins::Int(0), Ins::Int(3), Ins::Str("read"), Ins::Int(100)],
        )
        .unwrap();
        db.insert(
            "events",
            &[Ins::Int(1), Ins::Int(0), Ins::Int(4), Ins::Str("write"), Ins::Int(200)],
        )
        .unwrap();
        db.insert(
            "events",
            &[Ins::Int(2), Ins::Int(1), Ins::Int(4), Ins::Str("read"), Ins::Int(300)],
        )
        .unwrap();
        db
    }

    #[test]
    fn single_table_filter() {
        let db = db_with_audit_shape();
        let r = db.query("SELECT exename FROM processes WHERE exename LIKE '%tar%'").unwrap();
        assert_eq!(r.n_rows(), 1);
        assert_eq!(r.rendered_rows()[0][0], "/bin/tar");
    }

    #[test]
    fn three_way_join_event_pattern() {
        let db = db_with_audit_shape();
        let r = db
            .query(
                "SELECT p.exename, f.name FROM processes p, events e, files f \
                 WHERE e.subject = p.id AND e.object = f.id AND e.optype = 'read' \
                 AND p.exename LIKE '%/bin/tar%'",
            )
            .unwrap();
        assert_eq!(
            r.rendered_rows(),
            vec![vec!["/bin/tar".to_string(), "/etc/passwd".to_string()]]
        );
    }

    #[test]
    fn temporal_residual_between_event_copies() {
        let db = db_with_audit_shape();
        // tar's read happens before tar's write: self-join on events.
        let r = db
            .query(
                "SELECT e1.id, e2.id FROM events e1, events e2 \
                 WHERE e1.subject = e2.subject AND e1.optype = 'read' \
                 AND e2.optype = 'write' AND e1.starttime < e2.starttime",
            )
            .unwrap();
        assert_eq!(r.n_rows(), 1);
        assert_eq!(r.row(0)[0], Value::Int(0));
        assert_eq!(r.row(0)[1], Value::Int(1));
    }

    #[test]
    fn distinct_order_limit() {
        let db = db_with_audit_shape();
        let r = db.query("SELECT DISTINCT optype FROM events ORDER BY optype LIMIT 2").unwrap();
        assert_eq!(r.rendered_rows(), vec![vec!["read".to_string()], vec!["write".to_string()]]);
    }

    /// Pins the satellite contract on `Value` ordering: symbols order by
    /// dictionary *content*, never by handle id — so ORDER BY (and any
    /// `sorted_rows()`-style consumer) cannot silently change with interner
    /// insertion order.
    #[test]
    fn order_by_is_interner_insertion_order_independent() {
        let mut db = Database::new();
        db.create_table(TableSchema::new(
            "t",
            vec![ColumnDef::new("id", ColumnType::Int), ColumnDef::new("name", ColumnType::Str)],
        ))
        .unwrap();
        // Insert in *reverse* lexicographic order: handle ids invert string
        // order by construction.
        for (id, name) in [(0, "zeta"), (1, "mid"), (2, "alpha")] {
            db.insert("t", &[Ins::Int(id), Ins::Str(name)]).unwrap();
        }
        let zeta = db.dict().get("zeta").unwrap();
        let alpha = db.dict().get("alpha").unwrap();
        assert!(zeta < alpha, "handles inverted by construction");
        let r = db.query("SELECT name FROM t ORDER BY name").unwrap();
        assert_eq!(r.rendered_rows(), vec![vec!["alpha"], vec!["mid"], vec!["zeta"]]);
    }

    #[test]
    fn count_star() {
        let db = db_with_audit_shape();
        assert_eq!(db.query_count("SELECT COUNT(*) FROM events").unwrap(), 3);
        assert_eq!(db.query_count("SELECT COUNT(*) FROM events WHERE optype = 'read'").unwrap(), 2);
    }

    #[test]
    fn indexes_accelerate_without_changing_results() {
        let mut db = db_with_audit_shape();
        let slow = db.query("SELECT id FROM events WHERE optype = 'read'").unwrap();
        assert_eq!(slow.stats.full_scans, 1);
        db.create_hash_index("events", "optype").unwrap();
        let fast = db.query("SELECT id FROM events WHERE optype = 'read'").unwrap();
        assert_eq!(fast.stats.index_scans, 1);
        assert_eq!(slow.rows(), fast.rows());
    }

    #[test]
    fn trigram_like_acceleration() {
        let mut db = db_with_audit_shape();
        db.create_hash_index("processes", "exename").unwrap();
        db.create_trigram_index("processes", "exename").unwrap();
        let r = db.query("SELECT id FROM processes WHERE exename LIKE '%curl%'").unwrap();
        assert_eq!(r.stats.index_scans, 1);
        assert_eq!(r.rows(), vec![vec![Value::Int(2)]]);
    }

    #[test]
    fn btree_range_acceleration() {
        let mut db = db_with_audit_shape();
        db.create_btree_index("events", "starttime").unwrap();
        let r = db.query("SELECT id FROM events WHERE starttime >= 200").unwrap();
        assert_eq!(r.stats.index_scans, 1);
        assert_eq!(r.n_rows(), 2);
    }

    #[test]
    fn in_list_filter() {
        let db = db_with_audit_shape();
        let r = db.query("SELECT exename FROM processes WHERE id IN (0, 2)").unwrap();
        assert_eq!(r.n_rows(), 2);
        let r = db
            .query("SELECT exename FROM processes WHERE exename IN ('/bin/tar', 'missing')")
            .unwrap();
        assert_eq!(r.n_rows(), 1);
    }

    #[test]
    fn unknown_string_literal_matches_nothing() {
        let db = db_with_audit_shape();
        let r = db.query("SELECT id FROM processes WHERE exename = '/bin/nonexistent'").unwrap();
        assert_eq!(r.n_rows(), 0);
        // ...but != matches everything.
        let r = db.query("SELECT id FROM processes WHERE exename != '/bin/nonexistent'").unwrap();
        assert_eq!(r.n_rows(), 3);
    }

    #[test]
    fn or_and_not_combinations() {
        let db = db_with_audit_shape();
        let r = db
            .query(
                "SELECT id FROM events WHERE optype = 'write' OR (optype = 'read' AND starttime >= 300)",
            )
            .unwrap();
        assert_eq!(r.n_rows(), 2);
        let r = db.query("SELECT id FROM events WHERE NOT optype = 'read'").unwrap();
        assert_eq!(r.n_rows(), 1);
        let r = db.query("SELECT id FROM events WHERE optype NOT IN ('read')").unwrap();
        assert_eq!(r.n_rows(), 1);
    }

    #[test]
    fn cartesian_join_without_equi_key() {
        let db = db_with_audit_shape();
        let r = db.query("SELECT p.id, f.id FROM processes p, files f").unwrap();
        assert_eq!(r.n_rows(), 6);
    }

    #[test]
    fn ddl_errors() {
        let mut db = db_with_audit_shape();
        assert!(db
            .create_table(TableSchema::new("events", vec![]))
            .unwrap_err()
            .to_string()
            .contains("already exists"));
        assert!(db.create_hash_index("nope", "x").is_err());
        assert!(db.create_hash_index("events", "nope").is_err());
        assert!(db.insert("nope", &[]).is_err());
        assert!(db.insert("files", &[Ins::Int(0)]).is_err());
    }
}
