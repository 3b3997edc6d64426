//! Columnar table storage.
//!
//! Each table stores one typed vector per column — `Vec<i64>` for
//! `Int`/`Time` columns, `Vec<Sym>` (dictionary handles) for `Str` columns —
//! plus a per-column null bitmap. Rows are append-only (audit stores never
//! update or delete) and a row id is its ordinal, so the columns stay dense
//! and a full scan is one mask loop over contiguous slices
//! (`exec::range_select`); everything narrower goes through an index.

use raptor_common::error::{Error, Result};
use raptor_common::intern::Sym;

use crate::schema::{ColumnType, TableSchema};
use crate::value::Value;

/// Row id inside one table.
pub type RowId = u32;

/// The typed cell storage of one column.
#[derive(Clone, Debug)]
enum ColumnData {
    /// `Int`/`Time` columns. NULL rows hold `0`; consult the null bitmap.
    Int(Vec<i64>),
    /// `Str` columns as dictionary handles. NULL rows hold `Sym(0)`.
    Str(Vec<Sym>),
}

#[derive(Clone, Debug)]
struct Column {
    data: ColumnData,
    /// Per-row null flags (`true` = NULL).
    nulls: Vec<bool>,
    /// Any NULL anywhere in the column — lets gathers skip the per-row
    /// null check entirely on fully-dense columns.
    has_nulls: bool,
}

/// Append-only columnar table.
#[derive(Debug)]
pub struct Table {
    pub schema: TableSchema,
    len: usize,
    cols: Vec<Column>,
}

impl Table {
    pub fn new(schema: TableSchema) -> Self {
        let cols = schema
            .columns
            .iter()
            .map(|c| Column {
                data: match c.ty {
                    ColumnType::Int | ColumnType::Time => ColumnData::Int(Vec::new()),
                    ColumnType::Str => ColumnData::Str(Vec::new()),
                },
                nulls: Vec::new(),
                has_nulls: false,
            })
            .collect();
        Table { schema, len: 0, cols }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Is `col` stored as integers (`Int`/`Time`)?
    #[inline]
    pub fn col_is_int(&self, col: usize) -> bool {
        matches!(self.cols[col].data, ColumnData::Int(_))
    }

    /// The contiguous integer cells of an `Int`/`Time` column (NULL slots
    /// hold `0` — pair with [`Table::null_flags`]).
    #[inline]
    pub fn int_cells(&self, col: usize) -> Option<&[i64]> {
        match &self.cols[col].data {
            ColumnData::Int(xs) => Some(xs),
            ColumnData::Str(_) => None,
        }
    }

    /// The contiguous dictionary handles of a `Str` column (NULL slots hold
    /// a sentinel — pair with [`Table::null_flags`]).
    #[inline]
    pub fn sym_cells(&self, col: usize) -> Option<&[Sym]> {
        match &self.cols[col].data {
            ColumnData::Str(xs) => Some(xs),
            ColumnData::Int(_) => None,
        }
    }

    /// Per-row null flags of `col`.
    #[inline]
    pub fn null_flags(&self, col: usize) -> &[bool] {
        &self.cols[col].nulls
    }

    /// Does `col` contain any NULL cell?
    #[inline]
    pub fn col_has_nulls(&self, col: usize) -> bool {
        self.cols[col].has_nulls
    }

    /// Appends a row; returns its id. Cells must match the declared column
    /// types (`Null` is always accepted).
    pub fn insert(&mut self, row: &[Value]) -> Result<RowId> {
        if row.len() != self.schema.arity() {
            return Err(Error::storage(format!(
                "arity mismatch inserting into `{}`: got {}, want {}",
                self.schema.name,
                row.len(),
                self.schema.arity()
            )));
        }
        for (ci, v) in row.iter().enumerate() {
            let ok = matches!(
                (&self.cols[ci].data, v),
                (_, Value::Null)
                    | (ColumnData::Int(_), Value::Int(_))
                    | (ColumnData::Str(_), Value::Str(_))
            );
            if !ok {
                return Err(Error::storage(format!(
                    "type mismatch inserting into `{}.{}`: got {v:?}",
                    self.schema.name, self.schema.columns[ci].name
                )));
            }
        }
        let id = self.len as RowId;
        for (ci, v) in row.iter().enumerate() {
            let col = &mut self.cols[ci];
            match (&mut col.data, v) {
                (ColumnData::Int(xs), Value::Int(i)) => {
                    xs.push(*i);
                    col.nulls.push(false);
                }
                (ColumnData::Str(xs), Value::Str(s)) => {
                    xs.push(*s);
                    col.nulls.push(false);
                }
                (ColumnData::Int(xs), _) => {
                    xs.push(0);
                    col.nulls.push(true);
                    col.has_nulls = true;
                }
                (ColumnData::Str(xs), _) => {
                    xs.push(Sym(0));
                    col.nulls.push(true);
                    col.has_nulls = true;
                }
            }
        }
        self.len += 1;
        Ok(id)
    }

    /// One cell.
    #[inline]
    pub fn cell(&self, id: RowId, col: usize) -> Value {
        let c = &self.cols[col];
        let i = id as usize;
        if c.nulls[i] {
            return Value::Null;
        }
        match &c.data {
            ColumnData::Int(xs) => Value::Int(xs[i]),
            ColumnData::Str(xs) => Value::Str(xs[i]),
        }
    }

    /// Row `id` as detached values (edge/DDL paths; scans read columns).
    pub fn row_values(&self, id: RowId) -> Vec<Value> {
        (0..self.schema.arity()).map(|c| self.cell(id, c)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnDef, ColumnType};

    fn schema() -> TableSchema {
        TableSchema::new(
            "t",
            vec![ColumnDef::new("a", ColumnType::Int), ColumnDef::new("b", ColumnType::Int)],
        )
    }

    #[test]
    fn insert_and_read() {
        let mut t = Table::new(schema());
        let r0 = t.insert(&[Value::Int(1), Value::Int(2)]).unwrap();
        let r1 = t.insert(&[Value::Int(3), Value::Int(4)]).unwrap();
        assert_eq!((r0, r1), (0, 1));
        assert_eq!(t.len(), 2);
        assert_eq!(t.row_values(1), vec![Value::Int(3), Value::Int(4)]);
        assert_eq!(t.cell(0, 1), Value::Int(2));
    }

    #[test]
    fn arity_and_types_checked() {
        let mut t = Table::new(schema());
        assert!(t.insert(&[Value::Int(1)]).is_err());
        let d = raptor_common::intern::SharedDict::new();
        assert!(t.insert(&[Value::Str(d.intern("x")), Value::Int(1)]).is_err());
        // NULL fits any column.
        t.insert(&[Value::Null, Value::Int(1)]).unwrap();
        assert_eq!(t.cell(0, 0), Value::Null);
        assert!(t.col_has_nulls(0));
        assert!(!t.col_has_nulls(1));
    }
}
