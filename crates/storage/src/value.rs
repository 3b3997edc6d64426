//! Typed values and columnar result batches, keyed on the shared
//! dictionary plane.
//!
//! Strings never cross the engine as heap `String`s: a [`Value::Str`] holds
//! a [`Sym`] into the one [`SharedDict`] both storage backends intern into,
//! so equality (joins, DISTINCT, streaming multiset diffs) is an integer
//! compare and rendering to display strings happens exactly once, at the
//! edge ([`ResultBatch::rendered_rows`] via `ResultTable::from_batch`).

use raptor_common::intern::{SharedDict, Sym};

/// A detached typed value — the engine's currency across the typed store
/// calls. 16 bytes, `Copy`; strings are handles
/// into the shared dictionary.
///
/// Deliberately **no** derived `Ord`: [`Sym`] ordering is insertion order,
/// so value ordering must resolve through the dictionary
/// ([`Value::cmp_with`]) — otherwise `sorted_rows()` ordering could change
/// with interner insertion order.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Value {
    /// NULL sorts first under [`Value::cmp_with`] so ordering matches the
    /// string rendering of empty cells.
    Null,
    Int(i64),
    Str(Sym),
}

impl Value {
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    pub fn as_sym(&self) -> Option<Sym> {
        match self {
            Value::Str(s) => Some(*s),
            _ => None,
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Renders for display; NULL renders empty, like both stores always did.
    pub fn render(&self, dict: &SharedDict) -> String {
        match self {
            Value::Null => String::new(),
            Value::Int(i) => i.to_string(),
            Value::Str(s) => dict.resolve(*s).to_string(),
        }
    }

    /// Total ordering used by ORDER BY / range semantics: Null < Int < Str;
    /// strings order by dictionary *content*, never by handle id, so the
    /// ordering is independent of interner insertion order.
    pub fn cmp_with(&self, other: Value, dict: &SharedDict) -> std::cmp::Ordering {
        use std::cmp::Ordering::*;
        match (*self, other) {
            (Value::Null, Value::Null) => Equal,
            (Value::Null, _) => Less,
            (_, Value::Null) => Greater,
            (Value::Int(a), Value::Int(b)) => a.cmp(&b),
            (Value::Int(_), Value::Str(_)) => Less,
            (Value::Str(_), Value::Int(_)) => Greater,
            (Value::Str(a), Value::Str(b)) => {
                if a == b {
                    Equal
                } else {
                    dict.resolve(a).cmp(dict.resolve(b))
                }
            }
        }
    }
}

/// One column of a [`ResultBatch`]. Homogeneous columns store unboxed
/// vectors (`Str` is a vector of dictionary handles); `Mixed` is the escape
/// hatch for columns with NULLs or mixed types.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ValueColumn {
    Int(Vec<i64>),
    Str(Vec<Sym>),
    Mixed(Vec<Value>),
}

impl ValueColumn {
    pub fn len(&self) -> usize {
        match self {
            ValueColumn::Int(v) => v.len(),
            ValueColumn::Str(v) => v.len(),
            ValueColumn::Mixed(v) => v.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Value at `row` (copies the 16-byte cell; columns are the storage of
    /// record).
    pub fn get(&self, row: usize) -> Value {
        match self {
            ValueColumn::Int(v) => Value::Int(v[row]),
            ValueColumn::Str(v) => Value::Str(v[row]),
            ValueColumn::Mixed(v) => v[row],
        }
    }

    /// Renders the cell at `row` — the only place a column becomes a
    /// heap string.
    pub fn render(&self, row: usize, dict: &SharedDict) -> String {
        match self {
            ValueColumn::Int(v) => v[row].to_string(),
            ValueColumn::Str(v) => dict.resolve(v[row]).to_string(),
            ValueColumn::Mixed(v) => v[row].render(dict),
        }
    }

    /// Is the cell at `row` a string (i.e. rendered through the dictionary)?
    pub fn is_str(&self, row: usize) -> bool {
        match self {
            ValueColumn::Int(_) => false,
            ValueColumn::Str(_) => true,
            ValueColumn::Mixed(v) => matches!(v[row], Value::Str(_)),
        }
    }

    /// Builds the densest column representation for a vector of values.
    pub fn from_values(vals: Vec<Value>) -> ValueColumn {
        if vals.iter().all(|v| matches!(v, Value::Int(_))) {
            ValueColumn::Int(vals.iter().filter_map(Value::as_int).collect())
        } else if vals.iter().all(|v| matches!(v, Value::Str(_))) {
            ValueColumn::Str(vals.iter().filter_map(Value::as_sym).collect())
        } else {
            ValueColumn::Mixed(vals)
        }
    }
}

/// A columnar query result: named columns of typed values plus the handle
/// of the dictionary its symbols live in. This is the engine's internal
/// currency; conversion to display strings happens once, at the edge
/// (`rendered_rows`).
#[derive(Clone, Debug)]
pub struct ResultBatch {
    pub columns: Vec<String>,
    pub cols: Vec<ValueColumn>,
    /// The dictionary plane this batch's `Str` symbols resolve through.
    pub dict: SharedDict,
}

impl Default for ResultBatch {
    fn default() -> Self {
        ResultBatch { columns: Vec::new(), cols: Vec::new(), dict: SharedDict::new() }
    }
}

impl PartialEq for ResultBatch {
    /// Structural equality over columns and symbol-keyed cells. Only
    /// meaningful between batches of one dictionary plane (which is the
    /// only place batches ever meet); compare `rendered_rows()` otherwise.
    fn eq(&self, other: &Self) -> bool {
        self.columns == other.columns && self.cols == other.cols
    }
}

impl Eq for ResultBatch {}

impl ResultBatch {
    pub fn new(columns: Vec<String>, cols: Vec<ValueColumn>, dict: SharedDict) -> Self {
        debug_assert_eq!(columns.len(), cols.len(), "column arity mismatch");
        debug_assert!(cols.windows(2).all(|w| w[0].len() == w[1].len()), "ragged columns");
        ResultBatch { columns, cols, dict }
    }

    /// Builds a batch from row-major typed values.
    pub fn from_rows(columns: Vec<String>, rows: Vec<Vec<Value>>, dict: SharedDict) -> Self {
        let ncols = columns.len();
        let mut by_col: Vec<Vec<Value>> =
            (0..ncols).map(|_| Vec::with_capacity(rows.len())).collect();
        for row in rows {
            debug_assert_eq!(row.len(), ncols, "row arity mismatch");
            for (c, v) in row.into_iter().enumerate() {
                by_col[c].push(v);
            }
        }
        ResultBatch {
            columns,
            cols: by_col.into_iter().map(ValueColumn::from_values).collect(),
            dict,
        }
    }

    pub fn n_rows(&self) -> usize {
        self.cols.first().map_or(0, ValueColumn::len)
    }

    pub fn n_cols(&self) -> usize {
        self.columns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.n_rows() == 0
    }

    /// Row `i` as typed values.
    pub fn row(&self, i: usize) -> Vec<Value> {
        self.cols.iter().map(|c| c.get(i)).collect()
    }

    /// The one-and-only string rendering, for display and tests.
    pub fn rendered_rows(&self) -> Vec<Vec<String>> {
        (0..self.n_rows())
            .map(|i| self.cols.iter().map(|c| c.render(i, &self.dict)).collect())
            .collect()
    }

    /// How many cells of this batch are strings (i.e. will materialize a
    /// heap `String` when rendered). Feeds the `strings_materialized`
    /// edge-accounting counter.
    pub fn str_cells(&self) -> usize {
        (0..self.n_rows()).map(|i| self.cols.iter().filter(|c| c.is_str(i)).count()).sum()
    }
}

/// Typed matches for one scheduled pattern, struct-of-arrays. Patterns with
/// a bound final hop carry the event id and its timestamps; pure path
/// patterns (no final hop) set `has_event = false` and fill `evt`/`start`/
/// `end` with sentinels.
#[derive(Clone, Debug, Default)]
pub struct PatternMatches {
    pub subj: Vec<i64>,
    pub obj: Vec<i64>,
    pub evt: Vec<i64>,
    pub start: Vec<i64>,
    pub end: Vec<i64>,
    pub has_event: bool,
}

impl PatternMatches {
    pub fn with_capacity(n: usize, has_event: bool) -> Self {
        PatternMatches {
            subj: Vec::with_capacity(n),
            obj: Vec::with_capacity(n),
            evt: Vec::with_capacity(n),
            start: Vec::with_capacity(n),
            end: Vec::with_capacity(n),
            has_event,
        }
    }

    pub fn len(&self) -> usize {
        self.subj.len()
    }

    pub fn is_empty(&self) -> bool {
        self.subj.is_empty()
    }

    pub fn push_event(&mut self, subj: i64, obj: i64, evt: i64, start: i64, end: i64) {
        self.subj.push(subj);
        self.obj.push(obj);
        self.evt.push(evt);
        self.start.push(start);
        self.end.push(end);
    }

    pub fn push_pair(&mut self, subj: i64, obj: i64) {
        self.push_event(subj, obj, -1, 0, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_is_small_and_copy() {
        assert!(std::mem::size_of::<Value>() <= 16);
        let d = SharedDict::new();
        let v = Value::Str(d.intern("x"));
        let copied = v; // Copy
        assert_eq!(v, copied);
    }

    #[test]
    fn ordering_resolves_through_dictionary() {
        // Intern in *reverse* lexicographic order: handle ids disagree with
        // string order, so this pins that cmp_with never compares handles.
        let d = SharedDict::new();
        let b = Value::Str(d.intern("beta"));
        let a = Value::Str(d.intern("alpha"));
        assert!(a.as_sym().unwrap() > b.as_sym().unwrap(), "handles inverted by construction");
        assert_eq!(a.cmp_with(b, &d), std::cmp::Ordering::Less);
        assert_eq!(a.cmp_with(a, &d), std::cmp::Ordering::Equal);
        assert_eq!(Value::Null.cmp_with(a, &d), std::cmp::Ordering::Less);
        assert_eq!(Value::Int(5).cmp_with(Value::Int(3), &d), std::cmp::Ordering::Greater);
        assert_eq!(Value::Int(5).cmp_with(a, &d), std::cmp::Ordering::Less);
    }

    #[test]
    fn column_densification() {
        let d = SharedDict::new();
        let ints = ValueColumn::from_values(vec![Value::Int(1), Value::Int(2)]);
        assert!(matches!(ints, ValueColumn::Int(_)));
        let strs =
            ValueColumn::from_values(vec![Value::Str(d.intern("a")), Value::Str(d.intern("b"))]);
        assert!(matches!(strs, ValueColumn::Str(_)));
        assert!(strs.is_str(0));
        let mixed = ValueColumn::from_values(vec![Value::Int(1), Value::Null]);
        assert!(matches!(mixed, ValueColumn::Mixed(_)));
        assert_eq!(mixed.render(1, &d), "");
        assert_eq!(mixed.get(0), Value::Int(1));
        assert!(!mixed.is_str(0));
    }

    #[test]
    fn batch_roundtrip_row_major() {
        let d = SharedDict::new();
        let rows = vec![
            vec![Value::Str(d.intern("/bin/tar")), Value::Int(3)],
            vec![Value::Str(d.intern("/usr/bin/curl")), Value::Int(9)],
        ];
        let b = ResultBatch::from_rows(vec!["exe".into(), "n".into()], rows.clone(), d.clone());
        assert_eq!(b.n_rows(), 2);
        assert_eq!(b.n_cols(), 2);
        assert_eq!(b.row(1), rows[1]);
        assert_eq!(b.rendered_rows(), vec![vec!["/bin/tar", "3"], vec!["/usr/bin/curl", "9"]]);
        assert_eq!(b.str_cells(), 2, "one string column × two rows");
    }

    #[test]
    fn matches_push() {
        let mut m = PatternMatches::with_capacity(2, true);
        m.push_event(1, 2, 10, 100, 200);
        assert_eq!(m.len(), 1);
        let mut p = PatternMatches::with_capacity(1, false);
        p.push_pair(5, 6);
        assert_eq!((p.subj[0], p.obj[0], p.evt[0]), (5, 6, -1));
    }
}
