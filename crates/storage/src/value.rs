//! Typed values and columnar result batches, keyed on the shared
//! dictionary plane.
//!
//! Strings never cross the engine as heap `String`s: a [`Value::Str`] holds
//! a [`Sym`] into the one [`SharedDict`] both storage backends intern into,
//! so equality (joins, DISTINCT, streaming multiset diffs) is an integer
//! compare and rendering to display strings happens exactly once, at the
//! edge ([`ResultBatch::rendered_rows`] via `ResultTable::from_batch`).

use raptor_common::hash::{FxHashMap, FxHashSet};
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

    /// Appends a value, widening to `Mixed` when it does not fit the
    /// column's type.
    fn push(&mut self, v: Value) {
        match (&mut *self, v) {
            (ValueColumn::Int(c), Value::Int(i)) => c.push(i),
            (ValueColumn::Str(c), Value::Str(s)) => c.push(s),
            (ValueColumn::Mixed(c), v) => c.push(v),
            _ => {
                let mut mixed: Vec<Value> = (0..self.len()).map(|r| self.get(r)).collect();
                mixed.push(v);
                *self = ValueColumn::Mixed(mixed);
            }
        }
    }

    /// The cells at `rows`, in that order, in a column of the same type.
    fn select(&self, rows: &[usize]) -> ValueColumn {
        match self {
            ValueColumn::Int(v) => ValueColumn::Int(rows.iter().map(|&r| v[r]).collect()),
            ValueColumn::Str(v) => ValueColumn::Str(rows.iter().map(|&r| v[r]).collect()),
            ValueColumn::Mixed(v) => ValueColumn::Mixed(rows.iter().map(|&r| v[r]).collect()),
        }
    }

    /// Appends `other`'s cells: an empty column takes `other`'s type, and
    /// cells of another type widen this column to `Mixed`.
    fn append(&mut self, other: &ValueColumn) {
        match (&mut *self, other) {
            (c, o) if c.is_empty() => *c = o.clone(),
            (ValueColumn::Int(c), ValueColumn::Int(o)) => c.extend_from_slice(o),
            (ValueColumn::Str(c), ValueColumn::Str(o)) => c.extend_from_slice(o),
            (c, o) => (0..o.len()).for_each(|r| c.push(o.get(r))),
        }
    }
}

/// The densest column for a sequence of values: `Int` when every value is
/// an integer (an empty column too), `Str` when every value is a string,
/// `Mixed` otherwise.
impl FromIterator<Value> for ValueColumn {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Self {
        let mut iter = iter.into_iter();
        let cap = iter.size_hint().0;
        let Some(first) = iter.next() else { return ValueColumn::Int(Vec::new()) };
        let mut col = match first {
            Value::Int(_) => ValueColumn::Int(Vec::with_capacity(cap)),
            Value::Str(_) => ValueColumn::Str(Vec::with_capacity(cap)),
            Value::Null => ValueColumn::Mixed(Vec::with_capacity(cap)),
        };
        col.push(first);
        for v in iter {
            col.push(v);
        }
        col
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

    /// A batch of `columns` with no rows.
    pub fn empty(columns: Vec<String>, dict: SharedDict) -> Self {
        let cols = columns.iter().map(|_| ValueColumn::Int(Vec::new())).collect();
        ResultBatch { columns, cols, dict }
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
        self.cols
            .iter()
            .map(|c| match c {
                ValueColumn::Int(_) => 0,
                ValueColumn::Str(v) => v.len(),
                ValueColumn::Mixed(v) => v.iter().filter(|x| matches!(x, Value::Str(_))).count(),
            })
            .sum()
    }

    /// Keeps the first occurrence of every distinct row, in row order
    /// (DISTINCT). Rows hash by index over the columns; no row is copied
    /// out of them.
    pub fn dedup_rows(&mut self) {
        let n = self.n_rows();
        let mut seen: FxHashSet<RowKey<'_>> =
            FxHashSet::with_capacity_and_hasher(n, Default::default());
        let keep: Vec<usize> =
            (0..n).filter(|&row| seen.insert(RowKey { cols: &self.cols, row })).collect();
        drop(seen);
        if keep.len() < n {
            // Every value of a column survives in some kept row, so each
            // column keeps its type.
            *self = self.select(&keep);
        }
    }

    /// The rows of this batch that `other` does not account for, as a
    /// multiset: a row that occurs k times here and j times in `other`
    /// contributes its last k − j occurrences. Row indices, ascending.
    pub fn rows_not_in(&self, other: &ResultBatch) -> Vec<usize> {
        debug_assert_eq!(self.n_cols(), other.n_cols(), "column arity mismatch");
        let mut budget: FxHashMap<RowKey<'_>, usize> =
            FxHashMap::with_capacity_and_hasher(other.n_rows(), Default::default());
        for row in 0..other.n_rows() {
            *budget.entry(RowKey { cols: &other.cols, row }).or_insert(0) += 1;
        }
        (0..self.n_rows())
            .filter(|&row| match budget.get_mut(&RowKey { cols: &self.cols, row }) {
                Some(left) if *left > 0 => {
                    *left -= 1;
                    false
                }
                _ => true,
            })
            .collect()
    }

    /// The rows at `rows`, in that order; each column keeps its type.
    pub fn select(&self, rows: &[usize]) -> ResultBatch {
        let cols = self.cols.iter().map(|c| c.select(rows)).collect();
        ResultBatch { columns: self.columns.clone(), cols, dict: self.dict.clone() }
    }

    /// Keeps the first `n` rows.
    pub fn truncate(&mut self, n: usize) {
        if n < self.n_rows() {
            *self = self.select(&(0..n).collect::<Vec<_>>());
        }
    }

    /// Appends `other`'s rows after this batch's. A column that is still
    /// empty takes the type of the one appended to it; two columns of
    /// different types widen to `Mixed`.
    pub fn append(&mut self, other: &ResultBatch) {
        debug_assert_eq!(self.n_cols(), other.n_cols(), "column arity mismatch");
        for (c, o) in self.cols.iter_mut().zip(&other.cols) {
            c.append(o);
        }
    }
}

/// One row of a batch's columns, hashed and compared by value through its
/// index: DISTINCT and the multiset difference key on it, so no row is
/// copied out of its columns. Keys of two batches of one arity compare.
struct RowKey<'a> {
    cols: &'a [ValueColumn],
    row: usize,
}

impl std::hash::Hash for RowKey<'_> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        for c in self.cols {
            c.get(self.row).hash(state);
        }
    }
}

impl PartialEq for RowKey<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.cols.iter().zip(other.cols).all(|(a, b)| a.get(self.row) == b.get(other.row))
    }
}

impl Eq for RowKey<'_> {}

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

    /// Appends `other`'s matches after this one's.
    pub fn append(&mut self, other: &PatternMatches) {
        self.subj.extend_from_slice(&other.subj);
        self.obj.extend_from_slice(&other.obj);
        self.evt.extend_from_slice(&other.evt);
        self.start.extend_from_slice(&other.start);
        self.end.extend_from_slice(&other.end);
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
        let ints = vec![Value::Int(1), Value::Int(2)].into_iter().collect::<ValueColumn>();
        assert!(matches!(ints, ValueColumn::Int(_)));
        let strs = vec![Value::Str(d.intern("a")), Value::Str(d.intern("b"))]
            .into_iter()
            .collect::<ValueColumn>();
        assert!(matches!(strs, ValueColumn::Str(_)));
        let mixed = vec![Value::Int(1), Value::Null].into_iter().collect::<ValueColumn>();
        assert!(matches!(mixed, ValueColumn::Mixed(_)));
        assert_eq!(mixed.render(1, &d), "");
        assert_eq!(mixed.get(0), Value::Int(1));
        assert!(matches!(Vec::new().into_iter().collect::<ValueColumn>(), ValueColumn::Int(_)));
        // A value of another type widens the column to `Mixed` in place.
        let mut col = vec![Value::Str(d.intern("a"))].into_iter().collect::<ValueColumn>();
        col.push(Value::Int(7));
        assert_eq!(col, ValueColumn::Mixed(vec![Value::Str(d.intern("a")), Value::Int(7)]));
        assert_eq!(col.select(&[1, 1, 0]).get(1), Value::Int(7));
    }

    /// A batch of columns named `c0, c1, …` from row-major values.
    fn batch(rows: &[&[Value]], d: &SharedDict) -> ResultBatch {
        let arity = rows.first().map_or(0, |r| r.len());
        ResultBatch::new(
            (0..arity).map(|c| format!("c{c}")).collect(),
            (0..arity).map(|c| rows.iter().map(|r| r[c]).collect()).collect(),
            d.clone(),
        )
    }

    #[test]
    fn str_cells_count_by_column() {
        let d = SharedDict::new();
        let s = Value::Str(d.intern("x"));
        let b = batch(&[&[s, Value::Int(1), s], &[s, Value::Int(2), Value::Null]], &d);
        assert_eq!(b.str_cells(), 3, "two in the Str column, one in the Mixed one");
    }

    #[test]
    fn dedup_rows_keeps_first_occurrences_in_order() {
        let d = SharedDict::new();
        let (a, z) = (Value::Str(d.intern("a")), Value::Str(d.intern("z")));
        let rows: [&[Value]; 5] = [
            &[z, Value::Int(1)],
            &[a, Value::Int(1)],
            &[z, Value::Int(1)],
            &[a, Value::Int(2)],
            &[a, Value::Int(1)],
        ];
        let mut b = batch(&rows, &d);
        b.dedup_rows();
        assert_eq!(b, batch(&[rows[0], rows[1], rows[3]], &d));
    }

    #[test]
    fn batch_roundtrip_row_major() {
        let d = SharedDict::new();
        let rows: [&[Value]; 2] = [
            &[Value::Str(d.intern("/bin/tar")), Value::Int(3)],
            &[Value::Str(d.intern("/usr/bin/curl")), Value::Int(9)],
        ];
        let b = batch(&rows, &d);
        assert_eq!(b.n_rows(), 2);
        assert_eq!(b.n_cols(), 2);
        assert_eq!(b.row(1), rows[1]);
        assert_eq!(b.rendered_rows(), vec![vec!["/bin/tar", "3"], vec!["/usr/bin/curl", "9"]]);
        assert_eq!(b.str_cells(), 2, "one string column × two rows");
    }

    #[test]
    fn select_truncate_append_and_multiset_difference() {
        let d = SharedDict::new();
        let (a, z) = (Value::Str(d.intern("a")), Value::Str(d.intern("z")));
        let b = batch(&[&[a, Value::Int(1)], &[z, Value::Int(2)], &[a, Value::Int(3)]], &d);
        assert_eq!(b.select(&[2, 0, 2]), batch(&[b.row(2).as_slice(), &b.row(0), &b.row(2)], &d));
        let mut head = b.clone();
        head.truncate(1);
        assert_eq!(head, b.select(&[0]));
        // An empty column takes the appended column's type, an empty batch
        // appended changes nothing, and a type mismatch widens to `Mixed`.
        let mut acc = ResultBatch::empty(b.columns.clone(), d.clone());
        acc.append(&b);
        acc.append(&ResultBatch::empty(b.columns.clone(), d.clone()));
        assert_eq!(acc, b);
        acc.append(&batch(&[&[Value::Int(9), Value::Int(4)]], &d));
        assert!(matches!(
            (&acc.cols[0], &acc.cols[1]),
            (ValueColumn::Mixed(_), ValueColumn::Int(_))
        ));
        assert_eq!(acc.row(3), vec![Value::Int(9), Value::Int(4)]);

        // `a` three times here and once there: its last two occurrences;
        // `z` twice in each: none; `Null`, absent there: kept. Cells
        // compare by value, whatever their columns' types.
        let full = batch(&[&[a], &[z], &[a], &[a], &[z], &[Value::Null]], &d);
        assert_eq!(full.rows_not_in(&batch(&[&[z], &[a], &[z]], &d)), vec![2, 3, 5]);
        assert_eq!(full.rows_not_in(&batch(&[&[Value::Null], &[a]], &d)), vec![1, 2, 3, 4]);
        assert_eq!(full.rows_not_in(&full), Vec::<usize>::new());
        let none = ResultBatch::empty(full.columns.clone(), d);
        assert_eq!(full.rows_not_in(&none), (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn matches_push() {
        let mut m = PatternMatches::with_capacity(2, true);
        m.push_event(1, 2, 10, 100, 200);
        assert_eq!(m.len(), 1);
        let mut p = PatternMatches::with_capacity(1, false);
        p.push_pair(5, 6);
        assert_eq!((p.subj[0], p.obj[0], p.evt[0]), (5, 6, -1));
        m.append(&p);
        assert_eq!((m.len(), m.evt.clone(), m.start.clone()), (2, vec![10, -1], vec![100, 0]));
    }
}
