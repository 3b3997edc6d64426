//! Query execution.
//!
//! Two pipelines share the scan:
//!
//! * **SQL text** ([`execute`], behind [`Database::query`]: the GiantSql
//!   baseline and tests) — per-alias **scan** (access-path selection +
//!   vectorized filter) → left-deep **joins** in FROM order (hash join when
//!   an equi conjunct links the new alias to bound ones, nested-loop
//!   otherwise; residual conjuncts apply as soon as their aliases are
//!   bound) → projection → DISTINCT → ORDER BY → LIMIT.
//! * **Typed event patterns** (`match_event_rows`, behind
//!   `Database::match_event_pattern{,_rows}`) — a selection vector over
//!   `events` (a scan of the whole table, or one mask over a standing
//!   query's row range), then per selected row an `id` hash probe into
//!   each endpoint's table and its filter tested on that one row. No plan,
//!   no binder beyond the scan's own, no join.
//!
//! Scans pick an index access path per pushed-down conjunct: hash-index
//! point/IN lookups, B-tree ranges for integer comparisons, and for `LIKE`
//! one pattern test per distinct string of the column (narrowed by the
//! trigram index when the pattern has a literal run of ≥ 3 bytes), whose
//! rows come from the hash postings. Each path returns exactly the rows its
//! own conjunct selects. A one-conjunct predicate (an IOC seed) therefore
//! takes its path's rows as the answer; a predicate of several conjuncts
//! materializes the cheapest path and tests the full predicate on each of
//! its rows, so index choice is purely a performance decision.
//!
//! **Vectorized scans**: a pushed-down predicate is compiled once per scan
//! into a `ScanPred` — `IN` lists become hash sets, literals bind to
//! dictionary handles, type mismatches fold to constants — and a full scan
//! is one mask loop over the table's contiguous column slices
//! (`range_select` over `0..table.len()`), emitting an ascending
//! **selection vector** of row ids. Joins, projection and `ResultBatch`
//! construction consume selection vectors; rows are never materialized
//! inside the scan. Everything runs on the calling thread.

use raptor_common::error::{Error, Result};
use raptor_common::hash::{FxHashMap, FxHashSet};
use raptor_common::intern::{SharedDict, Sym};
use raptor_common::obs;

use crate::db::Database;
use crate::like::{containment_literal, like_match};
use crate::plan::QueryPlan;
use crate::sql::ast::{CmpOp, ColRef, Expr, Literal, Projection};
use crate::table::{RowId, Table};
use crate::value::Value;
use raptor_storage::ValueColumn;

/// Execution counters, surfaced for benchmarks and ablations.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Rows touched by scans (before residual filtering).
    pub rows_scanned: usize,
    /// Tuples materialized across all join steps.
    pub tuples_built: usize,
    /// Scans that used an index access path.
    pub index_scans: usize,
    /// Scans that fell back to a full table scan.
    pub full_scans: usize,
}

/// A bound column: (alias slot, column index).
#[derive(Clone, Copy, Debug)]
struct Slot {
    alias: usize,
    col: usize,
}

/// Expression with names resolved to slots; string literals are bound to
/// their dictionary handles so per-row equality is an integer compare.
#[derive(Clone, Debug)]
enum BExpr {
    CmpLit { slot: Slot, op: CmpOp, lit: BLit },
    CmpCol { left: Slot, op: CmpOp, right: Slot },
    Like { slot: Slot, pattern: String, negated: bool },
    InList { slot: Slot, set: Vec<BLit>, negated: bool },
    And(Box<BExpr>, Box<BExpr>),
    Or(Box<BExpr>, Box<BExpr>),
    Not(Box<BExpr>),
}

#[derive(Clone, Debug)]
enum BLit {
    Int(i64),
    /// An interned string literal: equality against a row cell is a handle
    /// compare; ordered comparisons resolve both sides. Typed requests
    /// arrive with the handle pre-bound (`Literal::Interned`), parsed text
    /// literals bind through one dictionary lookup here.
    Sym(Sym),
    /// A parsed string literal absent from the dictionary: no row can equal
    /// it; ordered comparisons fall back to the raw text.
    Raw(Box<str>),
}

struct Binder<'a> {
    /// alias → slot index
    slots: FxHashMap<&'a str, usize>,
    /// slot → table
    tables: &'a [&'a Table],
    dict: &'a SharedDict,
}

impl<'a> Binder<'a> {
    fn bind_col(&self, c: &ColRef) -> Result<Slot> {
        let q = c.qualifier.as_deref().ok_or_else(|| {
            Error::semantic(format!("internal: unresolved column `{}`", c.column))
        })?;
        let &alias =
            self.slots.get(q).ok_or_else(|| Error::semantic(format!("unknown alias `{q}`")))?;
        let col = self.tables[alias].schema.require_column(&c.column)?;
        Ok(Slot { alias, col })
    }

    fn bind_lit(&self, l: &Literal) -> BLit {
        match l {
            Literal::Int(i) => BLit::Int(*i),
            Literal::Str(s) => match self.dict.get(s) {
                Some(sym) => BLit::Sym(sym),
                None => BLit::Raw(s.as_str().into()),
            },
            Literal::Interned(sym) => BLit::Sym(*sym),
        }
    }

    fn bind(&self, e: &Expr) -> Result<BExpr> {
        Ok(match e {
            Expr::CmpLit { col, op, lit } => {
                BExpr::CmpLit { slot: self.bind_col(col)?, op: *op, lit: self.bind_lit(lit) }
            }
            Expr::CmpCol { left, op, right } => {
                BExpr::CmpCol { left: self.bind_col(left)?, op: *op, right: self.bind_col(right)? }
            }
            Expr::Like { col, pattern, negated } => BExpr::Like {
                slot: self.bind_col(col)?,
                pattern: pattern.clone(),
                negated: *negated,
            },
            Expr::InList { col, list, negated } => BExpr::InList {
                slot: self.bind_col(col)?,
                set: list.iter().map(|l| self.bind_lit(l)).collect(),
                negated: *negated,
            },
            Expr::And(a, b) => BExpr::And(Box::new(self.bind(a)?), Box::new(self.bind(b)?)),
            Expr::Or(a, b) => BExpr::Or(Box::new(self.bind(a)?), Box::new(self.bind(b)?)),
            Expr::Not(inner) => BExpr::Not(Box::new(self.bind(inner)?)),
        })
    }
}

fn cmp_values(v: Value, op: CmpOp, lit: &BLit, dict: &SharedDict) -> bool {
    use std::cmp::Ordering::*;
    let ord = match (v, lit) {
        (Value::Int(a), BLit::Int(b)) => a.cmp(b),
        (Value::Str(s), BLit::Sym(l)) => {
            // Fast path: equality is a dictionary-handle compare.
            if matches!(op, CmpOp::Eq | CmpOp::Ne) {
                let eq = s == *l;
                return if matches!(op, CmpOp::Eq) { eq } else { !eq };
            }
            dict.resolve(s).cmp(dict.resolve(*l))
        }
        (Value::Str(s), BLit::Raw(raw)) => {
            // Literal not in the dictionary ⇒ no row equals it.
            if matches!(op, CmpOp::Eq | CmpOp::Ne) {
                return matches!(op, CmpOp::Ne);
            }
            dict.resolve(s).cmp(raw.as_ref())
        }
        // Type mismatch or NULL: no comparison holds (SQL-ish semantics).
        _ => return false,
    };
    match op {
        CmpOp::Eq => ord == Equal,
        CmpOp::Ne => ord != Equal,
        CmpOp::Lt => ord == Less,
        CmpOp::Le => ord != Greater,
        CmpOp::Gt => ord == Greater,
        CmpOp::Ge => ord != Less,
    }
}

fn eval(e: &BExpr, tuple: &[RowId], tables: &[&Table], dict: &SharedDict) -> bool {
    match e {
        BExpr::CmpLit { slot, op, lit } => {
            let v = tables[slot.alias].cell(tuple[slot.alias], slot.col);
            cmp_values(v, *op, lit, dict)
        }
        BExpr::CmpCol { left, op, right } => {
            let a = tables[left.alias].cell(tuple[left.alias], left.col);
            let b = tables[right.alias].cell(tuple[right.alias], right.col);
            if a.is_null() || b.is_null() {
                return false;
            }
            let ord = a.cmp_with(b, dict);
            match op {
                CmpOp::Eq => ord == std::cmp::Ordering::Equal,
                CmpOp::Ne => ord != std::cmp::Ordering::Equal,
                CmpOp::Lt => ord == std::cmp::Ordering::Less,
                CmpOp::Le => ord != std::cmp::Ordering::Greater,
                CmpOp::Gt => ord == std::cmp::Ordering::Greater,
                CmpOp::Ge => ord != std::cmp::Ordering::Less,
            }
        }
        BExpr::Like { slot, pattern, negated } => {
            let v = tables[slot.alias].cell(tuple[slot.alias], slot.col);
            let m = match v {
                Value::Str(s) => like_match(pattern, dict.resolve(s)),
                _ => false,
            };
            m != *negated
        }
        BExpr::InList { slot, set, negated } => {
            let v = tables[slot.alias].cell(tuple[slot.alias], slot.col);
            let m = set.iter().any(|l| cmp_values(v, CmpOp::Eq, l, dict));
            m != *negated
        }
        BExpr::And(a, b) => eval(a, tuple, tables, dict) && eval(b, tuple, tables, dict),
        BExpr::Or(a, b) => eval(a, tuple, tables, dict) || eval(b, tuple, tables, dict),
        BExpr::Not(inner) => !eval(inner, tuple, tables, dict),
    }
}

fn ord_ok(ord: std::cmp::Ordering, op: CmpOp) -> bool {
    use std::cmp::Ordering::*;
    match op {
        CmpOp::Eq => ord == Equal,
        CmpOp::Ne => ord != Equal,
        CmpOp::Lt => ord == Less,
        CmpOp::Le => ord != Greater,
        CmpOp::Gt => ord == Greater,
        CmpOp::Ge => ord != Less,
    }
}

/// A pushed-down scan predicate compiled for vectorized evaluation over one
/// table's column slices. Compilation happens once per scan: `IN` lists
/// become hash sets (the per-row membership test is O(1) instead of a
/// linear literal sweep), string literals stay dictionary handles, and
/// shapes that can never match the column's declared type fold to
/// [`ScanPred::Const`]. Semantics are exactly those of the row-at-a-time
/// [`eval`] over a single-alias tuple — the equivalence suites pin this.
enum ScanPred {
    /// `Int`/`Time` column vs integer literal.
    CmpInt {
        col: usize,
        op: CmpOp,
        lit: i64,
    },
    /// `Str` column vs interned literal (equality is a handle compare;
    /// ordered ops resolve through the dictionary).
    CmpSym {
        col: usize,
        op: CmpOp,
        lit: Sym,
    },
    /// `Str` column ordered-compared against a dictionary-miss literal.
    CmpRaw {
        col: usize,
        op: CmpOp,
        raw: Box<str>,
    },
    /// Same-alias column/column compare.
    CmpCols {
        left: usize,
        op: CmpOp,
        right: usize,
    },
    /// Matches exactly the non-NULL cells (`!=` against a dictionary-miss
    /// literal: every present string differs from it).
    NotNull {
        col: usize,
    },
    Like {
        col: usize,
        pattern: String,
        negated: bool,
    },
    /// `Int`/`Time` column membership.
    InInts {
        col: usize,
        set: FxHashSet<i64>,
        negated: bool,
    },
    /// `Str` column membership over interned handles.
    InSyms {
        col: usize,
        set: FxHashSet<Sym>,
        negated: bool,
    },
    /// Decided at compile time (type mismatches, empty `IN` sets, equality
    /// against literals absent from the dictionary).
    Const(bool),
    And(Box<ScanPred>, Box<ScanPred>),
    Or(Box<ScanPred>, Box<ScanPred>),
    Not(Box<ScanPred>),
}

/// Compiles a bound single-alias predicate for `table`. `e` must only
/// reference alias slot 0 (the scan's own alias — guaranteed by predicate
/// pushdown).
fn compile_scan_pred(e: &BExpr, table: &Table) -> ScanPred {
    match e {
        BExpr::CmpLit { slot, op, lit } => {
            let col = slot.col;
            if table.col_is_int(col) {
                match lit {
                    BLit::Int(i) => ScanPred::CmpInt { col, op: *op, lit: *i },
                    // Type mismatch: no comparison holds (SQL-ish).
                    BLit::Sym(_) | BLit::Raw(_) => ScanPred::Const(false),
                }
            } else {
                match lit {
                    BLit::Sym(s) => ScanPred::CmpSym { col, op: *op, lit: *s },
                    BLit::Int(_) => ScanPred::Const(false),
                    BLit::Raw(raw) => match op {
                        // No row equals a literal absent from the dictionary.
                        CmpOp::Eq => ScanPred::Const(false),
                        // ...and every present string differs from it.
                        CmpOp::Ne => ScanPred::NotNull { col },
                        _ => ScanPred::CmpRaw { col, op: *op, raw: raw.clone() },
                    },
                }
            }
        }
        BExpr::CmpCol { left, op, right } => {
            ScanPred::CmpCols { left: left.col, op: *op, right: right.col }
        }
        BExpr::Like { slot, pattern, negated } => {
            if table.col_is_int(slot.col) {
                // A non-string cell never LIKE-matches; NOT LIKE matches all.
                ScanPred::Const(*negated)
            } else {
                ScanPred::Like { col: slot.col, pattern: pattern.clone(), negated: *negated }
            }
        }
        BExpr::InList { slot, set, negated } => {
            let col = slot.col;
            if table.col_is_int(col) {
                let ints: FxHashSet<i64> = set
                    .iter()
                    .filter_map(|l| match l {
                        BLit::Int(i) => Some(*i),
                        _ => None,
                    })
                    .collect();
                if ints.is_empty() {
                    // Nothing can match ⇒ `IN` is false, `NOT IN` true.
                    return ScanPred::Const(*negated);
                }
                ScanPred::InInts { col, set: ints, negated: *negated }
            } else {
                let syms: FxHashSet<Sym> = set
                    .iter()
                    .filter_map(|l| match l {
                        BLit::Sym(s) => Some(*s),
                        _ => None,
                    })
                    .collect();
                if syms.is_empty() {
                    return ScanPred::Const(*negated);
                }
                ScanPred::InSyms { col, set: syms, negated: *negated }
            }
        }
        BExpr::And(a, b) => ScanPred::And(
            Box::new(compile_scan_pred(a, table)),
            Box::new(compile_scan_pred(b, table)),
        ),
        BExpr::Or(a, b) => ScanPred::Or(
            Box::new(compile_scan_pred(a, table)),
            Box::new(compile_scan_pred(b, table)),
        ),
        BExpr::Not(inner) => ScanPred::Not(Box::new(compile_scan_pred(inner, table))),
    }
}

/// Tight-loop literal mask over one column slice: `f` per non-NULL cell,
/// `false` for NULL. The null branch vanishes on fully-dense columns.
#[inline]
fn lit_mask<T: Copy>(xs: &[T], nulls: Option<&[bool]>, f: impl Fn(T) -> bool) -> Vec<bool> {
    match nulls {
        None => xs.iter().map(|&v| f(v)).collect(),
        Some(ns) => xs.iter().zip(ns).map(|(&v, &n)| !n && f(v)).collect(),
    }
}

fn flip(mut mask: Vec<bool>) -> Vec<bool> {
    for b in &mut mask {
        *b = !*b;
    }
    mask
}

/// Evaluates `p` over the rows of `range` as a boolean mask (one lane per
/// row, in row order).
fn eval_mask(
    p: &ScanPred,
    table: &Table,
    range: &std::ops::Range<usize>,
    dict: &SharedDict,
) -> Vec<bool> {
    let n = range.len();
    let slice_nulls = |col: usize| -> Option<&[bool]> {
        table.col_has_nulls(col).then(|| &table.null_flags(col)[range.clone()])
    };
    match p {
        ScanPred::CmpInt { col, op, lit } => {
            let xs = &table.int_cells(*col).expect("int column")[range.clone()];
            let ns = slice_nulls(*col);
            let lit = *lit;
            match op {
                CmpOp::Eq => lit_mask(xs, ns, |v| v == lit),
                CmpOp::Ne => lit_mask(xs, ns, |v| v != lit),
                CmpOp::Lt => lit_mask(xs, ns, |v| v < lit),
                CmpOp::Le => lit_mask(xs, ns, |v| v <= lit),
                CmpOp::Gt => lit_mask(xs, ns, |v| v > lit),
                CmpOp::Ge => lit_mask(xs, ns, |v| v >= lit),
            }
        }
        ScanPred::CmpSym { col, op, lit } => {
            let xs = &table.sym_cells(*col).expect("str column")[range.clone()];
            let ns = slice_nulls(*col);
            match op {
                CmpOp::Eq => {
                    let lit = *lit;
                    lit_mask(xs, ns, |s| s == lit)
                }
                CmpOp::Ne => {
                    let lit = *lit;
                    lit_mask(xs, ns, |s| s != lit)
                }
                _ => {
                    let ls = dict.resolve(*lit);
                    lit_mask(xs, ns, |s| ord_ok(dict.resolve(s).cmp(ls), *op))
                }
            }
        }
        ScanPred::CmpRaw { col, op, raw } => {
            let xs = &table.sym_cells(*col).expect("str column")[range.clone()];
            let ns = slice_nulls(*col);
            lit_mask(xs, ns, |s| ord_ok(dict.resolve(s).cmp(raw.as_ref()), *op))
        }
        ScanPred::NotNull { col } => match slice_nulls(*col) {
            None => vec![true; n],
            Some(ns) => ns.iter().map(|&b| !b).collect(),
        },
        ScanPred::Like { col, pattern, negated } => {
            let xs = &table.sym_cells(*col).expect("str column")[range.clone()];
            let ns = slice_nulls(*col);
            let m = lit_mask(xs, ns, |s| like_match(pattern, dict.resolve(s)));
            if *negated {
                flip(m)
            } else {
                m
            }
        }
        ScanPred::InInts { col, set, negated } => {
            let xs = &table.int_cells(*col).expect("int column")[range.clone()];
            let m = lit_mask(xs, slice_nulls(*col), |v| set.contains(&v));
            if *negated {
                flip(m)
            } else {
                m
            }
        }
        ScanPred::InSyms { col, set, negated } => {
            let xs = &table.sym_cells(*col).expect("str column")[range.clone()];
            let m = lit_mask(xs, slice_nulls(*col), |s| set.contains(&s));
            if *negated {
                flip(m)
            } else {
                m
            }
        }
        ScanPred::CmpCols { left, op, right } => range
            .clone()
            .map(|i| {
                let a = table.cell(i as RowId, *left);
                let b = table.cell(i as RowId, *right);
                !a.is_null() && !b.is_null() && ord_ok(a.cmp_with(b, dict), *op)
            })
            .collect(),
        ScanPred::Const(b) => vec![*b; n],
        ScanPred::And(a, b) => {
            let mut m = eval_mask(a, table, range, dict);
            for (l, r) in m.iter_mut().zip(eval_mask(b, table, range, dict)) {
                *l = *l && r;
            }
            m
        }
        ScanPred::Or(a, b) => {
            let mut m = eval_mask(a, table, range, dict);
            for (l, r) in m.iter_mut().zip(eval_mask(b, table, range, dict)) {
                *l = *l || r;
            }
            m
        }
        ScanPred::Not(inner) => flip(eval_mask(inner, table, range, dict)),
    }
}

/// Evaluates `p` over the rows of `range`, appending matching row ids (in
/// ascending row order) to the selection vector `out`.
fn range_select(
    p: &ScanPred,
    table: &Table,
    range: std::ops::Range<usize>,
    dict: &SharedDict,
    out: &mut Vec<RowId>,
) {
    let start = range.start;
    let mask = eval_mask(p, table, &range, dict);
    for (i, &hit) in mask.iter().enumerate() {
        if hit {
            out.push((start + i) as RowId);
        }
    }
}

/// Row-at-a-time evaluation of a compiled scan predicate — the
/// multi-conjunct index-candidate check and the endpoint test, where rows
/// arrive as scattered ids instead of a contiguous range. Same semantics as
/// [`eval_mask`], sharing the compiled `IN` hash sets.
fn test_row(p: &ScanPred, table: &Table, row: RowId, dict: &SharedDict) -> bool {
    let i = row as usize;
    let is_null = |col: usize| table.col_has_nulls(col) && table.null_flags(col)[i];
    match p {
        ScanPred::CmpInt { col, op, lit } => {
            !is_null(*col) && ord_ok(table.int_cells(*col).expect("int column")[i].cmp(lit), *op)
        }
        ScanPred::CmpSym { col, op, lit } => {
            if is_null(*col) {
                return false;
            }
            let s = table.sym_cells(*col).expect("str column")[i];
            match op {
                CmpOp::Eq => s == *lit,
                CmpOp::Ne => s != *lit,
                _ => ord_ok(dict.resolve(s).cmp(dict.resolve(*lit)), *op),
            }
        }
        ScanPred::CmpRaw { col, op, raw } => {
            !is_null(*col)
                && ord_ok(
                    dict.resolve(table.sym_cells(*col).expect("str column")[i]).cmp(raw.as_ref()),
                    *op,
                )
        }
        ScanPred::NotNull { col } => !is_null(*col),
        ScanPred::Like { col, pattern, negated } => {
            let m = !is_null(*col)
                && like_match(pattern, dict.resolve(table.sym_cells(*col).expect("str column")[i]));
            m != *negated
        }
        ScanPred::InInts { col, set, negated } => {
            let m = !is_null(*col) && set.contains(&table.int_cells(*col).expect("int column")[i]);
            m != *negated
        }
        ScanPred::InSyms { col, set, negated } => {
            let m = !is_null(*col) && set.contains(&table.sym_cells(*col).expect("str column")[i]);
            m != *negated
        }
        ScanPred::CmpCols { left, op, right } => {
            let a = table.cell(row, *left);
            let b = table.cell(row, *right);
            !a.is_null() && !b.is_null() && ord_ok(a.cmp_with(b, dict), *op)
        }
        ScanPred::Const(b) => *b,
        ScanPred::And(a, b) => test_row(a, table, row, dict) && test_row(b, table, row, dict),
        ScanPred::Or(a, b) => test_row(a, table, row, dict) || test_row(b, table, row, dict),
        ScanPred::Not(inner) => !test_row(inner, table, row, dict),
    }
}

/// Chooses an index access path for one pushed-down conjunct, if possible.
/// Returns exactly the rows the conjunct selects — hash `=`/`IN` postings,
/// a B-tree key range, or the postings of the column's strings that pass
/// the `LIKE` — or `None` if no index applies. A scan with other conjuncts
/// still tests them on these rows.
fn access_path(db: &Database, table: &str, conjunct: &Expr) -> Option<Vec<RowId>> {
    match conjunct {
        Expr::CmpLit { col, op: CmpOp::Eq, lit } => {
            let idx = db.indexes(table, &col.column)?.hash.as_ref()?;
            let key = match lit {
                Literal::Int(i) => Value::Int(*i),
                // Typed requests arrive pre-interned: no dictionary lookup.
                Literal::Interned(sym) => Value::Str(*sym),
                // A string literal absent from the dictionary equals no row.
                Literal::Str(s) => match db.dict().get(s) {
                    Some(sym) => Value::Str(sym),
                    None => return Some(Vec::new()),
                },
            };
            Some(idx.get(key).to_vec())
        }
        Expr::InList { col, list, negated: false } => {
            let idx = db.indexes(table, &col.column)?.hash.as_ref()?;
            let mut rows = Vec::new();
            for lit in list {
                let key = match lit {
                    Literal::Int(i) => Value::Int(*i),
                    Literal::Interned(sym) => Value::Str(*sym),
                    Literal::Str(s) => match db.dict().get(s) {
                        Some(sym) => Value::Str(sym),
                        None => continue,
                    },
                };
                rows.extend_from_slice(idx.get(key));
            }
            rows.sort_unstable();
            rows.dedup();
            Some(rows)
        }
        Expr::CmpLit { col, op, lit: Literal::Int(i) } => {
            let idx = db.indexes(table, &col.column)?.btree.as_ref()?;
            let (lo, hi) = match op {
                CmpOp::Lt => (Some(i64::MIN), i.checked_sub(1)),
                CmpOp::Le => (Some(i64::MIN), Some(*i)),
                CmpOp::Gt => (i.checked_add(1), Some(i64::MAX)),
                CmpOp::Ge => (Some(*i), Some(i64::MAX)),
                _ => return None,
            };
            // `< i64::MIN` and `> i64::MAX` hold for no row.
            Some(lo.zip(hi).map_or_else(Vec::new, |(lo, hi)| idx.range(lo, hi)))
        }
        Expr::Like { col, pattern, negated: false } => {
            let ix = db.indexes(table, &col.column)?;
            let hash = ix.hash.as_ref()?;
            // Test the LIKE once per distinct string — the trigram
            // candidates of its longest literal run, or else every string
            // key of the hash index, the column's dictionary — then fan out
            // to rows. Distinct strings have disjoint postings.
            let pruned = containment_literal(pattern)
                .zip(ix.trigram.as_ref())
                .and_then(|(lit, trigram)| trigram.candidates(lit));
            let mut rows = Vec::new();
            let mut test = |sym: Sym| {
                if like_match(pattern, db.dict().resolve(sym)) {
                    rows.extend_from_slice(hash.get(Value::Str(sym)));
                }
            };
            match pruned {
                Some(candidates) => candidates.into_iter().for_each(&mut test),
                None => hash.syms().for_each(&mut test),
            }
            rows.sort_unstable();
            Some(rows)
        }
        _ => None,
    }
}

/// Estimated candidate-row count for one indexable conjunct, read from the
/// table's maintained statistics. `Some` exactly when an applicable index
/// exists for the conjunct's shape (mirrors [`access_path`]); the planner
/// materializes only the cheapest estimate instead of every path.
fn conjunct_estimate(
    db: &Database,
    table: &str,
    ts: &raptor_storage::TableStats,
    conjunct: &Expr,
) -> Option<f64> {
    let rows = ts.rows() as f64;
    // A column with no recorded non-null values matches no equality/range.
    let col_frac = |col: &ColRef, f: &dyn Fn(&raptor_storage::ColumnStats) -> f64| -> f64 {
        ts.column(&col.column).map_or(0.0, f)
    };
    // Equality fractions key the symbol-frequency maps directly; a parsed
    // literal does one dictionary lookup, a typed (pre-interned) one none.
    let eq_frac = |col: &ColRef, lit: &Literal| -> f64 {
        match lit {
            Literal::Int(i) => col_frac(col, &|c| c.eq_fraction_int(*i)),
            Literal::Interned(sym) => col_frac(col, &|c| c.eq_fraction_sym(*sym)),
            Literal::Str(s) => match db.dict().get(s) {
                Some(sym) => col_frac(col, &|c| c.eq_fraction_sym(sym)),
                None => 0.0,
            },
        }
    };
    match conjunct {
        Expr::CmpLit { col, op: CmpOp::Eq, lit } => {
            db.indexes(table, &col.column)?.hash.as_ref()?;
            Some(eq_frac(col, lit) * rows)
        }
        Expr::InList { col, list, negated: false } => {
            db.indexes(table, &col.column)?.hash.as_ref()?;
            let frac: f64 = list.iter().map(|lit| eq_frac(col, lit)).sum();
            Some(frac.min(1.0) * rows)
        }
        Expr::CmpLit { col, op, lit: Literal::Int(i) } => {
            if !matches!(op, CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge) {
                return None;
            }
            db.indexes(table, &col.column)?.btree.as_ref()?;
            Some(col_frac(col, &|c| c.cmp_fraction(storage_cmp(*op), *i)) * rows)
        }
        Expr::Like { col, pattern, negated: false } => {
            db.indexes(table, &col.column)?.hash.as_ref()?;
            Some(col_frac(col, &|c| c.like_fraction(pattern, db.dict())) * rows)
        }
        _ => None,
    }
}

fn storage_cmp(op: CmpOp) -> raptor_storage::CmpOp {
    match op {
        CmpOp::Eq => raptor_storage::CmpOp::Eq,
        CmpOp::Ne => raptor_storage::CmpOp::Ne,
        CmpOp::Lt => raptor_storage::CmpOp::Lt,
        CmpOp::Le => raptor_storage::CmpOp::Le,
        CmpOp::Gt => raptor_storage::CmpOp::Gt,
        CmpOp::Ge => raptor_storage::CmpOp::Ge,
    }
}

fn table_named<'a>(db: &'a Database, name: &str) -> Result<&'a Table> {
    db.table(name).ok_or_else(|| Error::storage(format!("unknown table `{name}`")))
}

/// Binds and compiles `pred`, every column of which is qualified by
/// `alias`, against `table`.
fn compile_table_pred(db: &Database, table: &Table, alias: &str, pred: &Expr) -> Result<ScanPred> {
    let tables = [table];
    let binder = Binder {
        slots: std::iter::once((alias, 0usize)).collect(),
        tables: &tables,
        dict: db.dict(),
    };
    Ok(compile_scan_pred(&binder.bind(pred)?, table))
}

/// Runs one scan of `table_name` under `alias` (the qualifier of `pred`'s
/// columns) as one `relstore.scan` span.
///
/// A predicate of **one conjunct** that an index serves is answered by
/// that conjunct's [`access_path`] alone: there is nothing to choose
/// between and nothing left to test. With **several conjuncts** access-path
/// choice is **statistics-driven**: per-conjunct candidate counts are
/// estimated from [`Database::store_stats`], only the cheapest path is
/// materialized, and the whole predicate is tested on each of its rows.
/// A table with a row has statistics, and an estimate exists exactly when
/// an index applies, so an empty table is the only one a filtered scan
/// with an indexed conjunct reads in full — over zero rows.
pub(crate) fn run_scan(
    db: &Database,
    table_name: &str,
    alias: &str,
    pred: Option<&Expr>,
    stats: &mut ExecStats,
) -> Result<Vec<RowId>> {
    // One span per table scan.
    let mut sp = obs::span("relstore.scan");
    sp.label(alias);
    let before = *stats;
    let rows = scan_rows(db, table_name, alias, pred, stats)?;
    sp.attr("rows", rows.len() as u64);
    sp.attr("scanned", (stats.rows_scanned - before.rows_scanned) as u64);
    Ok(rows)
}

fn scan_rows(
    db: &Database,
    table_name: &str,
    alias: &str,
    pred: Option<&Expr>,
    stats: &mut ExecStats,
) -> Result<Vec<RowId>> {
    let table = table_named(db, table_name)?;

    let Some(pred) = pred else {
        // Unfiltered scan: every row selected.
        stats.full_scans += 1;
        stats.rows_scanned += table.len();
        return Ok((0..table.len() as RowId).collect());
    };

    // The predicate is compiled once per scan: hash-set `IN`s, handle-bound
    // string literals, constant-folded type mismatches — shared by both the
    // vectorized full scan and the index-candidate check.
    let compiled = compile_table_pred(db, table, alias, pred)?;
    let dict = db.dict();

    let conjuncts = pred.clone().conjuncts();
    let indexed = db.store_stats().table(table_name).and_then(|ts| match conjuncts.as_slice() {
        [only] => access_path(db, table_name, only).map(|rows| (rows, true)),
        _ => conjuncts
            .iter()
            .enumerate()
            .filter_map(|(i, c)| conjunct_estimate(db, table_name, ts, c).map(|e| (i, e)))
            .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))
            .and_then(|(i, _)| access_path(db, table_name, &conjuncts[i]))
            .map(|rows| (rows, false)),
    });
    if let Some((candidates, exact)) = indexed {
        stats.index_scans += 1;
        stats.rows_scanned += candidates.len();
        if exact {
            // The one conjunct's path returns exactly its rows.
            return Ok(candidates);
        }
        // The path served one conjunct of several: test the whole predicate.
        return Ok(candidates
            .into_iter()
            .filter(|&row| test_row(&compiled, table, row, dict))
            .collect());
    }

    // Vectorized full scan: one mask loop over the contiguous column
    // slices, emitting an ascending selection vector.
    stats.full_scans += 1;
    stats.rows_scanned += table.len();
    let mut out = Vec::new();
    range_select(&compiled, table, 0..table.len(), dict, &mut out);
    Ok(out)
}

/// One endpoint of [`match_event_rows`]: the entity table its id must be
/// found in, and what the entity's own row must satisfy.
pub(crate) struct EndpointSel<'a> {
    pub table: &'a str,
    /// The alias `filter`'s columns are qualified by.
    pub alias: &'a str,
    pub filter: Option<Expr>,
    /// Sorted, distinct candidate ids; ids outside it cannot match.
    pub id_in: Option<&'a [i64]>,
}

/// An [`EndpointSel`] resolved against the database.
struct Endpoint<'a> {
    table: &'a Table,
    by_id: &'a crate::index::HashIndex,
    filter: Option<ScanPred>,
    id_in: Option<&'a [i64]>,
}

/// The hash index on `table.id` — how the typed reads find an entity or
/// event by id.
pub(crate) fn id_index<'a>(db: &'a Database, table: &str) -> Result<&'a crate::index::HashIndex> {
    db.indexes(table, "id")
        .and_then(|ix| ix.hash.as_ref())
        .ok_or_else(|| Error::storage(format!("typed reads need a hash index on `{table}.id`")))
}

impl<'a> Endpoint<'a> {
    fn resolve(db: &'a Database, sel: &EndpointSel<'a>) -> Result<Self> {
        let table = table_named(db, sel.table)?;
        let filter = match &sel.filter {
            Some(f) => Some(compile_table_pred(db, table, sel.alias, f)?),
            None => None,
        };
        Ok(Endpoint { table, by_id: id_index(db, sel.table)?, filter, id_in: sel.id_in })
    }

    /// How many rows of the endpoint's table carry `id` and pass its
    /// filter: 1 or 0 over audit tables (ids are keys), whatever a join on
    /// `id` would produce otherwise.
    fn hits(&self, id: i64, dict: &SharedDict, stats: &mut ExecStats) -> usize {
        if self.id_in.is_some_and(|ids| ids.binary_search(&id).is_err()) {
            return 0;
        }
        let rows = self.by_id.get(Value::Int(id));
        stats.rows_scanned += rows.len();
        match &self.filter {
            Some(f) => rows.iter().filter(|&&r| test_row(f, self.table, r, dict)).count(),
            None => rows.len(),
        }
    }
}

/// The alias [`match_event_rows`] expects `event_filter`'s columns under.
pub(crate) const EVENT_ALIAS: &str = "e";

/// Matches `subject —event→ object` over `events`, the one event-pattern
/// matcher. The event rows `event_filter` (columns qualified by
/// [`EVENT_ALIAS`]) selects come from one of two sources:
///
/// * `Some(range)` — a standing query's epoch: one mask over just those
///   rows. The cost depends on the range and on nothing else: no index
///   over `events`.
/// * `None` — a batch query: one [`run_scan`] of the whole table, which
///   picks the access path from statistics (the caller puts the endpoints'
///   propagated ids into `event_filter` so the `subject` / `object` hash
///   indexes can serve it).
///
/// Each selected row's `subject`/`object` is then looked up in its
/// endpoint's table by `id` and tested there. Returns the `(subject id,
/// object id, event id, starttime, endtime)` columns, in event row order —
/// the rows a join of the three tables over those events would return.
pub(crate) fn match_event_rows(
    db: &Database,
    rows: Option<std::ops::Range<usize>>,
    event_filter: &Expr,
    subject: &EndpointSel<'_>,
    object: &EndpointSel<'_>,
    subject_is_object: bool,
    stats: &mut ExecStats,
) -> Result<[Vec<i64>; 5]> {
    let events = table_named(db, "events")?;
    let dict = db.dict();
    let selected = match rows {
        Some(rows) if rows.start > rows.end || rows.end > events.len() => {
            return Err(Error::storage(format!(
                "event rows {}..{} outside the table's 0..{}",
                rows.start,
                rows.end,
                events.len()
            )));
        }
        Some(rows) => {
            let pred = compile_table_pred(db, events, EVENT_ALIAS, event_filter)?;
            stats.rows_scanned += rows.len();
            let mut sel = Vec::new();
            range_select(&pred, events, rows, dict, &mut sel);
            sel
        }
        None => run_scan(db, "events", EVENT_ALIAS, Some(event_filter), stats)?,
    };
    let (subject, object) = (Endpoint::resolve(db, subject)?, Endpoint::resolve(db, object)?);
    let col = |name| events.schema.require_column(name);
    let (c_subj, c_obj) = (col("subject")?, col("object")?);
    let event_cols = [col("id")?, col("starttime")?, col("endtime")?];

    let mut out: [Vec<i64>; 5] = Default::default();
    for row in selected {
        // A NULL endpoint joins with nothing.
        let (Some(s), Some(o)) =
            (events.cell(row, c_subj).as_int(), events.cell(row, c_obj).as_int())
        else {
            continue;
        };
        if subject_is_object && s != o {
            continue;
        }
        let n = match subject.hits(s, dict, stats) {
            0 => 0,
            n => n * object.hits(o, dict, stats),
        };
        let [id, start, end] = event_cols.map(|c| events.cell(row, c).as_int().unwrap_or(-1));
        for _ in 0..n {
            for (col, v) in out.iter_mut().zip([s, o, id, start, end]) {
                col.push(v);
            }
        }
        stats.tuples_built += n;
    }
    Ok(out)
}

/// An equi-join key extracted from a residual conjunct.
struct EquiKey {
    bound: Slot,
    new: Slot,
}

/// Flat join-tuple buffer: `len()` tuples of `nslots` [`RowId`]s each,
/// stored contiguously with stride `nslots`. The columnar analogue for
/// intermediate join state — extending a tuple is a small in-place copy
/// and residual filtering is an in-place compaction, with **zero per-tuple
/// heap allocations** (the row-major `Vec<Vec<RowId>>` it replaced paid
/// one allocation plus a clone per tuple, which dominated multi-million
/// tuple joins).
struct Tuples {
    nslots: usize,
    data: Vec<RowId>,
}

impl Tuples {
    fn new(nslots: usize) -> Self {
        Tuples { nslots, data: Vec::new() }
    }

    fn len(&self) -> usize {
        self.data.len().checked_div(self.nslots).unwrap_or(0)
    }

    fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    fn iter(&self) -> impl Iterator<Item = &[RowId]> {
        self.data.chunks_exact(self.nslots)
    }

    /// Appends a copy of `t` with `slot` rebound to `r`.
    fn push_extended(&mut self, t: &[RowId], slot: usize, r: RowId) {
        self.data.extend_from_slice(t);
        let n = self.data.len();
        self.data[n - self.nslots + slot] = r;
    }

    /// In-place compaction keeping tuples satisfying `keep`, preserving
    /// order (the flat-buffer analogue of `Vec::retain`).
    fn retain(&mut self, mut keep: impl FnMut(&[RowId]) -> bool) {
        let (n, w) = (self.nslots, &mut 0usize);
        for i in 0..self.data.len() / n.max(1) {
            if keep(&self.data[i * n..(i + 1) * n]) {
                self.data.copy_within(i * n..(i + 1) * n, *w * n);
                *w += 1;
            }
        }
        self.data.truncate(*w * n);
    }
}

/// Probes a hash join build table with every current tuple, extending
/// matching tuples with the new slot's row.
fn probe_join<K: Eq + std::hash::Hash>(
    tuples: &Tuples,
    slot: usize,
    build: &FxHashMap<K, Vec<RowId>>,
    key_of: impl Fn(&[RowId]) -> K,
) -> Tuples {
    let mut out = Tuples::new(tuples.nslots);
    out.data.reserve(tuples.data.len());
    for t in tuples.iter() {
        for &r in build.get(&key_of(t)).into_iter().flatten() {
            out.push_extended(t, slot, r);
        }
    }
    out
}

/// Executes a plan, returning projected rows.
pub fn execute(db: &Database, plan: &QueryPlan) -> Result<(QueryResultCore, ExecStats)> {
    let mut stats = ExecStats::default();
    let tables: Vec<&Table> = plan
        .scans
        .iter()
        .map(|s| {
            db.table(&s.table).ok_or_else(|| Error::storage(format!("unknown table `{}`", s.table)))
        })
        .collect::<Result<Vec<_>>>()?;
    let binder = Binder {
        slots: plan.scans.iter().enumerate().map(|(i, s)| (s.alias.as_str(), i)).collect(),
        tables: &tables,
        dict: db.dict(),
    };

    // Bind residuals once; track which are already applied.
    let residual_bound: Vec<(BExpr, Vec<usize>)> = plan
        .residuals
        .iter()
        .map(|r| {
            let b = binder.bind(r)?;
            let mut cols = Vec::new();
            r.collect_cols(&mut cols);
            let mut slots: Vec<usize> =
                cols.iter().map(|c| binder.slots[c.qualifier.as_deref().unwrap()]).collect();
            slots.sort_unstable();
            slots.dedup();
            Ok((b, slots))
        })
        .collect::<Result<Vec<_>>>()?;
    let mut residual_done = vec![false; residual_bound.len()];

    // Left-deep pipeline. Tuples hold one RowId per bound alias, and a
    // sentinel for not-yet-bound aliases; they live in a flat stride-nslots
    // buffer (see [`Tuples`]) so the join pipeline never allocates per
    // tuple.
    const UNBOUND: RowId = RowId::MAX;
    let nslots = plan.scans.len();
    let mut tuples = Tuples::new(nslots);
    let mut bound_slots: Vec<usize> = Vec::new();

    for (slot, scan) in plan.scans.iter().enumerate() {
        let rows = run_scan(db, &scan.table, &scan.alias, scan.predicate.as_ref(), &mut stats)?;
        if slot == 0 {
            tuples.data.reserve(rows.len() * nslots);
            for r in rows {
                let n = tuples.data.len();
                tuples.data.resize(n + nslots, UNBOUND);
                tuples.data[n] = r;
            }
        } else {
            let mut sp = obs::span("relstore.join");
            sp.label(&scan.alias);
            sp.attr("probe", tuples.len() as u64);
            sp.attr("build", rows.len() as u64);
            // Find equi-join keys connecting `slot` to already-bound slots.
            let mut keys: Vec<EquiKey> = Vec::new();
            for (i, (b, slots)) in residual_bound.iter().enumerate() {
                if residual_done[i] {
                    continue;
                }
                if let BExpr::CmpCol { left, op: CmpOp::Eq, right } = b {
                    let connects =
                        |a: &Slot, b: &Slot| a.alias == slot && bound_slots.contains(&b.alias);
                    if connects(right, left) {
                        keys.push(EquiKey { bound: *left, new: *right });
                        residual_done[i] = true;
                    } else if connects(left, right) {
                        keys.push(EquiKey { bound: *right, new: *left });
                        residual_done[i] = true;
                    }
                }
                let _ = slots;
            }
            if keys.is_empty() {
                // Cartesian extension (rare: disconnected patterns).
                if let [r] = rows.as_slice() {
                    // One-row extension: bind the slot in place — no copy.
                    let (r, n) = (*r, nslots);
                    for i in 0..tuples.len() {
                        tuples.data[i * n + slot] = r;
                    }
                } else {
                    let mut next = Tuples::new(nslots);
                    next.data.reserve(tuples.data.len() * rows.len().max(1));
                    for t in tuples.iter() {
                        for &r in &rows {
                            next.push_extended(t, slot, r);
                        }
                    }
                    tuples = next;
                }
            } else if let [k] = keys.as_slice() {
                // Single-key hash join (the common case: one equi conjunct
                // links the new alias). When both sides are dense typed
                // columns, build and probe consume the raw column slices —
                // `i64`/`Sym` keys straight out of column storage, no
                // `Value` construction or enum hashing on the probe's hot
                // path. Nullable or mixed-type keys fall back to `Value`.
                let (bt, nt) = (tables[k.bound.alias], tables[slot]);
                let dense = !bt.col_has_nulls(k.bound.col) && !nt.col_has_nulls(k.new.col);
                let int_cols = (bt.int_cells(k.bound.col), nt.int_cells(k.new.col));
                let sym_cols = (bt.sym_cells(k.bound.col), nt.sym_cells(k.new.col));
                tuples = if let (true, (Some(probe), Some(bkeys))) = (dense, int_cols) {
                    let mut build: FxHashMap<i64, Vec<RowId>> =
                        FxHashMap::with_capacity_and_hasher(rows.len(), Default::default());
                    for &r in &rows {
                        build.entry(bkeys[r as usize]).or_default().push(r);
                    }
                    probe_join(&tuples, slot, &build, |t| probe[t[k.bound.alias] as usize])
                } else if let (true, (Some(probe), Some(bkeys))) = (dense, sym_cols) {
                    let mut build: FxHashMap<Sym, Vec<RowId>> =
                        FxHashMap::with_capacity_and_hasher(rows.len(), Default::default());
                    for &r in &rows {
                        build.entry(bkeys[r as usize]).or_default().push(r);
                    }
                    probe_join(&tuples, slot, &build, |t| probe[t[k.bound.alias] as usize])
                } else {
                    let mut build: FxHashMap<Value, Vec<RowId>> =
                        FxHashMap::with_capacity_and_hasher(rows.len(), Default::default());
                    for &r in &rows {
                        build.entry(nt.cell(r, k.new.col)).or_default().push(r);
                    }
                    probe_join(&tuples, slot, &build, |t| bt.cell(t[k.bound.alias], k.bound.col))
                };
            } else {
                // Hash join on a compound key: build on the new scan's rows.
                // When every component is a dense typed column with matching
                // types on both sides (and there are at most 4), components
                // pack into a fixed `[u64; 4]` key read straight off the
                // column slices — no per-row key vector or `Value`
                // construction on the probe's hot path. (Positions are typed
                // consistently on both sides, so raw-bit equality per
                // position is exactly `Value` equality.)
                enum KeyCol<'a> {
                    I(&'a [i64]),
                    S(&'a [Sym]),
                }
                impl KeyCol<'_> {
                    fn at(&self, r: RowId) -> u64 {
                        match self {
                            KeyCol::I(v) => v[r as usize] as u64,
                            KeyCol::S(v) => u64::from(v[r as usize].0),
                        }
                    }
                }
                let packed: Option<Vec<(KeyCol<'_>, KeyCol<'_>)>> = if keys.len() <= 4 {
                    keys.iter()
                        .map(|k| {
                            let (bt, nt) = (tables[k.bound.alias], tables[slot]);
                            if bt.col_has_nulls(k.bound.col) || nt.col_has_nulls(k.new.col) {
                                return None;
                            }
                            match (bt.int_cells(k.bound.col), nt.int_cells(k.new.col)) {
                                (Some(b), Some(n)) => Some((KeyCol::I(b), KeyCol::I(n))),
                                _ => match (bt.sym_cells(k.bound.col), nt.sym_cells(k.new.col)) {
                                    (Some(b), Some(n)) => Some((KeyCol::S(b), KeyCol::S(n))),
                                    _ => None,
                                },
                            }
                        })
                        .collect()
                } else {
                    None
                };
                tuples = if let Some(cols) = packed {
                    let mut build: FxHashMap<[u64; 4], Vec<RowId>> =
                        FxHashMap::with_capacity_and_hasher(rows.len(), Default::default());
                    for &r in &rows {
                        let mut key = [0u64; 4];
                        for (i, (_, n)) in cols.iter().enumerate() {
                            key[i] = n.at(r);
                        }
                        build.entry(key).or_default().push(r);
                    }
                    probe_join(&tuples, slot, &build, |t| {
                        let mut key = [0u64; 4];
                        for (i, ((b, _), k)) in cols.iter().zip(keys.iter()).enumerate() {
                            key[i] = b.at(t[k.bound.alias]);
                        }
                        key
                    })
                } else {
                    let mut build: FxHashMap<Vec<Value>, Vec<RowId>> =
                        FxHashMap::with_capacity_and_hasher(rows.len(), Default::default());
                    for &r in &rows {
                        let key: Vec<Value> =
                            keys.iter().map(|k| tables[slot].cell(r, k.new.col)).collect();
                        build.entry(key).or_default().push(r);
                    }
                    probe_join(&tuples, slot, &build, |t| {
                        keys.iter()
                            .map(|k| tables[k.bound.alias].cell(t[k.bound.alias], k.bound.col))
                            .collect::<Vec<Value>>()
                    })
                };
            }
            sp.attr("tuples", tuples.len() as u64);
        }
        bound_slots.push(slot);
        stats.tuples_built += tuples.len();

        // Apply any residual whose slots are now all bound.
        for (i, (b, slots)) in residual_bound.iter().enumerate() {
            if residual_done[i] {
                continue;
            }
            if slots.iter().all(|s| bound_slots.contains(s)) {
                tuples.retain(|t| eval(b, t, &tables, db.dict()));
                residual_done[i] = true;
            }
        }
        if tuples.is_empty() {
            // Early exit: nothing downstream can resurrect rows, but we must
            // keep slot bookkeeping consistent; simply continue (cheap).
        }
    }

    // Projection.
    let mut out_cols = Vec::new();
    let mut proj_slots: Vec<Option<Slot>> = Vec::new();
    for p in &plan.projections {
        match p {
            Projection::Col(c) => {
                out_cols.push(c.to_string());
                proj_slots.push(Some(binder.bind_col(c)?));
            }
            Projection::CountStar => {
                out_cols.push("count".to_string());
                proj_slots.push(None);
            }
        }
    }

    let count_star = plan.projections.iter().any(|p| matches!(p, Projection::CountStar));
    if count_star {
        let cols = vec![ValueColumn::Int(vec![tuples.len() as i64])];
        return Ok((QueryResultCore { columns: out_cols, cols }, stats));
    }

    if plan.distinct || !plan.order_by.is_empty() {
        // DISTINCT / ORDER BY need whole-row identity and row swaps, so this
        // path materializes row-major tuples, applies them, then transposes
        // back to columns (collecting into a [`ValueColumn`] is an exact `Value`
        // round-trip, so per-cell results match the direct columnar path).
        let mut rows: Vec<Vec<Value>> = tuples
            .iter()
            .map(|t| {
                proj_slots
                    .iter()
                    .map(|s| {
                        let s = s.expect("CountStar handled above");
                        tables[s.alias].cell(t[s.alias], s.col)
                    })
                    .collect()
            })
            .collect();

        if plan.distinct {
            let mut seen: FxHashSet<Vec<Value>> = Default::default();
            rows.retain(|r| seen.insert(r.clone()));
        }

        if !plan.order_by.is_empty() {
            let order_slots: Vec<Slot> =
                plan.order_by.iter().map(|c| binder.bind_col(c)).collect::<Result<Vec<_>>>()?;
            // ORDER BY columns must appear in the projection for sorting of
            // projected rows; otherwise sort tuples first. For the audit
            // workloads ORDER BY is always on projected columns, so sort rows
            // by locating each order column among projections.
            let mut sort_keys = Vec::new();
            for os in &order_slots {
                let pos = proj_slots
                    .iter()
                    .position(|p| matches!(p, Some(s) if s.alias == os.alias && s.col == os.col))
                    .ok_or_else(|| {
                        Error::semantic("ORDER BY column must appear in the SELECT list")
                    })?;
                sort_keys.push(pos);
            }
            rows.sort_by(|a, b| {
                for &k in &sort_keys {
                    let ord = a[k].cmp_with(b[k], db.dict());
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
        }

        if let Some(n) = plan.limit {
            rows.truncate(n);
        }

        let ncols = proj_slots.len();
        let cols = (0..ncols).map(|j| rows.iter().map(|r| r[j]).collect::<ValueColumn>()).collect();
        return Ok((QueryResultCore { columns: out_cols, cols }, stats));
    }

    // Direct columnar projection: gather each projected column straight from
    // table storage through the surviving tuples — rows are never
    // materialized. Dense columns stay typed vectors (`Vec<i64>`/`Vec<Sym>`);
    // only nullable columns fall back to `Mixed`.
    let n = plan.limit.map_or(tuples.len(), |n| n.min(tuples.len()));
    let cols = proj_slots
        .iter()
        .map(|s| {
            let s = s.expect("CountStar handled above");
            let t = tables[s.alias];
            let picked = tuples.iter().take(n).map(|tu| tu[s.alias]);
            if t.col_has_nulls(s.col) {
                ValueColumn::Mixed(picked.map(|r| t.cell(r, s.col)).collect())
            } else if let Some(ints) = t.int_cells(s.col) {
                ValueColumn::Int(picked.map(|r| ints[r as usize]).collect())
            } else {
                let syms = t.sym_cells(s.col).expect("column is int or str");
                ValueColumn::Str(picked.map(|r| syms[r as usize]).collect())
            }
        })
        .collect();
    Ok((QueryResultCore { columns: out_cols, cols }, stats))
}

/// Columns + typed shared-plane result columns (wrapped by
/// [`crate::db::QueryResult`]). The result is **columnar** end-to-end: one
/// [`ValueColumn`] per projected column, feeding `ResultBatch` construction
/// at the engine seam without intermediate row materialization. No string is
/// materialized here — symbols resolve at the engine's edge.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryResultCore {
    pub columns: Vec<String>,
    pub cols: Vec<ValueColumn>,
}

impl QueryResultCore {
    pub fn n_rows(&self) -> usize {
        self.cols.first().map_or(0, ValueColumn::len)
    }

    /// One row, materialized on demand (edge/debug paths only).
    pub fn row(&self, i: usize) -> Vec<Value> {
        self.cols.iter().map(|c| c.get(i)).collect()
    }

    /// All rows, materialized row-major (tests and compatibility shims).
    pub fn rows(&self) -> Vec<Vec<Value>> {
        (0..self.n_rows()).map(|i| self.row(i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use crate::schema::{ColumnDef, ColumnType, TableSchema};
    use crate::Database;

    /// An empty table has no statistics, so even an indexed conjunct takes
    /// the full-scan branch — over zero rows, returning nothing.
    #[test]
    fn empty_indexed_table_scans_nothing() {
        let mut db = Database::new();
        let cols =
            vec![ColumnDef::new("id", ColumnType::Int), ColumnDef::new("v", ColumnType::Int)];
        db.create_table(TableSchema::new("t", cols)).unwrap();
        db.create_hash_index("t", "v").unwrap();
        let r = db.query("SELECT id FROM t WHERE v = 1").unwrap();
        assert_eq!(r.n_rows(), 0);
        assert_eq!((r.stats.full_scans, r.stats.index_scans, r.stats.rows_scanned), (1, 0, 0));
    }

    /// A B-tree bound past the end of the integer range selects no row: it
    /// neither overflows nor wraps around to the whole range — which a
    /// one-conjunct scan would return unchecked.
    #[test]
    fn btree_bound_past_the_integer_range_selects_nothing() {
        use super::{run_scan, ExecStats};
        use crate::sql::ast::{CmpOp, ColRef, Expr, Literal};
        let mut db = Database::new();
        let cols =
            vec![ColumnDef::new("id", ColumnType::Int), ColumnDef::new("v", ColumnType::Int)];
        db.create_table(TableSchema::new("t", cols)).unwrap();
        db.create_btree_index("t", "v").unwrap();
        for v in [i64::MIN, 0, i64::MAX] {
            db.insert("t", &[crate::db::Ins::Int(v), crate::db::Ins::Int(v)]).unwrap();
        }
        for (op, lit) in [(CmpOp::Lt, i64::MIN), (CmpOp::Gt, i64::MAX)] {
            let pred =
                Expr::CmpLit { col: ColRef::new(Some("t"), "v"), op, lit: Literal::Int(lit) };
            let mut stats = ExecStats::default();
            assert_eq!(run_scan(&db, "t", "t", Some(&pred), &mut stats).unwrap(), vec![]);
            assert_eq!((stats.index_scans, stats.rows_scanned), (1, 0));
        }
    }
}
