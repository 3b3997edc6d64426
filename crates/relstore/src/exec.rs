//! Query execution.
//!
//! Two pipelines share the scan, and one predicate form: whatever a scan,
//! an endpoint test or a price reads is a bound `BExpr`. SQL text binds to
//! it through the planner's `Binder`; a typed request's `Pred` through
//! `bind_pred` (attribute → column, string value → its symbol, no
//! dictionary write), with propagated ids borrowed as `BExpr::InIds`.
//!
//! * **SQL text** ([`execute`], behind [`Database::query`]: the GiantSql
//!   baseline and tests) — per-alias **scan** (access-path selection +
//!   vectorized filter) → left-deep **joins** in FROM order (hash join when
//!   an equi conjunct links the new alias to bound ones, nested-loop
//!   otherwise; residual conjuncts apply as soon as their aliases are
//!   bound) → projection → DISTINCT → ORDER BY → LIMIT. Joins extend the
//!   engine's [`raptor_storage::Tuples`] through a `JoinIndex`, and the
//!   last three steps run on the projected [`ResultBatch`].
//! * **Typed event patterns** (`match_event_rows`, behind
//!   `Database::match_event_pattern{,_rows}`) — a selection vector over
//!   `events` (a scan of the whole table, or one mask over a standing
//!   query's row range), then per selected row each endpoint found by id
//!   in the entity directory (an entity id is dense and appended in order,
//!   so it is the directory's position) and its filter tested on that one
//!   row. An
//!   endpoint the engine seeded arrives as ids with no filter: every id
//!   already passed it, so only the ids are tested. No plan, no SQL
//!   `Expr`, no join.
//!
//! Scans pick an index access path per pushed-down conjunct: hash-index
//! point/IN lookups, B-tree ranges for integer comparisons, and for `LIKE`
//! one pattern test per distinct string of the column (narrowed, when the
//! pattern has a literal run of ≥ 3 bytes, to the strings under that run's
//! rarest trigram), whose rows come from the hash postings. Each path
//! returns exactly the rows its own conjunct selects, ascending, and knows
//! how many before it copies one (`Postings::count`, which the engine's
//! scheduler prices patterns by). A scan materializes the path that counts
//! fewest rows and tests the other conjuncts on each of them — none for a
//! one-conjunct predicate (an IOC seed) — so index choice is purely a
//! performance decision.
//!
//! **Vectorized scans**: a scan's bound conjuncts are compiled once into a
//! `ScanPred` — `IN` lists become hash sets, propagated ids stay their
//! sorted slice, type mismatches and dictionary misses fold to constants —
//! and a full scan is one mask loop over the table's contiguous column
//! slices (`range_select` over `0..table.len()`), emitting an ascending
//! **selection vector** of row ids. Joins, projection and `ResultBatch`
//! construction consume selection vectors; rows are never materialized
//! inside the scan. Everything runs on the calling thread.

use std::ops::Range;

use raptor_common::error::{Error, Result};
use raptor_common::hash::{FxHashMap, FxHashSet};
use raptor_common::intern::{SharedDict, Sym};
use raptor_common::obs;
use raptor_storage::{EntityClass, EntitySel, Pred, Value as SVal};

use crate::db::Database;
use crate::like::{containment_literal, like_match};
use crate::plan::QueryPlan;
use crate::sql::ast::{CmpOp, ColRef, Expr, Literal, Projection};
use crate::table::{RowId, Table};
use crate::value::Value;
use raptor_storage::{JoinIndex, ResultBatch, Tuples, ValueColumn};

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
pub(crate) struct Slot {
    alias: usize,
    col: usize,
}

impl Slot {
    /// Column `name` of `table`, bound alone (slot 0) — how a typed request
    /// addresses the one table it reads.
    pub(crate) fn of(table: &Table, name: &str) -> Result<Slot> {
        Ok(Slot { alias: 0, col: table.schema.require_column(name)? })
    }
}

/// The relational store's one predicate form: columns resolved to slots,
/// string literals bound to dictionary handles so per-row equality is an
/// integer compare. SQL text binds to it through the planner's `Binder`, a
/// typed request's [`Pred`] through [`bind_pred`]; `LIKE` patterns,
/// dictionary-miss literals and propagated ids (`InIds`: a request's
/// `id_in`, sorted and distinct) are borrowed from what was bound, never
/// copied. `Const` is a typed atom over an attribute the table lacks: what
/// the atom makes of a NULL cell (false, or true under a negated `LIKE` /
/// `IN`).
#[derive(Clone, Debug)]
pub(crate) enum BExpr<'a> {
    CmpLit { slot: Slot, op: CmpOp, lit: BLit<'a> },
    CmpCol { left: Slot, op: CmpOp, right: Slot },
    Like { slot: Slot, pattern: &'a str, negated: bool },
    InList { slot: Slot, set: Vec<BLit<'a>>, negated: bool },
    InIds { slot: Slot, ids: &'a [i64] },
    Const(bool),
    And(Box<BExpr<'a>>, Box<BExpr<'a>>),
    Or(Box<BExpr<'a>>, Box<BExpr<'a>>),
    Not(Box<BExpr<'a>>),
}

#[derive(Clone, Copy, Debug)]
pub(crate) enum BLit<'a> {
    Int(i64),
    /// An interned string literal: equality against a row cell is a handle
    /// compare; ordered comparisons resolve both sides. A typed request's
    /// string arrives as one; parsed text binds through one dictionary
    /// lookup.
    Sym(Sym),
    /// A string literal absent from the dictionary: no row can equal it;
    /// ordered comparisons fall back to the raw text.
    Raw(&'a str),
}

impl BLit<'_> {
    /// The literal as an index key; `None` for a string the dictionary
    /// lacks, which equals no row.
    fn key(self) -> Option<Value> {
        match self {
            BLit::Int(i) => Some(Value::Int(i)),
            BLit::Sym(s) => Some(Value::Str(s)),
            BLit::Raw(_) => None,
        }
    }
}

/// Binds a typed predicate over `table`'s columns (slot 0): each attribute
/// resolves to its column, and a string value is already a dictionary
/// handle. Nothing is interned; type mismatches fold in
/// [`compile_scan_pred`], as for SQL text. An attribute outside the schema
/// reads as a NULL cell (`BExpr::Const`), so a typed request means the same
/// over every store's schema.
pub(crate) fn bind_pred<'a>(p: &'a Pred, table: &Table) -> Result<BExpr<'a>> {
    let lit = |v: &SVal| match v {
        SVal::Int(i) => Ok(BLit::Int(*i)),
        SVal::Str(s) => Ok(BLit::Sym(*s)),
        SVal::Null => Err(Error::semantic("NULL literals are not valid in predicates")),
    };
    let slot = |attr: &str| table.schema.column_index(attr).map(|col| Slot { alias: 0, col });
    let bind = |p| bind_pred(p, table).map(Box::new);
    Ok(match p {
        Pred::Cmp { attr, op, value } => {
            let lit = lit(value)?;
            slot(attr).map_or(BExpr::Const(false), |slot| BExpr::CmpLit { slot, op: *op, lit })
        }
        Pred::Like { attr, pattern, negated } => match slot(attr) {
            Some(slot) => BExpr::Like { slot, pattern, negated: *negated },
            None => BExpr::Const(*negated),
        },
        Pred::InSet { attr, negated, values } => {
            let set = values.iter().map(lit).collect::<Result<_>>()?;
            match slot(attr) {
                Some(slot) => BExpr::InList { slot, set, negated: *negated },
                None => BExpr::Const(*negated),
            }
        }
        Pred::And(a, b) => BExpr::And(bind(a)?, bind(b)?),
        Pred::Or(a, b) => BExpr::Or(bind(a)?, bind(b)?),
        Pred::Not(inner) => BExpr::Not(bind(inner)?),
    })
}

/// The bound conjuncts of an optional typed predicate over `table`.
pub(crate) fn bind_conjuncts<'a>(p: Option<&'a Pred>, table: &Table) -> Result<Vec<BExpr<'a>>> {
    p.map_or_else(Vec::new, Pred::conjuncts).into_iter().map(|c| bind_pred(c, table)).collect()
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

    fn bind_lit<'e>(&self, l: &'e Literal) -> BLit<'e> {
        match l {
            Literal::Int(i) => BLit::Int(*i),
            Literal::Str(s) => self.dict.get(s).map_or(BLit::Raw(s), BLit::Sym),
        }
    }

    fn bind<'e>(&self, e: &'e Expr) -> Result<BExpr<'e>> {
        Ok(match e {
            Expr::CmpLit { col, op, lit } => {
                BExpr::CmpLit { slot: self.bind_col(col)?, op: *op, lit: self.bind_lit(lit) }
            }
            Expr::CmpCol { left, op, right } => {
                BExpr::CmpCol { left: self.bind_col(left)?, op: *op, right: self.bind_col(right)? }
            }
            Expr::Like { col, pattern, negated } => {
                BExpr::Like { slot: self.bind_col(col)?, pattern, negated: *negated }
            }
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

fn cmp_values(v: Value, op: CmpOp, lit: &BLit<'_>, dict: &SharedDict) -> bool {
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
            dict.resolve(s).cmp(raw)
        }
        // Type mismatch or NULL: no comparison holds (SQL-ish semantics).
        _ => return false,
    };
    ord_ok(ord, op)
}

fn eval(e: &BExpr<'_>, tuple: &[RowId], tables: &[&Table], dict: &SharedDict) -> bool {
    let cell = |slot: &Slot| tables[slot.alias].cell(tuple[slot.alias], slot.col);
    match e {
        BExpr::CmpLit { slot, op, lit } => cmp_values(cell(slot), *op, lit, dict),
        BExpr::CmpCol { left, op, right } => {
            let (a, b) = (cell(left), cell(right));
            !a.is_null() && !b.is_null() && ord_ok(a.cmp_with(b, dict), *op)
        }
        BExpr::Like { slot, pattern, negated } => {
            let m = match cell(slot) {
                Value::Str(s) => like_match(pattern, dict.resolve(s)),
                _ => false,
            };
            m != *negated
        }
        BExpr::InList { slot, set, negated } => {
            let v = cell(slot);
            let m = set.iter().any(|l| cmp_values(v, CmpOp::Eq, l, dict));
            m != *negated
        }
        BExpr::InIds { slot, ids } => {
            cell(slot).as_int().is_some_and(|i| ids.binary_search(&i).is_ok())
        }
        BExpr::Const(b) => *b,
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

/// A bound predicate compiled for vectorized evaluation over one table's
/// column slices. Compilation happens once per scan: `IN` lists become
/// hash sets (the per-row membership test is O(1) instead of a linear
/// literal sweep), propagated ids stay their sorted slice, string literals
/// stay dictionary handles, and shapes that can never match the column's
/// declared type fold to [`ScanPred::Const`]. Semantics are exactly those
/// of the row-at-a-time `eval` over a single-alias tuple — the
/// equivalence suites pin this.
///
/// It is also the form another reader tests one row with: the graph store
/// compiles its endpoint filters and final-hop predicates through
/// [`compile_pred`] and decides each node's or edge's row by
/// [`ScanPred::holds`].
pub enum ScanPred<'a> {
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
        raw: &'a str,
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
        pattern: &'a str,
        negated: bool,
    },
    /// `Int`/`Time` column membership.
    InInts {
        col: usize,
        set: FxHashSet<i64>,
        negated: bool,
    },
    /// `Int`/`Time` column membership in sorted, distinct ids, by binary
    /// search.
    InIds {
        col: usize,
        ids: &'a [i64],
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
    And(Box<ScanPred<'a>>, Box<ScanPred<'a>>),
    Or(Box<ScanPred<'a>>, Box<ScanPred<'a>>),
    Not(Box<ScanPred<'a>>),
}

/// Compiles a bound single-table predicate for `table`. Only the column
/// of each slot is read: every slot must be `table`'s (guaranteed by
/// predicate pushdown and by [`bind_pred`]).
fn compile_scan_pred<'a>(e: &BExpr<'a>, table: &Table) -> ScanPred<'a> {
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
                match *lit {
                    BLit::Sym(s) => ScanPred::CmpSym { col, op: *op, lit: s },
                    BLit::Int(_) => ScanPred::Const(false),
                    BLit::Raw(raw) => match op {
                        // No row equals a literal absent from the dictionary.
                        CmpOp::Eq => ScanPred::Const(false),
                        // ...and every present string differs from it.
                        CmpOp::Ne => ScanPred::NotNull { col },
                        _ => ScanPred::CmpRaw { col, op: *op, raw },
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
                ScanPred::Like { col: slot.col, pattern, negated: *negated }
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
        BExpr::InIds { slot, ids } => match table.col_is_int(slot.col) {
            true => ScanPred::InIds { col: slot.col, ids },
            false => ScanPred::Const(false),
        },
        BExpr::Const(b) => ScanPred::Const(*b),
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

/// Compiles a typed predicate over `table`'s columns (`bind_pred`, then
/// `compile_scan_pred`): what an endpoint's filter is tested with.
pub fn compile_pred<'a>(p: &'a Pred, table: &Table) -> Result<ScanPred<'a>> {
    Ok(compile_scan_pred(&bind_pred(p, table)?, table))
}

impl ScanPred<'_> {
    /// Does row `row` of `table`, the table the predicate was compiled
    /// for, satisfy it?
    pub fn holds(&self, table: &Table, row: RowId, dict: &SharedDict) -> bool {
        test_row(self, table, row, dict)
    }
}

/// Compiles the conjunction of `conjuncts` (true for none).
fn compile_conjuncts<'a, 'b: 'a>(
    conjuncts: impl IntoIterator<Item = &'a BExpr<'b>>,
    table: &Table,
) -> ScanPred<'b> {
    let compiled = conjuncts.into_iter().map(|c| compile_scan_pred(c, table));
    compiled.reduce(|a, b| ScanPred::And(Box::new(a), Box::new(b))).unwrap_or(ScanPred::Const(true))
}

/// The cells of an integer column a kernel reads: `compile_scan_pred`
/// emits integer kernels over `Int`/`Time` columns only.
#[allow(clippy::expect_used)]
fn ints(table: &Table, col: usize) -> &[i64] {
    table.int_cells(col).expect("an integer kernel reads an integer column")
}

/// The cells of a string column a kernel reads: `compile_scan_pred` emits
/// string kernels over `Str` columns only.
#[allow(clippy::expect_used)]
fn syms(table: &Table, col: usize) -> &[Sym] {
    table.sym_cells(col).expect("a string kernel reads a string column")
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

/// `mask`, each lane negated when `negated`.
fn flip_if(mut mask: Vec<bool>, negated: bool) -> Vec<bool> {
    if negated {
        mask.iter_mut().for_each(|b| *b = !*b);
    }
    mask
}

/// Evaluates `p` over the rows of `range` as a boolean mask (one lane per
/// row, in row order).
fn eval_mask(
    p: &ScanPred<'_>,
    table: &Table,
    range: &Range<usize>,
    dict: &SharedDict,
) -> Vec<bool> {
    let n = range.len();
    let slice_nulls = |col: usize| -> Option<&[bool]> {
        table.col_has_nulls(col).then(|| &table.null_flags(col)[range.clone()])
    };
    match p {
        ScanPred::CmpInt { col, op, lit } => {
            let xs = &ints(table, *col)[range.clone()];
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
            let xs = &syms(table, *col)[range.clone()];
            let ns = slice_nulls(*col);
            match op {
                CmpOp::Eq => lit_mask(xs, ns, |s| s == *lit),
                CmpOp::Ne => lit_mask(xs, ns, |s| s != *lit),
                _ => {
                    let ls = dict.resolve(*lit);
                    lit_mask(xs, ns, |s| ord_ok(dict.resolve(s).cmp(ls), *op))
                }
            }
        }
        ScanPred::CmpRaw { col, op, raw } => {
            let xs = &syms(table, *col)[range.clone()];
            let ns = slice_nulls(*col);
            lit_mask(xs, ns, |s| ord_ok(dict.resolve(s).cmp(raw.as_ref()), *op))
        }
        ScanPred::NotNull { col } => match slice_nulls(*col) {
            None => vec![true; n],
            Some(ns) => ns.iter().map(|&b| !b).collect(),
        },
        ScanPred::Like { col, pattern, negated } => {
            let xs = &syms(table, *col)[range.clone()];
            let ns = slice_nulls(*col);
            flip_if(lit_mask(xs, ns, |s| like_match(pattern, dict.resolve(s))), *negated)
        }
        ScanPred::InInts { col, set, negated } => {
            let xs = &ints(table, *col)[range.clone()];
            flip_if(lit_mask(xs, slice_nulls(*col), |v| set.contains(&v)), *negated)
        }
        ScanPred::InIds { col, ids } => {
            let xs = &ints(table, *col)[range.clone()];
            lit_mask(xs, slice_nulls(*col), |v| ids.binary_search(&v).is_ok())
        }
        ScanPred::InSyms { col, set, negated } => {
            let xs = &syms(table, *col)[range.clone()];
            flip_if(lit_mask(xs, slice_nulls(*col), |s| set.contains(&s)), *negated)
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
        ScanPred::Not(inner) => flip_if(eval_mask(inner, table, range, dict), true),
    }
}

/// Evaluates `p` over the rows of `range`, appending matching row ids (in
/// ascending row order) to the selection vector `out`.
fn range_select(
    p: &ScanPred<'_>,
    table: &Table,
    range: Range<usize>,
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
fn test_row(p: &ScanPred<'_>, table: &Table, row: RowId, dict: &SharedDict) -> bool {
    let i = row as usize;
    let is_null = |col: usize| table.col_has_nulls(col) && table.null_flags(col)[i];
    match p {
        ScanPred::CmpInt { col, op, lit } => {
            !is_null(*col) && ord_ok(ints(table, *col)[i].cmp(lit), *op)
        }
        ScanPred::CmpSym { col, op, lit } => {
            if is_null(*col) {
                return false;
            }
            let s = syms(table, *col)[i];
            match op {
                CmpOp::Eq => s == *lit,
                CmpOp::Ne => s != *lit,
                _ => ord_ok(dict.resolve(s).cmp(dict.resolve(*lit)), *op),
            }
        }
        ScanPred::CmpRaw { col, op, raw } => {
            !is_null(*col) && ord_ok(dict.resolve(syms(table, *col)[i]).cmp(raw.as_ref()), *op)
        }
        ScanPred::NotNull { col } => !is_null(*col),
        ScanPred::Like { col, pattern, negated } => {
            let m = !is_null(*col) && like_match(pattern, dict.resolve(syms(table, *col)[i]));
            m != *negated
        }
        ScanPred::InInts { col, set, negated } => {
            let m = !is_null(*col) && set.contains(&ints(table, *col)[i]);
            m != *negated
        }
        ScanPred::InIds { col, ids } => {
            !is_null(*col) && ids.binary_search(&ints(table, *col)[i]).is_ok()
        }
        ScanPred::InSyms { col, set, negated } => {
            let m = !is_null(*col) && set.contains(&syms(table, *col)[i]);
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

/// The rows one indexable conjunct selects, as the postings of the keys it
/// matches: one `=` key, the distinct keys of an `IN` list (or the
/// propagated ids), the B-tree keys in a range, or the strings that pass a
/// `LIKE`. Distinct keys have disjoint postings, so the count is exact
/// before any row is copied.
pub(crate) struct Postings<'a>(Vec<&'a [RowId]>);

impl Postings<'_> {
    /// How many rows the conjunct selects.
    pub(crate) fn count(&self) -> usize {
        self.0.iter().map(|p| p.len()).sum()
    }

    /// The rows, ascending — the order every access path and the full scan
    /// return (a B-tree range's postings come in key order).
    fn rows(self) -> Vec<RowId> {
        match self.0.as_slice() {
            [one] => one.to_vec(),
            many => {
                let mut rows = many.concat();
                rows.sort_unstable();
                rows
            }
        }
    }
}

/// The index access path of one bound conjunct over `table`, if one
/// applies: its [`Postings`], read from the equality index — hash or
/// entity-id — (`=`, `IN`, the propagated ids), the hash index (`LIKE`
/// tested once per distinct string — the strings under the rarest trigram
/// of its longest literal run, or else every string key of the hash index,
/// the column's dictionary) or the B-tree (integer comparisons). `None` if
/// no index serves the conjunct's shape.
pub(crate) fn access_path<'a>(
    db: &'a Database,
    table: &str,
    conjunct: &BExpr<'_>,
) -> Option<Postings<'a>> {
    let equality = |slot: &Slot| {
        db.indexes(table, slot.col).filter(|ix| ix.hash.is_some() || ix.entity.is_some())
    };
    match conjunct {
        BExpr::CmpLit { slot, op: CmpOp::Eq, lit } => {
            let idx = equality(slot)?;
            Some(Postings(lit.key().map(|k| idx.equal_rows(k)).into_iter().collect()))
        }
        BExpr::InList { slot, set, negated: false } => {
            let idx = equality(slot)?;
            // A repeated key selects its rows once.
            let mut keys: Vec<Value> = set.iter().filter_map(|l| l.key()).collect();
            keys.sort_unstable_by_key(|k| match *k {
                Value::Int(i) => (0, i),
                Value::Str(s) => (1, s.index() as i64),
                Value::Null => (2, 0),
            });
            keys.dedup();
            Some(Postings(keys.into_iter().map(|k| idx.equal_rows(k)).collect()))
        }
        // Sorted and distinct already: one posting per id.
        BExpr::InIds { slot, ids } => {
            let idx = equality(slot)?;
            Some(Postings(ids.iter().map(|&id| idx.equal_rows(Value::Int(id))).collect()))
        }
        BExpr::CmpLit { slot, op, lit: BLit::Int(i) } => {
            let idx = db.indexes(table, slot.col)?.btree.as_ref()?;
            let (lo, hi) = match op {
                CmpOp::Lt => (Some(i64::MIN), i.checked_sub(1)),
                CmpOp::Le => (Some(i64::MIN), Some(*i)),
                CmpOp::Gt => (i.checked_add(1), Some(i64::MAX)),
                CmpOp::Ge => (Some(*i), Some(i64::MAX)),
                _ => return None,
            };
            // `< i64::MIN` and `> i64::MAX` hold for no row.
            Some(Postings(lo.zip(hi).map_or_else(Vec::new, |(lo, hi)| idx.range(lo, hi).collect())))
        }
        BExpr::Like { slot, pattern, negated: false } => {
            let ix = db.indexes(table, slot.col)?;
            let hash = ix.hash.as_ref()?;
            let pruned = containment_literal(pattern)
                .zip(ix.trigram.as_ref())
                .and_then(|(lit, trigram)| trigram.candidates(lit));
            let passes = |sym: &Sym| like_match(pattern, db.dict().resolve(*sym));
            let postings = |syms: &mut dyn Iterator<Item = Sym>| {
                syms.filter(passes).map(|sym| hash.get(Value::Str(sym))).collect()
            };
            Some(Postings(match pruned {
                Some(candidates) => postings(&mut candidates.iter().copied()),
                None => postings(&mut hash.syms()),
            }))
        }
        _ => None,
    }
}

pub fn table_named<'a>(db: &'a Database, name: &str) -> Result<&'a Table> {
    db.table(name).ok_or_else(|| Error::storage(format!("unknown table `{name}`")))
}

/// Runs one scan of `table_name` for the conjunction of `conjuncts` (every
/// row for none) as one `relstore.scan` span.
///
/// The access path is **counted**: every indexable conjunct's [`Postings`]
/// are read (their lengths, not their rows), the one selecting the fewest
/// rows — the first on a tie — is materialized, and the other conjuncts
/// are tested on each of its rows; that path's own conjunct holds on every
/// one by [`access_path`]'s contract, and a one-conjunct predicate has
/// nothing left to test. The rows come back ascending, so no result
/// depends on which path served it.
pub(crate) fn run_scan(
    db: &Database,
    table_name: &str,
    conjuncts: &[BExpr<'_>],
    stats: &mut ExecStats,
) -> Result<Vec<RowId>> {
    // One span per table scan.
    let mut sp = obs::span("relstore.scan");
    sp.label(table_name);
    let before = *stats;
    let rows = scan_rows(db, table_name, conjuncts, stats)?;
    sp.attr("rows", rows.len() as u64);
    sp.attr("scanned", (stats.rows_scanned - before.rows_scanned) as u64);
    Ok(rows)
}

fn scan_rows(
    db: &Database,
    table_name: &str,
    conjuncts: &[BExpr<'_>],
    stats: &mut ExecStats,
) -> Result<Vec<RowId>> {
    let table = table_named(db, table_name)?;
    if conjuncts.is_empty() {
        // Unfiltered scan: every row selected.
        stats.full_scans += 1;
        stats.rows_scanned += table.len();
        return Ok((0..table.len() as RowId).collect());
    }

    let dict = db.dict();
    let indexed = (conjuncts.iter().enumerate())
        .filter_map(|(i, c)| Some((i, access_path(db, table_name, c)?)))
        .min_by_key(|(_, path)| path.count());
    if let Some((served, path)) = indexed {
        let mut rows = path.rows();
        stats.index_scans += 1;
        stats.rows_scanned += rows.len();
        let rest =
            compile_conjuncts(conjuncts[..served].iter().chain(&conjuncts[served + 1..]), table);
        rows.retain(|&row| test_row(&rest, table, row, dict));
        return Ok(rows);
    }

    // Vectorized full scan: one mask loop over the contiguous column
    // slices, emitting an ascending selection vector.
    stats.full_scans += 1;
    stats.rows_scanned += table.len();
    let mut out = Vec::new();
    range_select(&compile_conjuncts(conjuncts, table), table, 0..table.len(), dict, &mut out);
    Ok(out)
}

/// One endpoint of a pattern, resolved against the database: the entity
/// class it must be of, and what the entity's own row must satisfy.
/// `match_event_rows` finds each event's endpoint by id in the entity
/// directory; the graph store, whose nodes are directory entries, tests
/// the row directly.
pub struct Endpoint<'a> {
    db: &'a Database,
    class: EntityClass,
    table: &'a Table,
    /// The class table's `id` column: row `r` holds entity `ids[r]`.
    pub ids: &'a [i64],
    filter: Option<ScanPred<'a>>,
}

/// The `id` cells of an entity class table. Entity ids are dense and
/// appended in order (the appender refuses anything else), so they ascend.
pub fn entity_ids(table: &Table) -> Result<&[i64]> {
    let c = table.schema.require_column("id")?;
    table.int_cells(c).ok_or_else(|| {
        Error::storage(format!("`{}.id` is not an integer column", table.schema.name))
    })
}

impl<'a> Endpoint<'a> {
    pub fn resolve(db: &'a Database, sel: &'a EntitySel) -> Result<Self> {
        let table = table_named(db, sel.class.table_name())?;
        let filter = sel.filter.as_ref().map(|f| compile_pred(f, table)).transpose()?;
        Ok(Endpoint { db, class: sel.class, table, ids: entity_ids(table)?, filter })
    }

    /// Does row `row` of the class table pass the endpoint's filter?
    pub fn passes(&self, row: RowId, dict: &SharedDict) -> bool {
        self.filter.as_ref().is_none_or(|f| test_row(f, self.table, row, dict))
    }

    /// Is the entity `id` of the endpoint's class, and does it pass its
    /// filter? Ids are keys, so there is one row to test or none.
    fn hit(&self, id: i64, dict: &SharedDict, stats: &mut ExecStats) -> bool {
        let Some(e) = self.db.entity(id).filter(|e| e.class == self.class) else { return false };
        stats.rows_scanned += 1;
        self.passes(e.row, dict)
    }
}

/// Matches `subject —event→ object` over `events`, the one event-pattern
/// matcher. The event rows `event_filter` (conjuncts bound over `events`)
/// selects come from one of two sources:
///
/// * `Some(range)` — a standing query's epoch: one mask over just those
///   rows. The cost depends on the range and on nothing else: no index
///   over `events`.
/// * `None` — a batch query: one [`run_scan`] of the whole table, which
///   picks the access path selecting the fewest rows, by count.
///
/// The endpoints' propagated ids are the caller's `subject IN` / `object
/// IN` conjuncts in `event_filter`. Each selected row's `subject`/`object`
/// is then found in its endpoint's table by id and its filter tested there. Returns the `(subject id,
/// object id, event id, starttime, endtime)` columns, in event row order —
/// the rows a join of the three tables over those events would return.
pub(crate) fn match_event_rows(
    db: &Database,
    rows: Option<Range<usize>>,
    event_filter: &[BExpr<'_>],
    subject: &EntitySel,
    object: &EntitySel,
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
            stats.rows_scanned += rows.len();
            let mut sel = Vec::new();
            range_select(&compile_conjuncts(event_filter, events), events, rows, dict, &mut sel);
            sel
        }
        None => run_scan(db, "events", event_filter, stats)?,
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
        if !(subject.hit(s, dict, stats) && object.hit(o, dict, stats)) {
            continue;
        }
        let [id, start, end] = event_cols.map(|c| events.cell(row, c).as_int().unwrap_or(-1));
        for (col, v) in out.iter_mut().zip([s, o, id, start, end]) {
            col.push(v);
        }
        stats.tuples_built += 1;
    }
    Ok(out)
}

/// An equi-join key extracted from a residual conjunct.
struct EquiKey {
    bound: Slot,
    new: Slot,
}

/// One side of a typed join key: a dense column's cells as raw bits.
enum KeyCol<'a> {
    I(&'a [i64]),
    S(&'a [Sym]),
}

impl<'a> KeyCol<'a> {
    /// Both sides of an equi key, when each is a dense column and the two
    /// have one type: then raw-bit equality is exactly `Value` equality.
    fn pair(bt: &'a Table, bc: usize, nt: &'a Table, nc: usize) -> Option<(Self, Self)> {
        match (bt.int_cells(bc), nt.int_cells(nc), bt.sym_cells(bc), nt.sym_cells(nc)) {
            _ if bt.col_has_nulls(bc) || nt.col_has_nulls(nc) => None,
            (Some(b), Some(n), ..) => Some((KeyCol::I(b), KeyCol::I(n))),
            (.., Some(b), Some(n)) => Some((KeyCol::S(b), KeyCol::S(n))),
            _ => None,
        }
    }

    #[inline]
    fn at(&self, r: RowId) -> u64 {
        match self {
            KeyCol::I(v) => v[r as usize] as u64,
            KeyCol::S(v) => u64::from(v[r as usize].0),
        }
    }
}

/// Executes a plan, returning the projected columns.
pub fn execute(db: &Database, plan: &QueryPlan) -> Result<(ResultBatch, ExecStats)> {
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

    // Bind residuals once, each with the last alias it reads (it applies
    // once that alias is bound); track which are already applied.
    let residual_bound: Vec<(BExpr<'_>, usize)> = plan
        .residuals
        .iter()
        .map(|r| {
            let b = binder.bind(r)?;
            let mut cols = Vec::new();
            r.collect_cols(&mut cols);
            let last = cols.iter().try_fold(0, |last, c| Ok(binder.bind_col(c)?.alias.max(last)));
            Ok((b, last?))
        })
        .collect::<Result<Vec<_>>>()?;
    let mut residual_done = vec![false; residual_bound.len()];

    // Left-deep pipeline: aliases bind in FROM order, so slot k of a tuple
    // is alias k's row id.
    let mut tuples = Tuples::new(Vec::new());

    for (slot, scan) in plan.scans.iter().enumerate() {
        // The pushed-down conjuncts read this slot's table alone.
        let conjuncts = scan.conjuncts.iter().map(|c| binder.bind(c));
        let rows = run_scan(db, &scan.table, &conjuncts.collect::<Result<Vec<_>>>()?, &mut stats)?;
        if slot == 0 {
            tuples = Tuples::new(rows);
        } else {
            let mut sp = obs::span("relstore.join");
            sp.label(&scan.alias);
            sp.attr("probe", tuples.len() as u64);
            sp.attr("build", rows.len() as u64);
            // Find equi-join keys connecting `slot` to already-bound slots.
            let mut keys: Vec<EquiKey> = Vec::new();
            for (i, (b, _)) in residual_bound.iter().enumerate() {
                if residual_done[i] {
                    continue;
                }
                if let BExpr::CmpCol { left, op: CmpOp::Eq, right } = b {
                    let connects = |a: &Slot, b: &Slot| a.alias == slot && b.alias < slot;
                    if connects(right, left) {
                        keys.push(EquiKey { bound: *left, new: *right });
                        residual_done[i] = true;
                    } else if connects(left, right) {
                        keys.push(EquiKey { bound: *right, new: *left });
                        residual_done[i] = true;
                    }
                }
            }
            // Hash join on the equi keys, built on the new scan's rows in
            // scan order. Each typed key is read straight off the column
            // slices; one hashes as a `u64`, up to four pack into a
            // `[u64; 4]`. Other keys fall back to `Value`s.
            let nt = tables[slot];
            let build = |i: u32| rows[i as usize];
            let typed: Option<Vec<(KeyCol<'_>, KeyCol<'_>, usize)>> = keys
                .iter()
                .map(|k| {
                    let (b, n) = KeyCol::pair(tables[k.bound.alias], k.bound.col, nt, k.new.col)?;
                    Some((b, n, k.bound.alias))
                })
                .collect();
            tuples = match typed {
                // Cartesian extension (rare: disconnected patterns).
                _ if keys.is_empty() => tuples.extend(|_| rows.iter().copied()),
                Some(cols) if cols.len() == 1 => {
                    let (b, n, a) = &cols[0];
                    let index = JoinIndex::build(rows.len(), |i| n.at(rows[i]));
                    tuples.extend(|t| index.rows(&b.at(t[*a])).map(build))
                }
                Some(cols) if cols.len() <= 4 => {
                    let index = JoinIndex::build(rows.len(), |i| {
                        let mut key = [0u64; 4];
                        for (key, (_, n, _)) in key.iter_mut().zip(&cols) {
                            *key = n.at(rows[i]);
                        }
                        key
                    });
                    tuples.extend(|t| {
                        let mut key = [0u64; 4];
                        for (key, (b, _, a)) in key.iter_mut().zip(&cols) {
                            *key = b.at(t[*a]);
                        }
                        index.rows(&key).map(build)
                    })
                }
                None if keys.len() == 1 => {
                    let (k, bt) = (&keys[0], tables[keys[0].bound.alias]);
                    let index = JoinIndex::build(rows.len(), |i| nt.cell(rows[i], k.new.col));
                    tuples
                        .extend(|t| index.rows(&bt.cell(t[k.bound.alias], k.bound.col)).map(build))
                }
                _ => {
                    let new_key = |r: RowId| -> Vec<Value> {
                        keys.iter().map(|k| nt.cell(r, k.new.col)).collect()
                    };
                    let index = JoinIndex::build(rows.len(), |i| new_key(rows[i]));
                    tuples.extend(|t| {
                        let key: Vec<Value> = keys
                            .iter()
                            .map(|k| tables[k.bound.alias].cell(t[k.bound.alias], k.bound.col))
                            .collect();
                        index.rows(&key).map(build)
                    })
                }
            };
            sp.attr("tuples", tuples.len() as u64);
        }
        stats.tuples_built += tuples.len();

        // Apply any residual whose slots are now all bound.
        for (i, (b, last)) in residual_bound.iter().enumerate() {
            if residual_done[i] {
                continue;
            }
            if *last <= slot {
                tuples.retain(|_, t| eval(b, t, &tables, db.dict()));
                residual_done[i] = true;
            }
        }
    }

    // Projection: each projected column gathers straight from table
    // storage through the surviving tuples — rows are never materialized.
    // Dense columns stay typed vectors (`Vec<i64>`/`Vec<Sym>`); only
    // nullable columns fall back to `Mixed`. DISTINCT, ORDER BY and LIMIT
    // then run on the batch, in that order.
    if plan.projections == [Projection::CountStar] {
        let cols = vec![ValueColumn::Int(vec![tuples.len() as i64])];
        return Ok((ResultBatch::new(vec!["count".into()], cols, db.dict().clone()), stats));
    }
    let mut columns = Vec::with_capacity(plan.projections.len());
    let mut slots = Vec::with_capacity(plan.projections.len());
    for p in &plan.projections {
        let Projection::Col(c) = p else {
            return Err(Error::semantic("COUNT(*) must be the only projection"));
        };
        columns.push(c.to_string());
        slots.push(binder.bind_col(c)?);
    }
    let cols = slots.iter().map(|s| {
        let t = tables[s.alias];
        let dense = !t.col_has_nulls(s.col);
        match (t.int_cells(s.col), t.sym_cells(s.col)) {
            (Some(ints), _) if dense => ValueColumn::Int(tuples.gather(s.alias, ints)),
            (_, Some(syms)) if dense => ValueColumn::Str(tuples.gather(s.alias, syms)),
            _ => ValueColumn::Mixed(tuples.map(s.alias, |r| t.cell(r, s.col))),
        }
    });
    let mut batch = ResultBatch::new(columns, cols.collect(), db.dict().clone());
    if plan.distinct {
        batch.dedup_rows();
    }
    if !plan.order_by.is_empty() {
        // Sorting is on projected columns: each ORDER BY column is one.
        let keys = plan.order_by.iter().map(|c| {
            let o = binder.bind_col(c)?;
            slots
                .iter()
                .position(|s| (s.alias, s.col) == (o.alias, o.col))
                .ok_or_else(|| Error::semantic("ORDER BY column must appear in the SELECT list"))
        });
        let keys = keys.collect::<Result<Vec<_>>>()?;
        let mut perm: Vec<usize> = (0..batch.n_rows()).collect();
        perm.sort_by(|&a, &b| {
            keys.iter()
                .map(|&k| batch.cols[k].get(a).cmp_with(batch.cols[k].get(b), &batch.dict))
                .find(|o| o.is_ne())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        batch = batch.select(&perm);
    }
    if let Some(n) = plan.limit {
        batch.truncate(n);
    }
    Ok((batch, stats))
}

#[cfg(test)]
mod tests {
    use crate::schema::{ColumnDef, ColumnType, TableSchema};
    use crate::Database;

    /// An indexed conjunct over an empty table, or `=` against a string the
    /// dictionary lacks, is an index scan of an empty posting: zero rows
    /// read, nothing returned.
    #[test]
    fn empty_indexed_table_scans_nothing() {
        let mut db = Database::new();
        let cols = [("id", ColumnType::Int), ("v", ColumnType::Int), ("s", ColumnType::Str)];
        let cols = cols.into_iter().map(|(name, ty)| ColumnDef::new(name, ty)).collect();
        db.create_table(TableSchema::new("t", cols)).unwrap();
        db.create_hash_index("t", "v").unwrap();
        db.create_hash_index("t", "s").unwrap();
        for sql in ["SELECT id FROM t WHERE v = 1", "SELECT id FROM t WHERE s = 'absent'"] {
            let r = db.query(sql).unwrap();
            assert_eq!(r.batch.n_rows(), 0);
            let stats = (r.stats.full_scans, r.stats.index_scans, r.stats.rows_scanned);
            assert_eq!(stats, (0, 1, 0), "{sql}");
        }
    }

    /// A B-tree bound past the end of the integer range selects no row: it
    /// neither overflows nor wraps around to the whole range — which a
    /// one-conjunct scan would return unchecked.
    #[test]
    fn btree_bound_past_the_integer_range_selects_nothing() {
        use super::{run_scan, BExpr, BLit, ExecStats, Slot};
        use crate::sql::ast::CmpOp;
        let mut db = Database::new();
        let cols =
            vec![ColumnDef::new("id", ColumnType::Int), ColumnDef::new("v", ColumnType::Int)];
        db.create_table(TableSchema::new("t", cols)).unwrap();
        db.create_btree_index("t", "v").unwrap();
        for v in [i64::MIN, 0, i64::MAX] {
            db.insert("t", &[crate::db::Ins::Int(v), crate::db::Ins::Int(v)]).unwrap();
        }
        for (op, lit) in [(CmpOp::Lt, i64::MIN), (CmpOp::Gt, i64::MAX)] {
            let slot = Slot::of(db.table("t").unwrap(), "v").unwrap();
            let pred = BExpr::CmpLit { slot, op, lit: BLit::Int(lit) };
            let mut stats = ExecStats::default();
            assert_eq!(run_scan(&db, "t", &[pred], &mut stats).unwrap(), vec![]);
            assert_eq!((stats.index_scans, stats.rows_scanned), (1, 0));
        }
    }
}
