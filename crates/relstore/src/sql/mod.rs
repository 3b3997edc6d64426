//! The SQL subset.
//!
//! Compiled TBQL data queries (and the giant-query baselines) only need a
//! focused slice of SQL:
//!
//! ```sql
//! SELECT DISTINCT p1.exename, f1.name
//! FROM processes p1, events evt1, files f1
//! WHERE evt1.subject = p1.id AND evt1.object = f1.id
//!   AND evt1.optype = 'read' AND p1.exename LIKE '%/bin/tar%'
//!   AND evt1.starttime >= 1523026800000000000
//!   AND p1.id IN (1, 2, 3)
//! ORDER BY p1.exename LIMIT 10
//! ```
//!
//! Grammar: `SELECT [DISTINCT] (COUNT(*) | col[, col...]) FROM t [AS] a
//! [, t [AS] a ...] [WHERE expr] [ORDER BY col [, col...]] [LIMIT n]` with
//! the usual `OR < AND < NOT < cmp` precedence, `LIKE`/`NOT LIKE`,
//! `IN (...)`/`NOT IN (...)`, parentheses, integer and `'...'` string
//! literals (doubled-quote escaping). The lexer is the shared one,
//! [`raptor_common::lex::SQL`].

pub mod ast;
mod lexer;
pub mod parser;

pub use ast::{CmpOp, ColRef, Expr, Literal, Projection, Select, TableRef};
pub use parser::parse_select;
