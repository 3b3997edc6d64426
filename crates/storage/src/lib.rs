//! The typed value plane between the query engine and its storage backends.
//!
//! Historically the engine rendered every scheduled pattern to a SQL/Cypher
//! *string*, had the store re-parse it, and got `Vec<Vec<String>>` rows back
//! that it re-parsed into `i64` ids to join. This crate is the replacement
//! seam:
//!
//! * [`value`] — [`Value`] (Null / Int / Str-as-`Sym`) and the columnar
//!   [`ResultBatch`]: the internal currency of query results. String cells
//!   are handles into the shared dictionary plane
//!   (`raptor_common::SharedDict`) both backends intern into, so equality
//!   is an integer compare end-to-end; rendering to display strings
//!   happens once, at the edge.
//! * [`request`] — typed descriptions of the two pattern shapes the
//!   scheduler issues: [`EventPatternQuery`] (event patterns with
//!   pushed-down predicates and propagated `IN` id sets) and
//!   [`PathPatternQuery`] (variable-length path patterns).
//! * [`backend`] — [`MutableBackend`], the append seam both stores
//!   implement, and [`BackendStats`], the unified execution counters. The
//!   typed reads are inherent methods of each store: the relational one
//!   answers candidates, event patterns and attribute fetches, the graph one
//!   path patterns, neither through its text parser.
//! * [`stats`] — the statistics plane: [`TableStats`]/[`ColumnStats`]
//!   (row/distinct counts, top-k value frequencies, scaling equi-width
//!   histograms) and per-class [`DegreeStats`], maintained incrementally on
//!   the relational store's write path (the one copy) and served
//!   scan-free. The engine's cost-based scheduler and the relational
//!   planner's index selection both read from here.
//!
//! The SQL/Cypher text parsers remain the entry point for the giant-query
//! baseline modes; this crate deliberately knows nothing about them.

pub mod backend;
pub mod catalog;
pub mod posting;
pub mod request;
pub mod stats;
pub mod value;

pub use backend::{AttrSource, BackendStats, Field, FieldValue, MutableBackend};
pub use catalog::{CanonicalCatalog, PathCatalog, CATALOG_K};
pub use posting::Posting;
pub use request::{CmpOp, EntityClass, EntitySel, EventPatternQuery, PathPatternQuery, Pred};
pub use stats::{
    CanonicalStats, ColumnStats, DegreeStats, Histogram, MinMax, StoreStats, TableStats,
};
pub use value::{PatternMatches, ResultBatch, Value, ValueColumn};
