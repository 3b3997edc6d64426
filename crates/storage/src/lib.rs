//! The typed value plane between the query engine and its storage backends.
//!
//! Historically the engine rendered every scheduled pattern to a SQL/Cypher
//! *string*, had the store re-parse it, and got `Vec<Vec<String>>` rows back
//! that it re-parsed into `i64` ids to join. This crate is the replacement
//! seam:
//!
//! * [`value`] — [`Value`] (Null / Int / Str-as-`Sym`) and the columnar
//!   [`ResultBatch`]: the one shape of a query result below the display
//!   edge. Both stores' text executors, the engine's scheduled join and a
//!   standing query's cumulative rows are batches. String cells are
//!   handles into the shared dictionary plane (`raptor_common::SharedDict`)
//!   both backends intern into, so equality is an integer compare
//!   end-to-end; rendering to display strings happens once, at the edge.
//! * [`join`] — [`Tuples`], flat left-deep join state (one row index per
//!   bound input), and [`JoinIndex`], a hash build side without a vector
//!   per key: the one join state of the engine's cross-pattern join and
//!   the relational store's SQL join.
//! * [`request`] — typed descriptions of the two pattern shapes the
//!   scheduler issues: [`EventPatternQuery`] (event patterns with
//!   pushed-down predicates and propagated `IN` id sets) and
//!   [`PathPatternQuery`] (variable-length path patterns).
//! * [`backend`] — [`MutableBackend`], the append seam both stores
//!   implement, and [`BackendStats`], the unified execution counters. The
//!   typed reads are inherent methods of each store: the relational one
//!   answers candidates, event patterns and attribute fetches, the graph one
//!   path patterns, neither through its text parser.
//!
//! There is no statistics plane: the stores live in memory and every
//! filtered column has an exact index, so the scheduler and the relational
//! planner count rows from those indexes (`Database::conjunct_count`,
//! `Database::event_pattern_price`) instead of estimating them.
//!
//! The SQL/Cypher text parsers remain the entry point for the giant-query
//! baseline modes; this crate deliberately knows nothing about them.

pub mod backend;
pub mod join;
pub mod posting;
pub mod request;
pub mod value;

pub use backend::{dense_entity_id, AttrSource, BackendStats, Field, FieldValue, MutableBackend};
pub use join::{JoinIndex, Tuples};
pub use posting::Posting;
pub use request::{CmpOp, EntityClass, EntitySel, EventPatternQuery, PathPatternQuery, Pred};
pub use value::{PatternMatches, ResultBatch, Value, ValueColumn};
