//! An embedded relational engine with a SQL subset.
//!
//! ThreatRaptor stores parsed system entities and events in PostgreSQL and
//! compiles each TBQL event pattern into a small SQL data query
//! (Sections III-B, III-F). This crate is the PostgreSQL stand-in: an
//! in-process relational engine sized for audit workloads.
//!
//! Architecture, bottom to top:
//!
//! * [`value`] — 16-byte [`value::Value`] cells (integers, interned strings,
//!   null); strings intern into the shared dictionary plane
//!   (`raptor_common::SharedDict`) the engine hands the store,
//! * [`schema`] — column/table schemas and the catalog,
//! * [`table`] — columnar storage (one typed vector per column) with
//!   append-only inserts,
//! * [`index`] — hash (equality; for `LIKE`, the column's dictionary),
//!   B-tree (ranges) and trigram (`LIKE` pruning) secondary indexes — also
//!   the store's only statistics: the planner counts rows in them,
//! * [`like`] — SQL `LIKE` semantics plus literal-run extraction for the
//!   trigram index,
//! * [`sql`] — lexer, AST and recursive-descent parser for the SQL subset,
//! * [`plan`] — logical plans; single-table predicates are pushed into
//!   scans, joins stay in written order (deliberately: the paper's giant
//!   compiled queries "weave many joins and constraints together" and the
//!   engine must exhibit that cost so the TBQL scheduler has something real
//!   to beat),
//! * [`exec`] — the store's one predicate form (a bound expression, which
//!   SQL text and typed requests both bind to) and the executor: index
//!   scans, hash joins for equi predicates, nested loops + residual filters
//!   otherwise, over the join state of `raptor_storage::join`; and the
//!   typed event-pattern matcher (an `events` scan plus `id` probes, never
//!   planned),
//! * [`db`] — the [`db::Database`] facade: DDL, inserts, `query(sql)`,
//!   whose [`QueryResult`] is a `raptor_storage::ResultBatch` plus counters,
//! * [`backend`] — the typed surface the engine calls (seeding, event
//!   patterns, attribute fetches), whose predicates bind straight to that
//!   form, and the `MutableBackend` write seam,
//! * [`stats`] — the store's statistics, all of them exact counts read from
//!   the indexes: a conjunct's rows and an event pattern's price.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

pub mod backend;
pub mod db;
pub mod exec;
pub mod index;
pub mod like;
pub mod plan;
pub mod schema;
pub mod sql;
pub mod stats;
pub mod table;
pub mod value;

pub use db::{Database, EntityRow, QueryResult};
pub use schema::{ColumnDef, ColumnType, TableSchema};
pub use value::Value;
