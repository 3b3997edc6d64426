//! An embedded graph engine with a Cypher subset, over the relational rows.
//!
//! ThreatRaptor stores system entities as nodes and system events as edges
//! in Neo4j, and compiles TBQL *variable-length event path patterns* into
//! Cypher data queries (Sections III-B, III-F). This crate is the Neo4j
//! stand-in. It keeps no copy of the data and no adjacency of its own: the
//! paper's Neo4j holds its own copy because it is a separate DBMS, while
//! here both stores live in one process, so the graph is a view of the
//! relational store, which owns adjacency — its entity directory and the
//! entity-id index on `events.subject` — and every property.
//!
//! * [`graph`] — the view ([`Topology`]): a node is an entity's directory
//!   entry (class and class-table row), an edge an `events` row, a node's
//!   out-edges its `subject` posting; and the facade's counting shim,
//! * [`backend`] — the typed path matcher,
//! * [`frontier`] — its incremental form for standing queries,
//! * [`cypher`] — AST, parser and executor for the Cypher subset the
//!   compiled queries need: `MATCH` with fixed and variable-length
//!   (`[:EVENT*2..4]`) relationship patterns, property maps, `WHERE` with
//!   comparisons / `CONTAINS` / `STARTS WITH` / `ENDS WITH` / `IN`,
//!   `RETURN [DISTINCT]`, `LIMIT`.
//!
//! Deviation from Neo4j worth knowing: relationship uniqueness is enforced
//! *within* each variable-length segment (preventing cycles from looping
//! forever) but not across separate pattern parts — TBQL patterns are
//! independent constraints, so two event patterns may legitimately match the
//! same stored event.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

pub mod backend;
pub mod cypher;
pub mod frontier;
pub mod graph;
#[cfg(test)]
mod testkit;

pub use backend::match_path_pattern;
pub use cypher::exec::{CypherResult, GraphQueryStats};
pub use frontier::PathFrontier;
pub use graph::{EdgeId, Graph, NodeId, Topology};
