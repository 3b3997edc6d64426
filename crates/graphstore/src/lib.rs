//! An embedded property-graph engine with a Cypher subset.
//!
//! ThreatRaptor stores system entities as nodes and system events as edges
//! in Neo4j, and compiles TBQL *variable-length event path patterns* into
//! Cypher data queries (Sections III-B, III-F). This crate is the Neo4j
//! stand-in:
//!
//! * [`graph`] — node/edge arenas with adjacency lists, labels, typed
//!   properties in per-shape columns, and per-(label, property) value indexes,
//! * [`cypher`] — lexer, AST, parser and executor for the Cypher subset the
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

pub mod backend;
pub mod cypher;
pub mod frontier;
pub mod graph;

pub use cypher::exec::{CypherResult, GraphQueryStats};
pub use frontier::PathFrontier;
pub use graph::{EdgeId, Graph, NodeId, PropValue};
