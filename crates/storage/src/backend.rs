//! The write seam ([`MutableBackend`]) and unified execution counters.
//!
//! Reads have no trait: the engine calls the relational store's inherent
//! `entity_candidates` / `match_event_pattern` / `fetch_attr` and the graph
//! store's `match_path_pattern` directly — each store answers only the
//! shapes its physical model serves.

use raptor_common::error::Result;
use raptor_common::intern::Sym;

use crate::request::EntityClass;

/// Where an attribute fetch reads from.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AttrSource {
    Entity(EntityClass),
    Event,
}

/// Unified execution counters across backends. Relational and graph
/// engines count different physical things; the shared vocabulary is:
/// `items_scanned` (rows / nodes), `items_built` (join tuples / bindings),
/// `items_inserted` (rows / nodes / edges appended through
/// [`MutableBackend`]), index vs full access paths, and — the typed plane's
/// invariant — `text_parses`, which stays 0 on every typed entry point.
///
/// The struct carries no epoch state of its own: streaming callers get
/// per-epoch reset semantics by passing a fresh `BackendStats` per ingest
/// batch and [`absorb`](BackendStats::absorb)-ing it into a running total.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BackendStats {
    /// Typed data queries served.
    pub data_queries: usize,
    /// SQL/Cypher texts parsed. Always 0 on the typed entry points; the
    /// giant-query baselines bump it at the engine level.
    pub text_parses: usize,
    /// Rows or nodes touched by scans/anchors.
    pub items_scanned: usize,
    /// Join tuples or path bindings materialized.
    pub items_built: usize,
    /// Records appended through [`MutableBackend`]: one per entity row/node
    /// and one per event row/edge. Always 0 on query entry points.
    pub items_inserted: usize,
    /// Scans served by an index access path.
    pub index_scans: usize,
    /// Scans that fell back to a full scan.
    pub full_scans: usize,
    /// Edges traversed (graph backends; 0 for relational).
    pub edges_traversed: usize,
    /// Columnar segments whose rows a full scan actually evaluated
    /// (relational backend; 0 for graph).
    pub segments_scanned: usize,
    /// Columnar segments refuted wholesale by their zone maps — no row
    /// inside was touched (relational backend; 0 for graph).
    pub segments_pruned: usize,
}

impl BackendStats {
    /// Counter-wise difference vs an earlier snapshot of the same stats —
    /// the per-data-query deltas the observability plane attaches to each
    /// issued query (`QueryInfo.delta` at the engine level).
    pub fn delta_since(&self, before: &BackendStats) -> BackendStats {
        BackendStats {
            data_queries: self.data_queries - before.data_queries,
            text_parses: self.text_parses - before.text_parses,
            items_scanned: self.items_scanned - before.items_scanned,
            items_built: self.items_built - before.items_built,
            items_inserted: self.items_inserted - before.items_inserted,
            index_scans: self.index_scans - before.index_scans,
            full_scans: self.full_scans - before.full_scans,
            edges_traversed: self.edges_traversed - before.edges_traversed,
            segments_scanned: self.segments_scanned - before.segments_scanned,
            segments_pruned: self.segments_pruned - before.segments_pruned,
        }
    }

    pub fn absorb(&mut self, other: &BackendStats) {
        self.data_queries += other.data_queries;
        self.text_parses += other.text_parses;
        self.items_scanned += other.items_scanned;
        self.items_built += other.items_built;
        self.items_inserted += other.items_inserted;
        self.index_scans += other.index_scans;
        self.full_scans += other.full_scans;
        self.edges_traversed += other.edges_traversed;
        self.segments_scanned += other.segments_scanned;
        self.segments_pruned += other.segments_pruned;
    }
}

/// A field value being appended through [`MutableBackend`]. Borrowed —
/// backends intern/copy on the way in, exactly like their native insert
/// paths. `Sym` is a string the caller already interned into the stores'
/// shared dictionary (the write seam hands one handle to both stores).
#[derive(Clone, Copy, Debug)]
pub enum FieldValue<'a> {
    Int(i64),
    Str(&'a str),
    Sym(Sym),
}

/// One named field of a record being appended: `(attribute name, value)`.
/// Names use the backend-neutral attribute vocabulary (the same names
/// [`crate::Pred`]s and `fetch_attr` use); each backend maps them to its
/// physical columns or properties.
pub type Field<'a> = (&'a str, FieldValue<'a>);

/// Incremental append — the streaming ingestion seam, the one operation both
/// stores share. Every insert maintains every index the store has already
/// built (hash / B-tree / trigram, graph value indexes, adjacency), so a
/// store grown record-by-record answers queries identically to one
/// bulk-loaded with the same data.
///
/// Contract:
/// * entity ids are append-only and arrive in ascending dense order (the
///   audit parser's id space); backends may rely on this to keep their
///   physical ids aligned with entity ids,
/// * an event's `subject`/`object` entities must already be inserted,
/// * each successful call bumps `stats.items_inserted` by exactly 1.
pub trait MutableBackend {
    /// Appends one entity record of `class` with the given id and
    /// attributes.
    fn insert_entity(
        &mut self,
        class: EntityClass,
        id: i64,
        fields: &[Field<'_>],
        stats: &mut BackendStats,
    ) -> Result<()>;

    /// Appends one event record linking two existing entities. `fields`
    /// carries the event attributes (`optype`, `kind`, `starttime`, ...).
    fn insert_event(
        &mut self,
        id: i64,
        subject: i64,
        object: i64,
        fields: &[Field<'_>],
        stats: &mut BackendStats,
    ) -> Result<()>;
}
