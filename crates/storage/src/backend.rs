//! The write seam ([`MutableBackend`]) and unified execution counters.
//!
//! Reads have no trait: the engine calls the relational store's inherent
//! `entity_candidates` / `match_event_pattern` / `fetch_attr` and the graph
//! store's `match_path_pattern` directly — each store answers only the
//! shapes its physical model serves.

use raptor_common::error::{Error, Result};
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
    /// Always 0: the relational store no longer partitions tables into
    /// segments. Kept because `bench_ledger` reads it.
    pub segments_scanned: usize,
    /// Always 0, like [`BackendStats::segments_scanned`].
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
            segments_scanned: 0,
            segments_pruned: 0,
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

/// The dense-id check: `id` must be `next`, the number of entities the
/// store holds, or it is a `Storage` error.
pub fn dense_entity_id(id: i64, next: usize) -> Result<()> {
    if id == next as i64 {
        return Ok(());
    }
    Err(Error::storage(format!("entity id {id} breaks dense insertion order (next is {next})")))
}

/// Incremental append — the streaming ingestion seam, the one operation both
/// stores share. Every insert maintains every index the store has already
/// built (hash / B-tree / trigram, the graph's adjacency), so a
/// store grown record-by-record answers queries identically to one
/// bulk-loaded with the same data.
///
/// Contract:
/// * entity ids are append-only and arrive in ascending dense order (the
///   audit parser's id space), so an entity id is a position in both
///   stores: the graph's node ordinal, and a binary search of the
///   relational class table's ascending `id` column. `insert_entity`
///   refuses any other id ([`dense_entity_id`]) and appends nothing,
/// * event ids may arrive in any order; an event's `subject`/`object`
///   entities must already be inserted,
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
