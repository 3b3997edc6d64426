//! The TBQL query execution engine (Section III-F).
//!
//! Executes analyzed TBQL queries against the two storage backends:
//!
//! * [`load`] — loads a parsed audit log into the relational store (entity +
//!   event tables with hash/btree/trigram indexes) and the graph store
//!   (entities as nodes, events as edges), replicating data across both as
//!   the paper does; bulk load and streaming ingest share one append path
//!   (`load::empty` + `load::append_entity` / `load::append_event`),
//! * [`compile`] — compiles each TBQL pattern into a small typed data
//!   request for the relational (event patterns) or graph (path patterns)
//!   backend; also emits the *giant* whole-query SQL/Cypher used as
//!   baselines and for the Table X conciseness comparison,
//! * [`schedule`] — the data-query scheduling algorithm: patterns ordered
//!   by *estimated output cardinality* from the maintained store
//!   statistics (the cost-based default), falling back to the paper's
//!   syntactic pruning score when stats are absent; intermediate results
//!   propagate into dependent patterns as `IN` filters either way,
//! * [`estimate`] — the cardinality estimator feeding the scheduler:
//!   predicate selectivity from distinct/top-k/histogram column stats,
//!   path patterns via degree-power expansion over adjacency summaries,
//!   with per-pattern estimated-vs-actual (Q-error) observability,
//! * [`exec`] — the [`exec::Engine`]: scheduled execution, cross-pattern
//!   joins on shared entities, `with`-clause evaluation, projection; plus
//!   the giant-SQL and giant-Cypher execution paths,
//! * [`explain`] — `EXPLAIN` / `EXPLAIN ANALYZE`: renders the planning and
//!   execution decisions the engine records (estimates, order, access
//!   paths, Q-error, rows scanned) as a stable text tree; also the
//!   report attached to slow-query log entries,
//! * [`standing`] — standing queries for the streaming mode: registered
//!   once, re-evaluated per ingestion epoch with delta evaluation (only
//!   new events are matched; match sets and propagated candidate id-sets
//!   grow monotonically), emitting per-epoch result deltas,
//! * [`provenance`] / [`fuzzy`] — the fuzzy search mode: Poirot-style
//!   inexact graph pattern matching with Levenshtein node alignment and
//!   ancestor-influence scoring; the Poirot baseline stops at the first
//!   acceptable alignment, ThreatRaptor-Fuzzy searches exhaustively,
//! * [`wal`] / [`checkpoint`] — the durability plane: a binary
//!   write-ahead log of one checksummed frame per epoch or registration —
//!   the only on-disk form of rows — and checkpoints that are a manifest
//!   over a prefix of it (dictionary, session position, standing-query
//!   state); a restart replays the log through the load seam
//!   (identical-by-construction recovery).

pub mod checkpoint;
pub mod compile;
pub mod estimate;
pub mod exec;
pub mod explain;
pub mod fuzzy;
#[cfg(test)]
mod join_props;
pub mod load;
pub mod provenance;
pub mod schedule;
pub mod standing;
pub mod wal;

pub use checkpoint::{Manifest, SessionMeta, CKPT_FILE};
pub use estimate::PatternEstimate;
pub use exec::{Engine, ExecMode, ResultTable};
pub use explain::Redact;
pub use load::LoadedStores;
pub use schedule::SchedulerMode;
pub use standing::{EpochInput, PatternProgress, StandingQuery};
pub use wal::{WalScan, WalSink, WalUnit, WAL_FILE};
