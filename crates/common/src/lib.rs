//! Shared primitives for the ThreatRaptor reproduction.
//!
//! This crate holds the small, dependency-light building blocks used by every
//! other crate in the workspace:
//!
//! * [`hash`] — a fast, non-cryptographic hasher (`FxHashMap` / `FxHashSet`
//!   aliases) used for all internal hash tables,
//! * [`ids`] — strongly-typed integer identifiers,
//! * [`time`] — nanosecond timestamps, durations and datetime parsing used by
//!   audit events and TBQL time windows,
//! * [`error`] — the workspace-wide error type,
//! * [`lex`] — the one tokenizer and token cursor of TBQL and the SQL and
//!   Cypher subsets: each language is a [`lex::Syntax`] value, and the
//!   cursor bounds how deep a parsed tree may nest,
//! * [`like`] — SQL `LIKE` wildcard matching, shared by the relational
//!   executor, the graph predicate lowering and selectivity estimation,
//! * [`pool`] — a shim reporting the one thread queries run on (kept for
//!   the benchmark harness's header),
//! * [`strdist`] — Levenshtein distance and normalized string similarity
//!   (used by the fuzzy search mode for node alignment),
//! * [`intern`] — string interning: the plain [`Interner`] and the
//!   [`SharedDict`] shared dictionary plane (one concurrently-readable
//!   dictionary above both storage backends; per-row reads never lock),
//! * [`io`] — the durability plane's I/O substrate: the injectable [`io::Fs`]
//!   file backend (real directory, in-memory, and the [`io::FailpointFs`]
//!   deterministic fault injector), IEEE CRC-32, and length-checked binary
//!   cursor helpers shared by the WAL and checkpoint codecs,
//! * [`obs`] — the observability plane: the lock-free [`obs::TraceSink`]
//!   span ring (env-gated by `RAPTOR_TRACE`), the global
//!   [`obs::MetricsRegistry`] with JSON / Prometheus snapshots, and the
//!   [`obs::SlowQueryLog`] (`RAPTOR_SLOW_QUERY_MS`),
//! * [`table`] — minimal fixed-width text-table rendering used by the
//!   benchmark harness to print paper-style tables.

pub mod error;
pub mod hash;
pub mod ids;
pub mod intern;
pub mod io;
pub mod lex;
pub mod like;
pub mod obs;
pub mod pool;
pub mod strdist;
pub mod table;
pub mod time;

pub use error::{Error, Result};
pub use hash::{FxHashMap, FxHashSet, FxHasher};
pub use intern::{Interner, SharedDict, Sym};
pub use time::{Duration, Timestamp};
