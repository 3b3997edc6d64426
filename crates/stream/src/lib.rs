//! Streaming threat hunting: incremental ingestion + continuous
//! standing-query evaluation.
//!
//! ThreatRaptor (ICDE'21) hunts over a static snapshot; its extended
//! version (arXiv:2101.06761) and ATHAFI (arXiv:2003.03663) frame hunting
//! as an *ongoing* activity over continuously arriving audit events. This
//! crate is that execution mode:
//!
//! * [`epoch`] — the stream source: chunks a parsed audit log into
//!   **watermarked epochs** (by event count or by time window), emitting
//!   each entity with the first epoch that needs it so entity ids stay
//!   dense across both stores,
//! * [`session`] — the [`StreamSession`], the one session type: empty
//!   stores grown epoch-by-epoch through `raptor-engine`'s append path (one
//!   write path shared with bulk load, every index maintained per insert),
//!   plus a registry of [`StandingQuery`](raptor_engine::StandingQuery)s
//!   re-evaluated per epoch with delta evaluation. Each ingested epoch
//!   yields an [`EpochReport`]: insert counters (per-epoch reset semantics)
//!   and one typed [`ResultBatch`](raptor_storage::ResultBatch) *delta* per
//!   registered query. [`StreamSession::new`] is volatile;
//!   [`StreamSession::open`] is the same session over a file backend (one
//!   WAL frame per epoch, periodic checkpoints, crash recovery with
//!   idempotent re-delivery), producing a [`RecoveryReport`].
//!
//! The invariant tying it to batch mode: after the final epoch, every
//! standing query's concatenated deltas equal — as a row multiset — the
//! `ExecMode::Scheduled` result over the same data bulk-loaded, and zero
//! SQL/Cypher text is parsed anywhere on the path.

pub mod epoch;
pub mod session;

pub use epoch::{EpochBatch, EpochPolicy, EpochStream};
pub use session::{DurablePolicy, EpochReport, QueryDelta, QueryId, RecoveryReport, StreamSession};

/// The session's crash and recovery tests (`durable/tests.rs`). They kept
/// the module path they had while a wrapper type lived in `durable.rs`, so
/// folding that type into [`session`] changed no test's id.
#[cfg(test)]
mod durable {
    mod tests;
}
