//! The session: stores grown epoch-by-epoch, the standing-query registry,
//! and — when opened over a file backend — the durability that lets both
//! survive a crash.
//!
//! There is one session type and one epoch loop. [`StreamSession::new`] is
//! volatile; [`StreamSession::open`] is the same session with a
//! `Durability` attached:
//!
//! * an epoch is one WAL frame, encoded from the batch as delivered. The
//!   epoch is applied to the stores and the standing queries first — they
//!   are memory, so a crash loses them whichever came first — and then the
//!   frame is made durable with one append and one fsync: the epoch's
//!   durable point. A batch the stores refuse leaves nothing in the log,
//! * a standing-query registration is one frame too, logged the same way
//!   before it enters the registry,
//! * the log is never truncated: it is the only on-disk form of rows, and
//!   the whole of it is what a restart replays,
//! * periodically (and on [`StreamSession::checkpoint`]) a *manifest* over
//!   the log so far — dictionary, stream position, standing-query state,
//!   and the log length they belong to — atomically replaces the
//!   checkpoint file. That is one write; the log is not touched,
//! * `open` recovers: it restores the manifest's dictionary, then replays
//!   the log epoch by epoch through the very function live ingest uses.
//!   Below the manifest's `log_len` the registry is empty, so nothing
//!   advances; exactly at `log_len` the rebuilt session is compared with
//!   what the manifest recorded and the manifest's standing queries are
//!   installed; the tail after it replays with registrations applied at
//!   their exact stream position. The torn tail is discarded and the
//!   stream resumes exactly where the last durable point left it.
//!   Live, bulk (`ThreatRaptor::from_log` is one volatile epoch) and
//!   replayed epochs are identical by construction.
//!
//! The manifest only accelerates: it saves the standing queries' work below
//! `log_len`. Without the checkpoint file the log alone rebuilds the same
//! session, so removing `ckpt` by hand is a safe recovery from a checkpoint
//! that will not load.
//!
//! ## Crash matrix
//!
//! | Fault                           | Outcome                                    |
//! |---------------------------------|--------------------------------------------|
//! | crash mid frame (torn append)   | torn tail discarded; epoch re-delivered    |
//! | crash after the frame's fsync   | epoch fully recovered                      |
//! | crash mid checkpoint write      | old checkpoint intact (atomic replace); the log is the same either way |
//! | automatic checkpoint fails      | the epoch is durable and its report is returned; counted (`raptor_checkpoint_failures_total`), retried after the next epoch |
//! | log damaged below the manifest's `log_len` | typed `Storage` error, both files untouched: those bytes were fsynced before the manifest was written, so this is corruption, not a torn tail |
//! | crash mid log trim-after-recovery | trim is atomic; both states valid |
//! | append error                    | fail-stop: the live session refuses every later write with one typed error; whatever part of the frame reached the file is a torn tail to the reopening |
//! | fsync error                     | fail-stop likewise; whether the frame is in the file is the disk's answer, and the reopened session holds a whole number of epochs either way — re-delivery dedupes the epoch or applies it |
//! | batch the stores refuse (non-dense entity id, unknown endpoint) | fail-stop; nothing of the batch is in the log |
//! | log in the retired per-record layout | typed `Storage` error naming the layout, both files untouched (never trimmed as a torn tail) |
//!
//! Re-delivery is idempotent: [`StreamSession::ingest_batch`] drops batches
//! whose epoch the session has already committed, so a source that replays
//! its stream from the beginning after a crash never double-appends.
//!
//! Standing-query **names are keys**: a second registration under a name
//! already in the registry is refused. That is an API rule; recovery does
//! not lean on it — a `Register` frame below the manifest's `log_len` is
//! skipped by its offset, not recognized by its name.

use std::sync::Arc;

use raptor_audit::{Entity, ParsedLog, SystemEvent};
use raptor_common::error::{Error, Result};
use raptor_common::io::Fs;
use raptor_common::obs;
use raptor_engine::checkpoint::{self, SessionMeta};
use raptor_engine::exec::{Engine, EngineStats};
use raptor_engine::load::{self};
use raptor_engine::standing::{EpochInput, StandingQuery};
use raptor_engine::wal::{self, WalSink, WalUnit};
use raptor_storage::{BackendStats, ResultBatch};

use crate::epoch::{max_referenced_entity, EpochBatch};

/// Handle to a registered standing query.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct QueryId(pub usize);

/// One standing query's output for one epoch.
#[derive(Debug)]
pub struct QueryDelta {
    pub id: QueryId,
    pub name: String,
    /// Result rows this epoch *added* (typed; render at the edge).
    pub delta: ResultBatch,
    /// Re-evaluation stats (delta data queries + join).
    pub stats: EngineStats,
}

/// What one ingested epoch produced.
#[derive(Debug)]
pub struct EpochReport {
    pub epoch: u64,
    /// Max event end time ingested so far.
    pub watermark: i64,
    pub entities_ingested: usize,
    pub events_ingested: usize,
    /// Backend insert counters for *this epoch only* (a fresh
    /// [`BackendStats`] per epoch is the per-epoch reset semantics; the
    /// session also keeps a running total).
    pub ingest_stats: BackendStats,
    /// One delta per registered standing query, in registration order.
    pub deltas: Vec<QueryDelta>,
}

/// Durability policy knobs.
#[derive(Clone, Copy, Debug)]
pub struct DurablePolicy {
    /// Checkpoint automatically after this many committed epochs
    /// (`0` = only on explicit [`StreamSession::checkpoint`] calls).
    pub checkpoint_every: u64,
}

impl Default for DurablePolicy {
    fn default() -> Self {
        DurablePolicy { checkpoint_every: 64 }
    }
}

/// What [`StreamSession::open`] found and rebuilt (the bounded recovery
/// report of the durability plane).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RecoveryReport {
    /// A valid checkpoint file was loaded.
    pub checkpoint_found: bool,
    /// Size of the loaded checkpoint, in bytes.
    pub checkpoint_bytes: u64,
    /// Epochs already covered by the checkpoint.
    pub checkpoint_epochs: u64,
    /// Entity + event records replayed from the log prefix the checkpoint
    /// covers.
    pub checkpoint_rows: u64,
    /// WAL records applied beyond the checkpoint: each epoch's entities and
    /// events plus one for its commit, and one per registration.
    pub wal_records_replayed: u64,
    /// Committed epochs replayed from the WAL tail beyond the checkpoint.
    pub wal_epochs_replayed: u64,
    /// Standing-query registrations recovered (checkpoint + WAL).
    pub registrations_recovered: u64,
    /// Bytes discarded from the WAL's torn tail.
    pub wal_bytes_discarded: u64,
    /// The epoch the session resumes at (== epochs committed so far).
    pub resumed_epoch: u64,
    /// The recovered store's watermark (max event end time).
    pub watermark: i64,
}

impl std::fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.checkpoint_found {
            writeln!(
                f,
                "checkpoint: {} bytes, {} epochs, {} rows replayed",
                self.checkpoint_bytes, self.checkpoint_epochs, self.checkpoint_rows
            )?;
        } else {
            writeln!(f, "checkpoint: none")?;
        }
        writeln!(
            f,
            "wal: {} records replayed across {} epochs, {} bytes of torn tail discarded",
            self.wal_records_replayed, self.wal_epochs_replayed, self.wal_bytes_discarded
        )?;
        write!(
            f,
            "resumed: epoch {}, watermark {}, {} standing quer{} recovered",
            self.resumed_epoch,
            self.watermark,
            self.registrations_recovered,
            if self.registrations_recovered == 1 { "y" } else { "ies" }
        )
    }
}

/// What [`StreamSession::open`] adds to a session.
struct Durability {
    fs: Arc<dyn Fs>,
    sink: WalSink,
    policy: DurablePolicy,
    report: RecoveryReport,
    epochs_since_ckpt: u64,
}

/// A hunting session: both storage backends grown incrementally from
/// empty, and TBQL standing queries re-evaluated on every ingested epoch.
///
/// ```
/// use raptor_audit::sim::Simulator;
/// use raptor_audit::LogParser;
/// use raptor_common::time::Timestamp;
/// use raptor_stream::{EpochPolicy, EpochStream, StreamSession};
///
/// let mut sim = Simulator::new(1, Timestamp::from_secs(0));
/// let shell = sim.boot_process("/bin/bash", "root");
/// let tar = sim.spawn(shell, "/bin/tar", "tar");
/// sim.read_file(tar, "/etc/passwd", 4096, 4);
/// let log = LogParser::parse(&sim.finish());
///
/// let mut session = StreamSession::new().unwrap();
/// session.register("leak", r#"proc p["%tar%"] read file f return distinct p, f"#).unwrap();
/// for batch in EpochStream::new(&log, EpochPolicy::ByCount(2)) {
///     let report = session.ingest_batch(&batch).unwrap().expect("a fresh epoch");
///     for d in &report.deltas {
///         for row in d.delta.rendered_rows() {
///             println!("epoch {}: {} -> {:?}", report.epoch, d.name, row);
///         }
///     }
/// }
/// assert_eq!(session.query(raptor_stream::QueryId(0)).cumulative_batch().n_rows(), 1);
/// ```
pub struct StreamSession {
    engine: Engine,
    /// The registry, in registration order (each query carries the TBQL
    /// text it was registered under).
    queries: Vec<StandingQuery>,
    epoch: u64,
    total_ingest: BackendStats,
    /// `None` = volatile.
    durability: Option<Durability>,
    /// Set by the first epoch or registration that failed part-way: the
    /// error every later write returns (see the crash matrix).
    failed: Option<Error>,
}

impl StreamSession {
    /// Creates a volatile session over empty stores (schemas + indexes
    /// ready).
    pub fn new() -> Result<Self> {
        Ok(Self::over(Engine::new(load::empty()?)))
    }

    /// A volatile session at epoch 0 over `engine`'s stores.
    fn over(engine: Engine) -> Self {
        StreamSession {
            engine,
            queries: Vec::new(),
            epoch: 0,
            total_ingest: BackendStats::default(),
            durability: None,
            failed: None,
        }
    }

    /// Opens (or recovers) a durable session over `fs`. With no prior
    /// state this is an empty session with a log to write; otherwise the
    /// log is replayed, past the checkpoint's manifest if there is one (see
    /// module docs). Corrupt files yield a typed error, never a panic, and
    /// are left as they were.
    pub fn open(fs: Arc<dyn Fs>, policy: DurablePolicy) -> Result<Self> {
        let mut report = RecoveryReport::default();

        // 1. The manifest, if any: empty stores around its dictionary.
        let (mut session, mut manifest) = match fs.read(checkpoint::CKPT_FILE)? {
            Some(bytes) => {
                let (stores, manifest) = checkpoint::decode(&bytes)?;
                report.checkpoint_found = true;
                report.checkpoint_bytes = bytes.len() as u64;
                report.checkpoint_epochs = manifest.meta.epochs;
                report.registrations_recovered = manifest.queries.len() as u64;
                (Self::over(Engine::new(stores)), Some(manifest))
            }
            None => (Self::new()?, None),
        };

        // 2. Replay the log, one durable unit at a time. While the manifest
        //    is pending the registry is empty — below `log_len` an epoch only
        //    rebuilds the stores — and at `log_len` the manifest goes in.
        let wal_bytes = fs.read(wal::WAL_FILE)?.unwrap_or_default();
        let mut scan = wal::scan(&wal_bytes);
        loop {
            let at = scan.durable_len() as u64;
            if let Some(m) = manifest.take_if(|m| m.meta.log_len == at) {
                m.check_replayed(&session.engine.stores, &session.position(at))?;
                session.queries = m.queries;
            }
            let Some(unit) = scan.next().transpose()? else { break };
            if manifest.as_ref().is_some_and(|m| scan.durable_len() as u64 > m.meta.log_len) {
                break; // no durable point at `log_len`: reported below
            }
            let records = unit.records();
            match unit {
                // The manifest holds it, with the state it had reached.
                WalUnit::Register { .. } if manifest.is_some() => {}
                WalUnit::Register { name, text } => {
                    let dict = session.engine.stores.dict.clone();
                    session.queries.push(StandingQuery::new(name, &text, dict)?);
                    report.registrations_recovered += 1;
                    report.wal_records_replayed += records;
                }
                WalUnit::Epoch { epoch, entities, events } => {
                    if epoch != session.epoch {
                        return Err(Error::storage(format!(
                            "WAL replay: commit for epoch {epoch} but session is at {}",
                            session.epoch
                        )));
                    }
                    session.apply_epoch(&entities, &events)?;
                    if manifest.is_some() {
                        report.checkpoint_rows += records - 1;
                    } else {
                        report.wal_records_replayed += records;
                        report.wal_epochs_replayed += 1;
                    }
                }
            }
        }
        // The manifest proves `log[..log_len]` was fsynced: a scan that ends
        // short of it (or steps over it) met corruption, not a torn tail.
        if let Some(m) = manifest {
            return Err(Error::storage(format!(
                "log damaged below the checkpoint: the checkpoint covers its first {} bytes, \
                 the scan found a durable point at {} (of {})",
                m.meta.log_len,
                scan.durable_len(),
                wal_bytes.len()
            )));
        }

        // 3. Drop the discarded tail from the file so post-recovery appends
        //    extend the durable prefix, not torn garbage.
        let log_len = scan.durable_len();
        if scan.discarded() > 0 {
            fs.replace(wal::WAL_FILE, &wal_bytes[..log_len])?;
        }

        report.wal_bytes_discarded = scan.discarded() as u64;
        report.resumed_epoch = session.epoch;
        report.watermark = session.engine.stores.now_ns;
        let m = obs::metrics();
        m.counter_add("raptor_recovery_replayed_records", report.wal_records_replayed);
        m.counter_add("raptor_wal_bytes_discarded_total", report.wal_bytes_discarded);

        // 4. Later units extend the durable prefix.
        let sink = WalSink::new(fs.clone(), log_len as u64);
        session.durability = Some(Durability { fs, sink, policy, report, epochs_since_ckpt: 0 });
        Ok(session)
    }

    /// Where the session stands, as a checkpoint records it against a log
    /// of `log_len` bytes and as replaying those bytes must reproduce it.
    fn position(&self, log_len: u64) -> SessionMeta {
        SessionMeta {
            log_len,
            epochs: self.epoch,
            rows: self.engine.stores.rel.total_rows() as u64,
            now_ns: self.engine.stores.now_ns,
            total_ingest: self.total_ingest,
        }
    }

    /// What recovery found and rebuilt when this session was opened;
    /// `None` for a volatile session.
    pub fn recovery_report(&self) -> Option<&RecoveryReport> {
        self.durability.as_ref().map(|d| &d.report)
    }

    /// Mutable engine access for knobs the session does not wrap (scheduler
    /// mode, hop cap). Mutating the stores around the session's ingest path
    /// bypasses the WAL and breaks the epoch bookkeeping — use
    /// [`StreamSession::ingest`] for data.
    #[doc(hidden)]
    pub fn engine_mut(&mut self) -> &mut Engine {
        &mut self.engine
    }

    /// The error every write returns once an epoch or a registration has
    /// failed part-way: from then on the stores, the standing queries and
    /// (when durable) the log may no longer describe the same stream prefix.
    fn check_live(&self) -> Result<()> {
        self.failed.clone().map_or(Ok(()), Err)
    }

    /// Passes `result` through; an `Err` first marks the session failed at
    /// `epoch` (the one being applied, or the position of a registration).
    fn fail_stop<T>(&mut self, epoch: u64, result: Result<T>) -> Result<T> {
        if let Err(cause) = &result {
            let remedy = if self.durability.is_some() {
                "reopen to recover"
            } else {
                "rebuild it from the source"
            };
            self.failed =
                Some(Error::storage(format!("session failed at epoch {epoch}: {cause}; {remedy}")));
        }
        result
    }

    /// Registers a TBQL text as a standing query under `name`, which must
    /// not be registered yet. Registration is valid at any point of the
    /// stream; its event patterns only ever see events ingested after it
    /// — between entities of any age — while its variable-length paths
    /// reach back over the whole graph (see `raptor_engine::standing`).
    /// Fails for queries a stream cannot
    /// evaluate soundly (relative `last N unit` windows). On a durable
    /// session the registration is logged — one frame, one append, one
    /// fsync — before it takes effect.
    pub fn register(&mut self, name: &str, tbql: &str) -> Result<QueryId> {
        self.check_live()?;
        if self.queries.iter().any(|q| q.name() == name) {
            return Err(Error::semantic(format!(
                "a standing query named `{name}` is already registered"
            )));
        }
        let query = StandingQuery::new(name, tbql, self.engine.stores.dict.clone())?;
        if let Some(d) = &mut self.durability {
            let frame = wal::frame_register(name, tbql)?;
            let logged = d.sink.commit(&frame, 1);
            self.fail_stop(self.epoch, logged)?;
        }
        self.queries.push(query);
        Ok(QueryId(self.queries.len() - 1))
    }

    /// The engine over the session's stores (ad-hoc queries still work at
    /// any point — streaming and one-shot execution share the stores).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    pub fn query(&self, id: QueryId) -> &StandingQuery {
        &self.queries[id.0]
    }

    pub fn queries(&self) -> &[StandingQuery] {
        &self.queries
    }

    /// Epochs ingested so far.
    pub fn epochs(&self) -> u64 {
        self.epoch
    }

    /// Pins the worker count of the stores' scans, joins and traversals —
    /// the session's whole execution plane. `1` takes the strictly
    /// sequential code paths everywhere.
    pub fn set_threads(&mut self, threads: usize) {
        self.engine.set_threads(threads);
    }

    /// Re-partitions the relational store's columnar segments to `rows`
    /// rows per segment (zone maps rebuilt in one pass). Purely physical:
    /// no query result may change; the next checkpoint records the new
    /// capacity.
    pub fn set_segment_rows(&mut self, rows: usize) {
        self.engine.set_segment_rows(rows);
    }

    /// Rows in the relational store's `events` table.
    fn event_rows(&self) -> usize {
        self.engine.stores.rel.table("events").map_or(0, |t| t.len())
    }

    /// Running total of the per-epoch ingest counters.
    pub fn total_ingest_stats(&self) -> BackendStats {
        self.total_ingest
    }

    /// The one epoch loop — live ingest and WAL replay both run it:
    /// appends `entities` then `events` through the load seam, notes which
    /// rows of the events table that made, then advances every standing query over exactly
    /// those rows — inline, in registration order (an advance is too short
    /// to be worth a worker; see `raptor_engine::standing`).
    ///
    /// Standing advancement cannot fail on well-formed registered queries,
    /// so an `Err` here means the session is broken, not one delta: the
    /// first one stops the epoch and the caller fail-stops the session.
    fn apply_epoch(&mut self, entities: &[Entity], events: &[SystemEvent]) -> Result<EpochReport> {
        let mut sp_epoch = obs::span("stream.epoch");
        sp_epoch.attr("epoch", self.epoch);
        sp_epoch.attr("entities", entities.len() as u64);
        sp_epoch.attr("events", events.len() as u64);
        let mut ingest_stats = BackendStats::default();
        let event_rows = {
            let mut sp = obs::span("stream.ingest");
            for e in entities {
                load::append_entity(&mut self.engine.stores, e, &mut ingest_stats)?;
            }
            // Tables are append-only and a row id is its ordinal: whatever
            // ids the events carry, the epoch's rows are one range.
            let event_rows_lo = self.event_rows();
            for ev in events {
                load::append_event(&mut self.engine.stores, ev, &mut ingest_stats)?;
            }
            sp.attr("inserted", ingest_stats.items_inserted as u64);
            event_rows_lo..self.event_rows()
        };
        self.total_ingest.absorb(&ingest_stats);

        let epoch = self.epoch;
        self.epoch += 1;
        let input = EpochInput { epoch, event_rows };
        let t_detect = std::time::Instant::now();
        let mut deltas = Vec::with_capacity(self.queries.len());
        let mut delta_rows = 0usize;
        for (i, sq) in self.queries.iter_mut().enumerate() {
            let (delta, stats) = sq.advance(&self.engine, &input)?;
            delta_rows += delta.n_rows();
            deltas.push(QueryDelta { id: QueryId(i), name: sq.name().to_string(), delta, stats });
        }
        // Epoch detection latency: ingest-to-delta wall time for this
        // epoch's standing-query advancement.
        let m = obs::metrics();
        m.counter_add("raptor_epochs_total", 1);
        m.counter_add("raptor_entities_ingested_total", entities.len() as u64);
        m.counter_add("raptor_events_ingested_total", events.len() as u64);
        m.counter_add("raptor_delta_rows_total", delta_rows as u64);
        m.gauge_set(
            "raptor_path_frontier_entries",
            raptor_engine::standing::frontier_entries_total(),
        );
        if !self.queries.is_empty() {
            m.observe_ns("raptor_epoch_detect_latency_ns", t_detect.elapsed().as_nanos() as u64);
        }
        sp_epoch.attr("delta_rows", delta_rows as u64);
        Ok(EpochReport {
            epoch,
            watermark: self.engine.stores.now_ns,
            entities_ingested: entities.len(),
            events_ingested: events.len(),
            ingest_stats,
            deltas,
        })
    }

    /// Ingests one epoch: `entities` (dense ascending ids continuing the
    /// session's id space) then `events` (endpoints must be ingested),
    /// then advances every standing query.
    ///
    /// On a durable session the epoch's frame is encoded from the batch
    /// first (an epoch too large for one frame is refused here, with
    /// nothing applied and the session still live), and after the standing
    /// queries have advanced it is made durable: one append, one fsync.
    /// Only after this returns is the epoch durable; a crash anywhere
    /// before leaves at most a torn frame, which recovery discards (the
    /// source re-delivers the epoch).
    ///
    /// An `Err` out of the epoch or its commit is a fail-stop (see the
    /// crash matrix): this call returns the cause, every later write the
    /// session's failure. A failed *automatic checkpoint* is neither: the
    /// epoch is already durable and the manifest only accelerates a
    /// restart, so the report is returned, the failure counted
    /// (`raptor_checkpoint_failures_total`) and the write retried after the
    /// next epoch.
    pub fn ingest(&mut self, entities: &[Entity], events: &[SystemEvent]) -> Result<EpochReport> {
        self.check_live()?;
        let epoch = self.epoch;
        let durable = self.durability.is_some();
        let frame = durable.then(|| wal::frame_epoch(epoch, entities, events)).transpose()?;
        let committed = self.apply_epoch(entities, events).and_then(|report| {
            if let (Some(d), Some(frame)) = (&mut self.durability, &frame) {
                d.sink.commit(frame, (entities.len() + events.len() + 1) as u64)?;
            }
            Ok(report)
        });
        let report = self.fail_stop(epoch, committed)?;
        let checkpoint_due = self.durability.as_mut().is_some_and(|d| {
            d.epochs_since_ckpt += 1;
            d.policy.checkpoint_every > 0 && d.epochs_since_ckpt >= d.policy.checkpoint_every
        });
        if checkpoint_due && self.checkpoint().is_err() {
            obs::metrics().counter_add("raptor_checkpoint_failures_total", 1);
        }
        Ok(report)
    }

    /// Ingests one batch from an [`EpochStream`](crate::EpochStream),
    /// dropping batches the session already holds — re-delivery after
    /// recovery is idempotent (`Ok(None)` = deduped). A batch from the
    /// stream's future (an epoch gap) is an error: the source and the
    /// session have diverged. [`StreamSession::ingest`] and the chunk
    /// helpers below take whatever they are given, wherever the session is.
    pub fn ingest_batch(&mut self, batch: &EpochBatch<'_>) -> Result<Option<EpochReport>> {
        self.check_live()?;
        if batch.epoch < self.epoch {
            obs::metrics().counter_add("raptor_wal_dedup_skips_total", 1);
            return Ok(None);
        }
        if batch.epoch > self.epoch {
            return Err(Error::storage(format!(
                "epoch gap: source delivered epoch {} but session expects {}",
                batch.epoch, self.epoch
            )));
        }
        self.ingest(batch.entities, batch.events).map(Some)
    }

    /// Ingests an arbitrary chunk of a log's events (any order across
    /// chunks), automatically pulling in the entities the chunk needs.
    /// Entities are always appended in dense id order regardless of the
    /// event order, so shuffled re-deliveries still build identical stores.
    pub fn ingest_chunk(&mut self, log: &ParsedLog, events: &[SystemEvent]) -> Result<EpochReport> {
        let have = self.engine.stores.graph.node_count();
        let bound = max_referenced_entity(events).max(have);
        let entities = &log.entities[have..bound];
        self.ingest(entities, events)
    }

    /// Appends any entities the event chunks never referenced (call after
    /// the last chunk to make the stores equal to a bulk load).
    pub fn flush_entities(&mut self, log: &ParsedLog) -> Result<EpochReport> {
        let have = self.engine.stores.graph.node_count();
        let entities = &log.entities[have..];
        self.ingest(entities, &[])
    }

    /// Writes a checkpoint: one atomic replace of the checkpoint file with
    /// a manifest over the log as it stands (see module docs). The log is
    /// not written. A typed error on a volatile session, which has nowhere
    /// to write one. After a crash at any point in here, recovery sees the
    /// old manifest or the new one over the same log.
    pub fn checkpoint(&mut self) -> Result<()> {
        self.check_live()?;
        let volatile =
            || Error::storage("checkpoint() requires a durable session (StreamSession::open)");
        // The end of the log is a durable point.
        let log_len = self.durability.as_ref().ok_or_else(volatile)?.sink.log_len();
        let bytes =
            checkpoint::encode(&self.engine.stores, &self.queries, &self.position(log_len))?;
        let d = self.durability.as_mut().ok_or_else(volatile)?;
        d.fs.replace(checkpoint::CKPT_FILE, &bytes)?;
        d.epochs_since_ckpt = 0;
        let m = obs::metrics();
        m.counter_add("raptor_checkpoints_total", 1);
        m.gauge_set("raptor_checkpoint_bytes", bytes.len() as i64);
        Ok(())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::epoch::{EpochPolicy, EpochStream};
    use raptor_audit::sim::Simulator;
    use raptor_audit::LogParser;
    use raptor_common::time::Timestamp;
    use raptor_engine::exec::ExecMode;
    use raptor_engine::load::load;
    use raptor_engine::ResultTable;
    use raptor_tbql::{analyze, parse_tbql};

    pub(crate) fn sample_log() -> ParsedLog {
        let mut sim = Simulator::new(11, Timestamp::from_secs(5000));
        let shell = sim.boot_process("/bin/bash", "root");
        let tar = sim.spawn(shell, "/bin/tar", "tar");
        sim.read_file(tar, "/etc/passwd", 4096, 4);
        sim.write_file(tar, "/tmp/out.tar", 4096, 4);
        sim.exit(tar);
        let curl = sim.spawn(shell, "/usr/bin/curl", "curl");
        sim.read_file(curl, "/tmp/out.tar", 4096, 2);
        let fd = sim.connect(curl, "192.168.29.128", 443);
        sim.send(curl, fd, 4096, 2);
        sim.exit(curl);
        LogParser::parse(&sim.finish())
    }

    pub(crate) const Q: &str = r#"proc p["%tar%"] read file f["%passwd%"] as e1
                       proc p2["%curl%"] connect ip i as e2
                       with e1 before e2 return p, p2, i"#;

    #[test]
    fn streamed_session_matches_batch_execution() {
        let log = sample_log();
        let mut session = StreamSession::new().unwrap();
        let qid = session.register("hunt", Q).unwrap();
        let mut delta_rows = 0usize;
        for batch in EpochStream::new(&log, EpochPolicy::ByCount(3)) {
            let report = session.ingest_batch(&batch).unwrap().expect("fresh epoch");
            // Per-epoch reset semantics: this epoch's inserts only.
            assert_eq!(
                report.ingest_stats.items_inserted,
                2 * (report.entities_ingested + report.events_ingested)
            );
            delta_rows += report.deltas[0].delta.n_rows();
        }
        // Totals aggregate across epochs; both stores ingested everything.
        assert_eq!(
            session.total_ingest_stats().items_inserted,
            2 * (log.entities.len() + log.events.len())
        );
        let batch_engine = Engine::new(load(&log).unwrap());
        let aq = analyze(&parse_tbql(Q).unwrap()).unwrap();
        let (expect, _) = batch_engine.execute(&aq, ExecMode::Scheduled).unwrap();
        let got = ResultTable::from_batch(&session.query(qid).cumulative_batch());
        assert_eq!(got.sorted_rows(), expect.sorted_rows());
        assert_eq!(delta_rows, expect.rows.len());
    }

    #[test]
    fn streaming_is_parse_free() {
        let log = sample_log();
        let mut session = StreamSession::new().unwrap();
        session.register("hunt", Q).unwrap();
        for batch in EpochStream::new(&log, EpochPolicy::ByCount(4)) {
            let report = session.ingest_batch(&batch).unwrap().expect("fresh epoch");
            for d in &report.deltas {
                assert_eq!(d.stats.text_parses, 0);
                assert_eq!(d.stats.backend.text_parses, 0);
            }
        }
        assert_eq!(session.engine().stores.rel.text_parse_count(), 0);
    }

    #[test]
    fn shuffled_chunks_build_identical_stores() {
        let log = sample_log();
        // Deliver events out of order in 2 swapped halves.
        let mid = log.events.len() / 2;
        let mut session = StreamSession::new().unwrap();
        session.ingest_chunk(&log, &log.events[mid..]).unwrap();
        session.ingest_chunk(&log, &log.events[..mid]).unwrap();
        session.flush_entities(&log).unwrap();
        let streamed = session.engine();
        let bulk = Engine::new(load(&log).unwrap());
        assert_eq!(streamed.stores.graph.node_count(), bulk.stores.graph.node_count());
        assert_eq!(streamed.stores.graph.edge_count(), bulk.stores.graph.edge_count());
        assert_eq!(streamed.stores.rel.total_rows(), bulk.stores.rel.total_rows());
        let aq = analyze(&parse_tbql(Q).unwrap()).unwrap();
        let (a, _) = streamed.execute(&aq, ExecMode::Scheduled).unwrap();
        let (b, _) = bulk.execute(&aq, ExecMode::Scheduled).unwrap();
        assert_eq!(a.sorted_rows(), b.sorted_rows());
    }

    #[test]
    fn late_registration_sees_later_epochs_only() {
        let log = sample_log();
        let mut session = StreamSession::new().unwrap();
        let batches: Vec<_> = EpochStream::new(&log, EpochPolicy::ByCount(2)).collect();
        let half = batches.len() / 2;
        for b in &batches[..half] {
            session.ingest_batch(b).unwrap();
        }
        let qid = session
            .register("late", r#"proc p["%bash%"] start proc q return distinct p, q"#)
            .unwrap();
        for b in &batches[half..] {
            session.ingest_batch(b).unwrap();
        }
        // bash's process starts happen early in the log; a late registration
        // misses those epochs (matches only what arrived after it).
        let late = session.query(qid).cumulative_batch().n_rows();
        let batch_engine = Engine::new(load(&log).unwrap());
        let (full, _) = batch_engine
            .execute_text(
                r#"proc p["%bash%"] start proc q return distinct p, q"#,
                ExecMode::Scheduled,
            )
            .unwrap();
        assert!(late <= full.rows.len());
    }
}
