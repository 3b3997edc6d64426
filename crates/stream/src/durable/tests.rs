//! A durable session under faults: recovery, idempotent re-delivery, torn
//! tails, transient errors, registrations across crashes.

use std::sync::{Arc, Mutex};

use raptor_audit::SystemEvent;
use raptor_common::error::{ErrorKind, Result};
use raptor_common::ids::EntityId;
use raptor_common::io::{FailpointFs, Fs, MemFs};
use raptor_engine::load::{load, LoadedStores};
use raptor_engine::wal;
use raptor_engine::{ResultTable, CKPT_FILE};

use crate::epoch::{EpochBatch, EpochPolicy, EpochStream};
use crate::session::tests::{sample_log, Q};
use crate::session::{DurablePolicy, QueryId, StreamSession};

fn manual() -> DurablePolicy {
    DurablePolicy { checkpoint_every: 0 }
}

/// Replay equals live by construction — both ran the same epoch loop —
/// so everything an epoch leaves behind is equal: position, totals,
/// each standing query's rows and per-pattern progress, both stores.
fn assert_same_state(recovered: &StreamSession, live: &StreamSession) {
    assert_eq!(recovered.epochs(), live.epochs());
    assert_eq!(recovered.total_ingest_stats(), live.total_ingest_stats());
    assert_eq!(recovered.queries().len(), live.queries().len());
    for (r, l) in recovered.queries().iter().zip(live.queries()) {
        assert_eq!(r.name(), l.name());
        assert_eq!(
            ResultTable::from_batch(r.cumulative_batch()),
            ResultTable::from_batch(l.cumulative_batch()),
            "{}",
            l.name()
        );
        assert_eq!(format!("{:?}", r.progress()), format!("{:?}", l.progress()));
    }
    assert_same_stores(&recovered.engine().stores, &live.engine().stores);
}

fn assert_same_stores(a: &LoadedStores, b: &LoadedStores) {
    assert_eq!(a.now_ns, b.now_ns);
    assert_eq!(a.contents(), b.contents());
    assert_eq!(
        (a.graph.node_count(), a.graph.edge_count()),
        (b.graph.node_count(), b.graph.edge_count())
    );
}

/// Ingest everything durably, "restart", and check the recovered
/// session equals the original: same counters, same standing state,
/// same watermark.
#[test]
fn recover_from_wal_only() {
    let log = sample_log();
    let fs = Arc::new(MemFs::new());
    let mut live = StreamSession::open(fs.clone(), manual()).unwrap();
    let qid = live.register("hunt", Q).unwrap();
    for batch in EpochStream::new(&log, EpochPolicy::ByCount(3)) {
        live.ingest_batch(&batch).unwrap().expect("fresh epoch");
    }
    let want_rows = live.query(qid).cumulative_batch().n_rows();
    let want_epochs = live.epochs();

    let recovered = StreamSession::open(fs, manual()).unwrap();
    let r = recovered.recovery_report().unwrap();
    assert!(!r.checkpoint_found);
    assert_eq!(r.wal_epochs_replayed, want_epochs);
    assert_eq!(r.resumed_epoch, want_epochs);
    assert_eq!(r.registrations_recovered, 1);
    assert_eq!(r.wal_bytes_discarded, 0);
    assert_eq!(recovered.query(QueryId(0)).cumulative_batch().n_rows(), want_rows);
    assert_eq!(recovered.engine().stores.now_ns, live.engine().stores.now_ns);
    assert_eq!(recovered.total_ingest_stats(), live.total_ingest_stats());
    assert_same_state(&recovered, &live);
}

/// Same, but through a mid-stream checkpoint: recovery = checkpoint +
/// WAL tail.
#[test]
fn recover_from_checkpoint_plus_tail() {
    let log = sample_log();
    let fs = Arc::new(MemFs::new());
    let mut live = StreamSession::open(fs.clone(), manual()).unwrap();
    live.register("hunt", Q).unwrap();
    let batches: Vec<_> = EpochStream::new(&log, EpochPolicy::ByCount(3)).collect();
    let half = batches.len() / 2;
    for b in &batches[..half] {
        live.ingest_batch(b).unwrap();
    }
    live.checkpoint().unwrap();
    for b in &batches[half..] {
        live.ingest_batch(b).unwrap();
    }
    let want_rows = live.query(QueryId(0)).cumulative_batch().n_rows();

    let recovered = StreamSession::open(fs, manual()).unwrap();
    let r = recovered.recovery_report().unwrap();
    assert!(r.checkpoint_found);
    assert_eq!(r.checkpoint_epochs, half as u64);
    assert_eq!(r.wal_epochs_replayed, (batches.len() - half) as u64);
    assert_eq!(recovered.epochs(), batches.len() as u64);
    assert_eq!(recovered.query(QueryId(0)).cumulative_batch().n_rows(), want_rows);
    assert_same_state(&recovered, &live);
}

/// The dedupe satellite: re-delivering the whole stream after recovery
/// must be a no-op for already-committed epochs — same store, same
/// standing output, same watermark arithmetic (no double-append).
#[test]
fn redelivery_after_recovery_is_idempotent() {
    let log = sample_log();
    let fs = Arc::new(MemFs::new());
    let mut live = StreamSession::open(fs.clone(), manual()).unwrap();
    live.register("hunt", Q).unwrap();
    for batch in EpochStream::new(&log, EpochPolicy::ByCount(2)) {
        live.ingest_batch(&batch).unwrap();
    }
    let want_rows = live.query(QueryId(0)).cumulative_batch().n_rows();
    let want_nodes = live.engine().stores.graph.node_count();
    let want_watermark = live.engine().stores.now_ns;
    drop(live);

    let mut recovered = StreamSession::open(fs, manual()).unwrap();
    // The source restarts from scratch: every batch is re-delivered.
    // EpochStream is deterministic, so (epoch, watermark) pairs repeat
    // exactly — and every one must dedupe.
    for batch in EpochStream::new(&log, EpochPolicy::ByCount(2)) {
        assert!(batch.epoch < recovered.epochs());
        assert!(recovered.ingest_batch(&batch).unwrap().is_none(), "must dedupe");
    }
    assert_eq!(recovered.engine().stores.graph.node_count(), want_nodes);
    assert_eq!(recovered.engine().stores.now_ns, want_watermark);
    assert_eq!(recovered.query(QueryId(0)).cumulative_batch().n_rows(), want_rows);
    // A batch from the future (gap) is rejected, not silently applied.
    let far = EpochBatch {
        epoch: recovered.epochs() + 1,
        entities: &[],
        events: &[],
        watermark: want_watermark,
    };
    assert!(recovered.ingest_batch(&far).is_err());
}

/// EpochStream watermark arithmetic is deterministic across
/// re-creation: the same log yields the same (epoch, watermark)
/// sequence, and a recovered session's watermark equals the stream's
/// at the resume point (the pin for idempotent re-delivery).
#[test]
fn watermark_arithmetic_pinned() {
    let log = sample_log();
    let a: Vec<(u64, i64)> =
        EpochStream::new(&log, EpochPolicy::ByCount(3)).map(|b| (b.epoch, b.watermark)).collect();
    let b: Vec<(u64, i64)> =
        EpochStream::new(&log, EpochPolicy::ByCount(3)).map(|b| (b.epoch, b.watermark)).collect();
    assert_eq!(a, b);
    // Watermarks are the running max of event end times: monotone.
    assert!(a.windows(2).all(|w| w[0].1 <= w[1].1));

    // Ingest a prefix durably; the recovered watermark equals the last
    // committed batch's watermark.
    let fs = Arc::new(MemFs::new());
    let mut live = StreamSession::open(fs.clone(), manual()).unwrap();
    let batches: Vec<_> = EpochStream::new(&log, EpochPolicy::ByCount(3)).collect();
    let take = batches.len() / 2;
    for bt in &batches[..take] {
        live.ingest_batch(bt).unwrap();
    }
    drop(live);
    let recovered = StreamSession::open(fs, manual()).unwrap();
    assert_eq!(recovered.recovery_report().unwrap().watermark, a[take - 1].1);
    assert_eq!(recovered.epochs(), take as u64);
}

/// A crash torn mid-WAL-write: recovery discards the tail — and counts
/// what it discarded, for whoever reads the metrics and not this process's
/// report — and the re-delivered epochs land exactly once.
#[test]
fn torn_tail_recovers_and_redelivers() {
    let discarded_total =
        || raptor_common::obs::metrics().snapshot().counter("raptor_wal_bytes_discarded_total");
    let log = sample_log();
    let mem = Arc::new(MemFs::new());
    let fp = Arc::new(FailpointFs::new(mem.clone()));
    let mut live = StreamSession::open(fp.clone(), manual()).unwrap();
    live.register("hunt", Q).unwrap();
    // Let two epochs commit, then tear the third's frame.
    let batches: Vec<_> = EpochStream::new(&log, EpochPolicy::ByCount(2)).collect();
    live.ingest_batch(&batches[0]).unwrap();
    live.ingest_batch(&batches[1]).unwrap();
    fp.crash_after_bytes(10);
    let err = live.ingest_batch(&batches[2]).unwrap_err();
    assert!(err.to_string().contains("failpoint"), "{err}");
    drop(live);

    let before = discarded_total();
    let mut recovered = StreamSession::open(mem, manual()).unwrap();
    let r = recovered.recovery_report().unwrap().clone();
    assert_eq!(r.wal_epochs_replayed, 2);
    assert_eq!(r.wal_bytes_discarded, 10, "{r:?}");
    // Other tests of this process discard tails too.
    assert!(discarded_total() >= before + 10);
    assert_eq!(r.resumed_epoch, 2);
    // Re-deliver everything; first two dedupe, the rest apply.
    for b in &batches {
        recovered.ingest_batch(b).unwrap();
    }
    assert_eq!(recovered.epochs(), batches.len() as u64);
    assert_eq!(
        recovered.engine().stores.graph.node_count() + {
            let e = recovered.engine();
            e.stores.graph.edge_count()
        },
        log.entities.len() + log.events.len()
    );
}

/// Transient WAL errors surface as typed errors without corrupting the
/// session's prior durable state.
#[test]
fn injected_error_surfaces_cleanly() {
    let log = sample_log();
    let mem = Arc::new(MemFs::new());
    let fp = Arc::new(FailpointFs::new(mem.clone()));
    let mut live = StreamSession::open(fp.clone(), manual()).unwrap();
    let batches: Vec<_> = EpochStream::new(&log, EpochPolicy::ByCount(4)).collect();
    live.ingest_batch(&batches[0]).unwrap();
    fp.error_on_op(0);
    assert!(live.ingest_batch(&batches[1]).is_err());
    drop(live);
    // Epoch 0 survived; the failed epoch never committed.
    let recovered = StreamSession::open(mem, manual()).unwrap();
    assert_eq!(recovered.epochs(), 1);
}

/// A failed *automatic* checkpoint costs nothing. The epoch it follows is
/// already durable, so its report — deltas included — is returned (it used
/// to be replaced by the checkpoint's error, and the re-delivered epoch
/// then deduped to `Ok(None)`: the detection output was lost). The failure
/// is counted, the next epoch retries the write, and the directory reopens
/// to the live state before and after the retry.
#[test]
fn failed_automatic_checkpoint_keeps_the_epoch_report() {
    let failures =
        || raptor_common::obs::metrics().snapshot().counter("raptor_checkpoint_failures_total");
    let log = sample_log();
    let batches: Vec<_> = EpochStream::new(&log, EpochPolicy::ByCount(3)).collect();
    let policy = DurablePolicy { checkpoint_every: 2 };
    let mem = Arc::new(MemFs::new());
    let fp = Arc::new(FailpointFs::new(mem.clone()));
    let mut live = StreamSession::open(fp.clone(), policy).unwrap();
    live.register("hunt", Q).unwrap();
    let mut delta_rows = 0;
    let mut ingest = |live: &mut StreamSession, b: &EpochBatch<'_>| {
        let report = live.ingest_batch(b).unwrap().expect("fresh epoch");
        assert_eq!(report.deltas.len(), 1);
        delta_rows += report.deltas[0].delta.n_rows();
    };
    ingest(&mut live, &batches[0]);

    // The epoch's append and fsync, then the checkpoint's replace: fail
    // exactly that one.
    fp.error_on_op(2);
    let before = failures();
    ingest(&mut live, &batches[1]);
    assert_eq!(failures(), before + 1);
    assert!(mem.snapshot(CKPT_FILE).is_empty(), "the replace failed");
    assert!(live.ingest_batch(&batches[1]).unwrap().is_none(), "the epoch is held");
    assert_same_state(&StreamSession::open(mem.clone(), policy).unwrap(), &live);

    // Still due: the next epoch writes the manifest.
    ingest(&mut live, &batches[2]);
    assert!(!mem.snapshot(CKPT_FILE).is_empty(), "retried after the next epoch");
    for b in &batches[3..] {
        ingest(&mut live, b);
    }
    assert_eq!(delta_rows, live.query(QueryId(0)).cumulative_batch().n_rows());
    assert!(delta_rows > 0);
    let recovered = StreamSession::open(mem, policy).unwrap();
    assert!(recovered.recovery_report().unwrap().checkpoint_found);
    assert_same_state(&recovered, &live);
    // An explicit checkpoint still reports its error.
    fp.error_on_op(0);
    let err = live.checkpoint().unwrap_err();
    assert!(err.message.contains("injected transient error"), "{err}");
}

/// Names are keys: a second registration under a taken name is refused
/// on every session, and on a durable one nothing reaches the log. (Two
/// queries both called "hunt" used to register fine and come back from
/// recovery as one.)
#[test]
fn duplicate_names_are_refused() {
    let other = r#"proc p["%curl%"] connect ip i return distinct p, i"#;
    let fs = Arc::new(MemFs::new());
    let durable = StreamSession::open(fs.clone(), manual()).unwrap();
    for mut session in [StreamSession::new().unwrap(), durable] {
        session.register("hunt", Q).unwrap();
        let wal_len = fs.snapshot(wal::WAL_FILE).len();
        let err = session.register("hunt", other).unwrap_err();
        assert_eq!(err.kind, ErrorKind::Semantic, "{err}");
        assert!(err.message.contains("`hunt` is already registered"), "{err}");
        assert_eq!(session.queries().len(), 1);
        assert_eq!(fs.snapshot(wal::WAL_FILE).len(), wal_len, "a refusal is not logged");
        // The name is what is taken, not the text.
        session.register("hunt2", Q).unwrap();
    }
    let recovered = StreamSession::open(fs, manual()).unwrap();
    assert_eq!(recovered.recovery_report().unwrap().registrations_recovered, 2);
}

/// Distinctly named registrations survive a crash, in registration
/// order, from the WAL alone and from a checkpoint plus the WAL tail.
#[test]
fn every_registration_is_recovered_in_order() {
    let log = sample_log();
    let other = r#"proc p["%curl%"] connect ip i return distinct p, i"#;
    let batches: Vec<_> = EpochStream::new(&log, EpochPolicy::ByCount(3)).collect();
    for checkpoint_between in [false, true] {
        let fs = Arc::new(MemFs::new());
        let mut live = StreamSession::open(fs.clone(), manual()).unwrap();
        live.register("hunt", Q).unwrap();
        live.ingest_batch(&batches[0]).unwrap();
        if checkpoint_between {
            live.checkpoint().unwrap();
        }
        live.register("exfil", other).unwrap();
        for b in &batches[1..] {
            live.ingest_batch(b).unwrap();
        }

        let recovered = StreamSession::open(fs, manual()).unwrap();
        let r = recovered.recovery_report().unwrap();
        assert_eq!(r.checkpoint_found, checkpoint_between);
        assert_eq!(r.registrations_recovered, 2);
        let names: Vec<&str> = recovered.queries().iter().map(|q| q.name()).collect();
        assert_eq!(names, ["hunt", "exfil"]);
        assert_same_state(&recovered, &live);
    }
}

/// A failed epoch is a declared fail-stop. A transient error out of the
/// epoch's append or its fsync leaves the live stores ahead of what the
/// log is known to hold; the session then refuses every later write with
/// one typed error (it used to answer `appended out of order`, then
/// `epoch gap`). Reopening finds a whole number of epochs — after a failed
/// append no part of the epoch, after a failed fsync whatever the disk
/// kept (all of it, on `MemFs`) — and re-delivering the whole stream
/// builds the bulk-loaded stores.
#[test]
fn failed_epoch_is_a_declared_fail_stop() {
    let log = sample_log();
    let batches: Vec<_> = EpochStream::new(&log, EpochPolicy::ByCount(4)).collect();
    // An epoch is two fs operations: fail the append, then the fsync.
    for (failing_op, epochs_kept) in [(0, 1), (1, 2)] {
        let mem = Arc::new(MemFs::new());
        let fp = Arc::new(FailpointFs::new(mem.clone()));
        let mut live = StreamSession::open(fp.clone(), manual()).unwrap();
        live.register("hunt", Q).unwrap();
        live.ingest_batch(&batches[0]).unwrap();
        fp.error_on_op(failing_op);
        let cause = live.ingest_batch(&batches[1]).unwrap_err();
        assert!(cause.message.contains("injected transient error"), "{cause}");

        let declared = format!("session failed at epoch 1: {cause}; reopen to recover");
        let later = [
            live.ingest_batch(&batches[1]).map(|_| ()),
            live.ingest_batch(&batches[0]).map(|_| ()),
            live.ingest(&[], &[]).map(|_| ()),
            live.flush_entities(&log).map(|_| ()),
            live.register("late", Q).map(|_| ()),
            live.checkpoint(),
        ];
        for refused in later {
            let err = refused.unwrap_err();
            assert_eq!(err.kind, ErrorKind::Storage);
            assert_eq!(err.message, declared);
        }
        drop(live);

        let mut recovered = StreamSession::open(mem, manual()).unwrap();
        let r = recovered.recovery_report().unwrap();
        assert_eq!((r.resumed_epoch, r.wal_epochs_replayed), (epochs_kept, epochs_kept));
        assert_eq!(r.wal_bytes_discarded, 0, "{r:?}");
        for b in &batches {
            recovered.ingest_batch(b).unwrap();
        }
        assert_eq!(recovered.epochs(), batches.len() as u64);
        assert_same_stores(&recovered.engine().stores, &load(&log).unwrap());
    }

    // A volatile session fail-stops the same way; it has nothing to
    // reopen.
    let mut volatile = StreamSession::new().unwrap();
    let cause = volatile.ingest(&log.entities[1..], &[]).unwrap_err();
    let err = volatile.ingest(&log.entities, &log.events).unwrap_err();
    assert_eq!(
        err.message,
        format!("session failed at epoch 0: {cause}; rebuild it from the source")
    );
}

/// An [`Fs`] that notes every call made through it.
#[derive(Debug, Default)]
struct CallLogFs {
    inner: MemFs,
    calls: Mutex<Vec<&'static str>>,
}

impl CallLogFs {
    fn note(&self, call: &'static str) {
        self.calls.lock().unwrap().push(call);
    }

    /// The calls made since the last `take_calls`.
    fn take_calls(&self) -> Vec<&'static str> {
        std::mem::take(&mut self.calls.lock().unwrap())
    }
}

impl Fs for CallLogFs {
    fn append(&self, name: &str, bytes: &[u8]) -> Result<()> {
        self.note("append");
        self.inner.append(name, bytes)
    }
    fn sync(&self, name: &str) -> Result<()> {
        self.note("sync");
        self.inner.sync(name)
    }
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>> {
        self.note("read");
        self.inner.read(name)
    }
    fn replace(&self, name: &str, bytes: &[u8]) -> Result<()> {
        self.note("replace");
        self.inner.replace(name, bytes)
    }
    fn remove(&self, name: &str) -> Result<()> {
        self.note("remove");
        self.inner.remove(name)
    }
}

/// The durable unit is the write unit: an epoch — of any size, empty
/// included — and a registration are each exactly one append followed by
/// one fsync, and each is one unit to the scanner.
#[test]
fn a_durable_unit_is_one_append_and_one_sync() {
    let log = sample_log();
    let fs = Arc::new(CallLogFs::default());
    let mut live = StreamSession::open(fs.clone(), manual()).unwrap();
    assert_eq!(fs.take_calls(), ["read", "read"], "the manifest, then the log");
    live.register("hunt", Q).unwrap();
    assert_eq!(fs.take_calls(), ["append", "sync"]);
    let mut records = vec![1];
    for batch in EpochStream::new(&log, EpochPolicy::ByCount(5)) {
        live.ingest_batch(&batch).unwrap().expect("fresh epoch");
        assert_eq!(fs.take_calls(), ["append", "sync"], "epoch {}", batch.epoch);
        records.push((batch.entities.len() + batch.events.len() + 1) as u64);
    }
    live.flush_entities(&log).unwrap();
    assert_eq!(fs.take_calls(), ["append", "sync"], "an empty epoch");
    records.push(1);
    live.checkpoint().unwrap();
    assert_eq!(fs.take_calls(), ["replace"]);

    let bytes = fs.inner.snapshot(wal::WAL_FILE);
    let units: Vec<u64> = wal::scan(&bytes).map(|unit| unit.unwrap().records()).collect();
    assert_eq!(units, records);
}

/// A batch the stores refuse half-way — a good event, then one naming an
/// entity nobody delivered — is a fail-stop that leaves the log as it was:
/// nothing of the batch is in it, so the reopened session is the one before
/// the batch and has nothing to discard.
#[test]
fn refused_epoch_leaves_the_log_untouched() {
    let log = sample_log();
    let batches: Vec<_> = EpochStream::new(&log, EpochPolicy::ByCount(4)).collect();
    let fs = Arc::new(MemFs::new());
    let mut live = StreamSession::open(fs.clone(), manual()).unwrap();
    live.register("hunt", Q).unwrap();
    live.ingest_batch(&batches[0]).unwrap();
    let before = fs.snapshot(wal::WAL_FILE);

    let unknown = EntityId::from_usize(log.entities.len());
    let good = batches[1].events[0].clone();
    let events = [good.clone(), SystemEvent { object: unknown, ..good.clone() }, good];
    let err = live.ingest(batches[1].entities, &events).unwrap_err();
    assert_eq!(err.kind, ErrorKind::Storage, "{err}");
    assert!(err.message.contains("names entity"), "{err}");
    assert_eq!(fs.snapshot(wal::WAL_FILE), before);
    assert!(live.ingest_batch(&batches[1]).unwrap_err().message.contains("session failed"));
    assert_eq!(fs.snapshot(wal::WAL_FILE), before);
    drop(live);

    let mut recovered = StreamSession::open(fs, manual()).unwrap();
    let r = recovered.recovery_report().unwrap();
    assert_eq!((r.resumed_epoch, r.wal_bytes_discarded), (1, 0));
    for b in &batches {
        recovered.ingest_batch(b).unwrap();
    }
    assert_same_stores(&recovered.engine().stores, &load(&log).unwrap());
}
