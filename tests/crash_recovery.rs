//! Fault-injected crash recovery.
//!
//! The durability plane's acceptance property: crash the durable session at
//! **any byte offset** of its write stream — mid epoch frame, mid
//! registration, mid checkpoint, post-fsync — then recover from what
//! survived on "disk" and re-deliver the stream from the beginning. The
//! recovered store must be indistinguishable from a one-shot bulk load:
//! every corpus query answers byte-identically on both backends, at any
//! thread count and any segment capacity, and idempotent re-delivery never
//! double-appends.
//!
//! Alongside the property: the checkpoint is a manifest over the log and
//! only accelerates a restart (the log alone rebuilds the same session), and
//! corrupt-input hardening (bit-flipped, truncated, zero-length WAL and
//! checkpoint files yield typed errors or clean tail-discard — never a
//! panic), mirroring `tests/fuzzy_recovery.rs`.

use std::sync::Arc;

use proptest::prelude::*;
use threatraptor::common::error::ErrorKind;
use threatraptor::common::io::{FailpointFs, Fs, MemFs};
use threatraptor::engine::exec::ExecMode;
use threatraptor::engine::load::load;
use threatraptor::engine::{Engine, ResultTable, CKPT_FILE, WAL_FILE};
use threatraptor::stream::{EpochPolicy, EpochStream, StreamSession};
use threatraptor::DurablePolicy;

use raptor_audit::ParsedLog;

/// The shared 8-query equivalence corpus (same fragment as the
/// backend/streaming equivalence suites).
const QUERIES: &[&str] = threatraptor::tbql::parser::EQUIV_CORPUS;

/// Opens (or recovers) a durable session over `fs`, registers whatever
/// corpus queries recovery did not already restore, and delivers the whole
/// stream from epoch 0 — relying on the dedupe seam to skip epochs the
/// session already committed. Any error is surfaced (a tripped failpoint
/// aborts here, playing the crash).
fn drive(
    fs: Arc<dyn Fs>,
    log: &ParsedLog,
    epoch_size: usize,
    policy: DurablePolicy,
    threads: usize,
    seg_rows: usize,
) -> threatraptor::common::error::Result<StreamSession> {
    let mut s = StreamSession::open(fs, policy)?;
    s.set_threads(threads);
    s.set_segment_rows(seg_rows);
    for (i, q) in QUERIES.iter().enumerate() {
        let name = format!("q{i}");
        if !s.queries().iter().any(|sq| sq.name() == name) {
            s.register(&name, q)?;
        }
    }
    for batch in EpochStream::new(log, EpochPolicy::ByCount(epoch_size)) {
        s.ingest_batch(&batch)?;
    }
    Ok(s)
}

/// The recovered store answers the whole corpus — event-pattern form on
/// both backends — byte-identically to the bulk-loaded reference, and each
/// standing query's recovered cumulative state equals the batch result.
fn assert_recovered_equals_bulk(recovered: &StreamSession, bulk: &Engine, ctx: &str) {
    let eng = recovered.engine();
    assert_eq!(eng.stores.rel.total_rows(), bulk.stores.rel.total_rows(), "{ctx}");
    assert_eq!(eng.stores.graph.node_count(), bulk.stores.graph.node_count(), "{ctx}");
    assert_eq!(eng.stores.graph.edge_count(), bulk.stores.graph.edge_count(), "{ctx}");
    assert_eq!(eng.stores.now_ns, bulk.stores.now_ns, "{ctx}: watermark");
    // Stream interleaves entity/event interning while bulk loads entities
    // first, so dictionaries differ; compare the canonical stats view.
    assert_eq!(
        eng.stores.rel.store_stats().canonical(),
        bulk.stores.rel.store_stats().canonical(),
        "{ctx}: stats"
    );
    for (i, q) in QUERIES.iter().enumerate() {
        let (want, _) = bulk.execute_text(q, ExecMode::Scheduled).unwrap();
        let (got, _) = eng.execute_text(q, ExecMode::Scheduled).unwrap();
        assert_eq!(got.sorted_rows(), want.sorted_rows(), "{ctx}: query {q}");

        let parsed = threatraptor::tbql::parse_tbql(q).unwrap();
        let path_q = threatraptor::tbql::print::print_query(
            &threatraptor::engine::exec::to_length1_path_query(&parsed),
        );
        let (got_p, _) = eng.execute_text(&path_q, ExecMode::Scheduled).unwrap();
        assert_eq!(got_p.sorted_rows(), want.sorted_rows(), "{ctx}: path query {path_q}");

        let standing = recovered
            .queries()
            .iter()
            .find(|sq| sq.name() == format!("q{i}"))
            .expect("corpus query registered");
        let cumulative = ResultTable::from_batch(&standing.cumulative_batch());
        assert_eq!(cumulative.sorted_rows(), want.sorted_rows(), "{ctx}: standing {q}");
    }
}

/// Automatic checkpoints that failed so far, process-wide.
fn checkpoint_failures() -> u64 {
    threatraptor::obs::metrics().snapshot().counter("raptor_checkpoint_failures_total")
}

/// Everything an epoch leaves behind is equal: position, totals, each
/// standing query's rows and per-pattern progress, both stores.
fn assert_same_state(a: &StreamSession, b: &StreamSession, ctx: &str) {
    assert_eq!(a.epochs(), b.epochs(), "{ctx}");
    assert_eq!(a.total_ingest_stats(), b.total_ingest_stats(), "{ctx}");
    let names = |s: &StreamSession| -> Vec<String> {
        s.queries().iter().map(|q| q.name().to_string()).collect()
    };
    assert_eq!(names(a), names(b), "{ctx}");
    for (qa, qb) in a.queries().iter().zip(b.queries()) {
        assert_eq!(
            ResultTable::from_batch(&qa.cumulative_batch()),
            ResultTable::from_batch(&qb.cumulative_batch()),
            "{ctx}: {}",
            qa.name()
        );
        assert_eq!(format!("{:?}", qa.progress()), format!("{:?}", qb.progress()), "{ctx}");
    }
    let (sa, sb) = (&a.engine().stores, &b.engine().stores);
    assert_eq!(sa.now_ns, sb.now_ns, "{ctx}");
    assert_eq!(sa.rel.store_stats().canonical(), sb.rel.store_stats().canonical(), "{ctx}");
    assert_eq!(
        (sa.graph.node_count(), sa.graph.edge_count()),
        (sb.graph.node_count(), sb.graph.edge_count()),
        "{ctx}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Property: for any case, any epoch size, any checkpoint cadence, any
    /// thread count, any segment capacity, and a crash at **any byte
    /// offset** of the durable write stream, recovery + idempotent
    /// re-delivery converges to exactly the bulk-loaded store.
    #[test]
    fn crash_anywhere_then_recover_equals_bulk(
        case_idx in 0usize..18,
        epoch_size in 4usize..160,
        ckpt_every in 0u64..4,
        crash_frac in 0.0f64..1.0,
        knobs in 0usize..4,
    ) {
        let cases = raptor_cases::all_cases();
        let spec = cases[case_idx % cases.len()];
        let built = raptor_cases::build_case(spec, 0.05, 1234);
        let policy = DurablePolicy { checkpoint_every: ckpt_every };
        let threads = if knobs & 1 == 1 { 4 } else { 1 };
        let seg_rows = if knobs & 2 == 2 { 7 } else { 4096 };
        let ctx = format!(
            "{} epoch={epoch_size} ckpt={ckpt_every} threads={threads} seg={seg_rows}",
            spec.id
        );

        // Calibrate: one clean run to learn the total bytes written.
        let calib = Arc::new(FailpointFs::new(Arc::new(MemFs::new())));
        drive(calib.clone(), &built.log, epoch_size, policy, threads, seg_rows).unwrap();
        let total = calib.bytes_written();
        prop_assert!(total > 0);

        // Crash run: the same workload with a byte budget that trips at a
        // proptest-chosen offset; everything past it is torn/dead.
        let disk = Arc::new(MemFs::new());
        let fp = Arc::new(FailpointFs::new(disk.clone()));
        fp.crash_after_bytes(((total as f64) * crash_frac) as u64);
        let ckpt_failures = checkpoint_failures();
        let crashed = drive(fp.clone(), &built.log, epoch_size, policy, threads, seg_rows);
        // The one budget hit that is not an error: the replace of an
        // automatic checkpoint, after a durable epoch with nothing written
        // after it. That one is counted instead.
        prop_assert!(
            crashed.is_err() || !fp.crashed() || checkpoint_failures() > ckpt_failures,
            "budget hit must surface as error"
        );
        drop(crashed);

        // Recover from the surviving disk image and re-deliver everything.
        let recovered =
            drive(disk, &built.log, epoch_size, policy, threads, seg_rows).unwrap();
        prop_assert_eq!(
            recovered.epochs() as usize,
            EpochStream::new(&built.log, EpochPolicy::ByCount(epoch_size)).count(),
            "{}", &ctx
        );

        let mut bulk = Engine::new(load(&built.log).unwrap());
        bulk.set_threads(threads);
        bulk.set_segment_rows(seg_rows);
        assert_recovered_equals_bulk(&recovered, &bulk, &ctx);
    }

    /// The manifest only accelerates. For any case, epoch size and
    /// checkpoint cadence, with registrations before and after a checkpoint
    /// (or none of either), reopening the directory with its `ckpt` and
    /// reopening it with `ckpt` removed give the same session — the live
    /// one: the log alone rebuilds everything.
    #[test]
    fn the_manifest_only_accelerates(
        case_idx in 0usize..18,
        epoch_size in 4usize..160,
        ckpt_every in 0u64..4,
        early in 0usize..4,
        late in 0usize..4,
        ckpt_frac in 0.0f64..1.0,
    ) {
        let cases = raptor_cases::all_cases();
        let spec = cases[case_idx % cases.len()];
        let built = raptor_cases::build_case(spec, 0.05, 1234);
        let policy = DurablePolicy { checkpoint_every: ckpt_every };
        let batches: Vec<_> =
            EpochStream::new(&built.log, EpochPolicy::ByCount(epoch_size)).collect();
        let ckpt_at = ((batches.len() as f64) * ckpt_frac) as usize;
        let ctx = format!(
            "{} epoch={epoch_size} ckpt={ckpt_every} early={early} late={late} at={ckpt_at}",
            spec.id
        );

        let disk = Arc::new(MemFs::new());
        let mut live = StreamSession::open(disk.clone(), policy).unwrap();
        for (i, q) in QUERIES.iter().enumerate().take(early) {
            live.register(&format!("early{i}"), q).unwrap();
        }
        for b in &batches[..ckpt_at] {
            live.ingest_batch(b).unwrap();
        }
        live.checkpoint().unwrap();
        for (i, q) in QUERIES.iter().enumerate().skip(4).take(late) {
            live.register(&format!("late{i}"), q).unwrap();
        }
        for b in &batches[ckpt_at..] {
            live.ingest_batch(b).unwrap();
        }

        let with = StreamSession::open(disk.clone(), policy).unwrap();
        prop_assert!(with.recovery_report().unwrap().checkpoint_found);
        let log_only = Arc::new(MemFs::new());
        log_only.store(WAL_FILE, disk.snapshot(WAL_FILE));
        let without = StreamSession::open(log_only, policy).unwrap();
        prop_assert!(!without.recovery_report().unwrap().checkpoint_found);
        assert_same_state(&with, &live, &ctx);
        assert_same_state(&without, &live, &ctx);
        // Every epoch and registration is restored once, on one side of
        // the manifest or the other.
        let (w, wo) = (with.recovery_report().unwrap(), without.recovery_report().unwrap());
        prop_assert_eq!(w.checkpoint_epochs + w.wal_epochs_replayed, live.epochs(), "{}", &ctx);
        prop_assert_eq!(wo.wal_epochs_replayed, live.epochs(), "{}", &ctx);
        prop_assert_eq!(w.registrations_recovered, (early + late) as u64, "{}", &ctx);
        prop_assert_eq!(wo.registrations_recovered, (early + late) as u64, "{}", &ctx);
    }
}

/// A `data_leak` session checkpointed half-way, left with a log tail.
struct SampleDisk {
    disk: Arc<MemFs>,
    epochs: u64,
    /// Length of the log when the checkpoint was written: the `log_len`
    /// its manifest records.
    log_len: usize,
}

fn sample_disk() -> SampleDisk {
    let spec = raptor_cases::catalog::case_by_id("data_leak").unwrap();
    let built = raptor_cases::build_case(spec, 0.05, 1234);
    let disk = Arc::new(MemFs::new());
    let mut s = StreamSession::open(disk.clone(), DurablePolicy { checkpoint_every: 0 }).unwrap();
    s.register("hunt", QUERIES[0]).unwrap();
    let batches: Vec<_> = EpochStream::new(&built.log, EpochPolicy::ByCount(32)).collect();
    let half = batches.len() / 2;
    for b in &batches[..half] {
        s.ingest_batch(b).unwrap();
    }
    s.checkpoint().unwrap();
    let log_len = disk.snapshot(WAL_FILE).len();
    for b in &batches[half..] {
        s.ingest_batch(b).unwrap();
    }
    SampleDisk { disk, epochs: s.epochs(), log_len }
}

/// Opens a copy of `sample`'s checkpoint beside `wal`. Damage below the
/// manifest's `log_len` must be refused as corruption — a typed `Storage`
/// error that leaves both files as they were; `None` then.
fn open_damaged(
    sample: &SampleDisk,
    wal: Vec<u8>,
    damaged_at: usize,
    ctx: &str,
) -> Option<StreamSession> {
    let ckpt = sample.disk.snapshot(CKPT_FILE);
    let fs = Arc::new(MemFs::new());
    fs.store(CKPT_FILE, ckpt.clone());
    fs.store(WAL_FILE, wal.clone());
    let opened = StreamSession::open(fs.clone(), DurablePolicy { checkpoint_every: 0 });
    if damaged_at >= sample.log_len {
        return Some(opened.unwrap_or_else(|e| panic!("{ctx}: {e}")));
    }
    let err = opened.err().unwrap_or_else(|| panic!("{ctx}: damage below the manifest accepted"));
    assert_eq!(err.kind, ErrorKind::Storage, "{ctx}: {err}");
    assert!(err.message.contains("log damaged below the checkpoint"), "{ctx}: {err}");
    assert_eq!(fs.snapshot(CKPT_FILE), ckpt, "{ctx}: ckpt untouched");
    assert_eq!(fs.snapshot(WAL_FILE), wal, "{ctx}: wal untouched");
    None
}

/// A crash *inside* checkpoint() must leave the previous durable state
/// fully recoverable: the old checkpoint survives the torn replace, and the
/// log is not something a checkpoint writes.
#[test]
fn crash_mid_checkpoint_keeps_old_state() {
    let SampleDisk { disk, epochs, .. } = sample_disk();
    let before_ckpt = disk.snapshot(CKPT_FILE);
    let before_wal = disk.snapshot(WAL_FILE);
    let fp = Arc::new(FailpointFs::new(disk.clone()));
    let mut s = StreamSession::open(fp.clone(), DurablePolicy { checkpoint_every: 0 }).unwrap();
    fp.crash_after_bytes(64);
    assert!(s.checkpoint().is_err(), "failpoint must trip inside checkpoint");
    drop(s);

    assert_eq!(disk.snapshot(CKPT_FILE), before_ckpt, "old checkpoint must survive");
    assert_eq!(disk.snapshot(WAL_FILE), before_wal, "the log is untouched");
    let recovered = StreamSession::open(disk, DurablePolicy { checkpoint_every: 0 }).unwrap();
    assert_eq!(recovered.epochs(), epochs);
    assert_eq!(recovered.recovery_report().unwrap().registrations_recovered, 1);
}

/// `checkpoint()` is one `Fs` write — the manifest's replace — and the log
/// is not part of it; and the manifest holds no rows: doubling a store's
/// events grows it by less than a tenth of what the log grows by.
#[test]
fn checkpoint_is_one_write_of_a_manifest_without_rows() {
    let spec = raptor_cases::catalog::case_by_id("data_leak").unwrap();
    let built = raptor_cases::build_case(spec, 2.0, 1234);
    let batches: Vec<_> = EpochStream::new(&built.log, EpochPolicy::ByCount(32)).collect();
    let disk = Arc::new(MemFs::new());
    let fp = Arc::new(FailpointFs::new(disk.clone()));
    let mut s = StreamSession::open(fp.clone(), DurablePolicy { checkpoint_every: 0 }).unwrap();
    s.register("hunt", QUERIES[0]).unwrap();

    // (manifest bytes, log bytes, events) at half the stream and at its end.
    let mut sizes = Vec::new();
    for part in [&batches[..batches.len() / 2], &batches[batches.len() / 2..]] {
        for b in part {
            s.ingest_batch(b).unwrap();
        }
        let (written, wal) = (fp.bytes_written(), disk.snapshot(WAL_FILE));
        s.checkpoint().unwrap();
        let manifest = disk.snapshot(CKPT_FILE).len();
        assert_eq!(fp.bytes_written() - written, manifest as u64, "one write: the manifest");
        assert_eq!(disk.snapshot(WAL_FILE), wal, "a checkpoint does not write the log");
        sizes.push((manifest, wal.len(), s.engine().stores.graph.edge_count()));
    }
    let [(m1, l1, e1), (m2, l2, e2)] = sizes[..] else { unreachable!() };
    assert!(e2 >= 2 * e1 - 32, "the second half doubles the events: {e1} -> {e2}");
    assert!((m2 - m1) * 10 < l2 - l1, "manifest grew {m1} -> {m2} while the log grew {l1} -> {l2}");
}

/// Truncating the log at or after the manifest's `log_len` is *tolerated*:
/// open succeeds, the torn tail is discarded, and the session resumes at
/// the last durable point it can still prove. Truncating it below `log_len`
/// loses bytes the manifest says were fsynced: a typed error, files
/// untouched. Never a panic, never a corrupted store.
#[test]
fn truncated_wal_always_recovers() {
    let sample = sample_disk();
    let wal = sample.disk.snapshot(WAL_FILE);
    assert!(0 < sample.log_len && sample.log_len < wal.len(), "fixture must leave a WAL tail");
    let step = (wal.len() / 40).max(1);
    let cuts = (0..=wal.len()).step_by(step).chain([sample.log_len - 1, sample.log_len]);
    let mut opened = 0;
    for cut in cuts {
        let Some(s) = open_damaged(&sample, wal[..cut].to_vec(), cut, &format!("cut at {cut}"))
        else {
            continue;
        };
        opened += 1;
        assert!(s.epochs() <= sample.epochs);
        assert!(s.epochs() >= s.recovery_report().unwrap().checkpoint_epochs);
    }
    assert!(opened > 10, "the sweep covers the tail too");
}

/// Bit-flipping any sampled byte of the log at or after `log_len` is
/// tolerated the same way: the checksum rejects the frame and everything
/// from it on is discarded as the torn tail — epochs before the flip
/// survive, and re-delivery heals the rest. A flip below `log_len` is
/// corruption of checkpointed data: a typed error, files untouched.
#[test]
fn bitflipped_wal_discards_from_flip() {
    let sample = sample_disk();
    let wal = sample.disk.snapshot(WAL_FILE);
    let step = (wal.len() / 25).max(1);
    let mut opened = 0;
    for pos in (0..wal.len()).step_by(step).chain([sample.log_len - 1, sample.log_len]) {
        for bit in [0u8, 7] {
            let mut flipped = wal.clone();
            flipped[pos] ^= 1 << bit;
            let Some(s) = open_damaged(&sample, flipped, pos, &format!("flip at {pos}.{bit}"))
            else {
                continue;
            };
            opened += 1;
            assert!(s.epochs() <= sample.epochs, "flip at {pos}.{bit}");
        }
    }
    assert!(opened > 10, "the sweep covers the tail too");
}

/// A log in the retired per-record layout — here its first record, an
/// entity framed by hand under tag 1, alone or after a registration (whose
/// frame both layouts share) — is refused for what it is. It is intact, so
/// it is not a torn tail: trimming it would empty a log that holds a
/// stream. Both files stay as they were.
#[test]
fn retired_wal_layout_is_refused_untouched() {
    use threatraptor::common::io::crc32;
    let sample = sample_disk();
    let payload = [&[1u8][..], &7u32.to_le_bytes(), &[0u8; 19]].concat();
    let old_record =
        [&(payload.len() as u32).to_le_bytes()[..], &crc32(&payload).to_le_bytes(), &payload]
            .concat();
    // The sample's log opens with its registration's frame.
    let wal = sample.disk.snapshot(WAL_FILE);
    let register_len = 8 + u32::from_le_bytes(wal[..4].try_into().unwrap()) as usize;
    let after_register = [&wal[..register_len], &old_record].concat();
    for (wal, ckpt) in [
        (old_record.clone(), None),
        (after_register.clone(), None),
        (after_register, Some(sample.disk.snapshot(CKPT_FILE))),
    ] {
        let fs = Arc::new(MemFs::new());
        fs.store(WAL_FILE, wal.clone());
        if let Some(ckpt) = &ckpt {
            fs.store(CKPT_FILE, ckpt.clone());
        }
        let err = StreamSession::open(fs.clone(), DurablePolicy::default())
            .err()
            .expect("a retired-layout log must not open");
        assert_eq!(err.kind, ErrorKind::Storage, "{err}");
        assert!(err.message.contains("retired per-record WAL layout"), "{err}");
        assert_eq!(fs.snapshot(WAL_FILE), wal, "wal untouched");
        assert_eq!(fs.snapshot(CKPT_FILE), ckpt.unwrap_or_default(), "ckpt untouched");
    }
}

/// The facade path over a real directory: `ThreatRaptor::open` against a
/// `RAPTOR_WAL_DIR`-rooted temp dir, incremental appends, checkpoint,
/// re-open — the recovered system answers the corpus like the original.
/// (CI points `RAPTOR_WAL_DIR` at the runner's temp dir; locally this
/// falls back to the system temp dir.)
#[test]
fn facade_open_recovers_from_disk() {
    use threatraptor::common::io::test_wal_dir;
    use threatraptor::ThreatRaptor;

    let spec = raptor_cases::catalog::case_by_id("data_leak").unwrap();
    let built = raptor_cases::build_case(spec, 0.05, 1234);
    let dir = test_wal_dir("facade-open");

    let mut live = ThreatRaptor::open(&dir).expect("open empty dir");
    assert_eq!(live.recovery_report().unwrap().resumed_epoch, 0);
    let batches: Vec<_> = EpochStream::new(&built.log, EpochPolicy::ByCount(64)).collect();
    let half = batches.len() / 2;
    let d = live.durable_mut().expect("durable mode");
    for b in &batches[..half] {
        d.ingest_batch(b).unwrap();
    }
    live.checkpoint().expect("explicit checkpoint");
    let d = live.durable_mut().unwrap();
    for b in &batches[half..] {
        d.ingest_batch(b).unwrap();
    }
    drop(live);

    let reopened = ThreatRaptor::open(&dir).expect("recover from disk");
    let r = reopened.recovery_report().unwrap();
    assert!(r.checkpoint_found);
    assert_eq!(r.resumed_epoch, batches.len() as u64);
    let bulk = Engine::new(load(&built.log).unwrap());
    for q in QUERIES {
        let (want, _) = bulk.execute_text(q, ExecMode::Scheduled).unwrap();
        let (got, _) = reopened.engine().execute_text(q, ExecMode::Scheduled).unwrap();
        assert_eq!(got.sorted_rows(), want.sorted_rows(), "query {q}");
    }
    // Batch-loaded systems have nothing to persist to: typed error.
    let mut batch_sys = ThreatRaptor::from_log(&built.log).unwrap();
    assert!(batch_sys.recovery_report().is_none());
    assert!(batch_sys.checkpoint().is_err());
    std::fs::remove_dir_all(&dir).ok();
}

/// A damaged *checkpoint* is a typed error — unlike the WAL tail there is
/// no valid prefix to fall back on, so recovery must refuse loudly rather
/// than serve a silently wrong store. Zero-length, truncated, and
/// bit-flipped images all fail cleanly; no input panics.
#[test]
fn corrupt_checkpoint_is_typed_error() {
    let disk = sample_disk().disk;
    let ckpt = disk.snapshot(CKPT_FILE);
    assert!(!ckpt.is_empty());

    let open = |bytes: Vec<u8>| {
        let fs = Arc::new(MemFs::new());
        fs.store(CKPT_FILE, bytes);
        StreamSession::open(fs, DurablePolicy { checkpoint_every: 0 })
    };

    assert!(open(Vec::new()).is_err(), "zero-length checkpoint");
    // An intact image of another layout version (the retired v1, say) is
    // refused for what it is, not as corruption.
    let mut v1 = ckpt.clone();
    v1[4..8].copy_from_slice(&1u32.to_le_bytes());
    let err = open(v1).err().expect("v1 image refused");
    assert_eq!(err.message, "unsupported checkpoint version 1");
    let step = (ckpt.len() / 20).max(1);
    for cut in (0..ckpt.len()).step_by(step) {
        assert!(open(ckpt[..cut].to_vec()).is_err(), "truncated at {cut}");
    }
    for pos in (0..ckpt.len()).step_by(step) {
        for bit in [0u8, 6] {
            let mut flipped = ckpt.clone();
            flipped[pos] ^= 1 << bit;
            match open(flipped) {
                Err(err) => assert!(!err.to_string().is_empty(), "flip at {pos}.{bit}"),
                Ok(_) => panic!("bit flip at {pos}.{bit} must be detected"),
            }
        }
    }
}
