//! Fault-injected crash recovery.
//!
//! The durability plane's acceptance property: crash the durable session at
//! **any byte offset** of its write stream — mid entity/event record, mid
//! epoch commit, mid checkpoint, post-fsync — then recover from what
//! survived on "disk" and re-deliver the stream from the beginning. The
//! recovered store must be indistinguishable from a one-shot bulk load:
//! every corpus query answers byte-identically on both backends, at any
//! thread count and any segment capacity, and idempotent re-delivery never
//! double-appends.
//!
//! Alongside the property: corrupt-input hardening (bit-flipped, truncated,
//! zero-length WAL and checkpoint files yield typed errors or clean
//! tail-discard — never a panic), mirroring `tests/fuzzy_recovery.rs`.

use std::sync::Arc;

use proptest::prelude::*;
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
        let crashed = drive(fp.clone(), &built.log, epoch_size, policy, threads, seg_rows);
        prop_assert!(crashed.is_err() || !fp.crashed(), "budget hit must surface as error");
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
}

fn sample_disk() -> (Arc<MemFs>, u64) {
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
    for b in &batches[half..] {
        s.ingest_batch(b).unwrap();
    }
    let epochs = s.epochs();
    (disk, epochs)
}

/// A crash *inside* checkpoint() must leave the previous durable state
/// fully recoverable: the old checkpoint survives the torn replace and the
/// WAL is never truncated without a new checkpoint in place.
#[test]
fn crash_mid_checkpoint_keeps_old_state() {
    let (disk, epochs) = sample_disk();
    let before_ckpt = disk.snapshot(CKPT_FILE);
    let fp = Arc::new(FailpointFs::new(disk.clone()));
    let mut s = StreamSession::open(fp.clone(), DurablePolicy { checkpoint_every: 0 }).unwrap();
    fp.crash_after_bytes(64);
    assert!(s.checkpoint().is_err(), "failpoint must trip inside checkpoint");
    drop(s);

    assert_eq!(disk.snapshot(CKPT_FILE), before_ckpt, "old checkpoint must survive");
    let recovered = StreamSession::open(disk, DurablePolicy { checkpoint_every: 0 }).unwrap();
    assert_eq!(recovered.epochs(), epochs);
    assert_eq!(recovered.recovery_report().unwrap().registrations_recovered, 1);
}

/// Truncating the WAL at every prefix length is *tolerated*: open succeeds,
/// the torn tail is discarded, and the session resumes at the last durable
/// point it can still prove. Never a panic, never a corrupted store.
#[test]
fn truncated_wal_always_recovers() {
    let (disk, epochs) = sample_disk();
    let wal = disk.snapshot(WAL_FILE);
    assert!(!wal.is_empty(), "fixture must leave a WAL tail");
    let step = (wal.len() / 40).max(1);
    for cut in (0..=wal.len()).step_by(step) {
        let fs = Arc::new(MemFs::new());
        fs.store(CKPT_FILE, disk.snapshot(CKPT_FILE));
        fs.store(WAL_FILE, wal[..cut].to_vec());
        let s = StreamSession::open(fs, DurablePolicy { checkpoint_every: 0 })
            .unwrap_or_else(|e| panic!("cut at {cut}: {e}"));
        assert!(s.epochs() <= epochs);
        assert!(s.epochs() >= s.recovery_report().unwrap().checkpoint_epochs);
    }
}

/// Bit-flipping any sampled byte of the WAL is tolerated the same way: the
/// checksum rejects the record and everything from it on is discarded as
/// the torn tail — epochs before the flip survive, and re-delivery heals
/// the rest.
#[test]
fn bitflipped_wal_discards_from_flip() {
    let (disk, epochs) = sample_disk();
    let wal = disk.snapshot(WAL_FILE);
    let step = (wal.len() / 25).max(1);
    for pos in (0..wal.len()).step_by(step) {
        for bit in [0u8, 7] {
            let mut flipped = wal.clone();
            flipped[pos] ^= 1 << bit;
            let fs = Arc::new(MemFs::new());
            fs.store(CKPT_FILE, disk.snapshot(CKPT_FILE));
            fs.store(WAL_FILE, flipped);
            let s = StreamSession::open(fs, DurablePolicy { checkpoint_every: 0 })
                .unwrap_or_else(|e| panic!("flip at {pos}.{bit}: {e}"));
            assert!(s.epochs() <= epochs, "flip at {pos}.{bit}");
        }
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
    let (disk, _) = sample_disk();
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
