//! `stream-detect`: live detection over a durable session.
//!
//! op = `DurableSession::ingest_batch` of one 64-event epoch of a
//! pre-parsed `data_leak` log, with two standing queries registered, over
//! `TimedFs(DirFs)` in a fresh directory: real `fsync` at every epoch
//! commit and the default `DurablePolicy` (checkpoint every 64 epochs). A
//! run ingests the whole log session after session; each session ends with
//! a restart: the session is dropped without a final checkpoint and the
//! same directory reopened until both queries answer.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use raptor_cases::BuiltCase;
use threatraptor::common::io::DirFs;
use threatraptor::engine::{ResultTable, CKPT_FILE};
use threatraptor::obs::MetricValue;
use threatraptor::stream::{EpochPolicy, EpochStream, RecoveryReport, StreamSession};
use threatraptor::{DurablePolicy, ThreatRaptor};

use crate::harness::{passes, timed, OpSample, Outcome, RunCfg};
use crate::inputs::{built, log_digest, sim_seed};
use crate::query::DATA_LEAK_SYNTHESIZED;
use crate::stats::{median, median_u64, percentile, Fnv, Permille, P50, P99, P99_5};
use crate::timed_fs::{FsLog, TimedFs};
use crate::trace::Tracer;

pub const NOISE: f64 = 9.5;
pub const EPOCH_EVENTS: usize = 64;
/// Checkpoint stalls are 1 epoch in 64, so p99 cuts through them: at a
/// cliff between a session's second checkpoint (13-16 ms) and its later ones
/// (22-37 ms) that a handful of samples decides (ten-run spreads 7-23% over
/// nine sets). p99.5 sits in the middle of the later, larger checkpoints,
/// where samples are dense (spreads 5-9% over four sets, 21% once), and a
/// run has the ten samples beyond it that it needs (~3000 epochs).
pub const TAIL_PCT: Permille = P99_5;
/// Frozen limit a full-scale session is held to, because the contract has
/// no place for an end-to-end metric only one workload defines. Checkpoint
/// plus WAL bytes left on disk per event ingested: 107.7-108.5 over 55
/// seeds; a count, so it repeats exactly for a seed.
///
/// The restart has no time limit: a run fails only on wrong output, and a
/// limit on restart time as a share of ingest time (0.14-0.20 here) failed a
/// run on the driver's machine, where the cores slow down under load and the
/// disk does not. What a restart is held to instead is what its report
/// counts (see `Session::check_restart`); `recover_s` and `recover_share`
/// are printed and compared between commits, not judged inside a run.
pub const DISK_BYTES_PER_EVENT_MAX: f64 = 109.5;

/// The `use_path_patterns` synthesis of the `data_leak` report.
pub const DATA_LEAK_PATH_SYNTHESIZED: &str = r#"proc p1["%/bin/tar%"] ~>(~3)[read] file f1["%/etc/passwd%"] as evt1
proc p1 ~>(~3)[write] file f2["%/tmp/upload.tar%"] as evt2
proc p2["%/bin/bzip2%"] ~>(~3)[read] file f2 as evt3
proc p2 ~>(~3)[write] file f3["%/tmp/upload.tar.bz2%"] as evt4
proc p3["%/usr/bin/gpg%"] ~>(~3)[read] file f3 as evt5
proc p3 ~>(~3)[write] file f4["%/tmp/upload%"] as evt6
proc p4["%/usr/bin/curl%"] ~>(~3)[read] file f4 as evt7
proc p4 ~>(~3)[connect] ip i1["192.168.29.128"] as evt8
return distinct p1, f1, f2, p2, f3, p3, f4, p4, i1"#;

/// The two standing queries: registration name, text, and the rows a
/// session's deltas must add up to. Frozen ground truth, the same for every
/// seed and noise scale: the event query names a step the simulated attack
/// never takes (its join stays empty, as in `query-events`); the path
/// variant tolerates the gap and detects the attack once.
pub const STANDING: [(&str, &str, usize); 2] = [
    ("data_leak_events", DATA_LEAK_SYNTHESIZED, 0),
    ("data_leak_paths", DATA_LEAK_PATH_SYNTHESIZED, 1),
];

pub fn setup(cfg: &RunCfg) -> BuiltCase {
    built("data_leak", cfg.noise(NOISE), sim_seed(cfg.seed, 0))
}

fn session_dir() -> PathBuf {
    crate::output_dir().join("stream-detect")
}

fn open(tracer: &Tracer) -> Result<(ThreatRaptor, Arc<TimedFs>), String> {
    let dir = DirFs::new(session_dir()).map_err(|e| e.to_string())?;
    let fs = Arc::new(TimedFs::new(Arc::new(dir), tracer.clone()));
    let raptor = ThreatRaptor::open_with_fs(fs.clone(), DurablePolicy::default())
        .map_err(|e| e.to_string())?;
    Ok((raptor, fs))
}

fn ensure(ok: bool, why: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(why())
    }
}

/// Both standing queries' answers over the store as it stands.
fn answers(raptor: &ThreatRaptor) -> Result<Vec<Vec<Vec<String>>>, String> {
    STANDING
        .iter()
        .map(|(_, q, _)| raptor.query(q).map(|t| t.sorted_rows()).map_err(|e| e.to_string()))
        .collect()
}

/// What one session (ingest the whole log, then restart) measured.
#[derive(Default)]
struct Session {
    /// Per ingested epoch: the op, whether a checkpoint ran in it, and the
    /// data-query time its deltas report.
    epochs: Vec<OpSample>,
    epoch_ckpt: Vec<bool>,
    backend_busy_ns: Vec<u64>,
    data_queries: u64,
    delta_rows: u64,
    events: u64,
    fs: FsLog,
    disk_bytes: u64,
    recover_ns: u64,
    recovery: RecoveryReport,
}

fn run_session(log: &BuiltCase, tracer: &Tracer, out: &mut Outcome) -> Result<Session, String> {
    // A fresh directory per session.
    match std::fs::remove_dir_all(session_dir()) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(format!("clear {}: {e}", session_dir().display())),
    }
    let (mut raptor, fs) = open(tracer)?;
    let durable = raptor.durable_mut().expect("opened durably");
    for (name, text, _) in STANDING {
        durable.register(name, text).map_err(|e| e.to_string())?;
    }

    let mut s = Session::default();
    let mut deltas: Vec<Vec<Vec<String>>> = vec![Vec::new(); STANDING.len()];
    for batch in EpochStream::new(&log.log, EpochPolicy::ByCount(EPOCH_EVENTS)) {
        out.calib.tick();
        let at_ns = out.calib.now_ns();
        let (busy0, replaces0) = fs.counters();
        let (r, ns) = tracer.span_timed("op.stream-detect", || {
            tracer.span("stream.durable.ingest_batch", || durable.ingest_batch(&batch))
        });
        let (busy, replaces) = fs.counters();
        let report = match r {
            Ok(Some(report)) => report,
            Ok(None) => {
                out.attempt(Err(format!("epoch {} was dropped as a duplicate", batch.epoch)));
                continue;
            }
            Err(e) => {
                out.attempt(Err(format!("epoch {}: {e}", batch.epoch)));
                continue;
            }
        };
        out.attempt(Ok(()));
        // Only an epoch that was ingested is a sample, so the per-epoch
        // vectors stay aligned.
        s.epochs.push(OpSample { at_ns, ns, io_ns: busy - busy0 });
        s.epoch_ckpt.push(replaces > replaces0);
        s.events += batch.events.len() as u64;
        let mut backend_busy = 0;
        for (d, rows) in report.deltas.iter().zip(&mut deltas) {
            backend_busy += d.stats.queries.iter().map(|q| q.wall_ns).sum::<u64>();
            s.data_queries += d.stats.data_queries as u64;
            s.delta_rows += d.delta.n_rows() as u64;
            rows.extend(ResultTable::from_batch(&d.delta).rows);
        }
        s.backend_busy_ns.push(backend_busy);
    }

    // The deltas, concatenated, are the batch answer as a row multiset.
    let live = answers(&raptor)?;
    for (((name, _, rows), mut got), want) in STANDING.iter().zip(deltas).zip(&live) {
        got.sort();
        out.attempt(ensure(&got == want && got.len() == *rows, || {
            format!(
                "{name}: deltas hold {} rows, the batch answer {}, ground truth is {rows}",
                got.len(),
                want.len()
            )
        }));
    }
    s.fs = fs.log();
    // "Crash": no final checkpoint. Then restart over the same directory.
    drop(raptor);
    s.disk_bytes = std::fs::read_dir(session_dir())
        .map_err(|e| e.to_string())?
        .filter_map(|e| e.ok()?.metadata().ok())
        .map(|m| m.len())
        .sum();
    let t = Instant::now();
    let (recovered, _) = open(tracer)?;
    let again = answers(&recovered)?;
    s.recover_ns = t.elapsed().as_nanos() as u64;
    s.recovery = recovered.recovery_report().expect("opened durably").clone();
    out.attempt(ensure(again == live, || {
        "recovery: the reopened store answers differently".into()
    }));
    out.attempt(s.check_restart());
    Ok(s)
}

impl Session {
    fn disk_bytes_per_event(&self) -> f64 {
        self.disk_bytes as f64 / self.events.max(1) as f64
    }

    fn recover_share(&self) -> f64 {
        self.recover_ns as f64 / self.epochs.iter().map(|e| e.ns).sum::<u64>().max(1) as f64
    }

    fn check_disk(&self) -> Result<(), String> {
        let disk = self.disk_bytes_per_event();
        ensure(disk <= DISK_BYTES_PER_EVENT_MAX, || {
            format!("session left {disk:.2} B/event on disk (limit {DISK_BYTES_PER_EVENT_MAX})")
        })
    }

    /// The restart lost nothing and started from the latest checkpoint: it
    /// resumes after the last epoch ingested, checkpoint and WAL tail add up
    /// to that, and the tail is shorter than the distance between two
    /// checkpoints. These counts are what makes a restart slow or fast, and
    /// they do not depend on the machine.
    fn check_restart(&self) -> Result<(), String> {
        let (r, epochs) = (&self.recovery, self.epochs.len() as u64);
        let ok = r.wal_bytes_discarded == 0
            && r.resumed_epoch == epochs
            && r.checkpoint_epochs + r.wal_epochs_replayed == epochs
            && r.wal_epochs_replayed < DurablePolicy::default().checkpoint_every
            && r.registrations_recovered == STANDING.len() as u64;
        ensure(ok, || format!("recovery after {epochs} epochs: {r:?}"))
    }
}

/// A counter of the process-wide registry `ThreatRaptor::metrics()` reads.
fn counter(name: &str) -> u64 {
    match threatraptor::obs::metrics().snapshot().get(name) {
        Some(MetricValue::Counter(c)) => *c,
        _ => 0,
    }
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::new("events", TAIL_PCT);
    let log = out.setup(|| setup(cfg));

    let mut h = Fnv::default();
    log_digest(&mut h, &log.log);
    for (_, q, _) in STANDING {
        h.str(q);
    }
    out.inputs_digest = h.0;
    let epochs = EpochStream::new(&log.log, EpochPolicy::ByCount(EPOCH_EVENTS)).count();
    out.fact("noise", cfg.noise(NOISE));
    out.fact("store_events", log.log.events.len());
    out.fact("store_entities", log.log.entities.len());
    out.fact("epochs_per_session", epochs);
    out.fact("epoch_events", EPOCH_EVENTS);
    out.fact("checkpoint_every", DurablePolicy::default().checkpoint_every);
    out.fact("standing_queries", STANDING.len());

    // Warm-up: one untimed session (page cache, allocator, lazy statics).
    let off = Tracer::new(false);
    let mut scratch = Outcome::default();
    run_session(&log, &off, &mut scratch).expect("warm-up session");
    if scratch.failed > 0 {
        out.attempt(Err(format!("warm-up session: {:?}", scratch.failures)));
    }
    if cfg.corrupt {
        out.attempt(Err("--corrupt: injected failure".to_string()));
    }

    // Measured loop: sessions with tracing off; in a traced run each is
    // paired with one that has the op and every `Fs` call in spans.
    const HITS: &str = "raptor_path_frontier_hits_total";
    const MISSES: &str = "raptor_path_frontier_misses_total";
    let (hits0, misses0) = (counter(HITS), counter(MISSES));
    let tracer = Tracer::new(cfg.trace);
    let budget = cfg.budget();
    let (mut sessions, mut traced): (Vec<Session>, Vec<Session>) = (Vec::new(), Vec::new());
    'measured: while budget.open(sessions.len()) {
        for &traced_pass in passes(cfg.trace, sessions.len()) {
            let (tracer, into) =
                if traced_pass { (&tracer, &mut traced) } else { (&off, &mut sessions) };
            match run_session(&log, tracer, &mut out) {
                Ok(s) => {
                    if !cfg.check {
                        out.attempt(s.check_disk());
                    }
                    into.push(s);
                }
                Err(e) => {
                    out.attempt(Err(e));
                    break 'measured;
                }
            }
        }
    }
    let (hits, misses) = (counter(HITS) - hits0, counter(MISSES) - misses0);
    out.loop_done();
    for s in &sessions {
        out.ops.extend(&s.epochs);
        out.units += s.events as f64;
    }
    let recover_s: Vec<f64> = sessions.iter().map(|s| s.recover_ns as f64 / 1e9).collect();
    let disk = sessions.first().map_or(0.0, Session::disk_bytes_per_event);
    out.fact("sessions", sessions.len());
    out.fact("recover_s", format!("{:.6}", median(&recover_s)));
    let shares: Vec<f64> = sessions.iter().map(Session::recover_share).collect();
    out.fact("recover_share", format!("{:.4}", median(&shares)));
    out.fact("disk_bytes_per_event", format!("{disk:.4}"));
    if !cfg.trace {
        drop(log);
        out.repeat_setup(cfg, || setup(cfg));
        return out;
    }
    if traced.is_empty() {
        return out;
    }

    // Side pass: a volatile twin session, no standing queries, same epochs.
    let mut ingest_only_ns = Vec::new();
    let mut twin = StreamSession::new().expect("twin session");
    for batch in EpochStream::new(&log.log, EpochPolicy::ByCount(EPOCH_EVENTS)) {
        let (r, ns) = timed(|| twin.ingest_batch(&batch));
        r.expect("twin ingest");
        ingest_only_ns.push(ns);
    }

    let epochs = |f: fn(&OpSample) -> u64| -> Vec<u64> {
        traced.iter().flat_map(|s| s.epochs.iter().map(f)).collect()
    };
    let first = &traced[0];
    let n_sessions = traced.len() as f64;
    let epoch_us = median_u64(&epochs(|e| e.ns)) / 1e3;
    let ingest_only_us = median_u64(&ingest_only_ns) / 1e3;
    let io_us = median_u64(&epochs(|e| e.io_ns)) / 1e3;
    out.set("stream.session.epoch_us", epoch_us);
    out.set("stream.session.ingest_only_us", ingest_only_us);
    out.set("engine.standing.advance_us", (epoch_us - ingest_only_us - io_us).max(0.0));
    let backend_busy: Vec<u64> =
        traced.iter().flat_map(|s| s.backend_busy_ns.iter().copied()).collect();
    out.set("engine.standing.backend_busy_us", median_u64(&backend_busy) / 1e3);
    out.set(
        "engine.standing.data_queries_per_epoch",
        first.data_queries as f64 / first.epochs.len() as f64,
    );
    out.set("engine.standing.delta_rows", first.delta_rows as f64);
    out.set("engine.standing.frontier_hit_ratio", hits as f64 / (hits + misses).max(1) as f64);
    let decile = |last: bool| -> f64 {
        let picked: Vec<u64> = traced
            .iter()
            .flat_map(|s| {
                let n = s.epochs.len();
                let tenth = (n / 10).max(1);
                let range = if last { n - tenth..n } else { 0..tenth };
                s.epochs[range].iter().map(|e| e.ns)
            })
            .collect();
        median_u64(&picked) / 1e3
    };
    out.set("engine.standing.epoch_us_first_decile", decile(false));
    out.set("engine.standing.epoch_us_last_decile", decile(true));

    let sum = |f: fn(&FsLog) -> u64| traced.iter().map(|s| f(&s.fs)).sum::<u64>() as f64;
    let events = traced.iter().map(|s| s.events).sum::<u64>() as f64;
    out.set("engine.wal.bytes_per_event", sum(|l| l.append.bytes) / events);
    out.set("engine.wal.records", first.fs.append.calls as f64);
    out.set("common.io.append_us", sum(|l| l.append.busy_ns) / sum(|l| l.append.calls) / 1e3);
    out.set("common.io.sync_count", first.fs.sync.calls as f64);
    let mut syncs: Vec<u64> =
        traced.iter().flat_map(|s| s.fs.sync.each_ns.iter().copied()).collect();
    syncs.sort_unstable();
    out.set("common.io.sync_us_p50", percentile(&syncs, P50) as f64 / 1e3);
    out.set("common.io.sync_us_p99", percentile(&syncs, P99) as f64 / 1e3);

    let ckpts: Vec<&(String, u64, u64)> =
        traced.iter().flat_map(|s| &s.fs.replaces).filter(|r| r.0 == CKPT_FILE).collect();
    out.set("engine.checkpoint.count", ckpts.len() as f64 / n_sessions);
    out.set(
        "engine.checkpoint.bytes_last",
        first.fs.replaces.iter().rev().find(|r| r.0 == CKPT_FILE).map_or(0.0, |r| r.1 as f64),
    );
    out.set(
        "common.io.replace_us",
        median_u64(&ckpts.iter().map(|r| r.2).collect::<Vec<_>>()) / 1e3,
    );
    let mut stalls: Vec<u64> = traced
        .iter()
        .flat_map(|s| s.epochs.iter().zip(&s.epoch_ckpt).filter(|(_, &c)| c).map(|(e, _)| e.ns))
        .collect();
    stalls.sort_unstable();
    out.set("engine.checkpoint.stall_us_p50", median_u64(&stalls) / 1e3);
    out.set("engine.checkpoint.stall_us_max", stalls.last().map_or(0.0, |&ns| ns as f64 / 1e3));

    let recover_ns: Vec<u64> = traced.iter().map(|s| s.recover_ns).collect();
    let replayed =
        (first.recovery.checkpoint_rows + first.recovery.wal_records_replayed).max(1) as f64;
    out.set("stream.durable.recover_us", median_u64(&recover_ns) / 1e3);
    out.set("stream.durable.recover_ns_per_row", median_u64(&recover_ns) / replayed);
    out.set("stream.durable.checkpoint_rows", first.recovery.checkpoint_rows as f64);
    out.set("stream.durable.wal_records_replayed", first.recovery.wal_records_replayed as f64);
    out.set("recover_s", median(&recover_s));
    out.set("disk_bytes_per_event", disk);

    out.set_bench_metrics(&crate::trace::breakdown(&tracer.spans()));
    crate::write_trace(&tracer, "stream-detect");
    out
}
