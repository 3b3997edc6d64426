//! The backend-equivalence corpus system, shared by the `bench_smoke` CI
//! gate and the scheduler benchmarks.
//!
//! This is the **single authoritative scenario** — the equivalence and
//! order-invariance test suites call it too (via the root package's
//! dev-dependency on `raptor-bench`): the Figure-2 data-leak attack staged
//! over deterministic background noise, so every query of [`EQUIV_CORPUS`]
//! matches at least one row. The corpus queries' pinned scheduler orders
//! and the checked-in `BENCH_schedule.json` baseline both assume this
//! exact store.

use raptor_audit::sim::{generate_background, BackgroundProfile, Simulator};
use raptor_audit::{reduce, LogParser, ParsedLog};
use raptor_common::time::Timestamp;
use threatraptor::ThreatRaptor;

pub use raptor_tbql::parser::EQUIV_CORPUS;

/// The corpus scenario as a parsed + reduced log (seeded: fully
/// deterministic). Exposed so suites can grow the corpus store
/// epoch-by-epoch and compare against the bulk-loaded [`corpus_system`].
pub fn corpus_log() -> ParsedLog {
    let mut sim = Simulator::new(77, Timestamp::from_secs(1_500_000_000));
    generate_background(
        &mut sim,
        &BackgroundProfile { users: 6, sessions: 80, ..Default::default() },
    );
    let shell = sim.boot_process("/bin/bash", "root");
    let tar = sim.spawn(shell, "/bin/tar", "tar");
    sim.read_file(tar, "/etc/passwd", 4096, 4);
    sim.write_file(tar, "/tmp/upload.tar", 4096, 4);
    sim.exit(tar);
    let curl = sim.spawn(shell, "/usr/bin/curl", "curl");
    sim.read_file(curl, "/tmp/upload.tar", 4096, 2);
    let fd = sim.connect(curl, "192.168.29.128", 443);
    sim.send(curl, fd, 4096, 4);
    sim.exit(curl);
    let mut log = LogParser::parse(&sim.finish());
    reduce::merge_events(&mut log.events, reduce::DEFAULT_THRESHOLD);
    log
}

/// Builds the corpus system (seeded: fully deterministic).
pub fn corpus_system() -> ThreatRaptor {
    ThreatRaptor::from_log(&corpus_log()).unwrap()
}

/// The EXPLAIN and stable-redacted EXPLAIN ANALYZE trees of every
/// [`EQUIV_CORPUS`] query on `raptor`: the text `tests/golden/
/// corpus_explain.txt` pins (written by the `golden_explain` binary).
pub fn corpus_explain(raptor: &ThreatRaptor) -> String {
    let mut out = String::from(
        "# Golden EXPLAIN / EXPLAIN ANALYZE (Redact::Stable) trees for the\n\
         # equivalence corpus. Regenerate with:\n\
         #   cargo run --release -p raptor-bench --bin golden_explain\n",
    );
    for (i, q) in EQUIV_CORPUS.iter().enumerate() {
        out.push_str(&format!("query {i}: {q}\n"));
        out.push_str(&raptor.explain(q).unwrap());
        out.push_str(&raptor.explain_analyze(q, raptor_engine::Redact::Stable).unwrap().1);
    }
    out
}

/// The corpus scenario at ~15x background scale (tens of thousands of
/// events) as a parsed + reduced log: what the durability section of
/// `bench_smoke` streams, checkpoints and recovers.
pub fn scaled_corpus_log() -> ParsedLog {
    let mut sim = Simulator::new(77, Timestamp::from_secs(1_500_000_000));
    generate_background(
        &mut sim,
        &BackgroundProfile { users: 8, sessions: 1200, ..Default::default() },
    );
    let shell = sim.boot_process("/bin/bash", "root");
    let tar = sim.spawn(shell, "/bin/tar", "tar");
    sim.read_file(tar, "/etc/passwd", 4096, 4);
    sim.write_file(tar, "/tmp/upload.tar", 4096, 4);
    sim.exit(tar);
    let curl = sim.spawn(shell, "/usr/bin/curl", "curl");
    sim.read_file(curl, "/tmp/upload.tar", 4096, 2);
    let fd = sim.connect(curl, "192.168.29.128", 443);
    sim.send(curl, fd, 4096, 4);
    sim.exit(curl);
    let mut log = LogParser::parse(&sim.finish());
    reduce::merge_events(&mut log.events, reduce::DEFAULT_THRESHOLD);
    log
}
