//! The ThreatRaptor facade.
//!
//! One struct that owns the session — the stores, their engine and the
//! standing-query registry — and exposes the whole pipeline: ingest audit
//! records (as one bulk load, increment by increment, or epoch by epoch),
//! extract threat behavior from OSCTI text, synthesize TBQL, execute (exact
//! or fuzzy) or register it as a standing query, or run hand-written TBQL
//! directly ("proactive threat hunting" in the paper's terms).

use std::path::Path;
use std::sync::Arc;

use raptor_audit::{reduce, LogParser, ParsedLog, SyscallRecord};
use raptor_common::error::Result;
use raptor_common::io::{DirFs, Fs};
use raptor_engine::exec::{Engine, EngineStats, ExecMode, ResultTable};
use raptor_engine::fuzzy::{self, FuzzyConfig, FuzzyOutcome, QueryGraph};
use raptor_engine::provenance::{build_from_stores, ProvTimings};
use raptor_extract::{extract, ExtractionOutput, ThreatBehaviorGraph};
use raptor_stream::{DurablePolicy, QueryId, RecoveryReport, StreamSession};
use raptor_tbql::print::print_query;
use raptor_tbql::{analyze, parse_tbql, Query};

use crate::synthesis::{synthesize, SynthesisPlan};

/// Everything a text-driven hunt produces.
#[derive(Debug)]
pub struct HuntOutcome {
    /// The extraction output (entities, triples, graph, timings).
    pub extraction: ExtractionOutput,
    /// The synthesized query (AST) and its rendered text.
    pub query: Query,
    pub query_text: String,
    /// Execution results.
    pub results: ResultTable,
    pub engine_stats: EngineStats,
}

/// The ThreatRaptor system: one session (stores + query engine + standing
/// queries), volatile or durable.
pub struct ThreatRaptor {
    session: StreamSession,
}

impl ThreatRaptor {
    /// Parses raw audit records (applying the data-reduction pass with the
    /// paper's 1 s threshold) and loads both storage backends.
    pub fn from_records(records: &[SyscallRecord]) -> Result<Self> {
        let mut log = LogParser::parse(records);
        reduce::merge_events(&mut log.events, reduce::DEFAULT_THRESHOLD);
        Self::from_log(&log)
    }

    /// Loads an already-parsed (and reduced) log: a volatile session that
    /// ingested the whole log as its first epoch.
    pub fn from_log(log: &ParsedLog) -> Result<Self> {
        let mut raptor = Self::stream()?;
        raptor.append_log(log)?;
        Ok(raptor)
    }

    /// Starts a *streaming* hunt: a volatile session over empty stores, to
    /// be grown through [`ThreatRaptor::session_mut`].
    pub fn stream() -> Result<Self> {
        Ok(ThreatRaptor { session: StreamSession::new()? })
    }

    /// Opens (or recovers) a *durable* system over a directory: every
    /// append is write-ahead logged — the log is the store's on-disk form —
    /// [`ThreatRaptor::checkpoint`] writes a manifest over it, and
    /// re-opening the same path replays the log and resumes exactly at the
    /// last durable point (see `raptor_stream::StreamSession::open`).
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        Self::open_with_fs(Arc::new(DirFs::new(path)?), DurablePolicy::default())
    }

    /// [`ThreatRaptor::open`] over an explicit file backend and policy
    /// (in-memory and fault-injected backends live in `raptor_common::io`).
    pub fn open_with_fs(fs: Arc<dyn Fs>, policy: DurablePolicy) -> Result<Self> {
        Ok(ThreatRaptor { session: StreamSession::open(fs, policy)? })
    }

    pub fn engine(&self) -> &Engine {
        self.session.engine()
    }

    pub fn engine_mut(&mut self) -> &mut Engine {
        self.session.engine_mut()
    }

    /// The session behind this system: stream position, standing queries
    /// and their accumulated results, ingest totals.
    pub fn session(&self) -> &StreamSession {
        &self.session
    }

    /// Mutable session access: register hand-written TBQL as a standing
    /// query, ingest epochs.
    pub fn session_mut(&mut self) -> &mut StreamSession {
        &mut self.session
    }

    /// [`ThreatRaptor::session_mut`] when the system was opened durably.
    /// `bench_ledger` is written against this and may not change outside a
    /// `[benchmark]` PR; the next one deletes it.
    pub fn durable_mut(&mut self) -> Option<&mut StreamSession> {
        Some(&mut self.session).filter(|s| s.recovery_report().is_some())
    }

    /// What recovery found when this system was opened durably: checkpoint
    /// used, WAL records replayed, bytes discarded from the torn tail.
    /// `None` for volatile systems.
    pub fn recovery_report(&self) -> Option<&RecoveryReport> {
        self.session.recovery_report()
    }

    /// Appends a parsed log increment as one epoch (WAL-logged + fsynced
    /// when the system is durable); registered standing queries advance
    /// over it. Entity ids must continue the store's dense id space.
    pub fn append_log(&mut self, log: &ParsedLog) -> Result<()> {
        self.session.ingest(&log.entities, &log.events).map(|_| ())
    }

    /// Checkpoints a durable system now: one atomic replace of the `ckpt`
    /// file with a manifest over the log (dictionary, stream position,
    /// standing-query state, the log length they belong to). It holds no
    /// rows and the log is not written; a restart replays the log and uses
    /// the manifest to skip standing-query work below that length. Errors
    /// on volatile systems, which have nothing to persist to.
    pub fn checkpoint(&mut self) -> Result<()> {
        self.session.checkpoint()
    }

    /// Pins the worker count across the whole execution plane (store
    /// scans/joins, graph traversal). Defaults to `RAPTOR_THREADS` /
    /// available parallelism; `1` takes the strictly sequential code paths
    /// everywhere.
    pub fn set_threads(&mut self, threads: usize) {
        self.session.set_threads(threads);
    }

    /// Re-segments the relational store's columnar tables to `rows`-row
    /// segments (see `RAPTOR_SEGMENT_ROWS`; results are byte-identical at
    /// every capacity — only scan granularity and segment counters change).
    pub fn set_segment_rows(&mut self, rows: usize) {
        self.session.set_segment_rows(rows);
    }

    /// Extracts a threat behavior graph from OSCTI text (Algorithm 1).
    pub fn extract_report(&self, text: &str) -> ExtractionOutput {
        extract(text)
    }

    /// Synthesizes a TBQL query from a threat behavior graph.
    pub fn synthesize_query(
        &self,
        graph: &ThreatBehaviorGraph,
        plan: &SynthesisPlan,
    ) -> Result<Query> {
        synthesize(graph, plan)
    }

    /// Registers a standing query synthesized from an OSCTI report:
    /// text → threat behavior graph → TBQL text → registry. Returns the
    /// handle plus the synthesized query (AST and rendered text).
    pub fn register_report(
        &mut self,
        name: &str,
        report: &str,
        plan: &SynthesisPlan,
    ) -> Result<(QueryId, Query, String)> {
        let extraction = extract(report);
        let query = synthesize(&extraction.graph, plan)?;
        let text = print_query(&query);
        let id = self.session.register(name, &text)?;
        Ok((id, query, text))
    }

    /// End-to-end hunt: text → graph → TBQL → execution (exact search).
    pub fn hunt(&self, report: &str) -> Result<HuntOutcome> {
        self.hunt_with_plan(report, &SynthesisPlan::default())
    }

    /// End-to-end hunt with a custom synthesis plan.
    pub fn hunt_with_plan(&self, report: &str, plan: &SynthesisPlan) -> Result<HuntOutcome> {
        let extraction = self.extract_report(report);
        let query = synthesize(&extraction.graph, plan)?;
        let query_text = print_query(&query);
        let aq = analyze(&query)?;
        let (results, engine_stats) = self.engine().execute(&aq, ExecMode::Scheduled)?;
        Ok(HuntOutcome { extraction, query, query_text, results, engine_stats })
    }

    /// Runs a hand-written TBQL query (proactive hunting).
    pub fn query(&self, tbql: &str) -> Result<ResultTable> {
        let (table, _) = self.engine().execute_text(tbql, ExecMode::Scheduled)?;
        Ok(table)
    }

    /// Runs a TBQL query under a specific execution mode (used by the
    /// benchmark harness for the giant-SQL / giant-Cypher baselines).
    pub fn query_with_mode(
        &self,
        tbql: &str,
        mode: ExecMode,
    ) -> Result<(ResultTable, EngineStats)> {
        self.engine().execute_text(tbql, mode)
    }

    /// Renders the execution plan for a TBQL query without running its
    /// patterns: seeding candidates, scheduler choice, pattern order,
    /// per-pattern cost estimates. See `raptor_engine::explain`.
    pub fn explain(&self, tbql: &str) -> Result<String> {
        self.engine().explain_text(tbql)
    }

    /// Executes a TBQL query and renders the plan annotated with actuals:
    /// rows, Q-error, access path, backend counters, wall times. `Redact::
    /// Stable` elides volatile fields (timings, scan granularity) so the
    /// output is byte-identical across thread counts and segment sizes.
    pub fn explain_analyze(
        &self,
        tbql: &str,
        redact: raptor_engine::Redact,
    ) -> Result<(ResultTable, String)> {
        self.engine().explain_analyze_text(tbql, redact)
    }

    /// Snapshots the process-wide metrics registry (counters, gauges,
    /// histograms). Refreshes point-in-time gauges (dictionary size, pinned
    /// worker count) before capturing. Render with `to_json()` or
    /// `to_prometheus()`.
    pub fn metrics(&self) -> raptor_common::obs::MetricsSnapshot {
        let m = raptor_common::obs::metrics();
        m.gauge_set("raptor_dict_symbols", self.engine().stores.dict.len() as i64);
        m.gauge_set("raptor_threads", self.engine().stores.rel.pool().threads() as i64);
        m.gauge_set(
            "raptor_path_frontier_entries",
            raptor_engine::standing::frontier_entries_total(),
        );
        m.snapshot()
    }

    /// Fuzzy search: aligns a TBQL query against the provenance graph using
    /// inexact (Poirot-style) graph pattern matching. Returns the outcome
    /// plus the loading/preprocessing timings of Table IX.
    pub fn fuzzy_query(
        &self,
        tbql: &str,
        cfg: &FuzzyConfig,
    ) -> Result<(FuzzyOutcome, ProvTimings)> {
        let q = parse_tbql(tbql)?;
        let aq = analyze(&q)?;
        let (prov, timings) = build_from_stores(&self.engine().stores)?;
        let qg = QueryGraph::from_analyzed(&aq);
        Ok((fuzzy::search(&prov, &qg, cfg), timings))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raptor_audit::sim::{generate_background, BackgroundProfile, Simulator};
    use raptor_common::time::Timestamp;

    fn system_with_fig2_attack() -> ThreatRaptor {
        let mut sim = Simulator::new(2024, Timestamp::from_secs(1_500_000_000));
        generate_background(
            &mut sim,
            &BackgroundProfile { users: 4, sessions: 40, ..Default::default() },
        );
        let shell = sim.boot_process("/bin/bash", "root");
        let tar = sim.spawn(shell, "/bin/tar", "tar cf /tmp/upload.tar");
        sim.read_file(tar, "/etc/passwd", 4096, 4);
        sim.write_file(tar, "/tmp/upload.tar", 4096, 4);
        sim.exit(tar);
        let bzip = sim.spawn(shell, "/bin/bzip2", "bzip2");
        sim.read_file(bzip, "/tmp/upload.tar", 4096, 2);
        sim.write_file(bzip, "/tmp/upload.tar.bz2", 2048, 2);
        sim.exit(bzip);
        let gpg = sim.spawn(shell, "/usr/bin/gpg", "gpg");
        sim.read_file(gpg, "/tmp/upload.tar.bz2", 2048, 2);
        sim.write_file(gpg, "/tmp/upload", 2048, 2);
        sim.exit(gpg);
        let curl = sim.spawn(shell, "/usr/bin/curl", "curl");
        sim.read_file(curl, "/tmp/upload", 2048, 2);
        let fd = sim.connect(curl, "192.168.29.128", 443);
        sim.send(curl, fd, 2048, 4);
        sim.exit(curl);
        ThreatRaptor::from_records(&sim.finish()).unwrap()
    }

    const FIG2_TEXT: &str = "\
As a first step, the attacker used /bin/tar to read user credentials \
from /etc/passwd. It wrote the gathered information to a file /tmp/upload.tar. \
/bin/bzip2 read from /tmp/upload.tar and wrote to /tmp/upload.tar.bz2. \
This corresponds to the launched process /usr/bin/gpg reading from /tmp/upload.tar.bz2. \
/usr/bin/gpg then wrote the sensitive information to /tmp/upload. \
Finally, the attacker used /usr/bin/curl to read the data from /tmp/upload. \
He leaked the data back to the C2 host by using /usr/bin/curl to connect to 192.168.29.128.";

    #[test]
    fn end_to_end_hunt_finds_the_attack() {
        let raptor = system_with_fig2_attack();
        let outcome = raptor.hunt(FIG2_TEXT).unwrap();
        assert_eq!(outcome.extraction.graph.edges.len(), 8);
        assert_eq!(outcome.results.rows.len(), 1, "{:?}", outcome.results.rows);
        let row = &outcome.results.rows[0];
        assert!(row.contains(&"/bin/tar".to_string()));
        assert!(row.contains(&"192.168.29.128".to_string()));
    }

    #[test]
    fn proactive_query_without_oscti() {
        let raptor = system_with_fig2_attack();
        let r = raptor.query(r#"proc p["%curl%"] connect ip i return p, i"#).unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0][1], "192.168.29.128");
    }

    #[test]
    fn fuzzy_query_tolerates_typos() {
        let raptor = system_with_fig2_attack();
        let (out, timings) = raptor
            .fuzzy_query(
                r#"proc p["%/usr/bin/cur1%"] connect ip i["192.168.29.128"] as e1 return p, i"#,
                &FuzzyConfig::default(),
            )
            .unwrap();
        assert!(!out.alignments.is_empty());
        assert!(timings.loading >= 0.0);
        // The exact search finds nothing for the typo'd IOC.
        let exact = raptor
            .query(r#"proc p["%/usr/bin/cur1%"] connect ip i["192.168.29.128"] as e1 return p, i"#)
            .unwrap();
        assert!(exact.rows.is_empty());
    }

    #[test]
    fn explain_and_metrics_facade() {
        let raptor = system_with_fig2_attack();
        let q = r#"proc p["%curl%"] connect ip i return p, i"#;
        let plan = raptor.explain(q).unwrap();
        assert!(plan.starts_with("EXPLAIN\n"), "{plan}");
        assert!(plan.contains("scheduler:"), "{plan}");
        let (table, report) = raptor.explain_analyze(q, raptor_engine::Redact::Stable).unwrap();
        assert_eq!(table.rows.len(), 1);
        assert!(report.starts_with("EXPLAIN ANALYZE\n"), "{report}");
        assert!(report.contains("q_err="), "{report}");
        let snap = raptor.metrics();
        assert!(snap.get("raptor_dict_symbols").is_some());
        assert!(snap.get("raptor_threads").is_some());
        assert!(snap.to_prometheus().contains("raptor_dict_symbols"));
    }

    #[test]
    fn report_driven_standing_query_fires() {
        use raptor_stream::{EpochPolicy, EpochStream};
        let mut sim = Simulator::new(3, Timestamp::from_secs(9000));
        let shell = sim.boot_process("/bin/bash", "root");
        let tar = sim.spawn(shell, "/bin/tar", "tar");
        sim.read_file(tar, "/etc/passwd", 4096, 2);
        sim.exit(tar);
        let log = LogParser::parse(&sim.finish());

        let mut hunt = ThreatRaptor::stream().unwrap();
        let (qid, _, text) = hunt
            .register_report(
                "report",
                "The attacker used /bin/tar to read credentials from /etc/passwd.",
                &SynthesisPlan::default(),
            )
            .unwrap();
        assert!(text.contains("read"), "{text}");
        let mut first_hit = None;
        for batch in EpochStream::new(&log, EpochPolicy::ByCount(2)) {
            let report = hunt.session_mut().ingest_batch(&batch).unwrap().expect("fresh epoch");
            if first_hit.is_none() && report.deltas[0].delta.n_rows() > 0 {
                first_hit = Some(report.epoch);
            }
        }
        assert!(first_hit.is_some(), "standing query never fired");
        assert!(hunt.session().query(qid).cumulative_batch().n_rows() > 0);
    }

    #[test]
    fn hunt_with_path_plan() {
        let raptor = system_with_fig2_attack();
        let plan = SynthesisPlan { use_path_patterns: true, ..Default::default() };
        let outcome = raptor.hunt_with_plan(FIG2_TEXT, &plan).unwrap();
        assert!(outcome.query_text.contains("~>"));
        assert_eq!(outcome.results.rows.len(), 1);
    }
}
