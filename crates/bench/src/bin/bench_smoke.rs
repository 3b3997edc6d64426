//! `bench_smoke` — the fast deterministic scheduler bench behind CI's
//! `bench-smoke` job.
//!
//! Runs every query of the 8-query equivalence corpus through the
//! scheduled executor under both scheduler modes (cost-based vs the
//! paper's syntactic score) on the deterministic corpus system, and emits
//! `BENCH_schedule.json` (default: `target/BENCH_schedule.json`; the
//! checked-in baseline lives at `crates/bench/baselines/`): per-query
//! scheduled latency, deterministic backend work counters, the chosen
//! orders, and a scheduler Q-error summary.
//!
//! The `observability` section runs every query with tracing off and on,
//! asserting rows and deterministic counters are identical either way
//! (tracing is a pure side channel), and records the exact span count per
//! query — gated exactly, since the span taxonomy emits one span per
//! whole operator and can never vary with thread count or machine.
//!
//! **Regression gating** compares against a checked-in baseline
//! (`crates/bench/baselines/BENCH_schedule.json`) and fails (exit 1) on a
//! more-than-2x regression. The gate reads the *deterministic* signals —
//! backend work counters, result rows, order divergence, Q-error — never
//! wall-clock latency, so machines of different speeds cannot flake the
//! job; latency is emitted for humans and artifact diffing.
//!
//! ```text
//! bench_smoke [--out PATH] [--baseline PATH] [--write-baseline]
//! ```

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use raptor_bench::corpus::{corpus_log, corpus_system, scaled_corpus_log, EQUIV_CORPUS};
use raptor_engine::SchedulerMode;
use raptor_tbql::{analyze, parse_tbql};

/// Iterations per latency measurement (minimum is reported).
const LATENCY_ITERS: u32 = 25;

/// Allowed growth of any deterministic counter vs the baseline.
const MAX_REGRESSION: f64 = 2.0;

struct QueryReport {
    id: usize,
    rows: usize,
    order_cost: Vec<usize>,
    order_syntactic: Vec<usize>,
    work_cost: usize,
    work_syntactic: usize,
    latency_ns_cost: u128,
    latency_ns_syntactic: u128,
    q_error_max: f64,
}

fn work(stats: &raptor_engine::exec::EngineStats) -> usize {
    stats.backend.items_scanned + stats.backend.items_built + stats.backend.edges_traversed
}

fn measure_latency(
    engine: &raptor_engine::Engine,
    aq: &raptor_tbql::analyze::AnalyzedQuery,
    mode: SchedulerMode,
) -> u128 {
    let mut best = u128::MAX;
    for _ in 0..LATENCY_ITERS {
        let t = Instant::now();
        let _ = engine.execute_scheduled_as(aq, mode).expect("corpus query executes");
        best = best.min(t.elapsed().as_nanos());
    }
    best
}

fn run() -> (Vec<QueryReport>, f64) {
    let raptor = corpus_system();
    let engine = raptor.engine();
    let mut reports = Vec::new();
    let mut q_error_max = 0.0f64;
    for (id, q) in EQUIV_CORPUS.iter().enumerate() {
        let aq = analyze(&parse_tbql(q).expect("corpus parses")).expect("corpus analyzes");
        let (rc, sc) = engine.execute_scheduled_as(&aq, SchedulerMode::CostBased).unwrap();
        let (rs, ss) = engine.execute_scheduled_as(&aq, SchedulerMode::Syntactic).unwrap();
        assert_eq!(
            rc.sorted_rows(),
            rs.sorted_rows(),
            "scheduler modes disagree on query {id}: {q}"
        );
        assert_eq!(sc.scheduler, Some(SchedulerMode::CostBased), "counts must drive query {id}");
        let qe = sc
            .estimates
            .iter()
            .filter_map(raptor_engine::PatternEstimate::q_error)
            .fold(0.0f64, f64::max);
        assert!(qe.is_finite(), "q-error must stay finite on query {id}");
        q_error_max = q_error_max.max(qe);
        reports.push(QueryReport {
            id,
            rows: rc.rows.len(),
            order_cost: sc.execution_order.clone(),
            order_syntactic: ss.execution_order.clone(),
            work_cost: work(&sc),
            work_syntactic: work(&ss),
            latency_ns_cost: measure_latency(engine, &aq, SchedulerMode::CostBased),
            latency_ns_syntactic: measure_latency(engine, &aq, SchedulerMode::Syntactic),
            q_error_max: qe,
        });
    }
    (reports, q_error_max)
}

/// Variable-length path queries over the corpus store: the `path_queries`
/// section. Bounded and unbounded hop envelopes, a final-hop operation,
/// op-less reachability, and a non-file destination class; their rows and
/// walked edges are gated exactly.
const PATH_QUERIES: &[&str] = &[
    "proc p ~>(1~3)[read] file f as e1 return p, f",
    "proc p ~>(2~4)[write] file f as e1 return p, f",
    "proc p ~>(1~2) file f as e1 return p, f",
    "proc p ~>(2~)[connect] ip i as e1 return p, i",
    "proc p ~>(1~4) proc q as e1 return p, q",
];

struct PathReport {
    id: usize,
    rows: usize,
    /// The walk's `edges_traversed`, gated exact.
    edges: usize,
}

/// Runs every path query through the scheduled executor.
fn run_paths() -> Vec<PathReport> {
    let raptor = corpus_system();
    let engine = raptor.engine();
    let mut reports = Vec::new();
    for (id, q) in PATH_QUERIES.iter().enumerate() {
        let aq = analyze(&parse_tbql(q).expect("path query parses")).expect("path query analyzes");
        let (r, s) = engine.execute_scheduled_as(&aq, SchedulerMode::CostBased).unwrap();
        assert!(s.estimates.iter().any(|e| e.is_path), "path query {id} must carry a path");
        reports.push(PathReport { id, rows: r.rows.len(), edges: s.backend.edges_traversed });
    }
    reports
}

/// Deterministic results of the vectorized full scan on the corpus.
struct ColumnarReport {
    /// Corpus q3 through the giant-SQL baseline: the one corpus query whose
    /// events predicate (`optype = 'read' OR optype = 'write'`) runs as a
    /// vectorized full scan.
    giant_rows: usize,
    /// An `endtime >= T` window probe (endtime deliberately has no B-tree
    /// index, so it full-scans) with `T` at the 90th percentile of the
    /// corpus event endtimes.
    probe_rows: usize,
}

/// Runs the full-scan probes. Everything reported is a deterministic row
/// count, no wall clock.
fn run_columnar() -> ColumnarReport {
    let raptor = corpus_system();
    let engine = raptor.engine();

    let (r, _) = engine
        .execute_text(EQUIV_CORPUS[3], raptor_engine::ExecMode::GiantSql)
        .expect("q3 giant-sql executes");
    let giant_rows = r.rows.len();

    let rel = &engine.stores.rel;
    let events = rel.table("events").expect("events table");
    let end_col = events.schema.require_column("endtime").expect("endtime column");
    let mut ends = events.int_cells(end_col).expect("endtime is a time column").to_vec();
    ends.sort_unstable();
    let cut = ends[ends.len() * 9 / 10];
    let r = rel
        .query(&format!("SELECT id FROM events WHERE endtime >= {cut}"))
        .expect("window probe executes");
    assert_eq!(r.stats.full_scans, 1, "endtime probe must full-scan (no index on endtime)");
    ColumnarReport { giant_rows, probe_rows: r.batch.n_rows() }
}

/// Deterministic signals from the observability plane.
struct ObsReport {
    /// Span count per corpus query with tracing enabled (gated exact: the
    /// taxonomy emits spans at whole-operator level only, never per
    /// partition, so counts cannot vary with thread count or machine).
    spans_per_query: Vec<u64>,
    /// Corpus q3 min latency with tracing disabled / enabled
    /// (informational only; never gated, wall clock flakes).
    q3_latency_ns_trace_off: u128,
    q3_latency_ns_trace_on: u128,
    /// `standing.frontier` spans emitted by a path-shaped standing query
    /// streamed over the corpus (gated exact: one span per epoch with
    /// events, epoch slicing is deterministic).
    frontier_spans: u64,
    /// Frontier-cache hit/miss counter deltas of the same run (gated
    /// exact: the eligible query hits every epoch, misses never).
    frontier_hits: u64,
    frontier_misses: u64,
}

/// Runs every corpus query twice — tracing off, then on — and *asserts*
/// the observability contract: identical rows and identical deterministic
/// work counters either way (tracing is a pure side channel). Records the
/// exact span count per query for the gate.
fn run_observability() -> ObsReport {
    use raptor_common::obs;
    let raptor = corpus_system();
    let engine = raptor.engine();
    let trace = obs::trace();
    let mut spans_per_query = Vec::new();
    for (id, q) in EQUIV_CORPUS.iter().enumerate() {
        let aq = analyze(&parse_tbql(q).expect("corpus parses")).expect("corpus analyzes");
        trace.set_enabled(false);
        let (r_off, s_off) = engine.execute_scheduled_as(&aq, SchedulerMode::CostBased).unwrap();
        trace.set_enabled(true);
        trace.clear();
        let (r_on, s_on) = engine.execute_scheduled_as(&aq, SchedulerMode::CostBased).unwrap();
        let n = trace.span_count();
        trace.set_enabled(false);
        assert_eq!(r_off.rows, r_on.rows, "query {id} rows changed under tracing");
        assert_eq!(s_off.backend, s_on.backend, "query {id} work counters drifted under tracing");
        spans_per_query.push(n);
    }
    let aq = analyze(&parse_tbql(EQUIV_CORPUS[3]).unwrap()).unwrap();
    let q3_latency_ns_trace_off = measure_latency(engine, &aq, SchedulerMode::CostBased);
    trace.set_enabled(true);
    let q3_latency_ns_trace_on = measure_latency(engine, &aq, SchedulerMode::CostBased);
    trace.set_enabled(false);
    trace.clear();

    // Frontier plane: stream the corpus under a path-shaped standing query
    // and read the span + cache-counter trail. The epoch slicing is
    // deterministic, so every number here is exact.
    use threatraptor::stream::{EpochPolicy, EpochStream, StreamSession};
    let metric = |name: &str| match obs::metrics().snapshot().get(name) {
        Some(obs::MetricValue::Counter(v)) => *v,
        _ => 0,
    };
    let hits0 = metric("raptor_path_frontier_hits_total");
    let misses0 = metric("raptor_path_frontier_misses_total");
    trace.set_enabled(true);
    let hunt_q = PATH_QUERIES[0];
    let mut hunt = StreamSession::new().expect("stream session");
    hunt.register("path_hunt", hunt_q).expect("path hunt registers");
    let log = corpus_log();
    for b in EpochStream::new(&log, EpochPolicy::ByCount(256)) {
        hunt.ingest_batch(&b).expect("hunt ingest");
    }
    trace.set_enabled(false);
    let frontier_spans =
        trace.snapshot().iter().filter(|s| s.name == "standing.frontier").count() as u64;
    trace.clear();
    let frontier_hits = metric("raptor_path_frontier_hits_total") - hits0;
    let frontier_misses = metric("raptor_path_frontier_misses_total") - misses0;
    // The delta-incremental path must converge to the batch answer.
    let aq = analyze(&parse_tbql(hunt_q).unwrap()).unwrap();
    let (want, _) = engine.execute_scheduled_as(&aq, SchedulerMode::CostBased).unwrap();
    let got = raptor_engine::ResultTable::from_batch(
        hunt.queries().iter().find(|q| q.name() == "path_hunt").unwrap().cumulative_batch(),
    );
    assert_eq!(
        got.sorted_rows(),
        want.sorted_rows(),
        "frontier-streamed standing query must match batch"
    );

    ObsReport {
        spans_per_query,
        q3_latency_ns_trace_off,
        q3_latency_ns_trace_on,
        frontier_spans,
        frontier_hits,
        frontier_misses,
    }
}

/// Signals from the durability plane: WAL-on vs WAL-off ingest, and
/// checkpoint + recovery of the ~15x store.
struct DurabilityReport {
    /// Events in the corpus stream (context for the throughput numbers).
    events: usize,
    /// Full-stream ingest latency without / with the WAL (informational —
    /// both land on an in-memory disk, isolating the framing + fsync-call
    /// overhead from medium speed; never gated, wall clock flakes).
    ingest_ns_volatile: u128,
    ingest_ns_durable: u128,
    /// Deterministic counters off the corpus recovery (gated exact): WAL
    /// records logged == replayed, and epochs committed == replayed.
    wal_records: u64,
    wal_epochs: u64,
    /// The ~15x store: size of its checkpoint (a manifest over the log —
    /// 2x envelope), rows replayed from the log prefix it covers (gated
    /// exact) and cold recovery wall time (informational).
    scaled_checkpoint_bytes: u64,
    scaled_recovered_rows: u64,
    scaled_recovery_ns: u128,
}

/// Streams the corpus twice — volatile session vs WAL-backed durable
/// session — then recovers, asserting the recovered store matches the
/// volatile one row-for-row. Separately checkpoints the ~15x store and
/// times a cold recovery from the checkpoint and the log it covers.
fn run_durability() -> DurabilityReport {
    use std::sync::Arc;
    use threatraptor::common::io::MemFs;
    use threatraptor::stream::{EpochPolicy, EpochStream, StreamSession};
    use threatraptor::DurablePolicy;

    let log = corpus_log();
    let manual = DurablePolicy { checkpoint_every: 0 };

    let t = Instant::now();
    let mut volatile = StreamSession::new().expect("volatile session");
    for b in EpochStream::new(&log, EpochPolicy::ByCount(256)) {
        volatile.ingest_batch(&b).expect("volatile ingest");
    }
    let ingest_ns_volatile = t.elapsed().as_nanos();

    let disk = Arc::new(MemFs::new());
    let t = Instant::now();
    let mut durable = StreamSession::open(disk.clone(), manual).expect("durable open");
    for b in EpochStream::new(&log, EpochPolicy::ByCount(256)) {
        durable.ingest_batch(&b).expect("durable ingest");
    }
    let ingest_ns_durable = t.elapsed().as_nanos();
    drop(durable);

    let recovered = StreamSession::open(disk, manual).expect("recover corpus WAL");
    let r = recovered.recovery_report().expect("opened durably");
    assert_eq!(
        recovered.engine().stores.rel.total_rows(),
        volatile.engine().stores.rel.total_rows(),
        "recovered corpus store must match the volatile ingest"
    );

    let scaled = scaled_corpus_log();
    let disk15 = Arc::new(MemFs::new());
    let mut s15 = StreamSession::open(disk15.clone(), manual).expect("open 15x");
    for b in EpochStream::new(&scaled, EpochPolicy::ByCount(4096)) {
        s15.ingest_batch(&b).expect("ingest 15x");
    }
    s15.checkpoint().expect("checkpoint 15x");
    drop(s15);
    let t = Instant::now();
    let rec15 = StreamSession::open(disk15, manual).expect("recover 15x");
    let scaled_recovery_ns = t.elapsed().as_nanos();
    let r15 = rec15.recovery_report().expect("opened durably");
    assert!(r15.checkpoint_found, "15x recovery must come from the checkpoint");
    assert_eq!(r15.wal_bytes_discarded, 0);

    DurabilityReport {
        events: log.events.len(),
        ingest_ns_volatile,
        ingest_ns_durable,
        wal_records: r.wal_records_replayed,
        wal_epochs: r.wal_epochs_replayed,
        scaled_checkpoint_bytes: r15.checkpoint_bytes,
        scaled_recovered_rows: r15.checkpoint_rows,
        scaled_recovery_ns,
    }
}

#[allow(clippy::too_many_arguments)]
fn render_json(
    reports: &[QueryReport],
    columnar: &ColumnarReport,
    obs: &ObsReport,
    durability: &DurabilityReport,
    paths: &[PathReport],
    q_error_max: f64,
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"schema\": \"threatraptor/bench_schedule/v1\",");
    let _ = writeln!(out, "  \"queries\": [");
    for (i, r) in reports.iter().enumerate() {
        let order = |o: &[usize]| {
            let items: Vec<String> = o.iter().map(usize::to_string).collect();
            format!("[{}]", items.join(", "))
        };
        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"id\": {},", r.id);
        let _ = writeln!(out, "      \"rows\": {},", r.rows);
        let _ = writeln!(out, "      \"order_cost\": {},", order(&r.order_cost));
        let _ = writeln!(out, "      \"order_syntactic\": {},", order(&r.order_syntactic));
        let _ = writeln!(out, "      \"work_cost\": {},", r.work_cost);
        let _ = writeln!(out, "      \"work_syntactic\": {},", r.work_syntactic);
        let _ = writeln!(out, "      \"latency_ns_cost\": {},", r.latency_ns_cost);
        let _ = writeln!(out, "      \"latency_ns_syntactic\": {},", r.latency_ns_syntactic);
        let _ = writeln!(out, "      \"q_error_max\": {:.4}", r.q_error_max);
        let _ = writeln!(out, "    }}{}", if i + 1 < reports.len() { "," } else { "" });
    }
    let _ = writeln!(out, "  ],");
    // Vectorized full-scan results (gated: exact rows).
    let _ = writeln!(out, "  \"columnar\": {{");
    let _ = writeln!(out, "    \"giant_rows\": {},", columnar.giant_rows);
    let _ = writeln!(out, "    \"probe_rows\": {}", columnar.probe_rows);
    let _ = writeln!(out, "  }},");
    // Observability plane: span counts are gated exactly (the taxonomy is
    // whole-operator, so counts are machine- and thread-invariant); the q3
    // trace-on/off latencies are informational only.
    // Var-length path queries: rows and walked edges, exact-deterministic.
    let _ = writeln!(out, "  \"path_queries\": [");
    for (i, p) in paths.iter().enumerate() {
        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"query\": {},", p.id);
        let _ = writeln!(out, "      \"path_rows\": {},", p.rows);
        let _ = writeln!(out, "      \"path_edges\": {}", p.edges);
        let _ = writeln!(out, "    }}{}", if i + 1 < paths.len() { "," } else { "" });
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"observability\": {{");
    for (i, n) in obs.spans_per_query.iter().enumerate() {
        let _ = writeln!(out, "    \"spans_q{i}\": {n},");
    }
    let _ = writeln!(out, "    \"frontier_spans\": {},", obs.frontier_spans);
    let _ = writeln!(out, "    \"frontier_hits\": {},", obs.frontier_hits);
    let _ = writeln!(out, "    \"frontier_misses\": {},", obs.frontier_misses);
    let _ = writeln!(out, "    \"q3_latency_ns_trace_off\": {},", obs.q3_latency_ns_trace_off);
    let _ = writeln!(out, "    \"q3_latency_ns_trace_on\": {},", obs.q3_latency_ns_trace_on);
    let overhead = (obs.q3_latency_ns_trace_on as f64 - obs.q3_latency_ns_trace_off as f64)
        / (obs.q3_latency_ns_trace_off.max(1) as f64)
        * 100.0;
    let _ = writeln!(out, "    \"q3_trace_overhead_pct\": {overhead:.2}");
    let _ = writeln!(out, "  }},");
    // Durability plane: record/epoch/row counters are gated exactly (the
    // corpus stream is deterministic, so the WAL it produces is too); the
    // ingest and recovery latencies are informational only.
    let _ = writeln!(out, "  \"durability\": {{");
    let _ = writeln!(out, "    \"events\": {},", durability.events);
    let _ = writeln!(out, "    \"ingest_ns_volatile\": {},", durability.ingest_ns_volatile);
    let _ = writeln!(out, "    \"ingest_ns_durable\": {},", durability.ingest_ns_durable);
    let wal_overhead = (durability.ingest_ns_durable as f64 - durability.ingest_ns_volatile as f64)
        / (durability.ingest_ns_volatile.max(1) as f64)
        * 100.0;
    let _ = writeln!(out, "    \"wal_overhead_pct\": {wal_overhead:.2},");
    let _ = writeln!(out, "    \"wal_records\": {},", durability.wal_records);
    let _ = writeln!(out, "    \"wal_epochs\": {},", durability.wal_epochs);
    let _ =
        writeln!(out, "    \"scaled_checkpoint_bytes\": {},", durability.scaled_checkpoint_bytes);
    let _ = writeln!(out, "    \"scaled_recovered_rows\": {},", durability.scaled_recovered_rows);
    let _ = writeln!(out, "    \"scaled_recovery_ns\": {}", durability.scaled_recovery_ns);
    let _ = writeln!(out, "  }},");
    let orders_differ = reports.iter().filter(|r| r.order_cost != r.order_syntactic).count();
    let work_cost_total: usize = reports.iter().map(|r| r.work_cost).sum();
    let work_syntactic_total: usize = reports.iter().map(|r| r.work_syntactic).sum();
    let _ = writeln!(out, "  \"summary\": {{");
    let _ = writeln!(out, "    \"orders_differ\": {orders_differ},");
    let _ = writeln!(out, "    \"work_cost_total\": {work_cost_total},");
    let _ = writeln!(out, "    \"work_syntactic_total\": {work_syntactic_total},");
    let _ = writeln!(out, "    \"q_error_max\": {q_error_max:.4}");
    let _ = writeln!(out, "  }}");
    let _ = writeln!(out, "}}");
    out
}

/// Extracts every `"key": <number>` occurrence, in document order. Exact
/// key match only (`"work_cost":` does not match `"work_cost_total":`).
fn extract_numbers(json: &str, key: &str) -> Vec<f64> {
    let needle = format!("\"{key}\":");
    let mut out = Vec::new();
    let mut rest = json;
    while let Some(pos) = rest.find(&needle) {
        rest = &rest[pos + needle.len()..];
        let num: String = rest
            .trim_start()
            .chars()
            .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
            .collect();
        if let Ok(v) = num.parse::<f64>() {
            out.push(v);
        }
    }
    out
}

/// Compares current deterministic signals against the baseline; returns
/// human-readable regression descriptions (empty = pass).
fn gate(current: &str, baseline: &str) -> Vec<String> {
    let mut failures = Vec::new();
    let cur_rows = extract_numbers(current, "rows");
    let base_rows = extract_numbers(baseline, "rows");
    if cur_rows != base_rows {
        failures.push(format!("result rows changed: baseline {base_rows:?}, current {cur_rows:?}"));
    }
    let cur_work = extract_numbers(current, "work_cost");
    let base_work = extract_numbers(baseline, "work_cost");
    if cur_work.len() != base_work.len() {
        failures.push(format!(
            "query count changed: baseline {}, current {}",
            base_work.len(),
            cur_work.len()
        ));
    } else {
        for (i, (c, b)) in cur_work.iter().zip(&base_work).enumerate() {
            if *c > b * MAX_REGRESSION {
                failures.push(format!(
                    "query {i}: cost-scheduled work regressed >{MAX_REGRESSION}x \
                     (baseline {b}, current {c})"
                ));
            }
        }
    }
    let cur_qe = extract_numbers(current, "q_error_max");
    let base_qe = extract_numbers(baseline, "q_error_max");
    if let (Some(c), Some(b)) = (cur_qe.last(), base_qe.last()) {
        // Summary value is last; floor the baseline so tiny Q-errors don't
        // make the gate hair-triggered.
        if *c > (b.max(4.0)) * MAX_REGRESSION {
            failures.push(format!(
                "scheduler q_error_max regressed >{MAX_REGRESSION}x (baseline {b}, current {c})"
            ));
        }
    }
    // Full-scan probe results are exact-deterministic.
    for key in ["giant_rows", "probe_rows"] {
        let (c, b) = (extract_numbers(current, key), extract_numbers(baseline, key));
        if !b.is_empty() && c != b {
            failures.push(format!("columnar {key} changed: baseline {b:?}, current {c:?}"));
        }
    }
    // Path queries: result rows and walked edges are exact-deterministic.
    for key in ["path_rows", "path_edges"] {
        let (c, b) = (extract_numbers(current, key), extract_numbers(baseline, key));
        if !b.is_empty() && c != b {
            failures.push(format!("path_queries {key} changed: baseline {b:?}, current {c:?}"));
        }
    }
    // Frontier plane: span and cache counters are exact-deterministic.
    for key in ["frontier_spans", "frontier_hits", "frontier_misses"] {
        let (c, b) = (extract_numbers(current, key), extract_numbers(baseline, key));
        if !b.is_empty() && c != b {
            failures.push(format!(
                "observability {key} changed: baseline {b:?}, current {c:?} \
                 (frontier span taxonomy or cache behaviour drifted?)"
            ));
        }
    }
    // Observability plane: span counts are exact-deterministic — any change
    // to the span taxonomy must regenerate the baseline deliberately.
    for i in 0.. {
        let key = format!("spans_q{i}");
        let (c, b) = (extract_numbers(current, &key), extract_numbers(baseline, &key));
        if b.is_empty() {
            break;
        }
        if c != b {
            failures.push(format!(
                "observability {key} changed: baseline {b:?}, current {c:?} \
                 (span taxonomy drifted?)"
            ));
        }
    }
    // Durability plane: the corpus stream is deterministic, so the WAL it
    // produces — and what recovery replays — is exact. Any drift means the
    // record framing, the commit protocol, or the replay changed;
    // regenerate the baseline deliberately. Checkpoint size — the manifest,
    // which holds no rows — gets the 2x envelope (encoding growth is fine,
    // blow-up is not).
    for key in ["wal_records", "wal_epochs", "scaled_recovered_rows"] {
        let (c, b) = (extract_numbers(current, key), extract_numbers(baseline, key));
        if !b.is_empty() && c != b {
            failures.push(format!("durability {key} changed: baseline {b:?}, current {c:?}"));
        }
    }
    if let (Some(c), Some(b)) = (
        extract_numbers(current, "scaled_checkpoint_bytes").last(),
        extract_numbers(baseline, "scaled_checkpoint_bytes").last(),
    ) {
        if *c > b.max(1.0) * MAX_REGRESSION {
            failures.push(format!(
                "durability checkpoint size regressed >{MAX_REGRESSION}x \
                 (baseline {b}, current {c})"
            ));
        }
    }
    let differ = |json: &str| extract_numbers(json, "orders_differ").last().copied().unwrap_or(0.0);
    if differ(current) < 1.0 && differ(baseline) >= 1.0 {
        failures.push(
            "cost-based scheduler no longer diverges from the syntactic order on any \
             corpus query (counted prices dead?)"
                .to_string(),
        );
    }
    failures
}

fn main() -> ExitCode {
    let mut out_path = "target/BENCH_schedule.json".to_string();
    let mut baseline_path = format!("{}/baselines/BENCH_schedule.json", env!("CARGO_MANIFEST_DIR"));
    let mut write_baseline = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out_path = args.next().expect("--out needs a path"),
            "--baseline" => baseline_path = args.next().expect("--baseline needs a path"),
            "--write-baseline" => write_baseline = true,
            other => {
                eprintln!("unknown argument: {other}");
                return ExitCode::FAILURE;
            }
        }
    }

    let (reports, q_error_max) = run();
    let paths = run_paths();
    let columnar = run_columnar();
    let obs = run_observability();
    let durability = run_durability();
    let json = render_json(&reports, &columnar, &obs, &durability, &paths, q_error_max);
    if let Some(parent) =
        std::path::Path::new(&out_path).parent().filter(|p| !p.as_os_str().is_empty())
    {
        std::fs::create_dir_all(parent).expect("create output dir");
    }
    std::fs::write(&out_path, &json).expect("write bench output");
    println!("wrote {out_path}");
    for r in &reports {
        println!(
            "q{}: rows={} work cost/syn={}/{} latency cost/syn={:.1}µs/{:.1}µs order {}",
            r.id,
            r.rows,
            r.work_cost,
            r.work_syntactic,
            r.latency_ns_cost as f64 / 1e3,
            r.latency_ns_syntactic as f64 / 1e3,
            if r.order_cost == r.order_syntactic { "same" } else { "DIFFERS" },
        );
    }
    println!(
        "columnar: giant q3 rows={}; endtime probe rows={}",
        columnar.giant_rows, columnar.probe_rows
    );
    println!(
        "observability: spans/query={:?}; q3 trace off/on={:.1}µs/{:.1}µs; \
         frontier spans={} hits={} misses={}",
        obs.spans_per_query,
        obs.q3_latency_ns_trace_off as f64 / 1e3,
        obs.q3_latency_ns_trace_on as f64 / 1e3,
        obs.frontier_spans,
        obs.frontier_hits,
        obs.frontier_misses,
    );
    for p in &paths {
        println!("path q{}: rows={} edges={}", p.id, p.rows, p.edges);
    }
    println!(
        "durability: {} events, ingest wal-off/on={:.1}ms/{:.1}ms, wal records/epochs={}/{}; \
         15x ckpt={}B rows={} recovery={:.1}ms",
        durability.events,
        durability.ingest_ns_volatile as f64 / 1e6,
        durability.ingest_ns_durable as f64 / 1e6,
        durability.wal_records,
        durability.wal_epochs,
        durability.scaled_checkpoint_bytes,
        durability.scaled_recovered_rows,
        durability.scaled_recovery_ns as f64 / 1e6,
    );
    if write_baseline {
        std::fs::create_dir_all(
            std::path::Path::new(&baseline_path).parent().expect("baseline has a parent"),
        )
        .expect("create baseline dir");
        std::fs::write(&baseline_path, &json).expect("write baseline");
        println!("baseline written to {baseline_path}");
        return ExitCode::SUCCESS;
    }

    let baseline = match std::fs::read_to_string(&baseline_path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("cannot read baseline {baseline_path}: {e} (run with --write-baseline)");
            return ExitCode::FAILURE;
        }
    };
    let failures = gate(&json, &baseline);
    if failures.is_empty() {
        println!("bench-smoke gate: PASS (vs {baseline_path})");
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("bench-smoke gate: FAIL: {f}");
        }
        ExitCode::FAILURE
    }
}
