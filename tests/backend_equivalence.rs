//! Cross-backend equivalence: the scheduled plan (typed store calls), the
//! giant-SQL plan and the giant-Cypher plan must return identical
//! result sets for the same query — the paper's "all these four types of
//! queries search for the same system behaviors and return the same
//! results". The scheduled plan must additionally be *parse-free*: zero
//! SQL/Cypher texts parsed end to end.

use threatraptor::audit::sim::Simulator;
use threatraptor::common::time::Timestamp;
use threatraptor::engine::exec::{to_length1_path_query, ExecMode, QueryKind};
use threatraptor::engine::SchedulerMode;
use threatraptor::tbql::print::print_query;
use threatraptor::ThreatRaptor;

/// The one authoritative corpus scenario (data-leak attack over background
/// noise), shared with the scheduler benches and the `bench_smoke` gate.
fn system() -> ThreatRaptor {
    raptor_bench::corpus::corpus_system()
}

/// The equivalence corpus (shared constant: the scheduler's order-pinning
/// tests and the `bench_smoke` CI gate run the same eight queries): every
/// query here must produce identical `sorted_rows()` under Scheduled
/// (typed), GiantSql and GiantCypher. (Giant modes support plain
/// before/after only, so the corpus stays within that fragment; richer
/// scheduled-only features are covered by unit tests.)
const QUERIES: &[&str] = threatraptor::tbql::parser::EQUIV_CORPUS;

#[test]
fn scheduled_equals_giant_sql() {
    let raptor = system();
    for q in QUERIES {
        let (a, _) = raptor.query_with_mode(q, ExecMode::Scheduled).unwrap();
        let (b, _) = raptor.query_with_mode(q, ExecMode::GiantSql).unwrap();
        assert_eq!(a.sorted_rows(), b.sorted_rows(), "query: {q}");
        assert!(!a.rows.is_empty(), "query should match: {q}");
    }
}

#[test]
fn scheduled_equals_giant_cypher() {
    let raptor = system();
    for q in QUERIES {
        let (a, _) = raptor.query_with_mode(q, ExecMode::Scheduled).unwrap();
        let (c, _) = raptor.query_with_mode(q, ExecMode::GiantCypher).unwrap();
        assert_eq!(a.sorted_rows(), c.sorted_rows(), "query: {q}");
    }
}

#[test]
fn event_patterns_equal_length1_paths() {
    // Variant (c): the same query rewritten with `->[op]` syntax runs on
    // the graph backend and must agree.
    let raptor = system();
    for q in QUERIES {
        let parsed = threatraptor::tbql::parse_tbql(q).unwrap();
        let path_q = print_query(&to_length1_path_query(&parsed));
        let (a, _) = raptor.query_with_mode(q, ExecMode::Scheduled).unwrap();
        let (p, stats) = raptor.query_with_mode(&path_q, ExecMode::Scheduled).unwrap();
        assert_eq!(a.sorted_rows(), p.sorted_rows(), "query: {q}");
        assert!(
            stats
                .queries
                .iter()
                .any(|qi| qi.kind == QueryKind::PathPattern && qi.backend == "graph"),
            "path variant must hit the graph backend: {:?}",
            stats.queries
        );
    }
}

/// The typed plane's contract: scheduled execution issues zero SQL/Cypher
/// text parses for every corpus query.
#[test]
fn scheduled_mode_is_parse_free_across_corpus() {
    let raptor = system();
    let engine = raptor.engine();
    for q in QUERIES {
        let parses_before = engine.stores.rel.text_parse_count();
        let (_, stats) = raptor.query_with_mode(q, ExecMode::Scheduled).unwrap();
        assert_eq!(stats.text_parses, 0, "engine parsed text for: {q}");
        assert_eq!(stats.backend.text_parses, 0, "backend parsed text for: {q}");
        assert_eq!(
            engine.stores.rel.text_parse_count(),
            parses_before,
            "relational store parsed SQL for: {q}"
        );
    }
}

/// `items_inserted` accounting: query execution never inserts, and the
/// streaming ingest path counts exactly one insert per record per backend,
/// with per-epoch reset semantics (each report counts only its own epoch).
#[test]
fn items_inserted_counted_on_ingest_only() {
    let raptor = system();
    for q in QUERIES {
        for mode in [ExecMode::Scheduled, ExecMode::GiantSql, ExecMode::GiantCypher] {
            let (_, stats) = raptor.query_with_mode(q, mode).unwrap();
            assert_eq!(stats.backend.items_inserted, 0, "{mode:?} inserted during {q}");
        }
    }

    // Grow the same data incrementally: 2 backends × (entities + events).
    let mut sim = Simulator::new(77, Timestamp::from_secs(1_500_000_000));
    let shell = sim.boot_process("/bin/bash", "root");
    let tar = sim.spawn(shell, "/bin/tar", "tar");
    sim.read_file(tar, "/etc/passwd", 4096, 4);
    sim.exit(tar);
    let log = threatraptor::audit::LogParser::parse(&sim.finish());
    let mut session = threatraptor::stream::StreamSession::new().unwrap();
    let mut epoch_sum = 0usize;
    for batch in
        threatraptor::stream::EpochStream::new(&log, threatraptor::stream::EpochPolicy::ByCount(2))
    {
        let report = session.ingest_batch(&batch).unwrap().expect("fresh epoch");
        assert_eq!(
            report.ingest_stats.items_inserted,
            2 * (report.entities_ingested + report.events_ingested),
            "per-epoch counter must reset"
        );
        epoch_sum += report.ingest_stats.items_inserted;
    }
    let total = session.total_ingest_stats().items_inserted;
    assert_eq!(total, epoch_sum);
    assert_eq!(total, 2 * (log.entities.len() + log.events.len()));
}

/// The cost-based order is driven by `stats()`: estimates are populated
/// for every pattern on every corpus query, the scheduler reports
/// cost-based mode, and every executed pattern's Q-error is finite.
#[test]
fn cost_based_order_is_stats_driven() {
    let raptor = system();
    let engine = raptor.engine();
    for q in QUERIES {
        let parsed = threatraptor::tbql::parse_tbql(q).unwrap();
        let aq = threatraptor::tbql::analyze(&parsed).unwrap();
        let (_, stats) = engine.execute_scheduled_as(&aq, SchedulerMode::CostBased).unwrap();
        assert_eq!(stats.scheduler, Some(SchedulerMode::CostBased), "query: {q}");
        assert_eq!(stats.estimates.len(), aq.patterns.len());
        for e in &stats.estimates {
            let est = e.estimated_rows.unwrap_or_else(|| panic!("no estimate for {e:?}: {q}"));
            assert!(est.is_finite(), "estimate not finite: {e:?}");
            if e.actual_rows.is_some() {
                let qerr = e.q_error().unwrap();
                assert!(qerr.is_finite() && qerr >= 1.0, "bad q-error {qerr} for {e:?}: {q}");
            }
        }
        // Every pattern executed (nothing short-circuited on the corpus),
        // so actual rows are recorded throughout.
        assert!(stats.estimates.iter().all(|e| e.actual_rows.is_some()), "query: {q}");
    }
}

/// Cost-based reordering can never change results: rendered rows are
/// byte-identical across scheduler modes, for both the event-pattern form
/// (relational backend) and the length-1 path form (graph backend).
#[test]
fn results_identical_across_scheduler_modes() {
    let raptor = system();
    let engine = raptor.engine();
    for q in QUERIES {
        let parsed = threatraptor::tbql::parse_tbql(q).unwrap();
        for variant in [print_query(&parsed), print_query(&to_length1_path_query(&parsed))] {
            let aq =
                threatraptor::tbql::analyze(&threatraptor::tbql::parse_tbql(&variant).unwrap())
                    .unwrap();
            let (cost, _) = engine.execute_scheduled_as(&aq, SchedulerMode::CostBased).unwrap();
            let (syn, _) = engine.execute_scheduled_as(&aq, SchedulerMode::Syntactic).unwrap();
            assert_eq!(cost.columns, syn.columns, "query: {variant}");
            assert_eq!(cost.sorted_rows(), syn.sorted_rows(), "query: {variant}");
        }
    }
}

/// The scheduler's showcase (corpus query 3): the cost-based order differs
/// from the syntactic one — the IOC'd `connect` runs before the weakly
/// constrained `read || write` — and does measurably less backend work.
#[test]
fn cost_based_order_beats_syntactic_on_showcase_query() {
    let raptor = system();
    let engine = raptor.engine();
    let aq =
        threatraptor::tbql::analyze(&threatraptor::tbql::parse_tbql(QUERIES[3]).unwrap()).unwrap();
    let work = |s: &threatraptor::engine::exec::EngineStats| {
        s.backend.items_scanned + s.backend.items_built + s.backend.edges_traversed
    };
    let (_, cost) = engine.execute_scheduled_as(&aq, SchedulerMode::CostBased).unwrap();
    let (_, syn) = engine.execute_scheduled_as(&aq, SchedulerMode::Syntactic).unwrap();
    assert_ne!(cost.execution_order, syn.execution_order);
    assert_eq!(cost.execution_order, vec![1, 0], "connect pattern first");
    assert!(
        2 * work(&cost) < work(&syn),
        "cost-based order should at least halve the work: {} vs {}",
        work(&cost),
        work(&syn)
    );
}

/// The one statistics copy (the relational store's) describes the data both
/// stores hold: its node and edge totals are the graph's own counts.
#[test]
fn backend_stats_agree() {
    use threatraptor::storage::EntityClass;
    let raptor = system();
    let engine = raptor.engine();
    let rel = engine.stores.rel.store_stats();
    assert!(rel.table("events").unwrap().rows() > 0);
    assert_eq!(rel.total_nodes(), engine.stores.graph.node_count() as u64);
    assert_eq!(rel.total_edges(), engine.stores.graph.edge_count() as u64);
    assert!(rel.degree(EntityClass::Process).unwrap().avg_out() > 0.0);
    // The event-op frequency table is exact and served scan-free.
    let ops = rel.event_ops();
    assert!(ops.iter().any(|(op, n)| op == "connect" && *n > 0), "{ops:?}");
    let total: u64 = ops.iter().map(|(_, n)| n).sum();
    assert_eq!(total, rel.table("events").unwrap().rows());
}

#[test]
fn negative_queries_empty_everywhere() {
    let raptor = system();
    let q = r#"proc p["%/bin/absent%"] read file f as e1 return p, f"#;
    for mode in [ExecMode::Scheduled, ExecMode::GiantSql, ExecMode::GiantCypher] {
        let (r, _) = raptor.query_with_mode(q, mode).unwrap();
        assert!(r.rows.is_empty(), "{mode:?}");
    }
}

/// The golden file pinned from the pre-refactor (owned-string) pipeline:
/// per corpus query, the projected columns and `sorted_rows()` rendering.
fn golden_rows() -> Vec<(Vec<String>, Vec<Vec<String>>)> {
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/corpus_rows.txt"
    ))
    .expect("golden file (regenerate with `cargo run -p raptor-bench --bin golden_rows`)");
    let mut out: Vec<(Vec<String>, Vec<Vec<String>>)> = Vec::new();
    for line in text.lines() {
        if let Some(cols) = line.strip_prefix("columns ") {
            out.push((cols.split('\t').map(str::to_string).collect(), Vec::new()));
        } else if let Some(row) = line.strip_prefix("row ") {
            out.last_mut().unwrap().1.push(row.split('\t').map(str::to_string).collect());
        }
    }
    assert_eq!(out.len(), QUERIES.len(), "golden file covers the whole corpus");
    out
}

/// The shared-dictionary-plane hard contract: rendered output is
/// byte-identical to the pre-refactor golden rendering on every corpus
/// query × every exec mode × both backends (event + length-1 path forms) ×
/// bulk and stream-grown stores × threads {1, 2, 4, 8}.
#[test]
fn golden_corpus_rows_across_modes_builds_and_threads() {
    let golden = golden_rows();
    // Bulk-loaded and stream-grown corpus stores over the same log.
    let mut bulk = raptor_bench::corpus::corpus_system();
    let log = raptor_bench::corpus::corpus_log();
    let mut session = threatraptor::stream::StreamSession::new().unwrap();
    for batch in
        threatraptor::stream::EpochStream::new(&log, threatraptor::stream::EpochPolicy::ByCount(64))
    {
        session.ingest_batch(&batch).unwrap();
    }
    for &threads in &[1usize, 2, 4, 8] {
        bulk.set_threads(threads);
        session.set_threads(threads);
        for (i, q) in QUERIES.iter().enumerate() {
            let (want_cols, want_rows) = &golden[i];
            let parsed = threatraptor::tbql::parse_tbql(q).unwrap();
            let path_q = print_query(&to_length1_path_query(&parsed));
            for mode in [ExecMode::Scheduled, ExecMode::GiantSql, ExecMode::GiantCypher] {
                let (r, _) = bulk.query_with_mode(q, mode).unwrap();
                assert_eq!(&r.columns, want_cols, "q{i} {mode:?} t{threads}");
                assert_eq!(&r.sorted_rows(), want_rows, "q{i} {mode:?} t{threads}");
            }
            // Length-1 path form (graph backend) and the stream-grown store.
            let (p, _) = bulk.query_with_mode(&path_q, ExecMode::Scheduled).unwrap();
            assert_eq!(&p.sorted_rows(), want_rows, "q{i} path t{threads}");
            for text in [*q, path_q.as_str()] {
                let (s, _) = session.engine().execute_text(text, ExecMode::Scheduled).unwrap();
                assert_eq!(&s.sorted_rows(), want_rows, "q{i} streamed t{threads}");
            }
        }
    }
}

/// The shared dictionary plane is literally *one* dictionary: both backends
/// and the engine hold handles to the same arena, and every string observed
/// from either store resolves identically through the other.
#[test]
fn one_dictionary_spans_both_backends() {
    let raptor = system();
    let stores = &raptor.engine().stores;
    assert!(stores.dict.ptr_eq(stores.rel.dict()), "relational store shares the plane");
    assert!(stores.dict.ptr_eq(stores.graph.dict()), "graph store shares the plane");
    assert!(stores.dict.ptr_eq(stores.rel.store_stats().dict()), "statistics key on the plane");
    assert!(!stores.dict.is_empty());
    for (sym, s) in stores.dict.iter() {
        assert_eq!(stores.rel.dict().resolve(sym), s);
        assert_eq!(stores.graph.dict().resolve(sym), s);
        assert_eq!(stores.graph.dict().get(s), Some(sym), "sym↔string mapping is a bijection");
    }
}

/// `strings_materialized` edge accounting: zero everywhere inside the
/// scheduled path (the pipeline is symbol-only), and exactly
/// rows × string-columns once the edge renders.
#[test]
fn strings_materialized_counted_only_at_the_edge() {
    let raptor = system();
    let engine = raptor.engine();
    for q in QUERIES {
        let parsed = threatraptor::tbql::parse_tbql(q).unwrap();
        let aq = threatraptor::tbql::analyze(&parsed).unwrap();
        // The un-rendered batch: the whole scheduled pipeline ran, no
        // string was materialized.
        let (batch, stats) = engine.execute_batch(&aq, ExecMode::Scheduled).unwrap();
        assert_eq!(stats.strings_materialized, 0, "off-edge must stay symbolic: {q}");
        // The rendered edge: exactly one String per string cell.
        let (table, stats) = engine.execute(&aq, ExecMode::Scheduled).unwrap();
        assert_eq!(stats.strings_materialized, batch.str_cells(), "{q}");
        // ... which is exactly rows × string-columns of the result.
        let str_cols = batch
            .cols
            .iter()
            .filter(|c| matches!(c, threatraptor::storage::ValueColumn::Str(_)))
            .count();
        assert_eq!(stats.strings_materialized, table.rows.len() * str_cols, "{q}");
        assert!(stats.strings_materialized > 0, "corpus queries all match: {q}");
    }
}
