//! Criterion benches for TBQL query execution (Table VIII shape): the
//! scheduled plan vs the giant-SQL and giant-Cypher baselines on the
//! data_leak scenario, plus the 1-pattern case where TBQL's compile
//! overhead makes it *slower* (the paper's tc_clearscope_3 observation).

use criterion::{criterion_group, criterion_main, Criterion};
use raptor_bench::caseval::{evaluate_case, query_variants};
use raptor_bench::corpus::{corpus_system, scaled_corpus_system, EQUIV_CORPUS};
use raptor_engine::exec::ExecMode;
use raptor_engine::SchedulerMode;
use raptor_tbql::{analyze, parse_tbql};

fn bench_variants(c: &mut Criterion) {
    let spec = raptor_cases::catalog::case_by_id("data_leak").unwrap();
    let eval = evaluate_case(spec, 1.0, 42);
    let v = query_variants(&eval);
    let mut g = c.benchmark_group("query_exec_data_leak");
    g.sample_size(20);
    g.bench_function("tbql_scheduled", |b| {
        b.iter(|| eval.raptor.query_with_mode(&v.tbql, ExecMode::Scheduled).unwrap())
    });
    g.bench_function("giant_sql", |b| {
        b.iter(|| eval.raptor.query_with_mode(&v.tbql, ExecMode::GiantSql).unwrap())
    });
    g.bench_function("tbql_path_scheduled", |b| {
        b.iter(|| eval.raptor.query_with_mode(&v.tbql_path, ExecMode::Scheduled).unwrap())
    });
    g.bench_function("giant_cypher", |b| {
        b.iter(|| eval.raptor.query_with_mode(&v.tbql_path, ExecMode::GiantCypher).unwrap())
    });
    g.finish();
}

fn bench_single_pattern(c: &mut Criterion) {
    let spec = raptor_cases::catalog::case_by_id("tc_clearscope_3").unwrap();
    let eval = evaluate_case(spec, 1.0, 42);
    let v = query_variants(&eval);
    let mut g = c.benchmark_group("query_exec_single_pattern");
    g.sample_size(20);
    g.bench_function("tbql_scheduled", |b| {
        b.iter(|| eval.raptor.query_with_mode(&v.tbql, ExecMode::Scheduled).unwrap())
    });
    g.bench_function("giant_sql", |b| {
        b.iter(|| eval.raptor.query_with_mode(&v.tbql, ExecMode::GiantSql).unwrap())
    });
    g.finish();
}

/// Cost-based vs syntactic scheduling on the equivalence corpus. Query 3 is
/// the showcase: the two patterns tie syntactically, but the cost-based
/// scheduler runs the IOC'd `connect` pattern first and prunes the weakly
/// constrained `read || write` through the propagated `IN` sets — a
/// *different and measurably faster* order (~2x on the corpus store, and
/// ~3x less backend work; `bench_smoke` gates the deterministic counters).
fn bench_scheduler_modes(c: &mut Criterion) {
    let raptor = corpus_system();
    let engine = raptor.engine();
    let mut g = c.benchmark_group("scheduler_cost_vs_syntactic");
    g.sample_size(20);
    for (id, q) in EQUIV_CORPUS.iter().enumerate() {
        let aq = analyze(&parse_tbql(q).unwrap()).unwrap();
        g.bench_function(&format!("q{id}_cost"), |b| {
            b.iter(|| engine.execute_scheduled_as(&aq, SchedulerMode::CostBased).unwrap())
        });
        g.bench_function(&format!("q{id}_syntactic"), |b| {
            b.iter(|| engine.execute_scheduled_as(&aq, SchedulerMode::Syntactic).unwrap())
        });
    }
    g.finish();
}

/// The shared-dictionary-plane comparison: end-to-end execution with the
/// interned value plane (symbols end-to-end, strings rendered exactly once
/// at the edge) vs an emulation of the pre-refactor owned-string plane —
/// every cell crossing the `StorageBackend` seam materialized to a heap
/// `String` and DISTINCT deduplication hashing over string rows, which is
/// precisely the per-row work the re-keying removed. Both arms run the
/// identical backend execution, so the delta isolates the value-plane cost.
/// Measured on scan-bound queries over the corpus store (weakly constrained
/// patterns ⇒ thousands of result rows) plus the corpus showcase query.
fn bench_interned_vs_owned(c: &mut Criterion) {
    let raptor = corpus_system();
    let engine = raptor.engine();
    let scan_bound: Vec<(&str, String)> = vec![
        ("wide_read", "proc p read file f as e1 return p, f".to_string()),
        ("wide_distinct", "proc p read file f as e1 return distinct p, f".to_string()),
        ("corpus_q3", EQUIV_CORPUS[3].to_string()),
    ];
    let mut g = c.benchmark_group("interned_vs_owned");
    g.sample_size(20);
    for (name, q) in &scan_bound {
        let aq = analyze(&parse_tbql(q).unwrap()).unwrap();
        g.bench_function(&format!("{name}_interned"), |b| {
            b.iter(|| {
                let (batch, mut stats) = engine.execute_batch(&aq, ExecMode::Scheduled).unwrap();
                raptor_engine::ResultTable::from_batch_counted(&batch, &mut stats)
            })
        });
        g.bench_function(&format!("{name}_owned"), |b| {
            b.iter(|| {
                let (batch, _) = engine.execute_batch(&aq, ExecMode::Scheduled).unwrap();
                // Owned-plane emulation: materialize every cell (what
                // `OwnedValue`/`GVal::Str(String)` did at the seam), then
                // dedup by hashing heap-string rows (what DISTINCT and the
                // stream multiset-diff did before the re-keying).
                let rows: Vec<Vec<String>> = (0..batch.n_rows())
                    .map(|i| batch.row(i).iter().map(|v| v.render(&batch.dict)).collect())
                    .collect();
                let mut seen: raptor_common::FxHashSet<Vec<String>> = Default::default();
                let mut out = Vec::with_capacity(rows.len());
                for r in rows {
                    if seen.insert(r.clone()) {
                        out.push(r);
                    }
                }
                out
            })
        });
    }
    g.finish();
}

/// The columnar-storage-plane comparison: segmented + vectorized scans vs
/// a row-at-a-time emulation at the same seam. Both arms run the identical
/// executor; the emulation arm repartitions the store to **one row per
/// segment**, which degenerates every predicate kernel to a per-row
/// dispatch (per-segment setup, zone-map check and selection-vector append
/// for every single row) — precisely the per-row overhead the vectorized
/// plane amortizes over 4096-row segments. Workloads are the scan-bound
/// shapes: corpus q3 (its `read || write` OR-predicate defeats every
/// index) plus the weakly constrained `wide_read`/`wide_distinct`, all
/// through `GiantSql` so execution is full-scan + hash-join rather than
/// index-served, at the CI corpus scale (1x) and ~15x.
fn bench_columnar_scan(c: &mut Criterion) {
    let workloads: Vec<(&str, String)> = vec![
        ("q3", EQUIV_CORPUS[3].to_string()),
        ("wide_read", "proc p read file f as e1 return p, f".to_string()),
        ("wide_distinct", "proc p read file f as e1 return distinct p, f".to_string()),
    ];
    let mut g = c.benchmark_group("columnar_scan");
    g.sample_size(10);
    for (scale, mut raptor) in [("1x", corpus_system()), ("15x", scaled_corpus_system())] {
        for (name, q) in &workloads {
            let aq = analyze(&parse_tbql(q).unwrap()).unwrap();
            raptor.set_segment_rows(4096);
            g.bench_function(&format!("{name}_{scale}_vectorized"), |b| {
                b.iter(|| raptor.engine().execute(&aq, ExecMode::GiantSql).unwrap())
            });
            raptor.set_segment_rows(1);
            g.bench_function(&format!("{name}_{scale}_row_at_a_time"), |b| {
                b.iter(|| raptor.engine().execute(&aq, ExecMode::GiantSql).unwrap())
            });
            raptor.set_segment_rows(4096);
        }
    }
    g.finish();
}

/// The observability-plane overhead contract: tracing disabled must cost
/// nothing measurable (<1% — each span site is a single relaxed atomic
/// load), and tracing enabled must stay cheap (lock-free ring writes, no
/// allocation, no formatting). Measured on corpus q3 — the `columnar_scan`
/// showcase query — through both the scheduled plan and the full-scan
/// `GiantSql` baseline, at CI corpus scale (1x) and ~15x so per-span cost
/// is exercised against both short and scan-dominated executions.
fn bench_trace_overhead(c: &mut Criterion) {
    let trace = raptor_common::obs::trace();
    let aq = analyze(&parse_tbql(EQUIV_CORPUS[3]).unwrap()).unwrap();
    let mut g = c.benchmark_group("trace_overhead");
    g.sample_size(20);
    for (scale, raptor) in [("1x", corpus_system()), ("15x", scaled_corpus_system())] {
        for (mode_name, mode) in
            [("scheduled", ExecMode::Scheduled), ("giant_sql", ExecMode::GiantSql)]
        {
            trace.set_enabled(false);
            g.bench_function(&format!("q3_{mode_name}_{scale}_trace_off"), |b| {
                b.iter(|| raptor.engine().execute(&aq, mode).unwrap())
            });
            trace.set_enabled(true);
            g.bench_function(&format!("q3_{mode_name}_{scale}_trace_on"), |b| {
                b.iter(|| raptor.engine().execute(&aq, mode).unwrap())
            });
            trace.set_enabled(false);
            trace.clear();
        }
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_variants,
    bench_single_pattern,
    bench_scheduler_modes,
    bench_interned_vs_owned,
    bench_columnar_scan,
    bench_trace_overhead
);
criterion_main!(benches);
