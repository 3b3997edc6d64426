//! Criterion benches for TBQL query execution (Table VIII shape): the
//! scheduled plan vs the giant-SQL and giant-Cypher baselines on the
//! data_leak scenario, plus the 1-pattern case where TBQL's compile
//! overhead makes it *slower* (the paper's tc_clearscope_3 observation).

use criterion::{criterion_group, criterion_main, Criterion};
use raptor_bench::caseval::{evaluate_case, query_variants};
use raptor_bench::corpus::{corpus_system, EQUIV_CORPUS};
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

criterion_group!(benches, bench_variants, bench_single_pattern, bench_scheduler_modes);
criterion_main!(benches);
