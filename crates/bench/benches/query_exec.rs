//! Criterion bench for TBQL query execution (Table VIII shape): the
//! 1-pattern case, where TBQL's compile overhead can make the scheduled
//! plan slower than one giant SQL statement (the paper's tc_clearscope_3
//! observation). The multi-pattern data_leak comparison lives in
//! `bench_ledger` (`query-events` fixed query 8, `relstore.giant_sql_us`,
//! `graphstore.giant_cypher_us`).

use criterion::{criterion_group, criterion_main, Criterion};
use raptor_bench::caseval::{evaluate_case, query_variants};
use raptor_engine::exec::ExecMode;

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

criterion_group!(benches, bench_single_pattern);
criterion_main!(benches);
