//! Criterion benches for the delta-incremental path plane: group
//! `path_delta_vs_full` pins the acceptance shape — the per-epoch *delta*
//! advance of a standing var-length path query stays near-flat as the
//! store grows (1x corpus vs ~15x scaled corpus), while the naive
//! alternative (a full scheduled re-evaluation of the path query at every
//! epoch boundary) grows with store size.
//!
//! * `ingest_only/{scale}` — the whole log streamed with no standing
//!   queries (the subtraction baseline),
//! * `delta_stream/{scale}` — ditto plus the var-length path query
//!   registered: every epoch pays one frontier advance. Subtract
//!   `ingest_only` and divide by the epoch count for the per-epoch delta
//!   latency — compare it across 1x → 15x,
//! * `full_reeval_per_epoch/{scale}` — one full `ExecMode::Scheduled`
//!   evaluation of the same path query over the fully loaded store: what
//!   each epoch would cost without the frontier.

use criterion::{criterion_group, criterion_main, Criterion};
use raptor_bench::corpus::{corpus_log, scaled_corpus_log};
use raptor_engine::exec::ExecMode;
use raptor_engine::load::load;
use raptor_engine::Engine;
use raptor_stream::{EpochPolicy, EpochStream, StreamSession};

const EPOCH: usize = 256;
const PATH_QUERY: &str = "proc p ~>(1~3)[read] file f as e1 return p, f";

fn bench_path_delta(c: &mut Criterion) {
    let logs = [("1x", corpus_log()), ("15x", scaled_corpus_log())];
    let mut g = c.benchmark_group("path_delta_vs_full");
    g.sample_size(10);
    for (scale, log) in &logs {
        let epochs = EpochStream::new(log, EpochPolicy::ByCount(EPOCH)).count();
        eprintln!(
            "path_delta_vs_full {scale}: {} entities, {} events, {} epochs of {EPOCH}",
            log.entities.len(),
            log.events.len(),
            epochs
        );

        g.bench_function(&format!("ingest_only/{scale}"), |b| {
            b.iter(|| {
                let mut session = StreamSession::new().unwrap();
                for batch in EpochStream::new(log, EpochPolicy::ByCount(EPOCH)) {
                    session.ingest_batch(&batch).unwrap();
                }
                session
            })
        });
        g.bench_function(&format!("delta_stream/{scale}"), |b| {
            b.iter(|| {
                let mut session = StreamSession::new().unwrap();
                session.register("path_hunt", PATH_QUERY).unwrap();
                let mut rows = 0usize;
                for batch in EpochStream::new(log, EpochPolicy::ByCount(EPOCH)) {
                    let report = session.ingest_batch(&batch).unwrap().expect("fresh epoch");
                    rows += report.deltas[0].delta.n_rows();
                }
                (session, rows)
            })
        });
        let engine = Engine::new(load(log).unwrap());
        g.bench_function(&format!("full_reeval_per_epoch/{scale}"), |b| {
            b.iter(|| {
                let (r, _) = engine.execute_text(PATH_QUERY, ExecMode::Scheduled).unwrap();
                r.rows.len()
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_path_delta);
criterion_main!(benches);
