//! Criterion benches for the streaming subsystem: ingest throughput
//! (events/s — divide the event count by the reported mean) and per-epoch
//! detection latency on the data_leak workload, batch vs. streaming.
//!
//! * `bulk_load` — one-shot `load()` of the whole log (the batch baseline;
//!   same append path as streaming, minus epoch/registry overhead),
//! * `streaming_ingest` — the same log through `StreamSession` in
//!   64-event epochs, no standing queries (pure ingest),
//! * `streaming_ingest_detect` — ditto plus the case's synthesized TBQL
//!   registered as a standing query: every epoch pays its delta
//!   re-evaluation (subtracting `streaming_ingest` and dividing by the
//!   epoch count gives the per-epoch detection latency),
//! * `batch_redetect_per_epoch` — the naive alternative streaming must
//!   beat: re-executing the full scheduled query once per epoch boundary
//!   over the fully loaded store.

use criterion::{criterion_group, criterion_main, Criterion};
use raptor_bench::caseval::evaluate_case;
use raptor_engine::exec::ExecMode;
use raptor_stream::{EpochPolicy, EpochStream, StreamSession};

const EPOCH: usize = 64;

fn bench_streaming_ingest(c: &mut Criterion) {
    // The paper-scale workload, plus a 8x-noise one that shows the delta
    // crossover: per-epoch delta cost stays ~flat with store size while the
    // naive redetect grows with it.
    bench_at_scale(c, "streaming_ingest", 1.0);
    bench_at_scale(c, "streaming_ingest_8x", 8.0);
}

fn bench_at_scale(c: &mut Criterion, group: &str, noise_scale: f64) {
    let spec = raptor_cases::catalog::case_by_id("data_leak").unwrap();
    let eval = evaluate_case(spec, noise_scale, 42);
    let log = &eval.built.log;
    let tbql = eval.tbql.clone();
    let epochs = EpochStream::new(log, EpochPolicy::ByCount(EPOCH)).count();
    eprintln!(
        "{group} workload: {} entities, {} events, {} epochs of {EPOCH}",
        log.entities.len(),
        log.events.len(),
        epochs
    );

    let mut g = c.benchmark_group(group);
    g.sample_size(10);
    g.bench_function("bulk_load", |b| b.iter(|| raptor_engine::load::load(log).unwrap()));
    g.bench_function("streaming_ingest", |b| {
        b.iter(|| {
            let mut session = StreamSession::new().unwrap();
            for batch in EpochStream::new(log, EpochPolicy::ByCount(EPOCH)) {
                session.ingest_batch(&batch).unwrap();
            }
            session
        })
    });
    g.bench_function("streaming_ingest_detect", |b| {
        b.iter(|| {
            let mut session = StreamSession::new().unwrap();
            session.register("data_leak", &tbql).unwrap();
            let mut rows = 0usize;
            for batch in EpochStream::new(log, EpochPolicy::ByCount(EPOCH)) {
                let report = session.ingest_batch(&batch).unwrap().expect("fresh epoch");
                rows += report.deltas[0].delta.n_rows();
            }
            (session, rows)
        })
    });
    g.bench_function("batch_redetect_per_epoch", |b| {
        let engine = eval.raptor.engine();
        let aq = raptor_tbql::analyze(&raptor_tbql::parse_tbql(&tbql).unwrap()).unwrap();
        b.iter(|| {
            let mut rows = 0usize;
            for _ in 0..epochs {
                let (r, _) = engine.execute_batch(&aq, ExecMode::Scheduled).unwrap();
                rows = r.n_rows();
            }
            rows
        })
    });
    g.finish();
}

criterion_group!(benches, bench_streaming_ingest);
criterion_main!(benches);
