//! Parallel-plane determinism: thread count is never observable.
//!
//! The parallel execution plane (scoped worker pool, partitioned relstore
//! scans and hash-join probes, per-anchor graph path search) promises
//! **byte-identical** execution at every
//! thread count: not just the same row *set* but the same row *order*, and
//! the same deterministic work counters (`BackendStats`, issued data
//! queries, execution order, short-circuit flag). This suite pins that
//! contract over the shared 8-query corpus:
//!
//! * both backends — every query runs in its event-pattern form (relational
//!   store) and its length-1 path form (graph store),
//! * thread counts {1, 2, 4, 8} — 1 takes the strictly sequential code
//!   paths, so every parallel run is compared against true sequential
//!   execution,
//! * both store builds — a bulk-loaded engine and a stream-grown session
//!   (epoch-by-epoch ingest), since the parallel read path must not care
//!   how the store was built.

use std::cell::RefCell;

use proptest::prelude::*;
use threatraptor::engine::exec::{to_length1_path_query, EngineStats, ExecMode};
use threatraptor::engine::load::load;
use threatraptor::engine::Engine;
use threatraptor::stream::{EpochPolicy, EpochStream, StreamSession};
use threatraptor::tbql::print::print_query;

const QUERIES: &[&str] = threatraptor::tbql::parser::EQUIV_CORPUS;
const THREADS: &[usize] = &[1, 2, 4, 8];

struct Fixture {
    /// Bulk-loaded engine.
    bulk: RefCell<Engine>,
    /// Stream-grown session (kept whole so its engine stays borrowable).
    streamed: RefCell<StreamSession>,
}

thread_local! {
    /// Built once per test thread — the properties only read the stores.
    static FIXTURE: Fixture = {
        let spec = raptor_cases::catalog::case_by_id("data_leak").unwrap();
        let built = raptor_cases::build_case(spec, 0.2, 99);
        let bulk = Engine::new(load(&built.log).unwrap());
        let mut session = StreamSession::new().unwrap();
        for batch in EpochStream::new(&built.log, EpochPolicy::ByCount(64)) {
            session.ingest_batch(&batch).unwrap();
        }
        Fixture { bulk: RefCell::new(bulk), streamed: RefCell::new(session) }
    };
}

/// The deterministic fingerprint of one execution: exact rows (order
/// included) plus every deterministic work counter.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    rows: Vec<Vec<String>>,
    backend: threatraptor::storage::BackendStats,
    data_queries: usize,
    text_parses: usize,
    execution_order: Vec<usize>,
    query_labels: Vec<String>,
    short_circuited: bool,
}

fn fingerprint(rows: Vec<Vec<String>>, stats: &EngineStats) -> Fingerprint {
    Fingerprint {
        rows,
        backend: stats.backend,
        data_queries: stats.data_queries,
        text_parses: stats.text_parses,
        execution_order: stats.execution_order.clone(),
        query_labels: stats.queries.iter().map(|q| q.label.clone()).collect(),
        short_circuited: stats.short_circuited,
    }
}

fn run(engine: &Engine, tbql: &str) -> Fingerprint {
    let (table, stats) = engine.execute_text(tbql, ExecMode::Scheduled).unwrap();
    fingerprint(table.rows, &stats)
}

/// Executes `tbql` on both store builds across every thread count and
/// asserts each store's executions are byte-identical to its sequential
/// (1-thread) run.
fn assert_thread_count_invisible(tbql: &str) {
    FIXTURE.with(|fx| {
        let bulk_at = |t: usize| {
            let mut e = fx.bulk.borrow_mut();
            e.set_threads(t);
            run(&e, tbql)
        };
        let streamed_at = |t: usize| {
            let mut s = fx.streamed.borrow_mut();
            s.set_threads(t);
            run(s.engine(), tbql)
        };
        let (bulk_ref, streamed_ref) = (bulk_at(1), streamed_at(1));
        for &t in &THREADS[1..] {
            assert_eq!(bulk_at(t), bulk_ref, "bulk store diverged at {t} threads for: {tbql}");
            assert_eq!(
                streamed_at(t),
                streamed_ref,
                "streamed store diverged at {t} threads for: {tbql}"
            );
        }
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any corpus query, either backend form, any thread count, either
    /// store build: identical rows (order included) and identical
    /// deterministic work counters.
    #[test]
    fn thread_count_is_never_observable(case_idx in 0usize..16) {
        let q = QUERIES[case_idx % QUERIES.len()];
        let parsed = threatraptor::tbql::parse_tbql(q).unwrap();
        // First half: event-pattern form (relational backend); second
        // half: length-1 path form (graph backend).
        let text = if case_idx < QUERIES.len() {
            print_query(&parsed)
        } else {
            print_query(&to_length1_path_query(&parsed))
        };
        assert_thread_count_invisible(&text);
    }
}

/// A query of two dependency chains (which the engine runs one after the
/// other at every thread count), one of which short-circuits while the
/// other still runs — the short-circuit path must be just as thread-count
/// invariant as the happy path.
#[test]
fn short_circuit_is_thread_count_invariant() {
    let q = "proc p[\"%/bin/nonexistent%\"] read file f as e1 \
             proc p write file f2 as e2 \
             proc q connect ip i as e3 return p, f";
    assert_thread_count_invisible(q);
    FIXTURE.with(|fx| {
        let e = fx.bulk.borrow();
        let (table, stats) = e.execute_text(q, ExecMode::Scheduled).unwrap();
        assert!(table.rows.is_empty());
        assert!(stats.short_circuited);
    });
}

/// The read path is `Sync` by construction — the whole point of replacing
/// interior mutability (`Cell`) with atomics. A compile-time pin.
#[test]
fn stores_and_engine_are_sync() {
    fn is_sync<T: Sync>() {}
    is_sync::<threatraptor::relstore::Database>();
    is_sync::<threatraptor::graphstore::Graph>();
    is_sync::<Engine>();
}
