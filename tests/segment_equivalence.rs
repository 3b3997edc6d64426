//! Columnar-plane determinism: segment capacity is never observable.
//!
//! The columnar storage plane (typed segment vectors, per-segment zone
//! maps, selection-vector predicate kernels) partitions every table into
//! fixed-capacity row segments. Capacity is a purely physical knob — it
//! moves segment boundaries and changes which zone maps exist and which
//! segments prune — but it must never change a query result. This suite
//! pins that contract over the shared 8-query corpus:
//!
//! * segment capacities {1, 7, 4096} — one row per segment (every zone map
//!   degenerate), a prime that misaligns with every batch size, and the
//!   production default where small tables are a single segment,
//! * both backend forms — event-pattern (relational, the columnar store
//!   under test) and length-1 path (graph, which must simply ignore the
//!   knob),
//! * both store builds — bulk-loaded and stream-grown epoch-by-epoch,
//!   since segments fill incrementally on the streaming write path.

use std::cell::RefCell;

use proptest::prelude::*;
use threatraptor::engine::exec::{to_length1_path_query, ExecMode};
use threatraptor::engine::load::load;
use threatraptor::engine::Engine;
use threatraptor::stream::{EpochPolicy, EpochStream, StreamSession};
use threatraptor::tbql::print::print_query;

const QUERIES: &[&str] = threatraptor::tbql::parser::EQUIV_CORPUS;
const CAPACITIES: &[usize] = &[1, 7, 4096];

struct Fixture {
    bulk: RefCell<Engine>,
    streamed: RefCell<StreamSession>,
}

thread_local! {
    /// Built once per test thread — the properties only repartition and
    /// read the stores.
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

fn run(engine: &Engine, tbql: &str) -> Vec<Vec<String>> {
    let (table, _) = engine.execute_text(tbql, ExecMode::Scheduled).unwrap();
    table.sorted_rows()
}

/// Executes `tbql` on both store builds at every capacity and asserts
/// byte-identical `sorted_rows()` against the default-capacity reference.
fn assert_segment_capacity_invisible(tbql: &str) {
    FIXTURE.with(|fx| {
        let bulk_at = |cap: usize| {
            let mut e = fx.bulk.borrow_mut();
            e.set_segment_rows(cap);
            run(&e, tbql)
        };
        let streamed_at = |cap: usize| {
            let mut s = fx.streamed.borrow_mut();
            s.set_segment_rows(cap);
            run(s.engine(), tbql)
        };
        let (bulk_ref, streamed_ref) = (bulk_at(4096), streamed_at(4096));
        for &cap in CAPACITIES {
            assert_eq!(bulk_at(cap), bulk_ref, "bulk store diverged at capacity {cap} for: {tbql}");
            assert_eq!(
                streamed_at(cap),
                streamed_ref,
                "streamed store diverged at capacity {cap} for: {tbql}"
            );
        }
        // Leave the shared fixture at production defaults for other cases.
        fx.bulk.borrow_mut().set_segment_rows(4096);
        fx.streamed.borrow_mut().set_segment_rows(4096);
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any corpus query, either backend form: identical `sorted_rows()` at
    /// every segment capacity, on both store builds.
    #[test]
    fn segment_capacity_is_never_observable(case_idx in 0usize..16) {
        let q = QUERIES[case_idx % QUERIES.len()];
        let parsed = threatraptor::tbql::parse_tbql(q).unwrap();
        // First half: event-pattern form (relational backend); second
        // half: length-1 path form (graph backend).
        let text = if case_idx < QUERIES.len() {
            print_query(&parsed)
        } else {
            print_query(&to_length1_path_query(&parsed))
        };
        assert_segment_capacity_invisible(&text);
    }
}

/// Giant-SQL execution exercises the vectorized scan and columnar
/// projection paths that the scheduled planner's index lookups bypass —
/// pin those against capacity too.
#[test]
fn giant_sql_is_capacity_invariant() {
    FIXTURE.with(|fx| {
        for &q in QUERIES {
            let reference = {
                let mut e = fx.bulk.borrow_mut();
                e.set_segment_rows(4096);
                let (t, _) = e.execute_text(q, ExecMode::GiantSql).unwrap();
                t.sorted_rows()
            };
            for &cap in CAPACITIES {
                let mut e = fx.bulk.borrow_mut();
                e.set_segment_rows(cap);
                let (t, _) = e.execute_text(q, ExecMode::GiantSql).unwrap();
                assert_eq!(
                    t.sorted_rows(),
                    reference,
                    "giant SQL diverged at capacity {cap} for: {q}"
                );
            }
        }
        fx.bulk.borrow_mut().set_segment_rows(4096);
    });
}
