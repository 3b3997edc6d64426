//! Delta-incremental path matching ↔ batch equivalence.
//!
//! Pins the frontier-driven standing-query path plane to the batch
//! semantics, and the path cardinality catalog to the write seam:
//!
//! 1. **Delta concatenation** — for ANY epoch size, ANY (shuffled)
//!    delivery order, thread counts {1, 4} and segment capacities
//!    {7, 4096}, the per-epoch path deltas of a standing var-length path
//!    query concatenate byte-identically to a one-shot batch
//!    `ExecMode::Scheduled` re-evaluation over the same rows — and the
//!    streamed engine's own batch execution agrees with the bulk-loaded
//!    engine's, and with the giant-Cypher baseline's rows under
//!    `return distinct`.
//! 2. **Catalog equivalence** — the path cardinality catalog is
//!    maintained below the write seam, so a streamed (chunked, shuffled)
//!    ingest and a bulk load build identical catalogs by construction.

use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use threatraptor::audit::sim::Simulator;
use threatraptor::audit::{LogParser, SystemEvent};
use threatraptor::common::time::Timestamp;
use threatraptor::engine::exec::ExecMode;
use threatraptor::engine::load::load;
use threatraptor::engine::{Engine, ResultTable};
use threatraptor::stream::StreamSession;

/// Var-length path patterns (no single-hop envelope), so every one of
/// them exercises the delta-incremental frontier rather than the
/// event-delta fast path.
const PATH_QUERIES: &[&str] = &[
    "proc p ~>(1~3)[read] file f as e1 return p, f",
    "proc p ~>(2~4)[write] file f as e1 return p, f",
    "proc p ~>(1~2) file f as e1 return p, f",
    "proc p ~>(1~4) proc q as e1 return p, q",
];

fn shuffled(events: &[SystemEvent], seed: u64) -> Vec<SystemEvent> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out: Vec<SystemEvent> = events.to_vec();
    for i in (1..out.len()).rev() {
        let j = rng.gen_range(0..(i + 1));
        out.swap(i, j);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Property: any epoch size × any delivery order × threads {1,4} ×
    /// segment capacities {7,4096} — path deltas concatenate to the batch
    /// result, and the streamed catalog equals the bulk catalog.
    #[test]
    fn shuffled_path_deltas_concatenate_to_batch(
        epoch_size in 1usize..300,
        seed in 0u64..1_000_000,
        threads_idx in 0usize..2,
        seg_idx in 0usize..2,
    ) {
        let threads = [1usize, 4][threads_idx];
        let seg_rows = [7usize, 4096][seg_idx];
        let spec = raptor_cases::catalog::case_by_id("data_leak").unwrap();
        let built = raptor_cases::build_case(spec, 0.2, 99);

        let mut session = StreamSession::new().unwrap();
        session.set_threads(threads);
        session.set_segment_rows(seg_rows);
        let qids: Vec<_> = PATH_QUERIES
            .iter()
            .enumerate()
            .map(|(i, q)| session.register(&format!("path{i}"), q).unwrap())
            .collect();

        let mut delta_rows: Vec<Vec<Vec<String>>> = vec![Vec::new(); PATH_QUERIES.len()];
        let events = shuffled(&built.log.events, seed);
        for chunk in events.chunks(epoch_size) {
            let report = session.ingest_chunk(&built.log, chunk).unwrap();
            for d in &report.deltas {
                prop_assert_eq!(d.stats.text_parses, 0, "delta evaluation parsed text");
                delta_rows[d.id.0].extend(ResultTable::from_batch(&d.delta).rows);
            }
        }
        let tail = session.flush_entities(&built.log).unwrap();
        for d in &tail.deltas {
            delta_rows[d.id.0].extend(ResultTable::from_batch(&d.delta).rows);
        }

        let bulk = Engine::new(load(&built.log).unwrap());
        let streamed = session.engine();
        for (i, q) in PATH_QUERIES.iter().enumerate() {
            let (expect, _) = bulk.execute_text(q, ExecMode::Scheduled).unwrap();
            let got = ResultTable::from_batch(&session.query(qids[i]).cumulative_batch());
            prop_assert_eq!(got.sorted_rows(), expect.sorted_rows(), "cumulative result for {}", q);
            delta_rows[i].sort();
            prop_assert_eq!(&delta_rows[i], &expect.sorted_rows(), "concatenated deltas for {}", q);
            let (sb, _) = streamed.execute_text(q, ExecMode::Scheduled).unwrap();
            prop_assert_eq!(sb.sorted_rows(), expect.sorted_rows(), "streamed batch for {}", q);
            // The text frontend enumerates walks, one row each; under
            // DISTINCT that is the typed matcher's answer.
            let distinct = q.replace("return", "return distinct");
            let (typed, _) = bulk.execute_text(&distinct, ExecMode::Scheduled).unwrap();
            let (text, _) = bulk.execute_text(&distinct, ExecMode::GiantCypher).unwrap();
            prop_assert_eq!(text.sorted_rows(), typed.sorted_rows(), "giant Cypher for {}", distinct);
        }

        // Bulk vs stream build the catalog through different call paths
        // (load seam vs epoch ingest) yet must agree by construction.
        // Dictionaries differ across engines, so compare the canonical
        // (string-resolved) view — of the catalog alone: delivery is
        // shuffled here, and histogram buckets depend on arrival order.
        prop_assert_eq!(
            streamed.stores.rel.store_stats().catalog().canonical(&streamed.stores.dict),
            bulk.stores.rel.store_stats().catalog().canonical(&bulk.stores.dict),
            "catalog diverged between stream and bulk"
        );
    }
}

/// A standing path selects its endpoints with the graph store's filter
/// alone (a frontier takes no seeded ids), so that filter has to be the
/// relational store's `LIKE`, wildcard for wildcard. The graph used to
/// approximate a pattern with an interior `%` by CONTAINS on its longest
/// literal run — here `/python`, which the decoy `/opt/python` satisfies —
/// and to read `_` as a literal underscore.
#[test]
fn standing_path_filters_are_exact_like() {
    let mut sim = Simulator::new(3, Timestamp::from_secs(100));
    let shell = sim.boot_process("/bin/bash", "root");
    for exe in ["/usr/bin/python", "/opt/python"] {
        let p = sim.spawn(shell, exe, "python exfil.py");
        sim.write_file(p, "/tmp/upload.tar", 4096, 1);
        let fd = sim.connect(p, "192.168.29.128", 443);
        sim.send(p, fd, 1024, 1);
    }
    let log = LogParser::parse(&sim.finish());

    let queries = [
        (r#"proc p["%/usr/%/python%"] ~>(1~3) ip i return distinct p, i"#, 1),
        (r#"proc p ~>(1~2) file f["%up_oad%"] return distinct p, f"#, 3),
    ];
    let mut session = StreamSession::new().unwrap();
    let qids: Vec<_> = (queries.iter().enumerate())
        .map(|(i, (q, _))| session.register(&format!("like{i}"), q).unwrap())
        .collect();
    let mut delta_rows: Vec<Vec<Vec<String>>> = vec![Vec::new(); queries.len()];
    for chunk in log.events.chunks(2) {
        for d in &session.ingest_chunk(&log, chunk).unwrap().deltas {
            delta_rows[d.id.0].extend(ResultTable::from_batch(&d.delta).rows);
        }
    }
    let bulk = Engine::new(load(&log).unwrap());
    for (i, (q, rows)) in queries.iter().enumerate() {
        let (expect, _) = bulk.execute_text(q, ExecMode::Scheduled).unwrap();
        assert_eq!(expect.rows.len(), *rows, "{q}: {:?}", expect.rows);
        delta_rows[i].sort();
        assert_eq!(delta_rows[i], expect.sorted_rows(), "concatenated deltas for {q}");
        let got = ResultTable::from_batch(&session.query(qids[i]).cumulative_batch());
        assert_eq!(got.sorted_rows(), expect.sorted_rows(), "cumulative result for {q}");
    }
}
