//! `bench_ledger`: the repo's benchmark.
//!
//! Five closed-loop, one-client workloads over the paper's whole loops,
//! measured from outside only: end-to-end runs call the facade in one call
//! per op; the traced run re-issues the same work as the sequence of public
//! layer functions, each inside a benchmark-owned span, and reads counts
//! from public return values. See `README.md` for the layer table.

pub mod calib;
pub mod exec_acc;
pub mod harness;
pub mod hunt_catalog;
pub mod ingest_bulk;
pub mod inputs;
pub mod query;
pub mod stats;
pub mod stream_detect;
pub mod timed_fs;
pub mod trace;

use std::path::PathBuf;

use harness::{Outcome, RunCfg};

pub const WORKLOADS: [&str; 5] =
    ["ingest-bulk", "hunt-catalog", "query-events", "query-paths", "stream-detect"];

/// End-to-end metrics, printed by an untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("op_tail_us", "us"),
    ("ok_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by a traced run: `(name, unit)`. A layer a
/// workload does not exercise reads 0 there. Times are span self times per
/// op: the mean within a round (rounds hold the same mix of ops), then the
/// median across rounds; on `stream-detect` the median over epochs. Raw, not
/// speed-normalised. Counts are per-op (per-session) means over the first
/// traced round, so they repeat exactly for a seed.
pub const PER_LAYER: [(&str, &str); 76] = [
    ("audit.codec.decode_us", "us"),
    ("audit.codec.bytes_per_record", "B/record"),
    ("audit.parser.parse_us", "us"),
    ("audit.parser.events_out", "count"),
    ("audit.reduce.merge_us", "us"),
    ("audit.reduce.factor", "ratio"),
    ("engine.load.load_us", "us"),
    ("engine.load.ns_per_row", "ns/row"),
    ("engine.load.self_share", "ratio"),
    ("relstore.insert_ns_per_row", "ns/row"),
    ("graphstore.insert_ns_per_row", "ns/row"),
    ("common.intern.symbols", "count"),
    ("common.intern.intern_ns_per_str", "ns/str"),
    ("nlp.parse_us", "us"),
    ("extract.extract_us", "us"),
    ("extract.text_to_er_us", "us"),
    ("extract.er_to_graph_us", "us"),
    ("extract.triples_out", "count"),
    ("core.synthesis.synthesize_us", "us"),
    ("core.synthesis.patterns_out", "count"),
    ("tbql.print_us", "us"),
    ("tbql.parse_us", "us"),
    ("tbql.analyze_us", "us"),
    ("engine.exec.execute_us", "us"),
    ("engine.exec.self_us", "us"),
    ("engine.plan.explain_us", "us"),
    ("engine.exec.render_us", "us"),
    ("engine.exec.data_queries", "count"),
    ("engine.exec.seed_queries", "count"),
    ("engine.exec.work_items", "count"),
    ("engine.exec.rows_out", "count"),
    ("engine.exec.short_circuit_ratio", "ratio"),
    ("engine.exec.strings_materialized", "count"),
    ("relstore.read_busy_us", "us"),
    ("relstore.seed_busy_us", "us"),
    ("relstore.pattern_busy_us", "us"),
    ("relstore.items_scanned", "count"),
    ("relstore.index_scan_ratio", "ratio"),
    ("relstore.segments_pruned_ratio", "ratio"),
    ("relstore.giant_sql_us", "us"),
    ("graphstore.read_busy_us", "us"),
    ("graphstore.edges_traversed", "count"),
    ("graphstore.rows_out", "count"),
    ("graphstore.giant_cypher_us", "us"),
    ("graphstore.giant_cypher_rows", "count"),
    ("stream.session.epoch_us", "us"),
    ("stream.session.ingest_only_us", "us"),
    ("engine.standing.advance_us", "us"),
    ("engine.standing.backend_busy_us", "us"),
    ("engine.standing.data_queries_per_epoch", "count"),
    ("engine.standing.delta_rows", "count"),
    ("engine.standing.frontier_hit_ratio", "ratio"),
    ("engine.standing.epoch_us_first_decile", "us"),
    ("engine.standing.epoch_us_last_decile", "us"),
    ("engine.wal.bytes_per_event", "B/event"),
    ("engine.wal.records", "count"),
    ("common.io.append_us", "us"),
    ("common.io.sync_count", "count"),
    ("common.io.sync_us_p50", "us"),
    ("common.io.sync_us_p99", "us"),
    ("engine.checkpoint.count", "count"),
    ("engine.checkpoint.bytes_last", "B"),
    ("engine.checkpoint.stall_us_p50", "us"),
    ("engine.checkpoint.stall_us_max", "us"),
    ("common.io.replace_us", "us"),
    ("stream.durable.recover_us", "us"),
    ("stream.durable.recover_ns_per_row", "ns/row"),
    ("stream.durable.checkpoint_rows", "count"),
    ("stream.durable.wal_records_replayed", "count"),
    ("recover_s", "s"),
    ("disk_bytes_per_event", "B/event"),
    ("hunt_f1", "ratio"),
    ("extract_f1", "ratio"),
    ("bench.unattributed_share", "ratio"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.ops", "count"),
];

/// Runs one workload once.
pub fn run_workload(name: &str, cfg: &RunCfg) -> Option<Outcome> {
    Some(match name {
        "ingest-bulk" => ingest_bulk::run(cfg),
        "hunt-catalog" => hunt_catalog::run(cfg),
        "query-events" => query::run(cfg, &query::events_spec()),
        "query-paths" => query::run(cfg, &query::paths_spec()),
        "stream-detect" => stream_detect::run(cfg),
        _ => return None,
    })
}

/// Where traces and the `stream-detect` directory go: under this package's
/// own `target/`, wherever the build itself was put.
pub fn output_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target").join("bench_ledger")
}

/// Writes a traced run's spans as `trace-<workload>.json`.
pub fn write_trace(tracer: &trace::Tracer, workload: &str) {
    let path = output_dir().join(format!("trace-{workload}.json"));
    if let Err(e) = tracer.write_chrome(&path) {
        eprintln!("bench_ledger: cannot write {}: {e}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Mutex;

    use super::*;

    /// `BENCHMARK.json` names exactly what the binary prints.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        for (section, names) in [
            ("end_to_end", END_TO_END.to_vec()),
            ("per_layer", PER_LAYER.to_vec()),
            ("workloads", WORKLOADS.iter().map(|w| (*w, "")).collect()),
        ] {
            let start = json.find(&format!("\"{section}\"")).expect(section);
            let body = &json[start..start + json[start..].find(']').expect("section end")];
            assert_eq!(body.matches("\"name\"").count(), names.len(), "{section}");
            for (name, unit) in names {
                let entry = format!("\"name\": \"{name}\"");
                let at = body.find(&entry).unwrap_or_else(|| panic!("{section}: {name}"));
                if !unit.is_empty() {
                    let line = &body[at..at + body[at..].find('}').expect("entry end")];
                    assert!(line.contains(&format!("\"unit\": \"{unit}\"")), "{name}: {line}");
                }
            }
        }
    }

    fn check_cfg(trace: bool, corrupt: bool) -> RunCfg {
        RunCfg { seed: 5, seconds: 1.0, trace, check: true, corrupt }
    }

    /// `stream-detect` owns one directory, so the tests that run it take
    /// turns.
    static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

    /// At `--check` scale every workload's decomposed (traced) op sequence
    /// returns what the facade call returns: a run holds both to the same
    /// expected digests (and `stream-detect` its deltas to the batch
    /// answer), so no failure means they agree.
    #[test]
    fn decomposed_ops_agree_with_the_facade_on_every_workload() {
        let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
        for w in WORKLOADS {
            let out = run_workload(w, &check_cfg(true, false)).expect("known workload");
            assert_eq!(out.failed, 0, "{w}: {:?}", out.failures);
            assert!(out.attempted > 0 && !out.ops.is_empty(), "{w}");
            assert!(out.layer["bench.ops"] > 0.0, "{w}");
            assert!(output_dir().join(format!("trace-{w}.json")).exists(), "{w}");
        }
    }

    /// `--corrupt` flips one expected value (a learned digest, a reference
    /// size, or injects a failure): every workload must then count failures.
    #[test]
    fn a_corrupted_expectation_fails_the_run() {
        let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
        for w in WORKLOADS {
            let out = run_workload(w, &check_cfg(false, true)).expect("known workload");
            assert!(out.failed > 0, "{w}");
        }
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> =
            END_TO_END.iter().chain(PER_LAYER.iter()).map(|(n, _)| *n).collect();
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
