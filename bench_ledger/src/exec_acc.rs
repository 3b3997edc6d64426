//! The read path's layer metrics, read from public return values only:
//! `EngineStats.queries[*].{backend, kind, wall_ns, delta}` per executed
//! query. Shared by the hunt and query workloads.

use threatraptor::engine::exec::{EngineStats, QueryKind};
use threatraptor::engine::{Engine, ExecMode, ResultTable};
use threatraptor::tbql::AnalyzedQuery;

use crate::harness::{round_us, Outcome};
use crate::trace::Tracer;

/// `Engine::execute` taken apart at its public seam: the typed batch, then
/// the render at the edge. Returns the table, the stats and execute's wall.
pub fn execute_and_render(
    t: &Tracer,
    engine: &Engine,
    aq: &AnalyzedQuery,
) -> Result<(ResultTable, EngineStats, u64), String> {
    let (r, exec_ns) =
        t.span_timed("engine.exec.execute", || engine.execute_batch(aq, ExecMode::Scheduled));
    let (batch, mut stats) = r.map_err(|e| e.to_string())?;
    let table =
        t.span("engine.exec.render", || ResultTable::from_batch_counted(&batch, &mut stats));
    Ok((table, stats, exec_ns))
}

/// Time samples from every traced op; counts from the first round only, so
/// they repeat exactly however many rounds the time budget allowed.
#[derive(Default)]
pub struct ExecAcc {
    exec_self_ns: Vec<u64>,
    rel_busy_ns: Vec<u64>,
    rel_seed_ns: Vec<u64>,
    rel_pattern_ns: Vec<u64>,
    graph_busy_ns: Vec<u64>,
    counted_ops: u64,
    data_queries: u64,
    seed_queries: u64,
    work_items: u64,
    rows_out: u64,
    short_circuited: u64,
    strings: u64,
    rel_scanned: u64,
    index_scans: u64,
    full_scans: u64,
    seg_pruned: u64,
    seg_scanned: u64,
    edges: u64,
    graph_rows: u64,
}

impl ExecAcc {
    /// Adds one executed op. `exec_ns` is the wall of its execute call;
    /// `count` says whether the op belongs to the counted first round.
    pub fn add(&mut self, exec_ns: u64, stats: &EngineStats, rows_out: usize, count: bool) {
        let (mut rel, mut rel_seed, mut rel_pattern, mut graph) = (0u64, 0u64, 0u64, 0u64);
        for q in &stats.queries {
            if q.backend == "relational" {
                rel += q.wall_ns;
                match q.kind {
                    QueryKind::Seed => rel_seed += q.wall_ns,
                    _ => rel_pattern += q.wall_ns,
                }
            } else {
                graph += q.wall_ns;
            }
        }
        // Chains may run on two workers, so busy time can exceed the wall.
        self.exec_self_ns.push(exec_ns.saturating_sub(rel + graph));
        self.rel_busy_ns.push(rel);
        self.rel_seed_ns.push(rel_seed);
        self.rel_pattern_ns.push(rel_pattern);
        self.graph_busy_ns.push(graph);
        if !count {
            return;
        }
        self.counted_ops += 1;
        self.data_queries += stats.data_queries as u64;
        self.rows_out += rows_out as u64;
        self.short_circuited += stats.short_circuited as u64;
        self.strings += stats.strings_materialized as u64;
        let b = &stats.backend;
        self.work_items += (b.items_scanned + b.items_built + b.edges_traversed) as u64;
        for q in &stats.queries {
            self.seed_queries += (q.kind == QueryKind::Seed) as u64;
            if q.backend == "relational" {
                self.rel_scanned += q.delta.items_scanned as u64;
                self.index_scans += q.delta.index_scans as u64;
                self.full_scans += q.delta.full_scans as u64;
                self.seg_pruned += q.delta.segments_pruned as u64;
                self.seg_scanned += q.delta.segments_scanned as u64;
            } else {
                self.edges += q.delta.edges_traversed as u64;
                self.graph_rows += q.rows.unwrap_or(0) as u64;
            }
        }
    }

    /// Sets the metrics; times are [`round_us`] over rounds of `per_round`.
    pub fn emit(&self, out: &mut Outcome, per_round: usize) {
        let us = |v: &[u64]| round_us(v, per_round);
        let per_op = |v: u64| v as f64 / self.counted_ops.max(1) as f64;
        let share = |a: u64, b: u64| if a + b == 0 { 0.0 } else { a as f64 / (a + b) as f64 };
        out.set("engine.exec.self_us", us(&self.exec_self_ns));
        out.set("engine.exec.data_queries", per_op(self.data_queries));
        out.set("engine.exec.seed_queries", per_op(self.seed_queries));
        out.set("engine.exec.work_items", per_op(self.work_items));
        out.set("engine.exec.rows_out", per_op(self.rows_out));
        out.set("engine.exec.short_circuit_ratio", per_op(self.short_circuited));
        out.set("engine.exec.strings_materialized", per_op(self.strings));
        out.set("relstore.read_busy_us", us(&self.rel_busy_ns));
        out.set("relstore.seed_busy_us", us(&self.rel_seed_ns));
        out.set("relstore.pattern_busy_us", us(&self.rel_pattern_ns));
        out.set("relstore.items_scanned", per_op(self.rel_scanned));
        out.set("relstore.index_scan_ratio", share(self.index_scans, self.full_scans));
        out.set("relstore.segments_pruned_ratio", share(self.seg_pruned, self.seg_scanned));
        out.set("graphstore.read_busy_us", us(&self.graph_busy_ns));
        out.set("graphstore.edges_traversed", per_op(self.edges));
        out.set("graphstore.rows_out", per_op(self.graph_rows));
    }
}
