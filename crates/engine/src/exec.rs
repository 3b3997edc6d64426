//! Query execution.
//!
//! Three execution paths, matching the four query variants of Table VIII:
//!
//! * [`ExecMode::Scheduled`] — ThreatRaptor's plan: compile each pattern to
//!   a small *typed* data request, execute in pruning-score order with
//!   `IN`-filter propagation through the stores' typed entry points, then join
//!   per-pattern matches on `i64` entity ids, apply `with`-clause
//!   constraints, and project. (Variants (a) and (c): event patterns run on
//!   the relational store, length-1 path patterns on the graph store.) No
//!   SQL/Cypher text is built or parsed anywhere on this path — values stay
//!   typed in a [`ResultBatch`] until the final rendering.
//! * [`ExecMode::GiantSql`] — one giant compiled SQL statement (variant
//!   (b)), still going through the SQL parser on purpose: it is the
//!   baseline the paper measures against.
//! * [`ExecMode::GiantCypher`] — one giant compiled Cypher statement
//!   (variant (d)), ditto.
//!
//! All three return the same [`ResultTable`] for the same query — the
//! backend-equivalence integration tests assert it.

use raptor_common::error::{Error, Result};
use raptor_common::hash::{FxHashMap, FxHashSet};
use raptor_common::obs;
use raptor_common::time::Duration;
use raptor_graphstore::cypher::{exec as gexec, parse_cypher};
use raptor_storage::{AttrSource, BackendStats, PatternMatches, ResultBatch, Value as SVal};
use raptor_tbql::analyze::AnalyzedQuery;
use raptor_tbql::{analyze, parse_tbql, CmpOp, PatternOp, RelClause, TemporalOp};

use crate::compile::{
    class_for_type, entity_candidate_request, event_pattern_request, giant_cypher, giant_sql,
    path_pattern_request, CompileCtx, Propagation,
};
use crate::estimate::{estimate_event_pattern, estimate_path_pattern, PatternEstimate};
use crate::load::LoadedStores;
use crate::schedule::{dependency_chains, execution_order, pruning_score, SchedulerMode};

/// Execution strategy.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ExecMode {
    Scheduled,
    GiantSql,
    GiantCypher,
}

/// What one issued data query was (plan observability).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum QueryKind {
    /// Entity-candidate seeding lookup.
    Seed,
    EventPattern,
    PathPattern,
    /// A giant whole-query baseline statement.
    Giant,
}

/// One issued data query, in execution order.
#[derive(Clone, Debug)]
pub struct QueryInfo {
    /// `"relational"` or `"graph"`.
    pub backend: &'static str,
    pub kind: QueryKind,
    /// The pattern or entity this query served.
    pub label: String,
    /// Number of propagated `IN` id-lists attached to the request.
    pub in_lists: usize,
    /// The query text — only for paths that really go through a parser
    /// (the giant baselines).
    pub text: Option<String>,
    /// Rows (matches / candidates) this query returned.
    pub rows: Option<usize>,
    /// Wall time of the backend call, in nanoseconds. Timing only — never
    /// part of any determinism contract.
    pub wall_ns: u64,
    /// Backend counters attributable to this query alone (the difference of
    /// [`EngineStats::backend`] across the call): access path taken
    /// (`index_scans` / `full_scans`), rows scanned, segments
    /// scanned/pruned, edges traversed. `EXPLAIN ANALYZE` renders these.
    pub delta: BackendStats,
}

/// Engine-level execution statistics, unified across both backends.
#[derive(Clone, Debug, Default)]
pub struct EngineStats {
    /// Number of data queries issued.
    pub data_queries: usize,
    /// SQL/Cypher texts parsed on this execution. Zero in scheduled mode —
    /// asserted by tests; the giant baselines count here.
    pub text_parses: usize,
    /// Some executed pattern matched nothing: the overall result is empty
    /// and the pattern's *dependency chain* stopped early. Independent
    /// chains still complete, so what executes does not depend on where
    /// the chains sit in the order (see
    /// [`crate::schedule::dependency_chains`]).
    pub short_circuited: bool,
    /// Unified backend counters (scans, tuples/bindings, index usage).
    pub backend: BackendStats,
    /// The issued data queries, in execution order.
    pub queries: Vec<QueryInfo>,
    /// The scheduler that actually ordered this execution (`None` for the
    /// giant baseline modes and for caller-forced orders via
    /// [`Engine::execute_with_order`]). A `CostBased` request downgrades to
    /// `Syntactic` here when the stores carry no statistics.
    pub scheduler: Option<SchedulerMode>,
    /// Pattern execution order used (indices into the query's patterns).
    pub execution_order: Vec<usize>,
    /// Per-pattern cost-model records (estimated vs actual rows, syntactic
    /// score), index-aligned with the query's patterns. Estimated rows are
    /// populated exactly when the cost-based scheduler ran; actual rows for
    /// every pattern that executed — so Q-error is observable per query.
    pub estimates: Vec<PatternEstimate>,
    /// Heap `String`s materialized from interned symbols. Incremented in
    /// exactly one place — [`ResultTable::from_batch_counted`], the render
    /// edge — and equals rows × string-columns of the rendered result.
    /// Everything inside the scheduled/streaming paths operates on symbols,
    /// so the counter stays 0 until the edge (asserted by tests).
    pub strings_materialized: usize,
}

impl EngineStats {
    pub(crate) fn record(
        &mut self,
        backend: &'static str,
        kind: QueryKind,
        label: &str,
        in_lists: usize,
    ) {
        self.data_queries += 1;
        self.queries.push(QueryInfo {
            backend,
            kind,
            label: label.to_string(),
            in_lists,
            text: None,
            rows: None,
            wall_ns: 0,
            delta: BackendStats::default(),
        });
    }

    fn record_text(&mut self, backend: &'static str, kind: QueryKind, label: &str, text: String) {
        let in_lists = text.matches(".id IN").count();
        self.data_queries += 1;
        self.queries.push(QueryInfo {
            backend,
            kind,
            label: label.to_string(),
            in_lists,
            text: Some(text),
            rows: None,
            wall_ns: 0,
            delta: BackendStats::default(),
        });
    }

    /// Attaches the observability payload to the most recently recorded
    /// query: its row count, wall time, and the backend-counter delta it
    /// alone caused (`before` is the [`EngineStats::backend`] snapshot taken
    /// just before the call).
    pub(crate) fn finish_last(&mut self, rows: usize, before: BackendStats, wall_ns: u64) {
        if let Some(q) = self.queries.last_mut() {
            q.rows = Some(rows);
            q.wall_ns = wall_ns;
            q.delta = self.backend.delta_since(&before);
        }
    }
}

/// A query result rendered for display: projected column names and string
/// rows. Produced once, at the edge, from the typed [`ResultBatch`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ResultTable {
    pub columns: Vec<String>,
    pub rows: Vec<Vec<String>>,
}

impl ResultTable {
    /// Renders a typed batch, counting the materialized strings into
    /// `stats.strings_materialized` — the **only** site that increments it.
    pub fn from_batch_counted(batch: &ResultBatch, stats: &mut EngineStats) -> Self {
        stats.strings_materialized += batch.str_cells();
        ResultTable { columns: batch.columns.clone(), rows: batch.rendered_rows() }
    }

    /// Renders a typed batch (edge accounting discarded).
    pub fn from_batch(batch: &ResultBatch) -> Self {
        Self::from_batch_counted(batch, &mut EngineStats::default())
    }

    /// Rows as a sorted set (order-insensitive comparison in tests).
    pub fn sorted_rows(&self) -> Vec<Vec<String>> {
        let mut rows = self.rows.clone();
        rows.sort();
        rows
    }
}

/// One pattern match: subject/object entity ids plus (for patterns with a
/// final hop) the event id and its timestamps.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub(crate) struct Match {
    pub(crate) subj: i64,
    pub(crate) obj: i64,
    pub(crate) evt: i64,
    pub(crate) start: i64,
    pub(crate) end: i64,
}

/// Per-pattern cost records with only the syntactic scores filled in —
/// the starting point of [`Engine::plan_order`] and the whole record for
/// caller-forced orders.
fn base_estimates(aq: &AnalyzedQuery) -> Vec<PatternEstimate> {
    aq.patterns
        .iter()
        .map(|p| PatternEstimate {
            pattern: p.id.clone(),
            is_path: p.is_path(),
            estimated_rows: None,
            syntactic_score: pruning_score(aq, p),
            actual_rows: None,
        })
        .collect()
}

pub(crate) fn matches_to_rows(m: &PatternMatches) -> Vec<Match> {
    (0..m.len())
        .map(|i| Match {
            subj: m.subj[i],
            obj: m.obj[i],
            evt: m.evt[i],
            start: m.start[i],
            end: m.end[i],
        })
        .collect()
}

/// The query engine over a pair of loaded stores.
pub struct Engine {
    pub stores: LoadedStores,
    /// Hop cap for unbounded variable-length paths.
    pub max_hops: u32,
    /// Default scheduler for `ExecMode::Scheduled` executions (cost-based;
    /// see [`crate::schedule`]). Per-call overrides go through
    /// [`Engine::execute_scheduled_as`].
    pub scheduler: SchedulerMode,
}

impl Engine {
    pub fn new(stores: LoadedStores) -> Self {
        Engine { stores, max_hops: gexec::DEFAULT_MAX_HOPS, scheduler: SchedulerMode::default() }
    }

    /// Re-segments the relational store's columnar tables to `rows`-row
    /// segments (zone maps rebuild in one pass; results are byte-identical
    /// at every capacity). The graph store has no segments.
    pub fn set_segment_rows(&mut self, rows: usize) {
        self.stores.rel.set_segment_rows(rows);
    }

    /// Parses, analyzes and executes a TBQL query text.
    ///
    /// This is also the slow-query seam: when the query's wall time crosses
    /// the `RAPTOR_SLOW_QUERY_MS` threshold, its `EXPLAIN ANALYZE` tree is
    /// recorded into the global [`obs::slow_log`].
    pub fn execute_text(&self, tbql: &str, mode: ExecMode) -> Result<(ResultTable, EngineStats)> {
        let t0 = std::time::Instant::now();
        let aq = {
            let mut sp = obs::span("engine.compile");
            let q = parse_tbql(tbql)?;
            let aq = analyze(&q)?;
            sp.attr("patterns", aq.patterns.len() as u64);
            aq
        };
        let (table, stats) = self.execute(&aq, mode)?;
        let wall_ns = t0.elapsed().as_nanos() as u64;
        if obs::slow_log().threshold_ns().is_some_and(|thr| wall_ns >= thr) {
            let report = crate::explain::render_analyze(
                &aq,
                &stats,
                Some(wall_ns),
                table.rows.len(),
                crate::explain::Redact::Full,
            );
            obs::slow_log().record(tbql, wall_ns, &report);
        }
        Ok((table, stats))
    }

    /// Executes an analyzed query, rendering the result for display.
    pub fn execute(
        &self,
        aq: &AnalyzedQuery,
        mode: ExecMode,
    ) -> Result<(ResultTable, EngineStats)> {
        let (batch, mut stats) = self.execute_batch(aq, mode)?;
        let mut sp = obs::span("engine.render");
        let table = ResultTable::from_batch_counted(&batch, &mut stats);
        sp.attr("rows", table.rows.len() as u64);
        sp.attr("strings", stats.strings_materialized as u64);
        Ok((table, stats))
    }

    /// Executes an analyzed query, returning the typed result batch.
    pub fn execute_batch(
        &self,
        aq: &AnalyzedQuery,
        mode: ExecMode,
    ) -> Result<(ResultBatch, EngineStats)> {
        let mut sp = obs::span("engine.execute");
        sp.label(match mode {
            ExecMode::Scheduled => "scheduled",
            ExecMode::GiantSql => "giant_sql",
            ExecMode::GiantCypher => "giant_cypher",
        });
        let t0 = std::time::Instant::now();
        let r = match mode {
            ExecMode::Scheduled => self.run_scheduled(aq, self.scheduler, None),
            ExecMode::GiantSql => self.execute_giant_sql(aq),
            ExecMode::GiantCypher => self.execute_giant_cypher(aq),
        };
        if let Ok((batch, stats)) = &r {
            sp.attr("rows", batch.n_rows() as u64);
            let m = obs::metrics();
            m.counter_add("raptor_queries_total", 1);
            m.observe_ns("raptor_query_latency_ns", t0.elapsed().as_nanos() as u64);
            m.counter_add("raptor_data_queries_total", stats.data_queries as u64);
            m.counter_add("raptor_rows_scanned_total", stats.backend.items_scanned as u64);
            m.counter_add("raptor_result_rows_total", batch.n_rows() as u64);
        }
        r
    }

    pub(crate) fn ctx<'a>(&self, aq: &'a AnalyzedQuery) -> CompileCtx<'a> {
        CompileCtx { aq, now_ns: self.stores.now_ns, dict: self.stores.dict.clone() }
    }

    /// Runs a SQL text through the relational store's parser (giant/baseline
    /// paths only — the scheduled executor never calls this).
    fn query_sql_text(
        &self,
        sql: &str,
        stats: &mut EngineStats,
    ) -> Result<raptor_relstore::QueryResult> {
        stats.text_parses += 1;
        let r = self.stores.rel.query(sql)?;
        stats.backend.items_scanned += r.stats.rows_scanned;
        stats.backend.items_built += r.stats.tuples_built;
        stats.backend.index_scans += r.stats.index_scans;
        stats.backend.full_scans += r.stats.full_scans;
        stats.backend.segments_scanned += r.stats.segments_scanned;
        stats.backend.segments_pruned += r.stats.segments_pruned;
        stats.backend.text_parses += 1;
        stats.backend.data_queries += 1;
        Ok(r)
    }

    /// Runs a Cypher text through the graph store's parser (ditto).
    fn query_cypher_text(&self, cy: &str, stats: &mut EngineStats) -> Result<gexec::CypherResult> {
        stats.text_parses += 1;
        let parsed = parse_cypher(cy)?;
        let r = gexec::execute(&self.stores.graph, &parsed, self.max_hops)?;
        stats.backend.items_scanned += r.stats.nodes_scanned;
        stats.backend.items_built += r.stats.bindings_built;
        stats.backend.edges_traversed += r.stats.edges_traversed;
        stats.backend.text_parses += 1;
        stats.backend.data_queries += 1;
        Ok(r)
    }

    /// Executes each pattern's data query *independently* (no propagation,
    /// no cross-pattern join) and returns the matched event ids per pattern.
    /// This is the hunting-evaluation view: every pattern contributes its
    /// matches even when another pattern (e.g. an excessive synthesized one)
    /// matches nothing. Patterns without a final hop contribute no events.
    pub fn pattern_event_matches(&self, aq: &AnalyzedQuery) -> Result<Vec<(String, Vec<i64>)>> {
        let ctx = self.ctx(aq);
        let mut empty = Propagation::default();
        let mut stats = EngineStats::default();
        self.seed_entity_candidates(aq, &mut empty, &mut stats)?;
        let mut out = Vec::with_capacity(aq.patterns.len());
        for p in &aq.patterns {
            let m = if p.is_path() {
                let req = path_pattern_request(&ctx, p, &empty, self.max_hops)?;
                self.stores.graph.match_path_pattern(&req, &mut stats.backend)?
            } else {
                let req = event_pattern_request(&ctx, p, &empty)?;
                self.stores.rel.match_event_pattern(&req, &mut stats.backend)?
            };
            let mut ids: Vec<i64> = if m.has_event {
                m.evt.iter().copied().filter(|&e| e >= 0).collect()
            } else {
                Vec::new()
            };
            ids.sort_unstable();
            ids.dedup();
            out.push((p.id.clone(), ids));
        }
        Ok(out)
    }

    fn execute_giant_sql(&self, aq: &AnalyzedQuery) -> Result<(ResultBatch, EngineStats)> {
        let sql = giant_sql(&self.ctx(aq))?;
        let mut stats = EngineStats::default();
        let t0 = std::time::Instant::now();
        let r = self.query_sql_text(&sql, &mut stats)?;
        stats.record_text("relational", QueryKind::Giant, "giant_sql", sql);
        stats.finish_last(r.n_rows(), BackendStats::default(), t0.elapsed().as_nanos() as u64);
        // Shared plane: the store's result columns already *are* engine
        // value columns — the batch wraps them without touching a row.
        Ok((ResultBatch::new(r.columns, r.cols, self.stores.dict.clone()), stats))
    }

    fn execute_giant_cypher(&self, aq: &AnalyzedQuery) -> Result<(ResultBatch, EngineStats)> {
        let cy = giant_cypher(&self.ctx(aq))?;
        let mut stats = EngineStats::default();
        let t0 = std::time::Instant::now();
        let r = self.query_cypher_text(&cy, &mut stats)?;
        stats.record_text("graph", QueryKind::Giant, "giant_cypher", cy);
        stats.finish_last(r.rows.len(), BackendStats::default(), t0.elapsed().as_nanos() as u64);
        Ok((ResultBatch::from_rows(r.columns, r.rows, self.stores.dict.clone()), stats))
    }

    /// Seeds the propagation table by resolving every filtered entity to its
    /// candidate ids with one small indexed query per entity — the "parts"
    /// with the highest pruning power always execute first.
    pub(crate) fn seed_entity_candidates(
        &self,
        aq: &AnalyzedQuery,
        prop: &mut Propagation,
        stats: &mut EngineStats,
    ) -> Result<()> {
        for id in &aq.entity_order {
            let e = &aq.entities[id];
            let Some(filter) = &e.filter else { continue };
            let mut sp = obs::span("engine.seed");
            sp.label(id);
            let before = stats.backend;
            let t0 = std::time::Instant::now();
            let (class, pred) = entity_candidate_request(e.ty, filter, &self.stores.dict);
            let ids = self.stores.rel.entity_candidates(class, &pred, &mut stats.backend)?;
            stats.record("relational", QueryKind::Seed, id, 0);
            stats.finish_last(ids.len(), before, t0.elapsed().as_nanos() as u64);
            sp.attr("candidates", ids.len() as u64);
            prop.set(id.clone(), ids);
        }
        Ok(())
    }

    /// Runs one pattern's data query, recording an `engine.pattern` span and the query's observability payload
    /// (rows, wall time, backend-counter delta) into the last `QueryInfo`.
    fn match_pattern(
        &self,
        ctx: &CompileCtx<'_>,
        p: &raptor_tbql::analyze::APattern,
        prop: &Propagation,
        stats: &mut EngineStats,
    ) -> Result<Vec<Match>> {
        let mut sp = obs::span("engine.pattern");
        sp.label(&p.id);
        let before = stats.backend;
        let t0 = std::time::Instant::now();
        let rows = self.match_pattern_inner(ctx, p, prop, stats)?;
        stats.finish_last(rows.len(), before, t0.elapsed().as_nanos() as u64);
        if let Some(q) = stats.queries.last() {
            sp.attr("rows", rows.len() as u64);
            sp.attr("in_lists", q.in_lists as u64);
            sp.attr("scanned", q.delta.items_scanned as u64);
            sp.attr("pruned", q.delta.segments_pruned as u64);
        }
        Ok(rows)
    }

    fn match_pattern_inner(
        &self,
        ctx: &CompileCtx<'_>,
        p: &raptor_tbql::analyze::APattern,
        prop: &Propagation,
        stats: &mut EngineStats,
    ) -> Result<Vec<Match>> {
        if p.is_path() {
            let req = path_pattern_request(ctx, p, prop, self.max_hops)?;
            let in_lists =
                req.subject.id_in.is_some() as usize + req.object.id_in.is_some() as usize;
            let m = self.stores.graph.match_path_pattern(&req, &mut stats.backend)?;
            stats.record("graph", QueryKind::PathPattern, &p.id, in_lists);
            Ok(matches_to_rows(&m))
        } else {
            let req = event_pattern_request(ctx, p, prop)?;
            let in_lists =
                req.subject.id_in.is_some() as usize + req.object.id_in.is_some() as usize;
            let m = self.stores.rel.match_event_pattern(&req, &mut stats.backend)?;
            stats.record("relational", QueryKind::EventPattern, &p.id, in_lists);
            Ok(matches_to_rows(&m))
        }
    }

    /// Computes the pattern execution order and the per-pattern cost
    /// records. Runs *after* entity-candidate seeding, so cost estimates
    /// see the exact seeded candidate counts (execution-result-constrained
    /// ordering); the syntactic score is the fallback whenever the stores
    /// carry no statistics or the engine is pinned to `Syntactic`.
    pub(crate) fn plan_order(
        &self,
        ctx: &CompileCtx<'_>,
        aq: &AnalyzedQuery,
        prop: &Propagation,
        mode: SchedulerMode,
    ) -> Result<(Vec<usize>, Vec<PatternEstimate>, SchedulerMode)> {
        let mut sp = obs::span("engine.plan");
        sp.attr("patterns", aq.patterns.len() as u64);
        let mut estimates = base_estimates(aq);
        // One statistics copy, the relational store's, serves event and
        // path estimates alike.
        let store_stats = self.stores.rel.store_stats();
        let stats_ready = store_stats.table("events").is_some_and(|t| t.rows() > 0);
        let used = if mode == SchedulerMode::CostBased && stats_ready {
            SchedulerMode::CostBased
        } else {
            SchedulerMode::Syntactic
        };
        let order = match used {
            SchedulerMode::CostBased => {
                let mut base = Vec::with_capacity(aq.patterns.len());
                let mut sides: Vec<[(String, f64); 2]> = Vec::with_capacity(aq.patterns.len());
                for p in &aq.patterns {
                    let class_rows = |v: &str| -> f64 {
                        let rows = aq
                            .entities
                            .get(v)
                            .map(|e| class_for_type(e.ty))
                            .and_then(|c| store_stats.table(c.table_name()))
                            .map_or(0, |t| t.rows());
                        rows.max(1) as f64
                    };
                    let est = if p.is_path() {
                        let req = path_pattern_request(ctx, p, prop, self.max_hops)?;
                        estimate_path_pattern(&req, store_stats)
                    } else {
                        let req = event_pattern_request(ctx, p, prop)?;
                        estimate_event_pattern(&req, store_stats)
                    };
                    base.push(est);
                    sides.push([
                        (p.subject.clone(), class_rows(&p.subject)),
                        (p.object.clone(), class_rows(&p.object)),
                    ]);
                }
                // Join-aware greedy ordering: repeatedly pick the cheapest
                // remaining pattern, then *condition* every unpicked
                // pattern sharing one of its variables — an executed
                // pattern bounds the shared variable's distinct candidates
                // by its own output, shrinking the partner's effective
                // entity fraction exactly like `IN`-propagation will at run
                // time. Conditioned estimates are what Q-error measures.
                let mut bound: FxHashMap<&str, f64> = FxHashMap::default();
                let conditioned = |i: usize, bound: &FxHashMap<&str, f64>| -> f64 {
                    let mut est = base[i];
                    let [(sv, sr), (ov, or)] = &sides[i];
                    if let Some(b) = bound.get(sv.as_str()) {
                        est *= (b / sr).min(1.0);
                    }
                    // A self-loop pattern's one variable conditions once.
                    if ov != sv {
                        if let Some(b) = bound.get(ov.as_str()) {
                            est *= (b / or).min(1.0);
                        }
                    }
                    est
                };
                let mut remaining: Vec<usize> = (0..aq.patterns.len()).collect();
                let mut order = Vec::with_capacity(remaining.len());
                while !remaining.is_empty() {
                    let (pos, _) = remaining
                        .iter()
                        .enumerate()
                        .min_by(|&(_, &a), &(_, &b)| {
                            let (pa, pb) = (&aq.patterns[a], &aq.patterns[b]);
                            conditioned(a, &bound)
                                .total_cmp(&conditioned(b, &bound))
                                .then(pruning_score(aq, pb).cmp(&pruning_score(aq, pa)))
                                .then(pa.is_path().cmp(&pb.is_path()))
                                .then(a.cmp(&b))
                        })
                        .expect("non-empty");
                    let i = remaining.swap_remove(pos);
                    let est = conditioned(i, &bound);
                    estimates[i].estimated_rows = Some(est);
                    for (v, _) in &sides[i] {
                        let b = bound.entry(v.as_str()).or_insert(f64::INFINITY);
                        *b = b.min(est);
                    }
                    order.push(i);
                }
                order
            }
            SchedulerMode::Syntactic => execution_order(aq),
        };
        sp.label(match used {
            SchedulerMode::CostBased => "cost_based",
            SchedulerMode::Syntactic => "syntactic",
        });
        Ok((order, estimates, used))
    }

    /// Scheduled execution under an explicit scheduler mode (benchmarks and
    /// ablations compare modes on an engine they cannot mutate).
    pub fn execute_scheduled_as(
        &self,
        aq: &AnalyzedQuery,
        mode: SchedulerMode,
    ) -> Result<(ResultTable, EngineStats)> {
        let (batch, mut stats) = self.run_scheduled(aq, mode, None)?;
        let table = ResultTable::from_batch_counted(&batch, &mut stats);
        Ok((table, stats))
    }

    /// Scheduled execution with a caller-forced pattern execution order
    /// (must be a permutation of the pattern indices). Exists so the
    /// order-invariance property — any order yields identical results — is
    /// testable from outside the crate.
    pub fn execute_with_order(
        &self,
        aq: &AnalyzedQuery,
        order: &[usize],
    ) -> Result<(ResultTable, EngineStats)> {
        let mut seen = vec![false; aq.patterns.len()];
        if order.len() != aq.patterns.len()
            || !order.iter().all(|&i| i < seen.len() && !std::mem::replace(&mut seen[i], true))
        {
            return Err(Error::semantic(format!(
                "execution order {order:?} is not a permutation of 0..{}",
                aq.patterns.len()
            )));
        }
        let (batch, mut stats) = self.run_scheduled(aq, self.scheduler, Some(order))?;
        let table = ResultTable::from_batch_counted(&batch, &mut stats);
        Ok((table, stats))
    }

    fn run_scheduled(
        &self,
        aq: &AnalyzedQuery,
        mode: SchedulerMode,
        forced_order: Option<&[usize]>,
    ) -> Result<(ResultBatch, EngineStats)> {
        let ctx = self.ctx(aq);
        let mut prop = Propagation::default();
        let mut stats = EngineStats::default();
        self.seed_entity_candidates(aq, &mut prop, &mut stats)?;
        // A caller-forced order bypasses the planner entirely: no estimates
        // are computed and no scheduler is credited with the order.
        let (order, estimates, used) = match forced_order {
            Some(o) => (o.to_vec(), base_estimates(aq), None),
            None => {
                let (order, estimates, used) = self.plan_order(&ctx, aq, &prop, mode)?;
                (order, estimates, Some(used))
            }
        };
        stats.scheduler = used;
        stats.execution_order = order.clone();
        stats.estimates = estimates;
        let mut matches: Vec<Option<Vec<Match>>> = vec![None; aq.patterns.len()];

        // Patterns sharing no entity variable never observe each other's
        // propagated `IN` sets, so the order decomposes into independent
        // dependency chains, each short-circuiting on its own. The chains
        // touch disjoint variables, so they run one after another over the
        // one propagation table.
        for chain in dependency_chains(aq, &order) {
            self.run_chain(&ctx, aq, &chain, &mut prop, &mut stats, &mut matches)?;
        }

        if stats.short_circuited {
            let columns: Vec<String> =
                aq.ret.iter().map(|r| format!("{}.{}", r.base, r.attr)).collect();
            return Ok((
                ResultBatch::from_rows(columns, Vec::new(), self.stores.dict.clone()),
                stats,
            ));
        }

        let pattern_rows: Vec<&Vec<Match>> =
            matches.iter().map(|m| m.as_ref().expect("all executed")).collect();
        let batch = self.join_project(aq, &pattern_rows, &mut stats)?;
        Ok((batch, stats))
    }

    /// Executes one dependency chain's patterns in order, intersecting each
    /// pattern's entity ids into the propagation table for the chain's later
    /// patterns. An empty pattern short-circuits **its chain** (nothing
    /// later in the chain can match once an `IN` set is empty, and the whole
    /// query's result is already known to be empty); other chains are
    /// unaffected.
    fn run_chain(
        &self,
        ctx: &CompileCtx<'_>,
        aq: &AnalyzedQuery,
        chain: &[usize],
        prop: &mut Propagation,
        stats: &mut EngineStats,
        matches: &mut [Option<Vec<Match>>],
    ) -> Result<()> {
        let mut sp = obs::span("engine.chain");
        if let Some(&first) = chain.first() {
            sp.label(&aq.patterns[first].id);
        }
        sp.attr("patterns", chain.len() as u64);
        for &idx in chain {
            let p = &aq.patterns[idx];
            let rows = self.match_pattern(ctx, p, prop, stats)?;
            // Propagate distinct entity ids into later data queries.
            for (var, is_subj) in [(&p.subject, true), (&p.object, false)] {
                let ids: Vec<i64> =
                    rows.iter().map(|m| if is_subj { m.subj } else { m.obj }).collect();
                prop.intersect(var, ids);
            }
            let empty = rows.is_empty();
            stats.estimates[idx].actual_rows = Some(rows.len());
            matches[idx] = Some(rows);
            if empty {
                stats.short_circuited = true;
                break;
            }
        }
        Ok(())
    }

    /// Joins per-pattern match sets on shared entity variables, applies
    /// `with`-clause constraints, and projects the typed result batch.
    /// Shared by one-shot scheduled execution and the standing-query
    /// re-evaluation path (which feeds *accumulated* match sets).
    pub(crate) fn join_project(
        &self,
        aq: &AnalyzedQuery,
        pattern_rows: &[&Vec<Match>],
        stats: &mut EngineStats,
    ) -> Result<ResultBatch> {
        let mut sp = obs::span("engine.join_project");
        let columns: Vec<String> =
            aq.ret.iter().map(|r| format!("{}.{}", r.base, r.attr)).collect();
        // --- join per-pattern matches on shared entity variables ---
        // Tuples hold one row index per pattern.
        let n = aq.patterns.len();
        // Where does entity var appear in pattern k? (as subject/object)
        let var_positions = |k: usize| -> Vec<(&str, bool)> {
            let p = &aq.patterns[k];
            vec![(p.subject.as_str(), true), (p.object.as_str(), false)]
        };
        let mut tuples: Vec<Vec<u32>> = pattern_rows[0]
            .iter()
            .enumerate()
            .map(|(i, _)| {
                let mut t = vec![u32::MAX; n];
                t[0] = i as u32;
                t
            })
            .collect();
        let mut bound: Vec<usize> = vec![0];
        for k in 1..n {
            // Join keys: vars of pattern k already bound in earlier patterns.
            let mut keys: Vec<(bool, usize, bool)> = Vec::new();
            // (new_is_subject, earlier_pattern, earlier_is_subject)
            for (var, new_is_subj) in var_positions(k) {
                for &j in &bound {
                    if let Some(&(_, earlier_subj)) =
                        var_positions(j).iter().find(|(v, _)| *v == var)
                    {
                        keys.push((new_is_subj, j, earlier_subj));
                        break;
                    }
                }
            }
            let key_of_new = |m: &Match| -> Vec<i64> {
                keys.iter().map(|&(subj, _, _)| if subj { m.subj } else { m.obj }).collect()
            };
            let key_of_tuple = |t: &[u32]| -> Vec<i64> {
                keys.iter()
                    .map(|&(_, j, earlier_subj)| {
                        let m = &pattern_rows[j][t[j] as usize];
                        if earlier_subj {
                            m.subj
                        } else {
                            m.obj
                        }
                    })
                    .collect()
            };
            if keys.is_empty() {
                let mut next = Vec::with_capacity(tuples.len() * pattern_rows[k].len().max(1));
                for t in &tuples {
                    for (i, _) in pattern_rows[k].iter().enumerate() {
                        let mut nt = t.clone();
                        nt[k] = i as u32;
                        next.push(nt);
                    }
                }
                tuples = next;
            } else if let &[(new_subj, j, earlier_subj)] = keys.as_slice() {
                // Single shared variable (the common case): key on the bare
                // id, no per-row key vector allocation.
                let side = |m: &Match, subj: bool| if subj { m.subj } else { m.obj };
                let build = build_pattern_index(pattern_rows[k], |m| side(m, new_subj));
                tuples = probe_pattern_join(&tuples, k, &build, |t| {
                    side(&pattern_rows[j][t[j] as usize], earlier_subj)
                });
            } else {
                let build = build_pattern_index(pattern_rows[k], key_of_new);
                tuples = probe_pattern_join(&tuples, k, &build, key_of_tuple);
            }
            bound.push(k);
            // Repeated vars inside one pattern are handled by the data
            // query itself (the typed requests carry `subject_is_object`).
        }

        // --- with-clause constraints ---
        let pat_index: FxHashMap<&str, usize> =
            aq.patterns.iter().map(|p| (p.id.as_str(), p.index)).collect();
        for rel in &aq.relations {
            match rel {
                RelClause::Temporal { left, op, range, right } => {
                    let li = pat_index[left.as_str()];
                    let ri = pat_index[right.as_str()];
                    let range_ns = match range {
                        Some((lo, hi, unit)) => {
                            let u = Duration::from_unit(1, unit).ok_or_else(|| {
                                Error::semantic(format!("unknown time unit `{unit}`"))
                            })?;
                            Some((lo * u.0, hi * u.0))
                        }
                        None => None,
                    };
                    tuples.retain(|t| {
                        let l = &pattern_rows[li][t[li] as usize];
                        let r = &pattern_rows[ri][t[ri] as usize];
                        temporal_holds(*op, range_ns, l.start, r.start)
                    });
                }
                RelClause::Attr { left, op, right } => {
                    // Resolve both sides' values per tuple via entity lookups.
                    let lvar = left.base.as_str();
                    let rvar = right.base.as_str();
                    let lattr = left.attr.as_deref().unwrap_or_default();
                    let rattr = right.attr.as_deref().unwrap_or_default();
                    let lvals = self.attr_map(aq, lvar, lattr, &tuples, pattern_rows, stats)?;
                    let rvals = self.attr_map(aq, rvar, rattr, &tuples, pattern_rows, stats)?;
                    let lpos = self.var_slot(aq, lvar)?;
                    let rpos = self.var_slot(aq, rvar)?;
                    let dict = &self.stores.dict;
                    tuples.retain(|t| {
                        let lid = id_at(pattern_rows, t, lpos);
                        let rid = id_at(pattern_rows, t, rpos);
                        match (lvals.get(&lid), rvals.get(&rid)) {
                            (Some(a), Some(b)) => cmp_svals(a, *op, b, dict),
                            _ => false,
                        }
                    });
                }
            }
        }

        // --- projection (typed; rendering happens at the caller's edge) ---
        let mut lookups: FxHashMap<(String, String), FxHashMap<i64, SVal>> = FxHashMap::default();
        for item in &aq.ret {
            if item.is_event {
                continue;
            }
            let slot = self.var_slot(aq, &item.base)?;
            let ids: FxHashSet<i64> = tuples.iter().map(|t| id_at(pattern_rows, t, slot)).collect();
            let source = AttrSource::Entity(class_for_type(aq.entities[&item.base].ty));
            let map = self.fetch_attr_map(source, &item.attr, &ids, stats)?;
            lookups.insert((item.base.clone(), item.attr.clone()), map);
        }
        // Event-attribute lookups beyond start/end/id go to the events table.
        let mut event_attr_maps: FxHashMap<(String, String), FxHashMap<i64, SVal>> =
            FxHashMap::default();
        for item in &aq.ret {
            if !item.is_event || matches!(item.attr.as_str(), "id" | "starttime" | "endtime") {
                continue;
            }
            let pi = pat_index[item.base.as_str()];
            let ids: FxHashSet<i64> = tuples
                .iter()
                .map(|t| pattern_rows[pi][t[pi] as usize].evt)
                .filter(|&e| e >= 0)
                .collect();
            let map = self.fetch_attr_map(AttrSource::Event, &item.attr, &ids, stats)?;
            event_attr_maps.insert((item.base.clone(), item.attr.clone()), map);
        }

        // Resolve each return item to its source once — the row loop then
        // does no per-row key building or map probing by `String` pair.
        enum ProjSource<'m> {
            /// Event column of pattern `pi`: 0 = id, 1 = start, 2 = end.
            EventCol(usize, u8),
            /// Fetched event attribute of pattern `pi`.
            EventAttr(usize, Option<&'m FxHashMap<i64, SVal>>),
            /// Fetched entity attribute at (pattern, is_subject).
            Entity((usize, bool), Option<&'m FxHashMap<i64, SVal>>),
        }
        let mut plan: Vec<ProjSource<'_>> = Vec::with_capacity(aq.ret.len());
        for item in &aq.ret {
            let key = (item.base.clone(), item.attr.clone());
            plan.push(if item.is_event {
                let pi = pat_index[item.base.as_str()];
                match item.attr.as_str() {
                    "id" => ProjSource::EventCol(pi, 0),
                    "starttime" => ProjSource::EventCol(pi, 1),
                    "endtime" => ProjSource::EventCol(pi, 2),
                    _ => ProjSource::EventAttr(pi, event_attr_maps.get(&key)),
                }
            } else {
                ProjSource::Entity(self.var_slot(aq, &item.base)?, lookups.get(&key))
            });
        }
        // Missing attributes project as the empty string, exactly like the
        // stringly pipeline always rendered them — as a symbol, interned
        // once per query.
        let empty = SVal::Str(self.stores.dict.intern(""));
        let fetched = |map: Option<&FxHashMap<i64, SVal>>, id: i64| {
            map.and_then(|m| m.get(&id)).copied().unwrap_or(empty)
        };
        let mut rows: Vec<Vec<SVal>> = Vec::with_capacity(tuples.len());
        for t in &tuples {
            let mut row = Vec::with_capacity(plan.len());
            for src in &plan {
                row.push(match src {
                    ProjSource::EventCol(pi, col) => {
                        let m = &pattern_rows[*pi][t[*pi] as usize];
                        SVal::Int(match col {
                            0 => m.evt,
                            1 => m.start,
                            _ => m.end,
                        })
                    }
                    ProjSource::EventAttr(pi, map) => {
                        let m = &pattern_rows[*pi][t[*pi] as usize];
                        fetched(*map, m.evt)
                    }
                    ProjSource::Entity(slot, map) => fetched(*map, id_at(pattern_rows, t, *slot)),
                });
            }
            rows.push(row);
        }
        if aq.distinct {
            // Sym-keyed row hashing: no string touches the dedup set.
            let mut seen: FxHashSet<Vec<SVal>> = FxHashSet::default();
            rows.retain(|r| seen.insert(r.clone()));
        }
        sp.attr("rows", rows.len() as u64);
        Ok(ResultBatch::from_rows(columns, rows, self.stores.dict.clone()))
    }

    /// Finds where entity `var` is bound: (pattern index, is_subject).
    fn var_slot(&self, aq: &AnalyzedQuery, var: &str) -> Result<(usize, bool)> {
        for p in &aq.patterns {
            if p.subject == var {
                return Ok((p.index, true));
            }
            if p.object == var {
                return Ok((p.index, false));
            }
        }
        Err(Error::semantic(format!("entity `{var}` not bound by any pattern")))
    }

    fn attr_map(
        &self,
        aq: &AnalyzedQuery,
        var: &str,
        attr: &str,
        tuples: &[Vec<u32>],
        pattern_rows: &[&Vec<Match>],
        stats: &mut EngineStats,
    ) -> Result<FxHashMap<i64, SVal>> {
        let slot = self.var_slot(aq, var)?;
        let ids: FxHashSet<i64> = tuples.iter().map(|t| id_at(pattern_rows, t, slot)).collect();
        let source = AttrSource::Entity(class_for_type(aq.entities[var].ty));
        self.fetch_attr_map(source, attr, &ids, stats)
    }

    /// Fetches one attribute for a set of ids through the typed backend.
    fn fetch_attr_map(
        &self,
        source: AttrSource,
        attr: &str,
        ids: &FxHashSet<i64>,
        stats: &mut EngineStats,
    ) -> Result<FxHashMap<i64, SVal>> {
        let mut out = FxHashMap::default();
        if ids.is_empty() {
            return Ok(out);
        }
        let mut sorted: Vec<i64> = ids.iter().copied().collect();
        sorted.sort_unstable();
        for (id, v) in self.stores.rel.fetch_attr(source, attr, &sorted, &mut stats.backend)? {
            out.insert(id, v);
        }
        Ok(out)
    }
}

/// Indexes one pattern's matches by join key (build side of the
/// cross-pattern hash join).
fn build_pattern_index<K, F>(matches: &[Match], key_of: F) -> FxHashMap<K, Vec<u32>>
where
    K: Eq + std::hash::Hash,
    F: Fn(&Match) -> K,
{
    let mut build: FxHashMap<K, Vec<u32>> =
        FxHashMap::with_capacity_and_hasher(matches.len(), Default::default());
    for (i, m) in matches.iter().enumerate() {
        build.entry(key_of(m)).or_default().push(i as u32);
    }
    build
}

/// Probe side of the cross-pattern hash join: extends each tuple with the
/// new pattern's matching row indices (shared by the single-key and
/// compound-key paths so their semantics cannot drift apart).
fn probe_pattern_join<K, F>(
    tuples: &[Vec<u32>],
    k: usize,
    build: &FxHashMap<K, Vec<u32>>,
    key_of: F,
) -> Vec<Vec<u32>>
where
    K: Eq + std::hash::Hash,
    F: Fn(&[u32]) -> K,
{
    let mut next = Vec::with_capacity(tuples.len());
    for t in tuples {
        if let Some(rows) = build.get(&key_of(t)) {
            for &i in rows {
                let mut nt = t.clone();
                nt[k] = i;
                next.push(nt);
            }
        }
    }
    next
}

fn id_at(pattern_rows: &[&Vec<Match>], t: &[u32], slot: (usize, bool)) -> i64 {
    let m = &pattern_rows[slot.0][t[slot.0] as usize];
    if slot.1 {
        m.subj
    } else {
        m.obj
    }
}

fn temporal_holds(
    op: TemporalOp,
    range_ns: Option<(i64, i64)>,
    l_start: i64,
    r_start: i64,
) -> bool {
    let delta = r_start - l_start;
    match op {
        TemporalOp::Before => match range_ns {
            Some((lo, hi)) => delta >= lo && delta <= hi && delta > 0,
            None => delta > 0,
        },
        TemporalOp::After => match range_ns {
            Some((lo, hi)) => -delta >= lo && -delta <= hi && delta < 0,
            None => delta < 0,
        },
        TemporalOp::Within => match range_ns {
            Some((lo, hi)) => delta.abs() >= lo && delta.abs() <= hi,
            None => true,
        },
    }
}

/// `with`-clause attribute comparison over typed values. Ints compare
/// numerically; strings that both parse as integers do too (the seed's
/// stringly pipeline shipped numbers as strings, and this rule keeps those
/// outcomes identical now that both data paths ship typed values);
/// otherwise lexically, resolved through the dictionary. NULL is
/// incomparable under every operator — matching the giant-SQL/Cypher
/// baselines rather than the seed's render-to-`""` behavior (the audit
/// loader never stores NULL attributes, so the cases cannot diverge on
/// real data).
fn cmp_svals(a: &SVal, op: CmpOp, b: &SVal, dict: &raptor_common::SharedDict) -> bool {
    let ord = match (a, b) {
        (SVal::Int(x), SVal::Int(y)) => x.cmp(y),
        (SVal::Str(x), SVal::Str(y)) => {
            if x == y {
                std::cmp::Ordering::Equal
            } else {
                let (x, y) = (dict.resolve(*x), dict.resolve(*y));
                match (x.parse::<i64>(), y.parse::<i64>()) {
                    (Ok(p), Ok(q)) => p.cmp(&q),
                    _ => x.cmp(y),
                }
            }
        }
        (SVal::Int(x), SVal::Str(y)) => match dict.resolve(*y).parse::<i64>() {
            Ok(q) => x.cmp(&q),
            Err(_) => return false,
        },
        (SVal::Str(x), SVal::Int(y)) => match dict.resolve(*x).parse::<i64>() {
            Ok(p) => p.cmp(y),
            Err(_) => return false,
        },
        _ => return false,
    };
    match op {
        CmpOp::Eq => ord.is_eq(),
        CmpOp::Ne => !ord.is_eq(),
        CmpOp::Lt => ord.is_lt(),
        CmpOp::Le => ord.is_le(),
        CmpOp::Gt => ord.is_gt(),
        CmpOp::Ge => ord.is_ge(),
    }
}

/// Rewrites an event-pattern query into the paper's length-1 event path
/// variant (query type (c) of Table VIII): each `proc p OP file f` becomes
/// `proc p ->[OP] file f`, executing on the graph backend.
pub fn to_length1_path_query(q: &raptor_tbql::Query) -> raptor_tbql::Query {
    let mut out = q.clone();
    for p in &mut out.patterns {
        if let PatternOp::Event(op) = &p.op {
            p.op = PatternOp::Path {
                arrow: raptor_tbql::Arrow::Single,
                min: None,
                max: None,
                op: Some(op.clone()),
            };
        }
    }
    out
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::load::load;
    use raptor_audit::sim::Simulator;
    use raptor_audit::LogParser;
    use raptor_common::time::Timestamp;

    /// Builds the Figure 2 data-leak scenario plus background noise.
    pub(crate) fn fig2_engine() -> Engine {
        let mut sim = Simulator::new(99, Timestamp::from_secs(1_000_000));
        raptor_audit::sim::generate_background(
            &mut sim,
            &raptor_audit::sim::BackgroundProfile { users: 3, sessions: 30, ..Default::default() },
        );
        let shell = sim.boot_process("/bin/bash", "root");
        let tar = sim.spawn(shell, "/bin/tar", "tar cf /tmp/upload.tar /etc/passwd");
        sim.read_file(tar, "/etc/passwd", 4096, 4);
        sim.write_file(tar, "/tmp/upload.tar", 4096, 4);
        sim.exit(tar);
        let bzip = sim.spawn(shell, "/bin/bzip2", "bzip2 /tmp/upload.tar");
        sim.read_file(bzip, "/tmp/upload.tar", 4096, 2);
        sim.write_file(bzip, "/tmp/upload.tar.bz2", 2048, 2);
        sim.exit(bzip);
        let gpg = sim.spawn(shell, "/usr/bin/gpg", "gpg -c");
        sim.read_file(gpg, "/tmp/upload.tar.bz2", 2048, 2);
        sim.write_file(gpg, "/tmp/upload", 2048, 2);
        sim.exit(gpg);
        let curl = sim.spawn(shell, "/usr/bin/curl", "curl");
        sim.read_file(curl, "/tmp/upload", 2048, 2);
        let fd = sim.connect(curl, "192.168.29.128", 443);
        sim.send(curl, fd, 2048, 2);
        sim.exit(curl);
        let mut log = LogParser::parse(&sim.finish());
        raptor_audit::merge_events(&mut log.events, raptor_audit::reduce::DEFAULT_THRESHOLD);
        Engine::new(load(&log).unwrap())
    }

    fn pattern_queries(stats: &EngineStats) -> Vec<&QueryInfo> {
        stats
            .queries
            .iter()
            .filter(|q| matches!(q.kind, QueryKind::EventPattern | QueryKind::PathPattern))
            .collect()
    }

    #[test]
    fn figure2_query_finds_the_attack_scheduled() {
        let engine = fig2_engine();
        let (r, stats) =
            engine.execute_text(raptor_tbql::parser::FIG2_QUERY, ExecMode::Scheduled).unwrap();
        assert!(stats.data_queries >= 8, "{stats:?}");
        assert_eq!(r.columns.len(), 9);
        assert_eq!(r.rows.len(), 1, "{:?}", r.rows);
        let row = &r.rows[0];
        assert_eq!(row[0], "/bin/tar");
        assert_eq!(row[1], "/etc/passwd");
        assert_eq!(row[8], "192.168.29.128");
    }

    #[test]
    fn scheduled_mode_is_parse_free() {
        let engine = fig2_engine();
        let parses_before = engine.stores.rel.text_parse_count();
        let (_, stats) =
            engine.execute_text(raptor_tbql::parser::FIG2_QUERY, ExecMode::Scheduled).unwrap();
        assert_eq!(stats.text_parses, 0, "scheduled mode must not parse query text");
        assert_eq!(stats.backend.text_parses, 0);
        assert_eq!(
            engine.stores.rel.text_parse_count(),
            parses_before,
            "the relational store saw no SQL text"
        );
        assert!(stats.queries.iter().all(|q| q.text.is_none()), "{:?}", stats.queries);
        // The giant baseline *does* parse — the counter works.
        let (_, stats) =
            engine.execute_text(raptor_tbql::parser::FIG2_QUERY, ExecMode::GiantSql).unwrap();
        assert_eq!(stats.text_parses, 1);
        assert!(engine.stores.rel.text_parse_count() > parses_before);
    }

    #[test]
    fn giant_sql_agrees_with_scheduled() {
        let engine = fig2_engine();
        let (a, _) =
            engine.execute_text(raptor_tbql::parser::FIG2_QUERY, ExecMode::Scheduled).unwrap();
        let (b, _) =
            engine.execute_text(raptor_tbql::parser::FIG2_QUERY, ExecMode::GiantSql).unwrap();
        assert_eq!(a.sorted_rows(), b.sorted_rows());
    }

    #[test]
    fn giant_cypher_agrees_with_scheduled() {
        let engine = fig2_engine();
        let (a, _) =
            engine.execute_text(raptor_tbql::parser::FIG2_QUERY, ExecMode::Scheduled).unwrap();
        let (c, _) =
            engine.execute_text(raptor_tbql::parser::FIG2_QUERY, ExecMode::GiantCypher).unwrap();
        assert_eq!(a.sorted_rows(), c.sorted_rows());
    }

    #[test]
    fn length1_path_variant_agrees() {
        let engine = fig2_engine();
        let q = parse_tbql(raptor_tbql::parser::FIG2_QUERY).unwrap();
        let path_q = to_length1_path_query(&q);
        let aq = analyze(&path_q).unwrap();
        let (r, stats) = engine.execute(&aq, ExecMode::Scheduled).unwrap();
        // All 8 pattern queries went to the graph backend.
        let pats = pattern_queries(&stats);
        assert_eq!(pats.len(), 8);
        assert!(pats.iter().all(|q| q.backend == "graph"), "{:?}", stats.queries);
        let (a, _) =
            engine.execute_text(raptor_tbql::parser::FIG2_QUERY, ExecMode::Scheduled).unwrap();
        assert_eq!(a.sorted_rows(), r.sorted_rows());
    }

    #[test]
    fn self_loop_pattern_requires_same_entity() {
        let engine = fig2_engine();
        // `p` is both subject and object: only events whose subject and
        // object are the *same* process may match. bash starts plenty of
        // (other) processes, but no process starts itself, so the result is
        // empty — without the `subject_is_object` constraint the typed path
        // would wrongly return every bash→child start event.
        let q = "proc p[\"%bash%\"] start proc p return distinct p";
        let (r, stats) = engine.execute_text(q, ExecMode::Scheduled).unwrap();
        assert!(r.rows.is_empty(), "{:?}", r.rows);
        assert_eq!(stats.text_parses, 0);
        // Sanity: with two distinct variables the same shape does match.
        let q = "proc p[\"%bash%\"] start proc q return distinct p, q";
        let (r, _) = engine.execute_text(q, ExecMode::Scheduled).unwrap();
        assert!(!r.rows.is_empty());
        // The giant-SQL baseline (which handles the shared variable via its
        // single-alias FROM list) agrees with the typed scheduled path.
        let q = "proc p[\"%bash%\"] start proc p return distinct p";
        let (g, _) = engine.execute_text(q, ExecMode::GiantSql).unwrap();
        assert!(g.rows.is_empty(), "{:?}", g.rows);
        // And the length-1 path form exercises the graph backend's
        // same-variable closure.
        let q = "proc p[\"%bash%\"] ->[start] proc p return distinct p";
        let (c, stats) = engine.execute_text(q, ExecMode::Scheduled).unwrap();
        assert!(c.rows.is_empty(), "{:?}", c.rows);
        assert!(pattern_queries(&stats).iter().all(|qi| qi.backend == "graph"));
    }

    #[test]
    fn temporal_constraints_filter() {
        let engine = fig2_engine();
        // Reversed temporal order matches nothing.
        let q = "proc p4[\"%/usr/bin/curl%\"] connect ip i1 as e1 \
                 proc p1[\"%/bin/tar%\"] read file f1[\"%/etc/passwd%\"] as e2 \
                 with e1 before e2 return p4, i1";
        let (r, _) = engine.execute_text(q, ExecMode::Scheduled).unwrap();
        assert!(r.rows.is_empty());
        // Correct order matches.
        let q = "proc p4[\"%/usr/bin/curl%\"] connect ip i1 as e1 \
                 proc p1[\"%/bin/tar%\"] read file f1[\"%/etc/passwd%\"] as e2 \
                 with e2 before e1 return p4, i1";
        let (r, _) = engine.execute_text(q, ExecMode::Scheduled).unwrap();
        assert_eq!(r.rows.len(), 1);
    }

    #[test]
    fn short_circuit_stops_the_dependency_chain() {
        let engine = fig2_engine();
        // Patterns 0 and 1 share `p` (one chain); pattern 2 is independent.
        // The empty pattern 0 short-circuits its chain — pattern 1 is never
        // queried — while the independent chain still executes, so what
        // runs is a property of the query and data alone, never of where
        // the chains sit in the execution order.
        let q = "proc p[\"%/bin/nonexistent%\"] read file f as e1 \
                 proc p write file f2 as e2 \
                 proc q3 connect ip i as e3 return p, f";
        let (r, stats) = engine.execute_text(q, ExecMode::Scheduled).unwrap();
        assert!(r.rows.is_empty());
        assert!(stats.short_circuited);
        let pats = pattern_queries(&stats);
        assert_eq!(pats.len(), 2, "chain-mate skipped, independent chain ran: {stats:?}");
        let labels: Vec<&str> = pats.iter().map(|q| q.label.as_str()).collect();
        assert!(labels.contains(&"e1") && labels.contains(&"e3"), "{labels:?}");
    }

    #[test]
    fn variable_length_path_bridges_intermediate_steps() {
        let engine = fig2_engine();
        // passwd's content flows to the C2 via tar→file→bzip2→...→curl→ip.
        // A var-length path from the tar process reaches upload.tar.bz2 in
        // 2 hops? No: proc→file edges only go one hop; information flow
        // through files needs file→proc edges which system events do not
        // have (reads point proc→file). Instead test proc p ~>(1~1)[write]:
        let q = "proc p[\"%/bin/tar%\"] ~>(1~1)[write] file f return p, f";
        let (r, _) = engine.execute_text(q, ExecMode::Scheduled).unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0][1], "/tmp/upload.tar");
    }

    #[test]
    fn attribute_relationship_joins() {
        let engine = fig2_engine();
        // Same user wrote upload.tar and read it (root): join on user attr.
        let q = "proc pa write file f[\"%/tmp/upload.tar%\"] as e1 \
                 proc pb read file f as e2 \
                 with pa.user = pb.user return pa, pb";
        let (r, _) = engine.execute_text(q, ExecMode::Scheduled).unwrap();
        assert!(!r.rows.is_empty());
        // Disjoint users filter everything out.
        let q2 = "proc pa write file f[\"%/tmp/upload.tar%\"] as e1 \
                  proc pb read file f as e2 \
                  with pa.user != pb.user return pa, pb";
        let (r2, _) = engine.execute_text(q2, ExecMode::Scheduled).unwrap();
        assert!(r2.rows.is_empty());
    }

    #[test]
    fn event_attribute_return() {
        let engine = fig2_engine();
        let q = "proc p[\"%/bin/tar%\"] read file f[\"%/etc/passwd%\"] as e1 \
                 return e1.amount, e1.optype, p";
        let (r, _) = engine.execute_text(q, ExecMode::Scheduled).unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0][0], "4096");
        assert_eq!(r.rows[0][1], "read");
    }

    #[test]
    fn windows_restrict_results() {
        let engine = fig2_engine();
        let q = "proc p[\"%/bin/tar%\"] read file f[\"%/etc/passwd%\"] as e1 before 10 return p, f";
        let (r, _) = engine.execute_text(q, ExecMode::Scheduled).unwrap();
        assert!(r.rows.is_empty(), "window before epoch+10ns excludes all");
        let q = "proc p[\"%/bin/tar%\"] read file f[\"%/etc/passwd%\"] as e1 after 10 return p, f";
        let (r, _) = engine.execute_text(q, ExecMode::Scheduled).unwrap();
        assert_eq!(r.rows.len(), 1);
    }

    #[test]
    fn propagation_shrinks_later_queries() {
        let engine = fig2_engine();
        let (_, stats) =
            engine.execute_text(raptor_tbql::parser::FIG2_QUERY, ExecMode::Scheduled).unwrap();
        // Later data queries carry IN filters from earlier ones.
        let with_in = stats.queries.iter().filter(|q| q.in_lists > 0).count();
        assert!(with_in >= 4, "expected propagated IN filters: {:#?}", stats.queries);
    }
}
