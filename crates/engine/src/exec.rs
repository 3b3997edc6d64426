//! Query execution.
//!
//! Three execution paths, matching the four query variants of Table VIII:
//!
//! * [`ExecMode::Scheduled`] — ThreatRaptor's plan: compile each pattern to
//!   a small *typed* data request, execute in scheduled order (counted
//!   prices, [`crate::schedule`]) with `IN`-filter propagation through the
//!   stores' typed entry points, then join
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
//!
//! **Columns through the join.** The scheduled path never builds a row
//! until the caller renders one. Each pattern's matches stay the store's
//! [`PatternMatches`] columns; the join state is one flat buffer of row
//! indices, one per joined pattern per tuple, and none at all while a
//! single pattern is unfiltered (`raptor_storage::join`, which the
//! relational store's SQL join shares); `with` clauses read the id and
//! timestamp columns by those indices; and each return item fetches its
//! attribute once for its distinct ids and gathers into a [`ValueColumn`]
//! of the typed [`ResultBatch`]. The giant baselines hand their stores'
//! batches through as they come.

use raptor_common::error::{Error, Result};
use raptor_common::hash::FxHashMap;
use raptor_common::obs;
use raptor_common::time::Duration;
use raptor_graphstore::cypher::{exec as gexec, parse_cypher};
use raptor_graphstore::match_path_pattern;
use raptor_storage::{
    AttrSource, BackendStats, JoinIndex, PatternMatches, ResultBatch, Tuples, Value as SVal,
    ValueColumn,
};
use raptor_tbql::analyze::AnalyzedQuery;
use raptor_tbql::{analyze, parse_tbql, CmpOp, PatternOp, RelClause, TemporalOp};

use crate::compile::{
    attr_pred, class_for_type, giant_cypher, giant_sql, CompileCtx, Propagation, Request,
};
use crate::estimate::{cost_based_order, PatternEstimate};
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
    /// (`index_scans` / `full_scans`), rows scanned, edges traversed.
    /// `EXPLAIN ANALYZE` renders these.
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
    /// `Syntactic` here over an empty `events` table.
    pub scheduler: Option<SchedulerMode>,
    /// Pattern execution order used (indices into the query's patterns).
    pub execution_order: Vec<usize>,
    /// Per-pattern cost-model records (counted price vs actual rows,
    /// syntactic score), index-aligned with the query's patterns. Prices
    /// are populated for event patterns exactly when the cost-based
    /// scheduler ran; actual rows for every pattern that executed — so
    /// Q-error is observable per query.
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

/// Per-pattern cost records with only the syntactic scores filled in —
/// the starting point of [`Engine::prepare`]'s planning and the whole
/// record for caller-forced orders.
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

/// What [`Engine::prepare`] hands a scheduled execution: the seeded
/// propagation, pattern `i`'s request at `requests[i]`, and the stats that
/// hold the seed queries and, when planned, the scheduler, execution order
/// and per-pattern estimates.
pub(crate) struct Prepared {
    pub prop: Propagation,
    pub requests: Vec<Request>,
    pub stats: EngineStats,
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
        stats.backend.text_parses += 1;
        stats.backend.data_queries += 1;
        Ok(r)
    }

    /// Runs a Cypher text through the graph store's parser (ditto).
    fn query_cypher_text(&self, cy: &str, stats: &mut EngineStats) -> Result<gexec::CypherResult> {
        stats.text_parses += 1;
        let parsed = parse_cypher(cy)?;
        let r = gexec::execute(&self.stores.rel, &parsed, self.max_hops)?;
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
    /// Each request carries the seeds alone, as `Engine::prepare` builds
    /// it.
    pub fn pattern_event_matches(&self, aq: &AnalyzedQuery) -> Result<Vec<(String, Vec<i64>)>> {
        let Prepared { requests, mut stats, .. } = self.prepare(aq, None)?;
        let mut out = Vec::with_capacity(aq.patterns.len());
        for (p, req) in aq.patterns.iter().zip(&requests) {
            let m = self.run_request(req, &mut stats.backend)?;
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
        stats.finish_last(
            r.batch.n_rows(),
            BackendStats::default(),
            t0.elapsed().as_nanos() as u64,
        );
        Ok((r.batch, stats))
    }

    fn execute_giant_cypher(&self, aq: &AnalyzedQuery) -> Result<(ResultBatch, EngineStats)> {
        let cy = giant_cypher(&self.ctx(aq))?;
        let mut stats = EngineStats::default();
        let t0 = std::time::Instant::now();
        let r = self.query_cypher_text(&cy, &mut stats)?;
        stats.record_text("graph", QueryKind::Giant, "giant_cypher", cy);
        stats.finish_last(
            r.batch.n_rows(),
            BackendStats::default(),
            t0.elapsed().as_nanos() as u64,
        );
        Ok((r.batch, stats))
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
            let (class, pred) = (class_for_type(e.ty), attr_pred(filter, &self.stores.dict));
            let ids = self.stores.rel.entity_candidates(class, &pred, &mut stats.backend)?;
            stats.record("relational", QueryKind::Seed, id, 0);
            stats.finish_last(ids.len(), before, t0.elapsed().as_nanos() as u64);
            sp.attr("candidates", ids.len() as u64);
            prop.set(id.clone(), ids);
        }
        Ok(())
    }

    /// Runs one request against the store that answers it.
    fn run_request(&self, req: &Request, stats: &mut BackendStats) -> Result<PatternMatches> {
        match req {
            Request::Event(q) => self.stores.rel.match_event_pattern(q, stats),
            Request::Path(q) => match_path_pattern(&self.stores.rel, q, stats),
        }
    }

    /// Runs pattern `p`'s request, recording an `engine.pattern` span and
    /// the query's observability payload (rows, wall time, backend-counter
    /// delta) into the last `QueryInfo`.
    fn match_pattern(
        &self,
        p: &raptor_tbql::analyze::APattern,
        req: &Request,
        stats: &mut EngineStats,
    ) -> Result<PatternMatches> {
        let mut sp = obs::span("engine.pattern");
        sp.label(&p.id);
        let before = stats.backend;
        let t0 = std::time::Instant::now();
        let m = self.run_request(req, &mut stats.backend)?;
        let (backend, kind) = match req {
            Request::Event(_) => ("relational", QueryKind::EventPattern),
            Request::Path(_) => ("graph", QueryKind::PathPattern),
        };
        stats.record(backend, kind, &p.id, req.in_lists());
        stats.finish_last(m.len(), before, t0.elapsed().as_nanos() as u64);
        if let Some(q) = stats.queries.last() {
            sp.attr("rows", m.len() as u64);
            sp.attr("in_lists", q.in_lists as u64);
            sp.attr("scanned", q.delta.items_scanned as u64);
        }
        Ok(m)
    }

    /// The one seed → requests → plan step of a scheduled execution (and
    /// of `explain` and `pattern_event_matches`): seeds every filtered
    /// entity, builds each pattern's request once from the seeded
    /// propagation, and — given a scheduler — orders the patterns,
    /// pricing those requests. Seeding comes first, so every seeded
    /// endpoint is an exact `subject IN` / `object IN` count
    /// (execution-result-constrained ordering).
    ///
    /// Cost-based: event patterns by counted price, then path patterns
    /// ([`crate::estimate`]). An empty `events` table, or an engine pinned
    /// to `Syntactic`, orders by the syntactic score alone. Without a
    /// scheduler no order is computed and the estimates hold only the
    /// syntactic scores.
    pub(crate) fn prepare(
        &self,
        aq: &AnalyzedQuery,
        scheduler: Option<SchedulerMode>,
    ) -> Result<Prepared> {
        let ctx = self.ctx(aq);
        let mut prop = Propagation::default();
        let mut stats = EngineStats::default();
        self.seed_entity_candidates(aq, &mut prop, &mut stats)?;
        let requests = aq.patterns.iter().map(|p| Request::build(&ctx, p, &prop, self.max_hops));
        let requests = requests.collect::<Result<Vec<_>>>()?;
        stats.estimates = base_estimates(aq);
        let Some(mode) = scheduler else {
            return Ok(Prepared { prop, requests, stats });
        };
        let mut sp = obs::span("engine.plan");
        sp.attr("patterns", aq.patterns.len() as u64);
        let events = self.stores.rel.table("events").map_or(0, |t| t.len());
        let used = if mode == SchedulerMode::CostBased && events > 0 {
            SchedulerMode::CostBased
        } else {
            SchedulerMode::Syntactic
        };
        stats.execution_order = match used {
            SchedulerMode::CostBased => {
                cost_based_order(&self.stores.rel, aq, &requests, &mut stats.estimates)?
            }
            SchedulerMode::Syntactic => execution_order(aq),
        };
        stats.scheduler = Some(used);
        sp.label(match used {
            SchedulerMode::CostBased => "cost_based",
            SchedulerMode::Syntactic => "syntactic",
        });
        Ok(Prepared { prop, requests, stats })
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
        // A caller-forced order bypasses the planner entirely: no estimates
        // are computed and no scheduler is credited with the order.
        let Prepared { mut prop, mut requests, mut stats } =
            self.prepare(aq, forced_order.is_none().then_some(mode))?;
        if let Some(o) = forced_order {
            stats.execution_order = o.to_vec();
        }
        let order = stats.execution_order.clone();
        let mut matches: Vec<Option<PatternMatches>> = vec![None; aq.patterns.len()];

        // Patterns sharing no entity variable never observe each other's
        // propagated `IN` sets, so the order decomposes into independent
        // dependency chains, each short-circuiting on its own. The chains
        // touch disjoint variables, so they run one after another over the
        // one propagation table.
        for chain in dependency_chains(aq, &order) {
            self.run_chain(aq, &chain, &mut prop, &mut requests, &mut stats, &mut matches)?;
        }

        if stats.short_circuited {
            let columns: Vec<String> =
                aq.ret.iter().map(|r| format!("{}.{}", r.base, r.attr)).collect();
            return Ok((ResultBatch::empty(columns, self.stores.dict.clone()), stats));
        }

        let pattern_rows: Vec<&PatternMatches> =
            matches.iter().map(|m| m.as_ref().expect("all executed")).collect();
        let batch = self.join_project(aq, &pattern_rows, &mut stats)?;
        Ok((batch, stats))
    }

    /// Executes one dependency chain's patterns in order, intersecting each
    /// pattern's entity ids into the propagation table for the chain's later
    /// patterns (not after its last one: no later request reads it), whose
    /// requests then take the narrowed ids. An empty pattern short-circuits
    /// **its chain** (nothing later in the chain can match once an `IN` set
    /// is empty, and the whole query's result is already known to be
    /// empty); other chains are unaffected.
    fn run_chain(
        &self,
        aq: &AnalyzedQuery,
        chain: &[usize],
        prop: &mut Propagation,
        requests: &mut [Request],
        stats: &mut EngineStats,
        matches: &mut [Option<PatternMatches>],
    ) -> Result<()> {
        let mut sp = obs::span("engine.chain");
        if let Some(&first) = chain.first() {
            sp.label(&aq.patterns[first].id);
        }
        sp.attr("patterns", chain.len() as u64);
        for (pos, &idx) in chain.iter().enumerate() {
            let p = &aq.patterns[idx];
            // The chain's first pattern sees the seeds its request was
            // built from: chains share no variable.
            if pos > 0 {
                requests[idx].propagate(p, prop);
            }
            let m = self.match_pattern(p, &requests[idx], stats)?;
            if pos + 1 < chain.len() {
                prop.intersect(&p.subject, &m.subj);
                prop.intersect(&p.object, &m.obj);
            }
            let empty = m.is_empty();
            stats.estimates[idx].actual_rows = Some(m.len());
            matches[idx] = Some(m);
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
    ///
    /// Columns from input to output: the matches are read in place, a join
    /// tuple is one row index per pattern in a flat [`Tuples`] buffer, and
    /// each return item gathers straight into a [`ValueColumn`]. Rows come
    /// out in nested-loop order: pattern 0's rows in order, each extended by
    /// the later patterns' matching rows in ascending order; DISTINCT keeps
    /// each row's first occurrence.
    pub(crate) fn join_project(
        &self,
        aq: &AnalyzedQuery,
        pattern_rows: &[&PatternMatches],
        stats: &mut EngineStats,
    ) -> Result<ResultBatch> {
        let mut sp = obs::span("engine.join_project");
        let columns: Vec<String> =
            aq.ret.iter().map(|r| format!("{}.{}", r.base, r.attr)).collect();
        // --- join per-pattern matches on shared entity variables ---
        let mut tuples = Tuples::identity(pattern_rows[0].len());
        for k in 1..aq.patterns.len() {
            // Join keys: each variable of pattern k where it is first bound
            // by an earlier pattern, as (k's side, earlier pattern, its side).
            // Repeated variables inside one pattern are handled by the data
            // query itself (the typed requests carry `subject_is_object`).
            let pk = &aq.patterns[k];
            let keys: Vec<(bool, usize, bool)> = [(&pk.subject, true), (&pk.object, false)]
                .into_iter()
                .filter_map(|(var, new_subj)| {
                    (0..k).find_map(|j| {
                        let pj = &aq.patterns[j];
                        let earlier_subj = if pj.subject == *var {
                            true
                        } else if pj.object == *var {
                            false
                        } else {
                            return None;
                        };
                        Some((new_subj, j, earlier_subj))
                    })
                })
                .collect();
            let new = pattern_rows[k];
            let col = |j: usize, subj: bool| side(pattern_rows[j], subj);
            tuples = match keys[..] {
                [] => tuples.extend(|_| 0..new.len() as u32),
                [(ns, j, es)] => {
                    let (build, probe) = (side(new, ns), col(j, es));
                    let index = JoinIndex::build(new.len(), |i| build[i]);
                    tuples.extend(|t| index.rows(&probe[t[j] as usize]))
                }
                [(ns1, j1, es1), (ns2, j2, es2)] => {
                    let (b1, b2) = (side(new, ns1), side(new, ns2));
                    let (p1, p2) = (col(j1, es1), col(j2, es2));
                    let index = JoinIndex::build(new.len(), |i| (b1[i], b2[i]));
                    tuples.extend(|t| index.rows(&(p1[t[j1] as usize], p2[t[j2] as usize])))
                }
                _ => unreachable!("a pattern binds two variables"),
            };
        }

        // --- with-clause constraints ---
        let pat_index: FxHashMap<&str, usize> =
            aq.patterns.iter().map(|p| (p.id.as_str(), p.index)).collect();
        for rel in &aq.relations {
            match rel {
                RelClause::Temporal { left, op, range, right } => {
                    let li = pat_index[left.as_str()];
                    let ri = pat_index[right.as_str()];
                    let range_ns = range.as_ref().map(|(lo, hi, unit)| {
                        let ns = |n: i64| {
                            Duration::from_unit(n, unit)
                                .expect("analyze rejects overflowing ranges")
                                .0
                        };
                        (ns(*lo), ns(*hi))
                    });
                    let (l, r) = (&pattern_rows[li].start, &pattern_rows[ri].start);
                    tuples.retain(|_, t| {
                        temporal_holds(*op, range_ns, l[t[li] as usize], r[t[ri] as usize])
                    });
                }
                RelClause::Attr { left, op, right } => {
                    // Each side's attribute, fetched once for the distinct
                    // entity ids the surviving tuples bind.
                    let mut side_values = |a: &raptor_tbql::AttrRef| -> Result<_> {
                        let (k, subj) = self.var_slot(aq, &a.base)?;
                        let ids = tuples.gather(k, side(pattern_rows[k], subj));
                        let attr = a.attr.as_deref().unwrap_or_default();
                        self.fetch_values(entity_source(aq, &a.base), attr, &ids, stats)
                    };
                    let (lvals, rvals) = (side_values(left)?, side_values(right)?);
                    let dict = &self.stores.dict;
                    tuples.retain(|i, _| match (lvals[i], rvals[i]) {
                        (Some(a), Some(b)) => cmp_svals(&a, *op, &b, dict),
                        _ => false,
                    });
                }
            }
        }

        // --- projection (typed; rendering happens at the caller's edge) ---
        // Missing attributes project as the empty string, exactly like the
        // stringly pipeline always rendered them — as a symbol, interned
        // once per query.
        let empty = SVal::Str(self.stores.dict.intern(""));
        let mut cols = Vec::with_capacity(aq.ret.len());
        for item in &aq.ret {
            cols.push(if item.is_event {
                let pi = pat_index[item.base.as_str()];
                let m = pattern_rows[pi];
                match item.attr.as_str() {
                    "id" => ValueColumn::Int(tuples.gather(pi, &m.evt)),
                    "starttime" => ValueColumn::Int(tuples.gather(pi, &m.start)),
                    "endtime" => ValueColumn::Int(tuples.gather(pi, &m.end)),
                    attr => {
                        let evts = tuples.gather(pi, &m.evt);
                        let vals = self.fetch_values(AttrSource::Event, attr, &evts, stats)?;
                        vals.into_iter().map(|v| v.unwrap_or(empty)).collect()
                    }
                }
            } else {
                let (k, subj) = self.var_slot(aq, &item.base)?;
                let ids = tuples.gather(k, side(pattern_rows[k], subj));
                let vals =
                    self.fetch_values(entity_source(aq, &item.base), &item.attr, &ids, stats)?;
                vals.into_iter().map(|v| v.unwrap_or(empty)).collect()
            });
        }
        let mut batch = ResultBatch::new(columns, cols, self.stores.dict.clone());
        if aq.distinct {
            batch.dedup_rows();
        }
        sp.attr("rows", batch.n_rows() as u64);
        Ok(batch)
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

    /// One attribute of each id in `ids`, in order (`None` where the
    /// backend has no value), through one `fetch_attr` call over the sorted
    /// distinct ids, none when there are none. Negative event ids (path
    /// matches without a final hop) are not fetched.
    fn fetch_values(
        &self,
        source: AttrSource,
        attr: &str,
        ids: &[i64],
        stats: &mut EngineStats,
    ) -> Result<Vec<Option<SVal>>> {
        let floor = if matches!(source, AttrSource::Event) { 0 } else { i64::MIN };
        let ranks = IdRanks::new(ids, floor);
        let distinct = &ranks.distinct;
        let mut fetched = vec![None; distinct.len()];
        if !distinct.is_empty() {
            // Answers come in the order asked; of several for one id the
            // last counts.
            let mut k = 0;
            for (id, v) in self.stores.rel.fetch_attr(source, attr, distinct, &mut stats.backend)? {
                while distinct.get(k).is_some_and(|&x| x < id) {
                    k += 1;
                }
                if distinct.get(k) == Some(&id) {
                    fetched[k] = Some(v);
                }
            }
        }
        Ok(ids.iter().map(|&id| ranks.rank(id).and_then(|k| fetched[k])).collect())
    }
}

fn entity_source(aq: &AnalyzedQuery, var: &str) -> AttrSource {
    AttrSource::Entity(class_for_type(aq.entities[var].ty))
}

/// A pattern's subject or object id column.
fn side(m: &PatternMatches, subj: bool) -> &[i64] {
    if subj {
        &m.subj
    } else {
        &m.obj
    }
}

/// The distinct ids of a column at or above `floor`, ascending, and each
/// id's rank among them. Entity and event ids number their table's rows,
/// so a column's ids can span a range only a few times its length: then a
/// table over that range ranks them with no sort and no search, and other
/// columns sort and search. The cut-off, a span under 4× the length (plus
/// 64), is the smallest multiple that takes every projected column of
/// `bench_ledger`'s `query-paths` to the table (their spans stay under
/// 4×). There the table halves `engine.exec.self_us` against
/// sort-and-search alone. On `query-events`, whose spans run from under 1×
/// to past 256×, cut-offs of 1× to 64× and sort-and-search alone measure
/// alike.
struct IdRanks {
    floor: i64,
    distinct: Vec<i64>,
    /// `(lo, rank of id lo + i)` when the column is dense enough.
    dense: Option<(i64, Vec<u32>)>,
}

impl IdRanks {
    fn new(ids: &[i64], floor: i64) -> Self {
        let kept = || ids.iter().copied().filter(|&id| id >= floor);
        let (Some(lo), Some(hi)) = (kept().min(), kept().max()) else {
            return IdRanks { floor, distinct: Vec::new(), dense: None };
        };
        if (hi as i128 - lo as i128) < 4 * ids.len() as i128 + 64 {
            let mut rank = vec![u32::MAX; (hi - lo) as usize + 1];
            for id in kept() {
                rank[(id - lo) as usize] = 0;
            }
            let mut distinct = Vec::new();
            for (off, r) in rank.iter_mut().enumerate().filter(|(_, r)| **r == 0) {
                *r = distinct.len() as u32;
                distinct.push(lo + off as i64);
            }
            return IdRanks { floor, distinct, dense: Some((lo, rank)) };
        }
        // A column comes in runs of one id (path matches are grouped by
        // subject): collapsing them first shrinks the sort.
        let mut distinct: Vec<i64> = kept().collect();
        distinct.dedup();
        distinct.sort_unstable();
        distinct.dedup();
        IdRanks { floor, distinct, dense: None }
    }

    /// The rank of `id`, one of the column's ids; `None` below the floor.
    fn rank(&self, id: i64) -> Option<usize> {
        if id < self.floor {
            return None;
        }
        match &self.dense {
            Some((lo, rank)) => Some(rank[(id - lo) as usize] as usize),
            None => self.distinct.binary_search(&id).ok(),
        }
    }
}

/// Does the gap from the left event's start to the right one's satisfy
/// `op` (and its range, in ns)? Computed in `i128`, so no pair of
/// timestamps overflows.
fn temporal_holds(
    op: TemporalOp,
    range_ns: Option<(i64, i64)>,
    l_start: i64,
    r_start: i64,
) -> bool {
    let delta = r_start as i128 - l_start as i128;
    let in_range =
        |gap: i128| range_ns.is_none_or(|(lo, hi)| gap >= lo as i128 && gap <= hi as i128);
    match op {
        TemporalOp::Before => delta > 0 && in_range(delta),
        TemporalOp::After => delta < 0 && in_range(-delta),
        TemporalOp::Within => in_range(delta.abs()),
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
pub(crate) fn cmp_svals(a: &SVal, op: CmpOp, b: &SVal, dict: &raptor_common::SharedDict) -> bool {
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

    /// A time window lowers to `starttime`, which has a B-tree: every
    /// relational data query of a windowed event pattern — `last`, `at`,
    /// `before`, `from … to …` — takes an index path, never a full scan,
    /// also when the operation (`!read`) has no index to offer.
    #[test]
    fn windowed_event_patterns_take_an_index_scan() {
        let spec = raptor_cases::catalog::case_by_id("data_leak").unwrap();
        let log = raptor_cases::build_case(spec, 1.0, 7).log;
        let mut starts: Vec<i64> = log.events.iter().map(|e| e.start.0).collect();
        starts.sort_unstable();
        let (q1, mid, q3) =
            (starts[starts.len() / 4], starts[starts.len() / 2], starts[starts.len() * 3 / 4]);
        let engine = Engine::new(load(&log).unwrap());
        let windows = [
            "last 2 h".to_string(),
            format!("at {mid}"),
            format!("before {mid}"),
            format!("from {q1} to {q3}"),
        ];
        for (op, window) in
            ["read", "!read"].into_iter().flat_map(|op| windows.iter().map(move |w| (op, w)))
        {
            let q = format!("proc p {op} file f as e1 {window} return f");
            let (_, stats) = engine.execute_text(&q, ExecMode::Scheduled).unwrap();
            let rel: Vec<_> = stats.queries.iter().filter(|q| q.backend == "relational").collect();
            assert!(!rel.is_empty(), "{q}");
            for info in rel {
                assert_eq!(info.delta.full_scans, 0, "{q}: {info:?}");
                assert!(info.delta.index_scans >= 1, "{q}: {info:?}");
            }
        }
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
    fn temporal_range_overflow_is_a_semantic_error() {
        let engine = fig2_engine();
        let q = |range: &str| {
            format!(
                "proc p[\"%/bin/tar%\"] read file f[\"%/etc/passwd%\"] as e1 \
                 proc p write file g as e2 with e1 before{range} e2 return p, f, g"
            )
        };
        let (plain, _) = engine.execute_text(&q(""), ExecMode::Scheduled).unwrap();
        assert_eq!(plain.rows.len(), 1);
        // The widest range that fits agrees with the range-free query.
        let (wide, _) = engine.execute_text(&q("[0-106751 d]"), ExecMode::Scheduled).unwrap();
        assert_eq!(wide, plain);
        // One that does not fit is refused, not silently empty.
        let err = engine.execute_text(&q("[0-200000000000 d]"), ExecMode::Scheduled).unwrap_err();
        assert_eq!(err.kind, raptor_common::error::ErrorKind::Semantic, "{err}");
    }

    #[test]
    fn temporal_holds_at_extreme_timestamps() {
        let (lo, hi) = (i64::MIN, i64::MAX);
        assert!(temporal_holds(TemporalOp::Before, None, lo, hi));
        assert!(temporal_holds(TemporalOp::After, None, hi, lo));
        assert!(temporal_holds(TemporalOp::Before, Some((0, i64::MAX)), 0, hi));
        assert!(!temporal_holds(TemporalOp::Before, Some((0, i64::MAX)), lo, hi));
        assert!(!temporal_holds(TemporalOp::After, Some((0, i64::MAX)), hi, lo));
        assert!(temporal_holds(TemporalOp::Within, Some((1, i64::MAX)), lo, -1));
        assert!(!temporal_holds(TemporalOp::Within, Some((1, i64::MAX)), lo, hi));
    }

    /// A dense column ranks through its table, a sparse one by search; both
    /// agree, and ids below the floor have no rank.
    #[test]
    fn id_ranks_dense_and_sparse() {
        for (ids, dense) in [([7, 3, -1, 7, 9, 3], true), ([7, 3, -1, 7, 1 << 40, 3], false)] {
            let r = IdRanks::new(&ids, 0);
            assert_eq!(r.dense.is_some(), dense);
            assert_eq!(r.distinct, vec![3, 7, ids[4]]);
            let ranks: Vec<_> = ids.iter().map(|&id| r.rank(id)).collect();
            assert_eq!(ranks, [Some(1), Some(0), None, Some(1), Some(2), Some(0)]);
        }
        assert!(IdRanks::new(&[-1, -2], 0).distinct.is_empty());
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
