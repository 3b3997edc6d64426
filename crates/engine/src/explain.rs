//! `EXPLAIN` / `EXPLAIN ANALYZE`: rendering the engine's planning and
//! execution decisions as a stable text tree.
//!
//! The engine already records everything an operator needs to understand a
//! scheduled execution — seeded candidate counts, per-pattern counted
//! prices and syntactic scores, the chosen scheduler and execution
//! order, dependency chains, and (after execution) per-query row counts,
//! wall times and backend-counter deltas in [`QueryInfo`]. This module
//! renders those records; it computes nothing new.
//!
//! * [`Engine::explain`] plans without executing patterns: it seeds entity
//!   candidates (the small indexed lookups the planner itself needs),
//!   runs the scheduler, and renders the plan tree.
//! * [`Engine::explain_analyze`] executes the query and attaches actuals:
//!   rows per pattern, Q-error, access path, rows scanned, wall times.
//!
//! Every line of the plain `EXPLAIN` tree — and the `ANALYZE` tree under
//! [`Redact::Stable`] — is byte-identical from run to run: the golden
//! corpus test pins it. `Redact::Stable` elides wall times and the scan
//! volume counters (items scanned and built) while keeping the full tree
//! structure, estimates, actual row counts and access-path choices.

use raptor_common::error::Result;
use raptor_tbql::analyze::AnalyzedQuery;
use raptor_tbql::{analyze, parse_tbql, Arrow, PatternOp};

use crate::exec::{Engine, EngineStats, ExecMode, Prepared, QueryInfo, QueryKind, ResultTable};
use crate::schedule::{dependency_chains, SchedulerMode};

/// What an `ANALYZE` rendering does with run-dependent values.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Redact {
    /// Show everything, including wall times and scan volume counters (the
    /// operator view; also what the slow-query log records).
    Full,
    /// Replace wall times and scan volume counters with `~` so the output
    /// is byte-identical across runs (the golden-test view).
    Stable,
}

impl Engine {
    /// Plans `aq` (seeding + scheduling only — no pattern executes) and
    /// renders the plan tree.
    pub fn explain(&self, aq: &AnalyzedQuery) -> Result<String> {
        let Prepared { stats, .. } = self.prepare(aq, Some(self.scheduler))?;
        Ok(render(aq, &stats, None))
    }

    /// Parses and [`explain`](Engine::explain)s a TBQL text.
    pub fn explain_text(&self, tbql: &str) -> Result<String> {
        let q = parse_tbql(tbql)?;
        let aq = analyze(&q)?;
        self.explain(&aq)
    }

    /// Executes `aq` in scheduled mode and renders the ANALYZE tree along
    /// with the result.
    pub fn explain_analyze(
        &self,
        aq: &AnalyzedQuery,
        redact: Redact,
    ) -> Result<(ResultTable, String)> {
        let t0 = std::time::Instant::now();
        let (table, stats) = self.execute(aq, ExecMode::Scheduled)?;
        let wall_ns = t0.elapsed().as_nanos() as u64;
        let report = render_analyze(aq, &stats, Some(wall_ns), table.rows.len(), redact);
        Ok((table, report))
    }

    /// Parses and [`explain_analyze`](Engine::explain_analyze)s a TBQL text.
    pub fn explain_analyze_text(
        &self,
        tbql: &str,
        redact: Redact,
    ) -> Result<(ResultTable, String)> {
        let q = parse_tbql(tbql)?;
        let aq = analyze(&q)?;
        self.explain_analyze(&aq, redact)
    }
}

/// Renders an ANALYZE tree from an already-executed query's stats (the
/// slow-query log calls this on the stats it just observed).
pub fn render_analyze(
    aq: &AnalyzedQuery,
    stats: &EngineStats,
    wall_ns: Option<u64>,
    result_rows: usize,
    redact: Redact,
) -> String {
    render(aq, stats, Some(AnalyzeCtx { wall_ns, result_rows, redact }))
}

struct AnalyzeCtx {
    wall_ns: Option<u64>,
    result_rows: usize,
    redact: Redact,
}

fn ms(ns: u64, redact: Redact) -> String {
    match redact {
        Redact::Stable => "~".to_string(),
        Redact::Full => format!("{:.2}ms", ns as f64 / 1e6),
    }
}

fn volatile(n: usize, redact: Redact) -> String {
    match redact {
        Redact::Stable => "~".to_string(),
        Redact::Full => n.to_string(),
    }
}

/// The access path a query's backend-counter delta reveals.
fn access_of(q: &QueryInfo) -> &'static str {
    let d = &q.delta;
    match (d.index_scans > 0, d.full_scans > 0) {
        (true, true) => "mixed",
        (true, false) => "index",
        (false, true) => "full",
        (false, false) => "-",
    }
}

/// Short operator description for a pattern: `read|write`, `->[start]`,
/// `~>(1~3)[write]`, …
fn op_desc(p: &raptor_tbql::analyze::APattern) -> String {
    match &p.op {
        PatternOp::Event(op) => op.op_names().join("|"),
        PatternOp::Path { arrow, min, max, op } => {
            let mut s = match arrow {
                Arrow::Single => "->".to_string(),
                Arrow::Fuzzy => "~>".to_string(),
            };
            if min.is_some() || max.is_some() {
                let b = |v: &Option<u32>| v.map_or(String::new(), |x| x.to_string());
                s.push_str(&format!("({}~{})", b(min), b(max)));
            }
            if let Some(op) = op {
                s.push_str(&format!("[{}]", op.op_names().join("|")));
            }
            s
        }
    }
}

fn render(aq: &AnalyzedQuery, stats: &EngineStats, analyze: Option<AnalyzeCtx>) -> String {
    let mut out = String::new();
    let analyzed = analyze.is_some();
    out.push_str(if analyzed { "EXPLAIN ANALYZE\n" } else { "EXPLAIN\n" });

    // --- scheduler & order ---
    let sched = match stats.scheduler {
        Some(SchedulerMode::CostBased) => "cost_based",
        Some(SchedulerMode::Syntactic) => "syntactic",
        None => "forced",
    };
    out.push_str(&format!("scheduler: {sched}\n"));
    let order_ids: Vec<&str> =
        stats.execution_order.iter().map(|&i| aq.patterns[i].id.as_str()).collect();
    out.push_str(&format!("order: {}\n", order_ids.join(", ")));

    // --- seeds (entity-candidate lookups, in seeding order) ---
    for q in stats.queries.iter().filter(|q| q.kind == QueryKind::Seed) {
        out.push_str(&format!(
            "seed {} [{}] candidates={}",
            q.label,
            q.backend,
            q.rows.map_or_else(|| "?".into(), |r| r.to_string())
        ));
        if let Some(a) = &analyze {
            out.push_str(&format!(" access={} wall={}", access_of(q), ms(q.wall_ns, a.redact)));
        }
        out.push('\n');
    }

    // --- chains and their patterns, in execution order ---
    let chains = dependency_chains(aq, &stats.execution_order);
    for (ci, chain) in chains.iter().enumerate() {
        let ids: Vec<&str> = chain.iter().map(|&i| aq.patterns[i].id.as_str()).collect();
        out.push_str(&format!("chain {}: {}\n", ci + 1, ids.join(" -> ")));
        for &idx in chain {
            let p = &aq.patterns[idx];
            let est = &stats.estimates[idx];
            let kind = if p.is_path() { "path" } else { "event" };
            out.push_str(&format!(
                "  {} [{} {}] ({}, {})",
                p.id,
                kind,
                op_desc(p),
                p.subject,
                p.object
            ));
            match est.estimated_rows {
                Some(e) => out.push_str(&format!(" est_rows={e:.1}")),
                None => out.push_str(" est_rows=-"),
            }
            out.push_str(&format!(" syn_score={}", est.syntactic_score));
            if let Some(a) = &analyze {
                let info = stats.queries.iter().find(|q| {
                    matches!(q.kind, QueryKind::EventPattern | QueryKind::PathPattern)
                        && q.label == p.id
                });
                match info {
                    Some(q) => {
                        out.push_str(&format!(
                            " rows={}",
                            q.rows.map_or_else(|| "?".into(), |r| r.to_string())
                        ));
                        match est.q_error() {
                            Some(qe) => out.push_str(&format!(" q_err={qe:.1}")),
                            None => out.push_str(" q_err=-"),
                        }
                        out.push_str(&format!(
                            " in_lists={} backend={} access={}",
                            q.in_lists,
                            q.backend,
                            access_of(q)
                        ));
                        out.push_str(&format!(
                            " scanned={}",
                            volatile(q.delta.items_scanned, a.redact),
                        ));
                        if q.delta.edges_traversed > 0 {
                            out.push_str(&format!(" edges={}", q.delta.edges_traversed));
                        }
                        out.push_str(&format!(" wall={}", ms(q.wall_ns, a.redact)));
                    }
                    None => out.push_str(" skipped (chain short-circuited)"),
                }
            }
            out.push('\n');
        }
    }

    // --- join / projection summary ---
    let proj: Vec<String> = aq.ret.iter().map(|r| format!("{}.{}", r.base, r.attr)).collect();
    out.push_str(&format!(
        "join patterns={} with_clauses={}\nproject: [{}]{}\n",
        aq.patterns.len(),
        aq.relations.len(),
        proj.join(", "),
        if aq.distinct { " distinct" } else { "" }
    ));

    // --- execution totals (ANALYZE only) ---
    if let Some(a) = analyze {
        if stats.short_circuited {
            out.push_str("short_circuited: true\n");
        }
        let b = &stats.backend;
        out.push_str(&format!(
            "totals: rows={} data_queries={} index_scans={} full_scans={} \
             items_scanned={} items_built={} edges_traversed={} strings_materialized={} \
             wall={}\n",
            a.result_rows,
            stats.data_queries,
            b.index_scans,
            b.full_scans,
            volatile(b.items_scanned, a.redact),
            volatile(b.items_built, a.redact),
            b.edges_traversed,
            stats.strings_materialized,
            a.wall_ns.map_or_else(|| "-".into(), |w| ms(w, a.redact)),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explain_renders_plan_without_executing_patterns() {
        let engine = crate::exec::tests::fig2_engine();
        let tree = engine.explain_text(raptor_tbql::parser::FIG2_QUERY).unwrap();
        assert!(tree.starts_with("EXPLAIN\n"), "{tree}");
        assert!(tree.contains("scheduler: cost_based"), "{tree}");
        assert!(tree.contains("order: "), "{tree}");
        assert!(tree.contains("seed f1 [relational] candidates="), "{tree}");
        assert!(tree.contains("chain 1:"), "{tree}");
        assert!(tree.contains("est_rows="), "{tree}");
        assert!(tree.contains("syn_score="), "{tree}");
        // Plan-only: no per-pattern actuals.
        assert!(!tree.contains("q_err="), "{tree}");
        assert!(!tree.contains("totals:"), "{tree}");
    }

    #[test]
    fn explain_analyze_attaches_actuals() {
        let engine = crate::exec::tests::fig2_engine();
        let (table, tree) =
            engine.explain_analyze_text(raptor_tbql::parser::FIG2_QUERY, Redact::Full).unwrap();
        assert_eq!(table.rows.len(), 1);
        assert!(tree.starts_with("EXPLAIN ANALYZE\n"), "{tree}");
        assert!(tree.contains(" rows="), "{tree}");
        assert!(tree.contains(" q_err="), "{tree}");
        assert!(tree.contains(" access="), "{tree}");
        assert!(tree.contains("wall="), "{tree}");
        assert!(tree.contains("totals: rows=1 "), "{tree}");
        // Full redaction shows real numbers, not tildes.
        assert!(!tree.contains("wall=~"), "{tree}");
    }

    #[test]
    fn stable_redaction_is_run_invariant() {
        let engine = crate::exec::tests::fig2_engine();
        let (_, a) =
            engine.explain_analyze_text(raptor_tbql::parser::FIG2_QUERY, Redact::Stable).unwrap();
        let (_, b) =
            engine.explain_analyze_text(raptor_tbql::parser::FIG2_QUERY, Redact::Stable).unwrap();
        assert_eq!(a, b);
        assert!(a.contains("wall=~"), "{a}");
        assert!(a.contains("scanned=~"), "{a}");
        // Structure and deterministic facts survive redaction.
        assert!(a.contains(" rows="), "{a}");
        assert!(a.contains(" access="), "{a}");
    }

    #[test]
    fn explain_shows_short_circuit() {
        let engine = crate::exec::tests::fig2_engine();
        let q = "proc p[\"%/bin/nonexistent%\"] read file f as e1 \
                 proc p write file f2 as e2 return p, f";
        let (table, tree) = engine.explain_analyze_text(q, Redact::Full).unwrap();
        assert!(table.rows.is_empty());
        assert!(tree.contains("short_circuited: true"), "{tree}");
        assert!(tree.contains("skipped (chain short-circuited)"), "{tree}");
    }
}
