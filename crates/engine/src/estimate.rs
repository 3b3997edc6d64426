//! Cardinality estimation for scheduled data queries.
//!
//! The paper's scheduler orders patterns by a *syntactic* pruning score
//! (constraint count minus a path-length penalty) which cannot tell a
//! highly selective `exename = '/usr/bin/gpg'` from a near-useless
//! `name like '%'`. This module turns a typed pattern request plus the
//! maintained statistics ([`StoreStats`] — one copy, the relational
//! store's, read for event and path patterns alike) into an **estimated
//! output cardinality**, the cost signal `schedule.rs` orders by:
//!
//! * event patterns: `|events| × sel(kind) × sel(event predicates) ×
//!   frac(subject) × frac(object)` under conjunct independence, where the
//!   entity fractions come from the scheduler's *seed* candidate sets when
//!   present (exact — the seeds have already executed by planning time) and
//!   from column statistics otherwise,
//! * path patterns: **decomposition against the path cardinality catalog**
//!   (`raptor_storage::catalog`) — the pattern is split into cataloged
//!   sub-patterns joined on their shared endpoints: exact per-hop-count
//!   walk counts `walks(k, src-class, dst-class)` for `k ≤ CATALOG_K`
//!   (geometric extrapolation from the cataloged ratio beyond), a final-hop
//!   operation selectivity from the per-(class, optype, class) edge
//!   counts, and the subject/object candidate fractions. When the catalog
//!   is cold (an empty store) the estimator falls back to degree-power
//!   expansion à la Pathce: the seeded start set fans out by the subject
//!   class's mean out-degree for the first hop and the store-wide mean
//!   degree per further hop.
//!
//! Either way the result is clamped: **capped** at the catalog's observed
//! reachable-pair count (sources with out-edges × destinations with
//! in-edges) and the candidate cross product, and **floored** at one row
//! when the scheduler seeded either endpoint (seeds exist because earlier
//! patterns matched), so Q-error stays bounded even on the fallback path.
//!
//! Estimates and the measured actual rows are both recorded in
//! `EngineStats` ([`PatternEstimate`]), so scheduler **Q-error** is
//! observable on every query.

use raptor_storage::catalog::{PathCatalog, CATALOG_K};
use raptor_storage::stats::{selectivity, StoreStats};
use raptor_storage::{
    CmpOp, EntityClass, EntitySel, EventPatternQuery, PathPatternQuery, Pred, Value,
};

/// One pattern's cost-model record: the estimate the scheduler ordered by
/// and the actual row count observed during execution.
#[derive(Clone, Debug, PartialEq)]
pub struct PatternEstimate {
    /// The pattern id (`as evtN` / generated `_evtN`).
    pub pattern: String,
    /// Path pattern (graph backend) vs event pattern (relational backend).
    pub is_path: bool,
    /// Estimated result rows from the store statistics; `None` when the
    /// scheduler fell back to (or was pinned to) the syntactic score.
    pub estimated_rows: Option<f64>,
    /// The paper's syntactic pruning score, always computed (the fallback
    /// signal and the baseline the cost model is measured against).
    pub syntactic_score: i64,
    /// Rows the executed data query actually returned; `None` when the
    /// pattern was skipped (an earlier pattern short-circuited the query).
    pub actual_rows: Option<usize>,
}

impl PatternEstimate {
    /// The estimator's Q-error for this pattern: `max(est/actual,
    /// actual/est)` with both sides floored at 0.5 so empty results stay
    /// finite. `None` until both numbers exist.
    pub fn q_error(&self) -> Option<f64> {
        let est = self.estimated_rows?.max(0.5);
        let actual = (self.actual_rows? as f64).max(0.5);
        Some((est / actual).max(actual / est))
    }
}

/// Fraction of an entity class expected to survive the pattern's entity
/// constraint: exact from the seeded candidate set when the scheduler has
/// one, estimated from column statistics otherwise.
fn entity_fraction(stats: &StoreStats, sel: &EntitySel) -> f64 {
    let Some(t) = stats.table(sel.class.table_name()) else {
        return 1.0;
    };
    let rows = t.rows().max(1) as f64;
    match (&sel.id_in, &sel.filter) {
        (Some(ids), _) => (ids.len() as f64 / rows).min(1.0),
        (None, Some(f)) => selectivity(t, f, stats.dict()),
        (None, None) => 1.0,
    }
}

/// Absolute candidate-entity count for one side of a pattern.
fn entity_count(stats: &StoreStats, sel: &EntitySel) -> f64 {
    let rows = stats.table(sel.class.table_name()).map_or(0, |t| t.rows()) as f64;
    match &sel.id_in {
        Some(ids) => ids.len() as f64,
        None => rows * entity_fraction(stats, sel),
    }
}

/// Estimated result rows of one event-pattern data query against the
/// relational store.
pub fn estimate_event_pattern(req: &EventPatternQuery, rel: &StoreStats) -> f64 {
    let Some(ev) = rel.table("events") else {
        return 0.0;
    };
    let kind = Pred::Cmp {
        attr: "kind".to_string(),
        op: CmpOp::Eq,
        value: Value::Str(rel.dict().intern(req.object.class.event_kind())),
    };
    let mut est = ev.rows() as f64 * selectivity(ev, &kind, rel.dict());
    if let Some(p) = &req.event_pred {
        est *= selectivity(ev, p, rel.dict());
    }
    est *= entity_fraction(rel, &req.subject);
    est *= entity_fraction(rel, &req.object);
    if req.subject_is_object {
        // Self-loops: the object must be the *same* entity the subject
        // already fixed, not any member of its class.
        let obj_rows = rel.table(req.object.class.table_name()).map_or(1, |t| t.rows().max(1));
        est /= obj_rows as f64;
    }
    est
}

/// Estimated result rows of one path-pattern data query against the graph
/// store: decomposition against the path cardinality catalog when it is
/// warm, degree-power expansion as the cold-catalog fallback — both
/// clamped to the observed reachable-pair cap and the seeded-candidate
/// floor (module docs).
pub fn estimate_path_pattern(req: &PathPatternQuery, stats: &StoreStats) -> f64 {
    let start = entity_count(stats, &req.subject);
    let end = entity_count(stats, &req.object);
    let lo = req.min_hops.max(1);
    let hi = req.max_hops.unwrap_or(req.hop_cap).min(req.hop_cap).max(lo);
    let cat = stats.catalog();
    let mut est = if cat.is_warm() {
        decomposition_estimate(req, stats, cat, lo, hi)
    } else {
        degree_power_estimate(req, stats, lo, hi)
    };
    if cat.is_warm() {
        // Hard bound from the catalog: distinct (subject, object) pairs
        // cannot exceed sources-with-out-edges × sinks-with-in-edges.
        est = est.min(cat.reachable_pairs(req.subject.class, req.object.class) as f64);
    }
    // Results are DISTINCT (subject, object[, final event]) bindings:
    // bounded by the candidate cross product.
    est = est.min(start.max(1.0) * end.max(1.0));
    if req.subject.id_in.is_some() || req.object.id_in.is_some() {
        // Seeded-candidate floor: the scheduler only seeds an endpoint
        // after an earlier pattern matched it, so a vanishing estimate is
        // overconfident — never drop below one expected row.
        est = est.max(1.0);
    }
    est
}

/// Decomposed estimate: exact cataloged walk counts per hop length joined
/// with the endpoint candidate fractions and the final-hop operation
/// selectivity; hop counts beyond [`CATALOG_K`] extrapolate geometrically
/// from the cataloged `walks(K)/walks(K-1)` ratio.
fn decomposition_estimate(
    req: &PathPatternQuery,
    stats: &StoreStats,
    cat: &PathCatalog,
    lo: u32,
    hi: u32,
) -> f64 {
    let (c, d) = (req.subject.class, req.object.class);
    let class_nodes = |cl: EntityClass| stats.degree(cl).map_or(0, |ds| ds.nodes).max(1) as f64;
    let subj_frac = (entity_count(stats, &req.subject) / class_nodes(c)).min(1.0);
    let obj_frac = if req.subject_is_object {
        // The path must close back on its start node.
        1.0 / class_nodes(d)
    } else {
        (entity_count(stats, &req.object) / class_nodes(d)).min(1.0)
    };
    let final_sel = match &req.final_hop_pred {
        Some(p) => final_hop_selectivity(p, cat, d, stats),
        None => 1.0,
    };
    let wk1 = cat.walks(CATALOG_K - 1, c, d) as f64;
    let wk = cat.walks(CATALOG_K, c, d) as f64;
    let ratio = if wk1 > 0.0 {
        wk / wk1
    } else {
        stats.total_edges() as f64 / stats.total_nodes().max(1) as f64
    };
    let mut total = 0.0;
    for k in lo..=hi {
        total += if k <= CATALOG_K {
            cat.walks(k, c, d) as f64
        } else {
            wk * ratio.powi((k - CATALOG_K) as i32)
        };
    }
    total * final_sel * subj_frac * obj_frac
}

/// Selectivity of a final-hop predicate: `optype` equality atoms are
/// answered **exactly** from the catalog's per-(class, optype, class) edge
/// counts restricted to edges landing on the object class; everything else
/// falls back to the events-table column statistics.
fn final_hop_selectivity(
    pred: &Pred,
    cat: &PathCatalog,
    d: EntityClass,
    stats: &StoreStats,
) -> f64 {
    let into = cat.edges_into_class(d).max(1) as f64;
    let op_frac = |v: &Value| -> Option<f64> {
        let sym = v.as_sym()?;
        // `%` wildcards carry LIKE semantics: not an exact op lookup.
        if stats.dict().resolve(sym).contains('%') {
            return None;
        }
        Some(cat.op_into_class(sym, d) as f64 / into)
    };
    let sel = match pred {
        Pred::Cmp { attr, op: CmpOp::Eq, value } if attr == "optype" => match op_frac(value) {
            Some(f) => f,
            None => fallback_selectivity(pred, stats),
        },
        Pred::Cmp { attr, op: CmpOp::Ne, value } if attr == "optype" => match op_frac(value) {
            Some(f) => 1.0 - f,
            None => fallback_selectivity(pred, stats),
        },
        Pred::InSet { attr, negated, values } if attr == "optype" => {
            match values.iter().map(op_frac).collect::<Option<Vec<f64>>>() {
                Some(fs) => {
                    let f: f64 = fs.iter().sum::<f64>().clamp(0.0, 1.0);
                    if *negated {
                        1.0 - f
                    } else {
                        f
                    }
                }
                None => fallback_selectivity(pred, stats),
            }
        }
        Pred::And(a, b) => {
            final_hop_selectivity(a, cat, d, stats) * final_hop_selectivity(b, cat, d, stats)
        }
        Pred::Or(a, b) => {
            let (sa, sb) =
                (final_hop_selectivity(a, cat, d, stats), final_hop_selectivity(b, cat, d, stats));
            sa + sb - sa * sb
        }
        Pred::Not(inner) => 1.0 - final_hop_selectivity(inner, cat, d, stats),
        other => fallback_selectivity(other, stats),
    };
    sel.clamp(0.0, 1.0)
}

fn fallback_selectivity(pred: &Pred, stats: &StoreStats) -> f64 {
    stats.table("events").map_or(1.0, |t| selectivity(t, pred, stats.dict()))
}

/// The pre-catalog estimator, kept as the cold/disabled-catalog fallback:
/// degree-power expansion over the adjacency summaries.
fn degree_power_estimate(req: &PathPatternQuery, stats: &StoreStats, lo: u32, hi: u32) -> f64 {
    let total_nodes = stats.total_nodes().max(1) as f64;
    let total_edges = stats.total_edges() as f64;
    let start = entity_count(stats, &req.subject);
    let end = entity_count(stats, &req.object);
    // First hop: the subject class's mean out-degree; later hops: the
    // store-wide mean (intermediate nodes are unlabeled).
    let first_fanout = stats.degree(req.subject.class).map_or(0.0, |d| d.avg_out());
    let fanout = total_edges / total_nodes;
    let final_sel = match &req.final_hop_pred {
        Some(p) => stats.table("events").map_or(1.0, |t| selectivity(t, p, stats.dict())),
        None => 1.0,
    };
    let end_frac = if req.subject_is_object {
        // The path must close back on its start node.
        1.0 / total_nodes
    } else {
        (end / total_nodes).min(1.0)
    };
    let mut total = 0.0;
    let mut frontier = start * first_fanout;
    for h in 1..=hi {
        if h >= lo {
            total += frontier * final_sel * end_frac;
        }
        frontier *= fanout;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use raptor_storage::EntityClass;

    /// Records one row of `table` from named string cells.
    fn row(s: &mut StoreStats, table: &str, cells: &[(&str, raptor_common::Sym)]) {
        let t = s.table_ord(table);
        let t = s.table_at(t);
        let cells: Vec<_> = cells.iter().map(|&(c, v)| (t.column_ord(c), Value::Str(v))).collect();
        t.record_row(cells);
    }

    /// 10 processes, 5 files; 100 events: 80 file reads, 15 file writes,
    /// 5 network connects.
    fn stats() -> StoreStats {
        let mut s = StoreStats::default();
        for id in 0..10 {
            s.record_node(EntityClass::Process, id);
            let exe = s.dict().intern(if id == 0 { "/usr/bin/gpg" } else { "/bin/noise" });
            row(&mut s, "processes", &[("exename", exe)]);
        }
        for id in 10..15 {
            s.record_node(EntityClass::File, id);
            row(&mut s, "files", &[]);
        }
        for i in 0..100u32 {
            let (op, kind) = match i {
                0..=79 => ("read", "file"),
                80..=94 => ("write", "file"),
                _ => ("connect", "network"),
            };
            let (op, kind) = (s.dict().intern(op), s.dict().intern(kind));
            row(&mut s, "events", &[("optype", op), ("kind", kind)]);
            s.record_edge((i % 10) as i64, 10 + (i % 5) as i64, Some(op));
        }
        s
    }

    fn op_eq(s: &StoreStats, op: &str) -> Pred {
        Pred::Cmp { attr: "optype".into(), op: CmpOp::Eq, value: Value::Str(s.dict().intern(op)) }
    }

    #[test]
    fn frequency_drives_event_estimates() {
        let s = stats();
        let base = |op: &str| EventPatternQuery {
            subject: EntitySel::of(EntityClass::Process, None),
            object: EntitySel::of(EntityClass::File, None),
            event_pred: Some(op_eq(&s, op)),
            subject_is_object: false,
        };
        let reads = estimate_event_pattern(&base("read"), &s);
        let writes = estimate_event_pattern(&base("write"), &s);
        assert!(reads > writes, "{reads} vs {writes}");
        // 100 events × 0.95 kind=file × 0.8 optype=read.
        assert!((reads - 76.0).abs() < 1e-6, "{reads}");
    }

    #[test]
    fn seeded_candidates_sharpen_estimates() {
        let s = stats();
        let mut subject = EntitySel::of(EntityClass::Process, None);
        subject.id_in = Some(vec![0]);
        let q = EventPatternQuery {
            subject,
            object: EntitySel::of(EntityClass::File, None),
            event_pred: Some(op_eq(&s, "read")),
            subject_is_object: false,
        };
        let est = estimate_event_pattern(&q, &s);
        // One of ten processes: a tenth of the unseeded estimate.
        assert!(est < 10.0, "{est}");
    }

    fn path(s: &StoreStats, max: Option<u32>) -> PathPatternQuery {
        PathPatternQuery {
            subject: EntitySel::of(EntityClass::Process, None),
            object: EntitySel::of(EntityClass::File, None),
            min_hops: 1,
            max_hops: max,
            hop_cap: 16,
            final_hop_pred: Some(op_eq(s, "read")),
            want_event: true,
            subject_is_object: false,
        }
    }

    /// With a warm catalog the estimator *knows* files dead-end (no
    /// process→…→file walk is longer than one hop in this fixture), so
    /// extra hop budget no longer inflates the estimate — and everything
    /// is clamped at the observed reachable-pair count (10×5 = 50).
    #[test]
    fn catalog_decomposition_sees_dead_ends() {
        let s = stats();
        assert!(s.catalog().is_warm());
        let one = estimate_path_pattern(&path(&s, Some(1)), &s);
        let four = estimate_path_pattern(&path(&s, Some(4)), &s);
        assert!(one > 0.0);
        assert!((four - one).abs() < 1e-9, "{four} vs {one}");
        assert!(one <= 50.0 + 1e-9, "{one}");
        let unbounded = estimate_path_pattern(&path(&s, None), &s);
        assert!(unbounded.is_finite());
        assert!(unbounded <= 50.0 + 1e-9, "{unbounded}");
    }

    /// Multi-hop connectivity *is* credited when the catalog has walks: a
    /// sparse process chain ending in one file read gains estimate with
    /// every hop of budget, while staying under the reachable-pair cap.
    #[test]
    fn catalog_decomposition_grows_with_real_walks() {
        let mut s = StoreStats::default();
        for id in 0..10 {
            s.record_node(EntityClass::Process, id);
            row(&mut s, "processes", &[]);
        }
        for id in 10..15 {
            s.record_node(EntityClass::File, id);
            row(&mut s, "files", &[]);
        }
        // Chain 0→1→2→3 (fork), then 3→10 (read).
        for (u, v, op) in [(0i64, 1i64, "fork"), (1, 2, "fork"), (2, 3, "fork"), (3, 10, "read")] {
            let op = s.dict().intern(op);
            row(&mut s, "events", &[("optype", op)]);
            s.record_edge(u, v, Some(op));
        }
        let one = estimate_path_pattern(&path(&s, Some(1)), &s);
        let four = estimate_path_pattern(&path(&s, Some(4)), &s);
        assert!(one > 0.0);
        assert!(four > one, "{four} vs {one}");
    }

    /// The cold-catalog fallback keeps the old degree-power behaviour —
    /// estimates grow with hops — but is now clamped by the candidate
    /// cross product and floored at one row when an endpoint is seeded.
    #[test]
    fn degree_power_fallback_is_clamped() {
        let mut s = stats();
        // An empty catalog is what a store holds before its first edge.
        *s.catalog_mut() = raptor_storage::PathCatalog::new();
        assert!(!s.catalog().is_warm());
        let one = estimate_path_pattern(&path(&s, Some(1)), &s);
        let four = estimate_path_pattern(&path(&s, Some(4)), &s);
        assert!(one > 0.0);
        assert!(four > one, "{four} vs {one}");
        // The cross-product cap keeps unbounded paths finite.
        let unbounded = estimate_path_pattern(&path(&s, None), &s);
        assert!(unbounded.is_finite());
        assert!(unbounded <= 10.0 * 5.0 + 1e-9, "{unbounded}");
        // Seeded-candidate floor: seeds exist because earlier patterns
        // matched, so the estimate never collapses to zero.
        let mut seeded = path(&s, Some(1));
        seeded.subject.id_in = Some(vec![7]);
        seeded.final_hop_pred = Some(op_eq(&s, "no-such-op"));
        let est = estimate_path_pattern(&seeded, &s);
        assert!(est >= 1.0, "{est}");
    }

    #[test]
    fn q_error_is_finite_even_on_empty_results() {
        let pe = PatternEstimate {
            pattern: "e1".into(),
            is_path: false,
            estimated_rows: Some(0.0),
            syntactic_score: 100,
            actual_rows: Some(0),
        };
        assert_eq!(pe.q_error(), Some(1.0));
        let pe = PatternEstimate { estimated_rows: Some(8.0), actual_rows: Some(2), ..pe };
        assert_eq!(pe.q_error(), Some(4.0));
        let pe = PatternEstimate { actual_rows: None, ..pe };
        assert_eq!(pe.q_error(), None);
    }
}
