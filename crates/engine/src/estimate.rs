//! Pricing for the cost-based scheduler: counted, not estimated.
//!
//! The paper's scheduler orders patterns by a *syntactic* pruning score,
//! which cannot tell a selective `exename = '/usr/bin/gpg'` from a
//! near-useless `name like '%'`. The cost-based order prices each event
//! pattern from the relational store's indexes instead
//! ([`raptor_relstore::Database::event_pattern_price`]: `|events| × Π
//! (count_i / |events|)` over the conjuncts an index serves, the seeded
//! `subject IN` / `object IN` ids among them — exact for one conjunct,
//! never above any single one's count). Entity seeding has already run, so
//! the seeds are exact candidate sets (execution-result-constrained
//! ordering). Nothing is maintained for this on the write path.
//!
//! Path patterns carry no price: they run after every event pattern, in
//! the paper's syntactic order, and no bounded BFS or scan runs at plan
//! time.
//!
//! Prices and the measured actual rows are both recorded in `EngineStats`
//! ([`PatternEstimate`]), so the scheduler's **Q-error** is observable on
//! every query.

use raptor_common::error::Result;
use raptor_common::hash::FxHashMap;
use raptor_relstore::Database;
use raptor_tbql::analyze::AnalyzedQuery;

use crate::compile::{class_for_type, Request};
use crate::schedule::execution_order;

/// One pattern's cost-model record: the price the scheduler ordered by and
/// the actual row count observed during execution.
#[derive(Clone, Debug, PartialEq)]
pub struct PatternEstimate {
    /// The pattern id (`as evtN` / generated `_evtN`).
    pub pattern: String,
    /// Path pattern (graph backend) vs event pattern (relational backend).
    pub is_path: bool,
    /// The counted price, as conditioned when the pattern was picked;
    /// `None` for path patterns and whenever the syntactic score ordered.
    pub estimated_rows: Option<f64>,
    /// The paper's syntactic pruning score, always computed (the fallback
    /// signal and the baseline the cost model is measured against).
    pub syntactic_score: i64,
    /// Rows the executed data query actually returned; `None` when the
    /// pattern was skipped (an earlier pattern short-circuited the query).
    pub actual_rows: Option<usize>,
}

impl PatternEstimate {
    /// The price's Q-error for this pattern: `max(est/actual, actual/est)`
    /// with both sides floored at 0.5 so empty results stay finite. `None`
    /// until both numbers exist.
    pub fn q_error(&self) -> Option<f64> {
        let est = self.estimated_rows?.max(0.5);
        let actual = (self.actual_rows? as f64).max(0.5);
        Some((est / actual).max(actual / est))
    }
}

/// The cost-based order of `aq`'s patterns: event patterns by counted
/// price, greedily — the cheapest remaining one next, then every unpicked
/// one sharing one of its variables *conditioned*, since an executed
/// pattern bounds the shared variable's distinct candidates by its own
/// output, as `IN`-propagation will at run time; ties by syntactic score,
/// then query order. Path patterns follow in the syntactic order. Each
/// event pattern is priced from its request (`requests[i]` is pattern
/// `i`'s, built after seeding), and its conditioned price goes into
/// `estimates`.
pub(crate) fn cost_based_order(
    rel: &Database,
    aq: &AnalyzedQuery,
    requests: &[Request],
    estimates: &mut [PatternEstimate],
) -> Result<Vec<usize>> {
    let class_rows = |v: &str| {
        let table = class_for_type(aq.entities[v].ty).table_name();
        rel.table(table).map_or(0, |t| t.len()).max(1) as f64
    };
    let mut price = vec![0.0; aq.patterns.len()];
    let mut sides: Vec<[(&str, f64); 2]> = Vec::with_capacity(aq.patterns.len());
    for (i, (p, req)) in aq.patterns.iter().zip(requests).enumerate() {
        if let Request::Event(q) = req {
            price[i] = rel.event_pattern_price(q)?;
        }
        sides.push([
            (p.subject.as_str(), class_rows(&p.subject)),
            (p.object.as_str(), class_rows(&p.object)),
        ]);
    }
    let mut bound: FxHashMap<&str, f64> = FxHashMap::default();
    let conditioned = |i: usize, bound: &FxHashMap<&str, f64>| -> f64 {
        let mut est = price[i];
        let [(sv, sr), (ov, or)] = sides[i];
        if let Some(b) = bound.get(sv) {
            est *= (b / sr).min(1.0);
        }
        // A self-loop pattern's one variable conditions once.
        if ov != sv {
            if let Some(b) = bound.get(ov) {
                est *= (b / or).min(1.0);
            }
        }
        est
    };
    let mut remaining: Vec<usize> =
        (0..aq.patterns.len()).filter(|&i| !aq.patterns[i].is_path()).collect();
    let mut order = Vec::with_capacity(aq.patterns.len());
    while !remaining.is_empty() {
        let (pos, _) = remaining
            .iter()
            .enumerate()
            .min_by(|&(_, &a), &(_, &b)| {
                conditioned(a, &bound)
                    .total_cmp(&conditioned(b, &bound))
                    .then(estimates[b].syntactic_score.cmp(&estimates[a].syntactic_score))
                    .then(a.cmp(&b))
            })
            .expect("non-empty");
        let i = remaining.swap_remove(pos);
        let est = conditioned(i, &bound);
        estimates[i].estimated_rows = Some(est);
        for (v, _) in sides[i] {
            let b = bound.entry(v).or_insert(f64::INFINITY);
            *b = b.min(est);
        }
        order.push(i);
    }
    order.extend(execution_order(aq).into_iter().filter(|&i| aq.patterns[i].is_path()));
    Ok(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use raptor_audit::EntityAttrs;
    use raptor_storage::{CmpOp, EntityClass, EntitySel, EventPatternQuery, Pred, Value};

    use crate::load::{self, tests::sample_log};

    fn files_by(stores: &load::LoadedStores, op: Option<&str>) -> EventPatternQuery {
        let optype = |name| Pred::Cmp {
            attr: "optype".into(),
            op: CmpOp::Eq,
            value: Value::Str(stores.dict.intern(name)),
        };
        EventPatternQuery {
            subject: EntitySel::of(EntityClass::Process, None),
            object: EntitySel::of(EntityClass::File, None),
            event_pred: op.map(optype),
            subject_is_object: false,
        }
    }

    /// One priced conjunct prices exactly its rows: the events of each
    /// operation, read from the `optype` postings.
    #[test]
    fn frequency_drives_event_estimates() {
        let log = sample_log();
        let stores = load::load(&log).unwrap();
        for op in ["read", "write"] {
            let events = log.events.iter().filter(|e| e.op.name() == op).count() as f64;
            assert!(events > 0.0, "{op}");
            let price = stores.rel.event_pattern_price(&files_by(&stores, Some(op))).unwrap();
            assert!((price - events).abs() < 1e-9, "{op}: {price} vs {events}");
        }
        // No conjunct an index serves: every event.
        let all = stores.rel.event_pattern_price(&files_by(&stores, None)).unwrap();
        assert!((all - log.events.len() as f64).abs() < 1e-9, "{all}");
    }

    /// A seeded endpoint is one more counted conjunct: alone it prices the
    /// seed's events exactly, and beside the operation it never prices
    /// above either count.
    #[test]
    fn seeded_candidates_sharpen_estimates() {
        let log = sample_log();
        let stores = load::load(&log).unwrap();
        let tar = log
            .entities
            .iter()
            .position(|e| matches!(&e.attrs, EntityAttrs::Process(p) if p.exename == "/bin/tar"))
            .unwrap();
        let by_tar = log.events.iter().filter(|e| e.subject.index() == tar).count() as f64;
        let reads = log.events.iter().filter(|e| e.op.name() == "read").count() as f64;
        let seeded = |op| {
            let mut q = files_by(&stores, op);
            q.subject.id_in = Some(vec![tar as i64]);
            stores.rel.event_pattern_price(&q).unwrap()
        };
        assert!((seeded(None) - by_tar).abs() < 1e-9, "{} vs {by_tar}", seeded(None));
        let both = seeded(Some("read"));
        assert!(both > 0.0 && both <= by_tar.min(reads) + 1e-9, "{both}");
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
