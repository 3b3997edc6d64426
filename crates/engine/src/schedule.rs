//! Data-query scheduling (Section III-F).
//!
//! "For each TBQL pattern, ThreatRaptor computes a pruning score by counting
//! the number of constraints declared; a TBQL pattern with more constraints
//! has a higher score. For a variable-length event path pattern, we
//! additionally consider the length of the path ...; a pattern with a
//! smaller maximum path length has a higher score. Then ... if two TBQL
//! patterns have dependencies (e.g., connected by the same system entity),
//! ThreatRaptor will first execute the data query whose associated pattern
//! has a higher pruning score, and then use the execution results to
//! constrain the execution of the other data query."
//!
//! That syntactic score is now the **fallback**. The default scheduler is
//! *cost-based*: each pattern's output cardinality is estimated from the
//! maintained store statistics (see [`crate::estimate`]) and
//! `Engine::plan_order` greedily runs the cheapest remaining pattern next —
//! the most selective data query first, so its results prune everything
//! after it — conditioning the estimates of the patterns that share its
//! variables as it goes. Ties (and the whole
//! order, when stats are absent) fall back to the syntactic score; at equal
//! scores event patterns run before path patterns (one scan of `events`
//! with an id probe per endpoint is cheaper than a graph traversal), then
//! query order keeps runs deterministic. Reordering can never change results — only the size of
//! the propagated `IN` sets — which the order-invariance proptest pins.

use raptor_common::hash::FxHashMap;
use raptor_tbql::analyze::{APattern, AnalyzedQuery};
use raptor_tbql::{Arrow, AttrExpr, OpExpr, PatternOp};

/// How the scheduled executor orders its per-pattern data queries.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SchedulerMode {
    /// Ascending estimated output cardinality from the relational store's
    /// statistics (`Database::store_stats`);
    /// falls back to [`SchedulerMode::Syntactic`] when the stores carry no
    /// statistics (empty stores).
    #[default]
    CostBased,
    /// The paper's syntactic pruning score only.
    Syntactic,
}

/// Counts constraint atoms in an attribute expression.
fn attr_atoms(e: &AttrExpr) -> i64 {
    match e {
        AttrExpr::Bare { .. } | AttrExpr::Cmp { .. } | AttrExpr::InSet { .. } => 1,
        AttrExpr::And(a, b) | AttrExpr::Or(a, b) => attr_atoms(a) + attr_atoms(b),
    }
}

fn op_atoms(e: &OpExpr) -> i64 {
    match e {
        OpExpr::Op(_) => 1,
        OpExpr::Not(i) => op_atoms(i),
        OpExpr::And(a, b) | OpExpr::Or(a, b) => op_atoms(a) + op_atoms(b),
    }
}

/// Hop count assumed for unbounded paths when scoring.
const UNBOUNDED_PATH_LEN: u32 = 16;

/// The pruning score of a pattern within its query.
pub fn pruning_score(aq: &AnalyzedQuery, p: &APattern) -> i64 {
    let mut constraints = 0i64;
    for var in [&p.subject, &p.object] {
        if let Some(f) = &aq.entities[var.as_str()].filter {
            constraints += attr_atoms(f);
        }
    }
    match &p.op {
        PatternOp::Event(op) => constraints += op_atoms(op),
        PatternOp::Path { op, .. } => {
            if let Some(op) = op {
                constraints += op_atoms(op);
            }
        }
    }
    if let Some(f) = &p.event_filter {
        constraints += attr_atoms(f);
    }
    if p.window.is_some() {
        constraints += 1;
    }
    constraints += aq.global_windows.len() as i64;

    // Constraints dominate; path length is the penalty term.
    let length_penalty = match &p.op {
        PatternOp::Event(_) => 0,
        PatternOp::Path { arrow: Arrow::Single, .. } => 1,
        PatternOp::Path { max, .. } => max.unwrap_or(UNBOUNDED_PATH_LEN) as i64,
    };
    constraints * 100 - length_penalty
}

/// Syntactic execution order: pattern indices sorted by descending pruning
/// score. Ties prefer event patterns over path patterns (cheaper to
/// evaluate: an `events` scan with id probes vs a graph traversal), then
/// query order, keeping runs deterministic.
pub fn execution_order(aq: &AnalyzedQuery) -> Vec<usize> {
    let mut order: Vec<usize> = (0..aq.patterns.len()).collect();
    order.sort_by_key(|&i| (-pruning_score(aq, &aq.patterns[i]), aq.patterns[i].is_path(), i));
    order
}

/// Partitions an execution order into **dependency chains** — the
/// scheduler's propagation DAG collapsed to its connected components.
///
/// Two patterns depend on each other exactly when they share an entity
/// variable (that is the only edge along which intermediate results
/// propagate as `IN` filters), so patterns in *different* chains never
/// observe each other — an empty pattern short-circuits its own chain only
/// — while the given order is preserved *within* each chain. Chains are
/// returned in order of their first pattern's position in `order`, and
/// every chain lists its pattern indices as the order's subsequence.
pub fn dependency_chains(aq: &AnalyzedQuery, order: &[usize]) -> Vec<Vec<usize>> {
    // Union-find over pattern indices, linked through shared variables.
    let mut parent: Vec<usize> = (0..aq.patterns.len()).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    let mut var_owner: FxHashMap<&str, usize> = FxHashMap::default();
    for (i, p) in aq.patterns.iter().enumerate() {
        for var in [p.subject.as_str(), p.object.as_str()] {
            match var_owner.get(var) {
                Some(&j) => {
                    let (a, b) = (find(&mut parent, i), find(&mut parent, j));
                    parent[a] = b;
                }
                None => {
                    var_owner.insert(var, i);
                }
            }
        }
    }
    let mut chain_of_root: FxHashMap<usize, usize> = FxHashMap::default();
    let mut chains: Vec<Vec<usize>> = Vec::new();
    for &idx in order {
        let root = find(&mut parent, idx);
        let c = *chain_of_root.entry(root).or_insert_with(|| {
            chains.push(Vec::new());
            chains.len() - 1
        });
        chains[c].push(idx);
    }
    chains
}

#[cfg(test)]
mod tests {
    use super::*;
    use raptor_tbql::{analyze, parse_tbql};

    fn analyzed(text: &str) -> AnalyzedQuery {
        analyze(&parse_tbql(text).unwrap()).unwrap()
    }

    #[test]
    fn more_constraints_scores_higher() {
        let aq = analyzed(
            r#"proc p1["%/bin/tar%"] read file f1["%/etc/passwd%"] as e1
               proc p2 read file f2 as e2
               return f1"#,
        );
        let s1 = pruning_score(&aq, &aq.patterns[0]);
        let s2 = pruning_score(&aq, &aq.patterns[1]);
        assert!(s1 > s2, "{s1} vs {s2}");
        assert_eq!(execution_order(&aq), vec![0, 1]);
    }

    #[test]
    fn shorter_paths_score_higher() {
        let aq = analyzed(
            r#"proc p1["%x%"] ~>(~2)[read] file f1 as e1
               proc p2["%x%"] ~>(~8)[read] file f2 as e2
               return f1"#,
        );
        assert!(pruning_score(&aq, &aq.patterns[0]) > pruning_score(&aq, &aq.patterns[1]));
    }

    #[test]
    fn unbounded_path_scores_lowest() {
        let aq = analyzed(
            r#"proc p1["%x%"] ~>[read] file f1 as e1
               proc p2["%x%"] ~>(~4)[read] file f2 as e2
               return f1"#,
        );
        assert_eq!(execution_order(&aq), vec![1, 0]);
    }

    #[test]
    fn event_beats_path_at_equal_constraints() {
        let aq = analyzed(
            r#"proc p1["%x%"] ~>(~4)[read] file f1 as e1
               proc p2["%x%"] read file f2 as e2
               return f1"#,
        );
        assert_eq!(execution_order(&aq), vec![1, 0]);
    }

    #[test]
    fn tie_breaks_prefer_event_over_path() {
        // Exact score tie: the path has two constraint atoms but a length
        // penalty of 100 (200 − 100 = 100), the event has one atom (100).
        // The event pattern must run first despite its later query position.
        let aq = analyzed(
            r#"proc p["%x%"] ~>(~100)[read] file f as e1
               proc q read file g as e2
               return f"#,
        );
        assert_eq!(pruning_score(&aq, &aq.patterns[0]), pruning_score(&aq, &aq.patterns[1]));
        assert_eq!(execution_order(&aq), vec![1, 0]);
    }

    /// Pins the syntactic order on the shared 8-query equivalence corpus —
    /// the baseline the cost-based scheduler is measured against in the
    /// `bench_smoke` gate. Any change here is a scheduler-semantics change
    /// and must be deliberate.
    #[test]
    fn corpus_syntactic_order_pinned() {
        let expected: &[&[usize]] =
            &[&[0], &[0, 1], &[0, 1, 2], &[0, 1], &[0], &[0, 1], &[0], &[0]];
        assert_eq!(raptor_tbql::parser::EQUIV_CORPUS.len(), expected.len());
        for (q, want) in raptor_tbql::parser::EQUIV_CORPUS.iter().zip(expected) {
            let aq = analyzed(q);
            assert_eq!(execution_order(&aq), *want, "query: {q}");
        }
    }

    #[test]
    fn shared_entity_filter_counts_for_both_patterns() {
        // p is filtered once but constrains both patterns that use it.
        let aq = analyzed(
            r#"proc p["%tar%"] read file f1 as e1
               proc p write file f2 as e2
               proc q read file f3 as e3
               return f1"#,
        );
        assert!(pruning_score(&aq, &aq.patterns[1]) > pruning_score(&aq, &aq.patterns[2]));
    }

    #[test]
    fn chains_follow_shared_variables() {
        // f links e1+e2; e3 is independent; e4 joins e3's chain through q.
        let aq = analyzed(
            r#"proc p read file f as e1
               proc p2 write file f as e2
               proc q read file g as e3
               proc q connect ip i as e4
               return f"#,
        );
        assert_eq!(dependency_chains(&aq, &[0, 1, 2, 3]), vec![vec![0, 1], vec![2, 3]]);
        // Chains preserve the given order as a subsequence and appear in
        // first-pattern order.
        assert_eq!(dependency_chains(&aq, &[2, 1, 3, 0]), vec![vec![2, 3], vec![1, 0]]);
    }

    #[test]
    fn fully_connected_query_is_one_chain() {
        let aq = analyzed(
            r#"proc p read file f as e1
               proc p write file g as e2
               return f"#,
        );
        assert_eq!(dependency_chains(&aq, &[1, 0]), vec![vec![1, 0]]);
    }

    #[test]
    fn order_is_deterministic_under_ties() {
        let aq = analyzed(
            r#"proc a read file b as e1
               proc c read file d as e2
               return b"#,
        );
        assert_eq!(execution_order(&aq), vec![0, 1]);
    }
}
