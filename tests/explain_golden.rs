//! Golden EXPLAIN / EXPLAIN ANALYZE trees — plan rendering is part of the
//! determinism contract.
//!
//! `tests/golden/corpus_explain.txt` pins the EXPLAIN and stable-redacted
//! EXPLAIN ANALYZE trees for the 8-query equivalence corpus (regenerate with
//! `cargo run --release -p raptor-bench --bin golden_explain`): the plan
//! (scheduler choice, order, seeds, estimates) and the stable actuals
//! (rows, Q-error, access path, index/full scan counts). Volatile fields
//! (wall times, scan volume counters) are redacted to `~` by
//! `Redact::Stable` and carry no bytes to disagree on.

use raptor_bench::corpus::{corpus_explain, corpus_system, EQUIV_CORPUS};

#[test]
fn golden_corpus_explain() {
    let golden = include_str!("golden/corpus_explain.txt");
    assert_eq!(corpus_explain(&corpus_system()), golden, "EXPLAIN rendering diverged from golden");
}

/// Plain EXPLAIN never executes patterns: rendering a plan twice is
/// idempotent and leaves no trace of execution in the stats it reports.
#[test]
fn explain_is_pure() {
    let raptor = corpus_system();
    for q in EQUIV_CORPUS {
        let a = raptor.explain(q).unwrap();
        let b = raptor.explain(q).unwrap();
        assert_eq!(a, b);
    }
}
