//! Golden EXPLAIN / EXPLAIN ANALYZE trees — plan rendering is part of the
//! determinism contract.
//!
//! `tests/golden/corpus_explain.txt` pins the EXPLAIN and stable-redacted
//! EXPLAIN ANALYZE trees for the 8-query equivalence corpus (regenerate with
//! `cargo run --release -p raptor-bench --bin golden_explain`). This suite
//! asserts the rendering stays byte-identical across columnar segment
//! capacities: the plan (scheduler choice, order, seeds, estimates) and the
//! stable actuals (rows, Q-error, access path, index/full scan counts) must
//! not depend on how the tables are segmented. Volatile
//! fields (wall times, scan granularity counters) are redacted to `~` by
//! `Redact::Stable` and carry no bytes to disagree on.

use raptor_bench::corpus::{corpus_system, EQUIV_CORPUS};
use raptor_engine::Redact;
use std::fmt::Write as _;

fn render_all(raptor: &threatraptor::ThreatRaptor) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Golden EXPLAIN / EXPLAIN ANALYZE (Redact::Stable) trees for the\n\
         # equivalence corpus. Regenerate with:\n\
         #   cargo run --release -p raptor-bench --bin golden_explain\n\
         # Byte-identical across RAPTOR_THREADS and RAPTOR_SEGMENT_ROWS."
    );
    for (i, q) in EQUIV_CORPUS.iter().enumerate() {
        let _ = writeln!(out, "query {i}: {q}");
        out.push_str(&raptor.explain(q).unwrap());
        let (_, report) = raptor.explain_analyze(q, Redact::Stable).unwrap();
        out.push_str(&report);
    }
    out
}

#[test]
fn golden_corpus_explain() {
    let golden = include_str!("golden/corpus_explain.txt");
    let mut raptor = corpus_system();
    for segment_rows in [7usize, 4096] {
        raptor.set_segment_rows(segment_rows);
        let got = render_all(&raptor);
        assert_eq!(
            got, golden,
            "EXPLAIN rendering diverged from golden at segment_rows={segment_rows}"
        );
    }
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
