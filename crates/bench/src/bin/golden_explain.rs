//! Regenerates `tests/golden/corpus_explain.txt` — the pinned EXPLAIN and
//! stable-redacted EXPLAIN ANALYZE trees of the 8-query equivalence corpus.
//!
//! The golden file pins the *plan*: scheduler choice, execution order, seed
//! candidate counts, per-pattern cost estimates, and (under
//! `Redact::Stable`) the actual rows / Q-error / access path per pattern.
//! Wall times and scan volume counters are redacted to `~`, so the
//! `golden_corpus_explain` test in `tests/explain_golden.rs` can assert the
//! rendering is byte-identical from run to run.
//!
//! Run from the repo root: `cargo run --release -p raptor-bench --bin golden_explain`

use raptor_bench::corpus::{corpus_explain, corpus_system};

fn main() {
    let out = corpus_explain(&corpus_system());
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden/corpus_explain.txt");
    std::fs::create_dir_all(std::path::Path::new(path).parent().unwrap()).unwrap();
    std::fs::write(path, &out).unwrap();
    println!("wrote {path} ({} bytes)", out.len());
}
