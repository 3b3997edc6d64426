//! Regenerates `tests/golden/catalog_extraction.txt` — the pinned extraction
//! output of the 18 catalog reports (see `raptor_bench::golden`).
//!
//! Run from the repo root: `cargo run --release -p raptor-bench --bin golden_extract`

fn main() {
    let out = raptor_bench::golden::extraction_golden();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden/catalog_extraction.txt");
    std::fs::write(path, &out).unwrap();
    println!("wrote {path} ({} bytes)", out.len());
}
