//! Regenerates `tests/golden/tables_6_10.txt` — Tables VI and X of the
//! default harness, which `tests/tables_golden.rs` asserts byte-identical.
//!
//! Run from the repo root: `cargo run --release -p raptor-bench --bin golden_tables`

fn main() {
    let out = raptor_bench::tables::tables_golden();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden/tables_6_10.txt");
    if let Err(e) = std::fs::write(path, &out) {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {path} ({} bytes)", out.len());
}
