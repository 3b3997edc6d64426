//! Tables VI (hunting precision and recall) and X (query conciseness) are
//! part of the determinism contract: `tests/golden/tables_6_10.txt` pins
//! them (regenerate with `cargo run --release -p raptor-bench --bin
//! golden_tables`), so a change to either shows up as a golden diff.

#[test]
fn golden_tables_6_and_10() {
    let golden = include_str!("golden/tables_6_10.txt");
    assert_eq!(raptor_bench::tables::tables_golden(), golden, "Tables VI / X diverged from golden");
}
