//! Golden extraction output — what the text half of a hunt produces is part
//! of the determinism contract.
//!
//! `tests/golden/catalog_extraction.txt` pins entities, triples, graph
//! edges and synthesized TBQL for the 18 catalog reports with IOC protection
//! on and off, Table V, and a document of mixed-case and defanged IOC forms
//! (regenerate with `cargo run --release -p raptor-bench --bin golden_extract`).

#[test]
fn golden_catalog_extraction() {
    let golden = include_str!("golden/catalog_extraction.txt");
    let got = raptor_bench::golden::extraction_golden();
    let first_diff = got.lines().zip(golden.lines()).enumerate().find(|(_, (g, w))| g != w);
    if let Some((i, (g, w))) = first_diff {
        panic!("extraction golden diverges at line {}:\n  got:  {g}\n  want: {w}", i + 1);
    }
    assert_eq!(got.len(), golden.len(), "extraction golden differs in length");
}
