//! Allocation counts of the extraction path, under a counting allocator:
//! scanning prose that holds no IOC and tagging a sentence allocate
//! nothing, tokenizing lowercase ASCII allocates only the token `Vec`, and
//! a whole report allocates little more than what `ExtractionOutput` keeps.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use raptor_cases::all_cases;
use raptor_extract::{extract, scan_iocs};
use raptor_nlp::{pos, tokenize, Token};

struct Counting;

thread_local! {
    /// Allocations made by this thread; tests run on threads of their own.
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocs<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// Twelve words, no IOC, mixed case and a sentence-final period.
const PROSE: &str =
    "After the lateral movement stage, The attacker attempts to steal valuable assets.";

#[test]
fn scanning_prose_without_iocs_allocates_nothing() {
    let (found, n) = allocs(|| scan_iocs(PROSE));
    assert!(found.is_empty());
    assert_eq!(n, 0, "{n} allocations scanning IOC-free prose");
}

#[test]
fn tagging_allocates_nothing() {
    let mut toks = tokenize::tokenize(PROSE, 0);
    assert_eq!(toks.len(), 14);
    let ((), n) = allocs(|| pos::tag(&mut toks));
    assert_eq!(n, 0, "{n} allocations tagging {} tokens", toks.len());
}

#[test]
fn tokenizing_lowercase_ascii_allocates_only_the_token_vec() {
    let text = "the attacker used something to read user credentials from something";
    let (toks, n) = allocs(|| tokenize::tokenize(text, 0));
    // The same tokens pushed one by one into a fresh `Vec`: borrowed tokens
    // clone without allocating, so this counts the `Vec`'s own growth.
    let (_, vec_growth) = allocs(|| {
        let mut v: Vec<Token> = Vec::new();
        for t in &toks {
            v.push(t.clone());
        }
        v
    });
    assert_eq!(n, vec_growth, "{n} allocations tokenizing {} tokens", toks.len());
}

#[test]
fn extracting_a_report_allocates_little_more_than_its_output() {
    let report = all_cases().into_iter().find(|c| c.id == "data_leak").unwrap().report;
    let (out, n) = allocs(|| extract(report));
    assert!(!out.graph.edges.is_empty());
    assert!(n <= 500, "{n} allocations extracting data_leak");
}

#[test]
fn catalog_mean_allocations_per_report() {
    let cases = all_cases();
    let (_, n) = allocs(|| cases.iter().map(|c| extract(c.report).triples.len()).sum::<usize>());
    let mean = n as f64 / cases.len() as f64;
    assert!(mean <= 200.0, "{mean:.1} allocations per catalog report");
}
