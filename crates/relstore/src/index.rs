//! Secondary indexes.
//!
//! The paper creates indexes "on key attributes (e.g., file name, process
//! executable name, source/destination IP) for both databases to speed up
//! the search". Three kinds cover the compiled data queries:
//!
//! * [`HashIndex`] — equality lookups (`col = v`, `col IN (...)`, and the
//!   scheduler's injected `IN` filters),
//! * [`BTreeIndex`] — range scans over integer/time columns (TBQL windows),
//! * [`TrigramIndex`] — `LIKE` pruning: maps byte trigrams of *dictionary
//!   strings* to the interned symbols containing them, so a `LIKE` whose
//!   pattern holds a literal run of ≥ 3 bytes (between any wildcards, `%`
//!   or `_`) is tested only on the symbols under that run's rarest
//!   trigram, then fans out to rows via the hash index.

use raptor_common::hash::FxHashMap;
use raptor_common::intern::{SharedDict, Sym};
use raptor_storage::Posting;
use std::collections::hash_map::Entry;
use std::collections::BTreeMap;

use crate::table::RowId;
use crate::value::Value;

/// Equality index: value → row ids (insertion order).
#[derive(Debug, Default)]
pub struct HashIndex {
    map: FxHashMap<Value, Posting<RowId>>,
}

impl HashIndex {
    /// Adds `row` under `v`; true if `v` is a new key.
    pub fn insert(&mut self, v: Value, row: RowId) -> bool {
        let entry = self.map.entry(v);
        let new = matches!(entry, Entry::Vacant(_));
        entry.and_modify(|p| p.push(row)).or_insert(Posting::One(row));
        new
    }

    pub fn get(&self, v: Value) -> &[RowId] {
        self.map.get(&v).map_or(&[], Posting::as_slice)
    }

    pub fn distinct_keys(&self) -> usize {
        self.map.len()
    }

    /// The string keys: over a string column, its dictionary.
    pub(crate) fn syms(&self) -> impl Iterator<Item = Sym> + '_ {
        self.map.keys().filter_map(Value::as_sym)
    }
}

/// Ordered index over integer (or time) keys.
#[derive(Debug, Default)]
pub struct BTreeIndex {
    map: BTreeMap<i64, Posting<RowId>>,
}

impl BTreeIndex {
    pub fn insert(&mut self, key: i64, row: RowId) {
        self.map.entry(key).and_modify(|p| p.push(row)).or_insert(Posting::One(row));
    }

    /// The postings of the keys in `[lo, hi]` (inclusive), in key order:
    /// disjoint, each ascending, together not (a reader that wants row
    /// order sorts their union).
    pub fn range(&self, lo: i64, hi: i64) -> impl Iterator<Item = &[RowId]> {
        self.map.range(lo..=hi).map(|(_, v)| v.as_slice())
    }
}

/// Extracts the byte-trigram set of a string (no padding; strings shorter
/// than 3 bytes produce nothing and are never pruned by the index).
fn trigrams(s: &str) -> impl Iterator<Item = [u8; 3]> + '_ {
    s.as_bytes().windows(3).map(|w| [w[0], w[1], w[2]])
}

/// Trigram index over the string dictionary.
///
/// Maintained per *column*: `add_sym` is called once for each distinct
/// symbol of the column — when the column's hash index first sees it, or
/// for each of its string keys when the trigram index is built. The
/// candidates of a needle — any literal run of a `LIKE` pattern
/// ([`containment_literal`](crate::like::containment_literal)), not only
/// the `lit` of `'%lit%'` — are the posting list of its rarest trigram:
/// every string holding the needle holds each of its trigrams, so any one
/// list is a superset of the matches, and the shortest is the tightest of
/// them. Callers must still test the pattern on each candidate (trigram
/// containment is necessary, not sufficient).
#[derive(Debug, Default)]
pub struct TrigramIndex {
    postings: FxHashMap<[u8; 3], Vec<Sym>>,
}

impl TrigramIndex {
    /// Indexes a symbol not indexed before.
    pub fn add_sym(&mut self, sym: Sym, dict: &SharedDict) {
        for g in trigrams(dict.resolve(sym)) {
            let list = self.postings.entry(g).or_default();
            // A trigram repeated inside the string is listed once.
            if list.last() != Some(&sym) {
                list.push(sym);
            }
        }
    }

    /// Symbols whose strings *may* contain `needle`: the posting list of
    /// its rarest trigram, empty when some trigram is in no string. Needles
    /// shorter than 3 bytes return `None` (cannot prune).
    pub fn candidates(&self, needle: &str) -> Option<&[Sym]> {
        trigrams(needle)
            .map(|g| self.postings.get(&g).map_or(&[][..], Vec::as_slice))
            .min_by_key(|list| list.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_index_lookup() {
        let mut idx = HashIndex::default();
        idx.insert(Value::Int(5), 0);
        idx.insert(Value::Int(5), 3);
        idx.insert(Value::Int(7), 1);
        assert_eq!(idx.get(Value::Int(5)), &[0, 3]);
        assert_eq!(idx.get(Value::Int(9)), &[] as &[RowId]);
        assert_eq!(idx.distinct_keys(), 2);
    }

    #[test]
    fn btree_range() {
        let mut idx = BTreeIndex::default();
        for i in 0..100 {
            idx.insert(i, i as RowId);
        }
        let rows = |lo, hi| idx.range(lo, hi).flatten().copied().collect::<Vec<RowId>>();
        assert_eq!(rows(10, 12), vec![10, 11, 12]);
        assert_eq!(rows(99, 200), vec![99]);
        assert!(rows(200, 300).is_empty());
        assert_eq!(rows(0, 99).len(), 100);
    }

    #[test]
    fn trigram_candidates_contain_all_true_matches() {
        let dict = SharedDict::new();
        let mut idx = TrigramIndex::default();
        let strings = [
            "/bin/tar",
            "/usr/bin/tar",
            "/bin/bzip2",
            "/usr/bin/gpg",
            "/tmp/upload.tar",
            "/tmp/upload.tar.bz2",
            "/etc/passwd",
            "/tmp/bin.tgz",
            "/opt/xab-abc",
        ];
        let syms: Vec<Sym> = strings.iter().map(|s| dict.intern(s)).collect();
        for &s in &syms {
            idx.add_sym(s, &dict);
        }
        for needle in ["tar", "bin/", "/bin/tar", "upload.tar.bz", "/tmp/", "passwd", "xabc"] {
            let cands = idx.candidates(needle).unwrap();
            // Everything containing the needle is among the candidates.
            for (s, sym) in strings.iter().zip(&syms) {
                if s.contains(needle) {
                    assert!(cands.contains(sym), "{needle}: {s} missing");
                }
            }
            // No more than the rarest trigram's list: as many candidates as
            // strings hold that trigram.
            let rarest = trigrams(needle)
                .map(|g| strings.iter().filter(|s| trigrams(s).any(|h| h == g)).count())
                .min()
                .unwrap();
            assert_eq!(cands.len(), rarest, "{needle}");
        }
        // A candidate may lack the needle: "/opt/xab-abc" holds both
        // trigrams of "xabc", apart.
        assert_eq!(idx.candidates("xabc"), Some(&[syms[8]][..]));
    }

    #[test]
    fn trigram_short_needle_cannot_prune() {
        let dict = SharedDict::new();
        let mut idx = TrigramIndex::default();
        idx.add_sym(dict.intern("abc"), &dict);
        assert_eq!(idx.candidates("ab"), None);
    }

    #[test]
    fn trigram_unknown_needle_gives_empty() {
        let dict = SharedDict::new();
        let mut idx = TrigramIndex::default();
        idx.add_sym(dict.intern("/bin/tar"), &dict);
        assert_eq!(idx.candidates("zzzz"), Some(&[][..]));
        // One trigram nobody has empties the candidates.
        assert_eq!(idx.candidates("/bin/taz"), Some(&[][..]));
    }

    #[test]
    fn repeated_trigram_listed_once() {
        let dict = SharedDict::new();
        let mut idx = TrigramIndex::default();
        let s = dict.intern("aaaaaa");
        idx.add_sym(s, &dict);
        assert_eq!(idx.candidates("aaaa"), Some(&[s][..]));
    }

    #[test]
    fn hash_insert_reports_new_keys() {
        let mut idx = HashIndex::default();
        assert!(idx.insert(Value::Int(5), 0));
        assert!(!idx.insert(Value::Int(5), 1));
        assert!(idx.insert(Value::Null, 2));
    }
}
