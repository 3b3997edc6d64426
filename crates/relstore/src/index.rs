//! Secondary indexes.
//!
//! The paper creates indexes "on key attributes (e.g., file name, process
//! executable name, source/destination IP) for both databases to speed up
//! the search". Three kinds cover the compiled data queries:
//!
//! * [`HashIndex`] — equality lookups (`col = v`, `col IN (...)`, and the
//!   scheduler's injected `IN` filters),
//! * [`BTreeIndex`] — range scans over integer/time columns (TBQL windows),
//! * [`TrigramIndex`] — `LIKE '%lit%'` acceleration: maps character trigrams
//!   of *dictionary strings* to the interned symbols containing them, so a
//!   containment predicate first intersects posting lists over the (small)
//!   dictionary, then fans out to rows via the hash index.

use raptor_common::hash::FxHashMap;
use raptor_common::intern::{SharedDict, Sym};
use raptor_storage::Posting;
use std::collections::BTreeMap;

use crate::table::RowId;
use crate::value::Value;

/// Equality index: value → row ids (insertion order).
#[derive(Debug, Default)]
pub struct HashIndex {
    map: FxHashMap<Value, Posting<RowId>>,
}

impl HashIndex {
    pub fn insert(&mut self, v: Value, row: RowId) {
        self.map.entry(v).and_modify(|p| p.push(row)).or_insert(Posting::One(row));
    }

    pub fn get(&self, v: Value) -> &[RowId] {
        self.map.get(&v).map_or(&[], Posting::as_slice)
    }

    pub fn distinct_keys(&self) -> usize {
        self.map.len()
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

    /// Rows with key in `[lo, hi]` (inclusive).
    pub fn range(&self, lo: i64, hi: i64) -> Vec<RowId> {
        let mut out = Vec::new();
        for rows in self.map.range(lo..=hi).map(|(_, v)| v) {
            out.extend_from_slice(rows.as_slice());
        }
        out
    }
}

/// Extracts the byte-trigram set of a string (no padding; strings shorter
/// than 3 bytes produce nothing and are never pruned by the index).
fn trigrams(s: &str) -> impl Iterator<Item = [u8; 3]> + '_ {
    s.as_bytes().windows(3).map(|w| [w[0], w[1], w[2]])
}

/// Trigram index over the string dictionary.
///
/// Maintained per *column*: `add_sym` is called for every distinct symbol
/// that appears in the column. Candidate lookup intersects the posting lists
/// of the needle's trigrams; callers must still verify candidates (trigram
/// containment is necessary, not sufficient).
#[derive(Debug, Default)]
pub struct TrigramIndex {
    postings: FxHashMap<[u8; 3], Vec<Sym>>,
    indexed: raptor_common::FxHashSet<Sym>,
}

impl TrigramIndex {
    pub fn add_sym(&mut self, sym: Sym, dict: &SharedDict) {
        if !self.indexed.insert(sym) {
            return;
        }
        let s = dict.resolve(sym);
        let mut seen = raptor_common::FxHashSet::default();
        for g in trigrams(s) {
            if seen.insert(g) {
                self.postings.entry(g).or_default().push(sym);
            }
        }
    }

    /// Symbols whose strings *may* contain `needle` (needle must be ≥ 3
    /// bytes; shorter needles return `None` = cannot prune).
    pub fn candidates(&self, needle: &str) -> Option<Vec<Sym>> {
        if needle.len() < 3 {
            return None;
        }
        // Intersect posting lists, smallest first.
        let mut lists: Vec<&Vec<Sym>> = Vec::new();
        for g in trigrams(needle) {
            match self.postings.get(&g) {
                Some(l) => lists.push(l),
                None => return Some(Vec::new()), // a trigram nobody has
            }
        }
        lists.sort_by_key(|l| l.len());
        let mut result: raptor_common::FxHashSet<Sym> = lists[0].iter().copied().collect();
        for l in &lists[1..] {
            if result.is_empty() {
                break;
            }
            let set: raptor_common::FxHashSet<Sym> = l.iter().copied().collect();
            result.retain(|s| set.contains(s));
        }
        let mut v: Vec<Sym> = result.into_iter().collect();
        v.sort();
        Some(v)
    }

    pub fn indexed_count(&self) -> usize {
        self.indexed.len()
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
        assert_eq!(idx.range(10, 12), vec![10, 11, 12]);
        assert_eq!(idx.range(99, 200), vec![99]);
        assert!(idx.range(200, 300).is_empty());
        assert_eq!(idx.range(0, 99).len(), 100);
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
        ];
        let syms: Vec<Sym> = strings.iter().map(|s| dict.intern(s)).collect();
        for &s in &syms {
            idx.add_sym(s, &dict);
        }
        let cands = idx.candidates("tar").unwrap();
        // Everything containing "tar" must be among the candidates.
        for (i, s) in strings.iter().enumerate() {
            if s.contains("tar") {
                assert!(cands.contains(&syms[i]), "{s} missing");
            }
        }
        // Nothing without the trigrams sneaks in for this needle.
        for &c in &cands {
            assert!(dict.resolve(c).contains("tar"));
        }
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
        assert_eq!(idx.candidates("zzzz").unwrap(), Vec::<Sym>::new());
    }

    #[test]
    fn add_sym_is_idempotent() {
        let dict = SharedDict::new();
        let mut idx = TrigramIndex::default();
        let s = dict.intern("/bin/tar");
        idx.add_sym(s, &dict);
        idx.add_sym(s, &dict);
        assert_eq!(idx.indexed_count(), 1);
        assert_eq!(idx.candidates("/bin/tar").unwrap(), vec![s]);
    }
}
