//! Join state, shared by the engine's cross-pattern join and the
//! relational store's SQL join.
//!
//! Both joins are left-deep: inputs bind one after another, and a tuple is
//! one row index per input bound so far. [`Tuples`] holds those indices in
//! one flat buffer; [`JoinIndex`] is the hash build side an input is
//! probed through. Neither allocates per tuple or per key.

use raptor_common::hash::FxHashMap;

/// Join state: one row index per joined input for each of `len` tuples,
/// stored flat with stride `width` (inputs join in order, so slot `k` is
/// input `k`'s row). Extending a tuple is a slice copy and filtering
/// compacts in place; no tuple owns an allocation.
pub struct Tuples {
    width: usize,
    len: usize,
    /// `None` while the tuples are exactly rows `0..len` of the first
    /// input in order, which is all a one-pattern query without `with`
    /// filters ever needs.
    data: Option<Vec<u32>>,
}

impl Tuples {
    /// The first input's rows `0..len`, in order.
    #[inline]
    pub fn identity(len: usize) -> Self {
        Tuples { width: 1, len, data: None }
    }

    /// The first input's rows `rows`, in that order.
    #[inline]
    pub fn new(rows: Vec<u32>) -> Self {
        Tuples { width: 1, len: rows.len(), data: Some(rows) }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Input `k`'s value of `col` in every tuple, in tuple order.
    pub fn gather<T: Copy>(&self, k: usize, col: &[T]) -> Vec<T> {
        match &self.data {
            None => col[..self.len].to_vec(),
            Some(d) => d.chunks_exact(self.width).map(|t| col[t[k] as usize]).collect(),
        }
    }

    /// `f` of input `k`'s row in every tuple, in tuple order.
    pub fn map<T>(&self, k: usize, mut f: impl FnMut(u32) -> T) -> Vec<T> {
        match &self.data {
            None => (0..self.len as u32).map(f).collect(),
            Some(d) => d.chunks_exact(self.width).map(|t| f(t[k])).collect(),
        }
    }

    /// Binds the next input: each tuple, in order, is followed by one
    /// extended copy per row `rows_for` yields for it.
    pub fn extend<I: Iterator<Item = u32>>(self, mut rows_for: impl FnMut(&[u32]) -> I) -> Tuples {
        let width = self.width;
        let flat = self.data.unwrap_or_else(|| (0..self.len as u32).collect());
        let mut data = Vec::with_capacity(flat.len() + flat.len() / width);
        for t in flat.chunks_exact(width) {
            for r in rows_for(t) {
                data.extend_from_slice(t);
                data.push(r);
            }
        }
        let len = data.len() / (width + 1);
        Tuples { width: width + 1, len, data: Some(data) }
    }

    /// Keeps the tuples satisfying `keep` (given each tuple's index and
    /// row indices), in order.
    pub fn retain(&mut self, mut keep: impl FnMut(usize, &[u32]) -> bool) {
        let (w, len) = (self.width, self.len);
        let data = self.data.get_or_insert_with(|| (0..len as u32).collect());
        let mut kept = 0;
        for i in 0..len {
            if keep(i, &data[i * w..(i + 1) * w]) {
                data.copy_within(i * w..(i + 1) * w, kept * w);
                kept += 1;
            }
        }
        data.truncate(kept * w);
        self.len = kept;
    }
}

/// Build side of a hash join over rows `0..n`: each key's first row, and
/// a chain from every row to the next row with the same key, so a key's
/// rows come out in ascending order without a vector per key.
pub struct JoinIndex<K> {
    head: FxHashMap<K, u32>,
    next: Vec<u32>,
}

impl<K: Eq + std::hash::Hash> JoinIndex<K> {
    const END: u32 = u32::MAX;

    pub fn build(n: usize, key_of: impl Fn(usize) -> K) -> Self {
        let mut head = FxHashMap::with_capacity_and_hasher(n, Default::default());
        let mut next = vec![Self::END; n];
        for i in (0..n).rev() {
            if let Some(h) = head.insert(key_of(i), i as u32) {
                next[i] = h;
            }
        }
        JoinIndex { head, next }
    }

    /// The rows with key `key`, ascending.
    #[inline]
    pub fn rows(&self, key: &K) -> impl Iterator<Item = u32> + '_ {
        let first = self.head.get(key).copied();
        std::iter::successors(first, |&r| Some(self.next[r as usize]).filter(|&n| n != Self::END))
    }
}
