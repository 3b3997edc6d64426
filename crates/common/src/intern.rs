//! String interning.
//!
//! Entity attributes (file paths, executable names, IPs) repeat massively in
//! audit data — one enterprise host produces millions of events over a few
//! thousand distinct strings. Both storage engines intern attribute strings
//! so rows hold 4-byte [`Sym`]s, comparisons are integer compares, and the
//! distinct-string dictionary can be scanned for `LIKE`/`CONTAINS`
//! acceleration.
//!
//! Two interners live here:
//!
//! * [`Interner`] — the plain single-owner interner (useful for tests and
//!   isolated tools),
//! * [`SharedDict`] — the **shared dictionary plane**: one concurrently
//!   readable dictionary hoisted above both storage backends, so equal
//!   strings from the relational and graph stores map to the *same* [`Sym`]
//!   and string equality is an integer compare across the whole query
//!   pipeline. Per-row reads ([`SharedDict::resolve`]) never lock, on any
//!   thread, while writes happen only on the (mutex-serialized) intern
//!   path.

use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};

use crate::hash::FxHashMap;

/// An interned string handle. Ordering follows insertion order, not
/// lexicographic order — value-plane comparisons therefore resolve through
/// the dictionary (`cmp_with`-style) instead of comparing handles.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Sym(pub u32);

impl Sym {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Append-only string interner (single owner).
#[derive(Default, Debug)]
pub struct Interner {
    map: FxHashMap<Box<str>, Sym>,
    strings: Vec<Box<str>>,
}

impl Interner {
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `s`, returning its stable handle.
    pub fn intern(&mut self, s: &str) -> Sym {
        if let Some(&sym) = self.map.get(s) {
            return sym;
        }
        let sym = Sym(self.strings.len() as u32);
        let boxed: Box<str> = s.into();
        self.strings.push(boxed.clone());
        self.map.insert(boxed, sym);
        sym
    }

    /// Looks up a handle without interning.
    pub fn get(&self, s: &str) -> Option<Sym> {
        self.map.get(s).copied()
    }

    /// Resolves a handle back to its string.
    ///
    /// # Panics
    /// Panics if `sym` was produced by a different interner.
    #[inline]
    pub fn resolve(&self, sym: Sym) -> &str {
        &self.strings[sym.index()]
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// Iterates over `(Sym, &str)` pairs in insertion order. Used by the
    /// storage layer to evaluate `LIKE` over the dictionary instead of over
    /// every row.
    pub fn iter(&self) -> impl Iterator<Item = (Sym, &str)> {
        self.strings.iter().enumerate().map(|(i, s)| (Sym(i as u32), s.as_ref()))
    }
}

/// First arena bucket capacity; bucket `i` holds `FIRST_BUCKET << i` slots.
const FIRST_BUCKET: usize = 1 << 10;
/// Bucket count. `FIRST_BUCKET * (2^BUCKETS - 1) > u32::MAX`, so every
/// 32-bit [`Sym`] is addressable.
const BUCKETS: usize = 23;

/// One published string: a raw view into the `Box<str>` owned by the map.
/// The map is append-only and never drops entries, so the bytes are stable
/// for the dictionary's lifetime even when the map itself rehashes (moving
/// the `Box`es moves pointers-to-bytes, not the bytes).
#[derive(Clone, Copy)]
struct Slot {
    ptr: *const u8,
    len: usize,
}

struct DictInner {
    /// string → handle, guarded for lookups/interning. `resolve` never
    /// touches it.
    map: RwLock<FxHashMap<Box<str>, Sym>>,
    /// Published entry count. Slots `< len` are immutable and safe to read;
    /// the `Release` store here is what publishes each slot write.
    len: AtomicUsize,
    /// Sharded append-only arena: bucket `i` is a heap array of
    /// `FIRST_BUCKET << i` slots, allocated once and never moved, so
    /// resolving is two relaxed-ish loads and an index — no locks.
    buckets: [AtomicPtr<MaybeUninit<Slot>>; BUCKETS],
}

// SAFETY: all mutation is serialized behind the map's write lock; readers
// only dereference slots published by a `Release` store of `len` that they
// observed with `Acquire`. The raw pointers view heap bytes owned by the
// append-only map.
unsafe impl Send for DictInner {}
unsafe impl Sync for DictInner {}

/// Bucket and in-bucket offset of global index `k`.
#[inline]
fn locate(k: usize) -> (usize, usize) {
    let q = k / FIRST_BUCKET + 1;
    let bucket = (usize::BITS - 1 - q.leading_zeros()) as usize;
    let offset = k - FIRST_BUCKET * ((1 << bucket) - 1);
    (bucket, offset)
}

#[inline]
fn bucket_capacity(bucket: usize) -> usize {
    FIRST_BUCKET << bucket
}

impl DictInner {
    fn new() -> Self {
        DictInner {
            map: RwLock::new(FxHashMap::default()),
            len: AtomicUsize::new(0),
            buckets: std::array::from_fn(|_| AtomicPtr::new(std::ptr::null_mut())),
        }
    }

    /// Appends one string (caller holds the map write lock — the single
    /// writer at a time). Returns the new handle.
    fn push(&self, bytes: &str) -> Sym {
        let index = self.len.load(Ordering::Relaxed);
        assert!(index < u32::MAX as usize, "dictionary overflow (u32 symbol space)");
        let (bucket, offset) = locate(index);
        let mut base = self.buckets[bucket].load(Ordering::Acquire);
        if base.is_null() {
            let fresh: Box<[MaybeUninit<Slot>]> =
                (0..bucket_capacity(bucket)).map(|_| MaybeUninit::uninit()).collect();
            base = Box::into_raw(fresh) as *mut MaybeUninit<Slot>;
            self.buckets[bucket].store(base, Ordering::Release);
        }
        // SAFETY: `offset < bucket_capacity(bucket)` by construction, the
        // slot is unpublished (index >= len), and writers are serialized.
        unsafe {
            (*base.add(offset)).write(Slot { ptr: bytes.as_ptr(), len: bytes.len() });
        }
        // Publish: readers that observe the new length see the slot write.
        self.len.store(index + 1, Ordering::Release);
        Sym(index as u32)
    }

    #[inline]
    fn read(&self, index: usize) -> &str {
        let published = self.len.load(Ordering::Acquire);
        assert!(index < published, "Sym({index}) resolved against a foreign/short dictionary");
        let (bucket, offset) = locate(index);
        let base = self.buckets[bucket].load(Ordering::Acquire);
        // SAFETY: index < len ⇒ the slot was initialized and published
        // before the len store we just acquired; the viewed bytes live as
        // long as `self` (append-only map ownership).
        unsafe {
            let slot = (*base.add(offset)).assume_init();
            std::str::from_utf8_unchecked(std::slice::from_raw_parts(slot.ptr, slot.len))
        }
    }
}

impl Drop for DictInner {
    fn drop(&mut self) {
        for (bucket, ptr) in self.buckets.iter().enumerate() {
            let base = ptr.load(Ordering::Acquire);
            if !base.is_null() {
                // SAFETY: reconstructing the Box<[MaybeUninit<Slot>]> we
                // leaked in `push`; slots are plain data (string bytes are
                // owned, and dropped, by the map).
                unsafe {
                    drop(Box::from_raw(std::ptr::slice_from_raw_parts_mut(
                        base,
                        bucket_capacity(bucket),
                    )));
                }
            }
        }
    }
}

/// The shared dictionary plane: a cheaply clonable handle to one
/// concurrently readable, append-only string dictionary.
///
/// Concurrency model (see ARCHITECTURE.md "The shared dictionary plane"):
///
/// * [`resolve`](SharedDict::resolve) — the per-row hot path — is
///   **lock-free**: an atomic length check plus an arena index, so any
///   number of threads may resolve symbols at once.
/// * [`get`](SharedDict::get) takes a shared read lock (concurrent readers
///   never block each other); it runs per *request*, not per row — typed
///   requests carry pre-interned symbols.
/// * [`intern`](SharedDict::intern) takes the write lock. Writes happen on
///   the single-threaded ingest path and at query-compile time.
///
/// Handles created by [`clone`](Clone::clone) observe the same dictionary;
/// [`ptr_eq`](SharedDict::ptr_eq) asserts two components share one plane.
#[derive(Clone)]
pub struct SharedDict {
    inner: Arc<DictInner>,
}

impl Default for SharedDict {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for SharedDict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedDict").field("len", &self.len()).finish()
    }
}

impl SharedDict {
    pub fn new() -> Self {
        SharedDict { inner: Arc::new(DictInner::new()) }
    }

    /// Interns `s`, returning its stable handle. Takes the write lock only
    /// on a miss.
    pub fn intern(&self, s: &str) -> Sym {
        if let Some(sym) = self.get(s) {
            return sym;
        }
        let mut map = self.inner.map.write().expect("dictionary lock poisoned");
        if let Some(&sym) = map.get(s) {
            return sym;
        }
        let boxed: Box<str> = s.into();
        let sym = self.inner.push(&boxed);
        map.insert(boxed, sym);
        sym
    }

    /// Looks up a handle without interning (shared read lock).
    pub fn get(&self, s: &str) -> Option<Sym> {
        self.inner.map.read().expect("dictionary lock poisoned").get(s).copied()
    }

    /// Resolves a handle back to its string — lock-free.
    ///
    /// # Panics
    /// Panics if `sym` was produced by a different dictionary (or a longer
    /// one; cross-dictionary handles are a bug by construction).
    #[inline]
    pub fn resolve(&self, sym: Sym) -> &str {
        self.inner.read(sym.index())
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.inner.len.load(Ordering::Acquire)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Do two handles observe the same dictionary?
    pub fn ptr_eq(&self, other: &SharedDict) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Iterates `(Sym, &str)` over the strings published at call time, in
    /// insertion order (lock-free; concurrent interns past the snapshot are
    /// not visited).
    pub fn iter(&self) -> impl Iterator<Item = (Sym, &str)> + '_ {
        (0..self.len()).map(|i| (Sym(i as u32), self.inner.read(i)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut i = Interner::new();
        let a = i.intern("/etc/passwd");
        let b = i.intern("/etc/passwd");
        assert_eq!(a, b);
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn resolve_roundtrip() {
        let mut i = Interner::new();
        let syms: Vec<Sym> = (0..100).map(|n| i.intern(&format!("proc{n}"))).collect();
        for (n, sym) in syms.iter().enumerate() {
            assert_eq!(i.resolve(*sym), format!("proc{n}"));
        }
    }

    #[test]
    fn get_does_not_intern() {
        let mut i = Interner::new();
        assert_eq!(i.get("missing"), None);
        let s = i.intern("present");
        assert_eq!(i.get("present"), Some(s));
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn iter_in_insertion_order() {
        let mut i = Interner::new();
        i.intern("b");
        i.intern("a");
        let all: Vec<&str> = i.iter().map(|(_, s)| s).collect();
        assert_eq!(all, vec!["b", "a"]);
    }

    #[test]
    fn shared_dict_roundtrip() {
        let d = SharedDict::new();
        let a = d.intern("/etc/passwd");
        assert_eq!(d.intern("/etc/passwd"), a);
        assert_eq!(d.get("/etc/passwd"), Some(a));
        assert_eq!(d.get("missing"), None);
        assert_eq!(d.resolve(a), "/etc/passwd");
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn shared_dict_handles_observe_one_dictionary() {
        let d = SharedDict::new();
        let clone = d.clone();
        let a = d.intern("alpha");
        assert_eq!(clone.get("alpha"), Some(a));
        assert_eq!(clone.resolve(a), "alpha");
        assert!(d.ptr_eq(&clone));
        assert!(!d.ptr_eq(&SharedDict::new()));
        let order: Vec<&str> = clone.iter().map(|(_, s)| s).collect();
        assert_eq!(order, vec!["alpha"]);
    }

    #[test]
    fn shared_dict_crosses_bucket_boundaries() {
        let d = SharedDict::new();
        // Force allocation of several buckets (first bucket holds 1024).
        let n = FIRST_BUCKET * 3 + 17;
        let syms: Vec<Sym> = (0..n).map(|i| d.intern(&format!("s{i}"))).collect();
        for (i, sym) in syms.iter().enumerate() {
            assert_eq!(d.resolve(*sym), format!("s{i}"));
        }
        assert_eq!(d.len(), n);
    }

    #[test]
    fn shared_dict_concurrent_readers_during_writes() {
        let d = SharedDict::new();
        for i in 0..256 {
            d.intern(&format!("warm{i}"));
        }
        std::thread::scope(|scope| {
            let reader = |dict: SharedDict| {
                move || {
                    for _ in 0..2000 {
                        let n = dict.len();
                        // Resolve a published prefix while the writer appends.
                        for i in (0..n).step_by(37) {
                            let s = dict.resolve(Sym(i as u32));
                            assert!(!s.is_empty());
                        }
                    }
                }
            };
            for _ in 0..3 {
                scope.spawn(reader(d.clone()));
            }
            for i in 0..4000 {
                d.intern(&format!("live{i}"));
            }
        });
        assert_eq!(d.len(), 256 + 4000);
    }

    #[test]
    #[should_panic(expected = "foreign")]
    fn foreign_sym_panics() {
        let d = SharedDict::new();
        d.intern("only");
        let other = SharedDict::new();
        other.resolve(Sym(0)); // other is empty: Sym(0) is foreign
    }

    #[test]
    fn locate_math() {
        assert_eq!(locate(0), (0, 0));
        assert_eq!(locate(FIRST_BUCKET - 1), (0, FIRST_BUCKET - 1));
        assert_eq!(locate(FIRST_BUCKET), (1, 0));
        assert_eq!(locate(3 * FIRST_BUCKET - 1), (1, 2 * FIRST_BUCKET - 1));
        assert_eq!(locate(3 * FIRST_BUCKET), (2, 0));
        // The bucket ladder covers the whole u32 symbol space.
        let (b, o) = locate(u32::MAX as usize);
        assert!(b < BUCKETS, "{b}");
        assert!(o < bucket_capacity(b));
    }
}
