//! The statistics plane: incrementally-maintained data statistics. The
//! system keeps **one** copy — the relational store's, which its own
//! planner reads for index selection and the engine's scheduler reads for
//! event- and path-pattern estimates; the graph store keeps none.
//!
//! The paper's scheduler (Section III-F) scores TBQL patterns *syntactically*
//! — it counts declared constraints, so `exename = '/usr/bin/gpg'` and
//! `name like '%'` weigh the same. The journal version of ThreatRaptor
//! motivates execution-result-constrained ordering instead; that needs real
//! numbers about the data. This module defines those numbers:
//!
//! * [`ColumnStats`] — per-attribute non-null/distinct counts, exact value
//!   frequencies up to a tracking cap (top-k most-common values fall out of
//!   these), and a scaling equi-width [`Histogram`] for numeric/time
//!   columns,
//! * [`TableStats`] — row count plus its columns,
//! * [`DegreeStats`] — per-entity-class adjacency summaries (node count,
//!   out/in edge counts, max degrees) for degree-power path estimation à la
//!   Pathce,
//! * [`StoreStats`] — the whole bundle, keyed by the backend-neutral table
//!   vocabulary (`files` / `processes` / `netconns` / `events`),
//! * [`selectivity`] — estimated match fraction of a typed [`Pred`] against
//!   a [`TableStats`].
//!
//! Everything is maintained **incrementally on the write path** (the
//! relational appender records every physical insert, so bulk load,
//! streaming ingest, log replay and raw inserts produce identical stats by
//! construction) and served with **zero scans** at query time: accessors
//! only read the maintained maps.

use raptor_common::hash::FxHashMap;
use raptor_common::intern::{SharedDict, Sym};
use raptor_common::like::like_match;

use crate::catalog::{CanonicalCatalog, PathCatalog};
use crate::request::{CmpOp, EntityClass, Pred};
use crate::value::Value;

/// Distinct values tracked exactly per column. Beyond the cap new values
/// land in an untracked tail counter (existing keys keep exact counts), so
/// memory stays bounded on high-cardinality columns (timestamps, ids) while
/// low-cardinality columns (optype, exename, user) stay exact.
pub const MCV_TRACK_CAP: usize = 4096;

/// Buckets per histogram. The range scales (bucket width doubles, merging
/// neighbors) as out-of-range values arrive, so maintenance is O(1)
/// amortized with O(log range) total merges.
pub const HIST_BUCKETS: usize = 64;

/// Default top-k size served to estimators that want "the most common
/// values" without naming a k.
pub const TOP_K: usize = 8;

/// Assumed match fraction of a LIKE pattern over the *untracked* tail of a
/// capped column (the tracked majority is matched exactly).
const LIKE_TAIL_FRACTION: f64 = 0.5;

/// An incremental min/max extent over `i64` values — [`Histogram`]'s
/// bounds, maintained on the write path with no second collection pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MinMax {
    min: i64,
    max: i64,
    count: u64,
}

impl MinMax {
    pub fn record(&mut self, v: i64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
    }

    /// Recorded values (not rows: callers decide what NULL means).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest recorded value (`None` when empty).
    pub fn min(&self) -> Option<i64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded value (`None` when empty).
    pub fn max(&self) -> Option<i64> {
        (self.count > 0).then_some(self.max)
    }
}

/// A scaling equi-width histogram over `i64` values.
///
/// Buckets cover `[origin + i·width, origin + (i+1)·width)`. When a value
/// falls outside the covered range the width doubles (adjacent buckets
/// merge) and, for values below `origin`, the range extends downward.
/// Range estimates stay within about one bucket of exact; the exact bucket
/// boundaries (not the recorded totals) can differ by a bounded factor
/// between insertion orders of the same value set.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Histogram {
    origin: i64,
    width: i64,
    counts: Vec<u64>,
    total: u64,
    extent: MinMax,
}

impl Histogram {
    pub fn total(&self) -> u64 {
        self.total
    }

    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Smallest recorded value (`None` when empty).
    pub fn min(&self) -> Option<i64> {
        self.extent.min()
    }

    /// Largest recorded value (`None` when empty).
    pub fn max(&self) -> Option<i64> {
        self.extent.max()
    }

    fn bucket_of(&self, v: i64) -> i128 {
        (v as i128 - self.origin as i128).div_euclid(self.width as i128)
    }

    /// Doubles the bucket width in place, keeping `origin` (covers values
    /// above the current range).
    fn grow_up(&mut self) {
        let mut merged = vec![0u64; HIST_BUCKETS];
        for (i, &c) in self.counts.iter().enumerate() {
            merged[i / 2] += c;
        }
        self.counts = merged;
        self.width = self.width.saturating_mul(2);
    }

    /// Doubles the bucket width and shifts `origin` down by the old range,
    /// so the old buckets occupy the upper half (covers values below).
    fn grow_down(&mut self) {
        let old_range = (self.width as i128) * (HIST_BUCKETS as i128);
        let mut merged = vec![0u64; HIST_BUCKETS];
        for (i, &c) in self.counts.iter().enumerate() {
            merged[(HIST_BUCKETS + i) / 2] += c;
        }
        self.counts = merged;
        self.origin =
            (self.origin as i128 - old_range).clamp(i64::MIN as i128, i64::MAX as i128) as i64;
        self.width = self.width.saturating_mul(2);
    }

    pub fn record(&mut self, v: i64) {
        if self.total == 0 {
            self.origin = v;
            self.width = 1;
            self.counts = vec![0; HIST_BUCKETS];
        }
        self.extent.record(v);
        // In-range values (all but O(log range) of them) find their bucket
        // in plain `i64`; below-origin, beyond-range and overflowing
        // offsets take the widening `i128` form.
        let b = match v.checked_sub(self.origin) {
            Some(d) if d >= 0 && d / self.width < HIST_BUCKETS as i64 => (d / self.width) as usize,
            _ => self.grow_to(v),
        };
        self.counts[b] += 1;
        self.total += 1;
    }

    /// Widens the range until it covers `v`; returns `v`'s bucket.
    fn grow_to(&mut self, v: i64) -> usize {
        while self.bucket_of(v) < 0 {
            self.grow_down();
        }
        while self.bucket_of(v) >= HIST_BUCKETS as i128 {
            self.grow_up();
        }
        self.bucket_of(v) as usize
    }

    /// Estimated fraction of recorded values `<= x`.
    pub fn fraction_le(&self, x: i64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        if x < self.extent.min {
            return 0.0;
        }
        if x >= self.extent.max {
            return 1.0;
        }
        let b = self.bucket_of(x);
        let mut below = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if (i as i128) < b {
                below += c;
            }
        }
        // Partial credit inside the containing bucket (uniform assumption).
        let bucket_start = self.origin as i128 + b * self.width as i128;
        let into = (x as i128 - bucket_start + 1) as f64 / self.width as f64;
        let partial = self.counts[b as usize] as f64 * into.clamp(0.0, 1.0);
        (below as f64 + partial) / self.total as f64
    }

    /// Estimated fraction of recorded values in `[lo, hi]` (inclusive).
    pub fn fraction_between(&self, lo: i64, hi: i64) -> f64 {
        if self.total == 0 || hi < lo {
            return 0.0;
        }
        let below_lo = if lo == i64::MIN { 0.0 } else { self.fraction_le(lo - 1) };
        (self.fraction_le(hi) - below_lo).clamp(0.0, 1.0)
    }
}

/// Incrementally-maintained statistics for one column/property. String
/// frequencies are keyed by [`Sym`] into the shared dictionary plane, so
/// typed requests (which carry pre-interned symbols) key them directly.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ColumnStats {
    non_null: u64,
    ints: FxHashMap<i64, u64>,
    strs: FxHashMap<Sym, u64>,
    /// Rows whose value was not tracked (the cap was already reached the
    /// first time the value appeared).
    other: u64,
    hist: Histogram,
}

impl ColumnStats {
    fn tracked(&self) -> usize {
        self.ints.len() + self.strs.len()
    }

    pub fn record_int(&mut self, v: i64) {
        self.non_null += 1;
        self.hist.record(v);
        if self.tracked() < MCV_TRACK_CAP {
            *self.ints.entry(v).or_insert(0) += 1;
        } else if let Some(c) = self.ints.get_mut(&v) {
            *c += 1;
        } else {
            self.other += 1;
        }
    }

    pub fn record_sym(&mut self, v: Sym) {
        self.non_null += 1;
        if self.tracked() < MCV_TRACK_CAP {
            *self.strs.entry(v).or_insert(0) += 1;
        } else if let Some(c) = self.strs.get_mut(&v) {
            *c += 1;
        } else {
            self.other += 1;
        }
    }

    /// Non-null values recorded.
    pub fn non_null(&self) -> u64 {
        self.non_null
    }

    /// Distinct-count estimate: tracked values exactly, plus the untracked
    /// tail assumed all-distinct (an upper bound; exact below the cap).
    pub fn distinct(&self) -> u64 {
        self.tracked() as u64 + self.other
    }

    /// Exact frequency of a tracked value; 0 for untracked/unseen values.
    pub fn freq(&self, v: &Value) -> u64 {
        match v {
            Value::Int(i) => self.ints.get(i).copied().unwrap_or(0),
            Value::Str(s) => self.strs.get(s).copied().unwrap_or(0),
            Value::Null => 0,
        }
    }

    /// Estimated fraction of rows equal to `v`. Exact when the column never
    /// overflowed the tracking cap; untracked values are assumed to be one
    /// row of the tail.
    pub fn eq_fraction(&self, v: &Value) -> f64 {
        self.eq_fraction_inner(self.freq(v))
    }

    /// [`ColumnStats::eq_fraction`] without constructing a [`Value`].
    pub fn eq_fraction_int(&self, v: i64) -> f64 {
        self.eq_fraction_inner(self.ints.get(&v).copied().unwrap_or(0))
    }

    /// [`ColumnStats::eq_fraction`] without constructing a [`Value`]. The
    /// symbol-keyed form: typed requests carry pre-interned symbols, so the
    /// estimator never touches the dictionary map.
    pub fn eq_fraction_sym(&self, v: Sym) -> f64 {
        self.eq_fraction_inner(self.strs.get(&v).copied().unwrap_or(0))
    }

    fn eq_fraction_inner(&self, freq: u64) -> f64 {
        if self.non_null == 0 {
            0.0
        } else if freq > 0 {
            freq as f64 / self.non_null as f64
        } else if self.other > 0 {
            1.0 / self.non_null as f64
        } else {
            0.0
        }
    }

    /// Estimated fraction of rows whose string value matches a LIKE
    /// `pattern`. Tracked values are matched exactly (weighted by their
    /// frequencies, resolved through the dictionary); the untracked tail
    /// contributes a flat default.
    pub fn like_fraction(&self, pattern: &str, dict: &SharedDict) -> f64 {
        if self.non_null == 0 {
            return 0.0;
        }
        let matched: u64 = self
            .strs
            .iter()
            .filter(|(v, _)| like_match(pattern, dict.resolve(**v)))
            .map(|(_, c)| c)
            .sum();
        let tail = self.other as f64 * LIKE_TAIL_FRACTION;
        ((matched as f64 + tail) / self.non_null as f64).clamp(0.0, 1.0)
    }

    /// Estimated fraction of rows satisfying `value <op> x` for an integer
    /// comparison, from the histogram.
    pub fn cmp_fraction(&self, op: CmpOp, x: i64) -> f64 {
        match op {
            CmpOp::Eq => self.eq_fraction(&Value::Int(x)),
            CmpOp::Ne => 1.0 - self.eq_fraction(&Value::Int(x)),
            CmpOp::Le => self.hist.fraction_le(x),
            CmpOp::Lt => {
                if x == i64::MIN {
                    0.0
                } else {
                    self.hist.fraction_le(x - 1)
                }
            }
            CmpOp::Ge => 1.0 - if x == i64::MIN { 0.0 } else { self.hist.fraction_le(x - 1) },
            CmpOp::Gt => 1.0 - self.hist.fraction_le(x),
        }
    }

    /// The k most common tracked values with their frequencies, most
    /// frequent first (ties broken by *rendered* value for determinism —
    /// never by handle id, so the order is insertion-order independent).
    pub fn top_k(&self, k: usize, dict: &SharedDict) -> Vec<(Value, u64)> {
        let mut all: Vec<(Value, u64)> = self
            .ints
            .iter()
            .map(|(&v, &c)| (Value::Int(v), c))
            .chain(self.strs.iter().map(|(&v, &c)| (Value::Str(v), c)))
            .collect();
        all.sort_by(|(va, ca), (vb, cb)| {
            cb.cmp(ca).then_with(|| va.render(dict).cmp(&vb.render(dict)))
        });
        all.truncate(k);
        all
    }

    /// The numeric histogram (empty for string columns).
    pub fn histogram(&self) -> &Histogram {
        &self.hist
    }
}

/// Statistics for one table / node label.
///
/// Writers resolve each column name to an ordinal once
/// ([`TableStats::column_ord`]) and record whole rows by ordinal. A column
/// *exists* for readers — [`TableStats::column`], `column_names`, `==`,
/// [`StoreStats::canonical`] — only once a non-null value was recorded in
/// it, so a store that registers its schema up front and one that discovers
/// columns row by row serve equal statistics for equal data.
#[derive(Clone, Debug, Default)]
pub struct TableStats {
    rows: u64,
    cols: Vec<(String, ColumnStats)>,
}

/// Position of `name` in `items`, appending a default entry on first sight.
fn ord_of<T: Default>(items: &mut Vec<(String, T)>, name: &str) -> usize {
    items.iter().position(|(n, _)| n == name).unwrap_or_else(|| {
        items.push((name.to_string(), T::default()));
        items.len() - 1
    })
}

impl TableStats {
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Columns that exist (see the type docs).
    fn live(&self) -> impl Iterator<Item = (&str, &ColumnStats)> {
        self.cols.iter().filter(|(_, c)| c.non_null > 0).map(|(n, c)| (n.as_str(), c))
    }

    pub fn column(&self, name: &str) -> Option<&ColumnStats> {
        self.live().find(|(n, _)| *n == name).map(|(_, c)| c)
    }

    /// Column names with statistics (sorted, for deterministic display).
    pub fn column_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.live().map(|(n, _)| n).collect();
        names.sort_unstable();
        names
    }

    /// The ordinal [`TableStats::record_row`] addresses `name` by
    /// (registered on first sight).
    pub fn column_ord(&mut self, name: &str) -> usize {
        ord_of(&mut self.cols, name)
    }

    /// Records one row of `(column ordinal, value)` cells; NULL cells count
    /// towards the row only. Strings arrive as shared-dictionary handles
    /// (the write paths have already interned them).
    #[inline]
    pub fn record_row(&mut self, cells: impl IntoIterator<Item = (usize, Value)>) {
        self.rows += 1;
        for (ord, v) in cells {
            match v {
                Value::Int(i) => self.cols[ord].1.record_int(i),
                Value::Str(s) => self.cols[ord].1.record_sym(s),
                Value::Null => {}
            }
        }
    }
}

impl PartialEq for TableStats {
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows
            && self.live().count() == other.live().count()
            && self.live().all(|(n, c)| other.column(n) == Some(c))
    }
}

/// Per-entity-class adjacency summaries, the degree inputs of path-pattern
/// cardinality estimation (Pathce-style degree-power expansion).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DegreeStats {
    /// Entities of this class.
    pub nodes: u64,
    /// Events whose subject is in this class.
    pub out_edges: u64,
    /// Events whose object is in this class.
    pub in_edges: u64,
    /// Largest out-degree of any single entity in this class.
    pub max_out: u64,
    /// Largest in-degree of any single entity in this class.
    pub max_in: u64,
}

impl DegreeStats {
    pub fn avg_out(&self) -> f64 {
        if self.nodes == 0 {
            0.0
        } else {
            self.out_edges as f64 / self.nodes as f64
        }
    }

    pub fn avg_in(&self) -> f64 {
        if self.nodes == 0 {
            0.0
        } else {
            self.in_edges as f64 / self.nodes as f64
        }
    }
}

/// All the statistics the system maintains: table and column statistics,
/// per-class degree summaries and the path catalog. Keys use the
/// backend-neutral table vocabulary ([`EntityClass::table_name`] plus
/// `"events"`).
#[derive(Debug)]
pub struct StoreStats {
    /// The shared dictionary plane the symbol-keyed frequencies resolve
    /// through (same handle the owning store interns into).
    dict: SharedDict,
    /// By table ordinal ([`StoreStats::table_ord`]). Like columns, a table
    /// exists for readers once it holds a row.
    tables: Vec<(String, TableStats)>,
    /// Indexed by `EntityClass as usize`.
    degrees: [DegreeStats; 3],
    /// Indexed by entity id (dense by the [`crate::MutableBackend`] contract).
    nodes: Vec<NodeReg>,
    catalog: PathCatalog,
}

/// One registered entity: its class and running degrees.
#[derive(Clone, Copy, Debug, Default)]
struct NodeReg {
    class: Option<EntityClass>,
    out_deg: u32,
    in_deg: u32,
}

/// How far past the registry's end an entity id may land: raw inserts may
/// arrive out of order, but an id this far out must not size an allocation.
const MAX_ID_GAP: usize = 1 << 20;

impl Default for StoreStats {
    /// A fresh stats bundle over its own private dictionary (tests/tools);
    /// stores constructed on the shared plane use [`StoreStats::new`].
    fn default() -> Self {
        Self::new(SharedDict::new())
    }
}

impl StoreStats {
    /// Creates an empty stats bundle resolving through `dict`.
    pub fn new(dict: SharedDict) -> Self {
        StoreStats {
            dict,
            tables: Vec::new(),
            degrees: Default::default(),
            nodes: Vec::new(),
            catalog: PathCatalog::default(),
        }
    }

    /// The path cardinality catalog riding this stats bundle (see
    /// [`crate::catalog`]).
    pub fn catalog(&self) -> &PathCatalog {
        &self.catalog
    }

    /// Mutable catalog handle (tests swap in an empty catalog to reach the
    /// estimator's cold path on a populated store).
    pub fn catalog_mut(&mut self) -> &mut PathCatalog {
        &mut self.catalog
    }

    /// The dictionary plane this bundle's symbols live in.
    pub fn dict(&self) -> &SharedDict {
        &self.dict
    }

    /// Tables that exist (hold at least one row).
    fn live(&self) -> impl Iterator<Item = (&str, &TableStats)> {
        self.tables.iter().filter(|(_, t)| t.rows > 0).map(|(n, t)| (n.as_str(), t))
    }

    pub fn table(&self, name: &str) -> Option<&TableStats> {
        self.live().find(|(n, _)| *n == name).map(|(_, t)| t)
    }

    /// The ordinal [`StoreStats::table_at`] addresses `name` by (registered
    /// on first sight). Writers resolve it once per table / record shape.
    pub fn table_ord(&mut self, name: &str) -> usize {
        ord_of(&mut self.tables, name)
    }

    #[inline]
    pub fn table_at(&mut self, ord: usize) -> &mut TableStats {
        &mut self.tables[ord].1
    }

    pub fn degree(&self, class: EntityClass) -> Option<&DegreeStats> {
        Some(&self.degrees[class as usize]).filter(|d| d.nodes > 0)
    }

    /// Total entities across classes.
    pub fn total_nodes(&self) -> u64 {
        self.degrees.iter().map(|d| d.nodes).sum()
    }

    /// Total event edges (every event has exactly one classed subject).
    pub fn total_edges(&self) -> u64 {
        self.degrees.iter().map(|d| d.out_edges).sum()
    }

    /// Registers one entity of `class` (enables degree tracking for edges
    /// touching `id`). An id outside the dense contract — negative, or more
    /// than `MAX_ID_GAP` past the registry — is counted but not tracked.
    pub fn record_node(&mut self, class: EntityClass, id: i64) {
        self.degrees[class as usize].nodes += 1;
        let Ok(i) = u32::try_from(id).map(|i| i as usize) else { return };
        if i > self.nodes.len() + MAX_ID_GAP {
            return;
        }
        if i >= self.nodes.len() {
            self.nodes.resize(i + 1, NodeReg::default());
        }
        self.nodes[i].class = Some(class);
    }

    /// Registers one event edge `subject → object` carrying operation
    /// `op`, updating per-class degree summaries and the path catalog.
    pub fn record_edge(&mut self, subject: i64, object: i64, op: Option<Sym>) {
        let registered = |nodes: &[NodeReg], id: i64| {
            let i = usize::try_from(id).ok()?;
            Some((i, nodes.get(i)?.class?))
        };
        let (s, o) = (registered(&self.nodes, subject), registered(&self.nodes, object));
        if let (Some((si, cs)), Some((oi, co)), Some(op)) = (s, o, op) {
            self.catalog.record_edge(si as u32, oi as u32, cs, co, op);
        }
        if let Some((i, c)) = s {
            self.nodes[i].out_deg += 1;
            let d = &mut self.degrees[c as usize];
            d.out_edges += 1;
            d.max_out = d.max_out.max(self.nodes[i].out_deg as u64);
        }
        if let Some((i, c)) = o {
            self.nodes[i].in_deg += 1;
            let d = &mut self.degrees[c as usize];
            d.in_edges += 1;
            d.max_in = d.max_in.max(self.nodes[i].in_deg as u64);
        }
    }

    /// The event-operation frequency table (exact counts per `optype`),
    /// most frequent first.
    pub fn event_ops(&self) -> Vec<(String, u64)> {
        let Some(col) = self.table("events").and_then(|t| t.column("optype")) else {
            return Vec::new();
        };
        col.top_k(usize::MAX, &self.dict)
            .into_iter()
            .filter_map(|(v, c)| v.as_sym().map(|s| (self.dict.resolve(s).to_string(), c)))
            .collect()
    }

    /// Exact frequency of one event operation.
    pub fn event_op_freq(&self, op: &str) -> u64 {
        let Some(sym) = self.dict.get(op) else { return 0 };
        self.table("events")
            .and_then(|t| t.column("optype"))
            .map_or(0, |c| c.freq(&Value::Str(sym)))
    }

    /// Dictionary-independent view: every symbol rendered, every map
    /// sorted. Two stores over **different** dictionaries built from the
    /// same data compare equal here (e.g. a stream-grown engine vs a
    /// bulk-loaded one, whose interning orders differ). Within one
    /// dictionary plane, plain `==` compares at the symbol level.
    pub fn canonical(&self) -> CanonicalStats {
        let tables = self
            .live()
            .map(|(name, t)| {
                let cols = t
                    .live()
                    .map(|(cname, c)| {
                        (
                            cname.to_string(),
                            CanonicalColumn {
                                non_null: c.non_null,
                                other: c.other,
                                ints: c.ints.iter().map(|(&v, &n)| (v, n)).collect(),
                                strs: c
                                    .strs
                                    .iter()
                                    .map(|(&v, &n)| (self.dict.resolve(v).to_string(), n))
                                    .collect(),
                                hist: c.hist.clone(),
                            },
                        )
                    })
                    .collect();
                (name.to_string(), CanonicalTable { rows: t.rows, cols })
            })
            .collect();
        let degrees = EntityClass::ALL
            .iter()
            .filter_map(|&c| Some((c.table_name().to_string(), *self.degree(c)?)))
            .collect();
        CanonicalStats { tables, degrees, catalog: self.catalog.canonical(&self.dict) }
    }
}

/// See [`StoreStats::canonical`].
#[derive(Clone, Debug, PartialEq)]
pub struct CanonicalStats {
    tables: std::collections::BTreeMap<String, CanonicalTable>,
    degrees: std::collections::BTreeMap<String, DegreeStats>,
    catalog: CanonicalCatalog,
}

#[derive(Clone, Debug, PartialEq)]
struct CanonicalTable {
    rows: u64,
    cols: std::collections::BTreeMap<String, CanonicalColumn>,
}

#[derive(Clone, Debug, PartialEq)]
struct CanonicalColumn {
    non_null: u64,
    other: u64,
    ints: std::collections::BTreeMap<i64, u64>,
    strs: std::collections::BTreeMap<String, u64>,
    hist: Histogram,
}

impl PartialEq for StoreStats {
    /// Equality over the *served* statistics (tables, degree summaries and
    /// the path catalog's counts); the per-node working state is an
    /// implementation detail.
    fn eq(&self, other: &Self) -> bool {
        self.degrees == other.degrees
            && self.live().count() == other.live().count()
            && self.live().all(|(n, t)| other.table(n) == Some(t))
            && self.catalog.canonical(&self.dict) == other.catalog.canonical(&other.dict)
    }
}

/// Estimated fraction of `table`'s rows matching a typed predicate, under
/// conjunct independence. Unknown columns estimate 1.0 (no pruning
/// assumed); results are clamped to `[0, 1]`. Equality predicates key the
/// frequency maps directly on the request's pre-interned symbols; `dict`
/// is only consulted to resolve LIKE-shaped string literals.
pub fn selectivity(table: &TableStats, pred: &Pred, dict: &SharedDict) -> f64 {
    let sel = match pred {
        Pred::Cmp { attr, op, value } => match table.column(attr) {
            None => 1.0,
            Some(col) => {
                // `=`/`!=` against a `%` pattern carries LIKE semantics
                // (mirrors the compilers in both backends).
                let wildcard = value
                    .as_sym()
                    .map(|s| dict.resolve(s))
                    .filter(|s| s.contains('%') && matches!(op, CmpOp::Eq | CmpOp::Ne));
                match (op, value, wildcard) {
                    (CmpOp::Eq, _, Some(s)) => col.like_fraction(s, dict),
                    (CmpOp::Ne, _, Some(s)) => 1.0 - col.like_fraction(s, dict),
                    (CmpOp::Eq, v, _) => col.eq_fraction(v),
                    (CmpOp::Ne, v, _) => 1.0 - col.eq_fraction(v),
                    (op, Value::Int(i), _) => col.cmp_fraction(*op, *i),
                    // Ordered comparison on strings: no histogram, assume a
                    // third matches.
                    _ => 1.0 / 3.0,
                }
            }
        },
        Pred::Like { attr, pattern, negated } => match table.column(attr) {
            None => 1.0,
            Some(col) => {
                let f = col.like_fraction(pattern, dict);
                if *negated {
                    1.0 - f
                } else {
                    f
                }
            }
        },
        Pred::InSet { attr, negated, values } => match table.column(attr) {
            None => 1.0,
            Some(col) => {
                let f: f64 = values.iter().map(|v| col.eq_fraction(v)).sum();
                let f = f.clamp(0.0, 1.0);
                if *negated {
                    1.0 - f
                } else {
                    f
                }
            }
        },
        Pred::And(a, b) => selectivity(table, a, dict) * selectivity(table, b, dict),
        Pred::Or(a, b) => {
            let (sa, sb) = (selectivity(table, a, dict), selectivity(table, b, dict));
            sa + sb - sa * sb
        }
        Pred::Not(inner) => 1.0 - selectivity(table, inner, dict),
    };
    sel.clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_scales_and_estimates() {
        let mut h = Histogram::default();
        for v in 0..1000 {
            h.record(v);
        }
        assert_eq!(h.total(), 1000);
        assert_eq!((h.min(), h.max()), (Some(0), Some(999)));
        let half = h.fraction_le(499);
        assert!((half - 0.5).abs() < 0.05, "{half}");
        assert_eq!(h.fraction_le(-1), 0.0);
        assert_eq!(h.fraction_le(5000), 1.0);
        let mid = h.fraction_between(250, 749);
        assert!((mid - 0.5).abs() < 0.05, "{mid}");
    }

    #[test]
    fn histogram_grows_downward() {
        let mut h = Histogram::default();
        h.record(1000);
        for v in [-500i64, 0, 500, 1500] {
            h.record(v);
        }
        assert_eq!(h.total(), 5);
        assert_eq!((h.min(), h.max()), (Some(-500), Some(1500)));
        assert!(h.fraction_le(-501) == 0.0);
        assert!(h.fraction_le(1500) == 1.0);
    }

    /// The `i64` fast path lands every value in the bucket the widening
    /// `i128` form (the only path `record` used to have) lands it in.
    #[test]
    fn histogram_fast_path_matches_i128_reference() {
        fn record_reference(h: &mut Histogram, v: i64) {
            if h.total == 0 {
                (h.origin, h.width, h.counts) = (v, 1, vec![0; HIST_BUCKETS]);
            }
            h.extent.record(v);
            let b = h.grow_to(v);
            h.counts[b] += 1;
            h.total += 1;
        }
        let descending: Vec<i64> = (0..500).rev().map(|i| i * 1_000_003).collect();
        let alternating: Vec<i64> =
            (1..400).map(|i| if i % 2 == 0 { i * i } else { -i * i }).collect();
        let extremes = vec![0, i64::MAX, i64::MIN, -1, 1, i64::MAX - 1, i64::MIN + 1, 42];
        let from_max = vec![i64::MAX, i64::MAX - 7, 3, i64::MIN, i64::MAX];
        let from_min = vec![i64::MIN, i64::MIN + 9, -3, i64::MAX, i64::MIN];
        let timestamps: Vec<i64> =
            (0..2000).map(|i| 1_600_000_000_000_000_000 + i * 37_003).collect();
        for values in [descending, alternating, extremes, from_max, from_min, timestamps] {
            let (mut fast, mut reference) = (Histogram::default(), Histogram::default());
            for &v in &values {
                fast.record(v);
                record_reference(&mut reference, v);
                assert_eq!(fast, reference, "after {v}");
            }
            assert_eq!(fast.total(), values.len() as u64);
        }
    }

    #[test]
    fn column_exact_below_cap() {
        let dict = SharedDict::new();
        let (read, connect, unseen) =
            (dict.intern("read"), dict.intern("connect"), dict.intern("unseen"));
        let mut c = ColumnStats::default();
        for _ in 0..90 {
            c.record_sym(read);
        }
        for _ in 0..10 {
            c.record_sym(connect);
        }
        assert_eq!(c.non_null(), 100);
        assert_eq!(c.distinct(), 2);
        assert_eq!(c.freq(&Value::Str(read)), 90);
        assert!((c.eq_fraction(&Value::Str(connect)) - 0.1).abs() < 1e-9);
        assert_eq!(c.eq_fraction(&Value::Str(unseen)), 0.0);
        let top = c.top_k(1, &dict);
        assert_eq!(top, vec![(Value::Str(read), 90)]);
    }

    #[test]
    fn column_caps_tail() {
        let mut c = ColumnStats::default();
        for i in 0..(MCV_TRACK_CAP as i64 + 100) {
            c.record_int(i);
        }
        // Every row distinct: tracked cap + tail.
        assert_eq!(c.distinct(), MCV_TRACK_CAP as u64 + 100);
        assert_eq!(c.non_null(), MCV_TRACK_CAP as u64 + 100);
        // Tracked value exact, untracked assumed one row.
        assert_eq!(c.freq(&Value::Int(0)), 1);
        assert!(c.eq_fraction(&Value::Int(i64::MAX - 1)) > 0.0);
    }

    #[test]
    fn like_fraction_exact_when_tracked() {
        let dict = SharedDict::new();
        let mut c = ColumnStats::default();
        for name in ["/etc/passwd", "/tmp/upload.tar", "/tmp/upload.tar.bz2", "/var/log/syslog"] {
            c.record_sym(dict.intern(name));
        }
        assert!((c.like_fraction("%upload%", &dict) - 0.5).abs() < 1e-9);
        assert!((c.like_fraction("%", &dict) - 1.0).abs() < 1e-9);
        assert_eq!(c.like_fraction("%absent%", &dict), 0.0);
    }

    /// Records one row from named cells.
    fn row(t: &mut TableStats, cells: &[(&str, Value)]) {
        let cells: Vec<_> = cells.iter().map(|&(c, v)| (t.column_ord(c), v)).collect();
        t.record_row(cells);
    }

    #[test]
    fn selectivity_composes() {
        let dict = SharedDict::new();
        let mut t = TableStats::default();
        let sym = |s: &str| Value::Str(dict.intern(s));
        for _ in 0..80 {
            let cells = [("optype", sym("read")), ("kind", sym("file"))];
            row(&mut t, &[cells[0], cells[1], ("starttime", Value::Int(100))]);
        }
        for _ in 0..20 {
            let cells = [("optype", sym("connect")), ("kind", sym("network"))];
            row(&mut t, &[cells[0], cells[1], ("starttime", Value::Int(200))]);
        }
        let eq = |attr: &str, v: &str| Pred::Cmp {
            attr: attr.into(),
            op: CmpOp::Eq,
            value: Value::Str(dict.intern(v)),
        };
        assert!((selectivity(&t, &eq("optype", "connect"), &dict) - 0.2).abs() < 1e-9);
        let both = Pred::And(Box::new(eq("optype", "read")), Box::new(eq("kind", "file")));
        assert!((selectivity(&t, &both, &dict) - 0.64).abs() < 1e-9);
        let either = Pred::Or(Box::new(eq("optype", "read")), Box::new(eq("optype", "connect")));
        assert!((selectivity(&t, &either, &dict) - 0.84).abs() < 1e-9);
        // Unknown column: no pruning assumed.
        assert_eq!(selectivity(&t, &eq("missing", "x"), &dict), 1.0);
        // Range via the histogram.
        let range = Pred::Cmp { attr: "starttime".into(), op: CmpOp::Ge, value: Value::Int(150) };
        let s = selectivity(&t, &range, &dict);
        assert!((s - 0.2).abs() < 0.05, "{s}");
    }

    #[test]
    fn degrees_track_classes() {
        let mut s = StoreStats::default();
        s.record_node(EntityClass::Process, 0);
        s.record_node(EntityClass::Process, 1);
        s.record_node(EntityClass::File, 2);
        let op = s.dict().intern("read");
        s.record_edge(0, 2, Some(op));
        s.record_edge(0, 2, Some(op));
        s.record_edge(1, 2, Some(op));
        let p = s.degree(EntityClass::Process).unwrap();
        assert_eq!((p.nodes, p.out_edges, p.max_out), (2, 3, 2));
        let f = s.degree(EntityClass::File).unwrap();
        assert_eq!((f.nodes, f.in_edges, f.max_in), (1, 3, 3));
        assert!((p.avg_out() - 1.5).abs() < 1e-9);
        assert_eq!(s.total_nodes(), 3);
        assert_eq!(s.total_edges(), 3);
    }

    /// Two stores can agree on every table and degree summary and still
    /// hold differently wired edges; only the path catalog tells them apart,
    /// so it is part of both equalities.
    #[test]
    fn equality_covers_the_path_catalog() {
        let build = |edges: [(i64, i64); 2]| {
            let mut s = StoreStats::default();
            for id in 0..3 {
                s.record_node(EntityClass::Process, id);
            }
            s.record_node(EntityClass::File, 3);
            let op = s.dict().intern("read");
            for (u, v) in edges {
                s.record_edge(u, v, Some(op));
            }
            s
        };
        // 0→1 and 2→3 never chain; 0→1 and 1→3 form one length-2 walk.
        let (apart, chained) = (build([(0, 1), (2, 3)]), build([(0, 1), (1, 3)]));
        for class in EntityClass::ALL {
            assert_eq!(apart.degree(class), chained.degree(class));
        }
        assert!(apart == build([(2, 3), (0, 1)]));
        assert!(apart != chained);
        assert_ne!(apart.canonical(), chained.canonical());
    }

    #[test]
    fn event_op_table() {
        let mut s = StoreStats::default();
        for op in ["read", "read", "write"] {
            let sym = Value::Str(s.dict().intern(op));
            let t = s.table_ord("events");
            row(s.table_at(t), &[("optype", sym)]);
        }
        assert_eq!(s.event_op_freq("read"), 2);
        assert_eq!(s.event_op_freq("absent"), 0);
        assert_eq!(s.event_ops(), vec![("read".to_string(), 2), ("write".to_string(), 1)]);
    }
}
