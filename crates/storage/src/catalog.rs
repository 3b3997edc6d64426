//! The path cardinality catalog: exact bounded-length walk counts
//! maintained incrementally below the [`crate::MutableBackend`] write seam.
//!
//! The degree-power path estimator (see `raptor-engine::estimate`) assumes
//! every hop fans out by the store-wide mean degree, which wildly
//! overestimates stores whose adjacency is *directional* (processes write
//! files, files rarely point anywhere). This module replaces assumption
//! with measurement, à la Pathce's pattern catalogs:
//!
//! * `walks(k, c, d)` — the **exact** number of length-`k` event-edge walks
//!   from a class-`c` node to a class-`d` node, for `k ≤ `[`CATALOG_K`]
//!   (intermediate nodes unconstrained, mirroring TBQL path semantics),
//! * `op_pairs` — per `(src-class, optype, dst-class)` edge counts, the
//!   final-hop operation selectivities path patterns end on,
//! * bounded k-hop **frontier summaries** (`ends2`/`starts2`): per node, how
//!   many length-2 walks end/start there keyed by the far endpoint's class —
//!   both the O(degree) maintenance trick below and the seed data for
//!   frontier-cache estimation,
//! * `reachable_pairs(c, d)` — `|{c-nodes with out-edges}| × |{d-nodes with
//!   in-edges}|`, the hard upper bound on distinct path endpoints any
//!   estimate is clamped to.
//!
//! **Maintenance is exact and insertion-order independent.** Walk counts
//! count *walks* (edges may repeat), so inserting edge `e = u→v` adds
//! exactly the walks that use `e` at least once, all computable from the
//! pre-insert state: `e` as first edge (`starts2[v]`), middle edge
//! (in-neighbours of `u` × out-neighbours of `v`, aggregated by class),
//! last edge (`ends2[u]`), plus the `u→v→u→v` double-use correction (one
//! per pre-existing `v→u` edge). Cost per insert is
//! `O(in_deg(u) + out_deg(v))`. Self-loop edges are counted at length 1 and
//! in `op_pairs` but excluded from multi-hop walks: a self-loop makes walk
//! counts diverge from anything a bounded path matcher returns, and
//! excluding them keeps every update expressible from pre-insert state.
//!
//! The catalog rides [`crate::StoreStats`] — the relational store's, the
//! one copy — so bulk load, streaming ingest, log replay and raw inserts
//! produce identical catalogs by construction.

use raptor_common::hash::FxHashMap;
use raptor_common::intern::{SharedDict, Sym};

use crate::request::EntityClass;

/// Maximum walk length cataloged exactly; longer paths extrapolate from the
/// `walks(K)/walks(K-1)` ratio.
pub const CATALOG_K: u32 = 3;

/// Per-class counters, indexed by `EntityClass as usize`.
type ClassCounts = [u64; 3];

/// Per-node working state; nodes are indexed by (dense) entity id.
#[derive(Debug, Clone, Default)]
struct NodeWalks {
    /// Non-self-loop event edges, as (neighbour, neighbour-class) multisets.
    out: Vec<(u32, EntityClass)>,
    inn: Vec<(u32, EntityClass)>,
    /// Length-2 walks ending at this node, by the walk's start class.
    ends2: ClassCounts,
    /// Length-2 walks starting at this node, by the walk's end class.
    starts2: ClassCounts,
    /// Has ≥1 out-edge / ≥1 in-edge (self-loops count).
    has_out: bool,
    has_in: bool,
}

/// The incrementally-maintained path cardinality catalog. See the module
/// docs for the exact quantities and the maintenance argument.
#[derive(Debug, Clone, Default)]
pub struct PathCatalog {
    nodes: Vec<NodeWalks>,
    /// `walks[k-1][c][d]`: exact length-`k` walk counts, `k ∈ 1..=CATALOG_K`.
    walks: [[ClassCounts; 3]; CATALOG_K as usize],
    /// Edge counts per optype as `[src-class][dst-class]`, self-loops included.
    op_pairs: FxHashMap<Sym, [ClassCounts; 3]>,
    /// Nodes with ≥1 out-edge / ≥1 in-edge, per class.
    distinct_src: ClassCounts,
    distinct_dst: ClassCounts,
    edges: u64,
}

impl PathCatalog {
    pub fn new() -> Self {
        Self::default()
    }

    /// Warm means usable: at least one edge recorded. Cold catalogs send
    /// the estimator to its degree-power fallback.
    pub fn is_warm(&self) -> bool {
        self.edges > 0
    }

    /// Total event edges recorded (self-loops included).
    pub fn edge_count(&self) -> u64 {
        self.edges
    }

    /// Exact number of length-`k` walks from class `c` to class `d`
    /// (`0` for `k == 0` or `k > CATALOG_K`).
    pub fn walks(&self, k: u32, c: EntityClass, d: EntityClass) -> u64 {
        if k == 0 || k > CATALOG_K {
            return 0;
        }
        self.walks[(k - 1) as usize][c as usize][d as usize]
    }

    /// Edges with operation `op` from class `c` to class `d`.
    pub fn op_pair_count(&self, c: EntityClass, op: Sym, d: EntityClass) -> u64 {
        self.op_pairs.get(&op).map_or(0, |m| m[c as usize][d as usize])
    }

    /// Edges with operation `op` landing on class `d`, any source class.
    pub fn op_into_class(&self, op: Sym, d: EntityClass) -> u64 {
        self.op_pairs.get(&op).map_or(0, |m| m.iter().map(|row| row[d as usize]).sum())
    }

    /// All edges landing on class `d`.
    pub fn edges_into_class(&self, d: EntityClass) -> u64 {
        self.walks[0].iter().map(|row| row[d as usize]).sum()
    }

    /// Upper bound on distinct (subject, object) path endpoints: sources
    /// with any out-edge times destinations with any in-edge.
    pub fn reachable_pairs(&self, c: EntityClass, d: EntityClass) -> u64 {
        self.distinct_src[c as usize] * self.distinct_dst[d as usize]
    }

    /// Registers one event edge `u → v` with operation `op`. `cu`/`cv` are
    /// the endpoints' entity classes (callers resolve them from the stats
    /// plane's node registry; edges whose endpoints were never registered
    /// are invisible to the catalog, matching the degree summaries).
    pub fn record_edge(&mut self, u: u32, v: u32, cu: EntityClass, cv: EntityClass, op: Sym) {
        let (ui, vi, cui, cvi) = (u as usize, v as usize, cu as usize, cv as usize);
        if self.nodes.len() <= ui.max(vi) {
            self.nodes.resize_with(ui.max(vi) + 1, NodeWalks::default);
        }
        self.edges += 1;
        self.op_pairs.entry(op).or_default()[cui][cvi] += 1;
        self.walks[0][cui][cvi] += 1;
        if !std::mem::replace(&mut self.nodes[ui].has_out, true) {
            self.distinct_src[cui] += 1;
        }
        if !std::mem::replace(&mut self.nodes[vi].has_in, true) {
            self.distinct_dst[cvi] += 1;
        }
        if u == v {
            // Self-loops are excluded from multi-hop walks (module docs).
            return;
        }

        // Everything below reads *pre-insert* state: aggregate the
        // neighbourhoods by class, note pre-existing back edges `v → u`.
        // (The lists are taken out while other nodes' summaries change.)
        let inn = std::mem::take(&mut self.nodes[ui].inn);
        let out = std::mem::take(&mut self.nodes[vi].out);
        let mut in_by_class: ClassCounts = [0; 3];
        for &(_, cw) in &inn {
            in_by_class[cw as usize] += 1;
        }
        let mut out_by_class: ClassCounts = [0; 3];
        let mut back_edges = 0u64;
        for &(x, cx) in &out {
            out_by_class[cx as usize] += 1;
            back_edges += (x == u) as u64;
        }

        let (ends_u, starts_v) = (self.nodes[ui].ends2, self.nodes[vi].starts2);
        for c in 0..3 {
            // Length 2: `w→u→v` and `u→v→x`.
            self.walks[1][c][cvi] += in_by_class[c];
            self.walks[1][cui][c] += out_by_class[c];
            // Length 3: the new edge as last / first / middle edge.
            self.walks[2][c][cvi] += ends_u[c];
            self.walks[2][cui][c] += starts_v[c];
            for (d, out) in out_by_class.iter().enumerate() {
                self.walks[2][c][d] += in_by_class[c] * out;
            }
            // Frontier summaries gain the new length-2 walks.
            self.nodes[vi].ends2[c] += in_by_class[c];
            self.nodes[ui].starts2[c] += out_by_class[c];
        }
        // The `u→v→u→v` double-use walks (one per pre-existing back edge).
        self.walks[2][cui][cvi] += back_edges;
        // Per-node fan-out of the new walks needs the concrete neighbours.
        for &(x, _) in &out {
            self.nodes[x as usize].ends2[cui] += 1;
        }
        for &(w, _) in &inn {
            self.nodes[w as usize].starts2[cvi] += 1;
        }

        self.nodes[ui].inn = inn;
        self.nodes[vi].out = out;
        self.nodes[ui].out.push((v, cv));
        self.nodes[vi].inn.push((u, cu));
    }

    /// CRC-32 of the catalog's counts in a fixed byte encoding — what a
    /// checkpoint records and recovery compares against the catalog the
    /// replay rebuilt. The bytes are ours (little-endian integers, `op`
    /// entries sorted by [`Sym`], nodes in id order), so the value depends on
    /// no formatter; it is comparable between stores that share a
    /// dictionary, which a checkpoint pins. Like [`PathCatalog::canonical`]
    /// it covers every count and skips all-zero nodes and the adjacency
    /// working state the counts imply.
    pub fn digest(&self) -> u32 {
        fn put(buf: &mut Vec<u8>, counts: &[u64]) {
            counts.iter().for_each(|n| buf.extend_from_slice(&n.to_le_bytes()));
        }
        let mut buf = Vec::with_capacity(512 + 56 * self.nodes.len());
        put(&mut buf, &[self.edges]);
        put(&mut buf, self.walks.as_flattened().as_flattened());
        put(&mut buf, &self.distinct_src);
        put(&mut buf, &self.distinct_dst);
        let mut ops: Vec<_> = self.op_pairs.iter().collect();
        ops.sort_unstable_by_key(|(op, _)| **op);
        for (op, m) in ops {
            put(&mut buf, &[u64::from(op.0)]);
            put(&mut buf, m.as_flattened());
        }
        for (id, n) in self.nodes.iter().enumerate() {
            if n.ends2 != [0; 3] || n.starts2 != [0; 3] {
                put(&mut buf, &[id as u64]);
                put(&mut buf, &n.ends2);
                put(&mut buf, &n.starts2);
            }
        }
        raptor_common::io::crc32(&buf)
    }

    /// Dictionary-independent, deterministically-ordered view for
    /// equality assertions across independently grown stores (bulk load vs
    /// streaming ingest). Adjacency working state is excluded — it is
    /// implied by the counts. Only non-zero counts appear.
    pub fn canonical(&self, dict: &SharedDict) -> CanonicalCatalog {
        use std::collections::BTreeMap;
        let name = |c: usize| EntityClass::ALL[c].table_name().to_string();
        let by_class = |counts: &ClassCounts| -> BTreeMap<String, u64> {
            (0..3).filter(|&c| counts[c] > 0).map(|c| (name(c), counts[c])).collect()
        };
        /// The non-zero `(src class, dst class, count)` cells of a matrix.
        fn pairs(m: &[ClassCounts; 3]) -> impl Iterator<Item = (usize, usize, u64)> + '_ {
            (0..9).map(|i| (i / 3, i % 3, m[i / 3][i % 3])).filter(|&(_, _, n)| n > 0)
        }
        let per_node = |pick: fn(&NodeWalks) -> &ClassCounts| {
            self.nodes
                .iter()
                .enumerate()
                .map(|(id, n)| (id as i64, by_class(pick(n))))
                .filter(|(_, m)| !m.is_empty())
                .collect()
        };
        let mut walks: [BTreeMap<(String, String), u64>; CATALOG_K as usize] = Default::default();
        for (k, m) in self.walks.iter().enumerate() {
            walks[k] = pairs(m).map(|(c, d, n)| ((name(c), name(d)), n)).collect();
        }
        CanonicalCatalog {
            edges: self.edges,
            walks,
            op_pairs: self
                .op_pairs
                .iter()
                .flat_map(|(&op, m)| pairs(m).map(move |(c, d, n)| (c, op, d, n)))
                .map(|(c, op, d, n)| ((name(c), dict.resolve(op).to_string(), name(d)), n))
                .collect(),
            ends2: per_node(|n| &n.ends2),
            starts2: per_node(|n| &n.starts2),
            distinct_src: by_class(&self.distinct_src),
            distinct_dst: by_class(&self.distinct_dst),
        }
    }
}

/// See [`PathCatalog::canonical`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CanonicalCatalog {
    pub edges: u64,
    pub walks: [std::collections::BTreeMap<(String, String), u64>; CATALOG_K as usize],
    pub op_pairs: std::collections::BTreeMap<(String, String, String), u64>,
    pub ends2: std::collections::BTreeMap<i64, std::collections::BTreeMap<String, u64>>,
    pub starts2: std::collections::BTreeMap<i64, std::collections::BTreeMap<String, u64>>,
    pub distinct_src: std::collections::BTreeMap<String, u64>,
    pub distinct_dst: std::collections::BTreeMap<String, u64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    const P: EntityClass = EntityClass::Process;
    const F: EntityClass = EntityClass::File;

    fn cat() -> (PathCatalog, Sym, SharedDict) {
        let dict = SharedDict::new();
        let op = dict.intern("read");
        (PathCatalog::new(), op, dict)
    }

    /// Chain 0→1→2→3 (process→process→process→file): one walk per length.
    #[test]
    fn chain_counts_every_length() {
        let (mut c, op, _) = cat();
        c.record_edge(0, 1, P, P, op);
        c.record_edge(1, 2, P, P, op);
        c.record_edge(2, 3, P, F, op);
        assert_eq!(c.walks(1, P, P), 2);
        assert_eq!(c.walks(1, P, F), 1);
        assert_eq!(c.walks(2, P, P), 1); // 0→1→2
        assert_eq!(c.walks(2, P, F), 1); // 1→2→3
        assert_eq!(c.walks(3, P, F), 1); // 0→1→2→3
        assert_eq!(c.walks(3, P, P), 0);
        assert_eq!(c.reachable_pairs(P, F), 3); // {0,1,2} × {3}
        assert_eq!(c.op_pair_count(P, op, F), 1);
        assert_eq!(c.op_into_class(op, F), 1);
        assert_eq!(c.edges_into_class(P), 2);
    }

    /// Walk counts are a pure function of the edge multiset: every
    /// insertion order of a cyclic, multi-edge graph converges to the same
    /// canonical catalog (the double-use `u→v→u→v` correction included).
    #[test]
    fn order_independent_with_cycles() {
        let dict = SharedDict::new();
        let op = dict.intern("fork");
        // 2-cycle with a parallel edge and a tail: 0⇄1 (0→1 twice), 1→2.
        let edges = [(0u32, 1u32), (0, 1), (1, 0), (1, 2)];
        let classes = |id: u32| if id == 2 { F } else { P };
        let mut perms: Vec<Vec<usize>> = Vec::new();
        // All 4! orders via Heap's algorithm would be overkill; a sample of
        // structurally distinct orders exercises every maintenance branch.
        for perm in
            [[0, 1, 2, 3], [3, 2, 1, 0], [2, 0, 3, 1], [1, 3, 0, 2], [2, 3, 0, 1], [0, 2, 1, 3]]
        {
            perms.push(perm.to_vec());
        }
        let build = |order: &[usize]| {
            let mut c = PathCatalog::new();
            for &i in order {
                let (u, v) = edges[i];
                c.record_edge(u, v, classes(u), classes(v), op);
            }
            c.canonical(&dict)
        };
        let reference = build(&perms[0]);
        // Ground truth by enumeration over the final graph.
        // Length 2 P→P: 0→1→0 (×2), 1→0→1 (×2); P→F: 0→1→2 (×2).
        // Length 3 P→P: 0→1→0→1 (×2·1·2), 1→0→1→0 (×1·2·1);
        //          P→F: 1→0→1→2 (×1·2·1).
        assert_eq!(reference.walks[1][&("processes".into(), "processes".into())], 4);
        assert_eq!(reference.walks[1][&("processes".into(), "files".into())], 2);
        assert_eq!(reference.walks[2][&("processes".into(), "processes".into())], 6);
        assert_eq!(reference.walks[2][&("processes".into(), "files".into())], 2);
        for p in &perms[1..] {
            assert_eq!(build(p), reference, "order {p:?}");
        }
    }

    /// The dense incremental catalog equals a brute-force walk enumeration
    /// of the final graph, on random multigraphs with cycles, parallel
    /// edges and self-loops, whatever the insertion order.
    #[test]
    fn matches_brute_force_enumeration_in_any_order() {
        const N: u32 = 7;
        let dict = SharedDict::new();
        let ops = [dict.intern("read"), dict.intern("write")];
        let class = |id: u32| EntityClass::ALL[(id % 3) as usize];
        let mut seed = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |bound: u32| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed % bound as u64) as u32
        };
        for round in 0..40 {
            // Few nodes, many edges: parallel edges, 2-cycles and self-loops
            // are all but certain.
            let mut edges: Vec<(u32, u32, Sym)> =
                (0..4 + round).map(|_| (next(N), next(N), ops[next(2) as usize])).collect();
            // Ground truth: multi-hop walks never use a self-loop.
            let hops: Vec<(u32, u32)> =
                edges.iter().filter(|e| e.0 != e.1).map(|e| (e.0, e.1)).collect();
            let mut want = PathCatalog::new();
            want.nodes.resize_with(N as usize, NodeWalks::default);
            want.edges = edges.len() as u64;
            for &(u, v, op) in &edges {
                want.walks[0][class(u) as usize][class(v) as usize] += 1;
                want.op_pairs.entry(op).or_default()[class(u) as usize][class(v) as usize] += 1;
            }
            for id in 0..N {
                let c = class(id) as usize;
                want.distinct_src[c] += edges.iter().any(|e| e.0 == id) as u64;
                want.distinct_dst[c] += edges.iter().any(|e| e.1 == id) as u64;
            }
            for &(a, b) in &hops {
                for &(_, c) in hops.iter().filter(|h| h.0 == b) {
                    want.walks[1][class(a) as usize][class(c) as usize] += 1;
                    want.nodes[c as usize].ends2[class(a) as usize] += 1;
                    want.nodes[a as usize].starts2[class(c) as usize] += 1;
                    for &(_, d) in hops.iter().filter(|h| h.0 == c) {
                        want.walks[2][class(a) as usize][class(d) as usize] += 1;
                    }
                }
            }
            let want = want.canonical(&dict);
            for _shuffle in 0..4 {
                for i in (1..edges.len()).rev() {
                    edges.swap(i, next(i as u32 + 1) as usize);
                }
                let mut got = PathCatalog::new();
                for &(u, v, op) in &edges {
                    got.record_edge(u, v, class(u), class(v), op);
                }
                assert_eq!(got.canonical(&dict), want, "edges {edges:?}");
            }
        }
    }

    /// The digest is a function of the counts: equal for every insertion
    /// order of one edge multiset, different once any count differs.
    #[test]
    fn digest_follows_the_counts() {
        let dict = SharedDict::new();
        let (read, write) = (dict.intern("read"), dict.intern("write"));
        let edges = [(0u32, 1u32, P, P, read), (1, 2, P, F, write), (1, 0, P, P, read)];
        let build = |order: &[usize], extra: Option<(u32, u32, EntityClass, EntityClass, Sym)>| {
            let mut c = PathCatalog::new();
            for (u, v, cu, cv, op) in order.iter().map(|&i| edges[i]).chain(extra) {
                c.record_edge(u, v, cu, cv, op);
            }
            c.digest()
        };
        let reference = build(&[0, 1, 2], None);
        assert_eq!(build(&[2, 1, 0], None), reference);
        assert_eq!(build(&[1, 2, 0], None), reference);
        assert_ne!(PathCatalog::new().digest(), reference);
        assert_ne!(build(&[0, 1], None), reference);
        // One more edge, and the same edge under another operation.
        assert_ne!(build(&[0, 1, 2], Some((2, 2, F, F, read))), reference);
        assert_ne!(build(&[0, 1], Some((1, 0, P, P, write))), reference);
    }

    /// Self-loops count at length 1 and in op pairs but never in
    /// multi-hop walks, regardless of surrounding edges.
    #[test]
    fn self_loops_stay_single_hop() {
        let (mut c, op, _) = cat();
        c.record_edge(0, 0, P, P, op);
        c.record_edge(0, 1, P, F, op);
        c.record_edge(0, 0, P, P, op);
        assert_eq!(c.walks(1, P, P), 2);
        assert_eq!(c.walks(1, P, F), 1);
        assert_eq!(c.walks(2, P, P), 0);
        assert_eq!(c.walks(2, P, F), 0);
        assert_eq!(c.op_pair_count(P, op, P), 2);
        // The loop still proves node 0 reaches and is reached.
        assert_eq!(c.reachable_pairs(P, P), 1);
    }

    /// A catalog is cold until its first edge: downstream consumers fall
    /// back on an empty store and stop as soon as it holds anything.
    #[test]
    fn catalog_is_cold_until_the_first_edge() {
        let (mut c, op, _) = cat();
        assert!(!c.is_warm());
        assert_eq!(c.edge_count(), 0);
        assert_eq!(c.walks(1, P, F), 0);
        c.record_edge(0, 1, P, F, op);
        assert!(c.is_warm());
    }
}
