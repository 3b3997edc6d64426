//! Delta-incremental variable-length path matching.
//!
//! A [`PathFrontier`] caches, for one compiled variable-length path pattern,
//! which anchor nodes reach which frontier nodes in how many hops. Standing
//! queries advance it once per ingestion epoch: new EVENT edges *relax* the
//! cached min-distance map (extending existing frontiers and retro-seeding
//! walks that pass *through* the new edge) instead of re-walking the whole
//! graph, so per-epoch cost tracks the epoch size, not the store size.
//!
//! ## Equivalence with one-shot evaluation
//!
//! The frontier is the second driver of the pattern [`crate::backend`]
//! compiles: the same `PathSpec` (labels, prefix bounds `lo..=hi`, lowered
//! predicates, candidate ids) and the same `PathMatcher` decide what is an
//! anchor, an object, a final edge, and what a prefix endpoint contributes.
//! Only *when* a node is found to end an anchor's prefix differs. It accepts
//! the shapes whose prefix endpoints are the shortest-walk ball — `lo <= 1`,
//! every shape TBQL's `~>(m~n)` sugar produces; that module's doc has the
//! argument — and returns pairs only (an event is wanted for single-hop
//! patterns alone, which stay on the row-range path):
//!
//! * `dist[n][a]` is the shortest walk `a -> n` when at most `hi` long;
//!   `x == a` closures are witnessed by the shortest *cycle* through `a`
//!   (stored as `dist[a][a]`; the zero-length walk is handled at anchor
//!   creation when `lo == 0`);
//! * a final edge is a segment of its own and may repeat prefix edges, which
//!   is exactly what scanning all out-edges of every reached prefix endpoint
//!   reproduces — in both directions: a new endpoint fires its old edges, a
//!   new edge fires against the endpoints already cached at its source.
//!
//! Because shortest distances only ever shrink on a grow-only store, the
//! emitted pair set grows monotonically and the frontier never retracts.

use raptor_common::error::{Error, Result};
use raptor_common::hash::{FxHashMap, FxHashSet};
use raptor_common::io;
use raptor_storage::PathPatternQuery;

use crate::backend::{PathMatcher, PathSpec};
use crate::graph::{EdgeId, Graph, NodeId};

/// Cached per-query frontier state for one variable-length path pattern.
pub struct PathFrontier {
    /// Rebuilt from the compiled query, never serialized. `spec.hi` is the
    /// max relaxation depth.
    spec: PathSpec,
    state: State,
}

#[derive(Default)]
struct State {
    node_mark: usize,
    edge_mark: usize,
    anchors: FxHashSet<u32>,
    /// `dist[node][anchor]` = shortest EVENT-walk length in `1..=hi`.
    /// `dist[a][a]` is the shortest cycle through `a`, never 0.
    dist: FxHashMap<u32, FxHashMap<u32, u32>>,
    /// Emitted `(subject id, object id)` pairs.
    seen: FxHashSet<(i64, i64)>,
}

impl PathFrontier {
    /// Builds a frontier for a compiled path request, or `None` when the
    /// request's shape is outside the frontier's equivalence envelope and
    /// must stay on full re-evaluation.
    pub fn new(q: &PathPatternQuery) -> Result<Option<PathFrontier>> {
        let single_hop = q.min_hops == 1 && q.max_hops == Some(1);
        if q.want_event || single_hop {
            return Ok(None);
        }
        let spec = PathSpec::compile(q)?;
        // Shortest-walk reachability witnesses every admissible length only
        // when the prefix's lower bound cannot exceed 1.
        Ok((spec.lo <= 1).then(|| PathFrontier { spec, state: State::default() }))
    }

    /// Number of cached `(node, anchor)` distance entries (metrics gauge).
    pub fn entries(&self) -> usize {
        self.state.dist.values().map(FxHashMap::len).sum()
    }

    /// The `(node, edge)` watermarks: how much of the graph the frontier
    /// has absorbed. Whoever restores a frontier checks them against the
    /// graph it will advance on.
    pub fn marks(&self) -> (usize, usize) {
        (self.state.node_mark, self.state.edge_mark)
    }

    /// Marks pairs as already emitted (restoring from checkpointed matches).
    pub fn seed_seen(&mut self, pairs: impl IntoIterator<Item = (i64, i64)>) {
        self.state.seen.extend(pairs);
    }

    /// Absorbs everything the store gained since the last call and returns
    /// the *new* `(subject id, object id)` pairs, sorted. A fresh frontier
    /// absorbs the whole store, which equals one-shot evaluation; thereafter
    /// each call costs work proportional to the delta, not the store.
    pub fn advance(&mut self, g: &Graph) -> Vec<(i64, i64)> {
        let mut out: Vec<(i64, i64)> = Vec::new();
        let m = self.spec.on(g);
        let st = &mut self.state;

        // New nodes: collect anchors; with `lo == 0` an anchor ends its own
        // zero-length prefix.
        let node_count = g.node_count();
        for idx in st.node_mark..node_count {
            let n = NodeId(idx as u32);
            if m.subject_ok(n) {
                st.anchors.insert(n.0);
                if m.spec.lo == 0 {
                    st.on_reached(&m, n, n, &mut out);
                }
            }
        }
        st.node_mark = node_count;

        // New edges: each may (a) serve as the constrained final hop of an
        // already-cached prefix, and (b) shorten walks for every anchor that
        // reaches its source, which propagates forward through *all* current
        // edges (retro-seeding walks through the new edge).
        let edge_count = g.edge_count();
        for idx in st.edge_mark..edge_count {
            let eid = EdgeId(idx as u32);
            if !m.is_event(eid) {
                continue;
            }
            let (u, v) = (g.edge(eid).src, g.edge(eid).dst);
            if m.spec.has_final && m.final_edge_ok(eid) {
                let mut endpoints: Vec<u32> = Vec::new();
                if m.spec.lo == 0 && st.anchors.contains(&u.0) {
                    endpoints.push(u.0);
                }
                if let Some(reaching) = st.dist.get(&u.0) {
                    endpoints.extend(reaching.keys().copied());
                }
                for a in endpoints {
                    if m.object_ok(v, NodeId(a)) {
                        st.emit(&m, NodeId(a), v, &mut out);
                    }
                }
            }
            st.relax(&m, u.0, v.0, &mut out);
        }
        st.edge_mark = edge_count;

        out.sort_unstable();
        out
    }

    /// Serializes the incremental state (watermarks, anchors, distance map)
    /// with fully sorted iteration so the encoding is deterministic. The
    /// emitted-pair set is *not* serialized: the checkpoint already carries
    /// the accumulated matches, and [`PathFrontier::seed_seen`] rebuilds it
    /// from them on restore.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        let st = &self.state;
        io::put_u64(buf, st.node_mark as u64);
        io::put_u64(buf, st.edge_mark as u64);
        let mut anchors: Vec<u32> = st.anchors.iter().copied().collect();
        anchors.sort_unstable();
        io::put_u64(buf, anchors.len() as u64);
        for a in anchors {
            io::put_u32(buf, a);
        }
        let mut nodes: Vec<u32> = st.dist.keys().copied().collect();
        nodes.sort_unstable();
        io::put_u64(buf, nodes.len() as u64);
        for n in nodes {
            io::put_u32(buf, n);
            let mut entries: Vec<(u32, u32)> = st.dist[&n].iter().map(|(&a, &d)| (a, d)).collect();
            entries.sort_unstable();
            io::put_u64(buf, entries.len() as u64);
            for (a, d) in entries {
                io::put_u32(buf, a);
                io::put_u32(buf, d);
            }
        }
    }

    /// Restores state written by [`PathFrontier::encode`] into a freshly
    /// built frontier for the same compiled query. Corrupt input yields a
    /// typed error, never a panic: every node it names is below its own
    /// node mark, and every distance is from one of its anchors.
    pub fn decode(&mut self, cur: &mut io::Cur<'_>) -> Result<()> {
        let node_mark = cur.get_u64()? as usize;
        let edge_mark = cur.get_u64()? as usize;
        let node = |n: u32| match (n as usize) < node_mark {
            true => Ok(n),
            false => Err(Error::storage(format!(
                "frontier node {n} at or past its node mark {node_mark} (corrupt state)"
            ))),
        };
        let mut anchors = FxHashSet::default();
        for _ in 0..cur.get_len()? {
            anchors.insert(node(cur.get_u32()?)?);
        }
        let mut dist: FxHashMap<u32, FxHashMap<u32, u32>> = FxHashMap::default();
        for _ in 0..cur.get_len()? {
            let n = node(cur.get_u32()?)?;
            let mut m = FxHashMap::default();
            for _ in 0..cur.get_len()? {
                let a = cur.get_u32()?;
                let d = cur.get_u32()?;
                if !anchors.contains(&a) {
                    return Err(Error::storage(format!(
                        "frontier distance from {a}, which is not an anchor (corrupt state)"
                    )));
                }
                if d == 0 || d > self.spec.hi {
                    return Err(Error::storage(format!(
                        "frontier distance {d} outside 1..={} (corrupt state)",
                        self.spec.hi
                    )));
                }
                m.insert(a, d);
            }
            dist.insert(n, m);
        }
        let st = &mut self.state;
        st.node_mark = node_mark;
        st.edge_mark = edge_mark;
        st.anchors = anchors;
        st.dist = dist;
        Ok(())
    }
}

impl State {
    /// Relaxes the min-distance map through the new edge `u -> v` for every
    /// anchor currently reaching `u` (or `u` itself when it is an anchor),
    /// propagating improvements forward along existing EVENT edges.
    fn relax(&mut self, m: &PathMatcher<'_>, u: u32, v: u32, out: &mut Vec<(i64, i64)>) {
        let (g, limit) = (m.g, m.spec.hi);
        if limit == 0 {
            return;
        }
        // (node, anchor, candidate distance); pushes are pre-filtered to
        // `<= limit`.
        let mut work: Vec<(u32, u32, u32)> = Vec::new();
        if self.anchors.contains(&u) {
            work.push((v, u, 1));
        }
        if let Some(reaching) = self.dist.get(&u) {
            for (&a, &d) in reaching {
                if d < limit {
                    work.push((v, a, d + 1));
                }
            }
        }
        while let Some((n, a, d)) = work.pop() {
            let slot = self.dist.entry(n).or_default();
            let created = match slot.get(&a) {
                Some(&prev) if prev <= d => continue,
                prev => prev.is_none(),
            };
            slot.insert(a, d);
            if created {
                self.on_reached(m, NodeId(n), NodeId(a), out);
            }
            if d < limit {
                for &eid in g.out_edges(NodeId(n)) {
                    if m.is_event(eid) {
                        work.push((g.edge(eid).dst.0, a, d + 1));
                    }
                }
            }
        }
    }

    /// Anchor `a`'s prefix ends at `n` for the first time: emit what that
    /// contributes (with a final hop, `n`'s qualifying out-edges may predate
    /// its reachability — this is the retro-seeding direction).
    fn on_reached(&mut self, m: &PathMatcher<'_>, n: NodeId, a: NodeId, out: &mut Vec<(i64, i64)>) {
        m.matches_at(n, a, |o, _| self.emit(m, a, o, out));
    }

    fn emit(&mut self, m: &PathMatcher<'_>, a: NodeId, o: NodeId, out: &mut Vec<(i64, i64)>) {
        let pair = (m.entity_id(a), m.entity_id(o));
        if self.seen.insert(pair) {
            out.push(pair);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cypher::{exec::execute, parse_cypher};
    use crate::graph::PropIns;
    use raptor_common::intern::SharedDict;
    use raptor_storage::{CmpOp, EntityClass, EntitySel, Pred, Value};

    fn proc(g: &mut Graph, id: i64, exe: &str) -> NodeId {
        g.add_node("Process", &[("id", PropIns::Int(id)), ("exename", PropIns::Str(exe))])
    }

    fn file(g: &mut Graph, id: i64, name: &str) -> NodeId {
        g.add_node("File", &[("id", PropIns::Int(id)), ("name", PropIns::Str(name))])
    }

    fn ev(g: &mut Graph, id: i64, src: NodeId, dst: NodeId, op: &str) {
        let _ = g.add_edge(
            src,
            dst,
            "EVENT",
            &[
                ("id", PropIns::Int(id)),
                ("optype", PropIns::Str(op)),
                ("starttime", PropIns::Int(id * 10)),
                ("endtime", PropIns::Int(id * 10 + 1)),
            ],
        );
    }

    fn sel(class: EntityClass) -> EntitySel {
        EntitySel { class, filter: None, id_in: None }
    }

    fn req(min: u32, max: Option<u32>, op: Option<&str>, dict: &SharedDict) -> PathPatternQuery {
        PathPatternQuery {
            subject: sel(EntityClass::Process),
            object: sel(EntityClass::File),
            min_hops: min,
            max_hops: max,
            hop_cap: 8,
            final_hop_pred: op.map(|o| Pred::Cmp {
                attr: "optype".into(),
                op: CmpOp::Eq,
                value: Value::Str(dict.intern(o)),
            }),
            want_event: false,
            subject_is_object: false,
        }
    }

    /// The same request (one of [`req`]'s) as Cypher text through the text
    /// frontend's own DFS — the independent reference.
    fn batch_pairs(g: &Graph, q: &PathPatternQuery) -> Vec<(i64, i64)> {
        let range = |min: u32, max: Option<u32>| {
            format!("*{min}..{}", max.map(|m| m.to_string()).unwrap_or_default())
        };
        let text = match &q.final_hop_pred {
            Some(Pred::Cmp { value, .. }) => format!(
                "MATCH (s:Process)-[:EVENT{}]->()-[e:EVENT]->(o:File) WHERE e.optype = '{}' \
                 RETURN DISTINCT s.id, o.id",
                range(q.min_hops - 1, q.max_hops.map(|m| m - 1)),
                value.render(g.dict()),
            ),
            _ => format!(
                "MATCH (s:Process)-[:EVENT{}]->(o:File) RETURN DISTINCT s.id, o.id",
                range(q.min_hops, q.max_hops)
            ),
        };
        let r = execute(g, &parse_cypher(&text).unwrap(), q.hop_cap).unwrap();
        let (s, o) = (&r.batch.cols[0], &r.batch.cols[1]);
        let mut pairs: Vec<(i64, i64)> = (0..s.len())
            .map(|i| (s.get(i).as_int().unwrap(), o.get(i).as_int().unwrap()))
            .collect();
        pairs.sort_unstable();
        pairs
    }

    /// Incremental absorption equals batch evaluation at every step, and
    /// emitted deltas never retract.
    #[test]
    fn frontier_tracks_batch_at_every_step() {
        let mut g = Graph::new();
        let q = req(1, Some(3), None, &g.dict().clone());
        let mut f = PathFrontier::new(&q).unwrap().unwrap();
        let mut acc: Vec<(i64, i64)> = Vec::new();

        let p0 = proc(&mut g, 0, "/bin/tar");
        let p1 = proc(&mut g, 1, "/bin/bzip2");
        let f2 = file(&mut g, 2, "/tmp/a");
        let f3 = file(&mut g, 3, "/tmp/b");
        acc.extend(f.advance(&g));
        assert!(acc.is_empty(), "no edges yet");

        ev(&mut g, 0, p0, f2, "write");
        acc.extend(f.advance(&g));
        assert_eq!(acc, vec![(0, 2)]);

        // A new edge *extending* the cached frontier (p0 ~> f3 via p1).
        ev(&mut g, 1, p0, p1, "fork");
        ev(&mut g, 2, p1, f3, "write");
        acc.extend(f.advance(&g));
        acc.sort_unstable();
        assert_eq!(acc, batch_pairs(&g, &q));

        // Retro-seeding: an edge in the *middle* of a pre-existing prefix
        // and suffix creates pairs passing through it.
        let p4 = proc(&mut g, 4, "/usr/bin/gpg");
        let f5 = file(&mut g, 5, "/tmp/c");
        ev(&mut g, 3, p4, f5, "write"); // suffix exists first
        acc.extend(f.advance(&g));
        ev(&mut g, 4, p1, p4, "fork"); // new middle edge
        acc.extend(f.advance(&g));
        acc.sort_unstable();
        acc.dedup();
        assert_eq!(acc, batch_pairs(&g, &q));
    }

    /// Final-hop operations: prefix cached, final edge constrained; new
    /// final edges fire against old prefixes and vice versa.
    #[test]
    fn final_hop_op_matches_batch() {
        let mut g = Graph::new();
        let dict = g.dict().clone();
        let q = req(1, Some(3), Some("write"), &dict);
        let mut f = PathFrontier::new(&q).unwrap().unwrap();
        let mut acc: Vec<(i64, i64)> = Vec::new();

        let p0 = proc(&mut g, 0, "/bin/tar");
        let p1 = proc(&mut g, 1, "/bin/bzip2");
        let fa = file(&mut g, 2, "/tmp/a");
        ev(&mut g, 0, p0, p1, "fork");
        acc.extend(f.advance(&g));
        assert!(acc.is_empty());

        // New final edge: fires against the cached prefix endpoint p1 (for
        // anchor p0) and against p1's own zero-length prefix.
        ev(&mut g, 1, p1, fa, "write");
        acc.extend(f.advance(&g));
        assert_eq!(acc, vec![(0, 2), (1, 2)]);
        assert_eq!(acc, batch_pairs(&g, &q));

        // `read` final edges never match.
        let fb = file(&mut g, 3, "/tmp/b");
        ev(&mut g, 2, p1, fb, "read");
        assert!(f.advance(&g).is_empty());
        assert_eq!(batch_pairs(&g, &q).len(), 2);
    }

    /// Binding happens per advance, not at compile: a frontier built while
    /// no record carries `EVENT` or `optype` still sees them once edges
    /// intern them.
    #[test]
    fn names_interned_after_compile_are_bound_at_advance() {
        let mut g = Graph::new();
        let dict = g.dict().clone();
        let q = req(1, Some(3), Some("write"), &dict);
        let mut f = PathFrontier::new(&q).unwrap().unwrap();
        let p0 = proc(&mut g, 0, "/bin/tar");
        let p1 = proc(&mut g, 1, "/bin/sh");
        let fa = file(&mut g, 2, "/tmp/a");
        assert_eq!((dict.get("EVENT"), dict.get("optype")), (None, None));
        assert!(f.advance(&g).is_empty());

        ev(&mut g, 0, p0, p1, "fork");
        ev(&mut g, 1, p1, fa, "write");
        let pairs = f.advance(&g);
        assert_eq!(pairs, vec![(0, 2), (1, 2)]);
        assert_eq!(pairs, batch_pairs(&g, &q));
    }

    /// Forged state naming nodes past its own node mark, or distances from
    /// a node that is not an anchor, is refused at decode — it used to
    /// decode and then panic on the first advance.
    #[test]
    fn forged_state_is_a_typed_error() {
        use raptor_common::error::ErrorKind;
        let dict = SharedDict::new();
        let q = req(1, Some(3), None, &dict);
        // The distance map as (node, [(anchor, distance)]).
        type Dist = &'static [(u32, &'static [(u32, u32)])];
        // (anchors, distance map), node mark 2.
        let forged: [(&[u32], Dist); 4] = [
            (&[999], &[(0, &[(999, 1)])]),
            (&[2], &[]),
            (&[0], &[(5, &[(0, 1)])]),
            (&[0], &[(1, &[(1, 1)])]),
        ];
        for (anchors, dist) in forged {
            let mut buf = Vec::new();
            io::put_u64(&mut buf, 2);
            io::put_u64(&mut buf, 0);
            io::put_u64(&mut buf, anchors.len() as u64);
            anchors.iter().for_each(|&a| io::put_u32(&mut buf, a));
            io::put_u64(&mut buf, dist.len() as u64);
            for &(n, entries) in dist {
                io::put_u32(&mut buf, n);
                io::put_u64(&mut buf, entries.len() as u64);
                for &(a, d) in entries {
                    io::put_u32(&mut buf, a);
                    io::put_u32(&mut buf, d);
                }
            }
            let mut f = PathFrontier::new(&q).unwrap().unwrap();
            let err = f.decode(&mut io::Cur::new(&buf)).unwrap_err();
            assert_eq!(err.kind, ErrorKind::Storage, "{anchors:?} {dist:?}: {err}");
        }
    }

    /// Shapes outside the equivalence envelope are refused.
    #[test]
    fn ineligible_shapes_are_refused() {
        let dict = SharedDict::new();
        // Single hop stays on the existing delta path.
        assert!(PathFrontier::new(&req(1, Some(1), None, &dict)).unwrap().is_none());
        // Lower bounds beyond the shortest-walk witness are refused.
        assert!(PathFrontier::new(&req(2, Some(4), None, &dict)).unwrap().is_none());
        assert!(PathFrontier::new(&req(3, Some(4), Some("write"), &dict)).unwrap().is_none());
        // ... but `min == 2` with a final hop has prefix lower bound 1.
        assert!(PathFrontier::new(&req(2, Some(4), Some("write"), &dict)).unwrap().is_some());
    }

    /// Encode/decode round-trips the incremental state byte-for-byte.
    #[test]
    fn state_round_trips() {
        let mut g = Graph::new();
        let dict = g.dict().clone();
        let q = req(1, Some(3), None, &dict);
        let mut f = PathFrontier::new(&q).unwrap().unwrap();
        let p0 = proc(&mut g, 0, "/bin/tar");
        let p1 = proc(&mut g, 1, "/bin/sh");
        let fa = file(&mut g, 2, "/tmp/a");
        ev(&mut g, 0, p0, p1, "fork");
        ev(&mut g, 1, p1, fa, "write");
        let emitted = f.advance(&g);
        assert!(!emitted.is_empty());

        let mut buf = Vec::new();
        f.encode(&mut buf);
        let mut g2 = PathFrontier::new(&q).unwrap().unwrap();
        let mut cur = io::Cur::new(&buf);
        g2.decode(&mut cur).unwrap();
        g2.seed_seen(emitted.iter().copied());
        let mut buf2 = Vec::new();
        g2.encode(&mut buf2);
        assert_eq!(buf, buf2);
        assert_eq!(f.entries(), g2.entries());

        // The restored frontier continues where the original left off.
        let f5 = file(&mut g, 5, "/tmp/b");
        ev(&mut g, 2, p1, f5, "write");
        assert_eq!(f.advance(&g), g2.advance(&g));
    }
}
